import hashlib
import json
import random
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from compactrepair import field_new
from compactrepair.errors import (
    FieldTooLargeError,
    InvalidSubfieldError,
    NonPrimeError,
    RankDeficientError,
    ReducibleModulusError,
)
from compactrepair.gf import FieldCtx, _irreducible_rows, _is_irreducible, find_irreducible
from oracles import (
    digit_add,
    digit_neg,
    dual_basis_gram,
    echelon_scan,
    first_primitive_scan,
    from_coords,
    horner_eval,
    is_irreducible_rabin,
    trace_scan,
)


def test_default_gf16_modulus_and_generator(gf16):
    assert gf16.modulus == (1, 1, 0, 0, 1)  # x^4 + x + 1
    z = gf16.generator
    assert z == 2
    # z^4 = z + 1 under the pinned modulus
    assert gf16.pow(z, 4) == gf16.add(z, 1)


def test_gf2_identity_case():
    ctx = field_new(2, 1, 1)
    assert ctx.order == 2
    assert ctx.generator == 1
    assert ctx.mul(1, 1) == 1
    assert ctx.add(1, 1) == 0


def test_gf9_generator_order_exhaustive(gf9):
    # oracle: all eight powers of the generator are distinct
    powers = {gf9.pow(gf9.generator, i) for i in range(8)}
    assert len(powers) == 8
    assert gf9.pow(gf9.generator, 8) == 1


def test_construction_errors():
    with pytest.raises(NonPrimeError):
        field_new(4, 1, 2)
    with pytest.raises(FieldTooLargeError):
        field_new(2, 1, 21)
    with pytest.raises(ReducibleModulusError):
        field_new(2, 1, 4, (1, 0, 0, 0, 1))  # x^4 + 1 = (x+1)^4
    with pytest.raises(ValueError):
        field_new(2, 1, 4, (1, 1, 1))  # wrong degree
    with pytest.raises(ValueError):
        field_new(2, 1, 4, (1, 1, 0, 0, 0))  # not monic


@pytest.mark.parametrize(
    "p, modulus",
    [
        (2, (1, 0, 1, 0, 1)),  # (x^2 + x + 1)^2: no factor of degree 1
        (2, (0, 1, 1, 0, 1)),  # x * (x^3 + x + 1)
        (3, (2, 0, 1)),  # x^2 - 1 = (x + 1)(x + 2)
        (3, (1, 0, 2, 0, 1)),  # (x^2 + 1)^2
        (5, (4, 0, 0, 1)),  # x^3 - 4 has the root 4 over F_5
    ],
)
def test_reducible_explicit_modulus_rejected(p, modulus):
    with pytest.raises(ReducibleModulusError):
        field_new(p, 1, len(modulus) - 1, modulus)


# (p, largest n): every monic f of degree <= n with f(0) != 0 is tested.
IRREDUCIBILITY_SWEEP = [(2, 10), (3, 6), (5, 4), (7, 3)]


@pytest.mark.parametrize("p, top", IRREDUCIBILITY_SWEEP, ids=[f"{p}^<={n}" for p, n in IRREDUCIBILITY_SWEEP])
def test_ben_or_matches_rabin_exhaustive(p, top):
    for n in range(1, top + 1):
        # encoding order of the monic polynomials, constant term nonzero
        moduli = [
            tuple((enc // p**i) % p for i in range(n + 1))
            for enc in range(p**n, 2 * p**n)
            if enc % p
        ]
        expected = [is_irreducible_rabin(list(f), p) for f in moduli]
        assert [_is_irreducible(f, p) for f in moduli] == expected, (p, n)
        if p != 2:  # the batched form find_irreducible runs
            assert _irreducible_rows(np.array(moduli), p).tolist() == expected, (p, n)
        if n > 1:  # degree 1 takes x itself, the one modulus with f(0) = 0
            assert find_irreducible(p, n) == moduli[expected.index(True)], (p, n)


def _prime_powers(limit):
    sieve = [True] * (limit + 1)
    for p in range(2, limit + 1):
        if sieve[p]:
            sieve[p * p :: p] = [False] * len(sieve[p * p :: p])
            n = 1
            while p**n <= limit:
                yield p, n
                n += 1


def test_generator_matches_sequential_scan_up_to_2_12():
    fields = list(_prime_powers(1 << 12))
    assert len(fields) == 564 + 40  # primes below 4096, and their higher powers
    for p, n in fields:
        ctx = field_new(p, 1, n)
        assert ctx.generator == first_primitive_scan(p, ctx.modulus), (p, n)


def test_order_cap_checked_before_primality():
    # trial division of 2^61 - 1, or computing 3^(10^9), would run for
    # minutes; the cap must reject both first
    start = time.perf_counter()
    for p, ell in ((2**61 - 1, 1), (3, 10**9)):
        with pytest.raises(FieldTooLargeError):
            field_new(p, 1, ell)
    assert time.perf_counter() - start < 1.0


def test_modulus_override_matches_default(gf16):
    ctx = field_new(2, 1, 4, (1, 1, 0, 0, 1))
    assert ctx.modulus == gf16.modulus
    assert ctx.generator == gf16.generator


def test_example_sums_and_products(gf16):
    # z^4 + z^5 = z^8, consistent with the golden seed being a subspace
    assert gf16.add(gf16.exp(4), gf16.exp(5)) == gf16.exp(8)
    # log-table product
    assert gf16.mul(gf16.exp(2), gf16.exp(10)) == gf16.exp(12)


@pytest.mark.parametrize("field", ["gf16", "gf9"])
def test_field_axioms(field, request):
    ctx = request.getfixturevalue(field)
    for x in ctx.elements():
        assert ctx.add(x, 0) == x
        assert ctx.mul(x, 1) == x
        assert ctx.add(x, ctx.neg(x)) == 0
        if x:
            assert ctx.mul(x, ctx.inv(x)) == 1
            assert ctx.pow(x, ctx.order - 1) == 1
    rng = random.Random(7)
    for _ in range(200):
        a, b, c = (rng.randrange(ctx.order) for _ in range(3))
        assert ctx.add(a, b) == ctx.add(b, a)
        assert ctx.mul(a, b) == ctx.mul(b, a)
        assert ctx.mul(a, ctx.add(b, c)) == ctx.add(ctx.mul(a, b), ctx.mul(a, c))
        assert ctx.mul(ctx.mul(a, b), c) == ctx.mul(a, ctx.mul(b, c))


@pytest.fixture(scope="module", params=[(3, 2), (3, 3), (3, 4), (5, 3)],
                ids=["gf9", "gf27", "gf81", "gf125"])
def odd_field(request):
    p, n = request.param
    return field_new(p, 1, n)


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_odd_p_field_axioms_property(odd_field, data):
    ctx = odd_field
    element = st.integers(0, ctx.order - 1)
    a, b, c = (data.draw(element, label=name) for name in "abc")
    add, mul = ctx.add, ctx.mul
    assert add(add(a, b), c) == add(a, add(b, c))
    assert mul(mul(a, b), c) == mul(a, mul(b, c))
    assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))
    assert add(a, ctx.neg(a)) == 0
    assert ctx.neg(ctx.neg(a)) == a
    assert ctx.sub(add(a, b), b) == a
    assert add(ctx.sub(a, b), b) == a
    if b:
        assert mul(b, ctx.inv(b)) == 1
        assert mul(ctx.div(a, b), b) == a
        assert ctx.div(mul(a, b), b) == a


def _check_against_digit_loops(ctx, x, y):
    p = ctx.p
    assert ctx.add(x, y) == digit_add(p, x, y)
    assert ctx.neg(x) == digit_neg(p, x)
    assert ctx.sub(x, y) == digit_add(p, x, digit_neg(p, y))
    assert ctx.add(x, ctx.neg(x)) == 0


@pytest.mark.parametrize("p, s, ell", [(5, 1, 2), (3, 1, 3), (3, 2, 2)],
                         ids=["gf25", "gf27", "gf81_over_f9"])
def test_zech_arithmetic_matches_digit_loops_exhaustive(p, s, ell):
    ctx = field_new(p, s, ell)
    for x in ctx.elements():
        for y in ctx.elements():
            _check_against_digit_loops(ctx, x, y)


@pytest.mark.parametrize("p, s, ell", [(2, 1, 4), (2, 2, 2), (3, 1, 3), (5, 1, 2)],
                         ids=["gf16", "gf16-q4", "gf27", "gf25"])
def test_array_arithmetic_matches_scalar_exhaustive(p, s, ell):
    ctx = field_new(p, s, ell)
    xs = np.array(ctx.elements())
    # add_array takes an int or an array that broadcasts against xs
    table = ctx.add_array(xs[:, None], xs[None, :])
    assert table.tolist() == [[ctx.add(x, y) for y in ctx.elements()] for x in ctx.elements()]
    assert ctx.add_array(xs, 5).tolist() == [ctx.add(x, 5) for x in ctx.elements()]
    assert ctx.log_array(xs[1:]).tolist() == [ctx.log(x) for x in ctx.nonzero_elements()]
    with pytest.raises(ValueError, match="zero"):
        ctx.log_array(xs)


@pytest.fixture(scope="module", params=[(3, 4), (5, 3), (7, 2), (3, 8)],
                ids=["gf81", "gf125", "gf49", "gf6561"])
def zech_field(request):
    p, n = request.param
    return field_new(p, 1, n)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_zech_arithmetic_matches_digit_loops_property(zech_field, data):
    ctx = zech_field
    element = st.integers(0, ctx.order - 1)
    x, y = data.draw(element, label="x"), data.draw(element, label="y")
    for a, b in ((x, y), (x, 0), (0, y), (x, ctx.neg(x))):
        _check_against_digit_loops(ctx, a, b)


# sha256 prefixes of JSON [generator, [z^0, ..., z^(order-2)]] for odd-p
# fields.  Every golden value of the package rests on these tables, so a
# change to the field bootstrap must leave them exactly as they are.
ODD_P_TABLE_DIGESTS = {
    (3, 1): "df09e20dae855952",
    (3, 2): "2d3183ae05f5fbb4",
    (3, 3): "a49b0ad2f1362350",
    (3, 4): "e789d04cc6cc7131",
    (3, 5): "24d9798413de672c",
    (3, 6): "c8a3bf083ffdc7f8",
    (3, 7): "f88650c7dfc073a3",
    (5, 2): "bd4ed951b2fe2a9e",
    (5, 3): "533198bc75424876",
    (5, 4): "fde8831a337a4d84",
    (7, 2): "ab4ec64b726753df",
    (7, 3): "819b409d8f0405ed",
    (11, 2): "b53f4e57aeac5fbb",
    (13, 2): "9c15ac7e1f6abd3d",
}


# The same digests for the larger fields the benchmark and the CLI build,
# both characteristics and a prime field, taken from the per-element build,
# and (from GF(3^12) on) for fields whose generator search or modulus search
# runs long, taken from the polynomial-list bootstrap.
LARGE_TABLE_DIGESTS = {
    (2, 8): "b382a0a8b881033d",
    (2, 12): "8455e642bb2f6fcf",
    (2, 16): "5dafe634e51e102f",
    (2, 20): "d71e11d2fe1d4ae6",
    (3, 8): "d4bd1f0b827e9638",
    (5, 6): "d0d943fbc11a838d",
    (3, 10): "b269dae356fa519c",
    (7, 4): "269617e4cab539b6",
    (65521, 1): "6f5ac363b6c4b746",
    (3, 12): "7271798319db5dd3",
    (7, 7): "e4a10d99dbb32420",
    (13, 5): "049037c6ab74628e",
    (31, 4): "86163a98beaa8366",
    (1021, 2): "5790c3c0bd5cdd60",
    (3, 9): "01ae30af4f70a3d9",
    (2, 14): "9eea3f540e6f1625",
}


def _table_digest(p, n):
    ctx = field_new(p, 1, n)
    blob = json.dumps([ctx.generator, [ctx.exp(j) for j in range(ctx.order - 1)]])
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


@pytest.mark.parametrize("p, n", list(ODD_P_TABLE_DIGESTS))
def test_odd_p_generator_and_tables_golden(p, n):
    assert _table_digest(p, n) == ODD_P_TABLE_DIGESTS[(p, n)]


@pytest.mark.parametrize("p, n", list(LARGE_TABLE_DIGESTS))
def test_large_field_generator_and_tables_golden(p, n):
    assert _table_digest(p, n) == LARGE_TABLE_DIGESTS[(p, n)]


def test_division_by_zero(gf16):
    with pytest.raises(ZeroDivisionError):
        gf16.inv(0)
    with pytest.raises(ZeroDivisionError):
        gf16.div(3, 0)
    with pytest.raises(ZeroDivisionError):
        gf16.pow(0, -1)


def test_pow_edge_cases(gf16):
    assert gf16.pow(0, 0) == 1
    assert gf16.pow(0, 5) == 0
    x = gf16.exp(3)
    assert gf16.pow(x, -1) == gf16.inv(x)
    assert gf16.pow(x, 0) == 1


def test_trace_to_gf2_counts(gf16):
    assert gf16.trace_to_subfield(0, 1) == 0
    values = [gf16.trace_to_subfield(x, 1) for x in gf16.elements()]
    assert set(values) <= {0, 1}
    # oracle: enumerate all 16 elements; the kernel of a surjective
    # F_2-linear map to F_2 has exactly 8 elements
    assert values.count(0) == 8
    assert values.count(1) == 8


def test_trace_linearity_random_pairs(gf16):
    rng = random.Random(11)
    for _ in range(100):
        x, y = rng.randrange(16), rng.randrange(16)
        assert gf16.trace_to_subfield(gf16.add(x, y), 1) == gf16.add(
            gf16.trace_to_subfield(x, 1), gf16.trace_to_subfield(y, 1)
        )


def test_trace_scalar_linearity_over_target(gf16):
    # trace down to F_4 is F_4-linear
    f4 = gf16.subfield_elements(2)
    for c in f4:
        for x in gf16.elements():
            assert gf16.trace_to_subfield(gf16.mul(c, x), 2) == gf16.mul(
                c, gf16.trace_to_subfield(x, 2)
            )


def test_trace_lands_in_subfield(gf16, gf64):
    for ctx in (gf16, gf64):
        for m in range(1, ctx.n + 1):
            if ctx.n % m:
                continue
            sub = set(ctx.subfield_elements(m))
            assert all(ctx.trace_to_subfield(x, m) in sub for x in ctx.elements())


def test_trace_tower_transitivity_gf16(gf16):
    # trace to F_2 factors through trace to F_4, exhaustively
    for x in gf16.elements():
        t = gf16.trace_to_subfield(x, 2)
        via_tower = gf16.add(t, gf16.pow(t, 2))  # trace of F_4 down to F_2
        assert gf16.trace_to_subfield(x, 1) == via_tower


def test_trace_invalid_subfield(gf16):
    with pytest.raises(InvalidSubfieldError):
        gf16.trace_to_subfield(3, 3)


def _check_trace_and_coords(ctx, m, xs):
    """trace_to_subfield and coords against trace_scan on the elements xs.

    Coordinate i of x is Tr(x * d_i) for the trace-dual d of the power
    basis, which is checked to be dual under trace_scan first.
    """
    big_l = ctx.n // m
    dual = ctx.dual_basis([ctx.exp(i) for i in range(big_l)], m)
    for i in range(big_l):
        for j, d in enumerate(dual):
            assert trace_scan(ctx, ctx.mul(ctx.exp(i), d), m) == (i == j)
    for x in xs:
        assert ctx.trace_to_subfield(x, m) == trace_scan(ctx, x, m)
        assert ctx.coords(x, m) == tuple(trace_scan(ctx, ctx.mul(x, d), m) for d in dual)


# (p, ell, subfield degrees m): GF(2), GF(16), GF(64), GF(9), GF(81), GF(125)
TRACE_FIELDS = [
    (2, 1, (1,)),
    (2, 4, (1, 2, 4)),
    (2, 6, (1, 2, 3, 6)),
    (3, 2, (1, 2)),
    (3, 4, (1, 2, 4)),
    (5, 3, (1, 3)),
]


@pytest.mark.parametrize(
    "p, ell, ms", TRACE_FIELDS, ids=[f"{p}^{ell}" for p, ell, _ in TRACE_FIELDS]
)
def test_trace_and_coords_match_trace_scan_exhaustive(p, ell, ms):
    ctx = field_new(p, 1, ell)
    for m in ms:
        _check_trace_and_coords(ctx, m, ctx.elements())


@pytest.mark.parametrize("p, ell, ms", [(2, 20, (1, 4)), (3, 12, (1, 3))], ids=["2^20", "3^12"])
def test_trace_and_coords_match_trace_scan_sampled(p, ell, ms):
    # the trace table is filled by doubling up to the full field order
    ctx = field_new(p, 1, ell)
    xs = [0, 1, ctx.order - 1, *random.Random(p).sample(range(ctx.order), 500)]
    for m in ms:
        _check_trace_and_coords(ctx, m, xs)


def test_subfield_tables_share_int_objects():
    # Python shares only the ints below 257; a trace list of fresh ints
    # would hold one object per field element of the 263 * 263.
    ctx = field_new(263, 1, 2)
    trace = [ctx.trace_to_subfield(x, 1) for x in ctx.elements()]
    elements = ctx.subfield_elements(1)
    assert len(elements) == 263
    assert {id(v) for v in trace} == {id(v) for v in elements}
    assert {id(v) for v in elements} <= {id(v) for v in ctx._exp} | {id(0)}


# Entry points that read the tables with an element argument; an int outside
# [0, order) would wrap (negative) or run off the end of a table.
OUT_OF_FIELD_CALLS = {
    "coords": lambda ctx, x: ctx.coords(x, 1),
    "echelon": lambda ctx, x: ctx.echelon([1, x], 1),
    "dual_basis": lambda ctx, x: ctx.dual_basis([1, 2, 4, x], 1),
    "rank_over": lambda ctx, x: ctx.rank_over(1, [1, x]),
    "poly_eval-point": lambda ctx, x: ctx.poly_eval([1, 1], x),
    "poly_eval-coefficient": lambda ctx, x: ctx.poly_eval([1, x], 3),
}


@pytest.mark.parametrize("x", [-1, 16])
@pytest.mark.parametrize("call", list(OUT_OF_FIELD_CALLS))
def test_out_of_field_ints_rejected(gf16, call, x):
    with pytest.raises(ValueError, match="not a field element"):
        OUT_OF_FIELD_CALLS[call](gf16, x)


def test_subfields_are_closed(gf16, gf64, gf9):
    for ctx in (gf16, gf64, gf9):
        for m in range(1, ctx.n + 1):
            if ctx.n % m:
                continue
            sub = ctx.subfield_elements(m)
            assert len(sub) == ctx.p**m
            subset = set(sub)
            for a in sub:
                for b in sub:
                    assert ctx.add(a, b) in subset
                    assert ctx.mul(a, b) in subset


def test_subfield_degree_lookup(gf16):
    assert gf16.subfield_degree(2) == 1
    assert gf16.subfield_degree(4) == 2
    assert gf16.subfield_degree(16) == 4
    with pytest.raises(InvalidSubfieldError):
        gf16.subfield_degree(8)  # F_8 is not inside GF(16)


def test_poly_eval(gf16):
    z = gf16.generator
    for x in gf16.elements():
        assert gf16.poly_eval([7], x) == 7
    # f = x + z at x = z vanishes in characteristic 2
    assert gf16.poly_eval([z, 1], z) == 0
    rng = random.Random(3)
    f = [rng.randrange(16) for _ in range(5)]
    codeword = [gf16.poly_eval(f, a) for a in gf16.elements()]
    assert len(codeword) == 16


def test_poly_eval_matches_horner(gf16, gf9, gf25, gf16_q4):
    rng = random.Random(5)
    f4 = gf16.subfield_elements(2)
    for ctx in (gf16, gf9, gf25, gf16_q4):
        q = ctx.q
        polys = [[], [0], [0, 0, 0], [ctx.generator]]
        polys += [[rng.randrange(ctx.order) for _ in range(n)] for n in (1, 4, 9)]
        # closed-form shape: nonzero only at x^(q^j - 1)
        sparse = [0] * q**2
        for j in range(3):
            sparse[q**j - 1] = rng.randrange(1, ctx.order)
        polys.append(sparse)
        polys.append([0] * 7 + [rng.randrange(1, ctx.order)])
        if ctx is gf16:  # coefficients in the F_4 subfield
            polys.append([rng.choice(f4) for _ in range(6)])
        for f in polys:
            for x in ctx.elements():  # x = 0 included
                assert ctx.poly_eval(f, x) == horner_eval(ctx, f, x)


def test_coords_roundtrip_and_linearity(gf16, gf64, gf9):
    for ctx in (gf16, gf64, gf9):
        for m in range(1, ctx.n + 1):
            if ctx.n % m:
                continue
            for x in ctx.elements():
                assert from_coords(ctx, ctx.coords(x, m), m) == x
        rng = random.Random(5)
        for _ in range(50):
            x, y = rng.randrange(ctx.order), rng.randrange(ctx.order)
            cx, cy = ctx.coords(x, 1), ctx.coords(y, 1)
            cz = ctx.coords(ctx.add(x, y), 1)
            assert all(ctx.add(a, b) == c for a, b, c in zip(cx, cy, cz))


def _dual_or_raise(dual_basis, ctx, ws, m):
    try:
        return dual_basis(ctx, ws, m)
    except RankDeficientError:
        return RankDeficientError


def _check_echelon(ctx, m, lists):
    """echelon and rank_over against coordinate rows through rref_over, and
    dual_basis against the Gram-matrix inverse on every list of length L."""
    big_l = ctx.n // m
    for elems in lists:
        basis, pivots = ctx.echelon(elems, m)
        assert (basis, pivots) == echelon_scan(ctx, elems, m)
        assert ctx.rank_over(m, elems) == len(pivots)
        if len(elems) == big_l:
            assert _dual_or_raise(FieldCtx.dual_basis, ctx, elems, m) == _dual_or_raise(
                dual_basis_gram, ctx, elems, m
            )


def _sampled_lists(ctx, m, rng, count):
    """Per draw, one list of up to L + 2 elements and one of exactly L; every
    third draw picks from a pool of five (0, 1 and three more), so that zeros
    and repeats are common."""
    big_l = ctx.n // m
    out = []
    for t in range(count):
        pool = [0, 1, *rng.sample(range(ctx.order), 3)] if t % 3 == 0 else range(ctx.order)
        out.append([rng.choice(pool) for _ in range(rng.randrange(big_l + 3))])
        out.append([rng.choice(pool) for _ in range(big_l)])
    return out


# (p, s, ell, subfield degrees m): GF(16), GF(64), GF(27), GF(81), GF(64)/F_4
ECHELON_FIELDS = [
    (2, 1, 4, (1, 2)),
    (2, 1, 6, (1, 2, 3)),
    (3, 1, 3, (1,)),
    (3, 1, 4, (1, 2)),
    (2, 2, 3, (2,)),
]


@pytest.mark.parametrize(
    "p, s, ell, ms",
    ECHELON_FIELDS,
    ids=[f"{p**s}^{ell}-m{''.join(map(str, ms))}" for p, s, ell, ms in ECHELON_FIELDS],
)
def test_echelon_matches_rref_over_exhaustive(p, s, ell, ms):
    # every list of at most two elements (zero and repeats included), then
    # sampled longer lists
    ctx = field_new(p, s, ell)
    xs = ctx.elements()
    rng = random.Random(ctx.order)
    for m in ms:
        lists = [[], *([x] for x in xs), *([x, y] for x in xs for y in xs)]
        _check_echelon(ctx, m, lists + _sampled_lists(ctx, m, rng, 100))


@pytest.mark.parametrize("p, ell, ms", [(2, 12, (1, 2, 3, 4)), (3, 8, (1, 2, 4))], ids=["2^12", "3^8"])
def test_echelon_matches_rref_over_sampled(p, ell, ms):
    ctx = field_new(p, 1, ell)
    rng = random.Random(p)
    for m in ms:
        _check_echelon(ctx, m, _sampled_lists(ctx, m, rng, 100))


def test_rank_over_subfield(gf16):
    basis = [gf16.exp(i) for i in range(4)]
    assert gf16.rank_over(1, basis) == 4
    assert gf16.rank_over(1, [basis[0], basis[0], basis[1]]) == 2
    assert gf16.rank_over(1, [0, 0]) == 0
    # over F_4 the field is 2-dimensional
    assert gf16.rank_over(2, [1, gf16.generator]) == 2


def test_designated_subfield_context(gf16_q4):
    # q = 4 built as p=2, s=2: same 16-element field, q-subfield of order 4
    assert gf16_q4.q == 4
    assert gf16_q4.order == 16
    assert len(gf16_q4.subfield_elements(2)) == 4


def test_dual_basis(gf16, gf64, gf9, gf16_q4):
    rng = random.Random(13)
    for ctx in (gf16, gf64, gf9, gf16_q4):
        for m in range(1, ctx.n + 1):
            if ctx.n % m:
                continue
            big_l = ctx.n // m
            for _ in range(10):
                ws = [rng.randrange(1, ctx.order) for _ in range(big_l)]
                if ctx.rank_over(m, ws) < big_l:
                    with pytest.raises(RankDeficientError):
                        ctx.dual_basis(ws, m)
                    with pytest.raises(RankDeficientError):
                        dual_basis_gram(ctx, ws, m)
                    continue
                dual = ctx.dual_basis(ws, m)
                assert dual == dual_basis_gram(ctx, ws, m)
                for i, w in enumerate(ws):
                    for j, d in enumerate(dual):
                        assert ctx.trace_to_subfield(ctx.mul(w, d), m) == (i == j)
            if big_l > 1:
                # a repeated element makes the Gram matrix singular
                with pytest.raises(RankDeficientError):
                    ctx.dual_basis([1] * big_l, m)
