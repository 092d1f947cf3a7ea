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
from oracles import digit_add, digit_neg, horner_eval


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
# both characteristics and a prime field, taken from the per-element build.
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
                assert ctx.from_coords(ctx.coords(x, m), m) == x
        rng = random.Random(5)
        for _ in range(50):
            x, y = rng.randrange(ctx.order), rng.randrange(ctx.order)
            cx, cy = ctx.coords(x, 1), ctx.coords(y, 1)
            cz = ctx.coords(ctx.add(x, y), 1)
            assert all(ctx.add(a, b) == c for a, b, c in zip(cx, cy, cz))


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
                    continue
                dual = ctx.dual_basis(ws, m)
                for i, w in enumerate(ws):
                    for j, d in enumerate(dual):
                        assert ctx.trace_to_subfield(ctx.mul(w, d), m) == (i == j)
            if big_l > 1:
                # a repeated element makes the Gram matrix singular
                with pytest.raises(RankDeficientError):
                    ctx.dual_basis([1] * big_l, m)
