import itertools
import random
import time

import pytest

import compactrepair.design as design_module
from compactrepair import (
    base_of,
    design_single_seed,
    enumerate_subspaces,
    field_new,
    gaussian_coefficient,
    span,
    subspace_polynomial,
)
from oracles import enumerate_subspaces_scan, linearized_to_dense, subspace_polynomial_product


def brute_force_subspaces(ctx, q, delta):
    """Oracle: spans of all delta-tuples of elements, deduped by member set."""
    found = {}
    for gens in itertools.combinations(ctx.nonzero_elements(), delta):
        S = span(ctx, q, gens)
        if S.dim == delta:
            found[S.members] = S
    return found


def test_span_empty_is_trivial(gf16):
    S = span(gf16, 2, [])
    assert S.dim == 0
    assert S.members == frozenset({0})
    assert S.basis == ()


@pytest.mark.parametrize("bad", [16, 99, -1])
def test_span_rejects_out_of_field_generator(gf16, bad):
    with pytest.raises(ValueError, match="field elements"):
        span(gf16, 2, [4, bad])


def test_subspaces_are_over_the_fields_own_q(gf16, gf16_q4):
    # GF(16) built as GF(2^4) has scalars F_2; its F_4-subspaces are those
    # of the field built as GF(4^2)
    with pytest.raises(ValueError, match="over its F_2, got q = 4"):
        span(gf16, 4, [1])
    with pytest.raises(ValueError, match="over its F_2, got q = 4"):
        list(enumerate_subspaces(gf16, 4, 1))
    line = span(gf16_q4, 4, [1])
    assert (line.q, line.dim, line.ell) == (4, 1, 2)
    assert line.members == frozenset(gf16_q4.subfield_elements(2))


def test_span_golden_seed(gf16):
    # the golden subfield-coset seed: {0, z^2, z^7, z^12}
    S = span(gf16, 2, [gf16.exp(2), gf16.exp(7)])
    assert S.members == frozenset({0, gf16.exp(2), gf16.exp(7), gf16.exp(12)})
    assert S.dim == 2


def test_span_size_is_power_of_q(gf16, gf9):
    rng = random.Random(17)
    for ctx in (gf16, gf9):
        for _ in range(30):
            gens = [rng.randrange(ctx.order) for _ in range(rng.randrange(4))]
            S = span(ctx, ctx.q, gens)
            assert len(S.members) == ctx.q**S.dim
            # oracle: members are exactly all F_q-combinations of the basis
            combos = set()
            scalars = ctx.subfield_elements(ctx.subfield_degree(ctx.q))
            for coeffs in itertools.product(scalars, repeat=S.dim):
                acc = 0
                for c, b in zip(coeffs, S.basis):
                    acc = ctx.add(acc, ctx.mul(c, b))
                combos.add(acc)
            assert combos == set(S.members)


def test_membership_closure(gf16):
    rng = random.Random(23)
    for _ in range(10):
        S = span(gf16, 2, [rng.randrange(16) for _ in range(2)])
        for a in S.members:
            for b in S.members:
                assert gf16.add(a, b) in S.members


def test_enumeration_counts(gf16, gf64, gf9):
    assert len(list(enumerate_subspaces(gf16, 2, 2))) == 35
    assert len(list(enumerate_subspaces(gf16, 2, 1))) == 15
    assert len(list(enumerate_subspaces(gf16, 2, 4))) == 1
    assert len(list(enumerate_subspaces(gf64, 2, 1))) == 63
    assert len(list(enumerate_subspaces(gf9, 3, 1))) == 4
    for ctx, q, delta in [(gf16, 2, 2), (gf64, 2, 2), (gf9, 3, 1)]:
        ell = ctx.n // ctx.subfield_degree(q)
        count = gaussian_coefficient(ell, delta, q)
        assert len(list(enumerate_subspaces(ctx, q, delta))) == count


def test_enumeration_matches_brute_force(gf16):
    enumerated = {S.members: S for S in enumerate_subspaces(gf16, 2, 2)}
    oracle = brute_force_subspaces(gf16, 2, 2)
    assert set(enumerated) == set(oracle)
    assert len(enumerated) == 35
    # canonical bases agree between the two construction paths
    for members, S in enumerated.items():
        assert oracle[members].basis == S.basis


# (p, s, ell, deltas): GF(16), GF(64), GF(81) over F_3, GF(64) over F_4, GF(125)
SCAN_CASES = [
    (2, 1, 4, (0, 1, 2, 3, 4)),
    (2, 1, 6, (3,)),
    (3, 1, 4, (2,)),
    (2, 2, 3, (2,)),
    (5, 1, 3, (1, 2)),
]


@pytest.mark.parametrize(
    "case", SCAN_CASES, ids=[f"p{c[0]}-s{c[1]}-ell{c[2]}" for c in SCAN_CASES]
)
def test_enumeration_matches_element_scan(case):
    p, s, ell, deltas = case
    ctx = field_new(p, s, ell)
    for delta in deltas:
        got = [(S.dim, S.basis, S.members) for S in enumerate_subspaces(ctx, ctx.q, delta)]
        scan = [(S.dim, S.basis, S.members) for S in enumerate_subspaces_scan(ctx, ctx.q, delta)]
        assert got == scan
        assert len(got) == gaussian_coefficient(ell, delta, ctx.q)


class _SeedChosen(Exception):
    pass


def test_enumeration_is_lazy(monkeypatch):
    # The first pivot block of GF(2^12) 6-subspaces holds 2^36 subspaces.
    ctx = field_new(2, 1, 12)
    start = time.perf_counter()
    first = next(enumerate_subspaces(ctx, 2, 6))
    assert time.perf_counter() - start < 1.0
    assert first == next(enumerate_subspaces_scan(ctx, 2, 6))

    # design_single_seed then solves an exact MILP with no time bound, so
    # stop it at the solver: everything before, the seed pick included, is timed.
    def stop(family):
        raise _SeedChosen(family)

    monkeypatch.setattr(design_module, "min_hitting_set", stop)
    start = time.perf_counter()
    with pytest.raises(_SeedChosen) as stopped:
        design_single_seed(2, 1, 12, 2, delta=6, strategy="first")
    assert time.perf_counter() - start < 1.0
    family = stopped.value.args[0]
    assert family.logs == (tuple(sorted(ctx.log(x) for x in first.star())),)


def test_enumeration_yields_each_once(gf64):
    seen = set()
    for S in enumerate_subspaces(gf64, 2, 2):
        assert S.members not in seen
        seen.add(S.members)
    assert len(seen) == 651


def test_enumeration_is_deterministic(gf16):
    first = [S.basis for S in enumerate_subspaces(gf16, 2, 2)]
    second = [S.basis for S in enumerate_subspaces(gf16, 2, 2)]
    assert first == second


def test_gaussian_coefficient_values():
    assert gaussian_coefficient(4, 0, 2) == 1
    assert gaussian_coefficient(4, 4, 2) == 1
    assert gaussian_coefficient(4, 2, 2) == 35
    assert gaussian_coefficient(2, 1, 4) == 5
    assert gaussian_coefficient(6, 3, 2) == 1395
    # symmetry
    assert gaussian_coefficient(6, 2, 2) == gaussian_coefficient(6, 4, 2)
    with pytest.raises(ValueError):
        gaussian_coefficient(3, 4, 2)


def test_base_of_subfield_itself(gf16):
    f4 = span(gf16, 2, list(gf16.subfield_elements(2)))
    assert f4.dim == 2
    assert base_of(f4) == 2


def test_base_of_golden_seeds(gf16):
    S1 = span(gf16, 2, [gf16.exp(2), gf16.exp(7)])
    S2 = span(gf16, 2, [gf16.exp(4), gf16.exp(5)])
    # oracle: exhaustive scaling check over every subfield generator
    def closed_under(ctx, S, m):
        w = ctx.exp((ctx.order - 1) // (ctx.q**m - 1))
        return all(ctx.mul(w, x) in S.members for x in S.members)

    assert closed_under(gf16, S1, 2)
    assert base_of(S1) == 2
    assert not closed_under(gf16, S2, 2)
    assert base_of(S2) == 1


def test_base_divides_gcd(gf64):
    for delta in (2, 3, 4):
        for S in itertools.islice(enumerate_subspaces(gf64, 2, delta), 60):
            m = base_of(S)
            import math

            assert math.gcd(S.ell, S.dim) % m == 0


def test_scaling_preserves_dim_and_base(gf16):
    rng = random.Random(31)
    for S in enumerate_subspaces(gf16, 2, 2):
        b = gf16.exp(rng.randrange(15))
        T = span(gf16, 2, [gf16.mul(b, g) for g in S.basis])
        assert T.dim == S.dim
        assert base_of(T) == base_of(S)


def test_canonical_equality_iff_member_equality(gf16):
    rng = random.Random(41)
    for _ in range(50):
        gens = [rng.randrange(1, 16) for _ in range(2)]
        S = span(gf16, 2, gens)
        # respan from shuffled sums of generators: same subspace
        mixed = [gens[1], gf16.add(gens[0], gens[1]), gens[0]]
        rng.shuffle(mixed)
        T = span(gf16, 2, mixed)
        assert T.members == S.members
        assert T.basis == S.basis
        assert T == S
    subs = list(enumerate_subspaces(gf16, 2, 2))
    for a, b in itertools.combinations(subs, 2):
        assert a.basis != b.basis
        assert a.members != b.members


def random_subspaces(ctx, dims, per_dim, seed):
    """per_dim spans of dim random nonzero generators over the field's q."""
    rng = random.Random(seed)
    for dim in dims:
        for _ in range(per_dim):
            yield span(ctx, ctx.q, [rng.randrange(1, ctx.order) for _ in range(dim)])


def test_subspace_polynomial_trivial(gf16):
    S = span(gf16, 2, [])
    assert subspace_polynomial(S) == (1,)  # L(x) = x
    assert linearized_to_dense(gf16, 2, (1,)) == subspace_polynomial_product(S) == (0, 1)


def test_subspace_polynomial_roots(gf16, gf9, gf16_q4, gf25):
    golden = span(gf16, 2, [gf16.exp(2), gf16.exp(7)])
    cases = [golden]
    for ctx in (gf9, gf16_q4, gf25):
        cases += list(random_subspaces(ctx, (1, 2), 2, 61))
    for S in cases:
        ctx = S.ctx
        L = subspace_polynomial(S)
        assert len(L) == S.dim + 1
        assert L[-1] == 1  # monic
        dense = linearized_to_dense(ctx, S.q, L)
        assert dense == subspace_polynomial_product(S)
        for x in ctx.elements():
            assert (ctx.poly_eval(dense, x) == 0) == (x in S.members)


@pytest.mark.parametrize(
    "field,deltas",
    [
        ("gf16", (1, 2, 3)),
        ("gf64", (1, 2, 3)),
        ("gf9", (1, 2)),
        ("gf16_q4", (1, 2)),
        ("gf25", (1, 2)),
    ],
)
def test_subspace_polynomial_is_linearized(field, deltas, request):
    ctx = request.getfixturevalue(field)
    for S in random_subspaces(ctx, deltas, 5, 53):
        product = subspace_polynomial_product(S)
        powers = {S.q**i for i in range(S.dim + 1)}
        for exponent, coeff in enumerate(product):
            if coeff != 0:
                assert exponent in powers
        assert linearized_to_dense(ctx, S.q, subspace_polynomial(S)) == product


def test_linear_term_shortcut(gf16, gf64, gf9, gf16_q4, gf25):
    for ctx in (gf16, gf64, gf9, gf16_q4, gf25):
        for S in random_subspaces(ctx, (1, 2), 5, 59):
            a0 = subspace_polynomial(S)[0]
            assert a0 == subspace_polynomial_product(S)[1]
            acc = 1
            for a in S.members - {0}:
                acc = ctx.mul(acc, ctx.neg(a))
            assert a0 == acc


def test_serialization_is_sorted_basis(gf16):
    S = span(gf16, 2, [gf16.exp(7), gf16.exp(2)])
    assert S.to_json() == sorted(S.basis)
