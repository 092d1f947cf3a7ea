import random
from dataclasses import dataclass

import pytest

from compactrepair import (
    coset_family,
    count_with_base,
    enumerate_subspaces,
    field_new,
    gaussian_coefficient,
    mobius,
    orbit_count_formula,
    orbit_decomposition,
    span,
    stabilizer_order,
)
from compactrepair.errors import (
    BudgetExceededError,
    InvalidDivisorError,
    SeedWithoutZeroError,
)
from compactrepair.orbits import ENUMERATION_BUDGET


def brute_force_orbits(ctx, q, delta):
    """Oracle: group member-sets directly under scaling by every b."""
    remaining = {S.members for S in enumerate_subspaces(ctx, q, delta)}
    orbits = []
    while remaining:
        start = next(iter(remaining))
        orbit = set()
        for j in range(ctx.order - 1):
            b = ctx.exp(j)
            orbit.add(frozenset(ctx.mul(b, x) for x in start))
        orbits.append(orbit)
        remaining -= orbit
    return orbits


def exhaustive_stabilizer(ctx, S):
    """Oracle: every b with b*(S\\{0}) = S\\{0}."""
    star = frozenset(S.members - {0})
    return [
        ctx.exp(j)
        for j in range(ctx.order - 1)
        if frozenset(ctx.mul(ctx.exp(j), x) for x in star) == star
    ]


def test_golden_coset_family_centered(gf16):
    S = span(gf16, 2, [gf16.exp(2), gf16.exp(7)])
    fam = coset_family([S], center=gf16.exp(5))
    zp = gf16.exp
    expected = [
        {zp(1), zp(13), zp(14)},
        {zp(11), zp(4), zp(7)},
        {zp(8), zp(6), zp(12)},
        {zp(10), 0, zp(0)},
        {zp(2), zp(9), zp(3)},
    ]
    assert sorted(sorted(g) for g in fam.sets) == sorted(sorted(g) for g in expected)
    assert len(fam.sets) == 5
    assert all(gf16.exp(5) not in g for g in fam.sets)
    assert fam.universe == frozenset(gf16.elements()) - {gf16.exp(5)}


def test_second_seed_has_fifteen_groups(gf16):
    S = span(gf16, 2, [gf16.exp(4), gf16.exp(5)])
    fam = coset_family([S], center=gf16.exp(5))
    assert len(fam.sets) == 15
    assert len({g for g in fam.sets}) == 15


def test_whole_field_seed_single_group(gf16):
    S = span(gf16, 2, [gf16.exp(i) for i in range(4)])
    assert S.dim == 4
    fam = coset_family([S], center=0)
    assert len(fam.sets) == 1
    assert fam.sets[0] == frozenset(gf16.nonzero_elements())


def test_group_sizes_and_witnesses(gf16):
    S = span(gf16, 2, [gf16.exp(4), gf16.exp(5)])
    fam = coset_family([S], center=gf16.exp(3))
    for grp, t, b in zip(fam.sets, fam.seed_index, fam.b_value):
        assert len(grp) == 3
        assert t == 0
        rebuilt = frozenset(
            gf16.add(gf16.exp(3), gf16.mul(b, x)) for x in S.members if x
        )
        assert rebuilt == grp


def test_seed_without_zero_rejected(gf16):
    S = span(gf16, 2, [gf16.exp(2), gf16.exp(7)])
    broken = dataclass_replace_members(S)
    with pytest.raises(SeedWithoutZeroError):
        coset_family([broken])


def dataclass_replace_members(S):
    """A structurally valid Subspace whose member table lost 0 (misuse)."""

    @dataclass(frozen=True, eq=False)
    class Fake:
        ctx: object
        q: int
        dim: int
        basis: tuple
        members: frozenset

        def star(self):
            return tuple(sorted(self.members - {0}))

    return Fake(S.ctx, S.q, S.dim, S.basis, S.members - {0})


def test_orbit_invariance_of_family(gf16):
    rng = random.Random(61)
    for _ in range(10):
        S = span(gf16, 2, [rng.randrange(1, 16) for _ in range(2)])
        if S.dim != 2:
            continue
        b = gf16.exp(rng.randrange(15))
        T = span(gf16, 2, [gf16.mul(b, g) for g in S.basis])
        alpha = rng.randrange(16)
        fam_s = coset_family([S], center=alpha)
        fam_t = coset_family([T], center=alpha)
        assert set(fam_s.sets) == set(fam_t.sets)


def test_stabilizer_order_golden_values(gf16):
    S1 = span(gf16, 2, [gf16.exp(2), gf16.exp(7)])
    S2 = span(gf16, 2, [gf16.exp(4), gf16.exp(5)])
    f4 = span(gf16, 2, list(gf16.subfield_elements(2)))
    assert stabilizer_order(f4) == 3
    assert stabilizer_order(S1) == 3
    assert stabilizer_order(S2) == 1
    # oracle: exhaustive scaling check
    assert len(exhaustive_stabilizer(gf16, S1)) == 3
    assert len(exhaustive_stabilizer(gf16, S2)) == 1


@pytest.mark.parametrize("field", ["gf16", "gf64"])
def test_orbit_stabilizer_relation_exhaustive(field, request):
    ctx = request.getfixturevalue(field)
    group = ctx.order - 1
    for delta in range(1, ctx.n + 1):
        for S in enumerate_subspaces(ctx, 2, delta):
            fam = coset_family([S])
            assert len(fam.sets) * stabilizer_order(S) == group


def test_element_regularity(gf16):
    # every nonzero element appears in exactly r = |C(S*)| * |S*| / (q^l - 1) sets
    for gens in ([gf16.exp(2), gf16.exp(7)], [gf16.exp(4), gf16.exp(5)]):
        S = span(gf16, 2, gens)
        fam = coset_family([S])
        r = len(fam.sets) * (len(S.members) - 1) // 15
        for x in gf16.nonzero_elements():
            assert sum(1 for g in fam.sets if x in g) == r


def test_orbit_decomposition_2_4_2(gf16):
    rep = orbit_decomposition(gf16, 2, 2)
    assert rep.orbit_count == 3
    assert sorted(rep.orbit_sizes) == [5, 15, 15]
    assert rep.counts_by_base == {1: 30, 2: 5}
    # representatives cover all 35 subspaces exactly once
    covered = set()
    for S, size in zip(rep.representatives, rep.orbit_sizes):
        orbit = {
            frozenset(gf16.mul(gf16.exp(j), x) for x in S.members)
            for j in range(15)
        }
        assert len(orbit) == size
        covered |= orbit
    assert len(covered) == 35
    # oracle: direct orbit grouping agrees
    oracle = brute_force_orbits(gf16, 2, 2)
    assert sorted(len(o) for o in oracle) == [5, 15, 15]


def test_orbit_decomposition_single_orbit_cases(gf16):
    assert orbit_decomposition(gf16, 2, 4).orbit_count == 1
    assert orbit_decomposition(gf16, 2, 1).orbit_count == 1


def test_orbit_decomposition_refuses_unbounded_enumeration():
    assert gaussian_coefficient(6, 3, 2) <= ENUMERATION_BUDGET
    with pytest.raises(BudgetExceededError, match="budget"):
        orbit_decomposition(field_new(2, 1, 12), 2, 6)


def test_representatives_are_lex_least(gf16):
    rep = orbit_decomposition(gf16, 2, 2)
    for S in rep.representatives:
        orbit_bases = []
        for j in range(15):
            b = gf16.exp(j)
            T = span(gf16, 2, [gf16.mul(b, g) for g in S.basis])
            orbit_bases.append(T.basis)
        assert S.basis == min(orbit_bases)


def test_mobius_values():
    assert mobius(1) == 1
    assert mobius(2) == -1
    assert mobius(3) == -1
    assert mobius(4) == 0
    assert mobius(6) == 1
    assert mobius(12) == 0
    assert mobius(30) == -1
    with pytest.raises(ValueError):
        mobius(0)


def test_count_with_base_values(gf16):
    # oracle: brute-force count via base_of over the full enumeration
    from compactrepair import base_of

    by_base = {1: 0, 2: 0}
    for S in enumerate_subspaces(gf16, 2, 2):
        by_base[base_of(S)] += 1
    assert by_base == {1: 30, 2: 5}
    assert count_with_base(2, 4, 2, 1) == 30
    assert count_with_base(2, 4, 2, 2) == 5
    assert count_with_base(2, 4, 4, 4) == 1  # whole field only
    with pytest.raises(InvalidDivisorError):
        count_with_base(2, 4, 2, 4)


def test_count_with_base_sums_to_gaussian():
    from math import gcd

    for q, ell in [(2, 4), (2, 6), (3, 2), (2, 48)]:
        for delta in range(1, min(ell, 24) + 1):
            g = gcd(ell, delta)
            total = sum(
                count_with_base(q, ell, delta, m)
                for m in range(1, g + 1)
                if g % m == 0
            )
            assert total == gaussian_coefficient(ell, delta, q)


def test_orbit_count_formula_values():
    assert orbit_count_formula(2, 4, 2) == 3
    assert orbit_count_formula(2, 4, 4) == 1
    assert orbit_count_formula(2, 4, 1) == 1
    assert orbit_count_formula(3, 2, 1) == 1
    assert orbit_count_formula(2, 6, 3) == 23


@pytest.mark.parametrize(
    "field,deltas",
    [("gf16", (1, 2, 3, 4)), ("gf64", (1, 2, 3, 4, 5, 6)), ("gf9", (1, 2))],
)
def test_formula_matches_brute_force(field, deltas, request):
    ctx = request.getfixturevalue(field)
    q = ctx.q
    for delta in deltas:
        brute = orbit_decomposition(ctx, q, delta).orbit_count
        ell = ctx.n // ctx.subfield_degree(q)
        assert orbit_count_formula(q, ell, delta) == brute


def test_orbit_report_json(gf16):
    rep = orbit_decomposition(gf16, 2, 2)
    blob = rep.to_json_dict()
    assert blob["q"] == 2 and blob["ell"] == 4 and blob["delta"] == 2
    assert blob["counts_by_base"] == {"1": 30, "2": 5}
    assert blob["orbit_count"] == 3
    assert len(blob["representatives"]) == 3
    for basis in blob["representatives"]:
        assert basis == sorted(basis)
