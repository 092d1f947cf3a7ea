import random
import tracemalloc
from dataclasses import dataclass

import numpy as np
import pytest

from compactrepair import (
    base_counts,
    base_of,
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
    InvariantError,
    SeedWithoutZeroError,
)
from compactrepair.orbits import ENUMERATION_BUDGET, MEMBER_ENTRY_BUDGET
from oracles import coset_family_scan, group_witnesses


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
    assert frozenset().union(*fam.sets) == frozenset(gf16.elements()) - {gf16.exp(5)}


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
    for grp, (t, b) in zip(fam.sets, group_witnesses(fam), strict=True):
        assert len(grp) == 3
        assert t == 0
        rebuilt = frozenset(
            gf16.add(gf16.exp(3), gf16.mul(b, x)) for x in S.members if x
        )
        assert rebuilt == grp


@pytest.mark.parametrize("p,ell", [(2, 4), (3, 2), (5, 2)], ids=["gf16", "gf9", "gf25"])
def test_center_outside_the_field_rejected(p, ell):
    ctx = field_new(p, 1, ell)
    S = span(ctx, p, [1])
    for center in (-1, -ctx.order, ctx.order, ctx.order + 3):
        with pytest.raises(ValueError, match="center"):
            coset_family([S], center=center)
    top = coset_family([S], center=ctx.order - 1)
    assert frozenset().union(*top.sets) == frozenset(range(ctx.order - 1))


def test_generic_gf65536_family_is_held_in_logs():
    # A generic delta=4 seed has 65535 groups of 15 points; the element-set
    # build this replaced peaked near 60 MB under tracemalloc.
    ctx = field_new(2, 1, 16)
    S = next(enumerate_subspaces(ctx, 2, 4))
    assert base_of(S) == 1
    tracemalloc.start()
    try:
        fam = coset_family([S])
        groups = np.concatenate(fam.blocks())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20 * 2**20
    assert groups.shape == (65535, 15) == (len(fam), len(S.star()))
    # every nonzero element lies in exactly |S*| groups, 0 in none
    assert np.bincount(groups.ravel(), minlength=ctx.order).tolist() == [0] + [15] * 65535


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
            # the scan over every multiplier is independent of the stabilizer
            scanned = coset_family_scan([S])
            assert len(scanned.sets) * stabilizer_order(S) == group
            assert coset_family([S]).sets == scanned.sets


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


def test_orbit_decomposition_gf256_delta3():
    rep = orbit_decomposition(field_new(2, 1, 8), 2, 3)
    assert rep.orbit_count == orbit_count_formula(2, 8, 3) == 381
    assert rep.counts_by_base == base_counts(2, 8, 3)
    assert sum(rep.orbit_sizes) == 97155 == gaussian_coefficient(8, 3, 2)


def test_orbit_decomposition_refuses_unbounded_enumeration():
    assert gaussian_coefficient(6, 3, 2) <= ENUMERATION_BUDGET
    with pytest.raises(BudgetExceededError, match="budget"):
        orbit_decomposition(field_new(2, 1, 12), 2, 6)


def test_orbit_decomposition_refuses_oversized_members(monkeypatch):
    import compactrepair.orbits as orbits_module

    # 32767 subspaces through 1 pass the subspace budget, but with 32767
    # nonzero members each they would need about 2^30 log entries.
    assert gaussian_coefficient(15, 14, 2) <= ENUMERATION_BUDGET
    assert gaussian_coefficient(9, 2, 2) * (2**3 - 1) <= MEMBER_ENTRY_BUDGET

    def no_blocks(*args):
        raise AssertionError("a block was built before the budget check")

    monkeypatch.setattr(orbits_module, "_subspace_blocks", no_blocks)
    with pytest.raises(BudgetExceededError, match="32767 15-subspaces through 1 with 1073676289 nonzero members exceed"):
        orbit_decomposition(field_new(2, 1, 16), 2, 15)


# (p, s, ell, delta): GF(16), GF(64), GF(27) and GF(81) over F_3, GF(64) over
# F_4, and GF(256).
ORBIT_CASES = [(2, 1, 4, 2), (2, 1, 6, 3), (3, 1, 3, 2), (2, 2, 3, 2), (3, 1, 4, 2), (2, 1, 8, 2)]


def scaled_bases(ctx, S):
    """Oracle: canonical bases of b*S for every nonzero b, by re-spanning."""
    return [
        span(ctx, S.q, [ctx.mul(ctx.exp(j), g) for g in S.basis]).basis
        for j in range(ctx.order - 1)
    ]


def test_orbit_decomposition_checks_stabilizer_and_total(gf16, monkeypatch):
    import compactrepair.orbits as orbits_module

    # the walk length is checked against base_of, not derived from it
    monkeypatch.setattr(orbits_module, "base_of", lambda S: 2)
    with pytest.raises(InvariantError, match="orbit-stabilizer"):
        orbit_decomposition(gf16, 2, 2)
    monkeypatch.undo()
    monkeypatch.setattr(orbits_module, "gaussian_coefficient", lambda ell, delta, q: 36)
    with pytest.raises(InvariantError, match="expected 36"):
        orbit_decomposition(gf16, 2, 2)


def test_orbit_decomposition_checks_burnside_and_mobius(gf16, monkeypatch):
    import compactrepair.orbits as orbits_module

    # both closed forms are compared with the enumeration, not trusted
    monkeypatch.setattr(orbits_module, "base_counts", lambda q, ell, delta: {1: 35, 2: 0})
    with pytest.raises(InvariantError, match="Mobius"):
        orbit_decomposition(gf16, 2, 2)
    monkeypatch.undo()
    monkeypatch.setattr(orbits_module, "orbit_count_formula", lambda q, ell, delta: 4)
    with pytest.raises(InvariantError, match="Burnside"):
        orbit_decomposition(gf16, 2, 2)


def test_orbit_decomposition_checks_scaling_closure(gf16, monkeypatch):
    import compactrepair.orbits as orbits_module

    # without its first subspace through 1, that orbit has too few members
    # through 1 for its stabilizer
    blocks = orbits_module._subspace_blocks

    def drop_first(ctx, q, delta, **kwargs):
        for i, (bases, members) in enumerate(blocks(ctx, q, delta, **kwargs)):
            yield (bases[1:], members[1:]) if i == 0 else (bases, members)

    monkeypatch.setattr(orbits_module, "_subspace_blocks", drop_first)
    with pytest.raises(InvariantError, match="2 members through 1 breaks orbit-stabilizer"):
        orbit_decomposition(gf16, 2, 2)


def test_trivial_seed_has_no_coset_family(gf16):
    with pytest.raises(ValueError, match="trivial subspace"):
        coset_family([span(gf16, 2, [])])


def test_representatives_are_lex_least():
    for p, s, ell, delta in ORBIT_CASES:
        ctx = field_new(p, s, ell)
        for S in orbit_decomposition(ctx, ctx.q, delta).representatives:
            assert S.basis == min(scaled_bases(ctx, S))


@pytest.mark.parametrize(
    "case", ORBIT_CASES, ids=[f"p{c[0]}-s{c[1]}-ell{c[2]}-delta{c[3]}" for c in ORBIT_CASES]
)
def test_orbit_sizes_match_brute_force(case):
    p, s, ell, delta = case
    ctx = field_new(p, s, ell)
    rep = orbit_decomposition(ctx, ctx.q, delta)
    covered = set()
    for S, size in zip(rep.representatives, rep.orbit_sizes):
        orbit = set(scaled_bases(ctx, S))
        assert len(orbit) == size
        assert covered.isdisjoint(orbit)
        covered |= orbit
    assert len(covered) == gaussian_coefficient(ell, delta, ctx.q)
    oracle = brute_force_orbits(ctx, ctx.q, delta)
    assert sorted(rep.orbit_sizes) == sorted(len(o) for o in oracle)


def subfield_coset_seed(ctx, delta, j):
    """z^j * F_(q^delta) as an F_q-subspace (needs delta | ell)."""
    q = ctx.q
    gamma = ctx.exp((ctx.order - 1) // (q**delta - 1))
    return span(ctx, q, [ctx.mul(ctx.exp(j), ctx.pow(gamma, i)) for i in range(delta)])


def assert_family_matches_scan(seeds, center):
    fam = coset_family(seeds, center=center)
    scanned = coset_family_scan(seeds, center=center)
    assert fam.sets == scanned.sets
    assert fam.seed_index == scanned.seed_index
    assert group_witnesses(fam) == list(zip(scanned.seed_index, scanned.multipliers))
    assert fam.center == center


def test_coset_family_matches_scan_every_gf16_subspace(gf16):
    alpha = random.Random(67).randrange(1, 16)
    for delta in (1, 2, 3):
        for S in enumerate_subspaces(gf16, 2, delta):
            for center in (None, 0, alpha):
                assert_family_matches_scan([S], center)


@pytest.mark.parametrize("p,s,ell", [(2, 2, 3), (3, 1, 4)], ids=["gf64-q4", "gf81-q3"])
def test_coset_family_matches_scan_subfield_and_generic(p, s, ell):
    ctx = field_new(p, s, ell)
    rng = random.Random(71)
    seeds = [subfield_coset_seed(ctx, d, 5) for d in range(1, ell + 1) if ell % d == 0]
    seeds += [span(ctx, ctx.q, [rng.randrange(1, ctx.order) for _ in range(2)]) for _ in range(4)]
    assert {base_of(S) for S in seeds} >= {1, ell}
    alpha = rng.randrange(1, ctx.order)
    for S in seeds:
        for center in (None, 0, alpha):
            assert_family_matches_scan([S], center)
    assert_family_matches_scan(seeds, alpha)


def test_coset_family_two_seeds_of_one_orbit(gf16):
    generic = span(gf16, 2, [gf16.exp(4), gf16.exp(5)])
    coset = subfield_coset_seed(gf16, 2, 0)
    for S in (generic, coset):
        T = span(gf16, 2, [gf16.mul(gf16.exp(3), g) for g in S.basis])
        assert T != S
        for center in (None, 0, gf16.exp(5)):
            fam = coset_family([S, T], center=center)
            assert_family_matches_scan([S, T], center)
            # the second seed adds no group: every witness names the first
            assert set(fam.seed_index) == {0}
            assert len(fam) == len(coset_family([S], center=center))


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
    # oracle: mu(1) = 1 and sum_{d | v} mu(d) = 0 for v > 1
    top = 2000
    mu = [0, 1] + [0] * (top - 1)
    for v in range(2, top + 1):
        mu[v] = -sum(mu[d] for d in range(1, v // 2 + 1) if v % d == 0)
    assert [mobius(v) for v in range(1, top + 1)] == mu[1:]


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
