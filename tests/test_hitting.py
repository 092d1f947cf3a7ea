import itertools
import random

import pytest

from compactrepair import (
    bounds,
    bounds_for_seed,
    coset_family,
    enumerate_subspaces,
    min_hitting_set,
    span,
)
from compactrepair.errors import BudgetExceededError, EmptyFamilyError
from oracles import verify_tolerance_exhaustive


def brute_force_mhs_size(sets):
    """Oracle: smallest subset of the union that hits every set."""
    universe = sorted(set().union(*sets))
    for size in range(len(universe) + 1):
        for cand in itertools.combinations(universe, size):
            chosen = set(cand)
            if all(chosen & s for s in sets):
                return size
    raise AssertionError("unhittable family")


def random_family(rng, max_universe=15, max_sets=12):
    universe = list(range(1, rng.randint(4, max_universe) + 1))
    nsets = rng.randint(1, max_sets)
    sets = []
    for _ in range(nsets):
        size = rng.randint(1, min(5, len(universe)))
        sets.append(frozenset(rng.sample(universe, size)))
    return sets


def test_disjoint_family_needs_one_per_set():
    sets = [frozenset({1, 2}), frozenset({3}), frozenset({4, 5, 6})]
    res = min_hitting_set(sets)
    assert res.size == 3
    assert res.method == "exact"


def test_golden_seed_sizes(gf16):
    S1 = span(gf16, 2, [gf16.exp(2), gf16.exp(7)])
    S2 = span(gf16, 2, [gf16.exp(4), gf16.exp(5)])
    assert min_hitting_set(coset_family([S1])).size == 5
    assert min_hitting_set(coset_family([S2])).size == 6
    assert min_hitting_set(coset_family([S1])).tolerance == 4
    assert min_hitting_set(coset_family([S2])).tolerance == 5


def test_single_set_family(gf16):
    S = span(gf16, 2, [gf16.exp(i) for i in range(4)])
    fam = coset_family([S])
    assert min_hitting_set(fam).tolerance == 0


def test_witness_hits_every_set(gf16):
    for gens in ([gf16.exp(2), gf16.exp(7)], [gf16.exp(4), gf16.exp(5)]):
        fam = coset_family([span(gf16, 2, gens)])
        res = min_hitting_set(fam)
        assert res.tolerance == res.size - 1
        chosen = set(res.witness)
        assert len(res.witness) == res.size
        assert all(chosen & s for s in fam.sets)


def test_solver_vs_exhaustive_oracle_on_random_corpus():
    rng = random.Random(2024)
    for _ in range(200):
        sets = random_family(rng)
        res = min_hitting_set(sets)
        assert res.method == "exact"
        assert res.size == brute_force_mhs_size(sets)
        assert all(set(res.witness) & s for s in sets)


def test_solver_is_deterministic():
    rng = random.Random(99)
    for _ in range(20):
        sets = random_family(rng)
        a = min_hitting_set(sets)
        b = min_hitting_set(sets)
        assert a == b


def test_empty_family_errors():
    with pytest.raises(EmptyFamilyError):
        min_hitting_set([])
    with pytest.raises(ValueError):
        min_hitting_set([frozenset()])


def test_budget_exhaustion_flags_result(gf64):
    # A generic delta=2 family has an integrality gap, so a one-node budget
    # cannot certify optimality; the incumbent is still a valid hitting set.
    from compactrepair import base_of

    gen = next(S for S in enumerate_subspaces(gf64, 2, 2) if base_of(S) == 1)
    fam = coset_family([gen])
    res = min_hitting_set(fam, budget=0)
    exact = min_hitting_set(fam)
    assert exact.method == "exact"
    assert res.method == "greedy-upper-only"
    assert res.size >= exact.size
    assert all(set(res.witness) & s for s in fam.sets)


def test_monotone_under_adding_sets():
    rng = random.Random(7)
    for _ in range(30):
        sets = random_family(rng)
        base = min_hitting_set(sets).size
        extra = sets + [frozenset(rng.sample(range(1, 16), 3))]
        assert min_hitting_set(extra).size >= base


def test_shift_invariance_over_all_centers(gf16):
    for gens in ([gf16.exp(2), gf16.exp(7)], [gf16.exp(4), gf16.exp(5)]):
        S = span(gf16, 2, gens)
        reference = min_hitting_set(coset_family([S])).size
        for alpha in gf16.elements():
            fam = coset_family([S], center=alpha)
            assert min_hitting_set(fam).size == reference


def test_multi_seed_dominance(gf16):
    S1 = span(gf16, 2, [gf16.exp(2), gf16.exp(7)])
    S2 = span(gf16, 2, [gf16.exp(4), gf16.exp(5)])
    single = max(
        min_hitting_set(coset_family([S1])).size,
        min_hitting_set(coset_family([S2])).size,
    )
    union = min_hitting_set(coset_family([S1, S2])).size
    assert union >= single


def test_verify_tolerance_exhaustive_basics(gf16):
    S1 = span(gf16, 2, [gf16.exp(2), gf16.exp(7)])
    fam = coset_family([S1], center=gf16.exp(5))
    assert verify_tolerance_exhaustive(fam, 0) is True
    assert verify_tolerance_exhaustive(fam, 4) is True
    assert verify_tolerance_exhaustive(fam, 5) is False


def test_verify_tolerance_matches_solver_on_random_corpus():
    rng = random.Random(4242)
    for _ in range(40):
        sets = random_family(rng, max_universe=10, max_sets=8)
        t = min_hitting_set(sets).tolerance
        for e in range(0, min(t + 2, len(set().union(*sets))) + 1):
            expected = e <= t
            assert verify_tolerance_exhaustive(sets, e) is expected


def test_verify_tolerance_budget(gf16):
    S1 = span(gf16, 2, [gf16.exp(2), gf16.exp(7)])
    fam = coset_family([S1])
    with pytest.raises(BudgetExceededError):
        verify_tolerance_exhaustive(fam, 7, budget=100)
    with pytest.raises(ValueError):
        verify_tolerance_exhaustive(fam, 99)


def test_bounds_values():
    b = bounds(2, 4, 2)
    assert (b.lower, b.upper) == (5, 7)
    b = bounds(2, 6, 3)
    assert (b.lower, b.upper) == (9, 15)
    b = bounds(2, 4, 4)
    assert (b.lower, b.upper) == (1, 1)
    b = bounds(3, 2, 1)
    assert (b.lower, b.upper) == (4, 4)
    with pytest.raises(ValueError):
        bounds(2, 4, 0)


def test_special_cases_golden(gf16):
    S1 = span(gf16, 2, [gf16.exp(2), gf16.exp(7)])  # coset of F_4
    S2 = span(gf16, 2, [gf16.exp(4), gf16.exp(5)])  # generic
    assert bounds_for_seed(S1).exact == 5
    assert bounds_for_seed(S2).exact is None
    rep1 = bounds_for_seed(S1)
    assert rep1.case == "subfield-coset" and rep1.exact == 5
    rep2 = bounds_for_seed(S2)
    assert rep2.case == "generic" and rep2.exact is None


def test_special_case_nested_subspace(gf16):
    # delta = ell - 1 = 3: every 3-dim subspace qualifies with value q + 1
    for S in enumerate_subspaces(gf16, 2, 3):
        assert bounds_for_seed(S).exact == 3
        assert bounds_for_seed(S).case in ("nested-subspace", "subfield-coset")


def test_special_case_agrees_with_solver_gf16(gf16):
    for delta in (1, 2, 3, 4):
        for S in enumerate_subspaces(gf16, 2, delta):
            value = bounds_for_seed(S).exact
            if value is not None:
                assert min_hitting_set(coset_family([S])).size == value


def test_sandwich_sampled_gf81():
    from compactrepair import field_new

    ctx = field_new(3, 1, 4)
    rng = random.Random(13)
    for delta in (1, 2, 3):
        pool = list(enumerate_subspaces(ctx, 3, delta))
        for S in rng.sample(pool, min(4, len(pool))):
            res = min_hitting_set(coset_family([S]))
            b = bounds(3, 4, delta)
            assert res.method == "exact"
            assert b.lower <= res.size <= b.upper
