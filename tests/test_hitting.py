import itertools
import random
import sys
import threading
from types import SimpleNamespace

import pytest

from compactrepair import (
    bounds,
    bounds_for_seed,
    coset_family,
    enumerate_subspaces,
    field_new,
    hitting,
    min_hitting_set,
    orbits,
    span,
)
from compactrepair.errors import BudgetExceededError, EmptyFamilyError, InvariantError
from oracles import coset_family_scan, translated_sets, verify_tolerance_exhaustive


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


def test_budget_exhaustion_flags_result(gf64, empty_memo, monkeypatch):
    # A generic delta=2 family has an integrality gap, so a one-node budget
    # cannot certify optimality; the incumbent is still a valid hitting set.
    from compactrepair import base_of

    gen = next(S for S in enumerate_subspaces(gf64, 2, 2) if base_of(S) == 1)
    fam = coset_family([gen])
    exact = min_hitting_set(fam)
    empty_memo.clear()
    monkeypatch.setattr(hitting, "NODE_BUDGET", 0)
    res = min_hitting_set(fam)
    assert exact.method == "exact"
    assert res.method == "greedy-upper-only"
    assert res.size >= exact.size
    assert all(set(res.witness) & s for s in fam.sets)


def reference_greedy(sets):
    """Max coverage of the unhit sets, one element at a time; ties go to the least element."""
    unhit = list(dict.fromkeys(frozenset(s) for s in sets))
    picked = []
    while unhit:
        best = max(sorted(set().union(*unhit)), key=lambda e: sum(e in s for s in unhit))
        picked.append(best)
        unhit = [s for s in unhit if best not in s]
    return sorted(picked)


def test_greedy_fallback_matches_reference(monkeypatch):
    # With no solver result at all, the witness is the greedy cover.
    monkeypatch.setattr(hitting, "milp", lambda **kw: SimpleNamespace(x=None, status=1))
    rng = random.Random(13)
    for _ in range(60):
        sets = random_family(rng)
        res = min_hitting_set(sets)
        assert res.method == "greedy-upper-only"
        assert list(res.witness) == reference_greedy(sets)


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
        fam = coset_family([S])
        reference = min_hitting_set(fam).size
        for alpha in gf16.elements():
            assert min_hitting_set(translated_sets(fam, alpha)).size == reference


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
    fam = coset_family_scan([S1], center=gf16.exp(5)).sets
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


# ----------------------------------------------------------------------
# The ΓL-canonical memo in front of the solver
# ----------------------------------------------------------------------


@pytest.fixture
def empty_memo():
    hitting._MEMO.clear()
    yield hitting._MEMO
    hitting._MEMO.clear()


def frobenius_conjugates(S):
    """Every image x -> x^(p^f) of the seed S, f < n, as subspaces."""
    ctx = S.ctx
    return [
        span(ctx, S.q, [ctx.pow(b, ctx.p**f) for b in S.basis]) for f in range(ctx.n)
    ]


def test_least_translate_matches_brute_force():
    rng = random.Random(5)
    for _ in range(300):
        group = rng.randint(1, 40)
        logs = rng.sample(range(group), rng.randint(1, group))
        brute = min(tuple(sorted((x - t) % group for x in logs)) for t in range(group))
        assert orbits._least_translate(logs, group) == brute


def test_memo_result_does_not_depend_on_history(empty_memo):
    ctx = field_new(2, 1, 5)
    generic = [S for S in enumerate_subspaces(ctx, 2, 2) if bounds_for_seed(S).exact is None]
    first = frozenset(coset_family(generic[:1]).sets)
    other = next(S for S in generic if frozenset(coset_family([S]).sets) != first)
    for seeds in ([generic[0]], [generic[0], other]):
        target = coset_family(seeds)
        fresh = min_hitting_set(target)
        empty_memo.clear()
        conjugates = [frobenius_conjugates(S) for S in seeds]
        families = [coset_family(list(c)) for c in zip(*conjugates)]
        random.Random(len(seeds)).shuffle(families)
        for fam in families:
            res = min_hitting_set(fam)
            assert all(set(res.witness) & s for s in fam.sets)
        assert len(empty_memo) == 1
        assert min_hitting_set(target) == fresh
        empty_memo.clear()


SIZE_AGREEMENT = [
    ((2, 1, 5), 2),
    ((2, 1, 5), 3),
    ((2, 1, 6), 2),
    ((2, 1, 6), 4),
    ((3, 1, 4), 2),
    ((2, 2, 3), 1),
    ((2, 2, 3), 2),
]


@pytest.mark.parametrize(
    "field,delta", SIZE_AGREEMENT, ids=[f"{p}^{s * ell}-q{p**s}-d{d}" for (p, s, ell), d in SIZE_AGREEMENT]
)
def test_memo_size_agrees_with_direct_solve(field, delta):
    ctx = field_new(*field)
    seen = set()
    for S in enumerate_subspaces(ctx, ctx.q, delta):
        fam = coset_family([S])
        if frozenset(fam.sets) in seen:
            continue
        seen.add(frozenset(fam.sets))
        memo = min_hitting_set(fam)
        direct = min_hitting_set(list(fam.sets))
        assert memo.method == direct.method == "exact"
        assert memo.size == direct.size
        assert all(set(memo.witness) & s for s in fam.sets)


def test_corrupted_memo_entry_raises(gf16, empty_memo):
    fam = coset_family([span(gf16, 2, [gf16.exp(4), gf16.exp(5)])])
    min_hitting_set(fam)
    (key, (logs, method)), = empty_memo.items()
    empty_memo[key] = (logs[1:], method)
    with pytest.raises(InvariantError):
        min_hitting_set(fam)


def test_raw_and_centred_families_bypass_memo(gf16, empty_memo):
    S = span(gf16, 2, [gf16.exp(4), gf16.exp(5)])
    fam = coset_family([S])
    assert min_hitting_set(list(fam.sets)).size == 6
    assert min_hitting_set(translated_sets(fam, gf16.exp(3))).size == 6
    assert not empty_memo
    assert min_hitting_set(fam).size == 6
    assert len(empty_memo) == 1


def test_memo_evicts_oldest_under_concurrent_callers(gf16, empty_memo, monkeypatch):
    # Two slots for the three classes of GF(16) delta=2 force evictions
    # while eight threads solve every family at once.
    monkeypatch.setattr(hitting, "MEMO_LIMIT", 2)
    families = [coset_family([S]) for S in enumerate_subspaces(gf16, 2, 2)]
    expected = [min_hitting_set(list(fam.sets)).size for fam in families]
    errors = []

    def worker(seed):
        order = list(range(len(families)))
        random.Random(seed).shuffle(order)
        try:
            for i in order:
                if min_hitting_set(families[i]).size != expected[i]:
                    errors.append(f"size of family {i}")
        except Exception as exc:  # reported below with the thread's seed
            errors.append(f"{seed}: {exc!r}")

    threads = [threading.Thread(target=worker, args=(seed,)) for seed in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not errors
    assert len(empty_memo) <= 2
