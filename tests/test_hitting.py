import itertools
import random
import sys
import threading
from types import SimpleNamespace

import pytest

from compactrepair import (
    FieldCtx,
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
from compactrepair.errors import BudgetExceededError, InvariantError
from oracles import coset_family_scan, solve_sets, translated_sets, verify_tolerance_exhaustive


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
    res = solve_sets(sets)
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
        res = solve_sets(sets)
        assert res.method == "exact"
        assert res.size == brute_force_mhs_size(sets)
        assert all(set(res.witness) & s for s in sets)


def test_solver_is_deterministic():
    rng = random.Random(99)
    for _ in range(20):
        sets = random_family(rng)
        a = solve_sets(sets)
        b = solve_sets(sets)
        assert a == b


def test_min_hitting_set_refuses_a_list(gf16):
    # coset families only: a list of sets, even the groups of one, is refused
    fam = coset_family([span(gf16, 2, [gf16.exp(2), gf16.exp(7)])])
    for family in ([frozenset({1})], [], list(fam.sets)):
        with pytest.raises(TypeError) as err:
            min_hitting_set(family)
        assert str(err.value) == "min_hitting_set needs a CosetFamily, got list"


def test_budget_exhaustion_flags_result(gf64, empty_memo, monkeypatch):
    # A generic delta=2 family has an integrality gap, so a one-node budget
    # cannot certify optimality; the incumbent is still a valid hitting set.
    gen = next(S for S in enumerate_subspaces(gf64, 2, 2) if S.base == 1)
    fam = coset_family([gen])
    empty_memo(gf64)
    exact = min_hitting_set(fam)
    empty_memo(gf64)
    monkeypatch.setattr(hitting, "NODE_BUDGET", 0)
    res = min_hitting_set(fam)
    assert exact.method == "exact"
    assert res.method == "greedy-upper-only"
    assert res.size >= exact.size
    assert all(set(res.witness) & s for s in fam.sets)


def _failing_milp(**kwargs):
    return SimpleNamespace(x=None, status=1)


def test_fallback_stays_within_the_upper_bound(empty_memo, monkeypatch):
    # With no solver result, _solve has no witness, and the groups of
    # GF(2^12)'s first 6-subspace get the Bose-Burton line cover, 127 points
    # (a greedy max-coverage cover took 142, above the upper bound).
    ctx = field_new(2, 1, 12)
    fam = coset_family([next(enumerate_subspaces(ctx, 2, 6))])
    empty_memo(ctx)
    monkeypatch.setattr(hitting, "milp", _failing_milp)
    assert hitting._solve(*hitting._rows(fam)) is None
    res = min_hitting_set(fam)
    assert res.method == "greedy-upper-only"
    assert res.size == bounds(2, 12, 6).upper == 127


def test_monotone_under_adding_sets():
    rng = random.Random(7)
    for _ in range(30):
        sets = random_family(rng)
        base = solve_sets(sets).size
        extra = sets + [frozenset(rng.sample(range(1, 16), 3))]
        assert solve_sets(extra).size >= base


def test_shift_invariance_over_all_centers(gf16):
    for gens in ([gf16.exp(2), gf16.exp(7)], [gf16.exp(4), gf16.exp(5)]):
        S = span(gf16, 2, gens)
        fam = coset_family([S])
        reference = min_hitting_set(fam).size
        for alpha in gf16.elements():
            assert solve_sets(translated_sets(fam, alpha)).size == reference


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
        t = solve_sets(sets).tolerance
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
    """A call drops a context's "mhs" entries; teardown drops them again."""
    cleared = []

    def clear(ctx):
        for key in [key for key in ctx._derived if key[0] == "mhs"]:
            del ctx._derived[key]
        cleared.append(ctx)

    yield clear
    for ctx in list(cleared):
        clear(ctx)


def mhs_entries(ctx):
    """A context's memoised classes: {("mhs", canonical key): exact witness logs}."""
    return {key: value for key, value in ctx._derived.items() if key[0] == "mhs"}


def frobenius_conjugates(S):
    """Every image x -> x^(p^f) of the seed S, f < n, as subspaces."""
    ctx = S.ctx
    return [
        span(ctx, S.q, [ctx.pow(b, ctx.p**f) for b in S.basis]) for f in range(ctx.n)
    ]


def test_least_translate_matches_brute_force():
    rng = random.Random(5)
    cases = []
    for _ in range(300):
        group = rng.randint(1, 40)
        cases.append((rng.sample(range(group), rng.randint(1, group)), group))
    # periodic gap sequences: evenly spaced logs, and a random pattern below
    # d repeated group/d times, each shifted
    for group in range(1, 41):
        for d in (d for d in range(1, group + 1) if group % d == 0):
            cases.append(([(x + 3) % group for x in range(0, group, d)], group))
            base = rng.sample(range(d), rng.randint(1, d))
            shift = rng.randrange(group)
            cases.append(([(b + r * d + shift) % group for r in range(group // d) for b in base], group))
    for logs, group in cases:
        brute = min(tuple(sorted((x - t) % group for x in logs)) for t in range(group))
        assert orbits._least_translate(logs, group) == brute


def test_memo_result_does_not_depend_on_history(empty_memo):
    ctx = field_new(2, 1, 5)
    generic = [S for S in enumerate_subspaces(ctx, 2, 2) if bounds_for_seed(S).exact is None]
    first = frozenset(coset_family(generic[:1]).sets)
    other = next(S for S in generic if frozenset(coset_family([S]).sets) != first)
    for seeds in ([generic[0]], [generic[0], other]):
        empty_memo(ctx)
        target = coset_family(seeds)
        fresh = min_hitting_set(target)
        empty_memo(ctx)
        conjugates = [frobenius_conjugates(S) for S in seeds]
        families = [coset_family(list(c)) for c in zip(*conjugates)]
        random.Random(len(seeds)).shuffle(families)
        for fam in families:
            res = min_hitting_set(fam)
            assert all(set(res.witness) & s for s in fam.sets)
        assert len(mhs_entries(ctx)) == 1
        assert min_hitting_set(target) == fresh


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
        direct = solve_sets(fam.sets)
        assert memo.method == direct.method == "exact"
        assert memo.size == direct.size
        assert all(set(memo.witness) & s for s in fam.sets)


def test_corrupted_memo_entry_raises(gf16, empty_memo):
    empty_memo(gf16)
    fam = coset_family([span(gf16, 2, [gf16.exp(4), gf16.exp(5)])])
    min_hitting_set(fam)
    (key, logs), = mhs_entries(gf16).items()
    gf16._derived[key] = logs[1:]
    with pytest.raises(InvariantError):
        min_hitting_set(fam)


def _generic_gf64_seed(ctx, delta):
    """The first base-1 delta-subspace of GF(64): generic for delta = 2 and 3."""
    return next(S for S in enumerate_subspaces(ctx, 2, delta) if S.base == 1)


def test_failed_solve_leaves_no_memo_entry(monkeypatch):
    # A failed solve was kept for the context's life, flagged not exact.
    ctx = FieldCtx(2, 1, 6)  # uncached, so no other test has filled its memo
    fam = coset_family([_generic_gf64_seed(ctx, 2)])
    monkeypatch.setattr(hitting, "milp", _failing_milp)
    res = min_hitting_set(fam)
    assert res.method == "greedy-upper-only"
    assert res.size == bounds(2, 6, 2).upper == 31
    assert not mhs_entries(ctx)


def test_solve_after_a_failed_one_is_exact(monkeypatch):
    # A failed solve once fixed a 29-point greedy cover for the class, so
    # the same context never reached the optimum after the solver recovered.
    ctx = FieldCtx(2, 1, 6)
    fam = coset_family([_generic_gf64_seed(ctx, 2)])
    with monkeypatch.context() as m:
        m.setattr(hitting, "milp", _failing_milp)
        assert min_hitting_set(fam).method == "greedy-upper-only"
    res = min_hitting_set(fam)
    assert (res.method, res.size) == ("exact", 24)
    assert len(mhs_entries(ctx)) == 1


def test_fallback_on_a_mixed_family_is_the_least_dimension_line_cover(monkeypatch):
    # Seeds of dimension 2 and 3: the line cover of delta = 2 hits the groups of both.
    ctx = FieldCtx(2, 1, 6)
    fam = coset_family([_generic_gf64_seed(ctx, 2), _generic_gf64_seed(ctx, 3)])
    monkeypatch.setattr(hitting, "milp", _failing_milp)
    res = min_hitting_set(fam)
    assert res.method == "greedy-upper-only"
    assert res.size <= bounds(2, 6, 2).upper == 31
    assert set(res.witness) == hitting._line_cover(ctx, 2)
    assert fam.first_miss(res.witness) is None
    assert not mhs_entries(ctx)


MIXED_FIELDS = [(2, 1, 4), (2, 1, 5), (2, 1, 6), (3, 1, 3), (2, 2, 3), (5, 1, 3)]


@pytest.mark.parametrize(
    "field", MIXED_FIELDS, ids=[f"{p}^{s * ell}-q{p**s}" for p, s, ell in MIXED_FIELDS]
)
def test_line_cover_of_the_least_dimension_hits_mixed_families(field):
    # U = span(z^0, ..., z^(ell-delta)) meets a delta_t-subspace in
    # delta_t - delta + 1 >= 1 dimensions, whatever the seeds' dimensions.
    ctx = field_new(*field)
    rng = random.Random(sum(field))
    pools = {d: list(enumerate_subspaces(ctx, ctx.q, d)) for d in range(1, ctx.ell)}
    for _ in range(12):
        seeds = [rng.choice(pools[rng.choice(list(pools))]) for _ in range(rng.randint(2, 3))]
        fam = coset_family(seeds)
        least = min(S.dim for S in seeds)
        assert fam.first_miss(hitting._line_cover(ctx, least)) is None


def test_raw_and_centred_families_bypass_memo(gf16, empty_memo):
    empty_memo(gf16)
    S = span(gf16, 2, [gf16.exp(4), gf16.exp(5)])
    fam = coset_family([S])
    # the MILP core over the groups, around 0 and around z^3, leaves the memo alone
    assert solve_sets(fam.sets).size == 6
    assert solve_sets(translated_sets(fam, gf16.exp(3))).size == 6
    assert not mhs_entries(gf16)
    assert min_hitting_set(fam).size == 6
    assert len(mhs_entries(gf16)) == 1


def test_memo_fills_once_per_class_under_concurrent_callers(gf64, empty_memo):
    # Eight threads solve a family of every orbit of GF(64) delta=2 at once,
    # with no lock: racing solves keep one entry per memoised class, three
    # (its subfield-coset orbit takes the formula and no entry).
    empty_memo(gf64)
    reps = orbits.orbit_decomposition(gf64, 2).representatives
    families = [coset_family([S]) for S in reps]
    expected = [solve_sets(fam.sets).size for fam in families]
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
    assert len(mhs_entries(gf64)) == 3


# ----------------------------------------------------------------------
# Formula witnesses of the solved single-seed shapes
# ----------------------------------------------------------------------

FORMULA_FIELDS = [
    (2, 1, 4), (2, 1, 5), (2, 1, 6), (2, 1, 7), (2, 1, 8),
    (3, 1, 4), (2, 2, 3), (2, 2, 4), (5, 1, 3),
]


def _refuse_solver(**kwargs):
    raise AssertionError("the MILP ran")


@pytest.mark.parametrize(
    "field", FORMULA_FIELDS, ids=[f"{p}^{s * ell}-q{p**s}" for p, s, ell in FORMULA_FIELDS]
)
def test_formula_witness_is_minimum_on_every_solved_orbit(field, monkeypatch):
    # Each scaling-orbit representative of a solved shape gets the formula
    # witness, with no solve: z^0..z^(B-1) for a subfield coset, and
    # {1} u {z + c : c in F_(q^e)} for an F_(q^e)-hyperplane, e = ell - delta.
    # It hits every group, has the size bounds_for_seed states, and on the
    # families of at most 400 groups that size is the MILP's optimum.
    ctx = field_new(*field)
    z = ctx.generator
    checked = 0
    for delta in range(1, ctx.ell + 1):
        for S in orbits.orbit_decomposition(ctx, delta).representatives:
            bnd = bounds_for_seed(S)
            if bnd.exact is None:
                continue
            fam = coset_family([S])
            with monkeypatch.context() as m:
                m.setattr(hitting, "milp", _refuse_solver)
                res = min_hitting_set(fam)
            if bnd.case == "subfield-coset":
                formula = {ctx.exp(j) for j in range(bnd.exact)}
            else:
                e = ctx.ell - delta
                formula = {1} | {ctx.add(z, c) for c in ctx.subfield_elements(ctx.s * e)}
            assert res.method == "exact"
            assert set(res.witness) == formula
            assert res.size == bnd.exact
            assert fam.first_miss(res.witness) is None
            if len(fam) <= 400:
                assert hitting._solve(*hitting._rows(fam)).size == bnd.exact
            checked += 1
    assert checked >= 2
