"""Acceptance suite: one test per criterion, exact tolerances, timed.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL line
per criterion with its runtime.
"""

import itertools
import random
import time
from contextlib import contextmanager
from math import comb, gcd

from compactrepair import (
    bounds,
    coset_family,
    count_with_base,
    design_multi_seed,
    design_single_seed,
    dilate_translate,
    enumerate_subspaces,
    field_new,
    gaussian_coefficient,
    helper_payload,
    min_hitting_set,
    orbit_count_formula,
    orbit_decomposition,
    recover_symbol,
    span,
    verify_reference_example,
)
from compactrepair.repair import verify_full_rank
from oracles import (
    bandwidth, group_witnesses, naive_seed_scheme, solve_sets, verify_tolerance_exhaustive,
)

SWEEP_GRID = [(2, 4), (2, 6), (3, 2)]


@contextmanager
def criterion(number, description, limit_s):
    start = time.monotonic()
    try:
        yield
        elapsed = time.monotonic() - start
        assert elapsed < limit_s, (
            f"criterion {number} exceeded {limit_s}s: {elapsed:.2f}s"
        )
    except BaseException:
        print(f"ACCEPTANCE {number} FAIL ({time.monotonic() - start:.2f}s) {description}")
        raise
    print(f"ACCEPTANCE {number} PASS ({elapsed:.2f}s) {description}")


def test_criterion_1_example_golden_run():
    with criterion(1, "reference-design golden run (groups, MHS 5/6, tolerances 4/5)", 1.0):
        report = verify_reference_example()
        assert report["all_pass"] is True
        assert report["check_count"] == 8
        by_name = {c["name"]: c for c in report["checks"]}
        assert by_name["first-seed-mhs-size"]["actual"] == 5
        assert by_name["first-seed-tolerance"]["actual"] == 4
        assert by_name["second-seed-coset-count"]["actual"] == 15
        assert by_name["second-seed-mhs-size"]["actual"] == 6
        assert by_name["second-seed-tolerance"]["actual"] == 5


def test_criterion_2_sandwich_sweep():
    with criterion(2, "sandwich bounds over every subspace of the (q, ell) grid", 300.0):
        for q, ell in SWEEP_GRID:
            ctx = field_new(q, 1, ell)
            for delta in range(1, ell):
                b = bounds(q, ell, delta)
                cache = {}
                for S in enumerate_subspaces(ctx, q, delta):
                    fam = coset_family([S])
                    key = frozenset(fam.sets)
                    if key not in cache:
                        res = min_hitting_set(fam)
                        assert res.method == "exact"
                        cache[key] = res.size
                    size = cache[key]
                    assert b.lower <= size <= b.upper
                    m = S.base
                    if m == delta:
                        assert size == (q**ell - 1) // (q**delta - 1)
                    e = ell - delta
                    if e >= 1 and m % e == 0:
                        assert size == q**e + 1


def test_criterion_3_orbit_count_cross_validation():
    with criterion(3, "orbit formula equals brute-force decomposition", 120.0):
        cases = [(q, ell, d) for q, ell in SWEEP_GRID for d in range(1, ell)]
        for q, ell, delta in cases:
            ctx = field_new(q, 1, ell)
            brute = orbit_decomposition(ctx, delta)
            assert orbit_count_formula(q, ell, delta) == brute.orbit_count
            for m in brute.counts_by_base:
                assert count_with_base(q, ell, delta, m) == brute.counts_by_base[m]
        ctx = field_new(2, 1, 4)
        rep = orbit_decomposition(ctx, 2)
        assert rep.orbit_count == 3
        assert rep.counts_by_base == {1: 30, 2: 5}


def test_criterion_4_upper_bound_attainment():
    with criterion(4, "multi-seed (2,4,2): |MHS| = 7, tolerance 6 verified exhaustively", 60.0):
        bundle = design_multi_seed(2, 1, 4, 2, 2)
        fam = coset_family(list(bundle.seeds))
        assert len(fam.sets) == 35
        res = min_hitting_set(fam)
        assert res.method == "exact"
        assert res.size == 7
        assert bundle.tolerance == 6
        assert comb(bundle.n - 1, 6) == 5005
        assert verify_tolerance_exhaustive(fam, 6) is True
        assert verify_tolerance_exhaustive(fam, 7) is False


def test_criterion_5_repair_correctness():
    with criterion(5, "recover_symbol equals direct evaluation on every group", 240.0):
        bundles = [
            design_single_seed(2, 1, 4, 2, seed_basis=[4, 11]),
            design_single_seed(2, 1, 4, 2, seed_basis=[3, 6]),
            design_multi_seed(2, 1, 4, 2, 2),
        ]
        rng = random.Random(1234)
        failures = 0
        for bundle in bundles:
            ctx = bundle.ctx
            fam = coset_family(list(bundle.seeds))
            for alpha in (0, ctx.exp(5), ctx.exp(9)):
                for t, b in group_witnesses(fam):
                    scheme = dilate_translate(bundle.schemes[t], alpha, b)
                    for _ in range(100):
                        f = [rng.randrange(16) for _ in range(bundle.k)]
                        payloads = [
                            helper_payload(scheme, beta, ctx.poly_eval(f, beta))
                            for beta in scheme.helpers
                        ]
                        if recover_symbol(scheme, payloads) != ctx.poly_eval(f, alpha):
                            failures += 1
        assert failures == 0


def test_criterion_6_dilation_invariance():
    with criterion(6, "all 240 dilations keep rank, support, and bandwidth", 120.0):
        ctx = field_new(2, 1, 4)
        seed = span(ctx, 2, [ctx.exp(2), ctx.exp(7)])
        scheme = naive_seed_scheme(seed, 2)
        assert verify_full_rank(scheme)
        count = 0
        for alpha in ctx.elements():
            for j in range(15):
                b = ctx.exp(j)
                dilated = dilate_translate(scheme, alpha, b)
                assert verify_full_rank(dilated)
                coset = set(dilated.helpers) | {alpha}
                for x in ctx.elements():
                    if x not in coset:
                        assert dilated.evals_at(x) == [0, 0, 0, 0]
                assert bandwidth(dilated) == scheme.bandwidth
                count += 1
        assert count == 15 * 16


def test_criterion_7_counting_identities():
    with criterion(7, "Gaussian counts, base-count sums, Burnside integrality", 60.0):
        ctx16 = field_new(2, 1, 4)
        ctx64 = field_new(2, 1, 6)
        assert gaussian_coefficient(4, 2, 2) == 35
        assert len(list(enumerate_subspaces(ctx16, 2, 2))) == 35
        assert gaussian_coefficient(6, 3, 2) == 1395
        assert len(list(enumerate_subspaces(ctx64, 2, 3))) == 1395
        grid = [(q, ell, d) for q, ell in SWEEP_GRID for d in range(1, ell + 1)]
        grid += [(2, 48, 24), (2, 20, 8), (5, 12, 8)]
        for q, ell, delta in grid:
            g = gcd(ell, delta)
            total = sum(
                count_with_base(q, ell, delta, m)
                for m in range(1, g + 1)
                if g % m == 0
            )
            assert total == gaussian_coefficient(ell, delta, q)
            assert isinstance(orbit_count_formula(q, ell, delta), int)


def test_criterion_8_property_suites():
    with criterion(8, "solver vs exhaustive oracle on 200 random families", 240.0):
        rng = random.Random(8080)

        def brute_force_size(sets):
            universe = sorted(set().union(*sets))
            for size in range(len(universe) + 1):
                for cand in itertools.combinations(universe, size):
                    chosen = set(cand)
                    if all(chosen & s for s in sets):
                        return size
            raise AssertionError("unhittable")

        for _ in range(200):
            universe = list(range(1, rng.randint(4, 15) + 1))
            sets = [
                frozenset(rng.sample(universe, rng.randint(1, min(5, len(universe)))))
                for _ in range(rng.randint(1, 12))
            ]
            res = solve_sets(sets)
            assert res.method == "exact"
            assert res.size == brute_force_size(sets)
            t = solve_sets(sets).tolerance
            assert t == res.size - 1
            top = min(len(set().union(*sets)), t + 2)
            for e in range(top + 1):
                assert verify_tolerance_exhaustive(sets, e) is (e <= t)
