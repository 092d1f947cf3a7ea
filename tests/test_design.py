import json
import random
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from compactrepair import (
    bandwidth_comparison,
    coset_family,
    design_multi_seed,
    design_single_seed,
    dilate_translate,
    field_new,
    helper_payload,
    load_bundle,
    min_hitting_set,
    recover_symbol,
    simulate_failures,
    span,
    verify_reference_example,
)
from compactrepair import design, hitting
from oracles import (
    binomial_upper_tail,
    family_universe,
    group_witnesses,
    partition_dead_patterns,
    simulate_first_intact,
)


@pytest.fixture(scope="module")
def bundle_s1():
    return design_single_seed(2, 1, 4, 2, seed_basis=[4, 11])


@pytest.fixture(scope="module")
def bundle_s2():
    return design_single_seed(2, 1, 4, 2, seed_basis=[3, 6])


@pytest.fixture(scope="module")
def bundle_multi():
    return design_multi_seed(2, 1, 4, 2, 2)


def test_single_seed_golden_first(bundle_s1):
    assert bundle_s1.tolerance == 4
    assert bundle_s1.coset_counts == (5,)
    assert bundle_s1.mhs.method == "exact"
    assert bundle_s1.bounds.case == "subfield-coset"
    assert bundle_s1.bounds.exact == 5
    assert bundle_s1.schemes[0].bandwidth <= 12


def test_single_seed_golden_second(bundle_s2):
    assert bundle_s2.tolerance == 5
    assert bundle_s2.coset_counts == (15,)
    assert bundle_s2.bounds.case == "generic"


def test_single_seed_whole_field():
    bundle = design_single_seed(2, 1, 4, 2, delta=4, strategy="subfield-coset")
    assert bundle.tolerance == 0
    assert bundle.coset_counts == (1,)


def test_single_seed_strategy_subfield():
    bundle = design_single_seed(2, 1, 4, 2, delta=2)
    assert bundle.bounds.case == "subfield-coset"
    assert bundle.tolerance == 4
    with pytest.raises(ValueError):
        design_single_seed(2, 1, 4, 2, delta=3)  # 3 does not divide 4


def test_single_seed_validation():
    with pytest.raises(ValueError):
        design_single_seed(2, 1, 4, 4, seed_basis=[4, 11])  # q^delta = 4 <= k
    with pytest.raises(ValueError):
        design_single_seed(2, 1, 4, 16, delta=4)
    with pytest.raises(ValueError):
        design_single_seed(2, 1, 4, 2)  # neither basis nor delta


@pytest.mark.parametrize("delta", [0, -1, 5])
def test_single_seed_rejects_delta_out_of_range(delta):
    with pytest.raises(ValueError, match="1 <= delta <= ell"):
        design_single_seed(2, 1, 4, 2, delta=delta)


@pytest.mark.parametrize("delta", [0, -1, 5])
def test_multi_seed_rejects_delta_out_of_range(delta):
    with pytest.raises(ValueError, match=r"1 <= delta <= ell = 4, got delta = -?\d$"):
        design_multi_seed(2, 1, 4, 2, delta)


def test_tolerance_within_bounds(bundle_s1, bundle_s2, bundle_multi):
    for b in (bundle_s1, bundle_s2, bundle_multi):
        assert b.bounds.lower - 1 <= b.tolerance <= b.bounds.upper - 1


def test_multi_seed_2_4_2(bundle_multi):
    assert bundle_multi.mode == "multi-seed"
    assert len(bundle_multi.seeds) == 3
    assert bundle_multi.mhs.size == 7
    assert bundle_multi.mhs.method == "exact"
    assert bundle_multi.tolerance == 6
    assert bundle_multi.orbits.orbit_count == 3
    # seeds are exactly the orbit representatives
    assert tuple(bundle_multi.orbits.representatives) == bundle_multi.seeds


def test_multi_seed_trivial_delta_ell():
    bundle = design_multi_seed(2, 1, 4, 2, 4)
    assert len(bundle.seeds) == 1
    assert bundle.tolerance == 0


def test_multi_seed_2_6_3_solver_confirmed():
    bundle = design_multi_seed(2, 1, 6, 4, 3)
    assert len(bundle.seeds) == 23
    assert bundle.mhs.size == 15
    assert bundle.mhs.method == "exact"
    assert bundle.tolerance == (2**4 - 1) // 1 - 1 == 14
    fam = coset_family(list(bundle.seeds))
    assert all(not g.isdisjoint(bundle.mhs.witness) for g in fam.sets)
    assert min_hitting_set(fam).size == bundle.mhs.size


@pytest.mark.parametrize(
    "q, ell, delta",
    [(2, 4, 2), (2, 5, 3), (3, 3, 2), (4, 3, 2), (2, 4, 1), (2, 4, 4)],
)
def test_multi_seed_line_cover_witness_is_optimal(monkeypatch, q, ell, delta):
    p, s = (2, 2) if q == 4 else (q, 1)
    with monkeypatch.context() as m:
        # The witness is built from the Bose-Burton bound, not solved for.
        m.setattr(hitting, "milp", None)
        bundle = design_multi_seed(p, s, ell, 1, delta)
    fam = coset_family(list(bundle.seeds))
    assert bundle.mhs.method == "exact"
    assert bundle.mhs.size == (q ** (ell - delta + 1) - 1) // (q - 1)
    assert len(bundle.mhs.witness) == bundle.mhs.size
    assert all(not g.isdisjoint(bundle.mhs.witness) for g in fam.sets)
    assert bundle.mhs.size == min_hitting_set(fam).size


def test_multi_seed_2_6_2_attains_upper_bound():
    bundle = design_multi_seed(2, 1, 6, 2, 2)
    assert len(bundle.seeds) == 11
    assert bundle.mhs.size == bundle.bounds.upper == 31
    assert bundle.mhs.method == "exact"


def test_single_seed_strategy_first():
    bundle = design_single_seed(2, 1, 4, 2, delta=3, strategy="first")
    assert bundle.delta == 3
    assert bundle.bounds.case == "nested-subspace"
    assert bundle.tolerance == 2  # q + 1 - 1 for delta = ell - 1


def test_design_over_prime_power_q():
    # the same 16-element field, but with designated subfield F_4
    bundle = design_single_seed(2, 2, 2, 2, delta=1, strategy="subfield-coset")
    assert bundle.q == 4
    assert bundle.coset_counts == (5,)
    assert bundle.tolerance == 4
    assert bundle.bounds.exact == 5
    ctx = bundle.ctx
    rng = random.Random(2)
    for alpha in (0, ctx.exp(3), ctx.exp(11)):
        fam = coset_family(list(bundle.seeds), center=alpha)
        for t, b in group_witnesses(fam):
            scheme = dilate_translate(bundle.schemes[t], alpha, b)
            for _ in range(10):
                f = [rng.randrange(16) for _ in range(2)]
                payloads = [
                    helper_payload(scheme, beta, ctx.poly_eval(f, beta))
                    for beta in scheme.helpers
                ]
                assert recover_symbol(scheme, payloads) == ctx.poly_eval(f, alpha)
    rep = simulate_failures(bundle, ctx.exp(3), bundle.tolerance)
    assert rep.survived == 1.0


def test_multi_seed_family_is_all_subspaces(bundle_multi):
    from compactrepair import enumerate_subspaces

    fam = coset_family(list(bundle_multi.seeds))
    ctx = bundle_multi.ctx
    expected = {
        frozenset(S.members - {0}) for S in enumerate_subspaces(ctx, 2, 2)
    }
    assert set(fam.sets) == expected


def test_bundle_roundtrip(bundle_s1, bundle_multi):
    for bundle in (bundle_s1, bundle_multi):
        blob = bundle.to_json_dict()
        again = load_bundle(json.loads(json.dumps(blob)))
        assert again.to_json_dict() == blob
        assert again.tolerance == bundle.tolerance


# (p, s, ell) with field order at most 49: every multi-seed design stays small.
ROUND_TRIP_FIELDS = [(2, 1, 2), (2, 1, 3), (2, 1, 4), (2, 1, 5), (2, 2, 2), (3, 1, 2),
                     (3, 1, 3), (5, 1, 2), (7, 1, 2)]


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_bundle_round_trip_property(data):
    p, s, ell = data.draw(st.sampled_from(ROUND_TRIP_FIELDS), label="field")
    mode = data.draw(
        st.sampled_from(["subfield-coset", "first", "seed-basis", "multi-seed"]), label="mode"
    )
    q = p**s
    basis = None
    if mode == "seed-basis":
        element = st.integers(1, q**ell - 1)
        basis = data.draw(st.lists(element, min_size=1, max_size=ell), label="basis")
        delta = span(field_new(p, s, ell), q, basis).dim
    elif mode == "subfield-coset":
        delta = data.draw(st.sampled_from([d for d in range(1, ell + 1) if ell % d == 0]))
    else:
        delta = data.draw(st.integers(1, ell), label="delta")
    k = data.draw(st.integers(1, q**delta - 1), label="k")
    if mode == "multi-seed":
        bundle = design_multi_seed(p, s, ell, k, delta)
    elif mode == "seed-basis":
        bundle = design_single_seed(p, s, ell, k, seed_basis=basis)
    else:
        bundle = design_single_seed(p, s, ell, k, delta=delta, strategy=mode)
    text = bundle.dumps()
    assert load_bundle(json.loads(text)).dumps() == text


def test_bundle_determinism():
    a = design_single_seed(2, 1, 4, 2, seed_basis=[4, 11], rng_seed=3)
    b = design_single_seed(2, 1, 4, 2, seed_basis=[4, 11], rng_seed=3)
    assert a.dumps() == b.dumps()
    c = design_multi_seed(2, 1, 4, 2, 2)
    d = design_multi_seed(2, 1, 4, 2, 2)
    assert c.dumps() == d.dumps()


def test_bundles_do_not_depend_on_rng_seed():
    # the scheme is a closed form; rng_seed is accepted and ignored
    single = {
        design_single_seed(2, 1, 4, 2, seed_basis=[4, 11], rng_seed=r).dumps()
        for r in (0, 1, 3, 999)
    }
    multi = {design_multi_seed(2, 1, 5, 2, 2, rng_seed=r).dumps() for r in (0, 1, 7)}
    assert len(single) == len(multi) == 1
    for text in single | multi:
        assert "rng_seed" not in json.loads(text)["config"]


@pytest.mark.parametrize(
    "design",
    [
        lambda: design_single_seed(2, 1, 4, 2, seed_basis=[4, 11]),
        lambda: design_single_seed(2, 1, 8, 4, delta=4),
        lambda: design_single_seed(3, 1, 4, 3, delta=2),
        lambda: design_single_seed(2, 2, 3, 2, delta=1),
        lambda: design_multi_seed(2, 1, 5, 2, 2),
        lambda: design_multi_seed(3, 1, 3, 4, 2),
    ],
    ids=["gf16-golden", "gf256-d4", "gf81-q3", "gf64-q4", "gf32-multi", "gf27-multi"],
)
def test_design_bandwidth_is_closed_form(design):
    # every seed scheme: bandwidth (|S| - 1)(ell - r), r the largest with
    # q^r <= |S| - k
    bundle = design()
    q, ell, size = bundle.q, bundle.ctx.ell, bundle.q**bundle.delta
    r = max(j for j in range(bundle.delta) if q**j <= size - bundle.k)
    for scheme in bundle.schemes:
        assert scheme.bandwidth == (size - 1) * (ell - r)


def test_load_bundle_rejects_forged_tolerance(bundle_s1):
    forged = bundle_s1.to_json_dict()
    forged["tolerance"] = 9
    with pytest.raises(ValueError, match="tolerance"):
        load_bundle(forged)
    forged = bundle_s1.to_json_dict()
    forged["mhs"]["size"] = 10
    forged["tolerance"] = 9
    with pytest.raises(ValueError, match="witness"):
        load_bundle(forged)


def test_load_bundle_rejects_forgery(forged_bundle):
    data, pattern = forged_bundle
    with pytest.raises(ValueError, match=pattern):
        load_bundle(data)


def test_load_bundle_names_every_disagreeing_field(bundle_s1):
    forged = bundle_s1.to_json_dict()
    forged["q"] = 4
    forged["seeds"][0]["base_m"] = 1
    with pytest.raises(ValueError) as err:
        load_bundle(forged)
    bad = str(err.value).split(": ")[-1].split(", ")
    assert bad == ["q", "seeds[0].base_m"]


def test_load_bundle_ignores_tool_version(bundle_s1):
    blob = bundle_s1.to_json_dict()
    blob["provenance"]["tool"] = "compactrepair 9.9.9"
    assert load_bundle(blob).dumps() == bundle_s1.dumps()


def test_bundle_schema_tag(bundle_s1):
    blob = bundle_s1.to_json_dict()
    assert blob["schema"] == 1
    assert blob["provenance"]["tool"].startswith("compactrepair ")
    with pytest.raises(ValueError):
        load_bundle({"schema": 2})


def test_cross_module_tolerance_consistency(bundle_s1, bundle_multi):
    ctx = bundle_s1.ctx
    for bundle in (bundle_s1, bundle_multi):
        for alpha in (0, ctx.exp(3), ctx.exp(7)):
            fam = coset_family(list(bundle.seeds), center=alpha)
            assert bundle.tolerance == min_hitting_set(fam).tolerance


def test_simulate_exhaustive_at_tolerance(bundle_s1):
    ctx = bundle_s1.ctx
    alpha = ctx.exp(5)
    at_tol = simulate_failures(bundle_s1, alpha, bundle_s1.tolerance)
    assert at_tol.mode == "exhaustive"
    assert at_tol.survived == 1.0
    beyond = simulate_failures(bundle_s1, alpha, bundle_s1.tolerance + 1)
    assert beyond.survived < 1.0
    assert beyond.failure_probability == pytest.approx(1.0 - beyond.survived)


@pytest.mark.parametrize("alpha", [0, 5, 13, 26])
def test_simulate_odd_p_beyond_tolerance_matches_centred_oracle(alpha):
    # The scan shifts patterns onto the groups around 0; the oracle builds
    # the groups around alpha.  GF(27) has tolerance 3, so e = 4 and 5 kill
    # some patterns and the survival depends on which points the shift hits.
    bundle = design_multi_seed(3, 1, 3, 2, 2)
    for e in (3, 4, 5):
        report = simulate_failures(bundle, alpha, e, mode="exhaustive")
        assert report.to_json_dict() == simulate_first_intact(bundle, alpha, e), e


def test_simulate_witness_pattern_kills_groups(bundle_s1):
    # an MHS witness, shifted to the repaired point, is a killing pattern
    ctx = bundle_s1.ctx
    alpha = ctx.exp(5)
    fam = coset_family(list(bundle_s1.seeds), center=alpha)
    witness = {ctx.add(alpha, w) for w in bundle_s1.mhs.witness}
    assert alpha not in witness
    assert all(not g.isdisjoint(witness) for g in fam.sets)


def test_simulate_monte_carlo_agrees(bundle_s1):
    ctx = bundle_s1.ctx
    alpha = ctx.exp(5)
    e = bundle_s1.tolerance + 1
    exact = simulate_failures(bundle_s1, alpha, e)
    mc = simulate_failures(
        bundle_s1, alpha, e, mode="monte-carlo", trials=4000, rng_seed=12345
    )
    assert mc.mode == "monte-carlo"
    p = exact.survived
    sigma = (p * (1 - p) / mc.patterns) ** 0.5
    assert abs(mc.survived - p) <= 3 * sigma
    # reproducible for a fixed seed
    again = simulate_failures(
        bundle_s1, alpha, e, mode="monte-carlo", trials=4000, rng_seed=12345
    )
    assert again.survived == mc.survived


@pytest.fixture(scope="module")
def partition_bundles():
    """Subfield-coset designs: (bundle, B groups, s points each) tiling n - 1."""
    gf16 = design_single_seed(2, 1, 4, 2, delta=2)
    gf64 = design_single_seed(2, 1, 6, 2, delta=2)
    gf81 = design_single_seed(3, 1, 4, 3, delta=2)
    gf256 = design_single_seed(2, 1, 8, 4, delta=4)
    return {
        "gf16": (gf16, 5, 3),
        "gf64": (gf64, 21, 3),
        "gf81": (gf81, 10, 8),
        "gf256": (gf256, 17, 15),
    }


@pytest.mark.parametrize(
    "name, failures",
    [("gf16", range(4, 9)), ("gf64", range(6)), ("gf81", (0, 1, 2, 3, 4, 79, 80))],
)
def test_simulate_exhaustive_equals_partition_closed_form(partition_bundles, name, failures):
    bundle, blocks, size = partition_bundles[name]
    assert bundle.coset_counts == (blocks,) and blocks * size == bundle.n - 1
    for e in failures:
        rep = simulate_failures(bundle, bundle.ctx.exp(1), e, mode="exhaustive")
        total = comb(bundle.n - 1, e)
        dead = partition_dead_patterns(blocks, size, bundle.n - 1, e)
        assert rep.patterns == total
        assert rep.survived == (total - dead) / total, e


def test_simulate_monte_carlo_near_partition_closed_form(partition_bundles):
    # C(255, 40) patterns: only Monte Carlo runs, the closed form is exact
    bundle, blocks, size = partition_bundles["gf256"]
    e, trials = 40, 20000
    total = comb(bundle.n - 1, e)
    p = 1 - partition_dead_patterns(blocks, size, bundle.n - 1, e) / total
    rep = simulate_failures(bundle, 7, e, trials=trials, rng_seed=2026)
    assert rep.mode == "monte-carlo" and rep.patterns == trials
    assert abs(rep.survived - p) <= 4 * (p * (1 - p) / trials) ** 0.5
    low, high = rep.survived_interval
    assert 0 <= low <= rep.survived <= high <= 1


def _sampled(universe, e, trials, rng_seed):
    gen = np.random.Generator(np.random.Philox(key=rng_seed))
    return list(design._sampled_patterns(gen, universe, e, trials))


@pytest.mark.parametrize("e", [0, 1, 3, 14])
def test_sampled_patterns_are_distinct_e_subsets(bundle_s1, e):
    # the universe simulate_failures samples from: every node but a*
    alpha = bundle_s1.ctx.exp(5)
    universe = family_universe(coset_family(list(bundle_s1.seeds), center=alpha))
    assert universe == [x for x in range(bundle_s1.n) if x != alpha]
    chunks = _sampled(universe, e, 3000, rng_seed=11)
    assert sum(chunk.shape[1] for chunk in chunks) == 3000
    for chunk in chunks:
        assert chunk.shape[0] == e
        for pattern in chunk.T:
            assert len(set(pattern.tolist())) == e
            assert alpha not in pattern and set(pattern.tolist()) <= set(universe)
    again = _sampled(universe, e, 3000, rng_seed=11)
    assert all(np.array_equal(a, b) for a, b in zip(chunks, again))


def test_sampled_patterns_hit_each_point_evenly():
    universe = list(range(1, 16))
    e, trials = 3, 30000
    counts = np.bincount(np.concatenate([c.ravel() for c in _sampled(universe, e, trials, 5)]))
    expected = trials * e / len(universe)
    sigma = (trials * e / len(universe) * (1 - e / len(universe))) ** 0.5
    assert counts[0] == 0
    assert np.all(np.abs(counts[1:] - expected) <= 5 * sigma)


def test_monte_carlo_chunks_do_not_grow_with_trials():
    # a chunk holds at most _CHUNK_POINTS failed points and its taken matrix
    # _CHUNK_CELLS cells, however many trials are asked for
    universe = list(range(1, 256))
    for e in (1, 40, 200):
        gen = np.random.Generator(np.random.Philox(key=1))
        trials = 3 * design._chunk_size(e) + 1
        widths = [c.shape[1] for c in design._sampled_patterns(gen, universe, e, trials)]
        assert sum(widths) == trials and len(widths) >= 4
        assert max(widths) * e <= design._CHUNK_POINTS
        assert max(widths) * len(universe) <= design._CHUNK_CELLS


def test_clopper_pearson_interval():
    for x, trials in ((0, 50), (1, 50), (17, 40), (399, 400), (400, 400), (5, 100)):
        low, high = design._clopper_pearson(x, trials)
        assert 0.0 <= low <= x / trials <= high <= 1.0
        # each end leaves 2.5% of the binomial mass beyond the observed count
        if x:
            assert binomial_upper_tail(trials, x, low) == pytest.approx(0.025, rel=1e-6)
        else:
            assert low == 0.0 and high == pytest.approx(1 - 0.025 ** (1 / trials))
        if x < trials:
            assert 1 - binomial_upper_tail(trials, x + 1, high) == pytest.approx(0.025, rel=1e-6)
        else:
            assert high == 1.0 and low == pytest.approx(0.025 ** (1 / trials))
    assert design._clopper_pearson(5, 100) == pytest.approx((0.016432, 0.112835), abs=1e-6)


def test_simulate_reports_interval_only_for_monte_carlo(bundle_s1):
    exact = simulate_failures(bundle_s1, 6, 5)
    assert exact.survived_interval is None
    assert exact.to_json_dict()["survived_interval"] is None
    mc = simulate_failures(bundle_s1, 6, 5, mode="monte-carlo", trials=500, rng_seed=3)
    low, high = mc.to_json_dict()["survived_interval"]
    assert (low, high) == mc.survived_interval
    assert low < mc.survived < high


@pytest.mark.parametrize("rng_seed", [-1, 2**128, -(2**200)])
@pytest.mark.parametrize("mode", ["exhaustive", "monte-carlo"])
def test_simulate_rejects_out_of_range_rng_seed(bundle_s1, rng_seed, mode):
    with pytest.raises(ValueError, match=r"rng_seed < 2\*\*128, got"):
        simulate_failures(bundle_s1, 6, 5, mode=mode, trials=10, rng_seed=rng_seed)


def test_simulate_accepts_extreme_rng_seeds(bundle_s1):
    for rng_seed in (0, 2**128 - 1):
        rep = simulate_failures(bundle_s1, 6, 5, mode="monte-carlo", trials=10, rng_seed=rng_seed)
        assert rep.rng_seed == rng_seed


@pytest.mark.parametrize("alpha_star", [16, 99, -1])
def test_simulate_rejects_out_of_field_point(bundle_s1, alpha_star):
    with pytest.raises(ValueError, match="alpha_star"):
        simulate_failures(bundle_s1, alpha_star, 2)


def test_simulate_requires_seed_for_monte_carlo(bundle_s1):
    with pytest.raises(ValueError):
        simulate_failures(bundle_s1, 0, 5, mode="monte-carlo")


@pytest.mark.parametrize("trials", [0, -1])
def test_simulate_monte_carlo_needs_a_trial(bundle_s1, trials):
    with pytest.raises(ValueError, match="trials"):
        simulate_failures(
            bundle_s1, 0, 5, mode="monte-carlo", trials=trials, rng_seed=1
        )


def test_simulate_bandwidth_table(bundle_s1):
    ctx = bundle_s1.ctx
    rep = simulate_failures(bundle_s1, ctx.exp(5), 2)
    bw = rep.bandwidth
    assert bw["centralized_total"] == 2 * 4 + 1 * 4
    assert bw["decentralized_per_repair_mean"] == bundle_s1.schemes[0].bandwidth
    assert bw["decentralized_total"] == 2 * bundle_s1.schemes[0].bandwidth
    assert rep.group_selection == "first-intact"


def test_simulate_bandwidth_table_without_failures(bundle_s1):
    bw = simulate_failures(bundle_s1, 0, 0).bandwidth
    assert bw["centralized_total"] == 2 * 4
    assert bw["naive_decentralized_total"] == 0


def test_bandwidth_comparison_table():
    parity = bandwidth_comparison(16, 2, 4, 1)
    assert parity["centralized_total"] == 2 * 4
    table = bandwidth_comparison(30, 10, 8, 5)
    assert table["centralized_total"] == 112
    measured = bandwidth_comparison(16, 2, 4, 3, scheme_bandwidths=[12, 12, 9])
    assert measured["decentralized_measured_total"] == 33
    broadcast = bandwidth_comparison(16, 2, 4, 3, scheme_bandwidths=[12])
    assert broadcast["decentralized_measured_total"] == 36
    # e counts failed nodes; e = 10**13 with one broadcast bandwidth once
    # ran out of memory, and e = 1000 gave a table
    for e in (0, 16, 1000, 10**13):
        with pytest.raises(ValueError, match=rf"need 1 <= e < n = 16, got e = {e}$"):
            bandwidth_comparison(16, 2, 4, e, scheme_bandwidths=[5])


@pytest.mark.parametrize(
    "n, k, ell", [(16, 20, 4), (16, 16, 4), (16, 0, 4), (-3, -2, -4), (16, 2, 0)]
)
def test_bandwidth_comparison_rejects_impossible_code(n, k, ell):
    with pytest.raises(ValueError, match="k|ell"):
        bandwidth_comparison(n, k, ell, 2)


def test_repair_correctness_over_bundles(bundle_s1, bundle_s2, bundle_multi):
    rng = random.Random(404)
    for bundle in (bundle_s1, bundle_s2, bundle_multi):
        ctx = bundle.ctx
        for alpha in (0, ctx.exp(5), ctx.exp(9)):
            fam = coset_family(list(bundle.seeds), center=alpha)
            for t, b in group_witnesses(fam):
                scheme = dilate_translate(bundle.schemes[t], alpha, b)
                for _ in range(10):
                    f = [rng.randrange(16) for _ in range(bundle.k)]
                    payloads = [
                        helper_payload(scheme, beta, ctx.poly_eval(f, beta))
                        for beta in scheme.helpers
                    ]
                    assert recover_symbol(scheme, payloads) == ctx.poly_eval(f, alpha)


def test_verify_example_all_pass():
    report = verify_reference_example()
    assert report["all_pass"] is True
    assert report["check_count"] == 8
    assert report["first_divergence"] is None
    assert all(c["passed"] for c in report["checks"])


def test_verify_example_divergent_modulus():
    report = verify_reference_example((1, 0, 0, 1, 1))  # x^4 + x^3 + 1
    assert report["all_pass"] is False
    assert report["first_divergence"] == "first-seed-groups-at-z5"


def test_mhs_cross_check_multi(bundle_multi):
    fam = coset_family(list(bundle_multi.seeds))
    res = min_hitting_set(fam)
    assert res.size == bundle_multi.bounds.upper == 7


@pytest.mark.parametrize(
    "field", [(2, 1, 4), (2, 1, 7), (3, 1, 4), (3, 2, 2), (5, 1, 2), (2, 2, 3)],
    ids=["gf16", "gf128", "gf81", "gf81-q9", "gf25", "gf64-q4"],
)
def test_shifted_universe_matches_field_subtraction(field):
    ctx = field_new(*field)
    for alpha in sorted({0, 1, ctx.generator, ctx.order // 2, ctx.order - 1}):
        expected = [ctx.sub(x, alpha) for x in range(ctx.order) if x != alpha]
        assert design._shifted_universe(ctx, alpha).tolist() == expected
