import json
import random

import pytest

from compactrepair import (
    bandwidth_comparison,
    coset_family,
    design_multi_seed,
    design_single_seed,
    dilate_translate,
    helper_payload,
    load_bundle,
    min_hitting_set,
    recover_symbol,
    simulate_failures,
    verify_reference_example,
)
from compactrepair import hitting
from compactrepair.errors import ExampleCheckError


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
        for t, b in zip(fam.seed_index, fam.b_value):
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


def test_simulate_witness_pattern_kills_groups(bundle_s1):
    # an MHS witness, shifted to the repaired point, is a killing pattern
    ctx = bundle_s1.ctx
    alpha = ctx.exp(5)
    fam = coset_family(list(bundle_s1.seeds), center=alpha)
    witness = {ctx.add(alpha, w) for w in bundle_s1.mhs.witness}
    assert witness <= fam.universe
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
    parity = bandwidth_comparison(16, 2, 4, 1, saving=0.0)
    assert parity["centralized_total"] == 2 * 4
    assert parity["decentralized_formula_total"] == 2 * 4
    table = bandwidth_comparison(30, 10, 8, 5, saving=0.3)
    assert table["centralized_total"] == 112
    assert table["decentralized_formula_total"] == pytest.approx(280.0)
    measured = bandwidth_comparison(16, 2, 4, 3, scheme_bandwidths=[12, 12, 9])
    assert measured["decentralized_measured_total"] == 33
    broadcast = bandwidth_comparison(16, 2, 4, 3, scheme_bandwidths=[12])
    assert broadcast["decentralized_measured_total"] == 36
    with pytest.raises(ValueError):
        bandwidth_comparison(16, 2, 4, 0)
    with pytest.raises(ValueError):
        bandwidth_comparison(16, 2, 4, 2, saving=1.0)


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
            for t, b in zip(fam.seed_index, fam.b_value):
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
    with pytest.raises(ExampleCheckError):
        verify_reference_example((1, 0, 0, 1, 1), strict=True)


def test_mhs_cross_check_multi(bundle_multi):
    fam = coset_family(list(bundle_multi.seeds))
    res = min_hitting_set(fam)
    assert res.size == bundle_multi.bounds.upper == 7
