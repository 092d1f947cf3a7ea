import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from compactrepair import (
    HelperPayload,
    SeedScheme,
    coset_family,
    dilate_translate,
    field_new,
    helper_payload,
    recover_symbol,
    search_seed_scheme,
    span,
    verify_full_rank,
)
from compactrepair.errors import (
    DimensionTooSmallError,
    MissingPayloadError,
    NotAHelperError,
    RankDeficientError,
    ZeroDilationError,
)
from oracles import bandwidth, check_polynomial_validity, naive_seed_scheme


@pytest.fixture
def golden_seed(gf16):
    return span(gf16, 2, [gf16.exp(2), gf16.exp(7)])


@pytest.fixture
def naive16(gf16, golden_seed):
    return naive_seed_scheme(gf16, golden_seed, 2)


def dense_check_polynomial(ctx, scheme, i):
    """Oracle: interpolate g_i from its values on every field element."""
    # Lagrange through all n points; degree <= n - 1 always
    xs = list(ctx.elements())
    ys = [scheme.evals_at(x)[i] for x in xs]
    coeffs = [0] * ctx.order
    for xj, yj in zip(xs, ys):
        if yj == 0:
            continue
        num = [1]
        denom = 1
        for xm in xs:
            if xm == xj:
                continue
            # num *= (x - xm)
            num = [
                ctx.add(
                    ctx.mul(num[t], ctx.neg(xm)) if t < len(num) else 0,
                    num[t - 1] if t >= 1 else 0,
                )
                for t in range(len(num) + 1)
            ]
            denom = ctx.mul(denom, ctx.sub(xj, xm))
        scale = ctx.mul(yj, ctx.inv(denom))
        for t, c in enumerate(num):
            coeffs[t] = ctx.add(coeffs[t], ctx.mul(scale, c))
    return coeffs


def test_power_sum_orthogonality(gf16, gf9):
    # grounds absorbing the dual multiplier into the check polynomials
    for ctx in (gf16, gf9):
        for t in range(ctx.order - 1):
            total = 0
            for a in ctx.elements():
                total = ctx.add(total, ctx.pow(a, t))
            assert total == 0


def test_naive_scheme_full_rank_and_bandwidth(gf16, naive16):
    assert verify_full_rank(naive16)
    assert naive16.bandwidth == 3 * 4  # (|S| - 1) * ell
    assert bandwidth(naive16) == naive16.bandwidth


def test_naive_whole_field(gf16):
    S = span(gf16, 2, [gf16.exp(i) for i in range(4)])
    scheme = naive_seed_scheme(gf16, S, 1)
    assert verify_full_rank(scheme)
    assert scheme.bandwidth == 15 * 4


def test_dimension_too_small(gf16, golden_seed):
    with pytest.raises(DimensionTooSmallError):
        naive_seed_scheme(gf16, golden_seed, 4)  # |S| = 4 needs k < 4
    # boundary: |S| = k + 1 leaves only constant u_i, still valid
    scheme = naive_seed_scheme(gf16, golden_seed, 3)
    assert verify_full_rank(scheme)


def test_duplicate_u_rows_fail_rank(gf16, golden_seed):
    u = [(1,), (1,), (gf16.exp(1),), (gf16.exp(2),)]
    with pytest.raises(RankDeficientError, match="full-rank"):
        SeedScheme(gf16, golden_seed, 2, u)


def test_u_degree_bound_enforced(gf16, golden_seed):
    with pytest.raises(ValueError):
        SeedScheme(gf16, golden_seed, 2, [(0, 0, 1)] + [(1,)] * 3)


def test_check_polynomials_vanish_off_support(gf16, naive16, golden_seed):
    for x in gf16.elements():
        evals = naive16.evals_at(x)
        if x in golden_seed.members:
            assert any(evals)
        else:
            assert evals == [0, 0, 0, 0]


def test_check_polynomial_orthogonality_oracle(gf16, naive16):
    # oracle: the dense form of each g_i multiplies against 100 random
    # messages to a zero inner product over all evaluation points
    rng = random.Random(77)
    dense = [dense_check_polynomial(gf16, naive16, i) for i in range(4)]
    for g in dense:
        deg = max((t for t, c in enumerate(g) if c), default=-1)
        assert deg <= 16 - 2 - 1
        assert check_polynomial_validity(gf16, 2, g)
    for _ in range(100):
        f = [rng.randrange(16) for _ in range(2)]
        for g in dense:
            total = 0
            for a in gf16.elements():
                total = gf16.add(
                    total, gf16.mul(gf16.poly_eval(g, a), gf16.poly_eval(f, a))
                )
            assert total == 0


def test_check_polynomial_validity_degree_rule(gf16):
    assert check_polynomial_validity(gf16, 2, [0])  # zero polynomial
    assert check_polynomial_validity(gf16, 2, [0] * 13 + [1])  # deg 13 = n-k-1
    assert not check_polynomial_validity(gf16, 2, [0] * 14 + [1])  # deg n-k
    # oracle: a degree n-k polynomial has a witness message with nonzero
    # inner product
    rng = random.Random(5)
    g = [0] * 14 + [1]
    found = False
    for _ in range(50):
        f = [rng.randrange(16) for _ in range(2)]
        total = 0
        for a in gf16.elements():
            total = gf16.add(
                total, gf16.mul(gf16.poly_eval(g, a), gf16.poly_eval(f, a))
            )
        if total != 0:
            found = True
            break
    assert found


def test_identity_dilation(gf16, naive16):
    d = dilate_translate(naive16, 0, 1)
    assert set(d.helpers) == set(naive16.helpers)
    for x in gf16.elements():
        assert d.evals_at(x) == naive16.evals_at(x)


def test_zero_dilation_rejected(naive16):
    with pytest.raises(ZeroDilationError):
        dilate_translate(naive16, 3, 0)


def test_dilations_reproduce_golden_groups(gf16, naive16, golden_seed):
    alpha = gf16.exp(5)
    fam = coset_family([golden_seed], center=alpha)
    helper_sets = {
        frozenset(dilate_translate(naive16, alpha, gf16.exp(j)).helpers)
        for j in range(15)
    }
    assert helper_sets == set(fam.sets)
    assert len(helper_sets) == 5


def test_dilation_invariance_all_pairs(gf16, naive16, golden_seed):
    # every (alpha*, b) pair: full rank, vanishing off coset, equal bandwidth
    seed_profile = sorted(
        gf16.rank_over(1, naive16.evals_at(a)) for a in naive16.helpers
    )
    for alpha in gf16.elements():
        for j in range(15):
            b = gf16.exp(j)
            d = dilate_translate(naive16, alpha, b)
            assert verify_full_rank(d)
            assert bandwidth(d) == naive16.bandwidth
            coset = set(d.helpers) | {alpha}
            for x in gf16.elements():
                if x not in coset:
                    assert d.evals_at(x) == [0, 0, 0, 0]
            profile = sorted(gf16.rank_over(1, d.evals_at(a)) for a in d.helpers)
            assert profile == seed_profile


def test_helper_payload_shape(gf16, naive16):
    d = dilate_translate(naive16, gf16.exp(5), gf16.exp(3))
    rng = random.Random(19)
    f = [rng.randrange(16) for _ in range(2)]
    total = 0
    for beta in d.helpers:
        p = helper_payload(d, beta, gf16.poly_eval(f, beta))
        assert p.beta == beta
        assert len(p.symbols) <= 4
        total += len(p.symbols)
    assert total == bandwidth(d)
    with pytest.raises(NotAHelperError):
        helper_payload(d, gf16.exp(5), 0)


def echelon_from_scratch(d, beta):
    """Oracle: echelon basis of d.evals_at(beta) and each evaluation's
    coordinates at the basis' pivot columns."""
    ctx, mq = d.ctx, d.mq
    rows = [list(ctx.coords(v, mq)) for v in d.evals_at(beta)]
    rref, pivots = ctx.rref_over(mq, rows)
    basis = tuple(ctx.from_coords(r, mq) for r in rref)
    combination = [[row[p] for p in pivots] for row in rows]
    return basis, combination


def test_payload_reassembles_traces(gf16, naive16):
    # oracle: payload symbols and the pivot coordinates of the evaluations
    # reproduce Tr(h_i(beta) * f(beta)) for random messages
    rng = random.Random(23)
    d = dilate_translate(naive16, gf16.exp(9), gf16.exp(4))
    for _ in range(20):
        f = [rng.randrange(16) for _ in range(2)]
        for beta in d.helpers:
            fb = gf16.poly_eval(f, beta)
            p = helper_payload(d, beta, fb)
            evals = d.evals_at(beta)
            _, combination = echelon_from_scratch(d, beta)
            for i in range(4):
                direct = gf16.trace_to_subfield(gf16.mul(evals[i], fb), 1)
                assembled = 0
                for c, t in zip(combination[i], p.symbols, strict=True):
                    assembled = gf16.add(assembled, gf16.mul(c, t))
                assert assembled == direct


def payloads_for(ctx, scheme, f):
    return [
        helper_payload(scheme, beta, ctx.poly_eval(f, beta))
        for beta in scheme.helpers
    ]


# name -> (p, s, ell, seed basis as powers of z, k)
SMALL_SEEDS = {
    "gf16": (2, 1, 4, (2, 7), 2),  # the golden seed
    "gf27": (3, 1, 3, (0, 1), 3),
    "gf64-q4": (2, 2, 3, (1,), 2),  # GF(64) over F_4
    "gf81-q3": (3, 1, 4, (0, 1), 3),
}


def searched_seed(name):
    """The closed-form scheme search_seed_scheme builds for a small seed."""
    p, s, ell, exps, k = SMALL_SEEDS[name]
    ctx = field_new(p, s, ell)
    S = span(ctx, ctx.q, [ctx.exp(e) for e in exps])
    return search_seed_scheme(ctx, S, k)


def payload_from_scratch(d, beta, f_beta):
    """Oracle: traces of f_beta against the echelon basis of d.evals_at(beta)."""
    ctx, mq = d.ctx, d.mq
    basis, _ = echelon_from_scratch(d, beta)
    symbols = tuple(ctx.trace_to_subfield(ctx.mul(xi, f_beta), mq) for xi in basis)
    return HelperPayload(beta, symbols)


def weights_from_scratch(d, beta):
    """Oracle: w_j = -sum_i c_ij dual_i, with c_ij the pivot coordinates of
    d.evals_at(beta) and dual the trace-dual basis at the repaired point."""
    ctx = d.ctx
    duals = ctx.dual_basis(d.evals_at(d.repaired_point), d.mq)
    _, combination = echelon_from_scratch(d, beta)
    weights = []
    for j in range(len(combination[0])):
        acc = 0
        for row, dual in zip(combination, duals, strict=True):
            acc = ctx.add(acc, ctx.mul(row[j], dual))
        weights.append(ctx.neg(acc))
    return tuple(weights)


def check_payloads_match_oracle(seed, pairs, rng):
    ctx = seed.ctx
    for alpha, b in pairs:
        d = dilate_translate(seed, alpha, b)
        f = [rng.randrange(ctx.order) for _ in range(seed.k)]
        payloads = payloads_for(ctx, d, f)
        for p in payloads:
            assert p == payload_from_scratch(d, p.beta, ctx.poly_eval(f, p.beta))
            _, weights = seed.helper_data[d.seed_point(p.beta)]
            assert weights == weights_from_scratch(d, p.beta)
        assert sum(len(p.symbols) for p in payloads) == bandwidth(d) == seed.bandwidth


@pytest.mark.parametrize("searched", [False, True], ids=["naive", "searched"])
def test_seed_payloads_match_oracle_every_dilation(gf16, golden_seed, searched):
    # payloads read per-helper data the seed computed once; every (a*, b)
    # must still give what a from-scratch row reduction gives
    if searched:
        seed = search_seed_scheme(gf16, golden_seed, 2)
    else:
        seed = naive_seed_scheme(gf16, golden_seed, 2)
    pairs = [(alpha, gf16.exp(j)) for alpha in gf16.elements() for j in range(15)]
    check_payloads_match_oracle(seed, pairs, random.Random(43))


@pytest.mark.parametrize("name", ["gf81-q3", "gf64-q4"])
def test_seed_payloads_match_oracle_other_fields(name):
    # odd p, and a base field F_q larger than F_p
    seed = searched_seed(name)
    order = seed.ctx.order
    rng = random.Random(47)
    pairs = [(rng.randrange(order), rng.randrange(1, order)) for _ in range(60)]
    check_payloads_match_oracle(seed, pairs, rng)


@pytest.fixture(scope="module", params=["gf16", "gf27", "gf64-q4"])
def small_seed(request):
    return searched_seed(request.param)


@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_recovery_property_any_dilation(small_seed, data):
    ctx = small_seed.ctx
    element = st.integers(0, ctx.order - 1)
    alpha = data.draw(element, label="alpha_star")
    b = data.draw(st.integers(1, ctx.order - 1), label="b")
    f = data.draw(st.lists(element, max_size=small_seed.k), label="f")
    d = dilate_translate(small_seed, alpha, b)
    payloads = payloads_for(ctx, d, f)
    assert recover_symbol(d, payloads) == ctx.poly_eval(f, alpha)
    assert sum(len(p.symbols) for p in payloads) == small_seed.bandwidth


def test_recover_constant_and_zero(gf16, naive16):
    d = dilate_translate(naive16, gf16.exp(5), 1)
    assert recover_symbol(d, payloads_for(gf16, d, [9])) == 9
    assert recover_symbol(d, payloads_for(gf16, d, [0])) == 0


def test_recover_symbol_end_to_end(gf16, naive16):
    rng = random.Random(31)
    alpha = gf16.exp(5)
    for j in range(15):
        d = dilate_translate(naive16, alpha, gf16.exp(j))
        for _ in range(20):
            f = [rng.randrange(16) for _ in range(2)]
            got = recover_symbol(d, payloads_for(gf16, d, f))
            assert got == gf16.poly_eval(f, alpha)


def test_recover_searched_scheme(gf16, golden_seed):
    best = search_seed_scheme(gf16, golden_seed, 2)
    rng = random.Random(37)
    for alpha in (0, gf16.exp(5), gf16.exp(11)):
        d = dilate_translate(best, alpha, gf16.exp(7))
        for _ in range(25):
            f = [rng.randrange(16) for _ in range(2)]
            assert recover_symbol(d, payloads_for(gf16, d, f)) == gf16.poly_eval(
                f, alpha
            )


def test_recover_payload_errors(gf16, naive16):
    d = dilate_translate(naive16, gf16.exp(5), 1)
    pls = payloads_for(gf16, d, [3, 1])
    with pytest.raises(MissingPayloadError):
        recover_symbol(d, pls[:-1])
    with pytest.raises(ValueError):
        recover_symbol(d, pls + [pls[0]])


def test_recover_rank_deficient(gf16, golden_seed):
    # u_4 vanishes at the repaired point, so no scheme (and no recovery)
    # can be built from u
    u = [(1,), (gf16.exp(1),), (gf16.exp(2),), (0, 1)]
    with pytest.raises(RankDeficientError, match="full-rank"):
        SeedScheme(gf16, golden_seed, 2, u)


def test_recover_rejects_wrong_symbol_count(gf16, naive16):
    d = dilate_translate(naive16, gf16.exp(5), 1)
    pls = payloads_for(gf16, d, [3, 1])
    first = pls[0]
    for symbols in (first.symbols[:-1], first.symbols + (0,), ()):
        forged = [HelperPayload(first.beta, symbols)] + pls[1:]
        with pytest.raises(ValueError, match="symbols"):
            recover_symbol(d, forged)


def test_search_improves_or_matches_baseline(gf16, golden_seed):
    best = search_seed_scheme(gf16, golden_seed, 2)
    assert verify_full_rank(best)
    assert best.bandwidth <= 12
    # a structured family of full-rank candidates, u_i = z^i +
    # [bit i of mask] z^(i+t) x, reaches 8 on the golden seed; the closed
    # form's 9 (pinned below) is one symbol more
    structured_best = 12
    for t in range(1, 15):
        for mask in range(16):
            u = tuple(
                (gf16.exp(i), gf16.exp(i + t) if (mask >> i) & 1 else 0)
                for i in range(4)
            )
            cand = SeedScheme(gf16, golden_seed, 2, u)
            structured_best = min(structured_best, cand.bandwidth)
    assert structured_best == 8


def test_search_is_deterministic(gf16, golden_seed):
    a = search_seed_scheme(gf16, golden_seed, 2)
    b = search_seed_scheme(gf16, golden_seed, 2)
    assert a.u == b.u and a.bandwidth == b.bandwidth


def closed_form_r(S, k):
    """Largest r with q^r <= |S| - k."""
    r = 0
    while S.q ** (r + 1) <= len(S.members) - k:
        r += 1
    return r


# (p, s, ell): q = 2, 3, 4 (the F_4 subfield of GF(64)) and 5
CLOSED_FORM_FIELDS = [(2, 1, 4), (2, 1, 5), (3, 1, 3), (2, 2, 3), (5, 1, 2)]


@pytest.mark.parametrize(
    "p, s, ell", CLOSED_FORM_FIELDS, ids=[f"q{p**s}-ell{ell}" for p, s, ell in CLOSED_FORM_FIELDS]
)
def test_closed_form_bandwidth_is_exact(p, s, ell):
    # every delta, two seeds per delta and every k the seed admits: each
    # helper has rank ell - r, so the bandwidth is (|S| - 1)(ell - r)
    ctx = field_new(p, s, ell)
    q = ctx.q
    cases = 0
    for delta in range(1, ell + 1):
        firsts = [span(ctx, q, [ctx.exp(i) for i in range(delta)])]
        firsts.append(span(ctx, q, [ctx.exp(3 * i + 1) for i in range(delta)]))
        for S in firsts:
            if S.dim != delta:
                continue
            for k in range(1, q**delta):
                scheme = search_seed_scheme(ctx, S, k)
                r = closed_form_r(S, k)
                assert r < delta
                assert verify_full_rank(scheme)
                assert all(
                    ctx.rank_over(scheme.mq, scheme.evals_at(x)) == ell - r
                    for x in scheme.helpers
                )
                assert scheme.bandwidth == bandwidth(scheme) == (q**delta - 1) * (ell - r)
                assert scheme.bandwidth <= naive_seed_scheme(ctx, S, k).bandwidth
                cases += 1
    assert cases >= ell


def test_closed_form_r_zero_is_naive(gf16, golden_seed):
    # |S| - k = 1 leaves r = 0: the constants u_i = z^i
    assert search_seed_scheme(gf16, golden_seed, 3).u == naive_seed_scheme(gf16, golden_seed, 3).u


@pytest.mark.parametrize(
    "p, ell, delta, k, expected",
    [
        (2, 6, 3, 2, 28),  # GF(64), |S| = 8
        (2, 8, 4, 4, 75),  # GF(256), |S| = 16
        (3, 2, 2, 2, 8),  # GF(9), |S| = 9
        (2, 4, 2, 2, 9),  # GF(16), |S| = 4
        (2, 6, 3, 5, 35),  # GF(64), |S| = 8
    ],
)
def test_closed_form_bandwidth_values(p, ell, delta, k, expected):
    ctx = field_new(p, 1, ell)
    S = span(ctx, p, [ctx.exp(i) for i in range(delta)])
    assert search_seed_scheme(ctx, S, k).bandwidth == expected


def test_recover_rejects_symbols_outside_subfield(gf16, naive16):
    alpha = gf16.exp(5)
    d = dilate_translate(naive16, alpha, 1)
    pls = payloads_for(gf16, d, [3, 1])
    assert recover_symbol(d, pls) == gf16.poly_eval([3, 1], alpha)
    first = pls[0]
    for bad in (5, 999):
        forged = [HelperPayload(first.beta, (bad,) + first.symbols[1:])] + pls[1:]
        with pytest.raises(ValueError, match=f"helper {first.beta} .*outside F_2"):
            recover_symbol(d, forged)


def test_gf9_schemes_work_too(gf9):
    S = span(gf9, 3, [gf9.exp(1)])
    scheme = naive_seed_scheme(gf9, S, 2)
    assert verify_full_rank(scheme)
    rng = random.Random(41)
    alpha = gf9.exp(3)
    d = dilate_translate(scheme, alpha, gf9.exp(5))
    for _ in range(25):
        f = [rng.randrange(9) for _ in range(2)]
        assert recover_symbol(d, payloads_for(gf9, d, f)) == gf9.poly_eval(f, alpha)
