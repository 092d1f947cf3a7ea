import gc
import random
import re
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from compactrepair import (
    FieldCtx,
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
from compactrepair import repair
from compactrepair.errors import (
    DimensionTooSmallError,
    MissingPayloadError,
    NotAHelperError,
    RankDeficientError,
    ZeroDilationError,
)
from oracles import (
    bandwidth,
    basis_coordinates,
    check_polynomial_validity,
    naive_seed_scheme,
    payload_from_scratch,
    translated_sets,
    weights_from_scratch,
)


@pytest.fixture
def golden_seed(gf16):
    return span(gf16, 2, [gf16.exp(2), gf16.exp(7)])


@pytest.fixture
def naive16(gf16, golden_seed):
    return naive_seed_scheme(golden_seed, 2)


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
    scheme = naive_seed_scheme(S, 1)
    assert verify_full_rank(scheme)
    assert scheme.bandwidth == 15 * 4


def test_dimension_too_small(gf16, golden_seed):
    with pytest.raises(DimensionTooSmallError):
        naive_seed_scheme(golden_seed, 4)  # |S| = 4 needs k < 4
    # boundary: |S| = k + 1 leaves only constant u_i, still valid
    scheme = naive_seed_scheme(golden_seed, 3)
    assert verify_full_rank(scheme)


@pytest.mark.parametrize("k, u_len", [(0, 4), (-1, 4), (-100, 64)])
def test_k_below_1_rejected_before_any_table(k, u_len):
    # search_seed_scheme(S, -100) once built the table for r = 6 > ell = 4 and
    # returned a "full-rank" scheme of bandwidth 0 that recovered 0 for f(a*) = 7
    ctx = FieldCtx(2, 1, 4)  # uncached, so no other test has filled its tables
    S = span(ctx, 2, [4, 11])
    u = [[1] + [0] * (u_len - 1)] * 4
    for build in (lambda: search_seed_scheme(S, k), lambda: SeedScheme(S, k, u)):
        with pytest.raises(ValueError) as err:
            build()
        assert str(err.value) == f"need 1 <= k < n = 16, got k = {k}"
    assert not repair._TABLES.get(ctx)


@pytest.mark.parametrize("k", [4, 16, 100])
def test_k_at_least_seed_size_rejected_before_any_table(k):
    # search_seed_scheme once built the r = 0 table before SeedScheme refused k
    ctx = FieldCtx(2, 1, 4)
    with pytest.raises(DimensionTooSmallError, match=f"^[|]S[|] = 4 must exceed k = {k} "):
        search_seed_scheme(span(ctx, 2, [4, 11]), k)
    assert not repair._TABLES.get(ctx)


NOT_FULL_RANK = "^the check evaluations at 0 are not full-rank$"


def test_duplicate_u_rows_fail_rank(gf16, golden_seed):
    # the shape of the r = 0 closed form, not its value: the per-helper path
    u = [(1,), (1,), (gf16.exp(1),), (gf16.exp(2),)]
    with pytest.raises(RankDeficientError, match=NOT_FULL_RANK):
        SeedScheme(golden_seed, 2, u)


def test_all_zero_u_fails_rank(golden_seed):
    with pytest.raises(RankDeficientError, match=NOT_FULL_RANK):
        SeedScheme(golden_seed, 2, [(0,)] * 4)


def test_u_degree_bound_enforced(gf16, golden_seed):
    with pytest.raises(ValueError):
        SeedScheme(golden_seed, 2, [(0, 0, 1)] + [(1,)] * 3)


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


@pytest.mark.parametrize(
    "alpha_star,b",
    [(-1, 3), (16, 3), (5, -1), (5, 20)],
    ids=["alpha_star=-1", "alpha_star=16", "b=-1", "b=20"],
)
def test_dilation_outside_field_rejected(naive16, alpha_star, b):
    # unchecked, b = 20 would dilate to helpers 18, 19 and 21, and b = -1 act as 15
    with pytest.raises(ValueError, match="field elements"):
        dilate_translate(naive16, alpha_star, b)


@pytest.mark.parametrize(
    "beta,f_beta",
    [(None, -1), (None, 16), (-1, 3), (16, 3)],
    ids=["f_beta=-1", "f_beta=16", "beta=-1", "beta=16"],
)
def test_helper_payload_outside_field_rejected(gf16, naive16, beta, f_beta):
    # unchecked, f_beta = -1 would be read as 15 and f_beta = 16 would index
    # past the tables; beta None stands for a helper of the scheme
    d = dilate_translate(naive16, gf16.exp(5), gf16.exp(3))
    beta = d.helpers[0] if beta is None else beta
    with pytest.raises(ValueError, match="field elements"):
        helper_payload(d, beta, f_beta)


def test_recover_names_payloads_outside_field(gf16, naive16):
    d = dilate_translate(naive16, gf16.exp(5), 1)
    pls = payloads_for(gf16, d, [3, 1])
    forged = [HelperPayload(-1, pls[0].symbols)] + pls[1:]
    with pytest.raises(
        MissingPayloadError, match=rf"missing \[{pls[0].beta}\], extra \[-1\]"
    ):
        recover_symbol(d, forged)


@pytest.mark.parametrize("bad", [2.5, "7"])
def test_recover_sorts_non_elements_among_extra_payloads(gf16, naive16, bad):
    # a beta of 2.5 passed the range guard, and its seed point raised a bare TypeError
    d = dilate_translate(naive16, gf16.exp(5), gf16.exp(3))
    pls = payloads_for(gf16, d, [3, 1])
    forged = [HelperPayload(bad, pls[0].symbols)] + pls[1:]
    with pytest.raises(
        MissingPayloadError, match=rf"missing \[{pls[0].beta}\], extra \[{re.escape(repr(bad))}\]"
    ):
        recover_symbol(d, forged)


def test_scheme_field_is_its_seed_field():
    # 4 and 11 span the same set of ints under either modulus, but the
    # products differ; a scheme that took its field apart from its seed
    # could mix the two fields and recover a wrong symbol.
    for modulus in (None, [1, 0, 0, 1, 1]):
        ctx = field_new(2, 1, 4, modulus)
        scheme = search_seed_scheme(span(ctx, 2, [4, 11]), 2)
        assert scheme.ctx is ctx
        d = dilate_translate(scheme, 6, 1)
        f = [3, 7]
        payloads = [helper_payload(d, beta, ctx.poly_eval(f, beta)) for beta in d.helpers]
        assert recover_symbol(d, payloads) == ctx.poly_eval(f, 6)


def test_dilations_reproduce_golden_groups(gf16, naive16, golden_seed):
    alpha = gf16.exp(5)
    fam = coset_family([golden_seed])
    helper_sets = {
        frozenset(dilate_translate(naive16, alpha, gf16.exp(j)).helpers)
        for j in range(15)
    }
    assert helper_sets == set(translated_sets(fam, alpha))
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


def test_payload_reassembles_traces(gf16, naive16):
    # oracle: payload symbols and the coordinates of the evaluations in the
    # seed's basis (checked to span them) reproduce Tr(h_i(beta) * f(beta))
    # for random messages
    rng = random.Random(23)
    d = dilate_translate(naive16, gf16.exp(9), gf16.exp(4))
    for _ in range(20):
        f = [rng.randrange(16) for _ in range(2)]
        for beta in d.helpers:
            fb = gf16.poly_eval(f, beta)
            p = helper_payload(d, beta, fb)
            evals = d.evals_at(beta)
            basis, _ = naive16.helper_data[d.seed_point(beta)]
            combination = basis_coordinates(d, beta, basis)
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
    return search_seed_scheme(S, k)


def check_payloads_match_oracle(seed, pairs, rng):
    ctx = seed.ctx
    for alpha, b in pairs:
        d = dilate_translate(seed, alpha, b)
        f = [rng.randrange(ctx.order) for _ in range(seed.k)]
        payloads = payloads_for(ctx, d, f)
        for p in payloads:
            basis, weights = seed.helper_data[d.seed_point(p.beta)]
            assert p == payload_from_scratch(d, p.beta, ctx.poly_eval(f, p.beta), basis)
            assert weights == weights_from_scratch(d, p.beta, basis)
        assert sum(len(p.symbols) for p in payloads) == bandwidth(d) == seed.bandwidth
        assert recover_symbol(d, payloads) == ctx.poly_eval(f, alpha)


@pytest.mark.parametrize("searched", [False, True], ids=["naive", "searched"])
def test_seed_payloads_match_oracle_every_dilation(gf16, golden_seed, searched):
    # payloads read per-helper data the seed holds once; every (a*, b) must
    # give a basis of the span at the helper, the traces against it and the
    # weights a from-scratch row reduction gives for it
    if searched:
        seed = search_seed_scheme(golden_seed, 2)
    else:
        seed = naive_seed_scheme(golden_seed, 2)
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
    best = search_seed_scheme(golden_seed, 2)
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
    with pytest.raises(RankDeficientError, match=NOT_FULL_RANK):
        SeedScheme(golden_seed, 2, u)


def test_recover_rejects_wrong_symbol_count(gf16, naive16):
    d = dilate_translate(naive16, gf16.exp(5), 1)
    pls = payloads_for(gf16, d, [3, 1])
    first = pls[0]
    for symbols in (first.symbols[:-1], first.symbols + (0,), ()):
        forged = [HelperPayload(first.beta, symbols)] + pls[1:]
        with pytest.raises(ValueError, match="symbols"):
            recover_symbol(d, forged)


def test_search_improves_or_matches_baseline(gf16, golden_seed):
    best = search_seed_scheme(golden_seed, 2)
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
            cand = SeedScheme(golden_seed, 2, u)
            structured_best = min(structured_best, cand.bandwidth)
    assert structured_best == 8


def test_search_is_deterministic(gf16, golden_seed):
    a = search_seed_scheme(golden_seed, 2)
    b = search_seed_scheme(golden_seed, 2)
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
                scheme = search_seed_scheme(S, k)
                r = closed_form_r(S, k)
                assert r < delta
                assert verify_full_rank(scheme)
                assert all(
                    ctx.rank_over(ctx.s, scheme.evals_at(x)) == ell - r
                    for x in scheme.helpers
                )
                assert scheme.bandwidth == bandwidth(scheme) == (q**delta - 1) * (ell - r)
                assert scheme.bandwidth <= naive_seed_scheme(S, k).bandwidth
                cases += 1
    assert cases >= ell


def contribution(ctx, data, f_x):
    """A helper's share of the repaired symbol: sum_j Tr(basis_j f(x)) w_j."""
    basis, weights = data
    acc = 0
    for xi, w in zip(basis, weights, strict=True):
        acc = ctx.add(acc, ctx.mul(ctx.trace_to_subfield(ctx.mul(xi, f_x), ctx.s), w))
    return acc


def check_same_helper_data(ctx, scheme, padded, r):
    """Per helper, the closed form and the per-helper path agree as repair maps.

    Their bases span one space of dimension ell - r (the padded basis is
    the echelon basis of the closed form's), and the helper's share of
    f(0) is the same for each f(x) of the power basis, hence for every
    f(x), the share being F_q-linear in f(x).
    """
    for x in scheme.helpers:
        data, echelon = scheme.helper_data[x], padded.helper_data[x]
        assert len(data[0]) == len(echelon[0]) == ctx.ell - r
        assert ctx.echelon(data[0], ctx.s)[0] == echelon[0]
        for t in range(ctx.ell):
            assert contribution(ctx, data, ctx.exp(t)) == contribution(ctx, echelon, ctx.exp(t))


# (p, s, ell): q = 2, q = 4 (GF(4^3)) and odd p (GF(3^4), GF(5^3))
TABLE_FIELDS = [(2, 1, 6), (2, 2, 3), (3, 1, 4), (5, 1, 3)]


@pytest.mark.parametrize(
    "p, s, ell", TABLE_FIELDS, ids=[f"q{p**s}-ell{ell}" for p, s, ell in TABLE_FIELDS]
)
def test_closed_form_table_matches_per_helper_path(p, s, ell):
    # every delta and k, two seeds each: the closed form derives its helper
    # data on first access from the one _ClosedForm of its r.  The same u
    # with a zero appended is no closed form, so it takes the per-helper
    # path when built, which must give the same helper data up to the
    # choice of basis, and the same bandwidth.
    ctx = field_new(p, s, ell)
    q = ctx.q
    cases_per_r = {}
    for delta in range(1, ell + 1):
        for shift in (0, 1):
            S = span(ctx, q, [ctx.exp(i + shift) for i in range(delta)])
            for k in range(1, q**delta):
                scheme = search_seed_scheme(S, k)
                r = closed_form_r(S, k)
                assert scheme._form is repair._closed_form(ctx, r)
                assert scheme._data is None
                padded = SeedScheme(S, k, [ui + (0,) for ui in scheme.u])
                assert padded._form is None and padded._data is not None
                check_same_helper_data(ctx, scheme, padded, r)
                assert padded.bandwidth == scheme.bandwidth == (q**delta - 1) * (ell - r)
                cases_per_r[r] = cases_per_r.get(r, 0) + 1
    assert sorted(cases_per_r) == list(range(ell))
    assert all(n >= 2 for n in cases_per_r.values())


# (p, s, ell, delta, k): q = 2, q = 4 (GF(4^4)) and odd p (GF(3^5), GF(5^3))
EQUIVALENCE_CASES = [
    (2, 1, 8, 4, 2), (2, 1, 8, 4, 6), (2, 1, 10, 5, 2),
    (2, 2, 4, 2, 2), (3, 1, 5, 2, 2), (5, 1, 3, 2, 2),
]


@pytest.mark.parametrize(
    "p, s, ell, delta, k",
    EQUIVALENCE_CASES,
    ids=[f"q{p**s}-ell{ell}-d{delta}-k{k}" for p, s, ell, delta, k in EQUIVALENCE_CASES],
)
def test_closed_form_recovers_like_per_helper_path(p, s, ell, delta, k):
    # the closed form's (beta_j / y, y * Lambda_j) against the per-helper
    # echelon path of the same u padded with a zero: per helper the same
    # span of rank ell - r, the same bandwidth, and for random dilations
    # and messages the same recovered f(a*)
    ctx = field_new(p, s, ell)
    rng = random.Random(53 + ell)
    for shift in (0, 3):
        S = span(ctx, ctx.q, [ctx.exp(i + shift) for i in range(delta)])
        scheme = search_seed_scheme(S, k)
        r = closed_form_r(S, k)
        padded = SeedScheme(S, k, [ui + (0,) for ui in scheme.u])
        check_same_helper_data(ctx, scheme, padded, r)
        assert scheme.bandwidth == padded.bandwidth == bandwidth(scheme) == len(S.star()) * (ell - r)
        for _ in range(4):
            alpha, b = rng.randrange(ctx.order), rng.randrange(1, ctx.order)
            f = [rng.randrange(ctx.order) for _ in range(k)]
            expected = ctx.poly_eval(f, alpha)
            for seed in (scheme, padded):
                d = dilate_translate(seed, alpha, b)
                assert recover_symbol(d, payloads_for(ctx, d, f)) == expected


def test_closed_form_on_a_large_seed_recovers():
    # GF(2^20), delta = 13: the 8191 helpers' discrete logs sum past 2^31,
    # beyond the int32 range of the field's log tables; c's log must stay
    # in [0, order - 1) for the helpers' logs y to fit that range
    ctx = field_new(2, 1, 20)
    S = span(ctx, 2, [ctx.exp(j) for j in range(13)])
    assert sum(ctx.log(x) for x in S.star()) >= 2**31
    scheme = search_seed_scheme(S, 2)
    assert 0 <= scheme._log_c < ctx.order - 1
    rng = random.Random(61)
    alpha, b = rng.randrange(ctx.order), rng.randrange(1, ctx.order)
    f = [rng.randrange(ctx.order) for _ in range(2)]
    d = dilate_translate(scheme, alpha, b)
    assert recover_symbol(d, payloads_for(ctx, d, f)) == ctx.poly_eval(f, alpha)


def test_closed_form_tables_go_with_their_context():
    ctx = FieldCtx(2, 1, 4)  # uncached, so this test holds the only reference
    search_seed_scheme(span(ctx, 2, [ctx.exp(2), ctx.exp(7)]), 2)
    assert set(repair._TABLES[ctx]) == {1}
    ref = weakref.ref(ctx)
    del ctx
    gc.collect()
    assert ref() is None


def test_closed_form_r_zero_is_naive(gf16, golden_seed):
    # |S| - k = 1 leaves r = 0: the constants u_i = z^i
    assert search_seed_scheme(golden_seed, 3).u == naive_seed_scheme(golden_seed, 3).u


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
    assert search_seed_scheme(S, k).bandwidth == expected


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
    scheme = naive_seed_scheme(S, 2)
    assert verify_full_rank(scheme)
    rng = random.Random(41)
    alpha = gf9.exp(3)
    d = dilate_translate(scheme, alpha, gf9.exp(5))
    for _ in range(25):
        f = [rng.randrange(9) for _ in range(2)]
        assert recover_symbol(d, payloads_for(gf9, d, f)) == gf9.poly_eval(f, alpha)
