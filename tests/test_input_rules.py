"""Each input rule has one owner, and every entry point reports its one text.

gf.is_integer owns the rule on integers, which every rule below asks;
FieldCtx._check owns the field-element rule, subspaces._check_delta the
rule on q, ell and delta, and repair._check_k the rule on k.  One case
per entry point and bad value asserts the owner's whole message.
"""

import numpy as np
import pytest

from compactrepair import (
    FieldCtx,
    SeedScheme,
    bandwidth_comparison,
    base_counts,
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
    mobius,
    orbit_count_formula,
    orbit_decomposition,
    search_seed_scheme,
    simulate_failures,
    span,
)

ELL = 4  # GF(16) over F_2, the seed [4, 11] = {0, z^4, z^11, z^15}


def _gf16():
    return field_new(2, 1, ELL)


def _seed():
    return search_seed_scheme(span(_gf16(), 2, [4, 11]), 2)


def _u_with(x):
    return [[x]] + [[1]] * (ELL - 1)


def _bundle():
    return design_single_seed(2, 1, ELL, 2, seed_basis=[4, 11])


# entry point -> (name the message gives, call with the bad value x)
ELEMENT_CALLS = {
    "span": ("element", lambda x: span(_gf16(), 2, [4, x])),
    "SeedScheme-u": (
        "u coefficient", lambda x: SeedScheme(span(_gf16(), 2, [4, 11]), 2, _u_with(x))
    ),
    "dilate_translate-alpha_star": ("alpha_star", lambda x: dilate_translate(_seed(), x, 3)),
    "dilate_translate-b": ("b", lambda x: dilate_translate(_seed(), 5, x)),
    "helper_payload-beta": (
        "beta", lambda x: helper_payload(dilate_translate(_seed(), 5, 3), x, 7)
    ),
    "helper_payload-f_beta": (
        "f_beta",
        lambda x: helper_payload(
            (d := dilate_translate(_seed(), 5, 3)), d.helpers[0], x
        ),
    ),
    "simulate_failures": ("alpha_star", lambda x: simulate_failures(_bundle(), x, 2)),
    "first_miss": (
        "witness element",
        lambda x: coset_family([span(_gf16(), 2, [4, 11])]).first_miss([1, 2, 4, 8, 3, x]),
    ),
    "echelon": ("element", lambda x: _gf16().echelon([1, x], 1)),
}


@pytest.mark.parametrize("x", [-1, 16, 2.5])
@pytest.mark.parametrize("call", list(ELEMENT_CALLS))
def test_field_element_rule_has_one_text(call, x):
    name, build = ELEMENT_CALLS[call]
    with pytest.raises(ValueError) as err:
        build(x)
    assert str(err.value) == (
        f"{name} {x!r} is not a field element: field elements are ints in [0, 16)"
    )


# entry point -> call with the bad delta
DELTA_CALLS = {
    "bounds": lambda d: bounds(2, ELL, d),
    "orbit_count_formula": lambda d: orbit_count_formula(2, ELL, d),
    "orbit_decomposition": lambda d: orbit_decomposition(_gf16(), d),
    "design_single_seed": lambda d: design_single_seed(2, 1, ELL, 1, delta=d),
    "design_multi_seed": lambda d: design_multi_seed(2, 1, ELL, 1, d),
}


@pytest.mark.parametrize("delta", [0, ELL + 1, 1.5])
@pytest.mark.parametrize("call", list(DELTA_CALLS))
def test_delta_rule_has_one_text(call, delta):
    # bounds(2, 4, 1.5) returned [9.0, 10.0]; the others failed later, with other texts
    with pytest.raises(ValueError) as err:
        DELTA_CALLS[call](delta)
    assert str(err.value) == f"need 1 <= delta <= ell = {ELL}, got delta = {delta}"


def test_enumeration_admits_delta_0_only():
    assert len(list(enumerate_subspaces(_gf16(), 2, 0))) == 1
    with pytest.raises(ValueError) as err:
        enumerate_subspaces(_gf16(), 2, ELL + 1)
    assert str(err.value) == f"need 0 <= delta <= ell = {ELL}, got delta = {ELL + 1}"


Q_CALLS = {
    "bounds": lambda q: bounds(q, ELL, 2),
    "orbit_count_formula": lambda q: orbit_count_formula(q, ELL, 2),
    "gaussian_coefficient": lambda q: gaussian_coefficient(ELL, 2, q),
}


@pytest.mark.parametrize("q", [0, 1, 2.5])
@pytest.mark.parametrize("call", list(Q_CALLS))
def test_q_rule_has_one_text(call, q):
    # bounds(1, 4, 2) divided by zero, and bounds(0, 4, 2) returned [1, 1]
    with pytest.raises(ValueError) as err:
        Q_CALLS[call](q)
    assert str(err.value) == f"need an integer q >= 2, got q = {q}"


ELL_CALLS = {
    "bounds": lambda ell: bounds(2, ell, 2),
    "orbit_count_formula": lambda ell: orbit_count_formula(2, ell, 2),
    "gaussian_coefficient": lambda ell: gaussian_coefficient(ell, 2, 2),
}


@pytest.mark.parametrize("ell", [4.5, 4.0])
@pytest.mark.parametrize("call", list(ELL_CALLS))
def test_ell_rule_has_one_text(call, ell):
    # bounds(2, 4.5, 2) returned lower=8.0, orbit_count_formula raised a bare
    # TypeError and gaussian_coefficient an InvariantError
    with pytest.raises(ValueError) as err:
        ELL_CALLS[call](ell)
    assert str(err.value) == f"need an integer ell, got ell = {ell}"


@pytest.mark.parametrize("e", [2.5, 2.0])
def test_fractional_e_rejected(e):
    # simulate_failures(bundle, 6, 2.5) raised a bare TypeError
    with pytest.raises(ValueError) as err:
        simulate_failures(_bundle(), 6, e)
    assert str(err.value) == f"need an integer 0 <= e < n = 16, got e = {e}"


@pytest.mark.parametrize("k", [1.5, 2.0])
def test_fractional_k_rejected_before_any_table(k, closed_forms):
    # search_seed_scheme(S, 1.5) returned a scheme with k = 1.5, and a design
    # with k = 1.5 wrote a bundle that load_bundle refused
    ctx = FieldCtx(2, 1, ELL)  # uncached, so no other test has filled its tables
    S = span(ctx, 2, [4, 11])
    for build in (lambda: search_seed_scheme(S, k), lambda: SeedScheme(S, k, _u_with(1))):
        with pytest.raises(ValueError) as err:
            build()
        assert str(err.value) == f"need an integer k, got k = {k}"
    assert not closed_forms(ctx)
    cached = _gf16()
    before = closed_forms(cached)
    with pytest.raises(ValueError) as err:
        design_single_seed(2, 1, ELL, k, seed_basis=[4, 11])
    assert str(err.value) == f"need an integer k, got k = {k}"
    assert closed_forms(cached) == before


class InstanceIndex:
    """Carries __index__ on the instance only, which Python does not look up."""

    def __init__(self):
        self.__index__ = lambda: 2

    def __repr__(self):
        return "InstanceIndex()"


# entry point -> (call with the bad value x, the message it must give)
INTEGER_CALLS = {
    "q": (lambda x: bounds(x, ELL, 2), "need an integer q >= 2, got q = {}"),
    "ell": (lambda x: bounds(2, x, 2), "need an integer ell, got ell = {}"),
    "delta": (lambda x: bounds(2, ELL, x), f"need 1 <= delta <= ell = {ELL}, got delta = {{}}"),
    "e": (
        lambda x: simulate_failures(_bundle(), 6, x),
        "need an integer 0 <= e < n = 16, got e = {}",
    ),
    "element": (
        lambda x: helper_payload(dilate_translate(_seed(), 5, 3), x, 7),
        "beta {} is not a field element: field elements are ints in [0, 16)",
    ),
    "k": (
        lambda x: search_seed_scheme(span(_gf16(), 2, [4, 11]), x),
        "need an integer k, got k = {}",
    ),
    "trials": (
        lambda x: simulate_failures(_bundle(), 6, 5, mode="monte-carlo", trials=x, rng_seed=1),
        "monte-carlo mode needs an integer trials >= 1, got {}",
    ),
    "rng_seed": (
        lambda x: simulate_failures(_bundle(), 6, 2, rng_seed=x),
        "need an integer rng_seed, got rng_seed = {}",
    ),
    "bandwidth-n": (lambda x: bandwidth_comparison(x, 2, ELL, 3), "need an integer n, got n = {}"),
    "bandwidth-k": (lambda x: bandwidth_comparison(16, x, ELL, 3), "need an integer k, got k = {}"),
    "bandwidth-ell": (
        lambda x: bandwidth_comparison(16, 2, x, 3), "need an integer ell, got ell = {}"
    ),
    "bandwidth-e": (lambda x: bandwidth_comparison(16, 2, ELL, x), "need an integer e, got e = {}"),
    "scheme-bandwidth": (
        lambda x: bandwidth_comparison(16, 2, ELL, 3, scheme_bandwidths=[12, x, 9]),
        "scheme bandwidths must be non-negative integers, got [12, {}, 9]",
    ),
    # mobius(2.0) returned -1, and count_with_base and base_counts raised a bare TypeError
    "mobius": (lambda x: mobius(x), "mobius needs an integer v >= 1, got v = {}"),
    "count_with_base-m": (lambda x: count_with_base(2, ELL, 2, x), "need an integer m, got m = {}"),
    "count_with_base-ell": (
        lambda x: count_with_base(2, x, 2, 1), "need an integer ell, got ell = {}"
    ),
    "base_counts-ell": (lambda x: base_counts(2, x, 2), "need an integer ell, got ell = {}"),
    "FieldCtx-p": (lambda x: FieldCtx(x, 1, ELL), "need an integer p, got p = {}"),
    "field_new-s": (lambda x: field_new(2, x, ELL), "need an integer s, got s = {}"),
}


@pytest.mark.parametrize("call", list(INTEGER_CALLS))
def test_integer_rule_reads_index_on_the_type(call):
    # bounds(InstanceIndex(), 4, 2) raised a bare TypeError from q >= 2: the
    # q, ell, delta and e rules looked __index__ up on the instance
    build, message = INTEGER_CALLS[call]
    x = InstanceIndex()
    with pytest.raises(ValueError) as err:
        build(x)
    assert str(err.value) == message.format(x)


@pytest.mark.parametrize("x", [2.5, 2.0])
@pytest.mark.parametrize("call", list(INTEGER_CALLS))
def test_integer_rule_refuses_fractional_values(call, x):
    # simulate_failures(..., trials=2.5) raised a bare TypeError, rng_seed=1.5
    # was written into the SimReport, and bandwidth_comparison(16, 2.5, 4, 3)
    # gave a centralized_total of 18.0
    build, message = INTEGER_CALLS[call]
    with pytest.raises(ValueError) as err:
        build(x)
    assert str(err.value) == message.format(x)


def test_numpy_integer_k_is_stored_as_an_int():
    # a numpy k passed the rule but was stored as is, so dumps() raised TypeError
    bundle = design_single_seed(2, 1, ELL, np.int64(2), seed_basis=[4, 11])
    assert type(bundle.k) is int
    assert bundle.dumps() == _bundle().dumps()


def test_trivial_seed_basis_meets_the_delta_rule():
    # a seed basis spanning {0} had a text of its own; it is a seed with delta = 0
    with pytest.raises(ValueError) as err:
        design_single_seed(2, 1, ELL, 2, seed_basis=[0])
    assert str(err.value) == f"need 1 <= delta <= ell = {ELL}, got delta = 0"


@pytest.mark.parametrize(
    "build, modulus",
    [
        (field_new, [1, 1, 0, 0, 1.9]),
        (FieldCtx, [1.7, 1, 0, 0, 1]),
        (field_new, "11001"),
        (FieldCtx, "11001"),
    ],
    ids=["field_new-float", "FieldCtx-float", "field_new-digits", "FieldCtx-digits"],
)
def test_modulus_coefficients_meet_the_integer_rule(build, modulus):
    # each of these built GF(16) on x^4 + x + 1: int() truncated 1.9 and 1.7,
    # and read the string as digits
    _gf16()  # a cached GF(16), which 1.9 would find as 1 before any check
    with pytest.raises(ValueError) as err:
        build(2, 1, ELL, modulus)
    assert str(err.value) == f"modulus coefficients must be integers, got {modulus!r}"
