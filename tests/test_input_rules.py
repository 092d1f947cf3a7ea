"""Each input rule has one owner, and every entry point reports its one text.

FieldCtx._check owns the field-element rule, subspaces._check_delta the
rule on q, ell and delta, and repair._check_k the rule on k.  One case per entry
point and bad value asserts the owner's whole message.
"""

import numpy as np
import pytest

from compactrepair import (
    FieldCtx,
    SeedScheme,
    bounds,
    coset_family,
    design_multi_seed,
    design_single_seed,
    dilate_translate,
    enumerate_subspaces,
    field_new,
    gaussian_coefficient,
    helper_payload,
    orbit_count_formula,
    orbit_decomposition,
    search_seed_scheme,
    simulate_failures,
    span,
)
from compactrepair import repair

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
def test_fractional_k_rejected_before_any_table(k):
    # search_seed_scheme(S, 1.5) returned a scheme with k = 1.5, and a design
    # with k = 1.5 wrote a bundle that load_bundle refused
    ctx = FieldCtx(2, 1, ELL)  # uncached, so no other test has filled its tables
    S = span(ctx, 2, [4, 11])
    for build in (lambda: search_seed_scheme(S, k), lambda: SeedScheme(S, k, _u_with(1))):
        with pytest.raises(ValueError) as err:
            build()
        assert str(err.value) == f"need an integer k, got k = {k}"
    assert not repair._TABLES.get(ctx)
    cached = _gf16()
    before = set(repair._TABLES.get(cached, {}))
    with pytest.raises(ValueError) as err:
        design_single_seed(2, 1, ELL, k, seed_basis=[4, 11])
    assert str(err.value) == f"need an integer k, got k = {k}"
    assert set(repair._TABLES.get(cached, {})) == before


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
