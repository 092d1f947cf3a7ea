import copy
import hashlib
import json

import pytest

from compactrepair import (
    DesignBundle, HittingResult, OrbitReport, design_multi_seed, design_single_seed, field_new,
    load_bundle, span,
)
from compactrepair import gf


@pytest.fixture(scope="session")
def gf16():
    return field_new(2, 1, 4)


@pytest.fixture(scope="session")
def gf64():
    return field_new(2, 1, 6)


@pytest.fixture(scope="session")
def gf9():
    return field_new(3, 1, 2)


@pytest.fixture(scope="session")
def gf25():
    return field_new(5, 1, 2)


@pytest.fixture(scope="session")
def gf16_q4():
    """GF(16) viewed over the designated subfield F_4 (q = p^s = 4)."""
    return field_new(2, 2, 2)


@pytest.fixture
def closed_forms():
    """The r of every closed form a context keeps: its ("closed-form", r) entries."""
    return lambda ctx: {key[1] for key in ctx._derived if key[0] == "closed-form"}


@pytest.fixture
def fresh_fields():
    """field_new's cache, emptied before and after the test, so its calls build anew."""
    gf._FIELDS.clear()
    yield gf._FIELDS
    gf._FIELDS.clear()


def _rehash(blob):
    """Recompute provenance.config_hash the way the bundle writer does."""
    body = {key: value for key, value in blob.items() if key != "provenance"}
    blob["provenance"]["config_hash"] = hashlib.sha256(
        json.dumps(body, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()
    return blob


def _set_u_to_zero(blob):
    for entry in blob["seeds"]:
        entry["scheme"] = {"u": [[0]] * 4, "bandwidth": 0}


def _drop_last_orbit(blob):
    del blob["seeds"][-1]
    del blob["orbits"]["representatives"][-1]


def _recount_orbits(blob):
    """Rewrite orbits.orbit_count and orbits.counts_by_base to what the seeds give."""
    f = blob["field"]
    ctx = field_new(f["p"], f["s"], f["ell"], f["modulus"])
    report = OrbitReport(tuple(span(ctx, ctx.q, entry["basis"]) for entry in blob["seeds"]))
    blob["orbits"]["orbit_count"] = report.orbit_count
    blob["orbits"]["counts_by_base"] = {str(m): n for m, n in report.counts_by_base.items()}


def _drop_last_orbit_and_recount(blob):
    _drop_last_orbit(blob)
    _recount_orbits(blob)


def _repeat_last_orbit(blob):
    blob["seeds"].append(copy.deepcopy(blob["seeds"][-1]))
    blob["orbits"]["representatives"].append(blob["orbits"]["representatives"][-1])
    _recount_orbits(blob)


def _set(path, value):
    """An edit that sets blob[path] for a path of keys and list indices."""

    def edit(blob):
        *head, last = path
        for key in head:
            blob = blob[key]
        blob[last] = value

    return edit


def _flag_greedy(witness=None):
    """An edit that rewrites the bundle around witness (default its own), flagged not exact."""

    def edit(blob):
        b = load_bundle(blob)
        mhs = HittingResult(tuple(witness or b.mhs.witness), "greedy-upper-only")
        forged = DesignBundle(b.mode, b.schemes, mhs, b.config).to_json_dict()
        blob.clear()
        blob.update(forged)

    return edit


# name -> (which bundle, edit, recompute config_hash, error pattern).  Each
# edit leaves a bundle that is malformed or whose certificate fails; the
# GF(16) seed is [4, 11] = {0, z^4, z^11, z^15}.
FORGERIES = {
    "witness-misses-group": (
        "single", _set(("mhs", "witness"), [1, 2, 3, 4, 6]), True, "misses"
    ),
    "all-zero-u": ("single", _set_u_to_zero, True, "full-rank"),
    "coset-count": (
        "single", _set(("seeds", 0, "coset_count"), 6), True,
        r"seeds\[0\]\.coset_count",
    ),
    "bounds-upper": (
        "single", _set(("bounds", "upper"), 8), True, r"bounds\.upper"
    ),
    "code-n": ("single", _set(("code", "n"), 17), True, r"code\.n"),
    # 16.0 == 16 and True == 1: a derived value stored as another JSON type
    "code-n-float": ("single", _set(("code", "n"), 16.0), True, r"code\.n"),
    "tolerance-bool": ("single", _set(("tolerance",), True), True, "tolerance"),
    "base-m-bool": (
        "multi", _set(("seeds", 0, "base_m"), True), True, r"seeds\[0\]\.base_m"
    ),
    "representative-float": (
        "multi", _set(("orbits", "representatives", 0), [1.0, 2]), True,
        r"orbits\.representatives\[0\]\[0\]",
    ),
    "bandwidth": (
        "single", _set(("seeds", 0, "scheme", "bandwidth"), 1), True,
        r"seeds\[0\]\.scheme\.bandwidth",
    ),
    "multi-seed-missing-orbit": (
        "multi", _drop_last_orbit_and_recount, True, "coset sets"
    ),
    "multi-seed-repeated-orbit": (
        "multi", _repeat_last_orbit, True, "once each"
    ),
    "multi-seed-stale-orbit-report": (
        "multi", _drop_last_orbit, True, r"orbits\.orbit_count"
    ),
    "no-field": ("single", lambda blob: blob.pop("field"), False, "'field'"),
    "basis-out-of-field": (
        "single", _set(("seeds", 0, "basis"), [4, 99]), True, "field elements"
    ),
    "u-out-of-field": (
        "single", _set(("seeds", 0, "scheme", "u", 0), [99]), True,
        "field elements",
    ),
    "k-not-an-integer": (
        "single", _set(("code", "k"), "2"), True, r"code\.k"
    ),
    "prime-over-cap": (
        "single", _set(("field", "p"), 2**61 - 1), True, "exceeds the cap"
    ),
    # witnesses that hit every group, but not of the size the bounds fix: 5
    # for the single seed, 7 for the multi-seed design
    "greedy-over-exact": (
        "single", _flag_greedy([1, 2, 3, 4, 5, 6, 8]), False, "off the bounds"
    ),
    "greedy-over-multi-seed": (
        "multi", _flag_greedy(range(1, 16)), False, "off the bounds"
    ),
    "greedy-at-exact": ("single", _flag_greedy(), False, "must be exact"),
}


@pytest.fixture(scope="session")
def design_blobs():
    return {
        "single": design_single_seed(2, 1, 4, 2, seed_basis=[4, 11]).to_json_dict(),
        "multi": design_multi_seed(2, 1, 4, 2, 2).to_json_dict(),
    }


@pytest.fixture(params=[*FORGERIES, "not-an-object"])
def forged_bundle(request, design_blobs):
    """(bundle data that load_bundle must reject, pattern of its error)."""
    if request.param == "not-an-object":
        return [], "object"
    which, edit, rehash, pattern = FORGERIES[request.param]
    blob = copy.deepcopy(design_blobs[which])
    edit(blob)
    return (_rehash(blob) if rehash else blob), pattern
