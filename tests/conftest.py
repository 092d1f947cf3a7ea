import copy
import hashlib
import json

import pytest

from compactrepair import design_multi_seed, design_single_seed, field_new


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


def _set(path, value):
    """An edit that sets blob[path] for a path of keys and list indices."""

    def edit(blob):
        *head, last = path
        for key in head:
            blob = blob[key]
        blob[last] = value

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
    "bandwidth": (
        "single", _set(("seeds", 0, "scheme", "bandwidth"), 1), True,
        r"seeds\[0\]\.scheme\.bandwidth",
    ),
    "multi-seed-missing-orbit": (
        "multi", _drop_last_orbit, True, "coset sets"
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
