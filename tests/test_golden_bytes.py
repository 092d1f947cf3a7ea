"""Byte-identity guard: pinned sha256 values of outputs that must never drift.

The orbit, bundle and scheme digests were taken from the version before
orbit enumeration, coset families and subspace polynomials were rewritten
on the scaling structure, except the (3,4,2), (5,3,2), (4,4,2) and (2,8,3)
orbit digests, taken from the version that built every subspace one field
element at a time, and the (2,8,2) and (2,8,3) CLI JSON digests, taken
from the version that lists orbits in the order of their first subspace
through 1 (ORBIT_SETS shows that only the order moved); the exhaustive
simulation digest from the version that scanned one frozenset per failure
pattern.  A digest that changes
means the output bytes changed: CLI `orbits` JSON and orbit sizes, bundle
dumps(), a seed scheme's u, or an exhaustive SimReport.
"""

import hashlib
import json
from pathlib import Path

import pytest

from compactrepair import (
    design_multi_seed,
    design_single_seed,
    field_new,
    load_bundle,
    orbit_decomposition,
    search_seed_scheme,
    simulate_failures,
    span,
)
from compactrepair.cli import main
from oracles import simulate_first_intact


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# (q, ell, delta, p, s) -> (sha of the CLI JSON, sha of json.dumps(orbit_sizes))
ORBITS = {
    (2, 4, 2, 2, 1): (
        "bb18ce92875f7805d23cf319b7a89eb36ebc0142ef468704f4a15c4cd7e59dd7",
        "6754ca479e971888e8cd6131abf5a42ac33423e38f332eeed83f58756d49d9da",
    ),
    (2, 6, 3, 2, 1): (
        "da5338a1e40002777197c6d29daf1d20b9ac790bff591aad02b16565dc87a939",
        "33889527a2cd31065a5517eafe3835a52e7925713d9b22e685722a2716cebe0f",
    ),
    (2, 8, 2, 2, 1): (
        "fe4e3c1f09293fc18fb0862e77b34ecd3b43fd5bf7950f444bdc982e1a4ede12",
        "e836f45f5b1762e72bf71723532f73a30dc733d8df8554125befef8a27717bc7",
    ),
    (3, 3, 2, 3, 1): (
        "42c856674ce3aeba5dbf5864357acf26cea438b9fff46ed52958d68135eddcd5",
        "525ec3b5ad9afc0f09a5f7e0eb865e97f5b4b614a85cf93f3ae644f8e5f874f0",
    ),
    (4, 3, 2, 2, 2): (
        "fbb6f462ab9b035fd29de4fe06cdbbf60edd5b8b772365f06672291a7d0c54b1",
        "3db4e2d15128484c18e33cde50510caf0a36044278b0f9e265f49f31e9bb1ee0",
    ),
    # odd p and F_4 scalars in the subspace enumeration, and GF(2^8) delta 3
    (3, 4, 2, 3, 1): (
        "2ae822f8b315bfa61f32883537b7940a554142d7b848e2d135151dee548364d9",
        "2dd691422427654935aa79274df34a1e2aef00d029f767a50b11b8c9ebc1e7ff",
    ),
    (5, 3, 2, 5, 1): (
        "7875b5a8df00c3f1315cd309e78b27ff3b8aad2159e4a4145bb1a5a09fe4dc41",
        "8eefd2920366bc3e63649af9c0f30192857c178059490e64b5e5dcd3c1edba5c",
    ),
    (4, 4, 2, 2, 2): (
        "c98d94a749041a122375008f39e63bc2bc14007ecee19a61e6bf7d6ff9d1c3fd",
        "13789e64988d3ab2af34ea60521a85796fd0181206099fe38512280d2b993075",
    ),
    (2, 8, 3, 2, 1): (
        "a1c89ec6e0dea72a52e26fc780da3cc3b50f7610c0894fd2f9ae6caa53b941ba",
        "9918f837fa34cbf3d191d9ac8cfa4809eff821e4ad3e560ddd15ee8837a6d24f",
    ),
}


@pytest.mark.parametrize(
    "case", list(ORBITS), ids=[f"q{c[0]}-ell{c[1]}-delta{c[2]}" for c in ORBITS]
)
def test_orbits_output_is_pinned(case, tmp_path):
    q, ell, delta, p, s = case
    out = tmp_path / "orbits.json"
    argv = ["orbits", "--q", str(q), "--ell", str(ell), "--delta", str(delta)]
    assert main(argv + ["-o", str(out)]) == 0
    sizes = orbit_decomposition(field_new(p, s, ell), delta).orbit_sizes
    assert (_sha(out.read_text()), _sha(json.dumps(sizes))) == ORBITS[case]


# The same cases with orbit order left out: sha of the sorted
# (representative basis, size) pairs, counts_by_base and orbit_count.  A
# rewrite that may only reorder the orbits must leave these unchanged.
ORBIT_SETS = {
    (2, 4, 2, 2, 1): "d0bf4a70392caf3ca6e15a3a2074e35b4cefb904a899c6373b32219d676ef883",
    (2, 6, 3, 2, 1): "dcbcd1c4650b9b8fc4fe1ae8fc6a4ba1f6fb3d742f7844f591cab2d203193b2e",
    (2, 8, 2, 2, 1): "cf063e7504835226ccf8b10562af3271e2675d7070352f192af5346cd3e20077",
    (3, 3, 2, 3, 1): "92762e1c8bb061dc12792ffeb4c83445dbb11e2c4ec17e2c8dc70ef7f9282218",
    (4, 3, 2, 2, 2): "499d0aefdab24684186c658d54108ca156668ecb0371d36d9c3ffbc9dc4975b2",
    (3, 4, 2, 3, 1): "6176072b3d164a1a7bbd7a11201b331217427eff9ffe32e23470969af0537928",
    (5, 3, 2, 5, 1): "b88304ad94e9dc39a5880304c4807dc31a8af44f92e721a03d440ff5efc93aa7",
    (4, 4, 2, 2, 2): "0225f09e21abb94d8e949d919a44e1566e350a1c43ecf515c8bd5caa96513285",
    (2, 8, 3, 2, 1): "836498d32550a19191f99c46ba7a0878d8345a5e458a4bfd012c4dcd4c7fd062",
}


@pytest.mark.parametrize(
    "case", list(ORBIT_SETS), ids=[f"q{c[0]}-ell{c[1]}-delta{c[2]}" for c in ORBIT_SETS]
)
def test_orbit_set_is_pinned(case):
    q, ell, delta, p, s = case
    report = orbit_decomposition(field_new(p, s, ell), delta)
    pairs = sorted(zip((rep.to_json() for rep in report.representatives), report.orbit_sizes))
    text = json.dumps([pairs, sorted(report.counts_by_base.items()), report.orbit_count])
    assert _sha(text) == ORBIT_SETS[case]


# The bundles perfbench designs for repair-traffic and failure-sim (each
# once), the GF(16) golden design, and one generic seed whose witness is
# the MILP's, which moves if the solver's rows or columns are reordered.
# The six single-seed subfield-coset digests were re-pinned when their
# witness became the closed form {z^0, ..., z^(B-1)}, and the three
# single-orbit multi-seed digests when their lone seed's formula took the
# place of the line cover (WITNESS_FREE below shows that nothing else moved).
BUNDLES = {
    "gf256-d4": (
        lambda: design_single_seed(2, 1, 8, 4, delta=4, rng_seed=1),
        "534287b051647496aa56054f7bf5325ad3a9697c099708d42b97c7a7ce8c38ec",
    ),
    "gf81-q3": (
        lambda: design_single_seed(3, 1, 4, 3, delta=2, rng_seed=1),
        "6e58dc186aa1ccbc302a177b3b3020f24433152795f4dfbccbd07048f1a16731",
    ),
    "gf64-q4": (
        lambda: design_single_seed(2, 2, 3, 2, delta=1, rng_seed=1),
        "6a07117cdf7bc911bd5393b782f0d1292d858f9dc437efc82ef875a1ed5b819e",
    ),
    "gf32-multi": (
        lambda: design_multi_seed(2, 1, 5, 2, 2, rng_seed=1),
        "9689a4240d8c13ca8556dc7d37c2a85a4d09a9b4064c868896f41ef755a22d01",
    ),
    "gf729-q3": (
        lambda: design_single_seed(3, 1, 6, 3, delta=2, rng_seed=1),
        "175751762f0886b8c44d9994da6d77d5c1e3d11ec6fbb02c127047e55ac96f23",
    ),
    "gf16-multi": (
        lambda: design_multi_seed(2, 1, 4, 2, 2, rng_seed=1),
        "903f5a995c3f11357ade718ecbb0aa33712e9e3c127470d4094c312bc22cf6a8",
    ),
    "gf64-d2": (
        lambda: design_single_seed(2, 1, 6, 2, delta=2, rng_seed=1),
        "ce4822fa6756d7167c3468014be09d8fff159e1df11f6985ab7b7be0dc2bd810",
    ),
    "gf16-golden": (
        lambda: design_single_seed(2, 1, 4, 2, seed_basis=[4, 11]),
        "cc5d0c8e5b8c1975fab6116d1592dce3ede0844c3abb6b3a4b4d71e80e198d7a",
    ),
    "gf64-d3-generic": (
        lambda: design_single_seed(2, 1, 6, 2, delta=3, strategy="first"),
        "4c444ce0d3a781ccd899a320aebe22bcd3fcdeba727216456720ba0b537ff84a",
    ),
    # multi-seed designs whose delta-subspaces form one scaling orbit: a
    # subfield-coset seed at delta 1 and an F_4-hyperplane at delta 2
    "gf64-q4-multi-d1": (
        lambda: design_multi_seed(2, 2, 3, 2, 1),
        "e34681a80b9a5c3219ea1b4185b7527fbe0735bf9eac5f865377d24d1845bd4e",
    ),
    "gf64-q4-multi-d2": (
        lambda: design_multi_seed(2, 2, 3, 2, 2),
        "e2e7c86f5596c9e13a32a1ee411a28900bb0dfc7db5ad9ac706e24337466fd9b",
    ),
    "gf81-q3-multi-d1": (
        lambda: design_multi_seed(3, 1, 4, 2, 1),
        "e271e06450ff7ad32595254d881e3843bd83d32708153c9bf659578099762152",
    ),
}


@pytest.mark.parametrize("name", list(BUNDLES))
def test_bundle_dumps_are_pinned(name):
    build, digest = BUNDLES[name]
    assert _sha(build().dumps()) == digest


# The subfield-coset bundles above with mhs.witness and the config_hash
# that covers it left out, pinned while their witnesses were the MILP's,
# and the single-orbit multi-seed ones, pinned while theirs were the line
# cover.  A change that may only move which minimum witness is reported
# must leave these unchanged.
WITNESS_FREE = {
    "gf256-d4": "75b8295e0bc99586d7125c1ddc5a89ec5f8d02e80e3dbae956d10f1a0187a7a1",
    "gf81-q3": "f3b93586f9fd811953cbf3e96cc75dcf2b20c7db22f3df9ae5cc6c1bfd99a827",
    "gf64-q4": "84987a5968bd69e49a551af8cab3650cc911f19bcd0f2c39f399ad190acd1036",
    "gf729-q3": "037e7bb978be3d8df9a136fa793eb96a7b0caa13362866244e72e27087511634",
    "gf64-d2": "c965796f9f5e5d3e0c93edf54251a48faf5b3b5532f9957a06c2b6c1921cb1df",
    "gf16-golden": "6891025e992b65b71b5278f663ab1ee5eae82781d5feeb7273662371b62d76a7",
    # pinned while their witnesses were the multi-seed line cover
    "gf64-q4-multi-d1": "27b3c73b0b767b014b3ee47f6dc7e9e5491f508ad4b6ad40acaa825b0c84b4e3",
    "gf64-q4-multi-d2": "3d45680f9286914087b76504154ffebcd33ad6abd847d77635c717f162666d4f",
    "gf81-q3-multi-d1": "814295cae42bbb7d4db573e80be7134bcaf27ef4a45c2c30fda2cb2737c58ebb",
}


@pytest.mark.parametrize("name", list(WITNESS_FREE))
def test_bundle_without_witness_is_pinned(name):
    body = BUNDLES[name][0]().to_json_dict()
    del body["mhs"]["witness"], body["provenance"]["config_hash"]
    assert _sha(json.dumps(body, sort_keys=True)) == WITNESS_FREE[name]


def test_gf4096_delta10_scheme_u_is_pinned():
    ctx = field_new(2, 1, 12)
    S = span(ctx, 2, [ctx.exp(j) for j in range(10)])
    u = search_seed_scheme(S, 2).u
    assert _sha(json.dumps(u)) == (
        "590ae75da34808f4bdde0fa483b6d0e6799bf22ae771fc3970374e43c7078407"
    )


# Exhaustive simulations whose group order shows: the GF(16) multi-seed
# fixture's seeds repair at bandwidths 6, 7 and 7, so which intact group is
# first moves decentralized_per_repair_mean.  GF(81)/F_3 adds odd q and the
# extremes e = 0 and e = n - 1.
SIM_FIXTURE = Path(__file__).resolve().parent / "data" / "gf16_multi_seed_delta2_searched_u.json"
SIM_KEYS = (
    "e", "mode", "patterns", "survived", "failure_probability", "bandwidth",
    "group_selection", "rng_seed",
)


@pytest.fixture(scope="module")
def sim_grid():
    gf16 = load_bundle(json.loads(SIM_FIXTURE.read_text()))
    gf81 = design_single_seed(3, 1, 4, 3, delta=2)
    grid = [(gf16, alpha, e) for alpha in (0, 6, 13) for e in range(16)]
    grid += [(gf81, 41, e) for e in (0, 1, 2, 3, 79, 80)]
    return grid


def test_exhaustive_simulation_matches_first_intact_oracle(sim_grid):
    for bundle, alpha, e in sim_grid:
        report = simulate_failures(bundle, alpha, e, mode="exhaustive")
        assert report.to_json_dict() == simulate_first_intact(bundle, alpha, e), (alpha, e)


def test_exhaustive_simulation_is_pinned(sim_grid):
    reports = [
        simulate_failures(bundle, alpha, e, mode="exhaustive").to_json_dict()
        for bundle, alpha, e in sim_grid
    ]
    pinned = [{key: report[key] for key in SIM_KEYS} for report in reports]
    assert _sha(json.dumps(pinned, sort_keys=True)) == (
        "bf47d53569ce973c0a79b4afad1bb0449eea2267c6644a608e16f59e700211fe"
    )
