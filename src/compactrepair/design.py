"""Design bundles, failure simulation, and bandwidth comparison.

A DesignBundle is the complete serializable description of a compact
repair-group design for one full-length RS(q^ell, k) code: the field, the
seed subspaces with their repair schemes, the exact failure tolerance with
its certificate, and (for multi-seed designs) the orbit report that
justifies the seed choice.  One bundle covers all n symbols: the groups
for a concrete repaired point a* are regenerated on demand as
{a* + b*(S\\{0})}, never materialized, which is the whole point of seeding
the design from a handful of subspaces.

A bundle stores its inputs (the `_INPUTS` fields) beside values derived
from them: code.n, q, delta, base_m, coset_count, bandwidth, mhs.size,
tolerance, bounds, orbits and config_hash.  DesignBundle derives these for
the design functions and load_bundle alike; load_bundle reads only the
inputs, rejects any stored value that disagrees with its derivation, and
checks the certificate (_check_certificate).

Multi-seed designs take one seed per scaling orbit, so their coset family
is every delta-dimensional subspace.  By the Bose-Burton bound its minimum
hitting set has (q^(ell-delta+1) - 1)/(q - 1) points, attained by one point
per F_q-line of a single (ell-delta+1)-dimensional subspace; the design
builds that witness directly and checks that it hits every set, with no
solver call.

The failure simulator draws e-failure patterns (exhaustively below a
pattern threshold, else Monte Carlo on a counter-based Philox stream) and
reports the fraction of patterns leaving at least one intact group, plus a
centralized-vs-decentralized bandwidth table.  Replacement nodes pick the
first intact group in family order; that policy is recorded in the bundle
config.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from itertools import combinations
from math import comb

import numpy as np

from . import __version__
from .errors import ExampleCheckError, InvariantError
from .gf import FieldCtx, field_new
from .hitting import BoundsReport, HittingResult, bounds, bounds_for_seed, min_hitting_set
from .orbits import (
    OrbitReport, base_counts, coset_family, orbit_count_formula, orbit_decomposition, stabilizer_order
)
from .repair import SeedScheme, search_seed_scheme
from .subspaces import (
    Subspace,
    base_of,
    enumerate_subspaces,
    gaussian_coefficient,
    span,
)

TOOL_NAME = "compactrepair"
SCHEMA_VERSION = 1
DEFAULT_EXHAUSTIVE_THRESHOLD = 10**7
_ABSENT = object()

# The JSON shape of a bundle's inputs; load_bundle reads nothing else.
_INPUTS = {
    "field": {"p": int, "s": int, "ell": int, "modulus": [int]},
    "code": {"k": int},
    "mode": ("single-seed", "multi-seed"),
    "seeds": [{"basis": [int], "scheme": {"u": [[int]]}}],
    "mhs": {"witness": [int], "method": ("exact", "greedy-upper-only")},
    "config": dict,
}


@dataclass(frozen=True)
class DesignBundle:
    """Serializable design artifact: the fields are the inputs, derived values properties."""

    ctx: FieldCtx
    k: int
    mode: str  # "single-seed" | "multi-seed"
    seeds: tuple[Subspace, ...]
    schemes: tuple[SeedScheme, ...]
    mhs: HittingResult
    config: dict

    def __post_init__(self):
        dims = [S.dim for S in self.seeds]
        if len(set(dims)) != 1 or (self.mode == "single-seed" and len(dims) != 1):
            raise ValueError(f"a {self.mode} bundle cannot have seeds of dimensions {dims}")
        _validate_code(self.ctx, self.k, self.delta)

    @property
    def q(self) -> int:
        return self.ctx.q

    @property
    def n(self) -> int:
        return self.ctx.order

    @property
    def delta(self) -> int:
        return self.seeds[0].dim

    @property
    def tolerance(self) -> int:
        return self.mhs.tolerance

    @property
    def coset_counts(self) -> tuple[int, ...]:
        """Distinct groups per seed: (q^ell - 1) over the seed's stabilizer."""
        return tuple((self.n - 1) // stabilizer_order(S) for S in self.seeds)

    @property
    def bounds(self) -> BoundsReport:
        """The seed's sandwich; a multi-seed design attains its upper end."""
        if self.mode == "single-seed":
            return bounds_for_seed(self.seeds[0])
        b = bounds(self.q, self.ctx.ell, self.delta)
        return BoundsReport(b.lower, b.upper, b.upper, "multi-seed-orbit-cover")

    @property
    def orbits(self) -> OrbitReport | None:
        """Closed-form orbit report whose representatives are the seeds."""
        if self.mode == "single-seed":
            return None
        q, ell, delta = self.q, self.ctx.ell, self.delta
        counts, orbit_count = base_counts(q, ell, delta), orbit_count_formula(q, ell, delta)
        return OrbitReport(q, ell, delta, counts, orbit_count, self.seeds, self.coset_counts)

    def to_json_dict(self) -> dict:
        ctx = self.ctx
        body = {
            "schema": SCHEMA_VERSION,
            "field": {
                "p": ctx.p,
                "s": ctx.s,
                "ell": ctx.ell,
                "modulus": list(ctx.modulus),
            },
            "code": {"n": self.n, "k": self.k},
            "q": self.q,
            "delta": self.delta,
            "mode": self.mode,
            "seeds": [
                {
                    "basis": seed.to_json(),
                    "base_m": base_of(seed),
                    "coset_count": count,
                    "scheme": {
                        "u": [list(ui) for ui in scheme.u],
                        "bandwidth": scheme.bandwidth,
                    },
                }
                for seed, scheme, count in zip(
                    self.seeds, self.schemes, self.coset_counts
                )
            ],
            "mhs": {
                "size": self.mhs.size,
                "method": self.mhs.method,
                "witness": list(self.mhs.witness),
            },
            "tolerance": self.tolerance,
            "bounds": {
                "lower": self.bounds.lower,
                "upper": self.bounds.upper,
                "exact": self.bounds.exact,
                "case": self.bounds.case,
            },
            "orbits": self.orbits.to_json_dict() if self.orbits else None,
            "config": self.config,
        }
        digest = hashlib.sha256(
            json.dumps(body, sort_keys=True, separators=(",", ":")).encode()
        ).hexdigest()
        body["provenance"] = {
            "tool": f"{TOOL_NAME} {__version__}",
            "config_hash": digest,
        }
        return body

    def dumps(self) -> str:
        """Canonical serialized form; identical inputs give identical bytes."""
        return json.dumps(self.to_json_dict(), sort_keys=True, indent=2) + "\n"


def _check_shape(value, shape, path: str = "bundle") -> None:
    """Raise ValueError unless a JSON value has the shape given (see _INPUTS)."""
    if type(shape) is dict:
        if type(value) is not dict:
            raise ValueError(f"{path} must be a JSON object")
        for key, inner in shape.items():
            if key not in value:
                raise ValueError(f"{path} has no {key!r}")
            _check_shape(value[key], inner, f"{path}.{key}")
    elif type(shape) is list:
        if type(value) is not list:
            raise ValueError(f"{path} must be a JSON array")
        for i, item in enumerate(value):
            _check_shape(item, shape[0], f"{path}[{i}]")
    elif type(shape) is tuple:
        if value not in shape:
            raise ValueError(f"{path} must be one of {', '.join(shape)}")
    elif type(value) is not shape:
        raise ValueError(f"{path} must be a JSON {shape.__name__}")


def _disagreements(stored, derived, path: str = "") -> list[str]:
    """Paths at which two JSON values differ in value or type."""
    if type(stored) is type(derived) is dict:
        keys = sorted(stored.keys() | derived.keys())
        pairs = [(k, stored.get(k, _ABSENT), derived.get(k, _ABSENT)) for k in keys]
        return [
            p for k, a, b in pairs for p in _disagreements(a, b, f"{path}.{k}" if path else k)
        ]
    if type(stored) is type(derived) is list and len(stored) == len(derived):
        pairs = enumerate(zip(stored, derived))
        return [p for i, (a, b) in pairs for p in _disagreements(a, b, f"{path}[{i}]")]
    return [] if type(stored) is type(derived) and stored == derived else [path]


def load_bundle(data) -> DesignBundle:
    """Rebuild a DesignBundle from its inputs and check everything else.

    The bundle the inputs determine must serialize to the stored dict,
    provenance.tool aside, and pass _check_certificate.  Malformed or
    inconsistent input raises ValueError.
    """
    if type(data) is not dict:
        raise ValueError("bundle must be a JSON object")
    if data.get("schema") != SCHEMA_VERSION:
        raise ValueError(f"unsupported bundle schema: {data.get('schema')!r}")
    _check_shape(data, _INPUTS)
    f, k, entries = data["field"], data["code"]["k"], data["seeds"]
    ctx = field_new(f["p"], f["s"], f["ell"], f["modulus"])
    seeds = tuple(span(ctx, ctx.q, entry["basis"]) for entry in entries)
    schemes = tuple(
        SeedScheme(ctx, S, k, entry["scheme"]["u"]) for S, entry in zip(seeds, entries)
    )
    mhs = HittingResult(tuple(data["mhs"]["witness"]), data["mhs"]["method"])
    bundle = DesignBundle(ctx, k, data["mode"], seeds, schemes, mhs, data["config"])
    bad = _disagreements(data, bundle.to_json_dict())
    bad = [path for path in bad if path != "provenance.tool"]
    if bad:
        raise ValueError(
            "bundle values disagree with those its inputs (field, code.k, mode, seed "
            "bases and u, mhs.witness and method, config) determine: " + ", ".join(bad)
        )
    _check_certificate(bundle, ValueError)
    return bundle


def _check_certificate(bundle: DesignBundle, error: type[Exception]) -> None:
    """Raise error unless the witness and the bounds check out.

    A group b*S* meets the witness W iff log b = log w - log s for some w in
    W and s in S*, so W hits every group of a seed iff those differences
    cover Z_(n-1): |W| * |S*| work and no coset family.  Every scheme is
    full-rank already, since SeedScheme accepts no other.  A generic seed's
    size is only checked against its bounds; minimality is not re-proved.
    """
    ctx, mhs, bnd, group = bundle.ctx, bundle.mhs, bundle.bounds, bundle.n - 1
    if len(set(mhs.witness)) != mhs.size or not all(0 < w <= group for w in mhs.witness):
        raise error("mhs witness must list distinct nonzero field elements")
    witness_logs = [ctx.log(w) for w in mhs.witness]
    for i, seed in enumerate(bundle.seeds):
        seed_logs = [ctx.log(s) for s in seed.star()]
        if len({(a - b) % group for a in witness_logs for b in seed_logs}) < group:
            raise error(f"mhs witness misses a group of seed {i} {seed.to_json()}")
    within = bnd.lower <= mhs.size <= bnd.upper and bnd.exact in (None, mhs.size)
    if mhs.method == "exact" and not within:
        raise error(f"exact |MHS| = {mhs.size} is off the bounds {bnd}")
    if bundle.mode == "multi-seed":
        expected = gaussian_coefficient(ctx.ell, bundle.delta, ctx.q)
        if len(coset_family(bundle.seeds)) != expected:
            raise error(f"multi-seed coset sets are not all {expected} {bundle.delta}-subspaces")


def _validate_code(ctx: FieldCtx, k: int, delta: int) -> None:
    n = ctx.order
    if not 1 <= k < n:
        raise ValueError(f"need 1 <= k < n = {n}, got k = {k}")
    if not 1 <= delta <= ctx.ell:
        raise ValueError(f"need 1 <= delta <= ell = {ctx.ell}, got delta = {delta}")
    if ctx.q**delta <= k:
        raise ValueError(
            f"seed size q^delta = {ctx.q**delta} must exceed k = {k}"
        )


def _seed_from_strategy(ctx: FieldCtx, delta: int, strategy: str) -> Subspace:
    q = ctx.q
    if strategy == "subfield-coset":
        if ctx.ell % delta:
            raise ValueError(
                f"strategy 'subfield-coset' needs delta | ell, got "
                f"delta={delta}, ell={ctx.ell}"
            )
        gamma = ctx.exp((ctx.order - 1) // (q**delta - 1))
        return span(ctx, q, [ctx.pow(gamma, i) for i in range(delta)])
    if strategy == "first":
        return next(enumerate_subspaces(ctx, q, delta))
    raise ValueError(f"unknown seed strategy: {strategy!r}")


def design_single_seed(
    p: int,
    s: int,
    ell: int,
    k: int,
    *,
    seed_basis=None,
    delta: int | None = None,
    strategy: str = "subfield-coset",
    modulus=None,
    rng_seed: int = 0,
) -> DesignBundle:
    """Design with one seed: groups, exact tolerance, bounds, repair scheme.

    The scheme is search_seed_scheme's closed form.  rng_seed is accepted
    for earlier callers and ignored; it is not written to the config.
    """
    ctx = field_new(p, s, ell, modulus)
    q = ctx.q
    if seed_basis is not None:
        seed = span(ctx, q, list(seed_basis))
        if seed.dim == 0:
            raise ValueError("seed basis spans only the trivial subspace")
        _validate_code(ctx, k, seed.dim)
    else:
        if delta is None:
            raise ValueError("give either seed_basis or delta")
        _validate_code(ctx, k, delta)
        seed = _seed_from_strategy(ctx, delta, strategy)
    mhs = min_hitting_set(coset_family([seed]))
    scheme = search_seed_scheme(ctx, seed, k)
    config = {
        "strategy": None if seed_basis is not None else strategy,
        "seed_basis": sorted(seed.basis),
        "group_selection": "first-intact",
    }
    bundle = DesignBundle(ctx, k, "single-seed", (seed,), (scheme,), mhs, config)
    _check_certificate(bundle, InvariantError)
    return bundle


def design_multi_seed(
    p: int,
    s: int,
    ell: int,
    k: int,
    delta: int,
    *,
    modulus=None,
    rng_seed: int = 0,
) -> DesignBundle:
    """Design from one seed per scaling orbit; tolerance attains the bound.

    The union of the representatives' coset families is every
    delta-dimensional subspace (punctured).  Any (ell-delta+1)-dimensional
    subspace U meets each of them in at least a line, so one point per
    F_q-line of U hits the family, and by the Bose-Burton bound no smaller
    set does: |MHS| = (q^(ell-delta+1) - 1)/(q - 1).  U is spanned by
    z^0, ..., z^(ell-delta) for the field generator z; the witness is
    checked against every set before it is returned.  Each seed's scheme is
    search_seed_scheme's closed form; rng_seed is accepted for earlier
    callers and ignored, and it is not written to the config.
    """
    ctx = field_new(p, s, ell, modulus)
    q = ctx.q
    _validate_code(ctx, k, delta)
    seeds = orbit_decomposition(ctx, q, delta).representatives
    U = span(ctx, q, [ctx.exp(i) for i in range(ctx.ell - delta + 1)])
    scalars = ctx.subfield_elements(ctx.subfield_degree(q))[1:]
    witness = tuple(
        sorted({min(ctx.mul(c, v) for c in scalars) for v in U.members if v})
    )
    schemes = tuple(search_seed_scheme(ctx, seed, k) for seed in seeds)
    config = {"strategy": "orbit-representatives", "group_selection": "first-intact"}
    mhs = HittingResult(witness, "exact")
    bundle = DesignBundle(ctx, k, "multi-seed", seeds, schemes, mhs, config)
    _check_certificate(bundle, InvariantError)
    return bundle


@dataclass(frozen=True)
class SimReport:
    e: int
    mode: str  # "exhaustive" | "monte-carlo"
    patterns: int  # total patterns in exhaustive mode, trials otherwise
    survived: float
    failure_probability: float
    bandwidth: dict
    group_selection: str
    rng_seed: int | None

    def to_json_dict(self) -> dict:
        return {
            "e": self.e,
            "mode": self.mode,
            "patterns": self.patterns,
            "survived": self.survived,
            "failure_probability": self.failure_probability,
            "bandwidth": self.bandwidth,
            "group_selection": self.group_selection,
            "rng_seed": self.rng_seed,
        }


def simulate_failures(
    bundle: DesignBundle,
    alpha_star: int,
    e: int,
    mode: str = "auto",
    trials: int = 10000,
    rng_seed: int | None = None,
    exhaustive_threshold: int = DEFAULT_EXHAUSTIVE_THRESHOLD,
) -> SimReport:
    """Fraction of e-failure patterns that leave the symbol repairable.

    Patterns are e-subsets of the other n-1 nodes.  Exhaustive when the
    pattern count is within the threshold; otherwise Monte Carlo, which
    requires rng_seed (a counter-based Philox stream keyed on it).
    """
    ctx = bundle.ctx
    n = ctx.order
    if not 0 <= alpha_star < n:
        raise ValueError(f"need 0 <= alpha_star < n = {n}, got {alpha_star}")
    if not 0 <= e < n:
        raise ValueError(f"need 0 <= e < n = {n}, got {e}")
    family = coset_family(list(bundle.seeds), center=alpha_star)
    groups = family.sets
    seed_of_group = family.seed_index
    bw_of_seed = [scheme.bandwidth for scheme in bundle.schemes]
    universe = sorted(family.universe)
    total = comb(n - 1, e)
    if mode == "auto":
        mode = "exhaustive" if total <= exhaustive_threshold else "monte-carlo"
    if mode not in ("exhaustive", "monte-carlo"):
        raise ValueError(f"unknown mode: {mode!r}")
    if mode == "exhaustive" and total > exhaustive_threshold:
        raise ValueError(
            f"{total} patterns exceed the exhaustive threshold "
            f"{exhaustive_threshold}; use monte-carlo"
        )

    def first_intact(failed: frozenset[int]) -> int | None:
        for i, g in enumerate(groups):
            if g.isdisjoint(failed):
                return i
        return None

    survived = 0
    bw_sum = 0
    if mode == "exhaustive":
        evaluated = total
        for pattern in combinations(universe, e):
            i = first_intact(frozenset(pattern))
            if i is not None:
                survived += 1
                bw_sum += bw_of_seed[seed_of_group[i]]
    else:
        if rng_seed is None:
            raise ValueError("monte-carlo mode requires rng_seed")
        if trials < 1:
            raise ValueError(f"monte-carlo mode needs trials >= 1, got {trials}")
        gen = np.random.Generator(np.random.Philox(key=rng_seed))
        evaluated = trials
        uni = np.array(universe)
        for _ in range(trials):
            pattern = frozenset(
                int(x) for x in gen.choice(uni, size=e, replace=False)
            )
            i = first_intact(pattern)
            if i is not None:
                survived += 1
                bw_sum += bw_of_seed[seed_of_group[i]]
    frac = survived / evaluated if evaluated else 1.0
    per_repair = (bw_sum / survived) if survived else None
    bandwidth_table = {
        **_repair_totals(bundle.k, ctx.ell, e),
        "decentralized_per_repair_mean": per_repair,
        "decentralized_total": e * per_repair if per_repair is not None else None,
    }
    return SimReport(
        e,
        mode,
        evaluated,
        frac,
        1.0 - frac,
        bandwidth_table,
        "first-intact",
        rng_seed,
    )


def _repair_totals(k: int, ell: int, e: int) -> dict:
    """The centralized and naive totals of bandwidth_comparison; e may be 0."""
    return {"centralized_total": (k + max(e - 1, 0)) * ell, "naive_decentralized_total": e * k * ell}


def bandwidth_comparison(
    n: int,
    k: int,
    ell: int,
    e: int,
    scheme_bandwidths=None,
    saving: float = 0.0,
) -> dict:
    """Centralized repair cost vs decentralized trace-repair cost.

    Centralized: one repair node downloads k symbols and redistributes, at
    k*ell + (e-1)*ell subfield symbols total.  Decentralized: each of the e
    replacement nodes repairs independently at k*ell*(1-saving) formula
    cost; measured per-repair bandwidths may be given alongside (one value,
    or one per repair).
    """
    if not 1 <= k < n:
        raise ValueError(f"need 1 <= k < n, got k = {k}, n = {n}")
    if ell < 1:
        raise ValueError(f"need ell >= 1, got {ell}")
    if e < 1:
        raise ValueError("need at least one failure to repair")
    if not 0 <= saving < 1:
        raise ValueError("saving must lie in [0, 1)")
    measured = None
    if scheme_bandwidths is not None:
        bws = list(scheme_bandwidths)
        if len(bws) == 1:
            bws = bws * e
        if len(bws) != e:
            raise ValueError(
                f"need 1 or {e} scheme bandwidths, got {len(bws)}"
            )
        measured = sum(bws)
    return {
        "n": n,
        "k": k,
        "ell": ell,
        "e": e,
        "saving": saving,
        **_repair_totals(k, ell, e),
        "decentralized_formula_total": e * k * ell * (1.0 - saving),
        "decentralized_measured_total": measured,
    }


def verify_reference_example(modulus=None, strict: bool = False) -> dict:
    """Golden checks for the bundled GF(16), k=2 reference design.

    Runs the full pipeline on the two reference seeds and compares every
    known value: the five helper groups around a repaired point, coset
    counts, exact hitting-set sizes, and tolerances.  A modulus override
    exists to demonstrate divergence: the golden group listing only holds
    for x^4 + x + 1.
    """
    ctx = field_new(2, 1, 4, modulus)
    z = ctx.generator

    def zp(j):
        return ctx.exp(j)

    first = span(ctx, 2, [zp(2), zp(7)])
    second = span(ctx, 2, [zp(4), zp(5)])
    alpha = zp(5)
    got_groups = coset_family([first], center=alpha)
    expected_groups = [
        {zp(1), zp(13), zp(14)},
        {zp(11), zp(4), zp(7)},
        {zp(8), zp(6), zp(12)},
        {zp(10), 0, zp(0)},
        {zp(2), zp(9), zp(3)},
    ]
    first_family = coset_family([first])
    second_family = coset_family([second])
    first_mhs = min_hitting_set(first_family)
    second_mhs = min_hitting_set(second_family)

    checks = []

    def check(name, expected, actual):
        checks.append(
            {
                "name": name,
                "expected": expected,
                "actual": actual,
                "passed": expected == actual,
            }
        )

    check(
        "first-seed-groups-at-z5",
        sorted(sorted(g) for g in expected_groups),
        sorted(sorted(g) for g in got_groups.sets),
    )
    check("first-seed-coset-count", 5, len(first_family.sets))
    check("first-seed-mhs-size", 5, first_mhs.size)
    check("first-seed-tolerance", 4, first_mhs.size - 1)
    check("second-seed-coset-count", 15, len(second_family.sets))
    check("second-seed-mhs-size", 6, second_mhs.size)
    check("second-seed-tolerance", 5, second_mhs.size - 1)
    check("first-seed-subfield-coset-value", 5, bounds_for_seed(first).exact)

    failures = [c["name"] for c in checks if not c["passed"]]
    report = {
        "field": {"p": 2, "s": 1, "ell": 4, "modulus": list(ctx.modulus)},
        "generator": z,
        "checks": checks,
        "check_count": len(checks),
        "all_pass": not failures,
        "first_divergence": failures[0] if failures else None,
    }
    if strict and failures:
        bad = next(c for c in checks if not c["passed"])
        raise ExampleCheckError(
            f"check {bad['name']!r} diverged: expected {bad['expected']}, "
            f"got {bad['actual']}"
        )
    return report
