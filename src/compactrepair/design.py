"""Design bundles, failure simulation, and bandwidth comparison.

A DesignBundle is the complete serializable description of a compact
repair-group design for one full-length RS(q^ell, k) code: the field, the
seed subspaces with their repair schemes, the exact failure tolerance with
its certificate, and (for multi-seed designs) the orbit report that
justifies the seed choice.  One bundle covers all n symbols: the groups
for a concrete repaired point a* are regenerated on demand as
{a* + b*(S\\{0})}, never materialized, which is the whole point of seeding
the design from a handful of subspaces.

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

from .errors import ExampleCheckError, InvariantError
from .gf import FieldCtx, field_new
from .hitting import BoundsReport, HittingResult, bounds_for_seed, min_hitting_set
from .orbits import OrbitReport, coset_family, orbit_decomposition
from .repair import SeedScheme, search_seed_scheme
from .subspaces import (
    Subspace,
    base_of,
    enumerate_subspaces,
    gaussian_coefficient,
    span,
)

TOOL_NAME = "compactrepair"
TOOL_VERSION = "0.1.0"
SCHEMA_VERSION = 1
DEFAULT_SEARCH_BUDGET = 300
DEFAULT_EXHAUSTIVE_THRESHOLD = 10**7


@dataclass(frozen=True)
class DesignBundle:
    """Serializable design artifact; see module docstring."""

    ctx: FieldCtx
    k: int
    delta: int
    mode: str  # "single-seed" | "multi-seed"
    seeds: tuple[Subspace, ...]
    schemes: tuple[SeedScheme, ...]
    coset_counts: tuple[int, ...]
    mhs: HittingResult
    bounds: BoundsReport
    orbits: OrbitReport | None
    config: dict

    @property
    def q(self) -> int:
        return self.ctx.q

    @property
    def n(self) -> int:
        return self.ctx.order

    @property
    def tolerance(self) -> int:
        return self.mhs.tolerance

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
            "tool": f"{TOOL_NAME} {TOOL_VERSION}",
            "config_hash": digest,
        }
        return body

    def dumps(self) -> str:
        """Canonical serialized form; identical inputs give identical bytes."""
        return json.dumps(self.to_json_dict(), sort_keys=True, indent=2) + "\n"


def load_bundle(data: dict) -> DesignBundle:
    """Rebuild a DesignBundle from its JSON dict (inverse of to_json_dict)."""
    if data.get("schema") != SCHEMA_VERSION:
        raise ValueError(f"unsupported bundle schema: {data.get('schema')!r}")
    f = data["field"]
    ctx = field_new(f["p"], f["s"], f["ell"], tuple(f["modulus"]))
    k = data["code"]["k"]
    q = data["q"]
    seeds = []
    schemes = []
    counts = []
    for entry in data["seeds"]:
        seed = span(ctx, q, entry["basis"])
        seeds.append(seed)
        schemes.append(SeedScheme(ctx, seed, k, entry["scheme"]["u"]))
        counts.append(entry["coset_count"])
    mhs = HittingResult(
        data["mhs"]["size"], tuple(data["mhs"]["witness"]), data["mhs"]["method"]
    )
    if len(mhs.witness) != mhs.size:
        raise ValueError(
            f"bundle mhs witness has {len(mhs.witness)} points, size says {mhs.size}"
        )
    if data.get("tolerance") != mhs.tolerance:
        raise ValueError(
            f"bundle tolerance {data.get('tolerance')!r} is not mhs size - 1 = "
            f"{mhs.tolerance}"
        )
    b = data["bounds"]
    orbits = None
    if data.get("orbits"):
        o = data["orbits"]
        reps = tuple(span(ctx, q, basis) for basis in o["representatives"])
        orbits = OrbitReport(
            o["q"],
            o["ell"],
            o["delta"],
            {int(m): n for m, n in o["counts_by_base"].items()},
            o["orbit_count"],
            reps,
            tuple(
                (q ** o["ell"] - 1) // (q ** base_of(rep) - 1) for rep in reps
            ),
        )
    return DesignBundle(
        ctx,
        k,
        data["delta"],
        data["mode"],
        tuple(seeds),
        tuple(schemes),
        tuple(counts),
        mhs,
        BoundsReport(b["lower"], b["upper"], b["exact"], b["case"]),
        orbits,
        data["config"],
    )


def _validate_code(ctx: FieldCtx, k: int, delta: int) -> None:
    n = ctx.order
    if not 1 <= k < n:
        raise ValueError(f"need 1 <= k < n = {n}, got k = {k}")
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
    search_budget: int = DEFAULT_SEARCH_BUDGET,
    rng_seed: int = 0,
) -> DesignBundle:
    """Design with one seed: groups, exact tolerance, bounds, repair scheme."""
    ctx = field_new(p, s, ell, modulus)
    q = ctx.q
    if seed_basis is not None:
        seed = span(ctx, q, list(seed_basis))
        if seed.dim == 0:
            raise ValueError("seed basis spans only the trivial subspace")
    else:
        if delta is None:
            raise ValueError("give either seed_basis or delta")
        seed = _seed_from_strategy(ctx, delta, strategy)
    _validate_code(ctx, k, seed.dim)
    family = coset_family([seed])
    mhs = min_hitting_set(family)
    bnd = bounds_for_seed(seed)
    if mhs.method == "exact" and not (
        bnd.lower <= mhs.size <= bnd.upper
        and (bnd.exact is None or mhs.size == bnd.exact)
    ):
        raise InvariantError(
            f"solver found |MHS| = {mhs.size}, outside bounds "
            f"[{bnd.lower}, {bnd.upper}] or off exact value {bnd.exact}"
        )
    scheme = search_seed_scheme(ctx, seed, k, search_budget, rng_seed=rng_seed)
    config = {
        "strategy": None if seed_basis is not None else strategy,
        "seed_basis": sorted(seed.basis),
        "search_budget": search_budget,
        "rng_seed": rng_seed,
        "group_selection": "first-intact",
    }
    return DesignBundle(
        ctx,
        k,
        seed.dim,
        "single-seed",
        (seed,),
        (scheme,),
        (len(family.sets),),
        mhs,
        bnd,
        None,
        config,
    )


def design_multi_seed(
    p: int,
    s: int,
    ell: int,
    k: int,
    delta: int,
    *,
    modulus=None,
    search_budget: int = DEFAULT_SEARCH_BUDGET,
    rng_seed: int = 0,
) -> DesignBundle:
    """Design from one seed per scaling orbit; tolerance attains the bound.

    The union of the representatives' coset families is every
    delta-dimensional subspace (punctured).  Any (ell-delta+1)-dimensional
    subspace U meets each of them in at least a line, so one point per
    F_q-line of U hits the family, and by the Bose-Burton bound no smaller
    set does: |MHS| = (q^(ell-delta+1) - 1)/(q - 1).  U is spanned by
    z^0, ..., z^(ell-delta) for the field generator z; the witness is
    checked against every set before it is returned.
    """
    ctx = field_new(p, s, ell, modulus)
    q = ctx.q
    _validate_code(ctx, k, delta)
    report = orbit_decomposition(ctx, q, delta)
    seeds = report.representatives
    family = coset_family(list(seeds))
    if len(family.sets) != gaussian_coefficient(ctx.ell, delta, q):
        raise InvariantError(
            f"{len(family.sets)} coset sets, expected every one of the "
            f"{gaussian_coefficient(ctx.ell, delta, q)} {delta}-subspaces"
        )
    expected = (q ** (ctx.ell - delta + 1) - 1) // (q - 1)
    U = span(ctx, q, [ctx.exp(i) for i in range(ctx.ell - delta + 1)])
    scalars = ctx.subfield_elements(ctx.subfield_degree(q))[1:]
    witness = tuple(
        sorted({min(ctx.mul(c, v) for c in scalars) for v in U.members if v})
    )
    if len(witness) != expected or any(
        g.isdisjoint(witness) for g in family.sets
    ):
        raise InvariantError(
            f"line-cover witness of {len(witness)} points does not attain "
            f"the Bose-Burton value {expected} on the orbit family"
        )
    mhs = HittingResult(expected, witness, "exact")
    schemes = tuple(
        search_seed_scheme(ctx, seed, k, search_budget, rng_seed=rng_seed)
        for seed in seeds
    )
    counts = tuple(
        (q**ctx.ell - 1) // (q ** base_of(seed) - 1) for seed in seeds
    )
    bnd = BoundsReport(
        bounds_for_seed(seeds[0]).lower if seeds else 1,
        expected,
        expected,
        "multi-seed-orbit-cover",
    )
    config = {
        "strategy": "orbit-representatives",
        "search_budget": search_budget,
        "rng_seed": rng_seed,
        "group_selection": "first-intact",
    }
    return DesignBundle(
        ctx,
        k,
        delta,
        "multi-seed",
        seeds,
        schemes,
        counts,
        mhs,
        bnd,
        report,
        config,
    )


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
    ell_q = ctx.ell
    bandwidth_table = {
        "centralized_total": bundle.k * ell_q + max(e - 1, 0) * ell_q,
        "decentralized_per_repair_mean": per_repair,
        "decentralized_total": e * per_repair if per_repair is not None else None,
        "naive_decentralized_total": e * bundle.k * ell_q,
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
        "centralized_total": k * ell + (e - 1) * ell,
        "decentralized_formula_total": e * k * ell * (1.0 - saving),
        "decentralized_measured_total": measured,
        "naive_decentralized_total": e * k * ell,
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
