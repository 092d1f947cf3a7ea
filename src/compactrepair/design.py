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
checks the witness it read, then the rest as a design does (_check_certificate).

Every design's witness comes from hitting.min_hitting_set, which makes and
checks it once.  Multi-seed designs take one seed per scaling orbit, so
their family is every delta-subspace, which it hits by formula with no
solver: one point per F_q-line of an (ell-delta+1)-dimensional subspace.

The failure simulator draws e-failure patterns (exhaustively up to
DEFAULT_EXHAUSTIVE_THRESHOLD patterns, else Monte Carlo on a counter-based
Philox stream) and reports the fraction of patterns leaving at least one
intact group, plus a centralized-vs-decentralized bandwidth table.
Replacement nodes pick the first intact group in family order; that policy
is recorded in the bundle config.  A bundle computes its groups around 0
once; the simulator shifts each pattern by -a* instead of building the
groups around a*.  Patterns are scanned in chunks of
bounded size, each chunk walking the groups once in family order and
testing all its pending patterns against a group at a time.  Monte Carlo
draws a chunk's patterns by Floyd's algorithm run across its trials, one
gen.integers call per failed point, and reports a 95% Clopper-Pearson
interval on the survival.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass
from functools import cached_property
from itertools import chain, combinations, islice
from math import comb

import numpy as np

from . import __version__
from .errors import InvariantError
from .gf import FieldCtx, field_new, is_integer
from .hitting import BoundsReport, HittingResult, bounds, bounds_for_seed, min_hitting_set
from .orbits import CosetFamily, OrbitReport, coset_family, orbit_decomposition
from .repair import SeedScheme, _check_k, search_seed_scheme
from .subspaces import Subspace, _check_delta, enumerate_subspaces, gaussian_coefficient, span

TOOL_NAME = "compactrepair"
SCHEMA_VERSION = 1
DEFAULT_EXHAUSTIVE_THRESHOLD = 10**7
# Failed points held per scan chunk, and cells of the Monte Carlo sampler's
# taken matrix, whatever the pattern count.
_CHUNK_POINTS = 1 << 16
_CHUNK_CELLS = 1 << 22
_ABSENT = object()

# The JSON shape of a bundle's inputs; load_bundle reads nothing else.
_INPUTS = {
    "field": {"p": int, "s": int, "ell": int, "modulus": [int]},
    "code": {"k": int},
    "mode": ("single-seed", "multi-seed"),
    "seeds": [{"basis": [int], "scheme": {"u": [[int]]}}],
    "mhs": {"witness": [int], "method": ("exact", "greedy-upper-only")},
    "config": dict,  # of JSON scalars or arrays of scalars
}


@dataclass(frozen=True)
class DesignBundle:
    """Serializable design artifact: the fields are the inputs, derived values properties.

    Each scheme holds its seed subspace, the field and k, so ctx, k and
    seeds are read from the schemes, which must agree on the field and k
    (each has 1 <= k < |S| already).
    """

    mode: str  # "single-seed" | "multi-seed"
    schemes: tuple[SeedScheme, ...]
    mhs: HittingResult
    config: dict

    def __post_init__(self):
        dims = [scheme.subspace.dim for scheme in self.schemes]
        if len(set(dims)) != 1 or (self.mode == "single-seed" and len(dims) != 1):
            raise ValueError(f"a {self.mode} bundle cannot have seeds of dimensions {dims}")
        if any(s.ctx is not self.ctx or s.k != self.k for s in self.schemes):
            raise ValueError("a bundle's schemes must share one field and one k")

    @property
    def ctx(self) -> FieldCtx:
        return self.schemes[0].ctx

    @property
    def k(self) -> int:
        return self.schemes[0].k

    @property
    def seeds(self) -> tuple[Subspace, ...]:
        return tuple(scheme.subspace for scheme in self.schemes)

    @property
    def n(self) -> int:
        return self.ctx.order

    @property
    def delta(self) -> int:
        return self.seeds[0].dim

    @property
    def tolerance(self) -> int:
        return self.mhs.tolerance

    @cached_property
    def bounds(self) -> BoundsReport:
        """The seed's sandwich; a multi-seed design attains its upper end."""
        if self.mode == "single-seed":
            return bounds_for_seed(self.seeds[0])
        b = bounds(self.ctx.q, self.ctx.ell, self.delta)
        return BoundsReport(b.lower, b.upper, b.upper, "multi-seed-orbit-cover")

    @cached_property
    def orbits(self) -> OrbitReport | None:
        """The orbit report whose representatives are the seeds."""
        return None if self.mode == "single-seed" else OrbitReport(self.seeds)

    @cached_property
    def family(self) -> CosetFamily:
        """The coset family of the seeds, built once per bundle."""
        return coset_family(self.seeds)

    @cached_property
    def _groups_at_zero(self) -> tuple[np.ndarray, list[int]]:
        """The groups b*S* in family order, a row of points each, and their bandwidths.

        x -> x + a* carries them onto the groups a* + b*S* around any a*, in
        the same order and with the same seeds.
        """
        family = self.family
        bandwidths = [self.schemes[t].bandwidth for t in family.seed_index]
        return np.concatenate(family.blocks(), dtype=np.intp), bandwidths  # intp indexes fastest

    def to_json_dict(self) -> dict:
        ctx, bnd, orbits = self.ctx, self.bounds, self.orbits
        body = {
            "schema": SCHEMA_VERSION,
            "field": {
                "p": ctx.p,
                "s": ctx.s,
                "ell": ctx.ell,
                "modulus": list(ctx.modulus),
            },
            "code": {"n": self.n, "k": self.k},
            "q": ctx.q,
            "delta": self.delta,
            "mode": self.mode,
            "seeds": [
                {
                    "basis": seed.to_json(),
                    "base_m": seed.base,
                    "coset_count": seed.coset_count,
                    "scheme": {
                        "u": [list(ui) for ui in scheme.u],
                        "bandwidth": scheme.bandwidth,
                    },
                }
                for seed, scheme in zip(self.seeds, self.schemes)
            ],
            "mhs": {
                "size": self.mhs.size,
                "method": self.mhs.method,
                "witness": list(self.mhs.witness),
            },
            "tolerance": self.tolerance,
            "bounds": {
                "lower": bnd.lower,
                "upper": bnd.upper,
                "exact": bnd.exact,
                "case": bnd.case,
            },
            "orbits": None if orbits is None else orbits.to_json_dict(),
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
        if shape[0] is int and set(map(type, value)) <= {int}:
            return  # one pass in C; the walk below only names a bad element
        for i, item in enumerate(value):
            _check_shape(item, shape[0], f"{path}[{i}]")
    elif type(shape) is tuple:
        if value not in shape:
            raise ValueError(f"{path} must be one of {', '.join(shape)}")
    elif type(value) is not shape:
        raise ValueError(f"{path} must be a JSON {shape.__name__}")


def _disagreements(stored, derived, shape=None) -> list[str]:
    """Paths below two JSON values (".key", "[i]", "" for the values) at which they differ.

    They differ in value or type: 1 == 1.0 == True, so values are compared
    node by node with their types, except where shape, the part of _INPUTS
    at these values, is a list of ints or of int lists.  There
    _check_shape has made every stored element an int, as every derived
    one is by construction, and one == compares the whole list.  Paths are
    built only where the values differ.
    """
    if type(shape) is list and type(shape[0]) is not dict and stored == derived:
        return []
    if type(stored) is type(derived) is dict:
        inner = shape if type(shape) is dict else {}
        keys = sorted(stored.keys() | derived.keys())
        pairs = [(k, stored.get(k, _ABSENT), derived.get(k, _ABSENT)) for k in keys]
        return [f".{k}{p}" for k, a, b in pairs for p in _disagreements(a, b, inner.get(k))]
    if type(stored) is type(derived) is list and len(stored) == len(derived):
        inner = shape[0] if type(shape) is list else None
        pairs = enumerate(zip(stored, derived))
        return [f"[{i}]{p}" for i, (a, b) in pairs for p in _disagreements(a, b, inner)]
    return [] if type(stored) is type(derived) and stored == derived else [""]


def load_bundle(data) -> DesignBundle:
    """Rebuild a DesignBundle from its inputs and check everything else.

    The bundle the inputs determine must serialize to the stored dict,
    provenance.tool aside, its witness hit every group, and the bundle pass
    _check_certificate.  Malformed or inconsistent input raises ValueError.
    """
    if type(data) is not dict:
        raise ValueError("bundle must be a JSON object")
    if data.get("schema") != SCHEMA_VERSION:
        raise ValueError(f"unsupported bundle schema: {data.get('schema')!r}")
    _check_shape(data, _INPUTS)
    # A flat config cannot nest deep enough to overflow hashing or comparing it.
    for key, value in data["config"].items():
        if any(type(v) in (dict, list) for v in (value if type(value) is list else [value])):
            raise ValueError(f"bundle.config.{key} must be a JSON scalar or an array of scalars")
    f, k, entries = data["field"], data["code"]["k"], data["seeds"]
    ctx = field_new(f["p"], f["s"], f["ell"], f["modulus"])
    schemes = tuple(
        SeedScheme(span(ctx, ctx.q, entry["basis"]), k, entry["scheme"]["u"]) for entry in entries
    )
    mhs = HittingResult(tuple(data["mhs"]["witness"]), data["mhs"]["method"])
    bundle = DesignBundle(data["mode"], schemes, mhs, data["config"])
    bad = [p[1:] for p in _disagreements(data, bundle.to_json_dict(), _INPUTS)]
    bad = [path for path in bad if path != "provenance.tool"]
    if bad:
        raise ValueError(
            "bundle values disagree with those its inputs (field, code.k, mode, seed "
            "bases and u, mhs.witness and method, config) determine: " + ", ".join(bad)
        )
    witness = mhs.witness  # an empty one passes here, and misses a group below
    low, high = min(witness, default=1), max(witness, default=0)
    if len(set(witness)) != len(witness) or low < 1 or high >= bundle.n:
        raise ValueError("mhs witness must list distinct nonzero field elements")
    missed = bundle.family.first_miss(witness)
    if missed is not None:
        seed = bundle.seeds[missed].to_json()
        raise ValueError(f"mhs witness misses a group of seed {missed} {seed}")
    _check_certificate(bundle, ValueError)
    return bundle


def _check_certificate(bundle: DesignBundle, error: type[Exception]) -> None:
    """Raise error unless |MHS| is on the bounds and a multi-seed family is every subspace.

    The witness is checked where it is made (min_hitting_set) or read
    (load_bundle), not here.  Every scheme is full-rank already, since
    SeedScheme accepts no other.  Any method's size lies in the sandwich,
    and where the bounds fix |MHS| the method is exact and the size that
    value.  A generic seed's size is only checked against its bounds;
    minimality is not re-proved.
    """
    mhs, bnd, family = bundle.mhs, bundle.bounds, bundle.family
    if not bnd.lower <= mhs.size <= bnd.upper or bnd.exact not in (None, mhs.size):
        raise error(f"{mhs.method} |MHS| = {mhs.size} is off the bounds {bnd}")
    if bnd.exact is not None and mhs.method != "exact":
        raise error(f"the bounds fix |MHS| = {bnd.exact}, so its method must be exact")
    if bundle.mode == "multi-seed":
        expected = gaussian_coefficient(bundle.ctx.ell, bundle.delta, bundle.ctx.q)
        if len(family) != expected or len(family.kept) != len(bundle.seeds):  # one seed per orbit
            raise error(
                f"multi-seed coset sets are not all {expected} {bundle.delta}-subspaces, once each"
            )


def _seed_from_strategy(ctx: FieldCtx, delta: int, strategy: str) -> Subspace:
    if strategy == "subfield-coset":
        if ctx.ell % delta:
            raise ValueError(
                f"strategy 'subfield-coset' needs delta | ell, got "
                f"delta={delta}, ell={ctx.ell}"
            )
        gamma = ctx.exp((ctx.order - 1) // (ctx.q**delta - 1))
        return span(ctx, ctx.q, [ctx.pow(gamma, i) for i in range(delta)])
    if strategy == "first":
        return next(enumerate_subspaces(ctx, ctx.q, delta))
    raise ValueError(f"unknown seed strategy: {strategy!r}")


def design_single_seed(
    p: int,
    s: int,
    ell: int,
    k: int,
    *,
    seed_basis=None,
    delta: int | None = None,
    strategy: str | None = None,
    modulus=None,
    rng_seed: int = 0,
) -> DesignBundle:
    """Design with one seed: groups, exact tolerance, bounds, repair scheme.

    The seed is spanned by seed_basis, or picked for delta by strategy
    (None means "subfield-coset"); seed_basis excludes the other two.  The
    scheme is search_seed_scheme's closed form.  rng_seed is accepted for
    earlier callers and ignored; it is not written to the config.
    """
    ctx = field_new(p, s, ell, modulus)
    if seed_basis is not None:
        if delta is not None or strategy is not None:
            raise ValueError("seed_basis fixes the seed; drop delta and strategy")
        seed = span(ctx, ctx.q, list(seed_basis))
        _check_delta(ctx.q, ctx.ell, seed.dim)
        _check_k(ctx, ctx.q**seed.dim, k)
    else:
        if delta is None:
            raise ValueError("give either seed_basis or delta")
        _check_delta(ctx.q, ctx.ell, delta)  # before any orbit enumeration or solve
        _check_k(ctx, ctx.q**delta, k)
        strategy = "subfield-coset" if strategy is None else strategy
        seed = _seed_from_strategy(ctx, delta, strategy)
    config = {
        "strategy": strategy,
        "seed_basis": sorted(seed.basis),
        "group_selection": "first-intact",
    }
    return _design("single-seed", (seed,), k, config)


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

    The representatives' coset families make up every delta-subspace
    (punctured), so |MHS| = (q^(ell-delta+1) - 1)/(q - 1) by the Bose-Burton
    bound, and min_hitting_set gives it by formula.  Each seed's scheme is
    search_seed_scheme's closed form; rng_seed is accepted for earlier
    callers and ignored, and it is not written to the config.
    """
    ctx = field_new(p, s, ell, modulus)
    _check_delta(ctx.q, ctx.ell, delta)  # before any orbit enumeration or solve
    _check_k(ctx, ctx.q**delta, k)
    seeds = orbit_decomposition(ctx, delta).representatives
    config = {"strategy": "orbit-representatives", "group_selection": "first-intact"}
    return _design("multi-seed", seeds, k, config)


def _design(mode: str, seeds, k: int, config: dict) -> DesignBundle:
    """The bundle of seeds: one coset family, its checked witness, a scheme per seed."""
    family = coset_family(seeds)
    mhs = min_hitting_set(family)
    schemes = tuple(search_seed_scheme(seed, k) for seed in seeds)
    bundle = DesignBundle(mode, schemes, mhs, config)
    vars(bundle)["family"] = family  # the cached family is the one just solved
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
    survived_interval: tuple[float, float] | None = None  # Monte Carlo only

    def to_json_dict(self) -> dict:
        return asdict(self)


def simulate_failures(
    bundle: DesignBundle,
    alpha_star: int,
    e: int,
    mode: str = "auto",
    trials: int = 10000,
    rng_seed: int | None = None,
) -> SimReport:
    """Fraction of e-failure patterns that leave the symbol repairable.

    Patterns are e-subsets of the other n-1 nodes.  Exhaustive when the
    pattern count is within DEFAULT_EXHAUSTIVE_THRESHOLD; otherwise Monte
    Carlo, which requires rng_seed (the key of a counter-based Philox
    stream) and reports a 95% Clopper-Pearson interval on the survival.
    A given rng_seed must lie in [0, 2**128), in either mode.
    """
    ctx = bundle.ctx
    n = ctx.order
    ctx._check(alpha_star, "alpha_star")
    if not (is_integer(e) and 0 <= e < n):
        raise ValueError(f"need an integer 0 <= e < n = {n}, got e = {e}")
    if rng_seed is not None and not is_integer(rng_seed):
        raise ValueError(f"need an integer rng_seed, got rng_seed = {rng_seed}")
    if rng_seed is not None and not 0 <= rng_seed < 2**128:
        raise ValueError(f"need 0 <= rng_seed < 2**128, got {rng_seed}")
    # Patterns shifted by -a* meet the groups around 0 exactly where they
    # met the groups around a*.
    universe = _shifted_universe(ctx, alpha_star)
    total = comb(n - 1, e)
    if mode == "auto":
        mode = "exhaustive" if total <= DEFAULT_EXHAUSTIVE_THRESHOLD else "monte-carlo"
    if mode not in ("exhaustive", "monte-carlo"):
        raise ValueError(f"unknown mode: {mode!r}")
    if mode == "exhaustive" and total > DEFAULT_EXHAUSTIVE_THRESHOLD:
        raise ValueError(
            f"{total} patterns exceed the exhaustive threshold "
            f"{DEFAULT_EXHAUSTIVE_THRESHOLD}; use monte-carlo"
        )
    if mode == "exhaustive":
        evaluated = total
        chunks = _all_patterns(universe.tolist(), e, total)
    else:
        if rng_seed is None:
            raise ValueError("monte-carlo mode requires rng_seed")
        if not (is_integer(trials) and trials >= 1):
            raise ValueError(f"monte-carlo mode needs an integer trials >= 1, got {trials}")
        gen = np.random.Generator(np.random.Philox(key=rng_seed))
        evaluated = trials
        chunks = _sampled_patterns(gen, universe, e, trials)
    survived, bw_sum = _first_intact_scan(chunks, *bundle._groups_at_zero, n)
    frac = survived / evaluated if evaluated else 1.0
    per_repair = (bw_sum / survived) if survived else None
    bandwidth_table = {
        **_repair_totals(bundle.k, ctx.ell, e),
        "decentralized_per_repair_mean": per_repair,
        "decentralized_total": e * per_repair if per_repair is not None else None,
    }
    interval = _clopper_pearson(survived, trials) if mode == "monte-carlo" else None
    return SimReport(
        e,
        mode,
        evaluated,
        frac,
        1.0 - frac,
        bandwidth_table,
        "first-intact",
        rng_seed,
        interval,
    )


def _shifted_universe(ctx: FieldCtx, alpha_star: int) -> np.ndarray:
    """x - a* for every element x != a*, in ascending x."""
    x = np.arange(ctx.order, dtype=np.intp)
    return ctx.add_array(x[x != alpha_star], ctx.neg(alpha_star))


def _chunk_size(e: int) -> int:
    """Patterns per chunk: about _CHUNK_POINTS failed points, at least one pattern."""
    return max(1, _CHUNK_POINTS // max(e, 1))


def _all_patterns(universe: list[int], e: int, total: int):
    """Every e-subset of universe in combinations order, in (e, count) chunks.

    Each column is one pattern; the scan reduces over axis 0, which numpy
    does fastest on this layout.
    """
    combos = combinations(universe, e)
    size = _chunk_size(e)
    for start in range(0, total, size):
        count = min(size, total - start)
        flat = np.fromiter(chain.from_iterable(islice(combos, count)), np.intp, count * e)
        yield np.ascontiguousarray(flat.reshape(count, e).T)


def _sampled_patterns(gen: np.random.Generator, universe: np.ndarray, e: int, trials: int):
    """trials uniform e-subsets of universe, in (e, count) chunks.

    Floyd's algorithm, run across a chunk of trials at once: for j from
    N-e to N-1 it draws t uniform in [0, j] for every trial (one
    gen.integers call) and takes index j instead where the trial already
    holds t.  A trials-by-N taken matrix makes that test one lookup.
    """
    points = np.asarray(universe)
    N = len(points)
    size = max(1, min(_chunk_size(e), _CHUNK_CELLS // N))
    taken = np.zeros((size, N), dtype=bool)
    for start in range(0, trials, size):
        count = min(size, trials - start)
        trial = np.arange(count)
        picks = np.empty((e, count), np.intp)
        for i, j in enumerate(range(N - e, N)):
            t = gen.integers(0, j + 1, size=count)
            t[taken[trial, t]] = j
            taken[trial, t] = True
            picks[i] = t
        taken[trial, picks] = False
        yield points[picks]


def _first_intact_scan(chunks, group_points, group_bw, n: int) -> tuple[int, int]:
    """Patterns that miss some group, and their summed first-intact bandwidth.

    Each chunk walks the groups in family order: a group's points are
    marked in a length-n vector, every pending pattern (a column) is tested
    against it at once, and the patterns that miss it survive at its
    bandwidth and leave the pending set.
    """
    member = np.zeros(n, dtype=bool)
    survived = bw_sum = 0
    for pending in chunks:
        for points, bw in zip(group_points, group_bw):
            if not pending.shape[1]:
                break
            member[points] = True
            hit = member[pending].any(axis=0)
            member[points] = False
            alive = pending.shape[1] - int(np.count_nonzero(hit))
            survived += alive
            bw_sum += alive * bw
            pending = pending.compress(hit, axis=1)
    return survived, bw_sum


def _clopper_pearson(x: int, trials: int) -> tuple[float, float]:
    """Two-sided 95% Clopper-Pearson interval for x successes in trials.

    scipy.special is imported here, by the first Monte Carlo run, not with
    this module.
    """
    from scipy.special import betaincinv

    lower = betaincinv(x, trials - x + 1, 0.025) if x else 0.0
    upper = betaincinv(x + 1, trials - x, 0.975) if x < trials else 1.0
    return float(lower), float(upper)


def _repair_totals(k: int, ell: int, e: int) -> dict:
    """The centralized and naive totals of bandwidth_comparison; e may be 0."""
    return {"centralized_total": (k + max(e - 1, 0)) * ell, "naive_decentralized_total": e * k * ell}


def bandwidth_comparison(
    n: int,
    k: int,
    ell: int,
    e: int,
    scheme_bandwidths=None,
) -> dict:
    """Centralized repair cost vs decentralized trace-repair cost.

    Centralized: one repair node downloads k symbols and redistributes, at
    k*ell + (e-1)*ell subfield symbols total.  Naive decentralized: each of
    the e replacement nodes downloads k full symbols.  e counts failed
    nodes, so 1 <= e < n.  Measured per-repair bandwidths may be given (one
    value for every repair, or one per repair, non-negative integers all);
    their total is decentralized_measured_total.
    """
    for name, value in (("n", n), ("k", k), ("ell", ell), ("e", e)):
        if not is_integer(value):
            raise ValueError(f"need an integer {name}, got {name} = {value}")
    if not 1 <= k < n:
        raise ValueError(f"need 1 <= k < n, got k = {k}, n = {n}")
    if ell < 1:
        raise ValueError(f"need ell >= 1, got {ell}")
    if not 1 <= e < n:
        raise ValueError(f"need 1 <= e < n = {n}, got e = {e}")
    measured = None
    if scheme_bandwidths is not None:
        bws = list(scheme_bandwidths)
        if len(bws) not in (1, e):
            raise ValueError(f"need 1 or {e} scheme bandwidths, got {len(bws)}")
        if not all(is_integer(bw) and bw >= 0 for bw in bws):
            raise ValueError(f"scheme bandwidths must be non-negative integers, got {bws}")
        measured = bws[0] * e if len(bws) == 1 else sum(bws)
    return {
        "n": n,
        "k": k,
        "ell": ell,
        "e": e,
        **_repair_totals(k, ell, e),
        "decentralized_measured_total": measured,
    }


def verify_reference_example(modulus=None) -> dict:
    """Golden checks for the bundled GF(16), k=2 reference design.

    Runs the full pipeline on the two reference seeds and compares every
    known value: the five helper groups around a repaired point, coset
    counts, exact hitting-set sizes, and tolerances.  A modulus override
    exists to demonstrate divergence: the golden group listing only holds
    for x^4 + x + 1.
    """
    ctx = field_new(2, 1, 4, modulus)
    z = ctx.generator
    first = span(ctx, 2, [ctx.exp(2), ctx.exp(7)])
    second = span(ctx, 2, [ctx.exp(4), ctx.exp(5)])
    expected_groups = [
        [ctx.exp(j) for j in (1, 13, 14)],
        [ctx.exp(j) for j in (11, 4, 7)],
        [ctx.exp(j) for j in (8, 6, 12)],
        [ctx.exp(10), 0, ctx.exp(0)],
        [ctx.exp(j) for j in (2, 9, 3)],
    ]
    first_family = coset_family([first])
    # the groups around z^5 are those around 0 translated by z^5
    got_groups = [
        row for block in first_family.blocks() for row in ctx.add_array(block, ctx.exp(5)).tolist()
    ]
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
        sorted(sorted(g) for g in got_groups),
    )
    check("first-seed-coset-count", 5, len(first_family))
    check("first-seed-mhs-size", 5, first_mhs.size)
    check("first-seed-tolerance", 4, first_mhs.size - 1)
    check("second-seed-coset-count", 15, len(second_family))
    check("second-seed-mhs-size", 6, second_mhs.size)
    check("second-seed-tolerance", 5, second_mhs.size - 1)
    check("first-seed-subfield-coset-value", 5, bounds_for_seed(first).exact)

    failures = [c["name"] for c in checks if not c["passed"]]
    return {
        "field": {"p": 2, "s": 1, "ell": 4, "modulus": list(ctx.modulus)},
        "generator": z,
        "checks": checks,
        "check_count": len(checks),
        "all_pass": not failures,
        "first_divergence": failures[0] if failures else None,
    }
