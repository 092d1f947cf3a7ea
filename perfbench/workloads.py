"""The four benchmark workloads.

Each workload is a closed loop driven from one process and one thread: the
next op starts only when the previous one has returned and been checked.
Inputs come from ``random.Random`` seeded with the workload seed, so a seed
fixes every op.  A workload is built from

* ``setup(seed, scratch)``: everything done before the first timed op
  (field builds, bundles designed for staging, cache warm-up); returns a
  state whose ``contexts`` are the field contexts the ops use;
* ``round(state, rng, tally)``: a generator of ``(run, check)`` pairs.
  Only ``run`` is timed.  ``check(result)`` returns whether the output is
  correct and adds to ``tally`` (repair symbols downloaded, patterns).
  A round is the unit of work the runner repeats; it ends only on a round
  boundary so that every run sees the same op mix.

The library is called through its module attributes (``design.load_bundle``
rather than a name imported here), which is where the tracer hooks in.
"""

from __future__ import annotations

import json
import os
from itertools import combinations
from math import comb

import compactrepair.cli as cli
import compactrepair.design as design
import compactrepair.gf as gf
import compactrepair.hitting as hitting
import compactrepair.orbits as orbits
import compactrepair.repair as repair
import compactrepair.subspaces as subspaces


class State:
    def __init__(self, contexts, **items):
        self.contexts = list(contexts)
        self.__dict__.update(items)


def _warm(ctx):
    """Fill the per-context trace and coordinate caches the ops read."""
    m = ctx.subfield_degree(ctx.q)
    for x in ctx.elements():
        ctx.trace_to_subfield(x, m)
        ctx.coords(x, m)


def _full_download(seed_subspace) -> int:
    return (len(seed_subspace.members) - 1) * seed_subspace.ell


# ----------------------------------------------------------------------
# tolerance-sweep
# ----------------------------------------------------------------------


class ToleranceSweep:
    """One op certifies one delta-subspace: span, coset family, exact |MHS|.

    A round is one sweep over every delta-subspace of the fields below in
    an order shuffled by the seed.  min_hitting_set runs once per distinct
    family in a sweep; the other ops with that family reuse its result.
    GF(64) at delta = 3 is left out: it alone costs about 38 s.
    """

    name = "tolerance-sweep"
    op_unit = "delta-subspace certified"
    trace_rounds = 1
    # (p, s, ell, deltas)
    FIELDS = ((2, 1, 4, (1, 2, 3)), (2, 1, 5, (2, 3)), (2, 1, 6, (2, 4)), (3, 1, 4, (2,)))

    def setup(self, seed, scratch):
        contexts = []
        items = []
        for p, s, ell, deltas in self.FIELDS:
            ctx = gf.field_new(p, s, ell)
            _warm(ctx)
            contexts.append(ctx)
            for delta in deltas:
                for S in subspaces.enumerate_subspaces(ctx, ctx.q, delta):
                    items.append((ctx, delta, S.basis))
        return State(contexts, items=items)

    def round(self, state, rng, tally):
        order = list(range(len(state.items)))
        rng.shuffle(order)
        solved = {}
        for i in order:
            ctx, delta, basis = state.items[i]

            def run(ctx=ctx, basis=basis):
                S = subspaces.span(ctx, ctx.q, basis)
                family = orbits.coset_family([S])
                key = frozenset(family.sets)
                res = solved.get(key)
                if res is None:
                    res = solved[key] = hitting.min_hitting_set(family)
                return S, res, hitting.bounds_for_seed(S)

            def check(out, ctx=ctx, delta=delta):
                S, res, bnd = out
                plain = hitting.bounds(ctx.q, S.ell, delta)
                return (
                    S.dim == delta
                    and res.method == "exact"
                    and res.tolerance == res.size - 1
                    and (bnd.lower, bnd.upper) == (plain.lower, plain.upper)
                    and bnd.lower <= res.size <= bnd.upper
                    and (bnd.exact is None or res.size == bnd.exact)
                )

            yield run, check


# ----------------------------------------------------------------------
# design-session
# ----------------------------------------------------------------------


def _design(q, ell, k_range, *extra):
    def argv(rng):
        k = rng.randint(*k_range)
        return ["design", "--q", str(q), "--ell", str(ell), "--k", str(k), *extra,
                "--rng-seed", str(rng.randrange(1000))]

    return "design", argv


def _fixed(kind, *args):
    return kind, lambda rng: [kind, *args]


class DesignSession:
    """One op is one in-process CLI invocation, as a designer would run it.

    A round is one deck: every template below once, in a shuffled order,
    with --k and --rng-seed drawn from the seed.  Designs write their bundle
    with -o and read it back with load_bundle.
    """

    name = "design-session"
    op_unit = "CLI invocation"
    trace_rounds = 1
    DECK = (
        _design(2, 12, (2, 5), "--delta", "3"),
        _design(2, 12, (2, 5), "--delta", "4"),
        _design(3, 8, (2, 5), "--delta", "2"),
        _design(3, 4, (2, 5), "--delta", "2"),
        _design(4, 3, (2, 3), "--delta", "1"),
        _design(4, 4, (2, 5), "--delta", "2"),
        _design(4, 6, (2, 5), "--delta", "2"),
        _design(2, 4, (2, 3), "--delta", "2", "--multi-seed"),
        _design(2, 5, (2, 3), "--delta", "2", "--multi-seed"),
        _design(3, 3, (2, 5), "--delta", "2", "--multi-seed"),
        _design(2, 6, (2, 3), "--seed-basis", "1,2"),
        _design(2, 5, (2, 3), "--seed-basis", "1,2"),
        _fixed("field-info", "--q", "2", "--ell", "16"),
        _fixed("field-info", "--q", "3", "--ell", "8"),
        _fixed("field-info", "--q", "5", "--ell", "6"),
        _fixed("orbits", "--q", "2", "--ell", "6", "--delta", "3"),
        _fixed("orbits", "--q", "2", "--ell", "8", "--delta", "2"),
        _fixed("verify-example"),
    )

    def setup(self, seed, scratch):
        return State([], out=os.path.join(scratch, "out.json"))

    def round(self, state, rng, tally):
        deck = list(self.DECK)
        rng.shuffle(deck)
        out = state.out
        for kind, make in deck:
            argv = make(rng) + ["-o", out]
            if os.path.exists(out):
                os.remove(out)

            def run(argv=argv, kind=kind):
                rc = cli.main(argv)
                with open(out) as fh:
                    text = fh.read()
                data = json.loads(text)
                bundle = design.load_bundle(data) if kind == "design" else None
                return rc, text, data, bundle

            def check(result, argv=argv, kind=kind):
                rc, text, data, bundle = result
                if rc != 0:
                    return False
                if kind == "design":
                    return _check_bundle(bundle, text, data, tally)
                if kind == "field-info":
                    q, ell = int(argv[2]), int(argv[4])
                    return data["order"] == q**ell and data["q"] == q
                if kind == "orbits":
                    q, ell, delta = (int(v) for v in argv[2:7:2])
                    return data["orbit_count"] == orbits.orbit_count_formula(
                        q, ell, delta
                    ) and sum(data["counts_by_base"].values()) == (
                        subspaces.gaussian_coefficient(ell, delta, q)
                    )
                return data["all_pass"] is True

            yield run, check


def _check_bundle(bundle, text, data, tally) -> bool:
    size = bundle.mhs.size
    bnd = bundle.bounds
    if bundle.dumps() != text:
        return False
    if data["tolerance"] != size - 1 or bundle.tolerance != size - 1:
        return False
    if bundle.mhs.method != "exact" or not bnd.lower <= size <= bnd.upper:
        return False
    if bnd.exact is not None and size != bnd.exact:
        return False
    for seed, scheme in zip(bundle.seeds, bundle.schemes):
        full = _full_download(seed)
        if not repair.verify_full_rank(scheme) or scheme.bandwidth > full:
            return False
        tally["bw_symbols"] += scheme.bandwidth
        tally["bw_full"] += full
    return True


# ----------------------------------------------------------------------
# repair-traffic
# ----------------------------------------------------------------------


def _repair_bundles():
    return (
        design.design_single_seed(2, 1, 8, 4, delta=4, rng_seed=1),  # GF(256)
        design.design_single_seed(3, 1, 4, 3, delta=2, rng_seed=1),  # GF(81), q=3
        design.design_single_seed(2, 2, 3, 2, delta=1, rng_seed=1),  # GF(64) over F_4
        design.design_multi_seed(2, 1, 5, 2, 2, rng_seed=1),  # GF(32) multi-seed
        design.design_single_seed(3, 1, 6, 3, delta=2, rng_seed=1),  # GF(729), q=3
    )


class RepairTraffic:
    """One op repairs one symbol: dilate, every helper payload, recover.

    Bundles are designed during set-up.  Each op draws a bundle, a seed of
    it, the repaired point a*, the dilation b and a message polynomial of
    degree below k.  Helper symbols are evaluated before the timer starts.
    """

    name = "repair-traffic"
    op_unit = "symbol repaired"
    trace_rounds = 40
    ROUND_OPS = 200

    def setup(self, seed, scratch):
        bundles = _repair_bundles()
        for b in bundles:
            _warm(b.ctx)
        return State([b.ctx for b in bundles], bundles=bundles)

    def round(self, state, rng, tally):
        for _ in range(self.ROUND_OPS):
            bundle = rng.choice(state.bundles)
            ctx = bundle.ctx
            n = ctx.order
            t = rng.randrange(len(bundle.schemes))
            scheme = bundle.schemes[t]
            a = rng.randrange(n)
            b = rng.randrange(1, n)
            f = [rng.randrange(n) for _ in range(bundle.k)]
            helpers = tuple(sorted(ctx.add(a, ctx.mul(b, x)) for x in scheme.helpers))
            stored = {beta: ctx.poly_eval(f, beta) for beta in helpers}
            expected = ctx.poly_eval(f, a)

            def run(scheme=scheme, a=a, b=b, stored=stored):
                rs = repair.dilate_translate(scheme, a, b)
                payloads = [repair.helper_payload(rs, beta, stored[beta]) for beta in rs.helpers]
                return rs, payloads, repair.recover_symbol(rs, payloads)

            def check(out, scheme=scheme, helpers=helpers, expected=expected):
                rs, payloads, value = out
                symbols = sum(len(p.symbols) for p in payloads)
                tally["bw_symbols"] += symbols
                tally["bw_full"] += _full_download(scheme.subspace)
                # Dilation and translation keep the seed's bandwidth.
                return (
                    value == expected
                    and rs.helpers == helpers
                    and symbols == scheme.bandwidth
                )

            yield run, check


# ----------------------------------------------------------------------
# failure-sim
# ----------------------------------------------------------------------


def _sim_bundles():
    return (
        design.design_multi_seed(2, 1, 4, 2, 2, rng_seed=1),  # GF(16), tolerance 6
        design.design_multi_seed(2, 1, 5, 2, 2, rng_seed=1),  # GF(32), tolerance 14
        design.design_single_seed(2, 1, 6, 2, delta=2, rng_seed=1),  # GF(64), 20
        design.design_single_seed(2, 1, 8, 4, delta=4, rng_seed=1),  # GF(256), 16
        design.design_single_seed(3, 1, 4, 3, delta=2, rng_seed=1),  # GF(81), 9
    )


# Per bundle: exhaustive failure counts, then Monte Carlo (offset from the
# tolerance, trials).  Offsets straddle the tolerance so that survival is
# sometimes strictly between 0 and 1 and the first-intact scan runs long.
SIM_DECK = (
    ((5, 6, 7, 8), ((-1, 400), (1, 400), (3, 400))),
    ((3, 4), ((-1, 300), (0, 300), (2, 300), (8, 300))),
    ((), ((-1, 300), (0, 300), (1, 300), (10, 300))),
    ((), ((-1, 300), (0, 300), (1, 300), (24, 300))),
    ((), ((-1, 400), (0, 400), (1, 400), (11, 400))),
)


class FailureSim:
    """One op is one simulate_failures call on a bundle built in set-up.

    A round is one deck: every (bundle, mode, e) of SIM_DECK once, in a
    shuffled order, each at a repaired point drawn from the seed; Monte
    Carlo calls take an rng_seed drawn from the workload seed.  Exhaustive
    counts are compared with an independent brute-force count.
    """

    name = "failure-sim"
    op_unit = "simulate_failures call"
    trace_rounds = 20

    def setup(self, seed, scratch):
        bundles = _sim_bundles()
        for b in bundles:
            _warm(b.ctx)
        return State([b.ctx for b in bundles], bundles=bundles, brute={})

    def round(self, state, rng, tally):
        calls = []
        for bundle, (exhaustive, carlo) in zip(state.bundles, SIM_DECK):
            calls += [(bundle, "exhaustive", e, None) for e in exhaustive]
            calls += [(bundle, "monte-carlo", bundle.tolerance + d, t) for d, t in carlo]
        rng.shuffle(calls)
        for bundle, mode, e, trials in calls:
            alpha = rng.randrange(bundle.n)
            kwargs = {"mode": mode}
            if mode == "monte-carlo":
                kwargs.update(trials=trials, rng_seed=rng.randrange(2**32))

            def run(bundle=bundle, alpha=alpha, e=e, kwargs=kwargs):
                return design.simulate_failures(bundle, alpha, e, **kwargs)

            def check(rep, bundle=bundle, e=e, mode=mode):
                tally["patterns"] += rep.patterns
                surv = rep.survived
                ok = 0.0 <= surv <= 1.0 and rep.failure_probability == 1.0 - surv
                if e <= bundle.tolerance:
                    ok = ok and surv == 1.0
                if mode == "exhaustive":
                    total = comb(bundle.n - 1, e)
                    alive = _brute_survivors(state.brute, bundle, e)
                    ok = ok and rep.patterns == total and surv == alive / total
                    # A minimum hitting set plus any other failures kills it.
                    ok = ok and (surv < 1.0) == (e > bundle.tolerance)
                return ok

            yield run, check


def _brute_survivors(cache, bundle, e) -> int:
    """e-failure patterns leaving some group intact, centred at 0.

    Translation by a* maps the groups around 0 onto the groups around a*,
    and the nodes other than 0 onto the nodes other than a*, so the count
    does not depend on the repaired point.
    """
    key = (id(bundle), e)
    if key not in cache:
        ctx = bundle.ctx
        masks = {
            sum(1 << ctx.mul(b, x) for x in seed.star())
            for seed in bundle.seeds
            for b in range(1, ctx.order)
        }
        alive = 0
        for pattern in combinations(range(1, ctx.order), e):
            failed = sum(1 << v for v in pattern)
            alive += any(not (g & failed) for g in masks)
        cache[key] = alive
    return cache[key]


WORKLOADS = {
    w.name: w for w in (ToleranceSweep, DesignSession, RepairTraffic, FailureSim)
}
