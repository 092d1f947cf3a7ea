"""Per-layer tracing from outside the library.

The tracer replaces the public functions of each compactrepair layer at
every module attribute the library calls them through (for example
``compactrepair.design.min_hitting_set`` and ``compactrepair.hitting.milp``)
with a wrapper that records a span: calls and self time, where self time is the span's duration minus the time of the spans it
caused.  Spans are only recorded while an op is running, so set-up and the
benchmark's own correctness checks stay out of the numbers.  ``add`` and
``mul`` of every FieldCtx the benchmark sees are counted, not timed: they
run millions of times per op and a span each would swamp the result.

Nothing under ``src/`` is modified; ``uninstall`` restores every attribute.
"""

from __future__ import annotations

import importlib
import sys
from time import perf_counter

LAYERS = ("gf", "subspaces", "orbits", "hitting", "repair", "design", "cli")

# (defining module, function) pairs wrapped with a span.
TRACED = (
    ("gf", "field_new"),
    ("subspaces", "span"),
    ("subspaces", "enumerate_subspaces"),
    ("orbits", "coset_family"),
    ("orbits", "orbit_decomposition"),
    ("hitting", "min_hitting_set"),
    ("hitting", "milp"),
    ("repair", "search_seed_scheme"),
    ("repair", "dilate_translate"),
    ("repair", "helper_payload"),
    ("repair", "recover_symbol"),
    ("design", "design_single_seed"),
    ("design", "design_multi_seed"),
    ("design", "load_bundle"),
    ("design", "simulate_failures"),
    ("cli", "main"),
)

GENERATORS = {"subspaces.enumerate_subspaces"}


class Span:
    __slots__ = ("calls", "self_s")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0


class Tracer:
    """Span and counter store for one traced phase of one workload."""

    def __init__(self):
        self.spans = {f"{mod}.{fn}": Span() for mod, fn in TRACED}
        self.counts = {
            "gf.add.calls": 0,
            "gf.mul.calls": 0,
            "subspaces.enumerate_subspaces.yielded": 0,
            "orbits.coset_family.sets": 0,
            "repair.payload_symbols": 0,
            "design.simulate_failures.patterns": 0,
            "hitting.milp.nodes": 0,
        }
        self.milp_calls: list[dict] = []
        self.in_op = False
        self._stack: list[float] = []
        self._arith = [0, 0]  # add, mul calls made by any traced FieldCtx
        self._arith_mark = (0, 0)
        self._restore: list[tuple[object, str, object]] = []
        self._ctx_seen: dict[int, object] = {}

    # -- installation ---------------------------------------------------

    def install(self, contexts=()):
        modules = _library_modules()
        for mod, fn in TRACED:
            name = f"{mod}.{fn}"
            original = getattr(modules[mod], fn)
            wrapper = self._wrap(name, original)
            for module in modules.values():
                if getattr(module, fn, None) is original:
                    self._restore.append((module, fn, original))
                    setattr(module, fn, wrapper)
        for ctx in contexts:
            self.watch_ctx(ctx)

    def uninstall(self):
        for obj, attr, value in reversed(self._restore):
            if value is _ABSENT:
                delattr(obj, attr)
            else:
                setattr(obj, attr, value)
        self._restore.clear()
        self._ctx_seen.clear()

    def watch_ctx(self, ctx):
        """Count add and mul on one field context (idempotent)."""
        if id(ctx) in self._ctx_seen:
            return
        self._ctx_seen[id(ctx)] = ctx
        arith = self._arith
        add = ctx.add
        mul = ctx.mul

        def counted_add(x, y):
            arith[0] += 1
            return add(x, y)

        def counted_mul(x, y):
            arith[1] += 1
            return mul(x, y)

        # add is an instance attribute set by FieldCtx.__init__; mul lives
        # on the class, so the instance attribute shadows it until removed.
        self._restore.append((ctx, "add", add))
        self._restore.append((ctx, "mul", ctx.__dict__.get("mul", _ABSENT)))
        ctx.add = counted_add
        ctx.mul = counted_mul

    # -- op boundaries --------------------------------------------------

    def begin_op(self):
        self._arith_mark = (self._arith[0], self._arith[1])
        self.in_op = True

    def end_op(self):
        self.in_op = False
        self.counts["gf.add.calls"] += self._arith[0] - self._arith_mark[0]
        self.counts["gf.mul.calls"] += self._arith[1] - self._arith_mark[1]

    # -- spans ----------------------------------------------------------

    def _open(self):
        self._stack.append(0.0)
        return perf_counter()

    def _close(self, name, start):
        dur = perf_counter() - start
        child = self._stack.pop()
        span = self.spans[name]
        span.calls += 1
        span.self_s += dur - child
        if self._stack:
            self._stack[-1] += dur
        return dur

    def _wrap(self, name, fn):
        tracer = self
        if name in GENERATORS:

            def traced_gen(*args, **kwargs):
                if not tracer.in_op:
                    yield from fn(*args, **kwargs)
                    return
                it = fn(*args, **kwargs)
                while True:
                    start = tracer._open()
                    try:
                        item = next(it)
                    except StopIteration:
                        tracer._close(name, start)
                        return
                    except BaseException:
                        tracer._close(name, start)
                        raise
                    tracer._close(name, start)
                    tracer.counts["subspaces.enumerate_subspaces.yielded"] += 1
                    yield item

            return traced_gen

        def traced(*args, **kwargs):
            if not tracer.in_op:
                return fn(*args, **kwargs)
            start = tracer._open()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = tracer._close(name, start)
            tracer._observe(name, result, dur)
            return result

        return traced

    def _observe(self, name, result, dur):
        counts = self.counts
        if name == "gf.field_new":
            self.watch_ctx(result)
        elif name == "orbits.coset_family":
            counts["orbits.coset_family.sets"] += len(result.sets)
        elif name == "hitting.milp":
            nodes = getattr(result, "mip_node_count", None)
            counts["hitting.milp.nodes"] += int(nodes or 0)
            self.milp_calls.append(
                {
                    "status": int(result.status),
                    "mip_node_count": None if nodes is None else int(nodes),
                    "mip_gap": _float_or_none(getattr(result, "mip_gap", None)),
                    "wall_s": dur,
                }
            )
        elif name == "repair.helper_payload":
            counts["repair.payload_symbols"] += len(result.symbols)
        elif name == "design.simulate_failures":
            counts["design.simulate_failures.patterns"] += result.patterns

    # -- results --------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """The per-layer metric values of this phase, by name."""
        s = self.spans
        c = self.counts
        solves = s["hitting.min_hitting_set"].calls
        # A solve that did not reach the MILP was settled by greedy/packing.
        certified = solves - s["hitting.milp"].calls
        out = {
            "gf.field_new.calls": s["gf.field_new"].calls,
            "gf.field_new.s": s["gf.field_new"].self_s,
            "gf.add.calls": c["gf.add.calls"],
            "gf.mul.calls": c["gf.mul.calls"],
            "subspaces.enumerate_subspaces.yielded": c[
                "subspaces.enumerate_subspaces.yielded"
            ],
            "subspaces.enumerate_subspaces.s": s["subspaces.enumerate_subspaces"].self_s,
            "subspaces.span.calls": s["subspaces.span"].calls,
            "subspaces.span.s": s["subspaces.span"].self_s,
            "orbits.coset_family.calls": s["orbits.coset_family"].calls,
            "orbits.coset_family.s": s["orbits.coset_family"].self_s,
            "orbits.coset_family.sets": c["orbits.coset_family.sets"],
            "orbits.orbit_decomposition.s": s["orbits.orbit_decomposition"].self_s,
            "hitting.milp.calls": s["hitting.milp"].calls,
            "hitting.milp.s": s["hitting.milp"].self_s,
            "hitting.milp.nodes": c["hitting.milp.nodes"],
            "hitting.min_hitting_set.calls": solves,
            "hitting.min_hitting_set.s": s["hitting.min_hitting_set"].self_s,
            "hitting.certified_ratio": certified / solves if solves else 0.0,
            "repair.search_seed_scheme.calls": s["repair.search_seed_scheme"].calls,
            "repair.search_seed_scheme.s": s["repair.search_seed_scheme"].self_s,
            "repair.dilate_translate.s": s["repair.dilate_translate"].self_s,
            "repair.helper_payload.calls": s["repair.helper_payload"].calls,
            "repair.helper_payload.s": s["repair.helper_payload"].self_s,
            "repair.recover_symbol.s": s["repair.recover_symbol"].self_s,
            "repair.payload_symbols": c["repair.payload_symbols"],
            "design.design_single_seed.s": s["design.design_single_seed"].self_s,
            "design.design_multi_seed.s": s["design.design_multi_seed"].self_s,
            "design.load_bundle.s": s["design.load_bundle"].self_s,
            "design.simulate_failures.calls": s["design.simulate_failures"].calls,
            "design.simulate_failures.s": s["design.simulate_failures"].self_s,
            "design.simulate_failures.patterns": c["design.simulate_failures.patterns"],
            "cli.main.calls": s["cli.main"].calls,
            "cli.main.s": s["cli.main"].self_s,
        }
        return out

    def self_times(self) -> dict[str, float]:
        return {name: span.self_s for name, span in self.spans.items() if span.calls}


_ABSENT = object()


def _float_or_none(v):
    return None if v is None else float(v)


def _library_modules():
    return {
        layer: importlib.import_module(f"compactrepair.{layer}") for layer in LAYERS
    } | {"compactrepair": sys.modules["compactrepair"]}
