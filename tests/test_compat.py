"""Compatibility with bundles written by earlier versions and with perfbench.

The fixtures under tests/data were written by the version that found each
seed's u by a random bandwidth search, with the search's settings in their
config.  Their u is an input and their config passes through, so
they must still load and re-serialize to the same bytes.
"""

import ast
import importlib
import inspect
import json
import types
from pathlib import Path

import pytest

from compactrepair import cli, design, gf, load_bundle, repair, search_seed_scheme, subspaces
from compactrepair.cli import main
from compactrepair.gf import FieldCtx

REPO = Path(__file__).resolve().parent.parent
FIXTURES = sorted((REPO / "tests" / "data").glob("*.json"))


def test_fixtures_present():
    assert [path.name for path in FIXTURES] == [
        "gf16_golden_searched_u.json",
        "gf16_multi_seed_delta2_searched_u.json",
    ]


@pytest.mark.parametrize("path", FIXTURES, ids=[path.stem for path in FIXTURES])
def test_searched_u_bundle_loads_and_round_trips(path):
    text = path.read_text()
    bundle = load_bundle(json.loads(text))
    # a searched u is no closed form: the per-helper path built its helper data
    assert all(s._form is None and s._data is not None for s in bundle.schemes)
    assert bundle.dumps() == text
    # the stored u is the searched one, not today's closed form
    assert any(
        scheme.u != search_seed_scheme(scheme.subspace, bundle.k).u
        for scheme in bundle.schemes
    )


@pytest.mark.parametrize("path", FIXTURES, ids=[path.stem for path in FIXTURES])
def test_simulate_searched_u_bundle_exits_0(path, capsys):
    code = main(["simulate", "--bundle", str(path), "--alpha-star", "6", "--failures", "4"])
    out = capsys.readouterr().out
    assert code == 0
    assert json.loads(out)["survived"] == 1.0


def test_perfbench_traced_functions_exist():
    # perfbench/spans.py wraps each (module, function) in TRACED by name and
    # fails on a missing one; its source is executed here, never imported
    # as a package or written to.
    path = REPO / "perfbench" / "spans.py"
    spans = types.ModuleType("perfbench_spans")
    exec(compile(path.read_text(), str(path), "exec"), spans.__dict__)
    assert spans.TRACED
    missing = [
        f"{mod}.{fn}"
        for mod, fn in spans.TRACED
        if not callable(getattr(importlib.import_module(f"compactrepair.{mod}"), fn, None))
    ]
    assert missing == []


def test_perfbench_warm_field_methods_exist():
    # perfbench/workloads.py's _warm calls these FieldCtx methods once per
    # element; its source is parsed here, never imported or written to.
    path = REPO / "perfbench" / "workloads.py"
    warm = next(
        node for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.FunctionDef) and node.name == "_warm"
    )
    called = {
        node.func.attr
        for node in ast.walk(warm)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id == "ctx"
    }
    assert {"elements", "subfield_degree", "trace_to_subfield", "coords"} <= called
    assert all(callable(getattr(FieldCtx, name, None)) for name in called)


def test_perfbench_tracer_hooks_hold(gf16):
    # perfbench/spans.py counts add and mul per context by setting instance
    # attributes (restoring add, deleting mul) and finds new contexts by
    # wrapping gf.field_new wherever a module imported it by that name.
    assert "add" in vars(gf16) and "add" not in vars(FieldCtx)
    assert "mul" in vars(FieldCtx) and "mul" not in vars(gf16)
    assert cli.field_new is gf.field_new
    assert design.field_new is gf.field_new


def test_perfbench_workload_library_names_exist():
    # perfbench/workloads.py reads these compactrepair.<module>.<attr> and
    # calls them with these positional and keyword arguments, which must
    # bind to today's signatures (partially where a *args or **mapping
    # passes more); its source is parsed here, never imported or written to.
    tree = ast.parse((REPO / "perfbench" / "workloads.py").read_text())
    aliases = {
        alias.asname or alias.name: alias.name.removeprefix("compactrepair.")
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        for alias in node.names
        if alias.name.startswith("compactrepair.")
    }
    assert set(aliases.values()) == {
        "cli", "design", "gf", "hitting", "orbits", "repair", "subspaces"
    }
    calls = {id(node.func): node for node in ast.walk(tree) if isinstance(node, ast.Call)}
    uses = [
        (aliases[node.value.id], node.attr, calls.get(id(node)))
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in aliases
    ]
    assert any(call is not None and call.args for _, _, call in uses)
    missing, rejected = [], []
    for mod, attr, call in uses:
        value = getattr(importlib.import_module(f"compactrepair.{mod}"), attr, None)
        if value is None:
            missing.append(f"{mod}.{attr}")
        elif call is not None:
            positional = [arg for arg in call.args if not isinstance(arg, ast.Starred)]
            named = {kw.arg: None for kw in call.keywords if kw.arg}
            spread = len(positional) < len(call.args) or len(named) < len(call.keywords)
            sig = inspect.signature(value)
            try:
                (sig.bind_partial if spread else sig.bind)(*[None] * len(positional), **named)
            except TypeError as exc:
                rejected.append(f"{mod}.{attr} at line {call.lineno}: {exc}")
    assert missing == [] and rejected == []
    # span and enumerate_subspaces refuse every q but their field's, so each
    # call must pass the attribute q of the field it passes
    subspace_calls = [
        (attr, call) for mod, attr, call in uses
        if mod == "subspaces" and attr in ("span", "enumerate_subspaces") and call is not None
    ]
    assert {attr for attr, _ in subspace_calls} == {"span", "enumerate_subspaces"}
    for attr, call in subspace_calls:
        named = {kw.arg: kw.value for kw in call.keywords}
        args = inspect.signature(getattr(subspaces, attr)).bind(*call.args, **named).arguments
        q, ctx = args["q"], args["ctx"]
        assert isinstance(q, ast.Attribute) and q.attr == "q", f"line {call.lineno}"
        assert ast.dump(q.value) == ast.dump(ctx), f"line {call.lineno}"
    # both design functions still take the ignored rng_seed the workloads pass
    for name in ("design_single_seed", "design_multi_seed"):
        found = [call for mod, attr, call in uses if (mod, attr) == ("design", name)]
        assert found and all(any(kw.arg == "rng_seed" for kw in c.keywords) for c in found)


def test_perfbench_verify_full_rank_holds_on_closed_form(gf16, gf64, gf9):
    # design-session checks every designed scheme with repair.verify_full_rank,
    # which reads through FieldCtx.rank_over
    for ctx, delta in ((gf16, 2), (gf64, 3), (gf9, 1)):
        seed = design._seed_from_strategy(ctx, delta, "subfield-coset")
        scheme = search_seed_scheme(seed, 2 if delta > 1 else 1)
        assert repair.verify_full_rank(scheme)
        assert repair.verify_full_rank(repair.dilate_translate(scheme, 3, ctx.generator))
