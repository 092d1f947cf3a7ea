import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

from compactrepair import base_counts, cli, load_bundle
from compactrepair.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_field_info(capsys):
    code, out, _ = run_cli(capsys, "field-info", "--q", "2", "--ell", "4")
    assert code == 0
    data = json.loads(out)
    assert data["order"] == 16
    assert data["modulus"] == [1, 1, 0, 0, 1]
    assert data["generator"] == 2
    assert data["subfield_orders"] == [2, 4, 16]


def test_field_info_prime_power_q(capsys):
    code, out, _ = run_cli(capsys, "field-info", "--q", "4", "--ell", "2")
    assert code == 0
    data = json.loads(out)
    assert data["p"] == 2 and data["s"] == 2 and data["q"] == 4
    assert data["order"] == 16
    for q, p, s in ((2, 2, 1), (8, 2, 3), (9, 3, 2), (25, 5, 2), (27, 3, 3), (121, 11, 2)):
        code, out, _ = run_cli(capsys, "field-info", "--q", str(q), "--ell", "1")
        assert code == 0
        assert (json.loads(out)["p"], json.loads(out)["s"]) == (p, s)
    for q in (-4, 0, 1, 6, 12, 100, 1000):
        code, out, err = run_cli(capsys, "field-info", "--q", str(q), "--ell", "1")
        assert code == 1 and out == ""
        assert err == f"compactrepair: error: q = {q} is not a prime power\n"


def test_field_info_q_over_cap_exits_1(capsys):
    # a prime q far above the cap must fail before any scan over its factors
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "field-info", "--q", "1000000007", "--ell", "1")
    assert time.perf_counter() - start < 1.0
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1 and "exceeds" in err


def test_orbits_command(capsys):
    code, out, _ = run_cli(
        capsys, "orbits", "--q", "2", "--ell", "4", "--delta", "2"
    )
    assert code == 0
    data = json.loads(out)
    assert data["orbit_count"] == 3
    assert data["counts_by_base"] == {"1": 30, "2": 5}


def test_orbits_command_gf1024_delta3(capsys):
    # 43435 subspaces through 1 stand for all 6347715 3-subspaces
    code, out, _ = run_cli(capsys, "orbits", "--q", "2", "--ell", "10", "--delta", "3")
    assert code == 0
    data = json.loads(out)
    assert data["orbit_count"] == 6205 == len(data["representatives"])
    assert data["counts_by_base"] == {str(m): n for m, n in base_counts(2, 10, 3).items()}


def test_design_multi_seed_gf1024_loads(capsys, tmp_path):
    bundle_path = tmp_path / "multi.json"
    code, _, _ = run_cli(
        capsys, "design", "--q", "2", "--ell", "10", "--k", "2",
        "--delta", "2", "--multi-seed", "-o", str(bundle_path),
    )
    assert code == 0
    bundle = load_bundle(json.loads(bundle_path.read_text()))
    assert bundle.tolerance == 510
    assert len(bundle.seeds) == 171


def test_design_and_simulate_roundtrip(capsys, tmp_path):
    bundle_path = tmp_path / "bundle.json"
    code, out, _ = run_cli(
        capsys,
        "design",
        "--q", "2", "--ell", "4", "--k", "2",
        "--seed-basis", "4,11",
        "-o", str(bundle_path),
    )
    assert code == 0
    data = json.loads(bundle_path.read_text())
    assert data["tolerance"] == 4
    assert data["mode"] == "single-seed"

    code, out, _ = run_cli(
        capsys,
        "simulate",
        "--bundle", str(bundle_path),
        "--alpha-star", "6",
        "--failures", "4",
    )
    assert code == 0
    sim = json.loads(out)
    assert sim["mode"] == "exhaustive"
    assert sim["survived"] == 1.0

    code, out, _ = run_cli(
        capsys,
        "simulate",
        "--bundle", str(bundle_path),
        "--alpha-star", "6",
        "--failures", "5",
        "--mode", "monte-carlo",
        "--trials", "500",
        "--rng-seed", "7",
    )
    assert code == 0
    sim = json.loads(out)
    assert sim["mode"] == "monte-carlo"
    assert 0.0 < sim["survived"] < 1.0
    low, high = sim["survived_interval"]
    assert low < sim["survived"] < high


def test_design_multi_seed_cli(capsys, tmp_path):
    bundle_path = tmp_path / "multi.json"
    code, _, _ = run_cli(
        capsys,
        "design",
        "--q", "2", "--ell", "4", "--k", "2",
        "--delta", "2", "--multi-seed",
        "-o", str(bundle_path),
    )
    assert code == 0
    data = json.loads(bundle_path.read_text())
    assert data["mode"] == "multi-seed"
    assert data["tolerance"] == 6
    assert len(data["seeds"]) == 3


def test_design_deterministic_bytes(capsys, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        code, _, _ = run_cli(
            capsys,
            "design",
            "--q", "2", "--ell", "4", "--k", "2",
            "--seed-basis", "3,6",
            "-o", str(path),
        )
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_design_rng_seed_is_ignored(capsys, tmp_path):
    paths = [tmp_path / f"{seed}.json" for seed in ("0", "5", "123")]
    for path in paths:
        code, _, _ = run_cli(
            capsys,
            "design",
            "--q", "2", "--ell", "4", "--k", "2", "--delta", "2", "--multi-seed",
            "--rng-seed", path.stem,
            "-o", str(path),
        )
        assert code == 0
    assert len({path.read_bytes() for path in paths}) == 1


def test_compare_bandwidth_cli(capsys):
    code, out, _ = run_cli(
        capsys,
        "compare-bandwidth",
        "--n", "30", "--k", "10", "--ell", "8", "--e", "5",
    )
    assert code == 0
    data = json.loads(out)
    assert data["centralized_total"] == 112


def test_verify_example_cli(capsys):
    code, out, _ = run_cli(capsys, "verify-example")
    assert code == 0
    data = json.loads(out)
    assert data["all_pass"] is True


def test_verify_example_divergence_exits_2(capsys):
    code, out, _ = run_cli(capsys, "verify-example", "--modulus", "1,0,0,1,1")
    assert code == 2
    data = json.loads(out)
    assert data["all_pass"] is False


def test_usage_errors_exit_1(capsys):
    import pytest

    with pytest.raises(SystemExit) as err:
        main(["design", "--q", "2"])  # missing required args
    assert err.value.code == 1
    # library-level validation also maps to exit 1
    code, _, err_text = run_cli(capsys, "design", "--q", "6", "--ell", "2", "--k", "1")
    assert code == 1
    code, _, _ = run_cli(
        capsys, "simulate", "--bundle", "/nonexistent.json",
        "--alpha-star", "0", "--failures", "1",
    )
    assert code == 1
    # an empty or malformed list is an error, never dropped
    for argv in (
        ("compare-bandwidth", "--n", "30", "--k", "10", "--ell", "8", "--e", "5", "--scheme-bw", ""),
        ("compare-bandwidth", "--n", "30", "--k", "10", "--ell", "8", "--e", "5", "--scheme-bw", "3,"),
        ("compare-bandwidth", "--n", "16", "--k", "2", "--ell", "4", "--e", "3", "--scheme-bw", "-5"),
        ("design", "--q", "2", "--ell", "4", "--k", "2", "--seed-basis", ""),
    ):
        code, out, err_text = run_cli(capsys, *argv)
        assert (code, out, err_text.count("\n")) == (1, "", 1)


def test_modulus_override_cli(capsys):
    code, out, _ = run_cli(
        capsys, "field-info", "--q", "2", "--ell", "4", "--modulus", "1,0,0,1,1"
    )
    assert code == 0
    assert json.loads(out)["modulus"] == [1, 0, 0, 1, 1]
    code, _, _ = run_cli(
        capsys, "field-info", "--q", "2", "--ell", "4", "--modulus", "1,0,0,0,1"
    )
    assert code == 1  # reducible


def test_simulate_out_of_field_alpha_star_exits_1(capsys, tmp_path):
    bundle_path = tmp_path / "bundle.json"
    code, _, _ = run_cli(
        capsys, "design", "--q", "2", "--ell", "4", "--k", "2",
        "--seed-basis", "4,11", "-o", str(bundle_path),
    )
    assert code == 0
    for alpha in ("16", "99"):
        code, out, err = run_cli(
            capsys, "simulate", "--bundle", str(bundle_path),
            "--alpha-star", alpha, "--failures", "2",
        )
        assert code == 1
        assert out == ""
        assert err.count("\n") == 1 and "alpha_star" in err


def test_simulate_forged_bundle_exits_1(capsys, tmp_path):
    bundle_path = tmp_path / "bundle.json"
    code, _, _ = run_cli(
        capsys, "design", "--q", "2", "--ell", "4", "--k", "2",
        "--seed-basis", "4,11", "-o", str(bundle_path),
    )
    assert code == 0
    data = json.loads(bundle_path.read_text())
    data["tolerance"] = 9
    bundle_path.write_text(json.dumps(data))
    code, out, err = run_cli(
        capsys, "simulate", "--bundle", str(bundle_path),
        "--alpha-star", "6", "--failures", "2",
    )
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1 and "tolerance" in err


def test_simulate_deeply_nested_bundle_exits_1(capsys, tmp_path):
    # too deep for the JSON decoder, and a valid bundle whose config is too
    # deep to hash or compare: both fail in one line, with no traceback
    bundle_path = tmp_path / "bundle.json"
    code, _, _ = run_cli(
        capsys, "design", "--q", "2", "--ell", "4", "--k", "2",
        "--delta", "2", "-o", str(bundle_path),
    )
    assert code == 0
    data = json.loads(bundle_path.read_text())
    for key in ("a", "b", "c"):
        data["config"] = {key: data["config"]}
    shallow_path = tmp_path / "shallow.json"
    shallow_path.write_text(json.dumps(data))
    for _ in range(897):
        data["config"] = {"a": data["config"]}
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(data))
    arrays_path = tmp_path / "arrays.json"
    arrays_path.write_text("[" * 200_000)
    for path, pattern in (
        (shallow_path, "config.c must be a JSON scalar"),
        (config_path, "config.a must be a JSON scalar"),
        (arrays_path, "nests too deep"),
    ):
        code, out, err = run_cli(
            capsys, "simulate", "--bundle", str(path),
            "--alpha-star", "6", "--failures", "2",
        )
        assert code == 1
        assert out == ""
        assert err.count("\n") == 1 and pattern in err


def test_simulate_rejected_bundle_exits_1(capsys, tmp_path, forged_bundle):
    data, pattern = forged_bundle
    bundle_path = tmp_path / "bundle.json"
    bundle_path.write_text(json.dumps(data))
    code, out, err = run_cli(
        capsys, "simulate", "--bundle", str(bundle_path),
        "--alpha-star", "6", "--failures", "2",
    )
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1 and re.search(pattern, err)


def test_design_out_of_field_seed_basis_exits_1(capsys):
    code, out, err = run_cli(
        capsys, "design", "--q", "2", "--ell", "4", "--k", "2",
        "--seed-basis", "4,99",
    )
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1 and "field elements" in err


def test_design_conflicting_flags_exit_1(capsys, tmp_path):
    base = ("design", "--q", "2", "--ell", "4", "--k", "2")
    for extra, pattern in (
        (("--delta", "2", "--multi-seed", "--seed-basis", "1,2"), "--multi-seed and --seed-basis"),
        (("--seed-basis", "1,2", "--delta", "3"), "--seed-basis fixes the dimension"),
        (("--seed-basis", "1,2", "--delta", "2"), "--seed-basis fixes the dimension"),
        (("--seed-basis", "1,2", "--strategy", "first"), "--strategy"),
        (("--seed-basis", "1,2", "--strategy", "subfield-coset"), "--strategy"),
        (("--delta", "2", "--multi-seed", "--strategy", "first"), "--strategy"),
    ):
        out = tmp_path / "bundle.json"
        result = run_cli(capsys, *base, *extra, "-o", str(out))
        assert_one_line_error(*result, pattern)
        assert not out.exists()


def test_design_strategy_defaults_to_subfield_coset(capsys, tmp_path):
    strategies = {}
    for extra in ((), ("--strategy", "subfield-coset"), ("--strategy", "first")):
        out = tmp_path / "bundle.json"
        code, _, _ = run_cli(capsys, "design", "--q", "2", "--ell", "4", "--k", "2",
                             "--delta", "2", *extra, "-o", str(out))
        assert code == 0
        strategies[extra] = json.loads(out.read_text())["config"]["strategy"]
    assert strategies == {
        (): "subfield-coset",
        ("--strategy", "subfield-coset"): "subfield-coset",
        ("--strategy", "first"): "first",
    }


def test_calls_in_one_process_keep_their_own_options(capsys, tmp_path):
    # main reuses one parser; an option given to one call must not reach the next
    assert cli.build_parser() is cli.build_parser()
    design = ("design", "--q", "2", "--ell", "4", "--k", "2", "--delta", "2")
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    assert run_cli(capsys, *design, "--strategy", "first", "-o", str(first))[0] == 0
    assert run_cli(capsys, *design, "-o", str(second))[0] == 0
    assert json.loads(first.read_text())["config"]["strategy"] == "first"
    assert json.loads(second.read_text())["config"]["strategy"] == "subfield-coset"
    simulate = ("simulate", "--bundle", str(second), "--alpha-star", "6", "--failures", "2")
    code, out, _ = run_cli(
        capsys, *simulate, "--mode", "monte-carlo", "--trials", "100", "--rng-seed", "7"
    )
    assert code == 0 and json.loads(out)["rng_seed"] == 7
    code, out, _ = run_cli(capsys, *simulate)
    assert code == 0
    assert json.loads(out)["mode"] == "exhaustive" and json.loads(out)["rng_seed"] is None


def test_orbit_enumeration_over_budget_exits_1(capsys):
    # [12 choose 6]_2 is about 2.3e11 subspaces; [16 choose 15]_2 = 65535
    # passes the subspace budget but has about 2^31 nonzero members
    for argv in (
        ["orbits", "--q", "2", "--ell", "12", "--delta", "6"],
        ["design", "--q", "2", "--ell", "12", "--k", "2", "--delta", "6",
         "--multi-seed"],
        ["orbits", "--q", "2", "--ell", "16", "--delta", "15"],
        ["design", "--q", "2", "--ell", "16", "--k", "2", "--delta", "15",
         "--multi-seed"],
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err.count("\n") == 1 and "budget" in err


def assert_one_line_error(code, out, err, pattern):
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1 and "Traceback" not in err
    assert re.search(pattern, err)


def test_design_delta_out_of_range_exits_1(capsys):
    for delta in ("0", "-1", "5"):
        for mode in ((), ("--multi-seed",)):
            result = run_cli(
                capsys, "design", "--q", "2", "--ell", "4", "--k", "2", "--delta", delta,
                *mode,
            )
            assert_one_line_error(*result, rf"1 <= delta <= ell = 4, got delta = {delta}$")


def test_simulate_monte_carlo_without_trials_exits_1(capsys, tmp_path):
    bundle_path = tmp_path / "bundle.json"
    code, _, _ = run_cli(
        capsys, "design", "--q", "2", "--ell", "4", "--k", "2",
        "--seed-basis", "4,11", "-o", str(bundle_path),
    )
    assert code == 0
    for trials in ("0", "-1"):
        result = run_cli(
            capsys, "simulate", "--bundle", str(bundle_path), "--alpha-star", "6",
            "--failures", "2", "--mode", "monte-carlo", "--trials", trials,
            "--rng-seed", "1",
        )
        assert_one_line_error(*result, "trials")


def test_simulate_out_of_range_rng_seed_exits_1(capsys, tmp_path):
    bundle_path = tmp_path / "bundle.json"
    code, _, _ = run_cli(
        capsys, "design", "--q", "2", "--ell", "4", "--k", "2",
        "--seed-basis", "4,11", "-o", str(bundle_path),
    )
    assert code == 0
    for rng_seed in ("-1", str(2**128)):
        for mode in ((), ("--mode", "monte-carlo")):
            result = run_cli(
                capsys, "simulate", "--bundle", str(bundle_path), "--alpha-star", "6",
                "--failures", "5", "--rng-seed", rng_seed, *mode,
            )
            assert_one_line_error(*result, rf"need 0 <= rng_seed < 2\*\*128, got {rng_seed}$")


def test_compare_bandwidth_impossible_code_exits_1(capsys):
    for n, k, ell in (("16", "20", "4"), ("-3", "-2", "-4")):
        result = run_cli(
            capsys, "compare-bandwidth", "--n", n, "--k", k, "--ell", ell, "--e", "2"
        )
        assert_one_line_error(*result, "need 1 <= k < n")


def test_compare_bandwidth_failures_outside_code_exit_1(capsys):
    # --e 10**13 once ended in a MemoryError traceback, --e 1000 in a table
    for e in ("10000000000000", "1000", "16", "0"):
        result = run_cli(
            capsys, "compare-bandwidth", "--n", "16", "--k", "2", "--ell", "4",
            "--e", e, "--scheme-bw", "5",
        )
        assert_one_line_error(*result, f"need 1 <= e < n = 16, got e = {e}$")


COLD_START = """
import sys
from compactrepair.cli import main

out = sys.argv[1]
steps = [
    ("import", None),
    ("field-info", ["field-info", "--q", "2", "--ell", "16"]),
    ("orbits", ["orbits", "--q", "2", "--ell", "6", "--delta", "3"]),
    ("design", ["design", "--q", "2", "--ell", "16", "--k", "2", "--delta", "8"]),
]
for name, argv in steps:
    if argv is not None and main(argv + ["-o", out]) != 0:
        sys.exit(name + " failed")
    loaded = [m for m in ("scipy.optimize", "scipy.sparse", "scipy.special") if m in sys.modules]
    print(name, *loaded)
"""


def test_cold_start_imports_no_solver(tmp_path):
    # field-info, orbits and a default (subfield-coset) design run no MILP
    # and no Monte Carlo interval, so a fresh process never imports the
    # scipy modules those need.  verify-example is left out: its second
    # seed is generic and is solved.
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run(
        [sys.executable, "-c", COLD_START, str(tmp_path / "out.json")],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == ["import", "field-info", "orbits", "design"]
