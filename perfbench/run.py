"""Benchmark for compactrepair: four closed-loop workloads, one per process.

Run one workload from the root of a checkout:

    python3 perfbench/run.py --workload repair-traffic --seed 1 --seconds 10 --trace 0

or every workload, each in its own fresh process, one after another:

    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 0

With ``--trace 0`` the run measures the end-to-end metrics with tracing
off; with ``--trace 1`` it runs a fixed number of rounds twice, untraced
and then traced, and reports the per-layer metrics and the tracing
overhead.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it name every metric with its unit.  A fuller record (versions,
thread count, HiGHS statistics, self-time ranking) is written to
``.perfbench/results/`` in the checkout.  The library is imported from the
checkout's ``src/``; without it the run exits with code 2.
"""

from time import perf_counter

HARNESS_START = perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
WORKLOAD_NAMES = ("tolerance-sweep", "design-session", "repair-traffic", "failure-sim")
# Set-up is repeated in every run and its median reported, so that
# setup_s is steady enough to gate on.
SETUP_REPEATS = 3
# A workload's process may run for at most this long before it is stopped.
CHILD_TIMEOUT_S = 900

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
)
# Printed by name on the lines before the result and kept in the results
# file, but not part of the gated result: op_p95_ms has too few samples
# beyond it on design-session and sits on the edge between op kinds on
# failure-sim, the next two exist only on some workloads, and error_rate
# is 0 (the result's `failed` and `attempted` carry it).
REPORTED = (
    ("op_p95_ms", "ms"),
    ("patterns_per_s", "1/s"),
    ("bw_ratio", "ratio"),
    ("error_rate", "ratio"),
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "compactrepair" / "__init__.py").is_file():
        print(f"perfbench: no compactrepair sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    for line in result.pop("report"):
        print(line)
    print(json.dumps(result), flush=True)
    return 0


def run_all(args) -> int:
    """Each workload in its own fresh process, one after another."""
    status = 0
    summary = {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        for line in lines[:-1]:
            print(line)
        if proc.returncode != 0 or not lines:
            print(f"{name}: exited with code {proc.returncode}")
            status = 1
            continue
        summary[name] = json.loads(lines[-1])
        if not summary[name]["correct"]:
            status = 1
    print(json.dumps(summary), flush=True)
    return status


# ----------------------------------------------------------------------
# one workload
# ----------------------------------------------------------------------


def run_workload(name, seed, seconds, trace, max_ops=None) -> dict:
    """Set up and measure one workload in this process.

    ``max_ops`` cuts each phase short after that many ops; the self-check
    uses it for short runs.
    """
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import compactrepair  # noqa: F401  (imports numpy and scipy.optimize)
    import numpy
    import scipy

    import spans
    import workloads

    import_s = perf_counter() - HARNESS_START
    workload = workloads.WORKLOADS[name]()
    OUT.mkdir(exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=f"{name}-", dir=OUT)
    try:
        setup_times = []
        for _ in range(SETUP_REPEATS):
            start = perf_counter()
            state = workload.setup(seed, scratch)
            setup_times.append(perf_counter() - start)
        threads = [os_threads()]
        phase = Phase(workload, state, seed)
        if trace:
            # Untraced and traced rounds alternate, on identical ops, so that
            # drift in machine speed cancels out of the overhead.
            base = Phase(workload, state, seed)
            tracer = spans.Tracer()
            for _ in range(workload.trace_rounds):
                base.run_round(max_ops)
                tracer.install(state.contexts)
                try:
                    phase.run_round(max_ops, tracer)
                finally:
                    tracer.uninstall()
                if phase.capped(max_ops):
                    break
        else:
            start = perf_counter()
            while not phase.capped(max_ops):
                phase.run_round(max_ops)
                if perf_counter() - start >= seconds:
                    break
        threads += phase.threads
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    lat = phase.latencies
    busy = sum(lat)
    attempted = len(lat)
    failed = len(phase.failures)
    if trace:
        attempted += len(base.latencies)
        failed += len(base.failures)
    tally = phase.tally
    e2e = {
        "setup_s": import_s + statistics.median(setup_times),
        "ops_per_s": len(lat) / busy,
        "op_p50_ms": 1000 * statistics.median(lat),
        "op_p95_ms": 1000 * statistics.quantiles(lat, n=20, method="inclusive")[18],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "error_rate": failed / attempted,
    }
    if tally["patterns"]:
        e2e["patterns_per_s"] = tally["patterns"] / busy
    if tally["bw_full"]:
        e2e["bw_ratio"] = tally["bw_symbols"] / tally["bw_full"]
    units = dict(END_TO_END + REPORTED)
    report = [f"{name}: {k} = {v:.6g} {units[k]}" for k, v in e2e.items()]
    report.append(
        f"{name}: {len(lat)} ops ({workload.op_unit}), {phase.rounds} rounds, "
        f"{failed} failed, seed {seed}, {max(threads)} OS threads"
    )
    env = environment(numpy.__version__, scipy.__version__)
    report.append(f"{name}: " + ", ".join(f"{k} {v}" for k, v in env.items()))
    for text in (phase.failures + (base.failures if trace else []))[:5]:
        print(text, file=sys.stderr)

    record = {
        "workload": name,
        "op_unit": workload.op_unit,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "environment": env,
        "os_threads_max": max(threads),
        "setup_repeats_s": setup_times,
        "import_s": import_s,
        "rounds": phase.rounds,
        "ops": len(lat),
        "failures": phase.failures[:20],
        "end_to_end": e2e,
    }
    if trace:
        layer = tracer.metrics()
        layer["repair.bw_ratio"] = e2e.get("bw_ratio", 0.0)
        base_rate = len(base.latencies) / sum(base.latencies)
        layer["trace.overhead"] = 1 - e2e["ops_per_s"] / base_rate
        record["per_layer"] = layer
        record["untraced_ops_per_s"] = base_rate
        record["self_time_ranking_s"] = sorted(
            tracer.self_times().items(), key=lambda kv: -kv[1]
        )
        record["highs"] = tracer.milp_calls
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in layer.items()}
        report = [f"{name}: {k} = {m['value']:.6g} {m['unit']}" for k, m in metrics.items()]
        report += [
            f"{name}: traced {len(lat)} ops in {phase.rounds} rounds, "
            f"{len(tracer.milp_calls)} HiGHS calls, {failed} failed",
            f"{name}: " + ", ".join(f"{k} {v}" for k, v in env.items()),
        ]
    else:
        metrics = {k: {"value": e2e[k], "unit": u} for k, u in END_TO_END}
    write_record(record)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "report": report,
    }


class Phase:
    """Latencies, failures and tallies of the ops run on one input stream.

    Only an op's ``run`` is timed; latencies exclude input preparation and
    the correctness check.  An exception or a failed check is a failure.
    """

    def __init__(self, workload, state, seed):
        self.workload = workload
        self.state = state
        self.rng = random.Random(f"{workload.name}:{seed}")
        self.tally = {"bw_symbols": 0, "bw_full": 0, "patterns": 0}
        self.latencies: list[float] = []
        self.failures: list[str] = []
        self.threads: list[int] = []
        self.rounds = 0

    def capped(self, max_ops) -> bool:
        return max_ops is not None and len(self.latencies) >= max_ops

    def run_round(self, max_ops=None, tracer=None):
        for run, check in self.workload.round(self.state, self.rng, self.tally):
            if tracer:
                tracer.begin_op()
            t = perf_counter()
            try:
                result = run()
            except Exception:
                result = None
                self.failures.append(traceback.format_exc(limit=3))
            dt = perf_counter() - t
            if tracer:
                tracer.end_op()
            self.latencies.append(dt)
            if result is not None:
                try:
                    ok = check(result)
                except Exception:
                    self.failures.append(traceback.format_exc(limit=3))
                else:
                    if not ok:
                        self.failures.append(
                            f"check failed on op {len(self.latencies)}"
                        )
            if self.capped(max_ops):
                break
        self.rounds += 1
        self.threads.append(os_threads())


def layer_unit(name: str) -> str:
    if name.endswith(".s"):
        return "s"
    if name.endswith("_ratio") or name == "trace.overhead":
        return "ratio"
    return "count"


def os_threads() -> int:
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("Threads:"):
                return int(line.split()[1])
    return 0


def environment(numpy_version: str, scipy_version: str) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "scipy": scipy_version,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def write_record(record: dict) -> None:
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / (
        f"{record['workload']}-seed{record['seed']}-trace{int(record['trace'])}.json"
    )
    path.write_text(json.dumps(record, indent=2) + "\n")


if __name__ == "__main__":
    sys.exit(main())
