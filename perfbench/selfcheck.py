"""Self-check of the benchmark: short traced runs must be clean and repeatable.

Runs each workload twice with a fixed seed for a few ops, traced, and
checks that no op failed, that the exact counts (bw_ratio,
hitting.milp.calls, design.simulate_failures.patterns and the other
counters) repeat exactly, and that the layers a workload must not touch in
its timed phase stayed idle.  Run it from the root of a checkout:

    python3 perfbench/selfcheck.py

It exits with code 0 when every check holds and 1 otherwise.
"""

from __future__ import annotations

import sys

import run

SEED = 7
SHORT_OPS = {
    "tolerance-sweep": 60,
    "design-session": 6,
    "repair-traffic": 200,
    "failure-sim": 25,
}
EXACT = (
    "repair.bw_ratio",
    "hitting.milp.calls",
    "hitting.milp.nodes",
    "hitting.min_hitting_set.calls",
    "design.simulate_failures.patterns",
    "orbits.coset_family.sets",
    "repair.payload_symbols",
    "gf.add.calls",
    "gf.mul.calls",
)
# Layers that only set-up may use on these workloads.
IDLE = {
    "repair-traffic": ("hitting.milp.calls", "repair.search_seed_scheme.calls"),
    "failure-sim": ("hitting.milp.calls", "repair.search_seed_scheme.calls"),
}


def main() -> int:
    problems = []
    for name, ops in SHORT_OPS.items():
        first, second = (
            run.run_workload(name, SEED, None, True, max_ops=ops) for _ in range(2)
        )
        for result in (first, second):
            if result["failed"] or not result["correct"]:
                problems.append(f"{name}: {result['failed']} failed ops")
        for key in EXACT:
            a = first["metrics"][key]["value"]
            b = second["metrics"][key]["value"]
            if a != b:
                problems.append(f"{name}: {key} differs between runs ({a} != {b})")
        for key in IDLE.get(name, ()):
            if first["metrics"][key]["value"] != 0:
                problems.append(f"{name}: {key} is not 0 in the timed phase")
        shown = {k: first["metrics"][k]["value"] for k in EXACT}
        print(f"{name}: {first['attempted']} ops, {shown}")
    for line in problems:
        print(f"FAIL {line}")
    print("selfcheck", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
