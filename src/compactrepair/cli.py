"""Command-line interface.

Subcommands: field-info, orbits, design, simulate, compare-bandwidth,
verify-example.  All results print as JSON to stdout (or to a file via
-o); exit code 0 on success, 1 on usage errors, 2 when a golden check of
the reference design fails.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import cache

from .design import (
    bandwidth_comparison,
    design_multi_seed,
    design_single_seed,
    load_bundle,
    simulate_failures,
    verify_reference_example,
)
from .errors import CompactRepairError
from .gf import MAX_FIELD_ORDER, field_new, prime_factors
from .orbits import orbit_decomposition

USAGE_ERROR = 1
CHECK_FAILURE = 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        self.print_usage(sys.stderr)
        self.exit(USAGE_ERROR, f"{self.prog}: error: {message}\n")


def _prime_power(q: int) -> tuple[int, int]:
    """Factor q = p^s with p prime, or raise ValueError."""
    if q > MAX_FIELD_ORDER:
        raise ValueError(f"q = {q} exceeds the field order cap of 2^20")
    factors = prime_factors(q)
    if len(factors) != 1:
        raise ValueError(f"q = {q} is not a prime power")
    p, s = factors[0], 1
    while p**s < q:
        s += 1
    return p, s


def _parse_modulus(text: str | None):
    if text is None:
        return None
    try:
        return tuple(int(c) for c in text.split(","))
    except ValueError as exc:
        raise ValueError(f"bad modulus {text!r}: {exc}") from None


def _parse_ints(text: str) -> list[int]:
    return [int(v) for v in text.split(",")]


def _emit(payload: dict | str, out: str | None) -> None:
    if not isinstance(payload, str):
        payload = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if out:
        with open(out, "w") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)


def _cmd_field_info(args) -> int:
    p, s = _prime_power(args.q)
    ctx = field_new(p, s, args.ell, _parse_modulus(args.modulus))
    payload = {
        "p": ctx.p,
        "s": ctx.s,
        "ell": ctx.ell,
        "q": ctx.q,
        "order": ctx.order,
        "modulus": list(ctx.modulus),
        "generator": ctx.generator,
        "subfield_orders": [
            ctx.p**m for m in range(1, ctx.n + 1) if ctx.n % m == 0
        ],
    }
    _emit(payload, args.output)
    return 0


def _cmd_orbits(args) -> int:
    p, s = _prime_power(args.q)
    ctx = field_new(p, s, args.ell, _parse_modulus(args.modulus))
    report = orbit_decomposition(ctx, args.delta)
    _emit(report.to_json_dict(), args.output)
    return 0


def _cmd_design(args) -> int:
    basis_given = args.seed_basis is not None
    if args.multi_seed and basis_given:
        raise ValueError("--multi-seed and --seed-basis cannot be combined")
    if basis_given and args.delta is not None:
        raise ValueError("--seed-basis fixes the dimension; drop --delta")
    if args.strategy is not None and (args.multi_seed or basis_given):
        raise ValueError("--strategy picks the seed for --delta alone; drop it")
    p, s = _prime_power(args.q)
    modulus = _parse_modulus(args.modulus)
    if args.multi_seed:
        if args.delta is None:
            raise ValueError("--multi-seed requires --delta")
        bundle = design_multi_seed(p, s, args.ell, args.k, args.delta, modulus=modulus)
    elif basis_given:
        bundle = design_single_seed(
            p, s, args.ell, args.k, seed_basis=_parse_ints(args.seed_basis), modulus=modulus
        )
    else:
        if args.delta is None:
            raise ValueError("give --seed-basis or --delta")
        bundle = design_single_seed(
            p, s, args.ell, args.k, delta=args.delta, strategy=args.strategy, modulus=modulus
        )
    _emit(bundle.dumps(), args.output)
    return 0


def _cmd_simulate(args) -> int:
    with open(args.bundle) as fh:
        try:
            data = json.load(fh)
        except RecursionError:  # the decoder recurses once per nested array or object
            raise ValueError(f"{args.bundle} nests too deep to be a bundle") from None
    bundle = load_bundle(data)
    report = simulate_failures(
        bundle,
        args.alpha_star,
        args.failures,
        mode=args.mode,
        trials=args.trials,
        rng_seed=args.rng_seed,
    )
    _emit(report.to_json_dict(), args.output)
    return 0


def _cmd_compare_bandwidth(args) -> int:
    bws = _parse_ints(args.scheme_bw) if args.scheme_bw is not None else None
    table = bandwidth_comparison(args.n, args.k, args.ell, args.e, scheme_bandwidths=bws)
    _emit(table, args.output)
    return 0


def _cmd_verify_example(args) -> int:
    report = verify_reference_example(_parse_modulus(args.modulus))
    _emit(report, args.output)
    return 0 if report["all_pass"] else CHECK_FAILURE


@cache  # parse_args keeps no state in the parser, so main reuses one
def build_parser() -> _Parser:
    parser = _Parser(prog="compactrepair", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp):
        sp.add_argument("-o", "--output", default=None, help="write JSON here")

    sp = sub.add_parser("field-info", help="describe GF(q^ell)")
    sp.add_argument("--q", type=int, required=True)
    sp.add_argument("--ell", type=int, required=True)
    sp.add_argument("--modulus", help="comma-separated F_p coefficients, low degree first")
    add_common(sp)
    sp.set_defaults(func=_cmd_field_info)

    sp = sub.add_parser("orbits", help="orbit decomposition of delta-dim subspaces")
    sp.add_argument("--q", type=int, required=True)
    sp.add_argument("--ell", type=int, required=True)
    sp.add_argument("--delta", type=int, required=True)
    sp.add_argument("--modulus")
    add_common(sp)
    sp.set_defaults(func=_cmd_orbits)

    sp = sub.add_parser("design", help="produce a design bundle")
    sp.add_argument("--q", type=int, required=True)
    sp.add_argument("--ell", type=int, required=True)
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--delta", type=int)
    sp.add_argument("--multi-seed", action="store_true")
    sp.add_argument("--seed-basis", help="comma-separated basis elements")
    sp.add_argument(
        "--strategy", choices=["subfield-coset", "first"],
        help="single seed from --delta (default subfield-coset)",
    )
    sp.add_argument("--modulus")
    sp.add_argument(
        "--rng-seed", type=int, default=0,
        help="accepted and ignored: the repair scheme is a closed form",
    )
    add_common(sp)
    sp.set_defaults(func=_cmd_design)

    sp = sub.add_parser("simulate", help="failure-pattern simulation on a bundle")
    sp.add_argument("--bundle", required=True)
    sp.add_argument("--alpha-star", type=int, required=True)
    sp.add_argument("--failures", type=int, required=True)
    sp.add_argument("--mode", default="auto", choices=["auto", "exhaustive", "monte-carlo"])
    sp.add_argument("--trials", type=int, default=10000)
    sp.add_argument("--rng-seed", type=int, default=None)
    add_common(sp)
    sp.set_defaults(func=_cmd_simulate)

    sp = sub.add_parser("compare-bandwidth", help="centralized vs decentralized table")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--ell", type=int, required=True)
    sp.add_argument("--e", type=int, required=True)
    sp.add_argument("--scheme-bw", help="comma-separated measured bandwidths")
    add_common(sp)
    sp.set_defaults(func=_cmd_compare_bandwidth)

    sp = sub.add_parser("verify-example", help="golden checks of the reference design")
    sp.add_argument("--modulus", help="override to demonstrate divergence")
    add_common(sp)
    sp.set_defaults(func=_cmd_verify_example)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (CompactRepairError, ValueError, OSError) as exc:
        print(f"compactrepair: error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
