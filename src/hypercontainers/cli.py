"""Batch front door: generate instances, derive parameters, run the
construction, verify, and emit flat key/value reports.

Exit codes: 0 success / all asserted conditions pass, 1 condition
failure, 2 usage or validation error, 3 strict-mode refusal.
Consumers are scripts and CI; there is no interactive mode.
"""
from __future__ import annotations

import argparse
import sys
from dataclasses import fields

from .bounded import DEFAULT_EXACT_CAP, OracleSizeError
from .core import HypergraphError
from .engine import EngineContext, StrictModeError, derive_params
from .instances import FormatError, gen_ap, gen_random, read_edge_list, write_edge_list
from .verify import (
    DEFAULT_ENUM_CAP,
    VerificationReport,
    enumerate_independent_sets,
    _fmt,
    sample_independent_sets,
    verify,
)

EXIT_OK = 0
EXIT_CONDITION_FAIL = 1
EXIT_USAGE = 2
EXIT_STRICT_REFUSAL = 3


def _unit_interval(name):
    def conv(text):
        val = float(text)
        if not 0.0 <= val <= 1.0:
            raise argparse.ArgumentTypeError(f"{name} must be in [0, 1], got {val}")
        return val
    return conv


def _at_least(low):
    def conv(text):
        val = int(text)
        if val < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {val}")
        return val
    return conv


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hypercontainers", description="Deterministic hypergraph containers toolkit.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="generate an instance file")
    kind = p_gen.add_mutually_exclusive_group(required=True)
    kind.add_argument("--ap", action="store_true",
                      help="k-term arithmetic progression hypergraph")
    kind.add_argument("--random", action="store_true",
                      help="random bounded hypergraph")
    p_gen.add_argument("--n", type=int, required=True)
    p_gen.add_argument("--k", type=int, required=True)
    p_gen.add_argument("--delta", type=_unit_interval("delta"), default=0.3,
                       help="boundedness target for --random (default 0.3)")
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--output", "-o", required=True)

    p_par = sub.add_parser("params", help="print derived constants")
    p_par.add_argument("--k", type=int, required=True)
    p_par.add_argument("--pi", type=_unit_interval("pi"), required=True)
    p_par.add_argument("--eps", type=_unit_interval("eps"), required=True)
    p_par.add_argument("--n", type=int, required=True)

    p_ver = sub.add_parser("verify", help="run the construction and verify")
    p_ver.add_argument("--input", required=True, help="edge-list file")
    _add_run_flags(p_ver)

    p_demo = sub.add_parser("demo-ap", help="AP-free counting demo")
    p_demo.add_argument("--n", type=int, required=True)
    p_demo.add_argument("--k", type=int, required=True)
    _add_run_flags(p_demo)

    return parser


def _add_run_flags(p):
    p.add_argument("--pi", type=_unit_interval("pi"), required=True)
    p.add_argument("--eps", type=_unit_interval("eps"), required=True)
    p.add_argument("--mode", choices=("strict", "permissive"), default="permissive")
    p.add_argument("--samples", type=_at_least(1), default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--enum-cap", type=_at_least(0), default=DEFAULT_ENUM_CAP)
    p.add_argument("--oracle-cap", type=_at_least(0), default=DEFAULT_EXACT_CAP)
    p.add_argument("--output", "-o", default=None, help="also write report here")


def _run_verification(h, args) -> tuple[VerificationReport, int]:
    params = derive_params(h.k, args.pi, args.eps, h.n)
    try:
        ctx = EngineContext(h, params, mode=args.mode, oracle_cap=args.oracle_cap)
        enumerated = h.n <= args.enum_cap
        sets = (enumerate_independent_sets(h, cap=args.enum_cap) if enumerated
                else sample_independent_sets(h, args.samples, args.seed))
        report = verify(ctx, sets, enumerated=enumerated)
    except (StrictModeError, OracleSizeError) as exc:
        # in permissive mode the engine never lets OracleSizeError escape
        print(f"strict mode refused to run: {exc}", file=sys.stderr)
        return None, EXIT_STRICT_REFUSAL
    code = EXIT_OK if report.all_conditions_pass() else EXIT_CONDITION_FAIL
    return report, code


def _emit(text: str, output) -> None:
    sys.stdout.write(text)
    if output:
        with open(output, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_USAGE

    try:
        if args.command == "gen":
            if args.ap:
                h = gen_ap(args.n, args.k)
            else:
                h = gen_random(args.n, args.k, args.delta, None, args.seed)
            write_edge_list(h, args.output)
            return EXIT_OK

        if args.command == "params":
            params = derive_params(args.k, args.pi, args.eps, args.n)
            sys.stdout.write("".join(f"{f.name} = {_fmt(getattr(params, f.name))}\n"
                                     for f in fields(params)))
            return EXIT_OK

        # verify or demo-ap
        h = (read_edge_list(args.input) if args.command == "verify"
             else gen_ap(args.n, args.k))
        report, code = _run_verification(h, args)
        if report is not None:
            _emit(report.to_text(), args.output)
        return code
    except (HypergraphError, FormatError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
