#!/usr/bin/env python3
"""Sweep random bounded instances over a seed range and summarize how
often each verification condition holds.

Usage: python3 scripts/random_sweep.py [--n 12] [--k 2] [--delta 0.3]
                                       [--eps 0.6] [--trials 20]
                                       [--enum-cap 20] [--samples 200]

Exits 1 if any condition failed on some trial, 2 on a bad argument.
"""
import argparse
import sys
from collections import Counter

from hypercontainers import HypergraphError, gen_random
from hypercontainers.bounded import DEFAULT_EXACT_CAP
from hypercontainers.cli import _at_least, _run_verification, _unit_interval

CONDITIONS = ("cond_i", "cond_ii", "cond_iii", "cond_iv")


def run() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=12)
    parser.add_argument("--k", type=int, default=2)
    parser.add_argument("--delta", type=_unit_interval("delta"), default=0.3)
    parser.add_argument("--eps", type=_unit_interval("eps"), default=0.6)
    parser.add_argument("--trials", type=_at_least(1), default=20)
    parser.add_argument("--enum-cap", type=_at_least(0), default=20)
    parser.add_argument("--samples", type=_at_least(1), default=200)
    args = parser.parse_args()
    # the CLI's run recipe, with the sweep's fixed values
    args.mode, args.oracle_cap, args.pi = "permissive", DEFAULT_EXACT_CAP, 1.0 - args.delta

    tally: Counter[str] = Counter()
    for seed in range(args.trials):
        try:
            h = gen_random(args.n, args.k, args.delta, args.eps, seed=seed)
        except HypergraphError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        args.seed = seed
        rep, _ = _run_verification(h, args)
        for cond in CONDITIONS:
            tally[cond] += getattr(rep, cond)
        tally["oracle_exact"] += rep.oracle_mode == "exact"

    print(f"trials = {args.trials}")
    for key in (*CONDITIONS, "oracle_exact"):
        print(f"{key} = {tally[key]}/{args.trials}")
    return 0 if all(tally[cond] == args.trials for cond in CONDITIONS) else 1


if __name__ == "__main__":
    sys.exit(run())
