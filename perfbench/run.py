"""The repository benchmark.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --record

Runs one workload (see workloads.py) for about ``--seconds`` seconds, one
repetition at a time, each in a fresh interpreter (rep.py).  Repetitions
cycle over the workload's instances; every metric is the mean over the
instances measured of the median over that instance's repetitions.

The host is a share of a machine whose speed drifts by up to 2x, within a
second and over tens of minutes, so the raw medians of ten runs of the
same code differed by 30% between two sets of runs.  Every time a
repetition measures is therefore normalised by a fixed probe workload run
right before and after it (calibrate.py) and reported in seconds at the
probe's nominal speed; rep.py also records the raw wall times.  On a
shared 2-vCPU x86 host, five seeds of 60-second runs spread (quartile
distance over median) 0.15-0.17 in raw ``report_s`` and 0.04-0.08
normalised; ten seeds of 55-second runs spread 0.045 (k2-strict-n16384)
and 0.053 (k3-oracle-n200) normalised.

With ``--trace 0`` it reports the end-to-end metrics: ``setup_s`` (build
the instance, write and read it back as an edge list, derive the
parameters, construct the context), ``report_s`` (from a ready context to
the report text) and ``peak_rss_mb`` (the repetition's peak resident
memory).  With ``--trace 1`` each cycle runs every instance untraced and
then traced, and it reports the per-layer metrics of tracing.py, where
``trace.overhead_frac`` is traced over untraced ``report_s``, minus 1.

A repetition fails if it raises, if a condition (i)-(iv) fails, if the
oracle was not exact, if its report differs
from an earlier report of the same instance (traced or not), or, at the
default seed, if the report's sha256 differs from reference.json.
``--record`` rewrites reference.json from the default seed.  Every
repetition's result is kept in ``.perfbench_out/reps-*.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

from rep import OUT, SRC
from tracing import PER_LAYER
from workloads import DEFAULT_SEED, WORKLOADS

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"
REP_TIMEOUT_S = 150

END_TO_END = (("setup_s", "s"), ("report_s", "s"), ("peak_rss_mb", "MB"))


def run_rep(workload: str, seed: int, index: int, trace: int) -> dict:
    """Run one repetition; return its result, with ``failures`` set."""
    cmd = [sys.executable, str(HERE / "rep.py"), "--workload", workload,
           "--seed", str(seed), "--index", str(index), "--trace", str(trace)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=REP_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        return {"index": index, "trace": trace,
                "failures": [f"timed out after {REP_TIMEOUT_S} s"]}
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"index": index, "trace": trace,
                "failures": [f"exit code {proc.returncode}"]}
    return json.loads(lines[-1])


def mean_of_medians(reps: list[dict], value) -> float:
    """Mean over the instances of the median of ``value`` over each
    instance's repetitions."""
    by_index = defaultdict(list)
    for r in reps:
        by_index[r["index"]].append(value(r))
    return statistics.fmean(statistics.median(v) for v in by_index.values())


def check_digests(reps: list[dict], reference: list[str] | None) -> None:
    """Fail every repetition whose report differs from the first report of
    its instance or, when given, from the reference digest."""
    first: dict[int, str] = {}
    for r in reps:
        if "sha256" not in r:
            continue
        i = r["index"]
        expected = reference[i] if reference else first.setdefault(i, r["sha256"])
        if r["sha256"] != expected:
            r["failures"].append(f"report digest {r['sha256']} != {expected}")


def measure(workload: str, seed: int, seconds: float, trace: int) -> list[dict]:
    """Cycle over the instances, starting no step after the first that
    would, at the mean step time so far, end after ``seconds``.  A step is
    one repetition, or with ``trace`` an untraced and a traced one."""
    w = WORKLOADS[workload]
    modes = (0, 1) if trace else (0,)
    reps = []
    start = perf_counter()
    step = 0
    while step == 0 or (perf_counter() - start) * (step + 1) / step <= seconds:
        index = step % w.instances
        for mode in modes:
            r = run_rep(workload, seed, index, mode)
            reps.append(r)
            print(f"rep instance={index} trace={mode} setup_s={r.get('setup_s')}"
                  f" report_s={r.get('report_s')}", file=sys.stderr)
        step += 1
    return reps


def load_reference(workload: str, seed: int) -> list[str] | None:
    if seed != DEFAULT_SEED:
        return None
    return json.loads(REFERENCE.read_text(encoding="utf-8"))[workload]


def record() -> None:
    ref = {}
    for name, w in WORKLOADS.items():
        reps = [run_rep(name, DEFAULT_SEED, i, 0) for i in range(w.instances)]
        bad = [r for r in reps if r["failures"]]
        if bad:
            raise SystemExit(f"{name}: {bad[0]['failures']}")
        ref[name] = [r["sha256"] for r in reps]
    REFERENCE.write_text(json.dumps(ref, indent=2) + "\n", encoding="utf-8")


def metrics_line(reps: list[dict], trace: int) -> dict:
    ok = [r for r in reps if not r["failures"]]
    if trace:
        plain = [r for r in ok if not r["trace"]]
        traced = [r for r in ok if r["trace"]]
        values = {name: mean_of_medians(traced, lambda r, n=name: r["layers"][n])
                  for name, _unit in PER_LAYER if name != "trace.overhead_frac"}
        values["trace.overhead_frac"] = (
            mean_of_medians(traced, lambda r: r["report_s"])
            / mean_of_medians(plain, lambda r: r["report_s"]) - 1)
        units = PER_LAYER
    else:
        values = {name: mean_of_medians(ok, lambda r, n=name: r[n])
                  for name, _unit in END_TO_END}
        units = END_TO_END
    return {
        "correct": len(ok) == len(reps),
        "attempted": len(reps),
        "failed": len(reps) - len(ok),
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=60.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true",
                    help="rewrite reference.json from the default seed")
    args = ap.parse_args(argv)

    if not (SRC / "hypercontainers").is_dir():
        print(f"error: package source not found under {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    if args.record:
        record()
        return 0
    if args.workload is None:
        ap.error("--workload is required")

    reps = measure(args.workload, args.seed, args.seconds, args.trace)
    check_digests(reps, load_reference(args.workload, args.seed))
    (OUT / f"reps-{args.workload}-{args.seed}-{args.trace}.json").write_text(
        json.dumps(reps) + "\n", encoding="utf-8")
    for r in reps:
        for failure in r["failures"]:
            print(f"{args.workload} instance {r['index']}: {failure}",
                  file=sys.stderr)
    if {r["trace"] for r in reps if not r["failures"]} != {0, args.trace}:
        print("error: no repetition of a kind passed", file=sys.stderr)
        return 1
    print(json.dumps(metrics_line(reps, args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
