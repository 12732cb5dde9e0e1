"""One measured repetition of a workload instance, in a fresh interpreter.

Each repetition runs in its own process because ``bounded._size_memo`` is
process-global: a second run in the same process would find the oracle
warm.  It makes the calls the ``hypercontainers verify`` command makes and
prints one JSON line with its timings, its checks and, when traced, its
per-layer metrics.  Set-up and report are each bracketed by runs of the
probe in calibrate.py, and every time is given normalised by it (the raw
wall times of set-up and report are given as well).

    python3 perfbench/rep.py --workload NAME --seed N --index I --trace 0|1

It writes the instance's edge list and, when traced, its spans under
``.perfbench_out`` at the root of the repository.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import sys
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

# Set-up is repeated until it has taken this long (or MAX_SETUPS times)
# and its median reported, so that a set-up of a few milliseconds is not
# one noisy sample.
SETUP_BUDGET_S = 0.3
MAX_SETUPS = 200


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--index", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    if not (SRC / "hypercontainers").is_dir():
        print(f"error: package source not found under {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    sys.path.insert(0, str(SRC))
    import hypercontainers as hc

    import tracing
    from calibrate import normalise, probe
    from workloads import WORKLOADS

    w = WORKLOADS[args.workload]
    run_id = f"{w.name}:{args.seed}:{args.index}"
    rec = tracing.Recorder(run_id) if args.trace else None
    span = rec.span if rec else nullcontext
    edge_file = OUT / f"{w.name}-{args.index}.hg"

    probe_setup = probe()
    setup_times = []
    while not setup_times or (sum(setup_times) < SETUP_BUDGET_S
                              and len(setup_times) < MAX_SETUPS):
        t0 = perf_counter()
        with span("instances.gen"):
            h = w.build(hc, args.seed, args.index)
        with span("instances.io"):
            hc.write_edge_list(h, edge_file)
            h = hc.read_edge_list(edge_file)
        params = hc.derive_params(h.k, w.pi, w.eps, h.n)
        ctx = hc.EngineContext(h, params, mode=w.mode)
        setup_times.append(perf_counter() - t0)
    probe_report = probe()

    with (tracing.installed(rec) if rec else nullcontext()):
        if rec:
            rec.counts["engine.contexts"] += 1  # the top-level context
        t0 = perf_counter()
        sets = hc.sample_independent_sets(
            h, w.sets, w.instance_seed(args.seed, args.index))
        if rec:
            sets = rec.iterate("verify.draw", sets)
            report = rec.call("verify.verify", hc.verify, ctx, sets, jobs=1)
        else:
            report = hc.verify(ctx, sets, jobs=1)
        text = report.to_text()
        report_s = perf_counter() - t0
    probe_end = probe()

    failures = []
    if not report.all_conditions_pass():
        failures.append("a condition failed")
    if report.oracle_mode != "exact":
        failures.append(f"oracle_mode = {report.oracle_mode}")

    out = {
        "index": args.index,
        "trace": args.trace,
        "setup_s": normalise(statistics.median(setup_times),
                             probe_setup, probe_report),
        "report_s": normalise(report_s, probe_report, probe_end),
        "setup_wall_s": statistics.median(setup_times),
        "report_wall_s": report_s,
        "probe_s": [probe_setup, probe_report, probe_end],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "sha256": hashlib.sha256(text.encode("utf-8")).hexdigest(),
        "failures": failures,
    }
    if rec:
        rec.write(OUT / f"spans-{w.name}-{args.index}.tsv")
        layers = tracing.layer_metrics(rec, report, len(setup_times))
        for name, value in layers.items():
            if name.endswith(("_s", "_ms")):
                phase = ((probe_setup, probe_report) if name.startswith("instances.")
                         else (probe_report, probe_end))
                layers[name] = normalise(value, *phase)
        out["layers"] = layers
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
