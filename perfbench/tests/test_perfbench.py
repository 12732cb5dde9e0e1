"""Self-tests of the benchmark: span arithmetic, wrapper installation,
and that tracing leaves the report unchanged.

    python3 -m pytest perfbench/tests
"""
import json
from pathlib import Path

import pytest

import calibrate
import hypercontainers as hc
import run
import tracing
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[2]


def test_self_time_nested_same_and_other_layer():
    # engine[0,10] > bounded[2,5] > engine[3,4]; engine[6,7] directly in the root
    starts = [0.0, 2.0, 3.0, 6.0]
    ends = [10.0, 5.0, 4.0, 7.0]
    parents = [-1, 0, 1, 0]
    assert tracing.self_times(starts, ends, parents) == [6.0, 2.0, 1.0, 1.0]


def test_self_time_overlapping_children_count_once():
    # children [1,4] and [3,6] overlap; [8,12] sticks out of the parent
    starts = [0.0, 1.0, 3.0, 8.0]
    ends = [10.0, 4.0, 6.0, 12.0]
    parents = [-1, 0, 0, 0]
    assert tracing.self_times(starts, ends, parents)[0] == pytest.approx(3.0)


def test_outermost_skips_same_name_ancestors_only():
    names = ["a", "b", "a", "a", "b"]
    parents = [-1, 0, 1, -1, 3]
    assert tracing.outermost(names, parents) == [True, True, False, True, True]


def test_normalise_scales_by_mean_probe():
    nominal = calibrate.NOMINAL_S
    assert calibrate.normalise(3.0, nominal, nominal) == pytest.approx(3.0)
    # a host running at half speed doubles both the section and the probe
    assert calibrate.normalise(6.0, 1.5 * nominal, 2.5 * nominal) == pytest.approx(3.0)


def test_mean_of_medians_weights_instances_equally():
    reps = [{"index": 0, "t": 1.0}, {"index": 0, "t": 9.0}, {"index": 0, "t": 2.0},
            {"index": 1, "t": 4.0}]
    assert run.mean_of_medians(reps, lambda r: r["t"]) == pytest.approx(3.0)


def test_wrappers_installed_then_restored():
    rec = tracing.Recorder("t")
    before = [(owner, attr, owner.__dict__[attr] if isinstance(owner, type)
               else getattr(owner, attr)) for owner, attr, _ in tracing.targets(rec)]
    with tracing.installed(rec):
        for owner, attr, original in before:
            assert getattr(owner, attr) is not original
    for owner, attr, original in before:
        current = (owner.__dict__[attr] if isinstance(owner, type)
                   else getattr(owner, attr))
        assert current is original


def _report(rec):
    h = hc.gen_ap(12, 3)
    ctx = hc.EngineContext(h, hc.derive_params(h.k, 0.55, 0.5, h.n))
    sets = hc.enumerate_independent_sets(h)
    if rec is None:
        return hc.verify(ctx, sets, enumerated=True)
    rec.counts["engine.contexts"] += 1
    with tracing.installed(rec):
        return rec.call("verify.verify", hc.verify, ctx,
                        rec.iterate("verify.draw", sets), enumerated=True)


def test_traced_report_is_byte_identical():
    rec = tracing.Recorder("t")
    traced = _report(rec)
    assert traced.to_text() == _report(None).to_text()
    layers = tracing.layer_metrics(rec, traced, setups=1)
    assert set(layers) == {n for n, _ in tracing.PER_LAYER} - {"trace.overhead_frac"}
    assert layers["verify.draw_calls"] == traced.samples
    assert layers["engine.print_of_calls"] == traced.samples
    assert layers["bounded.matching_solves"] > 0
    assert layers["bounded.greedy_calls"] == 0


def test_benchmark_json_matches_run_and_tracing():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(tracing.PER_LAYER)
