"""Golden reports: the default report of seven fixed runs, byte for byte.

Each case loads a different route of the construction: the non-expanding
H^- branch at k=3 and, in the paper's non-vacuous regime (sigma < 1,
strict), at k=2; the k=2 witness (b-matching) path, branch-and-bound,
the permissive greedy fallback, the strict k=2 sampled path, and k=2
witnesses that the degree caps make smaller than their fibers.  A change
that must not alter behaviour keeps these files unchanged.

Regenerate (only when a change is meant to alter reports):

    PYTHONPATH=src python tests/test_golden.py
"""
import random
from pathlib import Path

import pytest

from conftest import low_degree_singletons
from hypercontainers import (
    EngineContext,
    Hypergraph,
    derive_params,
    enumerate_independent_sets,
    gen_ap,
    gen_random,
    sample_independent_sets,
    verify,
)

GOLDEN = Path(__file__).parent / "golden"


def _report(h, pi, eps, samples=None, **ctx_kw) -> str:
    ctx = EngineContext(h, derive_params(h.k, pi, eps, h.n), **ctx_kw)
    if samples is None:
        return verify(ctx, enumerate_independent_sets(h), enumerated=True).to_text()
    return verify(ctx, sample_independent_sets(h, samples, 0)).to_text()


def _hminus_k2_report() -> str:
    h = gen_random(16384, 2, 0.25, 0.3, 1)
    ctx = EngineContext(h, derive_params(h.k, 0.75, 0.3, h.n), mode="strict")
    return verify(ctx, low_degree_singletons(h)).to_text()


def _random_4sets() -> Hypergraph:
    rng = random.Random(31)
    edges = set()
    while len(edges) < 40:
        edges.add(tuple(sorted(rng.sample(range(10), 4))))
    return Hypergraph(10, 4, tuple(sorted(edges)))


CASES = {
    "ap14_k3_hminus": lambda: _report(gen_ap(14, 3), 0.55, 0.5),
    "random100_k3_witness": lambda: _report(
        gen_random(100, 3, 0.4, 0.3, 1), 0.6, 0.3, samples=4),
    "random12_k4_bnb": lambda: _report(gen_random(12, 4, 0.3, 0.6, 2), 0.7, 0.6),
    "random10_k4_heuristic": lambda: _report(_random_4sets(), 0.7, 0.5, oracle_cap=10),
    "random2048_k2_strict": lambda: _report(
        gen_random(2048, 2, 0.25, 0.4, 1), 0.75, 0.4, samples=20, mode="strict"),
    "random24_k3_binding": lambda: _report(
        gen_random(24, 3, 0.6, 0.3, 1), 0.7, 0.3, samples=4),
    "random16384_k2_hminus": _hminus_k2_report,
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_report(name):
    assert CASES[name]() == (GOLDEN / f"{name}.txt").read_text(encoding="utf-8")


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, case in CASES.items():
        (GOLDEN / f"{name}.txt").write_text(case(), encoding="utf-8", newline="\n")
