"""Acceptance suite: one test per criterion, one pass/fail line each.

Each test prints a `[criterion N] name: PASS/FAIL` line (visible with
pytest -s; under default capture the per-test PASSED/FAILED line serves
the same purpose).  Runtime budgets are asserted where pinned.
"""
import functools
import random
import sys
import time
from itertools import combinations

import pytest

from hypercontainers.bounded import greedy_bounded_sub, max_bounded_sub
from hypercontainers.cli import main as cli_main
from hypercontainers.core import is_bounded, new_hypergraph
from hypercontainers.engine import EngineContext, derive_params
from hypercontainers.instances import gen_ap, gen_random
from hypercontainers.verify import (
    enumerate_independent_sets,
    sample_independent_sets,
    verify,
)

from conftest import random_hypergraph


def _report(num, name, ok):
    print(f"[criterion {num}] {name}: {'PASS' if ok else 'FAIL'}",
          file=sys.stderr)


def criterion(num, name):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                _report(num, name, False)
                raise
            _report(num, name, True)
        return wrapper
    return deco


def _run_enumerated(h, pi, eps):
    ctx = EngineContext(h, derive_params(h.k, pi, eps, h.n))
    sets = list(enumerate_independent_sets(h, cap=h.n))
    return ctx, verify(ctx, sets, enumerated=True)


@criterion(1, "base-case exactness (k=1)")
def test_criterion_01_base_case_exactness():
    start = time.monotonic()
    rng = random.Random(11)
    for trial in range(50):
        n = rng.randint(4, 20)
        covered = rng.sample(range(n), rng.randint(1, n - 2))
        h = new_hypergraph(n, 1, [(v,) for v in covered])
        eps = 1.0  # sigma = eps at k = 1
        ctx = EngineContext(h, derive_params(1, 0.5, eps, n))
        sets = list(sample_independent_sets(h, 20, seed=trial))
        rep = verify(ctx, sets)
        assert rep.all_conditions_pass()
        assert rep.containers_distinct == 1
        (_prnt, cont), = rep.print_containers.values()
        assert cont == frozenset(range(n)) - set(covered)
    assert time.monotonic() - start < 1.0


@pytest.fixture(scope="module")
def exhaustive_runs():
    """Fifty enumerated runs shared by criteria 2, 3, and 5."""
    runs = []
    seed = 0
    combos = [(n, d, e) for n in (8, 12, 16) for d in (0.0, 0.2, 0.3)
              for e in (0.3, 0.6, 1.0)]
    # extra n=16, eps=1.0 instances: the only scale here where the
    # hypothesis flags hold (eps >= 2k log_n 2 needs log_n 2 <= 1/4)
    combos += [(16, 0.0, 1.0), (16, 0.2, 1.0), (16, 0.3, 1.0)]
    for n, delta_t, eps in combos:
        h = gen_random(n, 2, delta_t, eps, seed=seed)
        seed += 1
        runs.append((h, *_run_enumerated(h, 1.0 - delta_t, eps)))
    for n in (8, 10, 12):
        for delta_t in (0.2, 1 / 3):
            for eps in (0.6, 1.0):
                for s in (0, 1):
                    if len([r for r in runs if r[0].k == 3]) >= 20:
                        break
                    h = gen_random(n, 3, delta_t, eps, seed=100 + seed)
                    seed += 1
                    runs.append((h, *_run_enumerated(h, 1.0 - delta_t, eps)))
    return runs


@criterion(2, "exhaustive condition suite (k=2,3)")
def test_criterion_02_condition_suite(exhaustive_runs):
    start = time.monotonic()
    assert len(exhaustive_runs) >= 50
    for h, ctx, rep in exhaustive_runs:
        assert h.n ** ctx.params.pi >= 2
        assert rep.oracle_mode == "exact"
        assert rep.method == "enumeration"
        assert rep.cond_i and rep.cond_ii
        assert rep.cond_iii, rep.cond_iii_counterexample
    assert time.monotonic() - start < 300


@criterion(3, "container-size quarter bound")
def test_criterion_03_container_size(exhaustive_runs):
    asserted = 0
    for _h, _ctx, rep in exhaustive_runs:
        if rep.diag_quarter_ok != "na":
            assert rep.diag_quarter_ok == "true", (
                f"n={rep.n} min complement {rep.diag_min_complement}")
            asserted += 1
        else:
            # measured complement sizes are still recorded
            assert rep.complement_log_min <= rep.complement_log_max
    assert asserted > 0


@criterion(4, "bounded-subhypergraph oracle equivalence")
def test_criterion_04_oracle_equivalence():
    deltas = (0.0, 0.25, 0.5, 0.75, 1.0)
    rng = random.Random(17)
    for _ in range(100):
        h = random_hypergraph(rng, n_max=9, k_max=3, m_max=14)
        m = len(h.edges)
        # independent brute force: best delta-bounded size per delta,
        # codegrees computed once per edge subset
        best = {d: 0 for d in deltas}
        caps = {d: [h.n ** ((h.k - l) * d) * (1 + 1e-9)
                    for l in range(1, h.k)] for d in deltas}
        for mask in range(1 << m):
            sub = [h.edges[i] for i in range(m) if mask >> i & 1]
            codeg = [{} for _ in range(h.k - 1)]
            for e in sub:
                for l in range(1, h.k):
                    for t in combinations(e, l):
                        codeg[l - 1][t] = codeg[l - 1].get(t, 0) + 1
            worst = [max(codeg[l - 1].values(), default=0)
                     for l in range(1, h.k)]
            for d in deltas:
                if len(sub) > best[d] and all(
                        w <= c for w, c in zip(worst, caps[d])):
                    best[d] = len(sub)
        for d in deltas:
            w = max_bounded_sub(h, d)
            assert len(w) == best[d]
            assert is_bounded(w, d)
            assert set(w.edges) <= set(h.edges)
            assert len(greedy_bounded_sub(h, d)) <= len(w)


@criterion(5, "counting bound on enumerated runs")
def test_criterion_05_counting_bound(exhaustive_runs):
    for _h, _ctx, rep in exhaustive_runs:
        assert 0 <= rep.counting_lhs <= rep.counting_rhs


@criterion(6, "derived-constants identity")
def test_criterion_06_constants_identity():
    rng = random.Random(23)
    for _ in range(100):
        k = rng.randint(1, 6)
        n = rng.randint(4, 1 << 20)
        p = derive_params(k, rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0), n)
        lhs = p.pi_tilde + (k - 1) * p.delta_p - p.eps_tilde
        rhs = 1 + (k - 2) * p.delta_p - p.eps_p
        assert abs(lhs - rhs) <= 1e-12
        if p.hyp_eps_ok:
            assert p.sigma_p <= p.sigma + 1e-12


@criterion(7, "arithmetic-progression demo")
def test_criterion_07_ap_demo():
    start = time.monotonic()
    h101 = gen_ap(101, 3)
    # direct triple scan, independent of the generator
    brute = 0
    for a in range(101):
        for c in range(a + 2, 101):
            if (a + c) % 2 == 0:
                brute += 1
    assert len(h101.edges) == 2500 == brute

    h14 = gen_ap(14, 3)
    count = sum(1 for _ in enumerate_independent_sets(h14, cap=14))
    bitmask = 0
    for mask in range(1 << 14):
        ok = True
        for a, b, c in h14.edges:
            if mask >> a & 1 and mask >> b & 1 and mask >> c & 1:
                ok = False
                break
        bitmask += ok
    assert count == bitmask == 1760

    _ctx, rep = _run_enumerated(h14, 0.55, 0.5)
    assert rep.counting_lhs == 1760
    assert rep.counting_lhs <= rep.counting_rhs
    assert time.monotonic() - start < 60


@criterion(8, "large-n sampled smoke test")
def test_criterion_08_scale_smoke(tmp_path, capsys):
    start = time.monotonic()
    inst = tmp_path / "big.hg"
    assert cli_main(["gen", "--random", "--n", "4096", "--k", "2",
                     "--delta", "0.25", "--eps", "0.6", "--seed", "3",
                     "-o", str(inst)]) == 0
    reports = []
    for name in ("r1.txt", "r2.txt"):
        out = tmp_path / name
        code = cli_main(["verify", "--input", str(inst), "--pi", "0.75",
                         "--eps", "0.6", "--samples", "1000", "--seed", "5",
                         "-o", str(out)])
        capsys.readouterr()
        assert code in (0, 1)
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]
    text = reports[0].decode()
    assert "method = sampling" in text
    assert "samples = 1000" in text
    assert "cond_iii = true" in text
    assert time.monotonic() - start < 300


@criterion(9, "non-vacuous strict regime (sigma < 1)")
def test_criterion_09_nonvacuous_regime():
    # the paper's regime at desk scale: both hypothesis flags hold and
    # condition (iv) demands log_n |X \ C| >= 1 - sigma > 0
    start = time.monotonic()
    h = gen_random(16384, 2, 0.25, 0.3, 1)
    ctx = EngineContext(h, derive_params(h.k, 0.75, 0.3, h.n), mode="strict")
    rep = verify(ctx, sample_independent_sets(h, 8, 1))
    p = rep.params
    assert p.sigma == pytest.approx(0.9)
    assert p.hyp_eps_ok and p.hyp_pi_ok
    assert rep.all_conditions_pass()
    assert rep.complement_log_min > 1 - p.sigma > 0
    assert time.monotonic() - start < 60
