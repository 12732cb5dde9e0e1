import math
import random
from itertools import chain, combinations

import pytest
from hypothesis import given, settings

from hypercontainers import bounded
from hypercontainers.bounded import (
    OracleSizeError,
    _bnb_max,
    greedy_bounded_sub,
    max_bounded_size,
    max_bounded_sub,
)
from hypercontainers.core import (
    Hypergraph,
    is_bounded,
    level_caps,
    new_hypergraph,
    vertex_fiber,
)
from hypercontainers.engine import EngineContext, derive_params
from hypercontainers.instances import gen_random
from hypercontainers.verify import sample_independent_sets, verify

from conftest import hypergraphs, limit_cmp_log, random_hypergraph
from reference import brute_force_max_bounded

STAR = new_hypergraph(4, 2, [(0, 1), (0, 2), (0, 3)])


class TestExact:
    def test_star_capped(self):
        # vertex cap at delta=0.5 is 2; lexicographically least witness
        assert max_bounded_sub(STAR, 0.5).edges == ((0, 1), (0, 2))

    def test_one_uniform_is_itself(self):
        h = new_hypergraph(5, 1, [(0,), (2,), (4,)])
        assert max_bounded_sub(h, 0.0).edges == h.edges

    def test_empty(self):
        w = max_bounded_sub(new_hypergraph(4, 2, []), 0.5)
        assert len(w) == 0

    def test_size_guard(self):
        rng = random.Random(0)
        edges = set()
        while len(edges) < 30:
            edges.add(tuple(sorted(rng.sample(range(9), 3))))
        h = Hypergraph(9, 3, tuple(sorted(edges)))
        with pytest.raises(OracleSizeError):
            max_bounded_sub(h, 0.3, exact_cap=24)
        with pytest.raises(OracleSizeError):
            max_bounded_size(h, 0.3, exact_cap=24)

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_bounded_input_beyond_the_cap_is_its_own_witness(self, monkeypatch, k):
        # a bounded input needs no search and no solve, so the edge cap
        # does not apply; disjoint edges: every cap is at least 1, even
        # at delta = 0
        edges = [tuple(range(i * k, (i + 1) * k)) for i in range(40 // k)]
        h = Hypergraph(40, k, tuple(edges))
        assert len(h) > 3 and is_bounded(h, 0.0)
        calls = _count_solves(monkeypatch)
        assert max_bounded_sub(h, 0.0, exact_cap=3) is h
        assert max_bounded_size(h, 0.0, exact_cap=3) == len(h)
        assert calls == []
        if k < 3:
            return
        # one more edge meeting the first puts vertex 1 over its cap 1
        h = Hypergraph(40, k, tuple(sorted(edges + [tuple(range(1, k + 1))])))
        assert not is_bounded(h, 0.0)
        for oracle in (max_bounded_sub, max_bounded_size):
            with pytest.raises(OracleSizeError):
                oracle(h, 0.0, exact_cap=3)


def _random_graph(rng, n_max=9, m_max=14):
    n = rng.randint(2, n_max)
    pairs = list(combinations(range(n), 2))
    m = rng.randint(1, min(m_max, len(pairs)))
    return Hypergraph(n, 2, tuple(sorted(rng.sample(pairs, m))))


def test_k2_witness_is_lexicographically_least():
    # include-first branch-and-bound is an independent reference for the
    # lexicographically least maximum witness; the degree caps must bind
    # (|W| < m) in enough cases for the order to matter
    rng = random.Random(3)
    binding = 0
    for _ in range(400):
        h = _random_graph(rng)
        for delta in (0.0, 0.2, 0.35, 0.5, 0.75, 1.0):
            w = max_bounded_sub(h, delta).edges
            assert w == _bnb_max(list(h.edges), level_caps(h.n, h.k, delta))
            binding += len(w) < len(h.edges)
    assert binding >= 100


def _count_solves(monkeypatch) -> list:
    calls = []
    solve = bounded.nx.max_weight_matching
    monkeypatch.setattr(bounded.nx, "max_weight_matching",
                        lambda *a, **kw: calls.append(1) or solve(*a, **kw))
    return calls


def test_k2_one_matching_solve_per_call(monkeypatch):
    # one solve when some vertex is over its cap, none when every edge is free
    calls = _count_solves(monkeypatch)
    rng = random.Random(4)
    seen = set()
    for _ in range(40):
        h = _random_graph(rng)
        binds = h.max_degrees[0] > level_caps(h.n, h.k, 0.35)[0]
        seen.add(binds)
        for op in (max_bounded_sub, max_bounded_size):
            calls.clear()
            op(h, 0.35)
            assert len(calls) == int(binds)
    assert seen == {False, True}


@pytest.mark.parametrize("n,delta,seed", [(30, 0.4, 0), (40, 0.4, 1), (40, 0.3, 2),
                                          (60, 0.35, 3)])
def test_bounded_fiber_is_its_own_witness(monkeypatch, n, delta, seed):
    # H delta-bounded, |F| <= 2: every vertex of H_F has degree at most
    # 2 n^delta = n^delta', so the witness is the whole fiber, unsolved
    h = gen_random(n, 3, delta, 0.3, seed)
    p = derive_params(3, 1 - delta, 0.3, n)
    assert h.edges and is_bounded(h, p.delta)
    calls = _count_solves(monkeypatch)
    for f in chain(combinations(range(n), 1), combinations(range(n), 2)):
        hf = vertex_fiber(h, f)
        assert max_bounded_sub(hf, p.delta_p).edges == hf.edges
        assert max_bounded_size(hf, p.delta_p) == len(hf.edges)
    assert calls == []


def test_free_edges_kept_beside_a_hub(monkeypatch):
    # hub 15 has degree 7 over its cap 4; the other edges, one of them
    # sharing vertex 8 with a hub edge, are free and come first in order
    hub = [(v, 15) for v in range(8, 15)]
    free = [(0, 1), (2, 3), (4, 5), (5, 8)]
    h = new_hypergraph(16, 2, free + hub)
    assert level_caps(h.n, h.k, 0.5)[0] == 4
    calls = _count_solves(monkeypatch)
    w = max_bounded_sub(h, 0.5).edges
    assert len(calls) == 1
    assert set(free) <= set(w)
    assert w == tuple(free + hub[:4])
    assert w == _bnb_max(list(h.edges), level_caps(h.n, h.k, 0.5))
    assert max_bounded_size(h, 0.5) == len(w)


def test_k4_bounded_fibers_beyond_the_cap_run_exact(monkeypatch):
    # the 3-uniform fibers of this k=4 run exceed the 24-edge cap but are
    # delta'-bounded, so the run is exact; with the oracle's own-witness
    # rule switched off it falls back to greedy, which keeps the same
    # edges, and only oracle_mode differs
    h = gen_random(60, 4, 0.3, 0.6, 1)

    def report():
        ctx = EngineContext(h, derive_params(4, 0.7, 0.6, h.n))
        return verify(ctx, sample_independent_sets(h, 20, 0)).to_text()

    exact = report()
    monkeypatch.setattr(bounded, "_own_witness", lambda *args: False)
    heuristic = report()
    assert "oracle_mode = exact\n" in exact
    assert exact.replace("oracle_mode = exact\n", "oracle_mode = heuristic\n") == heuristic


@pytest.mark.parametrize("k", [3, 4])
def test_witnesses_are_canonical_subsequences(k):
    # every route builds its witness by scanning hp.edges in order, so the
    # kept edges are a subsequence of hp.edges with nothing re-sorted
    rng = random.Random(k)
    binding = 0
    for _ in range(60):
        n = rng.randint(k + 1, 9)
        m = rng.randint(1, min(14, math.comb(n, k)))
        h = Hypergraph(n, k, tuple(sorted(rng.sample(list(combinations(range(n), k)), m))))
        for delta in (0.0, 0.25, 0.5):
            for w in (max_bounded_sub(h, delta), greedy_bounded_sub(h, delta)):
                assert (w.n, w.k) == (h.n, h.k)
                rest = iter(h.edges)
                assert all(e in rest for e in w.edges)
                binding += len(w) < len(h)
    assert binding >= 100


class TestGreedy:
    def test_wide_empty_input_returned(self, monkeypatch):
        # the caps n^(60-ell) of k = 60 at n = 2^20 are above any float;
        # found by bisection, each in about 2 (20 (60-ell) + 2) steps
        h = Hypergraph(1 << 20, 60, ())
        limit_cmp_log(monkeypatch, sum(2 * (20 * j + 2) for j in range(1, 60)))
        assert greedy_bounded_sub(h, 1.0) == h

    def test_star_scan(self):
        assert greedy_bounded_sub(STAR, 0.5).edges == ((0, 1), (0, 2))

    def test_already_bounded_kept(self):
        h = new_hypergraph(6, 2, [(0, 1), (2, 3), (4, 5)])
        assert greedy_bounded_sub(h, 0.0).edges == h.edges

    def test_one_uniform_is_itself(self):
        h = new_hypergraph(5, 1, [(0,), (2,), (4,)])
        assert greedy_bounded_sub(h, 0.0) == h

    def test_triangle_delta_zero(self):
        h = new_hypergraph(4, 2, [(0, 1), (0, 2), (1, 2)])
        assert greedy_bounded_sub(h, 0.0).edges == ((0, 1),)


@given(hypergraphs(n_max=8, m_max=9))
@settings(max_examples=50, deadline=None)
def test_exact_matches_brute_force(h):
    for delta in (0.0, 0.25, 0.5, 0.75, 1.0):
        w = max_bounded_sub(h, delta)
        assert len(w) == brute_force_max_bounded(h, delta)
        assert is_bounded(w, delta)
        assert set(w.edges) <= set(h.edges)
        assert len(greedy_bounded_sub(h, delta)) <= len(w)


@given(hypergraphs(n_max=8, m_max=10))
@settings(max_examples=40, deadline=None)
def test_fiber_monotone_in_fingerprint(h):
    if h.k < 2:
        return
    verts = sorted(h.covered_vertices())
    if len(verts) < 2:
        return
    small, big = set(verts[:1]), set(verts[:2])
    hf_small = vertex_fiber(h, small)
    hf_big = vertex_fiber(h, big)
    assert set(hf_small.edges) <= set(hf_big.edges)
    for delta in (0.0, 0.5, 1.0):
        assert max_bounded_size(hf_small, delta) <= max_bounded_size(hf_big, delta)


class TestPredicates:
    def test_empty_fingerprint_never_expanding(self):
        p = derive_params(2, 0.7, 0.2, STAR.n)
        assert not EngineContext(STAR, p).fingerprint_expanding(frozenset())

    def test_empty_fingerprint_expansive(self):
        p = derive_params(2, 0.7, 0.2, STAR.n)
        assert EngineContext(STAR, p).fingerprint_expansive(frozenset())

    def test_singleton_empty_fiber_not_expansive(self):
        h = new_hypergraph(8, 2, [(0, 1)])
        p = derive_params(2, 0.9, 0.1, 8)
        # vertex 5 is isolated: fiber empty, positive threshold
        assert not EngineContext(h, p).fingerprint_expansive({5})

    def test_expanding_fixed_threshold(self):
        # n=16, k=2: threshold n^(1-eps') with eps'=0.5 is 4; |H_F| = 5
        h = new_hypergraph(16, 2, [(0, v) for v in range(1, 6)])
        p = derive_params(2, 0.7, 0.2, 16)
        p = type(p)(**{**p.__dict__, "eps_p": 0.5, "delta_p": 1.0})
        assert EngineContext(h, p).fingerprint_expanding({0})
        h4 = new_hypergraph(16, 2, [(0, v) for v in range(1, 4)])
        assert not EngineContext(h4, p).fingerprint_expanding({0})

    def test_expansive_fixed_arithmetic(self):
        # |F| = 2, 1-uniform fiber of size 7, per-element threshold 3: 7 >= 6
        n = 16
        h = new_hypergraph(n, 2, [(0, v) for v in range(2, 7)] + [(1, v) for v in range(5, 9)])
        # fiber over {0,1} is {2,...,8}: 7 vertices
        p = derive_params(2, 0.7, 0.2, n)
        tau = math.log(3, n)  # threshold n^tau = 3 per element
        p = type(p)(**{**p.__dict__, "delta_p": tau, "eps_tilde": 0.0})
        assert EngineContext(h, p).fingerprint_expansive({0, 1})
        p6 = type(p)(**{**p.__dict__, "delta_p": math.log(4, n), "eps_tilde": 0.0})
        assert not EngineContext(h, p6).fingerprint_expansive({0, 1})  # 7 < 8


def test_expansive_implies_expanding_above_pi_tilde():
    # the two thresholds coincide at log|F| = pi~, so a fingerprint at
    # least that large satisfying the growth inequality is expanding
    rng = random.Random(5)
    checked = 0
    for _ in range(300):
        h = random_hypergraph(rng, n_max=9, k_max=3, m_max=10)
        if h.k < 2 or not h.edges:
            continue
        p = derive_params(h.k, rng.uniform(0.3, 1.0), rng.uniform(0.0, 1.0), h.n)
        verts = sorted(h.covered_vertices())
        f = frozenset(rng.sample(verts, min(len(verts), rng.randint(1, 3))))
        ctx = EngineContext(h, p)
        if ctx.fingerprint_expansive(f) and math.log(len(f), h.n) >= p.pi_tilde:
            assert ctx.fingerprint_expanding(f)
            checked += 1
    assert checked > 0
