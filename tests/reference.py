"""Reference oracles for the tests: the definitions, written out
directly and independently of the construction's fast paths.

Each is exhaustive or a plain scan, so use them on small instances only.
sample_ksets is gen_random's candidate draw as random.sample makes it,
and gen_random_edges the whole of gen_random written with it.  h_minus
splits every edge of H into H^- and H^, as the container's definition
reads.
"""
from __future__ import annotations

import math
import random
from itertools import combinations
from typing import Iterable, Iterator

from hypercontainers.bounded import greedy_bounded_sub
from hypercontainers.core import Edge, Hypergraph, HypergraphError, cmp_log, nabla, vertex_fiber
from hypercontainers.engine import EngineError


def fiber(h: Hypergraph, us: Iterable[Iterable[int]]) -> Hypergraph:
    """Fiber of h over a collection of ell-sets: all (k-ell)-sets v with
    u | v an edge for some u in the collection (u and v disjoint)."""
    us = [tuple(sorted(set(u))) for u in us]
    if not us:
        return Hypergraph(h.n, max(h.k - 1, 1), ())
    ell = len(us[0])
    if not 1 <= ell < h.k:
        raise HypergraphError(f"fiber level {ell} out of range for k={h.k}")
    for u in us:
        if len(u) != ell:
            raise HypergraphError(f"fiber element {u} is not a {ell}-set")
    out: set[Edge] = set()
    for e in h.edges:
        es = set(e)
        for u in us:
            if es.issuperset(u):
                out.add(tuple(sorted(es - set(u))))
    return Hypergraph(h.n, h.k - ell, tuple(sorted(out)))


def codegrees(edges: Iterable[Edge], ell: int) -> dict[Edge, int]:
    """ell-set -> number of the given edges containing it, counted one
    edge and one ell-subset at a time."""
    counts: dict[Edge, int] = {}
    for e in edges:
        for u in combinations(e, ell):
            counts[u] = counts.get(u, 0) + 1
    return counts


def degree(h: Hypergraph, u: Iterable[int]) -> int:
    """Number of (k-ell)-sets completing the ell-set u to an edge."""
    u = tuple(sorted(set(u)))
    if not 1 <= len(u) < h.k:
        raise HypergraphError(f"degree level {len(u)} out of range for k={h.k}")
    if u[0] < 0 or u[-1] >= h.n:
        raise HypergraphError(f"vertex set {u} outside [0, {h.n})")
    us = set(u)
    return sum(1 for e in h.edges if us.issubset(e))


def section(h: Hypergraph, us: Iterable[Iterable[int]],
            vs: Iterable[Iterable[int]]) -> frozenset[Edge]:
    """[U, V]_h: edges decomposable as u | v with u in U, v in V, disjoint."""
    us = [frozenset(u) for u in us]
    vs = {frozenset(v) for v in vs}
    if not us or not vs:
        return frozenset()
    ell = len(us[0])
    if not 1 <= ell < h.k:
        raise HypergraphError(f"section level {ell} out of range for k={h.k}")
    for u in us:
        if len(u) != ell:
            raise HypergraphError("inconsistent arities in U")
    for v in vs:
        if len(v) != h.k - ell:
            raise HypergraphError("arity mismatch between U and V")
    out = set()
    for e in h.edges:
        es = frozenset(e)
        for u in us:
            if u <= es and (es - u) in vs:
                out.add(e)
                break
    return frozenset(out)


def sample_ksets(rng: random.Random, n: int, k: int) -> Iterator[Edge]:
    """gen_random's candidate draw written with random.sample: endless
    sorted k-subsets of range(n)."""
    while True:
        yield tuple(sorted(rng.sample(range(n), k)))


def gen_random_edges(n: int, k: int, delta: float, seed: int) -> tuple[Edge, ...]:
    """gen_random's edges by its definition: the first
    ceil(n^(1+(k-1)delta)) distinct sample_ksets candidates, sorted, then
    trimmed by greedy_bounded_sub."""
    target = math.ceil(n ** (1 + (k - 1) * delta))
    edges: set[Edge] = set()
    for e in sample_ksets(random.Random(seed), n, k):
        edges.add(e)
        if len(edges) == target:
            break
    return greedy_bounded_sub(Hypergraph(n, k, tuple(sorted(edges))), delta).edges


def pow_floor(n: int, tau: float) -> int:
    """The largest d >= 0 with d <= n^tau under cmp_log, by a scan up
    from 0."""
    d = 0
    while cmp_log(d + 1, tau, n) <= 0:
        d += 1
    return d


def pow_ceil(n: int, tau: float) -> int:
    """The least d >= 0 with d >= n^tau under cmp_log, by a scan up
    from 0."""
    d = 0
    while cmp_log(d, tau, n) < 0:
        d += 1
    return d


def is_bounded(h: Hypergraph, delta: float) -> bool:
    """Delta_ell(h) <= n^((k-ell) delta) at every level, as the definition
    reads: cmp_log on each level's largest codegree, no integer caps."""
    return all(cmp_log(max(codegrees(h.edges, ell).values(), default=0),
                       (h.k - ell) * delta, h.n) <= 0
               for ell in range(1, h.k))


def brute_force_max_bounded(hp: Hypergraph, delta: float) -> int:
    """Independent oracle: exhaustive DFS over all edge subsets with
    incremental codegree counters.  An edge is admitted iff every subset u
    of it, at level ell, keeps log_n deg(u) <= (k - ell) delta, as the
    definition reads.  For tests on small instances only."""
    if hp.k == 1:
        return len(hp.edges)
    n, k = hp.n, hp.k
    edges = list(hp.edges)
    counts: dict[Edge, int] = {}
    best = 0

    def rec(i: int, size: int) -> None:
        nonlocal best
        if i == len(edges):
            best = max(best, size)
            return
        subs = [u for ell in range(1, k) for u in combinations(edges[i], ell)]
        if all(cmp_log(counts.get(u, 0) + 1, (k - len(u)) * delta, n) <= 0 for u in subs):
            for u in subs:
                counts[u] = counts.get(u, 0) + 1
            rec(i + 1, size + 1)
            for u in subs:
                counts[u] -= 1
        rec(i + 1, size)

    rec(0, 0)
    return best


def h_minus(ctx, f) -> tuple[Hypergraph, Hypergraph]:
    """(H^-, H^) for a fingerprint F of the context ctx: H^ collects the
    edges with a (k-1)-subset in the fiber H_F or a t-subset of high
    degree in H_F, and H^- is the rest."""
    h, p = ctx.h, ctx.params
    if h.k < 2:
        raise EngineError("h_minus needs k >= 2")
    hf = vertex_fiber(h, frozenset(f))
    # H_F is (k-1)-uniform, so nabla's threshold is (k-1-t) delta
    levels = [(h.k - 1, frozenset(hf.edges))] + [
        (t, nabla(hf, t, p.delta)) for t in range(1, h.k - 1)]
    hat, rest = [], []
    for e in h.edges:
        high = any(u in marked for t, marked in levels for u in combinations(e, t))
        (hat if high else rest).append(e)
    return (Hypergraph(h.n, h.k, tuple(rest)),
            Hypergraph(h.n, h.k, tuple(hat)))
