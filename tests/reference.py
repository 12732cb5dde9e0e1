"""Reference oracles for the tests: the definitions, written out
directly and independently of the construction's fast paths.

Each is exhaustive or a plain scan, so use them on small instances only.
"""
from __future__ import annotations

from itertools import combinations
from typing import Iterable

from hypercontainers.bounded import _level_caps
from hypercontainers.core import Edge, Hypergraph, HypergraphError


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


def degree(h: Hypergraph, u: Iterable[int]) -> int:
    """Number of (k-ell)-sets completing the ell-set u to an edge."""
    u = tuple(sorted(set(u)))
    if not 1 <= len(u) < h.k:
        raise HypergraphError(f"degree level {len(u)} out of range for k={h.k}")
    if u[0] < 0 or u[-1] >= h.n:
        raise HypergraphError(f"vertex set {u} outside [0, {h.n})")
    us = set(u)
    anchor = h.incidence.get(u[0], ())
    return sum(1 for e in anchor if us.issubset(e))


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


def brute_force_max_bounded(hp: Hypergraph, delta: float) -> int:
    """Independent oracle: exhaustive DFS over all edge subsets with
    incremental codegree counters.  For tests on small instances only."""
    if hp.k == 1:
        return len(hp.edges)
    caps = _level_caps(hp, delta)
    edges = list(hp.edges)
    counts: dict[Edge, int] = {}
    best = 0

    def rec(i: int, size: int) -> None:
        nonlocal best
        if i == len(edges):
            best = max(best, size)
            return
        e = edges[i]
        subs = [(u, ell) for ell in caps for u in combinations(e, ell)]
        if all(counts.get(u, 0) < caps[ell] for u, ell in subs):
            for u, _ell in subs:
                counts[u] = counts.get(u, 0) + 1
            rec(i + 1, size + 1)
            for u, _ell in subs:
                counts[u] -= 1
        rec(i + 1, size)

    rec(0, 0)
    return best
