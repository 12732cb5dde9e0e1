"""Oracle for the maximum delta-bounded subhypergraph.

Exact routes:
  * 1-uniform: every subhypergraph is bounded, so the answer is the input.
  * 2-uniform: degree-constrained subgraph, solved exactly at any size by
    a reduction of simple b-matching to maximum matching (vertex copies +
    one gadget pair per edge; max matching = m + optimum).  When no
    vertex has degree above its cap the graph is its own maximum witness
    and no matching is solved (the paper's delta' makes every fiber H_F
    with |F| <= 2 of a delta-bounded 3-uniform H such a graph).
    Otherwise the witness takes one maximum-weight maximum-cardinality
    solve on the gadget: every gadget edge of input edge i weighs
    2^(m-1-i), so among maximum witnesses the earliest kept edge decides.
  * general uniformity: branch-and-bound over edges in canonical order,
    include-first, guarded by an edge-count cap (subset maximization with
    codegree caps has no known general poly-time algorithm).

Among maximum witnesses the lexicographically least edge subset is
returned, so downstream construction steps are deterministic functions of
their inputs.
"""
from __future__ import annotations

from collections import Counter
from itertools import combinations

import networkx as nx

from .core import Edge, Hypergraph, codegrees, pow_floor

DEFAULT_EXACT_CAP = 24


class OracleSizeError(RuntimeError):
    """Exact mode refused: instance exceeds the configured edge cap."""


def _level_caps(hp: Hypergraph, delta: float) -> dict[int, int]:
    """Integer codegree cap per level ell: largest d with d <= n^((k-ell) delta)."""
    return {ell: pow_floor(hp.n, (hp.k - ell) * delta) for ell in range(1, hp.k)}


def _bmatching(edges: list[Edge], cap: int, lex: bool) -> list[Edge]:
    """A maximum set of edges of a simple graph with every vertex in at
    most cap of them; with lex, the lexicographically least one."""
    deg = codegrees(edges, 1)
    if max(deg.values(), default=0) <= cap:
        return edges
    g = nx.Graph()
    for idx, (u, v) in enumerate(edges):
        # exact: networkx keeps integer weights integral
        w = 1 << (len(edges) - 1 - idx) if lex else 1
        eu, ev = ("e", idx, 0), ("e", idx, 1)
        g.add_edge(eu, ev, weight=w)
        for i in range(min(cap, deg[(u,)])):
            g.add_edge(eu, ("v", u, i), weight=w)
        for i in range(min(cap, deg[(v,)])):
            g.add_edge(ev, ("v", v, i), weight=w)
    matching = nx.max_weight_matching(g, maxcardinality=True)
    # an edge is kept iff both its gadget ends are matched to vertex copies
    hits = Counter(a[1] if a[0] == "e" else b[1]
                   for a, b in matching if a[0] != b[0])
    return [e for idx, e in enumerate(edges) if hits[idx] == 2]


def _subsets(e: Edge, caps: dict[int, int]) -> list[tuple[Edge, int]]:
    """Every subset of edge e at a capped level, paired with its cap."""
    return [(u, cap) for ell, cap in caps.items() for u in combinations(e, ell)]


def _admit(counts: dict[Edge, int], subs: list[tuple[Edge, int]]) -> bool:
    """Count an edge in iff none of its subsets is at its cap."""
    for u, cap in subs:  # a loop, not any(): this is the hot path of gen_random
        if counts.get(u, 0) >= cap:
            return False
    for u, _cap in subs:
        counts[u] = counts.get(u, 0) + 1
    return True


def _bnb_max(edges: list[Edge], caps: dict[int, int]) -> tuple[Edge, ...]:
    """Branch-and-bound, include-first in canonical order.

    Updating the incumbent only on strict improvement makes the first
    maximum found the lexicographically least one, which is returned.
    """
    m = len(edges)
    subs = [_subsets(e, caps) for e in edges]
    best_size = 0
    best_witness: tuple[Edge, ...] = ()
    counts: dict[Edge, int] = {}
    chosen: list[Edge] = []

    def rec(i: int) -> None:
        nonlocal best_size, best_witness
        if len(chosen) + (m - i) <= best_size and best_size > 0:
            return
        if i == m:
            if len(chosen) > best_size:
                best_size = len(chosen)
                best_witness = tuple(chosen)
            return
        if _admit(counts, subs[i]):
            chosen.append(edges[i])
            rec(i + 1)
            chosen.pop()
            for u, _cap in subs[i]:
                counts[u] -= 1
        rec(i + 1)

    rec(0)
    return best_witness


def max_bounded_size(hp: Hypergraph, delta: float,
                     exact_cap: int = DEFAULT_EXACT_CAP) -> int:
    """|hp|_delta, the maximum size of a delta-bounded subhypergraph.

    Raises OracleSizeError for uniformity >= 3 beyond the edge cap.
    """
    if hp.k == 2 and hp.edges:
        return len(_bmatching(list(hp.edges), pow_floor(hp.n, delta), lex=False))
    return len(max_bounded_sub(hp, delta, exact_cap))


def max_bounded_sub(hp: Hypergraph, delta: float,
                    exact_cap: int = DEFAULT_EXACT_CAP) -> Hypergraph:
    """Exact maximum delta-bounded subhypergraph, lexicographically least
    among the maximum witnesses."""
    if hp.k == 1 or not hp.edges:
        return hp
    edges = list(hp.edges)
    if hp.k == 2:
        witness = _bmatching(edges, pow_floor(hp.n, delta), lex=True)
    elif len(edges) > exact_cap:
        raise OracleSizeError(
            f"{len(edges)} edges exceeds exact-mode cap {exact_cap}")
    else:
        witness = _bnb_max(edges, _level_caps(hp, delta))
    return Hypergraph(hp.n, hp.k, tuple(witness))


def greedy_bounded_sub(hp: Hypergraph, delta: float) -> Hypergraph:
    """Greedy lower bound: scan edges in canonical order, keep an edge iff
    no codegree cap is violated.  Fast fallback for large fibers."""
    if hp.k == 1:
        return hp
    caps = _level_caps(hp, delta)
    counts: dict[Edge, int] = {}
    kept = [e for e in hp.edges if _admit(counts, _subsets(e, caps))]
    return Hypergraph(hp.n, hp.k, tuple(kept))
