"""Oracle for the maximum delta-bounded subhypergraph.

Every route reads the integer caps of core.level_caps, the one form of
the delta-bound.  One rule comes first at every uniformity: an input
whose largest codegree is within its cap at every level, counted level
by level, is its own unique maximum witness, at any size and with
nothing solved.  That covers the empty input, k = 1 and, by the paper's
delta', every fiber H_F with |F| <= 2 of a delta-bounded 3-uniform H.
An input that binds goes to an exact route under the same caps:
  * 2-uniform: a reduction of simple b-matching to maximum matching
    (vertex copies + one gadget pair per edge), exact at any size.  The
    witness is one maximum-weight maximum-cardinality solve: every
    gadget edge of input edge i weighs 2^(m-1-i), so among maximum
    witnesses the earliest kept edge decides; the size is one unweighted
    solve.  networkx's blossom algorithm solves it and is imported only
    then, so a run in which no 2-uniform fiber binds, every k=2 run
    among them, loads no third-party code.
  * general uniformity: branch-and-bound over edges in canonical order,
    include-first, guarded by an edge-count cap (subset maximization
    with codegree caps has no known general poly-time algorithm).

Among maximum witnesses the lexicographically least edge subset is
returned, so downstream steps are deterministic functions of their inputs.
"""
from __future__ import annotations

from collections import Counter
from itertools import combinations

from .core import Edge, Hypergraph, codegrees, level_caps

DEFAULT_EXACT_CAP = 24


def __getattr__(name: str):
    # bounded.nx, imported on first access, for callers that wrap its solver
    if name == "nx":
        import networkx
        return networkx
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class OracleSizeError(RuntimeError):
    """Exact mode refused: instance exceeds the configured edge cap."""


def _bmatching(hp: Hypergraph, cap: int, lex: bool) -> list[Edge]:
    """A maximum set of edges of the simple graph hp with every vertex in
    at most cap of them; with lex, the lexicographically least one."""
    import networkx as nx

    deg = codegrees(hp, 1)
    g = nx.Graph()
    for idx, (u, v) in enumerate(hp.edges):
        # exact: networkx keeps integer weights integral
        w = 1 << (len(hp) - 1 - idx) if lex else 1
        eu, ev = ("e", idx, 0), ("e", idx, 1)
        g.add_edge(eu, ev, weight=w)
        for i in range(min(cap, deg[u])):
            g.add_edge(eu, ("v", u, i), weight=w)
        for i in range(min(cap, deg[v])):
            g.add_edge(ev, ("v", v, i), weight=w)
    matching = nx.max_weight_matching(g, maxcardinality=True)
    # an edge is kept iff both its gadget ends are matched to vertex copies
    hits = Counter(a[1] if a[0] == "e" else b[1]
                   for a, b in matching if a[0] != b[0])
    return [e for idx, e in enumerate(hp.edges) if hits[idx] == 2]


def _subsets(e: Edge, caps: tuple[int, ...]) -> list[tuple[Edge, int]]:
    """Every subset of edge e at a capped level, paired with its cap."""
    return [(u, cap) for ell, cap in enumerate(caps, 1) for u in combinations(e, ell)]


def _admit(counts: dict[Edge, int], subs: list[tuple[Edge, int]]) -> bool:
    """Count an edge in iff none of its subsets is at its cap."""
    for u, cap in subs:  # a loop, not any(): the hot path of greedy_bounded_sub
        if counts.get(u, 0) >= cap:
            return False
    for u, _cap in subs:
        counts[u] = counts.get(u, 0) + 1
    return True


def _bnb_max(edges: tuple[Edge, ...], caps: tuple[int, ...]) -> tuple[Edge, ...]:
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


def _own_witness(hp: Hypergraph, caps: tuple[int, ...]) -> bool:
    """Each level's codegree maximum within its cap, up to the first over
    (not is_bounded: at k = 2 its degrees build an n-sized index per fiber)."""
    return all(max(codegrees(hp, ell).values(), default=0) <= cap
               for ell, cap in enumerate(caps, 1))


def _max_witness(hp: Hypergraph, delta: float, exact_cap: int,
                 lex: bool) -> Hypergraph:
    """A maximum delta-bounded subhypergraph (with lex, the lexicographically
    least); OracleSizeError if hp binds, k >= 3 and m > exact_cap."""
    caps = level_caps(hp.n, hp.k, delta)
    if _own_witness(hp, caps):
        return hp
    if hp.k == 2:
        witness = _bmatching(hp, caps[0], lex)
    elif len(hp) > exact_cap:
        raise OracleSizeError(
            f"{len(hp)} edges exceeds exact-mode cap {exact_cap}")
    else:
        witness = _bnb_max(hp.edges, caps)
    return Hypergraph(hp.n, hp.k, tuple(witness))


def max_bounded_size(hp: Hypergraph, delta: float,
                     exact_cap: int = DEFAULT_EXACT_CAP) -> int:
    """|hp|_delta, the maximum size of a delta-bounded subhypergraph."""
    return len(_max_witness(hp, delta, exact_cap, lex=False))


def max_bounded_sub(hp: Hypergraph, delta: float,
                    exact_cap: int = DEFAULT_EXACT_CAP) -> Hypergraph:
    """Exact maximum delta-bounded subhypergraph, lexicographically least
    among the maximum witnesses."""
    return _max_witness(hp, delta, exact_cap, lex=True)


def greedy_bounded_sub(hp: Hypergraph, delta: float) -> Hypergraph:
    """Greedy lower bound: scan edges in canonical order, keep an edge iff
    no codegree cap is violated.  Fast fallback for large fibers."""
    caps = level_caps(hp.n, hp.k, delta)
    counts: dict[Edge, int] = {}
    kept = [e for e in hp.edges if _admit(counts, _subsets(e, caps))]
    return Hypergraph(hp.n, hp.k, tuple(kept))
