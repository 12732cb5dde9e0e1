"""Canonical k-uniform hypergraphs and the log-scale primitives on them.

Vertices are integers 0..n-1 and every edge is stored as a strictly
ascending tuple, so iteration order (and hence everything downstream
that scans edges "in canonical order") is deterministic.

All size thresholds in this package are of the form  |S| >= n^tau  with an
integer left-hand side.  They are evaluated by comparing log_n|S| against
tau with a small absolute tolerance (LOG_TOL); results may flip for
instances within ~1 ULP of an exact tie, so test fixtures are kept away
from ties.  The convention log 0 = -inf is used throughout.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from typing import Iterable

NEG_INF = float("-inf")

# Absolute tolerance for comparisons in the log_n scale.
LOG_TOL = 1e-12

Edge = tuple[int, ...]


class HypergraphError(ValueError):
    """Malformed hypergraph input (bad arity, out-of-range vertex, n < 2)."""


def log_size(count: int, n: int) -> float:
    """log_n(count), with log_size(0) = -inf."""
    if count < 0:
        raise ValueError(f"negative count: {count}")
    if count == 0:
        return NEG_INF
    return math.log(count) / math.log(n)


def cmp_log(count: int, tau: float, n: int) -> int:
    """Compare log_n(count) against tau: -1, 0 or +1.

    -inf compares equal to -inf (so 0 is returned), per the convention
    that NEG_INFINITY >= NEG_INFINITY holds.
    """
    lv = log_size(count, n)
    if lv == NEG_INF and tau == NEG_INF:
        return 0
    if lv == NEG_INF:
        return -1
    if tau == NEG_INF:
        return 1
    d = lv - tau
    if abs(d) <= LOG_TOL:
        return 0
    return -1 if d < 0 else 1


def pow_floor(n: int, tau: float) -> int:
    """Largest integer d >= 0 with d <= n^tau under the cmp_log rule."""
    if tau == NEG_INF:
        return 0
    d = int(math.floor(n ** tau))
    while cmp_log(d + 1, tau, n) <= 0:
        d += 1
    while d >= 1 and cmp_log(d, tau, n) > 0:
        d -= 1
    return max(d, 0)


@dataclass(frozen=True)
class Hypergraph:
    """A k-uniform hypergraph on vertex set {0, ..., n-1}.

    Immutable after construction; safe to share between workers.  Use
    new_hypergraph() to build one from raw edge data.
    """

    n: int
    k: int
    edges: tuple[Edge, ...]

    @cached_property
    def edge_set(self) -> frozenset[Edge]:
        return frozenset(self.edges)

    @cached_property
    def incidence(self) -> dict[int, tuple[Edge, ...]]:
        """vertex -> edges containing it (canonical order)."""
        inc: dict[int, list[Edge]] = {}
        for e in self.edges:
            for v in e:
                inc.setdefault(v, []).append(e)
        return {v: tuple(es) for v, es in inc.items()}

    @cached_property
    def max_degrees(self) -> tuple[int, ...]:
        """Delta_ell for ell = 1, ..., k-1: one codegree pass per level."""
        return tuple(max(codegrees(self.edges, ell).values(), default=0)
                     for ell in range(1, self.k))

    @property
    def vertices(self) -> range:
        return range(self.n)

    def __len__(self) -> int:
        return len(self.edges)

    def covered_vertices(self) -> frozenset[int]:
        """Union of all edges."""
        return frozenset(v for e in self.edges for v in e)


def new_hypergraph(n: int, k: int, edges: Iterable[Iterable[int]]) -> Hypergraph:
    """Validate and canonicalize: sorted edges, deduplicated, vertices in range."""
    if n < 2:
        raise HypergraphError(f"need n >= 2, got {n}")
    if k < 1:
        raise HypergraphError(f"need k >= 1, got {k}")
    canon: set[Edge] = set()
    for raw in edges:
        e = tuple(sorted(set(raw)))
        if len(e) != k:
            raise HypergraphError(f"edge {tuple(raw)} does not have {k} distinct vertices")
        if e[0] < 0 or e[-1] >= n:
            raise HypergraphError(f"edge {e} has a vertex outside [0, {n})")
        canon.add(e)
    return Hypergraph(n, k, tuple(sorted(canon)))


def vertex_fiber(h: Hypergraph, f: Iterable[int]) -> Hypergraph:
    """Fiber over a vertex set F, i.e. the union of the links of its vertices."""
    if h.k < 2:
        raise HypergraphError("vertex fiber needs k >= 2")
    out: set[Edge] = set()
    for v in set(f):
        for e in h.incidence.get(v, ()):
            out.add(tuple(x for x in e if x != v))
    return Hypergraph(h.n, h.k - 1, tuple(sorted(out)))


def codegrees(edges: Iterable[Edge], ell: int) -> dict[Edge, int]:
    """ell-set -> number of the given edges containing it, for every
    ell-set of positive degree."""
    counts: dict[Edge, int] = {}
    for e in edges:
        for u in combinations(e, ell):
            counts[u] = counts.get(u, 0) + 1
    return counts


def max_degree(h: Hypergraph, ell: int) -> int:
    """Delta_ell(h): maximum degree over all ell-sets (0 for empty h)."""
    if not 1 <= ell < h.k:
        raise HypergraphError(f"level {ell} out of range for k={h.k}")
    return h.max_degrees[ell - 1]


def ldeg(h: Hypergraph) -> float:
    """Logarithmic degree: the least delta in [0,1] with
    Delta_ell(h) <= n^((k-ell) delta) for every 1 <= ell < k.

    0 for k = 1 (the max ranges over an empty set) and for the empty
    hypergraph; clamped into [0, 1].
    """
    if h.k == 1 or not h.edges:
        return 0.0
    best = 0.0
    for ell in range(1, h.k):
        d = max_degree(h, ell)
        if d >= 1:
            best = max(best, log_size(d, h.n) / (h.k - ell))
    return min(max(best, 0.0), 1.0)


def is_bounded(h: Hypergraph, delta: float) -> bool:
    """delta-bounded: Delta_ell(h) <= n^((k-ell) delta) for all levels."""
    if h.k == 1:
        return True
    return all(
        cmp_log(max_degree(h, ell), (h.k - ell) * delta, h.n) <= 0
        for ell in range(1, h.k)
    )


def is_homogeneous(h: Hypergraph, delta: float, eps: float) -> bool:
    """delta-bounded and log_n|h| >= 1 + (k-1) delta - eps."""
    if not is_bounded(h, delta):
        return False
    return cmp_log(len(h.edges), 1 + (h.k - 1) * delta - eps, h.n) >= 0


def nabla(hp: Hypergraph, t: int, delta: float) -> frozenset[Edge]:
    """All t-sets u with log_n deg(u) >= (k'-t) delta in hp."""
    if not 1 <= t < hp.k:
        raise HypergraphError(f"nabla level {t} out of range for k={hp.k}")
    tau = (hp.k - t) * delta
    return frozenset(u for u, d in codegrees(hp.edges, t).items()
                     if cmp_log(d, tau, hp.n) >= 0)
