"""Canonical k-uniform hypergraphs and the log-scale primitives on them.

Vertices are integers 0..n-1 and every edge is a strictly ascending
tuple, the edges sorted (canonical order), so iteration order (and hence
everything downstream that scans edges "in canonical order") is
deterministic.  A hypergraph may instead hold them as one flat array of
their vertices in that order (see Hypergraph).

Every size threshold in this package, |S| >= n^tau or |S| <= n^tau for an
integer |S|, is one integer cap, pow_ceil or pow_floor: taken under the
rule of cmp_log, which compares log_n|S| with tau within an absolute
tolerance (LOG_TOL), and memoised at _bisect, which bisects each (n, tau)
once.  The convention log 0 = -inf is used throughout.
"""
from __future__ import annotations

import math
from array import array
from bisect import bisect_left
from collections import Counter
from functools import cached_property, lru_cache
from itertools import chain, combinations, repeat
from operator import add, eq, index, le, mul
from typing import Iterable, Iterator, Sequence

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


@lru_cache(maxsize=1024)
def _bisect(n: int, tau: float, top: int) -> int:
    """The largest d >= 0 with cmp_log(d, tau, n) < top, by bisection from 0, where
    it holds for tau > NEG_INF, to hi, where it fails (log_n hi >= tau + 1/log2 n;
    hi = 1 for tau <= -1, so tau is raised to -1, which keeps tau log2 n finite)."""
    lo, hi = 0, 1 << max(math.ceil(max(tau, -1.0) * math.log2(n)) + 1, 0)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if cmp_log(mid, tau, n) < top else (lo, mid)
    return lo


def pow_floor(n: int, tau: float) -> int:
    """Largest integer d >= 0 with d <= n^tau under the cmp_log rule."""
    return 0 if tau == NEG_INF else _bisect(n, tau, 1)


def pow_ceil(n: int, tau: float) -> int:
    """Least integer d >= 0 with d >= n^tau under the cmp_log rule."""
    return 0 if tau == NEG_INF else _bisect(n, tau, 0) + 1


@lru_cache(maxsize=1)
def vertex_pool(n: int) -> tuple[int, ...]:
    """(0, 1, ..., n - 1), one tuple for the last n asked: the vertex sets
    and indexes built from it share one int object per vertex, where each
    int read out of an array or range is a new one."""
    return tuple(range(n))


class Hypergraph:
    """A k-uniform hypergraph on vertex set {0, ..., n-1}.

    Immutable after construction; safe to share between workers.  Use
    new_hypergraph() to build one from raw edge data.

    The edges are given in canonical order either as a tuple of edge
    tuples or as one array("i") of their m*k vertices, edge after edge.
    The array holds 4 bytes a vertex where a 2-tuple and its slot take
    64 bytes an edge; from it, edges is built on first access and cached.
    Hypergraphs with the same n, k and edges compare equal, whichever
    form they were built from.
    """

    def __init__(self, n: int, k: int, edges: tuple[Edge, ...] | array):
        flat = edges if isinstance(edges, array) else None
        self.__dict__.update(n=n, k=k, _flat=flat)
        if flat is None:
            self.__dict__["edges"] = edges

    def __setattr__(self, name, value):
        raise AttributeError(f"Hypergraph is immutable: cannot set {name!r}")

    def __eq__(self, other):
        if not isinstance(other, Hypergraph):
            return NotImplemented
        return ((self.n, self.k, len(self)) == (other.n, other.k, len(other))
                and all(map(eq, self.edge_vertices(), other.edge_vertices())))

    def __hash__(self) -> int:
        return hash((self.n, self.k, tuple(self.edge_vertices())))

    def __repr__(self) -> str:
        return f"Hypergraph(n={self.n}, k={self.k}, edges={self.edges!r})"

    @cached_property
    def edges(self) -> tuple[Edge, ...]:
        """The edges as ascending tuples, in canonical order."""
        return tuple(edge_tuples(self._flat, self.k))

    def edge_vertices(self) -> Iterable[int]:
        """The m*k vertices of the edges, edge after edge in canonical
        order, read without building edges."""
        return chain.from_iterable(self.edges) if self._flat is None else self._flat

    @cached_property
    def incidence(self) -> tuple[tuple[Edge, ...], ...]:
        """v -> the edges containing v, in canonical order.  The library
        reads it only at k != 2, through edges_through and degrees."""
        inc: list[list[Edge]] = [[] for _ in range(self.n)]
        for e in self.edges:
            for v in e:
                inc[v].append(e)
        return tuple(map(tuple, inc))

    @cached_property
    def neighbours(self) -> tuple[tuple[int, ...], ...]:
        """At k = 2, v -> v's neighbours in ascending order, which is the
        order of the other ends of v's edges in canonical order.  Built
        instead of incidence, never beside it: both cost about as much
        memory.  Read through edge_vertices, so from an edge array
        without building edges."""
        if self.k != 2:
            raise HypergraphError(f"neighbours needs k = 2, got k={self.k}")
        nb: list[list[int]] = [[] for _ in range(self.n)]
        it = map(vertex_pool(self.n).__getitem__, self.edge_vertices())
        for a, b in zip(it, it):  # edges ascend, so every list does too
            nb[a].append(b)
            nb[b].append(a)
        return tuple(map(tuple, nb))

    @cached_property
    def degrees(self) -> tuple[int, ...]:
        """deg(v) for every vertex v."""
        return tuple(map(len, self.neighbours if self.k == 2 else self.incidence))

    def edges_through(self, v: int) -> tuple[Edge, ...]:
        """The edges containing v, in canonical order (none for a v
        outside X)."""
        if not 0 <= v < self.n:
            return ()
        if self.k != 2:
            return self.incidence[v]
        nb = self.neighbours[v]
        i = bisect_left(nb, v)
        return tuple(zip(nb[:i], repeat(v))) + tuple(zip(repeat(v), nb[i:]))

    @cached_property
    def max_degrees(self) -> tuple[int, ...]:
        """Delta_ell for ell = 1, ..., k-1: level 1 from the degrees, one
        codegree pass (codegrees, keyed by codes) for each level above it."""
        return tuple(max(codegrees(self, ell).values(), default=0) if ell > 1
                     else max(self.degrees, default=0)
                     for ell in range(1, self.k))

    def __len__(self) -> int:
        return len(self.edges) if self._flat is None else len(self._flat) // self.k

    def covered_vertices(self) -> frozenset[int]:
        """Union of all edges."""
        return frozenset(self.edge_vertices())


def edge_tuples(vertices: Sequence[int], k: int) -> Iterator[Edge]:
    """The tuples of k consecutive vertices, with one int object for each
    vertex: every int read out of an array is a new one.  They are shared
    through a dict, so that a sparse graph on a large n costs no list of
    n ints."""
    vertex: dict[int, int] = {}
    it = map(vertex.setdefault, vertices, vertices)
    return zip(*[it] * k)


# check_shape's bound on the vertex slots in the subsets of m k-sets,
# k 2^(k-1) a set, which a codegree count of every level visits
_SUBSET_SLOTS = 1 << 26


def check_shape(n: int, k: int, m: int = 0) -> None:
    """Raise HypergraphError unless n >= 2 and k >= 1, and unless m edges
    have at most _SUBSET_SLOTS vertex slots in their subsets."""
    if n < 2:
        raise HypergraphError(f"need n >= 2, got {n}")
    if k < 1:
        raise HypergraphError(f"need k >= 1, got {k}")
    if m > (_SUBSET_SLOTS >> (k - 1)) // k:
        raise HypergraphError(
            f"need m k 2^(k-1) <= 2^26 subset slots, got m = {m}, k = {k}")


def new_hypergraph(n: int, k: int, edges: Iterable[Iterable[int]]) -> Hypergraph:
    """Validate and canonicalize: sorted edges, deduplicated, vertices
    integers (anything operator.index takes) in range."""
    check_shape(n, k)
    canon: set[Edge] = set()
    for raw in edges:
        raw = tuple(raw)
        try:
            e = tuple(sorted(set(map(index, raw))))
        except TypeError as exc:
            raise HypergraphError(f"edge {raw} has a vertex that is not an integer") from exc
        if len(e) != k:
            raise HypergraphError(f"edge {raw} does not have {k} distinct vertices")
        if e[0] < 0 or e[-1] >= n:
            raise HypergraphError(f"edge {e} has a vertex outside [0, {n})")
        canon.add(e)
    check_shape(n, k, len(canon))
    return Hypergraph(n, k, tuple(sorted(canon)))


def vertex_fiber(h: Hypergraph, f: Iterable[int]) -> Hypergraph:
    """Fiber over a vertex set F, i.e. the union of the links of its vertices."""
    if h.k < 2:
        raise HypergraphError("vertex fiber needs k >= 2")
    out: set[Edge] = set()
    for v in set(f):
        for e in h.edges_through(v):
            out.add(tuple(x for x in e if x != v))
    return Hypergraph(h.n, h.k - 1, tuple(sorted(out)))


def _code(e: Edge, n: int) -> int:
    """The int that a sorted set e stands as: its vertices as the digits
    of a base-n number, so codes of sets of one size sort as the tuples do."""
    c = 0
    for v in e:
        c = c * n + v
    return c


def _decode(c: int, n: int, k: int) -> Edge:
    """The sorted k-set whose _code is c."""
    e = [0] * k
    for i in reversed(range(k)):
        c, e[i] = divmod(c, n)
    return tuple(e)


def codegrees(h: Hypergraph, ell: int) -> Counter[int]:
    """_code of an ell-set -> number of edges of h containing it, for
    every ell-set of positive degree.  No tuple is made per subset: at
    k = 3, ell = 2 one loop over the edges codes their three pairs, and
    otherwise the codes are summed column by column over zip(*edges)."""
    n = h.n
    if h.k == 3 and ell == 2:
        codes: list[int] = []
        for a, b, c in h.edges:
            codes += (a * n + b, a * n + c, b * n + c)
        return Counter(codes)
    counts: Counter[int] = Counter()
    for cols in combinations(zip(*h.edges), ell):
        codes = cols[0] if cols else repeat(0, len(h))
        for col in cols[1:]:
            codes = map(add, map(mul, codes, repeat(n)), col)
        counts.update(codes)
    return counts


def ldeg(h: Hypergraph) -> float:
    """Logarithmic degree: the least delta in [0,1] with
    Delta_ell(h) <= n^((k-ell) delta) for every 1 <= ell < k.

    0 for k = 1 (the max ranges over an empty set) and for the empty
    hypergraph; clamped into [0, 1].
    """
    logs = [log_size(d, h.n) / (h.k - ell) for ell, d in enumerate(h.max_degrees, 1) if d]
    return min(max(logs, default=0.0), 1.0)


def level_caps(n: int, k: int, delta: float) -> tuple[int, ...]:
    """The integer caps d <= n^((k-ell) delta) of levels ell = 1, ..., k-1, in
    order, each from _bisect's memo."""
    return tuple(pow_floor(n, (k - ell) * delta) for ell in range(1, k))


def is_bounded(h: Hypergraph, delta: float) -> bool:
    """delta-bounded: Delta_ell(h) <= n^((k-ell) delta) at every level (none at k = 1)."""
    return all(map(le, h.max_degrees, level_caps(h.n, h.k, delta)))


def is_homogeneous(h: Hypergraph, delta: float, eps: float) -> bool:
    """delta-bounded and |h| >= n^(1 + (k-1) delta - eps)."""
    if not is_bounded(h, delta):
        return False
    return len(h) >= pow_ceil(h.n, 1 + (h.k - 1) * delta - eps)


def nabla(hp: Hypergraph, t: int, delta: float) -> frozenset[Edge]:
    """All t-sets u with deg(u) >= n^((k'-t) delta) in hp."""
    if not 1 <= t < hp.k:
        raise HypergraphError(f"nabla level {t} out of range for k={hp.k}")
    cap = pow_ceil(hp.n, (hp.k - t) * delta)
    return frozenset(_decode(c, hp.n, t) for c, d in codegrees(hp, t).items() if d >= cap)
