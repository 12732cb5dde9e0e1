"""Deterministic print/container construction.

The construction recurses on the uniformity k.  At the base case k = 1
every independent set gets the empty print and the single container
X minus the covered vertices.  For k >= 2, a fingerprint F inside the
independent set is grown greedily (ascending vertex order, repeated
passes to a fixpoint), each addition gated by the fingerprint size bound
and the per-element growth inequality.  If F ever becomes expanding, a
homogeneous witness G_F inside the fiber is fixed and the construction
recurses on G_F at uniformity k - 1; otherwise the single-fingerprint
print (F) is emitted and its container is the set of vertices of small
degree in H^-: H minus the edges H^ with a (k-1)-subset in the fiber H_F
or a t-subset of high degree in H_F.  Each such edge passes through a
vertex H_F covers, so H^ is gathered there, and deg_H-(x) is deg_H(x)
minus the edges of H^ through x; H^- itself is never built.

Both print_of and complement_of are pure functions of (hypergraph,
parameters, mode): every choice point is resolved by canonical vertex or
edge order.  |H_F|_delta' is memoized by the vertices of F that H covers,
the only ones H_F depends on, and the child contexts on the G_F by F.
The container relation, complement_of, returns X \\ C, the form the
complement bound reads; container_of spells C out from core.vertex_pool.
"""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from itertools import chain, combinations, filterfalse

from .bounded import (
    DEFAULT_EXACT_CAP,
    OracleSizeError,
    greedy_bounded_sub,
    max_bounded_size,
    max_bounded_sub,
)
from .core import (
    LOG_TOL,
    Edge,
    Hypergraph,
    HypergraphError,
    check_shape,
    log_size,
    nabla,
    pow_ceil,
    pow_floor,
    vertex_fiber,
    vertex_pool,
)

Fingerprint = frozenset[int]
Print = tuple[Fingerprint, ...]


class EngineError(RuntimeError):
    pass


class StrictModeError(EngineError):
    """Strict mode refused to run (hypothesis flags failed)."""


class NotIndependentError(EngineError):
    """A supplied vertex set contains an edge."""


class PrintDomainError(EngineError):
    """Print outside the domain of the container relation."""


@dataclass(frozen=True)
class Params:
    """Input parameters and the derived constants of the construction.

    delta = 1 - pi and sigma = 3^(k-1) eps are the top-level constants;
    the primed/tilde constants drive the recursion at uniformity k - 1.
    The hypothesis flags are informational: derivation never rejects.
    Like every threshold, they are compared within LOG_TOL.
    """

    k: int
    n: int
    pi: float
    eps: float
    delta: float
    sigma: float
    log2: float
    delta_p: float
    pi_p: float
    pi_tilde: float
    eps_tilde: float
    eps_p: float
    sigma_p: float
    hyp_eps_ok: bool
    hyp_pi_ok: bool


def derive_params(k: int, pi: float, eps: float, n: int) -> Params:
    check_shape(n, k)
    try:
        pow3 = 3.0 ** (k - 1)
    except OverflowError:
        raise HypergraphError(f"need 3^(k-1) to fit a float, got k = {k}") from None
    log2 = math.log(2) / math.log(n)
    delta = 1.0 - pi
    delta_p = delta + log2
    return Params(
        k=k,
        n=n,
        pi=pi,
        eps=eps,
        delta=delta,
        sigma=pow3 * eps,
        log2=log2,
        delta_p=delta_p,
        pi_p=1.0 - delta_p,
        pi_tilde=pi - eps - k * log2,
        eps_tilde=eps + (k + 1) * log2,
        eps_p=2 * eps + 2 * k * log2,
        sigma_p=3.0 ** (k - 2) * (2 * eps + 2 * k * log2),
        hyp_eps_ok=eps - 2 * k * log2 >= -LOG_TOL,
        hyp_pi_ok=pi - (k - 1) * log2 >= -LOG_TOL,
    )


class EngineContext:
    """A hypergraph with parameters plus the memoized recursive state.

    mode="strict" refuses to construct when the hypothesis flags fail and
    propagates oracle cap errors; mode="permissive" runs anyway, falling
    back to the greedy oracle bound and recording heuristic_used.  Child
    contexts inherit the mode; the hypothesis flags carry over to them.
    """

    def __init__(self, h: Hypergraph, params: Params, mode: str = "permissive",
                 oracle_cap: int = DEFAULT_EXACT_CAP):
        if mode not in ("strict", "permissive"):
            raise ValueError(f"unknown mode {mode!r}")
        if h.k != params.k or h.n != params.n:
            raise ValueError("hypergraph and params disagree on (k, n)")
        if mode == "strict" and not (params.hyp_eps_ok and params.hyp_pi_ok):
            raise StrictModeError(
                "hypothesis flags failed: "
                f"hyp_eps_ok={params.hyp_eps_ok}, hyp_pi_ok={params.hyp_pi_ok}")
        self.h = h
        self.params = params
        self.mode = mode
        self.oracle_cap = oracle_cap
        self._fell_back = False
        self._fiber_size: dict[Fingerprint, int] = {frozenset(): 0}
        self._children: dict[Fingerprint, EngineContext] = {}

    # -- oracle plumbing ---------------------------------------------------

    @property
    def heuristic_used(self) -> bool:
        """Whether this context or any context below it used the greedy
        fallback."""
        return self._fell_back or any(
            child.heuristic_used for child in self._children.values())

    def _oracle(self, exact, f: Fingerprint, from_greedy):
        """exact(H_F) for the fingerprint F.  Beyond the oracle cap, strict
        mode re-raises and permissive mode returns from_greedy applied to
        the greedy witness, flagging the run as heuristic."""
        hf = vertex_fiber(self.h, f)
        try:
            return exact(hf, self.params.delta_p, self.oracle_cap)
        except OracleSizeError:
            if self.mode == "strict":
                raise
            self._fell_back = True
            return from_greedy(greedy_bounded_sub(hf, self.params.delta_p))

    def _bounded_fiber_size(self, f) -> int:
        """|H_F|_{delta'}, memoized by the vertices of F that H covers; the
        memo starts with 0 at F = {}, as H_{} has no edges."""
        n, deg = self.h.n, self.h.degrees
        key = frozenset(v for v in f if 0 <= v < n and deg[v])
        hit = self._fiber_size.get(key)
        if hit is None:
            hit = self._fiber_size[key] = self._oracle(max_bounded_size, key, len)
        return hit

    def fingerprint_expanding(self, f) -> bool:
        """F is expanding: |H_F|_{delta'} >= n^(1 + (k-2) delta' - eps').
        The empty set never is (|H_F| = 0)."""
        p = self.params
        return self._bounded_fiber_size(f) >= pow_ceil(p.n, 1 + (p.k - 2) * p.delta_p - p.eps_p)

    def fingerprint_expansive(self, f) -> bool:
        """The per-element growth inequality:
        log |H_F|_{delta'} >= log|F| + (k-1) delta' - eps~.
        The empty set satisfies it (both sides are log 0)."""
        fs = frozenset(f)
        p = self.params
        tau = log_size(len(fs), p.n) + (p.k - 1) * p.delta_p - p.eps_tilde
        return self._bounded_fiber_size(fs) >= pow_ceil(p.n, tau)

    # -- recursion ---------------------------------------------------------

    def child_for(self, f) -> EngineContext:
        """The recursive context of an expanding fingerprint F.  Its h is
        the homogeneous witness G_F."""
        fs = frozenset(f)
        hit = self._children.get(fs)
        if hit is not None:
            return hit
        if not self.fingerprint_expanding(fs):
            raise EngineError(f"fingerprint {sorted(fs)} is not expanding")
        p = self.params
        gf = self._oracle(max_bounded_sub, fs, lambda g: g)
        child = self._children[fs] = EngineContext(
            gf, derive_params(p.k - 1, p.pi_p, p.eps_p, p.n),
            mode=self.mode, oracle_cap=self.oracle_cap)
        return child

    # -- the print relation ------------------------------------------------

    def print_of(self, independent) -> Print:
        """The print of an H-independent set.

        Independence is the caller's responsibility (verify checks it).
        """
        iset = frozenset(independent)
        h, p = self.h, self.params
        if iset and (min(iset) < 0 or max(iset) >= h.n):
            raise EngineError("independent set has vertices outside X")
        if h.k == 1:
            return ()
        f: Fingerprint = frozenset()
        cap = pow_floor(p.n, p.pi)  # |F| <= n^pi
        while not self.fingerprint_expanding(f):
            grown = False
            for x in sorted(iset - f):
                cand = f | {x}
                if len(cand) <= cap and self.fingerprint_expansive(cand):
                    f, grown = cand, True
                    if self.fingerprint_expanding(f):
                        break
            if not grown:
                return (f,)
        return (f,) + self.child_for(f).print_of(iset)

    # -- the container relation --------------------------------------------

    def h_minus(self, f) -> set[Edge]:
        """H^ for a fingerprint F: the edges with a (k-1)-subset in the fiber
        H_F or a t-subset of high degree in H_F.  Such a subset lies in a
        fiber edge, so only the edges through the vertices of H_F count."""
        h, p = self.h, self.params
        if h.k < 2:
            raise EngineError("h_minus needs k >= 2")
        hf = vertex_fiber(h, frozenset(f))
        if not len(hf):  # an H_F with no edge marks no subset
            return set()
        # H_F is (k-1)-uniform, so nabla's threshold is (k-1-t) delta
        marked = frozenset(hf.edges).union(*(nabla(hf, t, p.delta) for t in range(1, h.k - 1)))
        near = {e for v in hf.covered_vertices() for e in h.edges_through(v)}
        return {e for e in near
                if any(u in marked for t in range(1, h.k) for u in combinations(e, t))}

    def complement_of(self, prnt: Print) -> frozenset[int]:
        """X \\ C for the container C of a print.  Partial: defined on the
        image of print_of (in X; length 0 only at k = 1, >= 1 at k >= 2)."""
        prnt = tuple(map(frozenset, prnt))
        h, p = self.h, self.params
        outside = [v for v in chain.from_iterable(prnt) if not 0 <= v < h.n]
        if outside:
            raise PrintDomainError(f"print has vertex {min(outside)} outside [0, {h.n})")
        if h.k == 1:
            if len(prnt) != 0:
                raise PrintDomainError("only the empty print is valid at k = 1")
            return h.covered_vertices()
        if len(prnt) == 0:
            raise PrintDomainError("empty print is outside the domain at k >= 2")
        f0 = prnt[0]
        if self.fingerprint_expanding(f0):
            return self.child_for(f0).complement_of(prnt[1:])
        if len(prnt) > 1:
            raise PrintDomainError("non-expanding first fingerprint with a non-trivial tail")
        # drop x iff deg_H-(x) >= n^tau, i.e. >= cap, where deg_H-(x) is
        # deg_H(x) - lost(x), the edges of H^ through x
        lost = Counter(chain.from_iterable(self.h_minus(f0)))
        cap = pow_ceil(h.n, (p.k - 1) * p.delta_p - p.eps_tilde)
        return frozenset(x for x, d in zip(vertex_pool(h.n), h.degrees) if d - lost[x] >= cap)

    def container_of(self, prnt: Print) -> frozenset[int]:
        """The container C of a print: X minus complement_of(prnt)."""
        return frozenset(filterfalse(self.complement_of(prnt).__contains__, vertex_pool(self.h.n)))


def print_union(prnt: Print) -> frozenset[int]:
    return frozenset().union(*prnt)
