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
degree in H^- (the hypergraph with the fiber-incident and high-codegree
edges removed).

Both print_of and container_of are pure functions of (hypergraph,
parameters, mode): every choice point is resolved by canonical vertex or
edge order, and the G_F witnesses are memoized by fingerprint.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

from .bounded import (
    DEFAULT_EXACT_CAP,
    OracleSizeError,
    greedy_bounded_sub,
    max_bounded_size,
    max_bounded_sub,
)
from .core import LOG_TOL, Hypergraph, cmp_log, log_size, nabla, vertex_fiber

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
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    log2 = math.log(2) / math.log(n)
    delta = 1.0 - pi
    delta_p = delta + log2
    return Params(
        k=k,
        n=n,
        pi=pi,
        eps=eps,
        delta=delta,
        sigma=3.0 ** (k - 1) * eps,
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
        self._fiber_size: dict[Fingerprint, int] = {}
        self._gf: dict[Fingerprint, tuple[Hypergraph, "EngineContext"]] = {}
        self._containers: dict[tuple, frozenset[int]] = {}

    # -- oracle plumbing ---------------------------------------------------

    @property
    def heuristic_used(self) -> bool:
        """Whether this context or any context below it used the greedy
        fallback."""
        return self._fell_back or any(
            child.heuristic_used for _gf, child in self._gf.values())

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

    def _bounded_fiber_size(self, f: Fingerprint) -> int:
        """|H_F|_{delta'}, memoized per fingerprint."""
        hit = self._fiber_size.get(f)
        if hit is None:
            hit = self._fiber_size[f] = self._oracle(max_bounded_size, f, len)
        return hit

    def fingerprint_expanding(self, f) -> bool:
        """F is expanding: log |H_F|_{delta'} >= 1 + (k-2) delta' - eps'.
        The empty set never is."""
        fs = frozenset(f)
        if not fs:
            return False
        p = self.params
        return cmp_log(self._bounded_fiber_size(fs),
                       1 + (p.k - 2) * p.delta_p - p.eps_p, p.n) >= 0

    def fingerprint_expansive(self, f) -> bool:
        """The per-element growth inequality:
        log |H_F|_{delta'} >= log|F| + (k-1) delta' - eps~.
        The empty set satisfies it (both sides are log 0)."""
        fs = frozenset(f)
        if not fs:
            return True
        p = self.params
        tau = log_size(len(fs), p.n) + (p.k - 1) * p.delta_p - p.eps_tilde
        return cmp_log(self._bounded_fiber_size(fs), tau, p.n) >= 0

    # -- recursion ---------------------------------------------------------

    def child_for(self, f) -> tuple[Hypergraph, "EngineContext"]:
        """The homogeneous witness G_F and its recursive context."""
        fs = frozenset(f)
        hit = self._gf.get(fs)
        if hit is not None:
            return hit
        if not self.fingerprint_expanding(fs):
            raise EngineError(f"fingerprint {sorted(fs)} is not expanding")
        p = self.params
        gf = self._oracle(max_bounded_sub, fs, lambda g: g)
        child = EngineContext(gf, derive_params(p.k - 1, p.pi_p, p.eps_p, p.n),
                              mode=self.mode, oracle_cap=self.oracle_cap)
        pair = (gf, child)
        self._gf[fs] = pair
        return pair

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
        while not self.fingerprint_expanding(f):
            grown = False
            for x in sorted(iset - f):
                cand = f | {x}
                if (cmp_log(len(cand), p.pi, p.n) <= 0
                        and self.fingerprint_expansive(cand)):
                    f, grown = cand, True
                    if self.fingerprint_expanding(f):
                        break
            if not grown:
                return (f,)
        _gf, child = self.child_for(f)
        return (f,) + child.print_of(iset)

    # -- the container relation --------------------------------------------

    def h_minus(self, f) -> tuple[Hypergraph, Hypergraph]:
        """(H^-, H^) for a fingerprint F: H^ collects the edges with a
        (k-1)-subset in the fiber H_F or a t-subset of high degree in
        H_F, and H^- is the rest."""
        h, p = self.h, self.params
        if h.k < 2:
            raise EngineError("h_minus needs k >= 2")
        hf = vertex_fiber(h, frozenset(f))
        # H_F is (k-1)-uniform, so nabla's threshold is (k-1-t) delta
        levels = [(h.k - 1, hf.edge_set)] + [
            (t, nabla(hf, t, p.delta)) for t in range(1, h.k - 1)]
        hat, rest = [], []
        for e in h.edges:
            high = any(u in marked for t, marked in levels for u in combinations(e, t))
            (hat if high else rest).append(e)
        return (Hypergraph(h.n, h.k, tuple(rest)),
                Hypergraph(h.n, h.k, tuple(hat)))

    def container_of(self, prnt: Print) -> frozenset[int]:
        """The container of a print.  Partial: defined on the image of
        print_of (length 0 only at k = 1, length >= 1 at k >= 2)."""
        key = tuple(tuple(sorted(f)) for f in prnt)
        hit = self._containers.get(key)
        if hit is not None:
            return hit
        h, p = self.h, self.params
        if h.k == 1:
            if len(prnt) != 0:
                raise PrintDomainError("only the empty print is valid at k = 1")
            c = frozenset(h.vertices) - h.covered_vertices()
        else:
            if len(prnt) == 0:
                raise PrintDomainError("empty print is outside the domain at k >= 2")
            f0 = frozenset(prnt[0])
            if self.fingerprint_expanding(f0):
                _gf, child = self.child_for(f0)
                c = child.container_of(prnt[1:])
            else:
                if len(prnt) > 1:
                    raise PrintDomainError(
                        "non-expanding first fingerprint with a non-trivial tail")
                hminus, _hat = self.h_minus(f0)
                tau = (p.k - 1) * p.delta_p - p.eps_tilde
                c = frozenset(
                    x for x in h.vertices
                    if cmp_log(len(hminus.incidence.get(x, ())), tau, h.n) < 0)
        self._containers[key] = c
        return c


def print_union(prnt: Print) -> frozenset[int]:
    out: frozenset[int] = frozenset()
    for f in prnt:
        out |= f
    return out
