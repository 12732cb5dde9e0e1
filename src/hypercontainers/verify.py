"""Definitional checking of print/container pairs.

Everything here is checked against the definitions (set inclusions, the
complement-size threshold, the counting bound), never against the
engine's internals, so a stub engine that misbehaves is caught.  The
report is a flat key/value structure with a fixed key order, so repeated
runs with identical inputs serialize byte-identically.
"""
from __future__ import annotations

import random
from bisect import bisect_left
from dataclasses import dataclass, field, fields
from itertools import chain, filterfalse
from operator import index

from .core import (Hypergraph, NEG_INF, is_bounded, is_homogeneous, ldeg, log_size,
                   pow_ceil, pow_floor, vertex_pool)
from .engine import EngineError, NotIndependentError, Params, Print, print_union

DEFAULT_ENUM_CAP = 20


class EnumerationCapError(RuntimeError):
    pass


def enumerate_independent_sets(h: Hypergraph, cap: int = DEFAULT_ENUM_CAP):
    """Yield every H-independent subset of X (as frozensets).

    Backtracks over vertices in ascending order; an edge is tested
    exactly when its largest vertex is added, so each step is O(edges
    ending at that vertex).
    """
    if h.n > cap:
        raise EnumerationCapError(f"n={h.n} exceeds enumeration cap {cap}")
    by_max: dict[int, list[int]] = {}
    for idx, e in enumerate(h.edges):
        by_max.setdefault(e[-1], []).append(idx)
    masks = [sum(1 << v for v in e) for e in h.edges]

    def rec(v: int, cur_mask: int, cur: list[int]):
        if v == h.n:
            yield frozenset(cur)
            return
        yield from rec(v + 1, cur_mask, cur)
        new_mask = cur_mask | (1 << v)
        for idx in by_max.get(v, ()):
            if masks[idx] & new_mask == masks[idx]:
                break
        else:
            cur.append(v)
            yield from rec(v + 1, new_mask, cur)
            cur.pop()

    yield from rec(0, 0, [])


def _shuffled(n: int, rng: random.Random) -> list[int]:
    """list(range(n)) after rng.shuffle, draw for draw: shuffle's getrandbits
    calls are replayed in order, without its per-swap _randbelow call."""
    order = list(vertex_pool(n))
    getrandbits = rng.getrandbits
    for bits in range(n.bit_length(), 1, -1):  # swap i draws (i + 1).bit_length() bits
        for i in range(min(n - 1, (1 << bits) - 2), (1 << (bits - 1)) - 2, -1):
            j = getrandbits(bits)
            while j > i:
                j = getrandbits(bits)
            order[i], order[j] = order[j], order[i]
    return order


def sample_independent_set(h: Hypergraph, seed: int) -> frozenset[int]:
    """Greedy maximal independent set along a seed-determined permutation.

    Along random.Random(seed)'s shuffle of X, v is taken unless some edge
    through v has all its other vertices taken.  At k = 2 that means
    unless a neighbour of v is taken, so each taken v blocks its
    neighbours instead.  Both routes return the same set with the same
    iteration order: that of an add-only set filled in draw order.
    """
    order = _shuffled(h.n, random.Random(seed))
    taken: set[int] = set()
    if h.k == 2:
        nb = h.neighbours
        blocked: set[int] = set()
        # filterfalse tests each v against blocked as it grows, so the body
        # runs only for the vertices taken
        for v in filterfalse(blocked.__contains__, order):
            taken.add(v)
            blocked.update(nb[v])
        return frozenset(taken)
    for v in order:
        taken.add(v)
        if any(map(taken.issuperset, h.edges_through(v))):
            taken.discard(v)
    # sample_independent_sets subsamples in iteration order, which for ints
    # depends on insertion history: rebuild add-only, in draw order
    return frozenset({v for v in order if v in taken})


def sample_independent_sets(h: Hypergraph, count: int, seed: int):
    """Sampling stream: greedy maximal sets interleaved with random
    subsets of them (maximal sets alone would bias toward large I).

    Raises ValueError at the call, not at the first draw, for count < 0."""
    if count < 0:
        raise ValueError(f"negative sample count: {count}")

    def stream():
        for i in range(count):
            base = sample_independent_set(h, seed + i)
            if i % 2 == 0:
                yield base
            else:
                rng = random.Random(f"{seed}:{i}")
                yield frozenset(v for v in base if rng.random() < 0.5)

    return stream()


@dataclass
class VerificationReport:
    """The outcome of `verify`.  `print_containers` maps each distinct
    print P to X \\ C_P, the vertices its container misses; the counting
    fields are filled in by an enumerated run and are -1 otherwise."""

    n: int
    k: int
    edges: int
    ldeg: float
    bounded: bool
    homogeneous: bool
    params: Params
    mode: str
    oracle_mode: str
    method: str
    samples: int
    cond_i: bool
    cond_ii: bool
    cond_iii: bool
    cond_iv: bool
    cond_iii_counterexample: str = ""
    cond_iv_counterexample: str = ""
    containers_distinct: int = 0
    complement_log_min: float = NEG_INF
    complement_log_max: float = NEG_INF
    complement_log_mean: float = NEG_INF
    diag_nonexpanding_prints: int = 0
    diag_min_complement: int = -1
    diag_quarter_ok: str = "na"
    counting_lhs: int = -1
    counting_rhs: int = -1
    print_containers: dict = field(default_factory=dict, repr=False)

    def all_conditions_pass(self) -> bool:
        return self.cond_i and self.cond_ii and self.cond_iii and self.cond_iv

    def to_text(self) -> str:
        """One `key = value` line per field in declaration order, with the
        parameters' fields (but k and n) where `params` stands."""
        lines = []
        for f in fields(self):
            if f.name == "params":
                lines += [f"{g.name} = {_fmt(getattr(self.params, g.name))}"
                          for g in fields(self.params) if g.name not in ("k", "n")]
            elif f.repr:
                lines.append(f"{f.name} = {_fmt(getattr(self, f.name))}")
        return "\n".join(lines) + "\n"


def _fmt(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return "%.12g" % v
    return str(v)


def _set_str(s) -> str:
    return "{" + ",".join(str(v) for v in sorted(s)) + "}"


def verify(ctx, sets, enumerated: bool = False, jobs: int = 1) -> VerificationReport:
    """Run the construction over the supplied independent sets and check
    the defining conditions of a print/container pair.

    (i) every supplied set receives a print (witnessed extensionally) of
    at most k - 1 fingerprints, each of at most n^pi vertices;
    (ii) every produced print receives a container C, given as X \\ C <= X;
    (iii) the sandwich union(P) <= I <= union(P) | C, zero tolerance; (iv)
    every distinct container C has log_n|X \\ C| >= 1 - sigma.  A set whose
    print_of or complement_of raises EngineError fails (i) or (ii) respectively.

    The sets, each any iterable of vertices, are consumed once, in
    order, and only the distinct prints are kept, each with X \\ C as
    complement_of returns it, once per distinct print: every check reads
    C through X \\ C, and neither X nor C is built but to be printed or
    ordered.  With enumerated set, the sets are all of them, and the
    report carries the counting bound: their number against the sum over
    distinct prints P of 2^|union(P) | C|.
    A set with a vertex that is not an integer or is outside X raises
    ValueError, and one that contains an edge NotIndependentError, when
    the loop reaches it.
    jobs accepts only 1.
    """
    if jobs != 1:
        raise ValueError(f"jobs must be 1, got {jobs}")
    h, p = ctx.h, ctx.params
    pi_cap = pow_floor(h.n, p.pi)  # |F| <= n^pi
    samples = 0
    cond_i = cond_ii = cond_iii = True
    iii_counter = ""
    print_containers: dict[Print, frozenset[int]] = {}  # print -> X \ C
    def container(miss):  # C in ascending order, built only to be printed or ordered
        return filterfalse(miss.__contains__, vertex_pool(h.n))
    for iset in sets:
        try:
            iset = frozenset(map(index, iset))
        except TypeError as exc:
            raise ValueError(f"supplied set has a vertex that is not an integer: {exc}") from exc
        if iset and (min(iset) < 0 or max(iset) >= h.n):
            raise ValueError(f"supplied set {_set_str(iset)} has a vertex "
                             f"outside [0, {h.n})")
        # at k = 2, I is independent when no neighbour of I is in I.  Else
        # an edge inside I has its least vertex v in I: scanning I upwards,
        # each edge is tested once, in the suffix of the edges through v
        # that start at v, and the first found is the least
        if h.k != 2 or not iset.isdisjoint(
                chain.from_iterable(map(h.neighbours.__getitem__, iset))):
            for v in sorted(iset):
                through = h.edges_through(v)
                e = next(filter(iset.issuperset, through[bisect_left(through, (v,)):]), None)
                if e is not None:
                    raise NotIndependentError(f"supplied set {_set_str(iset)} contains edge {e}")
        samples += 1
        try:
            prnt = ctx.print_of(iset)
        except EngineError:
            cond_i = False
            continue
        if len(prnt) >= h.k or any(len(f) > pi_cap for f in prnt):
            cond_i = False
        miss = print_containers.get(prnt)
        if miss is None:
            try:
                miss = print_containers[prnt] = ctx.complement_of(prnt)
            except EngineError:
                cond_ii = False
                continue
            if miss and (min(miss) < 0 or max(miss) >= h.n):
                cond_ii = False
        # union(P) <= I <= union(P) | C, with C read through X \ C
        up = print_union(prnt)
        if cond_iii and not (up <= iset and miss.isdisjoint(iset - up)):
            cond_iii = False
            iii_counter = (f"I={_set_str(iset)} P="
                           + "|".join(_set_str(f) for f in prnt)
                           + f" C={_set_str(container(miss))}")

    # the distinct containers in the order of sorted(C), so that the mean
    # sums in a fixed order and (iv) names the least failing one
    misses = sorted(set(print_containers.values()), key=lambda m: list(container(m)))
    comp_logs = [log_size(len(m), h.n) for m in misses]
    cond_iv = True
    iv_counter = ""
    for miss, lv in zip(misses, comp_logs):
        if len(miss) < pow_ceil(h.n, 1 - p.sigma):
            cond_iv = False
            iv_counter = f"C={_set_str(container(miss))} log_complement={_fmt(lv)}"
            break

    # container-size diagnostic for non-expanding top-level prints
    diag_n = 0
    diag_min = -1
    diag_quarter = "na"
    if h.k >= 2:
        quarter_ok = True
        for prnt, miss in print_containers.items():
            if len(prnt) == 1 and not ctx.fingerprint_expanding(prnt[0]):
                diag_n += 1
                size = len(miss)
                diag_min = size if diag_min < 0 else min(diag_min, size)
                # |X \ C| >= n^(1-eps) / 4
                quarter_ok &= 4 * size >= pow_ceil(h.n, 1 - p.eps)
        if diag_n and p.hyp_eps_ok and p.hyp_pi_ok:
            diag_quarter = "true" if quarter_ok else "false"

    return VerificationReport(
        n=h.n,
        k=h.k,
        edges=len(h),
        ldeg=ldeg(h),
        bounded=is_bounded(h, p.delta),
        homogeneous=is_homogeneous(h, p.delta, p.eps),
        params=p,
        mode=ctx.mode,
        oracle_mode="heuristic" if ctx.heuristic_used else "exact",
        method="enumeration" if enumerated else "sampling",
        samples=samples,
        cond_i=cond_i,
        cond_ii=cond_ii,
        cond_iii=cond_iii,
        cond_iv=cond_iv,
        cond_iii_counterexample=iii_counter,
        cond_iv_counterexample=iv_counter,
        containers_distinct=len(misses),
        complement_log_min=min(comp_logs, default=NEG_INF),
        complement_log_max=max(comp_logs, default=NEG_INF),
        complement_log_mean=(sum(comp_logs) / len(comp_logs)) if comp_logs else NEG_INF,
        diag_nonexpanding_prints=diag_n,
        diag_min_complement=diag_min,
        diag_quarter_ok=diag_quarter,
        counting_lhs=samples if enumerated else -1,
        # |union(P) | C| = n - |(X \ C) \ union(P)|
        counting_rhs=sum(2 ** (h.n - len(miss - print_union(prnt)))
                         for prnt, miss in print_containers.items()) if enumerated else -1,
        print_containers=print_containers,
    )
