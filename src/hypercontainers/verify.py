"""Definitional checking of print/container pairs.

Everything here is checked against the definitions (set inclusions, the
complement-size threshold, the counting bound), never against the
engine's internals, so a stub engine that misbehaves is caught.  The
report is a flat key/value structure with a fixed key order, so repeated
runs with identical inputs serialize byte-identically.
"""
from __future__ import annotations

import random
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields

from .core import Hypergraph, NEG_INF, cmp_log, is_bounded, is_homogeneous, ldeg, log_size
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


def sample_independent_set(h: Hypergraph, seed: int) -> frozenset[int]:
    """Greedy maximal independent set along a seed-determined permutation."""
    rng = random.Random(seed)
    order = list(h.vertices)
    rng.shuffle(order)
    taken: set[int] = set()
    for v in order:
        taken.add(v)
        if any(map(taken.issuperset, h.incidence.get(v, ()))):
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

    (i) every supplied set receives a print (witnessed extensionally);
    (ii) every produced print receives a container; (iii) the sandwich
    union(P) <= I <= union(P) | C, zero tolerance; (iv) every distinct
    container C has log_n|X \\ C| >= 1 - sigma.  A set whose print_of or
    container_of raises EngineError fails (i) or (ii) respectively.
    """
    h, p = ctx.h, ctx.params
    x = frozenset(h.vertices)
    sets = list(sets)
    for iset in sets:
        for e in h.edges:
            if iset.issuperset(e):
                raise NotIndependentError(
                    f"supplied set {_set_str(iset)} contains edge {e}")

    def process(iset):
        try:
            prnt = ctx.print_of(iset)
        except EngineError:
            return iset, None, None
        try:
            return iset, prnt, ctx.container_of(prnt)
        except EngineError:
            return iset, prnt, None

    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(process, sets))
    else:
        results = [process(s) for s in sets]

    cond_i = all(prnt is not None for _i, prnt, _c in results)
    cond_ii = all(cont is not None for _i, prnt, cont in results if prnt is not None)
    cond_iii = True
    iii_counter = ""
    print_containers: dict[tuple, tuple[Print, frozenset[int]]] = {}
    for iset, prnt, cont in results:
        if cont is None:
            continue
        key = tuple(tuple(sorted(f)) for f in prnt)
        print_containers.setdefault(key, (prnt, cont))
        up = print_union(prnt)
        if not up <= iset <= (up | cont) and cond_iii:
            cond_iii = False
            iii_counter = (f"I={_set_str(iset)} P="
                           + "|".join(_set_str(f) for f in prnt)
                           + f" C={_set_str(cont)}")

    containers = sorted({cont for _p, cont in print_containers.values()},
                        key=sorted)
    comp_logs = [log_size(len(x - c), h.n) for c in containers]
    cond_iv = True
    iv_counter = ""
    for c, lv in zip(containers, comp_logs):
        if cmp_log(len(x - c), 1 - p.sigma, h.n) < 0:
            cond_iv = False
            iv_counter = f"C={_set_str(c)} log_complement={_fmt(lv)}"
            break

    # container-size diagnostic for non-expanding top-level prints
    diag_n = 0
    diag_min = -1
    diag_quarter = "na"
    if h.k >= 2:
        quarter_ok = True
        for prnt, cont in print_containers.values():
            if len(prnt) == 1 and not ctx.fingerprint_expanding(prnt[0]):
                diag_n += 1
                comp = len(x - cont)
                diag_min = comp if diag_min < 0 else min(diag_min, comp)
                # |X \ C| >= n^(1-eps) / 4
                if cmp_log(4 * comp, 1 - p.eps, h.n) < 0:
                    quarter_ok = False
        if diag_n and p.hyp_eps_ok and p.hyp_pi_ok:
            diag_quarter = "true" if quarter_ok else "false"

    report = VerificationReport(
        n=h.n,
        k=h.k,
        edges=len(h.edges),
        ldeg=ldeg(h),
        bounded=is_bounded(h, p.delta),
        homogeneous=is_homogeneous(h, p.delta, p.eps),
        params=p,
        mode=ctx.mode,
        oracle_mode="heuristic" if ctx.heuristic_used else "exact",
        method="enumeration" if enumerated else "sampling",
        samples=len(sets),
        cond_i=cond_i,
        cond_ii=cond_ii,
        cond_iii=cond_iii,
        cond_iv=cond_iv,
        cond_iii_counterexample=iii_counter,
        cond_iv_counterexample=iv_counter,
        containers_distinct=len(containers),
        complement_log_min=min(comp_logs, default=NEG_INF),
        complement_log_max=max(comp_logs, default=NEG_INF),
        complement_log_mean=(sum(comp_logs) / len(comp_logs)) if comp_logs else NEG_INF,
        diag_nonexpanding_prints=diag_n,
        diag_min_complement=diag_min,
        diag_quarter_ok=diag_quarter,
        print_containers=print_containers,
    )
    if enumerated:
        lhs, rhs = counting_bound(report)
        report.counting_lhs = lhs
        report.counting_rhs = rhs
    return report


def counting_bound(report: VerificationReport) -> tuple[int, int]:
    """Container counting argument: number of independent sets vs the sum
    over distinct prints P of 2^|union(P) | C_P|.

    Only meaningful after a fully enumerated run.
    """
    if report.method != "enumeration":
        raise RuntimeError("counting bound requires a fully enumerated run")
    lhs = report.samples
    rhs = 0
    for prnt, cont in report.print_containers.values():
        rhs += 2 ** len(print_union(prnt) | cont)
    return lhs, rhs
