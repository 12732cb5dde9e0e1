"""Span recorder for the traced benchmark run.

The package is traced from outside: ``installed`` replaces the public
functions each layer calls with timing wrappers, at the names where the
caller looks them up, and restores the originals on exit.  No file of the
package changes.  Spans stay in memory and are written out at the end.

A span's self time is its duration minus the part of it that its child
spans cover; a layer's self time is the sum over the layer's spans.
Recursive ``print_of`` calls on child contexts are engine spans nested in
engine spans, so their time stays in ``engine``.
"""
from __future__ import annotations

import importlib
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

# Per-layer metrics reported by a traced run, with their units.
PER_LAYER = (
    ("instances.gen_s", "s"),
    ("instances.io_s", "s"),
    ("verify.draw_s", "s"),
    ("verify.draw_calls", "count"),
    ("verify.self_s", "s"),
    ("engine.print_of_s", "s"),
    ("engine.print_of_calls", "count"),
    ("engine.print_of_p50_ms", "ms"),
    ("engine.print_of_p95_ms", "ms"),
    ("engine.container_of_s", "s"),
    ("engine.self_s", "s"),
    ("engine.contexts", "count"),
    ("engine.print_reuse", "fraction"),
    ("bounded.size_s.k2", "s"),
    ("bounded.sub_s.k2", "s"),
    ("bounded.size_calls", "count"),
    ("bounded.sub_calls", "count"),
    ("bounded.matching_solves", "count"),
    ("bounded.matching_s", "s"),
    ("bounded.solves_per_witness", "solves/call"),
    ("bounded.oracle_edges", "count"),
    ("bounded.greedy_calls", "count"),
    ("core.vertex_fiber_s", "s"),
    ("core.vertex_fiber_calls", "count"),
    ("core.report_predicates_s", "s"),
    ("trace.overhead_frac", "fraction"),
)


class Recorder:
    """Spans of one traced run, as parallel lists indexed by span id.

    Spans are opened in call order, so a parent's id is always smaller
    than its children's.
    """

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        i = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(i)
        self.starts.append(perf_counter())
        return i

    def close(self, i: int) -> None:
        self.ends[i] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        i = self.open(name)
        try:
            yield
        finally:
            self.close(i)

    def call(self, name: str, fn, *args, **kwargs):
        i = self.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(i)

    def iterate(self, name: str, iterable):
        """Yield from ``iterable``, one span per item pulled."""
        it = iter(iterable)
        while True:
            i = self.open(name)
            try:
                item = next(it)
            except StopIteration:
                return
            finally:
                self.close(i)
            self.counts[name + "_calls"] += 1
            yield item

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("run\tid\tparent\tname\tstart\tend\n")
            for i, name in enumerate(self.names):
                fh.write(f"{self.run_id}\t{i}\t{self.parents[i]}\t{name}\t"
                         f"{self.starts[i]!r}\t{self.ends[i]!r}\n")


def self_times(starts, ends, parents) -> list[float]:
    """Each span's duration minus the union of its children's intervals
    (clipped to the span), so overlapping children count once."""
    children: dict[int, list[int]] = {}
    for i, p in enumerate(parents):
        if p >= 0:
            children.setdefault(p, []).append(i)
    out = [e - s for s, e in zip(starts, ends)]
    for p, kids in children.items():
        reach = starts[p]  # end of the part of the span covered so far
        for s, e in sorted((starts[k], min(ends[k], ends[p])) for k in kids):
            if e > max(s, reach):
                out[p] -= e - max(s, reach)
                reach = e
    return out


def outermost(names, parents) -> list[bool]:
    """True for each span with no ancestor of the same name."""
    out = []
    path: list[int] = []
    open_names: Counter = Counter()
    for i, p in enumerate(parents):
        while path and path[-1] != p:
            open_names[names[path.pop()]] -= 1
        out.append(open_names[names[i]] == 0)
        path.append(i)
        open_names[names[i]] += 1
    return out


def layer_metrics(rec: Recorder, report, setups: int) -> dict[str, float]:
    """Every per-layer metric except trace.overhead_frac."""
    names, parents = rec.names, rec.parents
    durs = [e - s for s, e in zip(rec.starts, rec.ends)]
    selfs = self_times(rec.starts, rec.ends, parents)
    top = outermost(names, parents)
    total: defaultdict = defaultdict(float)
    calls: Counter = Counter()
    layer_self: defaultdict = defaultdict(float)
    print_of_ms = []
    solves_in_k2_witness = 0
    for i, name in enumerate(names):
        calls[name] += 1
        layer_self[name.split(".", 1)[0]] += selfs[i]
        if top[i]:
            total[name] += durs[i]
            if name == "engine.print_of":
                print_of_ms.append(durs[i] * 1e3)
        if name == "bounded.matching" and parents[i] >= 0 \
                and names[parents[i]] == "bounded.sub.k2":
            solves_in_k2_witness += 1
    print_of_ms.sort()
    verify_self = sum(selfs[i] for i, name in enumerate(names)
                      if name == "verify.verify")
    k2_witness_calls = calls["bounded.sub.k2"]

    def pct(q):
        if not print_of_ms:
            return 0.0
        return print_of_ms[min(len(print_of_ms) - 1, int(q * len(print_of_ms)))]

    def routes(kind):
        return sum(c for name, c in calls.items()
                   if name.startswith(f"bounded.{kind}."))

    return {
        "instances.gen_s": total["instances.gen"] / setups,
        "instances.io_s": total["instances.io"] / setups,
        "verify.draw_s": total["verify.draw"],
        "verify.draw_calls": rec.counts["verify.draw_calls"],
        "verify.self_s": verify_self,
        "engine.print_of_s": total["engine.print_of"],
        "engine.print_of_calls": len(print_of_ms),
        "engine.print_of_p50_ms": pct(0.50),
        "engine.print_of_p95_ms": pct(0.95),
        "engine.container_of_s": total["engine.container_of"],
        "engine.self_s": layer_self["engine"],
        "engine.contexts": rec.counts["engine.contexts"],
        "engine.print_reuse": 1 - len(report.print_containers) / report.samples,
        "bounded.size_s.k2": total["bounded.size.k2"],
        "bounded.sub_s.k2": total["bounded.sub.k2"],
        "bounded.size_calls": routes("size"),
        "bounded.sub_calls": routes("sub"),
        "bounded.matching_solves": calls["bounded.matching"],
        "bounded.matching_s": total["bounded.matching"],
        "bounded.solves_per_witness": (solves_in_k2_witness / k2_witness_calls
                                       if k2_witness_calls else 0.0),
        "bounded.oracle_edges": rec.counts["bounded.oracle_edges"],
        "bounded.greedy_calls": calls["bounded.greedy"],
        "core.vertex_fiber_s": total["core.vertex_fiber"],
        "core.vertex_fiber_calls": calls["core.vertex_fiber"],
        "core.report_predicates_s": total["core.report_predicates"],
    }


def _timed(rec: Recorder, name: str, fn):
    def wrapper(*args, **kwargs):
        i = rec.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            rec.close(i)
    return wrapper


def _oracle(rec: Recorder, kind: str, fn):
    """Oracle spans are keyed by input uniformity, i.e. by route:
    k1 trivial, k2 b-matching, k3 (k >= 3) branch-and-bound."""
    def wrapper(hp, *args, **kwargs):
        rec.counts["bounded.oracle_edges"] += len(hp.edges)
        i = rec.open(f"bounded.{kind}.k{min(hp.k, 3)}")
        try:
            return fn(hp, *args, **kwargs)
        finally:
            rec.close(i)
    return wrapper


def _counted_init(rec: Recorder, fn):
    def wrapper(*args, **kwargs):
        rec.counts["engine.contexts"] += 1
        return fn(*args, **kwargs)
    return wrapper


def targets(rec: Recorder):
    """(owner, attribute, wrapper factory) for every traced name."""
    # ``import hypercontainers.verify`` would yield the function that the
    # package re-exports under that name, so fetch the modules themselves.
    engine = importlib.import_module("hypercontainers.engine")
    bounded = importlib.import_module("hypercontainers.bounded")
    verify = importlib.import_module("hypercontainers.verify")
    ctx = engine.EngineContext
    timed = lambda name: lambda fn: _timed(rec, name, fn)  # noqa: E731
    return [
        (engine, "max_bounded_size", lambda fn: _oracle(rec, "size", fn)),
        (engine, "max_bounded_sub", lambda fn: _oracle(rec, "sub", fn)),
        (engine, "greedy_bounded_sub", timed("bounded.greedy")),
        (engine, "vertex_fiber", timed("core.vertex_fiber")),
        (bounded.nx, "max_weight_matching", timed("bounded.matching")),
        (verify, "ldeg", timed("core.report_predicates")),
        (verify, "is_bounded", timed("core.report_predicates")),
        (verify, "is_homogeneous", timed("core.report_predicates")),
        (ctx, "print_of", timed("engine.print_of")),
        (ctx, "container_of", timed("engine.container_of")),
        (ctx, "child_for", timed("engine.child_for")),
        (ctx, "h_minus", timed("engine.h_minus")),
        (ctx, "__init__", lambda fn: _counted_init(rec, fn)),
    ]


@contextmanager
def installed(rec: Recorder):
    """Install the tracing wrappers; restore every original on exit."""
    saved = []
    try:
        for owner, attr, make in targets(rec):
            original = (owner.__dict__[attr] if isinstance(owner, type)
                        else getattr(owner, attr))
            saved.append((owner, attr, original))
            setattr(owner, attr, make(original))
        yield rec
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
