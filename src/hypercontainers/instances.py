"""Instance generation and bit-exact edge-list file I/O.

File format: optional '#' comment lines, then a header line "k n m",
then m lines of k strictly ascending space-separated vertex indices.
UTF-8, LF line endings; serialization is byte-stable, so identical
hypergraphs always produce identical files.
"""
from __future__ import annotations

import math
import random
from math import comb

from .bounded import greedy_bounded_sub
from .core import Hypergraph, HypergraphError, new_hypergraph


class FormatError(ValueError):
    pass


def gen_random(n: int, k: int, delta_target: float, eps_target: float,
               seed: int) -> Hypergraph:
    """Random near-homogeneous instance: sample distinct k-sets uniformly
    until ceil(n^(1+(k-1)delta)) candidates, then trim greedily to a
    delta_target-bounded subhypergraph.  Deterministic per seed.
    eps_target is not read: the output does not depend on it.
    """
    if n < 2 or k < 1:
        raise HypergraphError(f"need n >= 2 and k >= 1, got n={n}, k={k}")
    target = math.ceil(n ** (1 + (k - 1) * delta_target))
    total = comb(n, k)
    if target > total:
        raise HypergraphError(
            f"target edge count {target} exceeds binomial({n},{k}) = {total}")
    rng = random.Random(seed)
    edges: set[tuple[int, ...]] = set()
    while len(edges) < target:
        edges.add(tuple(sorted(rng.sample(range(n), k))))
    h = Hypergraph(n, k, tuple(sorted(edges)))
    return greedy_bounded_sub(h, delta_target)


def gen_ap(n: int, k: int) -> Hypergraph:
    """The k-term arithmetic-progression hypergraph on {1,...,n}, with
    vertices shifted to 0..n-1.  Edge count equals
    sum_{d >= 1} max(0, n - (k-1) d)."""
    if k < 3:
        raise HypergraphError(f"k must be >= 3 for AP instances, got {k}")
    if n < k:
        raise HypergraphError(f"need n >= k, got n={n}, k={k}")
    edges = []
    for d in range(1, (n - 1) // (k - 1) + 1):
        for a in range(n - (k - 1) * d):
            edges.append(tuple(a + i * d for i in range(k)))
    return Hypergraph(n, k, tuple(sorted(edges)))


def write_edge_list(h: Hypergraph, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"{h.k} {h.n} {len(h.edges)}\n")
        for e in h.edges:
            fh.write(" ".join(str(v) for v in e) + "\n")


def read_edge_list(path) -> Hypergraph:
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    idx = 0
    while idx < len(lines) and lines[idx].startswith("#"):
        idx += 1
    if idx == len(lines):
        raise FormatError("missing header line")
    parts = lines[idx].split(" ")
    if len(parts) != 3:
        raise FormatError(f"malformed header: {lines[idx]!r}")
    try:
        k, n, m = (int(p) for p in parts)
    except ValueError as exc:
        raise FormatError(f"malformed header: {lines[idx]!r}") from exc
    body = [ln for ln in lines[idx + 1:] if ln.strip()]
    if len(body) != m:
        raise FormatError(f"header promises {m} edges, found {len(body)} lines")
    edges = []
    seen = set()
    for ln in body:
        try:
            vs = tuple(int(tok) for tok in ln.split(" "))
        except ValueError as exc:
            raise FormatError(f"malformed edge line: {ln!r}") from exc
        if len(vs) != k:
            raise FormatError(f"edge line has {len(vs)} vertices, expected {k}: {ln!r}")
        if any(vs[i] >= vs[i + 1] for i in range(len(vs) - 1)):
            raise FormatError(f"unsorted or repeated vertices in edge line: {ln!r}")
        if vs in seen:
            raise FormatError(f"duplicate edge: {ln!r}")
        seen.add(vs)
        edges.append(vs)
    return new_hypergraph(n, k, edges)
