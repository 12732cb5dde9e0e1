"""Instance generation and bit-exact edge-list file I/O.

File format: optional '#' comment lines, then a header line "k n m",
then m lines of k strictly ascending space-separated vertex indices,
each token the str() of its index.  Lines may come in any order.
UTF-8, LF line endings; serialization is byte-stable, so identical
hypergraphs always produce identical files.
"""
from __future__ import annotations

import math
import random
import re
from itertools import compress
from math import comb
from operator import eq, lt
from typing import Iterator

from .bounded import greedy_bounded_sub
from .core import Edge, Hypergraph, HypergraphError, check_shape, pow_floor


class FormatError(ValueError):
    pass


# In text whose tokens int() accepts, these mark a token that is not the
# str() of its value: '+', '_', whitespace, a non-ASCII digit, a leading 0.
_NONCANONICAL = re.compile(r"[^0-9 \n-]|-0|(?<![0-9])0[0-9]")


def _ksets(rng: random.Random, n: int, k: int) -> Iterator[Edge]:
    """Endless sorted k-subsets of range(n), identical draw for draw to
    tuple(sorted(rng.sample(range(n), k))).  Up to sample's pool/set
    switch (tiny n) they are drawn by sample itself; above it, sample's
    set branch is replayed with the same rng.getrandbits calls in the same
    order, without sample's per-call overhead."""
    setsize = 21  # sample's switch: a pool up to this n, a set above
    if k > 5:
        setsize += 4 ** math.ceil(math.log(k * 3, 4))
    if n <= setsize:
        while True:
            yield tuple(sorted(rng.sample(range(n), k)))
    else:
        getrandbits = rng.getrandbits
        bits = n.bit_length()
        while True:
            # redraw while the value is out of range or already taken
            taken: set[int] = set()
            while len(taken) < k:
                r = getrandbits(bits)
                if r < n:
                    taken.add(r)
            yield tuple(sorted(taken))


def _greedy_pairs(n: int, pairs: Iterator[Edge], target: int,
                  cap: int) -> tuple[Edge, ...]:
    """greedy_bounded_sub at k = 2 over the first target distinct pairs,
    taken in sorted order: keep (a, b) iff both a and b are in fewer
    than cap kept pairs.  A pair a < b is held as the int a * n + b,
    which sorts as the tuple does; tuples are built for kept pairs only."""
    codes: set[int] = set()
    for a, b in pairs:
        codes.add(a * n + b)
        if len(codes) == target:
            break
    ordered = sorted(codes)
    del codes
    deg = [0] * n
    kept = []
    for c in ordered:
        a, b = divmod(c, n)
        if deg[a] < cap and deg[b] < cap:
            deg[a] += 1
            deg[b] += 1
            kept.append((a, b))
    return tuple(kept)


def gen_random(n: int, k: int, delta_target: float, eps_target: float,
               seed: int) -> Hypergraph:
    """Random near-homogeneous instance: draw uniform k-sets until
    ceil(n^(1+(k-1)delta)) distinct candidates, then trim greedily to a
    delta_target-bounded subhypergraph.  Deterministic per seed.

    Candidates are exactly tuple(sorted(rng.sample(range(n), k))) drawn
    in a loop on random.Random(seed): _ksets draws tiny instances by
    sample itself and replays sample's getrandbits calls above its pool
    switch.  eps_target is not read: the output does not depend on it.

    At k = 2 the same candidates are kept by the same rule as
    greedy_bounded_sub's, in the same sorted order, but _greedy_pairs
    holds each candidate as one int and counts degrees in a list, so no
    tuple or dict key is made for a candidate that is not kept.
    """
    check_shape(n, k)
    target = math.ceil(n ** (1 + (k - 1) * delta_target))
    total = comb(n, k)
    if target > total:
        raise HypergraphError(
            f"target edge count {target} exceeds binomial({n},{k}) = {total}")
    ksets = _ksets(random.Random(seed), n, k)
    if k == 2:
        kept = _greedy_pairs(n, ksets, target, pow_floor(n, delta_target))
        return Hypergraph(n, k, kept)
    edges: set[Edge] = set()
    for e in ksets:
        edges.add(e)
        if len(edges) == target:
            break
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
            fh.write(" ".join(map(str, e)) + "\n")


def read_edge_list(path) -> Hypergraph:
    """Read and validate an edge-list file: FormatError for a malformed
    or non-canonical line, HypergraphError for an invalid hypergraph."""
    # newline="" and split("\n"): LF is the only line separator, so a CR
    # or a Unicode separator stays inside its line and fails the checks
    with open(path, encoding="utf-8", newline="") as fh:
        lines = fh.read().split("\n")
    idx = 0
    while idx < len(lines) and lines[idx].startswith("#"):
        idx += 1
    if idx == len(lines):
        raise FormatError("missing header line")
    parts = lines[idx].split(" ")
    if len(parts) != 3 or _NONCANONICAL.search(lines[idx]):
        raise FormatError(f"malformed header: {lines[idx]!r}")
    try:
        k, n, m = (int(p) for p in parts)
    except ValueError as exc:
        raise FormatError(f"malformed header: {lines[idx]!r}") from exc
    check_shape(n, k)
    body = [ln for ln in lines[idx + 1:] if ln]
    if len(body) != m:
        raise FormatError(f"header promises {m} edges, found {len(body)} lines")
    edges = []
    for ln in body:
        try:
            e = tuple(map(int, ln.split(" ")))
        except ValueError as exc:
            raise FormatError(f"malformed edge line: {ln!r}") from exc
        if len(e) != k:
            raise FormatError(f"edge line has {len(e)} vertices, expected {k}: {ln!r}")
        if not all(map(lt, e, e[1:])):
            raise FormatError(f"unsorted or repeated vertices in edge line: {ln!r}")
        if e[0] < 0 or e[-1] >= n:
            raise HypergraphError(f"edge {e} has a vertex outside [0, {n})")
        edges.append(e)
    # int() took every token, so one that is not str() of its value shows
    # as a character other than a digit, a space or a sign, or a leading 0
    text = "\n".join(body)
    bad = _NONCANONICAL.search(text)
    if bad:
        ln = body[text.count("\n", 0, bad.start())]
        raise FormatError(f"non-canonical vertex token in edge line: {ln!r}")
    edges.sort()
    # every line is canonical, so the least repeated edge prints as its line
    dup = next(compress(edges, map(eq, edges, edges[1:])), None)
    if dup is not None:
        raise FormatError(f"duplicate edge: {' '.join(map(str, dup))!r}")
    return Hypergraph(n, k, tuple(edges))
