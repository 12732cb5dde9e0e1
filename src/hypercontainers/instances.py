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
from array import array
from bisect import bisect_left
from functools import partial
from itertools import chain, compress, islice
from math import comb
from operator import eq, lt
from typing import Iterator

from .bounded import greedy_bounded_sub
from .core import (Edge, Hypergraph, HypergraphError, _code, _decode, check_shape, edge_tuples,
                   level_caps, vertex_pool)


class FormatError(ValueError):
    pass


# In text whose tokens int() accepts, these mark a token that is not the
# str() of its value: '+', '_', whitespace, a non-ASCII digit, a leading 0.
_NONCANONICAL = re.compile(r"[^0-9 \n-]|-0|(?<![0-9])0[0-9]")


# random.sample's switch for k <= 5: a pool up to this n, a set above
_SAMPLE_SETSIZE = 21
# 32-bit words _kset_codes takes from one getrandbits call
_BLOCK_WORDS = 4096
# gen_random draws at most 2^this many candidates: far above any instance
# in use, and below a target whose candidates would exhaust memory
_TARGET_BITS = 31


def _pool_max(k: int) -> int:
    """The largest n at which random.sample(range(n), k) draws from a
    shrinking pool; above it sample keeps a set of the values taken."""
    setsize = _SAMPLE_SETSIZE
    if k > 5:
        setsize += 4 ** math.ceil(math.log(k * 3, 4))
    return setsize


def _word_block(rng: random.Random) -> array:
    """The next _BLOCK_WORDS 32-bit outputs of rng, in the order that
    getrandbits(32) would return them one by one: getrandbits(32 * W)
    holds W of them, least significant first."""
    nbytes = 4 * _BLOCK_WORDS
    return array("I", rng.getrandbits(8 * nbytes).to_bytes(nbytes, "little"))


def _kset_codes(rng: random.Random, n: int, k: int) -> Iterator[int]:
    """Endless codes (core._code) of the k-sets
    tuple(sorted(rng.sample(range(n), k))) draws, for n < 2^32.

    Up to _pool_max(k), where sample draws from a shrinking pool, the
    sets are sample's own.  Above it sample draws getrandbits(bits) with
    bits = n.bit_length() <= 32, which is the next 32-bit Mersenne word
    shifted right by 32 - bits, so the words are read in blocks
    (_word_block) and those out of range skipped.  The in-range values
    come in draw order; each set takes the next k of them, and if some
    repeat, the set drops the repeats and takes further values, skipping
    those it holds, as sample redraws them.  The last block is drawn past
    the last word used, so rng must not be drawn from again."""
    if n <= _pool_max(k):
        while True:
            yield _code(sorted(rng.sample(range(n), k)), n)
    shift = 32 - n.bit_length()
    limit = n << shift
    values = chain.from_iterable(iter(
        lambda: [w >> shift for w in _word_block(rng) if w < limit], None))

    def complete(s: tuple[int, ...]) -> list[int]:
        taken = list(dict.fromkeys(s))
        while len(taken) < k:
            v = next(values)
            if v not in taken:
                taken.append(v)
        return taken

    if k == 2:  # the k = 2 and k = 3 routes: sorted and coded inline
        for a, b in zip(values, values):
            if a == b:
                a, b = complete((a, b))
            yield a * n + b if a < b else b * n + a
    elif k == 3:
        for a, b, c in zip(values, values, values):
            if a == b or a == c or b == c:
                a, b, c = complete((a, b, c))
            if a > b:
                a, b = b, a
            if c < b:
                b, c = c, b
                if b < a:
                    a, b = b, a
            yield (a * n + b) * n + c
    else:
        for s in zip(*[values] * k):
            if len(set(s)) < k:
                s = complete(s)
            yield _code(sorted(s), n)


def _buckets(codes: Iterator[int], n: int, k: int, target: int) -> list:
    """The first target distinct codes (core._code) of codes, held as one
    bucket a vertex: bucket a holds the remainders c - a * n^(k-1) of the
    codes c whose least vertex is a, ascending.  A bucket is an
    array("i") while n^(k-1) <= 2^31, so that every remainder fits, and a
    list above that.

    Each bucket is sorted and deduplicated once after the first target
    codes; then, while d are missing, the next d codes are drawn, of which
    at most d are new, and each new one is inserted in place, so the
    buckets are complete exactly where a set of the codes would reach
    target."""
    width = n ** (k - 1)
    store = partial(array, "i") if width <= 1 << 31 else list
    buckets = [store() for _ in range(n)]
    for c in islice(codes, target):
        a, r = divmod(c, width)
        buckets[a].append(r)
    for a, bucket in enumerate(buckets):
        buckets[a] = store(sorted(set(bucket)))
    missing = target - sum(map(len, buckets))
    while missing:
        for c in islice(codes, missing):
            a, r = divmod(c, width)
            bucket = buckets[a]
            i = bisect_left(bucket, r)
            if i == len(bucket) or bucket[i] != r:
                bucket.insert(i, r)
                missing -= 1
    return buckets


def _greedy_pairs(n: int, buckets: list[array], cap: int) -> array:
    """greedy_bounded_sub at k = 2 over the pairs of _buckets, walked in
    (a, b) order: keep (a, b) iff both a and b are in fewer than cap kept
    pairs, and leave a's bucket once a is in cap.  The kept pairs are
    returned as one flat array of their vertices; buckets is emptied
    (each entry set to None) on the way."""
    deg = [0] * n
    kept = array("i")
    for a in range(n):
        bucket, buckets[a] = buckets[a], None  # freed once walked
        for b in bucket:
            if deg[a] >= cap:
                break
            if deg[b] < cap:
                deg[a] += 1
                deg[b] += 1
                kept.append(a)
                kept.append(b)
    return kept


def _greedy_triples(n: int, buckets: list, cap1: int, cap2: int) -> tuple[Edge, ...]:
    """greedy_bounded_sub at k = 3 over the triples of _buckets, walked in
    (a, b, c) order: keep (a, b, c) iff each of its vertices is in fewer
    than cap1 kept triples and each of its pairs in fewer than cap2, and
    leave a's bucket once a is in cap1.  A pair a < b is counted under
    a * n + b.  Tuples are built for kept triples only; buckets is
    emptied (each entry set to None) on the way."""
    deg = [0] * n
    pairs: dict[int, int] = {}
    count = pairs.get
    vertex = vertex_pool(n)
    kept = []
    for a in range(n):
        bucket, buckets[a] = buckets[a], None  # freed once walked
        an = a * n
        for r in bucket:
            if deg[a] >= cap1:
                break
            b, c = divmod(r, n)  # r = b * n + c is the pair code of (b, c)
            if deg[b] < cap1 and deg[c] < cap1:
                ab = an + b
                ac = an + c
                d_ab, d_ac, d_bc = count(ab, 0), count(ac, 0), count(r, 0)
                if d_ab < cap2 and d_ac < cap2 and d_bc < cap2:
                    deg[a] += 1
                    deg[b] += 1
                    deg[c] += 1
                    pairs[ab] = d_ab + 1
                    pairs[ac] = d_ac + 1
                    pairs[r] = d_bc + 1
                    kept.append((vertex[a], vertex[b], vertex[c]))
    return tuple(kept)


def gen_random(n: int, k: int, delta_target: float, eps_target: float | None,
               seed: int) -> Hypergraph:
    """Random near-homogeneous instance: draw uniform k-sets until
    ceil(n^(1+(k-1)delta)) distinct candidates, then trim greedily to a
    delta_target-bounded subhypergraph.  Deterministic per seed.  n must
    be below 2^32.  A candidate count above 2^31 is refused before it is
    formed; check_shape then caps it at 2^26 / (k 2^(k-1)) (2^24 at
    k = 2), the cap that binds.

    Candidates are exactly tuple(sorted(rng.sample(range(n), k))) drawn
    in a loop on random.Random(seed), each held as its code (core._code,
    drawn by _kset_codes).  At every k the distinct candidates are kept
    in one bucket a vertex, the remainders of the codes whose least
    vertex it is (_buckets).  At k = 2 and k = 3 the buckets are walked
    in sorted order and trimmed by greedy_bounded_sub's rule, with
    degrees counted in a list and pair codegrees in a dict keyed by pair
    codes (_greedy_pairs, _greedy_triples), so no tuple is made for a
    candidate that is not kept, and at k = 2 none at all: the kept pairs
    form the hypergraph's flat edge array.  At k = 1 and k >= 4 the codes
    are decoded to tuples and trimmed by greedy_bounded_sub itself.
    eps_target is not read: the output does not depend on it.
    """
    check_shape(n, k)
    if n >= 2 ** 32:
        # the word draw needs n.bit_length() <= 32; the >= n candidates
        # would not fit in memory anyway
        raise HypergraphError(f"need n < 2^32, got {n}")
    exponent = 1 + (k - 1) * delta_target
    if exponent * math.log2(n) > _TARGET_BITS:
        raise HypergraphError(
            f"target edge count {n}^{exponent:g} is above 2^{_TARGET_BITS}")
    target = math.ceil(n ** exponent)
    total = comb(n, k)
    if target > total:
        raise HypergraphError(
            f"target edge count {target} exceeds binomial({n},{k}) = {total}")
    check_shape(n, k, target)
    codes = _kset_codes(random.Random(seed), n, k)
    caps = level_caps(n, k, delta_target)
    buckets = _buckets(codes, n, k, target)
    if k == 2:
        return Hypergraph(n, k, _greedy_pairs(n, buckets, *caps))
    if k == 3:
        return Hypergraph(n, k, _greedy_triples(n, buckets, *caps))
    h = Hypergraph(n, k, tuple((a, *_decode(r, n, k - 1))
                               for a, bucket in enumerate(buckets) for r in bucket))
    return greedy_bounded_sub(h, delta_target)


def gen_ap(n: int, k: int) -> Hypergraph:
    """The k-term arithmetic-progression hypergraph on {1,...,n}, with
    vertices shifted to 0..n-1.  Edge count equals
    sum_{d >= 1} max(0, n - (k-1) d)."""
    if k < 3:
        raise HypergraphError(f"k must be >= 3 for AP instances, got {k}")
    if n < k:
        raise HypergraphError(f"need n >= k, got n={n}, k={k}")
    steps = range(1, (n - 1) // (k - 1) + 1)
    check_shape(n, k, sum(n - (k - 1) * d for d in steps))
    edges = [tuple(range(a, a + k * d, d)) for d in steps for a in range(n - (k - 1) * d)]
    return Hypergraph(n, k, tuple(sorted(edges)))


# write_edge_list formats this many edges with one % operation
_WRITE_EDGES = 4096


def write_edge_list(h: Hypergraph, path) -> None:
    """Write h in the edge-list format, formatting blocks of edges
    straight from its vertices (Hypergraph.edge_vertices)."""
    line = " ".join(["%d"] * h.k) + "\n"
    vertices = iter(h.edge_vertices())
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"{h.k} {h.n} {len(h)}\n")
        while block := tuple(islice(vertices, _WRITE_EDGES * h.k)):
            fh.write(line * (len(block) // h.k) % block)


def read_edge_list(path) -> Hypergraph:
    """Read and validate an edge-list file: FormatError for a malformed
    or non-canonical line, HypergraphError for an invalid hypergraph.
    At k = 2 a file whose lines come in canonical order, as
    write_edge_list writes them, is read into Hypergraph's flat edge
    array without building an edge tuple."""
    # newline="" and LF-only splitting: LF is the only line separator, so
    # a CR or a Unicode separator stays inside its line and fails the checks
    with open(path, encoding="utf-8", newline="") as fh:
        text = fh.read()
    start = 0
    while text.startswith("#", start):
        start = text.find("\n", start) + 1 or len(text)
    if start == len(text):
        raise FormatError("missing header line")
    end = text.find("\n", start)
    if end < 0:
        end = len(text)
    header, body = text[start:end], text[end + 1:]
    del text
    parts = header.split(" ")
    if len(parts) != 3 or _NONCANONICAL.search(header):
        raise FormatError(f"malformed header: {header!r}")
    try:
        k, n, m = (int(p) for p in parts)
    except ValueError as exc:
        raise FormatError(f"malformed header: {header!r}") from exc
    if m < 0:
        raise FormatError(f"malformed header: {header!r}")
    check_shape(n, k)
    # drop the empty lines: the body becomes its non-empty lines joined by LF
    while "\n\n" in body:
        body = body.replace("\n\n", "\n")
    body = body.strip("\n")
    found = body.count("\n") + 1 if body else 0
    if found != m:
        raise FormatError(f"header promises {m} edges, found {found} lines")
    check_shape(n, k, m)
    flat = _bulk_vertices(body, k, n)
    if flat is None:
        edges = _line_checked_edges(body.split("\n"), k, n)
    elif (k == 2 and isinstance(flat, array)
          and all(map(lt, zip(flat[0::2], flat[1::2]), zip(flat[2::2], flat[3::2])))):
        # pairs in strictly ascending order are canonical and distinct
        return Hypergraph(n, k, flat)
    else:
        edges = list(edge_tuples(flat, k))
    edges.sort()
    # every line is canonical, so the least repeated edge prints as its line
    dup = next(compress(edges, map(eq, edges, edges[1:])), None)
    if dup is not None:
        raise FormatError(f"duplicate edge: {' '.join(map(str, dup))!r}")
    return Hypergraph(n, k, tuple(edges))


# after _bulk_vertices' character check, a leading 0 follows a space or an LF
_LEADING_ZERO = re.compile(rb"[ \n]0[0-9]")
# _bulk_vertices parses slices of whole lines of about this many bytes, so
# that no token or int is held for more than one slice at a time
_CHUNK_BYTES = 1 << 16


def _bulk_vertices(body: str, k: int, n: int) -> array | list[int] | None:
    """The vertices of the lines of body, line after line in file order,
    or None if _line_checked_edges would reject a line.  Each check runs
    over a slice of lines at once, so a rejected body is passed on to name
    the line.  They are held in an array("i") while n <= 2^31, so that
    every vertex fits, and in a list above that."""
    if not body.isascii():
        return None
    line_seps = b" " * (k - 1) + b"\n"
    flat = array("i") if n <= 1 << 31 else []
    start = 0
    while start < len(body):
        end = body.find("\n", start + _CHUNK_BYTES)
        if end < 0:
            end = len(body)
        raw = body[start:end].encode("ascii")
        start = end + 1
        # deleting digits and '-' leaves each line's k - 1 spaces and its LF,
        # and any other character (a '+', a tab, a CR, ...) in its place
        if raw.translate(None, b"0123456789-") != (line_seps * (raw.count(b"\n") + 1))[:-1]:
            return None
        if b"-0" in raw or _LEADING_ZERO.search(b"\n" + raw):
            return None
        try:
            # the same tokens as each line's split(" ")
            vals = list(map(int, raw.replace(b"\n", b" ").split(b" ")))
        except ValueError:
            return None
        chunk = [vals[i::k] for i in range(k)]
        if not all(all(map(lt, c, d)) for c, d in zip(chunk, chunk[1:])):
            return None
        if min(chunk[0]) < 0 or max(chunk[-1]) >= n:
            return None
        flat.extend(vals)
    return flat


def _line_checked_edges(lines: list[str], k: int, n: int) -> list[Edge]:
    """The edges of lines, checked line by line to name the first that
    fails: malformed, wrong arity, unsorted or out of range, then the
    first non-canonical token anywhere."""
    edges = []
    for ln in lines:
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
    text = "\n".join(lines)
    bad = _NONCANONICAL.search(text)
    if bad:
        ln = lines[text.count("\n", 0, bad.start())]
        raise FormatError(f"non-canonical vertex token in edge line: {ln!r}")
    return edges
