import random
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import strategies as st

from hypercontainers import core
from hypercontainers.core import Hypergraph

SRC = Path(__file__).resolve().parent.parent / "src"


def run_limited(code: str, *args: str) -> subprocess.CompletedProcess:
    """Run code with args in a fresh interpreter whose address space is
    capped at 1 GiB, so that an input that no guard refuses ends there in
    a MemoryError instead of exhausting the host.  In code, a candidate
    draw of gen_random fails at once."""
    head = ("import resource, sys\n"
            "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
            f"sys.path.insert(0, {str(SRC)!r})\n"
            "from hypercontainers import instances\n"
            "instances._kset_pairs = None\n")
    return subprocess.run([sys.executable, "-c", head + code, *args],
                          capture_output=True, text=True, timeout=600, check=False)


def limit_cmp_log(monkeypatch, limit: float) -> None:
    """Patch core.cmp_log, the rule behind pow_floor and pow_ceil, with a
    copy that fails the test after limit calls, so that a count found
    one step at a time fails at once instead of running for minutes."""
    real, calls = core.cmp_log, [0]

    def counted(count, tau, n):
        calls[0] += 1
        assert calls[0] <= limit, f"more than {limit} cmp_log calls"
        return real(count, tau, n)

    monkeypatch.setattr(core, "cmp_log", counted)


def random_hypergraph(rng: random.Random, n_max=10, k_max=3, m_max=12) -> Hypergraph:
    n = rng.randint(2, n_max)
    k = rng.randint(1, min(k_max, n))
    from math import comb
    m = rng.randint(0, min(m_max, comb(n, k)))
    edges = set()
    while len(edges) < m:
        edges.add(tuple(sorted(rng.sample(range(n), k))))
    return Hypergraph(n, k, tuple(sorted(edges)))


@st.composite
def hypergraphs(draw, n_max=10, k_max=3, m_max=12):
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    return random_hypergraph(random.Random(seed), n_max, k_max, m_max)


def low_degree_singletons(h: Hypergraph, count: int = 40) -> list[set[int]]:
    """{v} for the first count vertices of degree 1 to 3.  At k=2 with a
    large n each stays a non-expanding print, so its container comes
    from H^-."""
    return [{v} for v in range(h.n) if 1 <= h.degrees[v] <= 3][:count]


def all_ell_subsets(h: Hypergraph, ell: int):
    return set(combinations(range(h.n), ell))
