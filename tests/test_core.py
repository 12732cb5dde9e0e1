import math
import re
from array import array
from itertools import chain, combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hypercontainers import core
from hypercontainers.core import (
    Hypergraph,
    HypergraphError,
    NEG_INF,
    _code,
    _decode,
    check_shape,
    cmp_log,
    is_bounded,
    is_homogeneous,
    ldeg,
    level_caps,
    log_size,
    nabla,
    new_hypergraph,
    pow_ceil,
    pow_floor,
    vertex_fiber,
)
from hypercontainers.engine import derive_params
from hypercontainers.instances import gen_random, read_edge_list, write_edge_list

from conftest import hypergraphs, limit_cmp_log
import reference
from reference import degree, fiber, section


class TestConstruction:
    def test_canonicalization(self):
        h = new_hypergraph(4, 2, [{1, 0}, {0, 2}])
        assert h.edges == ((0, 1), (0, 2))

    def test_dedup_under_set_equality(self):
        h = new_hypergraph(4, 2, [{0, 1}, (1, 0)])
        assert h.edges == ((0, 1),)

    def test_out_of_range_vertex(self):
        with pytest.raises(HypergraphError):
            new_hypergraph(4, 2, [{0, 5}])

    @pytest.mark.parametrize("raw", [(0, 1.5), (0, 1.0), (0, "1"), (0, None)],
                             ids=["fraction", "integral_float", "str", "none"])
    def test_non_integer_vertex(self, raw):
        with pytest.raises(HypergraphError, match=re.escape(
                f"edge {raw} has a vertex that is not an integer")):
            new_hypergraph(4, 2, [(2, 3), raw])

    def test_numpy_integer_vertices(self):
        np = pytest.importorskip("numpy")
        h = new_hypergraph(4, 2, [np.array([1, 0]), (np.int64(2), 3)])
        assert h.edges == ((0, 1), (2, 3))
        assert all(type(v) is int for e in h.edges for v in e)

    def test_subset_slots_bounded(self):
        # m k 2^(k-1) vertex slots in the subsets of m k-sets, at most 2^26:
        # a codegree count of every level visits them all
        for k in (1, 2, 3, 4, 20, 26):
            m = (1 << 26) // (k << (k - 1))
            check_shape(2, k, m)
            with pytest.raises(HypergraphError, match=re.escape(
                    f"need m k 2^(k-1) <= 2^26 subset slots, got m = {m + 1}, k = {k}")):
                check_shape(2, k, m + 1)
        # the largest generator targets in use: k=3 at n=1024, delta=0.6,
        # and k=2 at n=2^18, delta=0.25
        check_shape(1024, 3, 4194304)
        check_shape(1 << 18, 2, math.ceil((1 << 18) ** 1.25))
        check_shape(2, 27, 0)
        check_shape(2, 10 ** 9)
        with pytest.raises(HypergraphError):
            check_shape(2, 27, 1)
        with pytest.raises(HypergraphError, match=re.escape("got m = 2, k = 60")):
            new_hypergraph(61, 60, [range(60), range(1, 61)])

    def test_wrong_arity(self):
        with pytest.raises(HypergraphError):
            new_hypergraph(4, 2, [{0, 1, 2}])
        with pytest.raises(HypergraphError):
            new_hypergraph(4, 2, [{0}])

    def test_n_too_small(self):
        with pytest.raises(HypergraphError):
            new_hypergraph(1, 1, [])

    @pytest.mark.parametrize("n, k, message", [(1, 2, "need n >= 2, got 1"),
                                               (4, 0, "need k >= 1, got 0")])
    @pytest.mark.parametrize("caller", ["new_hypergraph", "read_edge_list",
                                        "gen_random", "derive_params"])
    def test_one_shape_rule(self, tmp_path, caller, n, k, message):
        path = tmp_path / "h.hg"
        path.write_text(f"{k} {n} 0\n")
        calls = {
            "new_hypergraph": lambda: new_hypergraph(n, k, []),
            "read_edge_list": lambda: read_edge_list(path),
            "gen_random": lambda: gen_random(n, k, 0.3, 0.6, 0),
            "derive_params": lambda: derive_params(k, 0.5, 0.5, n),
        }
        with pytest.raises(HypergraphError) as info:
            calls[caller]()
        assert str(info.value) == message


class TestFlatEdges:
    @given(h=hypergraphs(k_max=4))
    @settings(max_examples=150, deadline=None)
    def test_flat_and_tuple_built_agree(self, tmp_path_factory, h):
        vertices = array("i", chain.from_iterable(h.edges))
        flat = Hypergraph(h.n, h.k, vertices)
        assert flat == h and h == flat and hash(flat) == hash(h)
        assert len(flat) == len(h)
        assert flat.degrees == h.degrees
        if h.k == 2:
            assert flat.neighbours == h.neighbours
            assert "edges" not in flat.__dict__
        paths = [tmp_path_factory.mktemp("flat") / "h.hg" for _ in range(2)]
        write_edge_list(flat, paths[0])
        write_edge_list(h, paths[1])
        assert paths[0].read_bytes() == paths[1].read_bytes()
        assert flat.edges == h.edges
        assert all(type(v) is int for e in flat.edges for v in e)
        if h.edges:  # the last vertex moved, or the last edge dropped
            assert Hypergraph(h.n, h.k, vertices[:-1] + array("i", [h.n])) != h
            assert Hypergraph(h.n, h.k, vertices[:-h.k]) != h

    def test_immutable(self):
        h = new_hypergraph(4, 2, [(0, 1)])
        with pytest.raises(AttributeError, match="immutable"):
            h.n = 5

    @pytest.mark.parametrize("k", [2, 3])
    def test_degrees_immutable(self, k):
        # a write to degrees would change every later container and the
        # engine's memo key: like every per-vertex index it is a tuple
        h = new_hypergraph(5, k, [range(k)])
        with pytest.raises(TypeError):
            h.degrees[0] = 99
        assert h.degrees == (1,) * k + (0,) * (5 - k)


class TestLogScale:
    def test_log_size_zero(self):
        assert log_size(0, 7) == NEG_INF
        with pytest.raises(ValueError, match="negative count: -1"):
            log_size(-1, 7)

    def test_log_size_value(self):
        assert log_size(3, 4) == pytest.approx(math.log(3, 4))

    def test_cmp_neg_inf_both(self):
        # NEG_INFINITY >= NEG_INFINITY holds
        assert cmp_log(0, NEG_INF, 5) == 0

    def test_cmp_basic(self):
        assert cmp_log(3, 0.5, 4) > 0   # log_4 3 > 0.5
        assert cmp_log(2, 0.5, 4) == 0  # exact tie
        assert cmp_log(1, 0.5, 4) < 0

    def test_pow_floor(self):
        assert pow_floor(4, 0.5) == 2
        assert pow_floor(16, 0.25) == 2
        assert pow_floor(10, 0.0) == 1
        assert pow_floor(10, NEG_INF) == 0

    @pytest.mark.parametrize("n, tau, least", [(16, 0.5, 4), (16, 0.25, 2), (16, -0.3, 1),
                                               (1024, 0.1, 2), (1024, 0.35, 12),
                                               (10, 0.0, 1), (10, NEG_INF, 0),
                                               (1024, -1e308, 1)])
    def test_pow_ceil_is_the_per_count_threshold(self, n, tau, least):
        # d < pow_ceil(n, tau) iff cmp_log(d, tau, n) < 0, ties at 16^0.5 = 4
        # and 16^0.25 = 2 included, and 1 for a negative tau, also one
        # whose tau log2 n is below any float (condition (iv) at a wide k)
        assert pow_ceil(n, tau) == least
        assert all((d < least) == (cmp_log(d, tau, n) < 0) for d in range(n + 1))


# n^tau near an integer d, at its ties d within LOG_TOL, and in between
_TIE_OFFSETS = (0.0, 1e-13, -1e-13, 5e-13, -5e-13, 2e-12, -2e-12)


@given(st.integers(2, 5000), st.integers(1, 600), st.sampled_from(_TIE_OFFSETS),
       st.floats(-2.0, 1.0))
@settings(max_examples=300, deadline=None)
@example(5000, 600, 0.0, -1e-13)
@example(16, 4, 0.0, 0.0)
def test_pow_floor_and_ceil_match_the_scan(n, d, off, scale):
    # tau = log_n d + off, a tie of d within LOG_TOL or just past it;
    # tau = scale log_n d, negative for scale < 0; and NEG_INF.  Next to
    # d and to each cap, cmp_log's rule is one integer comparison
    for tau in (log_size(d, n) + off, scale * log_size(d, n), NEG_INF):
        floor, ceil = pow_floor(n, tau), pow_ceil(n, tau)
        assert floor == reference.pow_floor(n, tau)
        assert ceil == reference.pow_ceil(n, tau)
        for x in {d - 1, d, d + 1, floor, floor + 1, ceil - 1, ceil} - {-1}:
            assert (cmp_log(x, tau, n) >= 0) == (x >= ceil)
            assert (cmp_log(x, tau, n) <= 0) == (x <= floor)


@given(st.integers(2, 1 << 64), st.floats(-2.0, 20.0))
@settings(max_examples=200, deadline=None)
@example(1 << 30, 2.0)
@example(1 << 70, 16.0)
@example(1 << 20, 59.0)
def test_pow_floor_and_ceil_keep_the_rule_at_any_size(n, tau):
    # up to n^tau = 2^1280, and 2^1180 in the examples: d passes and d + 1
    # fails the rule, found with no float power in O(tau log n) steps
    real, steps = cmp_log, 2 * (max(tau, 0.0) * math.log2(n) + 2)
    with pytest.MonkeyPatch.context() as mp:
        limit_cmp_log(mp, steps)
        d = pow_floor(n, tau)
    with pytest.MonkeyPatch.context() as mp:
        limit_cmp_log(mp, steps + 1)
        c = pow_ceil(n, tau)
    assert real(d, tau, n) <= 0 < real(d + 1, tau, n)
    assert c - 1 < 0 or real(c - 1, tau, n) < 0 <= real(c, tau, n)


H334 = new_hypergraph(4, 3, [(0, 1, 2), (0, 1, 3), (1, 2, 3)])
STAR = new_hypergraph(4, 2, [(0, 1), (0, 2), (0, 3)])


class TestFiber:
    def test_fiber_over_singleton(self):
        assert fiber(H334, [{0}]).edges == ((1, 2), (1, 3))

    def test_fiber_union_of_links(self):
        # link(0) = {(1,2),(1,3)}, link(2) = {(0,1),(1,3)}
        assert fiber(H334, [{0}, {2}]).edges == ((0, 1), (1, 2), (1, 3))

    def test_fiber_empty_collection(self):
        assert fiber(H334, []).edges == ()

    def test_fiber_level_out_of_range(self):
        with pytest.raises(HypergraphError):
            fiber(H334, [{0, 1, 2}])
        with pytest.raises(HypergraphError, match="vertex fiber needs k >= 2"):
            vertex_fiber(new_hypergraph(4, 1, [(0,)]), {0})

    def test_vertex_fiber_matches_fiber_over_singletons(self):
        assert vertex_fiber(H334, {0, 2}).edges == fiber(H334, [{0}, {2}]).edges


class TestDegrees:
    def test_degree_star(self):
        assert degree(STAR, {0}) == 3
        assert degree(STAR, {3}) == 1

    def test_degree_invalid_vertex(self):
        with pytest.raises(HypergraphError):
            degree(STAR, {9})

    def test_max_degree_star(self):
        assert STAR.max_degrees[0] == 3

    def test_max_degree_empty(self):
        assert new_hypergraph(4, 2, []).max_degrees[0] == 0

    def test_max_degree_pairs(self):
        h = new_hypergraph(4, 3, [(0, 1, 2), (0, 1, 3)])
        assert h.max_degrees[1] == 2

    def test_level_out_of_range(self):
        # one entry per level 1..k-1: none for level k = 2
        assert len(STAR.max_degrees) == 1

    @pytest.mark.parametrize("k,edges", [(2, [(0, 1), (0, 2), (3, 4)]),
                                         (3, [(0, 1, 2), (0, 1, 3), (2, 4, 5)]),
                                         (4, [(0, 1, 2, 3), (0, 1, 2, 4), (0, 1, 3, 5)])])
    def test_report_predicates_count_each_level_once(self, monkeypatch, k, edges):
        # level 1 is read off the degrees; levels 2..k-1 take one pass each
        calls = []
        count = core.codegrees
        monkeypatch.setattr(core, "codegrees",
                            lambda es, ell: calls.append(ell) or count(es, ell))
        h = new_hypergraph(6, k, edges)
        ldeg(h)
        is_bounded(h, 0.5)
        is_homogeneous(h, 0.5, 0.3)
        assert sorted(calls) == list(range(2, k))

    @given(h=hypergraphs(k_max=4))
    @example(h=new_hypergraph(5, 1, []))
    @example(h=new_hypergraph(5, 2, []))
    @example(h=new_hypergraph(6, 4, []))
    @settings(max_examples=200, deadline=None)
    def test_max_degrees_match_reference(self, h):
        assert h.max_degrees == tuple(max(reference.codegrees(h.edges, ell).values(), default=0)
                                      for ell in range(1, h.k))
        # each per-vertex index against the edges through v, read off h.edges
        assert len(h.degrees) == len(h.incidence) == h.n
        for v in range(h.n):
            through = tuple(e for e in h.edges if v in e)
            assert h.incidence[v] == through
            assert h.degrees[v] == len(through)
            assert h.edges_through(v) == through
            if h.k == 2:
                assert h.neighbours[v] == tuple(u for e in through for u in e if u != v)
        assert h.edges_through(-1) == h.edges_through(h.n) == ()
        if h.k != 2:
            with pytest.raises(HypergraphError, match="neighbours needs k = 2"):
                h.neighbours


class TestSection:
    def test_direct(self):
        h = new_hypergraph(4, 2, [(0, 1), (2, 3)])
        assert section(h, [{0}], [{1}]) == {(0, 1)}

    def test_full_v(self):
        h = new_hypergraph(4, 2, [(0, 1), (2, 3)])
        all_singles = [{v} for v in range(4)]
        assert section(h, [{0}, {2}], all_singles) == {(0, 1), (2, 3)}

    def test_empty_u(self):
        h = new_hypergraph(4, 2, [(0, 1)])
        assert section(h, [], [{1}]) == frozenset()


class TestLdeg:
    def test_star(self):
        assert ldeg(STAR) == pytest.approx(math.log(3, 4))

    def test_single_edge(self):
        assert ldeg(new_hypergraph(5, 3, [(0, 1, 2)])) == 0.0

    def test_empty_floors_at_zero(self):
        assert ldeg(new_hypergraph(4, 2, [])) == 0.0

    def test_k1_convention(self):
        assert ldeg(new_hypergraph(4, 1, [(0,), (1,)])) == 0.0

    def test_edgeless_3_uniform(self):
        assert ldeg(new_hypergraph(5, 3, [])) == 0.0


class TestBoundedHomogeneous:
    def test_star_not_half_bounded(self):
        assert not is_bounded(STAR, 0.5)  # 3 > 4^0.5

    def test_matching_zero_bounded(self):
        h = new_hypergraph(4, 2, [(0, 1), (2, 3)])
        assert is_bounded(h, 0.0)

    def test_empty_bounded(self):
        assert is_bounded(new_hypergraph(4, 2, []), 0.0)

    def test_k1_always_bounded(self):
        assert is_bounded(new_hypergraph(4, 1, [(0,), (1,), (2,)]), 0.0)

    def test_edgeless_3_uniform_bounded(self):
        assert is_bounded(new_hypergraph(5, 3, []), 0.0)

    def test_matching_homogeneous(self):
        h = new_hypergraph(4, 2, [(0, 1), (2, 3)])
        assert is_homogeneous(h, 0.0, 0.5)       # log_4 2 = 0.5 >= 1 - 0.5
        assert not is_homogeneous(h, 0.0, 0.4)   # 0.5 < 0.6

    def test_empty_not_homogeneous(self):
        assert not is_homogeneous(new_hypergraph(4, 2, []), 0.0, 0.5)


@given(hypergraphs(k_max=4))
@settings(max_examples=60, deadline=None)
def test_is_bounded_matches_level_caps(h):
    # is_bounded, which reads the integer caps, agrees with the cmp_log
    # definition, also at each tie delta = log_n(Delta_ell) / (k - ell),
    # where level ell sits on its cap
    ties = [log_size(d, h.n) / (h.k - ell) for ell, d in enumerate(h.max_degrees, 1)]
    for delta in (0.0, 0.2, 0.5, 1.0, *ties):
        assert is_bounded(h, delta) == reference.is_bounded(h, delta)
    for ell, (d, delta) in enumerate(zip(h.max_degrees, ties), 1):
        assert level_caps(h.n, h.k, delta)[ell - 1] == d


class TestNabla:
    def test_threshold(self):
        h = new_hypergraph(4, 2, [(0, 1), (0, 2), (0, 3), (1, 2)])
        # degrees 3,2,2,1; threshold 4^0.5 = 2
        assert nabla(h, 1, 0.5) == {(0,), (1,), (2,)}

    def test_delta_zero_is_domain(self):
        h = new_hypergraph(5, 2, [(0, 1), (2, 3)])
        assert nabla(h, 1, 0.0) == {(0,), (1,), (2,), (3,)}

    def test_empty(self):
        assert nabla(new_hypergraph(4, 2, []), 1, 0.0) == frozenset()

    def test_out_of_range(self):
        with pytest.raises(HypergraphError):
            nabla(STAR, 2, 0.5)


@given(hypergraphs())
@settings(max_examples=60, deadline=None)
def test_fiber_is_union_of_links(h):
    if h.k < 2:
        return
    verts = sorted(h.covered_vertices())[:4]
    got = set(vertex_fiber(h, verts).edges)
    expect = set()
    for v in verts:
        expect |= set(fiber(h, [{v}]).edges)
    assert got == expect


@given(hypergraphs())
@settings(max_examples=60, deadline=None)
def test_ldeg_is_least_bound(h):
    d = ldeg(h)
    assert is_bounded(h, d)
    if h.k >= 2 and any(d >= 2 for d in h.max_degrees):
        # ldeg is tight: shaving enough to flip a degree comparison fails
        assert not is_bounded(h, d - 0.05)


@given(hypergraphs())
@settings(max_examples=40, deadline=None)
def test_section_covers_partition(h):
    # every edge meets C or lies inside X \ C
    if h.k < 2:
        return
    c = [{v} for v in range(0, h.n, 2)]
    rest = [{v} for v in range(1, h.n, 2)]
    km1 = list(combinations(range(h.n), h.k - 1))
    left = section(h, c, km1)
    right = {e for e in h.edges if all(v % 2 == 1 for v in e)}
    assert left | right == frozenset(h.edges)


@given(hypergraphs(k_max=4))
@example(new_hypergraph(5, 3, []))
# a k = 3 pair of codegree 2 (the pair route) and a k = 4 graph (columns)
@example(new_hypergraph(5, 3, [(0, 1, 2), (0, 1, 3), (1, 2, 4)]))
@example(new_hypergraph(6, 4, [(0, 1, 2, 3), (0, 1, 2, 4), (1, 2, 4, 5)]))
@settings(max_examples=60, deadline=None)
def test_codegrees_match_reference(h):
    # the same counts under the decoded keys, at every level including 0 and k
    for ell in range(h.k + 1):
        counts = core.codegrees(h, ell)
        got = {_decode(c, h.n, ell): d for c, d in counts.items()}
        assert len(got) == len(counts)
        assert got == reference.codegrees(h.edges, ell)


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_code_rule(data):
    # one code rule: _decode inverts _code, and codes sort as the tuples do
    n = data.draw(st.integers(2, 50))
    ell = data.draw(st.integers(0, min(n, 4)))
    sets = st.sets(st.integers(0, n - 1), min_size=ell, max_size=ell).map(sorted).map(tuple)
    u, w = data.draw(sets), data.draw(sets)
    assert _decode(_code(u, n), n, ell) == u
    cu, cw = _code(u, n), _code(w, n)
    assert ((cu > cw) - (cu < cw)) == ((u > w) - (u < w))


@given(hypergraphs(k_max=4))
@settings(max_examples=40, deadline=None)
def test_degree_matches_naive_recount(h):
    if h.k < 2:
        return
    for ell in range(1, h.k):
        naive = {}
        for e in h.edges:
            for u in combinations(e, ell):
                naive[u] = naive.get(u, 0) + 1
        for u, d in naive.items():
            assert degree(h, u) == d
        assert h.max_degrees[ell - 1] == max(naive.values(), default=0)
