import math
from itertools import combinations

import pytest
from hypothesis import given, settings

from hypercontainers import core
from hypercontainers.core import (
    Hypergraph,
    HypergraphError,
    NEG_INF,
    cmp_log,
    is_bounded,
    is_homogeneous,
    ldeg,
    log_size,
    max_degree,
    nabla,
    new_hypergraph,
    pow_floor,
    vertex_fiber,
)

from conftest import hypergraphs
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

    def test_wrong_arity(self):
        with pytest.raises(HypergraphError):
            new_hypergraph(4, 2, [{0, 1, 2}])
        with pytest.raises(HypergraphError):
            new_hypergraph(4, 2, [{0}])

    def test_n_too_small(self):
        with pytest.raises(HypergraphError):
            new_hypergraph(1, 1, [])


class TestLogScale:
    def test_log_size_zero(self):
        assert log_size(0, 7) == NEG_INF

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
        assert max_degree(STAR, 1) == 3

    def test_max_degree_empty(self):
        assert max_degree(new_hypergraph(4, 2, []), 1) == 0

    def test_max_degree_pairs(self):
        h = new_hypergraph(4, 3, [(0, 1, 2), (0, 1, 3)])
        assert max_degree(h, 2) == 2

    def test_level_out_of_range(self):
        with pytest.raises(HypergraphError):
            max_degree(STAR, 2)

    @pytest.mark.parametrize("k,edges", [(2, [(0, 1), (0, 2), (3, 4)]),
                                         (3, [(0, 1, 2), (0, 1, 3), (2, 4, 5)])])
    def test_report_predicates_count_each_level_once(self, monkeypatch, k, edges):
        calls = []
        count = core.codegrees
        monkeypatch.setattr(core, "codegrees",
                            lambda es, ell: calls.append(ell) or count(es, ell))
        h = new_hypergraph(6, k, edges)
        ldeg(h)
        is_bounded(h, 0.5)
        is_homogeneous(h, 0.5, 0.3)
        assert sorted(calls) == list(range(1, k))


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

    def test_matching_homogeneous(self):
        h = new_hypergraph(4, 2, [(0, 1), (2, 3)])
        assert is_homogeneous(h, 0.0, 0.5)       # log_4 2 = 0.5 >= 1 - 0.5
        assert not is_homogeneous(h, 0.0, 0.4)   # 0.5 < 0.6

    def test_empty_not_homogeneous(self):
        assert not is_homogeneous(new_hypergraph(4, 2, []), 0.0, 0.5)


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
    if h.k >= 2 and any(max_degree(h, ell) >= 2 for ell in range(1, h.k)):
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
    assert left | right == h.edge_set


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
        assert max_degree(h, ell) == max(naive.values(), default=0)
