import hashlib
import math
import random
from itertools import combinations

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from hypercontainers.core import (
    Hypergraph,
    cmp_log,
    is_bounded,
    is_homogeneous,
    log_size,
    new_hypergraph,
    nabla,
    vertex_fiber,
    vertex_pool,
)
from hypercontainers import engine
from hypercontainers.bounded import OracleSizeError, max_bounded_size
from hypercontainers.engine import (
    EngineContext,
    EngineError,
    PrintDomainError,
    StrictModeError,
    derive_params,
    print_union,
)
from hypercontainers.instances import gen_ap, gen_random
from hypercontainers.verify import enumerate_independent_sets, sample_independent_sets, verify

from conftest import limit_cmp_log, low_degree_singletons, random_hypergraph
from reference import h_minus, section


class TestDeriveParams:
    def test_reference_values(self):
        p = derive_params(2, 0.7, 0.2, 2 ** 20)
        assert p.log2 == pytest.approx(0.05)
        assert p.delta == pytest.approx(0.3)
        assert p.sigma == pytest.approx(0.6)
        assert p.delta_p == pytest.approx(0.35)
        assert p.pi_p == pytest.approx(0.65)
        assert p.pi_tilde == pytest.approx(0.4)
        assert p.eps_tilde == pytest.approx(0.35)
        assert p.eps_p == pytest.approx(0.6)
        assert p.sigma_p == pytest.approx(0.6)
        assert p.hyp_eps_ok and p.hyp_pi_ok

    def test_k1_sigma_is_eps(self):
        p = derive_params(1, 0.3, 0.25, 64)
        assert p.sigma == pytest.approx(0.25)
        assert p.hyp_eps_ok == (0.25 >= 2 * math.log(2, 64))

    def test_hypothesis_flag_failure(self):
        p = derive_params(3, 0.5, 0.1, 256)
        assert not p.hyp_eps_ok  # 0.1 < 6 * 0.125

    def test_n_too_small(self):
        with pytest.raises(ValueError):
            derive_params(2, 0.5, 0.5, 1)

    def test_claim_identity(self):
        rng = random.Random(11)
        for _ in range(50):
            k = rng.randint(1, 5)
            n = rng.randint(2, 10 ** 6)
            p = derive_params(k, rng.random(), rng.random(), n)
            lhs = p.pi_tilde + (k - 1) * p.delta_p - p.eps_tilde
            rhs = 1 + (k - 2) * p.delta_p - p.eps_p
            assert abs(lhs - rhs) < 1e-12

    @pytest.mark.parametrize("k,first", [(2, 13), (3, 55), (4, 217)])
    def test_vacuity_frontier(self, k, first):
        # at the least eps the hypotheses allow (2k log_n 2), condition (iv)
        # bites (sigma < 1) only once log2 n > 2k 3^(k-1): below n = 2^54
        # it says no more than C != X at k >= 3
        def bites(log2n):
            p = derive_params(k, 0.75, 2 * k / log2n, 2 ** log2n)
            return p.hyp_eps_ok and p.sigma < 1
        assert min(log2n for log2n in range(2, 300) if bites(log2n)) == first


@given(k=st.integers(2, 6), n=st.integers(2, 1 << 30), pi=st.floats(0.0, 1.0),
       eps=st.floats(0.0, 1.0), tie=st.booleans())
@example(k=3, n=1024, pi=0.2, eps=0.6, tie=False)
@example(k=4, n=4096, pi=0.25, eps=0.67, tie=False)
@settings(max_examples=200, deadline=None)
def test_hypotheses_preserved_down_the_recursion(k, n, pi, eps, tie):
    # pi' = pi - log_n 2 at uniformity k - 1, so both hypotheses carry
    # over exactly, ties included
    if tie:
        log2 = math.log(2) / math.log(n)
        pi, eps = (k - 1) * log2, 2 * k * log2
    p = derive_params(k, pi, eps, n)
    assume(p.hyp_eps_ok and p.hyp_pi_ok)
    while p.k > 1:
        p = derive_params(p.k - 1, p.pi_p, p.eps_p, n)
        assert p.hyp_eps_ok and p.hyp_pi_ok


def _ctx(h, pi, eps, **kw):
    return EngineContext(h, derive_params(h.k, pi, eps, h.n), **kw)


class TestPrintOf:
    def test_k1_empty_print(self):
        h = new_hypergraph(6, 1, [(0,), (3,)])
        assert _ctx(h, 0.5, 1.0).print_of({1, 2}) == ()

    def test_empty_independent_set(self):
        h = new_hypergraph(6, 2, [(0, 1)])
        assert _ctx(h, 0.5, 0.5).print_of(frozenset()) == (frozenset(),)

    def test_vertices_out_of_range(self):
        h = new_hypergraph(4, 2, [(0, 1)])
        with pytest.raises(EngineError):
            _ctx(h, 0.5, 0.5).print_of({7})

    def test_length_bound_and_level_budgets(self):
        rng = random.Random(3)
        for _ in range(20):
            h = random_hypergraph(rng, n_max=10, k_max=3, m_max=14)
            if h.k < 2:
                continue
            ctx = _ctx(h, 0.8, 0.5)
            for iset in list(enumerate_independent_sets(h))[::7]:
                prnt = ctx.print_of(iset)
                assert len(prnt) <= h.k - 1
                assert print_union(prnt) <= iset
                # level-j fingerprint satisfies the level-j pi bound
                level = ctx
                for f in prnt:
                    assert cmp_log(len(f), level.params.pi, h.n) <= 0
                    if level.fingerprint_expanding(f):
                        level = level.child_for(f)

    def test_cross_implementation_oracle(self):
        # independent straightforward reimplementation of the greedy rule
        h = gen_random(12, 2, 0.3, 0.6, seed=9)
        ctx = _ctx(h, 0.7, 0.6)
        p = ctx.params

        def reference_print(ctx2, iset):
            if ctx2.h.k == 1:
                return ()
            f = frozenset()
            while True:
                hf = vertex_fiber(ctx2.h, f) if f else Hypergraph(ctx2.h.n, ctx2.h.k - 1, ())
                size = max_bounded_size(hf, ctx2.params.delta_p)
                if f and cmp_log(size, 1 + (ctx2.h.k - 2) * ctx2.params.delta_p
                                 - ctx2.params.eps_p, ctx2.h.n) >= 0:
                    child = ctx2.child_for(f)
                    return (f,) + reference_print(child, iset)
                grew = False
                for x in sorted(iset - f):
                    cand = f | {x}
                    if cmp_log(len(cand), ctx2.params.pi, ctx2.h.n) > 0:
                        continue
                    hfc = vertex_fiber(ctx2.h, cand)
                    sz = max_bounded_size(hfc, ctx2.params.delta_p)
                    tau = (math.log(len(cand), ctx2.h.n)
                           + (ctx2.h.k - 1) * ctx2.params.delta_p - ctx2.params.eps_tilde)
                    if cmp_log(sz, tau, ctx2.h.n) >= 0:
                        f = cand
                        grew = True
                        hfn = vertex_fiber(ctx2.h, f)
                        szn = max_bounded_size(hfn, ctx2.params.delta_p)
                        if cmp_log(szn, 1 + (ctx2.h.k - 2) * ctx2.params.delta_p
                                   - ctx2.params.eps_p, ctx2.h.n) >= 0:
                            break
                if not grew:
                    return (f,)

        # maximal independent set: greedy on ascending vertices
        iset = set()
        for v in range(h.n):
            if all(not iset.issuperset(set(e) - {v}) for e in h.incidence[v]):
                iset.add(v)
        iset = frozenset(iset)
        assert ctx.print_of(iset) == reference_print(ctx, iset)

    def test_nonexpanding_print_is_below_n_pi_tilde(self):
        # F satisfies the growth inequality but is not expanding, and the
        # two thresholds differ by pi~, so |F| < n^pi~ in any regime
        rng = random.Random(5)
        star = Hypergraph(16384, 2, tuple((0, v) for v in range(1, 41)))
        cases = [(star, 0.75, 0.3, [frozenset(range(1, 41))])]
        for k, m, pi, eps in ((2, 60, 0.75, 0.3), (3, 100, 0.9, 0.05)):
            edges = {tuple(sorted(rng.sample(range(60), k))) for _ in range(m)}
            h = Hypergraph(16384, k, tuple(sorted(edges)))
            isets = []
            for _ in range(100):
                iset = set()
                for v in rng.sample(range(60), rng.randint(1, 12)):
                    if not any(set(e) <= iset | {v} for e in h.incidence[v]):
                        iset.add(v)
                isets.append(frozenset(iset))
            cases.append((h, pi, eps, isets))
        sizes = []
        for h, pi, eps, isets in cases:
            ctx = _ctx(h, pi, eps)
            for iset in isets:
                level = ctx
                for f in ctx.print_of(iset):
                    if not level.fingerprint_expanding(f):
                        assert cmp_log(len(f), level.params.pi_tilde, h.n) < 0
                        sizes.append(len(f))
                        break
                    level = level.child_for(f)
            assert not ctx.heuristic_used
        # the star's leaves stop growing at 6 < 16384^pi~ ~ 19.7
        assert sizes[0] == 6 and sum(s > 0 for s in sizes) >= 50

    def test_determinism_across_contexts(self):
        h = gen_random(10, 3, 1 / 3, 0.5, seed=4)
        sets = list(enumerate_independent_sets(h))[::11]
        runs = []
        for _ in range(2):
            ctx = _ctx(h, 2 / 3, 0.5)
            runs.append([(ctx.print_of(s), ctx.container_of(ctx.print_of(s)))
                        for s in sets])
        assert runs[0] == runs[1]


class TestHomogeneousWitness:
    def _expanding_setup(self):
        h = gen_random(12, 2, 0.3, 0.6, seed=2)
        ctx = _ctx(h, 0.7, 0.6)
        for v in range(h.n):
            if ctx.fingerprint_expanding({v}):
                return ctx, frozenset({v})
        pytest.skip("no expanding singleton in fixture")

    def test_witness_is_homogeneous(self):
        ctx, f = self._expanding_setup()
        g = ctx.child_for(f).h
        assert is_homogeneous(g, ctx.params.delta_p, ctx.params.eps_p)
        assert set(g.edges) <= set(vertex_fiber(ctx.h, f).edges)

    def test_witness_deterministic(self):
        ctx, f = self._expanding_setup()
        assert ctx.child_for(f).h.edges == ctx.child_for(f).h.edges

    def test_k2_full_fiber_when_large(self):
        # 1-uniform fibers are vacuously bounded: witness is the fiber itself
        ctx, f = self._expanding_setup()
        g = ctx.child_for(f).h
        assert g.edges == vertex_fiber(ctx.h, f).edges

    def test_not_expanding_raises(self):
        h = new_hypergraph(8, 2, [(0, 1)])
        ctx = _ctx(h, 0.5, 0.1)
        with pytest.raises(EngineError):
            ctx.child_for(frozenset({5}))


class TestHMinus:
    def test_empty_fingerprint(self):
        h = new_hypergraph(6, 2, [(0, 1), (2, 3)])
        ctx = _ctx(h, 0.5, 0.5)
        hm, hat = h_minus(ctx, frozenset())
        assert hat.edges == ()
        assert hm.edges == h.edges

    def test_k2_hand_example(self):
        h = new_hypergraph(4, 2, [(0, 1), (1, 2), (2, 3)])
        ctx = _ctx(h, 0.5, 0.5)
        hm, hat = h_minus(ctx, frozenset({0}))
        # fiber over {0} is {1}; edges containing vertex 1 are removed
        assert set(hat.edges) == {(0, 1), (1, 2)}
        assert hm.edges == ((2, 3),)

    def test_k3_matches_section_formula(self):
        rng = random.Random(17)
        for _ in range(15):
            edges = set()
            while len(edges) < 14:
                edges.add(tuple(sorted(rng.sample(range(8), 3))))
            h = Hypergraph(8, 3, tuple(sorted(edges)))
            ctx = _ctx(h, 0.6, 0.5)
            f = frozenset(rng.sample(range(8), 2))
            hm, hat = h_minus(ctx, f)
            # independent evaluation through section/nabla primitives
            hf = vertex_fiber(h, f)
            expect_hat = set(section(h, list(hf.edges), [{v} for v in range(8)]))
            kmt = list(combinations(range(8), 2))
            for u in nabla(hf, 1, ctx.params.delta):
                expect_hat |= set(section(h, [set(u)], kmt))
            assert set(hat.edges) == expect_hat
            assert set(hm.edges) == set(h.edges) - expect_hat

    # H_F has no edge, on a wide empty input (646-uniform on 16 vertices)
    # and beside the edges of a path: H^ is empty, and no nabla call takes
    # a cap for it.  The container keeps every vertex of degree below
    # n^tau: all 16, and at n = 6, where that cap is 1, the two that the
    # path misses
    @pytest.mark.parametrize("h, f, container", [
        (Hypergraph(16, 646, ()), frozenset({0, 9}), frozenset(range(16))),
        (Hypergraph(6, 3, ((0, 1, 2), (1, 2, 3))), frozenset({5}), frozenset({4, 5}))])
    def test_empty_fiber_calls_no_nabla(self, monkeypatch, h, f, container):
        def refuse(*_args):
            raise AssertionError("nabla called for an empty fiber")

        monkeypatch.setattr(engine, "nabla", refuse)
        ctx = _ctx(h, 0.3, 1.0)
        assert ctx.h_minus(f) == set()
        assert ctx.container_of((f,)) == container

    def test_disjointness_invariant(self):
        rng = random.Random(23)
        for _ in range(10):
            h = random_hypergraph(rng, n_max=9, k_max=3, m_max=12)
            if h.k < 2 or not h.edges:
                continue
            ctx = _ctx(h, 0.7, 0.5)
            f = frozenset(rng.sample(range(h.n), rng.randint(1, 2)))
            hm, _hat = h_minus(ctx, f)
            hf = vertex_fiber(h, f)
            overlap = section(hm, list(hf.edges), [{v} for v in range(h.n)]) \
                if hf.edges else frozenset()
            assert overlap == frozenset()


@st.composite
def _fingerprint_cases(draw):
    """A k-uniform hypergraph (k = 2, 3, 4) on the vertices below m - 1,
    inside X = [0, n) with n = m or 1024, a fingerprint that may be empty
    or hold vertices of degree 0, and parameters.  At n = m nearly every
    non-empty fingerprint is expanding (log_n 2 is large); at n = 1024
    and pi = 0.8 most are not, and n^tau, the H^- degree bound, is 1 to 8
    at k = 2 to 4, so the edges H^ takes away decide the container."""
    k = draw(st.sampled_from([2, 3, 4]))
    m = draw(st.integers(k + 2, 10))
    n = draw(st.sampled_from([m, 1024]))
    edges = draw(st.lists(st.sampled_from(list(combinations(range(m - 1), k))),
                          max_size=16, unique=True))
    f = draw(st.frozensets(st.integers(0, m - 1) | st.just(n - 1), max_size=3))
    pi, eps = draw(st.sampled_from([(0.8, 0.1), (0.8, 0.3), (0.6, 0.5), (0.4, 0.1)]))
    return Hypergraph(n, k, tuple(sorted(edges))), f, pi, eps


_PATH3 = Hypergraph(6, 3, ((0, 1, 2), (1, 2, 3), (2, 3, 4)))
# F = {0} gives vertex 1 fiber degree 3 >= 9^0.4: (1, 5, 6) holds no
# fiber pair but is in H^ through the high-degree vertex 1
_FAN3 = Hypergraph(9, 3, ((0, 1, 2), (0, 1, 3), (0, 1, 4), (1, 5, 6), (5, 6, 7)))


@given(case=_fingerprint_cases())
@example(case=(_PATH3, frozenset(), 0.6, 0.5))
@example(case=(_PATH3, frozenset({5}), 0.6, 0.5))
@example(case=(_PATH3, frozenset({0, 5}), 0.6, 0.5))
@example(case=(_FAN3, frozenset({0, 8}), 0.6, 0.5))
@settings(max_examples=150, deadline=None)
def test_h_minus_matches_reference(case):
    # h_minus scans only the edges near the fiber; the reference splits
    # every edge of H
    h, f, pi, eps = case
    ctx = _ctx(h, pi, eps)
    hm, hat = h_minus(ctx, f)
    assert set(ctx.h_minus(f)) == set(hat.edges)
    if not ctx.fingerprint_expanding(f):
        p = ctx.params
        tau = (p.k - 1) * p.delta_p - p.eps_tilde
        expect = {x for x in range(h.n)
                  if cmp_log(len(hm.incidence[x]), tau, h.n) < 0}
        assert ctx.container_of((f,)) == expect


# n = 1024, pi = 0.8, eps = 0.1: F = {0} is non-expanding (|H_F| = 4 <
# 1024^0.5) and its fiber gives vertex 1 degree 4 >= 1024^0.2, so H^ is the
# four edges through (0, 1) and (1, 6, 7) besides; H^- keeps x iff its
# degree there is below 1024^0.1 = 2
_NEAR3 = Hypergraph(1024, 3, ((0, 1, 2), (0, 1, 3), (0, 1, 4), (0, 1, 5), (1, 6, 7),
                              (2, 3, 8), (6, 7, 8), (6, 7, 9), (7, 8, 9)))


def test_k3_container_drops_the_edges_of_h_hat():
    ctx = _ctx(_NEAR3, 0.8, 0.1)
    f = frozenset({0})
    assert not ctx.fingerprint_expanding(f)
    hm, hat = h_minus(ctx, f)
    assert ctx.h_minus(f) == set(hat.edges) == set(_NEAR3.edges[:5])
    p = ctx.params
    tau = (p.k - 1) * p.delta_p - p.eps_tilde
    small = {x for x in range(1024) if cmp_log(len(hm.incidence[x]), tau, 1024) < 0}
    # 0 to 3 (H-degrees 4, 5, 2 and 2) are in only because H^ is taken away
    assert ctx.container_of((f,)) == small == set(range(1024)) - {6, 7, 8, 9}


class TestContainerOf:
    def test_k1_base_case(self):
        h = new_hypergraph(4, 1, [(0,), (1,)])
        ctx = _ctx(h, 0.5, 1.0)
        assert ctx.container_of(()) == {2, 3}

    def test_k1_rejects_nonempty_print(self):
        h = new_hypergraph(4, 1, [(0,)])
        with pytest.raises(PrintDomainError):
            _ctx(h, 0.5, 1.0).container_of((frozenset({1}),))
        with pytest.raises(EngineError, match="h_minus needs k >= 2"):
            _ctx(h, 0.5, 1.0).h_minus({1})

    def test_k2_rejects_empty_print(self):
        h = new_hypergraph(4, 2, [(0, 1)])
        with pytest.raises(PrintDomainError):
            _ctx(h, 0.5, 0.5).container_of(())
        # {2} has an empty fiber, so it is not expanding and ends the print
        with pytest.raises(PrintDomainError, match="non-trivial tail"):
            _ctx(h, 0.5, 0.5).container_of((frozenset({2}), frozenset()))

    @pytest.mark.parametrize("prnt, bad", [((frozenset({99}),), 99),
                                           ((frozenset({-1}),), -1),
                                           ((frozenset({0, 99}),), 99)])
    def test_rejects_vertex_outside_x(self, prnt, bad):
        # the first fingerprint may be non-expanding ({99}, {-1}) or
        # expanding ({0, 99}): either way the vertex is named
        ctx = _ctx(gen_ap(14, 3), 0.55, 0.5)
        with pytest.raises(PrintDomainError, match=rf"vertex {bad} outside \[0, 14\)"):
            ctx.container_of(prnt)

    def test_empty_fingerprint_formula(self):
        h = new_hypergraph(8, 2, [(0, 1), (0, 2), (0, 3), (4, 5)])
        ctx = _ctx(h, 0.5, 0.5)
        c = ctx.container_of((frozenset(),))
        p = ctx.params
        expect = {x for x in range(8)
                  if cmp_log(sum(1 for e in h.edges if x in e),
                             p.delta_p - p.eps_tilde, 8) < 0}
        assert c == expect

    def test_huge_threshold_takes_o_log_steps(self, monkeypatch):
        # n^tau = 2^73.2 for the H^- degree threshold here: found by
        # bisection in core, not one step at a time, as are the expanding
        # cap (2^62.4) and nabla's caps on the 5-uniform fiber, t = 1, ..., 4
        h = Hypergraph(1 << 16, 6, ((0, 1, 2, 3, 4, 5),))
        p = derive_params(6, 0.0, 0.3, h.n)
        taus = [(p.k - 1) * p.delta_p - p.eps_tilde, 1 + (p.k - 2) * p.delta_p - p.eps_p,
                *((p.k - 1 - t) * p.delta for t in range(1, p.k - 1))]
        limit_cmp_log(monkeypatch, sum(2 * (tau * 16 + 2) for tau in taus))
        assert EngineContext(h, p).container_of((frozenset(),)) == set(range(h.n))

    def test_container_matches_brute_force_formula(self):
        # independent evaluation of the removal + threshold formula, for
        # the container and for X \ C as complement_of returns it
        h = gen_random(12, 2, 0.3, 0.6, seed=13)
        ctx = _ctx(h, 0.7, 0.6)
        routes = set()
        for iset in list(enumerate_independent_sets(h))[::13]:
            prnt = ctx.print_of(iset)
            c = ctx.container_of(prnt)
            m = ctx.complement_of(prnt)
            level, tail = ctx, prnt
            while level.fingerprint_expanding(tail[0]) if tail else False:
                level = level.child_for(tail[0])
                tail = tail[1:]
            routes.add(len(tail))
            if not tail:  # k = 1 base of the recursion
                assert c == frozenset(range(h.n)) - level.h.covered_vertices()
                assert m == level.h.covered_vertices()
                continue
            f = tail[0]
            hm, _ = h_minus(level, f)
            p = level.params
            tau = (p.k - 1) * p.delta_p - p.eps_tilde
            expect = {x for x in range(h.n)
                      if cmp_log(sum(1 for e in hm.edges if x in e), tau, h.n) < 0}
            assert c == expect
            assert m == {x for x in range(h.n)
                         if cmp_log(sum(1 for e in hm.edges if x in e), tau, h.n) >= 0}
        assert routes == {0, 1}

    def test_container_independent_of_source_set(self):
        h = gen_random(10, 2, 0.2, 0.6, seed=21)
        ctx = _ctx(h, 0.8, 0.6)
        seen = {}
        for iset in enumerate_independent_sets(h):
            prnt = ctx.print_of(iset)
            c = ctx.container_of(prnt)
            key = tuple(tuple(sorted(f)) for f in prnt)
            assert seen.setdefault(key, c) == c

    def test_print_given_as_lists_or_sets(self):
        # prints of length 1 and 2: the tail reaches the child as given
        h = gen_random(12, 3, 0.3, 0.6, seed=1)
        ctx = _ctx(h, 0.7, 0.6)
        lengths = set()
        for iset in list(enumerate_independent_sets(h))[::7]:
            prnt = ctx.print_of(iset)
            lengths.add(len(prnt))
            c = ctx.container_of(prnt)
            as_lists = [sorted(f) for f in prnt]
            assert ctx.container_of(as_lists) == c
            assert _ctx(h, 0.7, 0.6).container_of(as_lists) == c
            assert _ctx(h, 0.7, 0.6).container_of([set(f) for f in prnt]) == c
        assert lengths == {1, 2}


class TestModes:
    def test_strict_refuses_bad_hypotheses(self):
        h = new_hypergraph(8, 2, [(0, 1)])
        params = derive_params(2, 0.5, 0.1, 8)  # eps < 4 log_8 2
        with pytest.raises(StrictModeError):
            EngineContext(h, params, mode="strict")
        # an unknown mode and a (k, n) mismatch are refused in any mode
        with pytest.raises(ValueError, match="unknown mode 'exact'"):
            EngineContext(h, params, mode="exact")
        for k, n in [(3, 8), (2, 9)]:
            with pytest.raises(ValueError, match=r"disagree on \(k, n\)"):
                EngineContext(h, derive_params(k, 0.5, 0.5, n))

    def test_strict_child_accepts_hypothesis_tie(self):
        # pi = 2 log_1024 2 exactly; the child's pi' = log_1024 2 must keep
        # its hypothesis flag whichever way the subtraction rounds
        h = Hypergraph(1024, 3, tuple((0, 2 * i + 1, 2 * i + 2) for i in range(300)))
        ctx = EngineContext(h, derive_params(3, 0.2, 0.6, h.n), mode="strict")
        assert ctx.print_of({0}) == (frozenset({0}), frozenset())
        assert verify(ctx, [frozenset({0})]).all_conditions_pass()

    def test_permissive_falls_back_to_greedy(self):
        rng = random.Random(31)
        edges = set()
        while len(edges) < 40:
            edges.add(tuple(sorted(rng.sample(range(10), 4))))
        h = Hypergraph(10, 4, tuple(sorted(edges)))
        ctx = _ctx(h, 0.7, 0.5, oracle_cap=10)
        iset = next(s for s in enumerate_independent_sets(h) if len(s) >= 3)
        ctx.print_of(iset)
        assert ctx.heuristic_used


@pytest.mark.parametrize("mode", ["strict", "permissive"])
def test_child_inherits_mode_and_reports_fallback(monkeypatch, mode):
    # eps clears 2k log_n 2, so strict mode accepts the instance; the
    # fallback is forced in the child because no natural instance is known
    h = gen_random(100, 3, 0.4, 0.3, seed=1)
    ctx = EngineContext(h, derive_params(3, 0.6, 0.95, h.n), mode=mode)
    child = ctx.child_for({h.edges[0][0]})
    assert child.mode == mode and not ctx.heuristic_used

    def refuse(*_args, **_kwargs):
        raise OracleSizeError("forced")

    monkeypatch.setattr(engine, "max_bounded_size", refuse)
    f = {child.h.edges[0][0]}
    if mode == "strict":
        with pytest.raises(OracleSizeError):
            child.fingerprint_expanding(f)
        assert not ctx.heuristic_used
    else:
        child.fingerprint_expanding(f)
        assert ctx.heuristic_used


def test_one_oracle_call_per_covered_fingerprint(monkeypatch):
    # 4091 of the 4096 vertices are isolated, so a sampled set is nearly
    # all of X: every candidate that adds an isolated vertex has the fiber
    # of the vertices H covers, already memoized, and F = {} needs none
    calls = []
    real = engine.max_bounded_size
    monkeypatch.setattr(engine, "max_bounded_size",
                        lambda *a, **kw: calls.append(1) or real(*a, **kw))
    h = Hypergraph(4096, 5, ((0, 1, 2, 3, 4),))
    ctx = EngineContext(h, derive_params(5, 0.3, 0.3, h.n))
    text = verify(ctx, sample_independent_sets(h, 1, 0)).to_text()
    assert len(calls) <= 8
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "bf1682c6476e42f3e8221b15cac2405406e5e3b8d50f0e160989e3a2b420336e")


def test_containers_share_the_vertex_pool():
    # the strict k = 2 regime (sigma = 0.9) through both container routes:
    # the k = 1 base (X \ C the covered vertices) for the sampled sets,
    # H^- for the low-degree singletons; every vertex of every X \ C is
    # the pool's own int object
    h = gen_random(16384, 2, 0.25, 0.3, 1)
    ctx = EngineContext(h, derive_params(h.k, 0.75, 0.3, h.n), mode="strict")
    sampled = list(sample_independent_sets(h, 8, 1))
    rep = verify(ctx, [*sampled, *low_degree_singletons(h, 2)])
    assert rep.all_conditions_pass() and rep.diag_nonexpanding_prints == 2
    assert len(rep.print_containers) > 2
    # a sampled set's container misses about n^0.25 vertices, and only
    # those are kept: fewer than n^0.5 a print, where C itself is ~n
    assert all(len(rep.print_containers[ctx.print_of(s)]) < math.isqrt(h.n) for s in sampled)
    pool = vertex_pool(h.n)
    assert all(v is pool[v] for c in rep.print_containers.values() for v in c)
    assert all(v is pool[v] for nb in h.neighbours for v in nb)


@st.composite
def _uncovered_cases(draw):
    """A k-uniform hypergraph (k = 2, 3, 4) on the vertices below m, inside
    X = [0, n) with n = m or 1024, a fingerprint drawn from the vertices
    below m, n - 1 and the two just outside X, a non-empty set of vertices
    that H does not cover, -1 and n among them, and parameters."""
    k = draw(st.sampled_from([2, 3, 4]))
    m = draw(st.integers(k + 1, 9))
    n = draw(st.sampled_from([m, 1024]))
    edges = draw(st.lists(st.sampled_from(list(combinations(range(m), k))),
                          max_size=12, unique=True))
    h = Hypergraph(n, k, tuple(sorted(edges)))
    f = draw(st.frozensets(st.integers(-1, m - 1) | st.just(n - 1) | st.just(n),
                           max_size=4))
    uncovered = [-1, n, *(v for v in range(m) if not h.degrees[v])]
    extra = draw(st.frozensets(st.sampled_from(uncovered), min_size=1, max_size=3))
    pi, eps = draw(st.sampled_from([(0.8, 0.1), (0.8, 0.3), (0.6, 0.5), (0.4, 0.1)]))
    return h, f, extra, pi, eps


@given(case=_uncovered_cases())
@settings(max_examples=200, deadline=None)
def test_predicates_match_definitions_with_uncovered_vertices(case):
    # H_F reads only the vertices of F that H covers: adding uncovered
    # vertices (or vertices outside X) to F keeps |H_F|_delta', so
    # expanding keeps its value and expansive moves only with log|F|
    h, f, extra, pi, eps = case
    ctx = _ctx(h, pi, eps)
    p = ctx.params
    size = max_bounded_size(vertex_fiber(h, f), p.delta_p)
    expanding = cmp_log(size, 1 + (p.k - 2) * p.delta_p - p.eps_p, h.n) >= 0
    for g in (f, f | extra):
        tau = log_size(len(g), h.n) + (p.k - 1) * p.delta_p - p.eps_tilde
        assert ctx.fingerprint_expanding(g) == expanding
        assert ctx.fingerprint_expansive(g) == (cmp_log(size, tau, h.n) >= 0)
