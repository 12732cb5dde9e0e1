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
    new_hypergraph,
    nabla,
    vertex_fiber,
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
from hypercontainers.instances import gen_random
from hypercontainers.verify import enumerate_independent_sets, verify

from conftest import random_hypergraph
from reference import section


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
                        level = level.child_for(f)[1]

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
                    child = ctx2.child_for(f)[1]
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
            if all(not iset.issuperset(set(e) - {v}) for e in h.incidence.get(v, ())):
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
                    if not any(set(e) <= iset | {v} for e in h.incidence.get(v, ())):
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
                    level = level.child_for(f)[1]
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
        g = ctx.child_for(f)[0]
        assert is_homogeneous(g, ctx.params.delta_p, ctx.params.eps_p)
        assert set(g.edges) <= set(vertex_fiber(ctx.h, f).edges)

    def test_witness_deterministic(self):
        ctx, f = self._expanding_setup()
        assert ctx.child_for(f)[0].edges == ctx.child_for(f)[0].edges

    def test_k2_full_fiber_when_large(self):
        # 1-uniform fibers are vacuously bounded: witness is the fiber itself
        ctx, f = self._expanding_setup()
        g = ctx.child_for(f)[0]
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
        hm, hat = ctx.h_minus(frozenset())
        assert hat.edges == ()
        assert hm.edges == h.edges

    def test_k2_hand_example(self):
        h = new_hypergraph(4, 2, [(0, 1), (1, 2), (2, 3)])
        ctx = _ctx(h, 0.5, 0.5)
        hm, hat = ctx.h_minus(frozenset({0}))
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
            hm, hat = ctx.h_minus(f)
            # independent evaluation through section/nabla primitives
            hf = vertex_fiber(h, f)
            expect_hat = set(section(h, list(hf.edges), [{v} for v in range(8)]))
            kmt = list(combinations(range(8), 2))
            for u in nabla(hf, 1, ctx.params.delta):
                expect_hat |= set(section(h, [set(u)], kmt))
            assert set(hat.edges) == expect_hat
            assert set(hm.edges) == set(h.edges) - expect_hat

    def test_disjointness_invariant(self):
        rng = random.Random(23)
        for _ in range(10):
            h = random_hypergraph(rng, n_max=9, k_max=3, m_max=12)
            if h.k < 2 or not h.edges:
                continue
            ctx = _ctx(h, 0.7, 0.5)
            f = frozenset(rng.sample(range(h.n), rng.randint(1, 2)))
            hm, _hat = ctx.h_minus(f)
            hf = vertex_fiber(h, f)
            overlap = section(hm, list(hf.edges), [{v} for v in range(h.n)]) \
                if hf.edges else frozenset()
            assert overlap == frozenset()


class TestContainerOf:
    def test_k1_base_case(self):
        h = new_hypergraph(4, 1, [(0,), (1,)])
        ctx = _ctx(h, 0.5, 1.0)
        assert ctx.container_of(()) == {2, 3}

    def test_k1_rejects_nonempty_print(self):
        h = new_hypergraph(4, 1, [(0,)])
        with pytest.raises(PrintDomainError):
            _ctx(h, 0.5, 1.0).container_of((frozenset({1}),))

    def test_k2_rejects_empty_print(self):
        h = new_hypergraph(4, 2, [(0, 1)])
        with pytest.raises(PrintDomainError):
            _ctx(h, 0.5, 0.5).container_of(())

    def test_empty_fingerprint_formula(self):
        h = new_hypergraph(8, 2, [(0, 1), (0, 2), (0, 3), (4, 5)])
        ctx = _ctx(h, 0.5, 0.5)
        c = ctx.container_of((frozenset(),))
        p = ctx.params
        expect = {x for x in range(8)
                  if cmp_log(sum(1 for e in h.edges if x in e),
                             p.delta_p - p.eps_tilde, 8) < 0}
        assert c == expect

    def test_container_matches_brute_force_formula(self):
        # independent evaluation of the removal + threshold formula
        h = gen_random(12, 2, 0.3, 0.6, seed=13)
        ctx = _ctx(h, 0.7, 0.6)
        for iset in list(enumerate_independent_sets(h))[::13]:
            prnt = ctx.print_of(iset)
            c = ctx.container_of(prnt)
            level, tail = ctx, prnt
            while level.fingerprint_expanding(tail[0]) if tail else False:
                level = level.child_for(tail[0])[1]
                tail = tail[1:]
            if not tail:  # k = 1 base of the recursion
                assert c == frozenset(range(h.n)) - level.h.covered_vertices()
                continue
            f = tail[0]
            hm, _ = level.h_minus(f)
            p = level.params
            expect = {x for x in range(h.n)
                      if cmp_log(sum(1 for e in hm.edges if x in e),
                                 (p.k - 1) * p.delta_p - p.eps_tilde, h.n) < 0}
            assert c == expect

    def test_container_independent_of_source_set(self):
        h = gen_random(10, 2, 0.2, 0.6, seed=21)
        ctx = _ctx(h, 0.8, 0.6)
        seen = {}
        for iset in enumerate_independent_sets(h):
            prnt = ctx.print_of(iset)
            c = ctx.container_of(prnt)
            key = tuple(tuple(sorted(f)) for f in prnt)
            assert seen.setdefault(key, c) == c


class TestModes:
    def test_strict_refuses_bad_hypotheses(self):
        h = new_hypergraph(8, 2, [(0, 1)])
        params = derive_params(2, 0.5, 0.1, 8)  # eps < 4 log_8 2
        with pytest.raises(StrictModeError):
            EngineContext(h, params, mode="strict")

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
    _gf, child = ctx.child_for({h.edges[0][0]})
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
