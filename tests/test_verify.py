import hashlib
import math
import random
import re
import tracemalloc
from array import array
from functools import cache
from itertools import chain
from pathlib import Path

import pytest

from conftest import low_degree_singletons
from hypercontainers.core import Hypergraph, log_size, new_hypergraph, pow_ceil, pow_floor
from hypercontainers.engine import (
    EngineContext,
    EngineError,
    NotIndependentError,
    derive_params,
    print_union,
)
from hypercontainers.instances import gen_random, read_edge_list, write_edge_list
from hypercontainers.verify import (
    EnumerationCapError,
    _shuffled,
    enumerate_independent_sets,
    sample_independent_set,
    sample_independent_sets,
    verify,
)


class TestEnumeration:
    def test_single_edge(self):
        h = new_hypergraph(2, 2, [(0, 1)])
        got = set(enumerate_independent_sets(h))
        assert got == {frozenset(), frozenset({0}), frozenset({1})}

    def test_no_edges(self):
        h = new_hypergraph(3, 2, [])
        assert len(list(enumerate_independent_sets(h))) == 8

    def test_k1_disjoint_from_union(self):
        h = new_hypergraph(2, 1, [(0,)])
        assert set(enumerate_independent_sets(h)) == {frozenset(), frozenset({1})}

    def test_leaves_a_vertex_out_before_taking_it(self):
        h = new_hypergraph(3, 2, [(0, 1)])
        assert list(enumerate_independent_sets(h)) == [
            frozenset(), {2}, {1}, {1, 2}, {0}, {0, 2}]

    def test_past_the_recursion_limit(self):
        h = new_hypergraph(1100, 1, [(v,) for v in range(1100)])
        assert list(enumerate_independent_sets(h, cap=1100)) == [frozenset()]

    def test_cap(self):
        h = new_hypergraph(25, 2, [])
        with pytest.raises(EnumerationCapError):
            list(enumerate_independent_sets(h))

    def test_matches_bitmask_brute_force(self):
        rng = random.Random(2)
        for _ in range(10):
            n = rng.randint(2, 9)
            k = rng.randint(1, min(3, n))
            edges = set()
            for _ in range(rng.randint(0, 10)):
                edges.add(tuple(sorted(rng.sample(range(n), k))))
            h = new_hypergraph(n, k, edges)
            got = set(enumerate_independent_sets(h))
            expect = set()
            for mask in range(1 << n):
                s = frozenset(v for v in range(n) if mask >> v & 1)
                if not any(s.issuperset(e) for e in h.edges):
                    expect.add(s)
            assert got == expect


class TestSampling:
    def test_empty_hypergraph_gives_full_set(self):
        h = new_hypergraph(6, 2, [])
        assert sample_independent_set(h, 0) == frozenset(range(6))

    def test_complete_graph_gives_singleton(self):
        h = new_hypergraph(4, 2, [(a, b) for a in range(4) for b in range(a + 1, 4)])
        assert len(sample_independent_set(h, 5)) == 1

    def test_seed_determinism(self):
        h = gen_random(30, 2, 0.3, 0.6, seed=8)
        assert sample_independent_set(h, 42) == sample_independent_set(h, 42)
        a = list(sample_independent_sets(h, 10, seed=3))
        b = list(sample_independent_sets(h, 10, seed=3))
        assert a == b

    def test_samples_are_independent(self):
        h = gen_random(30, 2, 0.3, 0.6, seed=8)
        for s in sample_independent_sets(h, 20, seed=1):
            assert not any(s.issuperset(e) for e in h.edges)

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_draw_rule_at_every_uniformity(self, k):
        # restated: along the seeded shuffle of range(n), take v unless some
        # edge through v has all its other vertices taken.  The odd draws of
        # sample_independent_sets subsample a set in its iteration order, so
        # the order must match too: that of an add-only set filled in draw order
        def reference(h, seed):
            through = {}
            for e in h.edges:
                for w in e:
                    through.setdefault(w, []).append(e)
            order = list(range(h.n))
            random.Random(seed).shuffle(order)
            taken = set()
            for v in order:
                if not any(all(w in taken for w in e if w != v)
                           for e in through.get(v, ())):
                    taken.add(v)
            return frozenset(taken)

        rng = random.Random(k)
        rejected = 0
        for n_max, m_max in [(12, 30)] * 40 + [(600, 1500)] * 4:
            n = rng.randint(k + 1, n_max)
            m = rng.randint(0, min(m_max, math.comb(n, k)))
            edges = set()
            while len(edges) < m:
                edges.add(tuple(sorted(rng.sample(range(n), k))))
            h = new_hypergraph(n, k, edges)
            for seed in range(3):
                got = sample_independent_set(h, seed)
                assert list(got) == list(reference(h, seed))
                rejected += len(got) < h.n
        assert rejected >= 60
        if k == 2:
            # criterion 8's instance: high degrees, thousands of vertices
            h = gen_random(4096, 2, 0.25, 0.6, 3)
            for seed in range(3):
                assert list(sample_independent_set(h, seed)) == list(reference(h, seed))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_shuffled_replays_random_shuffle(self, seed):
        # same permutation and the same generator state after it, across
        # every bit-count boundary below 41 and at the benchmark's n
        for n in [*range(1, 41), 1000, 16384]:
            want, got = random.Random(seed), random.Random(seed)
            order = list(range(n))
            want.shuffle(order)
            assert _shuffled(n, got) == order
            assert got.getstate() == want.getstate()

    def test_benchmark_draws_pinned(self):
        # the 8 sets of k2-strict-n16384's default run, in iteration order:
        # a sampler change that alters any draw changes this hash, even where
        # the reports' aggregates do not move
        h = gen_random(16384, 2, 0.25, 0.3, 1000)
        digest = hashlib.sha256()
        for s in sample_independent_sets(h, 8, 1000):
            digest.update((",".join(map(str, s)) + "\n").encode())
        assert digest.hexdigest() == (
            "949adcd15bd8664a3f23466ebb27a942ea6ca03db21d782fe89cf096546f61d2")

    def test_negative_count_raises_at_the_call(self):
        h = gen_random(30, 2, 0.3, 0.6, seed=8)
        with pytest.raises(ValueError):
            sample_independent_sets(h, -1, seed=0)
        assert list(sample_independent_sets(h, 0, seed=0)) == []


def _run(h, pi, eps, **kw):
    ctx = EngineContext(h, derive_params(h.k, pi, eps, h.n), **kw)
    sets = list(enumerate_independent_sets(h))
    return ctx, verify(ctx, sets, enumerated=True)


class TestVerify:
    def test_k1_full_pipeline(self):
        h = new_hypergraph(6, 1, [(0,), (2,)])
        ctx, rep = _run(h, 0.5, 1.0)
        assert rep.all_conditions_pass()
        assert rep.containers_distinct == 1
        # the single container complements the covered vertices exactly
        assert ctx.container_of(()) == frozenset(range(6)) - {0, 2}

    def test_k2_random_instance(self):
        h = gen_random(12, 2, 0.3, 0.6, seed=1)
        _ctx, rep = _run(h, 0.7, 0.6)
        assert rep.cond_i and rep.cond_ii and rep.cond_iii
        assert rep.oracle_mode == "exact"
        assert rep.counting_lhs <= rep.counting_rhs

    def test_rejects_dependent_set(self):
        h = new_hypergraph(4, 2, [(0, 1)])
        ctx = EngineContext(h, derive_params(2, 0.5, 0.5, 4))
        with pytest.raises(NotIndependentError, match=r"\(0, 1\)"):
            verify(ctx, [frozenset({0, 1})])

    def test_rejects_dependent_set_naming_its_least_edge(self):
        h = new_hypergraph(6, 2, [(0, 1), (1, 2), (2, 3), (3, 4)])
        ctx = EngineContext(h, derive_params(2, 0.5, 0.5, 6))
        with pytest.raises(NotIndependentError,
                           match=re.escape("supplied set {1,2,3,4} contains edge (1, 2)")):
            verify(ctx, [frozenset({4, 3, 2, 1})])

    def test_k2_recheck_accepts_exactly_the_independent_sets(self):
        # the neighbour test decides and the neighbour index names the
        # least edge inside, as the definition does, without building the
        # edge tuples of an array-built hypergraph
        rng = random.Random(5)
        for _ in range(40):
            n = rng.randint(2, 12)
            pairs = [tuple(sorted(rng.sample(range(n), 2))) for _ in range(rng.randint(0, 14))]
            h = new_hypergraph(n, 2, pairs)
            flat = Hypergraph(n, 2, array("i", chain.from_iterable(h.edges)))
            ctx = EngineContext(flat, derive_params(2, 0.7, 0.6, n))
            sets = [frozenset(v for v in range(n) if rng.random() < p)
                    for p in (0.1, 0.3, 0.5, 0.8)]
            if h.edges:
                # the only edge inside is the last in canonical order
                last = h.edges[-1]
                sets.append(frozenset(last) | {v for v in range(n)
                                               if v not in last and not h.degrees[v]})
            for s in sets:
                inside = [e for e in h.edges if set(e) <= s]
                if not inside:
                    assert verify(ctx, [s]).samples == 1
                    continue
                with pytest.raises(NotIndependentError) as err:
                    verify(ctx, [s])
                assert str(err.value) == (f"supplied set {{{','.join(map(str, sorted(s)))}}} "
                                          f"contains edge {inside[0]}")
            assert "edges" not in flat.__dict__

    @pytest.mark.parametrize("k", [1, 3, 4])
    def test_recheck_names_the_least_edge_inside_at_every_k(self, k):
        # the edge named is the definition's least edge inside the set,
        # whether the hypergraph holds tuples or one flat edge array
        rng = random.Random(k)
        inside_counts = set()
        for _ in range(12):
            n = rng.randint(k + 1, 10)
            h = new_hypergraph(n, k, [rng.sample(range(n), k)
                                      for _ in range(rng.randint(1, 3 * n))])
            flat = Hypergraph(n, k, array("i", chain.from_iterable(h.edges)))
            e1, e2 = rng.choice(h.edges), rng.choice(h.edges)
            sets = [frozenset(), frozenset(e1), frozenset(e1 + e2), frozenset(range(n))]
            sets += [frozenset(v for v in range(n) if rng.random() < p) for p in (0.2, 0.5)]
            for g in (h, flat):
                ctx = EngineContext(g, derive_params(k, 0.7, 0.6, n))
                for s in sets:
                    inside = [e for e in h.edges if set(e) <= s]
                    inside_counts.add(min(len(inside), 2))
                    if not inside:
                        assert verify(ctx, [s]).samples == 1
                        continue
                    with pytest.raises(NotIndependentError) as err:
                        verify(ctx, [s])
                    assert str(err.value) == (f"supplied set {{{','.join(map(str, sorted(s)))}}} "
                                              f"contains edge {min(inside)}")
        assert inside_counts == {0, 1, 2}

    def test_k2_run_never_builds_the_incidence(self, tmp_path):
        # at k = 2 the neighbour index serves the draw, the re-check, the
        # degrees and H^-; building incidence beside it would cost its
        # memory a second time.  Nor are the edge tuples built, from gen
        # through the file to the report: the flat edge array serves
        generated = gen_random(4096, 2, 0.25, 0.3, seed=3)
        path = tmp_path / "h.hg"
        write_edge_list(generated, path)
        h = read_edge_list(path)
        ctx = EngineContext(h, derive_params(2, 0.75, 0.3, h.n))
        singles = [{v} for v, d in enumerate(h.degrees) if d == 1][:4]
        rep = verify(ctx, [*sample_independent_sets(h, 4, seed=3), *singles])
        rep.to_text()
        assert rep.samples == 4 + len(singles) and rep.diag_nonexpanding_prints > 0
        assert "neighbours" in h.__dict__
        assert "incidence" not in h.__dict__
        assert "edges" not in h.__dict__ and "edges" not in generated.__dict__

    def test_quarter_bound_tie_holds(self):
        # |X \ C| = 4 = 1024^0.4 / 4 exactly, where a float quarter of
        # n^(1-eps) reads 4.000000000000001
        h = new_hypergraph(1024, 2, [(0, 1), (2, 3)])
        ctx = EngineContext(h, derive_params(2, 0.2, 0.6, 1024), mode="strict")
        rep = verify(ctx, [frozenset()])
        assert rep.diag_nonexpanding_prints == 1
        assert rep.diag_min_complement == 4
        assert rep.diag_quarter_ok == "true"

    def test_jobs_accepts_only_one(self):
        h = gen_random(11, 2, 0.3, 0.6, seed=6)
        ctx = EngineContext(h, derive_params(2, 0.7, 0.6, 11))
        sets = list(enumerate_independent_sets(h))
        with pytest.raises(ValueError, match="jobs must be 1, got 4"):
            verify(ctx, sets, enumerated=True, jobs=4)
        r1 = verify(ctx, sets, enumerated=True, jobs=1)
        assert r1.to_text() == verify(ctx, sets, enumerated=True).to_text()

    @pytest.mark.parametrize("bad, text", [
        (frozenset({5, 12}), "supplied set {5,12} has a vertex outside [0, 10)"),
        (frozenset({-1, 3}), "supplied set {-1,3} has a vertex outside [0, 10)"),
        (frozenset({1.0, 4}), "supplied set has a vertex that is not an integer: "
                              "'float' object cannot be interpreted as an integer"),
    ], ids=["above_n", "negative", "float"])
    def test_rejects_vertex_outside_x(self, bad, text):
        h = new_hypergraph(10, 2, [(0, 1), (2, 3)])
        ctx = EngineContext(h, derive_params(2, 0.7, 0.6, 10))
        with pytest.raises(ValueError, match=re.escape(text)):
            verify(ctx, [frozenset({4}), bad])

    def test_sets_consumed_once_in_order(self):
        h = new_hypergraph(6, 2, [(0, 1), (2, 3)])
        ctx = EngineContext(h, derive_params(2, 0.7, 0.6, 6))
        pulled = []

        def stream():
            for s in [{4}, {0, 2}, {0, 1, 5}, {5}]:
                pulled.append(s)
                yield frozenset(s)

        with pytest.raises(NotIndependentError,
                           match=re.escape("supplied set {0,1,5} contains edge (0, 1)")):
            verify(ctx, stream())
        assert pulled == [{4}, {0, 2}, {0, 1, 5}]

    def test_sets_given_as_lists_tuples_or_sets(self):
        h = new_hypergraph(6, 2, [(0, 1), (2, 3)])
        sets = [[0, 3], (4, 5, 2), {1}, []]
        ctx = EngineContext(h, derive_params(2, 0.7, 0.6, 6))
        want = verify(ctx, list(map(frozenset, sets))).to_text()
        ctx = EngineContext(h, derive_params(2, 0.7, 0.6, 6))
        assert verify(ctx, sets).to_text() == want
        with pytest.raises(NotIndependentError,
                           match=re.escape("supplied set {0,1} contains edge (0, 1)")):
            verify(ctx, [[1, 0]])

    def test_memory_bounded_by_distinct_prints(self):
        # 9216 independent sets, 5 distinct prints: a run that kept the
        # sets or their (set, print, container) triples would peak at
        # several MB
        h = new_hypergraph(14, 2, [(0, 1), (2, 3)])
        ctx = EngineContext(h, derive_params(2, 0.7, 0.6, 14))
        tracemalloc.start()
        try:
            rep = verify(ctx, enumerate_independent_sets(h), enumerated=True)
            _size, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (rep.samples, len(rep.print_containers)) == (9216, 5)
        assert peak < 1 << 20


class _StubContext:
    """Engine stand-in returning C = X, so X \\ C = {}, for every print."""

    def __init__(self, h, params):
        self.h = h
        self.params = params
        self.mode = "permissive"
        self.heuristic_used = False

    def print_of(self, iset):
        return (frozenset(),)

    def complement_of(self, prnt):
        return frozenset()

    def fingerprint_expanding(self, f):
        return False


def test_checker_catches_stub_engine():
    h = new_hypergraph(8, 2, [(0, 1), (2, 3)])
    params = derive_params(2, 0.7, 0.1, 8)  # sigma < 1
    assert params.sigma < 1
    rep = verify(_StubContext(h, params), list(enumerate_independent_sets(h)),
                 enumerated=True)
    assert rep.cond_iii          # C = X makes the sandwich trivially true
    assert not rep.cond_iv       # but the complement is empty
    assert rep.cond_iv_counterexample


class _FailingContext(_StubContext):
    """Stub whose print_of or complement_of raises for sets containing 0."""

    def __init__(self, h, params, failing):
        super().__init__(h, params)
        self.failing = failing

    def print_of(self, iset):
        if self.failing == "print_of" and 0 in iset:
            raise EngineError("stub print_of failed")
        return (frozenset(iset),)

    def complement_of(self, prnt):
        if self.failing == "complement_of" and 0 in prnt[0]:
            raise EngineError("stub complement_of failed")
        return frozenset(range(self.h.n))


@pytest.mark.parametrize("failing, cond", [("print_of", "cond_i"),
                                           ("complement_of", "cond_ii")])
def test_engine_error_fails_condition(failing, cond):
    h = new_hypergraph(8, 2, [(0, 1), (2, 3)])
    # pi = 1, so that the stub's print (I,) has a valid shape
    ctx = _FailingContext(h, derive_params(2, 1.0, 0.1, 8), failing)
    sets = list(enumerate_independent_sets(h))
    rep = verify(ctx, sets, enumerated=True)
    assert rep.samples == len(sets)
    assert not getattr(rep, cond)
    assert rep.cond_iii and [rep.cond_i, rep.cond_ii].count(False) == 1


GOLDEN = Path(__file__).parent / "golden"
_FLAGS = ("cond_i", "cond_ii", "cond_iii", "cond_iv", "diag_quarter_ok")


def _flipped(rep, golden: str) -> set[str]:
    """The condition and diagnostic flags on which rep differs from the
    golden report of the unperturbed run."""
    def flags(text):
        lines = dict(line.split(" = ", 1) for line in text.splitlines())
        return {k: lines[k] for k in _FLAGS}
    want = flags((GOLDEN / f"{golden}.txt").read_text(encoding="utf-8"))
    got = flags(rep.to_text())
    return {k for k in _FLAGS if got[k] != want[k]}


def _braces(s) -> str:
    return "{" + ",".join(map(str, sorted(s))) + "}"


class _Mutant:
    """The real engine, except that X \\ C for the print target is
    replaced by mutate(X \\ C)."""

    def __init__(self, ctx, target, mutate):
        self.ctx, self.target, self.mutate = ctx, target, mutate

    def __getattr__(self, name):
        return getattr(self.ctx, name)

    def complement_of(self, prnt):
        m = self.ctx.complement_of(prnt)
        return self.mutate(m) if prnt == self.target else m


def test_mutant_dropping_a_vertex_of_i_fails_iii():
    # the random2048_k2_strict run with one vertex of I \ union(P) taken
    # out of the container of I's print
    h = gen_random(2048, 2, 0.25, 0.4, 1)
    ctx = EngineContext(h, derive_params(2, 0.75, 0.4, h.n), mode="strict")
    sets = list(sample_independent_sets(h, 20, 0))
    target = ctx.print_of(sets[0])
    v = min(sets[0] - print_union(target))
    rep = verify(_Mutant(ctx, target, lambda m: m | {v}), sets)
    assert _flipped(rep, "random2048_k2_strict") == {"cond_iii"}
    assert rep.cond_iii_counterexample == (
        f"I={_braces(sets[0])} P=" + "|".join(map(_braces, target))
        + f" C={_braces(ctx.container_of(target) - {v})}")


def test_mutant_container_outside_x_fails_ii():
    # the random2048_k2_strict run with a vertex outside X added to X \ C
    # for one print
    h = gen_random(2048, 2, 0.25, 0.4, 1)
    ctx = EngineContext(h, derive_params(2, 0.75, 0.4, h.n), mode="strict")
    sets = list(sample_independent_sets(h, 20, 0))
    rep = verify(_Mutant(ctx, ctx.print_of(sets[0]), lambda m: m | {h.n}), sets)
    assert _flipped(rep, "random2048_k2_strict") == {"cond_ii"}


class _WholeSetPrint(_StubContext):
    """Stub whose print of I is cut from I itself and whose container is
    empty (X \\ C = X), with every fingerprint called expanding (so no H^- diagnostic
    applies): the sandwich and the complement bound hold trivially, and
    only the shape of the print is wrong."""

    def __init__(self, h, params, cut):
        super().__init__(h, params)
        self.cut = cut

    def print_of(self, iset):
        return self.cut(iset)

    def complement_of(self, prnt):
        return frozenset(range(self.h.n))

    def fingerprint_expanding(self, f):
        return True


@pytest.mark.parametrize("cut", [
    lambda i: (frozenset(i),),                        # a fingerprint above n^pi
    lambda i: tuple(frozenset({v}) for v in sorted(i)),  # more than k - 1 of them
], ids=["oversized", "too-long"])
def test_stub_printing_the_whole_set_fails_i(cut):
    # the random2048_k2_strict sets, whose sizes reach 653 > 2048^0.75 ~ 304
    h = gen_random(2048, 2, 0.25, 0.4, 1)
    sets = list(sample_independent_sets(h, 20, 0))
    assert max(map(len, sets)) > 2048 ** 0.75 and min(map(len, sets)) > 1
    rep = verify(_WholeSetPrint(h, derive_params(2, 0.75, 0.4, h.n), cut), sets)
    assert _flipped(rep, "random2048_k2_strict") == {"cond_i"}


@pytest.mark.parametrize("size, ok", [(4, True), (5, False)])
def test_condition_i_at_a_tie(size, ok):
    # log_16 4 = 0.5 exactly, so n^pi is the integer 4 at pi = 0.5: a
    # fingerprint of 4 vertices has at most n^pi of them, one of 5 has more
    assert pow_floor(16, 0.5) == pow_ceil(16, 0.5) == 4
    h = Hypergraph(16, 2, ())
    whole = _WholeSetPrint(h, derive_params(2, 0.5, 0.1, 16), lambda i: (frozenset(i),))
    rep = verify(whole, [range(size)])
    assert (rep.cond_i, rep.cond_ii, rep.cond_iii, rep.cond_iv) == (ok, True, True, True)


class _ComplementPrint(_StubContext):
    """Stub that prints I as (I,) with the container X \\ I."""

    def print_of(self, iset):
        return (iset,)

    def complement_of(self, prnt):
        return prnt[0]


def test_cond_iv_names_the_least_container():
    # four containers met with complements {1}, {2}, {5,6,7} and {5}, each
    # under n^(1-sigma) ~ 5.9: (iv) names the least by sorted(C), which is
    # neither the least complement ({1}) nor the greatest ({5})
    h = Hypergraph(8, 2, ())
    params = derive_params(2, 0.5, 0.05, 8)
    assert pow_ceil(8, 1 - params.sigma) == 6
    rep = verify(_ComplementPrint(h, params), [{1}, {2}, {5, 6, 7}, {5}])
    assert (rep.cond_iii, rep.cond_iv, rep.containers_distinct) == (True, False, 4)
    assert rep.cond_iv_counterexample == (
        f"C={{0,1,2,3,4}} log_complement={log_size(3, 8):.12g}")


@cache
def _hminus_k2_instance():
    return gen_random(16384, 2, 0.25, 0.3, 1)


@pytest.mark.parametrize("left, flips", [(100, {"diag_quarter_ok"}),
                                         (2, {"diag_quarter_ok", "cond_iv"})])
def test_mutant_growing_a_container(left, flips):
    # the random16384_k2_hminus run with one H^- container grown until
    # |X \ C| = left: below n^(1-eps)/4 ~ 220 the quarter diagnostic
    # fails, and below n^(1-sigma) ~ 2.6 condition (iv) too
    h = _hminus_k2_instance()
    ctx = EngineContext(h, derive_params(2, 0.75, 0.3, h.n), mode="strict")
    sets = low_degree_singletons(h)
    target = ctx.print_of(sets[0])
    rep = verify(_Mutant(ctx, target, lambda m: frozenset(sorted(m)[-left:])), sets)
    assert _flipped(rep, "random16384_k2_hminus") == flips
    assert rep.diag_min_complement == left
    assert bool(rep.cond_iv_counterexample) == ("cond_iv" in flips)


def test_verify_builds_neither_x_nor_a_container():
    # the k2-strict-n16384 benchmark's instance and sets: each X \ C has
    # about n^0.25 vertices, where X, or a container C of about n vertices
    # kept a print, would cost about a MB apiece
    h = _hminus_k2_instance()
    ctx = EngineContext(h, derive_params(2, 0.75, 0.3, h.n), mode="strict")
    sets = list(sample_independent_sets(h, 8, 1))
    h.neighbours  # the draw's index, built before tracing starts
    tracemalloc.start()
    try:
        rep = verify(ctx, sets)
        _size, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rep.all_conditions_pass() and rep.samples == 8
    assert peak < 2 << 20


class TestCountingBound:
    def test_k1_exact_equality(self):
        h = new_hypergraph(6, 1, [(0,), (1,)])
        _ctx, rep = _run(h, 0.5, 1.0)
        assert rep.counting_lhs == 2 ** 4
        assert rep.counting_rhs == 2 ** 4

    def test_edgeless_lower_bound(self):
        h = new_hypergraph(3, 2, [])
        _ctx, rep = _run(h, 0.7, 0.5)
        assert rep.counting_lhs == 8
        assert rep.counting_rhs >= 8

    def test_random_instance(self):
        h = gen_random(12, 2, 0.2, 0.6, seed=3)
        _ctx, rep = _run(h, 0.8, 0.6)
        assert rep.counting_lhs <= rep.counting_rhs


class TestReportFormat:
    def test_fixed_key_order_and_stability(self):
        h = gen_random(10, 2, 0.3, 0.6, seed=5)
        texts = []
        for _ in range(2):
            _ctx, rep = _run(h, 0.7, 0.6)
            texts.append(rep.to_text())
        assert texts[0] == texts[1]
        keys = [line.split(" = ")[0] for line in texts[0].strip().splitlines()]
        assert keys[0] == "n" and "cond_iii" in keys and keys == sorted(
            keys, key=keys.index)

    def test_values_parseable(self):
        h = new_hypergraph(6, 1, [(0,)])
        _ctx, rep = _run(h, 0.5, 1.0)
        parsed = dict(line.split(" = ", 1) for line in rep.to_text().strip().splitlines())
        assert parsed["k"] == "1"
        assert parsed["cond_i"] == "true"
        assert parsed["method"] == "enumeration"
