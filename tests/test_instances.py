import hashlib
import math
import random
import subprocess
import sys
import tracemalloc
from itertools import islice
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypercontainers.core import (
    HypergraphError,
    edge_tuples,
    is_bounded,
    is_homogeneous,
    ldeg,
    new_hypergraph,
)
from hypercontainers import instances
from hypercontainers.instances import (
    _BLOCK_WORDS,
    FormatError,
    _bulk_vertices,
    _code,
    _kset_pairs,
    _line_fault,
    _pool_max,
    _word_blocks,
    gen_ap,
    gen_random,
    read_edge_list,
    write_edge_list,
)
from conftest import SRC, hypergraphs, run_limited
from reference import gen_random_edges, sample_ksets


def format_edges(lines, k, n):
    """The edges of lines by the file format's definition, or None if some
    line is not an edge line: k tokens, each token t with
    t == str(int(t)), the values strictly ascending, all in [0, n)."""
    edges = []
    for ln in lines:
        tokens = ln.split(" ")
        try:
            e = tuple(map(int, tokens))
        except ValueError:
            return None
        if (len(e) != k or list(map(str, e)) != tokens
                or any(a >= b for a, b in zip(e, e[1:])) or not all(0 <= v < n for v in e)):
            return None
        edges.append(e)
    return edges


def brute_ap_count(n, k):
    count = 0
    for d in range(1, n):
        for a in range(n):
            if a + (k - 1) * d < n:
                count += 1
    return count


class TestGenAp:
    def test_n5_k3(self):
        h = gen_ap(5, 3)
        assert set(h.edges) == {(0, 1, 2), (1, 2, 3), (2, 3, 4), (0, 2, 4)}

    def test_n3_single(self):
        assert gen_ap(3, 3).edges == ((0, 1, 2),)

    def test_n101_count(self):
        assert len(gen_ap(101, 3).edges) == 2500

    def test_count_matches_brute_force(self):
        for n in (3, 7, 14, 33, 60, 101, 200):
            assert len(gen_ap(n, 3).edges) == brute_ap_count(n, 3)
        for n in (4, 9, 25):
            assert len(gen_ap(n, 4).edges) == brute_ap_count(n, 4)

    def test_k_too_small(self):
        with pytest.raises(HypergraphError):
            gen_ap(10, 2)

    def test_n_smaller_than_k(self):
        with pytest.raises(HypergraphError):
            gen_ap(2, 3)

    def test_wide_edges_refused(self):
        # 83 edges of 40 vertices, 83 40 2^39 subset slots
        with pytest.raises(HypergraphError, match="got m = 83, k = 40"):
            gen_ap(100, 40)

    # at k >= 27 a single edge is past the subset-slot guard, so the
    # refusal names the edge count the guard was given
    @pytest.mark.parametrize("k", [27, 28, 31])
    def test_refusal_names_the_edge_count(self, k):
        for n in range(k, 4 * k):
            with pytest.raises(HypergraphError) as info:
                gen_ap(n, k)
            assert f"got m = {brute_ap_count(n, k)}, k = {k}" in str(info.value)

    def test_huge_n_refused_at_once(self):
        # the edge count is not summed over the 5 * 10^11 steps first
        code = ("import sys\n"
                f"sys.path.insert(0, {str(SRC)!r})\n"
                "from hypercontainers.instances import gen_ap\n"
                "gen_ap(10 ** 12, 3)\n")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              timeout=60, check=False)
        assert proc.returncode == 1
        assert proc.stderr.rstrip().endswith(
            "HypergraphError: need m k 2^(k-1) <= 2^26 subset slots, "
            "got m = 249999999999500000000000, k = 3")


class TestGenRandom:
    def test_wide_candidates_refused_before_the_draw(self):
        proc = run_limited("\n".join([
            "from hypercontainers.core import HypergraphError",
            "try:",
            "    instances.gen_random(100, 60, 0.0, None, 1)",
            "except HypergraphError as exc:",
            "    print(exc)"]))
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout == "need m k 2^(k-1) <= 2^26 subset slots, got m = 100, k = 60\n"

    def test_bounded_at_target(self):
        h = gen_random(12, 2, 0.3, 0.6, seed=1)
        assert is_bounded(h, 0.3)
        assert ldeg(h) <= 0.3 + 1e-9

    def test_delta_zero_partial_matching(self):
        h = gen_random(10, 2, 0.0, 0.5, seed=2)
        degs = {}
        for e in h.edges:
            for v in e:
                degs[v] = degs.get(v, 0) + 1
        assert all(d <= 1 for d in degs.values())

    def test_seed_determinism(self):
        a = gen_random(12, 3, 0.4, 0.6, seed=7)
        b = gen_random(12, 3, 0.4, 0.6, seed=7)
        assert a.edges == b.edges

    def test_homogeneity_measurement_is_truthful(self):
        h = gen_random(12, 2, 0.3, 0.6, seed=1)
        # definition unrolled by hand: bounded plus the edge-count bound
        expect = is_bounded(h, 0.3) and len(h.edges) >= 12 ** (1 + 0.3 - 0.6) * (1 - 1e-9)
        assert is_homogeneous(h, 0.3, 0.6) == expect

    def test_target_exceeds_binomial(self):
        with pytest.raises(HypergraphError):
            gen_random(4, 2, 1.0, 0.5, seed=0)  # 4^2 = 16 > C(4,2) = 6

    def test_subset_slots_refused_before_the_binomial(self):
        # comb(2^20, 2^19) alone takes seconds
        with mock.patch.object(instances, "comb", side_effect=AssertionError("comb called")):
            with pytest.raises(HypergraphError) as info:
                gen_random(2**20, 2**19, 0.0, None, 1)
        assert str(info.value) == (
            "need m k 2^(k-1) <= 2^26 subset slots, got m = 1048576, k = 524288")

    # random.sample keeps a pool for n <= 21 (k <= 5) and n <= 85 (k = 6..8)
    # and a set of taken values above; up to the switch _kset_pairs calls
    # sample itself, so it leaves rng where sample does
    @pytest.mark.parametrize("n", [*range(2, 31), 84, 85])
    def test_ksets_draw_as_sample(self, n):
        for k in range(1, min(n, 8) + 1):
            if n > _pool_max(k):
                continue
            for seed in range(3):
                ours, theirs = random.Random(seed), random.Random(seed)
                got = list(islice(_kset_pairs(ours, n, k), 50))
                want = [divmod(_code(e, n), n ** (k - 1))
                        for e in islice(sample_ksets(theirs, n, k), 50)]
                assert got == want, (n, k, seed)
                assert ours.getstate() == theirs.getstate(), (n, k, seed)

    def test_pool_max_is_samples_switch(self):
        assert [_pool_max(k) for k in range(1, 10)] == [21] * 5 + [85] * 4

    # just above the switch for each k, at and beside powers of two, and
    # at the largest bit lengths: n.bit_length() from 5 to 32
    @pytest.mark.parametrize("n", [*range(22, 34), 86, 87, 200, 2**15 - 1, 2**15,
                                   2**15 + 1, 2**31, 2**31 + 1, 2**32 - 1])
    def test_kset_codes_draw_as_sample(self, n):
        for k in range(1, 9):
            if n <= _pool_max(k):
                continue
            draws = 2000 if k == 2 else 500
            for seed in range(3):
                got = list(islice(_kset_pairs(random.Random(seed), n, k), draws))
                want = [divmod(_code(e, n), n ** (k - 1)) for e in
                        islice(sample_ksets(random.Random(seed), n, k), draws)]
                assert got == want, (n, k, seed)

    # the k=2 branch of _kset_pairs as pairs: n.bit_length() from 5 to 32,
    # at and beside powers of two
    @pytest.mark.parametrize("n", [22, 31, 32, 33, 2**15, 2**15 + 1, 2**31 + 1,
                                   2**32 - 1])
    def test_pair_codes_draw_as_sample(self, n):
        for seed in range(2):
            got = list(islice(_kset_pairs(random.Random(seed), n, 2), 2000))
            want = [divmod(_code(e, n), n) for e in
                    islice(sample_ksets(random.Random(seed), n, 2), 2000)]
            assert got == want, (n, seed)

    def test_word_block_is_getrandbits_32(self):
        for seed in range(3):
            ours, theirs = random.Random(seed), random.Random(seed)
            for block in islice(_word_blocks(ours, 0), 2):
                assert block.itemsize == 4
                assert list(block) == [theirs.getrandbits(32)
                                       for _ in range(_BLOCK_WORDS)], seed
            assert ours.getstate() == theirs.getstate(), seed

    # the draw shifts by 32 - n.bit_length(), 0 to 27 above the pool switch
    @pytest.mark.parametrize("shift", range(28))
    def test_shifted_word_block(self, shift):
        ours, theirs = random.Random(shift), random.Random(shift)
        for block in islice(_word_blocks(ours, shift), 2):
            assert list(block) == [theirs.getrandbits(32) >> shift
                                   for _ in range(_BLOCK_WORDS)]
        assert ours.getstate() == theirs.getstate()

    @pytest.mark.parametrize("k", [2, 3])
    def test_n_at_least_2_to_32(self, k):
        with pytest.raises(HypergraphError) as info:
            gen_random(2**32, k, 0.25, 0.3, seed=0)
        assert str(info.value) == "need n < 2^32, got 4294967296"

    # both sides of sample's pool switch at 21 and of powers of two,
    # wherever the target ceil(n^(1+delta)) is at most C(n, 2)
    @pytest.mark.parametrize("n, delta", [
        (n, delta) for n in [*range(2, 31), 63, 64, 65, 200, 1024, 1025, 4096]
        for delta in (0.0, 0.25, 0.5)
        if math.ceil(n ** (1 + delta)) <= math.comb(n, 2)])
    def test_k2_route_matches_definition(self, n, delta):
        for seed in range(3):
            got = gen_random(n, 2, delta, 0.5, seed).edges
            assert got == gen_random_edges(n, 2, delta, seed), (n, delta, seed)

    # both sides of the pool switch at 21 and of powers of two, wherever
    # the target ceil(n^(1+2 delta)) is at most C(n, 3); and both sides of
    # n^2 = 2^31, where _buckets' store turns from array("i") to list
    @pytest.mark.parametrize("n, delta", [
        *((n, delta) for n in [21, 22, 31, 32, 33, 63, 64, 65, 200, 256, 257]
          for delta in (0.0, 0.25, 0.4)
          if math.ceil(n ** (1 + 2 * delta)) <= math.comb(n, 3)),
        (46340, 0.0), (46341, 0.0)])
    def test_k3_route_matches_definition(self, n, delta):
        for seed in range(3):
            got = gen_random(n, 3, delta, 0.5, seed).edges
            assert got == gen_random_edges(n, 3, delta, seed), (n, delta, seed)

    # k = 1 and k >= 4 decode the drawn codes for greedy_bounded_sub; 215
    # and 216 at k = 5 sit on both sides of n^4 = 2^31, the store switch
    @pytest.mark.parametrize("n, k", [(21, 1), (22, 1), (21, 4), (22, 4),
                                      (40, 5), (215, 5), (216, 5), (86, 6)])
    def test_other_routes_match_definition(self, n, k):
        for delta in (0.0, 0.2):
            for seed in range(2):
                got = gen_random(n, k, delta, 0.5, seed).edges
                assert got == gen_random_edges(n, k, delta, seed), (n, k, delta, seed)

    # random.sample's pool branch, at k = 4 and k = 2; the CLI runs of
    # test_pins pin the instances above the switch
    @pytest.mark.parametrize("args, edges, sha256", [
        ((12, 4, 0.3, 0.6, 2), 23,
         "074b00dd64e1b123718c31d282d17949b0c099e21097369467a1cf7677ebef07"),
        ((12, 2, 0.3, 0.6, 1), 10,
         "47a67ab78addd1d3e2bbf09b1bf08199477812d26f2457d319817299f1028438"),
    ])
    def test_instance_bytes_pinned(self, tmp_path, args, edges, sha256):
        h = gen_random(*args)
        path = tmp_path / "h.hg"
        write_edge_list(h, path)
        assert len(h.edges) == edges
        assert hashlib.sha256(path.read_bytes()).hexdigest() == sha256


class TestFileFormat:
    def test_round_trip(self, tmp_path):
        h = gen_random(12, 3, 0.4, 0.6, seed=5)
        path = tmp_path / "h.hg"
        write_edge_list(h, path)
        assert read_edge_list(path) == h

    def test_byte_stable(self, tmp_path):
        h = gen_ap(10, 3)
        p1, p2 = tmp_path / "a.hg", tmp_path / "b.hg"
        write_edge_list(h, p1)
        write_edge_list(h, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_comments_before_header(self, tmp_path):
        path = tmp_path / "c.hg"
        path.write_text("# generated\n# fixture\n2 4 1\n0 1\n")
        assert read_edge_list(path).edges == ((0, 1),)

    # only the body's characters are checked, so a non-ASCII comment keeps
    # the flat k = 2 read
    def test_non_ascii_comment_keeps_flat_read(self, tmp_path):
        path = tmp_path / "c.hg"
        path.write_text("# généré\n2 4 2\n0 1\n1 2\n", encoding="utf-8")
        h = read_edge_list(path)
        assert h._flat is not None
        assert h.edges == ((0, 1), (1, 2))

    @pytest.mark.parametrize("text", ["2 4 2\n0 1\n1 2", "2 4 2\n\n0 1\n1 2\n"],
                             ids=["no-final-lf", "opening-lf"])
    def test_body_ends(self, tmp_path, text):
        path = tmp_path / "e.hg"
        path.write_text(text)
        h = read_edge_list(path)
        assert h._flat is not None
        assert h.edges == ((0, 1), (1, 2))

    @pytest.mark.parametrize("text", ["2 4 0", "2 4 0\n"])
    def test_no_edges(self, tmp_path, text):
        path = tmp_path / "e.hg"
        path.write_text(text)
        assert read_edge_list(path) == new_hypergraph(4, 2, [])

    def test_no_edges_at_a_large_k(self, tmp_path):
        # no edges, but a line template of k bytes and a zip of k
        # iterators peaked at 22.9 MiB traced here (229 MiB at k = 10^7)
        path = tmp_path / "e.hg"
        path.write_text("1000000 4 0")
        tracemalloc.start()
        try:
            h = read_edge_list(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (h.n, h.k, len(h)) == (4, 1000000, 0)
        assert peak < 1 << 20

    @pytest.mark.parametrize("text", ["2 4 2\n\n0 1\n\n\n\n1 2\n\n", "2 4 2\n\n\n1 2\n0 1",
                                      "# c\n2 4 2\n0 1\n\n\n1 2\n\n\n"])
    def test_empty_lines_skipped(self, tmp_path, text):
        path = tmp_path / "e.hg"
        path.write_text(text)
        assert read_edge_list(path).edges == ((0, 1), (1, 2))

    def test_count_ignores_empty_lines(self, tmp_path):
        path = tmp_path / "bad.hg"
        path.write_text("2 4 3\n\n0 1\n\n1 2\n")
        with pytest.raises(FormatError) as info:
            read_edge_list(path)
        assert str(info.value) == "header promises 3 edges, found 2 lines"

    def test_unsorted_edge_line(self, tmp_path):
        path = tmp_path / "bad.hg"
        path.write_text("2 4 1\n1 0\n")
        with pytest.raises(FormatError, match="unsorted"):
            read_edge_list(path)

    def test_count_mismatch(self, tmp_path):
        path = tmp_path / "bad.hg"
        path.write_text("2 4 2\n0 1\n1 2\n2 3\n")
        with pytest.raises(FormatError, match="promises"):
            read_edge_list(path)

    def test_malformed_header(self, tmp_path):
        path = tmp_path / "bad.hg"
        # "--" passes the character check but not int(); comment lines
        # alone, with or without a final LF, and an empty file leave no header
        for text, message in [("2 4\n0 1\n", "malformed header: '2 4'"),
                              ("2 -- 3\n", "malformed header: '2 -- 3'"),
                              ("# c\n# d", "missing header line"),
                              ("# c\n# d\n", "missing header line"),
                              ("", "missing header line")]:
            path.write_text(text)
            with pytest.raises(FormatError) as info:
                read_edge_list(path)
            assert str(info.value) == message

    def test_duplicate_edge(self, tmp_path):
        path = tmp_path / "bad.hg"
        path.write_text("2 4 2\n0 1\n0 1\n")
        with pytest.raises(FormatError, match="duplicate"):
            read_edge_list(path)

    @pytest.mark.parametrize("body", ["0 1\n0 1\n1 2\n", "1 2\n1 2\n0 1\n0 1\n"])
    def test_least_duplicate_named(self, tmp_path, body):
        path = tmp_path / "bad.hg"
        m = body.count("\n")
        path.write_text(f"2 4 {m}\n{body}")
        with pytest.raises(FormatError) as info:
            read_edge_list(path)
        assert str(info.value) == "duplicate edge: '0 1'"

    # LF alone ends a line and only an empty line is skipped, so each of
    # these is one malformed line or a count mismatch, not ((0, 1), (1, 2))
    @pytest.mark.parametrize("text", [
        "2 4 2\r0 1\r1 2\r",
        "2 4 2\r\n0 1\r\n1 2\r\n",
        "2 4 2\n0 1\u20281 2\n",
        "2 4 2\n0 1\x0c1 2\n",
        "2 4 2\n0 1\x0b1 2\n",
        "2 4 2\n0 1\n \n1 2\n",
    ], ids=["cr", "crlf", "u2028", "formfeed", "vtab", "whitespace-line"])
    def test_only_lf_separates_lines(self, tmp_path, text):
        path = tmp_path / "bad.hg"
        path.write_bytes(text.encode("utf-8"))
        with pytest.raises(FormatError):
            read_edge_list(path)

    def test_arity_mismatch(self, tmp_path):
        path = tmp_path / "bad.hg"
        path.write_text("3 4 1\n0 1\n")
        with pytest.raises(FormatError):
            read_edge_list(path)

    @pytest.mark.parametrize("line", ["0 +1", "0 01", "0 \u0661", "0 1_0", "0 1\t",
                                      "-0 1"])
    def test_noncanonical_vertex_token(self, tmp_path, line):
        path = tmp_path / "bad.hg"
        path.write_text(f"2 12 2\n0 2\n{line}\n", encoding="utf-8")
        with pytest.raises(FormatError, match="non-canonical") as info:
            read_edge_list(path)
        assert repr(line) in str(info.value)

    @pytest.mark.parametrize("header", ["+2 4 1", "2 04 1", "2 4 1\t", "-0 4 1"])
    def test_noncanonical_header(self, tmp_path, header):
        path = tmp_path / "bad.hg"
        path.write_text(f"{header}\n0 1\n", encoding="utf-8")
        with pytest.raises(FormatError, match="header"):
            read_edge_list(path)

    @pytest.mark.parametrize("text, message", [
        ("2 4 1\n0 5\n", "edge (0, 5) has a vertex outside [0, 4)"),
        ("2 4 1\n-1 2\n", "edge (-1, 2) has a vertex outside [0, 4)"),
        ("2 1 0\n", "need n >= 2, got 1"),
        ("0 4 0\n", "need k >= 1, got 0"),
    ])
    def test_invalid_hypergraph(self, tmp_path, text, message):
        path = tmp_path / "bad.hg"
        path.write_text(text)
        with pytest.raises(HypergraphError) as got:
            read_edge_list(path)
        header, *lines = text.splitlines()
        k, n, _m = map(int, header.split())
        with pytest.raises(HypergraphError) as want:
            new_hypergraph(n, k, [tuple(map(int, ln.split())) for ln in lines])
        assert str(got.value) == str(want.value) == message

    def test_negative_edge_count(self, tmp_path):
        path = tmp_path / "bad.hg"
        path.write_text("2 4 -1\n")
        with pytest.raises(FormatError) as info:
            read_edge_list(path)
        assert str(info.value) == "malformed header: '2 4 -1'"

    # the per-line rules run line by line (malformed, arity, order, range);
    # non-canonical tokens are checked after them and duplicates last
    @pytest.mark.parametrize("body, error, message", [
        ("1 0\n0 +1\n", FormatError,
         "unsorted or repeated vertices in edge line: '1 0'"),
        ("0 +1\n1 0\n", FormatError,
         "unsorted or repeated vertices in edge line: '1 0'"),
        ("0 +1\n0 5\n", HypergraphError, "edge (0, 5) has a vertex outside [0, 4)"),
        ("0 1\n0 1\n0 1 2\n", FormatError,
         "edge line has 3 vertices, expected 2: '0 1 2'"),
        ("0 1\n0 1 \n", FormatError, "malformed edge line: '0 1 '"),
        ("0 01\n0 1\n0 1\n", FormatError,
         "non-canonical vertex token in edge line: '0 01'"),
    ], ids=["unsorted-then-noncanonical", "noncanonical-then-unsorted",
            "noncanonical-then-range", "arity-after-duplicate", "trailing-space",
            "noncanonical-then-duplicate"])
    def test_error_precedence(self, tmp_path, body, error, message):
        path = tmp_path / "bad.hg"
        path.write_text(f"2 4 {body.count(chr(10))}\n{body}")
        with pytest.raises(error) as info:
            read_edge_list(path)
        assert type(info.value) is error
        assert str(info.value) == message

    # mostly lines of k values from -1 to n, sorted or not, some spelled in
    # a way int() takes but str() does not, among lines of any arity with
    # tokens that int() takes or refuses, and that JSON takes or refuses:
    # -0, exponents, fractions, literals, and digits past int()'s limit
    @given(st.data())
    @settings(max_examples=400, deadline=None)
    def test_bulk_check_agrees_with_line_rules(self, data):
        k, n = data.draw(st.integers(1, 3)), data.draw(st.integers(2, 12))
        values = st.lists(st.integers(-1, n), min_size=k, max_size=k)
        spelling = st.sampled_from(["{}"] * 3 + ["-{}", "0{}", "+{}", "{}\t", " {}", "{}\r"])
        spelt = st.tuples(values.map(sorted), st.lists(spelling, min_size=k, max_size=k))
        token = st.one_of(st.integers(-1, n).map(str),
                          st.sampled_from(["-0", "1_0", "", "\u0663", "00", "-", "--1", "1-2",
                                           "-01", "1e3", "1.0", "NaN", "Infinity",
                                           "1" + "0" * 4999]))
        line = st.one_of(
            spelt.map(lambda vs: " ".join(f.format(v) for v, f in zip(*vs))),
            spelt.map(lambda vs: " ".join(map(str, vs[0]))),
            values.map(lambda e: " ".join(map(str, e))),
            st.lists(token, min_size=1, max_size=4).map(" ".join))
        lines = data.draw(st.lists(line.filter(bool), max_size=5))
        # slices of one line each, of a few lines, and of the whole body
        chunk = data.draw(st.sampled_from([1, 4, instances._CHUNK_BYTES]))
        with mock.patch.object(instances, "_CHUNK_BYTES", chunk):
            flat = _bulk_vertices("\n".join(lines), k, n)
        assert (None if flat is None else list(edge_tuples(flat, k))) == format_edges(lines, k, n)
        # one parser: the line walk names a fault for each body refused, and
        # only for those
        fault = _line_fault(lines, k, n)
        if flat is None:
            assert isinstance(fault, (FormatError, HypergraphError))
        else:
            assert fault is None

    # tokens that JSON and str() could read differently, each refused by
    # both checks, in a slice that is valid without it
    @pytest.mark.parametrize("token", ["-0", "00", "-", "--1", "1-2", "-01", "1e3", "1.0",
                                       "NaN", "Infinity", "1" + "0" * 4999],
                             ids=lambda t: t if len(t) < 9 else f"{len(t)}-digits")
    def test_bulk_check_refuses_what_json_could_take(self, token):
        lines = ["0 1", f"0 {token}", "1 2"]
        assert type(_line_fault(lines, 2, 12)) is FormatError
        assert _bulk_vertices("\n".join(lines), 2, 12) is None

    # a file of many slices, with each kind of bad line in the last one
    @pytest.mark.parametrize("bad, error, message", [
        ("9 8", FormatError, "unsorted or repeated vertices in edge line: '9 8'"),
        ("8 +9", FormatError, "non-canonical vertex token in edge line: '8 +9'"),
        ("8 99999", HypergraphError, "edge (8, 99999) has a vertex outside [0, 99999)"),
        ("8", FormatError, "edge line has 1 vertices, expected 2: '8'"),
    ])
    def test_bad_line_past_the_first_slice(self, tmp_path, bad, error, message):
        good = [f"{a} {b}" for a in range(400) for b in range(90000, 90100)]
        assert len("\n".join(good)) > 4 * instances._CHUNK_BYTES
        path = tmp_path / "bad.hg"
        path.write_text(f"2 99999 {len(good) + 1}\n" + "\n".join(good + [bad]) + "\n")
        with pytest.raises(error) as info:
            read_edge_list(path)
        assert type(info.value) is error
        assert str(info.value) == message
        path.write_text(f"2 99999 {len(good)}\n" + "\n".join(good) + "\n")
        assert len(read_edge_list(path)) == len(good)

    @given(hypergraphs(k_max=4))
    @settings(max_examples=60, deadline=None)
    def test_every_written_file_reads_back(self, tmp_path_factory, h):
        path = tmp_path_factory.mktemp("rt") / "h.hg"
        write_edge_list(h, path)
        assert read_edge_list(path) == h

    def test_round_trip_large_n(self, tmp_path):
        h = gen_random(2**15 + 3, 2, 0.1, 0.5, seed=4)
        path = tmp_path / "h.hg"
        write_edge_list(h, path)
        assert read_edge_list(path) == h
        assert max(e[-1] for e in h.edges) >= 2**15

    def test_k2_instance_is_one_flat_array(self, tmp_path):
        # the benchmark's k = 2 instance, 82,571 edges: as edge tuples it
        # retained 5.5 MB, as one array("i") of its vertices 0.66 MB.  Its
        # 185,364 candidates peaked at 10.25 MB as a sorted list of int
        # codes, and at 2.4 MB in per-vertex buckets.  The read parses a
        # slice at a time and peaked at 2.8 MiB; its 165,142 vertices as
        # ints at once would take about 6 MB
        path = tmp_path / "h.hg"
        tracemalloc.start()
        try:
            h = gen_random(16384, 2, 0.25, None, 1000)
            generated, drawn = tracemalloc.get_traced_memory()
            write_edge_list(h, path)
            del h
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            h = read_edge_list(path)
            read, read_peak = (t - before for t in tracemalloc.get_traced_memory())
        finally:
            tracemalloc.stop()
        assert len(h) == 82571
        assert generated < 2 << 20 and read < 2 << 20
        assert drawn < 5 << 20
        assert read_peak < 4 << 20

    def test_k3_draw_is_bucketed(self):
        # 20,764 kept of 65,536 candidates: as a sorted list of int codes
        # the draw peaked at 6.2 MB traced, in per-vertex buckets at 3.7 MB
        tracemalloc.start()
        try:
            h = gen_random(256, 3, 0.5, None, 1)
            drawn = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(h) == 20764
        assert drawn < 5 << 20

    @pytest.mark.parametrize("n", [2**31, 2**31 + 1, 2**70])
    def test_vertices_past_32_bits(self, tmp_path, n):
        # array("i") holds the vertices while n <= 2^31; above it a list does
        path = tmp_path / "wide.hg"
        path.write_text(f"2 {n} 2\n0 5\n1 {n - 1}\n")
        h = read_edge_list(path)
        assert h == new_hypergraph(n, 2, [(0, 5), (1, n - 1)])
        assert h.edges == ((0, 5), (1, n - 1))

    def test_line_order_is_free(self, tmp_path):
        lines = ["2 4", "0 3", "1 3", "0 1"]
        path = tmp_path / "shuffled.hg"
        path.write_text("2 5 4\n" + "\n".join(lines) + "\n")
        edges = [tuple(map(int, ln.split())) for ln in lines]
        assert read_edge_list(path) == new_hypergraph(5, 2, edges)
