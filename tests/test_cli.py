from dataclasses import fields

import pytest

from hypercontainers import instances
from hypercontainers.cli import main
from hypercontainers.engine import Params

from conftest import run_limited


def run(*argv):
    return main(list(argv))


class TestGen:
    def test_ap_header(self, tmp_path, capsys):
        out = tmp_path / "ap101.hg"
        assert run("gen", "--ap", "--n", "101", "--k", "3", "-o", str(out)) == 0
        assert out.read_text().splitlines()[0] == "3 101 2500"

    def test_random_deterministic(self, tmp_path, capsys):
        a, b = tmp_path / "a.hg", tmp_path / "b.hg"
        args = ["gen", "--random", "--n", "12", "--k", "2", "--delta", "0.3",
                "--seed", "1"]
        assert run(*args, "-o", str(a)) == 0
        assert run(*args, "-o", str(b)) == 0
        assert a.read_bytes() == b.read_bytes()
        # the output never depended on eps, so gen takes no --eps
        assert run(*args, "--eps", "0.6", "-o", str(a)) == 2
        assert "unrecognized arguments: --eps 0.6" in capsys.readouterr().err

    def test_ap_k_too_small(self, tmp_path, capsys):
        out = tmp_path / "x.hg"
        assert run("gen", "--ap", "--n", "10", "--k", "2", "-o", str(out)) == 2
        assert "k must be >= 3" in capsys.readouterr().err

    def test_random_n_too_small(self, tmp_path, capsys):
        out = tmp_path / "x.hg"
        assert run("gen", "--random", "--n", "1", "--k", "2", "-o", str(out)) == 2
        assert capsys.readouterr().err == "error: need n >= 2, got 1\n"

    def test_random_n_too_large(self, tmp_path, capsys, monkeypatch):
        # each is refused before any candidate is drawn: the last asks for
        # about 10^14 of them, which would exhaust memory
        monkeypatch.setattr(instances, "_kset_pairs", None)
        out = tmp_path / "x.hg"
        for args, err in [
                (("--n", str(2**32), "--k", "2"), "need n < 2^32, got 4294967296"),
                # n^(1 + (k-1) delta) overflows a float
                (("--n", "100000", "--k", "80", "--delta", "1"),
                 "target edge count 100000^80 is above 2^31"),
                # beyond sys.maxsize, and below C(n, k)
                (("--n", "100000", "--k", "60", "--delta", "0.5"),
                 "target edge count 100000^30.5 is above 2^31"),
                (("--n", "100000", "--k", "3", "--delta", "0.9", "--seed", "1"),
                 "target edge count 100000^2.8 is above 2^31")]:
            assert run("gen", "--random", *args, "-o", str(out)) == 2
            assert capsys.readouterr().err == f"error: {err}\n"
            assert not out.exists()

    def test_wide_edges_refused_under_a_memory_limit(self, tmp_path):
        # a codegree count of every level visits m k 2^(k-1) vertex slots:
        # 2^65 for this three-line file, 2^66 for the 100 candidates of the
        # gen run, which is refused before it draws
        path = tmp_path / "k60.hg"
        path.write_text("60 1048576 2\n" + "".join(
            " ".join(map(str, range(a, a + 60))) + "\n" for a in (0, 1)))
        out = tmp_path / "x.hg"
        cli = "from hypercontainers.cli import main\nsys.exit(main(sys.argv[1:]))\n"
        for args, m in [(("verify", "--input", str(path), "--pi", "0.7", "--eps", "0.3"), 2),
                        (("gen", "--random", "--n", "100", "--k", "60", "--delta", "0",
                          "-o", str(out)), 100)]:
            proc = run_limited(cli, *args)
            assert (proc.returncode, proc.stdout) == (2, ""), proc.stderr
            assert proc.stderr == (
                f"error: need m k 2^(k-1) <= 2^26 subset slots, got m = {m}, k = 60\n")
        assert not out.exists()


class TestParams:
    def test_output_lines(self, capsys):
        assert run("params", "--k", "2", "--pi", "0.7", "--eps", "0.2",
                   "--n", "1048576") == 0
        out = capsys.readouterr().out
        assert "delta = 0.3\n" in out
        assert "sigma = 0.6\n" in out
        assert "hyp_eps_ok = true" in out

    def test_every_field_once_in_order(self, capsys):
        assert run("params", "--k", "3", "--pi", "0.6", "--eps", "0.4",
                   "--n", "1000") == 0
        keys = [line.split(" = ")[0] for line in capsys.readouterr().out.splitlines()]
        assert keys == [f.name for f in fields(Params)]

    def test_k1_sigma_is_eps(self, capsys):
        assert run("params", "--k", "1", "--pi", "0.5", "--eps", "0.25",
                   "--n", "64") == 0
        assert "sigma = 0.25\n" in capsys.readouterr().out

    def test_eps_out_of_range(self, capsys):
        assert run("params", "--k", "2", "--pi", "0.5", "--eps", "1.5",
                   "--n", "64") == 2
        capsys.readouterr()
        # sigma = 3^(k-1) eps overflows a float from k = 648
        assert run("params", "--k", "1000", "--pi", "0.5", "--eps", "0.5",
                   "--n", "100") == 2
        assert capsys.readouterr().err == (
            "error: need 3^(k-1) to fit a float, got k = 1000\n")


class TestVerify:
    def _gen(self, tmp_path, *args):
        path = tmp_path / "inst.hg"
        assert run("gen", *args, "-o", str(path)) == 0
        return str(path)

    def test_k1_strict_all_pass(self, tmp_path, capsys):
        path = tmp_path / "k1.hg"
        path.write_text("1 16 3\n0\n4\n9\n")
        code = run("verify", "--input", str(path), "--pi", "0.5", "--eps", "1.0",
                   "--mode", "strict")
        out = capsys.readouterr().out
        assert code == 0
        for cond in ("cond_i", "cond_ii", "cond_iii", "cond_iv"):
            assert f"{cond} = true" in out

    def test_out_of_range_vertex_exit_2(self, tmp_path, capsys):
        path = tmp_path / "bad.hg"
        path.write_text("2 4 1\n0 5\n")
        assert run("verify", "--input", str(path), "--pi", "0.7", "--eps", "0.7") == 2
        assert capsys.readouterr().err == (
            "error: edge (0, 5) has a vertex outside [0, 4)\n")

    def test_k2_permissive_enumeration(self, tmp_path, capsys):
        inst = self._gen(tmp_path, "--random", "--n", "12", "--k", "2",
                         "--delta", "0.3", "--seed", "1")
        code = run("verify", "--input", inst, "--pi", "0.7", "--eps", "0.6")
        out = capsys.readouterr().out
        assert "cond_iii = true" in out
        assert "method = enumeration" in out
        assert code in (0, 1)

    def test_strict_refusal_exit_3(self, tmp_path, capsys):
        inst = self._gen(tmp_path, "--random", "--n", "12", "--k", "2",
                         "--delta", "0.3", "--seed", "1")
        code = run("verify", "--input", inst, "--pi", "0.7", "--eps", "0.1",
                   "--mode", "strict")
        assert code == 3
        assert "refused" in capsys.readouterr().err

    def test_strict_oracle_cap_exit_3(self, tmp_path, capsys):
        # at pi = 1, delta' = log_n 2 caps the vertex degrees of a 3-uniform
        # fiber at 4 and its pair codegrees at 2; the 64-edge fiber refused
        # here is over those caps, so only a search could find its witness
        inst = self._gen(tmp_path, "--random", "--n", "256", "--k", "4",
                         "--delta", "0.25", "--seed", "1")
        code = run("verify", "--input", inst, "--pi", "1.0", "--eps", "1.0",
                   "--mode", "strict", "--samples", "2", "--oracle-cap", "3")
        assert code == 3
        err = capsys.readouterr().err
        assert err == "strict mode refused to run: 64 edges exceeds exact-mode cap 3\n"

    def test_strict_bounded_fibers_beyond_oracle_cap_run(self, tmp_path, capsys):
        # the fibers here exceed the cap but are already delta'-bounded,
        # so each is its own witness and strict mode runs exact
        inst = self._gen(tmp_path, "--random", "--n", "1024", "--k", "4",
                         "--delta", "0.1", "--seed", "1")
        code = run("verify", "--input", inst, "--pi", "0.9", "--eps", "0.9",
                   "--mode", "strict", "--samples", "2", "--oracle-cap", "3")
        out = capsys.readouterr().out
        assert code == 0
        assert "oracle_mode = exact\n" in out

    def test_report_written_to_file(self, tmp_path, capsys):
        inst = self._gen(tmp_path, "--random", "--n", "10", "--k", "2",
                         "--delta", "0.2", "--seed", "4")
        report = tmp_path / "report.txt"
        run("verify", "--input", inst, "--pi", "0.8", "--eps", "0.6",
            "-o", str(report))
        capsys.readouterr()
        assert report.read_text().startswith("n = 10\n")

    def test_missing_input_exit_2(self, tmp_path, capsys):
        assert run("verify", "--input", str(tmp_path / "nope.hg"),
                   "--pi", "0.5", "--eps", "0.5") == 2


    @pytest.mark.parametrize("flag", [("--samples", "0"), ("--samples", "-3"),
                                      ("--enum-cap", "-1"), ("--oracle-cap", "-1")])
    @pytest.mark.parametrize("eps, mode", [("0.6", "permissive"), ("0.1", "strict")])
    def test_invalid_count_flag_exit_2(self, tmp_path, capsys, flag, eps, mode):
        # eps=0.1 fails the hypothesis flags, which strict mode would refuse
        inst = self._gen(tmp_path, "--random", "--n", "12", "--k", "2",
                         "--delta", "0.3", "--seed", "1")
        code = run("verify", "--input", inst, "--pi", "0.7", "--eps", eps,
                   "--mode", mode, *flag)
        assert code == 2
        assert f"argument {flag[0]}: must be >=" in capsys.readouterr().err


class TestDemoAp:
    def test_small_run(self, capsys):
        code = run("demo-ap", "--n", "14", "--k", "3", "--pi", "0.55",
                   "--eps", "0.5")
        out = capsys.readouterr().out
        assert "cond_iii = true" in out
        assert "counting_lhs = 1760" in out
        assert code in (0, 1)

    def test_validation(self, capsys):
        assert run("demo-ap", "--n", "2", "--k", "3", "--pi", "0.5",
                   "--eps", "0.5") == 2
        capsys.readouterr()
        # the one edge of 700 vertices is refused before params are derived
        # (test_eps_out_of_range covers the float guard through params)
        assert run("demo-ap", "--n", "700", "--k", "700", "--pi", "0.5",
                   "--eps", "0.5") == 2
        assert capsys.readouterr().err == (
            "error: need m k 2^(k-1) <= 2^26 subset slots, got m = 1, k = 700\n")

    def test_wide_edges_refused_under_a_memory_limit(self):
        # the 83 edges of 40 vertices are refused before any codegree count
        cli = "from hypercontainers.cli import main\nsys.exit(main(sys.argv[1:]))\n"
        proc = run_limited(cli, "demo-ap", "--n", "100", "--k", "40", "--pi", "0.7",
                           "--eps", "0.3")
        assert (proc.returncode, proc.stdout) == (2, ""), proc.stderr
        assert proc.stderr == "error: need m k 2^(k-1) <= 2^26 subset slots, got m = 83, k = 40\n"

    def test_report_determinism(self, tmp_path, capsys):
        outs = []
        for name in ("r1", "r2"):
            path = tmp_path / name
            run("demo-ap", "--n", "12", "--k", "3", "--pi", "0.55",
                "--eps", "0.5", "--seed", "9", "-o", str(path))
            capsys.readouterr()
            outs.append(path.read_bytes())
        assert outs[0] == outs[1]
