import importlib.util
import sys
from pathlib import Path

import pytest

from hypercontainers import cli

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.fixture
def sweep():
    spec = importlib.util.spec_from_file_location("random_sweep", SCRIPTS / "random_sweep.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run(sweep, monkeypatch, *argv):
    monkeypatch.setattr(sys, "argv", ["random_sweep.py", *argv])
    return sweep.run()


def test_sweep_passes_exit_0(sweep, monkeypatch, capsys):
    # the default k=2 sweep, and a sampled k=3 one
    for argv in [("--trials", "3"),
                 ("--k", "3", "--n", "100", "--delta", "0.4", "--eps", "0.3",
                  "--trials", "3", "--samples", "20")]:
        assert _run(sweep, monkeypatch, *argv) == 0, argv
        assert "cond_iv = 3/3" in capsys.readouterr().out


@pytest.mark.parametrize("flag,value", [("--trials", "0"), ("--samples", "0"),
                                        ("--samples", "-3"), ("--enum-cap", "-1")])
def test_invalid_count_flag_exit_2(sweep, monkeypatch, capsys, flag, value):
    with pytest.raises(SystemExit) as exc:
        _run(sweep, monkeypatch, "--trials", "2", flag, value)
    assert exc.value.code == 2
    assert "must be >=" in capsys.readouterr().err


def test_failed_condition_exit_1(sweep, monkeypatch, capsys):
    # one failed condition on one trial is enough
    verify, reports = cli.verify, []

    def fail_first_cond_iii(ctx, sets, **kw):
        reports.append(verify(ctx, sets, **kw))
        reports[0].cond_iii = False
        return reports[-1]

    monkeypatch.setattr(cli, "verify", fail_first_cond_iii)
    assert _run(sweep, monkeypatch, "--trials", "2") == 1
    assert "cond_iii = 1/2" in capsys.readouterr().out


@pytest.mark.parametrize("flag,value", [("--delta", "2"), ("--eps", "-1"),
                                        ("--eps", "1.5")])
def test_out_of_unit_interval_exit_2(sweep, monkeypatch, capsys, flag, value):
    with pytest.raises(SystemExit) as exc:
        _run(sweep, monkeypatch, "--trials", "2", flag, value)
    assert exc.value.code == 2
    assert "must be in [0, 1]" in capsys.readouterr().err


@pytest.mark.parametrize("flag,value,message", [
    ("--delta", "1", "exceeds binomial(12,2)"),
    ("--n", "1", "need n >= 2, got 1"),
])
def test_impossible_instance_exit_2(sweep, monkeypatch, capsys, flag, value, message):
    assert _run(sweep, monkeypatch, "--trials", "2", flag, value) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and message in captured.err
    assert captured.out == ""
