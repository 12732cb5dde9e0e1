"""networkx is imported only when a 2-uniform fiber binds.

Each run below is a fresh interpreter, so that nothing an earlier test
imported is already loaded.  That a k = 2 run loads no networkx is checked
with networkx blocked, by the pinned CLI runs of test_pins.py.
"""
import json
import subprocess
import sys
from pathlib import Path

import networkx
import pytest

from hypercontainers import bounded

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"
GOLDEN = TESTS / "golden"


def _golden_run(name: str) -> tuple[str, bool]:
    """The report of test_golden's case name, from a fresh interpreter,
    and whether networkx was loaded by the end of the run."""
    code = "\n".join([
        "import json, sys",
        f"sys.path[:0] = [{str(SRC)!r}, {str(TESTS)!r}]",
        "import hypercontainers",
        "from test_golden import CASES",
        f"report = CASES[{name!r}]()",
        "loaded = any(m.partition('.')[0] == 'networkx' and mod is not None",
        "             for m, mod in sys.modules.items())",
        "print(json.dumps([report, loaded]))",
    ])
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=False)
    assert proc.returncode == 0, proc.stderr
    report, loaded = json.loads(proc.stdout)
    return report, loaded


def _golden(name: str) -> str:
    return (GOLDEN / f"{name}.txt").read_text(encoding="utf-8")


def test_binding_k3_run_imports_networkx():
    report, loaded = _golden_run("random24_k3_binding")
    assert report == _golden("random24_k3_binding")
    assert loaded


def test_bounded_nx_is_networkx():
    assert bounded.nx is networkx
    with pytest.raises(AttributeError, match="has no attribute 'nxx'"):
        bounded.nxx
