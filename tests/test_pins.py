"""Pinned CLI runs: each row runs its commands in order, each in a fresh
interpreter through `python -m hypercontainers.cli`, and pins the bytes
of the last one's output (its -o file, or stdout if it has none) by a
sha256 or by a golden file under tests/golden.

A row's commands run in one empty directory: gen writes h.hg, which
verify reads (or a row gives h.hg's text itself), and the pinned output
is named by -o.  With nonx, every command runs with networkx blocked
(sys.modules["networkx"] = None, through runpy), so a path that imports
it fails.  Every command but the last must exit 0; the last must exit
with the row's code.
"""
import hashlib
import os
import shlex
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

import pytest

from conftest import SRC

GOLDEN = Path(__file__).parent / "golden"
NONX = ("import sys, runpy; sys.modules['networkx'] = None; "
        "sys.argv = ['hypercontainers'] + sys.argv[1:]; "
        "runpy.run_module('hypercontainers.cli', run_name='__main__')")


class Pin(NamedTuple):
    why: str
    chain: tuple[str, ...]
    expect: str  # a sha256, or a golden file name
    nonx: bool = False
    code: int = 0
    hg: str | None = None  # the text of h.hg, written before the chain runs


GEN_2048 = "gen --random --n 2048 --k 2 --delta 0.25 --seed 1 -o h.hg"
VERIFY_2048 = "verify --input h.hg --pi 0.75 --eps 0.4 --mode strict --samples 20 -o report.txt"
GEN_K2 = "gen --random --n 16384 --k 2 --delta 0.25 --seed 1000 -o h.hg"
GEN_65536 = "gen --random --n 65536 --k 2 --delta 0.25 --seed 1000 -o h.hg"
VERIFY_K2 = "verify --input h.hg --pi 0.75 --eps 0.3 --mode strict --samples 8 --seed 1000 -o report.txt"
GEN_K3 = "gen --random --n 200 --k 3 --delta 0.4 --seed 1000 -o h.hg"
GEN_K3_SPARSE = "gen --random --n 20000 --k 3 --delta 0.15 --seed 1 -o h.hg"
GEN_K4 = "gen --random --n 60 --k 4 --delta 0.3 --seed 1 -o h.hg"

PINS = {
    "ap14": Pin(
        "the k=3 H^- golden end to end through the CLI",
        ("demo-ap --n 14 --k 3 --pi 0.55 --eps 0.5",),
        "ap14_k3_hminus.txt"),
    "ap20": Pin(
        "an enumerated k=3 run above ap14's n",
        ("demo-ap --n 20 --k 3 --pi 0.55 --eps 0.5",),
        "56c577c2fbd8d9a8ddfc132a09298bcb5c37f51528d7991d44c913f8f3b3553a"),
    "b24": Pin(
        "a k=3 run whose 2-uniform fibers bind, with networkx importable: "
        "the CLI's only pinned run that solves a matching (6 solves)",
        ("gen --random --n 24 --k 3 --delta 0.6 --seed 1 -o h.hg",
         "verify --input h.hg --pi 0.7 --eps 0.3 --samples 4 --seed 0 -o report.txt"),
        "random24_k3_binding.txt"),
    "k2-2048": Pin(
        "the k=2 generator through the file format and the CLI",
        (GEN_2048, VERIFY_2048),
        "random2048_k2_strict.txt"),
    "k2-2048-nonx": Pin(
        "the same round trip with networkx blocked: the k=2 path must not import it",
        (GEN_2048, VERIFY_2048),
        "random2048_k2_strict.txt", nonx=True),
    "k2-16384-gen": Pin(
        "the benchmark's k=2 instance through the CLI's gen and writer",
        (GEN_K2,),
        "f03ffa71949ecfcfaf172d5c9c22ed842c019d42203b795849a43edffc30b1fe"),
    "k2-16384": Pin(
        "the benchmark's k=2 report from that file, with networkx blocked and "
        "the seed-1 sha256 that perfbench/reference.json holds",
        (GEN_K2, VERIFY_K2),
        "6f03a836bffba4b3def84763dc0939bc875eff35158aad9abebd088da59478aa", nonx=True),
    "k2-65536-gen": Pin(
        "the strict k=2 regime at 4x that n, through the flat edge array "
        "(gen, writer, reader, verify), with networkx blocked",
        (GEN_65536,),
        "66623c96bfaa13be239cde3b08a8d4b770fb9453d130f2f8df4923c84b9d3491", nonx=True),
    "k2-65536": Pin(
        "the report of that 4x instance, with networkx blocked",
        (GEN_65536, VERIFY_K2),
        "9bee321513009f41b632fc306f2525ec44afc16b6baadeea360d095f26f420fb", nonx=True),
    "k3-200-gen": Pin(
        "the benchmark's k=3 instance, with networkx blocked: gen at k=3 must not import it",
        (GEN_K3,),
        "38f31d3f0f7444184fa394885adcc4f38394d4fbe742c64ab2ed365dc45ec024", nonx=True),
    "k3-200": Pin(
        "a sampled k=3 report from that file, with networkx blocked "
        "(the other pinned k=3 report, ap14, is enumerated)",
        (GEN_K3, "verify --input h.hg --pi 0.6 --eps 0.3 --samples 32 --seed 1000 -o report.txt"),
        "a6da5e67a24b9b144d0b958b04e64bbdbde5cb292413d370f4e3ac67669a6c02", nonx=True),
    "k3-sparse-gen": Pin(
        "a sparse k=3 instance whose recursion levels leave most of I uncovered, "
        "so most candidates share the fiber of an earlier one; networkx blocked",
        (GEN_K3_SPARSE,),
        "ecb361fa7f0fde0aa5821ea449aa5f78bcb6928e3197354f01e50ab00062dbd2", nonx=True),
    "k3-sparse": Pin(
        "the sampled report of that sparse k=3 instance, with networkx blocked",
        (GEN_K3_SPARSE, "verify --input h.hg --pi 0.7 --eps 0.3 --samples 4 --seed 0 -o report.txt"),
        "0db37b470eae5b02e57f991c0da379d2515d89e499411d47dd045e3eab868dd2", nonx=True),
    "k3-1024-gen": Pin(
        "a dense k=3 instance, 4.2M candidates in per-vertex buckets and "
        "1,308,049 edges kept, with networkx blocked",
        ("gen --random --n 1024 --k 3 --delta 0.6 --seed 1 -o h.hg",),
        "a0568028eaafe64d049a3c5b2aa4cff693a3529eef3e4da67f4b0b7de7dde2f4", nonx=True),
    "k4-gen": Pin(
        "a k=4 instance above sample's pool switch (the generic k-set draw), "
        "with networkx blocked: gen at k >= 4 must not import it either",
        (GEN_K4,),
        "0dbef9eaf2737ad586c3e99bbbd0fed636d0f2014e0c048187511d5c90933241", nonx=True),
    "k4": Pin(
        "a sampled k=4 report from that file, with networkx blocked: the codegree "
        "count's column route at levels 2 and 3, and its pair route on the "
        "3-uniform fibers",
        (GEN_K4, "verify --input h.hg --pi 0.7 --eps 0.3 --samples 20 --seed 0 -o report.txt"),
        "8f363fdda51bb90ac3b99233615a689c2eac677e1fa4bb22b902eb3e7686ad61", nonx=True),
    "k5-sparse": Pin(
        "a sparse 5-uniform file, one edge on 2^20 vertices, with networkx blocked: "
        "print_of tests 1,048,575 candidates against its integer caps. "
        "Condition (iv) fails (sigma = 24.3), so the run exits 1",
        ("verify --input h.hg --pi 0.3 --eps 0.3 --samples 1 -o report.txt",),
        "14b444f1b43afde37dbe829a4f522c9afb28a8b14605d5f60ac1e64bbff7ec6b",
        nonx=True, code=1, hg="5 1048576 1\n0 1 2 3 4\n"),
    "k646-empty": Pin(
        "a wide empty file, 646-uniform on 16 vertices, with networkx blocked: "
        "every fiber is empty, so H^ is empty with no codegree cap taken. "
        "Condition (iv) fails, so the run exits 1",
        ("verify --input h.hg --pi 0.3 --eps 1 --samples 1 -o report.txt",),
        "decd95d787fd861f2e5a9a1326359b50472927f9b11b20a57d4f959ca7f82275",
        nonx=True, code=1, hg="646 16 0\n"),
}


def _cli(argv: list[str], nonx: bool, cwd: Path) -> subprocess.CompletedProcess:
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": str(SRC) + (os.pathsep + path if path else "")}
    head = ["-c", NONX] if nonx else ["-m", "hypercontainers.cli"]
    return subprocess.run([sys.executable, *head, *argv], cwd=cwd, env=env,
                          capture_output=True, timeout=600, check=False)


@pytest.mark.parametrize("name", PINS)
def test_pinned_run(tmp_path, name):
    pin = PINS[name]
    if pin.hg is not None:
        (tmp_path / "h.hg").write_text(pin.hg, encoding="ascii", newline="\n")
    for i, command in enumerate(pin.chain, 1):
        argv = shlex.split(command)
        proc = _cli(argv, pin.nonx, tmp_path)
        code = pin.code if i == len(pin.chain) else 0
        assert proc.returncode == code, (command, proc.stderr.decode())
    out = (tmp_path / argv[argv.index("-o") + 1]).read_bytes() if "-o" in argv else proc.stdout
    if pin.expect.endswith(".txt"):
        assert out == (GOLDEN / pin.expect).read_bytes(), pin.why
    else:
        assert hashlib.sha256(out).hexdigest() == pin.expect, pin.why
