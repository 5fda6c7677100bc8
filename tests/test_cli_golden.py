"""Golden CLI transcript: stdout and exit code of fixed argvs, plain and --json.

`cli_golden.json` holds what the CLI printed for each argv below.  A change
that only restructures code must leave every entry byte-identical.  Two
outputs carry measurements rather than results: `bench` ends in a time in
nanoseconds, which is cut off, and `diag-check` prints a float residual,
whose stdout is not kept (its exit code is).

Regenerate the file, after a deliberate output change, with

    PYTHONPATH=src python tests/test_cli_golden.py --record
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import pathlib
import sys

import pytest

from arithmat.cli import run_command

_REPO = pathlib.Path(__file__).resolve().parent.parent
_GOLDEN = pathlib.Path(__file__).with_name("cli_golden.json")
_BIG = str(10**400 + 1)

_ARGVS = [
    # the README's command-line examples
    ["disc", "--form", "1,1,0,-2,-1"],
    ["matrix", "--pair", "2:4,-2,-3,1,1", "--symbolic"],
    ["matrix", "--pair", "1:1,1,0,-2,-1", "--coords", "1,2,0,-1"],
    ["mul", "--pair", "1:1,1,-1", "--a", "0,1", "--b", "1,1"],
    ["mul", "--via", "fft", "--pair", "2:4,-2,-3,1,1", "--a", "1,2,3,4", "--b", "2,0,-1,5"],
    ["inv", "--pair", "1:1,1,-1", "--a", "0,1"],
    ["norm", "--pair", "1:1,1,-1", "--a", "0,1"],
    ["trace", "--pair", "1:1,1,-1", "--a", "0,1"],
    ["charpoly", "--pair", "2:4,-2,-3,1,1", "--a", "0,1,0,0"],
    ["search", "--disc", "513", "--degree", "4", "--height", "4", "--max-a0", "2"],
    ["verify-tables", "--file", "src/arithmat/data/table1_quartic.txt"],
    ["syzygy", "--quartic", "4,-2,-3,1,1"],
    ["diag-check", "--pair", "2:4,-2,-3,1,1", "--coords", "2,-1,3,4"],
    ["bench", "--size", "8", "--algo", "ww"],
    # the CI pins
    ["search", "--disc", "-23", "--degree", "3", "--height", "2", "--max-a0", "1"],
    ["search", "--disc", "-4511", "--degree", "5", "--height", "2", "--max-a0", "1"],
    ["inv", "--pair", "2:4,-2,-3,1,1", "--a", "1/2,1/3,0,0"],
    ["mul", "--pair", "2:4,-2,-3,1,1", "--a", "1/2,1/3,0,0", "--b", "1,-1,2,1/5"],
    ["charpoly", "--pair", "2:4,-2,-3,1,1", "--a", "1/2,1/3,0,0"],
    ["matrix", "--pair", "2:4,-2,-3,1,1", "--coords", "1/2,1/3,0,0"],
    ["norm", "--pair", f"1:1,0,0,1,{_BIG}", "--a", "1,1,0,0"],
    ["norm", "--pair", f"1:1,0,1,{_BIG}", "--a", "1,1,0"],
    # symbolic matrices, both syzygies, the other table and element commands
    ["matrix", "--pair", "1:1,1,0,-2,-1", "--symbolic"],
    ["matrix", "--pair", "1:1,0,0,0,0,1,-1", "--symbolic"],
    ["matrix", "--pair", "2:4,2,0,0,0,1,1", "--symbolic"],
    ["matrix", "--pair", "3:9,-6,-1,-1", "--symbolic"],
    ["matrix", "--pair", "2:4,2,-1,2,-1,3,2,3,2", "--symbolic"],
    ["matrix", "--pair", "2:4,-2,0,0,0,0,0,0,0,0,0,2,6", "--symbolic"],
    ["syzygy", "--cubic", "1,2,-3,5"],
    ["syzygy", "--quartic", "1,0,-1,2,3"],
    ["verify-tables", "--file", "src/arithmat/data/table2_quintic.txt"],
    ["add", "--pair", "1:1,1,-1", "--a", "1,2", "--b", "3,-1"],
    ["trace", "--pair", "2:4,-2,-3,1,1", "--a", "1/2,1/3,0,0"],
    ["norm", "--pair", "2:4,-2,-3,1,1", "--a", "1/2,1/3,0,0"],
    ["mul", "--via", "fft", "--pair", "1:1,1,0,-2,-1", "--a", "1,2,0,-1", "--b", "0,3,-1,2"],
    ["bench", "--size", "5", "--algo", "recursive"],
    ["bench", "--size", "4", "--algo", "schoolbook"],
    ["disc", "--form", "1,0,-1"],
    # domain errors: exit 2 and nothing on stdout
    ["inv", "--pair", "1:1,1,-1", "--a", "0,0"],
    ["mul", "--pair", "1:1,1,-1", "--a", "0,1", "--b", "1,1,1"],
    ["matrix", "--pair", "2:2,0,1", "--coords", "1,0"],
    ["matrix", "--pair", "1:1,0,-1", "--coords", "1,0"],
    ["matrix", "--pair", "0:1,0,1", "--coords", "1,0"],
]


def _run(argv: list[str]) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = run_command(argv)
    stdout = out.getvalue()
    command = next(a for a in argv if not a.startswith("--"))
    if command == "diag-check":
        stdout = None
    elif command == "bench" and code == 0:
        if argv[0] == "--json":
            record = json.loads(stdout)
            del record["nanoseconds"]
            stdout = json.dumps(record, sort_keys=True)
        else:
            stdout = stdout.rsplit(",", 1)[0]
    return {"argv": argv, "code": code, "stdout": stdout}


_CASES = [prefix + argv for argv in _ARGVS for prefix in ([], ["--json"])]


@pytest.fixture(scope="module")
def golden() -> dict:
    return {tuple(e["argv"]): e for e in json.loads(_GOLDEN.read_text(encoding="utf-8"))}


def test_golden_covers_every_argv(golden):
    assert list(golden) == list(map(tuple, _CASES))


@pytest.mark.parametrize("argv", _CASES, ids=lambda a: " ".join(a)[:60])
def test_cli_output_matches_golden(argv, golden, monkeypatch):
    if "diag-check" in argv:
        pytest.importorskip("numpy")
    monkeypatch.chdir(_REPO)
    assert _run(argv) == golden[tuple(argv)]


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(__doc__)
    os.chdir(_REPO)
    _GOLDEN.write_text(json.dumps(list(map(_run, _CASES)), indent=1) + "\n", encoding="utf-8")
