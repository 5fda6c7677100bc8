"""Golden CLI transcript: stdout and exit code of fixed argvs, plain and --json.

`cli_golden.json` holds what the CLI printed for each argv below.  A change
that only restructures code must leave every entry byte-identical.  Two
outputs carry measurements rather than results, so `pins.replay`, which
runs and records an argv, cuts the time off `bench` and drops the stdout of
`diag-check` (its exit code is kept).

`pins.py` is tier 1's replay of this file: `test_pins.py` runs it, and it
checks every record with numpy blocked, within 60 s and without a
traceback.  This file checks that the records are these argvs, and that
each subcommand has a plain and a --json record.  Re-record the file,
after a deliberate output change, with

    PYTHONPATH=src python tests/test_cli_golden.py --record
"""

from __future__ import annotations

import json
import os
import pathlib
import sys

import pytest

from arithmat import cli
from pins import replay

_REPO = pathlib.Path(__file__).resolve().parent.parent
_GOLDEN = pathlib.Path(__file__).with_name("cli_golden.json")
_BIG = str(10**400 + 1)
_DODECIC = (
    "785915638317283149000963094238,-913993955801126269512393419025,385336823747623517732345654812,"
    "508996954609295204713555783241,402558101667989456546023021673,-561048474573520621391458994584,"
    "106920609999929128204741220958,786277928711906044357811425971,-653577787271786214656225989967,"
    "737893928797636801755670101668,-581992670811864389247171230651,-691801899733324803934958374650,"
    "-516864027100364992933111060959"
)

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
    # the CI pins: `pins.py` replays this whole file without numpy, in CI's bare
    # interpreter and in tier 1, so each value below is checked there as well
    # the search visits a2 >= 0 and mirrors each hit; both lists hold pairs with a2 < 0
    ["search", "--disc", "-23", "--degree", "3", "--height", "2", "--max-a0", "1"],
    ["search", "--disc", "-4511", "--degree", "5", "--height", "2", "--max-a0", "1"],
    # at a0 = 1 a quintic hit stands for its orbit under the mirror and the reversal
    # sign(a6) B(y, x), and a0 = 2 keeps the mirror only; both lists were printed by the
    # search that used the mirror alone
    ["search", "--disc", "-4511", "--degree", "5", "--height", "3", "--max-a0", "1"],
    ["search", "--disc", "-4511", "--degree", "5", "--height", "2", "--max-a0", "2"],
    # a0 = 2 with rational coordinates: the kernel at a0 > 1 with a denominator d != 1
    ["inv", "--pair", "2:4,-2,-3,1,1", "--a", "1/2,1/3,0,0"],
    ["mul", "--pair", "2:4,-2,-3,1,1", "--a", "1/2,1/3,0,0", "--b", "1,-1,2,1/5"],
    # the same rational elements through add and the transform route: numerators over one denominator
    ["add", "--pair", "2:4,-2,-3,1,1", "--a", "1/2,1/3,0,0", "--b", "1,-1,2,1/5"],
    ["mul", "--via", "fft", "--pair", "2:4,-2,-3,1,1", "--a", "1/2,1/3,0,0", "--b", "1,-1,2,1/5"],
    ["charpoly", "--pair", "2:4,-2,-3,1,1", "--a", "1/2,1/3,0,0"],
    # a rational numeric matrix (and, in pins.py, a rational inverse): integer numerators
    # over one denominator, printed per entry
    ["matrix", "--pair", "2:4,-2,-3,1,1", "--coords", "1/2,1/3,0,0"],
    # pins.py bounds every record of this file by 60 s, the `timeout` CI gave these two
    ["norm", "--pair", f"1:1,0,0,1,{_BIG}", "--a", "1,1,0,0"],
    ["norm", "--pair", f"1:1,0,1,{_BIG}", "--a", "1,1,0"],
    # one of both outcomes of the lifted quadratic-factor search (pins.py holds the other):
    # x^4 + 1 is irreducible but reducible modulo every prime, so only the search accepts it
    ["norm", "--pair", "1:1,0,0,0,1", "--a", "1,1,0,0"],
    # one form each at degrees 3 to 6, leads != +-1: these pin the sign (-1)^(n-1) of the
    # Bezout kernel
    ["disc", "--form", "3,-1,4,-2"],
    ["disc", "--form", "4,-2,-3,1,1"],
    ["disc", "--form", "2,0,-3,1,0,5"],
    ["disc", "--form", "3,1,-2,0,4,-1,2"],
    # degrees 9 and 10, leads != +-1, on the subresultant PRS: these pin its sign (-1)^(n(n-1)/2)
    # and the division by a1; the values the Sylvester route printed
    ["disc", "--form", "4,-3,1,-5,0,2,-2,6,1,3"],
    ["disc", "--form", "5,-2,0,3,1,-4,2,0,-1,6,-3"],
    # a degree-12 form with 30-digit coefficients: the discriminant is (-1)^(n(n-1)/2) times
    # the resultant of f = B(x, 1) and f', by the subresultant PRS, over a1
    ["disc", "--form", _DODECIC],
    # x^12 + 108, a sparse form: disc(a x^n + c) = (-1)^(n(n-1)/2) n^n a^(n-1) c^(n-1), here
    # 12^12 * 108^11
    ["disc", "--form", "1,0,0,0,0,0,0,0,0,0,0,0,108"],
    # a0 = 3, and an odd degree at a0 = 2: the kernel's quotients a1/a0, a1/a0^2 and a2/a0
    ["matrix", "--pair", "3:9,-6,-1,-1", "--coords", "2,-1,3"],
    ["matrix", "--pair", "2:4,-4,3,0,-2,-3", "--coords", "1,2,-1,3,1"],
    ["inv", "--pair", "3:9,-6,-1,-1", "--a", "2,-1,3"],
    # symbolic matrices, both syzygies, the other table and element commands
    # the symbolic matrix compiles the symbolic module on demand (pins.py: disc never compiles field)
    ["matrix", "--pair", "1:1,1,0,-2,-1", "--symbolic"],
    ["matrix", "--pair", "1:1,0,0,0,0,1,-1", "--symbolic"],
    ["matrix", "--pair", "2:4,2,0,0,0,1,1", "--symbolic"],
    # the a0 = 3 matrix on symbols: entries are MultiPolys in u, x, y, printed in
    # graded-lexicographic order
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


_CASES = [prefix + argv for argv in _ARGVS for prefix in ([], ["--json"])]


@pytest.fixture(scope="module")
def golden() -> dict:
    return {tuple(e["argv"]): e for e in json.loads(_GOLDEN.read_text(encoding="utf-8"))}


def test_golden_covers_every_argv(golden):
    assert list(golden) == list(map(tuple, _CASES))


def test_every_subcommand_has_a_plain_and_a_json_record(golden):
    plain = {argv[0] for argv in golden if argv[0] != "--json"}
    as_json = {argv[1] for argv in golden if argv[0] == "--json"}
    assert set(cli._HANDLERS) <= plain and set(cli._HANDLERS) <= as_json


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(__doc__)
    os.chdir(_REPO)
    _GOLDEN.write_text(json.dumps([replay(argv)[0] for argv in _CASES], indent=1) + "\n", encoding="utf-8")
