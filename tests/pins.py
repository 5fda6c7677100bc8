"""Pinned outputs of the numpy-free CLI and library, checked by one stdlib-only script.

    python tests/pins.py

blocks numpy (`sys.modules["numpy"] = None`, so `import numpy` raises as in
an interpreter without it) and checks two sets of records:

* every record of `cli_golden.json`, replayed in this process by `replay`,
  which `test_cli_golden.py --record` also records with.  This is tier 1's
  only replay of that file.  Each must match within 60 s.  That includes
  `diag-check`: numpy serves batches of certificates (`arithmat.numeric`), and a one-shot call certifies in plain
  floats (`arithmat.embedding`), so every command runs without numpy;
* `PINS`: the checks that transcript cannot hold, because they need a `-c`
  snippet, stderr text, a tighter time bound, `--help` or the CLI's own
  `main`.  Each runs in a fresh interpreter with numpy blocked the same way.

No record may print a traceback.  The script prints one line per failing
record, naming it, and exits 1 if any fails.  With `--json` it prints
instead a JSON list of `[name, problem]` pairs, one per record, with a null
problem where the record matches; `test_pins.py` runs it so in tier 1 and
reports each record as its own test.  It imports nothing beyond the
standard library and `src/`, so it runs under a bare `venv --without-pip`
interpreter.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import pathlib
import re
import subprocess
import sys
import threading
import traceback
from dataclasses import dataclass

_REPO = pathlib.Path(__file__).resolve().parent.parent
_SRC = _REPO / "src"
_GOLDEN = pathlib.Path(__file__).with_name("cli_golden.json")
_GOLDEN_BOUND_S = 60
_NO_NUMPY = "import sys; sys.modules['numpy'] = None\n"
# `python -m arithmat.cli` after the numpy block
_CLI_MODULE = "import runpy; runpy.run_module('arithmat.cli', run_name='__main__', alter_sys=True)"
# wide enough that argparse wraps no usage line, whose wrapping changed in Python 3.13
_COLUMNS = "200"


@dataclass(frozen=True)
class Pin:
    """A check run in a fresh interpreter.

    `command` is a CLI argv, run as `python -m arithmat.cli`, or the source
    of a `-c` snippet.  `stdout` and `code` are exact, `stderr` is a regular
    expression that `re.search` must find there, and `bound` is a time limit
    in seconds.
    """

    name: str
    command: list[str] | str
    stdout: str
    code: int = 0
    stderr: str = ""
    bound: float = 60


_N = 10**100

PINS = [
    # resultants on the Bezout kernel, in both orders and with a constant: the values the
    # Sylvester route printed; the 452-digit one is pinned by its length and SHA-256
    Pin(
        "resultant-rational",
        "from fractions import Fraction\n"
        "from arithmat.polyring import UniPoly, resultant\n"
        "print(resultant(UniPoly([Fraction(1, 3), 2, Fraction(-5, 7), 1]), UniPoly([Fraction(3, 2), 0, 4])))\n"
        "print(resultant(UniPoly([5]), UniPoly([1, 2, 3])), resultant(UniPoly([1, 2, 3]), UniPoly([5])))",
        "305195/3528\n25 25\n",
    ),
    Pin(
        "resultant-452-digits",
        "import hashlib\n"
        "from arithmat.polyring import UniPoly, resultant\n"
        "r = resultant(UniPoly([10**30 + k for k in range(13)]), UniPoly([(-1)**k * (10**20 + k) for k in range(8)]))\n"
        "print(len(str(abs(r))), hashlib.sha256(str(r).encode()).hexdigest()[:16])",
        "452 3497f3bd8fccb66f\n",
    ),
    # the cubic index form and a quartic subform are exact ring arithmetic, with no numpy
    Pin(
        "index-form-and-subform",
        "from arithmat.covariants import dh_cubic_form, quartic_subform\n"
        "from arithmat.field import EssentialPair, make_field\n"
        "print(dh_cubic_form(make_field(EssentialPair.from_text('1:1,1,-2,-1'))).text())\n"
        "form, claimed = quartic_subform(make_field(EssentialPair.from_text('1:1,1,0,-2,-1')), 3, 4)\n"
        "print(form.text(), claimed)",
        "-1,-1,2,1\n-1,-2,0,1,1 -275\n",
    ),
    # with the form omitted, each identity check is a polynomial identity in generic coefficients
    Pin(
        "generic-identities",
        "from arithmat import covariants as c\n"
        "print([check() for check in (c.quartic_syzygy_check, c.quartic_norm_equation_check,\n"
        "       c.quartic_hessian_identity_check, c.cubic_syzygy_check, c.cubic_norm_equation_check)])",
        "[True, True, True, True, True]\n",
    ),
    # the symbolic matrix compiles the symbolic module on demand (the `--symbolic` records
    # of cli_golden.json); disc never compiles field
    Pin(
        "disc-imports-no-field",
        "import sys; from arithmat.cli import run_command\n"
        "run_command(['disc', '--form', '1,1,0,-2,-1']); sys.exit('arithmat.field' in sys.modules)",
        "-275\n",
    ),
    # (x^2 + 1)(x^2 + N + 1) with N = 10^100: the quadratic factor is lifted p-adically, where a
    # divisor scan of N + 1 took sqrt(N) steps; the message is the one printed at N = 10^8 by the scan
    Pin(
        "reducible-quartic-1e100",
        ["norm", "--pair", f"1:1,0,{_N + 2},0,{_N + 1}", "--a", "1,0,0,0"],
        "",
        code=2,
        stderr="form is reducible over the rationals",
        bound=20,
    ),
    # both outcomes of the lifted quadratic-factor search (cli_golden.json holds x^4 + 1, which
    # only the search accepts): (x^2 + 1)(x^3 + 2) has no rational root
    Pin(
        "quadratic-factor-refutes",
        ["norm", "--pair", "1:1,0,1,2,0,2", "--a", "1,1,0,0,0"],
        "",
        code=2,
        stderr="form is reducible over the rationals",
    ),
    # forms with a lead != 1 accepted at p = 2, 3 and 7 by the symbol of the discriminant the
    # form keeps; x^4 + 1; three products refuted by a quadratic factor; x^6 + 108, undecided;
    # and x^6 - 1, which has a rational root
    Pin(
        "certificates-to-degree-6",
        "from arithmat.forms import BinaryForm, irreducibility_certificate\n"
        "print([irreducibility_certificate(BinaryForm.from_text(t)) for t in ('3,0,0,1,1', '1,0,0,0,1',\n"
        "       '1,0,3,0,2', '1,1,2,2,2,1', '2,0,0,0,1,1', '2,0,7,0,3', '1,0,0,0,0,0,108',\n"
        "       '1,0,0,0,0,0,-1', '5,3,-7,2,9')])",
        "[True, True, False, False, True, False, None, False, True]\n",
    ),
    # degrees 6 to 12 through the packed distinct-degree scan: x^6 + x + 1, x^12 + x + 1,
    # (x^3 + 2)(x^5 + 3), x^6 + 108, x^6 - 1, (x^11 - 1)/(x - 1), a dodecic with lead 5,
    # (x^2 + 1)(x^4 + x + 1) and 3x^10 + x + 1; the values the schoolbook scan printed
    Pin(
        "certificates-packed-scan",
        "from arithmat.forms import BinaryForm, irreducibility_certificate\n"
        "print([irreducibility_certificate(BinaryForm.from_text(t)) for t in ('1,0,0,0,0,1,1',\n"
        "       '1,0,0,0,0,0,0,0,0,0,0,1,1', '1,0,0,2,0,3,0,0,6', '1,0,0,0,0,0,108', '1,0,0,0,0,0,-1',\n"
        "       '1,1,1,1,1,1,1,1,1,1,1', '5,3,-7,2,9,4,-1,6,2,11,-3,8,13', '1,0,1,1,1,1,1',\n"
        "       '3,0,0,0,0,0,0,0,0,1,1')])",
        "[True, True, None, None, False, True, True, None, True]\n",
    ),
    # the generic cubic matrix at a0 = 2: coefficient and coordinate symbols, with the quotients
    # a/2, a/4 and b/2
    Pin(
        "generic-cubic-matrix-a0-2",
        "from arithmat.symbolic import generic_arithmetic_matrix\n"
        "print(generic_arithmetic_matrix(3, 2))",
        "[u, -1/2*a*d*y, -1/2*a*d*x - b*d*y]\n"
        "[x, -1/2*b*x - c*y + u, -c*x - 2*d*y]\n"
        "[y, 1/4*a*x, -c*y + u]\n",
    ),
    # a rational inverse (cli_golden.json holds the rational numeric matrix): integer numerators
    # over one denominator, printed per entry
    Pin(
        "exact-inverse",
        "from arithmat.polyring import ExactMatrix\n"
        "print(ExactMatrix.from_rows([[1, 2], [3, 4]]).inverse())",
        "[-2, 1]\n[3/2, -1/2]\n",
    ),
    # a degree-8 certificate in plain floats; the residual's last digits are the platform's
    Pin(
        "diag-check-degree-8",
        "import contextlib, io\n"
        "from arithmat.cli import run_command\n"
        "with contextlib.redirect_stdout(io.StringIO()) as out:\n"
        "    code = run_command(['diag-check', '--pair', '1:1,0,0,0,0,0,0,0,2', '--coords', '1,2,3,4,5,6,7,8'])\n"
        "print(code, float(out.getvalue()) < 1e-8)",
        "0 True\n",
    ),
    # values past Python's 4300-digit int-to-str limit, which `main` lifts: in x^2 - 2 the
    # trace of a 5000-digit omega_1 coordinate is 0, and in x^8 + 2 the norm of 10^600 is 10^4800
    Pin("input-past-digit-limit", ["trace", "--pair", "1:1,0,-2", "--a", "0," + "9" * 5000], "0\n"),
    Pin(
        "output-past-digit-limit",
        ["norm", "--pair", "1:1,0,0,0,0,0,0,0,2", "--a", "1" + "0" * 600 + ",0,0,0,0,0,0,0"],
        "1" + "0" * 4800 + "\n",
    ),
    # a call parses with its own subparser; help and usage errors print what the full parser prints
    Pin(
        "help",
        ["--help"],
        "usage: arithmat [-h] [--json] {disc,matrix,mul,add,inv,norm,trace,charpoly,search,"
        "verify-tables,syzygy,diag-check,bench} ...\n"
        "\n"
        "Command line front end. Exit codes: 0 success, 1 argument/parse errors, 2 domain errors "
        "(the error class name is printed), 3 verification failures. The --json flag emits the same values as\n"
        "structured records. List-valued arguments are comma strings without spaces, so negative "
        "numbers need no quoting.\n"
        "\n"
        "positional arguments:\n"
        "  {disc,matrix,mul,add,inv,norm,trace,charpoly,search,verify-tables,syzygy,diag-check,bench}\n"
        "    disc                exact discriminant of a binary form\n"
        "    matrix              print the arithmetic matrix\n"
        "    mul                 element mul\n"
        "    add                 element add\n"
        "    inv                 element inv\n"
        "    norm                element norm\n"
        "    trace               element trace\n"
        "    charpoly            element charpoly\n"
        "    search              enumerate essential pairs\n"
        "    verify-tables       check table fixture rows\n"
        "    syzygy              verify classical syzygies\n"
        "    diag-check          diagonalization residual\n"
        "    bench               matrix multiplication counters\n"
        "\n"
        "options:\n"
        "  -h, --help            show this help message and exit\n"
        "  --json                emit JSON records\n",
    ),
    Pin("usage-error-inv", ["inv", "--pair", "1:1,1,-1"], "", code=1, stderr="^usage: arithmat inv"),
    # an unrecognized argument prints the top-level usage, which lists every subcommand
    Pin("usage-error-extra", ["disc", "--form", "1,2,1", "--extra"], "", code=1, stderr="verify-tables"),
]


def _mismatch(code, stdout, stderr, want_code, want_stdout, want_stderr) -> str | None:
    """What is wrong with one run, or None."""
    if "Traceback" in stderr:
        return f"printed a traceback ending {stderr.strip().splitlines()[-1]!r}"
    if code != want_code:
        return f"exit code {code}, expected {want_code}; stderr {stderr!r}"
    if stdout != want_stdout:
        return f"stdout {stdout!r}, expected {want_stdout!r}"
    if not re.search(want_stderr, stderr):
        return f"stderr {stderr!r} does not match {want_stderr!r}"
    return None


def _pin_env() -> dict[str, str]:
    path = os.pathsep.join(p for p in (str(_SRC), os.environ.get("PYTHONPATH")) if p)
    return {**os.environ, "PYTHONPATH": path, "COLUMNS": _COLUMNS}


def _pin_problem(pin: Pin, env: dict[str, str]) -> str | None:
    """Run one pin in a fresh interpreter: what is wrong with it, or None."""
    snippet = isinstance(pin.command, str)
    args = ["-c", _NO_NUMPY + (pin.command if snippet else _CLI_MODULE)]
    try:
        run = subprocess.run(
            [sys.executable, *args, *([] if snippet else pin.command)],
            capture_output=True, text=True, cwd=_REPO, env=env, timeout=pin.bound,
        )
    except subprocess.TimeoutExpired:
        return f"still running after {pin.bound:g} s"
    return _mismatch(run.returncode, run.stdout, run.stderr, pin.code, pin.stdout, pin.stderr)


def check_pins(pins: list[Pin]) -> list[str]:
    """Run each pin in a fresh interpreter; one `name: problem` line per failure."""
    env = _pin_env()
    return [f"{pin.name}: {problem}" for pin in pins if (problem := _pin_problem(pin, env))]


def replay(argv: list[str]) -> tuple[dict, str]:
    """Run one argv through `run_command` in this process: the record that
    `cli_golden.json` keeps of it, and its stderr.

    Two outputs carry measurements rather than results: `bench` ends in a
    time in nanoseconds, which is cut off, and `diag-check` prints a float
    residual, whose stdout is not kept (its exit code is).
    """
    from arithmat.cli import run_command  # here, so that `main` can block numpy first

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
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
    return {"argv": argv, "code": code, "stdout": stdout}, err.getvalue()


def _overrun(name: str) -> None:
    # the replay holds sys.stdout, so write past it; then stop, since a thread cannot be cut
    print(f"FAIL {name}: still running after {_GOLDEN_BOUND_S} s", file=sys.__stdout__, flush=True)
    os._exit(1)


def golden_name(argv: list[str]) -> str:
    """A golden record's argv as one line of at most 80 characters."""
    name = " ".join(argv)
    return name if len(name) <= 80 else name[:77] + "..."


def _golden_problem(entry: dict) -> str | None:
    """Replay one golden record in this process: what is wrong with it, or None."""
    watchdog = threading.Timer(_GOLDEN_BOUND_S, _overrun, [golden_name(entry["argv"])])
    watchdog.start()
    try:
        record, stderr = replay(entry["argv"])
    except Exception as exc:  # the CLI would print this traceback
        return f"raised {exc!r}\n{traceback.format_exc()}"
    finally:
        watchdog.cancel()
    return _mismatch(record["code"], record["stdout"], stderr, entry["code"], entry["stdout"], "")


def check_golden(entries: list[dict]) -> list[str]:
    """Replay golden records in this process, where `main` blocks numpy; one
    `argv: problem` line per failure."""
    return [
        f"{golden_name(entry['argv'])}: {problem}"
        for entry in entries if (problem := _golden_problem(entry))
    ]


def outcomes() -> list[tuple[str, str | None]]:
    """Each record's name and what is wrong with it, or None: every golden
    record in file order, then every pin."""
    entries = json.loads(_GOLDEN.read_text(encoding="utf-8"))
    env = _pin_env()
    return [(golden_name(entry["argv"]), _golden_problem(entry)) for entry in entries] + [
        (pin.name, _pin_problem(pin, env)) for pin in PINS
    ]


def main(argv: list[str]) -> int:
    sys.modules["numpy"] = None
    sys.path.insert(0, str(_SRC))
    os.chdir(_REPO)
    results = outcomes()
    failures = [f"{name}: {problem}" for name, problem in results if problem]
    if argv == ["--json"]:
        print(json.dumps(results))
    else:
        for line in failures:
            print("FAIL", line)
        print(f"{len(results) - len(failures)} of {len(results)} pinned outputs match")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
