"""Command line front end.

Exit codes: 0 success, 1 argument/parse errors, 2 domain errors (the error
class name is printed), 3 verification failures.  The --json flag emits the
same values as structured records.  List-valued arguments are comma strings
without spaces, so negative numbers need no quoting.

Start-up: each call is one subcommand in a fresh interpreter, so a module
that only some subcommands run (fastmul, search, numeric, json, random,
time) is imported inside the handlers that run it.  Importing the package
still loads errors, polyring, forms, field and element.  covariants stays a
module-level import although only syzygy runs it: a tracer that wraps
arithmat's functions from outside the package (perfbench/tracer.py) looks
every target module up in sys.modules, and nothing else loads covariants.
"""

from __future__ import annotations

import argparse
import sys

from . import covariants
from .errors import ArithmatError, DimensionMismatchError, MissingDependencyError


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _build_parser() -> _Parser:
    # the start-up note is for readers of this file, not for --help
    p = _Parser(prog="arithmat", description=__doc__ and __doc__.partition("\n\nStart-up:")[0])
    p.add_argument("--json", action="store_true", help="emit JSON records")
    sub = p.add_subparsers(dest="command", required=True)

    d = sub.add_parser("disc", help="exact discriminant of a binary form")
    d.add_argument("--form", required=True, help="coefficients a1,a2,...")

    m = sub.add_parser("matrix", help="print the arithmetic matrix")
    m.add_argument("--pair", required=True, help="pair a0:a1,a2,...")
    g = m.add_mutually_exclusive_group(required=True)
    g.add_argument("--coords", help="coordinates x0,x1,...")
    g.add_argument("--symbolic", action="store_true")

    for name in ("mul", "add", "inv", "norm", "trace", "charpoly"):
        e = sub.add_parser(name, help=f"element {name}")
        e.add_argument("--pair", required=True)
        e.add_argument("--a", required=True, help="element coordinates")
        if name in ("mul", "add"):
            e.add_argument("--b", required=True, help="second element coordinates")
        if name == "mul":
            e.add_argument("--via", choices=("matrix", "fft"), default="matrix")

    s = sub.add_parser("search", help="enumerate essential pairs")
    s.add_argument("--disc", required=True, type=int)
    s.add_argument("--degree", required=True, type=int)
    s.add_argument("--height", required=True, type=int)
    s.add_argument("--max-a0", required=True, type=int)
    s.add_argument(
        "--jobs", type=int, default=1, help="accepted and ignored; the search runs in one thread"
    )

    v = sub.add_parser("verify-tables", help="check table fixture rows")
    v.add_argument("--file", required=True)

    z = sub.add_parser("syzygy", help="verify classical syzygies")
    zg = z.add_mutually_exclusive_group(required=True)
    zg.add_argument("--cubic", help="cubic form a,b,c,d")
    zg.add_argument("--quartic", help="quartic form a,b,c,d,e")

    dg = sub.add_parser("diag-check", help="diagonalization residual")
    dg.add_argument("--pair", required=True)
    dg.add_argument("--coords", required=True)

    b = sub.add_parser("bench", help="matrix multiplication counters")
    b.add_argument("--size", required=True, type=int)
    b.add_argument(
        "--algo", required=True, choices=("schoolbook", "ww", "recursive")
    )
    return p


def _matrix_json(M: ExactMatrix):
    return [[str(e) for e in M.row(i)] for i in range(M.rows)]


def _print_json(record: dict) -> None:
    import json

    print(json.dumps(record, sort_keys=True))


def _emit(args, plain: str, record: dict) -> None:
    if args.json:
        _print_json(record)
    else:
        print(plain)


def _cmd_disc(args) -> int:
    from .forms import BinaryForm, form_discriminant

    value = form_discriminant(BinaryForm.from_text(args.form))
    _emit(args, str(value), {"command": "disc", "form": args.form, "disc": value})
    return 0


def _cmd_matrix(args) -> int:
    from .field import (
        Element,
        EssentialPair,
        arithmetic_matrix,
        make_field,
        symbolic_arithmetic_matrix,
    )

    F = make_field(EssentialPair.from_text(args.pair))
    if args.symbolic:
        M = symbolic_arithmetic_matrix(F)
    else:
        M = arithmetic_matrix(F, Element.from_text(F, args.coords))
    _emit(args, repr(M), {"command": "matrix", "pair": args.pair, "matrix": _matrix_json(M)})
    return 0


def _cmd_element_op(args) -> int:
    from . import element
    from .field import Element, EssentialPair, make_field
    from .polyring import format_rational

    F = make_field(EssentialPair.from_text(args.pair))
    operands = [Element.from_text(F, args.a)]
    record = {"command": args.command, "pair": args.pair, "a": args.a}
    if args.command in ("mul", "add"):
        operands.append(Element.from_text(F, args.b))
        record["b"] = args.b
    op = {
        "mul": element.mul,
        "add": element.add,
        "inv": element.inverse,
        "norm": element.norm,
        "trace": element.trace,
        "charpoly": element.char_poly,
    }[args.command]
    if args.command == "mul":
        record["via"] = args.via
        if args.via == "fft":
            from .fastmul import mul_via_fft

            op = mul_via_fft
    out = op(F, *operands)
    # norm and trace are numbers, the others an element or a polynomial
    record["result"] = format_rational(out) if args.command in ("norm", "trace") else out.text()
    _emit(args, record["result"], record)
    return 0


def _cmd_search(args) -> int:
    from .search import search_essential_pairs

    pairs = search_essential_pairs(
        args.disc, args.degree, args.height, args.max_a0, jobs=args.jobs
    )
    if args.json:
        _print_json({"command": "search", "disc": args.disc, "pairs": [p.text() for p in pairs]})
    else:
        for p in pairs:
            print(p.text())
    return 0


def _cmd_verify_tables(args) -> int:
    from .search import parse_table_rows, verify_tables

    with open(args.file, "r", encoding="utf-8") as fh:
        rows = parse_table_rows(fh.read())
    report = verify_tables(rows)
    if args.json:
        _print_json(
            {
                "command": "verify-tables",
                "rows_checked": report.rows_checked,
                "failures": [
                    {"row": idx, "disc": row[0], "a0": row[1],
                     "coeffs": list(row[2]), "reason": reason}
                    for idx, row, reason in report.failures
                ],
            }
        )
    else:
        print(report)
    return 0 if report.ok else 3


def _cmd_syzygy(args) -> int:
    from .forms import BinaryForm

    if args.cubic is not None:
        form = BinaryForm.from_text(args.cubic)
        ok = covariants.cubic_identities_check(form)
    else:
        form = BinaryForm.from_text(args.quartic)
        ok = covariants.quartic_identities_check(form)
    _emit(
        args,
        "PASS" if ok else "FAIL",
        {"command": "syzygy", "form": args.cubic or args.quartic, "pass": ok},
    )
    return 0 if ok else 3


def _cmd_diag_check(args) -> int:
    try:
        from . import numeric  # numpy is imported for this command only
    except ModuleNotFoundError as exc:
        if exc.name != "numpy":
            raise
        raise MissingDependencyError(
            "diag-check needs numpy, which is not installed (pip install numpy)"
        ) from exc
    from .field import Element, EssentialPair, make_field

    F = make_field(EssentialPair.from_text(args.pair))
    alpha = Element.from_text(F, args.coords)
    residual = numeric.diagonalization_residual(F, alpha)
    _emit(
        args,
        repr(residual),
        {"command": "diag-check", "pair": args.pair, "coords": args.coords,
         "residual": residual},
    )
    return 0


def _cmd_bench(args) -> int:
    import random
    import time

    from . import fastmul
    from .polyring import ExactMatrix

    m = args.size
    if m < 1:
        raise DimensionMismatchError(f"size must be at least 1, got {m}")
    rng = random.Random(20259)
    A = ExactMatrix(m, m, [rng.randint(-99, 99) for _ in range(m * m)])
    B = ExactMatrix(m, m, [rng.randint(-99, 99) for _ in range(m * m)])
    counter = fastmul.MulCounter()
    start = time.perf_counter_ns()
    if args.algo == "schoolbook":
        fastmul.schoolbook_multiply(A, B, counter)
    elif args.algo == "ww":
        if m % 2:
            raise ArithmatError("ww needs an even size; use recursive for odd")
        fastmul.ww_multiply(A, B, counter)
    else:
        fastmul.ww_recursive(A, B, counter)
    elapsed = time.perf_counter_ns() - start
    row = f"{m},{args.algo},{counter.scalar_mults},{counter.scalar_adds},{elapsed}"
    _emit(
        args,
        row,
        {"command": "bench", "m": m, "strategy": args.algo,
         "mults": counter.scalar_mults, "adds": counter.scalar_adds,
         "nanoseconds": elapsed},
    )
    return 0


_HANDLERS = {
    "disc": _cmd_disc,
    "matrix": _cmd_matrix,
    "mul": _cmd_element_op,
    "add": _cmd_element_op,
    "inv": _cmd_element_op,
    "norm": _cmd_element_op,
    "trace": _cmd_element_op,
    "charpoly": _cmd_element_op,
    "search": _cmd_search,
    "verify-tables": _cmd_verify_tables,
    "syzygy": _cmd_syzygy,
    "diag-check": _cmd_diag_check,
    "bench": _cmd_bench,
}


def run_command(argv: list[str]) -> int:
    """Parse argv and run one subcommand, returning the exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _HANDLERS[args.command](args)
    except ArithmatError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
