"""Command line front end.

Exit codes: 0 success, 1 argument/parse errors, 2 domain errors (the error
class name is printed), 3 verification failures.  The --json flag emits the
same values as structured records.  List-valued arguments are comma strings
without spaces, so negative numbers need no quoting.

Start-up: each call is one subcommand in a fresh interpreter, so it compiles
only the modules that subcommand runs.  `import arithmat` loads no submodule,
this module imports only errors, and each handler imports what it runs.  The
parser, too, holds only the subparser the call runs (`_parse_args`).
covariants is bound through importlib's LazyLoader: a tracer that wraps
arithmat's functions from outside the package (perfbench/tracer.py) looks
every target module up in sys.modules, where it is from the start, but it is
compiled only when syzygy first touches it.
"""

from __future__ import annotations

import argparse
import importlib.util
import sys

from .errors import ArithmatError, DimensionMismatchError


def _lazy_submodule(name: str):
    """The package's submodule `name` (one object), executed on its first attribute use."""
    fullname = f"{__package__}.{name}"
    if fullname not in sys.modules:
        spec = importlib.util.find_spec(fullname)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        sys.modules[fullname] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules[fullname])
    setattr(sys.modules[__package__], name, sys.modules[fullname])
    return sys.modules[fullname]


covariants = _lazy_submodule("covariants")


# The tables name functions, looked up when a command runs: a tracer may wrap a module's
# functions after this one is imported, and a function bound here would be the original.
# each element command: the `element` function it runs and its coordinate arguments
_ELEMENT_OPS = {
    "mul": ("mul", "a", "b"), "add": ("add", "a", "b"), "inv": ("inverse", "a"),
    "norm": ("norm", "a"), "trace": ("trace", "a"), "charpoly": ("char_poly", "a"),
}
# each bench --algo: the `fastmul` product it counts
_PRODUCTS = {"schoolbook": "schoolbook_multiply", "ww": "ww_multiply", "recursive": "ww_recursive"}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


class _UsageError(Exception):
    """A usage error met by a one-subcommand parser, for the full parser to report."""


class _OneCommandParser(_Parser):
    def error(self, message):
        raise _UsageError(message)


class _Unbuilt:
    """Takes the arguments of a subparser that the parser being built leaves out."""

    def add_argument(self, *args, **kwargs):
        pass

    def add_mutually_exclusive_group(self, **kwargs):
        return self


def _build_parser(command: str | None = None) -> _Parser:
    """The full parser or, given a subcommand, a parser holding only that subparser."""
    # the start-up note is for readers of this file, not for --help
    cls = _Parser if command is None else _OneCommandParser
    p = cls(prog="arithmat", description=__doc__ and __doc__.partition("\n\nStart-up:")[0])
    p.add_argument("--json", action="store_true", help="emit JSON records")
    sub = p.add_subparsers(dest="command", required=True)

    def add_parser(name: str, help: str):
        return sub.add_parser(name, help=help) if command in (None, name) else _Unbuilt()

    d = add_parser("disc", help="exact discriminant of a binary form")
    d.add_argument("--form", required=True, help="coefficients a1,a2,...")

    m = add_parser("matrix", help="print the arithmetic matrix")
    m.add_argument("--pair", required=True, help="pair a0:a1,a2,...")
    g = m.add_mutually_exclusive_group(required=True)
    g.add_argument("--coords", help="coordinates x0,x1,...")
    g.add_argument("--symbolic", action="store_true")

    for name, (_, *operands) in _ELEMENT_OPS.items():
        e = add_parser(name, help=f"element {name}")
        e.add_argument("--pair", required=True)
        for flag, help in zip(operands, ("element coordinates", "second element coordinates")):
            e.add_argument(f"--{flag}", required=True, help=help)
        if name == "mul":
            e.add_argument("--via", choices=("matrix", "fft"), default="matrix")

    s = add_parser("search", help="enumerate essential pairs")
    s.add_argument("--disc", required=True, type=int)
    s.add_argument("--degree", required=True, type=int)
    s.add_argument("--height", required=True, type=int)
    s.add_argument("--max-a0", required=True, type=int)

    v = add_parser("verify-tables", help="check table fixture rows")
    v.add_argument("--file", required=True)

    z = add_parser("syzygy", help="verify classical syzygies")
    zg = z.add_mutually_exclusive_group(required=True)
    zg.add_argument("--cubic", help="cubic form a,b,c,d")
    zg.add_argument("--quartic", help="quartic form a,b,c,d,e")

    dg = add_parser("diag-check", help="diagonalization residual")
    dg.add_argument("--pair", required=True)
    dg.add_argument("--coords", required=True)

    b = add_parser("bench", help="matrix multiplication counters")
    b.add_argument("--size", required=True, type=int)
    b.add_argument("--algo", required=True, choices=_PRODUCTS)
    return p


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """Parse argv as the full parser does.  A call that names its subcommand after any
    --json flags and asks for no help builds only that subparser; the full parser, whose
    usage lists every subcommand, reports any usage error."""
    command = next((a for a in argv if a != "--json"), None)
    if command in _HANDLERS and "-h" not in argv and "--help" not in argv:
        try:
            return _build_parser(command).parse_args(argv)
        except _UsageError:
            pass
    return _build_parser().parse_args(argv)


def _matrix_json(M: ExactMatrix):
    return [[str(e) for e in M.row(i)] for i in range(M.rows)]


def _print_json(record: dict) -> None:
    import json

    print(json.dumps(record, sort_keys=True))


def _emit(args, plain: str, record: dict) -> None:
    """Print the plain text, or under --json the record, for every subcommand but search."""
    if args.json:
        _print_json(record)
    else:
        print(plain)


def _operands(args, *names) -> list:
    """The field of --pair, then the element of each named coordinate argument."""
    from .field import Element, EssentialPair, make_field

    F = make_field(EssentialPair.from_text(args.pair))
    return [F, *(Element.from_text(F, getattr(args, name)) for name in names)]


def _cmd_disc(args) -> int:
    from .forms import BinaryForm, form_discriminant

    value = form_discriminant(BinaryForm.from_text(args.form))
    _emit(args, str(value), {"command": "disc", "form": args.form, "disc": value})
    return 0


def _cmd_matrix(args) -> int:
    if args.symbolic:
        from .symbolic import symbolic_arithmetic_matrix

        M = symbolic_arithmetic_matrix(*_operands(args))
    else:
        from .field import arithmetic_matrix

        M = arithmetic_matrix(*_operands(args, "coords"))
    _emit(args, repr(M), {"command": "matrix", "pair": args.pair, "matrix": _matrix_json(M)})
    return 0


def _cmd_element_op(args) -> int:
    from . import element
    from .polyring import format_rational

    function, *names = _ELEMENT_OPS[args.command]
    operands = _operands(args, *names)
    op = getattr(element, function)
    if getattr(args, "via", None) == "fft":
        from .fastmul import mul_via_fft as op
    out = op(*operands)
    # the record holds every argument but --json; norm and trace are numbers, the others
    # an element or a polynomial
    record = {key: value for key, value in vars(args).items() if key != "json"}
    record["result"] = out.text() if hasattr(out, "text") else format_rational(out)
    _emit(args, record["result"], record)
    return 0


def _cmd_search(args) -> int:
    from .search import search_essential_pairs

    pairs = search_essential_pairs(args.disc, args.degree, args.height, args.max_a0)
    # not `_emit`: with no pairs the plain output is empty, not one blank line
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
    failures = [
        {"row": idx, "disc": row[0], "a0": row[1], "coeffs": list(row[2]), "reason": reason}
        for idx, row, reason in report.failures
    ]
    record = {"command": "verify-tables", "rows_checked": report.rows_checked, "failures": failures}
    _emit(args, str(report), record)
    return 0 if report.ok else 3


def _cmd_syzygy(args) -> int:
    from .forms import BinaryForm

    kind = "cubic" if args.cubic is not None else "quartic"
    text = getattr(args, kind)
    form = BinaryForm.from_text(text)
    checks = (getattr(covariants, f"{kind}_{name}_check") for name in ("syzygy", "norm_equation"))
    ok = all(check(form) for check in checks)
    _emit(args, "PASS" if ok else "FAIL", {"command": "syzygy", "form": text, "pass": ok})
    return 0 if ok else 3


def _cmd_diag_check(args) -> int:
    from .embedding import diagonalization_residual  # plain floats: no numpy import

    residual = diagonalization_residual(*_operands(args, "coords"))
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
    if args.algo == "ww" and m % 2:
        raise ArithmatError("ww needs an even size; use recursive for odd")
    rng = random.Random(20259)
    A = ExactMatrix(m, m, [rng.randint(-99, 99) for _ in range(m * m)])
    B = ExactMatrix(m, m, [rng.randint(-99, 99) for _ in range(m * m)])
    counter = fastmul.MulCounter()
    multiply = getattr(fastmul, _PRODUCTS[args.algo])
    start = time.perf_counter_ns()
    multiply(A, B, counter)
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
    **dict.fromkeys(_ELEMENT_OPS, _cmd_element_op),
    "search": _cmd_search,
    "verify-tables": _cmd_verify_tables,
    "syzygy": _cmd_syzygy,
    "diag-check": _cmd_diag_check,
    "bench": _cmd_bench,
}


def run_command(argv: list[str]) -> int:
    """Parse argv and run one subcommand, returning the exit code."""
    try:
        args = _parse_args(argv)
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
    # a value past Python's int-to-str digit limit is a value, not an argument error
    lift_digit_limit = getattr(sys, "set_int_max_str_digits", None)  # Python 3.10.7 and later
    if lift_digit_limit is not None:
        lift_digit_limit(0)
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
