"""The traffic map: which lines of `src/arithmat` no user-facing traffic reaches.

    python tests/traffic.py

It traces lines with `sys.settrace` while it runs three sources in this
process:

* the requests of the four benchmark workloads (`perfbench/workloads.py`,
  which it imports and never edits) at seed 1, each followed by its check,
  as `perfbench/worker.py` runs them; the cli workload runs its in-process
  route, `Cli.run_in_process`;
* every argv of `cli_golden.json`, through `pins.replay`;
* the demos, each run as `__main__`.

Then it prints, for each function of `src/arithmat` in file order, the lines
that none of them reached: `never run` when no line of the function ran,
else the line numbers, as ranges.  Functions reached in full are left out.
A lambda's or comprehension's lines count as its enclosing function's.  The
package is first imported under the tracer, so the lines its import runs
count.  `cli.main` shows as never run: the sources call `cli.run_command`,
and only a fresh `arithmat` process runs `main`.  The sources' own output is
discarded.  It needs the standard library, `src/` and what the workloads
import, and takes about 4 s on a 2-core VM.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import io
import json
import os
import pathlib
import runpy
import sys
import types
from typing import Callable, Iterable

_TESTS = pathlib.Path(__file__).resolve().parent
_REPO = _TESTS.parent
_SRC = _REPO / "src"
_PERFBENCH = _REPO / "perfbench"
sys.path[:0] = [str(_TESTS), str(_SRC)]

SEED = 1
# the workloads' composition at the benchmark's reference run length
SECONDS = 10


def load_workloads() -> types.ModuleType:
    """`perfbench/workloads.py`, imported without writing bytecode beside it."""
    if str(_PERFBENCH) not in sys.path:
        sys.path.append(str(_PERFBENCH))
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        return importlib.import_module("workloads")
    finally:
        sys.dont_write_bytecode = saved


def _workload(cls) -> None:
    w = cls(SEED, SECONDS, _REPO)
    if hasattr(w, "run_in_process"):
        w.run = w.run_in_process
    w.setup()
    for request in w.requests:
        w.check(request, w.run(request))


def workload_sources() -> list[Callable]:
    """The four workloads as one source, which imports them when it runs."""
    return [lambda: [_workload(cls) for cls in load_workloads().WORKLOADS.values()]]


def golden_sources(entries: Iterable[dict]) -> list[Callable]:
    import pins

    return [lambda argv=e["argv"]: pins.replay(argv) for e in entries]


def demo_sources() -> list[Callable]:
    return [lambda p=p: runpy.run_path(str(p), run_name="__main__")
            for p in sorted((_REPO / "demos").glob("*.py"))]


def trace(sources: Iterable[Callable]) -> dict[str, set[int]]:
    """Run each source under the line tracer, in the repository root with its
    output discarded; the lines reached in each file of `src/arithmat`, by real path."""
    package = {os.path.realpath(p) for p in _SRC.joinpath("arithmat").glob("*.py")}
    hits: dict[str, set[int]] = {}
    traced: dict[str, set[int] | None] = {}  # co_filename -> its hits, or None when outside

    def local(frame, event, arg):
        traced[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def on_call(frame, event, arg):
        filename = frame.f_code.co_filename
        if filename not in traced:
            path = os.path.realpath(filename)
            traced[filename] = hits.setdefault(path, set()) if path in package else None
        # a module or class body runs its `def` lines, which are also its functions' first lines
        if traced[filename] is None or not frame.f_code.co_flags & inspect.CO_NEWLOCALS:
            return None
        traced[filename].add(frame.f_lineno)
        return local

    cwd, previous = os.getcwd(), sys.gettrace()
    os.chdir(_REPO)
    sys.settrace(on_call)
    try:
        modules()
        for run in sources:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                run()
    finally:
        sys.settrace(previous)
        os.chdir(cwd)
    return hits


def modules() -> list[types.ModuleType]:
    """Every module of the package, imported."""
    return [importlib.import_module(f"arithmat.{p.stem}") for p in sorted(_SRC.joinpath("arithmat").glob("*.py"))]


def _functions(code: types.CodeType, prefix: str = ""):
    """(qualified name, first line, lines) of each named function inside code;
    a lambda's or comprehension's lines count as its enclosing function's."""
    for const in code.co_consts:
        if isinstance(const, types.CodeType) and not const.co_name.startswith("<"):
            name = prefix + const.co_name
            if const.co_flags & inspect.CO_NEWLOCALS:  # a function, not a class body
                yield name, const.co_firstlineno, _lines(const)
            yield from _functions(const, name + ".")


def _lines(code: types.CodeType) -> set[int]:
    out = {line for _start, _end, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if isinstance(const, types.CodeType) and const.co_name.startswith("<"):
            out |= _lines(const)
    return out


def _ranges(lines: list[int]) -> str:
    parts, start = [], None
    for i, line in enumerate(lines):
        if start is None:
            start = line
        if i + 1 == len(lines) or lines[i + 1] != line + 1:
            parts.append(str(start) if start == line else f"{start}-{line}")
            start = None
    return ", ".join(parts)


def report(hits: dict[str, set[int]]) -> list[str]:
    """One line per function of `src/arithmat` with lines that no source reached."""
    out = []
    for module in modules():
        path = module.__file__
        code = compile(pathlib.Path(path).read_text(encoding="utf-8"), path, "exec")
        reached = hits.get(os.path.realpath(path), set())
        where = pathlib.Path(path).name
        for name, first, lines in _functions(code):
            missed = sorted(lines - reached)
            if not missed:
                continue
            what = "never run" if not lines & reached else _ranges(missed)
            out.append(f"{where}:{first} {name}: {what}")
    return out


def main() -> None:
    entries = json.loads((_TESTS / "cli_golden.json").read_text(encoding="utf-8"))
    sources = workload_sources() + golden_sources(entries) + demo_sources()
    lines = report(trace(sources))
    for line in lines:
        print(line)
    never = sum(line.endswith("never run") for line in lines)
    print(f"{never} functions never run, {len(lines) - never} more miss lines")


if __name__ == "__main__":
    main()
