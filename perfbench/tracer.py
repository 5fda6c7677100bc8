"""Span recorder that wraps arithmat's public functions from outside the package.

The program is left untouched: `Tracer.install` replaces each target function
in every loaded module that holds it, under whatever name that module
imported it by, so calls between arithmat's modules are seen as well as calls
from the benchmark's own files.  Methods are wrapped on their class.
`uninstall` puts the originals back, so an untraced pass runs the program's
own functions; `install` can then put the same wrappers back.

A span is ``(name, start_ns, end_ns, parent, request, outcome)``.  ``parent``
is the index of the enclosing span on the same thread; a worker thread with no
open span of its own takes the outermost span open on the main thread, so the
search's worker threads hang under the box that started them.  ``outcome`` is
the exception class name, or the result itself when it is ``None`` or a bool.
Spans stay in memory until `write` is called at the end of the run.
"""

from __future__ import annotations

import json
import sys
import threading
import time

# (module, attribute path) of every function the traced run records.
TARGETS = (
    ("arithmat.element", "add"),
    ("arithmat.element", "mul"),
    ("arithmat.element", "trace"),
    ("arithmat.element", "norm"),
    ("arithmat.element", "inverse"),
    ("arithmat.element", "char_poly"),
    ("arithmat.field", "make_field"),
    ("arithmat.field", "arithmetic_matrix"),
    ("arithmat.field", "basis_change_matrix"),
    ("arithmat.polyring", "det_exact"),
    ("arithmat.polyring", "det_bareiss"),
    ("arithmat.polyring", "ExactMatrix.inverse"),
    ("arithmat.forms", "form_discriminant"),
    ("arithmat.forms", "is_irreducible"),
    ("arithmat.forms", "irreducibility_certificate"),
    ("arithmat.fastmul", "mul_via_fft"),
    ("arithmat.fastmul", "exact_convolve"),
    ("arithmat.fastmul", "ww_multiply"),
    ("arithmat.numeric", "diagonalization_residual"),
    ("arithmat.numeric", "EmbeddingData.__init__"),
    ("arithmat.search", "search_essential_pairs"),
    ("arithmat.search", "verify_tables"),
    ("arithmat.covariants", "cubic_syzygy_check"),
    ("arithmat.covariants", "cubic_norm_equation_check"),
    ("arithmat.covariants", "quartic_syzygy_check"),
    ("arithmat.covariants", "quartic_norm_equation_check"),
    ("arithmat.cli", "run_command"),
)


class Tracer:
    """Records spans around the calls into arithmat's public functions."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.request = None
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._patches: list[tuple[object, str, object, object]] = []

    def _stack(self) -> list[int]:
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, fn):
        spans = self.spans
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            elif stack is not self._main_stack:
                parent = next(iter(self._main_stack), None)
            else:
                parent = None
            index = len(spans)
            spans.append(None)
            stack.append(index)
            outcome = ""
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                outcome = type(exc).__name__
                raise
            else:
                if result is None or isinstance(result, bool):
                    outcome = result
                return result
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.request, outcome)

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every target in every loaded module that binds it, the benchmark's included."""
        if not self._patches:
            self._patches = list(self._find_patches())
        for owner, name, _original, wrapper in self._patches:
            setattr(owner, name, wrapper)

    def _find_patches(self):
        modules = [m for m in list(sys.modules.values()) if m is not None]
        for modname, path in TARGETS:
            owner = sys.modules[modname]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            wrapper = self._wrap(f"{modname.split('.')[1]}.{path}", original)
            if outer:
                yield owner, attr, original, wrapper
                continue
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        yield module, name, original, wrapper

    def uninstall(self) -> None:
        """Put every original back."""
        for owner, name, original, _wrapper in self._patches:
            setattr(owner, name, original)

    def write(self, path) -> None:
        """Write the spans as JSON lines."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, request, outcome in self.spans:
                fh.write(
                    json.dumps(
                        {"name": name, "start_ns": start, "end_ns": end,
                         "parent": parent, "request": request, "outcome": outcome}
                    )
                    + "\n"
                )


def self_times_ns(spans: list[tuple]) -> list[int]:
    """Each span's duration minus the union of the intervals its children cover."""
    children: dict[int, list[tuple[int, int]]] = {}
    for name, start, end, parent, _request, _outcome in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    out = []
    for index, (_name, start, end, _parent, _request, _outcome) in enumerate(spans):
        covered = 0
        cursor = start
        for c_start, c_end in sorted(children.get(index, ())):
            c_start = max(c_start, cursor)
            c_end = min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        out.append(end - start - covered)
    return out
