"""The four workloads: seeded request lists, the timed call, and the checks.

Every list is a fixed function of (seed, seconds): `seconds` scales a fixed
per-workload composition, it never bounds a loop by the clock.  Inputs are
drawn from random.Random streams named after the workload and the seed.  The
program is called only in `setup` (building the ring's field pool, warm-up)
and in `run`; `check` compares a result with an oracle and runs outside the
timed region.  A check returns None or a failure reason; reasons listed in a
workload's KNOWN_DEFECTS are defects the program has today and are counted
as failures without marking the run incorrect.
"""

from __future__ import annotations

import contextlib
import io
import os
import random
import statistics
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

from arithmat import cli, element, errors, fastmul, numeric, search
from arithmat.field import Element, EssentialPair, arithmetic_matrix, make_field
from arithmat.forms import BinaryForm
from arithmat.polyring import format_rational

from tracer import self_times_ns

# The compositions below are sized to take about this long on a 2-core VM.
REFERENCE_SECONDS = 10
# Criterion 4 of the acceptance suite: certificates must read below this.
RESIDUAL_BOUND = 1e-8
PRIMES = (2, 3, 5, 7)


# How often each drift control runs (worker.CONTROLS), in seconds.
CONTROL_EVERY_S = {"spin": 0.1, "int_spin": 0.1, "interpreter": 1.0}


def scaled(count: int, seconds: int) -> int:
    return max(1, round(count * seconds / REFERENCE_SECONDS))


# ----------------------------------------------------------------------
# Independent exact oracles and input builders (no program code)
# ----------------------------------------------------------------------


def disc_oracle(coeffs) -> int:
    """Discriminant of a binary form by an integer Bareiss determinant."""
    n = len(coeffs) - 1
    size = 2 * n - 1
    deriv = [(n - k) * c for k, c in enumerate(coeffs[:-1])]
    rows = [[0] * i + list(coeffs) + [0] * (size - i - n - 1) for i in range(n - 1)]
    rows += [[0] * i + deriv + [0] * (size - i - n) for i in range(n)]
    sign, prev = 1, 1
    for k in range(size - 1):
        if rows[k][k] == 0:
            pivot = next((r for r in range(k + 1, size) if rows[r][k]), None)
            if pivot is None:
                return 0
            rows[k], rows[pivot] = rows[pivot], rows[k]
            sign = -sign
        for i in range(k + 1, size):
            for j in range(k + 1, size):
                rows[i][j] = (rows[i][j] * rows[k][k] - rows[i][k] * rows[k][j]) // prev
        prev = rows[k][k]
    det = sign * rows[-1][-1]
    return (-det if n % 4 in (2, 3) else det) // coeffs[0]


def poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def eisenstein(rng: random.Random, n: int, p: int, monic: bool = False, height: int = 2):
    """Coefficients (high first) of a form that is Eisenstein at p, so irreducible."""
    lead = 1 if monic else rng.choice([c for c in range(1, 10) if c % p])
    middle = [p * rng.randint(-height, height) for _ in range(n - 1)]
    last = p * rng.choice([u for u in (-4, -3, -2, -1, 1, 2, 3, 4) if u % p])
    return [lead, *middle, last]


def boxed_eisenstein(rng: random.Random, n: int, height: int):
    """An Eisenstein form whose coefficients all lie in [-height, height], a1 > 0."""
    p = rng.choice(PRIMES)
    k = height // p
    lead = rng.choice([c for c in range(1, min(9, height) + 1) if c % p])
    middle = [p * rng.randint(-k, k) for _ in range(n - 1)]
    last = p * rng.choice([u for u in range(-k, k + 1) if u % p])
    return [lead, *middle, last]


def linear(rng: random.Random):
    return [1, rng.choice((-4, -3, -2, -1, 1, 2, 3, 4))]


def trace_formula(F, coords) -> Fraction:
    """The explicit trace n*x0 - (a2/a0)*x1 - sum j*a_{j+1}*x_j of criterion 3."""
    n = F.n
    return n * coords[0] - Fraction(F.coeff(2), F.a0) * coords[1] - sum(
        (j * F.coeff(j + 1) * coords[j] for j in range(2, n)), Fraction(0)
    )


def pair_validates(a0: int, coeffs, disc: int, degree: int, height: int) -> bool:
    """A returned search pair lies in its box, meets the divisibility rules and has the disc."""
    box = height * a0 * a0
    return (
        len(coeffs) == degree + 1
        and 0 < coeffs[0] <= box
        and coeffs[0] % (a0 * a0) == 0
        and coeffs[1] % a0 == 0
        and all(abs(c) <= box for c in coeffs)
        and disc_oracle(coeffs) == disc * a0 * a0
    )


# ----------------------------------------------------------------------
# Span summaries for the traced run
# ----------------------------------------------------------------------


class SpanView:
    """Per-name totals over a list of spans, with parent filtering."""

    def __init__(self, spans):
        self.spans = spans
        self.self_ns = self_times_ns(spans)

    def select(self, name, parent=None):
        for index, span in enumerate(self.spans):
            if span[0] != name:
                continue
            if parent is not None and (span[3] is None or self.spans[span[3]][0] != parent):
                continue
            yield index, span

    def count(self, name, parent=None) -> int:
        return sum(1 for _ in self.select(name, parent))

    def mean_ms(self, name, parent=None) -> float:
        durations = [s[2] - s[1] for _, s in self.select(name, parent)]
        return sum(durations) / len(durations) / 1e6

    def layer_self_ms(self, prefix: str, layers, requests: int) -> dict[str, float]:
        """Self time per request of each layer (module), as ``<prefix>.self.<layer>_ms``."""
        totals = Counter()
        for span, own in zip(self.spans, self.self_ns):
            totals[span[0].split(".")[0]] += own
        return {f"{prefix}.self.{layer}_ms": totals[layer] / requests / 1e6 for layer in layers}


# ----------------------------------------------------------------------
# ring: one criterion-3 trial per request
# ----------------------------------------------------------------------


class Ring:
    """Eight element operations on a seeded pair in a field from the pool."""

    name = "ring"
    # Requests per degree; the median falls inside the degree-4 block and the
    # tail percentile (10 samples beyond it) in the middle of the degree-12 block.
    COUNTS = {2: 60, 3: 60, 4: 100, 5: 20, 6: 16, 7: 14, 8: 12, 9: 10, 10: 10, 11: 8, 12: 20}
    KNOWN_DEFECTS = {"certificate"}
    expected_errors: tuple = ()
    SCALE_BY = "spin"
    # Set-up is mostly the pool build, Fraction arithmetic like the spin's.
    SETUP_SCALE_BY = "spin"
    CONTROL_EVERY_S = CONTROL_EVERY_S

    def __init__(self, seed: int, seconds: int, root: Path):
        rng = random.Random(f"ring:{seed}")
        self.seed = seed
        # Many cheap fields at degrees 2-5, where the median lies, so that it does
        # not depend on which few fields a seed happened to draw.
        self.slots = {n: (1,) * 16 + (2,) * 4 + (3,) * 4 if n <= 5 else (1, 1, 1, 1, 2, 2) for n in self.COUNTS}
        plan = []
        for n, count in self.COUNTS.items():
            for k in range(scaled(count, seconds)):
                slot = k % len(self.slots[n])
                alpha = [0] * n
                while not any(alpha):
                    alpha = [rng.randint(-10, 10) for _ in range(n)]
                beta = [rng.randint(-10, 10) for _ in range(n)]
                plan.append((n, slot, alpha, beta))
        rng.shuffle(plan)
        self.plan = plan
        self.replacements = Counter()

    @staticmethod
    def _draw(rng: random.Random, n: int, a0: int, hi: int = 9):
        rest = [rng.randint(-hi, hi) for _ in range(n)]
        rest[0] *= a0
        while rest[-1] == 0:
            rest[-1] = rng.randint(-hi, hi)
        return EssentialPair(a0, BinaryForm([rng.randint(1, hi) * a0 * a0, *rest]))

    def setup(self) -> None:
        rng = random.Random(f"ring-pool:{self.seed}")
        self.pool = {}
        for n, a0s in self.slots.items():
            fields = []
            for a0 in a0s:
                while True:
                    try:
                        fields.append(make_field(self._draw(rng, n, a0)))
                        break
                    except errors.ArithmatError as exc:
                        self.replacements[type(exc).__name__] += 1
            self.pool[n] = fields
        self.requests = []
        for n, slot, alpha, beta in self.plan:
            F = self.pool[n][slot]
            self.requests.append((F, F.element(alpha), F.element(beta)))
        self.run(next(r for r in self.requests if r[0].n == 4))

    def run(self, request):
        F, a, b = request
        return (
            element.add(F, a, b),
            element.mul(F, a, b),
            fastmul.mul_via_fft(F, a, b),
            element.trace(F, a),
            element.norm(F, a),
            element.inverse(F, a),
            element.char_poly(F, a),
            self._certificate(F, a),
        )

    @staticmethod
    def _certificate(F, a):
        try:
            return numeric.diagonalization_residual(F, a)
        except errors.RootConvergenceError as exc:
            return exc

    def check(self, request, outcome):
        F, a, b = request
        n = F.n
        s, p, q, t, nv, inv, cp, residual = outcome
        if s.coords != tuple(x + y for x, y in zip(a.coords, b.coords)):
            return "add"
        if q != p:
            return "mul_via_fft!=mul"
        if t != trace_formula(F, a.coords):
            return "trace"
        if nv != element.norm_resultant_oracle(F, a):
            return "norm"
        if element.mul(F, a, inv) != F.one():
            return "inverse"
        cs = cp.coeffs
        if len(cs) != n + 1 or cs[n] != 1 or cs[0] != (-1) ** n * nv or cs[n - 1] != -t:
            return "char_poly"
        if isinstance(residual, errors.RootConvergenceError) or not residual < RESIDUAL_BOUND:
            return "certificate"
        return None

    def slice(self):
        """Two requests of each degree, in list order."""
        taken = Counter()
        out = []
        for request in self.requests:
            if taken[request[0].n] < 2:
                taken[request[0].n] += 1
                out.append(request)
        return out

    def extra(self) -> dict:
        return {"pool_replacements": dict(self.replacements)}

    def layer_metrics(self, view: SpanView, setup_view: SpanView, outcomes, reasons) -> dict:
        trials = len(reasons)
        certificates = view.count("numeric.diagonalization_residual")
        m = {
            "element.mul_ms": view.mean_ms("element.mul"),
            "element.trace_ms": view.mean_ms("element.trace"),
            "element.norm_ms": view.mean_ms("element.norm"),
            "element.inverse_ms": view.mean_ms("element.inverse"),
            "element.char_poly_ms": view.mean_ms("element.char_poly"),
            "field.arithmetic_matrix_ms": view.mean_ms("field.arithmetic_matrix"),
            "field.arithmetic_matrix_calls": view.count("field.arithmetic_matrix") / trials,
            "polyring.det_ms": view.mean_ms("polyring.det_exact", "element.norm"),
            "polyring.inverse_ms": view.mean_ms("polyring.ExactMatrix.inverse", "element.inverse"),
            "fastmul.mul_via_fft_ms": view.mean_ms("fastmul.mul_via_fft"),
            "fastmul.exact_convolve_ms": view.mean_ms("fastmul.exact_convolve"),
            "numeric.diagonalization_residual_ms": view.mean_ms("numeric.diagonalization_residual"),
            "numeric.embedding_builds": view.count("numeric.EmbeddingData.__init__") / certificates,
            "numeric.basis_change_builds": view.count(
                "field.basis_change_matrix", "numeric.EmbeddingData.__init__"
            ) / certificates,
            "numeric.certificate_misses": sum(1 for r in reasons if r == "certificate"),
            "field.make_field_pool_ms": setup_view.mean_ms("field.make_field"),
            "ring.pool_replacements": sum(self.replacements.values()),
        }
        m.update(view.layer_self_ms("ring", ("element", "field", "polyring", "fastmul", "numeric"), trials))
        return m


# ----------------------------------------------------------------------
# fields: make_field on pairs of known outcome, and bundled table rows
# ----------------------------------------------------------------------


class Fields:
    """Field construction with a known outcome, interleaved with table-row checks."""

    name = "fields"
    # Requests per degree and kind, plus one pass over the 152 bundled rows.
    COUNTS = {
        "eisenstein": {**{n: 10 for n in range(2, 6)}, **{n: 20 for n in range(6, 12)}, 12: 30},
        "reducible": {**{n: 4 for n in range(2, 12)}, 12: 8},
        "square": {n: 4 for n in range(2, 13)},
        "divisibility": {n: 5 for n in range(2, 13)},
    }
    ROW_PASSES = 1
    EXPECTED = {
        "eisenstein": None,
        "reducible": "ReducibleFormError",
        "square": "ZeroDiscriminantError",
        "divisibility": "DivisibilityError",
    }
    KNOWN_DEFECTS = {"eisenstein-rejected"}
    expected_errors = (errors.ArithmatError,)
    SCALE_BY = "spin"
    SETUP_SCALE_BY = "interpreter"
    CONTROL_EVERY_S = CONTROL_EVERY_S

    def __init__(self, seed: int, seconds: int, root: Path):
        rng = random.Random(f"fields:{seed}")
        plan = []
        for kind, per_degree in self.COUNTS.items():
            for n, count in per_degree.items():
                for k in range(scaled(count, seconds)):
                    plan.append(("make_field", kind, self._form(rng, kind, n, k)))
        rows = search.load_bundled_table("quartic") + search.load_bundled_table("quintic")
        for _ in range(scaled(self.ROW_PASSES, seconds)):
            plan += [("row", "row", row) for row in rows]
        rng.shuffle(plan)
        self.plan = plan

    @staticmethod
    def _form(rng: random.Random, kind: str, n: int, k: int):
        """The k-th form of a kind and degree; primes cycle so every seed has the same mix."""
        p, q = PRIMES[k % 4], PRIMES[(k + 1) % 4]
        if kind == "eisenstein":
            return 1, eisenstein(rng, n, p)
        if kind == "reducible":
            if n == 2:
                r1, r2 = rng.sample((-4, -3, -2, -1, 1, 2, 3, 4), 2)
                return 1, poly_mul([1, r1], [1, r2])
            d1 = max(1, (n - 1) // 2)
            f1 = linear(rng) if d1 == 1 else eisenstein(rng, d1, p, monic=True, height=1)
            return 1, poly_mul(f1, eisenstein(rng, n - d1, q, monic=True, height=1))
        if kind == "square":
            d = n // 2
            g = linear(rng) if d == 1 else eisenstein(rng, d, p, monic=True, height=1)
            cs = poly_mul(g, g)
            return 1, poly_mul(cs, linear(rng)) if n % 2 else cs
        a0 = (2, 3)[k % 2]
        cs = eisenstein(rng, n, p)
        cs[0] = rng.choice([c for c in range(1, 10) if c % p and c % (a0 * a0)])
        return a0, cs

    def setup(self) -> None:
        self.requests = []
        for op, kind, data in self.plan:
            if op == "row":
                self.requests.append((op, kind, data, [data]))
            else:
                a0, cs = data
                self.requests.append((op, kind, data, EssentialPair(a0, BinaryForm(cs))))
        for kind in self.EXPECTED:
            self.run(next(r for r in self.requests if r[1] == kind and len(r[2][1]) == 5))
        self.run(next(r for r in self.requests if r[0] == "row"))

    def run(self, request):
        op, _kind, _data, arg = request
        if op == "row":
            return search.verify_tables(arg)
        try:
            return make_field(arg)
        except errors.ArithmatError as exc:
            return exc

    def check(self, request, outcome):
        op, kind, data, _arg = request
        if op == "row":
            return None if outcome.ok and outcome.rows_checked == 1 else "row"
        a0, cs = data
        expected = self.EXPECTED[kind]
        if expected is None:
            if isinstance(outcome, errors.ReducibleFormError) and len(cs) > 6:
                return "eisenstein-rejected"
            if isinstance(outcome, Exception):
                return f"{kind}:{type(outcome).__name__}"
            if outcome.n != len(cs) - 1 or outcome.disc != disc_oracle(cs) // (a0 * a0):
                return f"{kind}:field"
            return None
        if type(outcome).__name__ != expected:
            return f"{kind}:{type(outcome).__name__}"
        return None

    def slice(self):
        """The first request of each (kind, degree), and every eighth table row."""
        seen = set()
        out = []
        rows = 0
        for request in self.requests:
            op, kind, data, _ = request
            if op == "row":
                rows += 1
                if rows % 8 == 1:
                    out.append(request)
            elif (kind, len(data[1])) not in seen:
                seen.add((kind, len(data[1])))
                out.append(request)
        return out

    def extra(self) -> dict:
        return {}

    def layer_metrics(self, view: SpanView, setup_view: SpanView, outcomes, reasons) -> dict:
        accepted = {i for i, s in view.select("field.make_field") if s[5] == ""}
        disc_in_accepted = 0
        for _, s in view.select("forms.form_discriminant"):
            parent = s[3]
            while parent is not None and view.spans[parent][0] != "field.make_field":
                parent = view.spans[parent][3]
            if parent in accepted:
                disc_in_accepted += 1
        m = {
            "field.make_field_ms": view.mean_ms("field.make_field"),
            "forms.form_discriminant_ms": view.mean_ms("forms.form_discriminant"),
            "forms.form_discriminant_calls": disc_in_accepted / len(accepted),
            "forms.is_irreducible_ms": view.mean_ms("forms.is_irreducible"),
            "forms.irreducibility_certificate_ms": view.mean_ms("forms.irreducibility_certificate"),
            "forms.undecided": sum(
                1 for _, s in view.select("forms.irreducibility_certificate", "field.make_field")
                if s[5] is None
            ),
            "polyring.det_bareiss_ms": view.mean_ms("polyring.det_bareiss", "forms.form_discriminant"),
            "search.verify_tables_row_ms": view.mean_ms("search.verify_tables"),
            "fields.eisenstein_rejected": sum(1 for r in reasons if r == "eisenstein-rejected"),
        }
        m.update(view.layer_self_ms("fields", ("forms", "polyring"), len(reasons)))
        return m


# ----------------------------------------------------------------------
# search: one essential-pair box per request
# ----------------------------------------------------------------------


def box_points(disc: int, degree: int, height: int, a0_max: int) -> int:
    """Coefficient tuples the search visits: a1, a2 and the free coefficients."""
    total = 0
    for a0 in range(1, a0_max + 1):
        box = height * a0 * a0
        a2_values = len(range(-box, box + 1, a0))
        total += height * a2_values * (2 * box + 1) ** (degree - 1)
    return total


class Search:
    """Documented and seeded search boxes at jobs = number of usable cores."""

    name = "search"
    FIXED = {
        "doc-quartic-513": (513, 4, 4, 2),
        "doc-quartic-275": (-275, 4, 2, 1),
        "quartic-h8": (-275, 4, 8, 1),
        "quintic-h2": (-4511, 5, 2, 1),
    }
    # Boxes per run: the median sits in the middle of the quartic-h8 block and
    # the tail percentile in the middle of the quintic block.
    COUNTS = {
        "doc-quartic-513": 4,
        "quintic-h2": 14,
        "quartic-h8": 20,
        "doc-quartic-275": 8,
        "cubic": 6,
        "quadratic": 6,
    }
    SEEDED = {"cubic": (3, 10), "quadratic": (2, 30)}
    KNOWN_DEFECTS: set = set()
    expected_errors: tuple = ()
    # The candidate loops are small-integer code; the Fraction spin does not
    # track them (scaling by it widened the spread), the integer spin does.
    SCALE_BY = "int_spin"
    SETUP_SCALE_BY = "interpreter"
    CONTROL_EVERY_S = CONTROL_EVERY_S

    def __init__(self, seed: int, seconds: int, root: Path):
        rng = random.Random(f"search:{seed}")
        self.jobs = len(os.sched_getaffinity(0))
        table = search.load_bundled_table("quartic") + search.load_bundled_table("quintic")
        plan = []
        for kind, count in self.COUNTS.items():
            for _ in range(scaled(count, seconds)):
                if kind in self.FIXED:
                    box = self.FIXED[kind]
                    disc, degree, height, a0_max = box
                    expected = [
                        (a0, cs) for d, a0, cs in table
                        if d == disc and a0 <= a0_max and pair_validates(a0, cs, disc, degree, height)
                    ]
                else:
                    degree, height = self.SEEDED[kind]
                    cs = boxed_eisenstein(rng, degree, height)
                    box = (disc_oracle(cs), degree, height, 1)
                    expected = [(1, tuple(cs))]
                plan.append((kind, box, expected))
        rng.shuffle(plan)
        self.plan = plan

    def setup(self) -> None:
        self.requests = self.plan
        search.search_essential_pairs(-275, 4, 1, 1, jobs=self.jobs)

    def run(self, request):
        return search.search_essential_pairs(*request[1], jobs=self.jobs)

    def check(self, request, outcome):
        _kind, (disc, degree, height, a0_max), expected = request
        found = [(p.a0, p.form.coeffs) for p in outcome]
        if found != sorted(set(found)):
            return "order"
        if any(a0 > a0_max or not pair_validates(a0, cs, disc, degree, height) for a0, cs in found):
            return "invalid-pair"
        if not set(expected) <= set(found):
            return "missing-pair"
        return None

    def slice(self):
        """The first box of each kind."""
        seen = set()
        out = []
        for request in self.requests:
            if request[0] not in seen:
                seen.add(request[0])
                out.append(request)
        return out

    def extra(self) -> dict:
        return {"jobs": self.jobs}

    def layer_metrics(self, view: SpanView, setup_view: SpanView, outcomes, reasons) -> dict:
        boxes = view.count("search.search_essential_pairs")
        box_ns = sum(s[2] - s[1] for _, s in view.select("search.search_essential_pairs"))
        points = sum(box_points(*request[1]) for request in self.slice())
        m = {
            "search.box_ms": box_ns / boxes / 1e6,
            "search.box_points": points / boxes,
            "search.points_per_s": points / (box_ns / 1e9),
            "search.pairs_found": sum(len(o) for o in outcomes) / boxes,
            "forms.is_irreducible_calls": view.count("forms.is_irreducible") / boxes,
        }
        m.update(view.layer_self_ms("search", ("search", "forms", "polyring"), boxes))
        return m


# ----------------------------------------------------------------------
# cli: one fresh `python -m arithmat.cli` process per request
# ----------------------------------------------------------------------

LOADED = "import sys, arithmat.cli; print(int('numpy' in sys.modules))"
README_PAIRS = ("1:1,1,-1", "1:1,1,0,-2,-1", "2:4,-2,-3,1,1")
TABLE_FILES = {"quartic": "table1_quartic.txt", "quintic": "table2_quintic.txt"}


class Cli:
    """The README's subcommands in round-robin, each in a fresh interpreter."""

    name = "cli"
    KINDS = (
        "disc", "matrix", "mul", "mul-fft", "inv", "norm", "trace", "charpoly",
        "search", "syzygy", "diag-check", "bench", "verify-tables",
    )
    ROUNDS = 6
    KNOWN_DEFECTS: set = set()
    expected_errors: tuple = ()
    # A request is a process start, which the bare interpreter tracks.
    SCALE_BY = "interpreter"
    SETUP_SCALE_BY = "interpreter"
    CONTROL_EVERY_S = {**CONTROL_EVERY_S, "interpreter": 0.4}

    def __init__(self, seed: int, seconds: int, root: Path):
        rng = random.Random(f"cli:{seed}")
        self.root = root
        self.fields = {}
        plan = []
        for r in range(scaled(self.ROUNDS, seconds)):
            for kind in self.KINDS:
                plan.append((kind, self._argv(rng, kind, r)))
        self.plan = plan

    def _coords(self, rng, pair: str, nonzero: bool = False) -> str:
        n = len(pair.split(",")) - 1
        while True:
            xs = [rng.randint(-9, 9) for _ in range(n)]
            if any(xs) or not nonzero:
                return ",".join(map(str, xs))

    def _argv(self, rng: random.Random, kind: str, r: int) -> list[str]:
        pair = rng.choice(README_PAIRS)
        if kind == "disc":
            return ["disc", "--form=" + ",".join(map(str, eisenstein(rng, 4, rng.choice(PRIMES))))]
        if kind == "matrix":
            return ["matrix", f"--pair={pair}", f"--coords={self._coords(rng, pair)}"]
        if kind in ("mul", "mul-fft"):
            via = "fft" if kind == "mul-fft" else "matrix"
            return ["mul", f"--via={via}", f"--pair={pair}",
                    f"--a={self._coords(rng, pair)}", f"--b={self._coords(rng, pair)}"]
        if kind in ("inv", "norm", "trace", "charpoly"):
            return [kind, f"--pair={pair}", f"--a={self._coords(rng, pair, nonzero=True)}"]
        if kind == "search":
            return ["search", "--disc=-275", "--degree=4", "--height=2", "--max-a0=1"]
        if kind == "syzygy":
            degree = 3 if r % 2 else 4
            form = ",".join(map(str, eisenstein(rng, degree, rng.choice(PRIMES))))
            return ["syzygy", f"--{'cubic' if degree == 3 else 'quartic'}={form}"]
        if kind == "diag-check":
            return ["diag-check", f"--pair={pair}", f"--coords={self._coords(rng, pair)}"]
        if kind == "bench":
            return ["bench", f"--size={rng.choice((4, 6, 8))}", "--algo=ww"]
        name = "quintic" if r % 2 else "quartic"
        return ["verify-tables", f"--file=src/arithmat/data/{TABLE_FILES[name]}"]

    def setup(self) -> None:
        self.requests = self.plan
        self.run(self.requests[0])

    def run(self, request):
        done = subprocess.run(
            [sys.executable, "-m", "arithmat.cli", *request[1]],
            cwd=self.root, capture_output=True, text=True, check=False,
        )
        return done.returncode, done.stdout

    @staticmethod
    def run_in_process(request):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.run_command(list(request[1]))
        return code, out.getvalue()

    def _field(self, pair: str):
        if pair not in self.fields:
            self.fields[pair] = make_field(EssentialPair.from_text(pair))
        return self.fields[pair]

    def check(self, request, outcome):
        kind, argv = request
        code, stdout = outcome
        if code != 0:
            return f"{kind}:exit{code}"
        try:
            return None if self._expected(kind, argv, stdout.strip()) else f"{kind}:output"
        except (ValueError, errors.ArithmatError):
            return f"{kind}:unparsable"

    def _expected(self, kind: str, argv: list[str], out: str) -> bool:
        opts = dict(a[2:].split("=", 1) for a in argv[1:])
        if kind == "disc":
            return out == str(disc_oracle([int(c) for c in opts["form"].split(",")]))
        if kind == "syzygy":
            return out == "PASS"
        if kind == "search":
            pairs = [EssentialPair.from_text(line) for line in out.splitlines()]
            found = {(p.a0, p.form.coeffs) for p in pairs}
            return (1, (1, 1, 0, -2, -1)) in found and all(
                pair_validates(a0, cs, -275, 4, 2) for a0, cs in found
            )
        if kind == "bench":
            m, algo, mults, _adds, _ns = out.split(",")
            return m == opts["size"] and algo == "ww" and int(mults) == fastmul.ww_mult_count(int(m))
        if kind == "verify-tables":
            rows = 52 if "quintic" in opts["file"] else 100
            return out == f"checked {rows} rows: all passed"
        F = self._field(opts["pair"])
        if kind == "diag-check":
            return float(out) < RESIDUAL_BOUND
        if kind == "matrix":
            alpha = F.element([int(c) for c in opts["coords"].split(",")])
            M = arithmetic_matrix(F, alpha, method="substitution")
            return out == repr(M)
        a = F.element([int(c) for c in opts["a"].split(",")])
        if kind in ("mul", "mul-fft"):
            b = F.element([int(c) for c in opts["b"].split(",")])
            oracle = fastmul.mul_via_fft if opts["via"] == "matrix" else element.mul
            return out == oracle(F, a, b).text()
        if kind == "inv":
            return element.mul(F, a, Element.from_text(F, out)) == F.one()
        if kind == "norm":
            return out == format_rational(element.norm_resultant_oracle(F, a))
        if kind == "trace":
            return out == format_rational(trace_formula(F, a.coords))
        cs = [Fraction(c) for c in out.split(",")]
        n = F.n
        return (
            len(cs) == n + 1 and cs[n] == 1
            and cs[0] == (-1) ** n * element.norm_resultant_oracle(F, a)
            and cs[n - 1] == -trace_formula(F, a.coords)
        )

    def _python(self, code: str):
        """Wall ms and stdout of `python -c code` in the benchmark environment."""
        start = time.perf_counter()
        done = subprocess.run([sys.executable, "-c", code], cwd=self.root, capture_output=True,
                              text=True, check=True)
        return (time.perf_counter() - start) * 1e3, done.stdout.strip()

    def slice(self):
        """One round: each subcommand once."""
        return self.requests[: len(self.KINDS)]

    def extra(self) -> dict:
        return {}

    def layer_metrics(self, view: SpanView, setup_view: SpanView, outcomes, reasons) -> dict:
        imports = [self._python("import arithmat.cli") for _ in range(5)]
        m = {
            "cli.run_command_ms": view.mean_ms("cli.run_command"),
            "cli.import_ms": statistics.median(t for t, _ in imports),
            "cli.numpy_loaded": int(self._python(LOADED)[1]),
            "cli.exit_nonzero": sum(1 for r in self.slice() if self.run(r)[0] != 0),
        }
        requests = self.slice()
        for kind in self.KINDS:
            spans = [s for _, s in view.select("cli.run_command") if requests[s[4]][0] == kind]
            m[f"cli.run_command.{kind}_ms"] = sum(s[2] - s[1] for s in spans) / len(spans) / 1e6
        m.update(view.layer_self_ms("cli", ("cli", "polyring", "forms", "covariants"), len(reasons)))
        return m


WORKLOADS = {w.name: w for w in (Ring, Fields, Search, Cli)}
