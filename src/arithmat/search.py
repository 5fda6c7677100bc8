"""Essential-pair search, table verification, element-based construction.

The search enumerates coefficient boxes |a_i| <= height * a0^2 for each
scale factor a0, keeping forms whose discriminant is exactly disc * a0^2,
that satisfy the divisibility conditions, and that are irreducible.  The
inner loops run on plain integers with per-degree discriminant formulas
(Horner in the last coefficient), falling back to the Sylvester determinant
for degree 5.  The box may be sharded over worker threads; results are
merged and sorted so the output is independent of the sharding.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field as dataclass_field
from math import isqrt

from .element import char_poly, inverse, is_integral, norm, trace
from .errors import (
    ArithmatError,
    DegenerateElementError,
    ReducibleFormError,
    UnsupportedDegreeError,
)
from .field import Element, EssentialPair, NumberField, make_field
from .forms import (
    BinaryForm,
    coeffs_discriminant,
    form_discriminant,
    irreducibility_certificate,
    is_irreducible,
)
from .polyring import poly_discriminant


def _cands_deg2(a1, a2_values, rng, target):
    a = a1
    for b in a2_values:
        b2 = b * b
        for c in rng:
            if c and b2 - 4 * a * c == target:
                yield (a, b, c)


def _cands_deg3(a1, a2_values, rng, target):
    a = a1
    k2 = -27 * a * a
    for b in a2_values:
        b2 = b * b
        b3 = b2 * b
        for c in rng:
            k0 = b2 * c * c - 4 * a * c**3
            k1 = 18 * a * b * c - 4 * b3
            for d in rng:
                if d and (k2 * d + k1) * d + k0 == target:
                    yield (a, b, c, d)


def _cands_deg4(a1, a2_values, rng, target):
    a = a1
    aa = a * a
    k3 = 256 * aa * a
    r2 = -27 * aa
    for b in a2_values:
        b2 = b * b
        b3 = b2 * b
        k2d = -192 * aa * b
        for c in rng:
            c2 = c * c
            c3 = c2 * c
            k2b = -128 * aa * c2 + 144 * a * b2 * c - 27 * b2 * b2
            q2 = 144 * aa * c - 6 * a * b2
            q1 = -80 * a * b * c2 + 18 * b3 * c
            q0 = 16 * a * c2 * c2 - 4 * b2 * c3
            r1 = 18 * a * b * c - 4 * b3
            r0 = -4 * a * c3 + b2 * c2
            for d in rng:
                d2 = d * d
                k2 = k2d * d + k2b
                k1 = (q2 * d + q1) * d + q0
                k0 = d2 * ((r2 * d + r1) * d + r0)
                for e in rng:
                    if e and ((k3 * e + k2) * e + k1) * e + k0 == target:
                        yield (a, b, c, d, e)


def _cands_deg5(a1, a2_values, rng, target):
    for b in a2_values:
        for c in rng:
            for d in rng:
                for e in rng:
                    for f in rng:
                        if f and coeffs_discriminant((a1, b, c, d, e, f)) == target:
                            yield (a1, b, c, d, e, f)


_CANDIDATE_GENS = {2: _cands_deg2, 3: _cands_deg3, 4: _cands_deg4, 5: _cands_deg5}


def search_essential_pairs(
    disc: int, degree: int, height: int, a0_max: int, jobs: int = 1
) -> list[EssentialPair]:
    """All essential pairs for the given discriminant inside the search box.

    For each a0 up to a0_max the box is |a_i| <= height * a0^2 with a1 > 0
    restricted to multiples of a0^2 and a2 to multiples of a0.  Results are
    sorted by (a0, coefficients) and deduplicated; an empty list is a valid
    outcome.
    """
    if degree not in _CANDIDATE_GENS:
        raise UnsupportedDegreeError("search supports degrees 2 to 5")
    if height < 1:
        raise ValueError("height must be >= 1")
    gen = _CANDIDATE_GENS[degree]

    tasks = []
    for a0 in range(1, a0_max + 1):
        target = disc * a0 * a0
        box = height * a0 * a0
        a2_values = list(range(-box, box + 1, a0))
        for t in range(1, height + 1):
            tasks.append((a0, t * a0 * a0, a2_values, box, target))

    def run(task) -> list[tuple[int, tuple[int, ...]]]:
        a0, a1, a2_values, box, target = task
        rng = range(-box, box + 1)
        out = []
        for coeffs in gen(a1, a2_values, rng, target):
            if is_irreducible(BinaryForm(coeffs), target):
                out.append((a0, coeffs))
        return out

    if jobs <= 1:
        results = [r for task in tasks for r in run(task)]
    else:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            results = [r for part in pool.map(run, tasks) for r in part]

    pairs = []
    for a0, coeffs in sorted(set(results)):
        pair = EssentialPair(a0, BinaryForm(coeffs))
        make_field(pair)  # every returned pair must validate
        pairs.append(pair)
    return pairs


# ----------------------------------------------------------------------
# Table verification
# ----------------------------------------------------------------------


@dataclass
class TableReport:
    """Outcome of checking table rows: failures hold (row index, row, reason)."""

    rows_checked: int = 0
    failures: list[tuple[int, tuple, str]] = dataclass_field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def lines(self) -> list[str]:
        out = [
            f"checked {self.rows_checked} rows: "
            + ("all passed" if self.ok else f"{len(self.failures)} failure(s)")
        ]
        for idx, row, reason in self.failures:
            disc, a0, coeffs = row
            out.append(
                f"  row {idx}: disc={disc} pair={a0}:{','.join(map(str, coeffs))} -- {reason}"
            )
        return out

    def __str__(self) -> str:
        return "\n".join(self.lines())


def parse_table_rows(text: str) -> list[tuple[int, int, tuple[int, ...]]]:
    """Parse fixture lines 'disc;a0;a1,a2,...' (blank lines and # comments skipped)."""
    rows = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        disc_s, a0_s, coeff_s = line.split(";")
        rows.append((int(disc_s), int(a0_s), tuple(int(c) for c in coeff_s.split(","))))
    return rows


def verify_tables(rows: list[tuple[int, int, tuple[int, ...]]]) -> TableReport:
    """Recheck every row: exact discriminant, divisibility, irreducibility."""
    report = TableReport()
    for idx, row in enumerate(rows, start=1):
        disc, a0, coeffs = row
        report.rows_checked += 1
        try:
            B = BinaryForm(coeffs)
        except Exception as exc:
            report.failures.append((idx, row, f"bad form: {exc}"))
            continue
        D = form_discriminant(B)
        if D != disc * a0 * a0:
            report.failures.append(
                (idx, row, f"discriminant {D} != {disc} * {a0}^2 = {disc * a0 * a0}")
            )
            continue
        if coeffs[0] % (a0 * a0):
            report.failures.append((idx, row, f"a0^2 does not divide a1={coeffs[0]}"))
            continue
        if coeffs[1] % a0:
            report.failures.append((idx, row, f"a0 does not divide a2={coeffs[1]}"))
            continue
        if not is_irreducible(B, D):
            report.failures.append((idx, row, "form is reducible"))
    return report


def bundled_table_path(name: str):
    """Filesystem path of a bundled table fixture ('quartic' or 'quintic')."""
    from importlib.resources import files

    fname = {"quartic": "table1_quartic.txt", "quintic": "table2_quintic.txt"}[name]
    return files("arithmat.data").joinpath(fname)


def load_bundled_table(name: str) -> list[tuple[int, int, tuple[int, ...]]]:
    return parse_table_rows(bundled_table_path(name).read_text())


# ----------------------------------------------------------------------
# Essential pairs from elements
# ----------------------------------------------------------------------


def _integral(value, what: str) -> int:
    if value.denominator != 1:
        raise ArithmatError(f"integral element with a non-integral {what}: {value}")
    return int(value)


def essential_pair_from_element(F: NumberField, alpha: Element) -> EssentialPair | None:
    """Build an essential pair from a degree-n integral element, if one results.

    Requires the discriminant D of the element's characteristic polynomial to
    divide both disc * N and disc * (N * Tr(1/alpha))^2, and D / disc to be a
    perfect square; the form is the reversed homogenization x^n f(y/x) of the
    minimal polynomial.  Returns None when the conditions fail; raises for
    elements of degree < n (zero characteristic-polynomial discriminant).
    """
    g = char_poly(F, alpha)
    D = poly_discriminant(g)
    if D == 0:
        raise DegenerateElementError(
            "element generates a proper subfield (repeated characteristic roots)"
        )
    if not is_integral(F, alpha):
        return None
    D = _integral(D, "discriminant")
    n_val = _integral(norm(F, alpha), "norm")
    if (F.disc * n_val) % D:
        return None
    k = _integral(n_val * trace(F, inverse(F, alpha)), "N * Tr(1/alpha)")
    if (F.disc * k * k) % D:
        return None
    ratio, rem = divmod(D, F.disc)
    if rem or ratio <= 0:
        return None
    a0 = isqrt(ratio)
    if a0 * a0 != ratio:
        return None
    # x^n f(y/x): the form coefficients are the monic polynomial's, low first
    coeffs = [int(c) for c in g.coeffs]
    pair = EssentialPair(a0, BinaryForm(coeffs))
    try:
        built = make_field(pair)
    except ReducibleFormError:
        # a degree-n element proves its minimal polynomial irreducible even
        # when no modular certificate exists (possible only for degree >= 6)
        if F.n <= 5 or irreducibility_certificate(pair.form) is False:
            raise
        built = NumberField(pair, F.n, D // (a0 * a0))
    if built.disc != F.disc:
        raise ArithmatError(
            f"pair built from the element has discriminant {built.disc}, not {F.disc}"
        )
    return pair
