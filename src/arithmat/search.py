"""Essential-pair search, table verification, element-based construction.

The search enumerates coefficient boxes |a_i| <= height * a0^2 for each
scale factor a0, keeping forms whose discriminant is exactly disc * a0^2,
that satisfy the divisibility conditions, and that are irreducible.  Only
the half of a box with a2 >= 0 is visited: each irreducible hit B(x, y)
also yields its mirror B(x, -y), the same coefficients with a2, a4, ...
negated.  The substitution y -> -y has determinant -1, and
disc(B o g) = det(g)^(n(n-1)) disc(B) with n(n-1) even, so the mirror has
the same discriminant; it is irreducible exactly when B is, since
B(x, 1) = f(x) factors exactly when f(-x) does; and it keeps a1 and |a2|,
so a0^2 | a1, a0 | a2 and the box bounds hold for it too.  The
inner loops run on plain integers.  Degree 2 solves for the last
coefficient directly.  Degrees 3 and 4 list the integer points of the
Mordell curve Y^2 = 4X^3 - k that the box can reach, with k = 27*a^2*disc
(Cayley's cubic syzygy at (1, 0)) or k = 27*disc (4I^3 - J^2 = 27*disc
for quartics), and solve each point for the last two coefficients.  The
point scan skips the X whose 4X^3 - k is not a square mod 64, 63 or 65.
A quartic's k does not depend on a1, so its points are listed once per a0,
at the bound of the largest a1; and since I = c^2 (mod 3) and
J = -2c^3 (mod 9), they are bucketed by the class of c mod 3 they can
serve, and each c meets only its own bucket.
Degree 5 uses the explicit quintic discriminant and tries as the last
coefficient only the divisors of the polynomial's constant term that lie
in the box (rational root theorem).  The generators yield their hits in
no particular order; the (a0, a1) slices of the box run in order and the
results are sorted.  The b = 0 slice holds both B and its mirror, so only
the smaller of the two is decided, and it adds both.  The ``jobs`` argument is accepted and
ignored: the loops hold the interpreter lock, so a thread pool measured
slower than one thread.
"""

from __future__ import annotations

from math import gcd, isqrt, lcm

from .element import char_poly, inverse, is_integral, norm, trace
from .errors import (
    ArithmatError,
    DegenerateElementError,
    ReducibleFormError,
    UnsupportedDegreeError,
)
from .field import Element, EssentialPair, NumberField, check_scale, field_with_discriminant
from .forms import (
    BinaryForm,
    form_discriminant,
    irreducibility_certificate,
    is_irreducible,
)
from .polyring import poly_discriminant


class _Divisors(dict):
    """The nonzero x of rng that divide g, in rng order, keyed by g.

    The quintic generator fixes every coefficient but the last, x, which
    leaves disc - target as an integer polynomial P(x).  A nonzero integer
    root of P divides P(0) (rational root theorem), and one with |x| <= B
    divides lcm(1..B) too, so it is among self[gcd(P(0), self.lcm)].  When
    P(0) = 0 that gcd is the lcm itself, and every x is tried.
    """

    def __init__(self, rng):
        super().__init__()
        self.rng = rng
        self.lcm = lcm(*range(1, max(map(abs, rng), default=0) + 1))

    def __missing__(self, g):
        xs = self[g] = [x for x in self.rng if x and not g % x]
        return xs


# The squares modulo 64, 63 and 65 (Cohen, GTM 138, Alg. 1.7.3), and 4X^3
# mod m for X = 0 .. m - 1.
_SQUARES = {m: frozenset(y * y % m for y in range(m)) for m in (64, 63, 65)}
_CUBES4 = {m: [4 * x**3 % m for x in range(m)] for m in _SQUARES}


def _square_classes(k, m):
    """Whether 4X^3 - k can be a square mod m, for X = 0 .. m - 1."""
    k %= m
    squares = _SQUARES[m]
    return [(c - k) % m in squares for c in _CUBES4[m]]


def _mordell_points(k, xmax):
    """The integer points (X, Y), Y >= 0, of Y^2 = 4X^3 - k with |X| <= xmax."""
    # bisect for the least X with 4X^3 >= k; below it 4X^3 - k is negative
    lo, hi = -xmax, xmax + 1
    while lo < hi:
        mid = (lo + hi) // 2
        if 4 * mid**3 >= k:
            hi = mid
        else:
            lo = mid + 1
    # 4X^3 - k mod m depends on X mod m only: step over the classes mod 64
    # that can give a square, and look X mod 63 and mod 65 up before isqrt
    ok64, ok63, ok65 = (_square_classes(k, m) for m in (64, 63, 65))
    steps = [r for r in range(64) if ok64[r]]
    points = []
    for base in range(lo - lo % 64, xmax + 1, 64):
        for r in steps:
            x = base + r
            if ok63[x % 63] and ok65[x % 65] and lo <= x <= xmax:
                v = 4 * x * x * x - k
                y = isqrt(v)
                if y * y == v:
                    points.append((x, y))
    return points


def _signed_points(k, xmax):
    """(X, J) for J = +-Y over the points of _mordell_points, Y = 0 once."""
    return [(x, j) for x, y in _mordell_points(k, xmax) for j in ((y, -y) if y else (0,))]


def _cands_deg2(a1, a2_values, rng, target):
    for b in a2_values:
        c, rem = divmod(b * b - target, 4 * a1)
        if c and not rem and c in rng:
            yield (a1, b, c)


def _cands_deg3(a1, a2_values, rng, target):
    # Cayley's syzygy F^2 + 27 D C^2 = 4 Q^3 at (1, 0) makes (X, J) =
    # (b^2 - 3ac, 2b^3 - 9abc + 27a^2 d) a point of J^2 = 4X^3 - 27a^2 disc,
    # with |X| <= max|b|^2 + 3aB.  Each point gives c, then d, exactly.
    a = a1
    B = max(map(abs, rng), default=0)
    bmax = max(map(abs, a2_values), default=0)
    points = _signed_points(27 * a * a * target, bmax * bmax + 3 * a * B)
    a3 = 3 * a
    a27 = 27 * a * a
    for b in a2_values:
        b2 = b * b
        for x, j in points:
            c, rem = divmod(b2 - x, a3)
            if rem or c not in rng:
                continue
            d, rem = divmod(j - (2 * b2 - 9 * a * c) * b, a27)
            if d and not rem and d in rng:
                yield (a, b, c, d)


def _deg4_xmax(a, a2_values, rng):
    """The bound 12aB + 3 max|b| B + B^2 on |I| over the quartics of a box slice."""
    B = max(map(abs, rng), default=0)
    bmax = max(map(abs, a2_values), default=0)
    return 12 * a * B + 3 * bmax * B + B * B


def _cands_deg4(a1, a2_values, rng, target, points):
    # The invariants I = 12ae - 3bd + c^2 and J of quartic_invariants satisfy
    # 4I^3 - J^2 = 27 disc, so (I, J) is a point of J^2 = 4X^3 - 27 disc with
    # |I| <= _deg4_xmax.  ``points`` lists them, up to that or a larger bound: d
    # and e are checked against rng, so a point out of this slice's reach
    # yields nothing.  I - c^2 = 3(4ae - bd) and
    # J + 2c^3 = 9(8ace + bcd - 3ad^2 - 3eb^2), so c only meets the points
    # with X = c^2 mod 3 and J = -2c^3 mod 9, a class that depends on c mod 3.
    # Given (b, c) and a point (X, J), e = (X - c^2 + 3bd) / (12a), and J
    # becomes a quadratic in d:
    #   -108a^2 d^2 + 27b(4ac - b^2) d + 3(8ac - 3b^2)(X - c^2) - 8ac^3 - 4aJ = 0,
    # whose discriminant is s0 + s1 X - s2 J and whose roots are
    # (lin -+ sqrt(s)) / (216a^2).
    a = a1
    by_class = [[], [], []]
    for x, j in points:
        for r in range(3):
            if (x - r * r) % 3 == 0 and (j + 2 * r**3) % 9 == 0:
                by_class[r].append((x, j))
    cs = [c for c in rng if by_class[c % 3]]
    aa = a * a
    den = 216 * aa
    a12 = 12 * a
    s2 = 1728 * aa * a
    for b in a2_values:
        b2 = b * b
        b3 = 3 * b
        for c in cs:
            c2 = c * c
            lin = 27 * b * (4 * a * c - b2)
            q = 3 * (8 * a * c - 3 * b2)
            s0 = lin * lin - 432 * aa * c2 * (q + 8 * a * c)
            s1 = 432 * aa * q
            for x, j in by_class[c % 3]:
                s = s0 + s1 * x - s2 * j
                if s < 0:
                    continue
                r = isqrt(s)
                if r * r != s:
                    continue
                for num in {lin - r, lin + r}:
                    d, rem = divmod(num, den)
                    if rem or d not in rng:
                        continue
                    e, rem = divmod(x - c2 + b3 * d, a12)
                    if e and not rem and e in rng:
                        yield (a, b, c, d, e)


def _cands_deg5(a1, a2_values, rng, target):
    # disc = K4 f^4 + K3 f^3 + K2 f^2 + K1 f + K0 with K4 = 3125 a^4 and
    # K_i = sum_j kij e^j; each kij is a polynomial in d whose coefficients
    # kij_m (of d^m) are set in the loop over the last coefficient they use.
    # K0 = e^2 disc(a, b, c, d, e): k05..k02 are the quartic discriminant's
    # coefficients of e^3..e^0.
    a = a1
    aa = a * a
    a3 = aa * a
    K4 = 3125 * aa * aa
    k05 = 256 * a3
    k02_4 = -27 * aa
    k10_5 = 108 * aa
    k13_1 = -1600 * a3
    k21_2 = 2250 * a3
    divisors = _Divisors(rng)
    L = divisors.lcm
    for b in a2_values:
        b2 = b * b
        b4 = b2 * b2
        ab = a * b
        aab = aa * b
        k04_1 = -192 * aab
        k12_2 = 1020 * aab
        k20_3 = -900 * aab
        k31 = -2500 * a3 * b
        for c in rng:
            c2 = c * c
            c3 = c2 * c
            ac = a * c
            t = 4 * ac - b2
            k04_0 = -128 * aa * c2 + 144 * ab * b * c - 27 * b4
            k03_2 = 6 * a * (24 * ac - b2)
            k03_1 = -2 * b * c * (40 * ac - 9 * b2)
            k03_0 = 4 * c3 * t
            k02_3 = 2 * b * (9 * ac - 2 * b2)
            k02_2 = -c2 * t
            k10_4 = -8 * b * (9 * ac - 2 * b2)
            k10_3 = 4 * c2 * t
            k11_3 = -6 * a * (105 * ac - 4 * b2)
            k11_2 = 4 * b * c * (89 * ac - 20 * b2)
            k11_1 = -18 * c3 * t
            k12_1 = 2 * (280 * aa * c2 - 373 * ab * b * c + 72 * b4)
            k12_0 = 6 * b * c2 * t
            k13_0 = 4 * ab * (40 * ac - 9 * b2)
            k20_2 = 825 * aa * c2 + 560 * ab * b * c - 128 * b4
            k20_1 = -18 * b * c2 * (35 * ac - 8 * b2)
            k20_0 = 27 * c2 * c2 * t
            k21_1 = -10 * ab * (205 * ac - 16 * b2)
            k21_0 = -12 * c * (75 * aa * c2 - 85 * ab * b * c + 16 * b4)
            k22 = 50 * aa * (40 * ac - b2)
            k30_1 = -250 * aa * (15 * ac - 8 * b2)
            k30_0 = 2 * b * (1125 * aa * c2 - 800 * ab * b * c + 128 * b4)
            for d in rng:
                dd = d * d
                k04 = k04_1 * d + k04_0
                k03 = (k03_2 * d + k03_1) * d + k03_0
                k02 = dd * ((k02_4 * d + k02_3) * d + k02_2)
                k10 = dd * d * ((k10_5 * d + k10_4) * d + k10_3)
                k11 = d * ((k11_3 * d + k11_2) * d + k11_1)
                k12 = (k12_2 * d + k12_1) * d + k12_0
                k13 = k13_1 * d + k13_0
                k20 = ((k20_3 * d + k20_2) * d + k20_1) * d + k20_0
                k21 = (k21_2 * d + k21_1) * d + k21_0
                k30 = k30_1 * d + k30_0
                for e in rng:
                    k0 = e * e * (((k05 * e + k04) * e + k03) * e + k02) - target
                    fs = divisors[gcd(k0, L)]
                    if fs:
                        k1 = ((k13 * e + k12) * e + k11) * e + k10
                        k2 = (k22 * e + k21) * e + k20
                        k3 = k31 * e + k30
                        for f in fs:
                            if (((K4 * f + k3) * f + k2) * f + k1) * f + k0 == 0:
                                yield (a, b, c, d, e, f)


_CANDIDATE_GENS = {2: _cands_deg2, 3: _cands_deg3, 4: _cands_deg4, 5: _cands_deg5}


def _mirror(coeffs):
    """The coefficients of B(x, -y): every odd-index one changes sign."""
    return tuple(-c if i % 2 else c for i, c in enumerate(coeffs))


def search_essential_pairs(
    disc: int, degree: int, height: int, a0_max: int, jobs: int = 1
) -> list[EssentialPair]:
    """All essential pairs for the given discriminant inside the search box.

    For each a0 up to a0_max the box is |a_i| <= height * a0^2 with a1 > 0
    restricted to multiples of a0^2 and a2 to multiples of a0.  The
    candidate loops run over a2 >= 0 only, and each irreducible hit adds its
    mirror B(x, -y) (a2, a4, ... negated), which has the same discriminant,
    is irreducible with it, and meets the same divisibility conditions and
    bounds (see the module docstring).  In the b = 0 slice, which holds both
    members of a mirror pair, only the smaller one is decided and adds both,
    and a form that is its own mirror is added once.  Results are sorted by
    (a0, coefficients); an empty list is a valid outcome.
    ``jobs`` is accepted for compatibility and ignored.
    """
    if degree not in _CANDIDATE_GENS:
        raise UnsupportedDegreeError("search supports degrees 2 to 5")
    if height < 1:
        raise ValueError("height must be >= 1")
    if a0_max < 1:
        raise ValueError("a0_max must be >= 1")
    gen = _CANDIDATE_GENS[degree]

    results = []
    for a0 in range(1, a0_max + 1):
        target = disc * a0 * a0
        box = height * a0 * a0
        # the half a2 >= 0 still holds b = box, so the cubic and quartic point
        # bounds, which use max|b|, are those of the whole box
        a2_values = list(range(0, box + 1, a0))
        rng = range(-box, box + 1)
        extra = {}
        if degree == 4:
            # k = 27 * target is the same for every a1 slice: list the curve's
            # points once, up to the bound of the largest a1
            xmax = _deg4_xmax(box, a2_values, rng)
            extra["points"] = _signed_points(27 * target, xmax)
        for t in range(1, height + 1):
            for coeffs in gen(t * a0 * a0, a2_values, rng, target, **extra):
                mirror = _mirror(coeffs)
                if coeffs[1] == 0 and mirror < coeffs:
                    continue  # the b = 0 slice holds both: the smaller adds them
                if is_irreducible(BinaryForm(coeffs), target):
                    results.append((a0, coeffs))
                    if mirror != coeffs:
                        results.append((a0, mirror))

    # Each pair validates by construction: a0^2 | a1 and a0 | a2 by the box
    # steps, disc = disc * a0^2 by the candidate loop, irreducible by the
    # check, and the mirrors by the symmetry in the module docstring.
    return [EssentialPair(a0, BinaryForm(coeffs)) for a0, coeffs in sorted(results)]


# ----------------------------------------------------------------------
# Table verification
# ----------------------------------------------------------------------


class TableReport:
    """Outcome of checking table rows: failures hold (row index, row, reason)."""

    def __init__(self):
        self.rows_checked = 0
        self.failures: list[tuple[int, tuple, str]] = []

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
    """Parse fixture lines 'disc;a0;a1,a2,...' (blank lines and # comments skipped).

    A line of any other shape raises ValueError naming its line number and text.
    """
    rows = []
    for number, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            disc_s, a0_s, coeff_s = line.split(";")
            rows.append((int(disc_s), int(a0_s), tuple(int(c) for c in coeff_s.split(","))))
        except ValueError:
            raise ValueError(
                f"line {number}: expected 'disc;a0;a1,a2,...', got {line!r}"
            ) from None
    return rows


def verify_tables(rows: list[tuple[int, int, tuple[int, ...]]]) -> TableReport:
    """Recheck every row: the exact discriminant, then `make_field`'s checks
    (`check_scale`, `field_with_discriminant`), whose error message is the reason."""
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
        pair = EssentialPair(a0, B)
        try:
            check_scale(pair)
            field_with_discriminant(pair, D)
        except ArithmatError as exc:
            report.failures.append((idx, row, str(exc)))
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
    pair = EssentialPair(a0, BinaryForm(g.coeffs))
    check_scale(pair)
    try:
        # the reversed form has the characteristic polynomial's discriminant,
        # so the field it defines has discriminant D / a0^2 = F.disc
        field_with_discriminant(pair, D)
    except ReducibleFormError:
        # a degree-n element proves its minimal polynomial irreducible even
        # when no modular certificate exists (possible only for degree >= 6)
        if irreducibility_certificate(pair.form, D) is False:
            raise
    return pair
