"""Integer binary forms: evaluation, discriminants, irreducibility.

A degree-n binary form is stored as its coefficient tuple (a1, ..., a_{n+1})
with a1 the coefficient of x^n and a_{n+1} the coefficient of y^n, as ints:
a coefficient whose exact value is not an integer raises
NonIntegerEntryError.  Both end coefficients must be nonzero, so the
dehomogenization B(x, 1) always has degree exactly n.
"""

from __future__ import annotations

import math

from .errors import UnsupportedDegreeError, ZeroPolynomialError
from .polyring import UniPoly, coeffs_discriminant, exact_int

# Primes used for the sufficient irreducibility accepts.  A form that is
# Eisenstein at one of these, or irreducible modulo one, is irreducible.
_ACCEPT_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


class BinaryForm:
    """Integer binary form a1*x^n + a2*x^(n-1)*y + ... + a_{n+1}*y^n."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        cs = tuple(exact_int(c, "form coefficient") for c in coeffs)
        if len(cs) < 3:
            raise UnsupportedDegreeError("binary forms need degree >= 2")
        if cs[0] == 0 or cs[-1] == 0:
            raise ZeroPolynomialError(
                "both end coefficients of a binary form must be nonzero"
            )
        self.coeffs = cs

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @classmethod
    def from_text(cls, text: str) -> BinaryForm:
        """Parse the 'a1,a2,...,a{n+1}' wire format (degree inferred)."""
        return cls([int(t) for t in text.split(",")])

    def text(self) -> str:
        return ",".join(str(c) for c in self.coeffs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, BinaryForm):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __neg__(self) -> BinaryForm:
        return BinaryForm(tuple(-c for c in self.coeffs))

    def __repr__(self) -> str:
        return f"BinaryForm({', '.join(str(c) for c in self.coeffs)})"

    def dehomogenized(self, var: str = "x") -> UniPoly:
        """B(x, 1) as an exact univariate polynomial."""
        return UniPoly(list(reversed(self.coeffs)), var)


def evaluate(B: BinaryForm, x: int, y: int) -> int:
    """Evaluate the form at an integer point."""
    n = B.degree
    total = 0
    for k, a in enumerate(B.coeffs, start=1):
        total += a * x ** (n + 1 - k) * y ** (k - 1)
    return total


def form_discriminant(B: BinaryForm) -> int:
    """Exact discriminant via the Bezout determinant of B(x,1) and its derivative."""
    return coeffs_discriminant(B.coeffs)


# ----------------------------------------------------------------------
# Irreducibility over the rationals
# ----------------------------------------------------------------------


def _primitive_monic_sign(cs: tuple[int, ...]) -> tuple[int, ...]:
    """Primitive part, normalized to positive leading coefficient (high index)."""
    g = math.gcd(*cs)  # nonzero: a form's end coefficients are
    out = tuple(c // g for c in cs)
    if out[-1] < 0:
        out = tuple(-c for c in out)
    return out


def _divisors(n: int) -> list[int]:
    n = abs(n)
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def _has_rational_root(cs: tuple[int, ...]) -> bool:
    # cs low-to-high, primitive, nonzero ends
    lead, const = cs[-1], cs[0]
    const_divisors = _divisors(const)
    for q in _divisors(lead):
        # c_k q^(n-k), high degree first
        scaled, qk = [], 1
        for c in reversed(cs):
            scaled.append(c * qk)
            qk *= q
        for p in const_divisors:
            if math.gcd(p, q) != 1:
                continue
            for sp in (p, -p):
                # f(sp/q) * q^n by homogeneous Horner, in integers
                acc = 0
                for c in scaled:
                    acc = acc * sp + c
                if acc == 0:
                    return True
    return False


# -- arithmetic in GF(p)[x], coefficient lists low-to-high, trimmed ------


def _gfp_trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _gfp_mulmod(a, b, f, p):
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    # reduce modulo monic f, taking residues once at the end
    df = len(f) - 1
    for k in range(len(out) - 1, df - 1, -1):
        c = out[k] % p
        if c:
            for j in range(df):
                out[k - df + j] -= c * f[j]
    return _gfp_trim([v % p for v in out[:df]])


def _gfp_gcd(a, b, p):
    a, b = list(a), list(b)
    while b:
        # a mod b with b made monic
        inv = pow(b[-1], p - 2, p)
        b = [(c * inv) % p for c in b]
        db = len(b) - 1
        while len(a) - 1 >= db and a:
            c = a[-1]
            da = len(a) - 1
            for j in range(db + 1):
                a[da - db + j] = (a[da - db + j] - c * b[j]) % p
            _gfp_trim(a)
        a, b = b, a
    return _gfp_trim(a)


def _gfp_is_irreducible(cs: tuple[int, ...], p: int) -> bool:
    """Irreducibility of the reduction f of cs modulo p, degree n preserved.

    Degree 1 is irreducible.  A root, found by evaluating f at each residue,
    is a linear factor.  Past that, f is irreducible exactly when
    gcd(x^(p^k) - x, f) = 1 for k = 2 .. n/2 (no factor of degree k,
    repeated ones included).  Row i of the Frobenius matrix Q is x^(ip) mod
    f, so h -> h^p is hQ; row 1, x^p mod f, takes p - n + 1 steps of
    multiplying by x and reducing (none when p < n).
    """
    if cs[-1] % p == 0:
        return False
    n = len(cs) - 1
    if n == 1:
        return True
    inv = pow(cs[-1] % p, p - 2, p)
    f = [(c * inv) % p for c in cs]
    for r in range(p):
        acc = 0
        for c in reversed(f):
            acc = (acc * r + c) % p
        if not acc:
            return False
    if n < 4:
        return True
    e = min(p, n - 1)
    h = [int(i == e) for i in range(n)]
    for _ in range(p - e):
        top = h[-1]
        h = [-top * f[0] % p] + [(a - top * b) % p for a, b in zip(h, f[1:n])]
    xp, rows = h, [[1]]
    for _ in range(2, n // 2 + 1):
        while len(rows) < n:
            rows.append(_gfp_mulmod(rows[-1], xp, f, p))
        out = [0] * n
        for c, row in zip(h, rows):
            for j, q in enumerate(row):
                out[j] += c * q
        h = [v % p for v in out]
        diff = _gfp_trim([h[0], (h[1] - 1) % p] + h[2:])
        if not diff or len(_gfp_gcd(f, diff, p)) != 1:
            return False
    return True


def _stickelberger_allows(d: int, n: int, p: int) -> bool:
    """Whether a degree-n integer polynomial of discriminant d, with a lead
    prime to p, can be irreducible modulo p.  Stickelberger's theorem (Swan,
    1962, which covers p = 2 and a non-monic lead) says the Kronecker symbol
    (d/p) is (-1)^(n - r) when the reduction is squarefree with r irreducible
    factors, and 0 when it is not; irreducible means r = 1."""
    if p == 2:
        return d % 8 in ((1, 7) if n % 2 else (3, 5))
    return pow(d, (p - 1) // 2, p) == (1 if n % 2 else p - 1)


def _quadratic_factor_exists(cs: tuple[int, ...]) -> bool:
    """Whether cs (low-to-high, positive lead, no rational root) has an integer
    quadratic factor g.  g(x) | f(x) at every integer x and f(1) != 0, so
    g(1) = g2 + g1 + g0 is a divisor of f(1) of either sign."""
    f = UniPoly(cs)
    const_divisors, f1_divisors = _divisors(cs[0]), _divisors(sum(cs))
    checks = [(x, sum(c * x**k for k, c in enumerate(cs))) for x in (-1, 2, -2)]
    for g2 in _divisors(cs[-1]):
        for g0 in const_divisors:
            for sg0 in (g0, -g0):
                for s in f1_divisors:
                    for g1 in (s - g2 - sg0, -s - g2 - sg0):
                        if all(
                            (gx := (g2 * x + g1) * x + sg0) and fx % gx == 0
                            for x, fx in checks
                        ) and f.divmod(UniPoly((sg0, g1, g2)))[1].is_zero():
                            return True
    return False


def _eisenstein(f) -> bool:
    """Whether f (low-to-high) is Eisenstein at one of _ACCEPT_PRIMES.  Such a
    p divides every coefficient but the lead, so only the primes of their
    content g are tried, and none when g = 1."""
    g = math.gcd(*f[:-1])
    return g != 1 and any(
        not g % p and f[-1] % p and f[0] % (p * p) for p in _ACCEPT_PRIMES
    )


def _cheap_decision(B: BinaryForm, disc: int | None):
    """A quadratic by its discriminant (irreducible unless a square).  Else
    True when Eisenstein at a small prime (either orientation), False on a
    zero discriminant, True when irreducible modulo a small prime, False on
    a rational root, True at degree 3, else None.  The mod-p accept comes
    before the rational-root scan, whose divisor search grows as the square
    root of the end coefficients: a form irreducible mod p has no rational
    root, so the order changes no decision.  The mod-p scan runs only at the
    primes where the discriminant D of the primitive part passes the parity
    test of `_stickelberger_allows` (p does not divide D and (D/p) is
    (-1)^(n-1)); at any other prime the form is reducible modulo p, so the
    skip changes no decision either."""
    d = form_discriminant(B) if disc is None else disc
    if B.degree == 2:
        return d < 0 or math.isqrt(d) ** 2 != d
    cs = _primitive_monic_sign(tuple(reversed(B.coeffs)))
    if _eisenstein(cs) or _eisenstein(cs[::-1]):
        return True
    if d == 0:
        return False
    n = B.degree
    d //= math.gcd(*B.coeffs) ** (2 * n - 2)  # the discriminant of cs
    if any(
        cs[-1] % p and _stickelberger_allows(d, n, p) and _gfp_is_irreducible(cs, p)
        for p in _ACCEPT_PRIMES
    ):
        return True
    if _has_rational_root(cs):
        return False
    return True if B.degree == 3 else None


def is_irreducible(B: BinaryForm, disc: int | None = None) -> bool:
    """Exact irreducibility of B(x,1) over the rationals, degrees 2 to 5.

    A quadratic is irreducible exactly when its discriminant is not a
    perfect square (both end coefficients are nonzero).  A higher degree is
    accepted when Eisenstein at a prime below 50 in either orientation (only
    the primes of the content of the coefficients below the lead are tried),
    then when irreducible modulo a prime below 50 (no root among the
    residues, then a Frobenius-matrix distinct-degree scan), and rejected on
    a rational root; a cubic without one is irreducible, and degrees 4 and 5
    are decided by a search for an integer quadratic factor whose value at 1
    divides the form's.  The mod-p scan skips each prime that divides the
    discriminant D of the primitive part or has (D/p) != (-1)^(n-1): by
    Stickelberger's theorem the form is reducible modulo such a prime.

    ``disc``, if given, must be the form's own discriminant: it decides a
    quadratic, a zero value rejects a higher degree, and a nonzero one
    chooses the primes of the mod-p scan.  A prime accepts only an
    irreducible form, so above degree 2 a wrong nonzero value can lose a
    certificate but never turns a reducible form into an irreducible one.
    """
    n = B.degree
    if n > 5:
        raise UnsupportedDegreeError(f"exact irreducibility supports degree <= 5, got {n}")
    decided = _cheap_decision(B, disc)
    if decided is not None:
        return decided
    return not _quadratic_factor_exists(_primitive_monic_sign(tuple(reversed(B.coeffs))))


def irreducibility_certificate(B: BinaryForm, disc: int | None = None):
    """Cheap one-sided test usable at any degree.

    Degrees 2 to 5 go to `is_irreducible`.  Above, True certifies
    irreducibility (Eisenstein or irreducible modulo a prime below 50), False
    reducibility (zero discriminant or a rational root), and None is
    undecided, as for x^6 + 108.  ``disc``, if given, must be the form's own
    discriminant, as for `is_irreducible`: it also chooses the primes of the
    mod-p scan, so a wrong nonzero value can lose a certificate but never
    make one for a reducible form of degree >= 3.
    """
    if B.degree <= 5:
        return is_irreducible(B, disc)
    return _cheap_decision(B, disc)
