"""Integer binary forms: evaluation, discriminants, irreducibility.

A degree-n binary form is stored as its coefficient tuple (a1, ..., a_{n+1})
with a1 the coefficient of x^n and a_{n+1} the coefficient of y^n, as ints:
a coefficient whose exact value is not an integer raises
NonIntegerEntryError.  Both end coefficients must be nonzero, so the
dehomogenization B(x, 1) always has degree exactly n.  A form keeps the
discriminant `form_discriminant` computes, so no public function takes one.

Irreducibility is decided by one function, `_decide`: accepted by an
Eisenstein prime or by a prime modulo which the form is irreducible (at
degrees 4 and 5: no root and the Stickelberger symbol of the discriminant;
above, a distinct-degree scan on packed residues, where each product modulo
p is one integer multiplication and one gcd tests factor degrees 3 and up),
and refuted in one pass by an integer factor of degree 1, or of degree 1 or
2 at degrees 4 and 5, found by lifting the factors of one reduction modulo
a prime p-adically and dividing, with no divisor scan of the coefficients.
"""

from __future__ import annotations

import math
import struct
from operator import mul

from .errors import UnsupportedDegreeError, ZeroPolynomialError
from .polyring import UniPoly, coeffs_discriminant, exact_int

# Primes used for the sufficient irreducibility accepts.  A form that is
# Eisenstein at one of these, or irreducible modulo one, is irreducible.
_ACCEPT_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


class BinaryForm:
    """Integer binary form a1*x^n + a2*x^(n-1)*y + ... + a_{n+1}*y^n."""

    __slots__ = ("coeffs", "_disc")

    def __init__(self, coeffs):
        cs = tuple(exact_int(c, "form coefficient") for c in coeffs)
        if len(cs) < 3:
            raise UnsupportedDegreeError("binary forms need degree >= 2")
        if cs[0] == 0 or cs[-1] == 0:
            raise ZeroPolynomialError(
                "both end coefficients of a binary form must be nonzero"
            )
        self.coeffs = cs
        self._disc = None  # set by `form_discriminant`, once

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
    """Exact discriminant by `coeffs_discriminant`: closed forms at degrees
    2 to 4, the Bezout determinant of B_x(x, 1) and B_y(x, 1) at 5 to 8, and
    the subresultant PRS from 9; computed on the first call and kept on the form."""
    if B._disc is None:
        B._disc = coeffs_discriminant(B.coeffs)
    return B._disc


def _form_of_discriminant(coeffs, d: int) -> BinaryForm:
    """The form of coeffs, keeping d as its discriminant, which d must be:
    the search's candidate loops solve disc = d exactly."""
    B = BinaryForm(coeffs)
    B._disc = d
    return B


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


# -- arithmetic in GF(p)[x], coefficient lists low-to-high, trimmed ------


def _gfp_trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _gfp_roots(f, p):
    """The roots of f modulo p, yielded in increasing order as they are found
    by evaluation: Horner in integers, one remainder per residue."""
    high = f[::-1]
    for r in range(p):
        acc = 0
        for c in high:
            acc = acc * r + c
        if not acc % p:
            yield r


def _gfp_gcd(a, b, p):
    a, b = list(a), list(b)
    while b:
        # a mod b with b made monic: each step drops a's lead
        inv = pow(b[-1], p - 2, p)
        b = [(c * inv) % p for c in b]
        db = len(b) - 1
        while len(a) > db:
            c, k = a.pop(), len(a) - db
            for j in range(db):
                a[k + j] = (a[k + j] - c * b[j]) % p
            _gfp_trim(a)
        a, b = b, a
    return _gfp_trim(a)


def _gfp_packing(f, p):
    """Arithmetic modulo the monic f (low-to-high, degree n >= 2) over GF(p)
    on packed residues (Kronecker substitution): a polynomial below degree n
    is one integer, with its coefficient i, in [0, p), in slot i.  Returns
    pack (list to integer), residues (integer to list), mulmod and power(e),
    x^e mod f for e <= 2n - 2.  mulmod makes one integer product, folds its
    n - 1 high slots back with the table of x^(n + j) mod f, j = 0 .. n - 2,
    built once, and takes each slot mod p.  A slot holds at most
    n (p - 1)^2 (1 + (n - 1)(p - 1)) on the way, so it is 4 bytes wide, or 8
    when that bound needs them."""
    n = len(f) - 1
    code = "I" if n * (p - 1) ** 2 * (1 + (n - 1) * (p - 1)) < 1 << 32 else "Q"
    low, top = struct.Struct(f"<{n}{code}"), struct.Struct(f"<{n - 1}{code}")
    w = 8 * low.size // n
    mask = (1 << w * n) - 1

    def pack(a):
        return int.from_bytes(low.pack(*a), "little")

    def residues(v):
        return [c % p for c in low.unpack(v.to_bytes(low.size, "little"))]

    def mulmod(a, b):
        c = a * b
        folds = map(mul, top.unpack((c >> w * n).to_bytes(top.size, "little")), table)
        return pack(residues((c & mask) + sum(folds)))

    def power(e):
        return table[e - n] if e >= n else 1 << w * e

    g = [-c % p for c in f[:n]]  # x^n mod f
    rows = [g]
    while len(rows) < n - 1:  # x^(n + j + 1): shift x^(n + j), fold its top by g
        t, lead = rows[-1], rows[-1][-1]
        rows.append([lead * g[0] % p] + [(a + lead * b) % p for a, b in zip(t, g[1:])])
    table = [pack(r) for r in rows]
    return pack, residues, mulmod, power


def _gfp_is_irreducible(cs: tuple[int, ...], p: int, d: int) -> bool:
    """Irreducibility of the reduction f of cs modulo p, degree n preserved;
    d is the discriminant of cs.

    Degree 1 is irreducible.  A root, the first `_gfp_roots` finds, is a
    linear factor.  Without one, every factor has degree >= 2, so a
    cubic is irreducible, and at degrees 4 and 5 f is irreducible or splits
    as (2, n - 2): irreducible exactly when it is squarefree with one factor,
    which `_stickelberger_allows` reads off d (Swan's form of the theorem
    holds for any integer lift with lead prime to p).  Above, f made monic is
    irreducible exactly when gcd(x^(p^k) - x, f) = 1 for k = 2 .. n/2 (no
    factor of degree k, repeated ones included), on `_gfp_packing`'s
    residues.  x^p is x^r times (x^(2n - 2))^q for p = q (2n - 2) + r, so
    none is multiplied when p < 2n - 1; row i of the Frobenius matrix Q is
    x^(ip) mod f, so h -> h^p is hQ.  The k = 2 step has its own gcd; the
    x^(p^k) - x of k >= 3 are multiplied mod f and tested by one gcd, which
    is 1 exactly when each factor's is (a zero factor makes the product 0).
    """
    if cs[-1] % p == 0:
        return False
    n = len(cs) - 1
    if n == 1:
        return True
    f = [c % p for c in cs]
    if next(_gfp_roots(f, p), None) is not None:
        return False
    if n < 4:
        return True
    if n < 6:
        return _stickelberger_allows(d, n, p)
    inv = pow(f[-1], p - 2, p)
    f = [(c * inv) % p for c in f]
    pack, residues, mulmod, power = _gfp_packing(f, p)
    q, r = divmod(p, 2 * n - 2)
    rows = [1, power(r)]
    for _ in range(q):
        rows[1] = mulmod(rows[1], power(2 * n - 2))
    while len(rows) < n:
        rows.append(mulmod(rows[-1], rows[1]))
    h, acc = residues(rows[1]), 1
    for k in range(2, n // 2 + 1):
        h = residues(sum(map(mul, h, rows)))
        diff = [h[0], (h[1] - 1) % p] + h[2:]
        if k > 2:
            acc = mulmod(acc, pack(diff))
        elif len(_gfp_gcd(f, _gfp_trim(diff), p)) != 1:
            return False
    return len(_gfp_gcd(f, _gfp_trim(residues(acc)), p)) == 1


def _stickelberger_allows(d: int, n: int, p: int) -> bool:
    """Whether a degree-n integer polynomial of discriminant d, with a lead
    prime to p, can be irreducible modulo p.  Stickelberger's theorem (Swan,
    1962, which covers p = 2 and a non-monic lead) says the Kronecker symbol
    (d/p) is (-1)^(n - r) when the reduction is squarefree with r irreducible
    factors, and 0 when it is not; irreducible means r = 1."""
    if p == 2:
        return d % 8 in ((1, 7) if n % 2 else (3, 5))
    return pow(d, (p - 1) // 2, p) == (1 if n % 2 else p - 1)


def _gfp_quadratics(q, p):
    """The two monic quadratic factors [c, b, 1] of the monic quartic q
    (low-to-high) without a root modulo p, or none when q is irreducible.
    If q is (x^2 + b x + c)(x^2 + b' x + c'), then b + b' = q3,
    c + c' = q2 - b b' = s, b c' + b' c = q1 and c c' = q0: so each b fixes c
    when b != b', and at b = b' c is a root of y^2 - s y + q0."""
    q0, q1, q2, q3 = q[:4]
    for b in range(p):
        b2 = (q3 - b) % p
        s = (q2 - b * b2) % p
        if b != b2:
            options = [(q1 - b * s) * pow(b2 - b, -1, p) % p]
        else:
            options = range(p) if (b * s - q1) % p == 0 else ()
        for c in options:
            if c * (s - c) % p == q0 % p:
                return [[c, b, 1], [(s - c) % p, b2, 1]]
    return []


# -- small factors over the integers, by lifting factors modulo p --------


def _primes():
    """2, 3, 5, ...: _ACCEPT_PRIMES, then the primes above 47."""
    yield from _ACCEPT_PRIMES
    q = _ACCEPT_PRIMES[-1]
    while True:
        q += 2
        if all(q % k for k in range(3, math.isqrt(q) + 1, 2)):
            yield q


def _reductions(cs, d):
    """(p, f, roots) at each prime p dividing neither the lead of cs nor its
    discriminant d != 0, in increasing order: f is cs modulo p (coefficients
    in [0, p)), squarefree since p does not divide d, and roots lists its
    roots modulo p, each simple."""
    for p in _primes():
        if cs[-1] % p and d % p:
            f = [c % p for c in cs]
            yield p, f, list(_gfp_roots(f, p))


def _modulus(p, bound):
    """The least p^(2^j) above bound: the precision the lifts work to."""
    m = p
    while m <= bound:
        m *= m
    return m


def _lift_root(cs, r, p, m):
    """Lift the simple root r of cs modulo p to a root modulo m = p^(2^j), by
    Newton's iteration r -> r - cs(r) / cs'(r), which doubles the exponent."""
    k = p
    while k < m:
        k *= k
        f = df = 0
        for a in reversed(cs):
            df = (df * r + f) % k
            f = (f * r + a) % k
        r = (r - f * pow(df, -1, k)) % k
    return r


def _lift_quadratic_root(cs, c, b, p, m):
    """Lift the root t of x^2 + b x + c, irreducible modulo p, to a root
    u + v t of cs in Z/m[t]/(t^2 + b t + c), m = p^(2^j), by the same
    Newton iteration as `_lift_root`: cs has t as a simple root modulo p."""
    u, v, k = 0, 1, p
    while k < m:
        k *= k
        fu = fv = du = dv = 0  # cs and its derivative at u + v t, by Horner
        for a in reversed(cs):
            du, dv = (du * u - c * dv * v + fu) % k, (du * v + dv * u - b * dv * v + fv) % k
            fu, fv = (fu * u - c * fv * v + a) % k, (fu * v + fv * u - b * fv * v) % k
        # 1 / (du + dv t) = ((du - b dv) - dv t) / N, N = du^2 - b du dv + c dv^2
        inv = pow(du * du - b * du * dv + c * dv * dv, -1, k)
        wu, wv = (du - b * dv) * inv, -dv * inv
        u = (u - fu * wu + c * fv * wv) % k
        v = (v - fu * wv - fv * wu + b * fv * wv) % k
    return u, v


def _divides(g, f) -> bool:
    """Whether g divides f in Z[x] (both low-to-high, f[0] != 0): its end
    coefficients must divide f's, then long division."""
    if not g[0] or f[0] % g[0]:
        return False
    f, dg = list(f), len(g) - 1
    for k in range(len(f) - 1, dg - 1, -1):
        c, r = divmod(f[k], g[-1])
        if r:
            return False
        for j in range(dg):
            f[k - dg + j] -= c * g[j]
    return not any(f[:dg])


def _integer_factor(cs, g, m):
    """The integer factor of cs that the monic g (low-to-high) lifts, or
    None.  A primitive factor G of cs with positive lead l has l | a, the
    lead of cs; g is G / l modulo m, so a g is (a / l) G modulo m, read off
    as the symmetric residue when m exceeds twice its coefficients, and G is
    its primitive part, kept if it divides cs."""
    h = []
    for c in g:
        c = cs[-1] * c % m
        h.append(c - m if 2 * c > m else c)
    k = math.gcd(*h)
    h = tuple([c // k for c in h])
    return h if _divides(h, cs) else None


def _small_factor(cs, d, k):
    """An integer factor of cs of degree 1 to k (k = 1 or 2), the witness of
    reducibility, or None when cs has none.  cs is low-to-high, primitive,
    with positive lead and discriminant d != 0.

    Modulo a prime p of `_reductions`, a linear factor reduces to a root of
    f = cs mod p, and a quadratic one to a product of two roots or to an
    irreducible quadratic factor of f.  With the roots divided out, every
    factor of what is left, `rest`, has degree >= 2: of degree 2, `rest` is
    the one irreducible quadratic; of degree 3 it is irreducible; of degree
    4 it is irreducible or two quadratics (`_gfp_quadratics`); and at degree
    5 the prime is used only when `rest` is irreducible, as d's Stickelberger
    symbol tells, else the next one is tried.  No root at one prime rules
    out a rational root, so no later prime divides by a single root.  A quartic splits only as g h with both
    factors quadratic, and one of them reduces to a product with the first
    root, or, with no root, to the first quadratic: only those candidates
    are tried.  The candidates, roots first, are lifted p-adically to one
    modulus p^(2^j) past 2 |a_0 a_n| at k = 1, which bounds a_n u / v for a
    root u / v in lowest terms (u | a_0, v | a_n), and past 2 |a_n| B at
    k = 2, where B = 2 (isqrt(||f||^2) + 1) > |a_0| bounds the
    coefficients of a quadratic factor (Mignotte: |g_j| <= C(2, j) M(f) and
    M(f) <= ||f||_2; Cohen, GTM 138, 3.5); each is read off by
    `_integer_factor`."""
    if k == 1:
        bound = 2 * abs(cs[0] * cs[-1])
    else:
        bound = 4 * cs[-1] * (math.isqrt(sum(c * c for c in cs)) + 1)
    rootless = False  # no root at an earlier prime: no rational root either
    for p, f, roots in _reductions(cs, d):
        rootless = rootless or not roots
        quadratics = []
        if k == 2:
            inv = pow(f[-1], -1, p)
            rest = [c * inv % p for c in f]
            for r in roots:  # divide out x - r by synthetic division
                acc, out = 0, []
                for c in reversed(rest):
                    acc = (acc * r + c) % p
                    out.append(acc)
                rest = out[-2::-1]
            if len(rest) == 3:
                quadratics = [rest]
            elif len(rest) == 5:
                quadratics = _gfp_quadratics(rest, p)
            elif len(rest) == 6 and not _stickelberger_allows(d, 5, p):
                continue
        m = _modulus(p, bound)
        lifted = []
        for r in roots:
            lifted.append(_lift_root(cs, r, p, m))
            factor = not rootless and _integer_factor(cs, (-lifted[-1], 1), m)
            if factor:
                return factor
        if k == 1:
            return None
        firsts = lifted
        if len(cs) == 5:
            firsts, quadratics = lifted[:1], [] if roots else quadratics[:1]
        candidates = [
            (x * y, -x - y, 1) for i, x in enumerate(firsts) for y in lifted[i + 1 :]
        ]
        for c, b, _ in quadratics:  # x^2 - trace x + norm of the lifted root
            u, v = _lift_quadratic_root(cs, c, b, p, m)
            candidates.append((u * u - b * u * v + c * v * v, b * v - 2 * u, 1))
        for g in candidates:
            factor = _integer_factor(cs, g, m)
            if factor:
                return factor
        return None


def _eisenstein(f) -> bool:
    """Whether f (low-to-high) is Eisenstein at one of _ACCEPT_PRIMES.  Such a
    p divides every coefficient but the lead, so only the primes of their
    content g are tried, and none when g = 1."""
    g = math.gcd(*f[:-1])
    return g != 1 and any(
        not g % p and f[-1] % p and f[0] % (p * p) for p in _ACCEPT_PRIMES
    )


def _decide(B: BinaryForm):
    """Irreducibility of B(x, 1) over the rationals: True, False, or None
    (undecided, only above degree 5).

    A quadratic is irreducible exactly when its discriminant is not a
    perfect square (both end coefficients are nonzero).  A higher degree is
    accepted when Eisenstein at a prime below 50 in either orientation,
    rejected on a zero discriminant, and accepted when irreducible modulo a
    prime below 50 (`_gfp_is_irreducible`).  That scan runs only at the
    primes where the discriminant D of the primitive part passes the parity
    test of `_stickelberger_allows` (p does not divide D and (D/p) is
    (-1)^(n-1)); at any other prime the form is reducible modulo p, so the
    skip changes no decision.  Then one search refutes: `_small_factor`
    lifts the factors of one reduction modulo a prime p-adically and
    divides, looking for a linear factor, and at degrees 4 and 5, where a
    reducible form has one, a linear or quadratic factor.  It takes time
    polynomial in the size of the coefficients.  Without a factor degrees 3
    to 5 are irreducible, and higher degrees undecided, as x^6 + 108 is.
    The discriminant is the one B keeps, computed here if it has none yet.
    """
    d = form_discriminant(B) if B._disc is None else B._disc
    n = B.degree
    if n == 2:
        return d < 0 or math.isqrt(d) ** 2 != d
    cs = _primitive_monic_sign(tuple(reversed(B.coeffs)))
    if _eisenstein(cs) or _eisenstein(cs[::-1]):
        return True
    if d == 0:
        return False
    d //= math.gcd(*B.coeffs) ** (2 * n - 2)  # the discriminant of cs
    for p in _ACCEPT_PRIMES:
        if cs[-1] % p and _stickelberger_allows(d, n, p) and _gfp_is_irreducible(cs, p, d):
            return True
    if _small_factor(cs, d, 2 if n in (4, 5) else 1) is not None:
        return False
    return True if n < 6 else None


def is_irreducible(B: BinaryForm) -> bool:
    """Exact irreducibility of B(x, 1) over the rationals at degrees 2 to 5,
    decided by `_decide`."""
    n = B.degree
    if n > 5:
        raise UnsupportedDegreeError(f"exact irreducibility supports degree <= 5, got {n}")
    return _decide(B)


def irreducibility_certificate(B: BinaryForm):
    """One-sided irreducibility test usable at any degree: True certifies
    irreducibility, False reducibility, and None, only above degree 5, is
    undecided.  Degrees 2 to 5 go to `is_irreducible`, higher ones to
    `_decide`."""
    if B.degree <= 5:
        return is_irreducible(B)
    return _decide(B)
