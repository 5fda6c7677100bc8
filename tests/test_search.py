import random
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import isqrt

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from arithmat import element as el
from arithmat import search
from arithmat.errors import ArithmatError, DegenerateElementError, UnsupportedDegreeError
from arithmat.field import EssentialPair, make_field
from arithmat.forms import (
    BinaryForm,
    coeffs_discriminant,
    evaluate,
    form_discriminant,
    irreducibility_certificate,
    is_irreducible,
)
from arithmat.polyring import UniPoly, _quartic_ij, poly_mul_schoolbook
from arithmat.search import (
    essential_pair_from_element,
    load_bundled_table,
    parse_table_rows,
    search_essential_pairs,
    verify_tables,
)
from arithmat.symbolic import det_cofactor

import util


def _candidates(n, a1, a2_values, rng, target):
    """The degree-n generator's hits; a quartic gets its curve's points as the search lists them."""
    extra = {}
    if n == 4:
        extra["points"] = search._signed_points(27 * target, search._deg4_xmax(a1, a2_values, rng))
    return getattr(search, f"_cands_deg{n}")(a1, a2_values, rng, target, **extra)


class TestFastDiscriminants:
    def test_formula_paths_match_sylvester_route(self):
        rng = random.Random(0)
        for n in (2, 3, 4, 5):
            for _ in range(200):
                cs = [rng.randint(1, 6)] + [rng.randint(-6, 6) for _ in range(n)]
                if cs[-1] == 0:
                    continue
                target = form_discriminant(BinaryForm(cs))
                found = list(_candidates(n, cs[0], [cs[1]], range(-6, 7), target))
                assert tuple(cs) in found

    def test_disc_int_matches_public_discriminant(self):
        rng = random.Random(1)
        for _ in range(100):
            n = rng.randint(2, 5)
            cs = [rng.randint(1, 9)] + [rng.randint(-9, 9) for _ in range(n)]
            if cs[-1] == 0:
                continue
            # independent route: cofactor expansion of the rational Sylvester matrix
            f = BinaryForm(cs).dehomogenized()
            det = det_cofactor(util.sylvester_matrix(f, f.derivative()))
            expected = (-det if n % 4 in (2, 3) else det) / cs[0]
            assert form_discriminant(BinaryForm(cs)) == expected


@lru_cache(maxsize=None)
def box_discriminants(n, a1, a2, box):
    """(coeffs, discriminant) over the box with a1, a2 fixed, last coefficient first."""
    out = []
    for rest in product(range(-box, box + 1), repeat=n - 1):
        if rest[-1]:
            coeffs = (a1, a2) + rest
            out.append((coeffs, coeffs_discriminant(coeffs)))
    return out


@st.composite
def generator_cases(draw, n):
    a1 = draw(st.integers(1, 5))
    box = draw(st.integers(1, 2 if n == 5 else 6))
    a0 = draw(st.integers(1, 3))
    a2_all = list(range(-box, box + 1, a0))
    start = draw(st.integers(0, len(a2_all) - 1))
    a2_values = a2_all[start : start + 3]
    # target 0, a discriminant from the box or from twice the box, or
    # D(prefix, 0) so that P(0) = 0
    kind = draw(st.sampled_from(("zero", "hit", "wide", "p0")))
    target = 0
    if kind != "zero":
        a2 = draw(st.sampled_from(a2_values))
        bound = 2 * box if kind == "wide" else box
        rest = draw(st.lists(st.integers(-bound, bound), min_size=n - 1, max_size=n - 1))
        if kind == "p0":
            rest[-1] = 0
        target = coeffs_discriminant((a1, a2, *rest))
    return a1, a2_values, box, target


@pytest.mark.parametrize("n", (2, 3, 4, 5))
@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_candidate_generators_match_brute_force(n, data):
    a1, a2_values, box, target = data.draw(generator_cases(n))
    expected = [
        coeffs
        for a2 in a2_values
        for coeffs, disc in box_discriminants(n, a1, a2, box)
        if disc == target
    ]
    # the generators yield in any order; the search sorts its result
    assert sorted(_candidates(n, a1, a2_values, range(-box, box + 1), target)) == expected


coefficient = st.integers(-50, 50)
leading = st.integers(-50, 50).filter(bool)


@settings(max_examples=200, deadline=None)
@given(leading, coefficient, coefficient, coefficient, coefficient)
def test_quartic_invariants_lie_on_the_disc_curve(a, b, c, d, e):
    # against the Sylvester route: `coeffs_discriminant` itself reads a quartic's off I and J
    i_inv, j_inv = _quartic_ij((a, b, c, d, e))
    assert 4 * i_inv**3 - j_inv**2 == 27 * util.sylvester_discriminant((a, b, c, d, e))


@settings(max_examples=200, deadline=None)
@given(leading, coefficient, coefficient, coefficient, coefficient)
def test_quartic_invariants_meet_the_congruences_of_c(a, b, c, d, e):
    # I - c^2 = 3(4ae - bd) and J + 2c^3 = 9(8ace + bcd - 3ad^2 - 3eb^2)
    i_inv, j_inv = _quartic_ij((a, b, c, d, e))
    assert (i_inv - c * c) % 3 == 0
    assert (j_inv + 2 * c**3) % 9 == 0


@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_quartic_generator_with_points_listed_further_matches_brute_force(data):
    # the search lists the points once per target, at the bound of the
    # largest a1; a slice with a smaller a1 gets the longer list
    a1, a2_values, box, target = data.draw(generator_cases(4))
    rng = range(-box, box + 1)
    xmax = search._deg4_xmax(a1, a2_values, rng) * data.draw(st.integers(1, 8))
    expected = [
        coeffs
        for a2 in a2_values
        for coeffs, disc in box_discriminants(4, a1, a2, box)
        if disc == target
    ]
    points = search._signed_points(27 * target, xmax)
    assert sorted(search._cands_deg4(a1, a2_values, rng, target, points=points)) == expected


@settings(max_examples=200, deadline=None)
@given(leading, coefficient, coefficient, coefficient)
def test_cubic_covariants_at_one_zero_lie_on_the_disc_curve(a, b, c, d):
    # Cayley's syzygy F^2 + 27*D*C^2 = 4*Q^3 at (x, y) = (1, 0)
    q = b * b - 3 * a * c
    f = 2 * b**3 - 9 * a * b * c + 27 * a * a * d
    assert 4 * q**3 - f * f == 27 * a * a * coeffs_discriminant((a, b, c, d))


@settings(max_examples=200, deadline=None)
@given(
    k=st.one_of(
        st.integers(-3000, 3000),
        st.integers(-12, 12).map(lambda m: 4 * m**3),  # a point with Y = 0
        st.just(0),  # the cusp: a point at every square X
    ),
    xmax=st.integers(0, 40),
)
def test_mordell_points_match_a_scan_over_y(k, xmax):
    x_of = {4 * x**3 - k: x for x in range(-xmax, xmax + 1)}
    ymax = isqrt(max(4 * xmax**3 - k, 0))
    expected = sorted((x_of[y * y], y) for y in range(ymax + 1) if y * y in x_of)
    assert search._mordell_points(k, xmax) == expected


@settings(max_examples=200, deadline=None)
@given(
    k=st.one_of(
        st.integers(-10**7, 10**7),
        st.integers(-150, 150).map(lambda m: 4 * m**3 - 27),
        st.integers(-150, 150).map(lambda m: 4 * m**3),
    ),
    xmax=st.one_of(
        st.integers(0, 700),
        st.integers(0, 10).flatmap(lambda b: st.sampled_from([64 * b - 1, 64 * b, 64 * b + 1, 64 * b + 63])),
    ),
)
def test_mordell_points_match_a_scan_over_x(k, xmax):
    # several blocks of 64, and xmax or the least X with 4X^3 >= k on a block edge
    assume(xmax >= 0)
    expected = []
    for x in range(-xmax, xmax + 1):
        v = 4 * x**3 - k
        if v >= 0 and isqrt(v) ** 2 == v:
            expected.append((x, isqrt(v)))
    assert search._mordell_points(k, xmax) == expected


def test_square_classes_are_kept_per_residue():
    for m in (64, 63, 65):
        table = search._square_classes(5, m)
        assert search._square_classes(5 + 7 * m, m) is table
        assert table == [(4 * x**3 - 5) % m in {y * y % m for y in range(m)} for x in range(m)]


def test_quartic_generator_on_a_box_8_case():
    # target 2048 at a = 1: the hits lie on three points of
    # J^2 = 4X^3 - 27*2048, one of them with J = 0, and one (c, X, J) leaves
    # a quadratic in d with a double root
    a1, a2_values, box, target = 1, [-1, 0, 1], 8, 2048
    expected = [
        coeffs
        for a2 in a2_values
        for coeffs, disc in box_discriminants(4, a1, a2, box)
        if disc == target
    ]
    assert sorted(_candidates(4, a1, a2_values, range(-box, box + 1), target)) == expected
    invariants = [(cs, *_quartic_ij(cs)) for cs in expected]
    assert len({i_inv for _, i_inv, _ in invariants}) >= 3
    assert any(j_inv == 0 for _, _, j_inv in invariants)

    double_roots = 0
    for (a, b, c, d, _), i_inv, j_inv in invariants:
        # J = +-Y as a quadratic in d once e is eliminated through I = X
        qa = -324 * a * a
        qb = 324 * a * b * c - 81 * b**3
        qc = (72 * a * c - 27 * b * b) * (i_inv - c * c) - 24 * a * c**3 - 12 * a * j_inv
        assert (qa * d + qb) * d + qc == 0
        double_roots += qb * qb == 4 * qa * qc
    assert double_roots


@pytest.mark.parametrize("box", [(-23, 3, 2, 1), (-400, 4, 2, 1), (-4511, 5, 2, 1)])
def test_each_mirror_pair_is_decided_once(box, monkeypatch):
    # the b = 0 slice holds both B and B(x, -y); only the smaller is decided
    decided = []
    real = search.is_irreducible
    monkeypatch.setattr(
        search, "is_irreducible", lambda B: decided.append(B.coeffs) or real(B)
    )
    pairs = search_essential_pairs(*box)
    assert any(p.form.coeffs[1] == 0 for p in pairs)
    assert len(decided) == len(set(decided))
    assert not [cs for cs in decided if cs[1] == 0 and search._mirror(cs) < cs]


class TestSearch:
    def test_table_quartic_box(self):
        pairs = search_essential_pairs(-275, 4, 2, 1)
        assert EssentialPair(1, BinaryForm([1, 1, 0, -2, -1])) in pairs

    def test_scaled_quartic_box(self):
        pairs = search_essential_pairs(513, 4, 4, 2)
        assert EssentialPair(2, BinaryForm([4, -2, -3, 1, 1])) in pairs
        assert all(p.a0 == 2 for p in pairs)  # no degree-4 essential form shows up

    def test_quintic_box(self):
        pairs = search_essential_pairs(-4511, 5, 2, 1)
        assert EssentialPair(1, BinaryForm([1, 0, 2, 1, -2, -1])) in pairs

    def test_results_validate_and_are_sorted(self):
        # the search returns pairs without running make_field on them; seeded
        # boxes hold an Eisenstein cubic (at 2) and quadratic (at 3)
        rng = random.Random(11)
        cubic = [rng.choice((1, 3, 5)), 2 * rng.randint(-2, 2), 2 * rng.randint(-2, 2), -2]
        quadratic = [rng.randint(1, 9), 3 * rng.randint(-9, 9), 3 * rng.choice((-2, -1, 1, 2))]
        boxes = [(-275, 4, 2, 1), (513, 4, 4, 2)]
        boxes += [(form_discriminant(BinaryForm(cs)), len(cs) - 1, h, 1)
                  for cs, h in ((cubic, 6), (quadratic, 30))]
        for disc, degree, height, a0_max in boxes:
            pairs = search_essential_pairs(disc, degree, height, a0_max)
            assert pairs
            keys = [(p.a0, p.form.coeffs) for p in pairs]
            assert keys == sorted(keys)
            for p in pairs:
                F = make_field(p)
                assert (F.n, F.disc) == (degree, disc)

    def test_reducible_form_with_the_target_discriminant_is_dropped(self):
        # (x^2 + x + 1)(x^2 - 2) = x^4 + x^3 - x^2 - 2x - 2 lies in the box
        assert form_discriminant(BinaryForm([1, 1, -1, -2, -2])) == -1176
        assert search_essential_pairs(-1176, 4, 2, 1) == []

    def test_sharding_independence(self):
        base = search_essential_pairs(513, 4, 3, 2, jobs=1)
        assert search_essential_pairs(513, 4, 3, 2, jobs=4) == base

    def test_empty_result_is_valid(self):
        assert search_essential_pairs(-3, 4, 1, 1) == []

    def test_degree_cap(self):
        with pytest.raises(UnsupportedDegreeError):
            search_essential_pairs(-275, 6, 1, 1)

    @pytest.mark.parametrize("height, a0_max", ((0, 1), (1, 0), (2, -1)))
    def test_empty_box_bounds_rejected(self, height, a0_max):
        with pytest.raises(ValueError, match="must be >= 1"):
            search_essential_pairs(-275, 4, height, a0_max)


# ----------------------------------------------------------------------
# The half box: the search visits a2 >= 0 and adds each hit's mirror
# ----------------------------------------------------------------------


def _outcome(decide, B):
    """decide(B), or the type of the domain error it raises."""
    try:
        return decide(B)
    except ArithmatError as exc:
        return type(exc)


@st.composite
def forms_with_factors(draw):
    """A form of degree 2-12: one random form, or a product of random factors."""
    def factor(degree):
        ends = st.integers(-9, 9).filter(bool)
        middle = draw(st.lists(st.integers(-9, 9), min_size=degree - 1, max_size=degree - 1))
        return [draw(ends), *middle, draw(ends)]

    degrees = draw(st.one_of(
        st.integers(2, 12).map(lambda n: [n]),
        st.lists(st.integers(1, 4), min_size=2, max_size=3),
    ))
    f = UniPoly([1])
    for degree in degrees:
        f = poly_mul_schoolbook(f, UniPoly(factor(degree)))
    return BinaryForm(f.coeffs)


@settings(max_examples=150, deadline=None)
@given(forms_with_factors())
def test_mirror_keeps_discriminant_and_irreducibility(B):
    M = BinaryForm(search._mirror(B.coeffs))
    for x, y in ((1, 1), (2, -1), (-3, 2)):
        assert evaluate(M, x, y) == evaluate(B, x, -y)
    assert form_discriminant(M) == form_discriminant(B)
    for decide in (is_irreducible, irreducibility_certificate):
        assert _outcome(decide, M) == _outcome(decide, B)


def _in_box(a0, coeffs, height):
    box = height * a0 * a0
    return (
        0 < coeffs[0] <= box
        and coeffs[0] % (a0 * a0) == 0
        and coeffs[1] % a0 == 0
        and all(abs(c) <= box for c in coeffs)
    )


@settings(max_examples=150, deadline=None)
@given(
    a0=st.integers(1, 3),
    height=st.integers(1, 4),
    n=st.integers(2, 12),
    data=st.data(),
)
def test_mirror_of_a_box_member_is_in_the_box(a0, height, n, data):
    box = height * a0 * a0
    a1 = a0 * a0 * data.draw(st.integers(1, height))
    a2 = a0 * data.draw(st.integers(-box // a0, box // a0))
    rest = data.draw(st.lists(st.integers(-box, box), min_size=n - 1, max_size=n - 1))
    coeffs = (a1, a2, *rest)
    assert _in_box(a0, coeffs, height)
    assert _in_box(a0, search._mirror(coeffs), height)


def _full_box_search(disc, degree, height, a0_max):
    """The search over every a2 of each box, without mirrors: all a2 values
    go through the candidate generators and every hit gets is_irreducible."""
    gen = search._CANDIDATE_GENS[degree]
    results = []
    for a0 in range(1, a0_max + 1):
        target = disc * a0 * a0
        box = height * a0 * a0
        a2_values = list(range(-box, box + 1, a0))
        rng = range(-box, box + 1)
        extra = {}
        if degree == 4:
            xmax = search._deg4_xmax(box, a2_values, rng)
            extra["points"] = search._signed_points(27 * target, xmax)
        for t in range(1, height + 1):
            for coeffs in gen(t * a0 * a0, a2_values, rng, target, **extra):
                if is_irreducible(BinaryForm(coeffs)):
                    results.append((a0, coeffs))
    return [EssentialPair(a0, BinaryForm(coeffs)) for a0, coeffs in sorted(set(results))]


@st.composite
def search_boxes(draw):
    degree = draw(st.integers(2, 5))
    height = draw(st.integers(1, 2 if degree == 5 else 3))
    a0_max = draw(st.integers(1, 2))
    # the discriminant of a form from the a0 = 1 box with a2 = 0 or a2 != 0,
    # or a value that need not have a pair
    kind = draw(st.sampled_from(("a2 zero", "a2 nonzero", "value")))
    if kind == "value":
        disc = draw(st.integers(-5000, 5000).filter(bool))
    else:
        entry = st.integers(-height, height)
        a2 = 0 if kind == "a2 zero" else draw(entry.filter(bool))
        middle = draw(st.lists(entry, min_size=degree - 2, max_size=degree - 2))
        last = draw(entry.filter(bool))
        disc = coeffs_discriminant((draw(st.integers(1, height)), a2, *middle, last))
    return disc, degree, height, a0_max


@settings(max_examples=100, deadline=None)
@given(search_boxes())
def test_half_box_search_matches_the_full_box(box):
    assert search_essential_pairs(*box) == _full_box_search(*box)


@settings(max_examples=100, deadline=None)
@given(search_boxes())
@example((-275, 4, 2, 1))
@example((-4511, 5, 2, 2))
def test_each_decided_form_keeps_its_own_discriminant(box):
    # the search hands `is_irreducible` forms that keep the target it solved
    # for; each must be the form's own discriminant
    kept = []
    real = search.is_irreducible

    def record(B):
        kept.append((B.coeffs, B._disc))
        return real(B)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(search, "is_irreducible", record)
        search_essential_pairs(*box)
    for coeffs, disc in kept:
        assert disc == coeffs_discriminant(coeffs), coeffs


def _sign_flip(coeffs):
    """B(x, -y), from its definition: a_i y^(i-1) picks up (-1)^(i-1)."""
    return tuple(c * (-1) ** i for i, c in enumerate(coeffs))


def _swap(coeffs):
    """sign(a_(n+1)) B(y, x), from its definition."""
    sign = 1 if coeffs[-1] > 0 else -1
    return tuple(sign * c for c in reversed(coeffs))


def _group_orbit(coeffs, with_swap):
    members = {coeffs, _sign_flip(coeffs)}
    if with_swap:
        members |= {_swap(m) for m in members}
    return frozenset(members)


@settings(max_examples=100, deadline=None)
@given(search_boxes())
def test_results_are_orbits_and_each_orbit_is_decided_once(box):
    disc, degree, _height, _a0_max = box
    assume(disc)  # the slice of a decided form is read from its target disc * a0^2
    decided = []
    real = search.is_irreducible

    def record(B):
        decided.append((isqrt(form_discriminant(B) // disc), B.coeffs))
        return real(B)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(search, "is_irreducible", record)
        pairs = search_essential_pairs(*box)
    found = {(p.a0, p.form.coeffs) for p in pairs}
    for a0, coeffs in found:
        assert (a0, _sign_flip(coeffs)) in found
        if a0 == 1:
            assert (a0, _swap(coeffs)) in found
    # the search uses the swap at a0 = 1 from degree 3 on, and the sign flip
    # everywhere: no two decided forms share an orbit of that group, and
    # every orbit of the result holds a decided form
    orbits = [(a0, _group_orbit(coeffs, a0 == 1 and degree > 2)) for a0, coeffs in decided]
    assert len(set(orbits)) == len(orbits)
    assert {(a0, coeffs) for a0, orbit in orbits for coeffs in orbit if (a0, coeffs) in found} == found


@pytest.mark.parametrize("box", [(-275, 4, 2, 1), (513, 4, 4, 2), (-4511, 5, 2, 1)])
def test_half_box_search_matches_the_full_box_on_documented_boxes(box):
    pairs = search_essential_pairs(*box)
    assert pairs and pairs == _full_box_search(*box)


def _quintic_box(height, a0):
    """(disc / a0^2, coeffs) over every form of the quintic box slice at a0,
    a2 of any sign, where a0^2 divides the Sylvester discriminant."""
    box = height * a0 * a0
    for t in range(1, height + 1):
        for a2 in range(-box, box + 1, a0):
            for rest in product(range(-box, box + 1), repeat=4):
                if rest[-1]:
                    coeffs = (t * a0 * a0, a2, *rest)
                    disc, rem = divmod(util.sylvester_discriminant(coeffs), a0 * a0)
                    if not rem:
                        yield disc, coeffs


@pytest.mark.parametrize("height, a0_max, sampled", [(2, 1, None), (1, 2, 150)])
def test_quintic_search_matches_brute_force_over_whole_boxes(height, a0_max, sampled):
    # every form of the box, reducible ones too, grouped by its discriminant
    # over a0^2; at height 2 every such discriminant is searched, and at
    # a0 = 2 (a box of 29160 forms) a seeded sample of them
    by_disc = {}
    for a0 in range(1, a0_max + 1):
        for disc, coeffs in _quintic_box(height, a0):
            by_disc.setdefault(disc, []).append((a0, coeffs))
    discs = sorted(by_disc.keys() - {0})
    if sampled:
        discs = random.Random(33).sample(discs, sampled)
    for disc in discs:
        expected = [
            EssentialPair(a0, BinaryForm(coeffs))
            for a0, coeffs in sorted(by_disc[disc])
            if is_irreducible(BinaryForm(coeffs))
        ]
        assert search_essential_pairs(disc, 5, height, a0_max) == expected, disc


# Rows whose own box is too slow for the suite (height 42 and 100 at a0 = 6
# and 10).  In-process on a 2-core VM (Python 3.11): about 18.6 s for 1225;6,
# and -1975;10 does not finish in two minutes.  1040;4 (height 32) takes
# about 2 s and runs.
_SLOW_ROWS = {(-1975, 10), (1225, 6)}


def _table_rows():
    for name, degree in (("quartic", 4), ("quintic", 5)):
        for disc, a0, coeffs in load_bundled_table(name):
            marks = [pytest.mark.skip(reason="box too slow")] if (disc, a0) in _SLOW_ROWS else []
            yield pytest.param(disc, degree, a0, coeffs, id=f"{disc};{a0}", marks=marks)


@lru_cache(maxsize=None)
def _own_box(disc, degree, height, a0):
    return search_essential_pairs(disc, degree, height, a0)


@pytest.mark.parametrize("disc, degree, a0, coeffs", _table_rows())
def test_table_row_is_found_in_its_own_box(disc, degree, a0, coeffs):
    # height = the row's largest coefficient, a0_max = the row's a0
    pairs = _own_box(disc, degree, max(map(abs, coeffs)), a0)
    assert EssentialPair(a0, BinaryForm(coeffs)) in pairs


class TestVerifyTables:
    def test_bundled_quartic_table(self):
        report = verify_tables(load_bundled_table("quartic"))
        assert report.rows_checked == 100
        assert report.ok, str(report)

    def test_bundled_quintic_table(self):
        report = verify_tables(load_bundled_table("quintic"))
        assert report.rows_checked == 52
        assert report.ok, str(report)

    def test_corrupted_row_reported(self):
        rows = [(-275, 1, (1, 1, 0, -2, -2))]
        report = verify_tables(rows)
        assert not report.ok
        assert "discriminant" in report.failures[0][2]

    def test_divisibility_failure_reported(self):
        # right discriminant ratio, wrong divisibility: disc(2,2,...)?
        rows = [(513, 3, (4, -2, -3, 1, 1))]
        report = verify_tables(rows)
        assert not report.ok

    @pytest.mark.parametrize("row", [(5, 0, (1, 2, 1)), (5, -1, (1, 1, -1))])
    def test_nonpositive_a0_fails_with_make_fields_reason(self, row):
        report = verify_tables([row])
        assert not report.ok
        assert report.failures[0][2] == "a0 must be a positive integer"

    @pytest.mark.parametrize("coeffs", [(1, 1, 0), (0, 1, 1)])
    def test_zero_end_coefficient_reported_as_a_bad_form(self, coeffs):
        report = verify_tables([(5, 1, coeffs)])
        assert report.rows_checked == 1
        assert report.failures == [
            (1, (5, 1, coeffs), "bad form: both end coefficients of a binary form must be nonzero")
        ]

    def test_certified_sextic_row_passes(self):
        assert verify_tables([(-11337408, 1, (1, 0, 0, 0, 0, 0, 3))]).ok

    def test_uncertified_sextic_row_fails(self):
        B = BinaryForm([1, 0, 0, 0, 0, 0, 108])
        report = verify_tables([(form_discriminant(B), 1, B.coeffs)])
        assert not report.ok
        assert "could not be certified" in report.failures[0][2]

    def test_parse_format(self):
        rows = parse_table_rows("# comment\n-275;1;1,1,0,-2,-1\n")
        assert rows == [(-275, 1, (1, 1, 0, -2, -1))]


def assert_found_pair(F, pair):
    """A found pair's form has discriminant F.disc * a0^2, and no certificate calls it reducible."""
    D = form_discriminant(pair.form)
    assert D == F.disc * pair.a0**2
    assert irreducibility_certificate(pair.form) is not False


def assert_index_square(F, D):
    """D = [O : Z[alpha]]^2 * disc for an integral alpha, O the order of F's pair."""
    ratio = D / F.disc
    assert ratio.denominator == 1 and ratio > 0 and isqrt(int(ratio)) ** 2 == ratio


class TestPairFromElement:
    def test_basis_element_roundtrip_reverses_form(self):
        F = make_field(EssentialPair(1, BinaryForm([1, 1, 0, -2, -1])))
        pair = essential_pair_from_element(F, F.basis_element(1))
        assert pair is not None
        assert pair.a0 == 1
        # x^n f(y/x) reverses the minimal polynomial's coefficients
        assert pair.form.coeffs == (-1, -2, 0, 1, 1)
        assert_found_pair(F, pair)

    def test_rational_multiple_is_degenerate(self):
        F = make_field(EssentialPair(1, BinaryForm([1, 1, 0, -2, -1])))
        with pytest.raises(DegenerateElementError):
            essential_pair_from_element(F, F.one())

    def test_failed_divisibility_returns_none(self):
        rng = random.Random(2)
        F = make_field(EssentialPair(1, BinaryForm([1, 1, 0, -2, -1])))
        from arithmat.polyring import poly_discriminant

        seen_none = 0
        tried = 0
        while seen_none < 10 and tried < 200:
            tried += 1
            alpha = util.random_element(F, rng, bound=4, nonzero=True)
            try:
                pair = essential_pair_from_element(F, alpha)
            except DegenerateElementError:
                continue
            if pair is None:
                D = poly_discriminant(el.char_poly(F, alpha))
                # None must be explained by a failed condition: alpha is not integral,
                # or, with D / disc a square, a divisibility condition fails
                if el.is_integral(F, alpha):
                    assert_index_square(F, D)
                    nval = el.norm(F, alpha)
                    cond1 = (F.disc * int(nval)) % int(D) == 0
                    k = nval * el.trace(F, el.inverse(F, alpha))
                    cond2 = (F.disc * int(k) * int(k)) % int(D) == 0
                    assert not (cond1 and cond2)
                seen_none += 1
            else:
                assert_found_pair(F, pair)
        assert seen_none >= 10

    @pytest.mark.parametrize("n", range(2, 6))
    @pytest.mark.parametrize("a0", range(1, 4))
    def test_pair_exactly_when_the_paper_conditions_hold(self, a0, n):
        # the oracle is the paper's statement, on the norm, the inverse and the
        # trace: D / disc a positive square, D | disc * N and D | disc * (N Tr(1/alpha))^2
        from arithmat.polyring import poly_discriminant

        rng = random.Random(100 * a0 + n)
        pair = util.random_pair(rng, n, a0=a0, hi=3)
        while pair.form.coeffs[-1] != 1:
            pair = util.random_pair(rng, n, a0=a0, hi=3)
        F = make_field(pair)
        # with a_{n+1} = 1, 1/zeta = -a_n - omega_{n-1} (n >= 3; -a2 - a0 omega_1 at
        # n = 2) is integral, and its reversed characteristic polynomial is B
        coords = [-pair.form.coeffs[-2]] + [0] * (n - 1)
        coords[-1] = -a0 if n == 2 else -1
        assert essential_pair_from_element(F, F.element(coords)) == pair
        refused = 0
        for k in range(60):
            alpha = util.random_element(F, rng, bound=1 + k % 2, nonzero=True)
            if k % 6 == 0:
                alpha = el.scale(F, Fraction(1, rng.choice((2, 3))), alpha)
            D = poly_discriminant(el.char_poly(F, alpha))
            if D == 0:
                with pytest.raises(DegenerateElementError):
                    essential_pair_from_element(F, alpha)
                continue
            found = essential_pair_from_element(F, alpha)
            expected = False
            if el.is_integral(F, alpha):
                assert_index_square(F, D)
                N = el.norm(F, alpha)
                k2 = (N * el.trace(F, el.inverse(F, alpha))) ** 2
                expected = (F.disc * N / D).denominator == 1 and (F.disc * k2 / D).denominator == 1
                refused += not expected
            assert (found is not None) == expected, alpha
            if found is not None:
                assert found.a0**2 == D / F.disc
                assert found.form.coeffs == el.char_poly(F, alpha).coeffs
                assert_found_pair(F, found)
        assert refused  # an integral element whose pair fails the conditions

    def test_degree_six_field_supported(self):
        rng = random.Random(4)
        F = util.random_field(rng, 6)
        alpha = F.basis_element(1)
        try:
            pair = essential_pair_from_element(F, alpha)
        except DegenerateElementError:
            pair = None
        if pair is not None:
            assert_found_pair(F, pair)

    def test_found_pair_validates(self):
        rng = random.Random(3)
        pool = [util.random_field(rng, n) for n in (2, 3)]
        found = 0
        for _ in range(300):
            F = rng.choice(pool)
            alpha = util.random_element(F, rng, bound=3, nonzero=True)
            try:
                pair = essential_pair_from_element(F, alpha)
            except DegenerateElementError:
                continue
            if pair is not None:
                assert_found_pair(F, pair)
                built = make_field(pair)
                assert built.disc == F.disc
                found += 1
        assert found > 0
