"""The plain-float route of `embedding` against numpy's in `numeric`.

`diag-check` certifies with `embedding`, which imports no numpy; the ring
workload's batches use `numeric`.  Both share one Newton polish and one
tolerance check, so they must find the same roots and, on the ring
workload's requests, reach the same verdicts.
"""

import numpy as np
import pytest

from arithmat import embedding, numeric
from arithmat.errors import (
    ArithmatError,
    FloatRangeError,
    RootConvergenceError,
    ZeroDiscriminantError,
)
from arithmat.field import EssentialPair, make_field
from arithmat.forms import BinaryForm

import util

_SEEDS = range(1, 11)
_BOUND = 1e-8


@pytest.fixture(scope="module")
def pools():
    return {seed: util.ring_pool(seed) for seed in _SEEDS}


def test_polish_stops_at_the_iterate_the_full_loop_reaches(pools):
    # companion-matrix starts on the pool forms of three seeds: 33 roots stall in cycles
    # of period 2 or 4, and the full loop ends at each phase of them
    stalled = 0
    for seed in _SEEDS[:3]:
        for fields in pools[seed].values():
            for F in fields:
                coeffs = embedding.form_floats(F.pair.form)
                for z in np.roots(coeffs):
                    want, steps = util.newton_polish_oracle(coeffs, complex(z))
                    got = embedding._newton(coeffs, complex(z))
                    assert (got.real.hex(), got.imag.hex()) == (want.real.hex(), want.imag.hex())
                    stalled += steps == 60
    assert stalled >= 10


def test_every_numpy_root_has_a_plain_root_nearby(pools):
    # matched by nearest root: inexact conjugates sort unstably
    for seed in _SEEDS:
        for fields in pools[seed].values():
            for F in fields:
                plain = embedding.find_roots(F.pair.form)
                for z in numeric.find_roots(F.pair.form):
                    assert min(abs(w - z) for w in plain) <= 1e-12 * abs(z), F.pair.text()


def _verdict(residual, F, alpha):
    try:
        return residual(F, alpha) < _BOUND
    except RootConvergenceError:
        return False


def test_same_verdicts_on_the_ring_requests_up_to_degree_7():
    checked = 0
    for seed in _SEEDS:
        for F, alpha in util.ring_certificates(seed):
            if F.n <= 7:
                plain = _verdict(embedding.diagonalization_residual, F, alpha)
                assert plain == _verdict(numeric.diagonalization_residual, F, alpha), F.pair.text()
                checked += 1
    assert checked == 10 * 270


@pytest.mark.parametrize(
    "text, error, message",
    [
        ("1:1,2,1", ZeroDiscriminantError, "root finder requires distinct roots"),
        ("1:1,1" + "0" * 400 + ",1", FloatRangeError, "a value of about 10^400 does not fit a float64"),
        ("1:1,1" + "0" * 200 + ",1", FloatRangeError, "a root of about 10^200 has powers beyond"),
        ("1:1,1" + "0" * 160 + ",1,1", FloatRangeError, "a root of about 10^160 has powers beyond"),
    ],
    ids=["repeated-root", "huge-coefficient", "quadratic-root-powers", "cubic-root-powers"],
)
def test_both_routes_raise_alike(text, error, message):
    B = BinaryForm.from_text(text.split(":")[1])
    for find_roots in (embedding.find_roots, numeric.find_roots):
        with pytest.raises(error) as raised:
            find_roots(B)
        assert str(raised.value).startswith(message)


def test_roots_across_a_wide_range_of_sizes():
    # x^3 + 10^160 x^2 + x + 1 at 10^100 in place of 10^160, so every power fits: one root
    # near -10^100 and two near +-10^-50 i, each found from its own Newton-polygon circle
    B = BinaryForm.from_text("1,1" + "0" * 100 + ",1,1")
    plain = embedding.find_roots(B)
    for z in numeric.find_roots(B):
        assert min(abs(w - z) for w in plain) <= 1e-12 * abs(z)
    assert sorted(round(abs(z)).bit_length() for z in plain)[-1] > 300


def test_det_squared_survives_a_product_past_float64():
    # the squared differences multiply to 2.56e902, and the squared diagonal brings it back
    det2 = embedding._det_squared([-2e150, 0j, 2e150], [1e-200, 1e-200])
    assert det2 == pytest.approx(2.56e102)


@pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
def test_both_routes_refuse_a_residual_past_float64():
    # every input fits a float64, but Gamma N does not: numpy's products leave nan
    F = make_field(EssentialPair.from_text(f"1:1,{10**154},1"))
    alpha = F.element([1, 10**100])
    messages = set()
    for residual in (embedding.diagonalization_residual, numeric.diagonalization_residual):
        with pytest.raises(FloatRangeError) as raised:
            residual(F, alpha)
        messages.add(str(raised.value))
    assert messages == {"the diagonalization residual does not fit a float64"}


def test_both_routes_check_det_squared_alike(monkeypatch):
    # a discriminant 1 % off fails the one det(Gamma)^2 comparison, on both routes
    F = make_field(EssentialPair.from_text("2:4,-2,-3,1,1"))
    monkeypatch.setattr(type(F), "disc", property(lambda self: 513 + 513 // 100))
    for residual in (embedding.diagonalization_residual, numeric.diagonalization_residual):
        # the routes' det(Gamma)^2 differ in their last bits, so only the value's head is pinned
        message = r"^det\(Gamma\)\^2 = 513\S* does not match the discriminant 518$"
        with pytest.raises(ArithmatError, match=message):
            residual(F, F.element([1, 2, 0, -1]))
