import math

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad

from capa_secrecy import secrecy as sec
from capa_secrecy import specfun as sf


def e1(x):
    return math.exp(-x) * sf.scaled_e1(x)


def test_exp_e1_against_quadrature():
    oracle = quad(lambda u: math.exp(-u) / u, 1.0, np.inf, limit=200)[0]
    assert e1(1.0) == pytest.approx(oracle, rel=1e-11)


def test_scaled_e1_values_and_asymptote():
    # continued-fraction value cross-checked against quadrature
    oracle = quad(lambda u: math.exp(100.0 - u) / u, 100.0, 150.0, limit=200)[0]
    assert sf.scaled_e1(100.0) == pytest.approx(oracle, rel=1e-9)
    assert sf.scaled_e1(100.0) == pytest.approx(0.009902, abs=2e-6)
    # x * e^x E1(x) -> 1
    for x in [1e3, 1e4, 1e6]:
        assert x * sf.scaled_e1(x) == pytest.approx(1.0, abs=2e-3)


def test_small_argument_limit_reaches_euler_mascheroni():
    for x in [1e-7, 1e-8, 1e-10]:
        y = math.log(x) + e1(x)
        assert abs(y + sf.EULER_GAMMA) <= 1e-6


def test_scaled_e1_strictly_decreasing():
    xs = np.logspace(-10, 5, 120)
    vals = [sf.scaled_e1(x) for x in xs]
    assert all(b < a for a, b in zip(vals, vals[1:]))


def test_e1_domain_error():
    with pytest.raises(sf.DomainError):
        sf.scaled_e1(0.0)
    with pytest.raises(sf.DomainError):
        sf.scaled_e1(-2.0)


def test_log_binomial():
    assert sf.log_binomial(7, 0) == 0.0
    assert sf.log_binomial(5, 2) == pytest.approx(math.log(10.0), rel=1e-15)
    oracle = (math.fsum(math.log(k) for k in range(1, 201))
              - 2 * math.fsum(math.log(k) for k in range(1, 101)))
    assert sf.log_binomial(200, 100) == pytest.approx(oracle, rel=1e-12)
    with pytest.raises(sf.DomainError):
        sf.log_binomial(4, 5)


def test_quadrature_agreement_on_grid():
    # E1 against adaptive quadrature of its defining integral on a
    # 100-point grid
    for x in np.logspace(-3, 2.5, 100):
        oracle = quad(lambda u: math.exp(-u) / u, x, x + 60.0, limit=200)[0]
        assert e1(x) == pytest.approx(oracle, rel=1e-8)


def test_precision_modes_validate():
    assert sf.STANDARD.mode == "standard-float"
    with pytest.raises(sf.DomainError):
        sf.EvalPrecision(mode="quad-float")


def test_signed_log_arithmetic():
    a = sf.SignedLog.from_float(-3.0)
    b = sf.SignedLog.from_float(5.0)
    assert (a + b).to_float() == pytest.approx(2.0, rel=1e-14)
    assert (a * b).to_float() == pytest.approx(-15.0, rel=1e-14)
    assert (b / a).to_float() == pytest.approx(-5.0 / 3.0, rel=1e-14)
    assert sum([a, b], sf.SignedLog.from_float(0.0)).to_float() == pytest.approx(2.0)
    # overflow-free representation
    big = sf.SignedLog.from_log(1, 5000.0) * sf.SignedLog.from_log(1, -4999.0)
    assert big.to_float() == pytest.approx(math.e, rel=1e-12)
    # cancellation is visible in the condition estimate (factor ~2e7 here)
    c = sf.SignedLog.from_log(1, 300.0) - sf.SignedLog.from_log(1, 299.9999999)
    assert c.log_condition() > 15.0


def _fold(zero, xs, ys):
    # the per-term arithmetic that each closed-rate backend's dot fuses
    acc = zero
    for x, y in zip(xs, ys):
        acc = acc + x * y
    return acc


def _signed_log_pairs(rng, n):
    """Factors whose products include zeros (some with a finite mass), ties
    in magnitude, exact cancellations and masses of -inf."""
    mags = (-2.0, 0.0, 0.5, 3.0, math.nextafter(3.0, 4.0))
    xs, ys = [], []
    while len(xs) < n:
        sign = int(rng.choice((-1, 1)))
        mag = float(rng.choice(mags))
        kind = int(rng.integers(6))
        if kind == 0:
            x = sf.SignedLog(0, -math.inf)
        elif kind == 1:
            x = sf.SignedLog(0, -math.inf, float(rng.normal()))
        elif kind == 2:
            x = sf.SignedLog(sign, mag, -math.inf)
        elif kind == 3:
            x = sf.SignedLog(sign, float(rng.normal(0.0, 5.0)))
        else:
            x = sf.SignedLog(sign, mag, mag + float(rng.exponential()))
        y = sf.SignedLog(int(rng.choice((-1, 1))), float(rng.choice(mags)))
        xs.append(x)
        ys.append(y)
        if kind == 5:  # the next product cancels this one exactly
            xs.append(-x)
            ys.append(y)
    return xs, ys


def test_float_dot_is_the_fold_bit_for_bit():
    rng = np.random.default_rng(20261019)
    bk = sec._FloatBackend()
    for n in list(range(6)) + [12, 40, 200] * 30:
        xs, ys = _signed_log_pairs(rng, n)
        got, want = bk.dot(xs, ys), _fold(bk.zero(), xs, ys)
        assert (got.sign, got.mag, got.mass) == (want.sign, want.mag, want.mass)
    # a product that cancels a nonzero partial sum exactly, mid-sum
    one, a, b = (sf.SignedLog.from_float(v) for v in (1.0, 3.0, -0.7))
    xs, ys = [a, b, -(a + b), a], [one, one, one, b]
    assert _fold(bk.zero(), xs[:3], ys[:3]).sign == 0
    got, want = bk.dot(xs, ys), _fold(bk.zero(), xs, ys)
    assert (got.sign, got.mag, got.mass) == (want.sign, want.mag, want.mass)
    assert got.to_float() == pytest.approx(-2.1, rel=1e-14)
    assert bk.dot([], []).sign == 0


def test_mp_dot_is_the_fold():
    rng = np.random.default_rng(7)
    bk = sec._MPBackend()
    with mpmath.workdps(50):
        for n in (0, 1, 5, 40):
            # full-precision factors over 40 decades, so the sum rounds
            xs = [mpmath.mpf(v) * mpmath.mpf(10) ** int(d) / 7 for v, d in
                  zip(rng.normal(size=n), rng.integers(-20, 20, size=n))]
            ys = [mpmath.mpf(v) if k else mpmath.mpf(0)
                  for v, k in zip(rng.normal(size=n), rng.integers(4, size=n))]
            assert bk.dot(xs, ys) == _fold(bk.zero(), xs, ys)
