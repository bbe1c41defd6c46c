import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import gammainc, gammaln

import theorems as thm
from capa_secrecy import secrecy as sec
from capa_secrecy import snr_models as snr
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
    # the per-term arithmetic that signed_log_dot fuses
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
    zero = sf.SignedLog(0, -math.inf)
    for n in list(range(6)) + [12, 40, 200] * 30:
        xs, ys = _signed_log_pairs(rng, n)
        got, want = sf.signed_log_dot(xs, ys), _fold(zero, xs, ys)
        assert (got.sign, got.mag, got.mass) == (want.sign, want.mag, want.mass)
    # a product that cancels a nonzero partial sum exactly, mid-sum
    one, a, b = (sf.SignedLog.from_float(v) for v in (1.0, 3.0, -0.7))
    xs, ys = [a, b, -(a + b), a], [one, one, one, b]
    assert _fold(zero, xs[:3], ys[:3]).sign == 0
    got, want = sf.signed_log_dot(xs, ys), _fold(zero, xs, ys)
    assert (got.sign, got.mag, got.mass) == (want.sign, want.mag, want.mass)
    assert got.to_float() == pytest.approx(-2.1, rel=1e-14)
    assert sf.signed_log_dot([], []).sign == 0


# ---------------------------------------------------------------------------
# Poisson tails against scipy.special, which the package no longer imports
# ---------------------------------------------------------------------------

def assert_tails_match(got, want, where):
    # <= 1e-12 relative wherever scipy's value is a normal double well above
    # underflow; below that both are 0 or subnormal
    big = want > 1e-290
    rel = np.abs(got[big] - want[big]) / want[big]
    assert rel.max(initial=0.0) <= 1e-12, (where, rel.max())
    assert np.all(got[~big] <= 1e-280), where


@pytest.mark.parametrize("n", [1, 2, 5, 8, 40, 181, 241, 261, 500])
def test_poisson_tail_matches_gammainc(n):
    rng = np.random.default_rng(n)
    z = np.concatenate([rng.uniform(0.0, 3.0 * n + 10.0, 400),
                        np.geomspace(1e-6, 5.0 * n + 50.0, 400),
                        np.arange(max(n - 3, 0), n + 4, dtype=float)])
    assert_tails_match(sf.poisson_tail(n, z), gammainc(n, z), n)
    # the edges, also for one point at a time
    assert sf.poisson_tail(n, 0.0) == 0.0 and sf.poisson_tail(n, np.inf) == 1.0
    assert np.isnan(sf.poisson_tail(n, np.nan))
    assert sf.poisson_tail(n, 0.0).shape == ()
    edges = sf.poisson_tail(n, np.array([0.0, np.inf, np.nan, float(n)]))
    assert edges[:2].tolist() == [0.0, 1.0] and np.isnan(edges[2])
    assert abs(edges[3] - gammainc(n, n)) <= 1e-12 * gammainc(n, n)


def test_poisson_tail_at_zero_for_small_shapes():
    # p_(n-1)(0) is 1 for n = 1 and 0 above: both give P(n, 0) = 0
    for n in (1, 2):
        assert sf.poisson_tail(n, np.array([0.0, 1e-300, 1e-3])).tolist() == \
            pytest.approx([0.0, gammainc(n, 1e-300), gammainc(n, 1e-3)],
                          rel=1e-14, abs=0.0)


def test_poisson_tail_is_the_same_point_by_point():
    # a point's terms do not depend on the other points of the array; only
    # the order in which BLAS sums them may, a few ulps
    z = np.geomspace(1e-3, 2e3, 60)
    for n in (5, 241):
        together = sf.poisson_tail(n, z)
        alone = np.array([sf.poisson_tail(n, v) for v in z])
        assert np.allclose(together, alone, rtol=1e-15, atol=0.0), n


def poisson_sums(ms):
    """(table, k0, top, log k!) of the Poisson sums behind Bob's density,
    CDF and survival on series `ms`, and of P(n, z) at n 5 and 80."""
    lf = ms.log_factorials
    sums = [(ms.weights, ms.dof - 1, 0.0, lf),
            (ms.cum_weights, ms.dof, float(ms.cum_weights[-1]), lf),
            (ms.tail_weights, 0, 0.0, lf)]
    return sums + [(np.zeros(n), 0, 1.0,
                    sf.log_factorials(n + sf.poisson_series_terms(n)))
                   for n in (5, 80)]


def near_normal_peaks(table, k0: int, top: float, lf) -> np.ndarray:
    """z on either side of each point where the largest pmf term over the
    sum's k range crosses the smallest normal double: below k0 the term at
    k0, past the range the term at its end."""
    n = k0 + len(table)
    m = n + sf.poisson_series_terms(n) if top else n

    def peak(z):
        k = min(max(math.floor(z), k0), m - 1)
        return k * math.log(z) - z - math.lgamma(k + 1.0) - sf._LOG_NORMAL

    roots = []
    for lo, hi in ((1e-300, float(k0)), (float(m), 1e7)):
        if lo < hi and peak(lo) * peak(hi) < 0.0:
            for _ in range(200):
                mid = math.sqrt(lo * hi) if hi > 2.0 * lo else 0.5 * (lo + hi)
                lo, hi = (mid, hi) if peak(mid) * peak(hi) < 0.0 else (lo, mid)
            roots.append(lo)
    return np.array([r * (1.0 + j * 1e-4) for r in roots for j in range(-5, 6)])


def test_poisson_mix_gives_each_z_its_own_value(ms6, ms80):
    # one call over shuffled repeats of z, the edges among them, gives each
    # z the value it gets alone: each distinct z is summed once, and a term
    # counts as 0 below the smallest normal double whichever other points
    # set the k range
    rng = np.random.default_rng(29)
    for ms in (ms6, ms80):
        for table, k0, top, lf in poisson_sums(ms):
            z = np.concatenate([[0.0, np.inf, np.nan, 1e-300],
                                near_normal_peaks(table, k0, top, lf),
                                rng.uniform(0.0, 3.0 * (k0 + len(table)), 40),
                                np.geomspace(1e-6, 1e6, 40)])
            z = rng.permutation(np.repeat(z, rng.integers(1, 4, z.size)))
            many = sf.poisson_mix(z, table, k0, top, lf)
            alone = [sf.poisson_mix(np.array([v]), table, k0, top, lf)[0]
                     for v in z]
            assert np.array_equal(many, alone, equal_nan=True), (ms.dof, k0)


def test_poisson_mix_is_the_full_exp_sum_above_1e_290(ms6, ms80):
    # a term below the smallest normal double counting as 0 moves no value
    # of 1e-290 or more, the floor of the sums' stated accuracy, and moves
    # the ones below it by far less than that
    for ms in (ms6, ms80):
        for table, k0, top, lf in poisson_sums(ms):
            z = np.concatenate([[0.0, np.inf], np.geomspace(1e-8, 1e6, 3000),
                                near_normal_peaks(table, k0, top, lf)])
            got = sf.poisson_mix(z, table, k0, top, lf)
            want = thm.poisson_mix_full_exp(z, table, k0, top, lf)
            big = want >= 1e-290
            assert np.array_equal(got[big], want[big]), (ms.dof, k0)
            assert np.all(np.abs(got - want)[~big] <= 1e-300), (ms.dof, k0)


@pytest.mark.parametrize("lam", [1e-3, 0.5, 3.0, 37.0, 150.0, 240.0, 1000.0])
def test_sop_closed_tail_vector_matches_gammainc(lam):
    # the closed-form SOP's Poisson tails P(Pois(lam) >= k), 0 < k < 261
    # (dof 100, q_max 160): the SOP of a series of dof k with one weight,
    # theta = 1 (lambda = g - 1) and an Eve at 1e-300 (r = e^-690 or less,
    # which adds nothing) is that tail, for lam below and above k + 1
    got = []
    for k in range(1, 261):
        ms = snr.MoschopoulosSeries(
            sigmas=np.ones(k), dof=k, sigma_min=1.0, psis=np.ones(1),
            log_psis=np.zeros(1), q_max=0, log_weight_prefix=0.0,
            residual=0.0)
        lb = snr.LinkBudget(1.0, 1e-300)
        got.append(math.exp(sec._log_sop(lb, ms, math.log1p(lam))))
    assert_tails_match(np.array(got), gammainc(np.arange(1.0, 261.0), lam),
                       lam)


def test_log_factorials_match_gammaln():
    got = sf.log_factorials(3000)
    want = gammaln(np.arange(1.0, 3001.0))
    assert got[:2].tolist() == [0.0, 0.0]
    ulps = np.abs(got - want)[2:] / np.spacing(want[2:])
    assert ulps.max() <= 4.0


def test_xlogy_edges():
    assert sf.xlogy(0, 0.0) == 0.0 and sf.xlogy(0, np.inf) == 0.0
    assert sf.xlogy(3, 0.0) == -np.inf
    assert np.isnan(sf.xlogy(0, np.nan)) and np.isnan(sf.xlogy(np.nan, 2.0))
    got = sf.xlogy(np.arange(3.0), np.array([0.0, 0.0, np.nan]))
    assert got[0] == 0.0 and got[1] == -np.inf and np.isnan(got[2])
    assert sf.xlogy(2, np.e) == pytest.approx(2.0, rel=1e-15)
