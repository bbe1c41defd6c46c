import math

import numpy as np
import pytest
from scipy.integrate import quad

from capa_secrecy import snr_models as snr
from capa_secrecy.snr_models import LinkBudget, Scenario
from capa_secrecy.specfun import DomainError
from capa_secrecy.spectral import ComputationError


def hypoexp_pdf(x, scales):
    """Partial-fraction density of a sum of exponentials with distinct scales."""
    rates = 1.0 / np.asarray(scales, dtype=float)
    out = 0.0
    for i, ri in enumerate(rates):
        c = np.prod([rj / (rj - ri) for j, rj in enumerate(rates) if j != i])
        out += c * ri * np.exp(-ri * x)
    return out


def test_link_budget_validation():
    with pytest.raises(DomainError):
        LinkBudget(-1.0, 1.0)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(DomainError):
            LinkBudget(bad, 1.0)
        with pytest.raises(DomainError):
            LinkBudget(1.0, bad)
    with pytest.raises(DomainError):
        LinkBudget(1.0, 1.0, 3, Scenario.SE)
    with pytest.raises(DomainError):
        LinkBudget(1.0, 1.0, 0, Scenario.MIE)


def test_psi_equal_eigenvalues_collapse():
    ms = snr.build_psi(np.array([2.0, 2.0, 2.0]), q_max=8)
    assert ms.psis[0] == 1.0
    assert np.all(ms.psis[1:] == 0.0)
    assert math.exp(ms.log_weight_prefix) == pytest.approx(1.0, rel=1e-14)


def test_psi_normalization_synthetic(ms_synth):
    # brute-force check that the mixture weights are a probability vector
    assert ms_synth.psis[0] == 1.0
    assert np.all(ms_synth.psis >= 0.0)
    prefix = math.exp(ms_synth.log_weight_prefix)
    assert abs(1.0 - prefix * math.fsum(ms_synth.psis)) < 1e-10


def test_psi_rejects_bad_eigenvalues():
    with pytest.raises(DomainError):
        snr.build_psi(np.array([1.0, 0.0]))
    with pytest.raises(DomainError):
        snr.build_psi(np.array([2.0, 1.0]), q_max=0)
    # a spread this wide leaves a 0.135 tail at q_cap = 2000
    with pytest.raises(ComputationError, match="mixture tail"):
        snr.build_psi(np.array([1.0, 1e-3]))


def test_bob_pdf_matches_partial_fractions(ms_synth):
    lb = LinkBudget(1.0, 1.0)
    xs = np.linspace(0.05, 40.0, 60)
    got = snr.bob_pdf(xs, lb, ms_synth)
    want = hypoexp_pdf(xs, [4.0, 3.0, 2.0, 1.0])
    assert np.max(np.abs(got - want)) < 1e-12


def test_bob_pdf_matches_grid_convolution(ms_synth):
    # brute-force numerical convolution of the four exponential densities
    dx = 0.002
    grid = np.arange(0.0, 60.0, dx)
    dens = np.exp(-grid / 4.0) / 4.0
    for s in (3.0, 2.0, 1.0):
        nxt = np.exp(-grid / s) / s
        dens = np.convolve(dens, nxt)[: len(grid)] * dx
    lb = LinkBudget(1.0, 1.0)
    idx = np.arange(500, 12000, 700)
    got = snr.bob_pdf(grid[idx], lb, ms_synth)
    assert np.max(np.abs(got - dens[idx])) < 2e-3


def test_bob_pdf_normalizes(ms4):
    lb = LinkBudget(10.0, 1.0)
    val = quad(lambda x: snr.bob_pdf(x, lb, ms4), 0.0, np.inf, limit=300)[0]
    assert val == pytest.approx(1.0, abs=1e-6)


def test_bob_cdf_limits(ms4):
    lb = LinkBudget(10.0, 1.0)
    assert snr.bob_cdf(0.0, lb, ms4) == 0.0
    assert snr.bob_cdf(-3.0, lb, ms4) == 0.0
    big = snr.bob_cdf(1e4, lb, ms4)
    assert big >= 1.0 - 2.0 * 1e-8  # build_psi's default series_tol
    assert snr.bob_pdf(-1.0, lb, ms4) == 0.0
    assert snr.bob_pdf(0.0, lb, ms4) == 0.0  # dof >= 2


def test_bob_cdf_monotone_and_consistent_with_pdf(ms4):
    lb = LinkBudget(25.0, 1.0)
    xs = np.linspace(0.5, 30.0, 40)
    cdf = snr.bob_cdf(xs, lb, ms4)
    assert np.all(np.diff(cdf) > 0.0)
    h = 1e-4
    deriv = (snr.bob_cdf(xs + h, lb, ms4) - snr.bob_cdf(xs - h, lb, ms4)) / (2 * h)
    assert np.max(np.abs(deriv - snr.bob_pdf(xs, lb, ms4))) < 1e-5


def test_single_mode_reduces_to_exponential():
    ms1 = snr.build_psi(np.array([0.7]))
    lb = LinkBudget(2.0, 1.0)
    xs = np.linspace(0.0, 10.0, 30)
    mean = 2.0 * 0.7
    assert np.allclose(snr.bob_pdf(xs, lb, ms1), np.exp(-xs / mean) / mean,
                       rtol=1e-12, atol=1e-300)
    assert snr.bob_pdf(0.0, lb, ms1) == pytest.approx(1.0 / mean, rel=1e-12)
    # one eigenvalue: the first gamma shape is 1, whose density is w_0 / theta
    # at 0 and nothing below it
    assert snr.bob_pdf(0.0, lb, ms1) == ms1.weights[0] / mean
    assert snr.bob_pdf(-1.0, lb, ms1) == 0.0
    assert np.array_equal(snr.bob_pdf(np.array([-1.0, 0.0]), lb, ms1),
                          [0.0, ms1.weights[0] / mean])


def test_bob_ks_distance_against_sampler(ms4):
    lb = LinkBudget(100.0, 1.0)
    rng = np.random.default_rng(2024)
    samp = np.sort(snr.sample_bob(ms4, lb, rng, size=200_000))
    cdf = snr.bob_cdf(samp, lb, ms4)
    emp_hi = np.arange(1, samp.size + 1) / samp.size
    ks = max(np.max(np.abs(cdf - emp_hi)),
             np.max(np.abs(cdf - emp_hi + 1.0 / samp.size)))
    assert ks < 0.005


@pytest.mark.parametrize("scenario", [Scenario.MIE, Scenario.MCE])
def test_k1_reduces_to_single_eve(scenario):
    lb1 = LinkBudget(1.0, 2.5, 1, scenario)
    lb_se = LinkBudget(1.0, 2.5, 1, Scenario.SE)
    xs = np.linspace(0.0, 20.0, 50)
    assert np.allclose(snr.eve_pdf(xs, lb1), snr.eve_pdf(xs, lb_se), rtol=1e-12)
    assert np.allclose(snr.eve_cdf(xs, lb1), snr.eve_cdf(xs, lb_se), rtol=1e-12)
    # SE runs as the K = 1 independent law, bit for bit the exponential one
    assert np.array_equal(snr.eve_pdf(xs, lb_se), np.exp(-xs / 2.5) / 2.5)
    assert np.array_equal(snr.eve_cdf(xs, lb_se), -np.expm1(-xs / 2.5))
    got = snr.sample_eve(lb_se, np.random.default_rng(5), size=1000)
    want = 2.5 * np.random.default_rng(5).standard_exponential(1000)
    assert np.array_equal(got, want)


@pytest.mark.parametrize("scenario,k", [(Scenario.MIE, 2), (Scenario.MIE, 5),
                                        (Scenario.MIE, 40), (Scenario.MCE, 5)])
def test_eve_ks_distance_against_sampler(scenario, k):
    lb = LinkBudget(1.0, 2.5, k, scenario)
    rng = np.random.default_rng(2024)
    samp = np.sort(snr.sample_eve(lb, rng, size=200_000))
    cdf = snr.eve_cdf(samp, lb)
    emp_hi = np.arange(1, samp.size + 1) / samp.size
    ks = max(np.max(np.abs(cdf - emp_hi)),
             np.max(np.abs(cdf - emp_hi + 1.0 / samp.size)))
    assert ks < 0.005


def test_mce_mean_is_k_gamma_e():
    lb = LinkBudget(1.0, 2.0, 5, Scenario.MCE)
    mean = quad(lambda x: x * snr.eve_pdf(x, lb), 0.0, np.inf, limit=300)[0]
    assert mean == pytest.approx(10.0, rel=1e-8)
    # Gamma(K, gamma_e) at 0: 1 / gamma_e for K = 1, 0 for K > 1
    assert snr.eve_pdf(0.0, lb) == 0.0
    assert snr.eve_pdf(0.0, LinkBudget(1.0, 2.0, 1, Scenario.MCE)) == 0.5


def test_more_eves_stochastically_larger_max():
    xs = np.linspace(0.1, 30.0, 50)
    prev = snr.eve_cdf(xs, LinkBudget(1.0, 2.0, 2, Scenario.MIE))
    for k in (3, 5, 9):
        cur = snr.eve_cdf(xs, LinkBudget(1.0, 2.0, k, Scenario.MIE))
        assert np.all(cur < prev)
        prev = cur


def test_collaborative_dominates_independent():
    xs = np.linspace(0.1, 40.0, 60)
    for k in (2, 5, 8):
        mie = snr.eve_cdf(xs, LinkBudget(1.0, 2.0, k, Scenario.MIE))
        mce = snr.eve_cdf(xs, LinkBudget(1.0, 2.0, k, Scenario.MCE))
        assert np.all(mce <= mie + 1e-12)


def test_sampler_means(ms4):
    rng = np.random.default_rng(11)
    n = 1_000_000
    lb = LinkBudget(100.0, 3.0)
    rb = snr.sample_bob(ms4, lb, rng, size=n)
    want = 100.0 * float(np.sum(ms4.sigmas))
    assert abs(np.mean(rb) - want) <= 3.0 * np.std(rb) / math.sqrt(n)

    se = snr.sample_eve(lb, rng, size=n)
    assert abs(np.mean(se) - 3.0) <= 3.0 * np.std(se) / math.sqrt(n)

    lbc = LinkBudget(100.0, 3.0, 4, Scenario.MCE)
    ce = snr.sample_eve(lbc, rng, size=n)
    assert abs(np.mean(ce) - 12.0) <= 3.0 * np.std(ce) / math.sqrt(n)
