import functools
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import gammainc

import theorems as thm
from capa_secrecy import snr_models as snr
from capa_secrecy.snr_models import LinkBudget, Scenario
from capa_secrecy.specfun import DomainError, poisson_tail
from capa_secrecy.spectral import ComputationError
from conftest import make_spectrum

BOB_LAWS = {"pdf": snr.bob_pdf, "cdf": snr.bob_cdf,
            "survival": snr.bob_survival}
# (aperture in wavelengths, quadrature order) by DoF
BOB_SPECTRA = {4: (2.0, 120), 6: (3.0, 160), 20: (10.0, 400),
               80: (40.0, 1000), 100: (50.0, 1000)}


@functools.cache
def bob_series(dof):
    ms = snr.build_psi(make_spectrum(*BOB_SPECTRA[dof]))
    assert ms.dof == dof
    return ms


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


def test_flat_spectrum_is_one_gamma_shape():
    # every ratio is 0: the series stops at q = 0, and the laws are those of
    # the series padded with the 160 zero psi's it used to carry
    sigmas = np.full(5, 0.0624)
    ms = snr.build_psi(sigmas)
    assert ms.q_max == 0 and ms.psis.tolist() == [1.0]
    padded = replace(ms, psis=np.append(1.0, np.zeros(160)),
                     log_psis=np.append(0.0, np.full(160, -np.inf)), q_max=160)
    lb = LinkBudget(10.0, 1.0)
    xs = np.array([-1.0, 0.0, 1e-3, 0.2, 0.5, 1.0, 3.0, 10.0, 30.0, np.inf])
    for law in BOB_LAWS.values():
        assert np.allclose(law(xs, lb, ms), law(xs, lb, padded), rtol=1e-14,
                           atol=0.0), law
    want = gammainc(5, np.maximum(xs, 0.0) / (lb.gamma_bar_b * 0.0624))
    assert np.allclose(snr.bob_cdf(xs, lb, ms), want, rtol=1e-14, atol=0.0)


def test_psi_normalization_synthetic(ms_synth):
    # brute-force check that the mixture weights are a probability vector
    assert ms_synth.psis[0] == 1.0
    assert np.all(ms_synth.psis >= 0.0)
    prefix = math.exp(ms_synth.log_weight_prefix)
    assert abs(1.0 - prefix * math.fsum(ms_synth.psis)) < 1e-10


@pytest.mark.parametrize("spectrum,kwargs,q", [
    ("spec2", {}, 160), ("spec6", {}, 160), ("spec80", {}, 160),
    (100.0, {}, 320), (200.0, {}, 640),  # q_max doubles once and twice
    ([4.0, 3.0, 2.0, 1.0], {"q_max": 200}, 200),
    ([0.3] * 5, {}, 0), ([0.7], {}, 0),
], ids=["dof2", "dof6", "dof80", "100lambda", "200lambda", "synthetic",
        "flat", "one"])
def test_series_is_the_scalar_recursion_bit_for_bit(spectrum, kwargs, q,
                                                     request):
    # the numpy recursion makes every power sum and every psi_n the double
    # the scalar one makes
    if isinstance(spectrum, str):
        spectrum = request.getfixturevalue(spectrum)
    elif isinstance(spectrum, float):  # wavelengths, at the converged order
        spectrum = make_spectrum(spectrum, None)
    sigmas = (spectrum.sigmas[:spectrum.dof] if hasattr(spectrum, "sigmas")
              else np.array(spectrum))
    ms = snr.build_psi(spectrum, **kwargs)
    psis, residual, q_max = thm.psi_scalar(sigmas, **kwargs)
    assert np.array_equal(ms.psis, psis)
    assert ms.residual == residual and ms.q_max == q_max == q


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
    # NaN in gives NaN out; at +inf the density and the survival are 0 and
    # the CDF is the total weight capped at 1, in both forms and without a
    # warning (the CDF sums the weights forward, the survival backward)
    total, total_back = ms4.cum_weights[-1], ms4.tail_weights[0]
    cap, cap_back = min(total, 1.0), min(total_back, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for x in (math.nan, math.inf, -math.inf):
            got = {law: (f(x, lb, ms4), f(np.array([x, 1.0]), lb, ms4)[0])
                   for law, f in BOB_LAWS.items()}
            if math.isnan(x):
                assert all(map(math.isnan, sum(got.values(), ())))
            elif x > 0.0:
                assert got == {"pdf": (0.0, 0.0), "cdf": (cap, cap),
                               "survival": (0.0, 0.0)}
            else:
                assert got == {"pdf": (0.0, 0.0), "cdf": (0.0, 0.0),
                               "survival": (cap_back, cap_back)}
    assert total == pytest.approx(1.0 - ms4.residual, rel=1e-14)
    assert total_back == pytest.approx(total, rel=1e-14)


@pytest.mark.parametrize("dof", [4, 6, 80])
def test_bob_probabilities_at_most_one(dof):
    # the forward and backward weight sums round a few ulps past 1 at some
    # DoF (dof 6: 1 + 3e-15); the laws are probabilities all the same
    ms = bob_series(dof)
    lb = LinkBudget(10.0, 1.0)
    mean = lb.gamma_bar_b * float(np.sum(ms.sigmas))
    xs = np.concatenate([[0.0, math.inf], mean * np.geomspace(1e-3, 1e3, 200)])
    for law in (snr.bob_cdf, snr.bob_survival):
        assert np.all(law(xs, lb, ms) <= 1.0), law.__name__
        assert all(law(float(x), lb, ms) <= 1.0 for x in xs), law.__name__
    assert snr.bob_cdf(math.inf, lb, ms) == snr.bob_survival(0.0, lb, ms) == 1.0


@pytest.mark.parametrize("dof", sorted(BOB_SPECTRA))
def test_bob_laws_match_per_shape_gamma_mixture(dof):
    # the Poisson-index sums against one incomplete-gamma call per shape,
    # below 0, at 0 and from the lower tail through the bulk into the upper
    ms = bob_series(dof)
    lb = LinkBudget(100.0, 1.0)
    mean = lb.gamma_bar_b * float(np.sum(ms.sigmas))
    xs = np.concatenate([[-2.0, 0.0], mean * np.geomspace(1e-3, 40.0, 600)])
    want = {law: thm.bob_mixture(law, xs, lb, ms) for law in BOB_LAWS}
    for law, f in BOB_LAWS.items():
        for got in (f(xs, lb, ms), np.array([f(float(x), lb, ms) for x in xs])):
            assert np.all(np.abs(got - want[law])
                          <= 1e-12 * want[law] + 1e-300), law
    if dof == 80:  # both tails are covered far out
        assert 0.0 < np.min(want["cdf"][want["cdf"] > 0.0]) < 1e-200
        assert 0.0 < np.min(want["survival"][want["survival"] > 0.0]) < 1e-200


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


@pytest.mark.parametrize("scenario,k", [(Scenario.SE, 1), (Scenario.MIE, 4),
                                        (Scenario.MCE, 1), (Scenario.MCE, 4)])
def test_eve_laws_at_nan_and_inf(scenario, k):
    # NaN in gives NaN out, the density is 0 at +inf and below 0, in both
    # forms and without a warning
    lb = LinkBudget(1.0, 2.0, k, scenario)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for f, at_inf in ((snr.eve_pdf, 0.0), (snr.eve_cdf, 1.0)):
            for x, want in ((math.nan, math.nan), (math.inf, at_inf),
                            (-math.inf, 0.0), (-1.0, 0.0)):
                for got in (f(x, lb), f(np.array([x, 1.0]), lb)[0]):
                    assert got == want or math.isnan(got) and math.isnan(want)


@pytest.mark.parametrize("scenario,k", [(Scenario.SE, 1), (Scenario.MIE, 3),
                                        (Scenario.MIE, 40), (Scenario.MCE, 3)])
def test_float_and_one_element_array_agree(ms6, scenario, k):
    # a float argument gives a float, a one-element array a one-element
    # array, and both the same bits
    lb = LinkBudget(30.0, 2.0, k, scenario)
    laws = [(f, (lb, ms6)) for f in BOB_LAWS.values()]
    laws += [(snr.eve_pdf, (lb,)), (snr.eve_cdf, (lb,))]
    xs = [-1.0, 0.0, 1e-6, 0.3, 2.0, 7.5, 40.0, 150.0, 1e3, 1e5,
          math.inf, -math.inf, math.nan]
    for f, args in laws:
        for x in xs:
            a, b = f(x, *args), f(np.array([x]), *args)
            assert type(a) is float and b.shape == (1,)
            assert a == b[0] or (math.isnan(a) and math.isnan(b[0])), (f, x)


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


@pytest.mark.parametrize("dof", [4, 80])
def test_sample_bob_blocks_match_one_matrix(dof):
    # the row blocks draw and sum exactly what one matrix would.  At dof 4
    # the plateau is one eigenvalue, so that matrix is (n, dof); at dof 80
    # the 64 plateau eigenvalues are their mean times one Gamma(64) draw,
    # drawn first, and the other 16 an (n, 16) matrix
    ms = bob_series(dof)
    m = snr.bob_plateau(ms.sigmas)
    assert m == {4: 1, 80: 64}[dof]
    rest = ms.sigmas[m:] if m >= 2 else ms.sigmas
    lb = LinkBudget(3.7, 1.0)
    block = snr._DRAW_BLOCK // rest.size
    for n in (1, block - 1, block, block + 1, 131072):
        got = snr.sample_bob(ms, lb, np.random.default_rng(n), size=n)
        rng = np.random.default_rng(n)
        if m >= 2:
            want = np.mean(ms.sigmas[:m]) * rng.standard_gamma(m, n)
            want += rng.standard_exponential((n, rest.size)) @ rest
        else:
            want = rng.standard_exponential((n, dof)) @ rest
        want *= lb.gamma_bar_b
        assert got.shape == (n,)
        assert np.array_equal(got, want), n


@pytest.mark.parametrize("dof", [20, 80, 100])
def test_plateau_as_one_gamma_moves_a_draw_by_its_spread(dof):
    # for one exponential matrix E, the plateau's sum_l sigma_l E_l and
    # sigma_bar sum_l E_l differ by at most spread * sigma_bar * sum_l E_l,
    # where spread = (max - min) / sigma_bar over the plateau is at most
    # the plateau's relative threshold
    ms = bob_series(dof)
    m = snr.bob_plateau(ms.sigmas)
    plateau = ms.sigmas[:m]
    sigma_bar = np.mean(plateau)
    spread = (plateau[0] - plateau[-1]) / sigma_bar
    assert m >= 2
    assert spread <= snr._PLATEAU_RTOL * plateau[0] / sigma_bar
    assert ms.sigmas[m] < plateau[0] * (1.0 - snr._PLATEAU_RTOL)
    e = np.random.default_rng(dof).standard_exponential((20_000, m))
    sums = e.sum(axis=1)
    gap = np.abs(e @ plateau - sigma_bar * sums)
    assert np.all(gap <= spread * sigma_bar * sums)


def test_many_point_laws_equal_point_by_point(ms80):
    # one call over 600 points, each with its own gamma_b, runs in several
    # blocks of poisson_mix; every value is the one its own call gives
    rng = np.random.default_rng(5)
    gb = 10.0 ** rng.uniform(-1.0, 3.0, 600)
    x = gb * np.append(rng.uniform(0.0, 20.0, 597), [0.0, 1e4, np.inf])
    for law in (snr.bob_pdf, snr.bob_cdf, snr.bob_survival):
        many = law(x, gb, ms80)
        assert np.array_equal(many, [law(xi, LinkBudget(g, 1.0), ms80)
                                     for xi, g in zip(x, gb)]), law.__name__
    z = x / gb * 10.0
    for n in (5, 80):
        assert np.array_equal(poisson_tail(n, z), [poisson_tail(n, zi) for zi in z])
