import math
import tracemalloc
from dataclasses import dataclass

import numpy as np
import pytest
from scipy.integrate import quad

from capa_secrecy import montecarlo as mc
from capa_secrecy import secrecy as sec
from capa_secrecy import snr_models as snr
from capa_secrecy import spectral as spc
from capa_secrecy.snr_models import LinkBudget, Scenario
from capa_secrecy.specfun import DomainError

import theorems as thm
from conftest import LAMBDA, make_spectrum, mc_point


@dataclass(frozen=True)
class _StubSpectrum:
    sigmas: np.ndarray
    wavelength_m: float


def test_estimates_are_seed_deterministic(ms4):
    lb = LinkBudget(100.0, 1.0, 5, Scenario.MIE)
    a = mc_point(lb, ms4, 1.0, 50_000, 123)
    b = mc_point(lb, ms4, 1.0, 50_000, 123)
    assert a == b
    c = mc_point(lb, ms4, 1.0, 50_000, 124)
    assert c[0].mean != a[0].mean


def test_standard_error_scaling(ms4):
    lb = LinkBudget(100.0, 1.0)
    r1, _ = mc_point(lb, ms4, 1.0, 100_000, 9)
    r4, _ = mc_point(lb, ms4, 1.0, 400_000, 9)
    assert r4.std_err == pytest.approx(r1.std_err / 2.0, rel=0.2)


def test_trial_floor_enforced(ms4):
    with pytest.raises(DomainError):
        mc_point(LinkBudget(1.0, 1.0), ms4, 1.0, 100, 0)


def test_bob_draws_are_shared_read_only_and_sized(ms4):
    bob = mc.unit_bob_draws(ms4, 20_000, 1)
    assert not bob.flags.writeable
    assert np.array_equal(bob, mc.unit_bob_draws(ms4, 20_000, 1))
    with pytest.raises(DomainError):
        mc.mc_secrecy(LinkBudget(10.0, 1.0), bob, 1.0, 30_000, 2)


def test_rate_without_eavesdropper(ms4):
    lb = LinkBudget(100.0, 1e-9)
    rate, _ = mc_point(lb, ms4, 1.0, 400_000, 31)
    want = quad(lambda x: np.log2(1.0 + x) * snr.bob_pdf(x, lb, ms4),
                0.0, np.inf, limit=300)[0]
    assert abs(rate.mean - want) <= 3 * rate.std_err


def test_sop_limits_in_target_rate(ms4):
    lb = LinkBudget(100.0, 100.0)
    _, sop_small = mc_point(lb, ms4, 1e-9, 100_000, 5)
    # r0 -> 0+: P(rho_b < rho_e), strictly inside (0, 1)
    p = quad(lambda x: snr.bob_pdf(x, lb, ms4) * np.exp(-x / 100.0),
             0.0, np.inf, limit=300)[0]
    assert 0.0 < sop_small.mean < 1.0
    assert abs(sop_small.mean - p) <= 4 * sop_small.std_err
    _, sop_big = mc_point(lb, ms4, 40.0, 100_000, 5)
    assert sop_big.mean == 1.0


def test_mie_point_matches_analytics(ms4):
    lb = LinkBudget(100.0, 1.0, 5, Scenario.MIE)
    rate, sop = mc_point(lb, ms4, 1.0, 1_000_000, 7)
    assert (abs(rate.mean - sec.secrecy_rate_quadrature(lb, ms4))
            <= 3 * rate.std_err)
    assert abs(sop.mean - sec.sop_closed(lb, ms4, 1.0)) <= 3 * sop.std_err


def test_consistency_grid(ms4, ms6):
    # 32 configurations; quadrature analytics within 3 standard errors.
    # SOP gets the rule-of-three allowance for all-outage corners where the
    # sample standard error degenerates to zero.
    checks = []
    i = 0
    for ms in (ms4, ms6):
        for gb_db in (10.0, 20.0):
            for ge_db in (0.0, 10.0):
                for scen, k in ((Scenario.SE, 1), (Scenario.MIE, 3),
                                (Scenario.MCE, 3), (Scenario.MIE, 6)):
                    lb = LinkBudget(10 ** (gb_db / 10), 10 ** (ge_db / 10),
                                    k, scen)
                    rate, sop = mc_point(lb, ms, 1.0, 100_000, 1000 + i)
                    rq = sec.secrecy_rate_quadrature(lb, ms)
                    sq = sec.sop_closed(lb, ms, 1.0)
                    checks.append(abs(rq - rate.mean)
                                  <= 3 * rate.std_err + 1e-12)
                    checks.append(abs(sq - sop.mean)
                                  <= 3 * sop.std_err + 4.0 / sop.n_trials)
                    i += 1
    assert len(checks) == 64
    assert sum(checks) >= 63


def test_exact_eve_flat_spectrum_is_deterministic():
    stub = _StubSpectrum(np.full(6, LAMBDA / 2), LAMBDA)
    est = thm.mc_exact_eve(stub, 20_000, 3)
    assert est.mean == pytest.approx(1.0, abs=1e-12)
    assert est.std_err == pytest.approx(0.0, abs=1e-12)


def test_exact_eve_spread_grows_at_small_aperture(spec80):
    small = make_spectrum(2.0, 120)
    cv_small = thm.coefficient_of_variation(thm.mc_exact_eve(small, 30_000, 4))
    cv_large = thm.coefficient_of_variation(thm.mc_exact_eve(spec80, 30_000, 4))
    assert cv_small > cv_large


def test_spda_element_ratio_constant():
    assert mc.SPDA_ELEMENT_APERTURE_RATIO == pytest.approx(0.11283791671, abs=1e-9)
    assert mc.SPDA_ELEMENT_APERTURE_RATIO == pytest.approx(
        (LAMBDA / (5.0 * math.sqrt(4.0 * math.pi))) / (LAMBDA / 2.0), rel=1e-12)


def test_spda_requires_two_elements():
    with pytest.raises(DomainError):
        geom = spc.ApertureGeometry(1.0, 2.0)  # fine geometrically
        lb = LinkBudget(1.0, 1.0)
        bad = spc.ApertureGeometry.__new__(spc.ApertureGeometry)
        object.__setattr__(bad, "wavelength_m", 1.0)
        object.__setattr__(bad, "aperture_len_m", 0.6)
        mc.spda_baseline(lb, bad, 1.0, 20_000, 0)


def test_spda_element_count_matches_dof():
    # 2 * 0.7 / 0.1 is 13.999999999999998 in floats; the array has 14
    # elements, as many as a hair longer aperture and as geom.dof says
    lb = LinkBudget(10.0, 1.0)
    geom = spc.ApertureGeometry(0.1, 0.7)
    assert geom.dof == 14
    longer = spc.ApertureGeometry(0.1, 0.7 + 1e-10)
    assert (mc.spda_baseline(lb, geom, 1.0, 10_000, 3)
            == mc.spda_baseline(lb, longer, 1.0, 10_000, 3))


@pytest.mark.parametrize("n_el,gb_db,ge_db,r0", [(4, 20.0, 10.0, 1.0),
                                                 (80, 20.0, 20.0, 3.0)])
def test_spda_matches_its_analytic_law(n_el, gb_db, ge_db, r0):
    # the array's Bob SNR is the aperture law of n_el equal eigenvalues
    # a_el lambda/2, and Eve's average SNR carries the same a_el, so the
    # analytic evaluators give the baseline's exact rate and SOP
    a_el = mc.SPDA_ELEMENT_APERTURE_RATIO
    geom = spc.ApertureGeometry(LAMBDA, n_el * LAMBDA / 2)
    ms = snr.build_psi(np.full(n_el, a_el * LAMBDA / 2))
    n = 100_000
    for scen, k in ((Scenario.SE, 1), (Scenario.MIE, 5), (Scenario.MCE, 5)):
        lb = LinkBudget(10 ** (gb_db / 10), 10 ** (ge_db / 10), k, scen)
        eve_lb = LinkBudget(lb.gamma_bar_b, lb.gamma_bar_e * a_el, k, scen)
        rate, sop = mc.spda_baseline(lb, geom, r0, n, 11)
        assert 0.0 < sop.mean < 1.0
        assert (abs(rate.mean - sec.secrecy_rate_quadrature(eve_lb, ms))
                <= 6 * rate.std_err + 10 / n)
        assert (abs(sop.mean - sec.sop_closed(eve_lb, ms, r0))
                <= 6 * sop.std_err + 10 / n)


def test_spda_dominated_by_continuous_aperture():
    spec8 = make_spectrum(4.0, 200)
    ms8 = snr.build_psi(spec8)
    geom = spc.ApertureGeometry(LAMBDA, 4 * LAMBDA)
    for scen, k in ((Scenario.SE, 1), (Scenario.MIE, 4), (Scenario.MCE, 4)):
        lb = LinkBudget(100.0, 10.0, k, scen)
        cr, cs = mc_point(lb, ms8, 1.0, 100_000, 17)
        sr, ss = mc.spda_baseline(lb, geom, 1.0, 100_000, 17)
        assert cr.mean >= sr.mean
        assert cs.mean <= ss.mean


def test_welford_merge_matches_direct():
    rng = np.random.default_rng(0)
    xs = rng.normal(3.0, 2.0, size=300_001)
    acc = mc._Welford()
    for i in range(0, xs.size, 77_777):
        acc.add(xs[i:i + 77_777])
    est = acc.estimate()
    assert est.mean == pytest.approx(float(np.mean(xs)), rel=1e-12)
    want_se = float(np.std(xs, ddof=1)) / math.sqrt(xs.size)
    assert est.std_err == pytest.approx(want_se, rel=1e-12)


def test_bob_draws_peak_memory(ms80):
    # the output and one row block of exponentials, not a (131072, dof)
    # matrix per trial block (84 MB at dof 80)
    tracemalloc.start()
    try:
        bob = mc.unit_bob_draws(ms80, 200_000, 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert bob.shape == (200_000,)
    assert peak <= 8 << 20, peak
