import io
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
from capa_secrecy import sweep as sw
from capa_secrecy.snr_models import LinkBudget, Scenario
from capa_secrecy.specfun import DomainError

import theorems as thm
from conftest import LAMBDA, make_spectrum, mc_point, spda_point


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
    # and so are Eve's and the array's
    geom = spc.ApertureGeometry(LAMBDA, 2 * LAMBDA)
    lb = LinkBudget(10.0, 1.0, 3, Scenario.MIE)
    bob = mc.unit_bob_draws(ms4, 20_000, 1)
    spda = mc.unit_spda_draws(geom, 20_000, 1)
    eve = mc.unit_eve_draws(Scenario.MIE, 3, 20_000, 2)
    for draws, again in ((bob, mc.unit_bob_draws(ms4, 20_000, 1)),
                         (spda, mc.unit_spda_draws(geom, 20_000, 1)),
                         (eve, mc.unit_eve_draws(Scenario.MIE, 3, 20_000, 2))):
        assert not draws.flags.writeable
        assert draws.shape == (20_000,)
        assert np.array_equal(draws, again)
    for n_trials in (30_000, 15_000):
        with pytest.raises(DomainError):
            mc.mc_secrecy(lb, bob, eve, 1.0, n_trials)
    with pytest.raises(DomainError):
        mc.mc_secrecy(lb, bob, eve[:10_000], 1.0, 20_000)
    with pytest.raises(DomainError):
        mc.spda_baseline(lb, geom, spda, eve, 1.0, 30_000)


@pytest.mark.parametrize("scen,k", [(Scenario.SE, 1), (Scenario.MIE, 5),
                                    (Scenario.MCE, 5)])
def test_unit_eve_draws_scale_to_any_eve_snr(scen, k):
    # every Eve law is a scale family: gamma_e times the unit draws are the
    # draws at gamma_e, bit for bit
    unit = mc.unit_eve_draws(scen, k, 1000, 8)
    for gamma_e in (1e-3, 0.37, 100.0):
        lb = LinkBudget(1.0, gamma_e, k, scen)
        rng = np.random.default_rng(np.random.SeedSequence(8, spawn_key=(0,)))
        direct = snr.sample_eve(lb, rng, size=1000)
        assert np.array_equal(gamma_e * unit, direct)


@pytest.mark.parametrize("n", [mc._LOOP_BLOCK, 50_000])
def test_loop_is_the_direct_estimate(n):
    # the in-place loop computes the plain numpy expressions: in one block
    # their means bit for bit, over several to the sums' rounding
    rng = np.random.default_rng(3)
    bob, eve = rng.exponential(size=(2, n))
    lb = LinkBudget(20.0, 3.0, 2, Scenario.MCE)
    rate, sop = mc.mc_secrecy(lb, bob, eve, 1.5, n)
    rho_b, rho_e = 20.0 * bob, 3.0 * eve
    rates = np.maximum(np.log2(1.0 + rho_b) - np.log2(1.0 + rho_e), 0.0)
    outage = (rho_b < 2.0 ** 1.5 * (1.0 + rho_e) - 1.0).astype(float)
    for est, xs in ((rate, rates), (sop, outage)):
        want = (float(np.mean(xs)),
                float(np.std(xs, ddof=1)) / math.sqrt(n))
        if n <= mc._LOOP_BLOCK:
            assert est.mean == want[0]
        assert (est.mean, est.std_err) == pytest.approx(want, rel=1e-12)


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


SOP_ENTRIES = {  # every library route to an SOP at r0, on 2 wavelengths
    "quadrature": sec.sop_quadrature,
    "closed": sec.sop_closed,
    "asymptotic": sec.sop_asymptotic,
    "gain": lambda lb, ms, r0: sec.diversity_and_gain(lb, ms, r0)[1],
    "monte-carlo": lambda lb, ms, r0: mc_point(lb, ms, r0, 10_000, 5)[1].mean,
    "spda": lambda lb, ms, r0: spda_point(
        lb, spc.ApertureGeometry(LAMBDA, 2 * LAMBDA), r0, 10_000, 5)[1].mean}


@pytest.mark.parametrize("entry", SOP_ENTRIES)
def test_target_rate_outside_the_double_range_raises(ms4, entry):
    # 2^r0 overflows a double from r0 = 1024 on, and NaN or inf is no rate:
    # each is a DomainError, not a silent 0, nan or an OverflowError
    lb = LinkBudget(10.0, 1.0)
    for r0 in (math.nan, math.inf, 1024.0, 1100.0):
        with pytest.raises(DomainError):
            SOP_ENTRIES[entry](lb, ms4, r0)
    assert isinstance(SOP_ENTRIES[entry](lb, ms4, 1023.0), float)


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
    # 0.6 wavelengths: one element; built without __post_init__'s warning
    bad = spc.ApertureGeometry.__new__(spc.ApertureGeometry)
    object.__setattr__(bad, "wavelength_m", 1.0)
    object.__setattr__(bad, "aperture_len_m", 0.6)
    with pytest.raises(DomainError):
        mc.unit_spda_draws(bad, 20_000, 0)
    assert mc.spda_elements(spc.ApertureGeometry(1.0, 2.0)) == 4


def test_spda_element_count_matches_dof():
    # 2 * 0.7 / 0.1 is 13.999999999999998 in floats; the array has 14
    # elements, as many as a hair longer aperture and as geom.dof says
    lb = LinkBudget(10.0, 1.0)
    geom = spc.ApertureGeometry(0.1, 0.7)
    assert geom.dof == 14
    longer = spc.ApertureGeometry(0.1, 0.7 + 1e-10)
    assert mc.spda_elements(geom) == mc.spda_elements(longer) == 14
    assert (spda_point(lb, geom, 1.0, 10_000, 3)
            == spda_point(lb, longer, 1.0, 10_000, 3))


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
        rate, sop = spda_point(lb, geom, r0, n, 11)
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
        sr, ss = spda_point(lb, geom, 1.0, 100_000, 17)
        assert cr.mean >= sr.mean
        assert cs.mean <= ss.mean


def loop_against_whole_arrays(bob, bob_scale, eve, eve_scale, r0):
    """`_secrecy_loop`'s estimates and np.mean and np.std(ddof=1) of the
    whole rate and outage arrays."""
    n = bob.size
    got = mc._secrecy_loop(bob, bob_scale, eve, eve_scale, r0, n)
    rho_b, rho_e = bob_scale * bob, eve_scale * eve
    rates = np.maximum(np.log2(1.0 + rho_b) - np.log2(1.0 + rho_e), 0.0)
    outage = (rho_b < 2.0 ** r0 * (1.0 + rho_e) - 1.0).astype(float)
    want = [(float(np.mean(xs)),
             float(np.std(xs, ddof=1)) / math.sqrt(n) if n > 1 else math.inf)
            for xs in (rates, outage)]
    return [(est.mean, est.std_err) for est in got], want


@pytest.mark.parametrize("n", [1, mc._LOOP_BLOCK - 1, mc._LOOP_BLOCK + 1,
                               50_000])
def test_loop_counts_and_sums_match_whole_arrays(n):
    # the outage count and the rate's sums over passes give the moments of
    # the whole arrays; one trial has no error estimate
    bob, eve = np.random.default_rng(n).exponential(size=(2, n))
    got, want = loop_against_whole_arrays(bob, 20.0, eve, 3.0, 1.5)
    for (mean, se), (want_mean, want_se) in zip(got, want):
        assert mean == pytest.approx(want_mean, rel=1e-12, abs=1e-300)
        if n == 1:
            assert se == math.inf
        else:
            assert se == pytest.approx(want_se, rel=1e-12)


def test_loop_rate_far_from_zero():
    # a rate of about 50 bits that spreads by 1e-6: its sum of squares is
    # taken about the first pass's mean, or 50^2 would swamp 1e-12
    n = 50_000
    rng = np.random.default_rng(4)
    bob = 1.0 + 1e-6 * rng.random(n)
    got, want = loop_against_whole_arrays(bob, 1e15, rng.exponential(size=n),
                                          1e-12, 1.0)
    (mean, se), (want_mean, want_se) = got[0], want[0]
    assert want_se * math.sqrt(n) / want_mean < 1e-8
    assert mean == pytest.approx(want_mean, rel=1e-15)
    assert se == pytest.approx(want_se, rel=1e-9)
    assert got[1] == want[1] == (0.0, 0.0)


@pytest.mark.parametrize("bob_scale, eve_scale, outage", [(1e6, 1e-6, 0.0),
                                                          (1e-6, 1e6, 1.0)])
def test_loop_outage_never_or_always(bob_scale, eve_scale, outage):
    # an outage that is all 0 or all 1 has no spread: std_err 0
    n = 50_000
    bob, eve = np.random.default_rng(5).exponential(size=(2, n))
    got, want = loop_against_whole_arrays(bob, bob_scale, eve, eve_scale, 1.0)
    assert got[1] == want[1] == (outage, 0.0)
    if outage:  # and the rate is all 0 too
        assert got[0] == (0.0, 0.0)


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


def test_k_axis_sweep_holds_one_value_of_eve_draws():
    # on the k_eves axis each K belongs to one value: the sweep holds Bob's
    # draws and one value's two Eve sets (8 bytes a trial each) with the
    # loop's block buffers, never the eight sets of all four values
    n_trials = 400_000
    cfg = sw.config_from_dict({
        "aperture_lambdas": 2.0, "quadrature_order": 120, "gamma_e_db": 0.0,
        "n_trials": n_trials, "axis": "k_eves", "values": [2, 3, 4, 5],
        "scenarios": ["MIE", "MCE"], "evaluators": ["monte-carlo"]})
    tracemalloc.start()
    try:
        code = sw.run_sweep(cfg, io.StringIO(), summary_stream=io.StringIO())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    one_set = 8 * n_trials
    assert peak <= (1 + 2) * one_set + (6 << 20), peak


def test_aperture_sweep_holds_one_length_of_draws():
    # on the aperture axis each length's Bob and array draws (8 bytes a
    # trial each) are let go before the next length's are made: the sweep
    # holds those two sets and the SE Eve set with the loop's block
    # buffers, never the eight aperture sets of all four lengths
    n_trials = 400_000
    cfg = sw.config_from_dict({
        "quadrature_order": 120, "gamma_b_db": 10.0, "gamma_e_db": 0.0,
        "n_trials": n_trials, "axis": "aperture_len",
        "values": [0.2498, 0.3747, 0.4996, 0.6245], "scenarios": ["SE"],
        "evaluators": ["monte-carlo", "spda-mc"]})
    tracemalloc.start()
    try:
        code = sw.run_sweep(cfg, io.StringIO(), summary_stream=io.StringIO())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    one_set = 8 * n_trials
    assert peak <= (2 + 1) * one_set + (6 << 20), peak
