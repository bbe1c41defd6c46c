import io
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import gammaln, logsumexp

from capa_secrecy import secrecy as sec
from capa_secrecy import snr_models as snr
from capa_secrecy import sweep as sw
from capa_secrecy.snr_models import LinkBudget, Scenario
from capa_secrecy.specfun import (EXTENDED, STANDARD, DomainError, harmonic_number,
                                  log_binomial)

import theorems as thm


def lb_db(gb_db, ge_db, k=1, scen=Scenario.SE):
    return LinkBudget(10 ** (gb_db / 10), 10 ** (ge_db / 10), k, scen)


# The first-dof eigenvalues of the 2-wavelength (t=120) and 3-wavelength
# (t=160) apertures, written out so that the golden rates below pin the
# closed-form kernel alone: the float kernel turns a 1e-17 change of the
# eigensolver's output into up to 1.7e-8 relative change of a rate.
PINNED_SIGMAS = {
    "ms4": [0.06244642494696339, 0.062297728676162026, 0.059913927073222364,
            0.04507338464358118],
    "ms6": [0.06244999158100369, 0.06244942262273394, 0.06243220080434581,
            0.062132403292834995, 0.05908631117593366, 0.044202944363811045],
}


def pinned_series(name):
    return snr.build_psi(np.array(PINNED_SIGMAS[name]))


# ---------------------------------------------------------------------------
# closed form vs quadrature vs each other
# ---------------------------------------------------------------------------

def test_rate_closed_matches_quadrature_reference_point(ms4):
    # -40 dB puts Eve's boundary layer far below Bob's SNR scale
    for lb in (lb_db(20.0, 0.0), lb_db(20.0, -40.0),
               lb_db(20.0, -40.0, 5, Scenario.MIE),
               lb_db(20.0, -40.0, 2, Scenario.MCE)):
        rc = sec.secrecy_rate_closed(lb, ms4)
        rq = sec.secrecy_rate_quadrature(lb, ms4)
        assert abs(rc - rq) < 1e-4, (lb, rc, rq)


@pytest.mark.parametrize("series,scen,k,want", [
    ("ms6", Scenario.SE, 1, 0.4129588852966555),
    ("ms6", Scenario.MIE, 8, 0.00011183349106232325),
    ("ms6", Scenario.MCE, 8, 1.8053521911478467e-08),
    ("ms4", Scenario.SE, 1, 0.2665146180818612),
    ("ms4", Scenario.MIE, 8, 1.7679624476761525e-05),
    ("ms4", Scenario.MCE, 8, 2.1822095883449804e-09),
])
def test_rate_closed_golden_values(series, scen, k, want):
    # recorded from the full-series kernel; the cut mixture must match bit for bit
    ms = pinned_series(series)
    assert sec.secrecy_rate_closed(lb_db(20.0, 20.0, k, scen), ms) == want


@pytest.mark.parametrize("series", ["ms2", "ms4", "ms6"])
def test_rate_closed_faint_collaborators_raise_or_agree(request, series):
    # the float sums cancel past their conditioning estimate here; the range
    # guard must turn a wild value into an error
    ms = request.getfixturevalue(series)
    for k in (2, 5, 8):
        for ge_db in (-60.0, -80.0):
            lb = lb_db(20.0, ge_db, k, Scenario.MCE)
            try:
                got = sec.secrecy_rate_closed(lb, ms, STANDARD)
            except sec.PrecisionLossError:
                continue
            want = sec.secrecy_rate_closed(lb, ms, EXTENDED)
            assert got == pytest.approx(want, rel=1e-4), (k, ge_db)


@pytest.mark.parametrize("scen", [Scenario.MIE, Scenario.MCE])
def test_rate_closed_k1_reduces_to_single_eve(ms4, scen):
    lb1 = LinkBudget(100.0, 1.0, 1, scen)
    lbs = LinkBudget(100.0, 1.0, 1, Scenario.SE)
    r1 = sec.secrecy_rate_closed(lb1, ms4)
    rs = sec.secrecy_rate_closed(lbs, ms4)
    assert abs(r1 - rs) <= 1e-8 * rs


def test_rate_quadrature_vanishing_eavesdropper(ms4):
    lb = LinkBudget(100.0, 1e-8)
    want = quad(lambda x: np.log2(1.0 + x) * snr.bob_pdf(x, lb, ms4),
                0.0, np.inf, limit=300)[0]
    assert abs(sec.secrecy_rate_quadrature(lb, ms4) - want) < 1e-4


def test_rate_scenario_ordering(ms4):
    rs = sec.secrecy_rate_quadrature(lb_db(20, 20), ms4)
    rm = sec.secrecy_rate_quadrature(lb_db(20, 20, 5, Scenario.MIE), ms4)
    rc = sec.secrecy_rate_quadrature(lb_db(20, 20, 5, Scenario.MCE), ms4)
    assert rs > rm > rc


def test_rate_closed_precision_loss_signals(ms4):
    # a vanishing rate leaves no significand in the alternating sums
    lb = LinkBudget(1.0, 1e10)
    with pytest.raises(sec.PrecisionLossError):
        sec.secrecy_rate_closed(lb, ms4, STANDARD)
    ext = sec.secrecy_rate_closed(lb, ms4, EXTENDED)
    golden = sec.secrecy_rate_closed(lb, pinned_series("ms4"), EXTENDED)
    assert golden == 3.918043019722593e-12  # recorded from the full series
    rq = sec.secrecy_rate_quadrature(lb, ms4)
    assert abs(ext - rq) <= 1e-6 * rq + 1e-15


def test_rate_closed_extended_agrees_with_standard(ms4):
    lb = lb_db(20.0, 10.0, 5, Scenario.MCE)
    a = sec.secrecy_rate_closed(lb, ms4, STANDARD)
    b = sec.secrecy_rate_closed(lb, ms4, EXTENDED)
    assert abs(a - b) <= 1e-10 * max(a, 1e-12)


def test_rate_closed_extended_at_reference_dof(ms80):
    # the wide-float verification path at the 80-DoF reference aperture
    lb = lb_db(20.0, 20.0, 5, Scenario.MCE)
    rc = sec.secrecy_rate_closed(lb, ms80)  # auto-routes past the dof cap
    rq = sec.secrecy_rate_quadrature(lb, ms80)
    assert abs(rc - rq) <= 1e-6


# ---------------------------------------------------------------------------
# secrecy outage probability
# ---------------------------------------------------------------------------

def test_sop_certain_outage_at_tiny_bob_snr(ms4):
    lb = LinkBudget(1e-6, 1.0)
    assert sec.sop_closed(lb, ms4, 1.0) == pytest.approx(1.0, abs=1e-9)


def test_sop_k1_reductions_across_snr_grid(ms4):
    for gb_db in np.linspace(-5.0, 35.0, 20):
        se = sec.sop_closed(lb_db(gb_db, 5.0), ms4, 1.0)
        mie = sec.sop_closed(lb_db(gb_db, 5.0, 1, Scenario.MIE), ms4, 1.0)
        mce = sec.sop_closed(lb_db(gb_db, 5.0, 1, Scenario.MCE), ms4, 1.0)
        assert abs(mie - se) <= 1e-8
        assert abs(mce - se) <= 1e-8


@pytest.mark.parametrize("scen,k", [(Scenario.SE, 1), (Scenario.MIE, 5),
                                    (Scenario.MCE, 5)])
def test_sop_closed_matches_quadrature(ms4, scen, k):
    for gb_db, ge_db in [(10.0, 0.0), (20.0, 10.0), (0.0, 0.0)]:
        lb = lb_db(gb_db, ge_db, k, scen)
        a = sec.sop_closed(lb, ms4, 1.0)
        b = sec.sop_quadrature(lb, ms4, 1.0)
        assert abs(a - b) <= 1e-6


def test_sop_closed_matches_quadrature_at_large_dof(ms80):
    # the reference-aperture path used by the sweeps
    for scen, k in ((Scenario.SE, 1), (Scenario.MIE, 5), (Scenario.MCE, 5)):
        lb = lb_db(20.0, 20.0, k, scen)
        a = sec.sop_closed(lb, ms80, 3.0)
        b = sec.sop_quadrature(lb, ms80, 3.0)
        assert abs(a - b) <= 1e-6


def sop_reference(lb, ms, r0):
    """int f_e(y) F_b(g(1+y) - 1) dy to a relative tolerance, split where
    Eve's mass sits: near gamma_e ln K for the max of K Eves, K gamma_e for
    their sum."""
    g = 2.0 ** r0

    def f(y):
        return snr.eve_pdf(y, lb) * snr.bob_cdf(g * (1.0 + y) - 1.0, lb, ms)

    mu, k = lb.gamma_bar_e, lb.k_eves
    split = mu * math.log(k) if lb.scenario == Scenario.MIE else k * mu
    return sum(quad(f, a, b, limit=200, epsabs=0.0, epsrel=1e-12)[0]
               for a, b in ((0.0, split), (split, np.inf)))


@pytest.mark.parametrize("series", ["ms6", "ms80"])
@pytest.mark.parametrize("scen", [Scenario.MIE, Scenario.MCE])
@pytest.mark.parametrize("k", [10, 60, 200])
def test_sop_closed_many_eves_matches_relative_quadrature(request, series,
                                                          scen, k):
    # outage from ~0.03 down to ~1e-230; no term of the closed form may cancel
    ms = request.getfixturevalue(series)
    for gb_db in (20.0, 30.0, 40.0):
        for ge_db in (-10.0, 0.0):
            for r0 in (1.0, 3.0):
                lb = lb_db(gb_db, ge_db, k, scen)
                want = sop_reference(lb, ms, r0)
                if want < 0.5:
                    got = sec.sop_closed(lb, ms, r0)
                    assert got == pytest.approx(want, rel=1e-12, abs=0.0), \
                        (gb_db, ge_db, r0)


def test_sop_deep_tail_follows_gain_law(ms4):
    # closed form stays meaningful at 1e-18 scale outage
    lb = lb_db(60.0, 0.0)
    v = sec.sop_closed(lb, ms4, 1.0)
    asym = sec.sop_asymptotic(lb, ms4, 1.0)
    assert 0.0 < v < 1e-15
    assert v == pytest.approx(asym, rel=0.05)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(dof=st.sampled_from([2, 4, 6]),
       scen=st.sampled_from(list(Scenario)),
       k=st.integers(1, 200),
       gb_db=st.lists(st.floats(-10.0, 40.0), min_size=2, max_size=2),
       ge_db=st.floats(-40.0, 30.0),
       r0=st.lists(st.floats(0.1, 6.0), min_size=2, max_size=2))
def test_sop_closed_is_a_monotone_probability(ms2, ms4, ms6, dof, scen, k,
                                              gb_db, ge_db, r0):
    ms = {2: ms2, 4: ms4, 6: ms6}[dof]
    k = 1 if scen == Scenario.SE else k
    gb_lo, gb_hi = sorted(gb_db)
    r_lo, r_hi = sorted(r0)
    base = sec.sop_closed(lb_db(gb_lo, ge_db, k, scen), ms, r_lo)
    more_bob = sec.sop_closed(lb_db(gb_hi, ge_db, k, scen), ms, r_lo)
    more_rate = sec.sop_closed(lb_db(gb_lo, ge_db, k, scen), ms, r_hi)
    for v in (base, more_bob, more_rate):
        assert 0.0 <= v <= 1.0
    assert more_bob <= base + 1e-15
    assert more_rate >= base - 1e-15


def test_sop_rejects_nonpositive_target(ms4):
    with pytest.raises(DomainError):
        sec.sop_closed(lb_db(10, 0), ms4, 0.0)
    with pytest.raises(DomainError):
        sec.sop_quadrature(lb_db(10, 0), ms4, -1.0)


# ---------------------------------------------------------------------------
# high-SNR characterization
# ---------------------------------------------------------------------------

def test_slope_is_unity_and_scenario_independent(ms4):
    s = sec.high_snr_slope(ms4)
    assert abs(s - 1.0) <= ms4.series_tol + 10 * abs(ms4.residual)
    ms_eq = snr.build_psi(np.array([0.05, 0.05]))
    assert sec.high_snr_slope(ms_eq) == 1.0


def test_offset_shifts_with_eigenvalue_scale(ms_synth):
    # scaling every eigenvalue by c leaves psi invariant and moves the
    # offset by exactly -log2(c)
    ms_scaled = snr.build_psi(np.array([4.0, 3.0, 2.0, 1.0]) * 8.0, q_max=200,
                              series_tol=1e-12, q_cap=3000)
    lb = LinkBudget(100.0, 1.0)
    d = sec.high_snr_offset(lb, ms_scaled) - sec.high_snr_offset(lb, ms_synth)
    assert d == pytest.approx(-3.0, abs=1e-9)


def test_weighted_harmonic_matches_per_shape_fsum():
    # one shape at a time: the cumulative pass against H_(dof+q-1) by fsum
    for sig in ([0.7], [4.0, 3.0, 2.0, 1.0], 0.0624 * np.linspace(1.0, 0.7, 6)):
        ms = snr.build_psi(np.array(sig), q_max=2000)
        qs = np.arange(ms.q_max + 1)
        for q in qs:
            one = replace(ms, log_psis=np.where(qs == q, 0.0, -np.inf))
            want = harmonic_number(ms.dof + q - 1)
            assert sec._weighted_harmonic(one) == pytest.approx(want, rel=2e-15, abs=0)


def test_offset_k1_equals_single_eve(ms4):
    a = sec.high_snr_offset(LinkBudget(10.0, 2.0, 1, Scenario.MIE), ms4)
    b = sec.high_snr_offset(LinkBudget(10.0, 2.0, 1, Scenario.SE), ms4)
    assert abs(a - b) <= 1e-10


def test_asymptotic_rate_identity(ms4):
    lb = lb_db(50.0, 10.0)
    s = sec.high_snr_slope(ms4)
    off = sec.high_snr_offset(lb, ms4)
    assert abs(sec.asymptotic_rate(lb, ms4)
               - s * (math.log2(lb.gamma_bar_b) - off)) <= 1e-9


def test_asymptotic_rate_approaches_quadrature(ms4):
    gaps = []
    for gb_db in (30.0, 40.0, 50.0, 60.0):
        lb = lb_db(gb_db, 10.0)
        gaps.append(abs(sec.asymptotic_rate(lb, ms4)
                        - sec.secrecy_rate_quadrature(lb, ms4)))
    assert gaps[2] < 0.05  # 50 dB
    assert all(b < a for a, b in zip(gaps, gaps[1:]))


def test_diversity_equals_dof_and_gain_ordering(ms4):
    lb = lb_db(20.0, 0.0)
    d, ag_se = sec.diversity_and_gain(lb, ms4, 1.0)
    assert d == ms4.dof == 4
    _, ag_mie = sec.diversity_and_gain(lb_db(20, 0, 5, Scenario.MIE), ms4, 1.0)
    _, ag_mce = sec.diversity_and_gain(lb_db(20, 0, 5, Scenario.MCE), ms4, 1.0)
    assert ag_se > ag_mie > ag_mce
    _, g1 = sec.diversity_and_gain(lb_db(20, 0, 1, Scenario.MIE), ms4, 1.0)
    _, g2 = sec.diversity_and_gain(lb_db(20, 0, 1, Scenario.MCE), ms4, 1.0)
    assert g1 == pytest.approx(ag_se, rel=1e-12)
    assert g2 == pytest.approx(ag_se, rel=1e-12)


# ---------------------------------------------------------------------------
# monotonicity over the parameter grid
# ---------------------------------------------------------------------------

def test_rate_monotone_in_eve_snr_and_count(ms4):
    rates_ge = [sec.secrecy_rate_quadrature(lb_db(20.0, ge), ms4)
                for ge in (-10.0, 0.0, 10.0, 20.0)]
    assert all(b < a for a, b in zip(rates_ge, rates_ge[1:]))
    rates_k = [sec.secrecy_rate_quadrature(
        LinkBudget(100.0, 1.0, k, Scenario.MCE), ms4) for k in (1, 2, 4, 8)]
    assert all(b < a for a, b in zip(rates_k, rates_k[1:]))


def test_sop_monotone_in_parameters(ms4):
    base = sec.sop_closed(lb_db(20.0, 0.0), ms4, 1.0)
    assert sec.sop_closed(lb_db(20.0, 10.0), ms4, 1.0) > base
    assert sec.sop_closed(lb_db(10.0, 0.0), ms4, 1.0) > base
    assert sec.sop_closed(lb_db(20.0, 0.0), ms4, 2.0) > base
    k_sops = [sec.sop_closed(LinkBudget(100.0, 1.0, k, Scenario.MIE), ms4, 1.0)
              for k in (1, 2, 4, 8)]
    assert all(b > a for a, b in zip(k_sops, k_sops[1:]))


# ---------------------------------------------------------------------------
# identity and ordering checks
# ---------------------------------------------------------------------------

def _offset_term_oracle(k, mu):
    # E ln(1 + max of K Eves) = mu int_0^inf [1 - (1 - e^-t)^K] / (1 + mu t) dt
    def f(t):
        return -math.expm1(k * math.log1p(-math.exp(-t))) * mu / (1.0 + mu * t)
    t_k = math.log(k)
    return math.fsum(quad(f, a, b, limit=400, epsabs=0.0, epsrel=1e-13)[0]
                     for a, b in ((0.0, t_k), (t_k, t_k + 60.0)))


def _exact_gain(scen, sigmas, gamma_e, k):
    # ag^(-dof) is the leading outage coefficient
    lead = thm.sop_leading_coeff(scen, sigmas, gamma_e, 1, k)
    return math.exp(-(math.log(lead.numerator)
                      - math.log(lead.denominator)) / len(sigmas))


def _collaborative_gain_by_binomials(lb, ms, r0):
    # the sum over m of x^m/m! C(dof-m+K-1, K-1), x = (g-1)/(g ge)
    g = 2.0 ** r0
    m = np.arange(ms.dof + 1, dtype=float)
    log_y = [log_binomial(ms.dof - i + lb.k_eves - 1, lb.k_eves - 1)
             for i in range(ms.dof + 1)]
    log_s = logsumexp(m * math.log((g - 1.0) / (g * lb.gamma_bar_e))
                      - gammaln(m + 1.0) + log_y)
    return (math.exp((float(np.sum(ms.log_sigmas)) - log_s) / ms.dof)
            / (g * lb.gamma_bar_e))


@pytest.mark.filterwarnings("error::scipy.integrate.IntegrationWarning")
def test_independent_eve_terms_stay_exact_for_many_eves():
    ms = snr.build_psi(0.0624 * np.linspace(1.0, 0.7, 6))
    for mu in (0.1, 1.0, 100.0):
        ys = []
        for k in (20, 40, 60, 80):
            y = sec.independent_eve_offset_term(k, mu)
            assert y == pytest.approx(_offset_term_oracle(k, mu), rel=1e-10)
            off_mie = sec.high_snr_offset(LinkBudget(100.0, mu, k, Scenario.MIE), ms)
            off_se = sec.high_snr_offset(LinkBudget(100.0, mu), ms)
            want = off_se + (y - _offset_term_oracle(1, mu)) / math.log(2.0)
            assert off_mie == pytest.approx(want, rel=1e-10)
            ys.append(y)
        assert all(b > a for a, b in zip(ys, ys[1:]))
    # the 324-digit reference sum takes over ten seconds at K = 1000 near
    # 0 dB, so that K takes the ends of the Eve-SNR range
    for k, ge_dbs in [(k, range(-60, 61, 20)) for k in (1, 2, 5, 60, 200)] + [
            (1000, (-60, -20, 20, 60))]:
        for ge_db in ge_dbs:
            ge = 10.0 ** (ge_db / 10.0)
            assert sec.independent_eve_offset_term(k, ge) == pytest.approx(
                thm.independent_eve_offset_sum(k, ge), rel=1e-12, abs=0)
    for dof, ks in ((4, (1, 2, 5, 20, 40, 60, 80, 200)),
                    (6, (1, 2, 5, 20, 40, 60, 80, 200)),
                    (20, (1, 2, 5, 60, 200)), (80, (1, 2, 5, 60))):
        ms = snr.build_psi(0.0624 * np.linspace(1.0, 0.7, dof))
        for k in ks:
            for scen in (Scenario.MIE, Scenario.MCE):
                for ge in (1e-3, 1.0, 100.0):
                    d, ag = sec.diversity_and_gain(LinkBudget(100.0, ge, k, scen), ms, 1)
                    assert d == dof
                    assert ag == pytest.approx(
                        _exact_gain(scen, ms.sigmas, ge, k), rel=1e-12, abs=0)
    # collaborative Eves far past the exact reference's reach
    ms = snr.build_psi(0.0624 * np.linspace(1.0, 0.7, 400))
    for ge in (1e-3, 1.0, 100.0):
        lb = LinkBudget(100.0, ge, 1000, Scenario.MCE)
        _, ag = sec.diversity_and_gain(lb, ms, 1.0)
        assert math.isfinite(ag) and ag > 0.0
        assert ag == pytest.approx(_collaborative_gain_by_binomials(lb, ms, 1.0),
                                   rel=1e-12, abs=0)


# ---------------------------------------------------------------------------
# exact small-1/SNR expansion (diversity-order cancellation)
# ---------------------------------------------------------------------------

SPECTRA = {2: [3, 1], 3: [7, 3, 2], 4: [4, 3, 2, 1]}


@pytest.mark.parametrize("scen,k", [(Scenario.SE, 1), (Scenario.MIE, 3),
                                    (Scenario.MCE, 3)])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_inverse_snr_coefficients_cancel_exactly(scen, k, n):
    sig = SPECTRA[n]
    for q in range(4):
        poly = thm.sop_inverse_snr_poly(scen, sig, 2, 1, q, n, k)
        assert all(c == 0 for c in poly[:n])
        if q >= 1:
            assert poly[n] == 0


@pytest.mark.parametrize("scen,k", [(Scenario.SE, 1), (Scenario.MIE, 3),
                                    (Scenario.MCE, 3)])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_leading_coefficient_matches_gain_law(scen, k, n):
    sig = SPECTRA[n]
    total = thm.sop_poly_mixture(scen, sig, 2, 1, 6, n, k)
    lead = thm.sop_leading_coeff(scen, sig, 2, 1, k)
    assert all(c == 0 for c in total[:n])
    assert total[n] == lead
    # and the array-gain law reproduces it numerically
    ms = snr.build_psi(np.array(sig, dtype=float))
    lbx = LinkBudget(10.0, 2.0, k, scen)
    d, ag = sec.diversity_and_gain(lbx, ms, 1.0)
    assert ag ** (-d) == pytest.approx(float(lead), rel=1e-10)


# ---------------------------------------------------------------------------
# sweep wiring
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("evaluator", ["closed-form", "quadrature", "asymptotic"])
def test_sweep_rows_are_the_evaluators(ms4, evaluator):
    # the sweep is the only point evaluator: every row it writes is the
    # direct library call, bit for bit, and the scalar high-SNR rows ride
    # with the closed form only
    cfg = sw.config_from_dict({
        "wavelength_m": 0.1249, "aperture_lambdas": 2.0, "quadrature_order": 120,
        "gamma_e_db": 0.0, "k_eves": 5, "target_rate_r0": 1.0,
        "axis": "gamma_b_db", "values": [20.0], "scenarios": ["SE", "MIE", "MCE"],
        "evaluators": [evaluator], "outputs": list(sw.OUTPUTS)})
    out = io.StringIO()
    assert sw.run_sweep(cfg, out, summary_stream=io.StringIO()) == 0
    rows = [ln.split(",") for ln in out.getvalue().splitlines()[1:]]
    rate_fn, sop_fn = sec.ANALYTIC_EVALUATORS[evaluator]
    for scen in Scenario:
        lb = lb_db(20.0, 0.0, 1 if scen == Scenario.SE else 5, scen)
        want = {"rate": rate_fn(lb, ms4), "sop": sop_fn(lb, ms4, 1.0)}
        if evaluator == "closed-form":
            want.update(slope=sec.high_snr_slope(ms4),
                        offset=sec.high_snr_offset(lb, ms4),
                        gain=sec.diversity_and_gain(lb, ms4, 1.0)[1])
        got = {r[4]: float(r[5]) for r in rows if r[2] == scen.value}
        assert got == want, scen
