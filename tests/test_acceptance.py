"""Acceptance gate: one test per criterion, each printing a PASS line with
the measured numbers.  Run with `pytest tests/test_acceptance.py -v -s`.
"""
import io
import math
import time

import numpy as np
import pytest

from capa_secrecy import montecarlo as mc
from capa_secrecy import secrecy as sec
from capa_secrecy import snr_models as snr
from capa_secrecy import spectral as spc
from capa_secrecy import sweep as sw
from capa_secrecy.snr_models import LinkBudget, Scenario
from capa_secrecy.specfun import EXTENDED, scaled_e1

import theorems as thm
from conftest import LAMBDA, make_spectrum, mc_point

R0 = 1.0
SEED = 20260810


def db(x):
    return 10.0 ** (x / 10.0)


def rate_closed_any_precision(lb, ms):
    try:
        return sec.secrecy_rate_closed(lb, ms)
    except sec.PrecisionLossError:
        return sec.secrecy_rate_closed(lb, ms, EXTENDED)


def test_criterion_1_spectrum_structure():
    t0 = time.time()
    geom = spc.ApertureGeometry(LAMBDA, 40 * LAMBDA)
    spec = spc.decompose(geom, 1000)
    elapsed = time.time() - t0
    assert spec.dof == 80
    assert np.all(spec.epsilons[:70] >= 0.9)
    tail = spec.epsilons[89:] if len(spec.epsilons) > 89 else np.array([0.0])
    assert np.all(tail <= 0.1)
    assert spec.trace_residual < 0.005
    assert elapsed < 30.0
    print(f"\nACCEPTANCE 1 PASS: dof=80, eps_70={spec.epsilons[69]:.4f}, "
          f"eps_90={spec.epsilons[89] if len(spec.epsilons) > 89 else 0:.2e}, "
          f"trace_residual={spec.trace_residual:.2e}, runtime={elapsed:.1f}s")


@pytest.mark.parametrize("n_lambdas,t,label", [(2.0, 120, "dof=4"),
                                               (40.0, 1000, "dof=80")])
def test_criterion_2_bob_pdf_fidelity(n_lambdas, t, label):
    spec = make_spectrum(n_lambdas, t)
    ms = snr.build_psi(spec)
    lb = LinkBudget(db(20.0), 1.0)
    rng = np.random.default_rng(SEED)
    n = 1_000_000
    samples = np.sort(snr.sample_bob(ms, lb, rng, size=n))
    if ms.dof <= 8:
        cdf = snr.bob_cdf(samples, lb, ms)
        emp = np.arange(1, n + 1) / n
        ks = max(np.max(np.abs(cdf - emp)),
                 np.max(np.abs(cdf - emp + 1.0 / n)))
    else:
        # evaluate the model CDF on a fine quantile grid; the grid gap adds
        # at most ~1.2e-4 to the reported distance
        grid = samples[:: n // 8192]
        cdf = snr.bob_cdf(grid, lb, ms)
        emp = np.searchsorted(samples, grid, side="right") / n
        emp_lo = np.searchsorted(samples, grid, side="left") / n
        ks = max(np.max(np.abs(cdf - emp)), np.max(np.abs(cdf - emp_lo)))
    assert ks < 0.005
    print(f"\nACCEPTANCE 2 PASS ({label}): KS distance = {ks:.5f} "
          f"over {n} expansion samples")


def test_criterion_3_triangulation():
    t0 = time.time()
    series = {2: snr.build_psi(make_spectrum(1.0, 80)),
              4: snr.build_psi(make_spectrum(2.0, 120)),
              6: snr.build_psi(make_spectrum(3.0, 160))}
    n_trials = 1_000_000
    worst_rate_gap = 0.0
    worst_rate_z = 0.0
    worst_sop_z = 0.0
    n_points = 0
    seed = SEED
    for dof, ms in series.items():
        for gb_db in (0.0, 10.0, 20.0, 30.0):
            for ge_db in (0.0, 10.0):
                for k in (1, 5):
                    scens = ([Scenario.SE] if k == 1
                             else [Scenario.MIE, Scenario.MCE])
                    for scen in scens:
                        lb = LinkBudget(db(gb_db), db(ge_db), k, scen)
                        seed += 1
                        rc = rate_closed_any_precision(lb, ms)
                        rq = sec.secrecy_rate_quadrature(lb, ms)
                        sc = sec.sop_closed(lb, ms, R0)
                        rate_mc, sop_mc = mc_point(lb, ms, R0, n_trials, seed)
                        gap = abs(rc - rq)
                        assert gap <= 1e-4, (dof, gb_db, ge_db, k, scen, gap)
                        rate_tol = 3 * rate_mc.std_err + 4e-6
                        sop_tol = 3 * sop_mc.std_err + 4.0 / n_trials
                        assert abs(rq - rate_mc.mean) <= rate_tol, (
                            dof, gb_db, ge_db, k, scen, rq, rate_mc)
                        assert abs(sc - sop_mc.mean) <= sop_tol, (
                            dof, gb_db, ge_db, k, scen, sc, sop_mc)
                        worst_rate_gap = max(worst_rate_gap, gap)
                        if rate_mc.std_err > 0:
                            worst_rate_z = max(worst_rate_z,
                                               abs(rq - rate_mc.mean)
                                               / rate_mc.std_err)
                        if sop_mc.std_err > 0:
                            worst_sop_z = max(worst_sop_z,
                                              abs(sc - sop_mc.mean)
                                              / sop_mc.std_err)
                        n_points += 1
    elapsed = time.time() - t0
    assert elapsed < 600.0
    print(f"\nACCEPTANCE 3 PASS: {n_points} scenario-points; "
          f"max|closed-quad| = {worst_rate_gap:.2e} bits; "
          f"max rate z = {worst_rate_z:.2f}; max SOP z = {worst_sop_z:.2f}; "
          f"runtime {elapsed:.0f}s")


def test_criterion_4_high_snr(ms4):
    slopes = [sec.high_snr_slope(ms4) for _ in range(3)]
    assert max(slopes) - min(slopes) <= 1e-10
    assert abs(slopes[0] - 1.0) <= ms4.series_tol + 10 * abs(ms4.residual)
    orderings = []
    for ge in (0.1, 1.0, 10.0, 100.0):
        l_se = sec.high_snr_offset(LinkBudget(10.0, ge, 1, Scenario.SE), ms4)
        l_mie = sec.high_snr_offset(LinkBudget(10.0, ge, 5, Scenario.MIE), ms4)
        l_mce = sec.high_snr_offset(LinkBudget(10.0, ge, 5, Scenario.MCE), ms4)
        orderings.append(l_se < l_mie < l_mce)
    assert all(orderings)
    lb = LinkBudget(db(50.0), db(10.0), 1, Scenario.SE)
    gap = abs(sec.asymptotic_rate(lb, ms4) - sec.secrecy_rate_quadrature(lb, ms4))
    assert gap < 0.05
    print(f"\nACCEPTANCE 4 PASS: slope={slopes[0]:.12f} (scenario-equal), "
          f"offset ordering SE<MIE<MCE on 4 Eve-SNR points, "
          f"|asym-quad|={gap:.4f} bits at 50 dB")


def test_criterion_5_diversity_and_gain(ms4):
    gbs = np.logspace(4.0, 6.0, 9)
    slopes = {}
    for scen, k in ((Scenario.SE, 1), (Scenario.MIE, 5), (Scenario.MCE, 5)):
        sops = [sec.sop_closed(LinkBudget(gb, 1.0, k, scen), ms4, R0)
                for gb in gbs]
        slopes[scen.value] = float(np.polyfit(np.log(gbs), np.log(sops), 1)[0])
        assert abs(slopes[scen.value] + 4.0) <= 0.1
    _, ag_se = sec.diversity_and_gain(LinkBudget(10.0, 1.0), ms4, R0)
    _, ag_mie = sec.diversity_and_gain(
        LinkBudget(10.0, 1.0, 5, Scenario.MIE), ms4, R0)
    _, ag_mce = sec.diversity_and_gain(
        LinkBudget(10.0, 1.0, 5, Scenario.MCE), ms4, R0)
    assert ag_se > ag_mie > ag_mce
    spectra = {2: [3, 1], 3: [7, 3, 2], 4: [4, 3, 2, 1]}
    for scen, k in ((Scenario.SE, 1), (Scenario.MIE, 3), (Scenario.MCE, 3)):
        for n, sig in spectra.items():
            total = thm.sop_poly_mixture(scen, sig, 2, 1, 5, n, k)
            lead = thm.sop_leading_coeff(scen, sig, 2, 1, k)
            assert all(c == 0 for c in total[:n])  # exact, below 1e-9 relative
            assert total[n] == lead
    print(f"\nACCEPTANCE 5 PASS: log-log outage slopes {slopes} (all -4+-0.1); "
          f"gains SE {ag_se:.4f} > MIE {ag_mie:.4f} > MCE {ag_mce:.4f}; "
          f"z^0..z^(dof-1) coefficients exactly zero for dof in (2,3,4)")


def test_criterion_6_identity_suite():
    for k in range(1, 13):
        assert thm.binomial_unit_identity(k) == 1
    e1 = math.exp(-1e-8) * scaled_e1(1e-8)
    assert abs(math.log(1e-8) + e1 + 0.5772156649) <= 1e-6
    for ge in (0.1, 1.0, 10.0, 100.0):
        ys = [sec.independent_eve_offset_term(k, ge) for k in range(1, 13)]
        assert all(b > a for a, b in zip(ys, ys[1:]))
        for k in range(2, 13):
            assert thm.collaborative_vs_independent_offset_gap(k, ge) > 0.0
    for k in range(1, 13):
        assert thm.independent_eve_gain_term(k, 4, 4) == 1
    for m in range(4):
        ys = [thm.independent_eve_gain_term(k, 4, m) for k in range(1, 13)]
        assert all(b > a for a, b in zip(ys, ys[1:]))
    for k in range(2, 13):
        assert thm.collaborative_gain_term_gap(k, 4, 4) == 0
        for m in range(4):
            assert thm.collaborative_gain_term_gap(k, 4, m) > 0
    print("\nACCEPTANCE 6 PASS: unit identity exact K=1..12; small-argument "
          "E1 limit within 1e-6; ordering/identity checks on stated grids; "
          "offset-gap sign positive K=2..12 (consistent with the "
          "collaborative scenario having the larger offset)")


def test_criterion_7_eve_independence(spec80):
    est = thm.mc_exact_eve(spec80, 100_000, SEED)
    cv = thm.coefficient_of_variation(est)
    assert abs(est.mean - 1.0) <= 0.02
    assert cv < 0.05
    print(f"\nACCEPTANCE 7 PASS: conditional-variance ratio / (lambda/2) = "
          f"{est.mean:.4f} (within 2%), CV = {cv:.4f} (< 0.05) at 1e5 draws")


def test_criterion_8_capa_vs_spda(spec80, ms80):
    geom = spc.ApertureGeometry(LAMBDA, 40 * LAMBDA)
    n_trials = 200_000
    r0 = 3.0
    gaps = {}
    for scen, k in ((Scenario.SE, 1), (Scenario.MIE, 5), (Scenario.MCE, 5)):
        lb = LinkBudget(db(20.0), db(20.0), k, scen)
        cr, cs = mc_point(lb, ms80, r0, n_trials, SEED)
        sr, ss = mc.spda_baseline(lb, geom, r0, n_trials, SEED)
        assert cr.mean >= sr.mean, (scen, cr.mean, sr.mean)
        assert cs.mean <= ss.mean, (scen, cs.mean, ss.mean)
        gaps[scen.value] = cr.mean - sr.mean
    # the advantage shrinks as the eavesdropper count grows
    shrink = []
    for k in (1, 8):
        lb = LinkBudget(db(20.0), db(20.0), k,
                        Scenario.MIE if k > 1 else Scenario.SE)
        cr, _ = mc_point(lb, ms80, r0, n_trials, SEED + 1)
        sr, _ = mc.spda_baseline(lb, geom, r0, n_trials, SEED + 1)
        shrink.append(cr.mean - sr.mean)
    assert shrink[1] < shrink[0]
    print(f"\nACCEPTANCE 8 PASS: rate gaps {gaps} (all >= 0), SOP ordered; "
          f"gap K=1 {shrink[0]:.3f} -> K=8 {shrink[1]:.3f} bits (shrinks)")


def test_criterion_9_sweep_determinism(tmp_path):
    cfg = {
        "wavelength_m": LAMBDA, "aperture_lambdas": 2.0,
        "gamma_e_db": 0.0, "k_eves": 3, "target_rate_r0": 1.0,
        "quadrature_order": 120, "n_trials": 20000, "seed": 77,
        "axis": "gamma_b_db", "values": [0.0, 10.0, 20.0],
        "scenarios": ["SE", "MIE", "MCE"],
        "evaluators": ["quadrature", "monte-carlo", "spda-mc"],
        "outputs": ["rate", "sop"],
    }
    outs = []
    for _ in range(2):
        buf = io.StringIO()
        code = sw.run_sweep(sw.config_from_dict(cfg), buf,
                            summary_stream=io.StringIO())
        assert code == 0
        outs.append(buf.getvalue().encode())
    assert outs[0] == outs[1]
    print(f"\nACCEPTANCE 9 PASS: repeated sweep output byte-identical "
          f"({len(outs[0])} bytes)")
