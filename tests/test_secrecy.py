import io
import math
from types import SimpleNamespace

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
from capa_secrecy.spectral import ComputationError

import theorems as thm
from conftest import make_spectrum


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
    # recorded from the full series; the 50-digit value on the same float
    # weights (theorems.secrecy_rate_reference at 50 digits, 256 edges) is
    # 3.9180430197225925e-12, 2 ulp above it (the float count's
    # 3.918043019722594e-12 was 2 ulp above that value)
    assert golden == 3.918043019722591e-12
    assert golden == pytest.approx(3.9180430197225925e-12, rel=5e-16, abs=0)
    rq = sec.secrecy_rate_quadrature(lb, ms4)
    assert abs(ext - rq) <= 1e-6 * rq + 1e-15


def _closed_or_loss(lb, ms, **kw):
    """The standard closed rate, or (PrecisionLossError, its estimate)."""
    try:
        return sec.secrecy_rate_closed(lb, ms, STANDARD, **kw)
    except sec.PrecisionLossError as exc:
        return sec.PrecisionLossError, exc.estimated_rel_error


def test_rate_closed_shared_tables_bit_for_bit(ms2, monkeypatch):
    # calls on one series that share a tables dict, in either order, give
    # the doubles (or precision-loss estimates) of calls that share
    # nothing: SE's kernel is MIE's a = 0 one, MIE's scales gamma_e/(a + 1)
    # recur at every larger K, MCE's K shares gamma_e with SE
    series = {"ms2": ms2, "ms4": pinned_series("ms4"),
              "ms6": pinned_series("ms6")}
    calls = [(LinkBudget(1.0, 1e10), "ms4", False)]  # no significand left
    for gb_db, ge_db, ks in ((20.0, 20.0, range(1, 9)), (30.0, 10.0, (1, 2, 8))):
        for name in series:
            calls += [(lb_db(gb_db, ge_db), name, False)] + [
                (lb_db(gb_db, ge_db, k, scen), name, False)
                for k in ks for scen in (Scenario.MIE, Scenario.MCE)]
    # with the cut at a tail of 1e-8 bits, which is too much next to these
    # rates, the call raises PrecisionLossError after the cut's kernels
    calls += [(lb_db(20.0, 20.0), "ms4", True),
              (lb_db(20.0, 20.0, 8, Scenario.MIE), "ms4", True)]

    def run(i, **kw):
        lb, name, coarse = calls[i]
        with monkeypatch.context() as m:
            if coarse:
                m.setattr(sec, "_TAIL_CUT_LOG", math.log(1e-8))
            return _closed_or_loss(lb, series[name], **kw)

    want = [run(i) for i in range(len(calls))]
    assert want[0][0] is sec.PrecisionLossError
    with monkeypatch.context() as m:  # the coarse cut's value does not stand
        m.setattr(sec, "_TAIL_CUT_LOG", math.log(1e-8))
        for lb, name, _ in calls[-2:]:
            n_cut = sec._mixture_cut(lb, series[name])[0]
            first = sec._rate_closed_dispatch(lb, series[name], n_cut, {})
            assert first.to_float() not in want
    for order in (range(len(calls)), range(len(calls) - 1, -1, -1)):
        tables = {name: {} for name in series}
        got = {i: run(i, tables=tables[calls[i][1]]) for i in order}
        assert [got[i] for i in range(len(calls))] == want


@pytest.mark.parametrize("k, scen", [(1, Scenario.SE), (8, Scenario.MIE)],
                         ids=["SE", "MIE-K8"])
def test_rate_closed_raises_when_the_cut_tail_is_too_large(k, scen, monkeypatch):
    # with the cut at a tail of 1e-8 bits, which is too much next to the
    # rate at 20/20 dB, the one pass on the cut mixture cannot vouch for
    # its value: the call raises, and runs no second, full-series pass
    ms, calls = pinned_series("ms4"), []
    dispatch = sec._rate_closed_dispatch

    def counting(*args):
        calls.append(args[2])
        return dispatch(*args)

    monkeypatch.setattr(sec, "_TAIL_CUT_LOG", math.log(1e-8))
    monkeypatch.setattr(sec, "_rate_closed_dispatch", counting)
    lb = lb_db(20.0, 20.0, k, scen)
    with pytest.raises(sec.PrecisionLossError) as err:
        sec.secrecy_rate_closed(lb, ms, STANDARD)
    assert err.value.estimated_rel_error == math.inf
    assert calls == [sec._mixture_cut(lb, ms)[0]]
    assert calls[0] < ms.q_max + 1


@pytest.mark.parametrize("gb_db", [0.0, 20.0], ids=["0dB", "20dB"])
@pytest.mark.parametrize("scen", [Scenario.MIE, Scenario.MCE], ids=["MIE", "MCE"])
@pytest.mark.parametrize("series", ["ms4", "ms6"])
def test_rate_closed_extended_matches_30_digit_reference(series, scen, gb_db):
    # 8 Eves at 20 dB; at 0 dB the rates are 5.6e-21 to 1.4e-24 bits, far
    # below what the alternating sums of the float path can resolve
    lb = lb_db(gb_db, 20.0, 8, scen)
    want = thm.RATE_REFERENCES[series, scen.name, gb_db]
    got = sec.secrecy_rate_closed(lb, pinned_series(series), EXTENDED)
    assert got == pytest.approx(want, rel=1e-10, abs=0.0)


def test_rate_reference_recomputes_a_recorded_value():
    # the cheapest recorded reference, live at the oracle's default 30
    # digits on 64 breakpoints, so the oracle code stays exercised
    lb = lb_db(0.0, 20.0, 8, Scenario.MIE)
    got = thm.secrecy_rate_reference(lb, pinned_series("ms6"))
    want = thm.RATE_REFERENCES["ms6", "MIE", 0.0]
    assert got == pytest.approx(want, rel=1e-14, abs=0.0)


def test_rate_closed_extended_many_eves_matches_quadrature(ms80):
    # the secure probability's count carries one geometric law per Eve
    for scen in (Scenario.MIE, Scenario.MCE):
        lb = lb_db(20.0, 0.0, 40, scen)
        want = sec.secrecy_rate_quadrature(lb, ms80)
        got = sec.secrecy_rate_closed(lb, ms80, EXTENDED)
        assert got == pytest.approx(want, rel=1e-12, abs=0.0), scen


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


@pytest.mark.parametrize("gb_db", [20.0, 40.0])
@pytest.mark.parametrize("k", [10, 60])
def test_sop_quadrature_raises_where_it_cannot_vouch(ms80, k, gb_db):
    # SOP 1e-150 to 1e-18: each error estimate is far below the absolute
    # bound but above the SOP itself, and the value is 0.1-93 % off
    lb = lb_db(gb_db, 0.0, k, Scenario.MIE)
    with pytest.raises(ComputationError, match="SOP quadrature"):
        sec.sop_quadrature(lb, ms80, 3.0)


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


@pytest.mark.parametrize("series", ["ms4", "ms6", "ms80"])
def test_log_outage_count_matches_float_count(request, series):
    # the log-domain count against the float count it replaced, one batch of
    # r0 per link budget: its pmf, and the SOP from its tails, within 1e-12
    # relative wherever the float value is above 1e-290 (the float count
    # underflows below)
    ms = request.getfixturevalue(series)
    r0s = np.array([0.05, 0.5, 1.0, 3.0, 6.0])
    for scen, k in ((Scenario.SE, 1), (Scenario.MIE, 5), (Scenario.MCE, 5),
                    (Scenario.MIE, 40), (Scenario.MCE, 40)):
        for gb_db, ge_db in ((-10.0, 0.0), (10.0, 20.0), (30.0, -10.0),
                             (50.0, 0.0)):
            lb = lb_db(gb_db, ge_db, k, scen)
            log_pmf = sec._log_outage_count(lb, ms, r0s * sec.LN2)
            for i, r0 in enumerate(r0s):
                pmf, tail = thm.outage_count_float(lb, ms, 2.0 ** r0)
                sop = np.array([ms.weights @ tail[ms.dof:]])
                for got, want in ((np.exp(log_pmf[i]), pmf),
                                  (np.array([sec.sop_closed(lb, ms, r0)]),
                                   sop)):
                    big = want > 1e-290
                    assert np.all(got[~big] <= 1e-280)
                    rel = np.abs(got[big] - want[big]) / want[big]
                    assert rel.max(initial=0.0) <= 1e-12, (scen, k, gb_db,
                                                            ge_db, r0)


def log_sop_and_asymptote(lb, ms, r0):
    """ln SOP from the log-domain outage count, and ln of its leading law
    (Ag gamma_b)^(-dof)."""
    dof, gain = sec.diversity_and_gain(lb, ms, r0)
    return (sec._log_sop(lb, ms, r0 * sec.LN2),
            -dof * (math.log(gain) + math.log(lb.gamma_bar_b)))


@pytest.mark.parametrize("scen,k", [(Scenario.SE, 1), (Scenario.MIE, 5),
                                    (Scenario.MIE, 40), (Scenario.MCE, 5),
                                    (Scenario.MCE, 40)])
def test_diversity_at_paper_aperture_without_underflow(ms80_default, scen, k):
    # the diversity order at 40 wavelengths (dof 80), gamma_e 0 dB, r0 3:
    # between 50 and 60 dB the log SOP falls with slope -79.960 (SE, MIE),
    # -79.958 (MCE, K 5) and -79.940 (MCE, K 40), bound 0.07 off -80; its
    # ratio to the leading law rises through 0.90 and 0.99 there (0.86 and
    # 0.985 for MCE at K 40) to 0.9998-0.9999 at 80 dB.  The SOP is 1e-231
    # at 50 dB and 1e-311 to 1e-280 at 60 dB; at 70 and 80 dB the float SOP
    # is 0, and the log SOP keeps the law, slope within 1e-3 of -80
    ms, r0 = ms80_default, 3.0
    grid = (50.0, 60.0, 70.0, 80.0)
    log_sop, log_law = np.array([log_sop_and_asymptote(lb_db(gb, 0.0, k, scen),
                                                       ms, r0) for gb in grid]).T
    slope = np.diff(log_sop) / math.log(10.0)
    assert abs(slope[0] + 80.0) <= 0.07 and abs(slope[2] + 80.0) <= 1e-3, slope
    ratio = np.exp(log_sop - log_law)
    assert np.all(np.diff(ratio) > 0.0) and ratio[-1] < 1.0, ratio
    assert ratio[0] >= 0.85 and ratio[1] >= 0.98 and ratio[-1] >= 0.9995, ratio
    assert math.exp(log_sop[0]) == pytest.approx(
        sec.sop_closed(lb_db(50.0, 0.0, k, scen), ms, r0), rel=1e-12)
    assert sec.sop_closed(lb_db(70.0, 0.0, k, scen), ms, r0) == 0.0
    assert np.all(np.isfinite(log_sop)) and log_sop[-1] < -1000.0


def test_secure_probability_pass_equals_each_node_alone(monkeypatch,
                                                        ms80_default):
    # the extended rate makes one outage count over all nodes of a pass of
    # its rule: each node's value is the double it gets alone
    calls = []
    quad = sec._piecewise_quad

    def spy(f, *args, **kw):
        def each(x, j):
            out = f(x, j)
            calls.append((f, x.copy(), out.copy()))
            return out
        return quad(each, *args, **kw)

    monkeypatch.setattr(sec, "_piecewise_quad", spy)
    for scen, k in ((Scenario.SE, 1), (Scenario.MIE, 5), (Scenario.MCE, 5)):
        sec.secrecy_rate_closed(lb_db(10.0, 20.0, k, scen), ms80_default)
    assert len(calls) >= 6 and max(x.size for _, x, _ in calls) >= 63
    for f, x, out in calls:
        alone = [f(x[i:i + 1], np.zeros(1, dtype=int))[0] for i in range(x.size)]
        assert np.array_equal(out, alone)


def test_sop_rejects_nonpositive_target(ms4):
    with pytest.raises(DomainError):
        sec.sop_closed(lb_db(10, 0), ms4, 0.0)
    with pytest.raises(DomainError):
        sec.sop_quadrature(lb_db(10, 0), ms4, -1.0)


# ---------------------------------------------------------------------------
# the adaptive Gauss-Kronrod rule against scipy's QUADPACK
# ---------------------------------------------------------------------------

def quadpack_pieces(f, a, b, owner, epsabs, epsrel, limit=sec.QUAD_LIMIT):
    """scipy.integrate.quad on each piece, in the rule's (values, errors,
    panels) form; f gets one node of the piece's integral per call."""
    out = ([], [], [])
    for lo, hi, j in zip(a, b, owner):
        v, e, info = quad(
            lambda x: float(f(np.array([x]), np.array([j]))[0]), lo, hi,
            limit=limit, epsabs=epsabs, epsrel=epsrel, full_output=1)[:3]
        for col, x in zip(out, (v, e, info["last"])):
            col.append(x)
    return out


def rule_and_quadpack(monkeypatch, fn, *args):
    got = fn(*args)
    pieces = []

    def by_quadpack(f, a, *rest):
        pieces.extend(a)
        return quadpack_pieces(f, a, *rest)

    with monkeypatch.context() as m:
        m.setattr(sec, "_gk21", by_quadpack)
        want = fn(*args)
    assert pieces  # the patch was reached: no vacuous comparison
    return got, want


@pytest.fixture(scope="module")
def aperture_series(ms6):
    return {3: ms6, 10: snr.build_psi(make_spectrum(10.0, 1000)),
            50: snr.build_psi(make_spectrum(50.0, 1000))}


def assert_quadratures_match_quadpack(monkeypatch, ms, gb_dbs, first_pass=()):
    # each piece runs to max(epsabs, 1e-11 |I|): 1e-9 for the rate, 1e-10
    # for the SOP; rows the first panel settles match to rounding
    for gb_db in gb_dbs:
        for scen, k in ((Scenario.SE, 1), (Scenario.MIE, 5), (Scenario.MCE, 5)):
            lb = lb_db(gb_db, 20.0, k, scen)
            for metric, fn, args, epsabs in (
                    ("rate", sec.secrecy_rate_quadrature, (lb, ms), 1e-9),
                    ("sop", sec.sop_quadrature, (lb, ms, 3.0), 1e-10)):
                got, want = rule_and_quadpack(monkeypatch, fn, *args)
                key = (gb_db, scen.value, metric)
                assert abs(got - want) <= max(epsabs, 1e-11 * abs(want)), key
                if key in first_pass:
                    assert got == pytest.approx(want, rel=1e-14, abs=0), key


def test_quadratures_match_quadpack_on_table1_grid(monkeypatch, ms80):
    # the table1-mc benchmark grid: 40 wavelengths, t = 1000
    assert_quadratures_match_quadpack(
        monkeypatch, ms80, (-10.0, 10.0, 30.0),
        first_pass={(-10.0, "MIE", "rate"), (-10.0, "MCE", "rate")})


@pytest.mark.parametrize("n_lambdas", [3, 10, 50])
def test_quadratures_match_quadpack_across_apertures(monkeypatch,
                                                     aperture_series, n_lambdas):
    assert_quadratures_match_quadpack(monkeypatch, aperture_series[n_lambdas],
                                      (-10.0, 10.0, 20.0))


def test_offset_term_matches_quadpack(monkeypatch):
    # K = 1 makes the first piece [0, 0]; at 60 dB the 1/(1 + x) knee lies
    # six decades below gamma_e
    for k in (1, 2, 5, 60, 1000):
        for ge_db in (-60.0, 0.0, 30.0, 60.0):
            got, want = rule_and_quadpack(monkeypatch, sec.independent_eve_offset_term,
                                          k, 10.0 ** (ge_db / 10.0))
            assert abs(got - want) <= 1e-11 * want, (k, ge_db)


def one_piece(f, a, b, epsabs, epsrel):
    """The rule on one piece: (value, error estimate, panels)."""
    return tuple(r[0] for r in sec._gk21(lambda x, _: f(x), [a], [b], [0],
                                         epsabs, epsrel))


def test_rule_on_known_integrals():
    assert one_piece(np.exp, 2.0, 2.0, 0.0, 1e-11) == (0.0, 0.0, 0)
    val, err, panels = one_piece(lambda x: np.exp(-x), 1.0, np.inf, 0.0, 1e-11)
    assert val == pytest.approx(math.exp(-1.0), rel=1e-14) and err <= 1e-11 * val
    val, err, panels = one_piece(lambda x: 1.0 / (1.0 + x), 0.0, 1e7, 0.0, 1e-11)
    assert val == pytest.approx(math.log1p(1e7), rel=1e-13)
    assert panels < sec.QUAD_LIMIT


def test_rule_runs_pieces_in_lockstep_as_alone():
    # f(x, j) = e^(-x/c_j): pieces that stop after one panel, after many
    # and at once (zero length), finite and infinite, in one run
    c = np.array([0.1, 1.0, 1e4])
    a, b, owner = [0.0, 5.0, 1.0, 3.0, 0.0], [5.0, np.inf, 1.0, 1e6, 1e-3], \
        [0, 0, 1, 2, 2]
    calls = []

    def f(x, j):
        calls.append(x.size)
        return np.exp(-x / c[j])

    def run(pieces):
        calls.clear()
        out = sec._gk21(f, *([col[i] for i in pieces] for col in (a, b, owner)),
                        0.0, 1e-11)
        return out, len(calls)

    together, passes = run(range(len(a)))
    alone = [run([i]) for i in range(len(a))]
    assert together == tuple(list(col) for col in zip(*(
        [r[0] for r in out] for out, _ in alone)))
    # one call of f a pass: as many as the piece that needs the most
    assert passes == max(n for _, n in alone) > 1


def test_unresolved_integrand_raises():
    # about 1.6e6 oscillations: 400 panels cannot follow them
    def f(x, _):
        return np.cos(1e5 * x) + 1.0
    val, err, panels = one_piece(lambda x: f(x, 0), 0.0, 100.0, 1e-10, 1e-11)
    assert panels == sec.QUAD_LIMIT and err > 1e-7
    # each integral keeps its own error, next to a value that holds
    bad, good = sec._piecewise_quad(f, [[0.0, 100.0], [0.0, 1e-6]], 1e-10,
                                    1e-7, "test")
    assert isinstance(bad, ComputationError)
    assert "test quadrature achieved only" in str(bad)
    assert good == pytest.approx(1e-6 + math.sin(0.1) / 1e5, rel=1e-12)
    # a NaN error estimate is no estimate
    nan, = sec._piecewise_quad(lambda x, _: np.where(x < 1.0, np.nan, 1.0),
                               [[0.0, 2.0]], 1e-10, 1e-7, "test")
    assert isinstance(nan, ComputationError)


# ---------------------------------------------------------------------------
# the quadratures in lockstep
# ---------------------------------------------------------------------------

def as_results(values):
    """Quadrature results with each error as (type, message), for ==."""
    return [(type(v).__name__, str(v)) if isinstance(v, Exception) else v
            for v in values]


def alone(fn, *args):
    try:
        return fn(*args)
    except ComputationError as exc:
        return exc


@pytest.mark.parametrize("n_lambdas", [10, 40])
def test_batched_quadratures_equal_each_alone(aperture_series, ms80, n_lambdas):
    ms = ms80 if n_lambdas == 40 else aperture_series[n_lambdas]
    lbs = [lb_db(gb_db, ge_db, k, scen)
           for scen, k in ((Scenario.SE, 1), (Scenario.MIE, 5), (Scenario.MCE, 5))
           for gb_db, ge_db in ((-10.0, 20.0), (10.0, 0.0), (10.0, 20.0),
                                (30.0, 20.0))]
    rates = as_results([alone(sec.secrecy_rate_quadrature, lb, ms) for lb in lbs])
    sops = as_results([alone(sec.sop_quadrature, lb, ms, 3.0) for lb in lbs])
    # the whole batch, and a part of it in another order (Eve laws mixed)
    for part in (list(range(len(lbs))), [7, 0, 11, 4, 2, 9]):
        batch = [lbs[i] for i in part]
        assert as_results(sec.rate_quadratures(batch, ms)) == \
            [rates[i] for i in part]
        assert as_results(sec.sop_quadratures(batch, ms, 3.0)) == \
            [sops[i] for i in part]


def test_deep_tail_point_keeps_its_error_in_a_batch(ms80):
    # 10 independent Eves at 0 dB and Bob at 40 dB: SOP about 1e-150
    deep = lb_db(40.0, 0.0, 10, Scenario.MIE)
    mates = [lb_db(20.0, 20.0, 5, Scenario.MIE), lb_db(10.0, 0.0)]
    got = sec.sop_quadratures([mates[0], deep, mates[1]], ms80, 3.0)
    assert isinstance(got[1], ComputationError)
    assert "SOP quadrature" in str(got[1])
    assert [got[0], got[2]] == [sec.sop_quadrature(lb, ms80, 3.0)
                                for lb in mates]
    with pytest.raises(DomainError):
        sec.sop_quadratures(mates, ms80, 0.0)
    assert sec.rate_quadratures([], ms80) == []


# ---------------------------------------------------------------------------
# the engine's float-list bookkeeping against its numpy form
# ---------------------------------------------------------------------------

def same_floats(got, want) -> bool:
    """The same doubles (NaN where the other is NaN), and Python floats."""
    return len(got) == len(want) and all(
        type(g) is float and (g == w or (g != g and w != w))
        for g, w in zip(got, want))


def assert_engine_is_reference(got, want):
    # (values, error estimates, panels) of sec._gk21 and thm.gk21_numpy
    vals, errs, panels = got
    assert same_floats(vals, want[0]) and same_floats(errs, want[1])
    assert panels == want[2] and all(type(n) is int for n in panels)


def engine_runs(monkeypatch, fn, *args) -> list:
    """fn(*args) with every call of the engine made by its numpy reference
    too: each call's (arguments, engine results, reference results), the
    results compared."""
    rule, runs = sec._gk21, []

    def both(*rule_args):
        runs.append((rule_args, rule(*rule_args), thm.gk21_numpy(*rule_args)))
        return runs[-1][1]

    with monkeypatch.context() as m:
        m.setattr(sec, "_gk21", both)
        fn(*args)
    assert runs  # the patch was reached
    for _, got, want in runs:
        assert_engine_is_reference(got, want)
    return runs


def most_panels(runs) -> int:
    return max(n for _, got, _ in runs for n in got[2])


@pytest.mark.parametrize("n_lambdas", [2, 10, 50])
def test_engine_is_reference_on_lockstep_quadratures(monkeypatch, ms4,
                                                     aperture_series, n_lambdas):
    ms = ms4 if n_lambdas == 2 else aperture_series[n_lambdas]
    lbs = [lb_db(gb_db, ge_db, k, scen)
           for scen, k in ((Scenario.SE, 1),) + tuple(
               (scen, k) for scen in (Scenario.MIE, Scenario.MCE)
               for k in (2, 5, 40))
           for gb_db in (-10.0, 10.0, 30.0, 50.0)
           for ge_db in (-10.0, 0.0, 20.0)]
    runs = engine_runs(monkeypatch, sec.rate_quadratures, lbs, ms)
    for r0 in (0.5, 1.35, 3.0):
        runs += engine_runs(monkeypatch, sec.sop_quadratures, lbs, ms, r0)
    # pieces long enough for the eight running sums
    assert most_panels(runs) >= 8


def test_engine_is_reference_on_offset_integrals(monkeypatch):
    runs = []
    for ge_db in (-10.0, 0.0, 20.0):
        for k in range(1, 201):
            runs += engine_runs(monkeypatch, sec.independent_eve_offset_term,
                                k, 10.0 ** (ge_db / 10.0))
    assert most_panels(runs) >= 8


def test_engine_is_reference_on_extended_rate(monkeypatch, ms4, ms6):
    runs = []
    for ms in (ms4, ms6):
        for scen, k in ((Scenario.SE, 1), (Scenario.MIE, 8), (Scenario.MCE, 8)):
            for gb_db in (0.0, 20.0):
                runs += engine_runs(monkeypatch, sec._rate_by_secure_probability,
                                    lb_db(gb_db, 20.0, k, scen), ms)
    # its pieces end within 8 panels, where numpy's sum is a running one,
    # but not within 2, where every order of the sum agrees
    assert most_panels(runs) >= 3


def test_engine_is_reference_at_its_corners():
    # one lockstep run: a piece that reaches the panel limit, a zero-width
    # piece, a NaN integrand, an infinite piece and one a single panel ends
    def f(x, j):
        return np.select([j == 0, j == 1, j == 2],
                         [np.cos(1e5 * x) + 1.0, np.where(x < 1.0, np.nan, 1.0),
                          np.exp(-x)], x * x)

    a, b, owner = [0.0, 2.0, 0.0, 1.0, 0.0], [100.0, 2.0, 2.0, math.inf, 1.0], \
        [0, 1, 1, 2, 3]
    for limit in (sec.QUAD_LIMIT, 3, 1):
        got = sec._gk21(f, a, b, owner, 1e-10, 1e-11, limit)
        assert_engine_is_reference(got, thm.gk21_numpy(f, a, b, owner, 1e-10,
                                                       1e-11, limit))
        vals, errs, panels = got
        assert panels[:2] == [limit, 0] and panels[4] == 1
        assert math.isnan(errs[2]) and vals[1] == errs[1] == 0.0


def test_pairwise_sum_is_numpy_sum():
    # numpy's pairwise order at every length up to the panel limit, and
    # the signed zeros, subnormals, infinities and NaNs it meets
    rng = np.random.default_rng(7)
    special = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                        math.inf, -math.inf, math.nan, 1.7e308, -1.7e308])
    for n in range(401):
        for x in (rng.standard_normal(n) * 10.0 ** rng.integers(-30, 30, n),
                  rng.random(n),
                  rng.choice(special, n),
                  rng.choice(special[:4], n),
                  np.where(rng.random(n) < 0.1, rng.choice(special, n),
                           rng.standard_normal(n))):
            with np.errstate(invalid="ignore", over="ignore"):
                want = float(np.sum(x))
            got = sec._pairwise_sum(x.tolist())
            assert type(got) is float
            assert (got != got and want != want) or (
                got == want
                and math.copysign(1.0, got) == math.copysign(1.0, want)), (n, x)


# ---------------------------------------------------------------------------
# high-SNR characterization
# ---------------------------------------------------------------------------

def test_slope_is_unity_and_scenario_independent(ms4):
    s = sec.high_snr_slope(ms4)
    assert abs(s - 1.0) <= 1e-8 + 10 * abs(ms4.residual)  # series_tol
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
    # one shape at a time: the cumulative pass against H_(dof+q-1) by fsum.
    # The one-hot weights are those of a series whose only psi is psi_q;
    # the pass reads dof, q_max and weights, so no series is rebuilt
    for sig in ([0.7], [4.0, 3.0, 2.0, 1.0], 0.0624 * np.linspace(1.0, 0.7, 6)):
        ms = snr.build_psi(np.array(sig), q_max=2000)
        qs = np.arange(ms.q_max + 1)
        w_q = np.exp(ms.log_weight_prefix)
        for q in qs:
            one = SimpleNamespace(dof=ms.dof, q_max=ms.q_max,
                                  weights=np.where(qs == q, w_q, 0.0))
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
    return (math.exp((float(np.sum(np.log(ms.sigmas))) - log_s) / ms.dof)
            / (g * lb.gamma_bar_e))


def test_independent_eve_terms_stay_exact_for_many_eves(monkeypatch):
    # every piece of the offset integral must converge before its panel limit
    panels = []  # of every piece
    rule = sec._gk21

    def counted(*args):
        out = rule(*args)
        panels.extend(out[2])
        return out

    monkeypatch.setattr(sec, "_gk21", counted)
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
    assert len(panels) > 100 and max(panels) < sec.QUAD_LIMIT
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
    rate_fn, sop_fn = {
        "closed-form": (sec.secrecy_rate_closed, sec.sop_closed),
        "quadrature": (sec.secrecy_rate_quadrature, sec.sop_quadrature),
        "asymptotic": (sec.asymptotic_rate,
                       lambda lb, ms, r0: min(sec.sop_asymptotic(lb, ms, r0),
                                              1.0)),
    }[evaluator]
    for scen in Scenario:
        lb = lb_db(20.0, 0.0, 1 if scen == Scenario.SE else 5, scen)
        want = {"rate": rate_fn(lb, ms4), "sop": sop_fn(lb, ms4, 1.0)}
        if evaluator == "closed-form":
            want.update(slope=sec.high_snr_slope(ms4),
                        offset=sec.high_snr_offset(lb, ms4),
                        gain=sec.diversity_and_gain(lb, ms4, 1.0)[1])
        got = {r[4]: float(r[5]) for r in rows if r[2] == scen.value}
        assert got == want, scen
