"""Secrecy rate, outage probability, and high-SNR characterizations.

Three eavesdropping scenarios (single, independent-max, collaborative-sum)
are evaluated three ways that must agree: term-by-term closed forms, a
single-integral quadrature route, and the Monte Carlo module.  The closed
rate forms are alternating binomial sums that overflow and cancel, so the
standard path runs in signed log-domain arithmetic with a running
conditioning estimate.  Past a configurable DoF cap the extended path
integrates the secure probability P(C_s > r) over r instead.

Everything else sums nonnegative terms: the closed-form SOP, the extended
rate's secure probability and the array gain, its gamma_b -> inf limit, fold
in one geometric count per Eve scale (`_eve_scales`), and the independent
Eves' offset term integrates a survival.
"""
from __future__ import annotations

import math

import numpy as np

from . import snr_models as snr
from .snr_models import LinkBudget, MoschopoulosSeries, Scenario
from .specfun import (EXTENDED, STANDARD, DomainError, EvalPrecision,
                      EULER_GAMMA, SignedLog, exp_e1_log, harmonic_number,
                      log_binomial, poisson_tails, scaled_e1, signed_log_dot,
                      xlogy)
from .spectral import ComputationError

LN2 = math.log(2.0)
DEFAULT_CLOSED_FORM_DOF_CAP = 16
_PRECISION_LOSS_THRESHOLD = 1e-3
_TAIL_REL = 2.0 ** -60            # dropped mixture tail, relative to the rate
_TAIL_CUT_LOG = math.log(_TAIL_REL * 1e-12)


class PrecisionLossError(ArithmeticError):
    """Cancellation ate the significand; use quadrature or extended mode."""

    def __init__(self, estimated_rel_error: float):
        self.estimated_rel_error = estimated_rel_error
        super().__init__(
            f"estimated relative error {estimated_rel_error:.2e} exceeds "
            f"{_PRECISION_LOSS_THRESHOLD:.0e}; use the quadrature evaluator "
            "or extended precision"
        )


# ---------------------------------------------------------------------------
# the closed-form rate in signed log-domain floats
# ---------------------------------------------------------------------------

_ZERO = SignedLog(0, -math.inf)


def _exp(x):
    """e^x as a SignedLog."""
    return SignedLog.from_log(1, x)


def _pow(base, k):
    return SignedLog.from_log(1, k * math.log(base))


def _factorial(n):
    return SignedLog.from_log(1, math.lgamma(n + 1))


def _ln(x):
    return SignedLog.from_float(math.log(x))


def _alt_binomials(n, base=1.0):
    """C(n, k) (-1)^(n-k) base^(k+1), k = 0..n, each from its log."""
    ln_base = math.log(base)
    return [SignedLog.from_log(1 - 2 * ((n - k) & 1),
                               log_binomial(n, k) + (k + 1) * ln_base)
            for k in range(n + 1)]


def _closed_rate_kernel(theta, mu, k_gamma, dof, log_weights, memo):
    """Mixture secrecy rate for Eve ~ Gamma(k_gamma, mu), Bob the gamma
    mixture with scale theta and shapes dof + q.

    k_gamma = 1 covers the single-Eve expression; the collaborative form is
    the same structure with the gamma-order sums carried along.  `memo`
    holds the mu-free binomial coefficient rows, shared by the calls of one
    dispatch.  Returns a SignedLog (bits).
    """
    K = k_gamma
    theta, mu = float(theta), float(mu)
    beta = 1 / mu + 1 / theta
    c1 = theta * mu / (theta + mu)    # = 1/beta
    rmu = mu / (theta + mu)
    n_hi = dof + len(log_weights) - 1
    n_arr = n_hi + K                  # F/G orders up to n_hi + K - 1

    e_mu = _exp(1 / mu)
    e_th = _exp(1 / theta)
    e_mbeta = _exp(-beta)
    ln_theta = _ln(theta)
    ln_rmu = _ln(rmu)
    ln_c1 = _ln(c1)
    ln_beta = _ln(beta)
    e1_beta = _exp(exp_e1_log(beta))

    # G[j] = Gamma(j+1, beta), F[j] = F(j+1, beta), upward recurrences.
    G = [None] * n_arr
    F = [None] * n_arr
    G[0] = e_mbeta
    F[0] = ln_beta * e_mbeta + e1_beta
    for j in range(1, n_arr):
        pw = _pow(beta, j) * e_mbeta
        G[j] = j * G[j - 1] + pw
        F[j] = j * F[j - 1] + ln_beta * pw + G[j - 1]

    # alternating gamma-order coefficients C(K-1,c)(-1)^(K-1-c) c1^(c+1)
    KA = _alt_binomials(K - 1, c1)

    FG = [f + ln_rmu * g for f, g in zip(F, G)]
    A = e_mu * signed_log_dot(KA, FG)

    B = _factorial(K - 1) * _pow(mu, K) * _exp(exp_e1_log(1 / theta))
    for j in range(K):
        inner = ((-1) ** j) * e1_beta
        for t in range(1, j + 1):
            inner = inner + (_exp(log_binomial(j, t)) * ((-1) ** (j - t))
                             * _pow(c1, t) * G[t - 1])
        B = B - e_mu * (_factorial(K - 1) / _factorial(j)) * _pow(mu, K - j) * inner

    # SV[j] = sum_{r<j} rmu^r / r! * sum_c KA[c] G[r+c]   (no e^(1/mu) folded)
    one = SignedLog.from_float(1.0)
    SV = [_ZERO] * (n_hi + 2)
    for j in range(1, n_hi + 2):
        r = j - 1
        blk = signed_log_dot(KA, G[r:])
        SV[j] = SV[j - 1] + (_pow(rmu, r) if r else one) / _factorial(r) * blk

    # PS[k] = sum_{j=1..k} (U_j + V_j)/j!
    PS = [_ZERO] * (n_hi + 1)
    for j in range(1, n_hi + 1):
        ub = signed_log_dot(KA, FG[j:])
        u = e_mu * _pow(rmu, j) * ub
        v = _factorial(j - 1) * e_mu * SV[j]
        PS[j] = PS[j - 1] + (u + v) / _factorial(j)

    bracket = [_factorial(k) * (A + B + PS[k] + ln_theta * e_mu * SV[k + 1])
               for k in range(n_hi)]

    # W2[f] = c1^(f+1) (F[f] + ln(c1) G[f]) feeds the log(1+rho_e) term.
    W2 = [_pow(c1, f + 1) * (F[f] + ln_c1 * G[f]) for f in range(n_arr)]
    gamma_k_mu = _factorial(K - 1) * _pow(mu, K)
    tau_prefix = [_ZERO] * (n_hi + 1)
    e_beta = _exp(beta)
    tau_rows = memo.setdefault("tau", {})
    for m in range(n_hi):
        n = K + m - 1
        row = tau_rows.get(n)
        if row is None:
            row = tau_rows[n] = _alt_binomials(n)
        s = signed_log_dot(row, W2)
        tau = e_beta / gamma_k_mu / (_pow(theta, m) if m else one) \
            / _factorial(m) * s
        tau_prefix[m + 1] = tau_prefix[m] + tau

    ksum_rows = memo.setdefault("ksum", {})
    total = _ZERO
    for q, lw in enumerate(log_weights):
        n = dof + q
        row = ksum_rows.get(n)
        if row is None:
            row = ksum_rows[n] = _alt_binomials(n - 1, theta)
        ksum = signed_log_dot(row, bracket)
        term1 = ksum * e_th / (_factorial(n - 1) * _pow(theta, n) * gamma_k_mu)
        total = total + _exp(float(lw)) * (term1 - tau_prefix[n])
    return total / SignedLog.from_float(LN2)


def _mixture_cut(lb: LinkBudget, ms: MoschopoulosSeries):
    """(terms kept, bound in bits on each kernel's dropped mixture tail).

    The per-shape term is the secrecy rate for Bob ~ Gamma(dof + q, theta),
    which lies in [0, log2(1 + (dof + q) theta)] by Jensen; the weights are
    positive.  Terms are kept up to the first q whose tail bound is below
    2^-60 * 1e-12 bits.
    """
    theta = lb.gamma_bar_b * ms.sigma_min
    log_terms = ms.log_weights + np.log(np.log1p(ms.shapes * theta) / LN2)
    tails = np.append(np.logaddexp.accumulate(log_terms[::-1])[::-1][1:], -np.inf)
    q_stop = int(np.argmax(tails <= _TAIL_CUT_LOG))
    return q_stop + 1, math.exp(tails[q_stop])


def _rate_closed_dispatch(lb: LinkBudget, ms: MoschopoulosSeries, n_terms):
    theta = lb.gamma_bar_b * ms.sigma_min
    logw = ms.log_weights[:n_terms]
    memo = {}
    if lb.scenario != Scenario.MIE:  # SE is the K = 1 collaborative case
        return _closed_rate_kernel(theta, lb.gamma_bar_e, lb.k_eves, ms.dof,
                                   logw, memo)
    K = lb.k_eves
    total = _ZERO
    for a in range(K):
        coeff = (SignedLog.from_float(float(K)) * _exp(log_binomial(K - 1, a))
                 * ((-1) ** a) / SignedLog.from_float(float(a + 1)))
        total = total + coeff * _closed_rate_kernel(
            theta, lb.gamma_bar_e / (a + 1), 1, ms.dof, logw, memo)
    return total


def secrecy_rate_closed(lb: LinkBudget, ms: MoschopoulosSeries,
                        prec: EvalPrecision | None = None, *,
                        dof_cap: int = DEFAULT_CLOSED_FORM_DOF_CAP) -> float:
    """Term-by-term closed-form secrecy rate in bits/channel use.

    With prec=None the standard float path is used up to `dof_cap` spatial
    DoF and the extended path (`_rate_by_secure_probability`) beyond.  The
    standard path raises PrecisionLossError when its conditioning estimate
    says the alternating sums left fewer than ~3 significant digits, or
    when the value falls outside [0, log2(1 + gamma_b sum(sigma))], the
    range of the true rate.

    The mixture is cut where its tail provably adds under 2^-60 of the
    result; should the result be too small for that, the full series runs.
    """
    if prec is None:
        prec = STANDARD if ms.dof <= dof_cap else EXTENDED
    if prec.mode != "standard-float":
        return _rate_by_secure_probability(lb, ms)
    jensen = math.log2(1.0 + _bob_spread(lb, ms)[0])
    n_cut, tail = _mixture_cut(lb, ms)
    # MIE weighs its K kernels by +-K C(K-1,a)/(a+1), of total magnitude 2^K - 1
    if lb.scenario == Scenario.MIE:
        tail *= 2.0 ** lb.k_eves - 1.0
    for n_terms, dropped in ((n_cut, tail), (ms.q_max + 1, 0.0)):
        val = _rate_closed_dispatch(lb, ms, n_terms)
        est_rel = 2.3e-16 * math.exp(min(val.log_condition(), 700.0))
        if est_rel > _PRECISION_LOSS_THRESHOLD:
            raise PrecisionLossError(est_rel)
        out = val.to_float()
        if (out > jensen * (1.0 + 1e-6)
                or out < -2.3e-16 * math.exp(min(val.mass, 700.0))):
            raise PrecisionLossError(math.inf)
        if dropped <= _TAIL_REL * abs(out):
            break
    return max(out, 0.0)


def _rate_by_secure_probability(lb: LinkBudget, ms: MoschopoulosSeries) -> float:
    """The closed-form rate as E[C_s^+] = int_0^inf P(C_s > r) dr, C_s =
    log2(1 + rho_b) - log2(1 + rho_e).

    P(C_s > r) = sum_q w_q P(count < dof + q) with `sop_closed`'s count at
    r0 = r (`_outage_count`): head sums of a nonnegative pmf, so nothing
    cancels in any scenario or for any K.  The pieces end at 0, at
    r* = log2((1 + E rho_b)/(1 + E rho_e)) where Eve's mass moves the knee
    (if r* lies inside), at log2(2 + mean + 12 std) past Bob's bulk, and
    at inf.  Raises ComputationError when the error estimate exceeds 1e-10
    of the rate.
    """
    theta = lb.gamma_bar_b * ms.sigma_min

    def f(rs):
        out = np.zeros(rs.size)
        for i, r in enumerate(rs):
            g = 2.0 ** r if r < 1024.0 else math.inf
            if (g - 1.0) / theta < math.inf:  # else every pmf term is 0
                pmf = _outage_count(lb, ms, g)[0]
                out[i] = ms.weights @ np.cumsum(pmf)[ms.dof - 1:-1]
        return out

    mean, std = _bob_spread(lb, ms)
    r_hi = math.log2(2.0 + mean + 12.0 * std)
    r_star = math.log2((1.0 + mean) / (1.0 + float(np.sum(_eve_scales(lb)))))
    edges = [0.0, r_star, r_hi, math.inf] if 0.0 < r_star < r_hi \
        else [0.0, r_hi, math.inf]
    return _piecewise_quad(f, edges, 0.0, math.inf, "closed rate",
                           max_rel=1e-10, epsrel=1e-13)


# ---------------------------------------------------------------------------
# quadrature evaluators (independent route)
# ---------------------------------------------------------------------------

def _bob_spread(lb, ms):
    mean = lb.gamma_bar_b * float(np.sum(ms.sigmas))
    std = lb.gamma_bar_b * math.sqrt(float(np.sum(ms.sigmas ** 2)))
    return mean, std


# QUADPACK's qk21 (Piessens et al., QUADPACK, Springer 1983): the 21-point
# Kronrod extension of the 10-point Gauss rule on [-1, 1]
_GK_X = np.array([
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
    0.0])
_GK_WK = np.array([
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077208745815691, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821])
_GK_WG = np.array([
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338])
_GK_NODES = np.concatenate([-_GK_X[:10], _GK_X[::-1]])
_GK_KRONROD = np.concatenate([_GK_WK[:10], _GK_WK[::-1]])
_GK_GAUSS = np.zeros(21)  # the Gauss nodes are every other Kronrod node
_GK_GAUSS[1:10:2], _GK_GAUSS[11::2] = _GK_WG, _GK_WG[::-1]
_EPS = float(np.finfo(float).eps)
_TINY = float(np.finfo(float).tiny)
QUAD_LIMIT = 400  # panels per piece


def _qk21(f, lo, hi):
    """qk21 on every panel [lo_i, hi_i], all nodes in one call of f:
    (integrals, QUADPACK's error estimates, resasc)."""
    h = 0.5 * (hi - lo)
    x = (0.5 * (lo + hi))[:, None] + h[:, None] * _GK_NODES
    fx = f(x.ravel()).reshape(x.shape)
    resk = fx @ _GK_KRONROD
    err = np.abs(resk - fx @ _GK_GAUSS) * h
    resabs = np.abs(fx) @ _GK_KRONROD * h
    resasc = np.abs(fx - 0.5 * resk[:, None]) @ _GK_KRONROD * h
    pos = resasc > 0.0
    err = np.where(pos, resasc * np.minimum(
        1.0, 200.0 * err / np.where(pos, resasc, 1.0)) ** 1.5, err)
    # the roundoff floor, except (as in QUADPACK) for panels near underflow
    err = np.where(resabs > _TINY / (50.0 * _EPS),
                   np.maximum(50.0 * _EPS * resabs, err), err)
    return resk * h, err, resasc


def _gk21(f, a, b, epsabs, epsrel, limit=QUAD_LIMIT):
    """int_a^b f (b may be inf) by adaptive qk21: (value, error estimate,
    panels).  f takes an array; each pass evaluates every new panel at once.

    A one-panel result stands, as in QUADPACK's qagse, only if its estimate
    is within max(epsabs, epsrel |I|) and is not resasc itself (the sign of
    an unresolved panel).  Otherwise each pass bisects the panels with the
    largest estimates until the others hold at most half the tolerance, and
    stops once the summed estimate is within it or at `limit` panels.
    """
    if a == b:
        return 0.0, 0.0, 0
    g = f
    if b == math.inf:  # x = a + (1 - t)/t maps t in (0, 1] onto [a, inf)
        def g(t, a=a):
            return f(a + (1.0 - t) / t) / t / t
        a, b = 0.0, 1.0
    lo, hi = np.array([float(a)]), np.array([float(b)])
    val, err, asc = _qk21(g, lo, hi)
    if err[0] == 0.0 or (err[0] <= max(epsabs, epsrel * abs(val[0]))
                         and err[0] != asc[0]):
        return float(val[0]), float(err[0]), 1
    panels = np.array([lo, hi, val, err])  # one column per panel
    while panels.shape[1] < limit:
        lo, hi, val, err = panels
        tol = max(epsabs, epsrel * abs(val.sum()))
        order = np.argsort(-err, kind="stable")
        # rest[i]: the estimates left once the i + 1 largest are bisected
        rest = np.append(np.cumsum(err[order][::-1])[::-1][1:], 0.0)
        s = order[:min(int(np.argmax(rest <= 0.5 * tol)) + 1,
                       limit - panels.shape[1])]
        mid = 0.5 * (lo[s] + hi[s])
        new_lo, new_hi = np.append(lo[s], mid), np.append(mid, hi[s])
        v, e, _ = _qk21(g, new_lo, new_hi)
        panels = np.append(np.delete(panels, s, axis=1),
                           [new_lo, new_hi, v, e], axis=1)
        if panels[3].sum() <= max(epsabs, epsrel * abs(panels[2].sum())):
            break
    return float(panels[2].sum()), float(panels[3].sum()), panels.shape[1]


def _piecewise_quad(f, edges, epsabs: float, max_err: float, what: str,
                    max_rel: float | None = None, epsrel: float = 1e-11) -> float:
    """int_{edges[0]}^{edges[-1]} f (the last edge may be inf), one adaptive
    rule per piece between consecutive edges, each to max(epsabs, epsrel |I|).

    Raises ComputationError when the summed error estimates exceed max_err
    (or are NaN), or max_rel times the result clamped at 0 when max_rel is
    given.
    """
    parts = [_gk21(f, a, b, epsabs, epsrel) for a, b in zip(edges, edges[1:])]
    err = sum(e for _, e, _ in parts)
    val = sum(v for v, _, _ in parts)
    if not (err <= max_err and (max_rel is None
                                or err <= max_rel * max(val, 0.0))):
        raise ComputationError(f"{what} quadrature achieved only +-{err:.2e} "
                               f"on {val:.3e}")
    return val


def secrecy_rate_quadrature(lb: LinkBudget, ms: MoschopoulosSeries) -> float:
    """E{[log2(1+rho_b) - log2(1+rho_e)]^+} as a single integral.

    Integration by parts of the double integral gives
    (1/ln 2) int_0^inf  P(rho_b > x) F_e(x) / (1+x) dx.
    """
    def f(x):
        return snr.bob_survival(x, lb, ms) * snr.eve_cdf(x, lb) / (1.0 + x) / LN2

    mean, std = _bob_spread(lb, ms)
    split = mean + 12.0 * std + 1.0
    # F_e rises from 0 to 1 over a few Eve SNR scales; a faint Eve's layer
    # is too thin for the adaptive rule to find on its own
    edges = [0.0, split, np.inf]
    if 50.0 * lb.gamma_bar_e * lb.k_eves < split:
        edges.insert(1, 50.0 * lb.gamma_bar_e * lb.k_eves)
    return max(_piecewise_quad(f, edges, 1e-9, 1e-6, "rate"), 0.0)


def sop_quadrature(lb: LinkBudget, ms: MoschopoulosSeries, r0: float) -> float:
    """P(rho_b < 2^r0 (1 + rho_e) - 1) by integrating over Eve's density."""
    if r0 <= 0.0:
        raise DomainError("target secrecy rate must be positive")
    g = 2.0 ** r0

    def f(y):
        return snr.eve_pdf(y, lb) * snr.bob_cdf(g * (1.0 + y) - 1.0, lb, ms)

    edges = [0.0, 40.0 * (lb.gamma_bar_e * lb.k_eves), np.inf]
    sop = _piecewise_quad(f, edges, 1e-10, 1e-7, "SOP", max_rel=1e-6)
    return min(max(sop, 0.0), 1.0)


# ---------------------------------------------------------------------------
# closed-form secrecy outage probability
# ---------------------------------------------------------------------------

def _eve_scales(lb: LinkBudget) -> np.ndarray:
    """Eve's SNR is sum_j mu_j E_j over K unit exponentials: mu_j = gamma_e
    for collaborative Eves (and the single Eve, K = 1), gamma_e / j for
    independent ones, the law of the largest of K Exp(gamma_e) (Renyi's
    representation of exponential order statistics)."""
    k = lb.k_eves
    j = np.arange(1.0, k + 1.0) if lb.scenario == Scenario.MIE else np.ones(k)
    return lb.gamma_bar_e / j


def _outage_count(lb: LinkBudget, ms: MoschopoulosSeries, g: float):
    """The outage count at 2^r0 = g: (its pmf, P(count >= k)) for
    k < dof + q_max + 1.

    Eve's SNR is sum_j mu_j E_j (`_eve_scales`).  Bob's per-shape CDF is a
    Poisson tail, so the outage of shape n is
    P(Pois(lambda) + sum_j Geom(r_j) >= n), lambda = (g - 1)/theta and
    r_j = g mu_j / (theta + g mu_j).  One pass per Eve convolves the count's
    pmf with Geom(r_j) and adds its tail increment, both truncated at the
    largest shape.  Every term is nonnegative.
    """
    theta = lb.gamma_bar_b * ms.sigma_min
    lam = (g - 1.0) / theta
    n = ms.dof + ms.q_max + 1
    idx = np.arange(len(ms.log_factorials), dtype=float)
    pmf = np.exp(xlogy(idx, lam) - lam - ms.log_factorials)
    tail = poisson_tails(pmf, lam)[:n]       # tail[n] = P(count >= n)
    idx, pmf = idx[:n], pmf[:n]
    for mu in _eve_scales(lb):
        log_r = -math.log1p(theta / (g * mu))
        # v[n] = sum_{i<=n} pmf[i] r^(n-i): P(count >= n+1) gains r v[n]
        v = np.convolve(pmf, np.exp(log_r * idx))[:idx.size]
        tail[1:] += math.exp(log_r) * v[:-1]
        pmf = -math.expm1(log_r) * v
    return pmf, tail


def sop_closed(lb: LinkBudget, ms: MoschopoulosSeries, r0: float) -> float:
    """Closed-form secrecy outage probability at target rate r0 (bits):
    sum_q w_q P(count >= dof + q) over `_outage_count`'s tails.  Nothing
    cancels even when the outage probability is ~1e-200 or K is in the
    hundreds.
    """
    if r0 <= 0.0:
        raise DomainError("target secrecy rate must be positive")
    tail = _outage_count(lb, ms, 2.0 ** r0)[1]
    return min(float(ms.weights @ tail[ms.dof:]), 1.0)


# ---------------------------------------------------------------------------
# high-SNR characterization
# ---------------------------------------------------------------------------

def high_snr_slope(ms: MoschopoulosSeries) -> float:
    """prefix * sum(psi_q): the multiplexing coefficient, 1 by normalization."""
    return float(np.exp(ms.log_weight_prefix) * math.fsum(ms.psis))


def _weighted_harmonic(ms: MoschopoulosSeries) -> float:
    # H_(dof+q-1) for every shape: one fsum for q = 0, then a cumulative pass
    steps = 1.0 / np.arange(ms.dof, ms.dof + ms.q_max, dtype=float)
    h = harmonic_number(ms.dof - 1) + np.append(0.0, np.cumsum(steps))
    w = ms.weights
    return float((w @ h) / np.sum(w))


def _offset_eve_term(lb: LinkBudget) -> float:
    """The e^x E1(x) combination entering the power offset, per scenario."""
    if lb.scenario == Scenario.MIE:
        return independent_eve_offset_term(lb.k_eves, lb.gamma_bar_e)
    return scaled_e1(1.0 / (lb.k_eves * lb.gamma_bar_e))


def high_snr_offset(lb: LinkBudget, ms: MoschopoulosSeries) -> float:
    """High-SNR power offset in log2-SNR units (3.01 dB per unit)."""
    return (-math.log2(ms.sigma_min)
            + (EULER_GAMMA + _offset_eve_term(lb) - _weighted_harmonic(ms)) / LN2)


def asymptotic_rate(lb: LinkBudget, ms: MoschopoulosSeries) -> float:
    """High-SNR affine approximation slope*(log2 SNR - offset), clamped at 0.

    Documented validity: Bob SNR of roughly 30 dB and above.
    """
    s = high_snr_slope(ms)
    return max(s * (math.log2(lb.gamma_bar_b) - high_snr_offset(lb, ms)), 0.0)


def diversity_and_gain(lb: LinkBudget, ms: MoschopoulosSeries,
                       r0: float) -> tuple[int, float]:
    """Outage exponent (= spatial DoF in every scenario) and array gain.

    SOP -> (Ag gamma_b)^(-dof), Ag^(-dof) prod(sigma) = [z^dof] e^((g-1) z)
    prod_j 1/(1 - g mu_j z): `sop_closed`'s counts as theta -> inf.  Each Eve
    multiplies in 1/(1 - c z), c = g mu_j, as h_n <- c^n sum_{i<=n} h_i c^-i.
    """
    if r0 <= 0.0:
        raise DomainError("target secrecy rate must be positive")
    g = 2.0 ** r0
    idx = np.arange(ms.dof + 1, dtype=float)
    log_h = xlogy(idx, g - 1.0) - ms.log_factorials[:ms.dof + 1]
    for mu in _eve_scales(lb):
        lc = math.log(g * mu)
        log_h = idx * lc + np.logaddexp.accumulate(log_h - idx * lc)
    log_prod = float(np.sum(np.log(ms.sigmas)))
    return ms.dof, math.exp((log_prod - log_h[-1]) / ms.dof)


def sop_asymptotic(lb: LinkBudget, ms: MoschopoulosSeries, r0: float) -> float:
    """Leading outage law (Ag * gamma_b)^(-dof), for plotting."""
    dof, gain = diversity_and_gain(lb, ms, r0)
    expo = -dof * (math.log(gain) + math.log(lb.gamma_bar_b))
    return math.exp(expo) if expo < 700.0 else math.inf


# ---------------------------------------------------------------------------
# independent-Eves term of the power offset
# ---------------------------------------------------------------------------

def independent_eve_offset_term(k: int, gamma_e: float) -> float:
    """y(K) = E ln(1 + max of K Eve SNRs), increasing in K.

    The integral of the max's survival 1 - (1 - e^(-x/ge))^K against
    1/(1+x): nothing cancels.  The survival falls past ge ln K and is below
    e^-40 beyond ge (ln K + 40), where the integral stops (the rest is
    under 1e-17 of y)."""
    def f(x):
        return -np.expm1(k * np.log1p(-np.exp(-x / gamma_e))) / (1.0 + x)

    edge = gamma_e * math.log(k)
    return _piecewise_quad(f, [0.0, edge, edge + 40.0 * gamma_e], 0.0, 1e-9,
                           "offset")
