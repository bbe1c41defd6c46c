"""Secrecy rate, outage probability, and high-SNR characterizations.

Three eavesdropping scenarios (single, independent-max, collaborative-sum)
are evaluated three ways that must agree: term-by-term closed forms, a
single-integral quadrature route, and the Monte Carlo module.  The closed
rate forms are alternating binomial sums that overflow and cancel, so the
standard path runs in signed log-domain arithmetic with a running
conditioning estimate, and an extended wide-float path (mpmath) takes over
past a configurable DoF cap.

Everything else sums nonnegative terms: the closed-form SOP and the array
gain, its gamma_b -> inf limit, fold in one geometric count per Eve scale
(`_eve_scales`), and the independent Eves' offset term integrates a survival.
"""
from __future__ import annotations

import math

import mpmath
import numpy as np
from scipy import integrate as spi
from scipy import special as sps

from . import snr_models as snr
from .snr_models import LinkBudget, MoschopoulosSeries, Scenario
from .specfun import (EXTENDED, STANDARD, DomainError, EvalPrecision,
                      EULER_GAMMA, SignedLog, exp_e1_log, harmonic_number,
                      log_binomial, scaled_e1)
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
# numeric backends for the closed-form rate
# ---------------------------------------------------------------------------

class _FloatBackend:
    """Signed log-domain float arithmetic with mass (conditioning) tracking."""

    def scalar(self, x):
        return float(x)

    def zero(self):
        return SignedLog(0, -math.inf)

    def wrap(self, x):
        return SignedLog.from_float(float(x))

    def efrom(self, exponent):
        return SignedLog.from_log(1, float(exponent))

    def pow(self, base, k):
        return SignedLog.from_log(1, k * math.log(base))

    def factorial(self, n):
        return SignedLog.from_log(1, math.lgamma(n + 1))

    def comb(self, n, k):
        return SignedLog.from_log(1, log_binomial(n, k))

    def lnS(self, x):
        return SignedLog.from_float(math.log(x))

    def e1(self, x):
        return SignedLog.from_log(1, exp_e1_log(float(x)))


class _MPBackend:
    """Plain mpmath arithmetic at the ambient working precision."""

    def scalar(self, x):
        return mpmath.mpf(x)

    def zero(self):
        return mpmath.mpf(0)

    def wrap(self, x):
        return mpmath.mpf(x)

    def efrom(self, exponent):
        return mpmath.exp(mpmath.mpf(exponent))

    def pow(self, base, k):
        return mpmath.mpf(base) ** k

    def factorial(self, n):
        return mpmath.factorial(n)

    def comb(self, n, k):
        return mpmath.binomial(n, k)

    def lnS(self, x):
        return mpmath.log(x)

    def e1(self, x):
        return mpmath.e1(x)


_FLOAT_BACKEND = _FloatBackend()


def _closed_rate_kernel(bk, theta, mu, k_gamma, dof, log_weights, memo):
    """Mixture secrecy rate for Eve ~ Gamma(k_gamma, mu), Bob the gamma
    mixture with scale theta and shapes dof + q.

    k_gamma = 1 covers the single-Eve expression; the collaborative form is
    the same structure with the gamma-order sums carried along.  `memo`
    holds the mu-free binomial coefficient rows, shared by the calls of one
    dispatch.  Returns a backend value (bits).
    """
    K = k_gamma
    sth = bk.scalar(theta)
    smu = bk.scalar(mu)
    beta = 1 / smu + 1 / sth
    c1 = sth * smu / (sth + smu)      # = 1/beta
    rmu = smu / (sth + smu)
    n_hi = dof + len(log_weights) - 1
    n_arr = n_hi + K                  # F/G orders up to n_hi + K - 1

    e_mu = bk.efrom(1 / smu)
    e_th = bk.efrom(1 / sth)
    e_mbeta = bk.efrom(-beta)
    ln_theta = bk.lnS(theta)
    ln_rmu = bk.lnS(rmu)
    ln_c1 = bk.lnS(c1)
    e1_beta = bk.e1(beta)

    # G[j] = Gamma(j+1, beta), F[j] = F(j+1, beta), upward recurrences.
    G = [None] * n_arr
    F = [None] * n_arr
    G[0] = e_mbeta
    F[0] = bk.lnS(beta) * e_mbeta + e1_beta
    for j in range(1, n_arr):
        pw = bk.pow(beta, j) * e_mbeta
        G[j] = j * G[j - 1] + pw
        F[j] = j * F[j - 1] + bk.lnS(beta) * pw + G[j - 1]

    # alternating gamma-order coefficients C(K-1,c)(-1)^(K-1-c) c1^(c+1)
    KA = [bk.comb(K - 1, c) * ((-1) ** (K - 1 - c)) * bk.pow(c1, c + 1)
          for c in range(K)]

    A = e_mu * sum((KA[c] * (F[c] + ln_rmu * G[c]) for c in range(K)), bk.zero())

    B = bk.factorial(K - 1) * bk.pow(mu, K) * bk.e1(1 / sth)
    for j in range(K):
        inner = ((-1) ** j) * e1_beta
        for t in range(1, j + 1):
            inner = inner + bk.comb(j, t) * ((-1) ** (j - t)) * bk.pow(c1, t) * G[t - 1]
        B = B - e_mu * (bk.factorial(K - 1) / bk.factorial(j)) * bk.pow(mu, K - j) * inner

    # SV[j] = sum_{r<j} rmu^r / r! * sum_c KA[c] G[r+c]   (no e^(1/mu) folded)
    SV = [bk.zero()] * (n_hi + 2)
    for j in range(1, n_hi + 2):
        r = j - 1
        blk = sum((KA[c] * G[r + c] for c in range(K)), bk.zero())
        SV[j] = SV[j - 1] + (bk.pow(rmu, r) if r else bk.wrap(1)) / bk.factorial(r) * blk

    # PS[k] = sum_{j=1..k} (U_j + V_j)/j!
    PS = [bk.zero()] * (n_hi + 1)
    for j in range(1, n_hi + 1):
        ub = sum((KA[b] * (F[j + b] + ln_rmu * G[j + b]) for b in range(K)), bk.zero())
        u = e_mu * bk.pow(rmu, j) * ub
        v = bk.factorial(j - 1) * e_mu * SV[j]
        PS[j] = PS[j - 1] + (u + v) / bk.factorial(j)

    bracket = [bk.factorial(k) * (A + B + PS[k] + ln_theta * e_mu * SV[k + 1])
               for k in range(n_hi)]

    # W2[f] = c1^(f+1) (F[f] + ln(c1) G[f]) feeds the log(1+rho_e) term.
    W2 = [bk.pow(c1, f + 1) * (F[f] + ln_c1 * G[f]) for f in range(n_arr)]
    gamma_k_mu = bk.factorial(K - 1) * bk.pow(mu, K)
    tau_prefix = [bk.zero()] * (n_hi + 1)
    e_beta = bk.efrom(beta)
    tau_rows = memo.setdefault("tau", {})
    for m in range(n_hi):
        n = K + m - 1
        row = tau_rows.get(n)
        if row is None:
            row = tau_rows[n] = [bk.comb(n, f) * ((-1) ** (n - f))
                                 for f in range(n + 1)]
        s = sum((c * w for c, w in zip(row, W2)), bk.zero())
        tau = e_beta / gamma_k_mu / (bk.pow(theta, m) if m else bk.wrap(1)) \
            / bk.factorial(m) * s
        tau_prefix[m + 1] = tau_prefix[m] + tau

    ksum_rows = memo.setdefault("ksum", {})
    total = bk.zero()
    for q, lw in enumerate(log_weights):
        n = dof + q
        row = ksum_rows.get(n)
        if row is None:
            row = ksum_rows[n] = [bk.comb(n - 1, k) * ((-1) ** (n - 1 - k))
                                  * bk.pow(theta, k + 1) for k in range(n)]
        ksum = bk.zero()
        for c, b in zip(row, bracket):
            ksum = ksum + c * b
        term1 = ksum * e_th / (bk.factorial(n - 1) * bk.pow(theta, n) * gamma_k_mu)
        total = total + bk.efrom(lw) * (term1 - tau_prefix[n])
    return total / bk.wrap(LN2)


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


def _rate_closed_dispatch(bk, lb: LinkBudget, ms: MoschopoulosSeries, n_terms):
    theta = lb.gamma_bar_b * ms.sigma_min
    logw = ms.log_weights[:n_terms]
    memo = {}
    if lb.scenario != Scenario.MIE:  # SE is the K = 1 collaborative case
        return _closed_rate_kernel(bk, theta, lb.gamma_bar_e, lb.k_eves, ms.dof,
                                   logw, memo)
    K = lb.k_eves
    total = bk.zero()
    for a in range(K):
        coeff = bk.wrap(K) * bk.comb(K - 1, a) * ((-1) ** a) / bk.wrap(a + 1)
        total = total + coeff * _closed_rate_kernel(
            bk, theta, lb.gamma_bar_e / (a + 1), 1, ms.dof, logw, memo)
    return total


def secrecy_rate_closed(lb: LinkBudget, ms: MoschopoulosSeries,
                        prec: EvalPrecision | None = None, *,
                        dof_cap: int = DEFAULT_CLOSED_FORM_DOF_CAP) -> float:
    """Term-by-term closed-form secrecy rate in bits/channel use.

    With prec=None the standard float path is used up to `dof_cap` spatial
    DoF and the extended wide-float path beyond.  The standard path raises
    PrecisionLossError when its conditioning estimate says the alternating
    sums left fewer than ~3 significant digits, or when the value falls
    outside [0, log2(1 + gamma_b sum(sigma))], the range of the true rate.

    The mixture is cut where its tail provably adds under 2^-60 of the
    result; should the result be too small for that, the full series runs.
    """
    if prec is None:
        prec = STANDARD if ms.dof <= dof_cap else EXTENDED
    jensen = math.log2(1.0 + _bob_spread(lb, ms)[0])
    n_cut, tail = _mixture_cut(lb, ms)
    # MIE weighs its K kernels by +-K C(K-1,a)/(a+1), of total magnitude 2^K - 1
    if lb.scenario == Scenario.MIE:
        tail *= 2.0 ** lb.k_eves - 1.0
    for n_terms, dropped in ((n_cut, tail), (ms.q_max + 1, 0.0)):
        val = _rate_closed_dispatch(_FLOAT_BACKEND, lb, ms, n_terms)
        if prec.mode == "standard-float":
            cond = val.log_condition()
            est_rel = 2.3e-16 * math.exp(min(cond, 700.0))
            if est_rel > _PRECISION_LOSS_THRESHOLD:
                raise PrecisionLossError(est_rel)
            out = val.to_float()
            if (out > jensen * (1.0 + 1e-6)
                    or out < -2.3e-16 * math.exp(min(val.mass, 700.0))):
                raise PrecisionLossError(math.inf)
        else:
            # size the working precision from the mass bound of the float dry run
            mag = val.mag if val.sign != 0 and math.isfinite(val.mag) else 0.0
            digits = (val.mass - min(mag, 0.0)) / math.log(10.0) + 30.0
            dps = int(min(max(50.0, digits), 6000.0))
            with mpmath.workdps(dps):
                out = float(_rate_closed_dispatch(_MPBackend(), lb, ms, n_terms))
        if dropped <= _TAIL_REL * abs(out):
            break
    return max(out, 0.0)


# ---------------------------------------------------------------------------
# quadrature evaluators (independent route)
# ---------------------------------------------------------------------------

def _bob_spread(lb, ms):
    mean = lb.gamma_bar_b * float(np.sum(ms.sigmas))
    std = lb.gamma_bar_b * math.sqrt(float(np.sum(ms.sigmas ** 2)))
    return mean, std


def _piecewise_quad(f, edges, epsabs: float, max_err: float, what: str) -> float:
    """int_{edges[0]}^{edges[-1]} f (the last edge may be inf), one adaptive
    rule per piece between consecutive edges.

    Raises ComputationError when the summed error estimates exceed max_err.
    """
    parts = [spi.quad(f, a, b, limit=400, epsabs=epsabs, epsrel=1e-11)
             for a, b in zip(edges, edges[1:])]
    err = sum(e for _, e in parts)
    if err > max_err:
        raise ComputationError(f"{what} quadrature achieved only +-{err:.2e}")
    return sum(v for v, _ in parts)


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
    return min(max(_piecewise_quad(f, edges, 1e-10, 1e-7, "SOP"), 0.0), 1.0)


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


def sop_closed(lb: LinkBudget, ms: MoschopoulosSeries, r0: float) -> float:
    """Closed-form secrecy outage probability at target rate r0 (bits).

    Eve's SNR is sum_j mu_j E_j (`_eve_scales`).  Bob's per-shape CDF is a
    Poisson tail, so the outage of shape n is
    P(Pois(lambda) + sum_j Geom(r_j) >= n), lambda = (2^r0 - 1)/theta and
    r_j = g mu_j / (theta + g mu_j).  One pass per Eve convolves the count's
    pmf with Geom(r_j) and adds its tail increment, both truncated at the
    largest shape.  Every term is nonnegative, so nothing cancels even when
    the outage probability is ~1e-200 or K is in the hundreds.
    """
    if r0 <= 0.0:
        raise DomainError("target secrecy rate must be positive")
    g = 2.0 ** r0
    theta = lb.gamma_bar_b * ms.sigma_min
    lam = (g - 1.0) / theta
    idx = np.arange(ms.dof + ms.q_max + 1, dtype=float)
    pmf = np.exp(sps.xlogy(idx, lam) - lam - sps.gammaln(idx + 1.0))
    tail = sps.gammainc(idx, lam)            # tail[n] = P(count >= n)
    for mu in _eve_scales(lb):
        log_r = -math.log1p(theta / (g * mu))
        # v[n] = sum_{i<=n} pmf[i] r^(n-i): P(count >= n+1) gains r v[n]
        v = np.convolve(pmf, np.exp(log_r * idx))[:idx.size]
        tail[1:] += math.exp(log_r) * v[:-1]
        pmf = -math.expm1(log_r) * v
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
    log_h = sps.xlogy(idx, g - 1.0) - sps.gammaln(idx + 1.0)
    for mu in _eve_scales(lb):
        lc = math.log(g * mu)
        log_h = idx * lc + np.logaddexp.accumulate(log_h - idx * lc)
    return ms.dof, math.exp((float(np.sum(ms.log_sigmas)) - log_h[-1]) / ms.dof)


def sop_asymptotic(lb: LinkBudget, ms: MoschopoulosSeries, r0: float) -> float:
    """Leading outage law (Ag * gamma_b)^(-dof), for plotting."""
    dof, gain = diversity_and_gain(lb, ms, r0)
    expo = -dof * (math.log(gain) + math.log(lb.gamma_bar_b))
    return math.exp(expo) if expo < 700.0 else math.inf


# analytic evaluator name -> (rate(lb, ms), sop(lb, ms, r0)).  The entries
# look the evaluators up at call time, so a module attribute replaced after
# import (e.g. by a tracer) is the one that runs.
ANALYTIC_EVALUATORS = {
    "closed-form": (lambda lb, ms: secrecy_rate_closed(lb, ms),
                    lambda lb, ms, r0: sop_closed(lb, ms, r0)),
    "quadrature": (lambda lb, ms: secrecy_rate_quadrature(lb, ms),
                   lambda lb, ms, r0: sop_quadrature(lb, ms, r0)),
    "asymptotic": (lambda lb, ms: asymptotic_rate(lb, ms),
                   lambda lb, ms, r0: min(sop_asymptotic(lb, ms, r0), 1.0)),
}


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
        return -math.expm1(k * math.log1p(-math.exp(-x / gamma_e))) / (1.0 + x)

    edge = gamma_e * math.log(k)
    return _piecewise_quad(f, [0.0, edge, edge + 40.0 * gamma_e], 0.0, 1e-9,
                           "offset")
