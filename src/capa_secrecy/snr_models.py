"""Distributions of the instantaneous SNRs.

Bob's SNR is a weighted sum of unit exponentials (one per retained kernel
eigenvalue) whose density is written as a single-scale gamma mixture via the
Moschopoulos recursion.  The eavesdropper SNR is exponential (single Eve),
a max of K exponentials (independent Eves), or gamma with shape K
(collaborative Eves combining).  Exact samplers for every law feed the
Monte Carlo oracle.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .specfun import (DomainError, log_factorials, poisson_mix,
                      poisson_series_terms, poisson_tail, xlogy)
from .spectral import ComputationError, SpectralDecomposition


class Scenario(str, enum.Enum):
    SE = "SE"    # single eavesdropper
    MIE = "MIE"  # multiple independent eavesdroppers (best SNR wins)
    MCE = "MCE"  # multiple collaborative eavesdroppers (MRC combining)


MAX_TARGET_RATE = 1024.0  # 2^r0 overflows a double from here on


def check_target_rate(r0: float) -> None:
    """Raise DomainError unless the target secrecy rate r0 (bits) lies in
    (0, MAX_TARGET_RATE); NaN and infinities lie outside."""
    if not 0.0 < r0 < MAX_TARGET_RATE:
        raise DomainError(f"target rate must lie in (0, {MAX_TARGET_RATE:g})")


@dataclass(frozen=True)
class LinkBudget:
    """Average link SNRs (linear) and the eavesdropping scenario."""

    gamma_bar_b: float
    gamma_bar_e: float
    k_eves: int = 1
    scenario: Scenario = Scenario.SE

    def __post_init__(self):
        if not (0.0 < self.gamma_bar_b < math.inf
                and 0.0 < self.gamma_bar_e < math.inf):
            raise DomainError("average SNRs must be positive and finite")
        k = self.k_eves
        if isinstance(k, bool) or not isinstance(k, (int, np.integer)) or k < 1:
            raise DomainError("need a whole number of eavesdroppers, at least one")
        if self.scenario == Scenario.SE and self.k_eves != 1:
            raise DomainError("single-eavesdropper scenario requires k_eves = 1")


@dataclass(frozen=True)
class MoschopoulosSeries:
    """Gamma-mixture representation of Bob's SNR density.

    The density of sum_l sigma_l E_l is written as
    sum_q w_q Gamma(dof + q, scale = gamma_b * sigma_min) with mixture
    weights w_q = prefix * psi_q, prefix = sigma_min^dof / prod(sigma_l)
    (kept as its log).  `residual` is the truncated tail mass 1 - sum w_q.

    Bob's laws are sums over the Poisson index k (see `_poisson_mix`); the
    tables they read are made once here: `cum_weights[q]` = w_0 + ... + w_q
    (C_k at k = dof + q), `tail_weights[k]` = sum of w_q over dof + q > k
    (W_k for k < n_top = dof + q_max) and `log_factorials[k]` = log k!, for
    k up to n_top and as far past it as the CDF's Poisson tail reaches.
    """

    sigmas: np.ndarray
    dof: int
    sigma_min: float
    psis: np.ndarray
    log_psis: np.ndarray
    q_max: int
    log_weight_prefix: float
    residual: float
    weights: np.ndarray = field(init=False)
    log_factorials: np.ndarray = field(init=False)
    cum_weights: np.ndarray = field(init=False)
    tail_weights: np.ndarray = field(init=False)

    def __post_init__(self):  # dataclasses.replace makes them again
        put = object.__setattr__
        w = np.exp(self.log_weights)
        tail = np.cumsum(w[::-1])[::-1]
        put(self, "weights", w)
        n = self.dof + self.q_max + 1
        put(self, "log_factorials", log_factorials(n + poisson_series_terms(n)))
        put(self, "cum_weights", np.cumsum(w))
        put(self, "tail_weights",
            np.concatenate([np.full(self.dof - 1, tail[0]), tail]))

    @property
    def log_weights(self) -> np.ndarray:
        return self.log_weight_prefix + self.log_psis

    @property
    def shapes(self) -> np.ndarray:
        """Gamma shapes dof + q for q = 0..q_max."""
        return self.dof + np.arange(self.q_max + 1)


def build_psi(spec, q_max: int = 160, *, series_tol: float = 1e-8,
              q_cap: int = 2000) -> MoschopoulosSeries:
    """Moschopoulos coefficients for the first-dof eigenvalue set.

    psi_q = sum_{k=1}^{q} [sum_l (1 - sigma_min/sigma_l)^k] psi_{q-k} / q,
    psi_0 = 1.  q_max grows adaptively (doubling, up to q_cap) until the
    mixture-weight tail 1 - prefix * sum(psi) drops below series_tol;
    a tail still above it at q_cap raises ComputationError.  A flat
    spectrum (every sigma equal) has psi_q = 0 for q >= 1 and stops at
    q_max = 0.

    Accepts a SpectralDecomposition or a raw eigenvalue array (synthetic
    spectra are used by the verification suite).
    """
    if isinstance(spec, SpectralDecomposition):
        sigmas = np.asarray(spec.sigmas[:spec.dof], dtype=float)
    else:
        sigmas = np.asarray(spec, dtype=float)
        if sigmas.ndim != 1 or sigmas.size == 0:
            raise DomainError("expected a 1-d array of eigenvalues")
    sigmas = np.sort(sigmas)[::-1]
    if q_max < 1:
        raise DomainError("q_max must be >= 1")
    if np.any(sigmas <= 0.0):
        raise DomainError("eigenvalues must be positive")
    dof = len(sigmas)
    sigma_min = float(sigmas[-1])
    ratios = 1.0 - sigma_min / sigmas  # in [0, 1)
    log_prefix = float(dof * math.log(sigma_min) - np.sum(np.log(sigmas)))
    prefix = math.exp(log_prefix)

    psis = np.ones(1)
    q = q_max if ratios.any() else 0  # a flat spectrum is one gamma shape
    while True:
        # b[k-1] = sum_l ratios^k: row k of the product is each power by
        # repeated multiplication, and its sum numpy's sum of that row alone
        b = np.cumprod(np.broadcast_to(ratios, (q, dof)), axis=0).sum(axis=1)
        n0 = len(psis)
        psis = np.append(psis, np.empty(q + 1 - n0))
        for n in range(n0, q + 1):
            # sum_k b[k-1] psi[n-k] for k = 1..n as a left fold, in this
            # order: the series' bits depend on it, and accumulate (unlike
            # sum's pairwise reduction) adds one term at a time
            psis[n] = np.add.accumulate(b[:n] * psis[n - 1::-1])[-1] / n
        residual = 1.0 - prefix * math.fsum(psis)
        if residual <= series_tol or q >= q_cap:
            break
        q = min(max(2 * q, q_max), q_cap)
    if not residual <= series_tol:
        raise ComputationError(f"mixture tail {residual:.3g} > series_tol "
                               f"{series_tol:g} at q = {q}")

    # a nearly flat spectrum can underflow psi_q to 0: log weight -inf
    log_psis = np.log(psis, out=np.full_like(psis, -np.inf), where=psis > 0.0)
    return MoschopoulosSeries(
        sigmas=sigmas, dof=dof, sigma_min=sigma_min, psis=psis,
        log_psis=log_psis, q_max=q, log_weight_prefix=log_prefix,
        residual=residual)


# ---------------------------------------------------------------------------
# Bob's SNR (gamma mixture)
# ---------------------------------------------------------------------------

def _shaped(out, x):
    # out (flat) in x's shape, a float for a float or 0-d x
    return out.item() if x.ndim == 0 else out.reshape(x.shape)


def _theta(lb, ms: MoschopoulosSeries):
    """gamma_b sigma_min.  Bob's laws read only gamma_b of `lb`: a
    LinkBudget, or an array of Bob's average SNRs, one per point of x, for
    a batch of link budgets; either way each point's theta is the same
    double."""
    if isinstance(lb, LinkBudget):
        return lb.gamma_bar_b * ms.sigma_min
    return np.asarray(lb, dtype=float).ravel() * ms.sigma_min


def _poisson_mix(x, lb, ms: MoschopoulosSeries, k0: int, table,
                 top: float = 0.0):
    """`poisson_mix` at z = max(x, 0) / (gamma_b sigma_min), flat."""
    z = np.maximum(x.ravel(), 0.0) / _theta(lb, ms)
    return poisson_mix(z, table, k0, top, ms.log_factorials)


def bob_pdf(x, lb, ms: MoschopoulosSeries):
    """Mixture density sum_q w_q Gamma(dof+q, theta) at x, 0 below 0:
    sum_k p_k(x/theta) w_(k-dof+1) / theta."""
    theta = _theta(lb, ms)
    x = np.asarray(x, dtype=float)
    return _shaped((x.ravel() >= 0.0)
                   * _poisson_mix(x, lb, ms, ms.dof - 1, ms.weights) / theta, x)


def bob_cdf(x, lb, ms: MoschopoulosSeries):
    """Mixture CDF sum_q w_q P(dof+q, x/theta) = sum_k p_k(x/theta) C_k,
    since P(n, z) = sum_(k >= n) p_k(z) (DLMF 8.4); at most 1, and 1 at
    x = inf."""
    x = np.asarray(x, dtype=float)
    # the weight sums round a few ulps off 1; NaN stays NaN
    out = np.minimum(_poisson_mix(x, lb, ms, ms.dof, ms.cum_weights,
                                  float(ms.cum_weights[-1])), 1.0)
    out[x.ravel() == math.inf] = 1.0
    return _shaped(out, x)


def bob_survival(x, lb, ms: MoschopoulosSeries):
    """P(rho_b > x) = sum_q w_q Q(dof+q, x/theta) = sum_k p_k(x/theta) W_k;
    accurate in the far tail, at most 1, and 1 at x <= 0."""
    x = np.asarray(x, dtype=float)
    out = np.minimum(_poisson_mix(x, lb, ms, 0, ms.tail_weights), 1.0)
    out[x.ravel() <= 0.0] = 1.0
    return _shaped(out, x)


# ---------------------------------------------------------------------------
# Eve's SNR
# ---------------------------------------------------------------------------

def eve_pdf(x, lb: LinkBudget):
    """Eve's SNR density; 0 below 0 and at +inf, NaN at NaN."""
    mu, k = lb.gamma_bar_e, lb.k_eves
    x = np.asarray(x, dtype=float)
    xv = x.ravel()
    out = np.where(np.isnan(xv), math.nan, 0.0)
    m = (xv >= 0.0) & (xv < math.inf)
    z = xv[m] / mu
    if lb.scenario == Scenario.MCE:  # gamma with shape K, scale mu
        out[m] = np.exp(xlogy(k - 1, z) - z - math.lgamma(k)) / mu
    else:  # max of K exponentials; SE is K = 1
        out[m] = k * np.power(-np.expm1(-z), k - 1) * np.exp(-z) / mu
    return _shaped(out, x)


def eve_cdf(x, lb: LinkBudget):
    """Eve's SNR CDF; NaN at NaN."""
    mu, k = lb.gamma_bar_e, lb.k_eves
    x = np.asarray(x, dtype=float)
    z = np.clip(x.ravel(), 0.0, None) / mu
    if lb.scenario == Scenario.MCE:
        return _shaped(poisson_tail(k, z), x)
    return _shaped(np.power(-np.expm1(-z), k), x)  # SE is K = 1


# ---------------------------------------------------------------------------
# exact samplers
# ---------------------------------------------------------------------------

_DRAW_BLOCK = 1 << 16  # exponentials per row block of `sample_bob`
# sigmas within this relative distance of sigma_max form Landau's plateau
_PLATEAU_RTOL = 1e-12


def bob_plateau(sigmas: np.ndarray) -> int:
    """How many of the descending `sigmas` lie within _PLATEAU_RTOL of the
    largest: the plateau at lambda/2 (Landau & Widom 1980)."""
    return int(np.count_nonzero(sigmas >= sigmas[0] * (1.0 - _PLATEAU_RTOL)))


def sample_bob(ms: MoschopoulosSeries, lb: LinkBudget,
               rng: np.random.Generator, size: int) -> np.ndarray:
    """Draw gamma_b * sum_l sigma_l |Phi_l|^2 with |Phi_l|^2 ~ Exp(1) over
    the series' first-dof eigenvalues.

    The m >= 2 plateau eigenvalues (`bob_plateau`) are drawn together as
    their mean times one Gamma(m) variate, which moves each draw by at most
    _PLATEAU_RTOL relative; the rest as (size, dof - m) exponentials, after
    the gamma draws.  Those are drawn in row blocks of at most _DRAW_BLOCK
    values, in the generator's row-major order: the same draws and sums as
    one matrix, in bounded memory.  With m = 1 every eigenvalue is drawn as
    an exponential.
    """
    sigmas = ms.sigmas
    m = bob_plateau(sigmas)
    out = np.zeros(size)
    if m >= 2:  # a sum of m unit exponentials is one Gamma(m) draw
        rng.standard_gamma(m, out=out)
        out *= np.mean(sigmas[:m])
        sigmas = sigmas[m:]
    rows = max(1, _DRAW_BLOCK // max(sigmas.size, 1))
    for lo in range(0, size, rows):
        e = rng.standard_exponential((min(rows, size - lo), sigmas.size))
        out[lo:lo + rows] += e @ sigmas
    out *= lb.gamma_bar_b
    return out


def sample_eve(lb: LinkBudget, rng: np.random.Generator,
               size: int) -> np.ndarray:
    """Draw Eve's instantaneous SNR for the configured scenario."""
    mu, k = lb.gamma_bar_e, lb.k_eves
    if lb.scenario == Scenario.MCE:
        return mu * rng.standard_gamma(k, size)
    e = rng.standard_exponential(size)  # SE (K = 1) is mu * E
    # the max of K exponentials by inverse CDF, -mu log(1 - U^(1/K)), U = e^-E
    return mu * e if k == 1 else -mu * np.log(-np.expm1(-e / k))
