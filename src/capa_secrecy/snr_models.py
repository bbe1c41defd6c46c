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
from scipy import special as sps

from .specfun import DomainError
from .spectral import ComputationError, SpectralDecomposition


class Scenario(str, enum.Enum):
    SE = "SE"    # single eavesdropper
    MIE = "MIE"  # multiple independent eavesdroppers (best SNR wins)
    MCE = "MCE"  # multiple collaborative eavesdroppers (MRC combining)


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
        if self.k_eves < 1:
            raise DomainError("need at least one eavesdropper")
        if self.scenario == Scenario.SE and self.k_eves != 1:
            raise DomainError("single-eavesdropper scenario requires k_eves = 1")


@dataclass(frozen=True)
class MoschopoulosSeries:
    """Gamma-mixture representation of Bob's SNR density.

    The density of sum_l sigma_l E_l is written as
    sum_q w_q Gamma(dof + q, scale = gamma_b * sigma_min) with mixture
    weights w_q = weight_prefix * psi_q, weight_prefix = sigma_min^dof /
    prod(sigma_l).  `residual` is the truncated tail mass 1 - sum w_q.
    """

    sigmas: np.ndarray
    dof: int
    sigma_min: float
    psis: np.ndarray
    log_psis: np.ndarray
    q_max: int
    weight_prefix: float
    log_weight_prefix: float
    residual: float
    series_tol: float
    log_sigmas: np.ndarray = field(repr=False, default=None)

    @property
    def log_weights(self) -> np.ndarray:
        return self.log_weight_prefix + self.log_psis

    @property
    def weights(self) -> np.ndarray:
        return np.exp(self.log_weights)

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
    a tail still above it at q_cap raises ComputationError.

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

    psis = [1.0]
    powers = np.ones_like(ratios)
    b = []  # b[k-1] = sum_l ratios^k

    def extend_to(q_target):
        nonlocal powers
        while len(b) < q_target:
            powers *= ratios
            b.append(float(np.sum(powers)))
        while len(psis) <= q_target:
            q = len(psis)
            acc = 0.0
            for k in range(1, q + 1):
                acc += b[k - 1] * psis[q - k]
            psis.append(acc / q)

    q = q_max
    while True:
        extend_to(q)
        residual = 1.0 - prefix * math.fsum(psis)
        if residual <= series_tol or q >= q_cap:
            break
        q = min(2 * q, q_cap)
    if not residual <= series_tol:
        raise ComputationError(f"mixture tail {residual:.3g} > series_tol "
                               f"{series_tol:g} at q = {q}")

    psi_arr = np.array(psis[:q + 1])
    with np.errstate(divide="ignore"):
        log_psis = np.log(psi_arr)
    return MoschopoulosSeries(
        sigmas=sigmas, dof=dof, sigma_min=sigma_min, psis=psi_arr,
        log_psis=log_psis, q_max=q, weight_prefix=prefix,
        log_weight_prefix=log_prefix, residual=residual,
        series_tol=series_tol, log_sigmas=np.log(sigmas),
    )


# ---------------------------------------------------------------------------
# Bob's SNR (gamma mixture)
# ---------------------------------------------------------------------------

def bob_pdf(x, lb: LinkBudget, ms: MoschopoulosSeries):
    """Density of Bob's instantaneous SNR (log-domain mixture sum)."""
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 0
    x = np.atleast_1d(x)
    out = np.zeros_like(x)
    theta = lb.gamma_bar_b * ms.sigma_min
    shapes = ms.shapes.astype(float)
    logw = ms.log_weights
    pos = x > 0.0
    if np.any(pos):
        xv = x[pos]
        log_terms = (
            logw[None, :]
            + (shapes[None, :] - 1.0) * np.log(xv[:, None] / theta)
            - xv[:, None] / theta
            - sps.gammaln(shapes[None, :])
            - math.log(theta)
        )
        out[pos] = np.exp(sps.logsumexp(log_terms, axis=1))
    if ms.dof == 1 and np.any(x == 0.0):
        out[x == 0.0] = ms.weights[0] / theta
    return float(out[0]) if scalar else out


def _bob_mixture(reg_gamma, x, lb: LinkBudget, ms: MoschopoulosSeries):
    """sum_q w_q reg_gamma(dof+q, x / (gamma_b sigma_min)), chunked over x."""
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 0
    x = np.atleast_1d(x)
    theta = lb.gamma_bar_b * ms.sigma_min
    z = np.clip(x, 0.0, None) / theta
    out = np.zeros_like(x)
    w = ms.weights
    shapes = ms.shapes.astype(float)
    chunk = max(1, 2_000_000 // (ms.q_max + 1))
    for i in range(0, len(x), chunk):
        zz = z[i:i + chunk, None]
        out[i:i + chunk] = reg_gamma(shapes[None, :], zz) @ w
    return float(out[0]) if scalar else out


def bob_cdf(x, lb: LinkBudget, ms: MoschopoulosSeries):
    """Mixture CDF sum_q w_q P(dof+q, x / (gamma_b sigma_min))."""
    return _bob_mixture(sps.gammainc, x, lb, ms)


def bob_survival(x, lb: LinkBudget, ms: MoschopoulosSeries):
    """P(rho_b > x) = sum_q w_q Q(dof+q, x/theta); accurate in the far tail."""
    return _bob_mixture(sps.gammaincc, x, lb, ms)


# ---------------------------------------------------------------------------
# Eve's SNR
# ---------------------------------------------------------------------------

def eve_pdf(x, lb: LinkBudget):
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 0
    x = np.atleast_1d(x)
    mu, k = lb.gamma_bar_e, lb.k_eves
    out = np.zeros_like(x)
    m = x >= 0.0
    xv = x[m]
    if lb.scenario == Scenario.MCE:  # gamma with shape K, scale mu
        with np.errstate(divide="ignore", invalid="ignore"):
            logp = ((k - 1) * np.log(xv) - xv / mu
                    - sps.gammaln(k) - k * math.log(mu))
        out[m] = np.where(xv > 0, np.exp(logp), 1.0 / mu if k == 1 else 0.0)
    else:  # max of K exponentials; SE is K = 1
        out[m] = k * (-np.expm1(-xv / mu)) ** (k - 1) * np.exp(-xv / mu) / mu
    return float(out[0]) if scalar else out


def eve_cdf(x, lb: LinkBudget):
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 0
    x = np.atleast_1d(x)
    mu, k = lb.gamma_bar_e, lb.k_eves
    xv = np.clip(x, 0.0, None)
    if lb.scenario == Scenario.MCE:
        out = sps.gammainc(k, xv / mu)
    else:  # SE is K = 1
        out = (-np.expm1(-xv / mu)) ** k
    return float(out[0]) if scalar else out


# ---------------------------------------------------------------------------
# exact samplers
# ---------------------------------------------------------------------------

def sample_bob(ms: MoschopoulosSeries, lb: LinkBudget,
               rng: np.random.Generator, size: int) -> np.ndarray:
    """Draw gamma_b * sum_l sigma_l |Phi_l|^2 with |Phi_l|^2 ~ Exp(1) over
    the series' first-dof eigenvalues."""
    e = rng.standard_exponential((size, len(ms.sigmas)))
    return lb.gamma_bar_b * (e @ ms.sigmas)


def sample_eve(lb: LinkBudget, rng: np.random.Generator,
               size: int) -> np.ndarray:
    """Draw Eve's instantaneous SNR for the configured scenario."""
    mu, k = lb.gamma_bar_e, lb.k_eves
    if lb.scenario == Scenario.MCE:
        return mu * rng.standard_gamma(k, size)
    e = rng.standard_exponential(size)  # SE (K = 1) is mu * E
    # the max of K exponentials by inverse CDF, -mu log(1 - U^(1/K)), U = e^-E
    return mu * e if k == 1 else -mu * np.log(-np.expm1(-e / k))
