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
from dataclasses import dataclass

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
    weights w_q = prefix * psi_q, prefix = sigma_min^dof / prod(sigma_l)
    (kept as its log).  `residual` is the truncated tail mass 1 - sum w_q.
    """

    sigmas: np.ndarray
    dof: int
    sigma_min: float
    psis: np.ndarray
    log_psis: np.ndarray
    q_max: int
    log_weight_prefix: float
    residual: float

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
    q = q_max
    while True:
        while len(psis) <= q:
            n = len(psis)
            powers *= ratios
            b.append(float(np.sum(powers)))
            acc = 0.0  # in this order: the series' bits depend on it
            for k in range(1, n + 1):
                acc += b[k - 1] * psis[n - k]
            psis.append(acc / n)
        residual = 1.0 - prefix * math.fsum(psis)
        if residual <= series_tol or q >= q_cap:
            break
        q = min(2 * q, q_cap)
    if not residual <= series_tol:
        raise ComputationError(f"mixture tail {residual:.3g} > series_tol "
                               f"{series_tol:g} at q = {q}")

    psi_arr = np.array(psis)
    # a flat spectrum leaves psi_q = 0 for q >= 1: log weight -inf
    log_psis = np.log(psi_arr, out=np.full_like(psi_arr, -np.inf),
                      where=psi_arr > 0.0)
    return MoschopoulosSeries(
        sigmas=sigmas, dof=dof, sigma_min=sigma_min, psis=psi_arr,
        log_psis=log_psis, q_max=q, log_weight_prefix=log_prefix,
        residual=residual)


# ---------------------------------------------------------------------------
# Bob's SNR (gamma mixture)
# ---------------------------------------------------------------------------

def _gamma_pdf(a, z):
    """Unit-scale Gamma(a) density at z >= 0 (1 at z = 0 for a = 1)."""
    return np.exp(sps.xlogy(a - 1.0, z) - z - sps.gammaln(a))


def bob_pdf(x, lb: LinkBudget, ms: MoschopoulosSeries):
    """Mixture density sum_q w_q Gamma(dof+q, theta) at x, 0 below 0."""
    theta = lb.gamma_bar_b * ms.sigma_min
    return (np.asarray(x) >= 0.0) * _bob_mixture(_gamma_pdf, x, lb, ms) / theta


def _bob_mixture(law, x, lb: LinkBudget, ms: MoschopoulosSeries):
    """sum_q w_q law(dof+q, x / (gamma_b sigma_min)), x clipped at 0,
    chunked over x."""
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
        out[i:i + chunk] = law(shapes[None, :], zz) @ w
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
        out[m] = _gamma_pdf(k, xv / mu) / mu
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
