"""Monte Carlo oracle and the half-wavelength discrete-array baseline.

Channel realizations are drawn from the eigen-expansion of the aperture
kernel (Bob; once per aperture) and from the per-scenario eavesdropper
laws, in fixed-size blocks with seeds derived from one root seed, so
estimates are bit-exact reproducible and independent of scheduling.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .snr_models import LinkBudget, MoschopoulosSeries, sample_bob, sample_eve
from .spectral import ApertureGeometry
from .specfun import DomainError

_BLOCK = 1 << 17  # fixed block size keeps merges deterministic
MIN_TRIALS = 10_000  # mc_secrecy's floor


@dataclass(frozen=True)
class McEstimate:
    mean: float
    std_err: float
    n_trials: int


class _Welford:
    """Streaming mean/variance with exact block merging."""

    def __init__(self):
        self.n = 0
        self.mean = 0.0
        self.m2 = 0.0

    def add(self, xs: np.ndarray):
        n_b = xs.size
        if n_b == 0:
            return
        mean_b = float(np.mean(xs))
        m2_b = float(np.sum((xs - mean_b) ** 2))
        n = self.n + n_b
        delta = mean_b - self.mean
        self.m2 += m2_b + delta * delta * self.n * n_b / n
        self.mean += delta * n_b / n
        self.n = n

    def estimate(self) -> McEstimate:
        if self.n < 2:  # no sample variance: the error is unknown, not 0
            return McEstimate(self.mean, math.inf, self.n)
        var = self.m2 / (self.n - 1)
        return McEstimate(self.mean, math.sqrt(max(var, 0.0) / self.n), self.n)


def _blocks(seed: int, n_trials: int):
    for b, lo in enumerate(range(0, n_trials, _BLOCK)):
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(b,)))
        yield rng, lo, min(_BLOCK, n_trials - lo)


def unit_bob_draws(ms: MoschopoulosSeries, n_trials: int,
                   seed: int) -> np.ndarray:
    """Read-only draws of Bob's SNR at gamma_b = 1, shared by an aperture's
    points (common random numbers); `seed` differs from every Eve stream."""
    out = np.empty(n_trials)
    for rng, lo, n in _blocks(seed, n_trials):
        out[lo:lo + n] = sample_bob(ms, LinkBudget(1.0, 1.0), rng, size=n)
    out.flags.writeable = False
    return out


def _secrecy_loop(draw_bob, draw_eve, r0: float, n_trials: int,
                  seed: int) -> tuple[McEstimate, McEstimate]:
    """Blocked rate/outage estimates; each block takes Bob's SNRs, then Eve's."""
    if r0 <= 0.0:
        raise DomainError("target secrecy rate must be positive")
    g = 2.0 ** r0
    rate_acc, sop_acc = _Welford(), _Welford()
    for rng, lo, n in _blocks(seed, n_trials):
        rho_b = draw_bob(rng, lo, n)
        rho_e = draw_eve(rng, n)
        rates = np.maximum(np.log2(1.0 + rho_b) - np.log2(1.0 + rho_e), 0.0)
        outage = (rho_b < g * (1.0 + rho_e) - 1.0).astype(float)
        rate_acc.add(rates)
        sop_acc.add(outage)
    return rate_acc.estimate(), sop_acc.estimate()


def mc_secrecy(lb: LinkBudget, bob: np.ndarray, r0: float,
               n_trials: int, seed: int) -> tuple[McEstimate, McEstimate]:
    """Empirical secrecy rate and outage probability.

    Bob's SNRs are the `unit_bob_draws` in `bob` scaled by gamma_b; Eve's
    are drawn from `seed` by the per-scenario SNR laws.
    """
    if n_trials < MIN_TRIALS or len(bob) != n_trials:
        raise DomainError(f"need at least {MIN_TRIALS} trials, one Bob draw each")
    return _secrecy_loop(lambda rng, lo, n: lb.gamma_bar_b * bob[lo:lo + n],
                         lambda rng, n: sample_eve(lb, rng, size=n),
                         r0, n_trials, seed)


# ---------------------------------------------------------------------------
# spatially-discrete half-wavelength baseline
# ---------------------------------------------------------------------------

SPDA_ELEMENT_APERTURE_RATIO = 2.0 / (5.0 * math.sqrt(4.0 * math.pi))
"""Element length lambda/(5 sqrt(4 pi)) over the lambda/2 spacing, ~0.11284."""


def spda_baseline(lb: LinkBudget, geom: ApertureGeometry, r0: float,
                  n_trials: int, seed: int) -> tuple[McEstimate, McEstimate]:
    """Monte Carlo secrecy rate/SOP of a half-wavelength discrete array.

    floor(2L/lambda) elements with i.i.d. unit Rayleigh entries (the sinc
    correlation vanishes at half-wavelength spacing); the per-element power
    is the continuous per-mode level lambda/2 scaled by the element-aperture
    ratio, and Eve's average SNR scales by the same ratio.  The per-element
    gain normalization is a documented modeling assumption; the comparison
    targets are qualitative (continuous aperture dominates).  Bob's SNR, a
    sum of n_el unit exponentials, is one Gamma(n_el) draw."""
    ratio = 2.0 * geom.aperture_len_m / geom.wavelength_m
    n_el = math.floor(ratio + 1e-9 * max(1.0, ratio))  # geom.dof's tolerance
    if n_el < 2:
        raise DomainError("need at least 2 array elements (aperture too short)")
    a_el = SPDA_ELEMENT_APERTURE_RATIO
    bob_scale = lb.gamma_bar_b * 0.5 * geom.wavelength_m * a_el
    eve_lb = LinkBudget(lb.gamma_bar_b, lb.gamma_bar_e * a_el, lb.k_eves,
                        lb.scenario)
    return _secrecy_loop(
        lambda rng, lo, n: bob_scale * rng.standard_gamma(n_el, n),
        lambda rng, n: sample_eve(eve_lb, rng, size=n), r0, n_trials, seed)
