"""Monte Carlo oracle and the half-wavelength discrete-array baseline.

Each SNR law is drawn once at unit average SNR, in fixed-size blocks with
seeds derived from one root seed: Bob's from the eigen-expansion of the
aperture kernel, the discrete array's as Gamma(n_el), and Eve's per
scenario and eavesdropper count.  Every point scales these shared read-only
draws by its own average SNRs (common random numbers), so estimates are
bit-exact reproducible and independent of scheduling.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .snr_models import (LinkBudget, MoschopoulosSeries, Scenario,
                         check_target_rate, sample_bob, sample_eve)
from .spectral import ApertureGeometry
from .specfun import DomainError

_BLOCK = 1 << 17  # draws per seeded block; fixes every stream
# trials per pass of the loop: fixed, so its sums are deterministic, and
# small enough that its four buffers stay in cache and in the process heap;
# at 2^17 every call faulted them in afresh (359 page faults, twice the time
# at 5e4 trials)
_LOOP_BLOCK = 1 << 14
MIN_TRIALS = 10_000  # mc_secrecy's floor


@dataclass(frozen=True)
class McEstimate:
    mean: float
    std_err: float
    n_trials: int


def _blocks(seed: int, n_trials: int):
    for b, lo in enumerate(range(0, n_trials, _BLOCK)):
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(b,)))
        yield rng, lo, min(_BLOCK, n_trials - lo)


def _unit_draws(draw, n_trials: int, seed: int) -> np.ndarray:
    """Read-only `draw(rng, n)` values of every block of `seed`'s stream."""
    out = np.empty(n_trials)
    for rng, lo, n in _blocks(seed, n_trials):
        out[lo:lo + n] = draw(rng, n)
    out.flags.writeable = False
    return out


def unit_bob_draws(ms: MoschopoulosSeries, n_trials: int,
                   seed: int) -> np.ndarray:
    """Bob's SNRs at gamma_b = 1, shared by an aperture's points."""
    lb = LinkBudget(1.0, 1.0)
    return _unit_draws(lambda rng, n: sample_bob(ms, lb, rng, size=n),
                       n_trials, seed)


def unit_eve_draws(scenario: Scenario, k_eves: int, n_trials: int,
                   seed: int) -> np.ndarray:
    """Eve's SNRs at gamma_e = 1, shared by every point of the scenario and
    eavesdropper count: each Eve law is a scale family, so gamma_e times
    these is the draw at gamma_e bit for bit."""
    lb = LinkBudget(1.0, 1.0, k_eves, scenario)
    return _unit_draws(lambda rng, n: sample_eve(lb, rng, size=n),
                       n_trials, seed)


def _estimate(mean: float, m2: float, n: int) -> McEstimate:
    if n < 2:  # no sample variance: the error is unknown, not 0
        return McEstimate(mean, math.inf, n)
    return McEstimate(mean, math.sqrt(max(m2, 0.0) / (n - 1) / n), n)


def _secrecy_loop(bob: np.ndarray, bob_scale: float, eve: np.ndarray,
                  eve_scale: float, r0: float,
                  n_trials: int) -> tuple[McEstimate, McEstimate]:
    """Blocked rate/outage estimates of the SNRs bob_scale * bob and
    eve_scale * eve; draws nothing, and reuses one set of block buffers.

    The outage is a count c of trials: mean c/n, m2 = c (n - c)/n.  The
    rate's mean is its plain sum over n, and its m2 comes from the sum of
    squares about the first pass's mean, which stays exact when the mean
    is far larger than the spread."""
    check_target_rate(r0)
    if not len(bob) == len(eve) == n_trials:
        raise DomainError("need one Bob and one Eve draw per trial")
    size = min(_LOOP_BLOCK, n_trials)
    rate_buf, eve_buf = np.empty(size), np.empty(size)
    out_buf = np.empty(size, dtype=bool)
    count, total, shift, squares = 0, 0.0, 0.0, 0.0
    for lo in range(0, n_trials, _LOOP_BLOCK):
        n = min(_LOOP_BLOCK, n_trials - lo)
        rate, one_e = rate_buf[:n], eve_buf[:n]
        np.multiply(bob[lo:lo + n], bob_scale, out=rate)  # rho_b
        np.multiply(eve[lo:lo + n], eve_scale, out=one_e)
        one_e += 1.0
        # C_s = log2(1 + rho_b) - log2(1 + rho_e); outage: C_s < r0
        rate += 1.0
        np.log2(rate, out=rate)
        rate -= np.log2(one_e, out=one_e)
        count += int(np.count_nonzero(np.less(rate, r0, out=out_buf[:n])))
        np.maximum(rate, 0.0, out=rate)  # the rate: max(C_s, 0)
        total += float(np.sum(rate))
        if lo == 0:
            shift = total / n
        rate -= shift
        # numpy's own loop: OpenBLAS's dot sums in an order that depends on
        # its thread count
        squares += float(np.einsum("i,i->", rate, rate))
    mean = total / n_trials
    rate_m2 = squares - n_trials * (mean - shift) ** 2
    return (_estimate(mean, rate_m2, n_trials),
            _estimate(count / n_trials, count * (n_trials - count) / n_trials,
                      n_trials))


def mc_secrecy(lb: LinkBudget, bob: np.ndarray, eve: np.ndarray, r0: float,
               n_trials: int) -> tuple[McEstimate, McEstimate]:
    """Empirical secrecy rate and outage probability of the `unit_bob_draws`
    in `bob` scaled by gamma_b and the `unit_eve_draws` of lb's scenario and
    K in `eve` scaled by gamma_e."""
    if n_trials < MIN_TRIALS:
        raise DomainError(f"need at least {MIN_TRIALS} trials")
    return _secrecy_loop(bob, lb.gamma_bar_b, eve, lb.gamma_bar_e, r0,
                         n_trials)


# ---------------------------------------------------------------------------
# spatially-discrete half-wavelength baseline
# ---------------------------------------------------------------------------

SPDA_ELEMENT_APERTURE_RATIO = 2.0 / (5.0 * math.sqrt(4.0 * math.pi))
"""Element length lambda/(5 sqrt(4 pi)) over the lambda/2 spacing, ~0.11284."""


def spda_elements(geom: ApertureGeometry) -> int:
    """floor(2L/lambda) elements, floored with geom.dof's tolerance; fewer
    than 2 raise DomainError."""
    ratio = 2.0 * geom.aperture_len_m / geom.wavelength_m
    n_el = math.floor(ratio + 1e-9 * max(1.0, ratio))
    if n_el < 2:
        raise DomainError("need at least 2 array elements (aperture too short)")
    return n_el


def unit_spda_draws(geom: ApertureGeometry, n_trials: int,
                    seed: int) -> np.ndarray:
    """The array's Bob SNRs at unit per-element power, shared by an
    aperture's points: a sum of n_el unit exponentials is one Gamma(n_el)
    draw."""
    n_el = spda_elements(geom)
    return _unit_draws(lambda rng, n: rng.standard_gamma(n_el, n),
                       n_trials, seed)


def spda_baseline(lb: LinkBudget, geom: ApertureGeometry, bob: np.ndarray,
                  eve: np.ndarray, r0: float,
                  n_trials: int) -> tuple[McEstimate, McEstimate]:
    """Monte Carlo secrecy rate/SOP of a half-wavelength discrete array.

    `spda_elements(geom)` elements with i.i.d. unit Rayleigh entries (the
    sinc correlation vanishes at half-wavelength spacing); the per-element
    power is the continuous per-mode level lambda/2 scaled by the
    element-aperture ratio, and Eve's average SNR scales by the same ratio.
    The per-element gain normalization is a documented modeling assumption;
    the comparison targets are qualitative (continuous aperture dominates).
    `bob` holds the geometry's `unit_spda_draws` and `eve` the
    `unit_eve_draws` of lb's scenario and K."""
    a_el = SPDA_ELEMENT_APERTURE_RATIO
    return _secrecy_loop(bob, lb.gamma_bar_b * 0.5 * geom.wavelength_m * a_el,
                         eve, lb.gamma_bar_e * a_el, r0, n_trials)
