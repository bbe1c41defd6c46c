"""Special functions for the secrecy analytics.

The exponential integral E1 (scaled and logarithmic), log-domain
combinatorics, harmonic numbers and the Poisson tails that are every
integer-shape incomplete gamma the laws need.  All functions here are pure;
the E1 and combinatorial ones operate on plain floats, the Poisson ones on
numpy arrays.  A signed log-domain value type (`SignedLog`) is provided for
summations whose terms overflow or cancel.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

EULER_GAMMA = 0.5772156649015328606


class DomainError(ValueError):
    """Argument outside the supported domain."""


@dataclass(frozen=True)
class EvalPrecision:
    """Evaluation-precision request for the closed-form analytics.

    ``extended`` switches the closed-form rate from its alternating sums,
    which cancel catastrophically at large spatial DoF, to the integral of
    the secure probability, a sum of nonnegative terms.
    """

    mode: str = "standard-float"

    def __post_init__(self):
        if self.mode not in ("standard-float", "extended"):
            raise DomainError(f"unknown precision mode {self.mode!r}")


STANDARD = EvalPrecision()
EXTENDED = EvalPrecision(mode="extended")


# ---------------------------------------------------------------------------
# exponential integral
# ---------------------------------------------------------------------------

_E1_EPS = 2e-17  # relative truncation target of both E1 expansions


def _e1_power_series(x: float) -> float:
    """E1 for small arguments: -gamma - ln x + sum (-1)^(k-1) x^k / (k k!)."""
    total = -EULER_GAMMA - math.log(x)
    term = 1.0
    k = 0
    while True:
        k += 1
        term = term * x / k
        contrib = term / k
        if k % 2:
            total += contrib
        else:
            total -= contrib
        if abs(contrib) < _E1_EPS * abs(total) or k > 10_000:
            return total


def _e1_cf_scaled(x: float) -> float:
    """e^x E1(x) via the continued fraction (modified Lentz), x >= 1.

    The scaled value is formed directly, never through e^x.
    """
    tiny = 1e-300
    b = x + 1
    c = 1 / tiny
    d = 1 / b
    h = d
    for i in range(1, 100_000):
        a = -i * i
        b = b + 2
        d = a * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + a / c
        if abs(c) < tiny:
            c = tiny
        d = 1 / d
        delta = d * c
        h = h * delta
        if abs(delta - 1) < _E1_EPS:
            return h
    raise ArithmeticError("continued fraction for E1 failed to converge")


def scaled_e1(x: float) -> float:
    """e^x E1(x) without forming e^x, accurate for x in [1e-12, 1e6]."""
    if x <= 0.0:
        raise DomainError("scaled E1 requires x > 0")
    if x < 1.0:
        return math.exp(x) * _e1_power_series(float(x))
    return _e1_cf_scaled(float(x))


def exp_e1_log(x: float) -> float:
    """ln E1(x), finite for the whole supported range."""
    return -x + math.log(scaled_e1(x))


def log_binomial(n: int, k: int) -> float:
    """ln C(n, k); exact integer path for n <= 60."""
    if k < 0 or k > n:
        raise DomainError("require 0 <= k <= n")
    if n <= 60:
        return math.log(math.comb(n, k))
    return math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)


def harmonic_number(n: int) -> float:
    """H_n = sum_{s=1}^{n} 1/s (H_0 = 0)."""
    return math.fsum(1.0 / s for s in range(1, n + 1))


# ---------------------------------------------------------------------------
# Poisson tails: the regularised incomplete gamma at integer shapes
# ---------------------------------------------------------------------------

def xlogy(x, y):
    """x ln y elementwise, 0 where x = 0 and y is not NaN (0 ln 0 = 0)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.multiply(x, np.log(y))
    if np.ndim(x) == 0 and x != 0:
        return out
    nan = np.isnan(out)  # 0 ln 0 and 0 ln inf among them
    if nan.any():
        out = np.where(nan & np.equal(x, 0.0) & ~np.isnan(y), 0.0, out)
    return out


def log_factorials(n: int) -> np.ndarray:
    """ln k! for k = 0..n-1."""
    return np.array([math.lgamma(k + 1.0) for k in range(n)])


@functools.lru_cache(maxsize=256)
def poisson_series_terms(n: int) -> int:
    """How many pmf terms from p_n(z) on reach one below e^-40 of p_n for
    every z <= n: one more than the least j with
    ln(p_(n+j) / p_n) = j ln z - ln((n+j)!/n!) at most -40 at z = n, where
    the terms fall slowest.  Past it each term is at most n/(n+j+1) times
    the one before, so the terms left add under 1e-16 of the sum for n up
    to 10^4."""
    def log_ratio(j):
        return j * math.log(n) - math.lgamma(n + j + 1.0) + math.lgamma(n + 1.0)

    hi = 1
    while log_ratio(hi) > -40.0:
        hi *= 2
    lo = hi // 2
    while lo < hi:  # log_ratio falls with j, since n < n + j + 1
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if log_ratio(mid) <= -40.0 else (mid + 1, hi)
    return lo + 1


_BLOCK = 1 << 14  # pmf terms per block of `poisson_mix`: 128 KiB
_LOG_NORMAL = -708.39  # ln of a little more than the smallest normal double


def poisson_mix(z, table, k0: int, top: float, log_fact) -> np.ndarray:
    """sum_k p_k(z) T_k for each z >= 0 of a flat array, with p_k the
    Poisson(z) pmf and T_k = 0 below k0, table[k - k0] for k0 <= k < n,
    n = k0 + len(table), and top from n on.  log_fact[k] = ln k! must reach
    n - 1, and n - 1 + poisson_series_terms(n) when top is set.  NaN gives
    NaN.

    Every term is nonnegative, so nothing cancels.  The log pmf is
    k ln z - z - ln k!, with ln 0 taken as -1e300 (so k ln z is 0 at k = 0
    and p_k(0) is 0 above), and each point's terms are the same whatever
    else is in the array.  A term below the smallest normal double counts
    as 0, without a call to exp (whose underflow path is about a hundred
    times slower), and a point whose terms are all below it is not summed.
    Each distinct z is summed once and its value given to every place it
    holds in the array.  The part past the table is top P(n, z),
    P(n, z) = P(Pois(z) >= n) (DLMF 8.4), and comes from the same pmf: below
    n the terms k = n, n + 1, ... go on as far as `poisson_series_terms`
    asks; from n on, where P(n, z) is at least about 1/2, it is
    1 - sum_(k<n) p_k.  The part of that sum below k0 is at most
    p_k0 k0 / (z - k0), and is added through `poisson_tail` where that bound
    is not below 1e-17.  The sum runs in blocks of at most _BLOCK terms
    (of one row where a row is longer), and each row's sums are numpy's own
    loops over that row alone, so a row's value is the same double whatever
    else is in the array and however it is blocked.
    """
    z, inverse = np.unique(z, return_inverse=True)  # one NaN for every NaN
    n = k0 + len(table)
    at_inf = z == math.inf  # p_k(inf) = 0: keep inf - inf out of the sum
    zf = np.where(at_inf, 0.0, z)
    with np.errstate(divide="ignore"):
        log_z = np.maximum(np.log(zf), -1e300)
    up = z < n
    m = n + poisson_series_terms(n) if top and up.any() else n
    ks = np.arange(k0, m, dtype=float)
    # a point whose largest term (at k = z, kept within the range) is below
    # the smallest normal double adds nothing: it is left out
    k_peak = np.fmin(np.fmax(np.floor(zf), k0), m - 1)  # k0 at NaN
    peak = k_peak * log_z - zf - log_fact[k_peak.astype(int)]
    live = np.flatnonzero(~(peak < _LOG_NORMAL))
    sums = np.zeros((len(z), 3))
    p_k0 = np.zeros_like(z)
    log_fact = log_fact[k0:m]
    step = max(1, _BLOCK // (m - k0))
    for i in range(0, len(live), step):
        rows = live[i:i + step]
        a = np.multiply.outer(log_z[rows], ks)
        a -= zf[rows, None]
        a -= log_fact
        a[a < _LOG_NORMAL] = -math.inf  # exp gives 0 there at once; NaN stays
        np.exp(a, out=a)
        p_k0[rows] = a[:, 0]
        # the table, sum_(k0 <= k < n) p_k and sum_(k >= n) p_k as far as
        # it goes
        sums[rows, 0] = np.einsum("ij,j->i", a[:, :n - k0], table)
        sums[rows, 1] = a[:, :n - k0].sum(axis=1)
        sums[rows, 2] = a[:, n - k0:].sum(axis=1)
    out = sums[:, 0]
    out[at_inf] = 0.0
    if top:
        tail = np.where(up, sums[:, 2], 1.0 - sums[:, 1])
        tail[at_inf] = 1.0
        below = np.flatnonzero(~up & (p_k0 * k0 > 1e-17 * (z - k0)))
        if below.size:  # P(n, z) = P(k0, z) - sum_(k0 <= k < n) p_k
            tail[below] = poisson_tail(k0, z[below]) - sums[below, 1]
        out += top * tail
    return out[inverse]


def poisson_tail(n: int, z):
    """P(n, z) = P(Pois(z) >= n) = sum_(k >= n) p_k(z), the regularised lower
    incomplete gamma at an integer shape n >= 1 (DLMF 8.4), for z >= 0:
    `poisson_mix` with T_k = 0 below n and 1 from n on.  0 at z = 0, 1 at
    z = inf, NaN at NaN; a float or 0-d z gives a 0-d array.
    """
    z = np.asarray(z, dtype=float)
    lf = log_factorials(n + poisson_series_terms(n))
    return poisson_mix(z.reshape(-1), np.zeros(n), 0, 1.0, lf).reshape(z.shape)


# ---------------------------------------------------------------------------
# signed log-domain values
# ---------------------------------------------------------------------------

class SignedLog:
    """A real number stored as (sign, ln|value|) with a running mass bound.

    `mass` tracks ln(sum of |contributions|) through + and *, giving a cheap
    conditioning estimate: rel. rounding error ~ eps * exp(mass - mag).  It
    is an estimate, not a bound: a product rounds ln|x|, so it carries a
    relative error of about eps * |ln x| on top.  For the collaborative
    closed-form rate at dof 6, K = 8, 20/20 dB the float value is 3.0e-7
    off the 30-digit rate while the estimate says 6.6e-8.
    Used by the closed-form evaluators whose alternating binomial sums both
    overflow and cancel.
    """

    __slots__ = ("sign", "mag", "mass")

    def __init__(self, sign: int, mag: float, mass: float | None = None):
        if sign == 0 or mag == -math.inf:
            sign, mag = 0, -math.inf
        self.sign = sign
        self.mag = mag
        self.mass = mag if mass is None else mass

    @classmethod
    def from_float(cls, x: float) -> "SignedLog":
        if x == 0.0:
            return cls(0, -math.inf)
        return cls(1 if x > 0 else -1, math.log(abs(x)))

    @classmethod
    def from_log(cls, sign: int, mag: float) -> "SignedLog":
        return cls(sign, mag)

    def __neg__(self):
        return _filled(-self.sign, self.mag, self.mass)

    def __add__(self, other):
        if not isinstance(other, SignedLog):
            if other == 0:
                return self
            other = SignedLog.from_float(float(other))
        a, b = self.mass, other.mass  # mass = ln(e^a + e^b)
        if a == -math.inf:
            mass = b
        elif b == -math.inf:
            mass = a
        elif a >= b:
            mass = a + math.log1p(math.exp(b - a))
        else:
            mass = b + math.log1p(math.exp(a - b))
        if self.sign == 0:
            return _filled(other.sign, other.mag, mass)
        if other.sign == 0:
            return _filled(self.sign, self.mag, mass)
        hi, lo = (self, other) if self.mag >= other.mag else (other, self)
        d = lo.mag - hi.mag
        if self.sign == other.sign:
            return _filled(hi.sign, hi.mag + math.log1p(math.exp(d)), mass)
        r = math.exp(d)
        if r == 1.0:
            return _filled(0, -math.inf, mass)
        return _filled(hi.sign, hi.mag + math.log1p(-r), mass)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, SignedLog):
            other = SignedLog.from_float(float(other))
        sign, mag = self.sign * other.sign, self.mag + other.mag
        if sign == 0 or mag == -math.inf:
            sign, mag = 0, -math.inf
        return _filled(sign, mag, self.mass + other.mass)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, SignedLog):
            other = SignedLog.from_float(float(other))
        if other.sign == 0:
            raise ZeroDivisionError("SignedLog division by zero")
        sign, mag = self.sign * other.sign, self.mag - other.mag
        if sign == 0 or mag == -math.inf:
            sign, mag = 0, -math.inf
        return _filled(sign, mag, self.mass - other.mag)

    def to_float(self) -> float:
        if self.sign == 0:
            return 0.0
        if self.mag > 709.0:
            return math.copysign(math.inf, self.sign)
        return self.sign * math.exp(self.mag)

    def log_condition(self) -> float:
        """ln(sum|terms| / |result|); large values mean cancellation."""
        if self.sign == 0:
            return math.inf
        return self.mass - self.mag

    def __repr__(self):
        return f"SignedLog(sign={self.sign}, mag={self.mag:.6g}, mass={self.mass:.6g})"


def _filled(sign: int, mag: float, mass: float) -> SignedLog:
    """A SignedLog from slots already in normal form (zero is sign 0, mag -inf)."""
    out = object.__new__(SignedLog)
    out.sign = sign
    out.mag = mag
    out.mass = mass
    return out


def signed_log_dot(xs, ys) -> SignedLog:
    """sum((x * y for x, y in zip(xs, ys)), zero) over SignedLogs, bit for bit.

    The same left fold of `*` then `+`, with the same formulas in the same
    order, carried in three local floats instead of a new SignedLog per step.
    """
    inf, exp, log1p = math.inf, math.exp, math.log1p
    sign, mag, mass = 0, -inf, -inf
    for x, y in zip(xs, ys):
        ps, pm, pmass = x.sign * y.sign, x.mag + y.mag, x.mass + y.mass
        if mass == -inf:
            mass = pmass
        elif pmass != -inf:
            if mass >= pmass:
                mass = mass + log1p(exp(pmass - mass))
            else:
                mass = pmass + log1p(exp(mass - pmass))
        if ps == 0 or pm == -inf:  # a zero product leaves sign and mag
            continue
        if sign == 0:
            sign, mag = ps, pm
            continue
        if mag >= pm:
            hs, hm, d = sign, mag, pm - mag
        else:
            hs, hm, d = ps, pm, mag - pm
        if sign == ps:
            sign, mag = hs, hm + log1p(exp(d))
            continue
        r = exp(d)
        if r == 1.0:
            sign, mag = 0, -inf
        else:
            sign, mag = hs, hm + log1p(-r)
    return _filled(sign, mag, mass)
