"""Special functions for the secrecy analytics.

The exponential integral E1 (scaled and logarithmic), log-domain
combinatorics and harmonic numbers.  All functions here are pure and operate
on plain floats; a signed log-domain value type (`SignedLog`) is provided for
summations whose terms overflow or cancel.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

EULER_GAMMA = 0.5772156649015328606


class DomainError(ValueError):
    """Argument outside the supported domain."""


@dataclass(frozen=True)
class EvalPrecision:
    """Evaluation-precision request for the closed-form analytics.

    ``extended`` switches the evaluators to a software wide-float mode
    (mpmath, >= 50 decimal digits, i.e. more than twice the float64
    significand) for sums that cancel catastrophically at large spatial DoF.
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
# signed log-domain values
# ---------------------------------------------------------------------------

class SignedLog:
    """A real number stored as (sign, ln|value|) with a running mass bound.

    `mass` tracks ln(sum of |contributions|) through + and *, giving a cheap
    conditioning estimate: rel. rounding error ~ eps * exp(mass - mag).  It
    is an estimate, not a bound: a product rounds ln|x|, so it carries a
    relative error of about eps * |ln x| on top.  For the collaborative
    closed-form rate at dof 6, K = 8, 20/20 dB the float value is 3.0e-7
    off mpmath while the estimate says 6.6e-8.
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
