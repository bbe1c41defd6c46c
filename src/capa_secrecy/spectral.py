"""Sinc-kernel spectral decomposition of the continuous-aperture channel.

The channel autocorrelation over a linear aperture of length L is the sinc
kernel sin(k0 d)/(k0 d).  Its eigenvalues are obtained by a Gauss-Legendre
Nystrom discretization followed by a symmetric eigenvalue solve, both from
numpy alone (`leggauss` for the rule, `eigvalsh` for the solve), and follow
the Landau step profile: eigenvalues near lambda/2 on a plateau of width
2L/lambda, then a rapid drop over a ~ln(dof) wide transition.

Unless a quadrature order t is given, the rule has `nystrom_order(geom)` =
2 dof + 32 points.  The Nystrom eigenvalues have converged to the prolate
ones well before that order (by 2 dof + 16 at every aperture tested, 1.5
to 200 wavelengths); more points only add rounding, and cost grows as t^3.
"""
from __future__ import annotations

import logging
import math
import os
import tempfile
import warnings
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import legendre as leg

from .specfun import DomainError

log = logging.getLogger(__name__)

EPSILON_FLOOR = 1e-8  # decompose() keeps the first dof eigenvalues and all above it


class ComputationError(RuntimeError):
    """Numerical stage failed (eigensolve, invariant violation)."""


@dataclass(frozen=True)
class ApertureGeometry:
    """Linear aperture of length `aperture_len_m` at wavelength `wavelength_m`."""

    wavelength_m: float
    aperture_len_m: float

    def __post_init__(self):
        if not (0.0 < self.wavelength_m < math.inf
                and 0.0 < self.aperture_len_m < math.inf):
            raise DomainError("wavelength and aperture length must be positive "
                              "and finite")
        if self.aperture_len_m < 2.0 * self.wavelength_m:
            warnings.warn(
                "aperture shorter than 2 wavelengths: the step-profile "
                "approximation of the eigenvalue spectrum degrades",
                stacklevel=2,
            )

    @property
    def wavenumber(self) -> float:
        return 2.0 * math.pi / self.wavelength_m

    @property
    def dof(self) -> int:
        """Effective spatial degrees of freedom, round(2L/lambda)."""
        ratio = 2.0 * self.aperture_len_m / self.wavelength_m
        n = round(ratio)
        if abs(ratio - n) > 1e-9 * max(1.0, ratio):
            warnings.warn(
                f"2L/lambda = {ratio:.6g} is not an integer; rounding to {n}",
                stacklevel=2,
            )
        return int(n)


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenvalues of the aperture autocorrelation kernel.

    sigmas are the kernel eigenvalues in meters (descending, unit channel
    gain); every SNR law under maximum-ratio transmission depends on the
    kernel through them alone.  `trace` sums the full computed spectrum and
    must match the aperture length (kernel diagonal is 1).
    """

    wavelength_m: float
    aperture_len_m: float
    sigmas: np.ndarray
    dof: int
    trace: float

    def __post_init__(self):
        s = self.sigmas
        if len(s) < self.dof:
            raise ComputationError(f"{len(s)} eigenvalues kept, need dof = {self.dof}")
        if np.any(np.diff(s) > 0) or np.any(s < 0):
            raise ComputationError("eigenvalues must be nonincreasing and >= 0")
        if np.any(s > 0.5 * self.wavelength_m * (1.0 + 1e-6)):
            raise ComputationError("eigenvalues must not exceed lambda/2")
        if self.trace_residual > 0.005:
            raise ComputationError(
                f"kernel trace off by {self.trace_residual:.2%} (> 0.5%)")

    @property
    def epsilons(self) -> np.ndarray:
        """Dimensionless Landau eigenvalues 2 sigma / lambda, clipped at 1."""
        return np.minimum(self.sigmas / (0.5 * self.wavelength_m), 1.0)

    @property
    def sigma_min(self) -> float:
        return float(self.sigmas[self.dof - 1])

    @property
    def trace_residual(self) -> float:
        return abs(self.trace - self.aperture_len_m) / self.aperture_len_m


def kernel_value(z, z_prime, geom: ApertureGeometry):
    """Autocorrelation sin(k0 (z-z'))/(k0 (z-z')), exactly 1 on the diagonal.

    np.sinc(k0 (z-z')/pi) bit for bit, its steps done in place on the one
    difference buffer: times pi, eps where zero, then sin(y)/y.
    """
    y = np.asarray(np.subtract(z, z_prime, dtype=float))
    y *= geom.wavenumber
    y /= math.pi  # np.sinc's argument; times pi again is not k0 d in floats
    y *= math.pi
    y[y == 0.0] = np.finfo(float).eps
    out = np.sin(y)
    out /= y
    return float(out) if out.ndim == 0 else out


def gauss_legendre_rule(t: int, geom: ApertureGeometry):
    """t-point Gauss-Legendre nodes/weights on [-L/2, L/2]: numpy's
    leggauss(t), the Golub-Welsch rule (Math. Comp. 23, 1969), scaled by
    L/2.  Each decompose() computes its own: 0.2-2.8 ms at the default
    orders (2 dof + 32, 232 at 50 wavelengths), about 0.1 s at t = 1000.
    """
    if t < 2:
        raise DomainError("need at least 2 quadrature points")
    x, w = leg.leggauss(t)
    half = 0.5 * geom.aperture_len_m
    return half * x, half * w


def nystrom_order(geom: ApertureGeometry | SpectralDecomposition) -> int:
    """The default quadrature order 2 dof + 32 of an aperture (or of its
    spectrum): even, so no centre node, and twice the margin past 2 dof at
    which the spectrum has converged."""
    return 2 * geom.dof + 32


def decompose(geom: ApertureGeometry, t: int | None = None) -> SpectralDecomposition:
    """Nystrom eigenvalues of the sinc kernel with the t-point
    `gauss_legendre_rule` (default t: `nystrom_order(geom)`).

    The quadrature-weighted kernel matrix is symmetrized as
    W^(1/2) R W^(1/2) (same spectrum as the plain Nystrom matrix, but a
    symmetric eigenproblem).  The Gauss-Legendre nodes are antisymmetric and
    the kernel is reflection invariant, so the matrix splits into an even
    and an odd block on the nonnegative nodes, each solved by its own
    eigenvalue solve (Slepian-Pollak parity).  An odd t adds a centre node
    shared by the mirrored pairs: its row and column of the even block carry
    a 1/sqrt(2), and it is absent from the odd block.  Keeps every
    eigenvalue with epsilon >= EPSILON_FLOOR and at least `dof` of them.
    """
    dof = geom.dof
    if dof < 1:
        raise DomainError("aperture shorter than lambda/4 has dof = 0")
    if t is None:
        t = nystrom_order(geom)
    if t < 2 * dof:
        raise DomainError(f"need t >= 2*dof = {2 * dof} quadrature points, got {t}")
    nodes, weights = gauss_legendre_rule(t, geom)
    half, centre = divmod(t, 2)
    p = nodes[half:]
    direct = kernel_value(p[:, None], p[None, :], geom)
    mirror = kernel_value(p[:, None], -p[None, :], geom)
    even = np.sqrt(weights[half:])
    even[:centre] *= math.sqrt(0.5)
    odd = even[centre:]
    # W^(1/2) (direct +- mirror) W^(1/2) with no full-size temporary: the
    # difference goes to mirror's buffer, and both blocks are scaled in
    # place by rows, then by columns, as the plain products would be
    plus = direct + mirror
    minus = np.subtract(direct, mirror, out=mirror)[centre:, centre:]
    del direct
    for block, w in ((plus, even), (minus, odd)):
        block *= w[:, None]
        block *= w[None, :]
    try:
        vals = np.concatenate([np.linalg.eigvalsh(plus),
                               np.linalg.eigvalsh(minus)])
    except np.linalg.LinAlgError as exc:
        raise ComputationError(
            f"eigensolve failed for t={t}, L={geom.aperture_len_m}: {exc}"
        ) from exc
    vals = np.clip(np.sort(vals)[::-1], 0.0, None)
    keep = max(dof, int(np.sum(vals / (0.5 * geom.wavelength_m) >= EPSILON_FLOOR)))
    return SpectralDecomposition(
        wavelength_m=geom.wavelength_m,
        aperture_len_m=geom.aperture_len_m,
        sigmas=vals[:keep],
        dof=dof,
        trace=float(np.sum(vals)),
    )


def landau_count(spec: SpectralDecomposition, eps: float) -> int:
    """|{l : epsilon_l > eps}| over the computed spectrum."""
    if not (0.0 < eps < 1.0):
        raise DomainError("eps must lie in (0, 1)")
    return int(np.sum(spec.epsilons > eps))


def landau_prediction(spec: SpectralDecomposition, eps: float) -> float:
    """Asymptotic count dof + (1/pi^2) ln((1-sqrt(eps))/sqrt(eps)) ln(dof)."""
    if not (0.0 < eps < 1.0):
        raise DomainError("eps must lie in (0, 1)")
    se = math.sqrt(eps)
    return spec.dof + math.log((1.0 - se) / se) / math.pi ** 2 * math.log(spec.dof)


# ---------------------------------------------------------------------------
# on-disk cache (keyed by format, wavelength, length and quadrature order; a
# change to the solver or to EPSILON_FLOOR needs a new format)
# ---------------------------------------------------------------------------

_CACHE_FORMAT = 5


def cache_key(wavelength_m: float, aperture_len_m: float, t: int) -> str:
    return f"spectrum_v{_CACHE_FORMAT}_{wavelength_m:.12e}_{aperture_len_m:.12e}_{t}"


def save_decomposition(spec: SpectralDecomposition, path: str) -> None:
    """Write the eigenvalues and trace of `spec` to `path` (".npz" appended
    if missing) atomically.

    The data goes to a temporary file in the same directory that is then
    renamed over `path`, so a concurrent reader sees either no entry or a
    complete one.  The entry gets the mode a plain file would (0666 less
    the umask), so a shared cache directory stays readable.  It holds only
    the kept eigenvalues (1.2 KB at dof 80), so it is stored uncompressed.
    """
    path = os.fspath(path)
    if not path.endswith(".npz"):
        path += ".npz"
    fd, tmp = tempfile.mkstemp(suffix=".npz", dir=os.path.dirname(path) or ".")
    try:
        with os.fdopen(fd, "wb") as fh:
            np.savez(fh, sigmas=spec.sigmas, trace=spec.trace)
        umask = os.umask(0)  # the umask can only be read by setting it
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def load_decomposition(path: str, geom: ApertureGeometry) -> SpectralDecomposition:
    """Read an entry written by save_decomposition (compressed or not) as
    the spectrum of `geom`; the SpectralDecomposition checks reject an
    entry that cannot belong to it."""
    with np.load(path) as data:
        return SpectralDecomposition(geom.wavelength_m, geom.aperture_len_m,
                                     data["sigmas"], geom.dof, float(data["trace"]))


def cached_decompose(geom: ApertureGeometry, t: int | None = None,
                     cache_dir: str | None = None) -> SpectralDecomposition:
    """decompose() with an optional .npz cache in `cache_dir`.

    The entry is keyed by the order that runs (t, or `nystrom_order(geom)`
    when t is None).  Only a cache miss computes a Gauss-Legendre rule.
    """
    if not cache_dir:
        return decompose(geom, t)
    if t is None:
        t = nystrom_order(geom)
    os.makedirs(cache_dir, exist_ok=True)
    key = cache_key(geom.wavelength_m, geom.aperture_len_m, t)
    path = os.path.join(cache_dir, key + ".npz")
    if os.path.exists(path):
        try:
            return load_decomposition(path, geom)
        except Exception as exc:
            log.warning("unusable spectrum cache entry %s (%s: %s); "
                        "recomputing", path, type(exc).__name__, exc)
    spec = decompose(geom, t)
    save_decomposition(spec, path)
    return spec
