"""Sinc-kernel spectral decomposition of the continuous-aperture channel.

The channel autocorrelation over a linear aperture of length L is the sinc
kernel sin(k0 d)/(k0 d).  Its eigenpairs are obtained by a Gauss-Legendre
Nystrom discretization followed by a symmetric eigensolve, and follow the
Landau step profile: eigenvalues near lambda/2 on a plateau of width
2L/lambda, then a rapid drop over a ~ln(dof) wide transition.
"""
from __future__ import annotations

import json
import logging
import math
import os
import tempfile
import warnings
from dataclasses import dataclass

import numpy as np

from .specfun import DomainError

log = logging.getLogger(__name__)


class ComputationError(RuntimeError):
    """Numerical stage failed (eigensolve, invariant violation)."""


@dataclass(frozen=True)
class ApertureGeometry:
    """Linear aperture of length `aperture_len_m` at wavelength `wavelength_m`."""

    wavelength_m: float
    aperture_len_m: float

    def __post_init__(self):
        if self.wavelength_m <= 0.0 or self.aperture_len_m <= 0.0:
            raise DomainError("wavelength and aperture length must be positive")
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
    """Eigenstructure of the aperture autocorrelation kernel.

    sigmas are the kernel eigenvalues in meters (descending, unit channel
    gain), epsilons = 2 sigma / lambda the dimensionless Landau eigenvalues,
    eigfun_samples[i] the i-th eigenfunction at the quadrature nodes.
    `trace` sums the full computed spectrum and must match the aperture
    length (kernel diagonal is 1).
    """

    wavelength_m: float
    aperture_len_m: float
    sigmas: np.ndarray
    epsilons: np.ndarray
    eigfun_samples: np.ndarray
    nodes: np.ndarray
    weights: np.ndarray
    dof: int
    sigma_min: float
    trace: float

    def __post_init__(self):
        s = self.sigmas
        if np.any(np.diff(s) > 0) or np.any(s < 0):
            raise ComputationError("eigenvalues must be nonincreasing and >= 0")
        if np.any(self.epsilons > 1.0 + 1e-6) or np.any(self.epsilons < 0.0):
            raise ComputationError("normalized eigenvalues must lie in [0, 1]")
        resid = abs(self.trace - self.aperture_len_m) / self.aperture_len_m
        if resid > 0.005:
            raise ComputationError(f"kernel trace off by {resid:.2%} (> 0.5%)")
        if self.sigma_min != self.sigmas[self.dof - 1]:
            raise ComputationError("sigma_min must equal sigmas[dof-1]")
        g = (self.eigfun_samples * self.weights) @ self.eigfun_samples.T
        if not np.allclose(g, np.eye(len(s)), atol=1e-8):
            raise ComputationError("eigenfunctions not orthonormal under the rule")

    @property
    def trace_residual(self) -> float:
        return abs(self.trace - self.aperture_len_m) / self.aperture_len_m


def kernel_value(z, z_prime, geom: ApertureGeometry):
    """Autocorrelation sin(k0 (z-z'))/(k0 (z-z')), exactly 1 on the diagonal."""
    d = np.asarray(z, dtype=float) - np.asarray(z_prime, dtype=float)
    out = np.sinc(geom.wavenumber * d / math.pi)
    return float(out) if out.ndim == 0 else out


def gauss_legendre_rule(t: int, geom: ApertureGeometry, unit_rule=None):
    """t-point Gauss-Legendre nodes/weights on [-L/2, L/2].

    `unit_rule(t)` returns the rule on [-1, 1] (default: numpy's leggauss),
    so a caller that decomposes several apertures can compute it once.
    """
    if t < 2:
        raise DomainError("need at least 2 quadrature points")
    x, w = (unit_rule or np.polynomial.legendre.leggauss)(t)
    half = 0.5 * geom.aperture_len_m
    return half * x, half * w


def _parity_block(r, scale, sign, centre):
    """Descending eigenpairs of one parity block, unfolded to all nodes.

    A vector of parity `sign` is (sign*u[::-1], u)/sqrt(2) on the mirrored
    node pairs.  An odd t adds a centre node; it is shared by the pair, so
    its row and column of the even block carry a 1/sqrt(2) (in `scale`),
    and it is absent from the odd block.
    """
    drop = centre if sign < 0 else 0
    vals, u = np.linalg.eigh(scale[drop:, None] * r[drop:, drop:] * scale[None, drop:])
    u = np.vstack([np.zeros((drop, len(vals))), u])
    pairs = u[centre:] * math.sqrt(0.5)
    return vals[::-1], np.vstack([sign * pairs[::-1], u[:centre], pairs])[:, ::-1]


def decompose(geom: ApertureGeometry, t: int, epsilon_floor: float = 1e-8,
              unit_rule=None) -> SpectralDecomposition:
    """Nystrom eigen-decomposition of the sinc kernel.

    The quadrature-weighted kernel matrix is symmetrized as
    W^(1/2) R W^(1/2) (same spectrum as the plain Nystrom matrix, but an
    orthogonal eigenproblem); eigenfunction samples are recovered as
    v / sqrt(w).  The Gauss-Legendre nodes are antisymmetric and the kernel
    is reflection invariant, so the matrix splits into an even and an odd
    block on the nonnegative nodes, each solved by its own eigensolve
    (Slepian-Pollak parity).  Keeps every eigenvalue with
    epsilon >= epsilon_floor and at least `dof` of them.
    """
    if not (0.0 < epsilon_floor < 1.0):
        raise DomainError("epsilon_floor must lie in (0, 1)")
    dof = geom.dof
    if t < 2 * dof:
        raise DomainError(f"need t >= 2*dof = {2 * dof} quadrature points, got {t}")
    nodes, weights = gauss_legendre_rule(t, geom, unit_rule)
    sw = np.sqrt(weights)
    half, centre = divmod(t, 2)
    p = nodes[half:]
    direct = kernel_value(p[:, None], p[None, :], geom)
    mirror = kernel_value(p[:, None], -p[None, :], geom)
    scale = sw[half:].copy()
    scale[:centre] *= math.sqrt(0.5)
    try:
        blocks = [_parity_block(direct + mirror, scale, 1, centre),
                  _parity_block(direct - mirror, scale, -1, centre)]
    except np.linalg.LinAlgError as exc:
        raise ComputationError(
            f"eigensolve failed for t={t}, L={geom.aperture_len_m}: {exc}"
        ) from exc
    vals = np.concatenate([v for v, _ in blocks])
    vecs = np.hstack([u for _, u in blocks])
    order = np.argsort(-vals, kind="stable")
    vals = np.clip(vals[order], 0.0, None)
    trace = float(np.sum(vals))

    half_lam = 0.5 * geom.wavelength_m
    eps_all = np.minimum(vals / half_lam, 1.0)
    keep = max(dof, int(np.sum(eps_all >= epsilon_floor)))
    keep = min(keep, t)
    sigmas = vals[:keep]
    phis = (vecs[:, order[:keep]] / sw[:, None]).T
    return SpectralDecomposition(
        wavelength_m=geom.wavelength_m,
        aperture_len_m=geom.aperture_len_m,
        sigmas=sigmas,
        epsilons=eps_all[:keep],
        eigfun_samples=phis,
        nodes=nodes,
        weights=weights,
        dof=dof,
        sigma_min=float(sigmas[dof - 1]),
        trace=trace,
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
# on-disk cache (keyed by format, wavelength, length, order, eigenvalue floor)
# ---------------------------------------------------------------------------

_CACHE_FORMAT = 3


def cache_key(wavelength_m: float, aperture_len_m: float, t: int,
              epsilon_floor: float) -> str:
    return (f"spectrum_v{_CACHE_FORMAT}_{wavelength_m:.12e}_{aperture_len_m:.12e}"
            f"_{t}_{epsilon_floor:.12e}")


def save_decomposition(spec: SpectralDecomposition, path: str) -> None:
    """Write `spec` to `path` (".npz" appended if missing) atomically.

    The data goes to a temporary file in the same directory that is then
    renamed over `path`, so a concurrent reader sees either no entry or a
    complete one.  The entry gets the mode a plain file would (0666 less
    the umask), so a shared cache directory stays readable.  It is stored
    uncompressed: eigenvector mantissas barely compress.
    """
    path = os.fspath(path)
    if not path.endswith(".npz"):
        path += ".npz"
    meta = dict(wavelength_m=spec.wavelength_m, aperture_len_m=spec.aperture_len_m,
                dof=spec.dof, sigma_min=spec.sigma_min, trace=spec.trace)
    fd, tmp = tempfile.mkstemp(suffix=".npz", dir=os.path.dirname(path) or ".")
    try:
        with os.fdopen(fd, "wb") as fh:
            np.savez(
                fh, meta=json.dumps(meta), sigmas=spec.sigmas,
                epsilons=spec.epsilons, eigfun_samples=spec.eigfun_samples,
                nodes=spec.nodes, weights=spec.weights,
            )
        umask = os.umask(0)  # the umask can only be read by setting it
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def load_decomposition(path: str) -> SpectralDecomposition:
    """Read an entry written by save_decomposition (compressed or not)."""
    with np.load(path) as data:
        meta = json.loads(str(data["meta"]))
        return SpectralDecomposition(
            wavelength_m=meta["wavelength_m"],
            aperture_len_m=meta["aperture_len_m"],
            sigmas=data["sigmas"],
            epsilons=data["epsilons"],
            eigfun_samples=data["eigfun_samples"],
            nodes=data["nodes"],
            weights=data["weights"],
            dof=int(meta["dof"]),
            sigma_min=float(meta["sigma_min"]),
            trace=float(meta["trace"]),
        )


def cached_decompose(geom: ApertureGeometry, t: int,
                     epsilon_floor: float = 1e-8,
                     cache_dir: str | None = None,
                     unit_rule=None) -> SpectralDecomposition:
    """decompose() with an optional .npz cache (env CAPA_CACHE_DIR).

    `unit_rule` is passed to decompose() and only called on a cache miss.
    """
    if cache_dir is None:
        cache_dir = os.environ.get("CAPA_CACHE_DIR")
    if not cache_dir:
        return decompose(geom, t, epsilon_floor, unit_rule)
    os.makedirs(cache_dir, exist_ok=True)
    key = cache_key(geom.wavelength_m, geom.aperture_len_m, t, epsilon_floor)
    path = os.path.join(cache_dir, key + ".npz")
    if os.path.exists(path):
        try:
            return load_decomposition(path)
        except Exception as exc:
            log.warning("unreadable spectrum cache entry %s (%s: %s); "
                        "recomputing", path, type(exc).__name__, exc)
    spec = decompose(geom, t, epsilon_floor, unit_rule)
    save_decomposition(spec, path)
    return spec
