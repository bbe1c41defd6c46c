import math
import os
import stat
import tracemalloc
import warnings

import numpy as np
import pytest

from capa_secrecy import snr_models as snr
from capa_secrecy import spectral as spc
from capa_secrecy.specfun import DomainError

from conftest import LAMBDA, make_spectrum
from theorems import prolate_epsilons, sterf_legendre_rule


@pytest.fixture(scope="module")
def geom():
    return spc.ApertureGeometry(LAMBDA, 2 * LAMBDA)


def test_kernel_diagonal_and_zeros(geom):
    for z in (-0.1, 0.0, 0.07):
        assert spc.kernel_value(z, z, geom) == 1.0
        assert spc.kernel_value(z, z + LAMBDA / 2, geom) == pytest.approx(0.0, abs=1e-15)
        assert spc.kernel_value(z, z - LAMBDA / 2, geom) == pytest.approx(0.0, abs=1e-15)


def test_kernel_quarter_wavelength(geom):
    assert spc.kernel_value(0.0, LAMBDA / 4, geom) == pytest.approx(2.0 / math.pi, rel=1e-14)


def test_gauss_legendre_exactness(geom):
    L = geom.aperture_len_m
    nodes, weights = spc.gauss_legendre_rule(24, geom)
    assert np.sum(weights) == pytest.approx(L, rel=1e-14)
    assert np.dot(weights, nodes) == pytest.approx(0.0, abs=1e-15)
    assert np.dot(weights, nodes ** 2) == pytest.approx(L ** 3 / 12.0, rel=1e-13)
    with pytest.raises(DomainError):
        spc.gauss_legendre_rule(1, geom)


def test_geometry_validation_and_warnings():
    with pytest.raises(DomainError):
        spc.ApertureGeometry(-1.0, 1.0)
    with pytest.warns(UserWarning):
        spc.ApertureGeometry(LAMBDA, 1.5 * LAMBDA)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        g = spc.ApertureGeometry(LAMBDA, 4 * LAMBDA)
    assert g.wavenumber * g.wavelength_m == pytest.approx(2 * math.pi, rel=1e-15)
    with pytest.warns(UserWarning):
        _ = spc.ApertureGeometry(LAMBDA, 2.2 * LAMBDA).dof


def test_decompose_small_aperture(spec4):
    assert spec4.dof == 4
    assert spec4.sigma_min == spec4.sigmas[3]
    assert spec4.trace_residual < 0.005
    # leading eigenvalues sit near lambda/2
    assert spec4.sigmas[0] == pytest.approx(LAMBDA / 2, rel=1e-3)
    assert np.all(np.diff(spec4.sigmas) <= 0)


def test_decompose_requires_enough_points(geom):
    with pytest.raises(DomainError):
        spc.decompose(geom, 6)


def _geometry(n_lambdas):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return spc.ApertureGeometry(LAMBDA, n_lambdas * LAMBDA)


def _oracle_error(spec, n_lambdas):
    """Largest |epsilon - lambda_n(c)| over the kept eigenvalues."""
    want = prolate_epsilons(math.pi * n_lambdas, len(spec.sigmas))
    return np.max(np.abs(spec.epsilons - np.minimum(want, 1.0)))


@pytest.mark.parametrize("n_lambdas,tol", [
    (1.5, 1e-12), (2.0, 1e-12), (3.0, 1e-12), (10.0, 1e-12), (40.0, 1e-12),
    (50.0, 1e-12), (100.0, 1e-11), (200.0, 1e-11)])
def test_default_order_matches_prolate_eigenvalues(n_lambdas, tol):
    geom = _geometry(n_lambdas)
    assert spc.nystrom_order(geom) == 2 * geom.dof + 32
    assert _oracle_error(spc.decompose(geom), n_lambdas) <= tol


@pytest.mark.parametrize("n_lambdas", [10.0, 40.0, 50.0])
def test_default_order_is_closer_to_prolate_than_1000(n_lambdas):
    # past convergence, more nodes only add rounding
    geom = _geometry(n_lambdas)
    assert (_oracle_error(spc.decompose(geom), n_lambdas)
            < _oracle_error(spc.decompose(geom, 1000), n_lambdas))


def test_large_aperture_with_default_order():
    # 300 wavelengths: dof 600 needs t >= 1200, past the old fixed 1000
    geom = _geometry(300.0)
    assert (geom.dof, spc.nystrom_order(geom)) == (600, 1232)
    spec = spc.decompose(geom)
    assert spec.dof == 600 and len(spec.sigmas) >= 600
    assert snr.build_psi(spec).sigma_min == spec.sigma_min
    with pytest.raises(DomainError, match="need t >= 2\\*dof = 1200"):
        spc.decompose(geom, 1000)


def test_landau_structure(spec80):
    assert spec80.dof == 80
    c = spc.landau_count(spec80, 0.5)
    assert abs(c - 80) <= 3
    assert abs(spc.landau_prediction(spec80, 0.5) - 80) < 2.0
    assert spc.landau_count(spec80, 0.999) <= spec80.dof
    # transition width grows only like ln(dof)
    assert spc.landau_count(spec80, 0.01) - spc.landau_count(spec80, 0.99) <= 10
    with pytest.raises(DomainError):
        spc.landau_count(spec80, 1.5)


def test_nystrom_convergence_in_t():
    a = make_spectrum(2.0, 100)
    b = make_spectrum(2.0, 200)
    rel = np.abs(a.sigmas[:4] - b.sigmas[:4]) / b.sigmas[:4]
    assert np.max(rel) < 1e-6


def test_scale_covariance():
    a = make_spectrum(10.0, 240)
    b = make_spectrum(20.0, 480)
    assert b.dof == 2 * a.dof
    # epsilon profiles vs l/dof agree over the plateau (the transition region
    # narrows relative to dof, so it is excluded)
    xa = (np.arange(len(a.sigmas)) + 1) / a.dof
    xb = (np.arange(len(b.sigmas)) + 1) / b.dof
    grid = np.linspace(0.05, 0.8, 16)
    pa = np.interp(grid, xa, a.epsilons)
    pb = np.interp(grid, xb, b.epsilons)
    assert np.max(np.abs(pa - pb)) < 0.05


def _assert_same_spectrum(a, b):
    assert np.array_equal(a.sigmas, b.sigmas)
    assert a.trace == b.trace and a.dof == b.dof
    assert np.array_equal(a.epsilons, b.epsilons)
    assert a.sigma_min == b.sigma_min


def test_cache_round_trip(tmp_path, spec4, geom):
    path = tmp_path / "spec.npz"
    spc.save_decomposition(spec4, str(path))
    _assert_same_spectrum(spc.load_decomposition(str(path), geom), spec4)


def test_cache_entry_holds_only_eigenvalues(tmp_path, spec80):
    spc.save_decomposition(spec80, str(tmp_path / "spec"))
    assert (tmp_path / "spec.npz").stat().st_size < 16 * 1024


def test_cached_decompose_uses_directory(tmp_path):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        geom = spc.ApertureGeometry(LAMBDA, 2 * LAMBDA)
        first = spc.cached_decompose(geom, 100, cache_dir=str(tmp_path))
        files = list(tmp_path.glob("*.npz"))
        assert len(files) == 1
        again = spc.cached_decompose(geom, 100, cache_dir=str(tmp_path))
    assert np.array_equal(first.sigmas, again.sigmas)


def test_default_order_is_cached_under_its_resolved_order(tmp_path, geom):
    first = spc.cached_decompose(geom, cache_dir=str(tmp_path))
    (entry,) = tmp_path.glob("*.npz")
    order = spc.nystrom_order(geom)
    assert entry.name == spc.cache_key(geom.wavelength_m, geom.aperture_len_m,
                                       order) + ".npz"
    again = spc.cached_decompose(geom, order, cache_dir=str(tmp_path))
    assert len(list(tmp_path.glob("*.npz"))) == 1
    _assert_same_spectrum(first, again)
    _assert_same_spectrum(first, spc.decompose(geom))


def test_truncated_cache_entry_is_recomputed(tmp_path, caplog, geom):
    first = spc.cached_decompose(geom, 100, cache_dir=str(tmp_path))
    (entry,) = tmp_path.glob("*.npz")
    entry.write_bytes(entry.read_bytes()[: entry.stat().st_size // 2])
    with caplog.at_level("WARNING", logger="capa_secrecy.spectral"):
        again = spc.cached_decompose(geom, 100, cache_dir=str(tmp_path))
    assert any("spectrum cache entry" in r.getMessage() for r in caplog.records)
    assert np.array_equal(first.sigmas, again.sigmas)
    # the recomputed entry replaced the broken one
    assert np.array_equal(spc.load_decomposition(str(entry), geom).sigmas,
                          first.sigmas)


def test_cache_write_leaves_no_temporary_file(tmp_path, spec4, geom):
    spc.save_decomposition(spec4, str(tmp_path / "spec"))
    spc.cached_decompose(geom, 100, cache_dir=str(tmp_path / "c"))
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c", "spec.npz"]
    assert len(list((tmp_path / "c").iterdir())) == 1


def _dense_spectrum(geom, t):
    """Clipped descending spectrum of the full symmetrised Nystrom matrix."""
    x, w = spc.gauss_legendre_rule(t, geom)
    sw = np.sqrt(w)
    r = spc.kernel_value(x[:, None], x[None, :], geom)
    return np.clip(np.linalg.eigvalsh(sw[:, None] * r * sw[None, :])[::-1], 0.0, None)


@pytest.mark.parametrize("n_lambdas,t", [(2.0, 120), (2.0, 121), (40.0, 1000)])
def test_parity_split_matches_dense_eigensolve(n_lambdas, t):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        geom = spc.ApertureGeometry(LAMBDA, n_lambdas * LAMBDA)
    spec = spc.decompose(geom, t)
    dense = _dense_spectrum(geom, t)
    keep = max(geom.dof, int(np.sum(np.minimum(dense / (LAMBDA / 2), 1.0) >= 1e-8)))
    assert len(spec.sigmas) == keep
    assert np.max(np.abs(spec.sigmas - dense[:keep])) <= 1e-15
    assert spec.trace == pytest.approx(np.sum(dense), rel=1e-14)


@pytest.mark.parametrize("t", [2, 3, 72, 120, 160, 192, 232, 1000, 1001])
def test_unit_rule_is_numpys_leggauss_bit_for_bit(t, geom):
    # the rule is numpy's leggauss scaled by L/2; the sterf construction it
    # replaced is the oracle, so no spectrum moved (t = 72, 192 and 232 are
    # the default orders at 10, 40 and 50 wavelengths)
    x, w = spc.gauss_legendre_rule(t, geom)
    x_np, w_np = sterf_legendre_rule(t)
    half = 0.5 * geom.aperture_len_m
    assert np.array_equal(x, half * x_np)
    assert np.array_equal(w, half * w_np)


@pytest.mark.parametrize("old_format", [2, 3, 4])
def test_old_format_cache_entry_is_not_read(tmp_path, geom, spec4, old_format):
    # an entry written under an earlier format's key holds another solver's
    # output or layout, so the current key must not find it
    old_key = spc.cache_key(geom.wavelength_m, geom.aperture_len_m, 120)
    old_key = old_key.replace(f"_v{spc._CACHE_FORMAT}_", f"_v{old_format}_")
    assert old_key.startswith(f"spectrum_v{old_format}_")
    spc.save_decomposition(spc.decompose(geom, 100), str(tmp_path / old_key))
    got = spc.cached_decompose(geom, 120, cache_dir=str(tmp_path))
    assert np.array_equal(got.sigmas, spec4.sigmas)
    assert len(list(tmp_path.glob("*.npz"))) == 2


def test_cache_entry_mode_follows_umask(tmp_path, spec4):
    old = os.umask(0o022)
    try:
        spc.save_decomposition(spec4, str(tmp_path / "a"))
        os.umask(0o077)
        spc.save_decomposition(spec4, str(tmp_path / "b"))
    finally:
        os.umask(old)
    assert stat.S_IMODE((tmp_path / "a.npz").stat().st_mode) == 0o644
    assert stat.S_IMODE((tmp_path / "b.npz").stat().st_mode) == 0o600


def test_compressed_cache_entry_still_loads(tmp_path, spec4, geom):
    path = tmp_path / "old.npz"
    np.savez_compressed(path, sigmas=spec4.sigmas, trace=spec4.trace)
    _assert_same_spectrum(spc.load_decomposition(str(path), geom), spec4)


def test_eigenvalues_above_half_wavelength_are_rejected():
    def flat(top):
        # dof 4 on a 2-wavelength aperture; trace = L for a flat lambda/2 spectrum
        return spc.SpectralDecomposition(LAMBDA, 2 * LAMBDA,
                                         np.array([top] + [LAMBDA / 2] * 3),
                                         dof=4, trace=2 * LAMBDA)

    ok = flat(LAMBDA / 2 * (1 + 1e-7))
    assert ok.epsilons[0] == 1.0 and ok.sigma_min == LAMBDA / 2
    with pytest.raises(spc.ComputationError, match="lambda/2"):
        flat(LAMBDA / 2 * (1 + 1e-5))


def test_short_cache_entry_is_recomputed(tmp_path, caplog, geom, spec4):
    key = spc.cache_key(geom.wavelength_m, geom.aperture_len_m, 120)
    entry = tmp_path / (key + ".npz")
    np.savez(entry, sigmas=spec4.sigmas[:3], trace=spec4.trace)
    with pytest.raises(spc.ComputationError, match="need dof"):
        spc.load_decomposition(str(entry), geom)
    with caplog.at_level("WARNING", logger="capa_secrecy.spectral"):
        got = spc.cached_decompose(geom, 120, cache_dir=str(tmp_path))
    assert any("spectrum cache entry" in r.getMessage() for r in caplog.records)
    _assert_same_spectrum(got, spec4)
    _assert_same_spectrum(spc.load_decomposition(str(entry), geom), spec4)


def test_entry_for_other_geometry_is_recomputed(tmp_path, caplog, spec4, spec6):
    # an entry holds no geometry of its own: the request supplies it, and a
    # 2-wavelength spectrum under the 3-wavelength key fails the trace check
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        geom6 = spc.ApertureGeometry(LAMBDA, 3 * LAMBDA)
    key = spc.cache_key(geom6.wavelength_m, geom6.aperture_len_m, 160)
    spc.save_decomposition(spec4, str(tmp_path / key))
    with caplog.at_level("WARNING", logger="capa_secrecy.spectral"):
        got = spc.cached_decompose(geom6, 160, cache_dir=str(tmp_path))
    assert any("spectrum cache entry" in r.getMessage() for r in caplog.records)
    assert got.dof == 6
    _assert_same_spectrum(got, spec6)


def test_kernel_value_is_numpy_sinc_bit_for_bit(geom):
    k0 = geom.wavenumber
    z = np.linspace(-0.3, 0.3, 41)
    want = np.sinc(k0 * (z[:, None] - z[None, :]) / math.pi)
    got = spc.kernel_value(z[:, None], z[None, :], geom)
    assert got.shape == want.shape and np.array_equal(got, want)
    assert np.all(np.diag(got) == 1.0)
    for a, b in ((0.07, 0.0), (0.0, 0.0), (-0.1, -0.1), (1, 0)):
        got = spc.kernel_value(a, b, geom)
        assert isinstance(got, float)
        assert got == float(np.sinc(k0 * (a - b) / math.pi))


def test_decompose_peak_memory():
    # the Nystrom blocks are filled and scaled in place: a few (t/2)^2
    # matrices at most (2 MB each at t = 1000), not a temporary per step
    geom40 = spc.ApertureGeometry(LAMBDA, 40 * LAMBDA)
    tracemalloc.start()
    try:
        spc.decompose(geom40, 1000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 << 20, peak
