import warnings

import numpy as np
import pytest

from capa_secrecy import montecarlo as mc
from capa_secrecy import snr_models as snr
from capa_secrecy import spectral as spc

LAMBDA = 0.1249


def make_spectrum(n_lambdas: float, t: int) -> spc.SpectralDecomposition:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        geom = spc.ApertureGeometry(LAMBDA, n_lambdas * LAMBDA)
        return spc.decompose(geom, t)


def mc_point(lb, ms, r0, n_trials, seed):
    """mc_secrecy at one point: Bob's unit draws on the stream a sweep with
    root `seed` gives its first aperture, Eve's on `seed` itself."""
    bob_seed = int(np.random.SeedSequence(
        seed, spawn_key=(0,)).generate_state(1)[0])
    return mc.mc_secrecy(lb, mc.unit_bob_draws(ms, n_trials, bob_seed), r0,
                         n_trials, seed)


@pytest.fixture(scope="session")
def spec2():
    return make_spectrum(1.0, 80)


@pytest.fixture(scope="session")
def spec4():
    return make_spectrum(2.0, 120)


@pytest.fixture(scope="session")
def spec6():
    return make_spectrum(3.0, 160)


@pytest.fixture(scope="session")
def spec80():
    return make_spectrum(40.0, 1000)


@pytest.fixture(scope="session")
def ms2(spec2):
    return snr.build_psi(spec2)


@pytest.fixture(scope="session")
def ms4(spec4):
    return snr.build_psi(spec4)


@pytest.fixture(scope="session")
def ms6(spec6):
    return snr.build_psi(spec6)


@pytest.fixture(scope="session")
def ms80(spec80):
    return snr.build_psi(spec80)


@pytest.fixture(scope="session")
def ms_synth():
    """Synthetic well-spread spectrum used by the exact-series checks."""
    return snr.build_psi(np.array([4.0, 3.0, 2.0, 1.0]), q_max=200,
                         series_tol=1e-12, q_cap=3000)
