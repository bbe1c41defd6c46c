import warnings

import numpy as np
import pytest

from capa_secrecy import montecarlo as mc
from capa_secrecy import snr_models as snr
from capa_secrecy import spectral as spc
from capa_secrecy import sweep as sw

LAMBDA = 0.1249


def make_spectrum(n_lambdas: float, t: int) -> spc.SpectralDecomposition:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        geom = spc.ApertureGeometry(LAMBDA, n_lambdas * LAMBDA)
        return spc.decompose(geom, t)


def eve_draws(lb, n_trials, seed):
    """Eve's unit draws on the stream a sweep with root `seed` gives lb's
    scenario and K."""
    key = (sw.SCENARIOS.index(lb.scenario.value), lb.k_eves)
    return mc.unit_eve_draws(lb.scenario, lb.k_eves, n_trials,
                             sw._seed(seed, *key))


def mc_point(lb, ms, r0, n_trials, seed):
    """mc_secrecy at one point of a sweep with root `seed`: Bob's unit draws
    on its first aperture's stream, Eve's on lb's (scenario, K) stream."""
    return mc.mc_secrecy(lb, mc.unit_bob_draws(ms, n_trials, sw._seed(seed, 0)),
                         eve_draws(lb, n_trials, seed), r0, n_trials)


def spda_point(lb, geom, r0, n_trials, seed):
    """spda_baseline at one point of a sweep with root `seed`: the array's
    unit draws on its first aperture's stream, Eve's as in `mc_point`."""
    bob = mc.unit_spda_draws(geom, n_trials, sw._seed(seed, 0, 0))
    return mc.spda_baseline(lb, geom, bob, eve_draws(lb, n_trials, seed), r0,
                            n_trials)


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
def ms80_default():
    """The paper's 40-wavelength aperture at its default Nystrom order, as a
    sweep resolves it."""
    return snr.build_psi(make_spectrum(40.0, None))


@pytest.fixture(scope="session")
def ms_synth():
    """Synthetic well-spread spectrum used by the exact-series checks."""
    return snr.build_psi(np.array([4.0, 3.0, 2.0, 1.0]), q_max=200,
                         series_tol=1e-12, q_cap=3000)
