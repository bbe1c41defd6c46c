"""Secrecy performance of continuous-aperture arrays over Rayleigh fading."""

from .specfun import (EXTENDED, STANDARD, DomainError, EvalPrecision,
                      EULER_GAMMA)
from .spectral import (ApertureGeometry, ComputationError,
                       SpectralDecomposition, decompose, gauss_legendre_rule,
                       kernel_value, landau_count, landau_prediction)
from .snr_models import (LinkBudget, MoschopoulosSeries, Scenario, bob_cdf,
                         bob_pdf, bob_survival, build_psi, eve_cdf, eve_pdf,
                         sample_bob, sample_eve)
from .secrecy import (PrecisionLossError, asymptotic_rate,
                      diversity_and_gain, high_snr_offset, high_snr_slope,
                      secrecy_rate_closed, secrecy_rate_quadrature,
                      sop_asymptotic, sop_closed, sop_quadrature)
from .montecarlo import (McEstimate, SPDA_ELEMENT_APERTURE_RATIO, mc_secrecy,
                         spda_baseline, unit_bob_draws)

__version__ = "0.1.0"
