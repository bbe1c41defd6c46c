"""The paper's lemmas as exact rational checks (ordering and identity terms,
the small-1/SNR outage expansion), the alternating independent-Eves sums
as references for the library's positive forms, and the
conditional-variance check behind treating Eve's SNR as independent of
Bob's channel.  No sweep or CLI path runs them; the acceptance, secrecy and
Monte Carlo tests import them.
"""
import math
from fractions import Fraction

import mpmath
import numpy as np

from capa_secrecy import secrecy as sec
from capa_secrecy.montecarlo import McEstimate
from capa_secrecy.snr_models import Scenario
from capa_secrecy.specfun import scaled_e1


# ---------------------------------------------------------------------------
# identity and ordering checks (exact where rational)
# ---------------------------------------------------------------------------

def binomial_unit_identity(k: int) -> Fraction:
    """K sum_d C(K-1,d) (-1)^d / (d+1); equals 1 for every positive K."""
    return k * sum(Fraction((-1) ** d * math.comb(k - 1, d), d + 1)
                   for d in range(k))


def collaborative_vs_independent_offset_gap(k: int, gamma_e: float) -> float:
    """e^(1/(K ge)) E1(1/(K ge)) minus the independent-Eves combination.

    Positive for K >= 2: the collaborative offset exceeds the independent
    one.  (The source text asserts this sign in the claim but flips it in
    the final proof step; the positive sign is the numerically correct one
    and the one consistent with the offset ordering.)
    """
    return scaled_e1(1.0 / (k * gamma_e)) - sec.independent_eve_offset_term(k, gamma_e)


def independent_eve_gain_term(k: int, dof: int, m: int) -> Fraction:
    """y(K) = K sum_n C(K-1,n)(-1)^n (n+1)^(m-dof-1); 1 at m = dof,
    increasing in K below it."""
    return k * sum(Fraction((-1) ** n * math.comb(k - 1, n), (n + 1) ** (dof - m + 1))
                   for n in range(k))


def collaborative_gain_term_gap(k: int, dof: int, m: int) -> Fraction:
    """C(dof-m+K-1, K-1) - independent term; 0 at m = dof, positive below."""
    return math.comb(dof - m + k - 1, k - 1) - independent_eve_gain_term(k, dof, m)


def independent_eve_offset_sum(k: int, gamma_e: float) -> float:
    """y(K) = K sum_a C(K-1,a) (-1)^a/(1+a) e^((1+a)/ge) E1((1+a)/ge).

    y(K) = E ln(1 + max of K Eve SNRs) >= y(1), while the terms sum in
    magnitude to at most K 2^(K-1) y(1), so the alternating sum runs in
    mpmath with that many guard digits.
    """
    dps = 20 + int(math.log10(k) + (k - 1) * math.log10(2.0))
    with mpmath.workdps(dps):
        xs = [mpmath.mpf(1 + a) / gamma_e for a in range(k)]
        return float(mpmath.fsum(
            k * math.comb(k - 1, a) * (-1) ** a / mpmath.mpf(1 + a)
            * mpmath.exp(x) * mpmath.e1(x) for a, x in enumerate(xs)))


# ---------------------------------------------------------------------------
# exact small-1/SNR polynomial expansion of the outage probability
# ---------------------------------------------------------------------------

def psi_fractions(sigmas, q_terms: int):
    """Moschopoulos coefficients in exact rational arithmetic."""
    sig = [Fraction(s) for s in sigmas]
    smin = min(sig)
    ratios = [1 - smin / s for s in sig]
    psis = [Fraction(1)]
    powers = [Fraction(1)] * len(sig)
    b = []
    for _ in range(q_terms):
        powers = [p * r for p, r in zip(powers, ratios)]
        b.append(sum(powers))
    for q in range(1, q_terms + 1):
        psis.append(sum(b[k - 1] * psis[q - k] for k in range(1, q + 1)) / q)
    return psis


def sop_inverse_snr_poly(scenario: Scenario, sigmas, gamma_e, r0: int,
                         q: int, order: int, k_eves: int = 1):
    """Exact series in z = 1/gamma_b of the q-th outage bracket.

    Inputs are taken as rationals, so the cancellation of every coefficient
    below z^dof is checked exactly.  Returns Fraction coefficients
    [z^0 .. z^order].
    """
    sig = [Fraction(s) for s in sigmas]
    smin = min(sig)
    g = Fraction(2) ** r0
    n = len(sig) + q
    e_ser = [(-(g - 1) / smin) ** i / math.factorial(i) for i in range(order + 1)]

    def nb(k, gmu):
        # P(rho_b < g (1 + rho_e) - 1), rho_b ~ Gamma(n, smin/z), rho_e ~
        # Gamma(k, mu) with gmu = g mu: the Poisson sum of the gamma CDF
        # averaged over rho_e, whose weighted moments are negative-binomial
        c = gmu / smin
        cq = [Fraction(0)] * (order + 1)
        for j in range(min(n - 1, order) + 1):
            for m in range(j + 1):
                pref = (math.comb(k + m - 1, m) * (g - 1) ** (j - m) * gmu ** m
                        / math.factorial(j - m) / smin ** j)
                for i in range(order + 1 - j):
                    cq[j + i] += pref * math.comb(k + m + i - 1, i) * (-c) ** i
        out = [-sum(e_ser[i] * cq[j - i] for i in range(j + 1))
               for j in range(order + 1)]
        out[0] += 1
        return out

    gmu = g * Fraction(gamma_e)
    if scenario != Scenario.MIE:  # SE is the K = 1 collaborative case
        return nb(k_eves, gmu)
    # the max of K exponentials mixes exponentials of scale mu/(a+1)
    total = [Fraction(0)] * (order + 1)
    for a in range(k_eves):
        coeff = Fraction(k_eves * math.comb(k_eves - 1, a) * (-1) ** a, a + 1)
        total = [t + coeff * p for t, p in zip(total, nb(1, gmu / (a + 1)))]
    return total


def sop_poly_mixture(scenario: Scenario, sigmas, gamma_e, r0: int,
                     q_terms: int, order: int, k_eves: int = 1):
    """Exact mixture-weighted series sum_q W psi_q * bracket_q."""
    sig = [Fraction(s) for s in sigmas]
    smin = min(sig)
    prefix = smin ** len(sig)
    for s in sig:
        prefix /= s
    psis = psi_fractions(sigmas, q_terms)
    total = [Fraction(0)] * (order + 1)
    for q in range(q_terms + 1):
        part = sop_inverse_snr_poly(scenario, sigmas, gamma_e, r0, q, order,
                                    k_eves)
        wq = prefix * psis[q]
        total = [t + wq * p for t, p in zip(total, part)]
    return total


def sop_leading_coeff(scenario: Scenario, sigmas, gamma_e, r0: int,
                      k_eves: int = 1) -> Fraction:
    """Exact z^dof coefficient of the outage expansion (array-gain law).

    Derived per scenario independently of `sop_inverse_snr_poly`, so the
    two agreeing checks both.
    """
    sig = [Fraction(s) for s in sigmas]
    n = len(sig)
    g = Fraction(2) ** r0
    gmu = g * Fraction(gamma_e)
    x = (g - 1) / gmu
    prod = Fraction(1)
    for s in sig:
        prod *= s
    if scenario == Scenario.SE:
        s_m = sum(x ** m / math.factorial(m) for m in range(n + 1))
    elif scenario == Scenario.MIE:
        s_m = k_eves * sum(
            x ** m / math.factorial(m)
            * sum(Fraction((-1) ** d * math.comb(k_eves - 1, d),
                           (d + 1) ** (n - m + 1)) for d in range(k_eves))
            for m in range(n + 1))
    else:
        s_m = sum(x ** m / math.factorial(m)
                  * math.comb(n - m + k_eves - 1, k_eves - 1)
                  for m in range(n + 1))
    return s_m * gmu ** n / prod


# ---------------------------------------------------------------------------
# Eve-independence check
# ---------------------------------------------------------------------------

def mc_exact_eve(spec, n_trials: int, seed: int) -> McEstimate:
    """Conditional-variance ratio of Eve's effective signal given Bob's channel.

    Per realization of Bob's expansion coefficients, computes
    sum(sigma^2 |Phi|^2) / sum(sigma |Phi|^2) over every retained eigenvalue
    and reports it normalized by lambda/2.  A mean near 1 with a small
    coefficient of variation validates treating Eve's SNR as independent of
    Bob's channel.
    """
    sig = np.asarray(spec.sigmas, dtype=float)
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0,)))
    e = rng.standard_exponential((n_trials, sig.size))
    ratio = (e @ (sig ** 2)) / (e @ sig) / (0.5 * spec.wavelength_m)
    return McEstimate(float(ratio.mean()),
                      float(ratio.std(ddof=1)) / math.sqrt(n_trials),
                      n_trials, seed)


def coefficient_of_variation(est: McEstimate) -> float:
    """Sample std / mean recovered from a Monte Carlo estimate."""
    return est.std_err * math.sqrt(est.n_trials) / est.mean
