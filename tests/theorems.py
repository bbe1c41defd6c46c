"""The paper's lemmas as exact rational checks (ordering and identity terms,
the small-1/SNR outage expansion), the alternating independent-Eves sums
as references for the library's positive forms, Bob's laws as one
incomplete-gamma call per mixture shape (the reference for the
Poisson-index kernel), the Moschopoulos series by its scalar recursion and
the Poisson sums with every term exponentiated (the references, bit for
bit, for the library's numpy forms), the SOP's outage count in floats (the
reference for its log-domain count), the Gauss-Kronrod engine with its
panels in numpy arrays (the reference, bit for bit, for the library's
float lists), the secrecy rate as a 30-digit
integral with recorded higher-precision values, the Gauss-Legendre rule
from LAPACK's sterf, the prolate eigenvalues as an oracle for the Nystrom
spectrum, and the conditional-variance check behind treating Eve's SNR as
independent of Bob's channel.  No sweep or CLI path runs them; the acceptance, secrecy,
SNR-law, spectral and Monte Carlo tests import them.
"""
import math
from fractions import Fraction

import mpmath
import numpy as np
from numpy.polynomial import legendre as leg
from scipy import linalg as sla
from scipy import special as sps

from capa_secrecy import secrecy as sec
from capa_secrecy.montecarlo import McEstimate
from capa_secrecy.snr_models import Scenario
from capa_secrecy.specfun import (log_factorials, poisson_series_terms,
                                  scaled_e1)


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
# Bob's laws, one gamma law per mixture shape
# ---------------------------------------------------------------------------

def _gamma_pdf(a, z):
    """Unit-scale Gamma(a) density at z >= 0 (1 at z = 0 for a = 1)."""
    return np.exp(sps.xlogy(a - 1.0, z) - z - sps.gammaln(a))


BOB_SHAPE_LAWS = {"pdf": _gamma_pdf, "cdf": sps.gammainc,
                  "survival": sps.gammaincc}


def bob_mixture(law: str, x, lb, ms) -> np.ndarray:
    """sum_q w_q law(dof+q, max(x, 0)/theta) with one call per shape
    (theta = gamma_b sigma_min); the pdf is divided by theta and is 0
    below 0."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    theta = lb.gamma_bar_b * ms.sigma_min
    z = np.clip(x, 0.0, None)[:, None] / theta
    out = BOB_SHAPE_LAWS[law](ms.shapes[None, :].astype(float), z) @ ms.weights
    return (x >= 0.0) * out / theta if law == "pdf" else out


# ---------------------------------------------------------------------------
# Bob's series and Poisson sums in their plain forms
# ---------------------------------------------------------------------------

def psi_scalar(sigmas, q_max: int = 160, series_tol: float = 1e-8,
               q_cap: int = 2000):
    """(psis, residual, q) of `snr_models.build_psi` by its scalar
    recursion: each power sum b_k from one more product per eigenvalue and
    numpy's sum, each psi_n a Python float sum over k = 1..n in that order.
    The reference for the library's numpy recursion, bit for bit."""
    sigmas = np.sort(np.asarray(sigmas, dtype=float))[::-1]
    dof = len(sigmas)
    sigma_min = float(sigmas[-1])
    ratios = 1.0 - sigma_min / sigmas
    prefix = math.exp(float(dof * math.log(sigma_min)
                            - np.sum(np.log(sigmas))))
    psis = [1.0]
    powers = np.ones_like(ratios)
    b = []  # b[k-1] = sum_l ratios^k
    q = q_max if ratios.any() else 0
    while True:
        while len(psis) <= q:
            n = len(psis)
            powers *= ratios
            b.append(float(np.sum(powers)))
            acc = 0.0
            for k in range(1, n + 1):
                acc += b[k - 1] * psis[n - k]
            psis.append(acc / n)
        residual = 1.0 - prefix * math.fsum(psis)
        if residual <= series_tol or q >= q_cap:
            return np.array(psis), residual, q
        q = min(max(2 * q, q_max), q_cap)


def poisson_mix_full_exp(z, table, k0: int, top: float, log_fact):
    """`specfun.poisson_mix` with exp taken of every term of every point
    and each point summed where it stands: the same terms and sums
    otherwise, so the reference for its rule that a term below the
    smallest normal double counts as 0 and for its summing each distinct
    z once."""
    n = k0 + len(table)
    at_inf = z == math.inf
    zf = np.where(at_inf, 0.0, z)
    with np.errstate(divide="ignore"):
        log_z = np.maximum(np.log(zf), -1e300)
    up = z < n
    m = n + poisson_series_terms(n) if top and up.any() else n
    a = np.multiply.outer(log_z, np.arange(k0, m, dtype=float))
    a -= zf[:, None]
    a -= log_fact[k0:m]
    np.exp(a, out=a)
    out = np.einsum("ij,j->i", a[:, :n - k0], table)
    out[at_inf] = 0.0
    if top:
        head = a[:, :n - k0].sum(axis=1)
        tail = np.where(up, a[:, n - k0:].sum(axis=1), 1.0 - head)
        tail[at_inf] = 1.0
        below = ~up & (a[:, 0] * k0 > 1e-17 * (z - k0))
        if below.any():  # P(n, z) = P(k0, z) - sum_(k0 <= k < n) p_k
            lf = log_factorials(k0 + poisson_series_terms(k0))
            tail[below] = poisson_mix_full_exp(
                z[below], np.zeros(k0), 0, 1.0, lf) - head[below]
        out += top * tail
    return out


def outage_count_float(lb, ms, g: float):
    """The closed-form SOP's outage count at 2^r0 = g in floats, as the
    package made it before its log-domain count: (pmf, P(count >= k)) for
    k < dof + q_max + 1, Bob's Poisson tails from his pmf (1 minus the head
    sum at k <= lambda, the reverse sum above) and one np.convolve per Eve.
    Its values underflow to 0 below about 1e-308."""
    theta = lb.gamma_bar_b * ms.sigma_min
    lam = (g - 1.0) / theta
    n = ms.dof + ms.q_max + 1
    idx = np.arange(len(ms.log_factorials), dtype=float)
    pmf = np.exp(sps.xlogy(idx, lam) - lam - ms.log_factorials)
    m = min(n, math.floor(lam) + 1)  # k <= lambda for k < m
    tail = np.cumsum(pmf[::-1])[::-1][:n]
    tail[0] = 1.0
    tail[1:m] = 1.0 - np.cumsum(pmf[:m - 1])
    idx, pmf = idx[:n], pmf[:n]
    for mu in sec._eve_scales(lb):
        log_r = -math.log1p(theta / (g * mu))
        v = np.convolve(pmf, np.exp(log_r * idx))[:n]
        tail[1:] += math.exp(log_r) * v[:-1]
        pmf = -math.expm1(log_r) * v
    return pmf, tail


# ---------------------------------------------------------------------------
# the Gauss-Kronrod engine with its panels in numpy arrays
# ---------------------------------------------------------------------------

def to_bisect_numpy(err, tol, room):
    """(the panels to bisect next, the panels kept, in their order) by their
    error estimates: bisected are those with the largest, until the others
    hold at most half of `tol`, and at most `room` of them."""
    order = (-err).argsort(kind="stable")
    # rest[i]: the estimates left once the i + 1 largest are bisected
    rest = np.zeros(err.size)
    err[order][:0:-1].cumsum(out=rest[1:])
    n = min(int((rest[::-1] <= 0.5 * tol).argmax()) + 1, room)
    kept = order[n:].copy()
    kept.sort()
    return order[:n], kept


def gk21_numpy(f, a, b, owner, epsabs, epsrel, limit=sec.QUAD_LIMIT):
    """`secrecy._gk21` with each piece's panels held and summed as numpy
    arrays (np.sum, argsort, cumsum): the reference, bit for bit, for the
    library's float-list bookkeeping and its pairwise sums."""
    n = len(a)
    vals, errs, counts = [0.0] * n, [0.0] * n, [0] * n
    owner = np.asarray(owner, dtype=int)
    base = np.array(a, dtype=float)
    mapped = np.array([hi == math.inf for hi in b], dtype=bool)
    # piece -> the (lo, hi) of its panels still to evaluate
    new = {i: (np.array([0.0 if mapped[i] else float(a[i])]),
               np.array([1.0 if mapped[i] else float(b[i])]))
           for i in range(n) if a[i] != b[i]}
    panels = {}  # one column (lo, hi, value, error) per panel
    while new:
        sizes = [lo.size for lo, _ in new.values()]
        lo = np.concatenate([lo for lo, _ in new.values()])
        hi = np.concatenate([hi for _, hi in new.values()])
        piece = np.repeat(list(new), sizes)
        h = 0.5 * (hi - lo)
        x = (0.5 * (lo + hi))[:, None] + h[:, None] * sec._GK_NODES
        on_t = mapped[piece]
        t = x[on_t]
        x[on_t] = base[piece[on_t], None] + (1.0 - t) / t
        fx = f(x.ravel(), np.repeat(owner[piece], x.shape[1])).reshape(x.shape)
        fx[on_t] = fx[on_t] / t / t
        results = sec._qk21(fx, h)
        pending, end = {}, 0
        for (i, (new_lo, new_hi)), size in zip(new.items(), sizes):
            v, e, asc = (r[end:end + size] for r in results)
            end += size
            old = panels.pop(i, None)  # the panels not bisected last pass
            if old is None and (e[0] == 0.0 or (
                    e[0] <= max(epsabs, epsrel * abs(v[0])) and e[0] != asc[0])):
                vals[i], errs[i], counts[i] = float(v[0]), float(e[0]), 1
                continue
            p = np.array([new_lo, new_hi, v, e])
            if old is not None:
                p = np.concatenate((old, p), axis=1)
            val, err = p[2].sum(), p[3].sum()
            tol = max(epsabs, epsrel * abs(val))
            if (old is not None and err <= tol) or p.shape[1] >= limit:
                vals[i], errs[i], counts[i] = float(val), float(err), p.shape[1]
                continue
            s, kept = to_bisect_numpy(p[3], tol, limit - p.shape[1])
            panels[i] = p[:, kept]
            lo_s, hi_s = p[0, s], p[1, s]
            mid = 0.5 * (lo_s + hi_s)
            pending[i] = np.concatenate((lo_s, mid)), np.concatenate((mid, hi_s))
        new = pending
    return vals, errs, counts


# ---------------------------------------------------------------------------
# the secrecy rate at 30 digits
# ---------------------------------------------------------------------------

def secrecy_rate_reference(lb, ms, dps: int = 30, breakpoints: int = 64) -> float:
    """(1/ln 2) int_0^inf S_b(x) F_e(x) / (1 + x) dx in mpmath at `dps`
    digits, for the series' float weights.

    S_b(x) = e^-z sum_k W_k z^k / k!, z = x/theta, is Bob's Poisson-sum
    survival (W_k = ms.tail_weights); F_e is Eve's CDF, the regularised
    gamma for collaborating Eves.  The integrand can be a narrow peak
    anywhere from 1e-4 to 1e4, so `mpmath.quad` gets `breakpoints` edges on
    a log grid there; with only a few it can step over such a peak.
    """
    with mpmath.workdps(dps):
        theta = mpmath.mpf(lb.gamma_bar_b) * mpmath.mpf(ms.sigma_min)
        mu, k = mpmath.mpf(lb.gamma_bar_e), lb.k_eves
        coeffs = [mpmath.mpf(float(w)) / mpmath.factorial(i)
                  for i, w in enumerate(ms.tail_weights)][::-1]

        def f(x):
            z = x / theta
            s_b = mpmath.exp(-z) * mpmath.polyval(coeffs, z)
            if lb.scenario == Scenario.MCE:
                f_e = mpmath.gammainc(k, 0, x / mu, regularized=True)
            else:  # the max of K exponentials; SE is K = 1
                f_e = (-mpmath.expm1(-x / mu)) ** k
            return s_b * f_e / (1 + x)

        edges = ([0] + [mpmath.mpf(float(b))
                        for b in np.geomspace(1e-4, 1e4, breakpoints)]
                 + [mpmath.inf])
        return float(mpmath.quad(f, edges) / mpmath.log(2))


# secrecy_rate_reference for the pinned series of tests/test_secrecy.py
# with 8 Eves at 20 dB, by (series, scenario, gamma_b in dB).  Recorded at
# 50 digits on 256 breakpoints; 40 digits on 128 give the same floats.
# The default 30 digits on 64 breakpoints are within 1.4e-13 (ms4) and
# 7.1e-13 (ms6) of them at MCE 0 dB and within 1.4e-16 elsewhere.
# Regenerate with
#   PYTHONPATH=src:tests python -c "import theorems; theorems.print_rate_references()"
RATE_REFERENCES = {
    ("ms4", "MIE", 0.0): 5.628062015783539e-21,
    ("ms4", "MIE", 20.0): 1.767962435955132e-05,
    ("ms4", "MCE", 0.0): 1.4248856926183063e-25,
    ("ms4", "MCE", 20.0): 2.1821965352221213e-09,
    ("ms6", "MIE", 0.0): 5.650289030205371e-20,
    ("ms6", "MIE", 20.0): 0.0001118334912410194,
    ("ms6", "MCE", 0.0): 1.4355733752685533e-24,
    ("ms6", "MCE", 20.0): 1.805351655313882e-08,
}


def print_rate_references(dps: int = 50, breakpoints: int = 256) -> None:
    """Print RATE_REFERENCES recomputed at `dps` digits on `breakpoints`
    edges, in the dict's own layout (about 20 s a value)."""
    from test_secrecy import lb_db, pinned_series

    for series, scen, gb_db in RATE_REFERENCES:
        lb = lb_db(gb_db, 20.0, 8, Scenario[scen])
        value = secrecy_rate_reference(lb, pinned_series(series), dps,
                                       breakpoints)
        print(f"    ({series!r}, {scen!r}, {gb_db!r}): {value!r},")


# ---------------------------------------------------------------------------
# the Gauss-Legendre rule with LAPACK's sterf
# ---------------------------------------------------------------------------

def sterf_legendre_rule(t: int):
    """The t-point Gauss-Legendre rule on [-1, 1] as numpy's leggauss
    builds it, with its dense companion eigensolve replaced by LAPACK's
    sterf.

    The symmetric companion matrix is tridiagonal: zero diagonal and
    off-diagonal k s_(k-1) s_k with s_k = 1/sqrt(2k+1).  sterf gives the
    same eigenvalues from the two diagonals alone (the default stemr
    driver does not: it moves the weights by 1e-9 at t = 1000).  The
    remaining steps are numpy's as written: one Newton step, the weights
    from legval and the symmetrisation.  The package's rule (numpy's
    leggauss) must equal it bit for bit, so that no spectrum, CSV or cache
    entry moves.
    """
    s = 1.0 / np.sqrt(2 * np.arange(t) + 1)
    x = sla.eigvalsh_tridiagonal(np.zeros(t), np.arange(1, t) * s[:-1] * s[1:],
                                 lapack_driver="sterf")
    c = np.zeros(t + 1)
    c[-1] = 1.0
    dy = leg.legval(x, c)
    df = leg.legval(x, leg.legder(c))
    x -= dy / df
    fm = leg.legval(x, c[1:])
    fm /= np.abs(fm).max()
    df /= np.abs(df).max()
    w = 1 / (fm * df)
    w = (w + w[::-1]) / 2
    x = (x - x[::-1]) / 2
    w *= 2. / w.sum()
    return x, w


# ---------------------------------------------------------------------------
# the sinc kernel's eigenvalues from the prolate matrix
# ---------------------------------------------------------------------------

def prolate_epsilons(c: float, count: int) -> np.ndarray:
    """The first `count` eigenvalues lambda_n(c) of the sinc kernel
    sin(c(x-y))/(pi(x-y)) on [-1, 1], descending; an aperture of length L
    at wavelength lambda has c = pi L/lambda and epsilon_n = lambda_n(c).

    The prolate functions psi_n are the eigenvectors of the Legendre-basis
    matrix of the prolate differential operator, which only couples degrees
    k and k+2: one symmetric tridiagonal matrix per parity in the
    normalised Legendre basis sqrt(k + 1/2) P_k, each solved by dense eigh
    (Xiao, Rokhlin & Yarvin, Inverse Problems 17, 2001).  With psi_n =
    sum_k beta_k Pbar_k of unit norm, the Fourier integral of psi_n at 0
    gives mu_n = sqrt(2) beta_0/psi_n(0) for even n and c sqrt(2/3)
    beta_1/psi_n'(0) for odd n, and lambda_n = (c/2 pi) mu_n^2.

    The basis runs to degree count + c + 100, past which no psi_n with
    n < count has weight above rounding.  A larger basis is no better: the
    eigenvector error grows like eps degree^2/gap.  Against 40-digit
    mpmath eigenvectors of the prolate matrix this is 2.3e-15, 1.4e-14 and
    7.9e-14 off in epsilon at c = 3 pi, 10 pi and 40 pi.
    """
    size = count // 2 + int(c) // 2 + 50  # per parity
    out = np.empty(2 * size)
    for parity in (0, 1):
        k = np.arange(parity, 2 * size, 2, dtype=float)
        diag = k * (k + 1) + c * c * (2 * k * (k + 1) - 1) / (
            (2 * k + 3) * (2 * k - 1))
        kk = k[:-1]
        off = c * c * (kk + 1) * (kk + 2) / (
            (2 * kk + 3) * np.sqrt((2 * kk + 1) * (2 * kk + 5)))
        _, beta = np.linalg.eigh(np.diag(diag) + np.diag(off, 1)
                                 + np.diag(off, -1))
        # P_k(0) for even k and P_k'(0) = k P_(k-1)(0) for odd k
        p0 = np.cumprod(np.concatenate(
            [[1.0], -(k[1:] - 1 - parity) / (k[1:] - parity)]))
        at0 = np.sqrt(k + 0.5) * p0 * (k if parity else 1.0)
        scale = math.sqrt(2.0) if parity == 0 else c * math.sqrt(2.0 / 3.0)
        mu = scale * beta[0] / (at0 @ beta)
        out[parity::2] = c / (2 * math.pi) * mu ** 2
    return out[:count]


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
                      n_trials)


def coefficient_of_variation(est: McEstimate) -> float:
    """Sample std / mean recovered from a Monte Carlo estimate."""
    return est.std_err * math.sqrt(est.n_trials) / est.mean
