"""Secrecy rate, outage probability, and high-SNR characterizations.

Three eavesdropping scenarios (single, independent-max, collaborative-sum)
are evaluated three ways that must agree: term-by-term closed forms, a
single-integral quadrature route, and the Monte Carlo module.  The closed
rate forms are alternating binomial sums that overflow and cancel, so the
standard path runs in signed log-domain arithmetic with a running
conditioning estimate.  Past a configurable DoF cap the extended path
integrates the secure probability P(C_s > r) over r instead.

Everything else sums positive terms: the closed-form SOP, the extended rate
and the array gain read one outage count in logs (`_count_laws`).
"""
from __future__ import annotations

import math
from itertools import accumulate

import numpy as np

from . import snr_models as snr
from .snr_models import LinkBudget, MoschopoulosSeries, Scenario
from .specfun import (EXTENDED, STANDARD, EvalPrecision,
                      EULER_GAMMA, SignedLog, _filled, exp_e1_log,
                      harmonic_number, log_binomial, scaled_e1,
                      signed_log_dot)
from .spectral import ComputationError

LN2 = math.log(2.0)
DEFAULT_CLOSED_FORM_DOF_CAP = 16
_PRECISION_LOSS_THRESHOLD = 1e-3
_TAIL_REL = 2.0 ** -60            # dropped mixture tail, relative to the rate
_TAIL_CUT_LOG = math.log(_TAIL_REL * 1e-12)


class PrecisionLossError(ArithmeticError):
    """Cancellation ate the significand; use quadrature or extended mode."""

    def __init__(self, estimated_rel_error: float):
        self.estimated_rel_error = estimated_rel_error
        super().__init__(
            f"estimated relative error {estimated_rel_error:.2e} exceeds "
            f"{_PRECISION_LOSS_THRESHOLD:.0e}; use the quadrature evaluator "
            "or extended precision"
        )


# ---------------------------------------------------------------------------
# the closed-form rate in signed log-domain floats
# ---------------------------------------------------------------------------

_ZERO = SignedLog(0, -math.inf)


def _exp(x):
    """e^x as a SignedLog."""
    return SignedLog.from_log(1, x)


def _pow(base, k):
    return SignedLog.from_log(1, k * math.log(base))


def _factorial(n):
    return SignedLog.from_log(1, math.lgamma(n + 1))


def _ln(x):
    return SignedLog.from_float(math.log(x))


def _alt_binomials(ln_c, ln_base=0.0):
    """C(n, k) (-1)^(n-k) base^(k+1), k = 0..n, from ln C(n, .), ln(base)."""
    n, row = len(ln_c) - 1, []
    for k, lc in enumerate(ln_c):
        mag = lc + (k + 1) * ln_base
        row.append(_filled(1 - 2 * ((n - k) & 1), mag, mag))
    return row


def _grown(tables, n):
    """The theta-free tables, grown to order n: the rows ln C(m, .), their
    alternating rows C(m, k) (-1)^(m-k) and m!, m <= n."""
    ln_c, alt, fact = (tables.setdefault(k, []) for k in ("lnc", "alt", "fact"))
    for m in range(len(ln_c), n + 1):
        ln_c.append([log_binomial(m, k) for k in range(m + 1)])
        alt.append(_alt_binomials(ln_c[m]))
        fact.append(_factorial(m))
    return ln_c, alt, fact


def _closed_rate_kernel(theta, mu, k_gamma, dof, log_weights, tables):
    """Mixture secrecy rate for Eve ~ Gamma(k_gamma, mu), Bob the gamma
    mixture with scale theta and shapes dof + q.

    k_gamma = 1 covers the single-Eve expression; the collaborative form is
    the same structure with the gamma-order sums carried along.  `tables`
    is `_rate_closed_dispatch`'s, which outlive this call; the kernel adds
    what it lacks of them.  Returns a SignedLog (bits).
    """
    K = k_gamma
    theta, mu = float(theta), float(mu)
    beta = 1 / mu + 1 / theta
    c1 = theta * mu / (theta + mu)    # = 1/beta
    rmu = mu / (theta + mu)
    n_hi = dof + len(log_weights) - 1
    n_arr = n_hi + K                  # F/G orders up to n_hi + K - 1
    ln_c, alt, fact = _grown(tables, n_arr)

    e_mu = _exp(1 / mu)
    e_th = _exp(1 / theta)
    e_mbeta = _exp(-beta)
    ln_theta = _ln(theta)
    ln_rmu = _ln(rmu)
    ln_c1 = _ln(c1)
    ln_beta = _ln(beta)
    e1_beta = _exp(exp_e1_log(beta))

    # G[j] = Gamma(j+1, beta), F[j] = F(j+1, beta), upward recurrences.
    G = [None] * n_arr
    F = [None] * n_arr
    G[0] = e_mbeta
    F[0] = ln_beta * e_mbeta + e1_beta
    for j in range(1, n_arr):
        pw = _pow(beta, j) * e_mbeta
        G[j] = j * G[j - 1] + pw
        F[j] = j * F[j - 1] + ln_beta * pw + G[j - 1]

    # alternating gamma-order coefficients C(K-1,c)(-1)^(K-1-c) c1^(c+1)
    KA = _alt_binomials(ln_c[K - 1], math.log(c1))
    c1_pow = [_pow(c1, f) for f in range(n_arr + 1)]

    FG = [f + ln_rmu * g for f, g in zip(F, G)]
    A = e_mu * signed_log_dot(KA, FG)

    gamma_k_mu = fact[K - 1] * _pow(mu, K)
    B = gamma_k_mu * _exp(exp_e1_log(1 / theta))
    for j in range(K):
        inner = ((-1) ** j) * e1_beta
        for t in range(1, j + 1):
            inner = inner + alt[j][t] * c1_pow[t] * G[t - 1]
        B = B - e_mu * (fact[K - 1] / fact[j]) * _pow(mu, K - j) * inner

    # SV[j] = sum_{r<j} rmu^r / r! * sum_c KA[c] G[r+c]   (no e^(1/mu) folded)
    one = SignedLog.from_float(1.0)
    rmu_pow = [one] + [_pow(rmu, r) for r in range(1, n_hi + 1)]
    SV = [_ZERO] * (n_hi + 2)
    for j in range(1, n_hi + 2):
        r = j - 1
        blk = signed_log_dot(KA, G[r:])
        SV[j] = SV[j - 1] + rmu_pow[r] / fact[r] * blk

    # PS[k] = sum_{j=1..k} (U_j + V_j)/j!
    PS = [_ZERO] * (n_hi + 1)
    for j in range(1, n_hi + 1):
        ub = signed_log_dot(KA, FG[j:])
        u = e_mu * rmu_pow[j] * ub
        v = fact[j - 1] * e_mu * SV[j]
        PS[j] = PS[j - 1] + (u + v) / fact[j]

    a_b, ln_theta_e_mu = A + B, ln_theta * e_mu
    bracket = [fact[k] * (a_b + PS[k] + ln_theta_e_mu * SV[k + 1])
               for k in range(n_hi)]

    # W2[f] = c1^(f+1) (F[f] + ln(c1) G[f]) feeds the log(1+rho_e) term.
    W2 = [c1_pow[f + 1] * (F[f] + ln_c1 * G[f]) for f in range(n_arr)]
    theta_pow = tables["theta_pow"]   # [1, theta, theta^2, ...]
    theta_pow += [_pow(theta, m) for m in range(len(theta_pow), n_hi + 1)]
    tau_prefix = [_ZERO] * (n_hi + 1)
    tau_scale = _exp(beta) / gamma_k_mu
    for m in range(n_hi):
        s = signed_log_dot(alt[K + m - 1], W2)
        tau = tau_scale / theta_pow[m] / fact[m] * s
        tau_prefix[m + 1] = tau_prefix[m] + tau

    ksum_rows = tables["ksum"]
    total = _ZERO
    for q, lw in enumerate(log_weights):
        n = dof + q
        row = ksum_rows.get(n)
        if row is None:
            row = ksum_rows[n] = _alt_binomials(ln_c[n - 1], math.log(theta))
        ksum = signed_log_dot(row, bracket)
        term1 = ksum * e_th / (fact[n - 1] * theta_pow[n] * gamma_k_mu)
        total = total + _exp(float(lw)) * (term1 - tau_prefix[n])
    return total / SignedLog.from_float(LN2)


def _mixture_cut(lb: LinkBudget, ms: MoschopoulosSeries):
    """(terms kept, bound in bits on each kernel's dropped mixture tail).

    The per-shape term is the secrecy rate for Bob ~ Gamma(dof + q, theta),
    which lies in [0, log2(1 + (dof + q) theta)] by Jensen; the weights are
    positive.  Terms are kept up to the first q whose tail bound is below
    2^-60 * 1e-12 bits.
    """
    theta = lb.gamma_bar_b * ms.sigma_min
    log_terms = ms.log_weights + np.log(np.log1p(ms.shapes * theta) / LN2)
    tails = np.append(np.logaddexp.accumulate(log_terms[::-1])[::-1][1:], -np.inf)
    q_stop = int(np.argmax(tails <= _TAIL_CUT_LOG))
    return q_stop + 1, math.exp(tails[q_stop])


def _rate_closed_dispatch(lb: LinkBudget, ms: MoschopoulosSeries, n_terms,
                          tables: dict):
    """The rate on the first n_terms terms of `ms`, a SignedLog: one kernel
    for SE and MCE, K at scales gamma_e/(a + 1) for MIE.  `tables` keeps,
    as long as its owner keeps it, the theta-free tables (`_grown`), and for
    one theta at a time its powers, binomial rows and each kernel's result,
    keyed (theta, mu, K, n_terms): a kernel already run is not run again.
    """
    theta = lb.gamma_bar_b * ms.sigma_min
    if tables.get("theta") != theta:
        tables.update(theta=theta, theta_pow=[SignedLog.from_float(1.0)],
                      ksum={}, kernels={})
    kernels = tables["kernels"]

    def kernel(mu, k):
        key = (theta, mu, k, n_terms)
        if key not in kernels:
            kernels[key] = _closed_rate_kernel(
                theta, mu, k, ms.dof, ms.log_weights[:n_terms], tables)
        return kernels[key]

    if lb.scenario != Scenario.MIE:  # SE is the K = 1 collaborative case
        return kernel(lb.gamma_bar_e, lb.k_eves)
    K = lb.k_eves
    ln_c = _grown(tables, K - 1)[0]
    total = _ZERO
    for a in range(K):
        coeff = (SignedLog.from_float(float(K)) * _exp(ln_c[K - 1][a])
                 * ((-1) ** a) / SignedLog.from_float(float(a + 1)))
        total = total + coeff * kernel(lb.gamma_bar_e / (a + 1), 1)
    return total


def secrecy_rate_closed(lb: LinkBudget, ms: MoschopoulosSeries,
                        prec: EvalPrecision | None = None, *,
                        dof_cap: int = DEFAULT_CLOSED_FORM_DOF_CAP,
                        tables: dict | None = None) -> float:
    """Term-by-term closed-form secrecy rate in bits/channel use.

    With prec=None the standard float path is used up to `dof_cap` spatial
    DoF and the extended path (`_rate_by_secure_probability`) beyond.  The
    standard path runs the mixture up to where its tail provably adds under
    2^-60 of the result, and raises PrecisionLossError when its conditioning
    estimate says the alternating sums left fewer than ~3 significant
    digits, when the value falls outside [0, log2(1 + gamma_b sum(sigma))],
    the range of the true rate, or when it is too small for the cut (below
    about 1e-12 bits, 2^K - 1 times that for MIE).

    Calls on one series may share a `tables` dict (a sweep passes one per
    aperture length and drops it with the length; by default each call has
    its own): the standard path keeps its work there, and its result is
    the double a call without it gives (`_rate_closed_dispatch`).
    """
    if prec is None:
        prec = STANDARD if ms.dof <= dof_cap else EXTENDED
    if prec.mode != "standard-float":
        return _rate_by_secure_probability(lb, ms)
    jensen = math.log2(1.0 + _bob_spread(lb, ms)[0])
    tables = {} if tables is None else tables
    n_cut, tail = _mixture_cut(lb, ms)
    # MIE weighs its K kernels by +-K C(K-1,a)/(a+1), of total magnitude 2^K - 1
    if lb.scenario == Scenario.MIE:
        tail *= 2.0 ** lb.k_eves - 1.0
    val = _rate_closed_dispatch(lb, ms, n_cut, tables)
    est_rel = 2.3e-16 * math.exp(min(val.log_condition(), 700.0))
    if est_rel > _PRECISION_LOSS_THRESHOLD:
        raise PrecisionLossError(est_rel)
    out = val.to_float()
    if (out > jensen * (1.0 + 1e-6)
            or out < -2.3e-16 * math.exp(min(val.mass, 700.0))
            or tail > _TAIL_REL * abs(out)):
        raise PrecisionLossError(math.inf)
    return max(out, 0.0)


def _rate_by_secure_probability(lb: LinkBudget, ms: MoschopoulosSeries) -> float:
    """The closed-form rate as E[C_s^+] = int_0^inf P(C_s > r) dr, C_s =
    log2(1 + rho_b) - log2(1 + rho_e), one `_log_outage_count` (r0 = r) for
    all nodes of a pass.  The pieces end at 0, at r* = log2((1 + E rho_b)/
    (1 + E rho_e)) where Eve's mass moves the knee (if r* lies inside), at
    log2(2 + mean + 12 std) past Bob's bulk, and at inf.  Raises
    ComputationError when the error estimate exceeds 1e-10 of the rate."""
    def f(rs, _):
        return _secure_probability(ms, _log_outage_count(lb, ms, rs * LN2))

    mean, std = _bob_spread(lb, ms)
    r_hi = math.log2(2.0 + mean + 12.0 * std)
    r_star = math.log2((1.0 + mean) / (1.0 + float(np.sum(_eve_scales(lb)))))
    edges = [0.0, r_star, r_hi, math.inf] if 0.0 < r_star < r_hi \
        else [0.0, r_hi, math.inf]
    return _raised(_piecewise_quad(f, [edges], 0.0, math.inf, "closed rate",
                                   max_rel=1e-10, epsrel=1e-13)[0])


# ---------------------------------------------------------------------------
# quadrature evaluators (independent route)
# ---------------------------------------------------------------------------

def _bob_spread(lb, ms):
    mean = lb.gamma_bar_b * float(np.sum(ms.sigmas))
    std = lb.gamma_bar_b * math.sqrt(float(np.sum(ms.sigmas ** 2)))
    return mean, std


# QUADPACK's qk21 (Piessens et al., QUADPACK, Springer 1983): the 21-point
# Kronrod extension of the 10-point Gauss rule on [-1, 1]
_GK_X = np.array([
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
    0.0])
_GK_WK = np.array([
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077208745815691, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821])
_GK_WG = np.array([
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338])
_GK_NODES = np.concatenate([-_GK_X[:10], _GK_X[::-1]])
_GK_KRONROD = np.concatenate([_GK_WK[:10], _GK_WK[::-1]])
_GK_GAUSS = np.zeros(21)  # the Gauss nodes are every other Kronrod node
_GK_GAUSS[1:10:2], _GK_GAUSS[11::2] = _GK_WG, _GK_WG[::-1]
_EPS = float(np.finfo(float).eps)
_TINY = float(np.finfo(float).tiny)
QUAD_LIMIT = 400  # panels per piece


def _qk21(fx, h):
    """qk21 on panels of half-width h from the integrand at their nodes, one
    row of fx per panel: (integrals, QUADPACK's error estimates, resasc).
    Each row's sums are numpy's own loops over that row alone, so a panel's
    results are the same whatever other panels share the call."""
    def kronrod(y):
        return np.einsum("ij,j->i", y, _GK_KRONROD)

    resk = kronrod(fx)
    err = np.abs(resk - np.einsum("ij,j->i", fx, _GK_GAUSS)) * h
    resabs = kronrod(np.abs(fx)) * h
    resasc = kronrod(np.abs(fx - 0.5 * resk[:, None])) * h
    pos = resasc > 0.0
    err = np.where(pos, resasc * np.minimum(
        1.0, 200.0 * err / np.where(pos, resasc, 1.0)) ** 1.5, err)
    # the roundoff floor, except (as in QUADPACK) for panels near underflow
    err = np.where(resabs > _TINY / (50.0 * _EPS),
                   np.maximum(50.0 * _EPS * resabs, err), err)
    return resk * h, err, resasc


def _to_bisect(err, tol, room) -> list:
    """The panels to bisect next by their error estimates, a list of floats:
    those with the largest, in numpy's stable order of -err (NaN last),
    until the others hold at most half of `tol`, and at most `room` of
    them."""
    n = len(err)
    if any(map(math.isnan, err)):
        order = sorted(range(n), key=lambda i: (err[i] != err[i], -err[i]))
    else:  # a stable sort keeps equal estimates in index order
        order = sorted(range(n), key=err.__getitem__, reverse=True)
    # rest[m]: the m smallest estimates, summed from the smallest up
    rest = list(accumulate(map(err.__getitem__, order[:0:-1]), initial=0.0))
    half = 0.5 * tol
    count = next((c for c in range(1, n + 1) if rest[n - c] <= half), 1)
    return order[:min(count, room)]


def _gk21(f, a, b, owner, epsabs, epsrel, limit=QUAD_LIMIT):
    """int_(a_i)^(b_i) f for every piece i (b_i may be inf) by adaptive
    qk21, all pieces in lockstep: (values, error estimates, panels), one
    entry per piece.

    f(x, j) takes a flat array of nodes and, for each node, the owner[i] of
    its piece.  Each pass makes one call of f, and one of `_qk21`, on every
    new panel of every unfinished piece, the nodes grouped by piece in
    piece order.  Each piece runs as it would alone.  A one-panel result
    stands, as in QUADPACK's qagse, only if its estimate is within
    max(epsabs, epsrel |I|) and is not resasc itself (the sign of an
    unresolved panel).  Otherwise each pass bisects the piece's panels with
    the largest estimates (`_to_bisect`), and the piece stops once its
    summed estimate is within the tolerance or at `limit` panels.  A piece
    [a, inf) is integrated over t in (0, 1] with x = a + (1 - t)/t.

    Between the calls a piece keeps its panels as Python float lists (lo,
    hi, value, error), the kept panels in their order and then the new
    ones; its value and error are the correctly rounded sums (`math.fsum`).
    """
    n = len(a)
    vals, errs, counts = [0.0] * n, [0.0] * n, [0] * n
    owner = np.asarray(owner, dtype=int)
    base = np.array(a, dtype=float)
    mapped = np.array([hi == math.inf for hi in b], dtype=bool)
    # piece -> the (lo, hi) of its panels still to evaluate
    new = {i: ([0.0], [1.0]) if mapped[i] else ([float(a[i])], [float(b[i])])
           for i in range(n) if a[i] != b[i]}
    panels = {}  # piece -> (lo, hi, value, error) of its kept panels
    while new:
        sizes = [len(lo) for lo, _ in new.values()]
        lo = np.array([x for lo, _ in new.values() for x in lo])
        hi = np.array([x for _, hi in new.values() for x in hi])
        piece = np.repeat(list(new), sizes)
        h = 0.5 * (hi - lo)
        x = (0.5 * (lo + hi))[:, None] + h[:, None] * _GK_NODES
        on_t = mapped[piece]
        any_t = on_t.any()
        if any_t:
            t = x[on_t]
            x[on_t] = base[piece[on_t], None] + (1.0 - t) / t
        fx = f(x.ravel(), np.repeat(owner[piece], x.shape[1])).reshape(x.shape)
        if any_t:
            fx[on_t] = fx[on_t] / t / t
        v_all, e_all, asc_all = (r.tolist() for r in _qk21(fx, h))
        pending, end = {}, 0
        for (i, (new_lo, new_hi)), size in zip(new.items(), sizes):
            start, end = end, end + size
            v, e = v_all[start:end], e_all[start:end]
            old = panels.pop(i, None)  # the panels not bisected last pass
            if old is None:
                if e[0] == 0.0 or (e[0] <= max(epsabs, epsrel * abs(v[0]))
                                   and e[0] != asc_all[start]):
                    vals[i], errs[i], counts[i] = v[0], e[0], 1
                    continue
                p = new_lo, new_hi, v, e
            else:
                p = tuple(o + c for o, c in zip(old, (new_lo, new_hi, v, e)))
            val, err = math.fsum(p[2]), math.fsum(p[3])
            tol = max(epsabs, epsrel * abs(val))
            if (old is not None and err <= tol) or len(p[2]) >= limit:
                vals[i], errs[i], counts[i] = val, err, len(p[2])
                continue
            s = _to_bisect(p[3], tol, limit - len(p[2]))
            lo_s, hi_s = [p[0][k] for k in s], [p[1][k] for k in s]
            for k in sorted(s, reverse=True):  # the rest keep their order
                for col in p:
                    del col[k]
            panels[i] = p
            mid = [0.5 * (x + y) for x, y in zip(lo_s, hi_s)]
            pending[i] = lo_s + mid, mid + hi_s
        new = pending
    return vals, errs, counts


def _piecewise_quad(f, edge_lists, epsabs: float, max_err: float, what: str,
                    max_rel: float | None = None, epsrel: float = 1e-11) -> list:
    """int_(edges[0])^(edges[-1]) f(x, j) for each list edges = edge_lists[j]
    (the last edge may be inf), one adaptive rule per piece between
    consecutive edges, each to max(epsabs, epsrel |I|); every piece of every
    integral runs in lockstep (`_gk21`), f getting each node's j.

    Each integral's value, or the ComputationError it raises: when its
    summed error estimates exceed max_err (or are NaN), or max_rel times the
    result clamped at 0 when max_rel is given.
    """
    a, b, owner = [], [], []
    for j, edges in enumerate(edge_lists):
        a += edges[:-1]
        b += edges[1:]
        owner += [j] * (len(edges) - 1)
    vals, errs, _ = _gk21(f, a, b, owner, epsabs, epsrel)
    out, end = [], 0
    for edges in edge_lists:
        start, end = end, end + len(edges) - 1
        val, err = math.fsum(vals[start:end]), math.fsum(errs[start:end])
        if not (err <= max_err and (max_rel is None
                                    or err <= max_rel * max(val, 0.0))):
            val = ComputationError(f"{what} quadrature achieved only "
                                   f"+-{err:.2e} on {val:.3e}")
        out.append(val)
    return out


def _raised(result):
    """A result of `_piecewise_quad`: its value, or raise its error."""
    if isinstance(result, Exception):
        raise result
    return result


def _lockstep(lbs, edges, bob, finish, clamp, *quad, **quad_kw) -> list:
    """For every link budget of `lbs`, the integral over edges(lb) of
    finish(x, lb, bob(x, gamma_b)) (`_piecewise_quad(f, edge lists, *quad,
    **quad_kw)`), all in lockstep: each clamp(value), or the
    ComputationError that integral raises.

    The integrals of one Eve law (scenario, gamma_e, K) run next to each
    other, so each pass makes one call of `bob` on all nodes, each node
    with its own gamma_b, and one of `finish` per Eve law, on its
    contiguous slice of nodes.  Every node's value is the double that its
    integral alone gives.
    """
    laws = {}
    for i, lb in enumerate(lbs):
        laws.setdefault((lb.scenario, lb.gamma_bar_e, lb.k_eves), []).append(i)
    order = [i for group in laws.values() for i in group]
    starts = np.cumsum([0] + [len(group) for group in laws.values()])
    gamma_b = np.array([lbs[i].gamma_bar_b for i in order])

    def f(x, j):
        out = bob(x, gamma_b[j])
        cuts = np.searchsorted(j, starts)  # the first node of each law
        for first, lo, hi in zip(starts, cuts, cuts[1:]):
            if lo < hi:
                out[lo:hi] = finish(x[lo:hi], lbs[order[first]], out[lo:hi])
        return out

    results = [None] * len(lbs)
    for i, r in zip(order, _piecewise_quad(f, [edges(lbs[i]) for i in order],
                                           *quad, **quad_kw)):
        results[i] = r if isinstance(r, Exception) else clamp(r)
    return results


def _rate_edges(lb, ms):
    """The rate integral's edges: 0, 50 gamma_e K if below the split past
    Bob's bulk, the split, and inf."""
    mean, std = _bob_spread(lb, ms)
    split = mean + 12.0 * std + 1.0
    # F_e rises from 0 to 1 over a few Eve SNR scales; a faint Eve's layer
    # is too thin for the adaptive rule to find on its own
    edges = [0.0, split, math.inf]
    if 50.0 * lb.gamma_bar_e * lb.k_eves < split:
        edges.insert(1, 50.0 * lb.gamma_bar_e * lb.k_eves)
    return edges


def rate_quadratures(lbs, ms: MoschopoulosSeries) -> list:
    """`secrecy_rate_quadrature` at every link budget of `lbs` on one
    series, the integrals in lockstep (`_lockstep`): each rate, or the
    ComputationError its integral raises."""
    return _lockstep(
        lbs, lambda lb: _rate_edges(lb, ms),
        lambda x, gamma_b: snr.bob_survival(x, gamma_b, ms),
        lambda x, lb, s_b: s_b * snr.eve_cdf(x, lb) / (1.0 + x) / LN2,
        lambda rate: max(rate, 0.0), 1e-9, 1e-6, "rate")


def secrecy_rate_quadrature(lb: LinkBudget, ms: MoschopoulosSeries) -> float:
    """E{[log2(1+rho_b) - log2(1+rho_e)]^+} as a single integral.

    Integration by parts of the double integral gives
    (1/ln 2) int_0^inf  P(rho_b > x) F_e(x) / (1+x) dx.
    """
    return _raised(rate_quadratures([lb], ms)[0])


def sop_quadratures(lbs, ms: MoschopoulosSeries, r0: float) -> list:
    """`sop_quadrature` at every link budget of `lbs` on one series, the
    integrals in lockstep (`_lockstep`): each SOP, or the ComputationError
    its integral raises."""
    snr.check_target_rate(r0)
    g = 2.0 ** r0

    def bob_cdf(y, gamma_b):
        with np.errstate(over="ignore"):  # inf past the double range
            x = g * (1.0 + y) - 1.0
        return snr.bob_cdf(x, gamma_b, ms)
    return _lockstep(
        lbs, lambda lb: [0.0, 40.0 * (lb.gamma_bar_e * lb.k_eves), math.inf],
        bob_cdf,
        lambda y, lb, f_b: snr.eve_pdf(y, lb) * f_b,
        lambda sop: min(max(sop, 0.0), 1.0), 1e-10, 1e-7, "SOP", max_rel=1e-6)


def sop_quadrature(lb: LinkBudget, ms: MoschopoulosSeries, r0: float) -> float:
    """P(rho_b < 2^r0 (1 + rho_e) - 1) by integrating over Eve's density."""
    return _raised(sop_quadratures([lb], ms, r0)[0])


# ---------------------------------------------------------------------------
# closed-form secrecy outage probability
# ---------------------------------------------------------------------------

def _eve_scales(lb: LinkBudget) -> np.ndarray:
    """Eve's SNR is sum_j mu_j E_j over K unit exponentials: mu_j = gamma_e
    for collaborative Eves (and the single Eve), gamma_e / j for independent
    ones, the largest of K Exp(gamma_e) (Renyi's order statistics)."""
    k = lb.k_eves
    j = np.arange(1.0, k + 1.0) if lb.scenario == Scenario.MIE else np.ones(k)
    return lb.gamma_bar_e / j


def _geometric_steps(log_h, log_c, k):
    """h_n <- sum_(i<=n) h_i c_j^(n-i) for each column j of ln c (a row per
    row of ln h, n = k along it), in logs; each step yields ln h_n - n ln c_j,
    its head sum's frame, so that it rounds at that sum's log."""
    slope = 0.0
    for lc in log_c.T[:, :, None]:  # a column of ln c, as rows
        log_h = np.logaddexp.accumulate(log_h + k * (slope - lc), axis=1)
        slope = lc
        yield log_h


@np.errstate(divide="ignore", over="ignore")
def _count_laws(lb: LinkBudget, ms: MoschopoulosSeries, log_g):
    """ln lambda, Bob's ln pmf, ln r_j, ln(1 - r_j) by row of ln g = r0 ln 2:
    shape n's outage is P(Pois(lambda) + sum_j Geom(r_j) >= n) with lambda
    = (g - 1)/theta, r_j = g mu_j/(theta + g mu_j) (`_eve_scales`)."""
    log_g = np.asarray(log_g, dtype=float)[:, None]
    log_theta = math.log(lb.gamma_bar_b * ms.sigma_min)
    log_lam = log_g + np.log(-np.expm1(-log_g)) - log_theta
    log_pmf = (np.arange(len(ms.log_factorials)) * log_lam - np.exp(log_lam)
               - ms.log_factorials)
    d = log_theta - log_g - np.log(_eve_scales(lb))  # ln((1 - r_j)/r_j)
    return log_lam, log_pmf, -np.logaddexp(0.0, d), -np.logaddexp(0.0, -d)


def _log_outage_count(lb: LinkBudget, ms: MoschopoulosSeries, log_g):
    """ln pmf of the count below dof + q_max + 1, a row per ln g: Bob's pmf
    after one geometric step per Eve (c = r_j), times prod_j (1 - r_j)."""
    k = np.arange(ms.dof + ms.q_max + 1, dtype=float)
    _, log_pmf, log_r, log_1mr = _count_laws(lb, ms, log_g)
    *_, log_h = _geometric_steps(log_pmf[:, :k.size], log_r, k)
    return log_h + k * log_r[:, -1:] + np.sum(log_1mr, axis=1, keepdims=True)


def _secure_probability(ms: MoschopoulosSeries, log_pmf) -> np.ndarray:
    """sum_q w_q P(count < dof + q) by row: float head sums, each alone."""
    head = np.cumsum(np.exp(log_pmf), axis=1)[:, ms.dof - 1:-1]
    return np.einsum("ij,j->i", head, ms.weights)


def _log_sop(lb: LinkBudget, ms: MoschopoulosSeries, log_g: float) -> float:
    """ln SOP = ln sum_q w_q P(count >= dof + q) at 2^r0 = g.  Eve j's step
    makes the count (1 - r_j) v_j and adds E_j = r_j v_j[k - 1] to P(count >=
    k), off by about eps n |ln r_j| (its frame).  Where the count's H =
    `_secure_probability` < E the SOP is C_q_max - H, else E plus Bob's share:
    C_q_max - his H at lambda >= n, else sum_(k>=dof) p_k C_(k - dof)."""
    dof, n, total = ms.dof, ms.dof + ms.q_max + 1, ms.cum_weights[-1]
    log_lam, log_pmf, log_r, log_1mr = _count_laws(lb, ms, [log_g])
    k = np.arange(n, dtype=float)
    steps = list(_geometric_steps(log_pmf[:, :n], log_r, k))
    log_s = np.cumsum(log_1mr)  # ln prod_(i<=j) (1 - r_i)
    eve = np.array([h[0, dof - 1:-1] for h in steps]) + log_r.T * k[dof:]
    eve = (eve + ms.log_weights + (log_s - log_1mr[0])[:, None]).ravel()
    head = _secure_probability(ms, steps[-1] + k * log_r[:, -1:] + log_s[-1])
    if head[0] < np.sum(np.exp(eve)):
        return math.log(total - head[0])
    log_c = np.log(ms.cum_weights)
    bob = [log_pmf[0, dof:n] + log_c, log_c[-1] + log_pmf[0, n:]]
    if log_lam[0, 0] >= math.log(n):
        bob = [[math.log(total - _secure_probability(ms, log_pmf[:, :n])[0])]]
    terms = np.concatenate(bob + [eve])
    top = float(np.max(terms))
    return top + math.log(float(np.sum(np.exp(terms - top))))


def sop_closed(lb: LinkBudget, ms: MoschopoulosSeries, r0: float) -> float:
    """Closed-form SOP at target rate r0 (bits): e^`_log_sop`."""
    snr.check_target_rate(r0)
    return min(math.exp(_log_sop(lb, ms, r0 * LN2)), 1.0)


# ---------------------------------------------------------------------------
# high-SNR characterization
# ---------------------------------------------------------------------------

def high_snr_slope(ms: MoschopoulosSeries) -> float:
    """prefix * sum(psi_q): the multiplexing coefficient, 1 by normalization."""
    return float(np.exp(ms.log_weight_prefix) * math.fsum(ms.psis))


def _weighted_harmonic(ms: MoschopoulosSeries) -> float:
    # H_(dof+q-1) for every shape: one fsum for q = 0, then a cumulative pass
    steps = 1.0 / np.arange(ms.dof, ms.dof + ms.q_max, dtype=float)
    h = harmonic_number(ms.dof - 1) + np.append(0.0, np.cumsum(steps))
    w = ms.weights
    return float((w @ h) / np.sum(w))


def offset_eve_term(lb: LinkBudget) -> float:
    """The e^x E1(x) combination entering the power offset, per scenario:
    a function of (scenario, K, gamma_e) alone."""
    if lb.scenario == Scenario.MIE:
        return independent_eve_offset_term(lb.k_eves, lb.gamma_bar_e)
    return scaled_e1(1.0 / (lb.k_eves * lb.gamma_bar_e))


def high_snr_offset(lb: LinkBudget, ms: MoschopoulosSeries,
                    eve_term: float | None = None) -> float:
    """High-SNR power offset in log2-SNR units (3.01 dB per unit).
    `eve_term`, when given, is `offset_eve_term(lb)` made by the caller."""
    if eve_term is None:
        eve_term = offset_eve_term(lb)
    return (-math.log2(ms.sigma_min)
            + (EULER_GAMMA + eve_term - _weighted_harmonic(ms)) / LN2)


def asymptotic_rate(lb: LinkBudget, ms: MoschopoulosSeries,
                    eve_term: float | None = None) -> float:
    """High-SNR affine approximation slope*(log2 SNR - offset), clamped at 0;
    `eve_term` as for `high_snr_offset`.

    Documented validity: Bob SNR of roughly 30 dB and above.
    """
    s = high_snr_slope(ms)
    off = high_snr_offset(lb, ms, eve_term=eve_term)
    return max(s * (math.log2(lb.gamma_bar_b) - off), 0.0)


def diversity_and_gain(lb: LinkBudget, ms: MoschopoulosSeries,
                       r0: float) -> tuple[int, float]:
    """Outage exponent (= spatial DoF in every scenario) and array gain.

    SOP -> (Ag gamma_b)^(-dof), Ag^(-dof) prod(sigma) = [z^dof] e^((g-1) z)
    prod_j 1/(1 - g mu_j z), `sop_closed`'s count as theta -> inf: each Eve
    is one geometric step (`_geometric_steps`) with c = g mu_j, in logs."""
    snr.check_target_rate(r0)
    log_g = r0 * LN2
    idx = np.arange(ms.dof + 1, dtype=float)
    log_gm1 = log_g + math.log(-math.expm1(-log_g))
    log_h = idx * log_gm1 - ms.log_factorials[:ms.dof + 1]
    log_c = log_g + np.log(_eve_scales(lb))
    *_, log_h = _geometric_steps(log_h[None, :], log_c[None, :], idx)
    log_h = log_h[0, -1] + ms.dof * log_c[-1] - np.sum(np.log(ms.sigmas))
    return ms.dof, math.exp(-log_h / ms.dof)


def sop_asymptotic(lb: LinkBudget, ms: MoschopoulosSeries, r0: float) -> float:
    """Leading outage law (Ag * gamma_b)^(-dof), for plotting."""
    dof, gain = diversity_and_gain(lb, ms, r0)
    expo = -dof * (math.log(gain) + math.log(lb.gamma_bar_b))
    return math.exp(expo) if expo < 700.0 else math.inf


# ---------------------------------------------------------------------------
# independent-Eves term of the power offset
# ---------------------------------------------------------------------------

def independent_eve_offset_term(k: int, gamma_e: float) -> float:
    """y(K) = E ln(1 + max of K Eve SNRs), increasing in K.

    The integral of the max's survival 1 - (1 - e^(-x/ge))^K against
    1/(1+x): nothing cancels.  The survival falls past ge ln K and is below
    e^-40 beyond ge (ln K + 40), where the integral stops (the rest is
    under 1e-17 of y)."""
    def f(x, _):
        return -np.expm1(k * np.log1p(-np.exp(-x / gamma_e))) / (1.0 + x)

    edge = gamma_e * math.log(k)
    return _raised(_piecewise_quad(f, [[0.0, edge, edge + 40.0 * gamma_e]],
                                   0.0, 1e-9, "offset")[0])
