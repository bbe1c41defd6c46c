"""Parameter sweeps with reproducible CSV output.

A sweep walks one axis (Bob SNR, Eve SNR, aperture length, eavesdropper
count), evaluates the requested metrics with the requested evaluators for
each scenario, and emits one CSV row per (value, scenario, evaluator,
metric).  Output is byte-deterministic for a fixed seed; how each aperture
length's spectrum came out and how long its calls took go to a summary
stream, one line per length.
"""
from __future__ import annotations

import json
import os
import sys
import threading
import time
from collections import namedtuple
from dataclasses import dataclass, field, replace

import numpy as np

from . import montecarlo as mc
from . import secrecy as sec
from . import snr_models as snr
from . import spectral as spc
from .snr_models import LinkBudget, Scenario

CSV_HEADER = "axis,value,scenario,evaluator,metric,result,std_err,seed"

# sweep axis -> the setting its values override at each grid point
AXES = {"gamma_b_db": "gamma_b_db", "gamma_e_db": "gamma_e_db",
        "aperture_len": "aperture_len_m", "k_eves": "k_eves"}
SCENARIOS = ("SE", "MIE", "MCE")

# one grid point of an aperture length: its grid value and link budget
_Point = namedtuple("_Point", "value lb")
# an aperture length as its rows' calls see it: the sweep's cfg, the
# length's grid index ai, geometry, series and closed-rate tables, and the
# sweep's unit Eve draws by (scenario, K) (`_resolve_eves`) and
# power-offset Eve terms (`_eve_term`), and its draw job, a dict that
# `_draws` and `_sampled` fill, when a requested row reads `_sampled`
_Aperture = namedtuple("_Aperture",
                       "cfg ai geom ms tables eves eve_terms r0 draws")


def _try(fn, *args):
    """fn(*args), or the exception it raised, without the traceback whose
    frames would hold its arguments: only the rows that read it report it."""
    try:
        return fn(*args)
    except Exception as exc:
        return exc.with_traceback(None)


def _shared(result):
    """A result that many rows read, or raise the exception it is."""
    if isinstance(result, Exception):
        # each row starts a new traceback; re-raising would extend the old
        raise result.with_traceback(None)
    return result


def _each(fn):
    """A call that makes fn(aperture, lb) at each point on its own."""
    return lambda a, points: [_try(fn, a, p.lb) for p in points]


def _eve_term(a, lb):
    """The power offset's Eve term at lb's Eve law, made once per
    (scenario, K, gamma_e) in a sweep: it depends on neither the aperture
    nor gamma_b."""
    key = lb.scenario, lb.k_eves, lb.gamma_bar_e
    if key not in a.eve_terms:
        a.eve_terms[key] = sec.offset_eve_term(lb)
    return a.eve_terms[key]


def _draws(a, value, evaluators) -> None:
    """The draws `_sampled` reads before its first loop, made where a.draws
    is the job: job["draws"] maps monte-carlo and spda-mc, as far as they
    are in `evaluators`, to Bob's or the array's unit draws, each as `_try`
    gives it; grid value `value`'s Eve sets are resolved into a.eves, and
    job["ms"] is the elapsed time."""
    t0 = time.perf_counter()
    cfg, n, out = a.cfg, a.cfg.n_trials, {}
    if "monte-carlo" in evaluators:
        out["monte-carlo"] = _try(mc.unit_bob_draws, a.ms, n,
                                  _seed(cfg.seed, a.ai))
    if "spda-mc" in evaluators:
        out["spda-mc"] = _try(mc.unit_spda_draws, a.geom, n,
                              _seed(cfg.seed, a.ai, 0))
    _resolve_eves(cfg, value, a.eves)
    a.draws["draws"] = out
    a.draws["ms"] = (time.perf_counter() - t0) * 1e3


def _sampled(a, points):
    """{evaluator: its (rate, sop) estimates} at each point, for monte-carlo
    and spda-mc as far as the sweep asks for them.  Bob's and the array's
    unit draws, once per aperture, and the first value's Eve sets come from
    the aperture's draw job (`_draws`), whose thread it joins first; then
    the points run in grid order on this thread, each later value's Eve
    sets resolved before its first point, so both loops at every point of a
    (scenario, K) read one array.  The loops' time is added to the job's
    "ms"."""
    n, loops, job = a.cfg.n_trials, {}, a.draws
    job["thread"].join()
    t0 = time.perf_counter()
    draws = job["draws"]
    if "monte-carlo" in draws:
        bob = draws["monte-carlo"]
        loops["monte-carlo"] = lambda lb, eve: mc.mc_secrecy(
            lb, _shared(bob), _shared(eve), a.r0, n)
    if "spda-mc" in draws:
        array = draws["spda-mc"]
        loops["spda-mc"] = lambda lb, eve: mc.spda_baseline(
            lb, a.geom, _shared(array), _shared(eve), a.r0, n)
    out = []
    for i, p in enumerate(points):
        if i > 0 and p.value != points[i - 1].value:
            _resolve_eves(a.cfg, p.value, a.eves)
        key = p.lb.scenario.value, p.lb.k_eves
        out.append({ev: _try(loop, p.lb, a.eves[key])
                    for ev, loop in loops.items()})
    job["ms"] += (time.perf_counter() - t0) * 1e3
    return out


# (evaluator, metric) -> (call, path): call(aperture, points) gives one
# value or exception per point; the row is that value, or with a path the
# mean and std_err of the estimate that its keys pick out of it.  A sweep
# makes each call once per aperture length, so one sampled run feeds the
# rate and sop rows of both sampled evaluators.  The calls look the library
# up when they run: a module attribute replaced after import (a tracer) is
# what runs.
ROWS = {
    ("closed-form", "rate"): (_each(lambda a, lb: sec.secrecy_rate_closed(
        lb, a.ms, tables=a.tables)), ()),
    ("closed-form", "sop"):
        (_each(lambda a, lb: sec.sop_closed(lb, a.ms, a.r0)), ()),
    ("closed-form", "slope"):
        (_each(lambda a, lb: sec.high_snr_slope(a.ms)), ()),
    ("closed-form", "offset"): (_each(lambda a, lb: sec.high_snr_offset(
        lb, a.ms, eve_term=_eve_term(a, lb))), ()),
    ("closed-form", "gain"):
        (_each(lambda a, lb: sec.diversity_and_gain(lb, a.ms, a.r0)[1]), ()),
    ("quadrature", "rate"): (lambda a, points: sec.rate_quadratures(
        [p.lb for p in points], a.ms), ()),
    ("quadrature", "sop"): (lambda a, points: sec.sop_quadratures(
        [p.lb for p in points], a.ms, a.r0), ()),
    ("asymptotic", "rate"): (_each(lambda a, lb: sec.asymptotic_rate(
        lb, a.ms, eve_term=_eve_term(a, lb))), ()),
    ("asymptotic", "sop"):
        (_each(lambda a, lb: min(sec.sop_asymptotic(lb, a.ms, a.r0), 1.0)),
         ()),
    ("monte-carlo", "rate"): (_sampled, ("monte-carlo", 0)),
    ("monte-carlo", "sop"): (_sampled, ("monte-carlo", 1)),
    ("spda-mc", "rate"): (_sampled, ("spda-mc", 0)),
    ("spda-mc", "sop"): (_sampled, ("spda-mc", 1)),
}
EVALUATORS = tuple(dict.fromkeys(ev for ev, _ in ROWS))
OUTPUTS = tuple(dict.fromkeys(m for _, m in ROWS))


class ConfigError(ValueError):
    """Invalid configuration; the message names the offending field."""


def _number(v, kinds=(int, float)) -> bool:
    # bool is an int subclass, but JSON true/false is no number; json also
    # reads NaN, +-Infinity and integers past the float range, which no
    # setting or grid value may be
    return (isinstance(v, kinds) and not isinstance(v, bool)
            and abs(v) <= sys.float_info.max)


@dataclass
class SweepConfig:
    # system; the defaults are the paper's Table 1 setup
    wavelength_m: float = 0.1249
    aperture_len_m: float = 40 * 0.1249
    gamma_b_db: float = 20.0
    gamma_e_db: float = 20.0
    k_eves: int = 5
    target_rate_r0: float = 3.0
    # Nystrom order; None is each aperture's converged spectral.nystrom_order
    quadrature_order: int | None = None
    n_trials: int = 200_000
    seed: int = 20260810
    # sweep
    axis: str = "gamma_b_db"
    values: list = field(default_factory=lambda: [-10.0, 0.0, 10.0, 20.0, 30.0])
    scenarios: list = field(default_factory=lambda: ["SE", "MIE", "MCE"])
    evaluators: list = field(default_factory=lambda: ["quadrature", "monte-carlo"])
    outputs: list = field(default_factory=lambda: ["rate", "sop"])

    def validate(self):
        def bad(fieldname, msg):
            raise ConfigError(f"{fieldname}: {msg}")

        for name in ("wavelength_m", "aperture_len_m", "target_rate_r0"):
            if not (_number(getattr(self, name)) and getattr(self, name) > 0):
                bad(name, "must be a positive finite number")
        if self.target_rate_r0 >= snr.MAX_TARGET_RATE:
            bad("target_rate_r0", f"must be below {snr.MAX_TARGET_RATE:g}")
        for name in ("gamma_b_db", "gamma_e_db"):
            if not _number(getattr(self, name)):
                bad(name, "must be a finite number")
        for name in ("k_eves", "quadrature_order", "n_trials"):
            v = getattr(self, name)
            if name == "quadrature_order" and v is None:
                continue
            if not (_number(v, int) and v > 0):
                bad(name, "must be a positive integer")
        if not (_number(self.seed, int) and self.seed >= 0):
            bad("seed", "must be a nonnegative integer")
        if self.axis not in AXES:
            bad("axis", f"must be one of {tuple(AXES)}")
        if not (isinstance(self.values, list) and self.values
                and all(_number(v) for v in self.values)):
            bad("values", "must be a nonempty increasing list of finite numbers")
        vals = [float(v) for v in self.values]
        if any(b <= a for a, b in zip(vals, vals[1:])):
            bad("values", "must be strictly increasing")
        if self.axis == "k_eves" and any(v < 1 or v != int(v) for v in vals):
            bad("values", "k_eves values must be integers >= 1")
        if self.axis == "aperture_len" and any(v <= 0 for v in vals):
            bad("values", "aperture lengths must be positive")
        for name, known in (("scenarios", SCENARIOS),
                            ("evaluators", EVALUATORS), ("outputs", OUTPUTS)):
            items = getattr(self, name)
            if not (isinstance(items, list)
                    and all(isinstance(x, str) for x in items)):
                bad(name, "must be a list of strings")
            if not items:
                bad(name, f"must list at least one {name[:-1]}")
            for x in items:
                if x not in known:
                    bad(name, f"unknown {name[:-1]} {x!r}")
            if len(set(items)) < len(items):
                bad(name, f"lists a {name[:-1]} more than once")
        if "monte-carlo" in self.evaluators and self.n_trials < mc.MIN_TRIALS:
            bad("n_trials", f"monte-carlo needs at least {mc.MIN_TRIALS}")
        return self


def _read_text(path: str, what: str) -> str:
    """The whole UTF-8 file; a path that cannot be read is a ConfigError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ConfigError(f"{what}: cannot read {path}: {exc.strerror}") from None
    except UnicodeDecodeError:
        raise ConfigError(f"{what}: {path} is not UTF-8 text") from None


def load_config(path: str) -> SweepConfig:
    """Parse a JSON config; fields it leaves out keep the Table 1 defaults."""
    try:
        raw = json.loads(_read_text(path, "config"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config: invalid JSON: {exc}")
    return config_from_dict(raw)


def config_from_dict(raw: dict) -> SweepConfig:
    if not isinstance(raw, dict):
        raise ConfigError("config: top level must be an object")
    raw = dict(raw)
    # "table1" names the defaults; it stays accepted for existing configs
    preset = raw.pop("preset", None)
    if preset not in (None, "table1"):
        raise ConfigError(f"preset: unknown preset {preset!r}")
    cfg = SweepConfig()
    if "aperture_lambdas" in raw:
        if "aperture_len_m" in raw:
            raise ConfigError("aperture_lambdas: give it or aperture_len_m, "
                              "not both")
        lambdas = raw.pop("aperture_lambdas")
        wavelength = raw.get("wavelength_m", cfg.wavelength_m)
        if not (_number(lambdas) and _number(wavelength)):
            raise ConfigError("aperture_lambdas: needs a number, and a "
                              "numeric wavelength_m")
        cfg.aperture_len_m = float(lambdas) * float(wavelength)
    known = set(cfg.__dataclass_fields__)
    for k, v in raw.items():
        if k not in known:
            raise ConfigError(f"{k}: unknown field")
        setattr(cfg, k, v)
    return cfg.validate()


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _db_to_lin(db: float) -> float:
    return 10.0 ** (db / 10.0)


def _seed(root: int, *key: int) -> int:
    # the streams under the root seed: (ai,) for Bob's and (ai, 0) for the
    # array's draws at aperture index ai, and (SCENARIOS.index(scenario), K)
    # for Eve's, K >= 1
    return int(np.random.SeedSequence(root, spawn_key=key).generate_state(1)[0])


def _eve_key(scen_name: str, k_eves) -> tuple[str, int]:
    """(scenario, K) of a point: SE has one eavesdropper at any k_eves."""
    return scen_name, 1 if scen_name == "SE" else int(k_eves)


def _resolve_eves(cfg: SweepConfig, value: float, eves: dict) -> None:
    """Make `eves` map (scenario, K) to the unit Eve draws of every scenario
    at grid value `value`: it keeps the draws it holds that the value
    reads, lets the rest go and then draws the missing ones, so on the
    k_eves axis one value's sets are held at a time."""
    k_eves = value if cfg.axis == "k_eves" else cfg.k_eves
    keys = [_eve_key(scen, k_eves) for scen in cfg.scenarios]
    for key in set(eves) - set(keys):
        del eves[key]
    for scen, k in keys:
        if (scen, k) not in eves:
            eves[scen, k] = _try(mc.unit_eve_draws, Scenario(scen), k,
                                 cfg.n_trials,
                                 _seed(cfg.seed, SCENARIOS.index(scen), k))


def _budget(cfg: SweepConfig, value: float, scen_name: str) -> LinkBudget:
    """The link budget of the point at grid value `value` and scenario."""
    at = replace(cfg, **{AXES[cfg.axis]: value})
    return LinkBudget(_db_to_lin(at.gamma_b_db), _db_to_lin(at.gamma_e_db),
                      _eve_key(scen_name, at.k_eves)[1], Scenario(scen_name))


def _cells(result, path) -> tuple[str, str]:
    """A row's result and std_err cells from its call's result at the
    point (`ROWS`)."""
    for key in path:
        result = _shared(result)[key]
    result = _shared(result)
    return (_fmt(result.mean), _fmt(result.std_err)) if path else (
        _fmt(result), "")


def _sweep_aperture(cfg: SweepConfig, ai: int, length: float, values: list,
                    eves: dict, eve_terms: dict, cache_dir, out) -> tuple:
    """Run the grid points at `values`, all at aperture `length` (grid index
    `ai`): each distinct call that a requested row reads, once over all the
    points, then the rows, written to `out` in grid order.  Returns (the
    spectrum, or the exception resolving it raised; whether a row failed;
    each call's wall time in ms, keyed by the rows that read it).  The
    length's series, tables and draws live only in this call.

    When a requested row reads `_sampled`, its `_draws` start on a second
    thread once the series and points exist, while this one makes the
    other calls.  Every other call, the spectral stage and every loop run
    on this thread, and the draw thread is joined before this call
    returns, whatever it raises.  The sampled call's time is the draw
    job's elapsed time, which includes its waits for the GIL while the
    analytic calls run, and the loops' time, not the time `_sampled`
    waited for the job."""
    try:
        geom = spc.ApertureGeometry(cfg.wavelength_m, length)
        spec = spc.cached_decompose(geom, cfg.quadrature_order, cache_dir)
        a = _Aperture(cfg, ai, geom, snr.build_psi(spec), {}, eves,
                      eve_terms, cfg.target_rate_r0, None)
    except Exception as exc:  # every point at this length reports it
        spec = a = exc
    # every point in grid order with its link budget, or the exception of
    # its budget, else of its length; the calls run at the points with one
    budgets = [(value, scen, _try(_budget, cfg, value, scen))
               for value in values for scen in cfg.scenarios]
    if isinstance(a, Exception):
        budgets = [(v, s, lb if isinstance(lb, Exception) else a)
                   for v, s, lb in budgets]
    points = [_Point(value, lb) for value, _, lb in budgets
              if not isinstance(lb, Exception)]
    reads = {ev: {m: ROWS[ev, m] for m in cfg.outputs if (ev, m) in ROWS}
             for ev in cfg.evaluators}
    # each distinct call with the rows that read it; the calls run once,
    # `_sampled` last, since it joins the draws' job, and none without points
    names = {}
    for ev, rows in reads.items():
        for m, (call, _) in rows.items():
            names.setdefault(call, []).append(f"{ev}/{m}")
    distinct = sorted(names, key=lambda c: c is _sampled) if points else []
    job = {}  # the draw job's thread, draws and time (`_draws`)
    if _sampled in distinct:
        a = a._replace(draws=job)
        job["thread"] = threading.Thread(target=_draws, args=(
            a, points[0].value, [ev for ev, r in reads.items() if r]))
        job["thread"].start()
    # each call's value or exception at each point, and its time
    results, ms = {}, {}
    try:
        for call in distinct:
            t0 = time.perf_counter()
            r = _try(call, a, points)
            results[call] = ([r] * len(points) if isinstance(r, Exception)
                             else r)
            ms[call] = (time.perf_counter() - t0) * 1e3
    finally:
        if job:  # no draw outlives its aperture, even on Ctrl-C
            job["thread"].join()
    if "ms" in job:  # the job's time and the loops', not the join's wait
        ms[_sampled] = job["ms"]
    failed, j = False, -1  # j: the point's index in `points`
    for value, scen, lb in budgets:
        j += not isinstance(lb, Exception)
        for ev, rows in reads.items():
            try:
                _shared(lb)
                cells = {m: _cells(results[call][j], path)
                         for m, (call, path) in rows.items()}
            except Exception as exc:  # keep sweeping, tag the row
                cells = {"error": (f"error:{type(exc).__name__}", "")}
            for metric, (r, se) in cells.items():
                out.write(f"{cfg.axis},{_fmt(value)},{scen},{ev},{metric},"
                          f"{r},{se},{cfg.seed}\n")
            failed = failed or "error" in cells
    return spec, failed, {"+".join(names[call]): t for call, t in ms.items()}


def _summary(cfg: SweepConfig, length: float, spec, times: dict) -> str:
    """The summary line of aperture `length`: its spectrum or the error
    resolving it, then each call's wall time there (`_sweep_aperture`)."""
    if isinstance(spec, Exception):
        detail = f"error:{type(spec).__name__}: {spec}"
    else:
        t = cfg.quadrature_order or spc.nystrom_order(spec)
        counts = [spc.landau_count(spec, e) for e in (0.01, 0.5, 0.99)]
        detail = (f"dof={spec.dof} t={t} "
                  f"trace_residual={spec.trace_residual:.3e} "
                  "landau_counts(eps=0.01/0.5/0.99)="
                  + "/".join(map(str, counts)))
    calls = "".join(f" {rows}={ms:.3f}ms" for rows, ms in times.items())
    return f"spectrum: aperture_len={length:g} {detail}{calls}"


def run_sweep(cfg: SweepConfig, out_stream, *, cache_dir=None,
              summary_stream=None) -> int:
    """Execute the sweep; returns the process exit code (0 ok, 1 point errors).

    The grid runs one aperture length at a time, in grid order: the
    length's spectrum (from `cache_dir`, else on its own Gauss-Legendre
    rule) and series, then each distinct call that a requested row reads
    (`ROWS`), once over all the length's points, then the rows in grid
    order.  Bob's and the array's draws are made once per length, in a job
    that runs on a second thread while the length's analytic calls run
    (`_sweep_aperture`);
    each (scenario, K)'s Eve draws and the power offset's Eve term once per
    sweep, and on the k_eves axis one value's Eve draws are held at a time.
    No thread outlives the call, whatever it raises; at a fixed BLAS
    thread count the bytes do not depend on how the threads are scheduled.
    Every stream's seed is derived from the root seed and a grid index, and
    each row's seed cell is the root seed, the one value that reproduces it.
    As each length finishes, its `_summary` line goes to `summary_stream`
    (default stderr).
    """
    summary = summary_stream if summary_stream is not None else sys.stderr
    values = list(map(float, cfg.values))
    # (aperture length, the grid values at it): one per value on the
    # aperture axis, else one for the whole grid
    apertures = ([(v, [v]) for v in values] if cfg.axis == "aperture_len"
                 else [(float(cfg.aperture_len_m), values)])
    out_stream.write(CSV_HEADER + "\n")
    # the power offset's Eve terms by (scenario, K, gamma_e), for this sweep
    eves, eve_terms, failed = {}, {}, False
    for ai, (length, grid) in enumerate(apertures):
        spec, failed_here, times = _sweep_aperture(
            cfg, ai, length, grid, eves, eve_terms, cache_dir, out_stream)
        print(_summary(cfg, length, spec, times), file=summary)
        failed = failed or failed_here
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# per-figure plot data
# ---------------------------------------------------------------------------

def emit_plotdata(csv_path: str, outdir: str) -> list[str]:
    """Split a sweep CSV into one columnar file per (metric, axis) pair.

    Deterministic and idempotent: re-running on the same input reproduces
    byte-identical files.
    """
    lines = [ln for ln in _read_text(csv_path, "csv").split("\n") if ln.strip()]
    if not lines or lines[0] != CSV_HEADER:
        raise ConfigError("csv: missing or unexpected header row")
    groups: dict[tuple[str, str], list[str]] = {}
    for ln in lines[1:]:
        parts = ln.split(",")
        if len(parts) != len(CSV_HEADER.split(",")):
            raise ConfigError(f"csv: malformed row: {ln!r}")
        axis, metric = parts[0], parts[4]
        if metric == "error":
            continue
        groups.setdefault((metric, axis), []).append(ln)
    os.makedirs(outdir, exist_ok=True)
    written = []
    for (metric, axis) in sorted(groups):
        path = os.path.join(outdir, f"{metric}_vs_{axis}.csv")
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(CSV_HEADER + "\n")
            for ln in groups[(metric, axis)]:
                fh.write(ln + "\n")
        written.append(path)
    return written
