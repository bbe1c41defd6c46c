"""Parameter sweeps with reproducible CSV output.

A sweep walks one axis (Bob SNR, Eve SNR, aperture length, eavesdropper
count), evaluates the requested metrics with the requested evaluators for
each scenario, and emits one CSV row per (value, scenario, evaluator,
metric).  Output is byte-deterministic for a fixed seed; wall-clock timing
is only recorded when explicitly requested since it breaks determinism.
"""
from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import namedtuple
from dataclasses import dataclass, field, replace

import numpy as np

from . import montecarlo as mc
from . import secrecy as sec
from . import snr_models as snr
from . import spectral as spc
from .snr_models import LinkBudget, Scenario

CSV_HEADER = "axis,value,scenario,evaluator,metric,result,std_err,seed,wall_ms"

# sweep axis -> the setting its values override at each grid point
AXES = {"gamma_b_db": "gamma_b_db", "gamma_e_db": "gamma_e_db",
        "aperture_len": "aperture_len_m", "k_eves": "k_eves"}
SCENARIOS = ("SE", "MIE", "MCE")

# one grid point: cfg with the axis value applied, its link budget, the
# aperture's series, the shared unit draws (Bob's and the array's at the
# aperture, Eve's at the point's scenario and K; None where no row reads
# them, the exception where drawing them failed), r0 and its quadratures
# ({metric: value or the exception its integral raised})
_Point = namedtuple("_Point", "cfg lb ms bob spda eve r0 quad")


def _shared(result):
    """A point's link budget, shared draws or quadrature, or the exception
    that making it raised."""
    if isinstance(result, Exception):
        # each point starts a new traceback; re-raising would extend the old
        raise result.with_traceback(None)
    return result


def _monte_carlo(p):
    return mc.mc_secrecy(p.lb, _shared(p.bob), _shared(p.eve), p.r0,
                         p.cfg.n_trials)


def _spda(p):
    geom = spc.ApertureGeometry(p.cfg.wavelength_m, p.cfg.aperture_len_m)
    return mc.spda_baseline(p.lb, geom, _shared(p.spda), _shared(p.eve),
                            p.r0, p.cfg.n_trials)


# (evaluator, metric) -> (call, i): the row is call(point), or the mean and
# std_err of call(point)[i].  A point makes each call once, so one sampled
# loop feeds both its rate and sop rows.  The calls look the library up when
# they run: a module attribute replaced after import (a tracer) is what runs.
ROWS = {
    ("closed-form", "rate"): (lambda p: sec.secrecy_rate_closed(p.lb, p.ms), None),
    ("closed-form", "sop"): (lambda p: sec.sop_closed(p.lb, p.ms, p.r0), None),
    ("closed-form", "slope"): (lambda p: sec.high_snr_slope(p.ms), None),
    ("closed-form", "offset"): (lambda p: sec.high_snr_offset(p.lb, p.ms), None),
    ("closed-form", "gain"):
        (lambda p: sec.diversity_and_gain(p.lb, p.ms, p.r0)[1], None),
    ("quadrature", "rate"): (lambda p: _shared(p.quad["rate"]), None),
    ("quadrature", "sop"): (lambda p: _shared(p.quad["sop"]), None),
    ("asymptotic", "rate"): (lambda p: sec.asymptotic_rate(p.lb, p.ms), None),
    ("asymptotic", "sop"):
        (lambda p: min(sec.sop_asymptotic(p.lb, p.ms, p.r0), 1.0), None),
    ("monte-carlo", "rate"): (_monte_carlo, 0),
    ("monte-carlo", "sop"): (_monte_carlo, 1),
    ("spda-mc", "rate"): (_spda, 0),
    ("spda-mc", "sop"): (_spda, 1),
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
    timing: bool = False

    def validate(self):
        def bad(fieldname, msg):
            raise ConfigError(f"{fieldname}: {msg}")

        for name in ("wavelength_m", "aperture_len_m", "target_rate_r0"):
            if not (_number(getattr(self, name)) and getattr(self, name) > 0):
                bad(name, "must be a positive finite number")
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
        if not isinstance(self.timing, bool):
            bad("timing", "must be true or false")
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


def _draw(fn, *args):
    """fn(*args), or the exception it raised: then only the rows that read
    these draws report it."""
    try:
        return fn(*args)
    except Exception as exc:
        return exc


def _sampled_calls(cfg: SweepConfig) -> set:
    """The sampled evaluators' calls that some row of the sweep makes."""
    return {ROWS[ev, m][0] for ev in cfg.evaluators for m in cfg.outputs
            if (ev, m) in ROWS} & {_monte_carlo, _spda}


def _eve_key(scen_name: str, k_eves) -> tuple[str, int]:
    """(scenario, K) of a point: SE has one eavesdropper at any k_eves."""
    return scen_name, 1 if scen_name == "SE" else int(k_eves)


def _resolve_eves(cfg: SweepConfig, value: float, eves: dict) -> None:
    """Make `eves` map (scenario, K) to the unit Eve draws of every scenario
    at grid value `value`: it keeps the draws it holds that the value
    reads, lets the rest go and then draws the missing ones, so on the
    k_eves axis one value's sets are held at a time."""
    if not _sampled_calls(cfg):
        return
    k_eves = value if cfg.axis == "k_eves" else cfg.k_eves
    keys = [_eve_key(scen, k_eves) for scen in cfg.scenarios]
    for key in set(eves) - set(keys):
        del eves[key]
    for scen, k in keys:
        if (scen, k) not in eves:
            eves[scen, k] = _draw(mc.unit_eve_draws, Scenario(scen), k,
                                  cfg.n_trials,
                                  _seed(cfg.seed, SCENARIOS.index(scen), k))


def _budget(cfg: SweepConfig, value: float, scen_name: str):
    """(cfg at grid value `value`, the point's (scenario, K), its link
    budget)."""
    at = replace(cfg, **{AXES[cfg.axis]: value})
    eve_key = _eve_key(scen_name, at.k_eves)
    lb = LinkBudget(_db_to_lin(at.gamma_b_db), _db_to_lin(at.gamma_e_db),
                    eve_key[1], Scenario(scen_name))
    return at, eve_key, lb


def _eval_point(cfg: SweepConfig, budget, shared, eves: dict, quad,
                evaluator: str):
    """{metric: (result, std_err_or_None)} for one evaluator at one grid
    point, in the order of cfg.outputs.  `budget` is the point's `_budget`
    and `shared` its aperture's (series, Bob draws, array draws), either
    maybe the exception that making it raised; `quad` is the point's
    quadratures."""
    at, eve_key, lb = _shared(budget)
    ms, bob, spda = _shared(shared)
    point = _Point(at, lb, ms, bob, spda, eves.get(eve_key), at.target_rate_r0,
                   quad)
    runs, rows = {}, {}
    for m in cfg.outputs:
        if (evaluator, m) in ROWS:
            call, i = ROWS[evaluator, m]
            if call not in runs:
                runs[call] = call(point)
            r = runs[call]
            rows[m] = (r, None) if i is None else (r[i].mean, r[i].std_err)
    return rows


def _sweep_aperture(cfg: SweepConfig, ai: int, length: float, values: list,
                    eves: dict, unit_rule, cache_dir, out) -> tuple:
    """Run the grid points at `values`, all at aperture `length` (grid index
    `ai`), in grid order and write their rows to `out`.  Returns (the
    spectrum, or the exception that resolving the aperture raised; whether
    a row failed).  The aperture's series and shared draws live only in
    this call, so a sweep holds one length's at a time."""
    calls, bob, spda = _sampled_calls(cfg), None, None
    try:
        geom = spc.ApertureGeometry(cfg.wavelength_m, length)
        spec = spc.cached_decompose(geom, cfg.quadrature_order,
                                    cache_dir=cache_dir, unit_rule=unit_rule)
        ms = snr.build_psi(spec)
    except Exception as exc:  # every point at this length reports it
        spec = shared = exc
    else:
        if _monte_carlo in calls:
            bob = _draw(mc.unit_bob_draws, ms, cfg.n_trials, _seed(cfg.seed, ai))
        if _spda in calls:
            spda = _draw(mc.unit_spda_draws, geom, cfg.n_trials,
                         _seed(cfg.seed, ai, 0))
        shared = ms, bob, spda
    budgets = {(value, scen): _draw(_budget, cfg, value, scen)
               for value in values for scen in cfg.scenarios}
    # every quadrature row at this length: each metric's integrals in one
    # lockstep batch, each value the one it gives alone; a point whose link
    # budget failed is left out, its rows raise that again
    made = [key for key, b in budgets.items() if not isinstance(b, Exception)]
    batches = {}
    if "quadrature" in cfg.evaluators and not isinstance(spec, Exception):
        lbs = [budgets[key][2] for key in made]
        if "rate" in cfg.outputs:
            batches["rate"] = _draw(sec.rate_quadratures, lbs, ms)
        if "sop" in cfg.outputs:
            batches["sop"] = _draw(sec.sop_quadratures, lbs, ms,
                                   cfg.target_rate_r0)
    quads = {key: {m: q if isinstance(q, Exception) else q[i]
                   for m, q in batches.items()} for i, key in enumerate(made)}
    failed = False
    for value in values:
        if not isinstance(spec, Exception):  # else every row raises spec
            _resolve_eves(cfg, value, eves)
        for scen in cfg.scenarios:
            for ev in cfg.evaluators:
                t0 = time.perf_counter()
                try:
                    cells = {m: (_fmt(r), "" if se is None else _fmt(se))
                             for m, (r, se) in _eval_point(
                                 cfg, budgets[value, scen], shared, eves,
                                 quads.get((value, scen)), ev).items()}
                except Exception as exc:  # keep sweeping, tag the row
                    cells = {"error": (f"error:{type(exc).__name__}", "")}
                wall = (_fmt((time.perf_counter() - t0) * 1e3) if cfg.timing
                        else "")
                for metric, (r, se) in cells.items():
                    out.write(f"{cfg.axis},{_fmt(value)},{scen},{ev},{metric},"
                              f"{r},{se},{cfg.seed},{wall}\n")
                failed = failed or "error" in cells
    return spec, failed


def run_sweep(cfg: SweepConfig, out_stream, *, cache_dir=None,
              summary_stream=None) -> int:
    """Execute the sweep; returns the process exit code (0 ok, 1 point errors).

    The grid runs one aperture length at a time, in grid order: the
    length's spectrum, series and shared Bob and array draws, then every
    quadrature row at it, one lockstep batch per metric, then its points,
    each value's shared Eve draws made before its points run and kept for
    the next value while it reads them.  Every stream's seed is derived
    from the root seed and a grid index, and every quadrature row is the
    value its integral gives alone.  Rows are written in grid order as
    they are made.  Each row's seed cell is the root seed, the one value
    that reproduces the row.
    """
    summary = summary_stream if summary_stream is not None else sys.stderr
    # one unit Gauss-Legendre rule per distinct order, made on its first
    # cache miss
    unit_rule = functools.cache(spc.unit_legendre_rule)
    values = list(map(float, cfg.values))
    # (aperture length, the grid values at it): one per value on the
    # aperture axis, else one for the whole grid
    apertures = ([(v, [v]) for v in values] if cfg.axis == "aperture_len"
                 else [(float(cfg.aperture_len_m), values)])
    out_stream.write(CSV_HEADER + "\n")
    eves, failed = {}, False
    for ai, (length, grid) in enumerate(apertures):
        resolved, failed_here = _sweep_aperture(
            cfg, ai, length, grid, eves, unit_rule, cache_dir, out_stream)
        if ai == 0:  # the summary's: values[0] on the aperture axis
            first = length, resolved
        failed = failed or failed_here

    summary_len, resolved = first
    if isinstance(resolved, Exception):
        detail = f"error:{type(resolved).__name__}: {resolved}"
    else:
        t = cfg.quadrature_order or spc.nystrom_order(resolved)
        counts = [spc.landau_count(resolved, e) for e in (0.01, 0.5, 0.99)]
        detail = (f"dof={resolved.dof} t={t} "
                  f"trace_residual={resolved.trace_residual:.3e} "
                  "landau_counts(eps=0.01/0.5/0.99)="
                  + "/".join(map(str, counts)))
    print(f"spectrum: aperture_len={summary_len:g} {detail}", file=summary)
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
