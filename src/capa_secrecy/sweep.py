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
    """A point's shared draws or quadrature, or the exception that making
    them raised."""
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


# metric -> the call that makes the quadrature rows of one aperture: every
# point's integral in one lockstep batch (see `_resolve_quadratures`)
QUADRATURES = {
    "rate": lambda lbs, ms, r0: sec.rate_quadratures(lbs, ms),
    "sop": lambda lbs, ms, r0: sec.sop_quadratures(lbs, ms, r0),
}

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


def _resolve_apertures(cfg: SweepConfig, cache_dir) -> dict:
    """Each distinct aperture length of the grid, in grid order, mapped to
    (spectrum, series, unit Bob draws, unit array draws) or to the exception
    raised; draws that no row reads are None."""
    # one unit Gauss-Legendre rule per distinct order, made on its first
    # cache miss
    unit_rule = functools.cache(spc.unit_legendre_rule)
    lengths = cfg.values if cfg.axis == "aperture_len" else [cfg.aperture_len_m]
    calls = _sampled_calls(cfg)
    stage = {}
    for ai, length in enumerate(map(float, lengths)):
        try:
            geom = spc.ApertureGeometry(cfg.wavelength_m, length)
            spec = spc.cached_decompose(geom, cfg.quadrature_order,
                                        cache_dir=cache_dir, unit_rule=unit_rule)
            ms = snr.build_psi(spec)
        except Exception as exc:  # every point at this length reports it
            stage[length] = exc
            continue
        bob = (_draw(mc.unit_bob_draws, ms, cfg.n_trials, _seed(cfg.seed, ai))
               if _monte_carlo in calls else None)
        spda = (_draw(mc.unit_spda_draws, geom, cfg.n_trials,
                      _seed(cfg.seed, ai, 0)) if _spda in calls else None)
        stage[length] = spec, ms, bob, spda
    return stage


def _resolve_eves(cfg: SweepConfig, value: float, kept: dict) -> dict:
    """(scenario, K) -> unit Eve draws for every scenario at grid value
    `value`: the draws in `kept` that it reads, and new ones for the rest
    (made after the others are let go, so on the k_eves axis one value's
    sets are held at a time)."""
    if not _sampled_calls(cfg):
        return {}
    k_eves = value if cfg.axis == "k_eves" else cfg.k_eves
    keys = [_eve_key(scen, k_eves) for scen in cfg.scenarios]
    eves = {key: kept[key] for key in keys if key in kept}
    kept.clear()
    for scen, k in keys:
        if (scen, k) not in eves:
            eves[scen, k] = _draw(mc.unit_eve_draws, Scenario(scen), k,
                                  cfg.n_trials,
                                  _seed(cfg.seed, SCENARIOS.index(scen), k))
    return eves


def _budget(cfg: SweepConfig, value: float, scen_name: str):
    """(cfg at grid value `value`, the point's (scenario, K), its link
    budget)."""
    at = replace(cfg, **{AXES[cfg.axis]: value})
    eve_key = _eve_key(scen_name, at.k_eves)
    lb = LinkBudget(_db_to_lin(at.gamma_b_db), _db_to_lin(at.gamma_e_db),
                    eve_key[1], Scenario(scen_name))
    return at, eve_key, lb


def _resolve_quadratures(cfg: SweepConfig, stage: dict) -> dict:
    """(value, scenario) -> {metric: the quadrature's value, or the
    exception raised} for the quadrature rows of the sweep.  At each
    aperture length every point's integral of one metric runs in one
    lockstep batch (`QUADRATURES`), each value the one it gives alone.  A
    point whose link budget or aperture failed is left out: its rows raise
    that again."""
    metrics = ([m for m in cfg.outputs if m in QUADRATURES]
               if "quadrature" in cfg.evaluators else [])
    batches = {}  # aperture length -> {(value, scenario): link budget}
    for value in map(float, cfg.values if metrics else []):
        for scen in cfg.scenarios:
            try:
                at, _, lb = _budget(cfg, value, scen)
            except Exception:
                continue
            batches.setdefault(at.aperture_len_m, {})[value, scen] = lb
    quads = {}
    for length, points in batches.items():
        if isinstance(stage[length], Exception):
            continue
        ms = stage[length][1]
        for m in metrics:
            results = _draw(QUADRATURES[m], list(points.values()), ms,
                            cfg.target_rate_r0)
            for i, key in enumerate(points):
                quads.setdefault(key, {})[m] = (
                    results if isinstance(results, Exception) else results[i])
    return quads


def _eval_point(stage: dict, eves: dict, quads: dict, cfg: SweepConfig,
                value: float, scen_name: str, evaluator: str):
    """{metric: (result, std_err_or_None)} for one grid point, in the order
    of cfg.outputs."""
    at, eve_key, lb = _budget(cfg, value, scen_name)
    _, ms, bob, spda = _shared(stage[at.aperture_len_m])
    point = _Point(at, lb, ms, bob, spda, eves.get(eve_key),
                   at.target_rate_r0, quads.get((value, scen_name)))
    runs, rows = {}, {}
    for m in cfg.outputs:
        if (evaluator, m) in ROWS:
            call, i = ROWS[evaluator, m]
            if call not in runs:
                runs[call] = call(point)
            r = runs[call]
            rows[m] = (r, None) if i is None else (r[i].mean, r[i].std_err)
    return rows


def run_sweep(cfg: SweepConfig, out_stream, *, cache_dir=None,
              summary_stream=None) -> int:
    """Execute the sweep; returns the process exit code (0 ok, 1 point errors).

    Every aperture length is resolved once, with its shared Bob and array
    draws, and then every quadrature row of the grid, one lockstep batch per
    aperture and metric, before any grid point runs; each value's shared
    Eve draws are made before its points run, and kept for the next value
    while it reads them.  Every stream's seed is derived from the root seed
    and a grid index, and every quadrature row is the value its integral
    gives alone.  Rows are emitted in grid order.  Each row's seed cell is
    the root seed, the one value that reproduces the row.
    """
    summary = summary_stream if summary_stream is not None else sys.stderr
    stage = _resolve_apertures(cfg, cache_dir)
    quads = _resolve_quadratures(cfg, stage)
    results, eves = [], {}  # results: ((value, scenario, evaluator), cells, ms)
    for value in map(float, cfg.values):
        eves = _resolve_eves(cfg, value, eves)
        for task in ((value, scen, ev) for scen in cfg.scenarios
                     for ev in cfg.evaluators):
            t0 = time.perf_counter()
            try:
                cells = {m: (_fmt(r), "" if se is None else _fmt(se))
                         for m, (r, se) in _eval_point(stage, eves, quads, cfg,
                                                       *task).items()}
            except Exception as exc:  # keep sweeping, tag the row
                cells = {"error": (f"error:{type(exc).__name__}", "")}
            results.append((task, cells, (time.perf_counter() - t0) * 1e3))

    out_stream.write(CSV_HEADER + "\n")
    for (value, scen, ev), cells, wall in results:
        wall_s = _fmt(wall) if cfg.timing else ""
        for metric, (r, se) in cells.items():
            out_stream.write(f"{cfg.axis},{_fmt(value)},{scen},{ev},{metric},"
                             f"{r},{se},{cfg.seed},{wall_s}\n")

    # the first length of the grid: values[0] on the aperture axis
    summary_len, resolved = next(iter(stage.items()))
    if isinstance(resolved, Exception):
        detail = f"error:{type(resolved).__name__}: {resolved}"
    else:
        spec = resolved[0]
        t = cfg.quadrature_order or spc.nystrom_order(spec)
        counts = [spc.landau_count(spec, e) for e in (0.01, 0.5, 0.99)]
        detail = (f"dof={spec.dof} t={t} "
                  f"trace_residual={spec.trace_residual:.3e} "
                  "landau_counts(eps=0.01/0.5/0.99)="
                  + "/".join(map(str, counts)))
    print(f"spectrum: aperture_len={summary_len:g} {detail}", file=summary)
    return 1 if any("error" in cells for _, cells, _ in results) else 0


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
