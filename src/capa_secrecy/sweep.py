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
from dataclasses import dataclass, field

import numpy as np

from . import montecarlo as mc
from . import secrecy as sec
from . import snr_models as snr
from . import spectral as spc
from .snr_models import LinkBudget, Scenario

CSV_HEADER = "axis,value,scenario,evaluator,metric,result,std_err,seed,wall_ms"

AXES = ("gamma_b_db", "gamma_e_db", "aperture_len", "k_eves")
SCENARIOS = ("SE", "MIE", "MCE")
# sampled evaluators: name -> fn(cfg, lb, bob, aperture_len_m, seed) returning
# the (rate, sop) Monte Carlo estimates; bob holds the aperture's unit draws
_SAMPLED = {
    "monte-carlo": lambda cfg, lb, bob, aperture, seed: mc.mc_secrecy(
        lb, bob, cfg.target_rate_r0, cfg.n_trials, seed),
    "spda-mc": lambda cfg, lb, bob, aperture, seed: mc.spda_baseline(
        lb, spc.ApertureGeometry(cfg.wavelength_m, aperture),
        cfg.target_rate_r0, cfg.n_trials, seed),
}
EVALUATORS = (*sec.ANALYTIC_EVALUATORS, *_SAMPLED)
OUTPUTS = ("rate", "sop", "slope", "offset", "gain")


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
    quadrature_order: int = 1000
    n_trials: int = 200_000
    seed: int = 20260810
    workers: int = 1
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
        for name in ("k_eves", "quadrature_order", "n_trials", "workers"):
            v = getattr(self, name)
            if not (_number(v, int) and v > 0):
                bad(name, "must be a positive integer")
        if not _number(self.seed, int):
            bad("seed", "must be an integer")
        if not isinstance(self.timing, bool):
            bad("timing", "must be true or false")
        if self.axis not in AXES:
            bad("axis", f"must be one of {AXES}")
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
    # a grid point's key is (vi, si, ei); Bob's at aperture index ai is (ai,)
    return int(np.random.SeedSequence(root, spawn_key=key).generate_state(1)[0])


def _resolve_apertures(cfg: SweepConfig, cache_dir) -> dict:
    """Each distinct aperture length of the grid, in grid order, mapped to
    (spectrum, series, unit Bob draws or None) or to the exception raised."""
    # one unit Gauss-Legendre rule per sweep, made on the first cache miss
    unit_rule = functools.cache(np.polynomial.legendre.leggauss)
    lengths = cfg.values if cfg.axis == "aperture_len" else [cfg.aperture_len_m]
    # only rate and sop rows read the draws
    draw_bob = ("monte-carlo" in cfg.evaluators
                and not {"rate", "sop"}.isdisjoint(cfg.outputs))
    stage = {}
    for ai, length in enumerate(map(float, lengths)):
        try:
            spec = spc.cached_decompose(
                spc.ApertureGeometry(cfg.wavelength_m, length),
                cfg.quadrature_order, cache_dir=cache_dir, unit_rule=unit_rule)
            ms = snr.build_psi(spec)
            bob = (mc.unit_bob_draws(ms, cfg.n_trials, _seed(cfg.seed, ai))
                   if draw_bob else None)
            stage[length] = spec, ms, bob
        except Exception as exc:  # every point at this length reports it
            stage[length] = exc
    return stage


def _point_params(cfg: SweepConfig, value: float):
    gamma_b = _db_to_lin(cfg.gamma_b_db)
    gamma_e = _db_to_lin(cfg.gamma_e_db)
    aperture = cfg.aperture_len_m
    k = cfg.k_eves
    if cfg.axis == "gamma_b_db":
        gamma_b = _db_to_lin(value)
    elif cfg.axis == "gamma_e_db":
        gamma_e = _db_to_lin(value)
    elif cfg.axis == "aperture_len":
        aperture = value
    else:
        k = int(value)
    return gamma_b, gamma_e, aperture, k


def _eval_point(stage: dict, cfg: SweepConfig, value: float, scen_name: str,
                evaluator: str, point_seed: int):
    """{metric: (result, std_err_or_None)} for one grid point, in the order
    of cfg.outputs."""
    gamma_b, gamma_e, aperture, k = _point_params(cfg, value)
    if scen_name == "SE":
        k = 1
    lb = LinkBudget(gamma_b, gamma_e, k, Scenario(scen_name))
    resolved = stage[aperture]
    if isinstance(resolved, Exception):
        # each point starts a new traceback; re-raising would extend the old
        raise resolved.with_traceback(None)
    _, ms, bob = resolved
    r0 = cfg.target_rate_r0
    wanted = cfg.outputs
    if evaluator in _SAMPLED:
        if "rate" not in wanted and "sop" not in wanted:
            return {}
        rate, sop = _SAMPLED[evaluator](cfg, lb, bob, aperture, point_seed)
        got = {"rate": (rate.mean, rate.std_err), "sop": (sop.mean, sop.std_err)}
        return {m: got[m] for m in wanted if m in got}
    rate_fn, sop_fn = sec.ANALYTIC_EVALUATORS[evaluator]
    fns = {"rate": lambda: rate_fn(lb, ms), "sop": lambda: sop_fn(lb, ms, r0)}
    if evaluator == "closed-form":
        # scalar high-SNR characterizations ride with the closed-form rows
        fns.update(slope=lambda: sec.high_snr_slope(ms),
                   offset=lambda: sec.high_snr_offset(lb, ms),
                   gain=lambda: sec.diversity_and_gain(lb, ms, r0)[1])
    return {m: (fns[m](), None) for m in wanted if m in fns}


def run_sweep(cfg: SweepConfig, out_stream, *, cache_dir=None,
              summary_stream=None) -> int:
    """Execute the sweep; returns the process exit code (0 ok, 1 point errors).

    Every aperture length is resolved once before any grid point runs; the
    points then run on a worker pool (cfg.workers > 1) or in turn.  Per-point
    seeds are derived from the root seed and the grid index, and rows are
    emitted in grid order, so output is identical for any worker count.
    """
    summary = summary_stream if summary_stream is not None else sys.stderr
    stage = _resolve_apertures(cfg, cache_dir)
    tasks = []
    for vi, value in enumerate(cfg.values):
        for si, scen in enumerate(cfg.scenarios):
            for ei, ev in enumerate(cfg.evaluators):
                tasks.append((float(value), scen, ev,
                              _seed(cfg.seed, vi, si, ei)))

    def run_one(task):
        value, scen, ev, point_seed = task
        t0 = time.perf_counter()
        try:
            res, err = _eval_point(stage, cfg, value, scen, ev, point_seed), None
        except Exception as exc:  # keep sweeping, tag the row
            res, err = {}, exc
        return res, err, (time.perf_counter() - t0) * 1e3

    if cfg.workers == 1:
        # the builtin map: an executor would finish every queued point
        # before Ctrl-C could stop the sweep
        results = list(map(run_one, tasks))
    else:
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=cfg.workers) as pool:
            results = list(pool.map(run_one, tasks))

    rows = []
    had_error = False
    for (value, scen, ev, point_seed), (res, err, wall) in zip(tasks, results):
        wall_s = _fmt(wall) if cfg.timing else ""
        if err is not None:
            had_error = True
            rows.append(f"{cfg.axis},{_fmt(value)},{scen},{ev},"
                        f"error,error:{type(err).__name__},,"
                        f"{point_seed},{wall_s}")
            continue
        for metric, (r, se) in res.items():
            se_s = "" if se is None else _fmt(se)
            rows.append(f"{cfg.axis},{_fmt(value)},{scen},{ev},"
                        f"{metric},{_fmt(r)},{se_s},{point_seed},{wall_s}")
    out_stream.write(CSV_HEADER + "\n")
    for row in rows:
        out_stream.write(row + "\n")

    # the first length of the grid: values[0] on the aperture axis
    summary_len, resolved = next(iter(stage.items()))
    if isinstance(resolved, Exception):
        detail = f"error:{type(resolved).__name__}: {resolved}"
    else:
        spec = resolved[0]
        counts = [spc.landau_count(spec, e) for e in (0.01, 0.5, 0.99)]
        detail = (f"dof={spec.dof} trace_residual={spec.trace_residual:.3e} "
                  "landau_counts(eps=0.01/0.5/0.99)="
                  + "/".join(map(str, counts)))
    print(f"spectrum: aperture_len={summary_len:g} {detail}", file=summary)
    return 1 if had_error else 0


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
