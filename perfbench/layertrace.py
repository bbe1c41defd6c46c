"""Outside-in tracing of the capa_secrecy layers.

The tracer swaps module attributes for timing wrappers.  The library calls
its layers through module attributes (`sweep` calls `spc.cached_decompose`,
`secrecy` calls `snr.bob_cdf` and the specfun names it imported, and
`montecarlo` calls the samplers it imported), so a replaced attribute is
picked up at the next call without any source edit.

Every wrapped call records a span (id, name, parent, run id, start, end,
time covered by its children, status, attributes) in memory.  Calls made
many thousands of times per sweep (special functions, SNR laws) are
*leaves*: they are folded into one aggregate record per (name, parent
span) that holds the call count and total time, which keeps memory bounded
while the parent's self time stays exact.  `write` puts everything out as
JSON lines when the run ends.
"""
from __future__ import annotations

import importlib
import inspect
import json
import os
import time

_now = time.perf_counter_ns


def _npz_bytes(path) -> int:
    path = os.fspath(path)
    for p in (path, path + ".npz"):
        if os.path.exists(p):
            return os.path.getsize(p)
    return 0


def _closed_note(args, result) -> dict:
    """Whether secrecy_rate_closed took the wide-float (mpmath) path."""
    prec = args["prec"]
    if prec is None:
        return {"extended": args["ms"].dof > args["dof_cap"]}
    return {"extended": prec.mode != "standard-float"}


# (module, attribute, span name, kind, note)
# kind "span" records one span per call; "leaf" aggregates per parent.
# note(bound_args, result) returns attributes stored on the span.
TARGETS = [
    ("sweep", "load_config", "sweep.load_config", "span", None),
    ("sweep", "run_sweep", "sweep.run_sweep", "span", None),
    ("spectral", "cached_decompose", "spectral.cached_decompose", "span", None),
    ("spectral", "decompose", "spectral.decompose", "span", None),
    ("spectral", "gauss_legendre_rule", "spectral.gauss_legendre_rule", "span", None),
    ("spectral", "kernel_value", "spectral.kernel_value", "span", None),
    ("spectral", "save_decomposition", "spectral.save_decomposition", "span",
     lambda a, r: {"bytes": _npz_bytes(a["path"])}),
    ("spectral", "load_decomposition", "spectral.load_decomposition", "span",
     lambda a, r: {"bytes": _npz_bytes(a["path"])}),
    ("snr_models", "build_psi", "snr_models.build_psi", "span",
     lambda a, r: {"terms": r.q_max + 1}),
    ("snr_models", "bob_cdf", "snr_models.bob_cdf", "leaf", None),
    ("snr_models", "bob_survival", "snr_models.bob_survival", "leaf", None),
    ("snr_models", "eve_pdf", "snr_models.eve_pdf", "leaf", None),
    ("snr_models", "eve_cdf", "snr_models.eve_cdf", "leaf", None),
    ("montecarlo", "sample_bob", "snr_models.sample_bob", "span",
     lambda a, r: {"draws": 1 if a.get("size") is None else int(a["size"])}),
    ("montecarlo", "sample_eve", "snr_models.sample_eve", "span",
     lambda a, r: {"draws": 1 if a.get("size") is None else int(a["size"])}),
    ("montecarlo", "mc_secrecy", "montecarlo.mc_secrecy", "span",
     lambda a, r: {"trials": int(a["n_trials"])}),
    ("montecarlo", "spda_baseline", "montecarlo.spda_baseline", "span",
     lambda a, r: {"trials": int(a["n_trials"])}),
    ("secrecy", "secrecy_rate_closed", "secrecy.secrecy_rate_closed", "span",
     _closed_note),
    ("secrecy", "sop_closed", "secrecy.sop_closed", "span", None),
    ("secrecy", "secrecy_rate_quadrature", "secrecy.secrecy_rate_quadrature", "span", None),
    ("secrecy", "sop_quadrature", "secrecy.sop_quadrature", "span", None),
    ("secrecy", "high_snr_slope", "secrecy.high_snr_slope", "span", None),
    ("secrecy", "high_snr_offset", "secrecy.high_snr_offset", "span", None),
    ("secrecy", "asymptotic_rate", "secrecy.asymptotic_rate", "span", None),
    ("secrecy", "diversity_and_gain", "secrecy.diversity_and_gain", "span", None),
    ("secrecy", "sop_asymptotic", "secrecy.sop_asymptotic", "span", None),
    ("secrecy", "log_binomial", "specfun.log_binomial", "leaf", None),
    ("secrecy", "exp_e1_log", "specfun.exp_e1_log", "leaf", None),
    ("secrecy", "scaled_e1", "specfun.scaled_e1", "leaf", None),
    ("secrecy", "harmonic_number", "specfun.harmonic_number", "leaf", None),
]

HIGH_SNR = ("secrecy.high_snr_slope", "secrecy.high_snr_offset",
            "secrecy.asymptotic_rate", "secrecy.diversity_and_gain",
            "secrecy.sop_asymptotic")
QUADRATURE = ("secrecy.secrecy_rate_quadrature", "secrecy.sop_quadrature")
BOB_LAWS = ("snr_models.bob_cdf", "snr_models.bob_survival")
EVE_LAWS = ("snr_models.eve_pdf", "snr_models.eve_cdf")
SPECFUN = ("log_binomial", "exp_e1_log", "scaled_e1", "harmonic_number")


class Tracer:
    """In-memory span recorder; one per traced process."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []    # [id, name, parent, start, end, child, status, attrs]
        self.leaves = {}   # (name, parent id) -> [count, total ns]
        self.missing = []  # targets that no longer exist in the library
        self._stack = []
        self._restore = []

    def wrap_span(self, name, fn, note=None):
        spans, stack = self.spans, self._stack
        sig = inspect.signature(fn) if note is not None else None

        def wrapper(*args, **kwargs):
            rec = [len(spans), name, stack[-1][0] if stack else -1, 0, 0, 0,
                   "ok", None]
            spans.append(rec)
            stack.append(rec)
            rec[3] = _now()
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                rec[6] = type(exc).__name__
                raise
            finally:
                rec[4] = _now()
                stack.pop()
                if stack:
                    stack[-1][5] += rec[4] - rec[3]
            if note is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                rec[7] = note(bound.arguments, out)
            return out

        return wrapper

    def wrap_leaf(self, name, fn):
        leaves, stack = self.leaves, self._stack

        def wrapper(*args, **kwargs):
            t0 = _now()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = _now() - t0
                parent = stack[-1] if stack else None
                key = (name, parent[0] if parent else -1)
                agg = leaves.get(key)
                if agg is None:
                    leaves[key] = [1, dt]
                else:
                    agg[0] += 1
                    agg[1] += dt
                if parent is not None:
                    parent[5] += dt

        return wrapper

    def install(self):
        """Replace every target attribute that exists; remember the rest."""
        for mod_name, attr, name, kind, note in TARGETS:
            mod = importlib.import_module(f"capa_secrecy.{mod_name}")
            fn = getattr(mod, attr, None)
            if fn is None:
                self.missing.append(f"{mod_name}.{attr}")
                continue
            wrapped = (self.wrap_leaf(name, fn) if kind == "leaf"
                       else self.wrap_span(name, fn, note))
            setattr(mod, attr, wrapped)
            self._restore.append((mod, attr, fn))

    def uninstall(self):
        for mod, attr, fn in reversed(self._restore):
            setattr(mod, attr, fn)
        self._restore.clear()

    def write(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, parent, start, end, child, status, attrs in self.spans:
                fh.write(json.dumps({
                    "run": self.run_id, "id": sid, "name": name, "parent": parent,
                    "start_ns": start, "end_ns": end, "child_ns": child,
                    "status": status, "attrs": attrs}) + "\n")
            for (name, parent), (count, total) in sorted(
                    self.leaves.items(), key=lambda kv: (kv[0][1], kv[0][0])):
                fh.write(json.dumps({
                    "run": self.run_id, "leaf": name, "parent": parent,
                    "count": count, "total_ns": total}) + "\n")


def read_trace(path: str):
    spans, leaves = [], []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            rec = json.loads(line)
            (leaves if "leaf" in rec else spans).append(rec)
    return spans, leaves


def layer_metrics(spans, leaves) -> dict:
    """Per-layer metrics (value only) from one traced sweep's records."""
    by_id = {s["id"]: s for s in spans}

    def dur(s):
        return s["end_ns"] - s["start_ns"]

    def named(*names):
        return [s for s in spans if s["name"] in names]

    def busy_ms(*names):
        """Time inside any of `names`, counting nested calls once."""
        total = 0
        for s in named(*names):
            p = s["parent"]
            while p != -1 and by_id[p]["name"] not in names:
                p = by_id[p]["parent"]
            if p == -1:
                total += dur(s)
        return total / 1e6

    def self_ms(*names):
        return sum(dur(s) - s["child_ns"] for s in named(*names)) / 1e6

    def attr_sum(key, *names):
        return sum((s["attrs"] or {}).get(key, 0) for s in named(*names))

    def leaf_count(*names, under=None):
        return sum(lf["count"] for lf in leaves if lf["leaf"] in names
                   and (under is None or lf["parent"] in under))

    def leaf_ms(*names):
        return sum(lf["total_ns"] for lf in leaves if lf["leaf"] in names) / 1e6

    hits = sum(1 for s in named("spectral.load_decomposition") if s["status"] == "ok")
    quad_ids = {s["id"] for s in named(*QUADRATURE)}
    quad_calls = len(quad_ids)
    closed = named("secrecy.secrecy_rate_closed")
    mc_ms = busy_ms("montecarlo.mc_secrecy")
    spda_ms = busy_ms("montecarlo.spda_baseline")
    trials = attr_sum("trials", "montecarlo.mc_secrecy", "montecarlo.spda_baseline")
    m = {
        "spectral.gl_rule_ms": busy_ms("spectral.gauss_legendre_rule"),
        "spectral.kernel_fill_ms": busy_ms("spectral.kernel_value"),
        "spectral.eigensolve_ms": self_ms("spectral.decompose"),
        "spectral.decompose_calls": len(named("spectral.decompose")),
        "spectral.cache_hits": hits,
        "spectral.cache_misses": len(named("spectral.cached_decompose")) - hits,
        "spectral.cache_save_ms": busy_ms("spectral.save_decomposition"),
        "spectral.cache_load_ms": busy_ms("spectral.load_decomposition"),
        "spectral.cache_bytes": attr_sum("bytes", "spectral.save_decomposition",
                                         "spectral.load_decomposition"),
        "snr_models.build_psi_ms": busy_ms("snr_models.build_psi"),
        "snr_models.mixture_terms": attr_sum("terms", "snr_models.build_psi"),
        "snr_models.bob_law_calls": leaf_count(*BOB_LAWS),
        "snr_models.bob_law_ms": leaf_ms(*BOB_LAWS),
        "snr_models.eve_law_ms": leaf_ms(*EVE_LAWS),
        "snr_models.sample_bob_ms": busy_ms("snr_models.sample_bob"),
        "snr_models.sample_eve_ms": busy_ms("snr_models.sample_eve"),
        "snr_models.draws": attr_sum("draws", "snr_models.sample_bob",
                                     "snr_models.sample_eve"),
        "secrecy.rate_closed_ms": busy_ms("secrecy.secrecy_rate_closed"),
        "secrecy.rate_closed_calls": len(closed),
        "secrecy.rate_closed_extended_calls": sum(
            1 for s in closed if (s["attrs"] or {}).get("extended")),
        "secrecy.precision_loss_errors": sum(
            1 for s in closed if s["status"] == "PrecisionLossError"),
        "secrecy.sop_closed_ms": busy_ms("secrecy.sop_closed"),
        "secrecy.rate_quad_ms": busy_ms("secrecy.secrecy_rate_quadrature"),
        "secrecy.sop_quad_ms": busy_ms("secrecy.sop_quadrature"),
        "secrecy.quad_self_ms": self_ms(*QUADRATURE),
        "secrecy.quad_calls": quad_calls,
        "secrecy.integrand_evals_per_quad": (
            leaf_count(*BOB_LAWS, under=quad_ids) / quad_calls if quad_calls else 0.0),
        "secrecy.high_snr_ms": busy_ms(*HIGH_SNR),
        "montecarlo.mc_ms": mc_ms,
        "montecarlo.spda_ms": spda_ms,
        "montecarlo.trials": trials,
        "montecarlo.ns_per_trial": (mc_ms + spda_ms) * 1e6 / trials if trials else 0.0,
        "montecarlo.loop_self_ms": self_ms("montecarlo.mc_secrecy",
                                           "montecarlo.spda_baseline"),
        "sweep.self_ms": self_ms("sweep.run_sweep"),
    }
    for fn in SPECFUN:
        m[f"specfun.{fn}_calls"] = leaf_count(f"specfun.{fn}")
        m[f"specfun.{fn}_ms"] = leaf_ms(f"specfun.{fn}")
    return m


def self_time_total_s(spans, leaves) -> float:
    """Sum of every record's self time; cannot exceed the root span."""
    ns = sum(s["end_ns"] - s["start_ns"] - s["child_ns"] for s in spans)
    return (ns + sum(lf["total_ns"] for lf in leaves)) / 1e9
