"""Sweep benchmark for capa-secrecy.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Sweeps run in a fresh worker
interpreter through `capa_secrecy.cli.main(["sweep", ...])`, the way a user
runs `capa-secrecy sweep`.  The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.

--trace 0 prints the end-to-end metrics (sweep_norm_s, setup_s,
peak_rss_mb, point_ok_share).  The worker repeats the sweep for S seconds,
timing a calibration probe next to each sweep; sweep_norm_s is the median
sweep time divided by its probe time, so the host's drifting CPU speed
cancels, and setup_s is normalised the same way.  --trace 1 runs one untraced and one traced sweep and prints the
per-layer metrics of the traced one (see layertrace.py).  --record
rewrites the workload's reference file from one sweep; it is only used
when the benchmark itself is created or deliberately re-based.

Workloads, their reasons and the predicted layer-to-metric links are
documented in perfbench/README.md.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(HERE, ".work")
REFERENCE = os.path.join(HERE, "reference")
TABLE1_CONFIG = os.path.join(ROOT, "configs", "table1_sweep.json")

DEADLINE_S = 165.0       # the whole run must end within 180 s
SETUP_SAMPLES = 5        # fresh interpreters timed per run for setup_s
CAL_REF_S = 0.1          # probe time that sweep_norm_s and setup_s are scaled to
NPROC = len(os.sched_getaffinity(0))
# OpenBLAS and friends default to one thread per core.  The sweep runs its
# grid points on one thread (workers=1); one BLAS thread, never above
# nproc, makes the eigensolve time independent of the host's core count.
BLAS_THREADS = 1
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

ANALYTIC = ("closed-form", "quadrature", "asymptotic")
ANALYTIC_REL_TOL = 1e-9   # recorded analytic rows; the library aims at 1e-12
SOP_AGREE_REL = 1e-9      # closed vs quadrature SOP (about 1e-14 at creation)
SOP_AGREE_ABS = 1e-12
N_SIGMA = 6.0             # Monte Carlo rows against their reference
EVENT_FLOOR = 10.0        # extra tolerance in events/n_trials, for rows whose
                          # sample std_err is 0 (no outage event drawn)

APERTURE_LENGTHS = [round(0.1249 * n, 10) for n in (10, 50)]


def _table1():
    """The shipped table1 sweep on a third of its grid and a quarter of its trials."""
    with open(TABLE1_CONFIG, encoding="utf-8") as fh:
        cfg = json.load(fh)
    return dict(cfg, values=[-10.0, 10.0, 30.0], n_trials=50_000)


def _closed_keves():
    return {"preset": "table1", "aperture_lambdas": 3, "quadrature_order": 160,
            "axis": "k_eves", "values": [8],
            "scenarios": ["SE", "MIE", "MCE"], "evaluators": ["closed-form"],
            "outputs": ["rate", "sop", "slope", "offset", "gain"]}


def _aperture():
    return {"preset": "table1", "axis": "aperture_len", "values": APERTURE_LENGTHS,
            "scenarios": ["SE", "MIE", "MCE"],
            "evaluators": ["quadrature", "closed-form"],
            "outputs": ["sop", "slope", "offset", "gain"]}


# name -> (config factory, spectrum cache policy, calibration probe, reference file)
# cache policy (see worker.py): "none" = CAPA_CACHE_DIR removed, "fresh" =
# new empty directory per sweep, "warm" = one directory, filled by the
# untimed warm-up sweep.  The probe is the kind of work that dominates the
# workload (pure-Python kernels, the LAPACK eigensolve, or both); it tracks
# the host's speed best (see README.md, "Bounds and noise").
WORKLOADS = {
    "table1-mc": (_table1, "none", "mixed", "table1-mc"),
    "closed-keves": (_closed_keves, "none", "python", "closed-keves"),
    "aperture-cold": (_aperture, "fresh", "linalg", "aperture"),
    "aperture-warm": (_aperture, "warm", "mixed", "aperture"),
}


class BenchError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# environment and child processes
# ---------------------------------------------------------------------------

def _layout_problems():
    need = [os.path.join(ROOT, "src", "capa_secrecy", "cli.py"), TABLE1_CONFIG,
            os.path.join(ROOT, "BENCHMARK.json")]
    return [p for p in need if not os.path.isfile(p)]


def _source_digest() -> str:
    """Digest of everything that decides the CSV bytes."""
    h = hashlib.sha256()
    for top in ("src", "configs", "perfbench"):
        base = os.path.join(ROOT, top)
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames[:] = sorted(d for d in dirnames
                                 if d not in ("__pycache__", ".work"))
            for name in sorted(filenames):
                if name.endswith((".py", ".json")):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as fh:
                        h.update(fh.read())
    return h.hexdigest()[:16]


def _git_commit() -> str:
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "none (not a git checkout)"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, timeout=10,
                             capture_output=True, text=True, check=True)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip()


def _child_env():
    env = dict(os.environ)
    env.pop("CAPA_CACHE_DIR", None)  # a developer's cache must not warm a run
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    for var in BLAS_VARS:
        env[var] = str(BLAS_THREADS)
    return env


def _run_child(cmd, env, log_path, deadline):
    """Run cmd to completion; returns (spawn instant, peak RSS MB).

    The child is reaped with wait4 so its own peak RSS is known, and killed
    if it outlives the run's deadline or this process is interrupted.
    """
    spawned = time.time()
    with open(log_path, "wb") as log:
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                                stdout=log, stderr=subprocess.STDOUT)
    timer = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        with open(log_path, encoding="utf-8", errors="replace") as fh:
            tail = fh.read()[-2000:]
        raise BenchError(f"{cmd[1]} exited with {proc.returncode}:\n{tail}")
    return spawned, usage.ru_maxrss / 1024.0


class Run:
    """One benchmark run: a scratch directory and the workers started in it."""

    def __init__(self, workload: str, seed: int, seconds: int):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        factory, self.cache_policy, self.probe, self.reference = WORKLOADS[workload]
        self.config = dict(factory(), seed=seed)
        self.deadline = time.monotonic() + DEADLINE_S
        self.dir = os.path.join(WORK, f"run-{os.getpid()}-{time.time_ns()}")
        os.makedirs(self.dir)
        self.config_path = os.path.join(self.dir, "config.json")
        with open(self.config_path, "w", encoding="utf-8") as fh:
            json.dump(self.config, fh)
        self.versions = {}
        # set-up times of every counted worker, sweep workers included: raw
        # and divided by the python probes around them
        self.setups, self.setups_norm = [], []
        self.n = 0

    def close(self):
        shutil.rmtree(self.dir, ignore_errors=True)

    def _worker(self, extra, count_setup=True) -> dict:
        """One worker in a fresh interpreter; returns its result record."""
        self.n += 1
        tag = os.path.join(self.dir, f"worker-{self.n}")
        cmd = [sys.executable, os.path.join(HERE, "worker.py"),
               "--config", self.config_path, "--result", tag + ".json", *extra]
        spawned, rss = _run_child(cmd, _child_env(), tag + ".log", self.deadline)
        with open(tag + ".json", encoding="utf-8") as fh:
            rec = json.load(fh)
        before, after = rec["setup_probe_s"]
        rec["setup_s"] = rec["setup_done"] - spawned - before
        rec["peak_rss_mb"] = rss
        self.versions = rec["versions"]
        if count_setup:
            self.setups.append(rec["setup_s"])
            self.setups_norm.append(CAL_REF_S * rec["setup_s"] / ((before + after) / 2))
        return rec

    def sweeps(self, seconds: float, trace: bool = False) -> dict:
        """A worker that makes an untimed warm-up sweep, timed sweeps with
        calibration probes until both together take `seconds` (at least one
        sweep), and with `trace` one traced sweep.  Every sweep's CSV bytes
        are read into the record."""
        tag = os.path.join(self.dir, f"sweeps-{self.n + 1}")
        os.makedirs(tag)
        extra = ["--csv-dir", tag, "--cache", self.cache_policy, "--cache-root", tag,
                 "--warmup", "--seconds", str(seconds), "--probe", self.probe]
        if trace:
            extra += ["--trace", os.path.join(tag, "spans.jsonl"),
                      "--run-id", f"{self.workload}-{self.seed}-{self.n + 1}"]
        rec = self._worker(extra)
        for s in [rec["warmup"], *rec["timed"], rec["traced"]]:
            if s is not None:
                with open(s["csv"], "rb") as fh:
                    s["bytes"] = fh.read()
        if trace:
            rec["trace_path"] = os.path.join(tag, "spans.jsonl")
        return rec

    def setup_only(self, count: bool = True):
        """A worker that stops after set-up; adds one setup_s sample."""
        self._worker([], count_setup=count)


# ---------------------------------------------------------------------------
# correctness checks
# ---------------------------------------------------------------------------

def parse_csv(data: bytes):
    lines = data.decode("utf-8").splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, ln.split(","))) for ln in lines[1:]]


def _key(row) -> str:
    return "|".join((row["value"], row["scenario"], row["evaluator"], row["metric"]))


def check_rows(rows, ref: dict, n_trials: int) -> list[str]:
    """Every problem found in one sweep's rows (empty when correct).

    Rows tagged error:<Type> are counted as failed points elsewhere; here
    they only show up as missing reference rows.
    """
    problems = []
    rows = [r for r in rows if r["metric"] != "error"]
    analytic = {_key(r): float(r["result"]) for r in rows if r["evaluator"] in ANALYTIC}
    want_analytic = ref["analytic"]
    for k in sorted(set(want_analytic) ^ set(analytic)):
        problems.append(f"analytic row {k} {'missing' if k in want_analytic else 'unexpected'}")
    for k, want in want_analytic.items():
        got = analytic.get(k)
        if got is not None and not math.isclose(got, want, rel_tol=ANALYTIC_REL_TOL):
            problems.append(f"{k}: {got!r} differs from reference {want!r}")

    floor = EVENT_FLOOR / n_trials
    sampled = [r for r in rows if r["evaluator"] in ("monte-carlo", "spda-mc")]
    if {_key(r) for r in sampled if r["evaluator"] == "spda-mc"} != set(ref["spda"]):
        problems.append("SPDA rows differ from the reference grid")
    for r in sampled:
        k, got, se = _key(r), float(r["result"]), float(r["std_err"])
        if r["evaluator"] == "monte-carlo":
            qk = "|".join((r["value"], r["scenario"], "quadrature", r["metric"]))
            if qk not in want_analytic:
                problems.append(f"{k}: no analytic reference")
                continue
            want, tol = want_analytic[qk], N_SIGMA * se + floor
        else:
            if k not in ref["spda"]:
                continue
            want, ref_se = ref["spda"][k]
            tol = N_SIGMA * math.hypot(se, ref_se) + floor
        if abs(got - want) > tol:
            problems.append(f"{k}: {got!r} not within {tol:.3g} of {want!r}")

    closed = {(r["value"], r["scenario"]): float(r["result"]) for r in rows
              if r["evaluator"] == "closed-form" and r["metric"] == "sop"}
    for r in rows:
        if r["evaluator"] == "quadrature" and r["metric"] == "sop":
            c = closed.get((r["value"], r["scenario"]))
            q = float(r["result"])
            if c is not None and abs(c - q) > SOP_AGREE_REL * max(abs(c), abs(q)) + SOP_AGREE_ABS:
                problems.append(f"{r['value']}|{r['scenario']}: closed SOP {c!r} "
                                f"vs quadrature {q!r}")
    return problems


def record_reference(name: str, rows, seed: int):
    analytic = {_key(r): float(r["result"]) for r in rows if r["evaluator"] in ANALYTIC}
    spda = {_key(r): [float(r["result"]), float(r["std_err"])]
            for r in rows if r["evaluator"] == "spda-mc"}
    os.makedirs(REFERENCE, exist_ok=True)
    with open(os.path.join(REFERENCE, name + ".json"), "w", encoding="utf-8") as fh:
        json.dump({"recorded_seed": seed, "analytic": analytic, "spda": spda},
                  fh, indent=1, sort_keys=True)
        fh.write("\n")


def _all_sweeps(rec) -> list:
    """Warm-up, timed and traced sweeps of one worker record."""
    return [s for s in [rec["warmup"], *rec["timed"], rec["traced"]] if s is not None]


def check_digests(run: Run, sweeps) -> list[str]:
    """CSV bytes must repeat within this run and across runs of one source."""
    digests = {hashlib.sha256(s["bytes"]).hexdigest() for s in sweeps}
    problems = [] if len(digests) == 1 else [f"CSV bytes differ across {len(sweeps)} sweeps"]
    store_path = os.path.join(WORK, "csv-digests.json")
    try:
        with open(store_path, encoding="utf-8") as fh:
            store = json.load(fh)
    except (FileNotFoundError, json.JSONDecodeError):
        store = {}
    key = f"{run.workload}|{run.seed}|{_source_digest()}"
    digest = min(digests)
    if store.setdefault(key, digest) != digest:
        problems.append("CSV bytes differ from an earlier run of the same source and seed")
    with open(store_path + ".tmp", "w", encoding="utf-8") as fh:
        json.dump(store, fh, indent=1, sort_keys=True)
    os.replace(store_path + ".tmp", store_path)
    return problems


def check_sweeps(run: Run, rec) -> list[str]:
    """Every problem found in the sweeps of one worker record."""
    with open(os.path.join(REFERENCE, run.reference + ".json"), encoding="utf-8") as fh:
        ref = json.load(fh)
    n_trials = run.config.get("n_trials", 200_000)  # SweepConfig's default
    problems = []
    src = os.path.join(ROOT, "src")
    if not os.path.abspath(rec["module_file"]).startswith(src + os.sep):
        problems.append(f"sweep imported capa_secrecy from {rec['module_file']}")
    sweeps = _all_sweeps(rec)
    for data in {s["bytes"] for s in sweeps}:
        problems += check_rows(parse_csv(data), ref, n_trials)
    return problems + check_digests(run, sweeps)


def count_points(sweeps) -> tuple[int, int]:
    """(grid points attempted, points tagged error:<Type>) over the sweeps."""
    attempted = failed = 0
    for s in sweeps:
        rows = parse_csv(s["bytes"])
        attempted += len({(r["value"], r["scenario"], r["evaluator"]) for r in rows})
        failed += sum(1 for r in rows if r["metric"] == "error")
    return attempted, failed


# ---------------------------------------------------------------------------
# modes
# ---------------------------------------------------------------------------

def _declared(section: str) -> dict:
    """{metric: unit} of one section of BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


def _report(values: dict, section: str, notes: dict, problems: list) -> dict:
    """Print every declared metric with its unit; return the JSON metrics."""
    units = _declared(section)
    missing = sorted(set(units) - set(values))
    if missing:
        problems.append(f"{section} metrics not computed: " + ", ".join(missing))
    for name in sorted(units.keys() & values.keys()):
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name:38s} {values[name]:.6g} {units[name]}{note}")
    return {k: {"value": values[k], "unit": u} for k, u in units.items() if k in values}


def p90(values) -> float:
    """90th percentile; the larger value when there are only two."""
    values = list(values)
    return values[0] if len(values) == 1 else statistics.quantiles(values, n=10)[-1]


def run_end_to_end(run: Run):
    # The first interpreter of a run may write bytecode and read cold pages;
    # its set-up time is not counted.
    run.setup_only(count=False)
    rec = run.sweeps(run.seconds)
    while len(run.setups) < SETUP_SAMPLES:
        run.setup_only()

    timed = rec["timed"]
    problems = check_sweeps(run, rec)
    attempted, failed = count_points(timed)
    times = [s["sweep_s"] for s in timed]
    cal = rec["calibration_s"]
    # each sweep is divided by the mean of the two probes around it
    norm = [CAL_REF_S * t / ((a + b) / 2) for t, a, b in zip(times, cal, cal[1:])]
    values = {
        "sweep_norm_s": statistics.median(norm),
        "setup_s": statistics.median(run.setups_norm),
        "peak_rss_mb": rec["peak_rss_mb"],
        "point_ok_share": (attempted - failed) / attempted,
    }
    counts = {"sweep_norm_s": f"median of {len(times)} sweeps; raw median "
                              f"{statistics.median(times):.4f} s, p90 {p90(times):.4f} s, "
                              f"probe median {statistics.median(cal):.4f} s",
              "setup_s": f"median of {len(run.setups)} fresh interpreters, the sweep "
                         f"worker included; raw median {statistics.median(run.setups):.4f} s",
              "peak_rss_mb": f"sweep worker, {len(timed) + 1} sweeps",
              "point_ok_share": f"{attempted - failed}/{attempted} grid points"}
    print("sweep times (s): " + " ".join(f"{t:.4f}" for t in times))
    print("calibration times (s): " + " ".join(f"{t:.4f}" for t in cal))
    print("set-up times (s): " + " ".join(f"{t:.4f}" for t in run.setups))
    metrics = _report(values, "end_to_end", counts, problems)
    return problems, attempted, failed, metrics


def run_traced(run: Run):
    from layertrace import layer_metrics, read_trace, self_time_total_s

    rec = run.sweeps(0, trace=True)
    plain, traced = rec["timed"][0], rec["traced"]
    problems = check_sweeps(run, rec)
    attempted, failed = count_points([traced])

    spans, leaves = read_trace(rec["trace_path"])
    os.makedirs(os.path.join(WORK, "traces"), exist_ok=True)
    shutil.copyfile(rec["trace_path"],
                    os.path.join(WORK, "traces", f"{run.workload}.jsonl"))
    self_total = self_time_total_s(spans, leaves)
    if self_total > traced["sweep_s"]:
        problems.append(f"self times sum to {self_total:.4f} s, more than the "
                        f"traced sweep's {traced['sweep_s']:.4f} s")
    if rec["missing_targets"]:
        print("trace: not installed (layer no longer exists): "
              + ", ".join(rec["missing_targets"]))

    values = layer_metrics(spans, leaves)
    values.update({
        "sweep.points": attempted,
        "sweep.point_errors": failed,
        "cli.csv_bytes": len(traced["bytes"]),
        "trace.overhead_pct": 100.0 * (traced["sweep_s"] / plain["sweep_s"] - 1.0),
    })
    print(f"traced sweep {traced['sweep_s']:.4f} s, untraced {plain['sweep_s']:.4f} s")
    metrics = _report(values, "per_layer", {}, problems)
    return problems, attempted, failed, metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true",
                    help="rewrite the workload's reference file from one sweep")
    args = ap.parse_args(argv)

    missing = _layout_problems()
    if missing:
        print("not a capa-secrecy checkout; missing: " + ", ".join(missing),
              file=sys.stderr)
        return 2
    # SIGTERM unwinds like Ctrl-C, so children are killed and reaped and the
    # run directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    os.makedirs(WORK, exist_ok=True)
    run = Run(args.workload, args.seed, args.seconds)
    try:
        if args.record:
            rows = parse_csv(run.sweeps(0)["timed"][0]["bytes"])
            record_reference(run.reference, rows, args.seed)
            print(f"recorded {len(rows)} rows to reference/{run.reference}.json")
            return 0
        mode = run_traced if args.trace else run_end_to_end
        problems, attempted, failed, metrics = mode(run)
        env = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
               "commit": _git_commit(), "source_digest": _source_digest(),
               "nproc": NPROC, "blas_threads": BLAS_THREADS,
               **run.versions}
        print("env " + json.dumps(env, sort_keys=True))
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        run.close()
    for p in problems:
        print(f"CHECK FAILED: {p}")
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
