"""Run `capa-secrecy sweep` calls in this (fresh) interpreter and time them.

    python3 perfbench/worker.py --config CFG --result RESULT.json
        [--csv-dir DIR [--cache none|fresh|warm --cache-root DIR]
         [--warmup] [--seconds S] [--probe python|linalg|mixed]
         [--trace SPANS.jsonl --run-id ID]]

Set-up comes first: importing `capa_secrecy.cli` (numpy, scipy, mpmath)
and `sweep.load_config(CFG)`, what every CLI call pays before its first
grid point.  RESULT.json gets the wall-clock instant set-up ended, so the
parent can time it from the spawn, the times of the `python` probes run
just before and just after it, and the library versions.  Without
--csv-dir the worker stops there.

Otherwise every sweep goes through the public entry point
`capa_secrecy.cli.main(["sweep", "--config", CFG, "--out", CSV])`:

- --warmup: one untimed sweep first (it also fills the cache of the
  `warm` policy);
- then timed sweeps, each preceded by a calibration probe and the last
  followed by one (see `make_probe`), until sweeps and probes together
  take --seconds (at least one sweep);
- --trace: then one more sweep with the layers wrapped (see
  layertrace.py); its spans go to SPANS.jsonl.

The spectrum cache (`CAPA_CACHE_DIR`, read by the CLI at each call) is
unset for `none`, a new empty directory under --cache-root for every
sweep for `fresh`, and one directory under --cache-root shared by all
sweeps for `warm`.
"""
import argparse
import json
import math
import os
import sys
import time

PROBE_ITERATIONS = 500_000   # pure-Python float loop, about 0.1 s
PROBE_EIGH = (400, 3)          # dense symmetric eigensolves, about 0.08 s


def _python_work(iterations=PROBE_ITERATIONS):
    x = 0.0
    for i in range(1, iterations):
        x += math.log1p(i * 1e-3) - math.exp(-i * 1e-4)


def make_probe(kind: str):
    """A function returning the wall seconds of a fixed piece of work.

    Timed next to each sweep on the same CPU, the probe tracks how fast that
    CPU runs at the moment, which on a shared host drifts by tens of percent
    within seconds.  `python` is a pure-Python float loop, like the closed
    form kernels and the module bodies run at import; `linalg` is dense
    LAPACK work, like the spectral eigensolve; `mixed` is half of each, for
    sweeps that split their time between interpreted code and numpy.
    """
    if kind == "python":
        work = _python_work
    else:
        import numpy
        n, reps = PROBE_EIGH
        b = numpy.random.default_rng(0).standard_normal((n, n))
        a = b + b.T

        def linalg(reps):
            for _ in range(reps):
                numpy.linalg.eigh(a)

        if kind == "linalg":
            def work():
                linalg(reps)
        else:
            def work():
                _python_work(PROBE_ITERATIONS // 2)
                linalg(reps // 2 + 1)

    def probe():
        t0 = time.perf_counter()
        work()
        return time.perf_counter() - t0
    return probe


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--config", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--csv-dir", default=None)
    ap.add_argument("--cache", choices=("none", "fresh", "warm"), default="none")
    ap.add_argument("--cache-root", default=None)
    ap.add_argument("--warmup", action="store_true")
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--probe", choices=("python", "linalg", "mixed"), default="python")
    ap.add_argument("--trace", default=None)
    ap.add_argument("--run-id", default="run")
    args = ap.parse_args()

    # set-up is bracketed by two `python` probes; the parent subtracts the
    # first from the set-up time and divides by their mean
    setup_probe = make_probe("python")
    before = setup_probe()
    import mpmath
    import numpy
    import scipy

    import capa_secrecy
    from capa_secrecy import cli, sweep
    sweep.load_config(args.config)
    setup_done = time.time()
    result = {
        "setup_done": setup_done,
        "setup_probe_s": [before, setup_probe()],
        "module_file": capa_secrecy.__file__,
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                     "scipy": scipy.__version__, "mpmath": mpmath.__version__},
    }
    if args.csv_dir is None:
        return _write(args.result, result)

    n = 0

    def one_sweep(entry=cli.main) -> dict:
        nonlocal n
        n += 1
        if args.cache == "fresh":
            os.environ["CAPA_CACHE_DIR"] = _new_dir(args.cache_root, f"cache-{n}")
        elif args.cache == "warm" and n == 1:
            os.environ["CAPA_CACHE_DIR"] = _new_dir(args.cache_root, "cache-warm")
        csv = os.path.join(args.csv_dir, f"sweep-{n}.csv")
        argv = ["sweep", "--config", args.config, "--out", csv]
        t0 = time.perf_counter()
        rc = entry(argv)
        sweep_s = time.perf_counter() - t0
        if rc != 0:
            raise SystemExit(f"cli.main returned {rc}")
        return {"sweep_s": sweep_s, "csv": csv}

    os.environ.pop("CAPA_CACHE_DIR", None)
    result["warmup"] = one_sweep() if args.warmup else None
    probe = make_probe(args.probe)
    timed, cal = [], [probe()]
    while not timed or sum(s["sweep_s"] for s in timed) + sum(cal) < args.seconds:
        timed.append(one_sweep())
        cal.append(probe())
    result["timed"] = timed
    result["calibration_s"] = cal

    result["traced"] = None
    result["missing_targets"] = []
    if args.trace:
        from layertrace import Tracer  # this script's own directory
        tracer = Tracer(args.run_id)
        tracer.install()
        try:
            result["traced"] = one_sweep(tracer.wrap_span("cli.main", cli.main))
        finally:
            tracer.uninstall()
        tracer.write(args.trace)
        result["missing_targets"] = tracer.missing
    return _write(args.result, result)


def _new_dir(root, name) -> str:
    path = os.path.join(root, name)
    os.makedirs(path)
    return path


def _write(path, result) -> int:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
