"""The sweep rows of this tree against those of another revision.

A script, not a test module (pytest does not collect it; its comparison is
tested in `tests/test_parity.py`).  Run from anywhere in the repository:

    python3 tests/parity.py REV [--seed N]

It checks REV out into a `git worktree` in a temporary directory (removed
at the end), then runs a fixed config set through
`python -m capa_secrecy.cli sweep` on this tree and on that one, each at
one BLAS thread with an empty spectrum cache.  The set is the benchmark's
workload configs as `perfbench/run.py` builds them (table1-mc,
closed-keves, and aperture, which aperture-cold and aperture-warm share)
and `configs/table1_sweep.json` at --trials 20000, all at seed N (default
20260810).  It prints every row whose result or std_err differs, with the
relative difference of the result, and every row only one tree wrote.
Exits 1 when a row or a sweep's exit code differs, else 0.
"""
import argparse
import csv
import functools
import importlib.util
import json
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TABLE1_CONFIG = os.path.join(ROOT, "configs", "table1_sweep.json")


@functools.cache
def _bench():
    """`perfbench/run.py` of this tree, loaded once."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_run", os.path.join(ROOT, "perfbench", "run.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def configs():
    """name -> (config dict, extra sweep arguments)."""
    bench = _bench()
    with open(TABLE1_CONFIG, encoding="utf-8") as fh:
        table1 = json.load(fh)
    return {"table1-mc": (bench._table1(), []),
            "closed-keves": (bench._closed_keves(), []),
            "aperture": (bench._aperture(), []),
            "table1_sweep": (table1, ["--trials", "20000"])}


def sweep(tree, config, extra, seed, workdir, name):
    """(exit code, CSV rows) of one sweep of `config` on the tree's src."""
    path = os.path.join(workdir, f"{name}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(config, fh)
    out = os.path.join(workdir, f"{name}.csv")
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"),
               PYTHONDONTWRITEBYTECODE="1",
               CAPA_CACHE_DIR=tempfile.mkdtemp(dir=workdir))
    env.update({var: "1" for var in _bench().BLAS_VARS})
    proc = subprocess.run(
        [sys.executable, "-m", "capa_secrecy.cli", "sweep", "--config", path,
         "--out", out, "--seed", str(seed)] + extra,
        cwd=workdir, env=env, capture_output=True, text=True)
    if not os.path.exists(out):
        return proc.returncode, []
    with open(out, newline="", encoding="utf-8") as fh:
        return proc.returncode, list(csv.DictReader(fh))


def _relative(old, new):
    try:
        a, b = float(old), float(new)
    except ValueError:
        return "n/a"
    if a == b:
        return "0"
    return f"{abs(b - a) / abs(a):.3g}" if a else "inf"


def differences(old_rows, new_rows):
    """One line per row whose result or std_err differs, or that only one
    list has; rows are keyed by axis, value, scenario, evaluator and metric."""
    def keyed(rows):
        return {(r["axis"], r["value"], r["scenario"], r["evaluator"],
                 r["metric"]): (r["result"], r["std_err"]) for r in rows}

    old, new = keyed(old_rows), keyed(new_rows)
    lines = []
    for key in list(old) + [k for k in new if k not in old]:
        where = ",".join(key)
        if key not in new:
            lines.append(f"{where}: only in the old rows ({old[key][0]})")
        elif key not in old:
            lines.append(f"{where}: only in the new rows ({new[key][0]})")
        elif old[key] != new[key]:
            lines.append(f"{where}: {old[key][0]} -> {new[key][0]} (relative "
                         f"{_relative(old[key][0], new[key][0])}), std_err "
                         f"{old[key][1] or '-'} -> {new[key][1] or '-'}")
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev", help="the revision to compare against")
    parser.add_argument("--seed", type=int, default=20260810)
    args = parser.parse_args(argv)
    status = 0
    with tempfile.TemporaryDirectory(prefix="parity-") as workdir:
        other = os.path.join(workdir, "tree")
        subprocess.run(["git", "-C", ROOT, "worktree", "add", "--detach",
                        other, args.rev], check=True, capture_output=True)
        try:
            for name, (config, extra) in configs().items():
                old_code, old_rows = sweep(other, config, extra, args.seed,
                                           workdir, f"old-{name}")
                new_code, new_rows = sweep(ROOT, config, extra, args.seed,
                                           workdir, f"new-{name}")
                lines = differences(old_rows, new_rows)
                if old_code != new_code:
                    lines.insert(0, f"exit code {old_code} -> {new_code}")
                print(f"{name}: {len(new_rows)} rows, {len(lines)} differ")
                for line in lines:
                    print(f"  {line}")
                status |= bool(lines)
        finally:
            subprocess.run(["git", "-C", ROOT, "worktree", "remove", "--force",
                            other], capture_output=True)
    return status


if __name__ == "__main__":
    sys.exit(main())
