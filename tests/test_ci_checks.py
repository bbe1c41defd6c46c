"""Whole sweeps held to the rules of `tests/ci_checks.py`: the shipped
Table-1 sweep and the aperture and K grids (row count, no error row, each
monte-carlo row within its tolerance of the quadrature, a value swept alone
writes the full sweep's rows), the spectrum cache, one BLAS thread and one
CPU; and each rule failing on a CSV doctored past it."""
import csv
import json
import os
import pathlib
import subprocess
import sys

import pytest

import ci_checks
from capa_secrecy import cli
from capa_secrecy import sweep as sw

ROOT = pathlib.Path(__file__).resolve().parents[1]
TABLE1 = json.loads((ROOT / "configs" / "table1_sweep.json").read_text())
TRIALS = 20000
SCENARIOS = ["SE", "MIE", "MCE"]
SAMPLED = ["quadrature", "monte-carlo", "spda-mc"]
LENGTHS = {"axis": "aperture_len", "values": [0.2498, 0.6245, 1.249]}  # 2, 5, 10 λ
# name: (config, extra sweep arguments, rows, {grid index: rows of that
# value swept alone}, monte-carlo rows)
SWEEPS = {
    "table1": (TABLE1, ["--trials", str(TRIALS)], 216, {4: 24}, 54),
    # the paper's CAPA-vs-SPDA comparison as the aperture grows
    "aperture": (dict(LENGTHS, gamma_b_db=10.0, gamma_e_db=0.0,
                      scenarios=SCENARIOS, evaluators=SAMPLED),
                 ["--trials", str(TRIALS)], 54, {0: 18}, 18),
    # each K's Eve sets replace the last K's
    "keves-sampled": ({"aperture_lambdas": 2, "axis": "k_eves",
                       "values": [1, 2, 4], "scenarios": SCENARIOS,
                       "evaluators": SAMPLED},
                      ["--trials", str(TRIALS)], 54, {2: 18}, 18),
    # closed-keves' settings over K 1 to 8: an aperture's points share the
    # closed rate's tables and each Eve scale's kernel
    "keves-closed": ({"aperture_lambdas": 3, "quadrature_order": 160,
                      "axis": "k_eves", "values": [1, 2, 3, 4, 5, 6, 7, 8],
                      "scenarios": SCENARIOS, "evaluators": ["closed-form"],
                      "outputs": ["rate", "sop"]}, [], 48, {0: 6, 7: 6}, 0),
    # the one setup in which two apertures solve their spectra on the same
    # Gauss-Legendre order: each cache miss computes its own rule
    "fixed-order": ({"axis": "aperture_len", "values": [0.2498, 0.3747],
                     "quadrature_order": 160, "scenarios": SCENARIOS,
                     "evaluators": ["closed-form", "quadrature"],
                     "outputs": ["sop", "offset", "gain"]}, [], 24, {1: 12}, 0),
    # the offset's Eve term is made once per (scenario, K, gamma_e) in a
    # sweep: the last length reads the terms the first one made
    "highsnr-aperture": (dict(LENGTHS, gamma_b_db=40.0, gamma_e_db=0.0,
                              k_eves=5, scenarios=SCENARIOS,
                              evaluators=["closed-form", "asymptotic"],
                              outputs=["offset", "gain", "rate"]),
                         [], 36, {-1: 12}, 0),
}
APERTURE_ALL = dict(SWEEPS["aperture"][0], evaluators=list(sw.EVALUATORS),
                    outputs=list(sw.OUTPUTS))


def sweep(tmp_path, cfg, name, *args):
    """The CSV that `cli.main` writes for config dict `cfg`."""
    path, out = tmp_path / f"{name}.json", tmp_path / f"{name}.csv"
    path.write_text(json.dumps(cfg))
    assert cli.main(["sweep", "--config", str(path), "--out", str(out),
                     *args]) == 0
    return out


def child_sweep(tmp_path, cfg, name, *args, pinned=False):
    """The CSV bytes of `sweep` run in a fresh interpreter on one BLAS
    thread, without a spectrum cache, and pinned to one CPU if `pinned`:
    the child then requires that it sees exactly one."""
    path, out = tmp_path / f"{name}.json", tmp_path / f"{name}.csv"
    path.write_text(json.dumps(cfg))
    env = {k: v for k, v in os.environ.items() if k != "CAPA_CACHE_DIR"}
    env.update(OPENBLAS_NUM_THREADS="1", PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])))
    code = ("import os, sys; from capa_secrecy import cli; "
            + ("assert len(os.sched_getaffinity(0)) == 1; " if pinned else "")
            + "sys.exit(cli.main(sys.argv[1:]))")
    proc = subprocess.run(
        [sys.executable, "-c", code, "sweep", "--config", str(path),
         "--out", str(out), *args], env=env, capture_output=True, text=True,
        timeout=600, preexec_fn=(lambda: os.sched_setaffinity(
            0, {min(os.sched_getaffinity(0))})) if pinned else None)
    assert proc.returncode == 0, proc.stderr
    return out.read_bytes()


@pytest.mark.parametrize("name,seed", [
    ("table1", None), ("table1", 7), ("aperture", None), ("aperture", 7),
    ("keves-sampled", None), ("keves-sampled", 7), ("keves-closed", None),
    ("fixed-order", None), ("highsnr-aperture", None)])
def test_sweep_rows(tmp_path, monkeypatch, name, seed):
    # on the config's root seed and on 7 (independent streams): the row
    # count, no error row, each monte-carlo row within its tolerance of its
    # quadrature row, and a value swept alone writes the full sweep's rows
    monkeypatch.delenv("CAPA_CACHE_DIR", raising=False)
    cfg, args, n, alone, n_mc = SWEEPS[name]
    args = [*args, *(["--seed", str(seed)] if seed else [])]
    full = sweep(tmp_path, cfg, "full", *args)
    ci_checks.rows(full, n)
    ci_checks.monte_carlo(full, TRIALS, n_mc)
    for i, n_one in alone.items():
        one = sweep(tmp_path, dict(cfg, values=[cfg["values"][i]]), f"at{i}",
                    *args)
        ci_checks.alone(full, one, n_one)


@pytest.mark.parametrize("name,entries", [("table1", 1), ("fixed-order", 2)])
def test_spectrum_cache_keeps_every_byte(tmp_path, monkeypatch, name, entries):
    # the first cached run fills the cache (one entry per aperture length),
    # the second reads it: neither changes a byte of the CSV
    cfg, args = SWEEPS[name][:2]
    monkeypatch.delenv("CAPA_CACHE_DIR", raising=False)
    plain = sweep(tmp_path, cfg, "plain", *args).read_bytes()
    monkeypatch.setenv("CAPA_CACHE_DIR", str(tmp_path / "spectra"))
    for run in ("cold", "warm"):
        assert sweep(tmp_path, cfg, run, *args).read_bytes() == plain, run
    assert len(os.listdir(tmp_path / "spectra")) == entries


def test_shipped_sweep_on_one_blas_thread(tmp_path, monkeypatch):
    # eigvalsh moves sigma with the BLAS thread count: at its default order
    # the 40-wavelength spectrum, and so the shipped sweep's CSV (which also
    # reads the quadratures' batched sums), is the same on one thread as on
    # this run's count
    cfg, args = SWEEPS["table1"][:2]
    monkeypatch.delenv("CAPA_CACHE_DIR", raising=False)
    free = sweep(tmp_path, cfg, "threads", *args).read_bytes()
    assert child_sweep(tmp_path, cfg, "blas1", *args) == free


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"),
                    reason="no CPU affinity on this platform")
@pytest.mark.parametrize("cfg", [TABLE1, APERTURE_ALL],
                         ids=["table1", "aperture-all"])
def test_sampled_rows_do_not_depend_on_scheduling(tmp_path, cfg):
    # each aperture's Monte Carlo draws run on a second thread while its
    # analytic rows run: pinned to one CPU and unpinned, the sweep writes
    # the same bytes
    args = ["--trials", str(TRIALS)]
    pinned = child_sweep(tmp_path, cfg, "pinned", *args, pinned=True)
    assert pinned == child_sweep(tmp_path, cfg, "free", *args)


# ---------------------------------------------------------------------------
# each rule fails on a CSV doctored past it
# ---------------------------------------------------------------------------

# the sampled k_eves sweep on SE and MIE with quadrature and monte-carlo:
# 3 values x 2 scenarios x 2 evaluators x 2 metrics
RULE_CFG = dict(SWEEPS["keves-sampled"][0], scenarios=["SE", "MIE"],
                evaluators=["quadrature", "monte-carlo"])
ROWS, MC_ROWS, ONE_ROWS = 24, 12, 8


@pytest.fixture(scope="module")
def sweeps(tmp_path_factory):
    """(full CSV, CSV of K 4 alone) of RULE_CFG's sweep."""
    tmp, args = tmp_path_factory.mktemp("sweeps"), ["--trials", str(TRIALS)]
    return (sweep(tmp, RULE_CFG, "full", *args),
            sweep(tmp, dict(RULE_CFG, values=[4]), "one", *args))


def fails(rule, *args):
    with pytest.raises(AssertionError):
        rule(*args)


def doctored(path, tmp_path, edit):
    """A copy of CSV `path` whose data rows (dicts) `edit` changed in place."""
    rows = ci_checks.read_rows(path)
    edit(rows)
    out = tmp_path / f"doctored-{path.name}"
    with open(out, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=rows[0].keys(),
                                lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
    return out


@pytest.mark.parametrize("sign", [1, -1])
def test_monte_carlo_row_just_past_its_tolerance_fails(sweeps, tmp_path, sign):
    full, _ = sweeps

    def move(scale):
        def edit(rows):
            r = next(r for r in rows if r["evaluator"] == "monte-carlo")
            want = next(float(q["result"]) for q in rows
                        if q["evaluator"] == "quadrature"
                        and (q["value"], q["scenario"], q["metric"])
                        == (r["value"], r["scenario"], r["metric"]))
            tol = ci_checks.tolerance(r, TRIALS)
            r["result"] = repr(want + sign * scale * tol)
        return edit

    inside = doctored(full, tmp_path, move(1 - 1e-6))
    ci_checks.monte_carlo(inside, TRIALS, MC_ROWS)
    fails(ci_checks.monte_carlo, doctored(full, tmp_path, move(1 + 1e-6)),
          TRIALS, MC_ROWS)


def test_monte_carlo_rows_counted_and_paired(sweeps, tmp_path):
    full, _ = sweeps
    fails(ci_checks.monte_carlo, full, TRIALS, MC_ROWS + 1)

    def drop_a_quadrature_row(rows):
        rows.remove(next(r for r in rows if r["evaluator"] == "quadrature"))
    fails(ci_checks.monte_carlo, doctored(full, tmp_path, drop_a_quadrature_row),
          TRIALS, MC_ROWS)


@pytest.mark.parametrize("doctor", ["byte", "missing", "extra", "header"])
def test_one_value_rows_differ_fails(sweeps, tmp_path, doctor):
    full, one = sweeps
    lines = one.read_bytes().splitlines(keepends=True)
    if doctor == "byte":  # the last digit of the last row's result
        cells = lines[-1].split(b",")
        cells[5] = cells[5][:-1] + bytes([cells[5][-1] ^ 1])
        lines[-1] = b",".join(cells)
    elif doctor == "missing":
        del lines[3]
    elif doctor == "extra":
        lines.insert(3, lines[3])
    else:
        lines[0] = lines[0].replace(b"wall_ms", b"wall")
    bad = tmp_path / "one.csv"
    bad.write_bytes(b"".join(lines))
    n = ONE_ROWS + {"missing": -1, "extra": 1}.get(doctor, 0)
    fails(ci_checks.alone, full, bad, n)  # the row count matches: the rows do not
    fails(ci_checks.alone, bad, one, ONE_ROWS)  # nor when FULL is the doctored one


@pytest.mark.parametrize("n", [ONE_ROWS - 1, ONE_ROWS + 1])
def test_one_value_wrong_row_count_fails(sweeps, n):
    full, one = sweeps
    fails(ci_checks.alone, full, one, n)


def test_error_row_fails(sweeps, tmp_path):
    full, _ = sweeps

    def fail_last_point(rows):
        rows[-1].update(metric="error", result="error:ComputationError",
                        std_err="")
    fails(ci_checks.rows, doctored(full, tmp_path, fail_last_point), ROWS)
    fails(ci_checks.rows, full, ROWS - 1)
