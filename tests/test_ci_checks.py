"""tests/ci_checks.py, the script CI's sweep steps check their CSVs with: each
check passes on a real sweep and fails on a CSV doctored past its rule."""
import csv
import json
import subprocess
import sys

import pytest

import ci_checks
from capa_secrecy import cli

TRIALS = 10000
CONFIG = {"aperture_lambdas": 2, "axis": "k_eves", "values": [1, 2, 4],
          "n_trials": TRIALS, "scenarios": ["SE", "MIE"],
          "evaluators": ["quadrature", "monte-carlo"]}
ROWS, MC_ROWS, ONE_ROWS = 24, 12, 8  # 3 values x 2 scenarios x 2 x 2 metrics


@pytest.fixture(scope="module")
def sweeps(tmp_path_factory):
    """(full CSV, CSV of its last value alone), each written by `cli.main`."""
    tmp = tmp_path_factory.mktemp("sweeps")
    full, one = tmp / "full.json", tmp / "one.json"
    full.write_text(json.dumps(CONFIG))
    ci_checks.main(["one-value", str(full), "-1", str(one)])
    for cfg in (full, one):
        assert cli.main(["sweep", "--config", str(cfg),
                         "--out", str(cfg.with_suffix(".csv"))]) == 0
    return tmp / "full.csv", tmp / "one.csv"


def fails(*argv):
    with pytest.raises(SystemExit) as exc:
        ci_checks.main([*map(str, argv)])
    assert isinstance(exc.value.code, str)  # exit 1, with the reason


def doctored(path, tmp_path, edit):
    """A copy of CSV `path` whose data rows (dicts) `edit` changed in place."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    edit(rows)
    out = tmp_path / f"doctored-{path.name}"
    with open(out, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=rows[0].keys(),
                                lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
    return out


def test_one_value_copies_the_config_with_one_value(tmp_path):
    path, out = tmp_path / "cfg.json", tmp_path / "one.json"
    path.write_text(json.dumps(CONFIG))
    ci_checks.main(["one-value", str(path), "1", str(out)])
    assert json.loads(out.read_text()) == dict(CONFIG, values=[2])


def test_checks_pass_on_a_sweep(sweeps):
    full, one = sweeps
    ci_checks.main(["rows", str(full), str(ROWS)])
    ci_checks.main(["monte-carlo", str(full), str(TRIALS), str(MC_ROWS)])
    ci_checks.main(["alone", str(full), str(one), str(ONE_ROWS)])


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
            tol = 6 * float(r["std_err"]) + 10 / TRIALS
            r["result"] = repr(want + sign * scale * tol)
        return edit

    inside = doctored(full, tmp_path, move(1 - 1e-6))
    ci_checks.main(["monte-carlo", str(inside), str(TRIALS), str(MC_ROWS)])
    fails("monte-carlo", doctored(full, tmp_path, move(1 + 1e-6)), TRIALS,
          MC_ROWS)


def test_monte_carlo_rows_counted_and_paired(sweeps, tmp_path):
    full, _ = sweeps
    fails("monte-carlo", full, TRIALS, MC_ROWS + 1)

    def drop_a_quadrature_row(rows):
        rows.remove(next(r for r in rows if r["evaluator"] == "quadrature"))
    fails("monte-carlo", doctored(full, tmp_path, drop_a_quadrature_row),
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
    fails("alone", full, bad, n)  # the row count matches: the rows do not
    fails("alone", bad, one, ONE_ROWS)  # nor when FULL is the doctored one


@pytest.mark.parametrize("n", [ONE_ROWS - 1, ONE_ROWS + 1])
def test_one_value_wrong_row_count_fails(sweeps, n):
    full, one = sweeps
    fails("alone", full, one, n)


def test_error_row_fails(sweeps, tmp_path):
    full, _ = sweeps

    def fail_last_point(rows):
        rows[-1].update(metric="error", result="error:ComputationError",
                        std_err="")
    bad = doctored(full, tmp_path, fail_last_point)
    fails("rows", bad, ROWS)
    fails("rows", full, ROWS - 1)
    # as CI runs it: a script that exits 1
    proc = subprocess.run([sys.executable, ci_checks.__file__, "rows",
                           str(bad), str(ROWS)], capture_output=True, text=True)
    assert proc.returncode == 1 and "error rows" in proc.stderr, proc
