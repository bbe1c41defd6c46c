"""The row comparison of `tests/parity.py` on real and doctored sweep rows."""
import pytest

import parity

KEY = ("axis", "value", "scenario", "evaluator", "metric")
SMALL = {"aperture_lambdas": 2, "quadrature_order": 120, "axis": "k_eves",
         "values": [1, 3], "scenarios": ["SE", "MIE"],
         "evaluators": ["closed-form", "quadrature"],
         "outputs": ["sop", "gain"]}


@pytest.fixture(scope="module")
def rows(tmp_path_factory):
    work = str(tmp_path_factory.mktemp("parity"))
    code, got = parity.sweep(parity.ROOT, SMALL, [], 7, work, "small")
    assert code == 0 and len(got) == 12
    return got


def test_same_rows_do_not_differ(rows, tmp_path):
    code, again = parity.sweep(parity.ROOT, SMALL, [], 7, str(tmp_path),
                               "again")
    assert code == 0 and parity.differences(rows, again) == []


def test_changed_result_is_printed_with_its_relative_difference(rows):
    new = [dict(r) for r in rows]
    old_value = float(new[1]["result"])
    new[1]["result"] = repr(old_value * (1.0 + 1e-12))
    lines = parity.differences(rows, new)
    assert len(lines) == 1
    assert lines[0].startswith(",".join(new[1][k] for k in KEY))
    assert "(relative 1e-12)" in lines[0]


def test_changed_std_err_differs(rows):
    new = [dict(r) for r in rows]
    new[0]["std_err"] = "0.5"
    assert len(parity.differences(rows, new)) == 1


@pytest.mark.parametrize("side", ["old", "new"])
def test_row_in_one_list_only_differs(rows, side):
    short = rows[:2] + rows[3:]
    old, new = (short, rows) if side == "new" else (rows, short)
    where = ",".join(rows[2][k] for k in KEY)
    assert parity.differences(old, new) == [
        f"{where}: only in the {side} rows ({rows[2]['result']})"]


def test_config_set_is_the_benchmark_workloads_and_the_shipped_sweep():
    got = parity.configs()
    assert list(got) == ["table1-mc", "closed-keves", "aperture",
                         "table1_sweep"]
    bench = parity._bench()
    assert got["table1-mc"] == (bench._table1(), [])
    assert got["aperture"] == (bench._aperture(), [])
    assert got["table1_sweep"][1] == ["--trials", "20000"]
