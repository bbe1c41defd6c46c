"""The rules that the sweep checks of `tests/test_ci_checks.py` hold a
sweep's CSV to, one function each.  A rule that fails raises AssertionError
and says why."""
import csv


def read_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def rows(path, n):
    """CSV `path` has `n` rows and no error row."""
    got = read_rows(path)
    assert len(got) == n, f"{path}: {len(got)} rows, not {n}"
    bad = [r for r in got if r["result"].startswith("error:")]
    assert not bad, f"{path}: error rows {bad}"


def tolerance(row, trials):
    """How far monte-carlo `row` of a `trials`-trial sweep may lie from its
    quadrature row: the benchmark's rule for sampled rows."""
    return 6 * float(row["std_err"]) + 10 / trials


def monte_carlo(path, trials, n):
    """CSV `path` has `n` monte-carlo rows, each within its `tolerance` of
    the quadrature row at its value, scenario and metric."""
    got = read_rows(path)
    quad = {(r["value"], r["scenario"], r["metric"]): r["result"]
            for r in got if r["evaluator"] == "quadrature"}
    mc = [r for r in got if r["evaluator"] == "monte-carlo"]
    assert len(mc) == n, f"{path}: {len(mc)} monte-carlo rows, not {n}"
    for r in mc:
        want = quad.get((r["value"], r["scenario"], r["metric"]))
        assert want is not None, f"{path}: no quadrature row for {r}"
        off, tol = abs(float(r["result"]) - float(want)), tolerance(r, trials)
        assert off <= tol, (f"{path}: {r} is {off:.3g} off its quadrature "
                            f"row {want}, past {tol:.3g}")


def alone(full, one, n):
    """CSV `one`, a sweep of one grid value, is CSV `full`'s header and
    `full`'s rows at that value byte for byte, `n` rows."""
    with open(full, "rb") as fh:
        full_lines = fh.read().splitlines(keepends=True)
    with open(one, "rb") as fh:
        one_lines = fh.read().splitlines(keepends=True)
    assert len(one_lines) == n + 1, f"{one}: {len(one_lines) - 1} rows, not {n}"
    key = b",".join(one_lines[1].split(b",")[:2]) + b","  # axis,value,
    mine = full_lines[:1] + [ln for ln in full_lines[1:] if ln.startswith(key)]
    assert mine == one_lines, f"{full}: its {key.decode()} rows are not {one}'s"
