"""The checks that CI's sweep steps make on the CSVs they write, one rule each.

A script, not a test module (pytest does not collect it; its tests are
`tests/test_ci_checks.py`).  Run from the repository root:

    python3 tests/ci_checks.py one-value CONFIG INDEX OUT
        write CONFIG to OUT with its grid cut to the one value at INDEX
        (negative counts from the end)
    python3 tests/ci_checks.py rows CSV N
        CSV has N rows and no error row
    python3 tests/ci_checks.py monte-carlo CSV TRIALS N
        CSV has N monte-carlo rows, each within 6 std_err + 10/TRIALS of the
        quadrature row at its value, scenario and metric (the benchmark's
        rule for sampled rows)
    python3 tests/ci_checks.py alone FULL ONE N
        ONE, a sweep of one grid value, is FULL's header and FULL's rows at
        that value byte for byte, N rows

A check that fails exits 1 and says why.
"""
import csv
import json
import sys


def _require(ok, why):
    if not ok:
        sys.exit(why)


def _rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def one_value(config, index, out):
    with open(config, encoding="utf-8") as fh:
        cfg = json.load(fh)
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(dict(cfg, values=[cfg["values"][int(index)]]), fh)


def rows(path, n):
    got = _rows(path)
    _require(len(got) == int(n), f"{path}: {len(got)} rows, not {n}")
    bad = [r for r in got if r["result"].startswith("error:")]
    _require(not bad, f"{path}: error rows {bad}")


def monte_carlo(path, trials, n):
    got = _rows(path)
    quad = {(r["value"], r["scenario"], r["metric"]): r["result"]
            for r in got if r["evaluator"] == "quadrature"}
    mc = [r for r in got if r["evaluator"] == "monte-carlo"]
    _require(len(mc) == int(n), f"{path}: {len(mc)} monte-carlo rows, not {n}")
    worst = 0.0
    for r in mc:
        want = quad.get((r["value"], r["scenario"], r["metric"]))
        _require(want is not None, f"{path}: no quadrature row for {r}")
        tol = 6 * float(r["std_err"]) + 10 / int(trials)
        off = abs(float(r["result"]) - float(want))
        _require(off <= tol, f"{path}: {r} is {off:.3g} off its quadrature "
                             f"row {want}, past {tol:.3g}")
        worst = max(worst, off / tol)
    print(f"{path}: worst monte-carlo row uses {worst:.2f} of its tolerance")


def alone(full, one, n):
    with open(full, "rb") as fh:
        full_lines = fh.read().splitlines(keepends=True)
    with open(one, "rb") as fh:
        one_lines = fh.read().splitlines(keepends=True)
    _require(len(one_lines) == int(n) + 1,
             f"{one}: {len(one_lines) - 1} rows, not {n}")
    key = b",".join(one_lines[1].split(b",")[:2]) + b","  # axis,value,
    mine = full_lines[:1] + [ln for ln in full_lines[1:] if ln.startswith(key)]
    _require(mine == one_lines,
             f"{full}: its {key.decode()} rows are not {one}'s")


CHECKS = {"one-value": one_value, "rows": rows, "monte-carlo": monte_carlo,
          "alone": alone}


def main(argv):
    name, *args = argv
    CHECKS[name](*args)


if __name__ == "__main__":
    main(sys.argv[1:])
