import csv
import gc
import io
import json
import math
import os
import subprocess
import sys
import threading
import time
import tracemalloc
import weakref

import numpy as np
import pytest

from capa_secrecy import cli
from capa_secrecy import montecarlo as mc
from capa_secrecy import secrecy as sec
from capa_secrecy import snr_models as snr
from capa_secrecy import spectral as spc
from capa_secrecy import sweep as sw
from capa_secrecy.snr_models import LinkBudget, Scenario


def small_config(**overrides):
    cfg = {
        "wavelength_m": 0.1249,
        "aperture_lambdas": 2.0,
        "gamma_e_db": 0.0,
        "k_eves": 3,
        "target_rate_r0": 1.0,
        "quadrature_order": 120,
        "n_trials": 20000,
        "seed": 42,
        "axis": "gamma_b_db",
        "values": [0.0, 10.0, 20.0],
        "scenarios": ["SE", "MIE"],
        "evaluators": ["quadrature", "monte-carlo"],
        "outputs": ["rate", "sop"],
    }
    cfg.update(overrides)
    return cfg


def write_config(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def run_sweep_to_string(cfg_dict):
    cfg = sw.config_from_dict(cfg_dict)
    out = io.StringIO()
    code = sw.run_sweep(cfg, out, summary_stream=io.StringIO())
    return code, out.getvalue()


def parse_rows(csv_text):
    lines = csv_text.strip().split("\n")
    assert lines[0] == sw.CSV_HEADER
    rows = []
    for ln in lines[1:]:
        ax, val, scen, ev, metric, res, se, seed, wall = ln.split(",")
        rows.append(dict(axis=ax, value=float(val), scenario=scen,
                         evaluator=ev, metric=metric, result=res,
                         std_err=se, seed=seed, wall=wall))
    return rows


# ---------------------------------------------------------------------------
# configuration handling
# ---------------------------------------------------------------------------

def test_empty_scenarios_exit_2(tmp_path, capsys):
    path = write_config(tmp_path, small_config(scenarios=[]))
    code = cli.main(["sweep", "--config", path])
    assert code == 2
    assert "scenarios" in capsys.readouterr().err


def test_missing_config_exit_2(capsys):
    assert cli.main(["sweep", "--config", "/nonexistent.json"]) == 2


def unreadable_input(tmp_path, kind):
    path = tmp_path / f"input-{kind}"
    if kind == "directory":
        path.mkdir()
    else:  # Latin-1 text, not UTF-8
        path.write_bytes('{"scenarios": ["SE"], "note": "é"}\n'.encode("latin-1"))
    return str(path)


@pytest.mark.parametrize("kind", ["directory", "latin-1"])
def test_unreadable_config_exit_2(tmp_path, capsys, kind):
    path = unreadable_input(tmp_path, kind)
    assert cli.main(["sweep", "--config", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and path in err


def test_sweep_out_into_missing_directory_exit_2(tmp_path, capsys, monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("the sweep ran before its output was opened")

    monkeypatch.setattr(sw, "run_sweep", no_work)
    out = str(tmp_path / "missing" / "out.csv")
    code = cli.main(["sweep", "--config", write_config(tmp_path, small_config()),
                     "--out", out])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("sweep error: ") and out in err


@pytest.mark.parametrize("bad,field", [
    ({"values": [3.0, 1.0]}, "values"),
    ({"values": []}, "values"),
    ({"axis": "bandwidth"}, "axis"),
    ({"evaluators": ["exact"]}, "evaluators"),
    ({"outputs": ["latency"]}, "outputs"),
    ({"n_trials": -5}, "n_trials"),
    ({"frequency": 1.0}, "frequency"),
    ({"values": ["x"]}, "values"),
    ({"values": [0.0, True]}, "values"),
    ({"outputs": 5}, "outputs"),
    ({"k_eves": True}, "k_eves"),
    ({"gamma_e_db": "x"}, "gamma_e_db"),
    ({"aperture_lambdas": "x"}, "aperture_lambdas"),
    ({"aperture_lambdas": True}, "aperture_lambdas"),
    ({"values": [0.0, float("nan")]}, "values"),
    ({"values": [0.0, float("inf")]}, "values"),
    ({"values": [0.0, 10 ** 400]}, "values"),
    ({"gamma_b_db": float("nan")}, "gamma_b_db"),
    ({"wavelength_m": float("inf")}, "wavelength_m"),
    ({"timing": "no"}, "timing"),
    ({"q_floor": 160}, "q_floor"),
    ({"series_tol": 1e-8}, "series_tol"),
    ({"epsilon_floor": 1e-8}, "epsilon_floor"),
    ({"n_trials": 5000}, "n_trials"),
    ({"seed": -1}, "seed"),
    ({"aperture_len_m": 5.0}, "aperture_lambdas"),
    ({"quadrature_order": 0}, "quadrature_order"),
    ({"workers": 2}, "workers"),
    ({"scenarios": ["SE", "SE"]}, "scenarios"),
    ({"evaluators": ["closed-form", "quadrature", "closed-form"]},
     "evaluators"),
    ({"outputs": ["rate", "sop", "rate"]}, "outputs"),
])
def test_validation_names_field(bad, field):
    with pytest.raises(sw.ConfigError, match=field):
        sw.config_from_dict(small_config(**bad))


def test_table1_preset():
    cfg = sw.config_from_dict({"preset": "table1"})
    assert cfg == sw.config_from_dict({})
    assert cfg.gamma_b_db == 20.0
    assert cfg.gamma_e_db == 20.0
    assert cfg.k_eves == 5
    assert cfg.target_rate_r0 == 3.0
    assert cfg.quadrature_order is None
    assert cfg.aperture_len_m == pytest.approx(40 * 0.1249)
    geom = spc.ApertureGeometry(cfg.wavelength_m, cfg.aperture_len_m)
    assert spc.nystrom_order(geom) == 192
    with pytest.raises(sw.ConfigError, match="preset"):
        sw.config_from_dict({"preset": "table2"})


# ---------------------------------------------------------------------------
# sweep runs
# ---------------------------------------------------------------------------

def test_sweep_byte_deterministic(tmp_path):
    path = write_config(tmp_path, small_config())
    out_a, out_b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    assert cli.main(["sweep", "--config", path, "--out", out_a]) == 0
    assert cli.main(["sweep", "--config", path, "--out", out_b]) == 0
    assert open(out_a, "rb").read() == open(out_b, "rb").read()


def test_sweep_rate_monotone_in_bob_snr():
    code, text = run_sweep_to_string(small_config(
        values=[-10.0, 0.0, 10.0, 20.0, 30.0], scenarios=["SE", "MIE"],
        evaluators=["quadrature"]))
    assert code == 0
    rows = parse_rows(text)
    for scen in ("SE", "MIE"):
        rates = [float(r["result"]) for r in rows
                 if r["scenario"] == scen and r["metric"] == "rate"]
        assert len(rates) == 5
        assert all(b >= a for a, b in zip(rates, rates[1:]))


def test_sweep_k_axis_trends():
    code, text = run_sweep_to_string(small_config(
        axis="k_eves", values=[1, 2, 4, 8], scenarios=["MCE"],
        evaluators=["quadrature"], gamma_b_db=20.0))
    assert code == 0
    rows = parse_rows(text)
    rates = [float(r["result"]) for r in rows if r["metric"] == "rate"]
    sops = [float(r["result"]) for r in rows if r["metric"] == "sop"]
    assert all(b <= a for a, b in zip(rates, rates[1:]))
    assert all(b >= a for a, b in zip(sops, sops[1:]))


def test_sweep_reports_numerical_failures():
    # a vanishing-rate corner trips the closed-form precision guard; the
    # sweep must finish, tag the row, and exit 1
    code, text = run_sweep_to_string(small_config(
        gamma_e_db=100.0, gamma_b_db=0.0, values=[0.0],
        scenarios=["SE"], evaluators=["closed-form"], outputs=["rate"]))
    assert code == 1
    rows = parse_rows(text)
    assert any(r["metric"] == "error"
               and r["result"] == "error:PrecisionLossError" for r in rows)


def test_sweep_cli_overrides(tmp_path, capsys):
    path = write_config(tmp_path, small_config())
    out = str(tmp_path / "o.csv")
    code = cli.main(["sweep", "--config", path, "--out", out,
                     "--trials", "15000", "--seed", "9",
                     "--evaluator", "monte-carlo"])
    assert code == 0
    text = open(out).read()
    rows = parse_rows(text)
    assert all(r["evaluator"] == "monte-carlo" for r in rows)
    assert all(r["seed"] == "9" for r in rows)  # the root seed that ran
    # an override is validated like the config field it replaces
    capsys.readouterr()
    assert cli.main(["sweep", "--config", path, "--seed", "-5"]) == 2
    assert capsys.readouterr().err.startswith("config error: seed:")
    # there is no worker pool to size
    with pytest.raises(SystemExit) as exc:
        cli.main(["sweep", "--config", path, "--workers", "2"])
    assert exc.value.code == 2 and "--workers" in capsys.readouterr().err


# 74.94 m is 600 wavelengths: dof 1200 needs 2400 quadrature points, so
# decompose() raises DomainError at the quadrature order of small_config
FAILING_LENGTHS = dict(axis="aperture_len", values=[0.4996, 74.94])


def test_failing_aperture_grid_tags_its_points():
    # the failing length's points are tagged and the sweep exits 1; the
    # other length's rows are those of a sweep of that length alone
    base = small_config(evaluators=["quadrature", "monte-carlo"],
                        **FAILING_LENGTHS)
    code, text = run_sweep_to_string(base)
    assert code == 1
    rows = parse_rows(text)
    failed = [r for r in rows if r["value"] == 74.94]
    assert failed and all(r["result"] == "error:DomainError" for r in failed)
    code, alone = run_sweep_to_string({**base, "values": [0.4996]})
    assert code == 0
    assert [r for r in rows if r["value"] == 0.4996] == parse_rows(alone)


@pytest.mark.filterwarnings("ignore:2L/lambda")
def test_failed_aperture_draws_no_eves(monkeypatch):
    # every row at an aperture under lambda/4 (no degree of freedom) raises
    # its DomainError, so no Eve set is drawn there; a later length that
    # resolves draws the same streams as a sweep of that length alone
    drawn = []
    draw = mc.unit_eve_draws

    def recording(*args):
        drawn.append(args)
        return draw(*args)
    monkeypatch.setattr(mc, "unit_eve_draws", recording)
    code, text = run_sweep_to_string(small_config(
        aperture_lambdas=0.08, axis="k_eves", values=[1, 2, 4, 8],
        scenarios=["SE", "MIE", "MCE"], evaluators=["monte-carlo"]))
    assert code == 1 and drawn == []
    assert text == sw.CSV_HEADER + "\n" + "".join(
        f"k_eves,{k},{scen},monte-carlo,error,error:DomainError,,42,\n"
        for k in (1, 2, 4, 8) for scen in ("SE", "MIE", "MCE"))

    def eve_streams(values):
        drawn.clear()
        code, _ = run_sweep_to_string(small_config(
            axis="aperture_len", values=values, evaluators=["monte-carlo"]))
        return code, drawn[:]

    code, after_failed = eve_streams([0.01, 0.4996])
    assert code == 1 and len(after_failed) == 2
    assert after_failed == eve_streams([0.4996])[1]


def test_quadrature_rows_one_bob_law_call_a_pass(monkeypatch):
    # the table1 gamma_b grid: 27 rate and 27 SOP integrals at one aperture
    # advance together, so each pass calls Bob's law once for all of them
    # and each Eve law (one per scenario) once
    calls = {"pass": 0, "bob": 0, "eve": 0}

    def counting(module, name, key):
        fn = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    counting(sec, "_qk21", "pass")
    for name in ("bob_cdf", "bob_survival"):
        counting(snr, name, "bob")
    for name in ("eve_cdf", "eve_pdf"):
        counting(snr, name, "eve")
    with open(TABLE1_CONFIG, encoding="utf-8") as fh:
        table1 = json.load(fh)
    code, text = run_sweep_to_string({**table1, "evaluators": ["quadrature"]})
    assert code == 0 and len(parse_rows(text)) == 54
    assert calls["bob"] == calls["pass"] < 54
    assert calls["pass"] < calls["eve"] <= 3 * calls["pass"]


def test_each_aperture_resolved_once(monkeypatch):
    calls = {"cached_decompose": [], "build_psi": []}

    def counting(module, name, length_of):
        fn = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name].append(length_of(args[0]))
            return fn(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    counting(spc, "cached_decompose", lambda geom: geom.aperture_len_m)
    counting(snr, "build_psi", lambda spec: spec.aperture_len_m)

    def sweep(values):
        for c in calls.values():
            c.clear()
        summary = io.StringIO()
        code = sw.run_sweep(sw.config_from_dict(small_config(
            axis="aperture_len", values=values,
            evaluators=["quadrature", "asymptotic"])),
            io.StringIO(), summary_stream=summary)
        return code, summary.getvalue()

    # every length once, the failing ones included; a failed spectrum
    # leaves no series to build
    code, summary = sweep([0.4996, 74.94, 149.88])
    assert code == 1
    assert calls == {"cached_decompose": [0.4996, 74.94, 149.88],
                     "build_psi": [0.4996]}
    assert summary.startswith("spectrum: aperture_len=0.4996 dof=8 ")
    # the summary reports a failed first length instead of solving again
    code, summary = sweep([74.94, 149.88])
    assert code == 1
    assert calls == {"cached_decompose": [74.94, 149.88], "build_psi": []}
    assert summary == ("spectrum: aperture_len=74.94 error:DomainError: "
                       "need t >= 2*dof = 2400 quadrature points, got 120\n")


def closed_rate_config(**overrides):
    """closed-keves' settings: 3 wavelengths at t 160, the closed-form rate
    of SE, MIE and MCE."""
    return {"aperture_lambdas": 3, "quadrature_order": 160,
            "scenarios": ["SE", "MIE", "MCE"], "evaluators": ["closed-form"],
            "outputs": ["rate"], **overrides}


def test_closed_rate_kernel_runs_once_per_eve_scale(monkeypatch, ms6):
    # MIE's kernels at gamma_e/(a + 1) are those of every smaller K, its
    # a = 0 kernel is SE's and MCE's at K = 1: a K 1..8 sweep runs one per
    # distinct (mu, K), 8 + 7, not 52, and a second sweep starts afresh
    runs = []
    kernel = sec._closed_rate_kernel

    def counting(theta, mu, k, *args):
        runs.append((mu, k))
        return kernel(theta, mu, k, *args)
    monkeypatch.setattr(sec, "_closed_rate_kernel", counting)
    cfg = closed_rate_config(axis="k_eves", values=list(range(1, 9)))
    for _ in range(2):
        runs.clear()
        code, text = run_sweep_to_string(cfg)
        assert code == 0
        assert len(runs) == len(set(runs)) == 15
    rows = parse_rows(text)
    assert len(rows) == 24
    for r in rows:  # each the value of a call that shares nothing
        lb = LinkBudget(100.0, 100.0, 1 if r["scenario"] == "SE"
                        else int(r["value"]), Scenario(r["scenario"]))
        assert r["result"] == sw._fmt(sec.secrecy_rate_closed(lb, ms6))


def test_closed_rate_sweep_holds_one_theta_of_tables():
    # every gamma_b has its own theta: the sweep lets one theta's tables
    # and kernels go before the next one's are made
    def peak(values):
        tracemalloc.start()
        try:
            code, _ = run_sweep_to_string(closed_rate_config(
                axis="gamma_b_db", values=values, scenarios=["SE"]))
            used = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        return used

    assert peak([float(v) for v in range(10, 40)]) <= peak([10.0, 11.0]) + (1 << 20)


def test_offset_eve_term_once_per_eve_law_per_sweep(monkeypatch, tmp_path):
    # the power offset's Eve term depends on (scenario, K, gamma_e) alone:
    # a sweep integrates the independent-Eves term once per (K, gamma_e),
    # over every gamma_b and aperture length, and the next sweep afresh
    calls = []
    term = sec.independent_eve_offset_term

    def counting(k, gamma_e):
        calls.append((k, gamma_e))
        return term(k, gamma_e)
    monkeypatch.setattr(sec, "independent_eve_offset_term", counting)

    def sweep(cfg):
        calls.clear()
        code, text = run_sweep_to_string(cfg)
        assert code == 0
        return len(calls), parse_rows(text)

    def assert_direct(rows, cfg, k_of=None):
        # each offset and asymptotic rate row is the value of a call that
        # shares nothing
        series = {}
        for r in rows:
            at = {sw.AXES[cfg.axis]: r["value"]}
            length = at.get("aperture_len_m", cfg.aperture_len_m)
            if length not in series:
                series[length] = snr.build_psi(spc.decompose(
                    spc.ApertureGeometry(cfg.wavelength_m, length),
                    cfg.quadrature_order))
            scen = Scenario(r["scenario"])
            lb = LinkBudget(10 ** (at.get("gamma_b_db", cfg.gamma_b_db) / 10),
                            10 ** (cfg.gamma_e_db / 10),
                            1 if scen == Scenario.SE
                            else k_of(r) if k_of else cfg.k_eves, scen)
            fn = {"offset": sec.high_snr_offset,
                  "rate": sec.asymptotic_rate}[r["metric"]]
            assert r["result"] == sw._fmt(fn(lb, series[length])), r

    raw = small_config(scenarios=["MIE"], evaluators=["asymptotic", "closed-form"],
                       outputs=["rate", "offset"])
    n, rows = sweep(raw)
    assert n == 1  # not 3 values x 2 rows
    assert_direct([r for r in rows if r["evaluator"] == "asymptotic"
                   or r["metric"] == "offset"], sw.config_from_dict(raw))
    # the benchmark's aperture sweep: one term for both lengths
    raw = {"preset": "table1", "axis": "aperture_len",
           "values": [1.249, 6.245], "scenarios": ["SE", "MIE", "MCE"],
           "evaluators": ["quadrature", "closed-form"],
           "outputs": ["sop", "slope", "offset", "gain"]}
    n, rows = sweep(raw)
    assert n == 1
    assert_direct([r for r in rows if r["metric"] == "offset"],
                  sw.config_from_dict(raw))
    # one term per K
    raw = small_config(axis="k_eves", values=[1, 2, 3, 4],
                       scenarios=["SE", "MIE", "MCE"],
                       evaluators=["closed-form"], outputs=["offset"])
    n, rows = sweep(raw)
    assert sorted(k for k, _ in calls) == [1, 2, 3, 4]
    assert_direct(rows, sw.config_from_dict(raw), lambda r: int(r["value"]))
    # the memo lives in one sweep: two CLI sweeps in one process make one
    # call each
    path = write_config(tmp_path, small_config(
        scenarios=["MIE"], evaluators=["closed-form"], outputs=["offset"]))
    for i in range(2):
        calls.clear()
        out = tmp_path / f"out{i}.csv"
        assert cli.main(["sweep", "--config", path, "--out", str(out)]) == 0
        assert len(calls) == 1
    assert out.read_text() == (tmp_path / "out0.csv").read_text()


@pytest.mark.parametrize("order,shown", [(None, 40), (120, 120)])
def test_summary_names_the_order_that_ran(order, shown):
    # JSON null is the default: the aperture's converged order
    summary = io.StringIO()
    code = sw.run_sweep(sw.config_from_dict(small_config(
        quadrature_order=order, evaluators=["asymptotic"])),
        io.StringIO(), summary_stream=summary)
    assert code == 0
    assert summary.getvalue().startswith(
        f"spectrum: aperture_len=0.2498 dof=4 t={shown} trace_residual=")


def test_monte_carlo_rows_replay_from_shared_bob_draws():
    # and the spda-mc rows from the array's: each sampled row is its loop
    # over the unit draws on its aperture's streams, (ai,) for Bob's and
    # (ai, 0) for the array's at grid index ai, past the first length too,
    # and Eve's on the (scenario, K) stream
    lengths = [0.2498, 0.3747]
    raw = small_config(axis="aperture_len", values=lengths,
                       scenarios=["SE", "MIE", "MCE"],
                       evaluators=["monte-carlo", "spda-mc"])
    code, text = run_sweep_to_string(raw)
    assert code == 0
    cfg = sw.config_from_dict(raw)
    draws = []
    for ai, length in enumerate(lengths):
        geom = spc.ApertureGeometry(cfg.wavelength_m, length)
        ms = snr.build_psi(spc.decompose(geom, cfg.quadrature_order))
        bob = mc.unit_bob_draws(ms, cfg.n_trials, sw._seed(cfg.seed, ai))
        spda = mc.unit_spda_draws(geom, cfg.n_trials, sw._seed(cfg.seed, ai, 0))
        assert not bob.flags.writeable and not spda.flags.writeable
        draws.append((geom, bob, spda))
    rows = parse_rows(text)
    assert len(rows) == 24  # 2 lengths x 3 scenarios x 2 evaluators x 2 metrics
    for r in rows:
        geom, bob, spda = draws[lengths.index(r["value"])]
        k = 1 if r["scenario"] == "SE" else cfg.k_eves
        scen = snr.Scenario(r["scenario"])
        eve = mc.unit_eve_draws(scen, k, cfg.n_trials, sw._seed(
            cfg.seed, sw.SCENARIOS.index(r["scenario"]), k))
        lb = snr.LinkBudget(10 ** (cfg.gamma_b_db / 10),
                            10 ** (cfg.gamma_e_db / 10), k, scen)
        if r["evaluator"] == "monte-carlo":
            rate, sop = mc.mc_secrecy(lb, bob, eve, cfg.target_rate_r0,
                                      cfg.n_trials)
        else:
            rate, sop = mc.spda_baseline(lb, geom, spda, eve,
                                         cfg.target_rate_r0, cfg.n_trials)
        est = rate if r["metric"] == "rate" else sop
        assert (r["result"], r["std_err"]) == (sw._fmt(est.mean),
                                               sw._fmt(est.std_err))


@pytest.mark.parametrize("axis,values", [
    ("gamma_b_db", [0.0, 10.0, 20.0]), ("gamma_e_db", [-10.0, 0.0, 10.0]),
    ("k_eves", [1, 2, 4]), ("aperture_len", [0.2498, 0.3747, 0.4996])])
def test_row_does_not_depend_on_rest_of_grid(axis, values):
    # a sweep of one value alone writes the full sweep's rows at it: every
    # row, but past the first aperture length only the analytic ones, as a
    # sampled row there reads its own grid index's Bob and array streams
    base = small_config(axis=axis, values=values,
                        scenarios=["SE", "MIE", "MCE"],
                        evaluators=list(sw.EVALUATORS),
                        outputs=list(sw.OUTPUTS))
    _, text = run_sweep_to_string(base)
    full = text.splitlines()[1:]
    for i, v in enumerate(values):
        _, alone = run_sweep_to_string({**base, "values": [v]})
        alone = alone.splitlines()[1:]
        at_v = [ln for ln in full if ln.split(",")[1] == sw._fmt(v)]
        assert len(at_v) == 3 * len(sw.ROWS)  # scenarios x rows of each
        if axis == "aperture_len" and i > 0:
            sampled = ("monte-carlo", "spda-mc")
            at_v, alone = ([ln for ln in lines if ln.split(",")[3] not in sampled]
                           for lines in (at_v, alone))
        assert alone == at_v, (axis, v)


def test_sampled_evaluators_read_one_eve_array(monkeypatch):
    # monte-carlo and spda-mc at a point, and every point of the scenario
    # and K, read the same unit Eve draws; on the k_eves axis each K has
    # its own, and SE (K = 1 throughout) keeps one
    read, arrays = {}, {}

    def recording(name):
        loop = getattr(mc, name)

        def wrapper(lb, *args):
            eve = args[-3]  # both loops end with (eve, r0, n_trials)
            read.setdefault((lb.scenario.value, lb.k_eves), set()).add(id(eve))
            arrays[id(eve)] = eve
            return loop(lb, *args)
        monkeypatch.setattr(mc, name, wrapper)

    recording("mc_secrecy")
    recording("spda_baseline")
    for axis, values, keys in (
            ("gamma_b_db", [0.0, 10.0, 20.0], {("SE", 1), ("MIE", 3)}),
            ("k_eves", [2, 4], {("SE", 1), ("MIE", 2), ("MIE", 4)}),
            ("aperture_len", [0.2498, 0.4996], {("SE", 1), ("MIE", 3)})):
        read.clear()
        arrays.clear()
        code, _ = run_sweep_to_string(small_config(
            axis=axis, values=values, evaluators=["monte-carlo", "spda-mc"]))
        assert code == 0
        assert set(read) == keys
        assert all(len(ids) == 1 for ids in read.values()), read
        assert len(arrays) == len(keys)
        assert not any(a.flags.writeable for a in arrays.values())


def test_k_eves_sweep_holds_one_value_of_eve_sets(monkeypatch):
    # each K's Eve sets replace the last K's before both sampled loops run
    # at it: no more sets are alive at once than there are scenarios, and
    # each (scenario, K) is drawn once
    live, peak, drawn = set(), [0], []
    draw = mc.unit_eve_draws

    def tracked(*args):
        eve = draw(*args)
        token = object()
        live.add(token)
        weakref.finalize(eve, live.discard, token)
        peak[0] = max(peak[0], len(live))
        drawn.append(args[:2])
        return eve
    monkeypatch.setattr(mc, "unit_eve_draws", tracked)
    gc.disable()  # only what the sweep lets go may count as freed
    try:
        code, _ = run_sweep_to_string(small_config(
            axis="k_eves", values=[1, 2, 3, 4],
            scenarios=["SE", "MIE", "MCE"],
            evaluators=["monte-carlo", "spda-mc"]))
    finally:
        gc.enable()
    assert code == 0
    assert len(drawn) == len(set(drawn)) == 1 + 4 + 4
    assert peak[0] <= 3


def test_bob_drawn_once_per_aperture(monkeypatch):
    drawn = []
    draw = mc.unit_bob_draws

    def counting(ms, n_trials, seed):
        drawn.append(ms.dof)
        return draw(ms, n_trials, seed)
    monkeypatch.setattr(mc, "unit_bob_draws", counting)
    for evaluators, outputs, want in (
            (["quadrature", "monte-carlo", "spda-mc"], ["rate", "sop"], [4, 8]),
            (["quadrature"], ["rate", "sop"], []),
            (["spda-mc"], ["rate", "sop"], []),
            (["closed-form", "monte-carlo"], ["slope"], [])):
        drawn.clear()
        code, _ = run_sweep_to_string(small_config(
            axis="aperture_len", values=[0.2498, 0.4996],
            evaluators=evaluators, outputs=outputs))
        assert code == 0
        assert drawn == want


def test_sampled_loop_runs_once_per_point(monkeypatch):
    # one loop feeds a point's rate and sop rows; a point without them
    # runs none
    calls = []

    def counting(name):
        loop = getattr(mc, name)

        def wrapper(lb, *args):
            calls.append((name, lb.gamma_bar_b, lb.scenario.value))
            return loop(lb, *args)
        monkeypatch.setattr(mc, name, wrapper)

    counting("mc_secrecy")
    counting("spda_baseline")
    points = {(10 ** (v / 10), s) for v in (0.0, 10.0) for s in ("SE", "MIE")}
    for outputs, per_loop in ((["rate", "sop", "slope"], 1),
                              (["slope", "gain"], 0)):
        calls.clear()
        code, text = run_sweep_to_string(small_config(
            values=[0.0, 10.0], evaluators=["monte-carlo", "spda-mc",
                                            "closed-form"], outputs=outputs))
        assert code == 0
        for name in ("mc_secrecy", "spda_baseline"):
            got = [c[1:] for c in calls if c[0] == name]
            assert sorted(got) == sorted(points) * per_loop, name
        sampled = [r for r in parse_rows(text) if r["evaluator"] != "closed-form"]
        # values x scenarios x sampled evaluators x (rate, sop)
        assert len(sampled) == 2 * 2 * 2 * 2 * per_loop


def test_bob_stream_apart_from_point_streams(monkeypatch):
    # Bob's, the array's and Eve's seeds and keys are pairwise distinct; a
    # grid point has no stream of its own, and every row's seed cell is the
    # root seed
    keys, seeds = {}, {"bob": [], "spda": [], "eve": []}
    seed = sw._seed

    def keyed(root, *key):
        keys[key] = seed(root, *key)
        return keys[key]

    def recorded(stream, name):
        draw = getattr(mc, name)

        def wrapper(*args):
            seeds[stream].append(args[-1])
            return draw(*args)
        monkeypatch.setattr(mc, name, wrapper)
    monkeypatch.setattr(sw, "_seed", keyed)
    recorded("bob", "unit_bob_draws")
    recorded("spda", "unit_spda_draws")
    recorded("eve", "unit_eve_draws")
    raw = small_config(axis="aperture_len", values=[0.2498, 0.4996],
                       scenarios=["SE", "MIE", "MCE"],
                       evaluators=["quadrature", "monte-carlo", "spda-mc"])
    code, text = run_sweep_to_string(raw)
    assert code == 0
    rows = parse_rows(text)
    assert len(rows) == 2 * 3 * 3 * 2
    assert {r["seed"] for r in rows} == {str(raw["seed"])}
    assert [len(set(s)) for s in seeds.values()] == [2, 2, 3]
    assert len(set().union(*map(set, seeds.values()))) == 2 + 2 + 3
    stream_keys = [{k for k, s in keys.items() if s in set(ss)}
                   for ss in seeds.values()]
    assert [len(k) for k in stream_keys] == [2, 2, 3]
    assert len(set().union(*stream_keys)) == len(keys) == 2 + 2 + 3


def test_array_failure_stays_on_its_rows():
    # 0.1 m is 1.6 wavelengths: dof 2 but one array element, so only the
    # spda-mc rows at that length fail; its other rows are numbers
    code, text = run_sweep_to_string(small_config(
        axis="aperture_len", values=[0.1, 0.4996], scenarios=["SE", "MCE"],
        evaluators=["quadrature", "monte-carlo", "spda-mc"]))
    assert code == 1
    rows = parse_rows(text)
    for r in rows:
        if r["value"] == 0.1 and r["evaluator"] == "spda-mc":
            assert (r["metric"], r["result"]) == ("error", "error:DomainError")
        else:
            assert r["metric"] in ("rate", "sop"), r
            assert math.isfinite(float(r["result"])), r
    assert sum(r["metric"] == "error" for r in rows) == 2


def test_zero_dof_aperture_rows_are_domain_errors():
    # 0.01 m is under lambda/4: the aperture has no degree of freedom
    code, text = run_sweep_to_string(small_config(
        axis="aperture_len", values=[0.01, 0.4996], evaluators=["quadrature"]))
    assert code == 1
    rows = parse_rows(text)
    short = [r for r in rows if r["value"] == 0.01]
    assert short and all(r["result"] == "error:DomainError" for r in short)
    assert all(r["metric"] != "error" for r in rows if r["value"] == 0.4996)


def test_spda_alone_keeps_its_trial_count():
    # the Monte Carlo floor binds only when monte-carlo is requested
    code, text = run_sweep_to_string(small_config(
        n_trials=5000, values=[10.0], scenarios=["SE"], evaluators=["spda-mc"]))
    assert code == 0
    assert {r["metric"] for r in parse_rows(text)} == {"rate", "sop"}


def test_one_trial_reports_no_error_estimate():
    # one trial has no sample variance: std_err inf, not a false 0
    code, text = run_sweep_to_string(small_config(
        n_trials=1, values=[10.0], scenarios=["SE"], evaluators=["spda-mc"]))
    assert code == 0
    rows = parse_rows(text)
    assert [(r["metric"], r["std_err"]) for r in rows] == [("rate", "inf"),
                                                          ("sop", "inf")]


def test_wall_ms_only_with_timing_flag():
    _, text = run_sweep_to_string(small_config(evaluators=["quadrature"]))
    assert all(r["wall"] == "" for r in parse_rows(text))
    _, text = run_sweep_to_string(small_config(evaluators=["quadrature"],
                                               timing=True))
    assert all(float(r["wall"]) >= 0.0 for r in parse_rows(text))


def test_wall_ms_covers_batched_calls(monkeypatch):
    # a quadrature row's wall_ms is its point's share of the batch call
    # that made it: a batch that sleeps 50 ms shows over the rows
    sops = sec.sop_quadratures

    def slow(*args):
        time.sleep(0.05)
        return sops(*args)
    monkeypatch.setattr(sec, "sop_quadratures", slow)
    code, text = run_sweep_to_string(small_config(evaluators=["quadrature"],
                                                  timing=True))
    assert code == 0
    # one sop row per (point, evaluator); its rate row has the same wall_ms
    walls = [float(r["wall"]) for r in parse_rows(text) if r["metric"] == "sop"]
    assert len(walls) == 3 * 2
    assert sum(walls) >= 50.0


def sampled_lines(text):
    return [ln for ln in text.splitlines()[1:]
            if ln.split(",")[3] in ("monte-carlo", "spda-mc")]


@pytest.mark.parametrize("axis,values", [
    ("gamma_b_db", [0.0, 10.0, 20.0]), ("k_eves", [1, 2, 4]),
    ("aperture_len", [0.2498, 0.3747])])
def test_sampled_rows_same_beside_analytic_rows(monkeypatch, axis, values):
    # the draws run on their own thread while the analytic rows' calls run:
    # the sampled rows are the bytes of a sweep without those calls
    threads = []
    draw = mc.unit_bob_draws

    def recording(*args):
        threads.append(threading.current_thread() is threading.main_thread())
        return draw(*args)
    monkeypatch.setattr(mc, "unit_bob_draws", recording)
    base = small_config(axis=axis, values=values,
                        scenarios=["SE", "MIE", "MCE"],
                        evaluators=["monte-carlo", "spda-mc"])
    code, alone = run_sweep_to_string(base)
    assert code == 0
    code, beside = run_sweep_to_string({
        **base, "evaluators": ["monte-carlo", "quadrature", "spda-mc",
                               "closed-form"]})
    assert code == 0
    assert sampled_lines(alone) == sampled_lines(beside)
    assert len(sampled_lines(alone)) == len(values) * 3 * 2 * 2
    lengths = len(values) if axis == "aperture_len" else 1
    assert threads == [False] * (2 * lengths)


def test_analytic_calls_run_while_draws_are_in_flight(monkeypatch):
    # Bob's draws wait for the SOP quadratures to start, which they do on
    # the sweep's thread in the meantime, even with monte-carlo listed first
    started, overlapped = threading.Event(), []
    draw, sops = mc.unit_bob_draws, sec.sop_quadratures

    def waiting(*args):
        overlapped.append(started.wait(timeout=10.0))
        return draw(*args)

    def starting(*args):
        started.set()
        return sops(*args)
    monkeypatch.setattr(mc, "unit_bob_draws", waiting)
    monkeypatch.setattr(sec, "sop_quadratures", starting)
    code, _ = run_sweep_to_string(small_config(
        evaluators=["monte-carlo", "quadrature"]))
    assert code == 0 and overlapped == [True]


def test_failing_bob_draws_fail_only_monte_carlo_rows(monkeypatch):
    cfg = small_config(evaluators=["quadrature", "closed-form", "monte-carlo",
                                   "spda-mc"])
    code, intact = run_sweep_to_string(cfg)
    assert code == 0

    def failing(*args):
        raise ZeroDivisionError("no draws")
    monkeypatch.setattr(mc, "unit_bob_draws", failing)
    code, text = run_sweep_to_string(cfg)
    assert code == 1
    failed = [ln for ln in text.splitlines() if ",monte-carlo," in ln]
    assert len(failed) == 3 * 2
    assert all(ln.endswith(",monte-carlo,error,error:ZeroDivisionError,,42,")
               for ln in failed)
    assert ([ln for ln in text.splitlines() if ln not in failed]
            == [ln for ln in intact.splitlines() if ",monte-carlo," not in ln])


def test_interrupt_waits_for_the_draws(monkeypatch):
    # Ctrl-C in an analytic call leaves the sweep once the draw in flight
    # has ended: no thread outlives the sweep, nor does one after a sweep
    # that completes
    finished = []
    draw = mc.unit_bob_draws

    def slow(*args):
        time.sleep(0.1)
        out = draw(*args)
        finished.append(True)
        return out

    def interrupted(*args):
        raise KeyboardInterrupt
    monkeypatch.setattr(mc, "unit_bob_draws", slow)
    before = threading.active_count()
    code, _ = run_sweep_to_string(small_config())
    assert code == 0 and finished == [True]
    assert threading.active_count() == before
    monkeypatch.setattr(sec, "sop_quadratures", interrupted)
    with pytest.raises(KeyboardInterrupt):
        run_sweep_to_string(small_config())
    assert finished == [True, True]
    assert threading.active_count() == before


def test_wall_ms_covers_the_draws(monkeypatch):
    # a sampled row's wall_ms counts its draws' elapsed time and its loops,
    # not the time it waited for the draws: Bob's draws that sleep 300 ms
    # show once over the monte-carlo rows, though the rows also wait for
    # most of them after the quadratures end
    draw = mc.unit_bob_draws

    def slow(*args):
        time.sleep(0.3)
        return draw(*args)
    monkeypatch.setattr(mc, "unit_bob_draws", slow)
    code, text = run_sweep_to_string(small_config(timing=True))
    assert code == 0
    # one sop row per (point, evaluator); its rate row has the same wall_ms
    walls = [float(r["wall"]) for r in parse_rows(text)
             if r["metric"] == "sop" and r["evaluator"] == "monte-carlo"]
    assert len(walls) == 3 * 2
    assert 300.0 <= sum(walls) < 450.0


def test_spectrum_cache_env(tmp_path, monkeypatch):
    monkeypatch.setenv("CAPA_CACHE_DIR", str(tmp_path / "cache"))
    path = write_config(tmp_path, small_config(evaluators=["quadrature"],
                                               values=[10.0]))
    out = str(tmp_path / "o.csv")
    assert cli.main(["sweep", "--config", path, "--out", out]) == 0
    assert list((tmp_path / "cache").glob("*.npz"))


@pytest.mark.parametrize("where", ["file", "file/sub"])
def test_cache_env_not_a_directory_exit_2(tmp_path, monkeypatch, capsys, where):
    # refused before any grid point runs, instead of an error row per point
    (tmp_path / "file").write_text("not a cache")
    monkeypatch.setenv("CAPA_CACHE_DIR", str(tmp_path / where))
    monkeypatch.setattr(sw, "_sweep_aperture", None)  # any point run would fail
    path = write_config(tmp_path, small_config(evaluators=["closed-form"],
                                               outputs=["sop"], values=[10.0]))
    out = tmp_path / "o.csv"
    assert cli.main(["sweep", "--config", path, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("sweep error: CAPA_CACHE_DIR: ")
    assert err.count("\n") == 1
    assert not out.exists()


def test_library_ignores_cache_env(tmp_path, monkeypatch):
    # only the CLI reads CAPA_CACHE_DIR; library callers pass cache_dir
    cache = tmp_path / "cache"
    monkeypatch.setenv("CAPA_CACHE_DIR", str(cache))
    code, _ = run_sweep_to_string(small_config(
        evaluators=["asymptotic"], outputs=["rate"], values=[10.0]))
    assert code == 0
    spc.cached_decompose(spc.ApertureGeometry(0.1249, 2 * 0.1249), 120)
    assert not cache.exists()


def test_one_rule_per_cache_miss(tmp_path, monkeypatch):
    calls = []
    rule = spc.gauss_legendre_rule

    def counting(t, geom):
        calls.append(t)
        return rule(t, geom)

    monkeypatch.setattr(spc, "gauss_legendre_rule", counting)
    path = write_config(tmp_path, small_config(
        axis="aperture_len", values=[0.1249 * 2, 0.1249 * 3],
        evaluators=["asymptotic"], outputs=["rate"], quadrature_order=160))

    def sweep(cache, name):
        monkeypatch.setenv("CAPA_CACHE_DIR", str(tmp_path / cache))
        out = tmp_path / name
        calls.clear()
        assert cli.main(["sweep", "--config", path, "--out", str(out)]) == 0
        return len(calls), out.read_bytes()

    # cold: each length solves its spectrum on a rule of its own
    n_cold, cold = sweep("a", "a.csv")
    assert n_cold == 2
    # warm: every spectrum is read from the cache
    n_warm, warm = sweep("a", "b.csv")
    assert n_warm == 0
    assert warm == cold


# ---------------------------------------------------------------------------
# plot data emission
# ---------------------------------------------------------------------------

def synth_csv(tmp_path, axes, metrics):
    lines = [sw.CSV_HEADER]
    for ax in axes:
        for metric in metrics:
            for v in (1.0, 2.0):
                lines.append(f"{ax},{v},SE,quadrature,{metric},0.5,,1,")
    path = tmp_path / "sweep.csv"
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def test_plotdata_cardinality_and_idempotence(tmp_path):
    path = synth_csv(tmp_path, sw.AXES, ("rate", "sop"))
    outdir = str(tmp_path / "plots")
    written = sw.emit_plotdata(path, outdir)
    assert len(written) == 8
    snapshot = {p: open(p, "rb").read() for p in written}
    again = sw.emit_plotdata(path, outdir)
    assert again == written
    for p in written:
        assert open(p, "rb").read() == snapshot[p]


def test_plotdata_single_axis(tmp_path):
    path = synth_csv(tmp_path, ["k_eves"], ("rate",))
    written = sw.emit_plotdata(path, str(tmp_path / "plots"))
    assert [os.path.basename(p) for p in written] == ["rate_vs_k_eves.csv"]


def test_plotdata_malformed_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("not,a,sweep\n1,2,3\n")
    code = cli.main(["plotdata", str(bad), "--outdir", str(tmp_path / "p")])
    assert code == 2


@pytest.mark.parametrize("kind", ["directory", "latin-1"])
def test_unreadable_plotdata_csv_exit_2(tmp_path, capsys, kind):
    path = unreadable_input(tmp_path, kind)
    assert cli.main(["plotdata", path, "--outdir", str(tmp_path / "p")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("plotdata error: ") and path in err


def test_spectrum_subcommand(capsys):
    code = cli.main(["spectrum", "--lambda", "0.1249",
                     "--length", str(0.1249 * 2), "--t", "60"])
    assert code == 0
    out = capsys.readouterr().out
    assert out.startswith("dof=4 t=60 ")
    assert "l,sigma_m,epsilon" in out


def test_spectrum_subcommand_default_order(capsys):
    # without --t the aperture's converged order runs, and the head names it
    assert cli.main(["spectrum", "--lambda", "0.1249", "--length", "0.4996"]) == 0
    assert capsys.readouterr().out.startswith("dof=8 t=48 ")


@pytest.mark.parametrize("args", [
    ["--lambda", "0.1249", "--length", "0.4996", "--t", "4"],
    ["--lambda", "0", "--length", "0.4996", "--t", "40"],
    ["--lambda", "0.1249", "--length=-1", "--t", "40"],
    ["--lambda", "nan", "--length", "0.4996", "--t", "40"],
    ["--lambda", "0.1249", "--length", "0.01", "--t", "40"],
])
def test_spectrum_bad_arguments_exit_2(capsys, args):
    assert cli.main(["spectrum", *args]) == 2
    err = capsys.readouterr().err
    assert err.startswith("spectrum error: ")
    assert "Traceback" not in err


# ---------------------------------------------------------------------------
# the package in a fresh interpreter: start-up and the CI sweep checks
# ---------------------------------------------------------------------------

SRC = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))


TABLE1_CONFIG = os.path.join(os.path.dirname(SRC), "configs", "table1_sweep.json")


def run_python(args, cwd, **extra_env):
    """`python *args` in a fresh interpreter that imports this checkout,
    without a spectrum cache unless `extra_env` names one."""
    env = {k: v for k, v in os.environ.items() if k != "CAPA_CACHE_DIR"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    env.update(extra_env)
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=600)


def cli_sweep_rows(tmp_path, cfg):
    """(exit code, CSV rows) of `python -m capa_secrecy.cli sweep`."""
    path = write_config(tmp_path, cfg)
    out = tmp_path / "out.csv"
    proc = run_python(["-m", "capa_secrecy.cli", "sweep", "--config", path,
                       "--out", str(out)], tmp_path)
    assert "Traceback" not in proc.stderr, proc.stderr
    with open(out, newline="", encoding="utf-8") as fh:
        return proc.returncode, list(csv.DictReader(fh))


def loaded_after(code, cwd, **extra_env):
    """The scipy and mpmath modules loaded in a fresh interpreter after each
    `code` statement: one sorted list per statement."""
    probe = ("import json, sys\n"
             "def show(): print(json.dumps(sorted(m for m in sys.modules"
             " if m.split('.')[0] in ('scipy', 'mpmath'))))\n")
    proc = run_python(["-c", probe + "".join(f"{c}\nshow()\n" for c in code)],
                      cwd, **extra_env)
    assert proc.returncode == 0, proc.stderr
    return [json.loads(line) for line in proc.stdout.splitlines()]


def test_cli_import_loads_no_scipy_or_mpmath(tmp_path):
    # numpy and the package load at start, and computing a spectrum (the
    # Gauss-Legendre rule included) adds nothing; the control: the probe
    # does see scipy once it is imported
    at_import, after_decompose, control = loaded_after([
        "import capa_secrecy.cli",
        "from capa_secrecy import spectral as spc; "
        "spc.decompose(spc.ApertureGeometry(0.1249, 0.3747), 160)",
        "import scipy.linalg"], tmp_path)
    assert at_import == [], at_import
    assert after_decompose == [], after_decompose
    assert "scipy.linalg" in control, control


def test_cli_import_loads_no_concurrent_futures(tmp_path):
    # the sweep's one draw job is a plain threading.Thread; the executors
    # of concurrent.futures would add to every run's start-up
    proc = run_python(["-c", "import sys, capa_secrecy.cli\n"
                       "assert 'concurrent.futures' not in sys.modules"],
                      tmp_path)
    assert proc.returncode == 0, proc.stderr


def test_warm_cache_sweep_loads_no_scipy_or_mpmath(tmp_path):
    # no sweep loads scipy, whether its spectrum is computed or comes from
    # the cache, and none loads mpmath, not even the closed-form rate past
    # the DoF cap (10 wavelengths: dof 20); the `spectrum` subcommand loads
    # neither.  The shipped sweep read from the cache writes the bytes it
    # wrote filling it.  The control: the probe sees scipy once imported
    paths = [write_config(tmp_path, cfg, f"{name}.json") for name, cfg in (
        ("small", {"aperture_lambdas": 3, "quadrature_order": 160,
                   "n_trials": 10000, "axis": "gamma_b_db",
                   "values": [10.0, 20.0], "scenarios": ["SE", "MIE", "MCE"],
                   "evaluators": ["closed-form", "quadrature", "asymptotic",
                                  "monte-carlo", "spda-mc"],
                   "outputs": ["rate", "sop", "offset", "gain"]}),
        ("past-cap", {"aperture_lambdas": 10, "quadrature_order": 400,
                      "axis": "gamma_b_db", "values": [20.0],
                      "scenarios": ["SE", "MIE", "MCE"],
                      "evaluators": ["closed-form"], "outputs": ["rate"]}))]
    runs = [(p, tmp_path / "out.csv", []) for p in paths]
    table1 = tmp_path / "table1.csv"  # the shipped sweep (40 wavelengths)
    runs.append((TABLE1_CONFIG, table1, ["--trials", "20000"]))
    sweeps = [f"from capa_secrecy import cli; assert cli.main(['sweep', "
              f"'--config', {p!r}, '--out', {str(out)!r}, *{args!r}]) == 0"
              for p, out, args in runs]
    spectrum = ("import contextlib, io; from capa_secrecy import cli\n"
                "with contextlib.redirect_stdout(io.StringIO()): "
                "assert cli.main(['spectrum', '--lambda', '0.1249', "
                "'--length', '0.4996', '--t', '40']) == 0")
    cache = str(tmp_path / "spectra")
    cold = loaded_after(sweeps + [spectrum, "import scipy.linalg"], tmp_path,
                        CAPA_CACHE_DIR=cache)
    assert cold[:4] == [[], [], [], []], cold
    assert "scipy.linalg" in cold[4], cold
    filled = table1.read_bytes()
    warm = loaded_after(sweeps, tmp_path, CAPA_CACHE_DIR=cache)
    assert warm == [[], [], []], warm
    assert table1.read_bytes() == filled


def test_sweep_and_spectrum_run_with_scipy_blocked(tmp_path):
    # with scipy made unimportable before the package loads, a cold sweep
    # over every evaluator and output, the shipped sweep and `spectrum`
    # still run; the CSVs and the printed spectrum are the unblocked bytes
    path = write_config(tmp_path, {
        "aperture_lambdas": 3, "quadrature_order": 160, "n_trials": 10000,
        "axis": "gamma_b_db", "values": [10.0, 20.0],
        "scenarios": ["SE", "MIE", "MCE"], "evaluators": list(sw.EVALUATORS),
        "outputs": list(sw.OUTPUTS)})
    runs = {}
    for block in (True, False):
        out, table1 = (tmp_path / f"block-{block}.csv",
                       tmp_path / f"table1-{block}.csv")
        code = ("import sys\n"
                + ("sys.modules['scipy'] = None\n" if block else "")
                + "from capa_secrecy import cli\n"
                f"assert cli.main(['sweep', '--config', {path!r}, "
                f"'--out', {str(out)!r}]) == 0\n"
                f"assert cli.main(['sweep', '--config', {TABLE1_CONFIG!r}, "
                f"'--trials', '20000', '--out', {str(table1)!r}]) == 0\n"
                "assert cli.main(['spectrum', '--lambda', '0.1249', "
                "'--length', '0.4996', '--t', '40']) == 0\n"
                "try:\n    import scipy.linalg\nexcept ImportError:\n"
                "    print('blocked')\n")
        proc = run_python(["-c", code], tmp_path)
        assert proc.returncode == 0, proc.stderr
        runs[block] = (out.read_bytes(), table1.read_bytes(), proc.stdout)
    assert runs[True][2].endswith("blocked\n")
    assert "blocked" not in runs[False][2]
    assert runs[True][:2] == runs[False][:2]
    assert runs[True][2][:-len("blocked\n")] == runs[False][2]


def test_many_eve_closed_form_sop_matches_quadrature(tmp_path):
    # up to 200 independent or collaborating Eves, the closed-form SOP must
    # match the quadrature route to 1e-9 relative
    code, csv_rows = cli_sweep_rows(tmp_path, {
        "aperture_lambdas": 3, "quadrature_order": 160,
        "gamma_b_db": 20.0, "gamma_e_db": -10.0, "target_rate_r0": 3.0,
        "axis": "k_eves", "values": [1, 40, 200],
        "scenarios": ["MIE", "MCE"],
        "evaluators": ["closed-form", "quadrature"], "outputs": ["sop"]})
    assert code == 0
    rows = {(r["value"], r["scenario"], r["evaluator"]): float(r["result"])
            for r in csv_rows}
    closed = {k[:2]: v for k, v in rows.items() if k[2] == "closed-form"}
    assert len(closed) == 6, rows
    for key, got in closed.items():
        want = rows[key + ("quadrature",)]
        assert abs(got - want) <= 1e-9 * want, key


def test_deep_tail_quadrature_sop_raises_or_matches(tmp_path):
    # at 40 wavelengths (dof 80), 10 and 60 independent Eves and 40 dB the
    # SOP is about 1e-150: the quadrature route must raise ComputationError
    # (the sweep then exits 1) or match the closed form to 1e-6 relative
    code, csv_rows = cli_sweep_rows(tmp_path, {
        "aperture_lambdas": 40, "quadrature_order": 1000,
        "gamma_b_db": 40.0, "gamma_e_db": 0.0,
        "axis": "k_eves", "values": [10, 60], "scenarios": ["MIE"],
        "evaluators": ["closed-form", "quadrature"], "outputs": ["sop"]})
    assert code <= 1
    rows = {(r["value"], r["evaluator"]): r["result"] for r in csv_rows}
    assert len(rows) == 4, rows
    for k in ("10", "60"):
        closed, quad = rows[k, "closed-form"], rows[k, "quadrature"]
        if quad != "error:ComputationError":
            assert abs(float(quad) - float(closed)) <= 1e-6 * float(closed), k


def test_many_eve_high_snr_ordering(tmp_path):
    # closed-form power offset and array gain at 40 wavelengths (dof 80)
    # for 2 to 200 Eves: every value finite, and at each K the offset rises
    # and the gain falls from SE to MIE to MCE
    code, csv_rows = cli_sweep_rows(tmp_path, {
        "aperture_lambdas": 40, "quadrature_order": 1000,
        "axis": "k_eves", "values": [2, 40, 200],
        "scenarios": ["SE", "MIE", "MCE"],
        "evaluators": ["closed-form"], "outputs": ["offset", "gain"]})
    assert code == 0
    rows = {(r["value"], r["scenario"], r["metric"]): float(r["result"])
            for r in csv_rows}
    assert len(rows) == 18, rows
    assert all(map(math.isfinite, rows.values())), rows
    for k in ("2", "40", "200"):
        off, gain = ([rows[k, s, m] for s in ("SE", "MIE", "MCE")]
                     for m in ("offset", "gain"))
        assert off[0] < off[1] < off[2], (k, off)
        assert gain[0] > gain[1] > gain[2], (k, gain)


def test_cache_path_that_is_no_directory_exit_2(tmp_path):
    # a regular file as CAPA_CACHE_DIR is refused before any grid point
    # runs: exit 2, not an error row per point
    (tmp_path / "not-a-dir").touch()
    proc = run_python(["-m", "capa_secrecy.cli", "sweep", "--config",
                       TABLE1_CONFIG, "--trials", "20000",
                       "--out", str(tmp_path / "refused.csv")], tmp_path,
                      CAPA_CACHE_DIR=str(tmp_path / "not-a-dir"))
    assert proc.returncode == 2, proc.stderr


def test_plotdata_twice_on_one_sweep_csv(tmp_path):
    # plot data from the same CSV twice: byte-identical files
    sweep_csv = tmp_path / "table1.csv"
    proc = run_python(["-m", "capa_secrecy.cli", "sweep", "--config",
                       TABLE1_CONFIG, "--trials", "20000",
                       "--out", str(sweep_csv)], tmp_path)
    assert proc.returncode == 0, proc.stderr
    for run in "ab":
        proc = run_python(["-m", "capa_secrecy.cli", "plotdata", str(sweep_csv),
                           "--outdir", str(tmp_path / f"plots-{run}")], tmp_path)
        assert proc.returncode == 0, proc.stderr
    names = sorted(os.listdir(tmp_path / "plots-a"))
    assert names and names == sorted(os.listdir(tmp_path / "plots-b"))
    for name in names:
        if name.endswith(".csv"):
            assert ((tmp_path / "plots-a" / name).read_bytes()
                    == (tmp_path / "plots-b" / name).read_bytes()), name


# ---------------------------------------------------------------------------
# the target rate at the edge of the double range
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("r0", [1024.0, 1100.0])
def test_target_rate_past_the_double_range_exit_2(tmp_path, capsys, r0):
    # 2^r0 overflows a double from 1024 on: the config is refused before any
    # point runs, not written as one OverflowError row per point
    out = tmp_path / "refused.csv"
    path = write_config(tmp_path, small_config(
        target_rate_r0=r0, values=[10.0], scenarios=["SE"],
        evaluators=["closed-form", "quadrature", "asymptotic"],
        outputs=["sop", "gain"]))
    assert cli.main(["sweep", "--config", path, "--out", str(out)]) == 2
    assert "target_rate_r0" in capsys.readouterr().err
    assert not out.exists()


def test_target_rate_at_the_double_range_edge_rows_are_numbers(tmp_path):
    # r0 1023 puts Bob's Poisson index (2^r0 - 1)/theta past the double
    # range (theta < 1 here): every evaluator's SOP is 1, and the closed-form
    # SOP and gain come from logs, so each row is a number
    out = tmp_path / "edge.csv"
    path = write_config(tmp_path, small_config(
        target_rate_r0=1023.0, values=[10.0], scenarios=["SE", "MIE", "MCE"],
        evaluators=list(sw.EVALUATORS), outputs=["sop", "gain"]))
    assert cli.main(["sweep", "--config", path, "--out", str(out)]) == 0
    rows = parse_rows(out.read_text(encoding="utf-8"))
    assert len(rows) == 3 * (len(sw.EVALUATORS) + 1)
    for r in rows:
        value = float(r["result"])
        if r["metric"] == "sop":
            assert value == pytest.approx(1.0, abs=1e-12), r
        else:
            assert r["evaluator"] == "closed-form" and r["metric"] == "gain", r
            assert 0.0 < value < 1e-300, r


# ---------------------------------------------------------------------------
# the closed form at the paper's aperture
# ---------------------------------------------------------------------------

def test_closed_form_sweep_at_paper_aperture(tmp_path):
    # 40 wavelengths (dof 80) at the default order, where the closed-form
    # rate is the integral of the secure probability: no error row, each
    # rate within the acceptance bound 1e-4 of its quadrature row, each SOP
    # within 1e-6, and the 10 dB rows are a 10 dB sweep's bytes
    cfg = {"aperture_lambdas": 40, "axis": "gamma_b_db",
           "values": [-10.0, 10.0, 30.0], "scenarios": ["SE", "MIE", "MCE"],
           "evaluators": ["closed-form", "quadrature"],
           "outputs": ["rate", "sop"]}
    csvs = {}
    for name, values in (("full", cfg["values"]), ("one", [10.0])):
        path = write_config(tmp_path, dict(cfg, values=values), f"{name}.json")
        csvs[name] = tmp_path / f"{name}.csv"
        assert cli.main(["sweep", "--config", path,
                         "--out", str(csvs[name])]) == 0
    text = csvs["full"].read_text(encoding="utf-8")
    rows = parse_rows(text)
    assert len(rows) == 36 and not any(r["metric"] == "error" for r in rows)
    got = {(r["value"], r["scenario"], r["evaluator"], r["metric"]):
           float(r["result"]) for r in rows}
    for (value, scen, ev, metric), closed in got.items():
        if ev == "closed-form":
            quad = got[value, scen, "quadrature", metric]
            bound = 1e-4 if metric == "rate" else 1e-6
            assert abs(closed - quad) <= bound, (value, scen, metric)
    lines = text.splitlines(keepends=True)
    ten = lines[:1] + [ln for ln in lines[1:] if ln.startswith("gamma_b_db,10,")]
    assert len(ten) == 13
    assert "".join(ten) == csvs["one"].read_text(encoding="utf-8")
