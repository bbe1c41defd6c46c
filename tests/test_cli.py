import io
import json
import os

import numpy as np
import pytest

from capa_secrecy import cli
from capa_secrecy import montecarlo as mc
from capa_secrecy import snr_models as snr
from capa_secrecy import spectral as spc
from capa_secrecy import sweep as sw


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
    assert cfg.quadrature_order == 1000
    assert cfg.aperture_len_m == pytest.approx(40 * 0.1249)
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


def test_sweep_cli_overrides(tmp_path):
    path = write_config(tmp_path, small_config())
    out = str(tmp_path / "o.csv")
    code = cli.main(["sweep", "--config", path, "--out", out,
                     "--trials", "15000", "--seed", "9",
                     "--evaluator", "monte-carlo"])
    assert code == 0
    text = open(out).read()
    rows = parse_rows(text)
    assert all(r["evaluator"] == "monte-carlo" for r in rows)


# 74.94 m is 600 wavelengths: dof 1200 needs 2400 quadrature points, so
# decompose() raises DomainError at the quadrature order of small_config
FAILING_LENGTHS = dict(axis="aperture_len", values=[0.4996, 74.94])


def test_worker_pool_output_identical():
    for grid, code in (({}, 0), (FAILING_LENGTHS, 1)):
        base = small_config(evaluators=["quadrature", "monte-carlo"], **grid)
        seq = run_sweep_to_string(base)
        assert run_sweep_to_string({**base, "workers": 4}) == seq
        assert seq[0] == code


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


def test_monte_carlo_rows_replay_from_shared_bob_draws():
    raw = small_config(values=[0.0, 20.0])
    code, text = run_sweep_to_string(raw)
    assert code == 0
    cfg = sw.config_from_dict(raw)
    _, _, bob = sw._resolve_apertures(cfg, None)[cfg.aperture_len_m]
    assert not bob.flags.writeable
    rows = [r for r in parse_rows(text) if r["evaluator"] == "monte-carlo"]
    assert len(rows) == 8  # 2 SNRs x 2 scenarios x (rate, sop)
    for r in rows:
        k = 1 if r["scenario"] == "SE" else cfg.k_eves
        lb = snr.LinkBudget(10 ** (r["value"] / 10),
                            10 ** (cfg.gamma_e_db / 10), k,
                            snr.Scenario(r["scenario"]))
        rate, sop = mc.mc_secrecy(lb, bob, cfg.target_rate_r0, cfg.n_trials,
                                  int(r["seed"]))
        est = rate if r["metric"] == "rate" else sop
        assert (r["result"], r["std_err"]) == (sw._fmt(est.mean),
                                               sw._fmt(est.std_err))


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


def test_bob_stream_apart_from_point_streams(monkeypatch):
    keys, bob_seeds = {}, []
    seed, draw = sw._seed, mc.unit_bob_draws

    def keyed(root, *key):
        keys[key] = seed(root, *key)
        return keys[key]

    def recorded(ms, n_trials, s):
        bob_seeds.append(s)
        return draw(ms, n_trials, s)
    monkeypatch.setattr(sw, "_seed", keyed)
    monkeypatch.setattr(mc, "unit_bob_draws", recorded)
    code, text = run_sweep_to_string(small_config(
        axis="aperture_len", values=[0.2498, 0.4996]))
    assert code == 0
    point_seeds = {int(r["seed"]) for r in parse_rows(text)}
    bob_keys = {k for k, s in keys.items() if s in bob_seeds}
    assert len(bob_keys) == len(bob_seeds) == 2
    assert point_seeds and not point_seeds & set(bob_seeds)
    assert not bob_keys & {k for k, s in keys.items() if s in point_seeds}


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


def test_wall_ms_only_with_timing_flag():
    _, text = run_sweep_to_string(small_config(evaluators=["quadrature"]))
    assert all(r["wall"] == "" for r in parse_rows(text))
    _, text = run_sweep_to_string(small_config(evaluators=["quadrature"],
                                               timing=True))
    assert all(float(r["wall"]) >= 0.0 for r in parse_rows(text))


def test_spectrum_cache_env(tmp_path, monkeypatch):
    monkeypatch.setenv("CAPA_CACHE_DIR", str(tmp_path / "cache"))
    path = write_config(tmp_path, small_config(evaluators=["quadrature"],
                                               values=[10.0]))
    out = str(tmp_path / "o.csv")
    assert cli.main(["sweep", "--config", path, "--out", out]) == 0
    assert list((tmp_path / "cache").glob("*.npz"))


def test_library_ignores_cache_env(tmp_path, monkeypatch):
    # only the CLI reads CAPA_CACHE_DIR; library callers pass cache_dir
    cache = tmp_path / "cache"
    monkeypatch.setenv("CAPA_CACHE_DIR", str(cache))
    code, _ = run_sweep_to_string(small_config(
        evaluators=["asymptotic"], outputs=["rate"], values=[10.0]))
    assert code == 0
    spc.cached_decompose(spc.ApertureGeometry(0.1249, 2 * 0.1249), 120)
    assert not cache.exists()


def test_one_unit_rule_per_sweep(tmp_path, monkeypatch):
    calls = []
    leggauss = np.polynomial.legendre.leggauss

    def counting(t):
        calls.append(t)
        return leggauss(t)

    monkeypatch.setattr(np.polynomial.legendre, "leggauss", counting)
    path = write_config(tmp_path, small_config(
        axis="aperture_len", values=[0.1249 * 2, 0.1249 * 3],
        evaluators=["asymptotic"], outputs=["rate"], quadrature_order=160))

    def sweep(cache, name):
        monkeypatch.setenv("CAPA_CACHE_DIR", str(tmp_path / cache))
        out = tmp_path / name
        calls.clear()
        assert cli.main(["sweep", "--config", path, "--out", str(out)]) == 0
        return len(calls), out.read_bytes()

    # cold: one rule for both lengths; a second cold sweep pays for it again
    assert sweep("a", "a.csv")[0] == 1
    n_cold, cold = sweep("b", "b.csv")
    assert n_cold == 1
    # warm: every spectrum is read from the cache
    n_warm, warm = sweep("b", "c.csv")
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
    assert "dof=4" in out
    assert "l,sigma_m,epsilon" in out


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
