import json
import subprocess
import sys

import numpy as np
import pytest

from wavepax import harness
from wavepax import io as wio
from wavepax.cli import main as cli_main
from wavepax.errors import ConfigError, HypothesisViolated, ParameterSignError
from wavepax.grids import Grid, ModalField


def counterprop_cfg(**overrides):
    cfg = {
        "model": {"preset": "nls1d", "params": {"a2": 1.0, "a0": 1.0}},
        "grid": {"n": 512, "k_max": 4.0},
        "spectrum": [[1, 1.0], [1, -1.0]],
        "nonlinearity": {"preset": "cubic_conjugate", "q": 1.0},
        "packets": [{"envelope": {"family": "bump", "width": 0.7, "amplitude": 0.15}}],
        "beta": 0.12,
        "epsilon": 0.25,
        "rho": 0.02,
        "tau_star": 0.2,
        "experiment": {},
    }
    cfg.update(overrides)
    return cfg


# -- config ------------------------------------------------------------------------

def test_load_config_validation():
    with pytest.raises(ConfigError):
        harness.load_config({"model": {"preset": "nls1d"}})  # no spectrum
    rc = harness.load_config(counterprop_cfg())
    assert rc.spectrum.n_pairs == 2
    assert rc.orders == [3]
    for solver in ({"picard_tolerance": 1e-10}, {"dealias_factor": 2},
                   {"picard_tol": "tight"}, {"picard_max_iter": 2.5}):
        with pytest.raises(ConfigError, match="solver"):
            harness.load_config(counterprop_cfg(solver=solver))


def test_config_hash_stability():
    cfg = counterprop_cfg()
    a = wio.config_hash(cfg)
    b = wio.config_hash(json.loads(json.dumps(cfg)))
    assert a == b


# -- preservation --------------------------------------------------------------------

def test_preservation_f0_outside_mass_constant_zero():
    cfg = counterprop_cfg(nonlinearity={"preset": "none"})
    cfg["experiment"] = {"beta_rho_pairs": [[0.12, 0.02]]}
    res = harness.preservation_experiment(cfg)
    # cutoff-built data sits inside the carrier balls at all times
    assert res.runs[0]["outside_mass"] == 0.0


def test_preservation_refuses_noninvariant_spectrum():
    cfg = counterprop_cfg(
        model={"preset": "nls1d", "params": {"a2": 1.0, "a0": 2.0}},
        spectrum=[[1, 1.0]],
        nonlinearity={"preset": "quadratic_conjugate", "q": 1.0},
    )
    cfg["experiment"] = {"beta_rho_pairs": [[0.12, 0.02]]}
    with pytest.raises(HypothesisViolated):
        harness.preservation_experiment(cfg)
    res = harness.preservation_experiment(cfg, force=True)
    assert res.passed is None
    assert res.runs[0]["outside_mass"] > 0.0


# -- superposition --------------------------------------------------------------------

def test_superposition_single_packet_defect_zero():
    cfg = counterprop_cfg(spectrum=[[1, 1.0]])
    cfg["experiment"] = {"rho_values": [0.02]}
    res = harness.superposition_experiment(cfg)
    assert res.passed is True
    assert res.runs[0]["defect"] == 0.0


def test_superposition_hypothesis_violation():
    cfg = counterprop_cfg(
        model={"preset": "nls1d", "params": {"a2": 1.0, "a0": 2.0}},
        spectrum=[[1, 1.0]],
        nonlinearity={"preset": "quadratic_conjugate", "q": 1.0},
    )
    with pytest.raises(HypothesisViolated):
        harness.superposition_experiment(cfg)


def test_superposition_far_positions_fallback(nls_model):
    # equal group velocities (mirror carriers of an even band have distinct
    # velocities, so force equality with identical carriers in two bands is
    # not possible here; instead use one carrier duplicated across positions)
    cfg = counterprop_cfg()
    cfg["spectrum"] = [[1, 1.0], [1, -1.0]]
    cfg["packets"] = [
        {"envelope": {"family": "bump", "width": 0.7, "amplitude": 0.1}, "r_star": 0.0},
        {"envelope": {"family": "bump", "width": 0.7, "amplitude": 0.1}, "r_star": 0.0},
    ]
    res = harness.superposition_experiment(cfg)
    assert res.hypothesis["velocities"]["distinct_velocities"] is True
    assert res.passed is None  # single rho: values reported, no fit


# -- positions ----------------------------------------------------------------------------

def test_tracking_f0_single_packet_velocity():
    cfg = counterprop_cfg(nonlinearity={"preset": "none"})
    cfg["spectrum"] = [[1, 1.0]]
    cfg["grid"] = {"n": 1024, "k_max": 4.0}
    cfg["beta"] = 0.1
    cfg["epsilon"] = 0.1
    cfg["rho"] = 0.02
    cfg["tau_star"] = 0.3
    cfg["packets"] = [{"envelope": {"family": "gaussian", "width": 1.0, "amplitude": 0.15},
                       "r_star": 0.0}]
    cfg["experiment"] = {"n_track_times": 5}
    res = harness.position_tracking_experiment(cfg)
    rows = [r for r in res.runs if r["packet"] == 1]
    taus = np.array([r["tau"] for r in rows])
    pos = np.array([r["position"] for r in rows])
    slope = np.polyfit(taus, pos, 1)[0]
    assert slope == pytest.approx(2.0 / 0.02, rel=1e-2)
    assert res.passed is True


# -- soliton ---------------------------------------------------------------------------------

def test_soliton_parameter_sign_error():
    with pytest.raises(ParameterSignError):
        harness.soliton_experiment({"rho": 0.05, "experiment": {"q": -1.0, "b": 0.4}})


def test_soliton_linear_control_disperses():
    res = harness.soliton_experiment({
        "rho": 0.05, "tau_star": 0.5,
        "grid": {"n": 1024, "k_max": 2.0},
        "experiment": {"q": 0.0, "control_width": 3.0},
    })
    assert res.passed is None
    assert res.fits["modulus_drift_rel"] > 0.1  # the hump spreads out


# -- sweep ------------------------------------------------------------------------------------

def sweep_cfg():
    cfg = counterprop_cfg()
    cfg["grid"] = {"n": 512, "k_max": 4.0}
    cfg["spectrum"] = [[1, 1.0]]
    cfg["beta"] = 0.15
    cfg["experiment"] = {
        "name": "preservation",
        "sweep": {"beta": [0.15, 0.12, 0.1], "rho": [0.04, 0.02]},
        "beta_rho_pairs": None,
    }
    # single-run preservation rows derive beta/rho from the top level
    cfg["experiment"].pop("beta_rho_pairs")
    return cfg


def test_sweep_shapes_and_determinism(tmp_path):
    cfg = sweep_cfg()
    res = harness.sweep(cfg)
    assert len(res.runs) == 6
    assert [r["run_index"] for r in res.runs] == list(range(6))
    assert [r["status"] for r in res.runs] == ["ok"] * 6
    res2 = harness.sweep(cfg)
    assert res.to_json() == res2.to_json()
    one = harness.sweep({**cfg, "experiment": {"name": "preservation",
                                               "sweep": {"rho": [0.04]}}})
    assert len(one.runs) == 1


def test_sweep_records_typed_failures(monkeypatch):
    cfg = sweep_cfg()
    cfg["experiment"]["sweep"] = {"rho": [0.04, 2.0]}
    res = harness.sweep(cfg)
    assert [r["status"] for r in res.runs] == ["ok", "error"]
    assert res.runs[1]["error_type"] == "ConfigError" and not res.passed

    def boom(cfg, force=False):
        raise RuntimeError("not a run failure")

    monkeypatch.setitem(harness.EXPERIMENTS, "preservation", boom)
    with pytest.raises(RuntimeError, match="not a run failure"):
        harness.sweep(cfg)


def test_experiment_rerun_byte_identical(tmp_path):
    cfg = counterprop_cfg()
    cfg["experiment"] = {"beta_rho_pairs": [[0.12, 0.02]], "seed": 5}
    a = harness.preservation_experiment(cfg)
    b = harness.preservation_experiment(cfg)
    assert a.to_json().encode() == b.to_json().encode()
    pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
    wio.write_metrics_csv(pa, harness.flat_metric_rows(a))
    wio.write_metrics_csv(pb, harness.flat_metric_rows(b))
    assert pa.read_bytes() == pb.read_bytes()


# -- io -----------------------------------------------------------------------------------------

def test_field_container_round_trip(tmp_path, rng):
    g = Grid(1, (128,), (2.0,))
    vals = rng.normal(size=(2, 128)) + 1j * rng.normal(size=(2, 128))
    f = ModalField(g, vals, frame="fast")
    path = tmp_path / "field.wpx"
    wio.write_field(path, f)
    back = wio.read_field(path)
    assert back.grid == g
    assert back.frame == "fast"
    assert np.array_equal(back.values, vals)
    wio.write_field(path, f, dtype="complex64")
    lossy = wio.read_field(path)
    assert np.abs(lossy.values - vals).max() <= 1e-6 * np.abs(vals).max()


def test_field_csv_slice(tmp_path):
    g = Grid(1, (64,), (2.0,))
    f = ModalField(g, np.ones((2, 64), complex))
    path = tmp_path / "slice.csv"
    wio.write_field_csv(path, f)
    lines = path.read_text().strip().splitlines()
    assert lines[0].split(",")[:3] == ["k", "re_0", "im_0"]
    assert len(lines) == 65


# -- CLI -----------------------------------------------------------------------------------------

def test_cli_resonance_analyze(tmp_path, capsys):
    cfg = {"model": {"preset": "nls1d", "params": {"a2": 1.0, "a0": 2.0}},
           "spectrum": [[1, 1.0], [1, 2.0]], "orders": [2]}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    code = cli_main(["resonance", "analyze", "--config", str(path)])
    out = capsys.readouterr()
    assert code == 0
    payload = json.loads(out.out)
    assert payload["classification"] == "conditionally_invariant"
    assert payload["conditions"] == [[2, -1]]


def test_cli_simulate_writes_outputs(tmp_path):
    cfg = counterprop_cfg()
    cfg["tau_star"] = 0.1
    cfg["solver"] = {"record_stride": 50}
    path = tmp_path / "run.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    code = cli_main(["simulate", "--config", str(path), "--out", str(out)])
    assert code == 0
    snaps = sorted(out.glob("snapshot_*.wpx"))
    assert snaps
    metrics = (out / "metrics.csv").read_text().splitlines()
    assert metrics[0].startswith("tau,l1_norm,linf_norm,mass_packet_1")
    assert "quadratic_mass" in metrics[0]
    back = wio.read_field(snaps[0])
    assert back.values.shape == (2, 512)


def test_cli_experiment_exit_codes(tmp_path):
    # pass -> 0
    ok_cfg = counterprop_cfg(nonlinearity={"preset": "none"})
    ok_cfg["spectrum"] = [[1, 1.0]]
    ok_cfg["experiment"] = {"rho_values": [0.02]}
    p = tmp_path / "ok.json"
    p.write_text(json.dumps(ok_cfg))
    assert cli_main(["experiment", "superposition", "--config", str(p),
                     "--out", str(tmp_path / "o1")]) == 0
    # threshold fail -> 1
    fail_cfg = {"rho": 0.05, "tau_star": 0.2, "grid": {"n": 1024, "k_max": 2.0},
                "experiment": {"q": 1.0 / (0.05 * 9.0), "b": 0.4,
                               "max_modulus_drift": 1e-15}}
    p2 = tmp_path / "fail.json"
    p2.write_text(json.dumps(fail_cfg))
    assert cli_main(["experiment", "soliton", "--config", str(p2),
                     "--out", str(tmp_path / "o2")]) == 1
    # hypothesis violation -> 2
    bad_cfg = counterprop_cfg(
        model={"preset": "nls1d", "params": {"a2": 1.0, "a0": 2.0}},
        spectrum=[[1, 1.0]],
        nonlinearity={"preset": "quadratic_conjugate", "q": 1.0},
    )
    p3 = tmp_path / "bad.json"
    p3.write_text(json.dumps(bad_cfg))
    assert cli_main(["experiment", "superposition", "--config", str(p3),
                     "--out", str(tmp_path / "o3")]) == 2
    # runtime error -> 3
    assert cli_main(["experiment", "soliton", "--config", str(tmp_path / "missing.json"),
                     "--out", str(tmp_path / "o4")]) == 3
    # unknown solver key or bad solver value -> 3
    for i, solver in enumerate(({"picard_tolerance": 1e-10}, {"picard_tol": "tight"})):
        p5 = tmp_path / f"solver{i}.json"
        p5.write_text(json.dumps({**fail_cfg, "solver": solver}))
        assert cli_main(["experiment", "soliton", "--config", str(p5),
                         "--out", str(tmp_path / "o5")]) == 3
        p5.write_text(json.dumps(counterprop_cfg(solver=solver)))
        assert cli_main(["simulate", "--config", str(p5), "--out", str(tmp_path / "o6")]) == 3


def test_cli_entry_point_subprocess(tmp_path):
    cfg = {"model": {"preset": "nls1d", "params": {"a2": 1.0, "a0": 1.0}},
           "spectrum": [[1, 1.0], [1, -1.0]], "orders": [3]}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    proc = subprocess.run(
        [sys.executable, "-m", "wavepax.cli", "resonance", "analyze",
         "--config", str(path)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["classification"] == "universally_invariant"
