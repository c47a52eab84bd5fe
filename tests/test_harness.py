import copy
import json
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wavepax import cli, harness
from wavepax import dispersion as dsp
from wavepax import evolution as ev
from wavepax import interaction as ia
from wavepax import io as wio
from wavepax import resonance as rs
from wavepax import wavepacket as wp
from wavepax.cli import main as cli_main
from wavepax.errors import ConfigError, HypothesisViolated, ParameterSignError, WavepaxError
from wavepax.grids import Grid, ModalField, l1_norm_values


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
                   {"picard_tol": "tight"}, {"picard_max_iter": 2.5}, {"record_stride": -1},
                   {"record_stride": 0}, {"picard_tol": float("nan")},
                   {"substeps_per_rho": float("inf")}, {"picard_max_iter": True}):
        with pytest.raises(ConfigError, match="solver"):
            harness.load_config(counterprop_cfg(solver=solver))


@pytest.mark.parametrize("n", [96, 100])
def test_configured_grid_is_a_power_of_two(n):
    # a convolution plan's transform grid may take 96 or 288 nodes; the
    # config schema keeps powers of two
    grid = {"n": n, "k_max": 4.0}
    with pytest.raises(ValueError, match="power of two"):
        harness.load_config(counterprop_cfg(grid=grid))
    with pytest.raises(ValueError, match="power of two"):
        harness.soliton_experiment({"grid": grid})
    assert Grid(1, (288,), (4.0,)).shape == (288,)


@pytest.mark.parametrize("grid", [{"n": 512, "k_max": 0.0}, {"n": 512, "k_max": -4.0},
                                  {"n": 512, "k_max": float("nan")},
                                  {"n": 512, "k_max": float("inf")},
                                  {"n": 1024.5, "k_max": 4.0}, {"n": float("inf"), "k_max": 4.0},
                                  {"n": float("nan"), "k_max": 4.0}])
def test_grid_fields_are_config_errors(grid, tmp_path):
    # once a ZeroDivisionError, a silent FAIL, a silent int() or an OverflowError
    with pytest.raises(ConfigError, match="grid"):
        harness.load_config(counterprop_cfg(grid=grid))
    with pytest.raises(ConfigError, match="grid"):
        harness.soliton_experiment({"grid": grid})
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(counterprop_cfg(grid=grid, experiment={"n_track_times": 3})))
    assert cli_main(["experiment", "positions", "--config", str(p),
                     "--out", str(tmp_path / "out")]) == 3


def envelope_cfg(**fields):
    return counterprop_cfg(packets=[{"envelope": {"family": "bump", "width": 0.7,
                                                  "amplitude": 0.15, **fields}}])


# each once a bare ValueError, which a sweep did not record as an error row
CONFIG_FIELD_ERRORS = {
    "model": (counterprop_cfg(model={"preset": "nope"}), "unknown model preset 'nope'"),
    "nonlinearity": (counterprop_cfg(nonlinearity={"preset": "nope"}),
                     "unknown nonlinearity preset 'nope'"),
    "width-zero": (envelope_cfg(width=0), "width must be positive and finite"),
    "width-nan": (envelope_cfg(width=float("nan")), "width must be positive and finite"),
    "amplitude-nan": (envelope_cfg(amplitude=float("nan")), "amplitude must be finite"),
    "family": (envelope_cfg(family="nope"), "unknown envelope family"),
    "spectrum-short": (counterprop_cfg(spectrum=[[1]]), "does not have dimension 1"),
    "spectrum-nan": (counterprop_cfg(spectrum=[[1, float("nan")], [1, -1.0]]), "not finite"),
    "band": (counterprop_cfg(spectrum=[[0, 1.0], [1, -1.0]]), "bands must lie in 1..1"),
    "grid-n": (counterprop_cfg(grid={"n": 3, "k_max": 4.0}), "power of two"),
    "grid-n-text": (counterprop_cfg(grid={"n": "x", "k_max": 4.0}), "invalid grid"),
    "grid-dim-zero": (counterprop_cfg(grid={"n": 512, "k_max": 4.0, "dim": 0}), "grid.dim"),
    "grid-dim-fraction": (counterprop_cfg(grid={"n": 512, "k_max": 4.0, "dim": 1.5}), "grid.dim"),
    "r-star-nan": (counterprop_cfg(packets=[{"r_star": float("nan")}]), "r_star must be finite"),
    # each once read as another value, or a bare ValueError at build time
    "band-fraction": (counterprop_cfg(spectrum=[[1.5, 1.0], [1, -1.0]]),
                      "bands \\[1.5, 1.0\\] are not all integers"),
    "zeta-components": (counterprop_cfg(packets=[{"zeta_components": "x"}]),
                        "zeta_components must be"),
    "doublet-reality": (counterprop_cfg(packets=[{"doublet_reality": "false"}]),
                        "doublet_reality must be true or false"),
    # each once a KeyError or a FileNotFoundError
    "matrix-no-file": (counterprop_cfg(model={"preset": "matrix"}), "model.params.file"),
    "matrix-missing-file": (counterprop_cfg(model={"preset": "matrix:no-such-table.json"}),
                            "cannot read matrix model table 'no-such-table.json'"),
}


@pytest.mark.parametrize("field", list(CONFIG_FIELD_ERRORS))
def test_config_fields_are_config_errors(field, tmp_path):
    cfg, message = CONFIG_FIELD_ERRORS[field]
    with pytest.raises(ConfigError, match=message):
        harness.load_config(cfg)
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({**cfg, "experiment": {"n_track_times": 3}}))
    assert cli_main(["experiment", "positions", "--config", str(p),
                     "--out", str(tmp_path / "out")]) == 3
    assert not (tmp_path / "out").exists()


def test_sweep_records_config_field_errors():
    # a bad envelope width is one error row; the sweep goes on
    cfg = sweep_cfg()
    cfg["experiment"]["sweep"] = {"packets": [[{"envelope": {"width": 0.7}}],
                                              [{"envelope": {"width": 0}}]]}
    res = harness.sweep(cfg)
    assert [r["status"] for r in res.runs] == ["ok", "error"]
    assert res.runs[1]["error_type"] == "ConfigError"
    assert "width must be positive" in res.runs[1]["error"]


@pytest.mark.parametrize("name, path, value, message", [
    ("positions", "spectrum", [[1.5, 1.0], [1, -1.0]], "bands [1.5, 1.0] are not all integers"),
    ("positions", "packets", [{"zeta_components": "x"}], "zeta_components must be"),
    ("positions", "packets", [{"doublet_reality": "false"}],
     "doublet_reality must be true or false"),
    ("positions", "experiment.n_track_times", 2.5, "n_track_times must be an integer"),
    ("averaging", "experiment.rho_values", ["x"], "rho_values must be a non-empty list"),
    ("soliton", "experiment.b", "x", "experiment.b must be a finite real number"),
], ids=["band", "zeta-components", "doublet-reality", "n-track-times", "rho-values", "soliton-b"])
def test_sweep_records_read_field_errors(name, path, value, message):
    # a field once read as another value, or a bare ValueError that aborted
    # the sweep, is one error row
    cfg = counterprop_cfg(experiment={"name": name, "sweep": {path: [value]}})
    res = harness.sweep(cfg)
    assert [r["status"] for r in res.runs] == ["error"]
    assert res.runs[0]["error_type"] == "ConfigError"
    assert message in res.runs[0]["error"]


@pytest.mark.parametrize("experiment", [
    {"name": "positions", "sweep": [1]}, {"name": "positions", "sweep": {"beta": 0.1}},
    {"name": "positions", "sweep": {"beta": []}}, {"name": "positions", "sweep": {"beta.x": [1]}},
    {"name": "nope", "sweep": {"beta": [0.1]}}, {"sweep": {"beta": [0.1]}}, [1],
])
def test_bad_sweep_blocks_are_config_errors(experiment, monkeypatch):
    # sweep: [1] was an AttributeError, {"beta": 0.1} a TypeError and a path
    # through a number an AttributeError; an empty list ran no run and passed
    monkeypatch.setitem(harness.EXPERIMENTS, "positions", None)  # no run may start
    with pytest.raises(ConfigError, match="experiment"):
        harness.sweep(counterprop_cfg(experiment=experiment))


def no_solves(monkeypatch):
    """Fail the test if any solve starts: the configs below are refused before the first."""
    def solve(*args, **kwargs):
        raise AssertionError("a solve started")

    for module, name in ((ev, "solve_integrated"), (ia, "solve_interaction_system"),
                         (ia, "solve_averaged_system")):
        monkeypatch.setattr(module, name, solve)


SOLITON_CFG = {"rho": 0.05, "tau_star": 0.2, "grid": {"n": 256, "k_max": 2.0},
               "experiment": {"q": 1.0 / (0.05 * 9.0), "b": 0.4}}


# each once a bare ValueError or TypeError, or (thresholds) a ConfigError
# only after every solve had run
@pytest.mark.parametrize("name, path, value", [
    ("averaging", "experiment.rho_values", ["x"]), ("averaging", "experiment.rho_values", 5),
    ("preservation", "experiment.beta_rho_pairs", [[0.1]]),
    ("preservation", "experiment.beta_rho_pairs", [[2.0, 0.01]]),
    ("soliton", "rho", "x"), ("soliton", "solver", "x"),
    ("preservation", "experiment.max_ratio", "x"),
    ("superposition", "experiment.slope_min", "x"),
    ("positions", "experiment.max_diameter", "x"),
    ("soliton", "experiment.max_modulus_drift", "x"),
    ("averaging", "experiment.max_vw_ratio", "x"),
])
def test_experiment_fields_are_config_errors_before_any_solve(name, path, value, monkeypatch,
                                                              tmp_path):
    no_solves(monkeypatch)
    cfg = copy.deepcopy(SOLITON_CFG) if name == "soliton" else counterprop_cfg()
    harness._set_path(cfg, path, value)
    with pytest.raises(ConfigError, match=f"{path} must be"):
        harness.EXPERIMENTS[name](cfg)
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    assert cli_main(["experiment", name, "--config", str(p), "--out", str(tmp_path / "out")]) == 3


SHIPPED = sorted((Path(__file__).parents[1] / "demos" / "configs").glob("*.json"))
BAD_VALUES = [None, True, "x", -1, 0, 0.5, float("inf"), -float("inf"), float("nan"), 10**400,
              [], {}, [1.0], {"x": 1.0}]


def config_paths(node, path=()):
    """The path of every node under a config, itself included."""
    yield path
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, value in items:
        yield from config_paths(value, path + (key,))


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_mutated_shipped_configs_load_or_raise_typed_errors(data):
    # one node of a shipped config (on a 64-node grid) replaced by a value of
    # another type, sign or size, removed, or joined by an unknown key: its
    # checked read (and, for a run, building its packets) either works or
    # raises a WavepaxError, never a TypeError, AttributeError, IndexError,
    # KeyError, OverflowError or bare ValueError; no experiment runs
    shipped = data.draw(st.sampled_from(SHIPPED))
    cfg = json.loads(shipped.read_text(encoding="utf-8"))
    cfg.get("grid", {})["n"] = 64
    path = data.draw(st.sampled_from(list(config_paths(cfg))[1:]))
    node = cfg
    for key in path[:-1]:
        node = node[key]
    how = data.draw(st.sampled_from(["replace", "remove", "add a key"]))
    if how == "remove":
        del node[path[-1]]
    elif how == "add a key" and isinstance(node, dict):
        node["unknown"] = data.draw(st.sampled_from(BAD_VALUES))
    else:
        node[path[-1]] = data.draw(st.sampled_from(BAD_VALUES))
    name = shipped.stem.partition("_")[2]
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            if shipped.stem.startswith("resonance"):
                harness.resonance_config(cfg)
            elif name == "soliton":
                harness._soliton_config(cfg)
            elif name in harness.EXPERIMENTS:
                harness.build_initial(harness._experiment_config(name, cfg)[0])
            else:
                harness.build_initial(harness.load_config(cfg))
    except WavepaxError:
        pass


@pytest.mark.parametrize("field, value", [("beta", None), ("nonlinearity", "cubic_conjugate"),
                                          ("model", {"preset": 3}),
                                          ("model", {"preset": "nls1d", "params": {"a2": 1e999}}),
                                          ("experiment", "sweep")])
def test_mistyped_config_fields_exit_3(field, value, tmp_path):
    # each once a traceback with exit code 1 ("threshold fail") and no result.json
    cfg = json.loads((Path(__file__).parents[1] / "demos" / "configs"
                      / "experiment_positions.json").read_text(encoding="utf-8"))
    cfg[field] = value
    with pytest.raises(ConfigError, match=f"invalid {field}"):
        harness.load_config(cfg)
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    assert cli_main(["experiment", "positions", "--config", str(p),
                     "--out", str(tmp_path / "out")]) == 3
    assert not (tmp_path / "out").exists()


def test_sweep_records_direct_oracle_on_windowed_solves():
    # the windowed solves refuse the direct oracle: once a bare ValueError
    # that aborted the sweep, now one error row
    cfg = counterprop_cfg(experiment={"name": "averaging",
                                      "sweep": {"solver.convolution_mode": ["direct-oracle"]}})
    res = harness.sweep(cfg)
    assert [r["status"] for r in res.runs] == ["error"]
    assert res.runs[0]["error_type"] == "ConfigError"
    assert "convolve by FFT only" in res.runs[0]["error"]


@pytest.mark.parametrize("n_track", [0, -3, 2.5, "x"])
def test_track_times_are_positive(n_track, tmp_path):
    # 2.5 once ran as 2 and "x" was a bare ValueError
    # n_track_times 0 once ended in an IndexError after the solve
    cfg = counterprop_cfg(experiment={"n_track_times": n_track})
    with pytest.raises(ConfigError, match="n_track_times"):
        harness.position_tracking_experiment(cfg)
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    assert cli_main(["experiment", "positions", "--config", str(p),
                     "--out", str(tmp_path / "out")]) == 3


@pytest.mark.parametrize("rho, warns", [(0.01, False), (0.004, True)])
def test_dispersion_ratio_warning(rho, warns):
    # beta^2/rho evaluates to 1.0000000000000002 at beta = 0.1, rho = 0.01
    cfg = counterprop_cfg(beta=0.1, rho=rho)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = harness.load_config(cfg)
    flagged = any("dispersion ratio" in str(w.message) for w in caught)
    assert flagged is warns
    assert harness.hypothesis_block(rc)["dispersion_ok"] is not warns


def test_readme_lists_every_experiment_field():
    # README's "Experiment blocks" list and the field table name the same
    # fields, block by block
    text = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    bullets = text.split("\nExperiment blocks.", 1)[1].split("\n\n", 2)[1]
    listed = {name: set(re.findall(r"`(\w+)`", body))
              for name, body in re.findall(r"^\* `(\w+)`:(.*?)(?=^\* |\Z)", bullets, re.M | re.S)}
    table = {name: set(harness._FIELDS[name]) | set(harness._FIELDS.get(f"{name} thresholds", ()))
             for name in [*harness.EXPERIMENTS, "sweep"]}
    assert listed == table


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
    # the text "false" once read as true, and the run went ahead
    with pytest.raises(ConfigError, match="experiment.force must be true or false"):
        harness.preservation_experiment({**cfg, "experiment": {"force": "false"}})
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


# -- carrier windows ----------------------------------------------------------------------

def matrix_model():
    def symbol(k):
        return np.array([[k * k + 6.0, 1.0 + 0.5j], [1.0 - 0.5j, -(k * k) - 6.0]])

    return dsp.matrix_symbol_model(symbol, j_bands=1)


@pytest.fixture(params=["scalar", "matrix"])
def window_cfg(request, monkeypatch):
    """Two counter-propagating packets on the nls band or on a matrix symbol."""
    if request.param == "matrix":
        model = matrix_model()
        monkeypatch.setattr(dsp, "model_from_config", lambda cfg: model)
    return counterprop_cfg(
        spectrum=[[1, 1.0], [1, -1.0]],
        packets=[{"envelope": {"family": "gaussian", "width": 1.0, "amplitude": 0.12},
                  "r_star": r} for r in (-10.0, 10.0)],
        beta=0.1, epsilon=0.1, tau_star=0.3,
    )


def test_matrix_windows_overlap_only_on_one_band():
    # (1, +1) and (2, -1) of carriers +-1 share the centre +1, but on the two
    # bands of the symbol, whose projections are orthogonal
    model, grid = matrix_model(), Grid(1, (512,), (4.0,))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ia.ComponentLayout(rs.spectrum_from_list([[1, 1.0], [1, -1.0]]), model, grid, 0.1, 0.1)
    # (1, +1) and (2, +1) lie on one band, closer than 2 * radius = 0.504
    with pytest.warns(UserWarning, match="radius 0.252 overlap at separation 0.3"):
        ia.ComponentLayout(rs.spectrum_from_list([[1, 1.0], [1, 1.3]]), model, grid, 0.1, 0.1)


def full_grid_window(rc, values, beta, l, theta, factor=2.0):
    """The full-grid carrier window formula the diagnostics used before ComponentLayout."""
    cut = wp.build_cutoff(rc.grid, theta * rc.spectrum.kvec(l),
                          factor * beta ** (1.0 - rc.epsilon))
    return cut * wp.project_band_values(values, rc.model, rc.grid, rc.spectrum.band(l), theta)


def recorded_solves(monkeypatch):
    """Keep every trajectory that evolution.solve_integrated returns."""
    trajs, inner = [], ev.solve_integrated

    def solve(*args, **kwargs):
        trajs.append(inner(*args, **kwargs))
        return trajs[-1]

    monkeypatch.setattr(ev, "solve_integrated", solve)
    return trajs


def test_outside_mass_matches_full_grid_windows(window_cfg, monkeypatch):
    cfg = dict(window_cfg, experiment={"beta_rho_pairs": [[0.1, 0.02], [0.12, 0.02]],
                                       "cutoff_factor": 2.5})
    trajs = recorded_solves(monkeypatch)
    res = harness.preservation_experiment(cfg, force=True)
    rc = harness.load_config(cfg)
    for row, traj in zip(res.runs, trajs, strict=True):
        want = 0.0
        for f in traj.fields:
            kept = np.zeros_like(f.values)
            for l in (1, 2):
                for theta in (+1, -1):
                    kept += full_grid_window(rc, f.values, row["beta"], l, theta, 2.5)
            want = max(want, l1_norm_values(f.values - kept, rc.grid))
        assert row["outside_mass"] == want
    assert res.runs[0]["outside_mass"] > 0.0


def test_simulate_packet_masses_match_full_grid_windows(window_cfg, monkeypatch, tmp_path):
    cfg = dict(window_cfg, solver={"record_stride": 40})
    path = tmp_path / "run.json"
    path.write_text(json.dumps(cfg))
    trajs = recorded_solves(monkeypatch)
    written = []

    def write_metrics(out, rows):
        written.extend(rows)
        wio.write_metrics_csv(out, rows)

    monkeypatch.setattr(cli, "write_metrics_csv", write_metrics)
    assert cli_main(["simulate", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
    rc = harness.load_config(cfg)
    (traj,) = trajs
    assert len(written) == len(traj.fields) > 2
    for row, f in zip(written, traj.fields):
        for l in (1, 2):
            want = 0.0
            for theta in (+1, -1):
                want += l1_norm_values(full_grid_window(rc, f.values, rc.beta, l, theta), rc.grid)
            assert row[f"mass_packet_{l}"] == want


def sample_field(samples, t):
    """Sample t of FieldSamples on the full grid, as a slow-frame ModalField."""
    full = np.zeros((samples.values.shape[1], int(np.prod(samples.grid.shape))), dtype=complex)
    full[:, samples.nodes] = samples.values[t]
    return ModalField(samples.grid, full.reshape((-1,) + samples.grid.shape))


def test_tracked_components_match_full_grid_windows(window_cfg, monkeypatch):
    cfg = dict(window_cfg, experiment={"n_track_times": 3})
    trajs = recorded_solves(monkeypatch)
    # the components the experiment hands to the position diagnostics, not
    # those the diagnostics pass on to position_detection themselves
    seen, depth = [], [0]

    def record(name):
        inner = getattr(wp, name)

        def wrapper(fields, *args, **kwargs):
            if depth[0] == 0 and name == "particle_norm":
                # one batch per packet: its samples, time by time
                seen.extend(sample_field(s, t) for t in range(len(fields[0].values)) for s in fields)
            elif depth[0] == 0:
                seen.append(fields)
            depth[0] += 1
            try:
                return inner(fields, *args, **kwargs)
            finally:
                depth[0] -= 1

        monkeypatch.setattr(wp, name, wrapper)

    for name in ("position_detection", "locate_position", "particle_norm"):
        record(name)
    harness.position_tracking_experiment(cfg, force=True)
    rc = harness.load_config(cfg)
    (traj,) = trajs
    idxs = np.unique(np.linspace(0, len(traj.times) - 1, 3).astype(int))
    sources = [(l, wp.build_wavepacket(harness.packet_spec(rc, l), rc.model, rc.grid))
               for l in (1, 2)]
    sources += [(l, f) for i in idxs for l in (1, 2) for f in (traj.fast_field(i), traj.fields[i])]
    sources += [(l, traj.fields[i]) for i in idxs for l in (1, 2)]
    assert len(seen) == len(sources)
    for comp, (l, f) in zip(seen, sources):
        assert comp.frame == f.frame
        assert np.array_equal(comp.values, full_grid_window(rc, f.values, rc.beta, l, +1))


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


def test_sweep_same_with_two_workers():
    cfg = sweep_cfg()
    cfg["experiment"]["sweep"] = {"rho": [0.04, 0.02]}
    serial = harness.sweep(cfg, workers=1)
    assert [r["status"] for r in serial.runs] == ["ok", "ok"]
    assert harness.sweep(cfg, workers=2).to_dict() == serial.to_dict()


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


@pytest.mark.parametrize("field, value", [("orders", 3), ("orders", [0]), ("exact", "false"),
                                          ("seed", -1), ("model", {"preset": "matrix"}),
                                          ("spectrum", "x")])
def test_cli_resonance_mistyped_fields_exit_3(field, value, tmp_path, capsys):
    # orders 3 once ended in a TypeError traceback with exit code 1 ("threshold
    # fail"), and exact "false" once ran the exact classification
    cfg = json.loads((Path(__file__).parents[1] / "demos" / "configs"
                      / "resonance_counterprop.json").read_text(encoding="utf-8"))
    cfg[field] = value
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert cli_main(["resonance", "analyze", "--config", str(path), "--probe", "2"]) == 3
    assert f"invalid {field}" in capsys.readouterr().err


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
    for i, solver in enumerate(({"picard_tolerance": 1e-10}, {"picard_tol": "tight"},
                                {"record_stride": -1}, {"record_stride": 0},
                                {"picard_tol": float("nan")}, {"substeps_per_rho": float("inf")},
                                {"picard_max_iter": True})):
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
