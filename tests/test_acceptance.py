"""Acceptance suite: one test per headline criterion, with a printed verdict.

Each test pins its tolerances explicitly and prints a single line
"ACCEPT-NN <name>: PASS ..." on success (pytest -s or -rP shows them).
"""

import itertools
import json
import time

import numpy as np

from wavepax import dispersion as dsp
from wavepax import evolution as ev
from wavepax import harness
from wavepax import interaction as ia
from wavepax import io as wio
from wavepax import resonance as rs
from wavepax import wavepacket as wp
from wavepax.grids import Grid, ModalField, l1_norm_values


def _verdict(num, name, ok, detail):
    line = f"ACCEPT-{num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


# -- 1: resonance golden set ------------------------------------------------------

def test_accept_01_resonance_golden_set(spectra_equal):
    t0 = time.perf_counter()
    model_plain = dsp.model_from_config({"preset": "nls1d", "params": {"a2": 1.0, "a0": 1.0}})
    model_shg = dsp.model_from_config({"preset": "nls1d", "params": {"a2": 1.0, "a0": 2.0}})
    model_thg = dsp.model_from_config({"preset": "power", "params": {"p": 3.0, "a0": 12.0}})

    # quadratic, no second harmonic: R(S1) = S1
    s1 = rs.spectrum_from_list([[1, 1.0]])
    rep_i = rs.classify(s1, model_plain, [2])
    ok = spectra_equal(rep_i.selected, s1) and rep_i.out_res == []

    # quadratic with second harmonic: R(S1) = {k*, 2k*}, S2 = R(R(S1))
    rep_ii = rs.classify(s1, model_shg, [2])
    s2_expect = rs.spectrum_from_list([[1, 1.0], [1, 2.0]])
    ok &= spectra_equal(rep_ii.selected, s2_expect)
    closed, conv, _ = rs.closure(s1, model_shg, [2])
    ok &= conv and spectra_equal(closed, s2_expect)
    rep_s2 = rs.classify(s2_expect, model_shg, [2])
    ok &= rep_s2.classification in rs.INVARIANT_CLASSES and len(rep_s2.universal) < len(rep_s2.internal)
    ok &= rep_s2.conditions == [(2, -1)]

    # cubic third-harmonic set is invariant
    s4 = rs.spectrum_from_list([[1, 3.0], [1, 1.0], [1, -1.0], [1, -3.0]])
    rep_s4 = rs.classify(s4, model_thg, [3])
    ok &= spectra_equal(rep_s4.selected, s4) and rep_s4.classification in rs.INVARIANT_CLASSES

    # counterpropagating pair: universally invariant with the listed terms
    sc = rs.spectrum_from_list([[1, 1.0], [1, -1.0]])
    rep_c = rs.classify(sc, model_plain, [3])
    ok &= rep_c.classification == "universally_invariant"
    ok &= len(rep_c.universal) == len(rep_c.internal) == len(rep_c.solutions)
    base = [
        ((1, 1), (-1, 1), (1, 1)),
        ((1, 1), (-1, 1), (1, 2)),
        ((1, 2), (-1, 2), (1, 1)),
        ((1, 2), (-1, 2), (1, 2)),
    ]
    expected = {p for e in base for p in itertools.permutations(e)}
    got = {x.index.entries for x in rep_c.solutions if x.zeta == +1}
    ok &= got == expected

    elapsed = time.perf_counter() - t0
    ok &= elapsed < 1.0
    _verdict(1, "resonance-golden-set", ok, f"elapsed {elapsed:.2f}s")


# -- 2: convolution oracle equivalence ------------------------------------------------

def test_accept_02_convolution_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    g = Grid(1, (16,), (2.0,))
    worst = 0.0
    for chi in (ev.quadratic_conjugate(0.9), ev.cubic_conjugate(1.2)):
        fields = [
            ModalField(g, rng.normal(size=(2, 16)) + 1j * rng.normal(size=(2, 16)))
            for _ in range(chi.order)
        ]
        o_fft = ev.apply_nonlinearity(fields, chi, mode="fft")
        o_dir = ev.apply_nonlinearity(fields, chi, mode="direct-oracle")
        rel = np.abs(o_fft.values - o_dir.values).max() / np.abs(o_dir.values).max()
        worst = max(worst, rel)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and elapsed < 1.0
    _verdict(2, "convolution-oracle", ok, f"max rel err {worst:.2e}, {elapsed:.2f}s")


# -- 3: solver correctness ------------------------------------------------------------

def test_accept_03_solver_correctness(trajectory_distance):
    model = dsp.model_from_config({"preset": "nls1d", "params": {"a2": 1.0, "a0": 1.0}})
    g = Grid(1, (256,), (2.0,))
    spec = wp.WavepacketSpec(
        n=1, k_star=1.0, r_star=0.0, beta=0.1, epsilon=0.1,
        envelope=wp.Envelope("gaussian", 0.5, 0.25),
    )
    h = wp.build_wavepacket(spec, model, g)

    # (a) zero nonlinearity is exact
    lin = ev.solve_integrated(ev.EvolutionProblem(model, [], 0.05, 0.3, g, h))
    exact_a = max(np.abs(f.values - h.values).max() for f in lin.fields) == 0.0

    # (b) independent exponential-midpoint integrator agreement
    prob = ev.EvolutionProblem(model, [ev.cubic_conjugate(1.0)], 0.1, 0.25, g, h)
    cfg = ev.SolverConfig(substeps_per_rho=200, record_stride=100)
    traj = ev.solve_integrated(prob, cfg)
    mid = ev.integrate_slow_midpoint(prob, n_steps=traj.n_steps, record_stride=100)
    dist = trajectory_distance(traj, mid)
    ok_b = dist <= 1e-6

    # (c) time-mesh halving reduces the solution change by >= 3x
    prob_c = ev.EvolutionProblem(model, [ev.cubic_conjugate(1.0)], 0.05, 0.25, g, h)
    final = {}
    for sub in (10, 20, 40):
        sol = ev.solve_integrated(prob_c, ev.SolverConfig(substeps_per_rho=sub,
                                                          record_stride=10 ** 9))
        final[sub] = sol.fields[-1].values
    d1 = l1_norm_values(final[10] - final[20], g)
    d2 = l1_norm_values(final[20] - final[40], g)
    ok_c = d1 / d2 >= 3.0

    ok = exact_a and ok_b and ok_c
    _verdict(3, "solver-correctness", ok,
             f"F=0 exact {exact_a}, midpoint dist {dist:.2e}, halving ratio {d1 / d2:.2f}")


# -- 4: soliton -------------------------------------------------------------------------

def test_accept_04_soliton():
    res = harness.soliton_experiment({
        "rho": 0.05,
        "tau_star": 0.5,
        "experiment": {"q": 1.0 / (0.05 * 9.0), "b": 0.5},
    })
    ok = bool(res.passed)
    _verdict(4, "soliton", ok,
             f"residual {res.fits['residual_rel']:.2e} <= 1e-8, "
             f"drift {res.fits['modulus_drift_rel']:.2e} <= 1e-3")


# -- 5: wavepacket preservation ---------------------------------------------------------

def test_accept_05_preservation():
    base = {
        "model": {"preset": "nls1d", "params": {"a2": 1.0, "a0": 1.0}},
        "grid": {"n": 2048, "k_max": 4.0},
        "spectrum": [[1, 1.0], [1, -1.0]],
        "nonlinearity": {"preset": "cubic_conjugate", "q": 1.0},
        "packets": [{"envelope": {"family": "bump", "width": 0.5, "amplitude": 0.15}}],
        "beta": 0.1, "epsilon": 0.25, "rho": 0.01, "tau_star": 0.25,
        "experiment": {"beta_rho_pairs": [[0.1, 0.01], [0.05, 0.0025]]},
    }
    inv = harness.preservation_experiment(base)
    ratio = inv.fits["decay_ratio"]
    ok = bool(inv.passed) and ratio <= 0.5

    control = {
        "model": {"preset": "nls1d", "params": {"a2": 1.0, "a0": 2.0}},
        "grid": {"n": 2048, "k_max": 4.0},
        "spectrum": [[1, 1.0]],
        "nonlinearity": {"preset": "quadratic_conjugate", "q": 1.0},
        "packets": [{"envelope": {"family": "bump", "width": 0.5, "amplitude": 0.15}}],
        "beta": 0.1, "epsilon": 0.25, "rho": 0.01, "tau_star": 0.25,
        "experiment": {"beta_rho_pairs": [[0.1, 0.01]]},
    }
    neg = harness.preservation_experiment(control, force=True)
    control_ratio = neg.runs[0]["outside_mass"] / inv.runs[0]["outside_mass"]
    ok &= control_ratio >= 5.0
    _verdict(5, "preservation", ok,
             f"decay ratio {ratio:.3f} <= 0.5, control/invariant {control_ratio:.1f} >= 5")


# -- 6: superposition scaling -------------------------------------------------------------

def test_accept_06_superposition_scaling():
    cfg = {
        "model": {"preset": "nls1d", "params": {"a2": 1.0, "a0": 1.0}},
        "grid": {"n": 2048, "k_max": 4.0},
        "spectrum": [[1, 1.0], [1, -1.0]],
        "nonlinearity": {"preset": "cubic_full", "q": 1.0},
        "packets": [{"envelope": {"family": "gaussian", "width": 1.0, "amplitude": 0.12}}],
        "beta": 0.1, "epsilon": 0.1, "rho": 0.004, "tau_star": 0.25,
        "solver": {"picard_tol": 3e-10},
        "experiment": {"rho_values": [0.004, 0.002, 0.001]},
    }
    res = harness.superposition_experiment(cfg)
    fit = res.fits["rho_scaling"]
    ok = bool(res.passed)
    _verdict(6, "superposition-scaling", ok,
             f"slope {fit['slope']:.3f} in [0.8,1.2], residual {fit['residual']:.2e} <= 0.1")


# -- 7: averaged-system fidelity ------------------------------------------------------------

ACCEPT_07_CONFIG = {
    "model": {"preset": "nls1d", "params": {"a2": 1.0, "a0": 1.0}},
    "grid": {"n": 2048, "k_max": 4.0},
    "spectrum": [[1, 1.0], [1, -1.0]],
    "nonlinearity": {"preset": "cubic_full", "q": 1.0},
    "packets": [{"envelope": {"family": "gaussian", "width": 1.0, "amplitude": 0.12}}],
    "beta": 0.1, "epsilon": 0.1, "rho": 0.004, "tau_star": 0.25,
    "solver": {"picard_tol": 3e-10},
    "experiment": {"rho_values": [0.004, 0.002, 0.001]},
}


def test_accept_07_averaging_fidelity():
    res = harness.averaging_experiment(ACCEPT_07_CONFIG)
    ratios = res.fits["vw_ratios"]
    slope = res.fits["coupling_scaling"]["slope"]
    ok = bool(res.passed)
    _verdict(7, "averaging-fidelity", ok,
             f"|v-w| halving ratios {[f'{r:.2f}' for r in ratios]} <= 0.6, "
             f"coupling slope {slope:.3f} in [0.8,1.2]")


# -- 8: position transport through a collision ------------------------------------------------

ACCEPT_08_CONFIG = {
    "model": {"preset": "nls1d", "params": {"a2": 1.0, "a0": 1.0}},
    "grid": {"n": 1024, "k_max": 4.0},
    "spectrum": [[1, 1.0], [1, -1.0]],
    "nonlinearity": {"preset": "cubic_conjugate", "q": 1.0},
    "packets": [
        {"envelope": {"family": "gaussian", "width": 1.0, "amplitude": 0.12},
         "r_star": -25.0},
        {"envelope": {"family": "gaussian", "width": 1.0, "amplitude": 0.12},
         "r_star": 25.0},
    ],
    "beta": 0.1, "epsilon": 0.1, "rho": 0.01, "tau_star": 0.5,
    "experiment": {"n_track_times": 9},
}


def test_accept_08_position_transport():
    res = harness.position_tracking_experiment(ACCEPT_08_CONFIG)
    ok = bool(res.passed)
    # the trajectories must actually cross within the run
    p1 = [r for r in res.runs if r["packet"] == 1]
    p2 = [r for r in res.runs if r["packet"] == 2]
    crossed = (p1[0]["position"] < p2[0]["position"]) and (
        p1[-1]["position"] > p2[-1]["position"]
    )
    ok &= crossed
    _verdict(8, "position-transport", ok,
             f"max y-dev {res.fits['max_y_deviation']:.3f} <= "
             f"{res.thresholds['max_y_deviation']:.3f}, "
             f"final diameter {res.fits['max_final_diameter']:.0f} <= "
             f"{res.thresholds['max_diameter']:.0f}, crossed {crossed}")


def test_acceptance_geometries_take_the_half_state_paths(monkeypatch):
    # a fallback to the full state shows only as slowness: the ACCEPT-07
    # geometry runs its interaction, averaged, clip-diagnostic and coupling
    # evaluators on half states, forming the (l, +1) outputs only, and the
    # ACCEPT-08 problem passes the full-grid symmetry test
    built = []
    init = ia.MonomialEvaluator.__init__
    monkeypatch.setattr(ia.MonomialEvaluator, "__init__",
                        lambda self, *args, **kwargs: built.append(self) or init(self, *args,
                                                                                  **kwargs))
    harness.averaging_experiment({**ACCEPT_07_CONFIG, "experiment": {"rho_values": [0.004]}})
    assert len(built) == 4
    assert all(e.half and set(e.plan.outs) == {(1, 1), (2, 1)} for e in built)
    rc = harness.load_config(ACCEPT_08_CONFIG)
    problem = harness.build_problem(rc, harness.build_initial(rc)[0])
    assert ev._conjugate_mirror(problem, rc.solver) is not None


# -- 9: homogeneity identity --------------------------------------------------------------------

def test_accept_09_homogeneity():
    rng = np.random.default_rng(99)
    model = dsp.model_from_config({"preset": "nls1d", "params": {"a2": 1.0, "a0": 1.0}})
    g = Grid(1, (512,), (4.0,))
    spectrum = rs.spectrum_from_list([[1, 1.0], [1, -1.0]])
    total = np.zeros((2, 512), dtype=complex)
    for ks in (1.0, -1.0):
        s = wp.WavepacketSpec(1, ks, 0.0, 0.12, 0.1, wp.Envelope("gaussian", 1.0, 0.1))
        total += wp.build_wavepacket(s, model, g).values
    prob = ev.EvolutionProblem(model, [ev.cubic_full(1.0)], 0.05, 0.2, g,
                               ModalField(g, total))
    sets = ia.build_index_sets(spectrum, model, [3])
    tuples = [rng.uniform(-np.pi, np.pi, size=2) for _ in range(20)]
    disc_u = ia.homogeneity_check(prob, spectrum, sets, tuples, beta=0.12, epsilon=0.1,
                                  n_times=4)

    model2 = dsp.model_from_config({"preset": "nls1d", "params": {"a2": 1.0, "a0": 2.0}})
    spectrum2 = rs.spectrum_from_list([[1, 1.0], [1, 2.0]])
    total2 = np.zeros((2, 512), dtype=complex)
    for ks in (1.0, 2.0):
        s = wp.WavepacketSpec(1, ks, 0.0, 0.12, 0.1, wp.Envelope("gaussian", 1.0, 0.1))
        total2 += wp.build_wavepacket(s, model2, g).values
    prob2 = ev.EvolutionProblem(model2, [ev.quadratic_conjugate(1.0)], 0.05, 0.2, g,
                                ModalField(g, total2))
    sets2 = ia.build_index_sets(spectrum2, model2, [2])
    constrained = [np.array([p, 2 * p]) for p in rng.uniform(-1.2, 1.2, size=6)]
    generic = [np.array([p, -0.7 * p]) for p in rng.uniform(0.6, 1.2, size=6)]
    disc_on = ia.homogeneity_check(prob2, spectrum2, sets2, constrained,
                                   beta=0.12, epsilon=0.1, n_times=3)
    disc_off = ia.homogeneity_check(prob2, spectrum2, sets2, generic,
                                    beta=0.12, epsilon=0.1, n_times=3)
    ok = disc_u <= 1e-10 and disc_on <= 1e-10 and disc_off >= 1e-2
    _verdict(9, "homogeneity", ok,
             f"universal {disc_u:.1e} <= 1e-10, constrained {disc_on:.1e} <= 1e-10, "
             f"generic {disc_off:.1e} >= 1e-2")


# -- 10: determinism ------------------------------------------------------------------------------

def test_accept_10_determinism(tmp_path):
    cfg = {
        "model": {"preset": "nls1d", "params": {"a2": 1.0, "a0": 1.0}},
        "grid": {"n": 512, "k_max": 4.0},
        "spectrum": [[1, 1.0], [1, -1.0]],
        "nonlinearity": {"preset": "cubic_conjugate", "q": 1.0},
        "packets": [{"envelope": {"family": "bump", "width": 0.7, "amplitude": 0.15}}],
        "beta": 0.12, "epsilon": 0.25, "rho": 0.02, "tau_star": 0.2,
        "experiment": {"beta_rho_pairs": [[0.12, 0.02]], "seed": 17},
    }
    a = harness.preservation_experiment(cfg)
    b = harness.preservation_experiment(json.loads(json.dumps(cfg)))
    same_json = a.to_json().encode() == b.to_json().encode()
    pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
    wio.write_metrics_csv(pa, harness.flat_metric_rows(a))
    wio.write_metrics_csv(pb, harness.flat_metric_rows(b))
    same_csv = pa.read_bytes() == pb.read_bytes()
    ok = same_json and same_csv
    _verdict(10, "determinism", ok, f"result.json identical {same_json}, csv identical {same_csv}")
