"""Experiment orchestration: configs, runs, sweeps and headline diagnostics.

Each experiment consumes a declarative JSON-style config, runs the solver
machinery, checks its standing hypotheses, and emits an ExperimentResult
with per-run metric rows, least-squares fits where applicable and a pass
verdict against the configured thresholds.  Results are deterministic for a
fixed config and seed.
"""

from __future__ import annotations

import copy
import itertools
import json
import warnings
from dataclasses import dataclass

import numpy as np

from . import __version__
from . import dispersion as dsp
from . import evolution as ev
from . import interaction as ia
from . import resonance as rs
from . import wavepacket as wp
from .errors import ConfigError, HypothesisViolated, ParameterSignError, WavepaxError
from .grids import (
    Grid,
    ModalField,
    l1_norm,
    l1_norm_values,
    samples_to_spectrum,
    spectrum_to_samples,
    to_r_space,
)
from .io import config_hash


# -- configuration -----------------------------------------------------------------

DEFAULT_GRID = {"dim": 1, "n": 1024, "k_max": 4.0}


@dataclass
class RunConfig:
    """Validated experiment description."""

    raw: dict
    model: dsp.DispersionModel
    grid: Grid
    spectrum: rs.NkSpectrum
    nonlinearity: list
    packets: list          # per-pair packet dicts
    beta: float
    epsilon: float
    rho: float
    tau_star: float
    solver: ev.SolverConfig
    experiment: dict

    @property
    def orders(self) -> list:
        return sorted({s.order for s in self.nonlinearity}) or [2]

    def canonical(self) -> dict:
        return json.loads(json.dumps(self.raw, sort_keys=True))


def _require(cond, msg):
    if not cond:
        raise ConfigError(msg)


def _solver_config(block: dict, **defaults) -> ev.SolverConfig:
    """SolverConfig from a config's "solver" block over ``defaults``."""
    try:
        return ev.SolverConfig(**{**defaults, **block})
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid solver block: {exc}") from exc


def _r_star(packet: dict) -> np.ndarray:
    """Position of a packet block, 0 when it gives none."""
    return np.atleast_1d(np.asarray(packet.get("r_star", 0.0), dtype=float))


def _config_grid(gspec: dict) -> Grid:
    """The grid of a config's "grid" block: ``n`` per axis, a power of two >= 4.

    A non-integral ``n`` or a ``k_max`` that is not finite and > 0 is a
    ConfigError.

    ``Grid`` also takes the 3-smooth sizes of convolution transform grids;
    a configured grid does not.
    """
    n, k_max = float(gspec["n"]), float(gspec["k_max"])
    _require(np.isfinite(n) and n == int(n), f"grid.n must be an integer, got {gspec['n']!r}")
    _require(np.isfinite(k_max) and k_max > 0, f"grid.k_max must be finite and > 0, got {k_max}")
    dim, n = int(gspec["dim"]), int(n)
    if n < 4 or n & (n - 1):
        raise ValueError("grid.n must be a power of two >= 4")
    return Grid(dim, (n,) * dim, (k_max,) * dim)


def load_config(cfg: dict) -> RunConfig:
    cfg = copy.deepcopy(cfg)
    _require(isinstance(cfg, dict), "config must be a mapping")
    model = dsp.model_from_config(cfg.get("model", {"preset": "nls1d"}))
    grid = _config_grid({**DEFAULT_GRID, **cfg.get("grid", {})})
    _require("spectrum" in cfg and cfg["spectrum"], "config needs a spectrum")
    spectrum = rs.spectrum_from_list(cfg["spectrum"], dim=grid.dim)
    nonlinearity = ev.nonlinearity_from_config(
        cfg.get("nonlinearity", {"preset": "none"}), j_bands=model.j_bands
    )
    beta = float(cfg.get("beta", 0.1))
    epsilon = float(cfg.get("epsilon", 0.1))
    rho = float(cfg.get("rho", 0.01))
    tau_star = float(cfg.get("tau_star", 0.5))
    _require(0 < beta < 1 and 0 < epsilon < 1, "beta and epsilon must lie in (0,1)")
    _require(0 < rho <= 1 and tau_star > 0, "rho in (0,1] and tau_star > 0 required")
    if not _dispersion_ok(beta, rho):
        warnings.warn(
            f"dispersion ratio beta^2/rho = {beta * beta / rho:.2f} exceeds 1",
            stacklevel=2,
        )
    packets = cfg.get("packets", [{}])
    if len(packets) == 1 and spectrum.n_pairs > 1:
        packets = [copy.deepcopy(packets[0]) for _ in range(spectrum.n_pairs)]
    _require(len(packets) == spectrum.n_pairs, "one packet block per spectrum pair")
    solver = _solver_config(cfg.get("solver", {}))
    r_extent = 2.0 * np.pi / max(grid.dk)
    for p in packets:
        if np.any(np.abs(_r_star(p)) > r_extent):
            warnings.warn("packet position exceeds the r-grid extent", stacklevel=2)
    # carriers must be regular and the packet scale must fit their safe radius
    pi0 = dsp.safe_radius(model, spectrum, grid)
    if np.sqrt(beta) > pi0:
        warnings.warn(
            f"sqrt(beta) = {np.sqrt(beta):.3g} exceeds the carrier-neighborhood "
            f"radius {pi0:.3g}",
            stacklevel=2,
        )
    return RunConfig(
        raw=cfg,
        model=model,
        grid=grid,
        spectrum=spectrum,
        nonlinearity=nonlinearity,
        packets=packets,
        beta=beta,
        epsilon=epsilon,
        rho=rho,
        tau_star=tau_star,
        solver=solver,
        experiment=dict(cfg.get("experiment", {})),
    )


def packet_spec(rc: RunConfig, l: int, beta: float | None = None) -> wp.WavepacketSpec:
    """Wavepacket spec of pair l (1-based) at an optional overriding beta."""
    p = rc.packets[l - 1]
    envd = dict(p.get("envelope", {}))
    env = wp.Envelope(
        family=envd.get("family", "gaussian"),
        width=float(envd.get("width", 1.0)),
        amplitude=float(envd.get("amplitude", 0.1)),
    )
    return wp.WavepacketSpec(
        n=rc.spectrum.band(l),
        k_star=rc.spectrum.kvec(l),
        r_star=_r_star(p),
        beta=beta if beta is not None else rc.beta,
        epsilon=rc.epsilon,
        envelope=env,
        zeta_components=p.get("zeta_components", "both"),
        doublet_reality=bool(p.get("doublet_reality", True)),
    )


def build_initial(rc: RunConfig, beta: float | None = None,
                  subset=None) -> tuple[ModalField, list]:
    """Sum of the configured packets (optionally a subset of pairs)."""
    pairs = subset or range(1, rc.spectrum.n_pairs + 1)
    total = np.zeros((rc.model.ncomp,) + rc.grid.shape, dtype=complex)
    specs = []
    for l in pairs:
        spec = packet_spec(rc, l, beta=beta)
        total += wp.build_wavepacket(spec, rc.model, rc.grid).values
        specs.append(spec)
    return ModalField(rc.grid, total, frame="slow"), specs


def build_problem(rc: RunConfig, initial: ModalField, rho: float | None = None,
                  tau_star: float | None = None) -> ev.EvolutionProblem:
    return ev.EvolutionProblem(
        model=rc.model,
        nonlinearity=rc.nonlinearity,
        rho=rho if rho is not None else rc.rho,
        tau_star=tau_star if tau_star is not None else rc.tau_star,
        grid=rc.grid,
        initial=initial,
    )


# -- results -------------------------------------------------------------------------

@dataclass
class ExperimentResult:
    experiment: str
    runs: list
    fits: dict
    thresholds: dict
    hypothesis: dict
    passed: bool | None
    provenance: dict

    def to_dict(self) -> dict:
        return {
            "experiment": self.experiment,
            "runs": self.runs,
            "fits": self.fits,
            "thresholds": self.thresholds,
            "hypothesis": self.hypothesis,
            "passed": self.passed,
            "provenance": self.provenance,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2, default=_json_default)


def _json_default(v):
    if isinstance(v, (np.floating,)):
        return float(v)
    if isinstance(v, (np.integer,)):
        return int(v)
    if isinstance(v, np.ndarray):
        return v.tolist()
    raise TypeError(f"not JSON serialisable: {type(v)}")


def _provenance(rc: RunConfig, seed: int) -> dict:
    return {"config_sha256": config_hash(rc.canonical()), "seed": int(seed),
            "version": __version__}


def loglog_fit(x, y) -> dict:
    """Least-squares slope/intercept of log(y) against log(x) plus residual."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if len(x) < 2 or np.any(y <= 0):
        return {"slope": float("nan"), "intercept": float("nan"), "residual": float("nan")}
    lx, ly = np.log(x), np.log(y)
    a = np.vstack([lx, np.ones_like(lx)]).T
    coef, *_ = np.linalg.lstsq(a, ly, rcond=None)
    resid = float(np.sqrt(np.mean((ly - a @ coef) ** 2)))
    return {"slope": float(coef[0]), "intercept": float(coef[1]), "residual": resid}


# -- shared diagnostics -----------------------------------------------------------------

def outside_mass(traj: ev.Trajectory, rc: RunConfig, beta: float,
                 radius_factor: float = 2.0) -> float:
    """Sup over kept times of the spectrum mass escaping all carrier windows."""
    layout = ia.ComponentLayout(rc.spectrum, rc.model, rc.grid, beta, rc.epsilon,
                                support_factor=radius_factor)
    return max(
        l1_norm_values(f.values - layout.carrier_part(f.values, layout.keys), rc.grid)
        for f in traj.fields
    )


def mass_series(traj: ev.Trajectory) -> np.ndarray:
    return np.array([
        float((np.abs(f.values) ** 2).sum() * f.grid.cell) for f in traj.fields
    ])


def _dispersion_ok(beta: float, rho: float) -> bool:
    """Whether the dispersion ratio beta^2/rho is at most 1, up to rounding."""
    return beta ** 2 / rho <= 1.0 + 1e-12


def _require_invariant(hyp: dict, exp: dict, force: bool) -> bool:
    """Whether the spectrum of ``hyp`` is resonance invariant; unless forced, it must be."""
    invariant = hyp["classification"] in rs.INVARIANT_CLASSES
    if not invariant and not (force or exp.get("force", False)):
        raise HypothesisViolated(
            f"spectrum classified {hyp['classification']}; pass force to proceed"
        )
    return invariant


def hypothesis_block(rc: RunConfig) -> dict:
    """Resonance class plus the scale constraint, recorded with every run."""
    report = rs.classify(rc.spectrum, rc.model, rc.orders)
    return {
        "classification": report.classification,
        "dispersion_ratio": rc.beta ** 2 / rc.rho,
        "dispersion_ok": _dispersion_ok(rc.beta, rc.rho),
    }


def _velocities(rc: RunConfig) -> list:
    return [
        np.atleast_1d(dsp.group_velocity(rc.model, rc.spectrum.band(l), +1, rc.spectrum.kvec(l)))
        for l in range(1, rc.spectrum.n_pairs + 1)
    ]


def check_velocity_hypothesis(rc: RunConfig) -> dict:
    """(NGVM) distinct group velocities, else the far-position fallback."""
    vels = _velocities(rc)
    n = len(vels)
    tol = rs.default_tol_gv(rc.model, rc.spectrum)
    equal_pairs = [
        (i + 1, j + 1)
        for i in range(n)
        for j in range(i + 1, n)
        if np.linalg.norm(vels[i] - vels[j]) <= tol
    ]
    out = {"distinct_velocities": not equal_pairs, "equal_pairs": equal_pairs,
           "far_positions_ok": True}
    if equal_pairs:
        bounds = dsp.neighborhood_bounds(rc.model, rc.spectrum, rc.grid)
        for (i, j) in equal_pairs:
            sep = float(np.linalg.norm(_r_star(rc.packets[i - 1]) - _r_star(rc.packets[j - 1])))
            rhs = rc.rho / (2.0 * bounds.c_omega2 * rc.beta ** (1.0 - rc.epsilon))
            if sep == 0.0 or rc.tau_star / sep > rhs:
                out["far_positions_ok"] = False
    out["ok"] = out["distinct_velocities"] or out["far_positions_ok"]
    return out


# -- experiments ---------------------------------------------------------------------------

def preservation_experiment(cfg: dict, force: bool = False) -> ExperimentResult:
    """Outside-mass of the evolved multiwavepacket across a (beta, rho) sweep."""
    rc = load_config(cfg)
    exp = rc.experiment
    seed = int(exp.get("seed", 0))
    hyp = hypothesis_block(rc)
    invariant = _require_invariant(hyp, exp, force)
    hyp["invariant"] = invariant
    pairs = exp.get("beta_rho_pairs") or [[rc.beta, rc.rho]]
    radius_factor = float(exp.get("cutoff_factor", 2.0))
    rows = []
    for b, r in pairs:
        initial, _ = build_initial(rc, beta=float(b))
        traj = ev.solve_integrated(build_problem(rc, initial, rho=float(r)), rc.solver)
        m = mass_series(traj)
        rows.append({
            "beta": float(b),
            "rho": float(r),
            "outside_mass": outside_mass(traj, rc, float(b), radius_factor),
            "initial_l1": l1_norm(initial),
            "final_l1": l1_norm(traj.fields[-1]),
            "picard_iterations": traj.iterations,
            "mass_drift": float((m.max() - m.min()) / m[0]) if m[0] else 0.0,
        })
    fits = {}
    thresholds = {"max_ratio": float(exp.get("max_ratio", 0.5))}
    passed = None
    if len(rows) >= 2 and rows[0]["outside_mass"] > 0:
        ratio = rows[-1]["outside_mass"] / rows[0]["outside_mass"]
        fits["decay_ratio"] = ratio
        passed = bool(ratio <= thresholds["max_ratio"])
    if not invariant:
        passed = None  # negative-control runs report values only
    return ExperimentResult(
        "preservation", rows, fits, thresholds, hyp, passed, _provenance(rc, seed)
    )


def superposition_experiment(cfg: dict, force: bool = False) -> ExperimentResult:
    """Defect between evolving the sum and summing the evolutions."""
    rc = load_config(cfg)
    exp = rc.experiment
    seed = int(exp.get("seed", 0))
    hyp = hypothesis_block(rc)
    vel = check_velocity_hypothesis(rc)
    hyp["velocities"] = vel
    forced = force or exp.get("force", False)
    if hyp["classification"] != "universally_invariant" and not forced:
        raise HypothesisViolated("spectrum is not universally resonance invariant")
    if not vel["ok"] and not forced:
        raise HypothesisViolated("neither distinct group velocities nor far positions hold")
    rho_values = [float(r) for r in exp.get("rho_values", [rc.rho])]
    n_pairs = rc.spectrum.n_pairs
    initial, _ = build_initial(rc)
    singles = [build_initial(rc, subset=[l])[0] for l in range(1, n_pairs + 1)]
    rows = []
    for r in rho_values:
        sum_traj = ev.solve_integrated(build_problem(rc, initial, rho=r), rc.solver)
        parts = [ev.solve_integrated(build_problem(rc, single, rho=r), rc.solver)
                 for single in singles]
        defect = 0.0
        for i in range(len(sum_traj.times)):
            diff = sum_traj.fields[i].values.copy()
            for t in parts:
                diff -= t.fields[i].values
            defect = max(defect, l1_norm_values(diff, rc.grid))
        rows.append({
            "beta": rc.beta,
            "rho": r,
            "defect": defect,
            "sum_l1": sum_traj.sup_l1(),
            "picard_iterations": sum_traj.iterations,
        })
    fits = {}
    thresholds = {
        "slope_min": float(exp.get("slope_min", 0.8)),
        "slope_max": float(exp.get("slope_max", 1.2)),
        "max_residual": float(exp.get("max_residual", 0.1)),
    }
    passed = None
    if n_pairs == 1:
        passed = bool(max(r["defect"] for r in rows) == 0.0)
        fits["max_defect"] = max(r["defect"] for r in rows)
    elif len(rows) >= 3:
        fit = loglog_fit([r["rho"] for r in rows], [r["defect"] for r in rows])
        fits["rho_scaling"] = fit
        passed = bool(
            thresholds["slope_min"] <= fit["slope"] <= thresholds["slope_max"]
            and fit["residual"] <= thresholds["max_residual"]
        )
    return ExperimentResult(
        "superposition", rows, fits, thresholds, hyp, passed, _provenance(rc, seed)
    )


def position_tracking_experiment(cfg: dict, force: bool = False) -> ExperimentResult:
    """Track packet positions through the run and compare with straight lines."""
    rc = load_config(cfg)
    exp = rc.experiment
    seed = int(exp.get("seed", 0))
    n_track = int(exp.get("n_track_times", 9))
    _require(n_track > 0, f"experiment.n_track_times must be > 0, got {n_track}")
    hyp = hypothesis_block(rc)
    _require_invariant(hyp, exp, force)
    initial, specs = build_initial(rc)
    traj = ev.solve_integrated(build_problem(rc, initial), rc.solver)
    beta, eps = rc.beta, rc.epsilon
    scan_step = (1.0 / beta) / 4.0
    halfwidth = float(exp.get("box_halfwidth", 6.0 * beta ** (-1.0 - eps)))
    idxs = np.unique(np.linspace(0, len(traj.times) - 1, n_track).astype(int))
    layout = ia.ComponentLayout(rc.spectrum, rc.model, rc.grid, beta, eps)

    def track(field: ModalField, l: int) -> ModalField:
        return ModalField(rc.grid, layout.carrier_part(field.values, [(l, +1)]), frame=field.frame)

    # baseline detection level of each fresh packet at its own position
    thresholds_a = {}
    for l, spec in enumerate(specs, start=1):
        single = wp.build_wavepacket(spec, rc.model, rc.grid)
        comp = track(single, l)
        a0 = wp.position_detection(comp, spec.r_star)
        thresholds_a[l] = float(exp.get("threshold_factor", 2.0)) * a0 * beta ** (-eps)

    vels = _velocities(rc)
    rows = []
    final_fixes = {}
    slow_comps = {l: [] for l in range(1, len(specs) + 1)}  # per packet, over kept times
    for i in idxs:
        tau = traj.times[i]
        fast = traj.fast_field(i)
        slow = traj.fields[i]
        for l, spec in enumerate(specs, start=1):
            expected = spec.r_star + (tau / rc.rho) * vels[l - 1]
            comp = track(fast, l)
            box = [(expected[a] - halfwidth, expected[a] + halfwidth) for a in range(rc.grid.dim)]
            fix = wp.locate_position(comp, thresholds_a[l], box, scan_step)
            comp_slow = track(slow, l)
            slow_comps[l].append(comp_slow)
            box0 = [(spec.r_star[a] - halfwidth, spec.r_star[a] + halfwidth) for a in range(rc.grid.dim)]
            fix_slow = wp.locate_position(comp_slow, thresholds_a[l], box0, scan_step)
            rows.append({
                "tau": float(tau),
                "packet": l,
                "position": float(fix.position[0]) if rc.grid.dim == 1 else list(fix.position),
                "expected": float(expected[0]) if rc.grid.dim == 1 else list(expected),
                "y_deviation": float(rc.rho * np.linalg.norm(fix.position - expected)),
                "diameter": fix.diameter,
                "n_components": fix.n_components,
                "slow_drift": float(np.linalg.norm(fix_slow.position - spec.r_star)),
            })
            if i == idxs[-1]:
                final_fixes[l] = fix

    # particle norm of the slow carrier components over kept times
    samples = [wp.FieldSamples.of_fields(slow_comps[l], layout.mask[(l, +1)]) for l in slow_comps]
    norms = wp.particle_norm(samples, [spec.r_star for spec in specs], beta, eps)
    particle_ratio = float(max(norms) / norms[0]) if norms[0] else float("nan")

    dev_limit = float(exp.get("max_y_deviation", 5.0 * beta ** (1.0 - eps)))
    diam_limit = float(exp.get("max_diameter", 10.0 * beta ** (-1.0 - eps)))
    max_dev = max(r["y_deviation"] for r in rows)
    max_final_diam = max(f.diameter for f in final_fixes.values())
    disjoint = True
    if rc.grid.dim == 1 and len(final_fixes) > 1:
        spans = sorted(
            (f.position[0] - f.diameter / 2, f.position[0] + f.diameter / 2)
            for f in final_fixes.values()
        )
        disjoint = all(spans[i][1] < spans[i + 1][0] for i in range(len(spans) - 1))
    split = any(r["n_components"] > 1 for r in rows)
    slow_limit = 1.0 / beta
    slow_ok = max(r["slow_drift"] for r in rows) <= slow_limit
    fits = {
        "max_y_deviation": max_dev,
        "max_final_diameter": max_final_diam,
        "disjoint_final": disjoint,
        "sublevel_split": split,
        "particle_norm_ratio": particle_ratio,
        "max_slow_drift": max(r["slow_drift"] for r in rows),
    }
    thresholds = {
        "max_y_deviation": dev_limit,
        "max_diameter": diam_limit,
        "max_slow_drift": slow_limit,
    }
    passed = bool(
        max_dev <= dev_limit and max_final_diam <= diam_limit and disjoint
        and not split and slow_ok
    )
    return ExperimentResult(
        "positions", rows, fits, thresholds, hyp, passed, _provenance(rc, seed)
    )


def soliton_experiment(cfg: dict, force: bool = False) -> ExperimentResult:
    """Standing-profile benchmark of the cubic one-dimensional preset."""
    cfg = copy.deepcopy(cfg)
    exp = dict(cfg.get("experiment", {}))
    seed = int(exp.get("seed", 0))
    a2 = float(exp.get("a2", cfg.get("model", {}).get("params", {}).get("a2", 1.0)))
    a0 = float(exp.get("a0", cfg.get("model", {}).get("params", {}).get("a0", 0.0)))
    q = float(exp.get("q", cfg.get("nonlinearity", {}).get("q", 1.0)))
    b = float(exp.get("b", 0.5))
    rho = float(cfg.get("rho", 0.05))
    tau_star = float(cfg.get("tau_star", 0.5))
    grid = _config_grid({"n": 4096, "k_max": 3.0, **cfg.get("grid", {}), "dim": 1})
    model = dsp.model_from_config({"preset": "nls1d", "params": {"a2": a2, "a0": a0}})

    x = grid.r_axis()
    x0 = float(exp.get("x0", x[len(x) // 2]))
    rows = []
    fits: dict = {}
    hyp = {"q": q, "rho": rho}
    if q != 0.0:
        c2 = a2 / (rho * q)
        if c2 <= 0:
            raise ParameterSignError(f"c^2 = a2/(rho q) = {c2:.3g} must be positive")
        c = float(np.sqrt(c2))
        profile = np.sqrt(2.0) * b / np.cosh(b * (x - x0) / c)
        hyp["c"] = c
    else:
        width = float(exp.get("control_width", 6.0))
        profile = 0.5 * np.exp(-0.5 * ((x - x0) / width) ** 2)
        c = None

    prof_hat = samples_to_spectrum(profile.astype(complex), grid)
    if q != 0.0:
        k = grid.k_axis()
        second = spectrum_to_samples(-(k ** 2) * prof_hat, grid).real
        residual = -b * b * profile + c * c * second + profile ** 3
        fits["residual_rel"] = float(np.abs(residual).max() / np.abs(profile ** 3).max())

    vals = np.zeros((2,) + grid.shape, dtype=complex)
    vals[0] = prof_hat
    vals[1] = samples_to_spectrum(np.conj(profile.astype(complex)), grid)
    initial = ModalField(grid, vals)
    nl = [ev.cubic_conjugate(q)] if q != 0.0 else []
    problem = ev.EvolutionProblem(model, nl, rho, tau_star, grid, initial)
    solver = _solver_config(cfg.get("solver", {}), substeps_per_rho=20, picard_max_iter=96)
    traj = ev.solve_integrated(problem, solver)

    u0 = to_r_space(traj.fast_field(0))[0]
    ut = to_r_space(traj.fast_field(len(traj.times) - 1))[0]
    drift = float(np.abs(np.abs(ut) - np.abs(u0)).max() / np.abs(u0).max())
    fits["modulus_drift_rel"] = drift
    ipk = int(np.argmax(np.abs(u0)))
    phases = []
    for i in range(len(traj.times)):
        phases.append(np.angle(to_r_space(traj.fast_field(i))[0][ipk]))
    phases = np.unwrap(np.array(phases))
    rate = float(np.polyfit(traj.times, phases, 1)[0]) if len(phases) > 2 else float("nan")
    phi1 = a0 - b * b * rho * q
    fits["phase_rate"] = rate
    fits["phase_rate_predicted"] = -phi1 / rho
    rows.append({
        "rho": rho,
        "q": q,
        "b": b,
        "residual_rel": fits.get("residual_rel", float("nan")),
        "modulus_drift_rel": drift,
        "phase_rate": rate,
        "picard_iterations": traj.iterations,
    })
    thresholds = {
        "max_residual_rel": float(exp.get("max_residual_rel", 1e-8)),
        "max_modulus_drift": float(exp.get("max_modulus_drift", 1e-3)),
    }
    if q != 0.0:
        passed = bool(
            fits["residual_rel"] <= thresholds["max_residual_rel"]
            and drift <= thresholds["max_modulus_drift"]
        )
    else:
        passed = None  # linear negative control: values reported only
    rc_hashable = {"soliton": cfg}
    return ExperimentResult(
        "soliton", rows, fits, thresholds, hyp, passed,
        {"config_sha256": config_hash(rc_hashable), "seed": seed, "version": __version__},
    )


def averaging_experiment(cfg: dict, force: bool = False) -> ExperimentResult:
    """Averaged-system fidelity and coupling size across a rho sweep."""
    rc = load_config(cfg)
    exp = rc.experiment
    seed = int(exp.get("seed", 0))
    hyp = hypothesis_block(rc)
    _require_invariant(hyp, exp, force)
    rho_values = [float(r) for r in exp.get("rho_values", [rc.rho])]
    sets = ia.build_index_sets(rc.spectrum, rc.model, rc.orders)
    initial, specs = build_initial(rc)
    rows = []
    for r in rho_values:
        problem = build_problem(rc, initial, rho=r)
        w = ia.solve_interaction_system(problem, rc.spectrum, rc.solver,
                                        beta=rc.beta, epsilon=rc.epsilon)
        v = ia.solve_averaged_system(problem, rc.spectrum, sets, rc.solver,
                                     beta=rc.beta, epsilon=rc.epsilon)
        coupling = ia.coupling_norm(v, sets)
        # particle norm along the averaged trajectory, kept samples; one
        # component's samples are held at a time
        comps = (v.component_samples(l, theta, v.sample_indices)
                 for l in range(1, len(specs) + 1) for theta in (+1, -1))
        positions = [spec.r_star for spec in specs for _ in (+1, -1)]
        norms = wp.particle_norm(comps, positions, rc.beta, rc.epsilon)
        rows.append({
            "beta": rc.beta,
            "rho": r,
            "vw_distance": ia.interaction_distance(v, w),
            "coupling_norm": coupling,
            "particle_norm_ratio": float(max(norms) / norms[0]) if norms[0] else float("nan"),
            "interaction_iterations": w.iterations,
            "averaged_iterations": v.iterations,
        })
    fits = {}
    thresholds = {
        "max_vw_ratio": float(exp.get("max_vw_ratio", 0.6)),
        "slope_min": float(exp.get("slope_min", 0.8)),
        "slope_max": float(exp.get("slope_max", 1.2)),
    }
    passed = None
    if len(rows) >= 2:
        ratios = [
            rows[i + 1]["vw_distance"] / rows[i]["vw_distance"]
            for i in range(len(rows) - 1)
            if rows[i]["vw_distance"] > 0
        ]
        fits["vw_ratios"] = ratios
        ok_vw = all(rat <= thresholds["max_vw_ratio"] for rat in ratios) if ratios else False
        fit = loglog_fit([r["rho"] for r in rows], [r["coupling_norm"] for r in rows])
        fits["coupling_scaling"] = fit
        ok_cpl = thresholds["slope_min"] <= fit["slope"] <= thresholds["slope_max"]
        passed = bool(ok_vw and ok_cpl)
    return ExperimentResult(
        "averaging", rows, fits, thresholds, hyp, passed, _provenance(rc, seed)
    )


EXPERIMENTS = {
    "preservation": preservation_experiment,
    "superposition": superposition_experiment,
    "positions": position_tracking_experiment,
    "soliton": soliton_experiment,
    "averaging": averaging_experiment,
}


# -- sweeps ---------------------------------------------------------------------------------

def _set_path(cfg: dict, path: str, value):
    keys = path.split(".")
    node = cfg
    for k in keys[:-1]:
        node = node.setdefault(k, {})
    node[keys[-1]] = value


def _sweep_one(args):
    name, cfg, force = args
    try:
        result = EXPERIMENTS[name](cfg, force=force)
    except WavepaxError as exc:  # per-run failures recorded, sweep continues
        kind = type(exc).__name__
        return {"status": "error", "error": f"{kind}: {exc}", "error_type": kind}
    return {"status": "ok", "result": result.to_dict()}


def sweep(cfg: dict, force: bool = False, workers: int = 1) -> ExperimentResult:
    """Run the named experiment over a Cartesian parameter grid."""
    cfg = copy.deepcopy(cfg)
    exp = cfg.get("experiment", {})
    name = exp.get("name")
    if name not in EXPERIMENTS:
        raise ConfigError(f"sweep needs experiment.name in {sorted(EXPERIMENTS)}")
    grids = exp.get("sweep", {})
    keys = sorted(grids.keys())
    values = [grids[k] for k in keys]
    combos = list(itertools.product(*values)) if keys else [()]
    jobs = []
    for combo in combos:
        sub = copy.deepcopy(cfg)
        sub["experiment"].pop("sweep", None)
        sub["experiment"].pop("name", None)
        for k, v in zip(keys, combo):
            _set_path(sub, k, v)
        jobs.append((name, sub, force))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # only sweeps pay its import

        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(_sweep_one, jobs))
    else:
        outcomes = [_sweep_one(j) for j in jobs]
    rows = []
    n_failed = 0
    for idx, (combo, outcome) in enumerate(zip(combos, outcomes)):
        row = {"run_index": idx}
        row.update({k: v for k, v in zip(keys, combo)})
        row["status"] = outcome["status"]
        if outcome["status"] == "ok":
            row["passed"] = outcome["result"]["passed"]
            rows.append({**row, "result": outcome["result"]})
        else:
            n_failed += 1
            rows.append({**row, "error": outcome["error"], "error_type": outcome["error_type"]})
    passed = bool(
        n_failed == 0
        and all(r.get("passed") in (True, None) for r in rows)
    )
    seed = int(exp.get("seed", 0))
    return ExperimentResult(
        f"sweep:{name}", rows, {"n_runs": len(rows), "n_failed": n_failed}, {}, {},
        passed, {"config_sha256": config_hash(cfg), "seed": seed, "version": __version__},
    )


def flat_metric_rows(result: ExperimentResult) -> list:
    """Rows suitable for metrics.csv (nested result blocks removed)."""
    rows = []
    for r in result.runs:
        rows.append({k: v for k, v in r.items() if not isinstance(v, (dict, list))})
    return rows


__all__ = [
    "RunConfig",
    "load_config",
    "packet_spec",
    "build_initial",
    "build_problem",
    "ExperimentResult",
    "loglog_fit",
    "outside_mass",
    "hypothesis_block",
    "check_velocity_hypothesis",
    "preservation_experiment",
    "superposition_experiment",
    "position_tracking_experiment",
    "soliton_experiment",
    "averaging_experiment",
    "EXPERIMENTS",
    "sweep",
    "flat_metric_rows",
]
