"""Seeded inputs, operations and output checks of the benchmark workloads.

Seed 0 gives the base inputs below unchanged.  Any other seed perturbs them
within ``RANGES``.  The ranges keep each experiment's hypotheses true: the
carrier sets stay resonance invariant, the packets stay well inside one
r-domain transit, and beta and rho are never perturbed, so beta^2/rho is
that of seed 0.  The amplitude range is narrow enough that every solve takes
the Picard iteration count of seed 0.  So a seed changes the data but not
the amount of work.

The program receives only the generated config dicts; wavepax is imported
inside the functions so that the set-up probe can time that import.
"""

from __future__ import annotations

import copy
import csv
import json
import math
import random
import shutil
from pathlib import Path

NLS = {"preset": "nls1d", "params": {"a2": 1.0, "a0": 1.0}}
GAUSSIAN = {"family": "gaussian", "width": 1.0, "amplitude": 0.12}

# The averaging config's geometry: nls1d, carriers +-1, cubic_full.
_AVERAGING_GEOMETRY = {
    "model": NLS,
    "grid": {"n": 2048, "k_max": 4.0},
    "spectrum": [[1, 1.0], [1, -1.0]],
    "nonlinearity": {"preset": "cubic_full", "q": 1.0},
    "packets": [{"envelope": GAUSSIAN}],
    "beta": 0.1,
    "epsilon": 0.1,
    "tau_star": 0.25,
    "solver": {"picard_tol": 3e-10},
}

BASE = {
    "simulate": {**_AVERAGING_GEOMETRY, "rho": 0.002},
    "averaging": {
        **_AVERAGING_GEOMETRY,
        "rho": 0.004,
        "experiment": {"rho_values": [0.004], "seed": 0},
    },
    "positions": {
        "model": NLS,
        "grid": {"n": 1024, "k_max": 4.0},
        "spectrum": [[1, 1.0], [1, -1.0]],
        "nonlinearity": {"preset": "cubic_conjugate", "q": 1.0},
        "packets": [
            {"envelope": GAUSSIAN, "r_star": -25.0},
            {"envelope": GAUSSIAN, "r_star": 25.0},
        ],
        "beta": 0.1,
        "epsilon": 0.1,
        "rho": 0.01,
        "tau_star": 0.5,
        "experiment": {"n_track_times": 9, "seed": 0},
    },
    "resonance": {
        "model": NLS,
        "spectrum": [[1, 1.0], [1, -1.0], [1, 0.37]],
        "orders": [2, 3],
        "probe_radius": 0.05,
        "seed": 0,
    },
}
PROBE_TRIALS = 100

RANGES = {
    # every packet amplitude is multiplied by a factor drawn from this range
    "amplitude_factor": [0.97, 1.03],
    # simulate and averaging: one shift of the packet position r_star
    "r_star_shift": [-20.0, 20.0],
    # positions: an independent shift of each packet's r_star
    "positions_r_star_shift": [-5.0, 5.0],
    # resonance: an independent shift of each carrier wavevector
    "carrier_shift": [-0.05, 0.05],
    # resonance: the genericity probe's seed
    "probe_seed": [1, 2**31 - 1],
}

# Reduced sizes for the smoke test; never used by a measured run.
SMALL = {
    "simulate": {"grid": {"n": 512, "k_max": 4.0}, "rho": 0.02},
    "averaging": {"grid": {"n": 512, "k_max": 4.0}, "rho": 0.02,
                  "experiment": {"rho_values": [0.02], "seed": 0}},
    "positions": {"grid": {"n": 512, "k_max": 4.0}, "rho": 0.02},
    "resonance": {},
}
SMALL_PROBE_TRIALS = 5

WORKLOADS = tuple(BASE)


def make_inputs(workload: str, seed: int, small: bool = False) -> dict:
    """Config dict (and probe trials) of one workload at one seed."""
    cfg = copy.deepcopy(BASE[workload])
    if small:
        cfg.update(copy.deepcopy(SMALL[workload]))
    trials = SMALL_PROBE_TRIALS if small else PROBE_TRIALS
    if seed != 0:
        rng = random.Random(seed)

        def draw(key):
            return rng.uniform(*RANGES[key])

        if workload == "resonance":
            cfg["spectrum"] = [[n, k + draw("carrier_shift")] for n, k in cfg["spectrum"]]
            cfg["seed"] = rng.randint(*RANGES["probe_seed"])
        else:
            shift = draw("r_star_shift")
            for p in cfg["packets"]:
                p["envelope"]["amplitude"] *= draw("amplitude_factor")
                if workload == "positions":
                    p["r_star"] += draw("positions_r_star_shift")
                else:
                    p["r_star"] = shift
    return {"config": cfg, "probe_trials": trials}


def set_up(workload: str, inputs: dict):
    """What a user pays before the first operation: import, config, packet."""
    import wavepax  # noqa: F401
    from wavepax import dispersion, harness, resonance

    cfg = inputs["config"]
    if workload == "resonance":
        dispersion.model_from_config(cfg["model"])
        resonance.spectrum_from_list(cfg["spectrum"])
    else:
        harness.build_initial(harness.load_config(cfg))


class Operation:
    """One workload's repeated operation, its files and its output checks."""

    def __init__(self, workload: str, inputs: dict, workdir: Path):
        self.workload = workload
        self.inputs = inputs
        self.workdir = workdir
        self.out = workdir / "out"
        workdir.mkdir(parents=True, exist_ok=True)
        self.config_path = workdir / "config.json"
        self.config_path.write_text(json.dumps(inputs["config"]), encoding="utf-8")

    def prepare(self):
        """Untimed: clear the previous operation's output."""
        shutil.rmtree(self.out, ignore_errors=True)

    def __call__(self):
        """Timed: the operation itself."""
        from wavepax import cli, harness

        cfg = self.inputs["config"]  # load_config copies it
        if self.workload == "simulate":
            return cli.main(["simulate", "--config", str(self.config_path), "--out", str(self.out)])
        if self.workload == "averaging":
            return harness.averaging_experiment(cfg)
        if self.workload == "positions":
            return harness.position_tracking_experiment(cfg)
        self.out.mkdir()
        return cli.main([
            "resonance", "analyze", "--probe", str(self.inputs["probe_trials"]),
            "--config", str(self.config_path), "--out", str(self.out / "report.json"),
        ])

    def observe(self, result, solves) -> dict:
        """Untimed: the values the checks look at."""
        obs = {}
        for name, sol in solves:
            key = name.rpartition(".")[2]
            obs[f"{key}.iterations"] = sol.iterations
            obs[f"{key}.distances"] = [float(d) for d in sol.distances]
        if self.workload == "simulate":
            from wavepax.grids import l1_norm
            from wavepax.io import read_field

            snaps = sorted(self.out.glob("snapshot_*.wpx"))
            with open(self.out / "metrics.csv", newline="", encoding="utf-8") as fh:
                rows = list(csv.DictReader(fh))
            obs.update({
                "exit_code": result,
                "snapshots": len(snaps),
                "metrics_rows": len(rows),
                "final_l1": l1_norm(read_field(snaps[-1])),
                "final_linf": float(rows[-1]["linf_norm"]),
                "final_mass_packet_1": float(rows[-1]["mass_packet_1"]),
            })
        elif self.workload == "averaging":
            row = result.runs[0]
            for key in ("vw_distance", "coupling_norm", "particle_norm_ratio",
                        "interaction_iterations", "averaged_iterations"):
                obs[key] = row[key]
        elif self.workload == "positions":
            obs["passed"] = result.passed
            obs["positions"] = [r["position"] for r in result.runs]
            obs["particle_norm_ratio"] = result.fits["particle_norm_ratio"]
        else:
            report = json.loads((self.out / "report.json").read_text(encoding="utf-8"))
            obs.update({
                "exit_code": result,
                "classification": report["classification"],
                "n_solutions": report["n_solutions"],
                "n_internal": report["n_internal"],
                "n_universal": report["n_universal"],
                "fraction_universal": report["genericity_probe"]["fraction_universal"],
            })
        return obs

    def check(self, obs: dict, reference: dict | None, rel_tol: float, abs_tol: float) -> list:
        """Problems found in one operation's observations; empty when it passed."""
        problems = []
        if obs.get("exit_code", 0) != 0:
            problems.append(f"exit code {obs['exit_code']}")
        bad = [k for k, v in obs.items() if not _finite(v)]
        if bad:
            problems.append(f"non-finite values in {bad}")
        if not any(k.endswith(".iterations") for k in obs) and self.workload != "resonance":
            problems.append("no Picard solve recorded")
        if self.workload == "simulate" and not obs["snapshots"] == obs["metrics_rows"] > 0:
            problems.append("snapshot files and metrics rows disagree")
        if self.workload == "positions" and obs["passed"] is not True:
            problems.append("position tracking verdict is not passed")
        if self.workload == "resonance" and obs["classification"] != "universally_invariant":
            problems.append(f"carrier set classified {obs['classification']}")
        if reference is not None:
            for key, want in reference.items():
                got = obs.get(key)
                if not _matches(got, want, rel_tol, abs_tol):
                    problems.append(f"{key}: got {got!r}, reference {want!r}")
        return problems


def _finite(v) -> bool:
    if isinstance(v, float):
        return math.isfinite(v)
    if isinstance(v, list):
        return all(_finite(x) for x in v)
    return True


def _matches(got, want, rel_tol: float, abs_tol: float) -> bool:
    """Integers, strings and flags exactly; floats within the tolerances."""
    if isinstance(want, list):
        return (isinstance(got, list) and len(got) == len(want)
                and all(_matches(g, w, rel_tol, abs_tol) for g, w in zip(got, want)))
    if isinstance(want, float):
        return isinstance(got, (int, float)) and math.isclose(got, want, rel_tol=rel_tol,
                                                               abs_tol=abs_tol)
    return got == want
