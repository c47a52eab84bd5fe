"""Command line interface.

Subcommands:
  wavepax resonance analyze --config cfg.json [--probe N] [--out file]
  wavepax simulate --config run.json --out dir/
  wavepax experiment NAME --config run.json --out dir/ [--seed N] [--workers N] [--force]

Exit codes: 0 pass, 1 threshold fail, 2 hypothesis violation, 3 runtime error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import dispersion as dsp
from . import evolution as ev
from . import harness
from . import interaction as ia
from . import resonance as rs
from .errors import HypothesisViolated, WavepaxError
from .grids import l1_norm, l1_norm_values, linf_r_norm
from .io import write_field, write_metrics_csv


def _load_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _report_table(report: rs.ResonanceReport) -> str:
    lines = []
    lines.append(f"classification : {report.classification}")
    lines.append(
        f"pairs          : {[[n] + [round(float(v), 6) for v in k] for n, k in report.spectrum.pairs]}"
    )
    lines.append(
        f"selected R(S)  : {[[n] + [round(float(v), 6) for v in k] for n, k in report.selected.pairs]}"
    )
    lines.append(
        f"solutions      : {len(report.solutions)} total, "
        f"{len(report.internal)} internal, {len(report.universal)} universal, "
        f"{len(report.skipped)} skipped at singular outputs"
    )
    if report.conditions:
        lines.append(f"conditions     : {[list(c) for c in report.conditions]}")
    if report.closure_iterations is not None:
        lines.append(f"closure        : fixed point after {report.closure_iterations} iteration(s)")
    lines.append("  m  zeta band index                         class      |residual|")
    for s in report.solutions:
        entries = str(list(s.index.entries))
        lines.append(
            f"  {s.m}  {s.zeta:+d}   {s.n}   {entries:<28} {s.klass:<10} {s.omega_residual:.2e}"
        )
    return "\n".join(lines)


def cmd_resonance(args) -> int:
    cfg = _load_json(args.config)
    model = dsp.model_from_config(cfg["model"])
    spectrum = rs.spectrum_from_list(cfg["spectrum"])
    orders = [int(m) for m in cfg.get("orders", [3])]
    report = rs.classify(spectrum, model, orders, exact=bool(cfg.get("exact", False)))
    payload = report.to_dict()
    if args.probe:
        radius = float(cfg.get("probe_radius", 0.05))
        payload["genericity_probe"] = {
            "trials": args.probe,
            "radius": radius,
            "fraction_universal": rs.genericity_probe(
                spectrum, model, orders, trials=args.probe, radius=radius,
                seed=int(cfg.get("seed", 0)),
            ),
        }
    text = json.dumps(payload, indent=2, sort_keys=True, default=str)
    if args.out:
        Path(args.out).write_text(text + "\n", encoding="utf-8")
    else:
        print(text)
    print(_report_table(report), file=sys.stderr)
    return 0


def cmd_simulate(args) -> int:
    cfg = _load_json(args.config)
    rc = harness.load_config(cfg)
    initial, specs = harness.build_initial(rc)
    problem = harness.build_problem(rc, initial)
    traj = ev.solve_integrated(problem, rc.solver)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    layout = ia.ComponentLayout(rc.spectrum, rc.model, rc.grid, rc.beta, rc.epsilon)
    rows = []
    for i, tau in enumerate(traj.times):
        f = traj.fields[i]
        write_field(out / f"snapshot_{i:05d}.wpx", f)
        row = {
            "tau": float(tau),
            "l1_norm": l1_norm(f),
            "linf_norm": linf_r_norm(f),
        }
        for l in range(1, rc.spectrum.n_pairs + 1):
            mass = 0.0
            for theta in (+1, -1):
                mass += l1_norm_values(layout.carrier_part(f.values, [(l, theta)]), rc.grid)
            row[f"mass_packet_{l}"] = mass
        rows.append(row)
    if any(s.hamiltonian for s in rc.nonlinearity):
        m = harness.mass_series(traj)
        for i, row in enumerate(rows):
            row["quadratic_mass"] = float(m[i])
    write_metrics_csv(out / "metrics.csv", rows)
    print(f"wrote {len(rows)} snapshots to {out}")
    return 0


def cmd_experiment(args) -> int:
    cfg = _load_json(args.config)
    cfg.setdefault("experiment", {})
    if args.seed is not None:
        cfg["experiment"]["seed"] = int(args.seed)
    if args.name == "sweep" or "sweep" in cfg["experiment"]:
        cfg["experiment"].setdefault("name", args.name if args.name != "sweep" else None)
        result = harness.sweep(cfg, force=args.force, workers=args.workers)
    else:
        if args.name not in harness.EXPERIMENTS:
            print(f"unknown experiment {args.name!r}", file=sys.stderr)
            return 3
        result = harness.EXPERIMENTS[args.name](cfg, force=args.force)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "result.json").write_text(result.to_json() + "\n", encoding="utf-8")
    write_metrics_csv(out / "metrics.csv", harness.flat_metric_rows(result))
    verdict = {True: "PASS", False: "FAIL", None: "REPORTED"}[result.passed]
    print(f"{result.experiment}: {verdict}  ({len(result.runs)} runs) -> {out}")
    return 0 if result.passed in (True, None) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="wavepax", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_res = sub.add_parser("resonance", help="spectrum classification")
    res_sub = p_res.add_subparsers(dest="action", required=True)
    p_an = res_sub.add_parser("analyze", help="classify a spectrum")
    p_an.add_argument("--config", required=True)
    p_an.add_argument("--probe", type=int, default=0, metavar="N")
    p_an.add_argument("--out")
    p_an.set_defaults(func=cmd_resonance)

    p_sim = sub.add_parser("simulate", help="run the solver and dump snapshots")
    p_sim.add_argument("--config", required=True)
    p_sim.add_argument("--out", required=True)
    p_sim.set_defaults(func=cmd_simulate)

    p_exp = sub.add_parser("experiment", help="run a named experiment")
    p_exp.add_argument("name", choices=sorted(harness.EXPERIMENTS) + ["sweep"])
    p_exp.add_argument("--config", required=True)
    p_exp.add_argument("--out", required=True)
    p_exp.add_argument("--seed", type=int, default=None)
    p_exp.add_argument("--workers", type=int, default=1)
    p_exp.add_argument("--force", action="store_true")
    p_exp.set_defaults(func=cmd_experiment)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except HypothesisViolated as exc:
        print(f"hypothesis violation: {exc}", file=sys.stderr)
        return 2
    except (WavepaxError, OSError, KeyError, ValueError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
