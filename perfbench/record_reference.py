"""Record the seed-0 reference outputs that run.py checks operations against.

    python3 perfbench/record_reference.py

Runs each workload's operation once at seed 0 and writes reference.json.
Record it only from a commit whose outputs are trusted; a change that moves
these values must say so.
"""

import contextlib
import json
import os
import sys
import warnings
from pathlib import Path

import instrument
import workloads

HERE = Path(__file__).resolve().parent
REL_TOL = 1e-8
ABS_TOL = 1e-14


def main():
    sys.path.insert(0, str(HERE.parent / "src"))
    import wavepax.cli  # noqa: F401

    warnings.simplefilter("ignore")
    refs = {}
    for name in workloads.WORKLOADS:
        op = workloads.Operation(name, workloads.make_inputs(name, 0), HERE / "out" / "reference")
        op.prepare()
        rec = instrument.Recorder()
        rec.begin(0, timed=False)
        try:
            with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink), \
                    contextlib.redirect_stderr(sink):
                result = op()
        finally:
            rec.end()
        obs = op.observe(result, rec.solves)
        problems = op.check(obs, None, REL_TOL, ABS_TOL)
        if problems:
            raise SystemExit(f"{name}: {problems}")
        obs.pop("exit_code", None)
        refs[name] = obs
        print(name, json.dumps(obs)[:160], file=sys.stderr)
    doc = {"rel_tol": REL_TOL, "abs_tol": ABS_TOL, "workloads": refs}
    (HERE / "reference.json").write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
