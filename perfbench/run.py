"""wavepax benchmark: one workload, closed loop, for a fixed time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from anywhere; it imports wavepax from the ``src`` directory next to
this one.  One caller runs the workload's operation again and again, each
start waiting for the previous return, until S seconds have passed, and
checks every operation's output.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``, the
end-to-end metrics of BENCHMARK.json with ``--trace 0`` and its per-layer
metrics with ``--trace 1``.  The lines before it give the environment, each
operation's times and the computed counts.

With ``--trace 1`` operations alternate between untraced and traced, at
least three of them.  Traced operations record a span around every probed
function (see instrument.py); per-layer values are means per traced
operation, and the tracing overhead is the traced minus the untraced median
wall time, leaving out the first, cold operation.  End-to-end metrics come
only from ``--trace 0`` runs.  ``--small`` runs reduced inputs for the smoke
test.
"""

import os

# One process generates the load; BLAS/OpenMP pools stay at one thread.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402

import instrument  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_PROBES = 7
SMALL_SETUP_PROBES = 3


def measure_setup(workload: str, seed: int, small: bool) -> float:
    """Median set-up seconds over fresh interpreters."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    cmd = [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)]
    if small:
        cmd.append("--small")
    times = []
    for _ in range(SMALL_SETUP_PROBES if small else SETUP_PROBES):
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=120, check=True)
        times.append(float(proc.stdout.split()[-1]))
    return statistics.median(times)


def environment(args) -> dict:
    import numpy as np

    fft = "pocketfft (numpy.fft)" if hasattr(np.fft, "_pocketfft_umath") else np.fft.__name__
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "fft_backend": fft,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "small": args.small,
    }


def run_operation(op, rec, i: int, timed: bool, sink):
    """Operation i, closed loop: (wall s, CPU s, result, error text or None)."""
    op.prepare()
    rec.begin(i, timed)
    result, error = None, None
    w0, c0 = time.perf_counter(), time.process_time()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            result = op()
    except Exception as exc:  # a failed operation is counted, the loop goes on
        error = f"{type(exc).__name__}: {exc}"
    finally:
        wall, cpu = time.perf_counter() - w0, time.process_time() - c0
        rec.end()
    return wall, cpu, result, error


def output_problems(op, rec, result, error, reference, tol) -> list:
    if error is not None:
        return [error]
    try:
        return op.check(op.observe(result, rec.solves), reference, *tol)
    except Exception as exc:  # unreadable output fails the operation
        return [f"output unreadable: {type(exc).__name__}: {exc}"]


def run(args, spec: dict) -> dict:
    sys.path.insert(0, str(SRC))
    import wavepax.cli  # noqa: F401  (every probed module is loaded before patching)

    inputs = workloads.make_inputs(args.workload, args.seed, args.small)
    reference, tol = None, (0.0, 0.0)
    if args.seed == 0 and not args.small:
        ref = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))
        reference = ref["workloads"][args.workload]
        tol = (ref["rel_tol"], ref["abs_tol"])
    workdir = OUT / f"work-{os.getpid()}"
    op = workloads.Operation(args.workload, inputs, workdir)
    rec = instrument.Recorder()
    walls = {False: [], True: []}
    cpus, failures, traced_ops, counts = [], [], [], None
    try:
        start = time.perf_counter()
        with open(os.devnull, "w") as sink:
            i = 0
            while i < (3 if args.trace else 1) or time.perf_counter() - start < args.seconds:
                timed = bool(args.trace) and i % 2 == 1
                wall, cpu, result, error = run_operation(op, rec, i, timed, sink)
                walls[timed].append(wall)
                if timed:
                    traced_ops.append(i)
                else:
                    cpus.append(cpu)
                problems = output_problems(op, rec, result, error, reference, tol)
                if counts is None:
                    counts = dict(rec.counts)
                elif rec.counts != counts:
                    problems.append("computed counts differ from the first operation")
                if problems:
                    failures.append({"op": i, "problems": problems})
                i += 1
        if args.trace:
            OUT.mkdir(exist_ok=True)
            instrument.write_spans(OUT / f"spans-{args.workload}-seed{args.seed}.csv",
                                   rec.spans, start)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = len(walls[False]) + len(walls[True])
    untraced = statistics.median(walls[False])
    if args.trace:
        values = instrument.layer_metrics(rec.spans, set(traced_ops))
        values.update(counts)
        # the first operation runs cold, so it is left out of the comparison
        warm = statistics.median(walls[False][1:])
        traced = statistics.median(walls[True])
        values["trace.overhead_s"] = traced - warm
        values["trace.overhead_frac"] = (traced - warm) / warm
        wanted = spec["per_layer"]
    else:
        values = {
            "wall_s": untraced,
            "cpu_s": statistics.median(cpus),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "setup_s": args.setup_s,
            "succeeded_frac": 1.0 - len(failures) / attempted,
        }
        wanted = spec["end_to_end"]
    print(json.dumps({"environment": environment(args)}))
    print(json.dumps({"operations": {
        "attempted": attempted,
        "failed": len(failures),
        "failed_frac": len(failures) / attempted,
        "untraced_wall_s": walls[False],
        "traced_wall_s": walls[True],
        "cpu_s": cpus,
        "setup_s": args.setup_s,
    }, "failures": failures[:8]}))
    print(json.dumps({"counts": counts}, sort_keys=True))
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
                    for m in wanted},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true", help="reduced inputs (smoke test)")
    args = parser.parse_args(argv)
    if not (SRC / "wavepax" / "__init__.py").is_file():
        print(f"error: no wavepax package under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    warnings.simplefilter("ignore")
    args.setup_s = measure_setup(args.workload, args.seed, args.small)
    result = run(args, spec)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
