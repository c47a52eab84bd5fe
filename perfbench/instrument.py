"""Probes on wavepax's public functions, installed from outside the package.

Each probe replaces one function or method by a wrapper wherever the package
looks the name up: the defining module, every wavepax module that imported
the name, or the class that defines the method.  ``uninstall`` puts the
originals back.

A wrapper always adds the probe's computed counts (values read from argument
shapes and returned objects, never from a clock) to the recorder.  When the
recorder is ``timed`` it also records a span: name, start, end, parent span
and operation id.  Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import math
import os
import sys
import time
from importlib import import_module


def _solve_counts(args, kwargs, traj):
    nbytes = traj.problem.initial.values.nbytes
    return {
        "evolution.picard_iterations": traj.iterations,
        "evolution.integrand_nodes": (traj.n_steps + 1) * traj.iterations,
        "evolution.buffer_bytes": 2 * (traj.n_steps + 1) * nbytes,
    }


def _apply_counts(args, kwargs, out):
    return {"evolution.PropagatorTables.apply.elements": args[1].size}


def _fft_counts(args, kwargs, out):
    return {"grids.fft.points": args[0].size, "grids.fft.bytes": args[0].nbytes}


def _interaction_counts(args, kwargs, sol):
    layout = sol.layout
    nodes = sum(layout.mask[key].size for key in layout.keys)
    grid_nodes = math.prod(sol.problem.grid.shape)
    return {
        "interaction.picard_iterations": sol.iterations,
        "interaction.window_fill": nodes / (len(layout.keys) * grid_nodes),
    }


def _job_counts(args, kwargs, out):
    return {"interaction.evaluator_jobs": sum(len(j) for j in args[0].jobs.values())}


def _classify_counts(args, kwargs, report):
    return {"resonance.solutions": len(report.solutions)}


def _write_counts(args, kwargs, out):
    return {"io.write_field.bytes": os.path.getsize(args[0])}


# (module, qualified name, computed counts or None, result kept for the output checks)
PROBES = [
    ("evolution", "solve_integrated", _solve_counts, True),
    ("evolution", "PropagatorTables.apply", _apply_counts, False),
    ("grids", "spectrum_to_samples", _fft_counts, False),
    ("grids", "samples_to_spectrum", _fft_counts, False),
    ("grids", "pad_spectrum", None, False),
    ("grids", "crop_spectrum", None, False),
    ("grids", "l1_norm_values", None, False),
    ("interaction", "solve_interaction_system", _interaction_counts, True),
    ("interaction", "solve_averaged_system", _interaction_counts, True),
    ("interaction", "coupling_norm", None, False),
    ("interaction", "MonomialEvaluator.integrand_chunk", _job_counts, False),
    ("interaction", "ComponentLayout.window", None, False),
    ("interaction", "ComponentLayout.component_l1", None, False),
    ("interaction", "ComponentLayout.embed", None, False),
    ("wavepacket", "locate_position", None, False),
    ("wavepacket", "position_detection", None, False),
    ("wavepacket", "build_wavepacket", None, False),
    ("wavepacket", "particle_norm", None, False),
    ("dispersion", "symbol_eigensystem", None, False),
    ("harness", "load_config", None, False),
    ("harness", "build_initial", None, False),
    ("resonance", "classify", _classify_counts, False),
    ("resonance", "enumerate_solutions", None, False),
    ("resonance", "genericity_probe", None, False),
    ("resonance", "resonant_index_sets", None, False),
    ("io", "write_field", _write_counts, False),
]

# Counts that hold a per-call size rather than a running total.
MAX_COUNTS = {"evolution.buffer_bytes", "interaction.window_fill"}


class Recorder:
    """Spans, computed counts and kept solver results of one run."""

    def __init__(self):
        self.timed = False
        self.op = 0
        self.spans = []      # (name, start, end, parent index, op id)
        self.stack = []
        self.counts = {}     # computed counts of the current operation
        self.solves = []     # (name, result) of the current operation
        self._restore = []

    def begin(self, op: int, timed: bool):
        self.op, self.timed = op, timed
        self.counts, self.solves = {}, []
        self.install(timed)

    def end(self):
        self.uninstall()

    def _add(self, counts):
        for key, value in counts.items():
            if key in MAX_COUNTS:
                self.counts[key] = max(self.counts.get(key, value), value)
            else:
                self.counts[key] = self.counts.get(key, 0) + value

    def _wrap(self, name, fn, count, keep):
        rec = self

        def wrapper(*args, **kwargs):
            if rec.timed:
                parent = rec.stack[-1] if rec.stack else -1
                sid = len(rec.spans)
                rec.spans.append(None)
                rec.stack.append(sid)
                start = time.perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = time.perf_counter()
                    rec.stack.pop()
                    rec.spans[sid] = (name, start, end, parent, rec.op)
            else:
                result = fn(*args, **kwargs)
            if count is not None:
                rec._add(count(args, kwargs, result))
            if keep:
                rec.solves.append((name, result))
            return result

        return wrapper

    def install(self, timed: bool):
        """Wrap every probe (timed) or only those that count or keep results."""
        loaded = [m for n, m in list(sys.modules.items()) if n.startswith("wavepax.")]
        for module_name, qualname, count, keep in PROBES:
            if not timed and count is None and not keep:
                continue
            module = import_module(f"wavepax.{module_name}")
            name = f"{module_name}.{qualname}"
            owner_name, _, attr = qualname.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                original = owner.__dict__[attr]
                self._set(owner, attr, original, self._wrap(name, original, count, keep))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(name, original, count, keep)
            for mod in loaded:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, original, wrapper)

    def _set(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._restore.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore = []


def layer_metrics(spans, ops) -> dict:
    """Per-operation calls, total and self seconds of each span name.

    ``ops`` lists the ids of the traced operations; values are means over
    them.  Self time is a span's duration minus that of its direct children,
    which never overlap because the load runs on one thread.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent, op in spans:
        if parent >= 0:
            child[parent] += end - start
    calls, total, self_s = {}, {}, {}
    durations = {}
    for i, (name, start, end, parent, op) in enumerate(spans):
        if op not in ops:
            continue
        calls[name] = calls.get(name, 0) + 1
        total[name] = total.get(name, 0.0) + (end - start)
        self_s[name] = self_s.get(name, 0.0) + (end - start - child[i])
        durations.setdefault(name, []).append(end - start)
    n = len(ops)
    out = {}
    for name in calls:
        out[f"{name}.calls"] = calls[name] / n
        out[f"{name}.s"] = total[name] / n
        out[f"{name}.self_s"] = self_s[name] / n
    for name, values in durations.items():
        values.sort()
        out[f"{name}.p50_s"] = _quantile(values, 0.5)
        out[f"{name}.p90_s"] = _quantile(values, 0.9)
    return out


def _quantile(sorted_values, q: float) -> float:
    pos = q * (len(sorted_values) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (pos - lo) * (sorted_values[hi] - sorted_values[lo])


def write_spans(path, spans, origin: float):
    """Spans as CSV, times in seconds from ``origin``."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("span,name,start_s,end_s,parent,op\n")
        for i, (name, start, end, parent, op) in enumerate(spans):
            fh.write(f"{i},{name},{start - origin:.9f},{end - origin:.9f},{parent},{op}\n")
