"""Wavepacket interaction system and its time-averaged reductions.

The interaction unknowns are the 2N cutoff-projected components w_{l,theta}
of the solution, each supported in a ball of radius beta^(1-eps) around
theta * k_l inside its band eigenspace.  The full system feeds the sum of
the components through the complete nonlinearity; the averaged system keeps
only the decorated monomials whose frequency mismatch vanishes, and the
diagonal / reduced systems restrict the index sets further.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field as dfield

import numpy as np

from . import dispersion as dsp
from .errors import HypothesisViolated
from .evolution import (
    EvolutionProblem,
    PropagatorTables,
    SolverConfig,
    _ConvolutionPlan,
    _node_l1,
    _picard_trapezoid,
    _problem_plan,
    _slow_rhs_chunk,
    _trapezoid_pass,
    time_mesh,
)
from .grids import Grid, ModalField
from .resonance import (
    NkSpectrum,
    partial_gvm_check,
    resonant_index_sets,
)
from .wavepacket import build_cutoff, eigensystem_tables

AVERAGED_CHUNK = 32


# -- index sets ---------------------------------------------------------------------

@dataclass
class InteractionIndexSets:
    """Decorated-index sets per (pair, sign, order)."""

    spectrum: NkSpectrum
    orders: list
    tol_res: float
    resonant: dict       # (l, theta, m) -> [DecoratedIndex]  (mismatch == 0)
    contributing: dict   # resonant terms that also match the output carrier

    def diag(self) -> dict:
        out = {}
        for (l, theta, m), idxs in self.contributing.items():
            out[(l, theta, m)] = [ix for ix in idxs if set(ix.slots()) == {l}]
        return out

    def coupling(self, partition=None) -> dict:
        """Cross terms; with no partition, everything off the diagonal."""
        out = {}
        if partition is None:
            diag = self.diag()
            for key, idxs in self.contributing.items():
                keep = set(ix.entries for ix in diag[key])
                out[key] = [ix for ix in idxs if ix.entries not in keep]
            return out
        part_of = {l: i for i, p in enumerate(partition) for l in p}
        for (l, theta, m), idxs in self.contributing.items():
            out[(l, theta, m)] = [
                ix for ix in idxs if len({part_of[s] for s in ix.slots()}) > 1
            ]
        return out

    def reduced(self, partition) -> dict:
        """Contributing terms minus cross-partition couplings.

        Terms whose slots all sit in a different part than the output pair
        would break the block separability; they are dropped with a warning
        (they only arise when a part fails resonance invariance).
        """
        coup = self.coupling(partition)
        part_of = {l: i for i, p in enumerate(partition) for l in p}
        out = {}
        for (l, theta, m), idxs in self.contributing.items():
            cross = set(ix.entries for ix in coup[(l, theta, m)])
            keep = []
            for ix in idxs:
                if ix.entries in cross:
                    continue
                if any(part_of[s] != part_of[l] for s in ix.slots()):
                    warnings.warn(
                        "reduced system dropped a term crossing into the output part",
                        stacklevel=2,
                    )
                    continue
                keep.append(ix)
            out[(l, theta, m)] = keep
        return out

    def flat(self, mapping: dict) -> dict:
        """Regroup a per-(l,theta,m) mapping as (l,theta) -> [(m, index)]."""
        out: dict = {}
        for (l, theta, m), idxs in mapping.items():
            out.setdefault((l, theta), []).extend((m, ix) for ix in idxs)
        return out


def build_index_sets(
    spectrum: NkSpectrum,
    model: dsp.DispersionModel,
    orders,
    tol_res: float | None = None,
) -> InteractionIndexSets:
    resonant, contributing = resonant_index_sets(spectrum, model, orders, tol_res=tol_res)
    from .resonance import default_tol_res

    return InteractionIndexSets(
        spectrum=spectrum,
        orders=sorted(set(int(m) for m in orders)),
        tol_res=tol_res if tol_res is not None else default_tol_res(spectrum, model),
        resonant=resonant,
        contributing=contributing,
    )


# -- windowed interaction state --------------------------------------------------------

class ComponentLayout:
    """Cutoff windows, projectors and initial data of the 2N components.

    The window cutoff radius is ``support_factor * beta^(1-eps)``; with the
    default factor 2 its plateau covers the construction cutoff's support,
    so cutoff-built packets pass through the windows unchanged.
    """

    def __init__(self, spectrum: NkSpectrum, model, grid: Grid, beta: float, epsilon: float,
                 support_factor: float = 2.0):
        self.spectrum = spectrum
        self.model = model
        self.grid = grid
        self.beta = beta
        self.epsilon = epsilon
        self.radius = support_factor * beta ** (1.0 - epsilon)
        # windows may overlap in k only if they project onto the same band
        min_sep = None
        entries = [
            (dsp.comp_index(spectrum.band(l), theta), theta * spectrum.kvec(l))
            for l in range(1, spectrum.n_pairs + 1)
            for theta in (+1, -1)
        ]
        scalar = model.kind == "scalar-band"
        for i, (ci, ki) in enumerate(entries):
            for cj, kj in entries[i + 1 :]:
                if scalar and ci != cj:
                    continue
                d = float(np.linalg.norm(ki - kj))
                min_sep = d if min_sep is None else min(min_sep, d)
        if min_sep is not None and 2.0 * self.radius >= min_sep:
            warnings.warn(
                f"component windows of radius {self.radius:.3g} overlap at separation {min_sep:.3g}",
                stacklevel=2,
            )
        self.keys = [
            (l, theta) for l in range(1, spectrum.n_pairs + 1) for theta in (+1, -1)
        ]
        self.cut: dict = {}
        self.mask: dict = {}
        self.basis_win: dict = {}
        _, basis, _ = eigensystem_tables(model, grid)
        x = int(np.prod(grid.shape))
        for l, theta in self.keys:
            center = theta * spectrum.kvec(l)
            cut = build_cutoff(grid, center, self.radius).reshape(-1)
            idx = np.nonzero(cut > 0)[0]
            self.mask[(l, theta)] = idx
            self.cut[(l, theta)] = cut[idx]
            n_l = spectrum.band(l)
            c = dsp.comp_index(n_l, theta)
            if basis is None:
                self.basis_win[(l, theta)] = c
            else:
                flat = basis.reshape(x, model.ncomp, model.ncomp)
                self.basis_win[(l, theta)] = flat[idx, :, c].T.copy()  # (C, win)

    def window(self, key, full_flat: np.ndarray) -> np.ndarray:
        """Project full (B, C, X) values onto the cutoff window of one component."""
        return self.project(key, full_flat[..., self.mask[key]])

    def project(self, key, vals: np.ndarray) -> np.ndarray:
        """Band projection and cutoff of (B, C, win) values on one component's window."""
        g = self.basis_win[key]
        if isinstance(g, (int, np.integer)):
            out = np.zeros_like(vals)
            out[:, g] = vals[:, g]
        else:
            coeff = (g.conj()[None] * vals).sum(axis=1)
            out = g[None] * coeff[:, None, :]
        return out * self.cut[key][None, None, :]

    def embed(self, states: dict, b: int, ncomp: int) -> np.ndarray:
        """Sum of all components as full (B, C, X) values."""
        x = int(np.prod(self.grid.shape))
        out = np.zeros((b, ncomp, x), dtype=complex)
        for key in self.keys:
            out[..., self.mask[key]] += states[key]
        return out

    def component_l1(self, key, win_vals: np.ndarray) -> float:
        """L1 norm of one component's (C, win) window values."""
        return float(_node_l1(win_vals[None], self.grid.cell)[0])


@dataclass
class InteractionSolution:
    """Full-mesh trajectory of the 2N windowed components."""

    spectrum: NkSpectrum
    layout: ComponentLayout
    problem: EvolutionProblem
    times: np.ndarray                     # full mesh
    data: dict                            # (l,theta) -> (n+1, C, win)
    iterations: int
    distances: list
    record_stride: int
    diagnostics: dict = dfield(default_factory=dict)

    @property
    def sample_indices(self) -> list:
        n = len(self.times) - 1
        return sorted(set(range(0, n + 1, self.record_stride)) | {n})

    def sum_values(self, i: int) -> np.ndarray:
        states = {k: self.data[k][i][None] for k in self.layout.keys}
        full = self.layout.embed(states, 1, self.problem.model.ncomp)[0]
        return full.reshape((self.problem.model.ncomp,) + self.problem.grid.shape)

    def component_field(self, l: int, theta: int, i: int) -> ModalField:
        key = (l, theta)
        x = int(np.prod(self.problem.grid.shape))
        flat = np.zeros((self.problem.model.ncomp, x), dtype=complex)
        flat[:, self.layout.mask[key]] = self.data[key][i]
        return ModalField(
            self.problem.grid,
            flat.reshape((self.problem.model.ncomp,) + self.problem.grid.shape),
            frame="slow",
        )


def _initial_windows(layout: ComponentLayout, problem: EvolutionProblem) -> dict:
    h_flat = problem.initial.values.reshape(problem.model.ncomp, -1)[None]
    return {key: layout.window(key, h_flat)[0] for key in layout.keys}


def solve_interaction_system(
    problem: EvolutionProblem,
    spectrum: NkSpectrum,
    config: SolverConfig | None = None,
    beta: float = 0.1,
    epsilon: float = 0.1,
) -> InteractionSolution:
    """Picard solution of the cutoff-projected interaction system."""
    config = config or SolverConfig()
    layout = ComponentLayout(spectrum, problem.model, problem.grid, beta, epsilon)
    tables = PropagatorTables(problem.model, problem.grid, problem.rho)
    h, n = time_mesh(problem, config)
    plan = _problem_plan(problem)
    ncomp = problem.model.ncomp

    def rhs_chunk(states: dict, taus: np.ndarray) -> dict:
        b = taus.shape[0]
        full = layout.embed(states, b, ncomp).reshape((b, ncomp) + problem.grid.shape)
        g = _slow_rhs_chunk(full, taus, h, problem, tables, plan,
                            config.convolution_mode).reshape(b, ncomp, -1)
        return {key: g[..., layout.mask[key]] for key in layout.keys}

    # the integrand is integrated unprojected and the integral projected:
    # projecting node by node first would round differently
    data, iterations, distances = _picard_trapezoid(
        rhs_chunk if problem.nonlinearity else None, _initial_windows(layout, problem),
        n, h, problem.grid.cell, config, AVERAGED_CHUNK, layout.project,
    )
    return InteractionSolution(
        spectrum=spectrum,
        layout=layout,
        problem=problem,
        times=h * np.arange(n + 1),
        data=data,
        iterations=iterations,
        distances=distances,
        record_stride=config.record_stride or max(1, n // 128),
    )


# -- averaged monomial machinery ---------------------------------------------------------

class MonomialEvaluator:
    """Evaluates index-set-restricted nonlinearities on windowed states.

    The terms of every window are convolved by one ``_ConvolutionPlan``
    with one key per window, so each product is an exact linear convolution
    on a small transform grid with the problem's dk; carrier centres need
    not lie on nodes.  Phases and projections are evaluated on window nodes
    only, and only the band components present in each window are
    transformed.
    """

    def __init__(
        self,
        problem: EvolutionProblem,
        layout: ComponentLayout,
        sets_flat: dict,          # (l,theta) -> [(m, DecoratedIndex)]
        clip_arguments: bool = True,
    ):
        self.problem = problem
        self.layout = layout
        self.clip_arguments = clip_arguments
        self.tables = PropagatorTables(problem.model, problem.grid, problem.rho)
        by_order = {s.order: s for s in problem.nonlinearity}
        if len(by_order) != len(problem.nonlinearity):
            raise ValueError("one susceptibility per order expected here")
        present = {}
        for key in layout.keys:
            g = layout.basis_win[key]
            if layout.mask[key].size == 0:
                present[key] = []
            elif isinstance(g, (int, np.integer)):
                present[key] = [int(g)]
            else:
                present[key] = list(range(problem.model.ncomp))
        # rows of the back-transformed integrand that the window projection reads
        self.out_rows = present
        # a scalar window holds its band component only, so each term is
        # restricted to the components present in its windows
        terms: dict = {}
        for key in layout.keys:
            for m, index in sets_flat.get(key, []):
                susc = by_order.get(m)
                if susc is None or susc.tensor is None:
                    continue
                arg_keys = [(l, z) for z, l in index.entries]
                keep = np.zeros(susc.tensor.shape, dtype=bool)
                keep[np.ix_(present[key], *(present[a] for a in arg_keys))] = True
                terms.setdefault(key, []).append((np.where(keep, susc.tensor, 0), arg_keys))
        self.plan = _ConvolutionPlan(problem.grid, layout.mask, terms)
        # jobs[key]: [(factors, out_comp, coeff)], one per product and output
        # component; permuted monomials share one product
        self.jobs = {key: [] for key in layout.keys}
        for key, (factors, coeffs, rows) in self.plan.outs.items():
            self.jobs[key] = [(f, int(rows[i]), coeffs[i, g]) for g, f in enumerate(factors)
                              for i in range(len(rows)) if coeffs[i, g] != 0]

    def integrand_chunk(self, states: dict, taus: np.ndarray) -> dict:
        """Windowed integrand values g_{l,theta} for a chunk of times."""
        b = taus.shape[0]
        args = {}
        for key, comps in self.plan.comps.items():
            # states may hold one time slice for the whole chunk
            vals = np.broadcast_to(states[key], (b,) + states[key].shape[1:])
            if self.clip_arguments:
                # the window profile again: neutral on cutoff-built data,
                # it damps only spillover into the window's skirt
                vals = vals * self.layout.cut[key]
            args[key] = self.tables.apply(vals, taus, -1, nodes=self.layout.mask[key],
                                          comps=comps)
        conv = self.plan(args)
        out = {}
        for key in self.layout.keys:
            mask = self.layout.mask[key]
            acc = conv.get(key)
            if acc is None:
                acc = np.zeros((b, self.problem.model.ncomp, mask.size), dtype=complex)
            else:
                rows = self.out_rows[key]
                acc[:, rows] = self.tables.apply(acc, taus, +1, nodes=mask, comps=rows)
            out[key] = self.layout.project(key, acc)
        return out


def _sets_for_mode(index_sets: InteractionIndexSets, mode: str, partition):
    if mode == "full-averaged":
        return index_sets.flat(index_sets.contributing)
    if mode == "diagonal":
        return index_sets.flat(index_sets.diag())
    if mode == "reduced":
        if partition is None:
            raise ValueError("reduced mode needs a partition")
        return index_sets.flat(index_sets.reduced(partition))
    raise ValueError(f"unknown averaged mode {mode!r}")


def solve_averaged_system(
    problem: EvolutionProblem,
    spectrum: NkSpectrum,
    index_sets: InteractionIndexSets,
    config: SolverConfig | None = None,
    beta: float = 0.1,
    epsilon: float = 0.1,
    mode: str = "full-averaged",
    partition=None,
    clip_arguments: bool = True,
    force: bool = False,
) -> InteractionSolution:
    """Picard solution with the nonlinearity restricted to resonant monomials."""
    config = config or SolverConfig()
    if mode == "reduced" and not force:
        ok, violations = partial_gvm_check(
            spectrum, partition, problem.model, index_sets.orders, tol_res=index_sets.tol_res
        )
        if not ok:
            raise HypothesisViolated(
                f"partition is not group-velocity decoupled ({len(violations)} violations)"
            )
    layout = ComponentLayout(spectrum, problem.model, problem.grid, beta, epsilon)
    sets_flat = _sets_for_mode(index_sets, mode, partition)
    evaluator = MonomialEvaluator(problem, layout, sets_flat, clip_arguments=clip_arguments)
    h, n = time_mesh(problem, config)
    taus = h * np.arange(n + 1)
    data, iterations, distances = _picard_trapezoid(
        evaluator.integrand_chunk, _initial_windows(layout, problem),
        n, h, problem.grid.cell, config, AVERAGED_CHUNK,
    )
    # size of the argument-clip ambiguity on the converged state: the same
    # integrand with and without the clip, on a few late-time samples
    probe = {key: data[key][-1:] for key in layout.keys}
    taus_probe = taus[-1:]
    other = MonomialEvaluator(problem, layout, sets_flat,
                              clip_arguments=not clip_arguments)
    g_clip = evaluator.integrand_chunk(probe, taus_probe)
    g_raw = other.integrand_chunk(probe, taus_probe)
    clip_diff = sum(
        layout.component_l1(key, g_clip[key][0] - g_raw[key][0]) for key in layout.keys
    )
    return InteractionSolution(
        spectrum=spectrum,
        layout=layout,
        problem=problem,
        times=taus,
        data=data,
        iterations=iterations,
        distances=distances,
        record_stride=config.record_stride or max(1, n // 128),
        diagnostics={"clip_difference": float(clip_diff)},
    )


def interaction_distance(a: InteractionSolution, b: InteractionSolution) -> float:
    """Sum over components of the sup-time L1 distance (shared full mesh)."""
    if len(a.times) != len(b.times):
        raise ValueError("solutions discretise time differently")
    cell = a.problem.grid.cell
    return sum(float(_node_l1(a.data[key] - b.data[key], cell).max()) for key in a.layout.keys)


def coupling_norm(solution: InteractionSolution, index_sets: InteractionIndexSets,
                  partition=None, clip_arguments: bool = True) -> float:
    """Sup-time L1 size of the coupling part evaluated along a trajectory.

    With no partition the coupling part collects every non-diagonal resonant
    term; a single-pair spectrum therefore scores exactly zero.
    """
    coup = index_sets.flat(index_sets.coupling(partition))
    if not any(coup.values()):
        return 0.0
    evaluator = MonomialEvaluator(solution.problem, solution.layout, coup,
                                  clip_arguments=clip_arguments)
    data = solution.data
    zero = {key: np.zeros_like(v[0]) for key, v in data.items()}
    out = {key: np.empty_like(v) for key, v in data.items()}
    h = solution.times[1] - solution.times[0]
    sup = _trapezoid_pass(evaluator.integrand_chunk, data, zero, out, None, h,
                          AVERAGED_CHUNK, solution.problem.grid.cell)
    return float(sum(sup.values()))


def homogeneity_check(
    problem: EvolutionProblem,
    spectrum: NkSpectrum,
    index_sets: InteractionIndexSets,
    phase_tuples,
    beta: float = 0.1,
    epsilon: float = 0.1,
    seed: int = 0,
    amplitude: float = 0.05,
    n_times: int = 8,
) -> float:
    """Max relative mismatch of the phase-homogeneity identity.

    For each phase tuple (phi_1 ... phi_N) the averaged nonlinearity applied
    to components premultiplied by e^{i theta phi_l} must equal the original
    value premultiplied the same way.
    """
    layout = ComponentLayout(spectrum, problem.model, problem.grid, beta, epsilon)
    sets_flat = index_sets.flat(index_sets.contributing)
    evaluator = MonomialEvaluator(problem, layout, sets_flat, clip_arguments=True)
    rng = np.random.default_rng(seed)
    x = int(np.prod(problem.grid.shape))
    base = {}
    for key in layout.keys:
        raw = amplitude * (
            rng.standard_normal((1, problem.model.ncomp, x))
            + 1j * rng.standard_normal((1, problem.model.ncomp, x))
        )
        base[key] = layout.window(key, raw)
    taus = np.linspace(0.13 * problem.tau_star, problem.tau_star, n_times)

    ref = evaluator.integrand_chunk(base, taus)
    cell = problem.grid.cell
    scale = max(float(_node_l1(ref[key], cell).max()) for key in layout.keys)
    worst = 0.0
    for phases in phase_tuples:
        phases = np.atleast_1d(np.asarray(phases, dtype=float))
        rotated = {
            (l, theta): np.exp(1j * theta * phases[l - 1]) * base[(l, theta)]
            for (l, theta) in layout.keys
        }
        lhs = evaluator.integrand_chunk(rotated, taus)
        for key in layout.keys:
            l, theta = key
            rhs = np.exp(1j * theta * phases[l - 1]) * ref[key]
            worst = max(worst, float(_node_l1(lhs[key] - rhs, cell).max()) / (scale + 1e-300))
    return worst


__all__ = [
    "InteractionIndexSets",
    "build_index_sets",
    "ComponentLayout",
    "InteractionSolution",
    "solve_interaction_system",
    "solve_averaged_system",
    "MonomialEvaluator",
    "interaction_distance",
    "coupling_norm",
    "homogeneity_check",
]
