"""Wavepacket interaction system and its time-averaged reductions.

The interaction unknowns are the 2N cutoff-projected components w_{l,theta}
of the solution, each supported in a ball of radius beta^(1-eps) around
theta * k_l inside its band eigenspace.  Both systems evaluate the same
windowed monomials: the full system keeps every decorated index of each
order, which by multilinearity is the complete nonlinearity of the
components' sum; the averaged system keeps only the decorated monomials
whose frequency mismatch vanishes, and the diagonal / reduced systems
restrict the index sets further.
"""

from __future__ import annotations

import itertools
import warnings
from collections import Counter
from dataclasses import dataclass, field as dfield

import numpy as np

from . import dispersion as dsp
from .errors import HypothesisViolated
from .evolution import (
    EvolutionProblem,
    PropagatorTables,
    SolverConfig,
    _ConvolutionPlan,
    _kept_samples,
    _Level,
    _node_l1,
    _picard_trapezoid,
    _stack_rows,
    _symmetric_terms,
    _trapezoid_pass,
    time_mesh,
)
from .grids import Grid, grid_mirror
from .resonance import (
    DecoratedIndex,
    NkSpectrum,
    default_tol_res,
    partial_gvm_check,
    resonant_index_sets,
)
from .wavepacket import FieldSamples, build_cutoff

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
    so cutoff-built packets pass through the windows unchanged.  The
    windows, in ``keys`` order, are consecutive ``segments`` of one joint
    node axis: the windowed state is one (..., C, W) array.
    """

    def __init__(self, spectrum: NkSpectrum, model, grid: Grid, beta: float, epsilon: float,
                 support_factor: float = 2.0):
        self.spectrum = spectrum
        self.model = model
        self.grid = grid
        self.beta = beta
        self.epsilon = epsilon
        self.radius = support_factor * beta ** (1.0 - epsilon)
        # windows may overlap in k only if they project onto the same band:
        # the band projections of a Hermitian symbol are orthogonal
        min_sep = None
        entries = [
            (dsp.comp_index(spectrum.band(l), theta), theta * spectrum.kvec(l))
            for l in range(1, spectrum.n_pairs + 1)
            for theta in (+1, -1)
        ]
        for i, (ci, ki) in enumerate(entries):
            for cj, kj in entries[i + 1 :]:
                if ci != cj:
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
        self.columns: dict = {}  # band_columns of each window
        self.comps: dict = {}    # the components a window holds
        for l, theta in self.keys:
            center = theta * spectrum.kvec(l)
            cut = build_cutoff(grid, center, self.radius).reshape(-1)
            idx = np.nonzero(cut > 0)[0]
            key = (l, theta)
            self.mask[key] = idx
            self.cut[key] = cut[idx]
            cols = dsp.band_columns(model, grid, spectrum.band(l), theta, idx)
            self.columns[key] = cols
            self.comps[key] = ([] if idx.size == 0 else [cols] if isinstance(cols, int)
                               else list(range(model.ncomp)))
        self.segments, self.width = _stack_rows({key: self.mask[key].size for key in self.keys})
        # the + window of each - window when every (l, -1) window is the
        # node-reversed mirror of (l, +1) off the unmirrored nodes, with the
        # same cutoff and the partner component; None otherwise.  The + windows
        # then have their own joint node axis, that of a half state
        mirror, lone = grid_mirror(grid)
        self.partner = {}
        for l in range(1, spectrum.n_pairs + 1):
            plus, minus = (l, +1), (l, -1)
            if not (np.array_equal(mirror[self.mask[plus]][::-1], self.mask[minus])
                    and not lone[self.mask[plus]].any()
                    and np.array_equal(self.cut[plus][::-1], self.cut[minus])
                    and self.comps[minus] == [c ^ 1 for c in self.comps[plus]]):
                self.partner = None
                break
            self.partner[minus] = plus
        self.half_segments = None if self.partner is None else _stack_rows(
            {plus: self.mask[plus].size for plus in self.partner.values()})[0]

    def mirrored(self, values: np.ndarray) -> bool:
        """Whether (..., C, W) values are bitwise conjugate mirrors on the window pairs.

        Each (l, -1) window's component must be the conjugate of its
        partner's, node-reversed; the components a scalar window does not
        hold are not read.
        """
        return self.partner is not None and all(
            np.array_equal(values[..., c ^ 1, self.segments[minus]],
                           np.conj(values[..., c, self.segments[plus]][..., ::-1]))
            for minus, plus in self.partner.items() for c in self.comps[plus])

    def halve(self, values: np.ndarray) -> np.ndarray:
        """The (..., C/2, W/2) half state of mirrored values: the + components of the + windows."""
        return np.concatenate([values[..., 0::2, self.segments[plus]]
                               for plus in self.partner.values()], axis=-1)

    def unfold(self, key, half: np.ndarray) -> np.ndarray:
        """Window ``key``'s (..., C, win) values of (..., C/2, W/2) half states.

        An (l, -1) window holds its partner's components conjugated and
        node-reversed in the partner component; every other component is 0.
        """
        plus = self.partner.get(key, key)
        src = half[..., self.half_segments[plus]]
        out = np.zeros(src.shape[:-2] + (self.model.ncomp, src.shape[-1]), dtype=complex)
        if key == plus:
            out[..., 0::2, :] = src
        else:
            for c in self.comps[plus]:
                np.conjugate(src[..., c // 2, ::-1], out=out[..., c ^ 1, :])
        return out

    def expand(self, half: np.ndarray) -> np.ndarray:
        """The (..., C, W) values of a half state, each (l, -1) window its partner's conjugate mirror."""
        return np.concatenate([self.unfold(key, half) for key in self.keys], axis=-1)

    def window(self, key, full_flat: np.ndarray) -> np.ndarray:
        """Project full (B, C, X) values onto the cutoff window of one component."""
        return self.project(key, full_flat[..., self.mask[key]])

    def project(self, key, vals: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Band projection and cutoff of (B, C, win) values on one component's window."""
        return np.multiply(dsp.project_band(self.columns[key], vals), self.cut[key], out=out)

    def embed(self, states: dict) -> np.ndarray:
        """Sum of the (B, C, win) values of the components in ``states`` as full (B, C, X) values."""
        b, ncomp = next(iter(states.values())).shape[:2]
        out = np.zeros((b, ncomp, int(np.prod(self.grid.shape))), dtype=complex)
        for key, vals in states.items():
            out[..., self.mask[key]] += vals
        return out

    def carrier_part(self, values: np.ndarray, keys) -> np.ndarray:
        """Sum of the components ``keys`` of full (C, *shape) values, on the full grid."""
        flat = values.reshape(values.shape[0], -1)[None]
        return self.embed({key: self.window(key, flat) for key in keys})[0].reshape(values.shape)

    def component_l1(self, key, win_vals: np.ndarray) -> float:
        """L1 norm of one component's (C, win) window values."""
        return float(_node_l1(win_vals[None], self.grid.cell)[0, 0])


@dataclass
class InteractionSolution:
    """Full-mesh trajectory of the 2N windowed components.

    ``states`` holds what the Picard driver iterated.  With ``half`` it is
    the (n+1, C/2, W/2) half states of a conjugation-symmetric problem
    (``ComponentLayout.halve``): the + components of the (l, +1) windows,
    whose (l, -1) partners are their conjugate mirrors.  Otherwise it is
    the (n+1, C, W) full states, component ``key`` on the slice
    ``layout.segments[key]`` of the node axis.  Unlike ``solve_integrated``,
    which keeps only its recorded samples, the windowed solves keep every
    mesh node: ``interaction_distance`` and ``coupling_norm`` read them all.
    """

    spectrum: NkSpectrum
    layout: ComponentLayout
    problem: EvolutionProblem
    times: np.ndarray                     # full mesh
    states: np.ndarray                    # (n+1, C/2, W/2) with half, else (n+1, C, W)
    half: bool
    iterations: int
    distances: list
    record_stride: int | None             # None: the default stride of _kept_samples
    diagnostics: dict = dfield(default_factory=dict)

    @property
    def sample_indices(self) -> list:
        return _kept_samples(len(self.times) - 1, self.record_stride)

    def component_samples(self, l: int, theta: int, rows) -> FieldSamples:
        """Component (l, theta) at the mesh nodes ``rows``, on its window."""
        key = (l, theta)
        values = (self.layout.unfold(key, self.states[rows]) if self.half
                  else self.states[rows, :, self.layout.segments[key]])
        return FieldSamples(self.problem.grid, self.layout.mask[key], values)


def _initial_windows(layout: ComponentLayout, problem: EvolutionProblem) -> np.ndarray:
    """The (C, W) windows of the initial data, on the layout's joint node axis."""
    h_flat = problem.initial.values.reshape(problem.model.ncomp, -1)[None]
    return np.concatenate([layout.window(key, h_flat)[0] for key in layout.keys], axis=-1)


def _symmetric_sets(problem: EvolutionProblem, layout: ComponentLayout, sets_flat: dict) -> bool:
    """Whether the windowed equation keeping ``sets_flat`` maps conjugate mirrors to mirrors.

    Exact tests, with no tolerance: the equation's symmetry
    (``evolution._symmetric_terms``), mirrored window pairs
    (``ComponentLayout.partner``) and index sets of each (l, -1) window
    that are the negated sets of its partner's, compared as multisets.
    Half states carry the problem when its data are mirrors too
    (``ComponentLayout.mirrored``).
    """
    return (layout.partner is not None and _symmetric_terms(problem) is not None
            and all(Counter(sets_flat.get(minus, []))
                    == Counter((m, ix.negated()) for m, ix in sets_flat.get(plus, []))
                    for minus, plus in layout.partner.items()))


def _solve_windowed(problem: EvolutionProblem, spectrum: NkSpectrum, config: SolverConfig | None,
                    beta: float, epsilon: float, sets_flat: dict | None,
                    clip_arguments: bool) -> tuple[InteractionSolution, MonomialEvaluator | None]:
    """Picard solution of the windowed system whose nonlinearity keeps ``sets_flat``.

    With ``sets_flat`` None the nonlinearity is zero and the initial windows
    are returned after 0 iterations.  A conjugation-symmetric problem
    (``_symmetric_sets`` and mirrored initial windows) is iterated and kept
    on half states, the + components of the (l, +1) windows; every other
    one on the full state.  Returns the solution and its evaluator.
    """
    config = config or SolverConfig()
    if config.convolution_mode == "direct-oracle":
        raise ValueError("the windowed solvers convolve by FFT only; "
                         "the direct oracle runs through apply_nonlinearity")
    layout = ComponentLayout(spectrum, problem.model, problem.grid, beta, epsilon)
    h0 = _initial_windows(layout, problem)
    half = (sets_flat is not None and _symmetric_sets(problem, layout, sets_flat)
            and layout.mirrored(h0))
    evaluator = (None if sets_flat is None
                 else MonomialEvaluator(problem, layout, sets_flat, clip_arguments, half))
    h, n = time_mesh(problem, config)
    states, iterations, distances = _picard_trapezoid(
        None if evaluator is None else evaluator.integrand_chunk, layout.halve(h0) if half else h0,
        n, h, problem.grid.cell, config, AVERAGED_CHUNK, keep=None,
        segments=(layout.half_segments if half else layout.segments).values(),
    )
    return InteractionSolution(
        spectrum=spectrum,
        layout=layout,
        problem=problem,
        times=h * np.arange(n + 1),
        states=states,
        half=half,
        iterations=iterations,
        distances=distances,
        record_stride=config.record_stride,
    ), evaluator


def solve_interaction_system(
    problem: EvolutionProblem,
    spectrum: NkSpectrum,
    config: SolverConfig | None = None,
    beta: float = 0.1,
    epsilon: float = 0.1,
) -> InteractionSolution:
    """Picard solution of the cutoff-projected interaction system.

    Its nonlinearity keeps every decorated index of each order; the windows
    are never clipped again.
    """
    slots = [(z, l) for l in range(1, spectrum.n_pairs + 1) for z in (+1, -1)]
    every = [(m, DecoratedIndex(entries))
             for m in sorted({s.order for s in problem.nonlinearity})
             for entries in itertools.product(slots, repeat=m)]
    sets_flat = {(l, z): every for z, l in slots} if every else None
    solution, _ = _solve_windowed(problem, spectrum, config, beta, epsilon, sets_flat,
                                  clip_arguments=False)
    return solution


# -- windowed monomial machinery ---------------------------------------------------------

class MonomialEvaluator:
    """Evaluates index-set-restricted nonlinearities on windowed states.

    The terms of every window, over all susceptibilities of each order, are
    convolved by one ``_ConvolutionPlan`` with one key per window, so each
    product is an exact linear convolution on a small transform grid with
    the problem's dk; carrier centres need not lie on nodes.  Phases and
    projections are evaluated on window nodes only, and only the components
    that the plan's forms read (``plan.comps``) are mapped to the fast
    frame; a scalar window holds its band component only.  Callback
    susceptibilities are refused.  Each window's phases are kept for the
    chunk of times of the last call and dropped when the chunk changes: the
    Picard driver evaluates every level of a chunk before it moves on, and
    ``coupling_norm`` visits each chunk once.

    With ``half`` the states are half states of a conjugation-symmetric
    problem on the layout's mirrored windows (``ComponentLayout.halve``):
    the plan forms the (l, +1) outputs only and reads each (l, -1) argument
    as the conjugate of its partner's r-space row, one inverse transform
    per pair, and phases, the map back and the projection run on the +
    windows only.  Every (l, -1) output is the conjugate mirror of its
    partner's.
    """

    def __init__(
        self,
        problem: EvolutionProblem,
        layout: ComponentLayout,
        sets_flat: dict,          # (l,theta) -> [(m, DecoratedIndex)]
        clip_arguments: bool = True,
        half: bool = False,
    ):
        self.problem = problem
        self.layout = layout
        self.clip_arguments = clip_arguments
        self.half = half
        self.tables = PropagatorTables(problem.model, problem.grid, problem.rho)
        by_order: dict = {}
        for susc in problem.nonlinearity:
            by_order.setdefault(susc.order, []).append(susc)
        # a scalar window holds its band component only, so each term is
        # restricted to the components present in its windows; each distinct
        # restriction of a tensor is built once and shared by its terms
        terms: dict = {}
        masked: dict = {}
        for key in layout.partner.values() if half else layout.keys:
            for m, index in sets_flat.get(key, []):
                arg_keys = [(l, z) for z, l in index.entries]
                comps = tuple(tuple(layout.comps[a]) for a in [key, *arg_keys])
                for s, susc in enumerate(by_order.get(m, [])):
                    if susc.tensor is None:
                        raise ValueError(f"windowed evaluation needs a tensor susceptibility; "
                                         f"{susc.name or 'a callback'} has none")
                    if (m, s, comps) not in masked:
                        keep = np.zeros(susc.tensor.shape, dtype=bool)
                        keep[np.ix_(*comps)] = True
                        masked[(m, s, comps)] = np.where(keep, susc.tensor, 0)
                    terms.setdefault(key, []).append((masked[(m, s, comps)], arg_keys))
        self.plan = _ConvolutionPlan(problem.grid, layout.mask, terms,
                                     layout.partner if half else None)
        # jobs[key]: [(factors, out_comp, coeff)], one per product and output
        # component; permuted monomials share one product
        self.jobs = {key: [] for key in layout.keys}
        for key, (factors, coeffs, rows) in self.plan.outs.items():
            self.jobs[key] = [(f, int(rows[i]), coeffs[i, g]) for g, f in enumerate(factors)
                              for i in range(len(rows)) if coeffs[i, g] != 0]
        self._phase_taus, self._phases = None, {}

    def integrand_chunk(self, values: np.ndarray, taus: np.ndarray,
                        rows: slice = slice(None)) -> np.ndarray:
        """Windowed integrand of the ``rows`` of (B, C, W) states at a chunk of times, as a new array.

        ``values`` may hold one time slice for the whole chunk; with
        ``half`` they and the result are (B, C/2, W/2) half states.
        """
        values = np.broadcast_to(values, taus.shape + values.shape[1:])[rows]
        taus = taus[rows]
        b = taus.shape[0]
        layout = self.layout
        segments = layout.half_segments if self.half else layout.segments

        tag = taus.tobytes()
        if tag != self._phase_taus:
            self._phase_taus, self._phases = tag, {}

        def phases(key):
            # e^{-i tau L/rho} on the window and rows comps[key]; a scalar window has
            # one component, so they serve the way in too
            if key not in self._phases:
                self._phases[key] = self.tables.phases(taus, layout.mask[key], layout.comps[key])
            return self._phases[key]

        def rows(comps):
            # a half state holds component c in row c // 2
            return [c // 2 for c in comps] if self.half else comps

        args = {}
        for key, comps in self.plan.comps.items():
            vals = values[..., segments[key]]
            if self.clip_arguments:
                # the window profile again: neutral on cutoff-built data,
                # it damps only spillover into the window's skirt
                vals = vals * layout.cut[key]
            args[key] = self.tables.apply(vals, phases(key), nodes=layout.mask[key],
                                          comps=rows(comps))
        out = np.zeros(values.shape, dtype=complex)
        for key, acc in self.plan(args).items():
            comps = layout.comps[key]
            acc[:, comps] = self.tables.apply(acc, np.conj(phases(key)),
                                              nodes=layout.mask[key], comps=comps)
            if self.half:
                for c in comps:  # the projection of a scalar window keeps its component
                    np.multiply(acc[:, c], layout.cut[key], out=out[:, c // 2, segments[key]])
            else:
                layout.project(key, acc, out=out[..., segments[key]])
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
    force: bool = False,
) -> InteractionSolution:
    """Picard solution with the nonlinearity restricted to resonant monomials."""
    if mode == "reduced" and not force:
        ok, violations = partial_gvm_check(
            spectrum, partition, problem.model, index_sets.orders, tol_res=index_sets.tol_res
        )
        if not ok:
            raise HypothesisViolated(
                f"partition is not group-velocity decoupled ({len(violations)} violations)"
            )
    sets_flat = _sets_for_mode(index_sets, mode, partition)
    solution, evaluator = _solve_windowed(problem, spectrum, config, beta, epsilon, sets_flat,
                                          clip_arguments=True)
    # size of the argument-clip ambiguity on the converged state: the same
    # integrand with and without the clip, on a few late-time samples
    layout = solution.layout
    probe, taus_probe = solution.states[-1:], solution.times[-1:]
    other = MonomialEvaluator(problem, layout, sets_flat, False, solution.half)
    g_clip, g_raw = (e.integrand_chunk(probe, taus_probe) for e in (evaluator, other))
    if solution.half:
        g_clip, g_raw = layout.expand(g_clip), layout.expand(g_raw)
    clip_diff = sum(layout.component_l1(key, g_clip[0, :, seg] - g_raw[0, :, seg])
                    for key, seg in layout.segments.items())
    solution.diagnostics["clip_difference"] = float(clip_diff)
    return solution


def interaction_distance(a: InteractionSolution, b: InteractionSolution) -> float:
    """Sum over components of the sup-time L1 distance (shared full mesh)."""
    if len(a.times) != len(b.times):
        raise ValueError("solutions discretise time differently")
    cell, segments = a.problem.grid.cell, a.layout.segments.values()

    def full(s, r):  # the full states of a chunk of mesh nodes
        return s.layout.expand(s.states[r]) if s.half else s.states[r]

    # one chunk of mesh nodes at a time: no whole trajectory is expanded and
    # their difference is not held
    rows = [slice(i, i + AVERAGED_CHUNK) for i in range(0, len(a.times), AVERAGED_CHUNK)]
    sup = np.max([_node_l1(full(a, r) - full(b, r), cell, segments).max(axis=0) for r in rows],
                 axis=0)
    return sum(sup.tolist())  # in key order


def coupling_norm(solution: InteractionSolution, index_sets: InteractionIndexSets,
                  partition=None) -> float:
    """Sup-time L1 size of the coupling part evaluated along a trajectory.

    With no partition the coupling part collects every non-diagonal resonant
    term; a single-pair spectrum therefore scores exactly zero.
    """
    coup = index_sets.flat(index_sets.coupling(partition))
    if not any(coup.values()):
        return 0.0
    layout, states = solution.layout, solution.states
    # a mirrored trajectory is integrated on its half states when the coupling
    # sets keep the symmetry; an (l, -1) window's sup is then its partner's.
    # A half solution is mirrored by construction
    half = _symmetric_sets(solution.problem, layout, coup) and (
        solution.half or layout.mirrored(states))
    evaluator = MonomialEvaluator(solution.problem, layout, coup, half=half)
    segments = layout.half_segments if half else layout.segments
    if half and not solution.half:
        states = layout.halve(states)
    rhs, h0 = evaluator.integrand_chunk, np.zeros_like(states[0])
    if solution.half and not half:  # asymmetric sets: the half states expand a block at a time
        h0 = np.zeros((layout.model.ncomp, layout.width), dtype=complex)

        def rhs(values, taus, rows):
            return evaluator.integrand_chunk(layout.expand(values[rows]), taus[rows])
    h = solution.times[1] - solution.times[0]
    level = _Level(segments.values())
    _trapezoid_pass(rhs, states, h0, h, AVERAGED_CHUNK, solution.problem.grid.cell, False, level)
    sup = dict(zip(segments, level.sup.tolist()))
    partner = layout.partner if half else {}
    return float(sum(sup[partner.get(key, key)] for key in layout.keys))  # in key order


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
    base = np.concatenate([
        layout.window(key, amplitude * (rng.standard_normal((1, problem.model.ncomp, x))
                                        + 1j * rng.standard_normal((1, problem.model.ncomp, x))))
        for key in layout.keys
    ], axis=-1)
    taus = np.linspace(0.13 * problem.tau_star, problem.tau_star, n_times)

    ref = evaluator.integrand_chunk(base, taus)
    cell = problem.grid.cell
    segments = layout.segments.values()
    scale = float(_node_l1(ref, cell, segments).max())
    worst = 0.0
    for phases in phase_tuples:
        phases = np.atleast_1d(np.asarray(phases, dtype=float))
        # e^{i theta phi_l} on the nodes of each window
        turn = np.concatenate([np.full(layout.mask[(l, theta)].size,
                                       np.exp(1j * theta * phases[l - 1]))
                               for l, theta in layout.keys])
        lhs = evaluator.integrand_chunk(turn * base, taus)
        worst = max(worst,
                    float(_node_l1(lhs - turn * ref, cell, segments).max()) / (scale + 1e-300))
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
