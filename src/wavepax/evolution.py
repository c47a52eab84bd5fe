"""Integrated evolution equation: convolution nonlinearities and the solver.

The master system reads, in k-space,

    d/dtau U_hat = -(i/rho) L(k) U_hat + F_hat(U_hat),   U_hat(0) = h_hat,

with F_hat a sum of m-fold convolutions against susceptibility tensors.  The
slow field u_hat = e^{+i tau L / rho} U_hat obeys the fixed-point equation

    u_hat = h_hat + integral_0^tau e^{+i t L/rho} F_hat(e^{-i t L/rho} u_hat) dt

which is solved by Picard iteration over the whole trajectory with a
composite-trapezoid time mesh tied to the oscillation scale rho.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from . import dispersion as dsp
from .errors import GridMismatch, PicardDiverged, PicardMaxIter
from .grids import (
    Grid,
    ModalField,
    crop_spectrum,
    l1_norm,
    l1_norm_values,
    pad_spectrum,
    require_same_grid,
    samples_to_spectrum,
    spectrum_to_samples,
)
from .wavepacket import project_band_values

DEFAULT_CHUNK = 64


# -- susceptibilities -----------------------------------------------------------

@dataclass(frozen=True)
class Susceptibility:
    """One m-linear convolution term of the nonlinearity."""

    order: int
    tensor: Optional[np.ndarray] = None      # (C, C, ..., C), m+1 axes
    callback: Optional[Callable] = None      # (k, kvecs) -> tensor
    name: str = ""
    hamiltonian: bool = False                # enables the mass-drift diagnostic

    def __post_init__(self):
        if self.order < 2:
            raise ValueError("order must be >= 2")
        if (self.tensor is None) == (self.callback is None):
            raise ValueError("give exactly one of tensor or callback")
        if self.tensor is not None:
            t = np.asarray(self.tensor, dtype=complex)
            if t.ndim != self.order + 1 or len(set(t.shape)) != 1:
                raise ValueError("tensor must have m+1 equal axes")
            object.__setattr__(self, "tensor", t)

    @property
    def ncomp(self) -> int:
        return self.tensor.shape[0] if self.tensor is not None else 0

    def sup_norm(self) -> float:
        """Upper bound on the pointwise tensor norm (sum of entry moduli)."""
        if self.tensor is not None:
            return float(np.abs(self.tensor).sum())
        return float("inf")


def cubic_conjugate(q: float = 1.0, j_bands: int = 1, hamiltonian: bool = True) -> Susceptibility:
    """Cubic term F_+ = i q U_+^2 U_-, F_- = -i q U_-^2 U_+ on each band pair.

    With the conjugate-pair structure U_- = conj(U_+) this is the focusing
    i q |U|^2 U nonlinearity.
    """
    c = 2 * j_bands
    t = np.zeros((c, c, c, c), dtype=complex)
    for n in range(j_bands):
        p, mn = 2 * n, 2 * n + 1
        for combo in ((p, p, mn), (p, mn, p), (mn, p, p)):
            t[(p,) + combo] = 1j * q / 3.0
        for combo in ((mn, mn, p), (mn, p, mn), (p, mn, mn)):
            t[(mn,) + combo] = -1j * q / 3.0
    return Susceptibility(order=3, tensor=t, name=f"cubic(q={q})", hamiltonian=hamiltonian)


def cubic_full(q: float = 1.0, j_bands: int = 1) -> Susceptibility:
    """Cubic term F_+ = i q (U_+ + U_-)^3, F_- = -i q (U_+ + U_-)^3.

    Unlike the conjugate cubic this mixes all sign patterns, so harmonic-type
    combinations appear and time averaging genuinely discards terms.
    """
    c = 2 * j_bands
    t = np.zeros((c, c, c, c), dtype=complex)
    for n in range(j_bands):
        p, mn = 2 * n, 2 * n + 1
        for a in (p, mn):
            for b in (p, mn):
                for d in (p, mn):
                    t[p, a, b, d] = 1j * q
                    t[mn, a, b, d] = -1j * q
    return Susceptibility(order=3, tensor=t, name=f"cubic_full(q={q})")


def quadratic_conjugate(q: float = 1.0, j_bands: int = 1) -> Susceptibility:
    """Quadratic term F_+ = i q (U_+ + U_-)^2, F_- = -i q (U_+ + U_-)^2."""
    c = 2 * j_bands
    t = np.zeros((c, c, c), dtype=complex)
    for n in range(j_bands):
        p, mn = 2 * n, 2 * n + 1
        for a in (p, mn):
            for b in (p, mn):
                t[p, a, b] = 1j * q
                t[mn, a, b] = -1j * q
    return Susceptibility(order=2, tensor=t, name=f"quadratic(q={q})")


def nonlinearity_from_config(cfg: dict, j_bands: int = 1) -> list[Susceptibility]:
    preset = cfg.get("preset", "cubic_conjugate")
    q = float(cfg.get("q", 1.0))
    if preset == "cubic_conjugate":
        return [cubic_conjugate(q, j_bands)]
    if preset == "cubic_full":
        return [cubic_full(q, j_bands)]
    if preset == "quadratic_conjugate":
        return [quadratic_conjugate(q, j_bands)]
    if preset == "none":
        return []
    raise ValueError(f"unknown nonlinearity preset {preset!r}")


# -- problem and solver configuration ----------------------------------------------

@dataclass
class SolverConfig:
    picard_tol: float = 1e-10
    picard_max_iter: int = 64
    substeps_per_rho: int = 10
    convolution_mode: str = "fft"  # 'fft' | 'direct-oracle'
    record_stride: Optional[int] = None

    def __post_init__(self):
        for name, types in (("picard_tol", (int, float)), ("substeps_per_rho", (int, float)),
                            ("picard_max_iter", int), ("record_stride", int)):
            v = 1 if name == "record_stride" and self.record_stride is None else getattr(self, name)
            if isinstance(v, bool) or not isinstance(v, types) or not 0 < v < math.inf:
                raise ValueError(f"{name} must be a positive finite "
                                 f"{'integer' if types is int else 'number'}, got {v!r}")
        if self.convolution_mode not in ("fft", "direct-oracle"):
            raise ValueError("convolution_mode must be 'fft' or 'direct-oracle'")


@dataclass
class EvolutionProblem:
    model: dsp.DispersionModel
    nonlinearity: Sequence[Susceptibility]
    rho: float
    tau_star: float
    grid: Grid
    initial: ModalField

    def __post_init__(self):
        if not (0.0 < self.rho <= 1.0):
            raise ValueError("rho must lie in (0, 1]")
        if self.tau_star <= 0:
            raise ValueError("tau_star must be positive")
        if self.initial.grid != self.grid:
            raise GridMismatch("initial data grid does not match problem grid")
        if self.initial.values.shape[0] != self.model.ncomp:
            raise ValueError("initial data component count does not match model")


# -- convolution kernels --------------------------------------------------------------

def _tensor_entries(tensor: np.ndarray):
    idx = np.argwhere(tensor != 0)
    return [(tuple(i), tensor[tuple(i)]) for i in idx]


def _entry_groups(terms):
    """Tensor entries of (tensor, arg_ids) terms grouped into the r-space products they need.

    Entry (i, j_1..j_m) of a term multiplies component j_t of argument
    ``arg_ids[t]``.  Pointwise products commute, so entries (of any of the
    terms) whose (argument, component) factors are permutations of one
    another share one product, which is accumulated into every output
    component with the summed coefficient.  Returns (factors, coeffs): a list
    of G sorted factor tuples and the (C, G) coefficients of each product in
    each output component.
    """
    groups: dict = {}
    for tensor, arg_ids in terms:
        for entry, coeff in _tensor_entries(tensor):
            factors = tuple(sorted(zip(arg_ids, entry[1:])))
            outs = groups.setdefault(factors, np.zeros(tensor.shape[0], dtype=complex))
            outs[entry[0]] += coeff
    kept = [(f, c) for f, c in groups.items() if c.any()]
    coeffs = np.zeros((terms[0][0].shape[0], len(kept)), dtype=complex)
    for g, (_, c) in enumerate(kept):
        coeffs[:, g] = c
    return [f for f, _ in kept], coeffs


def _pointwise_products(r_args: dict, factors, out: np.ndarray) -> np.ndarray:
    """(B, G, X) products, one per factor tuple, written to ``out``.

    Factor (a, c) of a tuple is the (B, X) r-space array ``r_args[a, c]``.
    """
    for g, fac in enumerate(factors):
        np.multiply(r_args[fac[0]], r_args[fac[1]], out=out[:, g])
        for f in fac[2:]:
            out[:, g] *= r_args[f]
    return out


class _ConvolutionPlan:
    """m-fold convolutions of spectra given on sets of grid nodes.

    ``nodes`` maps each argument key to the flat grid indices its spectra
    are given on, or None for the whole grid; ``terms`` maps each output key
    (also a key of ``nodes``) to its (tensor, argument keys) terms, evaluated
    on that key's nodes.  The entries of all terms of an output key are
    grouped by ``_entry_groups``, summed in r-space through one coefficient
    ``matmul`` and forward-transformed once.

    Spectra sit on a transform grid with the grid's dk and P nodes per axis,
    in ``np.fft`` order: node j at slot (j - n/2) mod P, the centred index
    modulo P, so the circular convolution adds centred indices like the
    linear one; the whole grid goes in and out through ``pad_spectrum`` and
    ``crop_spectrum`` in that order (2^dim block copies).  P is the
    smallest power of two per axis at which no wrapped product lands on a
    gathered output node and no argument wraps onto itself, judged on index
    boxes; on the whole grid that is (m+1)n/2 nodes or more.  Products whose
    index box misses their output key's box are dropped before P is sized:
    they vanish on every output node.

    The plan keeps two work arrays per key across calls, each sized to the
    largest batch seen: a zeroed input buffer per argument key, of which
    only the slots are rewritten, and a (B, G, X) products array per output
    key, which every call overwrites.  Fresh arrays of that size would be
    mapped and page-faulted anew on every call.  Nothing a call returns
    views either of them.
    """

    def __init__(self, grid: Grid, nodes: dict, terms: dict):
        self.grid = grid
        # centred (dim, nodes) index of every node of each key, and its (lo, hi) box
        centred = {
            key: np.array(np.unravel_index(np.arange(math.prod(grid.n)) if idx is None else idx,
                                           grid.shape)) - np.array(grid.n)[:, None] // 2
            for key, idx in nodes.items()
        }
        box = {key: (c.min(axis=1), c.max(axis=1)) for key, c in centred.items() if c.size}
        need = np.full(grid.dim, 4)
        # outs[key]: (factors, (rows, G) coefficients, the output components ``rows``);
        # comps[key]: the argument components the products read
        self.outs: dict = {}
        comps: dict = {}
        for key, key_terms in terms.items():
            factors, coeffs = _entry_groups(key_terms) if key_terms else ([], None)
            # a product's index box is the sum of its arguments' boxes; one that
            # misses the output box on some axis is zero on every output node
            kept = []
            for g, fac in enumerate(factors):
                lo = sum(box[a][0] for a, _ in fac)
                hi = sum(box[a][1] for a, _ in fac)
                if np.any(hi < box[key][0]) or np.any(lo > box[key][1]):
                    continue
                kept.append(g)
                for a, c in fac:
                    comps.setdefault(a, set()).add(int(c))
                # P exceeds every argument's width and the largest distance
                # from a product index to a gathered output index, either way
                need = np.max([need, *(box[a][1] - box[a][0] + 1 for a, _ in fac),
                               hi - box[key][0] + 1, box[key][1] - lo + 1], axis=0)
            if not kept:
                continue
            factors, coeffs = [factors[g] for g in kept], coeffs[:, kept]
            self.ncomp = coeffs.shape[0]
            rows = np.nonzero(coeffs.any(axis=1))[0]
            self.outs[key] = (factors, coeffs[rows], rows)
        self.comps = {key: sorted(cs) for key, cs in comps.items()}
        size = tuple(1 << int(v - 1).bit_length() for v in need)
        self.tgrid = Grid(grid.dim, size,
                          tuple(km * p / n for km, p, n in zip(grid.k_max, size, grid.n)))
        # flat transform-grid slots of each key not on the whole grid
        self.slots = {key: np.ravel_multi_index(tuple(c % np.array(size)[:, None]), size)
                      for key, c in centred.items() if nodes[key] is not None}
        self._inputs: dict = {}
        self._products_out: dict = {}

    def __call__(self, values: dict) -> dict:
        """Convolutions of the spectra ``values`` on every output key.

        ``values[key]`` holds (B, c, *nodes) spectra of an argument key, with
        c either all C components or those of ``comps[key]``, and *nodes the
        grid shape for a whole-grid key, else the key's node count.  Returns
        per output key with products its (B, C, *nodes) values; rows of
        components no term forms are zero.
        """
        if not self.outs:
            return {}
        tg = self.tgrid
        prods = self._products(values)
        out = {}
        for key, (_, coeffs, rows) in self.outs.items():
            b, _, x = prods[key].shape
            out_r = np.matmul(coeffs, prods[key]).reshape((b, len(rows)) + tg.shape)
            spec = samples_to_spectrum(out_r, tg, centred=False, out=out_r)
            if key in self.slots:
                vals = spec.reshape(b, len(rows), x)[..., self.slots[key]]
            else:
                vals = crop_spectrum(spec, self.grid, centred=False)
            if len(rows) < self.ncomp:
                full = np.zeros((b, self.ncomp) + vals.shape[2:], dtype=complex)
                full[:, rows] = vals
                vals = full
            out[key] = vals
        return out

    def _products(self, values: dict) -> dict:
        """Per output key its (B, G, X) r-space products on the transform grid.

        The products are views of the key's kept products array.  Kept apart
        from ``__call__`` so the r-space arguments are freed before the
        forward transforms, which lowers the solver's peak memory.
        """
        tg = self.tgrid
        x = int(np.prod(tg.shape))
        b = next(iter(values.values())).shape[0]
        r_args = {}
        for key, comps in self.comps.items():
            v = values[key]
            if v.shape[1] != len(comps):
                v = v[:, comps]
            buf = self._inputs.get(key)
            if buf is None or buf.shape[0] < b:
                buf = self._inputs[key] = np.zeros((b, len(comps)) + tg.shape, dtype=complex)
            buf = buf[:b]  # zero but at the slots, which every call rewrites
            if key in self.slots:
                buf.reshape(b, -1, x)[..., self.slots[key]] = v
            else:
                pad_spectrum(v, self.grid, tg.shape, centred=False, out=buf)
            r = spectrum_to_samples(buf, tg, centred=False).reshape(b, -1, x)
            r_args.update(((key, c), r[:, i]) for i, c in enumerate(comps))
        prods = {}
        for key, (factors, _, _) in self.outs.items():
            buf = self._products_out.get(key)
            if buf is None or buf.shape[0] < b:
                buf = self._products_out[key] = np.empty((b, len(factors), x), dtype=complex)
            prods[key] = _pointwise_products(r_args, factors, buf[:b])
        return prods


def _chi_direct(args, susceptibility: Susceptibility, grid: Grid) -> np.ndarray:
    """Literal (m-1)d-fold convolution sum.  Small grids only."""
    if max(grid.n) > 64:
        raise ValueError("direct-oracle convolution restricted to grids <= 64 nodes per axis")
    m = susceptibility.order
    ncomp = args[0].shape[0]
    shape = grid.shape
    weight = (grid.cell / (2.0 * np.pi) ** grid.dim) ** (m - 1)
    out = np.zeros((ncomp,) + shape, dtype=complex)
    all_nodes = list(np.ndindex(*shape))
    half = np.array([n // 2 for n in shape])
    mesh = grid.k_mesh()

    if susceptibility.tensor is not None and susceptibility.callback is None:
        entries = _tensor_entries(susceptibility.tensor)
        for combo in np.ndindex(*(shape * (m - 1))):
            nodes = [np.array(combo[grid.dim * t : grid.dim * (t + 1)]) for t in range(m - 1)]
            offset = sum(nodes) - (m - 1) * half
            # prefactor per tensor entry is independent of the output node
            pref = []
            for entry, coeff in entries:
                i, js = entry[0], entry[1:]
                val = coeff
                for t in range(m - 1):
                    val = val * args[t][(js[t],) + tuple(nodes[t])]
                if val != 0:
                    pref.append((i, js[m - 1], val))
            if not pref:
                continue
            if grid.dim == 1:
                n0 = shape[0]
                i_idx = np.arange(n0)
                last = i_idx - offset[0]
                ok = (last >= 0) & (last < n0)
                for i, jlast, val in pref:
                    out[i, i_idx[ok]] += val * args[m - 1][jlast, last[ok]]
            else:
                for i_node in all_nodes:
                    last = np.array(i_node) - offset
                    if np.any(last < 0) or np.any(last >= shape):
                        continue
                    for i, jlast, val in pref:
                        out[(i,) + i_node] += val * args[m - 1][(jlast,) + tuple(last)]
        return out * weight

    # callback susceptibility: tensor varies with (k, kvec)
    for combo in np.ndindex(*(shape * (m - 1))):
        nodes = [np.array(combo[grid.dim * t : grid.dim * (t + 1)]) for t in range(m - 1)]
        offset = sum(nodes) - (m - 1) * half
        kvecs = [np.array([mesh[(a,) + tuple(nd)] for a in range(grid.dim)]) for nd in nodes]
        for i_node in all_nodes:
            last = np.array(i_node) - offset
            if np.any(last < 0) or np.any(last >= shape):
                continue
            k_out = np.array([mesh[(a,) + i_node] for a in range(grid.dim)])
            k_last = np.array([mesh[(a,) + tuple(last)] for a in range(grid.dim)])
            tensor = np.asarray(
                susceptibility.callback(k_out, kvecs + [k_last]), dtype=complex
            )
            vecs = [args[t][(slice(None),) + tuple(nodes[t])] for t in range(m - 1)]
            vecs.append(args[m - 1][(slice(None),) + tuple(last)])
            contracted = tensor
            for v in vecs:
                contracted = np.tensordot(contracted, v, axes=([1], [0]))
            out[(slice(None),) + i_node] += contracted
    return out * weight


def apply_nonlinearity(
    fields: Sequence[ModalField],
    susceptibility: Susceptibility,
    mode: str = "fft",
) -> ModalField:
    """Evaluate one m-linear convolution term on m argument fields."""
    if len(fields) != susceptibility.order:
        raise ValueError("argument count must equal the susceptibility order")
    grid = require_same_grid(*fields)
    args = [f.values for f in fields]
    if mode == "direct-oracle" or susceptibility.callback is not None:
        out = _chi_direct(args, susceptibility, grid)
    else:
        # one key per distinct field: identical fields are transformed once
        # and share products
        distinct = list({id(f): f for f in fields}.values())
        arg_ids = [next(r for r, d in enumerate(distinct) if d is f) for f in fields]
        plan = _ConvolutionPlan(grid, dict.fromkeys(range(len(distinct))),
                                {0: [(susceptibility.tensor, arg_ids)]})
        conv = plan({r: d.values[None] for r, d in enumerate(distinct)})
        out = conv[0][0] if conv else np.zeros_like(fields[0].values)
    return ModalField(grid, out, frame=fields[0].frame)


# -- interaction phase ------------------------------------------------------------------

def interaction_phase(model: dsp.DispersionModel, n: int, zeta: int, bands, signs, k, k_args) -> float:
    """Frequency mismatch of one decorated interaction at given wavevectors.

    ``k_args`` holds either the m-1 free argument wavevectors (the last is
    derived from the convolution constraint) or all m of them.
    """
    bands = list(bands)
    signs = list(signs)
    m = len(bands)
    kv = np.atleast_1d(np.asarray(k, dtype=float))
    k_list = [np.atleast_1d(np.asarray(x, dtype=float)) for x in k_args]
    if len(k_list) == m - 1:
        k_list.append(kv - sum(k_list))
    if len(k_list) != m:
        raise ValueError("k_args must have m-1 or m entries")
    phase = zeta * dsp.eval_omega(model, n, +1, zeta * kv)
    for nb, zb, kb in zip(bands, signs, k_list):
        phase -= zb * dsp.eval_omega(model, nb, +1, zb * kb)
    return float(phase)


# -- propagator tables ----------------------------------------------------------------

class PropagatorTables:
    """Eigen data of the symbol on a grid, and the frame map e^{-i tau L/rho}.

    The map turns each eigencomponent by a unit phase.  ``phases`` and
    ``chunk_phases`` give those factors, ``apply`` rotates by them, and
    every map back passes their conjugate, which is bitwise e^{+i tau L/rho}.
    """

    def __init__(self, model: dsp.DispersionModel, grid: Grid, rho: float):
        self.rho = rho
        omega, basis, _ = dsp.eigensystem_tables(model, grid)
        c, x = omega.shape[0], int(np.prod(grid.shape))
        self.omega_flat = omega.reshape(c, x)  # (C, X) in component layout
        self.basis_flat = None if basis is None else basis.reshape(x, c, c)
        self._step_table = None  # (h, e^{-i j h L/rho} for j < chunk length)

    def chunk_phases(self, t0: float, h: float, b: int) -> np.ndarray:
        """e^{-i (t0 + j h) L/rho} for j < b on the whole grid, shape (b, C, X).

        Factored as e^{-i t0 L/rho} times a table of e^{-i j h L/rho} that is
        cached for the mesh step ``h``, so a solve evaluates one (B, C, X)
        exponential instead of two per chunk.  Callers pass ``h`` itself:
        ``taus[1] - taus[0]`` differs in its last bits from chunk to chunk.
        """
        if (self._step_table is None or self._step_table[0] != h
                or self._step_table[1].shape[0] < b):
            j = np.arange(b)
            table = np.exp((-1j * h / self.rho) * j[:, None, None] * self.omega_flat[None])
            self._step_table = (h, table)
        start = np.exp((-1j * t0 / self.rho) * self.omega_flat)
        return self._step_table[1][:b] * start

    def phases(self, taus: np.ndarray, nodes: np.ndarray | None = None,
               comps=None) -> np.ndarray:
        """The (B, c, nodes) factors e^{-i tau L/rho} of ``apply``, by direct exponentials."""
        omega = self.omega_flat if nodes is None else self.omega_flat[:, nodes]
        if self.basis_flat is None and comps is not None:
            omega = omega[comps]
        return np.exp((-1j / self.rho) * taus[:, None, None] * omega[None])

    def apply(self, values: np.ndarray, phases: np.ndarray,
              nodes: np.ndarray | None = None, comps=None) -> np.ndarray:
        """Batched spectra (B, C, *shape) with each eigencomponent turned by ``phases``.

        ``phases`` come from ``phases`` or ``chunk_phases`` with the same
        ``nodes`` and ``comps``, or are their conjugate for the map back.
        With ``nodes`` (flat grid indices) the spectra are given on those
        nodes only, as (B, C, len(nodes)) values.  With ``comps`` only those
        component rows of the result are returned; a scalar symbol then
        takes their phases only, a matrix symbol still rotates every row.
        """
        b, c = values.shape[0], values.shape[1]
        flat = values.reshape(b, c, -1)
        if self.basis_flat is None:
            out = (flat if comps is None else flat[:, comps]) * phases
        else:
            basis = self.basis_flat if nodes is None else self.basis_flat[nodes]
            coeff = np.einsum("xac,bax->bcx", basis.conj(), flat)
            out = np.einsum("xac,bcx->bax", basis, coeff * phases)
            if comps is not None:
                out = out[:, comps]
        return out.reshape((b, out.shape[1]) + values.shape[2:])


# -- trajectories -----------------------------------------------------------------------

@dataclass
class Trajectory:
    problem: EvolutionProblem
    times: np.ndarray          # kept sample times
    fields: list               # slow-frame ModalFields at kept times
    h_tau: float
    n_steps: int
    iterations: int
    distances: list

    def fast_field(self, i: int) -> ModalField:
        return fast_slow_transform(self.fields[i], self.problem.model, self.problem.rho,
                                   self.times[i], "to_fast")

    def sup_l1(self, a: float = 0.0) -> float:
        return max(l1_norm(f, a) for f in self.fields)


def fast_slow_transform(f: ModalField, model: dsp.DispersionModel, rho: float, tau: float,
                        direction: str) -> ModalField:
    """Map between slow and fast frames at time tau."""
    if direction not in ("to_fast", "to_slow"):
        raise ValueError("direction must be 'to_fast' or 'to_slow'")
    frame, target = ("slow", "fast") if direction == "to_fast" else ("fast", "slow")
    if f.frame != frame:
        raise ValueError(f"{direction} expects a {frame}-frame field")
    tables = PropagatorTables(model, f.grid, rho)
    phases = tables.phases(np.array([tau]))
    if direction == "to_slow":
        phases = np.conj(phases)
    return ModalField(f.grid, tables.apply(f.values[None], phases)[0], frame=target)


def modal_project(f: ModalField, model: dsp.DispersionModel, n: int, zeta: int) -> ModalField:
    """Band projection; singular nodes are zeroed and counted."""
    vals = project_band_values(f.values, model, f.grid, n, zeta)
    _, _, mask = dsp.eigensystem_tables(model, f.grid)
    if mask.any():
        vals = vals * (~mask)
    out = ModalField(f.grid, vals, frame=f.frame)
    out.zeroed_nodes = int(mask.sum())
    return out


# -- the Picard solver ---------------------------------------------------------------------

def time_mesh(problem: EvolutionProblem, config: SolverConfig) -> tuple[float, int]:
    h = min(problem.tau_star / 16.0, problem.rho / config.substeps_per_rho)
    n = max(16, math.ceil(problem.tau_star / h))
    return problem.tau_star / n, n


def _problem_plan(problem: EvolutionProblem) -> _ConvolutionPlan:
    """The problem's tensor terms on one key "u" covering the whole grid."""
    terms = [(s.tensor, ["u"] * s.order) for s in problem.nonlinearity if s.tensor is not None]
    return _ConvolutionPlan(problem.grid, {"u": None}, {"u": terms})


def _slow_rhs_chunk(values: np.ndarray, taus: np.ndarray, h: float,
                    problem: EvolutionProblem, tables: PropagatorTables,
                    plan: _ConvolutionPlan, mode: str) -> np.ndarray:
    """G(u)(tau) = e^{+i tau L/rho} F(e^{-i tau L/rho} u) for a chunk of times.

    ``taus`` must be ``taus[0] + h * arange(B)``; ``plan`` comes from
    ``_problem_plan``.
    """
    phases = tables.chunk_phases(taus[0], h, values.shape[0])
    fast = tables.apply(values, phases)
    out = plan({"u": fast})["u"] if mode == "fft" and plan.outs else np.zeros_like(values)
    for susc in problem.nonlinearity:
        if mode == "direct-oracle" or susc.callback is not None:
            for b in range(values.shape[0]):
                out[b] += _chi_direct([fast[b]] * susc.order, susc, problem.grid)
    return tables.apply(out, np.conj(phases, out=phases))


def _trapezoid_chunk(out: np.ndarray, h0: np.ndarray, integral: np.ndarray, g_prev,
                     g: np.ndarray, h: float) -> np.ndarray:
    """Write h0 plus the composite-trapezoid integral at each node of a chunk.

    ``integral`` is the value at the node before the chunk, whose integrand
    is ``g_prev`` (None on the first chunk, where the integral starts at 0).
    The steps go into ``out``; one loop over its rows adds each to the
    running sum (in the order of ``np.cumsum``) and writes h0 plus the sum
    back.  Returns the integral at the chunk's last node.
    """
    out[0] = 0.0 if g_prev is None else g_prev + g[0]
    np.add(g[:-1], g[1:], out=out[1:])
    out *= 0.5 * h
    acc = np.full(g.shape[1:], integral, dtype=complex)
    for row in out:
        np.add(acc, row, out=acc)
        np.add(h0, acc, out=row)
    return acc


def _node_l1(values: np.ndarray, cell: float) -> np.ndarray:
    """L1 norm (as ``l1_norm_values``) of each slice b of (B, C, ...) values, shape (B,)."""
    mod = np.sqrt((values.real ** 2 + values.imag ** 2).sum(axis=1))
    return mod.reshape(values.shape[0], -1).sum(axis=1) * cell


def _trapezoid_pass(rhs_chunk, state: dict, h0: dict, h: float, chunk: int, cell: float,
                    update: bool) -> dict:
    """One composite-trapezoid pass: h0 + integral_0^tau rhs(state) on the mesh h j.

    ``state`` maps each key to (n+1, C, nodes) values, ``h0`` to (C, nodes).
    ``rhs_chunk(states, taus)`` maps the state on a chunk of at most
    ``chunk`` mesh nodes to the integrand of every key, in new arrays.  Each
    key's new chunk goes into a new chunk-sized array.  With ``update`` the
    pass measures it against the state's chunk and then writes it over that
    chunk: a chunk's integrand reads only that chunk of the state, and later
    chunks need only the running integral and the last integrand.  Without
    ``update`` it measures the new values themselves and leaves ``state`` as
    it is.
    Returns per key the largest node L1 norm measured; the pass stops at the
    first non-finite one.
    """
    taus = h * np.arange(next(iter(state.values())).shape[0])
    integral = dict.fromkeys(h0, 0.0)
    g_prev = dict.fromkeys(h0)
    sup = dict.fromkeys(h0, 0.0)
    for i0 in range(0, taus.size, chunk):
        i1 = min(i0 + chunk, taus.size)
        g = rhs_chunk({key: v[i0:i1] for key, v in state.items()}, taus[i0:i1])
        for key, gk in g.items():
            new = np.empty_like(state[key][i0:i1])
            integral[key] = _trapezoid_chunk(new, h0[key], integral[key], g_prev[key], gk, h)
            g_prev[key] = gk[-1].copy()
            d = float(_node_l1(new - state[key][i0:i1] if update else new, cell).max())
            if not d <= sup[key]:  # a NaN replaces the sup too
                sup[key] = d
            if not math.isfinite(d):
                return sup
            if update:
                state[key][i0:i1] = new
    return sup


def _picard_trapezoid(rhs_chunk, h0: dict, n: int, h: float, cell: float,
                      config: SolverConfig, chunk: int) -> tuple[dict, int, list]:
    """Picard fixed point of u = h0 + integral_0^tau rhs(u) on the mesh h j, j <= n.

    The state maps each key of ``h0`` to (n+1, C, nodes) values, h0[key] at
    every node to start.  It is the only trajectory held: each iteration is
    one updating ``_trapezoid_pass``, which rewrites it chunk by chunk, and
    its distance is the largest node L1 norm of the change over all keys.
    The iterates are bitwise those of an old/new pair of buffers, since a
    chunk's integrand reads only that chunk of the previous iterate.  They
    do depend on ``chunk``: the propagator phases are factored per chunk.
    With ``rhs_chunk`` None (no nonlinearity) the constant start is returned.
    Raises PicardDiverged on a non-finite distance (last in the history) or
    when distances grow three times in a row to above ten times their
    minimum, and PicardMaxIter when ``config.picard_tol`` is never reached.
    A solve that converges after its distances grew warns once with the
    largest observed ratio d_{k+1}/d_k.  Returns (state, iterations, distances).
    """
    state = {key: np.broadcast_to(v, (n + 1,) + v.shape).copy() for key, v in h0.items()}
    distances: list[float] = []
    if rhs_chunk is None:
        return state, 0, distances
    grow_run = 0
    grew = False
    for it in range(1, config.picard_max_iter + 1):
        dist = float(np.max(list(
            _trapezoid_pass(rhs_chunk, state, h0, h, chunk, cell, update=True).values()
        )))
        if not math.isfinite(dist):
            raise PicardDiverged(f"non-finite Picard iterate (distance {dist})",
                                 distances + [dist])
        distances.append(dist)
        if dist <= config.picard_tol:
            if grew:
                ratio = max(b / a for a, b in zip(distances, distances[1:]))
                warnings.warn(f"Picard distances grew before converging: largest observed "
                              f"ratio d[k+1]/d[k] = {ratio:.3g}", stacklevel=3)
            return state, it, distances
        if len(distances) >= 2 and dist > distances[-2]:
            grow_run += 1
            grew = True
            if grow_run >= 3 and dist > 10.0 * min(distances):
                raise PicardDiverged(
                    f"Picard distances grew for {grow_run} consecutive iterations", distances
                )
        else:
            grow_run = 0
    raise PicardMaxIter(f"no convergence within {config.picard_max_iter} iterations", distances)


def _kept_samples(n: int, record_stride: int | None) -> list:
    """Mesh nodes 0..n a solve keeps: every stride-th (by default n // 128, at least 1) and n."""
    stride = record_stride or max(1, n // 128)
    return sorted(set(range(0, n + 1, stride)) | {n})


def solve_integrated(problem: EvolutionProblem, config: SolverConfig | None = None) -> Trajectory:
    """Picard solution of the integrated slow-frame equation."""
    config = config or SolverConfig()
    h, n = time_mesh(problem, config)
    tables = PropagatorTables(problem.model, problem.grid, problem.rho)
    plan = _problem_plan(problem)
    shape = problem.initial.values.shape

    def rhs_chunk(states: dict, taus: np.ndarray) -> dict:
        u = states["u"]
        g = _slow_rhs_chunk(u.reshape(u.shape[:1] + shape), taus, h, problem, tables,
                            plan, config.convolution_mode)
        return {"u": g.reshape(u.shape)}

    states, iterations, distances = _picard_trapezoid(
        rhs_chunk if problem.nonlinearity else None,
        {"u": problem.initial.values.reshape(shape[0], -1)},
        n, h, problem.grid.cell, config, DEFAULT_CHUNK,
    )
    u = states["u"].reshape((n + 1,) + shape)
    keep = _kept_samples(n, config.record_stride)
    fields = [ModalField(problem.grid, u[i].copy(), frame="slow") for i in keep]
    return Trajectory(
        problem=problem,
        times=h * np.array(keep),
        fields=fields,
        h_tau=h,
        n_steps=n,
        iterations=iterations,
        distances=distances,
    )


def integrate_slow_midpoint(problem: EvolutionProblem, n_steps: int,
                            record_stride: int | None = None) -> Trajectory:
    """Independent second-order time integrator for cross-checking the solver.

    Explicit midpoint stepping of the slow-frame ODE; the linear propagator
    is applied exactly through the frame phases, so this is an exponential
    midpoint rule for the fast field.
    """
    h = problem.tau_star / n_steps
    tables = PropagatorTables(problem.model, problem.grid, problem.rho)
    plan = _problem_plan(problem)

    def rhs(vals: np.ndarray, tau: float) -> np.ndarray:
        return _slow_rhs_chunk(vals[None], np.array([tau]), h, problem, tables, plan, "fft")[0]

    u = problem.initial.values.copy()
    keep = _kept_samples(n_steps, record_stride)
    fields = [ModalField(problem.grid, u.copy(), frame="slow")]
    for i in range(n_steps):
        t = i * h
        k1 = rhs(u, t)
        u_mid = u + 0.5 * h * k1
        k2 = rhs(u_mid, t + 0.5 * h)
        u = u + h * k2
        if i + 1 in keep:
            fields.append(ModalField(problem.grid, u.copy(), frame="slow"))
    return Trajectory(
        problem=problem,
        times=h * np.array(keep),
        fields=fields,
        h_tau=h,
        n_steps=n_steps,
        iterations=0,
        distances=[],
    )


def trajectory_distance(a: Trajectory, b: Trajectory) -> float:
    """Sup over shared sample times of the L1 distance."""
    times_b = {round(t, 12): i for i, t in enumerate(b.times)}
    dist = 0.0
    shared = 0
    for i, t in enumerate(a.times):
        j = times_b.get(round(t, 12))
        if j is None:
            continue
        shared += 1
        dist = max(dist, l1_norm_values(a.fields[i].values - b.fields[j].values, a.problem.grid))
    if shared < 2:
        raise ValueError("trajectories share too few sample times to compare")
    return dist


__all__ = [
    "Susceptibility",
    "cubic_conjugate",
    "cubic_full",
    "quadratic_conjugate",
    "nonlinearity_from_config",
    "SolverConfig",
    "EvolutionProblem",
    "Trajectory",
    "PropagatorTables",
    "apply_nonlinearity",
    "interaction_phase",
    "fast_slow_transform",
    "modal_project",
    "solve_integrated",
    "integrate_slow_midpoint",
    "trajectory_distance",
    "time_mesh",
]
