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
    pointwise_modulus,
    require_same_grid,
    samples_to_spectrum,
    spectrum_to_samples,
    transform_size,
)
from .wavepacket import project_band_values

DEFAULT_CHUNK = 64
# bytes of the rows a convolution plan multiplies and sums at a time (one slab)
_SLAB_BYTES = 1 << 20


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


def _product_schedule(lists) -> list:
    """The steps that form the products of each factor list j in its (B, G_j, X) array.

    A factor is an int, the row of its (B, X) r-space array.  Returns steps
    (left, right, (j, g)): product g of list j gets left times right, where
    ``right`` is a factor and ``left`` a factor for the first step of a
    product or else a product slot (j', g').  With ``right`` None the step
    copies slot ``left``.  A product (f0, f1, ..., fm) is the left fold
    ((f0 f1) f2) ... fm, and every product and every shared prefix is
    multiplied once, whichever lists hold it: a prefix goes into the slot of
    the first product that holds it, the other products derive from it, and
    that slot is finished last.  No step reads a slot another step has left
    stale.
    """
    slots: dict = {}  # product -> the slots that hold it
    for j, factors in enumerate(lists):
        for g, fac in enumerate(factors):
            slots.setdefault(fac, []).append((j, g))
    children: dict = {}  # prefix -> its one-factor extensions, in order of first use
    for fac in slots:
        for i in range(2, len(fac) + 1):
            kids = children.setdefault(fac[:i - 1], [])
            if fac[:i] not in kids:
                kids.append(fac[:i])

    def slot(prefix):
        # a product keeps its own slot; a shared prefix lives in the slot of
        # the first product below it
        while prefix not in slots:
            prefix = children[prefix][0]
        return slots[prefix][0]

    steps = []

    def grow(prefix, left):
        here = None if len(prefix) == 1 else slot(prefix)
        # the child that finishes this slot goes last: the others read it first
        for kid in sorted(children.get(prefix, []), key=lambda k: slot(k) == here):
            steps.append((left, kid[-1], slot(kid)))
            steps.extend((slot(kid), None, copy) for copy in slots.get(kid, [])[1:])
            grow(kid, slot(kid))

    for root in dict.fromkeys(fac[:1] for fac in slots):
        grow(root, root[0])
    return steps


def _stack_rows(sizes: dict) -> tuple[dict, int]:
    """Consecutive row ranges of a stack, one slice per key of ``sizes``, and its height."""
    rows, height = {}, 0
    for key, size in sizes.items():
        rows[key], height = slice(height, height + size), height + size
    return rows, height


class _ConvolutionPlan:
    """m-fold convolutions of spectra given on sets of grid nodes.

    ``nodes`` maps each argument key to the flat grid indices its spectra
    are given on, or None for the whole grid; ``terms`` maps each output key
    (also a key of ``nodes``) to its (tensor, argument keys) terms, evaluated
    on that key's nodes.  The entries of all terms of an output key are
    grouped by ``_entry_groups``, summed in r-space through one coefficient
    ``matmul`` and forward-transformed.

    Spectra sit on a transform grid with the grid's dk and P nodes per axis,
    in ``np.fft`` order: node j at slot (j - n/2) mod P, the centred index
    modulo P, so the circular convolution adds centred indices like the
    linear one; the whole grid goes in and out through ``pad_spectrum`` and
    ``crop_spectrum`` in that order (2^dim block copies).  P is the
    smallest ``transform_size`` per axis at which no wrapped product lands
    on a gathered output node and no argument wraps onto itself, judged on
    index boxes; on the whole grid that is (m+1)n/2 nodes or more (n = 2048:
    3072 at order 2, 4096 at order 3, 5184 at order 4), on 129-node windows
    of cubic products 288.  Products whose index box misses their output
    key's box are dropped before P is sized: they vanish on every output
    node.

    Every key shares that transform grid, so a call makes one inverse and
    one forward transform, both in place in one stacked (rows, B, X) buffer,
    component-major so that each row is one contiguous (B, X) block: it
    takes the zero-padded argument rows of all keys, their r-space samples
    until the products are formed, then the ``matmul`` results of all output
    keys and their spectra.  Between the transforms the batch goes in slabs
    of ``_slab`` rows, sized so that a slab's argument, sum and product rows
    fit in ``_SLAB_BYTES`` and stay in cache: per slab the steps of
    ``_product_schedule`` fill one (G, slab, X) products array per distinct
    factor list (output keys with the same list share it), and each output
    key's sums are one flat (rows, G) x (G, slab X) ``matmul`` over the
    slab's spent argument rows.  Each key's gather or crop then writes
    straight into its result.  The buffer is kept across calls, sized to the
    largest batch seen, and the products arrays, sized to one slab: fresh
    arrays would be mapped and page-faulted anew on every call.  One buffer
    rather than an input buffer kept zero plus a work array costs a zero
    fill per call, but a second kept array stays resident while the
    caller's own arrays peak and raised the solver's peak memory.  Nothing a
    call returns views any of them.
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
        size = tuple(transform_size(v) for v in need)
        self.tgrid = Grid(grid.dim, size,
                          tuple(km * p / n for km, p, n in zip(grid.k_max, size, grid.n)))
        # flat transform-grid slots of each key not on the whole grid
        self.slots = {key: np.ravel_multi_index(tuple(c % np.array(size)[:, None]), size)
                      for key, c in centred.items() if nodes[key] is not None}
        # the rows of each argument key in the input stack and of each output
        # key in the output stack
        self._arg_rows, self._n_in = _stack_rows({key: len(cs) for key, cs in self.comps.items()})
        self._out_rows, self._n_out = _stack_rows({key: len(r)
                                                   for key, (_, _, r) in self.outs.items()})
        row = {(key, c): self._arg_rows[key].start + i
               for key, cs in self.comps.items() for i, c in enumerate(cs)}
        # one products array per distinct factor list, filled by one schedule
        # on the input rows of the factors
        self._lists = list(dict.fromkeys(tuple(f) for f, _, _ in self.outs.values()))
        self._list_of = {key: self._lists.index(tuple(f)) for key, (f, _, _) in self.outs.items()}
        self._steps = _product_schedule([[tuple(row[f] for f in fac) for fac in factors]
                                         for factors in self._lists])
        # per output key, the runs of consecutive components: (block rows, components)
        self._runs = {}
        for key, (_, _, rows) in self.outs.items():
            cuts = np.nonzero(np.diff(rows) != 1)[0] + 1
            self._runs[key] = [(slice(i[0], i[-1] + 1), slice(rows[i[0]], rows[i[-1]] + 1))
                               for i in np.split(np.arange(len(rows)), cuts)]
        # batch rows per slab: its argument, sum and product rows fit in _SLAB_BYTES
        per_row = (self._n_in + self._n_out + sum(map(len, self._lists))) * math.prod(size) * 16
        self._slab = max(1, _SLAB_BYTES // max(per_row, 1))
        self._buffer = None
        self._products: list = []

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
        x = math.prod(tg.shape)
        b = next(iter(values.values())).shape[0]
        n_in, n_out = self._n_in, self._n_out
        size = max(n_in, n_out) * b * x
        if self._buffer is None or self._buffer.size < size:
            self._buffer = np.empty(size, dtype=complex)
            self._products = [np.empty((len(factors), min(self._slab, b), x), dtype=complex)
                              for factors in self._lists]
        buf = self._buffer[:size].reshape(-1, b, x)
        inputs = buf[:n_in]
        inputs.fill(0.0)
        for key, comps in self.comps.items():
            v = values[key]
            if v.shape[1] != len(comps):
                v = v[:, comps]
            block = inputs[self._arg_rows[key]]
            if key in self.slots:
                block[..., self.slots[key]] = v.swapaxes(0, 1)
            else:
                pad_spectrum(v.swapaxes(0, 1), self.grid, tg.shape, centred=False,
                             out=block.reshape(block.shape[:2] + tg.shape))
        r = inputs.reshape((n_in, b) + tg.shape)
        spectrum_to_samples(r, tg, centred=False, out=r)
        for s in range(0, b, self._slab):
            e = min(s + self._slab, b)
            prods = [p[:, :e - s] for p in self._products]
            for left, right, (j, g) in self._steps:
                # operands: an input row (an int) or a product slot (j, g)
                src = buf[left, s:e] if isinstance(left, int) else prods[left[0]][left[1]]
                if right is None:
                    np.copyto(prods[j][g], src)
                else:
                    np.multiply(src, buf[right, s:e], out=prods[j][g])
            # the slab's r-space arguments are spent: its rows take the sums
            for key, (_, coeffs, _) in self.outs.items():
                sums = buf[self._out_rows[key], s:e].reshape(len(coeffs), -1)
                assert np.may_share_memory(sums, buf)  # a reshape copy would drop the sums
                p = prods[self._list_of[key]]
                np.matmul(coeffs, p.reshape(len(p), -1), out=sums)
        spec = buf[:n_out].reshape((n_out, b) + tg.shape)
        samples_to_spectrum(spec, tg, centred=False, out=spec)
        out = {}
        for key, (_, _, rows) in self.outs.items():
            nodes = (len(self.slots[key]),) if key in self.slots else self.grid.shape
            full = len(rows) == self.ncomp
            out[key] = (np.empty if full else np.zeros)((b, self.ncomp) + nodes, dtype=complex)
            # each run of consecutive output components is one (rows, B, *nodes) view
            dst, block = out[key].swapaxes(0, 1), spec[self._out_rows[key]]
            for src, comps in self._runs[key]:
                if key in self.slots:
                    dst[comps] = block[src].reshape(-1, b, x)[..., self.slots[key]]
                else:
                    crop_spectrum(block[src], self.grid, centred=False, out=dst[comps])
        return out


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
              nodes: np.ndarray | None = None, comps=None,
              out: np.ndarray | None = None) -> np.ndarray:
        """Batched spectra (B, C, *shape) with each eigencomponent turned by ``phases``.

        ``phases`` come from ``phases`` or ``chunk_phases`` with the same
        ``nodes`` and ``comps``, or are their conjugate for the map back.
        With ``nodes`` (flat grid indices) the spectra are given on those
        nodes only, as (B, C, len(nodes)) values.  With ``comps`` only those
        component rows of the result are returned; a scalar symbol then
        takes their phases only, a matrix symbol still rotates every row.
        The result is written to ``out`` if given, a C-contiguous array of
        its shape that may be ``values``.
        """
        b, c = values.shape[0], values.shape[1]
        flat = values.reshape(b, c, -1)
        if self.basis_flat is None:
            rows = flat if comps is None else flat[:, comps]
            res = np.multiply(rows, phases, out=None if out is None else out.reshape(rows.shape))
        else:
            basis = self.basis_flat if nodes is None else self.basis_flat[nodes]
            coeff = np.einsum("xac,bax->bcx", basis.conj(), flat)
            res = np.einsum("xac,bcx->bax", basis, coeff * phases)
            if comps is not None:
                res = res[:, comps]
            if out is not None:
                np.copyto(out.reshape(res.shape), res)
        return res.reshape((b, res.shape[1]) + values.shape[2:]) if out is None else out


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
    # nothing else holds the plan's fresh result, so it is mapped back in place
    return tables.apply(out, np.conj(phases, out=phases), out=out)


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


def _node_l1(values: np.ndarray, cell: float, segments=(slice(None),)) -> np.ndarray:
    """L1 norms (as ``l1_norm_values``) of (B, C, nodes) values on each segment of the node axis.

    Returns (B, K) for the K slices ``segments`` (by default the whole
    axis); a segment's sum takes the pairwise order of its own nodes.
    """
    mod = pointwise_modulus(values.swapaxes(0, 1))
    return np.stack([mod[:, seg].sum(axis=1) for seg in segments], axis=1) * cell


class _Level:
    """Running sums of one composite-trapezoid pass, carried from chunk to chunk.

    The integral at the next chunk's first node, the integrand at the node
    before it (None before the first chunk) and, per segment of the node
    axis, the largest node L1 norm measured so far.  A chunk's pass reads
    only that chunk of the iterate it integrates, plus these sums.
    """

    def __init__(self, segments):
        self.segments = segments
        self.integral = 0.0
        self.g_prev = None
        self.sup = np.zeros(len(segments))

    @property
    def distance(self) -> float:
        """The largest node L1 norm over all segments (NaN if one is NaN)."""
        return float(np.max(self.sup))

    def step(self, rhs_chunk, chunk: np.ndarray, taus: np.ndarray, h0: np.ndarray, h: float,
             cell: float, measure_change: bool = True) -> tuple[np.ndarray | None, float]:
        """The pass h0 + integral_0^tau rhs(chunk) on one chunk of mesh nodes.

        ``rhs_chunk(chunk, taus)`` maps (B, C, nodes) values to their
        integrand in a new array.  The result goes into a new array and is
        measured against ``chunk`` (with ``measure_change``) or by itself.
        Returns the new values and the chunk's largest norm, or None and
        that norm when a segment's norm is not finite; the sups then stop
        at that segment, as a loop over the segments would.
        """
        g = rhs_chunk(chunk, taus)
        new = np.empty(g.shape, dtype=complex)
        self.integral = _trapezoid_chunk(new, h0, self.integral, self.g_prev, g, h)
        self.g_prev = g[-1].copy()
        d = _node_l1(new - chunk if measure_change else new, cell, self.segments).max(axis=0)
        bad = np.flatnonzero(~np.isfinite(d))
        d = d[:bad[0] + 1] if bad.size else d
        sup = self.sup[:d.size]
        np.copyto(sup, d, where=~(d <= sup))  # a NaN replaces the sup too
        return (None if bad.size else new), float(np.max(d))


def _trapezoid_pass(rhs_chunk, state: np.ndarray, h0: np.ndarray, h: float, chunk: int,
                    cell: float, update: bool, level: _Level) -> None:
    """One composite-trapezoid pass: h0 + integral_0^tau rhs(state) on the mesh h j.

    ``state`` holds (m, C, nodes) values on the mesh nodes j < m, ``h0``
    (C, nodes).  The pass runs ``level.step`` on chunks of at most
    ``chunk`` mesh nodes.  With ``update`` it measures each chunk's new
    values against the state's chunk and then writes them over it, which is
    exact because a chunk's integrand reads only that chunk of the state.
    Without ``update`` it measures the new values themselves and leaves
    ``state`` as it is; this is how ``coupling_norm`` sizes an integral
    along a solved trajectory.  ``level.sup`` holds the largest node L1
    norm of each segment; the pass stops at the first non-finite one.
    """
    m = state.shape[0]
    taus = h * np.arange(m)
    for i0 in range(0, m, chunk):
        i1 = min(i0 + chunk, m)
        new, _ = level.step(rhs_chunk, state[i0:i1], taus[i0:i1], h0, h, cell,
                            measure_change=update)
        if new is None:
            break
        if update:
            state[i0:i1] = new


def _picard_verdict(distances: list, config: SolverConfig) -> bool:
    """The Picard guard on the newest distance of ``distances``: True once converged.

    Raises PicardDiverged on a non-finite distance (last in the history) or
    when distances grew three times in a row to above ten times their
    minimum, and PicardMaxIter when the last allowed iteration missed
    ``config.picard_tol``.  A solve that converges after its distances grew
    warns once with the largest observed ratio d_{k+1}/d_k.
    """
    dist = distances[-1]
    if not math.isfinite(dist):
        raise PicardDiverged(f"non-finite Picard iterate (distance {dist})", distances)
    grew = [b > a for a, b in zip(distances, distances[1:])]
    if dist <= config.picard_tol:
        if any(grew):
            ratio = max(b / a for a, b in zip(distances, distances[1:]))
            warnings.warn(f"Picard distances grew before converging: largest observed "
                          f"ratio d[k+1]/d[k] = {ratio:.3g}", stacklevel=4)
        return True
    grow_run = len(grew) - max((i + 1 for i, g in enumerate(grew) if not g), default=0)
    if grow_run >= 3 and dist > 10.0 * min(distances):
        raise PicardDiverged(f"Picard distances grew for {grow_run} consecutive iterations",
                             distances)
    if len(distances) >= config.picard_max_iter:
        raise PicardMaxIter(f"no convergence within {config.picard_max_iter} iterations",
                            distances)
    return False


def _picard_wavefront(rhs_chunk, h0: np.ndarray, n: int, h: float, cell: float,
                      config: SolverConfig, chunk: int, rows: np.ndarray, segments):
    """Picard levels 1..L computed chunk by chunk in one sweep over the mesh.

    Level k on a chunk reads only level k-1 on that chunk and level k's
    ``_Level`` sums, so the sweep holds those sums, one chunk of iterates
    and the ``rows`` of the final level L; the arithmetic, and so every bit,
    is the one-buffer loop's.  A chunk needs level k when its own distance
    first reaches ``config.picard_tol`` there.  Chunk 0 sets L to its need;
    when a later chunk needs more:
      * with every row kept, an updating ``_trapezoid_pass`` over the
        earlier chunks, whose level L is at hand, adds level L+1;
      * with sparse rows, the chunks compute a spare level L+1 and hold its
        rows until one needs it (L grows by one) or the sweep ends.  A chunk
        that needs a level the earlier chunks lack restarts the sweep with
        L fixed at that level and no spare, which on solves whose needs
        keep rising costs less than a spare on every chunk.
    Returns (rows, L, distances), distances[k] being level k+1's largest
    distance over all chunks and segments, or None for the loop to decide: a
    non-finite distance, growing partial maxima, a need above
    ``config.picard_max_iter``, or distances that reach the tolerance
    before level L.
    """
    tol, cap = config.picard_tol, config.picard_max_iter
    taus = h * np.arange(n + 1)
    every = rows.size == n + 1
    out = np.empty((rows.size,) + h0.shape, dtype=complex)
    least = 1
    while True:  # one sweep; a restart begins another with a higher ``least``
        levels: list[_Level] = []
        final, spare, restart = None, not every and least == 1, False
        held = []  # (start, stop, spare-level rows) of the chunks so far
        for j, i0 in enumerate(range(0, n + 1, chunk)):
            i1 = min(i0 + chunk, n + 1)
            a, b = np.searchsorted(rows, [i0, i1])
            local = rows[a:b] - i0
            it = np.broadcast_to(h0, (i1 - i0,) + h0.shape)
            dists = []
            while True:
                k = len(dists) + 1
                if k > cap:
                    return None
                if k > len(levels):
                    if j > 0 and not every:  # the earlier chunks lack level k's sums
                        least, restart = k, True
                        break
                    levels.append(_Level(segments))
                    if j > 0:  # bring the earlier chunks from level k-1 to k
                        _trapezoid_pass(rhs_chunk, out[:i0], h0, h, chunk, cell, True, levels[-1])
                        final = k
                it, d = levels[k - 1].step(rhs_chunk, it, taus[i0:i1], h0, h, cell)
                if it is None or k > 1 and not levels[k - 1].distance <= levels[k - 2].distance:
                    return None
                dists.append(d)
                if final is None and k >= least and d <= tol:
                    final, spare = k, spare and k < cap
                if final is None:
                    continue
                if k == final:
                    np.take(it, local, axis=0, out=out[a:b])
                elif spare and k == final + 1:
                    held.append((a, b, it[local]))
                if k < final + spare:
                    continue
                if dists[final - 1] <= tol:
                    break
                if spare and dists[final] <= tol:  # take the spare
                    final, spare = final + 1, False
                    for a0, b0, spare_rows in held:
                        out[a0:b0] = spare_rows
                    held = []
                    break
            if restart:
                break
        else:
            distances = [lev.distance for lev in levels[:final]]
            converged = next((k for k in range(1, final + 1)
                              if _picard_verdict(distances[:k], config)), None)
            return (out, final, distances) if converged == final else None


def _picard_trapezoid(rhs_chunk, h0: np.ndarray, n: int, h: float, cell: float,
                      config: SolverConfig, chunk: int, keep=None,
                      segments=(slice(None),)) -> tuple[np.ndarray, int, list]:
    """Picard fixed point of u = h0 + integral_0^tau rhs(u) on the mesh h j, j <= n.

    The iterate is one (n+1, C, nodes) array that starts at the (C, nodes)
    ``h0`` on every node; ``rhs_chunk(values, taus)`` maps a (B, C, nodes)
    chunk of it to its integrand in a new array.  Iteration k is one
    composite-trapezoid pass over the n+1 nodes in chunks of ``chunk``; its
    distance is the largest node L1 norm of the change over all chunks,
    each taken on the slices ``segments`` of the node axis (the whole axis
    by default), and iteration stops at the first distance at or below
    ``config.picard_tol``, under the guard of ``_picard_verdict``.
    ``_picard_wavefront`` computes the iterations and holds only the rows
    ``keep`` of the last (every row when None).  Where it cannot decide,
    the one-buffer loop runs from scratch, one (n+1, C, nodes) state
    rewritten by an updating ``_trapezoid_pass`` per iteration.  Both give
    bitwise the iterates and distances of an old/new pair of buffers, which
    depend on ``chunk``: the propagator phases are factored per chunk.
    With ``rhs_chunk`` None (no nonlinearity) the constant start is returned.
    Returns (rows, iterations, distances).
    """
    rows = np.arange(n + 1) if keep is None else np.asarray(keep)
    if rhs_chunk is None:
        return np.broadcast_to(h0, (rows.size,) + h0.shape).copy(), 0, []
    solved = _picard_wavefront(rhs_chunk, h0, n, h, cell, config, chunk, rows, segments)
    if solved is not None:
        return solved
    state = np.broadcast_to(h0, (n + 1,) + h0.shape).copy()
    distances: list[float] = []
    while True:
        level = _Level(segments)
        _trapezoid_pass(rhs_chunk, state, h0, h, chunk, cell, True, level)
        distances.append(level.distance)
        if _picard_verdict(distances, config):
            break
    return state if keep is None else state[rows], len(distances), distances


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

    def rhs_chunk(values: np.ndarray, taus: np.ndarray) -> np.ndarray:
        g = _slow_rhs_chunk(values.reshape(values.shape[:1] + shape), taus, h, problem, tables,
                            plan, config.convolution_mode)
        return g.reshape(values.shape)

    keep = _kept_samples(n, config.record_stride)
    rows, iterations, distances = _picard_trapezoid(
        rhs_chunk if problem.nonlinearity else None,
        problem.initial.values.reshape(shape[0], -1),
        n, h, problem.grid.cell, config, DEFAULT_CHUNK, keep,
    )
    u = rows.reshape((len(keep),) + shape)
    fields = [ModalField(problem.grid, values, frame="slow") for values in u]
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
