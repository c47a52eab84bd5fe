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
    fft_blocks,
    grid_mirror,
    l1_norm,
    pad_spectrum,
    pointwise_modulus,
    r_cell,
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
    each output component.  Terms may share a tensor object, whose entries
    are then found once.
    """
    groups: dict = {}
    found: dict = {}
    for tensor, arg_ids in terms:
        if id(tensor) not in found:
            found[id(tensor)] = _tensor_entries(tensor)
        for entry, coeff in found[id(tensor)]:
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


def _echelon(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Reduced row-echelon basis of the row space of ``m``: (pivots, w).

    Rows are taken in order and eliminated against the basis so far; a row
    left exactly zero is dependent, any other becomes a basis row scaled to
    1 at its pivot (its first nonzero entry) and is eliminated from the
    earlier ones.  ``w`` is the (F, C) basis sorted by pivot, exactly 1 at
    its own pivot and 0 at the others.
    """
    basis = []
    for row in m:
        r = np.array(row, dtype=complex)
        for p, b in basis:
            if r[p] != 0:
                r -= r[p] * b
                r[p] = 0
        nonzero = np.flatnonzero(r)
        if not nonzero.size:
            continue
        p = nonzero[0]
        r = _unit_at(r[None], [p])[0]
        for _, b in basis:
            if b[p] != 0:
                b -= b[p] * r
                b[p] = 0
        basis.append((p, r))
    basis.sort(key=lambda pb: pb[0])
    return (np.array([p for p, _ in basis], dtype=int),
            np.array([b for _, b in basis], dtype=complex).reshape(len(basis), m.shape[1]))


def _unit_at(rows: np.ndarray, cols) -> np.ndarray:
    """Each row divided by its entry in its column of ``cols``, in real arithmetic.

    x / y is (x conj(y)) / |y|^2 formed from real parts, so y / y is exactly
    1 and -y / y exactly -1, whichever kernel numpy would pick to multiply
    complex numbers (a fused multiply-add can make y conj(y) inexact).
    """
    y = rows[np.arange(len(rows)), cols][:, None]
    den = y.real * y.real + y.imag * y.imag
    out = np.empty(rows.shape, dtype=complex)
    out.real = (rows.real * y.real + rows.imag * y.imag) / den
    out.imag = (rows.imag * y.real - rows.real * y.imag) / den
    return out


def _forms(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Signed forms through which ``rows`` read their columns: (pivots, w).

    ``w`` is the reduced row-echelon basis of the row space (``_echelon`` of
    the rows scaled to 1 at their first nonzero entry by ``_unit_at``, equal
    ones once), kept if its entries are signs and every row is bitwise the
    sum, form by form, of its entry at the form's pivot times the form.
    Otherwise, and when the rows hold one column only, the forms are the
    unit vectors of the nonzero columns.
    """
    r = rows[rows.any(axis=1)]
    cols = np.nonzero(r.any(axis=0))[0]
    plain = cols, np.eye(rows.shape[1], dtype=complex)[cols]
    if len(cols) < 2:
        return plain
    pivots, w = _echelon(np.unique(_unit_at(r, (r != 0).argmax(axis=1)), axis=0))
    total = np.zeros_like(rows)
    for p, form in zip(pivots, w):
        total = total + rows[:, p, None] * form
    if np.isin(w[w != 0], (1, -1)).all() and np.array_equal(total, rows):
        return pivots, w
    return plain


def _argument_forms(terms: dict) -> dict:
    """Per argument key, the (pivots, w) linear forms through which the terms read it.

    The forms (``_forms``) of the stacked unfoldings of every distinct term
    tensor along each axis that reads the key.  A form is a signed sum of
    components, and each unfolding row is bitwise its pivot entries times
    the forms, so along each such axis a tensor is the tensor cut to the
    pivots (``_cut``) contracted with the forms.  Full-rank tensors read
    plain components; ``cubic_full`` and ``quadratic_conjugate`` read their
    field through one form, U_+ + U_-.
    """
    reads: dict = {}  # each distinct tensor -> (tensor, its (axis, key) reads)
    for key_terms in terms.values():
        for tensor, arg_ids in key_terms:
            _, pairs = reads.setdefault((tensor.shape, tensor.tobytes()), (tensor, set()))
            pairs.update(enumerate(arg_ids, start=1))
    rows: dict = {}  # key -> the unfoldings along the axes that read it
    for tensor, pairs in reads.values():
        for axis, a in sorted(pairs, key=lambda pair: pair[0]):
            rows.setdefault(a, []).append(tensor.swapaxes(axis, -1).reshape(-1, len(tensor)))
    return {a: _forms(np.concatenate(blocks)) for a, blocks in rows.items()}


def _cut(tensor: np.ndarray, arg_ids, pivots: dict) -> np.ndarray:
    """``tensor`` zeroed off ``pivots[a]`` along each axis that reads a key ``a`` of ``pivots``."""
    cut = tensor
    for axis, a in enumerate(arg_ids, start=1):
        if a in pivots:
            if cut is tensor:
                cut = tensor.copy()
            cut[(slice(None),) * axis + (np.setdiff1d(np.arange(len(cut)), pivots[a]),)] = 0
    return cut


def _combine(out: np.ndarray, terms) -> np.ndarray:
    """``out`` = the signed sum of the (sign, src) ``terms``, left to right.

    The first term is copied or negated, the others added or subtracted
    (``_accumulate``): exact-rounded ufuncs, whatever the layout.
    """
    (a, src), rest = terms[0], terms[1:]
    if a == 1:
        np.copyto(out, src)
    else:
        np.negative(src, out=out)
    return _accumulate(out, rest)


def _accumulate(out: np.ndarray, terms) -> np.ndarray:
    """``out`` with the (sign, src) ``terms`` added or subtracted in place, left to right."""
    for a, src in terms:
        (np.add if a == 1 else np.subtract)(out, src, out=out)
    return out


def _runs(positions: np.ndarray) -> list:
    """The runs of consecutive ``positions``: (slice of their indices, slice of the positions)."""
    cuts = np.nonzero(np.diff(positions) != 1)[0] + 1
    return [(slice(i[0], i[-1] + 1), slice(positions[i[0]], positions[i[-1]] + 1))
            for i in np.split(np.arange(len(positions)), cuts)]


class _ConvolutionPlan:
    """m-fold convolutions of spectra given on sets of grid nodes.

    ``nodes`` maps each argument key to the flat grid indices its spectra
    are given on, or None for the whole grid; ``terms`` maps each output key
    (also a key of ``nodes``) to its (tensor, argument keys) terms, evaluated
    on that key's nodes.

    The products read each argument key through its linear forms
    (``_argument_forms``), signed sums of components: a form is 1 at its
    pivot component and 0 at the other forms' pivots, and the tensors cut
    to the pivots give every product exactly.  Full-rank tensors have the
    plain components as forms, so a component read is the special case;
    ``cubic_full`` and ``quadratic_conjugate`` read U_+ + U_- only.
    ``forms[key]`` holds the (pivots, w) of the forms some product uses and
    ``comps[key]`` the components they read.  The entries of all cut terms
    of an output key are grouped by ``_entry_groups``, with a form named by
    its pivot.  Of the resulting (C, G) coefficients only the rows at the
    pivots of the forms of their transpose are summed in r-space and
    forward-transformed, and every other component is its exact signed sum
    of them (``expand[key]``) on the key's nodes.

    Spectra sit on a transform grid with the grid's dk and P nodes per axis,
    in ``np.fft`` order: node j at slot (j - n/2) mod P, the centred index
    modulo P, so the circular convolution adds centred indices like the
    linear one; the whole grid goes in and out in that order in 2^dim block
    copies (``pad_spectrum``, ``crop_spectrum``).  P is the smallest
    ``transform_size`` per axis at which no wrapped product lands on a
    gathered output node and no argument wraps onto itself, judged on index
    boxes; on the whole grid that is (m+1)n/2 nodes or more (n = 2048: 3072
    at order 2, 4096 at order 3, 5184 at order 4), on 129-node windows of
    cubic products 288.  Products whose index box misses their output key's
    box are dropped before P is sized: they vanish on every output node.

    Every key shares that transform grid, so a call makes one inverse and
    one forward transform, both in place in one stacked (rows, B, X) buffer,
    component-major so that each row is one contiguous (B, X) block: it
    takes the zero-padded form rows of all keys, each combined from its
    components straight into its slots (``pad_spectrum`` the pivot, then
    ``_accumulate`` the others block by block), their r-space
    samples until the products are formed, then the summed rows of all
    output keys and their spectra.  Between the transforms the batch goes in
    slabs of ``_slab`` rows, sized so that a slab's argument, sum and
    product rows fit in ``_SLAB_BYTES`` and stay in cache: per slab the steps
    of ``_product_schedule`` fill one (G, slab, X) products array per
    distinct factor list (output keys with the same list share it), and each
    output key's sums are one flat (rows, G) x (G, slab X) ``matmul`` over
    the slab's spent argument rows.  Each key's gather or crop then writes
    straight into its result (the whole grid's cropped nodes are scaled by
    ``r_cell`` there, window rows before their strided gather), and the
    derived components follow.  The
    buffer is kept across calls, sized to the largest batch seen, and the
    products arrays, sized to one slab: fresh arrays would be mapped and
    page-faulted anew on every call.  One buffer rather than an input buffer
    kept zero plus a work array costs a zero fill per call, but a second
    kept array stays resident while the caller's own arrays peak and raised
    the solver's peak memory.  A window form of several components is
    combined in one more kept array, then scattered.  Nothing a call
    returns views any of them.  ``_ConjugatePlan`` is this plan on the +
    components of conjugation-symmetric spectra, with real transforms
    where its forms are real in r-space.
    """

    def __init__(self, grid: Grid, nodes: dict, terms: dict, conjugates: dict | None = None):
        self.grid = grid
        conjugates = conjugates or {}
        # centred (dim, nodes) index of every node of each key, and its (lo, hi) box
        centred = {
            key: np.array(np.unravel_index(np.arange(math.prod(grid.n)) if idx is None else idx,
                                           grid.shape)) - np.array(grid.n)[:, None] // 2
            for key, idx in nodes.items()
        }
        box = {key: (c.min(axis=1), c.max(axis=1)) for key, c in centred.items() if c.size}
        need = np.full(grid.dim, 4)
        forms = _argument_forms(terms)
        # keys read through forms of several components; the tensors are zero
        # off the pivots of plain ones
        mixed = {a: pivots for a, (pivots, w) in forms.items() if np.count_nonzero(w) > len(pivots)}
        # outs[key]: (factors, (rows, G) coefficients, the summed output components
        # ``rows``); used[key]: the pivots of the forms the products read
        self.outs: dict = {}
        self.expand: dict = {}
        used: dict = {}
        for key, key_terms in terms.items():
            cut = [(_cut(t, arg_ids, mixed), arg_ids) for t, arg_ids in key_terms]
            factors, coeffs = _entry_groups(cut) if key_terms else ([], None)
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
                    used.setdefault(a, set()).add(int(c))
                # P exceeds every argument's width and the largest distance
                # from a product index to a gathered output index, either way
                need = np.max([need, *(box[a][1] - box[a][0] + 1 for a, _ in fac),
                               hi - box[key][0] + 1, box[key][1] - lo + 1], axis=0)
            if not kept:
                continue
            factors, coeffs = [factors[g] for g in kept], coeffs[:, kept]
            self.ncomp = coeffs.shape[0]
            # the summed output rows are the pivots of the forms of coeffs.T: every
            # other component is their signed sum, given by the forms' entries
            rows, w = _forms(coeffs.T)
            self.expand[key] = [(c, [(j, a) for j, a in enumerate(w[:, c]) if a != 0])
                                for c in range(len(coeffs)) if c not in rows and w[:, c].any()]
            self.outs[key] = (factors, coeffs[rows], rows)
        # a conjugated key reads the plain components of a scalar window; its
        # partner's rows at the swapped components serve it
        for key, partner in conjugates.items():
            if key in used:
                used.setdefault(partner, set()).update(c ^ 1 for c in used[key])
                pivots, w = forms.get(partner, ((), ()))
                if np.count_nonzero(w) == len(pivots):  # plain forms, widened to every component
                    ncomp = forms[key][1].shape[1]
                    forms[partner] = (np.arange(ncomp), np.eye(ncomp, dtype=complex))
        self.forms = {}
        for key in sorted(used, key=lambda k: k in conjugates):  # conjugated keys last
            pivots, w = forms[key]
            at = np.searchsorted(pivots, sorted(used[key]))
            self.forms[key] = (pivots[at], w[at])
            if key in conjugates or key in conjugates.values():
                assert (np.array_equal(pivots[at], sorted(used[key]))
                        and np.count_nonzero(w[at]) == len(at)), "conjugates read plain components"
        self.comps = {key: [int(c) for c in np.nonzero(w.any(axis=0))[0]]
                      for key, (_, w) in self.forms.items() if key not in conjugates}
        # per form, its (column in comps[key], weight) terms
        self._reads = {key: [[(self.comps[key].index(c), a) for c, a in enumerate(form) if a != 0]
                             for form in self.forms[key][1]] for key in self.comps}
        size = tuple(transform_size(v) for v in need)
        self.tgrid = Grid(grid.dim, size,
                          tuple(km * p / n for km, p, n in zip(grid.k_max, size, grid.n)))
        # flat transform-grid slots of each key not on the whole grid
        self.slots = {key: np.ravel_multi_index(tuple(c % np.array(size)[:, None]), size)
                      for key, c in centred.items() if nodes[key] is not None}
        # the rows of each argument key in the input stack and of each output
        # key in the output stack
        self._arg_rows, self._n_in = _stack_rows({key: len(p) for key, (p, _) in self.forms.items()})
        self._out_rows, self._n_out = _stack_rows({key: len(r)
                                                   for key, (_, _, r) in self.outs.items()})
        row = {(key, int(p)): self._arg_rows[key].start + i
               for key, (pivots, _) in self.forms.items() for i, p in enumerate(pivots)}
        # (row, source row) of each conjugated form: the inputs are the rows
        # before them
        self._conjugated = [(row[(key, int(p))], row[(conjugates[key], int(p) ^ 1)])
                            for key in self.forms if key in conjugates
                            for p in self.forms[key][0]]
        self._n_src = self._n_in - len(self._conjugated)
        # one products array per distinct factor list, filled by one schedule
        # on the input rows of the factors
        self._lists = list(dict.fromkeys(tuple(f) for f, _, _ in self.outs.values()))
        self._list_of = {key: self._lists.index(tuple(f)) for key, (f, _, _) in self.outs.items()}
        self._steps = _product_schedule([[tuple(row[f] for f in fac) for fac in factors]
                                         for factors in self._lists])
        # per output key, the runs of consecutive components: (block rows, components);
        # a result holds ``_width`` component rows, component c at ``_at[c]``
        self._runs = {key: _runs(rows) for key, (_, _, rows) in self.outs.items()}
        self._width = self.ncomp if self.outs else 0
        self._at = np.arange(self._width)
        self._scale = r_cell(self.tgrid)
        # batch rows per slab: its argument, sum and product rows fit in _SLAB_BYTES
        per_row = (self._n_in + self._n_out + sum(map(len, self._lists))) * math.prod(size) * 16
        self._slab = max(1, _SLAB_BYTES // max(per_row, 1))
        self._buffer = None
        self._products: list = []
        self._spare = np.empty(0, dtype=complex)

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
        b = next(iter(values.values())).shape[0]
        buf = self._stack(b)
        inputs = buf[:self._n_src]
        inputs.fill(0.0)
        for key, comps in self.comps.items():
            v = values[key]
            if v.shape[1] != len(comps):
                v = v[:, comps]
            for row, reads in zip(inputs[self._arg_rows[key]], self._reads[key]):
                # the first term is the pivot, of weight 1
                terms = [(a, v[:, i]) for i, a in reads]
                if key in self.slots:
                    if len(terms) > 1:
                        # combined in a kept scratch array, then scattered
                        terms = [(1, _combine(self._scratch(v[:, 0].shape), terms))]
                    row[..., self.slots[key]] = terms[0][1]
                else:
                    # the pivot is padded, the other terms added or subtracted
                    # in place block by block
                    padded = row.reshape((b,) + tg.shape)
                    pad_spectrum(terms[0][1], self.grid, tg.shape, centred=False, out=padded)
                    for nodes, slots in fft_blocks(self.grid.n, tg.shape):
                        _accumulate(padded[(..., *slots)],
                                    [(a, t[(..., *nodes)]) for a, t in terms[1:]])
        r = inputs.reshape((self._n_src, b) + tg.shape)
        spectrum_to_samples(r, tg, centred=False, out=r)
        for dst, src in self._conjugated:
            np.conjugate(buf[src], out=buf[dst])
        self._sums(buf, b)
        return self._gather(buf, b)

    def _stack(self, b: int) -> np.ndarray:
        """The kept (rows, B, X) buffer for a batch of ``b``, and products arrays to match."""
        x = math.prod(self.tgrid.shape)
        size = max(self._n_in, self._n_out) * b * x
        if self._buffer is None or self._buffer.size < size:
            self._buffer = np.empty(size, dtype=complex)
            self._products = [np.empty((len(factors), min(self._slab, b), x), dtype=complex)
                              for factors in self._lists]
        return self._buffer[:size].reshape(-1, b, x)

    def _scratch(self, shape) -> np.ndarray:
        """A kept scratch array of ``shape``, for a form combined before it is placed."""
        n = math.prod(shape)
        if self._spare.size < n:
            self._spare = np.empty(n, dtype=complex)
        return self._spare[:n].reshape(shape)

    def _sums(self, buf: np.ndarray, b: int) -> None:
        """Per slab, the products of the r-space argument rows of ``buf`` and their sums.

        Each output key's coefficient sums go into its rows of the output
        stack, over the slab's spent argument rows.
        """
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

    def _gather(self, buf: np.ndarray, b: int) -> dict:
        """Each output key's values from the summed rows of ``buf``.

        The rows are forward-transformed in place; each key's gather or crop
        writes straight into its result, and on the whole grid only the
        cropped nodes are scaled.  The derived components follow.
        """
        tg = self.tgrid
        x = math.prod(tg.shape)
        spec = buf[:self._n_out].reshape((self._n_out, b) + tg.shape)
        samples_to_spectrum(spec, tg, centred=False, out=spec)
        if self.slots:
            # gathered window nodes are strided: one pass over the contiguous
            # rows costs less than scaling them (bitwise the same)
            spec *= self._scale
        out = {}
        for key, (_, _, rows) in self.outs.items():
            nodes = (len(self.slots[key]),) if key in self.slots else self.grid.shape
            # a fresh zero array is cheaper than zeroing the rows no term forms
            full = len(rows) + len(self.expand[key]) == self._width
            out[key] = (np.empty if full else np.zeros)((b, self._width) + nodes, dtype=complex)
            # each run of consecutive output components is one (rows, B, *nodes) view
            dst, block = out[key].swapaxes(0, 1), spec[self._out_rows[key]]
            for src, comps in self._runs[key]:
                part = dst[comps]
                if key in self.slots:
                    part[...] = block[src].reshape(-1, b, x)[..., self.slots[key]]
                else:
                    crop_spectrum(block[src], self.grid, centred=False, out=part)
                    if not self.slots:
                        part *= self._scale
            at = self._at
            for c, sums in self.expand[key]:
                _combine(dst[at[c]], [(a, dst[at[rows[j]]]) for j, a in sums])
        return out


class _ConjugatePlan(_ConvolutionPlan):
    """Whole-grid convolutions of conjugation-symmetric spectra, on their + components.

    Components 2n and 2n+1 hold the + and - member of band pair n.  With
    spectra U_-(k) = conj U_+(-k), zero where -k is off the grid (``lone``
    nodes of ``grid_mirror``), and tensors with T[i'; a', b', ...] =
    conj T[i; a, b, ...] under + <-> -, every - output is the conjugate
    mirror of its + partner.  So the terms are cut to their + output rows,
    and a call takes and returns (B, J, *shape) + components only; lone
    output nodes are 0.  The plan is the ``_ConvolutionPlan`` of the cut
    terms on one key "u", with its - components read as conjugate mirrors
    of the + ones.  In r-space u_- = conj u_+, so a form whose conjugate
    (weights conj w[i'] at i) is another form is that form's row
    conjugated, and one inverse transform serves both (``cubic_conjugate``
    reads U_+ and U_-: one transform).  When every form is its own
    conjugate (``real``: U_+ + U_- of ``cubic_full`` and
    ``quadratic_conjugate``) its samples are real: the half spectrum of
    each form goes through a real inverse transform, the products are real,
    and their real forward transforms are cropped, the nodes of negative
    last wavenumber read as conjugates of their mirrors, before the
    coefficients are applied on the grid nodes.
    """

    def __init__(self, grid: Grid, terms: list):
        cut = []
        for tensor, arg_ids in terms:
            plus = tensor.copy()
            plus[1::2] = 0
            cut.append((plus, arg_ids))
        super().__init__(grid, {"u": None}, {"u": cut})
        self.real = False
        if not self.outs:
            return
        c = self.ncomp
        _, _, rows = self.outs["u"]
        self._width, self._at = c // 2, np.arange(c) // 2
        self._runs = {"u": _runs(rows // 2)}
        pivots, w = self.forms["u"]
        # each form's components and weights, and the weights of its conjugate
        self._terms = [[(self.comps["u"][i], a) for i, a in reads] for reads in self._reads["u"]]
        conj = w[:, np.arange(c) ^ 1].conj()
        self.real = np.array_equal(conj, w)
        if self.real:
            # the blocks of fft_blocks on the non-negative last wavenumbers, less
            # the last axis; the kept half spectra and real rows
            self._blocks = [(nodes[:-1], slots[:-1])
                            for nodes, slots in fft_blocks(grid.n, self.tgrid.shape)
                            if slots[-1].start == 0]
            self._half = np.empty(0, dtype=complex)
            self._real_rows = np.empty(0)
            return
        # rows: the forms transformed first, then those read as an earlier row's conjugate
        source = [next((g for g in range(f) if np.array_equal(w[g], conj[f])), None)
                  for f in range(len(w))]
        order = ([f for f in range(len(w)) if source[f] is None]
                 + [f for f in range(len(w)) if source[f] is not None])
        row = {("u", int(pivots[f])): r for r, f in enumerate(order)}
        self._steps = _product_schedule([[tuple(row[f] for f in fac) for fac in factors]
                                         for factors in self._lists])
        self._transformed = [self._terms[f] for f in order if source[f] is None]
        self._conjugated = [(r, order.index(source[f])) for r, f in enumerate(order)
                            if source[f] is not None]

    def __call__(self, values: dict) -> dict:
        """Convolutions of the (B, J, *shape) + spectra ``values["u"]``, as {"u": (B, J, *shape)}."""
        if not self.outs:
            return {}
        v = values["u"]
        shape = v.shape
        v = v.reshape(shape[:2] + self.grid.shape)
        out = self._real_call(v) if self.real else self._complex_call(v)
        for axis in range(self.grid.dim):  # the lone nodes: 0 on some axis
            out[(..., 0) + (slice(None),) * (self.grid.dim - 1 - axis)] = 0.0
        return {"u": out.reshape(shape)}

    def _mirror(self, x: np.ndarray, last: bool = True) -> np.ndarray:
        """``x`` on the grid's (trailing) axes taken at -k on each, or on each but the last.

        Axis node j goes to (n - j) mod n: a lone node's value comes from a
        lone node.  Without ``last``, a 1-d ``x`` is returned as it is.
        """
        for a, n in enumerate(self.grid.n if last else self.grid.n[:-1]):
            x = np.take(x, -np.arange(n) % n, axis=x.ndim - self.grid.dim + a)
        return x

    def _complex_call(self, v: np.ndarray) -> np.ndarray:
        tg = self.tgrid
        b = v.shape[0]
        buf = self._stack(b)
        n = len(self._transformed)
        spectra = buf[:n]
        spectra.fill(0.0)
        for row, terms in zip(spectra, self._transformed):
            parts = [(a, v[:, i // 2] if i % 2 == 0 else np.conj(self._mirror(v[:, i // 2])))
                     for i, a in terms]
            form = parts[0][1] if len(parts) == 1 else _combine(self._scratch(v[:, 0].shape),
                                                                 parts)
            pad_spectrum(form, self.grid, tg.shape, centred=False,
                         out=row.reshape((b,) + tg.shape))
        r = spectra.reshape((n, b) + tg.shape)
        spectrum_to_samples(r, tg, centred=False, out=r)
        for dst, src in self._conjugated:
            np.conjugate(buf[src], out=buf[dst])
        self._sums(buf, b)
        return self._gather(buf, b)["u"]

    def _real_call(self, v: np.ndarray) -> np.ndarray:
        grid, tg = self.grid, self.tgrid
        b, (n_last, p_last) = v.shape[0], (grid.n[-1], tg.shape[-1])
        h = n_last // 2
        half_shape = tg.shape[:-1] + (p_last // 2 + 1,)
        factors, coeffs, rows = self.outs["u"]
        n_in, g = self._n_in, len(factors)
        size = max(n_in, g) * b * math.prod(half_shape)
        if self._half.size < size:
            self._half = np.empty(size, dtype=complex)
            self._real_rows = np.empty((n_in + g) * b * math.prod(tg.shape))
        half = self._half[:size].reshape((-1, b) + half_shape)
        samples = self._real_rows[:(n_in + g) * b * math.prod(tg.shape)].reshape(
            (n_in + g, b) + tg.shape)
        spectra = half[:n_in]
        spectra.fill(0.0)
        for row, terms in zip(spectra, self._terms):
            # the form is A + conj A(-k), A its + part; on the non-negative last
            # wavenumbers (nodes h..n-1 of the last axis) in the half spectrum
            parts = [(a, v[:, i // 2]) for i, a in terms if i % 2 == 0]
            plus = parts[0][1] if len(parts) == 1 else _combine(self._scratch(v[:, 0].shape),
                                                                parts)
            mirrored = self._mirror(plus[..., h:0:-1], last=False)
            for nodes, slots in self._blocks:
                dst = row[(..., *slots, slice(0, h))]
                np.conjugate(mirrored[(..., *nodes, slice(None))], out=dst)
                dst += plus[(..., *nodes, slice(h, None))]
        spectrum_to_samples(spectra, tg, centred=False, out=samples[:n_in], real=True)
        prods = samples[n_in:]
        for s in range(0, b, self._slab):
            e = min(s + self._slab, b)
            for left, right, (_, k) in self._steps:
                src = samples[left, s:e] if isinstance(left, int) else prods[left[1], s:e]
                if right is None:
                    np.copyto(prods[k, s:e], src)
                else:
                    np.multiply(src, samples[right, s:e], out=prods[k, s:e])
        spec = half[:g]
        samples_to_spectrum(prods, tg, centred=False, out=spec)
        # each product on the grid: the non-negative last wavenumbers from the
        # half spectrum, the others the conjugates of their mirrors; the
        # coefficients carry the transform's scale.  One product of the one +
        # component is gathered straight into the result
        single = g == 1 and self._width == 1
        out = np.empty((b, self._width) + grid.shape, dtype=complex)
        crop = out.swapaxes(0, 1) if single else np.empty((g, b) + grid.shape, dtype=complex)
        for nodes, slots in self._blocks:
            crop[(..., *nodes, slice(h, None))] = spec[(..., *slots, slice(0, h))]
        np.conjugate(self._mirror(crop[..., n_last - 1:h:-1], last=False), out=crop[..., 1:h])
        crop[..., 0] = 0.0
        scaled = coeffs * self._scale
        if single:
            out *= scaled[0, 0]
            return out
        sums = np.matmul(scaled, crop.reshape(g, -1)).reshape((len(rows), b) + grid.shape)
        dst = out.swapaxes(0, 1)
        dst[...] = 0.0
        dst[rows // 2] = sums
        for c, terms in self.expand["u"]:
            _combine(dst[c // 2], [(a, dst[rows[j] // 2]) for j, a in terms])
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
    With ``comps`` (a scalar symbol only) the tables hold those component
    rows alone, for values given on them.
    """

    def __init__(self, model: dsp.DispersionModel, grid: Grid, rho: float, comps=None):
        self.rho = rho
        omega, basis, _ = dsp.eigensystem_tables(model, grid)
        c, x = omega.shape[0], int(np.prod(grid.shape))
        self.omega_flat = omega.reshape(c, x)  # (C, X) in component layout
        self.basis_flat = None if basis is None else basis.reshape(x, c, c)
        if comps is not None:
            assert basis is None, "component rows of a matrix symbol do not rotate alone"
            self.omega_flat = self.omega_flat[comps]
        self._step_table = None  # (h, e^{-i j h L/rho} for j < chunk length)
        self._chunk = None  # ((t0, h, b), the chunk's phases, their conjugate)

    def chunk_phases(self, t0: float, h: float, b: int, back: bool = False) -> np.ndarray:
        """e^{-i (t0 + j h) L/rho} for j < b on the whole grid, shape (b, C, X).

        Factored as e^{-i t0 L/rho} times a table of e^{-i j h L/rho} that is
        cached for the mesh step ``h``, so a solve evaluates one (B, C, X)
        exponential instead of two per chunk.  Callers pass ``h`` itself:
        ``taus[1] - taus[0]`` differs in its last bits from chunk to chunk.
        With ``back`` it returns the conjugate factors, those of the map
        back.  The last chunk's factors and their conjugate are kept, so the
        Picard levels of one chunk form them once; callers must not write
        to either.
        """
        if self._chunk is None or self._chunk[0] != (t0, h, b):
            if (self._step_table is None or self._step_table[0] != h
                    or self._step_table[1].shape[0] < b):
                j = np.arange(b)
                table = np.exp((-1j * h / self.rho) * j[:, None, None] * self.omega_flat[None])
                self._step_table = (h, table)
            start = np.exp((-1j * t0 / self.rho) * self.omega_flat)
            phases = self._step_table[1][:b] * start
            self._chunk = ((t0, h, b), phases, np.conj(phases))
        return self._chunk[2 if back else 1]

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


def _problem_plan(problem: EvolutionProblem, conjugate: bool = False) -> _ConvolutionPlan:
    """The problem's tensor terms on one key "u" covering the whole grid.

    With ``conjugate`` the ``_ConjugatePlan`` of a conjugation-symmetric problem.
    """
    terms = [(s.tensor, ["u"] * s.order) for s in problem.nonlinearity if s.tensor is not None]
    if conjugate:
        return _ConjugatePlan(problem.grid, terms)
    return _ConvolutionPlan(problem.grid, {"u": None}, {"u": terms})


def _slow_rhs_chunk(values: np.ndarray, taus: np.ndarray, h: float,
                    problem: EvolutionProblem, tables: PropagatorTables,
                    plan: _ConvolutionPlan, mode: str) -> np.ndarray:
    """G(u)(tau) = e^{+i tau L/rho} F(e^{-i tau L/rho} u) for a chunk of times.

    ``taus`` must be ``taus[0] + h * arange(B)``; ``plan`` comes from
    ``_problem_plan``, on the components ``tables`` holds.
    """
    b = values.shape[0]
    fast = tables.apply(values, tables.chunk_phases(taus[0], h, b))
    out = plan({"u": fast})["u"] if mode == "fft" and plan.outs else np.zeros_like(values)
    for susc in problem.nonlinearity:
        if mode == "direct-oracle" or susc.callback is not None:
            for i in range(b):
                out[i] += _chi_direct([fast[i]] * susc.order, susc, problem.grid)
    # nothing else holds the plan's fresh result, so it is mapped back in place
    return tables.apply(out, tables.chunk_phases(taus[0], h, b, back=True), out=out)


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


def _node_l1(values: np.ndarray, cell: float, segments=(slice(None),),
             mirror: np.ndarray | None = None) -> np.ndarray:
    """L1 norms (as ``l1_norm_values``) of (B, C, nodes) values on each segment of the node axis.

    Returns (B, K) for the K slices ``segments`` (by default the whole
    axis); a segment's sum takes the pairwise order of its own nodes.  With
    the flat grid reflection ``mirror`` (``grids.grid_mirror``) the values
    are the + components of conjugation-symmetric states on the flat grid,
    and each node's modulus is that of the expanded state
    (``pointwise_modulus`` with ``mirror``): bitwise its norm, not twice the
    + half's.
    """
    mod = pointwise_modulus(values.swapaxes(0, 1), mirror)
    return np.stack([mod[:, seg].sum(axis=1) for seg in segments], axis=1) * cell


class _Level:
    """Running sums of one composite-trapezoid pass, carried from chunk to chunk.

    The integral at the next chunk's first node, the integrand at the node
    before it (None before the first chunk) and, per segment of the node
    axis, the largest node L1 norm measured so far.  A chunk's pass reads
    only that chunk of the iterate it integrates, plus these sums.
    """

    def __init__(self, segments, mirror=None):
        self.segments = segments
        self.mirror = mirror
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
        d = _node_l1(new - chunk if measure_change else new, cell, self.segments,
                     self.mirror).max(axis=0)
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
                      config: SolverConfig, chunk: int, rows: np.ndarray, segments, mirror):
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
                    levels.append(_Level(segments, mirror))
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
                      config: SolverConfig, chunk: int, keep=None, segments=(slice(None),),
                      mirror=None) -> tuple[np.ndarray, int, list]:
    """Picard fixed point of u = h0 + integral_0^tau rhs(u) on the mesh h j, j <= n.

    The iterate is one (n+1, C, nodes) array that starts at the (C, nodes)
    ``h0`` on every node; ``rhs_chunk(values, taus)`` maps a (B, C, nodes)
    chunk of it to its integrand in a new array.  Iteration k is one
    composite-trapezoid pass over the n+1 nodes in chunks of ``chunk``; its
    distance is the largest node L1 norm of the change over all chunks,
    each taken on the slices ``segments`` of the node axis (the whole axis
    by default; with ``mirror``, of the conjugation-symmetric states whose
    + components the iterate holds, as ``_node_l1`` takes them), and
    iteration stops at the first distance at or below
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
    solved = _picard_wavefront(rhs_chunk, h0, n, h, cell, config, chunk, rows, segments, mirror)
    if solved is not None:
        return solved
    state = np.broadcast_to(h0, (n + 1,) + h0.shape).copy()
    distances: list[float] = []
    while True:
        level = _Level(segments, mirror)
        _trapezoid_pass(rhs_chunk, state, h0, h, chunk, cell, True, level)
        distances.append(level.distance)
        if _picard_verdict(distances, config):
            break
    return state if keep is None else state[rows], len(distances), distances


def _kept_samples(n: int, record_stride: int | None) -> list:
    """Mesh nodes 0..n a solve keeps: every stride-th (by default n // 128, at least 1) and n."""
    stride = record_stride or max(1, n // 128)
    return sorted(set(range(0, n + 1, stride)) | {n})


def _symmetric_terms(problem: EvolutionProblem):
    """``grid_mirror``'s (mirror, lone) if the FFT equation keeps conjugation symmetry, else None.

    Exact tests, with no tolerance, that the equation maps states with
    U_-(k) = conj U_+(-k) in each band pair (components 2n, 2n+1) to such
    states: tensors only, each with T[i'; a', b', ...] = conj T[i; a, b, ...]
    under + <-> -, and a scalar symbol with omega_{n,-}[j] = -omega_{n,+}[-j]
    bitwise at every node j that has a mirror -j on the grid.  The
    convolution mode and the data are the caller's to test.
    """
    model, grid = problem.model, problem.grid
    if (model.kind != "scalar-band" or not problem.nonlinearity
            or any(s.tensor is None for s in problem.nonlinearity)):
        return None
    swap = np.arange(model.ncomp) ^ 1
    if not all(np.array_equal(s.tensor[np.ix_(*[swap] * s.tensor.ndim)], s.tensor.conj())
               for s in problem.nonlinearity):
        return None
    mirror, lone = grid_mirror(grid)
    omega = dsp.eigensystem_tables(model, grid)[0].reshape(model.ncomp, -1)
    paired = ~lone
    if np.array_equal(omega[swap][:, mirror[paired]], -omega[:, paired]):
        return mirror, lone
    return None


def _conjugate_mirror(problem: EvolutionProblem, config: SolverConfig) -> np.ndarray | None:
    """The flat grid reflection of ``grid_mirror`` if ``problem`` is conjugation-symmetric, else None.

    Exact tests, with no tolerance, that every Picard iterate keeps
    U_-(k) = conj U_+(-k), so that its + components determine it: FFT
    convolutions, the equation's symmetry (``_symmetric_terms``), and data
    with U_-[-j] = conj U_+[j] bitwise at every node j with a mirror and 0
    at every node without one.
    """
    symmetric = None if config.convolution_mode != "fft" else _symmetric_terms(problem)
    if symmetric is None:
        return None
    mirror, lone = symmetric
    u = problem.initial.values.reshape(problem.model.ncomp, -1)
    swap = np.arange(len(u)) ^ 1
    paired = ~lone
    if (np.array_equal(u[swap][:, mirror[paired]], u[:, paired].conj())
            and not u[:, lone].any()):
        return mirror
    return None


def solve_integrated(problem: EvolutionProblem, config: SolverConfig | None = None) -> Trajectory:
    """Picard solution of the integrated slow-frame equation.

    A conjugation-symmetric problem (``_conjugate_mirror``) is solved on its
    + components: phases, convolutions (``_ConjugatePlan``), trapezoid sums
    and distances run on half the state, and each kept row is expanded with
    U_-(k) = conj U_+(-k) at the end.  Its nodes without a mirror on the
    grid (k = -k_max on some axis) stay 0, where a full-state solve takes
    what the products' spectra put there: rounding level on band-limited
    packets (below 3e-20 on a 2048-node cubic solve), more where they reach
    the grid's edge.  The symmetry is kept exactly instead.
    Every other problem, and ``direct-oracle``, is solved on the full state.
    """
    config = config or SolverConfig()
    return _solve_integrated(problem, config, _conjugate_mirror(problem, config))


def _solve_integrated(problem: EvolutionProblem, config: SolverConfig,
                      mirror: np.ndarray | None) -> Trajectory:
    """``solve_integrated`` on the + components with the reflection ``mirror``, or on the full state."""
    h, n = time_mesh(problem, config)
    shape = problem.initial.values.shape
    h0 = problem.initial.values.reshape(shape[0], -1)
    comps = None if mirror is None else slice(0, shape[0], 2)
    tables = PropagatorTables(problem.model, problem.grid, problem.rho, comps)
    plan = _problem_plan(problem, conjugate=mirror is not None)

    def rhs_chunk(values: np.ndarray, taus: np.ndarray) -> np.ndarray:
        g = _slow_rhs_chunk(values.reshape(values.shape[:2] + shape[1:]), taus, h, problem,
                            tables, plan, config.convolution_mode)
        return g.reshape(values.shape)

    keep = _kept_samples(n, config.record_stride)
    rows, iterations, distances = _picard_trapezoid(
        rhs_chunk if problem.nonlinearity else None,
        h0 if comps is None else h0[comps],
        n, h, problem.grid.cell, config, DEFAULT_CHUNK, keep, mirror=mirror,
    )
    if mirror is not None:
        # row by row, so the expansion holds no state-sized temporary
        full = np.empty((len(keep),) + h0.shape, dtype=complex)
        full[:, comps] = rows
        for plus, minus in zip(rows, full[:, 1::2]):
            np.conjugate(np.take(plus, mirror, axis=-1, out=minus, mode="wrap"), out=minus)
        rows = full
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
    "time_mesh",
]
