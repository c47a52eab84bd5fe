"""Resonance combinatorics of mode spectra.

A spectrum is a finite list of (band, wavevector) pairs.  Interaction terms
of order m are labelled by decorated indices: m-tuples of (sign, pair) slots.
A decorated index is resonant for an output (sign, band) when the signed sum
of band frequencies matches the band frequency at the signed sum of carrier
wavevectors.  One table of the resonant tuples drives spectrum classification
(universal / conditional / not invariant), the resonance selection operation
and its closure, the index sets and group-velocity-matching checks.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .dispersion import (DispersionModel, _bands_at, _check_gaps, band_frequencies, eval_omega,
                         group_velocity)
from .errors import BandCrossingAtOutput, EnumerationCapExceeded

DEFAULT_ENUMERATION_CAP = 2_000_000
DEFAULT_CLOSURE_MAX_ITER = 16
INVARIANT_CLASSES = ("universally_invariant", "conditionally_invariant")
_TRIAL_ROWS = 4096  # candidate rows per block of genericity trials


# -- spectra ------------------------------------------------------------------

def _as_kvec(k, dim: int) -> np.ndarray:
    kv = np.atleast_1d(np.asarray(k, dtype=float))
    if kv.shape != (dim,):
        raise ValueError(f"wavevector {k} does not have dimension {dim}")
    return kv


@dataclass(frozen=True)
class NkSpectrum:
    """Ordered list of distinct (band, wavevector) pairs.

    Pairs are re-ordered on construction so that the first occurrences of the
    distinct wavevectors form a prefix; this fixes the pair numbering.
    """

    pairs: tuple  # ((n, kvec), ...) with kvec an ndarray of shape (dim,)
    dim: int = 1
    tol_k: float = 0.0  # resolved in __post_init__

    def __post_init__(self):
        pairs = [(int(n), _as_kvec(k, self.dim)) for (n, k) in self.pairs]
        if not pairs:
            object.__setattr__(self, "pairs", ())
            object.__setattr__(self, "tol_k", 1e-9)
            return
        tol = self.tol_k or 1e-9 * (1.0 + max(float(np.abs(k).max()) for _, k in pairs))
        for (na, ka), (nb, kb) in itertools.combinations(pairs, 2):
            if na == nb and np.linalg.norm(ka - kb) <= tol:
                raise ValueError("spectrum pairs must be pairwise distinct")
        # distinct-wavevector prefix ordering
        firsts, dups = [], []
        seen: list[np.ndarray] = []
        for p in pairs:
            if any(np.linalg.norm(p[1] - s) <= tol for s in seen):
                dups.append(p)
            else:
                seen.append(p[1])
                firsts.append(p)
        object.__setattr__(self, "pairs", tuple(firsts + dups))
        object.__setattr__(self, "tol_k", tol)

    @property
    def n_pairs(self) -> int:
        return len(self.pairs)

    def band(self, l: int) -> int:
        return self.pairs[l - 1][0]

    def kvec(self, l: int) -> np.ndarray:
        return self.pairs[l - 1][1]

    def subset(self, indices) -> "NkSpectrum":
        return NkSpectrum(tuple(self.pairs[l - 1] for l in indices), dim=self.dim)


def spectrum_from_list(pairs, dim: int | None = None) -> NkSpectrum:
    """Build a spectrum from [[n, k components...], ...]."""
    rows = [list(np.atleast_1d(row)) for row in pairs]
    d = dim or (len(rows[0]) - 1)
    return NkSpectrum(tuple((int(r[0]), np.array(r[1:], dtype=float)) for r in rows), dim=d)


# -- decorated indices ----------------------------------------------------------

@dataclass(frozen=True)
class DecoratedIndex:
    """m-tuple of (sign, pair-index) slots labelling one interaction term."""

    entries: tuple  # ((zeta, l), ...) with zeta in {+1,-1}, l 1-based

    def __post_init__(self):
        for z, l in self.entries:
            if z not in (1, -1) or l < 1:
                raise ValueError("invalid decorated index entry")

    @property
    def m(self) -> int:
        return len(self.entries)

    def slots(self) -> tuple:
        return tuple(l for _, l in self.entries)

    def negated(self) -> "DecoratedIndex":
        return DecoratedIndex(tuple((-z, l) for z, l in self.entries))


@lru_cache(maxsize=16)
def _index_tables(n_pairs: int, orders: tuple) -> tuple:
    """Signs and 0-based slots of every index of the orders, built once and read-only.

    Each order's (2 n_pairs)^m rows follow those of the orders before it, in
    lexicographic order of their entries, an entry ranking as (+1, 1),
    (-1, 1), (+1, 2), ...; sign 0 (slot 0) pads the columns past its order.
    """
    e = [np.indices((2 * n_pairs,) * m).reshape(m, -1).T for m in orders]
    signs = np.zeros((sum(len(t) for t in e), max(orders, default=0)), dtype=int)
    slots = np.zeros_like(signs)
    r0 = 0
    for t in e:
        signs[r0:r0 + len(t), :t.shape[1]] = 1 - 2 * (t % 2)
        slots[r0:r0 + len(t), :t.shape[1]] = t // 2
        r0 += len(t)
    signs.flags.writeable = slots.flags.writeable = False
    return signs, slots


def _slot_sums(signs: np.ndarray, slots: np.ndarray, values: np.ndarray) -> np.ndarray:
    """sum_j z_j * values[..., l_j, :] for each row of an index table; values is (..., n_pairs, d).

    Starts from zero and adds one slot at a time in entry order, so the sums
    agree bit for bit with a per-index loop over the entries.
    """
    out = np.zeros(values.shape[:-2] + (signs.shape[0], values.shape[-1]))
    for j in range(signs.shape[1]):
        out = out + signs[:, j, None] * values[..., slots[:, j], :]
    return out


def _candidates(values: np.ndarray, orders) -> tuple:
    """Every decorated index of the orders, in ``_index_tables`` order.

    Returns ``(signs, slots, sums)``: the read-only ``_index_tables`` and
    per index its ``_slot_sums`` of the (..., n_pairs, d) ``values``.
    """
    signs, slots = _index_tables(values.shape[-2], tuple(orders))
    sums, r0 = [np.empty(values.shape[:-2] + (0, values.shape[-1]))], 0
    for m in orders:
        r1 = r0 + (2 * values.shape[-2]) ** m
        sums.append(_slot_sums(signs[r0:r1, :m], slots[r0:r1, :m], values))
        r0 = r1
    return signs, slots, np.concatenate(sums, axis=-2)


def _unique_rows(key: np.ndarray) -> tuple:
    """First occurrences and inverse of the distinct rows of each (R, d) stack of a float key.

    Per stack they are those of ``np.unique(stack, axis=0, return_index=True,
    return_inverse=True)``: distinct rows in ascending lexicographic order,
    -0.0 equal to 0.0, each first occurrence the lowest position of its row.
    Both are positions in the (-1, d) rows of all stacks, stack by stack.
    Per-stack argsorts stand in for its sort of a structured view.
    """
    rows, d = key.shape[-2:]
    key = key.reshape(np.prod(key.shape[:-2], dtype=int), rows, d)
    order = np.argsort(key[..., -1], axis=-1)  # unstable: first occurrences are found below
    for j in range(d - 2, -1, -1):
        col = np.take_along_axis(key[..., j], order, axis=-1)
        order = np.take_along_axis(order, np.argsort(col, axis=-1, kind="stable"), axis=-1)
    order = (order + rows * np.arange(len(key))[:, None]).reshape(-1)
    srt = key.reshape(-1, d)[order]
    new = np.ones(len(order), dtype=bool)
    new[1:] = (srt[1:] != srt[:-1]).any(axis=1)
    new[::max(rows, 1)] = True  # a stack's first row
    inverse = np.empty(len(order), dtype=np.intp)
    inverse[order] = np.cumsum(new) - 1
    return np.minimum.reduceat(order, np.flatnonzero(new)) if order.size else order, inverse


def _output_bands(model: DispersionModel, out_k: np.ndarray):
    """omega_{n,+} (T, R, J) and singular flags (T, R) at output wavevectors (T, R, dim).

    Rows of one of the T stacks with the same 12-decimal rounding all take
    the values at the first of them.
    """
    t, rows, dim = out_k.shape
    first, inverse = _unique_rows(np.round(out_k, 12))
    omega, singular = band_frequencies(model, out_k.reshape(-1, dim)[first].T)
    return omega.T[inverse].reshape(t, rows, model.j_bands), singular[inverse].reshape(t, rows)


def _index_at(signs: np.ndarray, slots: np.ndarray) -> "DecoratedIndex":
    """The index of one table row: signs and 0-based slots, sign 0 pads."""
    return DecoratedIndex(tuple((int(z), int(l) + 1) for z, l in zip(signs, slots) if z))


# -- resonance solutions ---------------------------------------------------------

@dataclass(frozen=True)
class ResonanceSolution:
    m: int
    zeta: int
    n: int
    index: DecoratedIndex
    delta: tuple
    kappa: np.ndarray
    omega_residual: float
    klass: str               # 'universal' | 'internal' | 'external'
    target: int | None       # pair hit by (n, zeta*kappa) when internal
    b_row: tuple | None      # integer condition row for internal solutions
    c_vec: tuple | None

    def key(self):
        return (self.m, self.zeta, self.n, self.index.entries)


def _tol_res(omegas) -> float:
    """The default frequency tolerance of a spectrum with carrier frequencies ``omegas``."""
    return 1e-9 * (1.0 + max((abs(w) for w in omegas), default=0.0))


def default_tol_res(spectrum: NkSpectrum, model: DispersionModel) -> float:
    return _tol_res([eval_omega(model, n, +1, k) for n, k in spectrum.pairs])


class _HitTable(NamedTuple):
    """Resonant (m, zeta, n, index) tuples of T spectra, in solution order per spectrum.

    Hit i is the index with signs ``signs[i]`` and 0-based slots ``slots[i]``
    (sign 0 pads the columns past its order), row ``row[i]`` of the candidate
    table of spectrum ``trial[i]``, resonant for the output (n[i], zeta[i]).
    ``close[i]`` flags the pairs equal to (n[i], zeta[i] * kappa[i]) under
    that spectrum's tol_k and ``target[i]`` is the first of them (-1: the hit
    is external).  ``cond[i]`` = delta - zeta * e_target vanishes exactly
    when an internal hit is universal.  ``skipped`` lists the (m, zeta,
    index, output wavevector) candidates on the singular set.
    """

    trial: np.ndarray      # (H,) 0-based, ascending
    zeta: np.ndarray       # (H,)
    n: np.ndarray          # (H,) 1-based band
    signs: np.ndarray      # (H, max order)
    slots: np.ndarray      # (H, max order)
    row: np.ndarray        # (H,)
    kappa: np.ndarray      # (H, dim)
    residual: np.ndarray   # (H,) |frequency mismatch|
    delta: np.ndarray      # (H, n_pairs)
    close: np.ndarray      # (H, n_pairs)
    target: np.ndarray     # (H,) 0-based
    cond: np.ndarray       # (H, n_pairs)
    skipped: list


def _candidate_rows(n_pairs: int, model: DispersionModel, orders, cap: int) -> int:
    """Candidate indices of one spectrum; raises when their (zeta, n) outputs exceed ``cap``."""
    rows = sum((2 * n_pairs) ** m for m in orders)
    if 2 * model.j_bands * rows > cap:
        raise EnumerationCapExceeded(f"{2 * model.j_bands * rows} candidate tuples exceed cap {cap}")
    return rows


def _carriers(spectra, model: DispersionModel) -> tuple:
    """Bands (T, P), wavevectors (T, P, dim) and omega_{n,+} (T, P) of T spectra's pairs.

    The last two values are ``_bands_at``'s gap and tolerance (T, P): where
    the gap is below the tolerance, ``eval_omega`` raises BandCrossing.
    """
    t, p, dim = len(spectra), spectra[0].n_pairs, spectra[0].dim
    bands = np.array([[n for n, _ in s.pairs] for s in spectra], dtype=int).reshape(t, p)
    kvecs = np.array([[k for _, k in s.pairs] for s in spectra], dtype=float).reshape(t, p, dim)
    omega, _, gap, tol = _bands_at(model, bands.reshape(-1), +1, kvecs.reshape(-1, dim).T)
    return bands, kvecs, omega.reshape(t, p), gap.reshape(t, p), tol.reshape(t, p)


def _hit_table(
    spectra,
    model: DispersionModel,
    orders,
    tol_res: float | None = None,
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> _HitTable:
    """The resonant tuples of T spectra, found and classified as arrays.

    The spectra share their number of pairs and dimension; each keeps its
    own bands, tol_k and default tol_res.  The hits of spectrum t are those
    of its table alone, with trial t.  A carrier where ``eval_omega`` raises
    BandCrossing raises it here too.
    """
    n_pairs, dim, t = spectra[0].n_pairs, spectra[0].dim, len(spectra)
    orders = sorted(set(int(m) for m in orders))
    _candidate_rows(n_pairs, model, orders, cap)
    bands, kvecs, omegas, gap, tol = _carriers(spectra, model)
    _check_gaps(gap.reshape(-1), tol.reshape(-1))
    if tol_res is None:
        tol_res = [_tol_res(row) for row in omegas.tolist()]
    tol_res = np.broadcast_to(np.asarray(tol_res, dtype=float), (t,))
    tol_k = np.array([s.tol_k for s in spectra])

    signs, slots, sums = _candidates(np.concatenate([kvecs, omegas[..., None]], axis=-1), orders)
    kap, comb = sums[..., :-1], sums[..., -1]
    # output rows per spectrum: index-major, zeta = +1, -1 inner
    out_k = np.stack([kap, -kap], axis=2).reshape(t, -1, dim)
    omega, singular = _output_bands(model, out_k)
    zeta = np.tile([1, -1], kap.shape[1])
    residual = np.abs((-zeta)[:, None] * omega + np.repeat(comb, 2, axis=-1)[..., None])
    hit = (residual <= tol_res[:, None, None]) & ~singular[..., None]
    skipped = [(int(np.count_nonzero(signs[r // 2])), int(zeta[r]),
                _index_at(signs[r // 2], slots[r // 2]), out_k[i, r].copy())
               for i, r in zip(*np.nonzero(singular))]

    tr, r, b = np.nonzero(hit)
    signs, slots = signs[r // 2], slots[r // 2]
    # solution order: trial, then (m, -zeta, n, entries), an entry (z, l) ranking by z, then l
    rank = (signs + 1) * n_pairs + slots
    order = np.lexsort(tuple(rank.T[::-1]) + (b, -zeta[r], np.count_nonzero(signs, axis=1), tr))
    tr, r, b, signs, slots = tr[order], r[order], b[order], signs[order], slots[order]
    row, zeta, n, kap = r // 2, zeta[r], b + 1, kap[tr, r // 2]

    gap = np.linalg.norm(kvecs[tr] - (zeta[:, None] * kap)[:, None], axis=-1)
    close = (bands[tr] == n[:, None]) & (gap <= tol_k[tr, None])
    first = (np.cumsum(close, axis=1) == 0).sum(axis=1)  # pairs before the first close one
    target = np.where(first < n_pairs, first, -1)
    delta = (signs[:, :, None] * (slots[:, :, None] == np.arange(n_pairs))).sum(axis=1)
    cond = delta - zeta[:, None] * (np.arange(n_pairs) == target[:, None])
    return _HitTable(tr, zeta, n, signs, slots, row, kap, residual[tr, r, b], delta, close,
                     target, cond, skipped)


def _solutions(hits: _HitTable) -> list[ResonanceSolution]:
    """The hits as ``ResonanceSolution`` objects, in table order."""
    counts = (np.abs(hits.signs)[:, :, None]
              * (hits.slots[:, :, None] == np.arange(hits.delta.shape[1]))).sum(axis=1)
    out = []
    for i, t in enumerate(hits.target.tolist()):
        klass = "external" if t < 0 else "internal" if hits.cond[i].any() else "universal"
        index = _index_at(hits.signs[i], hits.slots[i])
        out.append(ResonanceSolution(
            index.m, int(hits.zeta[i]), int(hits.n[i]), index, tuple(hits.delta[i].tolist()),
            hits.kappa[i], float(hits.residual[i]), klass,
            None if t < 0 else t + 1,
            None if t < 0 else tuple(hits.cond[i].tolist()),
            None if t < 0 else tuple(counts[i].tolist()),
        ))
    return out


def enumerate_solutions(
    spectrum: NkSpectrum,
    model: DispersionModel,
    orders,
    tol_res: float | None = None,
    cap: int = DEFAULT_ENUMERATION_CAP,
    collect_skipped: list | None = None,
) -> list[ResonanceSolution]:
    """All resonant (m, zeta, n, index) tuples, deterministically ordered.

    Indices whose output wavevector hits the singular set are skipped and,
    when ``collect_skipped`` is given, recorded there.
    """
    hits = _hit_table([spectrum], model, orders, tol_res=tol_res, cap=cap)
    if collect_skipped is not None:
        collect_skipped.extend(hits.skipped)
    return _solutions(hits)


def _greedy_distinct(rows: np.ndarray, tol, labels: np.ndarray | None = None) -> np.ndarray:
    """Positions of the rows (R, d) that a greedy pass in row order keeps.

    A row is dropped when it lies within ``tol`` (one value, or one per row)
    of a kept earlier row with the same label.  Each round keeps the first
    undecided row of every label and drops the undecided rows of that label
    within tol of it, which decides them as the pass in row order would.
    """
    labels = np.zeros(len(rows), dtype=int) if labels is None else labels
    tol = np.broadcast_to(tol, (len(rows),))
    left, kept = np.arange(len(rows)), []
    while left.size:
        _, lead, group = np.unique(labels[left], return_index=True, return_inverse=True)
        near = np.linalg.norm(rows[left] - rows[left[lead][group]], axis=-1) <= tol[left]
        near[lead] = True
        kept.append(left[lead])
        left = left[~near]
    return np.sort(np.concatenate(kept)) if kept else left


def output_spectrum(spectrum: NkSpectrum, orders, tol_k: float | None = None) -> list[np.ndarray]:
    """All signed wavevector combinations reachable at the given orders.

    A combination is kept unless it lies within ``tol_k`` of one kept before
    it in ``_index_tables`` order.
    """
    tol = tol_k if tol_k is not None else spectrum.tol_k
    kvecs = np.array([k for _, k in spectrum.pairs], dtype=float).reshape(-1, spectrum.dim)
    kap = _candidates(kvecs, sorted(set(int(v) for v in orders)))[2]
    return list(kap[_greedy_distinct(kap, tol)])


class _Verdict(NamedTuple):
    out_res: list       # representative (band, zeta * kappa) outputs, in hit order
    new: list           # those of them that the spectrum lacks: R(S) minus S
    classification: str
    conditions: list    # sorted condition rows of the internal, non-universal hits


def _normalize_row(row: tuple) -> tuple:
    for v in row:
        if v != 0:
            return row if v > 0 else tuple(-x for x in row)
    return row


def _verdict_hits(out_k: np.ndarray, labels: np.ndarray, internal: np.ndarray,
                  cond: np.ndarray, tol_k) -> tuple:
    """The hits that decide a class: (representatives, new, conditional) positions.

    Hit i outputs ``out_k[i]`` under ``labels[i]`` (its band, or its trial and
    band), is internal when that output is a pair of its spectrum
    (``internal[i]``) and has the condition row ``cond[i]``, zero exactly
    when an internal hit is universal.  Each tol_k cluster of one label's
    outputs is represented by its first hit; a representative without a
    target is new, and an internal hit with a nonzero row is conditional.
    A spectrum is universally invariant when it has neither.
    """
    reps = _greedy_distinct(out_k, tol_k, labels)
    return reps, reps[~internal[reps]], np.flatnonzero(internal & cond.any(axis=1))


def _verdict(out_k: np.ndarray, bands: np.ndarray, internal: np.ndarray, cond: np.ndarray,
             tol_k: float) -> _Verdict:
    """Resonant outputs, class and condition rows of a spectrum, from its hits.

    R(S) = S exactly when no representative is new (``_verdict_hits``).
    Such a spectrum is universally invariant unless a hit is conditional,
    which makes it conditionally invariant under that hit's condition row.
    """
    reps, new, conditional = _verdict_hits(out_k, bands, internal, cond, tol_k)
    out_res = [(int(bands[i]), out_k[i]) for i in reps]
    new = [(int(bands[i]), out_k[i]) for i in new]
    if new:
        return _Verdict(out_res, new, "not_invariant", [])
    if not conditional.size:
        return _Verdict(out_res, new, "universally_invariant", [])
    rows = {_normalize_row(tuple(row)) for row in cond[conditional].tolist()}
    return _Verdict(out_res, new, "conditionally_invariant", sorted(rows))


def _table_verdict(hits: _HitTable, tol_k: float) -> _Verdict:
    return _verdict(hits.zeta[:, None] * hits.kappa, hits.n, hits.target >= 0, hits.cond, tol_k)


def _selection_step(spectrum: NkSpectrum, model: DispersionModel, orders,
                    tol_res: float | None) -> tuple[list, list]:
    """The pairs that resonance selection adds to a spectrum, and its skipped candidates."""
    hits = _hit_table([spectrum], model, orders, tol_res=tol_res)
    return _table_verdict(hits, spectrum.tol_k).new, hits.skipped


def resonance_select(
    spectrum: NkSpectrum,
    model: DispersionModel,
    orders,
    tol_res: float | None = None,
) -> NkSpectrum:
    """Spectrum augmented by its resonant output pairs."""
    new, _ = _selection_step(spectrum, model, orders, tol_res)
    return NkSpectrum(spectrum.pairs + tuple(new), dim=spectrum.dim, tol_k=spectrum.tol_k)


def _closure(spectrum: NkSpectrum, first: tuple[list, list], model: DispersionModel, orders,
             max_iter: int, tol_res: float | None, max_pairs: int) -> tuple[NkSpectrum, bool, int]:
    """``closure`` of a spectrum whose own selection step gave ``first``."""
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    current = spectrum
    for it in range(1, max_iter + 1):
        new, skipped = first if it == 1 else _selection_step(current, model, orders, tol_res)
        if skipped:
            raise BandCrossingAtOutput(
                f"{len(skipped)} candidate outputs on the singular set during closure"
            )
        if not new:
            return current, True, it
        nxt = NkSpectrum(current.pairs + tuple(new), dim=current.dim, tol_k=current.tol_k)
        if nxt.n_pairs > max_pairs:
            return nxt, False, it
        current = nxt
    return current, False, max_iter


def closure(
    spectrum: NkSpectrum,
    model: DispersionModel,
    orders,
    max_iter: int = DEFAULT_CLOSURE_MAX_ITER,
    tol_res: float | None = None,
    max_pairs: int = 64,
) -> tuple[NkSpectrum, bool, int]:
    """Iterate resonance selection to a fixed point.

    Returns (spectrum, converged, iterations).  Raises BandCrossingAtOutput
    when an output wavevector of a candidate lands on the singular set, since
    the selection at such points is undecidable.  Degenerate dispersion can
    make the iterates grow without bound; the size cap stops that with
    converged = False.
    """
    first = _selection_step(spectrum, model, orders, tol_res)
    return _closure(spectrum, first, model, orders, max_iter, tol_res, max_pairs)


# -- classification ---------------------------------------------------------------

@dataclass
class ResonanceReport:
    spectrum: NkSpectrum
    solutions: list
    internal: list
    universal: list
    out_k: list
    out_res: list
    selected: NkSpectrum
    classification: str
    conditions: list          # integer rows b with sum_l b_l * omega_l(k_l) = 0
    closure_iterations: int | None
    skipped: list = field(default_factory=list)
    conditions_exact: bool | None = None

    def to_dict(self) -> dict:
        def row(n, k):
            return [int(n)] + [float(v) for v in np.atleast_1d(k)]

        return {
            "spectrum": [row(n, k) for n, k in self.spectrum.pairs],
            "n_solutions": len(self.solutions),
            "n_internal": len(self.internal),
            "n_universal": len(self.universal),
            "out_k": [[float(v) for v in np.atleast_1d(k)] for k in self.out_k],
            "out_res": [row(n, k) for n, k in self.out_res],
            "selected": [row(n, k) for n, k in self.selected.pairs],
            "classification": self.classification,
            "conditions": [[int(v) for v in row] for row in self.conditions],
            "closure_iterations": self.closure_iterations,
            "n_skipped": len(self.skipped),
            "conditions_exact": self.conditions_exact,
            "solutions": [
                {
                    "m": s.m,
                    "zeta": s.zeta,
                    "n": s.n,
                    "index": [list(e) for e in s.index.entries],
                    "class": s.klass,
                    "residual": s.omega_residual,
                }
                for s in self.solutions
            ],
        }


def _exact_condition_check(model: DispersionModel, spectrum: NkSpectrum, rows) -> bool | None:
    """Verify condition rows in rational arithmetic when the model allows it."""
    exact = getattr(model, "exact_bands", None)
    if not exact or spectrum.dim != 1:
        return None
    try:
        ks = [Fraction(float(k[0])).limit_denominator(10**9) for _, k in spectrum.pairs]
        for row in rows:
            total = Fraction(0)
            for coeff, (n, _), kf in zip(row, spectrum.pairs, ks):
                total += coeff * exact[n - 1](kf)
            if total != 0:
                return False
        return True
    except Exception:
        return None


def classify(
    spectrum: NkSpectrum,
    model: DispersionModel,
    orders,
    tol_res: float | None = None,
    exact: bool = False,
) -> ResonanceReport:
    """Full resonance report for a spectrum.

    The solutions are those of ``enumerate_solutions``; R(S), the class and
    the condition rows follow from them by the rule of ``_verdict``.
    """
    skipped: list = []
    solutions = enumerate_solutions(
        spectrum, model, orders, tol_res=tol_res, collect_skipped=skipped
    )
    n_hits, n_pairs = len(solutions), spectrum.n_pairs
    verdict = _verdict(
        np.array([s.zeta * s.kappa for s in solutions]).reshape(n_hits, spectrum.dim),
        np.array([s.n for s in solutions], dtype=int),
        np.array([s.target is not None for s in solutions], dtype=bool),
        np.array([s.b_row or (0,) * n_pairs for s in solutions],
                 dtype=int).reshape(n_hits, n_pairs),
        spectrum.tol_k,
    )
    try:
        _, converged, iterations = _closure(
            spectrum, (verdict.new, skipped), model, orders, DEFAULT_CLOSURE_MAX_ITER, tol_res,
            max_pairs=16,
        )
        closure_iterations = iterations if converged else None
    except BandCrossingAtOutput:
        closure_iterations = None

    conditions_exact = (_exact_condition_check(model, spectrum, verdict.conditions)
                        if exact else None)
    return ResonanceReport(
        spectrum=spectrum,
        solutions=solutions,
        internal=[s for s in solutions if s.klass != "external"],
        universal=[s for s in solutions if s.klass == "universal"],
        out_k=output_spectrum(spectrum, orders),
        out_res=verdict.out_res,
        selected=NkSpectrum(spectrum.pairs + tuple(verdict.new), dim=spectrum.dim,
                            tol_k=spectrum.tol_k),
        classification=verdict.classification,
        conditions=verdict.conditions,
        closure_iterations=closure_iterations,
        skipped=skipped,
        conditions_exact=conditions_exact,
    )


# -- index sets for the interaction machinery --------------------------------------

def _index_sets(spectrum: NkSpectrum, hits: _HitTable, orders):
    """``resonant_index_sets``' two mappings, grouped from a hit table."""
    resonant: dict = {(l, theta, m): [] for l in range(1, spectrum.n_pairs + 1)
                      for theta in (+1, -1) for m in sorted(set(int(v) for v in orders))}
    contributing: dict = {key: [] for key in resonant}
    for i in np.argsort(hits.row, kind="stable"):  # candidate order within each key
        index = _index_at(hits.signs[i], hits.slots[i])
        for l in range(1, spectrum.n_pairs + 1):
            if spectrum.band(l) == hits.n[i]:
                key = (l, int(hits.zeta[i]), index.m)
                resonant[key].append(index)
                if hits.close[i, l - 1]:
                    contributing[key].append(index)
    return resonant, contributing


def resonant_index_sets(
    spectrum: NkSpectrum,
    model: DispersionModel,
    orders,
    tol_res: float | None = None,
):
    """Resonant and contributing decorated-index sets per (pair, sign, order).

    ``resonant[(l, theta, m)]`` lists every index whose frequency mismatch for
    the output (band(l), theta) vanishes.  ``contributing`` keeps only those
    whose signed wavevector sum equals theta * k_l, i.e. the terms that
    survive the output cutoff in the interaction equations.  Both list
    indices in ``_index_tables`` order.
    """
    return _index_sets(spectrum, _hit_table([spectrum], model, orders, tol_res=tol_res), orders)


# -- group velocity matching ---------------------------------------------------------

def _pair_velocity(model: DispersionModel, spectrum: NkSpectrum, l: int) -> np.ndarray:
    return np.atleast_1d(group_velocity(model, spectrum.band(l), +1, spectrum.kvec(l)))


def default_tol_gv(model: DispersionModel, spectrum: NkSpectrum) -> float:
    scale = max(
        (float(np.linalg.norm(_pair_velocity(model, spectrum, l))) for l in range(1, spectrum.n_pairs + 1)),
        default=0.0,
    )
    return 1e-9 * (1.0 + scale)


def gvm_check(
    spectrum: NkSpectrum,
    model: DispersionModel,
    index_sets,
    tol_gv: float | None = None,
) -> tuple[dict, list[int]]:
    """Per-pair group-velocity-matched flags and the matched subset.

    ``index_sets`` is either the contributing-index mapping from
    ``resonant_index_sets`` or an object exposing it as ``.contributing``.
    A pair is matched when every contributing index in its equations has a
    slot whose pair moves with the same group velocity.
    """
    mapping = getattr(index_sets, "contributing", index_sets)
    if tol_gv is None:
        tol_gv = default_tol_gv(model, spectrum)
    vels = {l: _pair_velocity(model, spectrum, l) for l in range(1, spectrum.n_pairs + 1)}
    flags: dict[int, bool] = {}
    for l in range(1, spectrum.n_pairs + 1):
        ok = True
        for (ll, theta, m), indices in mapping.items():
            if ll != l:
                continue
            for index in indices:
                if not any(
                    np.linalg.norm(vels[l] - vels[lj]) <= tol_gv for lj in index.slots()
                ):
                    ok = False
                    break
            if not ok:
                break
        flags[l] = ok
    subset = [l for l, v in flags.items() if v]
    return flags, subset


def partial_gvm_check(
    spectrum: NkSpectrum,
    partition,
    model: DispersionModel,
    orders,
    tol_res: float | None = None,
    tol_gv: float | None = None,
) -> tuple[bool, list]:
    """Check that a partition decouples up to group-velocity-mismatched terms.

    ``partition`` lists disjoint groups of 1-based pair indices covering the
    spectrum.  Returns (ok, violations); each violation is a tuple
    ('part_not_invariant', part) or ('cross_solution', solution).
    """
    parts = [tuple(sorted(int(l) for l in p)) for p in partition]
    covered = sorted(l for p in parts for l in p)
    if covered != list(range(1, spectrum.n_pairs + 1)):
        raise ValueError("partition must cover the spectrum pairs exactly once")
    part_of = {l: i for i, p in enumerate(parts) for l in p}

    violations: list = []
    for p in parts:
        if _selection_step(spectrum.subset(p), model, orders, tol_res)[0]:
            violations.append(("part_not_invariant", p))

    hits = _hit_table([spectrum], model, orders, tol_res=tol_res)
    _, contributing = _index_sets(spectrum, hits, orders)
    flags, _ = gvm_check(spectrum, model, contributing, tol_gv=tol_gv)
    if tol_gv is None:
        tol_gv = default_tol_gv(model, spectrum)
    vels = {l: _pair_velocity(model, spectrum, l) for l in range(1, spectrum.n_pairs + 1)}

    for s in _solutions(hits):
        slots = set(s.index.slots())
        if len({part_of[l] for l in slots}) < 2:
            continue  # not cross-interacting
        ok = any(
            part_of[li] != part_of[lj]
            and flags[li]
            and flags[lj]
            and np.linalg.norm(vels[li] - vels[lj]) > tol_gv
            for li in slots
            for lj in slots
        )
        if not ok:
            violations.append(("cross_solution", s))
    return (not violations), violations


def genericity_probe(
    spectrum: NkSpectrum,
    model: DispersionModel,
    orders,
    trials: int,
    radius: float,
    seed: int = 0,
) -> float:
    """Fraction of radius-perturbed spectra that are universally invariant.

    Each trial shifts every carrier wavevector by a uniform draw from
    [-radius, radius]^dim.  A trial with a carrier where ``eval_omega``
    raises BandCrossing counts as not invariant.  The trials are decided in
    blocks, each from one hit table.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    orders = sorted(set(int(m) for m in orders))
    rows = _candidate_rows(spectrum.n_pairs, model, orders, DEFAULT_ENUMERATION_CAP)
    per_block = max(1, _TRIAL_ROWS // max(rows, 1))  # trials
    rng = np.random.default_rng(seed)
    universal = 0
    for start in range(0, trials, per_block):
        shifts = rng.uniform(-radius, radius,
                             size=(min(per_block, trials - start), spectrum.n_pairs, spectrum.dim))
        block = [NkSpectrum(tuple((n, k + d) for (n, k), d in zip(spectrum.pairs, shift)),
                            dim=spectrum.dim) for shift in shifts]
        gap, tol = _carriers(block, model)[3:]
        block = [s for s, closed in zip(block, (gap < tol).any(axis=1)) if not closed]
        if not block:
            continue
        hits = _hit_table(block, model, orders)
        tol_k = np.array([s.tol_k for s in block])[hits.trial]
        _, new, conditional = _verdict_hits(hits.zeta[:, None] * hits.kappa,
                                            hits.trial * (model.j_bands + 1) + hits.n,
                                            hits.target >= 0, hits.cond, tol_k)
        failed = np.bincount(hits.trial[np.concatenate([new, conditional])], minlength=len(block))
        universal += int(np.count_nonzero(failed == 0))
    return universal / trials


__all__ = [
    "NkSpectrum",
    "spectrum_from_list",
    "DecoratedIndex",
    "ResonanceSolution",
    "ResonanceReport",
    "enumerate_solutions",
    "output_spectrum",
    "resonance_select",
    "closure",
    "classify",
    "resonant_index_sets",
    "gvm_check",
    "partial_gvm_check",
    "genericity_probe",
    "default_tol_res",
    "default_tol_gv",
]
