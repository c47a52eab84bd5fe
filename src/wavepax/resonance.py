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

from .dispersion import DispersionModel, band_frequencies, eval_omega, group_velocity
from .errors import BandCrossingAtOutput, EnumerationCapExceeded, WavepaxError

DEFAULT_ENUMERATION_CAP = 2_000_000
DEFAULT_CLOSURE_MAX_ITER = 16
INVARIANT_CLASSES = ("universally_invariant", "conditionally_invariant")
_DISTANCE_BLOCK = 256  # rows per block of pairwise distances


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

    def contains_pair(self, n: int, k: np.ndarray) -> int | None:
        """1-based index of the pair equal to (n, k) under tol_k, else None."""
        for l, (nl, kl) in enumerate(self.pairs, start=1):
            if nl == n and np.linalg.norm(kl - k) <= self.tol_k:
                return l
        return None

    def subset(self, indices) -> "NkSpectrum":
        return NkSpectrum(tuple(self.pairs[l - 1] for l in indices), dim=self.dim)


def spectrum_from_list(pairs, dim: int | None = None) -> NkSpectrum:
    """Build a spectrum from [[n, k components...], ...]."""
    rows = [list(np.atleast_1d(row)) for row in pairs]
    d = dim or (len(rows[0]) - 1)
    return NkSpectrum(tuple((int(r[0]), np.array(r[1:], dtype=float)) for r in rows), dim=d)


def spectra_equal(a: NkSpectrum, b: NkSpectrum, tol_k: float | None = None) -> bool:
    if a.n_pairs != b.n_pairs:
        return False
    tol = tol_k if tol_k is not None else max(a.tol_k, b.tol_k)
    used = set()
    for n, k in a.pairs:
        hit = None
        for j, (nb, kb) in enumerate(b.pairs):
            if j not in used and n == nb and np.linalg.norm(k - kb) <= tol:
                hit = j
                break
        if hit is None:
            return False
        used.add(hit)
    return True


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


def all_indices(n_pairs: int, m: int):
    """All decorated indices of order m, in a fixed lexicographic order."""
    entries = [(z, l) for l in range(1, n_pairs + 1) for z in (+1, -1)]
    for combo in itertools.product(entries, repeat=m):
        yield DecoratedIndex(combo)


def kappa(index: DecoratedIndex, spectrum: NkSpectrum):
    """Signed sum of carrier wavevectors of an index."""
    out = np.zeros(spectrum.dim)
    for z, l in index.entries:
        out = out + z * spectrum.kvec(l)
    return float(out[0]) if spectrum.dim == 1 else out


def omega_combination(index: DecoratedIndex, spectrum: NkSpectrum, model: DispersionModel) -> float:
    """Signed sum of positive-branch band frequencies of an index."""
    return float(
        sum(z * eval_omega(model, spectrum.band(l), +1, spectrum.kvec(l)) for z, l in index.entries)
    )


@lru_cache(maxsize=16)
def _index_tables(n_pairs: int, orders: tuple) -> tuple:
    """Signs and 0-based slots of every index of the orders, built once and read-only.

    Each order's (2 n_pairs)^m rows follow those of the orders before it, in
    ``all_indices`` order; sign 0 (slot 0) pads the columns past its order.
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
    """sum_j z_j * values[l_j] for each row of an index table; values is (n_pairs, d).

    Starts from zero and adds one slot at a time in entry order, as ``kappa``
    and ``omega_combination`` do, so the sums agree with theirs bit for bit.
    """
    out = np.zeros((signs.shape[0], values.shape[1]))
    for j in range(signs.shape[1]):
        out = out + signs[:, j, None] * values[slots[:, j]]
    return out


def _kvec_table(spectrum: NkSpectrum) -> np.ndarray:
    return np.array([k for _, k in spectrum.pairs], dtype=float).reshape(
        spectrum.n_pairs, spectrum.dim
    )


def _candidates(values: np.ndarray, orders) -> tuple:
    """Every decorated index of the orders, each order in ``all_indices`` order.

    Returns ``(signs, slots, sums)``: the read-only ``_index_tables`` and
    per index its ``_slot_sums`` of the (n_pairs, d) ``values``.
    """
    signs, slots = _index_tables(len(values), tuple(orders))
    sums, r0 = [np.empty((0, values.shape[1]))], 0
    for m in orders:
        r1 = r0 + (2 * len(values)) ** m
        sums.append(_slot_sums(signs[r0:r1, :m], slots[r0:r1, :m], values))
        r0 = r1
    return signs, slots, np.concatenate(sums)


def _output_bands(model: DispersionModel, out_k: np.ndarray):
    """omega_{n,+} (R, J) and singular flags (R,) at output wavevectors (R, dim).

    Rows with the same 12-decimal rounding all take the values at the first.
    """
    key = np.round(out_k, 12)
    _, first, inverse = np.unique(key, axis=0, return_index=True, return_inverse=True)
    omega, singular = band_frequencies(model, out_k[first].T)
    inverse = inverse.reshape(-1)
    return omega.T[inverse], singular[inverse]


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


def default_tol_res(spectrum: NkSpectrum, model: DispersionModel) -> float:
    top = max(
        abs(eval_omega(model, n, +1, k)) for n, k in spectrum.pairs
    ) if spectrum.pairs else 0.0
    return 1e-9 * (1.0 + top)


class _HitTable(NamedTuple):
    """Resonant (m, zeta, n, index) tuples of a spectrum, in solution order.

    Hit i is the index with signs ``signs[i]`` and 0-based slots ``slots[i]``
    (sign 0 pads the columns past its order), row ``row[i]`` of the candidate
    table, resonant for the output (n[i], zeta[i]).  ``close[i]`` flags the
    pairs equal to (n[i], zeta[i] * kappa[i]) under tol_k and ``target[i]``
    is the first of them (-1: the hit is external).  ``cond[i]`` =
    delta - zeta * e_target vanishes exactly when an internal hit is
    universal.  ``skipped`` lists the (m, zeta, index, output wavevector)
    candidates on the singular set.
    """

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


def _hit_table(
    spectrum: NkSpectrum,
    model: DispersionModel,
    orders,
    tol_res: float | None = None,
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> _HitTable:
    """The resonant tuples of a spectrum, found and classified as arrays."""
    n_pairs = spectrum.n_pairs
    orders = sorted(set(int(m) for m in orders))
    total = sum(2 * model.j_bands * (2 * n_pairs) ** m for m in orders)
    if total > cap:
        raise EnumerationCapExceeded(f"{total} candidate tuples exceed cap {cap}")
    if tol_res is None:
        tol_res = default_tol_res(spectrum, model)

    omegas = np.array([eval_omega(model, n, +1, k) for n, k in spectrum.pairs], dtype=float)
    signs, slots, sums = _candidates(np.column_stack([_kvec_table(spectrum), omegas]), orders)
    kap, comb = sums[:, :-1], sums[:, -1]
    # output rows: index-major, zeta = +1, -1 inner
    out_k = np.stack([kap, -kap], axis=1).reshape(-1, spectrum.dim)
    omega, singular = _output_bands(model, out_k)
    zeta = np.tile([1, -1], len(kap))
    residual = np.abs((-zeta)[:, None] * omega + np.repeat(comb, 2)[:, None])
    hit = (residual <= tol_res) & ~singular[:, None]
    skipped = [(int(np.count_nonzero(signs[r // 2])), int(zeta[r]),
                _index_at(signs[r // 2], slots[r // 2]), out_k[r].copy())
               for r in np.nonzero(singular)[0]]

    r, b = np.nonzero(hit)
    signs, slots = signs[r // 2], slots[r // 2]
    # solution order: (m, -zeta, n, entries), an entry (z, l) ranking by z, then l
    rank = (signs + 1) * n_pairs + slots
    order = np.lexsort(tuple(rank.T[::-1]) + (b, -zeta[r], np.count_nonzero(signs, axis=1)))
    r, b, signs, slots = r[order], b[order], signs[order], slots[order]
    row, zeta, n, kap = r // 2, zeta[r], b + 1, kap[r // 2]

    bands = np.array([nl for nl, _ in spectrum.pairs], dtype=int)
    gap = np.linalg.norm(_kvec_table(spectrum) - (zeta[:, None] * kap)[:, None], axis=-1)
    close = (bands == n[:, None]) & (gap <= spectrum.tol_k)
    first = (np.cumsum(close, axis=1) == 0).sum(axis=1)  # pairs before the first close one
    target = np.where(first < n_pairs, first, -1)
    delta = (signs[:, :, None] * (slots[:, :, None] == np.arange(n_pairs))).sum(axis=1)
    cond = delta - zeta[:, None] * (np.arange(n_pairs) == target[:, None])
    return _HitTable(zeta, n, signs, slots, row, kap, residual[r, b], delta, close, target,
                     cond, skipped)


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
    hits = _hit_table(spectrum, model, orders, tol_res=tol_res, cap=cap)
    if collect_skipped is not None:
        collect_skipped.extend(hits.skipped)
    return _solutions(hits)


def _greedy_distinct(rows: np.ndarray, tol: float, labels: np.ndarray | None = None) -> np.ndarray:
    """Positions of the rows (R, d) that a greedy pass in row order keeps.

    A row is dropped when it lies within ``tol`` of a kept earlier row (with
    the same label).  Exact repeats are dropped first: each lies within
    ``tol`` of whatever kept or dropped its first occurrence.
    """
    key = rows if labels is None else np.column_stack([labels, rows])
    _, first = np.unique(key, axis=0, return_index=True)
    first = np.sort(first)
    rows = rows[first]
    keep = np.zeros(len(first), dtype=bool)
    for a in range(0, len(first), _DISTANCE_BLOCK):
        b = min(a + _DISTANCE_BLOCK, len(first))
        close = np.linalg.norm(rows[a:b, None] - rows[None, :b], axis=-1) <= tol
        if labels is not None:
            close &= labels[first[a:b], None] == labels[first[None, :b]]
        for i in range(a, b):
            keep[i] = not (close[i - a, :i] & keep[:i]).any()
    return first[keep]


def output_spectrum(spectrum: NkSpectrum, orders, tol_k: float | None = None) -> list[np.ndarray]:
    """All signed wavevector combinations reachable at the given orders.

    A combination is kept unless it lies within ``tol_k`` of one kept before
    it in ``all_indices`` order.
    """
    tol = tol_k if tol_k is not None else spectrum.tol_k
    kap = _candidates(_kvec_table(spectrum), sorted(set(int(v) for v in orders)))[2]
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


def _verdict(out_k: np.ndarray, bands: np.ndarray, internal: np.ndarray, cond: np.ndarray,
             tol_k: float) -> _Verdict:
    """Resonant outputs, class and condition rows of a spectrum, from its hits.

    Hit i outputs (``bands[i]``, ``out_k[i]``), is internal when that output
    is a pair of the spectrum (``internal[i]``) and has the condition row
    ``cond[i]``, zero exactly when an internal hit is universal.  Each tol_k
    cluster of outputs is represented by its first hit; R(S) = S exactly when
    every representative has a target.  Such a spectrum is universally
    invariant unless an internal hit is not universal, which makes it
    conditionally invariant under that hit's condition row.
    """
    reps = _greedy_distinct(out_k, tol_k, bands)
    out_res = [(int(bands[i]), out_k[i]) for i in reps]
    new = [pair for pair, known in zip(out_res, internal[reps]) if not known]
    if new:
        return _Verdict(out_res, new, "not_invariant", [])
    conditional = internal & cond.any(axis=1)
    if not conditional.any():
        return _Verdict(out_res, new, "universally_invariant", [])
    rows = {_normalize_row(tuple(row)) for row in cond[conditional].tolist()}
    return _Verdict(out_res, new, "conditionally_invariant", sorted(rows))


def _table_verdict(hits: _HitTable, tol_k: float) -> _Verdict:
    return _verdict(hits.zeta[:, None] * hits.kappa, hits.n, hits.target >= 0, hits.cond, tol_k)


def _selection_step(spectrum: NkSpectrum, model: DispersionModel, orders,
                    tol_res: float | None) -> tuple[list, list]:
    """The pairs that resonance selection adds to a spectrum, and its skipped candidates."""
    hits = _hit_table(spectrum, model, orders, tol_res=tol_res)
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

    @property
    def is_invariant(self) -> bool:
        return self.classification in INVARIANT_CLASSES

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
    for i in np.argsort(hits.row, kind="stable"):  # all_indices order within each key
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
    indices in ``all_indices`` order.
    """
    return _index_sets(spectrum, _hit_table(spectrum, model, orders, tol_res=tol_res), orders)


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

    hits = _hit_table(spectrum, model, orders, tol_res=tol_res)
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
    """Fraction of radius-perturbed spectra that are universally invariant."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = np.random.default_rng(seed)
    universal = 0
    for _ in range(trials):
        pairs = []
        for n, k in spectrum.pairs:
            shift = rng.uniform(-radius, radius, size=spectrum.dim)
            pairs.append((n, k + shift))
        trial = NkSpectrum(tuple(pairs), dim=spectrum.dim)
        try:
            hits = _hit_table(trial, model, orders)
        except EnumerationCapExceeded:
            raise  # the same for every trial: no sample to count
        except WavepaxError:
            continue  # e.g. a perturbed carrier on the singular set
        if _table_verdict(hits, trial.tol_k).classification == "universally_invariant":
            universal += 1
    return universal / trials


__all__ = [
    "NkSpectrum",
    "spectrum_from_list",
    "spectra_equal",
    "DecoratedIndex",
    "all_indices",
    "kappa",
    "omega_combination",
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
