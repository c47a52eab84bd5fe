"""Resonance combinatorics of mode spectra.

A spectrum is a finite list of (band, wavevector) pairs.  Interaction terms
of order m are labelled by decorated indices: m-tuples of (sign, pair) slots.
A decorated index is resonant for an output (sign, band) when the signed sum
of band frequencies matches the band frequency at the signed sum of carrier
wavevectors.  Enumerating these solutions drives spectrum classification
(universal / conditional / invariant / not invariant), the resonance
selection operation and its closure, and group-velocity-matching checks.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .dispersion import DispersionModel, band_frequencies, eval_omega, group_velocity
from .errors import BandCrossingAtOutput, EnumerationCapExceeded, WavepaxError

DEFAULT_ENUMERATION_CAP = 2_000_000
DEFAULT_CLOSURE_MAX_ITER = 16
INVARIANT_CLASSES = ("universally_invariant", "conditionally_invariant", "invariant")
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

    def delta(self, n_pairs: int) -> np.ndarray:
        d = np.zeros(n_pairs, dtype=int)
        for z, l in self.entries:
            d[l - 1] += z
        return d

    def cardinality(self, n_pairs: int) -> tuple:
        c = [0] * n_pairs
        for _, l in self.entries:
            c[l - 1] += 1
        return tuple(c)


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


def _index_table(n_pairs: int, m: int):
    """Signs and 0-based slots of every order-m index, each (M, m), in ``all_indices`` order."""
    e = np.indices((2 * n_pairs,) * m).reshape(m, (2 * n_pairs) ** m).T
    return 1 - 2 * (e % 2), e // 2


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


class _OrderTable(NamedTuple):
    """All order-m decorated indices as arrays, in ``all_indices`` order."""

    m: int
    signs: np.ndarray   # (M, m)
    slots: np.ndarray   # (M, m), 0-based
    kappa: np.ndarray   # (M, dim)


def _candidates(spectrum: NkSpectrum, model: DispersionModel, orders):
    """Index tables of the orders and their (index, zeta) output rows.

    Returns ``(tables, out_k, comb, starts)``: one ``_OrderTable`` per
    order, then per row zeta * kappa and the index's frequency sum (as
    ``omega_combination``).  Rows run over the orders, index-major with
    zeta = +1, -1 inner, which is the order the per-index loop visited them
    in; order i owns rows ``starts[i]:starts[i + 1]``.
    """
    kvecs = _kvec_table(spectrum)
    omegas = np.array(
        [eval_omega(model, n, +1, k) for n, k in spectrum.pairs], dtype=float
    ).reshape(-1, 1)
    tables, outs, combs = [], [np.empty((0, spectrum.dim))], [np.empty(0)]
    for m in orders:
        signs, slots = _index_table(spectrum.n_pairs, m)
        kap = _slot_sums(signs, slots, kvecs)
        tables.append(_OrderTable(m, signs, slots, kap))
        outs.append(np.stack([kap, -kap], axis=1).reshape(-1, spectrum.dim))
        combs.append(np.repeat(_slot_sums(signs, slots, omegas)[:, 0], 2))
    starts = np.cumsum([0] + [len(c) for c in combs[1:]])
    return tables, np.concatenate(outs), np.concatenate(combs), starts


def _output_bands(model: DispersionModel, out_k: np.ndarray, rounded: bool):
    """omega_{n,+} (R, J) and singular flags (R,) at output wavevectors (R, dim).

    Each distinct row is evaluated once.  With ``rounded`` rows are keyed on
    their 12-decimal rounding and all take the value at the first row with
    their key; otherwise every row takes its own value.
    """
    key = np.round(out_k, 12) if rounded else out_k.view(np.int64)
    _, first, inverse = np.unique(key, axis=0, return_index=True, return_inverse=True)
    omega, singular = band_frequencies(model, out_k[first].T)
    inverse = inverse.reshape(-1)
    return omega.T[inverse], singular[inverse]


def _index_at(signs: np.ndarray, slots: np.ndarray, i: int) -> "DecoratedIndex":
    return DecoratedIndex(tuple((int(z), int(l) + 1) for z, l in zip(signs[i], slots[i])))


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


def _classify_solution(spectrum, n, zeta, index, kap, residual):
    kv = np.atleast_1d(np.asarray(kap, dtype=float))
    target = spectrum.contains_pair(n, zeta * kv)
    delta = tuple(int(d) for d in index.delta(spectrum.n_pairs))
    if target is None:
        return ResonanceSolution(
            index.m, zeta, n, index, delta, kv, residual, "external", None, None, None
        )
    nonzero = [l for l, d in enumerate(delta, start=1) if d != 0]
    universal = (
        len(nonzero) == 1
        and abs(delta[nonzero[0] - 1]) == 1
        and nonzero[0] == target
        and spectrum.band(target) == n
        and delta[target - 1] == zeta
    )
    b = list(delta)
    b[target - 1] -= zeta
    klass = "universal" if universal else "internal"
    return ResonanceSolution(
        index.m, zeta, n, index, delta, kv, residual, klass, target,
        tuple(b), index.cardinality(spectrum.n_pairs),
    )


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
    n_pairs = spectrum.n_pairs
    orders = sorted(set(int(m) for m in orders))
    total = sum(2 * model.j_bands * (2 * n_pairs) ** m for m in orders)
    if total > cap:
        raise EnumerationCapExceeded(f"{total} candidate tuples exceed cap {cap}")
    if tol_res is None:
        tol_res = default_tol_res(spectrum, model)

    tables, out_k, comb, starts = _candidates(spectrum, model, orders)
    omega, singular = _output_bands(model, out_k, rounded=True)
    zeta = np.tile([1, -1], out_k.shape[0] // 2)
    residual = (-zeta)[:, None] * omega + comb[:, None]
    hit = (np.abs(residual) <= tol_res) & ~singular[:, None]

    out: list[ResonanceSolution] = []
    for (m, signs, slots, kap), start, stop in zip(tables, starts, starts[1:]):
        if collect_skipped is not None:
            for r in np.nonzero(singular[start:stop])[0]:
                collect_skipped.append(
                    (m, int(zeta[r]), _index_at(signs, slots, r // 2), out_k[start + r].copy())
                )
        for r, b in np.argwhere(hit[start:stop]):
            out.append(_classify_solution(
                spectrum, int(b) + 1, int(zeta[r]), _index_at(signs, slots, r // 2),
                kap[r // 2].copy(), float(abs(residual[start + r, b])),
            ))
    out.sort(key=lambda s: (s.m, -s.zeta, s.n, s.index.entries))
    return out


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
    kvecs = _kvec_table(spectrum)
    kap = np.concatenate(
        [_slot_sums(*_index_table(spectrum.n_pairs, m), kvecs) for m in sorted(set(int(v) for v in orders))]
        + [np.empty((0, spectrum.dim))]
    )
    return list(kap[_greedy_distinct(kap, tol)])


def resonant_output_pairs(solutions, tol_k: float) -> list[tuple[int, np.ndarray]]:
    """Distinct (band, zeta * kappa) outputs of the solutions, in solution order."""
    if not solutions:
        return []
    bands = np.array([s.n for s in solutions])
    out_k = np.stack([s.zeta * s.kappa for s in solutions])
    return [(int(bands[i]), out_k[i]) for i in _greedy_distinct(out_k, tol_k, bands)]


def resonance_select(
    spectrum: NkSpectrum,
    model: DispersionModel,
    orders,
    tol_res: float | None = None,
    solutions=None,
    collect_skipped: list | None = None,
) -> NkSpectrum:
    """Spectrum augmented by its resonant output pairs."""
    if solutions is None:
        solutions = enumerate_solutions(
            spectrum, model, orders, tol_res=tol_res, collect_skipped=collect_skipped
        )
    new_pairs = list(spectrum.pairs)
    for n, k in resonant_output_pairs(solutions, spectrum.tol_k):
        if spectrum.contains_pair(n, k) is None:
            if not any(
                n == pn and np.linalg.norm(k - pk) <= spectrum.tol_k for pn, pk in new_pairs
            ):
                new_pairs.append((n, k))
    return NkSpectrum(tuple(new_pairs), dim=spectrum.dim)


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
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    current = spectrum
    for it in range(1, max_iter + 1):
        skipped: list = []
        nxt = resonance_select(current, model, orders, tol_res=tol_res, collect_skipped=skipped)
        if skipped:
            raise BandCrossingAtOutput(
                f"{len(skipped)} candidate outputs on the singular set during closure"
            )
        if spectra_equal(nxt, current):
            return current, True, it
        if nxt.n_pairs > max_pairs:
            return nxt, False, it
        current = nxt
    return current, False, max_iter


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


def _normalize_row(row: tuple) -> tuple:
    for v in row:
        if v != 0:
            return row if v > 0 else tuple(-x for x in row)
    return row


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
    closure_max_iter: int = DEFAULT_CLOSURE_MAX_ITER,
    with_closure: bool = True,
) -> ResonanceReport:
    """Full resonance report for a spectrum."""
    skipped: list = []
    solutions = enumerate_solutions(
        spectrum, model, orders, tol_res=tol_res, collect_skipped=skipped
    )
    internal = [s for s in solutions if s.klass in ("internal", "universal")]
    universal = [s for s in solutions if s.klass == "universal"]
    out_k = output_spectrum(spectrum, orders)
    out_res = resonant_output_pairs(solutions, spectrum.tol_k)
    selected = resonance_select(spectrum, model, orders, tol_res=tol_res, solutions=solutions)

    conditions: list = []
    if spectra_equal(selected, spectrum):
        nonuniv = [s for s in internal if s.klass == "internal"]
        if not nonuniv:
            classification = "universally_invariant"
        else:
            seen = set()
            for s in nonuniv:
                key = (_normalize_row(s.b_row), s.c_vec)
                seen.add(key)
            conditions = sorted({row for row, _ in seen})
            classification = "conditionally_invariant" if conditions else "invariant"
    else:
        classification = "not_invariant"

    closure_iterations = None
    if with_closure:
        try:
            _, converged, iterations = closure(
                spectrum, model, orders, max_iter=closure_max_iter,
                tol_res=tol_res, max_pairs=16,
            )
            closure_iterations = iterations if converged else None
        except BandCrossingAtOutput:
            closure_iterations = None

    conditions_exact = _exact_condition_check(model, spectrum, conditions) if exact else None
    return ResonanceReport(
        spectrum=spectrum,
        solutions=solutions,
        internal=internal,
        universal=universal,
        out_k=out_k,
        out_res=out_res,
        selected=selected,
        classification=classification,
        conditions=conditions,
        closure_iterations=closure_iterations,
        skipped=skipped,
        conditions_exact=conditions_exact,
    )


# -- index sets for the interaction machinery --------------------------------------

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
    if tol_res is None:
        tol_res = default_tol_res(spectrum, model)
    orders = sorted(set(int(m) for m in orders))
    tables, out_k, comb, starts = _candidates(spectrum, model, orders)
    omega, singular = _output_bands(model, out_k, rounded=False)
    resonant: dict = {}
    contributing: dict = {}
    for l in range(1, spectrum.n_pairs + 1):
        n_l = spectrum.band(l)
        k_l = spectrum.kvec(l)
        for theta in (+1, -1):
            for (m, signs, slots, kap), start, stop in zip(tables, starts, starts[1:]):
                # rows of this order with zeta = theta
                rows = slice(start + (0 if theta > 0 else 1), stop, 2)
                residual = -theta * omega[rows, n_l - 1] + comb[rows]
                hits = np.nonzero((np.abs(residual) <= tol_res) & ~singular[rows])[0]
                res_list = [_index_at(signs, slots, i) for i in hits]
                resonant[(l, theta, m)] = res_list
                contributing[(l, theta, m)] = [
                    index for i, index in zip(hits, res_list)
                    if np.linalg.norm(kap[i] - theta * k_l) <= spectrum.tol_k
                ]
    return resonant, contributing


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
        sub = spectrum.subset(p)
        sel = resonance_select(sub, model, orders, tol_res=tol_res)
        if not spectra_equal(sel, sub):
            violations.append(("part_not_invariant", p))

    _, contributing = resonant_index_sets(spectrum, model, orders, tol_res=tol_res)
    flags, _ = gvm_check(spectrum, model, contributing, tol_gv=tol_gv)
    if tol_gv is None:
        tol_gv = default_tol_gv(model, spectrum)
    vels = {l: _pair_velocity(model, spectrum, l) for l in range(1, spectrum.n_pairs + 1)}

    solutions = enumerate_solutions(spectrum, model, orders, tol_res=tol_res)
    for s in solutions:
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
    hits = 0
    for _ in range(trials):
        pairs = []
        for n, k in spectrum.pairs:
            shift = rng.uniform(-radius, radius, size=spectrum.dim)
            pairs.append((n, k + shift))
        trial = NkSpectrum(tuple(pairs), dim=spectrum.dim)
        try:
            report = classify(trial, model, orders, with_closure=False)
        except EnumerationCapExceeded:
            raise  # the same for every trial: no sample to count
        except WavepaxError:
            continue  # e.g. a perturbed carrier on the singular set
        if report.classification == "universally_invariant":
            hits += 1
    return hits / trials


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
