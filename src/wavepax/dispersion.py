"""Linear symbol of the system: bands, projectors, group velocities.

Two model kinds are supported.  A ``scalar-band`` model lists closed-form
band functions ``omega_n(k) >= 0`` (with optional analytic gradients); the
symbol is diagonal in a fixed component layout.  A ``matrix-symbol`` model
wraps a callback ``k -> Hermitian (2J, 2J) matrix`` which is eigendecomposed
on demand.  In both cases the negative branch follows the diagonal symmetry
``omega_{n,-}(k) = -omega_n(-k)``.

Component layout (used by the evolution code): component ``2*(n-1)`` holds
band ``(n, +)`` and component ``2*(n-1)+1`` holds band ``(n, -)``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import BandCrossing, ConfigError, SpectrumOnSingularSet
from .grids import Grid

DEFAULT_FD_STEP = 1e-4


def comp_index(n: int, zeta: int) -> int:
    return 2 * (n - 1) + (0 if zeta > 0 else 1)


@dataclass(frozen=True)
class DispersionModel:
    """Dispersion relations of the Hermitian symbol L(k)."""

    dim: int
    j_bands: int
    kind: str  # 'scalar-band' or 'matrix-symbol'
    name: str = ""
    bands: Optional[tuple] = None        # scalar-band: callables omega_n(k)
    band_grads: Optional[tuple] = None   # scalar-band: optional gradients
    symbol: Optional[Callable] = None    # matrix-symbol: k -> (2J, 2J)
    h_fd: float = DEFAULT_FD_STEP
    exact_bands: Optional[tuple] = None  # optional Fraction-valued band maps
    # grid -> symbol_eigensystem tables, filled by eigensystem_tables
    _tables: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind == "scalar-band":
            if not self.bands or len(self.bands) != self.j_bands:
                raise ValueError("scalar-band model needs j_bands band functions")
        elif self.kind == "matrix-symbol":
            if self.symbol is None:
                raise ValueError("matrix-symbol model needs a symbol callback")
        else:
            raise ValueError(f"unknown model kind {self.kind!r}")

    @property
    def ncomp(self) -> int:
        return 2 * self.j_bands


def scalar_band_model(band_funcs, band_grads=None, dim=1, name="scalar") -> DispersionModel:
    return DispersionModel(
        dim=dim,
        j_bands=len(band_funcs),
        kind="scalar-band",
        name=name,
        bands=tuple(band_funcs),
        band_grads=tuple(band_grads) if band_grads is not None else None,
    )


def matrix_symbol_model(symbol, j_bands, dim=1, name="matrix") -> DispersionModel:
    return DispersionModel(
        dim=dim, j_bands=j_bands, kind="matrix-symbol", name=name, symbol=symbol
    )


@dataclass(frozen=True)
class BandNeighborhoodBounds:
    """Radius around the spectrum points and derivative sups over it."""

    pi0: float
    c_omega1: float
    c_omega2: float

    def __post_init__(self):
        if not (self.pi0 > 0 and np.isfinite(self.c_omega1) and np.isfinite(self.c_omega2)):
            raise ValueError("invalid neighborhood bounds")


# -- raw band evaluation ------------------------------------------------------

def _as_points(model: DispersionModel, k) -> np.ndarray:
    """Normalise wavevectors to shape (dim, M)."""
    k = np.asarray(k, dtype=float)
    if model.dim == 1:
        return k.reshape(1, -1)
    if k.ndim == 1:
        return k.reshape(model.dim, 1)
    return k.reshape(model.dim, -1)


def _band_arg(model: DispersionModel, pts: np.ndarray):
    return pts[0] if model.dim == 1 else pts


def _raw_band_values(model: DispersionModel, pts: np.ndarray) -> np.ndarray:
    """Stack of the raw (unsorted) band functions, shape (J, M)."""
    arg = _band_arg(model, pts)
    out = np.empty((model.j_bands,) + pts.shape[1:])
    for i, f in enumerate(model.bands):
        out[i] = f(arg)
    return out


def _eigh_at(model: DispersionModel, k):
    kq = np.asarray(k, dtype=float)
    arg = kq if model.dim > 1 else float(np.atleast_1d(kq)[0])
    mat = np.asarray(model.symbol(arg), dtype=complex)
    if mat.shape != (model.ncomp, model.ncomp):
        raise ValueError("symbol callback returned a wrong-shaped matrix")
    return np.linalg.eigh(mat)


def _gap_tolerance(scale):
    return 1e-8 * (1.0 + abs(scale))


def _band_position(model: DispersionModel, n: int, zeta: int) -> int:
    """Row of band (n, zeta) in the ascending spectrum of L(k)."""
    return model.j_bands + n - 1 if zeta > 0 else model.j_bands - n


def _spectrum(model: DispersionModel, pts: np.ndarray):
    """Ascending eigenvalues (2J, M) of L at the (dim, M) points, and eigenvectors.

    The eigenvectors are (M, 2J, 2J) with columns in eigenvalue order, or
    None for a scalar-band model, whose symbol is diagonal in the layout.
    """
    c, m = model.ncomp, pts.shape[1]
    if model.kind == "scalar-band":
        # omega_{n,-}(k) = -omega_n(-k): one sort of the bands at -k and k
        srt = np.sort(_raw_band_values(model, np.concatenate([-pts, pts], axis=1)), axis=0)
        return np.concatenate([-srt[::-1, :m], srt[:, m:]]), None
    evals, vecs = np.empty((c, m)), np.empty((m, c, c), dtype=complex)
    for i in range(m):
        evals[:, i], vecs[i] = _eigh_at(model, pts[:, i])
    return evals, vecs


def _bands_at(model: DispersionModel, n, zeta: int, pts: np.ndarray):
    """Band (n, zeta) at (dim, M) points, with n one band or one per point.

    Returns the eigenvalues (M,), the eigenvectors (M, 2J) (None if
    scalar-band), and per point the gap from the band to the bands on either
    side with its tolerance (M,).  A scalar-band gap is inf.
    """
    n = np.asarray(n)
    if not ((1 <= n) & (n <= model.j_bands)).all() or zeta not in (1, -1):
        raise ValueError("invalid band index")
    evals, vecs = _spectrum(model, pts)
    pos, at = _band_position(model, n, zeta), np.arange(pts.shape[1])
    if vecs is None:
        return evals[pos, at], None, np.full(at.shape, np.inf), np.zeros(at.shape)
    # row p of below: the gap from spectrum row p to the row below it
    below = np.pad(np.diff(evals, axis=0), ((1, 1), (0, 0)), constant_values=np.inf)
    gap = np.minimum(below[pos, at], below[pos + 1, at])
    return evals[pos, at], vecs[at, :, pos], gap, _gap_tolerance(np.abs(evals).max(axis=0))


def _check_gaps(gap: np.ndarray, tol: np.ndarray) -> None:
    """Raise BandCrossing at the first point whose band gap is below its tolerance."""
    bad = np.flatnonzero(gap < tol)
    if bad.size:
        raise BandCrossing(f"eigenvalue gap {gap[bad[0]]:.3e} below tolerance {tol[bad[0]]:.3e}")


def _band_at(model: DispersionModel, n: int, zeta: int, k):
    """Eigenvalue and eigenvector (None if scalar-band) of band (n, zeta) at one k.

    A matrix symbol raises BandCrossing where the band's gap closes.
    """
    value, vecs, gap, tol = _bands_at(model, n, zeta, _as_points(model, k)[:, :1])
    _check_gaps(gap, tol)
    return float(value[0]), None if vecs is None else vecs[0]


# -- point operations ---------------------------------------------------------

def eval_omega(model: DispersionModel, n: int, zeta: int, k) -> float:
    """Band frequency omega_{n,zeta}(k)."""
    return _band_at(model, n, zeta, k)[0]


def group_velocity(model: DispersionModel, n: int, zeta: int, k, h: float | None = None):
    """Gradient of omega_{n,zeta} at k; analytic when available."""
    k = np.atleast_1d(np.asarray(k, dtype=float))
    if model.kind == "scalar-band" and model.band_grads is not None:
        pts = _as_points(model, zeta * k)
        raw = _raw_band_values(model, pts)[:, 0]
        which = int(np.argsort(raw, kind="stable")[n - 1])
        g = np.atleast_1d(np.asarray(model.band_grads[which](_band_arg(model, pts)), dtype=float)).reshape(-1)
        return float(g[0]) if model.dim == 1 else g
    h = h or model.h_fd
    grad = np.empty(model.dim)
    for a in range(model.dim):
        e = np.zeros(model.dim)
        e[a] = h
        grad[a] = (eval_omega(model, n, zeta, k + e) - eval_omega(model, n, zeta, k - e)) / (2 * h)
    return float(grad[0]) if model.dim == 1 else grad


def eval_projector(model: DispersionModel, n: int, zeta: int, k) -> np.ndarray:
    """Rank-1 orthogonal projector onto the (n, zeta) eigenline at k.

    A scalar-band model holds band (n, zeta) in component comp_index(n, zeta)
    at every k, so its projector is that unit projector.
    """
    if model.kind == "scalar-band":
        proj = np.zeros((model.ncomp, model.ncomp), dtype=complex)
        proj[comp_index(n, zeta), comp_index(n, zeta)] = 1.0
        return proj
    _, v = _band_at(model, n, zeta, k)
    return np.outer(v, v.conj())


def band_frequencies(model: DispersionModel, k, tol: float | None = None):
    """Positive-branch frequencies and the singular-set test at many points.

    ``k`` holds M wavevectors, shape (dim, M) (or (M,) in 1-d).  Returns
    ``(omega, singular)``: omega_{n,+} as a (J, M) array and a (M,) mask of
    points on the singular set (a gap collapse or omega_1 = 0).  A point whose
    evaluation raises counts as singular and gets NaN frequencies; after a
    failure the points are evaluated one by one.
    """
    pts = _as_points(model, k)
    j, npts = model.j_bands, pts.shape[1]
    try:
        evals, _ = _spectrum(model, pts)
    except Exception:
        if npts == 1:
            return np.full((j, 1), np.nan), np.ones(1, dtype=bool)
        parts = [band_frequencies(model, pts[:, i:i + 1], tol) for i in range(npts)]
        return (np.concatenate([p[0] for p in parts], axis=1),
                np.concatenate([p[1] for p in parts]))
    if tol is None:
        tol = _gap_tolerance(np.abs(evals).max(axis=0))
    singular = np.diff(evals, axis=0).min(axis=0) < tol
    # omega_{1,+/-} vanishing also counts as singular
    singular |= np.minimum(np.abs(evals[j]), np.abs(evals[j - 1])) < tol
    return evals[j:], singular


def is_band_crossing(model: DispersionModel, k, tol: float | None = None) -> bool:
    """Point query against the singular set (gap collapse or omega_1 = 0)."""
    return bool(band_frequencies(model, k, tol)[1][0])


# -- grid sweeps ---------------------------------------------------------------

def symbol_eigensystem(model: DispersionModel, grid: Grid):
    """Component-frequency table and eigenbasis on a grid.

    Returns ``(omega, basis, crossing_mask)`` where ``omega`` has shape
    ``(2J, *grid.shape)`` in the component layout, ``basis`` is ``None`` for
    diagonal (scalar-band) models or ``(*grid.shape, 2J, 2J)`` unitaries whose
    columns follow the layout, and ``crossing_mask`` flags singular nodes.
    """
    c = model.ncomp
    evals, vecs = _spectrum(model, grid.k_mesh().reshape(grid.dim, -1))
    # spectrum row of each component, in the layout's order
    rows = [_band_position(model, n, zeta)
            for n in range(1, model.j_bands + 1) for zeta in (+1, -1)]
    omega = evals[rows]
    tol = _gap_tolerance(float(np.abs(omega).max()))
    stacked = np.sort(omega, axis=0)
    gap_bad = np.min(np.diff(stacked, axis=0), axis=0) < tol
    zero_bad = np.min(np.abs(omega), axis=0) < tol
    mask = (gap_bad | zero_bad).reshape(grid.shape)
    omega = omega.reshape((c,) + grid.shape)
    basis = None if vecs is None else vecs[:, :, rows].reshape(grid.shape + (c, c))
    return omega, basis, mask


def eigensystem_tables(model: DispersionModel, grid: Grid):
    """``symbol_eigensystem`` of a model on a grid, computed once per grid.

    The model holds the tables, so they are freed with it.
    """
    if grid not in model._tables:
        model._tables[grid] = symbol_eigensystem(model, grid)
    return model._tables[grid]


def band_columns(model: DispersionModel, grid: Grid, n: int, zeta: int, nodes=None):
    """The (n, zeta) eigenvectors on the grid, as ``project_band`` takes them.

    A scalar-band model holds the band in one component at every node, whose
    index is returned.  A matrix symbol gives the (C, X) eigenvector columns
    at the flat node indices ``nodes`` (every node by default).
    """
    c = comp_index(n, zeta)
    if model.kind == "scalar-band":
        return c
    _, basis, _ = eigensystem_tables(model, grid)
    cols = basis.reshape(-1, model.ncomp, model.ncomp)[:, :, c]
    return np.ascontiguousarray((cols if nodes is None else cols[nodes]).T)


def project_band(g, values: np.ndarray) -> np.ndarray:
    """Band projection of (..., C, X) values, node by node, onto ``band_columns`` g.

    On eigenvector columns g it is g <g, u>; on a component index it keeps
    that component and zeroes the others.
    """
    if isinstance(g, int):
        out = np.zeros_like(values)
        out[..., g, :] = values[..., g, :]
        return out
    coeff = (g.conj() * values).sum(axis=-2)
    return g * coeff[..., None, :]


def detect_band_crossings(model: DispersionModel, grid: Grid) -> list[tuple[int, ...]]:
    """Nodes on or next to the singular set of the symbol."""
    omega, _, mask = symbol_eigensystem(model, grid)
    flagged = {tuple(idx) for idx in np.argwhere(mask)}
    if model.kind == "scalar-band" and model.j_bands > 1 and grid.dim == 1:
        # Sign changes of raw band differences locate crossings between nodes.
        pts = grid.k_axis().reshape(1, -1)
        raw = _raw_band_values(model, pts)
        for a in range(model.j_bands):
            for b in range(a + 1, model.j_bands):
                diff = raw[a] - raw[b]
                sign_change = np.nonzero(diff[:-1] * diff[1:] < 0)[0]
                for j in sign_change:
                    flagged.add((int(j),))
                    flagged.add((int(j + 1),))
    return sorted(flagged)


def flagged_wavevectors(model: DispersionModel, grid: Grid) -> np.ndarray:
    """Wavevectors of flagged nodes, shape (M, dim)."""
    nodes = detect_band_crossings(model, grid)
    if not nodes:
        return np.empty((0, grid.dim))
    mesh = grid.k_mesh()
    return np.array([[mesh[(a,) + idx] for a in range(grid.dim)] for idx in nodes])


def _sample_ball(center: np.ndarray, radius: float, dim: int, per_axis: int) -> np.ndarray:
    axes = [np.linspace(-radius, radius, per_axis)] * dim
    offs = np.stack(np.meshgrid(*axes, indexing="ij")).reshape(dim, -1)
    keep = (offs ** 2).sum(axis=0) <= radius ** 2
    return center.reshape(dim, 1) + offs[:, keep]


def safe_radius(model: DispersionModel, spectrum, grid: Grid | None = None) -> float:
    """Radius pi0 of the balls around +-k_* that keep clear of the flagged set.

    Raises ``SpectrumOnSingularSet`` when a carrier is singular or within
    grid resolution of a flagged node.
    """
    kvecs = np.atleast_2d(np.array([np.atleast_1d(p[1]) for p in spectrum.pairs], dtype=float))
    if grid is None:
        span = float(np.abs(kvecs).max()) + 2.0
        n = 4096 if model.dim == 1 else 256
        grid = Grid(model.dim, (n,) * model.dim, (span,) * model.dim)
    flagged = flagged_wavevectors(model, grid)
    dists = []
    for kv in kvecs:
        for s in (+1, -1):
            if is_band_crossing(model, s * kv):
                raise SpectrumOnSingularSet(f"wavevector {s * kv} is singular")
            if flagged.size:
                d = float(np.linalg.norm(flagged - s * kv, axis=1).min())
                if d < 2.0 * max(grid.dk):
                    raise SpectrumOnSingularSet(
                        f"wavevector {s * kv} within grid resolution of a flagged node"
                    )
                dists.append(d)
    base = min(dists) if dists else 1.0
    return 0.5 * min(base, 1.0)


def neighborhood_bounds(
    model: DispersionModel,
    spectrum,
    grid: Grid | None = None,
    samples: int = 161,
) -> BandNeighborhoodBounds:
    """Safe radius around +-k_* and derivative sups over those balls."""
    pi0 = safe_radius(model, spectrum, grid)
    c1 = 0.0
    c2 = 0.0
    h = min(pi0 / 10.0, 1e-3)
    for (n_l, kv) in [(p[0], np.atleast_1d(p[1])) for p in spectrum.pairs]:
        for s in (+1, -1):
            pts = _sample_ball(s * np.asarray(kv, dtype=float), pi0, model.dim, samples if model.dim == 1 else 21)
            for i in range(pts.shape[1]):
                kpt = pts[:, i]
                g = np.atleast_1d(group_velocity(model, n_l, +1, kpt, h=h))
                c1 = max(c1, float(np.linalg.norm(g)))
                hess = np.empty((model.dim, model.dim))
                for a in range(model.dim):
                    e = np.zeros(model.dim)
                    e[a] = h
                    gp = np.atleast_1d(group_velocity(model, n_l, +1, kpt + e, h=h))
                    gm = np.atleast_1d(group_velocity(model, n_l, +1, kpt - e, h=h))
                    hess[a] = (gp - gm) / (2 * h)
                hess = 0.5 * (hess + hess.T)
                c2 = max(c2, float(np.abs(np.linalg.eigvalsh(hess)).max()))
    return BandNeighborhoodBounds(pi0=pi0, c_omega1=c1, c_omega2=c2)


# -- presets -------------------------------------------------------------------

def _tabulated_symbol(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read matrix model table {path!r}: {exc.strerror}") from exc
    if not isinstance(data, dict) or not {"k", "matrices"} <= data.keys():
        raise ConfigError(f"matrix model table {path!r} needs \"k\" and \"matrices\"")
    kgrid = np.asarray(data["k"], dtype=float)
    mats = np.asarray(data["matrices"], dtype=float)
    # entries stored as [re, im] pairs: shape (M, 2J, 2J, 2)
    mats = mats[..., 0] + 1j * mats[..., 1]
    order = np.argsort(kgrid)
    kgrid, mats = kgrid[order], mats[order]

    def symbol(k: float) -> np.ndarray:
        if k < kgrid[0] or k > kgrid[-1]:
            raise ValueError(f"k={k} outside tabulated range")
        j = int(np.searchsorted(kgrid, k))
        if j == 0:
            return mats[0]
        t = (k - kgrid[j - 1]) / (kgrid[j] - kgrid[j - 1])
        return (1 - t) * mats[j - 1] + t * mats[j]

    return symbol, mats.shape[1] // 2


def model_from_config(cfg: dict) -> DispersionModel:
    """Build a model from a config mapping {'preset': ..., 'params': {...}}."""
    preset = cfg.get("preset")
    params = dict(cfg.get("params", {}))
    if preset == "nls1d":
        from fractions import Fraction

        a2 = float(params.get("a2", 1.0))
        a0 = float(params.get("a0", 0.0))
        a2f = Fraction(a2).limit_denominator(10**9)
        a0f = Fraction(a0).limit_denominator(10**9)
        model = scalar_band_model(
            [lambda k, a2=a2, a0=a0: a2 * k ** 2 + a0],
            [lambda k, a2=a2: 2.0 * a2 * k],
            dim=1,
            name=f"nls1d(a2={a2},a0={a0})",
        )
        object.__setattr__(
            model, "exact_bands", (lambda k, a2f=a2f, a0f=a0f: a2f * k * k + a0f,)
        )
        return model
    if preset == "power":
        p = float(params.get("p", 2.0))
        a0 = float(params.get("a0", 0.0))
        return scalar_band_model(
            [lambda k, p=p, a0=a0: np.abs(k) ** p + a0],
            [lambda k, p=p: p * np.abs(k) ** (p - 1) * np.sign(k)],
            dim=1,
            name=f"power(p={p},a0={a0})",
        )
    if preset == "twoband":
        c1 = float(params.get("c1", 1.0))
        d1 = float(params.get("d1", 0.0))
        c2 = float(params.get("c2", 2.0))
        d2 = float(params.get("d2", 0.0))
        return scalar_band_model(
            [
                lambda k, c1=c1, d1=d1: c1 * k ** 2 + d1,
                lambda k, c2=c2, d2=d2: c2 * np.abs(k) + d2,
            ],
            [
                lambda k, c1=c1: 2.0 * c1 * k,
                lambda k, c2=c2: c2 * np.sign(k),
            ],
            dim=1,
            name="twoband",
        )
    if preset == "matrix" or str(preset).startswith("matrix:"):
        if ":" not in preset and "file" not in params:
            raise ConfigError("a matrix model needs model.params.file or a 'matrix:<file>' preset")
        path = preset.split(":", 1)[1] if ":" in preset else params["file"]
        symbol, j = _tabulated_symbol(path)
        return matrix_symbol_model(symbol, j, dim=1, name=f"matrix({path})")
    raise ValueError(f"unknown model preset {preset!r}")


__all__ = [
    "DispersionModel",
    "BandNeighborhoodBounds",
    "scalar_band_model",
    "matrix_symbol_model",
    "model_from_config",
    "comp_index",
    "eval_omega",
    "group_velocity",
    "eval_projector",
    "band_frequencies",
    "is_band_crossing",
    "detect_band_crossings",
    "flagged_wavevectors",
    "neighborhood_bounds",
    "safe_radius",
    "symbol_eigensystem",
    "eigensystem_tables",
    "band_columns",
    "project_band",
]
