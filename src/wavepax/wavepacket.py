"""Construction and diagnostics of (multi-)particle wavepackets.

A packet with carrier (n, k_star) concentrates its spectrum in a ball of
radius beta^(1-eps) around +-k_star inside the band eigenspace, with an
envelope profile of k-scale beta.  Position information lives in the phase
e^{-i k.r_star}; the position detection functional recovers it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import dispersion as dsp
from .errors import EmptySublevelSet, EnvelopeUnderresolved, RadiusUnresolvable
from .grids import Grid, ModalField, l1_norm_values, pointwise_modulus

__all__ = [
    "Envelope",
    "WavepacketSpec",
    "smooth_step",
    "cutoff_profile",
    "build_cutoff",
    "build_wavepacket",
    "regularity_defect",
    "position_detection",
    "locate_position",
    "PositionFix",
    "FieldSamples",
    "particle_norm",
    "project_band_values",
]


# -- smooth cutoff -------------------------------------------------------------

def _bump_piece(x: np.ndarray) -> np.ndarray:
    out = np.zeros_like(x)
    pos = x > 0
    out[pos] = np.exp(-1.0 / x[pos])
    return out


def smooth_step(s) -> np.ndarray:
    """C-infinity transition from 1 at s<=0 to 0 at s>=1."""
    s = np.asarray(s, dtype=float)
    up = _bump_piece(1.0 - s)
    down = _bump_piece(s)
    return up / (up + down + 1e-300)


def cutoff_profile(t) -> np.ndarray:
    """Radial profile: 1 for t <= 1/2, 0 for t >= 1, smooth monotone between."""
    t = np.abs(np.asarray(t, dtype=float))
    return smooth_step((t - 0.5) / 0.5)


def build_cutoff(grid: Grid, center, radius: float) -> np.ndarray:
    """Smooth bump on the grid: 1 inside radius/2 of center, 0 outside radius."""
    if radius <= 2.0 * max(grid.dk):
        raise RadiusUnresolvable(f"radius {radius} not resolvable at dk={max(grid.dk)}")
    c = np.atleast_1d(np.asarray(center, dtype=float)).reshape(grid.dim, *([1] * grid.dim))
    dist = np.sqrt(((grid.k_mesh() - c) ** 2).sum(axis=0))
    return cutoff_profile(dist / radius)


# -- envelopes -----------------------------------------------------------------

_SQRT2PI = float(np.sqrt(2.0 * np.pi))


@dataclass(frozen=True)
class Envelope:
    """Scalar envelope with a closed-form k-transform where available."""

    family: str = "gaussian"  # 'gaussian' | 'sech' | 'bump'
    width: float = 1.0
    amplitude: float = 1.0

    def __post_init__(self):
        if self.family not in ("gaussian", "sech", "bump"):
            raise ValueError(f"unknown envelope family {self.family!r}")
        if not 0 < self.width < np.inf:
            raise ValueError(f"width must be positive and finite, got {self.width}")
        if not np.isfinite(self.amplitude):
            raise ValueError(f"amplitude must be finite, got {self.amplitude}")

    def khat(self, eta: np.ndarray, dim: int = 1) -> np.ndarray:
        """Transform of the unit-scale envelope at frequency eta (dim, ...)."""
        eta = np.asarray(eta, dtype=float)
        if eta.ndim and eta.shape[0] == dim and dim > 1:
            r2 = (eta ** 2).sum(axis=0)
        else:
            r2 = eta ** 2
        w, a = self.width, self.amplitude
        if self.family == "gaussian":
            return a * (_SQRT2PI * w) ** dim * np.exp(-0.5 * w * w * r2)
        if self.family == "sech":
            if dim != 1:
                raise ValueError("sech envelope is one-dimensional")
            return a * np.pi * w / np.cosh(0.5 * np.pi * w * np.sqrt(r2))
        return a * cutoff_profile(np.sqrt(r2) / w)

    @property
    def k_scale(self) -> float:
        """Characteristic k-extent of the transform."""
        return self.width if self.family == "bump" else 1.0 / self.width

    def l1_grad_khat(self, dim: int = 1) -> float:
        """Quadrature value of the L1 norm of the transform gradient."""
        span = 12.0 * max(self.k_scale, 1.0 / self.width)
        if dim != 1:
            raise NotImplementedError("gradient norm quadrature implemented in 1d")
        eta = np.linspace(-span, span, 40001)
        vals = self.khat(eta, 1)
        grad = np.gradient(vals, eta)
        return float(np.trapezoid(np.abs(grad), eta))


# -- packet specification --------------------------------------------------------

@dataclass(frozen=True)
class WavepacketSpec:
    """Carrier, position and scale parameters of one packet."""

    n: int
    k_star: np.ndarray
    r_star: np.ndarray
    beta: float
    epsilon: float
    envelope: Envelope
    zeta_components: str = "both"  # 'both' | '+' | '-'
    doublet_reality: bool = True

    def __post_init__(self):
        object.__setattr__(self, "k_star", np.atleast_1d(np.asarray(self.k_star, dtype=float)))
        object.__setattr__(self, "r_star", np.atleast_1d(np.asarray(self.r_star, dtype=float)))
        if not (0.0 < self.beta < 1.0):
            raise ValueError("beta must lie in (0, 1)")
        if not (0.0 < self.epsilon < 1.0):
            raise ValueError("epsilon must lie in (0, 1)")
        if self.zeta_components not in ("both", "+", "-"):
            raise ValueError("zeta_components must be 'both', '+' or '-'")

    @property
    def cutoff_radius(self) -> float:
        return self.beta ** (1.0 - self.epsilon)

    def zetas(self):
        return {"both": (+1, -1), "+": (+1,), "-": (-1,)}[self.zeta_components]


# -- band projection ---------------------------------------------------------------

def project_band_values(values: np.ndarray, model: dsp.DispersionModel, grid: Grid,
                        n: int, zeta: int) -> np.ndarray:
    """Apply the (n, zeta) eigenprojector node by node to (C, *shape) values."""
    flat = values.reshape(values.shape[0], -1)
    return dsp.project_band(dsp.band_columns(model, grid, n, zeta), flat).reshape(values.shape)


def _anchor_vector(model: dsp.DispersionModel, n: int, zeta: int, k_center: np.ndarray) -> np.ndarray:
    """Deterministically phased unit eigenvector at the carrier."""
    proj = dsp.eval_projector(model, n, zeta, k_center if model.dim > 1 else float(k_center[0]))
    # column of largest norm, phase fixed so its largest entry is real positive
    col = proj[:, int(np.argmax(np.linalg.norm(proj, axis=0)))]
    col = col / np.linalg.norm(col)
    piv = int(np.argmax(np.abs(col)))
    phase = col[piv] / abs(col[piv])
    return col / phase


# -- construction -----------------------------------------------------------------

def build_wavepacket(spec: WavepacketSpec, model: dsp.DispersionModel, grid: Grid) -> ModalField:
    """Assemble the (doublet) packet spectrum on the grid, slow frame."""
    radius = spec.cutoff_radius
    if radius < 4.0 * max(grid.dk):
        raise RadiusUnresolvable(
            f"cutoff radius {radius:.3g} below 4*dk={4 * max(grid.dk):.3g}"
        )
    for zeta in spec.zetas():
        if dsp.is_band_crossing(model, zeta * spec.k_star):
            raise dsp.BandCrossing(f"carrier {zeta * spec.k_star} is singular")
    if spec.beta * spec.envelope.k_scale < 4.0 * max(grid.dk):
        raise EnvelopeUnderresolved(
            "envelope transform narrower than 4 grid cells at this beta"
        )
    mesh = grid.k_mesh()
    _, _, crossing = dsp.eigensystem_tables(model, grid)
    values = np.zeros((model.ncomp, crossing.size), dtype=complex)
    phase = np.exp(-1j * np.tensordot(spec.r_star, mesh, axes=(0, 0)))
    for zeta in spec.zetas():
        center = zeta * spec.k_star
        cut = build_cutoff(grid, center, radius)
        if crossing[cut > 0].any():
            raise dsp.BandCrossing(f"the cutoff support around {center} meets the singular set")
        eta = (mesh - center.reshape(grid.dim, *([1] * grid.dim))) / spec.beta
        if zeta > 0 or not spec.doublet_reality:
            env = spec.envelope.khat(eta if grid.dim > 1 else eta[0], grid.dim)
        else:
            env = np.conj(spec.envelope.khat(-eta if grid.dim > 1 else -eta[0], grid.dim))
        scalar = cut * spec.beta ** (-grid.dim) * env * phase
        # anchor vector times envelope, projected onto the band at every node
        g = _anchor_vector(model, spec.n, zeta, center)
        values += dsp.project_band(dsp.band_columns(model, grid, spec.n, zeta),
                                   np.multiply.outer(g, scalar.reshape(-1)))
    return ModalField(grid, values.reshape((model.ncomp,) + grid.shape), frame="slow")


# -- diagnostics --------------------------------------------------------------------

def regularity_defect(f: ModalField, spec: WavepacketSpec, model: dsp.DispersionModel) -> float:
    """Spectrum mass of the declared components escaping the carrier balls.

    The masking cutoff's plateau covers the construction cutoff's support, so
    packets produced by build_wavepacket score exactly zero.
    """
    total = 0.0
    for zeta in spec.zetas():
        mask = 1.0 - build_cutoff(f.grid, zeta * spec.k_star, 2.0 * spec.cutoff_radius)
        proj = project_band_values(f.values, model, f.grid, spec.n, zeta)
        total += l1_norm_values(mask * proj, f.grid)
    return total


# Evaluations (sample times probe) the detection window makes at once; bounds
# its (P, C, *window) arrays, whatever the number of scan probes or samples.
_PROBE_BLOCK = 32


@dataclass
class FieldSamples:
    """T samples of a field that vanishes off a set of grid nodes.

    ``values`` holds the (T, C, W) samples on the W distinct flat grid
    indices ``nodes``; every other node is zero.  The nodes may include
    zeros of the samples: the diagnostics below give the same bits on any
    node set that holds the support.
    """

    grid: Grid
    nodes: np.ndarray
    values: np.ndarray

    @classmethod
    def of_fields(cls, fields, nodes: np.ndarray) -> "FieldSamples":
        """The full-grid ``fields`` (one grid, zero off ``nodes``) as samples."""
        return cls(fields[0].grid, nodes,
                   np.stack([f.values.reshape(f.ncomp, -1)[:, nodes] for f in fields]))

    def l1(self) -> np.ndarray:
        """(T,) L1 norms, each bitwise ``l1_norm`` of its sample's full-grid field.

        The moduli are scattered into zeroed full-grid rows and summed there,
        in the full-grid sum's order.
        """
        out = np.empty(len(self.values))
        # zero but at the nodes, which every block rewrites
        full = np.zeros((min(len(self.values), _PROBE_BLOCK), int(np.prod(self.grid.shape))))
        for i in range(0, len(self.values), _PROBE_BLOCK):
            block = self.values[i:i + _PROBE_BLOCK]
            rows = full[:len(block)]
            rows[:, self.nodes] = pointwise_modulus(block.swapaxes(0, 1))
            out[i:i + _PROBE_BLOCK] = rows.sum(axis=1) * self.grid.cell
        return out


def _support_samples(f: ModalField) -> FieldSamples:
    """One sample of ``f`` on its nonzero nodes."""
    occupied = (f.values != 0).any(axis=0).reshape(-1)
    return FieldSamples.of_fields([f], np.flatnonzero(occupied))


class _DetectionWindow:
    """The nodes of a field that the position detection functional sees.

    The field is a ModalField, or FieldSamples for a batch of its samples.
    A node more than one node away from the field's nonzero nodes (those of
    a ModalField, the node set of FieldSamples) has a central difference of
    exactly zero.  So per axis the functional needs only the shortest
    periodic arc holding those nodes, plus two nodes on each side (wrapped
    indices), even where that is longer than the axis: a node taken twice
    gets the same central difference both times.  Phase, product,
    difference and modulus are elementwise, and the window's moduli are
    scattered into a zeroed full grid and summed there, so every value is
    bitwise the full-grid formula's, on any node set that holds the support.
    """

    def __init__(self, f):
        self.samples = _support_samples(f) if isinstance(f, ModalField) else f
        self.batch = () if isinstance(f, ModalField) else self.samples.values.shape[:1]
        grid, nodes, values = self.grid, self.samples.nodes, self.samples.values
        if not nodes.size:
            # a window with no nodes holds a zero field: node 0 stands for it,
            # and keeps its nan for a non-finite probe
            nodes, values = np.zeros(1, dtype=int), np.zeros(values.shape[:2] + (1,), complex)
        take = []
        for a, n in enumerate(np.unravel_index(nodes, grid.shape)):
            on = np.unique(n)
            size = grid.n[a]
            gaps = np.diff(on, append=on[0] + size)
            widest = int(np.argmax(gaps))
            length = size - int(gaps[widest]) + 1
            take.append((on[(widest + 1) % on.size] - 2 + np.arange(length + 4)) % size)
        self.take = np.ix_(*take)
        self.out = np.ix_(*[t[1:-1] for t in take])
        # the samples gathered onto the window, a node taken twice in both
        # places; C order, so the sum over gradient axes and components below
        # runs in the full-grid formula's order
        where = np.full(int(np.prod(grid.shape)), -1)
        where[nodes] = np.arange(nodes.size)
        where = where[np.ravel_multi_index(self.take, grid.shape)]
        hit = where >= 0
        self._stack = np.zeros(values.shape[:2] + where.shape, dtype=complex)  # (S, C, *window)
        self._stack[:, :, hit] = values[:, :, where[hit]]
        self.values = self._stack.reshape(self.batch + self._stack.shape[1:])
        # 1-d probe arguments are single products; in more dimensions they
        # come from the full-grid tensordot, so they carry its rounding
        self.k = grid.k_axis()[take[0]] if grid.dim == 1 else grid.k_mesh()
        # per axis the (upper, lower) neighbours of the inner nodes and the step
        self._diffs = []
        for a, dk in enumerate(grid.dk):
            hi, lo = [slice(1, -1)] * grid.dim, [slice(1, -1)] * grid.dim
            hi[a], lo[a] = slice(2, None), slice(None, -2)
            self._diffs.append(((Ellipsis, *hi), (Ellipsis, *lo), 2.0 * dk))
        self._cell = grid.cell

    @property
    def grid(self) -> Grid:
        return self.samples.grid

    def __call__(self, probes) -> np.ndarray:
        """Detection functional of each sample at each row of the (P, dim) ``probes``.

        Shape (P,) for a ModalField, (T, P) for T samples.
        """
        probes = np.asarray(probes, dtype=float).reshape(-1, self.grid.dim)
        n, p = len(self._stack), len(probes)
        out = np.empty((n, p))
        per = min(p, _PROBE_BLOCK)
        rows = min(n, max(1, _PROBE_BLOCK // per))
        # zero but at the window's inner nodes, which every block rewrites
        full = np.zeros((rows * per,) + self.grid.shape)
        for i in range(0, n, rows):
            for j in range(0, p, per):
                out[i:i + rows, j:j + per] = self._block(self._stack[i:i + rows],
                                                         probes[j:j + per], full)
        return out.reshape(self.batch + (p,))

    def _block(self, values: np.ndarray, probes: np.ndarray, full: np.ndarray) -> np.ndarray:
        """(S, P) functional of (S, C, *window) samples at (P, dim) probes, summed in ``full``."""
        if self.grid.dim == 1:
            arg = probes * self.k
        else:
            arg = np.stack([np.tensordot(p, self.k, axes=(0, 0))[self.take] for p in probes])
        v = values[:, None] * np.exp(1j * arg)[:, None]  # (S, P, C, *window)
        v = v.reshape((-1,) + v.shape[2:])
        grads = [(v[hi] - v[lo]) / step for hi, lo, step in self._diffs]
        mod = np.sqrt((np.abs(np.stack(grads, axis=1)) ** 2).sum(axis=(1, 2)))
        full = full[:len(v)]
        full[(slice(None),) + self.out] = mod
        return (full.reshape(len(v), -1).sum(axis=1) * self._cell).reshape(len(values), -1)


def position_detection(f: ModalField, probe) -> float:
    """L1 size of the k-gradient of e^{i probe.k} times the field.

    The probe phase is applied pointwise before the central difference, so
    near the packet position the differenced object is slowly varying; a
    packet's own carrier phase e^{-i k.r_star} would otherwise be far too
    fast for the grid at positions of order 1/rho.
    """
    return float(_DetectionWindow(f)(probe)[0])


@dataclass
class PositionFix:
    position: np.ndarray
    diameter: float
    n_components: int
    minimum: float
    threshold: float


def _golden_refine(fun, lo, hi, iters=40):
    phi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - phi * (b - a)
    d = a + phi * (b - a)
    fc, fd = fun(c), fun(d)
    for _ in range(iters):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - phi * (b - a)
            fc = fun(c)
        else:
            a, c, fc = c, d, fd
            d = a + phi * (b - a)
            fd = fun(d)
    return (a + b) / 2.0


def locate_position(
    f: ModalField,
    threshold: float,
    search_box,
    scan_step: float,
) -> PositionFix:
    """Scan the position detection functional and refine its minimum.

    ``search_box`` is a (lo, hi) pair per axis.  Returns the refined argmin,
    the diameter of the sublevel set at ``threshold`` measured on the scan,
    and the number of its connected components.
    """
    box = np.atleast_2d(np.asarray(search_box, dtype=float))
    if box.shape != (f.grid.dim, 2):
        raise ValueError("search_box must give (lo, hi) per axis")
    axes = [np.arange(lo, hi + scan_step / 2, scan_step) for lo, hi in box]
    mesh = np.stack(np.meshgrid(*axes, indexing="ij"))
    pts = mesh.reshape(f.grid.dim, -1).T
    detect = _DetectionWindow(f)
    vals = detect(pts)

    below = vals <= threshold
    if not below.any():
        raise EmptySublevelSet(f"no probe below threshold {threshold:.3g}")
    sub = pts[below]
    diameter = float(
        np.max(np.linalg.norm(sub[:, None, :] - sub[None, :, :], axis=-1))
    ) if len(sub) > 1 else 0.0

    if f.grid.dim == 1:
        order = np.argsort(sub[:, 0])
        gaps = np.diff(sub[order, 0])
        n_comp = 1 + int((gaps > 2.0 * scan_step).sum())
    else:
        n_comp = 1  # component counting supported on 1d scans

    best = pts[int(np.argmin(vals))].astype(float)
    for axis in range(f.grid.dim):
        def along(x, axis=axis, base=best):
            p = base.copy()
            p[axis] = x
            return detect(p)[0]

        best[axis] = _golden_refine(along, best[axis] - scan_step, best[axis] + scan_step)
    return PositionFix(
        position=best,
        diameter=diameter,
        n_components=n_comp,
        minimum=float(detect(best)[0]),
        threshold=threshold,
    )


def particle_norm(fields, positions, beta: float, epsilon: float):
    """Scale-weighted gradient norm plus L1 mass, summed over components.

    ``fields`` and ``positions`` run over the packet components; the
    gradient term is ``position_detection`` at the packet's position, whose
    phase e^{+i r.k} cancels the packet's own carrier phase.  A ModalField
    is one sample and gives a float; FieldSamples of T samples give the (T,)
    norms, each bitwise the float of its sample's full-grid fields.
    """
    weight = beta ** (1.0 + epsilon)
    total = 0.0
    for f, r in zip(fields, positions):
        detect = _DetectionWindow(f)
        total = total + (weight * detect(r)[..., 0] + detect.samples.l1().reshape(detect.batch))
    return float(total) if np.ndim(total) == 0 else total
