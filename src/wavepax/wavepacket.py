"""Construction and diagnostics of (multi-)particle wavepackets.

A packet with carrier (n, k_star) concentrates its spectrum in a ball of
radius beta^(1-eps) around +-k_star inside the band eigenspace, with an
envelope profile of k-scale beta.  Position information lives in the phase
e^{-i k.r_star}; the position detection functional recovers it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import dispersion as dsp
from .errors import EmptySublevelSet, EnvelopeUnderresolved, RadiusUnresolvable
from .grids import (
    Grid,
    ModalField,
    gradient_k,
    l1_norm,
    l1_norm_values,
)

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
    "particle_norm",
    "l1_norm",
    "eigensystem_tables",
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
        if self.width <= 0:
            raise ValueError("width must be positive")

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

    def rspace(self, z: np.ndarray, dim: int = 1) -> np.ndarray:
        z = np.asarray(z, dtype=float)
        r2 = (z ** 2).sum(axis=0) if (z.ndim and dim > 1 and z.shape[0] == dim) else z ** 2
        w, a = self.width, self.amplitude
        if self.family == "gaussian":
            return a * np.exp(-0.5 * r2 / (w * w))
        if self.family == "sech":
            return a / np.cosh(np.sqrt(r2) / w)
        raise ValueError("bump envelope has no closed r-space form")

    @property
    def k_scale(self) -> float:
        """Characteristic k-extent of the transform."""
        return self.width if self.family == "bump" else 1.0 / self.width

    def l1_khat(self, dim: int = 1, a_weight: float = 0.0) -> float:
        """Quadrature value of the (weighted) L1 norm of the transform."""
        span = 12.0 * max(self.k_scale, 1.0 / self.width)
        n = 20001
        if dim == 1:
            eta = np.linspace(-span, span, n)
            vals = np.abs(self.khat(eta, 1)) * (1 + np.abs(eta)) ** a_weight
            return float(np.trapezoid(vals, eta))
        axes = [np.linspace(-span, span, 801)] * dim
        mesh = np.stack(np.meshgrid(*axes, indexing="ij"))
        vals = np.abs(self.khat(mesh, dim))
        if a_weight:
            vals = vals * (1 + np.sqrt((mesh ** 2).sum(axis=0))) ** a_weight
        h = axes[0][1] - axes[0][0]
        return float(vals.sum() * h ** dim)

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


# -- band projection tables --------------------------------------------------------

@lru_cache(maxsize=16)
def eigensystem_tables(model: dsp.DispersionModel, grid: Grid):
    return dsp.symbol_eigensystem(model, grid)


def project_band_values(values: np.ndarray, model: dsp.DispersionModel, grid: Grid,
                        n: int, zeta: int) -> np.ndarray:
    """Apply the (n, zeta) eigenprojector node by node."""
    c = dsp.comp_index(n, zeta)
    if model.kind == "scalar-band":
        out = np.zeros_like(values)
        out[c] = values[c]
        return out
    _, basis, _ = eigensystem_tables(model, grid)
    # coeff(k) = <g_c(k), u(k)>; out = coeff * g_c
    g = np.moveaxis(basis[..., :, c], -1, 0)  # (2J, *shape)
    coeff = (g.conj() * values).sum(axis=0)
    return g * coeff


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
    values = np.zeros((model.ncomp,) + grid.shape, dtype=complex)
    phase = np.exp(-1j * np.tensordot(spec.r_star, mesh, axes=(0, 0)))
    for zeta in spec.zetas():
        center = zeta * spec.k_star
        cut = build_cutoff(grid, center, radius)
        eta = (mesh - center.reshape(grid.dim, *([1] * grid.dim))) / spec.beta
        if zeta > 0 or not spec.doublet_reality:
            env = spec.envelope.khat(eta if grid.dim > 1 else eta[0], grid.dim)
        else:
            env = np.conj(spec.envelope.khat(-eta if grid.dim > 1 else -eta[0], grid.dim))
        scalar = cut * spec.beta ** (-grid.dim) * env * phase
        g = _anchor_vector(model, spec.n, zeta, center)
        if model.kind == "scalar-band":
            comp = dsp.comp_index(spec.n, zeta)
            values[comp] += scalar
        else:
            support = cut > 0
            idx = np.argwhere(support)
            for node in idx:
                kpt = np.array([mesh[(a,) + tuple(node)] for a in range(grid.dim)])
                proj = dsp.eval_projector(model, spec.n, zeta, kpt if grid.dim > 1 else float(kpt[0]))
                values[(slice(None),) + tuple(node)] += scalar[tuple(node)] * (proj @ g)
    return ModalField(grid, values, frame="slow")


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


def _component_values(f: ModalField, component) -> np.ndarray:
    if component is None:
        return f.values
    return f.values[component : component + 1]


def position_detection(f: ModalField, probe, component=None) -> float:
    """L1 size of the k-gradient of e^{i probe.k} times the field.

    The probe phase is applied pointwise before the central difference, so
    near the packet position the differenced object is slowly varying; a
    packet's own carrier phase e^{-i k.r_star} would otherwise be far too
    fast for the grid at positions of order 1/rho.
    """
    vals = _component_values(f, component)
    probe = np.atleast_1d(np.asarray(probe, dtype=float))
    mesh = f.grid.k_mesh()
    phase = np.exp(1j * np.tensordot(probe, mesh, axes=(0, 0)))
    grad = gradient_k(vals * phase, f.grid)  # (dim, C, *shape)
    mod = np.sqrt((np.abs(grad) ** 2).sum(axis=(0, 1)))
    return float(mod.sum() * f.grid.cell)


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
    component=None,
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
    vals = np.array([position_detection(f, p, component) for p in pts])

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
            return position_detection(f, p, component)

        best[axis] = _golden_refine(along, best[axis] - scan_step, best[axis] + scan_step)
    return PositionFix(
        position=best,
        diameter=diameter,
        n_components=n_comp,
        minimum=float(position_detection(f, best, component)),
        threshold=threshold,
    )


def particle_norm(fields, positions, beta: float, epsilon: float) -> float:
    """Scale-weighted gradient norm plus L1 mass, summed over components.

    ``fields`` and ``positions`` run over the packet components; the
    gradient term is ``position_detection`` at the packet's position, whose
    phase e^{+i r.k} cancels the packet's own carrier phase.
    """
    total = 0.0
    for f, r in zip(fields, positions):
        total += beta ** (1.0 + epsilon) * position_detection(f, r) + l1_norm(f)
    return total
