"""Uniform truncated k-grids, modal fields and the norms used throughout.

A grid holds ``n`` nodes per axis on ``[-k_max, k_max)`` with spacing ``dk``
and the exact DFT-dual r-grid with spacing ``dr = 2*pi/(2*k_max)``.  Modal
fields are complex arrays of shape ``(components, *grid.shape)`` tagged with
the frame they live in ('slow' or 'fast').
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import GridMismatch


def transform_size(need: int) -> int:
    """Smallest FFT length >= ``need``: 2^a 3^b, and a power of two or a multiple of 8.

    pocketfft's mixed radix takes these lengths at about the cost per node
    of a power of two.  Other 3-smooth widths (6, 18, 36, 108, 324, ...)
    are left out because OpenBLAS splits a flat complex ``matmul`` over
    them unlike a batched one at 1 or 2 threads, so the convolution plan
    would not be bitwise its centred reference.
    """
    size = 1 << max(int(need) - 1, 0).bit_length()
    three = 3
    while 8 * three < size:
        p = 8 * three
        while p < need:
            p *= 2
        size = min(size, p)
        three *= 3
    return size


@dataclass(frozen=True)
class Grid:
    """Truncated uniform k-grid and its dual r-grid.

    ``n`` nodes per axis are a ``transform_size``: a power of two >= 4, or
    on a convolution plan's transform grid also a 3-smooth multiple of 8.
    Configured grids take powers of two only (``harness.load_config``).
    """

    dim: int
    n: tuple[int, ...]
    k_max: tuple[float, ...]

    def __post_init__(self):
        n = tuple(int(v) for v in np.atleast_1d(self.n))
        k_max = np.atleast_1d(self.k_max).astype(float)
        if k_max.size == 1 and self.dim > 1:
            k_max = np.repeat(k_max, self.dim)
        if len(n) == 1 and self.dim > 1:
            n = n * self.dim
        if len(n) != self.dim or k_max.size != self.dim:
            raise ValueError("grid arity does not match dim")
        for v in n:
            if v < 4 or transform_size(v) != v:
                raise ValueError("node counts must be powers of two >= 4 or 2^a 3^b multiples of 8")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "k_max", tuple(float(v) for v in k_max))

    # -- geometry -----------------------------------------------------------
    @property
    def shape(self) -> tuple[int, ...]:
        return self.n

    @property
    def dk(self) -> tuple[float, ...]:
        return tuple(2.0 * km / nn for km, nn in zip(self.k_max, self.n))

    @property
    def dr(self) -> tuple[float, ...]:
        return tuple(np.pi / km for km in self.k_max)

    @property
    def cell(self) -> float:
        """Quadrature weight dk^d for L1 sums."""
        return float(np.prod(self.dk))

    def k_axis(self, axis: int = 0) -> np.ndarray:
        nn, km = self.n[axis], self.k_max[axis]
        return -km + (2.0 * km / nn) * np.arange(nn)

    def r_axis(self, axis: int = 0) -> np.ndarray:
        return self.dr[axis] * np.arange(self.n[axis])

    def k_mesh(self) -> np.ndarray:
        """Wavevector components, shape (dim, *shape)."""
        axes = [self.k_axis(a) for a in range(self.dim)]
        return np.stack(np.meshgrid(*axes, indexing="ij"))

    def abs_k(self) -> np.ndarray:
        return np.sqrt((self.k_mesh() ** 2).sum(axis=0))

    def descriptor(self) -> dict:
        return {"dim": self.dim, "n": list(self.n), "k_max": list(self.k_max)}

    @staticmethod
    def from_descriptor(d: dict) -> "Grid":
        return Grid(int(d["dim"]), tuple(d["n"]), tuple(d["k_max"]))


@dataclass
class ModalField:
    """Complex components sampled on a k-grid."""

    grid: Grid
    values: np.ndarray  # (components, *grid.shape)
    frame: str = "slow"  # 'slow' or 'fast'

    def __post_init__(self):
        self.values = np.ascontiguousarray(self.values, dtype=complex)
        if self.values.shape[1:] != self.grid.shape:
            raise ValueError("values shape does not match grid")
        if self.frame not in ("slow", "fast"):
            raise ValueError("frame must be 'slow' or 'fast'")
        if not np.isfinite(self.values).all():
            raise ValueError("field values must be finite")

    @property
    def ncomp(self) -> int:
        return self.values.shape[0]

    def copy(self) -> "ModalField":
        return ModalField(self.grid, self.values.copy(), self.frame)


def require_same_grid(*fields: ModalField) -> Grid:
    g = fields[0].grid
    for f in fields[1:]:
        if f.grid != g:
            raise GridMismatch("fields live on different grids")
    return g


# -- Fourier transforms -----------------------------------------------------
#
# Conventions: U(r) = (2*pi)^-d * integral(U_hat(k) e^{ikr} dk) and
# U_hat(k) = integral(U(r) e^{-ikr} dr), discretised with the trapezoid
# weights dk^d and dr^d so that forward(inverse(x)) == x exactly.

def spectrum_to_samples(values: np.ndarray, grid: Grid, centred: bool = True,
                        out: np.ndarray | None = None, real: bool = False) -> np.ndarray:
    """Inverse transform of k-samples (``np.fft`` order if not ``centred``) to r-samples.

    With ``real`` the values are the half spectrum of real samples in
    ``np.fft.rfftn`` layout (``np.fft`` order, last axis cut to its P/2 + 1
    non-negative slots) and the samples are real.  The samples are written
    to ``out`` if given.
    """
    axes = tuple(range(values.ndim - grid.dim, values.ndim))
    if real:
        out = np.fft.irfftn(values, s=grid.shape, axes=axes, out=out)
    else:
        out = np.fft.ifftn(np.fft.ifftshift(values, axes=axes) if centred else values,
                           axes=axes, out=out)
    out *= 1.0 / np.prod(grid.dr)
    return out


def samples_to_spectrum(values: np.ndarray, grid: Grid, centred: bool = True,
                        out: np.ndarray | None = None) -> np.ndarray:
    """Forward transform of r-samples to k-samples (``np.fft`` order if not ``centred``).

    Centred, the spectrum is shifted and scaled.  Otherwise it is the raw
    transform, written to ``out`` if given (it may be complex ``values``),
    and the caller multiplies the slots it keeps by ``r_cell(grid)``: a real
    factor, so scaling after a gather is bitwise scaling before it.  Real
    ``values`` then give their half spectrum in ``np.fft.rfftn`` layout.
    """
    axes = tuple(range(values.ndim - grid.dim, values.ndim))
    if not centred and np.isrealobj(values):
        return np.fft.rfftn(values, axes=axes, out=out)
    out = np.fft.fftn(values, axes=axes, out=out)
    if centred:
        out = np.fft.fftshift(out, axes=axes)
        out *= r_cell(grid)
    return out


def r_cell(grid: Grid):
    """Quadrature weight dr^d of the r-grid: the scale of a forward transform."""
    return np.prod(grid.dr)


def to_r_space(f: ModalField) -> np.ndarray:
    return spectrum_to_samples(f.values, f.grid)


def pad_spectrum(values: np.ndarray, grid: Grid, shape, centred: bool = True,
                 out: np.ndarray | None = None) -> np.ndarray:
    """Zero-pad spectra on ``grid`` to ``shape`` nodes per axis (same dk).

    Centred, or else in ``np.fft`` order (node j at slot (j - n/2) mod P) and
    into ``out`` if given, which must be zero off those slots.
    """
    if centred:
        pads = [(0, 0)] * (values.ndim - grid.dim)
        pads += [((p - n) // 2,) * 2 for p, n in zip(shape, grid.n)]
        return np.pad(values, pads)
    if out is None:
        out = np.zeros(values.shape[:values.ndim - grid.dim] + tuple(shape), dtype=values.dtype)
    for nodes, slots in fft_blocks(grid.n, shape):
        out[(..., *slots)] = values[(..., *nodes)]
    return out


def crop_spectrum(values: np.ndarray, grid: Grid, centred: bool = True,
                  out: np.ndarray | None = None) -> np.ndarray:
    """The ``grid.shape`` nodes of spectra padded by ``pad_spectrum`` (same ``centred``).

    Centred, a view, or else in ``np.fft`` order and copied into ``out`` if given.
    """
    if not centred:
        if out is None:
            out = np.empty(values.shape[:values.ndim - grid.dim] + grid.shape, dtype=values.dtype)
        for nodes, slots in fft_blocks(grid.n, values.shape[-grid.dim:]):
            out[(..., *nodes)] = values[(..., *slots)]
        return out
    sl = [slice(None)] * (values.ndim - grid.dim)
    sl += [slice((p - n) // 2, (p + n) // 2) for p, n in zip(values.shape[-grid.dim:], grid.n)]
    return values[tuple(sl)]


def fft_blocks(n, shape) -> list:
    """(grid nodes, padded slots) of the 2^dim blocks of ``np.fft`` order.

    Per axis the negative half of the n grid nodes goes on top of the P =
    ``shape`` slots; node and slot indices are slices, so each block is a view.
    """
    halves = [((slice(0, v // 2), slice(p - v // 2, p)), (slice(v // 2, v), slice(0, v // 2)))
              for v, p in zip(n, shape)]
    return [tuple(zip(*pairs)) for pairs in itertools.product(*halves)]


def grid_mirror(grid: Grid) -> tuple[np.ndarray, np.ndarray]:
    """Flat index of the node at -k for every flat node, and the nodes without one.

    Axis node j sits at centred index j - n/2, so its mirror is node
    (n - j) mod n.  A node at k = -k_max on some axis has no mirror on the
    grid: it is flagged in the boolean ``lone`` and maps to a lone node.
    Returns (mirror, lone).
    """
    idx = np.indices(grid.shape).reshape(grid.dim, -1)
    n = np.array(grid.n)[:, None]
    return np.ravel_multi_index(tuple((n - idx) % n), grid.shape), (idx == 0).any(axis=0)


# -- norms ------------------------------------------------------------------

def pointwise_modulus(values: np.ndarray, mirror: np.ndarray | None = None) -> np.ndarray:
    """Euclidean modulus over the leading component axis.

    With the flat ``mirror`` of ``grid_mirror`` the values hold the +
    component of each conjugate pair of a state with U_-(k) = conj U_+(-k)
    (and 0 at lone nodes), the last axis being the flat grid: each component
    is followed by its partner, whose square at a node is the + square at the
    mirror node, added in the same order as on the expanded state.
    """
    squares = values.real ** 2 + values.imag ** 2
    if mirror is None:
        return np.sqrt(squares.sum(axis=0))
    total = None
    for sq in squares:
        for part in (sq, np.take(sq, mirror, axis=-1)):
            total = part if total is None else total + part
    return np.sqrt(total)


def l1_norm(f: ModalField, a: float = 0.0) -> float:
    """L1 norm of the modulus, optionally with weight (1+|k|)^a."""
    return l1_norm_values(f.values, f.grid, a)


def l1_norm_values(values: np.ndarray, grid: Grid, a: float = 0.0) -> float:
    mod = pointwise_modulus(values)
    if a != 0.0:
        mod = mod * (1.0 + grid.abs_k()) ** a
    return float(mod.sum() * grid.cell)


def linf_r_norm(f: ModalField) -> float:
    """Sup of |U(r)| of the r-space reconstruction."""
    return float(pointwise_modulus(to_r_space(f)).max())


__all__ = [
    "Grid",
    "transform_size",
    "ModalField",
    "require_same_grid",
    "spectrum_to_samples",
    "samples_to_spectrum",
    "to_r_space",
    "pad_spectrum",
    "crop_spectrum",
    "fft_blocks",
    "grid_mirror",
    "r_cell",
    "pointwise_modulus",
    "l1_norm",
    "l1_norm_values",
    "linf_r_norm",
]
