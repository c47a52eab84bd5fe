"""The band table of ``dispersion``: band order, cached eigenbasis, one projector."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from wavepax import dispersion as dsp
from wavepax import interaction as ia
from wavepax import resonance as rs
from wavepax import wavepacket as wp
from wavepax.errors import BandCrossing
from wavepax.grids import Grid


def hermitian(rng, c):
    a = rng.standard_normal((c, c)) + 1j * rng.standard_normal((c, c))
    return a + a.conj().T


def random_symbol_model(seed, j_bands):
    """k -> A + k B + k^2 D with random Hermitian A, B and a fixed diagonal D."""
    rng = np.random.default_rng(seed)
    c = 2 * j_bands
    a, b = hermitian(rng, c), hermitian(rng, c)
    d = np.diag(np.linspace(-1.0, 1.0, c))

    def symbol(k):
        return a + k * b + k * k * d

    return dsp.matrix_symbol_model(symbol, j_bands=j_bands)


def matrix_model(j_bands=1):
    """A gapped symbol with k-dependent eigenvectors."""
    if j_bands == 1:
        return dsp.matrix_symbol_model(
            lambda k: np.array([[k * k + 6.0, 1.0 + 0.5j], [1.0 - 0.5j, -(k * k) - 6.0]]), 1)
    w = np.diag([-9.0, -4.0, 4.0, 9.0])
    m = 0.25 * np.array([[0, 1, 0, 0.5j], [1, 0, 0.3, 0], [0, 0.3, 0, 1], [-0.5j, 0, 1, 0]])
    return dsp.matrix_symbol_model(lambda k: w + k * m, 2)


def bands(model):
    return [(n, zeta) for n in range(1, model.j_bands + 1) for zeta in (+1, -1)]


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), j_bands=st.sampled_from([1, 2]),
       k=st.floats(-3.0, 3.0))
def test_projectors_idempotent_complete_orthogonal(seed, j_bands, k):
    model = random_symbol_model(seed, j_bands)
    evals = np.linalg.eigvalsh(model.symbol(k))
    assume(np.diff(evals).min() > 1e-6 * (1.0 + np.abs(evals).max()))
    eye = np.eye(model.ncomp)
    projs = {b: dsp.eval_projector(model, *b, k) for b in bands(model)}
    assert np.abs(sum(projs.values()) - eye).max() < 1e-13
    for b, p in projs.items():
        assert np.abs(p @ p - p).max() < 1e-13
        for other, q in projs.items():
            if other != b:
                assert np.abs(p @ q).max() < 1e-13


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), j_bands=st.sampled_from([1, 2]))
def test_project_band_idempotent_complete_orthogonal(seed, j_bands):
    model = random_symbol_model(seed, j_bands)
    grid = Grid(1, (32,), (2.0,))
    _, _, crossing = dsp.eigensystem_tables(model, grid)
    assume(not crossing.any())
    rng = np.random.default_rng(seed)
    u = rng.standard_normal((model.ncomp, 32)) + 1j * rng.standard_normal((model.ncomp, 32))
    parts = {b: dsp.project_band(dsp.band_columns(model, grid, *b), u) for b in bands(model)}
    assert np.abs(sum(parts.values()) - u).max() < 1e-13
    for b, part in parts.items():
        assert np.abs(dsp.project_band(dsp.band_columns(model, grid, *b), part) - part).max() < 1e-13
        for other in parts:
            if other != b:
                cols = dsp.band_columns(model, grid, *other)
                assert np.abs(dsp.project_band(cols, part)).max() < 1e-13


# -- the parent formulas, kept literally -------------------------------------------

def parent_project_band_values(values, model, grid, n, zeta):
    c = dsp.comp_index(n, zeta)
    if model.kind == "scalar-band":
        out = np.zeros_like(values)
        out[c] = values[c]
        return out
    _, basis, _ = dsp.eigensystem_tables(model, grid)
    # coeff(k) = <g_c(k), u(k)>; out = coeff * g_c
    g = np.moveaxis(basis[..., :, c], -1, 0)  # (2J, *shape)
    coeff = (g.conj() * values).sum(axis=0)
    return g * coeff


def parent_layout_project(layout, key, vals):
    model, grid = layout.model, layout.grid
    _, basis, _ = dsp.eigensystem_tables(model, grid)
    x = int(np.prod(grid.shape))
    l, theta = key
    c = dsp.comp_index(layout.spectrum.band(l), theta)
    if basis is None:
        g = c
    else:
        flat = basis.reshape(x, model.ncomp, model.ncomp)
        g = flat[layout.mask[key], :, c].T.copy()  # (C, win)
    if isinstance(g, (int, np.integer)):
        out = np.zeros_like(vals)
        out[:, g] = vals[:, g]
    else:
        coeff = (g.conj()[None] * vals).sum(axis=1)
        out = g[None] * coeff[:, None, :]
    return out * layout.cut[key][None, None, :]


def parent_build_wavepacket(spec, model, grid):
    """The per-node loop of the matrix-symbol construction."""
    radius = spec.cutoff_radius
    mesh = grid.k_mesh()
    values = np.zeros((model.ncomp,) + grid.shape, dtype=complex)
    phase = np.exp(-1j * np.tensordot(spec.r_star, mesh, axes=(0, 0)))
    for zeta in spec.zetas():
        center = zeta * spec.k_star
        cut = wp.build_cutoff(grid, center, radius)
        eta = (mesh - center.reshape(grid.dim, *([1] * grid.dim))) / spec.beta
        if zeta > 0 or not spec.doublet_reality:
            env = spec.envelope.khat(eta if grid.dim > 1 else eta[0], grid.dim)
        else:
            env = np.conj(spec.envelope.khat(-eta if grid.dim > 1 else -eta[0], grid.dim))
        scalar = cut * spec.beta ** (-grid.dim) * env * phase
        g = wp._anchor_vector(model, spec.n, zeta, center)
        support = cut > 0
        idx = np.argwhere(support)
        for node in idx:
            kpt = np.array([mesh[(a,) + tuple(node)] for a in range(grid.dim)])
            proj = dsp.eval_projector(model, spec.n, zeta, kpt if grid.dim > 1 else float(kpt[0]))
            values[(slice(None),) + tuple(node)] += scalar[tuple(node)] * (proj @ g)
    return values


MODELS = {
    "nls": lambda: dsp.model_from_config({"preset": "nls1d", "params": {"a2": 1.0, "a0": 1.0}}),
    "twoband": lambda: dsp.model_from_config({"preset": "twoband", "params": {"d1": 1.0,
                                                                              "d2": 2.0}}),
    "matrix1": lambda: matrix_model(1),
    "matrix2": lambda: matrix_model(2),
}


@pytest.mark.parametrize("name", sorted(MODELS))
def test_projections_bitwise_the_parent_formulas(name, rng):
    model = MODELS[name]()
    grid = Grid(1, (512,), (4.0,))
    c = model.ncomp
    values = rng.standard_normal((c, 512)) + 1j * rng.standard_normal((c, 512))
    for n, zeta in bands(model):
        assert np.array_equal(wp.project_band_values(values, model, grid, n, zeta),
                              parent_project_band_values(values, model, grid, n, zeta))
    spectrum = rs.spectrum_from_list([[model.j_bands, 1.0], [1, -1.0]])
    layout = ia.ComponentLayout(spectrum, model, grid, 0.1, 0.1)
    for key in layout.keys:
        win = layout.mask[key].size
        vals = rng.standard_normal((3, c, win)) + 1j * rng.standard_normal((3, c, win))
        assert np.array_equal(layout.project(key, vals), parent_layout_project(layout, key, vals))


def gaussian_spec(n=1, k_star=1.0, beta=0.1, r_star=3.0, components="both"):
    return wp.WavepacketSpec(n=n, k_star=k_star, r_star=r_star, beta=beta, epsilon=0.1,
                             envelope=wp.Envelope("gaussian", 1.0, 0.2),
                             zeta_components=components)


@pytest.mark.parametrize("j_bands", [1, 2])
def test_matrix_packet_matches_the_per_node_loop(j_bands):
    model, grid = matrix_model(j_bands), Grid(1, (512,), (4.0,))
    for n in range(1, j_bands + 1):
        spec = gaussian_spec(n=n)
        new = wp.build_wavepacket(spec, model, grid).values
        old = parent_build_wavepacket(spec, model, grid)
        assert np.abs(old).max() > 0
        assert np.abs(new - old).max() <= 1e-14 * np.abs(old).max()


def test_matrix_crossing_on_the_support_raises():
    grid = Grid(1, (512,), (4.0,))
    k0 = 1.0 + 4 * grid.dk[0]  # a node inside the support, off the carrier

    def symbol(k):
        w1, w2 = 3.0, 3.0 + (k - k0) ** 2  # bands 1 and 2 touch at k0
        return np.diag([-w2, -w1, w1, w2]).astype(complex)

    model = dsp.matrix_symbol_model(symbol, j_bands=2)
    spec = gaussian_spec(n=1)
    assert not dsp.is_band_crossing(model, spec.k_star)
    _, _, crossing = dsp.eigensystem_tables(model, grid)
    assert crossing.sum() == 1 and np.isclose(grid.k_axis()[crossing][0], k0)
    with pytest.raises(BandCrossing):
        wp.build_wavepacket(spec, model, grid)
    with pytest.raises(BandCrossing):
        parent_build_wavepacket(spec, model, grid)


def test_scalar_packet_over_a_zero_frequency_node_raises():
    model = dsp.model_from_config({"preset": "nls1d", "params": {"a2": 1.0, "a0": 0.0}})
    grid = Grid(1, (512,), (4.0,))
    spec = gaussian_spec(k_star=3 * grid.dk[0], beta=0.3, components="+")
    assert not dsp.is_band_crossing(model, spec.k_star)
    zero = int(np.argmin(np.abs(grid.k_axis())))
    assert wp.build_cutoff(grid, spec.k_star, spec.cutoff_radius)[zero] > 0
    with pytest.raises(BandCrossing, match="singular set"):
        wp.build_wavepacket(spec, model, grid)


def test_eigen_cache_fills_once_and_crossing_scan_does_not_use_it(monkeypatch):
    calls = []
    inner = dsp.symbol_eigensystem

    def counted(model, grid):
        calls.append(grid)
        return inner(model, grid)

    monkeypatch.setattr(dsp, "symbol_eigensystem", counted)
    model, grid = matrix_model(1), Grid(1, (64,), (3.0,))
    for _ in range(2):
        dsp.band_columns(model, grid, 1, +1)
        dsp.eigensystem_tables(model, grid)
    assert len(calls) == 1
    dsp.detect_band_crossings(model, grid)
    dsp.detect_band_crossings(model, grid)
    assert len(calls) == 3
    assert not hasattr(wp, "eigensystem_tables")
