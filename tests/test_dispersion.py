import numpy as np
import pytest

from wavepax import dispersion as dsp
from wavepax.errors import BandCrossing, SpectrumOnSingularSet
from wavepax.grids import Grid
from wavepax.resonance import spectrum_from_list


def quad_model(a2=1.0, a0=0.0):
    return dsp.model_from_config({"preset": "nls1d", "params": {"a2": a2, "a0": a0}})


def test_eval_omega_closed_form():
    m = quad_model()
    assert dsp.eval_omega(m, 1, +1, 2.0) == pytest.approx(4.0)
    # diagonal symmetry: omega_{1,-}(k) = -omega(-k)
    assert dsp.eval_omega(m, 1, -1, 2.0) == pytest.approx(-4.0)


def test_matrix_symbol_matches_scalar_path():
    def symbol(k):
        return np.diag([abs(k), -abs(k)]).astype(complex)

    m = dsp.matrix_symbol_model(symbol, j_bands=1)
    assert dsp.eval_omega(m, 1, +1, 3.0) == pytest.approx(3.0)
    assert dsp.eval_omega(m, 1, -1, 3.0) == pytest.approx(-3.0)


def test_group_velocity_analytic_and_symmetry():
    m = quad_model()
    assert dsp.group_velocity(m, 1, +1, 1.5) == pytest.approx(3.0)
    # minus branch gradient equals the plus gradient at the flipped point
    assert dsp.group_velocity(m, 1, -1, 1.5) == pytest.approx(-3.0)
    assert dsp.group_velocity(m, 1, -1, 1.5) == pytest.approx(
        dsp.group_velocity(m, 1, +1, -1.5)
    )


def test_matrix_fd_gradient_matches_closed_form():
    a2, a0 = 0.7, 0.3

    def symbol(k):
        w = a2 * k * k + a0
        wm = a2 * k * k + a0  # symmetric band
        return np.diag([w, -wm]).astype(complex)

    m = dsp.matrix_symbol_model(symbol, j_bands=1)
    for k in (0.4, 1.1, -2.3):
        got = dsp.group_velocity(m, 1, +1, k, h=1e-5)
        assert got == pytest.approx(2 * a2 * k, rel=1e-6)


def test_fd_gradient_order_at_least_1p8():
    def symbol(k):
        return np.diag([np.cosh(k), -np.cosh(k)]).astype(complex)

    m = dsp.matrix_symbol_model(symbol, j_bands=1)
    k = 0.7
    exact = np.sinh(k)
    e1 = abs(dsp.group_velocity(m, 1, +1, k, h=1e-2) - exact)
    e2 = abs(dsp.group_velocity(m, 1, +1, k, h=5e-3) - exact)
    order = np.log2(e1 / e2)
    assert order >= 1.8


def test_projectors_diagonal_model():
    m = quad_model(a0=1.0)
    assert np.allclose(dsp.eval_projector(m, 1, +1, 0.7), np.diag([1.0, 0.0]))
    assert np.allclose(dsp.eval_projector(m, 1, -1, 0.7), np.diag([0.0, 1.0]))
    # twoband: k^2 and 2|k| swap order at |k| = 2, yet band (n, zeta) stays in
    # component comp_index(n, zeta), as in symbol_eigensystem
    two = dsp.model_from_config({"preset": "twoband", "params": {}})
    for k in (1.0, 3.0):
        for n in (1, 2):
            for zeta in (+1, -1):
                unit = np.zeros(4)
                unit[dsp.comp_index(n, zeta)] = 1.0
                assert np.array_equal(dsp.eval_projector(two, n, zeta, k), np.diag(unit))


def test_projector_idempotent_and_complete(rng):
    # random Hermitian symbol with a safe gap
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    base = a @ a.conj().T + 3.0 * np.eye(2)

    def symbol(k):
        return base + np.diag([k * k + 4.0, -(k * k) - 4.0])

    m = dsp.matrix_symbol_model(symbol, j_bands=1)
    for k in (-1.3, 0.2, 2.4):
        total = np.zeros((2, 2), dtype=complex)
        for zeta in (+1, -1):
            p = dsp.eval_projector(m, 1, zeta, k)
            assert np.abs(p @ p - p).max() < 1e-12
            assert np.abs(p - p.conj().T).max() < 1e-12
            total += p
        assert np.abs(total - np.eye(2)).max() < 1e-12


def test_detect_band_crossings_zero_band():
    g = Grid(1, (256,), (2.0,))
    m0 = quad_model(a0=0.0)
    flagged = dsp.detect_band_crossings(m0, g)
    ks = [g.k_axis()[i[0]] for i in flagged]
    assert any(abs(k) < g.dk[0] for k in ks)  # the k=0 node is flagged
    m1 = quad_model(a0=1.0)
    assert dsp.detect_band_crossings(m1, g) == []


def test_detect_band_crossings_twoband():
    # omega_1 = k^2, omega_2 = 2|k| cross where k^2 = 2|k|, at |k| = 2
    m = dsp.model_from_config({"preset": "twoband", "params": {}})
    g = Grid(1, (512,), (4.0,))
    flagged_k = dsp.flagged_wavevectors(m, g)[:, 0]
    for root in (-2.0, 0.0, 2.0):
        assert np.min(np.abs(flagged_k - root)) <= 2 * g.dk[0]


def test_band_crossing_point_query_raises_in_eval():
    def symbol(k):
        return np.diag([k * k, -(k * k)]).astype(complex)

    m = dsp.matrix_symbol_model(symbol, j_bands=1)
    with pytest.raises(BandCrossing):
        dsp.eval_omega(m, 1, +1, 0.0)


def test_neighborhood_bounds_quadratic():
    m = quad_model(a0=0.0)  # singular at k = 0
    spec = spectrum_from_list([[1, 1.0]])
    b = dsp.neighborhood_bounds(m, spec)
    assert b.pi0 == pytest.approx(0.5, rel=0.02)
    # sup |2k| over |k -+ 1| <= pi0 is 3
    assert b.c_omega1 == pytest.approx(3.0, rel=0.02)
    assert b.c_omega2 == pytest.approx(2.0, rel=0.05)


def test_neighborhood_bounds_2d_hessian():
    m = dsp.scalar_band_model(
        [lambda k: (k ** 2).sum(axis=0) + 1.0], dim=2, name="paraboloid2d"
    )
    spec = spectrum_from_list([[1, 1.0, 0.0]], dim=2)
    b = dsp.neighborhood_bounds(m, spec, samples=9)
    assert b.c_omega2 == pytest.approx(2.0, rel=0.05)


def test_neighborhood_bounds_rejects_singular_spectrum():
    m = quad_model(a0=0.0)
    with pytest.raises(SpectrumOnSingularSet):
        dsp.neighborhood_bounds(m, spectrum_from_list([[1, 0.0]]))


def test_diagonal_symmetry_random_sample(rng):
    m = quad_model(a0=0.7)
    ks = rng.uniform(-3, 3, size=1000)
    for zeta in (+1, -1):
        for k in ks[:50]:
            lhs = dsp.eval_omega(m, 1, -zeta, -k)
            rhs = -dsp.eval_omega(m, 1, zeta, k)
            assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(rhs))
    # vectorised check over the full sample through the grid tables; node j
    # maps to node N-j under k -> -k on the [-K, K) axis, so drop j = 0
    g = Grid(1, (1024,), (3.2,))
    omega, _, _ = dsp.symbol_eigensystem(m, g)
    flipped = np.roll(omega[:, ::-1], 1, axis=1)
    resid = np.abs(omega[0, 1:] + flipped[1, 1:]).max()
    assert resid <= 1e-9 * (1 + np.abs(omega).max())


def test_projector_completeness_on_grid(rng):
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    herm = a + a.conj().T

    def symbol(k):
        return herm + np.diag([k * k + 5.0, -(k * k) - 5.0])

    m = dsp.matrix_symbol_model(symbol, j_bands=1)
    g = Grid(1, (64,), (2.0,))
    omega, basis, mask = dsp.symbol_eigensystem(m, g)
    assert not mask.any()
    for j in range(0, 64, 7):
        q = basis[j]
        assert np.abs(q @ q.conj().T - np.eye(2)).max() < 1e-12


def test_tabulated_symbol_roundtrip(tmp_path):
    import json

    ks = np.linspace(-2, 2, 41)
    mats = []
    for k in ks:
        m = np.diag([k * k + 1.0, -(k * k) - 1.0])
        mats.append([[[m[i, j], 0.0] for j in range(2)] for i in range(2)])
    path = tmp_path / "symbol.json"
    path.write_text(json.dumps({"k": ks.tolist(), "matrices": mats}))
    model = dsp.model_from_config({"preset": f"matrix:{path}"})
    assert dsp.eval_omega(model, 1, +1, 1.0) == pytest.approx(2.0, rel=1e-6)
    assert dsp.eval_omega(model, 1, -1, 0.5) == pytest.approx(-1.25, rel=1e-3)
