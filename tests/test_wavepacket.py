import dataclasses
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wavepax import wavepacket as wp
from wavepax.errors import EmptySublevelSet, RadiusUnresolvable
from wavepax.grids import (
    Grid,
    ModalField,
    l1_norm,
    samples_to_spectrum,
    to_r_space,
)


def rspace(env, z, dim=1):
    """Closed r-space form of a gaussian or sech envelope at offsets ``z``."""
    z = np.asarray(z, dtype=float)
    r2 = (z ** 2).sum(axis=0) if (z.ndim and dim > 1 and z.shape[0] == dim) else z ** 2
    w, a = env.width, env.amplitude
    if env.family == "gaussian":
        return a * np.exp(-0.5 * r2 / (w * w))
    if env.family == "sech":
        return a / np.cosh(np.sqrt(r2) / w)
    raise ValueError("bump envelope has no closed r-space form")


def l1_khat(env, dim=1, a_weight=0.0):
    """Quadrature value of the (weighted) L1 norm of an envelope's transform."""
    span = 12.0 * max(env.k_scale, 1.0 / env.width)
    n = 20001
    if dim == 1:
        eta = np.linspace(-span, span, n)
        vals = np.abs(env.khat(eta, 1)) * (1 + np.abs(eta)) ** a_weight
        return float(np.trapezoid(vals, eta))
    axes = [np.linspace(-span, span, 801)] * dim
    mesh = np.stack(np.meshgrid(*axes, indexing="ij"))
    vals = np.abs(env.khat(mesh, dim))
    if a_weight:
        vals = vals * (1 + np.sqrt((mesh ** 2).sum(axis=0))) ** a_weight
    h = axes[0][1] - axes[0][0]
    return float(vals.sum() * h ** dim)


def gaussian_spec(beta=0.1, eps=0.1, k_star=1.0, r_star=0.0, amp=0.2, width=1.0,
                  components="both"):
    return wp.WavepacketSpec(
        n=1, k_star=k_star, r_star=r_star, beta=beta, epsilon=eps,
        envelope=wp.Envelope("gaussian", width, amp), zeta_components=components,
    )


# -- cutoff ---------------------------------------------------------------------

def test_cutoff_plateau_and_support(grid512):
    cut = wp.build_cutoff(grid512, 1.0, 0.4)
    k = grid512.k_axis()
    inner = np.abs(k - 1.0) <= 0.19
    outer = np.abs(k - 1.0) >= 0.4
    assert np.all(cut[inner] == 1.0)
    assert np.all(cut[outer] == 0.0)
    # strictly interior transition band (the exp profile underflows to the
    # plateau values within ~radius/700 of its ends)
    mid = (np.abs(k - 1.0) > 0.25) & (np.abs(k - 1.0) < 0.38)
    assert np.all((cut[mid] > 0) & (cut[mid] < 1))
    # radial monotonicity on the right flank
    right = cut[(k >= 1.0)]
    assert np.all(np.diff(right) <= 1e-12)


def test_cutoff_nesting_identity(grid512):
    # the wider cutoff is 1 on the support of the narrower one
    small = wp.build_cutoff(grid512, 0.5, 0.3)
    large = wp.build_cutoff(grid512, 0.5, 0.6)
    assert np.abs(small * large - small).max() == 0.0


def test_cutoff_radius_unresolvable(grid512):
    with pytest.raises(RadiusUnresolvable):
        wp.build_cutoff(grid512, 0.0, grid512.dk[0])


# -- envelopes -------------------------------------------------------------------

@pytest.mark.parametrize("family,width", [("gaussian", 1.3), ("sech", 0.8)])
def test_envelope_transform_matches_dft(family, width):
    env = wp.Envelope(family, width, 0.7)
    g = Grid(1, (2048,), (16.0,))
    x = g.r_axis()
    x0 = x[len(x) // 2]
    samples = rspace(env, x - x0).astype(complex)
    hat = samples_to_spectrum(samples, g) * np.exp(1j * g.k_axis() * x0)
    expected = env.khat(g.k_axis())
    assert np.abs(hat.real - expected).max() <= 1e-6 * np.abs(expected).max()


def test_envelope_l1_quadratures():
    env = wp.Envelope("gaussian", 1.0, 0.5)
    # closed forms: ||Phi_hat||_1 = 2 pi A, ||grad Phi_hat||_1 = 2 A sqrt(2 pi) w
    assert l1_khat(env) == pytest.approx(2 * np.pi * 0.5, rel=1e-6)
    assert env.l1_grad_khat() == pytest.approx(2 * 0.5 * np.sqrt(2 * np.pi), rel=1e-4)


# -- construction ------------------------------------------------------------------

def test_l1_uniform_in_beta(nls_model):
    # the envelope must sit well inside the carrier cutoff for the norm to
    # be insensitive to the cutoff scale beta^(1-eps)
    g = Grid(1, (2048,), (2.0,))
    norms = []
    for beta in (0.2, 0.1, 0.05):
        spec = gaussian_spec(beta=beta, eps=0.3, width=4.0, components="+")
        f = wp.build_wavepacket(spec, nls_model, g)
        norms.append(l1_norm(f))
    for a in norms:
        for b in norms:
            assert abs(a - b) <= 0.01 * max(a, b)


def test_position_shift_is_grid_shift(nls_model, grid512):
    dr = grid512.dr[0]
    shift_cells = 40
    f0 = wp.build_wavepacket(gaussian_spec(r_star=0.0), nls_model, grid512)
    f1 = wp.build_wavepacket(gaussian_spec(r_star=shift_cells * dr), nls_model, grid512)
    h0 = to_r_space(f0)
    h1 = to_r_space(f1)
    assert np.abs(np.roll(h0, shift_cells, axis=-1) - h1).max() <= 1e-12 * np.abs(h0).max()


def test_doublet_reality(nls_model, grid512):
    f = wp.build_wavepacket(gaussian_spec(), nls_model, grid512)
    h = to_r_space(f)
    total = h[0] + h[1]  # conjugate-pair components sum to the real field
    assert np.abs(total.imag).max() <= 1e-10 * np.abs(total).max()


def test_fourier_round_trip(grid512, rng, from_r_space):
    vals = rng.normal(size=(2, 512)) + 1j * rng.normal(size=(2, 512))
    f = ModalField(grid512, vals)
    back = from_r_space(to_r_space(f), grid512)
    assert np.abs(back.values - vals).max() <= 1e-12 * np.abs(vals).max()


# -- regularity defect ----------------------------------------------------------------

def test_defect_zero_for_built_packet(nls_model, grid512):
    spec = gaussian_spec()
    f = wp.build_wavepacket(spec, nls_model, grid512)
    assert wp.regularity_defect(f, spec, nls_model) == 0.0


def test_defect_tail_bound_for_raw_gaussian(nls_model):
    # packet without the construction cutoff: tail mass beyond the carrier
    # ball obeys the weighted-envelope bound beta^(2 eps) ||Phi_hat||_{1,2}
    g = Grid(1, (4096,), (8.0,))
    beta, eps = 0.1, 0.35
    spec = gaussian_spec(beta=beta, eps=eps, components="+")
    env = spec.envelope
    k = g.k_axis()
    vals = np.zeros((2, 4096), dtype=complex)
    vals[0] = env.khat((k - 1.0) / beta) / beta
    f = ModalField(g, vals)
    defect = wp.regularity_defect(f, spec, nls_model)
    bound = beta ** (2 * eps) * l1_khat(env, a_weight=2.0)
    assert 0.0 < defect <= bound


def test_defect_ratio_gives_positive_rate(nls_model):
    g = Grid(1, (4096,), (8.0,))
    vals = {}
    for beta in (0.2, 0.1):
        spec = gaussian_spec(beta=beta, eps=0.35, components="+")
        k = g.k_axis()
        raw = np.zeros((2, 4096), dtype=complex)
        raw[0] = spec.envelope.khat((k - 1.0) / beta) / beta
        vals[beta] = wp.regularity_defect(ModalField(g, raw), spec, nls_model)
    s = np.log2(vals[0.2] / vals[0.1])
    assert s > 0.0


# -- position detection ------------------------------------------------------------------

def test_position_detection_at_center(nls_model, grid512):
    beta = 0.1
    env = wp.Envelope("gaussian", 1.0, 0.2)
    # raw packet (no carrier cutoff): detection at the position equals the
    # envelope gradient norm divided by beta
    k = grid512.k_axis()
    vals = np.zeros((2, 512), dtype=complex)
    vals[0] = env.khat((k - 1.0) / beta) / beta
    f = ModalField(grid512, vals)
    a0 = wp.position_detection(f, 0.0)
    assert a0 == pytest.approx(env.l1_grad_khat() / beta, rel=0.01)
    # the construction cutoff can only trim the gradient mass
    built = wp.build_wavepacket(gaussian_spec(beta=beta, components="+"), nls_model, grid512)
    assert wp.position_detection(built, 0.0) <= a0 * 1.05


def test_position_detection_far_probe_lower_bound(nls_model, grid512):
    beta = 0.1
    spec = gaussian_spec(beta=beta, components="+")
    f = wp.build_wavepacket(spec, nls_model, grid512)
    l1 = l1_norm(f)
    a0 = wp.position_detection(f, 0.0)
    # probes within the range the central difference resolves
    for probe in (20.0, -35.0, 50.0):
        a = wp.position_detection(f, probe)
        assert a >= 0.95 * (abs(probe) * l1 - a0)


def test_position_detection_zero_field(grid512):
    f = ModalField(grid512, np.zeros((2, 512), dtype=complex))
    assert wp.position_detection(f, 3.0) == 0.0


def test_pseudoshift_consistency(nls_model, grid512):
    beta = 0.1
    spec = gaussian_spec(beta=beta, components="+")
    f = wp.build_wavepacket(spec, nls_model, grid512)
    env = spec.envelope
    for delta in (-8.0, 3.0, 1.0 / beta):
        a = wp.position_detection(f, delta)
        bound = 2 * env.l1_grad_khat() / beta + abs(delta) * l1_khat(env)
        assert a <= bound * 1.01


def test_spatial_decay_bound(nls_model):
    # |r - r*| |h(r)| <= (2 pi)^-d a(r*)
    g = Grid(1, (1024,), (4.0,))
    r_star = g.r_axis()[512]
    spec = gaussian_spec(r_star=r_star, components="+")
    f = wp.build_wavepacket(spec, nls_model, g)
    a_star = wp.position_detection(f, r_star)
    h = to_r_space(f)[0]
    r = g.r_axis()
    lhs = np.abs(r - r_star) * np.abs(h)
    assert lhs.max() <= (a_star / (2 * np.pi)) * (1 + 1e-9)


def full_grid_detection(f, probe):
    """The detection functional on the whole grid: the arithmetic the support window must reproduce bitwise."""
    probe = np.atleast_1d(np.asarray(probe, dtype=float))
    mesh = f.grid.k_mesh()
    phase = np.exp(1j * np.tensordot(probe, mesh, axes=(0, 0)))
    values = f.values * phase
    grad = []
    for a in range(f.grid.dim):
        ax = values.ndim - f.grid.dim + a
        grad.append((np.roll(values, -1, axis=ax) - np.roll(values, 1, axis=ax)) / (2.0 * f.grid.dk[a]))
    mod = np.sqrt((np.abs(np.stack(grad)) ** 2).sum(axis=(0, 1)))
    return float(mod.sum() * f.grid.cell)


def box_field(shape, ncomp, starts, widths, sparse, seed):
    """Random complex values on a box of ``widths`` nodes from ``starts``, wrapped; zero elsewhere."""
    rng = np.random.default_rng(seed)
    g = Grid(len(shape), shape, (3.0,) * len(shape))
    nodes = [(s + np.arange(w % (n + 1))) % n for s, w, n in zip(starts, widths, shape)]
    box = (ncomp,) + tuple(len(t) for t in nodes)
    sub = (rng.normal(size=box) + 1j * rng.normal(size=box)) * 10.0 ** rng.integers(-3, 4, box)
    if sparse:
        sub *= rng.random(box) < 0.5
    values = np.zeros((ncomp,) + g.shape, dtype=complex)
    values[(slice(None),) + np.ix_(*nodes)] = sub
    return ModalField(g, values)


@settings(max_examples=200, deadline=None)
@given(
    shape=st.sampled_from([(8,), (16,), (64,), (256,), (8, 8), (16, 8), (32, 32)]),
    ncomp=st.sampled_from([2, 4]),
    starts=st.lists(st.integers(0, 255), min_size=2, max_size=2),
    # a width of 0 gives the zero field, one at least n - 3 the whole-axis fallback
    widths=st.lists(st.integers(0, 256), min_size=2, max_size=2),
    sparse=st.booleans(),
    # more probes than one block of the batched scan
    probes=st.lists(st.tuples(st.floats(-300.0, 300.0), st.floats(-300.0, 300.0)),
                    min_size=1, max_size=wp._PROBE_BLOCK + 16),
    seed=st.integers(0, 2**32 - 1),
)
@example(shape=(64,), ncomp=2, starts=[60, 0], widths=[10, 0], sparse=False,
         probes=[(0.0, 0.0), (17.5, 0.0)], seed=0)  # support across the periodic edge
@example(shape=(16,), ncomp=4, starts=[3, 0], widths=[13, 0], sparse=False,
         probes=[(-40.0, 0.0)], seed=1)  # too wide for a window
@example(shape=(16, 8), ncomp=2, starts=[14, 2], widths=[4, 5], sparse=False,
         probes=[(3.0, -8.0), (0.0, 0.0)], seed=2)  # wrapped axis and whole axis
@example(shape=(32, 32), ncomp=4, starts=[31, 0], widths=[1, 1], sparse=False,
         probes=[(5.0, 7.0)], seed=3)  # single node
@example(shape=(8, 8), ncomp=2, starts=[0, 0], widths=[0, 4], sparse=False,
         probes=[(1.0, 2.0)], seed=4)  # zero field
def test_support_window_is_bitwise_the_full_grid_detection(shape, ncomp, starts, widths,
                                                           sparse, probes, seed):
    f = box_field(shape, ncomp, starts, widths, sparse, seed)
    probes = np.array(probes)[:, :f.grid.dim]
    want = [full_grid_detection(f, p) for p in probes]
    one_at_a_time = [wp.position_detection(f, p) for p in probes]
    batched = wp._DetectionWindow(f)(probes)
    assert one_at_a_time == want
    assert batched.tolist() == want
    if not f.values.any():
        assert want == [0.0] * len(probes)


@pytest.mark.parametrize("n, support, window", [
    (64, [30], 5),                 # one node plus two on each side
    (64, [62, 63, 0, 1], 8),       # the arc across the edge, not the span 1..62
    (64, [3, 20, 40], 42),         # the shortest arc skips the widest gap
    (16, list(range(3, 15)), 16),  # 12 + 4 nodes still fit
    (16, list(range(3, 16)), 17),  # 13 + 4 wrap past the axis: nodes repeat
])
def test_support_window_is_the_shortest_arc_plus_two(n, support, window):
    values = np.zeros((2, n), dtype=complex)
    values[1, support] = 1.0 + 2.0j
    detect = wp._DetectionWindow(ModalField(Grid(1, (n,), (2.0,)), values))
    assert detect.values.shape == (2, window)


# -- position recovery ---------------------------------------------------------------------

def test_locate_position_single_packet(nls_model):
    g = Grid(1, (1024,), (4.0,))
    beta, eps = 0.1, 0.1
    r_star = 12.0 / 0.01
    # keep the packet position inside the r-extent
    r_star = 300.0
    spec = gaussian_spec(beta=beta, r_star=r_star, components="+")
    f = wp.build_wavepacket(spec, nls_model, g)
    a0 = wp.position_detection(f, r_star)
    thr = 2.0 * a0 * beta ** (-eps)
    fix = wp.locate_position(f, thr, [(r_star - 60, r_star + 60)], (1 / beta) / 4)
    assert abs(fix.position[0] - r_star) <= 2.0 / beta
    assert fix.n_components == 1


def test_locate_position_two_packet_sum_flags_split(nls_model):
    # a sum of two well-separated packets carries no single position: at the
    # particle threshold the sublevel set is empty, and at the level of its
    # two local minima it splits with a diameter far beyond the packet scale
    g = Grid(1, (1024,), (4.0,))
    beta, eps = 0.1, 0.1
    spec1 = gaussian_spec(beta=beta, r_star=200.0, components="+")
    spec2 = gaussian_spec(beta=beta, r_star=500.0, components="+")
    f1 = wp.build_wavepacket(spec1, nls_model, g)
    f2 = wp.build_wavepacket(spec2, nls_model, g)
    f = ModalField(g, f1.values + f2.values)
    a0 = wp.position_detection(f1, 200.0)
    thr = 2.0 * a0 * beta ** (-eps)
    with pytest.raises(EmptySublevelSet):
        wp.locate_position(f, thr, [(100.0, 600.0)], (1 / beta) / 4)
    floor = min(
        wp.position_detection(f, 200.0), wp.position_detection(f, 500.0)
    )
    fix = wp.locate_position(f, 1.15 * floor, [(100.0, 600.0)], (1 / beta) / 4)
    assert fix.n_components > 1
    assert fix.diameter > 10.0 * beta ** (-1 - eps)


def test_locate_position_symmetric_at_origin(nls_model):
    g = Grid(1, (1024,), (4.0,))
    spec = gaussian_spec(beta=0.1, r_star=0.0, components="+")
    f = wp.build_wavepacket(spec, nls_model, g)
    a0 = wp.position_detection(f, 0.0)
    fix = wp.locate_position(f, 2.0 * a0, [(-40.0, 40.0)], 2.5)
    assert abs(fix.position[0]) <= 1.0


def test_locate_position_empty_sublevel(nls_model, grid512):
    f = wp.build_wavepacket(gaussian_spec(components="+"), nls_model, grid512)
    with pytest.raises(EmptySublevelSet):
        wp.locate_position(f, 1e-12, [(-10.0, 10.0)], 2.0)


def full_grid_locate(f, threshold, search_box, scan_step):
    """locate_position as a scan and golden-section loop of one full-grid detection per probe."""
    def golden_refine(fun, lo, hi, iters=40):
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

    box = np.atleast_2d(np.asarray(search_box, dtype=float))
    axes = [np.arange(lo, hi + scan_step / 2, scan_step) for lo, hi in box]
    mesh = np.stack(np.meshgrid(*axes, indexing="ij"))
    pts = mesh.reshape(f.grid.dim, -1).T
    vals = np.array([full_grid_detection(f, p) for p in pts])
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
        n_comp = 1
    best = pts[int(np.argmin(vals))].astype(float)
    for axis in range(f.grid.dim):
        def along(x, axis=axis, base=best):
            p = base.copy()
            p[axis] = x
            return full_grid_detection(f, p)

        best[axis] = golden_refine(along, best[axis] - scan_step, best[axis] + scan_step)
    return wp.PositionFix(position=best, diameter=diameter, n_components=n_comp,
                          minimum=float(full_grid_detection(f, best)), threshold=threshold)


def packet_at(model, r_star, roll=0):
    g = Grid(1, (1024,), (4.0,))
    f = wp.build_wavepacket(gaussian_spec(beta=0.1, r_star=r_star, components="+"), model, g)
    return ModalField(g, np.roll(f.values, roll, axis=-1))


def single_packet(model):
    f = packet_at(model, 300.0)
    return f, [(2.0 * full_grid_detection(f, 300.0) * 0.1 ** -0.1, [(240.0, 360.0)], 2.5)]


def two_packet_split(model):
    f1, f2 = packet_at(model, 200.0), packet_at(model, 500.0)
    f = ModalField(f1.grid, f1.values + f2.values)
    floor = min(full_grid_detection(f, 200.0), full_grid_detection(f, 500.0))
    thr = 2.0 * full_grid_detection(f1, 200.0) * 0.1 ** -0.1
    return f, [(thr, [(100.0, 600.0)], 2.5), (1.15 * floor, [(100.0, 600.0)], 2.5)]


def symmetric_at_origin(model):
    f = packet_at(model, 0.0)
    return f, [(2.0 * full_grid_detection(f, 0.0), [(-40.0, 40.0)], 2.5)]


def wrapped_window(model):
    # the carrier at k = 1 sits at node 640: moved to node 0, its support
    # crosses the periodic edge of the grid
    f = packet_at(model, 300.0, roll=-640)
    return f, [(2.0 * full_grid_detection(f, 300.0) * 0.1 ** -0.1, [(240.0, 360.0)], 2.5)]


@pytest.mark.parametrize("case", [single_packet, two_packet_split, symmetric_at_origin, wrapped_window])
def test_locate_position_is_bitwise_the_full_grid_scan(nls_model, case):
    f, searches = case(nls_model)
    for threshold, box, step in searches:
        try:
            want = full_grid_locate(f, threshold, box, step)
        except EmptySublevelSet as err:
            with pytest.raises(EmptySublevelSet, match=re.escape(str(err))):
                wp.locate_position(f, threshold, box, step)
            continue
        got = wp.locate_position(f, threshold, box, step)
        for field in dataclasses.fields(wp.PositionFix):
            assert np.all(getattr(got, field.name) == getattr(want, field.name)), field.name


# -- particle norm ---------------------------------------------------------------------------

def test_particle_norm_fresh_packet_bound(nls_model, grid512):
    beta, eps = 0.1, 0.1
    spec = gaussian_spec(beta=beta, eps=eps, components="+")
    f = wp.build_wavepacket(spec, nls_model, grid512)
    pn = wp.particle_norm([f], [spec.r_star], beta, eps)
    l1 = l1_norm(f)
    c1 = beta ** eps * spec.envelope.l1_grad_khat() / l1_khat(spec.envelope)
    assert l1 <= pn <= (1 + 2.0 * c1) * l1


def test_particle_norm_zero_field(grid512):
    f = ModalField(grid512, np.zeros((2, 512), dtype=complex))
    assert wp.particle_norm([f], [0.0], 0.1, 0.1) == 0.0


def test_particle_norm_translation_invariance(nls_model, grid512):
    beta, eps = 0.1, 0.1
    spec = gaussian_spec(beta=beta, eps=eps)
    f = wp.build_wavepacket(spec, nls_model, grid512)
    base = wp.particle_norm([f], [0.0], beta, eps)
    shift = 37.5
    mesh = grid512.k_mesh()
    shifted = ModalField(grid512, f.values * np.exp(-1j * shift * mesh[0]))
    moved = wp.particle_norm([shifted], [shift], beta, eps)
    assert moved == pytest.approx(base, rel=1e-9)


def sample_stack(shape, nodes, t, seed, zero_fraction=0.3):
    """T random 2-component samples on the wrapped box ``nodes`` (per axis), some nodes zero."""
    rng = np.random.default_rng(seed)
    grid = Grid(len(shape), shape, (3.0,) * len(shape))
    flat = np.ravel_multi_index(np.ix_(*[np.asarray(a) % n for a, n in zip(nodes, shape)]),
                                shape).ravel()
    size = (t, 2, flat.size)
    values = (rng.normal(size=size) + 1j * rng.normal(size=size)) * (rng.random(size) > zero_fraction)
    return wp.FieldSamples(grid, flat, values)


def sample_field(samples, t):
    """Sample t of FieldSamples on the full grid, as a slow-frame ModalField."""
    full = np.zeros((samples.values.shape[1], int(np.prod(samples.grid.shape))), dtype=complex)
    full[:, samples.nodes] = samples.values[t]
    return ModalField(samples.grid, full.reshape((-1,) + samples.grid.shape))


def particle_norm_loop(fields, positions, beta, eps):
    """The per-sample formula on full-grid fields: detection and L1 mass, component by component."""
    total = 0.0
    for f, r in zip(fields, positions):
        total += beta ** (1.0 + eps) * full_grid_detection(f, r) + l1_norm(f)
    return total


@pytest.mark.parametrize("shape, nodes, positions", [
    ((64,), [range(58, 70)], [3.0, -40.0]),                    # a support across the edge
    ((256,), [range(100, 140)], [17.5, 0.0]),
    ((16, 8), [range(13, 20), range(6, 11)], [(1.0, -2.0), (30.0, 4.0)]),  # wrapped on both axes
    ((32, 32), [range(0, 5), range(31, 33)], [(0.0, 0.0), (-5.0, 9.0)]),
])
def test_batched_particle_norms_are_the_per_sample_loop(shape, nodes, positions):
    # FieldSamples of T samples give, bitwise, the norms of the full-grid
    # fields sample by sample; the second component is all zero, and its
    # node set holds zeros of the first
    beta, eps = 0.1, 0.2
    first = sample_stack(shape, nodes, 40, seed=len(shape))
    zero = wp.FieldSamples(first.grid, first.nodes[::3], np.zeros((40, 2, first.nodes[::3].size),
                                                                  dtype=complex))
    positions = [np.atleast_1d(p) for p in positions]
    batched = wp.particle_norm([first, zero], positions, beta, eps)
    loop = [wp.particle_norm([sample_field(first, t), sample_field(zero, t)], positions, beta, eps)
            for t in range(40)]
    want = [particle_norm_loop([sample_field(first, t), sample_field(zero, t)], positions, beta, eps)
            for t in range(40)]
    assert batched.shape == (40,)
    assert batched.tolist() == loop == want
    assert wp.particle_norm([zero], positions[:1], beta, eps).tolist() == [0.0] * 40


def test_particle_norm_of_an_empty_window_is_zero():
    grid = Grid(1, (64,), (3.0,))
    empty = wp.FieldSamples(grid, np.zeros(0, dtype=int), np.zeros((5, 2, 0), dtype=complex))
    assert wp.particle_norm([empty], [np.zeros(1)], 0.1, 0.1).tolist() == [0.0] * 5


def test_batched_particle_norm_holds_no_full_grid_stack():
    # T samples of a 65-node window on 4096 nodes: the batch lives on the
    # window, never as a (T, C, X) complex stack, nor even as one
    # component's (T, X) samples
    t, x = 64, 4096
    samples = sample_stack((x,), [range(2000, 2065)], t, seed=5)
    want = wp.particle_norm([samples], [np.zeros(1)], 0.1, 0.1)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        got = wp.particle_norm([samples], [np.zeros(1)], 0.1, 0.1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got.tolist() == want.tolist()
    assert peak - before < t * x * 16


# -- norms ------------------------------------------------------------------------------------

def test_l1_norm_delta_field(grid512):
    vals = np.zeros((2, 512), dtype=complex)
    vals[0, 100] = 3.0 - 4.0j
    f = ModalField(grid512, vals)
    assert l1_norm(f) == pytest.approx(5.0 * grid512.cell)
    assert l1_norm(f, a=0.0) == l1_norm(f)


def test_weighted_norm_matches_dense_quadrature(nls_model):
    g = Grid(1, (2048,), (4.0,))
    beta = 0.1
    spec = gaussian_spec(beta=beta, components="+")
    f = wp.build_wavepacket(spec, nls_model, g)
    got = l1_norm(f, a=2.0)
    # independent dense quadrature of the closed-form integrand
    kk = np.linspace(-4.0, 4.0, 200001)
    cut = wp.cutoff_profile(np.abs(kk - 1.0) / beta ** 0.9)
    integrand = (1 + np.abs(kk)) ** 2 * np.abs(
        cut * spec.envelope.khat((kk - 1.0) / beta) / beta
    )
    expected = np.trapezoid(integrand, kk)
    assert got == pytest.approx(expected, rel=1e-3)
