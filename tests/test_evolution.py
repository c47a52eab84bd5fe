import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import Phase, assume, event, given, settings
from hypothesis import strategies as st

from wavepax import dispersion as dsp
from wavepax import evolution as ev
from wavepax import interaction as ia
from wavepax import resonance as rs
from wavepax import wavepacket as wp
from wavepax.errors import GridMismatch, PicardDiverged, PicardMaxIter
from wavepax.grids import (
    Grid,
    ModalField,
    crop_spectrum,
    grid_mirror,
    l1_norm,
    l1_norm_values,
    linf_r_norm,
    pad_spectrum,
    to_r_space,
)


def index_of(grid, k):
    """Nearest node index of a wavevector."""
    k = np.atleast_1d(np.asarray(k, dtype=float))
    idx = []
    for a in range(grid.dim):
        j = int(round((k[a] + grid.k_max[a]) / grid.dk[a]))
        if not (0 <= j < grid.n[a]):
            raise ValueError(f"wavevector {k} outside grid")
        idx.append(j)
    return tuple(idx)


def packet(model, grid, beta=0.1, amp=0.2, k_star=1.0, width=0.5):
    spec = wp.WavepacketSpec(
        n=1, k_star=k_star, r_star=0.0, beta=beta, epsilon=0.1,
        envelope=wp.Envelope("gaussian", width, amp),
    )
    return wp.build_wavepacket(spec, model, grid)


# -- convolution kernels --------------------------------------------------------

def test_delta_convolution_value():
    g = Grid(1, (64,), (4.0,))
    chi = ev.quadratic_conjugate(1.0)
    a, b = 1.5 + 0.5j, -0.25 + 2.0j
    f1 = ModalField(g, np.zeros((2, 64), complex))
    f2 = ModalField(g, np.zeros((2, 64), complex))
    f1.values[0, index_of(g, 1.0)[0]] = a
    f2.values[0, index_of(g, 0.5)[0]] = b
    out = ev.apply_nonlinearity([f1, f2], chi)
    idx = index_of(g, 1.5)[0]
    expected = 1j * a * b * g.dk[0] / (2 * np.pi)
    assert out.values[0, idx] == pytest.approx(expected, abs=1e-15)
    rest = np.abs(out.values).sum() - abs(out.values[0, idx]) - abs(out.values[1, idx])
    assert rest <= 1e-15


@pytest.mark.parametrize("chi", [ev.quadratic_conjugate(0.7), ev.cubic_conjugate(1.3),
                                 ev.cubic_full(0.9)])
def test_fft_matches_direct_oracle(chi, rng):
    g = Grid(1, (16,), (2.0,))
    fields = [
        ModalField(g, rng.normal(size=(2, 16)) + 1j * rng.normal(size=(2, 16)))
        for _ in range(chi.order)
    ]
    o_fft = ev.apply_nonlinearity(fields, chi, mode="fft")
    o_dir = ev.apply_nonlinearity(fields, chi, mode="direct-oracle")
    scale = np.abs(o_dir.values).max()
    assert np.abs(o_fft.values - o_dir.values).max() <= 1e-12 * scale


def test_fft_matches_direct_oracle_2d(rng):
    g = Grid(2, (8, 8), (2.0, 2.0))
    chi = ev.quadratic_conjugate(1.1)
    fields = [
        ModalField(g, rng.normal(size=(2, 8, 8)) + 1j * rng.normal(size=(2, 8, 8)))
        for _ in range(2)
    ]
    o_fft = ev.apply_nonlinearity(fields, chi, mode="fft")
    o_dir = ev.apply_nonlinearity(fields, chi, mode="direct-oracle")
    assert np.abs(o_fft.values - o_dir.values).max() <= 1e-12 * np.abs(o_dir.values).max()


def test_callback_susceptibility_direct(rng):
    g = Grid(1, (16,), (2.0,))

    def callback(k, kvecs):
        t = np.zeros((2, 2, 2), dtype=complex)
        t[0, 0, 0] = 1.0 + float(k[0]) ** 2
        return t

    chi = ev.Susceptibility(order=2, callback=callback)
    fields = [
        ModalField(g, rng.normal(size=(2, 16)) + 1j * rng.normal(size=(2, 16)))
        for _ in range(2)
    ]
    out = ev.apply_nonlinearity(fields, chi)
    # brute-force comparison with constant-tensor pieces: chi = t0 + k^2 t1
    t0 = np.zeros((2, 2, 2), complex); t0[0, 0, 0] = 1.0
    base = ev.apply_nonlinearity(fields, ev.Susceptibility(order=2, tensor=t0),
                                 mode="direct-oracle")
    k2 = g.k_axis() ** 2
    expected = base.values.copy()
    expected[0] *= (1 + k2) / 1.0
    assert np.abs(out.values - expected).max() <= 1e-12 * np.abs(expected).max()


@settings(max_examples=30, deadline=None)
@given(
    # the literal-sum oracle is slow: order 4 and 2-d grids only on few nodes
    order_shape=st.sampled_from([(m, (n,)) for m in (2, 3) for n in (8, 16, 32, 64)]
                                + [(4, (8,)), (4, (16,)), (2, (8, 8)), (3, (4, 4))]),
    sharing=st.lists(st.integers(0, 3), min_size=4, max_size=4),
    seed=st.integers(0, 2**32 - 1),
)
def test_grouped_fft_kernel_matches_direct_oracle(order_shape, sharing, seed):
    # random sparse complex tensors; ``sharing`` decides which argument slots
    # hold the same field object (all identical, all distinct, or mixed)
    order, grid_shape = order_shape
    rng = np.random.default_rng(seed)
    g = Grid(len(grid_shape), grid_shape, (2.0,) * len(grid_shape))
    shape = (2,) * (order + 1)
    tensor = (rng.normal(size=shape) + 1j * rng.normal(size=shape)) * (rng.random(shape) < 0.6)
    chi = ev.Susceptibility(order=order, tensor=tensor)
    fshape = (2,) + grid_shape
    pool = [ModalField(g, rng.normal(size=fshape) + 1j * rng.normal(size=fshape))
            for _ in range(4)]
    fields = [pool[t] for t in sharing[:order]]
    o_fft = ev.apply_nonlinearity(fields, chi, mode="fft")
    o_dir = ev.apply_nonlinearity(fields, chi, mode="direct-oracle")
    scale = max(np.abs(o_dir.values).max(), 1e-300)
    assert np.abs(o_fft.values - o_dir.values).max() <= 1e-12 * scale


def gaussian_integers(rng, shape, radius=2):
    return (rng.integers(-radius, radius + 1, shape)
            + 1j * rng.integers(-radius, radius + 1, shape)).astype(complex)


def plain(w):
    """Whether forms ``w`` are plain component reads: one nonzero entry, 1, per row."""
    return np.array_equal(np.abs(w) != 0, w == 1) and (np.count_nonzero(w, axis=1) == 1).all()


@settings(max_examples=30, deadline=None)
@given(
    # (C, order, grid): the literal-sum oracle is slow, so large tensors,
    # order 4 and 2-d grids only on few nodes
    case=st.sampled_from([(2, 2, (16,)), (2, 3, (16,)), (2, 4, (8,)), (2, 3, (4, 4)),
                          (3, 2, (16,)), (3, 3, (8,)), (3, 2, (4, 4)), (4, 2, (8,))]),
    sharing=st.lists(st.integers(0, 2), min_size=4, max_size=4),
    signs=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_rank_deficient_tensors_match_direct_oracle(case, sharing, signs, seed):
    # T = core x_0 A x_1 W_1 ... x_m W_m with small Gaussian-integer factors
    # (or, with ``signs``, factors of entries 0 and +-1), so the tensor is
    # exact: every field is read through 1 to C-1 forms W (one set per
    # distinct field) and the output rows are A-combinations of 1 to C rows.
    # The plan reads through signed forms that it reproduces exactly, or else
    # through plain components
    c, order, grid_shape = case
    rng = np.random.default_rng(seed)
    factor = ((lambda shape: rng.choice([-1, 0, 1], shape, p=[0.4, 0.2, 0.4]).astype(complex))
              if signs
              else (lambda shape: gaussian_integers(rng, shape)))
    keys = sharing[:order]
    forms = {key: factor((int(rng.integers(1, c)), c)) for key in set(keys)}
    out_rows = int(rng.integers(1, c + 1))
    core_shape = (out_rows,) + tuple(len(forms[key]) for key in keys)
    tensor = gaussian_integers(rng, core_shape) * (rng.random(core_shape) < 0.7)
    for axis, w in enumerate([factor((out_rows, c))] + [forms[k] for k in keys]):
        tensor = np.moveaxis(np.tensordot(tensor, w, axes=([axis], [0])), -1, axis)
    assume(tensor.any())
    chi = ev.Susceptibility(order=order, tensor=tensor)
    g = Grid(len(grid_shape), grid_shape, (2.0,) * len(grid_shape))
    pool = [ModalField(g, rng.normal(size=(c,) + grid_shape) + 1j * rng.normal(size=(c,) + grid_shape))
            for _ in range(3)]
    fields = [pool[key] for key in keys]
    o_fft = ev.apply_nonlinearity(fields, chi, mode="fft")
    o_dir = ev.apply_nonlinearity(fields, chi, mode="direct-oracle")
    scale = max(np.abs(o_dir.values).max(), 1e-300)
    assert np.abs(o_fft.values - o_dir.values).max() <= 1e-12 * scale
    distinct = list(dict.fromkeys(keys))
    plan = ev._ConvolutionPlan(g, dict.fromkeys(range(len(distinct))),
                               {0: [(tensor, [distinct.index(k) for k in keys])]})
    event("reduced" if not all(plain(w) for _, w in plan.forms.values()) else "plain")


def test_inexact_reconstruction_falls_back_to_components(rng):
    # argument 1 of T[0] = [[1, -1], [0.1, z]] reads [1, -1] and [0.1, z];
    # both scale to the signed form [1, -1] at z = -0.1 - 2^-56, but -0.1 is
    # not z, so that form does not reproduce the tensor and components are read
    g = Grid(1, (16,), (2.0,))
    for z, reduced in ((-0.1, True), (-0.10000000000000002, False)):
        assert ev._unit_at(np.array([[0.1, z]]), [0])[0, 1] == -1 and (z == -0.1) == reduced
        tensor = np.zeros((2, 2, 2), dtype=complex)
        tensor[0] = [[1.0, -1.0], [0.1, z]]
        plan = ev._ConvolutionPlan(g, {0: None, 1: None}, {0: [(tensor, [0, 1])]})
        pivots, w = plan.forms[1]
        if reduced:
            assert pivots.tolist() == [0] and w.tolist() == [[1, -1]]
        else:
            assert plain(w) and pivots.tolist() == [0, 1]
        fields = [ModalField(g, rng.normal(size=(2, 16)) + 1j * rng.normal(size=(2, 16)))
                  for _ in range(2)]
        chi = ev.Susceptibility(order=2, tensor=tensor)
        o_fft = ev.apply_nonlinearity(fields, chi, mode="fft")
        o_dir = ev.apply_nonlinearity(fields, chi, mode="direct-oracle")
        assert np.abs(o_fft.values - o_dir.values).max() <= 1e-12 * np.abs(o_dir.values).max()


@pytest.mark.parametrize("chi, rows", [(ev.cubic_full(0.9), (1, 1, 1)),
                                       (ev.quadratic_conjugate(0.7), (1, 1, 1)),
                                       (ev.cubic_conjugate(1.3), (2, 2, 2))])
def test_problem_plan_rows(nls_model, chi, rows):
    # (input rows, summed output rows, products): the full nonlinearities read
    # U_+ + U_- through one form and give U_- = -U_+ from one summed row
    g = Grid(1, (64,), (4.0,))
    problem = ev.EvolutionProblem(nls_model, [chi], 0.1, 0.5, g,
                                  ModalField(g, np.zeros((2, 64), complex)))
    plan = ev._problem_plan(problem)
    (factors, coeffs, summed), = plan.outs.values()
    assert (plan._n_in, plan._n_out, len(factors)) == rows and len(summed) == rows[1]
    if rows[0] == 1:
        assert plan.forms["u"][1].tolist() == [[1, 1]]
        assert plan.expand["u"] == [(1, [(0, -1)])]
    else:
        assert plain(plan.forms["u"][1]) and plan.expand["u"] == []


@pytest.mark.parametrize("chi, products", [(ev.cubic_full(0.9), 4), (ev.cubic_conjugate(1.3), 2),
                                           (ev.quadratic_conjugate(0.7), 3)])
def test_permuted_entries_share_one_product(chi, products):
    factors, coeffs = ev._entry_groups([(chi.tensor, [0] * chi.order)])
    assert len(factors) == products and coeffs.shape == (2, products)
    assert np.isclose(coeffs.sum(axis=1), chi.tensor.reshape(2, -1).sum(axis=1)).all()


@pytest.mark.parametrize("shape", [(16,), (8, 4)])
def test_fft_order_pad_and_crop_are_the_shifted_centred_ones(shape, rng):
    grid = Grid(len(shape), shape, (2.0,) * len(shape))
    big = tuple(2 * n for n in shape)
    axes = tuple(range(1, 1 + grid.dim))
    v = rng.normal(size=(3,) + shape) + 1j * rng.normal(size=(3,) + shape)
    padded = pad_spectrum(v, grid, big, centred=False)
    assert np.array_equal(padded, np.fft.ifftshift(pad_spectrum(v, grid, big), axes=axes))
    out = np.zeros_like(padded)
    assert pad_spectrum(v, grid, big, centred=False, out=out) is out
    assert np.array_equal(out, padded)
    assert np.array_equal(crop_spectrum(padded, grid, centred=False), v)


@pytest.mark.parametrize("shape", [(16,), (8, 4)])
def test_crop_into_a_strided_destination_is_the_fresh_crop(shape, rng):
    # the plan crops each key's (C, B, P) rows into the swapped view of its
    # (B, C, n) result
    grid = Grid(len(shape), shape, (2.0,) * len(shape))
    big = tuple(2 * n for n in shape)
    v = rng.normal(size=(3, 5) + shape) + 1j * rng.normal(size=(3, 5) + shape)
    padded = pad_spectrum(v, grid, big, centred=False)
    result = np.full((5, 3) + shape, np.nan, dtype=complex)
    dst = result.swapaxes(0, 1)
    assert not dst.flags.c_contiguous
    assert crop_spectrum(padded, grid, centred=False, out=dst) is dst
    assert np.array_equal(dst, crop_spectrum(padded, grid, centred=False))
    assert np.array_equal(result, v.swapaxes(0, 1))
    assert np.array_equal(crop_spectrum(pad_spectrum(v, grid, big), grid), v)


def centred_plan(plan, nodes, values, conjugates=None):
    """A plan's convolutions on the centred layout: the arithmetic it must reproduce bitwise.

    Each form of ``plan.forms`` is the literal sum of weight times component,
    left to right.  Spectra are zero-padded about the centre
    (``pad_spectrum``) or scattered at centred index + P/2, shifted by
    ``ifftshift`` and inverse-transformed; the products are
    forward-transformed, shifted by ``fftshift`` and cropped
    (``crop_spectrum``) or gathered at the same positions, and every other
    component is the literal sum of ``plan.expand``'s weights times them.

    ``conjugates`` maps keys to partner keys, as the plan's.  A key that is
    its own partner is given by its + components (2n in row n) and returns
    them, 0 at the lone nodes (index 0 on some axis); a key with another
    partner is given by none.  A form of such a key that reads a component
    not given is the literal ``np.conj`` of its source's r-space row: the
    form of the partner whose weights, conjugated under 2n <-> 2n+1, are its
    own.
    """
    conjugates = conjugates or {}
    half = {key for key, partner in conjugates.items() if key == partner}
    grid, tg = plan.grid, plan.tgrid
    axes = tuple(range(2, 2 + grid.dim))
    x = int(np.prod(tg.shape))
    p = np.array(tg.shape)[:, None]
    position = {}
    for key, idx in nodes.items():
        if idx is not None:
            c = np.array(np.unravel_index(idx, grid.shape)) - np.array(grid.n)[:, None] // 2
            position[key] = np.ravel_multi_index(tuple((c + p // 2) % p), tg.shape)
    b = next(iter(values.values())).shape[0]

    def literal_sum(terms):
        total = None
        for a, v in terms:
            total = v * a if total is None else total + v * a
        return total

    def given(key, c):
        # the row of values[key] that holds component c, or None
        if key in half:
            return None if c % 2 else c // 2
        return None if key in conjugates else c

    def literal_rows(key, w):
        # the (B, F, X) r-space rows of forms ``w`` on key's given components
        v = np.stack([literal_sum([(a, values[key][:, given(key, c)])
                                   for c, a in enumerate(form) if a != 0]) for form in w], axis=1)
        if key in position:
            small = np.zeros((b, len(w), x), dtype=complex)
            small[..., position[key]] = v
            small = small.reshape((b, len(w)) + tg.shape)
        else:
            small = pad_spectrum(v, grid, tg.shape)
        r = (1.0 / np.prod(tg.dr)) * np.fft.ifftn(np.fft.ifftshift(small, axes=axes), axes=axes)
        return r.reshape(b, len(w), x)

    r_args = {}
    for key, (pivots, w) in plan.forms.items():
        read = np.array([all(given(key, c) is not None for c in np.flatnonzero(form))
                         for form in w], dtype=bool)
        if read.any():
            r = literal_rows(key, w[read])
            r_args.update(((key, p), r[:, i]) for i, p in enumerate(pivots[read]))
        for p, form in zip(pivots[~read], w[~read]):
            source = form[np.arange(form.size) ^ 1].conj()
            r_args[(key, p)] = np.conj(literal_rows(conjugates[key], source[None])[:, 0])
    out = {}
    for key, (factors, coeffs, rows) in plan.outs.items():
        prods = np.empty((b, len(factors), x), dtype=complex)
        for g, fac in enumerate(factors):
            # the literal left fold ((f0 f1) f2) ... of each product
            prods[:, g] = r_args[fac[0]] * r_args[fac[1]]
            for f in fac[2:]:
                prods[:, g] = prods[:, g] * r_args[f]
        out_r = np.matmul(coeffs, prods)
        out_r = out_r.reshape((b, len(rows)) + tg.shape)
        spec = np.prod(tg.dr) * np.fft.fftshift(np.fft.fftn(out_r, axes=axes), axes=axes)
        if key in position:
            vals = spec.reshape(b, len(rows), x)[..., position[key]]
        else:
            vals = crop_spectrum(spec, grid)
        out[key] = np.zeros((b, plan.ncomp) + vals.shape[2:], dtype=complex)
        out[key][:, rows] = vals
        for c, sums in plan.expand[key]:
            if sums:
                out[key][:, c] = literal_sum([(a, vals[:, j]) for j, a in sums])
        if key in half:
            out[key] = out[key][:, 0::2]
            for axis in range(grid.dim):
                out[key][(slice(None),) * (2 + axis) + (0,)] = 0.0
    return out


def slab_bytes(plan) -> int:
    """Bytes of one batch row of a plan's slab: its argument, sum and product rows."""
    rows = plan._n_in + plan._n_out + sum(len(factors) for factors in plan._lists)
    return rows * math.prod(plan.tgrid.shape) * 16


def slabbed_plan(grid, nodes, terms, slab_rows=None, conjugates=None):
    """A plan with the module's slab size, or with ``_SLAB_BYTES`` set to ``slab_rows`` rows."""
    plan = ev._ConvolutionPlan(grid, nodes, terms, conjugates)
    if slab_rows is None or not plan.outs:
        return plan
    with mock.patch.object(ev, "_SLAB_BYTES", slab_rows * slab_bytes(plan)):
        plan = ev._ConvolutionPlan(grid, nodes, terms, conjugates)
    assert plan._slab == slab_rows
    return plan


# Each plan test below runs twice: with the module's slab size, and as
# ``..._in_slabs`` with slabs of 1-4 rows, so batches span several slabs,
# end in a short one or are smaller than one.
SLAB_ROWS = st.integers(1, 4)


def fft_order_plan_case(dim, order, windowed, seed, slab_rows, make_tensor=None):
    # whole-grid keys are placed and gathered in 2^dim blocks, window keys at
    # their slots; the reused input buffers must hold no stale values, so a
    # long chunk is followed by a short one and a long one with new values.
    # ``make_tensor(rng)`` replaces the random dense tensors.
    rng = np.random.default_rng(seed)
    grid = Grid(dim, (16,) if dim == 1 else (8, 8), (2.0,) * dim)

    def tensor():
        if make_tensor is not None:
            return make_tensor(rng)
        shape = (2,) * (order + 1)
        return (rng.normal(size=shape) + 1j * rng.normal(size=shape)) * (rng.random(shape) < 0.6)

    if windowed:
        nodes, terms = {}, {}
        for key in ("a", "b"):
            lo = rng.integers(0, grid.n[0] // 2, size=dim)
            width = rng.integers(1, grid.n[0] // 2 + 1, size=dim)
            box = np.meshgrid(*(np.arange(l, l + w) for l, w in zip(lo, width)), indexing="ij")
            nodes[key] = np.ravel_multi_index(tuple(box), grid.shape).ravel()
        for key in nodes:
            terms[key] = [(tensor(), list(rng.choice(["a", "b"], size=order)))]
        shapes = {key: (idx.size,) for key, idx in nodes.items()}
    else:
        nodes, terms, shapes = {"u": None}, {"u": [(tensor(), ["u"] * order)]}, {"u": grid.shape}
    plan = slabbed_plan(grid, nodes, terms, slab_rows)
    for b in (5, 3, 5):
        values = {key: rng.normal(size=(b, 2) + sh) + 1j * rng.normal(size=(b, 2) + sh)
                  for key, sh in shapes.items()}
        got, want = plan(values), centred_plan(plan, nodes, values)
        assert got.keys() == want.keys()
        assert all(np.array_equal(got[key], want[key]) for key in want)
    return plan


@pytest.mark.parametrize("windowed", [False, True], ids=["whole", "windows"])
@pytest.mark.parametrize("order", [2, 3, 4])
@pytest.mark.parametrize("dim", [1, 2])
@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_fft_order_plan_is_bitwise_the_centred_plan(dim, order, windowed, seed):
    fft_order_plan_case(dim, order, windowed, seed, None)


@pytest.mark.parametrize("windowed", [False, True], ids=["whole", "windows"])
@pytest.mark.parametrize("order", [2, 3, 4])
@pytest.mark.parametrize("dim", [1, 2])
@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), slab_rows=SLAB_ROWS)
def test_fft_order_plan_is_bitwise_the_centred_plan_in_slabs(dim, order, windowed, seed,
                                                              slab_rows):
    fft_order_plan_case(dim, order, windowed, seed, slab_rows)


def signed_rank_one_tensor(rng, order=3):
    """x A (x) W (x) ... (x) W with signs A = [1, a] and W = [1, w], x complex normal.

    The plan reads U_+ + w U_- and sums one row, U_- being a U_+: the four
    sign patterns take every copy, negation, addition and subtraction.
    """
    a, w = rng.choice([1, -1], size=2)
    tensor = complex(*rng.normal(size=2)) * np.array([1, a], dtype=complex)
    for _ in range(order):
        tensor = np.multiply.outer(tensor, np.array([1, w]))
    return tensor


RANK_ONE = {"cubic_full": (3, lambda rng: ev.cubic_full(0.9).tensor),
            "quadratic_conjugate": (2, lambda rng: ev.quadratic_conjugate(0.7).tensor),
            "signed": (3, signed_rank_one_tensor)}


@pytest.mark.parametrize("windowed", [False, True], ids=["whole", "windows"])
@pytest.mark.parametrize("case", RANK_ONE)
@pytest.mark.parametrize("dim", [1, 2])
@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), slab_rows=st.one_of(st.none(), SLAB_ROWS))
def test_reduced_plan_is_bitwise_the_centred_plan(dim, case, windowed, seed, slab_rows):
    # one form per key in and one summed row per key out (one tensor for
    # every term); a window form goes through the plan's scratch array
    order, make_tensor = RANK_ONE[case]
    tensor = make_tensor(np.random.default_rng(seed))
    plan = fft_order_plan_case(dim, order, windowed, seed, slab_rows, lambda rng: tensor)
    assert all(len(w) == 1 for _, w in plan.forms.values())
    assert all(len(rows) == 1 for _, _, rows in plan.outs.values())


def averaging_like_layout(rng, below=4, above=4, scalar=False):
    """Windows of the interaction systems on two carriers +-k: (l, theta) at theta k_l.

    Each window holds two components on the ``below`` nodes under its centre,
    the centre and the ``above`` nodes over it (9 nodes by default), and each
    output window takes the cubic terms that land on it, two arguments from
    its centre and one from the other, with dense random tensors.  Products
    span 3 ``below`` and 3 ``above`` nodes around the output centre, so the
    plan needs max(3 above + below, 3 below + above) + 1 transform nodes.
    With ``scalar``, as on a scalar model, a window forms only its own band's
    component (0 at theta = +1): one output row per key.
    """
    reach = 3 * max(below, above) + 1
    n = max(64, 1 << (2 * reach - 1).bit_length())
    offset = 2 * max(below, above)  # from the grid's centre: 8 nodes by default
    grid = Grid(1, (n,), (4.0,))
    centre = {(1, +1): n // 2 + offset, (2, -1): n // 2 + offset,
              (1, -1): n // 2 - offset, (2, +1): n // 2 - offset}
    nodes = {key: np.arange(i - below, i + above + 1) for key, i in centre.items()}
    terms = {}
    for key in nodes:
        same = [a for a in nodes if centre[a] == centre[key]]
        other = [a for a in nodes if centre[a] != centre[key]]
        terms[key] = [(rng.normal(size=(2,) * 4) + 1j * rng.normal(size=(2,) * 4), [a, b, c])
                      for a in same for b in same for c in other]
        if scalar:
            for tensor, _ in terms[key]:
                tensor[int(key[1] > 0)] = 0.0
    return grid, nodes, terms


def plan_values(rng, nodes, grid, b):
    shapes = {key: grid.shape if idx is None else (idx.size,) for key, idx in nodes.items()}
    return {key: rng.normal(size=(b, 2) + sh) + 1j * rng.normal(size=(b, 2) + sh)
            for key, sh in shapes.items()}


def test_second_plan_call_allocates_no_products_array():
    # every call of a plan overwrites its kept buffer and products arrays, so
    # a second call on the same shapes allocates no block as large as one
    # products array on the windows, and on the whole grid, where shared
    # prefixes are formed in place, none as large as one (B, X) r-space
    # array besides its result.  (B, X) exceeds the three operand buffers of
    # at most 8192 elements that numpy's ufunc iterator takes for strided
    # operands.
    rng = np.random.default_rng(3)
    windows = averaging_like_layout(rng)
    whole = Grid(1, (1024,), (4.0,)), {"u": None}, {"u": [(ev.cubic_full(0.9).tensor, ["u"] * 3)]}
    for grid, nodes, terms in (windows, whole):
        plan = ev._ConvolutionPlan(grid, nodes, terms)
        b, x = (8 if nodes is windows[1] else 32), int(np.prod(plan.tgrid.shape))
        values = plan_values(rng, nodes, grid, b)
        first = plan(values)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            second = plan(values)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert all(np.array_equal(first[key], second[key]) for key in first)
        if nodes is windows[1]:
            products_bytes = min(b * len(factors) * x * 16 for factors, _, _ in plan.outs.values())
            assert peak - before < products_bytes
        else:
            # the (B, C, n) result is itself as large as one (B, X) array
            assert b * x * 16 > 3 * 8192 * 16
            assert peak - before - sum(v.nbytes for v in second.values()) < b * x * 16


@pytest.mark.parametrize("layout", ["whole", "windows"])
def test_plan_keeps_one_slab_of_products(layout):
    # a batch of four slabs is multiplied and summed slab by slab: the kept
    # products arrays (what the first call keeps beyond its stacked buffer
    # and its result, once numpy's transform caches are warm) hold at most
    # one slab's rows, and the second call allocates none of them again
    rng = np.random.default_rng(5)
    if layout == "windows":
        grid, nodes, terms = averaging_like_layout(rng)
    else:
        grid, nodes = Grid(1, (1024,), (4.0,)), {"u": None}
        terms = {"u": [(ev.cubic_full(0.9).tensor, ["u"] * 3)]}
    ev._ConvolutionPlan(grid, nodes, terms)(plan_values(rng, nodes, grid, 1))
    plan = ev._ConvolutionPlan(grid, nodes, terms)
    x = math.prod(plan.tgrid.shape)
    products_row = sum(len(factors) for factors in plan._lists) * x * 16
    assert 1 < plan._slab == ev._SLAB_BYTES // slab_bytes(plan)
    b = 4 * plan._slab
    values = plan_values(rng, nodes, grid, b)
    buffer_bytes = max(plan._n_in, plan._n_out) * b * x * 16
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        first = plan(values)
        kept = tracemalloc.get_traced_memory()[0] - before - sum(v.nbytes for v in first.values())
        before = tracemalloc.get_traced_memory()[0]
        second = plan(values)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(np.array_equal(first[key], second[key]) for key in first)
    # one more products row leaves room for the arrays' Python objects;
    # (B, G, X) arrays would hold four slabs' rows
    assert plan._slab * products_row <= ev._SLAB_BYTES
    assert kept - buffer_bytes < (plan._slab + 1) * products_row
    assert peak - before - sum(v.nbytes for v in second.values()) < plan._slab * products_row


def test_plan_call_makes_one_transform_pair(monkeypatch):
    # every key's rows go through one inverse and one forward transform: the
    # forms in, the summed rows out.  Dense window tensors read both
    # components of each window as they are; the scalar windows of a scalar
    # model keep plain component reads too, and sum one row; cubic_full on
    # the whole grid reads one form and sums one row
    rng = np.random.default_rng(4)
    cases = [(averaging_like_layout(rng), 8, 8), (averaging_like_layout(rng, scalar=True), 8, 4),
             ((Grid(1, (64,), (4.0,)), {"u": None}, {"u": [(ev.cubic_full(0.9).tensor, ["u"] * 3)]}),
              1, 1)]
    calls = []
    for name in ("spectrum_to_samples", "samples_to_spectrum"):
        def counted(values, *args, name=name, inner=getattr(ev, name), **kwargs):
            calls.append((name, values.shape[0]))
            return inner(values, *args, **kwargs)

        monkeypatch.setattr(ev, name, counted)
    for (grid, nodes, terms), rows_in, rows_out in cases:
        plan = ev._ConvolutionPlan(grid, nodes, terms)
        if rows_in > 1:
            assert all(plain(w) for _, w in plan.forms.values())
        for b in (6, 3):
            calls.clear()
            plan(plan_values(rng, nodes, grid, b))
            assert sorted(calls) == [("samples_to_spectrum", rows_out),
                                     ("spectrum_to_samples", rows_in)]


@pytest.mark.parametrize("factors, multiplies", [
    ([("a", "b", "c"), ("a", "b", "d"), ("a", "e")], 4),        # (a b) once
    ([("a", "b"), ("a", "b", "c"), ("a", "b", "c", "d")], 3),   # each product a prefix of the next
    ([("a", "b", "c"), ("d", "e")], 3),                         # nothing shared
])
def test_product_schedule_is_the_left_fold(factors, multiplies):
    # symbols for factors: every product must come out as its left fold,
    # and every distinct prefix is multiplied once over both lists
    lists = [factors, factors[::-1]]
    rows = sorted({f for fac in factors for f in fac})
    slots = [[None] * len(fl) for fl in lists]
    steps = ev._product_schedule([[tuple(rows.index(f) for f in fac) for fac in fl]
                                  for fl in lists])
    for left, right, (j, g) in steps:
        value = rows[left] if isinstance(left, int) else slots[left[0]][left[1]]
        slots[j][g] = value if right is None else f"({value} {rows[right]})"
    for fl, got in zip(lists, slots):
        for fac, value in zip(fl, got):
            fold = fac[0]
            for f in fac[1:]:
                fold = f"({fold} {f})"
            assert value == fold
    assert sum(right is not None for _, right, _ in steps) == multiplies


def scheduled_plan_case(seed, half, b1, data, slab_rows):
    # quadratic and cubic terms, so quadratic products are prefixes of cubic
    # ones; windows "a" and "b" of unequal sizes around the centre, so no
    # product misses them and their identical factor patterns give one
    # shared list; a whole-grid key "u" whose own list repeats the (a, b)
    # products; batches B1, B2 < B1 and B3 > B1
    rng = np.random.default_rng(seed)
    grid = Grid(1, (32,), (2.0,))
    wa, wb = half[0], half[0] + half[1]
    nodes = {"a": np.arange(16 - wa, 17 + wa), "b": np.arange(16 - wb, 17 + wb), "u": None}

    def tensor(order):
        shape = (2,) * (order + 1)
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    window_terms = lambda: [(tensor(2), ["a", "b"]), (tensor(3), ["a", "b", "u"])]
    terms = {"a": window_terms(), "b": window_terms(),
             "u": [(tensor(2), ["a", "b"]), (tensor(2), ["u", "a"]), (tensor(3), ["u", "u", "u"])]}
    plan = slabbed_plan(grid, nodes, terms, slab_rows)
    assert plan.outs["a"][0] == plan.outs["b"][0] and len(plan._lists) == 2
    assert any(right is None for _, right, _ in plan._steps)  # a product copied across lists
    products = [fac for fl in plan._lists for fac in fl]
    assert any(p == q[:2] for p in products for q in products if len(p) == 2 < len(q))
    held = None
    for b in (b1, data.draw(st.integers(1, b1 - 1)), data.draw(st.integers(b1 + 1, 2 * b1))):
        values = plan_values(rng, nodes, grid, b)
        got, want = plan(values), centred_plan(plan, nodes, values)
        assert got.keys() == want.keys() == {"a", "b", "u"}
        assert all(np.array_equal(got[key], want[key]) for key in want)
        if held is None:
            held, kept = got, {key: v.copy() for key, v in got.items()}
    assert all(np.array_equal(held[key], kept[key]) for key in kept)


SCHEDULED = dict(seed=st.integers(0, 2**32 - 1),
                 half=st.tuples(st.integers(0, 3), st.integers(1, 3)),
                 b1=st.integers(2, 6), data=st.data())


@settings(max_examples=15, deadline=None)
@given(**SCHEDULED)
def test_scheduled_stacked_plan_is_bitwise_the_oracle(seed, half, b1, data):
    scheduled_plan_case(seed, half, b1, data, None)


@settings(max_examples=15, deadline=None)
@given(**SCHEDULED, slab_rows=SLAB_ROWS)
def test_scheduled_stacked_plan_is_bitwise_the_oracle_in_slabs(seed, half, b1, data, slab_rows):
    scheduled_plan_case(seed, half, b1, data, slab_rows)


# (transform size, window half-width h) of each layout of the repeated-call
# tests: the whole grid of 32 nodes at order 3 and of 2048 nodes at order 2
# (3n/2 = 3 * 2^10); windows of 2h + 1 nodes need 4h + 1 nodes, and the
# 129-node windows form one component each, as in the averaging config
LAYOUTS = {"whole": (64, None), "windows": (24, 4), "whole-3072": (3072, None),
           "windows-72": (72, 17), "windows-96": (96, 20), "windows-288": (288, 64)}


def repeated_plan_case(layout, seed, b1, data, slab_rows):
    # batches B1, B2 < B1 and B3 > B1 through one plan: each result is a fresh
    # plan's (of the module's slab size) and the oracle's, and a result held
    # from the first call is never overwritten
    rng = np.random.default_rng(seed)
    size, half = LAYOUTS[layout]
    if half:
        grid, nodes, terms = averaging_like_layout(rng, half, half, scalar=half == 64)
    elif size == 64:
        grid, nodes = Grid(1, (32,), (2.0,)), {"u": None}
        terms = {"u": [(ev.cubic_full(0.9).tensor, ["u"] * 3)]}
    else:
        grid, nodes = Grid(1, (2048,), (2.0,)), {"u": None}
        terms = {"u": [(ev.quadratic_conjugate(0.7).tensor, ["u"] * 2)]}
    plan = slabbed_plan(grid, nodes, terms, slab_rows)
    assert plan.tgrid.shape == (size,)
    held = None
    for b in (b1, data.draw(st.integers(1, b1 - 1)), data.draw(st.integers(b1 + 1, 2 * b1))):
        values = plan_values(rng, nodes, grid, b)
        got = plan(values)
        for want in (ev._ConvolutionPlan(grid, nodes, terms)(values),
                     centred_plan(plan, nodes, values)):
            assert got.keys() == want.keys()
            assert all(np.array_equal(got[key], want[key]) for key in want)
        if held is None:
            held, kept = got, {key: v.copy() for key, v in got.items()}
    assert all(np.array_equal(held[key], kept[key]) for key in kept)


REPEATED = dict(seed=st.integers(0, 2**32 - 1), b1=st.integers(2, 6), data=st.data())


@pytest.mark.parametrize("layout", LAYOUTS)
@settings(max_examples=10, deadline=None)
@given(**REPEATED)
def test_plan_results_do_not_depend_on_earlier_calls(layout, seed, b1, data):
    repeated_plan_case(layout, seed, b1, data, None)


@pytest.mark.parametrize("layout", LAYOUTS)
@settings(max_examples=10, deadline=None)
@given(**REPEATED, slab_rows=SLAB_ROWS)
def test_plan_results_do_not_depend_on_earlier_calls_in_slabs(layout, seed, b1, data, slab_rows):
    repeated_plan_case(layout, seed, b1, data, slab_rows)


def scalar_window_plans_match_the_centred_plan():
    """Scalar windows needing 35 and 300 nodes: plans of 48 and 384 nodes are bitwise the oracle.

    A rule taking every 3-smooth multiple of 4 would give 36 and 324 nodes,
    where OpenBLAS at 2 threads sums a one-row flat ``matmul`` unlike the
    oracle's batched one.
    """
    rng = np.random.default_rng(7)
    for (below, above), size in (((1, 11), 48), ((2, 99), 384)):
        grid, nodes, terms = averaging_like_layout(rng, below, above, scalar=True)
        for slab_rows in (None, 3):
            plan = slabbed_plan(grid, nodes, terms, slab_rows)
            assert all(len(rows) == 1 for _, _, rows in plan.outs.values())
            for b in range(1, 9):
                values = plan_values(rng, nodes, grid, b)
                got, want = plan(values), centred_plan(plan, nodes, values)
                assert all(np.array_equal(got[key], want[key]) for key in want), (plan.tgrid, b)
            assert plan.tgrid.shape == (size,)


def test_window_plans_are_bitwise_the_centred_plan_at_two_blas_threads():
    # OpenBLAS reads its thread count once, at load: a fresh interpreter.
    # (It runs one thread on a one-core machine, where this cannot fail.)
    paths = [str(Path(__file__).parent), str(Path(ev.__file__).parents[1])]
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "2",
           "PYTHONPATH": os.pathsep.join(paths + [os.environ.get("PYTHONPATH", "")])}
    code = "import test_evolution as t; t.scalar_window_plans_match_the_centred_plan()"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=600)
    assert proc.returncode == 0, proc.stderr


# -- conjugated rows ----------------------------------------------------------------

@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), slab_rows=st.one_of(st.none(), SLAB_ROWS))
def test_conjugated_window_rows_are_bitwise_the_centred_plan(seed, slab_rows):
    # the half-state windows: each (l, -1) window is the node-reversed
    # mirror of (l, +1), only the (l, +1) windows form outputs and are given,
    # and every form of an (l, -1) window is a conjugated (l, +1) row
    rng = np.random.default_rng(seed)
    grid, nodes, terms = averaging_like_layout(rng)
    conjugates = {(1, -1): (1, +1), (2, -1): (2, +1)}
    for minus, plus in conjugates.items():
        assert np.array_equal(nodes[minus], np.sort(-nodes[plus] % grid.n[0]))
        del terms[minus]
    plan = slabbed_plan(grid, nodes, terms, slab_rows, conjugates)
    assert set(plan.forms) == set(nodes) and set(plan.outs) == set(terms)
    given = {key: idx for key, idx in nodes.items() if key not in conjugates}
    for b in (5, 3, 5):
        values = plan_values(rng, given, grid, b)
        got, want = plan(values), centred_plan(plan, nodes, values, conjugates)
        assert got.keys() == want.keys()
        assert all(np.array_equal(got[key], want[key]) for key in want)


@settings(max_examples=30, deadline=None)
@given(
    chi=st.sampled_from(["cubic_conjugate", "random"]),
    shape=st.sampled_from([(16,), (32,), (8, 8)]),
    c=st.sampled_from([2, 4]),
    order=st.sampled_from([2, 3]),
    seed=st.integers(0, 2**32 - 1),
)
def test_conjugated_grid_rows_are_bitwise_the_centred_plan(chi, shape, c, order, seed):
    # the whole-grid plan of a conjugation-symmetric problem takes and
    # returns + components: a - form is its + source's row conjugated, and
    # the lone output nodes are 0.  Real forms run real transforms, which
    # this oracle does not model
    rng = np.random.default_rng(seed)
    grid = Grid(len(shape), shape, (2.0,) * len(shape))
    model = (dsp.scalar_band_model([lambda k: (k ** 2).sum(axis=0) + 1.0] * (c // 2), dim=2)
             if grid.dim == 2 else reduction_model("nls1d" if c == 2 else "twoband"))
    susc = (ev.cubic_conjugate(1.0, c // 2) if chi == "cubic_conjugate"
            else ev.Susceptibility(order, symmetric_tensor(rng, order, c)))
    initial = ModalField(grid, symmetric_values(rng, grid, c).reshape((c,) + shape))
    problem = ev.EvolutionProblem(model, [susc], 0.1, 0.2, grid, initial)
    assume(ev._conjugate_mirror(problem, ev.SolverConfig()) is not None)
    plan = ev._problem_plan(problem, conjugate=True)
    event("no products" if not plan.outs else "real forms" if plan.real else "complex forms")
    assume(plan.outs and not plan.real)
    # every - form has its source among the forms: plain forms read every component
    pivots, w = plan.forms["u"]
    assume(all(np.any((w == form[np.arange(c) ^ 1].conj()).all(axis=1)) for form in w))
    for b in (5, 3, 5):
        v = rng.normal(size=(b, c // 2) + shape) + 1j * rng.normal(size=(b, c // 2) + shape)
        got = plan({"u": v})["u"]
        assert np.array_equal(got, centred_plan(plan, {"u": None}, {"u": v}, {"u": "u"})["u"])


def two_band_matrix_model():
    return dsp.matrix_symbol_model(
        lambda k: np.array([[k * k + 6.0, 0.3], [0.3, -(k * k) - 6.0]]), j_bands=1)


@settings(max_examples=40, deadline=None)
@given(
    rho=st.floats(1e-3, 1.0),
    h=st.floats(1e-5, 0.05),
    i0=st.integers(0, 10_000),
    b=st.integers(1, 64),
    matrix=st.booleans(),
    nodes=st.one_of(st.none(), st.lists(st.integers(0, 63), min_size=1, max_size=64, unique=True)),
    comps=st.sampled_from([None, [0], [1], [0, 1]]),
)
def test_opposite_phases_are_bitwise_conjugate(rho, h, i0, b, matrix, nodes, comps):
    # every map back rotates by the conjugate of the e^{-i tau L/rho} factors;
    # that is the e^{+i tau L/rho} map only if conj(exp(-ix)) == exp(+ix) bitwise
    if matrix:
        model = two_band_matrix_model()
    else:
        model = dsp.model_from_config({"preset": "nls1d", "params": {"a2": 1.3, "a0": 0.7}})
    tables = ev.PropagatorTables(model, Grid(1, (64,), (4.0,)), rho)
    taus = h * np.arange(i0, i0 + b)
    nodes = None if nodes is None else np.array(nodes)
    # the e^{+...} factors as ``PropagatorTables.phases`` formed them with sign +1
    sign = +1
    omega = tables.omega_flat if nodes is None else tables.omega_flat[:, nodes]
    if tables.basis_flat is None and comps is not None:
        omega = omega[comps]
    plus = np.exp((sign * 1j / rho) * taus[:, None, None] * omega[None])
    assert np.array_equal(np.conj(tables.phases(taus, nodes, comps)), plus)


@settings(max_examples=40, deadline=None)
@given(
    rho=st.floats(0.01, 1.0),
    tau_star=st.floats(0.05, 0.5),
    n_steps=st.integers(16, 200),
    chunk=st.integers(2, 64),
)
def test_factored_phase_table_matches_direct_exp(rho, tau_star, n_steps, chunk):
    model = dsp.model_from_config({"preset": "nls1d", "params": {"a2": 1.0, "a0": 1.0}})
    tables = ev.PropagatorTables(model, Grid(1, (32,), (2.0,)), rho)
    h = tau_star / n_steps
    taus = h * np.arange(n_steps + 1)
    direct = np.exp((-1j / rho) * taus[:, None, None] * tables.omega_flat[None])
    got = np.empty_like(direct)
    for i0 in range(0, n_steps + 1, chunk):
        i1 = min(i0 + chunk, n_steps + 1)  # the last chunk is usually shorter
        got[i0:i1] = tables.chunk_phases(taus[i0], h, i1 - i0)
        if i0 == 0:
            table = tables._step_table
        assert tables._step_table is table  # one table per mesh step
    assert np.abs(got - direct).max() <= 1e-12


# The frame map of ``_slow_rhs_chunk`` before it had one path: a scalar symbol
# multiplied by the factored chunk phases and their conjugate in place, a
# matrix symbol went through ``apply`` with a direct exponential of either sign.

def parent_apply(tables, values, taus, sign):
    b, c = values.shape[0], values.shape[1]
    flat = values.reshape(b, c, -1)
    phases = np.exp((sign * 1j / tables.rho) * taus[:, None, None] * tables.omega_flat[None])
    coeff = np.einsum("xac,bax->bcx", tables.basis_flat.conj(), flat)
    out = np.einsum("xac,bcx->bax", tables.basis_flat, coeff * phases)
    return out.reshape((b, out.shape[1]) + values.shape[2:])


def parent_slow_rhs_chunk(values, taus, h, problem, tables, plan, mode):
    scalar = tables.basis_flat is None
    if scalar:
        phases = tables.chunk_phases(taus[0], h, values.shape[0]).reshape(values.shape)
        fast = values * phases
    else:
        fast = parent_apply(tables, values, taus, -1)
    out = plan({"u": fast})["u"] if mode == "fft" and plan.outs else np.zeros_like(values)
    for susc in problem.nonlinearity:
        if mode == "direct-oracle" or susc.callback is not None:
            for b in range(values.shape[0]):
                out[b] += ev._chi_direct([fast[b]] * susc.order, susc, problem.grid)
    if scalar:
        out *= np.conj(phases, out=phases)
        return out
    return parent_apply(tables, out, taus, +1)


@settings(max_examples=60, deadline=None)
@given(
    rho=st.floats(0.05, 1.0),
    h=st.floats(1e-4, 0.005),
    i0=st.integers(0, 100),
    b=st.integers(1, 8),
    matrix=st.booleans(),
    susc=st.sampled_from(["cubic_full", "quadratic", "callback"]),
    mode=st.sampled_from(["fft", "direct-oracle"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_slow_rhs_chunk_has_one_frame_map(rho, h, i0, b, matrix, susc, mode, seed):
    # one path for both symbol kinds: bitwise the parent's on a scalar symbol,
    # and within rounding of its direct exponentials on a matrix symbol
    rng = np.random.default_rng(seed)
    model = two_band_matrix_model() if matrix else dsp.model_from_config(
        {"preset": "nls1d", "params": {"a2": 1.0, "a0": 1.0}})
    grid = Grid(1, (16,), (2.0,))
    chi = {"cubic_full": ev.cubic_full(0.8), "quadratic": ev.quadratic_conjugate(1.1),
           "callback": ev.Susceptibility(order=2, callback=lambda k, kvecs: np.full((2,) * 3, 0.4j))}
    values = rng.normal(size=(b, 2, 16)) + 1j * rng.normal(size=(b, 2, 16))
    problem = ev.EvolutionProblem(model, [chi[susc]], rho, 1.0, grid, ModalField(grid, values[0]))
    taus = i0 * h + h * np.arange(b)
    got, want = (
        rhs(values, taus, h, problem, ev.PropagatorTables(model, grid, rho),
            ev._problem_plan(problem), mode)
        for rhs in (ev._slow_rhs_chunk, parent_slow_rhs_chunk)
    )
    if matrix:
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
    else:
        assert np.array_equal(got, want)


def test_trapezoid_chunk_matches_cumsum(rng):
    # the node-by-node running sum adds in the order of np.cumsum
    g = rng.normal(size=(65, 2, 64)) + 1j * rng.normal(size=(65, 2, 64))
    g_prev, integral, h0 = (rng.normal(size=(2, 64)) + 1j * rng.normal(size=(2, 64))
                            for _ in range(3))
    h = 0.013
    steps = np.concatenate([integral[None], (g_prev + g[0])[None], g[:-1] + g[1:]])
    steps[1:] *= 0.5 * h
    cum = np.cumsum(steps, axis=0)
    out = np.empty_like(g)
    last = ev._trapezoid_chunk(out, h0, integral, g_prev, g, h)
    assert np.array_equal(out, h0 + cum[1:]) and np.array_equal(last, cum[-1])


# -- the Picard-trapezoid driver ---------------------------------------------------------

def segments_of(widths):
    """Consecutive slices of a node axis, one per width."""
    edges = np.cumsum([0, *widths])
    return [slice(int(a), int(b)) for a, b in zip(edges[:-1], edges[1:])]


def by_rows(rhs):
    """The driver's ``rhs_chunk(values, taus, rows)`` of an ``rhs(values, taus)`` on chunks."""
    return lambda values, taus, rows: rhs(values[rows], taus[rows])


def linear_solve(a, u0, tau, n, chunk, rhs=None, segments=(slice(None),), **config):
    """Driver solve of u' = a u on the (C, nodes) start ``u0``; ``a`` is a scalar or per node."""
    def linear(values, taus):
        return a * values

    return ev._picard_trapezoid(by_rows(rhs or linear), u0, n, tau / n, 1.0,
                                ev.SolverConfig(**config), chunk, None, segments)


def trapezoid_oracle(a, u0, tau, n):
    """Exact composite-trapezoid fixed point u_j = ((1 + a h/2) / (1 - a h/2))^j u_0."""
    h = tau / n
    r = (1 + a * h / 2) / (1 - a * h / 2)
    return r ** np.arange(n + 1)[:, None, None] * u0


@pytest.mark.filterwarnings("error")
@settings(max_examples=40, deadline=None)
@given(
    a=st.tuples(st.complex_numbers(max_magnitude=1.0), st.complex_numbers(max_magnitude=1.0)),
    tau=st.floats(0.1, 1.0),
    n=st.integers(1, 150),
    chunk=st.integers(1, 64),
    seed=st.integers(0, 2**32 - 1),
)
def test_picard_trapezoid_matches_linear_oracle(a, tau, n, chunk, seed):
    # |a| tau <= 1: contracting, so the solve converges with no warning; the
    # last chunk is short whenever chunk does not divide n + 1; two segments
    # of three nodes, each with its own coefficient
    rng = np.random.default_rng(seed)
    segments = segments_of([3, 3])
    u0 = rng.normal(size=(2, 6)) + 1j * rng.normal(size=(2, 6))
    state, iterations, distances = linear_solve(np.repeat(a, 3), u0, tau, n, chunk,
                                                segments=segments, picard_tol=1e-13)
    assert iterations == len(distances) and distances[-1] <= 1e-13
    for coeff, seg in zip(a, segments):
        want = trapezoid_oracle(coeff, u0[:, seg], tau, n)
        assert np.abs(state[..., seg] - want).max() <= 1e-12 * np.abs(want).max()


def test_picard_trapezoid_warns_after_growth():
    # a tau = 3: the first distances grow, then the iteration converges
    u0 = np.ones((1, 1), complex)
    with pytest.warns(UserWarning, match="grew before converging") as record:
        state, _, distances = linear_solve(3.0, u0, 1.0, 200, 64, picard_tol=1e-13)
    assert len(record) == 1 and distances[1] > distances[0]
    want = trapezoid_oracle(3.0, u0, 1.0, 200)
    assert np.abs(state - want).max() <= 1e-12 * np.abs(want).max()


def test_picard_trapezoid_growth_raises_diverged():
    # a tau = 50: the Picard distances grow like (a tau)^k / k! for k < 50
    with pytest.raises(PicardDiverged, match="grew") as err:
        linear_solve(50.0, np.ones((1, 1), complex), 1.0, 200, 64)
    history = err.value.args[1]
    assert np.isfinite(history).all() and len(history) < 64
    assert history[-3] < history[-2] < history[-1]


# a finite segment of four nodes, then a segment of four whose integrand is NaN
NAN_SEGMENTS = segments_of([4, 4])


def nan_rhs(values, taus):
    g = 0.5 * values
    g[..., NAN_SEGMENTS[1]] = np.nan
    return g


def test_picard_trapezoid_nan_rhs_raises_diverged():
    with pytest.raises(PicardDiverged) as err:
        linear_solve(None, np.ones((1, 8), complex), 1.0, 40, 16, rhs=nan_rhs,
                     segments=NAN_SEGMENTS)
    history = err.value.args[1]
    assert len(history) == 1 and not np.isfinite(history[-1])


def test_picard_trapezoid_max_iter_raises():
    with pytest.raises(PicardMaxIter) as err:
        linear_solve(0.5, np.ones((1, 1), complex), 1.0, 40, 16, picard_max_iter=1)
    assert len(err.value.args[1]) == 1


def test_picard_trapezoid_holds_one_trajectory():
    # the state is the only (n+1, C, nodes) array held: an old/new pair of
    # trajectories would peak at twice its size
    n, u0 = 400, np.ones((1, 2000), complex)
    state_bytes = (n + 1) * u0.nbytes
    tracemalloc.start()
    try:
        state, _, _ = linear_solve(0.5, u0, 1.0, n, 16, picard_tol=1e-13)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert state.nbytes == state_bytes
    assert peak < 1.5 * state_bytes


def test_half_state_solve_peaks_at_its_kept_rows_and_blocks(nls_model):
    # a simulate-like 2048-node cubic_full solve keeping two rows: the
    # driver's transient memory is a fixed number of block-sized arrays
    # (two chunks of iterates and the phase table, 4 blocks each, and a
    # dozen or so per block); chunk-wide passes peaked at about 51
    g = Grid(1, (2048,), (4.0,))
    h = packet(nls_model, g, beta=0.1, amp=0.1, width=0.5)
    prob = ev.EvolutionProblem(nls_model, [ev.cubic_full(1.0)], 0.01, 0.2, g, h)
    _, n = ev.time_mesh(prob, ev.SolverConfig())
    config = ev.SolverConfig(record_stride=n)
    assert ev._conjugate_mirror(prob, config) is not None
    row = h.values.nbytes // 2  # one + component
    block = ev._BLOCK_BYTES // row * row
    assert ev.DEFAULT_CHUNK * row == 4 * block
    tracemalloc.start()
    try:
        traj = ev.solve_integrated(prob, config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    kept = sum(f.values.nbytes for f in traj.fields)
    assert len(traj.fields) == 2 and traj.iterations == 4
    assert peak < kept + 26 * block


# -- row blocks of the Picard step ----------------------------------------------------

BLOCK_PATHS = {
    # (grid nodes, nonlinearity, mode, half state): the full and the half
    # (real-form) path with two products, so the plan sums by matmul, and
    # the direct oracle
    "full": (64, [ev.cubic_full(0.9), ev.quadratic_conjugate(0.6)], "fft", False),
    "half": (64, [ev.cubic_full(0.9), ev.quadratic_conjugate(0.6)], "fft", True),
    "direct": (32, [ev.quadratic_conjugate(0.6)], "direct-oracle", False),
}


def blocked_step(path, data, block_rows, slab_rows, measure_change):
    """One ``_Level.step`` of the solver's integrand in blocks of ``block_rows`` rows.

    ``data`` is (chunk, taus, h, h0, carried integral, g_prev, sup), drawn
    once for all block sizes; the plan has slabs of ``slab_rows`` rows, or
    the module's.  Returns the new values, the chunk's norm and the level's
    carried sums.
    """
    nodes, chi, mode, half = BLOCK_PATHS[path]
    chunk, taus, h, h0, integral, g_prev, sup = data
    model = dsp.model_from_config({"preset": "nls1d", "params": {"a2": 1.0, "a0": 1.0}})
    grid = Grid(1, (nodes,), (2.0,))
    problem = ev.EvolutionProblem(model, chi, 0.05, 1.0, grid,
                                  ModalField(grid, np.zeros((2, nodes))))
    mirror = grid_mirror(grid)[0] if half else None
    tables = ev.PropagatorTables(model, grid, problem.rho, slice(0, 2, 2) if half else None)
    plan = ev._problem_plan(problem, conjugate=half)
    if slab_rows is not None:
        with mock.patch.object(ev, "_SLAB_BYTES", slab_rows * slab_bytes(plan)):
            plan = ev._problem_plan(problem, conjugate=half)

    def rhs_chunk(values, taus, rows):
        return ev._slow_rhs_chunk(values, taus, h, problem, tables, plan, mode, rows)

    level = ev._Level((slice(None),), mirror)
    level.integral, level.g_prev, level.sup = integral, g_prev, sup.copy()
    with mock.patch.object(ev, "_BLOCK_BYTES", block_rows * h0.nbytes):
        new, d = level.step(rhs_chunk, chunk, taus, h0, h, grid.cell, measure_change)
    return new, d, level.integral, level.g_prev, level.sup


@pytest.mark.parametrize("path", list(BLOCK_PATHS))
# No shrink phase: shrinking re-runs four blocked steps per candidate, so a
# failure took 30-40 s to report; it is reported as first found.
@settings(max_examples=12, deadline=None,
          phases=(Phase.explicit, Phase.reuse, Phase.generate, Phase.target))
@given(
    rows=st.sampled_from([64, 35]),
    first=st.booleans(),
    broadcast=st.booleans(),
    measure_change=st.booleans(),
    slab_rows=st.one_of(st.none(), SLAB_ROWS),
    seed=st.integers(0, 2**32 - 1),
)
def test_blocked_step_is_bitwise_the_one_block_step(path, rows, first, broadcast,
                                                    measure_change, slab_rows, seed):
    # a full chunk and a short last one (simulate ends on 35 rows), the first
    # chunk of a pass or a later one with carried sums, the broadcast start
    # of level 1 or drawn iterates, a Picard pass or a coupling_norm pass
    rng = np.random.default_rng(seed)
    nodes, _, _, half = BLOCK_PATHS[path]
    comps = 1 if half else 2

    def draw(*shape):
        return 0.3 * (rng.normal(size=shape) + 1j * rng.normal(size=shape))

    h = 0.01 * rng.uniform(0.5, 1.0)
    i0 = 0 if first else 64 * int(rng.integers(1, 20))
    taus = (h * np.arange(i0 + rows))[i0:]
    h0 = draw(comps, nodes)
    chunk = np.broadcast_to(h0, (rows, comps, nodes)) if broadcast else draw(rows, comps, nodes)
    carried = ((0.0, None, np.zeros(1)) if first
               else (draw(comps, nodes), draw(comps, nodes), rng.uniform(0, 1, size=1)))
    data = (chunk, taus, h, h0) + carried
    want = blocked_step(path, data, rows, slab_rows, measure_change)
    for block_rows in (1, 3, 16):
        got = blocked_step(path, data, block_rows, slab_rows, measure_change)
        assert np.array_equal(got[0], want[0])
        assert repr(got[1]) == repr(want[1])
        for a, b in zip(got[2:], want[2:]):
            assert np.array_equal(a, b)


def test_solve_integrated_holds_no_trajectory(nls_model):
    # 4000 steps: the driver holds one chunk of iterates, per-level sums and
    # the ~130 recorded samples, not the (n+1, C, nodes) trajectory
    g = Grid(1, (128,), (2.0,))
    h = packet(nls_model, g, beta=0.1, amp=0.1, width=0.5)
    prob = ev.EvolutionProblem(nls_model, [ev.cubic_conjugate(1.0)], 0.01, 4.0, g, h)
    tracemalloc.start()
    try:
        traj = ev.solve_integrated(prob)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert traj.n_steps >= 1000 and len(traj.fields) < traj.n_steps // 16
    assert peak < 0.5 * (traj.n_steps + 1) * h.values.nbytes


@settings(max_examples=200, deadline=None)
@given(
    b=st.integers(1, 5),
    c=st.sampled_from([1, 2, 3, 4, 6]),
    widths=st.lists(st.integers(0, 300), min_size=1, max_size=5),
    seed=st.integers(0, 2**32 - 1),
)
def test_node_l1_on_segments_is_the_per_window_norm(b, c, widths, seed):
    # each segment's norm is bitwise the norm of its window values held
    # alone, by the parent's per-key formula
    rng = np.random.default_rng(seed)
    values = rng.normal(size=(b, c, sum(widths))) + 1j * rng.normal(size=(b, c, sum(widths)))
    segments = segments_of(widths)
    got = ev._node_l1(values, 0.37, segments)
    assert got.shape == (b, len(widths))
    for s, seg in enumerate(segments):
        window = values[..., seg].copy()
        mod = np.sqrt((window.real ** 2 + window.imag ** 2).sum(axis=1))
        assert np.array_equal(got[:, s], mod.reshape(b, -1).sum(axis=1) * 0.37)
        assert np.array_equal(got[:, s], ev._node_l1(window, 0.37)[:, 0])


# The driver as it was with an old and a new trajectory per key, kept
# literally (less the growth warning) as an oracle for the in-place one;
# each key is a segment of the node axis.

def two_buffer_pass(rhs_chunk, state, h0, out, ref, h, chunk, cell, segments):
    taus = h * np.arange(state.shape[0])
    integral = [0.0] * len(segments)
    g_prev = [None] * len(segments)
    sup = [0.0] * len(segments)
    for i0 in range(0, taus.size, chunk):
        i1 = min(i0 + chunk, taus.size)
        g = rhs_chunk(state[i0:i1], taus[i0:i1])
        for s, seg in enumerate(segments):
            gs = g[..., seg]
            new = out[i0:i1, :, seg]
            integral[s] = ev._trapezoid_chunk(new, h0[:, seg], integral[s], g_prev[s], gs, h)
            g_prev[s] = gs[-1].copy()
            d = float(ev._node_l1(new if ref is None else new - ref[i0:i1, :, seg], cell).max())
            if not d <= sup[s]:
                sup[s] = d
            if not math.isfinite(d):
                return sup
    return sup


def two_buffer_picard(rhs_chunk, h0, n, h, cell, config, chunk, segments):
    old = np.broadcast_to(h0, (n + 1,) + h0.shape).copy()
    distances = []
    new = np.empty_like(old)
    grow_run = 0
    for it in range(1, config.picard_max_iter + 1):
        dist = float(np.max(two_buffer_pass(rhs_chunk, old, h0, new, old, h, chunk, cell,
                                            segments)))
        if not math.isfinite(dist):
            raise PicardDiverged("non-finite Picard iterate", distances + [dist])
        distances.append(dist)
        if dist <= config.picard_tol:
            return new, it, distances
        if len(distances) >= 2 and dist > distances[-2]:
            grow_run += 1
            if grow_run >= 3 and dist > 10.0 * min(distances):
                raise PicardDiverged("Picard distances grew", distances)
        else:
            grow_run = 0
        old, new = new, old
    raise PicardMaxIter("no convergence", distances)


def driver_outcome(driver, rhs, u0, tau, n, chunk, *args, **config):
    """(state, iterations, distances) of a solve, or (None, error type, history)."""
    try:
        return driver(rhs, u0, n, tau / n, 1.0, ev.SolverConfig(**config), chunk, *args)
    except (PicardDiverged, PicardMaxIter) as err:
        return None, type(err), err.args[1]


def kept_rows(mode, n):
    """The ``keep`` argument of the driver: every row, a sparse set, or the endpoints."""
    return {"every": None, "sparse": ev._kept_samples(n, 3), "ends": [0, n]}[mode]


def assert_same_outcome(rhs, u0, tau, n, chunk, keep=None, segments=(slice(None),), **config):
    """The driver's rows ``keep`` equal the oracle's bitwise, as do iterations and distances."""
    state, its, dists = driver_outcome(ev._picard_trapezoid, by_rows(rhs), u0, tau, n, chunk,
                                       keep, segments, **config)
    want_state, want_its, want_dists = driver_outcome(two_buffer_picard, rhs, u0, tau, n,
                                                      chunk, segments, **config)
    assert its == want_its
    assert [repr(d) for d in dists] == [repr(d) for d in want_dists]  # bitwise, NaN too
    if want_state is None:
        assert state is None
    else:
        rows = slice(None) if keep is None else keep
        assert np.array_equal(state, want_state[rows])
    return its


@pytest.mark.filterwarnings("ignore:Picard distances grew")
@settings(max_examples=40, deadline=None)
@given(
    a=st.tuples(st.complex_numbers(max_magnitude=1.0), st.complex_numbers(max_magnitude=1.0)),
    c=st.complex_numbers(max_magnitude=2.0),
    tau=st.floats(0.1, 1.0),
    n=st.integers(1, 120),
    chunk=st.integers(1, 48),
    seed=st.integers(0, 2**32 - 1),
    keep=st.sampled_from(["every", "sparse", "ends"]),
    widths=st.lists(st.integers(0, 5), min_size=1, max_size=4).filter(sum),
)
def test_in_place_driver_is_bitwise_the_two_buffer_driver(a, c, tau, n, chunk, seed, keep,
                                                          widths):
    # 1-4 segments of drawn widths, possibly empty; each node's integrand
    # reads its neighbour, across segment edges, nonlinearly; the last chunk
    # is short
    assume((n + 1) % chunk != 0)
    segments = segments_of(widths)
    coeff = np.concatenate([np.full(w, a[s % 2]) for s, w in enumerate(widths)])

    def rhs(values, taus):
        return (coeff * values
                + c * np.roll(values, 1, axis=-1) * np.conj(values) * taus[:, None, None])

    rng = np.random.default_rng(seed)
    u0 = 0.5 * (rng.normal(size=(2, sum(widths))) + 1j * rng.normal(size=(2, sum(widths))))
    assert_same_outcome(rhs, u0, tau, n, chunk, kept_rows(keep, n), segments, picard_tol=1e-12)


@pytest.mark.parametrize("rhs, u0, n, chunk, segments, config, error", [
    (lambda v, t: 50.0 * v, np.ones((1, 1), complex), 200, 64, [slice(None)], {},
     PicardDiverged),
    (nan_rhs, np.ones((1, 8), complex), 40, 16, NAN_SEGMENTS, {}, PicardDiverged),
    (lambda v, t: 0.5 * v, np.ones((1, 1), complex), 40, 16, [slice(None)],
     {"picard_max_iter": 1}, PicardMaxIter),
], ids=["growth", "nan", "max-iter"])
def test_in_place_driver_fails_as_the_two_buffer_driver(rhs, u0, n, chunk, segments, config,
                                                        error):
    for keep in ("every", "ends"):
        assert assert_same_outcome(rhs, u0, 1.0, n, chunk, kept_rows(keep, n), segments,
                                   **config) is error


def wavefront_visits(a, chunks_on, keep, n=80, chunk=8):
    """Chunks visited by a driver solve of u' = a u on the first ``chunks_on`` chunks, u' = 0 after.

    A chunk needs more Picard levels the larger the integral of a up to its
    end, so needs rise over the first ``chunks_on`` chunks and are flat
    after them.  Checks the solve against the oracle and returns the chunk
    index of every integrand evaluation of the driver, its iterations and
    the number of chunks.
    """
    h = 1.0 / n
    visits = []

    def rhs(values, taus):
        visits.append(round(taus[0] / h) // chunk)
        return a * (taus < chunks_on * chunk * h)[:, None, None] * values

    its = assert_same_outcome(rhs, np.ones((1, 2), complex), 1.0, n, chunk,
                              kept_rows(keep, n), picard_tol=1e-12)
    n_chunks = -(-(n + 1) // chunk)
    # the oracle evaluates every chunk once per iteration, after the driver
    return visits[:len(visits) - n_chunks * its], its, n_chunks


@pytest.mark.parametrize("a, chunks_on, keep, path", [
    (0.5, 1, "ends", "spare unused"),
    (0.5, 2, "ends", "spare taken"),
    (1.0, 2, "ends", "restart"),
    (0.5, 2, "every", "catch-up"),
], ids=["spare-unused", "spare-taken", "restart", "catch-up"])
def test_wavefront_takes_each_path(a, chunks_on, keep, path):
    # counted integrand evaluations tell the paths apart: a sweep visits the
    # chunks in order, a restart or a catch-up pass goes back to chunk 0
    visits, its, n_chunks = wavefront_visits(a, chunks_on, keep)
    in_order = visits == sorted(visits)
    if path == "spare unused":  # every chunk needs chunk 0's level; each computes one more
        assert in_order and len(visits) == n_chunks * (its + 1)
    elif path == "spare taken":  # the work of the one-buffer loop
        assert in_order and len(visits) == n_chunks * its
    elif path == "restart":
        assert not in_order and len(visits) > n_chunks * its
        assert visits.count(0) > its  # chunk 0 in two sweeps
    else:  # the earlier chunks get each level they lack, and no more
        assert not in_order and len(visits) == n_chunks * its
        assert all(visits.count(j) == its for j in range(n_chunks))


@pytest.mark.filterwarnings("ignore:Picard distances grew")
@pytest.mark.parametrize("keep", ["every", "ends"])
def test_wavefront_falls_back_on_growth(keep):
    # strong coupling on three chunks: the distances grow before they
    # converge, so the one-buffer loop decides, as the oracle does
    visits, its, n_chunks = wavefront_visits(8.0, 3, keep)
    loop = [j for _ in range(its) for j in range(n_chunks)]  # one pass per iteration
    assert len(visits) > len(loop) and visits[-len(loop):] == loop


def test_cubic_matches_r_space_product(nls_model, rng, from_r_space):
    # spectrally concentrated fields: i q U+^2 U- equals the transformed
    # pointwise r-space product even on the unpadded grid
    g = Grid(1, (256,), (4.0,))
    f = packet(nls_model, g, beta=0.1, amp=0.3)
    q = 0.8
    chi = ev.cubic_conjugate(q)
    out = ev.apply_nonlinearity([f, f, f], chi)
    u = to_r_space(f)
    prod = np.empty_like(u)
    prod[0] = 1j * q * u[0] * u[0] * u[1]
    prod[1] = -1j * q * u[1] * u[1] * u[0]
    expected = from_r_space(prod, g)
    assert np.abs(out.values - expected.values).max() <= 1e-12 * np.abs(expected.values).max()


def test_grid_mismatch_raises(nls_model):
    g1 = Grid(1, (64,), (2.0,))
    g2 = Grid(1, (128,), (2.0,))
    f1 = ModalField(g1, np.zeros((2, 64), complex))
    f2 = ModalField(g2, np.zeros((2, 128), complex))
    with pytest.raises(GridMismatch):
        ev.apply_nonlinearity([f1, f2], ev.quadratic_conjugate(1.0))


# -- interaction phase ------------------------------------------------------------

def test_interaction_phase_values(shg_model, nls_model):
    # resonant second harmonic at the exact carriers
    assert ev.interaction_phase(shg_model, 1, +1, [1, 1], [+1, +1], 2.0, [1.0]) == pytest.approx(0.0)
    # counterpropagating universal triple
    assert ev.interaction_phase(
        nls_model, 1, +1, [1, 1, 1], [+1, -1, +1], 1.0, [1.0, -1.0]
    ) == pytest.approx(0.0, abs=1e-12)
    m0 = dsp.model_from_config({"preset": "nls1d", "params": {"a2": 1.0, "a0": 0.0}})
    assert ev.interaction_phase(m0, 1, +1, [1, 1], [+1, +1], 2.0, [1.0, 1.0]) == pytest.approx(2.0)


# -- frames --------------------------------------------------------------------------

def test_fast_slow_round_trip(nls_model, grid256, rng):
    vals = rng.normal(size=(2, 256)) + 1j * rng.normal(size=(2, 256))
    f = ModalField(grid256, vals, frame="slow")
    f0 = ev.fast_slow_transform(f, nls_model, rho=0.05, tau=0.0, direction="to_fast")
    assert np.abs(f0.values - vals).max() == 0.0
    fwd = ev.fast_slow_transform(f, nls_model, rho=0.05, tau=0.37, direction="to_fast")
    back = ev.fast_slow_transform(fwd, nls_model, rho=0.05, tau=0.37, direction="to_slow")
    assert back.frame == "slow"
    assert np.abs(back.values - vals).max() <= 1e-12 * np.abs(vals).max()


@pytest.mark.parametrize("matrix", [False, True], ids=["nls1d", "two_band"])
@settings(max_examples=25, deadline=None)
@given(rho=st.floats(1e-3, 1.0), tau=st.floats(-3.0, 3.0), seed=st.integers(0, 2**32 - 1))
def test_fast_slow_round_trip_property(matrix, rho, tau, seed):
    # to_fast then to_slow is the identity up to rounding, at any time and
    # scale; each direction refuses a field in the other frame
    model = two_band_matrix_model() if matrix else dsp.model_from_config(
        {"preset": "nls1d", "params": {"a2": 1.0, "a0": 1.0}})
    rng = np.random.default_rng(seed)
    grid = Grid(1, (64,), (4.0,))
    f = ModalField(grid, rng.normal(size=(2, 64)) + 1j * rng.normal(size=(2, 64)), frame="slow")
    fast = ev.fast_slow_transform(f, model, rho, tau, "to_fast")
    back = ev.fast_slow_transform(fast, model, rho, tau, "to_slow")
    assert (fast.frame, back.frame) == ("fast", "slow")
    assert np.abs(back.values - f.values).max() <= 1e-13 * np.abs(f.values).max()
    with pytest.raises(ValueError, match="slow-frame"):
        ev.fast_slow_transform(fast, model, rho, tau, "to_fast")
    with pytest.raises(ValueError, match="fast-frame"):
        ev.fast_slow_transform(f, model, rho, tau, "to_slow")


@pytest.mark.parametrize("matrix", [False, True])
def test_fast_field_is_the_to_fast_transform(nls_model, matrix):
    model = two_band_matrix_model() if matrix else nls_model
    g = Grid(1, (128,), (2.0,))
    prob = ev.EvolutionProblem(model, [ev.cubic_full(0.5)], 0.05, 0.3, g, packet(model, g))
    traj = ev.solve_integrated(prob)
    for i in (0, len(traj.times) // 2, len(traj.times) - 1):
        slow = traj.fields[i]
        fast = ev.fast_slow_transform(slow, model, prob.rho, traj.times[i], "to_fast")
        assert np.array_equal(traj.fast_field(i).values, fast.values)
        back = ev.fast_slow_transform(fast, model, prob.rho, traj.times[i], "to_slow")
        assert np.abs(back.values - slow.values).max() <= 1e-14 * np.abs(slow.values).max()


def test_linear_evolution_matches_propagator(nls_model):
    g = Grid(1, (512,), (4.0,))
    h = packet(nls_model, g)
    prob = ev.EvolutionProblem(nls_model, [], 0.05, 0.3, g, h)
    traj = ev.solve_integrated(prob)
    # slow field constant
    for f in traj.fields:
        assert np.abs(f.values - h.values).max() == 0.0
    i = len(traj.times) - 1
    fast = traj.fast_field(i)
    omega, _, _ = dsp.symbol_eigensystem(nls_model, g)
    closed = h.values * np.exp(-1j * traj.times[i] / prob.rho * omega)
    assert np.abs(fast.values - closed).max() <= 1e-12 * np.abs(h.values).max()


def test_modal_project_completeness(nls_model, grid256, rng):
    vals = rng.normal(size=(2, 256)) + 1j * rng.normal(size=(2, 256))
    f = ModalField(grid256, vals)
    total = np.zeros_like(vals)
    for zeta in (+1, -1):
        total += ev.modal_project(f, nls_model, 1, zeta).values
    assert np.abs(total - vals).max() <= 1e-12
    # diagonal symbol: projection selects the component
    plus = ev.modal_project(f, nls_model, 1, +1)
    assert np.abs(plus.values[1]).max() == 0.0
    assert plus.zeroed_nodes == 0


def test_modal_project_idempotent_matrix_model(rng):
    herm = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    herm = herm + herm.conj().T

    def symbol(k):
        return herm + np.diag([k * k + 6.0, -(k * k) - 6.0])

    m = dsp.matrix_symbol_model(symbol, j_bands=1)
    g = Grid(1, (64,), (2.0,))
    vals = rng.normal(size=(2, 64)) + 1j * rng.normal(size=(2, 64))
    f = ModalField(g, vals)
    once = ev.modal_project(f, m, 1, +1)
    twice = ev.modal_project(once, m, 1, +1)
    assert np.abs(once.values - twice.values).max() <= 1e-12 * np.abs(vals).max()


# -- solver -----------------------------------------------------------------------------

def test_zero_nonlinearity_is_exact(nls_model, grid256):
    h = packet(nls_model, grid256, beta=0.12)
    prob = ev.EvolutionProblem(nls_model, [], 0.02, 0.4, grid256, h)
    traj = ev.solve_integrated(prob)
    assert all(np.abs(f.values - h.values).max() == 0.0 for f in traj.fields)


@pytest.mark.filterwarnings("error")
def test_picard_matches_midpoint_oracle(nls_model, trajectory_distance):
    g = Grid(1, (256,), (2.0,))
    h = packet(nls_model, g, beta=0.1, amp=0.25, width=0.5)
    prob = ev.EvolutionProblem(nls_model, [ev.cubic_conjugate(1.0)], 0.1, 0.25, g, h)
    cfg = ev.SolverConfig(substeps_per_rho=200, record_stride=100)
    traj = ev.solve_integrated(prob, cfg)
    mid = ev.integrate_slow_midpoint(prob, n_steps=traj.n_steps, record_stride=100)
    dist = trajectory_distance(traj, mid)
    # nonlinear effect is large compared with the agreement level
    moved = l1_norm_values(traj.fields[-1].values - h.values, g)
    assert dist <= 1e-6
    assert moved > 1e-3


def test_single_mode_closed_form(nls_model):
    g = Grid(1, (64,), (2.0,))
    q, rho, tau_star, k0 = 0.8, 0.1, 0.4, 0.5
    vals = np.zeros((2, 64), complex)
    a0 = 0.9 + 0.4j
    vals[0, index_of(g, k0)[0]] = a0
    vals[1, index_of(g, -k0)[0]] = np.conj(a0)
    prob = ev.EvolutionProblem(nls_model, [ev.cubic_conjugate(q)], rho, tau_star,
                               g, ModalField(g, vals))
    traj = ev.solve_integrated(prob, ev.SolverConfig(substeps_per_rho=50))
    w = g.dk[0] / (2 * np.pi)
    expected = a0 * np.exp(1j * q * w * w * abs(a0) ** 2 * tau_star)
    got = traj.fields[-1].values[0, index_of(g, k0)[0]]
    assert got == pytest.approx(expected, rel=1e-8)


@pytest.mark.filterwarnings("error")
def test_mesh_halving_second_order(nls_model):
    g = Grid(1, (256,), (2.0,))
    h = packet(nls_model, g, beta=0.1, amp=0.3, width=0.5)
    prob = ev.EvolutionProblem(nls_model, [ev.cubic_conjugate(1.0)], 0.05, 0.25, g, h)
    sols = {}
    for sub in (10, 20, 40):
        cfg = ev.SolverConfig(substeps_per_rho=sub, record_stride=10 ** 9)
        sols[sub] = ev.solve_integrated(prob, cfg).fields[-1].values
    d1 = l1_norm_values(sols[10] - sols[20], g)
    d2 = l1_norm_values(sols[20] - sols[40], g)
    assert d1 / d2 >= 3.0


def test_picard_contraction_property(nls_model):
    # weak problem: successive distances decay at least geometrically
    g = Grid(1, (128,), (2.0,))
    h = packet(nls_model, g, beta=0.12, amp=0.08, width=0.5)
    prob = ev.EvolutionProblem(nls_model, [ev.cubic_conjugate(0.5)], 0.1, 0.3, g, h)
    traj = ev.solve_integrated(prob)
    d = traj.distances
    assert len(d) >= 3
    for i in range(2, len(d)):
        if d[i - 1] > 1e-14:
            assert d[i] <= 0.6 * d[i - 1]


def test_solution_bound_and_duality(nls_model):
    g = Grid(1, (256,), (2.0,))
    h = packet(nls_model, g, beta=0.12, amp=0.2, width=0.5)
    prob = ev.EvolutionProblem(nls_model, [ev.cubic_conjugate(1.0)], 0.05, 0.3, g, h)
    traj = ev.solve_integrated(prob)
    bound = 2.0 * l1_norm(h)
    for f in traj.fields:
        assert l1_norm(f) <= bound
        assert linf_r_norm(f) <= l1_norm(f) / (2 * np.pi) * (1 + 1e-12)


def test_picard_max_iter_raises(nls_model):
    g = Grid(1, (128,), (2.0,))
    h = packet(nls_model, g, beta=0.12, amp=0.4, width=0.5)
    prob = ev.EvolutionProblem(nls_model, [ev.cubic_conjugate(2.0)], 0.1, 0.3, g, h)
    cfg = ev.SolverConfig(picard_max_iter=1)
    spectrum = rs.spectrum_from_list([[1, 1.0]])
    sets = ia.build_index_sets(spectrum, nls_model, [3])
    for solve in (lambda: ev.solve_integrated(prob, cfg),
                  lambda: ia.solve_interaction_system(prob, spectrum, cfg, beta=0.12),
                  lambda: ia.solve_averaged_system(prob, spectrum, sets, cfg, beta=0.12)):
        with pytest.raises(PicardMaxIter) as err:
            solve()
        assert len(err.value.args[1]) == 1


def test_trajectory_records_endpoints(nls_model, grid256):
    h = packet(nls_model, grid256)
    prob = ev.EvolutionProblem(nls_model, [ev.cubic_conjugate(0.3)], 0.05, 0.3, grid256, h)
    traj = ev.solve_integrated(prob, ev.SolverConfig(record_stride=37))
    assert traj.times[0] == 0.0
    assert traj.times[-1] == pytest.approx(0.3)
    assert np.abs(traj.fields[0].values - h.values).max() == 0.0


# -- the conjugate-pair reduction ---------------------------------------------------------

def symmetric_values(rng, grid, c, b=None, radius=None):
    """Random (b, c, X) (or (c, X)) values with U_-[-j] = conj U_+[j] and 0 at lone nodes.

    With ``radius`` the + components vanish beyond that many nodes from k = 0.
    """
    mirror, lone = grid_mirror(grid)
    lead = (c // 2,) if b is None else (b, c // 2)
    plus = rng.normal(size=lead + (mirror.size,)) + 1j * rng.normal(size=lead + (mirror.size,))
    if radius is not None:
        centred = np.indices(grid.shape).reshape(grid.dim, -1) - np.array(grid.n)[:, None] // 2
        plus *= np.sqrt((centred ** 2).sum(axis=0)) <= radius
    plus[..., lone] = 0
    values = np.empty(lead[:-1] + (c, mirror.size), dtype=complex)
    values[..., 0::2, :] = plus
    values[..., 1::2, :] = np.conj(plus[..., mirror])
    return values


def symmetric_tensor(rng, order, c):
    """A random tensor with T[i'; a', b', ...] = conj T[i; a, b, ...] (' swaps 2n and 2n+1)."""
    shape = (c,) * (order + 1)
    t = (rng.normal(size=shape) + 1j * rng.normal(size=shape)) * (rng.random(shape) < 0.5)
    t /= max(np.abs(t).sum() / c, 1e-300)
    swap = np.arange(c) ^ 1
    t[1::2] = np.conj(t[np.ix_(*[swap] * (order + 1))])[1::2]
    return t


@pytest.mark.parametrize("dim, c", [(1, 2), (1, 4), (1, 6), (2, 2), (2, 4)])
def test_mirrored_node_l1_is_the_expanded_state_norm(dim, c):
    # the distance read from the + half and its grid reflection is bitwise
    # the full-state _node_l1 of the expanded values, whose partner squares
    # sit at the mirror nodes
    rng = np.random.default_rng(dim * 10 + c)
    grid = Grid(dim, (16,) * dim if dim == 2 else (64,), (2.0,) * dim)
    mirror, _ = grid_mirror(grid)
    for b in (1, 3):
        full = symmetric_values(rng, grid, c, b)
        want = ev._node_l1(full, 0.37)
        got = ev._node_l1(np.ascontiguousarray(full[:, 0::2]), 0.37, mirror=mirror)
        assert np.array_equal(got, want)
        segments = segments_of([5, mirror.size - 5])
        assert np.array_equal(ev._node_l1(np.ascontiguousarray(full[:, 0::2]), 0.37, segments,
                                          mirror), ev._node_l1(full, 0.37, segments))


def reduction_model(name):
    if name == "2d":
        return dsp.scalar_band_model([lambda k: (k ** 2).sum(axis=0) + 1.0], dim=2)
    params = {"nls1d": {"a2": 1.0, "a0": 1.0}, "power": {"p": 1.5, "a0": 0.5},
              "twoband": {"c1": 1.0, "d1": 0.5, "c2": 2.0, "d2": 1.5}}[name]
    return dsp.model_from_config({"preset": name, "params": params})


def signed_tensor(order, c):
    """T[0; a, ...] = i s_a ..., T[1; ...] = -(-1)^m i s_a ... (m factors), s = (1, -1) on pair 0.

    Conjugation-symmetric, and read through the one form U_+ - U_-: neither
    plain nor its own conjugate (a mixed form).
    """
    s = np.zeros(c)
    s[:2] = 1.0, -1.0
    t = s
    for _ in range(order - 1):
        t = np.multiply.outer(t, s)
    out = np.zeros((c,) + t.shape, dtype=complex)
    out[0], out[1] = 1j * t, (-1) ** (order + 1) * 1j * t
    return out


def form_kind(problem):
    """How + components read the forms of the terms cut to their + outputs.

    "real" when every form is its own conjugate under 2n <-> 2n+1,
    "complex" when each reads + components only or is the conjugate of one
    that does (plain forms read every component), else "mixed"; "no" when
    the cut terms read nothing.
    """
    terms = [(np.where(np.arange(len(s.tensor)).reshape(-1, *[1] * s.order) % 2, 0, s.tensor),
              ["u"] * s.order) for s in problem.nonlinearity]
    pivots, w = ev._argument_forms({"u": terms}).get("u", ([], []))
    if not len(w):
        return "no"
    conj = w[:, np.arange(w.shape[1]) ^ 1].conj()
    if np.array_equal(conj, w):
        return "real"
    plus = ~w[:, 1::2].any(axis=1)
    if np.count_nonzero(w) == len(pivots) or all(
            plus[f] or any(plus[g] and np.array_equal(conj[g], w[f]) for g in range(len(w)))
            for f in range(len(w))):
        return "complex"
    return "mixed"


def test_random_symmetric_tensors_take_the_half_path():
    # the reduced cases of the solve test below cannot shrink silently: 400
    # random symmetric tensor draws at n = 32 all have complex forms
    grid, model = Grid(1, (32,), (4.0,)), reduction_model("twoband")
    rng = np.random.default_rng(11)
    kinds = []
    for order in (2, 3) * 200:
        u = symmetric_values(rng, grid, 4)
        susc = ev.Susceptibility(order, symmetric_tensor(rng, order, 4))
        problem = ev.EvolutionProblem(model, [susc], 0.1, 0.2, grid, ModalField(grid, u))
        kinds.append(form_kind(problem))
        assert ev._conjugate_mirror(problem, ev.SolverConfig()) is not None
    assert set(kinds) == {"complex"}


# 125 draws, a fifth of them signed: about 100 take the half path
@settings(max_examples=125, deadline=None)
@given(
    model=st.sampled_from(["nls1d", "power", "twoband", "2d"]),
    chi=st.sampled_from(["cubic_full", "cubic_conjugate", "quadratic_conjugate", "random",
                         "signed"]),
    n=st.sampled_from([16, 32, 64, 128]),
    amp=st.floats(0.1, 1.0),
    tau=st.floats(0.05, 0.3),
    rho=st.floats(0.05, 0.5),
    order=st.sampled_from([2, 3]),
    seed=st.integers(0, 2**32 - 1),
)
def test_reduced_solve_matches_the_full_state(model, chi, n, amp, tau, rho, order, seed):
    # random conjugation-symmetric data, tensors and symbols: the solve on
    # the + half, expanded, is the full-state solve to rounding.  The data
    # are band-limited so that the full state's nodes without a mirror,
    # which the reduced solve keeps at 0, stay at rounding level.  Each
    # draw asserts its path from the kind of its forms: real and complex
    # forms take the half path, mixed ones (the signed tensor) the full one
    rng = np.random.default_rng(seed)
    m = reduction_model(model)
    grid = Grid(2, (16, 16), (2.0, 2.0)) if model == "2d" else Grid(1, (n,), (4.0,))
    c, j = m.ncomp, m.ncomp // 2
    susc = {"cubic_full": lambda: ev.cubic_full(1.0, j),
            "cubic_conjugate": lambda: ev.cubic_conjugate(1.0, j),
            "quadratic_conjugate": lambda: ev.quadratic_conjugate(1.0, j),
            "random": lambda: ev.Susceptibility(order, symmetric_tensor(rng, order, c)),
            "signed": lambda: ev.Susceptibility(order, signed_tensor(order, c))}[chi]()
    radius = max(1, grid.n[0] // (4 * susc.order ** 2))
    u = symmetric_values(rng, grid, c, radius=radius)
    u *= amp / np.abs(u).max()
    problem = ev.EvolutionProblem(m, [susc], rho, tau, grid, ModalField(grid, u.reshape((c,) + grid.shape)))
    config = ev.SolverConfig(picard_tol=1e-11)
    kind = form_kind(problem)
    half = ev._conjugate_mirror(problem, config) is not None
    event(f"{kind} forms, {'half' if half else 'full'} path")
    assert half == (kind != "mixed") and (kind == "mixed") == (chi == "signed")
    if half:
        assert ev._problem_plan(problem, conjugate=True).real == (kind == "real")
    full = ev._solve_integrated(problem, config, None)
    scale = max(np.abs(f.values).max() for f in full.fields)
    _, lone = grid_mirror(grid)
    assume(max(np.abs(f.values.reshape(c, -1)[:, lone]).max() for f in full.fields)
           <= 1e-15 * scale)
    reduced = ev.solve_integrated(problem, config)
    assert reduced.iterations == full.iterations
    if not half:  # the full path is the full-state solve, bit for bit
        assert reduced.distances == full.distances
        assert all(np.array_equal(a.values, b.values) for a, b in zip(reduced.fields, full.fields))
    for a, b in zip(reduced.fields, full.fields):
        assert np.abs(a.values - b.values).max() <= 1e-13 * scale
    got, want = np.array(reduced.distances), np.array(full.distances)
    assert np.all((np.abs(got - want) <= 1e-12 * want) | (np.abs(got - want) <= 1e-14))


def test_reduced_solve_keeps_lone_nodes_at_zero(nls_model):
    # the documented difference: a quadratic solve whose spectrum reaches
    # k = -k_max in the full state keeps it 0 there, and every state stays
    # exactly conjugation-symmetric
    g = Grid(1, (256,), (4.0,))
    h = packet(nls_model, g, beta=0.12, amp=0.4, width=0.5)
    problem = ev.EvolutionProblem(nls_model, [ev.quadratic_conjugate(1.0)], 0.05, 0.3, g, h)
    mirror, lone = grid_mirror(g)
    full = ev._solve_integrated(problem, ev.SolverConfig(), None)
    reduced = ev.solve_integrated(problem)
    assert np.abs(full.fields[-1].values[:, lone]).max() > 0
    for f in reduced.fields:
        assert not f.values[:, lone].any()
        assert np.array_equal(f.values[1], np.conj(f.values[0][mirror]))


def full_path_cases(nls_model):
    """(name, problem, config) inputs that break the conjugation symmetry somewhere."""
    g = Grid(1, (256,), (4.0,))
    h = packet(nls_model, g, beta=0.12, amp=0.3, width=0.5)
    chi = ev.cubic_conjugate(1.0)

    def problem(values=h.values, susc=chi, model=nls_model, grid=g):
        return ev.EvolutionProblem(model, [susc], 0.05, 0.2, grid, ModalField(grid, values))

    off = h.values.copy()
    j = int(np.abs(off[1]).argmax())
    off[1, j] = np.nextafter(off[1, j].real, np.inf) + 1j * off[1, j].imag
    edge = h.values.copy()
    edge[:, 0] = 1e-30
    plus_only = h.values * np.array([[1.0], [0.0]])
    g37 = Grid(1, (256,), (3.7,))
    h37 = packet(nls_model, g37, beta=0.12, amp=0.3, width=0.5)
    callback = ev.Susceptibility(order=3, callback=lambda k, kvecs: chi.tensor)
    return [
        ("symmetric", problem(), ev.SolverConfig()),
        ("one ulp off the mirror", problem(off), ev.SolverConfig()),
        ("+ components only", problem(plus_only), ev.SolverConfig()),
        ("tensor phase", problem(susc=ev.Susceptibility(3, chi.tensor * np.exp(0.3j))),
         ev.SolverConfig()),
        ("callback", problem(susc=callback), ev.SolverConfig()),
        ("direct-oracle", problem(), ev.SolverConfig(convolution_mode="direct-oracle")),
        ("k_max 3.7", problem(h37.values, grid=g37), ev.SolverConfig()),
        ("nonzero at -k_max", problem(edge), ev.SolverConfig()),
        ("matrix symbol", problem(model=two_band_matrix_model()), ev.SolverConfig()),
        ("mixed forms", problem(susc=ev.Susceptibility(3, signed_tensor(3, 2))), ev.SolverConfig()),
    ]


def test_asymmetric_inputs_take_the_full_path(nls_model):
    # each input breaks one condition of the exact symmetry test; the
    # reference input passes it
    for name, problem, config in full_path_cases(nls_model):
        reduced = ev._conjugate_mirror(problem, config) is not None
        assert reduced == (name == "symmetric"), name
    # doublet_reality: false builds the - components from the envelope
    # itself; the shipped envelopes are real and even in k, so the data,
    # and the path, are those of doublet_reality: true
    g = Grid(1, (256,), (4.0,))
    built = [wp.build_wavepacket(wp.WavepacketSpec(
        n=1, k_star=1.0, r_star=0.0, beta=0.12, epsilon=0.1,
        envelope=wp.Envelope("gaussian", 0.5, 0.3), doublet_reality=flag), nls_model, g)
        for flag in (True, False)]
    assert np.array_equal(built[0].values, built[1].values)


def test_full_path_solve_is_the_full_state_solve(nls_model):
    # an input that fails the test runs the unreduced solve, bit for bit
    _, problem, config = full_path_cases(nls_model)[1]
    a, b = ev.solve_integrated(problem, config), ev._solve_integrated(problem, config, None)
    assert a.distances == b.distances
    assert all(np.array_equal(x.values, y.values) for x, y in zip(a.fields, b.fields))
