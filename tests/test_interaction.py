import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import Phase, assume, event, given, settings
from hypothesis import strategies as st

from wavepax import dispersion as dsp
from wavepax import evolution as ev
from wavepax import interaction as ia
from wavepax import resonance as rs
from wavepax import wavepacket as wp
from wavepax.errors import PicardDiverged
from wavepax.grids import Grid, ModalField, grid_mirror, l1_norm_values, transform_size


BETA, EPS = 0.12, 0.1


def doublet_sum(model, grid, kstars, beta=BETA, amp=0.12, width=1.0):
    total = np.zeros((model.ncomp,) + grid.shape, dtype=complex)
    for ks in kstars:
        spec = wp.WavepacketSpec(
            n=1, k_star=ks, r_star=0.0, beta=beta, epsilon=EPS,
            envelope=wp.Envelope("gaussian", width, amp),
        )
        total += wp.build_wavepacket(spec, model, grid).values
    return ModalField(grid, total)


def sup_norm(chi):
    """Upper bound on the pointwise tensor norm of a susceptibility (sum of entry moduli)."""
    return float(np.abs(chi.tensor).sum()) if chi.tensor is not None else float("inf")


def by_window(layout, values):
    """Per-key views of (..., C, W) values on the layout's joint node axis."""
    return {key: values[..., seg] for key, seg in layout.segments.items()}


def joined(layout, states):
    """Per-key (..., C, win) window values as one (..., C, W) array."""
    return np.concatenate([states[key] for key in layout.keys], axis=-1)


def embedded(sol, keys, i):
    """Sum of the components ``keys`` of a windowed solution at mesh node i on the full grid."""
    full = sol.layout.embed({key: sol.component_samples(*key, [i]).values for key in keys})
    return full[0].reshape((sol.problem.model.ncomp,) + sol.problem.grid.shape)


def sum_values(sol, i):
    return embedded(sol, sol.layout.keys, i)


def component_field(sol, l, theta, i):
    return ModalField(sol.problem.grid, embedded(sol, [(l, theta)], i), frame="slow")


@pytest.fixture
def counterprop(nls_model):
    grid = Grid(1, (512,), (4.0,))
    spectrum = rs.spectrum_from_list([[1, 1.0], [1, -1.0]])
    initial = doublet_sum(nls_model, grid, [1.0, -1.0])
    return nls_model, grid, spectrum, initial


# -- index sets --------------------------------------------------------------------

def test_counterprop_resonant_sets_match_listed_families(counterprop):
    model, grid, spectrum, _ = counterprop
    sets = ia.build_index_sets(spectrum, model, [3])
    base = [
        ((1, 1), (-1, 1), (1, 1)),
        ((1, 1), (-1, 1), (1, 2)),
        ((1, 2), (-1, 2), (1, 1)),
        ((1, 2), (-1, 2), (1, 2)),
    ]
    expected = set()
    for entries in base:
        for perm in itertools.permutations(entries):
            expected.add(perm)
    got = {ix.entries for ix in sets.resonant[(1, 1, 3)]}
    assert got == expected


def test_diag_subsets_are_same_pair_only(counterprop):
    model, grid, spectrum, _ = counterprop
    sets = ia.build_index_sets(spectrum, model, [3])
    diag = sets.diag()
    for (l, theta, m), idxs in diag.items():
        for ix in idxs:
            assert set(ix.slots()) == {l}
    # counterpropagating cubic: three permutations of (+,-,+) on the own pair
    assert len(diag[(1, 1, 3)]) == 3


def test_contributing_subsets_have_own_pair_slot(counterprop):
    model, grid, spectrum, _ = counterprop
    sets = ia.build_index_sets(spectrum, model, [3])
    for (l, theta, m), idxs in sets.contributing.items():
        for ix in idxs:
            assert l in ix.slots()


def test_full_equals_reduced_plus_coupling_sets(counterprop):
    model, grid, spectrum, _ = counterprop
    sets = ia.build_index_sets(spectrum, model, [3])
    partition = [[1], [2]]
    coup = sets.coupling(partition)
    red = sets.reduced(partition)
    for key in sets.contributing:
        all_terms = {ix.entries for ix in sets.contributing[key]}
        assert all_terms == {ix.entries for ix in red[key]} | {ix.entries for ix in coup[key]}
        assert not ({ix.entries for ix in red[key]} & {ix.entries for ix in coup[key]})
    diag = sets.diag()
    for key in diag:
        assert {ix.entries for ix in diag[key]} <= {ix.entries for ix in red[key]}


def test_nonresonant_two_packet_quadratic_has_empty_sets(nls_model):
    # generic carriers, quadratic order: no frequency combination matches
    spectrum = rs.spectrum_from_list([[1, 0.9], [1, 1.7]])
    sets = ia.build_index_sets(spectrum, nls_model, [2])
    assert all(len(v) == 0 for v in sets.resonant.values())


def test_shg_pair_averaged_sets(shg_model):
    # second pair driven by the first squared; first pair by (second, first*)
    spectrum = rs.spectrum_from_list([[1, 1.0], [1, 2.0]])
    sets = ia.build_index_sets(spectrum, shg_model, [2])
    assert {ix.entries for ix in sets.contributing[(2, 1, 2)]} == {((1, 1), (1, 1))}
    assert {ix.entries for ix in sets.contributing[(1, 1, 2)]} == {
        ((1, 2), (-1, 1)), ((-1, 1), (1, 2))
    }


# -- interaction system ----------------------------------------------------------------

def test_interaction_f0_constant(counterprop, full_states):
    model, grid, spectrum, initial = counterprop
    prob = ev.EvolutionProblem(model, [], 0.05, 0.2, grid, initial)
    sol = ia.solve_interaction_system(prob, spectrum, beta=BETA, epsilon=EPS)
    for window in by_window(sol.layout, full_states(sol)).values():
        assert np.abs(window - window[0]).max() == 0.0
    # the windows reproduce cutoff-built data exactly
    recon = sum_values(sol, 0)
    assert np.abs(recon - initial.values).max() <= 1e-14


def test_interaction_support_property(counterprop):
    model, grid, spectrum, initial = counterprop
    prob = ev.EvolutionProblem(model, [ev.cubic_conjugate(1.0)], 0.05, 0.2, grid, initial)
    sol = ia.solve_interaction_system(prob, spectrum, beta=BETA, epsilon=EPS)
    radius = sol.layout.radius
    k = grid.k_axis()
    for (l, theta) in sol.layout.keys:
        center = theta * spectrum.kvec(l)[0]
        f = component_field(sol, l, theta, len(sol.times) - 1)
        outside = np.abs(k - center) >= radius
        assert np.abs(f.values[:, outside]).max() == 0.0


@pytest.mark.filterwarnings("error")
def test_sum_consistency_improves_with_rho(counterprop):
    model, grid, spectrum, initial = counterprop
    cfg = ev.SolverConfig(substeps_per_rho=10)
    dists = []
    for rho in (0.04, 0.02):
        prob = ev.EvolutionProblem(model, [ev.cubic_conjugate(1.0)], rho, 0.2, grid, initial)
        full = ev.solve_integrated(prob, cfg)
        sol = ia.solve_interaction_system(prob, spectrum, cfg, beta=BETA, epsilon=EPS)
        d = 0.0
        kept = sol.sample_indices
        for fi, si in zip(range(len(full.times)), kept):
            d = max(d, l1_norm_values(sum_values(sol, si) - full.fields[fi].values, grid))
        dists.append(d)
    assert dists[1] <= 0.75 * dists[0]
    assert dists[0] <= 0.05


# -- averaged systems ---------------------------------------------------------------------

def test_averaged_nonresonant_state_constant(nls_model, full_states):
    grid = Grid(1, (512,), (4.0,))
    spectrum = rs.spectrum_from_list([[1, 0.9], [1, 1.7]])
    initial = doublet_sum(nls_model, grid, [0.9, 1.7])
    sets = ia.build_index_sets(spectrum, nls_model, [2])
    prob = ev.EvolutionProblem(nls_model, [ev.quadratic_conjugate(1.0)], 0.05, 0.2,
                               grid, initial)
    sol = ia.solve_averaged_system(prob, spectrum, sets, beta=BETA, epsilon=EPS)
    for window in by_window(sol.layout, full_states(sol)).values():
        assert np.abs(window - window[0]).max() == 0.0


def test_averaged_tracks_interaction_in_rho(counterprop):
    model, grid, spectrum, initial = counterprop
    cfg = ev.SolverConfig(substeps_per_rho=10)
    sets = ia.build_index_sets(spectrum, model, [3])
    dists = []
    for rho in (0.02, 0.01):
        prob = ev.EvolutionProblem(model, [ev.cubic_full(0.8)], rho, 0.2, grid, initial)
        w = ia.solve_interaction_system(prob, spectrum, cfg, beta=BETA, epsilon=EPS)
        v = ia.solve_averaged_system(prob, spectrum, sets, cfg, beta=BETA, epsilon=EPS)
        dists.append(ia.interaction_distance(v, w))
    assert dists[1] <= 0.75 * dists[0]


def test_diagonal_mode_separates(counterprop, full_states):
    model, grid, spectrum, initial = counterprop
    cfg = ev.SolverConfig(substeps_per_rho=10)
    sets = ia.build_index_sets(spectrum, model, [3])
    prob = ev.EvolutionProblem(model, [ev.cubic_conjugate(1.0)], 0.05, 0.2, grid, initial)
    joint = ia.solve_averaged_system(prob, spectrum, sets, cfg, beta=BETA, epsilon=EPS,
                                     mode="diagonal")
    for l in (1, 2):
        sub = spectrum.subset([l])
        sub_sets = ia.build_index_sets(sub, model, [3])
        single = ia.solve_averaged_system(prob, sub, sub_sets, cfg, beta=BETA,
                                          epsilon=EPS, mode="diagonal")
        for theta in (+1, -1):
            a = by_window(joint.layout, full_states(joint))[(l, theta)]
            b = by_window(single.layout, full_states(single))[(1, theta)]
            assert np.abs(a - b).max() <= 1e-12


def test_reduced_mode_requires_valid_partition(shg_model):
    from wavepax.errors import HypothesisViolated

    grid = Grid(1, (512,), (4.0,))
    spectrum = rs.spectrum_from_list([[1, 1.0], [1, 2.0]])
    initial = doublet_sum(shg_model, grid, [1.0, 2.0])
    sets = ia.build_index_sets(spectrum, shg_model, [2])
    prob = ev.EvolutionProblem(shg_model, [ev.quadratic_conjugate(0.5)], 0.05, 0.2,
                               grid, initial)
    with pytest.raises(HypothesisViolated):
        ia.solve_averaged_system(prob, spectrum, sets, beta=BETA, epsilon=EPS,
                                 mode="reduced", partition=[[1], [2]])


def test_reduced_mode_universal_partition_matches_diagonal(counterprop):
    model, grid, spectrum, initial = counterprop
    cfg = ev.SolverConfig(substeps_per_rho=10)
    sets = ia.build_index_sets(spectrum, model, [3])
    prob = ev.EvolutionProblem(model, [ev.cubic_conjugate(1.0)], 0.05, 0.2, grid, initial)
    # singleton parts of a universal spectrum: reduced == diagonal termwise
    red = sets.reduced([[1], [2]])
    diag = sets.diag()
    for key in red:
        assert {ix.entries for ix in red[key]} == {ix.entries for ix in diag[key]}
    out = ia.solve_averaged_system(prob, spectrum, sets, cfg, beta=BETA, epsilon=EPS,
                                   mode="reduced", partition=[[1], [2]])
    ref = ia.solve_averaged_system(prob, spectrum, sets, cfg, beta=BETA, epsilon=EPS,
                                   mode="diagonal")
    assert ia.interaction_distance(out, ref) == 0.0


# -- baseband evaluator ------------------------------------------------------------------

def oracle_integrand(problem, layout, sets_flat, states, taus, clip):
    """Literal-sum reference for ``MonomialEvaluator.integrand_chunk``.

    Every window is scattered onto the full grid and moved to the fast
    frame; each decorated index applies its susceptibility by the direct
    convolution sum; the summed terms go back to the slow frame and through
    the output window.
    """
    grid, model, rho = problem.grid, problem.model, problem.rho
    ncomp, x = model.ncomp, int(np.prod(grid.shape))
    by_order = {s.order: s for s in problem.nonlinearity}
    rows = {key: [] for key in layout.keys}
    for j, tau in enumerate(taus):
        fast = {}
        for key in layout.keys:
            full = np.zeros((ncomp, x), dtype=complex)
            full[:, layout.mask[key]] = states[key][j] * (layout.cut[key] if clip else 1.0)
            slow = ModalField(grid, full.reshape((ncomp,) + grid.shape))
            fast[key] = ev.fast_slow_transform(slow, model, rho, tau, "to_fast")
        for key in layout.keys:
            total = np.zeros((ncomp,) + grid.shape, dtype=complex)
            for m, index in sets_flat.get(key, []):
                fields = [fast[(l, z)] for z, l in index.entries]
                total += ev.apply_nonlinearity(fields, by_order[m], mode="direct-oracle").values
            back = ev.fast_slow_transform(ModalField(grid, total, frame="fast"), model, rho,
                                          tau, "to_slow")
            rows[key].append(back.values.reshape(ncomp, x))
    return {key: layout.window(key, np.stack(rows[key])) for key in layout.keys}


def _matrix_model():
    def symbol(k):
        return np.array([[k * k + 6.0, 1.0 + 0.5j], [1.0 - 0.5j, -(k * k) - 6.0]])

    return dsp.matrix_symbol_model(symbol, j_bands=1)


# (model, grid, beta, carrier range) per geometry: radius 2 beta^0.9 spans a
# few nodes, so products reach partly into and partly past the output windows
GEOMETRIES = {
    "scalar-1d": (lambda: dsp.model_from_config({"preset": "nls1d", "params": {"a0": 1.0}}),
                  Grid(1, (16,), (2.0,)), 0.3, 1.2),
    "matrix-1d": (_matrix_model, Grid(1, (16,), (2.0,)), 0.3, 1.2),
    "scalar-2d": (lambda: dsp.scalar_band_model([lambda k: (k ** 2).sum(axis=0) + 1.0], dim=2),
                  Grid(2, (8, 8), (2.0, 2.0)), 0.6, 0.8),
}


@pytest.mark.filterwarnings("ignore:component windows")
@pytest.mark.parametrize("geometry, chi", [
    ("scalar-1d", ev.quadratic_conjugate(0.7)),
    ("scalar-1d", ev.cubic_conjugate(1.3)),
    ("scalar-1d", ev.cubic_full(0.9)),
    ("matrix-1d", ev.quadratic_conjugate(0.7)),
    ("matrix-1d", ev.cubic_full(0.9)),
    ("scalar-2d", ev.quadratic_conjugate(1.1)),
])
@settings(max_examples=6, deadline=None)
@given(data=st.data())
def test_baseband_evaluator_matches_direct_oracle(geometry, chi, data):
    make_model, grid, beta, k_range = GEOMETRIES[geometry]
    model, m = make_model(), chi.order
    carriers = data.draw(st.lists(
        st.lists(st.floats(-k_range, k_range), min_size=grid.dim, max_size=grid.dim),
        min_size=1, max_size=2,
    ))
    assume(len(carriers) == 1 or np.linalg.norm(np.subtract(*carriers)) > 1e-3)
    spectrum = rs.spectrum_from_list([[1] + k for k in carriers])
    layout = ia.ComponentLayout(spectrum, model, grid, beta, EPS)
    slots = [(z, l) for l in range(1, spectrum.n_pairs + 1) for z in (1, -1)]
    # per output window, the index whose product lands closest to it and up to
    # three drawn from all (2N)^m, so some products miss the window entirely
    sets_flat = {}
    for l, theta in layout.keys:
        centre = theta * spectrum.kvec(l)
        every = sorted(itertools.product(slots, repeat=m), key=lambda entries: float(
            np.linalg.norm(sum(z * spectrum.kvec(s) for z, s in entries) - centre)))
        picks = data.draw(st.lists(st.integers(0, len(every) - 1), max_size=3, unique=True))
        sets_flat[(l, theta)] = [(m, rs.DecoratedIndex(every[i])) for i in sorted({0, *picks})]
    clip = data.draw(st.booleans())
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    x = int(np.prod(grid.shape))
    states = {
        key: layout.window(key, rng.normal(size=(2, model.ncomp, x))
                           + 1j * rng.normal(size=(2, model.ncomp, x)))
        for key in layout.keys
    }
    taus = np.sort(rng.uniform(0.0, 0.3, size=2))
    problem = ev.EvolutionProblem(model, [chi], 0.05, 0.3, grid,
                                  ModalField(grid, np.zeros((model.ncomp,) + grid.shape)))

    got = by_window(layout, ia.MonomialEvaluator(problem, layout, sets_flat, clip)
                    .integrand_chunk(joined(layout, states), taus))
    want = oracle_integrand(problem, layout, sets_flat, states, taus, clip)
    scale = max(np.abs(v).max(initial=0.0) for v in want.values())
    # bound on any convolution value, also of products landing off the grid;
    # round-off relative to it keeps an all-zero reference comparable
    mods = [np.sqrt((np.abs(v) ** 2).sum(axis=1)) for v in states.values()]
    bound = ((grid.cell / (2 * np.pi) ** grid.dim) ** (m - 1) * sup_norm(chi)
             * max(md.sum(axis=-1).max() for md in mods) ** (m - 1)
             * max(md.max() for md in mods))
    for key in layout.keys:
        err = np.abs(got[key] - want[key]).max(initial=0.0)
        assert err <= 1e-12 * scale + 1e-15 * bound


def quartic(q: float = 1.0) -> ev.Susceptibility:
    t = np.zeros((2,) * 5, dtype=complex)
    t[0, 0, 0, 1, 1], t[1, 1, 1, 0, 0] = 1j * q, -1j * q
    return ev.Susceptibility(order=4, tensor=t)


def every_index(spectrum, order):
    """Every decorated index of one order, as in the full interaction system."""
    slots = [(z, l) for l in range(1, spectrum.n_pairs + 1) for z in (1, -1)]
    return [(order, rs.DecoratedIndex(e)) for e in itertools.product(slots, repeat=order)]


@pytest.mark.parametrize("order, sets, size", [(3, "contributing", 288), (3, "every", 288),
                                               (2, None, 3072), (3, None, 4096),
                                               (4, None, 5184)],
                         ids=["averaging", "interaction", "whole-2", "whole-3", "whole-4"])
def test_baseband_grid_is_smallest_unwrapped_smooth_size(nls_model, order, sets, size):
    # acceptance geometry: a cubic product of 129-node windows spans 3 * 128 + 1
    # nodes centred on its 129-node output window, so P > 256 and P = 2^5 * 9;
    # products of all decorated indices whose boxes miss the window are
    # dropped first, so the full interaction system keeps that P; on the
    # whole grid of n nodes, products need P >= (m + 1) n / 2: 3072 = 3 * 2^10,
    # 4096 and 5120 -> 5184 = 2^6 * 3^4
    grid = Grid(1, (2048,), (4.0,))
    chi = {2: ev.quadratic_conjugate(1.0), 3: ev.cubic_full(1.0), 4: quartic()}[order]
    initial = ModalField(grid, np.zeros((2, 2048)))
    prob = ev.EvolutionProblem(nls_model, [chi], 0.004, 0.25, grid, initial)
    if sets:
        spectrum = rs.spectrum_from_list([[1, 1.0], [1, -1.0]])
        layout = ia.ComponentLayout(spectrum, nls_model, grid, 0.1, 0.1)
        if sets == "every":
            sets_flat = dict.fromkeys(layout.keys, every_index(spectrum, order))
        else:
            index_sets = ia.build_index_sets(spectrum, nls_model, [order])
            sets_flat = index_sets.flat(index_sets.contributing)
        evaluator = ia.MonomialEvaluator(prob, layout, sets_flat, clip_arguments=sets != "every")
        assert {layout.mask[key].size for key in layout.keys} == {129}
        # a scalar window keeps only the jobs of its own band component; of
        # all decorated indices, products of two windows at its centre and one
        # opposite reach it: 6 distinct products
        for key, jobs in evaluator.jobs.items():
            assert {i for _, i, _ in jobs} == set(layout.comps[key])
            assert len(evaluator.plan.outs[key][0]) == (6 if sets == "every" else 2)
        plan = evaluator.plan
    else:
        plan = ev._problem_plan(prob)
    assert plan.tgrid.shape == (size,)
    assert plan.tgrid.dk == grid.dk


# every FFT length a plan may take up to 2^17: 2^a 3^b, a power of two or a multiple of 8
ALLOWED_SIZES = sorted(p for p in (2 ** a * 3 ** b for a in range(2, 18) for b in range(11))
                       if p <= 2 ** 17 and (p & (p - 1) == 0 or p % 8 == 0))


@settings(max_examples=300, deadline=None)
@given(need=st.integers(4, 10 ** 5))
def test_transform_size_is_the_smallest_allowed_length(need):
    assert transform_size(need) == min(p for p in ALLOWED_SIZES if p >= need)
    Grid(1, (transform_size(need),), (1.0,))


def test_evaluator_sums_susceptibilities_of_one_order(counterprop, rng):
    # the interaction system takes every susceptibility of an order; two
    # cubic terms act as their summed tensor
    model, grid, spectrum, initial = counterprop
    layout = ia.ComponentLayout(spectrum, model, grid, BETA, EPS)
    sets_flat = dict.fromkeys(layout.keys, every_index(spectrum, 3))
    pair = [ev.cubic_conjugate(1.0), ev.cubic_full(0.8)]
    summed = ev.Susceptibility(order=3, tensor=pair[0].tensor + pair[1].tensor)
    x = int(np.prod(grid.shape))
    states = {key: layout.window(key, rng.normal(size=(3, 2, x)) + 1j * rng.normal(size=(3, 2, x)))
              for key in layout.keys}
    taus = np.array([0.0, 0.07, 0.19])
    got, want = (
        by_window(layout, ia.MonomialEvaluator(
            ev.EvolutionProblem(model, chis, 0.05, 0.2, grid, initial), layout, sets_flat,
            clip_arguments=False).integrand_chunk(joined(layout, states), taus))
        for chis in (pair, [summed])
    )
    scale = max(np.abs(v).max() for v in want.values())
    assert scale > 0.0
    for key in layout.keys:
        assert np.abs(got[key] - want[key]).max() <= 1e-14 * scale


def test_evaluator_caches_window_phases_bitwise(counterprop, rng, monkeypatch):
    # each window's e^{-i tau L/rho} phases are kept for the chunk of times
    # of the last call: a repeated call on that chunk evaluates no
    # exponential and gives bitwise the integrand of the first, and a new
    # chunk drops the previous chunk's phases
    model, grid, spectrum, initial = counterprop
    layout = ia.ComponentLayout(spectrum, model, grid, BETA, EPS)
    sets_flat = dict.fromkeys(layout.keys, every_index(spectrum, 3))
    prob = ev.EvolutionProblem(model, [ev.cubic_full(0.8)], 0.05, 0.2, grid, initial)
    x = int(np.prod(grid.shape))
    states = joined(layout, {
        key: layout.window(key, rng.normal(size=(4, 2, x)) + 1j * rng.normal(size=(4, 2, x)))
        for key in layout.keys})
    taus = 0.0125 * np.arange(3, 7)
    evaluator = ia.MonomialEvaluator(prob, layout, sets_flat)
    first = evaluator.integrand_chunk(states, taus)
    exact = evaluator.tables.phases
    evaluated = []
    monkeypatch.setattr(evaluator.tables, "phases",
                        lambda *args: evaluated.append(args[1]) or exact(*args))
    second = evaluator.integrand_chunk(states, taus)
    assert evaluated == []
    other = evaluator.integrand_chunk(states, taus + 0.05)  # a new chunk needs its exponentials
    windows = len(evaluated)
    assert windows > 0
    again = evaluator.integrand_chunk(states, taus)  # and the first chunk's are gone
    assert len(evaluated) == 2 * windows
    first, second, other, again = (by_window(layout, g) for g in (first, second, other, again))
    for key in layout.keys:
        assert np.array_equal(second[key], first[key]) and np.array_equal(again[key], first[key])
        assert not np.array_equal(other[key], first[key])


@pytest.mark.parametrize("solver", ["interaction", "averaged"])
def test_windowed_solvers_refuse_callback_susceptibility(counterprop, solver):
    # the windowed evaluator convolves tensors only; a callback term must not
    # be integrated as zero
    model, grid, spectrum, initial = counterprop
    chi = ev.Susceptibility(order=3, callback=lambda k, kvecs: np.zeros((2,) * 4))
    prob = ev.EvolutionProblem(model, [chi], 0.05, 0.2, grid, initial)
    with pytest.raises(ValueError, match="tensor susceptibility"):
        if solver == "interaction":
            ia.solve_interaction_system(prob, spectrum, beta=BETA, epsilon=EPS)
        else:
            sets = ia.build_index_sets(spectrum, model, [3])
            ia.solve_averaged_system(prob, spectrum, sets, beta=BETA, epsilon=EPS)


@pytest.mark.parametrize("solver", ["interaction", "averaged"])
def test_windowed_solvers_refuse_direct_oracle(counterprop, solver):
    model, grid, spectrum, initial = counterprop
    cfg = ev.SolverConfig(convolution_mode="direct-oracle")
    prob = ev.EvolutionProblem(model, [ev.cubic_conjugate(1.0)], 0.05, 0.2, grid, initial)
    with pytest.raises(ValueError, match="FFT only"):
        if solver == "interaction":
            ia.solve_interaction_system(prob, spectrum, cfg, beta=BETA, epsilon=EPS)
        else:
            sets = ia.build_index_sets(spectrum, model, [3])
            ia.solve_averaged_system(prob, spectrum, sets, cfg, beta=BETA, epsilon=EPS)


# -- the parent's per-node Picard loops, kept as oracles ---------------------------------------
#
# ``solve_interaction_system``, ``solve_averaged_system`` and ``coupling_norm``
# used to run their own trapezoid and Picard loops node by node and window by
# window; these are those loops, kept literally (with their L1 formula and
# guards), so the shared driver can be compared with them.

def _component_l1(layout, win_vals):
    mod = np.sqrt((np.abs(win_vals) ** 2).sum(axis=0))
    return float(mod.sum() * layout.grid.cell)


def _running_sup(dist, d, distances):
    if not np.isfinite(d):
        raise PicardDiverged(f"non-finite Picard iterate (distance {d})", distances + [d])
    return max(dist, d)


def _picard_guard(distances, grow_run):
    if len(distances) >= 2 and distances[-1] > distances[-2]:
        grow_run += 1
        if grow_run >= 3 and distances[-1] > 10.0 * min(distances):
            raise PicardDiverged("interaction Picard distances growing", distances)
    else:
        grow_run = 0
    return grow_run


def parent_interaction_loop(problem, spectrum, config, beta, epsilon):
    layout = ia.ComponentLayout(spectrum, problem.model, problem.grid, beta, epsilon)
    tables = ev.PropagatorTables(problem.model, problem.grid, problem.rho)
    h, n = ev.time_mesh(problem, config)
    taus = h * np.arange(n + 1)
    plan = ev._problem_plan(problem)
    h_win = by_window(layout, ia._initial_windows(layout, problem))
    ncomp = problem.model.ncomp
    x = int(np.prod(problem.grid.shape))
    w_old = {
        key: np.broadcast_to(h_win[key], (n + 1,) + h_win[key].shape).copy()
        for key in layout.keys
    }
    w_new = {key: np.empty_like(w_old[key]) for key in layout.keys}
    distances = []
    grow_run = 0
    chunk = ia.AVERAGED_CHUNK
    for it in range(1, config.picard_max_iter + 1):
        integral = np.zeros((ncomp, x), dtype=complex)
        g_prev = None
        dist = 0.0
        for i0 in range(0, n + 1, chunk):
            i1 = min(i0 + chunk, n + 1)
            b = i1 - i0
            full = layout.embed({k: w_old[k][i0:i1] for k in layout.keys})
            g = ev._slow_rhs_chunk(
                full.reshape((b, ncomp) + problem.grid.shape), taus[i0:i1], h, problem,
                tables, plan, config.convolution_mode,
            ).reshape(b, ncomp, x)
            for j in range(b):
                if i0 + j > 0:
                    prev = g_prev if j == 0 else g[j - 1]
                    integral += 0.5 * h * (prev + g[j])
                stacked = integral[None]
                for key in layout.keys:
                    w_new[key][i0 + j] = h_win[key] + layout.window(key, stacked)[0]
                    dist = _running_sup(
                        dist,
                        _component_l1(layout, w_new[key][i0 + j] - w_old[key][i0 + j]),
                        distances,
                    )
            g_prev = g[-1]
        distances.append(dist)
        if dist <= config.picard_tol:
            return w_new, it, distances
        grow_run = _picard_guard(distances, grow_run)
        w_old, w_new = w_new, w_old
    raise AssertionError("the parent loop did not converge")


def parent_averaged_loop(problem, spectrum, sets, config, beta, epsilon):
    layout = ia.ComponentLayout(spectrum, problem.model, problem.grid, beta, epsilon)
    evaluator = ia.MonomialEvaluator(problem, layout, sets.flat(sets.contributing))
    h, n = ev.time_mesh(problem, config)
    taus = h * np.arange(n + 1)
    h_win = by_window(layout, ia._initial_windows(layout, problem))
    w_old = {
        key: np.broadcast_to(h_win[key], (n + 1,) + h_win[key].shape).copy()
        for key in layout.keys
    }
    w_new = {key: np.empty_like(w_old[key]) for key in layout.keys}
    distances = []
    grow_run = 0
    chunk = ia.AVERAGED_CHUNK
    for it in range(1, config.picard_max_iter + 1):
        integral = {key: np.zeros_like(h_win[key]) for key in layout.keys}
        g_prev = None
        dist = 0.0
        for i0 in range(0, n + 1, chunk):
            i1 = min(i0 + chunk, n + 1)
            g = by_window(layout, evaluator.integrand_chunk(
                joined(layout, {k: w_old[k][i0:i1] for k in layout.keys}), taus[i0:i1]))
            for j in range(i1 - i0):
                for key in layout.keys:
                    if i0 + j > 0:
                        prev = g_prev[key][-1] if j == 0 else g[key][j - 1]
                        integral[key] += 0.5 * h * (prev + g[key][j])
                    w_new[key][i0 + j] = h_win[key] + integral[key]
                    dist = _running_sup(
                        dist,
                        _component_l1(layout, w_new[key][i0 + j] - w_old[key][i0 + j]),
                        distances,
                    )
            g_prev = {key: g[key][-1:] for key in layout.keys}
        distances.append(dist)
        if dist <= config.picard_tol:
            return w_new, it, distances
        grow_run = _picard_guard(distances, grow_run)
        w_old, w_new = w_new, w_old
    raise AssertionError("the parent loop did not converge")


def parent_coupling_norm(solution, index_sets, data):
    coup = index_sets.flat(index_sets.coupling(None))
    layout = solution.layout
    evaluator = ia.MonomialEvaluator(solution.problem, layout, coup)
    n = len(solution.times) - 1
    h = solution.times[1] - solution.times[0]
    integral = {key: np.zeros_like(w[0]) for key, w in by_window(layout, data).items()}
    sup = {key: 0.0 for key in layout.keys}
    g_prev = None
    chunk = ia.AVERAGED_CHUNK
    for i0 in range(0, n + 1, chunk):
        i1 = min(i0 + chunk, n + 1)
        g = by_window(layout, evaluator.integrand_chunk(data[i0:i1], solution.times[i0:i1]))
        for j in range(i1 - i0):
            for key in layout.keys:
                if i0 + j > 0:
                    prev = g_prev[key][-1] if j == 0 else g[key][j - 1]
                    integral[key] += 0.5 * h * (prev + g[key][j])
                sup[key] = max(sup[key], _component_l1(layout, integral[key]))
        g_prev = {key: g[key][-1:] for key in layout.keys}
    return float(sum(sup.values()))


@pytest.mark.parametrize("chi, carriers", [
    (ev.cubic_conjugate(1.0), [1.0, -1.0]),
    (ev.cubic_full(0.8), [1.0, -1.0]),
    (ev.cubic_conjugate(1.0), [1.0, 0.37]),
    (ev.cubic_full(0.8), [1.0, 0.37]),
], ids=["chi0", "chi1", "chi0-unequal", "chi1-unequal"])
def test_solvers_match_parent_loops(nls_model, chi, carriers, monkeypatch, full_states):
    # 41 mesh nodes: one full chunk of 32 and a short one of 9; carriers
    # 1 and 0.37 give windows of 37, 37, 38 and 38 nodes
    model, grid = nls_model, Grid(1, (512,), (4.0,))
    spectrum = rs.spectrum_from_list([[1, k] for k in carriers])
    initial = doublet_sum(model, grid, carriers)
    cfg = ev.SolverConfig(substeps_per_rho=10)
    sets = ia.build_index_sets(spectrum, model, [3])
    prob = ev.EvolutionProblem(model, [chi], 0.05, 0.2, grid, initial)
    # every case is conjugation-symmetric, so the solves would run on half
    # states (test_half_windowed_solve_matches_the_full_state); the parent
    # loops are compared with the full-state path
    layout = ia.ComponentLayout(spectrum, model, grid, BETA, EPS)
    assert (ia._symmetric_sets(prob, layout, sets.flat(sets.contributing))
            and layout.mirrored(ia._initial_windows(layout, prob)))
    monkeypatch.setattr(ia, "_symmetric_terms", lambda problem: None)
    w = ia.solve_interaction_system(prob, spectrum, cfg, beta=BETA, epsilon=EPS)
    v = ia.solve_averaged_system(prob, spectrum, sets, cfg, beta=BETA, epsilon=EPS)
    assert len(w.times) == 41
    # the interaction system sums window convolutions and projects node by
    # node where the parent convolved the windows' sum on the whole grid and
    # projected the integral, so it matches to rounding
    data, iterations, distances = parent_interaction_loop(prob, spectrum, cfg, BETA, EPS)
    scale = max(np.abs(data[key]).max() for key in w.layout.keys)
    w_data = by_window(w.layout, full_states(w))
    assert all(np.abs(w_data[key] - data[key]).max() <= 1e-12 * scale for key in w.layout.keys)
    assert w.iterations == iterations
    np.testing.assert_allclose(w.distances, distances, rtol=1e-12, atol=1e-14)
    # the averaged system keeps the parent's arithmetic exactly
    data, iterations, distances = parent_averaged_loop(prob, spectrum, sets, cfg, BETA, EPS)
    v_data = by_window(v.layout, full_states(v))
    assert all(np.array_equal(v_data[key], data[key]) for key in v.layout.keys)
    assert v.iterations == iterations
    np.testing.assert_allclose(v.distances, distances, rtol=1e-12, atol=0.0)
    coupling = ia.coupling_norm(v, sets)
    assert coupling > 0.0
    assert coupling == pytest.approx(parent_coupling_norm(v, sets, full_states(v)), rel=1e-12,
                                     abs=0.0)


# -- half windowed solves ---------------------------------------------------------------------

def mirrored_values(rng, grid, c):
    """Random (C, X) values with U_-(k) = conj U_+(-k) in each band pair and 0 at -k_max."""
    mirror, lone = grid_mirror(grid)
    plus = rng.normal(size=(c // 2, mirror.size)) + 1j * rng.normal(size=(c // 2, mirror.size))
    plus[:, lone] = 0
    values = np.empty((c, mirror.size), dtype=complex)
    values[0::2], values[1::2] = plus, np.conj(plus[:, mirror])
    return values


def mirrored_tensor(rng, order, c):
    """A random tensor with T[i'; a', b', ...] = conj T[i; a, b, ...] (' swaps 2n and 2n+1)."""
    shape = (c,) * (order + 1)
    t = (rng.normal(size=shape) + 1j * rng.normal(size=shape)) * (rng.random(shape) < 0.5)
    t /= max(np.abs(t).sum() / c, 1e-300)
    swap = np.arange(c) ^ 1
    t[1::2] = np.conj(t[np.ix_(*[swap] * (order + 1))])[1::2]
    return t


def full_state_path(monkeypatch):
    """Make every windowed solve and coupling norm run on the full state."""
    monkeypatch.setattr(ia, "_symmetric_terms", lambda problem: None)


def same_solution(a, b):
    return (a.iterations == b.iterations and a.distances == b.distances
            and a.half == b.half and np.array_equal(a.states, b.states))


@pytest.mark.filterwarnings("ignore:component windows")
# No shrink phase: shrinking re-runs two windowed solves per step, so a
# failure took minutes to report; it is reported as first found.
@settings(max_examples=100, deadline=None,
          phases=(Phase.explicit, Phase.reuse, Phase.generate, Phase.target))
@given(
    model=st.sampled_from(["nls1d", "twoband"]),
    n=st.sampled_from([32, 64]),
    order=st.sampled_from([2, 3]),
    system=st.sampled_from(["interaction", "averaged", "random"]),
    clip=st.booleans(),
    amp=st.floats(0.1, 1.0),
    tau=st.floats(0.05, 0.3),
    rho=st.floats(0.05, 0.5),
    data=st.data(),
)
def test_half_windowed_solve_matches_the_full_state(model, n, order, system, clip, amp, tau, rho,
                                                    data, full_states):
    # random conjugation-symmetric windowed problems: the solve on the (l, +1)
    # windows' + components, expanded, is the full-state solve to rounding;
    # so is the coupling norm of the averaged system
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    m = dsp.model_from_config({"nls1d": {"preset": "nls1d", "params": {"a2": 1.0, "a0": 1.0}},
                               "twoband": {"preset": "twoband", "params": {
                                   "c1": 1.0, "d1": 0.5, "c2": 2.0, "d2": 1.5}}}[model])
    grid, c = Grid(1, (n,), (2.0,)), m.ncomp
    carriers = [[band, sign * k] for band, k, sign in data.draw(st.lists(
        st.tuples(st.integers(1, c // 2), st.floats(0.3, 0.9), st.sampled_from([1, -1])),
        min_size=1, max_size=2))]
    assume(len(carriers) == 1 or carriers[0][0] != carriers[1][0]
           or abs(carriers[0][1] - carriers[1][1]) > 1e-3)
    spectrum = rs.spectrum_from_list(carriers)
    beta = data.draw(st.floats(0.25, 0.4))
    susc = data.draw(st.sampled_from(
        ["quadratic_conjugate", "random"] if order == 2 else ["cubic_full", "cubic_conjugate",
                                                              "random"]))
    susc = {"quadratic_conjugate": lambda: ev.quadratic_conjugate(1.0, c // 2),
            "cubic_full": lambda: ev.cubic_full(1.0, c // 2),
            "cubic_conjugate": lambda: ev.cubic_conjugate(1.0, c // 2),
            "random": lambda: ev.Susceptibility(order, mirrored_tensor(rng, order, c))}[susc]()
    u = mirrored_values(rng, grid, c)
    problem = ev.EvolutionProblem(m, [susc], rho, tau, grid,
                                  ModalField(grid, u * (amp / np.abs(u).max())))
    layout = ia.ComponentLayout(spectrum, m, grid, beta, EPS)
    slots = [(z, l) for l in range(1, spectrum.n_pairs + 1) for z in (1, -1)]
    every = [(order, rs.DecoratedIndex(e)) for e in itertools.product(slots, repeat=order)]
    index_sets = ia.build_index_sets(spectrum, m, [order])
    if system == "interaction":
        sets_flat = dict.fromkeys(layout.keys, every)
    elif system == "averaged":
        sets_flat = index_sets.flat(index_sets.contributing)
    else:
        # a drawn set per (l, +1) window, negated in another order for (l, -1)
        sets_flat = {}
        for l in range(1, spectrum.n_pairs + 1):
            picks = data.draw(st.lists(st.sampled_from(every), max_size=4, unique=True))
            sets_flat[(l, 1)] = picks
            sets_flat[(l, -1)] = [(o, ix.negated()) for o, ix in picks[::-1]]
    event(f"{system}, clip {clip}")
    config = ev.SolverConfig(picard_tol=1e-11)
    assert (ia._symmetric_sets(problem, layout, sets_flat)
            and layout.mirrored(ia._initial_windows(layout, problem)))
    half, _ = ia._solve_windowed(problem, spectrum, config, beta, EPS, sets_flat, clip)
    with pytest.MonkeyPatch.context() as mp:
        full_state_path(mp)
        full, _ = ia._solve_windowed(problem, spectrum, config, beta, EPS, sets_flat, clip)
        full_coupling = ia.coupling_norm(full, index_sets) if system == "averaged" else None
    assert half.iterations == full.iterations
    scale = np.abs(full_states(full)).max()
    assert np.abs(full_states(half) - full_states(full)).max() <= 1e-13 * scale
    got, want = np.array(half.distances), np.array(full.distances)
    assert np.all((np.abs(got - want) <= 1e-12 * want) | (np.abs(got - want) <= 1e-14))
    if full_coupling is not None:
        coupling = ia.coupling_norm(half, index_sets)
        assert abs(coupling - full_coupling) <= 1e-12 * full_coupling + 1e-14


def test_asymmetric_windowed_inputs_take_the_full_path(nls_model, monkeypatch):
    # each input breaks one condition of the exact symmetry test and is
    # solved bitwise as on the full state; the reference input passes it
    grid = Grid(1, (64,), (2.0,))
    spectrum = rs.spectrum_from_list([[1, 0.7]])
    beta = 0.3
    h = doublet_sum(nls_model, grid, [0.7], beta=beta, amp=0.5)
    chi = ev.cubic_full(1.0)
    slots = [(1, 1), (-1, 1)]
    every = [(3, rs.DecoratedIndex(e)) for e in itertools.product(slots, repeat=3)]
    sets_flat = {(1, 1): every, (1, -1): [(3, ix.negated()) for _, ix in every]}
    off = h.values.copy()
    j = ia.ComponentLayout(spectrum, nls_model, grid, beta, EPS).mask[(1, -1)][3]
    off[1, j] = np.nextafter(off[1, j].real, np.inf) + 1j * off[1, j].imag

    def shifted(grid, center, radius):
        # the window at -k_1 one node off the mirror of the one at +k_1
        cut = wp.build_cutoff(grid, center, radius)
        return np.roll(cut, 1) if np.ravel(center)[0] < 0 else cut

    cases = [
        ("symmetric", nls_model, chi, h.values, sets_flat, None),
        ("one shifted window", nls_model, chi, h.values, sets_flat, shifted),
        ("tensor phase", nls_model, ev.Susceptibility(3, chi.tensor * np.exp(0.3j)), h.values,
         sets_flat, None),
        ("set not negated", nls_model, chi, h.values,
         {**sets_flat, (1, -1): sets_flat[(1, -1)][:-1]}, None),
        ("one ulp off the mirror", nls_model, chi, off, sets_flat, None),
        ("matrix symbol", _matrix_model(), chi, h.values, sets_flat, None),
    ]
    for name, model, susc, values, sets, cutoff in cases:
        with pytest.MonkeyPatch.context() as mp:
            if cutoff is not None:
                mp.setattr(ia, "build_cutoff", cutoff)
            problem = ev.EvolutionProblem(model, [susc], 0.05, 0.2, grid, ModalField(grid, values))
            layout = ia.ComponentLayout(spectrum, model, grid, beta, EPS)
            windows = ia._initial_windows(layout, problem)
            assert (ia._symmetric_sets(problem, layout, sets)
                    and layout.mirrored(windows)) == (name == "symmetric"), name
            if name == "symmetric":
                continue
            solved, _ = ia._solve_windowed(problem, spectrum, None, beta, EPS, sets, True)
            full_state_path(mp)
            assert same_solution(solved, ia._solve_windowed(problem, spectrum, None, beta, EPS,
                                                            sets, True)[0]), name


# -- half-state storage -----------------------------------------------------------------------

def parent_expand(layout, half):
    """The parent's ``ComponentLayout.expand``: the (..., C, W) values of half states."""
    out = np.zeros(half.shape[:-2] + (layout.model.ncomp, layout.width), dtype=complex)
    for minus, plus in layout.partner.items():
        src = half[..., layout.half_segments[plus]]
        out[..., 0::2, layout.segments[plus]] = src
        for c in layout.comps[plus]:
            np.conjugate(src[..., c // 2, ::-1], out=out[..., c ^ 1, layout.segments[minus]])
    return out


def parent_distance(layout, a, b):
    """The parent's ``interaction_distance`` of full (n+1, C, W) trajectories."""
    cell = layout.grid.cell
    rows = [slice(i, i + ia.AVERAGED_CHUNK) for i in range(0, len(a), ia.AVERAGED_CHUNK)]
    return sum(float(np.max([ev._node_l1(a[r, :, seg] - b[r, :, seg], cell).max() for r in rows]))
               for seg in layout.segments.values())


def parent_coupling(problem, layout, times, data, index_sets):
    """The parent's ``coupling_norm`` of a full (n+1, C, W) trajectory."""
    coup = index_sets.flat(index_sets.coupling(None))
    if not any(coup.values()):
        return 0.0
    half = ia._symmetric_sets(problem, layout, coup) and layout.mirrored(data)
    evaluator = ia.MonomialEvaluator(problem, layout, coup, half=half)
    data, segments = ((layout.halve(data), layout.half_segments) if half
                      else (data, layout.segments))
    level = ev._Level(segments.values())
    ev._trapezoid_pass(evaluator.integrand_chunk, data, np.zeros_like(data[0]), times[1] - times[0],
                       ia.AVERAGED_CHUNK, problem.grid.cell, False, level)
    sup = dict(zip(segments, level.sup.tolist()))
    partner = layout.partner if half else {}
    return float(sum(sup[partner.get(key, key)] for key in layout.keys))


@pytest.mark.filterwarnings("ignore:component windows")
# No shrink phase, as for the half windowed solves.
@settings(max_examples=200, deadline=None,
          phases=(Phase.explicit, Phase.reuse, Phase.generate, Phase.target))
@given(
    model=st.sampled_from(["nls1d", "twoband"]),
    order=st.sampled_from([2, 3]),
    steps=st.integers(1, 80),
    storage=st.sampled_from(["half/half", "half/full", "full/half", "full/full"]),
    bump=st.sampled_from([None, 1, -1]),
    asymmetric=st.booleans(),
    data=st.data(),
)
def test_half_storage_is_bitwise_the_full_data_formulas(model, order, steps, storage, bump,
                                                        asymmetric, data):
    # random mirrored trajectories a and b held as half or full states:
    # per-component samples, distances and coupling norms are bitwise the
    # parent's formulas on the full data.  A bump on one window of b's full
    # data puts the distance's largest window there; asymmetric coupling
    # sets integrate a half solution on its full states, a block at a time
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    m = dsp.model_from_config({"nls1d": {"preset": "nls1d", "params": {"a2": 1.0, "a0": 1.0}},
                               "twoband": {"preset": "twoband", "params": {
                                   "c1": 1.0, "d1": 0.5, "c2": 2.0, "d2": 1.5}}}[model])
    grid, c = Grid(1, (64,), (2.0,)), m.ncomp
    carriers = [[band, sign * k] for band, k, sign in data.draw(st.lists(
        st.tuples(st.integers(1, c // 2), st.floats(0.3, 0.9), st.sampled_from([1, -1])),
        min_size=1, max_size=2))]
    assume(len(carriers) == 1 or carriers[0][0] != carriers[1][0]
           or abs(carriers[0][1] - carriers[1][1]) > 1e-3)
    spectrum = rs.spectrum_from_list(carriers)
    problem = ev.EvolutionProblem(m, [ev.Susceptibility(order, mirrored_tensor(rng, order, c))],
                                  0.1, 0.2, grid, ModalField(grid, mirrored_values(rng, grid, c)))
    layout = ia.ComponentLayout(spectrum, m, grid, 0.3, EPS)
    slots = [(z, l) for l in range(1, spectrum.n_pairs + 1) for z in (1, -1)]
    every = [rs.DecoratedIndex(e) for e in itertools.product(slots, repeat=order)]
    contributing = {}
    for l in range(1, spectrum.n_pairs + 1):
        picks = data.draw(st.lists(st.sampled_from(every), min_size=1, max_size=4, unique=True))
        contributing[(l, 1, order)] = picks
        contributing[(l, -1, order)] = [ix.negated() for ix in picks[::-1]]
    if asymmetric:
        contributing[(1, -1, order)] = contributing[(1, -1, order)] + [data.draw(st.sampled_from(
            every))]
    index_sets = ia.InteractionIndexSets(spectrum, [order], 0.0, {}, contributing)

    def half_trajectory():
        # the rows a + window does not hold are 0, as in a half solution
        half = 0.3 * (rng.normal(size=(steps + 1, c // 2, layout.width // 2))
                      + 1j * rng.normal(size=(steps + 1, c // 2, layout.width // 2)))
        for plus in layout.partner.values():
            held = [comp // 2 for comp in layout.comps[plus]]
            half[:, [r for r in range(c // 2) if r not in held], layout.half_segments[plus]] = 0
        return half

    times = 0.2 / steps * np.arange(steps + 1)

    def solution(states, half):
        return ia.InteractionSolution(spectrum, layout, problem, times, states, half, 0, [], None)

    half_a, half_b = half_trajectory(), half_trajectory()
    full_a, full_b = parent_expand(layout, half_a), parent_expand(layout, half_b)
    assert np.array_equal(layout.expand(half_a), full_a)
    a_half, b_half = (side == "half" for side in storage.split("/"))
    if bump is not None and not b_half:
        keys = [key for key in layout.keys if key[1] == bump]
        seg = layout.segments[keys[data.draw(st.integers(0, len(keys) - 1))]]
        full_b[data.draw(st.integers(0, steps)), :, seg] += 10.0
    a = solution(half_a, True) if a_half else solution(full_a, False)
    b = solution(half_b, True) if b_half else solution(full_b, False)

    for key in layout.keys:
        rows = data.draw(st.lists(st.integers(0, steps), min_size=1, max_size=5))
        got = a.component_samples(*key, rows)
        want = full_a[rows, :, layout.segments[key]]
        assert got.values.shape == want.shape and np.array_equal(got.values, want)
        assert np.array_equal(got.nodes, layout.mask[key])
    per_key = {key: parent_distance(layout, full_a[..., seg], full_b[..., seg])
               for key, seg in layout.segments.items()}
    event(f"distance max on theta {max(per_key, key=per_key.get)[1]}, {storage}")
    assert ia.interaction_distance(a, b) == parent_distance(layout, full_a, full_b)
    assert ia.interaction_distance(b, a) == parent_distance(layout, full_b, full_a)
    want = parent_coupling(problem, layout, times, full_a, index_sets)
    event(f"coupling {'zero' if want == 0.0 else 'nonzero'}, asymmetric {asymmetric}, "
          f"a {storage[:4]}")
    assert ia.coupling_norm(a, index_sets) == want


def test_asymmetric_solve_keeps_full_states(nls_model):
    # a tensor phase breaks the equation's conjugation symmetry: the solution
    # holds (n+1, C, W) full states
    grid = Grid(1, (64,), (2.0,))
    spectrum = rs.spectrum_from_list([[1, 0.7]])
    h = doublet_sum(nls_model, grid, [0.7], beta=0.3, amp=0.5)
    chi = ev.cubic_full(1.0)
    problem = ev.EvolutionProblem(nls_model, [ev.Susceptibility(3, chi.tensor * np.exp(0.3j))],
                                  0.05, 0.2, grid, h)
    sol = ia.solve_interaction_system(problem, spectrum, beta=0.3, epsilon=EPS)
    assert not sol.half
    assert sol.states.shape == (len(sol.times), nls_model.ncomp, sol.layout.width)


# -- coupling norm ----------------------------------------------------------------------

def test_coupling_norm_single_pair_zero(nls_model):
    grid = Grid(1, (512,), (4.0,))
    spectrum = rs.spectrum_from_list([[1, 1.0]])
    initial = doublet_sum(nls_model, grid, [1.0])
    sets = ia.build_index_sets(spectrum, nls_model, [3])
    prob = ev.EvolutionProblem(nls_model, [ev.cubic_conjugate(1.0)], 0.05, 0.2,
                               grid, initial)
    sol = ia.solve_averaged_system(prob, spectrum, sets, beta=BETA, epsilon=EPS)
    assert ia.coupling_norm(sol, sets) == 0.0


def test_coupling_norm_identical_velocities_reports_value(nls_model):
    # merged carriers +-k with coincident positions: outside the smallness
    # hypotheses, the value is simply reported
    grid = Grid(1, (512,), (4.0,))
    spectrum = rs.spectrum_from_list([[1, 1.0], [1, -1.0]])
    initial = doublet_sum(nls_model, grid, [1.0, -1.0])
    sets = ia.build_index_sets(spectrum, nls_model, [3])
    prob = ev.EvolutionProblem(nls_model, [ev.cubic_full(1.0)], 0.05, 0.2, grid, initial)
    sol = ia.solve_averaged_system(prob, spectrum, sets, beta=BETA, epsilon=EPS)
    value = ia.coupling_norm(sol, sets)
    assert np.isfinite(value) and value >= 0.0


def test_coupling_norm_leaves_the_solution_unchanged(counterprop):
    model, grid, spectrum, initial = counterprop
    sets = ia.build_index_sets(spectrum, model, [3])
    prob = ev.EvolutionProblem(model, [ev.cubic_full(0.8)], 0.05, 0.2, grid, initial)
    sol = ia.solve_averaged_system(prob, spectrum, sets, ev.SolverConfig(substeps_per_rho=10),
                                   beta=BETA, epsilon=EPS)
    before = sol.states.copy()
    value = ia.coupling_norm(sol, sets)
    assert value > 0.0
    assert np.array_equal(sol.states, before)
    assert ia.coupling_norm(sol, sets) == value


# -- homogeneity ---------------------------------------------------------------------------

def test_homogeneity_universal(counterprop, rng):
    model, grid, spectrum, initial = counterprop
    sets = ia.build_index_sets(spectrum, model, [3])
    prob = ev.EvolutionProblem(model, [ev.cubic_full(1.0)], 0.05, 0.2, grid, initial)
    tuples = [rng.uniform(-np.pi, np.pi, size=2) for _ in range(20)]
    disc = ia.homogeneity_check(prob, spectrum, sets, tuples, beta=BETA, epsilon=EPS,
                                n_times=4)
    assert disc <= 1e-10


def test_homogeneity_zero_phases_identity(counterprop):
    model, grid, spectrum, initial = counterprop
    sets = ia.build_index_sets(spectrum, model, [3])
    prob = ev.EvolutionProblem(model, [ev.cubic_conjugate(1.0)], 0.05, 0.2, grid, initial)
    disc = ia.homogeneity_check(prob, spectrum, sets, [np.zeros(2)], beta=BETA,
                                epsilon=EPS, n_times=3)
    assert disc == 0.0


def test_homogeneity_conditional_spectrum(shg_model, rng):
    grid = Grid(1, (512,), (4.0,))
    spectrum = rs.spectrum_from_list([[1, 1.0], [1, 2.0]])
    initial = doublet_sum(shg_model, grid, [1.0, 2.0])
    sets = ia.build_index_sets(spectrum, shg_model, [2])
    prob = ev.EvolutionProblem(shg_model, [ev.quadratic_conjugate(1.0)], 0.05, 0.2,
                               grid, initial)
    constrained = []
    generic = []
    for _ in range(6):
        p1 = rng.uniform(-np.pi / 2, np.pi / 2)
        constrained.append(np.array([p1, 2 * p1]))
        generic.append(rng.uniform(0.5, np.pi / 2, size=2) * np.array([1.0, -1.0]))
    assert ia.homogeneity_check(prob, spectrum, sets, constrained, beta=BETA,
                                epsilon=EPS, n_times=3) <= 1e-10
    assert ia.homogeneity_check(prob, spectrum, sets, generic, beta=BETA,
                                epsilon=EPS, n_times=3) >= 1e-2


# -- particle norm along trajectories ---------------------------------------------------------

def test_particle_norm_bounded_along_averaged_run(counterprop):
    model, grid, spectrum, initial = counterprop
    sets = ia.build_index_sets(spectrum, model, [3])
    prob = ev.EvolutionProblem(model, [ev.cubic_conjugate(1.0)], 0.05, 0.2, grid, initial)
    sol = ia.solve_averaged_system(prob, spectrum, sets, beta=BETA, epsilon=EPS)
    norms = []
    for i in sol.sample_indices:
        comps, positions = [], []
        for l in (1, 2):
            for theta in (+1, -1):
                comps.append(component_field(sol, l, theta, i))
                positions.append(np.zeros(1))
        norms.append(wp.particle_norm(comps, positions, BETA, EPS))
    assert max(norms) <= 2.0 * norms[0]


def test_batched_particle_norms_are_the_per_sample_norms(counterprop):
    # the kept samples of each component on its window, in one batch, give
    # bitwise the norms of the full-grid component fields sample by sample
    model, grid, spectrum, initial = counterprop
    sets = ia.build_index_sets(spectrum, model, [3])
    prob = ev.EvolutionProblem(model, [ev.cubic_conjugate(1.0)], 0.05, 0.2, grid, initial)
    sol = ia.solve_averaged_system(prob, spectrum, sets, beta=BETA, epsilon=EPS)
    keys = [(l, theta) for l in (1, 2) for theta in (+1, -1)]
    positions = [np.array([3.0 * l - 2.0 * theta]) for l, theta in keys]
    batched = wp.particle_norm([sol.component_samples(l, theta, sol.sample_indices)
                                for l, theta in keys], positions, BETA, EPS)
    loop = [wp.particle_norm([component_field(sol, l, theta, i) for l, theta in keys],
                             positions, BETA, EPS)
            for i in sol.sample_indices]
    assert len(loop) > 2 and batched.tolist() == loop


def test_averaging_peak_is_two_half_trajectories(nls_model):
    # the traced peak of one 512-node averaging operation (interaction and
    # averaged solves, coupling norm, distance) stays below its two half
    # trajectories plus 8 chunk-sized (32, C, W) arrays: no whole trajectory
    # is expanded (that peaked 39 such arrays above the two half trajectories)
    grid = Grid(1, (512,), (4.0,))
    spectrum = rs.spectrum_from_list([[1, 1.0], [1, -1.0]])
    initial = doublet_sum(nls_model, grid, [1.0, -1.0], beta=0.1)
    problem = ev.EvolutionProblem(nls_model, [ev.cubic_full(1.0)], 0.004, 0.25, grid, initial)
    config = ev.SolverConfig(picard_tol=3e-10)
    sets = ia.build_index_sets(spectrum, nls_model, [3])

    def operation():
        w = ia.solve_interaction_system(problem, spectrum, config, beta=0.1, epsilon=EPS)
        v = ia.solve_averaged_system(problem, spectrum, sets, config, beta=0.1, epsilon=EPS)
        ia.coupling_norm(v, sets)
        ia.interaction_distance(v, w)
        return v

    operation()  # tables and caches that outlive an operation are filled here
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        v = operation()
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    layout = v.layout
    assert v.half and v.states.shape == (626, 1, layout.width // 2)
    chunk = ia.AVERAGED_CHUNK * nls_model.ncomp * layout.width * 16
    assert peak < 2 * v.states.nbytes + 8 * chunk


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid:RuntimeWarning")
@pytest.mark.parametrize("solver", ["full", "interaction", "averaged"])
def test_overflowing_iterate_raises_picard_diverged(nls_model, solver):
    # amplitude 1e60 overflows the cubic term on the first iteration; the
    # solvers must not report the NaN iterate as converged
    grid = Grid(1, (64,), (2.0,))
    spec = wp.WavepacketSpec(n=1, k_star=1.0, r_star=0.0, beta=0.5, epsilon=EPS,
                             envelope=wp.Envelope("gaussian", 0.5, 1e60))
    initial = wp.build_wavepacket(spec, nls_model, grid)
    prob = ev.EvolutionProblem(nls_model, [ev.cubic_conjugate(1.0)], 0.1, 0.25, grid, initial)
    spectrum = rs.spectrum_from_list([[1, 1.0]])
    with pytest.raises(PicardDiverged) as err:
        if solver == "full":
            ev.solve_integrated(prob)
        elif solver == "interaction":
            ia.solve_interaction_system(prob, spectrum, beta=0.5, epsilon=EPS)
        else:
            sets = ia.build_index_sets(spectrum, nls_model, [3])
            ia.solve_averaged_system(prob, spectrum, sets, beta=0.5, epsilon=EPS)
    history = err.value.args[1]
    assert history and not np.isfinite(history[-1])
