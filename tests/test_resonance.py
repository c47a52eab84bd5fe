import itertools
import json
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from wavepax import dispersion as dsp
from wavepax import resonance as rs
from wavepax.cli import main as cli_main
from wavepax.errors import (BandCrossing, BandCrossingAtOutput, EnumerationCapExceeded,
                            WavepaxError)

ROOT = Path(__file__).resolve().parents[1]


def model(a0):
    return dsp.model_from_config({"preset": "nls1d", "params": {"a2": 1.0, "a0": a0}})


def idx(*entries):
    return rs.DecoratedIndex(tuple(entries))


# -- per-index oracles --------------------------------------------------------------
#
# Only the tests use these: the enumeration reads the same sums off the
# candidate tables (``rs._candidates``).

def _all_indices(n_pairs, m):
    """All decorated indices of order m, in a fixed lexicographic order."""
    entries = [(z, l) for l in range(1, n_pairs + 1) for z in (+1, -1)]
    for combo in itertools.product(entries, repeat=m):
        yield rs.DecoratedIndex(combo)


def _kappa(index, spectrum):
    """Signed sum of carrier wavevectors of an index."""
    out = np.zeros(spectrum.dim)
    for z, l in index.entries:
        out = out + z * spectrum.kvec(l)
    return float(out[0]) if spectrum.dim == 1 else out


def _omega_combination(index, spectrum, model):
    """Signed sum of positive-branch band frequencies of an index."""
    return float(
        sum(z * dsp.eval_omega(model, spectrum.band(l), +1, spectrum.kvec(l)) for z, l in index.entries)
    )


def _contains_pair(spectrum, n, k):
    """1-based index of the pair equal to (n, k) under tol_k, else None."""
    for l, (nl, kl) in enumerate(spectrum.pairs, start=1):
        if nl == n and np.linalg.norm(kl - k) <= spectrum.tol_k:
            return l
    return None


# -- kappa / omega combinations -------------------------------------------------

def test_kappa_values():
    s = rs.spectrum_from_list([[1, 0.7]])
    assert _kappa(idx((1, 1), (-1, 1), (1, 1)), s) == pytest.approx(0.7)
    assert _kappa(idx((1, 1), (1, 1)), s) == pytest.approx(1.4)
    s2 = rs.spectrum_from_list([[1, 0.7], [1, -0.7]])
    # one slot on the counterpropagating partner flips the output carrier
    assert _kappa(idx((1, 1), (-1, 1), (1, 2)), s2) == pytest.approx(-0.7)


def test_omega_combination_values():
    m = model(1.0)
    s2 = rs.spectrum_from_list([[1, 1.0], [1, -1.0]])
    # counterpropagating triple: the pair cancels, one band frequency remains
    assert _omega_combination(idx((1, 1), (-1, 1), (1, 1)), s2, m) == pytest.approx(2.0)
    s1 = rs.spectrum_from_list([[1, 1.0]])
    m0 = model(0.0)
    assert _omega_combination(idx((1, 1), (1, 1)), s1, m0) == pytest.approx(2.0)
    m3 = model(3.0)
    assert _omega_combination(idx((1, 1), (1, 1), (1, 1)), s1, m3) == pytest.approx(12.0)


# -- enumeration golden set -------------------------------------------------------

def test_quadratic_no_shg(spectra_equal):
    # 2 omega(k*) != omega(2k*) and omega(0) != 0: nothing resonates
    m = model(1.0)
    s = rs.spectrum_from_list([[1, 1.0]])
    sols = rs.enumerate_solutions(s, m, [2])
    assert sols == []
    rep = rs.classify(s, m, [2])
    assert rep.out_res == []
    assert spectra_equal(rep.selected, s)
    assert rep.classification == "universally_invariant"


def test_quadratic_with_shg(spectra_equal):
    # omega = k^2 + 2 satisfies 2 omega(1) = omega(2) exactly
    m = model(2.0)
    s = rs.spectrum_from_list([[1, 1.0]])
    sols = rs.enumerate_solutions(s, m, [2])
    assert sols, "second harmonic solution expected"
    ext = [x for x in sols if x.klass == "external"]
    assert ext and all(tuple(x.delta) in ((2,), (-2,)) for x in ext)
    sel = rs.resonance_select(s, m, [2])
    assert spectra_equal(sel, rs.spectrum_from_list([[1, 1.0], [1, 2.0]]))
    assert rs.classify(s, m, [2]).classification == "not_invariant"


def test_shg_pair_conditionally_invariant():
    m = model(2.0)
    s2 = rs.spectrum_from_list([[1, 1.0], [1, 2.0]])
    rep = rs.classify(s2, m, [2])
    assert rep.classification == "conditionally_invariant"
    # condition row: 2 omega_1(k*1) - omega_1(k*2) = 0
    assert rep.conditions == [(2, -1)]
    assert len(rep.universal) < len(rep.internal)


def test_shg_condition_verified_exactly():
    m = model(2.0)
    s2 = rs.spectrum_from_list([[1, 1.0], [1, 2.0]])
    assert rs.classify(s2, m, [2], exact=True).conditions_exact is True
    m_off = model(2.0 + 1e-7)
    # still resonant within the float tolerance but not exactly
    rep = rs.classify(
        s2, m_off, [2], tol_res=1e-5, exact=True
    )
    assert rep.conditions_exact is False


def test_cube_third_harmonic_spectrum_invariant(thg_model, spectra_equal):
    # 3 omega(1) = omega(3) on the cubic band
    m = thg_model
    s1 = rs.spectrum_from_list([[1, 1.0]])
    sel = rs.resonance_select(s1, m, [3])
    assert spectra_equal(sel, rs.spectrum_from_list([[1, 1.0], [1, 3.0]]))
    s4 = rs.spectrum_from_list([[1, 3.0], [1, 1.0], [1, -1.0], [1, -3.0]])
    rep = rs.classify(s4, m, [3])
    assert spectra_equal(rep.selected, s4)
    assert rep.classification in rs.INVARIANT_CLASSES
    third = [x for x in rep.internal if x.klass == "internal"]
    assert third, "the third-harmonic channel should appear as a condition"


def test_counterprop_universal_set():
    m = model(1.0)
    s = rs.spectrum_from_list([[1, 1.0], [1, -1.0]])
    rep = rs.classify(s, m, [3])
    assert rep.classification == "universally_invariant"
    assert len(rep.solutions) == len(rep.universal)
    got_plus = {x.index.entries for x in rep.solutions if x.zeta == +1}
    base = [
        ((1, 1), (-1, 1), (1, 1)),
        ((1, 1), (-1, 1), (1, 2)),
        ((1, 2), (-1, 2), (1, 1)),
        ((1, 2), (-1, 2), (1, 2)),
    ]
    expected = set()
    for entries in base:
        for perm in itertools.permutations(entries):
            expected.add(tuple(perm))
    assert got_plus == expected


def test_output_spectrum_sets():
    s1 = rs.spectrum_from_list([[1, 1.0]])
    out2 = sorted(k[0] for k in rs.output_spectrum(s1, [2]))
    assert out2 == pytest.approx([-2.0, 0.0, 2.0])
    out3 = sorted(k[0] for k in rs.output_spectrum(s1, [3]))
    assert out3 == pytest.approx([-3.0, -1.0, 1.0, 3.0])
    assert rs.output_spectrum(s1, []) == []


def test_closure_and_iterations(spectra_equal):
    m = model(2.0)
    s1 = rs.spectrum_from_list([[1, 1.0]])
    closed, converged, iters = rs.closure(s1, m, [2])
    assert converged and iters == 2
    assert spectra_equal(closed, rs.spectrum_from_list([[1, 1.0], [1, 2.0]]))
    # already invariant: one application suffices
    _, converged, iters = rs.closure(closed, m, [2])
    assert converged and iters == 1


def test_closure_aborts_on_singular_output():
    m = model(0.0)  # omega(0) = 0: the rectification output hits k = 0
    s = rs.spectrum_from_list([[1, 1.0]])
    with pytest.raises(BandCrossingAtOutput):
        rs.closure(s, m, [2])


def test_enumeration_cap():
    m = model(1.0)
    s = rs.spectrum_from_list([[1, float(k)] for k in range(1, 7)])
    with pytest.raises(EnumerationCapExceeded):
        rs.enumerate_solutions(s, m, [3], cap=100)


# -- invariants -------------------------------------------------------------------

def test_set_inclusions_and_sign_symmetry():
    m = model(2.0)
    s2 = rs.spectrum_from_list([[1, 1.0], [1, 2.0]])
    rep = rs.classify(s2, m, [2])
    keys = {x.key() for x in rep.solutions}
    univ = {x.key() for x in rep.universal}
    internal = {x.key() for x in rep.internal}
    assert univ <= internal <= keys
    for x in rep.solutions:
        mirrored = (x.m, -x.zeta, x.n, x.index.negated().entries)
        assert mirrored in keys
    # S subset of R(S)
    for n, k in s2.pairs:
        assert _contains_pair(rep.selected, n, k) is not None


def test_universality_is_k_independent(rng):
    m = model(1.0)
    s = rs.spectrum_from_list([[1, 1.0], [1, -1.0]])
    rep = rs.classify(s, m, [3])
    tol = rs.default_tol_res(s, m)
    for x in rep.universal[:6]:
        for _ in range(10):
            knew = rng.uniform(0.3, 2.5, size=2)
            snew = rs.spectrum_from_list([[1, knew[0]], [1, -knew[1]]])
            kap = np.atleast_1d(_kappa(x.index, snew))
            resid = -x.zeta * dsp.eval_omega(m, x.n, +1, x.zeta * kap) + _omega_combination(
                x.index, snew, m
            )
            assert abs(resid) <= rs.default_tol_res(snew, m)


def test_classify_keeps_close_outputs_apart_at_the_spectrum_tolerance(spectra_equal):
    # the outputs 0.5 -+ 2e-9 of this spectrum are distinct pairs at its own
    # tol_k (1.5e-9); the selected spectrum keeps that tolerance instead of
    # one grown with the new pairs' larger |k|, under which they would collide
    m = dsp.model_from_config({"preset": "power", "params": {"p": 1.0, "a0": 0.0}})
    s = rs.spectrum_from_list([[1, 0.5], [1, 1e-9]])
    report = rs.classify(s, m, [3])
    assert report.classification == "not_invariant"
    assert report.selected.n_pairs == 7 and report.selected.tol_k == s.tol_k
    assert spectra_equal(rs.resonance_select(s, m, [3]), report.selected)


def test_classify_invariant_under_pair_permutation():
    m = model(1.0)
    a = rs.classify(rs.spectrum_from_list([[1, 1.0], [1, -1.0]]), m, [3])
    b = rs.classify(rs.spectrum_from_list([[1, -1.0], [1, 1.0]]), m, [3])
    assert a.classification == b.classification
    assert len(a.solutions) == len(b.solutions)


# -- group velocity matching --------------------------------------------------------

def test_gvm_universal_spectrum_all_matched():
    m = model(1.0)
    s = rs.spectrum_from_list([[1, 1.0], [1, -1.0]])
    _, contributing = rs.resonant_index_sets(s, m, [3])
    flags, subset = rs.gvm_check(s, m, contributing)
    assert flags == {1: True, 2: True}
    assert subset == [1, 2]


def test_gvm_shg_pair():
    # second pair is driven by the first alone: gradients 2k* vs 4k* differ
    m = model(2.0)
    s = rs.spectrum_from_list([[1, 1.0], [1, 2.0]])
    _, contributing = rs.resonant_index_sets(s, m, [2])
    flags, subset = rs.gvm_check(s, m, contributing)
    assert flags[2] is False
    # pair 1 keeps a same-pair slot in each of its terms
    assert flags[1] is True
    assert subset == [1]


def test_gvm_empty_spectrum():
    m = model(1.0)
    s = rs.NkSpectrum((), dim=1)
    flags, subset = rs.gvm_check(s, m, {})
    assert flags == {} and subset == []


def test_classify_empty_spectrum():
    rep = rs.classify(rs.NkSpectrum((), dim=1), model(1.0), [2, 3])
    assert rep.classification == "universally_invariant" and rep.closure_iterations == 1
    assert rep.solutions == [] and rep.out_res == [] and rep.selected.n_pairs == 0


def test_partial_gvm_universal_singletons():
    m = model(1.0)
    s = rs.spectrum_from_list([[1, 0.9], [1, -1.3]])
    ok, violations = rs.partial_gvm_check(s, [[1], [2]], m, [3])
    assert ok and violations == []


def test_partial_gvm_shg_split_fails():
    m = model(2.0)
    s = rs.spectrum_from_list([[1, 1.0], [1, 2.0]])
    ok, violations = rs.partial_gvm_check(s, [[1], [2]], m, [2])
    assert not ok
    kinds = {v[0] for v in violations}
    assert "part_not_invariant" in kinds or "cross_solution" in kinds


def test_partial_gvm_single_part_trivial():
    m = model(1.0)
    s = rs.spectrum_from_list([[1, 1.0], [1, -1.0]])
    ok, violations = rs.partial_gvm_check(s, [[1, 2]], m, [3])
    assert ok and violations == []


# -- genericity probe -----------------------------------------------------------------

def test_genericity_probe_generic_band():
    m = model(1.0)
    s = rs.spectrum_from_list([[1, 1.0]])
    frac = rs.genericity_probe(s, m, [3], trials=100, radius=0.05, seed=7)
    assert frac >= 0.99


def test_genericity_probe_zero_radius_matches_template():
    m = model(2.0)
    s = rs.spectrum_from_list([[1, 1.0]])  # SHG-resonant: not invariant
    frac = rs.genericity_probe(s, m, [2], trials=10, radius=0.0, seed=0)
    assert frac == 0.0
    m1 = model(1.0)
    assert rs.genericity_probe(s, m1, [2], trials=10, radius=0.0, seed=0) == 1.0


def test_genericity_probe_degenerate_band_reports_only():
    # omega = |k|: every harmonic relation holds identically
    m = dsp.model_from_config({"preset": "power", "params": {"p": 1.0, "a0": 0.0}})
    s = rs.spectrum_from_list([[1, 1.0]])
    frac = rs.genericity_probe(s, m, [3], trials=20, radius=0.05, seed=3)
    assert 0.0 <= frac <= 0.2


def test_probe_determinism():
    m = model(1.0)
    s = rs.spectrum_from_list([[1, 1.0]])
    a = rs.genericity_probe(s, m, [3], trials=25, radius=0.05, seed=11)
    b = rs.genericity_probe(s, m, [3], trials=25, radius=0.05, seed=11)
    assert a == b


def _crossing_symbol(k):
    # omega = |k|: the two eigenvalues meet at k = 0
    return np.array([[k, 0.0], [0.0, -k]], dtype=complex)


def test_genericity_probe_propagates_unexpected_errors(monkeypatch):
    m = model(1.0)
    s = rs.spectrum_from_list([[1, 1.0]])

    def raising(exc):
        def hit_table(*args, **kwargs):
            raise exc
        return hit_table

    # the trials are decided from hit tables
    with monkeypatch.context() as patch:
        patch.setattr(rs, "_hit_table", raising(RuntimeError("bug")))
        with pytest.raises(RuntimeError):
            rs.genericity_probe(s, m, [3], trials=3, radius=0.05)
        patch.setattr(rs, "_hit_table", raising(EnumerationCapExceeded("cap")))
        with pytest.raises(EnumerationCapExceeded):
            rs.genericity_probe(s, m, [3], trials=3, radius=0.05)
    # a trial carrier where a matrix symbol's gap closes is a miss, not an error
    crossing = dsp.matrix_symbol_model(_crossing_symbol, j_bands=1)
    at_gap = rs.spectrum_from_list([[1, 0.0]])
    with pytest.raises(BandCrossing):
        dsp.eval_omega(crossing, 1, +1, at_gap.kvec(1))
    for radius in (0.0, 1e-12):
        assert rs.genericity_probe(at_gap, crossing, [3], trials=3, radius=radius) == 0.0
        assert _trial_probe(at_gap, crossing, [3], 3, radius, 0) == 0.0
    # the cap is the same for every trial: raised before any is drawn
    big = rs.spectrum_from_list([[1, float(k)] for k in range(1, 7)])
    with pytest.raises(EnumerationCapExceeded):
        rs.genericity_probe(big, m, [6], trials=3, radius=0.05)


# (model, spectrum, orders, trials, radius, seed) and the fraction that
# classify-based trials returned for it
@pytest.mark.parametrize("case, fraction", [
    (("nls_a0_1", [[1, 1.0], [1, -1.0], [1, 0.37]], [2, 3], 20, 0.05, 0), 1.0),
    (("power_p1", [[1, 1.0]], [3], 20, 0.05, 3), 0.0),
    (("twoband", [[1, 1.0], [2, 1.0]], [2, 3], 20, 1.5, 1), 0.25),
    (("twoband", [[1, 2.0], [2, 1.0]], [2], 20, 1.5, 1), 0.15),
    # a conditionally invariant template, unperturbed: no trial is universal
    (("nls_a0_2", [[1, 1.0], [1, 2.0]], [2], 5, 0.0, 0), 0.0),
])
def test_genericity_probe_builds_no_report(monkeypatch, case, fraction):
    name, rows, orders, trials, radius, seed = case

    def refused(*args, **kwargs):
        raise AssertionError("a genericity trial built a report object")

    monkeypatch.setattr(rs, "ResonanceReport", refused)
    monkeypatch.setattr(rs, "ResonanceSolution", refused)
    s = rs.spectrum_from_list(rows)
    got = rs.genericity_probe(s, ORACLE_MODELS[name], orders, trials=trials, radius=radius,
                              seed=seed)
    assert got == fraction


# -- golden CLI report ------------------------------------------------------------------

def test_cli_report_matches_golden_bytes(tmp_path):
    out = tmp_path / "report.json"
    code = cli_main([
        "resonance", "analyze", "--probe", "20",
        "--config", str(ROOT / "demos" / "configs" / "resonance_counterprop.json"),
        "--out", str(out),
    ])
    assert code == 0
    golden = Path(__file__).parent / "data" / "resonance_counterprop_probe20.json"
    assert out.read_bytes() == golden.read_bytes()


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_wavevectors_are_rejected(bad, tmp_path):
    # a NaN carrier was once classified universally invariant, with 0 solutions
    with pytest.raises(ValueError, match="not finite"):
        rs.classify(rs.spectrum_from_list([[1, bad]]), model(1.0), [3])
    with pytest.raises(ValueError, match="not finite"):
        rs.spectrum_from_list([[1, bad], [1, bad]])
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"model": {"preset": "nls1d", "params": {"a2": 1.0, "a0": 1.0}},
                               "spectrum": [[1, 1.0], [1, bad]], "orders": [3]}))
    out = tmp_path / "report.json"
    assert cli_main(["resonance", "analyze", "--probe", "5", "--config", str(cfg),
                     "--out", str(out)]) == 3
    assert not out.exists()


@settings(max_examples=30, deadline=None)
@given(
    n_pairs=st.integers(1, 4),
    orders=st.lists(st.integers(1, 3), unique=True, max_size=3).map(sorted),
    seed=st.integers(0, 2**32 - 1),
)
def test_candidate_tables_are_built_once(n_pairs, orders, seed):
    # one read-only sign/slot table per (n_pairs, orders), in all_indices
    # order; the sums are recomputed per call, bitwise the per-index loop's
    values = np.random.default_rng(seed).normal(size=(n_pairs, 2))
    signs, slots, sums = rs._candidates(values, orders)
    again = rs._candidates(2.0 * values, orders)
    assert again[0] is signs and again[1] is slots
    assert not signs.flags.writeable and not slots.flags.writeable
    indices = [index for m in orders for index in _all_indices(n_pairs, m)]
    assert [rs._index_at(z, l) for z, l in zip(signs, slots)] == indices
    assert sums.shape == (len(indices), 2)
    for row, index in zip(sums, indices):
        want = np.zeros(2)
        for z, l in index.entries:
            want = want + z * values[l - 1]
        assert np.array_equal(row, want)


# -- table enumeration against the per-index loop ---------------------------------------
#
# The functions below are the per-index enumeration and classification that
# the table code replaced, kept literally as a reference oracle; the former
# DecoratedIndex.delta and .cardinality methods are the two helpers below.

def _index_delta(index, n_pairs):
    d = np.zeros(n_pairs, dtype=int)
    for z, l in index.entries:
        d[l - 1] += z
    return d


def _index_cardinality(index, n_pairs):
    c = [0] * n_pairs
    for _, l in index.entries:
        c[l - 1] += 1
    return tuple(c)


def _classify_solution(spectrum, n, zeta, index, kap, residual):
    kv = np.atleast_1d(np.asarray(kap, dtype=float))
    target = _contains_pair(spectrum, n, zeta * kv)
    delta = tuple(int(d) for d in _index_delta(index, spectrum.n_pairs))
    if target is None:
        return rs.ResonanceSolution(
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
    return rs.ResonanceSolution(
        index.m, zeta, n, index, delta, kv, residual, klass, target,
        tuple(b), _index_cardinality(index, spectrum.n_pairs),
    )


def _oracle_crossing(model, k, tol=None):
    try:
        if model.kind == "scalar-band":
            pts = dsp._as_points(model, k)
            vals = np.sort(dsp._raw_band_values(model, pts), axis=0)[:, 0]
            neg = -np.sort(dsp._raw_band_values(model, -pts), axis=0)[:, 0][::-1]
            evals = np.concatenate([neg, vals])
        else:
            evals, _ = dsp._eigh_at(model, k)
    except Exception:
        return True
    tol = tol if tol is not None else dsp._gap_tolerance(float(np.abs(evals).max()))
    if np.min(np.diff(evals)) < tol:
        return True
    return bool(min(abs(evals[model.j_bands]), abs(evals[model.j_bands - 1])) < tol)


def _oracle_enumerate(spectrum, model, orders, collect_skipped):
    orders = sorted(set(int(m) for m in orders))
    tol_res = rs.default_tol_res(spectrum, model)
    omega_cache: dict = {}
    crossing_cache: dict = {}

    def omega_at(n, kv):
        key = (n, tuple(np.round(kv, 12)))
        if key not in omega_cache:
            omega_cache[key] = dsp.eval_omega(model, n, +1, kv)
        return omega_cache[key]

    def crossing_at(kv):
        key = tuple(np.round(kv, 12))
        if key not in crossing_cache:
            crossing_cache[key] = _oracle_crossing(model, kv)
        return crossing_cache[key]

    out = []
    for m in orders:
        for index in _all_indices(spectrum.n_pairs, m):
            kap = np.atleast_1d(np.asarray(_kappa(index, spectrum), dtype=float))
            comb = _omega_combination(index, spectrum, model)
            for zeta in (+1, -1):
                out_k = zeta * kap
                if crossing_at(out_k):
                    collect_skipped.append((m, zeta, index, out_k.copy()))
                    continue
                for n in range(1, model.j_bands + 1):
                    residual = -zeta * omega_at(n, out_k) + comb
                    if abs(residual) <= tol_res:
                        out.append(_classify_solution(spectrum, n, zeta, index, kap, abs(residual)))
    out.sort(key=lambda s: (s.m, -s.zeta, s.n, s.index.entries))
    return out


def _oracle_output_spectrum(spectrum, orders):
    seen = []
    for m in sorted(set(int(v) for v in orders)):
        for index in _all_indices(spectrum.n_pairs, m):
            kap = np.atleast_1d(np.asarray(_kappa(index, spectrum), dtype=float))
            if not any(np.linalg.norm(kap - s) <= spectrum.tol_k for s in seen):
                seen.append(kap)
    return seen


def _oracle_output_pairs(solutions, tol_k):
    pairs = []
    for s in solutions:
        out_k = s.zeta * s.kappa
        if not any(n == s.n and np.linalg.norm(out_k - k) <= tol_k for n, k in pairs):
            pairs.append((s.n, out_k))
    return pairs


def _oracle_index_sets(spectrum, model, orders):
    tol_res = rs.default_tol_res(spectrum, model)
    resonant, contributing = {}, {}
    orders = sorted(set(int(m) for m in orders))
    for l in range(1, spectrum.n_pairs + 1):
        n_l = spectrum.band(l)
        k_l = spectrum.kvec(l)
        for theta in (+1, -1):
            for m in orders:
                res_list, con_list = [], []
                for index in _all_indices(spectrum.n_pairs, m):
                    kap = np.atleast_1d(np.asarray(_kappa(index, spectrum), dtype=float))
                    out_k = theta * kap
                    if _oracle_crossing(model, out_k):
                        continue
                    residual = -theta * dsp.eval_omega(model, n_l, +1, out_k) + _omega_combination(
                        index, spectrum, model
                    )
                    if abs(residual) <= tol_res:
                        res_list.append(index)
                        if np.linalg.norm(kap - theta * k_l) <= spectrum.tol_k:
                            con_list.append(index)
                resonant[(l, theta, m)] = res_list
                contributing[(l, theta, m)] = con_list
    return resonant, contributing


def _coupled_symbol(k):
    w = k * k + 1.0
    return np.array([[w, 0.4 * k], [0.4 * k, -w]], dtype=complex)


ORACLE_MODELS = {
    "nls_a0_1": model(1.0),
    "nls_a0_2": model(2.0),
    "nls_a0_0": model(0.0),
    "power_p1": dsp.model_from_config({"preset": "power", "params": {"p": 1.0, "a0": 0.0}}),
    "twoband": dsp.model_from_config({"preset": "twoband", "params": {}}),
    # an odd part breaks k -> -k symmetry; omega_{1,+} vanishes at k = -0.5
    # where omega_{1,-} does not
    "tilted": dsp.scalar_band_model(
        [lambda k: k ** 2 + 0.5 * k], [lambda k: 2.0 * k + 0.5], name="tilted"
    ),
    "matrix": dsp.matrix_symbol_model(_coupled_symbol, j_bands=1),
    "paraboloid2d": dsp.scalar_band_model(
        [lambda k: (k ** 2).sum(axis=0) + 1.0], dim=2, name="paraboloid2d"
    ),
}
# exact values make repeated sums, exact resonances and singular outputs likely
_CARRIER = st.one_of(
    st.sampled_from([-2.0, -1.5, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5, 2.0]),
    st.floats(-2.5, 2.5, allow_nan=False),
)


@st.composite
def oracle_cases(draw):
    name = draw(st.sampled_from(sorted(ORACLE_MODELS)))
    m = ORACLE_MODELS[name]
    rows = draw(st.lists(
        st.tuples(st.integers(1, m.j_bands), st.lists(_CARRIER, min_size=m.dim, max_size=m.dim)),
        min_size=1, max_size=3,
    ))
    orders = draw(st.sampled_from([[2], [3], [2, 3]]))
    return name, [[n] + k for n, k in rows], orders


def _spectrum_or_reject(rows, dim):
    try:
        return rs.spectrum_from_list(rows, dim=dim)
    except ValueError:
        assume(False)


@settings(max_examples=60, deadline=None)
@given(oracle_cases())
@example(("nls_a0_2", [[1, 1.0], [1, 2.0]], [2]))
@example(("nls_a0_2", [[1, 1.0], [1, 2.0]], [2, 3]))
@example(("nls_a0_0", [[1, 1.0], [1, -1.0]], [2, 3]))
@example(("power_p1", [[1, 1.0], [1, 2.0], [1, 0.5]], [3]))
@example(("twoband", [[1, 1.0], [2, 1.0]], [2, 3]))
@example(("tilted", [[1, 1.0], [1, -1.5]], [2, 3]))
@example(("paraboloid2d", [[1, 1.0, 0.0], [1, 0.0, 1.0]], [2, 3]))
def test_enumeration_matches_per_index_oracle(case):
    name, rows, orders = case
    m = ORACLE_MODELS[name]
    s = _spectrum_or_reject(rows, m.dim)

    skipped, want_skipped = [], []
    got = rs.enumerate_solutions(s, m, orders, collect_skipped=skipped)
    want = _oracle_enumerate(s, m, orders, want_skipped)
    assert [x.key() for x in got] == [x.key() for x in want]
    scale = 1.0 + max(abs(dsp.eval_omega(m, n, +1, k)) for n, k in s.pairs)
    for a, b in zip(got, want):
        assert (a.klass, a.target, a.b_row, a.c_vec, a.delta) == (b.klass, b.target, b.b_row, b.c_vec, b.delta)
        assert np.array_equal(a.kappa, b.kappa)
        assert abs(a.omega_residual - b.omega_residual) <= 1e-12 * scale
    assert len(skipped) == len(want_skipped)
    for (m1, z1, i1, k1), (m2, z2, i2, k2) in zip(skipped, want_skipped):
        assert (m1, z1, i1.entries) == (m2, z2, i2.entries)
        assert np.array_equal(k1, k2)

    out = rs.output_spectrum(s, orders)
    want_out = _oracle_output_spectrum(s, orders)
    assert len(out) == len(want_out)
    for a, b in zip(out, want_out):
        assert np.linalg.norm(a - b) <= s.tol_k
    pairs = rs.classify(s, m, orders).out_res
    want_pairs = _oracle_output_pairs(want, s.tol_k)
    assert [n for n, _ in pairs] == [n for n, _ in want_pairs]
    for (_, a), (_, b) in zip(pairs, want_pairs):
        assert np.array_equal(a, b)

    resonant, contributing = rs.resonant_index_sets(s, m, orders)
    want_res, want_con = _oracle_index_sets(s, m, orders)
    for got_sets, want_sets in ((resonant, want_res), (contributing, want_con)):
        assert list(got_sets) == list(want_sets)
        for key in want_sets:
            assert [ix.entries for ix in got_sets[key]] == [ix.entries for ix in want_sets[key]]


def _oracle_classification(spectrum, model, orders, spectra_equal):
    """R(S), class and condition rows by the report-based rule, on the oracle's solutions."""
    solutions = _oracle_enumerate(spectrum, model, orders, [])
    new_pairs = list(spectrum.pairs)
    for n, k in _oracle_output_pairs(solutions, spectrum.tol_k):
        if _contains_pair(spectrum, n, k) is None:
            if not any(
                n == pn and np.linalg.norm(k - pk) <= spectrum.tol_k for pn, pk in new_pairs
            ):
                new_pairs.append((n, k))
    selected = rs.NkSpectrum(tuple(new_pairs), dim=spectrum.dim)
    if not spectra_equal(selected, spectrum):
        return selected, "not_invariant", []
    nonuniv = [x for x in solutions if x.klass == "internal"]
    if not nonuniv:
        return selected, "universally_invariant", []
    conditions = sorted({rs._normalize_row(x.b_row) for x in nonuniv})
    return selected, ("conditionally_invariant" if conditions else "invariant"), conditions


@settings(max_examples=60, deadline=None)
@given(oracle_cases())
@example(("nls_a0_2", [[1, 1.0], [1, 2.0]], [2]))
@example(("nls_a0_2", [[1, 1.0]], [2]))
@example(("nls_a0_1", [[1, 1.0], [1, -1.0]], [3]))
@example(("power_p1", [[1, 1.0], [1, 2.0], [1, 0.5]], [3]))
@example(("twoband", [[1, 1.0], [2, 1.0]], [2, 3]))
@example(("power_p1", [[1, 1.0], [1, 0.5]], [2, 3]))
def test_trial_decision_matches_classify(spectra_equal, case):
    name, rows, orders = case
    m = ORACLE_MODELS[name]
    s = _spectrum_or_reject(rows, m.dim)
    report = rs.classify(s, m, orders)
    selected, classification, conditions = _oracle_classification(s, m, orders, spectra_equal)
    assert (report.classification, report.conditions) == (classification, conditions)
    assert [n for n, _ in report.selected.pairs] == [n for n, _ in selected.pairs]
    for (_, a), (_, b) in zip(report.selected.pairs, selected.pairs):
        assert np.array_equal(a, b)
    # what genericity_probe decides a trial spectrum from
    trial = rs._table_verdict(rs._hit_table([s], m, orders), s.tol_k)
    assert (trial.classification, trial.conditions) == (report.classification, report.conditions)
    assert spectra_equal(rs.NkSpectrum(s.pairs + tuple(trial.new), dim=s.dim), report.selected)
    # classify continues the closure from its own first selection step
    try:
        _, converged, iterations = rs.closure(s, m, orders, max_pairs=16)
        want_iterations = iterations if converged else None
    except BandCrossingAtOutput:
        want_iterations = None
    assert report.closure_iterations == want_iterations


@settings(max_examples=60, deadline=None)
@given(oracle_cases())
@example(("nls_a0_2", [[1, 1.0], [1, 2.0]], [2]))
@example(("power_p1", [[1, 1.0], [1, 2.0], [1, 0.5]], [3]))
def test_non_universal_internal_solutions_have_a_condition(case):
    # b = delta - zeta * e_target vanishes exactly for universal solutions,
    # so no invariant spectrum is left without condition rows
    name, rows, orders = case
    m = ORACLE_MODELS[name]
    s = _spectrum_or_reject(rows, m.dim)
    for x in _oracle_enumerate(s, m, orders, []):
        if x.klass != "external":
            assert any(x.b_row) == (x.klass == "internal")


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(sorted(ORACLE_MODELS)), st.lists(_CARRIER, min_size=1, max_size=24))
def test_band_frequencies_match_point_queries(name, values):
    m = ORACLE_MODELS[name]
    pts = np.array(values[: len(values) // m.dim * m.dim] or [0.0] * m.dim).reshape(-1, m.dim).T
    omega, singular = dsp.band_frequencies(m, pts)
    assert omega.shape == (m.j_bands, pts.shape[1])
    for i in range(pts.shape[1]):
        k = pts[:, i]
        assert singular[i] == _oracle_crossing(m, k) == dsp.is_band_crossing(m, k)
        if not singular[i]:
            for n in range(1, m.j_bands + 1):
                assert omega[n - 1, i] == dsp.eval_omega(m, n, +1, k)


# -- blocked genericity trials against the per-trial loop ---------------------------------
#
# ``_oracle_hit_table`` is the one-spectrum hit table the stacked one
# replaced and ``_trial_probe`` the per-trial probe loop over it, both kept
# literally as references.

def _oracle_output_bands(model, out_k):
    key = np.round(out_k, 12)
    _, first, inverse = np.unique(key, axis=0, return_index=True, return_inverse=True)
    omega, singular = dsp.band_frequencies(model, out_k[first].T)
    inverse = inverse.reshape(-1)
    return omega.T[inverse], singular[inverse]


def _kvec_table(spectrum):
    return np.array([k for _, k in spectrum.pairs], dtype=float).reshape(
        spectrum.n_pairs, spectrum.dim
    )


def _oracle_hit_table(spectrum, model, orders, tol_res=None, cap=rs.DEFAULT_ENUMERATION_CAP):
    n_pairs = spectrum.n_pairs
    orders = sorted(set(int(m) for m in orders))
    total = sum(2 * model.j_bands * (2 * n_pairs) ** m for m in orders)
    if total > cap:
        raise EnumerationCapExceeded(f"{total} candidate tuples exceed cap {cap}")
    if tol_res is None:
        tol_res = rs.default_tol_res(spectrum, model)

    omegas = np.array([dsp.eval_omega(model, n, +1, k) for n, k in spectrum.pairs], dtype=float)
    signs, slots, sums = rs._candidates(np.column_stack([_kvec_table(spectrum), omegas]), orders)
    kap, comb = sums[:, :-1], sums[:, -1]
    # output rows: index-major, zeta = +1, -1 inner
    out_k = np.stack([kap, -kap], axis=1).reshape(-1, spectrum.dim)
    omega, singular = _oracle_output_bands(model, out_k)
    zeta = np.tile([1, -1], len(kap))
    residual = np.abs((-zeta)[:, None] * omega + np.repeat(comb, 2)[:, None])
    hit = (residual <= tol_res) & ~singular[:, None]
    skipped = [(int(np.count_nonzero(signs[r // 2])), int(zeta[r]),
                rs._index_at(signs[r // 2], slots[r // 2]), out_k[r].copy())
               for r in np.nonzero(singular)[0]]

    r, b = np.nonzero(hit)
    signs, slots = signs[r // 2], slots[r // 2]
    # solution order: (m, -zeta, n, entries), an entry (z, l) ranking by z, then l
    rank = (signs + 1) * n_pairs + slots
    order = np.lexsort(tuple(rank.T[::-1]) + (b, -zeta[r], np.count_nonzero(signs, axis=1)))
    r, b, signs, slots = r[order], b[order], signs[order], slots[order]
    row, zeta, n, kap = r // 2, zeta[r], b + 1, kap[r // 2]

    bands = np.array([nl for nl, _ in spectrum.pairs], dtype=int)
    gap = np.linalg.norm(_kvec_table(spectrum) - (zeta[:, None] * kap)[:, None], axis=-1)
    close = (bands == n[:, None]) & (gap <= spectrum.tol_k)
    first = (np.cumsum(close, axis=1) == 0).sum(axis=1)  # pairs before the first close one
    target = np.where(first < n_pairs, first, -1)
    delta = (signs[:, :, None] * (slots[:, :, None] == np.arange(n_pairs))).sum(axis=1)
    cond = delta - zeta[:, None] * (np.arange(n_pairs) == target[:, None])
    return rs._HitTable(np.zeros(len(r), dtype=int), zeta, n, signs, slots, row, kap,
                        residual[r, b], delta, close, target, cond, skipped)


def _trial_probe(spectrum, model, orders, trials, radius, seed):
    rng = np.random.default_rng(seed)
    universal = 0
    for _ in range(trials):
        pairs = []
        for n, k in spectrum.pairs:
            shift = rng.uniform(-radius, radius, size=spectrum.dim)
            pairs.append((n, k + shift))
        trial = rs.NkSpectrum(tuple(pairs), dim=spectrum.dim)
        try:
            hits = _oracle_hit_table(trial, model, orders)
        except EnumerationCapExceeded:
            raise  # the same for every trial: no sample to count
        except WavepaxError:
            continue  # e.g. a perturbed carrier on the singular set
        if rs._table_verdict(hits, trial.tol_k).classification == "universally_invariant":
            universal += 1
    return universal / trials


def _same_rows(got, want, rows=slice(None)):
    """Fields ``got[rows]`` and ``want`` bit for bit, the trial ids aside."""
    for name in rs._HitTable._fields[1:-1]:
        a, b = getattr(got, name)[rows], getattr(want, name)
        assert (a.dtype, a.shape) == (b.dtype, b.shape) and a.tobytes() == b.tobytes(), name


def _same_skipped(got, want):
    assert len(got) == len(want)
    for (m1, z1, i1, k1), (m2, z2, i2, k2) in zip(got, want):
        assert (m1, z1, i1.entries) == (m2, z2, i2.entries) and k1.tobytes() == k2.tobytes()


def _outcome(call):
    try:
        return call()
    except (ValueError, WavepaxError) as exc:
        return type(exc)


@settings(max_examples=60, deadline=None)
@given(oracle_cases())
@example(("nls_a0_0", [[1, 1.0], [1, -1.0]], [2, 3]))
@example(("tilted", [[1, 1.0], [1, -1.5]], [2, 3]))
@example(("paraboloid2d", [[1, 1.0, 0.0], [1, 0.0, 1.0]], [2, 3]))
# k1 + k2 is 5e-10 from k1, 2e-9 from it in the spectrum times 4 (tol_k 1.5e-9, 3e-9)
@example(("power_p1", [[1, 0.5], [1, 5e-10]], [2, 3]))
def test_one_spectrum_table_is_the_per_spectrum_table(case):
    # field by field and bit for bit; in a stack each spectrum keeps its own
    # rows and its own tol_k (the scaled copy has a larger tol_k)
    name, rows, orders = case
    m = ORACLE_MODELS[name]
    s = _spectrum_or_reject(rows, m.dim)
    got, want = rs._hit_table([s], m, orders), _oracle_hit_table(s, m, orders)
    assert not got.trial.any()
    _same_rows(got, want)
    _same_skipped(got.skipped, want.skipped)
    stack = [s, rs.NkSpectrum(tuple((n, 4.0 * k) for n, k in s.pairs), dim=s.dim), s]
    got, skipped = rs._hit_table(stack, m, orders), []
    for t, spectrum in enumerate(stack):
        want = _oracle_hit_table(spectrum, m, orders)
        _same_rows(got, want, got.trial == t)
        skipped += want.skipped
    _same_skipped(got.skipped, skipped)


@settings(max_examples=40, deadline=None)
@given(
    case=oracle_cases(),
    radius=st.sampled_from([0.0, 1e-12, 0.05, 1.5]),
    trials=st.integers(1, 40),
    block_rows=st.sampled_from([rs._TRIAL_ROWS, 1, 100, 600]),
    seed=st.integers(0, 2**32 - 1),
)
@example(case=("nls_a0_1", [[1, 1.0], [1, -1.0], [1, 0.37]], [2, 3]), radius=0.05, trials=40,
         block_rows=rs._TRIAL_ROWS, seed=0)
@example(case=("matrix", [[1, 1.0], [1, -0.5]], [2, 3]), radius=1.5, trials=9, block_rows=100,
         seed=3)
# unperturbed trials of a not invariant and a conditionally invariant template
@example(case=("nls_a0_2", [[1, 1.0]], [2]), radius=0.0, trials=5, block_rows=rs._TRIAL_ROWS,
         seed=0)
@example(case=("nls_a0_2", [[1, 1.0], [1, 2.0]], [2]), radius=1e-12, trials=5,
         block_rows=rs._TRIAL_ROWS, seed=0)
def test_genericity_probe_matches_the_per_trial_loop(case, radius, trials, block_rows, seed):
    # blocks of _TRIAL_ROWS // candidate rows trials; 1 row makes one trial a block
    name, rows, orders = case
    m = ORACLE_MODELS[name]
    s = _spectrum_or_reject(rows, m.dim)
    want = _outcome(lambda: _trial_probe(s, m, orders, trials, radius, seed))
    with mock.patch.object(rs, "_TRIAL_ROWS", block_rows):
        got = _outcome(lambda: rs.genericity_probe(s, m, orders, trials=trials, radius=radius,
                                                   seed=seed))
    assert got == want


@settings(max_examples=60, deadline=None)
@given(stacks=st.integers(1, 3), rows=st.integers(0, 30), d=st.integers(1, 3),
       values=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
@example(stacks=2, rows=3, d=1, values=1, seed=0)  # one row value: stacks meet at equal rows
def test_unique_rows_are_numpy_unique_rows(stacks, rows, d, values, seed):
    # repeats and signed zeros are likely among these values
    key = np.random.default_rng(seed).choice([0.0, -0.0, 1.0, -1.5, 0.25, np.inf][:values],
                                             size=(stacks, rows, d))
    _, first, inverse = np.unique(key[0], axis=0, return_index=True, return_inverse=True)
    got_first, got_inverse = rs._unique_rows(key[0])
    assert np.array_equal(got_first, first) and np.array_equal(got_inverse, inverse.reshape(-1))
    want_first, want_inverse, seen = [], [], 0
    for t, stack in enumerate(key):
        _, first, inverse = np.unique(stack, axis=0, return_index=True, return_inverse=True)
        want_first.append(first + t * rows)
        want_inverse.append(inverse.reshape(-1) + seen)
        seen += len(first)
    got_first, got_inverse = rs._unique_rows(key)
    assert np.array_equal(got_first, np.concatenate(want_first))
    assert np.array_equal(got_inverse, np.concatenate(want_inverse))
