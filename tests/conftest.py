import warnings

import numpy as np
import pytest

from wavepax import dispersion as dsp
from wavepax.grids import Grid, ModalField, l1_norm_values, samples_to_spectrum

# A failing hypothesis test imports libcst to write its explicit-example
# patch.  That import warns (mypy_extensions.TypedDict is deprecated), and
# under a test's filterwarnings("error") mark the warning ends the whole
# session with INTERNALERROR.  Imported once here, with the warning ignored,
# a failing property test is one ordinary failure.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import libcst.metadata.type_inference_provider  # noqa: F401
    except ImportError:
        pass


@pytest.fixture
def nls_model():
    """Single symmetric band omega = k^2 + 1 (no singular points)."""
    return dsp.model_from_config({"preset": "nls1d", "params": {"a2": 1.0, "a0": 1.0}})


@pytest.fixture
def shg_model():
    """omega = k^2 + 2 gives exact second harmonic generation at k* = 1."""
    return dsp.model_from_config({"preset": "nls1d", "params": {"a2": 1.0, "a0": 2.0}})


@pytest.fixture
def thg_model():
    """omega = |k|^3 + 12 gives exact third harmonic generation at k* = 1.

    A quadratic band cannot carry a clean third-harmonic set: on a parabola
    the relation 3w(k) = w(3k) forces 2w(3k) + w(k) = w(5k) as well.
    """
    return dsp.model_from_config({"preset": "power", "params": {"p": 3.0, "a0": 12.0}})


@pytest.fixture
def grid512():
    return Grid(1, (512,), (4.0,))


@pytest.fixture
def grid256():
    return Grid(1, (256,), (4.0,))


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture(scope="session")
def spectra_equal():
    """Whether two spectra hold the same (band, wavevector) pairs under tol_k, in any order."""
    def equal(a, b, tol_k=None):
        if a.n_pairs != b.n_pairs:
            return False
        tol = tol_k if tol_k is not None else max(a.tol_k, b.tol_k)
        used = set()
        for n, k in a.pairs:
            hit = None
            for j, (nb, kb) in enumerate(b.pairs):
                if j not in used and n == nb and np.linalg.norm(k - kb) <= tol:
                    hit = j
                    break
            if hit is None:
                return False
            used.add(hit)
        return True

    return equal


@pytest.fixture(scope="session")
def from_r_space():
    """The modal field of r-space samples: the inverse of ``grids.to_r_space``."""
    def field(samples, grid, frame="slow"):
        return ModalField(grid, samples_to_spectrum(samples, grid), frame)

    return field


@pytest.fixture
def trajectory_distance():
    """Sup over the shared sample times of two trajectories of their L1 distance."""
    def distance(a, b):
        times_b = {round(t, 12): i for i, t in enumerate(b.times)}
        dist = 0.0
        shared = 0
        for i, t in enumerate(a.times):
            j = times_b.get(round(t, 12))
            if j is None:
                continue
            shared += 1
            dist = max(dist, l1_norm_values(a.fields[i].values - b.fields[j].values, a.problem.grid))
        if shared < 2:
            raise ValueError("trajectories share too few sample times to compare")
        return dist

    return distance
