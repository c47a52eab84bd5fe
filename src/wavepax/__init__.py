"""Modal toolkit for particle-like wavepackets in dispersive systems."""

__version__ = "0.1.0"

from .errors import (  # noqa: F401
    BandCrossing,
    BandCrossingAtOutput,
    ConfigError,
    EmptySublevelSet,
    EnumerationCapExceeded,
    EnvelopeUnderresolved,
    GridMismatch,
    HypothesisViolated,
    ParameterSignError,
    PicardDiverged,
    PicardMaxIter,
    RadiusUnresolvable,
    SpectrumOnSingularSet,
    WavepaxError,
)
from .grids import Grid, ModalField, l1_norm  # noqa: F401
from .dispersion import (  # noqa: F401
    BandNeighborhoodBounds,
    DispersionModel,
    detect_band_crossings,
    eval_omega,
    eval_projector,
    group_velocity,
    matrix_symbol_model,
    model_from_config,
    neighborhood_bounds,
    scalar_band_model,
)
from .resonance import (  # noqa: F401
    DecoratedIndex,
    NkSpectrum,
    ResonanceReport,
    ResonanceSolution,
    classify,
    closure,
    enumerate_solutions,
    genericity_probe,
    gvm_check,
    kappa,
    omega_combination,
    output_spectrum,
    partial_gvm_check,
    resonance_select,
    spectrum_from_list,
)
from .wavepacket import (  # noqa: F401
    Envelope,
    WavepacketSpec,
    build_cutoff,
    build_wavepacket,
    locate_position,
    particle_norm,
    position_detection,
    regularity_defect,
)
from .evolution import (  # noqa: F401
    EvolutionProblem,
    SolverConfig,
    Susceptibility,
    Trajectory,
    apply_nonlinearity,
    cubic_conjugate,
    cubic_full,
    fast_slow_transform,
    integrate_slow_midpoint,
    interaction_phase,
    modal_project,
    quadratic_conjugate,
    solve_integrated,
)
from .interaction import (  # noqa: F401
    InteractionIndexSets,
    InteractionSolution,
    build_index_sets,
    coupling_norm,
    homogeneity_check,
    solve_averaged_system,
    solve_interaction_system,
)
from .harness import (  # noqa: F401
    ExperimentResult,
    RunConfig,
    averaging_experiment,
    load_config,
    position_tracking_experiment,
    preservation_experiment,
    soliton_experiment,
    superposition_experiment,
    sweep,
)
