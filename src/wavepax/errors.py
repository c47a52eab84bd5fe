"""Exception types shared across the package."""


class WavepaxError(Exception):
    """Base class for all package-specific errors."""


class BandCrossing(WavepaxError):
    """A wavevector sits on (or too close to) the singular set of the symbol."""


class SpectrumOnSingularSet(WavepaxError):
    """A principal wavevector of a spectrum coincides with a flagged node."""


class EnumerationCapExceeded(WavepaxError):
    """Resonance enumeration would exceed the configured size cap."""


class BandCrossingAtOutput(WavepaxError):
    """A resonance output wavevector hit the flagged set."""


class RadiusUnresolvable(WavepaxError):
    """A cutoff radius is below what the grid can resolve."""


class EnvelopeUnderresolved(WavepaxError):
    """An envelope is too narrow for the grid spacing."""


class EmptySublevelSet(WavepaxError):
    """No probe point fell below the position-detection threshold."""


class GridMismatch(WavepaxError):
    """Operands were sampled on different grids."""


class PicardDiverged(WavepaxError):
    """Successive Picard distances grew for several consecutive iterations."""


class PicardMaxIter(WavepaxError):
    """Picard iteration hit the iteration cap before reaching tolerance."""


class HypothesisViolated(WavepaxError):
    """An experiment's standing hypothesis failed and --force was not given."""


class ParameterSignError(WavepaxError):
    """A parameter combination has the wrong sign (e.g. c^2 <= 0)."""


class ConfigError(WavepaxError):
    """A run configuration failed validation."""
