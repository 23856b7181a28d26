"""Exception types shared across the package."""


class WvaSenseError(Exception):
    """Base class for all domain errors raised by this package."""


class ConfigError(WvaSenseError):
    """Invalid scenario configuration (bad value, unknown key, missing section)."""


class NumericalError(WvaSenseError):
    """A computed output value is not finite (overflow or an undefined result)."""


class NoSignalError(WvaSenseError):
    """Spectrum has zero total power; a centroid is undefined."""


class SingularPostSelectionError(WvaSenseError):
    """Post-selection extinguishes the mean: amplification denominator ~ 0."""


class UnboundedAmplificationError(WvaSenseError):
    """|gamma * cos(delta)| >= 1: the closed-form maximum diverges."""


class DetectionLimitedError(WvaSenseError):
    """No post-selection angle satisfies the requested SNR floor."""


class SpectrumFormatError(WvaSenseError):
    """Spectrum CSV violates the file contract (carries a line number when known)."""


class DegenerateFitError(WvaSenseError):
    """Calibration data cannot constrain a line (fewer than two distinct abscissae)."""
