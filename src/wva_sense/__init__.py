"""Weak-value-amplified interrogation of FBG temperature sensors.

Simulates the post-selected output spectrum of a two-grating polarization
interferometer, extracts spectral centroids, computes amplification factors
and calibrates temperature sensitivity.
"""

__version__ = "0.1.0"

from .errors import (
    ConfigError,
    DegenerateFitError,
    DetectionLimitedError,
    NoSignalError,
    NumericalError,
    SingularPostSelectionError,
    SpectrumFormatError,
    UnboundedAmplificationError,
    WvaSenseError,
)
from .fbg import (
    CalibrationResult,
    FbgParams,
    SideLobe,
    bragg_center,
    centroid_shift_model,
    fit_sensitivity,
    reflect,
)
from .osa import (
    OsaParams,
    SnrReport,
    UsableAmplification,
    max_usable_amplification,
)
from .scenario import (
    FilterSettings,
    GridSettings,
    InterrogationResult,
    Scenario,
    SourceParams,
    SweepKernel,
    scenario_grid,
    simulate_interrogation,
    sweep_beta,
    sweep_temperature,
    temperature_points,
)
from .spectral import (
    SPEED_OF_LIGHT_NM_THZ,
    FrequencyGrid,
    Spectrum,
    UnitContext,
    centroid,
    frequency_to_wavelength,
    make_grid,
    read_spectrum_csv,
    total_power,
    wavelength_to_frequency,
    write_spectrum_csv,
)
from .wva import (
    CentroidPrediction,
    MaxAmplification,
    PolarizedFieldSpectrum,
    SetupParams,
    amplification_factor,
    analytic_centroid,
    jones_field,
    max_amplification,
    output_spectrum_analytic,
    overlap_gamma,
    post_select,
    pulse_bandwidth,
    two_arm_field,
)

__all__ = [name for name in dir() if not name.startswith("_")]
