"""Quantum simulator of impulsive Raman pump-probe noise spectroscopy.

A single damped phonon mode is displaced and squeezed by a pump pulse,
relaxes under a thermal bath, and is read out by a weak probe whose
photon-number statistics are digitized pulse by pulse. The package
provides the closed-form Gaussian fast path, an exact Fock-space oracle
for cross-validation, the detection-chain Monte Carlo, and the spectral
analysis used to extract squeezing from the noise traces.
"""

from .analysis import (
    ComponentLifetime,
    FitError,
    FluenceFitResult,
    LifetimeResult,
    LineFit,
    SpectrumResult,
    detrend_and_fft,
    detrended_trace,
    extract_lifetimes,
    fit_fluence_series,
    fit_line,
    interpolate_peak,
    morlet_noise_power,
    morlet_power,
    peak_contrast,
)
from .config import ConfigError, RunConfig, load_config
from .detector import (
    DetectorSpec,
    PulseEnsemble,
    ScanResult,
    calibrated_gain,
    row_streams,
    sample_pulse_ensemble,
    sample_scan_statistics,
    scan_experiment,
    shot_noise_scan,
    voltage_statistics,
)
from .fock import (
    CrossCheckCase,
    CrossCheckResult,
    FockDensityMatrix,
    StepSizeError,
    TruncationError,
    apply_pump_exact,
    build_thermal_fock,
    cross_validate,
    default_grid,
    evolve_lindblad_exact,
    probe_exact,
)
from .probe import (
    ObservablePair,
    ProbeSpec,
    amplitude_2omega,
    amplitude_omega,
    amplitude_prefactor,
    predict_trace,
    probe_mean,
    probe_variance,
)
from .states import (
    BathSpec,
    GaussianPhononState,
    PhysicalityError,
    PumpSpec,
    apply_pump,
    beta_omega_from_temperature,
    evolve,
    pump_coefficients,
    quadrature_variance,
    conjugate_quadrature_variance,
    squeeze_parameters,
    squeezed_thermal_quadrature_variance,
    thermal_occupation,
    thermal_state,
)

__version__ = "0.1.0"
