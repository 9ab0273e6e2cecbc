"""Probe-pulse observables computed from the phonon state.

A weak probe exchanges quanta with the phonon mode through an effective
beamsplitter rotation of angle ``coupling_norm``. The read-out is the
photon number in the cross-polarized arm; its mean oscillates at the
phonon frequency while its variance additionally carries a
second-harmonic component whenever the phonon state is squeezed.
All moments here are evaluated in closed form from the Gaussian state,
using the Gaussian moment factorization for the cubic and quartic
phonon moments that enter the variance.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .states import (
    BathSpec,
    GaussianPhononState,
    PumpSpec,
    apply_pump,
    check_moments,
    evolved_moments,
    pump_coefficients,
    thermal_state,
)

_REALITY_TOL = 1e-12


@dataclass(frozen=True)
class ProbeSpec:
    """Probe-stage parameters.

    coupling_norm is the beamsplitter rotation angle (radians) of the
    photon-phonon exchange, phase_diff the analyzed-quadrature angle minus
    the probe field's phase (radians), the one phase the read-out depends
    on, and intensity_y the mean photon number per pulse in the detected
    polarization.
    """

    coupling_norm: float
    phase_diff: float
    intensity_y: float

    def __post_init__(self) -> None:
        if self.coupling_norm < 0 or not math.isfinite(self.coupling_norm):
            raise ValueError(
                f"coupling_norm must be >= 0, got {self.coupling_norm}"
            )
        if self.coupling_norm > math.pi / 2:
            warnings.warn(
                "coupling_norm exceeds pi/2; outside the weak-probe regime",
                stacklevel=2,
            )
        if not math.isfinite(self.phase_diff):
            raise ValueError(f"phase_diff must be finite, got {self.phase_diff}")
        if self.intensity_y < 0 or not math.isfinite(self.intensity_y):
            raise ValueError(f"intensity_y must be >= 0, got {self.intensity_y}")


@dataclass(frozen=True)
class ObservablePair:
    """Mean and variance of the detected photon number for one delay."""

    mean_ny: float
    var_ny: float

    def __post_init__(self) -> None:
        if self.mean_ny < 0:
            raise ValueError(f"mean_ny must be >= 0, got {self.mean_ny}")
        if self.var_ny < 0:
            raise ValueError(f"var_ny must be >= 0, got {self.var_ny}")


def _require_real(value, label: str, delays=None):
    """Real part of value, elementwise, once its imaginary residue is round-off.

    Raises ArithmeticError naming the first element that fails and,
    when delays is given, that element's delay.
    """
    value = np.asarray(value)
    scale = np.maximum(1.0, np.abs(value.real))
    residue = np.abs(value.imag) > _REALITY_TOL * scale
    if residue.any():
        i = int(np.argmax(residue))
        where = ""
        if delays is not None:
            where = f" at delay {float(np.ravel(delays)[i])!r} ps"
        raise ArithmeticError(
            f"{label}{where} has imaginary residue {value.imag.flat[i]:.3e}; "
            "moment algebra is inconsistent"
        )
    return value.real


def _mean_ny(mean_b, occupation, probe: ProbeSpec):
    """Mean detected photon number before the reality guard.

    Exact in the rotation angle: the coherent part is attenuated by
    cos^2, the phonon occupation enters with sin^2 and the coherent
    phonon amplitude beats against the field with sin(2 angle). The
    moments may be arrays, one state per element.
    """
    th = probe.coupling_norm
    iy = probe.intensity_y
    dth = probe.phase_diff
    s, c = math.sin(th), math.cos(th)
    m = mean_b
    cross = (
        0.5j
        * math.sqrt(iy)
        * math.sin(2.0 * th)
        * (cmath.exp(-1j * dth) * np.conj(m) - cmath.exp(1j * dth) * m)
    )
    return iy * c * c + s * s * occupation + cross


def _var_ny(mean_b, occupation, anomalous, probe: ProbeSpec):
    """Variance of the detected photon number from the raw moments.

    Cubic and quartic phonon moments are reduced to the first and second
    moments by the Gaussian factorization, exact for every state this
    model produces (thermal, displaced, squeezed, damped). The expression
    is assembled from centered moments, which keeps it manifestly real
    and free of large-displacement cancellation. The moments may be
    arrays, one state per element.
    """
    th = probe.coupling_norm
    iy = probe.intensity_y
    dth = probe.phase_diff
    s, c = math.sin(th), math.cos(th)
    m = mean_b
    nu = occupation - np.abs(m) ** 2
    sig = anomalous - m * m
    rot = cmath.exp(1j * dth)

    # <n^2> - <n>^2 by the Gaussian factorization, centered form.
    var_n = (
        nu * (nu + 1.0)
        + np.abs(sig) ** 2
        + np.abs(m) ** 2 * (2.0 * nu + 1.0)
        + 2.0 * (np.conj(m) ** 2 * sig).real
    )
    # Cubic beat term <b† b b> - <b† b><b>, centered.
    cubic = np.conj(m) * sig + m * (nu + 0.5)
    return (
        iy * c ** 4
        + s ** 4 * var_n
        + s * s * c * c * (nu + np.abs(m) ** 2)
        + iy * s * s * c * c * (2.0 * nu + 1.0)
        - 2.0 * iy * s * s * c * c * (rot * rot * sig).real
        + 2.0 * math.sqrt(iy) * s * c ** 3 * (rot * m).imag
        + 4.0 * math.sqrt(iy) * s ** 3 * c * (rot * cubic).imag
    )


def probe_mean(state: GaussianPhononState, probe: ProbeSpec) -> float:
    """Mean detected photon number after the probe interaction."""
    value = _mean_ny(state.mean_b, state.occupation, probe)
    return float(_require_real(value, "probe mean"))


def probe_variance(state: GaussianPhononState, probe: ProbeSpec) -> float:
    """Variance of the detected photon number after the probe interaction."""
    return float(_var_ny(state.mean_b, state.occupation, state.anomalous, probe))


def amplitude_prefactor(probe: ProbeSpec, thermal_n: float) -> float:
    """Second-harmonic amplitude per sinh(2r), at zero delay.

    thermal_n is the occupation of the state the pump acts on.
    """
    return (
        probe.intensity_y
        * (1.0 + 2.0 * thermal_n)
        / 8.0
        * math.sin(2.0 * probe.coupling_norm) ** 2
    )


def predict_trace(
    pump: PumpSpec,
    bath: BathSpec,
    probe: ProbeSpec,
    thermal_n: float,
    delays,
) -> np.ndarray:
    """Noiseless model trace over a delay grid.

    Prepares a thermal phonon state, applies the impulsive pump, relaxes
    to every delay at once and evaluates the probe read-out on the moment
    arrays, through the same formulas as probe_mean and probe_variance.
    Each delay's state is checked for physicality and its mean for
    reality; an error names the first delay that fails. Returns an array
    of shape (len(delays), 3) with columns (delay, mean_ny, var_ny).
    """
    taus = np.asarray(delays, dtype=float)
    if taus.ndim != 1 or taus.size == 0:
        raise ValueError("delays must be a non-empty 1-D sequence")
    if not np.all(np.isfinite(taus)) or taus[0] < 0:
        raise ValueError("delays must be finite and non-negative")
    if taus.size > 1 and not np.all(np.diff(taus) > 0):
        raise ValueError("delays must be strictly increasing")
    c1, c2 = pump_coefficients(pump)
    pumped = apply_pump(thermal_state(thermal_n), c1, c2)
    m, occ, an = evolved_moments(pumped, taus, bath)
    check_moments(m, occ, an, taus)
    out = np.empty((taus.size, 3), dtype=float)
    out[:, 0] = taus
    out[:, 1] = _require_real(_mean_ny(m, occ, probe), "probe mean", taus)
    out[:, 2] = _var_ny(m, occ, an, probe)
    return out
