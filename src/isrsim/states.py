"""Gaussian description of a single damped phonon mode.

The mode is tracked through its first and second moments,

    mean_b = <b>,   occupation = <b† b>,   anomalous = <b b>,

which is closed and exact for every transformation used here: thermal
preparation, the impulsive pump (a combined displacement and one-mode
squeeze) and linear damping toward a thermal bath.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Below this squeeze weight the pump is treated as a pure displacement;
# the affine map's S - 1 factor would otherwise lose precision as 0/0.
DISPLACEMENT_ONLY_THRESHOLD = 1e-8

# Planck and Boltzmann constants, exact in the SI since 2019.
PLANCK_J_S = 6.62607015e-34
BOLTZMANN_J_PER_K = 1.380649e-23

_PHYS_TOL = 1e-10


class PhysicalityError(ValueError):
    """The moments do not describe a valid bosonic state."""


def check_moments(mean_b, occupation, anomalous, delays=None) -> None:
    """Raise PhysicalityError unless the moments describe bosonic states.

    The moments may be arrays (one state per element, broadcast
    together). The error names the first failing element's reason and,
    when delays is given, that element's delay.
    """
    m, occ, an = (
        np.ravel(v)
        for v in np.broadcast_arrays(
            np.asarray(mean_b, dtype=complex),
            np.asarray(occupation, dtype=float),
            np.asarray(anomalous, dtype=complex),
        )
    )
    with np.errstate(invalid="ignore", over="ignore"):
        nu = occ - np.abs(m) ** 2
        margin = (nu + 0.5) ** 2 - np.abs(an - m * m) ** 2
        scale = np.maximum(1.0, (nu + 0.5) ** 2)
        finite = np.isfinite(np.abs(m)) & np.isfinite(occ) & np.isfinite(np.abs(an))
        negative = nu < -_PHYS_TOL * scale
        # Heisenberg bound for one-mode Gaussian states.
        uncertain = margin < 0.25 - _PHYS_TOL * scale
    bad = ~finite | negative | uncertain
    if not bad.any():
        return
    i = int(np.argmax(bad))
    if not finite[i]:
        reason = (
            f"moments are not finite: mean_b={complex(m[i])!r}, "
            f"occupation={float(occ[i])!r}, anomalous={complex(an[i])!r}"
        )
    elif negative[i]:
        reason = f"central occupation {nu[i]:.3e} is negative beyond tolerance"
    else:
        reason = (
            "second moments violate the uncertainty bound: "
            f"(nu+1/2)^2 - |sigma|^2 = {margin[i]:.6e} < 1/4"
        )
    if delays is not None:
        reason = f"state at delay {float(np.ravel(delays)[i])!r} ps: {reason}"
    raise PhysicalityError(reason)


@dataclass(frozen=True)
class GaussianPhononState:
    """Moment triple of a Gaussian phonon state.

    Attributes
    ----------
    mean_b : complex
        First moment <b>.
    occupation : float
        Mean phonon number <b† b>.
    anomalous : complex
        Anomalous second moment <b b>.
    """

    mean_b: complex
    occupation: float
    anomalous: complex

    def __post_init__(self) -> None:
        m = complex(self.mean_b)
        occ = float(self.occupation)
        an = complex(self.anomalous)
        object.__setattr__(self, "mean_b", m)
        object.__setattr__(self, "occupation", occ)
        object.__setattr__(self, "anomalous", an)
        check_moments(m, occ, an)

    @property
    def central_occupation(self) -> float:
        """<b† b> - |<b>|^2, the thermal/squeeze part of the occupation."""
        return self.occupation - abs(self.mean_b) ** 2

    @property
    def central_anomalous(self) -> complex:
        """<b b> - <b>^2, the squeeze part of the anomalous moment."""
        return self.anomalous - self.mean_b * self.mean_b


@dataclass(frozen=True)
class PumpSpec:
    """Impulsive pump drive.

    mu_displace and mu_squeeze are the linear and quadratic couplings per
    unit pump intensity |nu|^2, and nu_amplitude is the magnitude |nu| of
    the pump's coherent amplitude. The drive goes as the intensity, so the
    field's phase cancels and is not a parameter.
    """

    mu_displace: float
    mu_squeeze: float
    nu_amplitude: float

    def __post_init__(self) -> None:
        for name in ("mu_displace", "mu_squeeze"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if not (self.nu_amplitude >= 0 and math.isfinite(self.nu_amplitude)):
            raise ValueError(f"nu_amplitude must be >= 0, got {self.nu_amplitude}")


@dataclass(frozen=True)
class BathSpec:
    """Harmonic frequency and thermal bath felt by the phonon mode.

    omega_rad_ps is the angular frequency in rad/ps, damping_rate the
    energy relaxation rate in 1/ps, n_bath the bath occupation the mode
    relaxes toward.
    """

    omega_rad_ps: float
    damping_rate: float
    n_bath: float

    def __post_init__(self) -> None:
        if not (self.omega_rad_ps > 0 and math.isfinite(self.omega_rad_ps)):
            raise ValueError(f"omega_rad_ps must be positive, got {self.omega_rad_ps}")
        if not (self.damping_rate >= 0 and math.isfinite(self.damping_rate)):
            raise ValueError(f"damping_rate must be >= 0, got {self.damping_rate}")
        if not (self.n_bath >= 0 and math.isfinite(self.n_bath)):
            raise ValueError(f"n_bath must be >= 0, got {self.n_bath}")


def thermal_occupation(beta_omega: float) -> float:
    """Bose-Einstein occupation 1/(exp(beta_omega) - 1).

    Parameters
    ----------
    beta_omega : float
        Mode energy over k_B T, strictly positive and finite.
    """
    if not (math.isfinite(beta_omega) and beta_omega > 0):
        raise ValueError(f"beta_omega must be positive and finite, got {beta_omega}")
    if beta_omega > 700.0:
        return 0.0
    return 1.0 / math.expm1(beta_omega)


def beta_omega_from_temperature(frequency_thz: float, temperature_k: float) -> float:
    """hbar*Omega / (k_B T) for a mode frequency in THz."""
    if frequency_thz <= 0 or temperature_k <= 0:
        raise ValueError("frequency and temperature must be positive")
    return PLANCK_J_S * frequency_thz * 1e12 / (BOLTZMANN_J_PER_K * temperature_k)


def thermal_state(n: float) -> GaussianPhononState:
    """Thermal state with mean occupation n."""
    if n < 0 or not math.isfinite(n):
        raise ValueError(f"thermal occupation must be >= 0, got {n}")
    return GaussianPhononState(0.0, float(n), 0.0)


def pump_coefficients(pump: PumpSpec) -> tuple[complex, complex]:
    """The two drive coefficients of the pump.

    The drive goes as the pump intensity nu* nu = |nu|^2, so the phases
    cancel and

        c1 = mu_displace * |nu|^2
        c2 = mu_squeeze  * |nu|^2.
    """
    weight = pump.nu_amplitude ** 2
    return complex(pump.mu_displace * weight), complex(pump.mu_squeeze * weight)


def apply_pump(
    state: GaussianPhononState, c1: complex, c2: complex
) -> GaussianPhononState:
    """Transform the state by U = exp(-i [c1 b† + c1* b + c2 b†^2 + c2* b^2]).

    Sign convention: for c2 = 0 the map is the pure displacement
    b -> b - i c1, so a real positive c1 shifts <b> to -i c1.

    Parameters
    ----------
    state : GaussianPhononState
    c1, c2 : complex
        Displacement and squeeze drive weights.

    Returns
    -------
    GaussianPhononState
    """
    c1 = complex(c1)
    c2 = complex(c2)
    m = state.mean_b
    nu = state.central_occupation
    sig = state.central_anomalous
    if abs(c2) < DISPLACEMENT_ONLY_THRESHOLD:
        m_new = m - 1j * c1
        nu_new, sig_new = nu, sig
    else:
        r = 2.0 * abs(c2)
        ch = math.cosh(r)
        sh = math.sinh(r)
        off = -1j * (c2 / abs(c2)) * sh
        shift = (
            (ch - 1.0) * np.conj(c1) * c2 + off * c1 * np.conj(c2)
        ) / (2.0 * abs(c2) ** 2)
        m_new = ch * m + off * np.conj(m) + shift
        nu_new = ch * ch * nu + sh * sh * (nu + 1.0) + 2.0 * ch * (np.conj(off) * sig).real
        sig_new = ch * ch * sig + off * off * np.conj(sig) + ch * off * (2.0 * nu + 1.0)
    return GaussianPhononState(
        m_new, nu_new + abs(m_new) ** 2, sig_new + m_new * m_new
    )


def evolved_moments(
    state: GaussianPhononState, tau, bath: BathSpec
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Raw moments (<b>, <b† b>, <b b>) after relaxing for each delay in tau.

    Closed-form solution of the weak-coupling master equation:
    <b> picks up exp(-i Omega tau - lambda tau / 2), the central anomalous
    moment exp(-2 i Omega tau - lambda tau), and the central occupation
    relaxes exponentially toward the bath value. tau may be a scalar or
    an array; the moments take its shape and are not yet checked for
    physicality.
    """
    tau = np.asarray(tau, dtype=float)
    bad = ~(np.isfinite(tau) & (tau >= 0))
    if bad.any():
        raise ValueError(
            f"delay must be >= 0 and finite, got {float(tau.flat[np.argmax(bad)])}"
        )
    decay = np.exp(-bath.damping_rate * tau)
    rot = np.exp(-1j * bath.omega_rad_ps * tau)
    m = state.mean_b * rot * np.sqrt(decay)
    sig = state.central_anomalous * rot * rot * decay
    nu = bath.n_bath + (state.central_occupation - bath.n_bath) * decay
    return m, nu + np.abs(m) ** 2, sig + m * m


def evolve(
    state: GaussianPhononState, tau: float, bath: BathSpec
) -> GaussianPhononState:
    """Relax the state for a delay tau under rotation and thermal damping."""
    return GaussianPhononState(*evolved_moments(state, tau, bath))


def squeezed_thermal_quadrature_variance(
    thermal_n: float, r: float, psi: float
) -> float:
    """Quadrature variance of a pumped thermal state, closed form.

    Equals (1/2) coth(beta Omega / 2) [cosh 2r - sinh 2r cos psi] with
    coth(beta Omega / 2) written as 1 + 2 n.
    """
    if thermal_n < 0:
        raise ValueError("thermal occupation must be >= 0")
    return 0.5 * (1.0 + 2.0 * thermal_n) * (
        math.cosh(2.0 * r) - math.sinh(2.0 * r) * math.cos(psi)
    )
