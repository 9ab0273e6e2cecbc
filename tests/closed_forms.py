"""Closed forms that only the tests use, as references for the package.

The quadrature variances of a Gaussian state, the squeeze parameters of
a pump coefficient, and the fundamental and second-harmonic amplitudes
of the noiseless variance trace. The package computes none of these:
the tests compare them with the moment algebra, the Fock oracle and the
spectra of predicted and sampled traces.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from isrsim.probe import ProbeSpec, amplitude_prefactor
from isrsim.states import BathSpec, GaussianPhononState, PumpSpec, pump_coefficients


def squeeze_parameters(c2: complex) -> tuple[float, float]:
    """Squeeze magnitude r = 2|c2| and quadrature angle psi = arg(c2) + pi/2."""
    c2 = complex(c2)
    return 2.0 * abs(c2), cmath.phase(c2) + math.pi / 2.0


def quadrature_variance(state: GaussianPhononState) -> float:
    """Variance of the position-like quadrature (b + b†)/sqrt(2)."""
    return state.central_occupation + 0.5 + state.central_anomalous.real


def conjugate_quadrature_variance(state: GaussianPhononState) -> float:
    """Variance of the momentum-like quadrature (b - b†)/(i sqrt(2))."""
    return state.central_occupation + 0.5 - state.central_anomalous.real


def amplitude_2omega(
    tau: float, pump: PumpSpec, bath: BathSpec, probe: ProbeSpec
) -> float:
    """Second-harmonic amplitude of the variance trace at delay tau.

    The variance oscillates as 2|A| cos(2 Omega tau + phase); this
    returns |A|. It is nonzero only under squeezing (r > 0) and decays
    at the full damping rate, twice the rate of the fundamental. The
    pump acts on a thermal state at the bath occupation.
    """
    _, c2 = pump_coefficients(pump)
    r = 2.0 * abs(c2)
    decay = math.exp(-bath.damping_rate * tau)
    return amplitude_prefactor(probe, bath.n_bath) * decay * math.sinh(2.0 * r)


def amplitude_omega(
    tau: float,
    z: complex,
    pump: PumpSpec,
    bath: BathSpec,
    probe: ProbeSpec,
    n: float,
) -> float:
    """Fundamental-frequency amplitude of the variance trace at delay tau.

    z is the coherent phonon amplitude <b> immediately after the pump
    and n the pre-pump thermal occupation. The variance trace carries
    2|A| cos(Omega tau + phase); this returns |A|, assembled from the
    evolved first moment beating against the field (leading term) and
    against the relaxing occupation and anomalous moment (cubic terms).
    """
    z = complex(z)
    _, c2 = pump_coefficients(pump)
    r = 2.0 * abs(c2)
    s, c = math.sin(probe.coupling_norm), math.cos(probe.coupling_norm)
    iy = probe.intensity_y
    lam = bath.damping_rate
    if r > 0.0:
        phi = cmath.phase(c2)
        sig0 = math.cosh(r) * (-1j * cmath.exp(1j * phi) * math.sinh(r)) * (
            2.0 * n + 1.0
        )
    else:
        sig0 = 0.0j
    nu0 = n * math.cosh(r) ** 2 + (n + 1.0) * math.sinh(r) ** 2
    occ_relaxed = bath.n_bath + (nu0 - bath.n_bath) * math.exp(-lam * tau)
    beat = 2.0 * math.sqrt(iy) * s * c ** 3 * z * math.exp(-lam * tau / 2.0)
    cubic = (
        4.0
        * math.sqrt(iy)
        * s ** 3
        * c
        * (
            np.conj(z) * sig0 * math.exp(-1.5 * lam * tau)
            + z * math.exp(-lam * tau / 2.0) * (occ_relaxed + 0.5)
        )
    )
    return abs(beat + cubic) / 2.0
