"""Quantum simulator of impulsive Raman pump-probe noise spectroscopy.

A single damped phonon mode is displaced and squeezed by a pump pulse,
relaxes under a thermal bath, and is read out by a weak probe whose
photon-number statistics are digitized pulse by pulse. The package
provides the closed-form Gaussian fast path, an exact Fock-space oracle
for cross-validation, the detection-chain Monte Carlo, and the spectral
analysis used to extract squeezing from the noise traces.
"""

__version__ = "0.1.0"
