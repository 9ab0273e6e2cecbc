"""Brute-force validation path on truncated number-state density matrices.

Every fast-path result has an exact counterpart here. The pump unitary is
a dense matrix exponential. Dissipative evolution is integrated with a
classical fourth-order Runge-Kutta scheme in the frame rotating with the
mode; the rotation commutes with the phase-covariant dissipator, so it
is applied exactly at the end. The probe read-out is an exact two-mode
computation with the bright field held in a displaced frame so that a
small photon cutoff suffices, and in a phase frame that makes the sparse
two-mode generator real symmetric; its exponential is applied to the
photon-vacuum columns only, by a Chebyshev series in real arithmetic
(Tal-Ezer and Kosloff, J. Chem. Phys. 81, 3967, 1984). Nothing in this
module reuses the closed-form moment algebra it is meant to check.
"""

from __future__ import annotations

import cmath
import math
import time
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .probe import ObservablePair, ProbeSpec, probe_mean, probe_variance
from .states import BathSpec, apply_pump, evolve, thermal_state

DEFAULT_PHONON_DIM = 60
DEFAULT_PHOTON_DIM = 40

_HERM_TOL = 1e-12
_TRACE_TOL = 1e-10
_EIG_TOL = 1e-10
_TAIL_TOL = 1e-8
# Bound on the discarded tail of probe_exact's Chebyshev series.
_CHEB_TOL = 1e-15
# cross_validate passes a case when every moment agrees to MOMENT_TOL and
# both probe observables to PROBE_TOL, relative.
MOMENT_TOL = 1e-6
PROBE_TOL = 1e-4

# Absolute moment-error budget steering the default integrator step. In
# the rotating frame the moments relax at rates of at most lambda, so
# their global Runge-Kutta error grows like tau * lambda^5 * dt^4 / 120.
_RK4_ERROR_BUDGET = 3e-10
# Largest |h * eigenvalue| the default step allows: inside classical
# RK4's real-axis stability interval [-2.785, 0], with a margin.
_RK4_STABLE_Z = 2.5


class TruncationError(RuntimeError):
    """Hilbert-space cutoff too small for the state it must hold."""

    def __init__(
        self,
        message: str,
        suggested_dim: int | None = None,
        register: str = "phonon",
    ):
        super().__init__(message)
        self.suggested_dim = suggested_dim
        self.register = register


class StepSizeError(RuntimeError):
    """Integrator step produced unacceptable trace drift."""


@dataclass(frozen=True)
class FockDensityMatrix:
    """Density matrix in the truncated number basis.

    Construction validates hermiticity, unit trace, positivity and the
    tail-mass health of the truncation (population of the top 10% of
    levels below 1e-8).
    """

    dim: int
    rho: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        rho = np.array(self.rho, dtype=complex)
        if rho.shape != (self.dim, self.dim):
            raise ValueError(
                f"rho must be {self.dim}x{self.dim}, got {rho.shape}"
            )
        if self.dim < 2:
            raise ValueError("dim must be at least 2")
        herm = np.max(np.abs(rho - rho.conj().T))
        if herm > _HERM_TOL:
            raise ValueError(f"rho not Hermitian: max asymmetry {herm:.3e}")
        tr = np.trace(rho).real
        if abs(tr - 1.0) > _TRACE_TOL:
            raise ValueError(f"trace(rho) = {tr!r}, must be 1")
        eigs = np.linalg.eigvalsh(rho)
        if eigs[0] < -_EIG_TOL:
            raise ValueError(f"rho has negative eigenvalue {eigs[0]:.3e}")
        rho.flags.writeable = False
        object.__setattr__(self, "rho", rho)
        tail = self.tail_mass()
        if tail > _TAIL_TOL:
            raise TruncationError(
                f"top-decile population {tail:.3e} exceeds {_TAIL_TOL:.0e}; "
                f"retry with dim >= {2 * self.dim}",
                suggested_dim=2 * self.dim,
            )

    def tail_mass(self) -> float:
        """Population held in the top 10% of levels."""
        start = int(math.ceil(0.9 * self.dim))
        return float(np.sum(np.diagonal(self.rho)[start:]).real)

    def moments(self) -> tuple[complex, float, complex]:
        """(mean_b, occupation, anomalous) by direct trace evaluation."""
        d = self.dim
        k = np.arange(d)
        pops = np.diagonal(self.rho).real
        occ = float(np.dot(k, pops))
        sub = np.diagonal(self.rho, offset=-1)
        mean_b = complex(np.dot(np.sqrt(k[1:]), sub))
        sub2 = np.diagonal(self.rho, offset=-2)
        anom = complex(np.dot(np.sqrt((k[:-2] + 1.0) * (k[:-2] + 2.0)), sub2))
        return mean_b, occ, anom


def _destroy(dim: int) -> np.ndarray:
    return np.diag(np.sqrt(np.arange(1.0, dim)), 1).astype(complex)


def suggest_dim(n_eff: float, disp_sq: float = 0.0, floor: int = 32) -> int:
    """Cutoff guess for a displaced squeezed-thermal population.

    n_eff is the widest-quadrature effective thermal occupation
    (central occupation plus |central anomalous|, which controls the
    geometric tail ratio) and disp_sq the squared displacement. The
    guess targets the top-decile tail-mass requirement; construction
    re-checks it, so an undershoot costs one retry, not correctness.
    """
    n_eff = max(float(n_eff), 1e-6)
    disp_sq = max(float(disp_sq), 0.0)
    log_ratio = math.log((n_eff + 1.0) / n_eff)
    shift = disp_sq + 2.0 * math.sqrt(disp_sq * (n_eff + 1.0)) + n_eff
    level = (shift + 18.0 / log_ratio) / 0.9
    return max(floor, int(math.ceil(level / 8.0)) * 8)


def build_thermal_fock(n_mean: float, dim: int = DEFAULT_PHONON_DIM) -> FockDensityMatrix:
    """Thermal state: diagonal geometric populations, renormalized."""
    if n_mean < 0 or not math.isfinite(n_mean):
        raise ValueError(f"n_mean must be >= 0, got {n_mean}")
    if dim < 2:
        raise ValueError("dim must be at least 2")
    if n_mean == 0.0:
        pops = np.zeros(dim)
        pops[0] = 1.0
    else:
        ratio = n_mean / (n_mean + 1.0)
        pops = ratio ** np.arange(dim)
        pops /= pops.sum()
    return FockDensityMatrix(dim, np.diag(pops).astype(complex))


def embed(state: FockDensityMatrix, dim: int) -> FockDensityMatrix:
    """Zero-pad into a larger cutoff (exact)."""
    if dim < state.dim:
        raise ValueError("embedding dimension must not shrink the space")
    if dim == state.dim:
        return state
    rho = np.zeros((dim, dim), dtype=complex)
    rho[: state.dim, : state.dim] = state.rho
    return FockDensityMatrix(dim, rho)


def truncate(state: FockDensityMatrix, dim: int) -> FockDensityMatrix:
    """Cut to a smaller cutoff, allowed only when the cut mass is negligible."""
    if dim >= state.dim:
        return embed(state, dim)
    if dim < 2:
        raise ValueError("dim must be at least 2")
    cut = 1.0 - float(np.sum(np.diagonal(state.rho)[:dim]).real)
    if cut > 1e-9:
        raise TruncationError(
            f"cut would discard population {cut:.3e}", suggested_dim=state.dim
        )
    rho = np.array(state.rho[:dim, :dim])
    rho /= np.trace(rho).real
    return FockDensityMatrix(dim, rho)


def apply_pump_exact(
    state: FockDensityMatrix, c1: complex, c2: complex
) -> FockDensityMatrix:
    """Conjugate by the exponential of the truncated pump generator."""
    # scipy's linear algebra is imported on first use, here and in
    # probe_exact, so that commands which never run the oracle skip it.
    from scipy.linalg import expm

    d = state.dim
    b = _destroy(d)
    bd = b.conj().T
    gen = c1 * bd + np.conj(c1) * b + c2 * (bd @ bd) + np.conj(c2) * (b @ b)
    u = expm(-1j * gen)
    return FockDensityMatrix(d, u @ state.rho @ u.conj().T)


def _lindblad_tables(dim: int, bath: BathSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Elementwise drift and shifted-jump weights of the rotating-frame generator.

    In the number basis the generator touches rho[j, k] only through the
    same element and its (j+1, k+1) / (j-1, k-1) neighbours, so the
    right-hand side is three elementwise products instead of matrix
    multiplications. The free rotation -i omega (j - k) is left out: it
    is constant along each of those couplings, so it commutes with the
    dissipator and evolve_lindblad_exact applies it exactly at the end.
    """
    j = np.arange(dim, dtype=float)
    lam = bath.damping_rate
    nb = bath.n_bath
    total = j[:, None] + j[None, :]
    drift = -0.5 * lam * (1.0 + nb) * total - 0.5 * lam * nb * (total + 2.0)
    root = np.sqrt(j)
    up = lam * (1.0 + nb) * np.outer(root[1:], root[1:])  # from rho[j+1, k+1]
    down = lam * nb * np.outer(root[1:], root[1:])  # from rho[j-1, k-1]
    return drift, up, down


def _lindblad_rhs(
    rho: np.ndarray, drift: np.ndarray, up: np.ndarray, down: np.ndarray
) -> np.ndarray:
    out = drift * rho
    out[:-1, :-1] += up * rho[1:, 1:]
    out[1:, 1:] += down * rho[:-1, :-1]
    return out


def _stable_step(bath: BathSpec, dim: int) -> float:
    """Largest RK4 step that is stable for the rotating-frame generator.

    Each band j - k = const of the generator is tridiagonal with
    off-diagonal products >= 0, so its spectrum is real. In every column
    the off-diagonal sum is at most the diagonal's magnitude, so by
    Gershgorin's theorem on the columns the spectrum lies in
    [-2 lambda (1 + 2 n_bath) dim, 0] at this cutoff.
    """
    stiffness = 2.0 * bath.damping_rate * (1.0 + 2.0 * bath.n_bath) * dim
    return _RK4_STABLE_Z / stiffness if stiffness > 0 else math.inf


def default_step(tau: float, bath: BathSpec, dim: int = DEFAULT_PHONON_DIM) -> float:
    """Integrator step meeting the stability bound at cutoff dim and the accuracy budget."""
    dt = _stable_step(bath, dim)
    lam = bath.damping_rate
    if tau > 0 and lam > 0:
        dt = min(dt, (120.0 * _RK4_ERROR_BUDGET / (tau * lam**5)) ** 0.25)
    return min(dt, tau) if tau > 0 else dt


def evolve_lindblad_exact(
    state: FockDensityMatrix,
    tau: float,
    bath: BathSpec,
    dt: float | None = None,
    return_drift: bool = False,
):
    """Integrate the damped-mode master equation with classical RK4.

    The dissipator is integrated in the frame rotating with the mode and
    the free rotation exp(-i omega (j - k) tau) is applied exactly at the
    end, so the step is set by damping alone. dt defaults to a step that
    keeps h times the generator's Gershgorin bound 2 lambda (1 + 2 n_bath)
    dim inside RK4's stability interval and meets an accuracy budget
    keeping the accumulated moment error near 1e-10; a given dt above the
    stability bound raises ValueError. Trace drift beyond 1e-6 raises
    StepSizeError; smaller drift (population leaking past the truncation
    boundary, plus roundoff) is renormalized away and reported when
    return_drift is set.
    """
    if tau < 0 or not math.isfinite(tau):
        raise ValueError(f"tau must be >= 0 and finite, got {tau}")
    if tau == 0.0:
        return (state, 0.0) if return_drift else state
    bound = _stable_step(bath, state.dim)
    if dt is None:
        dt = default_step(tau, bath, state.dim)
    elif dt <= 0 or dt > bound:
        raise ValueError(
            f"dt = {dt} violates the stability bound {bound:.3e}"
        )
    steps = max(1, int(math.ceil(tau / dt)))
    h = tau / steps
    drift, up, down = _lindblad_tables(state.dim, bath)
    # The rotating-frame generator has real coefficients and keeps every
    # element on its band j - k, so the real part of the lower triangle
    # and the imaginary part of the strict upper triangle evolve apart;
    # one real matrix holds both, which halves the arithmetic, and the
    # Hermitian matrix rebuilt from it is exactly Hermitian.
    x = np.tril(state.rho.real) + np.triu(state.rho.imag, 1)
    for _ in range(steps):
        k1 = _lindblad_rhs(x, drift, up, down)
        k2 = _lindblad_rhs(x + 0.5 * h * k1, drift, up, down)
        k3 = _lindblad_rhs(x + 0.5 * h * k2, drift, up, down)
        k4 = _lindblad_rhs(x + h * k3, drift, up, down)
        x += (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    tr = float(np.trace(x))
    drift_err = abs(tr - 1.0)
    if drift_err > 1e-6:
        raise StepSizeError(
            f"trace drifted by {drift_err:.3e} over {steps} steps; reduce dt"
        )
    lower = np.tril(x, -1)
    upper = np.triu(x, 1)
    rho = (np.diag(np.diag(x)) + lower + lower.T) + 1j * (upper - upper.T)
    j = np.arange(state.dim)
    rho *= np.exp(-1j * bath.omega_rad_ps * tau * (j[:, None] - j[None, :])) / tr
    out = FockDensityMatrix(state.dim, rho)
    return (out, drift_err) if return_drift else out


def _chebyshev_coefficients(radius: float) -> np.ndarray:
    """Coefficients c_k of exp(-i x) = sum_k c_k (-i)^k T_k(x / radius).

    The expansion (Tal-Ezer and Kosloff, J. Chem. Phys. 81, 3967, 1984)
    holds for |x| <= radius, with c_0 = J_0(radius) and c_k = 2 J_k(radius).
    Since |J_k(R)| <= (R/2)^k / k!, the terms from K on sum to at most
    2 (R/2)^K / K! / (1 - R / (2K + 2)); the series keeps the first K
    terms, K the first count that bounds this tail by _CHEB_TOL. The
    Bessel values come from Miller's backward recurrence, normalised by
    J_0 + 2 sum_m J_2m = 1.
    """
    if radius == 0.0:
        return np.ones(1)
    half = 0.5 * radius
    n_terms = 1
    while not (
        half < n_terms + 1
        and math.log(2.0)
        + n_terms * math.log(half)
        - math.lgamma(n_terms + 1)
        - math.log1p(-half / (n_terms + 1))
        <= math.log(_CHEB_TOL)
    ):
        n_terms += 1
    start = n_terms + 16 + int(math.sqrt(40.0 * n_terms))
    bessel = np.zeros(start + 2)
    bessel[start] = 1.0
    for k in range(start, 0, -1):
        bessel[k - 1] = (2.0 * k / radius) * bessel[k] - bessel[k + 1]
        if abs(bessel[k - 1]) > 1e250:
            bessel[k - 1 :] *= 1e-250
    bessel /= bessel[0] + 2.0 * bessel[2::2].sum()
    coeffs = 2.0 * bessel[:n_terms]
    coeffs[0] = bessel[0]
    return coeffs


def _vacuum_block(gen, photon_dim: int, dph: int) -> np.ndarray:
    """exp(-i G) on the photon-vacuum columns, as a (photon, phonon, column) array.

    G is the real symmetric sparse generator. The Chebyshev terms
    T_k(G / R) E, E the vacuum columns and R the Gershgorin bound on G's
    spectrum, follow from T_{k+1} = (2 / R) G T_k - T_{k-1} on real
    arrays. G moves the phonon index by one, so T_k E is nonzero only
    where j - c (row phonon level minus column) has the parity of k: the
    even terms, whose coefficients (-i)^k c_k are real, and the odd
    terms, whose coefficients are imaginary, never overlap. One real sum
    holds both, with the sign of (-i)^k folded in, and the factor -i of
    the odd entries is restored once at the end.
    """
    radius = float(abs(gen).sum(axis=1).max())
    coeffs = _chebyshev_coefficients(radius)
    prev = np.eye(photon_dim * dph, dph)
    acc = coeffs[0] * prev
    cur = None
    if coeffs.size > 1:
        gen = gen * (2.0 / radius)
        cur = 0.5 * (gen @ prev)
        acc += coeffs[1] * cur
    for k in range(2, coeffs.size):
        # T_k = (2 / R) G T_{k-1} - T_{k-2}, written over T_{k-2}.
        np.subtract(gen @ cur, prev, out=prev)
        acc += (-coeffs[k] if k % 4 >= 2 else coeffs[k]) * prev
        prev, cur = cur, prev
    del prev, cur
    j = np.arange(dph)
    odd = (j[:, None] - j[None, :]) % 2 == 1
    return acc.reshape(photon_dim, dph, dph) * np.where(odd, -1j, 1.0)


def probe_exact(
    rho_phonon: FockDensityMatrix,
    probe: ProbeSpec,
    photon_dim: int = DEFAULT_PHOTON_DIM,
) -> ObservablePair:
    """Exact two-mode probe read-out.

    The bright field is held in a frame displaced by its coherent
    amplitude amp = sqrt(I_y) exp(-i phase_diff), so the photon register
    starts in the vacuum and a small cutoff suffices; the exchange unitary
    and the number operator are conjugated into the same frame, which is
    exact. A second exact change of basis, the diagonal phases
    exp(-i p phase_diff) x exp(-i j phase_diff) on photon level p and
    phonon level j, makes amp real: the one-exchange generator becomes
    the real symmetric theta (C x b^T + C^T x b) with C = a + sqrt(I_y),
    the number operator C^T C, and the phonon state picks up
    exp(i phase_diff (j - k)); the diagonals the tail checks read are
    unchanged. The exponential is applied to the photon-vacuum columns
    only, the one block the initial state populates, by a Chebyshev
    series in the generator scaled by its Gershgorin bound, run on real
    arrays; the full unitary is never formed.
    """
    if photon_dim < 30:
        raise ValueError("photon_dim must be at least 30")
    import scipy.sparse as sp

    dph = rho_phonon.dim
    coll = np.diag(np.sqrt(np.arange(1.0, photon_dim)), 1) + math.sqrt(
        probe.intensity_y
    ) * np.eye(photon_dim)
    b = sp.csr_array(np.diag(np.sqrt(np.arange(1.0, dph)), 1))
    gen = probe.coupling_norm * (
        sp.kron(sp.csr_array(coll), b.T) + sp.kron(sp.csr_array(coll.T), b)
    )
    block3 = _vacuum_block(gen.tocsr(), photon_dim, dph)
    block = block3.reshape(photon_dim * dph, dph)

    # Number operator in the displaced, phase-aligned frame acts on the
    # photon factor alone: C^T C.
    n_photon = coll.T @ coll
    n_block = np.einsum("pq,qkj->pkj", n_photon, block3).reshape(
        photon_dim * dph, dph
    )

    rot = np.exp(1j * probe.phase_diff * np.arange(dph))
    rho = rot[:, None] * rho_phonon.rho * rot.conj()[None, :]
    m1 = block.conj().T @ n_block
    m2 = n_block.conj().T @ n_block
    mean = float(np.einsum("ij,ji->", m1, rho).real)
    second = float(np.einsum("ij,ji->", m2, rho).real)

    # Truncation health of the evolved two-mode state, checked on the
    # reduced diagonals without forming the full density matrix:
    # Re sum_k (B rho)_jk conj(B_jk), summed over real and imaginary parts
    # so that B rho is the only block-sized temporary. B rho is taken one
    # photon level (a dph x dph slice) at a time: one tall product touches
    # more BLAS buffer memory and raised the oracle's peak RSS.
    block_rho = (block3 @ rho).reshape(block.shape)
    joint_diag = np.einsum("ij,ij->i", block_rho.real, block.real) + np.einsum(
        "ij,ij->i", block_rho.imag, block.imag
    )
    joint = joint_diag.reshape(photon_dim, dph)
    photon_tail = float(joint[int(math.ceil(0.9 * photon_dim)) :, :].sum())
    phonon_tail = float(joint[:, int(math.ceil(0.9 * dph)) :].sum())
    if photon_tail > _TAIL_TOL:
        raise TruncationError(
            f"photon register tail mass {photon_tail:.3e}; "
            f"retry with photon_dim >= {2 * photon_dim}",
            suggested_dim=2 * photon_dim,
            register="photon",
        )
    if phonon_tail > _TAIL_TOL:
        raise TruncationError(
            f"phonon register tail mass {phonon_tail:.3e}; "
            f"retry with phonon dim >= {2 * dph}",
            suggested_dim=2 * dph,
        )
    return ObservablePair(mean, second - mean * mean)


def quadrature_variances_exact(state: FockDensityMatrix) -> tuple[float, float]:
    """Variances of (b+b†)/sqrt(2) and (b-b†)/(i sqrt(2)) by direct trace."""
    m, occ, anom = state.moments()
    pos = occ + 0.5 + anom.real - 2.0 * m.real**2
    mom = occ + 0.5 - anom.real - 2.0 * m.imag**2
    return float(pos), float(mom)


@dataclass(frozen=True)
class CrossCheckCase:
    """One grid point of the fast-path vs oracle comparison."""

    thermal_n: float
    c1: complex
    c2: complex
    damping_rate: float
    delay: float
    coupling_norm: float
    intensity_y: float
    phase_diff: float
    omega: float = 2.0 * math.pi * 3.84


@dataclass(frozen=True)
class CrossCheckResult:
    case: CrossCheckCase
    moment_errors: dict
    mean_error: float
    var_error: float
    phonon_dim: int
    photon_dim: int
    elapsed_s: float
    passed: bool
    detail: str = ""


def default_grid(seed: int = 20260814, n_random: int = 6) -> list[CrossCheckCase]:
    """Corner cases plus seeded random draws over the validated ranges."""
    rng = np.random.default_rng(seed)
    cases = [
        CrossCheckCase(2.0, 0.9 - 0.4j, 0.25j, 1.0, 3.0, 0.3, 50.0, 0.7),
        CrossCheckCase(0.0, 0.0, 0.0, 0.5, 0.0, 0.0, 5.0, 0.0),
    ]
    for _ in range(n_random):
        lam = rng.uniform(0.6, 2.0)
        # Squeeze magnitude r = 2|c2| sampled uniformly over the
        # validated range [0, 0.5], with a free phase.
        r = rng.uniform(0.0, 0.5)
        phase = rng.uniform(-math.pi, math.pi)
        cases.append(
            CrossCheckCase(
                thermal_n=float(rng.uniform(0.0, 2.0)),
                c1=complex(rng.normal(0, 0.4), rng.normal(0, 0.4)),
                c2=complex(0.5 * r * cmath.exp(1j * phase)),
                damping_rate=float(lam),
                delay=float(rng.uniform(0.0, 3.0) / lam),
                coupling_norm=float(rng.uniform(0.0, 0.3)),
                intensity_y=float(rng.uniform(5.0, 50.0)),
                phase_diff=float(rng.uniform(-math.pi, math.pi)),
            )
        )
    return cases


def _rel_err(fast, oracle) -> float:
    return abs(fast - oracle) / max(abs(oracle), 1e-12)


def cross_validate(
    cases: Sequence[CrossCheckCase] | None = None,
    photon_dim: int = 32,
    fault_scale: float = 0.0,
    max_dim: int | None = None,
) -> list[CrossCheckResult]:
    """Run the fast path and the oracle side by side over a grid.

    fault_scale perturbs the fast-path variance by the given relative
    amount before comparison; it exists so the harness can prove the
    check actually fails when a formula is wrong. max_dim caps the
    phonon cutoff; states that genuinely need more levels then raise
    TruncationError instead of retrying upward.
    """
    if cases is None:
        cases = default_grid()
    results = []
    for case in cases:
        t0 = time.perf_counter()
        bath = BathSpec(case.omega, case.damping_rate, case.thermal_n)
        probe = ProbeSpec(
            case.coupling_norm, case.phase_diff, case.intensity_y, 0.0
        )

        # Cutoff guesses come from the fast-path moments; an undersized
        # guess only triggers a retry because construction re-checks the
        # tail, so the comparison itself stays independent.
        fast = apply_pump(thermal_state(case.thermal_n), case.c1, case.c2)
        core_dim = suggest_dim(
            fast.central_occupation + abs(fast.central_anomalous),
            abs(fast.mean_b) ** 2,
        )
        if max_dim is not None:
            core_dim = min(core_dim, max_dim)

        exact, _, _ = _retry_truncation(
            lambda dim, _: apply_pump_exact(
                build_thermal_fock(case.thermal_n, dim), case.c1, case.c2
            ),
            core_dim,
            max_dim=max_dim,
        )
        errs = {}
        em, eo, ea = exact.moments()
        errs["pump_mean_b"] = _rel_err(fast.mean_b, em)
        errs["pump_occupation"] = _rel_err(fast.occupation, eo)
        errs["pump_anomalous"] = _rel_err(fast.anomalous, ea)

        fast = evolve(fast, case.delay, bath)
        exact, _, _ = _retry_truncation(
            lambda dim, _: evolve_lindblad_exact(embed(exact, dim), case.delay, bath),
            exact.dim,
            max_dim=max_dim,
        )
        em, eo, ea = exact.moments()
        errs["evolve_mean_b"] = _rel_err(fast.mean_b, em)
        errs["evolve_occupation"] = _rel_err(fast.occupation, eo)
        errs["evolve_anomalous"] = _rel_err(fast.anomalous, ea)

        mean_fast = probe_mean(fast, probe)
        var_fast = probe_variance(fast, probe) * (1.0 + fault_scale)
        drive = abs(fast.mean_b) + case.coupling_norm * math.sqrt(
            case.intensity_y
        )
        probe_dim = suggest_dim(
            fast.central_occupation + abs(fast.central_anomalous), drive ** 2
        )
        if max_dim is not None:
            probe_dim = min(probe_dim, max_dim)
        # Shrink (or pad) to the probe-stage cutoff first; the cut is
        # refused unless the discarded population is negligible.
        pair, probe_dim, photon_used = _retry_truncation(
            lambda dim, photons: probe_exact(
                truncate(exact, max(dim, 8)), probe, photons
            ),
            probe_dim,
            photon_dim,
            max_dim,
        )
        mean_err = _rel_err(mean_fast, pair.mean_ny)
        var_err = _rel_err(var_fast, pair.var_ny)

        passed = (
            all(e < MOMENT_TOL for e in errs.values())
            and mean_err < PROBE_TOL
            and var_err < PROBE_TOL
        )
        results.append(
            CrossCheckResult(
                case=case,
                moment_errors=errs,
                mean_error=mean_err,
                var_error=var_err,
                phonon_dim=probe_dim,
                photon_dim=photon_used,
                elapsed_s=time.perf_counter() - t0,
                passed=passed,
                detail="" if passed else "tolerance exceeded",
            )
        )
    return results


def _retry_truncation(stage, dim: int, photon_dim: int = 0, max_dim: int | None = None):
    """Run stage(dim, photon_dim), growing the register a truncation names.

    A TruncationError from the photon register grows photon_dim; one from
    the phonon register grows dim, to at most max_dim, and propagates once
    dim is already there. Returns (result, dim, photon_dim) of the first
    attempt that passes; the third failure propagates.
    """
    for attempt in range(3):
        try:
            return stage(dim, photon_dim), dim, photon_dim
        except TruncationError as exc:
            if attempt == 2:
                raise
            if exc.register == "photon":
                photon_dim = exc.suggested_dim or 2 * photon_dim
                continue
            bigger = exc.suggested_dim or 2 * dim
            if max_dim is not None and bigger > max_dim:
                if dim >= max_dim:
                    raise
                bigger = max_dim
            dim = bigger
