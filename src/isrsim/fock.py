"""Brute-force validation path on truncated number-state density matrices.

Every fast-path result has an exact counterpart here. The pump unitary is
the exponential of the Hermitian pump generator, formed from its
eigendecomposition. Dissipative evolution is integrated with a classical
fourth-order Runge-Kutta scheme in the frame rotating with the mode; the
rotation commutes with the phase-covariant dissipator, so it is applied
exactly at the end. The probe read-out needs no photon register: the
exchange moves the bright field's displacement out exactly and conserves
the total number of quanta, so the detected photon's reduced state
follows from the phonon state by the binomial amplitudes of a beam
splitter (Campos, Saleh and Teich, Phys. Rev. A 40, 1371, 1989). Nothing
in this module reuses the closed-form moment algebra it is meant to
check.
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
# Unused by the package; kept only for perfbench/spans.py until ROADMAP item 1.
DEFAULT_PHOTON_DIM = 40

_HERM_TOL = 1e-12
_TRACE_TOL = 1e-10
_EIG_TOL = 1e-10
_TAIL_TOL = 1e-8
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

    def __init__(self, message: str, suggested_dim: int | None = None):
        super().__init__(message)
        self.suggested_dim = suggested_dim


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


# Unused by the package; kept only for perfbench/spans.py until ROADMAP item 1.
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
    """Conjugate by the exponential of the truncated pump generator.

    The generator is Hermitian, so exp(-i G) = V diag(exp(-i w)) V^dagger
    from its eigendecomposition G = V diag(w) V^dagger.
    """
    d = state.dim
    b = _destroy(d)
    bd = b.conj().T
    gen = c1 * bd + np.conj(c1) * b + c2 * (bd @ bd) + np.conj(c2) * (b @ b)
    w, v = np.linalg.eigh(gen)
    u = (v * np.exp(-1j * w)) @ v.conj().T
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


def probe_exact(rho_phonon: FockDensityMatrix, probe: ProbeSpec) -> ObservablePair:
    """Exact probe read-out, one conserved-number sector at a time.

    The diagonal phases exp(i phase_diff j) on the phonon make the bright
    field's amplitude alpha = sqrt(I_y) real. The exchange
    U = exp(-i theta (a b^dagger + a^dagger b)) moves that displacement out
    exactly, U D_a(alpha) = D_a(alpha c) D_b(-i alpha s) U with
    s = sin theta and c = cos theta, and D_b leaves photon observables
    alone; so the read-out is the number (a^dagger + alpha c)(a + alpha c)
    on U (|0><0| x rho) U^dagger. U conserves a^dagger a + b^dagger b and
    sends |0, k> to sum_p sqrt(C(k, p)) (-i s)^p c^(k-p) |p, k-p>, so the
    photon's reduced state is
    rho_ph[p, p'] = sum_q rho[p+q, p'+q] B[p, q] conj(B[p', q]) with
    B[p, q] = sqrt(C(p+q, p)) (-i s)^p c^q. Nothing is truncated: rho_ph
    lives on the phonon cutoff's levels, and padding it by two levels
    makes the number operator and its square exact there.
    """
    d = rho_phonon.dim
    s, c = math.sin(probe.coupling_norm), math.cos(probe.coupling_norm)
    # |B|^2 along each sector k = p + q is the binomial distribution
    # C(k, p) s^2p c^2(k-p); its Pascal recurrence adds positive terms
    # only, so it neither overflows nor cancels, at any angle.
    weights = np.zeros((d, d))
    weights[0, 0] = 1.0
    for k in range(1, d):
        weights[k, : k + 1] = c * c * weights[k - 1, : k + 1]
        weights[k, 1 : k + 1] += s * s * weights[k - 1, :k]
    amp = np.sqrt(weights)

    rot = np.exp(1j * probe.phase_diff * np.arange(d))
    rho = rot[:, None] * rho_phonon.rho * rot.conj()[None, :]
    rho_ph = np.zeros((d + 2, d + 2), dtype=complex)
    for q in range(d):
        col = np.diagonal(amp, -q)  # |B[p, q]| for p = 0 .. d-1-q
        rho_ph[: d - q, : d - q] += rho[q:, q:] * np.outer(col, col)
    # The phases (-i sign(s))^p of B; the sign of c cancels between B and
    # its conjugate.
    phase = np.array([1.0, -1j, -1.0, 1j])[np.arange(d + 2) % 4]
    if s < 0:
        phase = phase.conj()
    rho_ph *= phase[:, None] * phase.conj()[None, :]

    coll = np.diag(np.sqrt(np.arange(1.0, d + 2)), 1) + math.sqrt(
        probe.intensity_y
    ) * c * np.eye(d + 2)
    number = coll.T @ coll
    mean = float(np.einsum("ij,ji->", number, rho_ph).real)
    second = float(np.einsum("ij,ji->", number @ number, rho_ph).real)
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
    fault_scale: float = 0.0,
    max_dim: int | None = None,
) -> list[CrossCheckResult]:
    """Run the fast path and the oracle side by side over a grid.

    fault_scale perturbs the fast-path variance by the given relative
    amount before comparison; it exists so the harness can prove the
    check actually fails when a formula is wrong. max_dim caps the
    phonon cutoff; states that genuinely need more levels then raise
    TruncationError instead of retrying upward. The probe truncates
    nothing, so it reads out the evolved state at that state's cutoff.
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

        exact, _ = _retry_truncation(
            lambda dim: apply_pump_exact(
                build_thermal_fock(case.thermal_n, dim), case.c1, case.c2
            ),
            core_dim,
            max_dim,
        )
        errs = {}
        em, eo, ea = exact.moments()
        errs["pump_mean_b"] = _rel_err(fast.mean_b, em)
        errs["pump_occupation"] = _rel_err(fast.occupation, eo)
        errs["pump_anomalous"] = _rel_err(fast.anomalous, ea)

        fast = evolve(fast, case.delay, bath)
        exact, _ = _retry_truncation(
            lambda dim: evolve_lindblad_exact(embed(exact, dim), case.delay, bath),
            exact.dim,
            max_dim,
        )
        em, eo, ea = exact.moments()
        errs["evolve_mean_b"] = _rel_err(fast.mean_b, em)
        errs["evolve_occupation"] = _rel_err(fast.occupation, eo)
        errs["evolve_anomalous"] = _rel_err(fast.anomalous, ea)

        pair = probe_exact(exact, probe)
        mean_err = _rel_err(probe_mean(fast, probe), pair.mean_ny)
        var_fast = probe_variance(fast, probe) * (1.0 + fault_scale)
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
                phonon_dim=exact.dim,
                elapsed_s=time.perf_counter() - t0,
                passed=passed,
                detail="" if passed else "tolerance exceeded",
            )
        )
    return results


def _retry_truncation(stage, dim: int, max_dim: int | None = None):
    """Run stage(dim), growing the phonon cutoff a truncation asks for.

    dim grows to at most max_dim, and a TruncationError propagates once
    dim is already there. Returns (result, dim) of the first attempt that
    passes; the third failure propagates.
    """
    for attempt in range(3):
        try:
            return stage(dim), dim
        except TruncationError as exc:
            if attempt == 2:
                raise
            bigger = exc.suggested_dim or 2 * dim
            if max_dim is not None and bigger > max_dim:
                if dim >= max_dim:
                    raise
                bigger = max_dim
            dim = bigger
