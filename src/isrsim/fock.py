"""Brute-force validation path on truncated number-state density matrices.

Every fast-path result has an exact counterpart here. The pump unitary is
the exponential of the Hermitian pump generator, formed from its
eigendecomposition. Dissipative evolution is the master equation's exact
solution, a thermal-loss channel, applied in the number basis as a
pure-loss channel followed by a quantum-limited amplifier, with no time
steps; the free rotation commutes with it and is applied exactly at the
end. The probe read-out needs no photon register: the exchange moves the
bright field's displacement out exactly and conserves the total number of
quanta, so the detected photon's reduced state is the pure-loss output of
the phonon state, with the binomial amplitudes of a beam splitter
(Campos, Saleh and Teich, Phys. Rev. A 40, 1371, 1989), which factorise
(Ivan, Sabapathy and Simon, Phys. Rev. A 84, 042311, 2011) so that all
bands of the state go through one real matrix product. Nothing in this
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


class TruncationError(RuntimeError):
    """Hilbert-space cutoff too small for the state it must hold."""


@dataclass(frozen=True)
class FockDensityMatrix:
    """Density matrix in the truncated number basis.

    The cutoff dim is rho's size. Construction validates hermiticity,
    unit trace, positivity and the tail-mass health of the truncation
    (population of the top 10% of levels below 1e-8).
    """

    rho: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        rho = np.array(self.rho, dtype=complex)
        d = len(rho)
        if rho.shape != (d, d):
            raise ValueError(f"rho must be square, got {rho.shape}")
        if d < 2:
            raise ValueError("dim must be at least 2")
        if not np.isfinite(rho).all():
            raise ValueError("rho has non-finite entries")
        herm = np.max(np.abs(rho - rho.conj().T))
        if herm > _HERM_TOL:
            raise ValueError(f"rho not Hermitian: max asymmetry {herm:.3e}")
        tr = np.trace(rho).real
        if abs(tr - 1.0) > _TRACE_TOL:
            raise ValueError(f"trace(rho) = {tr!r}, must be 1")
        # The shifted matrix is positive definite exactly when no
        # eigenvalue lies below -_EIG_TOL, up to rounding of order dim*eps.
        try:
            np.linalg.cholesky(rho + _EIG_TOL * np.eye(d))
        except np.linalg.LinAlgError:
            low = np.linalg.eigvalsh(rho)[0]
            if low < -_EIG_TOL:
                raise ValueError(f"rho has negative eigenvalue {low:.3e}") from None
        rho.flags.writeable = False
        object.__setattr__(self, "rho", rho)
        tail = self.tail_mass()
        if tail > _TAIL_TOL:
            raise TruncationError(
                f"top-decile population {tail:.3e} exceeds {_TAIL_TOL:.0e}; "
                f"retry with dim >= {2 * d}"
            )

    @property
    def dim(self) -> int:
        return len(self.rho)

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


def build_thermal_fock(n_mean: float, dim: int) -> FockDensityMatrix:
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
    return FockDensityMatrix(np.diag(pops).astype(complex))


def embed(state: FockDensityMatrix, dim: int) -> FockDensityMatrix:
    """Zero-pad into a larger cutoff (exact)."""
    if dim < state.dim:
        raise ValueError("embedding dimension must not shrink the space")
    if dim == state.dim:
        return state
    rho = np.zeros((dim, dim), dtype=complex)
    rho[: state.dim, : state.dim] = state.rho
    return FockDensityMatrix(rho)


# Unused by the package; kept only for perfbench/spans.py until ROADMAP item 1.
def truncate(state: FockDensityMatrix, dim: int) -> FockDensityMatrix:
    """Cut to a smaller cutoff, allowed only when the cut mass is negligible."""
    if dim >= state.dim:
        return embed(state, dim)
    if dim < 2:
        raise ValueError("dim must be at least 2")
    cut = 1.0 - float(np.sum(np.diagonal(state.rho)[:dim]).real)
    if cut > 1e-9:
        raise TruncationError(f"cut would discard population {cut:.3e}")
    rho = np.array(state.rho[:dim, :dim])
    rho /= np.trace(rho).real
    return FockDensityMatrix(rho)


def apply_pump_exact(
    state: FockDensityMatrix, c1: complex, c2: complex
) -> FockDensityMatrix:
    """Conjugate by the exponential of the truncated pump generator.

    The generator G = c1 b^dagger + c2 b^dagger^2 + h.c. is Hermitian, so
    exp(-i G) = V diag(exp(-i w)) V^dagger from its eigendecomposition. eigh
    reads only the two sub-diagonals c1 sqrt(k) and c2 sqrt(k (k+1)).
    """
    d = state.dim
    k = np.arange(1.0, d)
    gen = np.zeros((d, d), dtype=complex)
    flat = gen.reshape(-1)
    flat[d :: d + 1] = c1 * np.sqrt(k)
    flat[2 * d :: d + 1] = c2 * np.sqrt(k[:-1] * k[1:])
    w, v = np.linalg.eigh(gen, UPLO="L")
    u = (v * np.exp(-1j * w)) @ v.conj().T
    return FockDensityMatrix(u @ state.rho @ u.conj().T)


def _loss(rho: np.ndarray, keep: float, lose: float, adjoint: bool = False) -> np.ndarray:
    """Pure-loss channel, or its adjoint, on a Hermitian rho in the number basis.

    keep + lose = 1; the caller forms each without cancellation. Keeping m
    of n quanta has amplitude sqrt(C(n, m) keep^m lose^(n-m)) =
    u(n) v(m) w(n-m), with u(n)^2 = n! sigma^2n, v(m)^2 = keep^m / (m! sigma^2m)
    and w(l)^2 = lose^l / (l! sigma^2l). So out[j, k] is
    v(j) v(k) sum_l w(l)^2 R[j+l, k+l] with R = (u x u) rho, and the
    adjoint's is u(j) u(k) sum_l w(l)^2 R'[j-l, k-l] with R' = (v x v) rho:
    along each band j - k, a correlation with the one kernel w^2.
    sigma^2 = e / dim keeps every factor within about exp(+-dim / e), which
    is finite up to dim ~ 1900.
    """
    d = len(rho)
    level = np.arange(1.0, d) * (math.e / d)
    # u^2, v^2 and w^2 by cumulative products from column d - 1 on; w^2 is
    # zero-padded in front, so kern[k, i] = w(i - k)^2, zero for i < k, and
    # the adjoint's kernel is its transpose.
    sq = np.zeros((3, 2 * d - 1))
    sq[:, d - 1] = 1.0
    np.cumprod([level, keep / level, lose / level], axis=1, out=sq[:, d:])
    u, v = np.sqrt(sq[:2, d - 1 :])
    inner, outer = (v, u) if adjoint else (u, v)
    step = sq.itemsize * (1 if adjoint else -1)
    kern = np.ndarray((d, d), float, sq[2], (d - 1) * sq.itemsize, (step, -step))
    # The real and imaginary parts of each lower band go through kern as two
    # real columns; the upper bands are their conjugates. Views of a zero-
    # padded buffer: band[i, m] = pad[i+m, i], and row[i, m] runs on from
    # pad[i, i] into row i+1, where the lower bands, written last, overwrite it.
    pad = np.zeros((2 * d, d), dtype=complex)
    np.multiply(rho, np.outer(inner, inner), out=pad[:d])
    s0, s1 = pad.strides
    band = np.ndarray((d, d), complex, pad, strides=(s0 + s1, s0))
    row = np.ndarray((d, d), complex, pad, strides=(s0 + s1, s1))
    x = np.ascontiguousarray(kern) @ np.ascontiguousarray(band).view(float)
    x = x.view(complex)
    np.conjugate(x, out=row)
    band[...] = x
    return pad[:d] * np.outer(outer, outer)


# Unused by the package; kept only for perfbench/spans.py until ROADMAP item 1.
def default_step(tau: float, bath: BathSpec) -> float:
    """The whole delay: evolve_lindblad_exact applies one channel per call."""
    return tau


def evolve_lindblad_exact(
    state: FockDensityMatrix,
    tau: float,
    bath: BathSpec,
    return_drift: bool = False,
):
    """Apply the damped mode's exact channel over the delay tau.

    The master equation's solution is the thermal attenuator with
    transmissivity eta = exp(-lambda tau) and environment occupation
    n_bath. It is a pure-loss channel of transmissivity eta / G followed
    by a quantum-limited amplifier of gain G = 1 + (1 - eta) n_bath
    (Caruso, Giovannetti and Holevo, New J. Phys. 8, 310, 2006;
    Garcia-Patron et al., Phys. Rev. Lett. 108, 110505, 2012), and the
    amplifier is 1/G times the adjoint of the loss channel of
    transmissivity 1/G. Both are exact at any cutoff: the loss moves
    population down only, and the amplifier's output below the cutoff
    reads only levels below it. The free rotation exp(-i omega (j - k)
    tau) commutes with both and is applied at the end. Population the
    amplifier pushes past the cutoff is lost trace: a drift beyond 1e-6,
    or a non-finite one, raises TruncationError, and a smaller one is
    renormalized away and reported when return_drift is set.
    """
    if tau < 0 or not math.isfinite(tau):
        raise ValueError(f"tau must be >= 0 and finite, got {tau}")
    if tau == 0.0:
        return (state, 0.0) if return_drift else state
    d = state.dim
    nb = bath.n_bath
    # 1 - eta, and from it 1 - eta/G and 1 - 1/G by products only.
    eta = math.exp(-bath.damping_rate * tau)
    lost = -math.expm1(-bath.damping_rate * tau)
    gain = 1.0 + lost * nb
    rho = _loss(state.rho, eta / gain, lost * (1.0 + nb) / gain)
    rho = _loss(rho, 1.0 / gain, lost * nb / gain, adjoint=True) / gain
    tr = float(np.trace(rho).real)
    drift = abs(tr - 1.0)
    if not drift <= 1e-6:
        raise TruncationError(
            f"trace drifted by {drift:.3e}: the bath pushed population past "
            f"the cutoff {d}; retry with dim >= {2 * d}"
        )
    j = np.arange(d)
    rho *= np.exp(-1j * bath.omega_rad_ps * tau * (j[:, None] - j[None, :])) / tr
    out = FockDensityMatrix(rho)
    return (out, drift) if return_drift else out


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
    # C(k, p) s^2p c^2(k-p): the photon is the pure-loss output of the
    # phase-rotated phonon at transmissivity s^2.
    rot = np.exp(1j * probe.phase_diff * np.arange(d))
    rho = rot[:, None] * rho_phonon.rho * rot.conj()[None, :]
    rho_ph = np.zeros((d + 2, d + 2), dtype=complex)
    rho_ph[:d, :d] = _loss(rho, s * s, c * c)
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


def default_grid(seed: int, n_random: int = 6) -> list[CrossCheckCase]:
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
    cases: Sequence[CrossCheckCase],
    fault_scale: float = 0.0,
) -> list[CrossCheckResult]:
    """Run the fast path and the oracle side by side over a grid.

    fault_scale perturbs the fast-path variance by the given relative
    amount before comparison; it exists so the harness can prove the
    check actually fails when a formula is wrong. The probe truncates
    nothing, so it reads out the evolved state at that state's cutoff.
    """
    results = []
    for case in cases:
        t0 = time.perf_counter()
        bath = BathSpec(case.omega, case.damping_rate, case.thermal_n)
        probe = ProbeSpec(case.coupling_norm, case.phase_diff, case.intensity_y)

        # Cutoff guesses come from the fast-path moments; an undersized
        # guess only triggers a retry because construction re-checks the
        # tail, so the comparison itself stays independent.
        fast = apply_pump(thermal_state(case.thermal_n), case.c1, case.c2)
        core_dim = suggest_dim(
            fast.central_occupation + abs(fast.central_anomalous),
            abs(fast.mean_b) ** 2,
        )
        exact, _ = _retry_truncation(
            lambda dim: apply_pump_exact(
                build_thermal_fock(case.thermal_n, dim), case.c1, case.c2
            ),
            core_dim,
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


def _retry_truncation(stage, dim: int):
    """Run stage(dim), doubling the phonon cutoff after each truncation.

    Returns (result, dim) of the first attempt that passes; the third
    failure propagates.
    """
    for attempt in range(3):
        try:
            return stage(dim), dim
        except TruncationError:
            if attempt == 2:
                raise
            dim *= 2
