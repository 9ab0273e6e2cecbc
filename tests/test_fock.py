"""Exact number-basis path: construction, evolution, and read-out."""

import cmath
import math

import numpy as np
import pytest
from scipy.linalg import eigh
from scipy.special import jv

from isrsim import BathSpec, ProbeSpec, apply_pump, evolve, thermal_state
from isrsim.fock import (
    _CHEB_TOL,
    FockDensityMatrix,
    StepSizeError,
    TruncationError,
    _chebyshev_coefficients,
    apply_pump_exact,
    build_thermal_fock,
    default_step,
    embed,
    evolve_lindblad_exact,
    probe_exact,
    quadrature_variances_exact,
    suggest_dim,
    truncate,
)
from isrsim.states import conjugate_quadrature_variance, quadrature_variance

OMEGA = 2.0 * math.pi * 3.84

# Left edge of classical RK4's real-axis stability interval: the negative
# root of 1 + z + z^2/2 + z^3/6 + z^4/24 = 1.
RK4_REAL_EDGE = -2.785293563405282


def _rk4_gain(z):
    return 1.0 + z + z**2 / 2.0 + z**3 / 6.0 + z**4 / 24.0


def _rotating_spectrum(dim, bath):
    """Eigenvalues of the rotating-frame Lindblad generator, band by band.

    Band m holds rho[k + m, k]; the band -m is its mirror and has the
    same spectrum.
    """
    lam, nb = bath.damping_rate, bath.n_bath
    eigs = []
    for m in range(dim):
        k = np.arange(dim - m, dtype=float)
        j = k + m
        band = np.diag(-0.5 * lam * ((1.0 + 2.0 * nb) * (j + k) + 2.0 * nb))
        # rho[j, k] gains from rho[j+1, k+1] (emission) and rho[j-1, k-1]
        # (absorption).
        band += np.diag(lam * (1.0 + nb) * np.sqrt((j[:-1] + 1.0) * (k[:-1] + 1.0)), 1)
        band += np.diag(lam * nb * np.sqrt(j[1:] * k[1:]), -1)
        eigs.append(np.linalg.eigvals(band))
    return np.concatenate(eigs)


def _lab_frame_rk4(rho, tau, bath, steps):
    """Master equation in the lab frame, from dense operators, fixed-step RK4."""
    d = rho.shape[0]
    b = np.diag(np.sqrt(np.arange(1.0, d)), 1)
    bd = b.T
    n = bd @ b
    lam, nb = bath.damping_rate, bath.n_bath
    # b b† without the truncation defect at the top level.
    bbd = np.diag(np.arange(1.0, d + 1.0))

    def rhs(r):
        return (
            -1j * bath.omega_rad_ps * (n @ r - r @ n)
            + lam * (1.0 + nb) * (b @ r @ bd - 0.5 * (n @ r + r @ n))
            + lam * nb * (bd @ r @ b - 0.5 * (bbd @ r + r @ bbd))
        )

    h = tau / steps
    r = np.array(rho, dtype=complex)
    for _ in range(steps):
        k1 = rhs(r)
        k2 = rhs(r + 0.5 * h * k1)
        k3 = rhs(r + 0.5 * h * k2)
        k4 = rhs(r + h * k3)
        r += (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return r


def _dense_probe(rho, probe, photon_dim):
    """Probe read-out from a dense eigendecomposition of the two-mode generator."""
    dph = rho.dim
    amp = math.sqrt(probe.intensity_y) * cmath.exp(-1j * probe.phase_diff)
    a = np.diag(np.sqrt(np.arange(1.0, photon_dim)), 1)
    b = np.diag(np.sqrt(np.arange(1.0, dph)), 1)
    coll = np.kron(a + amp * np.eye(photon_dim), np.eye(dph))
    phonon = np.kron(np.eye(photon_dim), b)
    gen = probe.coupling_norm * (
        coll @ phonon.conj().T + coll.conj().T @ phonon
    )
    w, v = eigh(gen)
    # Columns of the unitary on the photon vacuum.
    psi = (v * np.exp(-1j * w)[None, :]) @ v[:dph, :].conj().T
    n_psi = coll.conj().T @ (coll @ psi)
    mean = np.trace(psi.conj().T @ n_psi @ rho.rho).real
    second = np.trace(n_psi.conj().T @ n_psi @ rho.rho).real
    return mean, second - mean**2


def test_thermal_fock_occupation():
    rho = build_thermal_fock(1.0, 40)
    _, occ, _ = rho.moments()
    assert occ == pytest.approx(1.0, abs=1e-9)
    # Heavier tail: n = 2 needs a larger cutoff, and dim 40 leaves
    # 3.7e-7 in the top decile, which construction rejects outright.
    rho2 = build_thermal_fock(2.0, 64)
    _, occ2, _ = rho2.moments()
    assert occ2 == pytest.approx(2.0, abs=1e-6)
    with pytest.raises(TruncationError):
        build_thermal_fock(2.0, 40)


def test_thermal_fock_validation():
    with pytest.raises(ValueError):
        build_thermal_fock(-0.5)
    with pytest.raises(ValueError):
        build_thermal_fock(1.0, dim=1)


def test_density_matrix_guards():
    dim = 8
    good = np.zeros((dim, dim), dtype=complex)
    good[0, 0] = 1.0
    FockDensityMatrix(dim, good)

    bad = good.copy()
    bad[0, 1] = 0.3
    with pytest.raises(ValueError, match="Hermitian"):
        FockDensityMatrix(dim, bad)

    with pytest.raises(ValueError, match="trace"):
        FockDensityMatrix(dim, 0.9 * good)

    mixed = good.copy()
    mixed[0, 0] = 1.2
    mixed[1, 1] = -0.2
    with pytest.raises(ValueError, match="negative eigenvalue"):
        FockDensityMatrix(dim, mixed)

    heavy = np.zeros((10, 10), dtype=complex)
    heavy[0, 0] = 0.9
    heavy[9, 9] = 0.1
    with pytest.raises(TruncationError) as info:
        FockDensityMatrix(10, heavy)
    assert info.value.suggested_dim == 20


def test_truncate_and_embed():
    rho = build_thermal_fock(0.2, 32)
    big = embed(rho, 48)
    assert big.dim == 48
    back = truncate(big, 32)
    assert np.allclose(back.rho, rho.rho, atol=1e-12)
    with pytest.raises(ValueError):
        embed(rho, 16)
    # Cutting a hot state discards real population and must be refused.
    hot = build_thermal_fock(1.5, 64)
    with pytest.raises(TruncationError):
        truncate(hot, 8)


def test_suggest_dim_monotone():
    dims = [suggest_dim(n) for n in (0.1, 0.5, 1.0, 2.0, 4.0)]
    assert dims == sorted(dims)
    assert suggest_dim(1.0, disp_sq=9.0) > suggest_dim(1.0)
    assert suggest_dim(0.0) >= 32


def test_pump_exact_matches_gaussian_moments():
    c1, c2 = 0.3 - 0.2j, 0.1j
    rho = apply_pump_exact(build_thermal_fock(0.5, 48), c1, c2)
    m, occ, anom = rho.moments()
    st = apply_pump(thermal_state(0.5), c1, c2)
    assert abs(m - st.mean_b) < 1e-7
    assert abs(occ - st.occupation) < 1e-7
    assert abs(anom - st.anomalous) < 1e-7


def test_lindblad_matches_closed_form():
    bath = BathSpec(OMEGA, 0.8, 0.5)
    rho0 = apply_pump_exact(build_thermal_fock(0.8, 40), 0.4, 0.1j)
    rho = evolve_lindblad_exact(rho0, 0.8, bath)
    m, occ, anom = rho.moments()
    st = evolve(apply_pump(thermal_state(0.8), 0.4, 0.1j), 0.8, bath)
    assert abs(m - st.mean_b) < 1e-7
    assert abs(occ - st.occupation) < 1e-7
    assert abs(anom - st.anomalous) < 1e-7


def test_lindblad_zero_delay_is_identity():
    rho0 = build_thermal_fock(0.3, 32)
    rho = evolve_lindblad_exact(rho0, 0.0, BathSpec(OMEGA, 0.5, 0.1))
    assert rho is rho0


def test_lindblad_step_guards():
    bath = BathSpec(OMEGA, 0.5, 0.2)
    rho0 = build_thermal_fock(0.3, 32)
    with pytest.raises(ValueError, match="stability"):
        evolve_lindblad_exact(rho0, 1.0, bath, dt=1.0)
    hot = BathSpec(OMEGA, 2.0, 2.0)
    for spec in (bath, hot):
        stiffness = 2.0 * spec.damping_rate * (1.0 + 2.0 * spec.n_bath)
        for dim in (32, 64, 96, 152):
            dt = default_step(1.0, spec, dim)
            assert RK4_REAL_EDGE < -dt * stiffness * dim < 0.0
            # The bound holds for the true spectrum, not only Gershgorin's.
            spectrum = _rotating_spectrum(dim, spec)
            assert np.all(spectrum.real >= -stiffness * dim)
            assert np.max(np.abs(_rk4_gain(dt * spectrum))) <= 1.0 + 1e-12
    # At a hot bath the stability bound sets the default step, and a step
    # just above it is refused.
    dt = default_step(1.0, hot, rho0.dim)
    evolve_lindblad_exact(rho0, 0.05, hot, dt=dt)
    with pytest.raises(ValueError, match="stability"):
        evolve_lindblad_exact(rho0, 0.05, hot, dt=1.01 * dt)


def test_rotating_frame_matches_lab_frame():
    bath = BathSpec(OMEGA, 1.2, 0.3)
    rho0 = apply_pump_exact(build_thermal_fock(0.1, 24), 0.3 + 0.2j, 0.05j)
    tau = 0.5
    ref = _lab_frame_rk4(rho0.rho, tau, bath, steps=2500)
    got = evolve_lindblad_exact(rho0, tau, bath)
    assert np.max(np.abs(got.rho - ref)) <= 1e-9


def test_lindblad_hot_large_cutoff_is_stable():
    bath = BathSpec(OMEGA, 2.0, 2.0)
    rho0 = apply_pump_exact(build_thermal_fock(0.5, 152), 0.5, 0.1j)
    rho, drift = evolve_lindblad_exact(rho0, 1.5, bath, return_drift=True)
    assert drift < 1e-9
    m, occ, anom = rho.moments()
    st = evolve(apply_pump(thermal_state(0.5), 0.5, 0.1j), 1.5, bath)
    assert abs(m - st.mean_b) < 1e-7
    assert abs(occ - st.occupation) < 1e-7
    assert abs(anom - st.anomalous) < 1e-7


def test_trace_drift_raises_when_population_escapes():
    # A strongly heated vacuum outgrows a small cutoff; the lost trace
    # must be reported, not silently renormalized.
    hot = BathSpec(OMEGA, 2.0, 5.0)
    rho0 = build_thermal_fock(0.0, 12)
    with pytest.raises(StepSizeError):
        evolve_lindblad_exact(rho0, 2.0, hot)


def test_probe_exact_decoupled_angle():
    # theta = 0: the phonon is untouched and the read-out is the bare
    # coherent field, Poisson at iy, whatever the phonon state and phase.
    for rho in (
        build_thermal_fock(0.7, 32),
        apply_pump_exact(build_thermal_fock(0.3, 48), 0.3 - 0.2j, 0.05j),
    ):
        for phi in (0.0, 0.7, -2.0):
            probe = ProbeSpec(0.0, phi, 12.0, 0.3)
            pair = probe_exact(rho, probe, photon_dim=30)
            assert pair.mean_ny == pytest.approx(12.0, rel=1e-14)
            assert pair.var_ny == pytest.approx(12.0, rel=1e-14)


@pytest.mark.parametrize("dph", [32, 48])
@pytest.mark.parametrize("photon_dim", [30, 32])
def test_probe_exact_matches_dense_reference(dph, photon_dim):
    probe = ProbeSpec(0.25, 0.7, 12.0, 0.0)  # complex displacement amplitude
    rho = apply_pump_exact(build_thermal_fock(0.3, dph), 0.3 - 0.2j, 0.05j)
    pair = probe_exact(rho, probe, photon_dim=photon_dim)
    mean, var = _dense_probe(rho, probe, photon_dim)
    assert pair.mean_ny == pytest.approx(mean, rel=1e-12)
    assert pair.var_ny == pytest.approx(var, rel=1e-12)


def _expm_multiply_probe(rho, probe, photon_dim):
    """Probe read-out in the displaced frame by scipy's expm_multiply.

    The complex-amplitude generator, applied with Al-Mohy and Higham's
    action of the exponential (SIAM J. Sci. Comput. 33, 488, 2011); no
    phase frame and no Chebyshev series.
    """
    import scipy.sparse as sp
    from scipy.sparse.linalg import expm_multiply

    dph = rho.dim
    amp = math.sqrt(probe.intensity_y) * cmath.exp(-1j * probe.phase_diff)
    a = np.diag(np.sqrt(np.arange(1.0, photon_dim)), 1).astype(complex)
    b = sp.csr_array(np.diag(np.sqrt(np.arange(1.0, dph)), 1).astype(complex))
    eye_a = sp.identity(photon_dim, format="csr")
    gen = probe.coupling_norm * (
        sp.kron(a, b.conj().T)
        + sp.kron(a.conj().T, b)
        + amp * sp.kron(eye_a, b.conj().T)
        + np.conj(amp) * sp.kron(eye_a, b)
    )
    block = expm_multiply(
        -1j * gen.tocsr(), np.eye(photon_dim * dph, dph, dtype=complex)
    )
    coll = a + amp * np.eye(photon_dim)
    n_photon = coll.conj().T @ coll
    n_block = np.einsum(
        "pq,qkj->pkj", n_photon, block.reshape(photon_dim, dph, dph)
    ).reshape(block.shape)
    mean = np.trace(block.conj().T @ n_block @ rho.rho).real
    second = np.trace(n_block.conj().T @ n_block @ rho.rho).real
    return mean, second - mean**2


@pytest.mark.parametrize(
    "dph, photon_dim",
    [(88, 32), (48, 60)],  # the benchmark's largest probe; a photon retry
)
def test_probe_exact_matches_expm_multiply_reference(dph, photon_dim):
    probe = ProbeSpec(0.3, -2.1, 50.0, 0.0)
    rho = apply_pump_exact(build_thermal_fock(0.3, dph), 0.9 - 0.4j, 0.1j)
    pair = probe_exact(rho, probe, photon_dim=photon_dim)
    mean, var = _expm_multiply_probe(rho, probe, photon_dim)
    assert pair.mean_ny == pytest.approx(mean, rel=1e-12)
    assert pair.var_ny == pytest.approx(var, rel=1e-12)


def test_probe_exact_phase_enters_as_a_phonon_rotation():
    # Conjugating the read-out by D = diag(exp(-i j phi)) on the phonon,
    # and by the same phases on the photon, makes the displaced field
    # real: the probe phase acts on the state as rho -> D^dagger rho D.
    rho = apply_pump_exact(build_thermal_fock(0.3, 48), 0.3 - 0.2j, 0.05j)
    j = np.arange(rho.dim)
    aligned = ProbeSpec(0.25, 0.0, 12.0, 0.0)
    for phi in (0.7, -2.0, math.pi, 3.0):
        d = np.exp(-1j * phi * j)
        rotated = FockDensityMatrix(rho.dim, d.conj()[:, None] * rho.rho * d[None, :])
        pair = probe_exact(rho, ProbeSpec(0.25, phi, 12.0, 0.0), photon_dim=32)
        ref = probe_exact(rotated, aligned, photon_dim=32)
        assert pair.mean_ny == pytest.approx(ref.mean_ny, rel=1e-12)
        assert pair.var_ny == pytest.approx(ref.var_ny, rel=1e-12)


def _chebyshev_tail_bound(radius, n_terms):
    """2 (R/2)^K / K! / (1 - R / (2K + 2)), infinite where the sum diverges."""
    ratio = radius / (2 * n_terms + 2)
    if ratio >= 1.0:
        return math.inf
    log_term = n_terms * math.log(0.5 * radius) - math.lgamma(n_terms + 1)
    return 2.0 * math.exp(log_term) / (1.0 - ratio)


@pytest.mark.parametrize("radius", [1e-3, 0.7, 41.7, 70.3, 150.0])
def test_chebyshev_coefficients_stop_at_the_tail_bound(radius):
    coeffs = _chebyshev_coefficients(radius)
    n = coeffs.size
    # The first K whose discarded tail is bounded by the tolerance.
    assert _chebyshev_tail_bound(radius, n) <= _CHEB_TOL
    assert _chebyshev_tail_bound(radius, n - 1) > _CHEB_TOL
    ref = 2.0 * jv(np.arange(n), radius)
    ref[0] *= 0.5
    np.testing.assert_allclose(coeffs, ref, rtol=0.0, atol=1e-14)
    # The series reproduces exp(-i x) across [-R, R].
    x = np.linspace(-radius, radius, 101)
    k = np.arange(n)
    cheb = np.cos(k[:, None] * np.arccos(x / radius)[None, :])
    series = ((coeffs * (-1j) ** k)[:, None] * cheb).sum(axis=0)
    np.testing.assert_allclose(series, np.exp(-1j * x), rtol=0.0, atol=1e-13)
    assert _chebyshev_coefficients(0.0).tolist() == [1.0]


def test_probe_exact_requires_minimum_photon_dim():
    probe = ProbeSpec(0.1, 0.0, 10.0, 0.0)
    with pytest.raises(ValueError):
        probe_exact(build_thermal_fock(0.1, 32), probe, photon_dim=8)


def test_quadrature_variances_exact_matches_closed_form():
    st_fock = apply_pump_exact(build_thermal_fock(0.6, 48), 0.0, 0.15)
    pos, mom = quadrature_variances_exact(st_fock)
    st = apply_pump(thermal_state(0.6), 0.0, 0.15)
    assert pos == pytest.approx(quadrature_variance(st), rel=1e-8)
    assert mom == pytest.approx(conjugate_quadrature_variance(st), rel=1e-8)
    # Thermal state: both quadratures at n + 1/2.
    tpos, tmom = quadrature_variances_exact(build_thermal_fock(0.9, 40))
    assert tpos == pytest.approx(1.4, abs=1e-9)
    assert tmom == pytest.approx(1.4, abs=1e-9)
