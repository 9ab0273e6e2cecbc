"""Exact number-basis path: construction, evolution, and read-out."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs
from scipy.linalg import eigh, expm

from closed_forms import conjugate_quadrature_variance, quadrature_variance
from isrsim import fock
from isrsim.fock import (
    FockDensityMatrix,
    TruncationError,
    _loss,
    _retry_truncation,
    apply_pump_exact,
    build_thermal_fock,
    embed,
    evolve_lindblad_exact,
    probe_exact,
    suggest_dim,
    truncate,
)
from isrsim.probe import ProbeSpec
from isrsim.states import BathSpec, apply_pump, evolve, thermal_state

OMEGA = 2.0 * math.pi * 3.84


def _rotating_band(dim, bath, m):
    """Band m of the truncated rotating-frame Lindblad generator.

    Band m holds rho[k + m, k]; the band -m is its mirror.
    """
    lam, nb = bath.damping_rate, bath.n_bath
    k = np.arange(dim - m, dtype=float)
    j = k + m
    band = np.diag(-0.5 * lam * ((1.0 + 2.0 * nb) * (j + k) + 2.0 * nb))
    # rho[j, k] gains from rho[j+1, k+1] (emission) and rho[j-1, k-1]
    # (absorption).
    band += np.diag(lam * (1.0 + nb) * np.sqrt((j[:-1] + 1.0) * (k[:-1] + 1.0)), 1)
    band += np.diag(lam * nb * np.sqrt(j[1:] * k[1:]), -1)
    return band


def _banded_expm(rho, tau, bath):
    """Master equation by a dense expm of each band, then the free rotation."""
    d = rho.shape[0]
    out = np.zeros((d, d), dtype=complex)
    for m in range(d):
        k = np.arange(d - m)
        out[k + m, k] = expm(tau * _rotating_band(d, bath, m)) @ np.diagonal(rho, -m)
        out[k, k + m] = out[k + m, k].conj()
    j = np.arange(d)
    return out * np.exp(-1j * bath.omega_rad_ps * tau * (j[:, None] - j[None, :]))


def _pascal_loss(rho, keep, lose, adjoint=False, levels=None):
    """Pure-loss channel, or its adjoint, from the Pascal table and a band sum.

    W[n, m] = C(n, m) keep^m lose^(n-m) comes from the Pascal recurrence,
    which adds positive terms only, and with amp = sqrt(W) the channel is
    out[j, k] = sum_l amp[j+l, j] amp[k+l, k] rho[j+l, k+l], a three-operand
    einsum over zero-padded strided views. Reversing the level order turns
    the adjoint into the channel with the table transposed. Given levels,
    only the levels x levels block of the output is formed.
    """
    d = len(rho)
    w = np.zeros((d, d))
    w[0, 0] = 1.0
    for n in range(1, d):
        w[n, : n + 1] = lose * w[n - 1, : n + 1]
        w[n, 1 : n + 1] += keep * w[n - 1, :n]
    amp = np.sqrt(w)
    at = np.arange(d) if levels is None else np.asarray(levels)
    if adjoint:
        rho, amp, at = rho[::-1, ::-1], amp.T[::-1, ::-1], d - 1 - at
    # The map is real and weighs (j, k) like (k, j), so the real lower and
    # the imaginary strict upper triangle go through it in one real matrix.
    pad = np.zeros((2 * d, 2 * d))
    pad[:d, :d] = np.tril(rho.real) + np.triu(rho.imag, 1)
    wts = np.zeros((2 * d, d))
    wts[:d] = amp
    s0, s1 = pad.strides
    shifted = np.ndarray((d, d, d), buffer=pad, strides=(s0 + s1, s0, s1))
    t0, t1 = wts.strides
    col = np.ndarray((d, d), buffer=wts, strides=(t0, t0 + t1))
    if levels is None:
        x = np.einsum("lj,lk,ljk->jk", col, col, shifted)[np.ix_(at, at)]
    else:
        x = np.einsum("lj,lk,ljk->jk", col[:, at], col[:, at], shifted[:, at[:, None], at])
    upper = at[:, None] < at
    return np.where(upper, x.T, x) + 1j * (np.where(upper, x, 0.0) - np.where(upper.T, x.T, 0.0))


def _quadrature_variances(state):
    """Variances of (b+b†)/sqrt(2) and (b-b†)/(i sqrt(2)) by direct trace."""
    m, occ, anom = state.moments()
    pos = occ + 0.5 + anom.real - 2.0 * m.real**2
    mom = occ + 0.5 - anom.real - 2.0 * m.imag**2
    return float(pos), float(mom)


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
    """Probe read-out from a dense eigendecomposition of the two-mode generator.

    The photon register is truncated at photon_dim levels and the phonon
    register at the state's cutoff.
    """
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
        build_thermal_fock(-0.5, 32)
    with pytest.raises(ValueError):
        build_thermal_fock(1.0, dim=1)


def test_density_matrix_guards():
    dim = 8
    good = np.zeros((dim, dim), dtype=complex)
    good[0, 0] = 1.0
    assert FockDensityMatrix(good).dim == dim
    with pytest.raises(ValueError, match="square"):
        FockDensityMatrix(good[:, :-1])

    bad = good.copy()
    bad[0, 1] = 0.3
    with pytest.raises(ValueError, match="Hermitian"):
        FockDensityMatrix(bad)

    with pytest.raises(ValueError, match="trace"):
        FockDensityMatrix(0.9 * good)

    # NaN compares false with every tolerance, so it is refused outright.
    for where, value in (((1, 1), np.nan), ((0, 1), np.nan), ((2, 2), np.inf)):
        broken = good.copy()
        broken[where] = value
        with pytest.raises(ValueError, match="non-finite"):
            FockDensityMatrix(broken)

    mixed = good.copy()
    mixed[0, 0] = 1.2
    mixed[1, 1] = -0.2
    with pytest.raises(ValueError, match="negative eigenvalue"):
        FockDensityMatrix(mixed)

    heavy = np.zeros((10, 10), dtype=complex)
    heavy[0, 0] = 0.9
    heavy[9, 9] = 0.1
    with pytest.raises(TruncationError, match="retry with dim >= 20"):
        FockDensityMatrix(heavy)


@pytest.mark.parametrize("low, refused", [(-5e-11, False), (-2e-10, True)])
def test_positivity_boundary(low, refused):
    # The test is lambda_min >= -1e-10; the message names the eigenvalue.
    rng = np.random.default_rng(3)
    q, _ = np.linalg.qr(rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8)))
    rho = (q * [low, 0.3, 0.7 - low, 0.0, 0.0, 0.0, 0.0, 0.0]) @ q.conj().T
    rho = 0.5 * (rho + rho.conj().T)
    if refused:
        with pytest.raises(ValueError, match=r"negative eigenvalue -2\.000e-10"):
            FockDensityMatrix(rho)
    else:
        FockDensityMatrix(rho)


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


def test_pump_generator_is_the_dense_one(monkeypatch):
    seen = []
    eigh = np.linalg.eigh

    def spy(gen, UPLO="L"):
        seen.append((np.array(gen), UPLO))
        return eigh(gen, UPLO=UPLO)

    monkeypatch.setattr(np.linalg, "eigh", spy)
    d, c1, c2 = 24, 0.3 - 0.2j, 0.1 + 0.05j
    apply_pump_exact(build_thermal_fock(0.2, d), c1, c2)
    [(gen, uplo)] = seen
    b = np.diag(np.sqrt(np.arange(1.0, d)), 1).astype(complex)
    bd = b.conj().T
    dense = c1 * bd + np.conj(c1) * b + c2 * (bd @ bd) + np.conj(c2) * (b @ b)
    assert uplo == "L"
    assert np.max(np.abs(np.tril(gen) - np.tril(dense))) <= 1e-14


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


@pytest.mark.parametrize("dim", [8, 32, 88, 272, 1024])
def test_loss_kernel_matches_pascal_reference(dim):
    # A random rank-8 density matrix; at cutoff 1024 the O(dim^3) reference
    # is formed on 36 levels spread over the whole range.
    rng = np.random.default_rng(dim)
    a = rng.normal(size=(dim, 8)) + 1j * rng.normal(size=(dim, 8))
    rho = a @ a.conj().T / np.sum(np.abs(a) ** 2)
    levels = None
    if dim > 272:
        levels = np.unique(np.r_[0:4, np.linspace(0, dim - 1, 28).astype(int), dim - 4 : dim])
    block = np.s_[:, :] if levels is None else np.ix_(levels, levels)
    for keep in (0.0, 0.0025, 0.5, 0.9975, 1.0):
        for adjoint in (False, True):
            got = _loss(rho, keep, 1.0 - keep, adjoint)
            assert np.isfinite(got).all()
            ref = _pascal_loss(rho, keep, 1.0 - keep, adjoint, levels)
            assert np.max(np.abs(got[block] - ref)) <= 1e-14


def test_non_finite_trace_is_a_drift(monkeypatch):
    monkeypatch.setattr(fock, "_loss", lambda rho, *args, **kw: np.full_like(rho, np.nan))
    with pytest.raises(TruncationError, match="drifted by nan"):
        evolve_lindblad_exact(build_thermal_fock(0.2, 16), 1.0, BathSpec(OMEGA, 1.0, 0.1))


def test_lindblad_zero_delay_is_identity():
    rho0 = build_thermal_fock(0.3, 32)
    rho = evolve_lindblad_exact(rho0, 0.0, BathSpec(OMEGA, 0.5, 0.1))
    assert rho is rho0


def test_lindblad_matches_banded_expm_reference():
    # Pure loss (n_bath = 0); n_bath = 1e-3 with |c1| = 4, where the bands
    # are strongly non-normal; and a hot bath at cutoff 152. Each state
    # has negligible top-level mass, so the truncated generator's boundary
    # does not show.
    for nb, c1, dim in ((0.0, 0.5 + 0.3j, 48), (1e-3, 2.4 + 3.2j, 80), (2.0, 0.5, 152)):
        bath = BathSpec(OMEGA, 1.5, nb)
        rho0 = apply_pump_exact(build_thermal_fock(nb, dim), c1, 0.1j)
        assert rho0.rho[-1, -1].real < 1e-15
        got = evolve_lindblad_exact(rho0, 0.9, bath)
        ref = _banded_expm(rho0.rho, 0.9, bath)
        assert np.max(np.abs(got.rho - ref)) <= 1e-12


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(
    nb=hs.floats(0.0, 2.0),
    lam=hs.floats(0.5, 2.0),
    decay=hs.floats(0.0, 6.0),
    split=hs.floats(0.0, 1.0),
    c1=hs.complex_numbers(max_magnitude=1.0),
    r=hs.floats(0.0, 0.5),
    psi=hs.floats(-math.pi, math.pi),
    phi=hs.floats(-math.pi, math.pi),
)
def test_lindblad_channel_properties(nb, lam, decay, split, c1, r, psi, phi):
    # Semigroup law, phase covariance and physicality of the channel, at
    # 1.25 times the cutoff the oracle would pick, so that the population
    # pushed past it stays far below the tolerances.
    bath = BathSpec(OMEGA, lam, nb)
    c2 = 0.5 * r * cmath.exp(1j * psi)
    fast = apply_pump(thermal_state(nb), c1, c2)
    n_eff = fast.central_occupation + abs(fast.central_anomalous)
    dim = 8 * math.ceil(1.25 * suggest_dim(n_eff, abs(fast.mean_b) ** 2) / 8)
    rho0 = apply_pump_exact(build_thermal_fock(nb, dim), c1, c2)
    tau = decay / lam
    whole = evolve_lindblad_exact(rho0, tau, bath)
    halves = evolve_lindblad_exact(
        evolve_lindblad_exact(rho0, split * tau, bath), tau - split * tau, bath
    )
    assert np.max(np.abs(halves.rho - whole.rho)) <= 1e-12

    rot = np.exp(1j * phi * np.arange(dim))
    turned = FockDensityMatrix(rot[:, None] * rho0.rho * rot.conj()[None, :])
    expect = rot[:, None] * whole.rho * rot.conj()[None, :]
    assert np.max(np.abs(evolve_lindblad_exact(turned, tau, bath).rho - expect)) <= 1e-12

    rho = whole.rho
    assert np.max(np.abs(rho - rho.conj().T)) <= 1e-14
    assert abs(np.trace(rho).real - 1.0) <= 1e-12
    assert np.linalg.eigvalsh(rho)[0] >= -1e-14


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
    # must be reported, not silently renormalized, as a truncation that
    # asks for a larger cutoff, so that the oracle's retry loop recovers.
    hot = BathSpec(OMEGA, 2.0, 5.0)
    rho0 = build_thermal_fock(0.0, 12)
    with pytest.raises(TruncationError, match="retry with dim >= 24"):
        evolve_lindblad_exact(rho0, 2.0, hot)
    # At 64 levels the drift is 7e-6; the retry doubles the cutoff to 128.
    rho, dim = _retry_truncation(
        lambda d: evolve_lindblad_exact(embed(rho0, d), 2.0, hot), 64
    )
    assert rho.dim == dim == 128


def test_probe_exact_decoupled_angle():
    # theta = 0: the phonon is untouched and the read-out is the bare
    # coherent field, Poisson at iy, whatever the phonon state and phase.
    for rho in (
        build_thermal_fock(0.7, 32),
        apply_pump_exact(build_thermal_fock(0.3, 48), 0.3 - 0.2j, 0.05j),
    ):
        for phi in (0.0, 0.7, -2.0):
            probe = ProbeSpec(0.0, phi - 0.3, 12.0)
            pair = probe_exact(rho, probe)
            assert pair.mean_ny == pytest.approx(12.0, rel=1e-14)
            assert pair.var_ny == pytest.approx(12.0, rel=1e-14)


@pytest.mark.parametrize("dph", [32, 48])
@pytest.mark.parametrize("photon_dim", [30, 32])
def test_probe_exact_matches_dense_reference(dph, photon_dim):
    probe = ProbeSpec(0.25, 0.7, 12.0)  # complex displacement amplitude
    rho = apply_pump_exact(build_thermal_fock(0.3, dph), 0.3 - 0.2j, 0.05j)
    pair = probe_exact(rho, probe)
    mean, var = _dense_probe(rho, probe, photon_dim)
    assert pair.mean_ny == pytest.approx(mean, rel=1e-12)
    assert pair.var_ny == pytest.approx(var, rel=1e-12)


def _expm_multiply_probe(rho, probe, photon_dim):
    """Probe read-out in the displaced frame by scipy's expm_multiply.

    The complex-amplitude generator, applied with Al-Mohy and Higham's
    action of the exponential (SIAM J. Sci. Comput. 33, 488, 2011), on a
    photon register of photon_dim levels; no phase frame and no number
    sectors.
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
    # The benchmark's largest probe; a reference with a larger photon register.
    [(88, 32), (48, 60)],
)
def test_probe_exact_matches_expm_multiply_reference(dph, photon_dim):
    probe = ProbeSpec(0.3, -2.1, 50.0)
    rho = apply_pump_exact(build_thermal_fock(0.3, dph), 0.9 - 0.4j, 0.1j)
    pair = probe_exact(rho, probe)
    mean, var = _expm_multiply_probe(rho, probe, photon_dim)
    assert pair.mean_ny == pytest.approx(mean, rel=1e-12)
    assert pair.var_ny == pytest.approx(var, rel=1e-12)


def test_probe_exact_phase_enters_as_a_phonon_rotation():
    # Conjugating the read-out by D = diag(exp(-i j phi)) on the phonon,
    # and by the same phases on the photon, makes the displaced field
    # real: the probe phase acts on the state as rho -> D^dagger rho D.
    rho = apply_pump_exact(build_thermal_fock(0.3, 48), 0.3 - 0.2j, 0.05j)
    j = np.arange(rho.dim)
    aligned = ProbeSpec(0.25, 0.0, 12.0)
    for phi in (0.7, -2.0, math.pi, 3.0):
        d = np.exp(-1j * phi * j)
        rotated = FockDensityMatrix(d.conj()[:, None] * rho.rho * d[None, :])
        pair = probe_exact(rho, ProbeSpec(0.25, phi, 12.0))
        ref = probe_exact(rotated, aligned)
        assert pair.mean_ny == pytest.approx(ref.mean_ny, rel=1e-12)
        assert pair.var_ny == pytest.approx(ref.var_ny, rel=1e-12)


@pytest.mark.parametrize("theta", [0.3, 1.4, math.pi / 2])
def test_probe_exact_ignores_zero_padding(theta):
    # Nothing is truncated: levels above the state's support add nothing,
    # at a weak, a strong and a full exchange. The state keeps 5e-9 of
    # population on its top level, as much as the tail guard lets
    # through, so a read-out that cut the photon's number operator at the
    # cutoff would differ from the padded one.
    pumped = apply_pump_exact(build_thermal_fock(0.3, 48), 0.9 - 0.4j, 0.1j)
    top = np.zeros((48, 48))
    top[-1, -1] = 1.0
    rho = FockDensityMatrix((1.0 - 5e-9) * pumped.rho + 5e-9 * top)
    probe = ProbeSpec(theta, -2.1, 50.0)
    pair = probe_exact(rho, probe)
    padded = probe_exact(embed(rho, rho.dim + 16), probe)
    assert padded.mean_ny == pytest.approx(pair.mean_ny, rel=1e-14)
    assert padded.var_ny == pytest.approx(pair.var_ny, rel=1e-14)


def test_quadrature_variances_exact_matches_closed_form():
    st_fock = apply_pump_exact(build_thermal_fock(0.6, 48), 0.0, 0.15)
    pos, mom = _quadrature_variances(st_fock)
    st = apply_pump(thermal_state(0.6), 0.0, 0.15)
    assert pos == pytest.approx(quadrature_variance(st), rel=1e-8)
    assert mom == pytest.approx(conjugate_quadrature_variance(st), rel=1e-8)
    # Thermal state: both quadratures at n + 1/2.
    tpos, tmom = _quadrature_variances(build_thermal_fock(0.9, 40))
    assert tpos == pytest.approx(1.4, abs=1e-9)
    assert tmom == pytest.approx(1.4, abs=1e-9)
