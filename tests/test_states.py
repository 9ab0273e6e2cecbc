"""Moment algebra of the damped phonon mode: preparation, pump, relaxation."""

import cmath
import math

import pytest
from scipy import constants

from closed_forms import (
    conjugate_quadrature_variance,
    quadrature_variance,
    squeeze_parameters,
)
from isrsim.states import (
    BOLTZMANN_J_PER_K,
    PLANCK_J_S,
    BathSpec,
    GaussianPhononState,
    PhysicalityError,
    PumpSpec,
    apply_pump,
    beta_omega_from_temperature,
    evolve,
    pump_coefficients,
    squeezed_thermal_quadrature_variance,
    thermal_occupation,
    thermal_state,
)

OMEGA = 2.0 * math.pi * 3.84

# Exact-constant reference: occupation of a 3.84 THz mode at 300 K.
BETA_300K = 0.61430311339087629
N_300K = 1.178733690798772


def test_thermal_occupation_known_points():
    # beta = ln 2 makes the Bose factor exactly 1.
    assert thermal_occupation(math.log(2.0)) == pytest.approx(1.0, rel=1e-15)
    assert thermal_occupation(math.log(1.5)) == pytest.approx(2.0, rel=1e-15)
    # Deep quantum limit underflows cleanly to zero.
    assert thermal_occupation(800.0) == 0.0


def test_thermal_occupation_rejects_bad_arguments():
    for bad in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            thermal_occupation(bad)


def test_room_temperature_occupation():
    beta = beta_omega_from_temperature(3.84, 300.0)
    assert beta == pytest.approx(BETA_300K, rel=1e-12)
    assert thermal_occupation(beta) == pytest.approx(N_300K, rel=1e-12)


def test_si_constants_are_exact():
    assert PLANCK_J_S == constants.h
    assert BOLTZMANN_J_PER_K == constants.k


def test_beta_omega_scales_linearly():
    base = beta_omega_from_temperature(3.84, 300.0)
    assert beta_omega_from_temperature(7.68, 300.0) == pytest.approx(2.0 * base)
    assert beta_omega_from_temperature(3.84, 600.0) == pytest.approx(0.5 * base)
    with pytest.raises(ValueError):
        beta_omega_from_temperature(-1.0, 300.0)
    with pytest.raises(ValueError):
        beta_omega_from_temperature(3.84, 0.0)


def test_thermal_state_moments():
    st = thermal_state(1.4)
    assert st.mean_b == 0
    assert st.occupation == 1.4
    assert st.anomalous == 0
    assert st.central_occupation == 1.4
    with pytest.raises(ValueError):
        thermal_state(-0.1)


def test_pump_amplitude_is_a_magnitude():
    """The drive goes as |nu|^2; a negative or NaN |nu| is refused."""
    for bad in (-0.1, math.nan, math.inf):
        with pytest.raises(ValueError, match="nu_amplitude"):
            PumpSpec(50.0, 0.2, bad)
    for amp in (0.0, 0.7, math.sqrt(2.0)):
        c1, c2 = pump_coefficients(PumpSpec(50.0, 0.2, amp))
        assert c1 == pytest.approx(50.0 * amp ** 2, rel=1e-15)
        assert c2 == pytest.approx(0.2 * amp ** 2, rel=1e-15)


def test_pure_displacement_sign_convention():
    st = apply_pump(thermal_state(0.0), 0.7, 0.0)
    assert st.mean_b == pytest.approx(-0.7j)
    assert st.central_occupation == pytest.approx(0.0, abs=1e-15)
    assert st.central_anomalous == pytest.approx(0.0, abs=1e-15)


def test_squeezed_vacuum_occupation():
    c2 = 0.11 - 0.07j
    st = apply_pump(thermal_state(0.0), 0.0, c2)
    r = 2.0 * abs(c2)
    assert st.occupation == pytest.approx(math.sinh(r) ** 2, rel=1e-12)
    assert abs(st.central_anomalous) == pytest.approx(
        math.cosh(r) * math.sinh(r), rel=1e-12
    )


def test_pump_preserves_purity_of_vacuum():
    st = apply_pump(thermal_state(0.0), 0.3 - 0.2j, 0.08 + 0.05j)
    nu = st.central_occupation
    sig = st.central_anomalous
    assert (nu + 0.5) ** 2 - abs(sig) ** 2 == pytest.approx(0.25, rel=1e-10)


def test_pump_general_case_frozen():
    """Displaced squeezed thermal moments, pinned against a dense-matrix run."""
    st = apply_pump(thermal_state(0.7), 0.4 + 0.1j, 0.05 - 0.12j)
    assert st.mean_b == pytest.approx(
        0.109175649274605 - 0.457821163989784j, rel=1e-9
    )
    assert st.occupation == pytest.approx(1.08744845919294, rel=1e-9)
    assert st.anomalous == pytest.approx(
        -0.799992521375198 - 0.350929022982468j, rel=1e-9
    )


def test_squeeze_parameters():
    r, psi = squeeze_parameters(0.2j)
    assert r == pytest.approx(0.4)
    assert psi == pytest.approx(math.pi)
    assert squeeze_parameters(0.0)[0] == 0.0


def test_evolve_closed_form_single_step():
    bath = BathSpec(OMEGA, 0.4, 0.9)
    st = apply_pump(thermal_state(0.9), 0.5, 0.1j)
    tau = 0.73
    out = evolve(st, tau, bath)
    decay = math.exp(-0.4 * tau)
    rot = cmath.exp(-1j * OMEGA * tau)
    assert out.mean_b == pytest.approx(st.mean_b * rot * math.sqrt(decay), rel=1e-12)
    assert out.central_anomalous == pytest.approx(
        st.central_anomalous * rot * rot * decay, rel=1e-12
    )
    assert out.central_occupation == pytest.approx(
        0.9 + (st.central_occupation - 0.9) * decay, rel=1e-12
    )


def test_evolve_semigroup_property():
    bath = BathSpec(OMEGA, 0.7, 1.1)
    st = apply_pump(thermal_state(0.4), 0.8 - 0.3j, 0.12 + 0.04j)
    one = evolve(st, 1.9, bath)
    two = evolve(evolve(st, 1.2, bath), 0.7, bath)
    assert abs(one.mean_b - two.mean_b) < 1e-12
    assert abs(one.occupation - two.occupation) < 1e-12
    assert abs(one.anomalous - two.anomalous) < 1e-12


def test_evolve_thermal_fixed_point_and_late_time():
    bath = BathSpec(OMEGA, 0.5, 1.3)
    st = evolve(thermal_state(1.3), 2.4, bath)
    assert st.mean_b == 0
    assert st.occupation == pytest.approx(1.3, rel=1e-12)
    # Any initial state relaxes to the bath occupation.
    late = evolve(apply_pump(thermal_state(0.1), 2.0, 0.2j), 80.0, bath)
    assert late.occupation == pytest.approx(1.3, rel=1e-8)
    assert abs(late.anomalous) < 1e-8


def test_evolve_rejects_negative_delay():
    bath = BathSpec(OMEGA, 0.5, 1.0)
    with pytest.raises(ValueError):
        evolve(thermal_state(1.0), -0.1, bath)


def test_physicality_guards():
    with pytest.raises(PhysicalityError):
        GaussianPhononState(0.0, -0.2, 0.0)  # negative occupation
    with pytest.raises(PhysicalityError):
        GaussianPhononState(0.0, 0.0, 0.9)  # anomalous beyond the bound
    with pytest.raises(PhysicalityError):
        GaussianPhononState(math.nan, 1.0, 0.0)
    # At the uncertainty boundary construction must succeed.
    r = 0.3
    GaussianPhononState(0.0, math.sinh(r) ** 2, -1j * math.cosh(r) * math.sinh(r))


def test_spec_validation():
    with pytest.raises(ValueError):
        BathSpec(-1.0, 0.5, 1.0)
    with pytest.raises(ValueError):
        BathSpec(OMEGA, -0.5, 1.0)
    with pytest.raises(ValueError):
        BathSpec(OMEGA, 0.5, -1.0)


def test_quadrature_closed_form_matches_pumped_state():
    """The pump output is a squeezed thermal state; both variance routes agree."""
    n = 0.8
    for phi in (0.0, 0.7, -1.9):
        c2 = cmath.rect(0.2, phi)
        st = apply_pump(thermal_state(n), 0.0, c2)
        r, psi = squeeze_parameters(c2)
        direct = quadrature_variance(st)
        closed = squeezed_thermal_quadrature_variance(n, r, psi)
        assert direct == pytest.approx(closed, rel=1e-13)
        assert conjugate_quadrature_variance(st) == pytest.approx(
            squeezed_thermal_quadrature_variance(n, r, psi + math.pi), rel=1e-13
        )


def test_quadrature_frozen_values_and_product():
    assert squeezed_thermal_quadrature_variance(0.8, 0.4, 0.0) == pytest.approx(
        0.584127653352388, rel=1e-12
    )
    assert squeezed_thermal_quadrature_variance(0.8, 0.4, math.pi) == pytest.approx(
        2.89320320704021, rel=1e-12
    )
    # The squeezed/antisqueezed product is r-independent: (n + 1/2)^2.
    for n, r in ((0.0, 0.3), (1.1787, 1.02), (2.0, 0.0)):
        prod = squeezed_thermal_quadrature_variance(
            n, r, 0.0
        ) * squeezed_thermal_quadrature_variance(n, r, math.pi)
        assert prod == pytest.approx((n + 0.5) ** 2, rel=1e-12)


def test_vacuum_quadrature_exactly_half():
    assert quadrature_variance(thermal_state(0.0)) == 0.5
    assert conjugate_quadrature_variance(thermal_state(0.0)) == 0.5


def test_displacement_does_not_change_quadrature_variance():
    base = apply_pump(thermal_state(0.6), 0.0, 0.1j)
    moved = apply_pump(thermal_state(0.6), 1.5 - 0.4j, 0.1j)
    assert quadrature_variance(moved) == pytest.approx(
        quadrature_variance(base), rel=1e-10
    )
