"""Fast path against the number-basis oracle on small comparison grids."""

import math

import pytest

from isrsim.config import load_config
from isrsim.fock import (
    CrossCheckCase,
    TruncationError,
    _retry_truncation,
    apply_pump_exact,
    build_thermal_fock,
    cross_validate,
    default_grid,
    evolve_lindblad_exact,
)
from isrsim.states import BathSpec, apply_pump, evolve, thermal_state

CHEAP_CASES = [
    CrossCheckCase(
        thermal_n=0.4,
        c1=0.3 - 0.1j,
        c2=0.08j,
        damping_rate=1.2,
        delay=0.6,
        coupling_norm=0.2,
        intensity_y=10.0,
        phase_diff=0.5,
    ),
    CrossCheckCase(
        thermal_n=0.0,
        c1=0.2,
        c2=0.0,
        damping_rate=0.8,
        delay=0.0,
        coupling_norm=0.1,
        intensity_y=6.0,
        phase_diff=-1.0,
    ),
]


# A default-range draw with a small anomalous moment (|<b^2>| = 7.5e-3
# after the delay), at the pump-stage cutoff of 40 that suggest_dim picks.
SMALL_ANOMALOUS = CrossCheckCase(
    thermal_n=1.31804,
    c1=0.063132 + 0.217340j,
    c2=0.0016300 + 0.0011847j,
    damping_rate=1.22486,
    delay=1.76596,
    coupling_norm=0.224708,
    intensity_y=16.5129,
    phase_diff=-2.88576,
)


def test_cross_validate_passes_on_cheap_cases():
    results = cross_validate(CHEAP_CASES)
    assert all(res.passed for res in results)
    for res in results:
        assert max(res.moment_errors.values()) < 1e-6
        assert res.mean_error < 1e-4
        assert res.var_error < 1e-4


def test_cross_validate_catches_injected_fault():
    results = cross_validate([CHEAP_CASES[0]], fault_scale=5e-4)
    assert not results[0].passed
    assert results[0].var_error >= 4e-4


def test_strong_exchange_reads_out_without_retry():
    # A strong exchange (angle 1.4) with a coherent phonon (|<b>| = 2)
    # scatters many photons; the number-sector read-out has no photon
    # register to outgrow, so the case passes at the pump stage's first
    # cutoff guess, 32.
    case = CrossCheckCase(0.0, 2.0, 0.0, 1.0, 0.0, 1.4, 2.0, 0.0)
    [res] = cross_validate([case])
    assert res.passed
    assert res.phonon_dim == 32


def test_retry_ladder_grows_the_named_register_up_to_the_cap():
    # One register, the phonon's: each failure doubles the cutoff, and the
    # failure of the third and last attempt propagates.
    tried = []

    def stage(dim):
        tried.append(dim)
        raise TruncationError("phonon")

    with pytest.raises(TruncationError, match="phonon"):
        _retry_truncation(stage, 8)
    assert tried == [8, 16, 32]

    assert _retry_truncation(lambda dim: dim + 2, 8) == (10, 8)


def test_default_grid_covers_validated_ranges():
    cases = default_grid(load_config().section("scan")["seed"])
    assert len(cases) == 8
    for case in cases:
        assert 0.0 <= case.thermal_n <= 2.0
        assert 0.0 <= 2.0 * abs(case.c2) <= 0.5
        assert 0.0 <= case.damping_rate * case.delay <= 3.0 + 1e-12
        assert 0.0 <= case.coupling_norm <= 0.3
        assert 5.0 <= case.intensity_y <= 50.0
        assert case.omega == pytest.approx(2.0 * math.pi * 3.84)


def test_default_grid_is_deterministic():
    assert default_grid(7) == default_grid(7)
    assert default_grid(seed=1) != default_grid(seed=2)


def test_cross_validate_resolves_small_anomalous_moment():
    # At cutoff 40 the evolved anomalous moment is 1.7e-7 off, and the
    # pump stage 9.1e-8: the truncated master-equation generator, with its
    # boundary at the top level, would leave it 2.6e-6 off here.
    result = cross_validate([SMALL_ANOMALOUS])[0]
    assert result.passed
    assert result.phonon_dim == 40
    assert result.moment_errors["evolve_anomalous"] < 1e-6


def test_small_anomalous_moment_resolved_at_larger_cutoff():
    # At cutoff 64 the same stages agree with the closed form to 1e-9:
    # what is left above is the truncation of the pump stage at 40.
    case = SMALL_ANOMALOUS
    bath = BathSpec(case.omega, case.damping_rate, case.thermal_n)
    exact = apply_pump_exact(build_thermal_fock(case.thermal_n, 64), case.c1, case.c2)
    exact = evolve_lindblad_exact(exact, case.delay, bath)
    fast = evolve(apply_pump(thermal_state(case.thermal_n), case.c1, case.c2), case.delay, bath)
    anom = exact.moments()[2]
    assert abs(anom - fast.anomalous) / abs(fast.anomalous) < 1e-9
