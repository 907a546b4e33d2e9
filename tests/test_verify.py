"""run_all_checks against the checks run one after another, and the
current-conservation check on inputs whose deviations are rounding."""

import threading

import numpy as np
import pytest

from wignerdv import (
    build_mesh,
    build_system,
    build_velocity_grid,
    mono_energetic_boundary,
    new_potential,
    tabulated_boundary,
    verify,
)

from conftest import M_CHANNELS, make_system


def _shifted(system, s_over_kappa):
    """The system on the velocity lattice shifted by s_over_kappa * kappa."""
    kappa = system.potential.kappa
    grid = build_velocity_grid(kappa, s_over_kappa * kappa, M_CHANNELS, True)
    return build_system(system.potential, grid, system.mesh, mono_energetic_boundary(grid, 0))


def _small_system():
    """A cheap system that passes every check, for the tests that watch the threads."""
    pot = new_potential(1.0, [0.0, 2.0])
    grid = build_velocity_grid(pot.kappa, 0.5 * pot.kappa, 8, True)
    return build_system(pot, grid, build_mesh(1.0, 8), mono_energetic_boundary(grid, 0))


@pytest.mark.parametrize("s_over_kappa", [0.5, 0.3])
def test_run_all_checks_equals_the_checks_in_sequence(s_over_kappa):
    # the Picard checks, which set the time, do not depend on the mesh
    system = _shifted(make_system(20), s_over_kappa)
    # the checks that draw no random numbers give one result for every seed
    mirror = verify.check_propagator_mirror(system)
    streaming = verify.check_free_streaming(system)
    conservation = verify.check_current_conservation(system)
    for seed in (1, 2, 20260817):
        rng = np.random.default_rng(seed)
        expected = [
            verify.check_coupling_bound(system, rng),
            mirror,
            verify.check_propagator_inversion(system, rng),
            streaming,
            conservation,
        ]
        assert verify.run_all_checks(system, seed=seed) == expected, seed
        assert all(r.passed for r in expected), expected


@pytest.mark.parametrize("period", [0.2, 0.05])
def test_run_all_checks_passes_on_a_period_shorter_than_an_inversion_interval(period):
    # the inversion check draws each interval's length below the period too,
    # so that the interval fits in it
    pot = new_potential(period, [20.0, 20.0])
    grid = build_velocity_grid(pot.kappa, 0.5 * pot.kappa, M_CHANNELS, True)
    system = build_system(pot, grid, build_mesh(period, 20), mono_energetic_boundary(grid, 0))
    results = verify.run_all_checks(system)
    assert len(results) == 5 and all(r.passed for r in results), results


@pytest.mark.parametrize("name", ["check_propagator_mirror", "check_current_conservation"])
def test_run_all_checks_raises_a_check_error_and_leaves_no_thread(monkeypatch, name):
    system = _small_system()
    before = threading.active_count()
    assert all(r.passed for r in verify.run_all_checks(system))
    assert threading.active_count() == before

    def broken(*args, **kwargs):
        raise ArithmeticError(f"{name} broke")

    monkeypatch.setattr(verify, name, broken)
    with pytest.raises(ArithmeticError, match=f"^{name} broke$"):
        verify.run_all_checks(system)
    assert threading.active_count() == before


@pytest.mark.parametrize(
    "coeffs, table",
    [((20.0,), {0: 1.0}), ((20.0, 20.0), {0: 0.0})],
    ids=["constant-potential", "zero-inflow"],
)
def test_current_conservation_passes_at_rounding(coeffs, table):
    flagship = make_system(100)
    pot = new_potential(1.0, list(coeffs))
    system = build_system(pot, flagship.grid, flagship.mesh, tabulated_boundary(flagship.grid, table))
    result = verify.check_current_conservation(system)
    assert result.passed, result.detail
    assert "(at rounding, floor 1.0e-12)" in result.detail


def test_current_conservation_keeps_its_flagship_detail():
    result = verify.check_current_conservation(make_system(100))
    assert result.passed, result.detail
    assert result.detail.endswith("under 4x refinement"), result.detail


@pytest.mark.parametrize("coarse, fine", [(1e-13, 2e-12), (1e-6, 1e-5)])
def test_current_conservation_fails_a_deviation_that_grows_above_rounding(monkeypatch, coarse, fine):
    # central's deviation, then upwind2's on the given and on the refined mesh
    deviations = iter([0.0, coarse, fine])
    monkeypatch.setattr(verify, "_current_deviation", lambda sol: next(deviations))
    result = verify.check_current_conservation(make_system(20))
    assert not result.passed, result.detail
    assert "at rounding" not in result.detail


def test_coupling_bound_check_measures_a_coupling_past_a_sum_of_squares():
    # with a_1 = 1e300, |A f| reaches about 1e300, whose square overflows:
    # a plain norm reads it as inf (and warns), which the bound of 2e300
    # would fail.  Measured safe from overflow, it passes below the bound
    result = verify.check_coupling_bound(make_system(10, coeffs=(0.0, 1e300)), np.random.default_rng(5))
    assert result.passed, result.detail
    assert "against bound 2.000000e+300" in result.detail
