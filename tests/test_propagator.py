"""Picard propagation, propagator matrices and the shooting solver."""

import dataclasses
import math
import re

import numpy as np
import pytest

from wignerdv import (
    PropagatorError,
    contraction_step,
    picard_propagate,
    propagator_matrix,
    solve_bvp_shooting,
    symmetry_error,
    tabulated_boundary,
)
from wignerdv import propagator, verify

from conftest import make_system, random_system


def test_contraction_step_values():
    # min |v| = kappa/2 and C = 40 on the flagship barrier: pi/80
    system = make_system(4)
    assert contraction_step(system) == pytest.approx(math.pi / 80.0, rel=1e-15)
    # no oscillating part: unbounded step
    flat = make_system(4, coeffs=(7.0,))
    assert contraction_step(flat) == math.inf
    # quarter shift: min |v| becomes kappa/4
    from wignerdv import build_mesh, build_system, build_velocity_grid, new_potential, tabulated_boundary

    pot = new_potential(1.0, [20.0, 20.0])
    grid = build_velocity_grid(pot.kappa, 0.25 * pot.kappa, 40, True)
    sysq = build_system(
        pot, grid, build_mesh(1.0, 4), tabulated_boundary(grid, {0: 1.0})
    )
    assert contraction_step(sysq) == pytest.approx(math.pi / 160.0, rel=1e-15)


def test_zero_potential_propagates_unchanged():
    system = make_system(4, coeffs=(0.0,))
    f = np.linspace(-1.0, 1.0, system.grid.size)
    out = picard_propagate(system, f, -0.5, 0.3)
    assert out == pytest.approx(f, abs=0.0)
    P = propagator_matrix(system, -0.4, 0.4)
    assert np.all(P == np.eye(system.grid.size))


def test_identical_endpoints_give_identity():
    system = make_system(4)
    f = np.ones(system.grid.size)
    assert picard_propagate(system, f, 0.2, 0.2) == pytest.approx(f, abs=0.0)


def test_propagate_rejects_bad_input():
    system = make_system(4)
    with pytest.raises(ValueError):
        picard_propagate(system, np.ones(3), 0.0, 0.1)
    with pytest.raises(ValueError):
        picard_propagate(system, np.ones(system.grid.size), 0.0, 0.7)
    with pytest.raises(ValueError):
        picard_propagate(system, np.ones(system.grid.size), -0.6, 0.0)


def test_propagation_inverts():
    system = make_system(4)
    rng = np.random.default_rng(2)
    f = rng.standard_normal(system.grid.size)
    fwd = picard_propagate(system, f, 0.0, 0.1)
    back = picard_propagate(system, fwd, 0.1, 0.0)
    assert back == pytest.approx(f, abs=1e-9)


def test_small_start_vectors_propagate_to_the_bit():
    # picard_tol acts on the start vector scaled to order one, so a small
    # vector is propagated as accurately as a unit one
    system = make_system(100)
    e = np.eye(system.grid.size)[40]
    small = picard_propagate(system, math.ldexp(1.0, -40) * e, -0.5, 0.2)
    assert np.array_equal(small, np.ldexp(picard_propagate(system, e, -0.5, 0.2), -40))


def test_propagator_matrix_mirror_symmetry():
    system = make_system(4)
    Pp = propagator_matrix(system, 0.0, 0.25)
    Pm = propagator_matrix(system, 0.0, -0.25)
    assert np.abs(Pp - Pm).max() < 1e-8


def test_propagator_composition():
    system = make_system(4)
    P_whole = propagator_matrix(system, -0.1, 0.1)
    P_a = propagator_matrix(system, -0.1, 0.0)
    P_b = propagator_matrix(system, 0.0, 0.1)
    assert np.abs(P_b @ P_a - P_whole).max() < 1e-10


def test_propagator_matrix_matches_vector_propagation():
    system = make_system(4)
    rng = np.random.default_rng(9)
    f = rng.standard_normal(system.grid.size)
    P = propagator_matrix(system, -0.3, 0.2)
    direct = picard_propagate(system, f, -0.3, 0.2)
    assert P @ f == pytest.approx(direct, abs=1e-10)


def test_quadrature_refinement_is_converged(monkeypatch):
    # doubling the Simpson panels must not move the result at _PICARD_TOL
    system = make_system(4)
    f = np.zeros(system.grid.size)
    f[system.grid.position_of(0)] = 1.0
    coarse = picard_propagate(system, f, -0.5, 0.5)
    monkeypatch.setattr(propagator, "_QUAD_PANELS", 2 * propagator._QUAD_PANELS)
    fine = picard_propagate(system, f, -0.5, 0.5)
    assert np.abs(coarse - fine).max() < 1e-12


def _panel_reference(g, h):
    """``_cumulative_simpson`` written panel by panel, with the same operations in the same order."""
    P = (len(g) - 1) // 2
    h = np.broadcast_to(np.asarray(h, dtype=float), (P,))
    out = np.empty_like(g)
    out[0] = 0.0
    for q in range(P):
        g0, g1, g2 = g[2 * q], g[2 * q + 1], g[2 * q + 2]
        whole = (g1 * 4.0 + g0 + g2) * (h[q] / 3.0)
        out[2 * q + 2] = whole if q == 0 else out[2 * q] + whole
        out[2 * q + 1] = (g1 * 8.0 - g2 + 5.0 * g0) * (h[q] / 12.0) + out[2 * q]
    return out


def test_cumulative_simpson_matches_a_per_panel_reference_exactly():
    # the whole-panel totals are summed slab by slab where a point holds at
    # least _SLAB_ENTRIES entries, and by np.cumsum otherwise: both add in
    # panel order, so each equals the per-panel reference to the bit, for
    # matrix- and vector-shaped samples on both sides of the cut, one h or
    # one per panel, of either sign
    rng = np.random.default_rng(53)
    shapes = ((8, 16, 16), (3, 20, 20), (40, 300), (8, 6, 6), (8, 5), (40, 5), (1, 3))
    assert {np.prod(shape[1:]) >= propagator._SLAB_ENTRIES for shape in shapes} == {True, False}
    for shape in shapes:
        P, point = shape[0], shape[1:]
        g = rng.standard_normal((2 * P + 1,) + point)
        for h in (0.37, -0.37, rng.uniform(0.1, 1.0, P), -rng.uniform(0.1, 1.0, P)):
            assert np.array_equal(propagator._cumulative_simpson(g, h), _panel_reference(g, h))


def test_picard_cap_raises_on_non_contractive_interval():
    # the public entry points always split below the contraction step, so
    # drive one Picard run directly across a whole period, far beyond
    # the guaranteed contraction length, where the iteration diverges
    system = make_system(4, coeffs=(0.0, 4000.0))
    F0 = np.ones((system.grid.size, 1))
    ys = np.linspace(-0.5, 0.5, 2 * propagator._QUAD_PANELS + 1)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(PropagatorError):
            propagator._picard_run(system, F0, ys, ys[1] - ys[0])


def test_shooting_free_streaming():
    system = make_system(12, coeffs=(5.0,))  # constant potential
    sol = solve_bvp_shooting(system)
    expected = system.boundary.values[:, None] * np.ones(13)
    assert np.abs(sol.values - expected).max() < 1e-12
    assert sol.scheme == "oracle"


def test_shooting_solution_is_mirror_symmetric():
    sol = solve_bvp_shooting(make_system(100))
    assert symmetry_error(sol) < 1e-7
    assert sol.residual < 1e-10


def test_shooting_pins_boundary_bit_exactly():
    system = make_system(50)
    sol = solve_bvp_shooting(system)
    v = system.grid.velocities
    assert np.all(sol.values[v > 0, 0] == system.boundary.values[v > 0])
    assert np.all(sol.values[v < 0, -1] == system.boundary.values[v < 0])


def test_period_identity_over_random_inputs():
    rng = np.random.default_rng(5101)
    for _ in range(8):
        system = random_system(rng, max_harmonics=3, max_M=20, off_half=(0.2, 0.8))
        m = system.grid.size
        P = propagator_matrix(system, -0.5, 0.5)
        assert np.abs(P - np.eye(m)).max() <= 1e-12
        # A is odd, so marching down from the center equals marching up, to
        # the bit: the band coefs are odd and the cuts and points negate exactly
        upper = system.mesh.nodes[system.mesh.Nx // 2 :]
        up = propagator._march(system, np.ones(m), upper)
        down = propagator._march(system, np.ones(m), -upper)
        assert np.array_equal(up, down)
        sol = solve_bvp_shooting(system)
        # the residual is the marched end gap: the period identity on the solution
        assert sol.residual <= 1e-12
        # and the left inflow comes out at +l/2 as it went in; f_{v<0}(-l/2)
        # = b_right holds by construction of the march's start state
        b = system.boundary.values
        pos = system.grid.velocities > 0
        assert np.abs(sol.values[pos, -1] - b[pos]).max() <= 1e-12 * np.abs(b).max()
        assert symmetry_error(sol) <= 1e-10
        # same fixed point as a per-cell chain of picard_propagate
        nodes = system.mesh.nodes
        state = system.boundary.values
        chain = [state]
        for a, b in zip(nodes[:-1], nodes[1:]):
            state = picard_propagate(system, state, a, b)
            chain.append(state)
        chain = np.array(chain).T
        assert np.abs(sol.values - chain).max() <= 1e-11 * np.abs(chain).max()


@pytest.mark.parametrize("Nx, nodes", [(1600, "0 and 31"), (10, "0 and 1")])
def test_picard_stall_in_the_march_names_its_mesh_nodes(monkeypatch, Nx, nodes):
    # at Nx=1600 the first run holds 31 whole cells; at Nx=10 it is the
    # first of the six pieces the step cuts cell 0 into
    monkeypatch.setattr(propagator, "_MAX_PICARD_ITER", 1)
    with pytest.raises(PropagatorError, match=f"between mesh nodes {nodes}") as info:
        solve_bvp_shooting(make_system(Nx))
    assert info.value.gap > propagator._PICARD_TOL


def test_oracle_needs_no_period_matrix(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the oracle built a period propagator")

    monkeypatch.setattr(propagator, "propagator_matrix", refuse)
    sol = solve_bvp_shooting(make_system(1600))
    assert sol.residual <= 1e-12
    assert symmetry_error(sol) <= 1e-10


def test_oracle_residual_sees_a_wrong_start_state(monkeypatch):
    # unit inflow in the slowest channel at each end
    system = make_system(100)
    grid = system.grid
    neg = grid.velocities < 0
    slowest = {int(grid.indices[~neg][0]): 1.0, int(grid.indices[neg][-1]): 1.0}
    system = dataclasses.replace(system, boundary=tabulated_boundary(grid, slowest))
    assert solve_bvp_shooting(system).residual <= 1e-12
    march = propagator._march

    def no_outgoing(system, F0, points):
        return march(system, np.where(neg, 0.0, F0), points)

    monkeypatch.setattr(propagator, "_march", no_outgoing)
    assert solve_bvp_shooting(system).residual > 0.1


def test_mirror_check_measures_the_period_propagator(monkeypatch):
    system = make_system(4)
    result = verify.check_propagator_mirror(system)
    assert result.passed, result.detail
    period = float(re.search(r"max \|P_period - I\| = (\S+)", result.detail).group(1))
    assert period <= 1e-12
    # a period map off the identity fails the check although the mirror holds
    exact = verify.propagator_matrix

    def skewed(system, x1, x2):
        P = exact(system, x1, x2)
        if (x1, x2) == (-0.5, 0.5):
            return P + 1e-6
        return P

    monkeypatch.setattr(verify, "propagator_matrix", skewed)
    result = verify.check_propagator_mirror(system)
    assert not result.passed
    assert "max entry mismatch 0.000e+00" in result.detail
    assert "max |P_period - I| = 1.000e-06" in result.detail
