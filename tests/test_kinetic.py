"""Velocity grid, mesh and boundary data."""

import math
import re

import numpy as np
import pytest

from wignerdv import (
    build_mesh,
    build_system,
    build_velocity_grid,
    mono_energetic_boundary,
    new_potential,
    tabulated_boundary,
)
from wignerdv.kinetic import _in_range


KAPPA = math.pi


def test_symmetric_half_shift_window():
    g = build_velocity_grid(KAPPA, 0.5 * KAPPA, 2, True)
    assert (g.i_min, g.i_max) == (-2, 1)
    assert g.velocities == pytest.approx(
        [-1.5 * KAPPA, -0.5 * KAPPA, 0.5 * KAPPA, 1.5 * KAPPA]
    )


def test_asymmetric_window_keeps_both_ends():
    g = build_velocity_grid(KAPPA, 0.25 * KAPPA, 2, True)
    assert (g.i_min, g.i_max) == (-2, 2)
    assert g.size == 5
    g2 = build_velocity_grid(KAPPA, 0.5 * KAPPA, 2, False)
    assert (g2.i_min, g2.i_max) == (-2, 2)


def test_flagship_grid_has_80_channels():
    g = build_velocity_grid(KAPPA, 0.5 * KAPPA, 40, True)
    assert g.size == 80
    assert np.abs(g.velocities).min() == pytest.approx(0.5 * KAPPA)
    # exactly symmetric under v -> -v
    assert np.array_equal(-g.velocities[::-1], g.velocities)
    assert np.all(np.diff(g.velocities) > 0)


def test_half_shift_window_is_antisymmetric_to_the_bit():
    # the v > 0 half negated, as the mesh nodes are: i kappa + kappa / 2
    # computed for i < 0 would leave about half the entries 1 ulp off
    for kappa in (KAPPA, 2 * math.pi, 0.1, 3.7, 1e3):
        for M in (1, 7, 40, 200):
            v = build_velocity_grid(kappa, 0.5 * kappa, M, True).velocities
            assert v.size == 2 * M
            assert np.array_equal(v, -v[::-1])
            assert np.array_equal(v[M:], np.arange(M) * kappa + 0.5 * kappa)


def test_velocity_grid_rejects_bad_shift():
    for s in (0.0, KAPPA, -0.1, 1.5 * KAPPA):
        with pytest.raises(ValueError):
            build_velocity_grid(KAPPA, s, 4)
    with pytest.raises(ValueError):
        build_velocity_grid(KAPPA, 0.5 * KAPPA, 0)


def test_position_of_maps_indices():
    g = build_velocity_grid(KAPPA, 0.5 * KAPPA, 3, True)
    assert g.position_of(-3) == 0
    assert g.position_of(2) == 5
    with pytest.raises(ValueError):
        g.position_of(3)


def test_velocity_indices_must_be_integers():
    # a float or bool index is rejected, not truncated to a channel (0.5 and
    # 0.9 would read as index 0, True as index 1); NumPy integers are valid
    g = build_velocity_grid(KAPPA, 0.5 * KAPPA, 40, True)
    for i in (0.5, 0.9, 1.0, True, np.float64(2.0)):
        with pytest.raises(ValueError, match=re.escape(f"velocity index {i!r} is not an integer")):
            g.position_of(i)
    with pytest.raises(ValueError, match="velocity index 0.5 is not an integer"):
        mono_energetic_boundary(g, 0.5)
    with pytest.raises(ValueError, match="velocity index 0.9 is not an integer"):
        tabulated_boundary(g, {0.9: 1.0})
    assert g.position_of(np.int64(3)) == g.position_of(3) == 43
    assert mono_energetic_boundary(g, np.int32(0)).values[40] == 1.0
    assert tabulated_boundary(g, {np.int64(-1): 0.5}).values[39] == 0.5


def test_mesh_basic_properties():
    mesh = build_mesh(1.0, 100)
    assert mesh.Nx == 100
    assert mesh.dx == pytest.approx(0.01)
    assert mesh.nodes.size == 101
    assert mesh.nodes[0] == -0.5
    assert mesh.nodes[-1] == 0.5
    assert mesh.nodes[50] == 0.0


def test_mesh_is_bitwise_mirror_symmetric():
    for nx in (2, 10, 100, 346):
        mesh = build_mesh(1.0, nx)
        for j in range(nx + 1):
            assert mesh.nodes[nx - j] == -mesh.nodes[j]


def test_mesh_rejects_odd_or_tiny():
    with pytest.raises(ValueError):
        build_mesh(1.0, 99)
    with pytest.raises(ValueError):
        build_mesh(1.0, 0)
    with pytest.raises(ValueError):
        build_mesh(-1.0, 10)


def test_mono_energetic_boundary_places_unit_injection():
    g = build_velocity_grid(KAPPA, 0.5 * KAPPA, 4, True)
    b = mono_energetic_boundary(g, 0)
    assert b.values.sum() == 1.0
    assert b.values[g.position_of(0)] == 1.0
    # channel 0 has v = kappa/2 > 0: it is a left-inflow channel
    assert b.values[g.velocities > 0].sum() == 1.0
    assert np.all(b.values[g.velocities < 0] == 0.0)


def test_mono_energetic_boundary_rejects_negative_channel():
    g = build_velocity_grid(KAPPA, 0.5 * KAPPA, 4, True)
    # the velocity prints as a plain float: a numpy repr, np.float64(...)
    # under numpy 2, would make the text depend on the numpy version
    with pytest.raises(ValueError, match=re.escape(f"i0=-1 has non-positive velocity {-0.5 * KAPPA!r}")):
        mono_energetic_boundary(g, -1)
    with pytest.raises(ValueError):
        mono_energetic_boundary(g, 99)


def test_tabulated_boundary_matches_mono():
    g = build_velocity_grid(KAPPA, 0.5 * KAPPA, 4, True)
    assert np.all(
        tabulated_boundary(g, {0: 1.0}).values == mono_energetic_boundary(g, 0).values
    )


def test_tabulated_boundary_two_sided():
    g = build_velocity_grid(KAPPA, 0.5 * KAPPA, 4, True)
    b = tabulated_boundary(g, {0: 0.5, -1: 0.25})
    assert b.values[g.velocities > 0].sum() == 0.5
    assert b.values[g.velocities < 0].sum() == 0.25


def test_tabulated_boundary_rejects_bad_entries():
    g = build_velocity_grid(KAPPA, 0.5 * KAPPA, 4, True)
    with pytest.raises(ValueError):
        tabulated_boundary(g, {99: 1.0})
    with pytest.raises(ValueError):
        tabulated_boundary(g, {0: -1.0})
    with pytest.raises(ValueError):
        tabulated_boundary(g, {0: math.inf})
    # a numpy value prints as a plain float, as the velocity above does
    with pytest.raises(ValueError) as info:
        tabulated_boundary(g, {0: np.float64(-1.0)})
    assert str(info.value).endswith("got -1.0") and "np." not in str(info.value)


def test_velocity_grid_rejects_a_kappa_that_is_not_positive():
    for kappa in (0.0, -KAPPA, math.inf, math.nan):
        with pytest.raises(ValueError, match="kappa must be positive"):
            build_velocity_grid(kappa, 0.5, 4)


def test_velocity_grid_rejects_a_window_past_the_float_range():
    # on period_l = 1e-307, v_39 = 39 kappa + s overflows: the window is
    # rejected before its array is built, so numpy warns of nothing (tier-1
    # turns a RuntimeWarning into an error).  One index fewer fits
    kappa = math.pi / 1e-307
    for symmetric, i_max in ((True, 39), (False, 40)):
        with pytest.raises(ValueError, match=re.escape(
                f"M = 40 puts v_{i_max} = {i_max} kappa + s past the float range for kappa = {kappa!r}")):
            build_velocity_grid(kappa, 0.5 * kappa, 40, symmetric)
    top = max(M for M in range(1, 40) if math.isfinite((M - 1) * kappa + 0.5 * kappa))
    assert np.isfinite(build_velocity_grid(kappa, 0.5 * kappa, top, True).velocities).all()


def test_build_system_cross_checks():
    pot = new_potential(1.0, [20.0, 20.0])
    grid = build_velocity_grid(pot.kappa, 0.5 * pot.kappa, 4, True)
    mesh = build_mesh(1.0, 10)
    bnd = mono_energetic_boundary(grid, 0)
    system = build_system(pot, grid, mesh, bnd)
    assert system.grid is grid

    wrong_grid = build_velocity_grid(2.0 * pot.kappa, pot.kappa, 4, True)
    with pytest.raises(ValueError):
        build_system(pot, wrong_grid, mesh, bnd)
    wrong_mesh = build_mesh(2.0, 10)
    with pytest.raises(ValueError):
        build_system(pot, grid, wrong_mesh, bnd)
    other_bnd = mono_energetic_boundary(build_velocity_grid(pot.kappa, 0.5 * pot.kappa, 6, True), 0)
    with pytest.raises(ValueError):
        build_system(pot, grid, mesh, other_bnd)


def test_grid_and_mesh_sizes_must_be_integers():
    # a half-integer M would put a channel at v = 0, which the solvers exclude
    for M in (2.5, 2.0):
        with pytest.raises(ValueError, match="M must be an integer"):
            build_velocity_grid(KAPPA, 0.5 * KAPPA, M)
    for nx in (10.5, 10.0):
        with pytest.raises(ValueError, match="Nx must be an even integer"):
            build_mesh(1.0, nx)
    g = build_velocity_grid(KAPPA, 0.5 * KAPPA, np.int64(2), True)
    assert (g.i_min, g.i_max) == (-2, 1) and type(g.i_min) is int
    assert np.all(g.velocities != 0.0)
    mesh = build_mesh(1.0, np.int32(10))
    assert mesh.Nx == 10 and type(mesh.Nx) is int


def test_sizes_and_periods_reject_bools():
    # True is an int to Python, but it is no size, period, spacing or shift
    # (as M it would give a two-channel grid, as a period a unit mesh, as
    # kappa a unit spacing); NumPy numbers are valid
    with pytest.raises(ValueError, match="M must be an integer >= 1, got True"):
        build_velocity_grid(KAPPA, 0.5 * KAPPA, True)
    with pytest.raises(ValueError, match="kappa must be positive, got True"):
        build_velocity_grid(True, 0.5, 4)
    with pytest.raises(ValueError, match=r"shift s must lie strictly inside \(0, kappa\), got s=True"):
        build_velocity_grid(2.0, True, 4)
    with pytest.raises(ValueError, match="Nx must be an even integer"):
        build_mesh(1.0, True)
    with pytest.raises(ValueError, match="period_l must be positive, got True"):
        build_mesh(True, 10)
    assert build_velocity_grid(KAPPA, 0.5 * KAPPA, np.int16(1)).size == 2
    assert build_mesh(np.float64(1.0), 10).Nx == build_mesh(np.int64(1), 10).Nx == 10


def test_a_norm_past_the_float_range_scales_exactly_with_a_power_of_two():
    # seeded vectors 2^k a, up to 1e304 in magnitude, whose plain sum of
    # squares overflows: their norm is exactly 2^k |a| (scaling by the
    # largest entry instead missed it by up to 4 ulp in about half of them)
    rng = np.random.default_rng(32)
    checked = 0
    for _ in range(3000):
        a = rng.standard_normal(int(rng.integers(1, 100)))
        k = int(rng.integers(499, 1010))
        big = np.ldexp(a, k)
        with np.errstate(over="ignore"):
            if np.isfinite(np.linalg.norm(big)):
                continue
        assert _in_range(np.linalg.norm, big) == math.ldexp(float(np.linalg.norm(a)), k)
        checked += 1
    assert checked > 2500
    # a norm past the float range reads inf and a non-finite entry gives the plain norm, with no warning
    assert _in_range(np.linalg.norm, np.array([1.5e308, 1.5e308])) == math.inf
    assert math.isnan(_in_range(np.linalg.norm, np.array([1e308, math.nan])))
