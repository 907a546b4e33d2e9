"""Shared builders and a session-wide solution cache.

The flagship configuration (cosine barrier of height and amplitude 20 on
a unit period, 80 half-shifted velocity channels, unit injection of the
slowest right-moving channel) is reused across many tests, and some of
its solves are expensive.  solve_cached shares them per session.
census_systems builds the census of hard systems that the solvers'
solved and refinement counts are measured on.
"""

import dataclasses

import numpy as np
import pytest

from wignerdv import (
    build_mesh,
    build_system,
    build_velocity_grid,
    mono_energetic_boundary,
    new_potential,
    solve_bvp,
    solve_bvp_shooting,
    tabulated_boundary,
)

BARRIER_COEFFS = (20.0, 20.0)
PERIOD = 1.0
M_CHANNELS = 40


def make_system(Nx: int, coeffs=BARRIER_COEFFS, i0: int = 0):
    """Flagship system on an Nx-cell mesh (optionally different coeffs)."""
    pot = new_potential(PERIOD, list(coeffs))
    grid = build_velocity_grid(pot.kappa, 0.5 * pot.kappa, M_CHANNELS, True)
    mesh = build_mesh(PERIOD, Nx)
    boundary = mono_energetic_boundary(grid, i0)
    return build_system(pot, grid, mesh, boundary)


def random_system(rng, max_harmonics: int, max_M: int, off_half=(0.05, 0.95)):
    """Random even potential, grid, even mesh (Nx 10-400) and two-sided inflow.

    Up to ``max_harmonics`` coefficients are drawn up to the flagship
    barrier's amplitude of 20, M from 6 to ``max_M``, and the shift is
    kappa/2 or drawn from ``off_half`` (fractions of kappa).
    """
    coeffs = rng.uniform(-20.0, 20.0, int(rng.integers(2, max_harmonics + 2)))
    pot = new_potential(1.0, coeffs)
    s = pot.kappa * (0.5 if rng.random() < 0.5 else rng.uniform(*off_half))
    grid = build_velocity_grid(pot.kappa, s, int(rng.integers(6, max_M + 1)), True)
    mesh = build_mesh(1.0, 2 * int(rng.integers(5, 201)))
    v = grid.velocities
    inflow = [*rng.choice(grid.indices[v > 0], 2, replace=False),
              *rng.choice(grid.indices[v < 0], 2, replace=False)]
    table = {int(i): float(rng.uniform(0.1, 1.0)) for i in inflow}
    return build_system(pot, grid, mesh, tabulated_boundary(grid, table))


def census_systems():
    """The census of hard systems: 243 (name, system) pairs, in a fixed order.

    33 barriers: the flagship with coeffs = 0, a for a in {20, 40, 60, 80,
    100, 150, 200, 300, 1000, 3000, 10000} at Nx 100, 400 and 1600, named
    "0,a@Nx".  Then 150 draws of ``random_system(default_rng(123), 4, 30)``
    and 60 of ``random_system(default_rng(99), 12, 8)``, each from its own
    generator in draw order.  Draw i of seed 123 is named "r123#i" and has
    every cosine coefficient, a_0 included, multiplied by
    (1, 3, 6, 10)[i % 4]; draw i of seed 99 is named "r99#i" and scaled by
    (1, 3, 10)[i % 3].  The scaled draw keeps its grid, mesh and inflow data.
    """
    systems = [(f"0,{a}@{Nx}", make_system(Nx, coeffs=(0.0, float(a))))
               for a in (20, 40, 60, 80, 100, 150, 200, 300, 1000, 3000, 10000) for Nx in (100, 400, 1600)]
    for seed, draws, max_harmonics, max_M, scales in ((123, 150, 4, 30, (1, 3, 6, 10)), (99, 60, 12, 8, (1, 3, 10))):
        rng = np.random.default_rng(seed)
        for i in range(draws):
            system = random_system(rng, max_harmonics, max_M)
            potential = new_potential(system.potential.period_l, scales[i % len(scales)] * system.potential.coeffs)
            systems.append((f"r{seed}#{i}", dataclasses.replace(system, potential=potential)))
    return systems


@pytest.fixture(scope="session")
def solution_cache():
    """Maps (scheme, Nx, coeffs) to a solved DiscreteSolution."""
    cache = {}

    def get(scheme: str, Nx: int, coeffs=BARRIER_COEFFS):
        key = (scheme, Nx, tuple(coeffs))
        if key not in cache:
            system = make_system(Nx, coeffs)
            if scheme == "oracle":
                cache[key] = solve_bvp_shooting(system)
            else:
                cache[key] = solve_bvp(system, scheme)
        return cache[key]

    return get


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20260817)
