"""Acceptance suite: ten criteria for the flagship barrier configuration.

Each test prints one summary line (visible with -s) and passes or fails
on the stated tolerance.  One criterion is marked xfail(strict=True)
because the computed behavior genuinely contradicts it; the reason
documents the measured fact, and a surprise pass would itself fail.
"""

import math

import numpy as np
import pytest

from wignerdv import (
    Scheme,
    convergence_study,
    current,
    density,
    propagator_matrix,
    solve_bvp,
    solve_bvp_shooting,
    symmetry_error,
)
from wignerdv.verify import check_coupling_bound

from conftest import make_system


def _inf_norm(M):
    return float(np.abs(M).sum(axis=1).max())


@pytest.fixture(scope="module")
def upwind1_study():
    return convergence_study(make_system(100), "upwind1", [100, 400, 1600, 6400, 25600])


@pytest.fixture(scope="module")
def upwind2_study():
    return convergence_study(make_system(100), "upwind2", [100, 400, 1600])


def test_criterion_01_upwind1_symmetry_error_row(upwind1_study):
    targets = {100: 1.03, 400: 0.7666, 1600: 0.4185, 6400: 0.1502, 25600: 0.0422}
    total_runtime = 0.0
    for row in upwind1_study.rows:
        target = targets[row.Nx]
        assert not math.isnan(row.symmetry_error), f"solve failed at Nx={row.Nx}"
        assert abs(row.symmetry_error - target) <= 0.10 * target, (
            f"Nx={row.Nx}: {row.symmetry_error} vs {target}"
        )
        total_runtime += row.runtime_s
    assert total_runtime < 600.0
    print(
        "criterion 1 PASS: upwind1 symmetry errors "
        + ", ".join(f"{r.Nx}:{r.symmetry_error:.4g}" for r in upwind1_study.rows)
        + f" (total {total_runtime:.1f}s)"
    )


def test_criterion_02_upwind2_symmetry_error_row(upwind2_study):
    targets = {100: (0.0462, 0.10), 400: (7.446e-4, 0.10), 1600: (1.151e-5, 0.50)}
    for row in upwind2_study.rows:
        target, tol = targets[row.Nx]
        assert not math.isnan(row.symmetry_error), f"solve failed at Nx={row.Nx}"
        assert abs(row.symmetry_error - target) <= tol * target, (
            f"Nx={row.Nx}: {row.symmetry_error} vs {target}"
        )
    print(
        "criterion 2 PASS: upwind2 symmetry errors "
        + ", ".join(f"{r.Nx}:{r.symmetry_error:.4g}" for r in upwind2_study.rows)
    )


def test_criterion_03_central_symmetry_floor(solution_cache):
    e = symmetry_error(solution_cache("central", 100))
    assert e <= 1e-10
    print(f"criterion 3 PASS: central Nx=100 symmetry error {e:.3g} <= 1e-10")


@pytest.mark.xfail(
    strict=True,
    reason=(
        "part (b) is unattainable: the converged density dips below zero on "
        "the right half (min about -0.217 near x = 0.21, stable under mesh "
        "refinement and across schemes), so strict positivity there never "
        "holds; parts (a) and (c) pass and are also covered in test_analysis"
    ),
)
def test_criterion_04_solution_shape_checks(solution_cache):
    sol = solution_cache("central", 100)
    grid = sol.system.grid
    mesh = sol.system.mesh
    # (a) the distribution goes negative somewhere
    assert sol.values.min() < 0.0
    # (c) channels faster than the injected one carry weight
    v0 = grid.velocities[grid.position_of(0)]
    assert np.abs(sol.values[np.abs(grid.velocities) > v0]).max() > 1e-6
    # (b) density strictly positive on the right half
    n = density(sol)
    right = n[mesh.Nx // 2 + 1 :]
    assert np.all(right > 0.0), f"density min on right half: {right.min()}"
    print("criterion 4 PASS")


def test_criterion_05_propagation_mirror_symmetry():
    system = make_system(4)
    worst = 0.0
    for x in (0.05, 0.15, 0.25, 0.45):
        Pp = propagator_matrix(system, 0.0, x)
        Pm = propagator_matrix(system, 0.0, -x)
        worst = max(worst, _inf_norm(Pp - Pm))
    assert worst <= 1e-8
    print(f"criterion 5 PASS: propagation mirror mismatch {worst:.3g} <= 1e-8")


def test_criterion_06_propagator_inversion(rng):
    system = make_system(4)
    m = system.grid.size
    eye = np.eye(m)
    worst = 0.0
    for _ in range(3):
        length = rng.uniform(0.05, 0.5)
        a = rng.uniform(-0.5, 0.5 - length)
        b = a + length
        F = propagator_matrix(system, a, b)
        B = propagator_matrix(system, b, a)
        worst = max(worst, _inf_norm(B @ F - eye))
    assert worst <= 1e-8
    print(f"criterion 6 PASS: inversion defect {worst:.3g} <= 1e-8")


def test_criterion_07_oracle_cross_validation(solution_cache):
    rels = {}
    for nx in (1600, 3200):
        oracle = solution_cache("oracle", nx)
        central = solution_cache("central", nx)
        dx = oracle.system.mesh.dx
        mass = float(np.abs(oracle.values).sum() * dx)
        diff = float(np.abs(oracle.values - central.values).sum() * dx)
        rels[nx] = diff / mass
    assert rels[1600] <= 1e-3
    assert rels[3200] < rels[1600]
    print(
        f"criterion 7 PASS: oracle vs central relative L1 {rels[1600]:.3g} at Nx=1600, "
        f"{rels[3200]:.3g} at Nx=3200"
    )


def test_criterion_08_coupling_norm_bound(rng):
    system = make_system(4)
    result = check_coupling_bound(system, rng)
    assert result.passed, result.detail
    print(f"criterion 8 PASS: {result.detail}")


def test_criterion_09_free_streaming_invariant():
    system = make_system(100, coeffs=(0.0,))
    row = system.grid.position_of(0)
    worst = 0.0
    for scheme in Scheme:
        sol = solve_bvp(system, scheme)
        worst = max(worst, float(np.abs(sol.values[row] - 1.0).max()))
    sol = solve_bvp_shooting(system)
    worst = max(worst, float(np.abs(sol.values[row] - 1.0).max()))
    assert worst < 1e-12
    print(f"criterion 9 PASS: free-streaming deviation {worst:.3g} < 1e-12")


def test_criterion_10_current_conservation_refinement(solution_cache):
    devs = {}
    for scheme in ("upwind2", "central"):
        devs[scheme] = []
        for nx in (100, 400, 1600):
            J = current(solution_cache(scheme, nx))
            devs[scheme].append(float(np.abs(J - J[0]).max() / abs(J[0])))
    # central conserves the current to roundoff on every mesh, so its
    # deviations are noise with no refinement trend; upwind2 converges
    assert max(devs["central"]) <= 1e-12, devs["central"]
    up = devs["upwind2"]
    assert up[0] > up[1] > up[2], up
    print(
        "criterion 10 PASS: upwind2 current deviation "
        + ", ".join(f"{d:.3g}" for d in up)
        + f"; central at most {max(devs['central']):.3g}"
    )
