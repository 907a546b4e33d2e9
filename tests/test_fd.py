"""Assembly, residuals, solver dispatch and scheme behavior."""

import dataclasses
import tracemalloc

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from wignerdv import (
    Scheme,
    SolverError,
    apply_coupling,
    assemble,
    build_mesh,
    build_system,
    build_velocity_grid,
    new_potential,
    residual_norm,
    solve_bvp,
    symmetry_error,
    tabulated_boundary,
)
from wignerdv import fd
from wignerdv.potential import _sine_table

from conftest import make_system


def test_scheme_enum_round_trip():
    assert Scheme("upwind1") is Scheme.UPWIND1
    assert Scheme("upwind2") is Scheme.UPWIND2
    assert Scheme("central") is Scheme.CENTRAL
    with pytest.raises(ValueError):
        Scheme("simpson")


def test_sin_tables_are_odd_to_the_bit():
    system = make_system(10)
    sv = _sine_table(system.potential, system.mesh.nodes)
    assert sv.shape == (1, 11)
    for j in range(11):
        assert sv[0, 10 - j] == -sv[0, j]
    assert sv[0, 5] == 0.0
    # any mirrored points, several harmonics
    xs = np.random.default_rng(17).uniform(-3.0, 3.0, 200)
    p = new_potential(1.0, [0.0, 1.0, 2.0, 3.0])
    assert np.array_equal(_sine_table(p, -xs), -_sine_table(p, xs))


def test_assemble_counts_unknowns():
    system = make_system(10)
    m = system.grid.size
    problem = assemble(system, Scheme.UPWIND1)
    # one pinned entry per channel leaves m * Nx unknowns
    assert problem.matrix.shape == (m * 10, m * 10)
    assert problem.rhs.shape == (m * 10,)
    assert int(problem.free.sum()) == m * 10
    assert problem.free.size == m * 11


def test_assemble_rows_match_apply_coupling():
    """An interior equation must use exactly the operator apply_coupling applies.

    Build the full dense residual of a manufactured field under the
    upwind1 stencil and compare row blocks against direct evaluation.
    """
    system = make_system(8)
    m = system.grid.size
    mesh = system.mesh
    v = system.grid.velocities
    problem = assemble(system, Scheme.UPWIND1)
    rng = np.random.default_rng(5)
    F = rng.standard_normal((m, mesh.Nx + 1))
    # impose the pinned values so the reduced system sees a consistent field
    bvals = system.boundary.values
    F[v > 0, 0] = bvals[v > 0]
    F[v < 0, mesh.Nx] = bvals[v < 0]
    flat = F.T.ravel()
    resid = problem.matrix @ flat[problem.free] - problem.rhs
    # reconstruct the same residual channel-wise from the stencil definition
    scale = mesh.dx / np.abs(v)
    expected = []
    for j in range(mesh.Nx + 1):
        g = apply_coupling(system.potential, float(mesh.nodes[j]), F[:, j])
        for k in range(m):
            if v[k] > 0 and j >= 1:
                expected.append(scale[k] * (v[k] * (F[k, j] - F[k, j - 1]) / mesh.dx - g[k]))
            elif v[k] < 0 and j <= mesh.Nx - 1:
                expected.append(scale[k] * (v[k] * (F[k, j + 1] - F[k, j]) / mesh.dx - g[k]))
    # expected is ordered (j, k) with pinned rows skipped, same as the matrix
    assert resid == pytest.approx(np.array(expected), abs=1e-12)


def test_residual_norm_examples():
    system = make_system(4)
    problem = assemble(system, Scheme.UPWIND1)
    x = np.zeros(problem.rhs.size)
    # zero candidate against nonzero rhs gives exactly 1
    assert residual_norm(problem, x) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        residual_norm(problem, np.zeros(3))


def test_solve_bvp_rejects_bad_rel_tol():
    system = make_system(4)
    for bad in (0.0, -1e-12, 1e-5, 1.0):
        with pytest.raises(ValueError):
            solve_bvp(system, Scheme.CENTRAL, rel_tol=bad)


def test_zero_boundary_short_circuits():
    system = make_system(6)
    zero_bnd = tabulated_boundary(system.grid, {0: 0.0})
    from dataclasses import replace

    zsys = replace(system, boundary=zero_bnd)
    sol = solve_bvp(zsys, Scheme.UPWIND2)
    assert np.all(sol.values == 0.0)
    assert sol.residual == 0.0


def test_boundary_entries_are_bit_exact():
    system = make_system(20)
    v = system.grid.velocities
    for scheme in Scheme:
        sol = solve_bvp(system, scheme)
        assert np.all(sol.values[v > 0, 0] == system.boundary.values[v > 0])
        assert np.all(sol.values[v < 0, -1] == system.boundary.values[v < 0])


def test_solution_metadata():
    system = make_system(10)
    sol = solve_bvp(system, "central")
    assert sol.scheme == "central"
    assert sol.values.shape == (system.grid.size, 11)
    assert sol.residual <= 1e-12
    assert sol.system is system


def test_block_path_matches_direct_path():
    rng = np.random.default_rng(23)
    for scheme in Scheme:
        problem = assemble(make_system(60), scheme)
        lu = spla.splu(problem.matrix.tocsc())
        # the assembled right-hand side, then a generic one as refinement sees
        for rhs in (problem.rhs, rng.standard_normal(problem.rhs.size)):
            direct = lu.solve(rhs)
            swept = fd._block_sweep(problem, rhs)
            assert np.abs(direct - swept).max() < 1e-11 * np.abs(direct).max()


def _zero_node_block(problem, node, value=0.0):
    """Copy of problem with the node's own block of the matrix set to value."""
    counts = problem.free.reshape(problem.n_nodes, problem.n_velocities).sum(axis=1)
    a, b = np.concatenate([[0], np.cumsum(counts)])[node:node + 2]
    matrix = problem.matrix.copy()
    for row in range(a, b):
        span = slice(matrix.indptr[row], matrix.indptr[row + 1])
        cols = matrix.indices[span]
        matrix.data[span][(cols >= a) & (cols < b)] = value
    return dataclasses.replace(problem, matrix=matrix)


@pytest.mark.filterwarnings("error::scipy.linalg.LinAlgWarning")
def test_block_sweep_names_a_singular_node_block():
    for scheme, where in ((Scheme.UPWIND1, "mesh node 3:"), (Scheme.UPWIND2, "mesh nodes 2-3:")):
        problem = _zero_node_block(assemble(make_system(10), scheme), 3)
        with pytest.raises(SolverError, match="singular") as info:
            fd._block_sweep(problem, problem.rhs)
        assert where in str(info.value)
        assert "zero pivot" in str(info.value)


def test_block_sweep_rejects_a_non_finite_block():
    problem = _zero_node_block(assemble(make_system(10), Scheme.UPWIND1), 4, np.nan)
    with pytest.raises(SolverError, match="mesh node 4: the block is not finite"):
        fd._block_sweep(problem, problem.rhs)


def test_block_sweep_carries_half_rank():
    # a dense velocity-by-velocity carry per node alone would take
    # n_nodes * m^2 doubles; the half-rank carry takes about half of that
    problem = assemble(make_system(800), Scheme.UPWIND1)
    tracemalloc.start()
    try:
        fd._block_sweep(problem, problem.rhs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.65 * problem.n_nodes * problem.n_velocities ** 2 * 8


def test_solve_bvp_sweeps_above_direct_limit(monkeypatch):
    system = make_system(20)
    direct = {scheme: solve_bvp(system, scheme) for scheme in Scheme}
    monkeypatch.setattr(fd, "_DIRECT_LIMIT", 0)
    for scheme in Scheme:
        swept = solve_bvp(system, scheme)
        assert swept.residual <= 1e-12
        assert np.abs(direct[scheme].values - swept.values).max() < 1e-11


def _random_central_system(rng):
    """Random even potential (1-4 harmonics), grid, even mesh and two-sided inflow.

    Coefficients are drawn up to the flagship barrier's amplitude of 20;
    the shift is kappa/2 or off-half.
    """
    coeffs = rng.uniform(-20.0, 20.0, int(rng.integers(2, 6)))
    pot = new_potential(1.0, coeffs)
    s = pot.kappa * (0.5 if rng.random() < 0.5 else rng.uniform(0.05, 0.95))
    grid = build_velocity_grid(pot.kappa, s, int(rng.integers(6, 31)), True)
    mesh = build_mesh(1.0, 2 * int(rng.integers(5, 201)))
    v = grid.velocities
    inflow = [*rng.choice(grid.indices[v > 0], 2, replace=False),
              *rng.choice(grid.indices[v < 0], 2, replace=False)]
    table = {int(i): float(rng.uniform(0.1, 1.0)) for i in inflow}
    return build_system(pot, grid, mesh, tabulated_boundary(grid, table))


def test_central_march_period_map_is_identity_over_random_inputs():
    rng = np.random.default_rng(3101)
    for _ in range(12):
        system = _random_central_system(rng)
        problem = assemble(system, Scheme.CENTRAL)
        field = fd._central_march(system)
        x = field.ravel()[problem.free]
        assert residual_norm(problem, x) <= 1e-12
        direct = spla.splu(problem.matrix.tocsc()).solve(problem.rhs)
        assert np.abs(x - direct).max() <= 1e-11 * np.abs(direct).max()
        assert symmetry_error(solve_bvp(system, Scheme.CENTRAL)) <= 1e-12
        # marching the period from the inflow data of both ends comes back
        # to the right-end inflow: the discrete period map is the identity
        b = system.boundary.values
        neg = system.grid.velocities < 0
        assert np.abs(field[-1, neg] - b[neg]).max() <= 1e-12 * np.abs(b).max()


def test_central_falls_back_when_march_misses_gate(monkeypatch):
    system = make_system(20)
    problem = assemble(system, Scheme.CENTRAL)
    direct = spla.splu(problem.matrix.tocsc()).solve(problem.rhs)
    swept = fd._block_sweep(problem, problem.rhs)
    march = fd._central_march
    sweep = fd._block_sweep
    sweeps = []

    def counted_sweep(*args):
        sweeps.append(args)
        return sweep(*args)

    monkeypatch.setattr(fd, "_central_march", lambda s: march(s) + 1e-6)
    monkeypatch.setattr(fd, "_block_sweep", counted_sweep)

    def reduced(sol):
        assert sol.residual <= 1e-12
        return sol.values.T.ravel()[problem.free]

    # SuperLU below the cutoff, the block sweep above it
    x = reduced(solve_bvp(system, Scheme.CENTRAL))
    assert not sweeps
    assert np.abs(x - direct).max() <= 1e-13 * np.abs(direct).max()
    monkeypatch.setattr(fd, "_DIRECT_LIMIT", 0)
    x = reduced(solve_bvp(system, Scheme.CENTRAL))
    assert len(sweeps) == 1
    assert np.abs(x - swept).max() <= 1e-13 * np.abs(swept).max()


def test_central_gate_failure_names_march_and_global_residuals():
    # a barrier this high grows the field by about 1e7 across the period
    with pytest.raises(SolverError) as info:
        solve_bvp(make_system(1600, coeffs=(0.0, 300.0)), Scheme.CENTRAL)
    message = str(info.value)
    assert "central march residual" in message
    assert "solver residual" in message
    assert info.value.residual > 1e-12


def test_large_central_solve_marches_without_global_solver(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("central fell back to a global solve")

    monkeypatch.setattr(fd, "_block_sweep", refuse)
    monkeypatch.setattr(fd.spla, "splu", refuse)
    system = make_system(12800)
    # m * Nx unknowns: above the cutoff, where the fallback would sweep
    assert system.grid.size * system.mesh.Nx > fd._DIRECT_LIMIT
    sol = solve_bvp(system, Scheme.CENTRAL)
    assert sol.residual <= 1e-12


def test_central_march_names_a_singular_cell():
    # a resting channel without coupling makes every cell matrix singular
    system = make_system(10, coeffs=(0.0,))
    v = system.grid.velocities.copy()
    v[3] = 0.0
    system = dataclasses.replace(system, grid=dataclasses.replace(system.grid, velocities=v))
    with pytest.raises(SolverError, match="central march: cell 1 matrix is singular"):
        fd._central_march(system)


def test_free_streaming_is_exact_for_all_schemes():
    system = make_system(16, coeffs=(0.0,))
    expected = system.boundary.values[:, None] * np.ones(17)
    for scheme in Scheme:
        sol = solve_bvp(system, scheme)
        assert np.abs(sol.values - expected).max() < 1e-12


def test_central_scheme_is_mirror_symmetric():
    sol = solve_bvp(make_system(40), Scheme.CENTRAL)
    assert symmetry_error(sol) < 1e-10


def test_upwind_schemes_converge_toward_symmetry():
    e_coarse = symmetry_error(solve_bvp(make_system(100), Scheme.UPWIND2))
    e_fine = symmetry_error(solve_bvp(make_system(400), Scheme.UPWIND2))
    assert e_fine < e_coarse


def test_two_sided_injection_solves():
    system = make_system(30)
    bnd = tabulated_boundary(system.grid, {0: 0.5, -1: 0.5})
    from dataclasses import replace

    sol = solve_bvp(replace(system, boundary=bnd), Scheme.CENTRAL)
    v = system.grid.velocities
    assert sol.values[v > 0, 0].sum() == pytest.approx(0.5)
    assert sol.values[v < 0, -1].sum() == pytest.approx(0.5)
