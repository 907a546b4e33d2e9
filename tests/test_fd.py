"""Assembly, residuals, solver dispatch and scheme behavior."""

import dataclasses
import re
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
    solve_bvp_shooting,
    symmetry_error,
    tabulated_boundary,
)
from wignerdv import fd
from wignerdv.potential import _sine_table

from conftest import make_system, random_system


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


def _equations(system, scheme, F):
    """assemble's equations on the node-major field F, written out from apply_coupling.

    Rows of v > 0 difference toward -l/2 on nodes 1..Nx and rows of v < 0
    toward +l/2 on nodes 0..Nx-1; upwind2 is first order where its second
    node back leaves the mesh.  Each equation is scaled by dx / |v|.
    Returns them in (node, velocity) order with the pinned entries left out.
    """
    v = system.grid.velocities
    dx = system.mesh.dx
    Nx = system.mesh.Nx
    G = np.array([apply_coupling(system.potential, float(x), f) for x, f in zip(system.mesh.nodes, F)])
    R = np.full(F.shape, np.nan)
    for sign, K in ((1, v > 0), (-1, v < 0)):
        for j in range(Nx + 1):
            back, back2 = j - sign, j - 2 * sign
            if not 0 <= back <= Nx:
                continue
            if scheme is Scheme.UPWIND2 and 0 <= back2 <= Nx:
                fx = sign * (1.5 * F[j, K] - 2.0 * F[back, K] + 0.5 * F[back2, K]) / dx
            else:
                fx = sign * (F[j, K] - F[back, K]) / dx
            coupling = 0.5 * (G[j, K] + G[back, K]) if scheme is Scheme.CENTRAL else G[j, K]
            R[j, K] = dx / np.abs(v[K]) * (v[K] * fx - coupling)
    return R[~np.isnan(R)]


def test_assemble_rows_match_apply_coupling():
    """Every equation must use exactly the operator apply_coupling applies.

    The residual of a random field through the assembled matrix against the
    equations written out per scheme, on the flagship and on seeded random
    systems with several harmonics and off-half shifts, so upwind2's
    second-order legs and fallback node and central's two coupling legs
    are all covered.
    """
    rng = np.random.default_rng(13)
    systems = [make_system(8)] + [random_system(rng, max_harmonics=4, max_M=12) for _ in range(6)]
    assert any(s.potential.coeffs.size > 3 and s.grid.s != 0.5 * s.grid.kappa for s in systems)
    for system in systems:
        F = rng.standard_normal((system.mesh.Nx + 1, system.grid.size))
        for scheme in Scheme:
            problem = assemble(system, scheme)
            # the pinned values, so the reduced system sees a consistent field
            F = np.where(problem.pinned, problem.pinval, F)
            resid = problem.matrix @ F.ravel()[problem.free] - problem.rhs
            expected = _equations(system, scheme, F)
            assert resid.shape == expected.shape
            assert np.abs(resid - expected).max() <= 1e-12


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
    # no special case: every solver path yields the zero field exactly
    for scheme in Scheme:
        sol = solve_bvp(zsys, scheme)
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


def _small_system(rng, Nx=12):
    """Random system on four channels with four harmonics, so nmax >= m - 1."""
    pot = new_potential(1.0, rng.uniform(-20.0, 20.0, 5))
    grid = build_velocity_grid(pot.kappa, 0.5 * pot.kappa, 2, True)
    v = grid.velocities
    assert grid.size == 4
    table = {int(grid.indices[v > 0][0]): 1.0, int(grid.indices[v < 0][-1]): 0.5}
    return build_system(pot, grid, build_mesh(1.0, Nx), tabulated_boundary(grid, table))


def _sample_systems(rng):
    """Flagship meshes from the smallest, random systems and small-M systems."""
    systems = [make_system(Nx) for Nx in (2, 4, 6, 60)]
    systems += [random_system(rng, max_harmonics=4, max_M=30) for _ in range(6)]
    return systems + [_small_system(rng, Nx) for Nx in (4, 12)]


def _cut_blocks(problem, edges):
    """The assembled matrix cut at the field's block edges: (block, rhs, coupled rows).

    ``block`` holds the free rows of block t over the free columns of the
    blocks beside it and ``rhs`` the same rows of the assembled rhs.  The
    coupled rows count from the block's first field entry.  Each block's
    rows must have no entry outside the columns of the blocks beside it.
    """
    matrix = problem.matrix
    unknowns = np.flatnonzero(problem.free)           # field entry of each unknown
    cuts = np.searchsorted(unknowns, edges)
    cut = []
    for t in range(edges.size - 1):
        a, b = cuts[t], cuts[t + 1]
        lo, hi = cuts[max(t - 1, 0)], cuts[min(t + 2, edges.size - 1)]
        rows = matrix[a:b]
        assert rows.nnz == rows[:, lo:hi].nnz
        lower = np.repeat(np.arange(a, b), np.diff(rows.indptr))[rows.indices < a]
        cut.append((rows[:, lo:hi].toarray(), problem.rhs[a:b], unknowns[np.unique(lower)] - edges[t]))
    return cut


def test_node_blocks_match_the_assembled_matrix():
    # the blocks written from the diagonals, over the free rows and columns,
    # are the blocks of the assembled system to the bit, on every scheme;
    # pinned rows are identity rows, and the pinned columns give the
    # assembled rhs.  L_t holds the rows with entries before the block, and
    # J_t every column of block t + 1 that U_t has an entry in: the same
    # columns for every block, cut to the size of the last.  Nx + 1 nodes
    # always leave upwind2 an unpaired last node
    rng = np.random.default_rng(29)
    eps = np.finfo(float).eps
    for system in _sample_systems(rng):
        m = system.grid.size
        for scheme in Scheme:
            problem = assemble(system, scheme)
            edges, widths, blocks = fd._node_blocks(problem)
            blocks = list(blocks)
            cut = _cut_blocks(problem, edges)
            assert len(blocks) == len(cut)
            free, pinval = problem.free, problem.pinval.ravel()
            carried, read = [], set()
            for t, ((block, coupled, J), (cut_block, cut_rhs, cut_coupled)) in enumerate(zip(blocks, cut)):
                a, b = edges[t], edges[t + 1]
                lo, hi = edges[max(t - 1, 0)], edges[min(t + 2, len(blocks))]
                rows, cols = free[a:b], free[lo:hi]
                assert np.array_equal(block[rows][:, cols], cut_block)
                assert np.array_equal(block[~rows], np.eye(hi - lo)[a - lo:b - lo][~rows])
                # the rhs sums the same products, in another order
                terms = -block[rows][:, ~cols] * pinval[lo:hi][~cols]
                bound = 2 * (~cols).sum() * eps * np.abs(terms).sum(axis=1)
                assert np.all(np.abs(terms.sum(axis=1) - cut_rhs) <= bound)
                pinned_before = block[:, :a - lo][:, ~free[lo:a]].any(axis=1)
                expected = np.union1d(cut_coupled, np.flatnonzero(pinned_before))
                assert np.array_equal(np.arange(b - a)[coupled], expected)
                if J is None:
                    assert t == len(blocks) - 1
                    continue
                J = np.arange(hi - b)[J]
                touched = np.flatnonzero(block[:, b - lo:].any(axis=0))
                assert np.isin(touched, J).all()
                carried.append(J)
                read.update(touched)
            read = np.array(sorted(read))
            for t, J in enumerate(carried):
                assert np.array_equal(J, read[read < edges[t + 2] - edges[t + 1]])
            assert np.array_equal(widths, [J.size for J in carried])
            reach = 2 if scheme is Scheme.UPWIND2 else 1
            assert np.all(np.diff(edges)[:-1] == reach * m)
            if scheme is Scheme.UPWIND2:
                assert edges[-1] - edges[-2] == m


def test_block_path_matches_direct_path():
    # the sweep is the only global solver, so it is checked against SuperLU
    # from the smallest meshes up, on seeded random systems and on systems
    # with more harmonics than channels
    rng = np.random.default_rng(23)
    for system in _sample_systems(rng):
        for scheme in Scheme:
            problem = assemble(system, scheme)
            lu = spla.splu(problem.matrix.tocsc())
            # the inflow data, then a generic rhs on the free entries as
            # refinement sees
            generic = np.zeros(problem.pinned.shape)
            generic[~problem.pinned] = rng.standard_normal(problem.rhs.size)
            for rhs, pinned in ((None, problem.pinval), (generic, 0.0 * generic)):
                direct = lu.solve(problem.rhs if rhs is None else rhs[~problem.pinned])
                swept = fd._block_sweep(problem, rhs)
                assert np.abs(direct - swept[~problem.pinned]).max() < 1e-11 * np.abs(direct).max()
                pin_gap = np.abs(swept - pinned)[problem.pinned].max()
                assert pin_gap < 1e-11 * np.abs(direct).max()


def _zero_node_block(monkeypatch, node, value=0.0):
    """Make the sweep see the node's own block of the matrix set to value."""
    node_blocks = fd._node_blocks

    def altered(op):
        edges, widths, blocks = node_blocks(op)
        m = op.system.grid.size
        a, b = node * m, (node + 1) * m

        def patched():
            for t, (block, *rest) in enumerate(blocks):
                if edges[t] <= a < edges[t + 1]:
                    lo = edges[max(t - 1, 0)]
                    block[a - edges[t]:b - edges[t], a - lo:b - lo] = value
                yield block, *rest

        return edges, widths, patched()

    monkeypatch.setattr(fd, "_node_blocks", altered)


@pytest.mark.filterwarnings("error::scipy.linalg.LinAlgWarning")
def test_block_sweep_names_a_singular_node_block(monkeypatch):
    # the previous node's carry fills the v < 0 columns, so the first zero
    # pivot is the first v > 0 channel of node 3
    for scheme, where, pivot in ((Scheme.UPWIND1, "mesh node 3:", "41 of 80"),
                                 (Scheme.UPWIND2, "mesh nodes 2-3:", "121 of 160")):
        op = assemble(make_system(10), scheme)
        with monkeypatch.context() as patch:
            _zero_node_block(patch, 3)
            with pytest.raises(SolverError, match="singular") as info:
                fd._block_sweep(op)
        assert where in str(info.value)
        assert f"zero pivot {pivot} (node 3, velocity index 40)" in str(info.value)


def test_block_sweep_rejects_a_non_finite_block(monkeypatch):
    op = assemble(make_system(10), Scheme.UPWIND1)
    _zero_node_block(monkeypatch, 4, np.nan)
    with pytest.raises(SolverError, match="mesh node 4: the block is not finite"):
        fd._block_sweep(op)


def test_block_sweep_carries_half_rank():
    # a dense velocity-by-velocity carry per node alone would take
    # n_nodes * m^2 doubles; the half-rank carry takes about half of that
    system = make_system(800)
    op = assemble(system, Scheme.UPWIND1)
    tracemalloc.start()
    try:
        fd._block_sweep(op)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.65 * (system.mesh.Nx + 1) * system.grid.size ** 2 * 8


def test_solve_bvp_never_calls_superlu(monkeypatch):
    # SuperLU is a test-side reference only: solve_bvp never calls it
    system = make_system(20)
    direct = {}
    for scheme in Scheme:
        problem = assemble(system, scheme)
        direct[scheme] = spla.splu(problem.matrix.tocsc()).solve(problem.rhs)

    def refuse(*args, **kwargs):
        raise AssertionError("solve_bvp called SuperLU")

    monkeypatch.setattr(spla, "splu", refuse)
    for scheme in Scheme:
        sol = solve_bvp(system, scheme)
        assert sol.residual <= 1e-12
        x = sol.values.T.ravel()[assemble(system, scheme).free]
        assert np.abs(x - direct[scheme]).max() < 1e-11


def test_solve_bvp_never_assembles(monkeypatch):
    # the gate and the sweep work from the stencil: no solve path builds
    # the problem's sparse matrix, the central march's fallback included
    system = make_system(20)
    expected = {scheme: solve_bvp(system, scheme).values for scheme in Scheme}

    def refuse(*args, **kwargs):
        raise AssertionError("solve_bvp assembled the matrix")

    monkeypatch.setattr(fd, "_assemble_csr", refuse)
    for scheme in Scheme:
        sol = solve_bvp(system, scheme)
        assert sol.residual <= 1e-12
        assert np.array_equal(sol.values, expected[scheme])
    march = fd._central_march
    sweeps = []
    sweep = fd._block_sweep
    monkeypatch.setattr(fd, "_central_march", lambda *args: march(*args) + 1e-6)
    monkeypatch.setattr(fd, "_block_sweep", lambda *args: sweeps.append(args) or sweep(*args))
    sol = solve_bvp(system, Scheme.CENTRAL)
    assert sol.residual <= 1e-12 and len(sweeps) == 1
    assert np.abs(sol.values - expected[Scheme.CENTRAL]).max() <= 1e-11


def test_gate_matches_the_assembled_residual():
    # the matrix-free gate against residual_norm(assemble(...)); both
    # relative to |b|, from R(F_pin) here and from the assembled rhs there.
    # Worst seen on these systems: 5.4e-16 relative on random fields and
    # 4.7e-15 apart on solved ones
    rng = np.random.default_rng(31)
    for system in [random_system(rng, max_harmonics=4, max_M=30) for _ in range(8)] + [_small_system(rng)]:
        for scheme in Scheme:
            op = assemble(system, scheme)
            problem = assemble(system, scheme)
            free = ~op.pinned
            assert op.rhs_norm == pytest.approx(np.linalg.norm(problem.rhs), rel=1e-14)
            # a random field, where the residual is O(1): the vectors agree to rounding
            x = rng.standard_normal(problem.rhs.size)
            field = op.pinval.copy()
            field[free] = x
            r, res = fd._gate(op, field)
            assert np.all(r[op.pinned] == 0.0)
            assert np.abs(r[free] - (problem.matrix @ x - problem.rhs)).max() <= 1e-14 * np.abs(r).max()
            assert res == pytest.approx(residual_norm(problem, x), rel=1e-14)
            # a solved field: both gates pass and agree to rounding
            sol = solve_bvp(system, scheme)
            x = sol.values.T[free]
            assert sol.residual == fd._gate(op, sol.values.T)[1]
            assert max(sol.residual, residual_norm(problem, x)) <= 1e-12
            assert abs(sol.residual - residual_norm(problem, x)) <= 5e-14


def test_refinement_keeps_the_better_iterate(monkeypatch):
    op = assemble(make_system(20), Scheme.UPWIND1)
    sweep = fd._block_sweep
    first = np.where(op.pinned, op.pinval, sweep(op) + 1e-9)
    first_res = fd._gate(op, first)[1]
    assert first_res > 1e-12
    # a correction ten times too long makes the residual worse and is
    # dropped; the true correction makes it better and is kept
    for scale, kept in ((10.0, False), (1.0, True)):
        calls = []

        def off_first(op, rhs=None):
            calls.append(rhs)
            return first.copy() if len(calls) == 1 else scale * sweep(op, rhs)

        monkeypatch.setattr(fd, "_block_sweep", off_first)
        x, res = fd._global_solve(op, 1e-12)
        assert len(calls) == 2
        # the refinement's rhs is the gate's residual field of the first iterate
        assert np.array_equal(calls[1], -fd._gate(op, first)[0])
        assert res == fd._gate(op, x)[1]
        if kept:
            assert res < 1e-12
        else:
            assert np.array_equal(x, first) and res == first_res


def test_central_march_period_map_is_identity_over_random_inputs():
    # the last six draws put up to 12 harmonics on at most 16 channels; a
    # harmonic n >= m/2 makes one diagonal of the whole-field matrix hold
    # entries of both nodes of a cell
    rng, wide = np.random.default_rng(3101), np.random.default_rng(5)
    systems = [random_system(rng, max_harmonics=4, max_M=30) for _ in range(12)]
    systems += [random_system(wide, max_harmonics=12, max_M=8) for _ in range(6)]
    assert any(len(s.potential.coeffs) - 1 >= s.grid.size / 2 for s in systems[12:])
    for system in systems:
        problem = assemble(system, Scheme.CENTRAL)
        field = fd._central_march(problem)
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
    swept = fd._block_sweep(assemble(system, Scheme.CENTRAL))
    march = fd._central_march
    sweep = fd._block_sweep
    sweeps = []

    def counted_sweep(*args):
        sweeps.append(args)
        return sweep(*args)

    monkeypatch.setattr(fd, "_central_march", lambda *args: march(*args) + 1e-6)
    monkeypatch.setattr(fd, "_block_sweep", counted_sweep)
    sol = solve_bvp(system, Scheme.CENTRAL)
    assert sol.residual <= 1e-12
    # exactly one sweep: the fallback passes the gate without refinement
    assert len(sweeps) == 1
    x = sol.values.T.ravel()[problem.free]
    swept = swept.ravel()[problem.free]
    assert np.abs(x - swept).max() <= 1e-13 * np.abs(swept).max()
    assert np.abs(x - direct).max() <= 1e-11 * np.abs(direct).max()


def test_central_gate_failure_names_march_and_global_residuals():
    # a barrier this high grows the field by about 1e7 across the period
    with pytest.raises(SolverError) as info:
        solve_bvp(make_system(1600, coeffs=(0.0, 300.0)), Scheme.CENTRAL)
    message = str(info.value)
    assert "central march residual" in message
    assert "solver residual" in message
    assert info.value.residual > 1e-12
    # the growth factor reads as conditioning, not as a bug
    growth = float(re.search(r"growth factor max\|f\| / max\|b\| = ([^;\s]+)", message)[1])
    assert growth > 1e5


def test_large_central_solve_marches_without_global_solver(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("central fell back to a global solve")

    monkeypatch.setattr(fd, "_global_solve", refuse)
    monkeypatch.setattr(fd, "_block_sweep", refuse)
    sol = solve_bvp(make_system(12800), Scheme.CENTRAL)
    assert sol.residual <= 1e-12


def test_global_solve_of_central_reflects_nothing_over_random_inputs():
    # unlike the march, the global solve does not start from the inflow
    # data, so f_{v<0}(-l/2) = b_right (the period map is the identity)
    # is a property of its solution, not of its start
    rng = np.random.default_rng(7)
    for _ in range(12):
        system = random_system(rng, max_harmonics=4, max_M=30)
        op = assemble(system, Scheme.CENTRAL)
        field, res = fd._global_solve(op, 1e-12)
        assert res <= 1e-12
        b = system.boundary.values
        neg = system.grid.velocities < 0
        assert np.abs(field[0, neg] - b[neg]).max() <= 1e-11 * np.abs(b).max()


def test_central_march_names_a_singular_cell():
    # a resting channel breaks the velocity grid's invariant: its rows of
    # the whole-field matrix are scaled by dx / |v| = inf
    system = make_system(10, coeffs=(0.0,))
    v = system.grid.velocities.copy()
    v[3] = 0.0
    system = dataclasses.replace(system, grid=dataclasses.replace(system.grid, velocities=v))
    with np.errstate(divide="ignore", invalid="ignore"):
        problem = assemble(system, Scheme.CENTRAL)
        with pytest.raises(SolverError, match="central march: cell 1 matrix is not finite"):
            fd._central_march(problem)


def test_central_march_names_a_zero_pivot(monkeypatch):
    # rows of node 3 set to zero: the v > 0 half of cell 3 is empty, so the
    # first v > 0 column of its band finds no pivot
    problem = assemble(make_system(10), Scheme.CENTRAL)
    diagonals = fd._diagonals

    def zero_node_rows(op, j0, j1):
        out = diagonals(op, j0, j1)
        if j0 <= 3 < j1:
            for coef in out.values():
                coef[3 - j0] = 0.0
        return out

    monkeypatch.setattr(fd, "_diagonals", zero_node_rows)
    with pytest.raises(SolverError, match="central march: cell 3 matrix is singular: zero pivot 41 of 80"):
        fd._central_march(problem)


def test_free_streaming_is_exact_for_all_schemes():
    system = make_system(16, coeffs=(0.0,))
    expected = system.boundary.values[:, None] * np.ones(17)
    for scheme in Scheme:
        sol = solve_bvp(system, scheme)
        assert np.abs(sol.values - expected).max() < 1e-12
    # random grids, meshes and two-sided inflow under a constant potential
    rng = np.random.default_rng(4)
    for _ in range(6):
        system = random_system(rng, max_harmonics=3, max_M=20)
        flat = new_potential(1.0, [float(system.potential.coeffs[0])])
        system = dataclasses.replace(system, potential=flat)
        expected = system.boundary.values[:, None]
        for sol in [solve_bvp(system, scheme) for scheme in Scheme] + [solve_bvp_shooting(system)]:
            assert np.abs(sol.values - expected).max() < 1e-12, sol.scheme


def test_central_current_balance_over_random_inputs():
    # the central cell equations summed over channels:
    # J_c - J_{c-1} = (dx/2) sum_k (A_c f_c + A_{c-1} f_{c-1})_k, exactly;
    # the sum is not zero because the channel window cuts the coupling off
    # at its edges, so a plain constant current fails on these systems
    rng = np.random.default_rng(11)
    for _ in range(12):
        system = random_system(rng, max_harmonics=4, max_M=30)
        op = assemble(system, Scheme.CENTRAL)
        swept, res = fd._global_solve(op, 1e-12)
        assert res <= 1e-12
        v = system.grid.velocities
        for field in (fd._central_march(op), swept):
            Af = np.array([apply_coupling(system.potential, xj, f) for xj, f in zip(system.mesh.nodes, field)])
            gain = 0.5 * system.mesh.dx * (Af[1:] + Af[:-1]).sum(axis=1)
            scale = np.abs(field * v).sum(axis=1).max()
            assert np.abs(np.diff(field @ v) - gain).max() <= 1e-13 * scale


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
