"""Assembly, residuals, solver dispatch and scheme behavior."""

import dataclasses
import math
import re
import tracemalloc
import warnings

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
    mono_energetic_boundary,
    new_potential,
    residual_norm,
    solve_bvp,
    solve_bvp_shooting,
    symmetry_error,
    tabulated_boundary,
)
from wignerdv import PropagatorError, fd
from wignerdv.potential import _bands

from conftest import census_systems, make_system, random_system


def test_scheme_enum_round_trip():
    assert Scheme("upwind1") is Scheme.UPWIND1
    assert Scheme("upwind2") is Scheme.UPWIND2
    assert Scheme("central") is Scheme.CENTRAL
    with pytest.raises(ValueError):
        Scheme("simpson")


def test_sin_tables_are_odd_to_the_bit():
    # the coefs of A(x)'s bands on the mesh nodes
    system = make_system(10)
    bands = _bands(system.potential, system.mesh.nodes, system.grid.size)
    assert [(rows, cols) for rows, cols, _ in bands] == [(slice(1, 80), slice(0, 79)), (slice(0, 79), slice(1, 80))]
    for _, _, coef in bands:
        assert coef.shape == (11,)
        for j in range(11):
            assert coef[10 - j] == -coef[j]
        assert coef[5] == 0.0
    # any mirrored points, several harmonics
    xs = np.random.default_rng(17).uniform(-3.0, 3.0, 200)
    p = new_potential(1.0, [0.0, 1.0, 2.0, 3.0])
    for (_, _, plus), (_, _, minus) in zip(_bands(p, xs, 5), _bands(p, -xs, 5)):
        assert np.array_equal(minus, -plus)


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


def _solve_any(system, scheme):
    return solve_bvp_shooting(system) if scheme == "oracle" else solve_bvp(system, scheme)


@pytest.mark.parametrize("scheme", ["upwind1", "upwind2", "central", "oracle"])
def test_solutions_scale_exactly_with_the_inflow_data(scheme):
    # two-sided inflow of seeded values below 1, and the same data times 2^+-600:
    # beyond 2^+-512 the square of |b| leaves the float range
    grid = make_system(40).grid
    rng = np.random.default_rng(2718)
    table = {int(i): float(rng.uniform(0.1, 1.0)) for i in rng.choice(grid.indices, 6, replace=False)}
    system = dataclasses.replace(make_system(40), boundary=tabulated_boundary(grid, table))
    base = _solve_any(system, scheme)
    assert base.residual <= 1e-12
    for k in (600, -600):
        data = tabulated_boundary(grid, {i: math.ldexp(value, k) for i, value in table.items()})
        sol = _solve_any(dataclasses.replace(system, boundary=data), scheme)
        assert np.array_equal(sol.values, np.ldexp(base.values, k))
        assert sol.residual == base.residual


@pytest.mark.parametrize("scheme, error", [("central", SolverError), ("oracle", PropagatorError)])
def test_a_field_that_overflows_is_named(scheme, error):
    system = make_system(10)
    huge = dataclasses.replace(system, boundary=tabulated_boundary(system.grid, {0: 1e308, 1: 1e308}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error, match="the field overflows"):
            _solve_any(huge, scheme)


# accepted configs past the float range of the transport entries (v / dx or
# dx / |v| overflows) or of the coupling, with the flagship's lattice and Nx = 100,
# and the factor that _diagonals names for the first three; the last overflows
# only in the computed Schur updates of the sweep's middle block
_OUT_OF_RANGE = [
    (1e160, (20.0, 20.0), "max dx/|v| = 6.366e+317"),
    (1e-160, (20.0, 20.0), "max |v|/dx = 1.241e+324"),
    (1e100, (0.0, 1e300), "max |a_n| dx/|v| = 6.366e+497"),
    (1.0, (0.0, 1e306), None),
]


def _out_of_range_system(period, coeffs):
    pot = new_potential(period, list(coeffs))
    grid = build_velocity_grid(pot.kappa, 0.5 * pot.kappa, 40, True)
    return build_system(pot, grid, build_mesh(period, 100), mono_energetic_boundary(grid, 0))


@pytest.mark.parametrize("scheme", ["upwind1", "upwind2", "central"])
@pytest.mark.parametrize("period, coeffs, factor", _OUT_OF_RANGE)
def test_a_solve_past_the_float_range_ends_without_a_warning(period, coeffs, factor, scheme, monkeypatch):
    # _diagonals judges every entry it writes and the middle block's check and
    # the gate every computed value: each such solve ends in one SolverError
    # or in a gated solution, and numpy warns of nothing.  A march whose matrix
    # leaves the float range is not refined: the gate of the inflow data reads
    # the same entries and raises the same error
    system = _out_of_range_system(period, coeffs)
    sweeps = _counted_sweeps(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if factor is None and scheme != "central":
            assert solve_bvp(system, scheme).residual <= 1e-12
        elif factor is None:
            with pytest.raises(SolverError, match="mesh node 50: the block is not finite"):
                solve_bvp(system, scheme)
        else:
            with pytest.raises(SolverError, match=re.escape(f"the {scheme} matrix leaves the float range: {factor}")):
                solve_bvp(system, scheme)
            assert len(sweeps) == (scheme == "upwind2")


def _resting_channel(scheme):
    """The free-streaming flagship at Nx = 10 with channel 3 at rest: its rows are scaled by dx / |v| = inf."""
    system = make_system(10, coeffs=(0.0,))
    v = system.grid.velocities.copy()
    v[3] = 0.0
    system = dataclasses.replace(system, grid=dataclasses.replace(system.grid, velocities=v))
    return assemble(system, scheme)


@pytest.mark.parametrize("scheme", list(Scheme))
def test_diagonals_name_the_factor_past_the_float_range(scheme):
    # the one check of the matrix's entries: the factors are maxima over the
    # channels, so the text is the same on the mirrored problem, the arm from
    # +l/2.  A resting channel breaks the velocity grid's invariant and reads
    # as an infinite dx / |v|
    cases = [(_resting_channel(scheme), "max dx/|v| = Infinity")]
    cases += [(assemble(_out_of_range_system(period, coeffs), scheme), factor)
              for period, coeffs, factor in _OUT_OF_RANGE if factor]
    for problem, factor in cases:
        message = f"the {scheme.value} matrix leaves the float range: {factor}"
        for op in (problem, fd._mirror(problem)):
            Nx = op.system.mesh.Nx
            # the whole field, and one row off x = 0, where the coupling is zero
            for j0, j1 in ((0, Nx + 1), (Nx // 4, Nx // 4 + 1)):
                with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
                    with pytest.raises(SolverError) as info:
                        fd._diagonals(op, j0, j1)
                assert str(info.value) == message


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
    """Flagship meshes from the smallest, random systems, small-M systems and the smallest meshes of s = 0.3 kappa."""
    systems = [make_system(Nx) for Nx in (2, 4, 6, 60)]
    systems += [random_system(rng, max_harmonics=4, max_M=30) for _ in range(6)]
    systems += [_small_system(rng, Nx) for Nx in (4, 12)]
    # two factored arms on the smallest meshes: upwind2 has T = 0 at Nx 2 and 4, T = 1 at Nx 6
    return systems + [_asymmetric_system(Nx) for Nx in (2, 4, 6)]


def _check_arm_block(problem, block, rows, cols, mirrored):
    """An arm's block read back in mesh order against the assembled system.

    rows and cols are the block's (start, stop) in the arm's flat order,
    which the arm from +l/2 reverses.  Over the free rows and columns the
    block is the assembled matrix's to the bit, pinned rows are identity
    rows, the pinned columns give the assembled rhs, and the rows have no
    entry outside the block's columns.
    """
    N = problem.pinned.size
    (a, b), (lo, hi) = rows, cols
    if mirrored:
        block, (a, b), (lo, hi) = block[::-1, ::-1], (N - b, N - a), (N - hi, N - lo)
    free, pinval = problem.free, problem.pinval.ravel()
    unknowns = np.flatnonzero(free)                   # field entry of each unknown
    ra, rb, ca, cb = np.searchsorted(unknowns, (a, b, lo, hi))
    rows_free, cols_free = free[a:b], free[lo:hi]
    matrix = problem.matrix[ra:rb]
    assert matrix.nnz == matrix[:, ca:cb].nnz
    assert np.array_equal(block[rows_free][:, cols_free], matrix[:, ca:cb].toarray())
    assert np.array_equal(block[~rows_free], np.eye(hi - lo)[a - lo:b - lo][~rows_free])
    # the rhs sums the same products, in another order
    terms = -block[rows_free][:, ~cols_free] * pinval[lo:hi][~cols_free]
    bound = 2 * (~cols_free).sum() * np.finfo(float).eps * np.abs(terms).sum(axis=1)
    assert np.all(np.abs(terms.sum(axis=1) - problem.rhs[ra:rb]) <= bound)


def test_node_blocks_match_the_assembled_matrix():
    # each arm's blocks are the assembled system's (``_check_arm_block``),
    # on every scheme.  Both arms have T blocks of reach nodes and leave the
    # middle reach to 3 reach - 1 nodes.  L_t holds exactly the rows with
    # entries in the block before, and J_t every column of the next block
    # that any U_t has an entry in: the same for every block.  The middle
    # block's rows over the other arm's last block are that arm's L rows,
    # reversed.  L_t reads only the kept columns K of the block before, and
    # the rows Q off kept, which back substitution recovers, read nothing
    # before their block: the recovery yields them, last block first, over
    # blocks t and t + 1.  The node spans of Q and the fill rows are those
    # of the layout
    rng = np.random.default_rng(29)
    for system in _sample_systems(rng):
        m, Nx = system.grid.size, system.mesh.Nx
        v = system.grid.velocities
        for scheme in Scheme:
            problem = assemble(system, scheme)
            N = problem.pinned.size
            reach = 2 if scheme is Scheme.UPWIND2 else 1
            arms = [fd._node_blocks(op) for op in (problem, fd._mirror(problem))]
            for mirrored, arm in zip((False, True), arms):
                # blocks share buffers, so each is copied as it comes
                blocks = [block.copy() for block in arm.blocks] + [arm.middle()]
                recovery = [rows.copy() for rows in arm.recovery]
                edges, order, Q, K, J, nL = arm.edges, arm.order, arm.Q, arm.K, arm.J, arm.nL
                T, c, size = len(edges) - 2, edges[-2], reach * m
                nQ = Q.size
                kept, coupled = np.isin(np.arange(size), K), np.isin(np.arange(size), K[:nL])
                assert len(blocks) == T + 1 and len(recovery) == T
                assert np.all(kept[coupled])
                # order: the entries off kept, then the rows of L (the v > 0
                # entries), then the rest of kept, each entry once
                assert np.array_equal(order, np.concatenate((Q, K)))
                assert np.array_equal(np.sort(order), np.arange(size))
                assert np.array_equal(order[:nQ], np.flatnonzero(~kept))
                assert np.array_equal(K[:nL], np.flatnonzero(np.tile((-v[::-1] if mirrored else v) > 0, reach)))
                assert np.array_equal(np.sort(K[nL:]), np.flatnonzero(kept & ~coupled))
                assert np.array_equal(J, np.unique(J))
                assert np.array_equal(arm.fills, np.argsort(order)[J])
                spans = [np.flatnonzero(Q // m == j) for j in range(reach)]
                assert arm.nodes == tuple((int(s[0]), int(s[-1]) + 1) for s in spans if s.size)
                assert np.all(np.diff(edges)[:-1] == reach * m) and edges[-1] == N - c
                assert reach <= Nx + 1 - 2 * T * reach < 3 * reach
                read = set()
                for t, block in enumerate(blocks):
                    a, b = edges[t], edges[t + 1]
                    lo = edges[max(t - 1, 0)]
                    hi = N - lo if t == T else edges[t + 2]
                    if t < T:
                        # an arm block is its rows in order over the K of the
                        # block before, its own entries in order and the J of
                        # the next: put back in mesh order, all other columns zero
                        assert t or not block[:, :K.size].any()
                        cols = np.concatenate((K + a - size - lo, order + a - lo, J + b - lo))
                        gathered = slice(0 if t else K.size, None)
                        block, arm_block = np.zeros((size, hi - lo)), block
                        block[np.ix_(order, cols[gathered])] = arm_block[:, gathered]
                    _check_arm_block(problem, block, (a, b), (lo, hi), mirrored)
                    if t > 0:
                        before = np.flatnonzero(block[:, :a - lo].any(axis=1))
                        assert np.array_equal(before, np.flatnonzero(coupled))
                        assert not block[:, :a - lo][:, ~kept].any()
                    if t < T:
                        touched = np.flatnonzero(block[:, b - lo:].any(axis=0))
                        assert np.isin(touched, J).all()
                        read.update(touched)
                        # the recovery rows are the block's rows off kept over
                        # its own entries and the J of the next, and read
                        # nothing before
                        assert np.array_equal(recovery[T - 1 - t], arm_block[:nQ, K.size:])
                        assert not block[~kept, :a - lo].any()
                # one block may leave a column of J unread: at Nx = 2 the
                # lone arm block reads A(x) only at x = 0, where it is 0
                if T > 1:
                    assert np.array_equal(sorted(read), J)
                if T:
                    other = arms[not mirrored]
                    after = np.flatnonzero(blocks[T][:, N - c - lo:].any(axis=1))
                    assert np.array_equal(after, (N - 2 * c - 1 - other.K[:other.nL])[::-1])
                    assert not blocks[T][:, :c - lo][:, ~kept].any()


def _symmetric_systems(rng):
    """The flagship from the smallest meshes, and random systems on the half-shift lattice."""
    systems = [make_system(Nx) for Nx in (2, 4, 6, 60)]
    return systems + [random_system(rng, max_harmonics=4, max_M=30, off_half=(0.5, 0.5)) for _ in range(6)]


def test_diagonals_are_mirror_invariant_to_the_bit():
    # on an antisymmetric velocity set, reversing the flat order, (j, k) ->
    # (Nx - j, m - 1 - k), maps the whole-field matrix onto itself: diagonal
    # d read backwards is diagonal -d, on every scheme
    for system in _symmetric_systems(np.random.default_rng(37)):
        for scheme in Scheme:
            problem = assemble(system, scheme)
            assert fd._mirror_invariant(problem)
            diagonals = fd._diagonals(problem, 0, system.mesh.Nx + 1)
            assert set(diagonals) == {-d for d in diagonals}
            for d, coef in diagonals.items():
                assert np.array_equal(coef.ravel(), diagonals[-d].ravel()[::-1])
    assert not fd._mirror_invariant(assemble(_asymmetric_system(10), Scheme.UPWIND2))


def test_mirror_is_the_problem_on_the_reversed_flat_order_to_the_bit():
    # _mirror(p) keeps p's bands, yet its whole-field matrix is p's read in
    # reversed flat order, (j, k) -> (Nx - j, m - 1 - k): diagonal d of the
    # mirror is diagonal -d of p backwards, on every scheme and off the
    # half-shift lattice too, also for a run of nodes (equal values: at
    # x = 0, where A is 0, an entry may be a zero of the other sign).  Its
    # grid is the lattice of shift kappa - s, it is the problem ``assemble``
    # sets up on that grid with the data reversed, and mirrored twice p
    # comes back.  On the flagship from Nx = 2, on s = 0.3 kappa and on
    # random systems, some with more harmonics than half the channel
    # window, no diagonal of p holds an entry in a column outside the field
    rng = np.random.default_rng(47)
    systems = [random_system(rng, max_harmonics=4, max_M=30) for _ in range(10)]
    systems += [_asymmetric_system(Nx) for Nx in (2, 10)] + [_small_system(rng)]
    systems += [make_system(Nx) for Nx in (2, 4, 10)]
    assert sum(not fd._mirror_invariant(assemble(system, Scheme.UPWIND1)) for system in systems) >= 5
    for system in systems:
        Nx = system.mesh.Nx
        j0 = int(rng.integers(0, Nx))
        j1 = int(rng.integers(j0 + 1, Nx + 2))
        for scheme in Scheme:
            problem = assemble(system, scheme)
            mirror = fd._mirror(problem)
            assert mirror.bands is problem.bands
            grid = mirror.system.grid
            assert grid.size == system.grid.size and grid.s == system.grid.kappa - system.grid.s
            assert np.allclose(grid.indices * grid.kappa + grid.s, grid.velocities, rtol=0, atol=1e-12 * grid.kappa)
            direct = assemble(mirror.system, scheme)
            assert np.array_equal(direct.pinned, mirror.pinned) and np.array_equal(direct.pinval, mirror.pinval)
            for (rows, cols, coef), (rows_, cols_, coef_) in zip(direct.bands, mirror.bands, strict=True):
                assert (rows, cols) == (rows_, cols_) and np.array_equal(coef, coef_)
            # no diagonal holds an entry in a column outside the field, so the
            # sweep's first arm block may read columns before node 0 as zeros
            N = problem.pinned.size
            for d, coef in fd._diagonals(problem, 0, Nx + 1).items():
                outside = (np.arange(N) + d < 0) | (np.arange(N) + d >= N)
                assert not coef.ravel()[outside].any()
            for (a, b), (ra, rb) in (((0, Nx + 1), (0, Nx + 1)), ((j0, j1), (Nx + 1 - j1, Nx + 1 - j0))):
                ours, theirs = fd._diagonals(problem, ra, rb), fd._diagonals(mirror, a, b)
                assert set(theirs) == {-d for d in ours}
                for d, coef in theirs.items():
                    assert np.array_equal(coef, ours[-d][::-1, ::-1])
            twice = fd._mirror(mirror)
            assert np.array_equal(twice.system.grid.velocities, system.grid.velocities)
            assert np.array_equal(twice.pinned, problem.pinned)
            assert np.array_equal(twice.pinval, problem.pinval)


def test_shared_arm_matches_two_factored_arms_to_the_bit(monkeypatch):
    # on a mirror-invariant system one arm is factored and carries both
    # right-hand sides; with both arms factored the field is the same to
    # the bit, for the inflow data and for a generic rhs as refinement sees
    rng = np.random.default_rng(41)
    cases = [(system, scheme) for system in _symmetric_systems(rng) for scheme in Scheme]
    node_blocks, arms, is_mirror = fd._node_blocks, [], _made_mirrors(monkeypatch)
    monkeypatch.setattr(fd, "_node_blocks", lambda op: arms.append(is_mirror(op)) or node_blocks(op))
    for system, scheme in cases + [(make_system(1600), Scheme.UPWIND2)]:
        problem = assemble(system, scheme)
        generic = np.zeros(problem.pinned.shape)
        generic[~problem.pinned] = rng.standard_normal(problem.rhs.size)
        for rhs in (None, generic):
            arms.clear()
            shared = fd._block_sweep(problem, rhs)
            assert arms == [False]
            with monkeypatch.context() as patch:
                patch.setattr(fd, "_mirror_invariant", lambda op: False)
                both = fd._block_sweep(problem, rhs)
            assert arms == [False, False, True]
            assert np.array_equal(shared, both)


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


def _stored_carries(monkeypatch):
    """Patch fd._kept_carry to keep, for each carry, (entries of the carry, entries stored)."""
    kept_carry, stored = fd._kept_carry, []

    def recorded(C):
        rows, cols, carry = kept_carry(C)
        stored.append((C.size, carry.size))
        return rows, cols, carry

    monkeypatch.setattr(fd, "_kept_carry", recorded)
    return stored


def test_compressed_carries_match_whole_carries(monkeypatch):
    # a carry keeps only its rows and columns with an entry above 2^-100 of
    # its largest; with the cut at 0 it drops only entries below _TINY, as a
    # whole carry would.  The dropped entries lie far below the rounding of
    # the carry's own solve, so the fields agree to rounding, for every
    # scheme, for the inflow data and for a generic rhs as refinement sees.
    # At Nx = 1600 only upwind2 runs, the scheme whose first iterate is the sweep
    rng = np.random.default_rng(29)
    flagship = make_system(1600)
    cases = [(make(Nx), scheme) for make in (make_system, _asymmetric_system) for Nx in (10, 100) for scheme in Scheme]
    cases += [(random_system(rng, max_harmonics=4, max_M=30), scheme) for _ in range(4) for scheme in Scheme]
    cases += [(flagship, Scheme.UPWIND2), (_asymmetric_system(1600), Scheme.UPWIND2)]
    stored = _stored_carries(monkeypatch)
    for system, scheme in cases:
        problem = assemble(system, scheme)
        generic = np.zeros(problem.pinned.shape)
        generic[~problem.pinned] = rng.standard_normal(problem.rhs.size)
        for rhs in (None, generic):
            stored.clear()
            cut = fd._block_sweep(problem, rhs)
            kept = sum(size for _, size in stored) / max(sum(entries for entries, _ in stored), 1)
            with monkeypatch.context() as patch:
                patch.setattr(fd, "_CARRY_CUT", 0.0)
                whole = fd._block_sweep(problem, rhs)
            assert np.abs(cut - whole).max() <= 1e-14 * np.abs(whole).max()
            if system is flagship and scheme is Scheme.UPWIND2:
                assert kept <= 0.25                       # 0.167 of one arm's whole carries here
    # under a zero potential no carry holds an entry, and the sweep streams
    # the inflow data: exactly for upwind1 and central, and to the rounding
    # of upwind2's own-node weight 1.5, the same with or without a cut
    system = make_system(100, coeffs=(0.0,))
    streamed = np.broadcast_to(system.boundary.values, (101, system.grid.size))
    for scheme in Scheme:
        stored.clear()
        field = fd._block_sweep(assemble(system, scheme))
        assert stored and not any(size for _, size in stored)
        if scheme is Scheme.UPWIND2:
            assert np.abs(field - streamed).max() <= 1e-13
        else:
            assert np.array_equal(field, streamed)


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_a_non_finite_carry_is_kept_whole(monkeypatch, bad):
    # a carry whose largest entry is not finite keeps every entry: no entry
    # lies above a cut of NaN or inf, so a cut would keep none and the sweep
    # would return a finite wrong field.  Kept, the entry reaches the middle
    # block through the last carry's update, and the sweep raises there
    C = np.ones((4, 3))
    C[1, 2] = bad
    rows, cols, carry = fd._kept_carry(C)
    assert rows.tolist() == [0, 1, 2, 3] and cols.tolist() == [0, 1, 2]
    assert np.array_equal(carry, C, equal_nan=True)
    get_lapack_funcs = fd.get_lapack_funcs

    def broken(names, arrays):
        getrf, getrs, getri = get_lapack_funcs(names, arrays)

        def solved(lu, piv, b, **kwargs):
            x, info = getrs(lu, piv, b, **kwargs)
            if x.ndim == 2:                               # the carry of an arm block
                x[0, 0] = bad
            return x, info

        return getrf, solved, getri

    monkeypatch.setattr(fd, "get_lapack_funcs", broken)
    with np.errstate(invalid="ignore", over="ignore"):
        with pytest.raises(SolverError, match="mesh nodes 48-52: the block is not finite"):
            fd._block_sweep(assemble(make_system(100), Scheme.UPWIND2))


def _made_mirrors(monkeypatch):
    """Patch fd._mirror to keep the problems it makes; returns the test whether a problem is one of them."""
    mirror, made = fd._mirror, []
    monkeypatch.setattr(fd, "_mirror", lambda op: made.append(mirror(op)) or made[-1])
    return lambda op: any(op is other for other in made)


def _zero_node_block(monkeypatch, node, whole_rows=False, kept_rows=False):
    """Make the sweep see the node's own block of the matrix set to zero.

    With whole_rows, the node's rows over every column of the block; with
    kept_rows, the node's rows at kept entries over every column.

    The arm from +l/2 is the arm from -l/2 of the mirrored problem, whose
    j-th node is node Nx - j.  On a mirror-invariant system the arm from
    -l/2 is factored for both sides, so a node right of the middle is set
    there, at its mirror image.  An arm block holds its rows and its own
    columns in the order of ``_node_blocks``, its own columns after the K
    of the block before; the middle block is in mesh order.
    """
    node_blocks, is_mirror = fd._node_blocks, _made_mirrors(monkeypatch)

    def altered(op):
        arm = node_blocks(op)
        edges, order, K = arm.edges, arm.order, arm.K
        Nx, m = op.system.mesh.Nx, op.system.grid.size
        a = m * (Nx - node if is_mirror(op) or (fd._mirror_invariant(op) and 2 * node > Nx) else node)

        def patched(t, block):
            """Block t of the sweep (the middle one if t is T), with the node's rows set if it holds them."""
            if edges[t] <= a < edges[t + 1]:
                own = a - edges[t] + np.arange(m)             # the node's entries of the block
                rows = own[np.isin(own, K)] if kept_rows else own
                if t < len(edges) - 2:
                    at = np.argsort(order)
                    cols = slice(None) if whole_rows or kept_rows else K.size + at[own]
                    block[at[rows, None], cols] = 0.0
                else:
                    lo = edges[max(t - 1, 0)]
                    cols = slice(None) if whole_rows else slice(a - lo, a - lo + m)
                    block[rows, cols] = 0.0
            return block

        return arm._replace(blocks=(patched(t, block) for t, block in enumerate(arm.blocks)),
                            middle=lambda: patched(len(edges) - 2, arm.middle()))

    monkeypatch.setattr(fd, "_node_blocks", altered)


def _asymmetric_system(Nx):
    """The flagship on the lattice s = 0.3 kappa: 40 v<0 and 41 v>0 channels."""
    system = make_system(Nx)
    kappa = system.potential.kappa
    grid = build_velocity_grid(kappa, 0.3 * kappa, 40, True)
    return build_system(system.potential, grid, system.mesh, mono_energetic_boundary(grid, 0))


# (system, scheme, node, rows, where, pivot) on Nx = 10: nodes 0-4 and 6-10
# are the arms of upwind1, nodes 0-3 and 7-10 those of upwind2.  An arm block
# eliminates its entries off kept first, node by node, then factors the Schur
# corner on the kept ones, and a zero pivot counts its entries in that order.
# With the node's own block zeroed ("own"), its block of D0[Q, Q] is zero, so
# the zero pivot is the node's first entry off kept.  With the node's kept
# rows zeroed over every column ("kept"), so that L adds no fill to them, the
# corner has zero rows, and its first zero pivot is the first column past
# their rank.  On the flagship one arm is factored for both sides and the
# error names both
_SHARED1, _SHARED2 = "mesh node 3 and, mirrored, mesh node 7:", "mesh nodes 2-3 and, mirrored, mesh nodes 7-8:"
_SINGULAR_BLOCKS = [
    (make_system, Scheme.UPWIND1, 3, "own", _SHARED1, "1 of 80 (node 3, velocity index 0)"),
    (make_system, Scheme.UPWIND1, 7, "own", _SHARED1, "1 of 80 (node 3, velocity index 0)"),
    (make_system, Scheme.UPWIND1, 3, "kept", _SHARED1, "41 of 80 (node 3, velocity index 40)"),
    (make_system, Scheme.UPWIND2, 3, "own", _SHARED2, "41 of 160 (node 3, velocity index 0)"),
    (make_system, Scheme.UPWIND2, 7, "own", _SHARED2, "41 of 160 (node 3, velocity index 0)"),
    (make_system, Scheme.UPWIND2, 7, "kept", _SHARED2, "121 of 160 (node 3, velocity index 40)"),
    (_asymmetric_system, Scheme.UPWIND1, 3, "own", "mesh node 3:", "1 of 81 (node 3, velocity index 0)"),
    (_asymmetric_system, Scheme.UPWIND1, 7, "own", "mesh node 7:", "1 of 81 (node 7, velocity index 80)"),
    (_asymmetric_system, Scheme.UPWIND1, 7, "kept", "mesh node 7:", "42 of 81 (node 7, velocity index 39)"),
    (_asymmetric_system, Scheme.UPWIND2, 3, "own", "mesh nodes 2-3:", "41 of 162 (node 3, velocity index 0)"),
    (_asymmetric_system, Scheme.UPWIND2, 7, "own", "mesh nodes 7-8:", "42 of 162 (node 7, velocity index 80)"),
    (_asymmetric_system, Scheme.UPWIND2, 3, "kept", "mesh nodes 2-3:", "122 of 162 (node 3, velocity index 40)"),
    (_asymmetric_system, Scheme.UPWIND2, 7, "kept", "mesh nodes 7-8:", "123 of 162 (node 7, velocity index 39)"),
    # the middle block, factored whole: the Schur updates of both arms keep it
    # regular with the node's own block zeroed, so the node's rows are zeroed
    # whole.  Its first zero pivot depends on which update entries are exactly
    # zero: for upwind2, whose carries keep only their rows and columns above
    # the cut, it is node 5's velocity index 64 on both lattices
    (make_system, Scheme.UPWIND1, 5, "whole", "mesh node 5:", "1 of 80 (node 5, velocity index 0)"),
    (make_system, Scheme.UPWIND2, 5, "whole", "mesh nodes 4-6:", "145 of 240 (node 5, velocity index 64)"),
    (_asymmetric_system, Scheme.UPWIND1, 5, "whole", "mesh node 5:", "1 of 81 (node 5, velocity index 0)"),
    (_asymmetric_system, Scheme.UPWIND2, 5, "whole", "mesh nodes 4-6:", "146 of 243 (node 5, velocity index 64)"),
]


@pytest.mark.filterwarnings("error::scipy.linalg.LinAlgWarning")
def test_block_sweep_names_a_singular_node_block(monkeypatch):
    for make, scheme, node, rows, where, pivot in _SINGULAR_BLOCKS:
        op = assemble(make(10), scheme)
        with monkeypatch.context() as patch:
            _zero_node_block(patch, node, whole_rows=rows == "whole", kept_rows=rows == "kept")
            with pytest.raises(SolverError, match="singular") as info:
                fd._block_sweep(op)
        assert f"block elimination failed at {where} the block is singular, zero pivot {pivot}" in str(info.value)


def _zero_recovery_rows(monkeypatch, node):
    """Make back substitution see the node's recovered rows zero over the node's own columns.

    The node is found in its arm as in ``_zero_node_block``; the recovery
    rows are the block's rows Q over its own columns, both in the order of
    ``_node_blocks``.  The forward blocks are left as they are, so only the
    recovery system is singular.
    """
    node_blocks, is_mirror = fd._node_blocks, _made_mirrors(monkeypatch)

    def altered(op):
        arm = node_blocks(op)
        edges = arm.edges
        Nx, m = op.system.mesh.Nx, op.system.grid.size
        a = m * (Nx - node if is_mirror(op) or (fd._mirror_invariant(op) and 2 * node > Nx) else node)

        def patched():
            for t, rows in zip(range(len(edges) - 3, -1, -1), arm.recovery):
                if edges[t] <= a < edges[t + 1]:
                    at = np.argsort(arm.order)[a - edges[t] + np.arange(m)]   # the node's entries, in order
                    rows[at[at < len(rows), None], at] = 0.0
                yield rows

        return arm._replace(recovery=patched())

    monkeypatch.setattr(fd, "_node_blocks", altered)


@pytest.mark.filterwarnings("error::scipy.linalg.LinAlgWarning")
def test_block_sweep_names_a_singular_recovery_system(monkeypatch):
    # back substitution solves each block's rows off kept for the entries
    # the carries no longer hold; their own block is block triangular over
    # the block's nodes, so zeroing one node's rows makes the zero pivot the
    # first of that node.  The error names the block's mesh nodes as a
    # singular forward block does
    shared2, shared1 = "mesh nodes 2-3 and, mirrored, mesh nodes 7-8:", "mesh node 3 and, mirrored, mesh node 7:"
    cases = [
        (make_system, Scheme.UPWIND2, 3, shared2, "41 of 80 (node 3, velocity index 0)"),
        (make_system, Scheme.UPWIND2, 7, shared2, "41 of 80 (node 3, velocity index 0)"),
        (make_system, Scheme.UPWIND1, 3, shared1, "1 of 40 (node 3, velocity index 0)"),
        (_asymmetric_system, Scheme.UPWIND2, 3, "mesh nodes 2-3:", "41 of 80 (node 3, velocity index 0)"),
        (_asymmetric_system, Scheme.UPWIND2, 7, "mesh nodes 7-8:", "42 of 82 (node 7, velocity index 80)"),
        (_asymmetric_system, Scheme.UPWIND1, 7, "mesh node 7:", "1 of 41 (node 7, velocity index 80)"),
    ]
    for make, scheme, node, where, pivot in cases:
        op = assemble(make(10), scheme)
        with monkeypatch.context() as patch:
            _zero_recovery_rows(patch, node)
            with pytest.raises(SolverError, match="singular") as info:
                fd._block_sweep(op)
        assert (f"block elimination failed at {where} the block's recovery system is singular, "
                f"zero pivot {pivot}") in str(info.value)


def test_upwind2_first_iterate_is_accurate_without_refinement():
    # the gate reads only the residual; this reads the field.  The sweep's
    # first iterate, not refined, against the field refined twice, on the
    # flagship at Nx = 1600, where one arm is factored for both sides, and
    # on the lattice s = 0.3 kappa, where both arms are: max |f_0 - f_2| is
    # 1.8e-12 and 2.5e-12 (one host, one thread).  Refined with residuals
    # summed in double, f_2 moves by up to 8e-12 when f_0 moves by one ulp,
    # so the figures are that noise; against a field refined with residuals
    # summed in long double, f_0 is 3.3e-12 and 9.3e-12 off.  The bound lies
    # above both
    for system in (make_system(1600), _asymmetric_system(1600)):
        problem = assemble(system, Scheme.UPWIND2)
        first = fd._block_sweep(problem)
        np.copyto(first, problem.pinval, where=problem.pinned)
        field = first
        for _ in range(2):
            field = field + fd._block_sweep(problem, -fd._gate(problem, field)[1])
            np.copyto(field, problem.pinval, where=problem.pinned)
        assert fd._gate(problem, first)[0] <= 1e-12
        assert np.abs(first - field).max() <= 2e-11


def test_block_sweep_carries_half_rank():
    # a dense velocity-by-velocity carry per node alone would take
    # n_nodes * m^2 doubles; the half-rank carry takes about half of that,
    # on the flagship one arm of them is kept (a quarter), and each stores
    # only its rows and columns above the cut: the traced peak is 0.079 of
    # it here, 3.2 MB, and the bound leaves a third on top
    system = make_system(800)
    op = assemble(system, Scheme.UPWIND1)
    tracemalloc.start()
    try:
        fd._block_sweep(op)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.11 * (system.mesh.Nx + 1) * system.grid.size ** 2 * 8


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
    # the problem's sparse matrix, the refinement of a missed central march included
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


def test_gate_reads_a_residual_whose_rhs_norm_overflows():
    # A(x) enters b through the scaled coupling, so on the flagship with
    # coeffs = 0, 2e173 |b| is 1.56e155, past the 1.3e154 where its sum of
    # squares overflows: a plain norm reads |b| as inf and gates every field
    # at 0.  The sweep's field passes, and one perturbed by 1e-24 off the
    # pinned entries, whose relative residual is 1.03e-9, fails
    op = assemble(make_system(100, coeffs=(0.0, 2e173)), Scheme.UPWIND2)
    assert op.rhs_norm == pytest.approx(1.5592687330077505e155, rel=1e-12)
    field = fd._block_sweep(op)
    np.copyto(field, op.pinval, where=op.pinned)
    assert fd._gate(op, field)[0] <= 1e-12
    assert fd._gate(op, field + 1e-24 * ~op.pinned)[0] >= 1e-10


def test_gate_matches_the_assembled_residual(solution_cache):
    # the gate, a product with the diagonals, against residual_norm of the
    # assembled system; both relative to |b|, read from the end rows of
    # R(F_pin) here and from the assembled rhs there.  The flagship at Nx 2
    # and 4 has 3 and 5 nodes, where the two end windows of |b| cover or
    # overlap the whole field; flagship upwind2 at Nx=1600 has the largest
    # residual here, so it checks that both gates round the same system.
    # Worst seen on these systems: 4.7e-16 relative on random fields, 2.4e-15
    # apart on solved ones, and 1.5% apart for upwind2 at Nx=1600
    rng = np.random.default_rng(31)
    systems = [random_system(rng, max_harmonics=4, max_M=30) for _ in range(8)] + [_small_system(rng)]
    cases = [(system, scheme) for system in systems for scheme in Scheme]
    cases += [(Nx, scheme) for Nx in (2, 4) for scheme in Scheme] + [(1600, Scheme.UPWIND2)]
    for system, scheme in cases:
        # an int stands for the flagship on that many cells, solved once per session
        sol = solution_cache(scheme.value, system) if isinstance(system, int) else solve_bvp(system, scheme)
        op = assemble(sol.system, scheme)
        problem = assemble(sol.system, scheme)
        free = ~op.pinned
        assert op.rhs_norm == pytest.approx(np.linalg.norm(problem.rhs), rel=1e-14)
        # a random field, where the residual is O(1): the vectors agree to rounding
        x = rng.standard_normal(problem.rhs.size)
        field = op.pinval.copy()
        field[free] = x
        res, r = fd._gate(op, field)
        assert np.all(r[op.pinned] == 0.0)
        assert np.abs(r[free] - (problem.matrix @ x - problem.rhs)).max() <= 1e-14 * np.abs(r).max()
        assert res == pytest.approx(residual_norm(problem, x), rel=1e-14)
        # a solved field: both gates pass and agree to rounding
        x = sol.values.T[free]
        assert sol.residual == fd._gate(op, sol.values.T)[0]
        assert max(sol.residual, residual_norm(problem, x)) <= 1e-12
        assert abs(sol.residual - residual_norm(problem, x)) <= 5e-14
        if system == 1600:
            assert abs(sol.residual - residual_norm(problem, x)) <= 0.05 * residual_norm(problem, x)


def test_refinement_keeps_the_better_iterate(monkeypatch):
    # upwind2's first iterate is the sweep, so one patched sweep plays both steps
    system = make_system(20)
    op = assemble(system, Scheme.UPWIND2)
    sweep = fd._block_sweep
    first = np.where(op.pinned, op.pinval, sweep(op) + 1e-9)
    first_res = fd._gate(op, first)[0]
    assert 1e-12 < first_res < 1.0
    # a correction ten times too long makes the residual worse and is
    # dropped; the true correction makes it better and is kept
    for scale, kept in ((10.0, False), (1.0, True)):
        calls = []

        def off_first(op, rhs=None):
            calls.append(rhs)
            return first.copy() if len(calls) == 1 else scale * sweep(op, rhs)

        monkeypatch.setattr(fd, "_block_sweep", off_first)
        if kept:
            sol = solve_bvp(system, Scheme.UPWIND2)
            assert sol.residual < 1e-12
            assert sol.residual == fd._gate(op, sol.values.T)[0]
        else:
            with pytest.raises(SolverError) as info:
                solve_bvp(system, Scheme.UPWIND2)
            assert info.value.residual == first_res
        assert len(calls) == 2
        # the refinement's rhs is the gate's residual field of the first iterate
        assert np.array_equal(calls[1], -fd._gate(op, first)[1])


def _counted_sweeps(monkeypatch):
    """Patch fd._block_sweep to record the rhs of every call; returns that list."""
    sweep, calls = fd._block_sweep, []
    monkeypatch.setattr(fd, "_block_sweep", lambda op, rhs=None: calls.append(rhs) or sweep(op, rhs))
    return calls


def _counted_residuals(monkeypatch):
    """Patch fd._residual to record the field of every whole-field residual, by its first run; returns that list."""
    residual, fields = fd._residual, []

    def first_run(op, field, j0, j1):
        if (j0, j1) == (0, min(fd._RUN_NODES, len(field))):
            fields.append(field)
        return residual(op, field, j0, j1)

    monkeypatch.setattr(fd, "_residual", first_run)
    return fields


def test_census_subset_counts(monkeypatch):
    # the Nx = 100 barriers, the barrier 0, 300 at Nx = 1600 (whose upwind2
    # sweep misses the gate and is refined to a pass) and every twelfth
    # draw: 30 of the census's 243 systems.  central misses where a barrier is
    # higher than the channel window resolves, and its refinement passes on
    # some of them; upwind1 meets the gate by its march alone.  The counts
    # were measured when the census was committed: a lower solved count is
    # a regression, not a new baseline
    subset = [system for name, system in census_systems()
              if name.endswith("@100") or name == "0,300@1600"
              or (name.startswith("r") and int(name.split("#")[1]) % 12 == 0)]
    assert len(subset) == 30
    calls = _counted_sweeps(monkeypatch)
    counts = {}
    for scheme in Scheme:
        calls.clear()
        solved = 0
        for system in subset:
            try:
                solved += solve_bvp(system, scheme).residual <= 1e-12
            except SolverError:
                pass
        counts[scheme] = (solved, sum(rhs is not None for rhs in calls))
    assert counts == {Scheme.CENTRAL: (22, 10), Scheme.UPWIND1: (30, 0), Scheme.UPWIND2: (30, 1)}


def test_a_missed_march_is_refined_by_one_sweep(monkeypatch):
    # a barrier this high makes the march alone miss the gate
    system = make_system(100, coeffs=(0.0, 60.0))
    op = assemble(system, Scheme.CENTRAL)
    march = np.where(op.pinned, op.pinval, fd._central_march(op))
    march_res, r = fd._gate(op, march)
    assert 1e-12 < march_res < 1.0
    calls, residuals = _counted_sweeps(monkeypatch), _counted_residuals(monkeypatch)
    sol = solve_bvp(system, Scheme.CENTRAL)
    assert sol.residual <= 1e-12
    assert len(calls) == 1 and np.array_equal(calls[0], -r)
    # two whole-field residuals: the march's, which the sweep reads too, and the refined field's
    assert len(residuals) == 2


def test_a_march_worse_than_no_solution_is_refined_from_the_inflow_data(monkeypatch):
    # the march's residual is about 3e14, far above that of pinval, the
    # field that holds only the inflow data (1), so the one sweep refines
    # pinval and solves the system from the data
    system = make_system(100, coeffs=(0.0, 1000.0))
    op = assemble(system, Scheme.CENTRAL)
    assert fd._gate(op, np.where(op.pinned, op.pinval, fd._central_march(op)))[0] > 1.0
    calls, residuals = _counted_sweeps(monkeypatch), _counted_residuals(monkeypatch)
    with pytest.raises(SolverError, match="first iterate residual") as info:
        solve_bvp(system, Scheme.CENTRAL)
    # three whole-field residuals: the march's, pinval's, which the sweep reads, and the refined field's
    assert len(residuals) == 3 and np.array_equal(residuals[1], op.pinval)
    assert len(calls) == 1 and np.array_equal(calls[0], -fd._gate(op, op.pinval)[1])
    growth = float(re.search(r"growth factor max\|f\| / max\|b\| = ([^;\s]+)", str(info.value))[1])
    assert math.isfinite(growth)


def test_a_march_that_raises_is_refined_from_the_inflow_data(monkeypatch):
    # both marches follow one rule: the refinement sweep solves from pinval
    system = make_system(20)
    sweep = fd._block_sweep
    for scheme in (Scheme.CENTRAL, Scheme.UPWIND1):
        expected = solve_bvp(system, scheme)
        error = f"{scheme.value} march: cell 3 matrix is singular: zero pivot 41 of 80"

        def singular(op):
            raise SolverError(error)

        with monkeypatch.context() as patch:
            patch.setattr(fd, f"_{scheme.value}_march", singular)
            calls = _counted_sweeps(patch)
            sol = solve_bvp(system, scheme)
            op = assemble(system, scheme)
            assert len(calls) == 1 and np.array_equal(calls[0], -fd._gate(op, op.pinval)[1])
            assert sol.residual <= 1e-12
            assert np.abs(sol.values - expected.values).max() <= 1e-11
            # a refinement that falls short names the march's error
            patch.setattr(fd, "_block_sweep", lambda op, rhs=None: 0.5 * sweep(op, rhs))
            with pytest.raises(SolverError, match=error):
                solve_bvp(system, scheme)


def test_a_sweep_that_raises_is_not_refined(monkeypatch):
    # upwind2's first iterate is the sweep, which a refinement would repeat
    _zero_node_block(monkeypatch, 3)
    calls = _counted_sweeps(monkeypatch)
    with pytest.raises(SolverError, match="block elimination failed at mesh nodes 2-3"):
        solve_bvp(make_system(10), Scheme.UPWIND2)
    assert len(calls) == 1


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
    # exactly one sweep: the refinement of the missed march passes the gate
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
    assert "first iterate residual" in message
    assert "solver residual" in message
    assert info.value.residual > 1e-12
    # the growth factor reads as conditioning, not as a bug
    growth = float(re.search(r"growth factor max\|f\| / max\|b\| = ([^;\s]+)", message)[1])
    assert growth > 1e5


def test_large_central_solve_marches_without_global_solver(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("central called the block sweep")

    monkeypatch.setattr(fd, "_block_sweep", refuse)
    sol = solve_bvp(make_system(12800), Scheme.CENTRAL)
    assert sol.residual <= 1e-12


def test_upwind1_marches_without_global_solver_over_random_inputs(monkeypatch):
    # the march alone meets the gate, and it agrees with the sweep to the
    # conditioning of the system; the draws off the half-shift lattice march
    # two arms, some with a different number of v<0 channels in each
    rng = np.random.default_rng(41)
    systems = [random_system(rng, max_harmonics=4, max_M=30) for _ in range(12)]
    problems = [assemble(system, Scheme.UPWIND1) for system in systems]
    assert any((system.grid.velocities < 0).sum() * 2 != system.grid.size for system in systems)
    assert sum(not fd._mirror_invariant(problem) for problem in problems) >= 3
    swept = [fd._block_sweep(problem) for problem in problems]
    calls = _counted_sweeps(monkeypatch)
    for system, reference in zip(systems, swept):
        sol = solve_bvp(system, Scheme.UPWIND1)
        assert sol.residual <= 1e-12
        assert np.abs(sol.values.T - reference).max() <= 1e-9 * np.abs(reference).max()
    assert calls == []


def test_upwind1_solves_the_smallest_meshes(monkeypatch):
    # at Nx = 2 and 4 each arm of the march is one or two cells
    systems = [make(Nx) for Nx in (2, 4) for make in (make_system, _asymmetric_system)]
    swept = [fd._block_sweep(assemble(system, Scheme.UPWIND1)) for system in systems]
    calls = _counted_sweeps(monkeypatch)
    for system, reference in zip(systems, swept):
        sol = solve_bvp(system, Scheme.UPWIND1)
        assert sol.residual <= 1e-12
        assert np.abs(sol.values.T - reference).max() <= 1e-12 * np.abs(reference).max()
    assert calls == []


def _transfer_marches(monkeypatch):
    """Patch fd._march to record (columns, cells, sides, edges) of every transfer march; returns that list.

    A transfer march is one that writes no field; its edges are node 0 and
    the cells where its hook restarts the states.
    """
    march, calls = fd._march, []

    def spy(op, start, cells, sides=(False,), out=(), end=None):
        if out:
            return march(op, start, cells, sides, out, end)
        edges = [0]

        def recorded(c, states):
            restart = end(c, states)
            if restart is not None:
                edges.append(c)
            return restart

        march(op, start, cells, sides, out, recorded)
        calls.append((start.shape[0], cells, sides, edges))

    monkeypatch.setattr(fd, "_march", spy)
    return calls


@pytest.mark.parametrize("Nx, barrier", [(100, 60.0), (400, 100.0), (1600, 100.0), (400, 300.0), (1600, 300.0)])
def test_upwind1_march_cuts_segments_where_the_field_grows(monkeypatch, Nx, barrier):
    # marched uncut over half the period, the homogeneous states reach 4.7e2
    # (0, 60 at Nx=100) to 4.1e7 (0, 300 at Nx=1600), and but for the first
    # case the field misses the gate (4.8e-12 to 3.3e-6); the march cuts a
    # segment where any of those states grows.  One arm, to x = 0, serves
    # both sides
    system = make_system(Nx, coeffs=(0.0, barrier))
    marches, calls = _transfer_marches(monkeypatch), _counted_sweeps(monkeypatch)
    assert solve_bvp(system, Scheme.UPWIND1).residual <= 1e-12
    assert calls == []
    [(_, cells, arms, edges)] = marches
    assert cells == Nx // 2 and arms == (False, True)
    assert len(edges) > 2 and edges[0] == 0 and edges[-1] == Nx // 2
    assert np.all(np.diff(edges) <= fd._SEGMENT_CELLS)


def test_upwind1_transfer_march_carries_neg_plus_one_column_per_side(monkeypatch):
    # each arm marches its v<0 unknowns and its particular column, not the
    # identity, over half the cells.  On the flagship one arm serves
    # both sides and carries the other side's particular column too; with
    # data only at +l/2 the particular column of the side at -l/2 is zero.
    # On the lattice s = 0.3 kappa both arms are marched, and the arm from
    # +l/2 has 41 v<0 channels in its own order, -v[::-1]
    flagship = make_system(400)
    right_only = dataclasses.replace(flagship, boundary=tabulated_boundary(flagship.grid, {-1: 1.0}))
    shared = [(40 + 2, 200, (False, True))]
    for system, expected in ((flagship, shared), (right_only, shared),
                             (_asymmetric_system(400), [(40 + 1, 200, (False,)), (41 + 1, 200, (True,))])):
        swept = fd._block_sweep(assemble(system, Scheme.UPWIND1))
        with monkeypatch.context() as patch:
            marches, calls = _transfer_marches(patch), _counted_sweeps(patch)
            sol = solve_bvp(system, Scheme.UPWIND1)
        assert [(columns, cells, arms) for columns, cells, arms, _ in marches] == expected
        assert calls == [] and sol.residual <= 1e-12
        assert np.abs(sol.values.T - swept).max() <= 1e-9 * np.abs(swept).max()


def test_shared_upwind1_arm_matches_two_marched_arms_to_the_bit(monkeypatch):
    # on a mirror-invariant system one arm is marched for both sides; with
    # both arms marched the edges and the field are the same to the bit.
    # With data of 100 entering at +l/2 alone, segment ends that read the
    # particular states would differ between the two
    flagship = make_system(1600)
    right_only = dataclasses.replace(flagship, boundary=tabulated_boundary(flagship.grid, {-1: 100.0}))
    marches = _transfer_marches(monkeypatch)
    for system in _symmetric_systems(np.random.default_rng(43)) + [flagship, right_only]:
        problem = assemble(system, Scheme.UPWIND1)
        marches.clear()
        shared = fd._upwind1_march(problem)
        with monkeypatch.context() as patch:
            patch.setattr(fd, "_mirror_invariant", lambda op: False)
            both = fd._upwind1_march(problem)
        assert [arms for _, _, arms, _ in marches] == [(False, True), (False,), (True,)]
        assert marches[0][3] == marches[1][3] == marches[2][3]
        assert np.array_equal(shared, both)


def test_upwind1_march_names_a_singular_end_system(monkeypatch):
    # with the marched states of the transfer march replaced after each
    # cell, segment ends included, by the unit vectors of channels 1, 2, ...,
    # no state of either arm's Q_S has an entry in channel 0, nor, reversed,
    # in channel m - 1, so row 0 of the matching system at x = 0 is zero
    march = fd._march

    def flattened(op, start, cells, sides=(False,), out=(), end=None):
        if out:
            return march(op, start, cells, sides, out, end)

        def replaced(c, states):
            states[...] = np.eye(*states.shape, 1)
            return end(c, states)

        return march(op, start, cells, sides, end=replaced)

    monkeypatch.setattr(fd, "_march", flattened)
    for make in (make_system, _asymmetric_system):
        with pytest.raises(SolverError, match=re.escape("upwind1 march: the matching system at x = 0 is singular")):
            fd._upwind1_march(assemble(make(10), Scheme.UPWIND1))



@pytest.mark.parametrize("system, arm, end", [
    (make_system(10), (False, True), "-"),
    (make_system(400, coeffs=(0.0, 100.0)), (False, True), "-"),
    (_asymmetric_system(10), (False,), "-"),
    (_asymmetric_system(400), (True,), "+"),
], ids=["flagship-10", "barrier-400", "s0.3-from-left", "s0.3-from-right"])
def test_upwind1_march_names_a_singular_segment_system(monkeypatch, system, arm, end):
    # a homogeneous state zeroed at the start of one arm's transfer march
    # stays zero, as the march is linear, and at the first segment end gives
    # R_0 of that arm a zero column, so its back-recurrence meets a zero
    # pivot; a shared arm runs the side from -l/2 first
    march = fd._march

    def zeroed(op, start, cells, sides=(False,), out=(), end=None):
        if out or sides != arm:
            return march(op, start, cells, sides, out, end)
        start = start.copy()
        start[0] = 0.0
        return march(op, start, cells, sides, end=end)

    monkeypatch.setattr(fd, "_march", zeroed)
    with pytest.raises(SolverError, match=re.escape(f"upwind1 march: R of segment 0 from {end}l/2 is singular")):
        fd._upwind1_march(assemble(system, Scheme.UPWIND1))

def test_upwind2_sweep_memory_is_bounded():
    # a one-arm sweep of the whole field with whole carries would keep |J|
    # columns for every block but the last.  Each block keeps only the
    # carry's rows that the next block's Schur update reads, half of them
    # for upwind2, and back substitution recovers the rest; of those it
    # stores only the rows and columns above the cut, the slow channels,
    # about a sixth of the entries.  On the flagship one arm is factored:
    # the traced peak is 0.114 of that here, 9.3 MB (the kept carries, the
    # field and the five-node middle block).  On the lattice s = 0.3 kappa
    # both arms are: 0.170, 14.1 MB.  The bounds leave a third on top
    for make, bound in ((make_system, 0.15), (_asymmetric_system, 0.23)):
        op = assemble(make(1600), Scheme.UPWIND2)
        arm = fd._node_blocks(op)
        one_arm = 8 * arm.J.size * (op.pinned.size - (arm.edges[1] - arm.edges[0]))
        tracemalloc.start()
        try:
            fd._block_sweep(op)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound * one_arm


def test_upwind1_first_march_meets_the_gate_on_a_strong_barrier():
    # marching half the period from each end, with segments cut where the
    # homogeneous states grow, the first march's gate here reads 1.9e-14,
    # a factor 20 from the bound
    op = assemble(make_system(1600, coeffs=(0.0, 100.0)), Scheme.UPWIND1)
    field = fd._upwind1_march(op)
    np.copyto(field, op.pinval, where=op.pinned)
    assert fd._gate(op, field)[0] <= 4e-13


def test_upwind1_solve_memory_is_bounded():
    # the march keeps Q_s and R_s per segment, not a carry per node: the
    # block sweep alone peaks at about 87 MB at Nx = 6400.  At Nx = 1600 the
    # solve peaks at 3.9 MB and the bound adds a third: a transfer march that
    # held a run of 129 state rows, not two, peaked at 6.2 MB there
    for Nx, bound in ((1600, 5.2e6), (6400, 40e6)):
        system = make_system(Nx)
        tracemalloc.start()
        try:
            solve_bvp(system, Scheme.UPWIND1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound


def _swept(op):
    """The block sweep's field with its inflow entries reset, and its gate residual."""
    field = fd._block_sweep(op)
    np.copyto(field, op.pinval, where=op.pinned)
    return field, fd._gate(op, field)[0]


def test_global_solve_of_central_reflects_nothing_over_random_inputs():
    # unlike the march, the block sweep does not start from the inflow
    # data, so f_{v<0}(-l/2) = b_right (the period map is the identity)
    # is a property of its solution, not of its start
    rng = np.random.default_rng(7)
    for _ in range(12):
        system = random_system(rng, max_harmonics=4, max_M=30)
        op = assemble(system, Scheme.CENTRAL)
        field, res = _swept(op)
        assert res <= 1e-12
        b = system.boundary.values
        neg = system.grid.velocities < 0
        assert np.abs(field[0, neg] - b[neg]).max() <= 1e-11 * np.abs(b).max()


def _zero_node_rows(monkeypatch, node):
    """Make every reader of the whole-field matrix's diagonals see the node's rows set to zero.

    A mirrored problem (the arm from +l/2) sees them at its node Nx - node.
    """
    diagonals, is_mirror = fd._diagonals, _made_mirrors(monkeypatch)

    def zero_node_rows(op, j0, j1):
        out = diagonals(op, j0, j1)
        j = op.system.mesh.Nx - node if is_mirror(op) else node
        if j0 <= j < j1:
            for coef in out.values():
                coef[j - j0] = 0.0
        return out

    monkeypatch.setattr(fd, "_diagonals", zero_node_rows)


def test_central_march_names_a_zero_pivot(monkeypatch):
    # rows of node 3 set to zero: the v > 0 half of cell 3 is empty, so the
    # first v > 0 column of its band finds no pivot
    problem = assemble(make_system(10), Scheme.CENTRAL)
    _zero_node_rows(monkeypatch, 3)
    with pytest.raises(SolverError, match="central march: cell 3 matrix is singular: zero pivot 41 of 80"):
        fd._central_march(problem)


# (system, node, cell) on Nx = 10: on the flagship one arm is marched for
# both sides over cells 1-5, so a cell is named with its mirror; on the
# lattice s = 0.3 kappa node 8 lies in the arm from +l/2 alone, whose second
# cell is cell 9 (the v>0 rows of node 9, the v<0 rows of node 8)
_BROKEN_CELLS = [
    (make_system, 3, "cell 3 (and, mirrored, cell 8)"),
    (_asymmetric_system, 8, "cell 9"),
]


def test_upwind1_march_names_a_zero_pivot(monkeypatch):
    # as for central; upwind1 solves only the v > 0 rows of a cell, and the
    # pivot still counts from its first channel, in the arm's order: the arm
    # from +l/2 reads the 40 v<0 rows of node 8 as its v>0 channels, after
    # its 41 v<0 ones
    for (make, node, cell), pivot in zip(_BROKEN_CELLS, ("41 of 80", "42 of 81")):
        problem = assemble(make(10), Scheme.UPWIND1)
        with monkeypatch.context() as patch:
            _zero_node_rows(patch, node)
            with pytest.raises(SolverError, match=re.escape(f"upwind1 march: {cell} matrix is singular: zero pivot {pivot}")):
                fd._upwind1_march(problem)


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
        swept, res = _swept(op)
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
