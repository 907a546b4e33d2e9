"""Observables, symmetry error, refinement studies, CSV round trips."""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from wignerdv import (
    DiscreteSolution,
    Scheme,
    StudyReport,
    StudyRow,
    build_mesh,
    build_system,
    build_velocity_grid,
    convergence_study,
    current,
    density,
    mono_energetic_boundary,
    scheme_difference,
    solve_bvp,
    symmetry_error,
    tabulated_boundary,
    write_csv,
)

from wignerdv import analysis
from wignerdv.verify import _current_deviation

from conftest import M_CHANNELS, make_system


def _hand_solution(system, F):
    F = np.asarray(F, dtype=float)
    return DiscreteSolution(values=F, system=system, scheme="central", residual=0.0)


def test_density_and_current_free_streaming():
    system = make_system(10, coeffs=(0.0,))
    sol = solve_bvp(system, Scheme.CENTRAL)
    # only the injected channel is occupied: density 1, current v_0
    assert density(sol) == pytest.approx(np.ones(11), abs=1e-13)
    v0 = 0.5 * system.grid.kappa
    assert current(sol) == pytest.approx(np.full(11, v0), abs=1e-12)


def test_density_of_symmetric_solution_is_even(solution_cache):
    sol = solution_cache("central", 100)
    n = density(sol)
    assert np.abs(n - n[::-1]).max() < 1e-10


def test_current_is_conserved_by_cell_scheme(solution_cache):
    sol = solution_cache("central", 100)
    J = current(sol)
    assert np.abs(J - J[0]).max() / abs(J[0]) < 1e-10


def test_current_deviation_shrinks_for_one_sided_scheme(solution_cache):
    devs = []
    for nx in (100, 400, 1600):
        J = current(solution_cache("upwind2", nx))
        devs.append(np.abs(J - J[0]).max() / abs(J[0]))
    assert devs[0] > devs[1] > devs[2]


def test_current_deviation_is_absolute_when_the_inflow_current_is_zero():
    # on Nx = 2 with channel 0 (v_0 = kappa/2) alone occupied, J = f v_0
    system = make_system(2)
    F = np.zeros((system.grid.size, 3))
    F[system.grid.position_of(0), 1] = 2.0
    assert _current_deviation(_hand_solution(system, F)) == system.grid.kappa    # |2 v_0 - 0|
    F[system.grid.position_of(0), 0] = 0.5
    assert _current_deviation(_hand_solution(system, F)) == 3.0                  # |2 v_0 - v_0/2| / (v_0/2)


def test_symmetry_error_of_even_field_is_zero():
    system = make_system(8)
    m = system.grid.size
    F = np.cos(2.0 * math.pi * system.mesh.nodes)[None, :] * np.ones((m, 1))
    assert symmetry_error(_hand_solution(system, F)) == 0.0


def test_symmetry_error_hand_value():
    # Nx = 2 on a unit period: dx = 0.5, velocity weight kappa/2.
    # A single unit entry at the left node mirrors onto the right node:
    # |1 - 0| dx + |0 - 1| dx = 1, scaled by kappa/2.
    system = make_system(2)
    m = system.grid.size
    F = np.zeros((m, 3))
    F[0, 0] = 1.0
    e = symmetry_error(_hand_solution(system, F))
    assert e == pytest.approx(0.5 * math.pi * 1.0, rel=1e-14)


def test_symmetry_error_center_column_drops_out():
    system = make_system(4)
    m = system.grid.size
    F = np.zeros((m, 5))
    F[3, 2] = 7.0  # the center node mirrors onto itself
    assert symmetry_error(_hand_solution(system, F)) == 0.0


@pytest.mark.parametrize("k", [1020, -600])
def test_l1_measures_reach_the_float_limit_exactly(k):
    # data 2^1020 puts the plain L1 sums past the float range, while e_sym
    # and the scheme difference themselves fit: both are then summed on the
    # field scaled to order one, so they are 2^k times those of data 1, as
    # they are at 2^-600, where the plain sums are exact.  On data 1 e_sym
    # is, to the bit, the plain sum of measure * sum |f_j - f_{Nx-j}| over
    # each run of analysis._RUN_NODES nodes (here one run, and three on a
    # random field at Nx=1200)
    system = make_system(10)
    fine = replace(system, mesh=build_mesh(system.potential.period_l, 20))

    def measures(value):
        data = {"boundary": tabulated_boundary(system.grid, {0: value, 1: value})}
        a, b = (solve_bvp(replace(s, **data), Scheme.UPWIND1) for s in (system, fine))
        return a, symmetry_error(a), scheme_difference(a, b)

    (unit, *plain), (big, *scaled) = measures(1.0), measures(math.ldexp(1.0, k))
    measure = 0.5 * system.grid.kappa * system.mesh.dx
    F, G = unit.values, big.values

    def run_sums(F, measure):
        runs = [slice(j, j + analysis._RUN_NODES) for j in range(0, F.shape[1], analysis._RUN_NODES)]
        return np.sum([measure * np.abs(F[:, run] - F[:, ::-1][:, run]).sum() for run in runs])

    assert plain[0] == run_sums(F, measure)
    wide = make_system(1200)
    H = np.random.default_rng(7).standard_normal((wide.grid.size, 1201))
    assert symmetry_error(_hand_solution(wide, H)) == run_sums(H, 0.5 * wide.grid.kappa * wide.mesh.dx)
    assert plain[0] == pytest.approx(3.3866, rel=1e-4)
    with np.errstate(over="ignore"):
        assert np.isfinite(np.abs(G - G[:, ::-1]).sum()) == (k < 0)
    assert scaled == [math.ldexp(e, k) for e in plain]


@pytest.mark.parametrize("k", [1020, -600])
def test_density_and_current_reach_the_float_limit_exactly(k):
    # data 2^1020 overflows the plain current at 15 nodes, while the current
    # itself fits; the field is exactly 2^k times that of data 1, and so are
    # both observables, with no overflow warning.  On data 1 they are the
    # plain channel sums to the bit, summed channel after channel as numpy
    # sums a C-ordered field (the solution's values are the transpose of
    # the node-major field, whose own sum over channels numpy would pair),
    # in either layout and over runs of analysis._RUN_NODES nodes whose last
    # holds one node (Nx=1024)
    system = make_system(100)

    def solution(value):
        return solve_bvp(replace(system, boundary=tabulated_boundary(system.grid, {0: value})), Scheme.CENTRAL)

    unit, scaled = solution(1.0), solution(math.ldexp(1.0, k))
    wide = make_system(1024)
    H = np.random.default_rng(3).standard_normal((wide.grid.size, 1025))
    for sol in (unit, _hand_solution(wide, H), _hand_solution(wide, np.asfortranarray(H))):
        v, F = sol.system.grid.velocities, np.ascontiguousarray(sol.values)
        assert np.array_equal(density(sol), F.sum(axis=0))
        assert np.array_equal(current(sol), (v[:, None] * F).sum(axis=0))
    assert np.array_equal(density(scaled), np.ldexp(density(unit), k))
    assert np.array_equal(current(scaled), np.ldexp(current(unit), k))
    assert np.isfinite(current(scaled)).all()


def test_scheme_difference_identical_is_zero(solution_cache):
    sol = solution_cache("central", 100)
    assert scheme_difference(sol, sol) == 0.0


def test_scheme_difference_requires_nesting_meshes():
    a = solve_bvp(make_system(10), Scheme.UPWIND1)
    b = solve_bvp(make_system(16), Scheme.UPWIND1)
    with pytest.raises(ValueError):
        scheme_difference(a, b)


def test_scheme_difference_on_nested_meshes(solution_cache):
    coarse = solution_cache("central", 100)
    fine = solution_cache("central", 400)
    d = scheme_difference(coarse, fine)
    assert 0.0 < d < 0.1
    # order of arguments must not matter
    assert scheme_difference(fine, coarse) == pytest.approx(d, rel=1e-14)


def test_scheme_difference_rejects_different_grids():
    a = solve_bvp(make_system(10), Scheme.UPWIND1)
    sys_b = make_system(10)
    small_grid = build_velocity_grid(sys_b.potential.kappa, 0.5 * sys_b.potential.kappa, 20, True)
    sys_small = build_system(
        sys_b.potential, small_grid, sys_b.mesh, mono_energetic_boundary(small_grid, 0)
    )
    b = solve_bvp(sys_small, Scheme.UPWIND1)
    with pytest.raises(ValueError):
        scheme_difference(a, b)


def test_convergence_study_zero_potential():
    system = make_system(4, coeffs=(0.0,))
    report = convergence_study(system, Scheme.UPWIND1, [2, 4])
    assert [row.Nx for row in report.rows] == [2, 4]
    for row in report.rows:
        assert row.scheme == "upwind1"
        assert row.symmetry_error < 1e-13
        assert row.runtime_s >= 0.0
        assert row.residual <= 1e-12


def test_convergence_study_rejects_bad_requests(monkeypatch):
    # every mesh is built before the first solve, so a bad size late in the
    # list is rejected before any mesh is solved
    import wignerdv.analysis as analysis_mod

    calls = []
    monkeypatch.setattr(analysis_mod, "solve_bvp", lambda *args, **kw: calls.append(args))
    with pytest.raises(ValueError):
        convergence_study(make_system(4), Scheme.UPWIND1, [])
    with pytest.raises(ValueError, match="even integer >= 2, got 7"):
        convergence_study(make_system(4), Scheme.UPWIND1, [4, 7])
    with pytest.raises(ValueError, match="even integer >= 2, got 0"):
        convergence_study(make_system(4), Scheme.UPWIND1, [4, 8, 0])
    assert calls == []


def test_convergence_study_rejects_non_integer_sizes(monkeypatch):
    import wignerdv.analysis as analysis_mod

    calls = []
    monkeypatch.setattr(analysis_mod, "solve_bvp", lambda *args, **kw: calls.append(args))
    with pytest.raises(ValueError, match="even integer >= 2, got 10.5"):
        convergence_study(make_system(4), "central", [10.5, 6.9])
    assert calls == []
    monkeypatch.undo()
    report = convergence_study(make_system(4), Scheme.UPWIND1, np.array([2, 4]))
    assert [row.Nx for row in report.rows] == [2, 4]


def test_convergence_study_records_failures_per_row(monkeypatch):
    # a solver failure on one mesh must not abort the others
    import wignerdv.analysis as analysis_mod
    from wignerdv import SolverError as SErr

    real = analysis_mod.solve_bvp

    def flaky(system, scheme, rel_tol=1e-12, **kw):
        if system.mesh.Nx == 8:
            raise SErr("synthetic failure", residual=0.5)
        return real(system, scheme, rel_tol=rel_tol, **kw)

    monkeypatch.setattr(analysis_mod, "solve_bvp", flaky)
    report = convergence_study(make_system(4), Scheme.UPWIND1, [4, 8, 12])
    assert len(report.rows) == 3
    assert not math.isnan(report.rows[0].symmetry_error)
    assert math.isnan(report.rows[1].symmetry_error)
    assert report.rows[1].residual == 0.5
    assert not math.isnan(report.rows[2].symmetry_error)


def test_convergence_study_accepts_oracle():
    system = make_system(4)
    report = convergence_study(system, "oracle", [10])
    row = report.rows[0]
    assert row.scheme == "oracle"
    assert row.symmetry_error < 1e-7


def test_write_csv_solution_round_trip(tmp_path):
    system = make_system(4)
    sol = solve_bvp(system, Scheme.CENTRAL)
    path = tmp_path / "solution.csv"
    write_csv(sol, path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "x, v, f"
    assert len(lines) == 1 + system.grid.size * (system.mesh.Nx + 1)
    # node-major ordering with exact float round trip on every line
    parsed = np.array([[float(cell) for cell in line.split(", ")] for line in lines[1:]])
    m = system.grid.size
    assert np.array_equal(parsed[:, 0], np.repeat(system.mesh.nodes, m))
    assert np.array_equal(parsed[:, 1], np.tile(system.grid.velocities, system.mesh.Nx + 1))
    assert np.array_equal(parsed[:, 2], sol.values.T.ravel())


def test_write_csv_study_round_trip(tmp_path):
    rows = (
        StudyRow(scheme="upwind1", Nx=100, symmetry_error=0.5, runtime_s=0.125, residual=1e-14),
        StudyRow(scheme="central", Nx=400, symmetry_error=1e-13, runtime_s=2.5, residual=3e-15),
    )
    path = tmp_path / "report.csv"
    write_csv(StudyReport(rows=rows), path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "scheme, Nx, symmetry_error, runtime_s, residual"
    parts = lines[1].split(", ")
    assert parts[0] == "upwind1"
    assert int(parts[1]) == 100
    assert float(parts[2]) == 0.5
    assert float(parts[4]) == 1e-14


def test_write_csv_profile(tmp_path):
    x = np.linspace(-0.5, 0.5, 11)
    val = np.sin(x)
    path = tmp_path / "density.csv"
    write_csv((x, val), path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "x, value"
    assert len(lines) == 12
    got = np.array([[float(p) for p in line.split(", ")] for line in lines[1:]])
    assert np.all(got[:, 0] == x)
    assert np.all(got[:, 1] == val)


def test_write_csv_rejects_unknown_objects(tmp_path):
    with pytest.raises(TypeError):
        write_csv({"not": "supported"}, tmp_path / "x.csv")
    with pytest.raises(ValueError):
        write_csv((np.zeros(3), np.zeros(4)), tmp_path / "y.csv")
    assert not any(tmp_path.iterdir())


# floats whose text a change of format would show: a failed solve's nan,
# signed zero and infinities, the smallest subnormal, the largest double,
# a NumPy scalar and a value whose shortest repr has fewer than 17 digits
_AWKWARD = (
    float("nan"), float("inf"), -float("inf"), -0.0, 5e-324, 1.7976931348623157e308, np.float64(1e-14), 0.1,
)


def _reference_csv(header, rows):
    """CSV text by the formula the writer must keep: text cells as given,
    floats through format(float(x), ".17g"), ", " between cells, and one
    newline after every line."""
    cells = (", ".join(c if isinstance(c, str) else format(float(c), ".17g") for c in row) for row in rows)
    return "\n".join([header, *cells]) + "\n"


def test_write_csv_solution_bytes_on_an_asymmetric_lattice(tmp_path):
    pot = make_system(6).potential
    grid = build_velocity_grid(pot.kappa, 0.3 * pot.kappa, M_CHANNELS, True)
    system = build_system(pot, grid, build_mesh(pot.period_l, 6), mono_energetic_boundary(grid, 0))
    assert grid.size == 81
    F = solve_bvp(system, Scheme.UPWIND1).values.copy()
    F[: len(_AWKWARD), 3] = _AWKWARD
    sol = _hand_solution(system, F)
    path = tmp_path / "solution.csv"
    write_csv(sol, path)
    rows = [(x, v, F[i, j]) for j, x in enumerate(system.mesh.nodes) for i, v in enumerate(grid.velocities)]
    assert path.read_bytes() == _reference_csv("x, v, f", rows).encode()


def test_write_csv_report_and_profile_bytes(tmp_path):
    values = list(_AWKWARD)
    rows = tuple(
        StudyRow(scheme="central", Nx=100 * (k + 1), symmetry_error=a, runtime_s=b, residual=c)
        for k, (a, b, c) in enumerate(zip(values, values[1:] + values[:1], values[2:] + values[:2]))
    )
    write_csv(StudyReport(rows=rows), tmp_path / "report.csv")
    expected = _reference_csv(
        "scheme, Nx, symmetry_error, runtime_s, residual",
        [(r.scheme, str(r.Nx), r.symmetry_error, r.runtime_s, r.residual) for r in rows],
    )
    assert (tmp_path / "report.csv").read_bytes() == expected.encode()
    x = np.linspace(-0.5, 0.5, len(values))
    write_csv((x, np.array(values)), tmp_path / "profile.csv")
    expected = _reference_csv("x, value", list(zip(x, values)))
    assert (tmp_path / "profile.csv").read_bytes() == expected.encode()
    write_csv((np.zeros(0), np.zeros(0)), tmp_path / "empty.csv")
    assert (tmp_path / "empty.csv").read_bytes() == b"x, value\n"


def test_write_csv_solution_memory_is_one_node(solution_cache, tmp_path):
    # the flagship at Nx=1600 writes 128 080 rows, about 8 MB of text; the
    # writer holds one node's 80 rows at a time (a traced peak of about
    # 0.03 MB at any Nx), where building the file's text first peaked at 31 MB
    sol = solution_cache("central", 1600)
    tracemalloc.start()
    try:
        write_csv(sol, tmp_path / "solution.csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.25e6


@pytest.mark.parametrize("scheme", [Scheme.CENTRAL, Scheme.UPWIND1])
def test_a_marched_solve_and_its_observables_hold_one_field(scheme):
    # the solution's values are the march's own field, the gate and the
    # observables hold one run of nodes at a time, and pinval is a fresh
    # zeros array written only on its end nodes.  tracemalloc counts all of
    # pinval's allocation, its unwritten zeros too, as one field, although
    # they take no resident memory; so the traced peak is about two fields
    # and the run temporaries: 2.56 field sizes for both schemes at
    # Nx=6400, where holding R, a dense pinval, a transposed copy of the
    # field and whole-field temporaries in symmetry_error and current
    # peaked at 3.40 (central) and 3.32 (upwind1)
    system = make_system(6400)
    field_size = (system.mesh.Nx + 1) * system.grid.size * 8
    tracemalloc.start()
    try:
        sol = solve_bvp(system, scheme)
        symmetry_error(sol), density(sol), current(sol)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.8 * field_size


def test_solution_has_negative_regions(solution_cache):
    # the distribution is a quasi-probability: interference makes it dip
    # below zero somewhere even though all inflow data is nonnegative
    sol = solution_cache("central", 100)
    assert sol.values.min() < 0.0


def test_scattering_occupies_fast_channels(solution_cache):
    # coupling moves weight to channels faster than the injected one
    sol = solution_cache("central", 100)
    grid = sol.system.grid
    v0 = grid.velocities[grid.position_of(0)]
    fast = np.abs(grid.velocities) > v0
    assert np.abs(sol.values[fast]).max() > 1e-6


def test_second_order_schemes_cluster_together(solution_cache):
    # on the same mesh the two second-order solutions are far closer to
    # each other than either is to the diffusive first-order one
    up2 = solution_cache("upwind2", 100)
    up1 = solution_cache("upwind1", 100)
    cen = solution_cache("central", 100)
    d_second = scheme_difference(cen, up2)
    d_first = scheme_difference(cen, up1)
    assert 0.0 < d_second < d_first
