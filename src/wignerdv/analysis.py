"""Observables, mirror-symmetry diagnostics, refinement studies, CSV output.

The symmetry error measures how far a computed solution is from being
even in x.  It is the discrete L1 mirror defect

    e_sym = (kappa / 2) * dx * sum_{i,j} |f_{i,j} - f_{i,Nx-j}|,

i.e. each (channel, node) cell carries the phase-space measure
dx * kappa / 2, half the channel spacing.  Density and current are the
channel sums n_j = sum_i f_{i,j} and J_j = sum_i v_i f_{i,j}.  All three
reduce the field a run of ``_RUN_NODES`` nodes at a time (``_node_runs``),
so their temporaries hold one run, never a whole field, and each run is
kept in the float range by the one overflow-safe reduction,
``kinetic._in_range``.  Density and current are the plain channel sums
wherever those are finite, to the bit; the L1 measures are the plain sum
of the runs' measured sums, measure * sum |f - g| over each run's nodes.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace

import numpy as np

from .fd import DiscreteSolution, Scheme, SolverError, solve_bvp
from .kinetic import WignerSystem, _in_range, build_mesh
from .propagator import PropagatorError, solve_bvp_shooting

# Scheme tags: the finite-difference stencils, then the Picard oracle.
_SCHEMES = (*(s.value for s in Scheme), "oracle")

__all__ = [
    "density",
    "current",
    "symmetry_error",
    "scheme_difference",
    "StudyRow",
    "StudyReport",
    "convergence_study",
    "write_csv",
]


def density(sol: DiscreteSolution) -> np.ndarray:
    """Channel sum n_j = sum_i f_{i,j}, one value per mesh node (``_channel_sum``)."""
    return _channel_sum(sol.values)


def current(sol: DiscreteSolution) -> np.ndarray:
    """Velocity-weighted channel sum J_j = sum_i v_i f_{i,j} per node (``_channel_sum``)."""
    return _channel_sum(sol.values, sol.system.grid.velocities[:, None])


# mesh nodes whose terms an observable reduces at once
_RUN_NODES = 512


def _node_runs(reduce, *arrays) -> np.ndarray:
    """reduce of each run of ``_RUN_NODES`` nodes of the (m, Nx + 1) arrays, kept in the float range, joined.

    reduce takes the runs' (m, nodes) blocks and returns a value per node
    or one value; each call goes through ``kinetic._in_range``.
    """
    runs = [slice(j0, j0 + _RUN_NODES) for j0 in range(0, arrays[0].shape[1], _RUN_NODES)]
    return np.hstack([_in_range(reduce, *(a[:, run] for a in arrays)) for run in runs])


def _channel_sum(F: np.ndarray, weights=None) -> np.ndarray:
    """sum_i weights_i F_{i,j} per node, a run of nodes at a time (``_node_runs``).

    Each run is summed channel after channel, as numpy sums a C-ordered F
    of more than one node, so the sums are those to the bit, whatever the
    layout of F or the width of a run (numpy sums one node's channels, or
    those of a Fortran-ordered F, pairwise).
    """
    def run_sum(G):
        return np.cumsum(G if weights is None else weights * G, axis=0)[-1]     # cumsum adds in order

    return _node_runs(run_sum, F)


def symmetry_error(sol: DiscreteSolution) -> float:
    """Discrete L1 mirror defect of the solution, see module docstring.

    The mesh is mirror symmetric by construction, so node Nx - j sits at
    exactly -x_j and no interpolation is involved.
    """
    F = sol.values
    return _l1_distance(F, F[:, ::-1], 0.5 * sol.system.grid.kappa * sol.system.mesh.dx)


def scheme_difference(a: DiscreteSolution, b: DiscreteSolution) -> float:
    """L1 distance between two solutions on nesting meshes.

    Solutions must share the velocity grid; the finer mesh must be an
    integer refinement of the coarser.  The difference is integrated on
    the coarse nodes with the same cell measure as symmetry_error.

    Raises:
        ValueError: mismatched grids or non-nesting meshes.
    """
    ga, gb = a.system.grid, b.system.grid
    if ga.size != gb.size or not math.isclose(ga.s, gb.s) or not math.isclose(ga.kappa, gb.kappa):
        raise ValueError("solutions use different velocity grids")
    coarse, fine = (a, b) if a.system.mesh.Nx <= b.system.mesh.Nx else (b, a)
    n_c = coarse.system.mesh.Nx
    n_f = fine.system.mesh.Nx
    if n_f % n_c != 0:
        raise ValueError(f"meshes with Nx={n_c} and Nx={n_f} do not nest")
    stride = n_f // n_c
    return _l1_distance(coarse.values, fine.values[:, ::stride], 0.5 * ga.kappa * coarse.system.mesh.dx)


def _l1_distance(F: np.ndarray, G: np.ndarray, measure: float) -> float:
    """The sum over runs of nodes of measure * sum |F - G| on the run (``_node_runs``), kept in the float range."""
    def measured(F, G):
        D = np.subtract(F, G)
        return measure * np.abs(D, out=D).sum()

    return _in_range(np.sum, _node_runs(measured, F, G))


def _solve(system: WignerSystem, scheme: str, rel_tol: float) -> DiscreteSolution:
    """Solve with the solver a scheme tag names; "oracle" is the Picard march."""
    if scheme == "oracle":
        return solve_bvp_shooting(system)
    return solve_bvp(system, scheme, rel_tol=rel_tol)


@dataclass(frozen=True)
class StudyRow:
    """One (scheme, mesh) record of a refinement study.

    A failed solve records nan for the symmetry error and whatever
    residual the solver reported.
    """

    scheme: str
    Nx: int
    symmetry_error: float
    runtime_s: float
    residual: float


@dataclass(frozen=True)
class StudyReport:
    """Ordered collection of refinement-study rows."""

    rows: tuple


def convergence_study(system: WignerSystem, scheme, Nx_list, rel_tol: float = 1e-12) -> StudyReport:
    """Solve one scheme across a list of mesh sizes and collect errors.

    The system is rebuilt on each mesh; potential, velocity grid and
    boundary data are shared.  Solver failures are recorded in the row
    (symmetry_error = nan) instead of aborting the remaining meshes.
    ``scheme`` accepts the finite-difference Scheme values or "oracle".

    Raises:
        ValueError: empty Nx_list or an invalid mesh size.
    """
    meshes = [build_mesh(system.potential.period_l, n) for n in Nx_list]
    if not meshes:
        raise ValueError("Nx_list must not be empty")
    scheme_tag = "oracle" if scheme == "oracle" else Scheme(scheme).value
    rows = []
    for mesh in meshes:
        sys_n = replace(system, mesh=mesh)
        t0 = time.perf_counter()
        try:
            sol = _solve(sys_n, scheme_tag, rel_tol)
        except (SolverError, PropagatorError) as exc:
            sol, residual = None, float(getattr(exc, "residual", float("nan")))
        runtime = time.perf_counter() - t0
        rows.append(
            StudyRow(
                scheme=scheme_tag,
                Nx=mesh.Nx,
                symmetry_error=float("nan") if sol is None else symmetry_error(sol),
                runtime_s=runtime,
                residual=residual if sol is None else sol.residual,
            )
        )
    return StudyReport(rows=tuple(rows))


def write_csv(obj, path) -> None:
    """Write a solution, a study report, or an (x, value) profile as CSV.

    DiscreteSolution: header "x, v, f", node-major rows.
    StudyReport: header "scheme, Nx, symmetry_error, runtime_s, residual".
    (x, value) pair of equal-length 1-D arrays: header "x, value".
    Floats carry 17 significant digits ("%.17g") so parsing them back is
    exact.  Rows are streamed to the file: a solution a node at a time, from
    one text template of a node's m rows that holds the velocities, so the
    writer keeps one node's text, not the file's.

    Raises:
        TypeError: an object of another type, before the file is opened.
        ValueError: a profile that is not two equal-length 1-D arrays,
            before the file is opened.
    """
    if isinstance(obj, DiscreteSolution):
        header = "x, v, f"
        node = "".join(f"<x>, {v:.17g}, %.17g\n" for v in obj.system.grid.velocities.tolist())
        rows = (
            node.replace("<x>", "%.17g" % x) % tuple(f.tolist())
            for x, f in zip(obj.system.mesh.nodes, obj.values.T)
        )
    elif isinstance(obj, StudyReport):
        header = "scheme, Nx, symmetry_error, runtime_s, residual"
        rows = (
            "%s, %s, %.17g, %.17g, %.17g\n" % (r.scheme, r.Nx, r.symmetry_error, r.runtime_s, r.residual)
            for r in obj.rows
        )
    elif isinstance(obj, tuple) and len(obj) == 2:
        x, val = np.asarray(obj[0], dtype=float), np.asarray(obj[1], dtype=float)
        if x.ndim != 1 or x.shape != val.shape:
            raise ValueError("profile must be a pair of equal-length 1-D arrays")
        header = "x, value"
        rows = ("%.17g, %.17g\n" % xv for xv in zip(x.tolist(), val.tolist()))
    else:
        raise TypeError(f"cannot serialize object of type {type(obj).__name__}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        fh.writelines(rows)
