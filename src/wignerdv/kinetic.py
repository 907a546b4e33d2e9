"""Discrete-velocity transport setup: velocity grid, spatial mesh, inflow data.

The velocity axis is the shifted lattice v_i = i kappa + s for integer i in a
truncated window.  The spatial mesh spans one period [-l/2, l/2] with an even
number of cells so that x = 0 is a node and the node set is mirror symmetric.
Inflow boundary data pins f at x = -l/2 for v > 0 and at x = +l/2 for v < 0.

The module also owns the float range, by one power of two 2^k per array
(``_unit_exponent``): ``_unit_scaled`` hands the solvers their data scaled
to order one, and ``_in_range`` is the one overflow-safe reduction, which
every norm, channel sum and L1 measure of a field goes through.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .potential import FourierPotential

__all__ = [
    "VelocityGrid",
    "SpatialMesh",
    "BoundaryData",
    "WignerSystem",
    "build_velocity_grid",
    "build_mesh",
    "mono_energetic_boundary",
    "tabulated_boundary",
    "build_system",
]

# Relative slack for the s = kappa/2 half-shift detection.
_HALF_SHIFT_RTOL = 1e-12


@dataclass(frozen=True)
class VelocityGrid:
    """Truncated shifted velocity lattice v_i = i kappa + s.

    Attributes:
        s: lattice shift, 0 < s < kappa.
        kappa: lattice spacing pi / l.
        i_min: smallest retained integer index.
        i_max: largest retained integer index.
        velocities: array of v_i for i = i_min ... i_max, ascending.
    """

    s: float
    kappa: float
    i_min: int
    i_max: int
    velocities: np.ndarray

    @property
    def indices(self) -> np.ndarray:
        """Integer lattice indices i_min ... i_max."""
        return np.arange(self.i_min, self.i_max + 1)

    @property
    def size(self) -> int:
        return self.i_max - self.i_min + 1

    def position_of(self, i: int) -> int:
        """Row position of lattice index i inside the stored arrays.

        Raises:
            ValueError: if i is not an integer (int or NumPy integer; a bool
                or a float is rejected however integral) or lies outside
                [i_min, i_max].
        """
        if isinstance(i, bool) or not isinstance(i, numbers.Integral):
            raise ValueError(f"velocity index {i!r} is not an integer")
        if not (self.i_min <= i <= self.i_max):
            raise ValueError(f"velocity index {i} outside [{self.i_min}, {self.i_max}]")
        return int(i - self.i_min)


@dataclass(frozen=True)
class SpatialMesh:
    """Uniform mesh on [-l/2, l/2] with an even number of cells.

    Attributes:
        Nx: number of cells; Nx + 1 nodes.
        dx: cell width l / Nx.
        nodes: node coordinates, exactly mirror symmetric about 0.
    """

    Nx: int
    dx: float
    nodes: np.ndarray


@dataclass(frozen=True)
class BoundaryData:
    """Inflow values pinned at the domain ends.

    ``values`` is indexed like ``grid.velocities``; entries at v > 0 are the
    left-end inflow, entries at v < 0 the right-end inflow.  All entries are
    finite and nonnegative.
    """

    grid: VelocityGrid
    values: np.ndarray


@dataclass(frozen=True)
class WignerSystem:
    """One period of the stationary transport problem.

    Bundles the potential, the truncated velocity grid, the spatial mesh and
    the inflow data.  The grid spacing always equals pi / potential.period_l.
    """

    potential: FourierPotential
    grid: VelocityGrid
    mesh: SpatialMesh
    boundary: BoundaryData


def build_velocity_grid(kappa: float, s: float, M: int, symmetric: bool = True) -> VelocityGrid:
    """Truncate the velocity lattice to a window of about 2M + 1 indices.

    With ``symmetric`` set and s = kappa/2 the window is i in [-M, M-1], which
    makes the velocity set symmetric under v -> -v: the v > 0 half is built
    and negated, as ``build_mesh`` builds the nodes, so v == -v[::-1] holds
    to the bit.  Otherwise the window is i in [-M, M].

    Raises:
        ValueError: if kappa is not positive, s is outside (0, kappa) (a
            bool is rejected for either), M is not an integer >= 1 (int
            or NumPy integer; a bool or a float is rejected however
            integral) or the window's largest velocity, i_max kappa + s,
            is past the float range.
    """
    if isinstance(kappa, bool) or not (math.isfinite(kappa) and kappa > 0):
        raise ValueError(f"kappa must be positive, got {kappa!r}")
    if isinstance(s, bool) or not (math.isfinite(s) and 0.0 < s < kappa):
        raise ValueError(f"shift s must lie strictly inside (0, kappa), got s={s!r}")
    if isinstance(M, bool) or not (isinstance(M, numbers.Integral) and M >= 1):
        raise ValueError(f"M must be an integer >= 1, got {M!r}")
    M = int(M)
    antisymmetric = symmetric and abs(s - 0.5 * kappa) <= _HALF_SHIFT_RTOL * kappa
    i_min, i_max = -M, M - 1 if antisymmetric else M
    # v_{i_max} is the largest velocity in magnitude, computed as the array computes it
    if not math.isfinite(i_max * kappa + s):
        raise ValueError(f"M = {M} puts v_{i_max} = {i_max} kappa + s past the float range for kappa = {kappa!r}")
    if antisymmetric:
        upper = np.arange(M) * kappa + s
        velocities = np.concatenate([-upper[::-1], upper])
    else:
        velocities = np.arange(i_min, i_max + 1) * kappa + s
    velocities.flags.writeable = False
    return VelocityGrid(s=float(s), kappa=float(kappa), i_min=i_min, i_max=i_max, velocities=velocities)


def build_mesh(period_l: float, Nx: int) -> SpatialMesh:
    """Uniform mesh of Nx cells on [-l/2, l/2] with bitwise mirror symmetry.

    Nodes are built on the left half and reflected, so nodes[Nx - j] is the
    exact floating-point negation of nodes[j] and nodes[Nx // 2] is 0.0.

    Raises:
        ValueError: if period_l is not a positive real (a bool is
            rejected) or Nx is not an even integer >= 2 (int or NumPy
            integer; a float is rejected).
    """
    if isinstance(period_l, bool) or not (isinstance(period_l, numbers.Real) and math.isfinite(period_l)
                                          and period_l > 0):
        raise ValueError(f"period_l must be positive, got {period_l!r}")
    if not (isinstance(Nx, numbers.Integral) and Nx >= 2 and Nx % 2 == 0):
        raise ValueError(f"Nx must be an even integer >= 2, got {Nx}")
    dx = period_l / Nx
    half = Nx // 2
    lower = -0.5 * period_l + np.arange(half) * dx
    nodes = np.concatenate([lower, [0.0], -lower[::-1]])
    nodes.flags.writeable = False
    return SpatialMesh(Nx=int(Nx), dx=float(dx), nodes=nodes)


def mono_energetic_boundary(grid: VelocityGrid, i0: int) -> BoundaryData:
    """Unit injection in the single velocity channel i0.

    The channel must carry positive velocity (left-end inflow).

    Raises:
        ValueError: if i0 is not an integer (see ``position_of``), is
            outside the grid or v_{i0} <= 0.
    """
    pos = grid.position_of(i0)
    if grid.velocities[pos] <= 0:
        raise ValueError(f"boundary channel i0={i0} has non-positive velocity {float(grid.velocities[pos])!r}")
    values = np.zeros(grid.size)
    values[pos] = 1.0
    values.flags.writeable = False
    return BoundaryData(grid=grid, values=values)


def tabulated_boundary(grid: VelocityGrid, table: dict) -> BoundaryData:
    """Inflow data from a mapping of lattice index to value.

    Keys with positive velocity feed the left end, keys with negative
    velocity the right end.  Unlisted channels inject nothing.

    Raises:
        ValueError: on keys that are not integers (see ``position_of``) or
            out of range, or on negative/non-finite values.
    """
    values = np.zeros(grid.size)
    for i, val in table.items():
        pos = grid.position_of(i)
        v = float(val)
        if not math.isfinite(v) or v < 0.0:
            raise ValueError(f"boundary value for index {i} must be finite and nonnegative, got {v!r}")
        values[pos] = v
    values.flags.writeable = False
    return BoundaryData(grid=grid, values=values)


def build_system(
    potential: FourierPotential,
    grid: VelocityGrid,
    mesh: SpatialMesh,
    boundary: BoundaryData,
) -> WignerSystem:
    """Assemble a WignerSystem and check cross-component consistency.

    Raises:
        ValueError: if the grid spacing does not match pi / period_l, the
            mesh does not span one period, or the boundary grid differs.
    """
    if not math.isclose(grid.kappa, potential.kappa, rel_tol=1e-12):
        raise ValueError("velocity grid spacing must equal pi / period_l of the potential")
    # dx against l / Nx, not Nx dx against l: Nx dx overflows when dx rounds up near the largest double
    if not math.isclose(mesh.dx, potential.period_l / mesh.Nx, rel_tol=1e-12):
        raise ValueError("mesh must span exactly one period of the potential")
    if boundary.grid is not grid and not (
        boundary.grid.i_min == grid.i_min
        and boundary.grid.i_max == grid.i_max
        and math.isclose(boundary.grid.s, grid.s, rel_tol=1e-15)
        and math.isclose(boundary.grid.kappa, grid.kappa, rel_tol=1e-15)
    ):
        raise ValueError("boundary data was built for a different velocity grid")
    return WignerSystem(potential=potential, grid=grid, mesh=mesh, boundary=boundary)


# Guard against division by a zero norm, as in |r| / max(|b|, _NORM_FLOOR).
_NORM_FLOOR = 1e-300


def _unit_exponent(peak: float) -> int:
    """The k that puts peak in [2^k, 2^(k + 1)), or 0 if peak is 0."""
    return math.frexp(peak)[1] - 1 if peak > 0.0 else 0


def _unit_scaled(values: np.ndarray, error: type) -> tuple:
    """values divided by 2^k, and the map of a result back.

    k puts the largest magnitude of values in [1, 2) (``_unit_exponent``),
    so a solver's tolerances act on data of order one and the norms of the
    data neither overflow nor underflow.  Scaling by a power of two is
    exact, so a solver works on the scaled values and multiplies its
    result by 2^k with the returned function, which scales the solver's
    own field in place and returns it, so a solve holds no second field;
    relative residuals are unchanged.  That function raises ``error``,
    leaving the field as it was, if the result would overflow: the
    largest magnitude overflows iff some entry does, as the scaling is
    monotone.
    """
    peak = float(np.abs(values).max())
    k = _unit_exponent(peak)

    def scale_back(field: np.ndarray) -> np.ndarray:
        if not k:
            return field
        top = max(float(field.max()), -float(field.min()))      # max|f| without a copy; NaN stays NaN
        with np.errstate(over="ignore"):
            if not math.isfinite(np.ldexp(top, k)):
                raise error(f"the field overflows: max|f| = {top:.3e} times 2^{k} for data up to {peak:.3e}")
        return np.ldexp(field, k, out=field)

    return (np.ldexp(values, -k) if k else values), scale_back


def _in_range(reduce, *arrays):
    """reduce(*arrays), kept in the float range by a power of two.

    The one overflow-safe reduction of the package: the Euclidean norms of
    the residual gate and its |b|, the oracle's end gap and the coupling
    check, the channel sums of ``density`` and ``current``, and the L1
    measures of ``symmetry_error`` and ``scheme_difference``.  It is
    reduce(*arrays) wherever that is finite, to the bit.  At each entry of
    the result where it is not, it is 2^k reduce(a 2^-k, ...), k from
    ``_unit_exponent`` of the arrays' largest magnitude: the scaling is exact
    but for entries it takes below the normal range, so a result past the
    float range reads inf and any other is exact.  A non-finite input gives
    inf or NaN.  No warning either way; a result of one number is a float.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        total = reduce(*arrays)
        lost = ~np.isfinite(total)
        if lost.any():
            k = _unit_exponent(max(float(np.abs(a).max()) for a in arrays))
            scale = math.ldexp(1.0, -k)
            total = np.where(lost, np.ldexp(reduce(*(a * scale for a in arrays)), k), total)
    return total if np.ndim(total) else float(total)
