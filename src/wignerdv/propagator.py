"""Integral-equation propagator for the discrete-velocity transport system.

The system T f_x = A(x) f with invertible diagonal T = diag(v_i) is
equivalent on a subinterval [x_a, x] to

    f(x) = f(x_a) + integral_{x_a}^{x} T^{-1} A(y) f(y) dy,

a fixed-point problem whose Picard iteration contracts whenever the
subinterval is shorter than delta = min_i |v_i| / C with C the coupling
norm bound.  Longer hops are split into subintervals of at most
step_fraction * delta.  The integral is evaluated with composite Simpson
quadrature on a fixed panel count per subinterval.

This gives a scheme-independent reference ("oracle"): propagator matrices
over arbitrary subintervals and a shooting solver for the same inflow
boundary value problem that the finite-difference schemes discretize.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fd import DiscreteSolution, SolverError
from .kinetic import WignerSystem
from .potential import _apply_sines, _sine_table, coupling_bound

__all__ = [
    "PropagatorOptions",
    "PropagatorMatrix",
    "PropagatorError",
    "contraction_step",
    "picard_propagate",
    "propagator_matrix",
    "solve_bvp_shooting",
]

# Hard cap on Picard sweeps per subinterval.
_MAX_PICARD_ITER = 200

# Slack when checking that endpoints lie inside the period.
_DOMAIN_EPS = 1e-12


class PropagatorError(RuntimeError):
    """Picard iteration failed to reach the requested tolerance."""

    def __init__(self, message: str, gap: float = float("nan")):
        super().__init__(message)
        self.gap = gap


@dataclass(frozen=True)
class PropagatorOptions:
    """Tuning knobs for the Picard propagation.

    Attributes:
        step_fraction: subinterval length as a fraction of the contraction
            step, strictly between 0 and 1.
        picard_tol: stop when successive iterates differ by less than this
            in the channel-space Euclidean norm, uniformly over the
            quadrature points.
        quad_panels: Simpson panels per subinterval (2 * quad_panels + 1
            quadrature points).
    """

    step_fraction: float = 0.5
    picard_tol: float = 1e-13
    quad_panels: int = 8

    def __post_init__(self):
        if not (0.0 < self.step_fraction < 1.0):
            raise ValueError(f"step_fraction must lie in (0, 1), got {self.step_fraction!r}")
        if not (math.isfinite(self.picard_tol) and self.picard_tol > 0.0):
            raise ValueError(f"picard_tol must be positive, got {self.picard_tol!r}")
        if int(self.quad_panels) != self.quad_panels or self.quad_panels < 1:
            raise ValueError(f"quad_panels must be a positive integer, got {self.quad_panels!r}")


@dataclass(frozen=True)
class PropagatorMatrix:
    """Linear map f(x1) -> f(x2) for the transport system."""

    matrix: np.ndarray
    x1: float
    x2: float


def contraction_step(system: WignerSystem) -> float:
    """Largest interval length with guaranteed Picard contraction.

    Equals min_i |v_i| / C where C = 2 sum |a_n|.  The minimum velocity
    magnitude on the shifted lattice is min(s, kappa - s).  A potential
    with no oscillating part gives C = 0 and the step is unbounded
    (returns inf).
    """
    C = coupling_bound(system.potential)
    if C == 0.0:
        return math.inf
    s = system.grid.s
    kappa = system.grid.kappa
    return min(s, kappa - s) / C


def _cumulative_simpson(g: np.ndarray, h: float) -> np.ndarray:
    """Cumulative integral along axis 0 of samples on a uniform grid.

    ``g`` has an odd number of points 2P + 1.  Even points get composite
    Simpson sums of whole panels; odd points add the half-panel formula
    h/12 (5 g_{2q} + 8 g_{2q+1} - g_{2q+2}).  Works for negative h.
    """
    npts = g.shape[0]
    panels = (npts - 1) // 2
    out = np.empty_like(g)
    whole = (h / 3.0) * (g[0:-2:2] + 4.0 * g[1::2] + g[2::2])
    even = np.zeros((panels + 1,) + g.shape[1:])
    np.cumsum(whole, axis=0, out=even[1:])
    odd = even[:-1] + (h / 12.0) * (5.0 * g[0:-2:2] + 8.0 * g[1::2] - g[2::2])
    out[::2] = even
    out[1::2] = odd
    return out


def _propagate_contractive(
    system: WignerSystem, F0: np.ndarray, x1: float, x2: float, options: PropagatorOptions
) -> np.ndarray:
    """One Picard subinterval: propagate the columns of F0 from x1 to x2.

    The caller guarantees |x2 - x1| is below the contraction step times
    step_fraction (or that the coupling vanishes).
    """
    coeffs = system.potential.coeffs
    if x1 == x2 or len(coeffs) == 1:
        return F0.copy()
    v = system.grid.velocities
    npts = 2 * int(options.quad_panels) + 1
    ys = np.linspace(x1, x2, npts)
    h = (x2 - x1) / (npts - 1)
    # one sine per quadrature point, broadcast over (npts, m, ncols)
    sines = _sine_table(system.potential, ys)[:, :, None, None]
    F = np.broadcast_to(F0[None, :, :], (npts,) + F0.shape).copy()
    inv_v = 1.0 / v
    gap = math.inf
    for _ in range(_MAX_PICARD_ITER):
        G = _apply_sines(coeffs, sines, F, axis=1)
        cum = _cumulative_simpson(G, h)
        F_new = F0[None, :, :] + inv_v[None, :, None] * cum
        gap = float(np.sqrt(((F_new - F) ** 2).sum(axis=1)).max())
        F = F_new
        if gap <= options.picard_tol:
            return F[-1]
    raise PropagatorError(
        f"Picard iteration stalled at gap {gap:.3e} (tol {options.picard_tol:.3e}) "
        f"on [{x1!r}, {x2!r}]",
        gap=gap,
    )


def _check_domain(system: WignerSystem, x: float, name: str):
    half = 0.5 * system.potential.period_l
    if not (-half - _DOMAIN_EPS <= x <= half + _DOMAIN_EPS):
        raise ValueError(f"{name}={x!r} lies outside the period [{-half}, {half}]")


def _propagate(
    system: WignerSystem, F0: np.ndarray, x1: float, x2: float, options: PropagatorOptions
) -> np.ndarray:
    """Split [x1, x2] into contractive subintervals and chain them."""
    delta = contraction_step(system)
    total = abs(x2 - x1)
    if total == 0.0:
        return F0.copy()
    if math.isinf(delta):
        n_sub = 1
    else:
        n_sub = max(1, int(math.ceil(total / (options.step_fraction * delta))))
    xs = np.linspace(x1, x2, n_sub + 1)
    F = F0
    for a, b in zip(xs[:-1], xs[1:]):
        F = _propagate_contractive(system, F, float(a), float(b), options)
    return F


def picard_propagate(
    system: WignerSystem,
    f_start,
    x1: float,
    x2: float,
    options: PropagatorOptions | None = None,
) -> np.ndarray:
    """Propagate a channel vector from x1 to x2 (either direction).

    Args:
        system: the transport problem (boundary data is not used here).
        f_start: value of f at x1, indexed like grid.velocities.
        x1, x2: endpoints inside [-l/2, l/2].
        options: Picard tuning; defaults to PropagatorOptions().

    Returns:
        f(x2) as a new array.

    Raises:
        ValueError: endpoints outside the period or bad vector shape.
        PropagatorError: iteration cap hit before reaching picard_tol.
    """
    opts = options or PropagatorOptions()
    fa = np.asarray(f_start, dtype=float)
    if fa.shape != (system.grid.size,):
        raise ValueError(f"f_start shape {fa.shape} does not match grid size {system.grid.size}")
    _check_domain(system, float(x1), "x1")
    _check_domain(system, float(x2), "x2")
    out = _propagate(system, fa[:, None], float(x1), float(x2), opts)
    return out[:, 0]


def propagator_matrix(
    system: WignerSystem,
    x1: float,
    x2: float,
    options: PropagatorOptions | None = None,
) -> PropagatorMatrix:
    """Matrix of the map f(x1) -> f(x2), built by propagating a basis.

    All channel basis vectors propagate together, so the cost matches a
    single batched Picard run.  Same errors as picard_propagate.
    """
    opts = options or PropagatorOptions()
    _check_domain(system, float(x1), "x1")
    _check_domain(system, float(x2), "x2")
    m = system.grid.size
    P = _propagate(system, np.eye(m), float(x1), float(x2), opts)
    return PropagatorMatrix(matrix=P, x1=float(x1), x2=float(x2))


def solve_bvp_shooting(
    system: WignerSystem, options: PropagatorOptions | None = None
) -> DiscreteSolution:
    """Solve the inflow boundary value problem by shooting.

    The unknown outgoing part u = f_{v<0}(-l/2) is found from the
    full-period propagator P by solving the dense system

        P_{neg,neg} u = right_inflow - P_{neg,pos} left_inflow,

    then the full state at -l/2 is marched node to node across the mesh
    to fill a (velocity, node) array.  Pinned inflow entries are set from
    the boundary data exactly.  The result carries scheme tag "oracle"
    and the relative residual of the dense shooting solve.

    Raises:
        SolverError: singular shooting matrix.
        PropagatorError: Picard failure during propagation.
    """
    opts = options or PropagatorOptions()
    grid = system.grid
    mesh = system.mesh
    m = grid.size
    half = 0.5 * system.potential.period_l
    v = grid.velocities
    pos = v > 0
    neg = v < 0

    b_left = system.boundary.values[pos]
    b_right = system.boundary.values[neg]

    P = propagator_matrix(system, -half, half, opts).matrix
    P_nn = P[np.ix_(neg, neg)]
    P_np = P[np.ix_(neg, pos)]
    rhs = b_right - P_np @ b_left
    try:
        u = np.linalg.solve(P_nn, rhs)
    except np.linalg.LinAlgError as exc:
        raise SolverError(
            f"shooting system is singular ({exc}); the truncated problem has "
            f"no unique outgoing state at this tolerance"
        )
    res = float(
        np.linalg.norm(P_nn @ u - rhs) / max(np.linalg.norm(rhs), 1e-300)
    )

    f_start = np.zeros(m)
    f_start[pos] = b_left
    f_start[neg] = u

    values = np.zeros((m, mesh.Nx + 1))
    values[:, 0] = f_start
    state = f_start
    for j in range(mesh.Nx):
        state = picard_propagate(system, state, float(mesh.nodes[j]), float(mesh.nodes[j + 1]), opts)
        values[:, j + 1] = state
    # pin the inflow entries to the boundary data bit-exactly
    values[pos, 0] = b_left
    values[neg, mesh.Nx] = b_right
    values.flags.writeable = False
    return DiscreteSolution(values=values, system=system, scheme="oracle", residual=res)
