"""Integral-equation propagator for the discrete-velocity transport system.

The system T f_x = A(x) f with invertible diagonal T = diag(v_i) is
equivalent on a subinterval [x_a, x] to

    f(x) = f(x_a) + integral_{x_a}^{x} T^{-1} A(y) f(y) dy,

a fixed-point problem whose Picard iteration contracts whenever the
subinterval is shorter than delta = min_i |v_i| / C with C the coupling
norm bound.  Longer hops are split into subintervals of at most
``_STEP_FRACTION`` * delta.  The integral is evaluated with composite
Simpson quadrature on ``_QUAD_PANELS`` panels per subinterval, and the
iteration stops once successive iterates differ by at most ``_PICARD_TOL``.

This gives a scheme-independent reference ("oracle"): propagator matrices
over arbitrary subintervals and a solver for the same inflow boundary
value problem that the finite-difference schemes discretize.  A(x) is
odd, so the propagator over one period is the identity (Arnold, Lange &
Zweifel, J. Math. Phys. 41 (2000)) and the outgoing state at -l/2 is the
right-end inflow.  The solver therefore needs no period matrix: it
marches the inflow data of both ends from -l/2 across the mesh.

One driver, ``_march``, does every propagation: it carries a channel
vector or a matrix of columns through monotone points in either
direction, one Picard iteration per run of intervals no longer than the
step, on the Simpson points of every interval.  The solver passes the
mesh nodes, ``picard_propagate`` and ``propagator_matrix`` pass their
two endpoints.
"""

from __future__ import annotations

import math

import numpy as np

from .fd import DiscreteSolution
from .kinetic import _NORM_FLOOR, WignerSystem, _in_range, _unit_scaled
from .potential import _apply, _bands, coupling_bound

__all__ = [
    "PropagatorError",
    "contraction_step",
    "picard_propagate",
    "propagator_matrix",
    "solve_bvp_shooting",
]

# Subinterval length as a fraction of the contraction step, in (0, 1).
_STEP_FRACTION = 0.5
# Stop when successive iterates differ by at most this in the channel-space
# Euclidean norm, uniformly over the quadrature points.
_PICARD_TOL = 1e-13
# Simpson panels per subinterval (2 * _QUAD_PANELS + 1 quadrature points).
_QUAD_PANELS = 8
# Hard cap on Picard sweeps per subinterval.
_MAX_PICARD_ITER = 200
# Sum the whole-panel Simpson totals slab by slab from this many entries per
# point, else by np.cumsum.  Measured on one core for 8 to 1000 panels: the
# slab loop costs 0.70-0.94 of np.cumsum from 256 entries (0.54 at verify's
# 80 x 80 matrices) and 1.25-1.41 of it at the oracle's 80-channel vectors
# from 56 panels on.
_SLAB_ENTRIES = 256

# The most pieces an interval may be cut into: as many as an array can index.
_MAX_PIECES = np.iinfo(np.intp).max

# Slack when checking that endpoints lie inside the period.
_DOMAIN_EPS = 1e-12


class PropagatorError(RuntimeError):
    """Picard iteration failed to reach the requested tolerance."""

    def __init__(self, message: str, gap: float = float("nan")):
        super().__init__(message)
        self.gap = gap


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


def _cumulative_simpson(g: np.ndarray, h) -> np.ndarray:
    """Cumulative integral along axis 0 of samples on Simpson panels.

    ``g`` has an odd number of points 2P + 1 and ``h`` is the point
    spacing, one value or one per panel.  Even points get composite
    Simpson sums of whole panels; odd points add the half-panel formula
    h/12 (5 g_{2q} + 8 g_{2q+1} - g_{2q+2}).  Works for negative h.  The
    whole-panel totals are summed one slab at a time where a point holds at
    least ``_SLAB_ENTRIES`` entries (the matrix marches), and by
    ``np.cumsum`` otherwise: along the strided even slots np.cumsum is slow
    on wide points, the slab loop on long runs of narrow ones.  Both add in
    panel order, so they give the same sums to the bit.
    """
    h = np.reshape(h, (-1,) + (1,) * (g.ndim - 1))
    g0, g1, g2 = g[0:-2:2], g[1::2], g[2::2]
    out = np.empty_like(g)
    even, odd = out[::2], out[1::2]
    even[0] = 0.0
    # in place: the odd slots first hold the whole-panel Simpson sums
    np.multiply(g1, 4.0, out=odd)
    odd += g0
    odd += g2
    odd *= h / 3.0
    if g[0].size >= _SLAB_ENTRIES:
        even[1:2] = odd[:1]
        for q in range(1, len(odd)):
            np.add(even[q], odd[q], out=even[q + 1])
    else:
        np.cumsum(odd, axis=0, out=even[1:])
    np.multiply(g1, 8.0, out=odd)
    odd -= g2
    odd += 5.0 * g0
    odd *= h / 12.0
    odd += even[:-1]
    return out


def _picard_run(system: WignerSystem, F0: np.ndarray, ys: np.ndarray, h) -> np.ndarray:
    """Picard iteration for f(y) = F0 + integral_{ys[0]}^{y} T^{-1} A f on the points ys.

    ``ys`` are the 2P + 1 points of P Simpson panels with spacing ``h``
    (one value or one per panel); ``F0`` is f(ys[0]), a channel vector or
    a matrix of channel columns.  Returns f at every point, shape
    (len(ys),) + F0.shape.  The caller keeps the span of ys below the
    contraction step times _STEP_FRACTION (or the coupling vanishes).
    """
    batch = (1,) * (F0.ndim - 1)
    inv_v = (1.0 / system.grid.velocities).reshape((-1,) + batch)
    # A(y) at every quadrature point, its coefs broadcast over channels and columns
    bands = _bands(system.potential, ys.reshape((-1, 1) + batch), system.grid.size)
    F = np.broadcast_to(F0, ys.shape + F0.shape).copy()
    gap = math.inf
    for _ in range(_MAX_PICARD_ITER):
        F_new = _cumulative_simpson(_apply(bands, F, axis=1), h)
        F_new *= inv_v
        F_new += F0
        # F now becomes the squared change; the gap is its largest channel norm
        F -= F_new
        F *= F
        gap = math.sqrt(float(F.sum(axis=1).max()))
        F = F_new
        if gap <= _PICARD_TOL:
            return F
    raise PropagatorError(
        f"Picard iteration stalled at gap {gap:.3e} (tol {_PICARD_TOL:.3e}) "
        f"on [{float(ys[0])!r}, {float(ys[-1])!r}]",
        gap=gap,
    )


def _cuts(x1: float, x2: float, step: float) -> np.ndarray:
    """Ends of the fewest equal pieces of [x1, x2] no longer than step."""
    return np.linspace(x1, x2, max(1, math.ceil(abs(x2 - x1) / step)) + 1)


def _check_domain(system: WignerSystem, x: float, name: str):
    half = 0.5 * system.potential.period_l
    if not (-half - _DOMAIN_EPS <= x <= half + _DOMAIN_EPS):
        raise ValueError(f"{name}={x!r} lies outside the period [{-half}, {half}]")


def _march(system: WignerSystem, F0: np.ndarray, points) -> np.ndarray:
    """F marched from F0 at points[0] through monotone points, shape (len(points),) + F0.shape.

    ``points`` ascend or descend; ``F0`` is a channel vector or a matrix
    of channel columns.  Every interval between consecutive points is cut
    into the fewest equal pieces no longer than the Picard step, each with
    _QUAD_PANELS Simpson panels, so the quadrature and the discrete fixed
    point are those of a per-interval chain.  Consecutive pieces are
    grouped into runs no longer than the step (whole mesh cells on a fine
    mesh, one piece of a long interval otherwise) and each run is one
    Picard iteration over all its points.  A zero-length interval returns
    its start state exactly.

    Raises:
        PropagatorError: the step is 0 (the coupling bound overflows), or
            an interval needs more pieces than an array can index; or a run
            stalls, and the message names the indices in ``points`` around
            it as mesh nodes.
    """
    points = np.asarray(points, dtype=float)
    panels = _QUAD_PANELS
    delta = contraction_step(system)
    step = _STEP_FRACTION * delta
    widest = float(np.abs(np.diff(points)).max(initial=0.0))
    if step == 0.0 or widest / step >= _MAX_PIECES:
        raise PropagatorError(f"the contraction step {delta:.3e} is too short: an interval of length "
                              f"{widest:.3e} would need more pieces than an array can index")
    # piece ends, and the position of every point among them
    pieces = [_cuts(float(a), float(b), step)[1:] for a, b in zip(points[:-1], points[1:])]
    xs = np.concatenate([points[:1]] + pieces)
    at_point = np.concatenate([[0], np.cumsum([p.size for p in pieces])])
    # direction-signed keys ascend either way
    keys = (np.sign(xs[-1] - xs[0]) or 1.0) * xs
    field = np.empty((points.size,) + F0.shape)
    field[0] = state = F0
    offsets = np.arange(2 * panels) / (2 * panels)
    s = 0
    while s < xs.size - 1:
        # the run covers pieces s..e-1; points lo..hi-1 lie in (xs[s], xs[e]]
        e = max(s + 1, int(np.searchsorted(keys, keys[s] + step, side="right")) - 1)
        lo, hi = np.searchsorted(at_point, [s, e], side="right")
        a, width = xs[s:e], np.diff(xs[s : e + 1])
        ys = np.append((a[:, None] + width[:, None] * offsets).ravel(), xs[e])
        try:
            F = _picard_run(system, state, ys, np.repeat(width / (2 * panels), panels))
        except PropagatorError as exc:
            last = int(np.searchsorted(at_point, e))
            raise PropagatorError(f"{exc}, between mesh nodes {lo - 1} and {last}", gap=exc.gap) from exc
        field[lo:hi] = F[2 * panels * (at_point[lo:hi] - s)]
        state = F[-1]
        s = e
    return field


def picard_propagate(system: WignerSystem, f_start, x1: float, x2: float) -> np.ndarray:
    """Propagate a channel vector from x1 to x2 (either direction).

    The vector is propagated scaled to order one by a power of two, so
    _PICARD_TOL acts relative to it (see ``kinetic._unit_scaled``).

    Args:
        system: the transport problem (boundary data is not used here).
        f_start: value of f at x1, indexed like grid.velocities.
        x1, x2: endpoints inside [-l/2, l/2].

    Returns:
        f(x2) as a new array.

    Raises:
        ValueError: endpoints outside the period, a bad vector shape or a
            non-finite entry (the message names its channel).
        PropagatorError: iteration cap hit before reaching _PICARD_TOL, or
            a result that overflows when scaled back.
    """
    fa = np.asarray(f_start, dtype=float)
    if fa.shape != (system.grid.size,):
        raise ValueError(f"f_start shape {fa.shape} does not match grid size {system.grid.size}")
    bad = np.flatnonzero(~np.isfinite(fa))
    if bad.size:
        raise ValueError(f"f_start is {fa[bad[0]]} in channel {system.grid.indices[bad[0]]}")
    _check_domain(system, float(x1), "x1")
    _check_domain(system, float(x2), "x2")
    unit, scale_back = _unit_scaled(fa, PropagatorError)
    return scale_back(_march(system, unit, [x1, x2])[-1])


def propagator_matrix(system: WignerSystem, x1: float, x2: float) -> np.ndarray:
    """Matrix of the map f(x1) -> f(x2), built by propagating a basis.

    All channel basis vectors propagate together, so the cost matches a
    single batched Picard run.  Same errors as picard_propagate.
    """
    _check_domain(system, float(x1), "x1")
    _check_domain(system, float(x2), "x2")
    return _march(system, np.eye(system.grid.size), [x1, x2])[-1]


def solve_bvp_shooting(system: WignerSystem) -> DiscreteSolution:
    """Solve the inflow boundary value problem by one march across the period.

    A(x) is odd, so the propagator over one period is the identity and
    the outgoing state at -l/2 equals the right-end inflow: the state
    at -l/2 is the inflow data of both ends, ``boundary.values``.  The
    march carries it across the whole period (no mirroring, so
    ``symmetry_error`` stays a measurement), one Picard iteration per
    run of mesh cells no longer than the Picard step.  The result carries
    scheme tag "oracle" and, as its residual, the marched end gap
    |f_{v<0}(+l/2) - right_inflow| / |inflow|: the period identity
    measured on the solution.  The pinned inflow entries are then set
    from the boundary data exactly.  The march carries the data divided by
    the power of two 2^k that puts their largest magnitude in [1, 2), so
    _PICARD_TOL acts relative to the data, and the field is multiplied back
    by 2^k (see ``kinetic._unit_scaled``).

    Raises:
        PropagatorError: a Picard run stalls (the message names its mesh
            nodes), or the field overflows when scaled back.
    """
    b, scale_back = _unit_scaled(system.boundary.values, PropagatorError)
    v = system.grid.velocities
    pos, neg = v > 0, v < 0
    values = _march(system, b, system.mesh.nodes).T.copy()
    gap = _in_range(np.linalg.norm, values[neg, -1] - b[neg]) / max(_in_range(np.linalg.norm, b), _NORM_FLOOR)
    # pin the inflow entries to the boundary data bit-exactly
    values[pos, 0] = b[pos]
    values[neg, -1] = b[neg]
    values = scale_back(values)
    values.flags.writeable = False
    return DiscreteSolution(values=values, system=system, scheme="oracle", residual=gap)
