"""Finite-difference schemes for the discrete-velocity transport system.

All schemes discretize v f_x = (A f) on the period mesh, pin the inflow
rows (x = -l/2 for v > 0, x = +l/2 for v < 0) and solve the resulting
sparse linear system.  Three stencils are provided:

  upwind1  first-order one-sided differences against the flow.
  upwind2  second-order one-sided differences, falling back to first
           order at the single node next to each inflow end.
  central  cell form: first-order differences across each cell matched
           with the average of the coupling term at the two cell ends,
           which is second-order accurate and mirror-consistent.

Each stencil is written once, in ``assemble``.  The central scheme is
solved without a global factorization: A(x) is odd and the mesh mirror
symmetric, so its discrete map over one period is the identity and the
boundary value problem is one forward march of banded solves from the
inflow data of both ends (``_central_march``), O(Nx m nmax) work.  The
march is gated on the residual of the assembled system.  The one-sided
schemes, and a central march that misses the gate, go through a sparse
LU factorization up to 600k unknowns and through a block tridiagonal
sweep above that, whose blocks are cut from the assembled matrix at
mesh-node boundaries, so memory grows with one dense velocity-by-velocity
carry per node instead of the LU fill.  Both share one step of iterative
refinement and the residual gate.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import lu_factor, lu_solve, solve_banded

from .kinetic import WignerSystem
from .potential import _apply_sines, _sine_table

__all__ = [
    "Scheme",
    "LinearProblem",
    "DiscreteSolution",
    "SolverError",
    "assemble",
    "residual_norm",
    "solve_bvp",
]

# Above this many unknowns the sparse LU fill outgrows the block sweep.
_DIRECT_LIMIT = 600_000

# Guard against division by a zero right-hand-side norm.
_NORM_FLOOR = 1e-300


class Scheme(str, enum.Enum):
    """Finite-difference stencil selector."""

    UPWIND1 = "upwind1"
    UPWIND2 = "upwind2"
    CENTRAL = "central"


class SolverError(RuntimeError):
    """Linear solve failed or missed the requested residual tolerance."""

    def __init__(self, message: str, residual: float = float("nan")):
        super().__init__(message)
        self.residual = residual


@dataclass(frozen=True)
class LinearProblem:
    """Assembled sparse system plus scatter bookkeeping.

    ``matrix`` and ``rhs`` describe the reduced system over non-pinned
    unknowns.  ``free`` flags, in node-major (node, velocity) order, which
    entries of the full field are unknowns; the reduced vector lists them
    in ascending order of that flat index.
    """

    matrix: sp.csr_matrix
    rhs: np.ndarray
    free: np.ndarray
    n_velocities: int
    n_nodes: int


@dataclass(frozen=True)
class DiscreteSolution:
    """Solution field on the (velocity, node) array plus solve metadata.

    Attributes:
        values: array of shape (grid.size, Nx + 1).
        system: the system that was solved.
        scheme: stencil tag, one of the Scheme values or "oracle".
        residual: relative residual of the linear system that produced it.
    """

    values: np.ndarray
    system: WignerSystem
    scheme: str
    residual: float


def _pinned_mask_and_values(system: WignerSystem):
    """Flags and values of the pinned inflow entries in node-major order."""
    m = system.grid.size
    Nx = system.mesh.Nx
    v = system.grid.velocities
    pos = v > 0
    neg = v < 0
    N = m * (Nx + 1)
    pinned = np.zeros(N, dtype=bool)
    pinval = np.zeros(N)
    kpos = np.where(pos)[0]
    kneg = np.where(neg)[0]
    pinned[kpos] = True                      # node 0 occupies flat indices 0..m-1
    pinval[kpos] = system.boundary.values[kpos]
    pinned[Nx * m + kneg] = True
    pinval[Nx * m + kneg] = system.boundary.values[kneg]
    return pinned, pinval


def _emit_transport(sink: list, m: int, J: np.ndarray, K: np.ndarray, dj: int, coef: np.ndarray):
    """Transport leg: row (k, j) gets coefficient coef[k] on column (k, j + dj).

    Appends (rows, cols, data) in flat node-major indexing to ``sink``.
    """
    if J.size == 0 or K.size == 0:
        return
    rows = J[:, None] * m + K[None, :]
    cols = (J + dj)[:, None] * m + K[None, :]
    sink.append((rows, cols, np.broadcast_to(coef[None, :], rows.shape)))


def _emit_coupling(
    sink: list,
    m: int,
    coeffs: np.ndarray,
    sv: np.ndarray,
    J_rows: np.ndarray,
    J_cols: np.ndarray,
    K: np.ndarray,
    weight: float,
):
    """Coupling legs moved to the left-hand side.

    For each n the equation at row (k, j) gains
      -weight * a_n * sv[n-1, J_cols] on column (k - n, node J_cols)
      +weight * a_n * sv[n-1, J_cols] on column (k + n, node J_cols)
    matching  v f_x - (coupling) = 0  with the coupling evaluated at the
    column node (J_cols may differ from J_rows for cell-averaged forms).
    """
    if J_rows.size == 0 or K.size == 0:
        return
    nmax = sv.shape[0]
    for n in range(1, nmax + 1):
        a_n = coeffs[n]
        if a_n == 0.0:
            continue
        w = weight * a_n * sv[n - 1, J_cols]          # shape (len(J),)
        down = K[K - n >= 0]
        if down.size:
            rows = J_rows[:, None] * m + down[None, :]
            cols = J_cols[:, None] * m + (down - n)[None, :]
            sink.append((rows, cols, np.broadcast_to((-w)[:, None], rows.shape)))
        up = K[K + n <= m - 1]
        if up.size:
            rows = J_rows[:, None] * m + up[None, :]
            cols = J_cols[:, None] * m + (up + n)[None, :]
            sink.append((rows, cols, np.broadcast_to(w[:, None], rows.shape)))


# Forward difference (f_j - f_{j-1}) / dx as transport legs (dj, c).
_ONE_SIDED = ((0, 1.0), (-1, -1.0))


def _stencil(scheme: Scheme, Nx: int) -> list:
    """Equations for the rows of v > 0, as (nodes, transport, coupling).

    A transport leg (dj, c) puts c * v / dx on node j + dj; a coupling leg
    (dj, w) moves w * A(x_{j+dj}) f_{j+dj} to the left-hand side.  Rows of
    v < 0 use the mirror image: nodes Nx - j, offsets -dj and c negated.
    """
    nodes = np.arange(1, Nx + 1)
    if scheme is Scheme.UPWIND1:
        return [(nodes, _ONE_SIDED, ((0, 1.0),))]
    if scheme is Scheme.CENTRAL:
        return [(nodes, _ONE_SIDED, ((0, 0.5), (-1, 0.5)))]
    # upwind2 falls back to first order at the node beside the inflow end
    return [
        (nodes[1:], ((0, 1.5), (-1, -2.0), (-2, 0.5)), ((0, 1.0),)),
        (nodes[:1], _ONE_SIDED, ((0, 1.0),)),
    ]


def assemble(system: WignerSystem, scheme: Scheme) -> LinearProblem:
    """Build the reduced sparse system for one scheme.

    Equations are collocated at every non-pinned (velocity, node) pair;
    contributions that hit a pinned inflow entry move to the right-hand
    side.  Every equation is scaled by dx / |v| so the transport diagonal
    is order one and the right-hand side stays bounded as the mesh is
    refined, which keeps the relative residual meaningful at large Nx.
    Raises ValueError for an unknown scheme.
    """
    scheme = Scheme(scheme)
    grid = system.grid
    mesh = system.mesh
    m = grid.size
    Nx = mesh.Nx
    v = grid.velocities
    vdx = v / mesh.dx
    kpos = np.where(v > 0)[0]
    kneg = np.where(v < 0)[0]
    coeffs = system.potential.coeffs
    sv = _sine_table(system.potential, mesh.nodes)

    sink = []
    for nodes, transport, coupling in _stencil(scheme, Nx):
        # rows of v < 0 mirror those of v > 0
        for K, J, sign in ((kpos, nodes, 1), (kneg, Nx - nodes, -1)):
            for dj, c in transport:
                _emit_transport(sink, m, J, K, sign * dj, c * sign * vdx[K])
            for dj, w in coupling:
                _emit_coupling(sink, m, coeffs, sv, J, J + sign * dj, K, w)

    pinned, pinval = _pinned_mask_and_values(system)
    N = m * (Nx + 1)
    red = np.full(N, -1, dtype=np.int64)
    free = ~pinned
    n_unknowns = int(free.sum())
    red[free] = np.arange(n_unknowns)

    rows, cols, data = (np.concatenate([leg[i].ravel() for leg in sink]) for i in range(3))
    data = data * (mesh.dx / np.abs(v))[rows % m]
    rr = red[rows]
    rhs = np.zeros(n_unknowns)
    hit_pin = pinned[cols]
    if hit_pin.any():
        np.add.at(rhs, rr[hit_pin], -data[hit_pin] * pinval[cols[hit_pin]])
    keep = ~hit_pin
    matrix = sp.coo_matrix(
        (data[keep], (rr[keep], red[cols[keep]])), shape=(n_unknowns, n_unknowns)
    ).tocsr()
    return LinearProblem(matrix=matrix, rhs=rhs, free=free, n_velocities=m, n_nodes=Nx + 1)


def residual_norm(problem: LinearProblem, candidate: np.ndarray) -> float:
    """Relative residual |M u - b| / max(|b|, tiny) in the Euclidean norm."""
    u = np.asarray(candidate, dtype=float)
    if u.shape != problem.rhs.shape:
        raise ValueError(
            f"candidate shape {u.shape} does not match rhs shape {problem.rhs.shape}"
        )
    r = problem.matrix @ u - problem.rhs
    return float(np.linalg.norm(r) / max(np.linalg.norm(problem.rhs), _NORM_FLOOR))


def _block_sweep(problem: LinearProblem, rhs: np.ndarray, nodes_per_block: int) -> np.ndarray:
    """Solve problem.matrix @ x = rhs by block tridiagonal elimination.

    The unknowns are cut into blocks of ``nodes_per_block`` mesh nodes at
    the node boundaries given by ``problem.free``; the stencil must couple
    each block only to its two neighbours (one node per block for
    bandwidth-1 stencils, node pairs for upwind2).  The D, L and U blocks
    are read straight from the assembled matrix.  Memory is one dense
    carry per block.
    """
    counts = problem.free.reshape(problem.n_nodes, problem.n_velocities).sum(axis=1)
    starts = np.arange(0, problem.n_nodes, nodes_per_block)
    edges = np.concatenate([[0], np.cumsum(np.add.reduceat(counts, starts))])
    n_blocks = len(starts)
    carries = [None] * n_blocks
    partials = [None] * n_blocks
    for t in range(n_blocks):
        a, b = edges[t], edges[t + 1]
        lo = edges[max(t - 1, 0)]
        rows = problem.matrix[a:b, lo:edges[min(t + 2, n_blocks)]].toarray()
        D = rows[:, a - lo:b - lo]
        r = rhs[a:b]
        if t > 0:
            L = rows[:, :a - lo]
            D = D - L @ carries[t - 1]
            r = r - L @ partials[t - 1]
        try:
            lu = lu_factor(D)
        except (ValueError, np.linalg.LinAlgError) as exc:  # non-finite or singular block
            raise SolverError(f"block elimination failed at block {t}: {exc}")
        partials[t] = lu_solve(lu, r)
        if t + 1 < n_blocks:
            carries[t] = lu_solve(lu, rows[:, b - lo:])

    x = np.empty(edges[-1])
    x[edges[-2]:] = partials[-1]
    for t in range(n_blocks - 2, -1, -1):
        x[edges[t]:edges[t + 1]] = partials[t] - carries[t] @ x[edges[t + 1]:edges[t + 2]]
    return x


def _central_march(system: WignerSystem) -> np.ndarray:
    """Central field on the mesh by one forward march, shape (Nx + 1, m).

    Cell c of the central stencil reads (V - h/2 A_c) f_c = (V + h/2 A_{c-1}) f_{c-1}
    for every channel, with V = diag(v) and A_c = A(x_c).  The sine table
    is odd to the bit on the mirror-symmetric mesh, so A_{Nx-c} = -A_c and
    the cell map of cell Nx + 1 - c is the inverse of that of cell c: the
    product over the period is the identity.  Starting from the inflow
    data of both ends therefore meets the right-end inflow again at +l/2.
    Each step solves the banded system (V - h/2 A_c) d = h/2 (A_{c-1} + A_c) f_{c-1}
    for the increment d = f_c - f_{c-1}.  The end state is returned as
    marched, not pinned.

    Raises:
        SolverError: a cell matrix is singular.
    """
    coeffs = system.potential.coeffs
    v = system.grid.velocities
    m = v.size
    Nx = system.mesh.Nx
    half_h = 0.5 * system.mesh.dx
    sv = _sine_table(system.potential, system.mesh.nodes)
    nb = min(sv.shape[0], m - 1)                  # bandwidth
    field = np.empty((Nx + 1, m))
    field[0] = system.boundary.values
    ab = np.zeros((2 * nb + 1, m))
    for c in range(1, Nx + 1):
        # band of V - h/2 A(x_c) in solve_banded layout, ab[nb + i - j, j] = B[i, j];
        # every entry inside the band is rewritten, the corners are never read
        ab[nb] = v
        for n in range(1, nb + 1):
            w = half_h * coeffs[n] * sv[n - 1, c]
            ab[nb - n, n:] = w
            ab[nb + n, :-n] = -w
        prev = field[c - 1]
        rhs = half_h * _apply_sines(coeffs, sv[:, c - 1] + sv[:, c], prev)
        try:
            step = solve_banded(
                (nb, nb), ab, rhs, overwrite_ab=True, overwrite_b=True, check_finite=False
            )
        except np.linalg.LinAlgError as exc:
            raise SolverError(f"central march: cell {c} matrix is singular: {exc}")
        field[c] = prev + step
    return field


def _global_solve(problem: LinearProblem, scheme: Scheme, rel_tol: float):
    """Solve the assembled system by SuperLU or the block sweep.

    SuperLU up to ``_DIRECT_LIMIT`` unknowns, the sweep above.  One step
    of iterative refinement follows if the first solve misses rel_tol.
    Returns the reduced solution and its relative residual.
    """
    if problem.matrix.shape[0] <= _DIRECT_LIMIT:
        try:
            solve = spla.splu(problem.matrix.tocsc()).solve
        except RuntimeError as exc:
            raise SolverError(f"sparse LU factorization failed: {exc}")
    else:
        nodes_per_block = 2 if scheme is Scheme.UPWIND2 else 1

        def solve(rhs):
            return _block_sweep(problem, rhs, nodes_per_block)

    x = solve(problem.rhs)
    res = residual_norm(problem, x)
    if res > rel_tol:
        # one step of iterative refinement against the assembled system
        x = x + solve(problem.rhs - problem.matrix @ x)
        res = residual_norm(problem, x)
    return x, res


def solve_bvp(system: WignerSystem, scheme: Scheme, rel_tol: float = 1e-12) -> DiscreteSolution:
    """Assemble and solve one scheme on one system.

    ``central`` is solved by one forward march over the period (see
    ``_central_march``), gated on the residual of the assembled system.
    The one-sided schemes, and a central march that misses rel_tol, go
    through a sparse LU factorization up to 600k unknowns and through a
    block elimination sweep over mesh nodes above that, which needs no
    global fill.  If that solve misses rel_tol, one step of iterative
    refinement against the assembled matrix follows.

    Args:
        system: the transport problem.
        scheme: stencil selector (Scheme or its string value).
        rel_tol: acceptance threshold for the relative residual; must lie
            in (0, 1e-6].

    Returns:
        DiscreteSolution whose residual is at most rel_tol.

    Raises:
        ValueError: bad rel_tol or scheme.
        SolverError: singular system or residual above rel_tol; for
            ``central`` the message also gives the march residual.
    """
    if not (0.0 < rel_tol <= 1e-6):
        raise ValueError(f"rel_tol must lie in (0, 1e-6], got {rel_tol!r}")
    scheme = Scheme(scheme)
    m = system.grid.size
    Nx = system.mesh.Nx

    if not np.any(system.boundary.values):
        # zero inflow forces the zero solution; skip the solve entirely
        values = np.zeros((m, Nx + 1))
        values.flags.writeable = False
        return DiscreteSolution(values=values, system=system, scheme=scheme.value, residual=0.0)

    problem = assemble(system, scheme)
    march_note = ""
    x = None
    if scheme is Scheme.CENTRAL:
        try:
            x = _central_march(system).ravel()[problem.free]
        except SolverError as exc:
            march_note = f"; {exc}"
        else:
            res = residual_norm(problem, x)
            if not res <= rel_tol:                # NaN fails too
                march_note = f"; central march residual {res:.3e}"
                x = None

    if x is None:
        x, res = _global_solve(problem, scheme, rel_tol)
        if not np.isfinite(res) or res > rel_tol:
            raise SolverError(
                f"solver residual {res:.3e} exceeds rel_tol {rel_tol:.3e} "
                f"for scheme {scheme.value} at Nx={Nx}{march_note}",
                residual=res,
            )

    values = np.zeros((m, Nx + 1))
    flat = np.zeros(m * (Nx + 1))
    flat[problem.free] = x
    _, pinval = _pinned_mask_and_values(system)
    flat[~problem.free] = pinval[~problem.free]
    values[:, :] = flat.reshape(Nx + 1, m).T
    values.flags.writeable = False
    return DiscreteSolution(values=values, system=system, scheme=scheme.value, residual=res)
