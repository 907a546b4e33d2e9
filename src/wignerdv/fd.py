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

Each stencil is written once, in ``_stencil``.  The central scheme is
solved without a global factorization: A(x) is odd and the mesh mirror
symmetric, so its discrete map over one period is the identity and the
boundary value problem is one forward march of banded solves from the
inflow data of both ends (``_central_march``), O(Nx m nmax) work.  The
march is gated on the residual of the assembled system.  The one-sided
schemes, and a central march that misses the gate, go through one global
solver at every size: a block tridiagonal sweep whose blocks are cut from
the assembled matrix at mesh-node boundaries, so memory grows with one
half-rank carry per node (velocities by the next node's v < 0 unknowns)
instead of a sparse LU fill.  One step of iterative refinement follows
if the sweep misses the gate, and the better of the two iterates is
kept.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.linalg import get_lapack_funcs

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
        residual: for a finite-difference scheme, the relative residual of
            the assembled linear system; for the oracle, the marched end gap
            |f_{v<0}(+l/2) - right inflow| / |inflow|.
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


def _span(idx: np.ndarray):
    """Sorted indices as a slice when they form one contiguous run."""
    if idx.size and idx[-1] - idx[0] + 1 == idx.size:
        return slice(int(idx[0]), int(idx[-1]) + 1)
    return idx


def _block_sweep(problem: LinearProblem, rhs: np.ndarray) -> np.ndarray:
    """Solve problem.matrix @ x = rhs by block tridiagonal elimination.

    The unknowns are cut into blocks of whole mesh nodes at the node
    boundaries given by ``problem.free``, as many nodes per block as the
    farthest node any row of the assembled matrix reaches (one node for
    bandwidth-1 stencils, node pairs for upwind2), so each block couples
    only to its two neighbours.  Each block's D, L and U rows are filled
    straight from the CSR arrays.  U_t, the coupling of block t to block
    t + 1, is nonzero only in a column set J_t taken from the CSR
    structure (about the v < 0 unknowns of the next block, half of
    them), so the carry kept per block is the half-rank
    C_t = D'_t^-1 U_t[:, J_t].  The Schur update touches only D_{t+1}[:, J_t],
    on the rows where L_{t+1} has entries, and back substitution reads
    x_t = p_t - C_t x_{t+1}[J_t].  LAPACK getrf/getrs are fetched once.

    Raises:
        SolverError: a block is not finite or is exactly singular.
    """
    matrix = problem.matrix
    indptr, indices, data = matrix.indptr, matrix.indices, matrix.data
    counts = problem.free.reshape(problem.n_nodes, problem.n_velocities).sum(axis=1)
    node_edges = np.concatenate([[0], np.cumsum(counts)])
    # node reach: the farthest node any row reads, from each node's
    # smallest and largest column
    at = indptr[node_edges[:-1]]
    nodes = np.arange(problem.n_nodes)
    nearest = np.searchsorted(node_edges, np.minimum.reduceat(indices, at), "right") - 1
    farthest = np.searchsorted(node_edges, np.maximum.reduceat(indices, at), "right") - 1
    reach = max(int(np.max(nodes - nearest)), int(np.max(farthest - nodes)), 1)
    edges = np.append(node_edges[:-1:reach], node_edges[-1])
    n_blocks = edges.size - 1
    getrf, getrs = get_lapack_funcs(("getrf", "getrs"), (data,))

    def fail(t, why):
        first, last = t * reach, min((t + 1) * reach, problem.n_nodes) - 1
        where = f"mesh node {first}" if first == last else f"mesh nodes {first}-{last}"
        return SolverError(f"block elimination failed at {where}: {why}")

    # J_t up front: a column read by a row of an earlier block lies in the
    # next block, so flagging every column read past its row's block end
    # gives all J_t at once
    row_end = np.repeat(edges[1:], np.diff(edges)).astype(indices.dtype)
    read = np.zeros(edges[-1], dtype=bool)
    read[indices[indices >= np.repeat(row_end, np.diff(indptr))]] = True
    # the carries share one buffer of exactly their size, and the partial
    # solutions p_t live in x until back substitution overwrites them, so
    # the sweep's lasting memory is two large arrays, returned whole when
    # it ends instead of thousands of small ones left in the heap
    widths = np.add.reduceat(read, edges[1:-1])
    offsets = np.concatenate([[0], np.cumsum(np.diff(edges[:-1]) * widths)])
    carry_buffer = np.empty(offsets[-1])
    carries, reads = [], []
    x = np.empty(edges[-1])
    for t in range(n_blocks):
        a, b = edges[t], edges[t + 1]
        lo = edges[max(t - 1, 0)]
        # the block's rows over the columns of blocks t - 1 .. t + 1
        cols = indices[indptr[a]:indptr[b]] - lo
        rows = np.repeat(np.arange(b - a), np.diff(indptr[a:b + 1]))
        block = np.zeros((b - a, edges[min(t + 2, n_blocks)] - lo))
        block[rows, cols] = data[indptr[a]:indptr[b]]
        D = np.array(block[:, a - lo:b - lo], order="F")
        r = rhs[a:b].copy()
        if t > 0:
            # rows of L_t with entries; only they change D and r
            coupled = _span(np.flatnonzero(np.bincount(rows[cols < a - lo])))
            L = block[coupled, :a - lo]
            J = reads[t - 1]
            if isinstance(coupled, slice) or isinstance(J, slice):
                D[coupled, J] -= L @ carries[t - 1]
            else:
                D[np.ix_(coupled, J)] -= L @ carries[t - 1]
            r[coupled] -= L @ x[lo:a]
        if not np.isfinite(D).all():
            raise fail(t, "the block is not finite")
        lu, piv, info = getrf(D, overwrite_a=True)
        if info > 0:
            j, k = divmod(int(np.flatnonzero(problem.free)[a + info - 1]), problem.n_velocities)
            raise fail(t, f"the block is singular, zero pivot {info} of {b - a} "
                          f"(node {j}, velocity index {k})")
        x[a:b] = getrs(lu, piv, r, overwrite_b=True)[0]
        if t + 1 < n_blocks:
            J = _span(np.flatnonzero(read[b:edges[t + 2]]))
            reads.append(J)
            # Fortran-ordered view of this block's share of the buffer
            carry = carry_buffer[offsets[t]:offsets[t + 1]].reshape(widths[t], b - a).T
            carry[...] = getrs(lu, piv, block[:, b - lo:][:, J], overwrite_b=True)[0]
            carries.append(carry)

    for t in range(n_blocks - 2, -1, -1):
        x[edges[t]:edges[t + 1]] -= carries[t] @ x[edges[t + 1]:edges[t + 2]][reads[t]]
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
    # LAPACK gbsv band layout, ab[2 nb + i - j, j] = B[i, j]; rows 0..nb-1
    # are gbsv's fill-in workspace and need not be set
    ab = np.zeros((3 * nb + 1, m), order="F")
    gbsv = get_lapack_funcs("gbsv", (ab,))
    for c in range(1, Nx + 1):
        # band of V - h/2 A(x_c); every entry inside the band is rewritten
        # after gbsv overwrote it with its factors, the corners are never read
        ab[2 * nb] = v
        for n in range(1, nb + 1):
            w = half_h * coeffs[n] * sv[n - 1, c]
            ab[2 * nb - n, n:] = w
            ab[2 * nb + n, :-n] = -w
        prev = field[c - 1]
        rhs = half_h * _apply_sines(coeffs, sv[:, c - 1] + sv[:, c], prev)
        _, _, step, info = gbsv(nb, nb, ab, rhs, overwrite_ab=True, overwrite_b=True)
        if info > 0:
            raise SolverError(f"central march: cell {c} matrix is singular: zero pivot {info} of {m}")
        field[c] = prev + step
    return field


def _global_solve(problem: LinearProblem, rel_tol: float):
    """Solve the assembled system by the block sweep.

    If the sweep misses rel_tol, one step of iterative refinement against
    the assembled matrix follows.  The step is not monotone on an
    ill-conditioned system, so whichever of the two iterates has the lower
    residual is kept.  Returns the reduced solution and its relative
    residual.
    """
    x = _block_sweep(problem, problem.rhs)
    res = residual_norm(problem, x)
    if res > rel_tol:
        refined = x + _block_sweep(problem, problem.rhs - problem.matrix @ x)
        refined_res = residual_norm(problem, refined)
        if refined_res < res:
            x, res = refined, refined_res
    return x, res


def solve_bvp(system: WignerSystem, scheme: Scheme, rel_tol: float = 1e-12) -> DiscreteSolution:
    """Assemble and solve one scheme on one system.

    ``central`` is solved by one forward march over the period (see
    ``_central_march``), gated on the residual of the assembled system.
    The one-sided schemes, and a central march that misses rel_tol, go
    through a block elimination sweep over mesh nodes at every size,
    which needs no global fill.  If the sweep misses rel_tol, one step of
    iterative refinement against the assembled matrix follows and the
    iterate with the lower residual is kept (see ``_global_solve``).

    Args:
        system: the transport problem.
        scheme: stencil selector (Scheme or its string value).
        rel_tol: acceptance threshold for the relative residual; must lie
            in (0, 1e-6].

    Returns:
        DiscreteSolution whose residual is at most rel_tol.

    Raises:
        ValueError: bad rel_tol or scheme.
        SolverError: singular system or residual above rel_tol.  A missed
            gate's message gives the growth factor max|f| / max|b| of the
            rejected field, which sets an ill-conditioned truncation apart
            from a bug, and for ``central`` also the march residual.
    """
    if not (0.0 < rel_tol <= 1e-6):
        raise ValueError(f"rel_tol must lie in (0, 1e-6], got {rel_tol!r}")
    scheme = Scheme(scheme)
    m = system.grid.size
    Nx = system.mesh.Nx

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
        x, res = _global_solve(problem, rel_tol)
        if not np.isfinite(res) or res > rel_tol:
            b_max = np.abs(system.boundary.values).max()
            growth = max(np.abs(x).max(), b_max) / b_max
            raise SolverError(
                f"solver residual {res:.3e} exceeds rel_tol {rel_tol:.3e} "
                f"for scheme {scheme.value} at Nx={Nx}, growth factor "
                f"max|f| / max|b| = {growth:.3e}{march_note}",
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
