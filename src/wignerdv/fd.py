"""Finite-difference schemes for the discrete-velocity transport system.

All schemes discretize v f_x = (A f) on the period mesh and pin the inflow
entries (x = -l/2 for v > 0, x = +l/2 for v < 0).  Three stencils are
provided:

  upwind1  first-order one-sided differences against the flow.
  upwind2  second-order one-sided differences, falling back to first
           order at the single node next to each inflow end.
  central  cell form: first-order differences across each cell matched
           with the average of the coupling term at the two cell ends,
           which is second-order accurate and mirror-consistent.

Each stencil is written once, in ``_stencil``.  On the node-major
(Nx + 1, m) field, with an identity row on each pinned entry, each of its
legs is one diagonal of the matrix (``_diagonals``).  ``central`` is one
forward march of banded cell solves read from those diagonals, from the
inflow data of both ends (``_central_march``): A(x) is odd and the mesh
mirror symmetric, so the discrete period map is the identity.  The
one-sided schemes, and a march that misses the gate, go through a block
tridiagonal sweep over the whole field (``_block_sweep``), its node blocks
written from the diagonals, and one refinement step if it misses the gate.
Every solve is gated on the residual of ``assemble``'s system, evaluated
from the stencil and the sine table without the matrix (``_residual``).
The reference ``LinearProblem.matrix`` and ``rhs`` are cut on first read.
"""

from __future__ import annotations

import collections
import enum
import functools
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
    """One scheme's linear system on one system, held without its matrix.

    ``sines`` is the sine table on the mesh nodes.  ``pinned`` flags the
    inflow entries of the node-major (Nx + 1, m) field, and ``pinval`` is
    the field that holds the inflow data there and zero elsewhere.
    ``rhs_norm`` is |b| of the reduced system, from b = -R(pinval).  The
    solvers read only these.  ``matrix`` and ``rhs``, the reduced sparse
    system over the non-pinned unknowns, are cut from the diagonals on
    first access and kept.  ``free`` flags, in node-major (node, velocity)
    order, which entries of the full field are unknowns; the reduced
    vector lists them in ascending order of that flat index.
    """

    system: WignerSystem
    scheme: Scheme
    sines: np.ndarray
    pinned: np.ndarray
    pinval: np.ndarray
    rhs_norm: float

    @property
    def free(self) -> np.ndarray:
        return ~self.pinned.ravel()

    @functools.cached_property
    def _reduced(self):
        return _assemble_csr(self)

    @property
    def matrix(self) -> sp.csr_matrix:
        return self._reduced[0]

    @property
    def rhs(self) -> np.ndarray:
        return self._reduced[1]


@dataclass(frozen=True)
class DiscreteSolution:
    """Solution field on the (velocity, node) array plus solve metadata.

    Attributes:
        values: array of shape (grid.size, Nx + 1).
        system: the system that was solved.
        scheme: stencil tag, one of the Scheme values or "oracle".
        residual: for a finite-difference scheme, the relative residual
            |M x - b| / |b| of the linear system ``assemble`` sets up,
            evaluated from the stencil without the matrix (it matches
            ``residual_norm`` to rounding, not to the bit); for the oracle,
            the marched end gap |f_{v<0}(+l/2) - right inflow| / |inflow|.
    """

    values: np.ndarray
    system: WignerSystem
    scheme: str
    residual: float


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


def _diagonals(problem: LinearProblem, j0: int, j1: int) -> dict:
    """Rows of mesh nodes j0 .. j1 - 1 of the whole-field matrix, by diagonal.

    The whole-field matrix has ``assemble``'s equation, pinned columns
    included, on each free entry of the node-major (Nx + 1, m) field and an
    identity row on each pinned one.  Returns {offset: coef}, coef[j - j0, k]
    being the entry of row (j, k) in the column of flat index j m + k +
    offset.  Scaled by dx / |v| of the row, a transport leg (dj, c) puts
    (c v / dx) dx / |v|, c to rounding (ROADMAP item 6), on offset dj m, and a
    coupling leg (dj, w) puts -+w a_n sin(2 n kappa x) dx / |v|, x at node
    j + dj, on offsets dj m -+ n where channel k -+ n lies in the window.
    Rows of v < 0 mirror those of v > 0 (see ``_stencil``).  No two legs
    meet on one entry, so each leg writes its entries in place.
    """
    system = problem.system
    m = system.grid.size
    Nx = system.mesh.Nx
    v = system.grid.velocities
    vdx = v / system.mesh.dx
    scale = system.mesh.dx / np.abs(v)
    coeffs = system.potential.coeffs
    diagonals = collections.defaultdict(lambda: np.zeros((j1 - j0, m)))
    diagonals[0][problem.pinned[j0:j1]] = 1.0
    neg = int(np.searchsorted(v, 0.0))                 # v is ascending and never 0
    for sign, K in ((1, slice(neg, m)), (-1, slice(0, neg))):
        for nodes, transport, coupling in _stencil(problem.scheme, Nx):
            # rows of v < 0 mirror those of v > 0: nodes Nx - j, offsets -dj
            first = int(nodes[0]) if sign > 0 else Nx - int(nodes[-1])
            lo, hi = max(first, j0), min(first + nodes.size, j1)
            if lo >= hi:
                continue
            rows = slice(lo - j0, hi - j0)
            for dj, c in transport:
                diagonals[sign * dj * m][rows, K] = c * sign * vdx[K] * scale[K]
            for dj, w in coupling:
                for n in (np.flatnonzero(coeffs[1:m]) + 1).tolist():
                    s = (w * coeffs[n] * problem.sines[n - 1, lo + sign * dj:hi + sign * dj])[:, None]
                    down, up = slice(max(K.start, n), K.stop), slice(K.start, min(K.stop, m - n))
                    np.multiply(-s, scale[down], out=diagonals[sign * dj * m - n][rows, down])
                    np.multiply(s, scale[up], out=diagonals[sign * dj * m + n][rows, up])
    return diagonals


def assemble(system: WignerSystem, scheme: Scheme) -> LinearProblem:
    """Set up the linear problem of one scheme on one system.

    Equations are collocated at every non-pinned (velocity, node) pair;
    contributions that hit a pinned inflow entry move to the right-hand
    side.  Every equation is scaled by dx / |v| so the transport diagonal
    is order one and the right-hand side stays bounded as the mesh is
    refined, which keeps the relative residual meaningful at large Nx.
    This builds the sine table, the inflow entries and |b|; the sparse
    matrix is cut from the diagonals of the whole-field matrix (see
    ``_diagonals``) only when the problem's ``matrix`` or ``rhs`` is read.
    Raises ValueError for an unknown scheme.
    """
    scheme = Scheme(scheme)
    sines = _sine_table(system.potential, system.mesh.nodes)
    v = system.grid.velocities
    pinned = np.zeros((system.mesh.Nx + 1, v.size), dtype=bool)
    pinned[0], pinned[-1] = v > 0, v < 0
    pinval = np.where(pinned, system.boundary.values, 0.0)
    rhs_norm = float(np.linalg.norm(_residual(system, scheme, sines, pinval)))
    return LinearProblem(system, scheme, sines, pinned, pinval, rhs_norm)


def _assemble_csr(problem: LinearProblem):
    """The reduced sparse system (matrix, rhs) of a linear problem.

    The free rows of the whole-field matrix: their free columns, and their
    pinned ones times the inflow data.  Zero entries are dropped.
    """
    N = problem.pinned.size
    diagonals = _diagonals(problem, 0, problem.system.mesh.Nx + 1)
    # diagonal d holds the rows max(-d, 0) .. N - max(d, 0) - 1
    whole = sp.diags([coef.ravel()[max(-d, 0):N - max(d, 0)] for d, coef in diagonals.items()],
                     list(diagonals), shape=(N, N), format="csr")
    free = problem.free
    rows = whole[free]
    return rows[:, free], -(rows[:, ~free] @ problem.pinval.ravel()[~free])


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


def _residual(system: WignerSystem, scheme: Scheme, sines: np.ndarray, field: np.ndarray) -> np.ndarray:
    """R(F) = M x - b of a full node-major field F of shape (Nx + 1, m).

    F holds the inflow data at its pinned entries and x is the rest of it.
    Each entry of R is ``assemble``'s equation of that unknown, scaled by
    dx / |v|; pinned entries have no equation and read 0.  Scaled, a
    transport leg (dj, c) is c f_{j+dj} for either sign of v, so F is
    differenced before anything is scaled, and the coupling legs read A F
    on every node from one ``_apply_sines``.  That rounds differently from
    a product with the assembled matrix, whose entries are scaled one by
    one, so R matches it to rounding but not to the bit.
    """
    Nx = system.mesh.Nx
    v = system.grid.velocities
    coupled = _apply_sines(system.potential.coeffs, sines[:, :, None], field, axis=1)
    R = np.zeros(field.shape)
    for K, sign in ((_span(np.flatnonzero(v > 0)), 1), (_span(np.flatnonzero(v < 0)), -1)):
        scale = system.mesh.dx / np.abs(v[K])
        for nodes, transport, coupling in _stencil(scheme, Nx):
            # rows of v < 0 mirror those of v > 0: nodes Nx - j, offsets -dj
            lo = int(nodes[0]) if sign > 0 else Nx - int(nodes[-1])

            def at(dj):
                return slice(lo + sign * dj, lo + sign * dj + nodes.size)

            R[at(0), K] = (sum(c * field[at(dj), K] for dj, c in transport)
                           - scale * sum(w * coupled[at(dj), K] for dj, w in coupling))
    return R


def _gate(problem: LinearProblem, field: np.ndarray):
    """R(F), 0 at the pinned entries, and the relative residual |M x - b| / max(|b|, tiny)."""
    R = _residual(problem.system, problem.scheme, problem.sines, field)
    return R, float(np.linalg.norm(R) / max(problem.rhs_norm, _NORM_FLOOR))


# mesh nodes (sweep) or cells (march) whose diagonals are built at once
_RUN_NODES = 128


def _node_blocks(problem: LinearProblem):
    """The block sweep's node blocks, written from the whole-field matrix's diagonals.

    Blocks have reach m rows, reach being the farthest leg of the stencil
    (one node for upwind1 and central, node pairs for upwind2, whose last
    block is one node when Nx + 1 is odd), so each couples only to its two
    neighbours and the pinned rows lie in the first and last.  The
    diagonals are built for one run of ``_RUN_NODES`` nodes at a time and
    written into each block by strided writes.  The rows of L_t and the
    columns J_t of U_t follow from the legs and the channel signs.

    Returns (edges, widths, blocks): the flat indices at the block
    boundaries, the size of each J_t, and an iterator that yields, for each
    block t in order, (block, rows of L_t, J_t): the rows of block t over
    the columns of blocks t - 1 .. t + 1, and J_t within block t + 1 (None
    for the last block).
    """
    Nx = problem.system.mesh.Nx
    m = problem.system.grid.size
    v = problem.system.grid.velocities
    coeffs = problem.system.potential.coeffs
    legs = _stencil(problem.scheme, Nx)
    reach = max(abs(dj) for _, transport, coupling in legs for dj, _ in (*transport, *coupling))
    N = problem.pinned.size
    edges = np.append(np.arange(0, N, reach * m), N)
    sizes = np.diff(edges)
    spread = np.zeros(m, dtype=bool)           # channels a coupling leg reads from v < 0 rows
    for n in np.flatnonzero(coeffs[1:m]) + 1:
        spread[n:] |= v[:-n] < 0
        spread[:-n] |= v[n:] < 0
    # a leg (dj, .) of a v < 0 row reads -dj nodes ahead, so the block before
    # reads into the first -dj nodes of a block; the farthest leg reaches
    # reach nodes back, so every v > 0 row reads the block before
    carried = np.zeros((reach, m), dtype=bool)
    for _, transport, coupling in legs:
        for dj, cols in [(dj, v < 0) for dj, _ in transport] + [(dj, spread) for dj, _ in coupling]:
            carried[:-dj] |= cols
    coupled, carried = np.tile(v > 0, reach), carried.ravel()
    cut = {size: (_span(np.flatnonzero(coupled[:size])), _span(np.flatnonzero(carried[:size])))
           for size in {sizes[0], sizes[-1]}}
    run = reach * max(_RUN_NODES // reach, 1)

    def blocks():
        for j0 in range(0, Nx + 1, run):
            j1 = min(j0 + run, Nx + 1)
            diagonals = {d: coef.ravel() for d, coef in _diagonals(problem, j0, j1).items()}
            for t in range(j0 // reach, -(-j1 // reach)):
                a, b = edges[t], edges[t + 1]
                lo, hi = edges[max(t - 1, 0)], edges[min(t + 2, len(sizes))]
                block = np.zeros((b - a, hi - lo))
                # entry (r, r + d) of the matrix is block[r - a, r + d - lo]:
                # a diagonal of the block, stride hi - lo + 1 in its flat view
                flat, step = block.reshape(-1), hi - lo + 1
                for d, coef in diagonals.items():
                    ra, rb = max(a, lo - d), min(b, hi - d)
                    if ra < rb:
                        start = (ra - a) * step + a + d - lo
                        flat[start:start + (rb - ra - 1) * step + 1:step] = coef[ra - j0 * m:rb - j0 * m]
                L_rows = cut[sizes[t]][0] if t > 0 else slice(0, 0)
                yield block, L_rows, cut[sizes[t + 1]][1] if t + 1 < len(sizes) else None

    return edges, np.cumsum(carried)[sizes[1:] - 1], blocks()


def _block_sweep(problem: LinearProblem, rhs: np.ndarray | None = None) -> np.ndarray:
    """Solve M F = rhs for the (Nx + 1, m) field F by block tridiagonal elimination.

    M is the whole-field matrix of ``_diagonals``, in the node blocks of
    ``_node_blocks``; it is not built.  With rhs None the right-hand side
    is ``problem.pinval``, so the free entries solve ``assemble``'s reduced
    system and the pinned ones hold the inflow data to rounding (partial
    pivoting may mix an identity row with the equations of its block).
    U_t, the coupling of block t to block t + 1, is nonzero only in the
    columns J_t (about the v < 0 half of the next block), so the carry kept
    per block is the half-rank C_t = D'_t^-1 U_t[:, J_t].  The Schur update
    touches only D_{t+1}[:, J_t], on the rows of L_{t+1}, and back
    substitution reads x_t = p_t - C_t x_{t+1}[J_t].

    Raises:
        SolverError: a block is not finite or is exactly singular.
    """
    edges, widths, blocks = _node_blocks(problem)
    m = problem.system.grid.size
    rhs = (problem.pinval if rhs is None else rhs).ravel()
    getrf, getrs = get_lapack_funcs(("getrf", "getrs"), (problem.pinval,))

    def fail(t, why):
        first, last = edges[t] // m, (edges[t + 1] - 1) // m
        where = f"mesh node {first}" if first == last else f"mesh nodes {first}-{last}"
        return SolverError(f"block elimination failed at {where}: {why}")

    # the carries share one buffer of exactly their size, and the partial
    # solutions p_t live in x until back substitution overwrites them, so
    # the sweep's lasting memory is two large arrays, returned whole when
    # it ends instead of thousands of small ones left in the heap
    offsets = np.concatenate([[0], np.cumsum(np.diff(edges[:-1]) * widths)])
    carry_buffer = np.empty(offsets[-1])
    carries, reads = [], []
    x = np.empty(edges[-1])
    for t, (block, coupled, J) in enumerate(blocks):
        a, b = edges[t], edges[t + 1]
        lo = edges[max(t - 1, 0)]
        D = np.array(block[:, a - lo:b - lo], order="F")
        r = rhs[a:b].copy()
        if t > 0:
            L = block[coupled, :a - lo]
            if isinstance(coupled, slice) or isinstance(reads[-1], slice):
                D[coupled, reads[-1]] -= L @ carries[-1]
            else:
                D[np.ix_(coupled, reads[-1])] -= L @ carries[-1]
            r[coupled] -= L @ x[lo:a]
        if not np.isfinite(D).all():
            raise fail(t, "the block is not finite")
        lu, piv, info = getrf(D, overwrite_a=True)
        if info > 0:
            j, k = divmod(int(a + info - 1), m)
            raise fail(t, f"the block is singular, zero pivot {info} of {b - a} "
                          f"(node {j}, velocity index {k})")
        x[a:b] = getrs(lu, piv, r, overwrite_b=True)[0]
        if J is not None:
            reads.append(J)
            # Fortran-ordered view of this block's share of the buffer
            carry = carry_buffer[offsets[t]:offsets[t + 1]].reshape(widths[t], b - a).T
            carry[...] = getrs(lu, piv, block[:, b - lo:][:, J], overwrite_b=True)[0]
            carries.append(carry)

    for t in range(len(carries) - 1, -1, -1):
        x[edges[t]:edges[t + 1]] -= carries[t] @ x[edges[t + 1]:edges[t + 2]][reads[t]]
    return x.reshape(problem.pinned.shape)


def _central_march(problem: LinearProblem) -> np.ndarray:
    """Central field on the mesh by one forward march, shape (Nx + 1, m).

    Cell c is the v > 0 rows of node c and the v < 0 rows of node c - 1 of
    the whole-field matrix, read from ``_diagonals`` a run of ``_RUN_NODES``
    cells at a time: a band B on the node-c columns, R on the node-(c - 1)
    ones.  Unscaled they read (V - h/2 A_c) f_c = (V + h/2 A_{c-1}) f_{c-1},
    V = diag(v).  The sine table is odd to the bit on the mirrored mesh, so
    A_{Nx-c} = -A_c, cell Nx + 1 - c inverts cell c and the period map is I:
    a march from the inflow data of both ends meets the right-end inflow at
    +l/2.  Each step solves B d = -(B + R) f_{c-1} for d = f_c - f_{c-1}
    (the transport entries cancel exactly); the end is marched, not pinned.

    Raises:
        SolverError: a cell matrix is not finite or is singular.
    """
    v = problem.system.grid.velocities
    m = v.size
    nb = min(len(problem.sines), m - 1)               # bandwidth: the sine table capped by the window
    neg = int(np.searchsorted(v, 0.0))                 # v is ascending and never 0
    # the field padded with nb zero channels on each side; f_j[k + e] is window[j, nb + e, k]
    padded = np.zeros((problem.system.mesh.Nx + 1, m + 2 * nb))
    field = padded[:, nb:nb + m]
    field[0] = problem.system.boundary.values
    window = np.lib.stride_tricks.sliding_window_view(padded, m, axis=1)
    gbsv = get_lapack_funcs("gbsv", (padded,))
    # band[i].T is B of cell c0 + i as gbsv's ab[2 nb + k - j, j] = B[k, j] (rows < nb: fill-in);
    # span[i, nb + e, k] = -(B + R)[k, k + e] holds every entry of B too, so only it is checked
    run = min(_RUN_NODES, len(field) - 1)
    band, span = np.empty((run, m, 3 * nb + 1)), np.empty((run, 2 * nb + 1, m))
    for c0 in range(1, len(field), run):
        cells = min(run, len(field) - c0)
        band[:cells] = span[:cells] = 0.0
        for d, coef in _diagonals(problem, c0 - 1, c0 + cells).items():
            # row k of cell c, on node c - back, reads channel k + e of node c - back + ahead:
            # e, ahead = r, q below channel m - r and r - m, q + 1 above, so a key can hold both nodes
            q, r = divmod(d, m)
            for lo, hi, back in ((0, neg, 1), (neg, m, 0)):
                rows = coef[1 - back:len(coef) - back]
                for a, b, e, ahead in ((lo, min(hi, m - r), r, q), (max(lo, m - r), hi, r - m, q + 1)):
                    if a < b and abs(e) <= nb and back - 1 <= ahead <= back:
                        if ahead == back:
                            band[:cells, a + e:b + e, 2 * nb - e] = rows[:, a:b]
                        span[:cells, nb + e, a:b] -= rows[:, a:b]
        finite = np.isfinite(span[:cells]).all(axis=(1, 2))
        if not finite.all():
            raise SolverError(f"central march: cell {c0 + int(np.argmin(finite))} matrix is not finite")
        for i in range(cells):
            rhs = (span[i] * window[c0 + i - 1]).sum(axis=0)
            _, _, step, info = gbsv(nb, nb, band[i].T, rhs, overwrite_ab=True, overwrite_b=True)
            if info > 0:
                raise SolverError(f"central march: cell {c0 + i} matrix is singular: zero pivot {info} of {m}")
            np.add(field[c0 + i - 1], step, out=field[c0 + i])
    return field


def _global_solve(problem: LinearProblem, rel_tol: float):
    """Solve the scheme's linear system by the block sweep.

    Each swept field has its inflow entries reset to the data exactly
    before it is gated.  If the sweep misses rel_tol, one step of
    iterative refinement follows: the gate's residual field is the
    right-hand side of a second sweep.  The step is not monotone on an
    ill-conditioned system, so whichever of the two iterates has the lower
    residual is kept.  Returns the (Nx + 1, m) field and its relative
    residual.
    """
    field = _block_sweep(problem)
    np.copyto(field, problem.pinval, where=problem.pinned)
    r, res = _gate(problem, field)
    if res > rel_tol:
        refined = field + _block_sweep(problem, -r)
        np.copyto(refined, problem.pinval, where=problem.pinned)
        _, refined_res = _gate(problem, refined)
        if refined_res < res:
            field, res = refined, refined_res
    return field, res


def solve_bvp(system: WignerSystem, scheme: Scheme, rel_tol: float = 1e-12) -> DiscreteSolution:
    """Solve one scheme on one system, without assembling its matrix.

    ``central`` is solved by one forward march over the period (see
    ``_central_march``).  The one-sided schemes, and a central march that
    misses rel_tol, go through the block sweep over the whole field, whose
    inflow entries are then reset to the data exactly, plus one step of
    iterative refinement if it misses rel_tol (see ``_global_solve``).

    Every result is gated on the relative residual |M x - b| / |b| of the
    linear system ``assemble`` sets up, computed from the stencil and the
    sine table without the matrix (see ``_residual``).  It matches
    ``residual_norm`` of the assembled system to rounding, not to the bit.
    The sine table is built once per solve and serves the gate and the
    diagonals that the march and the sweep's node blocks are read from.

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
    problem = assemble(system, scheme)
    scheme = problem.scheme
    march_note = ""
    field = None
    if scheme is Scheme.CENTRAL:
        try:
            field = _central_march(problem)
        except SolverError as exc:
            march_note = f"; {exc}"
        else:
            np.copyto(field, problem.pinval, where=problem.pinned)   # the end state was marched
            _, res = _gate(problem, field)
            if not res <= rel_tol:                # NaN fails too
                march_note = f"; central march residual {res:.3e}"
                field = None

    if field is None:
        field, res = _global_solve(problem, rel_tol)
        if not np.isfinite(res) or res > rel_tol:
            b_max = np.abs(system.boundary.values).max()
            growth = max(np.abs(field).max(), b_max) / b_max
            raise SolverError(
                f"solver residual {res:.3e} exceeds rel_tol {rel_tol:.3e} "
                f"for scheme {scheme.value} at Nx={system.mesh.Nx}, growth factor "
                f"max|f| / max|b| = {growth:.3e}{march_note}",
                residual=res,
            )

    values = np.ascontiguousarray(field.T)
    values.flags.writeable = False
    return DiscreteSolution(values=values, system=system, scheme=scheme.value, residual=res)
