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

Each stencil is written once, in ``_stencil``, and A(x) is read as the
channel bands of ``potential._bands`` on the mesh nodes.  On the node-major
(Nx + 1, m) field, with an identity row on each pinned entry, each transport
leg, and each coupling leg on each band, is one diagonal of the matrix
(``_diagonals``), which every solver reads.  ``_diagonals`` is also the
only code that judges those entries: one that is not finite raises a
SolverError naming the factor past the float range, dx/|v|, |v|/dx or the
coupling |a_n| dx/|v|, with its value.  Every scheme is solved by one
flow (``solve_bvp``): a first iterate, the gate, and at most one refinement
sweep.  Both marches run on one cell march (``_march``), which calls one
hook after each cell that may restart the states.  ``central`` marches
once from the inflow data of both ends, with no hook (``_central_march``):
A(x) is odd and the mesh mirror symmetric, so the discrete period map is
the identity.  ``upwind1`` marches stabilized from both inflow ends to
x = 0 (``_upwind1_march``): the hook of one march cuts segments and
re-orthonormalizes, and the hook of a second restarts it from the states
at the segment ends.  ``upwind2`` sweeps: block tridiagonal elimination
from both inflow ends toward a middle block at x = 0 (``_block_sweep``).
The layout of an arm, its block edges, the order it eliminates a block's
entries in and the index sets that order is made of, is derived in one
place, ``_node_blocks``, which returns it with the arm's blocks as one
``_Arm`` record; the middle block is built in one call once both arms are
eliminated.  The same sweep, on the gate's residual, is the refinement
step of every scheme.  The gate (``_gate``) is the norm of the residual of
``assemble``'s system on the whole field, a product with the same
diagonals a run of nodes at a time, kept in the float range
(``kinetic._in_range``), and returns that residual too, so that the
refinement sweep reads it and no iterate's residual is built twice.

The arm from +l/2 of the march and of the sweep is the arm from -l/2 of
``_mirror(problem)``, the problem on the reversed flat order,
(x, v) -> (-x, -v), with the same bands: A(x) is Toeplitz and skew in the
channel index, so reversing the channels negates it, and it is odd to the
bit on the mirror-symmetric mesh, so -A(x) = A(-x).  No reader of the
matrix knows which arm it serves.  On an antisymmetric velocity set the
mirror's matrix is the problem's own, and one arm, marched or factored
once, serves both (``_arms``).  The reference ``LinearProblem.matrix`` and
``rhs`` are cut on first read.
"""

from __future__ import annotations

import collections
import decimal
import enum
import functools
from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp
from scipy.linalg import get_lapack_funcs

from .kinetic import _NORM_FLOOR, BoundaryData, VelocityGrid, WignerSystem, _in_range, _unit_scaled
from .potential import _bands

__all__ = [
    "Scheme",
    "LinearProblem",
    "DiscreteSolution",
    "SolverError",
    "assemble",
    "residual_norm",
    "solve_bvp",
]

# The accepted range of rel_tol, as ``_valid_rel_tol`` checks it.
_REL_TOL_RANGE = "(0, 1e-6]"


class Scheme(str, enum.Enum):
    """Finite-difference stencil selector."""

    UPWIND1 = "upwind1"
    UPWIND2 = "upwind2"
    CENTRAL = "central"


def _valid_rel_tol(rel_tol: float) -> float:
    """rel_tol itself if it lies in (0, 1e-6] (NaN does not); else ValueError."""
    if not (0.0 < rel_tol <= 1e-6):
        raise ValueError(f"rel_tol must lie in {_REL_TOL_RANGE}, got {rel_tol!r}")
    return rel_tol


class SolverError(RuntimeError):
    """Linear solve failed or missed the requested residual tolerance."""

    def __init__(self, message: str, residual: float = float("nan")):
        super().__init__(message)
        self.residual = residual


@dataclass(frozen=True)
class LinearProblem:
    """One scheme's linear system on one system, held without its matrix.

    ``bands`` is A(x) on the mesh nodes as channel diagonals (see
    ``potential._bands``).  ``pinned`` flags the inflow entries of the
    node-major (Nx + 1, m) field, and ``pinval`` is the field that holds
    the inflow data there and zero elsewhere.
    ``rhs_norm`` is |b| of the reduced system, from b = -R(pinval), kept
    in the float range (``kinetic._in_range``).  The
    solvers read only these.  It, ``matrix`` and ``rhs``, the reduced sparse
    system over the non-pinned unknowns, are computed on first access and
    kept.  ``free`` flags, in node-major (node, velocity) order, which
    entries of the full field are unknowns; the reduced vector lists them
    in ascending order of that flat index.
    """

    system: WignerSystem
    scheme: Scheme
    bands: list
    pinned: np.ndarray
    pinval: np.ndarray

    @property
    def free(self) -> np.ndarray:
        return ~self.pinned.ravel()

    @functools.cached_property
    def rhs_norm(self) -> float:
        # pinval is zero off nodes 0 and Nx, so R(pinval) is zero off the rows within reach of them
        Nx = self.system.mesh.Nx
        first = min(_reach(_stencil(self.scheme, Nx)) + 1, Nx + 1)      # past the rows of nodes 0 .. reach
        ends = ((0, first), (max(Nx + 1 - first, first), Nx + 1))
        return _in_range(np.linalg.norm, np.concatenate([_residual(self, self.pinval, *end) for end in ends]))

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
            |M x - b| / |b| of the linear system ``assemble`` sets up, read
            from the diagonals of M (it differs from ``residual_norm`` only
            in the order of summation); for the oracle,
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


# mesh nodes (sweep, gate) or cells (march) whose diagonals are built at once
_RUN_NODES = 128


def _reach(legs) -> int:
    """How many nodes the farthest leg of a stencil lies from its row."""
    return max(abs(dj) for _, transport, coupling in legs for dj, _ in (*transport, *coupling))


def _diagonals(problem: LinearProblem, j0: int, j1: int) -> dict:
    """Rows of mesh nodes j0 .. j1 - 1 of the whole-field matrix, by diagonal.

    The whole-field matrix has ``assemble``'s equation, pinned columns
    included, on each free entry of the node-major (Nx + 1, m) field and an
    identity row on each pinned one.  Returns {offset: coef}, coef[j - j0, k]
    being the entry of row (j, k) in the column of flat index j m + k +
    offset.  Scaled by dx / |v| of the row, a transport leg (dj, c) puts
    (c v / dx) dx / |v|, c to rounding (CHANGES.md), on offset dj m, and a
    coupling leg (dj, w) puts -w coef dx / |v| of each band of A(x), x at
    node j + dj, on offset dj m + (cols.start - rows.start) over the band's
    rows.  Rows of v < 0 mirror those of v > 0 (see ``_stencil``).  No two
    legs meet on one entry, so each leg writes its entries in place.

    This is the only code that judges the entries: every reader (the
    marches, the sweep's arm blocks and recovery rows, the gate, |b| and
    the reference CSR) gets them finite.

    Raises:
        SolverError: an entry is not finite.  The message names the factor
            past the float range with its value, computed in decimal: max
            dx/|v| or max |v|/dx, whose product times the leg's c is a
            transport entry, or max |a_n| dx/|v|, a_n over the harmonics of
            the bands, which bounds the coupling entries.  The first of them that overflows
            a double is named, else the largest.  They are maxima over the
            channels, which ``_mirror(problem)`` shares, so the message is
            the same on either arm.
    """
    system = problem.system
    m = system.grid.size
    Nx = system.mesh.Nx
    v = system.grid.velocities
    vdx = v / system.mesh.dx
    scale = system.mesh.dx / np.abs(v)
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
                for band, cols, coef in problem.bands:
                    s = (-w * coef[lo + sign * dj:hi + sign * dj])[:, None]
                    half = slice(max(K.start, band.start), min(K.stop, band.stop))
                    offset = sign * dj * m + cols.start - band.start
                    np.multiply(s, scale[half], out=diagonals[offset][rows, half])
    if not all(np.isfinite(coef).all() for coef in diagonals.values()):
        # in decimal, so that a factor past the float range reads as it is (v = 0 gives Infinity)
        speed, a = np.abs(v), np.abs(system.potential.coeffs[1:m]).max(initial=0.0)
        with decimal.localcontext(decimal.Context(traps=[])):
            dx, slow, fast, a = map(decimal.Decimal, (system.mesh.dx, speed.min(), speed.max(), a))
            factors = {"dx/|v|": dx / slow, "|v|/dx": fast / dx, "|a_n| dx/|v|": a * dx / slow}
            name = next((n for n, f in factors.items() if float(f) == np.inf), max(factors, key=factors.get))
        raise SolverError(f"the {problem.scheme.value} matrix leaves the float range: max {name} = {factors[name]:.3e}")
    return diagonals


def assemble(system: WignerSystem, scheme: Scheme) -> LinearProblem:
    """Set up the linear problem of one scheme on one system.

    Equations are collocated at every non-pinned (velocity, node) pair;
    contributions that hit a pinned inflow entry move to the right-hand
    side.  Every equation is scaled by dx / |v| so the transport diagonal
    is order one and the right-hand side stays bounded as the mesh is
    refined, which keeps the relative residual meaningful at large Nx.
    This builds A(x) on the nodes and the inflow entries only; ``rhs_norm``,
    ``matrix`` and ``rhs`` are read from the diagonals of the whole-field
    matrix (see ``_diagonals``) on first access.
    Raises ValueError for an unknown scheme.
    """
    scheme = Scheme(scheme)
    v = system.grid.velocities
    bands = _bands(system.potential, system.mesh.nodes, v.size)
    pinned = np.zeros((system.mesh.Nx + 1, v.size), dtype=bool)
    pinned[0], pinned[-1] = v > 0, v < 0
    return LinearProblem(system, scheme, bands, pinned, np.where(pinned, system.boundary.values, 0.0))


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
    """Relative residual |M u - b| / max(|b|, tiny) in the Euclidean norm (``kinetic._in_range``).

    Raises ValueError if u does not match the reduced system, and
    SolverError if an entry of the matrix is past the float range
    (``_diagonals``).
    """
    u = np.asarray(candidate, dtype=float)
    if u.shape != problem.rhs.shape:
        raise ValueError(
            f"candidate shape {u.shape} does not match rhs shape {problem.rhs.shape}"
        )
    r = problem.matrix @ u - problem.rhs
    return _in_range(np.linalg.norm, r) / max(_in_range(np.linalg.norm, problem.rhs), _NORM_FLOOR)


def _residual(problem: LinearProblem, field: np.ndarray, j0: int, j1: int) -> np.ndarray:
    """Rows of mesh nodes j0 .. j1 - 1 of R(F) = M F - pinval, shape (j1 - j0, m).

    F is a full node-major (Nx + 1, m) field and M the whole-field matrix,
    read from ``_diagonals``.  R is ``assemble``'s M x - b on the free
    entries (x those of F) and F - pinval on the pinned ones; a product with
    the assembled matrix sums the same terms in another order.
    """
    m, flat = field.shape[1], field.ravel()
    R = -problem.pinval[j0:j1].ravel()
    for d, coef in _diagonals(problem, j0, j1).items():
        # row r reads column r + d, which lies in the field for -d <= r < N - d
        a, b = max(j0 * m, -d) - j0 * m, min(j1 * m, flat.size - d) - j0 * m
        coef = coef.reshape(-1)[a:b]
        R[a:b] += np.multiply(coef, flat[j0 * m + a + d:j0 * m + b + d], out=coef)
    return R.reshape(j1 - j0, m)


def _gate(problem: LinearProblem, field: np.ndarray) -> tuple:
    """The gate of a full field F: (|R| / max(|b|, tiny), R), R = R(F) = M F - pinval of ``_residual``.

    Both norms are kept in the float range (``kinetic._in_range``).  R is built on the whole
    field, a run of ``_RUN_NODES`` nodes at a time, and returned so that a
    refinement sweep reads the residual the gate measured instead of
    building it again.
    """
    field = np.ascontiguousarray(field)               # so that each run's ravel is a view
    R = np.empty(field.shape)
    for j0 in range(0, len(field), _RUN_NODES):
        R[j0:j0 + _RUN_NODES] = _residual(problem, field, j0, min(j0 + _RUN_NODES, len(field)))
    return _in_range(np.linalg.norm, R) / max(problem.rhs_norm, _NORM_FLOOR), R


def _mirror(problem: LinearProblem) -> LinearProblem:
    """The problem on the reversed flat order, (j, k) -> (Nx - j, m - 1 - k), that is (x, v) -> (-x, -v).

    Its velocities are -v[::-1], the lattice of shift kappa - s on the
    indices -i_max - 1 .. -i_min - 1, and its inflow data, ``pinned`` and
    ``pinval`` are the problem's reversed.  Its bands are the problem's:
    reversing the channels gives -A(x) = A(-x) (see the module docstring),
    so the reversed field solves u g' = A(x) g, u = -v[::-1], and the
    mirror's whole-field matrix is the problem's in reversed flat order.
    """
    system, grid = problem.system, problem.system.grid
    velocities = -grid.velocities[::-1]
    velocities.flags.writeable = False
    mirror_grid = VelocityGrid(grid.kappa - grid.s, grid.kappa, -grid.i_max - 1, -grid.i_min - 1, velocities)
    boundary = BoundaryData(mirror_grid, system.boundary.values[::-1])
    return replace(problem, system=replace(system, grid=mirror_grid, boundary=boundary),
                   pinned=problem.pinned[::-1, ::-1], pinval=problem.pinval[::-1, ::-1])


def _mirror_invariant(problem: LinearProblem) -> bool:
    """Whether ``_mirror(problem)`` has the problem's matrix: whether v == -v[::-1] to the bit."""
    v = problem.system.grid.velocities
    return bool(np.array_equal(v, -v[::-1]))


def _arms(problem: LinearProblem) -> tuple:
    """The problem of each side of a two-arm solve, and the arms that serve the sides.

    Side False, from -l/2, is ``problem``; side True, from +l/2, is
    ``_mirror(problem)``.  An arm is the tuple of the sides it serves and
    runs on the problem of the first: one arm serves both sides where
    ``_mirror_invariant`` holds, else each side has its own.
    """
    problems = (problem, _mirror(problem))
    return problems, ((False, True),) if _mirror_invariant(problem) else ((False,), (True,))


def _named(sides: tuple, noun: str, first: int, last: int, end: int, aside: bool = False) -> str:
    """An arm's items first .. last (cells, mesh nodes or channels) named as the problem numbers them.

    On the side from +l/2 (``_arms``) item i is the problem's end - i: end
    is Nx + 1 for cells, Nx for nodes and m - 1 for channels.  An arm that
    serves both sides names the mirror images too, in parentheses if aside.
    """
    def name(side):
        a, b = (end - last, end - first) if side else (first, last)
        return f"{noun} {a}" if a == b else f"{noun}s {a}-{b}"

    where = name(sides[0])
    for side in sides[1:]:
        where += f" (and, mirrored, {name(side)})" if aside else f" and, mirrored, {name(side)}"
    return where


# the layout of one arm of the block sweep, as ``_node_blocks`` gives it to ``_block_sweep``
_Arm = collections.namedtuple("_Arm", "edges order Q K J nL nodes fills blocks middle recovery")


def _node_blocks(problem: LinearProblem) -> _Arm:
    """The layout of the arm from -l/2 of the two-arm block sweep, and its blocks from the whole-field matrix's diagonals.

    The sweep cuts the flat field into two arms of T node blocks each, one
    from each inflow end, and a middle block around node Nx / 2; it reads
    the arm from +l/2 as the arm from -l/2 of ``_mirror(problem)``.  An arm
    block has reach m rows, reach being the farthest leg of the stencil (one
    node for upwind1 and central, node pairs for upwind2), so each block
    couples only to its two neighbours and the pinned rows lie in the first.
    The middle block holds the reach to 3 reach - 1 nodes left over, so the
    last block of each arm couples only to it.  A block's rows of v < 0 read
    only their own block and the next one, and its rows of v > 0 (the rows
    of L) only their own block and the one before.  The columns they read
    follow from the legs, the channel signs and the channels that the
    coupling legs reach (the band spread), the same for every block.  This
    is the only code that derives the layout; the sweep reads its fields.

    Returns the ``_Arm`` record.  Its fields, the entries of a block
    counted from 0 to reach m - 1 in mesh order:
      edges    0, reach m, ..., c, N - c, the bounds of the T arm blocks
               and of the middle block.
      order    a block's entries in the order the sweep eliminates them: Q,
               then K.
      Q        the entries off kept, ascending.  kept are the columns of
               block t - 1 that L_t reads together with the rows of L,
               which carry Schur fill (for every stencil here the v > 0
               entries, and for central the band spread of their coupling
               legs too).
      K        the kept entries, the nL rows of L (ascending) first.
      J        the columns J_t within block t + 1 (the middle, for the last
               arm block) that the block's rows read, ascending.
      nodes    the (start, stop) span of each node's entries within Q, for
               the nodes that have some.
      fills    the position in ``order`` of each entry of J: the column of
               block t's own on which the Schur fill of block t - 1's carry
               lands.
      blocks   yields each arm block t in order: the block's rows, in
               ``order``, over every column they reach: the K of block
               t - 1, the block's own entries in ``order`` and the J of
               block t + 1.
      middle   builds the middle block, its rows over the columns of the
               last block of both arms, in mesh order, Fortran-ordered.
      recovery yields, for each arm block t from T - 1 down to 0, its rows
               Q over its own entries and the J of block t + 1.
    The diagonals are built a run of ``_RUN_NODES`` nodes at a time and
    stacked, and each arm block is scattered from them at once into one
    buffer for blocks and one for recovery: every arm block has entries on
    the same diagonals (the first block's columns before node 0 read
    entries that no diagonal holds, which are zero), so the other entries
    stay zero, and a yielded block holds until the next is read.
    """
    Nx = problem.system.mesh.Nx
    m = problem.system.grid.size
    v = problem.system.grid.velocities
    legs = _stencil(problem.scheme, Nx)
    reach = _reach(legs)
    N = problem.pinned.size
    T = (Nx + 1 - reach) // (2 * reach)
    c = T * reach * m
    size = reach * m
    edges = np.append(np.arange(0, c + 1, size), N - c)
    spread = {}                                  # by the sign of v: the channels their rows' coupling legs read
    for sign in (1, -1):
        spread[sign] = np.zeros(m, dtype=bool)
        for rows, cols, _ in problem.bands:
            spread[sign][cols] |= sign * v[rows] > 0
    # a leg (dj, .) of a v < 0 row reads -dj nodes ahead, so the block before
    # reads into the first -dj nodes of a block; the farthest leg reaches
    # reach nodes back, so every v > 0 row reads the block before, and a leg
    # (dj, .) of a v > 0 row reads the last -dj nodes of the block before
    carried, behind = np.zeros((2, reach, m), dtype=bool)
    for _, transport, coupling in legs:
        reads = [(dj, v < 0, v > 0) for dj, _ in transport] + [(dj, spread[-1], spread[1]) for dj, _ in coupling]
        for dj, ahead, back in reads:
            carried[:-dj] |= ahead
            behind[reach + dj:] |= back
    coupled = np.tile(v > 0, reach)
    kept = behind.ravel() | coupled
    Q, J = np.flatnonzero(~kept), np.flatnonzero(carried.ravel())
    K = np.concatenate((np.flatnonzero(coupled), np.flatnonzero(kept & ~coupled)))
    order = np.concatenate((Q, K))
    row_at = np.argsort(order)
    bounds = np.searchsorted(Q, np.arange(0, size + 1, m)).tolist()
    nodes = tuple((s, e) for s, e in zip(bounds[:-1], bounds[1:]) if s < e)
    # an arm block's column of each of the 3 size columns of blocks t - 1 .. t + 1, or -1
    columns = np.concatenate((K, size + order, 2 * size + J))
    column_at = np.full(3 * size, -1)
    column_at[columns] = np.arange(columns.size)
    run = reach * max(_RUN_NODES // reach, 1)

    def arm_blocks(ts, rows=size):
        """The first rows rows of the arm blocks t of ts, in that order, scattered into one buffer from the stacked diagonals of their run."""
        out = np.zeros((rows, columns.size))
        flat, j0, keys = out.ravel(), None, ()
        for t in ts:
            if j0 != t * reach // run * run:
                j0 = t * reach // run * run
                diagonals = _diagonals(problem, j0, min(j0 + run, c // m))
                if tuple(diagonals) != keys:
                    keys = tuple(diagonals)
                    out[...] = 0.0
                    # where a block holds entry (r, r + d) of each diagonal d, among the columns of blocks t - 1 .. t + 1
                    col = np.arange(size) + np.array(keys)[:, None] + size
                    which, r = np.nonzero((col >= 0) & (col < 3 * size))
                    at = column_at[col[which, r]]
                    held = (at >= 0) & (row_at[r] < rows)
                    which, r, at = which[held], r[held], row_at[r[held]] * columns.size + at[held]
                stacked = np.stack(list(diagonals.values())).ravel()
                del diagonals
                source = which * (stacked.size // len(keys)) + r - j0 * m
            flat[at] = stacked[source + edges[t]]
            yield out

    def middle():
        """The middle block's rows c .. N - c - 1 over columns lo .. N - lo - 1, Fortran-ordered."""
        a, b, lo = c, N - c, edges[max(T - 1, 0)]
        out = np.zeros((N - 2 * lo, b - a)).T
        flat = out.ravel(order="K")
        # entry (r, r + d) of the matrix is flat[(r - a) + (r + d - lo) (b - a)]:
        # a diagonal of the block, stride b - a + 1
        for d, coef in _diagonals(problem, a // m, b // m).items():
            ra, rb = max(a, lo - d), min(b, N - lo - d)
            if ra < rb:
                start = (ra - a) + (ra + d - lo) * (b - a)
                flat[start:start + (rb - ra - 1) * (b - a + 1) + 1:b - a + 1] = coef.ravel()[ra - a:rb - a]
        return out

    def recovery():
        for out in arm_blocks(range(T - 1, -1, -1), Q.size):
            yield out[:, K.size:]

    return _Arm(edges, order, Q, K, J, int(coupled.sum()), nodes, row_at[J], arm_blocks(range(T)), middle, recovery())


# entries of D'[K, Q] D0[Q, Q]^-1 below _TINY in magnitude are set to zero, and a carry keeps
# only its rows and columns with an entry above max(_TINY, _CARRY_CUT max|C|) (``_kept_carry``)
_TINY = 2.0 ** -500
_CARRY_CUT = 2.0 ** -100


def _kept_carry(C: np.ndarray) -> tuple:
    """The rows and columns of the carry C with an entry above max(_TINY, _CARRY_CUT max|C|), and C on them.

    Returns (rows, cols, C[rows][:, cols]), the last C-ordered.  A carry
    with an entry that is not finite is kept whole: its max|C| is NaN or
    inf, which no entry exceeds, so the cut would drop a carry that must
    reach the field and fail the gate.  The entries above the cut lie in
    the rows kept, so the columns are read from those rows alone.
    """
    size = np.abs(C)
    row_max = size.max(axis=1)
    top = row_max.max()
    if not top < np.inf:
        return np.arange(C.shape[0]), np.arange(C.shape[1]), np.ascontiguousarray(C)
    cut = max(_TINY, _CARRY_CUT * top)
    rows = np.flatnonzero(row_max > cut)
    cols = np.flatnonzero(size[rows].max(axis=0, initial=0.0) > cut)
    return rows, cols, C[rows[:, None], cols]


def _block_sweep(problem: LinearProblem, rhs: np.ndarray | None = None) -> np.ndarray:
    """Solve M F = rhs for the (Nx + 1, m) field F by two-arm block elimination.

    M is the whole-field matrix of ``_diagonals``; it is not built.  With
    rhs None the right-hand side is ``problem.pinval``, so the free entries
    solve ``assemble``'s reduced system and the pinned ones hold the inflow
    data to rounding (partial pivoting may mix an identity row with the
    equations of its block).  Two arms, one from each inflow end, eliminate
    their node blocks toward the middle block around node Nx / 2.  Each
    arm's layout (block edges, the index sets Q, K and J, the node spans of
    Q and the fill rows) and its blocks come from ``_node_blocks``, as one
    ``_Arm`` record that the sweep reads; it keeps only the sides an arm
    serves, their (rhs, x) views and the arm's carries.
    U_t, the coupling of arm block t to block t + 1, is nonzero
    only in the columns J_t (about the channels of the next block that flow
    toward the arm's own end), so the carry is the half-rank
    C_t = D'_t^-1 U_t[:, J_t], D'_t being the block after the Schur update
    of the block before.  That update touches only D_{t+1}[:, J_t], on the
    rows of L_{t+1}, and L_{t+1} reads only the kept entries K of block t
    (the v > 0 ones), so each block keeps only C_t[K], and
    L_{t+1}[:, K] C_t[K] is the update: for upwind2 half of each carry.

    Each arm block eliminates its other entries Q first.  Their rows carry
    no Schur fill and no entry of L, so D'[Q, :] = D0[Q, :], D0 being the
    block as assembled, and they read only their own node and the nodes
    ahead: D0[Q, Q] is block triangular over the block's nodes, with
    c0 I - w H A(x) on each, H = diag(dx / |v|), and c0 and w the stencil's
    own-node transport and coupling weights (1.5 and 1 for upwind2, all of
    whose rows at Q are second order; 1 and 1 for upwind1; 1 and 1/2 for
    central).  A(x) is skew, so the similarity by H^(1/2) leaves c0 I plus
    a skew matrix, and each node's block is nonsingular.  Each is factored
    with partial pivoting and inverted (getrf, getri), and
    Y = D'[K, Q] D0[Q, Q]^-1 is formed node by node, first node first.
    Then only the Schur corner S = D'[K, K] - Y D0[Q, K] is factored (80 x
    80 for upwind2 on the flagship, where the block is 160 x 160), and
    C_t[K] = S^-1 (U[K, J] - Y U[Q, J]), p_t[K] = S^-1 (p[K] - Y p[Q]) for
    the block's right-hand side p after L's update.  Entries of Y below
    ``_TINY`` are set to zero: the inverses decay across the channels, and
    their products would otherwise reach subnormal numbers, which x86 cores
    compute slowly, while no such entry moves any entry of the field.

    Each carry is stored only on its rows and columns that hold an entry
    above max(``_TINY``, 2^-100 max|C_t[K]|), as a dense sub-block with
    their indices (``_kept_carry``), and the next block's Schur fill, the
    middle block's update and back substitution read that sub-block.  A
    carry reflects the v < 0 entries ahead into the block's v > 0 ones, and
    only the slow channels reflect above rounding, as the inverses of
    banded matrices decay (Demko, Moss & Smith, Math. Comp. 43, 1984): on
    the flagship at Nx = 1600 a sixth of the entries is kept.  A dropped
    entry lies 2^47 times below the rounding that ``getrs`` commits on
    C_t[K], about 2^-53 max|C_t[K]| in each entry, so the sweep is as
    backward stable as with whole carries.  The cut is not set at 2^-53:
    there the dropped entries are as large as that rounding, and at
    Nx = 6400 the fields moved by 3.0e-15 of their largest entry on the
    flagship and by 1.3e-13 on the lattice s = 0.3 kappa (5.4e-16 and
    5.3e-16 at 2^-100).

    Each arm's elimination reads its blocks to the end, which frees their
    buffer.  The middle block is then built in one call, takes the update
    of the last block of both arms and is solved whole; back substitution
    then reads x_t[K] = p_t[K] - C_t[K] x_{t+1}[J_t] down each arm and
    recovers the rest from the block's rows at Q, rebuilt (the record's
    recovery):
    D0[Q, Q] x_t[Q] = r_t[Q] - D0[Q, K] x_t[K] - U_t[Q, J_t] x_{t+1}[J_t],
    with D0[Q, Q] factored again node by node, since its factors would take
    about three times the memory of the stored carries (on the flagship,
    1.28M factor entries against 0.43M stored carry entries at Nx = 1600
    and 5.12M against 1.65M at Nx = 6400), and solved last node first.
    The arm from +l/2 is the arm from -l/2 of ``_mirror(problem)``, on the
    reversed right-hand side and field.  Where ``_arms`` gives one arm for
    both sides, it is factored once and carries both right-hand sides, each
    solved one column at a time as a second arm would, so the field is the
    one two factored arms give, to the bit.

    Raises:
        SolverError: a block, or the rows at Q that back substitution
            rebuilds, is exactly singular, or the middle block is not
            finite: it holds the Schur updates of both arms, which are
            computed values, while every entry read from the matrix was
            judged by ``_diagonals``, which raises for one past the float
            range.  A zero pivot of an arm block counts its entries in the
            order they are eliminated, Q node by node and then K; one of
            the recovery counts Q.
    """
    m, N, Nx = problem.system.grid.size, problem.pinned.size, problem.system.mesh.Nx
    rhs = (problem.pinval if rhs is None else rhs).ravel()
    getrf, getrs, getri = get_lapack_funcs(("getrf", "getrs", "getri"), (problem.pinval,))
    problems, arms = _arms(problem)
    x = np.empty(N)
    # each side of the field as its arm reads it: (right-hand side, solution)
    views = ((rhs, x), (rhs[::-1], x[::-1]))

    def fail(a, b, sides, why):
        """SolverError naming the mesh nodes of flat rows a .. b - 1 of an arm serving the sides."""
        where = _named(sides, "mesh node", a // m, (b - 1) // m, Nx)
        return SolverError(f"block elimination failed at {where}: {why}")

    def factor(D, a, b, sides, what="the block", entries=None, first=0, total=None):
        """getrf of D, a system of the block of flat rows a .. b - 1, in place if D is Fortran-ordered.

        Pivot i of D is the block's entry entries[i] (entry i if None) and
        counts as pivot first + i + 1 of total (of len(D) if None).
        """
        lu, piv, info = getrf(D, overwrite_a=True)
        if info > 0:
            j, k = divmod(int(a + (info - 1 if entries is None else entries[info - 1])), m)
            raise fail(a, b, sides, f"{what} is singular, zero pivot {first + info} of {total or len(D)} "
                                    f"({_named(sides[:1], 'node', j, j, Nx)}, "
                                    f"{_named(sides[:1], 'velocity index', k, k, m - 1)})")
        return lu, piv

    def factor_nodes(rows, sides, arm, a, b, what, total):
        """getrf of the block of D0[Q, Q] on each node, first node first; rows holds the rows Q over Q first."""
        return [factor(rows[s:e, s:e], a, b, sides, what, arm.Q[s:e], s, total) for s, e in arm.nodes]

    def flushed(A):
        """A with its entries below ``_TINY`` in magnitude set to zero, in place."""
        np.copyto(A, 0.0, where=np.abs(A) < _TINY)
        return A

    def eliminate(sides, arm):
        """Forward elimination of the arm serving the sides over its blocks, for their (rhs, x) views.

        Leaves the partial solutions p_t[K] in x and returns the kept part
        of each C_t[K] (``_kept_carry``).
        """
        edges, order, Q, K, nL = arm.edges, arm.order, arm.Q, arm.K, arm.nL
        nQ, nK, size = Q.size, K.size, order.size
        # the carries, and Y, C-ordered: on two threads OpenBLAS split the
        # Schur updates of the lattice s = 0.3 kappa, 82 x 82 x 80, with a
        # Fortran-ordered carry, and each such call stalled (CHANGES.md)
        carries = []
        Y = np.empty((nK, nQ))
        for t, G in enumerate(arm.blocks):
            a, b = edges[t], edges[t + 1]
            D = G[:, nK:]                               # the block's own columns, then the J of the next
            DK = D[nQ:].copy()                          # D'[K, :]
            if t:
                L = G[nQ:nQ + nL, :nK]
                rows, cols, carry = carries[t - 1]
                DK[:nL, arm.fills[cols]] -= L[:, rows] @ carry
            DQQ = D[:nQ, :nQ]
            for (s, e), (lu, piv) in zip(arm.nodes, factor_nodes(D, sides, arm, a, b, "the block", size)):
                inverse = flushed(getri(lu, piv, overwrite_lu=True)[0])
                Y[:, s:e] = (DK[:, s:e] - Y[:, :s] @ DQQ[:s, s:e] if s else DK[:, s:e]) @ inverse
                flushed(Y[:, s:e])
            # S and W = U[K, J] - Y U[Q, J] in two products, not one: on two
            # threads OpenBLAS split the flagship's 80 x 80 x 160 product, and
            # each such call stalled for milliseconds (CHANGES.md)
            DK[:, nQ:size] -= Y @ D[:nQ, nQ:size]
            DK[:, size:] -= Y @ D[:nQ, size:]
            lu, piv = factor(np.asfortranarray(DK[:, nQ:size]), a, b, sides, "the block", K, nQ, size)
            carries.append(_kept_carry(getrs(lu, piv, DK[:, size:])[0]))
            for r, y in (views[side] for side in sides):
                p = r[a + order]
                if t:
                    p[nQ:nQ + nL] -= L @ y[edges[t - 1] + K]
                y[a + K] = getrs(lu, piv, p[nQ:] - Y @ p[:nQ], overwrite_b=True)[0]
        return carries

    def recover(sides, arm, carries):
        """Back substitution down one arm: x_t[K] from the carries, then x_t[Q] from the block's rows at Q."""
        edges, Q, K, J = arm.edges, arm.Q, arm.K, arm.J
        for t, R in zip(range(len(carries) - 1, -1, -1), arm.recovery):
            a, b = edges[t], edges[t + 1]
            lus = factor_nodes(R, sides, arm, a, b, "the block's recovery system", Q.size)
            rows, cols, carry = carries[t]
            kept, read = a + K[rows], b + J[cols]
            for r, y in (views[side] for side in sides):
                y[kept] -= carry @ y[read]
                # x_t[Q], x_t[K] and x_{t+1}[J], in the order of R's columns; the
                # rows of a node read no entry of Q of the nodes before it
                z = np.concatenate((np.zeros(Q.size), y[a + K], y[b + J]))
                for (s, e), (lu, piv) in zip(arm.nodes[::-1], lus[::-1]):
                    z[s:e] = getrs(lu, piv, r[a + Q[s:e]] - R[s:e] @ z, overwrite_b=True)[0]
                y[a + Q] = z[:Q.size]

    layouts = [_node_blocks(problems[sides[0]]) for sides in arms]
    carries = [eliminate(sides, arm) for sides, arm in zip(arms, layouts)]
    edges = layouts[0].edges
    T, c = len(edges) - 2, edges[-2]
    lo = edges[max(T - 1, 0)]
    middle = layouts[0].middle()                      # rows c .. N - c - 1 over columns lo .. N - lo - 1
    D = middle[:, c - lo:N - c - lo]
    r = rhs[c:N - c].copy()
    if T:
        # the update of the last block of each arm, seen in its arm's order
        for arm, (k, j, carry), block, D_arm, r_arm, y in (
                (layouts[0], carries[0][-1], middle, D, r, x),
                (layouts[-1], carries[-1][-1], middle[::-1, ::-1], D[::-1, ::-1], r[::-1], x[::-1])):
            rows = arm.K[:arm.nL]
            L = block[np.ix_(rows, arm.K)]
            D_arm[np.ix_(rows, arm.J[j])] -= L[:, k] @ carry
            r_arm[rows] -= L @ y[lo + arm.K]
    if not np.isfinite(D).all():                     # the Schur updates of the arms are computed values
        raise fail(c, N - c, (False,), "the block is not finite")
    lu, piv = factor(D, c, N - c, (False,))
    x[c:N - c] = getrs(lu, piv, r, overwrite_b=True)[0]
    for sides, arm, kept in zip(arms, layouts, carries):
        recover(sides, arm, kept)
    return x.reshape(problem.pinned.shape)


def _march(problem: LinearProblem, start: np.ndarray, cells: int, sides=(False,), out=(), end=None):
    """March states over the first cells mesh cells of a problem from the given states at node 0.

    Cell c is the v > 0 rows of node c and the v < 0 rows of node c - 1 of
    the whole-field matrix; in ``central`` and ``upwind1`` they touch only
    nodes c - 1 and c.  They are read from ``_diagonals`` a run of
    ``_RUN_NODES`` cells at a time: a band B on the node-c columns, R on the
    node-(c - 1) ones, of bandwidth nb, the largest offset of a band of A(x).
    Each step solves B d = -(B + R) f_{c-1} for d = f_c - f_{c-1}, for w
    states at once (the transport entries cancel in B + R exactly), in
    buffers allocated once per march.  ``upwind1``'s v < 0 rows of B are its
    transport diagonal alone, so their half of d is explicit and only the
    v > 0 rows, a band of m - neg, are solved.

    sides, the sides of the period that the march serves (``_arms``; for
    ``central``, (False,) is the whole period), only name its cells in an
    error.

    start, shape (w, m), holds the w states at node 0.  After each cell c
    the march calls end(c, states), if given, with the (w, m) states at
    node c; it returns None, or the states to go on from in their place (a
    restart).  The march writes state i at node j into out[i][j], for the
    nodes j that out[i] has rows for, a run of nodes at a time, restarts
    included.  It holds the states in a ring, node j on row j modulo the
    ring's length: a run's nodes and the node before them if out is given,
    and else two rows, the node a step reads and the one it writes, so a
    march that writes no field keeps no run of states.

    Raises:
        SolverError: a cell matrix is singular.  The message names the cell
            of the original matrix for each side the march serves; a zero
            pivot counts the cell's rows in the march's order.  An entry
            past the float range raises in ``_diagonals``, which names the
            factor.
    """
    v = problem.system.grid.velocities
    m, Nx, w = v.size, problem.system.mesh.Nx, start.shape[0]
    nb = max((cols.start - rows.start for rows, cols, _ in problem.bands), default=0)
    neg = int(np.searchsorted(v, 0.0))                 # v is ascending and never 0
    explicit = problem.scheme is Scheme.UPWIND1
    run = min(_RUN_NODES, cells)
    # the states padded with nb zero channels on each side, in a ring that holds node j on row
    # j % ring: a run's nodes and the one before it if out is written, else two nodes; channel
    # k + e of state i on row j is window[j, i, nb + e, k]
    ring = run + 1 if out else 2
    padded = np.zeros((ring, w, m + 2 * nb))
    states = padded[..., nb:nb + m]
    states[0] = start
    window = np.lib.stride_tricks.sliding_window_view(padded, m, axis=2)
    gbsv = get_lapack_funcs("gbsv", (padded,))
    # band[i].T is B of cell c0 + i as gbsv's ab[2 nb + k - j, j] = B[k, j] (rows < nb: fill-in);
    # span[i, nb + e, k] = -(B + R)[k, k + e]
    band, span = np.empty((run, m, 3 * nb + 1)), np.empty((run, 2 * nb + 1, m))
    # one cell's product -(B + R) f_{c-1} by offset, its step d with views of d^- and d^+,
    # and d^+ packed contiguous for gbsv, all made once per march
    product, step = np.empty((w, 2 * nb + 1, m)), np.empty((w, m))
    packed = np.empty((w, m - neg))
    minus, plus = step[:, :neg], step[:, neg:]

    # a cell step is a function of its own: tracemalloc looks up the line of each allocation,
    # which Python finds by scanning the function's line table from its start, so each of a
    # step's allocations would cost several times more deep inside _march
    def advance(i, c):
        """March the states over cell c, the i-th of its run, and restart them if end says so."""
        before, after = (c - 1) % ring, c % ring       # the ring rows of nodes c - 1 and c
        np.multiply(span[i], window[before], out=product)
        product.sum(axis=1, out=step)
        if explicit:
            np.divide(minus, band[i, :neg, 2 * nb], out=minus)
            np.copyto(packed, plus)
            for e in range(1, nb + 1):                  # B[k, k - e] d_{k-e}, k >= neg > k - e
                a, b = max(neg - e, 0), min(neg, m - e)
                packed[:, a + e - neg:b + e - neg] -= band[i, a:b, 2 * nb + e] * minus[:, a:b]
            _, _, solved, info = gbsv(nb, nb, band[i, neg:].T, packed.T, overwrite_ab=True, overwrite_b=True)
            np.copyto(plus, solved.T)
            solved, info = step.T, info + neg * (info > 0)
        else:
            _, _, solved, info = gbsv(nb, nb, band[i].T, step.T, overwrite_ab=True, overwrite_b=True)
        if info > 0:                                  # cell c of the original matrix on each side served
            where = _named(sides, "cell", c, c, Nx + 1, aside=True)
            raise SolverError(f"{problem.scheme.value} march: {where} matrix is singular: zero pivot {info} of {m}")
        np.add(states[before], solved.T, out=states[after])
        restart = None if end is None else end(c, states[after])
        if restart is not None:
            states[after] = restart

    for c0 in range(1, cells + 1, run):
        count = min(run, cells + 1 - c0)
        band[:count] = span[:count] = 0.0
        for d, coef in _diagonals(problem, c0 - 1, c0 + count).items():
            # row k of cell c, on node c - back, reads channel k + e of node c - back + ahead:
            # e, ahead = r, q below channel m - r and r - m, q + 1 above, so a key can hold both nodes
            q, r = divmod(d, m)
            for lo, hi, back in ((0, neg, 1), (neg, m, 0)):
                rows = coef[1 - back:len(coef) - back]
                for a, b, e, ahead in ((lo, min(hi, m - r), r, q), (max(lo, m - r), hi, r - m, q + 1)):
                    if a < b and abs(e) <= nb and back - 1 <= ahead <= back:
                        if ahead == back:
                            band[:count, a + e:b + e, 2 * nb - e] = rows[:, a:b]
                        span[:count, nb + e, a:b] -= rows[:, a:b]
        for i in range(count):
            advance(i, c0 + i)
        for target, column in zip(out, states.transpose(1, 0, 2)):
            rows = target[c0 - 1:c0 + count]               # the run's nodes and the one before, if target has them
            rows[...] = column.take(range(c0 - 1, c0 - 1 + len(rows)), axis=0, mode="wrap")


def _central_march(problem: LinearProblem) -> np.ndarray:
    """Central field on the mesh by one forward march, shape (Nx + 1, m).

    Unscaled, cell c of ``_march`` reads (V - h/2 A_c) f_c =
    (V + h/2 A_{c-1}) f_{c-1}, V = diag(v).  The bands of A(x) are odd to
    the bit on the mirrored mesh, so A_{Nx-c} = -A_c, cell Nx + 1 - c
    inverts cell c and the period map is I: one segment marched from the
    inflow data of both ends meets the right-end inflow at +l/2.

    Raises:
        SolverError: a cell matrix is singular, or an entry of the matrix
            is past the float range (``_diagonals``).
    """
    field = np.empty(problem.pinned.shape)
    _march(problem, problem.system.boundary.values[None], problem.system.mesh.Nx, out=(field,))
    return field


# an upwind1 segment ends once the largest entry of its marched homogeneous states
# passes _SEGMENT_GROWTH, or after _SEGMENT_CELLS cells (measured in CHANGES.md).  The
# cell cap stays although growth ends most segments: without it, first-march gates
# rose up to 3.4 times (5.0e-14 to 1.7e-13 on coeffs 0, 30, 60, 30 at Nx=12800), and
# a growth bound of 3 or 5 did not win that back
_SEGMENT_GROWTH = 10.0
_SEGMENT_CELLS = 800


def _upwind1_march(problem: LinearProblem) -> np.ndarray:
    """Upwind1 field on the mesh by a stabilized march from both inflow ends, shape (Nx + 1, m).

    After Ascher, Mattheij & Russell (SIAM 1995, ch. 4.4).  Two arms march
    to node Nx / 2, x = 0 (``build_mesh`` takes only even Nx): the arm from
    -l/2 over cells 1 .. Nx / 2, and the arm from +l/2, the same march on
    ``_mirror(problem)`` (``_arms``), over cells Nx .. Nx / 2 + 1.  The
    inflow conditions are separated, so in an arm with n channels of
    velocity < 0 the state at the start n_s of segment s is
    y_s = Q_s c_s + p_s: the n columns of Q_s are orthonormal, Q_0 holds
    the unit vectors of those channels and p_0 is the side's ``pinval`` at
    node 0.  A transfer march (``_march``) carries n + 1 columns, Q_s and
    p_s; its hook ends a segment once an entry of the marched Q_s passes
    ``_SEGMENT_GROWTH`` in magnitude, after ``_SEGMENT_CELLS`` cells or at
    x = 0 (the rounding of y_s then stays small in the march that fills
    the field), and records the segment ends.  At each, the QR
    Y = Q_{s+1} R_s of the marched Q_s and the marched p_s, z_s, give
    g_s = Q_{s+1}^T z_s and p_{s+1} = z_s - Q_{s+1} g_s, so
    c_{s+1} = R_s c_s + g_s, and the hook restarts the march from Q_{s+1}
    and p_{s+1}.  At x = 0 the square system
    Q_L c_L + p_L = reverse(Q_R c_R + p_R), of the last segment of each
    arm, gives both arms' c_S; in each arm the back-recurrence
    c_s = R_s^-1 (c_{s+1} - g_s) gives the segment states, and a march of
    one column from y_0, whose hook restarts it from y_s at segment end
    n_s, fills its half of the field (node Nx / 2 from the arm from -l/2).

    Where ``_arms`` gives one arm for both sides, Q_s and R_s are marched
    once with the particular states of both sides (n + 2 columns), and the
    field march carries both sides' columns.  Segment ends depend only on
    Q_s, and each column is marched as it would be alone, so the field is
    the one two marched arms give, to the bit.  The back-recurrence is
    stable as the problem is well posed: |diag R_s| stays near 1
    (CHANGES.md).  Memory is O(S m n) for S segments, plus the field.

    Raises:
        SolverError: a cell matrix, the matching system or an R_s is
            singular, or an entry of the matrix is past the float range
            (``_diagonals``).
    """
    Nx, m = problem.system.mesh.Nx, problem.system.grid.size
    half = Nx // 2
    problems, arms = _arms(problem)

    def transfer(arm):
        """The edges, Q_s and R_s of an arm, and g_s and p_s of each side it serves, by side."""
        op = problems[arm[0]]
        neg = int(np.searchsorted(op.system.grid.velocities, 0.0))
        edges, Q, R = [0], [np.eye(m)[:, :neg]], []
        g = {side: [] for side in arm}
        p = {side: [problems[side].pinval[0]] for side in arm}
        magnitude = np.empty((neg, m))

        def start():
            """The states the next segment starts from: Q_s and each side's p_s."""
            return np.vstack((Q[-1].T, *(p[side][-1] for side in arm)))

        def end(c, states):
            """None within segment s; at its end, Q_{s+1}, R_s, g_s and p_{s+1} from the states, and the next start."""
            if not (c - edges[-1] == _SEGMENT_CELLS or c == half
                    or np.abs(states[:neg], out=magnitude).max() > _SEGMENT_GROWTH):
                return None
            edges.append(c)
            q, r = np.linalg.qr(states[:neg].T)
            Q.append(q)
            R.append(r)
            for side, z in zip(arm, states[neg:]):
                g[side].append(q.T @ z)
                p[side].append(z - q @ g[side][-1])
            return start()

        _march(op, start(), half, arm, end=end)
        return edges, Q, R, g, p

    marched = [transfer(arm) for arm in arms]
    ends = {side: (Q[-1], p[side][-1]) for _, Q, _, _, p in marched for side in p}
    (QL, pL), (QR, pR) = ends[False], ends[True]
    gesv, trtrs = get_lapack_funcs(("gesv", "trtrs"), (QL,))
    _, _, c, info = gesv(np.hstack((QL, -QR[::-1])), pR[::-1] - pL)
    if info > 0:
        raise SolverError(f"upwind1 march: the matching system at x = 0 is singular "
                          f"(segments per arm: {', '.join(str(len(R)) for _, _, R, _, _ in marched)})")
    c = {False: c[:QL.shape[1]], True: c[QL.shape[1]:]}
    field = np.empty((Nx + 1, m))
    halves = {False: field[:half + 1], True: field[::-1, ::-1][:half]}
    for arm, (edges, Q, R, g, p) in zip(arms, marched):
        y = np.empty((len(R), len(arm), m))
        for i, side in enumerate(arm):
            cs = c[side]
            for s in range(len(R) - 1, -1, -1):
                cs, info = trtrs(R[s], cs - g[side][s])
                if info > 0:
                    raise SolverError(f"upwind1 march: R of segment {s} from {'+' if side else '-'}l/2 is singular")
                y[s, i] = Q[s] @ cs + p[side][s]
        restarts = dict(zip(edges[1:-1], y[1:]))
        _march(problems[arm[0]], y[0], half, arm, [halves[side] for side in arm], lambda c, states: restarts.get(c))
    return field


def solve_bvp(system: WignerSystem, scheme: Scheme, rel_tol: float = 1e-12) -> DiscreteSolution:
    """Solve one scheme on one system, without assembling its matrix.

    One flow serves every scheme: a first iterate (the march of
    ``_central_march`` for ``central`` and of ``_upwind1_march`` for
    ``upwind1``, the sweep of ``_block_sweep`` for ``upwind2``) with its
    inflow entries reset to the data, the gate, and, if it misses rel_tol,
    one step of iterative refinement: a sweep on the residual field that
    the gate built, which is released once the sweep has read it or the
    gate has passed (it is as large as the field).  The step is not
    monotone on an ill-conditioned system, so the better iterate is kept
    (NaN is the worse).  An iterate
    with a residual of 1 or more, or a march that raises, is no better than
    ``problem.pinval`` (the inflow data alone, residual 1), so the step
    refines pinval instead and solves the system from the data.  A sweep
    that raises is not refined: the refinement would fail the same way.

    The system is solved with its inflow data divided by the power of two
    2^k that puts their largest magnitude in [1, 2), and the field is
    multiplied back by 2^k: exact, and safe from overflow in |b| (see
    ``kinetic._unit_scaled``).  Every result is gated on the relative
    residual |M x - b| / |b| of the linear system ``assemble`` sets up, a
    product with the diagonals of M that the marches and the sweep's node
    blocks read too (see ``_residual``), its norms kept in the float range
    (``kinetic._in_range``).  It differs from ``residual_norm`` of the
    assembled system only in the order of summation.  The flow runs with
    numpy's overflow, invalid and divide warnings off: a matrix entry past
    the float range raises in ``_diagonals``, which names the factor (a
    march that raises so is not refined, as the gate of ``pinval`` reads
    the same entries and raises the same error), and a step past it is
    caught by the middle block's check or by the gate.

    Args:
        system: the transport problem.
        scheme: stencil selector (Scheme or its string value).
        rel_tol: acceptance threshold for the relative residual; must lie
            in (0, 1e-6].

    Returns:
        DiscreteSolution whose residual is at most rel_tol.

    Raises:
        ValueError: bad rel_tol or scheme.
        SolverError: a matrix entry past the float range (the message
            names the factor), singular system, residual above rel_tol or
            a field that overflows when scaled back.  A missed gate's message gives
            the growth factor max|f| / max|b| of the rejected field, which
            sets an ill-conditioned truncation apart from a bug, and the
            first iterate's residual, or the error the march raised.
    """
    _valid_rel_tol(rel_tol)
    b, scale_back = _unit_scaled(system.boundary.values, SolverError)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        problem = assemble(replace(system, boundary=replace(system.boundary, values=b)), scheme)
        scheme = problem.scheme
        march = {Scheme.CENTRAL: _central_march, Scheme.UPWIND1: _upwind1_march}.get(scheme)
        try:
            field = (march or _block_sweep)(problem)
            np.copyto(field, problem.pinval, where=problem.pinned)   # marched, or swept to rounding
            res, R = _gate(problem, field)
            first = f"first iterate residual {res:.3e}"
        except SolverError as exc:
            if march is None:
                raise                                 # the refinement sweep would fail the same way
            res, first = float("nan"), str(exc)
        if res <= rel_tol:                            # NaN fails
            del R                                     # R is as large as the field: no longer held
        else:
            if not res < 1.0:                         # no better than pinval: refine pinval instead
                field = problem.pinval
                res, R = _gate(problem, field)
            refined = field + _block_sweep(problem, np.negative(R, out=R))
            del R                                     # read by the sweep; the next gate builds its own
            np.copyto(refined, problem.pinval, where=problem.pinned)
            refined_res = _gate(problem, refined)[0]
            if refined_res < res:
                field, res = refined, refined_res
    if not res <= rel_tol:
        b_max = np.abs(b).max()
        growth = max(np.abs(field).max(), b_max) / b_max
        raise SolverError(
            f"solver residual {res:.3e} exceeds rel_tol {rel_tol:.3e} "
            f"for scheme {scheme.value} at Nx={system.mesh.Nx}, growth factor "
            f"max|f| / max|b| = {growth:.3e}; {first}",
            residual=res,
        )

    values = scale_back(np.ascontiguousarray(field.T))
    values.flags.writeable = False
    return DiscreteSolution(values=values, system=system, scheme=scheme.value, residual=res)
