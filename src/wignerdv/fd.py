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
(``_diagonals``).  Every scheme is solved by one flow (``solve_bvp``): a
first iterate, the gate, and at most one refinement sweep.  ``central`` and
``upwind1`` march: their cells touch two nodes each, and one march
(``_march``) reads them from those diagonals.  ``central`` marches once from
the inflow data of both ends (``_central_march``): A(x) is odd and the mesh
mirror symmetric, so the discrete period map is the identity.  ``upwind1``
marches stabilized (``_upwind1_march``, after Ascher, Mattheij & Russell,
ch. 4.4) from both inflow ends to x = 0: in each arm n + 1 columns for its
n v < 0 channels, re-orthonormalized by a QR at each segment end, then a
square solve that matches the two arms at x = 0, a triangular
back-recurrence for the segment states, and a march of one column from
them.  ``upwind2`` sweeps: block tridiagonal elimination from both inflow
ends toward a middle block at x = 0 (``_block_sweep``), its node blocks
written from the diagonals.  Each block keeps only the rows of its carry
that the next block's Schur update reads (for upwind2 half of them: the
entries whose velocity points away from the arm's inflow end);
back substitution recovers the rest of the block's field from the
block's own rows there, rebuilt from the diagonals: a small system,
c0 I - w H A(x) on each node's entries, that is nonsingular because A(x)
is skew.  In the march and in the sweep, the arm from
+l/2 is the arm from -l/2 run on the reversed flat order,
(x, v) -> (-x, -v); on an antisymmetric velocity set that reversal maps
the matrix onto itself, and one arm, marched or factored once, serves
both.  The same sweep, on the gate's residual, is the refinement step of
every scheme.  The
gate is the residual of ``assemble``'s system, a product with the same
diagonals (``_residual``), summed a run of nodes at a time.
The reference ``LinearProblem.matrix`` and ``rhs`` are cut on first read.
"""

from __future__ import annotations

import collections
import enum
import functools
from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp
from scipy.linalg import get_lapack_funcs

from .kinetic import WignerSystem, _unit_scaled
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

# Guard against division by a zero right-hand-side norm.
_NORM_FLOOR = 1e-300

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
    ``rhs_norm`` is |b| of the reduced system, from b = -R(pinval).  The
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
        return float(np.linalg.norm(np.concatenate([_residual(self, self.pinval, *end) for end in ends])))

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
    (c v / dx) dx / |v|, c to rounding (ROADMAP item 6), on offset dj m, and a
    coupling leg (dj, w) puts -w coef dx / |v| of each band of A(x), x at
    node j + dj, on offset dj m + (cols.start - rows.start) over the band's
    rows.  Rows of v < 0 mirror those of v > 0 (see ``_stencil``).  No two
    legs meet on one entry, so each leg writes its entries in place.
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
    """Relative residual |M u - b| / max(|b|, tiny) in the Euclidean norm."""
    u = np.asarray(candidate, dtype=float)
    if u.shape != problem.rhs.shape:
        raise ValueError(
            f"candidate shape {u.shape} does not match rhs shape {problem.rhs.shape}"
        )
    r = problem.matrix @ u - problem.rhs
    return float(np.linalg.norm(r) / max(np.linalg.norm(problem.rhs), _NORM_FLOOR))


def _runs(mask: np.ndarray) -> tuple:
    """The runs of True in a mask, each as (slice of the mask, slice of its True entries packed)."""
    bounds = np.flatnonzero(np.diff(mask, prepend=False, append=False))
    runs, packed = [], 0
    for lo, hi in zip(bounds[::2].tolist(), bounds[1::2].tolist()):
        runs.append((slice(lo, hi), slice(packed, packed + hi - lo)))
        packed += hi - lo
    return tuple(runs)


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


def _residual_field(problem: LinearProblem, field: np.ndarray) -> np.ndarray:
    """R(F) = M F - pinval on the whole field, a run of ``_RUN_NODES`` nodes at a time."""
    field = np.ascontiguousarray(field)               # so that each run's ravel is a view
    R = np.empty(field.shape)
    for j0 in range(0, len(field), _RUN_NODES):
        R[j0:j0 + _RUN_NODES] = _residual(problem, field, j0, min(j0 + _RUN_NODES, len(field)))
    return R


def _gate(problem: LinearProblem, field: np.ndarray) -> float:
    """|R(F)| / max(|b|, tiny), R = M F - pinval summed a run of ``_RUN_NODES`` nodes at a time and not kept."""
    field = np.ascontiguousarray(field)
    squares = 0.0
    for j0 in range(0, len(field), _RUN_NODES):
        r = _residual(problem, field, j0, min(j0 + _RUN_NODES, len(field))).ravel()
        squares += r @ r
    return float(np.sqrt(squares) / max(problem.rhs_norm, _NORM_FLOOR))


def _mirror_invariant(problem: LinearProblem) -> bool:
    """Whether the whole-field matrix is its own image under the reversed flat order.

    Reversing the node-major flat index maps entry (j, k) to (Nx - j, m - 1 - k),
    that is (x, v) to (-x, -v).  The mesh is mirror symmetric and A(x) odd to
    the bit on it (``kinetic.build_mesh``, ``potential._bands``), so the
    reversal maps the matrix onto itself to the bit exactly when the velocity
    set is antisymmetric to the bit.
    """
    v = problem.system.grid.velocities
    return bool(np.array_equal(v, -v[::-1]))


def _node_blocks(problem: LinearProblem, mirrored: bool = False):
    """One arm of the two-arm block sweep, written from the whole-field matrix's diagonals.

    The sweep cuts the flat field into two arms of T node blocks each, one
    from each inflow end, and a middle block around node Nx / 2.  An arm
    block has reach m rows, reach being the farthest leg of the stencil (one
    node for upwind1 and central, node pairs for upwind2), so each block
    couples only to its two neighbours and the pinned rows lie in the first.
    The middle block holds the reach to 3 reach - 1 nodes left over, so the
    last block of each arm couples only to it.  The arm from -l/2 reads the
    matrix as it is.  The arm from +l/2 (mirrored) reads it in reversed
    flat order, (j, k) -> (Nx - j, m - 1 - k): that is the matrix of the
    mirrored problem, velocities -v[::-1], so the code that sweeps one arm
    sweeps both.  The diagonals are built for one run of ``_RUN_NODES`` nodes
    at a time and written into each block by strided writes.  The rows of
    L_t, the columns of block t - 1 that L_t reads and the columns J_t of
    U_t follow from the legs and the channel signs of the arm's own order,
    as do the columns that the coupling legs reach (the band spread), and
    are the same for every block.  A block's rows of u < 0 read only their
    own block and the next one, and its rows of u > 0 (the rows of L) only
    their own block and the one before.

    Returns (edges, coupled, kept, J, blocks, recovery), all in the arm's
    flat order: edges 0, reach m, ..., c, N - c bound the T arm blocks and
    the middle block; coupled, kept and J are masks over the reach m
    entries of a block: coupled the rows of L_t, kept the columns of block
    t - 1 that L_t reads together with the rows of L, which carry Schur
    fill (for every stencil here the u > 0 entries, and for central the
    band spread of their coupling legs too), and J the columns J_t within
    block t + 1 (the middle, for the last arm block).  blocks yields, for
    each arm block t in order, its rows over the columns of blocks
    t - 1 .. t + 1, and then the middle block's rows over the columns of
    the last block of both arms, Fortran-ordered so that the sweep factors
    a block's own columns in place.  recovery
    yields, for each arm block t from T - 1 down to 0, its rows off kept
    over the columns of blocks t and t + 1, rebuilt from the diagonals a
    run at a time.
    """
    Nx = problem.system.mesh.Nx
    m = problem.system.grid.size
    v = problem.system.grid.velocities
    u = -v[::-1] if mirrored else v                  # the velocities in the arm's order
    legs = _stencil(problem.scheme, Nx)
    reach = _reach(legs)
    N = problem.pinned.size
    T = (Nx + 1 - reach) // (2 * reach)
    c = T * reach * m
    size = reach * m
    edges = np.append(np.arange(0, c + 1, size), N - c)
    spread = {}                                  # by the sign of u: the channels their rows' coupling legs read
    for sign in (1, -1):
        channels = np.zeros(m, dtype=bool)
        for rows, cols, _ in problem.bands:
            channels[cols] |= sign * (-v[rows] if mirrored else v[rows]) > 0
        spread[sign] = channels[::-1] if mirrored else channels
    # a leg (dj, .) of a u < 0 row reads -dj nodes ahead, so the block before
    # reads into the first -dj nodes of a block; the farthest leg reaches
    # reach nodes back, so every u > 0 row reads the block before, and a leg
    # (dj, .) of a u > 0 row reads the last -dj nodes of the block before
    carried, behind = np.zeros((2, reach, m), dtype=bool)
    for _, transport, coupling in legs:
        reads = [(dj, u < 0, u > 0) for dj, _ in transport] + [(dj, spread[-1], spread[1]) for dj, _ in coupling]
        for dj, ahead, back in reads:
            carried[:-dj] |= ahead
            behind[reach + dj:] |= back
    coupled = np.tile(u > 0, reach)
    kept, J = behind.ravel() | coupled, carried.ravel()
    run = reach * max(_RUN_NODES // reach, 1)

    def diagonals(j0, j1):
        """The diagonals of the arm's nodes j0 .. j1 - 1, flat, and the flat row they start at."""
        n0, n1 = (Nx + 1 - j1, Nx + 1 - j0) if mirrored else (j0, j1)
        return {d: coef.ravel() for d, coef in _diagonals(problem, n0, n1).items()}, n0 * m

    def block(loaded, rows, cols, out=None):
        """The arm's rows a .. b - 1 over its columns lo .. hi - 1, from loaded diagonals.

        Written into out, zero and contiguous in either order, or else into
        a new Fortran-ordered block.
        """
        (a, b), (lo, hi) = rows, cols
        out = np.zeros((hi - lo, b - a)).T if out is None else out
        flat, (coefs, base) = out.ravel(order="K"), loaded
        if mirrored:                     # the reversed flat view reads the block in natural order
            flat, (a, b), (lo, hi) = flat[::-1], (N - b, N - a), (N - hi, N - lo)
        # entry (r, r + d) of the matrix is flat[(r - a) sr + (r + d - lo) sc],
        # sr and sc the strides of out: a diagonal of the block, stride sr + sc
        sr, sc = (stride // out.itemsize for stride in out.strides)
        for d, coef in coefs.items():
            ra, rb = max(a, lo - d), min(b, hi - d)
            if ra < rb:
                start = (ra - a) * sr + (ra + d - lo) * sc
                flat[start:start + (rb - ra - 1) * (sr + sc) + 1:sr + sc] = coef[ra - base:rb - base]
        return out

    def blocks():
        for j0 in range(0, c // m, run):
            loaded = diagonals(j0, min(j0 + run, c // m))
            for t in range(j0 // reach, min(j0 + run, c // m) // reach):
                yield block(loaded, edges[t:t + 2], (edges[max(t - 1, 0)], edges[t + 2]))
        lo = edges[max(T - 1, 0)]
        yield block(diagonals(c // m, (N - c) // m), (c, N - c), (lo, N - lo))

    def recovery():
        recovered, count = _runs(~kept), size - kept.sum()
        for j0 in range((c // m - 1) // run * run, -1, -run):
            loaded = diagonals(j0, min(j0 + run, c // m))
            for t in range(min(j0 + run, c // m) // reach - 1, j0 // reach - 1, -1):
                out = np.zeros((count, 2 * size))
                for rows, packed in recovered:
                    block(loaded, (edges[t] + rows.start, edges[t] + rows.stop),
                          (edges[t], edges[t] + 2 * size), out[packed])
                yield out

    return edges, coupled, kept, J, blocks(), recovery()


# one arm of the block sweep as ``_block_sweep`` carries it from the forward pass to back substitution
_Arm = collections.namedtuple("_Arm", "mirrored columns edges coupled kept J rest carries blocks recovery")


def _block_sweep(problem: LinearProblem, rhs: np.ndarray | None = None) -> np.ndarray:
    """Solve M F = rhs for the (Nx + 1, m) field F by two-arm block elimination.

    M is the whole-field matrix of ``_diagonals``; it is not built.  With
    rhs None the right-hand side is ``problem.pinval``, so the free entries
    solve ``assemble``'s reduced system and the pinned ones hold the inflow
    data to rounding (partial pivoting may mix an identity row with the
    equations of its block).  Two arms, one from each inflow end, eliminate
    their node blocks (``_node_blocks``) toward the middle block around node
    Nx / 2.  U_t, the coupling of arm block t to block t + 1, is nonzero
    only in the columns J_t (about the channels of the next block that flow
    toward the arm's own end), so the carry is the half-rank
    C_t = D'_t^-1 U_t[:, J_t].  The Schur update touches only
    D_{t+1}[:, J_t], on the rows of L_{t+1}, and L_{t+1} reads only the
    kept entries of block t (the u > 0 ones), so each block keeps only
    C_t[kept], L_{t+1}[:, kept] C_t[kept] is the update, and the other rows
    of C_t are dropped: for upwind2 half of each carry.
    The middle block takes the update of the last block of both arms and is
    solved once; back substitution then reads
    x_t[kept] = p_t[kept] - C_t[kept] x_{t+1}[J_t] down each arm and
    recovers the rest, x_t[Q], from the block's own rows at Q: they carry
    no Schur fill and no entry of L, so
    D0[Q, Q] x_t[Q] = r_t[Q] - D0[Q, kept] x_t[kept] - U_t[Q, J_t] x_{t+1}[J_t],
    D0 being the block as assembled, its rows at Q rebuilt from the
    diagonals a run at a time on the way back (``_node_blocks``).  Those
    rows read only their own node and the nodes ahead, so D0[Q, Q] is block
    triangular over the block's nodes (a node pair for upwind2), with
    c0 I - w H A(x) on each node: H = diag(dx / |v|) on its entries, and c0
    and w the stencil's own-node transport and coupling weights (1.5 and 1
    for upwind2's second-order rows, which all of Q are; 1 and 1 for
    upwind1; 1 and 1/2 for central).  A(x) is skew, so the similarity by
    H^(1/2) leaves c0 I plus a skew matrix, and D0[Q, Q] is nonsingular.
    Its solve takes each right-hand side alone; a non-finite or singular
    D0[Q, Q] raises, naming the block's mesh nodes as a forward block does.
    Where L reads every column, Q is empty.  The arm from +l/2 is
    the arm from -l/2 run on the reversed flat order, its right-hand side
    and field reversed too.  Where that reversal maps M onto itself
    (``_mirror_invariant``: the velocity set is antisymmetric), the two
    arms' blocks are equal to the bit, so one arm is factored and carries
    both right-hand sides, its own and the reversed one; each is solved one
    column at a time, on the way down and back, as a second arm would, so
    the field is the one two factored arms give, to the bit.

    Raises:
        SolverError: a block, or a block's D0[Q, Q], is not finite or is
            exactly singular.
    """
    m, N = problem.system.grid.size, problem.pinned.size
    rhs = (problem.pinval if rhs is None else rhs).ravel()
    getrf, getrs = get_lapack_funcs(("getrf", "getrs"), (problem.pinval,))
    shared = _mirror_invariant(problem)
    x = np.empty(N)
    # each side of the field as its arm reads it: (right-hand side, solution)
    sides = ((rhs, x), (rhs[::-1], x[::-1]))

    def fail(a, b, mirrored, why):
        """SolverError naming the mesh nodes of the arm's flat rows a .. b - 1."""
        def nodes(a, b):
            first, last = a // m, (b - 1) // m
            return f"mesh node {first}" if first == last else f"mesh nodes {first}-{last}"
        where = nodes(N - b, N - a) if mirrored else nodes(a, b)
        if shared and a + b != N:                     # a shared arm block stands for its mirror too
            where += f" and, mirrored, {nodes(N - b, N - a)}"
        return SolverError(f"block elimination failed at {where}: {why}")

    def factor(D, a, b, mirrored, runs=None):
        """getrf of D, the block of the arm's flat rows a .. b - 1, or of their rows in the runs if given."""
        what = "the block" if runs is None else "the block's recovery system"
        if not np.isfinite(D).all():
            raise fail(a, b, mirrored, f"{what} is not finite")
        lu, piv, info = getrf(D, overwrite_a=True)
        if info > 0:
            i = info - 1
            if runs is not None:
                i = next(rows.start + i - packed.start for rows, packed in runs if i < packed.stop)
            flat = a + i
            j, k = divmod(int(N - 1 - flat if mirrored else flat), m)
            raise fail(a, b, mirrored, f"{what} is singular, zero pivot {info} of {len(D)} "
                                       f"(node {j}, velocity index {k})")
        return lu, piv

    def take(M, runs):
        """The columns of M (or entries of a vector) in the runs, packed, as a Fortran-ordered copy."""
        out = np.empty(M.shape[:-1] + (runs[-1][1].stop if runs else 0,), order="F")
        for src, dst in runs:
            out[..., dst] = M[..., src]
        return out

    def update(D, block, arm, carry):
        """D[rows of L, J] -= L[:, kept] carry, L the block's rows over the block before; returns L[:, kept]."""
        L = np.empty((arm.coupled[-1][1].stop, carry.shape[0]))
        for rows, packed in arm.coupled:
            L[packed] = take(block[rows], arm.kept)
        fill = L @ carry
        for rows, packed in arm.coupled:
            for cols, at in arm.J:
                D[rows, cols] -= fill[packed, at]
        return L

    def reduce(p, L, arm, y):
        """p[rows of L] -= L[:, kept] y[kept], y the partial solution of the block before."""
        z = L @ take(y, arm.kept)
        for rows, packed in arm.coupled:
            p[rows] -= z[packed]

    def eliminate(mirrored, columns):
        """Forward elimination of one arm over its T blocks, for the (rhs, x) columns it serves.

        Leaves the partial solutions p_t in x and returns the arm: its
        flag, columns, edges, the runs of the rows of L, of kept, of J and
        of the recovered entries, the kept rows of the carries, and the
        blocks, which yield the middle block next, and the recovery rows.
        """
        edges, coupled, kept, J, blocks, recovery = _node_blocks(problem, mirrored)
        T = len(edges) - 2
        # the kept rows of the carries share one buffer of exactly their
        # size, each a Fortran-ordered view
        carries = np.empty((T, J.sum(), kept.sum())).transpose(0, 2, 1)
        arm = _Arm(mirrored, columns, edges, _runs(coupled), _runs(kept), _runs(J), _runs(~kept),
                   carries, blocks, recovery)
        for t, block in zip(range(T), blocks):
            a, b = edges[t], edges[t + 1]
            lo = edges[max(t - 1, 0)]
            D = block[:, a - lo:b - lo]                  # a Fortran-ordered view, factored in place
            if t > 0:
                L = update(D, block, arm, carries[t - 1])
            lu, piv = factor(D, a, b, mirrored)
            for r, y in columns:
                p = r[a:b].copy()
                if t > 0:
                    reduce(p, L, arm, y[lo:a])
                y[a:b] = getrs(lu, piv, p, overwrite_b=True)[0]
            C = getrs(lu, piv, take(block[:, b - lo:], arm.J), overwrite_b=True)[0]
            for rows, packed in arm.kept:
                carries[t][packed] = C[rows]
        return arm

    def recover(arm):
        """Back substitution down one arm: x_t[kept] from the carries, then x_t[Q] from the block's rows at Q."""
        edges, size, rest = arm.edges, arm.edges[1], arm.rest
        for t, R in zip(range(len(edges) - 3, -1, -1), arm.recovery):
            a, b = edges[t], edges[t + 1]
            if rest:
                lu, piv = factor(take(R, rest), a, b, arm.mirrored, rest)
            for r, y in arm.columns:
                z = arm.carries[t] @ take(y[b:b + size], arm.J)
                x_t = y[a:b]
                for rows, packed in arm.kept:
                    x_t[rows] -= z[packed]
                if rest:
                    for rows, _ in rest:
                        x_t[rows] = 0.0
                    q = take(r[a:b], rest) - R @ y[a:a + 2 * size]
                    q = getrs(lu, piv, q, overwrite_b=True)[0]
                    for rows, packed in rest:
                        x_t[rows] = q[packed]

    left = eliminate(False, sides if shared else sides[:1])
    right = left if shared else eliminate(True, sides[1:])
    edges = left.edges
    T, c = len(edges) - 2, edges[-2]
    lo = edges[max(T - 1, 0)]
    middle = next(left.blocks)                        # rows c .. N - c - 1 over columns lo .. N - lo - 1
    D = middle[:, c - lo:N - c - lo]
    r = rhs[c:N - c].copy()
    if T:
        # the update of the last block of each arm, seen in its arm's order
        for arm, block, D_arm, r_arm, y in (
                (left, middle, D, r, x), (right, middle[::-1, ::-1], D[::-1, ::-1], r[::-1], x[::-1])):
            L = update(D_arm, block[:, :c - lo], arm, arm.carries[-1])
            reduce(r_arm, L, arm, y[lo:c])
    lu, piv = factor(D, c, N - c, False)
    x[c:N - c] = getrs(lu, piv, r, overwrite_b=True)[0]
    for arm in (left,) if shared else (left, right):
        recover(arm)
    return x.reshape(problem.pinned.shape)


# an upwind1 segment ends once the largest entry of its marched homogeneous states
# passes _SEGMENT_GROWTH, or after _SEGMENT_CELLS cells (measured in CHANGES.md).  The
# cell cap stays although growth ends most segments: without it, first-march gates
# rose up to 3.4 times (5.0e-14 to 1.7e-13 on coeffs 0, 30, 60, 30 at Nx=12800), and
# a growth bound of 3 or 5 did not win that back
_SEGMENT_GROWTH = 10.0
_SEGMENT_CELLS = 800


def _march(problem: LinearProblem, starts: np.ndarray, cells: int, arms=(False,), edges=None, out=(), restart=None):
    """March states over the first cells mesh cells of an arm from given states at segment starts.

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

    arms are the arms the cells stand for, each a flag mirrored: (False,)
    the arm from -l/2 (for ``central``, the whole period), (True,) the arm
    from +l/2 and (False, True) both.  The arm from +l/2 reads the matrix in
    reversed flat order, (j, k) -> (Nx - j, m - 1 - k): the matrix of the
    mirrored problem, velocities -v[::-1], whose cell c is cell Nx + 1 - c;
    its states are in that reversed channel order.  Both arms are served by
    one march where that reversal maps the matrix onto itself
    (``_mirror_invariant``), and it reads the cells of the arm from -l/2.

    starts, shape (S, w, m), holds the w states of each segment at its
    first node.  With edges, the nodes 0 = n_0 < ... < n_S = cells that
    bound the segments, the march writes state i at node j into out[i][j],
    for the nodes j of the arm that out[i] has rows for, a run of nodes at a
    time: node n_s holds starts[s], in place of the marched end of segment
    s - 1, and node cells is marched.  Without edges, the march starts from
    starts[0]; a segment ends once max|state| over the first neg states
    passes ``_SEGMENT_GROWTH`` or after ``_SEGMENT_CELLS`` cells, and
    restart, called with the (w, m) states at each segment end, returns the
    next segment's start states (at node cells, where none follows, its
    return is unused).  The march returns the edges.

    Raises:
        SolverError: a cell matrix is not finite or is singular.  The message
            names the cell of the original matrix for each arm the march
            serves; a zero pivot counts the cell's rows in the arm's order.
    """
    mirrored = arms[0]
    v = problem.system.grid.velocities
    v = -v[::-1] if mirrored else v                    # the velocities in the arm's order
    m, Nx, w = v.size, problem.system.mesh.Nx, starts.shape[1]
    nb = max((cols.start - rows.start for rows, cols, _ in problem.bands), default=0)
    neg = int(np.searchsorted(v, 0.0))                 # v is ascending and never 0
    field = edges is not None
    explicit = problem.scheme is Scheme.UPWIND1
    run = min(_RUN_NODES, cells)
    # the states padded with nb zero channels on each side, for the field one node per row
    # from node c0 - 1 of the run on; channel k + e of state i on row j is window[j, i, nb + e, k]
    padded = np.zeros((run + 1 if field else 1, w, m + 2 * nb))
    states = padded[..., nb:nb + m]
    states[0] = starts[0]
    for target, state in zip(out, starts[0]):
        target[0] = state
    window = np.lib.stride_tricks.sliding_window_view(padded, m, axis=2)
    gbsv = get_lapack_funcs("gbsv", (padded,))
    edges, s = list(edges) if field else [0], 0
    # band[i].T is B of cell c0 + i as gbsv's ab[2 nb + k - j, j] = B[k, j] (rows < nb: fill-in);
    # span[i, nb + e, k] = -(B + R)[k, k + e] holds every entry of B too, so only it is checked
    band, span = np.empty((run, m, 3 * nb + 1)), np.empty((run, 2 * nb + 1, m))
    # one cell's product -(B + R) f_{c-1} by offset, its step d with views of d^- and d^+,
    # d^+ packed contiguous for gbsv, and |f_c| of the first neg states, all made once per march
    product, step = np.empty((w, 2 * nb + 1, m)), np.empty((w, m))
    packed, magnitude = np.empty((w, m - neg)), np.empty((neg, m))
    minus, plus = step[:, :neg], step[:, neg:]

    def fail(c, why):
        """SolverError naming cell c of the arm as the cell of the original matrix in each arm served."""
        where = f"cell {Nx + 1 - c if mirrored else c}"
        if len(arms) > 1:                              # a shared arm's cell stands for its mirror too
            where += f" (and, mirrored, cell {Nx + 1 - c})"
        return SolverError(f"{problem.scheme.value} march: {where} matrix {why}")

    def diagonals(j0, j1):
        """``_diagonals`` of the arm's nodes j0 .. j1 - 1, in the arm's order."""
        if not mirrored:
            return _diagonals(problem, j0, j1)
        return {-d: coef[::-1, ::-1] for d, coef in _diagonals(problem, Nx + 1 - j1, Nx + 1 - j0).items()}

    # a cell step is a function of its own: tracemalloc looks up the line of each allocation,
    # which Python finds by scanning the function's line table from its start, so each of a
    # step's allocations would cost several times more deep inside _march
    def advance(i, c):
        """March the states over cell c, the i-th of its run; max|f_c| if they are not a field."""
        if field:
            read, last, now = window[i], states[i], states[i + 1]
        else:
            read, last, now = window[0], states[0], states[0]
        np.multiply(span[i], read, out=product)
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
        if info > 0:
            raise fail(c, f"is singular: zero pivot {info} of {m}")
        np.add(last, solved.T, out=now)
        return None if field else np.abs(now[:neg], out=magnitude).max()

    for c0 in range(1, cells + 1, run):
        count = min(run, cells + 1 - c0)
        band[:count] = span[:count] = 0.0
        for d, coef in diagonals(c0 - 1, c0 + count).items():
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
        finite = np.isfinite(span[:count]).all(axis=(1, 2))
        if not finite.all():
            raise fail(c0 + int(np.argmin(finite)), "is not finite")
        for i in range(count):
            c = c0 + i
            grown = advance(i, c)
            if field:
                if c == edges[s + 1] and c < cells:
                    s += 1
                    states[i + 1] = starts[s]
            elif c - edges[-1] == _SEGMENT_CELLS or c == cells or grown > _SEGMENT_GROWTH:
                edges.append(c)
                states[0] = restart(states[0])
        if field:
            for target, column in zip(out, states.transpose(1, 0, 2)):
                rows = target[c0:c0 + count]               # the run's nodes that target has rows for
                rows[...] = column[1:len(rows) + 1]
            states[0] = states[count]
    return None if field else edges


def _central_march(problem: LinearProblem) -> np.ndarray:
    """Central field on the mesh by one forward march, shape (Nx + 1, m).

    Unscaled, cell c of ``_march`` reads (V - h/2 A_c) f_c =
    (V + h/2 A_{c-1}) f_{c-1}, V = diag(v).  The bands of A(x) are odd to
    the bit on the mirrored mesh, so A_{Nx-c} = -A_c, cell Nx + 1 - c
    inverts cell c and the period map is I: one segment marched from the
    inflow data of both ends meets the right-end inflow at +l/2.

    Raises:
        SolverError: a cell matrix is not finite or is singular.
    """
    Nx = problem.system.mesh.Nx
    field = np.empty(problem.pinned.shape)
    _march(problem, problem.system.boundary.values[None, None], Nx, edges=(0, Nx), out=(field,))
    return field


def _upwind1_march(problem: LinearProblem) -> np.ndarray:
    """Upwind1 field on the mesh by a stabilized march from both inflow ends, shape (Nx + 1, m).

    After Ascher, Mattheij & Russell (SIAM 1995, ch. 4.4).  Two arms march
    to node Nx / 2, x = 0 (``build_mesh`` takes only even Nx): the arm from
    -l/2 over cells 1 .. Nx / 2, and the arm from +l/2, the same march on
    the reversed flat order (see ``_march``), over cells Nx .. Nx / 2 + 1
    from the inflow data b[::-1].  The inflow conditions are separated, so
    in an arm with n channels of velocity < 0, in its order, the state at
    the start n_s of segment s is y_s = Q_s c_s + p_s: the n columns of Q_s
    are orthonormal, and y_0 = [c_0; the arm's inflow data] with Q_0 the
    unit vectors of those n channels.  ``_march`` carries n + 1 columns
    over each segment, Q_s and p_s, and ends a segment where Q_s grows (the
    rounding of y_s then stays small in the march that fills the field).
    At each segment end the QR Y = Q_{s+1} R_s of the marched Q_s and the
    marched p_s, z_s, give g_s = Q_{s+1}^T z_s and
    p_{s+1} = z_s - Q_{s+1} g_s, so c_{s+1} = R_s c_s + g_s, and the next
    segment starts from Q_{s+1} and p_{s+1}.  At x = 0 the
    square system Q_L c_L + p_L = reverse(Q_R c_R + p_R), of the last
    segment of each arm, gives both arms' c_S.  In each arm the
    back-recurrence c_s = R_s^-1 (c_{s+1} - g_s) gives the segment states,
    and a march of one column from them fills its half of the field (node
    Nx / 2 from the arm from -l/2).

    Where the reversal maps the matrix onto itself (``_mirror_invariant``),
    the cells of the two arms are equal to the bit, so Q_s and R_s are
    marched once, with the particular states of both arms (n + 2 columns),
    and the field march carries both arms' columns.  Segment ends depend
    only on Q_s, and each column is marched as it
    would be alone, so the field is the one two marched arms give, to the
    bit.  The back-recurrence is stable as the problem is well posed:
    |diag R_s| stays near 1 (CHANGES.md).  Memory is O(S m n) for S
    segments, plus the field.

    Raises:
        SolverError: a cell matrix is not finite or is singular, or the
            matching system or an R_s is singular.
    """
    Nx, v, b = problem.system.mesh.Nx, problem.system.grid.velocities, problem.system.boundary.values
    m, half = v.size, Nx // 2
    # an arm is the sides it stands for, each a flag mirrored (see _march)
    arms = ((False, True),) if _mirror_invariant(problem) else ((False,), (True,))

    def transfer(arm):
        """The edges, Q_s and R_s of an arm, and g_s and p_s of each side it serves, by side."""
        neg = int(np.searchsorted(-v[::-1] if arm[0] else v, 0.0))
        Q, R = [np.eye(m)[:, :neg]], []
        g = {side: [] for side in arm}
        p = {side: [np.concatenate((np.zeros(neg), (b[::-1] if side else b)[neg:]))] for side in arm}

        def start():
            """The states the next segment starts from: Q_s and each side's p_s."""
            return np.vstack((Q[-1].T, *(p[side][-1] for side in arm)))

        def restart(states):
            """Q_{s+1}, R_s, g_s and p_{s+1} from the states at the end of segment s; the next start."""
            q, r = np.linalg.qr(states[:neg].T)
            Q.append(q)
            R.append(r)
            for side, z in zip(arm, states[neg:]):
                g[side].append(q.T @ z)
                p[side].append(z - q @ g[side][-1])
            return start()

        return _march(problem, start()[None], half, arm, restart=restart), Q, R, g, p

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
        _march(problem, y, half, arm, edges, [halves[side] for side in arm])
    return field


def solve_bvp(system: WignerSystem, scheme: Scheme, rel_tol: float = 1e-12) -> DiscreteSolution:
    """Solve one scheme on one system, without assembling its matrix.

    One flow serves every scheme: a first iterate (the march of
    ``_central_march`` for ``central`` and of ``_upwind1_march`` for
    ``upwind1``, the sweep of ``_block_sweep`` for ``upwind2``) with its
    inflow entries reset to the data, the gate, and, if it misses rel_tol,
    one step of iterative refinement: a sweep on the residual field, which
    is built only then.  The step is not monotone on an ill-conditioned
    system, so the better iterate is kept (NaN is the worse).  An iterate
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
    blocks read too (see ``_residual``).  It differs from ``residual_norm``
    of the assembled system only in the order of summation.

    Args:
        system: the transport problem.
        scheme: stencil selector (Scheme or its string value).
        rel_tol: acceptance threshold for the relative residual; must lie
            in (0, 1e-6].

    Returns:
        DiscreteSolution whose residual is at most rel_tol.

    Raises:
        ValueError: bad rel_tol or scheme.
        SolverError: singular system, residual above rel_tol or a field
            that overflows when scaled back.  A missed gate's message gives
            the growth factor max|f| / max|b| of the rejected field, which
            sets an ill-conditioned truncation apart from a bug, and the
            first iterate's residual, or the error the march raised.
    """
    _valid_rel_tol(rel_tol)
    b, scale_back = _unit_scaled(system.boundary.values, SolverError)
    problem = assemble(replace(system, boundary=replace(system.boundary, values=b)), scheme)
    scheme = problem.scheme
    march = {Scheme.CENTRAL: _central_march, Scheme.UPWIND1: _upwind1_march}.get(scheme)
    try:
        field = (march or _block_sweep)(problem)
        np.copyto(field, problem.pinval, where=problem.pinned)   # marched, or swept to rounding
        res = _gate(problem, field)
        first = f"first iterate residual {res:.3e}"
    except SolverError as exc:
        if march is None:
            raise                                 # the refinement sweep would fail the same way
        res, first = float("nan"), str(exc)
    if not res <= rel_tol:                        # NaN fails too
        if not res < 1.0:                         # no better than pinval: refine pinval instead
            field = problem.pinval
            res = _gate(problem, field)
        refined = field + _block_sweep(problem, -_residual_field(problem, field))
        np.copyto(refined, problem.pinval, where=problem.pinned)
        refined_res = _gate(problem, refined)
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
