"""Self-checks tying the solver pieces to the structure they discretize.

Each check returns a CheckResult; the CLI verify command runs the whole
suite and reports one pass/fail line per check.  The checks are:

  coupling-bound        |A(x) f|_2 never exceeds 2 sum |a_n|.
  propagator-mirror     propagation from -l/2 is even in the target:
                        P_[-l/2,x] equals P_[-l/2,-x], which holds iff
                        P_[0,x] equals P_[0,-x] (potential oddness), and
                        the period propagator P_[-l/2,l/2] is the identity.
  propagator-inversion  P_[x2,x1] inverts P_[x1,x2].
  free-streaming        zero coupling transports inflow data unchanged,
                        for all difference schemes and the oracle.
  current-conservation  the channel current J_j is constant in x for the
                        cell form to solver precision and its deviation
                        shrinks under refinement for the one-sided form,
                        or is already at rounding.

``run_all_checks`` runs the mirror check on the calling thread while one
worker thread runs the other four in the order above, so the seeded
generator gives each check the draws of a sequential run.  Their numpy
loops and LAPACK calls release the GIL: on two CPUs the suite takes
0.77-1.05 s instead of 1.08-1.42 s on the bundled configuration, at about
2 MB more peak RSS for the worker's temporaries; on one CPU it is 14-24%
slower.
"""

from __future__ import annotations

import concurrent.futures
from dataclasses import dataclass, replace

import numpy as np

from .analysis import _SCHEMES, _solve, current
from .fd import Scheme, solve_bvp
from .kinetic import WignerSystem, _in_range, build_mesh, build_system, mono_energetic_boundary
from .potential import apply_coupling, coupling_bound, new_potential
from .propagator import _march, propagator_matrix

__all__ = [
    "CheckResult",
    "check_coupling_bound",
    "check_propagator_mirror",
    "check_propagator_inversion",
    "check_free_streaming",
    "check_current_conservation",
    "run_all_checks",
]

# Random unit vectors at each of the random points of the coupling-bound check.
_COUPLING_VECTORS = 100
_COUPLING_POINTS = 10
# Points of the mirror check, as fractions of the half period.
_MIRROR_FRACTIONS = (0.1, 0.3, 0.5, 0.9)
# Tolerance on propagator matrix entries (mirror, period, inversion).
_PROPAGATOR_TOL = 1e-8
# Random intervals of the inversion check, each at most this long, and
# shorter than the period (the draw is capped there, so that an interval fits).
_INVERSION_INTERVALS = 3
_INVERSION_MAX_LENGTH = 0.5
# Largest free-streaming deviation from the inflow data.
_FREE_STREAMING_TOL = 1e-12
# Mesh refinement factor for upwind2, and the bound on central's deviation.
_REFINE = 4
_CENTRAL_CURRENT_FLOOR = 1e-8
# A refined upwind2 deviation at or below this is rounding, which refinement
# cannot shrink (a constant potential, or zero inflow data).
_UPWIND2_ROUNDING_FLOOR = 1e-12


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def check_coupling_bound(system: WignerSystem, rng: np.random.Generator) -> CheckResult:
    """Random unit vectors never get amplified past the coupling bound.

    |A f| is kept in the float range (``kinetic._in_range``), so a coupling
    past 1e154 is compared with the bound, not read as inf.
    """
    p = system.potential
    C = coupling_bound(p)
    m = system.grid.size
    half = 0.5 * p.period_l
    worst = 0.0
    for x in rng.uniform(-half, half, size=_COUPLING_POINTS):
        for _ in range(_COUPLING_VECTORS):
            f = rng.standard_normal(m)
            f /= np.linalg.norm(f)
            worst = max(worst, _in_range(np.linalg.norm, apply_coupling(p, float(x), f)))
    ok = worst <= C * (1.0 + 1e-12) + 1e-15
    return CheckResult(
        name="coupling-bound",
        passed=ok,
        detail=f"max |A f| = {worst:.6e} against bound {C:.6e}",
    )


def check_propagator_mirror(system: WignerSystem) -> CheckResult:
    """P_[-l/2,x] matches P_[-l/2,-x] at several x, and P_[-l/2,l/2] is the identity.

    One march of the identity from -l/2 to l/2 passes through -x and x
    for x the fractions of the half period.  P_[-l/2,x] = P_[0,x]
    P_[-l/2,0], so the march gives the same matrix at x and -x iff
    P_[0,x] = P_[0,-x], which the oddness of A(x) asserts; its last
    state is the period propagator.
    """
    half = 0.5 * system.potential.period_l
    eye = np.eye(system.grid.size)
    upper = np.array(sorted(frac * half for frac in _MIRROR_FRACTIONS))
    F = _march(system, eye, np.concatenate([[-half], -upper[::-1], [0.0], upper, [half]]))
    # the ends pair I with the period propagator, which the period term measures
    inner = F[1:-1]
    worst = float(np.abs(inner - inner[::-1]).max())
    period = float(np.abs(F[-1] - eye).max())
    return CheckResult(
        name="propagator-mirror",
        passed=worst <= _PROPAGATOR_TOL and period <= _PROPAGATOR_TOL,
        detail=(
            f"max entry mismatch {worst:.3e}, max |P_period - I| = {period:.3e} "
            f"(tol {_PROPAGATOR_TOL:.1e})"
        ),
    )


def check_propagator_inversion(system: WignerSystem, rng: np.random.Generator) -> CheckResult:
    """Forward-then-backward propagation returns the identity map."""
    half = 0.5 * system.potential.period_l
    m = system.grid.size
    eye = np.eye(m)
    worst = 0.0
    for _ in range(_INVERSION_INTERVALS):
        length = rng.uniform(0.0, min(_INVERSION_MAX_LENGTH, system.potential.period_l))
        a = rng.uniform(-half, half - length)
        b = a + length
        F = propagator_matrix(system, a, b)
        B = propagator_matrix(system, b, a)
        worst = max(worst, float(np.abs(B @ F - eye).max()))
    return CheckResult(
        name="propagator-inversion",
        passed=worst <= _PROPAGATOR_TOL,
        detail=(
            f"max |P_back P_fwd - I| = {worst:.3e} over {_INVERSION_INTERVALS} intervals "
            f"(tol {_PROPAGATOR_TOL:.1e})"
        ),
    )


def _zero_potential_twin(system: WignerSystem) -> WignerSystem:
    """Same grid, mesh and boundary on a constant potential."""
    flat = new_potential(system.potential.period_l, [0.0])
    boundary = (
        system.boundary
        if system.boundary.values.any()
        else mono_energetic_boundary(system.grid, int(system.grid.indices[system.grid.velocities > 0][0]))
    )
    return build_system(flat, system.grid, system.mesh, boundary)


def check_free_streaming(system: WignerSystem, rel_tol: float = 1e-12) -> CheckResult:
    """Without coupling every channel stays at its inflow value exactly."""
    twin = _zero_potential_twin(system)
    expected = twin.boundary.values[:, None] * np.ones(twin.mesh.Nx + 1)
    devs = {tag: float(np.abs(_solve(twin, tag, rel_tol).values - expected).max()) for tag in _SCHEMES}
    return CheckResult(
        name="free-streaming",
        passed=max(devs.values()) <= _FREE_STREAMING_TOL,
        detail="max deviation per solver: " + ", ".join(f"{tag}={dev:.1e}" for tag, dev in devs.items()),
    )


def _current_deviation(sol) -> float:
    J = current(sol)
    J0 = J[0]
    if J0 == 0.0:
        return float(np.abs(J - J0).max())
    return float(np.abs(J - J0).max() / abs(J0))


def check_current_conservation(system: WignerSystem, rel_tol: float = 1e-12) -> CheckResult:
    """Current is flat for the cell form and improves for the one-sided form.

    The cell (central) form conserves J to solver precision on any mesh,
    up to the channel window's edge terms: the coupling moves current into
    channels past the window's edge, which the truncation drops.  They are
    negligible on the bundled configuration (M = 40), but with M = 1 the
    central deviation is 5.7e1 and the check fails.  The second-order
    one-sided form must shrink its deviation when the mesh is refined by
    ``_REFINE``, unless the refined deviation is already at or below
    ``_UPWIND2_ROUNDING_FLOOR``: then refinement has nothing left to shrink
    (rounding on a constant potential, a zero current for zero inflow data).
    """
    dev_central = _current_deviation(solve_bvp(system, Scheme.CENTRAL, rel_tol=rel_tol))
    dev_up2_coarse = _current_deviation(solve_bvp(system, Scheme.UPWIND2, rel_tol=rel_tol))
    fine_mesh = build_mesh(system.potential.period_l, system.mesh.Nx * _REFINE)
    fine = replace(system, mesh=fine_mesh)
    dev_up2_fine = _current_deviation(solve_bvp(fine, Scheme.UPWIND2, rel_tol=rel_tol))
    shrinks = dev_up2_fine < dev_up2_coarse
    rounding = not shrinks and dev_up2_fine <= _UPWIND2_ROUNDING_FLOOR
    ok = dev_central <= _CENTRAL_CURRENT_FLOOR and (shrinks or rounding)
    return CheckResult(
        name="current-conservation",
        passed=ok,
        detail=(
            f"central deviation {dev_central:.3e} (floor {_CENTRAL_CURRENT_FLOOR:.1e}); "
            f"upwind2 {dev_up2_coarse:.3e} -> {dev_up2_fine:.3e} under {_REFINE}x refinement"
            + (f" (at rounding, floor {_UPWIND2_ROUNDING_FLOOR:.1e})" if rounding else "")
        ),
    )


def run_all_checks(system: WignerSystem, rel_tol: float = 1e-12, seed: int = 20260817) -> list:
    """Run the full suite with a deterministic RNG; returns CheckResults.

    The results come in the order coupling-bound, propagator-mirror,
    propagator-inversion, free-streaming, current-conservation.  The mirror
    check runs on the calling thread; one worker thread runs the other four
    one after another.  The RNG seeded with ``seed`` is used only by the
    worker, coupling-bound first and propagator-inversion next, as in a
    sequential run, so every result is the same to the bit.  The checks
    share no mutable state: each builds its own problems.  The worker's
    numpy temporaries cost about 2 MB of peak RSS on the bundled
    configuration.  An exception from either thread propagates, after the
    worker has finished; no thread outlives the call.
    """
    rng = np.random.default_rng(seed)

    def worker() -> list:
        return [
            check_coupling_bound(system, rng),
            check_propagator_inversion(system, rng),
            check_free_streaming(system, rel_tol=rel_tol),
            check_current_conservation(system, rel_tol=rel_tol),
        ]

    # the executor's module loads on first use, so the other commands never import it
    with concurrent.futures.ThreadPoolExecutor(max_workers=1) as pool:
        others = pool.submit(worker)
        mirror = check_propagator_mirror(system)
        coupling, inversion, streaming, conservation = others.result()
    return [coupling, mirror, inversion, streaming, conservation]
