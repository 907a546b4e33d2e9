"""Discrete-velocity solvers for a stationary transport boundary value problem.

A periodic even potential couples the velocity channels v_i = i kappa + s
of a phase-space distribution only through whole multiples of kappa, so
the stationary problem on one period reduces to independent linear ODE
systems T f_x = A(x) f with inflow boundary data.  This package provides
three finite-difference schemes for that boundary value problem, an
integral-equation propagator that serves as a scheme-independent
reference, mirror-symmetry diagnostics, and a CLI for solving, refining
and self-checking.

The public names are those each module lists in its ``__all__``.
"""

from . import analysis, fd, kinetic, potential, propagator
from .analysis import *  # noqa: F401,F403
from .fd import *  # noqa: F401,F403
from .kinetic import *  # noqa: F401,F403
from .potential import *  # noqa: F401,F403
from .propagator import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = [
    *potential.__all__,
    *kinetic.__all__,
    *fd.__all__,
    *propagator.__all__,
    *analysis.__all__,
    "__version__",
]
