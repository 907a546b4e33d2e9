"""Periodic even potential in cosine form and its velocity-coupling operator.

A potential V(x) = a_0 + sum_n a_n cos(2 n kappa x) with kappa = pi / l
couples discrete velocities v_k = k kappa + s only through shifts by whole
multiples of kappa.  The coupling acts on a velocity-indexed vector f as

    (A(x) f)_k = sum_{n>=1} a_n sin(2 n kappa x) (f_{k-n} - f_{k+n}),

with out-of-range indices contributing zero.  A(x) is skew-symmetric and
odd in x, which is what makes mirror-symmetric solutions possible.
``_bands`` writes this structure once, as channel diagonals at any points;
the Picard propagator applies them with ``_apply`` and the
finite-difference schemes write them into their matrix diagonals.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

__all__ = [
    "FourierPotential",
    "new_potential",
    "eval_potential",
    "apply_coupling",
    "coupling_bound",
]


@dataclass(frozen=True)
class FourierPotential:
    """Truncated cosine series of a periodic even potential.

    Attributes:
        period_l: spatial period and device length (dimensionless units).
        coeffs: cosine coefficients a_0, a_1, ..., a_N; a_0 is the constant
            term and never enters the coupling operator.
        kappa: pi / period_l.
    """

    period_l: float
    coeffs: np.ndarray
    kappa: float


def new_potential(period_l: float, coeffs) -> FourierPotential:
    """Validate inputs and build a FourierPotential.

    Args:
        period_l: positive finite real period length (int, float or a NumPy
            number; not a bool).
        coeffs: non-empty sequence of finite reals a_0, a_1, ...

    Returns:
        FourierPotential with kappa = pi / period_l.

    Raises:
        ValueError: on non-positive period, a period so short that kappa
            overflows, or empty/non-finite coefficients.
    """
    if isinstance(period_l, bool) or not (isinstance(period_l, numbers.Real) and math.isfinite(period_l)
                                          and period_l > 0):
        raise ValueError(f"period_l must be a positive finite real, got {period_l!r}")
    kappa = math.pi / float(period_l)
    if not math.isfinite(kappa):
        raise ValueError(f"period_l = {period_l!r} is too short: kappa = pi / period_l overflows")
    arr = np.asarray(coeffs, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("coeffs must be a non-empty one-dimensional sequence")
    if not np.all(np.isfinite(arr)):
        raise ValueError("coeffs must all be finite")
    arr = arr.copy()
    arr.flags.writeable = False
    return FourierPotential(period_l=float(period_l), coeffs=arr, kappa=kappa)


def eval_potential(p: FourierPotential, x) -> float | np.ndarray:
    """Evaluate V(x) = a_0 + sum_{n>=1} a_n cos(2 n kappa x).

    Accepts a scalar or an array of positions; returns the matching shape.
    """
    xa = np.asarray(x, dtype=float)
    # shape (..., n) cosine table summed against a_1..a_N; for a constant potential both are
    # empty and their product is 0
    phases = 2.0 * p.kappa * np.multiply.outer(xa, np.arange(1, len(p.coeffs)))
    out = p.coeffs[0] + np.cos(phases) @ p.coeffs[1:]
    return float(out) if np.isscalar(x) or xa.ndim == 0 else out


def _bands(p: FourierPotential, x, m: int) -> list:
    """A(x) on m channels at the points x, as channel diagonals (rows, cols, coef).

    Harmonic n (1 <= n < m, a_n != 0) gives two bands: rows k >= n read
    channel k - n with coef a_n s_n(x), and rows k < m - n read k + n with
    coef -a_n s_n(x).  Each coef has the shape of x, so a caller that
    reshapes x gets coefs that broadcast against its batch axes.
    s_n(x) = sign(x) sin(2 n kappa |x|), so every coef at mirrored points
    x and -x is odd to the last bit.
    """
    xa = np.asarray(x, dtype=float)
    nk = 2.0 * np.arange(1, len(p.coeffs)) * p.kappa
    sines = np.sign(xa) * np.sin(np.multiply.outer(nk, np.abs(xa)))
    bands = []
    for n in (np.flatnonzero(p.coeffs[1:m]) + 1).tolist():
        coef = p.coeffs[n] * sines[n - 1]
        bands += [(slice(n, m), slice(0, m - n), coef), (slice(0, m - n), slice(n, m), -coef)]
    return bands


def _apply(bands: list, f: np.ndarray, axis: int = 0) -> np.ndarray:
    """The channel diagonals ``bands`` (see ``_bands``) applied along velocity ``axis`` of f.

    Each coef must broadcast against f; other axes of f are batch axes
    (quadrature points, columns).
    """
    g = np.zeros_like(f)
    lead = (slice(None),) * axis
    for rows, cols, coef in bands:
        g[lead + (rows,)] += coef * f[lead + (cols,)]
    return g


def apply_coupling(p: FourierPotential, x: float, f) -> np.ndarray:
    """Apply the coupling operator A(x) to a velocity-indexed vector.

    Args:
        p: the potential.
        x: position where the operator is evaluated.
        f: one-dimensional vector over a contiguous range of velocity
            indices; entries outside the range are treated as zero.

    Returns:
        Vector g with g_k = sum_{n>=1} a_n sin(2 n kappa x)(f_{k-n} - f_{k+n}).

    Raises:
        ValueError: if f is not a non-empty one-dimensional vector.
    """
    fa = np.asarray(f, dtype=float)
    if fa.ndim != 1 or fa.size == 0:
        raise ValueError("f must be a non-empty one-dimensional velocity-indexed vector")
    return _apply(_bands(p, float(x), fa.size), fa)


def coupling_bound(p: FourierPotential) -> float:
    """Euclidean operator-norm bound C = 2 sum_{n>=1} |a_n| of A(x).

    The constant term a_0 never enters A, so a constant potential gives 0.
    A sum past the largest double gives inf, without a warning.
    """
    with np.errstate(over="ignore"):
        return 2.0 * float(np.abs(p.coeffs[1:]).sum())
