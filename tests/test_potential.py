"""Potential evaluation and coupling-operator structure."""

import math
import re

import numpy as np
import pytest

from wignerdv import apply_coupling, coupling_bound, eval_potential, new_potential
from wignerdv.potential import _apply, _bands


def test_new_potential_basic_fields():
    p = new_potential(1.0, [20.0, 20.0])
    assert p.period_l == 1.0
    assert p.kappa == math.pi
    assert p.coeffs.tolist() == [20.0, 20.0]


def test_new_potential_rejects_bad_inputs():
    with pytest.raises(ValueError):
        new_potential(0.0, [1.0])
    with pytest.raises(ValueError):
        new_potential(-2.0, [1.0])
    with pytest.raises(ValueError):
        new_potential(1.0, [])
    with pytest.raises(ValueError):
        new_potential(1.0, [1.0, math.nan])


def test_new_potential_takes_any_real_period_but_a_bool():
    # NumPy numbers are reals; True is an int to Python, but no period
    for period in (np.int64(1), np.float32(1.0), np.float64(1.0), 1):
        p = new_potential(period, [20.0, 20.0])
        assert p.period_l == 1.0 and type(p.period_l) is float and p.kappa == math.pi
    for bad in (True, np.True_, "1.0", math.inf):
        with pytest.raises(ValueError, match=re.escape(f"period_l must be a positive finite real, got {bad!r}")):
            new_potential(bad, [1.0])


def test_eval_potential_barrier_values():
    p = new_potential(1.0, [20.0, 20.0])
    # V(x) = 20 + 20 cos(2 pi x): crest 40 at x=0, trough 0 at x=+-1/2
    assert eval_potential(p, 0.0) == pytest.approx(40.0, abs=1e-12)
    assert eval_potential(p, 0.25) == pytest.approx(20.0, abs=1e-12)
    assert eval_potential(p, 0.5) == pytest.approx(0.0, abs=1e-12)
    assert eval_potential(p, -0.5) == pytest.approx(0.0, abs=1e-12)


def test_eval_potential_vectorized_matches_scalar():
    p = new_potential(2.0, [1.0, -0.5, 0.25])
    xs = np.linspace(-1.0, 1.0, 17)
    vec = eval_potential(p, xs)
    for x, val in zip(xs, vec):
        assert val == pytest.approx(eval_potential(p, float(x)), abs=1e-14)


def test_eval_potential_is_even_and_periodic():
    p = new_potential(1.0, [3.0, 2.0, 1.0])
    xs = np.linspace(0.0, 10.0, 101)
    assert np.allclose(eval_potential(p, xs), eval_potential(p, -xs), atol=1e-12)
    assert np.allclose(eval_potential(p, xs), eval_potential(p, xs + 1.0), atol=1e-12)


def test_coupling_bound_values():
    assert coupling_bound(new_potential(1.0, [20.0, 20.0])) == 40.0
    assert coupling_bound(new_potential(1.0, [5.0])) == 0.0
    assert coupling_bound(new_potential(1.0, [0.0, 1.0, -2.0, 3.0])) == 12.0


def test_apply_coupling_vanishes_at_center():
    # all sin factors vanish at x = 0
    p = new_potential(1.0, [20.0, 20.0])
    f = np.arange(1.0, 9.0)
    assert np.all(apply_coupling(p, 0.0, f) == 0.0)


def test_apply_coupling_basis_vector_quarter_period():
    # single harmonic at x = l/4: sin(2 kappa x) = 1, so a basis vector e_k
    # maps to a_1 (e_{k+1} - e_{k-1})
    p = new_potential(1.0, [20.0, 20.0])
    m = 7
    for k in range(m):
        f = np.zeros(m)
        f[k] = 1.0
        g = apply_coupling(p, 0.25, f)
        expected = np.zeros(m)
        if k + 1 < m:
            expected[k + 1] += 20.0
        if k - 1 >= 0:
            expected[k - 1] -= 20.0
        assert g == pytest.approx(expected, abs=1e-12)


def test_apply_coupling_skew_symmetry():
    p = new_potential(1.0, [1.0, 2.0, -1.5, 0.5])
    rng = np.random.default_rng(7)
    for _ in range(25):
        x = rng.uniform(-0.5, 0.5)
        f = rng.standard_normal(11)
        h = rng.standard_normal(11)
        lhs = float(h @ apply_coupling(p, x, f))
        rhs = -float(f @ apply_coupling(p, x, h))
        assert lhs == pytest.approx(rhs, abs=1e-12)


def test_apply_coupling_odd_in_x():
    p = new_potential(1.0, [0.0, 3.0, 1.0])
    rng = np.random.default_rng(11)
    f = rng.standard_normal(9)
    for x in (0.1, 0.23, 0.4):
        gp = apply_coupling(p, x, f)
        gm = apply_coupling(p, -x, f)
        assert gp == pytest.approx(-gm, abs=1e-14)


def test_apply_coupling_norm_bound_random():
    p = new_potential(1.0, [20.0, 20.0])
    C = coupling_bound(p)
    rng = np.random.default_rng(3)
    for _ in range(200):
        x = rng.uniform(-0.5, 0.5)
        f = rng.standard_normal(16)
        f /= np.linalg.norm(f)
        assert np.linalg.norm(apply_coupling(p, x, f)) <= C * (1 + 1e-12)


def test_apply_coupling_rejects_bad_vectors():
    p = new_potential(1.0, [1.0, 1.0])
    with pytest.raises(ValueError):
        apply_coupling(p, 0.1, np.zeros((3, 3)))
    with pytest.raises(ValueError):
        apply_coupling(p, 0.1, np.array([]))


def test_constant_potential_couples_nothing():
    p = new_potential(1.0, [40.0])
    f = np.arange(1.0, 6.0)
    assert np.all(apply_coupling(p, 0.37, f) == 0.0)


def test_constant_potential_evaluates_to_its_constant():
    p = new_potential(1.0, [40.0])
    assert eval_potential(p, 0.3) == 40.0
    assert eval_potential(p, np.array([[-0.5, 0.1], [0.2, 0.5]])).tolist() == [[40.0, 40.0], [40.0, 40.0]]


def test_batched_apply_matches_apply_coupling():
    # the propagator's use: velocity axis 1 of a (npts, m, ncols) batch,
    # with harmonics beyond the channel count and one zero coefficient
    p = new_potential(1.0, [1.0, 2.0, 0.0, -1.5, 0.5, 0.25, 0.1, 3.0, -0.2])
    rng = np.random.default_rng(13)
    ys = rng.uniform(-0.5, 0.5, 5)
    F = rng.standard_normal((5, 7, 3))
    G = _apply(_bands(p, ys[:, None, None], 7), F, axis=1)
    for t, y in enumerate(ys):
        for c in range(3):
            assert G[t, :, c] == pytest.approx(apply_coupling(p, float(y), F[t, :, c]), abs=1e-14)


def _dense_coupling(p, x, m):
    """A(x) on m channels, entry by entry from the module docstring's formula."""
    A = np.zeros((m, m))
    for k in range(m):
        for n in range(1, len(p.coeffs)):
            w = p.coeffs[n] * math.sin(2 * n * p.kappa * x)
            if k - n >= 0:
                A[k, k - n] += w
            if k + n < m:
                A[k, k + n] -= w
    return A


def test_apply_coupling_matches_the_dense_operator():
    # random potentials with up to 12 harmonics, some beyond the channel
    # window (n >= m) and some zero, on random channel counts and points
    rng = np.random.default_rng(41)
    for _ in range(40):
        coeffs = rng.uniform(-20.0, 20.0, int(rng.integers(1, 14)))
        coeffs[rng.random(coeffs.size) < 0.25] = 0.0
        p = new_potential(float(rng.uniform(0.5, 2.0)), coeffs)
        m = int(rng.integers(1, 16))
        x = float(rng.uniform(-p.period_l, p.period_l))
        A = np.column_stack([apply_coupling(p, x, e) for e in np.eye(m)])
        A_minus = np.column_stack([apply_coupling(p, -x, e) for e in np.eye(m)])
        assert A == pytest.approx(_dense_coupling(p, x, m), abs=1e-12 * max(1.0, np.abs(coeffs).sum()))
        assert np.array_equal(A_minus, -A)
