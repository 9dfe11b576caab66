"""Whole-solve symmetries: for a map f under which the model is invariant,
the solve of the mapped problem is the mapped solve, to round-off.

The flips of modes 1 and 2 and the transpose of every frontal slice are
unitary on each frequency slice and map the 3-D DCT to itself up to
signs (a flip multiplies coefficient k of its mode by (-1)^k), so they
hold at any lambda. A circular shift of mode 3 (a phase on each DFT
slice) and a row permutation keep the low-rank term only, so they hold
at lambda = 0 with z = 0, where the DCT never enters. The solves run at
the ``admm_solve`` level through ``warm=``, from a state the test forms
itself, with a fixed number of one-sweep calls. These checks need no bitwise
oracle: they see the fused, blocked and slabbed passes from outside.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from srtd.solver import SolverConfig, SolverState, admm_solve
from srtd.tensor_core import fro_norm
from srtd.transforms import dct3, idct3

from oracles import tproduct

_PROPERTY = settings(max_examples=20, deadline=None, derandomize=True, database=None)

SWEEPS = 6
LIMIT = 1e-10


def _sign(n, axis):
    """(-1)^k along ``axis``: a flip of that mode in the DCT domain."""
    shape = [1, 1, 1]
    shape[axis] = n
    return ((-1.0) ** np.arange(n)).reshape(shape)


def _maps(shape, rng):
    """name -> (f in the pixel domain, f's image in the DCT domain)."""
    n1, n2, _ = shape
    perm = rng.permutation(n1)
    return {
        "flip1": (lambda a: a[::-1], lambda d: d * _sign(n1, 0)),
        "flip2": (lambda a: a[:, ::-1], lambda d: d * _sign(n2, 1)),
        "transpose": (lambda a: a.transpose(1, 0, 2), lambda d: d.transpose(1, 0, 2)),
        "shift3": (lambda a: np.roll(a, 1, axis=2), None),
        "rows": (lambda a: a[perm], None),
    }


def _problem(n1, n2, n3, rank, seed, with_z):
    """An exact tubal-rank-``rank`` m observed on omega, and a state near
    it: x = m plus noise, y and z drawn (z = 0 unless ``with_z``), and the
    argument (x - y/mu + idct3(z/mu)) / 2, that of w = x and e = 0."""
    rng = np.random.default_rng(seed)
    g = tproduct(rng.standard_normal((n1, rank, n3)), rng.standard_normal((rank, n2, n3)))
    g *= 255.0 / np.abs(g).max()
    omega = rng.random(g.shape) < 0.6
    x = g + rng.standard_normal(g.shape)
    y = rng.standard_normal(g.shape)
    z = rng.standard_normal(g.shape) if with_z else np.zeros(g.shape)
    mu = 0.05
    arg = 0.5 * (x - y / mu + idct3(z / mu))
    return g, omega, SolverState(x=x, arg=arg, y=y, z=z, mu=mu), rng


def _solve(m, omega, state, rank, lam):
    # SWEEPS calls of one sweep each, so that no stop test ends a solve
    # early: the partial SVT can reach its fixed point within SWEEPS, x
    # then repeating to the bit. After the first sweep y is 0 off the mask
    # to round-off, so each call's first sweep, which adds y/mu to w there,
    # is a later sweep of one call to round-off
    cfg = SolverConfig(r=rank, lam=lam, max_inner=1)
    for _ in range(SWEEPS):
        state = admm_solve(m, omega, cfg, warm=state)
        assert state.inner_iter == 1
    return state


def _mapped(f, fz, state):
    def copy(a):
        return np.ascontiguousarray(f(a))
    return SolverState(x=copy(state.x), arg=copy(state.arg), y=copy(state.y),
                       z=np.ascontiguousarray(fz(state.z)) if fz else copy(state.z),
                       mu=state.mu)


def _gaps(f, fz, m, omega, state, rank, lam):
    """Gaps of x, arg, y and z between the mapped problem's solve and the
    mapped solve, each relative to the larger of its norms before and
    after the solve (at lambda = 0 the E/Z steps take z to round-off)."""
    names = ("x", "arg", "y", "z")
    scales = [fro_norm(getattr(state, name)) for name in names]
    mapped = _solve(np.ascontiguousarray(f(m)), np.ascontiguousarray(f(omega)),
                    _mapped(f, fz, state), rank, lam)
    plain = _solve(m, omega, state, rank, lam)
    want = _mapped(f, fz, plain)
    return [fro_norm(getattr(mapped, name) - getattr(want, name))
            / max(scale, fro_norm(getattr(want, name)), 1e-300)
            for name, scale in zip(names, scales)]


_SIZES = dict(n1=st.integers(2, 7), n2=st.integers(2, 7), n3=st.integers(1, 5),
              rank=st.integers(1, 2), seed=st.integers(0, 2**16))


@pytest.mark.parametrize("lam", [0.0, 0.05])
@pytest.mark.parametrize("name", ["flip1", "flip2", "transpose"])
@_PROPERTY
@given(**_SIZES)
def test_solve_commutes_with_flips_and_slice_transposes(name, lam, n1, n2, n3, rank, seed):
    m, omega, state, rng = _problem(n1, n2, n3, rank, seed, with_z=True)
    f, fz = _maps(m.shape, rng)[name]
    # fz is f's image in the DCT domain
    d = dct3(state.x)
    assert fro_norm(dct3(np.ascontiguousarray(f(state.x))) - fz(d)) <= 1e-12 * fro_norm(d)
    assert max(_gaps(f, fz, m, omega, state, rank, lam)) <= LIMIT


@pytest.mark.parametrize("name", ["shift3", "rows"])
@_PROPERTY
@given(**dict(_SIZES, n3=st.integers(2, 5)))
def test_zero_lambda_solve_commutes_with_mode3_shifts_and_row_permutations(
        name, n1, n2, n3, rank, seed):
    m, omega, state, rng = _problem(n1, n2, n3, rank, seed, with_z=False)
    f, _ = _maps(m.shape, rng)[name]
    assert max(_gaps(f, None, m, omega, state, rank, 0.0)) <= LIMIT


def test_sparse_solve_sees_a_mode3_shift():
    # the control case: at lambda > 0 the DCT term is not shift-invariant,
    # so the shifted problem's x moves away from the shifted x, by 7.6e-3
    # relative here, where the symmetric cases above read at most 2.7e-14
    m, omega, state, rng = _problem(6, 5, 4, 2, 3, with_z=False)
    f, _ = _maps(m.shape, rng)["shift3"]
    assert _gaps(f, None, m, omega, state, 2, 0.05)[0] > 1e-6
