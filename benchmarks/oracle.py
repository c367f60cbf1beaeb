"""Independent numpy oracles for every output, run after the timed loop.

* nonneg-real: ``numpy.linalg.solve`` / ``numpy.linalg.inv`` on I - A,
  compared within the instance's relative tolerance.
* max-plus, max-min, boolean: the Kleene iteration x <- A x (+) b from
  x = b (C <- I (+) A C from C = I for a closure) until it stops changing.
* max-plus-complete: no oracle; the request's own residual check stands.

Integer data is compared exactly, float data within ``FLOAT_REL_TOL``
relative to the largest entry.
"""

import os

# the oracle is single-threaded like the rest of the run
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

from semipath.semirings import FLOAT_REL_TOL  # noqa: E402

NUMPY_VERSION = np.__version__


class OracleError(Exception):
    """The oracle itself could not produce a reference."""


def _tolerance(*columns):
    exact = all(isinstance(v, int) for col in columns for v in col)
    return 0.0 if exact else FLOAT_REL_TOL


def _fixed_point(step, start, limit):
    x = start
    for _ in range(limit):
        nxt = step(x)
        if np.array_equal(nxt, x):
            return x
        x = nxt
    raise OracleError(f"Kleene iteration still changing after {limit} steps")


def _identity(name, n):
    if name == "boolean":
        return np.eye(n, dtype=bool)
    zero, one = (-np.inf, 0.0) if name == "max-plus" else (-np.inf, np.inf)
    out = np.full((n, n), zero)
    np.fill_diagonal(out, one)
    return out


def _as_array(name, values):
    return np.array(values, dtype=bool if name == "boolean" else float)


def solve(name, A, b):
    """Reference for x = A x (+) b, or None where no oracle applies."""
    n = len(b)
    if name == "nonneg-real":
        return np.linalg.solve(np.eye(n) - A, b)
    if name == "max-plus":
        def step(x):
            return np.maximum(b, (A + x).max(axis=1))
    elif name == "max-min":
        def step(x):
            return np.maximum(b, np.minimum(A, x).max(axis=1))
    elif name == "boolean":
        def step(x):
            return b | (A & x).any(axis=1)
    else:
        return None
    return _fixed_point(step, b, n + 2)


def closure(name, A):
    """Reference for C = I (+) A C, or None where no oracle applies."""
    n = len(A)
    if name == "nonneg-real":
        return np.linalg.inv(np.eye(n) - A)
    eye = _identity(name, n)
    if name == "max-plus":
        def step(C):
            return np.maximum(eye, (A[:, :, None] + C[None, :, :]).max(axis=1))
    elif name == "max-min":
        def step(C):
            return np.maximum(eye, np.minimum(A[:, :, None], C[None, :, :]).max(axis=1))
    elif name == "boolean":
        def step(C):
            return eye | (A[:, :, None] & C[None, :, :]).any(axis=1)
    else:
        return None
    return _fixed_point(step, eye, n + 2)


def toeplitz_solution(name, r0, tail, rhs):
    """(reference, tolerance) for the Toeplitz system given by (r0, tail)."""
    n = len(rhs)
    lag = _as_array(name, [r0, *tail])
    idx = np.arange(n)
    A = lag[np.abs(idx[:, None] - idx[None, :])]
    return solve(name, A, _as_array(name, rhs)), _tolerance([r0], tail, rhs)


def dense_solution(name, n, data, b):
    A = _as_array(name, data).reshape(n, n)
    return solve(name, A, _as_array(name, b)), _tolerance(data, b)


def dense_closure(name, n, data):
    A = _as_array(name, data).reshape(n, n)
    ref = closure(name, A)
    return (None if ref is None else ref.ravel()), _tolerance(data)


def matches(reference, solution):
    """Whether a solution agrees with (reference, tolerance); None without one."""
    ref, rtol = reference
    if ref is None:
        return None
    got = np.array(solution, dtype=float)
    ref = np.asarray(ref, dtype=float)
    if got.shape != ref.shape:
        return False
    if rtol == 0.0:
        return bool(np.array_equal(got, ref))
    finite = np.abs(ref[np.isfinite(ref)])
    scale = float(finite.max()) if finite.size else 0.0
    return bool(np.allclose(got, ref, rtol=rtol, atol=rtol * scale))
