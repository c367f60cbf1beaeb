"""Seeded instance generators owned by the benchmark.

They keep the solvability rules of the library's own generators without
importing them:

* max-plus entries are integers in [-10, 0], so every pivot closure exists;
* max-plus-complete and max-min entries are integers in [-10, 10] and
  boolean entries are 0 or 1 (these closures are total);
* a nonneg-real Toeplitz generator is scaled so that r0 + 2 * sum(tail)
  stays below 0.9, and a dense nonneg-real matrix so that its largest row
  sum does; both bound the spectral radius below 1, so every closure the
  solvers take exists.

Every function draws from the ``random.Random`` it is given, so a pool is a
function of the workload seed alone.
"""

import math

INSTANCES = ("nonneg-real", "max-plus", "max-plus-complete", "max-min", "boolean")

_INT_VALUES = {
    "max-plus": range(-10, 1),
    "max-plus-complete": range(-10, 11),
    "max-min": range(-10, 11),
    "boolean": range(0, 2),
}


def draw(name, rng, k):
    """k carrier values; nonneg-real draws are unscaled, in (0, 1.001)."""
    if name == "nonneg-real":
        return [rng.random() + 1e-3 for _ in range(k)]
    return rng.choices(_INT_VALUES[name], k=k)


def rhs(name, n, rng):
    """A right-hand side of length n."""
    if name == "nonneg-real":
        return [rng.random() for _ in range(n)]
    return draw(name, rng, n)


def toeplitz(name, lags, rng):
    """(r0, r) with len(r) == lags: a solvable self-generated instance."""
    vals = draw(name, rng, lags + 1)
    if name == "nonneg-real":
        scale = rng.uniform(0.2, 0.85) / (vals[0] + 2 * sum(vals[1:]))
        vals = [v * scale for v in vals]
    return vals[0], vals[1:]


def bellman(name, n, rng):
    """(r0, tail, b) of a solvable size-n Toeplitz Bellman instance."""
    r0, tail = toeplitz(name, n - 1, rng)
    return r0, tail, rhs(name, n, rng)


def dense(name, n, rng):
    """Row-major entries of a general n-by-n matrix whose closure exists."""
    data = draw(name, rng, n * n)
    if name == "nonneg-real":
        top = max(sum(data[i * n:(i + 1) * n]) for i in range(n))
        scale = rng.uniform(0.2, 0.85) / top
        data = [v * scale for v in data]
    return data


def float_max_plus(rng, k):
    """k non-integer max-plus values from -3 * U(0, 1).

    Float addition is not associative, which is what these values exercise.
    """
    out = []
    while len(out) < k:
        v = -3.0 * rng.random()
        if not v.is_integer():
            out.append(v)
    return out


def log_uniform_sizes(count, hi):
    """count sizes in [1, hi], log-uniform: the midpoint of each of count
    equal-probability strata, in ascending order.

    The sizes are the same for every seed, so the slowest requests of a pool,
    which set its p90, are the same from one seed to the next.
    """
    top = math.log(hi + 1)
    return [min(hi, int(math.exp(top * (i + 0.5) / count))) for i in range(count)]
