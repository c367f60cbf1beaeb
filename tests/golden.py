"""Golden corpus: seeded cases whose recorded outputs pin the package bit for bit.

Each case runs one function on one registered instance, once on the bare
instance and once through ``CountingSemiring``, and records either the
output or the error.  An output is recorded value by value as
``"<type>:<repr>"``, so an int/float tie (``3`` against ``3.0``) or a
signed zero shows; a solver's steps are recorded with every ``SolveState``
field.  An error is recorded with its type, ``step``, ``value`` and
message.  A counted run adds its ``OpCounter`` counts.

The inputs come from three seeded draws per instance:

``solvable``
    values for which every star the solvers need exists;
``raw``
    unrestricted values, so closures fail and sums grow;
``edge``
    sentinels, signed zeros, subnormals and 1e308-scale values.

Values are drawn as ints or floats at random, so ties between the two
show in the outputs.  Two ``fixed`` inputs that the solvers get wrong
today are recorded as they are; a change that fixes them rewrites their
records on purpose.

Sizes 1..5 are stored as literal records, one JSON object a line, in
``tests/golden/corpus.jsonl``.  For sizes 6..9 the file keeps one sha256
per (instance, function) group, taken over the records it would hold.
``tests/test_golden.py`` regenerates the corpus and compares it with the
file.  Rewrite the file only with a change that means to alter an output,
and say why.  With the package installed or ``src`` on ``PYTHONPATH``::

    python tests/golden.py --write          # rewrite the committed file
    python tests/golden.py --write PATH     # write elsewhere, to compare
"""

import argparse
import hashlib
import json
import random
from pathlib import Path

import semipath as sp
from semipath import NEG_INF, POS_INF, CountingSemiring, Matrix, SymToeplitz

GOLDEN_PATH = Path(__file__).with_name("golden") / "corpus.jsonl"

LITERAL_SIZES = range(1, 6)
DIGEST_SIZES = range(6, 10)

#: draw kind and the number of seeded cases of that kind per size
DRAWS = (("solvable", 2), ("raw", 2), ("edge", 1))

FUNCTIONS = (
    "durbin_steps",
    "levinson_steps",
    "bordering_solve",
    "bordering_closure",
    "series_closure",
    "residual_check",
    "Matrix.mul",
    "Matrix.leq",
)

#: inputs the parser accepts on which levinson, bordering and series give
#: a wrong solution today rather than a right one or a typed error
FIXED = (
    ("max-plus-complete",
     {"r0": -3, "r": [-1e308, NEG_INF, -1e308, POS_INF], "b": [0.0, NEG_INF, -0.0, -0.5, -1]}),
    ("nonneg-real", {"r0": 0.1, "r": [5e-324], "b": [0, 1e154]}),
)
FIXED_FUNCTIONS = ("levinson_steps", "bordering_solve", "series_closure", "residual_check")


def _int_or_float(rng, v):
    return float(v) if rng.random() < 0.5 else v


def _nonneg_real(kind, rng, n):
    if kind == "solvable":
        # every row of an n-by-n matrix sums below 0.8, so every star exists
        return 0 if rng.random() < 0.25 else round(rng.uniform(0.0, 0.8 / n), 3)
    if kind == "raw":
        return round(rng.uniform(0.0, 1.8), 3) if rng.random() < 0.5 else rng.randint(0, 2)
    return rng.choice((0, 0.0, 1, 0.1, 0.5, 5e-324, 1e154, 1e308))


def _max_plus(kind, rng, n):
    if kind == "solvable":
        return NEG_INF if rng.random() < 0.15 else _int_or_float(rng, rng.randint(-9, 0))
    if kind == "raw":
        return NEG_INF if rng.random() < 0.1 else _int_or_float(rng, rng.randint(-10, 10))
    return rng.choice((NEG_INF, 0, 0.0, -0.0, -1, 5e-324, -1e308, 1e308))


def _max_plus_complete(kind, rng, n):
    if kind != "edge" and rng.random() < 0.1:
        return POS_INF
    if kind == "edge":
        return rng.choice((NEG_INF, POS_INF, 0, -0.0, -1, 0.5, -1e308, 1e308))
    return _max_plus(kind, rng, n)


def _max_min(kind, rng, n):
    if kind == "edge":
        return rng.choice((NEG_INF, POS_INF, 0, 0.0, -0.0, 1, -1e308, 1e308))
    if rng.random() < 0.15:
        return rng.choice((NEG_INF, POS_INF))
    span = 3 if kind == "solvable" else 10
    return _int_or_float(rng, rng.randint(-span, span))


def _boolean(kind, rng, n):
    if kind == "edge":
        return rng.choice((0, 1, False, True))
    return rng.randint(0, 1)


#: per instance: draw(kind, rng, n) -> one carrier value
DRAWERS = {
    "nonneg-real": _nonneg_real,
    "max-plus": _max_plus,
    "max-plus-complete": _max_plus_complete,
    "max-min": _max_min,
    "boolean": _boolean,
}


def encode(v):
    """A value as ``"<type>:<repr>"``; lists and tuples, a ``SolveState``
    among them (its fields in order), element by element."""
    if v is None:
        return None
    if isinstance(v, (list, tuple)):
        return [encode(x) for x in v]
    if isinstance(v, Matrix):
        return encode(v.to_rows())
    return f"{type(v).__name__}:{v!r}"


def _square(draw, n):
    return [[draw() for _ in range(n)] for _ in range(n)]


def _inputs(name, fn, kind, n, rng):
    """The plain-value inputs of one case."""
    sr = sp.get_semiring(name)

    def draw():
        return DRAWERS[name](kind, rng, n)

    if fn == "durbin_steps":
        return {"r0": draw(), "r": [draw() for _ in range(n)]}
    if fn in ("levinson_steps", "residual_check"):
        inp = {"r0": draw(), "r": [draw() for _ in range(n - 1)], "b": [draw() for _ in range(n)]}
        if fn == "residual_check":
            inp["x"] = _levinson_or(sr, inp, [draw() for _ in range(n)])
        return inp
    if fn == "bordering_solve":
        return {"A": _square(draw, n), "b": [draw() for _ in range(n)]}
    if fn in ("bordering_closure", "series_closure"):
        return {"A": _square(draw, n)}
    if fn == "Matrix.mul":
        return {"A": _square(draw, n), "B": _square(draw, n)}
    # Matrix.leq: B = A (+) C lies above A, and the two calls test both ways
    A = _square(draw, n)
    C = Matrix.from_rows(_square(draw, n), sr)
    return {"A": A, "B": Matrix.from_rows(A, sr).add(C).to_rows()}


def _levinson_or(sr, inp, fallback):
    """The bare levinson solution of a Toeplitz case, or ``fallback``."""
    try:
        return sp.levinson(sr, inp["r0"], inp["r"], inp["b"])
    except sp.SemipathError:
        return fallback


def _fixed_inputs(name, fn, inp):
    """A fixed Toeplitz case as the inputs of ``fn``: the general routes
    take the expanded matrix, the residual check the levinson solution."""
    sr = sp.get_semiring(name)
    if fn == "levinson_steps":
        return inp
    if fn == "residual_check":
        return dict(inp, x=sp.levinson(sr, inp["r0"], inp["r"], inp["b"]))
    A = SymToeplitz(inp["r0"], inp["r"], sr).expand().to_rows()
    return {"A": A, "b": inp["b"]} if fn == "bordering_solve" else {"A": A}


def _series_budget(sr, n):
    # on a complete idempotent instance a budget of n terms that runs out
    # closes the cycles; max-plus-complete with a positive cycle gets there,
    # while max-min and boolean sums are stable within n terms
    return n if sr.complete and sr.idempotent else None


def _call(fn, sr, inp):
    """Run ``fn`` on ``sr`` (bare or counted) and return its output."""
    if fn == "durbin_steps":
        return list(sp.durbin_steps(sr, inp["r0"], inp["r"]))
    if fn == "levinson_steps":
        return list(sp.levinson_steps(sr, inp["r0"], inp["r"], inp["b"]))
    if fn == "residual_check":
        return sp.residual_check(SymToeplitz(inp["r0"], inp["r"], sr), inp["x"], inp["b"])
    A = Matrix.from_rows(inp["A"], sr)
    if fn == "bordering_solve":
        return sp.bordering_solve(A, inp["b"])
    if fn == "bordering_closure":
        return sp.bordering_closure(A)
    if fn == "series_closure":
        return sp.series_closure(A, max_terms=_series_budget(sr, A.rows))
    if fn == "Matrix.mul":
        return A.mul(Matrix.from_rows(inp["B"], sr))
    B = Matrix.from_rows(inp["B"], sr)
    return [A.leq(B), B.leq(A)]


def _outcome(fn, sr, inp):
    try:
        return {"out": encode(_call(fn, sr, inp))}
    except sp.SemipathError as exc:
        err = {"type": type(exc).__name__, "message": str(exc)}
        if isinstance(exc, sp.SolverUndefined):
            err["step"] = exc.step
            err["value"] = encode(exc.value)
        return {"error": err}


def _records(name, fn, kind, n, i, inp):
    """The bare and the counted record of one case."""
    sr = sp.get_semiring(name)
    key = {"instance": name, "fn": fn, "draw": kind, "n": n, "i": i}
    encoded = {k: encode(v) for k, v in inp.items()}
    yield {**key, "run": "bare", "in": encoded, **_outcome(fn, sr, inp)}
    counted = CountingSemiring(sr)
    outcome = _outcome(fn, counted, inp)
    c = counted.counter
    ops = {"add": c.add_count, "mul": c.mul_count, "closure": c.closure_count}
    yield {**key, "run": "counted", **outcome, "ops": ops}


def _covered(sr, fn, n):
    if fn == "Matrix.leq":
        return sr.idempotent
    if fn == "series_closure" and n in DIGEST_SIZES:
        # with its default budget, the series of a non-complete instance
        # runs to hundreds of matrix products at these sizes
        return sr.complete and sr.idempotent
    return True


def cases(sizes):
    """(instance, function, draw, n, i, inputs) for every seeded case."""
    for name in sp.REGISTRY:
        for fn in FUNCTIONS:
            for n in sizes:
                if not _covered(sp.get_semiring(name), fn, n):
                    continue
                for kind, count in DRAWS:
                    for i in range(count):
                        rng = random.Random(f"{name}|{fn}|{kind}|{n}|{i}")
                        yield name, fn, kind, n, i, _inputs(name, fn, kind, n, rng)


def _dump(record):
    return json.dumps(record, separators=(",", ":"))


def lines():
    """Every line of the corpus file, in order."""
    for case in cases(LITERAL_SIZES):
        for record in _records(*case):
            yield _dump(record)
    for i, (name, inp) in enumerate(FIXED):
        for fn in FIXED_FUNCTIONS:
            for record in _records(name, fn, "fixed", len(inp["b"]), i, _fixed_inputs(name, fn, inp)):
                yield _dump(record)
    digests = {}
    for case in cases(DIGEST_SIZES):
        group = digests.setdefault(case[:2], hashlib.sha256())
        for record in _records(*case):
            group.update(_dump(record).encode() + b"\n")
    for (name, fn), digest in digests.items():
        sizes = f"{DIGEST_SIZES[0]}..{DIGEST_SIZES[-1]}"
        yield _dump({"instance": name, "fn": fn, "sizes": sizes, "sha256": digest.hexdigest()})


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", nargs="?", const=GOLDEN_PATH, type=Path, required=True,
                        metavar="PATH", help=f"output file (default {GOLDEN_PATH.name} beside this script)")
    parser.parse_args(argv).write.write_text("".join(line + "\n" for line in lines()))


if __name__ == "__main__":
    main()
