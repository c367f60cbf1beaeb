"""Command-line front end: instance files in, JSON reports out.

Commands:

* ``solve``     run one algorithm on one instance file, optionally checking
                the residual and counting semiring operations.
* ``bench``     run an algorithm over generated instances of growing size
                and report mean operation counts plus growth ratios; it
                counts operations only and reads no clock.
* ``semirings`` list the registered instance names.

Exit codes: 0 success, 2 parse/request error, 3 solver hit an undefined
scalar operation, a non-stabilizing series or a solution entry outside the
carrier, 4 residual check failed.
"""

import argparse
import json
import math
import random
import sys
import time
from collections import namedtuple

from .errors import (
    BadSentinel,
    ClosureUndefined,
    IncompatibleRequest,
    NotStabilized,
    ParseError,
    SemipathError,
    SolverUndefined,
)
from .semirings import NEG_INF, POS_INF, REGISTRY, _check_carrier, get_semiring
from .toeplitz import (
    VARIANT_RECOMPUTE,
    SymToeplitz,
    _check_variant,
    durbin,
    levinson,
    residual_check,
)

ALGORITHMS = ("durbin", "levinson", "bordering", "series")

DEFAULT_SEED = 42

_SENTINEL_NAMES = {"-inf": NEG_INF, "inf": POS_INF}

EXIT_OK = 0
EXIT_REQUEST = 2
EXIT_UNDEFINED = 3
EXIT_RESIDUAL = 4

#: ``asdict(OpCounter())``, spelled out so an uncounted solve never imports
#: the counting module and with it ``dataclasses``
_NO_COUNTS = {"add_count": 0, "mul_count": 0, "closure_count": 0, "inverse_count": 0}


class InstanceFile(namedtuple("InstanceFile", "semiring r0 r b", defaults=(None,))):
    """Decoded instance: semiring name, diagonal scalar, generator/rhs
    column r, and (for arbitrary-rhs problems) the column b."""

    __slots__ = ()


def decode_value(sr, raw, where):
    """One JSON scalar -> carrier value, with strict carrier checking."""
    if isinstance(raw, str):
        if raw not in _SENTINEL_NAMES:
            raise ParseError(f"{where}: expected a number or 'inf'/'-inf', got {raw!r}")
        v = _SENTINEL_NAMES[raw]
        if not sr.contains(v):
            raise BadSentinel(f"{where}: sentinel {raw!r} is not in the {sr.name} carrier")
        return v
    if isinstance(raw, bool) or not isinstance(raw, (int, float)):
        raise ParseError(f"{where}: expected a number, got {raw!r}")
    try:
        finite = math.isfinite(raw)
    except OverflowError:  # an int too large for a float
        finite = False
    if not finite:
        raise ParseError(f"{where}: a number must be finite and fit a float; "
                         "write infinities as 'inf'/'-inf'")
    if not sr.contains(raw):
        raise ParseError(f"{where}: {raw!r} is outside the {sr.name} carrier")
    return raw


def encode_value(v):
    """Carrier value -> JSON scalar (infinities become strings).

    A NaN, which no carrier holds but an error can report, becomes "nan".
    """
    if v != v:
        return "nan"
    if v == NEG_INF:
        return "-inf"
    if v == POS_INF:
        return "inf"
    return v


def _reject_json_constant(token):
    raise ParseError(f"bare {token} is not allowed; use the string sentinels 'inf'/'-inf'")


def parse_instance(path):
    """Read and validate one instance file.

    The file is a single JSON object with fields ``semiring``, ``r0``,
    ``r`` and optionally ``b``; anything else is rejected.  Without ``b``
    the instance is a self-generated (Yule-Walker style) problem; with
    ``b`` it is a full Bellman problem and r must have length len(b) - 1.
    """
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f, parse_constant=_reject_json_constant)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from None
    except (ValueError, RecursionError) as exc:
        # bytes that are not UTF-8, an integer literal past the int-conversion
        # digit limit, or arrays nested past the recursion limit
        raise ParseError(f"{path}: {exc}") from None

    if not isinstance(doc, dict):
        raise ParseError(f"{path}: top level must be a JSON object")
    allowed = {"semiring", "r0", "r", "b"}
    unknown = sorted(set(doc) - allowed)
    if unknown:
        raise ParseError(f"{path}: unknown field(s): {', '.join(unknown)}")
    for key in ("semiring", "r0", "r"):
        if key not in doc:
            raise ParseError(f"{path}: missing required field {key!r}")

    if not isinstance(doc["semiring"], str):
        raise ParseError(f"{path}: 'semiring' must be a string")
    sr = get_semiring(doc["semiring"])

    r0 = decode_value(sr, doc["r0"], "r0")
    if not isinstance(doc["r"], list):
        raise ParseError(f"{path}: 'r' must be an array")
    r = [decode_value(sr, raw, f"r[{i}]") for i, raw in enumerate(doc["r"])]

    b = None
    if "b" in doc:
        if not isinstance(doc["b"], list):
            raise ParseError(f"{path}: 'b' must be an array")
        b = [decode_value(sr, raw, f"b[{i}]") for i, raw in enumerate(doc["b"])]
        if len(b) < 1:
            raise ParseError(f"{path}: 'b' must be non-empty")
        if len(r) != len(b) - 1:
            raise ParseError(
                f"{path}: 'r' must have length len(b) - 1 = {len(b) - 1}, got {len(r)}"
            )
    elif len(r) < 1:
        raise ParseError(f"{path}: 'r' must be non-empty")

    return InstanceFile(semiring=sr.name, r0=r0, r=r, b=b)


def _toeplitz_parts(inst):
    """Matrix generator tail and right-hand side implied by the instance."""
    if inst.b is not None:
        return list(inst.r), list(inst.b)
    return list(inst.r[:-1]), list(inst.r)


def _solve(sr, inst, algorithm):
    """The solution list for one algorithm, computed over instance ``sr``."""
    tail, rhs = _toeplitz_parts(inst)
    if algorithm == "durbin":
        return durbin(sr, inst.r0, inst.r)
    if algorithm == "levinson":
        return levinson(sr, inst.r0, inst.r, inst.b)
    # the cubic and dense modules load only for the two routes that need them
    from .bordering import bordering_solve, series_closure
    from .matrices import Matrix

    T = SymToeplitz(inst.r0, tail, sr).expand()
    if algorithm == "bordering":
        return bordering_solve(T, rhs).to_flat()
    solution = series_closure(T).mul(Matrix.column(rhs, sr)).to_flat()
    # the solvers check their own entries; the oracle's product can overflow too
    _check_carrier(sr, solution, len(solution))
    return solution


def run_solve(inst, algorithm, variant=VARIANT_RECOMPUTE, check=False, count=False):
    """Dispatch one solve and assemble the report dict.

    ``elapsed`` times a solve on the plain instance, with the modules it
    needs already loaded.  With ``count``, the operation counts come from a
    second, untimed solve through a CountingSemiring, whose wrapper calls
    would otherwise inflate the time.
    The residual check (when requested) runs on the unwrapped instance so
    operation counts reflect the solve alone.

    ``variant`` selects nothing: ``benchmarks/layers.py`` still calls
    ``run_solve(inst, op, "recompute", True)``, so the slot stays in front of
    ``check``; a name outside ``toeplitz.VARIANTS`` raises ValueError.
    """
    if algorithm not in ALGORITHMS:
        raise IncompatibleRequest(f"unknown algorithm {algorithm!r}")
    if algorithm == "durbin" and inst.b is not None:
        raise IncompatibleRequest("durbin solves the self-generated problem; remove 'b'")
    if algorithm == "levinson" and inst.b is None:
        raise IncompatibleRequest("levinson needs an explicit right-hand side 'b'")
    _check_variant(variant)

    base = get_semiring(inst.semiring)
    if algorithm in ("bordering", "series"):
        # _solve imports these lazily; load them here so ``elapsed`` times
        # the solve and not the module loading
        from . import bordering, matrices  # noqa: F401
    started = time.perf_counter()
    solution = _solve(base, inst, algorithm)
    elapsed_ms = (time.perf_counter() - started) * 1000.0
    if count:
        from .counting import CountingSemiring, OpCounter
        counter = OpCounter()
        _solve(CountingSemiring(base, counter), inst, algorithm)
        report = dict(vars(counter))
    else:
        report = dict(_NO_COUNTS)
    if check:
        tail, rhs = _toeplitz_parts(inst)
        report["residual_ok"] = residual_check(SymToeplitz(inst.r0, tail, base), solution, rhs)
    report["solution"] = [encode_value(v) for v in solution]
    report["algorithm"] = algorithm
    report["semiring"] = inst.semiring
    report["elapsed"] = elapsed_ms
    return report


def _draw(sr, rng, count, toeplitz):
    """``count`` random entries that keep a generated instance solvable.

    max-plus draws integers from [-10, 0] so every pivot closure exists.
    A ``complete`` instance has a total closure, so any ``sr.sample`` draw
    will do.  nonneg-real draws ``rng.random()``; for a Toeplitz column
    (``toeplitz``) it scales positive draws so that the first entry plus
    twice the rest stays below 0.9, keeping the classical solve well posed.
    """
    if sr.name == "max-plus":
        return [rng.randint(-10, 0) for _ in range(count)]
    if sr.complete:
        return [sr.sample(rng) for _ in range(count)]
    if sr.name != "nonneg-real":
        raise IncompatibleRequest(f"no instance generator for {sr.name}")
    if not toeplitz:
        return [rng.random() for _ in range(count)]
    raw = [rng.random() + 1e-3 for _ in range(count)]
    scale = rng.uniform(0.2, 0.85) / (raw[0] + 2 * sum(raw[1:]))
    return [v * scale for v in raw]


def random_yule_walker(sr, n, rng):
    """Random solvable self-generated instance of size n >= 0: (r0, r)."""
    if n < 0:
        raise IncompatibleRequest(f"instance size must be at least 0, got {n}")
    vals = _draw(sr, rng, n + 1, toeplitz=True)
    return vals[0], vals[1:]


def random_bellman(sr, n, rng):
    """Random solvable Bellman instance of size n >= 1: (r0, r, b)."""
    if n < 1:
        raise IncompatibleRequest(f"instance size must be at least 1, got {n}")
    r0, r = random_yule_walker(sr, max(n - 1, 1), rng)
    return r0, r[:n - 1], _draw(sr, rng, n, toeplitz=False)


def run_bench(semiring_name, algorithm, sizes, seeds):
    """Mean operation counts per size, with the growth ratio of the
    multiplication count against the previous size.

    Each of the ``seeds`` generated instances of a size is drawn from the
    fixed ``DEFAULT_SEED`` and solved once, through a CountingSemiring on
    that size's counter.  durbin, levinson and bordering counts depend on
    the size alone; only the ``series`` oracle's counts follow the draws.
    No clock is read: wall time comes from the benchmark harness alone.
    """
    if algorithm not in ALGORITHMS:
        raise IncompatibleRequest(f"unknown algorithm {algorithm!r}")
    if not sizes:
        raise IncompatibleRequest("need at least one size")
    if any(n < 1 for n in sizes):
        raise IncompatibleRequest("sizes must be positive")
    if sorted(sizes) != list(sizes):
        raise IncompatibleRequest("sizes must be ascending")
    if seeds < 1:
        raise IncompatibleRequest("need at least one seed")

    from .counting import CountingSemiring, OpCounter
    base = get_semiring(semiring_name)
    rows = []
    prev_mul = None
    for size in sizes:
        counter = OpCounter()
        for i in range(seeds):
            rng = random.Random(f"{DEFAULT_SEED}:{semiring_name}:{size}:{i}")
            if algorithm == "durbin":
                r0, r = random_yule_walker(base, size, rng)
                inst = InstanceFile(semiring=semiring_name, r0=r0, r=r)
            else:
                r0, r, b = random_bellman(base, size, rng)
                inst = InstanceFile(semiring=semiring_name, r0=r0, r=r, b=b)
            _solve(CountingSemiring(base, counter), inst, algorithm)
        row = {"size": size, "seeds": seeds}
        row.update((name, total / seeds) for name, total in vars(counter).items())
        row["mul_ratio"] = None if prev_mul is None else row["mul_count"] / prev_mul
        rows.append(row)
        prev_mul = row["mul_count"]
    return {
        "algorithm": algorithm,
        "semiring": semiring_name,
        "seed": DEFAULT_SEED,
        "rows": rows,
    }


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="semipath",
        description="Solvers for Bellman equations over semirings, with "
        "quadratic-cost symmetric-Toeplitz specializations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="solve one instance file")
    solve.add_argument("--semiring", required=True, help="instance name; must match the file")
    solve.add_argument("--algorithm", required=True, choices=ALGORITHMS)
    solve.add_argument("--check", action="store_true", help="verify sol = T sol + rhs")
    solve.add_argument("--count-ops", action="store_true", help="count semiring operations")
    solve.add_argument("--input", required=True, help="path to the JSON instance file")

    bench = sub.add_parser("bench", help="operation-count scaling over generated instances")
    bench.add_argument("--semiring", required=True)
    bench.add_argument("--algorithm", required=True, choices=ALGORITHMS)
    bench.add_argument("--sizes", required=True, help="comma-separated ascending sizes")
    bench.add_argument("--seeds", required=True, type=int, help="instances per size")

    sub.add_parser("semirings", help="list registered semiring names")
    return parser


def _fail(exc, code):
    report = {"error": type(exc).__name__, "message": str(exc),
              "step": getattr(exc, "step", None),
              "value": encode_value(getattr(exc, "value", None))}
    if isinstance(exc, ClosureUndefined):
        # the pivot at size k has no star exactly when the leading k-by-k
        # block has no closure, given that the (k-1)-by-(k-1) block has one
        report["claim"] = f"leading {exc.step}x{exc.step} block has no closure"
    print(json.dumps(report, allow_nan=False), file=sys.stderr)
    return code


def main(argv=None):
    args = _build_parser().parse_args(argv)

    if args.command == "semirings":
        print(json.dumps(list(REGISTRY)))
        return EXIT_OK

    try:
        if args.command == "bench":
            try:
                sizes = [int(s) for s in args.sizes.split(",") if s.strip()]
            except ValueError:
                raise IncompatibleRequest(f"bad --sizes value {args.sizes!r}") from None
            report = run_bench(args.semiring, args.algorithm, sizes, args.seeds)
        else:
            inst = parse_instance(args.input)
            if inst.semiring != args.semiring:
                raise IncompatibleRequest(
                    f"--semiring {args.semiring!r} does not match the file's {inst.semiring!r}"
                )
            report = run_solve(inst, args.algorithm, check=args.check, count=args.count_ops)
    except (SolverUndefined, NotStabilized) as exc:
        return _fail(exc, EXIT_UNDEFINED)
    except SemipathError as exc:
        return _fail(exc, EXIT_REQUEST)
    print(json.dumps(report, allow_nan=False))
    if args.command == "solve" and args.check and not report["residual_ok"]:
        return EXIT_RESIDUAL
    return EXIT_OK


def console_entry():
    raise SystemExit(main())


if __name__ == "__main__":
    console_entry()
