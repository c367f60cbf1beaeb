"""Per-layer measurements that do not come from spans.

* ``semiring_op_ns``: per-call cost of each public scalar op of every
  instance on a seeded value set.
* ``op_counts`` / ``mul_counts``: exact operation counts from runs through
  ``CountingSemiring``.  These runs are never timed: the wrapper makes a
  solve about twice as slow.
* ``cli_start_ms``: interpreter start and ``import semipath.cli``, each in
  fresh processes.
* ``cli_in_process``: the CLI's public functions called in-process on the
  workload's own instance files.
"""

import io
import json
import math
import random
import statistics
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import asdict
from time import perf_counter

import generate as gen
from semipath import (
    CountingSemiring,
    Matrix,
    OpCounter,
    SemipathError,
    bordering_solve,
    durbin,
    get_semiring,
    levinson,
)
from semipath import cli

OP_VALUES = 1024
OP_PASSES = 20
REPEATS = 5


def _ns_per_call(fn, args, calls):
    times = []
    for _ in range(REPEATS):
        start = perf_counter()
        for _ in range(OP_PASSES):
            for a in args:
                fn(*a)
        times.append(perf_counter() - start)
    return statistics.median(times) / calls * 1e9


def semiring_op_ns(seed):
    """{instance: {"add": ns, "mul": ns, "closure": ns}}, loop cost included."""
    out = {}
    for name in gen.INSTANCES:
        sr = get_semiring(name)
        rng = random.Random(f"{seed}:ops:{name}")
        xs, ys = gen.draw(name, rng, OP_VALUES), gen.draw(name, rng, OP_VALUES)
        pairs, singles = list(zip(xs, ys)), [(x,) for x in xs]
        calls = OP_VALUES * OP_PASSES
        out[name] = {
            "add": _ns_per_call(sr.add, pairs, calls),
            "mul": _ns_per_call(sr.mul, pairs, calls),
            "closure": _ns_per_call(sr.closure, singles, calls),
        }
    return out


def op_counts(workload):
    """Operation counts of one round of the workload's pool."""
    counter = OpCounter()
    workload.count_ops(counter)
    return asdict(counter)


def _solver_mul_counts(solve, sizes, seed):
    counts = []
    for n in sizes:
        sr = CountingSemiring(get_semiring("max-plus"))
        solve(sr, n, random.Random(f"{seed}:ratio:{n}"))
        counts.append(sr.counter.mul_count)
    return counts


def _per_doubling(sizes, counts):
    """Geometric mean growth of the count per doubling of n."""
    logs = [math.log(c2 / c1) / math.log2(n2 / n1)
            for (n1, c1), (n2, c2) in zip(zip(sizes, counts), zip(sizes[1:], counts[1:]))]
    return math.exp(sum(logs) / len(logs))


def _toeplitz_solve(sr, n, rng):
    durbin(sr, *gen.toeplitz("max-plus", n, rng))
    levinson(sr, *gen.bellman("max-plus", n, rng))


def _bordering_solve(sr, n, rng):
    bordering_solve(Matrix(n, n, gen.dense("max-plus", n, rng), sr), gen.rhs("max-plus", n, rng))


TOEPLITZ_SIZES = (256, 512, 1024)
BORDERING_SIZES = (64, 128)


def mul_counts(seed):
    """mul counts per size for the Toeplitz solvers and for bordering."""
    return {
        "toeplitz": _solver_mul_counts(_toeplitz_solve, TOEPLITZ_SIZES, seed),
        "bordering": _solver_mul_counts(_bordering_solve, BORDERING_SIZES, seed),
    }


def ratio_metrics(counts):
    return {
        "toeplitz.mul_ratio": _per_doubling(TOEPLITZ_SIZES, counts["toeplitz"]),
        "bordering.mul_ratio": _per_doubling(BORDERING_SIZES, counts["bordering"]),
    }


def _process_ms(argv, env, repeats):
    times = []
    for _ in range(repeats):
        start = perf_counter()
        subprocess.run(argv, env=env, check=True, capture_output=True, timeout=60)
        times.append(perf_counter() - start)
    return statistics.median(times) * 1e3


def cli_start_ms(env, repeats=7):
    """(interpreter start, import of semipath.cli beyond start), medians in ms."""
    start = _process_ms([sys.executable, "-c", "pass"], env, repeats)
    imported = _process_ms([sys.executable, "-c", "import semipath.cli"], env, repeats)
    return start, imported - start


def cli_in_process(workload, tracer):
    """Call the CLI's public functions in-process on every pool file.

    ``main`` runs the whole command; ``parse_instance``, ``run_solve`` and
    the JSON encode of the report run the same steps one by one.
    """
    for idx, req in enumerate(workload.pool):
        tracer.request = idx
        argv = req.args[0]
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            tracer.call("cli.main", cli.main, argv)
        try:
            inst = tracer.call("cli.parse_instance", cli.parse_instance, argv[-1])
            report = tracer.call("cli.run_solve", cli.run_solve, inst, req.op,
                                 "recompute", True)
        except SemipathError:
            continue
        tracer.call("cli.encode", json.dumps, report)
    tracer.request = None
