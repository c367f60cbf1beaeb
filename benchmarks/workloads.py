"""The three workloads: request pools, one request, and what it should return.

A request is what a user asks of the library: one solve plus the check they
would ask for.  Each workload builds a fixed pool from the workload seed.
The pool's composition (instances, operations, sizes and variants) is the
same for every seed and only the values change, so percentiles of two runs
compare like with like.  A round runs the whole pool once, in a seeded
order, and a run is a whole number of rounds.

* toeplitz-quadratic: in-process ``durbin`` / ``levinson`` plus
  ``residual_check``.  The quadratic recursions and the quadratic
  ``SymToeplitz.matvec`` of the check do nearly all the work, so a change to
  ``semirings``, ``toeplitz`` or ``matrices`` shows here first.
* bordering-cubic: in-process ``bordering_solve`` and ``bordering_closure``
  on dense general matrices, verified through ``Matrix.mul``.  The cubic
  bordering loops dominate and no Toeplitz code runs, so a Toeplitz-only
  change predicts no change here.
* cli-roundtrip: one ``python -m semipath solve --check`` process per
  request.  Interpreter start, import and JSON handling dominate, so a
  solver change predicts no change here and an import or parse change shows
  only here.  It keeps a slice of typed-error requests, which exercise the
  CLI's failure path.

Every timed request has one expected outcome that the program meets, so
``failed`` is 0 on the code as it is.  The known float-exactness defect of
max-plus (a residual check that fails on non-integer floats although the
solution is right) makes a run's failure count depend on how many rounds fit
in its time, so it is measured apart from the timed loop by
``float_max_plus_probe``, on a fixed number of instances per seed.
"""

import json
import os
import random
import shutil
import subprocess
import sys
import tempfile
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import generate as gen
from semipath import (
    CountingSemiring,
    Matrix,
    NotStabilized,
    SemipathError,
    SolverUndefined,
    SymToeplitz,
    VARIANT_FALLBACK,
    VARIANT_RECOMPUTE,
    VARIANT_RECURSIVE,
    bordering_closure,
    bordering_solve,
    durbin,
    get_semiring,
    levinson,
    residual_check,
)
from spans import NO_TRACE

# outcome codes follow the CLI's exit codes; 1 is anything untyped
OK, CRASH, REQUEST_ERROR, UNDEFINED, RESIDUAL_FAILED = 0, 1, 2, 3, 4

#: longest a single CLI request may take before it counts as crashed
CLI_TIMEOUT_S = 60


class Outcome(NamedTuple):
    code: int
    solution: list = None
    error: str = None


@dataclass
class Request:
    instance: str
    op: str
    n: int
    args: tuple
    variant: str = VARIANT_RECOMPUTE
    expect: tuple = (OK, None)  # (outcome code, error type name)


def attempt(fn, *args):
    """Run one in-process request and map its result to an Outcome."""
    try:
        solution, ok = fn(*args)
    except (SolverUndefined, NotStabilized) as exc:
        return Outcome(UNDEFINED, None, type(exc).__name__)
    except SemipathError as exc:
        return Outcome(REQUEST_ERROR, None, type(exc).__name__)
    except Exception as exc:  # a crash is a result to report, not a reason to stop
        traceback.print_exc()
        return Outcome(CRASH, None, f"{type(exc).__name__}: {exc}")
    return Outcome(OK if ok else RESIDUAL_FAILED, solution, None)


def program_env():
    """Environment for a child process that imports the checkout's semipath."""
    src = str(Path.cwd() / "src")
    old = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=src + (os.pathsep + old if old else ""))


def toeplitz_parts(r, b):
    """Generator tail and right-hand side: (r[:-1], r) without b, else (r, b)."""
    return (r[:-1], r) if b is None else (r, b)


class Workload:
    name = None

    def __init__(self, seed, out_dir):
        self.seed = seed
        self.out_dir = out_dir
        self.pool = []
        self.warm = []
        self.build(random.Random(f"{seed}:{self.name}"))

    def order(self, round_index):
        rng = random.Random(f"{self.seed}:{self.name}:order:{round_index}")
        return rng.sample(range(len(self.pool)), len(self.pool))

    def warm_up(self):
        for req in self.warm:
            self.run(req)

    def run(self, req, tr=NO_TRACE, sr=None):
        return attempt(self._solve, req, tr, sr or get_semiring(req.instance))

    def outcome(self, raw):
        return raw

    def count_ops(self, counter):
        """Run one round through a CountingSemiring; the result is discarded."""
        for req in self.pool:
            self.run(req, NO_TRACE, CountingSemiring(get_semiring(req.instance), counter))

    def close(self):
        pass


class ToeplitzQuadratic(Workload):
    name = "toeplitz-quadratic"
    sizes = (256, 512, 1024)

    def build(self, rng):
        for si, inst in enumerate(gen.INSTANCES):
            has_inverses = get_semiring(inst).has_inverses
            for oi, op in enumerate(("durbin", "levinson")):
                # one size per (instance, solver) takes the minority variant
                other = self.sizes[(si + oi) % len(self.sizes)]
                for n in self.sizes:
                    variant = VARIANT_RECOMPUTE
                    if n == other:
                        variant = (VARIANT_RECURSIVE if has_inverses and op == "durbin"
                                   else VARIANT_FALLBACK)
                    self.pool.append(self._request(inst, op, n, variant, rng))
                self.warm.append(self._request(inst, op, self.sizes[0], VARIANT_RECOMPUTE, rng))

    @staticmethod
    def _request(inst, op, n, variant, rng):
        if op == "durbin":
            r0, r = gen.toeplitz(inst, n, rng)
            args = (r0, r, None)
        else:
            args = gen.bellman(inst, n, rng)
        return Request(inst, op, n, args, variant)

    @staticmethod
    def _solve(req, tr, sr):
        r0, r, b = req.args
        if req.op == "durbin":
            sol = tr.call("toeplitz.durbin", durbin, sr, r0, r, req.variant)
        else:
            sol = tr.call("toeplitz.levinson", levinson, sr, r0, r, b, req.variant)
        tail, rhs = toeplitz_parts(r, b)
        ok = tr.call("toeplitz.residual_check", residual_check,
                     SymToeplitz(r0, tail, sr), sol, rhs)
        return sol, ok

    def reference(self, req, oracle):
        r0, r, b = req.args
        tail, rhs = toeplitz_parts(r, b)
        return oracle.toeplitz_solution(req.instance, r0, tail, rhs)


class BorderingCubic(Workload):
    name = "bordering-cubic"
    sizes = (64, 96, 128)
    ops = ("bordering_solve", "bordering_solve", "bordering_closure")

    def build(self, rng):
        for inst in gen.INSTANCES:
            for n in self.sizes:
                for op in self.ops:
                    self.pool.append(self._request(inst, op, n, rng))
            for op in self.ops[1:]:
                self.warm.append(self._request(inst, op, self.sizes[0], rng))

    @staticmethod
    def _request(inst, op, n, rng):
        b = gen.rhs(inst, n, rng) if op == "bordering_solve" else None
        return Request(inst, op, n, (gen.dense(inst, n, rng), b))

    @staticmethod
    def _solve(req, tr, sr):
        data, b = req.args
        n = req.n
        A = Matrix(n, n, data, sr)
        if req.op == "bordering_solve":
            x = tr.call("bordering.bordering_solve", bordering_solve, A, b).to_flat()
            ax = A.mul(Matrix.column(x, sr)).to_flat()
            return x, all(sr.eq(x[i], sr.add(ax[i], b[i])) for i in range(n))
        C = tr.call("bordering.bordering_closure", bordering_closure, A)
        return C.to_flat(), Matrix.identity(n, sr).add(A.mul(C)).equals(C)

    def reference(self, req, oracle):
        data, b = req.args
        if req.op == "bordering_solve":
            return oracle.dense_solution(req.instance, req.n, data, b)
        return oracle.dense_closure(req.instance, req.n, data)


class CliRoundtrip(Workload):
    name = "cli-roundtrip"
    algorithms = ("durbin", "levinson", "bordering")
    per_combo = 6    # regular requests per (instance, algorithm) in one round
    slice_size = 10  # typed-error requests per round
    max_n = 64
    error_kinds = (
        ("malformed-json", REQUEST_ERROR, "ParseError"),
        ("unknown-field", REQUEST_ERROR, "ParseError"),
        ("length-mismatch", REQUEST_ERROR, "ParseError"),
        ("positive-pivot", UNDEFINED, "ClosureUndefined"),
    )

    def build(self, rng):
        self.dir = Path(tempfile.mkdtemp(prefix=f"cli-{self.seed}-", dir=self.out_dir))
        self.env = program_env()
        insts = gen.INSTANCES
        for algo in self.algorithms:
            sizes = gen.log_uniform_sizes(len(insts) * self.per_combo, self.max_n)
            for k, n in enumerate(sizes):
                inst = insts[k % len(insts)]
                self._add(inst, algo, n, self._doc(inst, algo, n, rng))
        sizes = gen.log_uniform_sizes(self.slice_size, self.max_n)
        for k, n in enumerate(sizes):
            kind, code, error = self.error_kinds[k % len(self.error_kinds)]
            self._add_error(kind, insts[k % len(insts)], n, (code, error), rng)
        # the first request of each algorithm, once, untimed
        self.warm = [self.pool[k * len(insts) * self.per_combo]
                     for k in range(len(self.algorithms))]

    @staticmethod
    def _doc(inst, algo, n, rng):
        if algo == "durbin":
            r0, r = gen.toeplitz(inst, n, rng)
            return {"semiring": inst, "r0": r0, "r": r}
        r0, tail, b = gen.bellman(inst, n, rng)
        return {"semiring": inst, "r0": r0, "r": tail, "b": b}

    def _add(self, inst, algo, n, doc, text=None, expect=(OK, None)):
        path = self.dir / f"{len(self.pool):04d}.json"
        path.write_text(text if text is not None else json.dumps(doc), encoding="utf-8")
        argv = ["solve", "--semiring", inst, "--algorithm", algo, "--check",
                "--input", str(path)]
        self.pool.append(Request(inst, algo, n, (argv, doc), expect=expect))

    def _add_error(self, kind, inst, n, expect, rng):
        if kind == "positive-pivot":
            r0, r = gen.toeplitz("max-plus", n, rng)
            doc = {"semiring": "max-plus", "r0": 3, "r": r}
            return self._add("max-plus", "durbin", n, doc, expect=expect)
        doc = self._doc(inst, "levinson", n, rng)
        text = None
        if kind == "malformed-json":
            text = json.dumps(doc)
            text = text[:len(text) // 2]
        elif kind == "unknown-field":
            doc["weight"] = 1
        else:
            doc["b"] = doc["b"] + doc["b"][:1]
        self._add(inst, "levinson", n, doc, text, expect)

    def run(self, req, tr=NO_TRACE, sr=None):
        argv = [sys.executable, "-m", "semipath", *req.args[0]]
        try:
            proc = subprocess.run(argv, env=self.env, capture_output=True,
                                  timeout=CLI_TIMEOUT_S, check=False)
        except subprocess.TimeoutExpired:
            return (None, b"", b"timeout")
        return (proc.returncode, proc.stdout, proc.stderr)

    def outcome(self, raw):
        code, out, err = raw
        try:
            if code in (OK, RESIDUAL_FAILED):
                report = json.loads(out)
                if report["residual_ok"] != (code == OK):
                    return Outcome(CRASH, None, "exit code contradicts residual_ok")
                solution = [float(v) if isinstance(v, str) else v for v in report["solution"]]
                return Outcome(code, solution, None)
            if code in (REQUEST_ERROR, UNDEFINED):
                return Outcome(code, None, json.loads(err)["error"])
        except (ValueError, KeyError, TypeError):
            pass
        return Outcome(CRASH, None, f"exit {code}: {err[-200:]!r}")

    def reference(self, req, oracle):
        doc = req.args[1]
        tail, rhs = toeplitz_parts(doc["r"], doc.get("b"))
        return oracle.toeplitz_solution(req.instance, doc["r0"], tail, rhs)

    def count_ops(self, counter):
        for req in (r for r in self.pool if r.expect[0] == OK):
            sr = CountingSemiring(get_semiring(req.instance), counter)
            doc = req.args[1]
            r0, r, b = doc["r0"], doc["r"], doc.get("b")
            tail, rhs = toeplitz_parts(r, b)
            T = SymToeplitz(r0, tail, sr)
            if req.op == "durbin":
                sol = durbin(sr, r0, r)
            elif req.op == "levinson":
                sol = levinson(sr, r0, r, b)
            else:
                sol = bordering_solve(T.expand(), rhs).to_flat()
            residual_check(T, sol, rhs)

    def close(self):
        shutil.rmtree(self.dir, ignore_errors=True)


WORKLOADS = {w.name: w for w in (ToeplitzQuadratic, BorderingCubic, CliRoundtrip)}


#: instances per solver in the float max-plus probe, sizes cycling over 2..10
FLOAT_PROBE_COUNT = 300
FLOAT_PROBE_SIZES = range(2, 11)


def float_max_plus_probe(seed, oracle):
    """Solve float max-plus instances in-process and classify each result.

    Values are -3 * U(0, 1), drawn from the workload seed.  Returns
    ``{solver: {"instances", "false_alarms", "wrong"}}``: a false alarm is a
    failed residual check on a solution that agrees with the oracle, and a
    wrong result is a solution that does not (or a solve that raised).
    """
    rng = random.Random(f"{seed}:float-max-plus")
    out = {}
    for op in ("durbin", "levinson"):
        tally = {"instances": FLOAT_PROBE_COUNT, "false_alarms": 0, "wrong": 0}
        for k in range(FLOAT_PROBE_COUNT):
            n = FLOAT_PROBE_SIZES[k % len(FLOAT_PROBE_SIZES)]
            vals = gen.float_max_plus(rng, 2 * n + 1)
            if op == "durbin":
                args = (vals[0], vals[1:n + 1], None)
            else:
                args = (vals[0], vals[1:n], vals[n:2 * n])
            req = Request("max-plus", op, n, args)
            got = attempt(ToeplitzQuadratic._solve, req, NO_TRACE, get_semiring("max-plus"))
            tail, rhs = toeplitz_parts(args[1], args[2])
            ref = oracle.toeplitz_solution("max-plus", args[0], tail, rhs)
            if got.solution is None or not oracle.matches(ref, got.solution):
                tally["wrong"] += 1
            elif got.code == RESIDUAL_FAILED:
                tally["false_alarms"] += 1
        out[op] = tally
    return out
