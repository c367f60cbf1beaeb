"""Layered benchmark for semipath: verified solves per second, end to end and
layer by layer.

Run from the root of a semipath checkout:

    python3 benchmarks/run.py --workload toeplitz-quadratic --seed 1 --seconds 15 --trace 0
    python3 benchmarks/run.py --workload all --seed 1 --seconds 15 --trace 0

Each workload runs in one process with one closed-loop client: the next
request is sent only after the previous one has completed, and no other
thread runs.  A run is a whole number of rounds over the workload's pool and
lasts at least ``--seconds``, ``MIN_ROUNDS`` rounds and ``MIN_REQUESTS``
requests, so that p90 has ten samples beyond it.  Every output is checked
after the timed loop against an independent numpy oracle (see ``oracle.py``).

The time of one request is the lower quartile of its pool entry's times
over the rounds, and the p50 metrics are medians of these over the pool.
On a shared host other tenants slow the machine for stretches of seconds;
an entry runs once per round, at a seeded place in it, so its lower
quartile is a time it took outside most of those stretches, and the metrics
follow the program more than the host.  Request times also cluster by
instance, operation and size, and a median can fall between two clusters;
taken over single executions, a few slow ones would move it across the gap.
p90 is taken the same way when the pool has at least ``MIN_REQUESTS``
entries, so that ten lie beyond it, and over all executions otherwise.

``--trace 0`` prints the end-to-end metrics, measured untraced.
``--trace 1`` runs the pool untraced and then traced, records one span per
call into the program, and prints the per-layer metrics; the spans go to
``.bench_out/spans_<workload>_seed<seed>.jsonl``.  Operation counts come from
separate, untimed runs through ``CountingSemiring``, made twice; the run is
marked incorrect if the two disagree.

Every run writes ``.bench_out/BENCH_<workload>_seed<seed>_trace<t>.json``
with the metrics and the environment.  The last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.

A request is verified when its outcome is the expected one (a solution
whose residual check passes, or the expected typed error) and its solution
agrees with the oracle.  ``failed`` counts the others, ``error_rate`` is
``failed / attempted``, and the run is correct when nothing failed.

The known float-exactness defect of max-plus (a residual check that fails
on non-integer floats although the solution is right) is kept out of the
timed pools, because it would make ``failed`` depend on how many rounds fit
in a run.  The untraced cli-roundtrip run measures it instead, on a fixed
set of float instances per seed, and prints and records the count of false
alarms; a float solution that disagrees with the oracle makes the run
incorrect.
"""

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import get_clock_info, perf_counter

from spans import NO_TRACE, Tracer, layer_stats, traced_methods

WORKLOAD_NAMES = ("toeplitz-quadratic", "bordering-cubic", "cli-roundtrip")
MIN_REQUESTS = 100
MIN_ROUNDS = 4
#: a run stops after this long even below MIN_REQUESTS, to finish in time
MAX_MEASURE_S = 100.0
#: set-up is repeated in this many fresh processes besides the run's own
SETUP_PROBES = 6
OUT_DIR = ".bench_out"

END_TO_END_UNITS = {
    "verified_solves_per_s": "1/s",
    "latency_ms_p50": "ms",
    "latency_ms_p90": "ms",
    "latency_ms_p50.nonneg-real": "ms",
    "latency_ms_p50.max-plus": "ms",
    "latency_ms_p50.max-plus-complete": "ms",
    "latency_ms_p50.max-min": "ms",
    "latency_ms_p50.boolean": "ms",
    "error_rate": "fraction",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
#: error_rate is 0 whenever nothing fails, so it has no share-of-median
#: bound; it is printed, and the JSON line carries it as failed/attempted
NOT_IN_RESULT_LINE = ("error_rate",)

SPAN_LAYERS = (
    "toeplitz.durbin", "toeplitz.levinson", "toeplitz.residual_check",
    "bordering.bordering_solve", "bordering.bordering_closure",
)
MATRIX_SPANS = (
    "matrices.SymToeplitz.matvec", "matrices.Matrix.mul.matvec", "matrices.Matrix.mul.matmul",
)
CLI_SPANS = ("cli.parse_instance", "cli.run_solve", "cli.encode", "cli.main")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="set up once, print the set-up seconds and exit")
    return p.parse_args(argv)


def run_rounds(wl, tracer, stop):
    """Closed loop over whole rounds; returns (results, seconds, rounds)."""
    results = []
    rounds = 0
    start = perf_counter()
    while True:
        for idx in wl.order(rounds):
            tracer.request = idx
            t = perf_counter()
            raw = tracer.call("request", wl.run, wl.pool[idx], tracer)
            results.append((idx, perf_counter() - t, raw))
        rounds += 1
        if stop(rounds, perf_counter() - start, len(results)):
            return results, perf_counter() - start, rounds


def verify(wl, results, oracle, notes):
    """Check every result; returns (verified flags, failed count)."""
    from workloads import OK
    refs = {}
    flags = []
    for idx, _, raw in results:
        req = wl.pool[idx]
        out = wl.outcome(raw)
        code, error = req.expect
        outcome_ok = out.code == code and (error is None or out.error == error)
        sol_ok = None
        if code == OK and out.solution is not None:
            try:
                if idx not in refs:
                    refs[idx] = wl.reference(req, oracle)
                sol_ok = oracle.matches(refs[idx], out.solution)
            except oracle.OracleError as exc:
                sol_ok = False
                notes.append(f"request {idx}: oracle failed: {exc}")
        ok = outcome_ok and sol_ok is not False
        flags.append(ok)
        if not ok:
            notes.append(f"request {idx} ({req.instance} {req.op} n={req.n}): WRONG: "
                         f"expected {req.expect}, got code {out.code} {out.error or ''}, "
                         f"oracle {sol_ok}")
    return flags, flags.count(False)


def peak_rss_mb(children):
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def end_to_end(wl, results, flags, seconds, setup_s, rss_mb, instances):
    per_entry = {}
    for idx, dt, _ in results:
        per_entry.setdefault(idx, []).append(dt)
    typical = {idx: statistics.quantiles(times, n=4)[0] for idx, times in per_entry.items()}
    tail = (list(typical.values()) if len(typical) >= MIN_REQUESTS
            else [dt for _, dt, _ in results])
    m = {
        "verified_solves_per_s": sum(flags) / seconds,
        "latency_ms_p50": statistics.median(typical.values()) * 1e3,
        "latency_ms_p90": statistics.quantiles(tail, n=10)[-1] * 1e3,
    }
    for inst in instances:
        m[f"latency_ms_p50.{inst}"] = statistics.median(
            t for idx, t in typical.items() if wl.pool[idx].instance == inst) * 1e3
    m["error_rate"] = flags.count(False) / len(flags)
    m["setup_s"] = setup_s
    m["peak_rss_mb"] = rss_mb
    return {k: (v, END_TO_END_UNITS[k]) for k, v in m.items()}


def per_layer(tracer, layers, seed, counts, phase_time, rounds, overhead, env):
    m = {}
    for inst, ops in layers.semiring_op_ns(seed).items():
        for op, ns in ops.items():
            m[f"semirings.{inst}.{op}_ns"] = (ns, "ns")
    for op in ("add", "mul", "closure", "inverse"):
        m[f"semirings.{op}_count"] = (counts[f"{op}_count"], "count")
    ops = counts["add_count"] + counts["mul_count"]
    m["semirings.ns_per_op"] = (phase_time / rounds / ops * 1e9 if ops else 0.0, "ns")
    by_name = tracer.by_name()
    for name in SPAN_LAYERS:
        st = layer_stats(by_name.get(name, []))
        m[f"{name}.busy_s"] = (st["busy_s"], "s")
        m[f"{name}.calls"] = (st["calls"], "count")
        m[f"{name}.ms_p50"] = (st["ms_p50"], "ms")
    m["toeplitz.residual_check.self_s"] = (
        layer_stats(by_name.get("toeplitz.residual_check", []))["self_s"], "s")
    for name in MATRIX_SPANS:
        st = layer_stats(by_name.get(name, []))
        m[f"{name}.busy_s"] = (st["busy_s"], "s")
        m[f"{name}.ms_p50"] = (st["ms_p50"], "ms")
    for name, value in layers.ratio_metrics(counts["mul_counts"]).items():
        m[name] = (value, "ratio")
    start_ms, import_ms = layers.cli_start_ms(env)
    m["cli.interp_start_ms"] = (start_ms, "ms")
    m["cli.import_ms"] = (import_ms, "ms")
    for name in CLI_SPANS:
        m[f"{name}.ms_p50"] = (layer_stats(by_name.get(name, []))["ms_p50"], "ms")
    m["trace_overhead_frac"] = (overhead, "fraction")
    return m


def source_digest(src):
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(path.relative_to(src).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_sha(root):
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                              capture_output=True, text=True, timeout=10, check=False)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment(root, seed, numpy_version):
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "git_sha": git_sha(root),
        "source_sha256": source_digest(root / "src"),
        "numpy": numpy_version,
        "timer": "perf_counter",
        "timer_resolution_s": get_clock_info("perf_counter").resolution,
        "seed": seed,
    }


def setup_probes(args):
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", args.workload,
             "--seed", str(args.seed), "--setup-probe"],
            capture_output=True, text=True, check=True, timeout=60)
        times.append(float(proc.stdout.split()[-1]))
    return times


def run_all(args):
    """Each workload in its own process, one after another."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "workloads": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            print(f"benchmark: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["workloads"][name] = result["metrics"]
    print(json.dumps(merged))
    return 0


def main(argv=None):
    args = parse_args(argv)
    root = Path.cwd()
    src = root / "src"
    if not (src / "semipath" / "__init__.py").is_file():
        print("benchmark: no src/semipath here; run it from the root of a semipath checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    out_dir = root / OUT_DIR
    out_dir.mkdir(exist_ok=True)
    sys.path.insert(0, str(src))

    started = perf_counter()
    import semipath
    import workloads
    if not Path(semipath.__file__).resolve().is_relative_to(src.resolve()):
        print(f"benchmark: imported semipath from {semipath.__file__}, not {src}",
              file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload](args.seed, out_dir)
    try:
        wl.warm_up()
        setup_s = perf_counter() - started
        if args.setup_probe:
            print(repr(setup_s))
            return 0
        return measure(args, root, out_dir, wl, workloads, setup_s)
    finally:
        wl.close()


def measure(args, root, out_dir, wl, workloads, own_setup_s):
    from semipath import Matrix, SymToeplitz

    is_cli = args.workload == "cli-roundtrip"
    gc.collect()
    if args.trace:
        results, seconds, rounds = run_rounds(
            wl, NO_TRACE, lambda r, e, c: e >= args.seconds / 2 or e >= MAX_MEASURE_S)
        tracer = Tracer()
        with traced_methods(tracer, (SymToeplitz, Matrix)):
            traced, traced_seconds, _ = run_rounds(wl, tracer, lambda r, e, c: r >= rounds)
    else:
        results, seconds, rounds = run_rounds(
            wl, NO_TRACE,
            lambda r, e, c: (e >= args.seconds and c >= MIN_REQUESTS and r >= MIN_ROUNDS)
            or e >= MAX_MEASURE_S)
    rss_mb = peak_rss_mb(children=is_cli)

    import oracle
    notes = []
    flags, failed = verify(wl, results, oracle, notes)
    wrong = failed
    attempted = len(results)
    out = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
           "rounds": rounds, "requests": attempted, "measured_s": seconds}

    if args.trace:
        import layers
        tflags, tfailed = verify(wl, traced, oracle, notes)
        attempted += len(traced)
        failed += tfailed
        wrong += tfailed
        if is_cli:
            layers.cli_in_process(wl, tracer)
        first, second = ({**layers.op_counts(wl), "mul_counts": layers.mul_counts(args.seed)}
                         for _ in range(2))
        if first != second:
            notes.append(f"operation counts differ between two counting runs: {first} {second}")
            wrong += 1
        untraced_rate = sum(flags) / seconds
        overhead = 1.0 - (sum(tflags) / traced_seconds) / untraced_rate if untraced_rate else 0.0
        phase_time = sum(dt for _, dt, _ in results)
        metrics = per_layer(tracer, layers, args.seed, first, phase_time, rounds,
                            overhead, workloads.program_env())
        spans_path = out_dir / f"spans_{args.workload}_seed{args.seed}.jsonl"
        tracer.write(spans_path)
        out["spans"] = str(spans_path.relative_to(root))
        out["op_counts"] = first
    else:
        probes = setup_probes(args)
        out["setup_samples_s"] = [own_setup_s] + probes
        metrics = end_to_end(wl, results, flags, seconds, statistics.median(out["setup_samples_s"]),
                             rss_mb, workloads.gen.INSTANCES)
        out["samples"] = [[idx, dt, ok] for (idx, dt, _), ok in zip(results, flags)]
        if is_cli:
            probe = workloads.float_max_plus_probe(args.seed, oracle)
            out["float_max_plus_probe"] = probe
            for op, tally in probe.items():
                print(f"known defect: float max-plus {op}: residual check fails on "
                      f"{tally['false_alarms']} of {tally['instances']} right solutions, "
                      f"{tally['wrong']} wrong solutions")
                if tally["wrong"]:
                    notes.append(f"float max-plus {op}: {tally['wrong']} wrong solutions")
                    wrong += tally["wrong"]

    env = environment(root, args.seed, oracle.NUMPY_VERSION)
    out.update(env=env, correct=wrong == 0, attempted=attempted, failed=failed, notes=notes,
               metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()})
    (out_dir / f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json").write_text(
        json.dumps(out, indent=1), encoding="utf-8")

    for note in notes[:20]:
        print(f"benchmark: {note}", file=sys.stderr)
    print("env " + json.dumps(env))
    phases = "untraced and traced, each" if args.trace else "untraced"
    print(f"{args.workload}: {attempted} requests, {rounds} rounds {phases}, "
          f"{seconds:.2f} s untraced, {failed} failed, correct={wrong == 0}")
    for name, (value, unit) in metrics.items():
        print(f"{args.workload:20s} {name:40s} {value:14.6g} {unit}")
    print(json.dumps({
        "correct": wrong == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()
                    if k not in NOT_IN_RESULT_LINE},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
