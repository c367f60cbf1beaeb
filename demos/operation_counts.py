"""Operation-count scaling: quadratic Toeplitz solvers vs cubic bordering.

Prints ``run_bench`` tables for max-plus while the problem size doubles.
Each instance is solved once through a counting wrapper; the Toeplitz
recursions' multiplication counts quadruple per doubling (O(n^2)), the
general bordering solve's multiply by eight (O(n^3)).  The counts are the
measurement: wall time comes from ``benchmarks/run.py``.
"""

from semipath.cli import run_bench

for algorithm, sizes, expect in (
    ("durbin", [64, 128, 256], 4),
    ("levinson", [64, 128, 256], 4),
    ("bordering", [32, 64, 128], 8),
):
    print(f"{algorithm} (expect ratio -> {expect})")
    print(f"  {'n':>5}  {'mul count':>12}  {'ratio':>7}")
    for row in run_bench("max-plus", algorithm, sizes, seeds=1)["rows"]:
        ratio = "" if row["mul_ratio"] is None else f"{row['mul_ratio']:.2f}"
        print(f"  {row['size']:>5}  {row['mul_count']:>12.0f}  {ratio:>7}")
    print()

print("same numbers via the CLI: semipath bench --semiring max-plus "
      "--algorithm durbin --sizes 128,256 --seeds 3")
