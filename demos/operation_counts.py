"""Operation-count scaling: quadratic Toeplitz solvers vs cubic bordering.

Prints ``run_bench`` tables for max-plus while the problem size doubles.
The multiplication counts come from a counting run; the Toeplitz
recursions quadruple per doubling (O(n^2)), the general bordering solve
multiplies by eight (O(n^3)).  The ms column times a separate solve on the
plain instance and is shown for context only; the counts are the
measurement.
"""

from semipath.cli import run_bench

for algorithm, sizes, expect in (
    ("durbin", [64, 128, 256], 4),
    ("levinson", [64, 128, 256], 4),
    ("bordering", [32, 64, 128], 8),
):
    print(f"{algorithm} (expect ratio -> {expect})")
    print(f"  {'n':>5}  {'mul count':>12}  {'ratio':>7}  {'ms':>8}")
    for row in run_bench("max-plus", algorithm, sizes, seeds=1)["rows"]:
        ratio = "" if row["mul_ratio"] is None else f"{row['mul_ratio']:.2f}"
        print(f"  {row['size']:>5}  {row['mul_count']:>12.0f}  {ratio:>7}  {row['elapsed']:>8.1f}")
    print()

print("same numbers via the CLI: semipath bench --semiring max-plus "
      "--algorithm durbin --sizes 128,256 --seeds 3")
