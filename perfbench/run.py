"""Run one seeded workload of the halfspace-qed benchmark.

    python3 perfbench/run.py --workload kz-profiles --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The package is imported from ``src/`` of
that checkout, never from an installed copy.  BLAS and OpenMP are pinned to
one thread before numpy loads.  Prints every metric by name with its unit,
then one JSON line with ``correct``, ``attempted``, ``failed`` and
``metrics``; exits 1 when an item fails its closed-form check and 2 when the
package cannot be imported.
"""
import os
import sys
from pathlib import Path

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def main() -> int:
    for var in THREAD_VARS:
        os.environ[var] = "1"
    src = Path(__file__).resolve().parent.parent / "src"
    sys.path.insert(0, str(src))
    try:
        import halfspace_qed
        import harness
    except ImportError as exc:
        print(f"perfbench: cannot import the package from {src}: {exc}", file=sys.stderr)
        return 2
    if Path(halfspace_qed.__file__).resolve().parent.parent != src:
        print(f"perfbench: halfspace_qed was imported from {halfspace_qed.__file__}, "
              f"not from {src}", file=sys.stderr)
        return 2
    return harness.main(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
