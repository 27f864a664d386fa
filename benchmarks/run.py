"""Run one cloudsched benchmark workload; print its metrics as one JSON line.

    python3 benchmarks/run.py --workload sweep_heuristic --seed 0 --seconds 20 --trace 0

Run from the repository root (or any checkout of it): the program is
imported from the checkout's `src/`.  With `--trace 0` the metrics are the
end-to-end ones; with `--trace 1` the same untraced measurement is followed
by one traced pass and the metrics are the per-layer ones.  The full report
goes to `benchmarks/results/`.  See README.md.
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from probe import SpeedProbe  # noqa: E402

# One BLAS thread, set before numpy is imported, so timings and trained
# weights do not depend on the thread count.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("train", "sweep_heuristic", "sweep_learned")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    src = ROOT / "src"
    if not (src / "cloudsched" / "__init__.py").is_file():
        print(f"error: no cloudsched sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    with SpeedProbe() as probe:
        import bench

        import_s = (time.perf_counter() - START) * probe.scale(0)
        report = bench.run(args.workload, args.seed, args.seconds, bool(args.trace), probe, import_s)
    result = report["result"]
    print(
        f"{args.workload} seed={args.seed} trace={args.trace}: "
        f"{result['attempted']} operations, {result['failed']} failed, "
        f"{report['op_samples']} timed, tail = p{report['op_tail_percentile']:.0f}",
        file=sys.stderr,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
