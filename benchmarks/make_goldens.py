"""Regenerate the committed goldens from the program in this checkout.

    python3 benchmarks/make_goldens.py --workload train --seeds 0-19
    python3 benchmarks/make_goldens.py --workload sweep_heuristic --seeds 0-152
    python3 benchmarks/make_goldens.py --workload sweep_learned --seeds 0-152

Each distinct operation of the given seeds runs once, untraced, and the
sha256 digests of its outputs are merged into `goldens/<workload>.json`
(sweep seeds n and n+1 share seven of their eight scenarios).  The
train recipe at seed 0 also writes the checkpoints `goldens/counter.json`
and `goldens/hunter.json` that `sweep_learned` loads, so regenerate
`train` seed 0 before `sweep_learned`.  An operation that raises or
breaks an invariant aborts the script and writes nothing for it.
"""

import argparse
import json
import sys
from contextlib import nullcontext

import run  # pins BLAS threads before numpy is imported

sys.path.insert(0, str(run.ROOT / "src"))

import bench  # noqa: E402


def parse_seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=run.WORKLOAD_NAMES)
    parser.add_argument("--seeds", required=True, type=parse_seeds, help="N or A-B")
    args = parser.parse_args(argv)

    spec = bench.WORKLOADS[args.workload]
    path = bench.GOLDENS_DIR / f"{spec.name}.json"
    goldens = json.loads(path.read_text(encoding="utf-8")) if path.is_file() else {}
    done = set()
    for seed in args.seeds:
        calls = [c for c in bench.operations(spec, bench.setup(spec, seed)) if c[0] not in done]
        for key, call in calls:
            done.add(key)
            op, outputs = call(nullcontext())
            if op.problems:
                print(f"error: {spec.name} {key}: {op.problems}", file=sys.stderr)
                return 1
            goldens[key] = op.digests
            if isinstance(spec, bench.Train) and seed == 0:
                for policy in ("counter", "hunter"):
                    (bench.GOLDENS_DIR / f"{policy}.json").write_text(
                        outputs[f"{policy}.json"], encoding="utf-8"
                    )
        path.write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        print(f"{spec.name} seed {seed}: {len(calls)} operations", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
