#!/usr/bin/env python3
"""Multi-seed policy comparison on the default scenario.

Runs every policy over the same 10 workload/price realizations and
reports per-seed results plus medians, mirroring the headline
energy/utilisation comparison.  The learned policies read
<out>/model_<name>.json, as `cloudsched train --policy <name> --seed 0
--out <out>` writes it.
"""

import argparse
import statistics
import sys
from pathlib import Path

from cloudsched.errors import SimulatorError
from cloudsched.gnn.models import load_model
from cloudsched.sim import SimConfig, compute_qos, run
from cloudsched.util import atomic_write_text

POLICIES = ("first_fit", "best_fit_energy", "random", "counter", "hunter")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="out", help="output directory")
    parser.add_argument("--seeds", type=int, default=10, help="number of shared seeds")
    parser.add_argument("--policies", default=",".join(POLICIES))
    args = parser.parse_args()
    out = Path(args.out)
    policies = [p.strip() for p in args.policies.split(",") if p.strip()]

    models = {}
    for name in ("counter", "hunter"):
        if name not in policies:
            continue
        path = out / f"model_{name}.json"
        if not path.exists():
            print(
                f"error: {path} missing; run "
                f"`cloudsched train --policy {name} --seed 0 --out {out}` first",
                file=sys.stderr,
            )
            return 2
        try:
            models[name] = load_model(path)
        except SimulatorError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2

    rows = []
    for policy in policies:
        for seed in range(args.seeds):
            cfg = SimConfig(policy=policy, model=models.get(policy), seed=seed)
            q = compute_qos(run(cfg))
            rows.append((policy, seed, q))

    lines = ["policy,seed,max_util,mean_active_pms,total_kwh,total_cost,placed,deferred,migrations"]
    for policy, seed, q in rows:
        lines.append(
            f"{policy},{seed},{q.max_pm_utilisation:.6f},{q.mean_active_pm_count:.6f},"
            f"{q.total_energy:.6f},{q.total_cost:.6f},{q.placed},{q.deferred},{q.migrated}"
        )
    atomic_write_text(out / "seed_sweep.csv", "\n".join(lines) + "\n")

    print(f"\n{'policy':<16} {'median kWh':>11} {'median cost':>12} {'max util':>9} {'active':>7}")
    medians = {}
    for policy in policies:
        qs = [q for p, _, q in rows if p == policy]
        med_e = statistics.median(q.total_energy for q in qs)
        med_c = statistics.median(q.total_cost for q in qs)
        med_u = statistics.median(q.max_pm_utilisation for q in qs)
        med_a = statistics.median(q.mean_active_pm_count for q in qs)
        medians[policy] = med_e
        print(f"{policy:<16} {med_e:>11.3f} {med_c:>12.4f} {med_u:>9.4f} {med_a:>7.3f}")

    if "counter" in medians and "first_fit" in medians:
        saving = 100 * (medians["first_fit"] - medians["counter"]) / medians["first_fit"]
        print(f"\ncounter vs first_fit: {saving:+.1f}% median energy")
    if "counter" in medians and "hunter" in medians:
        saving = 100 * (medians["hunter"] - medians["counter"]) / medians["hunter"]
        print(f"counter vs hunter:    {saving:+.1f}% median energy")
    print(f"\nper-seed rows written to {out / 'seed_sweep.csv'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
