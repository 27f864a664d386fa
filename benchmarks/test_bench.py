"""Tests of the benchmark itself; the repository's own suite does not run them.

    python3 -m pytest benchmarks/test_bench.py -q
"""

import hashlib
import json
import re
import shutil
import signal
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))

import bench  # noqa: E402
from probe import SpeedProbe  # noqa: E402
from tracer import Tracer  # noqa: E402

SMALL = {
    "train": replace(bench.WORKLOADS["train"], episodes=1, epochs=2),
    "sweep_heuristic": replace(
        bench.WORKLOADS["sweep_heuristic"], pm_count=8, vm_count=40, horizon=24, sims=2
    ),
    "sweep_learned": replace(
        bench.WORKLOADS["sweep_learned"], pm_count=8, vm_count=40, horizon=24, sims=2
    ),
}
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _measure(spec, trace, goldens=None, seed=0):
    with SpeedProbe() as probe:
        return bench.measure(spec, seed, 0.001, trace, probe, goldens=goldens or {})


def _cloudsched_bindings():
    return {
        (name, key): value
        for name, module in list(sys.modules.items())
        if name == "cloudsched" or name.startswith("cloudsched.")
        for key, value in vars(module).items()
    }


@pytest.mark.parametrize("name", sorted(SMALL))
def test_traced_run_gives_untraced_digests(name):
    report = _measure(SMALL[name], trace=True)
    untraced = {op["key"]: op["digests"] for op in report["ops"]}
    traced = {op["key"]: op["digests"] for op in report["traced_ops"]}
    assert traced and all(untraced[key] == digests for key, digests in traced.items())
    assert report["result"]["failed"] == 0
    assert report["result"]["correct"]


def test_every_rebound_function_is_restored():
    before = _cloudsched_bindings()
    tracer = Tracer()
    with tracer.installed(bench.TRACED):
        scheduler = sys.modules["cloudsched.scheduler"]
        assert scheduler.dc_snapshot is not before[("cloudsched.scheduler", "dc_snapshot")]
        assert len(tracer._bindings) > len(bench.TRACED)
    assert _cloudsched_bindings() == before


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {
        False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        True: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    assert declared[False] == bench.END_TO_END
    assert declared[True] == bench.per_layer_units()
    for trace in (False, True):
        metrics = _measure(SMALL["sweep_learned"], trace)["result"]["metrics"]
        assert {n: m["unit"] for n, m in metrics.items()} == declared[trace]
        assert all(NAME.fullmatch(n) for n in metrics)


def test_corrupted_golden_counts_as_failure(tmp_path):
    copy = tmp_path / "sweep_heuristic.json"
    shutil.copy(bench.GOLDENS_DIR / "sweep_heuristic.json", copy)
    goldens = json.loads(copy.read_text(encoding="utf-8"))
    goldens["first_fit/seed=0"]["result.json"] = "0" * 64
    copy.write_text(json.dumps(goldens), encoding="utf-8")

    report = _measure(
        bench.WORKLOADS["sweep_heuristic"], False, json.loads(copy.read_text(encoding="utf-8"))
    )
    failed = [op["key"] for op in report["ops"] if op["problems"]]
    assert failed == ["first_fit/seed=0"]
    assert report["fail_frac"] > 0
    assert not report["result"]["correct"]


def test_checkpoints_are_the_train_recipe_outputs():
    recipe = bench.load_goldens("train")["recipe/seed=0"]
    for policy in ("counter", "hunter"):
        digest = hashlib.sha256((bench.GOLDENS_DIR / f"{policy}.json").read_bytes()).hexdigest()
        assert digest == recipe[f"{policy}.json"]


def test_speed_probe_samples_and_restores_the_handler():
    before = signal.getsignal(signal.SIGPROF)
    with SpeedProbe() as probe:
        end = time.process_time() + 0.2
        while time.process_time() < end:
            pass
    assert probe.mark() >= 5
    assert probe.scale(0) > 0
    assert signal.getsignal(signal.SIGPROF) == before


def test_tail_has_ten_samples_beyond_it():
    values = [float(i) for i in range(25)]
    value, pct = bench.tail(values)
    assert sum(v > value for v in values) == 10
    assert pct == 60.0
    assert bench.tail([3.0, 1.0]) == (3.0, 100.0)


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("results"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "train", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
