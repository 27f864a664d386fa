"""Smoke tests for the experiment scripts, run as a user runs them."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_comparison(*args):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "run_comparison.py"), *args],
        env=env,
        capture_output=True,
        text=True,
    )


def test_run_comparison_writes_one_row_per_policy_and_seed(tmp_path):
    done = run_comparison("--seeds", "1", "--policies", "first_fit", "--out", str(tmp_path))
    assert done.returncode == 0, done.stderr
    lines = (tmp_path / "seed_sweep.csv").read_text().splitlines()
    assert lines[0] == (
        "policy,seed,max_util,mean_active_pms,total_kwh,total_cost,placed,deferred,migrations"
    )
    assert len(lines) == 2 and lines[1].startswith("first_fit,0,")


def test_run_comparison_missing_checkpoint_names_the_train_command(tmp_path):
    done = run_comparison("--policies", "counter", "--out", str(tmp_path))
    assert done.returncode != 0
    assert done.stderr.count("error:") == 1 and "Traceback" not in done.stderr
    assert f"cloudsched train --policy counter --seed 0 --out {tmp_path}" in done.stderr
    assert not (tmp_path / "seed_sweep.csv").exists()


def test_run_comparison_malformed_checkpoint_is_one_error_line(tmp_path):
    (tmp_path / "model_counter.json").write_text('{"kind": "gcn"}\n')
    done = run_comparison("--policies", "counter", "--out", str(tmp_path))
    assert done.returncode == 2
    assert done.stderr.count("error:") == 1 and "Traceback" not in done.stderr
    assert "model_counter.json" in done.stderr
    assert not (tmp_path / "seed_sweep.csv").exists()
