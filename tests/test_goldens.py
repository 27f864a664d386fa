"""Byte-level goldens for all five policies on one seeded scenario.

The scenario (16 PMs, 128 VMs, 48 hours, seed 1) both defers requests
and, under the learned policies, consolidates, so every stage of the
hour loop shows up in the outputs.  `policy_goldens.json` holds the
sha256 of each output file; the learned policies load the checkpoints
committed next to it.  Under `log_scores` it also holds the learned
policies' `decisions.jsonl` with `--log-scores` on: those files carry
every score at full precision, so they pin the readout to the last bit,
not only through the argmin.  Regenerate (only in a change that is meant to
alter outputs) with:

    PYTHONPATH=src python tests/test_goldens.py > tests/data/policy_goldens.json
"""

import hashlib
import json
from pathlib import Path

import pytest

from cloudsched.datacenter import new_datacenter
from cloudsched.energy import generate_price_series
from cloudsched.gnn.models import load_model
from cloudsched.scheduler import MODEL_POLICIES, POLICY_KINDS
from cloudsched.sim import SimConfig, decision_log_jsonl, energy_report_csv, result_to_json, run
from cloudsched.workload import generate_synthetic

DATA = Path(__file__).parent / "data"
SCENARIO = dict(pm_count=16, vm_count=128, horizon=48, seed=1)


def policy_outputs(policy: str, log_scores: bool = False) -> tuple[dict[str, str], object]:
    model = load_model(DATA / f"{policy}.json") if policy in MODEL_POLICIES else None
    result = run(SimConfig(policy=policy, model=model, log_scores=log_scores, **SCENARIO))
    outputs = {
        "result.json": result_to_json(result),
        "energy_report.csv": energy_report_csv(result),
        "decisions.jsonl": decision_log_jsonl(result),
    }
    return outputs, result


def digests(outputs: dict[str, str]) -> dict[str, str]:
    return {name: hashlib.sha256(text.encode()).hexdigest() for name, text in outputs.items()}


@pytest.mark.parametrize("policy", POLICY_KINDS)
def test_policy_outputs_match_golden(policy):
    goldens = json.loads((DATA / "policy_goldens.json").read_text())
    outputs, result = policy_outputs(policy)
    assert result.deferred > 0
    if policy in MODEL_POLICIES:
        assert result.migration_count > 0
    assert digests(outputs) == goldens[policy]


def logged_score_digests(policy: str) -> dict[str, str]:
    outputs, _ = policy_outputs(policy, log_scores=True)
    return digests({"decisions.jsonl": outputs["decisions.jsonl"]})


@pytest.mark.parametrize("policy", MODEL_POLICIES)
def test_logged_scores_match_golden(policy):
    goldens = json.loads((DATA / "policy_goldens.json").read_text())
    assert logged_score_digests(policy) == goldens["log_scores"][policy]


BENCHMARK_GOLDENS = Path(__file__).parent.parent / "benchmarks" / "goldens"


def benchmark_digests(policy: str, pm_count: int, vm_count: int) -> dict[str, str]:
    """Sim seed 0 of a 120-hour benchmark sweep, built as the benchmark builds it."""
    locations = tuple(pm.location for pm in new_datacenter(pm_count).pms)
    model = load_model(BENCHMARK_GOLDENS / f"{policy}.json") if policy in MODEL_POLICIES else None
    config = SimConfig(
        pm_count=pm_count,
        vm_count=vm_count,
        horizon=120,
        policy=policy,
        model=model,
        requests=generate_synthetic(vm_count, 120, 0).requests,
        prices=generate_price_series(locations, 120, 0),
        seed=0,
    )
    result = run(config)
    return digests(
        {
            "result.json": result_to_json(result),
            "energy_report.csv": energy_report_csv(result),
            "decisions.jsonl": decision_log_jsonl(result),
        }
    )


@pytest.mark.parametrize("policy", MODEL_POLICIES)
def test_benchmark_scenario_matches_its_golden(policy):
    # The learned sweep: 64 PMs, 512 VMs, against its committed digests.
    goldens = json.loads((BENCHMARK_GOLDENS / "sweep_learned.json").read_text())
    assert benchmark_digests(policy, 64, 512) == goldens[f"{policy}/seed=0"]


@pytest.mark.parametrize("policy", ["first_fit", "best_fit_energy", "random"])
def test_heuristic_benchmark_scenario_matches_its_golden(policy):
    # The heuristic sweep: 128 PMs, 1,024 VMs, billed at 128 locations.
    goldens = json.loads((BENCHMARK_GOLDENS / "sweep_heuristic.json").read_text())
    assert benchmark_digests(policy, 128, 1024) == goldens[f"{policy}/seed=0"]


if __name__ == "__main__":
    doc = {policy: digests(policy_outputs(policy)[0]) for policy in POLICY_KINDS}
    doc["log_scores"] = {policy: logged_score_digests(policy) for policy in MODEL_POLICIES}
    print(json.dumps(doc, indent=2, sort_keys=True))
