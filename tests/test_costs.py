"""Deterministic cost guards: calls counted, not timed, so the bounds are exact."""

from collections import Counter
from dataclasses import replace
from pathlib import Path

from cloudsched import scheduler
from cloudsched.datacenter import new_datacenter, snapshot
from cloudsched.gnn import models
from cloudsched.gnn.models import load_model
from cloudsched.scheduler import Policy, schedule
from cloudsched.sim import SimConfig, run
from cloudsched.workload import WorkloadRequest

COUNTER = load_model(Path(__file__).parent / "data" / "counter.json")
SCENARIO = SimConfig(pm_count=8, vm_count=60, policy="counter", model=COUNTER, seed=1)


def network_calls(monkeypatch) -> tuple[Counter, list[int]]:
    """Count `gcn_layers` calls, and record each `score_placements` call's candidate count."""
    calls, scored = Counter(), []
    gcn_layers, score_placements = models.gcn_layers, scheduler.score_placements

    def counted_layers(*args, **kwargs):
        calls["gcn_layers"] += 1
        return gcn_layers(*args, **kwargs)

    def recorded_scores(model, feats, candidates, workspace=None):
        scored.append(len(candidates))
        return score_placements(model, feats, candidates, workspace)

    monkeypatch.setattr(models, "gcn_layers", counted_layers)
    monkeypatch.setattr(scheduler, "score_placements", recorded_scores)
    return calls, scored


def test_counter_runs_no_network_unless_scores_are_logged(monkeypatch):
    calls, scored = network_calls(monkeypatch)
    result = run(SCENARIO)
    assert result.placed > 0 and result.migration_count > 0  # placements and moves decided
    assert (calls["gcn_layers"], len(scored)) == (0, 0)


def test_logged_scores_run_the_network_once_per_placed_request(monkeypatch):
    # Every placed request's scores are logged, a lone candidate's too;
    # consolidation moves are decided, and never logged, without the network.
    calls, scored = network_calls(monkeypatch)
    result = run(replace(SCENARIO, log_scores=True))
    assert len(scored) == calls["gcn_layers"] == result.placed
    assert sum(n >= 2 for n in scored) > 0 and min(scored) >= 1


def test_counter_builds_no_scoring_workspace():
    policy = Policy("counter", model=COUNTER)
    pending = [WorkloadRequest(f"vm-{i}", 2000, 4, 4, 8, 0) for i in range(6)]
    decision = schedule(policy, snapshot(new_datacenter(4)), pending)
    assert len(decision.assignments) == 6 and policy._workspace is None
