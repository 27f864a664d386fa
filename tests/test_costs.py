"""Deterministic cost guards: calls and bytes counted, not timed, so the bounds are exact."""

import json
import sys
import tracemalloc
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from cloudsched import cells, scheduler, sim
from cloudsched.datacenter import PhysicalMachine, new_datacenter, snapshot
from cloudsched.gnn import models
from cloudsched.gnn.graph import WorkingFeatures
from cloudsched.gnn.models import ScoringWorkspace, load_model, score_placements
from cloudsched.sim import SimConfig, compute_qos, run
from cloudsched.workload import WorkloadRequest

DATA = Path(__file__).parent / "data"
CHECKPOINTS = {name: load_model(DATA / f"{name}.json") for name in ("counter", "hunter")}
COUNTER = CHECKPOINTS["counter"]
SCENARIO = SimConfig(pm_count=8, vm_count=60, policy="counter", model=COUNTER, seed=1)


def network_calls(monkeypatch) -> Counter:
    """Count the calls of `gcn_layers` and of the scheduler's `score_placements`."""
    calls = Counter()
    for module, name in [(models, "gcn_layers"), (scheduler, "score_placements")]:

        def counted(*args, name=name, function=getattr(module, name)):
            calls[name] += 1
            return function(*args)

        monkeypatch.setattr(module, name, counted)
    return calls


def test_counter_runs_no_network_unless_scores_are_logged(monkeypatch):
    # Counter decides by feats[c] @ w_xp: it places and moves without a
    # GCN layer or a `score_placements` call.
    calls = network_calls(monkeypatch)
    result = run(SCENARIO)
    assert result.placed > 0 and result.migration_count > 0
    assert calls == {}


def test_logged_scores_run_the_network_once_per_placed_request(monkeypatch):
    # Every placed request's scores are logged, a lone candidate's too;
    # consolidation moves are decided, and never logged.  The logged scores
    # are the readout scores counter ranked by, so logging runs no GCN
    # layer and no `score_placements` either.
    calls = network_calls(monkeypatch)
    result = run(replace(SCENARIO, log_scores=True))
    scored = [len(pms) for e in result.events for pms in e.get("scores", {}).values()]
    assert len(scored) == result.placed and result.migration_count > 0
    assert sum(n >= 2 for n in scored) > 0 and min(scored) >= 1
    assert calls == {}


def test_counter_builds_no_scoring_workspace(monkeypatch):
    policy = scheduler.Policy("counter", model=COUNTER)
    pending = [WorkloadRequest(f"vm-{i}", 2000, 4, 4, 8, 0) for i in range(6)]
    decision = scheduler.schedule(policy, snapshot(new_datacenter(4)), pending)
    assert len(decision.assignments) == 6 and policy._workspace is None
    # Logged runs build none either.
    policies, load_policy = [], sim._load_policy

    def kept_policy(config):
        policies.append(load_policy(config))
        return policies[-1]

    monkeypatch.setattr(sim, "_load_policy", kept_policy)
    result = run(replace(SCENARIO, log_scores=True))
    assert result.placed > 0 and [p._workspace for p in policies] == [None]


@pytest.mark.parametrize("pms", [64, 256], ids=lambda pms: f"hunter-{pms}")
def test_one_score_allocates_pms_times_hidden(pms):
    # The peak of one hunter score, in a kept workspace whose views its
    # first score makes, is bounded by 3 (PMs + 1) x hidden floats; one
    # stray (PMs + 1)**2 float array (33.8 kB at 64 PMs, 528 kB at 256)
    # passes it.
    model, request = CHECKPOINTS["hunter"], WorkloadRequest("vm-0", 2000, 4, 8, 24, 0)
    snap = snapshot(new_datacenter(pms))
    feats = WorkingFeatures(snap, None).for_request(request)
    candidates = np.flatnonzero(snap.fits(request))
    assert len(candidates) == pms
    workspace = ScoringWorkspace(model, pms)
    score_placements(model, feats, candidates, workspace)
    tracemalloc.start()
    try:
        score_placements(model, feats, candidates, workspace)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * (pms + 1) * model.hidden * 8


@pytest.fixture(scope="module")
def first_fit_128():
    return run(SimConfig(pm_count=128, vm_count=1024, horizon=120, seed=0))


@pytest.mark.parametrize("writer", [sim.result_to_json, sim.energy_report_csv])
def test_writer_peak_is_three_outputs(first_fit_128, writer):
    # A writer holds its blocks, then joins them into the output: about 2.7-2.8
    # outputs at its peak.  One more whole copy of the output fails the bound.
    writer(first_fit_128)  # one-time imports and caches
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        text = writer(first_fit_128)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert text.isascii() and peak <= 3 * len(text)


def test_json_writes_every_price_without_the_fallback(first_fit_128, monkeypatch):
    # A cell is formatted by `float.__repr__` only in `_repr_texts`:
    # `_repr_table`'s fallback, which none of the 15,360 prices or the 600
    # `hourly_energy` cells reaches, and the writer of the few dozen
    # distinct utilisation values.
    formatted, fallback = [], cells._repr_texts

    def counted(floats):
        formatted.extend(floats)
        return fallback(floats)

    monkeypatch.setattr(cells, "_repr_texts", counted)
    monkeypatch.setattr(sim, "_repr_texts", counted)
    sim.result_to_json(first_fit_128)
    price, utilisation = first_fit_128.pm_billing.price, first_fit_128.utilisation
    hourly = np.array(first_fit_128.hourly)
    assert price.size == 15360 and not np.isin(price, formatted).any()
    assert hourly.size == 600 and not np.isin(hourly, formatted).any()
    assert 0 < len(formatted) <= len(np.unique(utilisation)) < 40
    assert set(formatted) <= set(utilisation.ravel().tolist())


@pytest.fixture(scope="module")
def logged_counter():
    return run(replace(SCENARIO, log_scores=True))


@pytest.mark.parametrize("name", ["first_fit_128", "logged_counter"])
def test_json_writers_run_no_pure_python_encoder(request, monkeypatch, name):
    # `json` builds its pure-Python encoder for each indented dump: a writer
    # that hands a block to `json.dumps(..., indent=2)` fails here.
    result = request.getfixturevalue(name)
    calls, make_iterencode = [], json.encoder._make_iterencode

    def counted(*args, **kwargs):
        calls.append(args)
        return make_iterencode(*args, **kwargs)

    monkeypatch.setattr(json.encoder, "_make_iterencode", counted)
    json.dumps([1], indent=2)
    assert len(calls) == 1  # the counter sees an indented dump
    calls.clear()
    sim.result_to_json(result)
    sim.qos_to_json(compute_qos(result))
    sim.decision_log_jsonl(result)
    assert len(calls) == 0
    assert any("scores" in event for event in result.events) == (name == "logged_counter")


def profiled(call) -> Counter:
    """`sys.setprofile`'s events in one `call()`, by kind, and the `PhysicalMachine`s it built."""
    counts, pm_check = Counter(), PhysicalMachine.__post_init__.__code__

    def profile(frame, event, arg):
        counts[event] += 1
        counts["pms"] += event == "call" and frame.f_code is pm_check

    sys.setprofile(profile)
    try:
        call()
    finally:
        sys.setprofile(None)
    return counts


def test_run_calls_grow_with_the_requests_not_with_pm_pairs():
    # 4x the PMs and the requests from 32 to 128 PMs: an O(PM**2) step in the
    # hour loop would show as 16x the calls, a per-PM step per request too.
    configs = [SimConfig(pm_count=n, vm_count=8 * n, horizon=24, seed=0) for n in (32, 128)]
    run(configs[0])  # one-time imports and caches
    small, large = (profiled(lambda: run(config)) for config in configs)
    assert large["call"] <= 4.5 * small["call"]
    assert large["c_call"] <= 4.5 * small["c_call"]
    assert large["pms"] == 0


def test_a_state_builds_pm_records_only_when_asked():
    assert profiled(lambda: new_datacenter(128))["pms"] == 0
    state = new_datacenter(128)
    assert profiled(lambda: state.pms)["pms"] == 128
    assert profiled(lambda: state.pms)["pms"] == 0  # kept for the state's life
    assert state.pms[5] == PhysicalMachine("pm-5", "loc-5", 32, 3400, 16)
