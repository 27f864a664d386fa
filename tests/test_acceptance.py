"""Acceptance suite: one test per criterion, each printing a PASS line.

Criteria 1-2 are directional (medians over 10 shared-seed runs); the rest
are exact or tolerance-pinned.  The learned policies are trained once per
module by `cloudsched train --seed 0`, from heuristic-teacher episodes on
the default scenario.
"""

import itertools
import statistics

import numpy as np
import pytest

from cloudsched.cli import main
from cloudsched.datacenter import (
    DEFAULT_PM_TEMPLATE,
    admit,
    migrate,
    new_datacenter,
    place,
    remove_finished,
    snapshot,
    validate,
    with_clock,
)
from cloudsched.energy import pm_power
from cloudsched.errors import CapacityError, DomainError, NotFoundError
from cloudsched.gnn.models import load_model, new_gated_model, new_gcn_model
from cloudsched.gnn.training import TrainSample
from cloudsched.scheduler import Policy, schedule
from cloudsched.sim import SimConfig, compute_qos, run
from cloudsched.workload import WorkloadRequest

from conftest import DATA, tiny_config, tiny_requests
from helpers import gradient_check, state_vms

from dataclasses import replace

SEEDS = range(10)
REL = 1e-9


@pytest.fixture(scope="module")
def trained_checkpoints(tmp_path_factory):
    """Both checkpoints as `cloudsched train --seed 0` writes them."""
    out = tmp_path_factory.mktemp("trained")
    for policy in ("counter", "hunter"):
        assert main(["train", "--policy", policy, "--seed", "0", "--out", str(out)]) == 0
    return {policy: out / f"model_{policy}.json" for policy in ("counter", "hunter")}


@pytest.fixture(scope="module")
def trained_models(trained_checkpoints):
    return {policy: load_model(path) for policy, path in trained_checkpoints.items()}


def test_trained_models_match_committed_checkpoints(trained_checkpoints):
    # `cloudsched train --seed 0` is the recipe of the committed checkpoints.
    for policy, path in trained_checkpoints.items():
        assert path.read_bytes() == (DATA / f"{policy}.json").read_bytes(), policy


@pytest.fixture(scope="module")
def policy_medians(trained_models):
    stats: dict[str, dict[str, float]] = {}
    for policy in ("first_fit", "counter", "hunter"):
        model = trained_models.get(policy)
        energy, util, active = [], [], []
        for seed in SEEDS:
            q = compute_qos(run(SimConfig(policy=policy, model=model, seed=seed)))
            energy.append(q.total_energy)
            util.append(q.max_pm_utilisation)
            active.append(q.mean_active_pm_count)
        stats[policy] = {
            "energy": statistics.median(energy),
            "max_util": statistics.median(util),
            "active": statistics.median(active),
        }
    return stats


def test_ac1_directional_energy(policy_medians):
    ff = policy_medians["first_fit"]["energy"]
    cnt = policy_medians["counter"]["energy"]
    hnt = policy_medians["hunter"]["energy"]
    reduction = (ff - cnt) / ff
    assert cnt <= hnt, f"counter {cnt:.3f} > hunter {hnt:.3f}"
    assert cnt <= ff, f"counter {cnt:.3f} > first_fit {ff:.3f}"
    assert reduction >= 0.05, f"reduction {reduction:.2%} < 5%"
    print(
        f"\nAC1 PASS: median energy counter {cnt:.2f} <= hunter {hnt:.2f} <=/vs "
        f"first_fit {ff:.2f} kWh; reduction {reduction:.1%} >= 5%"
    )


def test_ac2_directional_utilisation(policy_medians):
    cnt, hnt = policy_medians["counter"], policy_medians["hunter"]
    assert cnt["max_util"] >= hnt["max_util"]
    assert cnt["active"] <= hnt["active"]
    print(
        f"\nAC2 PASS: max util counter {cnt['max_util']:.4f} >= hunter {hnt['max_util']:.4f}; "
        f"active PMs counter {cnt['active']:.3f} <= hunter {hnt['active']:.3f}"
    )


def test_ac3_eq1_closure_and_conservation(trained_models):
    checked = 0
    for policy in ("first_fit", "counter"):
        result = run(SimConfig(policy=policy, model=trained_models.get(policy), seed=4))
        for b in result.hourly + [result.totals] + [row[3] for row in result.pm_energy_rows]:
            assert b.total == pytest.approx(b.processor + b.cooling + b.extra, rel=REL)
            assert min(b.processor, b.cooling, b.extra) >= 0.0
            checked += 1
        assert result.totals.total == pytest.approx(
            sum(b.total for b in result.hourly), rel=REL
        )
        assert result.totals.processor == pytest.approx(
            sum(b.processor for b in result.hourly), rel=REL
        )
    print(f"\nAC3 PASS: Eq-1 closure and run conservation on {checked} breakdowns (rel 1e-9)")


def test_ac4_power_model_endpoints():
    assert pm_power(0.0, True) == 100.0
    assert pm_power(1.0, True) == 200.0
    assert pm_power(0.37, False) == 0.0
    print("\nAC4 PASS: pm_power endpoints 100 W / 200 W / 0 W exact")


def _random_check_sample(rng):
    n = int(rng.integers(4, 7))
    a = (rng.random((n, n)) < 0.5).astype(float)
    a = np.triu(a, 1)
    a = a + a.T
    from cloudsched.gnn.graph import StateGraph

    graph = StateGraph(features=rng.standard_normal((n, 5)), adjacency=a)
    return TrainSample(graph=graph, pm_node=int(rng.integers(n - 1)),
                       label=float(rng.uniform(0, 0.3)))


def _relu_kink_free(model, sample, margin=1e-3) -> bool:
    """Central differences are no oracle at ReLU kinks; require a margin."""
    from cloudsched.gnn.graph import normalize_adjacency
    from cloudsched.gnn.models import GcnBuffers, gcn_layers

    a_hat, n = normalize_adjacency(sample.graph.adjacency), sample.graph.n_nodes
    _, _, zs = gcn_layers(model, a_hat, a_hat @ sample.graph.features, GcnBuffers(model, n))
    return all(np.abs(z).min() > margin for z in zs[:-1])


def test_ac5_gradient_fidelity():
    worst_gcn = worst_gated = 0.0
    checked = 0
    attempt = 0
    while checked < 20:
        rng = np.random.default_rng(1000 + attempt)
        attempt += 1
        sample = _random_check_sample(rng)
        gcn = new_gcn_model(seed=attempt, dims=(5, 8, 4))
        if not _relu_kink_free(gcn, sample):
            continue
        err_gcn = gradient_check(gcn, sample, epsilon=1e-5)
        err_gated = gradient_check(
            new_gated_model(seed=attempt, hidden=6, steps=2), sample, epsilon=1e-5
        )
        worst_gcn = max(worst_gcn, err_gcn)
        worst_gated = max(worst_gated, err_gated)
        assert err_gcn < 1e-4 and err_gated < 1e-4
        checked += 1
    print(
        f"\nAC5 PASS: 20 GCN + 20 gated instances, max relative gradient error "
        f"{max(worst_gcn, worst_gated):.2e} < 1e-4"
    )


# --- AC6: independent brute-force placement oracle --------------------------


def oracle_minimum_energy(requests, pm_count, horizon, pm_cores=32, pm_ram=16,
                          idle=100.0, peak=200.0, overhead=1.35):
    """Exhaustive search over per-VM PM choices (placed at arrival).

    Deferral is not searched: the policies only defer on infeasibility and
    this scenario keeps every VM feasible at arrival.  Energy accounting is
    re-derived here from the linear power model, independent of the
    simulator's implementation.
    """
    best = float("inf")
    for combo in itertools.product(range(pm_count), repeat=len(requests)):
        used_cores = [[0] * pm_count for _ in range(horizon)]
        used_ram = [[0] * pm_count for _ in range(horizon)]
        ok = True
        for req, pm in zip(requests, combo):
            for hour in range(req.arrival, min(req.arrival + req.duration, horizon)):
                used_cores[hour][pm] += req.cores
                used_ram[hour][pm] += req.ram
                if used_cores[hour][pm] > pm_cores or used_ram[hour][pm] > pm_ram:
                    ok = False
        if not ok:
            continue
        energy = 0.0
        for hour in range(horizon):
            for pm in range(pm_count):
                if used_cores[hour][pm]:
                    watts = idle + (peak - idle) * used_cores[hour][pm] / pm_cores
                    energy += watts / 1000.0 * overhead
        best = min(best, energy)
    return best


def test_ac6_brute_force_placement_oracle(trained_models):
    requests = tiny_requests()
    optimum = oracle_minimum_energy(requests, pm_count=2, horizon=3)
    assert optimum < float("inf")

    best_fit = run(tiny_config("best_fit_energy")).totals.total
    counter = run(
        tiny_config("counter", model=trained_models["counter"])
    ).totals.total
    assert best_fit <= optimum * 1.10, f"best_fit {best_fit:.5f} vs optimum {optimum:.5f}"
    assert counter <= optimum * 1.15, f"counter {counter:.5f} vs optimum {optimum:.5f}"
    print(
        f"\nAC6 PASS: optimum {optimum:.5f} kWh; best_fit_energy {best_fit:.5f} "
        f"(x{best_fit / optimum:.3f} <= 1.10); counter {counter:.5f} "
        f"(x{counter / optimum:.3f} <= 1.15)"
    )


def test_ac7_capacity_safety_1000_sequences():
    sequences = 0
    for seed in range(1000):
        rng = np.random.default_rng(seed)
        pm_count = int(rng.integers(1, 5))
        state = new_datacenter(pm_count, replace(DEFAULT_PM_TEMPLATE, ram=32))
        if rng.random() < 0.5:
            # raw lifecycle operations
            for step in range(int(rng.integers(2, 12))):
                kind = rng.integers(4)
                try:
                    if kind == 0:
                        r = WorkloadRequest(
                            id=f"vm-{seed}-{step}",
                            cpu_frequency=int(rng.integers(1600, 3401)),
                            cores=int(rng.integers(1, 33)),
                            ram=int(rng.integers(1, 17)),
                            duration=int(rng.integers(1, 8)),
                            arrival=state.clock,
                        )
                        state = admit(state, [r])
                        state = place(state, [(r.id, f"pm-{int(rng.integers(pm_count))}")])
                    elif kind == 1:
                        running = sorted(
                            v.id for v in state_vms(state).values() if v.placed_on is not None
                        )
                        if running:
                            vm = running[int(rng.integers(len(running)))]
                            state = migrate(state, vm, f"pm-{int(rng.integers(pm_count))}")
                    elif kind == 2:
                        state = remove_finished(state)
                    else:
                        state = with_clock(state, state.clock + 1)
                except (CapacityError, DomainError, NotFoundError):
                    pass
                validate(state)
        else:
            # scheduling sequences: schedule + replay assignments
            pending = [
                WorkloadRequest(
                    id=f"vm-{seed}-{i}",
                    cpu_frequency=int(rng.integers(1600, 3401)),
                    cores=int(rng.integers(1, 17)),
                    ram=int(rng.integers(1, 9)),
                    duration=int(rng.integers(1, 8)),
                    arrival=0,
                )
                for i in range(int(rng.integers(1, 10)))
            ]
            kind = ("first_fit", "best_fit_energy", "random")[int(rng.integers(3))]
            decision = schedule(Policy(kind, rng_seed=seed), snapshot(state), pending)
            for r in pending:
                state = admit(state, [r])
            for vm_id, pm_id in decision.assignments:
                state = place(state, [(vm_id, pm_id)])  # must never raise
                validate(state)
        sequences += 1
    assert sequences == 1000
    print("\nAC7 PASS: 1000 randomized sequences, zero capacity or placement violations")


def test_ac8_byte_identical_outputs(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out in (out_a, out_b):
        assert main(["simulate", "--seed", "11", "--out", str(out)]) == 0
    assert (out_a / "result.json").read_bytes() == (out_b / "result.json").read_bytes()

    loss_a, loss_b = tmp_path / "la", tmp_path / "lb"
    train_args = [
        "train", "--policy", "counter", "--pm-count", "2", "--vm-count", "4",
        "--horizon", "8", "--episodes", "1", "--epochs", "20", "--seed", "3",
    ]
    for out in (loss_a, loss_b):
        assert main(train_args + ["--out", str(out)]) == 0
    assert (loss_a / "loss_counter.csv").read_bytes() == (loss_b / "loss_counter.csv").read_bytes()
    assert (loss_a / "model_counter.json").read_bytes() == (loss_b / "model_counter.json").read_bytes()
    print("\nAC8 PASS: SimResult and loss-trace files byte-identical across reruns")


def test_ac9_first_fit_reference_equivalence():
    from test_scheduler import reference_first_fit

    rng = np.random.default_rng(77)
    for _ in range(100):
        pm_count = int(rng.integers(1, 6))
        state = new_datacenter(pm_count)
        snap = snapshot(state)
        pending = [
            WorkloadRequest(
                id=f"vm-{i:02d}",
                cpu_frequency=int(rng.integers(1600, 3500)),
                cores=int(rng.integers(1, 33)),
                ram=int(rng.integers(1, 18)),
                duration=int(rng.integers(1, 48)),
                arrival=int(rng.integers(0, 4)),
            )
            for i in range(int(rng.integers(0, 12)))
        ]
        decision = schedule(Policy("first_fit"), snap, pending)
        ref_assignments, ref_deferred = reference_first_fit(snap, pending)
        assert decision.assignments == ref_assignments
        assert decision.deferred == ref_deferred
    print("\nAC9 PASS: first_fit equals the independent reference on 100 random scenarios")
