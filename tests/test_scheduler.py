import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from cloudsched.datacenter import (
    admit,
    migrate,
    new_datacenter,
    place,
    snapshot,
    validate,
    with_clock,
)
from cloudsched.energy import DEFAULT_POWER_MODEL, PowerModel, pm_power
from cloudsched.errors import ConfigError
from cloudsched import scheduler
from cloudsched.gnn.graph import WorkingFeatures, build_state_graph
from cloudsched.gnn.models import load_model, new_gated_model, new_gcn_model
from cloudsched.scheduler import (
    MODEL_POLICIES,
    Policy,
    _argmin,
    collect_training_data,
    consolidate,
    incremental_energy,
    schedule,
)
from cloudsched.sim import SimConfig
from cloudsched.workload import WorkloadRequest

from helpers import (
    entry,
    scored_snapshots,
    snapshot_columns,
    snapshot_from_entries,
    state_dump,
    state_vms,
)
from slow_reference import (
    argmin_by_scan,
    best_fit_by_float_argmin,
    consolidate_by_source,
    consolidate_by_vm_objects,
    score_placements_by_pair,
)

CHECKPOINTS = {
    "counter": load_model(Path(__file__).parent / "data" / "counter.json"),
    "hunter": load_model(Path(__file__).parent / "data" / "hunter.json"),
}


def req(id="vm-0", cores=4, ram=4, freq=2000, duration=8, arrival=0):
    return WorkloadRequest(id=id, cpu_frequency=freq, cores=cores, ram=ram,
                           duration=duration, arrival=arrival)


def rows(*indices):
    return np.array(indices, dtype=int)


# Four PMs and a request of 2**63 - 1 hours, unpriced: pm-1 and pm-3 share
# the counter checkpoint's least feats[c] @ w_xp, and its network scores of
# all four round to within one ulp of each other.
HUGE_DURATION = (
    snapshot_from_entries({
        "pm-0": entry(),
        "pm-1": entry(free_cores=24, free_ram=8, powered_on=True),
        "pm-2": entry(free_cores=8, free_ram=4, powered_on=True),
        "pm-3": entry(free_cores=24, free_ram=8, powered_on=True),
    }),
    req(duration=2**63 - 1),
    None,
)


def zeroed(model):
    for _, arr in model.parameters():
        arr[...] = 0.0
    return model


def reference_first_fit(snap, pending):
    """Independent spec of first-fit: lowest PM in snapshot order that fits."""
    columns = (snap.free_cores.tolist(), snap.free_ram.tolist(), snap.max_frequency.tolist())
    free = {pm: list(row) for pm, *row in zip(snap.pm_ids, *columns)}
    assignments, deferred = [], []
    for r in sorted(pending, key=lambda r: (r.arrival, r.id)):
        for pm in free:
            fc, fr, mf = free[pm]
            if fc >= r.cores and fr >= r.ram and mf >= r.cpu_frequency:
                assignments.append((r.id, pm))
                free[pm][0] -= r.cores
                free[pm][1] -= r.ram
                break
        else:
            deferred.append(r.id)
    return assignments, deferred


class TestSchedule:
    def test_empty_pending(self):
        d = schedule(Policy("first_fit"), snapshot(new_datacenter(2)), [])
        assert d.assignments == [] and d.deferred == []

    def test_first_fit_lowest_id(self):
        d = schedule(Policy("first_fit"), snapshot(new_datacenter(8)), [req()])
        assert d.assignments == [("vm-0", "pm-0")]

    def test_one_step_can_fill_a_pm(self):
        pending = [req(id=f"vm-{i}", cores=16, ram=8) for i in range(3)]
        d = schedule(Policy("first_fit"), snapshot(new_datacenter(2)), pending)
        assert d.assignments == [("vm-0", "pm-0"), ("vm-1", "pm-0"), ("vm-2", "pm-1")]

    def test_best_fit_prefers_powered_on_pm(self):
        snap = snapshot_from_entries({
            "pm-0": entry(),  # empty, off
            "pm-1": entry(free_cores=16, free_ram=8, powered_on=True),  # half full, on
        })
        r = req(cores=4, ram=2)
        # oracle: compute both deltas directly from the power model
        off_delta = pm_power(4 / 32, True) - pm_power(0.0, False)
        on_delta = pm_power(20 / 32, True) - pm_power(16 / 32, True)
        assert on_delta < off_delta
        off_energy, on_energy = incremental_energy(snap, rows(0, 1), r, DEFAULT_POWER_MODEL)
        assert on_energy < off_energy
        assert on_energy == pytest.approx(on_delta / 1000.0 * 1.35, rel=1e-12)
        d = schedule(Policy("best_fit_energy"), snap, [r])
        assert d.assignments == [("vm-0", "pm-1")]

    def test_counter_zero_weights_matches_first_fit(self):
        snap = snapshot(new_datacenter(4))
        pending = [req(id="vm-0"), req(id="vm-1")]
        counter = Policy("counter", model=zeroed(new_gcn_model(seed=0)))
        assert schedule(counter, snap, pending).assignments == (
            schedule(Policy("first_fit"), snap, pending).assignments
        )

    def test_model_required(self):
        with pytest.raises(ConfigError):
            schedule(Policy("counter"), snapshot(new_datacenter(1)), [req()])

    def test_heuristic_scores(self):
        entries = {"pm-0": entry(), "pm-1": entry(free_cores=16, free_ram=8, powered_on=True)}
        snap = snapshot_from_entries(entries)
        r = req()
        picked, scores = Policy("first_fit").score(snap, r, rows(1), None)
        assert (picked.tolist(), scores.tolist()) == ([1], [0.0])
        # best_fit_energy returns its pick alone and unscored: the powered-on PM
        picked, energies = Policy("best_fit_energy").score(snap, r, rows(0, 1), None)
        assert (picked.tolist(), energies.tolist()) == ([1], [0.0])
        policies = [Policy("random", rng_seed=5) for _ in range(2)]
        picks = [p.score(snap, r, rows(0, 1), None)[0].tolist() for p in policies]
        assert picks[0] == picks[1] and len(picks[0]) == 1

    def test_best_fit_ties_go_to_the_first_row(self):
        snap = snapshot(new_datacenter(4))  # every PM off and empty: equal energies
        picked, _ = Policy("best_fit_energy").score(snap, req(), rows(1, 2, 3), None)
        assert picked.tolist() == [1]

    def test_best_fit_takes_the_first_powered_on_pm_on_24_cores(self):
        # Every powered-on 24-core PM's power rises by the same 100 W * 4 / 24,
        # but the float differences round apart and would pick pm-1.
        snap = snapshot_from_entries({
            "pm-0": entry(free_cores=23, cores=24, powered_on=True),
            "pm-1": entry(free_cores=21, cores=24, powered_on=True),
        })
        r = req(cores=4, ram=1)
        assert best_fit_by_float_argmin(snap, rows(0, 1), r) == 1
        picked, scores = Policy("best_fit_energy").score(snap, r, rows(0, 1), None)
        assert (picked.tolist(), scores.tolist()) == ([0], [0.0])

    @pytest.mark.parametrize("cores", [[32, 32, 32], [8, 64, 16]], ids=["same", "mixed"])
    def test_best_fit_with_peak_equal_to_idle(self, cores):
        # Hosting adds no watts to a powered-on PM, whatever its size.
        snap = snapshot_from_entries({
            "pm-0": entry(free_cores=cores[0], cores=cores[0]),
            "pm-1": entry(free_cores=cores[1] - 1, cores=cores[1], powered_on=True),
            "pm-2": entry(free_cores=cores[2] - 1, cores=cores[2], powered_on=True),
        })
        flat = Policy("best_fit_energy", power=PowerModel(idle_power=150.0, peak_power=150.0))
        assert flat.score(snap, req(cores=4, ram=1), rows(0, 1, 2), None)[0].tolist() == [1]

    def test_best_fit_on_mixed_cores_compares_exact_rises(self):
        # peak > 2 * idle: booting the 64-core pm-1 (300 W * 8 / 64 + 100 W)
        # costs less than loading the 10-core pm-0 (300 W * 8 / 10).
        snap = snapshot_from_entries({
            "pm-0": entry(free_cores=9, cores=10, powered_on=True),
            "pm-1": entry(free_cores=64, cores=64),
            "pm-2": entry(free_cores=63, cores=64, powered_on=True),
        })
        steep = PowerModel(idle_power=100.0, peak_power=400.0)
        r = req(cores=8, ram=1)
        policy = Policy("best_fit_energy", power=steep)
        assert policy.score(snap, r, rows(0, 1), None)[0].tolist() == [1]
        assert best_fit_by_float_argmin(snap, rows(0, 1), r, steep) == 1
        # the powered-on 64-core PM beats both
        assert policy.score(snap, r, rows(0, 1, 2), None)[0].tolist() == [2]

    def test_wrong_model_kind_rejected(self):
        with pytest.raises(ConfigError):
            schedule(
                Policy("counter", model=new_gated_model(seed=0)),
                snapshot(new_datacenter(1)),
                [req()],
            )

    def test_unknown_policy_kind(self):
        with pytest.raises(ConfigError):
            Policy("round_robin")

    def test_random_policy_deterministic_per_seed(self):
        snap = snapshot(new_datacenter(6))
        pending = [req(id=f"vm-{i}") for i in range(6)]
        a = schedule(Policy("random", rng_seed=5), snap, pending).assignments
        b = schedule(Policy("random", rng_seed=5), snap, pending).assignments
        assert a == b


class TestModelScores:
    def test_no_feasible_pm_deferred(self):
        snap = snapshot(new_datacenter(2))
        policy = Policy("counter", model=new_gcn_model(seed=1))
        d = schedule(policy, snap, [req(freq=3500)])
        assert d.deferred == ["vm-0"]
        assert d.assignments == [] and d.scores == {}

    def test_single_feasible_pm_chosen(self):
        snap = snapshot_from_entries({
            "pm-0": entry(free_cores=2),
            "pm-1": entry(),
        })
        policy = Policy("counter", model=new_gcn_model(seed=1))
        features = WorkingFeatures(snap, np.zeros(2))
        picked, scores = policy.score(snap, req(cores=8), rows(1), features)
        assert picked.tolist() == [1] and scores.shape == (1,)

    @pytest.mark.parametrize("kind", MODEL_POLICIES)
    def test_a_lone_candidate_is_scored_only_when_scores_are_logged(self, kind, monkeypatch):
        # Hunter's network scores it; counter's readout weights do, without the network.
        snap = snapshot_from_entries({"pm-0": entry(free_cores=2), "pm-1": entry()})
        calls = []
        score = scheduler.score_placements
        monkeypatch.setattr(
            scheduler, "score_placements", lambda *args: calls.append(args) or score(*args)
        )
        quiet = schedule(Policy(kind, model=CHECKPOINTS[kind]), snap, [req(cores=8)])
        assert (quiet.assignments, quiet.scores, calls) == ([("vm-0", "pm-1")], {}, [])
        logged = Policy(kind, model=CHECKPOINTS[kind], record_scores=True)
        d = schedule(logged, snap, [req(cores=8)])
        assert d.assignments == quiet.assignments and len(calls) == (kind == "hunter")
        assert list(d.scores["vm-0"]) == ["pm-1"] and d.scores["vm-0"]["pm-1"] != 0.0

    def test_a_policy_keeps_one_scoring_workspace(self):
        # Hunter scores every request with its network; counter never runs it.
        policy = Policy("hunter", model=CHECKPOINTS["hunter"])
        small, large = snapshot(new_datacenter(3)), snapshot(new_datacenter(5))
        schedule(policy, small, [req()])
        kept = policy._workspace
        schedule(policy, small, [req(id="vm-1")])
        assert policy._workspace is kept and kept.pm_count == 3
        schedule(policy, large, [req(id="vm-2")])  # a larger snapshot gets a larger one
        assert policy._workspace.pm_count == 5
        schedule(policy, small, [req(id="vm-3")])
        assert policy._workspace.pm_count == 5

    def test_a_huge_duration_is_placed_by_the_readout_weights(self):
        # At a duration of 2**63 - 1 every network score is near -2**51,
        # where one ulp is wider than the candidates' differences in
        # feats[c] @ w_xp, so rounding alone orders the network scores.
        # Counter places by feats[c] @ w_xp instead; pm-1 and pm-3 have one
        # feature row, and the first of them wins.
        snap, huge, _ = HUGE_DURATION
        model = CHECKPOINTS["counter"]
        features = WorkingFeatures(snap, None)
        linear = features.values[:4] @ model.readout_w[-5:, 0]
        assert linear.argmin() == 1 and linear[1] == linear[3]
        network = list(score_placements_by_pair(model, build_state_graph(snap, huge, None)).values())
        ulp = np.spacing(max(map(abs, network)))
        assert np.ptp(network) <= ulp and np.ptp(linear) < ulp
        d = schedule(Policy("counter", model=model), snap, [huge])
        assert d.assignments == [("vm-0", "pm-1")]

    def test_identical_pms_tie_to_lowest_id(self):
        snap = snapshot(new_datacenter(3))
        policy = Policy("counter", model=new_gcn_model(seed=2))
        _, scores = policy.score(snap, req(), rows(0, 1, 2), WorkingFeatures(snap, np.zeros(3)))
        values = scores.tolist()
        assert max(values) - min(values) <= 1e-9  # feature-identical PMs
        d = schedule(policy, snap, [req()])
        assert d.assignments == [("vm-0", "pm-0")]

    def test_hunter_score_runs(self):
        snap = snapshot(new_datacenter(2))
        policy = Policy("hunter", model=new_gated_model(seed=1))
        picked, scores = policy.score(snap, req(), rows(0, 1), WorkingFeatures(snap, np.zeros(2)))
        assert picked.tolist() == [0, 1] and scores.shape == (2,)

    def test_argmin_invariant_to_constant_shift(self):
        scores = np.array([0.4, 0.1, 0.2])
        assert _argmin(rows(0, 1, 2), scores) == _argmin(rows(0, 1, 2), scores + 123.0) == 1

    def test_argmin_ties_go_to_the_first_row(self):
        assert _argmin(rows(2, 4, 7), np.array([0.5, 0.1, 0.1])) == 4
        assert _argmin(rows(3, 5), np.array([0.0, -0.0])) == 3

    @pytest.mark.parametrize(
        "scores, expected",
        [
            ({2: 0.5, 4: 0.1, 7: 0.1}, 4),
            ({3: 0.0, 5: -0.0}, 3),
            ({1: 0.2}, 1),
            ({1: math.nan, 2: -1.0, 3: -math.inf}, 1),
            ({1: math.nan, 2: math.nan}, 1),
            ({0: 0.3, 1: math.nan, 2: 0.2}, 2),
            ({0: 0.1, 1: math.nan, 2: 0.2}, 0),
            ({0: math.inf, 1: math.nan, 2: math.inf}, 0),
        ],
        ids=[
            "tie", "signed-zero-tie", "one-row", "nan-first", "all-nan",
            "later-nan", "later-nan-after-min", "later-nan-among-inf",
        ],
    )
    def test_argmin_rule(self, scores, expected):
        """Ties go to the first row, a NaN in the first position wins, a later NaN never does."""
        assert argmin_by_scan(scores) == expected
        assert _argmin(np.array(list(scores)), np.array(list(scores.values()))) == expected

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(
            st.sampled_from([0.0, -0.0, 0.5, math.nan, math.inf, -math.inf]) | st.floats(),
            min_size=1,
            max_size=20,
        )
    )
    def test_argmin_matches_the_scan(self, scores):
        candidates = np.arange(len(scores)) * 3 + 1
        by_row = dict(zip(candidates.tolist(), scores))
        assert _argmin(candidates, np.array(scores)) == argmin_by_scan(by_row)

    @pytest.mark.parametrize("kind", MODEL_POLICIES)
    @settings(max_examples=100, deadline=None)
    @given(scored_snapshots())
    @example(inputs=HUGE_DURATION)
    def test_the_placed_pm_is_the_scan_minimum_of_its_logged_scores(self, kind, inputs):
        # The logged scores are the ones the pick was made by: a strict `<`
        # scan over them, in row order, names the placed PM.  That holds for
        # durations up to 2**63 - 1 too, where every network score is about
        # 2**51 and rounding ties candidates that counter's w_xp term tells
        # apart (`HUGE_DURATION`).
        snap, request, prices = inputs
        policy = Policy(kind, model=CHECKPOINTS[kind], record_scores=True)
        d = schedule(policy, snap, [request], prices)
        if d.deferred:
            assert (d.assignments, d.scores) == ([], {})
        else:
            assert d.assignments == [("vm-0", argmin_by_scan(d.scores["vm-0"]))]


class TestConsolidate:
    def state_two_light_pms(self):
        state = new_datacenter(2)
        for i, pm in enumerate(["pm-0", "pm-1"]):
            r = req(id=f"vm-{i}", cores=1, ram=1, duration=10)
            state = admit(state, [r])
            state = place(state, [(f"vm-{i}", pm)])
        return state

    def test_emptying_one_pm_is_worth_it(self):
        # idle reclaim 0.1 kWh vs one 0.01 kWh penalty
        state = self.state_two_light_pms()
        policy = Policy("counter", model=new_gcn_model(seed=1))
        plan = consolidate(policy, state)
        assert len(plan) == 1
        vm_id, dst = plan[0]
        src = state_vms(state)[vm_id].placed_on
        assert dst != src

    def test_migrations_apply_cleanly_and_power_off_one_pm(self):
        state = self.state_two_light_pms()
        policy = Policy("counter", model=new_gcn_model(seed=1))
        plan = consolidate(policy, state)
        before = int(state.resources.powered_on.sum())
        for vm_id, dst in plan:
            state = migrate(state, vm_id, dst)
        validate(state)
        assert state.resources.powered_on.sum() == before - 1

    def test_above_threshold_no_migration(self):
        state = new_datacenter(2)
        for i, pm in enumerate(["pm-0", "pm-1"]):
            r = req(id=f"vm-{i}", cores=16, ram=8, duration=10)
            state = admit(state, [r])
            state = place(state, [(f"vm-{i}", pm)])
        policy = Policy("counter", model=new_gcn_model(seed=1))
        assert consolidate(policy, state) == []

    def test_single_powered_pm_nowhere_to_go(self):
        state = new_datacenter(2)
        state = admit(state, [req(id="vm-0", cores=1, ram=1)])
        state = place(state, [("vm-0", "pm-0")])
        policy = Policy("counter", model=new_gcn_model(seed=1))
        assert consolidate(policy, state) == []

    def test_given_snapshot_is_read_not_changed(self):
        state = self.state_two_light_pms()
        policy = Policy("counter", model=new_gcn_model(seed=1))
        before = state_dump(state)  # includes the resource columns consolidate reads
        assert consolidate(policy, state) == consolidate(policy, state)
        assert state_dump(state) == before

    def test_heuristics_skip_consolidation(self):
        state = self.state_two_light_pms()
        assert consolidate(Policy("first_fit"), state) == []
        assert consolidate(Policy("best_fit_energy"), state) == []
        # an attached model does not turn consolidation on for a heuristic
        assert consolidate(Policy("first_fit", model=new_gcn_model(seed=1)), state) == []


def hosting(placements):
    """A datacenter of len(placements) PMs; PM i hosts the (cores, ram) VMs listed for it."""
    state = new_datacenter(len(placements))
    for i, vms in enumerate(placements):
        for j, (cores, ram) in enumerate(vms):
            r = req(id=f"vm-{i}-{j}", cores=cores, ram=ram, duration=10)
            state = place(admit(state, [r]), [(r.id, f"pm-{i}")])
    return state


class TestConsolidationScreen:
    """pm-0's VM fits only on pm-0 itself: pm-1 has no free core, and every
    other PM has less than its 8 GiB of RAM free."""

    @pytest.mark.parametrize("kind", MODEL_POLICIES)
    def test_no_source_passes_and_nothing_is_scored(self, kind):
        state = hosting([[(1, 8)], [(32, 1)], [(2, 9)]])
        policy = Policy(kind, model=CHECKPOINTS[kind])
        calls = []
        policy.score = lambda *args: calls.append(args)
        assert consolidate(policy, state) == consolidate_by_source(policy, state) == []
        assert calls == []

    @pytest.mark.parametrize("kind", MODEL_POLICIES)
    def test_a_smaller_vm_with_nowhere_to_go_blocks_its_source(self, kind):
        # pm-0's largest VM (4 cores) fits on pm-2, but its 8-GiB VM fits on
        # no other PM; pm-2's 9-GiB VM fits nowhere either.
        state = hosting([[(4, 1), (1, 8)], [(32, 1)], [(2, 9)]])
        policy = Policy(kind, model=CHECKPOINTS[kind])
        calls = []
        policy.score = lambda *args: calls.append(args)
        assert consolidate(policy, state) == consolidate_by_source(policy, state) == []
        assert calls == []

    @pytest.mark.parametrize("kind", MODEL_POLICIES)
    def test_a_source_larger_than_the_free_room_is_not_scored(self, kind):
        # Each of pm-0's 3-core VMs fits on pm-1, but pm-1 has only 4 cores
        # free for their 6.
        state = hosting([[(3, 1), (3, 1)], [(28, 12)]])
        policy = Policy(kind, model=CHECKPOINTS[kind])
        calls = []
        policy.score = lambda *args: calls.append(args)
        assert consolidate(policy, state) == consolidate_by_source(policy, state) == []
        assert calls == []

    @pytest.mark.parametrize("kind", MODEL_POLICIES)
    def test_the_next_source_is_still_emptied(self, kind):
        state = hosting([[(1, 8)], [(32, 1)], [(2, 2), (1, 7)], [(8, 9)]])
        policy = Policy(kind, model=CHECKPOINTS[kind])
        plan = consolidate(policy, state)
        assert plan == consolidate_by_source(policy, state)
        assert [vm for vm, _ in plan] == ["vm-2-0", "vm-2-1"]


@st.composite
def best_fit_cases(draw, core_choices):
    """`(snapshot, candidate rows, request)`: 1-12 PMs, each on exactly when it hosts cores."""
    entries = {}
    for i in range(draw(st.integers(1, 12))):
        cores = draw(st.sampled_from(core_choices))
        free_cores = draw(st.integers(0, cores))
        entries[f"pm-{i}"] = entry(
            free_cores=free_cores, cores=cores, powered_on=free_cores < cores, loc=f"loc-{i}"
        )
    snap = snapshot_from_entries(entries)
    r = req(cores=draw(st.sampled_from([1, 2, 3, 4, 5, 8, 12, 16])), ram=1)
    candidates = np.flatnonzero(snap.fits(r))
    assume(candidates.size)
    return snap, candidates, r


@settings(max_examples=200, deadline=None)
@given(best_fit_cases([32]))
def test_best_fit_rule_equals_the_float_argmin_on_32_cores(case):
    snap, candidates, r = case
    picked, _ = Policy("best_fit_energy").score(snap, r, candidates, None)
    assert picked.tolist() == [candidates[best_fit_by_float_argmin(snap, candidates, r)]]


@settings(max_examples=200, deadline=None)
@given(
    best_fit_cases([8, 10, 16, 24, 32, 48, 64]),
    st.sampled_from([(100.0, 200.0), (100.0, 400.0), (97.3, 251.7), (150.0, 150.0)]),
)
def test_best_fit_rule_equals_a_clear_float_argmin_on_mixed_cores(case, watts):
    # Where the lowest float energy beats every other by far more than its
    # rounding, the exact rule must pick the same PM.
    snap, candidates, r = case
    power = PowerModel(idle_power=watts[0], peak_power=watts[1])
    energy = incremental_energy(snap, candidates, r, power)
    best = best_fit_by_float_argmin(snap, candidates, r, power)
    assume(np.all(np.delete(energy, best) - energy[best] > 1e-9 * energy[best]))
    picked, _ = Policy("best_fit_energy", power=power).score(snap, r, candidates, None)
    assert picked.tolist() == [candidates[best]]


@st.composite
def datacenter_states(draw):
    """1-10 PMs hosting up to 24 VMs, each placed where it fits, at a drawn hour.

    Some VMs are left pending, as a deferred request is.
    """
    state = new_datacenter(draw(st.integers(1, 10)))
    for i in range(draw(st.integers(0, 24))):
        r = req(
            id=f"vm-{i:02d}",
            cores=draw(st.sampled_from([1, 2, 4, 8, 16])),
            ram=draw(st.integers(1, 8)),
            freq=draw(st.integers(1600, 3400)),
            duration=draw(st.integers(1, 48) | st.just(2**63 - 1)),  # or past LAST_HOUR
        )
        fits = np.flatnonzero(state.resources.fits(r)).tolist()
        if fits:
            state = with_clock(state, draw(st.integers(0, 12)))
            state = admit(state, [r])
            if draw(st.integers(0, 5)):
                state = place(state, [(r.id, f"pm-{draw(st.sampled_from(fits))}")])
    return with_clock(state, draw(st.integers(0, 60)))


@pytest.mark.parametrize("kind", MODEL_POLICIES)
@settings(max_examples=60, deadline=None)
@given(datacenter_states(), st.booleans(), st.sampled_from([0.25, 0.5, 1.0]))
def test_consolidate_matches_per_source_loop(kind, state, priced, threshold):
    policy = Policy(kind, model=CHECKPOINTS[kind])
    prices = None
    if priced:
        prices = 0.01 * np.arange(1, len(state.pms) + 1)
    fast = consolidate(policy, state, prices, threshold)
    assert fast == consolidate_by_source(policy, state, prices, threshold)
    assert fast == consolidate_by_vm_objects(policy, state, prices, threshold)


@pytest.mark.parametrize("kind", MODEL_POLICIES)
@settings(max_examples=40, deadline=None)
@given(datacenter_states(), st.sampled_from([0.25, 0.5, 1.0]))
def test_consolidate_scores_what_the_vm_object_screen_scores(kind, state, threshold):
    # The column screen skips the same sources, so the same requests are scored.
    def scored(plan_with):
        policy = Policy(kind, model=CHECKPOINTS[kind])
        score, calls = policy.score, []

        def recording(working, request, candidates, features):
            calls.append((request, len(working), candidates.tolist()))
            return score(working, request, candidates, features)

        policy.score = recording
        return plan_with(policy, state, None, threshold), calls

    assert scored(consolidate) == scored(consolidate_by_vm_objects)


class TestCollectTrainingData:
    def scenario(self):
        return SimConfig(pm_count=4, vm_count=8, horizon=12, seed=0)

    def test_sample_per_placement(self):
        samples = collect_training_data(self.scenario(), episodes=1, seed=0)
        assert 1 <= len(samples) <= 8

    def test_labels_non_negative(self):
        samples = collect_training_data(self.scenario(), episodes=2, seed=0)
        assert all(s.label >= 0 for s in samples)

    def test_deterministic(self):
        a = collect_training_data(self.scenario(), episodes=2, seed=3)
        b = collect_training_data(self.scenario(), episodes=2, seed=3)
        assert len(a) == len(b)
        for s, t in zip(a, b):
            assert s.label == t.label
            assert s.vm_node == t.vm_node and s.pm_node == t.pm_node
            np.testing.assert_array_equal(s.graph.features, t.graph.features)
            np.testing.assert_array_equal(s.graph.adjacency, t.graph.adjacency)

    def test_sample_graphs_do_not_follow_the_working_copy(self):
        samples = []
        pending = [req(id=f"vm-{i}", cores=16, ram=8) for i in range(3)]
        snap = snapshot(new_datacenter(2))
        d = schedule(Policy("first_fit"), snap, pending, recorder=samples.append)
        assert [(s.vm_node, s.pm_node) for s in samples] == [(2, 0), (2, 0), (2, 1)]
        # the first sample still shows both PMs empty after all three placements
        assert samples[0].graph.features[:2, 0].tolist() == [1.0, 1.0]
        assert samples[1].graph.features[:2, 0].tolist() == [0.5, 1.0]
        assert samples[2].graph.features[:2, 0].tolist() == [0.0, 1.0]
        assert len(d.assignments) == 3


# -- Properties over random scenarios ---------------------------------------

pending_strategy = st.lists(
    st.tuples(
        st.integers(min_value=1, max_value=16),  # cores
        st.integers(min_value=1, max_value=16),  # ram
        st.integers(min_value=1600, max_value=3600),  # freq (may exceed PM max)
        st.integers(min_value=0, max_value=5),  # arrival
    ),
    max_size=12,
)

snapshot_strategy = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=32),  # free cores
        st.integers(min_value=0, max_value=16),  # free ram
        st.booleans(),
    ),
    min_size=1,
    max_size=5,
)


def build_entries(entries):
    return {
        f"pm-{i}": entry(free_cores=fc, free_ram=fr, powered_on=on)
        for i, (fc, fr, on) in enumerate(entries)
    }


def build_pending(rows):
    return [
        req(id=f"vm-{i:02d}", cores=c, ram=m, freq=f, arrival=a)
        for i, (c, m, f, a) in enumerate(rows)
    ]


@settings(max_examples=60, deadline=None)
@given(snapshot_strategy, pending_strategy)
def test_first_fit_matches_reference(entries, rows):
    snap = snapshot_from_entries(build_entries(entries))
    pending = build_pending(rows)
    d = schedule(Policy("first_fit"), snap, pending)
    ref_assignments, ref_deferred = reference_first_fit(snap, pending)
    assert d.assignments == ref_assignments
    assert d.deferred == ref_deferred


@settings(max_examples=40, deadline=None)
@given(snapshot_strategy, pending_strategy, st.sampled_from(["first_fit", "best_fit_energy", "random", "counter"]))
def test_policy_totality_and_sequential_feasibility(entries, rows, kind):
    pms = build_entries(entries)
    snap = snapshot_from_entries(pms)
    pending = build_pending(rows)
    model = new_gcn_model(seed=1) if kind == "counter" else None
    d = schedule(Policy(kind, model=model, rng_seed=7), snap, pending)
    # scheduling works on a copy
    assert snapshot_columns(snap) == snapshot_columns(snapshot_from_entries(pms))

    placed = {vm for vm, _ in d.assignments}
    deferred = set(d.deferred)
    assert placed | deferred == {r.id for r in pending}
    assert placed & deferred == set()

    # replaying assignments in order never exceeds capacity
    free = {pm: [e["free_cores"], e["free_ram"]] for pm, e in pms.items()}
    by_id = {r.id: r for r in pending}
    for vm, pm in d.assignments:
        r = by_id[vm]
        free[pm][0] -= r.cores
        free[pm][1] -= r.ram
        assert free[pm][0] >= 0 and free[pm][1] >= 0
        assert pms[pm]["max_frequency"] >= r.cpu_frequency
