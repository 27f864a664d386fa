import numpy as np
import pytest
from collections import Counter
from dataclasses import replace
from hypothesis import given, settings, strategies as st

from cloudsched import datacenter, sim
from cloudsched.datacenter import (
    DEFAULT_PM_TEMPLATE,
    LAST_HOUR,
    ResourceSnapshot,
    RunningVms,
    admit,
    migrate,
    new_datacenter,
    place,
    remove_finished,
    snapshot,
    validate,
    with_clock,
)
from cloudsched.errors import CapacityError, DomainError, NotFoundError
from cloudsched.workload import WorkloadRequest

from helpers import (
    entry,
    powered_on,
    snapshot_columns,
    snapshot_from_entries,
    state_columns,
    state_dump,
    state_vms,
)
from slow_reference import place_one_by_one, remove_finished_by_scan, snapshot_by_pm_scan

BIG_RAM = replace(DEFAULT_PM_TEMPLATE, ram=64)


def req(id="vm-x", cores=4, ram=8, freq=2000, duration=2, arrival=0):
    return WorkloadRequest(
        id=id, cpu_frequency=freq, cores=cores, ram=ram, duration=duration, arrival=arrival
    )


class TestNewDatacenter:
    def test_table_defaults(self):
        state = new_datacenter(8)
        assert len(state.pms) == 8
        assert all(pm.cores == 32 for pm in state.pms)
        assert [pm.id for pm in state.pms] == [f"pm-{i}" for i in range(8)]
        assert len({pm.location for pm in state.pms}) == 8
        assert powered_on(state) == set()
        assert state.clock == 0

    def test_single_pm(self):
        state = new_datacenter(1)
        assert len(state.pms) == 1

    def test_zero_rejected(self):
        with pytest.raises(DomainError):
            new_datacenter(0)

    def test_fresh_snapshot_all_idle(self):
        snap = snapshot(new_datacenter(3))
        assert not snap.utilisation.any() and not snap.powered_on.any()
        validate(new_datacenter(3))


class TestFeasible:
    def fits(self, request, free_cores=32, free_ram=64):
        """ResourceSnapshot.fits on a one-PM snapshot (32 cores, 64 GiB, 3400 MHz)."""
        pm = entry(free_cores=free_cores, free_ram=free_ram, ram=64)
        mask = snapshot_from_entries({"pm-0": pm}).fits(request)
        assert mask.dtype == bool and mask.shape == (1,)
        return bool(mask[0])

    def test_all_margins_positive(self):
        assert self.fits(req(cores=4, ram=8, freq=2000))

    def test_frequency_over_table_max(self):
        assert not self.fits(req(cores=1, ram=1, freq=3500))

    def test_boundary_inclusive(self):
        assert self.fits(req(cores=4, ram=8, freq=3400), free_cores=4, free_ram=8)


class TestPlace:
    def test_exact_core_fill(self):
        state = new_datacenter(1, BIG_RAM)
        for i in range(32):
            state = admit(state, [req(id=f"vm-{i:02d}", cores=1, ram=1)])
            state = place(state, [(f"vm-{i:02d}", "pm-0")])
        assert snapshot(state).utilisation[0] == 1.0
        validate(state)

    def test_pigeonhole_33rd(self):
        state = new_datacenter(1, BIG_RAM)
        for i in range(32):
            state = admit(state, [req(id=f"vm-{i:02d}", cores=1, ram=1)])
            state = place(state, [(f"vm-{i:02d}", "pm-0")])
        state = admit(state, [req(id="vm-32", cores=1, ram=1)])
        with pytest.raises(CapacityError) as err:
            place(state, [("vm-32", "pm-0")])
        assert err.value.resource == "cores"

    def test_boot_on_demand(self):
        state = admit(new_datacenter(2), [req()])
        assert "pm-1" not in powered_on(state)
        state = place(state, [("vm-x", "pm-1")])
        assert "pm-1" in powered_on(state)

    def test_unknown_ids(self):
        state = new_datacenter(1)
        with pytest.raises(NotFoundError):
            place(state, [("vm-ghost", "pm-0")])
        state = admit(state, [req()])
        with pytest.raises(NotFoundError):
            place(state, [("vm-x", "pm-9")])

    def test_row_index_built_once_and_shared(self):
        state = new_datacenter(3)
        assert state.rows == {"pm-0": 0, "pm-1": 1, "pm-2": 2}
        placed = place(admit(state, [req(duration=1)]), [("vm-x", "pm-2")])
        moved = migrate(placed, "vm-x", "pm-1")
        finished = remove_finished(with_clock(moved, 1))
        assert all(s.rows is state.rows for s in (placed, moved, finished))
        assert [state.row(f"pm-{i}") for i in range(3)] == [0, 1, 2]
        with pytest.raises(NotFoundError, match="pm-3"):
            state.row("pm-3")

    def test_start_hour_set_once(self):
        state = admit(with_clock(new_datacenter(2), 4), [req(duration=10)])
        state = place(state, [("vm-x", "pm-0")])
        assert state_vms(state)["vm-x"].start_hour == 4
        with pytest.raises(DomainError):  # a running VM is never placed again
            place(with_clock(state, 7), [("vm-x", "pm-1")])
        assert state_vms(state)["vm-x"].start_hour == 4


def _batch_base():
    """pm-0 runs vm-run (4 cores); vm-big (32 cores) and vm-0..vm-2 are pending."""
    pending = [req(id="vm-big", cores=32, ram=8)] + [
        req(id=f"vm-{i}", cores=1, ram=1) for i in range(3)
    ]
    state = admit(new_datacenter(2, BIG_RAM), [req(id="vm-run")] + pending)
    return place(state, [("vm-run", "pm-0")])


# fault -> (operation, bad item, error, message when it is item k of the batch)
BATCH_FAULTS = {
    "duplicate-id": (
        admit, req(id="vm-run"), DomainError, lambda k: "VM id 'vm-run' already admitted"
    ),
    "unknown-vm": (place, ("vm-ghost", "pm-0"), NotFoundError, lambda k: "unknown VM 'vm-ghost'"),
    "already-placed": (
        place,
        ("vm-run", "pm-1"),
        DomainError,
        lambda k: "VM 'vm-run' already runs on pm-0, cannot place",
    ),
    # the earlier items of the batch have taken one core each
    "no-capacity": (
        place,
        ("vm-big", "pm-0"),
        CapacityError,
        lambda k: f"pm-0: 32 cores requested, {28 - k} free",
    ),
}


@pytest.mark.parametrize("k", [0, 1, 2])
@pytest.mark.parametrize("fault", list(BATCH_FAULTS))
def test_batch_fails_at_its_first_bad_item_and_changes_nothing(fault, k):
    op, bad, error, message = BATCH_FAULTS[fault]
    if op is admit:
        good = [req(id=f"vm-new-{i}", cores=1, ram=1) for i in range(2)]
    else:
        good = [(f"vm-{i}", "pm-0") for i in range(2)]
    batch = good[:k] + [bad] + good[k:]
    state = _batch_base()
    before = state_dump(state)
    with pytest.raises(error) as batched:
        op(state, batch)
    assert str(batched.value) == message(k)
    assert state_dump(state) == before
    # the same error as applying the items one at a time
    with pytest.raises(error) as one_by_one:
        partial = state
        for item in batch:
            partial = op(partial, [item])
    assert str(one_by_one.value) == message(k)


def test_batch_checks_items_against_the_earlier_ones():
    state = _batch_base()
    with pytest.raises(DomainError, match="VM id 'vm-new' already admitted"):
        admit(state, [req(id="vm-new"), req(id="vm-new")])
    with pytest.raises(DomainError, match="VM id 'vm-1' already admitted"):  # pending
        admit(state, [req(id="vm-new"), req(id="vm-1"), req(id="vm-run")])
    with pytest.raises(DomainError, match="VM 'vm-0' already runs on pm-0, cannot place"):
        place(state, [("vm-0", "pm-0"), ("vm-0", "pm-1")])
    assert state_dump(state) == state_dump(_batch_base())


def test_an_hour_copies_the_state_once_for_its_batches(monkeypatch):
    # Each batch builds one new state, whatever its size: admit one pending
    # mapping; place one pending mapping, one set of VM columns and one of
    # resource columns.
    built = Counter()

    def counting(name, cls):
        def build(*args, **kwargs):
            built[name] += 1
            return cls(*args, **kwargs)

        monkeypatch.setattr(datacenter, cls.__name__, build, raising=False)

    counting("state", datacenter.DatacenterState)
    counting("vms", datacenter.RunningVms)
    counting("columns", ResourceSnapshot)
    counting("pending", dict)
    calls = []

    def counted(op):
        def call(state, batch):
            built.clear()
            new_state = op(state, batch)
            calls.append((op.__name__, len(batch), dict(built)))
            return new_state

        return call

    monkeypatch.setattr(sim, "admit", counted(admit))
    monkeypatch.setattr(sim, "place", counted(place))
    horizon = 6
    sim.run(sim.SimConfig(pm_count=4, vm_count=40, horizon=horizon, seed=3))

    for name, made_once in (
        ("admit", {"state": 1, "pending": 1}),
        ("place", {"state": 1, "pending": 1, "vms": 1, "columns": 1}),
    ):
        batches = [(size, made) for op, size, made in calls if op == name]
        assert len(batches) == horizon  # one call per hour
        assert max(size for size, _ in batches) > 1
        assert all(made == (made_once if size else {}) for size, made in batches)


class TestRemoveFinished:
    def test_duration_elapsed_powers_off(self):
        state = admit(new_datacenter(1), [req(duration=1)])
        state = place(state, [("vm-x", "pm-0")])
        state = remove_finished(with_clock(state, 1))
        assert state_vms(state) == {}
        assert powered_on(state) == set()
        validate(state)

    def test_only_elapsed_vms_leave(self):
        state = admit(new_datacenter(2), [req(duration=1), req(id="vm-y", duration=3)])
        state = place(state, [("vm-x", "pm-0"), ("vm-y", "pm-1")])
        state = admit(state, [req(id="vm-z")])  # pending: never finishes
        state = remove_finished(with_clock(state, 2))
        assert list(state_vms(state)) == ["vm-y", "vm-z"]
        assert powered_on(state) == {"pm-1"}
        validate(state)

    def test_48h_still_running_at_47(self):
        state = admit(new_datacenter(1), [req(duration=48)])
        state = place(state, [("vm-x", "pm-0")])
        after = remove_finished(with_clock(state, 47))
        assert state_vms(after)["vm-x"] == state_vms(state)["vm-x"]
        assert state_vms(after)["vm-x"].placed_on == "pm-0"

    def test_empty_state_identity(self):
        state = new_datacenter(2)
        assert remove_finished(state) is state


class TestMigrate:
    def two_pm_one_vm(self):
        state = admit(new_datacenter(2), [req()])
        return place(state, [("vm-x", "pm-0")])

    def test_consolidation_base_case(self):
        state = migrate(self.two_pm_one_vm(), "vm-x", "pm-1")
        assert powered_on(state) == {"pm-1"}
        assert state_vms(state)["vm-x"].placed_on == "pm-1"

    def test_full_destination_atomic(self):
        state = new_datacenter(2, BIG_RAM)
        state = admit(state, [req(id="vm-big", cores=32, ram=32)])
        state = place(state, [("vm-big", "pm-1")])
        state = admit(state, [req(id="vm-x", cores=4, ram=4)])
        state = place(state, [("vm-x", "pm-0")])
        before = state_dump(state)
        with pytest.raises(CapacityError):
            migrate(state, "vm-x", "pm-1")
        assert state_dump(state) == before

    def test_unknown_destination_changes_nothing(self):
        state = self.two_pm_one_vm()
        before = state_dump(state)
        with pytest.raises(NotFoundError):
            migrate(state, "vm-x", "pm-9")
        assert state_dump(state) == before

    def test_noop_rejected(self):
        with pytest.raises(DomainError):
            migrate(self.two_pm_one_vm(), "vm-x", "pm-0")

    def test_pending_vm_rejected(self):
        state = admit(new_datacenter(2), [req()])
        with pytest.raises(DomainError, match="pending"):
            migrate(state, "vm-x", "pm-1")


class TestSnapshot:
    def test_fresh_8pm(self):
        snap = snapshot(new_datacenter(8))
        assert len(snap) == 8
        assert snap.pm_ids == tuple(f"pm-{i}" for i in range(8))
        assert (snap.free_cores == 32).all()

    def test_half_utilisation(self):
        state = admit(new_datacenter(2), [req(cores=16, ram=8)])
        state = place(state, [("vm-x", "pm-0")])
        assert snapshot(state).utilisation.tolist() == [0.5, 0.0]

    def test_purity(self):
        state = admit(new_datacenter(2), [req()])
        state = place(state, [("vm-x", "pm-0")])
        assert snapshot_columns(snapshot(state)) == snapshot_columns(snapshot(state))

    def test_working_copy_place_matches_fresh_snapshot(self):
        state = admit(new_datacenter(3), [req(), req(id="vm-y", cores=6, ram=2)])
        state = place(state, [("vm-x", "pm-1")])
        snap = snapshot(state)
        working = snap.copy()
        working.place(1, req(id="vm-y", cores=6, ram=2))
        # the copy shares no column with the snapshot
        assert snapshot_columns(snap) == snapshot_columns(snapshot(state))
        placed = place(state, [("vm-y", "pm-1")])
        assert snapshot_columns(working) == snapshot_columns(snapshot(placed))

    def test_take_selects_rows_in_order(self):
        state = place(admit(new_datacenter(3), [req()]), [("vm-x", "pm-2")])
        snap = snapshot(state)
        sub = snap.take(np.array([2, 0]))
        assert sub.pm_ids == ("pm-2", "pm-0") and sub.locations == ("loc-2", "loc-0")
        assert sub.free_cores.tolist() == [28, 32] and sub.powered_on.tolist() == [True, False]
        sub.place(1, req())
        assert snapshot_columns(snap) == snapshot_columns(snapshot(state))


def test_state_dump_stable():
    state = admit(new_datacenter(2), [req()])
    state = place(state, [("vm-x", "pm-0")])
    dump = state_dump(state)
    assert list(dump) == ["clock", "pms", "vms", "resources"]
    assert [vm["placed_on"] for vm in dump["vms"]] == ["pm-0"]
    assert dump["resources"]["free_cores"][1] == [28, 32]
    assert dump["resources"]["powered_on"][1] == [True, False]


class TestValidate:
    def one_vm_state(self):
        return place(admit(new_datacenter(2), [req(cores=4, ram=8)]), [("vm-x", "pm-0")])

    def with_column(self, state, name, row, value):
        """The state with one resource cell overwritten, its input untouched."""
        resources = state.resources.copy()
        getattr(resources, name)[row] = value
        return replace(state, resources=resources)

    @pytest.mark.parametrize("name,value", [("free_cores", 29), ("free_ram", 16)])
    def test_free_column_out_of_step_with_running_vms(self, name, value):
        state = self.one_vm_state()
        validate(state)
        with pytest.raises(DomainError, match=name):
            validate(self.with_column(state, name, 0, value))

    def test_row_index_out_of_step_with_pms(self):
        state = self.one_vm_state()
        with pytest.raises(DomainError, match="row index"):
            validate(replace(state, rows={"pm-0": 1, "pm-1": 0}))
        with pytest.raises(DomainError, match="row index"):
            validate(replace(state, rows={"pm-0": 0}))

    def with_vm_column(self, state, name, row, value):
        """The state with one running VM's cell overwritten, its input untouched."""
        running = state.running
        if name in ("ids", "requests"):
            column = list(getattr(running, name))
            column[row] = value
            return replace(state, running=replace(running, **{name: tuple(column)}))
        running = replace(running, values=running.values.copy())
        getattr(running, name)[row] = value
        return replace(state, running=running)

    # A running VM with no host row, or with no start hour.
    @pytest.mark.parametrize("field,value", [("start_hour", None), ("placed_on", None)])
    def test_placement_out_of_step_with_start_hour(self, field, value):
        state = self.one_vm_state()
        column = {"start_hour": "start", "placed_on": "host"}[field]
        with pytest.raises(DomainError, match=f"vm-x: {column} (row|hour) out of range"):
            validate(self.with_vm_column(state, column, 0, -1))

    @pytest.mark.parametrize(
        "column,value,message",
        [
            ("host", 2, "host row out of range"),
            ("host", -2, "host row out of range"),
            ("start", 3, "finish hour out of step with start [+] duration"),
            ("finish", 7, "finish hour out of step with start [+] duration"),
            ("finish", LAST_HOUR, "finish hour out of step with start [+] duration"),
            ("cores", 5, "cores out of step with its request"),
            ("ram", 9, "ram out of step with its request"),
            ("frequency", 2100, "frequency out of step with its request"),
            ("ids", "vm-y", "ids out of step with its request"),
        ],
    )
    def test_vm_column_out_of_step(self, column, value, message):
        state = self.one_vm_state()
        validate(state)
        with pytest.raises(DomainError, match=message):
            validate(self.with_vm_column(state, column, 0, value))

    def test_pending_request_under_another_id(self):
        state = admit(self.one_vm_state(), [req(id="vm-y")])
        validate(state)
        with pytest.raises(DomainError, match="vm-y: pending id out of step with its request"):
            validate(replace(state, pending={"vm-y": req(id="vm-z")}))

    def test_vm_id_listed_twice(self):
        state = self.one_vm_state()  # vm-x runs
        with pytest.raises(DomainError, match="vm-x: VM id listed twice"):
            validate(replace(state, pending={"vm-x": req()}))
        twice = RunningVms(np.repeat(state.running.values, 2, axis=0), ("vm-x",) * 2, (req(),) * 2)
        with pytest.raises(DomainError, match="vm-x: VM id listed twice"):
            validate(replace(state, running=twice))

    def test_vm_columns_of_unequal_length(self):
        state = self.one_vm_state()
        running = replace(state.running, requests=state.running.requests[:0])
        with pytest.raises(DomainError, match="unequal length"):
            validate(replace(state, running=running))

    @pytest.mark.parametrize("row,value", [(0, False), (1, True)])
    def test_power_column_out_of_step_with_hosting(self, row, value):
        state = self.one_vm_state()
        with pytest.raises(DomainError, match="power status"):
            validate(self.with_column(state, "powered_on", row, value))


# Random operation sequences: capacity safety, placement-map consistency,
# power discipline, and atomicity must survive anything.

op_strategy = st.lists(
    st.tuples(
        st.sampled_from(["admit_place", "migrate", "finish", "tick"]),
        st.integers(min_value=0, max_value=7),
        st.integers(min_value=1, max_value=32),
        st.integers(min_value=1, max_value=24),
    ),
    max_size=40,
)


@settings(max_examples=60, deadline=None)
@given(op_strategy, st.integers(min_value=1, max_value=4))
def test_random_operations_keep_invariants(ops, pm_count):
    state = new_datacenter(pm_count, BIG_RAM)
    counter = 0
    for kind, pm_idx, cores, duration in ops:
        pm_id = f"pm-{pm_idx % pm_count}"
        if kind == "admit_place":
            r = req(id=f"vm-{counter:03d}", cores=cores, ram=max(1, cores // 2),
                    duration=duration, arrival=state.clock)
            counter += 1
            state = admit(state, [r])
        before = state_dump(state)
        given = state
        try:
            if kind == "admit_place":
                state = place(state, [(r.id, pm_id)])
            elif kind == "migrate":
                running = [v.id for v in state_vms(state).values() if v.placed_on is not None]
                if running:
                    state = migrate(state, running[0], pm_id)
            elif kind == "finish":
                state = remove_finished(state)
            elif kind == "tick":
                state = with_clock(state, state.clock + 1)
        except (CapacityError, DomainError, NotFoundError):
            assert state_dump(state) == before  # failed ops change nothing
        else:
            assert state_dump(given) == before  # nor do successful ops change their input
        validate(state)
        assert snapshot_columns(snapshot(state)) == snapshot_columns(snapshot_by_pm_scan(state))


# The columnar operations against the per-VM loops they replace, on states
# built by random operation sequences, with their columns compared bit for bit.


@st.composite
def live_states(draw):
    """1-4 PMs and up to 16 VMs admitted over the hours, some placed, some finished."""
    pm_count = draw(st.integers(1, 4))
    state = new_datacenter(pm_count, BIG_RAM)
    for i in range(draw(st.integers(0, 16))):
        state = with_clock(state, state.clock + draw(st.integers(0, 2)))
        r = req(
            id=f"vm-{i:02d}",
            cores=draw(st.sampled_from([1, 2, 4, 8, 16, 32])),
            ram=draw(st.integers(1, 24)),
            freq=draw(st.sampled_from([1600, 3400, 3500])),
            duration=draw(st.integers(1, 6)),
            arrival=state.clock,
        )
        state = admit(state, [r])
        fits = np.flatnonzero(state.resources.fits(r)).tolist()
        if fits and draw(st.booleans()):
            state = place(state, [(r.id, f"pm-{draw(st.sampled_from(fits))}")])
        if draw(st.booleans()):
            state = remove_finished(state)
    validate(state)
    return state


def outcome(op, *args):
    """What an operation returns, or the type and text of what it raises."""
    try:
        return state_columns(op(*args))
    except (CapacityError, DomainError, NotFoundError) as error:
        return type(error), str(error)


@st.composite
def placement_batches(draw, state):
    """A batch of (vm, pm) pairs.

    Half the time every pair fits after the earlier ones; otherwise the
    pairs are mostly pending VMs on any PM, with unknown, placed and
    repeated VMs and unknown PMs among them.
    """
    ids = list(state_vms(state)) + ["vm-ghost"]
    pending = [vm.id for vm in state_vms(state).values() if vm.placed_on is None]
    if pending and draw(st.booleans()):
        working, batch = state.resources.copy(), []
        for vm_id in draw(st.permutations(pending))[: draw(st.integers(1, len(pending)))]:
            request = state_vms(state)[vm_id].request
            fits = np.flatnonzero(working.fits(request)).tolist()
            if fits:
                row = draw(st.sampled_from(fits))
                working.place(row, request)
                batch.append((vm_id, f"pm-{row}"))
        return batch
    vm_ids = st.sampled_from(pending) | st.sampled_from(ids) if pending else st.sampled_from(ids)
    pm_ids = st.sampled_from([f"pm-{i}" for i in range(len(state.pms))] + ["pm-9"])
    return draw(st.lists(st.tuples(vm_ids, pm_ids), max_size=6))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_place_matches_the_per_assignment_loop(data):
    state = data.draw(live_states())
    batch = data.draw(placement_batches(state))
    before = state_columns(state)
    placed = outcome(place, state, batch)
    assert placed == outcome(place_one_by_one, state, batch)
    assert state_columns(state) == before
    if isinstance(placed, dict):
        validate(place(state, batch))


@pytest.mark.parametrize("k", [0, 1, 2])
def test_place_fails_at_a_bad_pair_in_the_middle_as_the_loop_does(k):
    state = _batch_base()
    good = [(f"vm-{i}", "pm-1") for i in range(3)]
    for bad in (("vm-big", "pm-0"), ("vm-ghost", "pm-1"), ("vm-run", "pm-1"), ("vm-0", "pm-9")):
        batch = good[:k] + [bad] + good[k:]
        assert isinstance(outcome(place, state, batch), tuple)
        assert outcome(place, state, batch) == outcome(place_one_by_one, state, batch)
    twice = good[:k + 1] + [good[k]]
    assert outcome(place, state, twice) == outcome(place_one_by_one, state, twice)
    assert outcome(place, state, twice)[1] == f"VM 'vm-{k}' already runs on pm-1, cannot place"


@settings(max_examples=150, deadline=None)
@given(live_states(), st.integers(0, 8))
def test_remove_finished_matches_the_scan_after_a_clock_jump(state, hours):
    state = with_clock(state, state.clock + hours)
    before = state_columns(state)
    assert outcome(remove_finished, state) == outcome(remove_finished_by_scan, state)
    assert state_columns(state) == before
    validate(remove_finished(state))


def test_request_fields_past_int64_are_kept_exactly():
    # A finish hour past what the column holds is capped at LAST_HOUR, an
    # hour no clock reaches; a request too large for every PM stays pending.
    state = admit(with_clock(new_datacenter(2), 5), [req(duration=2**63 - 1)])
    state = admit(state, [req(id="vm-huge", cores=10**20)])
    state = place(state, [("vm-x", "pm-0")])
    assert state.running.finish.tolist() == [LAST_HOUR]
    assert state_vms(state)["vm-x"].request.duration == 2**63 - 1
    validate(state)
    late = with_clock(state, LAST_HOUR - 1)
    assert outcome(remove_finished, late) == outcome(remove_finished_by_scan, late)
    assert len(remove_finished(late).running) == 1
    with pytest.raises(CapacityError, match=f"pm-1: {10**20} cores requested, 32 free"):
        place(state, [("vm-huge", "pm-1")])
    assert list(state.pending) == ["vm-huge"]
