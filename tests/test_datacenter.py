import numpy as np
import pytest
from collections import Counter
from dataclasses import replace
from hypothesis import given, settings, strategies as st

from cloudsched import datacenter, sim
from cloudsched.datacenter import (
    DEFAULT_PM_TEMPLATE,
    ResourceSnapshot,
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

from helpers import entry, powered_on, snapshot_columns, snapshot_from_entries, state_dump
from slow_reference import snapshot_by_pm_scan

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
        assert state.vms["vm-x"].start_hour == 4
        with pytest.raises(DomainError):  # a running VM is never placed again
            place(with_clock(state, 7), [("vm-x", "pm-1")])
        assert state.vms["vm-x"].start_hour == 4


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
    with pytest.raises(DomainError, match="VM 'vm-0' already runs on pm-0, cannot place"):
        place(state, [("vm-0", "pm-0"), ("vm-0", "pm-1")])
    assert state_dump(state) == state_dump(_batch_base())


def test_an_hour_copies_the_state_once_for_its_batches(monkeypatch):
    copies = Counter()
    copy_columns = ResourceSnapshot.copy

    def counting_copy(self):
        copies["columns"] += 1
        return copy_columns(self)

    def counting_dict(*args, **kwargs):
        copies["vms"] += 1
        return dict(*args, **kwargs)

    monkeypatch.setattr(ResourceSnapshot, "copy", counting_copy)
    monkeypatch.setattr(datacenter, "dict", counting_dict, raising=False)
    calls = []

    def counted(op):
        def call(state, batch):
            copies.clear()
            new_state = op(state, batch)
            calls.append((op.__name__, len(batch), dict(copies)))
            return new_state

        return call

    monkeypatch.setattr(sim, "admit", counted(admit))
    monkeypatch.setattr(sim, "place", counted(place))
    horizon = 6
    sim.run(sim.SimConfig(pm_count=4, vm_count=40, horizon=horizon, seed=3))

    for name, copied in (("admit", {"vms": 1}), ("place", {"vms": 1, "columns": 1})):
        batches = [(size, made) for op, size, made in calls if op == name]
        assert len(batches) == horizon  # one call per hour
        assert max(size for size, _ in batches) > 1
        assert all(made == (copied if size else {}) for size, made in batches)


class TestRemoveFinished:
    def test_duration_elapsed_powers_off(self):
        state = admit(new_datacenter(1), [req(duration=1)])
        state = place(state, [("vm-x", "pm-0")])
        state = remove_finished(with_clock(state, 1))
        assert state.vms == {}
        assert powered_on(state) == set()
        validate(state)

    def test_only_elapsed_vms_leave(self):
        state = admit(new_datacenter(2), [req(duration=1), req(id="vm-y", duration=3)])
        state = place(state, [("vm-x", "pm-0"), ("vm-y", "pm-1")])
        state = admit(state, [req(id="vm-z")])  # pending: never finishes
        state = remove_finished(with_clock(state, 2))
        assert list(state.vms) == ["vm-y", "vm-z"]
        assert powered_on(state) == {"pm-1"}
        validate(state)

    def test_48h_still_running_at_47(self):
        state = admit(new_datacenter(1), [req(duration=48)])
        state = place(state, [("vm-x", "pm-0")])
        after = remove_finished(with_clock(state, 47))
        assert after.vms["vm-x"] == state.vms["vm-x"]
        assert after.vms["vm-x"].placed_on == "pm-0"

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
        assert state.vms["vm-x"].placed_on == "pm-1"

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

    @pytest.mark.parametrize("field,value", [("start_hour", None), ("placed_on", None)])
    def test_placement_out_of_step_with_start_hour(self, field, value):
        state = self.one_vm_state()
        vm = replace(state.vms["vm-x"], **{field: value})
        with pytest.raises(DomainError, match="start hour"):
            validate(replace(state, vms={"vm-x": vm}))

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
                running = [v.id for v in state.vms.values() if v.placed_on is not None]
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
