"""Authoritative data-centre state and VM lifecycle operations.

DatacenterState is a value: every operation takes a state and returns a
new one (or raises, leaving the input untouched), so a failed call can
never corrupt the live inventory.  The simulation loop owns exactly one
state at a time.

The state holds its PMs only as rows: each PM's id and resources in the
columns of a `ResourceSnapshot`, its location in `locations`; `pms`
reads the rows back as `PhysicalMachine`s.  It holds its running VMs as
the columns of `RunningVms`, one row per VM in the order they were
placed (cores, RAM, frequency, host row, start and finish hour, id and
request), and its pending requests in a mapping by id, in admission
order.  A VM is in exactly one of the two, and its host row is the one
record of its placement.  `admit` adds an hour's batch to the pending
mapping; `place` checks a batch pair by pair, moves it from the pending
mapping to the end of the columns, and recomputes the PMs' power and
utilisation once; `remove_finished` finds the finished VMs with one mask
over the finish column, not a walk over every VM, and releases them in
one update.  A built state's columns and mapping are never written: an
operation copies what it changes and shares the rest.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, Sequence

import numpy as np

from .errors import CapacityError, DomainError, NotFoundError
from .util import check_array_shape, check_rules, is_int
from .workload import WorkloadRequest


# (test, description) of a PM's cores, MHz and RAM: each fills an int64 column.
# `PhysicalMachine` checks its fields by them, and the YAML loader its `pm:` keys.
PM_RULES = dict.fromkeys(
    ("cores", "max_frequency", "ram"),
    (lambda v: is_int(v) and 0 < v < 2**63, "a finite positive integer below 2**63"),
)


@dataclass(frozen=True)
class PhysicalMachine:
    id: str
    location: str
    cores: int
    max_frequency: int  # MHz
    ram: int  # GiB

    def __post_init__(self):
        check_rules(vars(self), PM_RULES, DomainError, f"{self.id}: {{}}")


# Default server template for the 8-PM scenario: 32 cores at up to
# 3400 MHz.  Server power is not a PM field: every PM draws what the
# simulation's `PowerModel` (the config's `power:` section) says.  RAM is
# configured per-server in the 16-64 GiB range; 16 GiB is the default
# because it puts default-scenario totals in the intended ~100-120 kWh
# regime (64 GiB leaves RAM unconstrained and roughly halves that).
DEFAULT_PM_TEMPLATE = PhysicalMachine(
    id="pm-template",
    location="loc-template",
    cores=32,
    max_frequency=3400,
    ram=16,
)


@dataclass(eq=False)
class ResourceSnapshot:
    """Live resources of every PM as columns, one array per field in PM order.

    A `DatacenterState` holds one as its resource state.  Schedulers and
    billing read it as it is; `schedule` places on a `copy()` and
    `consolidate` on a `take`, each in place with `place`.  Utilisation
    is the allocated-core fraction, computed as int / int like
    `used / cores`, and a PM is powered on exactly when some of its cores
    are allocated (every request takes at least one core, so that is when
    it hosts a VM).
    """

    pm_ids: tuple[str, ...]
    free_cores: np.ndarray  # int
    cores: np.ndarray
    free_ram: np.ndarray  # int, GiB
    ram: np.ndarray
    max_frequency: np.ndarray  # int, MHz
    powered_on: np.ndarray  # bool
    utilisation: np.ndarray  # float

    _COLUMNS = (
        "free_cores", "cores", "free_ram", "ram", "max_frequency", "powered_on", "utilisation"
    )

    def __len__(self) -> int:
        return len(self.pm_ids)

    @cached_property
    def same_cores(self) -> bool:
        """Whether every PM has the same core count; a PM's cores never change."""
        return bool((self.cores == self.cores[0]).all())

    def fits(self, request: WorkloadRequest) -> np.ndarray:
        """Mask of the PMs with the cores, RAM and frequency the request needs."""
        return (
            (self.free_cores >= request.cores)
            & (self.free_ram >= request.ram)
            & (self.max_frequency >= request.cpu_frequency)
        )

    def take(self, rows: np.ndarray) -> "ResourceSnapshot":
        """A new snapshot of the given rows, in the given order."""
        picked = rows.tolist()
        return ResourceSnapshot(
            tuple(map(self.pm_ids.__getitem__, picked)),
            *(getattr(self, c)[rows] for c in self._COLUMNS),
        )

    def copy(self) -> "ResourceSnapshot":
        return ResourceSnapshot(self.pm_ids, *(getattr(self, c).copy() for c in self._COLUMNS))

    def booked(self, free_cores: np.ndarray, free_ram: np.ndarray) -> "ResourceSnapshot":
        """A snapshot with these free columns, sharing the fixed ones.

        Power state and utilisation follow from the free cores as in
        `place`: on while some core is allocated, and `used / cores` as
        int / int.
        """
        cores = self.cores
        return ResourceSnapshot(
            self.pm_ids,
            free_cores,
            cores,
            free_ram,
            self.ram,
            self.max_frequency,
            free_cores < cores,
            (cores - free_cores) / cores,
        )

    def place(self, row: int, request: WorkloadRequest) -> None:
        """Book the request on one PM of this (working) snapshot, in place."""
        self.free_cores[row] -= request.cores
        self.free_ram[row] -= request.ram
        self.powered_on[row] = self.free_cores[row] < self.cores[row]
        self.utilisation[row] = (self.cores[row] - self.free_cores[row]) / self.cores[row]


LAST_HOUR = int(np.iinfo(int).max)  # the finish hour of a VM outlasting every int64 hour


@dataclass(frozen=True, eq=False)
class RunningVms:
    """The running VMs as columns, one row per VM, in the order they were placed.

    `values` holds the int columns (cores, RAM, frequency, host row,
    start hour, finish hour), which the properties name; `ids` and
    `requests` hold the objects.  The finish hour is start + duration,
    capped at `LAST_HOUR` so that it fits the column: no run's clock
    reaches it.  No column of a built `RunningVms` is ever written: an
    operation builds a new one, sharing what it does not change.
    """

    values: np.ndarray  # (VMs, 6) int
    ids: tuple[str, ...]
    requests: tuple[WorkloadRequest, ...]

    def __len__(self) -> int:
        return len(self.values)

    @property
    def cores(self) -> np.ndarray:
        return self.values[:, 0]

    @property
    def ram(self) -> np.ndarray:
        return self.values[:, 1]

    @property
    def frequency(self) -> np.ndarray:
        return self.values[:, 2]

    @property
    def host(self) -> np.ndarray:
        return self.values[:, 3]

    @property
    def start(self) -> np.ndarray:
        return self.values[:, 4]

    @property
    def finish(self) -> np.ndarray:
        return self.values[:, 5]


_NO_VMS = RunningVms(np.zeros((0, 6), dtype=int), (), ())


@dataclass(frozen=True)
class DatacenterState:
    locations: tuple[str, ...]  # row i's location
    running: RunningVms
    pending: Mapping[str, WorkloadRequest]  # admitted, not placed: by id, in admission order
    resources: ResourceSnapshot  # one row per PM
    rows: dict[str, int]  # PM id -> row; built once, shared by every later state
    clock: int = 0

    @cached_property
    def pms(self) -> tuple[PhysicalMachine, ...]:
        """Each PM as a record built from its row, once per state that is asked."""
        res = self.resources
        sizes = (res.cores.tolist(), res.max_frequency.tolist(), res.ram.tolist())
        return tuple(map(PhysicalMachine, res.pm_ids, self.locations, *sizes))

    def row(self, pm_id: str) -> int:
        """The PM's row in the resource columns."""
        try:
            return self.rows[pm_id]
        except KeyError:
            raise NotFoundError(f"unknown PM {pm_id!r}") from None


def new_datacenter(pm_count: int, template: PhysicalMachine = DEFAULT_PM_TEMPLATE) -> DatacenterState:
    """Build a fresh state: pm-0..pm-(n-1) of the template's size at loc-0..loc-(n-1), all off.

    The columns are sized before any PM id is named, so a count too large
    for memory fails at once.
    """
    if pm_count < 1:
        raise DomainError("pm_count must be >= 1")
    check_array_shape((pm_count,), 8, f"pm_count {pm_count}")
    cores = np.full(pm_count, template.cores, dtype=int)
    ram = np.full(pm_count, template.ram, dtype=int)
    pm_ids = tuple(map("pm-{}".format, range(pm_count)))
    resources = ResourceSnapshot(
        pm_ids=pm_ids,
        free_cores=cores.copy(),
        cores=cores,
        free_ram=ram.copy(),
        ram=ram,
        max_frequency=np.full(pm_count, template.max_frequency, dtype=int),
        powered_on=np.zeros(pm_count, dtype=bool),
        utilisation=np.zeros(pm_count),
    )
    locations = tuple(map("loc-{}".format, range(pm_count)))
    return DatacenterState(locations, _NO_VMS, {}, resources, dict(zip(pm_ids, range(pm_count))))


def with_clock(state: DatacenterState, hour: int) -> DatacenterState:
    return DatacenterState(
        state.locations, state.running, state.pending, state.resources, state.rows, hour
    )


def admit(state: DatacenterState, requests: Sequence[WorkloadRequest]) -> DatacenterState:
    """Register a pending VM for each request, in order; placement happens separately.

    One hour's arrivals are one batch, added to one copy of the pending
    mapping.  The first duplicate id raises, leaving the input state as it was.
    """
    if not requests:
        return state
    pending = dict(state.pending)
    pending.update((r.id, r) for r in requests)
    running_ids = state.running.ids
    if len(pending) < len(state.pending) + len(requests) or not pending.keys().isdisjoint(
        running_ids
    ):
        seen = set(running_ids).union(state.pending)
        for request in requests:
            if request.id in seen:
                raise DomainError(f"VM id {request.id!r} already admitted")
            seen.add(request.id)
    return DatacenterState(
        state.locations, state.running, pending, state.resources, state.rows, state.clock
    )


def _check_fit(pm_id: str, free_cores: int, free_ram: int, max_frequency: int, request):
    if free_cores < request.cores:
        raise CapacityError(
            "cores",
            f"{pm_id}: {request.cores} cores requested, {free_cores} free",
        )
    if free_ram < request.ram:
        raise CapacityError(
            "ram", f"{pm_id}: {request.ram} GiB requested, {free_ram} free"
        )
    if max_frequency < request.cpu_frequency:
        raise CapacityError(
            "frequency",
            f"{pm_id}: {request.cpu_frequency} MHz requested, max {max_frequency}",
        )


def _not_pending(state: DatacenterState, batch: dict[str, int], vm_id: str, pm_id: str):
    """Raise what placing a VM that is not pending raises.

    An unknown VM raises before its PM is looked up.  A running one,
    placed before this batch or earlier in it (`batch`: id -> PM row),
    raises after, as a pending VM would.
    """
    row = batch.get(vm_id)
    if row is None:
        try:
            row = int(state.running.host[state.running.ids.index(vm_id)])
        except ValueError:
            raise NotFoundError(f"unknown VM {vm_id!r}") from None
    state.row(pm_id)
    raise DomainError(f"VM {vm_id!r} already runs on {state.resources.pm_ids[row]}, cannot place")


def place(state: DatacenterState, assignments: Sequence[tuple[str, str]]) -> DatacenterState:
    """Start each pending VM on its PM, in order, booting PMs as needed.

    `assignments` holds `(vm id, pm id)` pairs, one hour's placements in
    one batch.  Each VM is checked against the free cores and RAM the
    earlier pairs left; the batch's VMs are then appended to the running
    columns together, and the PMs' power and utilisation follow from
    their free cores once.  The first bad pair raises, leaving the input
    state as it was.
    """
    if not assignments:
        return state
    res, clock = state.resources, state.clock
    pm_ids, max_frequency = res.pm_ids, res.max_frequency
    pending = dict(state.pending)
    free_cores, free_ram = res.free_cores.copy(), res.free_ram.copy()
    batch: dict[str, int] = {}  # the placed VMs' PM rows, by id in order
    requests, values = [], []
    for vm_id, pm_id in assignments:
        request = pending.pop(vm_id, None)
        if request is None:
            _not_pending(state, batch, vm_id, pm_id)
        row = state.row(pm_id)
        cores, ram = int(free_cores[row]), int(free_ram[row])
        _check_fit(pm_ids[row], cores, ram, int(max_frequency[row]), request)
        free_cores[row] = cores - request.cores
        free_ram[row] = ram - request.ram
        batch[vm_id] = row
        requests.append(request)
        finish = min(clock + request.duration, LAST_HOUR)
        values.append((request.cores, request.ram, request.cpu_frequency, row, clock, finish))
    running = state.running
    running = RunningVms(
        np.concatenate((running.values, np.array(values, dtype=int))),
        running.ids + tuple(batch),
        running.requests + tuple(requests),
    )
    return DatacenterState(
        state.locations, running, pending, res.booked(free_cores, free_ram), state.rows, clock
    )


def remove_finished(state: DatacenterState) -> DatacenterState:
    """Drop every running VM whose duration has elapsed; power off emptied PMs.

    One mask over the finish hours picks the finished VMs, and their
    cores and RAM go back to their PMs in one update (integer sums, so
    the order cannot matter).
    """
    running, res = state.running, state.resources
    done = running.finish <= state.clock
    finished = done.nonzero()[0]
    if not finished.size:
        return state
    freed = running.values.take(finished, axis=0)
    free_cores, free_ram = res.free_cores.copy(), res.free_ram.copy()
    np.add.at(free_cores, freed[:, 3], freed[:, 0])
    np.add.at(free_ram, freed[:, 3], freed[:, 1])
    ids, requests = list(running.ids), list(running.requests)
    for row in reversed(finished.tolist()):  # a few rows: cheaper than a pass over every VM
        del ids[row], requests[row]
    kept = running.values.take((~done).nonzero()[0], axis=0)
    return DatacenterState(
        state.locations,
        RunningVms(kept, tuple(ids), tuple(requests)),
        state.pending,
        res.booked(free_cores, free_ram),
        state.rows,
        state.clock,
    )


def migrate(state: DatacenterState, vm_id: str, dst_pm: str) -> DatacenterState:
    """Move a running VM to another PM atomically."""
    running = state.running
    try:
        i = running.ids.index(vm_id)
    except ValueError:
        if vm_id in state.pending:
            raise DomainError(f"VM {vm_id!r} is pending, cannot migrate") from None
        raise NotFoundError(f"unknown VM {vm_id!r}") from None
    src = int(running.host[i])
    dst = state.row(dst_pm)
    if dst == src:
        raise DomainError(f"VM {vm_id!r} already on {dst_pm}")
    request = running.requests[i]
    res = state.resources
    cores, ram = int(res.free_cores[dst]), int(res.free_ram[dst])
    _check_fit(dst_pm, cores, ram, int(res.max_frequency[dst]), request)

    values = running.values.copy()
    values[i, 3] = dst
    free_cores, free_ram = res.free_cores.copy(), res.free_ram.copy()
    free_cores[src] += request.cores
    free_ram[src] += request.ram
    free_cores[dst] = cores - request.cores
    free_ram[dst] = ram - request.ram
    return DatacenterState(
        state.locations,
        RunningVms(values, running.ids, running.requests),
        state.pending,
        res.booked(free_cores, free_ram),
        state.rows,
        state.clock,
    )


def snapshot(state: DatacenterState) -> ResourceSnapshot:
    """Per-PM free resources, in PM index order: a copy the caller may change."""
    return state.resources.copy()


def validate(state: DatacenterState) -> None:
    """Raise DomainError if any structural invariant is broken (test hook).

    The running VMs' columns must be one length and agree with their
    requests: host rows in range, start hours of at least 0, and
    finish = start + duration (capped at `LAST_HOUR`).  Each pending
    request must be listed under its own id, and no id may be listed
    twice, running or pending.  The PM-id -> row index and the locations
    must match the resource rows, no PM may be over capacity, and the free,
    power and utilisation columns must equal a rescan of the running VMs.
    """
    res = state.resources
    n = len(res.pm_ids)
    if state.rows != dict(zip(res.pm_ids, range(n))):
        raise DomainError("PM row index out of step with the PMs")
    if len(state.locations) != n:
        raise DomainError("locations out of step with the PMs")

    running = state.running
    ids, requests = running.ids, running.requests
    if running.values.shape != (len(ids), 6) or len(requests) != len(ids):
        raise DomainError("VM columns of unequal length")
    for vm_id, request in state.pending.items():
        if request.id != vm_id:
            raise DomainError(f"{vm_id}: pending id out of step with its request")
    listed = ids + tuple(state.pending)
    if len(set(listed)) < len(listed):
        twice = next(vm_id for i, vm_id in enumerate(listed) if vm_id in listed[:i])
        raise DomainError(f"{twice}: VM id listed twice")
    for name, column, field in (
        ("ids", ids, "id"),
        ("cores", running.cores.tolist(), "cores"),
        ("ram", running.ram.tolist(), "ram"),
        ("frequency", running.frequency.tolist(), "cpu_frequency"),
    ):
        stale = [i for i, (v, r) in enumerate(zip(column, requests)) if v != getattr(r, field)]
        if stale:
            raise DomainError(f"{ids[stale[0]]}: {name} out of step with its request")
    host, start = running.host, running.start
    finish = [min(s + r.duration, LAST_HOUR) for s, r in zip(start.tolist(), requests)]
    checks = (
        ((host < 0) | (host >= n), "host row out of range"),
        (start < 0, "start hour out of range"),
        (
            running.finish != np.array(finish, dtype=int),
            "finish hour out of step with start + duration",
        ),
    )
    for bad, what in checks:
        stale = np.flatnonzero(bad)
        if stale.size:
            raise DomainError(f"{ids[stale[0]]}: {what}")

    used_cores, used_ram = np.zeros((2, n), dtype=int)
    np.add.at(used_cores, host, running.cores)
    np.add.at(used_ram, host, running.ram)
    for name, used, size in (("core", used_cores, res.cores), ("ram", used_ram, res.ram)):
        over = np.flatnonzero(used > size)
        if over.size:
            i = over[0]
            raise DomainError(f"{res.pm_ids[i]}: {name} capacity exceeded ({used[i]}/{size[i]})")

    expected = {
        "free_cores": res.cores - used_cores,
        "free_ram": res.ram - used_ram,
        "powered_on": used_cores > 0,
        "utilisation": used_cores / res.cores,
    }
    for name, column in expected.items():
        stale = np.flatnonzero(getattr(res, name) != column)
        if stale.size:
            what = "power status" if name == "powered_on" else name
            raise DomainError(f"{res.pm_ids[stale[0]]}: {what} out of step with hosting")
