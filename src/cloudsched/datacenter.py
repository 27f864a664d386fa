"""Authoritative data-centre state and VM lifecycle operations.

DatacenterState is a value: every operation takes a state and returns a
new one (or raises, leaving the input untouched), so a failed call can
never corrupt the live inventory.  The simulation loop owns exactly one
state at a time.

The state holds each PM's resources as the columns of a
`ResourceSnapshot`.  `place`, `migrate` and `remove_finished` check a
request against its PM's row, then update that row in a copy of the
columns, so no operation rescans the VMs; `snapshot` is a column copy.
`admit` and `place` take a whole hour's batch and copy once for it.

`vms` holds the live VMs only: a VM is pending until `place` sets its
`placed_on` and `start_hour`, and it runs until `remove_finished` drops
it.  The operations build each new state and VM with its constructor, not
`dataclasses.replace`, which costs several times more per call.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import CapacityError, DomainError, NotFoundError
from .util import is_finite_number
from .workload import WorkloadRequest


@dataclass(frozen=True)
class PhysicalMachine:
    id: str
    location: str
    cores: int
    max_frequency: int  # MHz
    ram: int  # GiB

    def __post_init__(self):
        for name in ("cores", "max_frequency", "ram"):
            if not is_finite_number(getattr(self, name)):
                raise DomainError(f"{self.id}: {name} must be a finite number")
        if self.cores < 1 or self.ram < 1:
            raise DomainError(f"{self.id}: cores and ram must be >= 1")


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


@dataclass(frozen=True)
class VirtualMachine:
    id: str
    request: WorkloadRequest
    placed_on: str | None = None  # None while pending
    start_hour: int | None = None


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
    locations: tuple[str, ...]
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
            tuple(map(self.locations.__getitem__, picked)),
            *(getattr(self, c)[rows] for c in self._COLUMNS),
        )

    def copy(self) -> "ResourceSnapshot":
        return ResourceSnapshot(
            self.pm_ids, self.locations, *(getattr(self, c).copy() for c in self._COLUMNS)
        )

    def place(self, row: int, request: WorkloadRequest) -> None:
        """Book the request on one PM of this (working) snapshot, in place."""
        self._book(row, request.cores, request.ram)

    def release(self, row: int, request: WorkloadRequest) -> None:
        """Give the request's cores and RAM back to one PM, in place."""
        self._book(row, -request.cores, -request.ram)

    def _book(self, row: int, cores: int, ram: int) -> None:
        self.free_cores[row] -= cores
        self.free_ram[row] -= ram
        self.powered_on[row] = self.free_cores[row] < self.cores[row]
        self.utilisation[row] = (self.cores[row] - self.free_cores[row]) / self.cores[row]


@dataclass(frozen=True)
class DatacenterState:
    pms: tuple[PhysicalMachine, ...]
    vms: dict[str, VirtualMachine]
    resources: ResourceSnapshot  # row i is pms[i]; never changed once the state is built
    rows: dict[str, int]  # PM id -> row; built once, shared by every later state
    clock: int = 0

    def row(self, pm_id: str) -> int:
        """The PM's row in `pms` and in the resource columns."""
        try:
            return self.rows[pm_id]
        except KeyError:
            raise NotFoundError(f"unknown PM {pm_id!r}") from None


def new_datacenter(pm_count: int, template: PhysicalMachine = DEFAULT_PM_TEMPLATE) -> DatacenterState:
    """Build a fresh state: pm-0..pm-(n-1), one location each, all off."""
    if pm_count < 1:
        raise DomainError("pm_count must be >= 1")
    pms = tuple(
        replace(template, id=f"pm-{i}", location=f"loc-{i}") for i in range(pm_count)
    )
    cores = np.fromiter((pm.cores for pm in pms), int, pm_count)
    ram = np.fromiter((pm.ram for pm in pms), int, pm_count)
    resources = ResourceSnapshot(
        pm_ids=tuple(pm.id for pm in pms),
        locations=tuple(pm.location for pm in pms),
        free_cores=cores.copy(),
        cores=cores,
        free_ram=ram.copy(),
        ram=ram,
        max_frequency=np.fromiter((pm.max_frequency for pm in pms), int, pm_count),
        powered_on=np.zeros(pm_count, dtype=bool),
        utilisation=np.zeros(pm_count),
    )
    rows = {pm.id: i for i, pm in enumerate(pms)}
    return DatacenterState(pms=pms, vms={}, resources=resources, rows=rows, clock=0)


def with_clock(state: DatacenterState, hour: int) -> DatacenterState:
    return DatacenterState(state.pms, state.vms, state.resources, state.rows, hour)


def admit(state: DatacenterState, requests: Sequence[WorkloadRequest]) -> DatacenterState:
    """Register a pending VM for each request, in order; placement happens separately.

    One hour's arrivals are one batch: `vms` is copied once for all of
    them.  The first duplicate id raises, leaving the input state as it was.
    """
    if not requests:
        return state
    vms = dict(state.vms)
    for request in requests:
        if request.id in vms:
            raise DomainError(f"VM id {request.id!r} already admitted")
        vms[request.id] = VirtualMachine(request.id, request)
    return DatacenterState(state.pms, vms, state.resources, state.rows, state.clock)


def _check_fit(resources: ResourceSnapshot, row: int, request: WorkloadRequest):
    pm_id = resources.pm_ids[row]
    free_cores = int(resources.free_cores[row])
    if free_cores < request.cores:
        raise CapacityError(
            "cores",
            f"{pm_id}: {request.cores} cores requested, {free_cores} free",
        )
    free_ram = int(resources.free_ram[row])
    if free_ram < request.ram:
        raise CapacityError(
            "ram", f"{pm_id}: {request.ram} GiB requested, {free_ram} free"
        )
    max_frequency = int(resources.max_frequency[row])
    if max_frequency < request.cpu_frequency:
        raise CapacityError(
            "frequency",
            f"{pm_id}: {request.cpu_frequency} MHz requested, max {max_frequency}",
        )


def place(state: DatacenterState, assignments: Sequence[tuple[str, str]]) -> DatacenterState:
    """Start each pending VM on its PM, in order, booting PMs as needed.

    `assignments` holds `(vm id, pm id)` pairs, one hour's placements in
    one batch: `vms` and the resource columns are copied once for all of
    them, and each VM is checked against the columns as the earlier ones
    left them.  The first bad pair raises, leaving the input state as it was.
    """
    if not assignments:
        return state
    vms = dict(state.vms)
    resources = state.resources.copy()
    for vm_id, pm_id in assignments:
        vm = vms.get(vm_id)
        if vm is None:
            raise NotFoundError(f"unknown VM {vm_id!r}")
        row = state.row(pm_id)
        if vm.placed_on is not None:
            raise DomainError(f"VM {vm_id!r} already runs on {vm.placed_on}, cannot place")
        _check_fit(resources, row, vm.request)
        vms[vm_id] = VirtualMachine(vm_id, vm.request, pm_id, state.clock)
        resources.place(row, vm.request)
    return DatacenterState(state.pms, vms, resources, state.rows, state.clock)


def remove_finished(state: DatacenterState) -> DatacenterState:
    """Drop every running VM whose duration has elapsed; power off emptied PMs."""
    finished = [
        vm
        for vm in state.vms.values()
        if vm.placed_on is not None and state.clock >= vm.start_hour + vm.request.duration
    ]
    if not finished:
        return state

    vms = dict(state.vms)
    resources = state.resources.copy()
    for vm in finished:
        resources.release(state.row(vm.placed_on), vm.request)
        del vms[vm.id]
    return DatacenterState(state.pms, vms, resources, state.rows, state.clock)


def migrate(state: DatacenterState, vm_id: str, dst_pm: str) -> DatacenterState:
    """Move a running VM to another PM atomically."""
    vm = state.vms.get(vm_id)
    if vm is None:
        raise NotFoundError(f"unknown VM {vm_id!r}")
    if vm.placed_on is None:
        raise DomainError(f"VM {vm_id!r} is pending, cannot migrate")
    dst = state.row(dst_pm)
    if dst_pm == vm.placed_on:
        raise DomainError(f"VM {vm_id!r} already on {dst_pm}")
    _check_fit(state.resources, dst, vm.request)

    vms = dict(state.vms)
    vms[vm_id] = VirtualMachine(vm_id, vm.request, dst_pm, vm.start_hour)
    resources = state.resources.copy()
    resources.release(state.row(vm.placed_on), vm.request)
    resources.place(dst, vm.request)
    return DatacenterState(state.pms, vms, resources, state.rows, state.clock)


def snapshot(state: DatacenterState) -> ResourceSnapshot:
    """Per-PM free resources, in PM index order: a copy the caller may change."""
    return state.resources.copy()


def validate(state: DatacenterState) -> None:
    """Raise DomainError if any structural invariant is broken (test hook).

    Besides capacity and placement consistency, the PM-id -> row index
    must match `pms`, and every resource column must equal a rescan of
    the running VMs.
    """
    pms = state.pms
    n = len(pms)
    if state.rows != {pm.id: i for i, pm in enumerate(pms)}:
        raise DomainError("PM row index out of step with the PMs")
    used_cores = np.zeros(n, dtype=int)
    used_ram = np.zeros(n, dtype=int)
    for vm in state.vms.values():
        if (vm.placed_on is None) != (vm.start_hour is None):
            raise DomainError(f"{vm.id}: placement and start hour out of step")
        if vm.placed_on is not None:
            row = state.row(vm.placed_on)
            used_cores[row] += vm.request.cores
            used_ram[row] += vm.request.ram
    for pm, cores, ram in zip(pms, used_cores.tolist(), used_ram.tolist()):
        if cores > pm.cores:
            raise DomainError(f"{pm.id}: core capacity exceeded ({cores}/{pm.cores})")
        if ram > pm.ram:
            raise DomainError(f"{pm.id}: ram capacity exceeded ({ram}/{pm.ram})")

    res = state.resources
    if res.pm_ids != tuple(pm.id for pm in pms) or res.locations != tuple(
        pm.location for pm in pms
    ):
        raise DomainError("resource rows out of step with the PMs")
    cores = np.array([pm.cores for pm in pms])
    ram = np.array([pm.ram for pm in pms])
    expected = {
        "cores": cores,
        "ram": ram,
        "max_frequency": np.array([pm.max_frequency for pm in pms]),
        "free_cores": cores - used_cores,
        "free_ram": ram - used_ram,
        "powered_on": used_cores > 0,
        "utilisation": used_cores / cores,
    }
    for name, column in expected.items():
        stale = np.flatnonzero(getattr(res, name) != column)
        if stale.size:
            what = "power status" if name == "powered_on" else name
            raise DomainError(f"{res.pm_ids[stale[0]]}: {what} out of step with hosting")
