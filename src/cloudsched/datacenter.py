"""Authoritative data-centre state and VM lifecycle operations.

DatacenterState is a value: every operation takes a state and returns a
new one (or raises, leaving the input untouched), so a failed call can
never corrupt the live inventory.  The simulation loop owns exactly one
state at a time.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from typing import Iterable

import numpy as np

from .errors import CapacityError, DomainError, NotFoundError
from .util import is_finite_number
from .workload import WorkloadRequest


class VmState(str, Enum):
    PENDING = "pending"
    RUNNING = "running"
    FINISHED = "finished"


@dataclass(frozen=True)
class PhysicalMachine:
    id: str
    location: str
    cores: int
    max_frequency: int  # MHz
    min_frequency: int
    ram: int  # GiB
    peak_power: float  # watts
    idle_power: float

    def __post_init__(self):
        numbers = ("cores", "max_frequency", "min_frequency", "ram", "peak_power", "idle_power")
        for name in numbers:
            if not is_finite_number(getattr(self, name)):
                raise DomainError(f"{self.id}: {name} must be a finite number")
        if not (0 < self.idle_power <= self.peak_power):
            raise DomainError(f"{self.id}: need 0 < idle_power <= peak_power")
        if self.min_frequency > self.max_frequency:
            raise DomainError(f"{self.id}: min_frequency > max_frequency")
        if self.cores < 1 or self.ram < 1:
            raise DomainError(f"{self.id}: cores and ram must be >= 1")


# Default server template for the 8-PM scenario: 32 cores, 1600-3400 MHz,
# 100 W idle / 200 W peak.  RAM is configured per-server in the 16-64 GiB
# range; 16 GiB is the default because it puts default-scenario totals in
# the intended ~100-120 kWh regime (64 GiB leaves RAM unconstrained and
# roughly halves that).
DEFAULT_PM_TEMPLATE = PhysicalMachine(
    id="pm-template",
    location="loc-template",
    cores=32,
    max_frequency=3400,
    min_frequency=1600,
    ram=16,
    peak_power=200.0,
    idle_power=100.0,
)


@dataclass(frozen=True)
class VirtualMachine:
    id: str
    request: WorkloadRequest
    state: VmState = VmState.PENDING
    placed_on: str | None = None
    start_hour: int | None = None
    migrations: int = 0


@dataclass(eq=False)
class ResourceSnapshot:
    """Live resources of every PM as columns, one array per field in PM order.

    Schedulers and billing read it; `schedule` and `consolidate` work on a
    `copy()` and update it in place with `place`.  Utilisation is the
    allocated-core fraction, computed as int / int like `used / cores`.
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
        self.free_cores[row] -= request.cores
        self.free_ram[row] -= request.ram
        self.powered_on[row] = True
        self.utilisation[row] = (self.cores[row] - self.free_cores[row]) / self.cores[row]


@dataclass(frozen=True)
class DatacenterState:
    pms: tuple[PhysicalMachine, ...]
    vms: dict[str, VirtualMachine]
    placements: dict[str, str]  # vm id -> pm id
    powered_on: frozenset[str]
    clock: int = 0

    def pm(self, pm_id: str) -> PhysicalMachine:
        for pm in self.pms:
            if pm.id == pm_id:
                return pm
        raise NotFoundError(f"unknown PM {pm_id!r}")


def new_datacenter(pm_count: int, template: PhysicalMachine = DEFAULT_PM_TEMPLATE) -> DatacenterState:
    """Build a fresh state: pm-0..pm-(n-1), one location each, all off."""
    if pm_count < 1:
        raise DomainError("pm_count must be >= 1")
    pms = tuple(
        replace(template, id=f"pm-{i}", location=f"loc-{i}") for i in range(pm_count)
    )
    return DatacenterState(pms=pms, vms={}, placements={}, powered_on=frozenset(), clock=0)


def with_clock(state: DatacenterState, hour: int) -> DatacenterState:
    return replace(state, clock=hour)


def admit(state: DatacenterState, request: WorkloadRequest) -> DatacenterState:
    """Register a pending VM for a request; placement happens separately."""
    if request.id in state.vms:
        raise DomainError(f"VM id {request.id!r} already admitted")
    vms = dict(state.vms)
    vms[request.id] = VirtualMachine(id=request.id, request=request)
    return replace(state, vms=vms)


def _usage(state: DatacenterState, pm_ids: Iterable[str] | None = None) -> dict[str, list[int]]:
    """Used [cores, RAM] of the given PMs (default: all), in one pass over the placements."""
    if pm_ids is None:
        pm_ids = (pm.id for pm in state.pms)
    usage = {pm_id: [0, 0] for pm_id in pm_ids}
    for vm_id, pm_id in state.placements.items():
        used = usage.get(pm_id)
        if used is not None:
            req = state.vms[vm_id].request
            used[0] += req.cores
            used[1] += req.ram
    return usage


def _check_fit(pm: PhysicalMachine, free_cores: int, free_ram: int, request: WorkloadRequest):
    if free_cores < request.cores:
        raise CapacityError(
            "cores",
            f"{pm.id}: {request.cores} cores requested, {free_cores} free",
        )
    if free_ram < request.ram:
        raise CapacityError(
            "ram", f"{pm.id}: {request.ram} GiB requested, {free_ram} free"
        )
    if pm.max_frequency < request.cpu_frequency:
        raise CapacityError(
            "frequency",
            f"{pm.id}: {request.cpu_frequency} MHz requested, max {pm.max_frequency}",
        )


def place(state: DatacenterState, vm_id: str, pm_id: str) -> DatacenterState:
    """Start a pending VM on a PM, booting the PM if needed."""
    vm = state.vms.get(vm_id)
    if vm is None:
        raise NotFoundError(f"unknown VM {vm_id!r}")
    pm = state.pm(pm_id)
    if vm.state is not VmState.PENDING:
        raise DomainError(f"VM {vm_id!r} is {vm.state.value}, cannot place")

    used_cores, used_ram = _usage(state, [pm_id])[pm_id]
    _check_fit(pm, pm.cores - used_cores, pm.ram - used_ram, vm.request)

    vms = dict(state.vms)
    vms[vm_id] = replace(vm, state=VmState.RUNNING, placed_on=pm_id, start_hour=state.clock)
    placements = dict(state.placements)
    placements[vm_id] = pm_id
    return replace(
        state, vms=vms, placements=placements, powered_on=state.powered_on | {pm_id}
    )


def remove_finished(state: DatacenterState) -> tuple[DatacenterState, list[str]]:
    """Finish every running VM whose duration has elapsed; power off emptied PMs."""
    finished = [
        vm.id
        for vm in state.vms.values()
        if vm.state is VmState.RUNNING
        and state.clock >= vm.start_hour + vm.request.duration
    ]
    if not finished:
        return state, []
    finished.sort()

    vms = dict(state.vms)
    placements = dict(state.placements)
    for vm_id in finished:
        vms[vm_id] = replace(vms[vm_id], state=VmState.FINISHED, placed_on=None)
        del placements[vm_id]
    still_hosting = set(placements.values())
    powered = frozenset(pm for pm in state.powered_on if pm in still_hosting)
    return replace(state, vms=vms, placements=placements, powered_on=powered), finished


def migrate(state: DatacenterState, vm_id: str, dst_pm: str) -> DatacenterState:
    """Move a running VM to another PM atomically."""
    vm = state.vms.get(vm_id)
    if vm is None:
        raise NotFoundError(f"unknown VM {vm_id!r}")
    if vm.state is not VmState.RUNNING:
        raise DomainError(f"VM {vm_id!r} is {vm.state.value}, cannot migrate")
    dst = state.pm(dst_pm)
    src = vm.placed_on
    if dst_pm == src:
        raise DomainError(f"VM {vm_id!r} already on {dst_pm}")

    used_cores, used_ram = _usage(state, [dst_pm])[dst_pm]
    _check_fit(dst, dst.cores - used_cores, dst.ram - used_ram, vm.request)

    vms = dict(state.vms)
    vms[vm_id] = replace(vm, placed_on=dst_pm, migrations=vm.migrations + 1)
    placements = dict(state.placements)
    placements[vm_id] = dst_pm
    powered = state.powered_on | {dst_pm}
    if src not in set(placements.values()):
        powered = powered - {src}
    return replace(state, vms=vms, placements=placements, powered_on=powered)


def snapshot(state: DatacenterState) -> ResourceSnapshot:
    """Pure read of per-PM free resources, in PM index order."""
    pms = state.pms
    n = len(pms)
    cores = np.fromiter((pm.cores for pm in pms), int, n)
    ram = np.fromiter((pm.ram for pm in pms), int, n)
    used = np.array(list(_usage(state).values()), dtype=int).reshape(n, 2)
    return ResourceSnapshot(
        pm_ids=tuple(pm.id for pm in pms),
        locations=tuple(pm.location for pm in pms),
        free_cores=cores - used[:, 0],
        cores=cores,
        free_ram=ram - used[:, 1],
        ram=ram,
        max_frequency=np.fromiter((pm.max_frequency for pm in pms), int, n),
        powered_on=np.fromiter((pm.id in state.powered_on for pm in pms), bool, n),
        utilisation=used[:, 0] / cores,
    )


def validate(state: DatacenterState) -> None:
    """Raise DomainError if any structural invariant is broken (test hook)."""
    usage = _usage(state)
    for pm in state.pms:
        used_cores, used_ram = usage[pm.id]
        if used_cores > pm.cores:
            raise DomainError(f"{pm.id}: core capacity exceeded ({used_cores}/{pm.cores})")
        if used_ram > pm.ram:
            raise DomainError(f"{pm.id}: ram capacity exceeded ({used_ram}/{pm.ram})")
    hosting = set(state.placements.values())
    for vm in state.vms.values():
        if vm.state is VmState.RUNNING:
            if vm.placed_on is None or state.placements.get(vm.id) != vm.placed_on:
                raise DomainError(f"{vm.id}: running VM placement mismatch")
        elif vm.id in state.placements:
            raise DomainError(f"{vm.id}: non-running VM present in placements")
    for pm in state.pms:
        if (pm.id in state.powered_on) != (pm.id in hosting):
            raise DomainError(f"{pm.id}: power status out of step with hosting")
