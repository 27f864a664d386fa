"""Energy-aware cloud data-centre simulator with learned VM schedulers."""

__version__ = "0.1.0"

from .datacenter import (
    DEFAULT_PM_TEMPLATE,
    DatacenterState,
    PhysicalMachine,
    new_datacenter,
    snapshot,
)
from .energy import DEFAULT_POWER_MODEL, EnergyBreakdown, PowerModel, PriceSeries
from .scheduler import Policy, ScheduleDecision, consolidate, schedule
from .sim import QoSReport, SimConfig, SimResult, compare, compute_qos, run
from .workload import WorkloadRequest, WorkloadSet, generate_synthetic

__all__ = [
    "DEFAULT_PM_TEMPLATE",
    "DEFAULT_POWER_MODEL",
    "DatacenterState",
    "EnergyBreakdown",
    "PhysicalMachine",
    "Policy",
    "PowerModel",
    "PriceSeries",
    "QoSReport",
    "ScheduleDecision",
    "SimConfig",
    "SimResult",
    "WorkloadRequest",
    "WorkloadSet",
    "compare",
    "compute_qos",
    "consolidate",
    "generate_synthetic",
    "new_datacenter",
    "run",
    "schedule",
    "snapshot",
]
