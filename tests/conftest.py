from pathlib import Path

import pytest

from cloudsched.datacenter import DEFAULT_PM_TEMPLATE
from cloudsched.energy import PriceSeries
from cloudsched.sim import SimConfig
from cloudsched.workload import WorkloadRequest

DATA = Path(__file__).parent / "data"


@pytest.fixture
def data_dir() -> Path:
    return DATA


def tiny_requests() -> tuple[WorkloadRequest, ...]:
    """The hand-traced 2-PM / 3-VM / 3-hour scenario."""
    return (
        WorkloadRequest(id="vm-a", cpu_frequency=2000, cores=8, ram=4, duration=2, arrival=0),
        WorkloadRequest(id="vm-b", cpu_frequency=2000, cores=8, ram=4, duration=1, arrival=0),
        WorkloadRequest(id="vm-c", cpu_frequency=2000, cores=8, ram=4, duration=2, arrival=1),
    )


def tiny_prices() -> PriceSeries:
    flat = (0.10, 0.10, 0.10)
    return PriceSeries(("loc-0", "loc-1"), [flat, flat])


def tiny_config(policy: str = "first_fit", **overrides) -> SimConfig:
    defaults = dict(
        pm_count=2,
        pm_template=DEFAULT_PM_TEMPLATE,
        horizon=3,
        policy=policy,
        requests=tiny_requests(),
        prices=tiny_prices(),
        seed=0,
    )
    defaults.update(overrides)
    return SimConfig(**defaults)


@pytest.fixture
def tiny_sim_config() -> SimConfig:
    return tiny_config()
