"""Serialisers that only the tests need: state dumps and input-file writers.

Each writes a structure back out in a stable, comparable form, so tests
can check purity (a state is unchanged) and parser round trips.
"""

from __future__ import annotations

from cloudsched.datacenter import DatacenterState
from cloudsched.energy import PriceSeries
from cloudsched.workload import VmTrace


def state_dump(state: DatacenterState) -> dict:
    """JSON-ready snapshot of the full state with stable key ordering."""
    return {
        "clock": state.clock,
        "pms": [
            {
                "id": pm.id,
                "location": pm.location,
                "cores": pm.cores,
                "max_frequency": pm.max_frequency,
                "min_frequency": pm.min_frequency,
                "ram": pm.ram,
                "peak_power": pm.peak_power,
                "idle_power": pm.idle_power,
                "powered_on": pm.id in state.powered_on,
            }
            for pm in state.pms
        ],
        "vms": [
            {
                "id": vm.id,
                "state": vm.state.value,
                "placed_on": vm.placed_on,
                "start_hour": vm.start_hour,
                "migrations": vm.migrations,
                "request": {
                    "id": vm.request.id,
                    "cpu_frequency": vm.request.cpu_frequency,
                    "cores": vm.request.cores,
                    "ram": vm.request.ram,
                    "duration": vm.request.duration,
                    "arrival": vm.request.arrival,
                },
            }
            for vm in sorted(state.vms.values(), key=lambda v: v.id)
        ],
        "placements": {k: state.placements[k] for k in sorted(state.placements)},
    }


def serialize_trace(trace: VmTrace) -> str:
    """Write a VmTrace back to the Bitbrains column layout it was read from."""
    out = [
        "Timestamp [ms];CPU cores;CPU capacity provisioned [MHZ];"
        "CPU usage [MHZ];Memory capacity provisioned [KB]"
    ]
    for s in trace.samples:
        out.append(
            f"{s.timestamp_ms};{s.cores};{s.provisioned_capacity_mhz!r};"
            f"{s.cpu_usage_mhz!r};{s.provisioned_memory_kb!r}"
        )
    return "\n".join(out) + "\n"


def price_series_to_csv(series: PriceSeries) -> str:
    locations = list(series.prices)
    lines = ["hour," + ",".join(locations)]
    for hour in range(series.horizon):
        cells = [str(hour)] + [repr(series.prices[loc][hour]) for loc in locations]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"
