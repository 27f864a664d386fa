"""Snapshot constructors, serialisers and graph diagnostics that only the tests need.

`snapshot_from_entries` assembles a columnar resource snapshot from one
plain dict per PM, and `pm_prices` a per-PM price row from the PMs'
locations and a `{location: price}` dict.  The serialisers write a
structure back out in a stable, comparable form, so tests can check
purity (a state is unchanged) and parser round trips; `state_vms` reads
a state's VMs as `VirtualMachine` objects.  `cut_edges` and
`gcn_forward_restricted` inspect a cluster partition.  `gradient_check`
compares the training code's analytic gradients with central differences.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np
from hypothesis import strategies as st

from cloudsched.datacenter import DatacenterState, ResourceSnapshot
from cloudsched.energy import PriceSeries
from cloudsched.gnn.graph import ClusterPartition, StateGraph, normalize_adjacency
from cloudsched.gnn.models import (
    GatedBuffers,
    GcnBuffers,
    GcnModel,
    gated_steps,
    gcn_layers,
    restrict_graph,
)
from cloudsched.gnn.training import (
    TrainSample,
    _sample_graph,
    gated_loss_and_grads,
    gcn_loss_and_grads,
    step_buffers,
)
from cloudsched.workload import VmTrace, WorkloadRequest


def entry(free_cores=32, free_ram=16, powered_on=False, cores=32, ram=16, freq=3400, loc="loc-0"):
    """One PM's row of a snapshot, as a plain dict."""
    return dict(
        free_cores=free_cores,
        cores=cores,
        free_ram=free_ram,
        ram=ram,
        max_frequency=freq,
        powered_on=powered_on,
        location=loc,
    )


def snapshot_from_entries(entries: dict[str, dict]) -> ResourceSnapshot:
    """The columnar snapshot of per-PM `entry` dicts, in the dict's order.

    Utilisation is each PM's `(cores - free_cores) / cores`, int / int.
    """
    rows = list(entries.values())

    def column(name, dtype):
        return np.array([row[name] for row in rows], dtype=dtype)

    return ResourceSnapshot(
        pm_ids=tuple(entries),
        free_cores=column("free_cores", int),
        cores=column("cores", int),
        free_ram=column("free_ram", int),
        ram=column("ram", int),
        max_frequency=column("max_frequency", int),
        powered_on=column("powered_on", bool),
        utilisation=np.array(
            [(row["cores"] - row["free_cores"]) / row["cores"] for row in rows], dtype=float
        ),
    )


def pm_prices(locations: Iterable[str], price_now: dict[str, float] | None) -> np.ndarray:
    """The current price at each of the PMs' locations, in PM order (0 where unpriced)."""
    price_now = price_now or {}
    return np.array([price_now.get(location, 0.0) for location in locations], dtype=float)


def snapshot_columns(snap: ResourceSnapshot) -> dict:
    """Every field of a snapshot as plain values, each column with its dtype, for `==`."""
    doc = {"pm_ids": snap.pm_ids}
    for name in ResourceSnapshot._COLUMNS:
        column = getattr(snap, name)
        doc[name] = (column.dtype.str, column.tolist())
    return doc


def state_columns(state: DatacenterState) -> dict:
    """The clock and every column of a state, numbers as their bytes, for `==` bit for bit."""
    running, res = state.running, state.resources
    doc = {
        "clock": state.clock,
        "vm_values": (running.values.dtype.str, running.values.shape, running.values.tobytes()),
        "vm_ids": running.ids,
        "vm_requests": running.requests,
        "pending": list(state.pending.items()),
        "pm_ids": res.pm_ids,
        "pm_locations": state.locations,
    }
    for name in ResourceSnapshot._COLUMNS:
        column = getattr(res, name)
        doc[name] = (column.dtype.str, column.shape, column.tobytes())
    return doc


@dataclass(frozen=True)
class VirtualMachine:
    """One live VM as an object: what a test asks of it."""

    id: str
    request: WorkloadRequest
    placed_on: str | None = None  # None while pending
    start_hour: int | None = None


def state_vms(state: DatacenterState) -> dict[str, VirtualMachine]:
    """The live VMs by id: the running ones in row order, then the pending ones."""
    running = state.running
    placed = zip(running.ids, running.requests, running.host.tolist(), running.start.tolist())
    vms = {
        vm_id: VirtualMachine(vm_id, request, state.resources.pm_ids[host], start)
        for vm_id, request, host, start in placed
    }
    vms.update((vm_id, VirtualMachine(vm_id, request)) for vm_id, request in state.pending.items())
    return vms


# `pm_entries` draws each PM as one integer whose mixed-radix digits are its
# fields: a core count choice, a RAM choice, free cores (0-32, taken modulo
# cores + 1), free RAM (0-64, modulo RAM + 1), the power state and MHz above
# 1600.  Every combination is one code, and one draw per PM costs a sixth of
# one draw per field.
_PM_RADICES = (3, 2, 33, 65, 2, 1801)
_PM_CODES = st.integers(0, math.prod(_PM_RADICES) - 1)


def _pm_fields(code: int) -> list[int]:
    fields = []
    for radix in _PM_RADICES:
        code, digit = divmod(code, radix)
        fields.append(digit)
    return fields


@st.composite
def pm_entries(draw, min_pms: int = 1, max_pms: int = 6) -> dict[str, dict]:
    """Hypothesis: `entry` dicts for pm-0.. with mixed sizes, loads and power states.

    8, 16 or 32 cores, 16 or 64 GiB, free cores in [0, cores], free RAM
    in [0, ram], either power state and 1600-3400 MHz.
    """
    n = draw(st.integers(min_pms, max_pms))
    entries = {}
    for i, code in enumerate(draw(st.lists(_PM_CODES, min_size=n, max_size=n))):
        core_choice, ram_choice, free_cores, free_ram, on, mhz = _pm_fields(code)
        cores, ram = (8, 16, 32)[core_choice], (16, 64)[ram_choice]
        entries[f"pm-{i}"] = entry(
            free_cores=free_cores % (cores + 1),
            free_ram=free_ram % (ram + 1),
            powered_on=bool(on),
            cores=cores,
            ram=ram,
            freq=1600 + mhz,
            loc=f"loc-{i}",
        )
    return entries


@st.composite
def scored_snapshots(draw):
    """A snapshot of 1-40 PMs, a request that fits on none, some or every PM, and prices or None.

    The request's duration is up to 2**63 - 1 hours, so its feature can
    dwarf every other: about half of the draws are at or above 2**40 hours,
    where rounding decides between candidates' scores.
    """
    entries = draw(pm_entries(min_pms=1, max_pms=40))
    reach = draw(st.sampled_from(["some", "none", "all"]))
    if reach == "all":
        for e in entries.values():
            e["free_cores"], e["free_ram"], e["max_frequency"] = e["cores"], e["ram"], 3400
    snap = snapshot_from_entries(entries)
    req = WorkloadRequest(
        id="vm-0",
        cpu_frequency=3500 if reach == "none" else draw(st.integers(1600, 3400)),
        cores=draw(st.sampled_from([1, 2, 4, 8])),
        ram=draw(st.sampled_from([1, 2, 4, 8, 16])),
        duration=draw(st.integers(1, 48) | st.integers(2**40, 2**63 - 1)),
        arrival=0,
    )
    prices = None
    if draw(st.booleans()):
        prices = np.array([draw(st.floats(0.0, 0.15)) for _ in entries])
    return snap, req, prices


def powered_on(state: DatacenterState) -> set[str]:
    """Ids of the PMs whose power-state column is on."""
    res = state.resources
    return {pm_id for pm_id, on in zip(res.pm_ids, res.powered_on.tolist()) if on}


def state_dump(state: DatacenterState) -> dict:
    """Plain-value dump of the full state, resource columns included, with stable key ordering."""
    return {
        "clock": state.clock,
        "pms": [
            {
                "id": pm.id,
                "location": pm.location,
                "cores": pm.cores,
                "max_frequency": pm.max_frequency,
                "ram": pm.ram,
            }
            for pm in state.pms
        ],
        "vms": [
            {
                "id": vm.id,
                "placed_on": vm.placed_on,
                "start_hour": vm.start_hour,
                "request": {
                    "id": vm.request.id,
                    "cpu_frequency": vm.request.cpu_frequency,
                    "cores": vm.request.cores,
                    "ram": vm.request.ram,
                    "duration": vm.request.duration,
                    "arrival": vm.request.arrival,
                },
            }
            for vm in sorted(state_vms(state).values(), key=lambda v: v.id)
        ],
        "resources": snapshot_columns(state.resources),
    }


def cut_edges(graph: StateGraph, partition: ClusterPartition) -> int:
    """Number of edges crossing cluster boundaries."""
    a = graph.adjacency
    count = 0
    for i in range(graph.n_nodes):
        for j in range(i + 1, graph.n_nodes):
            if a[i, j] and partition.cluster_of[i] != partition.cluster_of[j]:
                count += 1
    return count


def gcn_forward_restricted(
    model: GcnModel, graph: StateGraph, partition: ClusterPartition, clusters
) -> np.ndarray:
    """GCN node embeddings of the selected clusters, propagated on their subgraph only."""
    _, feats, adj = restrict_graph(graph, partition, clusters)
    a_hat = normalize_adjacency(adj)
    hs, _, _ = gcn_layers(model, a_hat, a_hat @ feats, GcnBuffers(model, len(feats)))
    return hs[-1]


def sample_loss(model, sample: TrainSample) -> float:
    """Full-graph squared error for one sample (used by the gradient check)."""
    from slow_reference import pair_vector  # slow_reference imports this module

    g, n = _sample_graph(model, sample), sample.graph.n_nodes
    if isinstance(model, GcnModel):
        h_last = gcn_layers(model, g.a_hat, g.a_inputs, GcnBuffers(model, n))[0][-1]
    else:
        h_last, _ = gated_steps(model, g.a_hat, g.inputs, g.a_inputs, GatedBuffers(model, n))
    pair = pair_vector(h_last, sample.graph.features, g.vm_pos, g.pm_pos)
    score = float(pair @ model.readout_w[:, 0] + model.readout_b[0])
    return (score - sample.label) ** 2


def analytic_grads(model, sample: TrainSample) -> dict[str, np.ndarray]:
    grads = model.with_flat(np.empty_like(model.flat))
    loss_and_grads = gcn_loss_and_grads if isinstance(model, GcnModel) else gated_loss_and_grads
    g = _sample_graph(model, sample)
    buffers = step_buffers(model, grads, sample.graph.n_nodes)
    loss_and_grads(model, grads, g, sample.label, buffers)
    return dict(grads.parameters())


def gradient_check(model, sample: TrainSample, epsilon: float = 1e-5) -> float:
    """Max relative error between analytic and central-difference gradients."""
    grads = analytic_grads(model, sample)
    worst = 0.0
    for name, arr in model.parameters():
        flat = arr.reshape(-1)
        g_flat = grads[name].reshape(-1)
        for i in range(flat.size):
            original = flat[i]
            flat[i] = original + epsilon
            up = sample_loss(model, sample)
            flat[i] = original - epsilon
            down = sample_loss(model, sample)
            flat[i] = original
            numeric = (up - down) / (2.0 * epsilon)
            denom = max(1e-8, abs(g_flat[i]) + abs(numeric))
            worst = max(worst, abs(g_flat[i] - numeric) / denom)
    return worst


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
    lines = ["hour," + ",".join(series.locations)]
    for hour in range(series.horizon):
        cells = [str(hour)] + [repr(float(p)) for p in series.prices[:, hour]]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"
