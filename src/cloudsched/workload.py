"""Workload ingestion and synthetic generation.

VM demand enters the simulator as fixed reservations (frequency, cores,
RAM, duration).  Two sources produce them: Bitbrains-style time-series
trace files, reduced to a peak reservation per VM, and a seeded synthetic
generator matching the default scenario bounds.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import numpy as np

from .errors import ConfigError, DomainError, TraceFormatError
from .util import check_array_shape, decode_utf8, parse_file, parse_json

# Generator bounds for the default scenario; trace-derived requests are
# clamped into the same envelope.
FREQ_MIN_MHZ = 1600
FREQ_MAX_MHZ = 3400
DURATION_MIN_H = 1
DURATION_MAX_H = 48
CORE_CHOICES = (1, 2, 4, 8)
RAM_CHOICES_GIB = (1, 2, 4, 8, 16)
MAX_PM_CORES = 32
MAX_PM_RAM_GIB = 64

KIB_PER_GIB = 1024 * 1024
MS_PER_HOUR = 3_600_000


@dataclass(frozen=True, slots=True)
class WorkloadRequest:
    """One user demand: a fixed resource reservation with a duration."""

    id: str
    cpu_frequency: int  # MHz per core
    cores: int
    ram: int  # GiB
    duration: int  # whole hours
    arrival: int  # simulation hour index

    def __post_init__(self):
        if self.cores < 1:
            raise DomainError(f"request {self.id}: cores must be >= 1")
        if self.ram <= 0:
            raise DomainError(f"request {self.id}: ram must be > 0")
        if self.duration < 1:
            raise DomainError(f"request {self.id}: duration must be >= 1")
        if self.arrival < 0:
            raise DomainError(f"request {self.id}: arrival must be >= 0")
        if self.cpu_frequency <= 0:
            raise DomainError(f"request {self.id}: cpu_frequency must be > 0")


@dataclass(frozen=True)
class TraceSample:
    timestamp_ms: int
    cores: int
    provisioned_capacity_mhz: float
    cpu_usage_mhz: float
    provisioned_memory_kb: float


@dataclass(frozen=True)
class VmTrace:
    """Per-VM usage time series, as read from one trace file."""

    vm_name: str
    samples: tuple[TraceSample, ...]
    clamped_rows: int = 0  # rows where usage exceeded capacity


@dataclass(frozen=True)
class WorkloadSet:
    """Requests sorted by arrival (ties by id)."""

    requests: tuple[WorkloadRequest, ...]


# Bitbrains fastStorage/Rnd header cells, normalized to lowercase.
_REQUIRED_COLUMNS = (
    "timestamp [ms]",
    "cpu cores",
    "cpu capacity provisioned [mhz]",
    "cpu usage [mhz]",
    "memory capacity provisioned [kb]",
)


def _normalize_cell(cell: str) -> str:
    return " ".join(cell.strip().strip('"').lower().split())


def parse_trace_file(content: bytes | str, name: str = "trace") -> VmTrace:
    """Parse one semicolon-delimited Bitbrains trace file.

    Usage above provisioned capacity is clamped and counted rather than
    rejected; structural problems raise :class:`TraceFormatError`.
    """
    lines = decode_utf8(content, f"trace {name!r}").splitlines()
    if not lines or not lines[0].strip():
        raise TraceFormatError("empty trace file")

    header = [_normalize_cell(c) for c in lines[0].split(";")]
    col_index = {}
    for column in _REQUIRED_COLUMNS:
        try:
            col_index[column] = header.index(column)
        except ValueError:
            raise TraceFormatError(f"missing column {column!r} in header") from None
    width = max(col_index.values()) + 1

    samples = []
    clamped = 0
    last_ts = None
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        cells = line.split(";")
        if len(cells) < width:
            raise TraceFormatError(
                f"expected at least {width} columns, got {len(cells)}", line=lineno
            )
        try:
            values = [float(cells[col_index[column]]) for column in _REQUIRED_COLUMNS]
        except ValueError:
            raise TraceFormatError("non-numeric cell", line=lineno) from None
        if not all(math.isfinite(v) for v in values):
            raise TraceFormatError("non-finite cell", line=lineno)
        ts_value, cores_value, capacity, usage, memory = values
        ts, cores = int(ts_value), int(cores_value)
        if last_ts is not None and ts <= last_ts:
            raise TraceFormatError(
                f"timestamp {ts} not increasing (previous {last_ts})", line=lineno
            )
        last_ts = ts
        if usage > capacity:
            usage = capacity
            clamped += 1
        samples.append(TraceSample(ts, cores, capacity, usage, memory))

    return VmTrace(vm_name=name, samples=tuple(samples), clamped_rows=clamped)


def derive_request(trace: VmTrace, arrival: int, request_id: str | None = None) -> WorkloadRequest:
    """Reduce a trace to a peak-provisioning reservation.

    Cores, per-core frequency and RAM are the maxima seen in the trace;
    the duration is the trace's time span rounded up to whole hours.
    Everything is clamped into the largest-PM envelope.
    """
    if not trace.samples:
        raise DomainError(f"trace {trace.vm_name!r} has no samples")

    cores = max(s.cores for s in trace.samples)
    if cores < 1:
        raise TraceFormatError(f"trace {trace.vm_name!r}: no sample has a positive CPU core count")
    cores = min(cores, MAX_PM_CORES)
    per_core = max(
        (s.provisioned_capacity_mhz / s.cores) for s in trace.samples if s.cores > 0
    )
    frequency = min(max(round(per_core), FREQ_MIN_MHZ), FREQ_MAX_MHZ)
    peak_kb = max(s.provisioned_memory_kb for s in trace.samples)
    ram = min(max(math.ceil(peak_kb / KIB_PER_GIB), 1), MAX_PM_RAM_GIB)
    span_ms = trace.samples[-1].timestamp_ms - trace.samples[0].timestamp_ms
    duration = min(max(math.ceil(span_ms / MS_PER_HOUR), DURATION_MIN_H), DURATION_MAX_H)

    return WorkloadRequest(
        id=request_id if request_id is not None else trace.vm_name,
        cpu_frequency=frequency,
        cores=cores,
        ram=ram,
        duration=duration,
        arrival=arrival,
    )


def ingest_trace_dir(trace_dir: str, horizon: int) -> WorkloadSet:
    """Derive one request per trace file; arrivals follow relative trace starts."""
    if horizon < 1:
        raise DomainError("horizon must be >= 1")
    paths = sorted(p for p in Path(trace_dir).iterdir() if p.is_file())
    if not paths:
        raise ConfigError(f"no trace files in {trace_dir!r}")
    traces = [parse_file(p, partial(parse_trace_file, name=p.stem)) for p in paths]
    for path, trace in zip(paths, traces):
        if not trace.samples:
            raise TraceFormatError(f"{path}: trace has no samples")
    start = min(t.samples[0].timestamp_ms for t in traces)
    requests = []
    for trace in traces:
        offset_h = int((trace.samples[0].timestamp_ms - start) // MS_PER_HOUR)
        arrival = min(offset_h, horizon - 1)
        requests.append(derive_request(trace, arrival=arrival))
    requests.sort(key=lambda r: (r.arrival, r.id))
    return WorkloadSet(requests=tuple(requests))


def generate_synthetic(count: int, horizon: int, seed: int) -> WorkloadSet:
    """Draw `count` requests uniformly over the default scenario bounds.

    Pure function of (count, horizon, seed): the same arguments always
    return the same WorkloadSet.  One bounded-integer call draws all
    5 x count numbers; numpy takes each from the same 32-bit stream
    whether the call is scalar or broadcast, so request i gets the
    arrival, duration, core index, frequency and RAM index that five
    scalar draws in that order would give it.
    """
    if count < 1:
        raise DomainError("count must be >= 1")
    if horizon < 1:
        raise DomainError("horizon must be >= 1")
    if max(count, horizon) >= 2**63:  # int64 shapes and bounds
        raise DomainError(f"count and horizon must be below 2**63, got {count} and {horizon}")
    check_array_shape((5 * count,), 8, f"count {count}")

    rng = np.random.default_rng(seed)
    low = (0, DURATION_MIN_H, 0, FREQ_MIN_MHZ, 0)
    high = (horizon, DURATION_MAX_H + 1, len(CORE_CHOICES), FREQ_MAX_MHZ + 1, len(RAM_CHOICES_GIB))
    draws = rng.integers(np.tile(low, count), np.tile(high, count)).reshape(count, 5)
    requests = [
        WorkloadRequest(
            id=f"vm-{i:04d}",
            cpu_frequency=frequency,
            cores=CORE_CHOICES[core_index],
            ram=RAM_CHOICES_GIB[ram_index],
            duration=duration,
            arrival=arrival,
        )
        for i, (arrival, duration, core_index, frequency, ram_index) in enumerate(draws.tolist())
    ]
    requests.sort(key=lambda r: (r.arrival, r.id))
    return WorkloadSet(requests=tuple(requests))


def workload_to_json(workload: WorkloadSet) -> str:
    """Serialize as a JSON array of request objects (the on-disk format)."""
    rows = [
        {
            "id": r.id,
            "cpu_frequency": r.cpu_frequency,
            "cores": r.cores,
            "ram": r.ram,
            "duration": r.duration,
            "arrival": r.arrival,
        }
        for r in workload.requests
    ]
    return json.dumps(rows, indent=2, allow_nan=False) + "\n"


_INTEGER_FIELDS = ("cpu_frequency", "cores", "ram", "duration", "arrival")


def workload_from_json(text: str | bytes) -> WorkloadSet:
    """Read the on-disk format; every numeric field must be a JSON integer."""
    rows = parse_json(text, "workload JSON")
    if not isinstance(rows, list):
        raise TraceFormatError("workload JSON must be an array of request objects")
    requests = []
    for i, row in enumerate(rows):
        if isinstance(row, dict):
            for key, value in row.items():
                if isinstance(value, float) and not math.isfinite(value):
                    raise TraceFormatError(f"non-finite {key!r} in request object at index {i}")
                if key in _INTEGER_FIELDS and type(value) is not int:  # nor a bool
                    raise TraceFormatError(
                        f"{key!r} must be an integer, got {type(value).__name__}, "
                        f"in request object at index {i}"
                    )
        try:
            request_id = str(row["id"])
            numbers = {key: row[key] for key in _INTEGER_FIELDS}
            requests.append(WorkloadRequest(id=request_id, **numbers))
        except (KeyError, TypeError, ValueError) as exc:
            raise TraceFormatError(f"bad request object at index {i}: {exc}") from None
    requests.sort(key=lambda r: (r.arrival, r.id))
    return WorkloadSet(requests=tuple(requests))
