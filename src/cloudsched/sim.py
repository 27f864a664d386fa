"""Hourly simulation loop, QoS reporting, and policy comparison.

Each hour: retire finished VMs, deliver arrivals, schedule, execute
placements and consolidation migrations, then record the hour's
utilisation row and migration destinations.  Scheduling and consolidation
read the state's resource columns and the hour's row of the run's
`[hour][pm]` price matrix.  The run is billed once, after the last hour,
by one `step_energy` call over the `[hour][pm]` utilisation and prices.
A run keeps each per-PM-hour fact once, as an `[hour][pm]` array; what
`result.json` writes besides is derived from those arrays.
"""

from __future__ import annotations

import json
import statistics
from dataclasses import dataclass, field, fields, replace as dc_replace
from functools import lru_cache, reduce
from typing import Iterator

import numpy as np

from .datacenter import (
    DEFAULT_PM_TEMPLATE,
    PhysicalMachine,
    admit,
    migrate,
    new_datacenter,
    place,
    remove_finished,
    with_clock,
)
from .energy import (
    DEFAULT_POWER_MODEL,
    EnergyBreakdown,
    PmBilling,
    PowerModel,
    PriceSeries,
    ZERO_ENERGY,
    generate_price_series,
    step_energy,
)
from .errors import ConfigError, CoverageError
from .gnn.models import GatedModel, GcnModel
from .scheduler import (
    CONSOLIDATION_THRESHOLD,
    Policy,
    SampleRecorder,
    consolidate,
    schedule,
)
from .workload import WorkloadRequest, generate_synthetic


@dataclass(frozen=True)
class SimConfig:
    """One scenario; defaults are the 8-PM / 60-VM / 120-hour setup.

    Every input is a value: unset `requests` and `prices` are drawn from `seed`.
    """

    pm_count: int = 8
    pm_template: PhysicalMachine = DEFAULT_PM_TEMPLATE
    vm_count: int = 60
    horizon: int = 120
    power: PowerModel = DEFAULT_POWER_MODEL
    policy: str = "first_fit"
    model: GcnModel | GatedModel | None = None
    requests: tuple[WorkloadRequest, ...] | None = None
    prices: PriceSeries | None = None
    seed: int = 0
    consolidation_threshold: float = CONSOLIDATION_THRESHOLD
    log_scores: bool = False


def _no_billing() -> PmBilling:
    return PmBilling(*[np.zeros((0, 0))] * len(PmBilling._fields))


@dataclass
class SimResult:
    """A run's record; a PM is powered on in an hour when its utilisation is above 0."""

    pm_ids: tuple[str, ...]
    pm_locations: tuple[str, ...]
    horizon: int
    policy: str
    utilisation: np.ndarray = field(default_factory=lambda: np.zeros((0, 0)))  # [hour][pm]
    hourly: list[EnergyBreakdown] = field(default_factory=list)
    pm_billing: PmBilling = field(default_factory=_no_billing)
    events: list[dict] = field(default_factory=list)
    deferred_hours: dict[str, int] = field(default_factory=dict)
    totals: EnergyBreakdown = ZERO_ENERGY
    placed: int = 0
    deferred: int = 0
    migration_count: int = 0

    @property
    def pm_energy_rows(self) -> "PmEnergyRows":
        """`(hour, pm, location, breakdown incl. cost, price)` per PM and hour."""
        return PmEnergyRows(self)


class PmEnergyRows:
    """A result's billing columns read as rows, each built when it is reached.

    It holds no row, so reading it never keeps a second copy of the billing.
    """

    def __init__(self, result: SimResult):
        self._result = result

    def __len__(self) -> int:
        return self._result.pm_billing.processor.size

    def __iter__(self) -> Iterator[tuple[int, str, str, EnergyBreakdown, float]]:
        """Hour-major; each hour's columns become Python floats when it is reached."""
        result = self._result
        for hour in range(len(result.pm_billing.processor)):
            rows = zip(
                result.pm_ids,
                result.pm_locations,
                *(column[hour].tolist() for column in result.pm_billing),
            )
            for pm, location, p, c, e, total, price, cost in rows:
                yield hour, pm, location, EnergyBreakdown(p, c, e, total, cost), price


@dataclass(frozen=True)
class QoSReport:
    max_pm_utilisation: float
    mean_active_pm_count: float
    total_energy: float  # kWh
    total_cost: float
    placed: int
    deferred: int
    migrated: int


def _load_workload(config: SimConfig) -> tuple[WorkloadRequest, ...]:
    if config.requests is not None:
        requests = tuple(config.requests)
    else:
        requests = generate_synthetic(config.vm_count, config.horizon, config.seed).requests

    ids = [r.id for r in requests]
    if len(set(ids)) != len(ids):
        raise ConfigError("workload contains duplicate request ids")
    late = [r.id for r in requests if r.arrival >= config.horizon]
    if late:
        raise ConfigError(
            f"requests arriving at or after the horizon ({config.horizon}): {late[:3]}"
        )
    return requests


def _load_prices(config: SimConfig, locations: tuple[str, ...]) -> PriceSeries:
    if config.prices is not None:
        series = config.prices
    else:
        series = generate_price_series(locations, config.horizon, config.seed)

    for location in locations:
        if location not in series.prices:
            raise CoverageError(location, 0)
    if series.horizon < config.horizon:
        raise CoverageError(locations[0], series.horizon)
    return series


def _load_policy(config: SimConfig) -> Policy:
    return Policy(
        kind=config.policy,
        model=config.model,
        rng_seed=config.seed,
        power=config.power,
        record_scores=config.log_scores,
    )


def run(config: SimConfig, sample_recorder: SampleRecorder | None = None) -> SimResult:
    """Simulate the scenario hour by hour; deterministic for a fixed config."""
    if config.horizon < 1:
        raise ConfigError("horizon must be >= 1")
    policy = _load_policy(config)
    requests = _load_workload(config)
    state = new_datacenter(config.pm_count, config.pm_template)
    locations = tuple(pm.location for pm in state.pms)
    series = _load_prices(config, locations).prices  # coverage checked there

    arrivals: dict[int, list[WorkloadRequest]] = {}
    for request in requests:
        arrivals.setdefault(request.arrival, []).append(request)

    result = SimResult(
        pm_ids=tuple(pm.id for pm in state.pms),
        pm_locations=locations,
        horizon=config.horizon,
        policy=config.policy,
    )
    price_matrix = np.array([series[loc][: config.horizon] for loc in locations]).T  # [hour][pm]
    utilisation = []  # per hour, over the PMs
    destinations = []  # per hour: the PM each migration went to

    for hour in range(config.horizon):
        state = remove_finished(with_clock(state, hour))
        state = admit(state, arrivals.get(hour, ()))
        pending = list(state.pending.values())

        prices = price_matrix[hour]
        decision = schedule(policy, state.resources, pending, prices, recorder=sample_recorder)

        state = place(state, decision.assignments)
        result.placed += len(decision.assignments)
        migrations = consolidate(policy, state, prices, threshold=config.consolidation_threshold)
        for vm_id, dst in migrations:
            state = migrate(state, vm_id, dst)
        result.migration_count += len(migrations)

        result.deferred = len(decision.deferred)  # the last hour's count stays
        for vm_id in decision.deferred:
            result.deferred_hours[vm_id] = result.deferred_hours.get(vm_id, 0) + 1

        utilisation.append(state.resources.utilisation)  # a built state's columns never change
        destinations.append([dst for _, dst in migrations])

        event = {
            "hour": hour,
            "policy": config.policy,
            "assignments": [list(a) for a in decision.assignments],
            "deferred": list(decision.deferred),
            "migrations": [list(m) for m in migrations],
        }
        if config.log_scores and decision.scores:
            event["scores"] = decision.scores
        result.events.append(event)

    result.utilisation = np.array(utilisation)
    result.pm_billing, result.hourly = step_energy(
        result.utilisation, price_matrix, result.pm_ids, config.power, destinations
    )
    result.totals = reduce(EnergyBreakdown.plus, result.hourly, ZERO_ENERGY)
    return result


def compute_qos(result: SimResult) -> QoSReport:
    """Reduce a run to the headline utilisation / energy / cost metrics."""
    util = result.utilisation
    max_util = float(util.max()) if util.size else 0.0
    mean_active = int(np.count_nonzero(util)) / len(util) if len(util) else 0.0
    return QoSReport(
        max_pm_utilisation=max_util,
        mean_active_pm_count=mean_active,
        total_energy=result.totals.total,
        total_cost=result.totals.cost,
        placed=result.placed,
        deferred=result.deferred,
        migrated=result.migration_count,
    )


@dataclass
class ComparisonTable:
    """A policy comparison: each policy's medians, their deltas, and every run.

    `rows` holds one report per policy with the median of each QoS column
    over its seeds (at an even seed count a count column can be a half).
    `runs` holds `(policy, seed, report)` in policy-major order.
    """

    rows: list[tuple[str, QoSReport]]
    deltas: dict[tuple[str, str], dict[str, float | None]]
    runs: list[tuple[str, int, QoSReport]]


def compare(configs: list[SimConfig], seeds: int = 1) -> ComparisonTable:
    """Run several policies over identical workload/price realizations.

    Each config runs at seeds `config.seed ... config.seed + seeds - 1`;
    the deltas compare the policies' medians.
    """
    if not configs:
        raise ConfigError("compare needs at least one config")
    if seeds < 1:
        raise ConfigError(f"seeds must be at least 1, got {seeds}")
    stripped = [dc_replace(c, policy="first_fit", model=None) for c in configs]
    for i, other in enumerate(stripped[1:], start=1):
        if other != stripped[0]:
            raise ConfigError(
                f"config {i} differs from config 0 beyond policy/model; "
                "comparisons must share workload and price seeds"
            )

    runs = []
    rows = []
    for config in configs:
        reports = []
        for seed in range(config.seed, config.seed + seeds):
            report = compute_qos(run(dc_replace(config, seed=seed)))
            runs.append((config.policy, seed, report))
            reports.append(report)
        rows.append((config.policy, _median_report(reports)))

    deltas: dict[tuple[str, str], dict[str, float | None]] = {}
    for i in range(len(rows)):
        for j in range(i + 1, len(rows)):
            (name_a, a), (name_b, b) = rows[i], rows[j]
            deltas[(name_a, name_b)] = {
                "energy_pct": _pct_delta(a.total_energy, b.total_energy),
                "cost_pct": _pct_delta(a.total_cost, b.total_cost),
            }
    return ComparisonTable(rows=rows, deltas=deltas, runs=runs)


def _median_report(reports: list[QoSReport]) -> QoSReport:
    """The median of each column; one report is its own median."""
    return QoSReport(
        **{
            f.name: statistics.median(getattr(q, f.name) for q in reports)
            for f in fields(QoSReport)
        }
    )


def _pct_delta(base: float, other: float) -> float | None:
    if base == 0:
        return None
    return 100.0 * (other - base) / base


# ---------------------------------------------------------------------------
# Serialization


def result_to_json(result: SimResult) -> str:
    """`json.dumps(doc, sort_keys=True, indent=2, allow_nan=False)` of the run, plus a newline.

    The `[hour][pm]` blocks are written from the run's arrays, one hour at a
    time, formatting each distinct float once; the rest goes through
    `_dumps_indented`.
    """
    doc = {
        "policy": result.policy,
        "horizon": result.horizon,
        "pm_ids": list(result.pm_ids),
        "pm_locations": list(result.pm_locations),
        "hourly_energy": [_breakdown_dict(b) for b in result.hourly],
        "totals": _breakdown_dict(result.totals),
        "events": result.events,
        "deferred_hours": {k: result.deferred_hours[k] for k in sorted(result.deferred_hours)},
        "placed": result.placed,
        "deferred": result.deferred,
        "migrations": result.migration_count,
    }
    texts = {key: _dumps_indented(value, "  ") for key, value in doc.items()}
    texts["utilisation"], texts["powered_on"] = _utilisation_blocks(result.utilisation)
    texts["prices_by_hour"] = _prices_block(result.pm_locations, result.pm_billing.price)
    pieces = []
    for key in sorted(texts):
        pieces += [",\n  ", json.dumps(key), ": ", texts[key]]
    pieces[0] = "{\n  "
    pieces.append("\n}\n")
    return "".join(pieces)  # one copy of each block, straight into the document


def _distinct_texts(values: np.ndarray, *formats) -> tuple[np.ndarray, ...]:
    """`(index, *texts)`: each format applied once per distinct float of `values`.

    Floats are distinct by bit pattern, not by value: -0.0 == 0.0, but they
    print differently.  Each format gets a Python float; `texts[index]` is
    then every cell's text.  The index has `values`' shape and the narrowest
    unsigned type that holds it, because a writer keeps it for the whole run.
    """
    values = np.ascontiguousarray(values, dtype=np.float64)
    bits, index = np.unique(values.view(np.int64), return_inverse=True)
    floats = bits.view(np.float64).tolist()
    index = index.reshape(values.shape).astype(np.min_scalar_type(len(floats)))
    texts = (np.array(list(map(fmt, floats)), dtype=object) for fmt in formats)
    return index, *texts


def _require_finite(values: np.ndarray) -> None:
    """Raise as `json.dumps(..., allow_nan=False)` does on a NaN or an infinity."""
    if not np.isfinite(values).all():
        raise ValueError("Out of range float values are not JSON compliant")


def _json_block(texts: np.ndarray, index: np.ndarray, prefixes: list[str], brackets: str) -> str:
    """A top-level `[hour][pm]` block: hour h's list or dict holds `prefixes[i] + texts[index[h, i]]`.

    It is built one hour at a time, so only that hour's cells are gathered.
    """
    if not prefixes:
        return _json_container("[]", [brackets] * len(index), "  ")
    cells = np.empty((len(prefixes), 2), dtype=object)  # (separator and prefix, text) per PM
    cells[:, 0] = [",\n      " + prefix for prefix in prefixes]
    cells[0, 0] = prefixes[0]
    rows = []
    for row in index:
        cells[:, 1] = texts[row]
        rows.append(_json_container(brackets, ["".join(cells.ravel().tolist())], "    "))
    return _json_container("[]", rows, "  ")


def _utilisation_blocks(utilisation: np.ndarray) -> tuple[str, str]:
    """`utilisation` and `powered_on` (utilisation above 0) as their JSON blocks."""
    _require_finite(utilisation)
    index, floats, powered_on = _distinct_texts(
        utilisation, float.__repr__, lambda u: json.dumps(u > 0)
    )
    prefixes = [""] * index.shape[1]
    return _json_block(floats, index, prefixes, "[]"), _json_block(powered_on, index, prefixes, "[]")


def _prices_block(locations: tuple[str, ...], price: np.ndarray) -> str:
    """`prices_by_hour`: each hour's `dict(zip(locations, price[hour]))`, as JSON."""
    if not len(price):  # a result without billing has a (0, 0) price array
        return "[]"
    # A repeated location keeps its last column, as dict(zip(...)) does.
    last = {location: i for i, location in enumerate(locations)}
    keys = sorted(last)
    price = price[:, [last[key] for key in keys]]
    _require_finite(price)
    index, texts = _distinct_texts(price, float.__repr__)
    return _json_block(texts, index, [json.dumps(key) + ": " for key in keys], "{}")


def _json_container(brackets: str, items: list[str], pad: str) -> str:
    """`json`'s indented layout of a list or dict (`brackets` "[]" or "{}") of encoded items.

    `pad` is the indentation of the line the container starts on.
    """
    if not items:
        return brackets
    inner = pad + "  "
    pieces = [",\n" + inner] * (2 * len(items) + 1)  # items at odd places, separators between
    pieces[0] = brackets[0] + "\n" + inner
    pieces[1::2] = items
    pieces[-1] = "\n" + pad + brackets[1]
    return "".join(pieces)  # one copy of the items


_SCALAR_TYPES = frozenset((str, int, float, bool, type(None)))


def _dumps_indented(value, pad: str) -> str:
    """`json.dumps(value, sort_keys=True, indent=2, allow_nan=False)`, byte for byte.

    `pad` is the indentation of the line the value starts on.  With an
    indent set, `json` runs its pure-Python encoder, so here each list or
    dict whose values are all scalars is one call of the C encoder, with
    the newline and indent folded into its item separator.  Only
    containers of containers recurse in Python.
    """
    if isinstance(value, dict):
        flat = set(map(type, value.values())) <= _SCALAR_TYPES
    elif isinstance(value, (list, tuple)):
        flat = set(map(type, value)) <= _SCALAR_TYPES
    else:
        return json.dumps(value, allow_nan=False)

    inner = pad + "  "
    if flat:
        text = _flat_encoder(inner)(value)
        if len(text) == 2:  # [] or {}
            return text
        return text[0] + "\n" + inner + text[1:-1] + "\n" + pad + text[-1]
    if isinstance(value, dict):
        if not all(type(key) is str for key in value):
            # json converts such keys to strings after sorting; let it.
            text = json.dumps(value, sort_keys=True, indent=2, allow_nan=False)
            return text.replace("\n", "\n" + pad)  # strings hold no raw newline
        items = [
            json.dumps(key) + ": " + _dumps_indented(item, inner)
            for key, item in sorted(value.items())
        ]
        return _json_container("{}", items, pad)
    return _json_container("[]", [_dumps_indented(item, inner) for item in value], pad)


@lru_cache(maxsize=None)
def _flat_encoder(inner: str):
    """The C encoder's `encode` for a flat list or dict whose items sit at `inner`."""
    separators = (",\n" + inner, ": ")
    return json.JSONEncoder(sort_keys=True, allow_nan=False, separators=separators).encode


def _breakdown_dict(b: EnergyBreakdown) -> dict:
    return {
        "processor_kwh": b.processor,
        "cooling_kwh": b.cooling,
        "extra_kwh": b.extra,
        "total_kwh": b.total,
        "cost": b.cost,
    }


def qos_to_json(report: QoSReport) -> str:
    doc = {
        "max_pm_utilisation": report.max_pm_utilisation,
        "mean_active_pm_count": report.mean_active_pm_count,
        "total_energy_kwh": report.total_energy,
        "total_cost": report.total_cost,
        "placed": report.placed,
        "deferred": report.deferred,
        "migrated": report.migrated,
    }
    return json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n"


_CSV_HEADER = "hour,pm,location,processor_kwh,cooling_kwh,extra_kwh,total_kwh,price,cost\n"


def energy_report_csv(result: SimResult) -> str:
    """Per-PM hourly series: fixed 6-decimal formatting for golden files.

    Row by row it is `"%d,%s,%s,%.6f,%.6f,%.6f,%.6f,%.6f,%.6f"` of `(hour,
    pm, location, *PmBilling fields)`, hour-major.
    """
    # join() drains the generator first, so its tables are gone before the copy.
    return "".join(_energy_report_chunks(result))


# Rows per joined block.  One join per hour costs more than the rows it
# writes at small PM counts, so whole hours are gathered up to this many rows.
_CSV_BLOCK_ROWS = 1024


def _energy_report_chunks(result: SimResult, block_rows: int = _CSV_BLOCK_ROWS) -> Iterator[str]:
    """The header, then one string per block of whole hours (at most
    `block_rows` rows, or one hour), formatting each column's distinct
    floats once."""
    yield _CSV_HEADER
    hours, pm_count = result.pm_billing.processor.shape
    if not hours:
        return
    columns = [_distinct_texts(column, ",%.6f".__mod__) for column in result.pm_billing]
    block = min(hours, max(1, block_rows // pm_count)) if pm_count else hours
    cells = np.empty((block, pm_count, len(columns) + 3), dtype=object)  # [hour][pm][cell]
    cells[:, :, 1] = [",%s,%s" % names for names in zip(result.pm_ids, result.pm_locations)]
    cells[:, :, -1] = "\n"
    hour_texts = np.array(["%d" % hour for hour in range(hours)], dtype=object)
    for start in range(0, hours, block):
        stop = min(start + block, hours)
        rows = cells[: stop - start]
        rows[:, :, 0] = hour_texts[start:stop, None]
        for k, (index, texts) in enumerate(columns, start=2):
            rows[:, :, k] = texts[index[start:stop]]
        yield "".join(rows.ravel().tolist())


_encode_event = json.JSONEncoder(sort_keys=True, allow_nan=False).encode


def decision_log_jsonl(result: SimResult) -> str:
    return "".join(_encode_event(event) + "\n" for event in result.events)


_QOS_COLUMNS = "max_util,mean_active_pms,total_kwh,total_cost,placed,deferred,migrations"


def _qos_csv(r: QoSReport) -> str:
    return (
        f"{r.max_pm_utilisation:.6f},{r.mean_active_pm_count:.6f},"
        f"{r.total_energy:.6f},{r.total_cost:.6f},{r.placed},{r.deferred},{r.migrated}"
    )


def comparison_to_csv(table: ComparisonTable) -> str:
    """One row of medians per policy."""
    lines = ["policy," + _QOS_COLUMNS]
    lines += [f"{policy},{_qos_csv(r)}" for policy, r in table.rows]
    return "\n".join(lines) + "\n"


def seed_sweep_to_csv(table: ComparisonTable) -> str:
    """One row per policy and seed, in the order they ran."""
    lines = ["policy,seed," + _QOS_COLUMNS]
    lines += [f"{policy},{seed},{_qos_csv(r)}" for policy, seed, r in table.runs]
    return "\n".join(lines) + "\n"
