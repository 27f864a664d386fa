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
from .util import is_finite_number, is_int
from .workload import WorkloadRequest, generate_synthetic


# (test, description) of each scenario value a config key of the same name
# sets: `SimConfig` checks its fields by them, and the YAML loader its keys.
# numpy seeds take non-negative ints only, and consolidation compares a
# PM's utilisation with the threshold, which NaN or a negative never passes.
SCENARIO_RULES = {
    **dict.fromkeys(("pm_count", "vm_count", "horizon"), (is_int, "an integer")),
    "policy": (lambda v: isinstance(v, str), "a string"),
    "seed": (lambda v: is_int(v) and v >= 0, "a non-negative integer"),
    "consolidation_threshold": (lambda v: is_finite_number(v) and v >= 0, "a finite number >= 0"),
    "log_scores": (lambda v: isinstance(v, bool), "true or false"),
}


@dataclass(frozen=True)
class SimConfig:
    """One scenario; defaults are the 8-PM / 60-VM / 120-hour setup.

    Every input is a value: unset `requests` and `prices` are drawn from
    `seed`.  The fields in `SCENARIO_RULES` are checked by their rules.
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

    def __post_init__(self):
        for name, (test, what) in SCENARIO_RULES.items():
            value = getattr(self, name)
            if not test(value):
                raise ConfigError(f"{name} must be {what}, got {value!r}")


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
    def pm_energy_rows(self) -> Iterator[tuple[int, str, str, EnergyBreakdown, float]]:
        """`(hour, pm, location, breakdown incl. cost, price)` per PM and hour, hour-major.

        A generator: an hour's billing becomes Python floats when it is reached.
        """
        billing = self.pm_billing
        for hour in range(len(billing.processor)):
            rows = zip(self.pm_ids, self.pm_locations, *(col[hour].tolist() for col in billing))
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


def _price_matrix(config: SimConfig, locations: tuple[str, ...]) -> np.ndarray:
    """The run's `[hour][pm]` prices: each PM's location row, cut to the horizon."""
    if config.prices is not None:
        series = config.prices
    else:
        series = generate_price_series(locations, config.horizon, config.seed)

    rows = {location: row for row, location in enumerate(series.locations)}
    for location in locations:
        if location not in rows:
            raise CoverageError(location, 0)
    if series.horizon < config.horizon:
        raise CoverageError(locations[0], series.horizon)
    return series.prices[[rows[location] for location in locations], : config.horizon].T


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
    price_matrix = _price_matrix(config, state.locations)  # coverage checked there

    arrivals: dict[int, list[WorkloadRequest]] = {}
    for request in requests:
        arrivals.setdefault(request.arrival, []).append(request)

    result = SimResult(
        pm_ids=state.resources.pm_ids,
        pm_locations=state.locations,
        horizon=config.horizon,
        policy=config.policy,
    )
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

    Each block is written from its fixed shape: the `[hour][pm]` blocks from
    the run's arrays, one hour at a time, formatting each distinct float
    once; `events` and the energy breakdowns from templates; each flat list
    or dict by one C-encoder call.
    """
    texts = {
        "policy": _quote(result.policy),
        "horizon": json.dumps(result.horizon),
        "pm_ids": _flat_text(result.pm_ids, "  "),
        "pm_locations": _flat_text(result.pm_locations, "  "),
        "hourly_energy": _breakdowns_text(
            _json_container("[]", [_BREAKDOWN.format("    ")] * len(result.hourly), "  "),
            result.hourly,
        ),
        "totals": _breakdowns_text(_BREAKDOWN.format("  "), [result.totals]),
        "events": _events_block(result.events),
        "deferred_hours": _flat_text(result.deferred_hours, "  "),
        "placed": json.dumps(result.placed),
        "deferred": json.dumps(result.deferred),
        "migrations": json.dumps(result.migration_count),
        "prices_by_hour": _prices_block(result.pm_locations, result.pm_billing.price),
    }
    texts["utilisation"], texts["powered_on"] = _utilisation_blocks(result.utilisation)
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


def _distinct_row_texts(columns, fmt: bytes) -> tuple[np.ndarray, np.ndarray]:
    """`(index, texts)`: `fmt % row` once per distinct row of the stacked `columns`,
    as a `_byte_table`.

    Rows are distinct by their floats' bit patterns, as in `_distinct_texts`.
    A lexicographic sort of the rows' bits puts equal rows side by side.
    """
    rows = np.stack(columns, axis=-1).astype(np.float64, copy=False)  # [hour][pm][column]
    bits = rows.reshape(-1, len(columns)).view(np.int64)
    order = np.lexsort(bits.T)
    first = np.zeros(len(order), dtype=bool)  # the first of each run of equal rows
    first[:1] = True
    for column in bits.T:
        column = column[order]
        first[1:] |= column[1:] != column[:-1]
    index = np.empty(len(order), dtype=np.intp)
    index[order] = np.cumsum(first) - 1
    distinct = bits[order[first]].view(np.float64).tolist()
    index = index.reshape(rows.shape[:-1]).astype(np.min_scalar_type(len(distinct)))
    return index, _byte_table([fmt % tuple(row) for row in distinct])


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


_quote = json.encoder.encode_basestring_ascii  # json.dumps' text of a str

# An event's layout in `events`, with its keys in sorted order.  Its items sit at
# 6 spaces, a list's items at 8 and a pair's ids at 10.
_EVENT = (
    '{\n      "assignments": %s,\n      "deferred": %s,\n      "hour": %d,'
    '\n      "migrations": %s,\n      "policy": %s%s\n    }'
)
_PAIR = "[\n          %s,\n          %s\n        ]"

# An `EnergyBreakdown`'s layout, with its keys in sorted order; `{0}` is the
# indentation of the line it starts on.  `_SORTED_FIELDS` puts its fields in
# that order.
_BREAKDOWN = (
    '{{\n{0}  "cooling_kwh": %s,\n{0}  "cost": %s,\n{0}  "extra_kwh": %s,'
    '\n{0}  "processor_kwh": %s,\n{0}  "total_kwh": %s\n{0}}}'
)
_SORTED_FIELDS = [
    EnergyBreakdown._fields.index(f) for f in ("cooling", "cost", "extra", "processor", "total")
]


def _breakdowns_text(layout: str, breakdowns: list[EnergyBreakdown]) -> str:
    """`layout`, one `_BREAKDOWN` per breakdown, filled by one `%` with their fields' texts.

    The fields are read into one array, so no tuple is built per breakdown.
    """
    values = np.array(breakdowns, dtype=np.float64).reshape(-1, len(EnergyBreakdown._fields))
    _require_finite(values)
    return layout % tuple(map(float.__repr__, values[:, _SORTED_FIELDS].ravel().tolist()))


def _events_block(events: list[dict]) -> str:
    """`events` as `json` writes the events `run` records.

    Each event is `hour` (an int), `policy`, `assignments` and `migrations`
    as `[vm, pm]` id pairs, `deferred` ids, and `scores` when they are
    logged.
    """
    items = [
        _EVENT
        % (
            _pairs_text(event["assignments"]),
            _json_container("[]", list(map(_quote, event["deferred"])), "      "),
            event["hour"],
            _pairs_text(event["migrations"]),
            _quote(event["policy"]),
            _scores_text(event),
        )
        for event in events
    ]
    return _json_container("[]", items, "  ")


def _scores_text(event: dict) -> str:
    """An event's logged `scores` (vm id -> pm id -> score) entry, or ""."""
    if "scores" not in event:
        return ""
    scores = event["scores"]
    items = [_quote(vm) + ": " + _flat_text(scores[vm], "        ") for vm in sorted(scores)]
    return ',\n      "scores": ' + _json_container("{}", items, "      ")


def _pairs_text(pairs: list[list[str]]) -> str:
    """An event's `[vm, pm]` pairs, each from one template over its quoted ids."""
    return _json_container("[]", [_PAIR % (_quote(vm), _quote(pm)) for vm, pm in pairs], "      ")


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


def _flat_text(value, pad: str) -> str:
    """`json.dumps(value, sort_keys=True, indent=2, allow_nan=False)` of a flat list or dict.

    `value` holds only scalars; `pad` is the indentation of the line it
    starts on.  With an indent set, `json` runs its pure-Python encoder, so
    this is one call of the C encoder, with the newline and indent folded
    into its item separator.
    """
    inner = pad + "  "
    text = _flat_encoder(inner)(value)
    if len(text) == 2:  # [] or {}
        return text
    return text[0] + "\n" + inner + text[1:-1] + "\n" + pad + text[-1]


@lru_cache(maxsize=None)
def _flat_encoder(inner: str):
    """The C encoder's `encode` for a flat list or dict whose items sit at `inner`."""
    separators = (",\n" + inner, ": ")
    return json.JSONEncoder(sort_keys=True, allow_nan=False, separators=separators).encode


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
    return _flat_text(doc, "") + "\n"


_CSV_HEADER = "hour,pm,location,processor_kwh,cooling_kwh,extra_kwh,total_kwh,price,cost\n"


def energy_report_csv(result: SimResult) -> str:
    """Per-PM hourly series: fixed 6-decimal formatting for golden files.

    Row by row it is `"%d,%s,%s,%.6f,%.6f,%.6f,%.6f,%.6f,%.6f"` of `(hour,
    pm, location, *PmBilling fields)`, hour-major.
    """
    # join() drains the generator first, so its tables are gone before the copy.
    return "".join(_energy_report_chunks(result))


# Rows per block.  One block per hour costs more than the rows it writes at
# small PM counts, so whole hours are gathered up to this many rows.
_CSV_BLOCK_ROWS = 1024

_PAD = 0xFF  # a cell's padding: never a byte of UTF-8, so deleting it leaves the text


def _energy_report_chunks(result: SimResult, block_rows: int = _CSV_BLOCK_ROWS) -> Iterator[str]:
    """The header, then one string per block of whole hours (at most
    `block_rows` rows, or one hour).

    A block is one `uint8` matrix `[hour][pm][byte]`, filled segment by
    segment from byte tables: the hour texts, the `,pm,location` texts, the
    distinct energy-row texts and the price and cost cells.  A table whose
    texts differ in width pads them with `_PAD`, which the block drops
    before it is decoded.
    """
    yield _CSV_HEADER
    billing = result.pm_billing
    hours, pm_count = billing.processor.shape
    if not hours:
        return
    pairs = zip(result.pm_ids, result.pm_locations)
    names = _byte_table([(",%s,%s" % pair).encode("utf-8", "surrogatepass") for pair in pairs])
    hour_texts = _byte_table([b"%d" % hour for hour in range(hours)])
    energy_index, energy_texts = _distinct_row_texts(billing[:4], b",%.6f,%.6f,%.6f,%.6f")
    price, cost = (_fixed6_table(column) for column in billing[4:])  # [hour][pm][byte]
    tables = [hour_texts, names, energy_texts, price, cost]
    ends = np.cumsum([table.shape[-1] for table in tables]).tolist()
    hour_at, name_at, energy_at, price_at, cost_at = map(slice, [0] + ends, ends)

    block = min(hours, max(1, block_rows // pm_count)) if pm_count else hours
    cells = np.empty((block, pm_count, ends[-1] + 1), dtype=np.uint8)  # [hour][pm][byte]
    cells[:, :, name_at] = names
    cells[:, :, -1] = ord("\n")
    for start in range(0, hours, block):
        stop = min(start + block, hours)
        rows = cells[: stop - start]
        rows[:, :, hour_at] = hour_texts[start:stop, None]
        rows[:, :, energy_at] = energy_texts[energy_index[start:stop]]
        rows[:, :, price_at] = price[start:stop]
        rows[:, :, cost_at] = cost[start:stop]
        data = rows.reshape(-1)
        yield str(data[data != _PAD].data, "utf-8", "surrogatepass")


def _byte_table(texts: list[bytes]) -> np.ndarray:
    """`[text][byte]`: the texts left-aligned, each padded with `_PAD` to the longest."""
    lengths = np.fromiter(map(len, texts), dtype=np.intp, count=len(texts))
    width = int(lengths.max(initial=0))
    table = np.array(texts, dtype=f"S{max(width, 1)}").view(np.uint8)
    table = table.reshape(len(texts), max(width, 1))[:, :width]
    table[np.arange(width) >= lengths[:, None]] = _PAD
    return table


# "%03d" % i for i below 1000, one 3-byte item each
_DIGITS3 = np.frombuffer(b"".join(b"%03d" % i for i in range(1000)), dtype="V3")


def _fixed6_table(values: np.ndarray) -> np.ndarray:
    """`values`' shape plus a byte axis: `b",%.6f" % v` of each float, padded as
    `_byte_table` pads.

    `%.6f` rounds the exact `v * 1e6` to an integer, a tie to even.  Its
    float product `y` is at most half a spacing of `y` away from it, so
    where `|frac(y) - 0.5| > 2 * spacing(y)` the exact product lies on the
    same side of every half-integer as `y`, is no tie, and rounds to
    `floor(y) + (frac(y) > 0.5)`; the six decimals come from `_DIGITS3`.
    Every other value goes through `%`: a negative value or -0.0, NaN, an
    infinity, `y >= 2**53` or `y` close to a tie.
    """
    flat = np.ascontiguousarray(values, dtype=np.float64).ravel()
    with np.errstate(over="ignore"):  # a product past the largest float is inf: not exact
        y = flat * 1e6
    exact = ~np.signbit(flat) & (y < 2.0**53)  # NaN fails the comparison
    y[~exact] = 0.0  # so the integer cast below sees finite values only
    whole = np.floor(y)
    frac = y - whole
    exact &= np.abs(frac - 0.5) > 2 * np.spacing(y)
    units, micros = np.divmod(whole.astype(np.int64) + (frac > 0.5), 10**6)

    width = len("%d" % units.max(initial=0))  # the widest integer part
    cells = np.empty((len(flat), width + 8), dtype=np.uint8)
    cells[:, 0] = ord(",")
    for k in range(width):  # the integer part's digits, the last first
        power = 10**k
        digit = units // power % 10 + ord("0")
        cells[:, width - k] = np.where(units >= power, digit, _PAD) if k else digit
    cells[:, width + 1] = ord(".")
    cells[:, width + 2 : width + 5].view("V3")[:, 0] = np.take(_DIGITS3, micros // 1000)
    cells[:, width + 5 :].view("V3")[:, 0] = np.take(_DIGITS3, micros % 1000)

    others = np.flatnonzero(~exact)
    if len(others):
        texts = _byte_table([b",%.6f" % v for v in flat[others].tolist()])
        extra = max(0, texts.shape[1] - cells.shape[1])
        cells = np.pad(cells, ((0, 0), (0, extra)), constant_values=_PAD)
        cells[others] = _PAD
        cells[others, : texts.shape[1]] = texts
    return cells.reshape(*np.shape(values), cells.shape[1])


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
