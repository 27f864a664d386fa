"""Energy decomposition, electricity pricing, and cost accounting.

Total energy per interval splits into processor, cooling and extra
components.  The processor part follows a linear power model between
idle and peak wattage; cooling and extra overheads are proportional to
it, with a flat per-migration penalty folded into extra.  A run is billed
once, after its last hour: `step_energy` takes the run's `[hour][pm]`
utilisation and prices and returns every PM-hour's energy and cost.
"""

from __future__ import annotations

import csv
import io
import math
from collections import Counter
from dataclasses import dataclass, fields
from typing import NamedTuple, Sequence

import numpy as np

from .errors import DomainError, NotFoundError, TraceFormatError
from .util import FINITE_NUMBER, check_array_shape, check_rules, decode_utf8

WATTS_PER_KW = 1000.0


@dataclass(frozen=True)
class PowerModel:
    idle_power: float = 100.0  # watts
    peak_power: float = 200.0
    cooling_coefficient: float = 0.3  # cooling kWh per processor kWh
    extra_coefficient: float = 0.05  # switches/lighting kWh per processor kWh
    migration_penalty: float = 0.01  # kWh per migration

    def __post_init__(self):
        check_rules(vars(self), POWER_RULES, DomainError, "power {}")
        if not (0 < self.idle_power <= self.peak_power):
            raise DomainError("need 0 < idle_power <= peak_power")
        if min(self.cooling_coefficient, self.extra_coefficient, self.migration_penalty) < 0:
            raise DomainError("coefficients and penalty must be >= 0")


# Every power value is a finite number: `PowerModel` checks its fields by
# this table, and the YAML loader its `power:` keys.
POWER_RULES = dict.fromkeys((f.name for f in fields(PowerModel)), FINITE_NUMBER)
DEFAULT_POWER_MODEL = PowerModel()


class EnergyBreakdown(NamedTuple):
    """One interval's energy split and its cost.

    A named tuple, not a dataclass, because `pm_energy_rows` builds one per
    PM and hour: a tuple is built without `__init__` or per-field `setattr`.
    """

    processor: float  # kWh
    cooling: float
    extra: float
    total: float
    cost: float = 0.0  # currency units

    @classmethod
    def make(cls, processor: float, cooling: float, extra: float, cost: float = 0.0):
        return cls(processor, cooling, extra, processor + cooling + extra, cost)

    def plus(self, other: "EnergyBreakdown") -> "EnergyBreakdown":
        return EnergyBreakdown.make(
            self.processor + other.processor,
            self.cooling + other.cooling,
            self.extra + other.extra,
            self.cost + other.cost,
        )


ZERO_ENERGY = EnergyBreakdown.make(0.0, 0.0, 0.0)


def pm_power(utilisation, powered_on, model: PowerModel = DEFAULT_POWER_MODEL):
    """Instantaneous draw in watts: linear between idle and peak, 0 when off.

    Works elementwise on arrays (returning an array) as well as on one PM
    (returning a float).
    """
    util = np.asarray(utilisation, dtype=float)
    inside = (0.0 <= util) & (util <= 1.0)
    if not inside.all():
        raise DomainError(f"utilisation {util[~inside]} outside [0, 1]")
    draw = model.idle_power + (model.peak_power - model.idle_power) * util
    watts = np.where(powered_on, draw, 0.0)
    return watts if watts.ndim else float(watts)


class PmBilling(NamedTuple):
    """Per-PM billing columns: row h holds interval h, column i PM i.

    The fields are in `energy_report.csv`'s column order.
    """

    processor: np.ndarray  # kWh
    cooling: np.ndarray
    extra: np.ndarray
    total: np.ndarray
    price: np.ndarray  # per kWh at the PM's location
    cost: np.ndarray


def step_energy(
    utilisation: np.ndarray,
    prices: np.ndarray,
    pm_ids: Sequence[str],
    model: PowerModel = DEFAULT_POWER_MODEL,
    migrations: Sequence[Sequence[str]] = (),
) -> tuple[PmBilling, list[EnergyBreakdown]]:
    """Bill a whole run at once: every PM's energy and cost, and each hour's sums.

    `utilisation` and `prices` are `[hour][pm]` arrays, and a PM is
    powered on in an hour when its utilisation is above zero.
    `migrations` holds one list per hour (or none at all) of the
    destination PM id of each migration; each 0.01 kWh (default) penalty
    lands on the destination's extra component so it is billed at that
    PM's price, and a destination not in `pm_ids` raises `NotFoundError`.
    The per-PM parts are computed elementwise, and each hour's
    aggregate adds them up one PM at a time, in PM order: a left fold, as
    `np.add.reduce` (pairwise) and the builtin `sum` (compensated from
    Python 3.12 on) are not.
    """
    watts = pm_power(utilisation, utilisation > 0, model)
    processor = watts / WATTS_PER_KW
    cooling = model.cooling_coefficient * processor
    extra = model.extra_coefficient * processor
    rows = {pm_id: row for row, pm_id in enumerate(pm_ids)}
    for hour, destinations in enumerate(migrations):
        for pm_id, count in Counter(destinations).items():
            if pm_id not in rows:
                raise NotFoundError(f"migration to unknown PM {pm_id!r}")
            extra[hour, rows[pm_id]] += model.migration_penalty * count
    total = processor + cooling + extra
    cost = total * prices
    billing = PmBilling(processor, cooling, extra, total, prices, cost)

    parts = np.stack((processor, cooling, extra, cost), axis=-1)  # [hour][pm][part]
    sums = np.zeros(parts.shape[::2])
    for column in parts.swapaxes(0, 1):  # one PM's [hour][part], in PM order
        sums += column
    return billing, [EnergyBreakdown.make(*row) for row in sums.tolist()]


def _as_float(price) -> float:
    """`float(price)`, or an infinity of its sign for an int past float range."""
    try:
        return float(price)
    except OverflowError:
        return math.inf if price > 0 else -math.inf


@dataclass(frozen=True, eq=False)
class PriceSeries:
    """Hourly prices over [0, horizon): row i of the read-only float64 matrix
    `prices` is location i's.  Prices are finite and >= 0; equality is bitwise."""

    locations: tuple[str, ...]
    prices: np.ndarray

    def __post_init__(self):
        locations = tuple(self.locations)
        try:
            matrix = np.array(self.prices, dtype=np.float64, order="C", copy=None)
        except OverflowError:
            matrix = np.array([[_as_float(p) for p in row] for row in self.prices])
        except ValueError as exc:  # ragged rows or a non-number
            raise DomainError(f"prices must be one row of numbers per location: {exc}") from None
        if matrix.ndim != 2 or not len(matrix) == len(set(locations)) == len(locations):
            raise DomainError(f"need one price row per distinct location, got {matrix.shape}")
        fine = (matrix >= 0) & np.isfinite(matrix)  # NaN fails both
        if not fine.all():
            row = int(fine.all(axis=1).argmin())
            problem = "negative" if (matrix[row] < 0).any() else "non-finite"
            raise DomainError(f"location {locations[row]!r} has a {problem} price")
        matrix.flags.writeable = False
        object.__setattr__(self, "locations", locations)
        object.__setattr__(self, "prices", matrix)

    @property
    def horizon(self) -> int:
        return self.prices.shape[1]

    def __eq__(self, other):
        if not isinstance(other, PriceSeries):
            return NotImplemented
        return self is other or (self.locations, self.horizon, self.prices.tobytes()) == (
            other.locations, other.horizon, other.prices.tobytes()
        )


def generate_price_series(locations: Sequence[str], horizon: int, seed: int) -> PriceSeries:
    """Per-location daily sinusoid around 0.10/kWh with seeded phase and noise.

    One call draws a row of horizon + 1 uniforms u per location: the phase,
    then each hour's noise, in the order scalar draws would take them.
    `uniform(lo, hi)` is lo + (hi - lo) * u, so the phase is 24.0 * u and
    the noise -0.01 + 0.02 * u, bit for bit.  The sine is libm's
    `math.sin`, whose result does not depend on numpy's SIMD paths.
    A location listed twice keeps its last row, in first-seen order.
    """
    if horizon < 1:
        raise DomainError("horizon must be >= 1")
    check_array_shape((len(locations), horizon + 1), 8, f"horizon {horizon}")
    rng = np.random.default_rng(seed)
    u = rng.random((len(locations), horizon + 1))
    rows = {location: row for row, location in enumerate(locations)}
    if len(rows) < len(locations):
        u = u[list(rows.values())]
    phase = 24.0 * u[:, :1]
    noise = -0.01 + 0.02 * u[:, 1:]
    angle = 2.0 * math.pi * (np.arange(horizon) + phase) / 24.0
    sine = np.fromiter(map(math.sin, angle.ravel().tolist()), float, angle.size)
    base = 0.10 + 0.04 * sine.reshape(angle.shape)
    return PriceSeries(tuple(rows), np.maximum(0.01, base + noise))


def load_price_series(content: bytes | str) -> PriceSeries:
    """Parse the `hour,<loc>,...` CSV format, checking coverage, signs, finiteness
    and that no location repeats."""
    try:
        rows = list(csv.reader(io.StringIO(decode_utf8(content, "price file"))))
    except csv.Error as exc:
        raise TraceFormatError(f"malformed price CSV: {exc}") from None
    rows = [r for r in rows if r and any(c.strip() for c in r)]
    if not rows:
        raise TraceFormatError("empty price file")
    header = [c.strip() for c in rows[0]]
    if not header or header[0] != "hour" or len(header) < 2:
        raise TraceFormatError("header must be 'hour,<location>,...'", line=1)
    locations = header[1:]
    repeated = [loc for loc, count in Counter(locations).items() if count > 1]
    if repeated:
        raise TraceFormatError(f"location {repeated[0]!r} repeats in the header", line=1)

    columns: list[list[float]] = [[] for _ in locations]
    for lineno, row in enumerate(rows[1:], start=2):
        expected_hour = lineno - 2
        if len(row) != len(header):
            raise TraceFormatError(
                f"expected {len(header)} cells, got {len(row)}", line=lineno
            )
        try:
            hour = int(row[0])
            values = [float(c) for c in row[1:]]
        except ValueError:
            raise TraceFormatError("non-numeric cell", line=lineno) from None
        if hour != expected_hour:
            raise TraceFormatError(
                f"missing hour {expected_hour} (found {hour})", line=lineno
            )
        for loc, value, column in zip(locations, values, columns):
            if not math.isfinite(value):
                raise TraceFormatError(f"non-finite price for {loc!r}", line=lineno)
            if value < 0:
                raise TraceFormatError(f"negative price for {loc!r}", line=lineno)
            column.append(value)

    horizon = len(rows) - 1
    if horizon == 0:
        raise TraceFormatError("price file has a header but no rows")
    return PriceSeries(tuple(locations), np.array(columns))
