import math
from functools import reduce

import numpy as np
import pytest
from dataclasses import replace
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from cloudsched.datacenter import DEFAULT_PM_TEMPLATE, admit, new_datacenter, place, snapshot
from cloudsched.energy import (
    DEFAULT_POWER_MODEL,
    EnergyBreakdown,
    PowerModel,
    PriceSeries,
    ZERO_ENERGY,
    generate_price_series,
    load_price_series,
    pm_power,
    step_energy,
)
from cloudsched.errors import DomainError, NotFoundError, TraceFormatError
from cloudsched.workload import WorkloadRequest

from helpers import price_series_to_csv
from slow_reference import bill_by_hour, prices_by_scalar_draws

REL = 1e-9


def bill_one_hour(snap, model=DEFAULT_POWER_MODEL, migrations=()):
    """`step_energy` of one unpriced hour in the snapshot's state: `(columns, aggregate)`.

    The columns are that hour's processor, cooling and extra energy per PM.
    """
    billing, (aggregate,) = step_energy(
        snap.utilisation[None], np.zeros((1, len(snap))), snap.pm_ids, model, [migrations]
    )
    return tuple(column[0] for column in billing[:3]), aggregate


def approx(x, rel=REL):
    return pytest.approx(x, rel=rel, abs=1e-15)


class TestPmPower:
    def test_idle_endpoint(self):
        assert pm_power(0.0, True) == 100.0

    def test_peak_endpoint(self):
        assert pm_power(1.0, True) == 200.0

    def test_linear_midpoint(self):
        assert pm_power(0.5, True) == 150.0

    def test_powered_off(self):
        assert pm_power(0.7, False) == 0.0

    def test_domain(self):
        with pytest.raises(DomainError):
            pm_power(1.1, True)
        with pytest.raises(DomainError):
            pm_power(-0.1, True)


class TestEnergyBreakdown:
    def test_make_sums_the_parts(self):
        b = EnergyBreakdown.make(0.1, 0.2, 0.3, cost=0.5)
        parts = (b.processor, b.cooling, b.extra, b.total, b.cost)
        assert parts == (0.1, 0.2, 0.3, 0.1 + 0.2 + 0.3, 0.5)
        assert EnergyBreakdown.make(1.0, 2.0, 3.0).cost == 0.0
        assert EnergyBreakdown(1.0, 2.0, 3.0, 6.0).cost == 0.0

    def test_plus_adds_each_part_and_resums_the_total(self):
        a = EnergyBreakdown.make(0.1, 0.2, 0.3, 1.0)
        b = EnergyBreakdown.make(0.7, 0.11, 0.13, 2.0)
        total = a.plus(b)
        assert total == EnergyBreakdown.make(0.1 + 0.7, 0.2 + 0.11, 0.3 + 0.13, 3.0)
        assert total.total == (0.1 + 0.7) + (0.2 + 0.11) + (0.3 + 0.13)
        assert type(total) is EnergyBreakdown

    def test_zero_energy(self):
        assert ZERO_ENERGY == EnergyBreakdown(0.0, 0.0, 0.0, 0.0, 0.0)
        b = EnergyBreakdown.make(0.25, 0.5, 0.125, 3.0)
        assert ZERO_ENERGY.plus(b) == b

    def test_fields_in_order(self):
        assert EnergyBreakdown._fields == ("processor", "cooling", "extra", "total", "cost")
        b = EnergyBreakdown.make(1.0, 2.0, 4.0, 8.0)
        with pytest.raises(AttributeError):
            b.total = 0.0  # a breakdown is a value


class TestStepEnergy:
    def test_idle_on_pm_one_hour(self):
        # 32-core PM hosting nothing cannot be powered on, so use the
        # smallest VM and the exact linear formula to pin the idle block.
        state = new_datacenter(1)
        request = WorkloadRequest(
            id="w", cpu_frequency=2000, cores=1, ram=1, duration=4, arrival=0
        )
        state = admit(state, [request])
        state = place(state, [("w", "pm-0")])
        columns, agg = bill_one_hour(snapshot(state), DEFAULT_POWER_MODEL)
        watts = 100.0 + 100.0 * (1 / 32)
        assert agg.processor == approx(watts / 1000)
        assert agg.cooling == approx(0.3 * watts / 1000)
        assert agg.extra == approx(0.05 * watts / 1000)
        assert agg.total == approx(1.35 * watts / 1000)
        assert columns == ([agg.processor], [agg.cooling], [agg.extra])
        assert sum(column[0] for column in columns) == approx(agg.total)

    def test_exact_idle_arithmetic(self):
        # the stated constants: idle-on PM for 1 h, k=0.3, eta=0.05
        processor = 100.0 * 1.0 / 1000.0
        b = EnergyBreakdown.make(processor, 0.3 * processor, 0.05 * processor)
        assert b.processor == approx(0.1)
        assert b.cooling == approx(0.03)
        assert b.extra == approx(0.005)
        assert b.total == approx(0.135)

    def test_all_off_zero(self):
        _, agg = bill_one_hour(snapshot(new_datacenter(3)))
        assert agg == EnergyBreakdown.make(0.0, 0.0, 0.0)

    def test_migration_penalty_isolated(self):
        _, agg = bill_one_hour(snapshot(new_datacenter(2)), migrations=["pm-0", "pm-1"])
        assert agg.extra == approx(0.02)
        assert agg.total == approx(0.02)
        assert agg.processor == 0.0

    def test_penalty_lands_on_destination(self):
        (processor, _, extra), agg = bill_one_hour(
            snapshot(new_datacenter(2)), migrations=["pm-1"]
        )
        assert extra[1] == approx(0.01)
        assert extra[0] == 0.0
        assert processor.tolist() == [0.0, 0.0]
        assert agg.extra == approx(0.01)

    def test_penalty_to_an_unknown_pm_raises(self):
        with pytest.raises(NotFoundError, match="pm-9"):
            bill_one_hour(snapshot(new_datacenter(2)), migrations=["pm-1", "pm-9"])


class TestGeneratePriceSeries:
    def test_construction_bounds(self):
        series = generate_price_series(["a", "b", "c"], 100, seed=5)
        for prices in series.prices.values():
            assert all(0.01 <= p <= 0.15 for p in prices)

    def test_determinism(self):
        a = generate_price_series(["a", "b"], 24, seed=3)
        b = generate_price_series(["a", "b"], 24, seed=3)
        assert a == b

    def test_cardinality(self):
        series = generate_price_series(["a", "b"], 24, seed=3)
        assert sum(len(p) for p in series.prices.values()) == 48

    @staticmethod
    def assert_same_prices(series, expected):
        """Same keys in the same order, and every price the same float to the bit."""
        assert series.horizon == expected.horizon
        assert list(series.prices) == list(expected.prices)
        for location, prices in expected.prices.items():
            assert [p.hex() for p in series.prices[location]] == [p.hex() for p in prices]

    @pytest.mark.parametrize(
        "locations,horizon,seed",
        [
            (["a"], 1, 0),
            ([], 5, 0),
            (["a", "b", "a"], 3, 1),
            (["loc-0", "loc-1"], 48, 2**63 - 1),
        ],
        ids=["horizon-1", "no-locations", "duplicates", "max-seed"],
    )
    def test_matches_scalar_draws_at_the_edges(self, locations, horizon, seed):
        self.assert_same_prices(
            generate_price_series(locations, horizon, seed),
            prices_by_scalar_draws(locations, horizon, seed),
        )

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.sampled_from([f"loc-{i}" for i in range(12)]), max_size=40),
        st.integers(min_value=1, max_value=200),
        st.integers(min_value=0, max_value=2**63 - 1),
    )
    def test_matches_scalar_draws(self, locations, horizon, seed):
        self.assert_same_prices(
            generate_price_series(locations, horizon, seed),
            prices_by_scalar_draws(locations, horizon, seed),
        )


def rejects_by_generator(prices: dict) -> str | None:
    """The first location a per-price generator scan finds a negative in, else None."""
    for location, series in prices.items():
        if any(p < 0 for p in series):
            return location
    return None


# NaN compares false both ways, so a running minimum that meets one first
# never moves; -0.0 is not negative; ints of any size compare exactly.
_PRICES = (
    st.floats()
    | st.sampled_from([float("nan"), -0.0, 0.0, -5e-324, float("-inf")])
    | st.integers()
    | st.booleans()
)


@st.composite
def price_tables(draw):
    """`{location: prices}` with every series one horizon long."""
    horizon = draw(st.integers(min_value=0, max_value=6))
    series = st.lists(_PRICES, min_size=horizon, max_size=horizon).map(tuple)
    count = draw(st.integers(min_value=1, max_value=4))
    return horizon, {f"loc-{i}": draw(series) for i in range(count)}


@settings(max_examples=150, deadline=None)
@given(price_tables())
def test_price_series_sign_check_matches_a_generator_scan(table):
    horizon, prices = table
    bad = rejects_by_generator(prices)
    if bad is None:
        PriceSeries(prices=prices, horizon=horizon)
    else:
        with pytest.raises(DomainError, match=f"location '{bad}' has a negative price"):
            PriceSeries(prices=prices, horizon=horizon)


@pytest.mark.parametrize(
    "series, negative",
    [
        ((float("nan"), -1.0), True),
        ((1.0, float("nan"), -1.0), True),
        ((float("nan"), 1.0), False),
        ((-0.0, 0.0), False),
        ((2, -(10**400)), True),
        ((10**400, 0.5), False),
        ((), False),
    ],
    ids=["nan-first", "nan-between", "nan-only", "negative-zero", "huge-negative-int", "huge-int", "empty"],
)
def test_price_series_sign_check_edges(series, negative):
    prices = {"a": series}
    if negative:
        with pytest.raises(DomainError, match="'a' has a negative price"):
            PriceSeries(prices=prices, horizon=len(series))
    else:
        PriceSeries(prices=prices, horizon=len(series))


class TestLoadPriceSeries:
    def test_fixture(self, data_dir):
        series = load_price_series((data_dir / "prices_small.csv").read_bytes())
        assert series.horizon == 3
        assert series.prices["loc-0"][0] == 0.10
        assert series.prices["loc-1"][2] == 0.14

    def test_negative_price(self):
        with pytest.raises(TraceFormatError, match="negative"):
            load_price_series("hour,a\n0,-0.5\n")

    def test_missing_hour(self):
        with pytest.raises(TraceFormatError, match="missing hour 2"):
            load_price_series("hour,a\n0,0.1\n1,0.1\n3,0.1\n")

    def test_non_finite_price(self):
        for cell in ("nan", "inf", "-inf"):
            with pytest.raises(TraceFormatError, match="line 2: non-finite price for 'loc-0'"):
                load_price_series(f"hour,loc-0\n0,{cell}\n1,0.1\n")

    def test_repeated_location_is_a_header_error(self):
        with pytest.raises(TraceFormatError, match="line 1: location 'loc-0' repeats"):
            load_price_series("hour,loc-0,loc-0\n0,0.1,0.1\n1,0.1,0.1\n")

    def test_ragged_row(self):
        with pytest.raises(TraceFormatError, match="line 3"):
            load_price_series("hour,a,b\n0,0.1,0.2\n1,0.1\n")

    def test_round_trip(self):
        series = generate_price_series(["a", "b"], 12, seed=9)
        assert load_price_series(price_series_to_csv(series)) == series


def make_snapshot(core_counts):
    """One 32-core PM per entry, hosting a VM with the given core count (0 = off)."""
    state = new_datacenter(max(len(core_counts), 1), replace(DEFAULT_PM_TEMPLATE, ram=64))
    for i, cores in enumerate(core_counts):
        if cores:
            r = WorkloadRequest(
                id=f"w{i}", cpu_frequency=2000, cores=cores, ram=1, duration=4, arrival=0
            )
            state = admit(state, [r])
            state = place(state, [(f"w{i}", f"pm-{i}")])
    return snapshot(state)


core_lists = st.lists(st.integers(min_value=0, max_value=32), min_size=1, max_size=5)


@settings(max_examples=40, deadline=None)
@given(core_lists)
def test_additivity_two_hours(cores):
    snap = make_snapshot(cores)
    _, one = bill_one_hour(snap)
    _, hourly = step_energy(
        np.repeat(snap.utilisation[None], 2, axis=0), np.zeros((2, len(snap))), snap.pm_ids
    )
    assert hourly == [one, one]
    two = reduce(EnergyBreakdown.plus, hourly, ZERO_ENERGY)
    assert two.total == pytest.approx(2 * one.total, rel=REL)


@settings(max_examples=40, deadline=None)
@given(core_lists)
def test_eq1_closure_and_lower_bound(cores):
    snap = make_snapshot(cores)
    columns, agg = bill_one_hour(snap)
    assert agg.total == pytest.approx(agg.processor + agg.cooling + agg.extra, rel=REL)
    assert all(len(column) == len(cores) for column in columns)
    assert (agg.processor, agg.cooling, agg.extra) == tuple(sum(column) for column in columns)
    per_pm_totals = [p + c + e for p, c, e in zip(*columns)]
    assert agg.total == pytest.approx(math.fsum(per_pm_totals), rel=REL)
    powered = sum(1 for c in cores if c)
    assert agg.processor >= powered * 100.0 / 1000.0 - 1e-12


@settings(max_examples=40, deadline=None)
@given(core_lists, core_lists)
def test_monotone_in_utilisation(a, b):
    # same PM count and power-on pattern, higher utilisation everywhere
    n = min(len(a), len(b))
    a, b = a[:n], b[:n]
    lo = [min(x, y) for x, y in zip(a, b)]
    hi = [max(x, y) for x, y in zip(a, b)]
    if [bool(x) for x in lo] != [bool(x) for x in hi]:
        return  # power-on sets differ; monotonicity contract does not apply
    _, lo_agg = bill_one_hour(make_snapshot(lo))
    _, hi_agg = bill_one_hour(make_snapshot(hi))
    assert hi_agg.processor >= lo_agg.processor - 1e-12


@st.composite
def runs_to_bill(draw):
    """`(utilisation, prices, pm_ids, power, migrations)` of a 1-30 hour, 1-12 PM run.

    The `[hour][pm]` arrays are drawn as arrays, which costs far fewer
    draws than one list element per cell.  Each hour has up to six
    migrations, one per non-negative cell of a `[hour][6]` array of PM rows.
    """
    hours, pm_count = draw(st.integers(1, 30)), draw(st.integers(1, 12))
    cores = draw(st.sampled_from([24, 32, 48]))
    shape = (hours, pm_count)
    utilisation = draw(hnp.arrays(np.int64, shape, elements=st.integers(0, cores))) / cores
    prices = draw(hnp.arrays(np.float64, shape, elements=st.floats(0.0, 1.0)))
    pm_ids = tuple(f"pm-{i}" for i in range(pm_count))
    moves = draw(hnp.arrays(np.int64, (hours, 6), elements=st.integers(-1, pm_count - 1)))
    migrations = [[pm_ids[row] for row in hour if row >= 0] for hour in moves.tolist()]
    power = PowerModel(
        idle_power=draw(st.sampled_from([100.0, 97.3])),
        peak_power=draw(st.sampled_from([200.0, 251.7])),
        migration_penalty=draw(st.sampled_from([0.01, 0.037])),
    )
    return utilisation, prices, pm_ids, power, migrations


def hexes(breakdown):
    return [float.hex(value) for value in breakdown]


@settings(max_examples=150, deadline=None)
@given(runs_to_bill())
def test_billing_a_run_once_equals_billing_it_hour_by_hour(run):
    utilisation, prices, pm_ids, power, migrations = run
    billing, hourly = step_energy(utilisation, prices, pm_ids, power, migrations)
    columns, hourly_ref, totals_ref = bill_by_hour(utilisation, prices, pm_ids, power, migrations)
    for column, reference in zip(billing, columns):
        assert column.shape == reference.shape
        assert column.tobytes() == reference.tobytes()
    assert [hexes(b) for b in hourly] == [hexes(b) for b in hourly_ref]
    # `run` adds the hours up this way
    assert hexes(reduce(EnergyBreakdown.plus, hourly, ZERO_ENERGY)) == hexes(totals_ref)


def test_power_model_validation():
    with pytest.raises(DomainError):
        PowerModel(idle_power=0.0)
    with pytest.raises(DomainError):
        PowerModel(idle_power=300.0, peak_power=200.0)
    with pytest.raises(DomainError):
        PowerModel(cooling_coefficient=-0.1)
