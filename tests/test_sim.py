import importlib
import json
import statistics
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cloudsched.cells import _fixed6_table, _repr_table
from cloudsched.energy import (
    EnergyBreakdown,
    PriceSeries,
    generate_price_series,
    load_price_series,
)
from cloudsched.errors import ConfigError, CoverageError
from cloudsched.gnn.models import load_model, model_to_json, new_gated_model
from cloudsched.scheduler import MODEL_POLICIES, POLICY_KINDS
from cloudsched.sim import (
    PmBilling,
    QoSReport,
    SimConfig,
    SimResult,
    _BREAKDOWN,
    _CSV_BLOCK_ROWS,
    _breakdowns_text,
    _energy_report_chunks,
    _flat_text,
    _price_matrix,
    compare,
    comparison_to_csv,
    compute_qos,
    decision_log_jsonl,
    energy_report_csv,
    qos_to_json,
    result_to_json,
    run,
    seed_sweep_to_csv,
)
from cloudsched.workload import WorkloadRequest, WorkloadSet, workload_to_json

from conftest import tiny_config, tiny_requests
from helpers import price_series_to_csv
from slow_reference import (
    bill_by_row,
    energy_report_csv_by_fstring,
    price_matrix_by_location,
    qos_by_row,
    result_to_json_by_dict,
)
from test_goldens import DATA, SCENARIO

REL = 1e-9
NAN = float("nan")
INF = float("inf")
BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


class TestRun:
    def test_default_scenario_completes(self):
        cfg = SimConfig(seed=42)
        result = run(cfg)
        assert len(result.hourly) == 120
        q = compute_qos(result)
        assert q.placed + q.deferred == 60
        # capacity sanity: utilisation is a fraction per PM per hour
        assert all(0.0 <= u <= 1.0 for row in result.utilisation for u in row)

    def test_empty_run_zero_energy(self):
        cfg = tiny_config(requests=(), horizon=1)
        result = run(cfg)
        assert result.totals.total == 0.0
        assert compute_qos(result).total_cost == 0.0

    def test_tiny_golden_file(self, data_dir):
        result = run(tiny_config())
        assert result_to_json(result) == (data_dir / "tiny_golden.json").read_text()

    def test_tiny_hand_values(self):
        result = run(tiny_config())
        assert result.hourly[0].total == pytest.approx(0.2025, rel=REL)
        assert result.hourly[2].total == pytest.approx(0.16875, rel=REL)
        assert result.totals.total == pytest.approx(0.57375, rel=REL)
        assert result.totals.cost == pytest.approx(0.057375, rel=REL)

    def test_conservation_totals_vs_hourly(self):
        result = run(SimConfig(seed=7))
        assert result.totals.total == pytest.approx(
            sum(b.total for b in result.hourly), rel=REL
        )
        assert result.totals.cost == pytest.approx(
            sum(b.cost for b in result.hourly), rel=REL
        )

    def test_energy_lower_bound(self):
        result = run(SimConfig(seed=3))
        powered_on = (result.utilisation > 0).tolist()
        floor = sum(sum(row) for row in powered_on) * 0.1
        assert result.totals.processor >= floor - 1e-9

    def test_determinism_byte_identical(self):
        a = result_to_json(run(SimConfig(seed=11)))
        b = result_to_json(run(SimConfig(seed=11)))
        assert a == b

    def test_no_vm_overruns_or_bilocates(self):
        # replay the decision log into per-hour occupancy and check each VM
        # sits on exactly one PM per hour, for at most `duration` hours
        from cloudsched.workload import generate_synthetic

        result = run(SimConfig(seed=5))
        requests = {r.id: r for r in generate_synthetic(60, 120, 5).requests}
        host: dict[str, str] = {}
        start: dict[str, int] = {}
        hours_run: dict[str, int] = {}
        for event in result.events:
            hour = event["hour"]
            for vm in list(host):
                if hour >= start[vm] + requests[vm].duration:
                    del host[vm]
            for vm, pm in event["assignments"]:
                assert vm not in host, f"{vm} assigned while already running"
                assert hour >= requests[vm].arrival
                host[vm] = pm
                start[vm] = hour
            for vm, pm in event["migrations"]:
                assert vm in host and host[vm] != pm
                host[vm] = pm
            for vm in host:
                hours_run[vm] = hours_run.get(vm, 0) + 1
        for vm, hours in hours_run.items():
            assert hours <= requests[vm].duration

    def test_deferral_accounting(self):
        # one VM can never fit (ram 17 > 16): deferred every hour, never placed
        impossible = WorkloadRequest(
            id="vm-huge", cpu_frequency=2000, cores=1, ram=17, duration=4, arrival=0
        )
        cfg = tiny_config(requests=tiny_requests() + (impossible,))
        result = run(cfg)
        q = compute_qos(result)
        assert q.placed == 3 and q.deferred == 1
        assert result.deferred_hours["vm-huge"] == 3

    def test_price_coverage_checked_before_hour_zero(self):
        short = PriceSeries(("loc-0", "loc-1"), [(0.1,), (0.1,)])
        with pytest.raises(CoverageError):
            run(tiny_config(prices=short))

    def test_missing_location_rejected(self):
        wrong = PriceSeries(("elsewhere",), [(0.1, 0.1, 0.1)])
        with pytest.raises(CoverageError):
            run(tiny_config(prices=wrong))

    def test_model_policy_needs_model(self):
        with pytest.raises(ConfigError):
            run(tiny_config(policy="counter"))

    def test_duplicate_ids_rejected(self):
        dup = tiny_requests()[:1] + tiny_requests()[:1]
        with pytest.raises(ConfigError):
            run(tiny_config(requests=dup))

    def test_late_arrival_rejected(self):
        late = (
            WorkloadRequest(id="vm-l", cpu_frequency=2000, cores=1, ram=1, duration=1, arrival=3),
        )
        with pytest.raises(ConfigError):
            run(tiny_config(requests=late))


class TestSimConfigChecks:
    # Each field a config key sets is checked when the scenario is made,
    # by the rule and message the YAML loader uses; before, these ended
    # in a bare TypeError or numpy's ValueError, or (a NaN or negative
    # threshold) ran with consolidation silently off.
    @pytest.mark.parametrize(
        "field,value,message",
        [
            ("pm_count", True, "pm_count must be an integer, got True"),
            ("vm_count", 1.5, "vm_count must be an integer, got 1.5"),
            ("horizon", 2.5, "horizon must be an integer, got 2.5"),
            ("policy", 3, "policy must be a string, got 3"),
            ("seed", -1, "seed must be a non-negative integer, got -1"),
            ("consolidation_threshold", NAN, "consolidation_threshold must be a finite number >= 0, got nan"),
            ("consolidation_threshold", -1, "consolidation_threshold must be a finite number >= 0, got -1"),
            ("log_scores", "yes", "log_scores must be true or false, got 'yes'"),
        ],
        ids=["pm-count-bool", "vm-count-float", "horizon-float", "policy-int", "seed-negative",
             "threshold-nan", "threshold-negative", "log-scores-string"],
    )  # fmt: skip
    def test_a_bad_field_is_a_config_error(self, field, value, message):
        with pytest.raises(ConfigError) as info:
            SimConfig(**{field: value})
        assert str(info.value) == message
        with pytest.raises(ConfigError):  # `replace` checks too
            replace(SimConfig(), **{field: value})

    def test_threshold_edges_run(self):
        for threshold in (0, 0.0, 1.5):
            run(tiny_config(consolidation_threshold=threshold))


class TestComputeQos:
    def test_31_of_32_cores(self):
        result = SimResult(
            pm_ids=("pm-0",), pm_locations=("loc-0",), horizon=1, policy="first_fit",
            utilisation=np.array([[31 / 32]]),
        )
        assert compute_qos(result).max_pm_utilisation == 0.96875

    def test_empty_run(self):
        result = SimResult(
            pm_ids=("pm-0",), pm_locations=("loc-0",), horizon=0, policy="first_fit"
        )
        q = compute_qos(result)
        assert q.max_pm_utilisation == 0.0 and q.total_cost == 0.0

    def test_tiny_hand_qos(self):
        q = compute_qos(run(tiny_config()))
        assert q == QoSReport(
            max_pm_utilisation=0.5,
            mean_active_pm_count=1.0,
            total_energy=pytest.approx(0.57375, rel=REL),
            total_cost=pytest.approx(0.057375, rel=REL),
            placed=3,
            deferred=0,
            migrated=0,
        )


class TestCompare:
    def test_two_policy_structure(self):
        table = compare([tiny_config("first_fit"), tiny_config("best_fit_energy")])
        assert [p for p, _ in table.rows] == ["first_fit", "best_fit_energy"]
        assert ("first_fit", "best_fit_energy") in table.deltas
        delta = table.deltas[("first_fit", "best_fit_energy")]
        assert set(delta) == {"energy_pct", "cost_pct"}

    def test_single_config_no_deltas(self):
        table = compare([tiny_config()])
        assert len(table.rows) == 1 and table.deltas == {}

    def test_mismatched_seeds_rejected(self):
        with pytest.raises(ConfigError):
            compare([tiny_config(), tiny_config(seed=1)])

    def test_mismatched_scenario_rejected(self):
        with pytest.raises(ConfigError):
            compare([tiny_config(), tiny_config(horizon=4)])

    def test_equal_generated_prices_share_a_scenario(self):
        first, second = (generate_price_series(("loc-0", "loc-1"), 3, seed=7) for _ in range(2))
        assert first == second and first is not second
        table = compare([tiny_config(prices=first), tiny_config("random", prices=second)])
        assert [policy for policy, _ in table.rows] == ["first_fit", "random"]

    def test_prices_one_ulp_apart_rejected(self):
        prices = generate_price_series(("loc-0", "loc-1"), 3, seed=7)
        nudged = prices.prices.copy()
        nudged[1, 2] = np.nextafter(nudged[1, 2], np.inf)
        other = PriceSeries(prices.locations, nudged)
        with pytest.raises(ConfigError, match="differs from config 0"):
            compare([tiny_config(prices=prices), tiny_config("random", prices=other)])

    def test_csv_format(self):
        table = compare([tiny_config()])
        lines = comparison_to_csv(table).splitlines()
        assert lines[0] == "policy,max_util,mean_active_pms,total_kwh,total_cost,placed,deferred,migrations"
        assert lines[1].startswith("first_fit,0.500000,1.000000,0.573750,")

    def test_seed_sweep_keeps_every_run_and_reports_medians(self):
        configs = [
            SimConfig(pm_count=4, vm_count=12, horizon=10, policy=policy, seed=2)
            for policy in ("first_fit", "random")
        ]
        table = compare(configs, seeds=3)
        assert [(p, s) for p, s, _ in table.runs] == [
            (p, s) for p in ("first_fit", "random") for s in (2, 3, 4)
        ]
        for policy, seed, report in table.runs:
            config = configs[0] if policy == "first_fit" else configs[1]
            assert report == compute_qos(run(replace(config, seed=seed)))
        for policy, medians in table.rows:
            reports = [q for p, _, q in table.runs if p == policy]
            for f in fields(QoSReport):
                column = [getattr(q, f.name) for q in reports]
                assert getattr(medians, f.name) == statistics.median(column)
        (a, first), (b, second) = table.rows
        assert table.deltas[(a, b)]["energy_pct"] == pytest.approx(
            100 * (second.total_energy - first.total_energy) / first.total_energy, rel=REL
        )

    def test_one_seed_is_one_run_per_policy(self):
        table = compare([tiny_config("first_fit"), tiny_config("best_fit_energy")])
        assert table.runs == [(p, 0, q) for p, q in table.rows]

    @pytest.mark.parametrize("seeds", [0, -1])
    def test_no_seeds_rejected(self, seeds):
        with pytest.raises(ConfigError, match="seeds"):
            compare([tiny_config()], seeds=seeds)

    def test_seed_sweep_csv_format(self):
        table = compare([tiny_config(), tiny_config("random")], seeds=2)
        lines = seed_sweep_to_csv(table).splitlines()
        assert lines[0] == (
            "policy,seed,max_util,mean_active_pms,total_kwh,total_cost,placed,deferred,migrations"
        )
        assert [line.split(",")[:2] for line in lines[1:]] == [
            ["first_fit", "0"], ["first_fit", "1"], ["random", "0"], ["random", "1"]
        ]
        assert lines[1] == "first_fit,0,0.500000,1.000000,0.573750,0.057375,3,0,0"


class TestSerialization:
    def test_energy_report_csv_shape(self):
        text = energy_report_csv(run(tiny_config()))
        lines = text.splitlines()
        assert lines[0] == "hour,pm,location,processor_kwh,cooling_kwh,extra_kwh,total_kwh,price,cost"
        assert len(lines) == 1 + 3 * 2  # 3 hours x 2 PMs
        assert lines[1] == "0,pm-0,loc-0,0.150000,0.045000,0.007500,0.202500,0.100000,0.020250"

    def test_decision_log_is_jsonl(self):
        text = decision_log_jsonl(run(tiny_config()))
        events = [json.loads(line) for line in text.splitlines()]
        assert [e["hour"] for e in events] == [0, 1, 2]
        assert events[0]["assignments"] == [["vm-a", "pm-0"], ["vm-b", "pm-0"]]

    def test_result_json_parses(self):
        doc = json.loads(result_to_json(run(tiny_config())))
        assert doc["placed"] == 3
        assert doc["totals"]["total_kwh"] == pytest.approx(0.57375, rel=REL)

    @pytest.mark.parametrize("policy", ["first_fit", "best_fit_energy"])
    def test_energy_report_matches_fstring_writer(self, policy):
        result = run(SimConfig(policy=policy, **SCENARIO))
        assert energy_report_csv(result) == energy_report_csv_by_fstring(result.pm_energy_rows)

    def test_pm_energy_rows_read_as_the_benchmark_reads_them(self, monkeypatch):
        monkeypatch.syspath_prepend(str(BENCHMARKS))  # bench imports its siblings by name
        sweep_problems = importlib.import_module("bench").sweep_problems
        result = run(SimConfig(policy="best_fit_energy", **SCENARIO))
        count = 0
        for count, row in enumerate(result.pm_energy_rows, start=1):
            hour, pm, location, b, price = row
            assert row[3] is b and type(hour) is int and type(price) is float
            assert location == "loc-" + pm.removeprefix("pm-")
            assert b.total == b.processor + b.cooling + b.extra
            assert b.cost == b.total * price
        assert count == SCENARIO["pm_count"] * SCENARIO["horizon"]
        # the checks benchmarks/bench.py runs on every sweep operation
        qos = compute_qos(result)
        assert sweep_problems(result, qos, SCENARIO["vm_count"]) == []

    def test_hourly_aggregates_are_left_folds_of_the_pm_rows(self):
        # The builtin sum of floats is compensated from Python 3.12 on, so
        # the aggregates must equal this explicit loop on every version.
        result = run(SimConfig(policy="first_fit", **SCENARIO))
        folds = [[0.0] * 4 for _ in range(SCENARIO["horizon"])]
        for hour, _pm, _location, b, _price in result.pm_energy_rows:
            fold = folds[hour]
            fold[0] += b.processor
            fold[1] += b.cooling
            fold[2] += b.extra
            fold[3] += b.cost
        for hourly, (processor, cooling, extra, cost) in zip(result.hourly, folds):
            assert hourly == EnergyBreakdown.make(processor, cooling, extra, cost)


_FLAT_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**100), max_value=2**100)
    | st.floats()  # NaN and infinity included: both writers must reject them
    | st.sampled_from([0.0, -0.0, 1e-300, 1.7976931348623157e308])
    | st.text()
    | st.sampled_from(["]", "}", "[", "{", "],\n  [", ""])
)
_FLAT_DOCUMENTS = (
    st.lists(_FLAT_SCALARS, max_size=6)
    | st.lists(_FLAT_SCALARS, max_size=4).map(tuple)
    | st.dictionaries(st.text(max_size=8), _FLAT_SCALARS, max_size=6)
)


@settings(max_examples=100, deadline=None)
@given(_FLAT_DOCUMENTS, st.sampled_from(["", "  ", "        "]))
def test_indented_writer_matches_json_dumps(doc, pad):
    # `_flat_text` writes each flat list or dict of result.json and qos.json.
    try:
        expected = json.dumps(doc, sort_keys=True, indent=2, allow_nan=False)
    except ValueError:
        with pytest.raises(ValueError, match="JSON compliant"):
            _flat_text(doc, pad)
    else:
        assert _flat_text(doc, pad) == expected.replace("\n", "\n" + pad)


@pytest.mark.parametrize(
    "doc",
    [{}, [], ["é", "\n", "\u2028", -0.0, 10**30, None, True]],
    ids=["empty-dict", "empty-list", "scalars"],
)
def test_indented_writer_edge_cases(doc):
    assert _flat_text(doc, "") == json.dumps(doc, sort_keys=True, indent=2, allow_nan=False)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_indented_writer_rejects_non_finite(bad):
    for write in (
        lambda: _flat_text({"a": 1.0, "b": bad}, "  "),
        lambda: _flat_text([bad], ""),
        lambda: _breakdowns_text(_BREAKDOWN.format("  "), [EnergyBreakdown(1.0, 0.0, 0.0, bad)]),
    ):
        with pytest.raises(ValueError, match="JSON compliant"):
            write()


_CSV_FLOATS = st.floats() | st.sampled_from([-0.0, 0.0000005, 0.0000015, 2.5e-7, 1e22])
# A small pool, so one array often holds both 0.0 and -0.0 (equal values
# that print differently) and repeats: a writer that caches a value's text
# by value rather than by bits fails.
_FLOAT_POOL = st.sampled_from([0.0, -0.0, 5e-324, 0.25, 1e22])


def _matrix(draw, hours: int, pm_count: int, cells) -> np.ndarray:
    """An `[hour][pm]` float array drawn from `cells` or from the small pool."""
    cell = draw(st.sampled_from([cells, _FLOAT_POOL]))
    values = draw(st.lists(cell, min_size=hours * pm_count, max_size=hours * pm_count))
    return np.array(values, dtype=float).reshape(hours, pm_count)


def _near_rows(draw, hours: int, pm_count: int) -> list[np.ndarray]:
    """Billing columns whose rows repeat a few rows that differ from one base row
    in one column, often only in the sign of a zero."""
    base = draw(st.lists(_CSV_FLOATS | _FLOAT_POOL, min_size=6, max_size=6))
    rows = [base]
    for column in draw(st.lists(st.integers(min_value=0, max_value=5), min_size=1, max_size=3)):
        rows.append(base[:column] + [draw(_FLOAT_POOL)] + base[column + 1 :])
    picks = draw(st.lists(st.sampled_from(rows), min_size=hours * pm_count, max_size=hours * pm_count))
    table = np.array(picks, dtype=float).reshape(hours, pm_count, 6)
    return [table[..., k] for k in range(6)]


@st.composite
def _billed_results(draw, max_hours=4):
    """A `SimResult` holding only billing columns, of any floats and PM names."""
    hours = draw(st.integers(min_value=0, max_value=max_hours))
    pm_count = draw(st.integers(min_value=0, max_value=4))
    names = st.lists(st.text(max_size=6), min_size=pm_count, max_size=pm_count).map(tuple)
    if draw(st.booleans()):
        columns = _near_rows(draw, hours, pm_count)
    else:
        columns = [_matrix(draw, hours, pm_count, _CSV_FLOATS) for _ in PmBilling._fields]
    return SimResult(
        pm_ids=draw(names),
        pm_locations=draw(names),
        horizon=hours,
        policy="p",
        pm_billing=PmBilling(*columns),
    )


@settings(max_examples=50, deadline=None)
@given(_billed_results())
def test_energy_report_matches_fstring_writer_on_any_rows(result):
    assert energy_report_csv(result) == energy_report_csv_by_fstring(result.pm_energy_rows)


@settings(max_examples=50, deadline=None)
@given(_billed_results(max_hours=9), st.integers(min_value=1, max_value=7))
def test_energy_report_blocks_of_any_size_match_fstring_writer(result, block_rows):
    # Small blocks, so most horizons end in a part block and some blocks
    # hold fewer rows than one hour has PMs.
    text = "".join(_energy_report_chunks(result, block_rows))
    assert text == energy_report_csv_by_fstring(result.pm_energy_rows)


@settings(max_examples=8, deadline=None)
@given(
    st.sampled_from([(130, 8), (7, 300), (2, _CSV_BLOCK_ROWS), (3, _CSV_BLOCK_ROWS + 1)]),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_energy_report_full_size_blocks_match_fstring_writer(shape, seed):
    # At the writer's own block size: 130 hours of 8 PMs are one full block
    # of 128 hours and a part block; 7 hours of 300 PMs are two blocks of 3
    # and one of 1; above 1,024 PMs each hour is a block of its own.
    hours, pm_count = shape
    rng = np.random.default_rng(seed)
    pool = np.concatenate([rng.uniform(-2.0, 2.0, 40), [0.0, -0.0, NAN, INF, 1e22, 5e-7, 2.5e-7]])
    result = SimResult(
        pm_ids=tuple(f"pm-{i}" for i in range(pm_count)),
        pm_locations=tuple(f"loc-{i % 3}" for i in range(pm_count)),
        horizon=hours,
        policy="p",
        pm_billing=PmBilling(*[rng.choice(pool, (hours, pm_count)) for _ in PmBilling._fields]),
    )
    assert energy_report_csv(result) == energy_report_csv_by_fstring(result.pm_energy_rows)


def test_energy_report_names_round_trip_any_str():
    # NUL, a Latin-1 letter, a CJK one and a lone surrogate in ids and
    # locations of different widths, so the names table is padded.
    rng = np.random.default_rng(7)
    ids = ("pm-\x00", "\xff", "\u65e5\u672c", "a\ud800b", "")
    result = SimResult(
        pm_ids=ids,
        pm_locations=tuple(reversed(ids)),
        horizon=12,
        policy="p",
        pm_billing=PmBilling(*[rng.uniform(0.0, 3.0, (12, len(ids))) for _ in PmBilling._fields]),
    )
    expected = energy_report_csv_by_fstring(result.pm_energy_rows)
    for block_rows in (_CSV_BLOCK_ROWS, 7, 1):  # one block, part blocks, blocks below one hour
        text = "".join(_energy_report_chunks(result, block_rows))
        assert text.encode("utf-8", "surrogatepass") == expected.encode("utf-8", "surrogatepass")


def _fixed6_texts(values) -> list[str]:
    """`_fixed6_table`'s cells of `values` as texts, their padding deleted."""
    table = _fixed6_table(np.array(values, dtype=np.float64))
    return [row.tobytes().replace(b"\xff", b"").decode("ascii") for row in table]


_LIMIT = 2**53 / 1e6  # above it `y = v * 1e6` has no fraction bits
_KERNEL_FLOATS = (
    st.floats()
    | st.floats(min_value=0.0, max_value=2 * _LIMIT)
    | st.integers(min_value=0, max_value=2**45).map(lambda k: (2 * k + 1) * 2.0**-7)  # exact ties
    | st.integers(min_value=-(2**12), max_value=2**12).map(lambda k: _LIMIT + k * np.spacing(_LIMIT))
    | st.integers(min_value=-(2**20), max_value=2**20).map(lambda k: (k + 0.5) / 1e6)  # near ties
    | st.sampled_from([0.0, -0.0, 5e-324, 2.5e-7, 5e-7, 1.5e-6, 1e22, NAN, INF, -INF, _LIMIT])
)


@settings(max_examples=200, deadline=None)
@given(st.lists(_KERNEL_FLOATS, max_size=12))
def test_fixed_point_cells_equal_percent_format(values):
    assert _fixed6_texts(values) == [",%.6f" % v for v in values]


def test_fixed_point_cells_on_every_tie_and_width():
    # Every exact tie below 40 (odd multiples of 2**-7) and every integer-part
    # width up to the kernel's limit, each next to its neighbouring floats.
    ties = (2 * np.arange(40 * 64) + 1) * 2.0**-7
    widths = 10.0 ** np.arange(10) - 1e-7
    values = np.concatenate([ties, widths, np.nextafter(ties, 0), np.nextafter(widths, np.inf)])
    assert _fixed6_texts(values) == [",%.6f" % v for v in values.tolist()]
    assert _fixed6_table(np.zeros((3, 0))).shape == (3, 0, 9)


def _repr_cell_texts(values) -> list[str]:
    """`_repr_table`'s cells of `values` as texts, their padding deleted."""
    table = _repr_table(np.array(values, dtype=np.float64))
    return [row.tobytes().replace(b"\xff", b"").decode("ascii") for row in table]


# Powers of two (where the gap below is half the gap above), powers of ten
# (where E changes) and the kernel's own range ends.
_REPR_EDGES = np.concatenate(
    [2.0 ** np.arange(-40, 61), 10.0 ** np.arange(-5, 18), [1e-4, 1e15, 1e16]]
)


def _stepped(x: float, steps: int) -> float:
    """The float `steps` floats above `x` (below it for negative steps); `x` > 0."""
    return float((np.float64(x).view(np.int64) + steps).view(np.float64))


_REPR_FLOATS = (
    st.floats(allow_nan=False, allow_infinity=False)
    | st.builds(  # 1 to 17 significant digits, around and inside the kernel's range
        lambda digits, exponent: float(f"{digits}e{exponent}"),
        st.integers(min_value=1, max_value=17).flatmap(
            lambda n: st.integers(min_value=10 ** (n - 1), max_value=10**n - 1)
        ),
        st.integers(min_value=-25, max_value=17),
    )
    | st.builds(_stepped, st.sampled_from(_REPR_EDGES.tolist()), st.integers(-3, 3))
)


@settings(max_examples=200, deadline=None)
@given(st.lists(_REPR_FLOATS, max_size=12))
def test_repr_cells_equal_float_repr(values):
    assert _repr_cell_texts(values) == [repr(v) for v in values]


def test_repr_cells_on_every_edge_and_price():
    # Each edge with its eight neighbours on each side, and the seeded price
    # matrix of a 128-PM run, which the kernel writes without the fallback.
    steps = np.arange(-8, 9)
    edges = (_REPR_EDGES.view(np.int64)[:, None] + steps).view(np.float64).ravel()
    prices = generate_price_series(tuple(f"loc-{i}" for i in range(128)), 120, 0).prices
    values = np.concatenate([edges, prices.ravel()])
    assert _repr_cell_texts(values) == [repr(v) for v in values.tolist()]
    assert _repr_table(np.zeros((3, 0))).shape[:2] == (3, 0)


_JSON_FLOATS = st.floats(allow_nan=False, allow_infinity=False) | _FLOAT_POOL


# Ids holding JSON's escapes and brackets, non-ASCII or nothing at all.
_IDS = st.text(st.sampled_from('"\\[]{}\n é\u65e5a'), max_size=4) | st.text(max_size=4)
_PAIRS = st.lists(st.lists(_IDS, min_size=2, max_size=2), max_size=3)


@st.composite
def _events(draw, hour: int) -> dict:
    """One hour's event as `run` records it; `scores` (vm -> pm -> score) in some."""
    event = {
        "hour": hour,
        "policy": draw(_IDS),
        "assignments": draw(_PAIRS),
        "deferred": draw(st.lists(_IDS, max_size=3)),
        "migrations": draw(_PAIRS),
    }
    if draw(st.booleans()):
        scores = st.dictionaries(_IDS, st.dictionaries(_IDS, _JSON_FLOATS, max_size=3), max_size=3)
        event["scores"] = draw(scores)
    return event


@st.composite
def _json_results(draw):
    """A `SimResult` of any finite floats and ids, with repeated and non-ASCII locations."""
    hours = draw(st.integers(min_value=0, max_value=4))
    pm_count = draw(st.integers(min_value=0, max_value=4))
    locations = st.lists(
        st.sampled_from(["loc-0", "loc-1", "é", "\u65e5\u672c", ""]),
        min_size=pm_count,
        max_size=pm_count,
    )
    breakdowns = st.lists(_JSON_FLOATS, min_size=5, max_size=5).map(lambda v: EnergyBreakdown(*v))
    price = _matrix(draw, hours, pm_count, _JSON_FLOATS)  # the only billing column it writes
    return SimResult(
        pm_ids=tuple(f"pm-{i}" for i in range(pm_count)),
        pm_locations=tuple(draw(locations)),
        horizon=hours,
        policy="p",
        utilisation=_matrix(draw, hours, pm_count, _JSON_FLOATS),
        hourly=draw(st.lists(breakdowns, min_size=hours, max_size=hours)),
        pm_billing=PmBilling(*[price] * len(PmBilling._fields)),
        events=[draw(_events(hour)) for hour in range(hours)],
        deferred_hours=draw(st.dictionaries(_IDS, st.integers(min_value=1, max_value=2**40))),
        totals=draw(breakdowns),
    )


@settings(max_examples=50, deadline=None)
@given(_json_results())
def test_result_json_matches_dict_writer_on_any_result(result):
    assert result_to_json(result) == result_to_json_by_dict(result)


def test_result_json_matches_dict_writer_on_large_blocks():
    # 30 hours of 40 PMs whose locations repeat and hold escapes and
    # non-ASCII text; kernel cells beside fallback cells of other widths.
    rng = np.random.default_rng(11)
    hours, pm_count = 30, 40
    names = ["loc-0", "é", "日本", "", 'a"b\\', "loc-1", "\ud800"]
    pool = [0.0, -0.0, 0.5, 1.0, -2.5, 5e-324, 1e-5, 1e15, 1e16, 123456789012345.6, 1e300]

    def cells(low, high):
        values = rng.uniform(low, high, (hours, pm_count))
        picked = rng.random((hours, pm_count)) < 0.1
        values[picked] = rng.choice(pool, picked.sum())
        return values

    price = cells(0.05, 0.15)
    result = SimResult(
        pm_ids=tuple(f"pm-{i}" for i in range(pm_count)),
        pm_locations=tuple(names[i % len(names)] for i in rng.permutation(pm_count)),
        horizon=hours,
        policy="p",
        utilisation=np.round(cells(0.0, 1.0), 3),
        pm_billing=PmBilling(*[price] * len(PmBilling._fields)),
    )
    assert result_to_json(result) == result_to_json_by_dict(result)
    for block in (result.utilisation, price):  # the last PM's price is written
        for bad in (NAN, INF, -INF):
            block[17, -1], kept = bad, block[17, -1]
            with pytest.raises(ValueError, match="JSON compliant"):
                result_to_json(result)
            block[17, -1] = kept


def test_energy_report_writes_non_finite_cells():
    # Unlike the JSON writers, the CSV keeps `%.6f`'s text for them.
    result = run(tiny_config())
    result.pm_billing.price[1, 0] = NAN
    result.pm_billing.cost[1, 0] = -INF
    assert energy_report_csv(result).splitlines()[3].split(",")[-2:] == ["nan", "-inf"]


MODELS = {policy: load_model(DATA / f"{policy}.json") for policy in MODEL_POLICIES}


def _check_against_row_billing(config: SimConfig):
    """Run the scenario and compare its billing with the per-row reference."""
    result = run(config)
    prices = generate_price_series(result.pm_locations, config.horizon, config.seed)
    hourly, totals, rows = bill_by_row(result, prices, config.power)
    assert result.hourly == hourly
    assert result.totals == totals
    assert list(result.pm_energy_rows) == rows
    assert energy_report_csv(result) == energy_report_csv_by_fstring(rows)
    return result


@pytest.mark.parametrize("policy", POLICY_KINDS)
def test_qos_matches_row_formula_on_golden_runs(policy):
    result = run(SimConfig(policy=policy, model=MODELS.get(policy), **SCENARIO))
    q = compute_qos(result)
    assert (q.max_pm_utilisation, q.mean_active_pm_count) == qos_by_row(result)
    assert type(q.max_pm_utilisation) is float and type(q.mean_active_pm_count) is float


@pytest.mark.parametrize("policy", MODEL_POLICIES)
def test_columnar_billing_matches_row_reference_with_migrations(policy):
    result = _check_against_row_billing(
        SimConfig(policy=policy, model=MODELS[policy], **SCENARIO)
    )
    assert result.migration_count > 0  # so penalties are billed on destinations


# Long horizons leave stragglers on part-empty PMs, so the learned
# policies migrate in about a third of these scenarios.
@settings(max_examples=40, deadline=None)
@given(
    policy=st.sampled_from(POLICY_KINDS),
    pm_count=st.integers(min_value=1, max_value=8),
    vms_per_pm=st.integers(min_value=1, max_value=8),
    horizon=st.integers(min_value=1, max_value=72),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_columnar_billing_matches_row_reference(policy, pm_count, vms_per_pm, horizon, seed):
    config = SimConfig(
        pm_count=pm_count,
        vm_count=pm_count * vms_per_pm,
        horizon=horizon,
        policy=policy,
        model=MODELS.get(policy),
        seed=seed,
    )
    _check_against_row_billing(config)


@st.composite
def priced_scenarios(draw):
    """A small run whose price series lists its PMs' locations in any order,
    with repeats and unused locations, over at least the run's horizon,
    generated or read back from its CSV; and PM locations that share rows."""
    pm_count = draw(st.integers(min_value=1, max_value=5))
    horizon = draw(st.integers(min_value=1, max_value=8))
    needed = [f"loc-{i}" for i in range(pm_count)]
    extra = draw(st.lists(st.sampled_from(needed + ["elsewhere", "loc-9"]), max_size=6))
    listed = draw(st.permutations(needed + extra))
    longer = horizon + draw(st.integers(min_value=0, max_value=4))
    series = generate_price_series(listed, longer, draw(st.integers(0, 2**32)))
    if draw(st.booleans()):
        series = load_price_series(price_series_to_csv(series))
    config = SimConfig(pm_count=pm_count, vm_count=2 * pm_count, horizon=horizon, prices=series)
    shared = draw(st.lists(st.sampled_from(series.locations), min_size=1, max_size=8))
    return config, tuple(shared)


@settings(max_examples=40, deadline=None)
@given(priced_scenarios())
def test_run_prices_match_per_location_tuple_stacking(scenario):
    config, shared = scenario
    result = run(config)
    cases = [(result.pm_billing.price, result.pm_locations), (_price_matrix(config, shared), shared)]
    for got, pm_locations in cases:
        expected = price_matrix_by_location(config.prices, pm_locations, config.horizon)
        assert got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()


def _nan_result():
    result = run(tiny_config())
    result.totals = EnergyBreakdown.make(NAN, 0.0, 0.0)
    return result


def _non_finite_cell(column: str, bad: float):
    """The tiny run with one `[hour][pm]` cell of `utilisation` or a billing column set to `bad`."""
    result = run(tiny_config())
    cells = result.utilisation if column == "utilisation" else getattr(result.pm_billing, column)
    cells[1, 0] = bad
    return result


def _non_finite_hourly(field: str, bad: float):
    """The tiny run with one field of one hour's `hourly` breakdown set to `bad`."""
    result = run(tiny_config())
    result.hourly[1] = result.hourly[1]._replace(**{field: bad})
    return result


def _nan_score():
    """A counter run that logs its scores, with one logged score set to NaN."""
    result = run(tiny_config("counter", model=MODELS["counter"], log_scores=True))
    scores = next(event["scores"] for event in result.events if "scores" in event)
    pm_scores = scores[min(scores)]
    pm_scores[max(pm_scores)] = NAN
    return result


def _nan_event():
    result = run(tiny_config())
    result.events[0]["score"] = NAN
    return result


def _nan_model():
    model = new_gated_model(seed=0)
    model.readout_b[0] = NAN
    return model


def _nan_workload():
    request = WorkloadRequest(id="vm-0", cpu_frequency=NAN, cores=1, ram=1, duration=1, arrival=0)
    return WorkloadSet(requests=(request,))


@pytest.mark.parametrize(
    "write",
    [
        lambda: result_to_json(_nan_result()),
        lambda: result_to_json(_non_finite_cell("utilisation", NAN)),
        lambda: result_to_json(_non_finite_cell("utilisation", -INF)),
        lambda: result_to_json(_non_finite_cell("price", NAN)),
        lambda: result_to_json(_non_finite_cell("price", INF)),
        lambda: result_to_json(_non_finite_hourly("processor", NAN)),
        lambda: result_to_json(_non_finite_hourly("cost", INF)),
        lambda: result_to_json(_non_finite_hourly("total", -INF)),
        lambda: result_to_json(_nan_score()),
        lambda: qos_to_json(replace(compute_qos(run(tiny_config())), total_cost=NAN)),
        lambda: decision_log_jsonl(_nan_event()),
        lambda: model_to_json(_nan_model()),
        lambda: workload_to_json(_nan_workload()),
    ],
    ids=[
        "result",
        "result-utilisation-nan",
        "result-utilisation-inf",
        "result-price-nan",
        "result-price-inf",
        "result-hourly-nan",
        "result-hourly-inf",
        "result-hourly-neg-inf",
        "result-score-nan",
        "qos",
        "decisions",
        "checkpoint",
        "workload",
    ],
)
def test_json_writers_reject_nan(write):
    # JSON has no NaN: a writer raises rather than emit a non-standard token.
    with pytest.raises(ValueError, match="JSON compliant"):
        write()
