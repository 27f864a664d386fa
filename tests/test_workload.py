import json

import pytest
from hypothesis import given, settings, strategies as st

from cloudsched.errors import DomainError, TraceFormatError
from cloudsched.workload import (
    TraceSample,
    VmTrace,
    derive_request,
    generate_synthetic,
    parse_trace_file,
    workload_from_json,
    workload_to_json,
)

from helpers import serialize_trace
from slow_reference import synthetic_by_scalar_draws

HEADER = (
    "Timestamp [ms];CPU cores;CPU capacity provisioned [MHZ];"
    "CPU usage [MHZ];Memory capacity provisioned [KB]"
)


class TestParseTraceFile:
    def test_fixture_field_by_field(self, data_dir):
        trace = parse_trace_file((data_dir / "bitbrains_sample.csv").read_bytes(), name="fx")
        assert trace.vm_name == "fx"
        assert len(trace.samples) == 4
        first = trace.samples[0]
        assert first.timestamp_ms == 0
        assert first.cores == 4
        assert first.provisioned_capacity_mhz == 11703.998
        assert first.cpu_usage_mhz == 368.417
        assert first.provisioned_memory_kb == 67108864
        assert trace.clamped_rows == 0

    def test_single_row(self):
        content = HEADER + "\n0;4;11703.998;368.417;67108864\n"
        trace = parse_trace_file(content)
        assert len(trace.samples) == 1
        assert trace.samples[0].cores == 4

    def test_header_only(self):
        trace = parse_trace_file(HEADER + "\n")
        assert trace.samples == ()

    def test_usage_clamped_to_capacity(self):
        content = HEADER + "\n0;2;4000;5000;1048576\n"
        trace = parse_trace_file(content)
        assert trace.samples[0].cpu_usage_mhz == 4000
        assert trace.clamped_rows == 1

    def test_missing_column_named(self):
        bad = HEADER.replace("CPU cores;", "")
        with pytest.raises(TraceFormatError, match="cpu cores"):
            parse_trace_file(bad + "\n")

    def test_non_numeric_cell_reports_line(self):
        content = HEADER + "\n0;4;1000;500;1048576\n300000;oops;1000;500;1048576\n"
        with pytest.raises(TraceFormatError, match="line 3"):
            parse_trace_file(content)

    @pytest.mark.parametrize(
        "row",
        ["300000;4;nan;500;1048576", "300000;4;1000;500;inf", "inf;4;1000;500;1048576"],
        ids=["nan-capacity", "inf-memory", "inf-timestamp"],
    )
    def test_non_finite_cell_reports_line(self, row):
        content = HEADER + "\n0;4;1000;500;1048576\n" + row + "\n"
        with pytest.raises(TraceFormatError, match="line 3: non-finite cell"):
            parse_trace_file(content)

    def test_empty_file(self):
        with pytest.raises(TraceFormatError, match="empty"):
            parse_trace_file(b"")

    def test_timestamps_must_increase(self):
        content = HEADER + "\n1000;4;1000;500;1048576\n1000;4;1000;500;1048576\n"
        with pytest.raises(TraceFormatError, match="not increasing"):
            parse_trace_file(content)


trace_samples = st.lists(
    st.tuples(
        st.integers(min_value=1, max_value=3_000_000),  # timestamp deltas
        st.integers(min_value=1, max_value=32),
        st.floats(min_value=100.0, max_value=120_000.0, allow_nan=False),
        st.floats(min_value=0.0, max_value=120_000.0, allow_nan=False),
        st.floats(min_value=1024.0, max_value=1.3e8, allow_nan=False),
    ),
    min_size=1,
    max_size=12,
)


def build_trace(raw) -> VmTrace:
    ts = 0
    samples = []
    clamped = 0
    for delta, cores, capacity, usage, memory in raw:
        ts += delta
        if usage > capacity:
            usage = capacity
            clamped += 1
        samples.append(TraceSample(ts, cores, capacity, usage, memory))
    return VmTrace(vm_name="prop", samples=tuple(samples), clamped_rows=clamped)


@given(trace_samples)
def test_serialize_parse_round_trip(raw):
    trace = build_trace(raw)
    back = parse_trace_file(serialize_trace(trace), name="prop")
    assert back.samples == trace.samples
    assert back.clamped_rows == 0  # serialized traces are already clamped


class TestDeriveRequest:
    def test_fixture_hand_computed(self, data_dir):
        trace = parse_trace_file((data_dir / "bitbrains_sample.csv").read_bytes(), name="fx")
        req = derive_request(trace, arrival=5)
        # 90-minute span, 4 cores, 11703.998 MHz capacity, 64 GiB provisioned
        assert req.cores == 4
        assert req.cpu_frequency == 2926  # round(11703.998 / 4)
        assert req.ram == 64
        assert req.duration == 2
        assert req.arrival == 5

    def test_duration_clamped_to_48(self):
        samples = (
            TraceSample(0, 2, 4000, 100, 1048576),
            TraceSample(200 * 3_600_000, 2, 4000, 100, 1048576),
        )
        req = derive_request(VmTrace("t", samples), arrival=0)
        assert req.duration == 48

    def test_frequency_clamped_up(self):
        samples = (TraceSample(0, 2, 2000, 100, 1048576),)  # 1000 MHz per core
        req = derive_request(VmTrace("t", samples), arrival=0)
        assert req.cpu_frequency == 1600

    def test_empty_trace(self):
        with pytest.raises(DomainError):
            derive_request(VmTrace("t", ()), arrival=0)

    def test_all_zero_cores_names_trace(self):
        content = HEADER + "\n0;0;4000;100;1048576\n3600000;0;4000;100;1048576\n"
        trace = parse_trace_file(content, name="idle-vm")
        with pytest.raises(TraceFormatError, match="'idle-vm'"):
            derive_request(trace, arrival=0)

    @given(trace_samples)
    def test_never_exceeds_largest_pm(self, raw):
        req = derive_request(build_trace(raw), arrival=0)
        assert 1 <= req.cores <= 32
        assert 1 <= req.ram <= 64
        assert 1600 <= req.cpu_frequency <= 3400
        assert 1 <= req.duration <= 48


class TestGenerateSynthetic:
    def test_default_scenario_bounds(self):
        ws = generate_synthetic(60, 120, seed=7)
        assert len(ws.requests) == 60
        for r in ws.requests:
            assert 1600 <= r.cpu_frequency <= 3400
            assert 1 <= r.duration <= 48
            assert r.cores in (1, 2, 4, 8)
            assert r.ram in (1, 2, 4, 8, 16)
            assert 0 <= r.arrival <= 119

    def test_single_slot(self):
        ws = generate_synthetic(1, 1, seed=0)
        assert len(ws.requests) == 1
        assert ws.requests[0].arrival == 0

    def test_same_seed_byte_identical(self):
        a = workload_to_json(generate_synthetic(10, 24, seed=3))
        b = workload_to_json(generate_synthetic(10, 24, seed=3))
        assert a == b

    def test_different_seed_differs(self):
        a = workload_to_json(generate_synthetic(10, 24, seed=3))
        b = workload_to_json(generate_synthetic(10, 24, seed=4))
        assert a != b

    def test_zero_count_rejected(self):
        with pytest.raises(DomainError):
            generate_synthetic(0, 10, seed=1)

    # Horizon 1 is integers(0, 1), which draws nothing; 2**63 - 1 is the
    # largest seed the CLI's int flag passes through.
    @pytest.mark.parametrize(
        "count,horizon,seed", [(1, 1, 0), (300, 1, 5), (50, 200, 2**63 - 1), (1, 1, 2**63 - 1)]
    )
    def test_matches_scalar_draws_at_the_edges(self, count, horizon, seed):
        expected = workload_to_json(synthetic_by_scalar_draws(count, horizon, seed))
        assert workload_to_json(generate_synthetic(count, horizon, seed)) == expected

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(min_value=1, max_value=300),
        st.integers(min_value=1, max_value=200),
        st.integers(min_value=0, max_value=2**63 - 1),
    )
    def test_matches_scalar_draws(self, count, horizon, seed):
        expected = workload_to_json(synthetic_by_scalar_draws(count, horizon, seed))
        assert workload_to_json(generate_synthetic(count, horizon, seed)) == expected

    @given(
        st.integers(min_value=1, max_value=40),
        st.integers(min_value=1, max_value=60),
        st.integers(min_value=0, max_value=2**63 - 1),
    )
    def test_sorted_and_in_bounds(self, count, horizon, seed):
        ws = generate_synthetic(count, horizon, seed)
        keys = [(r.arrival, r.id) for r in ws.requests]
        assert keys == sorted(keys)
        assert all(r.arrival < horizon for r in ws.requests)


class TestWorkloadJson:
    def test_round_trip(self):
        ws = generate_synthetic(12, 48, seed=11)
        back = workload_from_json(workload_to_json(ws))
        assert back.requests == ws.requests

    def test_is_json_array_with_exact_fields(self):
        rows = json.loads(workload_to_json(generate_synthetic(2, 4, seed=0)))
        assert isinstance(rows, list)
        assert set(rows[0]) == {"id", "cpu_frequency", "cores", "ram", "duration", "arrival"}

    def test_bad_json(self):
        with pytest.raises(TraceFormatError):
            workload_from_json("{not json")

    def test_bad_row(self):
        with pytest.raises(TraceFormatError, match="index 0"):
            workload_from_json('[{"id": "x"}]')

    @pytest.mark.parametrize("key", ["cores", "ram", "cpu_frequency", "duration", "arrival"])
    @pytest.mark.parametrize("value", ["Infinity", "-Infinity", "NaN"])
    def test_non_finite_field_names_index(self, key, value):
        rows = json.loads(workload_to_json(generate_synthetic(2, 4, seed=0)))
        text = json.dumps(rows).replace(f'"{key}": {rows[1][key]}', f'"{key}": {value}', 1)
        assert value in text
        with pytest.raises(TraceFormatError, match=f"non-finite '{key}'.*index 1"):
            workload_from_json(text)

    @pytest.mark.parametrize("key", ["cores", "ram", "cpu_frequency", "duration", "arrival"])
    @pytest.mark.parametrize(
        "value",
        [2.7, 3.0, True, False, "3"],
        ids=["float", "whole-float", "true", "false", "string"],
    )
    def test_non_integer_field_names_key_and_index(self, key, value):
        rows = json.loads(workload_to_json(generate_synthetic(2, 4, seed=0)))
        rows[1][key] = value
        with pytest.raises(TraceFormatError, match=f"'{key}' must be an integer.*index 1"):
            workload_from_json(json.dumps(rows))


def test_request_validation():
    from cloudsched.workload import WorkloadRequest

    with pytest.raises(DomainError):
        WorkloadRequest(id="x", cpu_frequency=2000, cores=0, ram=1, duration=1, arrival=0)
    with pytest.raises(DomainError):
        WorkloadRequest(id="x", cpu_frequency=2000, cores=1, ram=0, duration=1, arrival=0)
    with pytest.raises(DomainError):
        WorkloadRequest(id="x", cpu_frequency=2000, cores=1, ram=1, duration=0, arrival=0)
    with pytest.raises(DomainError):
        WorkloadRequest(id="x", cpu_frequency=2000, cores=1, ram=1, duration=1, arrival=-1)


def test_a_request_is_slotted():
    from cloudsched.workload import WorkloadRequest

    request = WorkloadRequest(id="x", cpu_frequency=2000, cores=1, ram=1, duration=1, arrival=0)
    assert not hasattr(request, "__dict__")
