"""Fuzzed input for the text loaders: every input parses or raises SimulatorError.

Each loader gets arbitrary bytes and text, and text built from its own
format's pieces, so that the later checks are reached too.  The explicit
cases are inputs that once ended in some other exception.
"""

import json

import pytest
import yaml
from hypothesis import given, settings, strategies as st

from cloudsched.cli import _build_sim_config, _build_train_config, build_parser, load_config_file
from cloudsched.energy import load_price_series
from cloudsched.errors import SimulatorError, TraceFormatError
from cloudsched.gnn.models import model_from_json
from cloudsched.util import is_finite_number
from cloudsched.workload import parse_trace_file, workload_from_json

LOADERS = {
    "prices": load_price_series,
    "workload": workload_from_json,
    "trace": parse_trace_file,
    "checkpoint": model_from_json,
}


def parses_or_rejects(loader, content) -> None:
    try:
        loader(content)
    except SimulatorError:
        pass


@pytest.mark.parametrize("name", LOADERS)
@settings(max_examples=100, deadline=None)
@given(content=st.one_of(st.binary(), st.text()))
def test_arbitrary_input(name, content):
    parses_or_rejects(LOADERS[name], content)


CELLS = st.sampled_from(
    ["0", "1", "-1", "2.5", "1e400", "nan", "-inf", "", " ", "x", '"', "3600000", "\r", "\x00"]
)


def delimited(header: str, separator: str):
    row = st.lists(CELLS, max_size=6).map(separator.join)
    return st.lists(row, max_size=6).map(lambda rows: "\n".join([header, *rows]) + "\n")


@settings(max_examples=100, deadline=None)
@given(delimited("hour,loc-0,loc-1", ","))
def test_price_csv_like_input(text):
    parses_or_rejects(load_price_series, text)


@settings(max_examples=100, deadline=None)
@given(
    delimited(
        "Timestamp [ms];CPU cores;CPU capacity provisioned [MHZ];"
        "CPU usage [MHZ];Memory capacity provisioned [KB]",
        ";",
    )
)
def test_trace_like_input(text):
    parses_or_rejects(parse_trace_file, text)


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner),
    max_leaves=6,
)
REQUEST_KEYS = ("id", "cpu_frequency", "cores", "ram", "duration", "arrival")


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.fixed_dictionaries({}, optional={k: JSON_VALUES for k in REQUEST_KEYS}), max_size=3)
)
def test_workload_json_like_input(rows):
    parses_or_rejects(workload_from_json, json.dumps(rows))


@settings(max_examples=100, deadline=None)
@given(
    st.fixed_dictionaries(
        {"schema_version": st.just(1), "kind": st.sampled_from(["gcn", "gated"])},
        optional={
            "dims": st.lists(st.integers(min_value=-1, max_value=6), max_size=4) | JSON_VALUES,
            "steps": st.integers(min_value=-1, max_value=3) | JSON_VALUES,
            "params": st.lists(st.lists(st.floats(), max_size=40), max_size=12) | JSON_VALUES,
        },
    )
)
def test_checkpoint_like_input(doc):
    parses_or_rejects(model_from_json, json.dumps(doc))


def config_sections(keys):
    return st.fixed_dictionaries({}, optional={k: JSON_VALUES for k in keys}) | JSON_VALUES


CONFIG_DOCS = st.fixed_dictionaries(
    {},
    optional={
        **{
            k: JSON_VALUES
            for k in (
                "pm_count", "vm_count", "horizon", "seed", "policy", "model_path",
                "workload_file", "trace_dir", "price_file", "consolidation_threshold",
                "log_scores", "out_dir", "verbosity", "bogus",
            )
        },
        "pm": config_sections(("cores", "ram", "max_frequency")),
        "power": config_sections(("idle_power", "peak_power", "migration_penalty")),
        "training": config_sections(
            ("episodes", "epochs", "learning_rate", "batch_clusters", "clusters")
        ),
    },
)
PATH_KEYS = ("model_path", "workload_file", "trace_dir", "price_file")

# libyaml's emitter, when PyYAML has it, writes each document several times
# faster than the pure-Python one `yaml.safe_dump` uses; the layout can
# differ, but the text loads back to the same value.
SAFE_DUMPER = getattr(yaml, "CSafeDumper", yaml.SafeDumper)

# Each subcommand's flags, all unset, parsed once for every example.
SIMULATE_ARGS = build_parser().parse_args(["simulate"])
TRAIN_ARGS = build_parser().parse_args(["train"])


@pytest.fixture(scope="module")
def config_path(tmp_path_factory):
    return tmp_path_factory.mktemp("config") / "cfg.yaml"


@settings(max_examples=150, deadline=None)
@given(doc=CONFIG_DOCS)
def test_config_like_input(config_path, doc):
    """An accepted config builds a scenario and a training recipe of the types their users read."""
    config_path.write_text(yaml.dump(doc, Dumper=SAFE_DUMPER))
    try:
        cfg = load_config_file(str(config_path))
        config = _build_sim_config(cfg, SIMULATE_ARGS)
        recipe = _build_train_config(cfg, TRAIN_ARGS, seed=config.seed)
    except SimulatorError:
        return
    ints = (config.pm_count, config.vm_count, config.horizon, config.seed)
    assert all(type(v) is int for v in ints) and config.seed >= 0
    assert all(cfg.get(k) is None or type(cfg[k]) is str for k in PATH_KEYS)
    assert type(config.policy) is str and type(config.log_scores) is bool
    assert is_finite_number(config.consolidation_threshold)
    counts = (recipe.epochs, recipe.batch_clusters, recipe.seed, recipe.episodes, recipe.clusters)
    assert all(type(v) is int for v in counts)
    assert is_finite_number(recipe.learning_rate)


@pytest.mark.parametrize(
    "name,content",
    [
        pytest.param("prices", 'hour,a"b\r0,1\n', id="csv-newline-in-field"),
        pytest.param("prices", "hour,a\n0," + "1" * 200_000 + "\n", id="csv-field-limit"),
        pytest.param("workload", "[" * 100_000, id="workload-deep-nesting"),
        pytest.param("workload", "1" * 5000, id="workload-long-integer"),
        pytest.param("checkpoint", "[" * 100_000, id="checkpoint-deep-nesting"),
        pytest.param("checkpoint", "1" * 5000, id="checkpoint-long-integer"),
        pytest.param("trace", b"Timestamp [ms]\xff", id="trace-non-utf8"),
        pytest.param("prices", b"hour,loc-0\n0,\xff\n", id="prices-non-utf8"),
        pytest.param("workload", b"[\xff]", id="workload-non-utf8"),
        pytest.param("checkpoint", b"\xff", id="checkpoint-non-utf8"),
    ],
)
def test_former_crashes_are_format_errors(name, content):
    with pytest.raises(TraceFormatError):
        LOADERS[name](content)


@pytest.mark.parametrize(
    "doc",
    [
        {"kind": "gcn", "dims": [10**7, 10**7]},
        {"kind": "gated", "dims": [5, 10**7], "steps": 1},
    ],
    ids=["gcn", "gated"],
)
def test_checkpoint_dims_larger_than_its_parameters_rejected_before_building(doc):
    text = json.dumps({"schema_version": 1, "params": [[0.0] * 10], **doc})
    with pytest.raises(TraceFormatError, match="dims"):
        model_from_json(text)
