import json
import shlex
from pathlib import Path

import numpy as np
import pytest

from cloudsched.cli import _build_sim_config, build_parser, main
from cloudsched.gnn.graph import WorkingFeatures
from cloudsched.gnn.models import (
    load_model,
    model_to_json,
    new_gated_model,
    new_gcn_model,
    score_placements,
)
from cloudsched.sim import SimConfig, compare
from cloudsched.util import atomic_write_text
from cloudsched.workload import workload_to_json

from conftest import tiny_requests

README = Path(__file__).resolve().parents[1] / "README.md"


@pytest.fixture
def tiny_files(tmp_path: Path) -> dict:
    workload = tmp_path / "workload.json"
    from cloudsched.workload import WorkloadSet

    workload.write_text(workload_to_json(WorkloadSet(tiny_requests())))
    prices = tmp_path / "prices.csv"
    prices.write_text(
        "hour,loc-0,loc-1\n0,0.10,0.10\n1,0.10,0.10\n2,0.10,0.10\n"
    )
    return {"workload": workload, "prices": prices, "dir": tmp_path}


def tiny_simulate_args(files, out, extra=()):
    return [
        "simulate",
        "--pm-count", "2",
        "--horizon", "3",
        "--workload-file", str(files["workload"]),
        "--price-file", str(files["prices"]),
        "--out", str(out),
        *extra,
    ]


class TestGenWorkload:
    def test_default_count(self, tmp_path):
        assert main(["gen-workload", "--out", str(tmp_path), "--seed", "1"]) == 0
        rows = json.loads((tmp_path / "workloads.json").read_text())
        assert len(rows) == 60

    def test_zero_count_is_config_error(self, tmp_path, capsys):
        assert main(["gen-workload", "--count", "0", "--out", str(tmp_path)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_trace_dir_single_fixture(self, tmp_path, data_dir):
        tracedir = tmp_path / "traces"
        tracedir.mkdir()
        (tracedir / "vm1.csv").write_bytes((data_dir / "bitbrains_sample.csv").read_bytes())
        out = tmp_path / "out"
        assert main(["gen-workload", "--trace-dir", str(tracedir), "--out", str(out)]) == 0
        rows = json.loads((out / "workloads.json").read_text())
        assert len(rows) == 1
        assert rows[0]["cores"] == 4 and rows[0]["cpu_frequency"] == 2926

    @pytest.mark.parametrize("beside_a_trace", [True, False], ids=["with-trace", "alone"])
    def test_header_only_trace_is_one_error_line(
        self, tmp_path, capsys, data_dir, beside_a_trace
    ):
        tracedir = tmp_path / "traces"
        tracedir.mkdir()
        if beside_a_trace:
            (tracedir / "vm1.csv").write_bytes((data_dir / "bitbrains_sample.csv").read_bytes())
        (tracedir / "empty.csv").write_text(
            "Timestamp [ms];CPU cores;CPU capacity provisioned [MHZ];"
            "CPU usage [MHZ];Memory capacity provisioned [KB]\n"
        )
        out = tmp_path / "out"
        assert main(["gen-workload", "--trace-dir", str(tracedir), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.strip().splitlines() == [f"error: {tracedir / 'empty.csv'}: trace has no samples"]
        assert not (out / "workloads.json").exists()


class TestTrain:
    def base_args(self, out, policy="counter", extra=()):
        return [
            "train", "--policy", policy,
            "--pm-count", "2", "--vm-count", "3", "--horizon", "6",
            "--episodes", "1", "--epochs", "3", "--seed", "5",
            "--out", str(out), *extra,
        ]

    def test_checkpoint_reloads_and_scores_identically(self, tmp_path):
        assert main(self.base_args(tmp_path)) == 0
        model = load_model(tmp_path / "model_counter.json")
        from cloudsched.datacenter import new_datacenter, snapshot

        snap, request = snapshot(new_datacenter(2)), tiny_requests()[0]
        rows = np.flatnonzero(snap.fits(request))
        features = WorkingFeatures(snap, None).for_request(request)
        first = score_placements(model, features, rows)
        again = score_placements(load_model(tmp_path / "model_counter.json"), features, rows)
        assert first.tolist() == again.tolist() and len(first) == 2
        assert (tmp_path / "loss_counter.csv").read_text().startswith("epoch,mean_loss")

    def test_zero_lr_keeps_initial_weights(self, tmp_path):
        assert main(self.base_args(tmp_path, extra=["--lr", "0"])) == 0
        saved = (tmp_path / "model_counter.json").read_text()
        assert saved == model_to_json(new_gcn_model(seed=1 + 5))

    def test_same_seed_identical_loss_csv(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(self.base_args(out_a)) == 0
        assert main(self.base_args(out_b)) == 0
        assert (out_a / "loss_counter.csv").read_text() == (out_b / "loss_counter.csv").read_text()

    def test_hunter_trains_too(self, tmp_path):
        assert main(self.base_args(tmp_path, policy="hunter")) == 0
        assert (tmp_path / "model_hunter.json").exists()

    def test_heuristic_policy_rejected(self, tmp_path):
        assert main(self.base_args(tmp_path, policy="first_fit")) == 2

    @pytest.mark.parametrize("source", ["flag", "file"])
    @pytest.mark.parametrize("epochs", [0, -3])
    def test_no_epochs_is_one_error_line(self, tmp_path, capsys, monkeypatch, epochs, source):
        def no_teacher(*args, **kwargs):
            raise AssertionError("teacher collection ran")

        monkeypatch.setattr("cloudsched.cli.collect_training_data", no_teacher)
        out = tmp_path / "out"
        args = self.base_args(out)
        if source == "flag":
            args[args.index("--epochs") + 1] = str(epochs)
        else:
            del args[args.index("--epochs") : args.index("--epochs") + 2]
            cfg = tmp_path / "cfg.yaml"
            cfg.write_text(f"training:\n  epochs: {epochs}\n")
            args += ["--config", str(cfg)]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert err.strip().splitlines() == [f"error: epochs must be at least 1, got {epochs}"]
        assert not any(out.iterdir())

    @pytest.mark.parametrize("source", ["flag", "file"])
    @pytest.mark.parametrize(
        "flag,key,value,yaml_value",
        [
            ("--lr", "learning_rate", "nan", ".nan"),
            ("--lr", "learning_rate", "inf", ".inf"),
            ("--lr", "learning_rate", "-inf", "-.inf"),
            ("--batch-clusters", "batch_clusters", "0", "0"),
            ("--batch-clusters", "batch_clusters", "-2", "-2"),
            ("--clusters", "clusters", "0", "0"),
        ],
        ids=[
            "lr-nan", "lr-inf", "lr-neg-inf",
            "batch-clusters-0", "batch-clusters-neg", "clusters-0",
        ],
    )
    def test_bad_training_setting_is_one_error_line(
        self, tmp_path, capsys, monkeypatch, flag, key, value, yaml_value, source
    ):
        def no_teacher(*args, **kwargs):
            raise AssertionError("teacher collection ran")

        monkeypatch.setattr("cloudsched.cli.collect_training_data", no_teacher)
        out = tmp_path / "out"
        if source == "flag":
            args = self.base_args(out, extra=[f"{flag}={value}"])  # "-inf" alone reads as a flag
        else:
            cfg = tmp_path / "cfg.yaml"
            cfg.write_text(f"training:\n  {key}: {yaml_value}\n")
            args = self.base_args(out, extra=["--config", str(cfg)])
        assert main(args) == 2
        (line,) = capsys.readouterr().err.strip().splitlines()
        assert line.startswith("error: ") and key in line and line.endswith(f"got {value}")
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow on the way to inf
    def test_divergence_exits_4(self, tmp_path, capsys):
        assert main(self.base_args(tmp_path, extra=["--lr", "1e9", "--epochs", "60"])) == 4
        assert "non-finite loss" in capsys.readouterr().err


class TestSimulate:
    def test_defaults_first_fit(self, tmp_path):
        out = tmp_path / "out"
        assert main(["simulate", "--out", str(out), "--seed", "42"]) == 0
        for name in ("result.json", "qos.json", "energy_report.csv", "decisions.jsonl"):
            assert (out / name).exists()
        assert not list(out.glob("*.tmp"))  # atomic writes leave no temp files

    def test_matches_golden_fixture(self, tiny_files, tmp_path, data_dir):
        out = tmp_path / "out"
        assert main(tiny_simulate_args(tiny_files, out)) == 0
        assert (out / "result.json").read_text() == (data_dir / "tiny_golden.json").read_text()

    def test_missing_price_coverage_names_location_and_hour(self, tiny_files, tmp_path, capsys):
        (tiny_files["dir"] / "short.csv").write_text("hour,loc-0,loc-1\n0,0.1,0.1\n")
        args = tiny_simulate_args(tiny_files, tmp_path / "out")
        args[args.index("--price-file") + 1] = str(tiny_files["dir"] / "short.csv")
        assert main(args) == 2
        err = capsys.readouterr().err
        assert "loc-" in err and "hour 1" in err

    def test_non_finite_price_is_config_error(self, tiny_files, tmp_path, capsys):
        (tiny_files["dir"] / "nan.csv").write_text("hour,loc-0,loc-1\n0,nan,0.1\n1,0.1,0.1\n")
        args = tiny_simulate_args(tiny_files, tmp_path / "out")
        args[args.index("--price-file") + 1] = str(tiny_files["dir"] / "nan.csv")
        assert main(args) == 2
        err = capsys.readouterr().err
        assert err.count("error:") == 1 and "line 2" in err
        assert not (tmp_path / "out" / "qos.json").exists()

    def test_non_finite_workload_field_is_config_error(self, tiny_files, tmp_path, capsys):
        text = tiny_files["workload"].read_text()
        tiny_files["workload"].write_text(text.replace('"cores": 8', '"cores": Infinity', 1))
        assert main(tiny_simulate_args(tiny_files, tmp_path / "out")) == 2
        err = capsys.readouterr().err
        assert err.count("error:") == 1 and "index 0" in err and "Traceback" not in err
        assert not (tmp_path / "out" / "qos.json").exists()

    def test_non_integer_workload_field_is_one_error_line(self, tiny_files, tmp_path, capsys):
        rows = json.loads(tiny_files["workload"].read_text())
        rows[0].update(cores=2.7, ram=True, duration="3")
        tiny_files["workload"].write_text(json.dumps(rows))
        assert main(tiny_simulate_args(tiny_files, tmp_path / "out")) == 2
        err = capsys.readouterr().err
        assert err.count("error:") == 1 and len(err.strip().splitlines()) == 1
        assert "'cores' must be an integer" in err and "index 0" in err
        assert not (tmp_path / "out" / "qos.json").exists()

    @pytest.mark.parametrize(
        "yaml_text",
        [
            "power:\n  cooling_coefficient: .nan\n",
            "power:\n  peak_power: .inf\n",
            "pm:\n  ram: .nan\n",
            "pm:\n  cores: .inf\n",
            "consolidation_threshold: .nan\n",
            "consolidation_threshold: -.inf\n",
        ],
        ids=["power-nan", "power-inf", "pm-nan", "pm-inf", "threshold-nan", "threshold-inf"],
    )
    def test_non_finite_config_value_is_config_error(self, tiny_files, tmp_path, capsys, yaml_text):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(yaml_text)
        args = tiny_simulate_args(tiny_files, tmp_path / "out", extra=["--config", str(cfg)])
        assert main(args) == 2
        err = capsys.readouterr().err
        assert err.count("error:") == 1 and "finite" in err and "Traceback" not in err
        assert not (tmp_path / "out" / "qos.json").exists()

    @pytest.mark.parametrize(
        "flag", ["--config", "--model", "--trace-dir", "--price-file", "--workload-file"]
    )
    def test_non_utf8_input_is_one_error_line(self, tiny_files, tmp_path, capsys, flag):
        bad = tmp_path / "traces" / "bad.bin"  # UTF-8 text up to one 0xff byte
        bad.parent.mkdir()
        bad.write_bytes(b"hour,loc-0\n0,0.1\xff\n")
        args = tiny_simulate_args(tiny_files, tmp_path / "out")
        if flag == "--trace-dir":
            at = args.index("--workload-file")
            args[at : at + 2] = [flag, str(bad.parent)]
        elif flag == "--model":
            args += ["--policy", "counter", flag, str(bad)]
        elif flag == "--config":
            args += [flag, str(bad)]
        else:
            args[args.index(flag) + 1] = str(bad)
        assert main(args) == 2
        err = capsys.readouterr().err
        assert err.count("error:") == 1 and len(err.strip().splitlines()) == 1
        assert "bad.bin" in err and "Traceback" not in err
        assert not (tmp_path / "out" / "qos.json").exists()

    def test_counter_without_model_is_config_error(self, tiny_files, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(tiny_simulate_args(tiny_files, out, extra=["--policy", "counter"])) == 2
        err = capsys.readouterr().err
        assert err.strip().splitlines() == [
            f"error: policy 'counter' needs --model; `cloudsched train --policy counter "
            f"--seed 0 --out {out}` writes {out / 'model_counter.json'}"
        ]

    def test_checkpoint_of_the_wrong_kind_is_one_error_line(self, tmp_path, capsys, data_dir):
        checkpoint = data_dir / "hunter.json"
        out = tmp_path / "out"
        args = [
            "simulate", "--policy", "counter", "--model", str(checkpoint),
            "--pm-count", "2", "--horizon", "3", "--vm-count", "3", "--out", str(out),
        ]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert err.strip().splitlines() == [
            f"error: {checkpoint} holds a 'gated' checkpoint, policy 'counter' needs a "
            "'gcn' one; pass it with --model"
        ]
        assert not any(out.iterdir())

    @pytest.mark.parametrize(
        "policy, doc, message",
        [
            (
                "counter",
                {"kind": "gcn", "dims": [6, 16, 16], "params": [96, 16, 256, 16, 44, 1]},
                "checkpoint 'dims' start at 6, the node features are 5 wide",
            ),
            (
                "hunter",
                {"kind": "gated", "dims": [5, 4], "steps": 2,
                 "params": [16] + [16, 16, 4] * 3 + [18, 1]},
                "checkpoint hidden size 4 cannot hold the 5 node features",
            ),
            (
                "hunter",
                {"kind": "gated", "dims": [7, 16], "steps": 2,
                 "params": [256] + [256, 256, 16] * 3 + [42, 1]},
                "gated checkpoint 'dims' [7, 16] are not [5, hidden]",
            ),
        ],
        ids=["gcn-6-wide", "gated-hidden-4", "gated-7-wide"],
    )
    def test_checkpoint_of_the_wrong_input_width_is_one_error_line(
        self, tmp_path, capsys, policy, doc, message
    ):
        # Well-formed checkpoints whose first layer cannot take the node
        # features are rejected when loaded, naming the file.
        checkpoint = tmp_path / "narrow.json"
        params = [[0.0] * size for size in doc["params"]]
        checkpoint.write_text(json.dumps({**doc, "schema_version": 1, "params": params}))
        out = tmp_path / "out"
        args = [
            "simulate", "--policy", policy, "--model", str(checkpoint),
            "--pm-count", "2", "--horizon", "3", "--vm-count", "3", "--out", str(out),
        ]
        assert main(args) == 2
        assert capsys.readouterr().err.strip().splitlines() == [f"error: {checkpoint}: {message}"]
        assert not any(out.iterdir())

    def test_missing_workload_file_is_io_error(self, tmp_path):
        assert main([
            "simulate", "--workload-file", str(tmp_path / "nope.json"),
            "--out", str(tmp_path / "out"),
        ]) == 3

    def test_trace_dir_input(self, tmp_path, data_dir):
        # the fixture trace derives a 64 GiB request, so give the PMs 64 GiB
        tracedir = tmp_path / "traces"
        tracedir.mkdir()
        (tracedir / "vm1.csv").write_bytes((data_dir / "bitbrains_sample.csv").read_bytes())
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("pm:\n  ram: 64\n")
        out = tmp_path / "out"
        assert main([
            "simulate", "--trace-dir", str(tracedir), "--pm-count", "2",
            "--horizon", "4", "--config", str(cfg), "--out", str(out),
        ]) == 0
        doc = json.loads((out / "result.json").read_text())
        assert doc["placed"] == 1 and doc["deferred"] == 0

    def test_trace_dir_with_zero_horizon_names_the_horizon(self, tmp_path, capsys, data_dir):
        tracedir = tmp_path / "traces"
        tracedir.mkdir()
        (tracedir / "vm1.csv").write_bytes((data_dir / "bitbrains_sample.csv").read_bytes())
        args = ["simulate", "--trace-dir", str(tracedir), "--horizon", "0"]
        assert main([*args, "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.strip().splitlines() == ["error: horizon must be >= 1"]

    def test_all_zero_core_trace_is_config_error(self, tmp_path, capsys):
        tracedir = tmp_path / "traces"
        tracedir.mkdir()
        (tracedir / "idle.csv").write_text(
            "Timestamp [ms];CPU cores;CPU capacity provisioned [MHZ];"
            "CPU usage [MHZ];Memory capacity provisioned [KB]\n"
            "0;0;4000;100;1048576\n3600000;0;4000;100;1048576\n"
        )
        args = ["simulate", "--trace-dir", str(tracedir), "--out", str(tmp_path / "out")]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert err.count("error:") == 1 and "'idle'" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "row",
        ["3600000;4;nan;100;1048576", "3600000;4;4000;100;inf", "inf;4;4000;100;1048576"],
        ids=["nan-capacity", "inf-memory", "inf-timestamp"],
    )
    def test_non_finite_trace_cell_is_config_error(self, tmp_path, capsys, row):
        tracedir = tmp_path / "traces"
        tracedir.mkdir()
        (tracedir / "vm.csv").write_text(
            "Timestamp [ms];CPU cores;CPU capacity provisioned [MHZ];"
            "CPU usage [MHZ];Memory capacity provisioned [KB]\n"
            "0;4;4000;100;1048576\n" + row + "\n"
        )
        args = ["simulate", "--trace-dir", str(tracedir), "--out", str(tmp_path / "out")]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert err.count("error:") == 1 and "line 3" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "text",
        [
            "[1, 2, 3]\n",
            '{"schema_version": 1, "kind": "gcn", "params": []}\n',
            '{"schema_version": 1, "kind": "gcn", "dims": [5, 2], "params": '
            '[["x"], [0.0, 0.0], [0.0], [0.0]]}\n',
            json.dumps({**json.loads(model_to_json(new_gated_model(seed=0))), "steps": 10**9}),
            # W0's first value is an integer no float can hold
            '{"schema_version": 1, "kind": "gcn", "dims": [5, 2], "params": '
            f'[[{10**400}{", 0" * 9}], [0, 0], [0{", 0" * 13}], [0]]}}\n',
        ],
        ids=["array", "no-dims", "string-param", "gated-steps-1e9", "int-past-float"],
    )
    def test_malformed_checkpoint_is_config_error(self, tiny_files, tmp_path, capsys, text):
        bad = tiny_files["dir"] / "bad.json"
        bad.write_text(text)
        args = tiny_simulate_args(
            tiny_files, tmp_path / "out", extra=["--policy", "counter", "--model", str(bad)]
        )
        assert main(args) == 2
        err = capsys.readouterr().err
        assert err.count("error:") == 1 and len(err.strip().splitlines()) == 1
        assert not (tmp_path / "out" / "qos.json").exists()


    def test_request_fields_past_int64_run_like_merely_too_large_ones(self, tiny_files, tmp_path):
        # vm-b needs more cores than any PM has, and vm-c outlasts the
        # horizon; values past what an int64 holds change no output.
        rows = json.loads(tiny_files["workload"].read_text())

        def outputs(cores, duration, out):
            rows[1]["cores"], rows[2]["duration"] = cores, duration
            tiny_files["workload"].write_text(json.dumps(rows))
            assert main(tiny_simulate_args(tiny_files, out)) == 0
            return {path.name: path.read_bytes() for path in sorted(out.iterdir())}

        huge = outputs(10**20, 2**63 - 1, tmp_path / "huge")
        assert huge == outputs(33, 10**6, tmp_path / "large")
        assert json.loads(huge["qos.json"])["placed"] == 2

class TestCompare:
    def test_two_heuristics(self, tiny_files, tmp_path):
        out = tmp_path / "out"
        code = main([
            "compare", "--policies", "first_fit,best_fit_energy",
            "--pm-count", "2", "--horizon", "3",
            "--workload-file", str(tiny_files["workload"]),
            "--price-file", str(tiny_files["prices"]),
            "--out", str(out),
        ])
        assert code == 0
        lines = (out / "comparison.csv").read_text().splitlines()
        assert len(lines) == 3
        assert lines[1].startswith("first_fit,")

    def test_single_policy_one_row(self, tiny_files, tmp_path):
        out = tmp_path / "out"
        assert main([
            "compare", "--policies", "first_fit",
            "--pm-count", "2", "--horizon", "3",
            "--workload-file", str(tiny_files["workload"]),
            "--price-file", str(tiny_files["prices"]),
            "--out", str(out),
        ]) == 0
        assert len((out / "comparison.csv").read_text().splitlines()) == 2

    def test_three_policies_with_checkpoints(self, tiny_files, tmp_path):
        models = tmp_path / "models"
        train_common = [
            "--pm-count", "2", "--vm-count", "3", "--horizon", "6",
            "--episodes", "1", "--epochs", "5", "--seed", "5", "--out", str(models),
        ]
        assert main(["train", "--policy", "counter", *train_common]) == 0
        assert main(["train", "--policy", "hunter", *train_common]) == 0
        out = tmp_path / "out"
        assert main([
            "compare", "--policies", "counter,hunter,first_fit",
            "--model-counter", str(models / "model_counter.json"),
            "--model-hunter", str(models / "model_hunter.json"),
            "--pm-count", "2", "--horizon", "3",
            "--workload-file", str(tiny_files["workload"]),
            "--price-file", str(tiny_files["prices"]),
            "--out", str(out),
        ]) == 0
        lines = (out / "comparison.csv").read_text().splitlines()
        assert len(lines) == 4  # header + one row per policy
        assert [line.split(",")[0] for line in lines[1:]] == ["counter", "hunter", "first_fit"]

    def test_unknown_policy(self, tmp_path):
        assert main(["compare", "--policies", "bogus", "--out", str(tmp_path)]) == 2

    def test_learned_policy_without_checkpoint(self, tmp_path):
        assert main(["compare", "--policies", "counter", "--out", str(tmp_path)]) == 2

    def test_missing_checkpoint_names_the_train_command(self, tmp_path, capsys):
        assert main(["compare", "--policies", "counter", "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.count("error:") == 1 and len(err.strip().splitlines()) == 1
        assert f"cloudsched train --policy counter --seed 0 --out {tmp_path}" in err
        assert not any(tmp_path.iterdir())

    def test_malformed_checkpoint_is_one_error_line(self, tmp_path, capsys):
        bad = tmp_path / "model_counter.json"
        bad.write_text('{"kind": "gcn"}\n')
        out = tmp_path / "out"
        args = ["compare", "--policies", "counter", "--model-counter", str(bad), "--out", str(out)]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert err.count("error:") == 1 and len(err.strip().splitlines()) == 1
        assert "model_counter.json" in err and "Traceback" not in err
        assert not any(out.iterdir())

    def test_config_checkpoint_of_the_wrong_kind_is_one_error_line(self, tmp_path, capsys):
        checkpoint = tmp_path / "counter.json"
        atomic_write_text(checkpoint, model_to_json(new_gcn_model(seed=0)))
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(f"model_path: {checkpoint}\n")
        out = tmp_path / "out"
        args = ["compare", "--policies", "counter,hunter", "--config", str(cfg), "--out", str(out)]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert err.strip().splitlines() == [
            f"error: {checkpoint} holds a 'gcn' checkpoint, policy 'hunter' needs a 'gated' one; "
            "pass it with --model-hunter"
        ]
        assert not any(out.iterdir())

    def test_seed_sweep_writes_one_row_per_policy_and_seed(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main([
            "compare", "--policies", "first_fit,random", "--seeds", "3", "--seed", "5",
            "--pm-count", "4", "--vm-count", "12", "--horizon", "10", "--out", str(out),
        ]) == 0
        assert capsys.readouterr().out.splitlines()[:2] == [
            str(out / "comparison.csv"), str(out / "seed_sweep.csv")
        ]
        lines = (out / "seed_sweep.csv").read_text().splitlines()
        assert lines[0] == (
            "policy,seed,max_util,mean_active_pms,total_kwh,total_cost,placed,deferred,migrations"
        )
        assert [line.split(",")[:2] for line in lines[1:]] == [
            [policy, seed] for policy in ("first_fit", "random") for seed in ("5", "6", "7")
        ]
        medians = (out / "comparison.csv").read_text().splitlines()
        assert [line.split(",")[0] for line in medians[1:]] == ["first_fit", "random"]

    @pytest.mark.parametrize("seeds", ["0", "-2"])
    def test_no_seeds_is_one_error_line(self, tmp_path, capsys, seeds):
        out = tmp_path / "out"
        args = ["compare", "--policies", "first_fit", "--seeds", seeds, "--out", str(out)]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert err.strip().splitlines() == [f"error: seeds must be at least 1, got {seeds}"]
        assert not any(out.iterdir())

    def test_config_log_scores_is_ignored(self, tiny_files, tmp_path, monkeypatch):
        seen = []

        def spy(configs, seeds=1):
            seen.extend(configs)
            return compare(configs, seeds)

        monkeypatch.setattr("cloudsched.cli.compare", spy)
        checkpoint = tmp_path / "model.json"
        atomic_write_text(checkpoint, model_to_json(new_gcn_model(seed=0)))
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("log_scores: true\n")
        assert main([
            "compare", "--policies", "counter,first_fit", "--model-counter", str(checkpoint),
            "--pm-count", "2", "--horizon", "3", "--config", str(cfg),
            "--workload-file", str(tiny_files["workload"]),
            "--price-file", str(tiny_files["prices"]),
            "--out", str(tmp_path / "out"),
        ]) == 0
        assert [c.policy for c in seen] == ["counter", "first_fit"]
        assert not any(c.log_scores for c in seen)
        assert seen[0].model is not None

    def test_each_input_file_is_read_once(self, tiny_files, tmp_path, monkeypatch):
        import cloudsched.util

        reads = []

        def counting_open(path, *args, **kwargs):
            reads.append(Path(path))
            return open(path, *args, **kwargs)

        monkeypatch.setattr(cloudsched.util, "open", counting_open, raising=False)
        assert main([
            "compare", "--policies", "first_fit,best_fit_energy", "--seeds", "3",
            "--pm-count", "2", "--horizon", "3",
            "--workload-file", str(tiny_files["workload"]),
            "--price-file", str(tiny_files["prices"]),
            "--out", str(tmp_path / "out"),
        ]) == 0
        assert reads.count(tiny_files["workload"]) == 1
        assert reads.count(tiny_files["prices"]) == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--pm-count", "2", "--vm-count", "3", "--horizon", "3"],
        ["train", "--policy", "counter", "--pm-count", "2", "--vm-count", "3", "--horizon", "3"],
    ],
    ids=["simulate", "train"],
)
def test_negative_seed_is_one_error_line(tmp_path, capsys, argv):
    out = tmp_path / "out"
    assert main([*argv, "--seed", "-1", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.strip().splitlines() == ["error: --seed must be a non-negative integer, got -1"]
    assert not out.exists() or not any(out.iterdir())


# Each asks for more than a 64-bit address space holds, so it fails at once.
@pytest.mark.parametrize(
    "argv,error",
    [
        (
            ["simulate", "--pm-count", "2", "--vm-count", "1", "--horizon", str(10**15)],
            "error: too large for memory: ",
        ),
        (
            ["simulate", "--pm-count", "2", "--vm-count", "1", "--horizon", "9" * 20],
            f"error: count and horizon must be below 2**63, got 1 and {'9' * 20}",
        ),
        (
            ["gen-workload", "--count", str(10**14), "--horizon", "2"],
            "error: too large for memory: ",
        ),
        (
            ["gen-workload", "--count", str(10**20), "--horizon", "2"],
            f"error: count and horizon must be below 2**63, got {10**20} and 2",
        ),
        # Shapes whose bytes pass 2**63 - 1, which numpy refuses outright.
        (
            ["gen-workload", "--count", str(2**62), "--horizon", "2"],
            f"error: count {2**62} is too large: numpy cannot make an array of shape ",
        ),
        (
            ["simulate", "--pm-count", "2", "--vm-count", "1", "--horizon", str(2**62)],
            f"error: horizon {2**62} is too large: numpy cannot make an array of shape ",
        ),
        (
            ["simulate", "--pm-count", "2", "--vm-count", "1", "--horizon", str(2**63 - 1)],
            f"error: horizon {2**63 - 1} is too large: numpy cannot make an array of shape ",
        ),
        (
            ["simulate", "--pm-count", "9" * 20, "--vm-count", "1", "--horizon", "2"],
            f"error: pm_count {'9' * 20} is too large: numpy cannot make an array of shape ",
        ),
    ],
    ids=["price-matrix", "int64-horizon", "workload-draws", "int64-count", "draws-shape",
         "price-shape", "price-shape-int64-horizon", "int64-pm-count"],
)
def test_oversized_run_is_one_error_line(tmp_path, capsys, argv, error):
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == 2
    [line] = capsys.readouterr().err.strip().splitlines()
    assert line.startswith(error)
    assert not any(out.iterdir())


@pytest.mark.parametrize(
    "argv,yaml_text",
    [
        (["simulate", "--workload-file", "{w}", "--trace-dir", "{t}"], ""),
        (["simulate", "--trace-dir", "{t}"], "workload_file: {w}\n"),
        (["simulate", "--workload-file", "{w}"], "trace_dir: {t}\n"),
        (["simulate"], "workload_file: {w}\ntrace_dir: {t}\n"),
        (["compare", "--policies", "first_fit", "--workload-file", "{w}"], "trace_dir: {t}\n"),
        (["train", "--policy", "counter"], "workload_file: {w}\ntrace_dir: {t}\n"),
    ],
    ids=["simulate-flags", "simulate-trace-flag", "simulate-file-flag", "simulate-keys",
         "compare", "train"],
)
def test_two_workload_sources_is_one_error_line(tiny_files, tmp_path, capsys, argv, yaml_text):
    tracedir = tmp_path / "traces"
    tracedir.mkdir()
    paths = {"w": tiny_files["workload"], "t": tracedir}
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(yaml_text.format(**paths))
    out = tmp_path / "out"
    argv = [arg.format(**paths) for arg in argv]
    assert main([*argv, "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.strip().splitlines() == [
        f"error: a workload file ({paths['w']}) and a trace directory ({tracedir}) "
        "are both given; give one workload source"
    ]
    assert not any(out.iterdir())


class TestConfigFile:
    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("pm_count: 2\nbogus_key: 1\n")
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize(
        "text", ["a: [\n", "[" * 1000 + "\n", "1: 2\nseed: 0\n", "pm:\n  1: 2\n  ram: 8\n"],
        ids=["unclosed", "deep", "int-key", "int-pm-key"],
    )
    def test_malformed_yaml_is_one_error_line(self, tmp_path, capsys, text):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(text)
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.count("error:") == 1 and len(err.strip().splitlines()) == 1
        assert "Traceback" not in err

    def test_nested_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("pm:\n  wheels: 4\n")
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize(
        "key,value", [("peak_power", 300), ("idle_power", 50), ("min_frequency", 1000)]
    )
    def test_pm_power_and_frequency_keys_rejected(self, tiny_files, tmp_path, capsys, key, value):
        # Server power comes from the `power:` section; these PM keys set nothing.
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(f"pm:\n  {key}: {value}\n")
        args = tiny_simulate_args(tiny_files, tmp_path / "out", extra=["--config", str(cfg)])
        assert main(args) == 2
        err = capsys.readouterr().err
        assert err.count("error:") == 1 and key in err
        assert not (tmp_path / "out" / "qos.json").exists()

    @pytest.mark.parametrize(
        "yaml_text,key",
        [
            ('pm_count: "abc"\n', "pm_count"),
            ("pm_count: true\n", "pm_count"),
            ("horizon: 2.5\n", "horizon"),
            ("horizon:\n", "horizon"),
            ("vm_count: 1.5\n", "vm_count"),
            ('seed: "x"\n', "seed"),
            ("seed: -1\n", "seed"),
            ("training:\n  epochs: x\n", "training.epochs"),
            ("training:\n  learning_rate: .nan\n", "training.learning_rate"),
            ("workload_file: 0\n", "workload_file"),
            ("price_file: 7\n", "price_file"),
            ("out_dir: 1\n", "out_dir"),
            ("policy: 5\n", "policy"),
            ("verbosity: [info]\n", "verbosity"),
            ("verbosity: debug\n", "verbosity"),
            ('log_scores: "no"\n', "log_scores"),
        ],
        ids=[
            "count-string", "count-bool", "horizon-float", "horizon-null", "vm-count-float",
            "seed-string", "seed-negative", "epochs-string", "lr-nan", "workload-fd",
            "price-fd", "out-dir-int", "policy-int", "verbosity-list",
            "verbosity-debug", "log-scores-string",
        ],
    )
    def test_mistyped_value_is_one_error_line(self, tiny_files, tmp_path, capsys, yaml_text, key):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(yaml_text)
        args = tiny_simulate_args(tiny_files, tmp_path / "out", extra=["--config", str(cfg)])
        assert main(args) == 2
        err = capsys.readouterr().err
        assert err.count("error:") == 1 and len(err.strip().splitlines()) == 1
        assert f"config {key!r} must be" in err and "Traceback" not in err
        assert not (tmp_path / "out" / "qos.json").exists()

    def test_negative_threshold_is_one_error_line(self, tiny_files, tmp_path, capsys):
        # A negative threshold used to run with consolidation off and exit 0.
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("consolidation_threshold: -5\n")
        args = tiny_simulate_args(tiny_files, tmp_path / "out", extra=["--config", str(cfg)])
        assert main(args) == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: config 'consolidation_threshold' must be a finite number >= 0, got -5"
        ]
        assert not (tmp_path / "out" / "qos.json").exists()

    @pytest.mark.parametrize("value", [True, False])
    def test_log_scores_bool_from_file(self, tiny_files, tmp_path, value):
        checkpoint = tmp_path / "model.json"
        atomic_write_text(checkpoint, model_to_json(new_gcn_model(seed=0)))
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(f"log_scores: {str(value).lower()}\n")
        out = tmp_path / "out"
        extra = ["--policy", "counter", "--model", str(checkpoint), "--config", str(cfg)]
        assert main(tiny_simulate_args(tiny_files, out, extra=extra)) == 0
        events = [json.loads(line) for line in (out / "decisions.jsonl").read_text().splitlines()]
        assert any("scores" in e for e in events) is value

    def test_file_values_used_and_flags_override(self, tiny_files, tmp_path):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(
            "pm_count: 2\nhorizon: 3\nseed: 0\n"
            f"workload_file: {tiny_files['workload']}\n"
            f"price_file: {tiny_files['prices']}\n"
        )
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        doc = json.loads((out / "result.json").read_text())
        assert len(doc["pm_ids"]) == 2

        out2 = tmp_path / "out2"
        assert main([
            "simulate", "--config", str(cfg), "--horizon", "2", "--out", str(out2)
        ]) == 0
        doc2 = json.loads((out2 / "result.json").read_text())
        assert doc2["horizon"] == 2 and len(doc2["hourly_energy"]) == 2

    @pytest.mark.parametrize(
        "yaml_text,key",
        [
            ("pm:\n  cores: 2.5\n", "pm.cores"),
            ("pm:\n  cores: 100000000000000000000\n", "pm.cores"),
            ("pm:\n  cores: 9223372036854775808\n", "pm.cores"),
            ("pm:\n  ram: 0\n", "pm.ram"),
            ("pm:\n  ram: true\n", "pm.ram"),
            ("pm:\n  max_frequency: -3400\n", "pm.max_frequency"),
            ('pm:\n  max_frequency: "3400"\n', "pm.max_frequency"),
        ],
        ids=["cores-float", "cores-1e20", "cores-2**63", "ram-zero", "ram-bool",
             "frequency-negative", "frequency-string"],
    )
    def test_bad_pm_value_is_one_error_line(self, tiny_files, tmp_path, capsys, yaml_text, key):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(yaml_text)
        args = tiny_simulate_args(tiny_files, tmp_path / "out", extra=["--config", str(cfg)])
        assert main(args) == 2
        err = capsys.readouterr().err
        assert err.count("error:") == 1 and len(err.strip().splitlines()) == 1
        assert f"config {key!r} must be" in err and "Traceback" not in err
        assert not (tmp_path / "out" / "qos.json").exists()

    def test_largest_pm_value_loads(self, tiny_files, tmp_path):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(f"pm:\n  ram: {2**63 - 1}\n")
        out = tmp_path / "out"
        assert main(tiny_simulate_args(tiny_files, out, extra=["--config", str(cfg)])) == 0
        assert json.loads((out / "result.json").read_text())["placed"] == 3

    def test_pm_section_applies(self, tiny_files, tmp_path):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("pm:\n  ram: 64\n")
        out = tmp_path / "out"
        args = tiny_simulate_args(tiny_files, out) + ["--config", str(cfg)]
        assert main(args) == 0
        # 64 GiB PMs change nothing for the tiny workload placement
        doc = json.loads((out / "result.json").read_text())
        assert doc["placed"] == 3


COMMON_FLAGS = ["--config", "--out", "--seed", "--verbose"]


class TestHelp:
    def test_top_level_lists_subcommands(self, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for sub in ("gen-workload", "train", "simulate", "compare"):
            assert sub in out

    @pytest.mark.parametrize("sub,extra", [
        ("gen-workload", ["--count", "--horizon", "--trace-dir"]),
        ("train", ["--policy", "--episodes", "--epochs", "--lr", "--batch-clusters",
                   "--clusters", "--pm-count", "--vm-count", "--horizon"]),
        ("simulate", ["--policy", "--log-scores", "--model", "--pm-count", "--vm-count",
                      "--horizon", "--workload-file", "--trace-dir", "--price-file"]),
        ("compare", ["--policies", "--seeds", "--model-counter", "--model-hunter",
                     "--pm-count", "--vm-count", "--horizon", "--workload-file",
                     "--price-file"]),
    ])
    def test_every_flag_documented(self, capsys, sub, extra):
        """Each subcommand takes exactly the common flags and its own."""
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args([sub, "--help"])
        out = capsys.readouterr().out
        for flag in COMMON_FLAGS + extra:
            assert flag in out, f"{flag} missing from {sub} --help"
        subparser = parser._subparsers._group_actions[0].choices[sub]
        taken = {a.option_strings[-1] for a in subparser._actions if a.option_strings}
        assert taken == {"--help", *COMMON_FLAGS, *extra}


@pytest.mark.parametrize(
    "argv",
    [["gen-workload"], ["train"], ["simulate"], ["compare", "--policies", "first_fit"]],
    ids=["gen-workload", "train", "simulate", "compare"],
)
def test_unset_flags_give_the_default_scenario(argv):
    assert _build_sim_config({}, build_parser().parse_args(argv)) == SimConfig()


def readme_commands() -> list[str]:
    """Every `cloudsched ...` command in README's code blocks, continuations joined."""
    text = README.read_text(encoding="utf-8").replace("\\\n", " ")
    blocks = text.split("```")[1::2]
    return [line for block in blocks for line in block.splitlines() if line.startswith("cloudsched ")]


def test_readme_commands_parse():
    commands = readme_commands()
    assert len(commands) >= 7
    parser = build_parser()
    for command in commands:
        argv = shlex.split(command, comments=True)[1:]
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"README command does not parse: {command}")


def test_log_scores_flag_adds_scores(tiny_files, tmp_path):
    checkpoint = tmp_path / "model.json"
    atomic_write_text(checkpoint, model_to_json(new_gcn_model(seed=0)))
    out = tmp_path / "out"
    args = tiny_simulate_args(
        tiny_files, out, extra=["--policy", "counter", "--model", str(checkpoint), "--log-scores"]
    )
    assert main(args) == 0
    events = [json.loads(line) for line in (out / "decisions.jsonl").read_text().splitlines()]
    assert any("scores" in e for e in events)
    scored = next(e for e in events if "scores" in e)
    assert set(scored["scores"]["vm-a"]) <= {"pm-0", "pm-1"}


def test_log_scores_flag_skips_heuristics(tiny_files, tmp_path):
    out = tmp_path / "out"
    args = tiny_simulate_args(
        tiny_files, out, extra=["--policy", "best_fit_energy", "--log-scores"]
    )
    assert main(args) == 0
    events = [json.loads(line) for line in (out / "decisions.jsonl").read_text().splitlines()]
    assert events and not any("scores" in e for e in events)
