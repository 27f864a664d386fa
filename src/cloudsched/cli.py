"""Command-line entry point: gen-workload, train, simulate, compare.

Configuration comes from an optional YAML file mirroring the simulation
scenario; flags override file values.  Exit codes: 0 ok, 2 configuration
or input error, 3 I/O error, 4 training divergence.
"""

from __future__ import annotations

import argparse
import logging
import sys
from dataclasses import replace as dc_replace
from pathlib import Path

import yaml

from .datacenter import DEFAULT_PM_TEMPLATE, PM_SIZE
from .energy import DEFAULT_POWER_MODEL, PowerModel, load_price_series
from .errors import ConfigError, DivergenceError, SimulatorError
from .gnn.models import load_model, model_to_json, new_gated_model, new_gcn_model
from .gnn.training import TrainConfig, loss_trace_to_csv, train
from .scheduler import MODEL_POLICIES, POLICY_KINDS, POLICY_MODELS, collect_training_data
from .sim import (
    SCENARIO_RULES,
    SimConfig,
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
from .util import atomic_write_text, is_finite_number, is_int, parse_file
from .workload import generate_synthetic, ingest_trace_dir, workload_from_json, workload_to_json

log = logging.getLogger("cloudsched")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_DIVERGENCE = 4


# What each config value must be: (test, description for the error), or
# None for a section and for the `power:` values, which `PowerModel` checks.
# The `pm:` values follow `PhysicalMachine`'s rule, checked here to name the key.
_INT = (is_int, "an integer")
_NUMBER = (is_finite_number, "a finite number")
_PM_KEYS = dict.fromkeys(("cores", "ram", "max_frequency"), PM_SIZE)
_POWER_KEYS = dict.fromkeys(
    ("idle_power", "peak_power", "cooling_coefficient", "extra_coefficient", "migration_penalty")
)
_TRAINING_KEYS = {
    **dict.fromkeys(("episodes", "epochs", "batch_clusters", "clusters"), _INT),
    "learning_rate": _NUMBER,
}
_TOP_KEYS = {
    **SCENARIO_RULES,
    **dict.fromkeys(
        ("model_path", "workload_file", "trace_dir", "price_file", "out_dir"),
        (lambda v: isinstance(v, str), "a string"),
    ),
    "verbosity": (lambda v: v in ("info", "warning"), "'info' or 'warning'"),
    **dict.fromkeys(("pm", "power", "training")),
}


def _check_keys(values: dict, kinds: dict, section: str | None = None) -> None:
    """Reject unknown keys, and values of the wrong kind, in one config mapping."""
    unknown = set(values) - set(kinds)
    if unknown:
        where = f"config section {section!r}" if section else "config"
        raise ConfigError(f"unknown keys in {where}: {sorted(unknown, key=str)}")
    for key, value in values.items():
        if kinds[key] is not None:
            test, what = kinds[key]
            if not test(value):
                name = f"{section}.{key}" if section else key
                raise ConfigError(f"config {name!r} must be {what}, got {value!r}")


def load_config_file(path: str) -> dict:
    """Read and validate the YAML config; unknown keys and mistyped values are rejected."""
    with open(path, "rb") as fh:
        try:
            doc = yaml.safe_load(fh) or {}
        except (yaml.YAMLError, RecursionError) as exc:
            detail = " ".join(str(exc).split())  # YAML errors span several lines
            raise ConfigError(f"config {path!r} is not valid YAML: {detail}") from None
    if not isinstance(doc, dict):
        raise ConfigError(f"config {path!r} must be a mapping")
    _check_keys(doc, _TOP_KEYS)
    for section, kinds in (("pm", _PM_KEYS), ("power", _POWER_KEYS), ("training", _TRAINING_KEYS)):
        sub = doc.get(section)
        if sub is None:
            continue
        if not isinstance(sub, dict):
            raise ConfigError(f"config section {section!r} must be a mapping")
        _check_keys(sub, kinds, section)
    return doc


# The `SimConfig` fields a flag or a config key of the same name can set.
# The path keys are no fields: `_load_checkpoint` and `_read_inputs` read
# their files into `model`, `requests` and `prices`.
_SCENARIO_FIELDS = tuple(SCENARIO_RULES)
_TRAIN_FLAGS = {"learning_rate": "lr"}  # every other `training:` key is its flag's name


def _setting(args, cfg: dict, name: str, flag: str | None = None):
    """`name`'s value from its flag (named `flag`, else `name`), else from `cfg`; None if unset."""
    value = getattr(args, flag or name, None)  # None: flag unset or absent
    return value if value is not None else cfg.get(name)


def _build_sim_config(cfg: dict, args) -> SimConfig:
    """The scenario: each value from its flag, else the config file, else `SimConfig`."""
    values = {name: _setting(args, cfg, name) for name in _SCENARIO_FIELDS}
    if cfg.get("pm"):
        values["pm_template"] = dc_replace(DEFAULT_PM_TEMPLATE, **cfg["pm"])
    if cfg.get("power"):
        values["power"] = PowerModel(**{**DEFAULT_POWER_MODEL.__dict__, **cfg["power"]})
    return SimConfig(**{k: v for k, v in values.items() if v is not None})


def _build_train_config(cfg: dict, args, seed: int) -> TrainConfig:
    """The recipe: each value from its flag, else `training:`; `TrainConfig` checks them."""
    section = cfg.get("training") or {}
    values = {k: _setting(args, section, k, _TRAIN_FLAGS.get(k)) for k in _TRAINING_KEYS}
    return TrainConfig(seed=seed, **{k: v for k, v in values.items() if v is not None})


def _read_inputs(config: SimConfig, cfg: dict, args) -> SimConfig:
    """`config` with the workload and prices its flags or config file name, each read once."""
    workload_file = _setting(args, cfg, "workload_file")
    trace_dir = _setting(args, cfg, "trace_dir")
    if workload_file is not None and trace_dir is not None:
        raise ConfigError(
            f"a workload file ({workload_file}) and a trace directory ({trace_dir}) "
            "are both given; give one workload source"
        )
    if workload_file is not None:
        config = dc_replace(config, requests=parse_file(workload_file, workload_from_json).requests)
    elif trace_dir is not None:
        config = dc_replace(config, requests=ingest_trace_dir(trace_dir, config.horizon).requests)
    price_file = _setting(args, cfg, "price_file")
    if price_file is not None:
        config = dc_replace(config, prices=parse_file(price_file, load_price_series))
    return config


def _load_checkpoint(policy: str, path: str | None, flag: str, out: Path):
    """The checkpoint a learned `policy` scores with, kind-checked; None for a heuristic."""
    if policy not in MODEL_POLICIES:
        return None
    if path is None:
        raise ConfigError(
            f"policy {policy!r} needs {flag}; "
            f"`cloudsched train --policy {policy} --seed 0 --out {out}` "
            f"writes {out / f'model_{policy}.json'}"
        )
    model = load_model(path)
    expected = POLICY_MODELS[policy].kind
    if model.kind != expected:
        raise ConfigError(
            f"{path} holds a {model.kind!r} checkpoint, policy {policy!r} needs a "
            f"{expected!r} one; pass it with {flag}"
        )
    return model


def _out_dir(cfg: dict, args) -> Path:
    out = args.out if args.out is not None else cfg.get("out_dir", "out")
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def cmd_gen_workload(cfg: dict, args) -> int:
    out = _out_dir(cfg, args)
    scenario = _build_sim_config(cfg, args)
    trace_dir = _setting(args, cfg, "trace_dir")
    if trace_dir is not None:
        workload = ingest_trace_dir(trace_dir, scenario.horizon)
    else:
        count = args.count if args.count is not None else scenario.vm_count
        workload = generate_synthetic(count, scenario.horizon, scenario.seed)
    target = out / "workloads.json"
    atomic_write_text(target, workload_to_json(workload))
    log.info("wrote %d requests to %s", len(workload.requests), target)
    print(target)
    return EXIT_OK


def cmd_train(cfg: dict, args) -> int:
    out = _out_dir(cfg, args)
    policy = args.policy if args.policy is not None else cfg.get("policy")
    if policy not in MODEL_POLICIES:
        raise ConfigError(f"--policy must be one of {MODEL_POLICIES}, got {policy!r}")
    # The scenario (workload and prices) uses the seed itself; teacher
    # collection, model init and SGD each get their own offset from it, so
    # `--seed 0` is the recipe of the committed checkpoints.
    scenario = _read_inputs(_build_sim_config(cfg, args), cfg, args)
    seed = scenario.seed
    config = _build_train_config(cfg, args, seed=2 + seed)
    samples = collect_training_data(scenario, episodes=config.episodes, seed=100 + seed)
    log.info("collected %d training samples from %d episodes", len(samples), config.episodes)

    # `train` partitions the GCN's samples into `config.clusters` clusters.
    model = new_gcn_model(seed=1 + seed) if policy == "counter" else new_gated_model(seed=1 + seed)
    trained, losses = train(model, samples, config=config)

    model_path = out / f"model_{policy}.json"
    loss_path = out / f"loss_{policy}.csv"
    atomic_write_text(model_path, model_to_json(trained))
    atomic_write_text(loss_path, loss_trace_to_csv(losses))
    log.info("final mean loss %.6g", losses[-1])
    print(model_path)
    print(loss_path)
    return EXIT_OK


def cmd_simulate(cfg: dict, args) -> int:
    out = _out_dir(cfg, args)
    config = _build_sim_config(cfg, args)
    model_path = _setting(args, cfg, "model_path", flag="model")
    model = _load_checkpoint(config.policy, model_path, "--model", out)
    config = _read_inputs(dc_replace(config, model=model), cfg, args)
    result = run(config)
    report = compute_qos(result)

    atomic_write_text(out / "result.json", result_to_json(result))
    atomic_write_text(out / "qos.json", qos_to_json(report))
    atomic_write_text(out / "energy_report.csv", energy_report_csv(result))
    atomic_write_text(out / "decisions.jsonl", decision_log_jsonl(result))
    print(out / "qos.json")
    log.info(
        "policy=%s energy=%.3f kWh cost=%.3f placed=%d deferred=%d",
        config.policy,
        report.total_energy,
        report.total_cost,
        report.placed,
        report.deferred,
    )
    return EXIT_OK


def cmd_compare(cfg: dict, args) -> int:
    out = _out_dir(cfg, args)
    policies = [p.strip() for p in args.policies.split(",") if p.strip()]
    if not policies:
        raise ConfigError("--policies must list at least one policy")
    for policy in policies:
        if policy not in POLICY_KINDS:
            raise ConfigError(f"unknown policy {policy!r}")

    models = {}  # each checkpoint read once, for every seed
    for policy in MODEL_POLICIES:
        if policy in policies:
            path = _setting(args, cfg, "model_path", flag=f"model_{policy}")
            models[policy] = _load_checkpoint(policy, path, f"--model-{policy}", out)

    # Score logging is off: compare writes no decision log.
    base = _read_inputs(dc_replace(_build_sim_config(cfg, args), log_scores=False), cfg, args)
    configs = [dc_replace(base, policy=policy, model=models.get(policy)) for policy in policies]
    table = compare(configs, seeds=args.seeds)
    atomic_write_text(out / "comparison.csv", comparison_to_csv(table))
    atomic_write_text(out / "seed_sweep.csv", seed_sweep_to_csv(table))
    print(out / "comparison.csv")
    print(out / "seed_sweep.csv")
    for (a, b), delta in table.deltas.items():
        energy = delta["energy_pct"]
        cost = delta["cost_pct"]
        energy_s = f"{energy:+.2f}%" if energy is not None else "n/a"
        cost_s = f"{cost:+.2f}%" if cost is not None else "n/a"
        print(f"{b} vs {a}: energy {energy_s}, cost {cost_s}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH", help="YAML configuration file")
    common.add_argument("--out", metavar="DIR", help="output directory (default: out)")
    common.add_argument("--seed", type=int, metavar="N", help="master RNG seed")
    common.add_argument("-v", "--verbose", action="store_true", help="info-level logging")

    parser = argparse.ArgumentParser(
        prog="cloudsched",
        description="Energy-aware data-centre simulator with learned VM schedulers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-workload", parents=[common], help="write a workload JSON file")
    p.add_argument("--count", type=int, help="number of requests to generate")
    p.add_argument("--horizon", type=int, help="arrival horizon in hours")
    p.add_argument("--trace-dir", metavar="DIR", help="derive requests from trace files")
    p.set_defaults(func=cmd_gen_workload)

    p = sub.add_parser("train", parents=[common], help="train a scheduler model")
    p.add_argument(
        "--policy", metavar="NAME", choices=POLICY_KINDS, help="model to train: counter or hunter"
    )
    p.add_argument("--episodes", type=int, help="teacher episodes to collect")
    p.add_argument("--epochs", type=int, help="training epochs")
    p.add_argument("--lr", type=float, help="SGD learning rate")
    p.add_argument("--batch-clusters", type=int, help="clusters sampled per step")
    p.add_argument("--clusters", type=int, help="clusters per sample graph")
    p.add_argument("--pm-count", type=int, help="scenario PM count")
    p.add_argument("--vm-count", type=int, help="scenario VM count")
    p.add_argument("--horizon", type=int, help="scenario horizon in hours")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("simulate", parents=[common], help="run one simulation")
    p.add_argument("--policy", metavar="NAME", choices=POLICY_KINDS, help="scheduling policy")
    p.add_argument(
        "--log-scores",
        action="store_true",
        default=None,  # unset: the config file decides
        help="log the per-PM scores each learned policy ranked by "
        "(counter: its network score less a term every candidate shares)",
    )
    p.add_argument("--model", metavar="PATH", help="model checkpoint for counter/hunter")
    p.add_argument("--pm-count", type=int, help="number of PMs")
    p.add_argument("--vm-count", type=int, help="number of synthetic VMs")
    p.add_argument("--horizon", type=int, help="simulation hours")
    p.add_argument("--workload-file", metavar="PATH", help="workload JSON input")
    p.add_argument("--trace-dir", metavar="DIR", help="trace directory input")
    p.add_argument("--price-file", metavar="PATH", help="price CSV input")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("compare", parents=[common], help="compare policies on shared scenarios")
    p.add_argument("--policies", required=True, metavar="A,B,...", help="comma-separated policies")
    p.add_argument(
        "--seeds",
        type=int,
        default=1,
        metavar="N",
        help="run each policy at seeds S..S+N-1, where S is --seed (default: 1)",
    )
    p.add_argument("--model-counter", metavar="PATH", help="checkpoint for the counter policy")
    p.add_argument("--model-hunter", metavar="PATH", help="checkpoint for the hunter policy")
    p.add_argument("--pm-count", type=int, help="number of PMs")
    p.add_argument("--vm-count", type=int, help="number of synthetic VMs")
    p.add_argument("--horizon", type=int, help="simulation hours")
    p.add_argument("--workload-file", metavar="PATH", help="workload JSON input")
    p.add_argument("--price-file", metavar="PATH", help="price CSV input")
    p.set_defaults(func=cmd_compare)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        if args.seed is not None and args.seed < 0:
            raise ConfigError(f"--seed must be a non-negative integer, got {args.seed}")
        cfg = load_config_file(args.config) if args.config else {}
        if not args.verbose and cfg.get("verbosity") == "info":
            logging.getLogger().setLevel(logging.INFO)
        return args.func(cfg, args)
    except DivergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DIVERGENCE
    except SimulatorError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError as exc:
        print(f"error: too large for memory: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
