"""cloudsched benchmark: workloads, output gates, metrics and per-layer traces.

`run.py` is the command line; README.md says what each workload is for.
Every workload is a closed loop: one caller starts the next operation
when the previous one returns.  Inputs are generated from the seed during
set-up and handed to the program in memory.  The program calls made in
an operation are timed; the checks on its outputs run outside the timed
region.
"""

from __future__ import annotations

import gc
import hashlib
import itertools
import json
import math
import os
import platform
import resource
import statistics
import time
from collections import Counter, defaultdict
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

from cloudsched import datacenter, energy, scheduler, sim, workload
from cloudsched.gnn import graph, models, training

from probe import SpeedProbe
from tracer import Tracer

BENCH_DIR = Path(__file__).resolve().parent
GOLDENS_DIR = BENCH_DIR / "goldens"
RESULTS_DIR = BENCH_DIR / "results"

SETUP_REPS = 3
ENERGY_REL = 1e-9


@dataclass(frozen=True)
class Sweep:
    """Every policy on each of `sims` seeded scenarios, scenario by scenario."""

    name: str
    policies: tuple[str, ...]
    pm_count: int
    vm_count: int
    horizon: int
    sims: int

    @property
    def traced_ops(self) -> int:
        return len(self.policies)  # every policy on the first scenario


@dataclass(frozen=True)
class Train:
    """The acceptance module's recipe: teacher collection, then both models."""

    name: str = "train"
    episodes: int = 3
    epochs: int = 200
    learning_rate: float = 0.01
    batch_clusters: int = 1
    clusters: int = 2
    traced_ops = 1


WORKLOADS = {
    "train": Train(),
    "sweep_heuristic": Sweep(
        "sweep_heuristic", ("first_fit", "best_fit_energy", "random"), 128, 1024, 120, 8
    ),
    "sweep_learned": Sweep("sweep_learned", ("counter", "hunter"), 64, 512, 120, 8),
}

END_TO_END = {
    "setup_s": "s",
    "op_s_p50": "s",
    "sim_hours_per_s": "h/s",
    "peak_rss_mb": "MB",
}


# ---------------------------------------------------------------------------
# Traced functions and the counts taken at their boundaries


def _count_schedule(args, kwargs, decision, counters):
    pending = args[2] if len(args) > 2 else kwargs["pending"]
    counters["schedule.considered"] += len(pending)
    counters["schedule.assigned"] += len(decision.assignments)


def _count_consolidate(args, kwargs, plan, counters):
    counters["consolidate.accepted"] += 1 if plan else 0
    counters["consolidate.migrations"] += len(plan)


def _count_graph(args, kwargs, state_graph, counters):
    counters["graph.nodes"] += state_graph.n_nodes


def _count_bytes(args, kwargs, text, counters):
    counters["serialize.bytes"] += len(text)  # every output is ASCII


# (span name, defining module, function, observer)
TRACED = [
    ("workload.generate_synthetic", "cloudsched.workload", "generate_synthetic", None),
    ("energy.generate_price_series", "cloudsched.energy", "generate_price_series", None),
    ("energy.step_energy", "cloudsched.energy", "step_energy", None),
    ("datacenter.snapshot", "cloudsched.datacenter", "snapshot", None),
    ("datacenter.place", "cloudsched.datacenter", "place", None),
    ("datacenter.admit", "cloudsched.datacenter", "admit", None),
    ("datacenter.remove_finished", "cloudsched.datacenter", "remove_finished", None),
    ("datacenter.migrate", "cloudsched.datacenter", "migrate", None),
    ("scheduler.schedule", "cloudsched.scheduler", "schedule", _count_schedule),
    ("scheduler.consolidate", "cloudsched.scheduler", "consolidate", _count_consolidate),
    ("scheduler.collect_training_data", "cloudsched.scheduler", "collect_training_data", None),
    ("sim.run", "cloudsched.sim", "run", None),
    ("sim.compute_qos", "cloudsched.sim", "compute_qos", None),
    ("sim.serialize", "cloudsched.sim", "result_to_json", _count_bytes),
    ("sim.serialize", "cloudsched.sim", "energy_report_csv", _count_bytes),
    ("sim.serialize", "cloudsched.sim", "decision_log_jsonl", _count_bytes),
    ("gnn.graph.build_state_graph", "cloudsched.gnn.graph", "build_state_graph", _count_graph),
    ("gnn.graph.normalize_adjacency", "cloudsched.gnn.graph", "normalize_adjacency", None),
    ("gnn.graph.partition_graph", "cloudsched.gnn.graph", "partition_graph", None),
    ("gnn.models.score_placements", "cloudsched.gnn.models", "score_placements", None),
    ("gnn.models.restrict_graph", "cloudsched.gnn.models", "restrict_graph", None),
    ("gnn.models.gcn_layers", "cloudsched.gnn.models", "gcn_layers", None),
    ("gnn.models.gated_steps", "cloudsched.gnn.models", "gated_steps", None),
    ("gnn.models.load_model", "cloudsched.gnn.models", "load_model", None),
    ("gnn.training.gcn_loss_and_grads", "cloudsched.gnn.training", "gcn_loss_and_grads", None),
    ("gnn.training.gated_loss_and_grads", "cloudsched.gnn.training", "gated_loss_and_grads", None),
    ("gnn.training.train", "cloudsched.gnn.training", "train", None),
]
SPAN_NAMES = list(dict.fromkeys(name for name, *_ in TRACED))
LAYERS = ["bench"] + list(dict.fromkeys(n.rsplit(".", 1)[0] for n in SPAN_NAMES))


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {}
    for name in SPAN_NAMES:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_pct"] = "%"
    units.update(
        {
            "scheduler.consolidate.accept_frac": "ratio",
            "scheduler.consolidate.migrations": "count",
            "scheduler.schedule.placed_frac": "ratio",
            "gnn.graph.build_state_graph.nodes_mean": "count",
            "sim.serialize.bytes": "B",
        }
    )
    for layer in LAYERS:
        units[f"{layer}.self_pct"] = "%"
    units["trace.wall_s"] = "s"
    units["trace.overhead_s"] = "s"
    return units


# ---------------------------------------------------------------------------
# Set-up: inputs from the seed, handed to the program in memory


@dataclass
class SweepInputs:
    sims: list[tuple[int, tuple, energy.PriceSeries]]  # (sim seed, requests, prices)
    models: dict[str, object]


@dataclass
class TrainInputs:
    seed: int
    scenario: sim.SimConfig
    collect_seed: int
    gcn: models.GcnModel
    gated: models.GatedModel
    config: training.TrainConfig


def setup(spec, seed: int):
    if isinstance(spec, Train):
        # Seed 0 is exactly the acceptance module's recipe.
        scenario = sim.SimConfig(seed=seed)
        locations = tuple(pm.location for pm in datacenter.new_datacenter(scenario.pm_count).pms)
        prices = energy.generate_price_series(locations, scenario.horizon, seed)
        return TrainInputs(
            seed=seed,
            scenario=replace(scenario, prices=prices),
            collect_seed=100 + seed,
            gcn=models.new_gcn_model(seed=1 + seed),
            gated=models.new_gated_model(seed=1 + seed),
            config=training.TrainConfig(
                epochs=spec.epochs,
                learning_rate=spec.learning_rate,
                batch_clusters=spec.batch_clusters,
                seed=2 + seed,
            ),
        )
    locations = tuple(pm.location for pm in datacenter.new_datacenter(spec.pm_count).pms)
    sims = []
    # Consecutive seeds share all but one scenario.  One scenario's run can
    # cost twice another's, so disjoint draws would make the spread between
    # runs measure which scenarios were drawn rather than the program.
    for sim_seed in range(seed, seed + spec.sims):
        requests = workload.generate_synthetic(spec.vm_count, spec.horizon, sim_seed).requests
        prices = energy.generate_price_series(locations, spec.horizon, sim_seed)
        sims.append((sim_seed, requests, prices))
    learned = {
        policy: models.load_model(GOLDENS_DIR / f"{policy}.json")
        for policy in spec.policies
        if policy in scheduler.MODEL_POLICIES
    }
    return SweepInputs(sims=sims, models=learned)


# ---------------------------------------------------------------------------
# Operations and the checks on their outputs


@dataclass
class Op:
    seconds: float | None  # reference seconds; None when the operation raised
    key: str = ""
    wall_s: float | None = None
    scale: float = 1.0  # reference over measured machine speed (probe.py)
    sim_hours: int = 0
    stages: dict[str, float] = field(default_factory=dict)
    digests: dict[str, str] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= ENERGY_REL * max(abs(a), abs(b))


def sweep_problems(result: sim.SimResult, qos: sim.QoSReport, requested: int) -> list[str]:
    """Invariants every simulation must keep, checked from outside."""
    problems = []
    breakdowns = result.hourly + [result.totals] + [row[3] for row in result.pm_energy_rows]
    if not all(_close(b.total, b.processor + b.cooling + b.extra) for b in breakdowns):
        problems.append("energy total != processor + cooling + extra")
    per_hour = defaultdict(list)
    for hour, _pm, _loc, b, _price in result.pm_energy_rows:
        per_hour[hour].append(b.total)
    if not all(_close(b.total, math.fsum(per_hour[h])) for h, b in enumerate(result.hourly)):
        problems.append("hourly energy != sum of per-PM energy")
    if not _close(result.totals.total, math.fsum(b.total for b in result.hourly)):
        problems.append("total energy != sum of hourly energy")
    if not all(0.0 <= u <= 1.0 for row in result.utilisation for u in row):
        problems.append("utilisation outside [0, 1]")
    if result.placed + result.deferred != requested or qos.placed != result.placed:
        problems.append(
            f"placed {result.placed} + deferred {result.deferred} != requested {requested}"
        )
    return problems


def _digests(outputs: dict[str, str]) -> dict[str, str]:
    return {name: hashlib.sha256(text.encode()).hexdigest() for name, text in outputs.items()}


def sweep_op(
    spec: Sweep, policy: str, sim_seed: int, requests, prices, model, root
) -> tuple[Op, dict[str, str]]:
    config = sim.SimConfig(
        pm_count=spec.pm_count,
        vm_count=spec.vm_count,
        horizon=spec.horizon,
        policy=policy,
        model=model,
        requests=requests,
        prices=prices,
        seed=sim_seed,
    )
    with root:
        start = time.perf_counter()
        result = sim.run(config)
        qos = sim.compute_qos(result)
        outputs = {
            "result.json": sim.result_to_json(result),
            "energy_report.csv": sim.energy_report_csv(result),
            "decisions.jsonl": sim.decision_log_jsonl(result),
        }
        seconds = time.perf_counter() - start
    op = Op(
        seconds=seconds,
        sim_hours=spec.horizon,
        digests=_digests(outputs),
        problems=sweep_problems(result, qos, len(requests)),
    )
    return op, outputs


def train_op(spec: Train, inputs: TrainInputs, root) -> tuple[Op, dict[str, str]]:
    with root:
        start = time.perf_counter()
        samples = scheduler.collect_training_data(
            inputs.scenario, episodes=spec.episodes, seed=inputs.collect_seed
        )
        partitions = [graph.partition_graph(s.graph, k=spec.clusters) for s in samples]
        gcn_start = time.perf_counter()
        counter, gcn_losses = training.train(
            inputs.gcn, samples, partitions=partitions, config=inputs.config
        )
        gated_start = time.perf_counter()
        hunter, gated_losses = training.train(inputs.gated, samples, config=inputs.config)
        gated_end = time.perf_counter()
        outputs = {
            "counter.json": models.model_to_json(counter),
            "hunter.json": models.model_to_json(hunter),
            "counter_loss.csv": training.loss_trace_to_csv(gcn_losses),
            "hunter_loss.csv": training.loss_trace_to_csv(gated_losses),
        }
        seconds = time.perf_counter() - start
    problems = []
    if not samples:
        problems.append("teacher collection produced no samples")
    if not all(math.isfinite(x) for x in gcn_losses + gated_losses):
        problems.append("non-finite training loss")
    op = Op(
        seconds=seconds,
        sim_hours=spec.episodes * inputs.scenario.horizon,
        stages={
            "train_collect_s": gcn_start - start,
            "train_gcn_s": gated_start - gcn_start,
            "train_gated_s": gated_end - gated_start,
        },
        digests=_digests(outputs),
        problems=problems,
    )
    return op, outputs


def operations(spec, inputs) -> list[tuple[str, Callable]]:
    """One cycle of the workload's operations, as (key, call) pairs."""
    if isinstance(spec, Train):
        return [(f"recipe/seed={inputs.seed}", partial(train_op, spec, inputs))]
    return [
        (
            f"{policy}/seed={sim_seed}",
            partial(sweep_op, spec, policy, sim_seed, requests, prices, inputs.models.get(policy)),
        )
        for sim_seed, requests, prices in inputs.sims
        for policy in spec.policies
    ]


def run_op(key: str, call: Callable, probe: SpeedProbe, tracer: Tracer | None = None) -> Op:
    """Run one operation from a collected heap; a raise is recorded, not fatal.

    The operation's wall seconds are rescaled to reference seconds with the
    machine speed sampled while it ran.
    """
    gc.collect()
    root = tracer.span("bench.op") if tracer else nullcontext()
    mark = probe.mark()
    try:
        op, _outputs = call(root)
    except Exception as exc:  # an operation failing is a result, not an abort
        return Op(seconds=None, key=key, problems=[f"raised {exc!r}"])
    op.key = key
    op.scale = probe.scale(mark)
    op.wall_s = op.seconds
    op.seconds *= op.scale
    op.stages = {name: value * op.scale for name, value in op.stages.items()}
    return op


def gate(op: Op, goldens: dict[str, dict[str, str]], first: dict[str, dict]) -> None:
    """Compare digests with the committed goldens and with this run's first result."""
    if op.seconds is None:
        return
    golden = goldens.get(op.key)
    if golden is not None and golden != op.digests:
        bad = sorted(n for n in op.digests if golden.get(n) != op.digests[n])
        op.problems.append(f"digest differs from golden: {', '.join(bad)}")
    if first.setdefault(op.key, op.digests) != op.digests:
        op.problems.append("digest differs from this run's first result")


def load_goldens(workload_name: str) -> dict[str, dict[str, str]]:
    """Committed digests by operation key; empty for an unrecorded workload."""
    path = GOLDENS_DIR / f"{workload_name}.json"
    if not path.is_file():
        return {}
    return json.loads(path.read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# Metrics


def tail(values: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten samples beyond it: (value, pct).

    With fewer than eleven samples no such percentile exists; the maximum
    is reported, as percentile 100.
    """
    ordered = sorted(values)
    if len(ordered) < 11:
        return ordered[-1], 100.0
    k = len(ordered) - 11
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def end_to_end(setup_s: float, ops: list[Op], peak_rss_mb: float) -> dict[str, float]:
    timed = [op for op in ops if op.seconds is not None]
    seconds = [op.seconds for op in timed]
    return {
        "setup_s": setup_s,
        "op_s_p50": statistics.median(seconds),
        "sim_hours_per_s": sum(op.sim_hours for op in timed) / sum(seconds),
        "peak_rss_mb": peak_rss_mb,
    }


def per_layer(tracer: Tracer, traced: list[Op], untraced: list[Op]) -> dict[str, float]:
    own = tracer.self_times()
    roots = [i for i, parent in enumerate(tracer.parents) if parent < 0]
    wall = sum(tracer.ends[i] - tracer.starts[i] for i in roots)
    calls = Counter(tracer.names)
    self_ns: dict[str, int] = defaultdict(int)
    for name, ns in zip(tracer.names, own):
        self_ns[name] += ns

    metrics: dict[str, float] = {}
    for name in SPAN_NAMES:
        metrics[f"{name}.calls"] = calls[name]
        metrics[f"{name}.self_pct"] = 100.0 * self_ns[name] / wall
    c = tracer.counters
    consolidations = calls["scheduler.consolidate"]
    builds = calls["gnn.graph.build_state_graph"]
    metrics["scheduler.consolidate.accept_frac"] = (
        c["consolidate.accepted"] / consolidations if consolidations else 0.0
    )
    metrics["scheduler.consolidate.migrations"] = int(c["consolidate.migrations"])
    metrics["scheduler.schedule.placed_frac"] = (
        c["schedule.assigned"] / c["schedule.considered"] if c["schedule.considered"] else 0.0
    )
    metrics["gnn.graph.build_state_graph.nodes_mean"] = c["graph.nodes"] / builds if builds else 0.0
    metrics["sim.serialize.bytes"] = int(c["serialize.bytes"])
    for layer in LAYERS:
        metrics[f"{layer}.self_pct"] = 100.0 * sum(
            ns for name, ns in self_ns.items() if name.rsplit(".", 1)[0] == layer
        ) / wall
    metrics["trace.wall_s"] = wall / 1e9
    metrics["trace.overhead_s"] = tracing_overhead(traced, untraced)
    return metrics


def tracing_overhead(traced: list[Op], untraced: list[Op]) -> float:
    """Median over traced operations of traced minus untraced seconds, key by key."""
    by_key = defaultdict(list)
    for op in untraced:
        if op.seconds is not None:
            by_key[op.key].append(op.seconds)
    diffs = [
        op.seconds - statistics.median(by_key[op.key])
        for op in traced
        if op.seconds is not None and by_key[op.key]
    ]
    return statistics.median(diffs) if diffs else 0.0  # 0.0: every traced operation raised


def _stage_medians(ops: list[Op]) -> dict[str, float]:
    stages = defaultdict(list)
    for op in ops:
        for name, value in op.stages.items():
            stages[name].append(value)
    return {name: statistics.median(values) for name, values in stages.items()}


def machine_facts() -> dict:
    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), "")
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
        "loadavg_start": list(os.getloadavg()),
    }


# ---------------------------------------------------------------------------
# One run


def measure(
    spec,
    seed: int,
    seconds: float,
    trace: bool,
    probe: SpeedProbe,
    import_s: float = 0.0,
    goldens: dict | None = None,
    tracer: Tracer | None = None,
) -> dict:
    """Set up, cycle through the operations for `seconds`, gate every output.

    With `trace`, the first `spec.traced_ops` operations then run once more
    under a tracer, after a traced set-up.

    Times are reference seconds (see probe.py); `import_s` already is one.
    Returns the full report; `report["result"]` is the line the command prints.
    """
    facts = machine_facts()
    goldens = load_goldens(spec.name) if goldens is None else goldens

    setup_wall, setup_times = [], []
    for _ in range(SETUP_REPS):
        mark = probe.mark()
        start = time.perf_counter()
        inputs = setup(spec, seed)
        setup_wall.append(time.perf_counter() - start)
        setup_times.append(setup_wall[-1] * probe.scale(mark))

    first: dict[str, dict] = {}
    ops: list[Op] = []
    deadline = time.perf_counter() + seconds
    for key, call in itertools.cycle(operations(spec, inputs)):
        op = run_op(key, call, probe)
        gate(op, goldens, first)
        ops.append(op)
        if len(ops) >= spec.traced_ops and time.perf_counter() >= deadline:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if not any(op.seconds is not None for op in ops):
        raise RuntimeError(f"every operation raised: {ops[0].problems}")

    setup_s = import_s + statistics.median(setup_times)
    times = [op.seconds for op in ops if op.seconds is not None]
    report = {
        "workload": spec.name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "machine": facts,
        "import_s": import_s,
        "setup_reps_s": setup_times,
        "end_to_end": end_to_end(setup_s, ops, peak_rss_mb),
        "wall": {
            "setup_reps_s": setup_wall,
            "op_s_p50": statistics.median(op.wall_s for op in ops if op.seconds is not None),
        },
        "probe": {
            "samples": probe.mark(),
            "snippet_ns_p50": statistics.median(probe.samples) if probe.samples else None,
            "op_scale_p50": statistics.median(op.scale for op in ops),
        },
        "op_samples": len(times),
        "op_s_tail": tail(times)[0],
        "op_tail_percentile": tail(times)[1],
        "stages": _stage_medians(ops),
        "ops": [op.__dict__ for op in ops],
    }
    all_ops = list(ops)
    if trace:
        tracer = tracer or Tracer()
        with tracer.installed(TRACED):
            with tracer.span("bench.setup"):
                traced_inputs = setup(spec, seed)
            traced = [
                run_op(key, call, probe, tracer)
                for key, call in operations(spec, traced_inputs)[: spec.traced_ops]
            ]
        for op in traced:
            gate(op, goldens, first)
        all_ops.extend(traced)
        report["per_layer"] = per_layer(tracer, traced, ops)
        report["traced_stages"] = _stage_medians(traced)
        report["traced_ops"] = [op.__dict__ for op in traced]
        report["spans"] = len(tracer.names)

    failed = sum(1 for op in all_ops if op.problems)
    report["fail_frac"] = failed / len(all_ops)
    metrics = report["per_layer"] if trace else report["end_to_end"]
    units = per_layer_units() if trace else END_TO_END
    report["result"] = {
        "correct": failed == 0,
        "attempted": len(all_ops),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    return report


def run(
    workload_name: str, seed: int, seconds: float, trace: bool, probe: SpeedProbe, import_s: float
) -> dict:
    """Measure one workload and write the report (and spans) under results/."""
    tracer = Tracer() if trace else None
    report = measure(WORKLOADS[workload_name], seed, seconds, trace, probe, import_s, tracer=tracer)
    RESULTS_DIR.mkdir(exist_ok=True)
    stem = f"{workload_name}-seed{seed}-trace{int(trace)}"
    if tracer is not None:
        tracer.write(RESULTS_DIR / f"{stem}.spans.json.gz")
    (RESULTS_DIR / f"{stem}.json").write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return report
