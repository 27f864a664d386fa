"""Placement policies: map (resources, requests) to scheduling decisions.

Five interchangeable policies share one driver: pending requests are
processed in arrival order against a working copy of the resource
snapshot, so a single step can fill a PM.  `Policy.score` is the one
place a policy's rule lives: it maps the feasible PMs for one request to
scores and the driver takes the argmin (ties go to the first PM in
snapshot order).  The working copy is columnar: a request's candidates
are one vectorised mask and a placement updates one row in place.  The
learned policies score with a graph network; the consolidator then tries
to empty one underloaded PM per step when the predicted saving is
positive.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace as dc_replace
from typing import Callable, Sequence

import numpy as np

from .datacenter import DatacenterState, ResourceSnapshot
# Not called here; benchmarks/test_bench.py checks that its tracer rebinds this name.
from .datacenter import snapshot as dc_snapshot  # noqa: F401
from .energy import DEFAULT_POWER_MODEL, PowerModel, pm_power
from .errors import ConfigError, DomainError
from .gnn.graph import build_state_graph
from .gnn.models import GatedModel, GcnModel, score_placements
from .gnn.training import TrainSample
from .workload import WorkloadRequest, generate_synthetic

POLICY_KINDS = ("first_fit", "best_fit_energy", "random", "counter", "hunter")
MODEL_POLICIES = ("counter", "hunter")
POLICY_MODELS = {"counter": GcnModel, "hunter": GatedModel}  # the network each one scores with

CONSOLIDATION_THRESHOLD = 0.25


@dataclass
class ScheduleDecision:
    assignments: list[tuple[str, str]] = field(default_factory=list)  # (vm, pm)
    deferred: list[str] = field(default_factory=list)
    scores: dict[str, dict[str, float]] = field(default_factory=dict)  # vm -> pm -> score


@dataclass
class Policy:
    kind: str
    model: GcnModel | GatedModel | None = None
    rng_seed: int = 0
    power: PowerModel = DEFAULT_POWER_MODEL
    record_scores: bool = False

    def __post_init__(self):
        if self.kind not in POLICY_KINDS:
            raise ConfigError(f"unknown policy kind {self.kind!r}")
        if self.kind in MODEL_POLICIES:
            expected = POLICY_MODELS[self.kind]
            if not isinstance(self.model, expected):
                raise ConfigError(f"policy {self.kind!r} needs a {expected.__name__} attached")
        self._rng = np.random.default_rng(self.rng_seed)

    @property
    def logs_scores(self) -> bool:
        """Score logging covers the learned policies only."""
        return self.record_scores and self.kind in MODEL_POLICIES

    def score(
        self,
        working: ResourceSnapshot,
        request: WorkloadRequest,
        candidates: np.ndarray,
        prices: np.ndarray | None,
    ) -> dict[int, float]:
        """Score the feasible PMs for one request; the lowest score wins.

        `candidates` holds the ascending row numbers of the PMs in
        `working` that can host the request, and `prices` the current
        price at each PM of `working` (None: unpriced); the graph
        networks score the candidates on the request's state graph over
        `working`.  Scores are keyed by row, in ascending row order.
        The heuristics return their pick alone: first_fit and random pick
        without scoring (random draws once per request), and
        best_fit_energy keeps only its lowest incremental energy, the
        first one on a tie, as `_argmin`'s scan would.
        """
        if self.kind == "first_fit":
            return {int(candidates[0]): 0.0}
        if self.kind == "random":
            return {int(candidates[int(self._rng.integers(len(candidates)))]): 0.0}
        if self.kind == "best_fit_energy":
            energy = incremental_energy(working, candidates, request, self.power)
            best = int(np.argmin(energy))  # never NaN: pm_power rejects it
            return {int(candidates[best]): float(energy[best])}
        return score_placements(self.model, working, request, candidates, prices)


def incremental_energy(
    snap: ResourceSnapshot,
    rows: np.ndarray,
    request: WorkloadRequest,
    power: PowerModel,
    dt: float = 1.0,
) -> np.ndarray:
    """Total-energy delta (kWh) of hosting the request for `dt` hours, per PM row.

    Includes the idle block if the PM has to boot, plus the proportional
    cooling/extra overheads; this is both the best-fit objective and the
    training label.
    """
    before = pm_power(snap.utilisation[rows], snap.powered_on[rows], power)
    cores = snap.cores[rows]
    used = cores - snap.free_cores[rows]
    after_util = (used + request.cores) / cores
    after = pm_power(after_util, True, power)
    overhead = 1.0 + power.cooling_coefficient + power.extra_coefficient
    return (after - before) * dt / 1000.0 * overhead


def _argmin(scores: dict[int, float]) -> int:
    """The row with the lowest score: a strict `<` scan in row order."""
    best_row = None
    best = None
    for row, score in scores.items():
        if best is None or score < best:
            best = score
            best_row = row
    return best_row


SampleRecorder = Callable[[TrainSample], None]


def schedule(
    policy: Policy,
    snapshot: ResourceSnapshot,
    pending: Sequence[WorkloadRequest],
    prices: np.ndarray | None = None,
    recorder: SampleRecorder | None = None,
) -> ScheduleDecision:
    """Assign each pending request per the policy, or defer it.

    `prices` is the per-PM price row in snapshot order (None: unpriced).
    """
    working = snapshot.copy()
    decision = ScheduleDecision()

    for request in sorted(pending, key=lambda r: (r.arrival, r.id)):
        candidates = np.flatnonzero(working.fits(request))
        if not candidates.size:
            decision.deferred.append(request.id)
            continue
        scores = policy.score(working, request, candidates, prices)
        chosen = _argmin(scores)
        if policy.logs_scores:
            decision.scores[request.id] = {working.pm_ids[row]: s for row, s in scores.items()}

        if recorder is not None:
            graph = build_state_graph(working, [request], prices)
            label = incremental_energy(working, np.array([chosen]), request, policy.power)
            recorder(
                TrainSample(
                    graph=graph, vm_node=len(working), pm_node=chosen, label=float(label[0])
                )
            )

        decision.assignments.append((request.id, working.pm_ids[chosen]))
        working.place(chosen, request)

    return decision


def consolidate(
    policy: Policy,
    state: DatacenterState,
    prices: np.ndarray | None = None,
    threshold: float = CONSOLIDATION_THRESHOLD,
) -> list[tuple[str, str]]:
    """Plan migrations emptying at most one underloaded PM this step.

    Only the learned policies consolidate.  A PM below the utilisation
    threshold is emptied only if every VM fits on other powered-on PMs
    and the reclaimed idle energy beats the migration penalties.
    `prices` is as for `schedule`; the state's columns are only read.
    """
    if policy.kind not in MODEL_POLICIES:
        return []

    snap = state.resources
    on = np.flatnonzero(snap.powered_on)
    low = on[snap.utilisation[on] < threshold]
    underloaded = low[np.argsort(snap.utilisation[low], kind="stable")]

    hosted: dict[str, list] = {snap.pm_ids[row]: [] for row in underloaded.tolist()}
    for vm in state.vms.values():
        if vm.placed_on in hosted:
            hosted[vm.placed_on].append(vm)
    sources = [  # (row, its VMs largest first), least utilised first
        (row, sorted(vms, key=lambda v: (-v.request.cores, v.id)))
        for row, vms in zip(underloaded.tolist(), hosted.values())
        if vms
    ]
    if not sources:
        return []

    # The columns stay as they are until a plan is returned, so one mask
    # screens every source: can its first VM go to another powered-on PM?
    first = np.array(
        [(v[0].request.cores, v[0].request.ram, v[0].request.cpu_frequency) for _, v in sources]
    )
    source_rows = np.array([row for row, _ in sources])
    movable = (
        (snap.free_cores[on] >= first[:, :1])
        & (snap.free_ram[on] >= first[:, 1:2])
        & (snap.max_frequency[on] >= first[:, 2:])
        & (on != source_rows[:, None])
    )

    for (source, vms), screened in zip(sources, movable.any(axis=1).tolist()):
        if not screened:
            continue  # the first VM has nowhere to go, so no plan empties this PM
        rows = on[on != source]
        working = snap.take(rows)
        working_prices = None if prices is None else prices[rows]

        plan: list[tuple[str, str]] = []
        for vm in vms:
            candidates = np.flatnonzero(working.fits(vm.request))
            if not candidates.size:
                break
            remaining = max(1, vm.start_hour + vm.request.duration - state.clock)
            scoring_request = dc_replace(vm.request, duration=remaining)
            dst = _argmin(policy.score(working, scoring_request, candidates, working_prices))
            plan.append((vm.id, working.pm_ids[dst]))
            working.place(dst, vm.request)
        else:  # every VM found a destination
            saving = policy.power.idle_power / 1000.0 - policy.power.migration_penalty * len(plan)
            if plan and saving > 0:
                return plan
    return []


def collect_training_data(scenario, episodes: int = 1, seed: int = 0) -> list[TrainSample]:
    """Gather (graph, pair, realized-energy) samples from teacher episodes.

    The teacher is the best_fit_energy heuristic.  Each episode re-runs
    the scenario; a scenario without `requests` gets a synthetic workload
    drawn at `seed + episode`.  One sample is recorded per successful
    placement.  Pure function of (scenario, episodes, seed).
    """
    from . import sim  # placed here: sim drives the scheduler, not vice versa

    if episodes < 1:
        raise DomainError("episodes must be >= 1")

    samples: list[TrainSample] = []
    for episode in range(episodes):
        cfg = dc_replace(scenario, policy="best_fit_energy", model=None)
        if cfg.requests is None:
            workload = generate_synthetic(cfg.vm_count, cfg.horizon, seed + episode)
            cfg = dc_replace(cfg, requests=workload.requests)
        sim.run(cfg, sample_recorder=samples.append)
    return samples
