"""Placement policies: map (resources, requests) to scheduling decisions.

Five interchangeable policies share one driver: pending requests are
processed in arrival order against a working copy of the resource
snapshot, so a single step can fill a PM.  `Policy.score` is the one
place a policy's rule lives: it maps the feasible PMs for one request to
an array of scores, `schedule` takes the argmin (ties go to the first
PM in snapshot order) and logs those same scores when asked.  The
working copy is columnar: a request's candidates are one vectorised
mask and a placement updates one row in place.  The learned policies
score a feature matrix kept beside it, patched one row per placement:
counter by five readout weights, hunter with its graph network; the
consolidator then tries to empty one underloaded PM per step when the
predicted saving is positive.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace as dc_replace
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .datacenter import DatacenterState, ResourceSnapshot
# Not called here; benchmarks/test_bench.py checks that its tracer rebinds this name.
from .datacenter import snapshot as dc_snapshot  # noqa: F401
from .energy import DEFAULT_POWER_MODEL, PowerModel, pm_power
from .errors import ConfigError, DomainError
from .gnn.graph import WorkingFeatures, build_state_graph
from .gnn.models import GatedModel, GcnModel, ScoringWorkspace, score_placements
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
        self._workspace: ScoringWorkspace | None = None

    @property
    def logs_scores(self) -> bool:
        """Score logging covers the learned policies only."""
        return self.record_scores and self.kind in MODEL_POLICIES

    def score(
        self,
        working: ResourceSnapshot,
        request: WorkloadRequest,
        candidates: np.ndarray,
        features: WorkingFeatures | None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Score the feasible PMs for one request; the lowest score wins.

        `candidates` holds the ascending row numbers of the PMs in
        `working` that can host the request.  Returns `(rows, scores)`,
        two aligned arrays in ascending row order; these scores are the
        ones `--log-scores` prints.  Counter scores by `features` (kept
        for `working`) times its readout's `w_xp`, its network score less
        a term every candidate shares; as rounded addition is monotone,
        its pick is one of the network scores' minima.  Hunter scores
        with its network, in the one `ScoringWorkspace` kept for its
        model, sized by the largest snapshot so far (all the PMs).  A
        learned policy returns a lone candidate unscored unless scores
        are logged.  The heuristics return their pick alone and
        unscored: first_fit takes the first candidate, random draws once
        per request, and best_fit_energy takes the PM whose power rises
        least (`_least_power_increase`).
        """
        if self.kind == "first_fit":
            return candidates[:1], _NO_SCORE
        if self.kind == "random":
            pick = int(self._rng.integers(len(candidates)))
            return candidates[pick : pick + 1], _NO_SCORE
        if self.kind == "best_fit_energy":
            pick = _least_power_increase(working, candidates, request, self.power)
            return candidates[pick : pick + 1], _NO_SCORE
        if len(candidates) == 1 and not self.logs_scores:  # nothing to rank
            return candidates, _NO_SCORE
        if self.kind == "counter":
            return candidates, features.values[candidates] @ self.model.w_xp
        workspace, n = self._workspace, len(features.working)
        if workspace is None or workspace.model is not self.model or workspace.pm_count < n:
            workspace = self._workspace = ScoringWorkspace(self.model, n)
        feats = features.for_request(request)
        return candidates, score_placements(self.model, feats, candidates, workspace)


_NO_SCORE = np.zeros(1)  # the score of a pick made without scoring
_NO_SCORE.flags.writeable = False  # shared by every such pick


def _least_power_increase(
    snap: ResourceSnapshot, rows: np.ndarray, request: WorkloadRequest, power: PowerModel
) -> int:
    """The position in `rows` of the PM with the least incremental energy, the first on a tie.

    Power is linear in utilisation and a PM is off exactly when it hosts
    nothing, so hosting c cores on PM i raises its draw by exactly
    `(peak - idle) * c / cores_i + idle * [i is off]` watts; the cooling
    and extra overheads scale every PM's rise alike.  When every PM has
    the same core count, the first term is common to all, so the pick is
    the first powered-on PM, or else the first PM (Beloglazov & Buyya's
    least power increase over identical hosts).  Otherwise the exact
    rises are compared as fractions of the power model's floats.  Unlike
    the float difference `incremental_energy` takes, neither depends on
    how the rises round.
    """
    on = snap.powered_on[rows]
    if snap.same_cores:
        return int(on.argmax())  # the first True, or 0 if there is none
    idle = Fraction(power.idle_power)
    slope = (Fraction(power.peak_power) - idle) * request.cores
    cores = snap.cores[rows].tolist()
    rises = [slope / n + (0 if o else idle) for n, o in zip(cores, on.tolist())]
    return rises.index(min(rises))


def incremental_energy(
    snap: ResourceSnapshot,
    rows: np.ndarray,
    request: WorkloadRequest,
    power: PowerModel,
) -> np.ndarray:
    """Total-energy delta (kWh) of hosting the request for one hour, per PM row.

    Includes the idle block if the PM has to boot, plus the proportional
    cooling/extra overheads; this is the training label.  best_fit_energy
    ranks by the exact rise instead (`_least_power_increase`), which this
    float difference can misorder by its rounding.
    """
    before = pm_power(snap.utilisation[rows], snap.powered_on[rows], power)
    cores = snap.cores[rows]
    used = cores - snap.free_cores[rows]
    after_util = (used + request.cores) / cores
    after = pm_power(after_util, True, power)
    overhead = 1.0 + power.cooling_coefficient + power.extra_coefficient
    return (after - before) / 1000.0 * overhead


def _argmin(rows: np.ndarray, scores: np.ndarray) -> int:
    """The row with the lowest score, as a strict `<` scan in row order picks it.

    Ties go to the first row, a NaN in the first position wins, and a
    later NaN never does.  `argmin` gives the first minimum, or the
    first NaN if there is one, so only a later NaN needs a second look.
    """
    if len(rows) == 1:  # a heuristic's pick: skips an argmin call per request
        return int(rows[0])
    best = scores.argmin()
    if best and scores[best] != scores[best]:
        best = np.nanargmin(scores)  # scores[0] is a number
    return int(rows[best])


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
    The requests are placed on one working copy of `snapshot`; for a
    learned policy, its feature matrix is built once per call and patched
    one PM row per placement.
    """
    working = snapshot.copy()
    features = WorkingFeatures(working, prices) if policy.kind in MODEL_POLICIES else None
    decision = ScheduleDecision()

    for request in sorted(pending, key=lambda r: (r.arrival, r.id)):
        candidates = working.fits(request).nonzero()[0]
        if not candidates.size:
            decision.deferred.append(request.id)
            continue
        rows, scores = policy.score(working, request, candidates, features)
        chosen = _argmin(rows, scores)
        if policy.logs_scores:
            pm_ids = map(working.pm_ids.__getitem__, rows.tolist())
            decision.scores[request.id] = dict(zip(pm_ids, scores.tolist()))

        if recorder is not None:
            graph = build_state_graph(working, request, prices)
            label = incremental_energy(working, np.array([chosen]), request, policy.power)
            recorder(TrainSample(graph=graph, pm_node=chosen, label=float(label[0])))

        decision.assignments.append((request.id, working.pm_ids[chosen]))
        working.place(chosen, request)
        if features is not None:
            features.placed(chosen)

    return decision


def consolidate(
    policy: Policy,
    state: DatacenterState,
    prices: np.ndarray | None = None,
    threshold: float = CONSOLIDATION_THRESHOLD,
) -> list[tuple[str, str]]:
    """Plan migrations emptying at most one underloaded PM this step.

    Only the learned policies consolidate.  The PMs below the utilisation
    threshold are tried least utilised first, and one is emptied only if
    every VM fits on other powered-on PMs and the reclaimed idle energy
    beats the migration penalties.  One mask screens every VM of every
    such PM first, so a PM with a VM that fits on no other powered-on PM,
    or whose VMs need more cores or RAM in all than the other powered-on
    PMs have free, is skipped before anything is scored.  Each PM tried
    is planned on one `take` of the other powered-on PMs, with one kept
    feature matrix, moving its largest VMs first.  `prices` is as for
    `schedule`; the state's columns are only read.
    """
    if policy.kind not in MODEL_POLICIES:
        return []

    snap, running = state.resources, state.running
    on = snap.powered_on.nonzero()[0]
    low = on[snap.utilisation[on] < threshold]
    if not low.size:
        return []
    underloaded = low[snap.utilisation[low].argsort(kind="stable")]  # least utilised first

    # A plan only fills the other PMs, and the columns stay as they are
    # until one is returned.  So a source is skipped before anything is
    # scored when its VMs need more cores or RAM in all than the other
    # powered-on PMs have free.  What they need is what the source has
    # allocated, cores - free; against the others' free, total - free,
    # that is cores > total (and likewise for RAM).
    free_cores, free_ram = snap.free_cores, snap.free_ram
    tried = (snap.cores[underloaded] <= free_cores[on].sum()) & (
        snap.ram[underloaded] <= free_ram[on].sum()
    )
    if not tried.any():
        return []
    # Nor can a source holding a VM that fits on no other powered-on PM
    # now: one mask screens every VM of every source.  source_of[row] is
    # the position in `underloaded` of the PM at that row, else -1.
    source_of = np.full(len(snap), -1)
    source_of[underloaded] = np.arange(len(underloaded))
    index = source_of[running.host]
    moving = (index >= 0).nonzero()[0]
    index = index[moving]
    need = running.values.take(moving, axis=0)
    room = np.array((free_cores, free_ram, snap.max_frequency)).take(on, axis=1)
    fits = (room >= need[:, :3, None]).all(axis=1)  # VM x powered-on PM
    fits &= on != underloaded[index, None]
    tried[index[~fits.any(axis=1)]] = False

    ids, requests, start = running.ids, running.requests, running.start
    for i in tried.nonzero()[0].tolist():
        source = underloaded[i]
        rows = on[on != source]
        working = snap.take(rows)
        features = WorkingFeatures(working, None if prices is None else prices[rows])
        vms = moving[index == i]
        rows_of_vms = vms.tolist()
        largest_first = sorted(
            zip((-running.cores[vms]).tolist(), map(ids.__getitem__, rows_of_vms), rows_of_vms)
        )

        plan: list[tuple[str, str]] = []
        for _, vm_id, vm in largest_first:
            r = requests[vm]
            candidates = working.fits(r).nonzero()[0]
            if not candidates.size:
                break
            remaining = max(1, int(start[vm]) + r.duration - state.clock)
            scoring = WorkloadRequest(r.id, r.cpu_frequency, r.cores, r.ram, remaining, r.arrival)
            dst = _argmin(*policy.score(working, scoring, candidates, features))
            plan.append((vm_id, working.pm_ids[dst]))
            working.place(dst, r)
            features.placed(dst)
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
