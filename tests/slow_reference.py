"""Straightforward reference versions of the simulator's fast paths.

Each function here is the plain loop that a vectorised, cached or
columnar path in `cloudsched` replaces.  The equivalence tests compare
the two bit for bit.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import replace

import numpy as np

from cloudsched.datacenter import LAST_HOUR, DatacenterState, RunningVms, snapshot
from cloudsched.energy import (
    DEFAULT_POWER_MODEL,
    WATTS_PER_KW,
    ZERO_ENERGY,
    EnergyBreakdown,
    PowerModel,
    PriceSeries,
    pm_power,
)
from cloudsched.errors import CapacityError, DomainError, NotFoundError
from cloudsched.gnn.graph import (
    FEATURE_DIM,
    WorkingFeatures,
    FREQ_BASE_MHZ,
    FREQ_SPAN_MHZ,
    NORM_CORES,
    NORM_DURATION_H,
    NORM_PRICE,
    NORM_RAM_GIB,
    StateGraph,
    build_state_graph,
    normalize_adjacency,
    partition_graph,
)
from cloudsched.gnn.models import (
    GcnModel,
    gated_steps,
    gcn_layers,
    model_from_json,
    model_to_json,
    pad_features,
    restrict_graph,
    score_placements,
)
from cloudsched.gnn.training import _choose_clusters
from cloudsched.scheduler import (
    CONSOLIDATION_THRESHOLD,
    MODEL_POLICIES,
    _argmin,
    incremental_energy,
)
from cloudsched.workload import (
    CORE_CHOICES,
    DURATION_MAX_H,
    DURATION_MIN_H,
    FREQ_MAX_MHZ,
    FREQ_MIN_MHZ,
    RAM_CHOICES_GIB,
    WorkloadRequest,
    WorkloadSet,
)

from helpers import VirtualMachine, entry, snapshot_from_entries, state_vms


def synthetic_by_scalar_draws(count, horizon, seed) -> WorkloadSet:
    """`generate_synthetic` with one scalar RNG call per number, five per request."""
    rng = np.random.default_rng(seed)
    requests = []
    for i in range(count):
        arrival = int(rng.integers(0, horizon))
        duration = int(rng.integers(DURATION_MIN_H, DURATION_MAX_H + 1))
        cores = int(rng.choice(CORE_CHOICES))
        frequency = int(rng.integers(FREQ_MIN_MHZ, FREQ_MAX_MHZ + 1))
        ram = int(rng.choice(RAM_CHOICES_GIB))
        requests.append(
            WorkloadRequest(
                id=f"vm-{i:04d}",
                cpu_frequency=frequency,
                cores=cores,
                ram=ram,
                duration=duration,
                arrival=arrival,
            )
        )
    requests.sort(key=lambda r: (r.arrival, r.id))
    return WorkloadSet(requests=tuple(requests))


def prices_by_scalar_draws(locations, horizon, seed) -> PriceSeries:
    """`generate_price_series` with one scalar RNG call per phase and per hour's noise.

    A location listed twice keeps its last series, in first-seen order, as
    a dict keeps it.
    """
    rng = np.random.default_rng(seed)
    prices = {}
    for location in locations:
        phase = float(rng.uniform(0.0, 24.0))
        series = []
        for hour in range(horizon):
            base = 0.10 + 0.04 * math.sin(2.0 * math.pi * (hour + phase) / 24.0)
            noise = float(rng.uniform(-0.01, 0.01))
            series.append(max(0.01, base + noise))
        prices[location] = tuple(series)
    return PriceSeries(tuple(prices), np.reshape(list(prices.values()), (len(prices), horizon)))


def price_matrix_by_location(series: PriceSeries, pm_locations, horizon: int) -> np.ndarray:
    """A run's `[hour][pm]` prices from a `{location: tuple of Python floats}` table:
    each PM's location tuple, cut to the horizon, stacked and transposed."""
    by_location = dict(zip(series.locations, map(tuple, series.prices.tolist())))
    return np.array([by_location[loc][:horizon] for loc in pm_locations]).T


def energy_report_csv_by_fstring(rows) -> str:
    """`energy_report_csv` with one f-string per `pm_energy_rows` row."""
    lines = ["hour,pm,location,processor_kwh,cooling_kwh,extra_kwh,total_kwh,price,cost"]
    for hour, pm, location, b, price in rows:
        lines.append(
            f"{hour},{pm},{location},{b.processor:.6f},{b.cooling:.6f},"
            f"{b.extra:.6f},{b.total:.6f},{price:.6f},{b.cost:.6f}"
        )
    return "\n".join(lines) + "\n"


def result_to_json_by_dict(result) -> str:
    """`result_to_json` as one document of Python objects given to `json.dumps`."""

    def breakdown(b: EnergyBreakdown) -> dict:
        return {
            "processor_kwh": b.processor,
            "cooling_kwh": b.cooling,
            "extra_kwh": b.extra,
            "total_kwh": b.total,
            "cost": b.cost,
        }

    doc = {
        "policy": result.policy,
        "horizon": result.horizon,
        "pm_ids": list(result.pm_ids),
        "pm_locations": list(result.pm_locations),
        "utilisation": result.utilisation.tolist(),
        "powered_on": (result.utilisation > 0).tolist(),
        "hourly_energy": [breakdown(b) for b in result.hourly],
        "prices_by_hour": [
            dict(zip(result.pm_locations, row)) for row in result.pm_billing.price.tolist()
        ],
        "totals": breakdown(result.totals),
        "events": result.events,
        "deferred_hours": {k: result.deferred_hours[k] for k in sorted(result.deferred_hours)},
        "placed": result.placed,
        "deferred": result.deferred,
        "migrations": result.migration_count,
    }
    return json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n"


def bill_by_row(result, prices: PriceSeries, power: PowerModel = DEFAULT_POWER_MODEL):
    """A run's billing rebuilt one PM-hour at a time: `(hourly, totals, pm_energy_rows)`.

    Reads each hour's utilisation and migration destinations from the
    result, takes a PM as powered on when its utilisation is above zero,
    computes each PM's energy from scalars, folds the
    hour's aggregates left to right over the PMs, and bills every row at
    its location's price with its own `EnergyBreakdown`.
    """
    hourly = []
    totals = ZERO_ENERGY
    rows = []
    for hour in range(result.horizon):
        arrivals = Counter(dst for _vm, dst in result.events[hour]["migrations"])
        price_now = {loc: float(p) for loc, p in zip(prices.locations, prices.prices[:, hour])}
        processor_sum = cooling_sum = extra_sum = hour_cost = 0.0
        pms = zip(result.pm_ids, result.pm_locations, result.utilisation[hour].tolist())
        for pm_id, location, util in pms:
            on = util > 0
            watts = power.idle_power + (power.peak_power - power.idle_power) * util if on else 0.0
            p = watts * 1.0 / WATTS_PER_KW
            c = power.cooling_coefficient * p
            e = power.extra_coefficient * p + power.migration_penalty * arrivals[pm_id]
            processor_sum += p
            cooling_sum += c
            extra_sum += e
            price = price_now[location]
            total = p + c + e
            cost = total * price
            hour_cost += cost
            rows.append((hour, pm_id, location, EnergyBreakdown(p, c, e, total, cost), price))
        hour_energy = EnergyBreakdown.make(processor_sum, cooling_sum, extra_sum, hour_cost)
        hourly.append(hour_energy)
        totals = totals.plus(hour_energy)
    return hourly, totals, rows


def left_fold(column: list[float]) -> float:
    """Left-to-right float sum.

    The builtin `sum` of floats is this fold on Python 3.11 and earlier,
    but a compensated sum from 3.12 on, which changes the last bits.
    """
    total = 0.0
    for value in column:
        total += value
    return total


def bill_by_hour(utilisation, prices, pm_ids, power=DEFAULT_POWER_MODEL, migrations=()):
    """A run's billing one hour at a time: `(columns, hourly, totals)`.

    Each hour is billed by the same elementwise operations over its row
    of `utilisation` and `prices`, and its aggregates are `left_fold`s
    over that hour's Python floats; the totals add the hours up with
    `EnergyBreakdown.plus`.  `columns` are the six `PmBilling` fields as
    `[hour][pm]` arrays.
    """
    rows, hourly, totals = [], [], ZERO_ENERGY
    for hour, (util, price) in enumerate(zip(utilisation, prices)):
        watts = pm_power(util, util > 0, power)
        processor = watts / WATTS_PER_KW
        cooling = power.cooling_coefficient * processor
        extra = power.extra_coefficient * processor
        for pm_id, count in Counter(migrations[hour] if migrations else ()).items():
            extra[list(pm_ids).index(pm_id)] += power.migration_penalty * count
        total = processor + cooling + extra
        cost = total * price
        rows.append((processor, cooling, extra, total, price, cost))
        sums = [left_fold(column.tolist()) for column in (processor, cooling, extra, cost)]
        hourly.append(EnergyBreakdown.make(*sums))
        totals = totals.plus(hourly[-1])
    return tuple(map(np.array, zip(*rows))), hourly, totals


def best_fit_by_float_argmin(snap, rows, request, power=DEFAULT_POWER_MODEL) -> int:
    """The position in `rows` of the lowest float `incremental_energy`, the first on a tie."""
    return int(np.argmin(incremental_energy(snap, rows, request, power)))


def qos_by_row(result):
    """`(max utilisation, mean active PMs)` summed over Python lists, one PM-hour at a time.

    A PM is on in an hour when its utilisation is above zero; the mean is
    the number of powered-on PM-hours over the number of hours.
    """
    utilisation = result.utilisation.tolist()
    powered_on = [[u > 0 for u in row] for row in utilisation]
    max_util = max((u for row in utilisation for u in row), default=0.0)
    if powered_on:
        mean_active = sum(sum(row) for row in powered_on) / len(powered_on)
    else:
        mean_active = 0.0
    return max_util, mean_active


def snapshot_by_pm_scan(state):
    """Per-PM free resources, rescanning every VM's `placed_on` for each PM."""
    entries = {}
    vms = state_vms(state).values()
    for pm in state.pms:
        hosted = [vm.request for vm in vms if vm.placed_on == pm.id]
        used_cores = sum(r.cores for r in hosted)
        used_ram = sum(r.ram for r in hosted)
        entries[pm.id] = entry(
            free_cores=pm.cores - used_cores,
            free_ram=pm.ram - used_ram,
            powered_on=bool(hosted),
            cores=pm.cores,
            ram=pm.ram,
            freq=pm.max_frequency,
            loc=pm.location,
        )
    return snapshot_from_entries(entries)


def _fits(e, req) -> bool:
    return (
        e["free_cores"] >= req.cores
        and e["free_ram"] >= req.ram
        and e["max_frequency"] >= req.cpu_frequency
    )


def build_state_graph_by_element(entries, req, price_now=None) -> StateGraph:
    """The state graph of per-PM `entry` dicts and one request, one row and one edge at a time."""
    pm_ids = list(entries)
    n_pm = len(pm_ids)

    features = np.zeros((n_pm + 1, FEATURE_DIM))
    for i, pm_id in enumerate(pm_ids):
        e = entries[pm_id]
        price = 0.0
        if price_now:
            price = price_now.get(e["location"], 0.0)
        features[i] = (
            e["free_cores"] / e["cores"],
            e["free_ram"] / e["ram"],
            (e["cores"] - e["free_cores"]) / e["cores"],
            1.0 if e["powered_on"] else 0.0,
            price / NORM_PRICE,
        )
    features[n_pm] = (
        req.cores / NORM_CORES,
        req.ram / NORM_RAM_GIB,
        (req.cpu_frequency - FREQ_BASE_MHZ) / FREQ_SPAN_MHZ,
        req.duration / NORM_DURATION_H,
        0.0,
    )

    adjacency = np.zeros((n_pm + 1, n_pm + 1))
    for i in range(n_pm):
        for j in range(i + 1, n_pm):
            adjacency[i, j] = adjacency[j, i] = 1.0
    for i, pm_id in enumerate(pm_ids):
        if _fits(entries[pm_id], req):
            adjacency[i, n_pm] = adjacency[n_pm, i] = 1.0

    return StateGraph(features=features, adjacency=adjacency)


def state_a_hat(fits: np.ndarray) -> np.ndarray:
    """The normalised adjacency of a one-VM state graph, from the VM's 0/1 fits mask.

    Equal, bit for bit, to `normalize_adjacency` of the graph's
    adjacency, without building it (Kipf & Welling's
    D^-1/2 (A+I) D^-1/2).  The PMs form a clique, so A + I is all ones on
    the PM block: PM i has degree n + f_i, the VM 1 + sum(f), and with
    s = 1/sqrt(deg) every unit entry of A + I becomes s_i * s_j, which is
    `normalize_adjacency`'s (1 * s_i) * s_j.  The VM's row and column
    then carry their 0/1 factor f; an entry that is 0 in A + I comes out
    +0.0 in both.
    """
    n = fits.shape[0]
    inv_sqrt_deg = 1.0 / np.sqrt(np.append(n + fits, 1.0 + fits.sum()))
    a_hat = np.multiply.outer(inv_sqrt_deg, inv_sqrt_deg)
    a_hat[n, :n] *= fits
    a_hat[:n, n] *= fits
    return a_hat


def gcn_forward(model, graph: StateGraph) -> np.ndarray:
    """Node embeddings after the GCN layers over the dense normalised graph."""
    a_hat = normalize_adjacency(graph.adjacency)
    hs, _, _ = gcn_layers(model, a_hat, a_hat @ graph.features)
    return hs[-1]


def gated_forward(model, graph: StateGraph) -> np.ndarray:
    """Node embeddings after K gated propagation rounds over the dense normalised graph."""
    h0 = pad_features(graph.features, model.hidden)
    h, _ = gated_steps(model, normalize_adjacency(graph.adjacency), h0)
    return h


def pair_vector(h: np.ndarray, feats: np.ndarray, vm_pos: int, pm_pos: int) -> np.ndarray:
    """Readout input: [h_vm ; x_vm ; h_pm ; x_pm], concatenated afresh."""
    return np.concatenate([h[vm_pos], feats[vm_pos], h[pm_pos], feats[pm_pos]])


def score_placements_by_pair(model, graph) -> dict[int, float]:
    """Each PM linked to the request (the last node), scored by its own `pair_vector` and dot."""
    h = gcn_forward(model, graph) if isinstance(model, GcnModel) else gated_forward(model, graph)
    vm_node = graph.n_nodes - 1
    scores = {}
    for pm_node in range(vm_node):
        if graph.adjacency[vm_node, pm_node]:
            pair = pair_vector(h, graph.features, vm_node, pm_node)
            scores[pm_node] = float(pair @ model.readout_w[:, 0] + model.readout_b[0])
    return scores


def _sigmoid_by_negation(x: np.ndarray) -> np.ndarray:
    """x <- 1 / (1 + exp(-x)): negate, exp, add one and divide, in place."""
    np.negative(x, out=x)
    np.exp(x, out=x)
    x += 1.0
    return np.divide(1.0, x, out=x)


def gated_scores_unflipped(model, feats: np.ndarray, candidates: np.ndarray) -> np.ndarray:
    """Hunter's `score_placements` with the gate weights as the checkpoint holds them.

    The fast path's numpy operations, in its order, on fresh arrays: the
    three `a_hat` rows gathered by node kind, each step's three-row
    messages, then the GRU update of every node, whose z and r gates
    negate their pre-activation x before `exp`.
    """
    n, k = feats.shape[0] - 1, len(candidates)
    s0, s1, sv = 1.0 / math.sqrt(n), 1.0 / math.sqrt(n + 1), 1.0 / math.sqrt(1 + k)
    by_kind = np.array([[s0 * s0, s0 * s1, 0], [s1 * s0, s1 * s1, s1 * sv], [0, sv * s1, sv * sv]])
    kinds = np.zeros(n + 1, dtype=np.intp)
    kinds[candidates] = 1
    kinds[n] = 2
    a_rows = by_kind[:, kinds]
    h = pad_features(feats, model.hidden)
    with np.errstate(over="ignore"):
        for _ in range(model.steps):
            m = np.dot(np.dot(a_rows, h), model.w_msg)
            gates = np.matmul(m, model.W)[:, kinds]
            z, r, c = gates
            zr = gates[:2]
            zr += np.matmul(h, model.U[:2])
            zr += model.B[:2, None]
            _sigmoid_by_negation(zr)
            one_minus_z = 1.0 - z
            c += np.dot(r * h, model.u_c)
            c += model.b_c
            np.tanh(c, out=c)
            h = one_minus_z * h + z * c
    scores = feats[candidates] @ model.w_xp
    scores += h[candidates] @ model.w_hp
    scores += h[n] @ model.w_hv + feats[n] @ model.w_xv + model.readout_b[0]
    return scores


def argmin_by_scan(scores: dict[int, float]) -> int:
    """The row with the lowest score: a strict `<` scan over `{row: score}` in row order."""
    best_row = None
    best = None
    for row, score in scores.items():
        if best is None or score < best:
            best = score
            best_row = row
    return best_row


def state_from_vms(state, vms: dict, resources, clock: int) -> DatacenterState:
    """`state` with these VM objects as its columns (the placed ones, in
    order) and its pending mapping (the others, in order), and these resources."""
    rows = {pm_id: i for i, pm_id in enumerate(state.resources.pm_ids)}
    running = [vm for vm in vms.values() if vm.placed_on is not None]
    values = [
        (
            vm.request.cores,
            vm.request.ram,
            vm.request.cpu_frequency,
            rows[vm.placed_on],
            vm.start_hour,
            min(vm.start_hour + vm.request.duration, LAST_HOUR),
        )
        for vm in running
    ]
    columns = RunningVms(
        np.array(values, dtype=int).reshape(len(running), 6),
        tuple(vm.id for vm in running),
        tuple(vm.request for vm in running),
    )
    pending = {vm.id: vm.request for vm in vms.values() if vm.placed_on is None}
    return DatacenterState(state.locations, columns, pending, resources, state.rows, clock)


def _check_fit_by_row(resources, row, request):
    pm_id = resources.pm_ids[row]
    free_cores = int(resources.free_cores[row])
    if free_cores < request.cores:
        raise CapacityError("cores", f"{pm_id}: {request.cores} cores requested, {free_cores} free")
    free_ram = int(resources.free_ram[row])
    if free_ram < request.ram:
        raise CapacityError("ram", f"{pm_id}: {request.ram} GiB requested, {free_ram} free")
    max_frequency = int(resources.max_frequency[row])
    if max_frequency < request.cpu_frequency:
        raise CapacityError(
            "frequency", f"{pm_id}: {request.cpu_frequency} MHz requested, max {max_frequency}"
        )


def place_one_by_one(state, assignments):
    """`place` on VM objects: each pair checked and booked in order on a copy.

    A placed VM moves to the end of the mapping, as `place` appends it
    to the running columns.
    """
    if not assignments:
        return state
    vms = state_vms(state)
    resources = state.resources.copy()
    for vm_id, pm_id in assignments:
        vm = vms.get(vm_id)
        if vm is None:
            raise NotFoundError(f"unknown VM {vm_id!r}")
        row = state.row(pm_id)
        if vm.placed_on is not None:
            raise DomainError(f"VM {vm_id!r} already runs on {vm.placed_on}, cannot place")
        _check_fit_by_row(resources, row, vm.request)
        del vms[vm_id]
        vms[vm_id] = VirtualMachine(vm_id, vm.request, pm_id, state.clock)
        resources.place(row, vm.request)
    return state_from_vms(state, vms, resources, state.clock)


def remove_finished_by_scan(state):
    """`remove_finished` scanning every VM object, releasing the finished ones one by one."""
    finished = [
        vm
        for vm in state_vms(state).values()
        if vm.placed_on is not None and state.clock >= vm.start_hour + vm.request.duration
    ]
    if not finished:
        return state
    vms = state_vms(state)
    resources = state.resources.copy()
    for vm in finished:
        row = state.row(vm.placed_on)
        resources.free_cores[row] += vm.request.cores
        resources.free_ram[row] += vm.request.ram
        resources.powered_on[row] = resources.free_cores[row] < resources.cores[row]
        resources.utilisation[row] = (
            resources.cores[row] - resources.free_cores[row]
        ) / resources.cores[row]
        del vms[vm.id]
    return state_from_vms(state, vms, resources, state.clock)


def consolidate_by_vm_objects(policy, state, prices=None, threshold=CONSOLIDATION_THRESHOLD):
    """`consolidate` screening its sources by walking every VM object.

    Each source's demand is the sum of its VMs' requests, and the plan
    is made exactly as `consolidate` makes it.
    """
    if policy.kind not in MODEL_POLICIES:
        return []

    snap = state.resources
    on = np.flatnonzero(snap.powered_on)
    low = on[snap.utilisation[on] < threshold]
    underloaded = low[np.argsort(snap.utilisation[low], kind="stable")]
    source_of = {snap.pm_ids[row]: i for i, row in enumerate(underloaded.tolist())}
    moving = [vm for vm in state_vms(state).values() if vm.placed_on in source_of]
    if not moving:
        return []

    need = np.array([(vm.request.cores, vm.request.ram, vm.request.cpu_frequency) for vm in moving])
    index = np.array([source_of[vm.placed_on] for vm in moving])
    movable = (
        (snap.free_cores[on] >= need[:, :1])
        & (snap.free_ram[on] >= need[:, 1:2])
        & (snap.max_frequency[on] >= need[:, 2:])
        & (on != underloaded[index][:, None])
    ).any(axis=1)
    demand = np.zeros((len(underloaded), 2), dtype=need.dtype)
    np.add.at(demand, index, need[:, :2])
    free = np.stack((snap.free_cores, snap.free_ram), axis=1)
    short = (demand > free[on].sum(axis=0) - free[underloaded]).any(axis=1)
    blocked = set(index[~movable].tolist()) | set(np.flatnonzero(short).tolist())
    hosted = {}
    for vm, i in zip(moving, index.tolist()):
        if i not in blocked:
            hosted.setdefault(i, []).append(vm)

    for i in sorted(hosted):
        source = underloaded[i]
        rows = on[on != source]
        working = snap.take(rows)
        features = WorkingFeatures(working, None if prices is None else prices[rows])
        plan = []
        for vm in sorted(hosted[i], key=lambda v: (-v.request.cores, v.id)):
            r = vm.request
            candidates = np.flatnonzero(working.fits(r))
            if not candidates.size:
                break
            remaining = max(1, vm.start_hour + r.duration - state.clock)
            scoring = replace(r, duration=remaining)
            dst = _argmin(*policy.score(working, scoring, candidates, features))
            plan.append((vm.id, working.pm_ids[dst]))
            working.place(dst, r)
            features.placed(dst)
        else:
            saving = policy.power.idle_power / 1000.0 - policy.power.migration_penalty * len(plan)
            if plan and saving > 0:
                return plan
    return []


def consolidate_by_source(policy, state, prices=None, threshold=CONSOLIDATION_THRESHOLD):
    """`consolidate` with each underloaded source screened on its own, and
    a dense state graph built for each request.

    The destination is the argmin of `score_placements` on that graph's
    features and fits: the scorer itself is checked against the dense
    forward within a bound (test_models), and where the scores differ by
    less than that, as they do when a duration near 2**63 makes every
    score about 2**51, rounding alone picks the argmin.  Counter's is the
    argmin of the candidates' features times the readout's x_pm weights,
    the one term of its score that differs between candidates.

    Unpriced (`prices` None) is a zero price at every PM.
    """
    if policy.kind not in MODEL_POLICIES:
        return []

    snap = snapshot(state)
    on = np.flatnonzero(snap.powered_on)
    low = on[snap.utilisation[on] < threshold]
    underloaded = low[np.argsort(snap.utilisation[low], kind="stable")]
    if prices is None:
        prices = np.zeros(len(snap))

    hosted = {}
    for vm in state_vms(state).values():
        if vm.placed_on is not None:
            hosted.setdefault(vm.placed_on, []).append(vm)

    for source in underloaded:
        vms = sorted(hosted.get(snap.pm_ids[source], []), key=lambda v: (-v.request.cores, v.id))
        rows = on[on != source]
        if not vms or not snap.fits(vms[0].request)[rows].any():
            continue
        working = snap.take(rows)
        working_prices = prices[rows]

        plan = []
        for vm in vms:
            if not working.fits(vm.request).any():
                break
            remaining = max(1, vm.start_hour + vm.request.duration - state.clock)
            scoring = replace(vm.request, duration=remaining)
            graph = build_state_graph(working, scoring, working_prices)
            fits = np.flatnonzero(graph.adjacency[-1])
            if policy.kind == "counter":
                scores = graph.features[fits] @ policy.model.readout_w[-FEATURE_DIM:, 0]
            else:
                scores = score_placements(policy.model, graph.features, fits)
            dst = fits[argmin_by_scan(dict(enumerate(scores.tolist())))]
            plan.append((vm.id, working.pm_ids[dst]))
            working.place(dst, vm.request)
        else:
            saving = policy.power.idle_power / 1000.0 - policy.power.migration_penalty * len(plan)
            if plan and saving > 0:
                return plan
    return []


def _gcn_layers(model, a_hat, feats):
    hs = [feats]
    zs = []
    last = len(model.weights) - 1
    for layer, (w, b) in enumerate(zip(model.weights, model.biases)):
        z = a_hat @ hs[-1] @ w + b
        zs.append(z)
        hs.append(np.maximum(z, 0.0) if layer < last else z)
    return hs, zs


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def _gated_steps(model, a_hat, h0):
    caches = []
    h = h0
    for _ in range(model.steps):
        m = a_hat @ h @ model.w_msg
        z = _sigmoid(m @ model.w_z + h @ model.u_z + model.b_z)
        r = _sigmoid(m @ model.w_r + h @ model.u_r + model.b_r)
        c = np.tanh(m @ model.w_c + (r * h) @ model.u_c + model.b_c)
        h_next = (1.0 - z) * h + z * c
        caches.append({"h_prev": h, "m": m, "z": z, "r": r, "c": c})
        h = h_next
    return h, caches


def _pair_backward(model, h_last, feats, vm_pos, pm_pos, label):
    e = h_last.shape[1]
    f = feats.shape[1]
    pair = pair_vector(h_last, feats, vm_pos, pm_pos)
    score = float(pair @ model.readout_w[:, 0] + model.readout_b[0])
    resid = score - label
    loss = resid * resid

    ds = 2.0 * resid
    d_readout_w = (pair * ds)[:, None]
    d_readout_b = np.array([ds])
    dpair = model.readout_w[:, 0] * ds
    d_h = np.zeros_like(h_last)
    d_h[vm_pos] += dpair[:e]
    d_h[pm_pos] += dpair[e + f : 2 * e + f]
    return loss, d_h, d_readout_w, d_readout_b


def gcn_loss_and_grads(model, a_hat, feats, vm_pos, pm_pos, label):
    """Loss and a dict of gradients, one `@` per product, every gradient computed."""
    hs, zs = _gcn_layers(model, a_hat, feats)
    loss, d_h, d_rw, d_rb = _pair_backward(model, hs[-1], feats, vm_pos, pm_pos, label)
    grads = {"readout_w": d_rw, "readout_b": d_rb}

    last = len(model.weights) - 1
    for layer in range(last, -1, -1):
        dz = d_h if layer == last else d_h * (zs[layer] > 0)
        ah = a_hat @ hs[layer]
        grads[f"W{layer}"] = ah.T @ dz
        grads[f"b{layer}"] = dz.sum(axis=0)
        d_h = a_hat @ (dz @ model.weights[layer].T)
    return loss, grads


def gated_loss_and_grads(model, a_hat, feats, vm_pos, pm_pos, label):
    """Loss and a dict of gradients, one product per gate and parameter."""
    h0 = pad_features(feats, model.hidden)
    h_last, caches = _gated_steps(model, a_hat, h0)
    loss, d_h, d_rw, d_rb = _pair_backward(model, h_last, feats, vm_pos, pm_pos, label)
    grads = {"readout_w": d_rw, "readout_b": d_rb}

    def add(name, grad):
        if name in grads:
            grads[name] += grad
        else:
            grads[name] = grad

    for cache in reversed(caches):
        h_prev, m = cache["h_prev"], cache["m"]
        z, r, c = cache["z"], cache["r"], cache["c"]

        dz_gate = d_h * (c - h_prev)
        dc = d_h * z
        dh_prev = d_h * (1.0 - z)

        dpc = dc * (1.0 - c * c)
        add("w_c", m.T @ dpc)
        add("u_c", (r * h_prev).T @ dpc)
        add("b_c", dpc.sum(axis=0))
        dm = dpc @ model.w_c.T
        d_rh = dpc @ model.u_c.T
        dh_prev += d_rh * r

        dpr = (d_rh * h_prev) * r * (1.0 - r)
        add("w_r", m.T @ dpr)
        add("u_r", h_prev.T @ dpr)
        add("b_r", dpr.sum(axis=0))
        dm += dpr @ model.w_r.T
        dh_prev += dpr @ model.u_r.T

        dpz = dz_gate * z * (1.0 - z)
        add("w_z", m.T @ dpz)
        add("u_z", h_prev.T @ dpz)
        add("b_z", dpz.sum(axis=0))
        dm += dpz @ model.w_z.T
        dh_prev += dpz @ model.u_z.T

        add("w_msg", (a_hat @ h_prev).T @ dm)
        dh_prev += a_hat @ (dm @ model.w_msg.T)
        d_h = dh_prev
    return loss, grads


def train_uncached(model, dataset, partitions=None, config=None):
    """Per-sample SGD that restricts and normalises every sample's graph every
    step and updates one parameter array at a time.

    The model is copied through its checkpoint, and the kernels above are
    this module's own, so the comparison does not lean on the code under test.
    """
    model = model_from_json(model_to_json(model))
    rng = np.random.default_rng(config.seed)
    use_clusters = isinstance(model, GcnModel)
    if use_clusters and partitions is None:
        partitions = [partition_graph(s.graph, k=min(2, s.graph.n_nodes)) for s in dataset]

    losses = []
    for _ in range(config.epochs):
        epoch_loss = 0.0
        for idx in rng.permutation(len(dataset)):
            sample = dataset[int(idx)]
            if use_clusters:
                partition = partitions[int(idx)]
                selected = _choose_clusters(partition, sample, config.batch_clusters, rng)
                nodes, feats, adj = restrict_graph(sample.graph, partition, selected)
                loss, grads = gcn_loss_and_grads(
                    model,
                    normalize_adjacency(adj),
                    feats,
                    nodes.index(sample.vm_node),
                    nodes.index(sample.pm_node),
                    sample.label,
                )
            else:
                loss, grads = gated_loss_and_grads(
                    model,
                    normalize_adjacency(sample.graph.adjacency),
                    sample.graph.features,
                    sample.vm_node,
                    sample.pm_node,
                    sample.label,
                )
            for name, arr in model.parameters():
                arr -= config.learning_rate * grads[name]
            epoch_loss += loss
        losses.append(epoch_loss / len(dataset))
    return model, losses
