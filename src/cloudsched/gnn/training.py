"""Supervised training of the placement scorers.

Labels are realized incremental-energy observations gathered from
heuristic-driven episodes; the loss is plain squared error on the pair
score.  The GCN trains on cluster mini-batches (the clusters holding the
sample's VM and PM nodes are always included so the scored pair exists in
the restricted forward); the gated baseline trains full-graph.  Updates
are per-sample SGD, deterministic for a fixed seed.

A step's forward and backward write every product and elementwise result
into one set of step buffers (`step_buffers`), allocated once per `train`
call and graph node count.  Each write is the operation the out-of-place
expression would run, so the checkpoints and loss traces are bit-identical
to a loop that allocates its temporaries every step.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from ..errors import ConfigError, DivergenceError, DomainError
from ..util import is_finite_number, is_int
from .graph import (
    ClusterPartition,
    StateGraph,
    normalize_adjacency,
    partition_graph,
)
from .models import (
    GATE_SIGNS,
    GatedBuffers,
    GatedModel,
    GcnBuffers,
    GcnModel,
    gated_steps,
    gcn_layers,
    pad_features,
    pair_segments,
    restrict_graph,
)


@dataclass(frozen=True)
class TrainSample:
    """One placement: its state graph, the chosen PM's node and its label.

    The request is the graph's last node, and `pm_node` one of the PM
    nodes before it.
    """

    graph: StateGraph
    pm_node: int
    label: float  # realized incremental energy, kWh

    def __post_init__(self):
        if not 0 <= self.pm_node < self.vm_node:
            raise DomainError("sample PM node out of range")
        if self.label < 0:
            raise DomainError("label must be >= 0")

    @property
    def vm_node(self) -> int:
        return self.graph.n_nodes - 1


@dataclass(frozen=True)
class TrainConfig:
    """The training recipe.

    `episodes` is the number of teacher episodes `cloudsched train`
    collects, and `clusters` the clusters per sample graph when `train`
    partitions the GCN's samples itself.
    """

    epochs: int = 200
    learning_rate: float = 0.01
    batch_clusters: int = 1
    seed: int = 0
    episodes: int = 3
    clusters: int = 2

    def __post_init__(self):
        # The run reports its last epoch's loss, a sample graph is cut into
        # clusters, teachers run at least one episode, and numpy seeds take
        # non-negative ints only.
        for name in ("epochs", "batch_clusters", "clusters", "episodes"):
            value = getattr(self, name)
            if not is_int(value):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
            if value < 1:
                raise ConfigError(f"{name} must be at least 1, got {value}")
        if not (is_int(self.seed) and self.seed >= 0):
            raise ConfigError(f"seed must be a non-negative integer, got {self.seed!r}")
        if not is_finite_number(self.learning_rate):
            raise ConfigError(f"learning_rate must be a finite number, got {self.learning_rate!r}")


class StepGraph(NamedTuple):
    """One training step's graph, built once per (sample, selected clusters).

    `inputs` is the network's input (the features, zero-padded to the
    hidden size for the gated model) and `a_inputs` is a_hat @ inputs.
    `pair` is the readout input [h_vm ; x_vm ; h_pm ; x_pm], its two
    raw-feature segments filled when the graph is built; each step
    writes only the two embedding segments, `h_vm` and `h_pm`.
    """

    a_hat: np.ndarray
    inputs: np.ndarray
    a_inputs: np.ndarray
    vm_pos: int
    pm_pos: int
    pair: np.ndarray
    h_vm: np.ndarray
    h_pm: np.ndarray


def _readout_buffers(b, model, grads, n: int) -> None:
    """Give `b` the readout backward's arrays and the readout columns it reads."""
    b.readout_w, b.grad_readout_w = model.readout_w[:, 0], grads.readout_w[:, 0]
    b.dpair = np.empty_like(b.readout_w)
    b.dpair_vm, _, b.dpair_pm, _ = pair_segments(b.dpair)
    b.d_h = np.empty((n, len(b.dpair_vm)))


class GcnStepBuffers(GcnBuffers):
    """A GCN step's forward and backward arrays on n-node graphs.

    Layer l's backward writes `masks[l]` (zs[l] > 0) and `dzs[l]`, and,
    above the first layer, `dzw[l]` = dz @ W_l.T and `dhs[l]` =
    a_hat @ dzw[l], the gradient that flows into layer l - 1.
    """

    def __init__(self, model: GcnModel, grads: GcnModel, n: int):
        super().__init__(model, n)
        d = model.dims
        _readout_buffers(self, model, grads, n)
        self.masks = [np.empty((n, k), dtype=bool) for k in d[1:-1]]
        self.dzs = [np.empty((n, k)) for k in d[1:-1]]
        self.dzw = [None] + [np.empty((n, k)) for k in d[1:-1]]
        self.dhs = [None] + [np.empty((n, k)) for k in d[1:-1]]
        self.weights_t = [w.T for w in model.weights]


class GatedStepBuffers(GatedBuffers):
    """A gated step's forward and backward arrays on n-node graphs.

    `dp` holds the pre-activation gradients of z, r and c, `dmw` the
    messages' gradient through each gate and `dhu` the state's through
    u_z and u_r.  `backward[k]` holds step k's gate views, the transposes
    of its cache and `dhs[k]`, the gradient that flows into step k - 1;
    step 0's input and its propagation are the caller's, so their
    transposes are taken per call.  The `step_*` arrays hold the
    parameter gradients of the steps before the last, which `+=` adds on.
    `gate_signs` is `GATE_SIGNS` spread to the gate block's shape, which
    makes the product that refreshes the forward's flipped gates half as
    dear as the broadcast one.
    """

    def __init__(self, model: GatedModel, grads: GatedModel, n: int):
        super().__init__(model, n)
        self.gate_signs = np.broadcast_to(GATE_SIGNS, self.gates.shape).copy()
        h = model.hidden
        _readout_buffers(self, model, grads, n)
        self.w_t = model.W.transpose(0, 2, 1)
        self.u_zr_t = model.U[:2].transpose(0, 2, 1)
        self.u_c_t = model.u_c.T
        self.w_msg_t = model.w_msg.T
        self.grad_u_zr = grads.U[:2]
        self.dp = np.empty((3, n, h))
        self.dp_z, self.dp_r, self.dp_c = self.dp
        self.dp_zr = self.dp[:2]
        self.dmw = np.empty((3, n, h))
        self.dmw_z, self.dmw_r, self.dmw_c = self.dmw
        self.dhu = np.empty((2, n, h))
        self.dhu_z, self.dhu_r = self.dhu
        self.dm, self.d_rh, self.dc, self.d_rh_r = (np.empty((n, h)) for _ in range(4))
        self.c_minus_h, self.tanh_slope, self.dm_w, self.a_dm_w = (np.empty((n, h)) for _ in range(4))
        self.step_W, self.step_U, self.step_B = np.empty((3, h, h)), np.empty((2, h, h)), np.empty((3, h))
        self.step_u_c, self.step_w_msg = np.empty((h, h)), np.empty((h, h))
        self.backward = []
        for k, (ah, m, _, _, z, r, _, _, omz_z, rh, _) in enumerate(self.steps):
            if k:
                prev_t, ah_t, dh_prev = self.steps[k - 1][-1].T, ah.T, np.empty((n, h))
            else:
                prev_t = ah_t = dh_prev = None
            self.backward.append((z, r, omz_z, m.T, rh.T, ah_t, prev_t, dh_prev))


def step_buffers(model, grads, n: int) -> GcnStepBuffers | GatedStepBuffers:
    """One step buffer set for `model` on n-node graphs, writing gradients into `grads`.

    The set holds views of `model` and `grads`, which stay valid because
    both flat vectors are only ever updated in place.  A gated set's
    forward reads its own sign-flipped copy of the gate block instead,
    which `gated_loss_and_grads` refreshes from `model` at every step.
    """
    if isinstance(model, GcnModel):
        return GcnStepBuffers(model, grads, n)
    return GatedStepBuffers(model, grads, n)


def _pair_backward(model, grads, h_last, g: StepGraph, label, b):
    """Readout + loss backward; writes the readout grads, returns (loss, dH_last).

    The raw-feature segments of the pair vector are inputs, so only the
    embedding segments propagate gradient back into the network.  `d_h`
    is zeroed with `fill` and its two rows added to, not assigned:
    0.0 + -0.0 is +0.0, so an assignment would leave a -0.0 where the
    sum leaves +0.0.
    """
    pair = g.pair
    g.h_vm[:] = h_last[g.vm_pos]
    g.h_pm[:] = h_last[g.pm_pos]
    score = float(pair @ b.readout_w + model.readout_b[0])
    resid = score - label

    ds = 2.0 * resid
    np.multiply(pair, ds, out=b.grad_readout_w)
    grads.readout_b[0] = ds
    np.multiply(b.readout_w, ds, out=b.dpair)
    d_h = b.d_h
    d_h.fill(0.0)
    d_h[g.vm_pos] += b.dpair_vm
    d_h[g.pm_pos] += b.dpair_pm
    return resid * resid, d_h


def gcn_loss_and_grads(
    model: GcnModel, grads: GcnModel, g: StepGraph, label: float, b: GcnStepBuffers
) -> float:
    """Squared error of one step; writes every gradient into `grads` (same layout).

    `b` is `step_buffers(model, grads, n)` for the graph's node count n.
    """
    hs, ahs, zs = gcn_layers(model, g.a_hat, g.a_inputs, b)
    loss, d_h = _pair_backward(model, grads, hs[-1], g, label, b)

    last = len(model.weights) - 1
    for layer in range(last, -1, -1):
        if layer == last:
            dz = d_h
        else:
            mask = np.greater(zs[layer], 0, out=b.masks[layer])
            dz = np.multiply(d_h, mask, out=b.dzs[layer])
        np.dot(ahs[layer].T, dz, out=grads.weights[layer])
        np.add.reduce(dz, 0, out=grads.biases[layer])
        if layer:  # nothing reads the gradient of the input features
            np.dot(dz, b.weights_t[layer], out=b.dzw[layer])
            d_h = np.dot(g.a_hat, b.dzw[layer], out=b.dhs[layer])  # a_hat is symmetric
    return loss


def gated_loss_and_grads(
    model: GatedModel, grads: GatedModel, g: StepGraph, label: float, b: GatedStepBuffers
) -> float:
    """Squared error of one step; writes every gradient into `grads` (same layout).

    The gate gradients are stacked like the parameters: `dp` holds the
    pre-activation gradients of z, r and c, and one batched product each
    gives dW, dU[:2] and the messages' gradient.  The last unrolled step
    assigns each gradient, earlier steps add to it, in the order of an
    unstacked loop.  `b` is `step_buffers(model, grads, n)` for the
    graph's node count n.
    """
    np.multiply(model.gates, b.gate_signs, out=b.gates)  # the model as SGD last left it
    h_last, caches = gated_steps(model, g.a_hat, g.inputs, g.a_inputs, b)
    loss, d_h = _pair_backward(model, grads, h_last, g, label, b)

    dp, dp_zr, dp_c, dmw, dm, d_rh = b.dp, b.dp_zr, b.dp_c, b.dmw, b.dm, b.d_rh
    last = len(caches) - 1
    for step in range(last, -1, -1):
        h_prev, ah, m, zr, one_minus_zr, rh, c = caches[step]
        z, r, one_minus_z, m_t, rh_t, ah_t, h_prev_t, dh_prev = b.backward[step]

        np.subtract(c, h_prev, out=b.c_minus_h)
        np.multiply(d_h, b.c_minus_h, out=b.dp_z)
        np.multiply(d_h, z, out=b.dc)
        np.multiply(c, c, out=b.tanh_slope)
        np.subtract(1.0, b.tanh_slope, out=b.tanh_slope)
        np.multiply(b.dc, b.tanh_slope, out=dp_c)
        np.dot(dp_c, b.u_c_t, out=d_rh)
        np.multiply(d_rh, h_prev, out=b.dp_r)
        dp_zr *= zr
        dp_zr *= one_minus_zr

        np.matmul(dp, b.w_t, out=dmw)
        np.add(b.dmw_c, b.dmw_r, out=dm)
        dm += b.dmw_z
        if step == 0:
            ah_t, h_prev_t = ah.T, h_prev.T
        if step == last:
            np.matmul(m_t, dp, out=grads.W)
            np.matmul(h_prev_t, dp_zr, out=b.grad_u_zr)
            np.dot(rh_t, dp_c, out=grads.u_c)
            np.add.reduce(dp, 1, out=grads.B)
            np.dot(ah_t, dm, out=grads.w_msg)
        else:
            grads.W += np.matmul(m_t, dp, out=b.step_W)
            b.grad_u_zr += np.matmul(h_prev_t, dp_zr, out=b.step_U)
            grads.u_c += np.dot(rh_t, dp_c, out=b.step_u_c)
            grads.B += np.add.reduce(dp, 1, out=b.step_B)
            grads.w_msg += np.dot(ah_t, dm, out=b.step_w_msg)
        if step == 0:  # nothing reads the gradient of the padded input
            break

        np.multiply(d_h, one_minus_z, out=dh_prev)
        dh_prev += np.multiply(d_rh, r, out=b.d_rh_r)
        np.matmul(dp_zr, b.u_zr_t, out=b.dhu)
        dh_prev += b.dhu_r
        dh_prev += b.dhu_z
        np.dot(dm, b.w_msg_t, out=b.dm_w)
        dh_prev += np.dot(g.a_hat, b.dm_w, out=b.a_dm_w)
        d_h = dh_prev
    return loss


def _cluster_pool(partition: ClusterPartition, sample: TrainSample, batch_clusters: int):
    """(forced clusters, extra clusters wanted, clusters to draw them from).

    The forced clusters hold the sample's VM and PM nodes.  The pool is
    empty when no extra cluster is wanted or none is left, and then
    choosing the clusters draws nothing from the RNG.
    """
    forced = {partition.cluster_of[sample.vm_node], partition.cluster_of[sample.pm_node]}
    extra_needed = batch_clusters - len(forced)
    pool = sorted(set(range(partition.k)) - forced) if extra_needed > 0 else []
    return forced, extra_needed, pool


def _choose_clusters(
    partition: ClusterPartition, sample: TrainSample, batch_clusters: int, rng
) -> list[int]:
    forced, extra_needed, pool = _cluster_pool(partition, sample, batch_clusters)
    if pool:
        picks = rng.choice(len(pool), size=min(extra_needed, len(pool)), replace=False)
        forced |= {pool[int(i)] for i in picks}
    return sorted(forced)


def _sample_graph(
    model,
    sample: TrainSample,
    partition: ClusterPartition | None = None,
    selected: tuple[int, ...] | None = None,
) -> StepGraph:
    """The graph of one training step: the full graph, or its selected clusters."""
    if partition is None:
        feats, adj = sample.graph.features, sample.graph.adjacency
        vm_pos, pm_pos = sample.vm_node, sample.pm_node
    else:
        nodes, feats, adj = restrict_graph(sample.graph, partition, selected)
        vm_pos, pm_pos = nodes.index(sample.vm_node), nodes.index(sample.pm_node)
    a_hat = normalize_adjacency(adj)
    inputs = feats if isinstance(model, GcnModel) else pad_features(feats, model.hidden)
    pair = np.empty(len(model.readout_w))
    h_vm, x_vm, h_pm, x_pm = pair_segments(pair)
    x_vm[:] = feats[vm_pos]
    x_pm[:] = feats[pm_pos]
    return StepGraph(a_hat, inputs, np.dot(a_hat, inputs), vm_pos, pm_pos, pair, h_vm, h_pm)


def train(
    model: GcnModel | GatedModel,
    dataset: Sequence[TrainSample],
    partitions: Sequence[ClusterPartition] | None = None,
    config: TrainConfig = TrainConfig(),
) -> tuple[GcnModel | GatedModel, list[float]]:
    """SGD on squared error; returns (trained copy, per-epoch mean loss).

    Each sample's normalised graph (for the GCN, its restriction to the
    selected clusters), its propagated input and its readout pair are
    built once, on first use, and reused in later epochs.  A sample's
    clusters are drawn every step when choosing them draws from the RNG,
    and taken from a table built once when it does not, so the RNG
    stream, and with it the trained parameters, match a loop that
    rebuilds the graph every time.  Every step runs in the step buffers
    of its graph's node count, and writes all gradients into one buffer
    laid out like the model's flat parameter vector; the update is
    `step = grads * lr` and `flat -= step`, both in place.
    """
    if not dataset:
        raise DomainError("dataset must be non-empty")
    model = model.copy()
    grads = model.with_flat(np.empty_like(model.flat))
    step = np.empty_like(model.flat)
    lr = config.learning_rate
    rng = np.random.default_rng(config.seed)

    use_clusters = isinstance(model, GcnModel)
    if use_clusters and partitions is None:
        partitions = [
            partition_graph(s.graph, k=min(config.clusters, s.graph.n_nodes)) for s in dataset
        ]
    loss_and_grads = gcn_loss_and_grads if use_clusters else gated_loss_and_grads
    fixed: list[tuple[int, ...] | None] = [None] * len(dataset)
    if use_clusters:
        for idx, (sample, partition) in enumerate(zip(dataset, partitions)):
            forced, _, pool = _cluster_pool(partition, sample, config.batch_clusters)
            fixed[idx] = None if pool else tuple(sorted(forced))

    buffers: dict[int, GcnStepBuffers | GatedStepBuffers] = {}
    graphs: dict[tuple, tuple[StepGraph, GcnStepBuffers | GatedStepBuffers]] = {}
    losses = []
    for epoch in range(config.epochs):
        order = rng.permutation(len(dataset))
        epoch_loss = 0.0
        for idx in order.tolist():
            sample = dataset[idx]
            selected = fixed[idx]
            if use_clusters and selected is None:
                selected = tuple(_choose_clusters(partitions[idx], sample, config.batch_clusters, rng))
            key = (idx, selected)
            entry = graphs.get(key)
            if entry is None:
                partition = partitions[idx] if use_clusters else None
                g = _sample_graph(model, sample, partition, selected)
                n = g.a_hat.shape[0]
                if n not in buffers:
                    buffers[n] = step_buffers(model, grads, n)
                entry = graphs[key] = (g, buffers[n])
            epoch_loss += loss_and_grads(model, grads, entry[0], sample.label, entry[1])
            np.multiply(grads.flat, lr, out=step)
            model.flat -= step
        mean_loss = epoch_loss / len(dataset)
        if not np.isfinite(mean_loss):
            raise DivergenceError(epoch)
        losses.append(mean_loss)
    return model, losses


def loss_trace_to_csv(losses: Sequence[float]) -> str:
    lines = ["epoch,mean_loss"]
    lines.extend(f"{epoch},{loss!r}" for epoch, loss in enumerate(losses))
    return "\n".join(lines) + "\n"
