"""Supervised training of the placement scorers.

Labels are realized incremental-energy observations gathered from
heuristic-driven episodes; the loss is plain squared error on the pair
score.  The GCN trains on cluster mini-batches (the clusters holding the
sample's VM and PM nodes are always included so the scored pair exists in
the restricted forward); the gated baseline trains full-graph.  Updates
are per-sample SGD, deterministic for a fixed seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from ..errors import DivergenceError, DomainError
from .graph import ClusterPartition, StateGraph, _normalize, partition_graph
from .models import (
    GatedModel,
    GcnModel,
    gated_steps,
    gcn_layers,
    pad_features,
    pair_vector,
    restrict_graph,
)


@dataclass(frozen=True)
class TrainSample:
    graph: StateGraph
    vm_node: int
    pm_node: int
    label: float  # realized incremental energy, kWh

    def __post_init__(self):
        n = self.graph.n_nodes
        if not (0 <= self.vm_node < n and 0 <= self.pm_node < n):
            raise DomainError("sample node indices out of range")
        if self.label < 0:
            raise DomainError("label must be >= 0")


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


class StepGraph(NamedTuple):
    """One training step's graph, built once per (sample, selected clusters).

    `inputs` is the network's input (the features, zero-padded to the
    hidden size for the gated model) and `a_inputs` is a_hat @ inputs.
    """

    a_hat: np.ndarray
    feats: np.ndarray
    inputs: np.ndarray
    a_inputs: np.ndarray
    vm_pos: int
    pm_pos: int


def _pair_backward(model, grads, h_last, g: StepGraph, label):
    """Readout + loss backward; writes the readout grads, returns (loss, dH_last).

    The raw-feature segments of the pair vector are inputs, so only the
    embedding segments propagate gradient back into the network.
    """
    e = h_last.shape[1]
    f = g.feats.shape[1]
    pair = pair_vector(h_last, g.feats, g.vm_pos, g.pm_pos)
    score = float(pair @ model.readout_w[:, 0] + model.readout_b[0])
    resid = score - label

    ds = 2.0 * resid
    np.multiply(pair, ds, out=grads.readout_w[:, 0])
    grads.readout_b[0] = ds
    dpair = model.readout_w[:, 0] * ds
    d_h = np.zeros_like(h_last)
    d_h[g.vm_pos] += dpair[:e]
    d_h[g.pm_pos] += dpair[e + f : 2 * e + f]
    return resid * resid, d_h


def gcn_loss_and_grads(model: GcnModel, grads: GcnModel, g: StepGraph, label: float) -> float:
    """Squared error of one step; writes every gradient into `grads` (same layout)."""
    hs, ahs, zs = gcn_layers(model, g.a_hat, g.feats, g.a_inputs)
    loss, d_h = _pair_backward(model, grads, hs[-1], g, label)

    last = len(model.weights) - 1
    for layer in range(last, -1, -1):
        dz = d_h if layer == last else d_h * (zs[layer] > 0)
        np.dot(ahs[layer].T, dz, out=grads.weights[layer])
        np.add.reduce(dz, 0, out=grads.biases[layer])
        if layer:  # nothing reads the gradient of the input features
            d_h = np.dot(g.a_hat, np.dot(dz, model.weights[layer].T))  # a_hat is symmetric
    return loss


def gated_loss_and_grads(model: GatedModel, grads: GatedModel, g: StepGraph, label: float) -> float:
    """Squared error of one step; writes every gradient into `grads` (same layout).

    The gate gradients are stacked like the parameters: `dp` holds the
    pre-activation gradients of z, r and c, and one batched product each
    gives dW, dU[:2] and the messages' gradient.  The last unrolled step
    assigns each gradient, earlier steps add to it, in the order of an
    unstacked loop.
    """
    h_last, caches = gated_steps(model, g.a_hat, g.inputs, g.a_inputs)
    loss, d_h = _pair_backward(model, grads, h_last, g, label)

    w_t = model.W.transpose(0, 2, 1)
    u_zr_t = model.U[:2].transpose(0, 2, 1)
    u_c_t = model.u_c.T
    w_msg_t = model.w_msg.T
    dp = np.empty((3,) + h_last.shape)
    dp_zr, dp_c = dp[:2], dp[2]
    last = len(caches) - 1
    for step in range(last, -1, -1):
        h_prev, ah, m, zr, one_minus_zr, rh, c = caches[step]
        z, r = zr

        np.multiply(d_h, c - h_prev, out=dp[0])
        np.multiply(d_h * z, 1.0 - c * c, out=dp_c)
        d_rh = np.dot(dp_c, u_c_t)
        np.multiply(d_rh, h_prev, out=dp[1])
        dp_zr *= zr
        dp_zr *= one_minus_zr

        dmw = np.matmul(dp, w_t)
        dm = dmw[2] + dmw[1]
        dm += dmw[0]
        if step == last:
            np.matmul(m.T, dp, out=grads.W)
            np.matmul(h_prev.T, dp_zr, out=grads.U[:2])
            np.dot(rh.T, dp_c, out=grads.u_c)
            np.add.reduce(dp, 1, out=grads.B)
            np.dot(ah.T, dm, out=grads.w_msg)
        else:
            grads.W += np.matmul(m.T, dp)
            grads.U[:2] += np.matmul(h_prev.T, dp_zr)
            grads.u_c += np.dot(rh.T, dp_c)
            grads.B += np.add.reduce(dp, 1)
            grads.w_msg += np.dot(ah.T, dm)
        if step == 0:  # nothing reads the gradient of the padded input
            break

        dh_prev = d_h * one_minus_zr[0]
        dh_prev += d_rh * r
        dhu = np.matmul(dp_zr, u_zr_t)
        dh_prev += dhu[1]
        dh_prev += dhu[0]
        dh_prev += np.dot(g.a_hat, np.dot(dm, w_msg_t))
        d_h = dh_prev
    return loss


def _choose_clusters(
    partition: ClusterPartition, sample: TrainSample, batch_clusters: int, rng
) -> list[int]:
    forced = {partition.cluster_of[sample.vm_node], partition.cluster_of[sample.pm_node]}
    extra_needed = batch_clusters - len(forced)
    pool = sorted(set(range(partition.k)) - forced)
    if extra_needed > 0 and pool:
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
    a_hat = _normalize(adj)
    inputs = feats if isinstance(model, GcnModel) else pad_features(feats, model.hidden)
    return StepGraph(a_hat, feats, inputs, np.dot(a_hat, inputs), vm_pos, pm_pos)


def train(
    model: GcnModel | GatedModel,
    dataset: Sequence[TrainSample],
    partitions: Sequence[ClusterPartition] | None = None,
    config: TrainConfig = TrainConfig(),
) -> tuple[GcnModel | GatedModel, list[float]]:
    """SGD on squared error; returns (trained copy, per-epoch mean loss).

    Each sample's normalised graph (for the GCN, its restriction to the
    selected clusters) and its propagated input are built once, on first
    use, and reused in later epochs.  The clusters are still drawn every
    step, so the RNG stream, and with it the trained parameters, match a
    loop that rebuilds the graph every time.  Each step writes all
    gradients into one buffer laid out like the model's flat parameter
    vector, and the update is one elementwise `flat -= lr * grads`.
    """
    if not dataset:
        raise DomainError("dataset must be non-empty")
    model = model.copy()
    grads = model.with_flat(np.empty_like(model.flat))
    rng = np.random.default_rng(config.seed)

    use_clusters = isinstance(model, GcnModel)
    if use_clusters and partitions is None:
        partitions = [
            partition_graph(s.graph, k=min(config.clusters, s.graph.n_nodes)) for s in dataset
        ]
    loss_and_grads = gcn_loss_and_grads if use_clusters else gated_loss_and_grads

    graphs: dict[tuple[int, tuple[int, ...] | None], StepGraph] = {}
    losses = []
    for epoch in range(config.epochs):
        order = rng.permutation(len(dataset))
        epoch_loss = 0.0
        for idx in order:
            idx = int(idx)
            sample = dataset[idx]
            partition, selected = None, None
            if use_clusters:
                partition = partitions[idx]
                selected = tuple(_choose_clusters(partition, sample, config.batch_clusters, rng))
            key = (idx, selected)
            if key not in graphs:
                graphs[key] = _sample_graph(model, sample, partition, selected)
            epoch_loss += loss_and_grads(model, grads, graphs[key], sample.label)
            model.flat -= config.learning_rate * grads.flat
        mean_loss = epoch_loss / len(dataset)
        if not np.isfinite(mean_loss):
            raise DivergenceError(epoch)
        losses.append(mean_loss)
    return model, losses


def loss_trace_to_csv(losses: Sequence[float]) -> str:
    lines = ["epoch,mean_loss"]
    lines.extend(f"{epoch},{loss!r}" for epoch, loss in enumerate(losses))
    return "\n".join(lines) + "\n"
