"""Supervised training of the placement scorers, with gradient verification.

Labels are realized incremental-energy observations gathered from
heuristic-driven episodes; the loss is plain squared error on the pair
score.  The GCN trains on cluster mini-batches (the clusters holding the
sample's VM and PM nodes are always included so the scored pair exists in
the restricted forward); the gated baseline trains full-graph.  Updates
are per-sample SGD, deterministic for a fixed seed.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Sequence

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
    epochs: int = 200
    learning_rate: float = 0.01
    batch_clusters: int = 1
    seed: int = 0


def _pair_backward(model, h_last, feats, vm_pos, pm_pos, label):
    """Readout + loss backward; returns (loss, dH_last, readout grads).

    The raw-feature segments of the pair vector are inputs, so only the
    embedding segments propagate gradient back into the network.
    """
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


def gcn_loss_and_grads(model: GcnModel, a_hat, feats, vm_pos, pm_pos, label):
    hs, zs = gcn_layers(model, a_hat, feats)
    loss, d_h, d_rw, d_rb = _pair_backward(model, hs[-1], feats, vm_pos, pm_pos, label)
    grads = {"readout_w": d_rw, "readout_b": d_rb}

    last = len(model.weights) - 1
    for layer in range(last, -1, -1):
        dz = d_h if layer == last else d_h * (zs[layer] > 0)
        ah = a_hat @ hs[layer]
        grads[f"W{layer}"] = ah.T @ dz
        grads[f"b{layer}"] = dz.sum(axis=0)
        d_h = a_hat @ (dz @ model.weights[layer].T)  # a_hat is symmetric
    return loss, grads


def gated_loss_and_grads(model: GatedModel, a_hat, feats, vm_pos, pm_pos, label):
    h0 = pad_features(feats, model.hidden)
    h_last, caches = gated_steps(model, a_hat, h0)
    loss, d_h, d_rw, d_rb = _pair_backward(model, h_last, feats, vm_pos, pm_pos, label)
    grads = {"readout_w": d_rw, "readout_b": d_rb}

    def add(name: str, grad: np.ndarray) -> None:
        # The last step assigns, earlier steps accumulate: no zero buffers.
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


def sample_loss(model, sample: TrainSample) -> float:
    """Full-graph squared error for one sample (used by the gradient check)."""
    a_hat = _normalize(sample.graph.adjacency)
    feats = sample.graph.features
    if isinstance(model, GcnModel):
        hs, _ = gcn_layers(model, a_hat, feats)
        h_last = hs[-1]
    else:
        h0 = pad_features(feats, model.hidden)
        h_last, _ = gated_steps(model, a_hat, h0)
    pair = pair_vector(h_last, feats, sample.vm_node, sample.pm_node)
    score = float(pair @ model.readout_w[:, 0] + model.readout_b[0])
    return (score - sample.label) ** 2


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
    sample: TrainSample, partition: ClusterPartition | None, selected: tuple[int, ...] | None
):
    """(a_hat, features, vm position, pm position) of one training step's graph."""
    if partition is None:
        graph = sample.graph
        return _normalize(graph.adjacency), graph.features, sample.vm_node, sample.pm_node
    nodes, feats, adj = restrict_graph(sample.graph, partition, selected)
    return _normalize(adj), feats, nodes.index(sample.vm_node), nodes.index(sample.pm_node)


def train(
    model: GcnModel | GatedModel,
    dataset: Sequence[TrainSample],
    partitions: Sequence[ClusterPartition] | None = None,
    config: TrainConfig = TrainConfig(),
) -> tuple[GcnModel | GatedModel, list[float]]:
    """SGD on squared error; returns (trained copy, per-epoch mean loss).

    Each sample's normalised graph (for the GCN, its restriction to the
    selected clusters) is built once, on first use, and reused in later
    epochs.  The clusters are still drawn every step, so the RNG stream,
    and with it the trained parameters, match a loop that rebuilds the
    graph every time.
    """
    if not dataset:
        raise DomainError("dataset must be non-empty")
    model = copy.deepcopy(model)
    rng = np.random.default_rng(config.seed)

    use_clusters = isinstance(model, GcnModel)
    if use_clusters and partitions is None:
        partitions = [partition_graph(s.graph, k=min(2, s.graph.n_nodes)) for s in dataset]
    loss_and_grads = gcn_loss_and_grads if use_clusters else gated_loss_and_grads

    graphs: dict[tuple[int, tuple[int, ...] | None], tuple] = {}
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
                graphs[key] = _sample_graph(sample, partition, selected)
            loss, grads = loss_and_grads(model, *graphs[key], sample.label)
            for name, arr in model.parameters():
                arr -= config.learning_rate * grads[name]
            epoch_loss += loss
        mean_loss = epoch_loss / len(dataset)
        if not np.isfinite(mean_loss):
            raise DivergenceError(epoch)
        losses.append(mean_loss)
    return model, losses


def analytic_grads(model, sample: TrainSample) -> dict[str, np.ndarray]:
    a_hat = _normalize(sample.graph.adjacency)
    if isinstance(model, GcnModel):
        _, grads = gcn_loss_and_grads(
            model, a_hat, sample.graph.features, sample.vm_node, sample.pm_node, sample.label
        )
    else:
        _, grads = gated_loss_and_grads(
            model, a_hat, sample.graph.features, sample.vm_node, sample.pm_node, sample.label
        )
    return grads


def gradient_check(model, sample: TrainSample, epsilon: float = 1e-5) -> float:
    """Max relative error between analytic and central-difference gradients."""
    grads = analytic_grads(model, sample)
    worst = 0.0
    for name, arr in model.parameters():
        flat = arr.reshape(-1)
        g_flat = grads[name].reshape(-1)
        for i in range(flat.size):
            original = flat[i]
            flat[i] = original + epsilon
            up = sample_loss(model, sample)
            flat[i] = original - epsilon
            down = sample_loss(model, sample)
            flat[i] = original
            numeric = (up - down) / (2.0 * epsilon)
            denom = max(1e-8, abs(g_flat[i]) + abs(numeric))
            worst = max(worst, abs(g_flat[i] - numeric) / denom)
    return worst


def loss_trace_to_csv(losses: Sequence[float]) -> str:
    lines = ["epoch,mean_loss"]
    lines.extend(f"{epoch},{loss!r}" for epoch, loss in enumerate(losses))
    return "\n".join(lines) + "\n"
