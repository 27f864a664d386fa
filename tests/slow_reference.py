"""Straightforward reference versions of the simulator's fast paths.

Each function here is the plain loop that a vectorised or cached path in
`cloudsched` replaces.  The equivalence tests compare the two bit for bit.
"""

from __future__ import annotations

import copy

import numpy as np

from cloudsched.datacenter import SnapshotEntry, feasible
from cloudsched.gnn.graph import (
    FEATURE_DIM,
    FREQ_BASE_MHZ,
    FREQ_SPAN_MHZ,
    NORM_CORES,
    NORM_DURATION_H,
    NORM_PRICE,
    NORM_RAM_GIB,
    StateGraph,
    normalize_adjacency,
    partition_graph,
)
from cloudsched.gnn.models import GcnModel, restrict_graph
from cloudsched.gnn.training import _choose_clusters, gated_loss_and_grads, gcn_loss_and_grads


def snapshot_by_pm_scan(state) -> dict[str, SnapshotEntry]:
    """Per-PM free resources, rescanning every placement for each PM."""
    snap = {}
    for pm in state.pms:
        used_cores = used_ram = 0
        for vm_id, placed in state.placements.items():
            if placed == pm.id:
                used_cores += state.vms[vm_id].request.cores
                used_ram += state.vms[vm_id].request.ram
        snap[pm.id] = SnapshotEntry(
            free_cores=pm.cores - used_cores,
            free_ram=pm.ram - used_ram,
            max_frequency=pm.max_frequency,
            powered_on=pm.id in state.powered_on,
            utilisation=used_cores / pm.cores,
            cores=pm.cores,
            ram=pm.ram,
            location=pm.location,
        )
    return snap


def build_state_graph_by_element(snapshot, pending, price_now=None) -> StateGraph:
    """The state graph filled one feature row and one edge at a time."""
    pm_ids = list(snapshot)
    n_pm = len(pm_ids)
    n = n_pm + len(pending)

    features = np.zeros((n, FEATURE_DIM))
    for i, pm_id in enumerate(pm_ids):
        e = snapshot[pm_id]
        price = 0.0
        if price_now:
            price = price_now.get(e.location, 0.0)
        features[i] = (
            e.free_cores / e.cores,
            e.free_ram / e.ram,
            e.utilisation,
            1.0 if e.powered_on else 0.0,
            price / NORM_PRICE,
        )
    for j, req in enumerate(pending):
        features[n_pm + j] = (
            req.cores / NORM_CORES,
            req.ram / NORM_RAM_GIB,
            (req.cpu_frequency - FREQ_BASE_MHZ) / FREQ_SPAN_MHZ,
            req.duration / NORM_DURATION_H,
            0.0,
        )

    adjacency = np.zeros((n, n))
    for i in range(n_pm):
        for j in range(i + 1, n_pm):
            adjacency[i, j] = adjacency[j, i] = 1.0
    for j, req in enumerate(pending):
        v = n_pm + j
        for i, pm_id in enumerate(pm_ids):
            if feasible(snapshot[pm_id], req):
                adjacency[i, v] = adjacency[v, i] = 1.0

    return StateGraph(
        node_ids=tuple(pm_ids) + tuple(r.id for r in pending),
        kinds=("pm",) * n_pm + ("vm",) * len(pending),
        features=features,
        adjacency=adjacency,
    )


def train_uncached(model, dataset, partitions=None, config=None):
    """Per-sample SGD that restricts and normalises every sample's graph every step."""
    model = copy.deepcopy(model)
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
