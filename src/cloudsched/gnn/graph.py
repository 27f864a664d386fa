"""State graphs over PM and VM nodes, and their clustering.

Every scheduling decision is scored on a small featured graph: one node
per PM (complete subgraph, they share the same infrastructure) plus one
node per pending VM, linked to every PM that could host it.  Features
are min-max normalized against the largest-PM envelope so the networks
see values in roughly [0, 1].
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..datacenter import ResourceSnapshot, feasible
from ..errors import DomainError
from ..workload import WorkloadRequest

FEATURE_DIM = 5
# Normalization constants from the largest-PM envelope.
NORM_CORES = 32.0
NORM_RAM_GIB = 64.0
NORM_DURATION_H = 48.0
FREQ_BASE_MHZ = 1600.0
FREQ_SPAN_MHZ = 1800.0
NORM_PRICE = 0.15  # upper bound of the synthetic price generator


@dataclass
class StateGraph:
    node_ids: tuple[str, ...]  # PM ids first, then VM ids
    kinds: tuple[str, ...]  # "pm" | "vm" per node
    features: np.ndarray  # n x FEATURE_DIM
    adjacency: np.ndarray  # n x n symmetric 0/1, zero diagonal

    @property
    def n_nodes(self) -> int:
        return len(self.node_ids)

    def pm_nodes(self) -> list[int]:
        return [i for i, k in enumerate(self.kinds) if k == "pm"]

    def vm_nodes(self) -> list[int]:
        return [i for i, k in enumerate(self.kinds) if k == "vm"]


def build_state_graph(
    snapshot: ResourceSnapshot,
    pending: Sequence[WorkloadRequest],
    price_now: dict[str, float] | None = None,
) -> StateGraph:
    """Assemble the graph a scheduler scores: PM clique + feasible VM-PM edges."""
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


def normalize_adjacency(adjacency: np.ndarray) -> np.ndarray:
    """Return D^{-1/2} (A + I) D^{-1/2} with D the degree matrix of A + I."""
    a = np.asarray(adjacency, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DomainError("adjacency must be square")
    if not np.array_equal(a, a.T):
        raise DomainError("adjacency must be symmetric")
    if np.any(np.diag(a) != 0):
        raise DomainError("adjacency diagonal must be zero")
    if not np.all((a == 0) | (a == 1)):
        raise DomainError("adjacency entries must be 0 or 1")

    a_loop = a + np.eye(a.shape[0])
    inv_sqrt_deg = 1.0 / np.sqrt(a_loop.sum(axis=1))
    return a_loop * inv_sqrt_deg[:, None] * inv_sqrt_deg[None, :]


@dataclass(frozen=True)
class ClusterPartition:
    cluster_of: tuple[int, ...]  # node index -> cluster id
    k: int

    def __post_init__(self):
        seen = set(self.cluster_of)
        if seen != set(range(self.k)):
            raise DomainError("every cluster must be non-empty and ids contiguous")

    def members(self, cluster_id: int) -> list[int]:
        return [i for i, c in enumerate(self.cluster_of) if c == cluster_id]


def partition_graph(graph: StateGraph, k: int) -> ClusterPartition:
    """Greedy balanced edge-cut partition into k clusters.

    Clusters are seeded with the highest-degree nodes, preferring seeds
    not adjacent to one another so separate components get separate
    clusters; then each remaining node joins the cluster it has the most
    edges into (ties: smaller cluster, then lower cluster id).  Fully
    deterministic: index tie-breaks leave nothing to chance.
    """
    n = graph.n_nodes
    if not 1 <= k <= n:
        raise DomainError(f"k={k} outside [1, {n}]")
    a = graph.adjacency
    degree = a.sum(axis=1)
    order = sorted(range(n), key=lambda i: (-degree[i], i))

    seeds: list[int] = [order[0]]
    remaining = order[1:]
    while len(seeds) < k:
        spread = [i for i in remaining if all(a[i, s] == 0 for s in seeds)]
        pick = spread[0] if spread else remaining[0]
        seeds.append(pick)
        remaining.remove(pick)

    cluster_of = [-1] * n
    sizes = [0] * k
    for c, node in enumerate(seeds):
        cluster_of[node] = c
        sizes[c] = 1

    unassigned = [i for i in range(n) if cluster_of[i] == -1]
    while unassigned:
        best = None  # (edges, -node) maximized
        for node in unassigned:
            counts = [0.0] * k
            for other in range(n):
                if a[node, other] and cluster_of[other] >= 0:
                    counts[cluster_of[other]] += 1
            target = min(range(k), key=lambda c: (-counts[c], sizes[c], c))
            key = (counts[target], -node)
            if best is None or key > best[0]:
                best = (key, node, target)
        _, node, target = best
        cluster_of[node] = target
        sizes[target] += 1
        unassigned.remove(node)

    return ClusterPartition(cluster_of=tuple(cluster_of), k=k)


def cut_edges(graph: StateGraph, partition: ClusterPartition) -> int:
    """Number of edges crossing cluster boundaries (diagnostic)."""
    a = graph.adjacency
    count = 0
    for i in range(graph.n_nodes):
        for j in range(i + 1, graph.n_nodes):
            if a[i, j] and partition.cluster_of[i] != partition.cluster_of[j]:
                count += 1
    return count
