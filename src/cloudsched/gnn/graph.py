"""State graphs over the PMs and one request, and their clustering.

Every scheduling decision is scored on a small featured graph: one node
per PM (complete subgraph, they share the same infrastructure) plus one
last node for the request being placed, linked to every PM that could
host it.  Features are min-max normalized against the largest-PM
envelope so the networks see values in roughly [0, 1].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..datacenter import ResourceSnapshot
from ..errors import DomainError
from ..workload import (
    DURATION_MAX_H,
    FREQ_MAX_MHZ,
    FREQ_MIN_MHZ,
    MAX_PM_CORES,
    MAX_PM_RAM_GIB,
    WorkloadRequest,
)

FEATURE_DIM = 5
# Normalization constants from the workload generator's largest-PM envelope.
NORM_CORES = float(MAX_PM_CORES)
NORM_RAM_GIB = float(MAX_PM_RAM_GIB)
NORM_DURATION_H = float(DURATION_MAX_H)
FREQ_BASE_MHZ = float(FREQ_MIN_MHZ)
FREQ_SPAN_MHZ = float(FREQ_MAX_MHZ - FREQ_MIN_MHZ)
NORM_PRICE = 0.15  # upper bound of the synthetic price generator


@dataclass
class StateGraph:
    features: np.ndarray  # n x FEATURE_DIM: the PMs, then the request
    adjacency: np.ndarray  # n x n symmetric 0/1, zero diagonal

    @property
    def n_nodes(self) -> int:
        return self.features.shape[0]


class WorkingFeatures:
    """The state graph's feature matrix, kept for one working snapshot.

    One row per PM, in snapshot order, then a last row for the request.
    The PM rows come straight from the snapshot's columns; `prices` is
    the current price at each PM, in snapshot order, or None for no
    prices (a zero column).  A placement changes one PM's row, so after
    each `working.place(row, ...)` the caller calls `placed(row)`, which
    rewrites that row alone with the same divisions; the price column
    never changes, since prices are fixed for the hour.  `for_request`
    writes only the request row and returns the matrix.
    """

    def __init__(self, working: ResourceSnapshot, prices: np.ndarray | None):
        self.working = working
        self.values = x = np.zeros((len(working) + 1, FEATURE_DIM))
        np.divide(working.free_cores, working.cores, out=x[:-1, 0])
        np.divide(working.free_ram, working.ram, out=x[:-1, 1])
        x[:-1, 2] = working.utilisation
        x[:-1, 3] = working.powered_on
        if prices is not None:
            np.divide(prices, NORM_PRICE, out=x[:-1, 4])

    def placed(self, row: int) -> None:
        working, x = self.working, self.values[row]
        x[0] = working.free_cores[row] / working.cores[row]
        x[1] = working.free_ram[row] / working.ram[row]
        x[2] = working.utilisation[row]
        x[3] = working.powered_on[row]

    def for_request(self, request: WorkloadRequest) -> np.ndarray:
        """The matrix with the request's row written; its price column stays 0."""
        self.values[-1, :4] = (
            request.cores / NORM_CORES,
            request.ram / NORM_RAM_GIB,
            (request.cpu_frequency - FREQ_BASE_MHZ) / FREQ_SPAN_MHZ,
            request.duration / NORM_DURATION_H,
        )
        return self.values


def build_state_graph(
    snapshot: ResourceSnapshot, request: WorkloadRequest, prices: np.ndarray | None = None
) -> StateGraph:
    """Assemble the graph a scheduler scores: PM clique + the request's feasible edges.

    The features are `WorkingFeatures(snapshot, prices).for_request(request)`.
    """
    n = len(snapshot)
    adjacency = np.zeros((n + 1, n + 1))
    adjacency[:n, :n] = 1.0 - np.eye(n)
    fits = snapshot.fits(request)
    adjacency[n, :n] = fits
    adjacency[:n, n] = fits
    return StateGraph(WorkingFeatures(snapshot, prices).for_request(request), adjacency)


def normalize_adjacency(adjacency: np.ndarray) -> np.ndarray:
    """Return D^{-1/2} (A + I) D^{-1/2} with D the degree matrix of A + I.

    A must be square, symmetric, 0/1 with a zero diagonal.
    """
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

