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
# A request's (cores, RAM, frequency, duration) row maps to its features
# as (row - _VM_OFFSET) / _VM_SCALE.
_VM_OFFSET = np.array([0.0, 0.0, FREQ_BASE_MHZ, 0.0])
_VM_SCALE = np.array([NORM_CORES, NORM_RAM_GIB, FREQ_SPAN_MHZ, NORM_DURATION_H])


@dataclass
class StateGraph:
    node_ids: tuple[str, ...]  # PM ids first, then VM ids
    kinds: tuple[str, ...]  # "pm" | "vm" per node
    features: np.ndarray  # n x FEATURE_DIM
    adjacency: np.ndarray  # n x n symmetric 0/1, zero diagonal

    @property
    def n_nodes(self) -> int:
        return len(self.node_ids)


def node_features(
    snapshot: ResourceSnapshot,
    pending: Sequence[WorkloadRequest],
    prices: np.ndarray | None = None,
) -> np.ndarray:
    """The state graph's feature rows: the PMs in snapshot order, then the requests.

    The PM rows come straight from the snapshot's columns; `prices` is
    the current price at each PM, in snapshot order, or None for no prices.
    """
    n_pm = len(snapshot)
    vms = np.array([_request_values(r) for r in pending], dtype=float).reshape(len(pending), 4)

    features = np.zeros((n_pm + len(pending), FEATURE_DIM))
    np.divide(snapshot.free_cores, snapshot.cores, out=features[:n_pm, 0])
    np.divide(snapshot.free_ram, snapshot.ram, out=features[:n_pm, 1])
    features[:n_pm, 2] = snapshot.utilisation
    features[:n_pm, 3] = snapshot.powered_on
    if prices is not None:
        np.divide(prices, NORM_PRICE, out=features[:n_pm, 4])
    # Subtracting 0.0 leaves the other three columns as they are.
    np.divide(vms - _VM_OFFSET, _VM_SCALE, out=features[n_pm:, :4])
    return features


def _request_values(request: WorkloadRequest) -> tuple[int, int, int, int]:
    return request.cores, request.ram, request.cpu_frequency, request.duration


class WorkingFeatures:
    """`node_features(working, [request], prices)`, kept for one working snapshot.

    Built with `node_features` when the working snapshot is made, with a
    last row for the request.  A placement changes one PM's row, so after
    each `working.place(row, ...)` the caller calls `placed(row)`, which
    rewrites that row alone with `node_features`' operations; the price
    column never changes, since prices are fixed for the hour.
    `for_request` writes only the request row and returns the matrix.
    """

    def __init__(self, working: ResourceSnapshot, prices: np.ndarray | None):
        self.working = working
        self.values = np.zeros((len(working) + 1, FEATURE_DIM))
        self.values[:-1] = node_features(working, [], prices)

    def placed(self, row: int) -> None:
        working, x = self.working, self.values[row]
        x[0] = working.free_cores[row] / working.cores[row]
        x[1] = working.free_ram[row] / working.ram[row]
        x[2] = working.utilisation[row]
        x[3] = working.powered_on[row]

    def for_request(self, request: WorkloadRequest) -> np.ndarray:
        vm = np.array(_request_values(request), dtype=float)
        np.divide(vm - _VM_OFFSET, _VM_SCALE, out=self.values[-1, :4])
        return self.values


def build_state_graph(
    snapshot: ResourceSnapshot,
    pending: Sequence[WorkloadRequest],
    prices: np.ndarray | None = None,
) -> StateGraph:
    """Assemble the graph a scheduler scores: PM clique + feasible VM-PM edges.

    The features are `node_features(snapshot, pending, prices)`.
    """
    n_pm = len(snapshot)
    n = n_pm + len(pending)
    adjacency = np.zeros((n, n))
    adjacency[:n_pm, :n_pm] = 1.0 - np.eye(n_pm)
    for node, request in enumerate(pending, start=n_pm):
        fits = snapshot.fits(request)
        adjacency[node, :n_pm] = fits
        adjacency[:n_pm, node] = fits

    return StateGraph(
        node_ids=snapshot.pm_ids + tuple(r.id for r in pending),
        kinds=("pm",) * n_pm + ("vm",) * len(pending),
        features=node_features(snapshot, pending, prices),
        adjacency=adjacency,
    )


def state_a_hat(fits: np.ndarray) -> np.ndarray:
    """The normalised adjacency of a one-VM state graph, from the VM's 0/1 fits mask.

    Equal, bit for bit, to `_normalize` of the graph's adjacency, without
    building it (Kipf & Welling's D^-1/2 (A+I) D^-1/2).  The PMs form a
    clique, so A + I is all ones on the PM block: PM i has degree
    n + f_i, the VM 1 + sum(f), and with s = 1/sqrt(deg) every unit entry
    of A + I becomes s_i * s_j, which is `_normalize`'s (1 * s_i) * s_j.
    The VM's row and column then carry their 0/1 factor f; an entry that
    is 0 in A + I comes out +0.0 in both.
    """
    n = fits.shape[0]
    deg = np.empty(n + 1)
    np.add(n, fits, out=deg[:n])
    deg[n] = 1.0 + fits.sum()
    inv_sqrt_deg = 1.0 / np.sqrt(deg)
    a_hat = np.multiply.outer(inv_sqrt_deg, inv_sqrt_deg)
    a_hat[n, :n] *= fits
    a_hat[:n, n] *= fits
    return a_hat


def normalize_adjacency(adjacency: np.ndarray) -> np.ndarray:
    """Return D^{-1/2} (A + I) D^{-1/2} with D the degree matrix of A + I.

    This public entry point validates its input: A must be square,
    symmetric, 0/1 with a zero diagonal.  The model forwards and the
    trainer call the unchecked `_normalize` directly, because a
    `StateGraph`'s adjacency, and any cluster restriction of it, is valid
    by construction.
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
    return _normalize(a)


def _normalize(adjacency: np.ndarray) -> np.ndarray:
    """`normalize_adjacency` without the input checks."""
    a_loop = adjacency + np.eye(adjacency.shape[0])
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

