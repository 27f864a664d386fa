import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cloudsched.datacenter import new_datacenter, snapshot
from cloudsched.errors import DomainError
from cloudsched.gnn.graph import (
    ClusterPartition,
    StateGraph,
    WorkingFeatures,
    build_state_graph,
    normalize_adjacency,
    partition_graph,
    state_a_hat,
)
from cloudsched.workload import WorkloadRequest

from helpers import cut_edges, entry, pm_entries, pm_prices, snapshot_from_entries
from slow_reference import build_state_graph_by_element


def request(freq=2000, cores=4, ram=8, duration=24):
    return WorkloadRequest(
        id="vm-0", cpu_frequency=freq, cores=cores, ram=ram, duration=duration, arrival=0
    )


class TestBuildStateGraph:
    def test_pm_clique_8(self):
        graph = build_state_graph(snapshot(new_datacenter(8)), request(freq=3500))
        assert graph.n_nodes == 9
        assert graph.adjacency.sum() / 2 == 28  # C(8,2): the request fits nowhere

    def test_smallest_bipartite(self):
        graph = build_state_graph(snapshot(new_datacenter(1)), request())
        assert graph.n_nodes == 2
        assert graph.adjacency.sum() / 2 == 1

    def test_infeasible_vm_gets_no_edge(self):
        graph = build_state_graph(snapshot(new_datacenter(1)), request(freq=3500))
        assert graph.n_nodes == 2
        assert graph.adjacency.sum() == 0

    def test_feature_rows(self):
        snap = snapshot(new_datacenter(1))
        prices = pm_prices(snap, {"loc-0": 0.12})
        graph = build_state_graph(snap, request(freq=2500, cores=8, ram=4, duration=12), prices)
        np.testing.assert_allclose(graph.features[0], [1.0, 1.0, 0.0, 0.0, 0.12 / 0.15])
        np.testing.assert_allclose(
            graph.features[1], [8 / 32, 4 / 64, (2500 - 1600) / 1800, 12 / 48, 0.0]
        )


@st.composite
def graph_inputs(draw):
    entries = draw(pm_entries())
    n_pm = len(entries)
    # a request up to 40 cores / 70 GiB / 3500 MHz: some fit nowhere
    req = WorkloadRequest(
        id="vm-0",
        cpu_frequency=draw(st.integers(1600, 3500)),
        cores=draw(st.integers(1, 40)),
        ram=draw(st.integers(1, 70)),
        duration=draw(st.integers(1, 48)),
        arrival=0,
    )
    # None, or prices for a subset of the locations (the rest are missing)
    priced = draw(st.none() | st.lists(st.integers(0, n_pm - 1), unique=True))
    price_now = None
    if priced is not None:
        price_now = {f"loc-{i}": draw(st.floats(0.0, 0.15)) for i in priced}
    return entries, req, price_now


@settings(max_examples=150, deadline=None)
@given(graph_inputs())
def test_build_state_graph_matches_element_loop(inputs):
    entries, req, price_now = inputs
    snap = snapshot_from_entries(entries)
    fast = build_state_graph(snap, req, pm_prices(snap, price_now))
    slow = build_state_graph_by_element(entries, req, price_now)
    assert fast.features.dtype == slow.features.dtype == np.float64
    assert fast.adjacency.dtype == slow.adjacency.dtype == np.float64
    assert fast.features.tobytes() == slow.features.tobytes()
    assert fast.adjacency.tobytes() == slow.adjacency.tobytes()


def assert_a_hat_matches_the_graph(snap, req):
    dense = normalize_adjacency(build_state_graph(snap, req).adjacency)
    closed = state_a_hat(snap.fits(req).astype(float))
    assert closed.dtype == dense.dtype and closed.shape == dense.shape
    assert closed.tobytes() == dense.tobytes()


@settings(max_examples=150, deadline=None)
@given(st.lists(st.booleans(), min_size=1, max_size=130))
def test_state_a_hat_matches_normalised_graph_bit_for_bit(fits):
    # PM i has a free core for the one-core request exactly when fits[i]
    entries = {f"pm-{i}": entry(free_cores=int(f), loc=f"loc-{i}") for i, f in enumerate(fits)}
    assert_a_hat_matches_the_graph(snapshot_from_entries(entries), request(cores=1, ram=1))


@pytest.mark.parametrize("pms", [1, 2, 64, 128])
@pytest.mark.parametrize("freq", [2000, 3500], ids=["every-pm-fits", "no-pm-fits"])
def test_state_a_hat_matches_normalised_graph_at_the_edges(pms, freq):
    assert_a_hat_matches_the_graph(snapshot(new_datacenter(pms)), request(freq))


class TestNormalizeAdjacency:
    def test_isolated_node(self):
        np.testing.assert_allclose(normalize_adjacency(np.zeros((1, 1))), [[1.0]])

    def test_connected_pair(self):
        a = np.array([[0.0, 1.0], [1.0, 0.0]])
        np.testing.assert_allclose(normalize_adjacency(a), np.full((2, 2), 0.5))

    def test_three_node_path(self):
        # degrees of A+I: (2, 3, 2); entry (0,1) = 1/sqrt(2*3)
        a = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=float)
        a_hat = normalize_adjacency(a)
        assert a_hat[0][1] == pytest.approx(1 / math.sqrt(6), rel=1e-12)
        assert a_hat[1][0] == pytest.approx(1 / math.sqrt(6), rel=1e-12)

    def test_symmetric_output_positive_rows(self):
        rng = np.random.default_rng(4)
        n = 6
        a = (rng.random((n, n)) < 0.4).astype(float)
        a = np.triu(a, 1)
        a = a + a.T
        a_hat = normalize_adjacency(a)
        np.testing.assert_allclose(a_hat, a_hat.T)
        assert (a_hat.sum(axis=1) > 0).all()

    def test_rejects_asymmetric(self):
        with pytest.raises(DomainError):
            normalize_adjacency(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_nonzero_diagonal(self):
        with pytest.raises(DomainError):
            normalize_adjacency(np.eye(2))


def graph_from_adjacency(a: np.ndarray) -> StateGraph:
    n = a.shape[0]
    return StateGraph(features=np.zeros((n, 5)), adjacency=a.astype(float))


def two_triangles() -> StateGraph:
    a = np.zeros((6, 6))
    for i, j in [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]:
        a[i, j] = a[j, i] = 1.0
    return graph_from_adjacency(a)


class TestPartitionGraph:
    def test_k1_single_cluster(self):
        p = partition_graph(two_triangles(), k=1)
        assert set(p.cluster_of) == {0}

    def test_kn_singletons(self):
        g = two_triangles()
        p = partition_graph(g, k=6)
        assert sorted(p.cluster_of) == list(range(6))

    def test_two_triangles_split_on_components(self):
        g = two_triangles()
        p = partition_graph(g, k=2)
        assert p.cluster_of[0] == p.cluster_of[1] == p.cluster_of[2]
        assert p.cluster_of[3] == p.cluster_of[4] == p.cluster_of[5]
        assert p.cluster_of[0] != p.cluster_of[3]
        assert cut_edges(g, p) == 0

    def test_k_out_of_range(self):
        with pytest.raises(DomainError):
            partition_graph(two_triangles(), k=0)
        with pytest.raises(DomainError):
            partition_graph(two_triangles(), k=7)

    def test_every_cluster_nonempty(self):
        g = build_state_graph(snapshot(new_datacenter(5)), request())
        for k in range(1, g.n_nodes + 1):
            p = partition_graph(g, k=k)
            assert p.k == k
            assert set(p.cluster_of) == set(range(k))

    def test_deterministic(self):
        g = build_state_graph(snapshot(new_datacenter(5)), request())
        assert partition_graph(g, k=3) == partition_graph(g, k=3)
        assert partition_graph(two_triangles(), k=2) == partition_graph(two_triangles(), k=2)


def test_cluster_partition_validation():
    with pytest.raises(DomainError):
        ClusterPartition(cluster_of=(0, 0, 0), k=2)  # cluster 1 empty


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_kept_features_match_fresh_ones(data):
    """After any placements on a copy or a take, priced or not, the kept
    matrix equals a fresh `WorkingFeatures` of the working snapshot, byte for byte."""
    snap = snapshot_from_entries(data.draw(pm_entries(min_pms=1, max_pms=12), label="pms"))
    if data.draw(st.booleans(), label="take"):
        order = data.draw(st.permutations(range(len(snap))), label="order")
        working = snap.take(np.array(order[: data.draw(st.integers(1, len(order)))]))
    else:
        working = snap.copy()
    prices = data.draw(
        st.none()
        | st.lists(st.floats(0.0, 0.15), min_size=len(working), max_size=len(working)).map(
            np.array
        ),
        label="prices",
    )
    features = WorkingFeatures(working, prices)
    for _ in range(data.draw(st.integers(1, 10), label="steps")):
        r = request(
            freq=data.draw(st.integers(1600, 3500)),
            cores=data.draw(st.sampled_from([1, 2, 4, 8, 16])),
            ram=data.draw(st.sampled_from([1, 2, 4, 8, 16])),
            duration=data.draw(st.integers(1, 48)),
        )
        kept = features.for_request(r)
        assert kept.tobytes() == WorkingFeatures(working, prices).for_request(r).tobytes()
        fits = np.flatnonzero(working.fits(r)).tolist()
        if fits:
            row = data.draw(st.sampled_from(fits), label="row")
            working.place(row, r)
            features.placed(row)
            kept = features.for_request(r)
            assert kept.tobytes() == WorkingFeatures(working, prices).for_request(r).tobytes()
