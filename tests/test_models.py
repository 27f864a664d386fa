import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cloudsched.datacenter import new_datacenter, snapshot
from cloudsched.errors import DomainError, ShapeError, TraceFormatError
from cloudsched.gnn.graph import StateGraph, build_state_graph, partition_graph
from cloudsched.gnn.models import (
    MAX_GATED_STEPS,
    GatedModel,
    gated_forward,
    gcn_forward,
    model_from_json,
    model_to_json,
    new_gated_model,
    new_gcn_model,
    pad_features,
    restrict_graph,
    score_placements,
)
from cloudsched.workload import WorkloadRequest

from helpers import gcn_forward_restricted, pm_entries, snapshot_from_entries
from slow_reference import score_placements_by_pair

CHECKPOINTS = {
    name: model_from_json((Path(__file__).parent / "data" / f"{name}.json").read_text())
    for name in ("counter", "hunter")
}


def request(id="vm-0", freq=2000, cores=4, ram=8):
    return WorkloadRequest(id=id, cpu_frequency=freq, cores=cores, ram=ram, duration=24, arrival=0)


def random_graph(n, seed, p=0.5, n_vm=0):
    rng = np.random.default_rng(seed)
    a = (rng.random((n, n)) < p).astype(float)
    a = np.triu(a, 1)
    a = a + a.T
    kinds = ("pm",) * (n - n_vm) + ("vm",) * n_vm
    return StateGraph(
        node_ids=tuple(f"n{i}" for i in range(n)),
        kinds=kinds,
        features=rng.standard_normal((n, 5)),
        adjacency=a,
    )


def zero_model(dims=(5, 16, 16)):
    m = new_gcn_model(seed=0, dims=dims)
    for _, arr in m.parameters():
        arr[...] = 0.0
    return m


def zero_gated(steps=1):
    m = new_gated_model(seed=0, steps=steps)
    for _, arr in m.parameters():
        arr[...] = 0.0
    return m


class TestGcnForward:
    def test_zero_weights_zero_embeddings(self):
        g = random_graph(5, seed=1)
        h = gcn_forward(zero_model(), g)
        assert np.all(h == 0.0)

    def test_identity_layer_returns_features(self):
        g = random_graph(1, seed=2)
        m = zero_model(dims=(5, 5))
        m.weights[0][...] = np.eye(5)
        np.testing.assert_allclose(gcn_forward(m, g), g.features)

    def test_shape_error(self):
        g = random_graph(4, seed=3)
        m = new_gcn_model(seed=0, dims=(7, 4))
        with pytest.raises(ShapeError):
            gcn_forward(m, g)

    def test_cluster_restriction_on_disconnected_graph(self):
        # two components; partition aligns with them, so masking removes no edges
        a = np.zeros((6, 6))
        for i, j in [(0, 1), (1, 2), (3, 4), (4, 5)]:
            a[i, j] = a[j, i] = 1.0
        rng = np.random.default_rng(7)
        g = StateGraph(
            node_ids=tuple(f"n{i}" for i in range(6)),
            kinds=("pm",) * 6,
            features=rng.standard_normal((6, 5)),
            adjacency=a,
        )
        part = partition_graph(g, k=2)
        m = new_gcn_model(seed=5)
        full = gcn_forward(m, g)
        for cluster in range(2):
            nodes, _, _ = restrict_graph(g, part, cluster)
            restricted = gcn_forward_restricted(m, g, part, cluster)
            np.testing.assert_allclose(restricted, full[nodes], atol=1e-12)

    def test_permutation_equivariance(self):
        g = random_graph(7, seed=11)
        m = new_gcn_model(seed=13)
        h = gcn_forward(m, g)
        rng = np.random.default_rng(17)
        perm = rng.permutation(7)
        g_perm = StateGraph(
            node_ids=tuple(g.node_ids[i] for i in perm),
            kinds=tuple(g.kinds[i] for i in perm),
            features=g.features[perm],
            adjacency=g.adjacency[np.ix_(perm, perm)],
        )
        np.testing.assert_allclose(gcn_forward(m, g_perm), h[perm], atol=1e-12)


class TestGatedForward:
    def test_zero_weights_halves_initial_state(self):
        # z = sigmoid(0) = 0.5 everywhere, candidate = tanh(0) = 0,
        # so one step yields 0.5 * h0 exactly
        g = random_graph(4, seed=19)
        m = zero_gated(steps=1)
        h0 = pad_features(g.features, m.hidden)
        np.testing.assert_allclose(gated_forward(m, g), 0.5 * h0, atol=1e-15)

    def test_single_node_recurrence_oracle(self):
        # isolated node: a_hat = [[1]]; replay the GRU by hand for K steps
        g = random_graph(1, seed=23, p=0.0)
        m = new_gated_model(seed=29, steps=3)
        h = pad_features(g.features, m.hidden)[0]

        def sigmoid(x):
            return 1.0 / (1.0 + np.exp(-x))

        for _ in range(m.steps):
            msg = h @ m.w_msg
            z = sigmoid(msg @ m.w_z + h @ m.u_z + m.b_z)
            r = sigmoid(msg @ m.w_r + h @ m.u_r + m.b_r)
            c = np.tanh(msg @ m.w_c + (r * h) @ m.u_c + m.b_c)
            h = (1.0 - z) * h + z * c

        np.testing.assert_allclose(gated_forward(m, g)[0], h, atol=1e-12)

    def test_k0_rejected(self):
        with pytest.raises(DomainError):
            new_gated_model(seed=0, steps=0)


class TestScorePlacements:
    def test_no_feasible_pm_empty_map(self):
        snap = snapshot(new_datacenter(2))
        g = build_state_graph(snap, [request(freq=3500)])
        assert score_placements(new_gcn_model(seed=1), g, vm_node=2) == {}

    def test_zero_weights_all_scores_equal_bias(self):
        snap = snapshot(new_datacenter(3))
        g = build_state_graph(snap, [request()])
        m = zero_model()
        m.readout_b[0] = 0.7
        scores = score_placements(m, g, vm_node=3)
        assert len(scores) == 3
        assert all(s == 0.7 for s in scores.values())

    def test_two_distinct_pms_two_scores(self):
        state = new_datacenter(2)
        from cloudsched.datacenter import admit, place

        state = admit(state, request(id="w0", cores=8))
        state = place(state, "w0", "pm-0")
        g = build_state_graph(snapshot(state), [request(id="vm-1")])
        scores = score_placements(new_gcn_model(seed=3), g, vm_node=2)
        assert len(scores) == 2

    def test_non_vm_node_rejected(self):
        g = build_state_graph(snapshot(new_datacenter(2)), [request()])
        with pytest.raises(DomainError):
            score_placements(new_gcn_model(seed=1), g, vm_node=0)

    def test_gated_scoring_works(self):
        g = build_state_graph(snapshot(new_datacenter(2)), [request()])
        scores = score_placements(new_gated_model(seed=1), g, vm_node=2)
        assert len(scores) == 2


@st.composite
def scored_graphs(draw):
    """A state graph over 8-40 PMs with 1-3 pending VMs, the last fitting nowhere."""
    entries = draw(pm_entries(min_pms=8, max_pms=40))
    snap = snapshot_from_entries(entries)
    pending = [
        WorkloadRequest(
            id=f"vm-{j}",
            cpu_frequency=draw(st.integers(1600, 3400)),
            cores=draw(st.sampled_from([1, 2, 4, 8, 16])),
            ram=draw(st.sampled_from([1, 2, 4, 8, 16])),
            duration=draw(st.integers(1, 48)),
            arrival=0,
        )
        for j in range(draw(st.integers(0, 2)))
    ]
    pending.append(request(id="vm-nowhere", freq=3500))
    prices = np.array([draw(st.floats(0.0, 0.15)) for _ in entries])
    return build_state_graph(snap, pending, prices), len(entries)


@pytest.mark.parametrize("name", sorted(CHECKPOINTS))
@settings(max_examples=60, deadline=None)
@given(scored_graphs())
def test_score_placements_matches_per_pair_readout_bit_for_bit(name, inputs):
    model = CHECKPOINTS[name]
    graph, n_pm = inputs
    for vm_node in range(n_pm, graph.n_nodes):
        fast = score_placements(model, graph, vm_node)
        slow = score_placements_by_pair(model, graph, vm_node)
        assert list(fast) == list(slow)
        assert [type(k) for k in fast] == [int] * len(fast)
        assert [s.hex() for s in fast.values()] == [s.hex() for s in slow.values()]
    assert fast == {}  # the last VM fits nowhere


class TestCheckpoints:
    def graph(self):
        return build_state_graph(snapshot(new_datacenter(3)), [request()])

    def test_gcn_round_trip_score_identical(self):
        m = new_gcn_model(seed=31)
        back = model_from_json(model_to_json(m))
        g = self.graph()
        assert score_placements(m, g, 3) == score_placements(back, g, 3)

    def test_gated_round_trip_score_identical(self):
        m = new_gated_model(seed=37)
        back = model_from_json(model_to_json(m))
        assert isinstance(back, GatedModel)
        assert back.steps == m.steps
        g = self.graph()
        assert score_placements(m, g, 3) == score_placements(back, g, 3)

    def test_gated_steps_bound_loads(self):
        m = new_gated_model(seed=37, steps=MAX_GATED_STEPS)
        assert model_from_json(model_to_json(m)).steps == MAX_GATED_STEPS

    def test_rejects_non_finite_parameters(self):
        for value in ("NaN", "Infinity"):
            doc = json.loads(model_to_json(new_gcn_model(seed=0)))
            doc["params"][0][3] = value
            text = json.dumps(doc).replace(f'"{value}"', value)
            with pytest.raises(TraceFormatError, match="'W0'"):
                model_from_json(text)

    def test_rejects_garbage(self):
        with pytest.raises(TraceFormatError):
            model_from_json("{')")
        with pytest.raises(TraceFormatError):
            model_from_json('{"schema_version": 99}')
        with pytest.raises(TraceFormatError):
            model_from_json('{"schema_version": 1, "kind": "mlp"}')

    @pytest.mark.parametrize("kind", ["gcn", "gated"])
    def test_rejects_malformed_structure(self, kind):
        model = new_gcn_model(seed=0) if kind == "gcn" else new_gated_model(seed=0)
        good = json.loads(model_to_json(model))
        assert isinstance(model_from_json(json.dumps(good)), type(model))

        def broken(**changes):
            doc = dict(good)
            for key, value in changes.items():
                if value is None:
                    doc.pop(key, None)
                else:
                    doc[key] = value
            return json.dumps(doc)

        params_with_string = [list(p) for p in good["params"]]
        params_with_string[0][0] = "0.5"
        cases = [
            "[1, 2, 3]",
            broken(dims=None),
            broken(dims=[5]),
            broken(dims=[5, "16"]),
            broken(params=None),
            broken(params={"W0": []}),
            broken(params=params_with_string),
            broken(params=good["params"][:-1] + [0.0]),
        ]
        if kind == "gated":
            cases += [broken(steps=None), broken(steps=0), broken(steps=1.5)]
            cases += [broken(steps=MAX_GATED_STEPS + 1)]
        for text in cases:
            with pytest.raises(TraceFormatError):
                model_from_json(text)
