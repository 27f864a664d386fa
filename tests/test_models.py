import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from cloudsched.datacenter import admit, new_datacenter, place, snapshot
from cloudsched.errors import DomainError, ShapeError, TraceFormatError
from cloudsched.gnn.graph import (
    FEATURE_DIM,
    StateGraph,
    WorkingFeatures,
    build_state_graph,
    normalize_adjacency,
    partition_graph,
)
from cloudsched.gnn.models import (
    MAX_GATED_STEPS,
    GatedModel,
    ScoringWorkspace,
    gated_layout,
    gcn_layout,
    model_from_json,
    model_to_json,
    new_gated_model,
    new_gcn_model,
    pad_features,
    restrict_graph,
    score_placements,
)
from cloudsched.scheduler import Policy, _argmin
from cloudsched.workload import WorkloadRequest

from helpers import gcn_forward_restricted, pm_entries, snapshot_from_entries
from slow_reference import (
    gated_forward,
    gated_scores_unflipped,
    gcn_forward,
    score_placements_by_pair,
)

ROOT = Path(__file__).parent.parent
CHECKPOINTS = {
    name: model_from_json((ROOT / "tests" / "data" / f"{name}.json").read_text())
    for name in ("counter", "hunter")
}


def request(id="vm-0", freq=2000, cores=4, ram=8):
    return WorkloadRequest(id=id, cpu_frequency=freq, cores=cores, ram=ram, duration=24, arrival=0)


def random_graph(n, seed, p=0.5):
    rng = np.random.default_rng(seed)
    a = (rng.random((n, n)) < p).astype(float)
    a = np.triu(a, 1)
    a = a + a.T
    return StateGraph(features=rng.standard_normal((n, 5)), adjacency=a)


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
        with pytest.raises(ShapeError, match="first layer dim 7 != features dim 5"):
            new_gcn_model(seed=0, dims=(7, 4))

    def test_cluster_restriction_on_disconnected_graph(self):
        # two components; partition aligns with them, so masking removes no edges
        a = np.zeros((6, 6))
        for i, j in [(0, 1), (1, 2), (3, 4), (4, 5)]:
            a[i, j] = a[j, i] = 1.0
        rng = np.random.default_rng(7)
        g = StateGraph(features=rng.standard_normal((6, 5)), adjacency=a)
        part = partition_graph(g, k=2)
        m = new_gcn_model(seed=5)
        full = gcn_forward(m, g)
        for cluster in range(2):
            nodes, _, _ = restrict_graph(g, part, (cluster,))
            restricted = gcn_forward_restricted(m, g, part, (cluster,))
            np.testing.assert_allclose(restricted, full[nodes], atol=1e-12)

    def test_permutation_equivariance(self):
        g = random_graph(7, seed=11)
        m = new_gcn_model(seed=13)
        h = gcn_forward(m, g)
        rng = np.random.default_rng(17)
        perm = rng.permutation(7)
        g_perm = StateGraph(g.features[perm], g.adjacency[np.ix_(perm, perm)])
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


def score(model, snap, req, prices=None):
    """`score_placements` over every PM that fits the request, keyed by row."""
    rows = np.flatnonzero(snap.fits(req))
    scores = score_placements(model, WorkingFeatures(snap, prices).for_request(req), rows)
    return dict(zip(rows.tolist(), scores.tolist()))


class TestScorePlacements:
    def test_no_feasible_pm_empty_map(self):
        snap = snapshot(new_datacenter(2))
        assert score(new_gcn_model(seed=1), snap, request(freq=3500)) == {}

    def test_zero_weights_all_scores_equal_bias(self):
        snap = snapshot(new_datacenter(3))
        m = zero_model()
        m.readout_b[0] = 0.7
        scores = score(m, snap, request())
        assert len(scores) == 3
        assert all(s == 0.7 for s in scores.values())

    def test_two_distinct_pms_two_scores(self):
        state = new_datacenter(2)
        state = admit(state, [request(id="w0", cores=8)])
        state = place(state, [("w0", "pm-0")])
        scores = score(new_gcn_model(seed=3), snapshot(state), request(id="vm-1"))
        assert len(scores) == 2

    def test_only_the_candidates_are_scored(self):
        snap = snapshot(new_datacenter(4))
        features = WorkingFeatures(snap, None).for_request(request())
        scores = score_placements(new_gcn_model(seed=1), features, np.array([1, 3]))
        assert scores.shape == (2,)

    def test_gated_scoring_works(self):
        scores = score(new_gated_model(seed=1), snapshot(new_datacenter(2)), request())
        assert len(scores) == 2

    def test_gated_hidden_smaller_than_features_rejected(self):
        with pytest.raises(ShapeError, match="cannot pad 5 features into hidden size 3"):
            new_gated_model(seed=1, hidden=3)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_a_saturated_gate_scores_without_a_warning():
    # A duration of 2**63 - 1 drives a gate's exp(-x) to inf, so the gate is
    # 1 / (1 + inf) = 0; the scores are those of an exp that warned, bit for
    # bit.  At about 2**51 the three PMs differ by less than one ulp.
    state = admit(new_datacenter(3), [WorkloadRequest("w0", 2000, 8, 4, 5, 0)])
    snap = snapshot(place(state, [("w0", "pm-1")]))
    scores = score(CHECKPOINTS["hunter"], snap, WorkloadRequest("vm-0", 2000, 4, 8, 2**63 - 1, 0))
    assert [s.hex() for s in scores.values()] == ["-0x1.f757062d67f7ep+51"] * 3


@st.composite
def scored_snapshots(draw):
    """A snapshot of 1-40 PMs, a request that fits on none, some or every PM, and prices or None.

    The request's duration is up to 2**63 - 1 hours, so its feature can
    dwarf every other.
    """
    entries = draw(pm_entries(min_pms=1, max_pms=40))
    reach = draw(st.sampled_from(["some", "none", "all"]))
    if reach == "all":
        for e in entries.values():
            e["free_cores"], e["free_ram"], e["max_frequency"] = e["cores"], e["ram"], 3400
    snap = snapshot_from_entries(entries)
    req = WorkloadRequest(
        id="vm-0",
        cpu_frequency=3500 if reach == "none" else draw(st.integers(1600, 3400)),
        cores=draw(st.sampled_from([1, 2, 4, 8])),
        ram=draw(st.sampled_from([1, 2, 4, 8, 16])),
        duration=draw(st.integers(1, 48) | st.integers(1, 2**63 - 1)),
        arrival=0,
    )
    prices = None
    if draw(st.booleans()):
        prices = np.array([draw(st.floats(0.0, 0.15)) for _ in entries])
    return snap, req, prices


# `score_placements` propagates three rows where the dense forward
# multiplies by the n x n `a_hat`, so the two round differently.  Over
# 11,000 random draws (both checkpoints, 1-40 mixed PMs, priced and not,
# durations up to 2**63 - 1) the largest difference was
# 2.0e-15 x (|score| + 1); the bound leaves a factor of 50.  Its absolute
# part covers scores near zero, whose relative error is not small.
SCORE_BOUND = 1e-13


def assert_scores_match_the_graph(model, snap, req, prices):
    fast = score(model, snap, req, prices)
    slow = score_placements_by_pair(model, build_state_graph(snap, req, prices))
    assert list(fast) == list(slow)
    assert [type(k) for k in fast] == [int] * len(fast)
    fast, slow = np.array(list(fast.values())), np.array(list(slow.values()))
    assert np.all(np.abs(fast - slow) <= SCORE_BOUND * (np.abs(slow) + 1.0))
    if len(slow) > 1:
        best, runner_up = np.partition(slow, 1)[:2]
        if runner_up - best > 2 * SCORE_BOUND * (np.abs(slow).max() + 1.0):
            assert np.argmin(fast) == np.argmin(slow)


@pytest.mark.parametrize("name", sorted(CHECKPOINTS))
@settings(max_examples=80, deadline=None)
@given(scored_snapshots())
def test_score_placements_matches_per_pair_readout_within_the_bound(name, inputs):
    assert_scores_match_the_graph(CHECKPOINTS[name], *inputs)


@pytest.mark.parametrize("name", sorted(CHECKPOINTS))
@pytest.mark.parametrize(
    "pms, req, prices",
    [
        (1, request(), None),  # a single PM, the one candidate
        (1, request(freq=3500), [0.1]),  # a single PM, no candidate
        (64, request(), None),  # every PM a candidate
        (64, request(freq=3500), None),  # no candidate
    ],
    ids=["one-pm", "one-pm-no-fit", "all-64", "none-of-64"],
)
def test_score_placements_matches_the_graph_at_the_edges(name, pms, req, prices):
    prices = None if prices is None else np.array(prices)
    assert_scores_match_the_graph(CHECKPOINTS[name], snapshot(new_datacenter(pms)), req, prices)


@settings(max_examples=60, deadline=None)
@given(scored_snapshots())
def test_dense_pm_rows_depend_only_on_the_fits_bit(inputs):
    # In the dense forward, a PM's row of a_hat @ X is one of two rows, by
    # whether the request fits it, so every candidate ends with one GCN
    # embedding: counter ranks the candidates by their raw features alone.
    graph = build_state_graph(*inputs)
    fits = graph.adjacency[-1, :-1] == 1.0
    propagated = normalize_adjacency(graph.adjacency) @ graph.features
    embedded = gcn_forward(CHECKPOINTS["counter"], graph)
    for rows in (propagated[:-1][fits], propagated[:-1][~fits], embedded[:-1][fits]):
        if len(rows):
            assert np.all(np.abs(rows - rows[0]) <= 1e-12 * (np.abs(rows).max() + 1.0))


@pytest.mark.parametrize("model", [CHECKPOINTS["counter"], new_gcn_model(seed=3)])
@settings(max_examples=80, deadline=None)
@given(scored_snapshots())
def test_counter_picks_a_least_network_score(model, inputs):
    # Counter decides by feats[c] @ w_xp.  Its network score adds to that
    # one value shared by every candidate, in two rounded additions, and
    # rounding is monotone: the pick's network score is the least, and
    # where the least is unique the two picks agree.  No tolerance.
    snap, req, prices = inputs
    candidates = np.flatnonzero(snap.fits(req))
    assume(candidates.size)
    features = WorkingFeatures(snap, prices)
    pick = _argmin(*Policy("counter", model=model).score(snap, req, candidates, features))
    network = score_placements(model, features.for_request(req), candidates)
    if not np.isnan(network).all():
        assert network[candidates.tolist().index(pick)] == np.nanmin(network)
    if np.count_nonzero(network == np.nanmin(network)) == 1:
        assert pick == _argmin(candidates, network)


@settings(max_examples=30, deadline=None)
@given(st.lists(scored_snapshots(), min_size=1, max_size=6))
def test_one_workspace_scores_every_size_as_a_fresh_one(cases):
    # Graphs of several sizes, in any order, share one hunter workspace's
    # memory; each score equals a fresh workspace's bit for bit and is its
    # own array.
    model = CHECKPOINTS["hunter"]
    workspace = ScoringWorkspace(model, max(len(snap) for snap, _, _ in cases))
    kept = []
    for snap, req, prices in cases:
        feats = WorkingFeatures(snap, prices).for_request(req)
        rows = np.flatnonzero(snap.fits(req))
        shared = score_placements(model, feats, rows, workspace)
        fresh = score_placements(model, feats, rows)
        assert [s.hex() for s in shared.tolist()] == [s.hex() for s in fresh.tolist()]
        kept.append((shared, shared.copy()))
    block = workspace._segments[0].base
    for _, a_rows, messages, buffers, padded in workspace._sized.values():
        assert all(v.base is block for v in [a_rows, messages, buffers.hu, padded])
    assert all(np.array_equal(a, b) for a, b in kept)  # no later score wrote into an earlier one


# One workspace per model, kept across every Hypothesis example, so it
# scores each drawn size after others, larger and smaller.
UNFLIPPED_CASES = {
    name: ScoringWorkspace(model, 40)
    for name, model in [("hunter", CHECKPOINTS["hunter"]), ("3-step", new_gated_model(seed=5, steps=3))]
}


@pytest.mark.parametrize("name", sorted(UNFLIPPED_CASES))
@settings(max_examples=150, deadline=None)
@given(scored_snapshots())
def test_gated_scores_equal_the_unflipped_path_bit_for_bit(name, inputs):
    # The workspace holds the z and r gate weights negated and takes exp of
    # minus the pre-activation directly; the reference negates, then takes
    # exp.  Durations up to 2**63 - 1 saturate gates at both ends.
    workspace = UNFLIPPED_CASES[name]
    snap, req, prices = inputs
    feats = WorkingFeatures(snap, prices).for_request(req)
    rows = np.flatnonzero(snap.fits(req))
    fast = score_placements(workspace.model, feats, rows, workspace)
    slow = gated_scores_unflipped(workspace.model, feats, rows)
    assert [s.hex() for s in fast.tolist()] == [s.hex() for s in slow.tolist()]


def test_a_workspace_refuses_a_larger_graph():
    model = CHECKPOINTS["hunter"]
    snap = snapshot(new_datacenter(3))
    with pytest.raises(ShapeError, match="2 PMs cannot score 3"):
        workspace = ScoringWorkspace(model, 2)
        feats = WorkingFeatures(snap, None).for_request(request())
        score_placements(model, feats, np.arange(3), workspace)


class TestCheckpoints:
    def scores(self, model):
        return score(model, snapshot(new_datacenter(3)), request())

    def test_gcn_round_trip_score_identical(self):
        m = new_gcn_model(seed=31)
        back = model_from_json(model_to_json(m))
        assert self.scores(m) == self.scores(back)

    def test_gated_round_trip_score_identical(self):
        m = new_gated_model(seed=37)
        back = model_from_json(model_to_json(m))
        assert isinstance(back, GatedModel)
        assert back.steps == m.steps
        assert self.scores(m) == self.scores(back)

    def test_gated_steps_bound_loads(self):
        m = new_gated_model(seed=37, steps=MAX_GATED_STEPS)
        assert model_from_json(model_to_json(m)).steps == MAX_GATED_STEPS

    def test_rejects_non_finite_parameters(self):
        for value in ("NaN", "Infinity", str(10**400)):  # the last is past any float
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

    @pytest.mark.parametrize(
        "dims", [[7, 16], [5, 16, 99], [16, 16]], ids=["7-wide", "three-sizes", "16-wide"]
    )
    def test_gated_dims_other_than_features_and_hidden_rejected(self, dims):
        # A gated checkpoint is written with dims [5, hidden]; any other
        # dims would load as that and not write back as they were read.
        doc = json.loads(model_to_json(new_gated_model(seed=0)))
        with pytest.raises(TraceFormatError, match="'dims'"):
            model_from_json(json.dumps({**doc, "dims": dims}))


@st.composite
def checkpoint_texts(draw):
    """A checkpoint as the writer lays it out: GCN or gated dims, finite parameters."""
    if draw(st.booleans()):
        dims = [FEATURE_DIM] + draw(st.lists(st.integers(1, 8), min_size=1, max_size=3))
        doc, layout = {"kind": "gcn", "dims": dims}, gcn_layout(dims)
    else:
        hidden = draw(st.integers(5, 8))
        doc = {"kind": "gated", "dims": [FEATURE_DIM, hidden], "steps": draw(st.integers(1, 3))}
        layout = gated_layout(hidden)
    finite = st.floats(allow_nan=False, allow_infinity=False)
    doc["params"] = [
        draw(arrays(np.float64, math.prod(shape), elements=finite)).tolist() for _, shape in layout
    ]
    return json.dumps({**doc, "schema_version": 1}, sort_keys=True, allow_nan=False) + "\n"


@settings(max_examples=60, deadline=None)
@given(checkpoint_texts())
def test_checkpoint_reads_and_writes_back_byte_for_byte(text):
    assert model_to_json(model_from_json(text)) == text


@pytest.mark.parametrize(
    "path",
    ["tests/data/counter.json", "tests/data/hunter.json",
     "benchmarks/goldens/counter.json", "benchmarks/goldens/hunter.json"],
)  # fmt: skip
def test_committed_checkpoint_reads_and_writes_back_byte_for_byte(path):
    text = (ROOT / path).read_text()
    assert model_to_json(model_from_json(text)) == text
