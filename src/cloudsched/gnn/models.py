"""Graph network scorers: a plain GCN and a gated recurrent baseline.

Both map a state graph to node embeddings and share a linear readout
that scores a (VM, PM) node pair; the scheduler treats that score as
predicted incremental energy and takes the argmin.  Everything is dense
numpy: the graphs here stay well under a hundred nodes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from ..errors import DomainError, ShapeError, TraceFormatError
from .graph import FEATURE_DIM, ClusterPartition, StateGraph, _normalize


def _glorot(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


@dataclass
class GcnModel:
    """Stacked graph convolutions (ReLU, identity on last) + pair readout.

    The readout scores [h_vm ; x_vm ; h_pm ; x_pm]: raw node features ride
    along with the convolved embeddings because on an equal-degree PM
    clique the normalized propagation gives every PM the same embedding
    (the self-loop weight equals the neighbour weight, so a node's own
    features cancel out of its row), and the scorer could no longer tell
    a powered-on PM from a powered-off one.
    """

    weights: list[np.ndarray]
    biases: list[np.ndarray]
    readout_w: np.ndarray  # (2 * (embedding_dim + feature_dim), 1)
    readout_b: np.ndarray  # (1,)
    kind: str = field(default="gcn", init=False)

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple([self.weights[0].shape[0]] + [w.shape[1] for w in self.weights])

    def parameters(self) -> list[tuple[str, np.ndarray]]:
        params = []
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            params.append((f"W{i}", w))
            params.append((f"b{i}", b))
        params.append(("readout_w", self.readout_w))
        params.append(("readout_b", self.readout_b))
        return params


@dataclass
class GatedModel:
    """GRU-gated message passing unrolled for a fixed number of steps."""

    w_msg: np.ndarray  # (hidden, hidden)
    w_z: np.ndarray
    u_z: np.ndarray
    b_z: np.ndarray
    w_r: np.ndarray
    u_r: np.ndarray
    b_r: np.ndarray
    w_c: np.ndarray
    u_c: np.ndarray
    b_c: np.ndarray
    steps: int
    readout_w: np.ndarray
    readout_b: np.ndarray
    kind: str = field(default="gated", init=False)

    def __post_init__(self):
        if self.steps < 1:
            raise DomainError("propagation steps must be >= 1")

    @property
    def hidden(self) -> int:
        return self.w_msg.shape[0]

    def parameters(self) -> list[tuple[str, np.ndarray]]:
        return [
            ("w_msg", self.w_msg),
            ("w_z", self.w_z),
            ("u_z", self.u_z),
            ("b_z", self.b_z),
            ("w_r", self.w_r),
            ("u_r", self.u_r),
            ("b_r", self.b_r),
            ("w_c", self.w_c),
            ("u_c", self.u_c),
            ("b_c", self.b_c),
            ("readout_w", self.readout_w),
            ("readout_b", self.readout_b),
        ]


def new_gcn_model(seed: int, dims: Sequence[int] = (FEATURE_DIM, 16, 16)) -> GcnModel:
    rng = np.random.default_rng(seed)
    weights = [_glorot(rng, dims[i], dims[i + 1]) for i in range(len(dims) - 1)]
    biases = [np.zeros(dims[i + 1]) for i in range(len(dims) - 1)]
    readout_w = _glorot(rng, 2 * (dims[-1] + dims[0]), 1)
    return GcnModel(weights=weights, biases=biases, readout_w=readout_w, readout_b=np.zeros(1))


def new_gated_model(seed: int, hidden: int = 16, steps: int = 2) -> GatedModel:
    rng = np.random.default_rng(seed)
    g = lambda: _glorot(rng, hidden, hidden)
    model = GatedModel(
        w_msg=g(),
        w_z=g(), u_z=g(), b_z=np.zeros(hidden),
        w_r=g(), u_r=g(), b_r=np.zeros(hidden),
        w_c=g(), u_c=g(), b_c=np.zeros(hidden),
        steps=steps,
        readout_w=_glorot(rng, 2 * (hidden + FEATURE_DIM), 1),
        readout_b=np.zeros(1),
    )
    return model


def restrict_graph(
    graph: StateGraph, partition: ClusterPartition, clusters: int | Iterable[int]
) -> tuple[list[int], np.ndarray, np.ndarray]:
    """Sub-select nodes of the given cluster(s), keeping intra-cluster edges only.

    Returns (node indices in original order, features, masked adjacency).
    """
    if isinstance(clusters, int):
        selected = {clusters}
    else:
        selected = set(clusters)
    nodes = [i for i in range(graph.n_nodes) if partition.cluster_of[i] in selected]
    if not nodes:
        raise DomainError(f"no nodes in clusters {sorted(selected)}")
    feats = graph.features[nodes]
    adj = graph.adjacency[np.ix_(nodes, nodes)].copy()
    for a, i in enumerate(nodes):
        for b, j in enumerate(nodes):
            if partition.cluster_of[i] != partition.cluster_of[j]:
                adj[a, b] = 0.0
    return nodes, feats, adj


def _check_feature_dim(model, graph: StateGraph):
    d = graph.features.shape[1]
    if isinstance(model, GcnModel):
        expected = model.weights[0].shape[0]
        if d != expected:
            raise ShapeError(f"graph features have dim {d}, model expects {expected}")
    elif d > model.hidden:
        raise ShapeError(f"cannot pad {d} features into hidden size {model.hidden}")


def gcn_layers(model: GcnModel, a_hat: np.ndarray, feats: np.ndarray):
    """Run all layers with caches: returns (activations list, pre-activations list)."""
    if feats.shape[1] != model.weights[0].shape[0]:
        raise ShapeError(
            f"features dim {feats.shape[1]} != first layer dim {model.weights[0].shape[0]}"
        )
    hs = [feats]
    zs = []
    last = len(model.weights) - 1
    for layer, (w, b) in enumerate(zip(model.weights, model.biases)):
        z = a_hat @ hs[-1] @ w + b
        zs.append(z)
        hs.append(np.maximum(z, 0.0) if layer < last else z)
    return hs, zs


def gcn_forward(
    model: GcnModel,
    graph: StateGraph,
    restrict_to: tuple[ClusterPartition, int | Iterable[int]] | None = None,
) -> np.ndarray:
    """Node embeddings; with `restrict_to`, rows cover the selected clusters only."""
    _check_feature_dim(model, graph)
    if restrict_to is None:
        feats, adj = graph.features, graph.adjacency
    else:
        partition, clusters = restrict_to
        _, feats, adj = restrict_graph(graph, partition, clusters)
    a_hat = _normalize(adj)
    hs, _ = gcn_layers(model, a_hat, feats)
    return hs[-1]


def pad_features(feats: np.ndarray, hidden: int) -> np.ndarray:
    padded = np.zeros((feats.shape[0], hidden))
    padded[:, : feats.shape[1]] = feats
    return padded


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-x))


def gated_steps(model: GatedModel, a_hat: np.ndarray, h0: np.ndarray):
    """Unroll the GRU propagation, caching per-step tensors for backprop."""
    caches = []
    h = h0
    for _ in range(model.steps):
        m = a_hat @ h @ model.w_msg
        z = _sigmoid(m @ model.w_z + h @ model.u_z + model.b_z)
        r = _sigmoid(m @ model.w_r + h @ model.u_r + model.b_r)
        c = np.tanh(m @ model.w_c + (r * h) @ model.u_c + model.b_c)
        h_next = (1.0 - z) * h + z * c
        caches.append({"h_prev": h, "m": m, "z": z, "r": r, "c": c})
        h = h_next
    return h, caches


def gated_forward(model: GatedModel, graph: StateGraph) -> np.ndarray:
    """Node embeddings after K gated propagation rounds over the full graph."""
    _check_feature_dim(model, graph)
    a_hat = _normalize(graph.adjacency)
    h0 = pad_features(graph.features, model.hidden)
    h, _ = gated_steps(model, a_hat, h0)
    return h


def embed(model: GcnModel | GatedModel, graph: StateGraph) -> np.ndarray:
    if isinstance(model, GcnModel):
        return gcn_forward(model, graph)
    return gated_forward(model, graph)


def pair_vector(
    h: np.ndarray, feats: np.ndarray, vm_pos: int, pm_pos: int
) -> np.ndarray:
    """Readout input: [h_vm ; x_vm ; h_pm ; x_pm]."""
    return np.concatenate([h[vm_pos], feats[vm_pos], h[pm_pos], feats[pm_pos]])


def readout_score(model, pair: np.ndarray) -> float:
    return float(pair @ model.readout_w[:, 0] + model.readout_b[0])


def score_placements(
    model: GcnModel | GatedModel, graph: StateGraph, vm_node: int
) -> dict[int, float]:
    """Score every PM connected to the VM node; unconnected PMs are omitted."""
    if not 0 <= vm_node < graph.n_nodes or graph.kinds[vm_node] != "vm":
        raise DomainError(f"node {vm_node} is not a VM node")
    h = embed(model, graph)
    scores: dict[int, float] = {}
    for pm_node in graph.pm_nodes():
        if graph.adjacency[vm_node, pm_node]:
            pair = pair_vector(h, graph.features, vm_node, pm_node)
            scores[pm_node] = readout_score(model, pair)
    return scores


# Checkpoint format: parameters are flattened row-major in the order given
# by Model.parameters() (layer weights/biases in depth order, then readout).
CHECKPOINT_SCHEMA = 1


def model_to_json(model: GcnModel | GatedModel) -> str:
    doc = {
        "schema_version": CHECKPOINT_SCHEMA,
        "kind": model.kind,
        "params": [arr.reshape(-1).tolist() for _, arr in model.parameters()],
    }
    if isinstance(model, GcnModel):
        doc["dims"] = list(model.dims)
    else:
        doc["dims"] = [FEATURE_DIM, model.hidden]
        doc["steps"] = model.steps
    return json.dumps(doc, sort_keys=True) + "\n"


def _checkpoint_field(doc: dict, key: str):
    if key not in doc:
        raise TraceFormatError(f"checkpoint has no {key!r}")
    return doc[key]


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _positive_int(value, key: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool) or value < 1:
        raise TraceFormatError(f"checkpoint {key!r} must hold positive integers")
    return value


def model_from_json(text: str | bytes) -> GcnModel | GatedModel:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise TraceFormatError(f"invalid checkpoint JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise TraceFormatError("checkpoint must be a JSON object")
    if doc.get("schema_version") != CHECKPOINT_SCHEMA:
        raise TraceFormatError(f"unsupported checkpoint schema {doc.get('schema_version')!r}")
    kind = doc.get("kind")
    if kind not in ("gcn", "gated"):
        raise TraceFormatError(f"unknown model kind {kind!r}")
    dims = _checkpoint_field(doc, "dims")
    if not isinstance(dims, list) or len(dims) < 2:
        raise TraceFormatError("checkpoint 'dims' must list at least two sizes")
    dims = [_positive_int(d, "dims") for d in dims]
    if kind == "gcn":
        model = new_gcn_model(seed=0, dims=tuple(dims))
    else:
        steps = _positive_int(_checkpoint_field(doc, "steps"), "steps")
        model = new_gated_model(seed=0, hidden=dims[1], steps=steps)
    params = _checkpoint_field(doc, "params")
    if not isinstance(params, list):
        raise TraceFormatError("checkpoint 'params' must be a list of arrays")
    names = [name for name, _ in model.parameters()]
    if len(params) != len(names):
        raise TraceFormatError(
            f"checkpoint has {len(params)} parameter arrays, expected {len(names)}"
        )
    for (name, arr), values in zip(model.parameters(), params):
        if not isinstance(values, list) or not all(_is_number(v) for v in values):
            raise TraceFormatError(f"parameter {name!r} must be a list of numbers")
        flat = np.asarray(values, dtype=float)
        if flat.size != arr.size:
            raise TraceFormatError(f"parameter {name!r} has {flat.size} values, expected {arr.size}")
        if not np.isfinite(flat).all():
            raise TraceFormatError(f"parameter {name!r} has non-finite values")
        arr[...] = flat.reshape(arr.shape)
    return model


def save_model(model: GcnModel | GatedModel, path) -> None:
    from ..util import atomic_write_text

    atomic_write_text(path, model_to_json(model))


def load_model(path) -> GcnModel | GatedModel:
    with open(path, "r", encoding="utf-8") as fh:
        return model_from_json(fh.read())
