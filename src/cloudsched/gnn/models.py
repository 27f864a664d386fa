"""Graph network scorers: a plain GCN and a gated recurrent baseline.

Both map a state graph to node embeddings and share a linear readout
that scores a (VM, PM) node pair; the scheduler treats that score as
predicted incremental energy and takes the argmin.  Everything is dense
numpy.  A scored graph has one node per PM plus the request, so it grows
with the datacenter: 9 nodes in the default 8-PM scenario and the
training samples, 65 at 64 PMs, 129 at 128 PMs.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from ..errors import DomainError, ShapeError, TraceFormatError
from ..util import parse_file, parse_json
from .graph import FEATURE_DIM, ClusterPartition, StateGraph, state_a_hat


def _glorot(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


def _views(flat: np.ndarray, shapes) -> list[np.ndarray]:
    """Consecutive views of `flat`, one per shape, in order."""
    views, start = [], 0
    for shape in shapes:
        size = math.prod(shape)
        views.append(flat[start : start + size].reshape(shape))
        start += size
    return views


@dataclass(eq=False)
class GcnModel:
    """Stacked graph convolutions (ReLU, identity on last) + pair readout.

    The readout scores [h_vm ; x_vm ; h_pm ; x_pm]: raw node features ride
    along with the convolved embeddings because on an equal-degree PM
    clique the normalized propagation gives every PM the same embedding
    (the self-loop weight equals the neighbour weight, so a node's own
    features cancel out of its row), and the scorer could no longer tell
    a powered-on PM from a powered-off one.

    All parameters live in one float64 vector, `flat`, in `parameters()`
    order; every named array is a view into it.  Copy a model with
    `copy()` (which re-binds the views), not `copy.deepcopy`.
    """

    dims: tuple[int, ...]
    flat: np.ndarray
    kind: str = field(default="gcn", init=False)

    def __post_init__(self):
        d = self.dims
        shapes = []
        for i in range(len(d) - 1):
            shapes += [(d[i], d[i + 1]), (d[i + 1],)]
        shapes += [(2 * (d[-1] + d[0]), 1), (1,)]
        views = _views(self.flat, shapes)
        self.weights = views[0:-2:2]
        self.biases = views[1:-2:2]
        self.readout_w, self.readout_b = views[-2:]  # (2 * (embedding + feature dim), 1), (1,)

    def parameters(self) -> list[tuple[str, np.ndarray]]:
        params = []
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            params.append((f"W{i}", w))
            params.append((f"b{i}", b))
        params.append(("readout_w", self.readout_w))
        params.append(("readout_b", self.readout_b))
        return params

    def with_flat(self, flat: np.ndarray) -> "GcnModel":
        """A model of the same shape over another parameter vector."""
        return GcnModel(self.dims, flat)

    def copy(self) -> "GcnModel":
        return self.with_flat(self.flat.copy())


@dataclass(eq=False)
class GatedModel:
    """GRU-gated message passing unrolled for a fixed number of steps.

    `flat` holds w_msg, then one [w_g, u_g, b_g] block per gate g in
    z, r, c order, then the readout.  The blocks are equally long, so
    `W`, `U` (3, hidden, hidden) and `B` (3, hidden) stack the three gates
    as strided views, and one batched product covers all of them.  As for
    `GcnModel`, every named array is a view into `flat`.
    """

    hidden: int
    steps: int
    flat: np.ndarray
    kind: str = field(default="gated", init=False)

    def __post_init__(self):
        if self.steps < 1:
            raise DomainError("propagation steps must be >= 1")
        h = self.hidden
        block = 2 * h * h + h
        self.w_msg = self.flat[: h * h].reshape(h, h)
        gates = self.flat[h * h : h * h + 3 * block].reshape(3, block)
        self.W = gates[:, : h * h].reshape(3, h, h)
        self.U = gates[:, h * h : 2 * h * h].reshape(3, h, h)
        self.B = gates[:, 2 * h * h :]
        self.w_z, self.w_r, self.w_c = self.W
        self.u_z, self.u_r, self.u_c = self.U
        self.b_z, self.b_r, self.b_c = self.B
        self.readout_w, self.readout_b = _views(
            self.flat[h * h + 3 * block :], [(2 * (h + FEATURE_DIM), 1), (1,)]
        )

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

    def with_flat(self, flat: np.ndarray) -> "GatedModel":
        """A model of the same shape over another parameter vector."""
        return GatedModel(self.hidden, self.steps, flat)

    def copy(self) -> "GatedModel":
        return self.with_flat(self.flat.copy())


def _pack(arrays: Sequence[np.ndarray]) -> np.ndarray:
    return np.concatenate([a.reshape(-1) for a in arrays])


def new_gcn_model(seed: int, dims: Sequence[int] = (FEATURE_DIM, 16, 16)) -> GcnModel:
    rng = np.random.default_rng(seed)
    weights = [_glorot(rng, dims[i], dims[i + 1]) for i in range(len(dims) - 1)]
    biases = [np.zeros(dims[i + 1]) for i in range(len(dims) - 1)]
    readout_w = _glorot(rng, 2 * (dims[-1] + dims[0]), 1)
    layers = [a for pair in zip(weights, biases) for a in pair]
    return GcnModel(tuple(dims), _pack(layers + [readout_w, np.zeros(1)]))


def new_gated_model(seed: int, hidden: int = 16, steps: int = 2) -> GatedModel:
    rng = np.random.default_rng(seed)
    w_msg = _glorot(rng, hidden, hidden)
    gates = []
    for _ in range(3):  # z, r, c
        gates += [_glorot(rng, hidden, hidden), _glorot(rng, hidden, hidden), np.zeros(hidden)]
    readout_w = _glorot(rng, 2 * (hidden + FEATURE_DIM), 1)
    return GatedModel(hidden, steps, _pack([w_msg] + gates + [readout_w, np.zeros(1)]))


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
    cluster = np.asarray(partition.cluster_of)[nodes]
    same = cluster[:, None] == cluster[None, :]
    adj = np.where(same, graph.adjacency[np.ix_(nodes, nodes)], 0.0)
    return nodes, feats, adj


class GcnBuffers:
    """The arrays one GCN forward writes, sized for n-node graphs.

    `gcn_layers` fills `ahs[l]` (a_hat @ hs[l]; `ahs[0]` is the caller's
    a_hat @ feats when given, else `a_feats`), `zs[l]` and
    `hs[l + 1] = relu(zs[l])`; the last layer's output is `zs[-1]`
    itself, and `hs[0]` is the input.  A set is reused for every forward
    on graphs of its node count, so what it returns is overwritten by the
    next one.
    """

    def __init__(self, model: GcnModel, n: int):
        d = model.dims
        self.a_feats = np.empty((n, d[0]))
        self.ahs, self.zs, self.hs = [self.a_feats], [], [None]
        for k in d[1:-1]:  # a hidden layer's z, relu(z) and a_hat @ relu(z)
            block = np.empty((3, n, k))
            self.zs.append(block[0])
            self.hs.append(block[1])
            self.ahs.append(block[2])
        self.zs.append(np.empty((n, d[-1])))
        self.hs.append(self.zs[-1])


def gcn_layers(model: GcnModel, a_hat: np.ndarray, feats: np.ndarray, a_feats=None, buffers=None):
    """Run all layers with caches: returns (activations, propagated, pre-activations).

    Layer l maps hs[l] to hs[l + 1] through ahs[l] = a_hat @ hs[l] and
    zs[l] = ahs[l] @ W_l + b_l.  `a_feats`, when given, is a_hat @ feats.
    Every array is written into `buffers` (a fresh `GcnBuffers` when None)
    with the same products and sums as the out-of-place expressions, so
    the results are bit-identical to them.
    """
    if feats.shape[1] != model.weights[0].shape[0]:
        raise ShapeError(
            f"features dim {feats.shape[1]} != first layer dim {model.weights[0].shape[0]}"
        )
    b = GcnBuffers(model, feats.shape[0]) if buffers is None else buffers
    hs, ahs, zs = b.hs, b.ahs, b.zs
    hs[0] = feats
    ahs[0] = np.dot(a_hat, feats, out=b.a_feats) if a_feats is None else a_feats
    last = len(zs) - 1
    for layer, (w, bias) in enumerate(zip(model.weights, model.biases)):
        z = np.dot(ahs[layer], w, out=zs[layer])
        z += bias
        if layer < last:
            np.maximum(z, 0.0, out=hs[layer + 1])
            np.dot(a_hat, hs[layer + 1], out=ahs[layer + 1])
    return hs, ahs, zs


def pad_features(feats: np.ndarray, hidden: int) -> np.ndarray:
    if feats.shape[1] > hidden:
        raise ShapeError(f"cannot pad {feats.shape[1]} features into hidden size {hidden}")
    padded = np.zeros((feats.shape[0], hidden))
    padded[:, : feats.shape[1]] = feats
    return padded


def _sigmoid_in_place(x: np.ndarray) -> np.ndarray:
    """x <- 1 / (1 + exp(-x)), the same operations as the out-of-place form."""
    np.negative(x, out=x)
    np.exp(x, out=x)
    x += 1.0
    return np.divide(1.0, x, out=x)


class GatedBuffers:
    """The arrays one gated forward writes, sized for n-node graphs.

    Step k writes its own `a_hat @ h`, m, m @ W (3 gates, whose planes
    then become the gates z, r and c), 1 - [z, r], r * h and next state,
    so every step's cache survives until the backward reads it.  All of
    them are planes of one block, allocated at once, and the slices each
    step reads are taken here once, as are the views of the stacked z and
    r parameters.  Those stay valid because a model's `flat` is only ever
    updated in place.  A set is reused for every forward on graphs of its
    node count, so what it returns is overwritten by the next one.
    """

    def __init__(self, model: GatedModel, n: int):
        self.u_zr, self.b_zr = model.U[:2], model.B[:2, None]
        # Planes: h @ u_zr (2), (r * h) @ u_c, z * c, then 9 per step:
        # a_hat @ h, m, m @ W -> [z, r, c] (3), 1 - [z, r] (2), r * h, next h.
        block = np.empty((4 + 9 * model.steps, n, model.hidden))
        self.hu, self.rhu, self.zc = block[0:2], block[2], block[3]
        self.steps = [
            (block[i], block[i + 1], block[i + 2 : i + 5], block[i + 2 : i + 4], block[i + 2],
             block[i + 3], block[i + 4], block[i + 5 : i + 7], block[i + 5], block[i + 7], block[i + 8])
            for i in range(4, len(block), 9)
        ]  # fmt: skip


def gated_steps(model: GatedModel, a_hat: np.ndarray, h0: np.ndarray, a_h0=None, buffers=None):
    """Unroll the GRU propagation, caching per-step tensors for backprop.

    One batched product gives m @ w_g for all three gates and another
    h @ u_g for z and r; each slice is the same matrix product as an
    unstacked gate, so the results are too.  Every product, sum, gate
    and state is written into `buffers` (a fresh `GatedBuffers` when
    None): each gate's pre-activation is summed into its m @ w_g plane,
    the sigmoid and tanh run in place, and (1 - z) * h + z * c is two
    products and one in-place add, the same operations as the
    out-of-place expressions.  `a_h0`, when given, is a_hat @ h0.
    Returns (last state, caches), one cache per step:
    (h_prev, a_hat @ h_prev, m, [z, r], 1 - [z, r], r * h_prev, c).
    """
    b = GatedBuffers(model, h0.shape[0]) if buffers is None else buffers
    caches = []
    h = h0
    for step, (ah, m, mw, zr, z, r, c, omz, omz_z, rh, h_next) in enumerate(b.steps):
        if step or a_h0 is None:
            np.dot(a_hat, h, out=ah)
        else:
            ah = a_h0
        np.dot(ah, model.w_msg, out=m)
        np.matmul(m, model.W, out=mw)
        np.matmul(h, b.u_zr, out=b.hu)
        zr += b.hu
        zr += b.b_zr
        _sigmoid_in_place(zr)
        np.subtract(1.0, zr, out=omz)
        np.multiply(r, h, out=rh)
        c += np.dot(rh, model.u_c, out=b.rhu)
        c += model.b_c
        np.tanh(c, out=c)
        np.multiply(omz_z, h, out=h_next)
        h_next += np.multiply(z, c, out=b.zc)
        caches.append((h, ah, m, zr, omz, rh, c))
        h = h_next
    return h, caches


def score_placements(
    model: GcnModel | GatedModel, feats: np.ndarray, candidates: np.ndarray
) -> np.ndarray:
    """Score each candidate PM row for one request, in the order of `candidates`.

    `feats` is the request's state-graph feature matrix,
    `node_features(snapshot, [request], prices)`: one row per PM, then
    the request's; the scheduler keeps it as a `WorkingFeatures` and
    writes only what changed.  `candidates` holds the ascending rows of
    the PMs that fit the request (the VM node's neighbours), so `a_hat`
    is `state_a_hat` of that fits mask, and no graph is built.  The
    forward is training's, in a fresh buffer set per call, so no score
    shares memory with another call's.  The readout takes one row per
    candidate, and one `np.vecdot` reads them
    all out: it takes the same per-row dot product as
    `pair @ readout_w[:, 0]`, so every score is bit-identical to a
    per-pair readout over the graph (the matrix-vector product
    `P @ readout_w` is not).
    """
    n = feats.shape[0] - 1
    fits = np.zeros(n)
    fits[candidates] = 1.0
    a_hat = state_a_hat(fits)
    if isinstance(model, GcnModel):
        hs, _, _ = gcn_layers(model, a_hat, feats)
        h = hs[-1]
    else:
        h, _ = gated_steps(model, a_hat, pad_features(feats, model.hidden))
    n_h, n_x = h.shape[1], feats.shape[1]
    pairs = np.empty((len(candidates), 2 * (n_h + n_x)))
    pairs[:, :n_h] = h[n]
    pairs[:, n_h : n_h + n_x] = feats[n]
    pairs[:, n_h + n_x : 2 * n_h + n_x] = h[candidates]
    pairs[:, 2 * n_h + n_x :] = feats[candidates]
    return np.vecdot(pairs, model.readout_w[:, 0]) + model.readout_b[0]


# Checkpoint format: parameters are flattened row-major in the order given
# by Model.parameters() (layer weights/biases in depth order, then readout).
CHECKPOINT_SCHEMA = 1
# A gated model runs `steps` propagation rounds for every scored request,
# so a checkpoint asking for more than this is rejected as corrupt.
MAX_GATED_STEPS = 64


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
    return json.dumps(doc, sort_keys=True, allow_nan=False) + "\n"


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
    doc = parse_json(text, "checkpoint JSON")
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
    params = _checkpoint_field(doc, "params")
    if not isinstance(params, list):
        raise TraceFormatError("checkpoint 'params' must be a list of arrays")
    # The dims size the model built below, before any parameter is read, so
    # they may not ask for more layer values than the checkpoint holds.
    held = sum(len(values) for values in params if isinstance(values, list))
    if kind == "gcn":
        needed = sum((a + 1) * b for a, b in zip(dims, dims[1:]))
    else:
        steps = _positive_int(_checkpoint_field(doc, "steps"), "steps")
        if steps > MAX_GATED_STEPS:
            raise TraceFormatError(f"checkpoint 'steps' is {steps}, at most {MAX_GATED_STEPS}")
        needed = dims[1] * (7 * dims[1] + 3)
    if needed > held:
        raise TraceFormatError(f"checkpoint 'dims' need {needed} layer values, it holds {held}")
    if kind == "gcn":
        model = new_gcn_model(seed=0, dims=tuple(dims))
    else:
        model = new_gated_model(seed=0, hidden=dims[1], steps=steps)
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


def load_model(path) -> GcnModel | GatedModel:
    return parse_file(path, model_from_json)
