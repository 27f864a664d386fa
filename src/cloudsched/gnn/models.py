"""Graph network scorers: a plain GCN and a gated recurrent baseline.

Both map a state graph to node embeddings and share a linear readout
that scores a (VM, PM) node pair; the scheduler treats that score as
predicted incremental energy and takes the argmin.  A state graph has
one node per PM plus the request.  Training runs on dense graphs;
scoring builds no graph and no n x n array, since the normalised
adjacency has only three distinct rows (`score_placements`).  Each network's
parameters are stated once, as a (name, shape) layout that its views,
first draw and checkpoint reader and writer all follow.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from typing import Iterable, Sequence

import numpy as np

from ..errors import DomainError, ShapeError, TraceFormatError
from ..util import parse_file, parse_json
from .graph import FEATURE_DIM, ClusterPartition, StateGraph


def _views(flat: np.ndarray, shapes) -> list[np.ndarray]:
    """Consecutive views of `flat`, one per shape, in order."""
    views, start = [], 0
    for shape in shapes:
        size = math.prod(shape)
        views.append(flat[start : start + size].reshape(shape))
        start += size
    return views


def _size(shapes) -> int:
    """How many elements `_views` spans for these shapes."""
    return sum(map(math.prod, shapes))


Layout = list[tuple[str, tuple[int, ...]]]


def _readout(embedding: int) -> Layout:
    """The pair readout over [h_vm ; x_vm ; h_pm ; x_pm] (`pair_segments`)."""
    return [("readout_w", (2 * (embedding + FEATURE_DIM), 1)), ("readout_b", (1,))]


def pair_segments(pair: np.ndarray) -> tuple[np.ndarray, ...]:
    """Views of a readout-long vector's h_vm, x_vm, h_pm and x_pm segments."""
    half, f = len(pair) // 2, FEATURE_DIM
    return pair[: half - f], pair[half - f : half], pair[half:-f], pair[-f:]


def gcn_layout(dims: Sequence[int]) -> Layout:
    """(name, shape) of every GCN parameter, in `flat` and checkpoint order."""
    layout = []
    for i, (fan_in, fan_out) in enumerate(zip(dims, dims[1:])):
        layout += [(f"W{i}", (fan_in, fan_out)), (f"b{i}", (fan_out,))]
    return layout + _readout(dims[-1])


def gated_layout(hidden: int) -> Layout:
    """(name, shape) of every gated parameter, in `flat` and checkpoint order."""
    square, gates = (hidden, hidden), []
    for gate in "zrc":
        gates += [(f"w_{gate}", square), (f"u_{gate}", square), (f"b_{gate}", (hidden,))]
    return [("w_msg", square)] + gates + _readout(hidden)


def _first_draw(seed: int, layout: Layout) -> np.ndarray:
    """A new `flat`: Glorot-uniform for each matrix and zeros for each vector, in layout order."""
    rng = np.random.default_rng(seed)
    flat = np.zeros(_size(shape for _, shape in layout))
    for (_, shape), view in zip(layout, _views(flat, [shape for _, shape in layout])):
        if len(shape) == 2:
            limit = np.sqrt(6.0 / sum(shape))
            view[...] = rng.uniform(-limit, limit, size=shape)
    return flat


class _Network:
    """A network whose parameters are views of one float64 vector, `flat`.

    `_bind` makes one view per layout entry, an attribute of the entry's
    name, and `w_hv`, `w_xv`, `w_hp` and `w_xp`, the readout weights of
    each pair segment; `parameters()` lists the entries in layout (and
    checkpoint) order.  Copy a model with `copy()` (which re-binds the
    views), not `copy.deepcopy`.
    """

    def _bind(self, layout: Layout) -> list[np.ndarray]:
        views = _views(self.flat, [shape for _, shape in layout])
        self._parameters = [(name, view) for (name, _), view in zip(layout, views)]
        self.__dict__.update(self._parameters)
        self.w_hv, self.w_xv, self.w_hp, self.w_xp = pair_segments(self.readout_w[:, 0])
        return views

    def parameters(self) -> list[tuple[str, np.ndarray]]:
        return list(self._parameters)

    def with_flat(self, flat: np.ndarray):
        """A model of the same shape over another parameter vector."""
        return replace(self, flat=flat)

    def copy(self):
        return self.with_flat(self.flat.copy())


@dataclass(eq=False)
class GcnModel(_Network):
    """Stacked graph convolutions (ReLU, identity on last) + pair readout.

    The readout scores [h_vm ; x_vm ; h_pm ; x_pm]: raw node features ride
    along with the convolved embeddings because on the PM clique the
    normalized propagation gives every PM the request fits the same
    embedding (the self-loop weight equals the neighbour weight, so a
    node's own features cancel out of its row): the candidates are
    ranked by their raw features alone, times `w_xp`.

    `flat` follows `gcn_layout(dims)`: W0, b0, W1, b1, ..., readout_w,
    readout_b; `weights` and `biases` list the layers' views.
    """

    dims: tuple[int, ...]
    flat: np.ndarray
    kind: str = field(default="gcn", init=False)

    def __post_init__(self):
        if self.dims[0] != FEATURE_DIM:
            raise ShapeError(f"first layer dim {self.dims[0]} != features dim {FEATURE_DIM}")
        views = self._bind(gcn_layout(self.dims))
        self.weights, self.biases = views[0:-2:2], views[1:-2:2]


@dataclass(eq=False)
class GatedModel(_Network):
    """GRU-gated message passing unrolled for a fixed number of steps.

    `flat` follows `gated_layout(hidden)`: w_msg, then one [w_g, u_g, b_g]
    block per gate g in z, r, c order, then the readout.  The blocks are
    equally long, so `gates` (3, 2 hidden**2 + hidden) holds them as rows,
    and `W`, `U` (3, hidden, hidden) and `B` (3, hidden) stack the three
    gates as strided views of `flat` too, so one batched product covers
    all of them.
    """

    hidden: int
    steps: int
    flat: np.ndarray
    kind: str = field(default="gated", init=False)

    def __post_init__(self):
        if self.steps < 1:
            raise DomainError("propagation steps must be >= 1")
        if self.hidden < FEATURE_DIM:
            raise ShapeError(f"cannot pad {FEATURE_DIM} features into hidden size {self.hidden}")
        self._bind(gated_layout(self.hidden))
        h = self.hidden
        self.gates = self.flat[h * h : -self.readout_w.size - 1].reshape(3, -1)
        self.W, self.U, self.B = _gate_views(self.gates, h)

    @property
    def dims(self) -> tuple[int, int]:  # as a checkpoint states them
        return (FEATURE_DIM, self.hidden)


def new_gcn_model(seed: int, dims: Sequence[int] = (FEATURE_DIM, 16, 16)) -> GcnModel:
    return GcnModel(tuple(dims), _first_draw(seed, gcn_layout(dims)))


def new_gated_model(seed: int, hidden: int = 16, steps: int = 2) -> GatedModel:
    return GatedModel(hidden, steps, _first_draw(seed, gated_layout(hidden)))


def restrict_graph(
    graph: StateGraph, partition: ClusterPartition, clusters: Iterable[int]
) -> tuple[list[int], np.ndarray, np.ndarray]:
    """Sub-select nodes of the given clusters, keeping intra-cluster edges only.

    Returns (node indices in original order, features, masked adjacency).
    """
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

    Layer l writes `zs[l]` = ahs[l] @ W_l + b_l and, below the last layer,
    `hs[l]` = relu(zs[l]) and `ahs[l + 1]` = a_hat @ hs[l]; the last
    layer's output is `zs[-1]`, which is also `hs[-1]`.  `ahs[0]` is the
    caller's a_hat @ feats.  A set is reused for every forward on graphs
    of its node count, so what it returns is overwritten by the next one.
    """

    def __init__(self, model: GcnModel, n: int):
        hidden = model.dims[1:-1]
        self.zs = [np.empty((n, k)) for k in model.dims[1:]]
        self.hs = [np.empty((n, k)) for k in hidden] + self.zs[-1:]
        self.ahs = [None] + [np.empty((n, k)) for k in hidden]


def gcn_layers(model: GcnModel, a_hat: np.ndarray, a_feats: np.ndarray, buffers=None):
    """Run all layers with caches: returns (activations, propagated, pre-activations).

    `a_feats` is a_hat @ feats, the first layer's propagated input.  Every
    array is written into `buffers` (a fresh `GcnBuffers` when None) with
    the same products and sums as the out-of-place expressions, so the
    results are bit-identical to them.
    """
    b = GcnBuffers(model, a_feats.shape[0]) if buffers is None else buffers
    hs, ahs, zs = b.hs, b.ahs, b.zs
    ahs[0] = a_feats
    last = len(zs) - 1
    for layer, (w, bias) in enumerate(zip(model.weights, model.biases)):
        z = np.dot(ahs[layer], w, out=zs[layer])
        z += bias
        if layer < last:
            np.maximum(z, 0.0, out=hs[layer])
            np.dot(a_hat, hs[layer], out=ahs[layer + 1])
    return hs, ahs, zs


def pad_features(feats: np.ndarray, hidden: int) -> np.ndarray:
    padded = np.zeros((feats.shape[0], hidden))
    padded[:, : feats.shape[1]] = feats
    return padded


def _sigmoid_of_negated_in_place(x: np.ndarray) -> np.ndarray:
    """x <- 1 / (1 + exp(x)): the sigmoid of -x, the out-of-place form's operations."""
    np.exp(x, out=x)
    x += 1.0
    return np.divide(1.0, x, out=x)


# Each gate row's sign in a `GatedBuffers` gate block: the z and r gates'
# weights and biases are negated there, the candidate gate's are not.
GATE_SIGNS = np.array([[-1.0], [-1.0], [1.0]])


def _gate_views(gates: np.ndarray, h: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """W, U (3, h, h) and B (3, h): views of a (3, 2 h**2 + h) gate block's rows."""
    return (
        gates[:, : h * h].reshape(3, h, h),
        gates[:, h * h : 2 * h * h].reshape(3, h, h),
        gates[:, 2 * h * h :],
    )


def flip_gates(model: GatedModel, out: np.ndarray | None = None) -> np.ndarray:
    """The model's gate block times `GATE_SIGNS`, into `out` when given."""
    return np.multiply(model.gates, GATE_SIGNS, out=out)


class GatedBuffers:
    """The arrays one gated forward writes, sized for n-node graphs.

    Step k writes its own `a_hat @ h`, m, m @ W (3 gates, whose planes
    then become the gates z, r and c), 1 - [z, r], r * h and next state,
    so every step's cache survives until the backward reads it.  All of
    them are planes of one block, allocated at once, and the slices each
    step reads are taken here once.  A set is reused for every forward on
    graphs of its node count, so what it returns is overwritten by the
    next one.  The block is a view of `memory` (`size(model, n)`
    elements, allocated when not given).

    The forward reads the gate parameters from `gates`, the model's gate
    block times `GATE_SIGNS` (`flip_gates`; a copy made here when not
    given), through the views `W`, `u_zr`, `b_zr`, `u_c` and `b_c`.  So
    the z and r planes hold minus the pre-activation, and the sigmoid
    takes exp of it with no negation.  Negation is exact and commutes
    with round-to-nearest, FMA included, and where it flips a zero's
    sign, exp(+0) = exp(-0) = 1: every gate is bit for bit the unflipped
    form's.  `biases`, when given, holds each gate's bias from `gates` in
    every one of n rows, (3, n, hidden), and the biases are added from
    it: an add of equal shapes costs under half a broadcast one at 65
    rows.  Without it they broadcast from `gates`.
    """

    def __init__(
        self,
        model: GatedModel,
        n: int,
        memory: np.ndarray | None = None,
        gates: np.ndarray | None = None,
        biases: np.ndarray | None = None,
    ):
        self.gates = flip_gates(model) if gates is None else gates
        self.W, u, b = _gate_views(self.gates, model.hidden)
        biases = b[:, None] if biases is None else biases
        self.u_zr, self.b_zr, self.u_c, self.b_c = u[:2], biases[:2], u[2], biases[2]
        # Planes: h @ u_zr (2), (r * h) @ u_c, z * c, then 9 per step:
        # a_hat @ h, m, m @ W -> [z, r, c] (3), 1 - [z, r] (2), r * h, next h.
        shape = self.shape(model, n)
        if memory is None:
            memory = np.empty(math.prod(shape))
        block = memory[: math.prod(shape)].reshape(shape)
        self.hu, self.rhu, self.zc = block[0:2], block[2], block[3]
        self.steps = [
            (block[i], block[i + 1], block[i + 2 : i + 5], block[i + 2 : i + 4], block[i + 2],
             block[i + 3], block[i + 4], block[i + 5 : i + 7], block[i + 5], block[i + 7], block[i + 8])
            for i in range(4, len(block), 9)
        ]  # fmt: skip

    @staticmethod
    def shape(model: GatedModel, n: int) -> tuple[int, int, int]:
        return (4 + 9 * model.steps, n, model.hidden)

    @classmethod
    def size(cls, model: GatedModel, n: int) -> int:
        return math.prod(cls.shape(model, n))


def _gru_update(b: GatedBuffers, h: np.ndarray, step: tuple) -> np.ndarray:
    """One GRU update of every node's state h into `step`, whose [z, r, c] planes hold m @ b.W.

    Each gate's pre-activation (minus it, for z and r) is summed into its
    plane, the sigmoid and tanh run in place, and (1 - z) * h + z * c is
    two products and one in-place add, the same operations as the
    out-of-place expressions.  Returns the next state, the step's last
    plane.
    """
    _, _, _, zr, z, r, c, omz, omz_z, rh, h_next = step
    np.matmul(h, b.u_zr, out=b.hu)
    zr += b.hu
    zr += b.b_zr
    _sigmoid_of_negated_in_place(zr)
    np.subtract(1.0, zr, out=omz)
    np.multiply(r, h, out=rh)
    c += np.dot(rh, b.u_c, out=b.rhu)
    c += b.b_c
    np.tanh(c, out=c)
    np.multiply(omz_z, h, out=h_next)
    h_next += np.multiply(z, c, out=b.zc)
    return h_next


def gated_steps(model: GatedModel, a_hat: np.ndarray, h0: np.ndarray, a_h0=None, buffers=None):
    """Unroll the GRU propagation, caching per-step tensors for backprop.

    One batched product gives m @ w_g for all three gates and another
    h @ u_g for z and r; each slice is the same matrix product as an
    unstacked gate, so the results are too.  Every product, sum, gate
    and state is written into `buffers` (a fresh `GatedBuffers` when
    None) by `_gru_update`, which reads the set's gate block: a given
    set's must hold `model`'s gates times `GATE_SIGNS`.  A gate whose
    pre-activation is so negative that exp(-x) overflows saturates at
    1 / (1 + inf) = 0, the right value, so the overflow is not reported.
    `a_h0`, when given, is a_hat @ h0.
    Returns (last state, caches), one cache per step:
    (h_prev, a_hat @ h_prev, m, [z, r], 1 - [z, r], r * h_prev, c).
    """
    b = GatedBuffers(model, h0.shape[0]) if buffers is None else buffers
    caches = []
    h = h0
    with np.errstate(over="ignore"):
        for k, step in enumerate(b.steps):
            ah, m, mw, zr, _, _, c, omz, _, rh, _ = step
            if k or a_h0 is None:
                np.dot(a_hat, h, out=ah)
            else:
                ah = a_h0
            np.dot(ah, model.w_msg, out=m)
            np.matmul(m, b.W, out=mw)
            h_next = _gru_update(b, h, step)
            caches.append((h, ah, m, zr, omz, rh, c))
            h = h_next
    return h, caches


def _a_hat_by_kind(n: int, k: int) -> np.ndarray:
    """`a_hat`'s entry for each (row, column) pair of node kinds, on n PMs with k candidates.

    The kinds are 0, a PM the request does not fit; 1, one it fits; and
    2, the request.
    """
    s0, s1, sv = 1.0 / math.sqrt(n), 1.0 / math.sqrt(n + 1), 1.0 / math.sqrt(1 + k)
    return np.array([[s0 * s0, s0 * s1, 0], [s1 * s0, s1 * s1, s1 * sv], [0, sv * s1, sv * sv]])


class ScoringWorkspace:
    """Every array `score_placements` writes for a gated model, on up to `pm_count` PMs.

    A graph of n PMs is scored in its node kinds, its three `a_hat` rows,
    the three-row messages (a_hat @ h, m, m @ W), the `GatedBuffers` of
    n + 1 rows and the zero-padded input.  The floats are segments of one
    zeroed block sized for `pm_count`, O(PMs x hidden), with two more
    for the model's sign-flipped gate block (`flip_gates`) and its
    biases spread over every row, made here once: a workspace scores
    its model as it was when the workspace was built.
    Each n gets its own views of the segments, so the float memory does
    not grow with the sizes seen, and its own node kinds, whose request
    entry is written once.  The padded rows are `hidden` wide at every
    n, so their columns past the features stay zero.  `by_kind` keeps
    each (n, candidate count)'s `_a_hat_by_kind`.
    """

    def __init__(self, model: GatedModel, pm_count: int):
        self.model, self.pm_count = model, pm_count
        nodes, e = pm_count + 1, model.hidden
        buffers = (GatedBuffers.size(model, nodes),)
        shapes = [(3 * nodes,), (5, 3, e), buffers, (nodes * e,), model.gates.shape, (3, nodes, e)]
        self._segments = _views(np.zeros(_size(shapes)), shapes)
        *_, gates, biases = self._segments
        flip_gates(model, out=gates)
        np.copyto(biases, _gate_views(gates, e)[2][:, None])
        self._sized: dict[int, tuple] = {}
        self._by_kind: dict[tuple[int, int], np.ndarray] = {}

    def views(self, n: int) -> tuple:
        """(node kinds, `a_hat` rows, messages, `GatedBuffers`, padded input) for n PMs."""
        sized = self._sized.get(n)
        if sized is None:
            if n > self.pm_count:
                raise ShapeError(f"a workspace for {self.pm_count} PMs cannot score {n}")
            nodes, hidden = n + 1, self.model.hidden
            a_rows, messages, buffers, padded, gates, biases = self._segments
            kinds = np.empty(nodes, dtype=np.intp)
            kinds[n] = 2
            sized = self._sized[n] = (
                kinds,
                a_rows[: 3 * nodes].reshape(3, nodes),
                messages,
                GatedBuffers(self.model, nodes, buffers, gates, biases[:, :nodes]),
                padded[: nodes * hidden].reshape(nodes, hidden),
            )
        return sized

    def by_kind(self, n: int, k: int) -> np.ndarray:
        """`_a_hat_by_kind(n, k)`, made on first use; the caller must not write it."""
        table = self._by_kind.get((n, k))
        if table is None:
            table = self._by_kind[n, k] = _a_hat_by_kind(n, k)
        return table


def score_placements(
    model: GcnModel | GatedModel,
    feats: np.ndarray,
    candidates: np.ndarray,
    workspace: ScoringWorkspace | None = None,
) -> np.ndarray:
    """Score each candidate PM row for one request, in the order of `candidates`.

    `feats` is `WorkingFeatures(snapshot, prices).for_request(request)`:
    one row per PM, then the request's.  `candidates` holds the ascending
    rows of the PMs that fit the request.  No graph is built: on a PM
    clique plus the request's star, a node's row of `a_hat` depends only
    on its kind (PM the request does not fit, PM it fits, request), so
    a_hat @ X is three rows, gathered to the nodes by kind.  The GCN runs
    every layer on them (after the first, the nodes of one kind share a
    state, so propagation is 3 x 3: s_r * s_t * count of kind t), in
    fresh arrays of a few floats each.  The gated model's messages take
    three rows, its GRU update every node, all written into `workspace`
    (for at least n PMs; a fresh one when None).  The readout's term
    shared by every candidate is summed in Python floats, the same
    additions in the same order as in float64 scalars.  The scores equal
    the dense forward's to rounding, and are a new array.
    """
    n, k = feats.shape[0] - 1, len(candidates)
    if isinstance(model, GcnModel):
        kinds, a_rows = np.empty(n + 1, dtype=np.intp), np.empty((3, n + 1))
        kinds[n] = 2
        by_kind = _a_hat_by_kind(n, k)
    else:
        if workspace is None:
            workspace = ScoringWorkspace(model, n)
        kinds, a_rows, messages, buffers, h = workspace.views(n)
        by_kind = workspace.by_kind(n, k)
    kinds[:n] = 0
    kinds[candidates] = 1
    by_kind.take(kinds, 1, a_rows, "clip")
    if isinstance(model, GcnModel):
        by_kind *= (n - k, k, 1)
        hs, _, _ = gcn_layers(model, by_kind, np.dot(a_rows, feats))
        h_vm, h_pm = hs[-1][2], hs[-1][1]
    else:
        h[:, : feats.shape[1]] = feats
        ah, m, mw = messages[0], messages[1], messages[2:]
        with np.errstate(over="ignore"):
            for step in buffers.steps:
                np.dot(a_rows, h, out=ah)
                np.dot(ah, model.w_msg, out=m)
                np.matmul(m, buffers.W, out=mw)
                mw.take(kinds, 1, step[2], "clip")
                h = _gru_update(buffers, h, step)
        h_vm, h_pm = h[n], h.take(candidates, 0)
    scores = feats.take(candidates, 0).dot(model.w_xp)
    scores += h_pm.dot(model.w_hp)
    scores += float(h_vm.dot(model.w_hv)) + float(feats[n].dot(model.w_xv)) + model.readout_b.item()
    return scores


# Checkpoint format: `dims` (and a gated model's `steps`) size the network;
# `params` holds one row-major array per layout entry, in layout order.
CHECKPOINT_SCHEMA = 1
# A gated model runs `steps` propagation rounds for every scored request,
# so a checkpoint asking for more than this is rejected as corrupt.
MAX_GATED_STEPS = 64


def model_to_json(model: GcnModel | GatedModel) -> str:
    doc = {
        "schema_version": CHECKPOINT_SCHEMA,
        "kind": model.kind,
        "dims": list(model.dims),
        "params": [arr.reshape(-1).tolist() for _, arr in model.parameters()],
    }
    if isinstance(model, GatedModel):
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
    if kind == "gcn":
        if dims[0] != FEATURE_DIM:
            raise TraceFormatError(
                f"checkpoint 'dims' start at {dims[0]}, the node features are {FEATURE_DIM} wide"
            )
        layout = gcn_layout(dims)
    else:
        if dims[1] < FEATURE_DIM:
            raise TraceFormatError(
                f"checkpoint hidden size {dims[1]} cannot hold the {FEATURE_DIM} node features"
            )
        if dims != [FEATURE_DIM, dims[1]]:
            raise TraceFormatError(f"gated checkpoint 'dims' {dims} are not [{FEATURE_DIM}, hidden]")
        steps = _positive_int(_checkpoint_field(doc, "steps"), "steps")
        if steps > MAX_GATED_STEPS:
            raise TraceFormatError(f"checkpoint 'steps' is {steps}, at most {MAX_GATED_STEPS}")
        layout = gated_layout(dims[1])
    params = _checkpoint_field(doc, "params")
    if not isinstance(params, list):
        raise TraceFormatError("checkpoint 'params' must be a list of arrays")
    # Checked before any array is built, so the dims cannot make the
    # reader allocate more than the file holds.
    needed = _size(shape for _, shape in layout)
    held = sum(len(values) for values in params if isinstance(values, list))
    if needed > held:
        raise TraceFormatError(f"checkpoint 'dims' need {needed} values, it holds {held}")
    if len(params) != len(layout):
        raise TraceFormatError(f"checkpoint has {len(params)} parameter arrays, not {len(layout)}")
    arrays = []
    for (name, shape), values in zip(layout, params):
        if not isinstance(values, list) or not all(_is_number(v) for v in values):
            raise TraceFormatError(f"parameter {name!r} must be a list of numbers")
        try:
            arr, size = np.asarray(values, dtype=float), math.prod(shape)
        except OverflowError:
            message = f"parameter {name!r} has a value too large for a float"
            raise TraceFormatError(message) from None
        if arr.size != size:
            raise TraceFormatError(f"parameter {name!r} has {arr.size} values, expected {size}")
        if not np.isfinite(arr).all():
            raise TraceFormatError(f"parameter {name!r} has non-finite values")
        arrays.append(arr)
    flat = np.concatenate(arrays)
    return GcnModel(tuple(dims), flat) if kind == "gcn" else GatedModel(dims[1], steps, flat)


def load_model(path) -> GcnModel | GatedModel:
    return parse_file(path, model_from_json)
