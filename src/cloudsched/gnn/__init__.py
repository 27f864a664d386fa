"""Graph construction, clustering, network scorers and their training."""

from .graph import (
    ClusterPartition,
    StateGraph,
    build_state_graph,
    normalize_adjacency,
    partition_graph,
)
from .models import (
    GatedModel,
    GcnModel,
    load_model,
    model_from_json,
    model_to_json,
    new_gated_model,
    new_gcn_model,
    restrict_graph,
    score_placements,
)
from .training import (
    TrainConfig,
    TrainSample,
    loss_trace_to_csv,
    train,
)

__all__ = [
    "ClusterPartition",
    "StateGraph",
    "build_state_graph",
    "normalize_adjacency",
    "partition_graph",
    "GatedModel",
    "GcnModel",
    "load_model",
    "model_from_json",
    "model_to_json",
    "new_gated_model",
    "new_gcn_model",
    "restrict_graph",
    "score_placements",
    "TrainConfig",
    "TrainSample",
    "loss_trace_to_csv",
    "train",
]
