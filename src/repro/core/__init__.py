"""Core data structures of the Forgiving Graph reproduction.

This package contains the paper's primary contribution:

* :mod:`repro.core.haft` — half-full trees (Section 4),
* :mod:`repro.core.reconstruction_tree` — reconstruction trees with the
  representative mechanism (Section 4.2),
* :mod:`repro.core.forgiving_graph` — the self-healing engine (Sections 2-3),
* :mod:`repro.core.ports` — port / edge identifiers (Table 1),
* :mod:`repro.core.errors` — the exception hierarchy,
* :mod:`repro.core.views` — zero-copy read-only access to healer graphs.
"""

from .errors import (
    ConfigurationError,
    DeletedNodeError,
    DuplicateNodeError,
    ForgivingGraphError,
    HaftStructureError,
    InvalidEdgeError,
    InvariantViolationError,
    ProtocolError,
    UnknownNodeError,
)
from .forgiving_graph import ForgivingGraph, HealingEvent, RepairReport
from .haft import (
    HaftNode,
    binary_decomposition,
    build_haft,
    depth,
    haft_shape_signature,
    is_complete,
    is_haft,
    leaf_count,
    leaves,
    merge,
    primary_roots,
    strip,
    validate_haft,
)
from .ports import NodeId, Port, edge_key, node_order_key, port_order_key, sorted_nodes
from .views import actual_view_of, g_prime_view_of, healer_views
from .reconstruction_tree import (
    DeletionSurvey,
    ReconstructionTree,
    RTHelper,
    RTLeaf,
    RTStrip,
    compute_haft,
    extract_surviving_complete_trees,
    merge_order,
    representative_of,
    strip_walk,
)

__all__ = [
    # errors
    "ForgivingGraphError",
    "UnknownNodeError",
    "DuplicateNodeError",
    "DeletedNodeError",
    "InvalidEdgeError",
    "HaftStructureError",
    "InvariantViolationError",
    "ProtocolError",
    "ConfigurationError",
    # haft
    "HaftNode",
    "build_haft",
    "leaves",
    "leaf_count",
    "depth",
    "is_complete",
    "is_haft",
    "validate_haft",
    "primary_roots",
    "strip",
    "merge",
    "haft_shape_signature",
    "binary_decomposition",
    # ports
    "NodeId",
    "Port",
    "edge_key",
    "node_order_key",
    "port_order_key",
    "sorted_nodes",
    # reconstruction trees
    "ReconstructionTree",
    "RTLeaf",
    "RTHelper",
    "RTStrip",
    "DeletionSurvey",
    "strip_walk",
    "compute_haft",
    "extract_surviving_complete_trees",
    "merge_order",
    "representative_of",
    # engine
    "ForgivingGraph",
    "RepairReport",
    "HealingEvent",
    # views
    "actual_view_of",
    "g_prime_view_of",
    "healer_views",
]
