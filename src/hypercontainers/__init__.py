"""Deterministic hypergraph containers: construction, oracles, verifiers."""

from .core import (
    Hypergraph,
    HypergraphError,
    cmp_log,
    is_bounded,
    is_homogeneous,
    ldeg,
    log_size,
    nabla,
    new_hypergraph,
    vertex_fiber,
)
from .bounded import (
    OracleSizeError,
    greedy_bounded_sub,
    max_bounded_size,
    max_bounded_sub,
)
from .engine import (
    EngineContext,
    NotIndependentError,
    Params,
    PrintDomainError,
    StrictModeError,
    derive_params,
    print_union,
)
from .instances import FormatError, gen_ap, gen_random, read_edge_list, write_edge_list
from .verify import (
    VerificationReport,
    enumerate_independent_sets,
    sample_independent_set,
    sample_independent_sets,
    verify,
)

__all__ = [name for name in dir() if not name.startswith("_")]
