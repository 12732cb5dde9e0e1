import hypercontainers

PUBLIC = [
    "EngineContext", "FormatError", "Hypergraph", "HypergraphError",
    "NotIndependentError", "OracleSizeError", "Params", "PrintDomainError",
    "StrictModeError", "VerificationReport",
    "bounded", "core", "engine", "instances",
    "cmp_log", "counting_bound", "derive_params", "enumerate_independent_sets",
    "gen_ap", "gen_random", "greedy_bounded_sub", "is_bounded",
    "is_homogeneous", "ldeg", "log_size", "max_bounded_size",
    "max_bounded_sub", "max_degree", "nabla", "new_hypergraph", "print_union",
    "read_edge_list", "sample_independent_set", "sample_independent_sets",
    "verify", "vertex_fiber", "write_edge_list",
]


def test_public_names_are_pinned():
    assert sorted(hypercontainers.__all__) == sorted(PUBLIC)
