"""The paper's hardness constructions as executable instance generators.

Each reduction maps a classical hard problem onto a Secure-View instance (or
a Safe-View question) exactly as in the corresponding proof, so benchmarks
can verify that optima are preserved and tests can exercise the boundary
cases the proofs rely on.

==============================  ==========================================
construction                    paper reference
==============================  ==========================================
set disjointness → Safe-View    Theorem 1 (Ω(N) data-supplier calls)
UNSAT → Safe-View               Theorem 2 (co-NP-hardness)
adaptive oracle adversary       Theorem 3 (2^Ω(k) oracle calls)
set cover → Secure-View         Theorem 5 hardness / Theorem 9
label cover → Secure-View       Theorem 6 (Fig. 4) / Theorem 10 (Fig. 6)
vertex cover → Secure-View      Theorem 7 APX-hardness (Fig. 5)
==============================  ==========================================
"""

from .label_cover import (
    LabelCoverInstance,
    exact_label_cover,
    greedy_label_cover,
    label_cover_to_general_secure_view,
    label_cover_to_set_secure_view,
    random_label_cover,
)
from .oracle_adversary import (
    AdversarialSafeViewOracle,
    candidate_special_sets,
    input_names,
    make_m1,
    make_m2,
    theorem3_costs,
)
from .set_cover import (
    SetCoverInstance,
    exact_set_cover,
    greedy_set_cover,
    random_set_cover,
    set_cover_to_general_secure_view,
    set_cover_to_secure_view,
)
from .set_disjointness import (
    CountingDataSupplier,
    DisjointnessInstance,
    build_disjointness_relation,
    disjointness_schema,
    random_disjointness_instance,
    safe_view_decision,
    safe_view_via_supplier,
)
from .unsat import (
    CNFFormula,
    brute_force_satisfiable,
    random_cnf,
    unsat_safe_view_decision,
    unsat_to_module,
)
from .vertex_cover import (
    VertexCoverInstance,
    exact_vertex_cover,
    greedy_vertex_cover,
    random_cubic_graph,
    vertex_cover_to_secure_view,
)

__all__ = [
    # set cover
    "SetCoverInstance",
    "random_set_cover",
    "greedy_set_cover",
    "exact_set_cover",
    "set_cover_to_secure_view",
    "set_cover_to_general_secure_view",
    # vertex cover
    "VertexCoverInstance",
    "random_cubic_graph",
    "greedy_vertex_cover",
    "exact_vertex_cover",
    "vertex_cover_to_secure_view",
    # label cover
    "LabelCoverInstance",
    "random_label_cover",
    "exact_label_cover",
    "greedy_label_cover",
    "label_cover_to_set_secure_view",
    "label_cover_to_general_secure_view",
    # set disjointness
    "DisjointnessInstance",
    "random_disjointness_instance",
    "CountingDataSupplier",
    "build_disjointness_relation",
    "disjointness_schema",
    "safe_view_decision",
    "safe_view_via_supplier",
    # unsat
    "CNFFormula",
    "random_cnf",
    "brute_force_satisfiable",
    "unsat_to_module",
    "unsat_safe_view_decision",
    # oracle adversary
    "make_m1",
    "make_m2",
    "input_names",
    "theorem3_costs",
    "AdversarialSafeViewOracle",
    "candidate_special_sets",
]
