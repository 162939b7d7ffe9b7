"""provenance-views: secure provenance views for module privacy.

A production-quality reproduction of *"Provenance Views for Module Privacy"*
(Davidson, Khanna, Milo, Panigrahi, Roy — PODS 2011).  The library models
scientific workflows as DAGs of modules over finite-domain attributes,
materializes their provenance relations, and solves the **Secure-View**
problem: choose a minimum-cost set of attributes to hide (and, in workflows
with public modules, public modules to privatize) so that the functionality
of every private module remains Γ-private.

Solving an instance
-------------------
The :mod:`repro.engine` package is the canonical entry point.  A
:class:`~repro.engine.Planner` derives requirement lists once, memoizes
every expensive derivation in a shared cache, and dispatches any algorithm
registered in the solver registry::

    from repro import Planner
    from repro.workloads import figure1_workflow

    planner = Planner(figure1_workflow(), gamma=2, kind="set")
    result = planner.solve()                         # auto-selected solver
    result = planner.solve(solver="exact")           # result.certificate.ok
    result = planner.solve(solver="lp_rounding", seed=7)

``repro engine list-solvers`` (CLI) prints the registry.

Layout
------
``repro.engine``
    The unified solve surface: solver registry with decorator registration,
    the ``SolveResult`` dataclass, the ``Planner`` facade and the shared
    ``DerivationCache``.
``repro.core``
    The formal model: attributes, relations, modules, workflows, provenance
    views, possible worlds, Γ-privacy, standalone analysis, requirement
    lists, composition theorems and the Secure-View problem definition.
``repro.kernel``
    The bit-compiled privacy kernel: relations packed into integer bitmask
    tables so OUT-set counting, Γ-privacy checks and safe-subset search run
    as word-parallel bit operations.  Default backend of the core privacy
    analysis; ``backend="reference"`` keeps the brute-force oracle.
``repro.optim``
    The optimization algorithms: exact branch and bound, the Figure-3 LP
    with Algorithm-1 randomized rounding (cardinality constraints), the
    ℓ_max LP rounding (set constraints), the (γ+1) greedy for bounded data
    sharing, and the general-workflow LP with privatization.
``repro.reductions``
    The hardness constructions as executable generators (set cover, vertex
    cover, label cover, UNSAT, set disjointness, the Theorem-3 adversary).
``repro.workloads``
    Module function libraries, the paper's example workflows, random and
    "scientific-workflow-shaped" generators.
``repro.analysis``
    Experiment harness: metrics, sweeps, and text reporting.
"""

from .core import (
    Attribute,
    BOOLEAN,
    CardinalityRequirement,
    CardinalityRequirementList,
    Domain,
    Module,
    ProvenanceView,
    Relation,
    Schema,
    SecureViewProblem,
    SecureViewSolution,
    SetRequirement,
    SetRequirementList,
    Workflow,
    assemble_all_private_solution,
    assemble_general_solution,
    is_gamma_private_workflow,
    is_standalone_private,
    minimum_cost_safe_subset,
    standalone_privacy_level,
    workflow_privacy_level,
    is_workflow_private,
)
from .engine import (
    DerivationCache,
    Planner,
    PrivacyCertificate,
    SolveResult,
    SolverRegistry,
    default_registry,
    register_solver,
)
from .kernel import (
    CompiledModule,
    CompiledWorkflow,
    compile_module,
    compile_workflow,
)

__version__ = "1.10.0"


__all__ = [
    "__version__",
    "Attribute",
    "BOOLEAN",
    "Domain",
    "Schema",
    "Relation",
    "Module",
    "Workflow",
    "ProvenanceView",
    "SecureViewSolution",
    "SecureViewProblem",
    "SetRequirement",
    "SetRequirementList",
    "CardinalityRequirement",
    "CardinalityRequirementList",
    "is_standalone_private",
    "standalone_privacy_level",
    "is_workflow_private",
    "workflow_privacy_level",
    "is_gamma_private_workflow",
    "minimum_cost_safe_subset",
    "assemble_all_private_solution",
    "assemble_general_solution",
    # privacy kernel (bit-compiled analysis backend)
    "CompiledModule",
    "CompiledWorkflow",
    "compile_module",
    "compile_workflow",
    # engine (the canonical solve surface)
    "DerivationCache",
    "Planner",
    "PrivacyCertificate",
    "SolveResult",
    "SolverRegistry",
    "default_registry",
    "register_solver",
]
