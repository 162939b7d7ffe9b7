"""Exception hierarchy for the provenance-views library.

All library-specific errors derive from :class:`ProvenanceError` so callers
can catch a single base class.  The sub-classes mirror the layers of the
library: schema/relational errors, workflow construction errors, privacy
specification errors, and solver errors.
"""

from __future__ import annotations

__all__ = [
    "ProvenanceError",
    "SchemaError",
    "DomainError",
    "FunctionalDependencyError",
    "WorkflowError",
    "WiringError",
    "CycleError",
    "PrivacyError",
    "RequirementError",
    "WorkLimitError",
    "InfeasibleError",
    "SolverError",
]


class ProvenanceError(Exception):
    """Base class for every error raised by the provenance-views library."""


class SchemaError(ProvenanceError):
    """An operation referenced attributes that are not part of a schema."""


class DomainError(SchemaError):
    """A value fell outside the finite domain declared for an attribute."""


class FunctionalDependencyError(ProvenanceError):
    """A relation violates a declared functional dependency I -> O."""


class WorkflowError(ProvenanceError):
    """Base class for errors while constructing or executing a workflow."""


class WiringError(WorkflowError):
    """The attribute wiring of a workflow violates the rules of Section 2.3.

    The paper requires that (1) a module's input and output attribute names
    are disjoint, (2) output attribute names of distinct modules are disjoint,
    and (3) a shared name between an output and an input denotes a data edge.
    """


class CycleError(WorkflowError):
    """The module graph is not a DAG."""


class PrivacyError(ProvenanceError):
    """Base class for errors in privacy specifications or checks."""


class RequirementError(PrivacyError):
    """A requirement list is malformed (empty, out of range, wrong module)."""


class WorkLimitError(PrivacyError):
    """Possible-worlds enumeration would exceed its work limit."""


class InfeasibleError(ProvenanceError):
    """A secure-view problem instance admits no feasible solution."""


class SolverError(ProvenanceError):
    """An optimization backend failed (e.g. the LP solver did not converge)."""
