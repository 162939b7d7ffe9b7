"""Content-addressed workflow and module fingerprints.

The persistent derivation store (:mod:`repro.engine.store`) keys every
artifact — requirement lists, provenance relations, compiled kernel packs,
verification out-sets, solve results — by the *content* of the workflow it
was derived from, so two processes (or two runs weeks apart) that analyze
the same workflow share one store entry regardless of how the workflow
object was built.

A fingerprint is the SHA-256 digest of the workflow's canonical
serialization: the :func:`~repro.workloads.serialization.workflow_to_dict`
payload with modules sorted by name and every JSON object emitted with
sorted keys.  It is therefore invariant under

* the iteration order of any dict the caller assembled the payload from,
* the order modules were passed to :class:`~repro.core.workflow.Workflow`
  (module names are unique within a workflow), and
* a serialize → deserialize round trip (functionality is tabulated, so the
  rebuilt workflow re-serializes to the same tables).

It changes whenever anything semantically relevant changes: a module table,
an attribute domain or cost, a privacy flag, or the workflow's name.

**Payload fingerprints** key the instances the sweep executor and the
solve service receive serialized.  :func:`instance_fingerprint` hashes a
workflow payload without building the workflow or evaluating any module:
it rebuilds each module's schemas, reads the module's table off the
payload over its full input domain, and emits what
:func:`~repro.workloads.serialization.workflow_to_dict` would.  The
contract is bit-for-bit equality with the live path,
``instance_fingerprint("workflow", p) ==
workflow_fingerprint(workflow_from_dict(p))``, under any module, row or
key order, omitted defaults (``cost``, ``private``,
``privatization_cost``), integer costs, duplicate domain values and extra
rows outside the input domain; and where the live path raises
:class:`~repro.exceptions.SchemaError` (an input row without an image) or
:class:`~repro.exceptions.DomainError` (an output outside its domain), so
does the payload path.  Workflow-level wiring — one producer per
attribute, no cycles — is left to :func:`workflow_from_dict`; a payload
that fails only there still fingerprints, and can never match a workflow
that builds.  A ``problem`` payload carries its requirement lists, so it is
keyed by the digest of the payload itself.

**Module fingerprints** key the store's shared per-module tier.  The
paper's Γ-privacy requirement of a private module depends only on that
module's relation, so :func:`module_fingerprint` hashes exactly what the
per-module derivations consume: the module name, its input/output schemas
(names and domain values) and its tabulated functionality.  It deliberately
*excludes* attribute hiding costs, the privatization cost and the
private/public flag — none of them enter requirement derivation, privacy
levels, or the module's packed relation — so a what-if cost override or a
privatization never invalidates the module tier, and any two workflows
containing the same module (by content) share its artifacts.

The payload reserialization behind :func:`instance_fingerprint` yields
each module's store key too: :class:`InstanceKeys` holds a payload's
instance fingerprint and, on demand, the :func:`module_fingerprint` of
every module of a workflow payload, read off the reserialized module
dicts (never the raw payload entries, whose duplicate domain values and
out-of-domain rows the rebuilt module drops).  The sweep driver hands
both down with each chunk, and a
:class:`~repro.engine.executor.SolveRunner` that hashes a payload itself
records both, so no rebuilt module is tabulated just to be hashed.
"""

from __future__ import annotations

import hashlib
import json
from typing import TYPE_CHECKING, Any, Mapping

from .serialization import _reserialized_workflow_dict, workflow_to_dict

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.module import Module
    from ..core.workflow import Workflow

__all__ = [
    "InstanceKeys",
    "canonical_module_payload",
    "canonical_workflow_payload",
    "instance_fingerprint",
    "module_fingerprint",
    "module_payload_fingerprint",
    "payload_fingerprint",
    "workflow_fingerprint",
]


def _by_module_name(payload: dict[str, Any]) -> dict[str, Any]:
    payload["modules"] = sorted(payload["modules"], key=lambda m: m["name"])
    return payload


def canonical_workflow_payload(workflow: "Workflow") -> dict[str, Any]:
    """The serialized workflow with module order normalized by name."""
    return _by_module_name(workflow_to_dict(workflow))


#: ``json.dumps`` builds a new encoder for every call with non-default
#: options; these two encode the same bytes without that cost.
_CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":"), default=str)
_ROW_KEY = json.JSONEncoder(sort_keys=True, default=str)


def payload_fingerprint(payload: Mapping[str, Any]) -> str:
    """SHA-256 over the canonical JSON encoding of an arbitrary payload.

    ``sort_keys`` makes the digest independent of dict insertion order;
    compact separators make it independent of formatting.  Values must be
    JSON-serializable (workflow payloads are by construction).
    """
    return _digest(_CANONICAL.encode(payload))


def _digest(canonical: str) -> str:
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def workflow_fingerprint(workflow: "Workflow") -> str:
    """Stable content hash of a workflow (see module docstring)."""
    return payload_fingerprint(canonical_workflow_payload(workflow))


def instance_fingerprint(source: str, payload: Mapping[str, Any]) -> str:
    """Store key of a serialized ``"workflow"`` or ``"problem"`` instance.

    A workflow payload hashes to its :func:`workflow_fingerprint` without
    being rebuilt (see module docstring); a problem payload to the digest
    of ``{"problem": payload}``.
    """
    return InstanceKeys(source, payload).fingerprint


class InstanceKeys:
    """The store keys of one serialized instance, from one reserialization.

    ``fingerprint`` is :func:`instance_fingerprint` (the constructor raises
    what it raises).  :meth:`modules` maps each module name of a workflow
    payload to :func:`module_fingerprint` of the module
    :func:`~repro.workloads.serialization.workflow_from_dict` would build,
    hashed on first call from the module dicts the fingerprint pass
    already reserialized.  Until then they are kept as the canonical JSON
    the fingerprint hashed: one string instead of thousands of live
    containers for the garbage collector to traverse during a pass.  A
    decoded value encodes to the same bytes again (one the encoder wrote
    with ``str`` decodes to that string), so the keys are unchanged.  A
    problem payload maps no module: its requirement lists are baked in, so
    no module is derived from it.
    """

    __slots__ = ("fingerprint", "_canonical", "_module_keys")

    def __init__(self, source: str, payload: Mapping[str, Any]) -> None:
        self._canonical: str | None = None
        self._module_keys: dict[str, str] | None = None
        if source == "workflow":
            self._canonical = _CANONICAL.encode(
                _by_module_name(_reserialized_workflow_dict(payload))
            )
            self.fingerprint = _digest(self._canonical)
        elif source == "problem":
            self.fingerprint = payload_fingerprint({"problem": payload})
            self._module_keys = {}
        else:
            raise ValueError(f"unknown instance source {source!r}")

    def modules(self) -> dict[str, str]:
        """Module name -> module fingerprint (hashed once, then memoized)."""
        if self._module_keys is None:
            self._module_keys = {
                module["name"]: module_payload_fingerprint(module)
                for module in json.loads(self._canonical)["modules"]
            }
            self._canonical = None
        return self._module_keys


def _canonical_module_dict(payload: Mapping[str, Any]) -> dict[str, Any]:
    """Reduce a serialized module dict to its derivation-relevant content.

    Keeps the name, the input/output attribute names and domain values, and
    the tabulated functionality; drops costs and the privacy flag (see
    module docstring).  Works on any :func:`_module_to_dict`-shaped payload,
    so live modules and already-serialized sweep instances fingerprint
    identically.
    """
    return {
        "name": payload["name"],
        "inputs": [
            {"name": item["name"], "values": list(item["values"])}
            for item in payload["inputs"]
        ],
        "outputs": [
            {"name": item["name"], "values": list(item["values"])}
            for item in payload["outputs"]
        ],
        # Row order is normalized (``_module_to_dict`` already sorts, but a
        # hand-assembled payload may not) so the digest reflects the *map*,
        # not the listing order.
        "table": sorted(
            ([list(key), list(value)] for key, value in payload["table"]),
            key=_ROW_KEY.encode,
        ),
    }


def canonical_module_payload(module: "Module") -> dict[str, Any]:
    """The derivation-relevant content of one module (see module docstring)."""
    from .serialization import _module_to_dict

    return _canonical_module_dict(_module_to_dict(module))


def module_payload_fingerprint(payload: Mapping[str, Any]) -> str:
    """Module fingerprint computed from a serialized module dict.

    Used by the sweep executor to group serialized instances into families
    by shared modules without rebuilding any workflow objects.
    """
    return payload_fingerprint(_canonical_module_dict(payload))


def module_fingerprint(module: "Module") -> str:
    """Stable content hash of one module's derivation-relevant content."""
    return payload_fingerprint(canonical_module_payload(module))
