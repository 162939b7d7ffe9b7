"""Content-addressed workflow and module fingerprints.

The persistent derivation store (:mod:`repro.engine.store`) keys every
artifact — requirement lists and compiled kernel packs per module, solve
results per workflow — by the *content* it was derived from, so two
processes (or two runs weeks apart) that analyze the same workflow share
one store entry regardless of how the workflow object was built.

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

**Keys once per process.**  :func:`instance_keys` memoizes
:class:`InstanceKeys` per process, keyed by a strict digest of the raw
payload, so a payload swept or requested again is keyed by one JSON
encoding and one SHA-256 instead of a reserialization.  The digest is of
the payload's content, not its identity: a payload edited in place is a
new key.  A payload the strict encoder refuses (a non-JSON value) is
keyed afresh on every call and leaves no entry.
"""

from __future__ import annotations

import hashlib
import json
import threading
from collections import OrderedDict
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
    "instance_keys",
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

    Nothing here reads the payload after construction, so one object can
    stand for its payload's content for the life of a process:
    :func:`instance_keys` shares it between sweep passes and requests,
    and threads may call :meth:`modules` on it concurrently.
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
        # Read before the check: a concurrent first call sets the keys
        # before it drops the string, so one of the two is always there.
        canonical = self._canonical
        if self._module_keys is None:
            self._module_keys = {
                module["name"]: module_payload_fingerprint(module)
                for module in json.loads(canonical)["modules"]
            }
            self._canonical = None
        return self._module_keys


#: Bound on the per-process keys memo (FIFO eviction), as the kernel
#: bounds its compile memos.
_KEYS_LIMIT = 256
#: Encodes a payload for the memo's digest.  No ``default``: a value JSON
#: cannot encode raises instead of being keyed by its ``str``.  Without the
#: circular-reference check (a quarter of the encoding time), a circular
#: payload raises ``RecursionError`` instead of ``ValueError``.
_STRICT = json.JSONEncoder(sort_keys=True, separators=(",", ":"), check_circular=False)
_keys: "OrderedDict[str, InstanceKeys]" = OrderedDict()
_keys_lock = threading.Lock()


def instance_keys(source: str, payload: Mapping[str, Any]) -> InstanceKeys:
    """The :class:`InstanceKeys` of one serialized instance, once per process.

    Memoized by the SHA-256 of ``{source: payload}`` as sorted-key JSON
    (see module docstring), up to 256 payloads.  Raises what
    :class:`InstanceKeys` raises, and remembers only keys that were
    built.  Hashing runs outside the lock; two threads that miss on one
    payload at once both hash it, and both get the first one stored.
    """
    try:
        digest = _digest(_STRICT.encode({source: payload}))
    except (TypeError, ValueError, RecursionError):  # not JSON: key it afresh
        return InstanceKeys(source, payload)
    with _keys_lock:
        keys = _keys.get(digest)
    if keys is not None:
        return keys
    built = InstanceKeys(source, payload)
    with _keys_lock:
        keys = _keys.get(digest)
        if keys is None:
            while len(_keys) >= _KEYS_LIMIT:
                _keys.popitem(last=False)
            keys = _keys[digest] = built
    return keys


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
