"""Persistent, content-addressed store for derived Secure-View artifacts.

Everything expensive about a Secure-View instance is a pure function of the
workflow's *content* plus a handful of small parameters (Γ, requirement
kind, backend, visible set, solver, seed).  A :class:`DerivationStore`
therefore keys every artifact by the workflow's canonical-serialization
fingerprint (:func:`repro.workloads.workflow_fingerprint`) and persists it
under::

    <root>/<fp[:2]>/<fingerprint>/
        meta.json                      # instance summary + format_version
        relation.json                  # provenance relation
        relation.codes.npy|.bin        # (v2) binary relation codes
        pack.json                      # packed kernel tables
        pack.codes.npy|.bin            # (v2) binary pack codes
        req-g<gamma>-<kind>-<backend>.json
        outsets-<keydigest>.json       # one per (module, view, stop_at, backend)
        result-<keydigest>.json        # one per (backend, gamma, kind, solver,
                                       #          seed, verify) solve cell

**Store format v2.**  Format v1 serialized packed relations as base-10 int
lists inside the JSON documents; v2 (the default) moves the code arrays of
the pack and relation tiers into compact little-endian binary **sidecar
files** (:mod:`repro.kernel.binpack`): a standard ``.npy`` ``uint64``
array when the bit layout fits 63 bits, fixed-width raw records otherwise,
so the pure-Python no-numpy path reads the same bytes.  Readers
memory-map sidecars, and :class:`~repro.kernel.packing.PackedRelation`
keeps the mapping as its backing — co-located sweep workers and
``ProcessExecTier`` workers share one set of page-cached read-only pages
per hot pack instead of holding N parsed copies.  Readers accept both
formats (a half-migrated store just works); ``format_version`` selects
what *writes* produce, and :meth:`DerivationStore.migrate` upgrades a v1
store in place, atomically per artifact.  The ``repro store migrate``
CLI wraps it.

so a warm store lets a *different process* — a sweep worker, tomorrow's CLI
invocation, a CI re-run — skip requirement derivation, provenance
materialization, kernel packing, out-set enumeration, and even whole solver
runs.  The store is the persistent back tier of the two-tier
:class:`~repro.engine.cache.DerivationCache`; the cache owns the bounded
in-memory front and probes the store on every memory miss.

**The module tier.**  Requirement derivation — the exponential part of
every solve — is per-module: each private module's list depends only on
that module's own relation.  Module-level artifacts therefore live in a
*shared* tier keyed by :func:`repro.workloads.module_fingerprint` (module
content only, costs and privacy flags excluded)::

    <root>/modules/<mfp[:2]>/<module-fingerprint>/
        meta.json                      # module name / schema summary
        pack.json                      # packed module relation + privacy-level
                                       # memos (CompiledModule.to_payload)
        req-g<gamma>-<kind>-<backend>.json   # one requirement list

Any workflow containing the module — a what-if cost variant, an edited
member of a workflow family, an entirely different pipeline reusing one
step — hits the same entries, so editing one module of a ten-module
workflow re-derives one module, not ten.

**Maintenance.**  :meth:`DerivationStore.disk_stats` summarizes what a
store directory holds; :meth:`DerivationStore.gc` prunes it to a byte
budget, evicting least-recently-used artifacts (by mtime) and never
touching in-flight ``*.tmp-*`` files.  Both back the ``repro store``
CLI subcommands.

Concurrency: writes go to a per-process temp file followed by an atomic
``os.replace``, so concurrent sweep workers racing on one key each publish
a complete document and the last writer wins (all writers derive identical
content, because keys are content hashes).  Corrupt or structurally
incompatible documents are treated as misses and rewritten, never trusted.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import TYPE_CHECKING, Any, Mapping

from ..kernel import BitLayout, CompiledModule, CompiledWorkflow, PackedRelation
from ..kernel import binpack
from ..workloads.serialization import (
    relation_from_dict,
    relation_to_dict,
    requirement_from_dict,
    requirement_to_dict,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.module import Module
    from ..core.relation import Relation
    from ..core.requirements import RequirementList
    from ..core.workflow import Workflow

__all__ = ["DerivationStore", "ResultKey", "OutSetKey", "FORMAT_VERSION"]

#: The on-disk format new stores write.  v1: every artifact is one JSON
#: document.  v2: pack/relation code arrays live in binary sidecar files.
FORMAT_VERSION = 2

#: Formats this build can *read* (readers are version-agnostic so a store
#: can be migrated while live); anything newer degrades to a miss.
SUPPORTED_FORMAT_VERSIONS = (1, 2)

#: Categories the store tracks hit/miss/write counters for.
_CATEGORIES = (
    "requirements",
    "relation",
    "pack",
    "out_sets",
    "result",
    "module_requirement",
    "module_pack",
)


def _decode_row(domains: list, row: list) -> tuple:
    """Map stored domain indices back to values, rejecting out-of-range ones.

    Explicit bounds check: Python's negative indexing would otherwise make a
    corrupt ``-1`` silently decode to the last domain value instead of
    degrading to a store miss.
    """
    values = []
    for domain, index in zip(domains, row):
        index = int(index)
        if not 0 <= index < len(domain):
            raise ValueError(f"stored domain index {index} out of range")
        values.append(domain[index])
    return tuple(values)


def _key_digest(parts: tuple) -> str:
    """Short stable digest of a JSON-able key tuple (used in filenames)."""
    canonical = json.dumps(parts, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def ResultKey(
    backend: str,
    gamma: int,
    kind: str,
    solver: str,
    seed: int | None,
    verify: bool = False,
) -> tuple:
    """The parameters that (with the fingerprint) identify one solve cell."""
    return ("result", backend, gamma, kind, solver, seed, verify)


def OutSetKey(
    module_name: str,
    visible: frozenset[str],
    hidden_public_modules: frozenset[str],
    stop_at: int | None,
    backend: str,
) -> tuple:
    """The parameters identifying one out-set enumeration."""
    return (
        "outsets",
        module_name,
        sorted(visible),
        sorted(hidden_public_modules),
        stop_at,
        backend,
    )


class DerivationStore:
    """Disk-backed persistence for derived artifacts, keyed by content.

    Parameters
    ----------
    root:
        Directory to persist under; created (with parents) if absent.
    format_version:
        The format *writes* produce (default :data:`FORMAT_VERSION`).
        Readers accept every supported format regardless, so handles with
        different write versions interoperate over one directory; passing
        ``1`` keeps the legacy all-JSON writer alive for migration tests
        and fixtures.

    The store never loads anything it cannot validate: relations are decoded
    against the live workflow schema, packs are checked for bit-layout
    compatibility (v2 additionally for sidecar size/header consistency),
    and any JSON, binary or structural error degrades to a miss.
    """

    def __init__(
        self, root: str | os.PathLike, format_version: int = FORMAT_VERSION
    ) -> None:
        if format_version not in SUPPORTED_FORMAT_VERSIONS:
            raise ValueError(
                f"unsupported store format_version {format_version!r} "
                f"(supported: {SUPPORTED_FORMAT_VERSIONS})"
            )
        self.format_version = int(format_version)
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.hits: dict[str, int] = {category: 0 for category in _CATEGORIES}
        self.misses: dict[str, int] = {category: 0 for category in _CATEGORIES}
        self.writes: dict[str, int] = {category: 0 for category in _CATEGORIES}
        #: Fingerprints whose ``meta.json`` this handle knows to carry a
        #: ``workflow_payload``, so a requirement save skips re-reading it.
        self._meta_payloads: set[str] = set()

    # -- paths and raw IO -------------------------------------------------------
    def _dir(self, fingerprint: str) -> Path:
        return self.root / fingerprint[:2] / fingerprint

    def _module_dir(self, module_fingerprint: str) -> Path:
        # "modules" can never collide with a workflow shard (2 hex chars).
        return self.root / "modules" / module_fingerprint[:2] / module_fingerprint

    def _read(self, category: str, path: Path) -> Any | None:
        try:
            with open(path, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
        except (OSError, ValueError):
            self.misses[category] += 1
            return None
        self.hits[category] += 1
        try:
            # Touch on read so gc's mtime ordering is genuinely least-
            # recently-*used*, not least-recently-written.
            os.utime(path, None)
        except OSError:
            pass
        return payload

    def _write(self, category: str | None, path: Path, payload: Any) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(f"{path.name}.tmp-{os.getpid()}")
        try:
            with open(tmp, "w", encoding="utf-8") as handle:
                json.dump(payload, handle, sort_keys=True)
            os.replace(tmp, path)
        except OSError:
            # A read-only or vanished store directory must never kill a
            # solve; persistence is best-effort by design.
            try:
                tmp.unlink(missing_ok=True)
            except OSError:
                pass
            return
        if category is not None:
            self.writes[category] += 1

    def _write_bytes(self, path: Path, data: bytes) -> None:
        """Atomically publish a binary sidecar (same tmp+replace protocol)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(f"{path.name}.tmp-{os.getpid()}")
        try:
            with open(tmp, "wb") as handle:
                handle.write(data)
            os.replace(tmp, path)
        except OSError:
            try:
                tmp.unlink(missing_ok=True)
            except OSError:
                pass

    @staticmethod
    def _check_version(payload: Any) -> None:
        """Raise on documents from a format this build cannot read.

        v1 documents carry no ``format`` key; anything newer than
        :data:`SUPPORTED_FORMAT_VERSIONS` degrades to a miss through the
        loaders' normal corrupt-entry path.
        """
        if isinstance(payload, dict):
            version = int(payload.get("format", 1) or 1)
            if version not in SUPPORTED_FORMAT_VERSIONS:
                raise ValueError(f"unsupported store format {version}")

    @staticmethod
    def _touch_sidecar(directory: Path, payload: Any) -> None:
        """Refresh a v2 sidecar's LRU position alongside its JSON document.

        GC evicts by file mtime; touching only ``pack.json`` would let the
        sidecar age out from under a hot document.
        """
        if not isinstance(payload, dict):
            return
        codes = payload.get("pack", {}).get("codes")
        if isinstance(codes, dict):
            try:
                os.utime(directory / str(codes.get("file", "")), None)
            except (OSError, ValueError):
                pass

    def _write_code_sidecar(
        self, directory: Path, descriptor: dict, blob: bytes, stem: str
    ) -> dict:
        """Publish one binary code array; returns the named descriptor."""
        name = f"{stem}.codes{binpack.FILE_SUFFIXES[descriptor['encoding']]}"
        descriptor["file"] = name
        self._write_bytes(directory / name, blob)
        return descriptor

    def _binary_payload(
        self, directory: Path, payload: dict, packed: PackedRelation, stem: str
    ) -> dict:
        """The v2 document for ``payload`` (a v1 ``to_payload`` dict).

        Writes the code sidecar and swaps the in-document code list for
        its descriptor; every other key (e.g. a module pack's ``levels``
        memo) rides along unchanged.
        """
        pack_doc, blob = packed.to_binary()
        self._write_code_sidecar(directory, pack_doc["codes"], blob, stem)
        doc: dict[str, Any] = {"format": FORMAT_VERSION, "pack": pack_doc}
        for key, value in payload.items():
            if key != "pack":
                doc[key] = value
        return doc

    @staticmethod
    def _read_raw(path: Path) -> dict[str, Any]:
        """Best-effort JSON object read: no counters, no mtime touch.

        Meta documents are bookkeeping (popularity, summaries), not cached
        artifacts — reading one must neither count as a store hit nor
        refresh its LRU position.
        """
        try:
            with open(path, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
        except (OSError, ValueError):
            return {}
        return payload if isinstance(payload, dict) else {}

    def _write_meta(self, fingerprint: str, workflow: "Workflow") -> None:
        if fingerprint in self._meta_payloads:
            return
        meta_path = self._dir(fingerprint) / "meta.json"
        existing = self._read_raw(meta_path)
        if existing.get("workflow_payload") is not None:
            self._meta_payloads.add(fingerprint)
            return
        from ..workloads.serialization import workflow_to_dict

        payload = dict(existing)  # preserve popularity bumped before save
        payload.update(
            {
                "fingerprint": fingerprint,
                "format_version": self.format_version,
                "workflow": workflow.name,
                "modules": len(workflow),
                "attributes": len(workflow.attribute_names),
                # The canonical serialization rides along so maintenance
                # (service warm-up) can rebuild the instance without the
                # original submitter — meta is the only tier that knows
                # what a fingerprint *is*.
                "workflow_payload": workflow_to_dict(workflow),
            },
        )
        self._write(
            None,  # meta is bookkeeping, not a counted artifact
            meta_path,
            payload,
        )
        self._meta_payloads.add(fingerprint)

    # -- requirements -----------------------------------------------------------
    def load_requirements(
        self, fingerprint: str, gamma: int, kind: str, backend: str
    ) -> dict[str, "RequirementList"] | None:
        path = self._dir(fingerprint) / f"req-g{gamma}-{kind}-{backend}.json"
        payload = self._read("requirements", path)
        if payload is None:
            return None
        try:
            return {
                item["module"]: requirement_from_dict(item)
                for item in payload["requirements"]
            }
        except Exception:  # corrupt entries degrade to misses, never crash
            self.hits["requirements"] -= 1
            self.misses["requirements"] += 1
            return None

    def save_requirements(
        self,
        fingerprint: str,
        gamma: int,
        kind: str,
        backend: str,
        requirements: Mapping[str, "RequirementList"],
        workflow: "Workflow | None" = None,
    ) -> None:
        path = self._dir(fingerprint) / f"req-g{gamma}-{kind}-{backend}.json"
        self._write(
            "requirements",
            path,
            {
                "gamma": gamma,
                "kind": kind,
                "backend": backend,
                # Insertion order (workflow module order) is preserved so a
                # store-served mapping is indistinguishable from a freshly
                # derived one — LP/IP constraint ordering, and therefore
                # tie-breaking among equal-cost optima, must not change.
                "requirements": [
                    requirement_to_dict(requirement)
                    for requirement in requirements.values()
                ],
            },
        )
        if workflow is not None:
            self._write_meta(fingerprint, workflow)

    # -- provenance relation ----------------------------------------------------
    def _relation_from_binary(
        self, schema, payload: Mapping[str, Any], directory: Path
    ) -> "Relation":
        """Decode a v2 binary relation document against a live schema.

        The stored bit layout is validated structurally against
        ``BitLayout(schema)`` (names, widths, domain sizes), then every
        code is unpacked by domain index — an out-of-range field raises,
        so corruption degrades to a miss exactly like a bad v1 row.
        """
        from ..core.relation import Relation

        layout = BitLayout(schema)
        packed = PackedRelation.from_dict(
            layout, payload["pack"], base_dir=str(directory)
        )
        names = layout.names
        return Relation.from_tuples(
            schema,
            [layout.unpack(code, names) for code in packed.codes],
            check_domains=False,
        )

    def load_relation(
        self, fingerprint: str, workflow: "Workflow"
    ) -> "Relation | None":
        directory = self._dir(fingerprint)
        payload = self._read("relation", directory / "relation.json")
        if payload is None:
            return None
        try:
            self._check_version(payload)
            if isinstance(payload, dict) and "pack" in payload:
                loaded = self._relation_from_binary(
                    workflow.schema, payload, directory
                )
            else:
                loaded = relation_from_dict(workflow.schema, payload)
        except Exception:
            self.hits["relation"] -= 1
            self.misses["relation"] += 1
            return None
        self._touch_sidecar(directory, payload)
        return loaded

    def save_relation(
        self, fingerprint: str, relation: "Relation", workflow: "Workflow | None" = None
    ) -> None:
        directory = self._dir(fingerprint)
        if self.format_version >= 2:
            payload = self._binary_payload(
                directory, {}, PackedRelation.from_relation(relation), "relation"
            )
        else:
            payload = relation_to_dict(relation)
        self._write("relation", directory / "relation.json", payload)
        if workflow is not None:
            self._write_meta(fingerprint, workflow)

    # -- compiled kernel packs --------------------------------------------------
    def load_pack(
        self, fingerprint: str, workflow: "Workflow", relation: "Relation"
    ) -> CompiledWorkflow | None:
        directory = self._dir(fingerprint)
        payload = self._read("pack", directory / "pack.json")
        if payload is None:
            return None
        try:
            self._check_version(payload)
            loaded = CompiledWorkflow.from_payload(
                workflow, relation, payload, base_dir=str(directory)
            )
        except Exception:
            self.hits["pack"] -= 1
            self.misses["pack"] += 1
            return None
        self._touch_sidecar(directory, payload)
        return loaded

    def save_pack(self, fingerprint: str, compiled: CompiledWorkflow) -> None:
        directory = self._dir(fingerprint)
        payload = compiled.to_payload()
        if self.format_version >= 2:
            payload = self._binary_payload(directory, payload, compiled.packed, "pack")
        self._write("pack", directory / "pack.json", payload)

    # -- shared module tier -----------------------------------------------------
    def _write_module_meta(self, module_fingerprint: str, module: "Module") -> None:
        meta_path = self._module_dir(module_fingerprint) / "meta.json"
        if meta_path.exists():
            return
        self._write(
            None,  # meta is bookkeeping, not a counted artifact
            meta_path,
            {
                "fingerprint": module_fingerprint,
                "format_version": self.format_version,
                "module": module.name,
                "inputs": list(module.input_names),
                "outputs": list(module.output_names),
            },
        )

    def load_module_requirement(
        self, module_fingerprint: str, gamma: int, kind: str, backend: str
    ) -> "RequirementList | None":
        path = (
            self._module_dir(module_fingerprint)
            / f"req-g{gamma}-{kind}-{backend}.json"
        )
        payload = self._read("module_requirement", path)
        if payload is None:
            return None
        try:
            loaded = requirement_from_dict(payload["requirement"])
            if payload["kind"] != kind:
                raise ValueError("stored requirement kind mismatch")
            return loaded
        except Exception:  # corrupt entries degrade to misses, never crash
            self.hits["module_requirement"] -= 1
            self.misses["module_requirement"] += 1
            return None

    def save_module_requirement(
        self,
        module_fingerprint: str,
        gamma: int,
        kind: str,
        backend: str,
        requirement: "RequirementList",
        module: "Module | None" = None,
    ) -> None:
        path = (
            self._module_dir(module_fingerprint)
            / f"req-g{gamma}-{kind}-{backend}.json"
        )
        self._write(
            "module_requirement",
            path,
            {
                "gamma": gamma,
                "kind": kind,
                "backend": backend,
                "requirement": requirement_to_dict(requirement),
            },
        )
        if module is not None:
            self._write_module_meta(module_fingerprint, module)

    def load_module_pack(
        self, module_fingerprint: str, module: "Module"
    ) -> CompiledModule | None:
        directory = self._module_dir(module_fingerprint)
        payload = self._read("module_pack", directory / "pack.json")
        if payload is None:
            return None
        try:
            self._check_version(payload)
            loaded = CompiledModule.from_payload(
                module, payload, base_dir=str(directory)
            )
        except Exception:
            self.hits["module_pack"] -= 1
            self.misses["module_pack"] += 1
            return None
        self._touch_sidecar(directory, payload)
        return loaded

    def save_module_pack(
        self,
        module_fingerprint: str,
        compiled: CompiledModule,
        module: "Module | None" = None,
    ) -> None:
        directory = self._module_dir(module_fingerprint)
        payload = compiled.to_payload()
        if self.format_version >= 2:
            payload = self._binary_payload(directory, payload, compiled.packed, "pack")
        self._write("module_pack", directory / "pack.json", payload)
        if module is not None:
            self._write_module_meta(module_fingerprint, module)

    # -- verification out-sets --------------------------------------------------
    def load_out_sets(
        self, fingerprint: str, workflow: "Workflow", key: tuple
    ) -> dict | None:
        path = self._dir(fingerprint) / f"outsets-{_key_digest(key)}.json"
        payload = self._read("out_sets", path)
        if payload is None:
            return None
        try:
            module = workflow.module(payload["module"])
            in_domains = [a.domain.values for a in module.input_schema]
            out_domains = [a.domain.values for a in module.output_schema]
            return {
                _decode_row(in_domains, key_row): {
                    _decode_row(out_domains, out_row) for out_row in out_rows
                }
                for key_row, out_rows in payload["entries"]
            }
        except Exception:
            self.hits["out_sets"] -= 1
            self.misses["out_sets"] += 1
            return None

    def save_out_sets(
        self,
        fingerprint: str,
        workflow: "Workflow",
        key: tuple,
        module_name: str,
        out_sets: Mapping[tuple, set],
    ) -> None:
        module = workflow.module(module_name)
        in_indexers = [
            {value: idx for idx, value in enumerate(a.domain.values)}
            for a in module.input_schema
        ]
        out_indexers = [
            {value: idx for idx, value in enumerate(a.domain.values)}
            for a in module.output_schema
        ]
        entries = sorted(
            [
                [indexer[v] for indexer, v in zip(in_indexers, key_row)],
                sorted(
                    [indexer[v] for indexer, v in zip(out_indexers, out_row)]
                    for out_row in out_rows
                ),
            ]
            for key_row, out_rows in out_sets.items()
        )
        path = self._dir(fingerprint) / f"outsets-{_key_digest(key)}.json"
        self._write("out_sets", path, {"module": module_name, "entries": entries})

    # -- solve results ----------------------------------------------------------
    def load_result(self, fingerprint: str, key: tuple) -> dict | None:
        path = self._dir(fingerprint) / f"result-{_key_digest(key)}.json"
        payload = self._read("result", path)
        if isinstance(payload, dict):
            return payload
        if payload is not None:
            self.hits["result"] -= 1
            self.misses["result"] += 1
        return None

    def save_result(self, fingerprint: str, key: tuple, record: Mapping) -> None:
        path = self._dir(fingerprint) / f"result-{_key_digest(key)}.json"
        self._write("result", path, dict(record))

    # -- popularity (meta tier) -------------------------------------------------
    def bump_popularity(self, fingerprint: str, by: int = 1) -> int:
        """Add ``by`` requests to a workflow entry's persistent popularity.

        The counter lives in the entry's ``meta.json`` so it survives
        restarts and rides the same GC policy as the artifacts it ranks.
        Read-modify-write without a cross-process lock: concurrent bumpers
        may lose increments, which ranking tolerates (popularity is a
        heuristic, not an invariant).  Returns the new count.
        """
        meta_path = self._dir(fingerprint) / "meta.json"
        meta = self._read_raw(meta_path)
        meta.setdefault("fingerprint", fingerprint)
        meta["popularity"] = int(meta.get("popularity", 0) or 0) + int(by)
        self._write(None, meta_path, meta)
        return meta["popularity"]

    def popularity(self, fingerprint: str) -> int:
        """The persisted request count for one workflow entry (0 if none)."""
        meta = self._read_raw(self._dir(fingerprint) / "meta.json")
        return int(meta.get("popularity", 0) or 0)

    def popular_workflows(self, k: int) -> list[tuple[str, int, dict]]:
        """The ``k`` most-requested workflow entries that can be rebuilt.

        ``(fingerprint, popularity, workflow_payload)`` tuples, most
        popular first (fingerprint breaks ties deterministically).  Entries
        without a serialized payload or without any recorded popularity are
        skipped — they cannot be warmed, or nobody asked for them.
        """
        ranked: list[tuple[int, str, dict]] = []
        # Workflow shards are two hex characters, so the glob can never
        # descend into the "modules" tier.
        for meta_path in self.root.glob("??/*/meta.json"):
            meta = self._read_raw(meta_path)
            payload = meta.get("workflow_payload")
            count = int(meta.get("popularity", 0) or 0)
            if not isinstance(payload, dict) or count <= 0:
                continue
            fingerprint = str(meta.get("fingerprint") or meta_path.parent.name)
            ranked.append((count, fingerprint, payload))
        ranked.sort(key=lambda item: (-item[0], item[1]))
        return [(fp, count, payload) for count, fp, payload in ranked[: max(0, k)]]

    def stored_requirement_points(self, fingerprint: str) -> list[tuple[int, str, str]]:
        """Every ``(gamma, kind, backend)`` with a stored requirement doc.

        Parsed from the entry's ``req-g<gamma>-<kind>-<backend>.json``
        filenames; lets warm-up preload exactly the points past traffic
        actually asked for instead of guessing a grid.
        """
        points: list[tuple[int, str, str]] = []
        for path in self._dir(fingerprint).glob("req-g*.json"):
            stem = path.name[len("req-g") : -len(".json")]
            gamma_text, _, rest = stem.partition("-")
            kind, _, backend = rest.partition("-")
            try:
                gamma = int(gamma_text)
            except ValueError:
                continue
            if kind and backend:
                points.append((gamma, kind, backend))
        return sorted(points)

    # -- maintenance ------------------------------------------------------------
    @staticmethod
    def _is_temp(path: Path) -> bool:
        """An in-flight atomic-write temp file (``<name>.tmp-<pid>``)?"""
        return ".tmp-" in path.name

    def _artifact_files(self) -> list[Path]:
        """Every persisted artifact under the root, temp files excluded.

        Since format v2 this includes the binary ``*.codes.*`` sidecars —
        they must ride the same GC, stats and LRU accounting as the JSON
        documents that reference them.
        """
        return [
            path
            for path in self.root.rglob("*")
            if path.is_file() and not self._is_temp(path)
        ]

    def disk_stats(self) -> dict[str, Any]:
        """What the store directory holds on disk (for ``repro store stats``).

        Counts bytes and files per artifact kind, per tier (workflow
        entries vs the shared ``modules/`` tier), and per on-disk entry
        format version.  Purely observational — no counters move.
        """
        kinds = {
            "meta": 0,
            "relation": 0,
            "pack": 0,
            "requirements": 0,
            "out_sets": 0,
            "results": 0,
            "other": 0,
        }
        tiers = {
            tier: {"entries": 0, "files": 0, "bytes": 0}
            for tier in ("workflow", "modules")
        }
        total_bytes = 0
        files = 0
        workflow_entries: set[Path] = set()
        module_entries: set[Path] = set()
        module_root = self.root / "modules"
        for path in self._artifact_files():
            files += 1
            try:
                size = path.stat().st_size
            except OSError:
                continue
            total_bytes += size
            entry = path.parent
            if module_root in entry.parents or entry == module_root:
                module_entries.add(entry)
                tier = tiers["modules"]
            else:
                workflow_entries.add(entry)
                tier = tiers["workflow"]
            tier["files"] += 1
            tier["bytes"] += size
            name = path.name
            if name == "meta.json":
                kinds["meta"] += 1
            elif name == "relation.json" or name.startswith("relation.codes"):
                kinds["relation"] += 1
            elif name == "pack.json" or name.startswith("pack.codes"):
                kinds["pack"] += 1
            elif name.startswith("req-"):
                kinds["requirements"] += 1
            elif name.startswith("outsets-"):
                kinds["out_sets"] += 1
            elif name.startswith("result-"):
                kinds["results"] += 1
            else:
                kinds["other"] += 1
        tiers["workflow"]["entries"] = len(workflow_entries)
        tiers["modules"]["entries"] = len(module_entries)
        format_versions: dict[str, int] = {}
        for entry in workflow_entries | module_entries:
            meta = self._read_raw(entry / "meta.json")
            version = str(int(meta.get("format_version", 1) or 1))
            format_versions[version] = format_versions.get(version, 0) + 1
        return {
            "root": str(self.root),
            "format_version": self.format_version,
            "format_versions": format_versions,
            "bytes": total_bytes,
            "files": files,
            "workflow_entries": len(workflow_entries),
            "module_entries": len(module_entries),
            "tiers": tiers,
            "by_kind": kinds,
        }

    def gc(self, max_bytes: int) -> dict[str, int]:
        """Prune the store to at most ``max_bytes``, LRU by file mtime.

        Oldest-touched artifacts go first; in-flight ``*.tmp-*`` files are
        never deleted (a concurrent writer may be about to publish them),
        and emptied entry directories are removed.  Artifacts are always
        re-derivable (the store is a cache, never the source of truth), so
        eviction can never lose information.  Returns a summary of what was
        deleted and kept.
        """
        if max_bytes < 0:
            raise ValueError("max_bytes must be non-negative")
        entries: list[tuple[float, int, Path]] = []
        for path in self._artifact_files():
            try:
                stat = path.stat()
            except OSError:
                continue
            entries.append((stat.st_mtime, stat.st_size, path))
        entries.sort()  # oldest first
        total = sum(size for _, size, _ in entries)
        deleted_files = 0
        freed = 0
        for _, size, path in entries:
            if total - freed <= max_bytes:
                break
            try:
                path.unlink()
            except OSError:
                continue
            deleted_files += 1
            freed += size
        # Sweep out directories the deletions emptied (entry dirs, shards).
        for directory in sorted(
            (p for p in self.root.rglob("*") if p.is_dir()),
            key=lambda p: len(p.parts),
            reverse=True,
        ):
            try:
                directory.rmdir()  # only succeeds when empty
            except OSError:
                pass
        # Forget which meta documents carry a payload only now, after the
        # deletions, so a save racing this gc re-checks its entry.
        self._meta_payloads.clear()
        return {
            "deleted_files": deleted_files,
            "freed_bytes": freed,
            "kept_bytes": total - freed,
            "max_bytes": max_bytes,
        }

    # -- migration --------------------------------------------------------------
    def _migrate_pack_doc(self, directory: Path, doc: dict) -> dict:
        """The v2 form of one v1 pack document (sidecar written as a side
        effect).  Purely structural — codes and layout come from the stored
        document, so the rewritten entry decodes to byte-identical payloads
        without needing the live workflow or module."""
        pack = doc["pack"]
        codes = pack["codes"]
        if not isinstance(codes, list):
            raise ValueError("not a v1 pack document")
        descriptor, blob = binpack.encode_codes(
            [int(code) for code in codes], int(pack["layout"]["total_bits"])
        )
        self._write_code_sidecar(directory, descriptor, blob, "pack")
        new_doc: dict[str, Any] = {
            "format": FORMAT_VERSION,
            "pack": {"layout": pack["layout"], "codes": descriptor},
        }
        for key, value in doc.items():
            if key not in ("pack", "format"):
                new_doc[key] = value
        return new_doc

    def _migrate_entry(
        self, entry: Path, workflow_tier: bool, summary: dict[str, int]
    ) -> None:
        pack_path = entry / "pack.json"
        doc = self._read_raw(pack_path)
        if doc:
            if int(doc.get("format", 1) or 1) >= FORMAT_VERSION:
                summary["already_current"] += 1
            else:
                try:
                    new_doc = self._migrate_pack_doc(entry, doc)
                except Exception:
                    summary["failed"] += 1
                else:
                    self._write(None, pack_path, new_doc)
                    summary["packs_migrated"] += 1
        if workflow_tier:
            relation_path = entry / "relation.json"
            relation_doc = self._read_raw(relation_path)
            if relation_doc and "rows" in relation_doc:
                # A v1 relation document carries domain *indices* only; the
                # bit layout needs the schema, which the entry's meta can
                # rebuild.  Entries without a serialized workflow stay v1 —
                # readers accept both, so nothing is lost.
                meta = self._read_raw(entry / "meta.json")
                workflow_payload = meta.get("workflow_payload")
                if isinstance(workflow_payload, dict):
                    try:
                        from ..workloads.serialization import workflow_from_dict

                        schema = workflow_from_dict(workflow_payload).schema
                        relation = relation_from_dict(schema, relation_doc)
                        payload = self._binary_payload(
                            entry, {}, PackedRelation.from_relation(relation),
                            "relation",
                        )
                    except Exception:
                        summary["failed"] += 1
                    else:
                        self._write(None, relation_path, payload)
                        summary["relations_migrated"] += 1
                else:
                    summary["skipped"] += 1
        meta_path = entry / "meta.json"
        meta = self._read_raw(meta_path)
        if meta and int(meta.get("format_version", 1) or 1) != FORMAT_VERSION:
            meta["format_version"] = FORMAT_VERSION
            self._write(None, meta_path, meta)

    def migrate(self) -> dict[str, int]:
        """Upgrade every v1 artifact under the root to format v2, in place.

        Per-artifact atomic (the same tmp-file + ``os.replace`` protocol as
        normal writes), so readers racing the migration see either the old
        or the new complete document — and since readers accept both
        formats, a half-migrated store serves hits throughout.  Idempotent:
        already-v2 entries are counted and left untouched.  Corrupt
        documents are skipped (``failed``), never deleted — they were
        misses before and stay misses.  Returns a summary of what moved.
        """
        summary = {
            "entries": 0,
            "packs_migrated": 0,
            "relations_migrated": 0,
            "already_current": 0,
            "skipped": 0,
            "failed": 0,
        }
        for entry in sorted(p for p in self.root.glob("??/*") if p.is_dir()):
            summary["entries"] += 1
            self._migrate_entry(entry, True, summary)
        for entry in sorted(p for p in self.root.glob("modules/??/*") if p.is_dir()):
            summary["entries"] += 1
            self._migrate_entry(entry, False, summary)
        return summary

    # -- bookkeeping ------------------------------------------------------------
    def stats(self) -> dict[str, int]:
        """Flat counter snapshot (per category plus totals)."""
        flat: dict[str, int] = {}
        for category in _CATEGORIES:
            flat[f"{category}_hits"] = self.hits[category]
            flat[f"{category}_misses"] = self.misses[category]
            flat[f"{category}_writes"] = self.writes[category]
        flat["hits"] = sum(self.hits.values())
        flat["misses"] = sum(self.misses.values())
        flat["writes"] = sum(self.writes.values())
        return flat

    def reset_stats(self) -> None:
        for category in _CATEGORIES:
            self.hits[category] = 0
            self.misses[category] = 0
            self.writes[category] = 0
