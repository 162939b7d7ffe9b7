"""Persistent, content-addressed store for derived Secure-View artifacts.

Everything expensive about a Secure-View instance is a pure function of
*content* plus a handful of small parameters (Γ, requirement kind,
backend, solver, seed).  A :class:`DerivationStore` therefore keys every
artifact by a canonical-serialization fingerprint.  Whole solve results
and the popularity record are keyed by the workflow's
(:func:`repro.workloads.workflow_fingerprint`) and persisted under::

    <root>/<fp[:2]>/<fingerprint>/
        meta.json                      # the service's popularity record
        result-<keydigest>.json        # one per (backend, gamma, kind, solver,
                                       #          seed, verify) solve cell

Everything derived per module is keyed by the module's, in the module
tier below.  No stored artifact holds the workflow's provenance relation:
the Γ-privacy certificate reads module packs (Theorems 4 and 8), so
serving never builds it.  Workflow-level ``pack.json``, ``pack.codes.*`` and
``outsets-*.json`` files an earlier commit wrote are never read;
:meth:`~DerivationStore.disk_stats` counts them as ``"other"`` and
:meth:`~DerivationStore.gc` evicts them like any cold file.

**Store format.**  Every module pack document is stamped ``"format":
FORMAT_VERSION`` and keeps its code array in a compact little-endian
binary **sidecar file** (:mod:`repro.kernel.binpack`): a
standard ``.npy`` ``uint64`` array when the bit layout fits 63 bits,
fixed-width raw records otherwise, so the pure-Python no-numpy path reads
the same bytes.  Readers memory-map sidecars, and
:class:`~repro.kernel.packing.PackedRelation` keeps the mapping as its
backing — co-located sweep workers and ``ProcessExecTier`` workers share
one set of page-cached read-only pages per hot pack instead of holding N
parsed copies.  A sidecar is a pure function of the content that names
its directory, so it is written only when the file does not already hold
its bytes; otherwise its mtime is refreshed.  A document with any other
stamp (an unstamped all-JSON document from an earlier format, or a newer
one) is a miss, recomputed and rewritten like any corrupt entry: the
store is a cache.

A warm store therefore lets a *different process* — a sweep worker,
tomorrow's CLI invocation, a CI re-run — skip requirement derivation,
module tabulation, kernel packing, and even whole solver runs.  The store
is the persistent back tier of the two-tier
:class:`~repro.engine.cache.DerivationCache`; the cache owns the bounded
in-memory front and probes the store on every memory miss.

**The module tier.**  Requirement derivation — the exponential part of
every solve — is per-module: each private module's list depends only on
that module's own relation.  Module-level artifacts therefore live in a
*shared* tier keyed by :func:`repro.workloads.module_fingerprint` (module
content only, costs and privacy flags excluded)::

    <root>/modules/<mfp[:2]>/<module-fingerprint>/
        pack.json                      # packed module relation + privacy-level
                                       # memos (CompiledModule.to_payload)
        pack.codes.npy|.bin            # binary pack codes
        req-g<gamma>-<kind>-<backend>.json   # one requirement list

Any workflow containing the module — a what-if cost variant, an edited
member of a workflow family, an entirely different pipeline reusing one
step — hits the same entries, so editing one module of a ten-module
workflow re-derives one module, not ten.  This tier is the only stored
copy of each requirement list: a workflow's mapping is its private
modules' lists, which the cache assembles in workflow module order.

**Popularity.**  ``meta.json`` is the solve service's popularity record,
and :meth:`DerivationStore.bump_popularity` (the service's flush) is its
only writer; sweeps and CLI runs write none.  It holds the request
count, the requested workflow's serialized payload and the ``(gamma,
kind, backend)`` points requests asked for, so warm-up can rebuild a
popular instance, load its module packs and preload those points.
Workflow-level ``req-*.json`` documents and module ``meta.json`` files
that earlier commits wrote are never read;
:meth:`~DerivationStore.disk_stats` counts them by file name
and :meth:`~DerivationStore.gc` evicts them like any cold file.

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
from typing import TYPE_CHECKING, Any, Iterable, Mapping

from ..kernel import CompiledModule
from ..kernel import binpack
from ..workloads.serialization import requirement_from_dict, requirement_to_dict

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.module import Module
    from ..core.requirements import RequirementList

__all__ = ["DerivationStore", "ResultKey", "FORMAT_VERSION"]

#: The on-disk format: pack code arrays live in binary sidecar files.  The
#: one format this build reads and writes; any other stamp is a miss.
FORMAT_VERSION = 2

#: Categories the store tracks hit/miss/write counters for.
_CATEGORIES = ("result", "module_requirement", "module_pack")


def _popularity_count(meta: Mapping[str, Any]) -> int:
    """A meta document's request count; 0 unless it is a genuine ``int``.

    The count is hand-editable JSON, so a string, list or bool there must
    read as "never requested" rather than raise — the next bump rewrites
    the field.
    """
    count = meta.get("popularity", 0)
    return count if isinstance(count, int) and not isinstance(count, bool) else 0


def _popularity_points(meta: Mapping[str, Any]) -> list[tuple[int, str, str]]:
    """A meta document's recorded ``(gamma, kind, backend)`` points.

    Hand-editable JSON like the count: entries that are not ``[int, str,
    str]`` are skipped (a bool is not an int here either).
    """
    points = meta.get("points")
    if not isinstance(points, list):
        return []
    return [
        tuple(point)
        for point in points
        if isinstance(point, list) and [type(v) for v in point] == [int, str, str]
    ]


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


class DerivationStore:
    """Disk-backed persistence for derived artifacts, keyed by content.

    Parameters
    ----------
    root:
        Directory to persist under; created (with parents) if absent.

    The store never loads anything it cannot validate: pack documents must
    carry the :data:`FORMAT_VERSION` stamp and are checked for bit-layout
    compatibility with the live schema and for sidecar size/header
    consistency, and any JSON, binary or structural error degrades to a
    miss.
    """

    def __init__(self, root: str | os.PathLike) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.hits: dict[str, int] = {category: 0 for category in _CATEGORIES}
        self.misses: dict[str, int] = {category: 0 for category in _CATEGORIES}
        self.writes: dict[str, int] = {category: 0 for category in _CATEGORIES}

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
                # One C-encoded string: json.dump would stream through the
                # pure-Python encoder for the same bytes.
                handle.write(json.dumps(payload, sort_keys=True))
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
        """Raise unless ``payload`` is stamped ``"format": FORMAT_VERSION``.

        Unstamped documents (an earlier all-JSON format) and newer ones
        degrade to a miss through the loaders' normal corrupt-entry path.
        """
        version = payload.get("format") if isinstance(payload, dict) else None
        if version != FORMAT_VERSION:
            raise ValueError(f"unsupported store format {version!r}")

    @staticmethod
    def _touch_sidecar(directory: Path, payload: dict) -> None:
        """Refresh a sidecar's LRU position alongside its JSON document.

        GC evicts by file mtime; touching only ``pack.json`` would let the
        sidecar age out from under a hot document.
        """
        try:
            os.utime(directory / str(payload["pack"]["codes"]["file"]), None)
        except (OSError, ValueError, KeyError, TypeError):
            pass

    @staticmethod
    def _holds(path: Path, data: bytes) -> bool:
        """Does ``path`` hold exactly ``data``?  If so, refresh its mtime.

        GC evicts each file by its own mtime, so a sidecar that is not
        rewritten is touched instead, like its document.
        """
        try:
            if path.stat().st_size != len(data) or path.read_bytes() != data:
                return False
            os.utime(path, None)
        except OSError:
            return False
        return True

    def _pack_document(self, directory: Path, compiled: CompiledModule) -> dict:
        """The stored document for ``compiled`` (its ``to_payload`` dict).

        Writes the code sidecar, unless the file already holds exactly
        those bytes (a sidecar is a pure function of the content that names
        its directory), and swaps the in-document code list for its
        descriptor; every other key (e.g. a module pack's ``levels`` memo)
        rides along unchanged.
        """
        pack_doc, blob = compiled.packed.to_binary()
        descriptor = pack_doc["codes"]
        name = f"pack.codes{binpack.FILE_SUFFIXES[descriptor['encoding']]}"
        descriptor["file"] = name
        if not self._holds(directory / name, blob):
            self._write_bytes(directory / name, blob)
        doc: dict[str, Any] = {"format": FORMAT_VERSION, "pack": pack_doc}
        for key, value in compiled.to_payload().items():
            if key != "pack":
                doc[key] = value
        return doc

    @staticmethod
    def _read_raw(path: Path) -> dict[str, Any]:
        """Best-effort JSON object read: no counters, no mtime touch.

        Meta documents are the popularity record, not cached artifacts —
        reading one must neither count as a store hit nor refresh its LRU
        position.
        """
        try:
            with open(path, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
        except (OSError, ValueError):
            return {}
        return payload if isinstance(payload, dict) else {}

    # -- shared module tier -----------------------------------------------------
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
        self, module_fingerprint: str, compiled: CompiledModule
    ) -> None:
        directory = self._module_dir(module_fingerprint)
        payload = self._pack_document(directory, compiled)
        self._write("module_pack", directory / "pack.json", payload)

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
    def bump_popularity(
        self,
        fingerprint: str,
        by: int = 1,
        payload: Mapping[str, Any] | None = None,
        points: Iterable[tuple[int, str, str]] = (),
    ) -> int:
        """Record ``by`` more requests for a workflow entry; the new count.

        The entry's ``meta.json`` is the service's popularity record, so it
        survives restarts and rides the same GC policy as the artifacts it
        ranks.  Besides the count it keeps what warm-up needs: the
        requested workflow's serialized ``payload`` (written only when the
        meta has none) and the sorted union of the ``(gamma, kind,
        backend)`` points requests asked for.  Read-modify-write without a
        cross-process lock: concurrent bumpers may lose increments, which
        ranking tolerates (popularity is a heuristic, not an invariant).
        """
        meta_path = self._dir(fingerprint) / "meta.json"
        meta = self._read_raw(meta_path)
        meta.setdefault("fingerprint", fingerprint)
        meta["popularity"] = _popularity_count(meta) + int(by)
        if payload is not None and not isinstance(meta.get("workflow_payload"), dict):
            meta["workflow_payload"] = dict(payload)
        merged = set(_popularity_points(meta)) | {tuple(point) for point in points}
        if merged:
            meta["points"] = sorted(merged)
        self._write(None, meta_path, meta)
        return meta["popularity"]

    def popularity(self, fingerprint: str) -> int:
        """The persisted request count for one workflow entry (0 if none)."""
        return _popularity_count(self._read_raw(self._dir(fingerprint) / "meta.json"))

    def popular_workflows(
        self, k: int
    ) -> list[tuple[str, int, dict, list[tuple[int, str, str]]]]:
        """The ``k`` most-requested workflow entries that can be rebuilt.

        ``(fingerprint, popularity, workflow_payload, points)`` tuples,
        most popular first (fingerprint breaks ties deterministically);
        ``points`` are the recorded ``(gamma, kind, backend)`` points.
        Entries without a serialized payload or without any recorded
        popularity are skipped — they cannot be warmed, or nobody asked
        for them.
        """
        ranked: list[tuple[int, str, dict, list[tuple[int, str, str]]]] = []
        # Workflow shards are two hex characters, so the glob can never
        # descend into the "modules" tier.
        for meta_path in self.root.glob("??/*/meta.json"):
            meta = self._read_raw(meta_path)
            payload = meta.get("workflow_payload")
            count = _popularity_count(meta)
            if not isinstance(payload, dict) or count <= 0:
                continue
            fingerprint = str(meta.get("fingerprint") or meta_path.parent.name)
            ranked.append((count, fingerprint, payload, _popularity_points(meta)))
        ranked.sort(key=lambda item: (-item[0], item[1]))
        return [(fp, count, *rest) for count, fp, *rest in ranked[: max(0, k)]]

    # -- maintenance ------------------------------------------------------------
    @staticmethod
    def _is_temp(path: Path) -> bool:
        """An in-flight atomic-write temp file (``<name>.tmp-<pid>``)?"""
        return ".tmp-" in path.name

    def _artifact_files(self) -> list[Path]:
        """Every persisted artifact under the root, temp files excluded.

        This includes the binary ``*.codes.*`` sidecars — they must ride
        the same GC, stats and LRU accounting as the JSON documents that
        reference them.
        """
        return [
            path
            for path in self.root.rglob("*")
            if path.is_file() and not self._is_temp(path)
        ]

    def disk_stats(self) -> dict[str, Any]:
        """What the store directory holds on disk (for ``repro store stats``).

        Counts bytes and files per artifact kind and per tier (workflow
        entries vs the shared ``modules/`` tier).  Files no artifact kind
        claims — e.g. the workflow-level ``pack.*``, ``outsets-*`` and
        ``relation.*`` files earlier commits wrote, which nothing reads and
        gc evicts first — count as ``"other"``.  Purely observational — no
        counters move.
        """
        kinds = {"meta": 0, "pack": 0, "requirements": 0, "results": 0, "other": 0}
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
            in_modules = module_root in entry.parents or entry == module_root
            if in_modules:
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
            elif in_modules and name.startswith("pack."):
                kinds["pack"] += 1
            elif name.startswith("req-"):
                kinds["requirements"] += 1
            elif name.startswith("result-"):
                kinds["results"] += 1
            else:
                kinds["other"] += 1
        tiers["workflow"]["entries"] = len(workflow_entries)
        tiers["modules"]["entries"] = len(module_entries)
        return {
            "root": str(self.root),
            "format_version": FORMAT_VERSION,
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
        return {
            "deleted_files": deleted_files,
            "freed_bytes": freed,
            "kept_bytes": total - freed,
            "max_bytes": max_bytes,
        }

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
