"""Two-tier derivation cache for the Secure-View engine.

Everything expensive about a Secure-View instance happens *before* and
*after* the LP/greedy/exact solve itself:

* **requirement derivation** — ``derive_workflow_requirements`` enumerates,
  per private module, every hidden subset (exponential in the module arity)
  and, for cardinality lists, every (α, β) combination of attribute choices;
* **kernel compilation** — tabulating each module's relation and packing
  it into integer bitmask tables, which derivation and the Γ-privacy
  certificate (standalone levels, Theorems 4 and 8) both read.

Both depend only on module content, Γ, and the requirement kind — never on
attribute costs or on which solver runs.  A :class:`DerivationCache`
therefore memoizes them once per (workflow, Γ, kind) so a multi-solver
sweep (``repro compare``, ``repro sweep``, the engine benchmarks,
:mod:`repro.analysis.experiments`) pays the exponential enumeration a
single time instead of once per solver.

Since PR 3 the cache is **two-tier**:

* the **front** is a bounded in-memory table (FIFO eviction at
  :data:`MEMORY_LIMIT` entries per category), exactly as fast as before;
* the **back** is an optional persistent
  :class:`~repro.engine.store.DerivationStore`: on a front miss the cache
  probes the store by each module's content fingerprint, and on a true
  miss it derives and writes through.  A warm store therefore makes
  ``Planner.solve`` skip derivation entirely *across process boundaries* —
  sweep workers, repeated CLI runs, CI re-runs.

Since PR 4 requirement derivation is additionally **module-granular**: a
workflow's requirement mapping is assembled from per-module lookups keyed
by :func:`~repro.workloads.module_fingerprint` (module *content*, costs and
privacy flags excluded).  The per-module tables — requirement lists and
compiled module packs — are shared by every workflow the cache has seen and
by the store's ``modules/`` tier, so two workflows sharing nine of ten
modules derive the tenth only, and editing one module of a pipeline
re-derives exactly that module (``reused_modules`` / ``rederived_modules``
count it).  The ``modules/`` tier is the only stored copy of each list;
a workflow's mapping is memoized in memory per workflow object, so a
repeat within one process is one lookup, not one per module.

Hit/miss counters are kept per category (including ``store_hits`` /
``store_misses`` for the back tier) so benchmarks and tests can assert the
sharing actually happened.

Since PR 5 every cache operation is **thread-safe**: lookups, derivations
and counter updates run under one reentrant lock, so a single cache can
back the long-lived solve service (:mod:`repro.service`), where many
handler threads solve against the same hot cache concurrently.  The lock
serializes *derivation*, not solving — solvers run outside the cache — and
the service's request coalescing keeps identical concurrent derivations
from queueing up behind each other in the first place.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping

from ..core.module import Module
from ..core.requirements import RequirementList, derive_module_requirement
from ..core.workflow import Workflow
from ..kernel import KERNEL, VALID_BACKENDS, CompiledModule, resolve_backend

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .store import DerivationStore

__all__ = ["CacheStats", "DerivationCache", "MEMORY_LIMIT"]

#: Bound on in-memory entries per artifact category (FIFO eviction).
MEMORY_LIMIT = 128

#: Bound on pinned workflows/modules.  Pins keep the objects behind the
#: ``id()``-keyed tables alive so an id can never be recycled while its
#: entries exist; evicting a pin therefore purges its entries with it.
#: Long-lived processes (the solve service) would otherwise grow without
#: bound as distinct instances stream past.  Workflows with *seeded*
#: requirement lists are exempt — those lists are not re-derivable, so
#: dropping them could change answers.
PIN_LIMIT = 4 * MEMORY_LIMIT


def _locked(method):
    """Run a cache method under the instance's reentrant lock.

    Reentrancy matters: ``requirements`` calls ``module_requirement``,
    which calls ``compiled_module``, and all of them update shared tables
    and counters.
    """

    def wrapper(self, *args, **kwargs):
        with self._lock:
            return method(self, *args, **kwargs)

    wrapper.__name__ = method.__name__
    wrapper.__doc__ = method.__doc__
    wrapper.__wrapped__ = method
    return wrapper


@dataclass(frozen=True)
class CacheStats:
    """Immutable snapshot of a :class:`DerivationCache`'s counters."""

    #: ``requirements`` calls that derived no module list (a seeded list,
    #: the memo, or every module served by the module tier) vs calls that
    #: derived at least one.
    derivation_hits: int = 0
    derivation_misses: int = 0
    store_hits: int = 0
    store_misses: int = 0
    #: Module-granular accounting: per-module requirement lookups served
    #: from the shared module tier (memory or store) vs actually derived.
    reused_modules: int = 0
    rederived_modules: int = 0
    #: Batched-sweep accounting for kernel derivations that ran through this
    #: cache: candidate masks resolved by vectorized multi-mask passes vs by
    #: per-mask scalar passes, and how many vectorized passes over a packed
    #: relation were paid in total (the O(masks) -> O(batches) win).
    batched_masks: int = 0
    batched_passes: int = 0
    scalar_masks: int = 0
    #: Packs served from the store whose code arrays are memory-mapped
    #: sidecars (shared, page-cached, zero-copy) rather than parsed copies,
    #: and the bytes mapped in total.
    mmap_packs: int = 0
    mmap_bytes: int = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "derivation_hits": self.derivation_hits,
            "derivation_misses": self.derivation_misses,
            "store_hits": self.store_hits,
            "store_misses": self.store_misses,
            "reused_modules": self.reused_modules,
            "rederived_modules": self.rederived_modules,
            "batched_masks": self.batched_masks,
            "batched_passes": self.batched_passes,
            "scalar_masks": self.scalar_masks,
            "mmap_packs": self.mmap_packs,
            "mmap_bytes": self.mmap_bytes,
        }

    def delta(self, earlier: "CacheStats") -> "CacheStats":
        """Counter increments between an earlier snapshot and this one."""
        return CacheStats(
            **{
                name: value - getattr(earlier, name)
                for name, value in self.as_dict().items()
            }
        )


@dataclass
class DerivationCache:
    """Memoizes derivations with a bounded memory front and optional disk back.

    Workflows are identified by object identity (they are mutable graph
    containers); the cache pins every workflow it has seen so an ``id()``
    can never be recycled while its entries are alive.  A cache may be
    shared freely across :class:`~repro.engine.planner.Planner` instances —
    e.g. one cache for a whole parameter sweep.

    Pass a :class:`~repro.engine.store.DerivationStore` as ``store`` to
    make derivations survive the process: memory misses probe the store by
    content fingerprint, true misses write through.
    """

    store: "DerivationStore | None" = None
    max_entries: int = MEMORY_LIMIT
    max_pins: int = PIN_LIMIT
    _lock: threading.RLock = field(
        default_factory=threading.RLock, repr=False, compare=False
    )
    _workflows: dict[int, Workflow] = field(default_factory=dict)
    _requirements: dict[tuple, Mapping[str, RequirementList]] = field(
        default_factory=dict
    )
    _seeded_requirements: dict[tuple, Mapping[str, RequirementList]] = field(
        default_factory=dict
    )
    #: Shared module tier: keyed by module *content* fingerprint, so any two
    #: workflows containing the same module hit the same entries.
    _modules: dict[int, Module] = field(default_factory=dict)
    _module_fingerprints: dict[int, str] = field(default_factory=dict)
    _module_requirements: dict[tuple, RequirementList] = field(default_factory=dict)
    _compiled_modules: dict[str, CompiledModule] = field(default_factory=dict)
    #: Fingerprints of module packs this cache compiled and has not yet
    #: written to the store.
    _unsaved_packs: set[str] = field(default_factory=set)
    derivation_hits: int = 0
    derivation_misses: int = 0
    store_hits: int = 0
    store_misses: int = 0
    reused_modules: int = 0
    rederived_modules: int = 0
    batched_masks: int = 0
    batched_passes: int = 0
    scalar_masks: int = 0
    mmap_packs: int = 0
    mmap_bytes: int = 0

    def _evict_pin(self, key: int) -> None:
        """Drop one pinned workflow and every id-keyed entry it anchors."""
        self._workflows.pop(key, None)
        for entry_key in [k for k in self._requirements if k[0] == key]:
            del self._requirements[entry_key]

    def _pin(self, workflow: Workflow) -> int:
        key = id(workflow)
        if key in self._workflows:
            return key
        self._workflows[key] = workflow
        if self.max_pins and len(self._workflows) > self.max_pins:
            # Evict the oldest pin without seeded requirement lists (those
            # are not re-derivable; everything id-keyed is).  Entries go
            # with the pin so a recycled id can never alias stale state.
            seeded = {entry_key[0] for entry_key in self._seeded_requirements}
            for old in list(self._workflows):
                if old != key and old not in seeded:
                    self._evict_pin(old)
                    break
        return key

    def _pin_module(self, module: Module) -> int:
        key = id(module)
        if key in self._modules:
            return key
        self._modules[key] = module
        if self.max_pins and len(self._modules) > self.max_pins:
            # Module-level artifacts are content-keyed (fingerprint
            # strings), so only the pin and its id -> fingerprint memo go.
            for old in list(self._modules):
                if old != key:
                    del self._modules[old]
                    self._module_fingerprints.pop(old, None)
                    break
        return key

    def _remember(self, table: dict, key, value) -> None:
        """Insert into a front-tier table, evicting FIFO past the bound."""
        if self.max_entries and self.max_entries > 0:
            while table and len(table) >= self.max_entries:
                table.pop(next(iter(table)))
        table[key] = value

    # -- content fingerprints -----------------------------------------------------
    @_locked
    def module_fingerprint(self, module: Module, known: str | None = None) -> str:
        """The module's content hash (shared-tier key), computed at most once.

        Costs and privacy flags are excluded (see
        :func:`repro.workloads.module_fingerprint`), so a what-if cost
        override or a privatization maps to the same entry.  ``known`` is
        the hash of the payload the caller rebuilt ``module`` from
        (:meth:`~repro.workloads.fingerprint.InstanceKeys.modules`); it is
        recorded instead of tabulating the module to hash it.
        """
        key = self._pin_module(module)
        cached = self._module_fingerprints.get(key)
        if cached is None:
            if known is None:
                from ..workloads.fingerprint import module_fingerprint

                known = module_fingerprint(module)
            cached = self._module_fingerprints[key] = known
        return cached

    @_locked
    def attach_store(self, store: "DerivationStore | None") -> None:
        """Attach (or detach, with ``None``) the persistent back tier."""
        self.store = store

    # -- kernel compilation -------------------------------------------------------
    @_locked
    def compiled_module(self, module: Module) -> CompiledModule:
        """The bit-compiled form of one module, packed at most once per content.

        Keyed by module fingerprint, so every workflow containing the module
        (and every Γ/kind sweep over it) shares one pack — in memory and,
        when a store is attached, on disk (privacy-level memos included, so
        a round-tripped pack answers repeat sweeps from the memo).
        """
        fingerprint = self.module_fingerprint(module)
        cached = self._compiled_modules.get(fingerprint)
        if cached is not None:
            return cached
        if self.store is not None:
            loaded = self.store.load_module_pack(fingerprint, module)
            if loaded is not None:
                self.store_hits += 1
                mapped = getattr(loaded.packed, "mapped_bytes", 0)
                if mapped:
                    self.mmap_packs += 1
                    self.mmap_bytes += mapped
                self._remember(self._compiled_modules, fingerprint, loaded)
                return loaded
            self.store_misses += 1
        compiled = CompiledModule(module)
        self._remember(self._compiled_modules, fingerprint, compiled)
        if self.store is not None:
            self._unsaved_packs.add(fingerprint)
        return compiled

    @_locked
    def module_privacy_level(self, module: Module, visible: frozenset[str]) -> int:
        """The module's standalone privacy level w.r.t. ``visible``.

        Read from its compiled pack under the cache lock, because
        derivations and store exports share the pack's level memo.  A pack
        no derivation has written yet (a module with seeded lists) is
        written through here.
        """
        compiled = self.compiled_module(module)
        level = compiled.privacy_level(visible)
        fingerprint = self.module_fingerprint(module)
        if self.store is not None and fingerprint in self._unsaved_packs:
            self.store.save_module_pack(fingerprint, compiled)
            self._unsaved_packs.discard(fingerprint)
        return level

    # -- requirement derivation -------------------------------------------------
    @_locked
    def module_requirement(
        self,
        module: Module,
        gamma: int,
        kind: str,
        backend: str | None = None,
    ) -> RequirementList:
        """One module's requirement list, derived at most once per *content*.

        This is the unit the whole derivation pipeline is keyed on: entries
        are shared across workflows, cost variants and edit-chains through
        the module fingerprint, both in the memory front and in the store's
        ``modules/`` tier.  ``reused_modules`` / ``rederived_modules`` count
        how the lookup was served.
        """
        backend = resolve_backend(backend)
        fingerprint = self.module_fingerprint(module)
        key = (fingerprint, gamma, kind, backend)
        cached = self._module_requirements.get(key)
        if cached is not None:
            self.reused_modules += 1
            return cached
        if self.store is not None:
            loaded = self.store.load_module_requirement(
                fingerprint, gamma, kind, backend
            )
            if loaded is not None:
                self.store_hits += 1
                self.reused_modules += 1
                self._remember(self._module_requirements, key, loaded)
                return loaded
            self.store_misses += 1
        self.rederived_modules += 1
        if backend == KERNEL:
            compiled = self.compiled_module(module)
            sweep_before = dict(compiled.sweep_stats)
            derived = derive_module_requirement(
                module, gamma, kind=kind, compiled=compiled
            )
            evaluated = 0
            for counter, value in compiled.sweep_stats.items():
                delta = value - sweep_before[counter]
                evaluated += delta
                setattr(self, counter, getattr(self, counter) + delta)
            if self.store is not None and (
                evaluated or fingerprint in self._unsaved_packs
            ):
                # Export the pack *after* the sweep so the privacy-level
                # memos it populated ride along for future Γ/kind sweeps.
                # A pack that gained no level is already stored as it is.
                self.store.save_module_pack(fingerprint, compiled)
                self._unsaved_packs.discard(fingerprint)
        else:
            derived = derive_module_requirement(
                module, gamma, kind=kind, backend=backend
            )
        self._remember(self._module_requirements, key, derived)
        if self.store is not None:
            self.store.save_module_requirement(
                fingerprint, gamma, kind, backend, derived
            )
        return derived

    @_locked
    def requirements(
        self,
        workflow: Workflow,
        gamma: int,
        kind: str,
        backend: str | None = None,
    ) -> Mapping[str, RequirementList]:
        """Requirement lists for every private module, derived at most once.

        A seeded list or this workflow's in-memory memo answers first.
        Otherwise the mapping is *assembled* in workflow module order from
        :meth:`module_requirement` lookups (memory, then the store's
        ``modules/`` tier, then derivation), so only modules this cache and
        the store have never seen by content are derived.  The call counts
        one ``derivation_misses`` when it derived at least one module list,
        and one ``derivation_hits`` otherwise.
        """
        backend = resolve_backend(backend)
        key = (self._pin(workflow), gamma, kind, backend)
        cached = self._seeded_requirements.get(key)
        if cached is None:
            cached = self._requirements.get(key)
        if cached is not None:
            self.derivation_hits += 1
            return cached
        rederived = self.rederived_modules
        assembled = {
            module.name: self.module_requirement(module, gamma, kind, backend=backend)
            for module in workflow.private_modules
        }
        self._remember(self._requirements, key, assembled)
        if self.rederived_modules > rederived:
            self.derivation_misses += 1
        else:
            self.derivation_hits += 1
        return assembled

    @_locked
    def seed_requirements(
        self,
        workflow: Workflow,
        gamma: int,
        kind: str,
        requirements: Mapping[str, RequirementList],
    ) -> None:
        """Pre-populate the cache with already-derived requirement lists.

        Used when a :class:`SecureViewProblem` arrives with its lists already
        attached (loaded from a problem file, built by a generator) so the
        engine never re-derives what the caller paid for.  Caller-provided
        lists are backend-independent, so they satisfy every backend.  They
        are seeded into a *pinned* memory table, exempt from the FIFO bound
        and never persisted: unlike derived lists they may not be
        re-derivable from the workflow (generators attach random lists), so
        silently evicting one would change answers, and the store only
        persists what it can re-key by content.
        """
        pin = self._pin(workflow)
        for backend in VALID_BACKENDS:
            self._seeded_requirements.setdefault(
                (pin, gamma, kind, backend), requirements
            )

    # -- bookkeeping ------------------------------------------------------------
    def stats(self) -> CacheStats:
        """Snapshot of the hit/miss counters (front and store tiers).

        Deliberately *not* under the cache lock: a worker holds that lock
        for the whole of a derivation, and the serving tier's ``/metrics``
        must stay responsive while the server is busiest.  Each counter
        read is atomic (plain ints under the GIL); under concurrency the
        snapshot may mix counters from instants a few operations apart,
        which monitoring tolerates — quiescent readers (tests, benchmarks,
        sweep deltas) see exact values.
        """
        return CacheStats(
            derivation_hits=self.derivation_hits,
            derivation_misses=self.derivation_misses,
            store_hits=self.store_hits,
            store_misses=self.store_misses,
            reused_modules=self.reused_modules,
            rederived_modules=self.rederived_modules,
            batched_masks=self.batched_masks,
            batched_passes=self.batched_passes,
            scalar_masks=self.scalar_masks,
            mmap_packs=self.mmap_packs,
            mmap_bytes=self.mmap_bytes,
        )

    @_locked
    def clear(self) -> None:
        """Drop every in-memory entry (including pinned workflows and
        modules, module fingerprints and compiled packs) and reset all
        counters.

        The persistent store, when attached, keeps its on-disk artifacts —
        ``clear`` empties the memory front, never the disk back.
        """
        self._workflows.clear()
        self._requirements.clear()
        self._seeded_requirements.clear()
        self._modules.clear()
        self._module_fingerprints.clear()
        self._module_requirements.clear()
        self._compiled_modules.clear()
        self._unsaved_packs.clear()
        self.derivation_hits = self.derivation_misses = 0
        self.store_hits = self.store_misses = 0
        self.reused_modules = self.rederived_modules = 0
        self.batched_masks = self.batched_passes = self.scalar_masks = 0
        self.mmap_packs = self.mmap_bytes = 0
