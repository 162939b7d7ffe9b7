"""Compiled standalone-privacy kernel for a single module.

A :class:`CompiledModule` packs a module's relation once (via
:class:`~repro.kernel.packing.BitLayout`) and then answers every standalone
privacy question — OUT-set counts, Γ-privacy levels, safe/minimal hidden
subsets, cardinality pairs — with word-parallel bit operations instead of
per-tuple dict/frozenset churn.  The counting condition it implements is
the one of Appendix A.4 (also used by the reference path in
:mod:`repro.core.privacy`):

    ``|OUT_x| = D_x * prod_{a in O \\ V} |Delta_a|``

where ``D_x`` is the number of distinct *visible-output* values among the
executions sharing ``x``'s *visible-input* value.  On packed codes both
projections are single AND-masks, so ``D_x`` reduces to distinct-counting
masked integers — on numpy-eligible relations one ``np.unique`` call.

Privacy levels are Γ-independent, so they are memoized per visible bitmask
and each distinct mask is evaluated once.  Safety is upward closed
(Proposition 1), so requirement derivation searches levelwise over the
negative border: a hidden set is evaluated only when every subset one
element smaller is unsafe.  The evaluated sets are the unsafe ones plus the
minimal safe ones, and the full safe list is the minimal sets' upward
closure, built without touching the relation.

Since PR 8 the sweep itself is **batched**: instead of one ``np.unique``
pass over the packed rows per candidate mask,
:meth:`CompiledModule.privacy_levels_batch` broadcasts
``codes[:, None] & masks[None, :]`` (tiled to
:data:`~repro.kernel.packing.BATCH_MEMORY_BUDGET`), sorts every projected
column in one C-level call, and recovers per-group distinct-pair counts by
run-length segmentation — so each level of the search costs one relation
pass per tile instead of one per mask.  The pure-int
scalar path remains the automatic fallback for no-numpy installs, >63-bit
layouts and small relations (the :data:`~repro.kernel.packing.NUMPY_MIN_ROWS`
family of heuristics), and both paths share one privacy-level memo, so
interleaving them never recomputes or diverges.
"""

from __future__ import annotations

import itertools
from contextlib import contextmanager
from typing import TYPE_CHECKING, Iterable, Sequence

try:
    import numpy as _np
except Exception:  # pragma: no cover - exercised only without numpy
    _np = None

from ..exceptions import PrivacyError
from .packing import (
    BATCH_MEMORY_BUDGET,
    BATCH_MIN_MASKS,
    BitLayout,
    PackedRelation,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.attributes import Value
    from ..core.module import Module
    from ..core.relation import Relation

__all__ = ["CompiledModule", "sweep_batching", "batching_enabled"]

#: Process-wide switch for the batched sweep path (scalar fallback when
#: off).  Benchmarks and differential tests flip it via :func:`sweep_batching`
#: to time and cross-check the two paths; production code never needs to.
_BATCHING_ENABLED = True


def batching_enabled() -> bool:
    """Whether the batched mask-sweep path is currently enabled."""
    return _BATCHING_ENABLED


@contextmanager
def sweep_batching(enabled: bool):
    """Temporarily force the batched sweep path on or off (tests/benchmarks)."""
    global _BATCHING_ENABLED
    previous = _BATCHING_ENABLED
    _BATCHING_ENABLED = bool(enabled)
    try:
        yield
    finally:
        _BATCHING_ENABLED = previous


def _check_gamma(gamma: int) -> None:
    if gamma < 1:
        raise PrivacyError("the privacy requirement Γ must be at least 1")


class CompiledModule:
    """Bit-compiled form of one module's (possibly restricted) relation."""

    __slots__ = (
        "module",
        "relation",
        "layout",
        "packed",
        "input_bits",
        "output_bits",
        "all_bits",
        "_range_size",
        "_level_cache",
        "sweep_stats",
    )

    def __init__(self, module: "Module", relation: "Relation | None" = None) -> None:
        self.module = module
        self.relation = relation
        rel = relation if relation is not None else module.relation()
        self.layout = BitLayout(module.schema)
        self.packed = PackedRelation.from_relation(rel, self.layout)
        self.input_bits = self.layout.mask_for(module.input_names)
        self.output_bits = self.layout.mask_for(module.output_names)
        self.all_bits = self.input_bits | self.output_bits
        self._range_size = module.range_size()
        #: visible attribute bitmask -> privacy level (Γ-independent).
        self._level_cache: dict[int, int] = {}
        #: Relation-pass accounting for the sweep paths: ``scalar_masks``
        #: counts masks resolved by per-mask passes, ``batched_masks`` masks
        #: resolved by vectorized passes, and ``batched_passes`` how many
        #: such passes ran (each covering a whole tile of masks).
        self.sweep_stats: dict[str, int] = {
            "scalar_masks": 0,
            "batched_masks": 0,
            "batched_passes": 0,
        }

    # -- stable serialization --------------------------------------------------
    def to_payload(self) -> dict:
        """JSON-safe form of the packed module tables for the derivation store.

        Besides the packed relation (which saves re-tabulating the module's
        function over its whole input domain), the Γ-independent privacy
        level memos accumulated so far are exported: a requirement
        derivation sweep probes up to ``2^k`` visible masks, so a store-
        round-tripped module answers most of a *different* Γ's sweep from
        the memo without touching the relation at all.
        """
        return {
            "pack": self.packed.to_dict(),
            "levels": sorted(
                [int(mask), int(level)] for mask, level in self._level_cache.items()
            ),
        }

    @classmethod
    def from_payload(
        cls,
        module: "Module",
        payload: dict,
        relation: "Relation | None" = None,
        base_dir: "str | None" = None,
    ) -> "CompiledModule":
        """Rebuild a compiled module from :meth:`to_payload` output.

        ``module`` must be the live module the payload was compiled from
        (the store guarantees this by keying payloads on the module's
        content fingerprint).  The packed codes are validated structurally
        against the schema's layout, and memo entries are bounds-checked;
        any mismatch raises so callers fall back to recompiling.  Loading
        never materializes ``module.relation()`` — skipping the domain
        enumeration is part of the saved work.
        """
        compiled = cls.__new__(cls)
        compiled.module = module
        compiled.relation = relation
        compiled.layout = BitLayout(module.schema)
        compiled.packed = PackedRelation.from_dict(
            compiled.layout, payload["pack"], base_dir=base_dir
        )
        compiled.input_bits = compiled.layout.mask_for(module.input_names)
        compiled.output_bits = compiled.layout.mask_for(module.output_names)
        compiled.all_bits = compiled.input_bits | compiled.output_bits
        compiled._range_size = module.range_size()
        all_bits = compiled.layout.all_bits
        levels: dict[int, int] = {}
        for entry in payload.get("levels", ()):
            mask, level = entry
            mask = int(mask)
            level = int(level)
            if not 0 <= mask <= all_bits or level < 0:
                raise ValueError("stored privacy-level memo entry out of range")
            levels[mask] = level
        compiled._level_cache = levels
        compiled.sweep_stats = {
            "scalar_masks": 0,
            "batched_masks": 0,
            "batched_passes": 0,
        }
        return compiled

    # -- bitmask helpers ------------------------------------------------------
    def visible_bits(self, visible: Iterable[str]) -> int:
        """Bitmask of the visible attributes (unknown names ignored)."""
        return self.layout.mask_for(visible)

    def _hidden_output_completions(self, visible_bits: int) -> int:
        """``prod_{a in O \\ V} |Delta_a|`` from the visible bitmask."""
        size = 1
        field_masks = self.layout.field_masks
        for name in self.module.output_names:
            if not visible_bits & field_masks[name]:
                size *= self.layout.domain_size(name)
        return size

    def _distinct_pair_groups(self, visible_bits: int) -> dict[int, int]:
        """Per visible-input group, the number of distinct visible outputs.

        Keys are packed visible-input codes; an empty dict means the
        relation is empty.  This is the kernel's one pass over the data.
        """
        vin = visible_bits & self.input_bits
        if len(self.packed) == 0:
            return {}
        if self.packed.use_numpy:
            # The numpy path never materializes Python-int codes: on an
            # mmap-backed pack ``array`` is a zero-copy view of the sidecar.
            arr = self.packed.array
            pairs = _np.unique(arr & _np.uint64(visible_bits & self.all_bits))
            groups, counts = _np.unique(pairs & _np.uint64(vin), return_counts=True)
            return {int(g): int(c) for g, c in zip(groups, counts)}
        pairs = {code & visible_bits for code in self.packed.codes}
        counts: dict[int, int] = {}
        for pair in pairs:
            group = pair & vin
            counts[group] = counts.get(group, 0) + 1
        return counts

    # -- privacy levels -------------------------------------------------------
    def privacy_level_bits(self, visible_bits: int) -> int:
        """Largest Γ for which the module is private w.r.t. the bitmask."""
        visible_bits &= self.all_bits
        cached = self._level_cache.get(visible_bits)
        if cached is not None:
            return cached
        groups = self._distinct_pair_groups(visible_bits)
        if not groups:
            level = self._range_size
        else:
            level = min(groups.values()) * self._hidden_output_completions(
                visible_bits
            )
        self._level_cache[visible_bits] = level
        self.sweep_stats["scalar_masks"] += 1
        return level

    def _batch_eligible(self, n_masks: int) -> bool:
        """Does the vectorized multi-mask pass apply to this many candidates?

        The same selection family as :attr:`PackedRelation.use_numpy`: numpy
        present, codes within the uint64 mirror, relation big enough for
        vectorization to pay off — plus enough uncached masks to amortize
        the broadcast setup over.
        """
        return (
            _BATCHING_ENABLED
            and n_masks >= BATCH_MIN_MASKS
            and self.packed.use_numpy
            and len(self.packed) > 0
        )

    def _compute_levels_batch(self, masks: Sequence[int]) -> None:
        """One vectorized pass (per memory tile) filling the level memo.

        ``masks`` are distinct, normalized, uncached visible bitmasks.  The
        pass broadcasts ``codes[:, None] & masks[None, :]``, sorts each
        projected column (equal visible pairs become contiguous runs), then
        segments the per-column distinct pairs by their visible-input part
        with one lexicographic sort — ``min_x D_x`` for every mask without a
        single per-mask relation scan.
        """
        arr = self.packed.array
        n_rows = len(self.packed)
        vis = _np.fromiter(masks, dtype=_np.uint64, count=len(masks))
        vin = vis & _np.uint64(self.input_bits)
        tile = max(1, BATCH_MEMORY_BUDGET // (8 * n_rows))
        min_counts = _np.empty(len(masks), dtype=_np.int64)
        for start in range(0, len(masks), tile):
            vis_tile = vis[start : start + tile]
            vin_tile = vin[start : start + tile]
            # One row per mask: each sort then runs over contiguous memory.
            projected = vis_tile[:, None] & arr[None, :]
            projected.sort(axis=1)
            # Distinct (visible-in, visible-out) pairs are the run starts of
            # each sorted row.
            starts = _np.empty(projected.shape, dtype=bool)
            starts[:, 0] = True
            _np.not_equal(projected[:, 1:], projected[:, :-1], out=starts[:, 1:])
            distinct_per_mask = starts.sum(axis=1)
            # Flatten the distinct pairs mask-major and tag each with its
            # mask index and visible-input group.
            pairs = projected[starts]
            mask_ids = _np.repeat(
                _np.arange(len(vis_tile), dtype=_np.int64), distinct_per_mask
            )
            groups = pairs & vin_tile[mask_ids]
            order = _np.lexsort((groups, mask_ids))
            groups = groups[order]
            mask_ids = mask_ids[order]
            # Run-length segment (mask, group) runs; their lengths are D_x.
            run_starts = _np.empty(len(groups), dtype=bool)
            run_starts[0] = True
            run_starts[1:] = (groups[1:] != groups[:-1]) | (
                mask_ids[1:] != mask_ids[:-1]
            )
            run_index = _np.flatnonzero(run_starts)
            run_sizes = _np.diff(_np.append(run_index, len(groups)))
            run_masks = mask_ids[run_index]
            first_run = _np.empty(len(run_masks), dtype=bool)
            first_run[0] = True
            first_run[1:] = run_masks[1:] != run_masks[:-1]
            min_counts[start : start + len(vis_tile)] = _np.minimum.reduceat(
                run_sizes, _np.flatnonzero(first_run)
            )
            self.sweep_stats["batched_passes"] += 1
        # The final multiply runs on Python ints: completions can reach the
        # full hidden-output domain product, which must not wrap in int64.
        output_fields = [
            (self.layout.field_masks[name], self.layout.domain_size(name))
            for name in self.module.output_names
        ]
        cache = self._level_cache
        for index, mask in enumerate(masks):
            completions = 1
            for field_mask, size in output_fields:
                if not mask & field_mask:
                    completions *= size
            cache[mask] = int(min_counts[index]) * completions
        self.sweep_stats["batched_masks"] += len(masks)

    def privacy_levels_batch(self, masks: Iterable[int]) -> list[int]:
        """Privacy levels for many visible bitmasks in one pass per tile.

        Semantically ``[self.privacy_level_bits(m) for m in masks]`` — the
        result order matches the input order, duplicate and already-memoized
        masks are filtered before dispatch, and every computed level lands
        in the same memo the scalar path uses (so ``to_payload()`` exports
        and store round-trips are path-independent).  Falls back to the
        scalar path automatically when the relation is not numpy-eligible
        (no numpy, >63-bit layout, few rows) or the batch is too small.
        """
        all_bits = self.all_bits
        normalized = [mask & all_bits for mask in masks]
        cache = self._level_cache
        pending: list[int] = []
        seen: set[int] = set()
        for mask in normalized:
            if mask not in cache and mask not in seen:
                seen.add(mask)
                pending.append(mask)
        if pending:
            if self._batch_eligible(len(pending)):
                self._compute_levels_batch(pending)
            else:
                for mask in pending:
                    self.privacy_level_bits(mask)
        return [cache[mask] for mask in normalized]

    def privacy_level(self, visible: Iterable[str]) -> int:
        """``min_x |OUT_x|``; the module's standalone privacy level."""
        return self.privacy_level_bits(self.visible_bits(visible))

    def is_private(self, visible: Iterable[str], gamma: int) -> bool:
        _check_gamma(gamma)
        return self.privacy_level(visible) >= gamma

    def is_safe_hidden_batch(
        self, hidden_masks: Sequence[int], gamma: int
    ) -> list[bool]:
        """Batched safety verdicts for many hidden bitmasks (one per input)."""
        _check_gamma(gamma)
        all_bits = self.all_bits
        levels = self.privacy_levels_batch(
            [all_bits & ~hidden for hidden in hidden_masks]
        )
        return [level >= gamma for level in levels]

    def out_counts(
        self, visible: Iterable[str]
    ) -> dict[tuple["Value", ...], int]:
        """``|OUT_x|`` per visible-input value, as the reference check returns."""
        visible_set = set(visible)
        vin_names = [name for name in self.module.input_names if name in visible_set]
        visible_bits = self.visible_bits(visible_set)
        completions = self._hidden_output_completions(visible_bits)
        groups = self._distinct_pair_groups(visible_bits)
        unpack = self.layout.unpack
        return {
            unpack(group, vin_names): count * completions
            for group, count in groups.items()
        }

    # -- safe-subset sweeps ---------------------------------------------------
    def minimal_safe_hidden_subsets(
        self, gamma: int, hidable: Iterable[str] | None = None
    ) -> list[frozenset[str]]:
        """The inclusion-minimal safe hidden subsets, sorted by size, then names.

        A levelwise search over the negative border (Mannila and Toivonen,
        1997): safety is upward closed (Proposition 1), so a set is tested
        only when every subset one element smaller is unsafe, and the safe
        sets found are exactly the minimal ones.  Each level is one
        :meth:`is_safe_hidden_batch` call whose unsafe sets seed the next.
        Sets are bitmasks over positions in the de-duplicated ``hidable``
        tuple, so names outside the layout (attribute mask 0) behave as in
        the reference enumerator.
        """
        _check_gamma(gamma)
        if hidable is None:
            hidable = self.module.attribute_names
        names = tuple(dict.fromkeys(hidable))
        masks = [self.layout.field_masks.get(name, 0) for name in names]
        minimal: list[frozenset[str]] = []
        level = {0: 0}  # position bitmask -> hidden attribute bitmask
        while level:
            verdicts = self.is_safe_hidden_batch(list(level.values()), gamma)
            unsafe: dict[int, int] = {}
            for (positions, bits), safe in zip(level.items(), verdicts):
                if safe:
                    minimal.append(
                        frozenset(n for i, n in enumerate(names) if positions >> i & 1)
                    )
                else:
                    unsafe[positions] = bits
            level = {}
            for positions, bits in unsafe.items():
                for top in range(positions.bit_length(), len(names)):
                    candidate = positions | 1 << top
                    rest = positions  # is each other (k-1)-subset unsafe?
                    while rest and candidate ^ (rest & -rest) in unsafe:
                        rest &= rest - 1
                    if not rest:
                        level[candidate] = bits | masks[top]
        return sorted(minimal, key=lambda s: (len(s), tuple(sorted(s))))

    def enumerate_safe_hidden_subsets(
        self, gamma: int, hidable: Iterable[str] | None = None
    ) -> list[frozenset[str]]:
        """All safe hidden subsets of the hidable attributes, sorted.

        The upward closure of :meth:`minimal_safe_hidden_subsets`: the
        combinations of the given names (repeats kept, as the reference
        enumerator does) that contain some minimal safe set.  It makes no
        relation pass of its own.
        """
        names = (
            tuple(hidable) if hidable is not None else self.module.attribute_names
        )
        minimal = self.minimal_safe_hidden_subsets(gamma, hidable=names)
        safe = [
            hidden
            for size in range(len(names) + 1)
            for hidden in map(frozenset, itertools.combinations(names, size))
            if any(subset <= hidden for subset in minimal)
        ]
        return sorted(safe, key=lambda s: (len(s), tuple(sorted(s))))

    def _all_hidden_choices_safe(
        self,
        in_masks: Sequence[int],
        out_masks: Sequence[int],
        alpha: int,
        beta: int,
        gamma: int,
    ) -> bool:
        """Is *every* α-input/β-output hidden choice safe?  Batched check."""
        candidates: list[int] = []
        for ins in itertools.combinations(in_masks, alpha):
            base = 0
            for mask in ins:
                base |= mask
            for outs in itertools.combinations(out_masks, beta):
                bits = base
                for mask in outs:
                    bits |= mask
                candidates.append(bits)
        # Chunked so an early unsafe choice short-circuits the remaining
        # combinations (matching the scalar loop's early exit) while each
        # chunk still amortizes one vectorized pass.
        chunk = 512
        for start in range(0, len(candidates), chunk):
            if not all(
                self.is_safe_hidden_batch(candidates[start : start + chunk], gamma)
            ):
                return False
        return True

    def safe_cardinality_pairs(self, gamma: int) -> list[tuple[int, int]]:
        """All (α, β) with *every* α-input/β-output hidden choice safe.

        Safety of a pair is monotone in both coordinates (an (α+1, β) choice
        hides a superset of some (α, β) choice, so Proposition 1 applies):
        the safe region is upward closed and fully described by the frontier
        ``β*(α) = min{β : (α, β) safe}``, which is non-increasing in α.
        Each α therefore only probes β below the previous frontier — once a
        combination is known unsafe (or safe), every dominated (or
        dominating) pair is decided without re-testing its choices — and the
        choices of one probe are evaluated as a batch.
        """
        _check_gamma(gamma)
        in_masks = [self.layout.field_masks[n] for n in self.module.input_names]
        out_masks = [self.layout.field_masks[n] for n in self.module.output_names]
        n_out = len(out_masks)
        valid: list[tuple[int, int]] = []
        # β*(previous α); n_out + 1 encodes "no safe β at all".
        frontier = n_out + 1
        for alpha in range(len(in_masks) + 1):
            beta_star = frontier
            for beta in range(min(frontier, n_out + 1)):
                if self._all_hidden_choices_safe(
                    in_masks, out_masks, alpha, beta, gamma
                ):
                    beta_star = beta
                    break
            valid.extend((alpha, beta) for beta in range(beta_star, n_out + 1))
            frontier = beta_star
        return valid
