"""The standalone Secure-View problem (Section 3).

For a single module ``m`` with relation ``R`` and additive attribute costs,
the standalone Secure-View problem asks for a visible subset ``V`` such that
``m`` is Γ-standalone-private w.r.t. ``V`` and the cost of the hidden
attributes ``c(V̄)`` is minimized.  The paper shows the problem needs time
exponential in the number of attributes ``k`` and linear in the number of
executions ``N`` in the worst case (Theorems 1–3); the algorithms here are
the matching upper bounds of Section 3.2:

* :class:`SafeViewOracle` — the Safe-View decision procedure (is ``V``
  safe?), with a call counter so experiments can report oracle complexity,
* :func:`minimum_cost_safe_subset` — Algorithm 2: exhaustive search over
  visible subsets for the minimum-cost hidden set,
* :func:`enumerate_safe_hidden_subsets` / :func:`minimal_safe_hidden_subsets`
  — the "output all safe attribute sets" variant mentioned at the end of
  Section 3.2, which Sections 4–5 reuse as requirement lists.

With ``backend="kernel"`` (the default) the compiled kernel finds the
minimal safe sets levelwise, testing a set only when every subset one
element smaller is unsafe, one vectorized pass over the packed relation
per level; the full safe list is their upward closure (see
:mod:`repro.kernel.module_kernel`).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

from ..exceptions import InfeasibleError, PrivacyError
from .module import Module
from .privacy import is_standalone_private, standalone_privacy_level
from .relation import Relation

__all__ = [
    "SafeViewOracle",
    "StandaloneSolution",
    "minimum_cost_safe_subset",
    "enumerate_safe_hidden_subsets",
    "minimal_safe_hidden_subsets",
    "pareto_minimal_pairs",
    "safe_cardinality_pairs",
    "minimal_safe_cardinality_pairs",
]


class SafeViewOracle:
    """The Safe-View oracle of Section 3: decide whether ``V`` is safe.

    Wraps the counting-based privacy check and counts calls, memoizing
    answers (the oracle is deterministic).  The call counter lets the
    benchmarks report how many subsets an algorithm probed, mirroring the
    communication-complexity measurements of Theorem 3.
    """

    def __init__(
        self,
        module: Module,
        gamma: int,
        relation: Relation | None = None,
        backend: str | None = None,
    ) -> None:
        if gamma < 1:
            raise PrivacyError("the privacy requirement Γ must be at least 1")
        self.module = module
        self.gamma = gamma
        self.relation = relation
        self.backend = backend
        self.calls = 0
        self._cache: dict[frozenset[str], bool] = {}

    def is_safe(self, visible: Iterable[str]) -> bool:
        """Is the module Γ-standalone-private w.r.t. visible set ``V``?"""
        key = frozenset(visible)
        self.calls += 1
        cached = self._cache.get(key)
        if cached is None:
            cached = is_standalone_private(
                self.module,
                key,
                self.gamma,
                relation=self.relation,
                backend=self.backend,
            )
            self._cache[key] = cached
        return cached

    def is_safe_hidden(self, hidden: Iterable[str]) -> bool:
        """Same oracle phrased on the hidden side ``V̄``."""
        hidden_set = set(hidden)
        visible = [
            name for name in self.module.attribute_names if name not in hidden_set
        ]
        return self.is_safe(visible)

    def reset_counter(self) -> None:
        self.calls = 0


@dataclass(frozen=True)
class StandaloneSolution:
    """Result of the standalone Secure-View optimization for one module."""

    module_name: str
    hidden_attributes: frozenset[str]
    visible_attributes: frozenset[str]
    cost: float
    gamma: int
    oracle_calls: int = 0
    meta: dict = field(default_factory=dict, compare=False)


def _iter_hidden_subsets(names: Sequence[str]) -> Iterator[tuple[str, ...]]:
    """All subsets of ``names``, smallest first (so cheap answers come early)."""
    for size in range(len(names) + 1):
        yield from itertools.combinations(names, size)


def minimum_cost_safe_subset(
    module: Module,
    gamma: int,
    relation: Relation | None = None,
    cost_limit: float | None = None,
    hidable: Iterable[str] | None = None,
    backend: str | None = None,
) -> StandaloneSolution:
    """Algorithm 2: exhaustive minimum-cost safe subset for one module.

    Parameters
    ----------
    module, gamma:
        The module and its privacy requirement Γ.
    relation:
        Optional restriction of the module relation (defaults to the full
        standalone relation).
    cost_limit:
        If given, only hidden sets of cost ``<= cost_limit`` are considered
        (the decision version of the problem); :class:`InfeasibleError` is
        raised when no such safe set exists.
    hidable:
        Restrict the attributes that may be hidden (defaults to all of
        ``I ∪ O``); useful when some attributes must stay visible.

    Returns the minimum-cost solution; raises :class:`InfeasibleError` when
    even hiding every hidable attribute does not reach Γ-privacy.
    """
    oracle = SafeViewOracle(module, gamma, relation=relation, backend=backend)
    schema = module.schema
    names = tuple(hidable) if hidable is not None else module.attribute_names
    for name in names:
        schema[name]  # validates the attribute exists

    best: tuple[float, tuple[str, ...]] | None = None
    for hidden in _iter_hidden_subsets(names):
        cost = schema.total_cost(hidden)
        if cost_limit is not None and cost > cost_limit:
            continue
        if best is not None and cost >= best[0]:
            continue
        if oracle.is_safe_hidden(hidden):
            best = (cost, hidden)
    if best is None:
        raise InfeasibleError(
            f"module {module.name!r} admits no safe subset for Γ={gamma}"
            + (f" within cost {cost_limit}" if cost_limit is not None else "")
        )
    cost, hidden = best
    hidden_set = frozenset(hidden)
    return StandaloneSolution(
        module_name=module.name,
        hidden_attributes=hidden_set,
        visible_attributes=frozenset(set(module.attribute_names) - hidden_set),
        cost=cost,
        gamma=gamma,
        oracle_calls=oracle.calls,
        meta={"privacy_level": standalone_privacy_level(
            module,
            set(module.attribute_names) - hidden_set,
            relation=relation,
            backend=backend,
        )},
    )


def enumerate_safe_hidden_subsets(
    module: Module,
    gamma: int,
    relation: Relation | None = None,
    hidable: Iterable[str] | None = None,
    backend: str | None = None,
) -> list[frozenset[str]]:
    """All hidden subsets ``V̄ ⊆ I ∪ O`` whose complement is safe for Γ.

    The list is sorted by (size, lexicographic) order.  This is the
    exhaustive enumeration mentioned at the end of Section 3.2; Sections 4–5
    use it to build requirement lists.  The kernel backend returns the
    upward closure of the kernel's minimal sets, with no sweep of its own;
    the reference backend probes the Safe-View oracle subset by subset.
    """
    from ..kernel import compile_module, resolve_backend

    if resolve_backend(backend) == "kernel":
        return compile_module(module, relation).enumerate_safe_hidden_subsets(
            gamma, hidable=hidable
        )
    oracle = SafeViewOracle(module, gamma, relation=relation, backend="reference")
    names = tuple(hidable) if hidable is not None else module.attribute_names
    safe = [
        frozenset(hidden)
        for hidden in _iter_hidden_subsets(names)
        if oracle.is_safe_hidden(hidden)
    ]
    return sorted(safe, key=lambda s: (len(s), tuple(sorted(s))))


def minimal_safe_hidden_subsets(
    module: Module,
    gamma: int,
    relation: Relation | None = None,
    hidable: Iterable[str] | None = None,
    backend: str | None = None,
) -> list[frozenset[str]]:
    """The inclusion-minimal safe hidden subsets of a module.

    By Proposition 1 safety is monotone in the hidden set (hiding more never
    hurts), so the minimal hidden sets form an antichain that fully describes
    all safe choices.  These are exactly the pairs ``(I_i^j, O_i^j)`` a
    set-constraint requirement list enumerates.  The kernel backend finds
    them by a levelwise search over the negative border; the reference
    backend filters the full enumeration.
    """
    from ..kernel import compile_module, resolve_backend

    if resolve_backend(backend) == "kernel":
        return compile_module(module, relation).minimal_safe_hidden_subsets(
            gamma, hidable=hidable
        )
    safe = enumerate_safe_hidden_subsets(
        module, gamma, relation=relation, hidable=hidable, backend="reference"
    )
    minimal: list[frozenset[str]] = []
    for candidate in safe:  # sorted by size, so subsets come before supersets
        if not any(other <= candidate for other in minimal):
            minimal.append(candidate)
    return minimal


def safe_cardinality_pairs(
    module: Module,
    gamma: int,
    relation: Relation | None = None,
    backend: str | None = None,
) -> list[tuple[int, int]]:
    """All pairs ``(α, β)`` such that hiding *any* α inputs and β outputs is safe.

    This is the semantics of cardinality constraints in Section 4.2: a pair
    is valid only if every choice of α input attributes and β output
    attributes yields a safe hidden set.  The full (non-minimal) list is
    returned sorted lexicographically.
    """
    from ..kernel import compile_module, resolve_backend

    if resolve_backend(backend) == "kernel":
        return compile_module(module, relation).safe_cardinality_pairs(gamma)
    oracle = SafeViewOracle(module, gamma, relation=relation, backend="reference")
    inputs = module.input_names
    outputs = module.output_names
    valid: list[tuple[int, int]] = []
    for alpha in range(len(inputs) + 1):
        for beta in range(len(outputs) + 1):
            ok = all(
                oracle.is_safe_hidden(set(ins) | set(outs))
                for ins in itertools.combinations(inputs, alpha)
                for outs in itertools.combinations(outputs, beta)
            )
            if ok:
                valid.append((alpha, beta))
    return valid


def pareto_minimal_pairs(pairs: Iterable[tuple[int, int]]) -> list[tuple[int, int]]:
    """The Pareto frontier of ``(α, β)`` pairs under component-wise dominance.

    A pair dominates another if it requires no more hidden inputs *and* no
    more hidden outputs.  Shared by the reference and compiled derivation
    paths so the dominance rule can never diverge between them.
    """
    minimal: list[tuple[int, int]] = []
    for alpha, beta in sorted(pairs):
        if not any(a <= alpha and b <= beta for a, b in minimal):
            minimal.append((alpha, beta))
    return minimal


def minimal_safe_cardinality_pairs(
    module: Module,
    gamma: int,
    relation: Relation | None = None,
    backend: str | None = None,
) -> list[tuple[int, int]]:
    """The Pareto-minimal ``(α, β)`` pairs among :func:`safe_cardinality_pairs`.

    The Pareto frontier is what a non-redundant cardinality requirement
    list ``L_i`` contains (Section 4.2 / B.4).
    """
    return pareto_minimal_pairs(
        safe_cardinality_pairs(module, gamma, relation=relation, backend=backend)
    )
