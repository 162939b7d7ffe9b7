"""Attributes and finite domains.

The paper models every data item flowing through a workflow as an
*attribute* ``a`` with a finite (but arbitrarily large) domain ``Delta_a``
(Section 2.1).  This module provides:

* :class:`Domain` — an immutable finite domain of hashable values,
* :class:`Attribute` — a named attribute bound to a domain and a hiding cost,
* :class:`Schema` — an ordered collection of attributes with name lookup.

Domains are deliberately tiny objects: the library enumerates cartesian
products of domains when materializing module relations and possible worlds,
so all the combinatorial blow-up the paper talks about (``N <= delta^k``)
shows up here.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Hashable, Iterable, Iterator, Mapping, Sequence

from ..exceptions import DomainError, SchemaError

__all__ = [
    "Domain",
    "BOOLEAN",
    "Attribute",
    "Schema",
    "boolean_attributes",
    "integer_domain",
]

Value = Hashable


@dataclass(frozen=True)
class Domain:
    """A finite domain of attribute values.

    Parameters
    ----------
    values:
        The allowed values, in a canonical order.  Values must be hashable
        and are de-duplicated while preserving order.
    name:
        Optional human-readable name (``"bool"``, ``"int8"`` ...).
    """

    values: tuple[Value, ...]
    name: str = ""

    def __init__(self, values: Iterable[Value], name: str = "") -> None:
        seen: dict[Value, None] = {}
        for value in values:
            seen.setdefault(value, None)
        if not seen:
            raise DomainError("a Domain must contain at least one value")
        object.__setattr__(self, "values", tuple(seen))
        object.__setattr__(self, "name", name or f"domain{len(seen)}")

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self) -> Iterator[Value]:
        return iter(self.values)

    def __contains__(self, value: Value) -> bool:
        return value in self.values

    @property
    def size(self) -> int:
        """Number of values in the domain (``|Delta_a|`` in the paper)."""
        return len(self.values)

    def index(self, value: Value) -> int:
        """Position of ``value`` in the canonical order."""
        try:
            return self.values.index(value)
        except ValueError as exc:  # pragma: no cover - defensive
            raise DomainError(f"{value!r} not in domain {self.name}") from exc

    def validate(self, value: Value) -> Value:
        """Return ``value`` if it belongs to the domain, raise otherwise."""
        if value not in self.values:
            raise DomainError(
                f"value {value!r} is not in domain {self.name} "
                f"(allowed: {self.values!r})"
            )
        return value


#: The 0/1 boolean domain used by most of the paper's examples.
BOOLEAN = Domain((0, 1), name="bool")


def integer_domain(size: int, start: int = 0) -> Domain:
    """Return the domain ``{start, ..., start + size - 1}``.

    Convenient for identifiers (such as the ``id`` attribute in the
    Theorem 1 construction) and for experimenting with non-boolean domains.
    """
    if size <= 0:
        raise DomainError("integer_domain requires size >= 1")
    return Domain(range(start, start + size), name=f"int{size}")


@dataclass(frozen=True)
class Attribute:
    """A named data item with a finite domain and a hiding cost.

    The cost ``c(a)`` is the utility lost when the attribute is hidden from
    the provenance view (Section 2.2).  Costs are non-negative floats; the
    default cost is 1 so that uncosted problems count hidden attributes.
    """

    name: str
    domain: Domain = field(default=BOOLEAN)
    cost: float = 1.0

    def __post_init__(self) -> None:
        if not self.name:
            raise SchemaError("attribute name must be a non-empty string")
        if self.cost < 0:
            raise SchemaError(f"attribute {self.name!r} has negative cost")

    def with_cost(self, cost: float) -> "Attribute":
        """Return a copy of this attribute with a different hiding cost."""
        return Attribute(self.name, self.domain, cost)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.name


class Schema:
    """An ordered set of attributes with fast name lookup.

    A :class:`Schema` behaves like an ordered mapping from attribute name to
    :class:`Attribute`.  Relations, modules and workflows all carry schemas;
    the order is the column order used when tuples are materialized.  A
    schema is immutable: it has no mutators, and :attr:`names` (the
    attribute names in column order) is stored once at construction.
    """

    __slots__ = ("_attributes", "_by_name", "names")

    def __init__(self, attributes: Iterable[Attribute]) -> None:
        attrs = tuple(attributes)
        by_name: dict[str, Attribute] = {}
        for attr in attrs:
            if attr.name in by_name:
                raise SchemaError(f"duplicate attribute name {attr.name!r}")
            by_name[attr.name] = attr
        self._attributes = attrs
        self._by_name = by_name
        self.names: tuple[str, ...] = tuple(by_name)

    # -- container protocol -------------------------------------------------
    def __len__(self) -> int:
        return len(self._attributes)

    def __iter__(self) -> Iterator[Attribute]:
        return iter(self._attributes)

    def __contains__(self, item: object) -> bool:
        if isinstance(item, Attribute):
            return item.name in self._by_name
        return item in self._by_name

    def __getitem__(self, name: str) -> Attribute:
        try:
            return self._by_name[name]
        except KeyError as exc:
            raise SchemaError(f"unknown attribute {name!r}") from exc

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Schema):
            return NotImplemented
        return self._attributes == other._attributes

    def __hash__(self) -> int:
        return hash(self._attributes)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        names = ", ".join(self.names)
        return f"Schema({names})"

    # -- accessors ----------------------------------------------------------
    @property
    def attributes(self) -> tuple[Attribute, ...]:
        return self._attributes

    def domain_of(self, name: str) -> Domain:
        return self[name].domain

    def cost_of(self, name: str) -> float:
        return self[name].cost

    def total_cost(self, names: Iterable[str] | None = None) -> float:
        """Sum of hiding costs of ``names`` (all attributes if ``None``)."""
        if names is None:
            return sum(attr.cost for attr in self._attributes)
        return sum(self[name].cost for name in names)

    # -- construction helpers -----------------------------------------------
    def subset(self, names: Iterable[str]) -> "Schema":
        """Schema restricted to ``names``, keeping this schema's order."""
        wanted = set(names)
        unknown = wanted - set(self.names)
        if unknown:
            raise SchemaError(f"unknown attributes {sorted(unknown)!r}")
        return Schema(attr for attr in self._attributes if attr.name in wanted)

    def union(self, other: "Schema") -> "Schema":
        """Union of two schemas; shared names must be identical attributes."""
        merged: dict[str, Attribute] = {a.name: a for a in self._attributes}
        for attr in other:
            existing = merged.get(attr.name)
            if existing is not None and existing != attr:
                raise SchemaError(
                    f"attribute {attr.name!r} declared twice with different "
                    "domain or cost"
                )
            merged.setdefault(attr.name, attr)
        return Schema(merged.values())

    def project_order(self, names: Iterable[str]) -> tuple[str, ...]:
        """Return ``names`` re-ordered to match this schema's column order."""
        wanted = set(names)
        unknown = wanted - set(self.names)
        if unknown:
            raise SchemaError(f"unknown attributes {sorted(unknown)!r}")
        return tuple(name for name in self.names if name in wanted)

    def iter_assignments(
        self, names: Sequence[str] | None = None
    ) -> Iterator[dict[str, Value]]:
        """Iterate over all assignments of ``names`` (cartesian product).

        This is the enumeration primitive behind relation materialization
        and the possible-worlds machinery.  The iteration order is the
        lexicographic order induced by each domain's canonical order.
        """
        if names is None:
            names = self.names
        domains = [self[name].domain.values for name in names]
        for combo in itertools.product(*domains):
            yield dict(zip(names, combo))

    def assignment_count(self, names: Sequence[str] | None = None) -> int:
        """Number of assignments :meth:`iter_assignments` would yield."""
        if names is None:
            names = self.names
        count = 1
        for name in names:
            count *= self[name].domain.size
        return count

    def validate_assignment(self, assignment: Mapping[str, Value]) -> None:
        """Check that ``assignment`` maps known attributes to legal values."""
        for name, value in assignment.items():
            self[name].domain.validate(value)


def boolean_attributes(
    names: Iterable[str], costs: Mapping[str, float] | float | None = None
) -> list[Attribute]:
    """Build a list of boolean attributes, optionally with costs.

    ``costs`` may be a mapping from name to cost, a single float applied to
    every attribute, or ``None`` for unit costs.
    """
    attrs = []
    for name in names:
        if costs is None:
            cost = 1.0
        elif isinstance(costs, Mapping):
            cost = float(costs.get(name, 1.0))
        else:
            cost = float(costs)
        attrs.append(Attribute(name, BOOLEAN, cost))
    return attrs
