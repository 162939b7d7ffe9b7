"""Bit-packed relations: the kernel's core data representation.

The brute-force layers in :mod:`repro.core` manipulate rows as dicts and
subsets as frozensets of attribute names.  That representation is flexible
but allocation-heavy: every projection, group-by and OUT-set count churns
through per-tuple dict and tuple objects.  The kernel instead *compiles* a
schema into a :class:`BitLayout` — each attribute gets a fixed bit field
wide enough for its domain — so that

* a row becomes one machine integer (``value_index << offset`` per field),
* an attribute subset becomes one integer bitmask,
* a projection becomes a single ``row & mask``, and
* distinct-counting and group-bys become set/array operations over ints.

Packed codes fitting in 63 bits can additionally be mirrored into a numpy
``uint64`` array for word-parallel distinct counting; wider schemas fall
back to Python's arbitrary-precision ints, so nothing in the kernel caps
the number of attributes.

This module deliberately imports nothing from :mod:`repro.core` at runtime
(only for type checking), which keeps the kernel importable from the core
hot paths without circular imports.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

try:  # numpy ships transitively with scipy; treat it as optional anyway.
    import numpy as _np
except Exception:  # pragma: no cover - exercised only without numpy
    _np = None

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.attributes import Schema, Value
    from ..core.relation import Relation

__all__ = [
    "HAVE_NUMPY",
    "NUMPY_MAX_BITS",
    "NUMPY_MIN_ROWS",
    "BATCH_MIN_MASKS",
    "BATCH_MEMORY_BUDGET",
    "BitLayout",
    "PackedRelation",
]

HAVE_NUMPY = _np is not None

#: Widest packed row still eligible for the uint64 numpy mirror.
NUMPY_MAX_BITS = 63

#: Below this row count plain Python int ops beat the numpy call overhead.
NUMPY_MIN_ROWS = 192

#: Below this many uncached candidate masks a batched sweep pass gains
#: nothing over per-mask ``np.unique`` calls (same heuristic family as
#: :data:`NUMPY_MIN_ROWS`: amortize the vectorization setup or skip it).
BATCH_MIN_MASKS = 4

#: Memory budget (bytes) for one broadcast ``codes[:, None] & masks[None, :]``
#: tile of a batched sweep.  Batches larger than ``budget // (8 * rows)``
#: masks are split into multiple passes over the packed relation.
BATCH_MEMORY_BUDGET = 1 << 24


class BitLayout:
    """A fixed bit-field layout for the attributes of one schema.

    Attribute ``a`` with domain size ``d`` occupies ``max(1, ceil(log2 d))``
    bits; fields are laid out in schema column order.  Values are encoded by
    their index in the domain's canonical order, so packing and unpacking
    round-trip exactly and the lexicographic enumeration order of
    :meth:`Schema.iter_assignments` is reproducible on codes.
    """

    __slots__ = (
        "names",
        "offsets",
        "widths",
        "field_masks",
        "total_bits",
        "_codes",
        "_values",
    )

    def __init__(self, schema: "Schema") -> None:
        self._build(
            tuple(schema.names),
            [tuple(schema[name].domain.values) for name in schema.names],
        )

    def _build(
        self,
        names: tuple[str, ...],
        domain_values_per_name: Sequence[tuple["Value", ...]],
    ) -> None:
        offsets: dict[str, int] = {}
        widths: dict[str, int] = {}
        field_masks: dict[str, int] = {}
        codes: dict[str, dict["Value", int]] = {}
        values: dict[str, tuple["Value", ...]] = {}
        offset = 0
        for name, domain_values in zip(names, domain_values_per_name):
            width = max(1, (len(domain_values) - 1).bit_length())
            offsets[name] = offset
            widths[name] = width
            field_masks[name] = ((1 << width) - 1) << offset
            values[name] = domain_values
            codes[name] = {value: idx for idx, value in enumerate(domain_values)}
            offset += width
        self.names = names
        self.offsets = offsets
        self.widths = widths
        self.field_masks = field_masks
        self.total_bits = offset
        self._codes = codes
        self._values = values

    # -- stable serialization --------------------------------------------------
    def to_dict(self) -> dict:
        """Portable description of the layout (names, widths, domain sizes).

        Domain *values* are not embedded — a layout is always reconstructed
        against a live schema — but the structural facts that determine code
        compatibility (field order, widths, domain sizes) are, so a stored
        pack can be validated against the schema it is loaded for.
        """
        return {
            "attributes": [
                {
                    "name": name,
                    "width": self.widths[name],
                    "domain_size": len(self._values[name]),
                }
                for name in self.names
            ],
            "total_bits": self.total_bits,
        }

    def compatible_with(self, payload: Mapping[str, object]) -> bool:
        """Would codes packed under ``payload``'s layout decode identically here?"""
        attributes = payload.get("attributes")
        if not isinstance(attributes, list) or len(attributes) != len(self.names):
            return False
        for name, entry in zip(self.names, attributes):
            if (
                entry.get("name") != name
                or entry.get("width") != self.widths[name]
                or entry.get("domain_size") != len(self._values[name])
            ):
                return False
        return payload.get("total_bits") == self.total_bits

    # -- masks ---------------------------------------------------------------
    def mask_for(self, names: Iterable[str]) -> int:
        """OR of the field masks of ``names``; unknown names contribute 0.

        Unknown names are ignored for parity with the reference code paths,
        which filter visible/hidden sets down to the schema's attributes.
        """
        mask = 0
        field_masks = self.field_masks
        for name in names:
            mask |= field_masks.get(name, 0)
        return mask

    @property
    def all_bits(self) -> int:
        return (1 << self.total_bits) - 1

    # -- packing -------------------------------------------------------------
    def pack_assignment(
        self, row: Mapping[str, "Value"], names: Sequence[str] | None = None
    ) -> int:
        """Pack an assignment of ``names`` (default: every attribute)."""
        if names is None:
            names = self.names
        code = 0
        codes = self._codes
        offsets = self.offsets
        for name in names:
            code |= codes[name][row[name]] << offsets[name]
        return code

    def pack_relation(self, relation: "Relation") -> list[int]:
        """Pack the rows of a relation, in row order.

        Only the layout's attributes are packed; the relation may carry its
        columns in any order (they are matched by name) and duplicates of
        the projection onto the layout's attributes are preserved.
        """
        rel_names = relation.attribute_names
        encoders = [
            (rel_names.index(name), self._codes[name], self.offsets[name])
            for name in self.names
        ]
        packed: list[int] = []
        for tup in relation.tuples:
            code = 0
            for pos, codebook, offset in encoders:
                code |= codebook[tup[pos]] << offset
            packed.append(code)
        return packed

    # -- unpacking -----------------------------------------------------------
    def unpack(self, code: int, names: Sequence[str]) -> tuple["Value", ...]:
        """Decode the fields of ``names`` (in the given order) from a code."""
        return tuple(
            self._values[name][
                (code >> self.offsets[name]) & ((1 << self.widths[name]) - 1)
            ]
            for name in names
        )

    def assignment_codes(self, names: Sequence[str]) -> list[int]:
        """Packed codes of every assignment of ``names``.

        The order matches :meth:`Schema.iter_assignments`: the cartesian
        product with the *rightmost* attribute varying fastest and each
        domain iterated in canonical order.
        """
        result = [0]
        for name in names:
            offset = self.offsets[name]
            size = len(self._values[name])
            result = [base | (idx << offset) for base in result for idx in range(size)]
        return result

    def domain_size(self, name: str) -> int:
        return len(self._values[name])


class PackedRelation:
    """The packed-code image of one relation under a :class:`BitLayout`.

    Codes are kept in row order (duplicates under the layout's projection
    included); a numpy ``uint64`` mirror is materialized lazily for layouts
    that fit and relations big enough for vectorization to pay off.

    A pack can also be **buffer-backed**
    (:meth:`from_backing`): the codes live in a memory-mapped binary
    sidecar (:mod:`repro.kernel.binpack`) and are decoded lazily — the
    numpy mirror is a zero-copy view over the mapping, and the Python-int
    list materializes only if a scalar path actually asks for it, so
    co-located processes share one set of read-only pages.
    """

    __slots__ = ("layout", "_codes", "_backing", "_rows", "_array")

    def __init__(self, layout: BitLayout, codes: list[int]) -> None:
        self.layout = layout
        self._codes = codes
        self._backing = None
        self._rows = len(codes)
        self._array = None

    @classmethod
    def from_relation(
        cls, relation: "Relation", layout: BitLayout | None = None
    ) -> "PackedRelation":
        layout = layout if layout is not None else BitLayout(relation.schema)
        return cls(layout, layout.pack_relation(relation))

    @classmethod
    def from_backing(cls, layout: BitLayout, backing) -> "PackedRelation":
        """A pack whose codes live in a :class:`~.binpack.CodeBacking`."""
        packed = cls.__new__(cls)
        packed.layout = layout
        packed._codes = None
        packed._backing = backing
        packed._rows = backing.rows
        packed._array = None
        return packed

    @property
    def codes(self) -> list[int]:
        """The codes as Python ints (decoded once for backed packs)."""
        if self._codes is None:
            self._codes = self._backing.materialize()
        return self._codes

    @property
    def mapped_bytes(self) -> int:
        """Bytes of memory-mapped backing behind this pack (0 if unmapped)."""
        backing = self._backing
        return backing.nbytes if backing is not None and backing.mapped else 0

    # -- stable serialization --------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-safe form: the layout description plus the raw codes.

        Codes are arbitrary-precision Python ints, which JSON carries
        exactly, so packs wider than 64 bits round-trip unchanged —
        including packs loaded back from a binary sidecar, whose payload
        is byte-identical to the one the pack had before it was stored.
        """
        return {"layout": self.layout.to_dict(), "codes": list(self.codes)}

    def to_binary(self) -> tuple[dict, bytes]:
        """The stored form: a descriptor document plus sidecar bytes.

        The returned dict mirrors :meth:`to_dict` with the code list
        replaced by a :mod:`~repro.kernel.binpack` descriptor (the caller
        attaches the sidecar ``"file"`` name it writes the bytes under).
        """
        from . import binpack

        descriptor, payload = binpack.encode_codes(
            self.codes, self.layout.total_bits
        )
        return {"layout": self.layout.to_dict(), "codes": descriptor}, payload

    @classmethod
    def from_dict(
        cls,
        layout: BitLayout,
        payload: Mapping[str, object],
        base_dir: "str | None" = None,
    ) -> "PackedRelation":
        """Rebuild a pack against a live layout; ``None``-safe validation.

        Raises :class:`ValueError` when the stored layout description is
        structurally incompatible with ``layout`` (field order, widths or
        domain sizes drifted), which turns a silently-corrupt cache read
        into a recompile.  A stored payload carries a binary-sidecar
        descriptor where :meth:`to_dict` carries the code list; resolving
        it requires ``base_dir`` (the artifact's directory), and a caller
        that passes none gets the same :class:`ValueError`, not garbage.
        """
        stored_layout = payload.get("layout", {})
        if not layout.compatible_with(stored_layout):
            raise ValueError("stored pack layout is incompatible with the schema")
        codes = payload["codes"]
        if isinstance(codes, Mapping):
            from pathlib import Path

            from . import binpack

            if base_dir is None:
                raise ValueError("binary pack payload requires a base directory")
            name = str(codes.get("file", ""))
            if not name or Path(name).name != name:
                raise ValueError(f"invalid code sidecar name {name!r}")
            backing = binpack.open_codes(
                Path(base_dir) / name, codes, layout.total_bits
            )
            return cls.from_backing(layout, backing)
        return cls(layout, [int(code) for code in codes])

    def __len__(self) -> int:
        return self._rows

    @property
    def use_numpy(self) -> bool:
        """Whether the word-parallel numpy path applies to this relation."""
        return (
            HAVE_NUMPY
            and self.layout.total_bits <= NUMPY_MAX_BITS
            and self._rows >= NUMPY_MIN_ROWS
        )

    @property
    def array(self):
        """Lazy ``uint64`` mirror of the codes (``None`` when not eligible)."""
        if (
            self._array is None
            and HAVE_NUMPY
            and self.layout.total_bits <= NUMPY_MAX_BITS
        ):
            if self._backing is not None:
                self._array = self._backing.array()
            if self._array is None:
                self._array = _np.fromiter(
                    self.codes, dtype=_np.uint64, count=self._rows
                )
        return self._array
