"""Binary code-array codecs behind the derivation store's pack sidecars.

The store keeps each packed kernel relation's code array out of
``pack.json``, in a compact little-endian binary **sidecar file** next to
the JSON document, described by a small descriptor dict that rides where
an inline code list would (so no reader re-parses a private copy of a hot
pack from base-10 digits):

* ``npy-u64le`` — a standard numpy ``.npy`` v1.0 file holding a 1-D
  ``<u8`` (little-endian ``uint64``) array, used whenever the layout fits
  :data:`NPY_MAX_BITS`.  The format is simple enough to write *and* parse
  by hand, so the no-numpy fallback reads the very same bytes with
  :mod:`struct`, and numpy builds (:func:`numpy.frombuffer`) get a
  zero-copy view straight over the mapping.
* ``fixed-le`` — raw fixed-width little-endian records
  (``ceil(total_bits / 8)`` bytes each) for layouts wider than 63 bits,
  where arbitrary-precision Python ints are the compute representation
  anyway.

Readers open sidecars through :func:`open_codes`, which memory-maps the
file when the platform allows (falling back to a plain read) and returns a
:class:`CodeBacking` — a lazy handle that validates sizes up front but
decodes nothing until asked.  Co-located processes mapping the same
sidecar share one set of page-cached, read-only pages instead of N parsed
copies; that sharing is the point of the binary format.

Corruption never crashes a caller: a truncated file, a malformed header or
a descriptor/size mismatch raises :class:`ValueError` from
:func:`open_codes`, which the store degrades to a miss exactly like a
malformed JSON artifact.
"""

from __future__ import annotations

import ast
import mmap
import os
import struct
from typing import Mapping, Sequence

try:  # numpy is optional everywhere in the kernel; same guard as packing.
    import numpy as _np
except Exception:  # pragma: no cover - exercised only without numpy
    _np = None

__all__ = [
    "NPY_ENCODING",
    "FIXED_ENCODING",
    "NPY_MAX_BITS",
    "FILE_SUFFIXES",
    "CodeBacking",
    "encode_codes",
    "open_codes",
]

NPY_ENCODING = "npy-u64le"
FIXED_ENCODING = "fixed-le"

#: Widest layout encodable as uint64 ``.npy`` (bit 63 stays clear so the
#: values are also valid *signed* 64-bit ints for every consumer).
NPY_MAX_BITS = 63

#: Sidecar file suffix per encoding (descriptors carry the full name).
FILE_SUFFIXES = {NPY_ENCODING: ".npy", FIXED_ENCODING: ".bin"}

_NPY_MAGIC = b"\x93NUMPY"


def _npy_header(rows: int) -> bytes:
    """A numpy ``.npy`` v1.0 header for a 1-D little-endian uint64 array.

    Hand-rolled so writing needs no numpy; the layout follows the NEP-1
    format spec (magic, version, little-endian uint16 header length, then
    a Python-literal dict padded with spaces to a 64-byte boundary and
    terminated by a newline).
    """
    descr = (
        "{'descr': '<u8', 'fortran_order': False, 'shape': (%d,), }" % int(rows)
    ).encode("latin1")
    base = len(_NPY_MAGIC) + 2 + 2  # magic + version + header-length field
    padding = (64 - (base + len(descr) + 1) % 64) % 64
    header = descr + b" " * padding + b"\n"
    return _NPY_MAGIC + bytes((1, 0)) + struct.pack("<H", len(header)) + header


def _parse_npy_header(buffer) -> tuple[int, int]:
    """``(rows, data_offset)`` of a 1-D ``<u8`` C-order ``.npy`` buffer.

    Raises :class:`ValueError` for anything that is not exactly the shape
    this module writes — other dtypes, orders or dimensions are corruption
    as far as the store is concerned.
    """
    view = bytes(buffer[: len(_NPY_MAGIC) + 4])
    if len(view) < len(_NPY_MAGIC) + 4 or not view.startswith(_NPY_MAGIC):
        raise ValueError("not a .npy file")
    major = view[len(_NPY_MAGIC)]
    if major != 1:
        raise ValueError(f"unsupported .npy version {major}")
    (header_len,) = struct.unpack_from("<H", view, len(_NPY_MAGIC) + 2)
    offset = len(_NPY_MAGIC) + 4 + header_len
    header_bytes = bytes(buffer[len(_NPY_MAGIC) + 4 : offset])
    if len(header_bytes) != header_len:
        raise ValueError("truncated .npy header")
    try:
        header = ast.literal_eval(header_bytes.decode("latin1"))
    except (ValueError, SyntaxError) as exc:
        raise ValueError("malformed .npy header") from exc
    if not isinstance(header, dict):
        raise ValueError("malformed .npy header")
    shape = header.get("shape")
    if (
        header.get("descr") != "<u8"
        or header.get("fortran_order") is not False
        or not isinstance(shape, tuple)
        or len(shape) != 1
    ):
        raise ValueError("unexpected .npy dtype or shape")
    return int(shape[0]), offset


def encode_codes(codes: Sequence[int], total_bits: int) -> tuple[dict, bytes]:
    """Encode a code array; ``(descriptor, payload_bytes)``.

    The descriptor is JSON-safe and, once a ``"file"`` name is attached by
    the writer, is exactly what :func:`open_codes` consumes.  Encoding is
    chosen from ``total_bits`` alone, so the same codes always encode to
    the same bytes.
    """
    rows = len(codes)
    if total_bits < 0:
        raise ValueError("total_bits must be non-negative")
    if total_bits <= NPY_MAX_BITS:
        payload = _npy_header(rows) + struct.pack(f"<{rows}Q", *codes)
        descriptor = {"encoding": NPY_ENCODING, "rows": rows, "item_bytes": 8}
        return descriptor, payload
    item_bytes = max(1, (total_bits + 7) // 8)
    payload = b"".join(int(code).to_bytes(item_bytes, "little") for code in codes)
    descriptor = {"encoding": FIXED_ENCODING, "rows": rows, "item_bytes": item_bytes}
    return descriptor, payload


class CodeBacking:
    """A validated, lazily-decoded handle on one binary code sidecar.

    Holds the raw buffer (an ``mmap`` when the platform granted one, plain
    ``bytes`` otherwise) and decodes on demand: :meth:`materialize` yields
    the exact Python ints an inline JSON code list carries, while
    :meth:`array` returns a zero-copy numpy ``uint64`` view for the
    vectorized kernel paths — mapped pages stay shared and read-only.
    """

    __slots__ = ("encoding", "rows", "item_bytes", "offset", "nbytes", "mapped", "_buf")

    def __init__(
        self,
        encoding: str,
        rows: int,
        item_bytes: int,
        offset: int,
        buf,
        mapped: bool,
    ) -> None:
        self.encoding = encoding
        self.rows = rows
        self.item_bytes = item_bytes
        self.offset = offset
        self.nbytes = len(buf)
        self.mapped = mapped
        self._buf = buf

    def materialize(self) -> list[int]:
        """Decode every code to a plain Python int (row order preserved)."""
        if self.encoding == NPY_ENCODING:
            return list(
                struct.unpack_from(f"<{self.rows}Q", self._buf, self.offset)
            )
        width = self.item_bytes
        view = memoryview(self._buf)[self.offset :]
        return [
            int.from_bytes(view[start : start + width], "little")
            for start in range(0, self.rows * width, width)
        ]

    def array(self):
        """Zero-copy ``uint64`` view (``None`` off the numpy-eligible path)."""
        if _np is None or self.encoding != NPY_ENCODING:
            return None
        return _np.frombuffer(
            self._buf, dtype="<u8", count=self.rows, offset=self.offset
        )


def open_codes(
    path: str | os.PathLike, descriptor: Mapping[str, object], total_bits: int
) -> CodeBacking:
    """Open and validate one sidecar; raises :class:`ValueError` on skew.

    Validation is structural and cheap — encoding known, descriptor
    consistent with the layout's ``total_bits``, file size exactly what
    ``rows`` promises — so corruption (truncation, a swapped file, a
    drifted layout) surfaces here, before any code is decoded, and the
    store turns it into a miss.
    """
    encoding = descriptor.get("encoding")
    if encoding not in FILE_SUFFIXES:
        raise ValueError(f"unknown code encoding {encoding!r}")
    rows = int(descriptor.get("rows", -1))
    item_bytes = int(descriptor.get("item_bytes", 0))
    if rows < 0:
        raise ValueError("negative row count in code descriptor")
    expected_item = 8 if encoding == NPY_ENCODING else max(1, (total_bits + 7) // 8)
    if item_bytes != expected_item:
        raise ValueError(
            f"descriptor item width {item_bytes} does not match layout "
            f"({expected_item} bytes)"
        )
    if encoding == NPY_ENCODING and total_bits > NPY_MAX_BITS:
        raise ValueError("uint64 encoding for a layout wider than 63 bits")
    try:
        with open(path, "rb") as handle:
            mapped = True
            try:
                buf = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
            except (ValueError, OSError):  # zero-length file, or no mmap
                mapped = False
                handle.seek(0)
                buf = handle.read()
    except OSError as exc:
        raise ValueError(f"unreadable code sidecar: {exc}") from exc
    if encoding == NPY_ENCODING:
        stored_rows, offset = _parse_npy_header(buf)
        if stored_rows != rows:
            raise ValueError(
                f"sidecar holds {stored_rows} rows, descriptor says {rows}"
            )
    else:
        offset = 0
    if len(buf) != offset + rows * item_bytes:
        raise ValueError(
            f"sidecar size {len(buf)} does not match {rows} rows of "
            f"{item_bytes} bytes"
        )
    return CodeBacking(encoding, rows, item_bytes, offset, buf, mapped)
