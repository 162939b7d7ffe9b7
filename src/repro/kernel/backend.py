"""Backend selection for the privacy kernel.

Two backends implement the privacy analysis and derivation hot paths:

* ``"kernel"`` (the default) — the bit-compiled fast path of this package,
* ``"reference"`` — the original brute-force enumerators in
  :mod:`repro.core`, kept as the validation oracle.

Core functions take ``backend=None`` meaning the kernel; tests and
benchmarks pin a backend explicitly.
"""

from __future__ import annotations

__all__ = [
    "KERNEL",
    "REFERENCE",
    "VALID_BACKENDS",
    "resolve_backend",
]

KERNEL = "kernel"
REFERENCE = "reference"
VALID_BACKENDS = (KERNEL, REFERENCE)


def resolve_backend(backend: str | None) -> str:
    """Normalize a ``backend=`` argument (``None`` -> the kernel)."""
    if backend is None:
        return KERNEL
    if backend not in VALID_BACKENDS:
        raise ValueError(
            f"unknown backend {backend!r}; expected one of {VALID_BACKENDS}"
        )
    return backend
