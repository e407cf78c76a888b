"""Array backend selection: numpy when available, stdlib ``array`` otherwise.

The columnar generator stores every per-person and per-account attribute
in a flat, typed buffer.  With numpy installed those buffers are compact
dtyped ``ndarray``\\ s and the draws are vectorised; on a minimal install
(no third-party packages at all) the same columns live in stdlib
``array.array`` buffers and generation falls back to scalar loops.
numpy is a core dependency (the object world's friendship builder and
graph need it), so the fallback keeps no tier runnable without numpy;
the ``city``/``metro`` tiers still check for it up front.

Nothing in this module draws randomness; it only owns buffer
construction so the rest of the package can stay backend-agnostic.
"""

from __future__ import annotations

from array import array
from typing import Iterable, Sequence, Union

try:  # pragma: no cover - exercised implicitly by every import
    import numpy as np

    HAS_NUMPY = True
except ImportError:  # pragma: no cover - minimal-install path
    np = None  # type: ignore[assignment]
    HAS_NUMPY = False

#: A frozen integer column: numpy array or stdlib typed array.
IntBuffer = Union["np.ndarray", array]
FloatBuffer = Union["np.ndarray", array]


class ColgenDependencyError(RuntimeError):
    """Raised when a tier needs numpy and the install does not have it."""


def require_numpy(feature: str) -> None:
    """Fail fast (with an actionable message) when numpy is missing."""
    if not HAS_NUMPY:
        raise ColgenDependencyError(
            f"{feature} needs numpy, a core dependency of repro "
            "(pip install numpy)"
        )


# ----------------------------------------------------------------------
# Buffer constructors (freeze a python list into a typed column)
# ----------------------------------------------------------------------

def int_column(values: Iterable[int], *, dtype: str = "i8") -> IntBuffer:
    """Freeze integers into a typed column.

    ``dtype`` is a numpy-style code (``i1 i2 i4 i8 u8``); the stdlib
    fallback always uses 8-byte signed ('q') or unsigned ('Q') slots —
    correctness over compactness on installs that opted out of numpy.
    """
    if HAS_NUMPY:
        return np.asarray(list(values), dtype=np.dtype(dtype))
    return array("Q" if dtype == "u8" else "q", values)


def float_column(values: Iterable[float]) -> FloatBuffer:
    if HAS_NUMPY:
        return np.asarray(list(values), dtype=np.float64)
    return array("d", values)


def buffer_nbytes(buf: Union[IntBuffer, FloatBuffer, None]) -> int:
    """Approximate heap footprint of one column, in bytes."""
    if buf is None:
        return 0
    if HAS_NUMPY and isinstance(buf, np.ndarray):
        return int(buf.nbytes)
    return len(buf) * buf.itemsize  # type: ignore[union-attr]


def cumulative_sum(counts: Sequence[int]) -> IntBuffer:
    """Exclusive-prefix-sum with a trailing total: the CSR ``indptr`` shape."""
    if HAS_NUMPY:
        out = np.zeros(len(counts) + 1, dtype=np.int64)
        np.cumsum(np.asarray(counts, dtype=np.int64), out=out[1:])
        return out
    out = array("q", bytes(8 * (len(counts) + 1)))
    total = 0
    for i, c in enumerate(counts):
        total += int(c)
        out[i + 1] = total
    return out
