"""Seeding utilities and the input rules of every library entry point: the
integer rule for seeds, counts and row indices, the real-number rule for
float parameters, the array rule for numeric arrays and the sequence rule
for lists of parameters. Each rule raises a DataError naming the argument;
a caller keeps only its shape relations, such as labels matching rows.

All randomness in the package flows from 64-bit seeds through Philox, a
counter-based generator, so the random draws do not depend on the number of
threads used by the underlying linear algebra libraries. Results do only at
a fixed thread count: Cholesky fits and eigen-solves from about 128 training
rows can change in the last digits with it (see the README on --threads).
Child seeds are derived by hashing rather than by consuming parent state,
which keeps runs reproducible when a sweep grid is extended.
"""

from __future__ import annotations

import hashlib
import math
import numbers
from collections.abc import Iterable

import numpy as np

from .errors import DataError

_SEED_MASK = (1 << 64) - 1


def _integral(value, name: str) -> int:
    """``value`` as an int when it is an integral number: 5, 5.0 or
    np.int64(5), and an int of any size unchanged. A fraction, NaN, inf, a
    bool or a string raises DataError naming ``name``."""
    if not isinstance(value, bool) and isinstance(value, numbers.Real):
        if isinstance(value, numbers.Integral) or float(value).is_integer():
            return int(value)
    raise DataError(f"{name} must be integral, got {value!r}")


def _real(value, name: str, sign: str = "") -> float:
    """``value`` as a float when it is a real number: 5, 0.5, np.float32(0.5),
    NaN or inf. ``sign`` is "positive" or "non-negative" for a parameter that
    must also be finite with that sign; with none, range checks are the
    caller's. A bool, a string, None or any other type raises DataError naming
    ``name``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise DataError(f"{name} must be a real number, got {value!r}")
    real = float(value)
    if sign and not (math.isfinite(real) and (real > 0 if sign == "positive" else real >= 0)):
        raise DataError(f"{name} must be {sign} and finite, got {value!r}")
    return real


def _sequence(values, name: str) -> tuple:
    """``values`` as a non-empty tuple; a string, a value that is not iterable
    or an empty one raises DataError naming ``name``."""
    if isinstance(values, str) or not isinstance(values, Iterable):
        raise DataError(f"{name} must be a sequence, got {values!r}")
    if not (values := tuple(values)):
        raise DataError(f"{name} must be non-empty")
    return values


def _numeric(values, name: str) -> np.ndarray:
    """``values`` as an array of an integer or float dtype; a ragged, bool,
    string, complex or object input raises DataError naming ``name``."""
    try:
        arr = np.asarray(values)
    except ValueError:
        raise DataError(f"{name} must be an array of real numbers, got a ragged sequence") from None
    if arr.dtype.kind not in "iuf":
        raise DataError(f"{name} must be an array of real numbers, got {arr.dtype} values")
    return arr


def _floats(values, name: str, ndim: int) -> np.ndarray:
    """``values`` as a C-contiguous float64 array of ``ndim`` axes and finite
    entries, not copied when it already is one. Past _numeric's dtype rule,
    another number of axes or a NaN or inf entry raises DataError naming it."""
    arr = _numeric(values, name)
    if arr.ndim != ndim:
        raise DataError(f"{name} must be a {ndim}-D array, got shape {arr.shape}")
    arr = np.ascontiguousarray(arr, dtype=np.float64)
    if not np.isfinite(arr).all():
        raise DataError(f"{name} must have finite entries, got NaN or Inf")
    return arr


def _count(value, name: str, lo: int, hi: float = math.inf) -> int:
    """``value`` as an integral int in [lo, hi]; DataError naming ``name``,
    the value and the range otherwise."""
    count = _integral(value, name)
    if hi == math.inf and count < lo:
        raise DataError(f"{name} must be >= {lo}, got {value!r}")
    if not lo <= count <= hi:
        raise DataError(f"{name} {value!r} out of range [{lo}, {hi}]")
    return count


def _indices(values, n: int = 2**63) -> np.ndarray:
    """``values`` as a non-empty 1-D int64 array of row indices in [0, n). An
    integer array takes no float copy; a float one must be finite and
    integral; bool, string and object arrays raise DataError."""
    arr = np.asarray(values)
    if arr.ndim != 1 or arr.size < 1:
        raise DataError("selected indices must be a non-empty 1-D sequence")
    if arr.dtype.kind not in "iuf" or (
        arr.dtype.kind == "f" and not (np.isfinite(arr).all() and (arr == np.trunc(arr)).all())
    ):
        raise DataError(f"selected indices must be finite integral numbers, got {arr.dtype} values")
    if arr.min() < 0 or arr.max() >= n:
        raise DataError(f"selected index out of range [0, {n})")
    return np.ascontiguousarray(arr, dtype=np.int64)


def rng_from_seed(seed: int) -> np.random.Generator:
    """Return a Philox-backed generator keyed by a 64-bit seed."""
    return np.random.Generator(np.random.Philox(key=_integral(seed, "seed") & _SEED_MASK))


def child_seed(master_seed: int, *parts: object) -> int:
    """Derive a stable 64-bit child seed from a master seed and context labels.

    ``parts`` may contain strings, ints and floats; floats are keyed by their
    repr so the derivation does not depend on formatting choices elsewhere.
    """
    h = hashlib.blake2b(digest_size=8)
    h.update(str(_integral(master_seed, "seed") & _SEED_MASK).encode())
    for part in parts:
        h.update(b"|")
        h.update(repr(part).encode())
    return int.from_bytes(h.digest(), "little")
