"""Seeding utilities.

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

import numpy as np

_SEED_MASK = (1 << 64) - 1


def rng_from_seed(seed: int) -> np.random.Generator:
    """Return a Philox-backed generator keyed by a 64-bit seed."""
    return np.random.Generator(np.random.Philox(key=int(seed) & _SEED_MASK))


def child_seed(master_seed: int, *parts: object) -> int:
    """Derive a stable 64-bit child seed from a master seed and context labels.

    ``parts`` may contain strings, ints and floats; floats are keyed by their
    repr so the derivation does not depend on formatting choices elsewhere.
    """
    h = hashlib.blake2b(digest_size=8)
    h.update(str(int(master_seed) & _SEED_MASK).encode())
    for part in parts:
        h.update(b"|")
        h.update(repr(part).encode())
    return int.from_bytes(h.digest(), "little")
