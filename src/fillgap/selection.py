"""Samplers that pick training subsets from a pool, the geometric quantities
they optimize, and exhaustive oracles for certifying them on small instances.

All samplers are deterministic in their seed, break ties between equal
computed values by smallest row index, and report per-step fill/separation
traces. Distances are Euclidean.
"""

from __future__ import annotations

import heapq
import itertools
import json
import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist

from .errors import DataError
from .rng import child_seed, rng_from_seed

# Strategy kind -> its sampler, called as (pool, spec, budget, seed). Sampler
# names are looked up at call time, so a wrapped sampler is the one that runs.
_SAMPLERS = {
    "fps": lambda pool, spec, budget, seed: fps(
        pool, budget, seed=seed, start_index=spec.start_index
    ),
    "random": lambda pool, spec, budget, seed: random_select(pool, budget, seed=seed),
    "facility_location": lambda pool, spec, budget, seed: facility_location(
        pool, budget, seed=seed, start_index=spec.start_index
    ),
    "kmedoidspp": lambda pool, spec, budget, seed: kmedoidspp(pool, budget, seed=seed),
    "fps_then_random": lambda pool, spec, budget, seed: fps_then_random(
        pool, budget, spec.switch_fraction, seed=seed, start_index=spec.start_index
    ),
}

STRATEGY_KINDS = tuple(_SAMPLERS)

# Kinds whose selection at a smaller budget, same seed, is the prefix of their
# selection at a larger one, in indices and traces.
_PREFIX_KINDS = ("fps", "random", "facility_location", "fps_then_random")

# Up to this pool size a _Geometry keeps its full matrix of squared
# distances, built on first use. A sweep keeps one n x n matrix (8 MB at
# n=1000, 512 MiB at n=8192) that gamma=auto, facility location and k-medoids
# read, and per selection run one n x B matrix for the B selected rows, which
# that run's cells slice their kernels from: a column gather of the n x n one
# once that is built, a cdist before. Above the limit, and in a standalone
# kmedoidspp call, every block read is recomputed.
_DENSE_MATRIX_LIMIT = 8192

# Every row-block pass holds at most this many entries at once (4 MiB):
# nn_distances' GEMM scores, both k-medoids Lloyd passes and the kernel values
# of regression's predictions. At n=20000, d=16 on one BLAS thread,
# nearest-neighbour blocks of 2**19 to 2**21 entries took 1.2-1.4 s and 2**18
# took 1.3-1.5 s; larger blocks only hold more memory.
# Predictions round their blocks down to a multiple of 64 rows (regression._predict).
_BLOCK_ENTRIES = 2**19

# The nearest-selected walk keeps its pool in row blocks of this many entries
# (1 MiB), small enough to stay in a core's cache while a block applies every
# row selected since it was last read. FPS of 1000 from 100000 rows at d=64 on
# one BLAS thread of a 2-core Xeon VM (2 MiB L2 per core): a prototype took
# 2.6 s with blocks of 2**16 entries, 1.9 s with 2**17 and 3.7 s with 2**18;
# this walk takes 2.1-2.5 s, and a whole-pool GEMV per pick took 6.4-8.0 s.
_WALK_BLOCK_ENTRIES = 2**17

# Facility location scores up to this many candidates as one block, on its
# first step, which scores every row, and on every lazy rescoring after it:
# one gather and one root per block instead of per candidate. On sweep-tail
# (n=1000, about 25000 rescored rows per sweep) scoring one row at a time was
# slower in 7 of 10 benchmark pairs, by 10 % in the median.
_RESCORE_BATCH = 8

_BRUTEFORCE_LIMIT = 10**6

# A finite pool can still hold entries whose squared distances pass the
# largest float64; the walk and facility location would then read inf or NaN.
_OVERFLOW_MESSAGE = "pairwise distances overflow float64; rescale the pool"


@dataclass(frozen=True)
class SelectionResult:
    """Ordered selected row indices plus per-step distance traces.

    ``fill_trace[t]`` is the fill distance after ``t + 1`` selections.
    ``sep_trace[t]`` is the separation distance of the first ``t + 1``
    selections; it is undefined (NaN) at step 0.
    """

    indices: np.ndarray
    fill_trace: np.ndarray
    sep_trace: np.ndarray
    strategy: str
    seed: int

    def __post_init__(self):
        idx = np.ascontiguousarray(self.indices, dtype=np.int64)
        fill = np.ascontiguousarray(self.fill_trace, dtype=np.float64)
        sep = np.ascontiguousarray(self.sep_trace, dtype=np.float64)
        if idx.ndim != 1 or idx.size < 1:
            raise DataError("indices must be a non-empty 1-D sequence")
        if np.unique(idx).size != idx.size:
            raise DataError("selected indices must be distinct")
        if (idx < 0).any():
            raise DataError("selected indices must be non-negative")
        if fill.shape != idx.shape or sep.shape != idx.shape:
            raise DataError("traces must have one entry per selection step")
        object.__setattr__(self, "indices", idx)
        object.__setattr__(self, "fill_trace", fill)
        object.__setattr__(self, "sep_trace", sep)

    def to_json(self, include_traces: bool = True) -> str:
        payload: dict = {
            "strategy": self.strategy,
            "seed": self.seed,
            "indices": [int(i) for i in self.indices],
        }
        if include_traces:
            payload["fill_trace"] = [float(v) for v in self.fill_trace]
            payload["sep_trace"] = [None if math.isnan(v) else float(v) for v in self.sep_trace]
        return json.dumps(payload)

    @classmethod
    def from_json(cls, text: str) -> "SelectionResult":
        try:
            payload = json.loads(text)
            indices = np.asarray(payload["indices"])
            # Integral numbers only: a cast would read 1.7 as row 1.
            if indices.dtype.kind not in "iuf" or not (
                np.isfinite(indices).all() and np.array_equal(indices, np.trunc(indices))
            ):
                raise ValueError("indices must be integers")
            indices = indices.astype(np.int64)
            fill = np.asarray(payload.get("fill_trace", [math.nan] * indices.size), np.float64)
            sep = payload.get("sep_trace", [None] * indices.size)
            sep = np.asarray([math.nan if v is None else v for v in sep], np.float64)
            strategy, seed = payload["strategy"], int(payload["seed"])
        except (ValueError, KeyError, TypeError) as exc:
            raise DataError(f"malformed selection JSON: {exc!r}") from None
        return cls(indices=indices, fill_trace=fill, sep_trace=sep, strategy=strategy, seed=seed)


@dataclass(frozen=True)
class StrategySpec:
    """Which sampler to run and its options."""

    kind: str
    switch_fraction: float | None = None
    start_index: int | None = None

    def __post_init__(self):
        if self.kind not in STRATEGY_KINDS:
            raise DataError(f"unknown strategy {self.kind!r}; valid: {STRATEGY_KINDS}")
        if self.kind == "fps_then_random":
            if self.switch_fraction is None:
                raise DataError("fps_then_random requires switch_fraction")
            if not 0.0 < self.switch_fraction < 1.0:
                raise DataError("switch_fraction must be in (0, 1)")
        elif self.switch_fraction is not None:
            raise DataError("switch_fraction is only valid for fps_then_random")
        if self.start_index is not None and self.kind in ("random", "kmedoidspp"):
            raise DataError(f"start_index is not valid for {self.kind}")

    @property
    def label(self) -> str:
        if self.kind == "fps_then_random":
            return f"fps_then_random:{float(self.switch_fraction)!r}"
        return self.kind


# ---------------------------------------------------------------------------
# The nearest-selected walk
#
# Every sampler's traces, fill_distance, separation_distance and the FPS,
# facility-location and k-medoids++ picks come from one recurrence in _walk:
# each row's squared distance to its nearest selected row, lowered one pick at
# a time. Callers supply only the rule for the next row, so traces recorded by
# a sampler agree bit-for-bit with values recomputed from scratch.
# ---------------------------------------------------------------------------


def _as_pool(pool) -> np.ndarray:
    if isinstance(pool, _Geometry):
        return pool.pool  # validated when the geometry was built
    arr = np.ascontiguousarray(pool, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
        raise DataError(f"pool must be a non-empty 2-D matrix, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise DataError("pool contains NaN or Inf entries")
    return arr


class _Walk:
    """Every pool row's squared distance to its nearest selected row, kept
    lazily in row blocks of _WALK_BLOCK_ENTRIES entries.

    A block applies the rows selected since its last update only when it is
    read, one GEMV of the block per pending row, while it sits in cache. Each
    block remembers the largest value it held when last brought current, an
    upper bound on its values since, so ``farthest`` brings current only the
    blocks whose bound can still reach the largest value. Every (row, selected
    row) value is computed the same way whenever it is computed, and a row's
    value is the minimum of the same set of them, so nothing read depends on
    which blocks were skipped or batched.
    """

    def __init__(self, pool: np.ndarray, first: int):
        self.pool = pool
        n, d = pool.shape
        self.norms_sq = np.einsum("ij,ij->i", pool, pool)
        self.sq_near = np.full(n, math.inf)
        self.chosen = np.zeros(n, dtype=bool)
        self.selected = [first]
        self.chosen[first] = True
        # Multiples of 64 rows keep each block's rows where a whole-pool GEMV puts them.
        self.rows = max(64, _WALK_BLOCK_ENTRIES // d // 64 * 64)
        n_blocks = -(-n // self.rows)
        self.applied = [0] * n_blocks  # selected rows each block holds
        self.bound = [math.inf] * n_blocks  # each block's largest value when last current
        self.top = [0] * n_blocks  # the smallest row holding it
        self._d2 = np.empty(min(self.rows, n))
        self.far = first

    def _current(self, b: int) -> None:
        if self.applied[b] == len(self.selected):
            return
        lo = b * self.rows
        hi = min(lo + self.rows, self.pool.shape[0])
        block, near, norms = self.pool[lo:hi], self.sq_near[lo:hi], self.norms_sq[lo:hi]
        d2 = self._d2[: hi - lo]
        for row in self.selected[self.applied[b] :]:
            np.matmul(block, self.pool[row], out=d2)
            d2 *= -2.0
            d2 += norms
            d2 += self.norms_sq[row]
            np.maximum(d2, 0.0, out=d2)
            if lo <= row < hi:
                d2[row - lo] = 0.0  # exact self-distance despite cancellation in the expansion
            np.minimum(near, d2, out=near)
        self.applied[b] = len(self.selected)
        top = int(near.argmax())  # first max = smallest-index tie-break
        self.top[b] = lo + top
        self.bound[b] = float(near[top])
        if not math.isfinite(self.bound[b]):  # checked before any pick rule reads a value
            raise DataError(_OVERFLOW_MESSAGE)

    def farthest(self) -> float:
        """The largest squared distance to the selection; ``far`` becomes
        the smallest row that has it."""
        bound = self.bound
        best, far = -1.0, -1
        # Largest bound first; sorted() keeps equal bounds in row order.
        for b in sorted(range(len(bound)), key=bound.__getitem__, reverse=True):
            if bound[b] < best:
                break
            self._current(b)
            if bound[b] > best or (bound[b] == best and self.top[b] < far):
                best, far = bound[b], self.top[b]
        self.far = far
        return best

    def add(self, row: int) -> float:
        """Select ``row``; returns its squared distance to the earlier selection."""
        self._current(row // self.rows)
        self.selected.append(row)
        self.chosen[row] = True
        return float(self.sq_near[row])

    def sq_nearest(self) -> np.ndarray:
        """Every row's value, all blocks brought current; read-only."""
        for b in range(len(self.bound)):
            self._current(b)
        return self.sq_near


def _walk(pool: np.ndarray, first: int, budget: int, pick) -> tuple[np.ndarray, ...]:
    """Select ``first``, then ``pick(t, walk)`` for steps 1..budget-1.

    ``walk`` is the _Walk: ``walk.chosen`` marks the rows selected so far,
    ``walk.far`` is the smallest row farthest from them and
    ``walk.sq_nearest()`` every row's squared distance to them; ``pick`` must
    not modify any of these. Returns the indices and the per-step fill and
    separation traces.
    """
    walk = _Walk(pool, first)
    indices = np.empty(budget, dtype=np.int64)
    fill = np.empty(budget)
    sep = np.full(budget, math.nan)
    indices[0] = first
    fill[0] = math.sqrt(walk.farthest())
    smallest_sq = math.inf
    for t in range(1, budget):
        nxt = int(pick(t, walk))
        indices[t] = nxt
        smallest_sq = min(smallest_sq, walk.add(nxt))
        fill[t] = math.sqrt(walk.farthest())
        sep[t] = 0.5 * math.sqrt(smallest_sq)
    return indices, fill, sep


def _row_blocks(rows: int, width: int, multiple: int = 1):
    """Row ranges (lo, hi) whose blocks of ``width`` columns hold <= _BLOCK_ENTRIES
    entries, each a multiple of ``multiple`` rows but the last; blocks of
    ``multiple`` rows when no larger multiple fits."""
    step = max(multiple, _BLOCK_ENTRIES // max(width, 1) // multiple * multiple)
    for lo in range(0, rows, step):
        yield lo, min(lo + step, rows)


def _block_buffer(rows: int, width: int, multiple: int = 1) -> tuple[list, np.ndarray]:
    """The row ranges of _row_blocks, plus one buffer that holds the largest
    block (the first) for a pass that reuses it block after block."""
    blocks = list(_row_blocks(rows, width, multiple))
    return blocks, np.empty((blocks[0][1] if blocks else 0, width))


def _allocate(shape: tuple[int, int]) -> np.ndarray:
    """``np.empty(shape)``, or a DataError naming the shape and its size when
    the matrix cannot be allocated."""
    try:
        return np.empty(shape)
    except MemoryError:
        gib = shape[0] * shape[1] * 8 / 2**30
        raise DataError(
            f"cannot allocate a {shape[0]} x {shape[1]} float64 matrix ({gib:.3g} GiB); "
            "use fewer rows"
        ) from None


class _Geometry:
    """The one source of pairwise distance blocks, from the rows of a
    validated float64 ``pool`` to the rows of ``cols`` (the pool itself by
    default): squared distances from ``sq_dists``, Euclidean ones from
    ``dists``.

    With ``keep_matrix`` and at most _DENSE_MATRIX_LIMIT pool rows, one matrix
    of squared distances, ``cdist(pool, cols, "sqeuclidean")``, is built on the
    first read; every later squared block is sliced or gathered from it, and
    every Euclidean block is the root of that. Otherwise each block is
    recomputed with ``cdist``. Both give the same bits: a ``cdist`` block
    equals that slice of the full matrix, and ``np.sqrt`` of a squared block
    equals the Euclidean ``cdist`` block (tests/test_selection.py locks both).
    """

    def __init__(self, pool: np.ndarray, keep_matrix: bool = True, cols=None):
        self.pool = pool
        self.n = pool.shape[0]
        self.cols = pool if cols is None else cols
        self._keeps_matrix = keep_matrix and self.n <= _DENSE_MATRIX_LIMIT
        self._matrix: np.ndarray | None = None
        self._source: tuple[_Geometry, np.ndarray] | None = None

    def columns(self, indices: np.ndarray) -> _Geometry:
        """The geometry from the pool to the rows ``indices`` of ``self.cols``.
        When this one keeps its matrix, the new one keeps a matrix too, made on
        its first read: a column gather of this one's if that is built by
        then, else a ``cdist``, so the n x n matrix is built only for a reader
        that needs it."""
        sub = _Geometry(self.pool, self._keeps_matrix, self.cols[indices])
        sub._source = (self, indices)
        return sub

    def _squared(self) -> np.ndarray:
        """The kept matrix, built on first use."""
        if self._matrix is None:
            out = _allocate((self.n, self.cols.shape[0]))
            parent, indices = self._source or (None, None)
            if parent is None or parent._matrix is None:
                # A parent that has not built its matrix (a sweep of fps and
                # random with a pinned gamma) is not made to build it for this.
                self._matrix = cdist(self.pool, self.cols, "sqeuclidean", out=out)
            else:
                # The indices select rows of this pool, so they are in range;
                # mode="raise" would gather through a second buffer.
                self._matrix = np.take(parent._matrix, indices, axis=1, out=out, mode="clip")
        return self._matrix

    def sq_dists(self, rows, cols=slice(None), out=None) -> np.ndarray:
        """Squared distances from the pool rows ``rows`` to the rows ``cols``
        of ``self.cols``; each is a slice or an index array. A recomputed block
        is written into ``out`` when given; a kept matrix's is a slice or a gather."""
        if not self._keeps_matrix:
            return cdist(self.pool[rows], self.cols[cols], "sqeuclidean", out=out)
        if isinstance(rows, slice) or isinstance(cols, slice):
            return self._squared()[rows, cols]
        return self._squared()[rows[:, None], cols]

    def dists(self, rows, cols=slice(None)) -> np.ndarray:
        """Euclidean distances, read as ``sq_dists``, always in a fresh array.
        The root of a gathered block is taken in place, since the gather is
        already a fresh copy."""
        if not self._keeps_matrix:
            return cdist(self.pool[rows], self.cols[cols])
        block = self.sq_dists(rows, cols)
        if isinstance(rows, slice) and isinstance(cols, slice):  # a view of the kept matrix
            return np.sqrt(block)
        return np.sqrt(block, out=block)


def _geometry(pool, keep_matrix: bool) -> _Geometry:
    """The caller's shared geometry, or a new one around a raw pool."""
    return pool if isinstance(pool, _Geometry) else _Geometry(_as_pool(pool), keep_matrix)


def _check_selected(pool: np.ndarray, selected) -> np.ndarray:
    idx = np.ascontiguousarray(selected, dtype=np.int64)
    if idx.ndim != 1 or idx.size < 1:
        raise DataError("selected must be a non-empty index sequence")
    if (idx < 0).any() or (idx >= pool.shape[0]).any():
        raise DataError("selected index out of range")
    return idx


def selection_traces(pool, indices) -> tuple[np.ndarray, np.ndarray]:
    """Recompute per-step fill and separation traces for an ordered selection."""
    pool = _as_pool(pool)
    idx = _check_selected(pool, indices)
    _, fill, sep = _walk(pool, int(idx[0]), idx.size, lambda t, walk: idx[t])
    return fill, sep


def fill_distance(pool, selected) -> float:
    """Largest distance from any pool row to its nearest selected row."""
    return float(selection_traces(pool, selected)[0][-1])


def separation_distance(pool, selected) -> float:
    """Half the minimum pairwise distance among the selected rows.

    Walks only the selected rows, in the given order: each row's value in the
    walk depends on that row and the selected ones alone, so the result
    equals the last separation entry of a walk over the whole pool.
    """
    pool = _as_pool(pool)
    idx = _check_selected(pool, selected)
    if idx.size < 2:
        raise DataError("separation distance needs at least 2 selected rows")
    rows, order = np.unique(idx, return_inverse=True)  # a repeated index is at distance 0
    return float(selection_traces(pool[rows], order)[1][-1])


def nn_distances(pool) -> tuple[np.ndarray, float]:
    """Distance from every row to its nearest other row, plus the mean.

    The mean is the reference level against which isolated points are judged.
    ``pool`` is a raw pool or a pool-by-pool ``_Geometry``. A geometry that
    keeps its matrix gives the root of each row's smallest off-diagonal
    squared distance, read in row blocks of _BLOCK_ENTRIES; the root of the
    minimum is the minimum of the roots, so that equals the method below.

    Method. Each value is the row minimum of ``cdist(pool, pool)`` with the
    diagonal excluded, bit for bit: a GEMM only finds the candidates. The
    pool is scaled by the power of two ``2**-e`` that brings ``max|pool|``
    below 1, which is exact and keeps the mean from overflowing, then
    centred, so norms keep the digits a far-off pool would cancel. With
    ``x_i`` the centred rows and ``N_i = |x_i|**2``, row blocks of
    _BLOCK_ENTRIES scores ``G_ij = N_j - 2 x_i.x_j``, which is
    ``|x_i - x_j|**2 - N_i``, come from one GEMM, self entries set to +inf.
    Each row keeps every column whose score lies within its margin of the
    row's smallest score, and its distance is the minimum of ``cdist`` on the
    raw pool over those columns; a ``cdist`` sub-block equals that slice of
    the full matrix. The margin below puts the column of the true minimum in
    that set, so the value is exact.

    Margin. Let ``u = eps / 2``, ``s_ij`` the exact squared distance of the
    scaled pool, and work to first order in ``u``. Centring moves each
    ``x_ik`` by at most ``u |x_ik|``, so ``|x_i - x_j|**2`` is within
    ``2 eps (N_i + N_j)`` of ``s_ij``. A length-d dot product, in any
    summation order and so at any BLAS thread count, is off by at most
    ``d u |x_i| |x_j| <= d u (N_i + N_j) / 2``; with the norm and the final
    addition, ``G_ij`` is within ``delta_i = (d + 3) eps (N_i + N_max)`` of
    ``s_ij - N_i``. ``cdist`` rounds a squared distance by at most
    ``(d + 4) u`` relative, so if its minimum is at column k and G's at
    column a, then ``s_ik <= s_ia + (d + 4) eps s_ia`` and
    ``G_ik <= G_ia + 2 delta_i + (d + 4) eps s_ia``, where
    ``s_ia <= 2 (N_i + N_max)``. That sum is ``(4 d + 14) eps (N_i +
    N_max)``; the margin ``8 (d + 4) eps (N_i + N_max)`` adds room for the
    second order, so column k is kept whichever column G ranks first, ties
    included. Underflow adds absolute errors of ``2**-1075`` per
    rounding: fewer than ``2 (d + 2)`` in each GEMM score, plus the scaling
    of a pool spanning more than ``2**1022``; and ``cdist``'s ``d + 2`` on
    the raw pool, ``2**-1075`` raw each, that is ``2**(-1075 - 2 e)`` scaled.
    The floor ``16 (d + 2) (2**-1074 + 2**(-1074 - 2 e))`` covers both scores
    compared. Where it dominates, in pools whose squared distances underflow
    raw or whose spread is below ``2**-500`` of their largest entry, most
    rows keep every column: slower, still exact. An infinite margin also
    keeps the +inf self entry; it arises only for pools below ``2**-1000``,
    where every raw squared distance, self included, underflows to 0.

    Memory: one scaled copy of the pool plus a few blocks of
    _BLOCK_ENTRIES entries (4 MiB each), also when every row keeps every
    column.
    """
    kept = isinstance(pool, _Geometry) and pool._keeps_matrix and pool.cols is pool.pool
    geometry, pool = pool, _as_pool(pool)
    n, d = pool.shape
    if n < 2:
        raise DataError("nearest-neighbour distances need at least 2 rows")
    if kept:
        return _nn_from_matrix(geometry._squared())
    # Scaled rows as columns: a contiguous right-hand GEMM operand runs faster.
    scale_exp = int(np.frexp(np.abs(pool).max())[1])
    xt = np.ldexp(pool.T, -scale_exp, order="C")
    xt -= xt.mean(axis=1, keepdims=True)
    norms = np.einsum("ij,ij->j", xt, xt)
    eps = np.finfo(np.float64).eps
    # Clamped: a floor of 2**1023 already keeps every column.
    raw_floor = math.ldexp(1.0, min(-1074 - 2 * scale_exp, 1023))
    floor = 16 * (d + 2) * (math.ldexp(1.0, -1074) + raw_floor)
    margins = 8 * (d + 4) * eps * (norms + norms.max()) + floor

    out = np.empty(n)
    blocks, scores = _block_buffer(n, n)
    for lo, hi in blocks:
        rows = np.arange(hi - lo)
        g = scores[: hi - lo]
        np.matmul(-2.0 * xt[:, lo:hi].T, xt, out=g)
        g += norms
        g[rows, rows + lo] = np.inf
        keep = g <= (g.min(axis=1) + margins[lo:hi])[:, None]
        cols = np.flatnonzero(keep.any(axis=0))
        block = cdist(pool[lo:hi], pool[cols])
        block[~keep[:, cols]] = np.inf
        out[lo:hi] = block.min(axis=1)
    return out, float(out.mean())


def _nn_from_matrix(squared: np.ndarray) -> tuple[np.ndarray, float]:
    """nn_distances from a kept n x n matrix of squared distances, which is
    left as it is: each row block is copied before its diagonal is masked."""
    n = squared.shape[0]
    out = np.empty(n)
    blocks, buf = _block_buffer(n, n)
    for lo, hi in blocks:
        block = buf[: hi - lo]
        np.copyto(block, squared[lo:hi])
        rows = np.arange(hi - lo)
        block[rows, rows + lo] = np.inf
        block.min(axis=1, out=out[lo:hi])
    np.sqrt(out, out=out)
    return out, float(out.mean())


# ---------------------------------------------------------------------------
# Samplers
# ---------------------------------------------------------------------------


def _check_budget(n: int, budget: int) -> int:
    budget = int(budget)
    if not 1 <= budget <= n:
        raise DataError(f"budget must satisfy 1 <= b <= {n}, got {budget}")
    return budget


def _first_index(n: int, seed: int, start_index: int | None) -> int:
    if start_index is not None:
        start_index = int(start_index)
        if not 0 <= start_index < n:
            raise DataError(f"start_index {start_index} out of range for {n} rows")
        return start_index
    return int(rng_from_seed(seed).integers(n))


def _farthest(t: int, walk: _Walk) -> int:
    nxt = walk.far  # the smallest-index tie-break
    if walk.chosen[nxt]:  # every row is at distance zero; take the smallest unselected
        nxt = int(np.flatnonzero(~walk.chosen)[0])
    return nxt


def fps(pool, budget: int, seed: int = 0, start_index: int | None = None) -> SelectionResult:
    """Farthest point sampling.

    Starts from a seeded-uniform row (or ``start_index``) and repeatedly adds
    the row farthest from the current selection, ties broken by smallest row
    index. Once every row is at distance zero from the selection (duplicate
    rows), the smallest unselected row is added. A per-row minimum-distance
    cache keeps the cost at O(n * budget) distance evaluations and O(n)
    extra memory; the walk (_Walk) updates it lazily in row blocks, so most
    blocks take their pending rows in one pass over cached data.
    """
    pool = _as_pool(pool)
    n = pool.shape[0]
    budget = _check_budget(n, budget)
    first = _first_index(n, seed, start_index)
    indices, fill, sep = _walk(pool, first, budget, _farthest)
    return SelectionResult(indices, fill, sep, strategy="fps", seed=int(seed))


def random_select(pool, budget: int, seed: int = 0) -> SelectionResult:
    """Uniform sampling without replacement, deterministic in the seed."""
    pool = _as_pool(pool)
    n = pool.shape[0]
    budget = _check_budget(n, budget)
    indices = rng_from_seed(seed).permutation(n)[:budget].astype(np.int64)
    fill, sep = selection_traces(pool, indices)
    return SelectionResult(indices, fill, sep, strategy="random", seed=int(seed))


def facility_location(
    pool, budget: int, seed: int = 0, start_index: int | None = None
) -> SelectionResult:
    """Add-only greedy minimization of the summed distance from every pool
    row to its nearest selected row.

    Each step adds the candidate of smallest computed score (smallest row
    index among equal scores). The greedy is lazy (Minoux's accelerated
    greedy): a candidate's last computed gain bounds its current one, so a
    step rescores only the candidates whose bound could still reach the best
    score, at one distance row (O(n)) each. Every bound starts at -inf, so
    the first step scores every candidate, O(n^2) distance evaluations; when
    many gains tie exactly, later steps rescore nearly every candidate too.
    Rescoring pops up to _RESCORE_BATCH such candidates at a time and scores
    them as one gathered block; a candidate popped only because the best had
    not yet fallen scores strictly above the final best, so the picks are
    those of rescoring one at a time. Pools of up to _DENSE_MATRIX_LIMIT rows
    keep the n x n matrix of squared distances (8 MB at n=1000, 512 MiB at
    n=8192) and read each distance row as its root: a standalone call builds
    its own, and a sweep keeps one that every sampler and the kernels share.
    Larger pools recompute each row they read.
    """
    geom = _geometry(pool, keep_matrix=True)
    n = geom.n
    budget = _check_budget(n, budget)
    first = _first_index(n, seed, start_index)

    # Exact distances: the walk's norm-expansion cache cancels far from the origin.
    min_dists = geom.dists(slice(first, first + 1))[0]
    if not math.isfinite(min_dists.sum()):
        raise DataError(_OVERFLOW_MESSAGE)
    # Rounding slack for the lazy bounds: no later sum of min_dists exceeds this one.
    margin = 64 * n * np.finfo(np.float64).eps * float(min_dists.sum())
    # Heap of (last score - its sum(min_dists), row). A bound of -inf makes the
    # first step score every row; a list sorted by row is already a heap.
    stale = [(-math.inf, row) for row in range(n) if row != first]

    def cheapest(t, walk):
        # Gains only shrink, so total + (stale score - stale total) bounds a
        # row's score from below; rescore rows until no bound can reach the best.
        total = float(min_dists.sum())
        best = math.inf
        rescored = []
        while stale and total + stale[0][0] <= best + margin:
            rows = []
            while stale and len(rows) < _RESCORE_BATCH and total + stale[0][0] <= best + margin:
                rows.append(heapq.heappop(stale)[1])
            block = geom.dists(np.array(rows))
            scores = np.minimum(block, min_dists, out=block).sum(axis=1).tolist()
            rescored.extend(zip(scores, rows))
            best = min(best, *scores)
        nxt = min(rescored)[1]  # smallest score, then smallest index
        for score, row in rescored:
            if row != nxt:
                heapq.heappush(stale, (score - total, row))
        np.minimum(min_dists, geom.dists(slice(nxt, nxt + 1))[0], out=min_dists)
        return nxt

    indices, fill, sep = _walk(geom.pool, first, budget, cheapest)
    return SelectionResult(indices, fill, sep, strategy="facility_location", seed=int(seed))


def kmedoidspp(pool, budget: int, seed: int = 0, max_iters: int = 100) -> SelectionResult:
    """k-medoids with squared-distance-proportional (++) seeding.

    After seeding, alternates assignment to the nearest medoid with replacing
    each medoid by the member of its cluster minimizing the within-cluster
    summed distance, until no medoid changes or ``max_iters`` is reached.
    Each medoid is pinned to its own cluster during assignment, so clusters
    are never empty. Deterministic in the seed.

    Both Lloyd passes read distances in row blocks of at most _BLOCK_ENTRIES.
    A standalone call recomputes each block and holds one at a time. In a
    sweep of n <= _DENSE_MATRIX_LIMIT rows each block is the root of a gather
    from the one n x n matrix of squared distances the sweep keeps and shares
    with gamma=auto, facility location and the kernels (8 MB at n=1000,
    512 MiB at n=8192).
    """
    geom = _geometry(pool, keep_matrix=False)
    n = geom.n
    budget = _check_budget(n, budget)
    if max_iters < 0:
        raise DataError("max_iters must be >= 0")
    rng = rng_from_seed(seed)

    def d2_draw(t, walk):
        d2, chosen = walk.sq_nearest(), walk.chosen
        total = float(d2.sum())
        if total > 0.0:
            u = float(rng.uniform(0.0, total))
            nxt = int(np.searchsorted(np.cumsum(d2), u, side="right"))
            nxt = min(nxt, n - 1)
            if chosen[nxt]:  # landed on a zero-mass chosen row by rounding
                nxt = int(np.flatnonzero(~chosen)[0])
        else:
            # Remaining rows all duplicate chosen ones; take the smallest.
            nxt = int(np.flatnonzero(~chosen)[0])
        return nxt

    medoids = _walk(geom.pool, int(rng.integers(n)), budget, d2_draw)[0]

    assign = np.empty(n, dtype=np.int64)
    for _ in range(max_iters):
        for lo, hi in _row_blocks(n, budget):
            assign[lo:hi] = geom.dists(slice(lo, hi), medoids).argmin(axis=1)
        assign[medoids] = np.arange(budget)
        updated = medoids.copy()
        for k in range(budget):
            members = np.flatnonzero(assign == k)
            costs = np.empty(members.size)
            for lo, hi in _row_blocks(members.size, members.size):
                costs[lo:hi] = geom.dists(members[lo:hi], members).sum(axis=1)
            updated[k] = members[int(np.argmin(costs))]
        if np.array_equal(updated, medoids):
            break
        medoids = updated

    fill, sep = selection_traces(geom.pool, medoids)
    return SelectionResult(medoids, fill, sep, strategy="kmedoidspp", seed=int(seed))


def fps_then_random(
    pool,
    budget: int,
    switch_fraction: float,
    seed: int = 0,
    start_index: int | None = None,
) -> SelectionResult:
    """Farthest point sampling for the first ceil(switch_fraction * n) picks,
    then uniform sampling over the remaining rows.

    When the budget does not exceed the switch point this is exactly ``fps``
    with the same seed.
    """
    pool = _as_pool(pool)
    n = pool.shape[0]
    budget = _check_budget(n, budget)
    if not 0.0 < switch_fraction < 1.0:
        raise DataError("switch_fraction must be in (0, 1)")
    n_switch = min(budget, math.ceil(switch_fraction * n))
    tail_rng = rng_from_seed(child_seed(seed, "fps_then_random", "post-switch"))
    tail = None

    def pick(t, walk):
        nonlocal tail
        if t < n_switch:
            return _farthest(t, walk)
        if tail is None:
            remaining = np.flatnonzero(~walk.chosen)
            tail = remaining[tail_rng.permutation(remaining.size)]
        return tail[t - n_switch]

    first = _first_index(n, seed, start_index)
    indices, fill, sep = _walk(pool, first, budget, pick)
    return SelectionResult(indices, fill, sep, strategy="fps_then_random", seed=int(seed))


def select(pool, spec: StrategySpec, budget: int, seed: int = 0) -> SelectionResult:
    """Run the sampler named by a StrategySpec on a pool or a shared geometry."""
    return _SAMPLERS[spec.kind](pool, spec, budget, seed)


# ---------------------------------------------------------------------------
# Exhaustive oracles
# ---------------------------------------------------------------------------


def _check_bruteforce(n: int, budget: int) -> None:
    if math.comb(n, budget) > _BRUTEFORCE_LIMIT:
        raise DataError(
            f"C({n}, {budget}) exceeds the brute-force guard of {_BRUTEFORCE_LIMIT}"
        )


def kcenter_bruteforce(pool, budget: int) -> tuple[float, np.ndarray]:
    """Exact minimum fill distance over all budget-subsets, with the first
    lexicographic witness. Guarded to C(n, b) <= 1e6 subsets."""
    pool = _as_pool(pool)
    n = pool.shape[0]
    budget = _check_budget(n, budget)
    _check_bruteforce(n, budget)
    dist_matrix = cdist(pool, pool)
    best = math.inf
    witness: tuple[int, ...] | None = None
    for subset in itertools.combinations(range(n), budget):
        value = dist_matrix[:, subset].min(axis=1).max()
        if value < best:
            best = float(value)
            witness = subset
    return best, np.asarray(witness, dtype=np.int64)


def maxsep_bruteforce(pool, budget: int) -> tuple[float, np.ndarray]:
    """Exact maximum separation distance over all budget-subsets, with the
    first lexicographic witness. Guarded to C(n, b) <= 1e6 subsets."""
    pool = _as_pool(pool)
    n = pool.shape[0]
    budget = _check_budget(n, budget)
    if budget < 2:
        raise DataError("separation distance needs at least 2 selected rows")
    _check_bruteforce(n, budget)
    dist_matrix = cdist(pool, pool)
    iu = np.triu_indices(budget, k=1)
    best = -math.inf
    witness: tuple[int, ...] | None = None
    for subset in itertools.combinations(range(n), budget):
        sub = dist_matrix[np.ix_(subset, subset)]
        value = 0.5 * sub[iu].min()
        if value > best:
            best = float(value)
            witness = subset
    return best, np.asarray(witness, dtype=np.int64)
