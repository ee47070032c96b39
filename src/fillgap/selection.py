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
from .rng import _count, _floats, _indices, _integral, _numeric, _real, child_seed, rng_from_seed

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

# Kinds that read a shared geometry's pool-by-pool distances.
_MATRIX_KINDS = ("facility_location", "kmedoidspp")

# Up to this pool size a _Geometry that keeps its matrix of squared distances
# builds it when it is made. A sweep whose strategies include a _MATRIX_KINDS
# sampler keeps one n x n matrix (8 MB at n=1000, 512 MiB at n=8192), and per
# selection run one n x B matrix for the B selected rows, which that run's
# cells slice their kernels from: a column gather of the n x n one when the
# sweep keeps it, a cdist otherwise. Above the limit, and in a standalone
# kmedoidspp call, every block read is recomputed.
_DENSE_MATRIX_LIMIT = 8192

# Every row-block pass holds at most this many entries at once (1 MiB): the
# nearest-selected walk, nn_distances' square tiles (362 rows a side), both
# k-medoids Lloyd passes and the kernel values of regression's predictions.
# Blocks this small stay in a core's cache while the walk applies every row
# selected since a block was last read. FPS of 1000 from 100000 rows at d=64 on
# one BLAS thread of a 2-core Xeon VM (2 MiB L2 per core): a prototype took
# 2.6 s with blocks of 2**16 entries, 1.9 s with 2**17 and 3.7 s with 2**18;
# this walk takes 2.1-2.5 s, and a whole-pool GEMV per pick took 6.4-8.0 s.
# The walk and predictions round their blocks down to a multiple of 64 rows.
_BLOCK_ENTRIES = 2**17

# Facility location scores up to this many candidates as one block, on its
# first step, which scores every row, and on every lazy rescoring after it:
# one gather and one root per block instead of per candidate. On sweep-tail
# (n=1000, about 25000 rescored rows per sweep) scoring one row at a time was
# slower in 7 of 10 benchmark pairs, by 10 % in the median.
_RESCORE_BATCH = 8

# k-medoids++ runs at most this many Lloyd iterations, standalone and in a sweep.
_KMEDOIDS_MAX_ITERS = 100

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
        idx = _indices(self.indices)
        fill = np.ascontiguousarray(_numeric(self.fill_trace, "fill_trace"), dtype=np.float64)
        sep = np.ascontiguousarray(_numeric(self.sep_trace, "sep_trace"), dtype=np.float64)
        if np.unique(idx).size != idx.size:
            raise DataError("selected indices must be distinct")
        if fill.shape != idx.shape or sep.shape != idx.shape:
            raise DataError("traces must have one entry per selection step")
        for name, trace in (("fill_trace", fill), ("sep_trace", sep)):  # distances, NaN where undefined
            if np.isinf(trace).any():
                raise DataError(f"{name} must have finite or NaN entries, got Inf")
        object.__setattr__(self, "indices", idx)
        object.__setattr__(self, "fill_trace", fill)
        object.__setattr__(self, "sep_trace", sep)
        object.__setattr__(self, "seed", _integral(self.seed, "seed"))

    def to_json(self, include_traces: bool = True) -> str:
        payload: dict = {
            "strategy": self.strategy,
            "seed": self.seed,
            "indices": [int(i) for i in self.indices],
        }
        if include_traces:  # NaN as null: bare NaN is not JSON
            for key in ("fill_trace", "sep_trace"):
                payload[key] = [None if math.isnan(v) else v for v in getattr(self, key).tolist()]
        return json.dumps(payload)

    @classmethod
    def from_json(cls, text: str) -> "SelectionResult":
        try:
            payload = json.loads(text)
            indices = payload["indices"]
            fill, sep = (  # null, or a missing trace, is NaN
                [math.nan if v is None else v for v in payload.get(key, [None] * len(indices))]
                for key in ("fill_trace", "sep_trace")
            )
            return cls(indices, fill, sep, strategy=payload["strategy"], seed=payload["seed"])
        except (DataError, ValueError, KeyError, TypeError) as exc:
            raise DataError(f"malformed selection JSON: {exc!r}") from None


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
            object.__setattr__(self, "switch_fraction", _real(self.switch_fraction, "switch_fraction"))
            if not 0.0 < self.switch_fraction < 1.0:
                raise DataError("switch_fraction must be in (0, 1)")
        elif self.switch_fraction is not None:
            raise DataError("switch_fraction is only valid for fps_then_random")
        if self.start_index is not None and self.kind in ("random", "kmedoidspp"):
            raise DataError(f"start_index is not valid for {self.kind}")
        if self.start_index is not None:
            object.__setattr__(self, "start_index", _integral(self.start_index, "start_index"))

    @property
    def label(self) -> str:
        if self.kind == "fps_then_random":
            return f"fps_then_random:{self.switch_fraction!r}"
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
    arr = _floats(pool, "pool", 2)
    if arr.size < 1:
        raise DataError(f"pool must be non-empty, got shape {arr.shape}")
    return arr


class _Walk:
    """Every pool row's squared distance to its nearest selected row, kept
    lazily in the row blocks of _row_blocks(n, d, 64).

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
        self.blocks = list(_row_blocks(n, d, 64))
        self.rows = self.blocks[0][1]  # the rows of every block but the last
        n_blocks = len(self.blocks)
        self.applied = [0] * n_blocks  # selected rows each block holds
        self.bound = [math.inf] * n_blocks  # each block's largest value when last current
        self.top = [0] * n_blocks  # the smallest row holding it
        self._d2 = np.empty(self.rows)
        self.far = first

    def _current(self, b: int) -> None:
        if self.applied[b] == len(self.selected):
            return
        lo, hi = self.blocks[b]
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
    ``dists``, always their roots.

    A geometry keeps ``matrix`` when one is given. Otherwise, with
    ``keep_matrix`` and at most _DENSE_MATRIX_LIMIT pool rows, it builds
    ``cdist(pool, cols, "sqeuclidean")`` when it is made and keeps that. Every
    block of a kept matrix is sliced or gathered from it; without one, each
    block is recomputed with ``cdist``. Both give the same bits: a ``cdist``
    block equals that slice of the full matrix, and ``np.sqrt`` of a squared
    block equals the Euclidean ``cdist`` block (tests/test_selection.py locks
    both).
    """

    def __init__(self, pool: np.ndarray, keep_matrix: bool = True, cols=None, matrix=None):
        self.pool = pool
        self.n = pool.shape[0]
        self.cols = pool if cols is None else cols
        if matrix is None and keep_matrix and self.n <= _DENSE_MATRIX_LIMIT:
            out = _allocate((self.n, self.cols.shape[0]))
            matrix = cdist(self.pool, self.cols, "sqeuclidean", out=out)
        self._matrix = matrix

    def columns(self, indices: np.ndarray) -> _Geometry:
        """The geometry from the pool to the rows ``indices`` of ``self.cols``.
        Up to the dense limit it keeps its n x B matrix: a column gather of
        this one's kept matrix, else a ``cdist``."""
        matrix = None
        if self._matrix is not None:
            # The indices select rows of this pool, so they are in range;
            # mode="raise" would gather through a second buffer.
            out = _allocate((self.n, len(indices)))
            matrix = np.take(self._matrix, indices, axis=1, out=out, mode="clip")
        return _Geometry(self.pool, True, self.cols[indices], matrix)

    def sq_dists(self, rows, cols=slice(None), out=None) -> np.ndarray:
        """Squared distances from the pool rows ``rows`` to the rows ``cols``
        of ``self.cols``; each is a slice or an index array. A recomputed block,
        and a kept matrix's gather of index rows and sliced columns, is written
        into ``out`` when given; other blocks of a kept matrix are a slice or a
        fresh gather."""
        if self._matrix is None:
            return cdist(self.pool[rows], self.cols[cols], "sqeuclidean", out=out)
        if out is not None and isinstance(cols, slice) and not isinstance(rows, slice):
            # Gathered into ``out`` in row blocks: a gather of the whole block
            # would make a second array of its size (np.take copies a
            # non-contiguous source whole).
            for lo, hi in _row_blocks(len(rows), out.shape[1]):
                out[lo:hi] = self._matrix[rows[lo:hi], cols]
            return out
        if isinstance(rows, slice) or isinstance(cols, slice):
            return self._matrix[rows, cols]
        return self._matrix[rows[:, None], cols]

    def dists(self, rows, cols=slice(None)) -> np.ndarray:
        """Euclidean distances, the roots of ``sq_dists``, always in a fresh
        array: taken in place unless the block is a view of the kept matrix."""
        block = self.sq_dists(rows, cols)
        if self._matrix is not None and isinstance(rows, slice) and isinstance(cols, slice):
            return np.sqrt(block)
        return np.sqrt(block, out=block)


def selection_traces(pool, indices) -> tuple[np.ndarray, np.ndarray]:
    """Recompute per-step fill and separation traces for an ordered selection."""
    pool = _as_pool(pool)
    idx = _indices(indices, pool.shape[0])
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
    idx = _indices(selected, pool.shape[0])
    if idx.size < 2:
        raise DataError("separation distance needs at least 2 selected rows")
    rows, order = np.unique(idx, return_inverse=True)  # a repeated index is at distance 0
    return float(selection_traces(pool[rows], order)[1][-1])


def _tile_candidates(scores, thresholds, margins):
    """Rows of a score tile that have candidates in it, and the union of their
    candidate columns, as masks; lowers the rows' running ``thresholds``.

    A row has candidates when the tile's smallest score for it reaches its
    threshold, which then falls to that score plus the row's margin; its
    candidates are the columns whose scores do not pass the new threshold.
    Other rows keep their thresholds, which all their scores exceed.
    """
    low = scores.min(axis=1)
    rows = low <= thresholds
    np.minimum(thresholds, low + margins, out=thresholds)
    cols = (scores[rows] <= thresholds[rows, None]).any(axis=0)
    return rows, cols


def _nn_tiles(pool: np.ndarray):
    """The set-up that nn_distances and _median_nn share (see nn_distances'
    Method and Margin): the exponent ``e`` of the scaling ``2**-e``, every
    row's margin, and a generator of the score tiles ``(i, j, scores)`` of
    the upper triangle, band by band and the diagonal first, self entries
    set to +inf. ``i`` and ``j`` are the slices of the tile's rows and
    columns, equal on the diagonal; each tile's ``scores`` is overwritten by
    the next one."""
    n, d = pool.shape
    if n < 2:
        raise DataError("nearest-neighbour distances need at least 2 rows")
    scale_exp = int(np.frexp(np.abs(pool).max())[1])
    left = np.empty((n, d + 2))  # rows [x_i, N_i, 1]
    x, norms = left[:, :d], left[:, d]
    np.ldexp(pool, -scale_exp, out=x)
    x -= x.mean(axis=0)
    np.einsum("ij,ij->i", x, x, out=norms)
    left[:, d + 1] = 1.0
    right = np.empty((n, d + 2))  # rows [-2 x_j, 1, N_j]
    np.multiply(x, -2.0, out=right[:, :d])
    right[:, d] = 1.0
    right[:, d + 1] = norms
    eps = np.finfo(np.float64).eps
    # Clamped: a floor of 2**1023 already keeps every column.
    raw_floor = math.ldexp(1.0, min(-1074 - 2 * scale_exp, 1023))
    floor = 16 * (d + 2) * (math.ldexp(1.0, -1074) + raw_floor)
    margins = 8 * (d + 4) * eps * (norms + norms.max()) + floor

    def tiles():
        side = math.isqrt(_BLOCK_ENTRIES)
        starts = range(0, n, side)
        buffer = np.empty(min(side, n) ** 2)
        for band in range(len(starts)):
            for lo_i, lo_j in zip(starts, starts[band:]):
                i, j = slice(lo_i, lo_i + side), slice(lo_j, lo_j + side)
                h, w = left[i].shape[0], left[j].shape[0]
                scores = np.matmul(left[i], right[j].T, out=buffer[: h * w].reshape(h, w))
                if band == 0:
                    np.fill_diagonal(scores, np.inf)
                yield i, j, scores

    return scale_exp, margins, tiles()


def nn_distances(pool) -> tuple[np.ndarray, float]:
    """Distance from every row to its nearest other row, plus the mean.

    The mean is the reference level against which isolated points are judged.
    A pool whose distances overflow float64 (a mean that is not finite) raises DataError.

    Method. Each value is the row minimum of ``cdist(pool, pool)`` with the
    diagonal excluded, bit for bit: a GEMM only finds the candidates. The
    pool is scaled by the power of two ``2**-e`` that brings ``max|pool|``
    below 1, which is exact and keeps the mean from overflowing, then
    centred, so norms keep the digits a far-off pool would cancel. With
    ``x_i`` the centred rows and ``N_i = |x_i|**2``, the upper triangle of
    the score matrix is cut into square tiles of about _BLOCK_ENTRIES
    entries (1 MiB, 362 rows a side), small enough to stay in a core's
    cache. Each tile's scores ``T_ij = N_i + N_j - 2 x_i.x_j``, estimates of
    ``|x_i - x_j|**2``, come from one GEMM of the augmented rows
    ``[x_i, N_i, 1]`` by ``[-2 x_j, 1, N_j]``; self entries are set to +inf.
    Tiles run band by band, the diagonal first, so rows near each other in
    the pool's order meet early. An off-diagonal tile is reduced along its
    rows, for its row block, and along its columns, for its column block.
    Every row keeps a running threshold, its smallest score so far plus its
    margin; it has candidates in a tile only when the tile's minimum for it
    reaches that threshold, and they are the columns whose scores do not
    pass the lowered one (_tile_candidates). Thresholds only fall, so each
    stays at or above the final one, which the score of the row's true
    nearest column does not pass (see Margin): that column is a candidate in
    its tile. A tile with candidates takes one ``cdist`` on the raw pool,
    from the rows with candidates on either side to the union of their
    candidate columns, self pairs excluded, and its row and column minima
    are folded into the output; a ``cdist`` sub-block equals that slice of
    the full matrix, which is bitwise symmetric. Each value is then the
    minimum of ``cdist`` over a set of other rows that holds the nearest one,
    so neither tile order nor BLAS thread count changes a bit.

    Margin. Let ``u = eps / 2``, ``s_ij`` the exact squared distance of the
    scaled pool, and work to first order in ``u``. Centring moves each
    ``x_ik`` by at most ``u |x_ik|`` (an error in a column's mean shifts
    every row alike), so ``|x_i - x_j|**2`` is within ``2 eps (N_i + N_j)``
    of ``s_ij``. Each ``N_i`` is off by at most ``d u N_i``. The augmented
    dot product has ``d + 2`` terms whose magnitudes sum to at most
    ``2 (N_i + N_j)``; in any summation order, and so at any BLAS thread
    count, it is off by at most ``(d + 2) u 2 (N_i + N_j)``. So ``T_ij``,
    from whichever tile and side, is within ``delta_i = (3 d / 2 + 4) eps
    (N_i + N_max)`` of ``s_ij``. ``cdist`` rounds a squared distance by at
    most ``(d + 4) u`` relative, so if its minimum is at column k and the
    row's smallest score at column a, then ``s_ik <= s_ia + (d + 4) eps
    s_ia`` and ``T_ik <= T_ia + 2 delta_i + (d + 4) eps s_ia``, where
    ``s_ia <= 2 (N_i + N_max)``. That sum is ``(5 d + 16) eps (N_i +
    N_max)``; the margin ``8 (d + 4) eps (N_i + N_max)`` adds room for the
    second order, so column k is kept whichever column the scores rank
    first, ties included. Underflow adds absolute errors of ``2**-1075`` per
    rounding: fewer than ``3 (d + 2)`` in each score (the products of the
    dot product and of both norms), plus the scaling of a pool spanning
    more than ``2**1022``; and ``cdist``'s ``d + 2`` on the raw pool,
    ``2**-1075`` raw each, that is ``2**(-1075 - 2 e)`` scaled. The floor
    ``16 (d + 2) (2**-1074 + 2**(-1074 - 2 e))`` covers both scores
    compared. Where it dominates, in pools whose squared distances underflow
    raw or whose spread is below ``2**-500`` of their largest entry, most
    rows keep every column: slower, still exact. The margin is infinite only
    for pools below ``2**-1000``; every column is then a candidate.

    Bracket. The same bounds place each row's value without a search. Let
    ``low_i = T_ia`` be the row's smallest score, ``m_i`` its margin and
    ``c_i`` its value squared and scaled, ``cdist``'s at column k. From
    above, ``c_i`` is at most ``cdist``'s value at column a, so ``c_i <=
    s_ia + (d + 4) u s_ia <= low_i + delta_i + (d + 4) u s_ia``. From below,
    ``c_i >= s_ik - (d + 4) u s_ik`` and ``s_ik >= T_ik - delta_i >= low_i -
    delta_i``. Both ``s_ia`` and ``s_ik`` are at most ``2 (N_i + N_max)`` to
    first order, so both deviations are at most ``(5 d / 2 + 8) eps (N_i +
    N_max)``, under the margin, and with the floor as above ``c_i`` lies in
    ``[low_i - m_i, low_i + m_i]``. Computing the two ends rounds them by
    ``u`` relative, which the margin's slack of ``(3 d + 16) eps (N_i +
    N_max)`` absorbs. Order statistics keep the bracket: if ``L`` is the
    k-th smallest lower end and ``H`` the k-th smallest upper end (from 0),
    the k-th smallest value lies in ``[L, H]``. The k + 1 smallest values
    each have a lower end at or below it, and the k + 1 rows with the
    smallest upper ends each have a value at or below ``H``. _median_nn
    reads the median this way.

    Memory: the two augmented copies of the pool, ``n x (d + 2)`` each, and
    a few tiles of 1 MiB, also when every row ties with every other.
    """
    pool = _as_pool(pool)
    _, margins, tiles = _nn_tiles(pool)
    out = np.full(pool.shape[0], np.inf)
    thresholds = np.full(pool.shape[0], np.inf)
    for i, j, scores in tiles:
        rows, cols = _tile_candidates(scores, thresholds[i], margins[i])
        if i != j:
            more_cols, more_rows = _tile_candidates(scores.T, thresholds[j], margins[j])
            rows |= more_rows
            cols |= more_cols
        if not rows.any():
            continue
        block = cdist(pool[i][rows], pool[j][cols])
        if i == j:
            block[np.flatnonzero(rows)[:, None] == np.flatnonzero(cols)] = np.inf
        out_i, out_j = out[i], out[j]
        out_i[rows] = np.minimum(out_i[rows], block.min(axis=1))
        out_j[cols] = np.minimum(out_j[cols], block.min(axis=0))
    mean = float(out.mean())
    if not math.isfinite(mean):
        raise DataError(_OVERFLOW_MESSAGE)
    return out, mean


def _median_nn(pool) -> float:
    """``np.median(nn_distances(pool)[0])`` bit for bit, with the same
    errors, for callers that need the median and no other value.

    One pass over nn_distances' score tiles keeps each row's smallest score
    and nothing else: no candidates and no ``cdist`` per tile. The row's
    exact value, squared and scaled, lies in its bracket, that score plus or
    minus the row's margin (nn_distances, Bracket). With ``k1 = (n - 1) // 2``
    and ``k2 = n // 2``, the median reads the k1-th and k2-th smallest values
    (from 0), and both lie in ``[L, H]``, where ``L`` is the k1-th smallest
    lower end and ``H`` the k2-th smallest upper end. Only the rows whose
    brackets meet ``[L, H]`` take exact values, the row minima of
    ``cdist(pool[rows], pool)`` without self pairs, in blocks of at most
    _BLOCK_ENTRIES entries (one row when a row holds more); the rows wholly
    below ``L`` are counted, which gives the two statistics' ranks among the
    exact values. On a pool without exact ties a few rows are exact; where
    many rows tie, as in lattices and duplicates, nearly every row can be,
    still in blocks of 1 MiB.

    Overflow. nn_distances raises when its mean is not finite, which happens
    exactly when some row's value is inf: a finite value is below ``2**512``,
    so a sum of them is finite. A raw squared distance overflows when its
    scaled value passes about ``2**(1024 - 2 e)``. A row whose bracket lies
    wholly above twice that level is inf, so the pool raises at once; a
    row whose bracket reaches half of it takes an exact value, and raises
    when that is inf; the other rows are finite.

    Memory: the two augmented copies of the pool during the tile pass (the
    exhausted generator frees them), a few per-row arrays after it, and
    blocks of 1 MiB.
    """
    pool = _as_pool(pool)
    n = pool.shape[0]
    scale_exp, margins, tiles = _nn_tiles(pool)
    low = np.full(n, np.inf)
    for i, j, scores in tiles:
        np.minimum(low[i], scores.min(axis=1), out=low[i])
        if i != j:
            np.minimum(low[j], scores.min(axis=0), out=low[j])
    high = low + margins  # each row's bracket is [low, high]
    low -= margins
    del margins
    level = math.ldexp(1.0, min(1024 - 2 * scale_exp, 1023))
    if (low > 2.0 * level).any():
        raise DataError(_OVERFLOW_MESSAGE)
    k1, k2 = (n - 1) // 2, n // 2
    lower, upper = np.partition(low, k1)[k1], np.partition(high, k2)[k2]  # L and H
    middle = (high >= lower) & (low <= upper)
    rows = np.flatnonzero(middle | (high >= 0.5 * level))
    values = np.empty(rows.size)  # nn_distances' values of these rows
    for lo, hi in _row_blocks(rows.size, n):
        block = cdist(pool[rows[lo:hi]], pool)
        block[np.arange(hi - lo), rows[lo:hi]] = np.inf
        values[lo:hi] = block.min(axis=1)
    if np.isinf(values).any():
        raise DataError(_OVERFLOW_MESSAGE)
    below = np.count_nonzero(high < lower)
    ranked = np.sort(values[middle[rows]])
    return float(np.median(ranked[k1 - below : k2 - below + 1]))


# ---------------------------------------------------------------------------
# Samplers
# ---------------------------------------------------------------------------


def _pool_and_budget(pool, budget) -> tuple[np.ndarray, int, int]:
    """The validated pool of a bare pool or a _Geometry, its row count, and
    the budget as an int; it must be an integral count in [1, n]."""
    points = _as_pool(pool)
    n = points.shape[0]
    try:
        return points, n, _count(budget, "budget", 1, n)
    except DataError:
        raise DataError(f"budget must satisfy 1 <= b <= {n}, got {budget}") from None


def _first_index(n: int, seed: int, start_index: int | None) -> int:
    if start_index is not None:
        return _count(start_index, "start_index", 0, n - 1)
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
    pool, n, budget = _pool_and_budget(pool, budget)
    first = _first_index(n, seed, start_index)
    indices, fill, sep = _walk(pool, first, budget, _farthest)
    return SelectionResult(indices, fill, sep, strategy="fps", seed=seed)


def _random_rows(n: int, budget: int, seed: int) -> np.ndarray:
    """random's rows: the first ``budget`` of a seeded permutation of ``n``."""
    return rng_from_seed(seed).permutation(n)[:budget].astype(np.int64)


def random_select(pool, budget: int, seed: int = 0) -> SelectionResult:
    """Uniform sampling without replacement, deterministic in the seed."""
    pool, n, budget = _pool_and_budget(pool, budget)
    indices = _random_rows(n, budget, seed)
    fill, sep = selection_traces(pool, indices)
    return SelectionResult(indices, fill, sep, strategy="random", seed=seed)


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
    its own once its arguments are checked, and a sweep keeps one that every
    sampler and the kernels share. Larger pools recompute each row they read.
    """
    points, n, budget = _pool_and_budget(pool, budget)
    first = _first_index(n, seed, start_index)
    geom = pool if isinstance(pool, _Geometry) else _Geometry(points)

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

    indices, fill, sep = _walk(points, first, budget, cheapest)
    return SelectionResult(indices, fill, sep, strategy="facility_location", seed=seed)


def _kmedoids_seeding(points: np.ndarray, budget: int, seed: int) -> np.ndarray:
    """The ++ seeding of ``budget`` medoids (Arthur & Vassilvitskii,
    "k-means++", SODA 2007): a seeded-uniform first row, then each row drawn
    with probability proportional to its squared distance to the earlier
    picks, or the smallest unselected row once every remaining row is at
    distance zero. Each draw reads only the earlier picks, so the seeding at
    a smaller budget with the same seed is the prefix of this one."""
    n = points.shape[0]
    rng = rng_from_seed(seed)

    def d2_draw(t, walk):
        d2, chosen = walk.sq_nearest(), walk.chosen
        total = float(d2.sum())
        if total > 0.0:
            u = float(rng.uniform(0.0, total))
            nxt = min(int(np.searchsorted(np.cumsum(d2), u, side="right")), n - 1)
        # With no mass left every remaining row duplicates a chosen one, and a
        # draw can land on a zero-mass chosen row by rounding: take the smallest.
        if not total > 0.0 or chosen[nxt]:
            nxt = int(np.flatnonzero(~chosen)[0])
        return nxt

    return _walk(points, int(rng.integers(n)), budget, d2_draw)[0]


def _kmedoids_lloyd(geom: _Geometry, medoids: np.ndarray, max_iters: int) -> np.ndarray:
    """Lloyd iterations from ``medoids``, which it leaves as they are: each
    assigns every row to its nearest medoid, then replaces each medoid by the
    member of its cluster minimizing the within-cluster summed distance,
    until no medoid changes or ``max_iters`` is reached. Each medoid is
    pinned to its own cluster, so clusters are never empty. A stable sort of
    the assignment lists every cluster's members in ascending row order, as
    ``np.flatnonzero(assign == k)`` would, so the cost blocks and their sums
    keep their bits.
    """
    n, budget = geom.n, medoids.size
    assign = np.empty(n, dtype=np.int64)
    for _ in range(max_iters):
        for lo, hi in _row_blocks(n, budget):
            assign[lo:hi] = geom.dists(medoids, slice(lo, hi)).argmin(axis=0)
        assign[medoids] = np.arange(budget)
        order = np.argsort(assign, kind="stable")
        ends = np.cumsum(np.bincount(assign, minlength=budget)).tolist()
        updated = medoids.copy()
        for k, (start, end) in enumerate(zip([0] + ends[:-1], ends)):
            members = order[start:end]
            costs = np.empty(members.size)
            for lo, hi in _row_blocks(members.size, members.size):
                costs[lo:hi] = geom.dists(members[lo:hi], members).sum(axis=1)
            updated[k] = members[int(np.argmin(costs))]
        if np.array_equal(updated, medoids):
            break
        medoids = updated
    return medoids


def kmedoidspp(
    pool, budget: int, seed: int = 0, max_iters: int = _KMEDOIDS_MAX_ITERS
) -> SelectionResult:
    """k-medoids with squared-distance-proportional (++) seeding
    (_kmedoids_seeding), then Lloyd iterations (_kmedoids_lloyd) until no
    medoid changes or ``max_iters`` is reached. Deterministic in the seed. A
    sweep seeds once per repeat, at its largest budget, and runs Lloyd per
    cell from that seeding's prefix (_sweep_runs), which is this function's
    seeding at the cell's budget.

    Both Lloyd passes read distances in blocks of at most _BLOCK_ENTRIES
    (1 MiB), or of one row when a row holds more.
    A standalone call keeps no matrix: it recomputes each block and holds one
    at a time. In a sweep of n <= _DENSE_MATRIX_LIMIT rows each block is the
    root of a gather from the one n x n matrix of squared distances the sweep
    builds with its geometry and shares with facility location and the
    kernels (8 MB at n=1000, 512 MiB at n=8192). The assignment pass reads
    the medoids' rows of it, which equal its columns bit for bit:
    ``(a - b)**2`` equals ``(b - a)**2``, so the matrix and every ``cdist``
    block are symmetric (tests/test_selection.py locks this), and ``argmin``
    over the medoid axis takes the first medoid on ties either way. Its
    arguments are checked before any geometry is made.
    """
    points, _, budget = _pool_and_budget(pool, budget)
    max_iters = _count(max_iters, "max_iters", 0)
    geom = pool if isinstance(pool, _Geometry) else _Geometry(points, keep_matrix=False)
    medoids = _kmedoids_lloyd(geom, _kmedoids_seeding(points, budget, seed), max_iters)
    fill, sep = selection_traces(points, medoids)
    return SelectionResult(medoids, fill, sep, strategy="kmedoidspp", seed=seed)


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
    pool, n, budget = _pool_and_budget(pool, budget)
    switch_fraction = StrategySpec("fps_then_random", switch_fraction).switch_fraction
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
    return SelectionResult(indices, fill, sep, strategy="fps_then_random", seed=seed)


def select(pool, spec: StrategySpec, budget: int, seed: int = 0) -> SelectionResult:
    """Run the sampler named by a StrategySpec on a pool or a shared geometry."""
    return _SAMPLERS[spec.kind](pool, spec, budget, seed)


def _sweep_runs(geom: _Geometry, spec: StrategySpec, sizes, seed: int, traced: bool):
    """The selection runs of one (strategy, repeat) of a sweep, each as
    (indices, fill trace, separation trace, the positions of ``sizes`` it
    serves). Every run equals the standalone sampler's selection at its
    budget and seed.

    Budgets within a repeat share the seed, so every kind but k-medoids++
    selects at a smaller budget exactly the prefix, in indices and traces,
    of its selection at a larger one: it selects once, at the largest
    budget, and that run serves every position. k-medoids++ seeds once, at
    the largest budget, since its seeding at a smaller budget is that
    seeding's prefix, and runs Lloyd per size from the size's prefix.
    k-medoids++ and random walk their traces only when ``traced`` (None
    otherwise); the other kinds' walks pick their rows."""
    if spec.kind == "random" and not traced:
        yield _random_rows(geom.n, max(sizes), seed), None, None, range(len(sizes))
        return
    if spec.kind != "kmedoidspp":
        result = select(geom, spec, max(sizes), seed=seed)
        yield result.indices, result.fill_trace, result.sep_trace, range(len(sizes))
        return
    seeding = _kmedoids_seeding(geom.pool, max(sizes), seed)
    for pos, size in enumerate(sizes):
        medoids = _kmedoids_lloyd(geom, seeding[:size], _KMEDOIDS_MAX_ITERS)
        fill, sep = selection_traces(geom.pool, medoids) if traced else (None, None)
        yield medoids, fill, sep, (pos,)


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
    pool, n, budget = _pool_and_budget(pool, budget)
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
    pool, n, budget = _pool_and_budget(pool, budget)
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
