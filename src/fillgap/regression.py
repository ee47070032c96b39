"""Gaussian-kernel ridge regression with a closed-form solve, hyperparameter
grid search, a certified model slope bound, and kernel conditioning analysis.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import asdict, dataclass

import numpy as np
from scipy.linalg import LinAlgError, cho_factor, cho_solve
from scipy.linalg.lapack import dsyevd, dsyevd_lwork

from .dataset import Dataset
from .errors import DataError, IllConditionedError
from .rng import _count, _floats, _indices, _real, _sequence, child_seed, rng_from_seed
from .selection import _allocate, _as_pool, _Geometry, _median_nn, _row_blocks, separation_distance

# Relative residual above which a fit is rejected rather than returned.
_RESIDUAL_TOL = 1e-8

# 12 log-spaced points spanning the default hyperparameter range.
_GRID_LOW, _GRID_HIGH, _GRID_POINTS = 1e-14, 1e-2, 12


@dataclass(frozen=True)
class KernelModel:
    """Trained kernel ridge regression state.

    ``weights`` solves (K + lam * I) w = y for the Gaussian kernel matrix K
    of ``train_features`` at width ``gamma``.
    """

    train_features: np.ndarray
    weights: np.ndarray
    gamma: float
    lam: float

    def __post_init__(self):
        feats = _floats(self.train_features, "train_features", 2)
        weights = _floats(self.weights, "weights", 1)
        if feats.size < 1:
            raise DataError(
                f"a model needs at least one training row and column, got shape {feats.shape}"
            )
        if weights.shape[0] != feats.shape[0]:
            raise DataError("weights must have one entry per training row")
        object.__setattr__(self, "train_features", feats)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "gamma", _real(self.gamma, "gamma", "positive"))
        object.__setattr__(self, "lam", _real(self.lam, "lambda", "non-negative"))

    @property
    def b(self) -> int:
        return self.train_features.shape[0]

    @property
    def d(self) -> int:
        return self.train_features.shape[1]


@dataclass(frozen=True)
class ConditioningReport:
    """Spectral stability summary of a training set's kernel matrix.

    ``cond_unregularized`` is None when the unshifted matrix is numerically
    singular. ``lower_bound_params`` are the inputs of the separation-based
    smallest-eigenvalue bound.
    """

    cond_regularized: float | None
    cond_unregularized: float | None
    lambda_max: float
    lambda_min: float
    sep_distance: float
    lower_bound_params: tuple[int, float, float]

    def to_json(self) -> str:
        payload = asdict(self)
        payload["lower_bound_params"] = dict(zip(("d", "gamma", "C_d"), self.lower_bound_params))
        return json.dumps(payload)


def _gram(dists, rows, b: int, gamma: float) -> np.ndarray:
    """The b x b Gaussian kernel matrix exp(-gamma * D), unit diagonal, of the
    squared distances D = ``dists(rows, slice(0, b))``."""
    K = _allocate((b, b))
    np.multiply(dists(rows, slice(0, b), out=K), -gamma, out=K)
    np.exp(K, out=K)
    np.fill_diagonal(K, 1.0)
    return K


def _predict(dists, rows, weights: np.ndarray, gamma: float) -> np.ndarray:
    """``exp(-gamma * D) @ weights`` for the squared distances D =
    ``dists(rows, slice(0, b))``, b = weights.size; ``rows`` is an index array
    or ``slice(0, count)``.

    The kernel is written in the row blocks of selection._row_blocks, into one
    reused buffer of at most 1 MiB, or of 64 rows when b exceeds 2048, so the
    extra memory is the output plus one block however many rows are asked
    for. Each block holds a multiple of 64 rows: OpenBLAS's matrix-vector
    product sums such a block as it sums those rows inside one unblocked
    product, so the result equals the unblocked product bit for bit on one
    BLAS thread and does not change with the thread count. Blocks of 65, 262
    or 2097 rows moved it by up to 8 ULP.
    """
    b = weights.size
    count = rows.stop if isinstance(rows, slice) else rows.size
    blocks = list(_row_blocks(count, b, 64))
    buf = np.empty((blocks[0][1] if blocks else 0, b))  # the largest block, the first
    out = np.empty(count)
    for lo, hi in blocks:
        kernel = buf[: hi - lo]
        # A slice reads the rows in place: no index array, no gathered copy.
        block = slice(lo, hi) if isinstance(rows, slice) else rows[lo:hi]
        np.multiply(dists(block, slice(0, b), out=kernel), -gamma, out=kernel)
        out[lo:hi] = np.exp(kernel, out=kernel) @ weights
    return out


def gaussian_kernel_matrix(X, gamma: float) -> np.ndarray:
    """Symmetric Gaussian kernel matrix exp(-gamma * ||x_i - x_j||^2), unit diagonal."""
    X = _floats(X, "X", 2)
    gamma = _real(gamma, "gamma", "positive")
    return _gram(_Geometry(X, False).sq_dists, slice(None), X.shape[0], gamma)


def gaussian_envelope_slope(gamma: float) -> float:
    """Largest slope of r -> exp(-gamma * r^2) on r >= 0.

    The derivative magnitude 2 * gamma * r * exp(-gamma * r^2) is maximized
    at r = 1 / sqrt(2 * gamma), giving sqrt(2 * gamma / e).
    """
    return math.sqrt(2.0 * _real(gamma, "gamma", "positive") / math.e)


def krr_fit(train: Dataset, gamma: float, lam: float) -> KernelModel:
    """Solve (K + lam * I) w = y by Cholesky factorization.

    The system is rejected with an IllConditionedError naming the smallest
    eigenvalue estimate when the factorization fails or the solution's
    relative residual exceeds 1e-8; no jitter is added silently.
    """
    y = train.require_labels()
    lam = _real(lam, "lambda", "non-negative")
    weights = _solve(gaussian_kernel_matrix(train.features, gamma), y, lam)
    return KernelModel(train.features, weights, gamma, lam)


def _solve(K: np.ndarray, y: np.ndarray, lam: float) -> np.ndarray:
    """The weights w of (K + lam * I) w = y; see krr_fit for the checks.

    ``K`` is a C-contiguous, bitwise symmetric matrix, as _gram makes it. It
    is factored in place: its diagonal is shifted by lam and the Cholesky
    factor of K.T is written over its upper triangle, which holds the same
    values as the lower one. The lower triangle is then copied back (see
    _mirror_lower), so the residual reads K + lam * I, and K is left bitwise
    as it was given, also when the solve fails. No second b x b matrix is made.
    """
    diagonal = K.diagonal().copy()
    shifted = diagonal + lam
    np.fill_diagonal(K, shifted)
    try:
        try:
            weights = cho_solve(
                cho_factor(K.T, lower=True, overwrite_a=True, check_finite=False),
                y,
                check_finite=False,
            )
        except LinAlgError:
            weights = None
        _mirror_lower(K)
        np.fill_diagonal(K, shifted)
        if weights is None:
            raise IllConditionedError(
                "kernel system is not numerically positive definite "
                f"(smallest eigenvalue estimate {condition_number(K)[2]:.3e}); "
                "increase lambda or remove duplicate training rows"
            )
        residual = float(np.linalg.norm(K @ weights - y))
        if not np.isfinite(weights).all() or residual > _RESIDUAL_TOL * float(np.linalg.norm(y)):
            raise IllConditionedError(
                f"solve residual {residual:.3e} exceeds {_RESIDUAL_TOL:g} * ||y|| "
                f"(smallest eigenvalue estimate {condition_number(K)[2]:.3e})"
            )
        return weights
    finally:
        np.fill_diagonal(K, diagonal)


# Rows per block of _mirror_lower; the diagonal block's mask is made once.
_MIRROR_ROWS = 128
_MIRROR_UPPER = np.triu(np.ones((_MIRROR_ROWS, _MIRROR_ROWS), dtype=bool), 1)


def _mirror_lower(K: np.ndarray) -> None:
    """Copy the strict lower triangle of the square ``K`` over its strict
    upper one, 128 rows at a time, so no temporary exceeds one such block."""
    b = K.shape[0]
    for lo in range(0, b, _MIRROR_ROWS):
        hi = min(lo + _MIRROR_ROWS, b)
        K[lo:hi, hi:] = K[hi:, lo:hi].T
        block = K[lo:hi, lo:hi]
        np.copyto(block, block.T, where=_MIRROR_UPPER[: hi - lo, : hi - lo])


def krr_predict(model: KernelModel, X) -> np.ndarray:
    """Predict labels as the weighted sum of kernel values against the
    training rows.

    The predictions equal ``exp(-gamma * cdist(X, T, "sqeuclidean")) @
    weights`` bit for bit on one BLAS thread and do not change with the
    thread count; the kernel is held one bounded row block at a time (see
    _predict). A sweep's cells predict through the same _predict, reading
    their squared distances from one n x B matrix per selection run, kept by
    the sweep's _Geometry, so they get the same bits as this function.
    """
    X = _floats(X, "X", 2)  # the model's own fields are checked when it is built
    if X.shape[1] != model.d:
        raise DataError(f"query dimension {X.shape} does not match training dimension {model.d}")
    geometry = _Geometry(X, False, model.train_features)
    return _predict(geometry.sq_dists, slice(0, X.shape[0]), model.weights, model.gamma)


def krr_lipschitz_bound(model: KernelModel) -> float:
    """Certified global slope bound of the trained prediction function:
    ||weights||_2 * sqrt(b) * max-slope of the kernel envelope."""
    return float(
        np.linalg.norm(model.weights) * math.sqrt(model.b) * gaussian_envelope_slope(model.gamma)
    )


# ---------------------------------------------------------------------------
# Hyperparameter search
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GridSearchReport:
    """Winners per (train size, repeat) cell plus their averaged selection.

    The grid is log-spaced, so the geometric mean is the reported pair; the
    arithmetic mean is included for comparison.
    """

    winners: tuple[tuple[int, float, float], ...]
    gamma: float
    lam: float
    gamma_arithmetic: float
    lam_arithmetic: float


def default_grid() -> np.ndarray:
    """The stock hyperparameter grid: 12 log-spaced points from 1e-14 to 1e-2."""
    return np.logspace(math.log10(_GRID_LOW), math.log10(_GRID_HIGH), _GRID_POINTS)


def _resolve_size(size, n: int) -> int:
    """A fraction of ``n`` rows rounded half-up, or a count, in [2, n]; errors show a count as given."""
    fraction = _real(size, "train size")
    return _count(math.floor(fraction * n + 0.5) if 0 < fraction < 1 else size, "train size", 2, n)


def _cv_scores(X, y, gamma_grid, lambda_grid, folds: int) -> np.ndarray:
    """Mean absolute CV error of each (gamma, lambda) pair over ``folds``
    contiguous slices of the rows; inf for a pair once a fit fails, and it is
    not fitted again. As in a sweep cell, each fold reads one squared-distance
    block and each (gamma, fold) builds one Gram matrix, solved in place per
    lambda (_solve leaves it as it was); the scores equal those of krr_fit and
    krr_predict bit for bit."""
    size = y.size
    geometry = _Geometry(X, keep_matrix=False)
    errors = np.zeros((gamma_grid.size, lambda_grid.size, folds))
    for k in range(folds):
        lo, hi = k * size // folds, (k + 1) * size // folds
        train, test = np.r_[0:lo, hi:size], np.arange(lo, hi)
        dists = geometry.columns(train).sq_dists
        for g, gamma in enumerate(gamma_grid):
            K = _gram(dists, train, train.size, gamma)
            for j in np.flatnonzero(errors[g, :, k] < math.inf):
                try:
                    weights = _solve(K, y[train], lambda_grid[j])
                except IllConditionedError:
                    errors[g, j] = math.inf
                    continue
                errors[g, j, k] = np.abs(_predict(dists, test, weights, gamma) - y[test]).mean()
    return errors.mean(axis=2)


def grid_search_cv_report(
    pool: Dataset,
    train_sizes,
    gamma_grid=None,
    lambda_grid=None,
    folds: int = 5,
    repeats: int = 1,
    seed: int = 0,
) -> GridSearchReport:
    """Cross-validated grid search on random subsets, one winner per
    (train size, repeat) cell, averaged into a single pair.

    Each cell draws a seeded random subset and splits it, in drawn order, into
    ``folds`` contiguous folds, one block of squared distances each. The pair
    with the lowest mean absolute error wins; a tie goes to the earliest pair
    (gamma outer, lambda inner). A grid that is not a non-empty 1-D sequence of
    positive, finite values and a non-integral count raise DataError.
    """
    labels = pool.require_labels()
    gamma_grid, lambda_grid = (
        default_grid() if grid is None else _floats(grid, name, 1)
        for grid, name in ((gamma_grid, "gamma_grid"), (lambda_grid, "lambda_grid"))
    )
    if not all(grid.size and (grid > 0).all() for grid in (gamma_grid, lambda_grid)):
        raise DataError(
            "hyperparameter grids must be non-empty and positive (the averaging is geometric)"
        )
    folds, repeats = _count(folds, "folds", 2), _count(repeats, "repeats", 1)
    sizes = [_resolve_size(s, pool.n) for s in _sequence(train_sizes, "train_sizes")]

    winners: list[tuple[int, float, float]] = []
    for size in sizes:
        if size < folds:
            raise DataError(f"train size {size} is smaller than the fold count {folds}")
        for rep in range(repeats):
            rng = rng_from_seed(child_seed(seed, "grid_search", size, rep))
            subset = rng.permutation(pool.n)[:size]
            X, y = pool.features[subset], labels[subset]
            scores = _cv_scores(X, y, gamma_grid, lambda_grid, folds)
            g, j = np.unravel_index(np.argmin(scores), scores.shape)  # the first minimum
            if scores[g, j] == math.inf:
                raise IllConditionedError(f"every grid pair failed to fit at train size {size}")
            winners.append((size, float(gamma_grid[g]), float(lambda_grid[j])))

    _, gammas, lams = np.array(winners).T

    def geomean(values: np.ndarray) -> float:
        if (values == values[0]).all():  # unanimous winner: return it exactly
            return float(values[0])
        return float(np.exp(np.log(values).mean()))

    return GridSearchReport(
        winners=tuple(winners),
        gamma=geomean(gammas),
        lam=geomean(lams),
        gamma_arithmetic=float(gammas.mean()),
        lam_arithmetic=float(lams.mean()),
    )


# ---------------------------------------------------------------------------
# Conditioning
# ---------------------------------------------------------------------------


def _square_matrix(K) -> np.ndarray:
    """``K`` as a float64 array: a non-empty square matrix of finite values."""
    K = _floats(K, "K", 2)
    if K.shape[0] != K.shape[1] or K.shape[0] < 1:
        raise DataError(f"matrix must be square and non-empty, got shape {K.shape}")
    return K


def _eigenvalues(K: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of the C-contiguous symmetric ``K``, overwriting
    K: LAPACK's dsyevd through scipy, on the lower triangle of K.T, with the
    workspace its query asks for.

    That is the call numpy's eigvalsh makes on the lower triangle of its
    Fortran copy, and it gives eigvalsh's bits (tests/test_regression.py
    compares them); dsyevd's minimal default workspace blocks the
    tridiagonal reduction differently and does not.
    """
    size = K.shape[0]
    work, iwork, _ = dsyevd_lwork(size, compute_v=0, lower=1)
    eigenvalues, _, info = dsyevd(
        K.T, compute_v=0, lower=1, lwork=int(work), liwork=iwork, overwrite_a=1
    )
    if info != 0:
        raise IllConditionedError(f"eigen-solve of a {size} x {size} matrix did not converge")
    return eigenvalues


def condition_number(K) -> tuple[float | None, float, float]:
    """Eigenvalue-based condition number of a symmetric matrix.

    Returns (cond, lambda_max, lambda_min); cond is None when the smallest
    eigenvalue is non-positive within round-off, i.e. the matrix is
    numerically singular. K is not changed: the eigen-solve reads a copy.
    """
    K = _square_matrix(K)
    # A Gram matrix from _gram is bitwise symmetric, so only outside input
    # pays the tolerance check's b x b temporaries.
    if not np.array_equal(K, K.T):
        scale = float(np.abs(K).max())
        if float(np.abs(K - K.T).max()) > 1e-12 * max(scale, 1.0):
            raise DataError("matrix is not symmetric within tolerance")
    # The copy of K.T hands _eigenvalues K's own lower triangle, as eigvalsh(K) reads it.
    eigenvalues = _eigenvalues(K.T.copy())
    lam_min, lam_max = float(eigenvalues[0]), float(eigenvalues[-1])
    return _ratio(lam_max, lam_min, K.shape[0]), lam_max, lam_min


def _ratio(lam_max: float, lam_min: float, size: int) -> float | None:
    """lam_max / lam_min, or None when lam_min is non-positive within round-off."""
    round_off = 8.0 * np.finfo(np.float64).eps * size * max(abs(lam_max), 1.0)
    return None if lam_min <= round_off else lam_max / lam_min


def _conditions(K: np.ndarray, lam: float) -> tuple[float | None, float | None, float, float]:
    """(cond_regularized, cond_unregularized, lambda_max, lambda_min) of the
    Gram matrix K from one eigen-solve, which overwrites K: K + lam * I has
    K's eigenvalues shifted by lam."""
    size = K.shape[0]
    eigenvalues = _eigenvalues(K)
    lam_min, lam_max = float(eigenvalues[0]), float(eigenvalues[-1])
    cond_r = _ratio(lam_max + lam, lam_min + lam, size)
    return cond_r, _ratio(lam_max, lam_min, size), lam_max, lam_min


def eigen_bounds(
    K, sep: float, gamma: float, d: int, c_d: float = 1.0
) -> tuple[float, float]:
    """A priori eigenvalue bounds for a Gaussian kernel matrix.

    The largest eigenvalue is at most b times the largest matrix entry. The
    smallest is at least
    ``c_d * (2 gamma)^(-d/2) * exp(-40.71 d^2 / (sep^2 gamma)) * sep^(-d)``,
    which collapses exponentially as the separation distance shrinks and
    underflows to zero in double precision once ``40.71 d^2 / (sep^2 gamma)``
    passes ~709. The dimensional constant ``c_d`` is not pinned down here;
    only the shape of the bound is meaningful, with c_d = 1 by default.
    It is computed from its logarithm, so it underflows to 0.0 rather than
    raising; one that is not a finite float64 raises DataError.
    """
    K = _square_matrix(K)
    sep, gamma = _real(sep, "sep", "positive"), _real(gamma, "gamma", "positive")
    d, c_d = _count(d, "d", 1), _real(c_d, "C_d", "positive")
    upper = K.shape[0] * float(np.abs(K).max())
    log_lower = (
        math.log(c_d)
        - d / 2.0 * math.log(2.0 * gamma)
        - 40.71 * d * d / gamma / sep / sep
        - d * math.log(sep)
    )
    # NaN fails too: inf - inf at an absurd d.
    if not log_lower <= math.log(np.finfo(np.float64).max):
        raise DataError(f"eigenvalue lower bound exp({log_lower:.6g}) is not a finite float64")
    return upper, math.exp(log_lower)


def conditioning_report(
    pool, selected, gamma: float, lam: float, c_d: float = 1.0
) -> ConditioningReport:
    """Assemble the conditioning summary for a selected training set, checking
    the selection before any kernel work. Both condition numbers come from one
    eigen-solve of K, since K + lam * I has K's eigenvalues shifted by lam."""
    lam, c_d = _real(lam, "lambda", "non-negative"), _real(c_d, "C_d", "positive")
    pool = _as_pool(pool)
    selected = _indices(selected, pool.shape[0])
    sep = separation_distance(pool, selected)
    K = gaussian_kernel_matrix(pool[selected], gamma)
    cond_r, cond_u, lam_max, lam_min = _conditions(K, lam)
    return ConditioningReport(
        cond_regularized=cond_r,
        cond_unregularized=cond_u,
        lambda_max=lam_max,
        lambda_min=lam_min,
        sep_distance=sep,
        lower_bound_params=(pool.shape[1], float(gamma), c_d),
    )


def gamma_for_half_kernel(pool) -> float:
    """Kernel width at which the median nearest-neighbour pair has kernel
    value one half: ln(2) / median_nn_distance^2, always positive and finite."""
    median = _median_nn(pool)
    if median <= 0:
        raise DataError(
            "median nearest-neighbour distance is zero: a duplicate-heavy pool, or "
            "squared distances that underflow float64; rescale the pool"
        )
    squared = median * median  # zero for a positive median below about 1e-162
    gamma = math.log(2.0) / squared if squared > 0 else math.inf
    if not math.isfinite(gamma):
        raise DataError(
            f"nearest-neighbour distances are too small (median {median:.3g}): "
            "ln(2) / median^2 overflows float64; rescale the pool"
        )
    return gamma


# ---------------------------------------------------------------------------
# Model persistence: one JSON header line, then little-endian float64
# train features (row-major) followed by the weights.
# ---------------------------------------------------------------------------


def _header(model: KernelModel) -> dict:
    """The model file's header, which ``fillgap fit`` also prints."""
    return {"gamma": model.gamma, "lambda": model.lam, "b": model.b, "d": model.d}


def save_model(model: KernelModel, path: str | os.PathLike) -> None:
    with open(path, "wb") as fh:
        fh.write(json.dumps(_header(model)).encode("utf-8"))
        fh.write(b"\n")
        fh.write(np.ascontiguousarray(model.train_features, dtype="<f8").tobytes())
        fh.write(np.ascontiguousarray(model.weights, dtype="<f8").tobytes())


def load_model(path: str | os.PathLike) -> KernelModel:
    with open(path, "rb") as fh:
        header_line = fh.readline()
        try:
            header = json.loads(header_line.decode("utf-8"))
            b, d = _count(header["b"], "b", 1), _count(header["d"], "d", 1)
            gamma, lam = _real(header["gamma"], "gamma"), _real(header["lambda"], "lambda")
        except (DataError, ValueError, KeyError, TypeError) as exc:
            raise DataError(f"malformed model header in {path}: {exc}") from None
        payload = fh.read()
    expected = (b * d + b) * 8
    if len(payload) != expected:
        raise DataError(
            f"model payload in {path} has {len(payload)} bytes, expected {expected}"
        )
    feats = np.frombuffer(payload[: b * d * 8], dtype="<f8").reshape(b, d)
    weights = np.frombuffer(payload[b * d * 8 :], dtype="<f8")
    return KernelModel(feats.astype(np.float64), weights.astype(np.float64), gamma, lam)
