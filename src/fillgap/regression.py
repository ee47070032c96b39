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

from .dataset import Dataset
from .errors import DataError, IllConditionedError
from .rng import child_seed, rng_from_seed
from .selection import _allocate, _block_buffer, _Geometry, nn_distances, separation_distance

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
        feats = np.ascontiguousarray(self.train_features, dtype=np.float64)
        weights = np.ascontiguousarray(self.weights, dtype=np.float64)
        if feats.ndim != 2 or weights.ndim != 1 or weights.shape[0] != feats.shape[0]:
            raise DataError("weights must have one entry per training row")
        if not (np.isfinite(feats).all() and np.isfinite(weights).all()):
            raise DataError("model contains non-finite values")
        if not (math.isfinite(self.gamma) and self.gamma > 0):
            raise DataError("gamma must be positive and finite")
        if not (math.isfinite(self.lam) and self.lam >= 0):
            raise DataError("lambda must be non-negative and finite")
        object.__setattr__(self, "train_features", feats)
        object.__setattr__(self, "weights", weights)

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
    reused buffer of at most 4 MiB, or of 64 rows when b exceeds 8192, so the
    extra memory is the output plus one block however many rows are asked
    for. Each block holds a multiple of 64 rows: OpenBLAS's matrix-vector
    product sums such a block as it sums those rows inside one unblocked
    product, so the result equals the unblocked product bit for bit on one
    BLAS thread and does not change with the thread count. Blocks of 65, 262
    or 2097 rows moved it by up to 8 ULP.
    """
    b = weights.size
    count = rows.stop if isinstance(rows, slice) else rows.size
    blocks, buf = _block_buffer(count, b, 64)
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
    X = np.ascontiguousarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise DataError(f"kernel input must be a 2-D matrix, got shape {X.shape}")
    if not np.isfinite(X).all():
        raise DataError("kernel inputs contain NaN or Inf entries")
    if not (math.isfinite(gamma) and gamma > 0):
        raise DataError("gamma must be positive and finite")
    return _gram(_Geometry(X, False).sq_dists, slice(None), X.shape[0], gamma)


def gaussian_envelope_slope(gamma: float) -> float:
    """Largest slope of r -> exp(-gamma * r^2) on r >= 0.

    The derivative magnitude 2 * gamma * r * exp(-gamma * r^2) is maximized
    at r = 1 / sqrt(2 * gamma), giving sqrt(2 * gamma / e).
    """
    if not (math.isfinite(gamma) and gamma > 0):
        raise DataError("gamma must be positive and finite")
    return math.sqrt(2.0 * gamma / math.e)


def _min_eigenvalue(matrix: np.ndarray) -> float:
    return float(np.linalg.eigvalsh(matrix)[0])


def krr_fit(train: Dataset, gamma: float, lam: float) -> KernelModel:
    """Solve (K + lam * I) w = y by Cholesky factorization.

    The system is rejected with an IllConditionedError naming the smallest
    eigenvalue estimate when the factorization fails or the solution's
    relative residual exceeds 1e-8; no jitter is added silently.
    """
    y = train.require_labels()
    if not (math.isfinite(lam) and lam >= 0):
        raise DataError("lambda must be non-negative and finite")
    weights = _solve(gaussian_kernel_matrix(train.features, gamma), y, lam)
    return KernelModel(train.features, weights, float(gamma), float(lam))


def _solve(K: np.ndarray, y: np.ndarray, lam: float) -> np.ndarray:
    """The weights w of (K + lam * I) w = y, shifting K's diagonal in place;
    see krr_fit for the checks."""
    K.flat[:: K.shape[0] + 1] += lam
    try:
        factor = cho_factor(K, lower=True, check_finite=False)
        weights = cho_solve(factor, y, check_finite=False)
    except LinAlgError:
        raise IllConditionedError(
            "kernel system is not numerically positive definite "
            f"(smallest eigenvalue estimate {_min_eigenvalue(K):.3e}); "
            "increase lambda or remove duplicate training rows"
        ) from None
    residual = float(np.linalg.norm(K @ weights - y))
    if not np.isfinite(weights).all() or residual > _RESIDUAL_TOL * float(np.linalg.norm(y)):
        raise IllConditionedError(
            f"solve residual {residual:.3e} exceeds {_RESIDUAL_TOL:g} * ||y|| "
            f"(smallest eigenvalue estimate {_min_eigenvalue(K):.3e})"
        )
    return weights


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
    X = np.ascontiguousarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != model.d:
        raise DataError(f"query dimension {X.shape} does not match training dimension {model.d}")
    if not np.isfinite(X).all():  # the model's own fields are checked when it is built
        raise DataError("kernel inputs contain NaN or Inf entries")
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
    if 0 < size < 1:
        resolved = int(math.floor(size * n + 0.5))
    else:
        resolved = int(size)
    if not 2 <= resolved <= n:
        raise DataError(f"train size {size} resolves to {resolved}, outside [2, {n}]")
    return resolved


def _cv_mae(features, labels, gamma, lam, fold_edges) -> float:
    errors = []
    for lo, hi in fold_edges:
        mask = np.zeros(labels.size, dtype=bool)
        mask[lo:hi] = True
        try:
            model = krr_fit(Dataset(features[~mask], labels=labels[~mask]), gamma, lam)
        except IllConditionedError:
            return math.inf
        pred = krr_predict(model, features[mask])
        errors.append(float(np.abs(pred - labels[mask]).mean()))
    return float(np.mean(errors))


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

    For each cell a seeded random subset is drawn, split into ``folds``
    contiguous folds, and every (gamma, lambda) grid pair is scored by mean
    absolute error; ties go to the earliest grid pair.
    """
    labels = pool.require_labels()
    gamma_grid = default_grid() if gamma_grid is None else np.asarray(gamma_grid, dtype=float)
    lambda_grid = default_grid() if lambda_grid is None else np.asarray(lambda_grid, dtype=float)
    if gamma_grid.size == 0 or lambda_grid.size == 0:
        raise DataError("hyperparameter grids must be non-empty")
    if (gamma_grid <= 0).any() or (lambda_grid <= 0).any():
        raise DataError("grid values must be positive (the averaging is geometric)")
    if folds < 2:
        raise DataError("fold count must be >= 2")
    if repeats < 1:
        raise DataError("repeats must be >= 1")
    sizes = [_resolve_size(s, pool.n) for s in train_sizes]
    if not sizes:
        raise DataError("train_sizes must be non-empty")

    winners: list[tuple[int, float, float]] = []
    for size in sizes:
        if size < folds:
            raise DataError(f"train size {size} is smaller than the fold count {folds}")
        for rep in range(repeats):
            rng = rng_from_seed(child_seed(seed, "grid_search", size, rep))
            subset = rng.permutation(pool.n)[:size]
            feats, ys = pool.features[subset], labels[subset]
            edges = [
                (k * size // folds, (k + 1) * size // folds) for k in range(folds)
            ]
            best = (math.inf, None, None)
            for gamma in gamma_grid:
                for lam in lambda_grid:
                    score = _cv_mae(feats, ys, float(gamma), float(lam), edges)
                    if score < best[0]:
                        best = (score, float(gamma), float(lam))
            if best[1] is None:
                raise IllConditionedError(
                    f"every grid pair failed to fit at train size {size}"
                )
            winners.append((size, best[1], best[2]))

    gammas = np.array([w[1] for w in winners])
    lams = np.array([w[2] for w in winners])

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


def condition_number(K) -> tuple[float | None, float, float]:
    """Eigenvalue-based condition number of a symmetric matrix.

    Returns (cond, lambda_max, lambda_min); cond is None when the smallest
    eigenvalue is non-positive within round-off, i.e. the matrix is
    numerically singular.
    """
    K = np.ascontiguousarray(K, dtype=np.float64)
    if K.ndim != 2 or K.shape[0] != K.shape[1]:
        raise DataError(f"matrix must be square, got shape {K.shape}")
    scale = float(np.abs(K).max())
    if float(np.abs(K - K.T).max()) > 1e-12 * max(scale, 1.0):
        raise DataError("matrix is not symmetric within tolerance")
    eigenvalues = np.linalg.eigvalsh(K)
    lam_min, lam_max = float(eigenvalues[0]), float(eigenvalues[-1])
    return _ratio(lam_max, lam_min, K.shape[0]), lam_max, lam_min


def _ratio(lam_max: float, lam_min: float, size: int) -> float | None:
    """lam_max / lam_min, or None when lam_min is non-positive within round-off."""
    round_off = 8.0 * np.finfo(np.float64).eps * size * max(abs(lam_max), 1.0)
    return None if lam_min <= round_off else lam_max / lam_min


def _conditions(K: np.ndarray, lam: float) -> tuple[float | None, float | None, float, float]:
    """(cond_regularized, cond_unregularized, lambda_max, lambda_min) of K from
    one eigen-solve: K + lam * I has K's eigenvalues shifted by lam."""
    cond_u, lam_max, lam_min = condition_number(K)
    return _ratio(lam_max + lam, lam_min + lam, K.shape[0]), cond_u, lam_max, lam_min


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
    """
    K = np.ascontiguousarray(K, dtype=np.float64)
    if K.ndim != 2 or K.shape[0] != K.shape[1]:
        raise DataError(f"matrix must be square, got shape {K.shape}")
    if not (math.isfinite(sep) and sep > 0):
        raise DataError("separation distance must be positive")
    if not (math.isfinite(gamma) and gamma > 0):
        raise DataError("gamma must be positive and finite")
    if d < 1 or c_d <= 0:
        raise DataError("dimension must be >= 1 and C_d positive")
    upper = K.shape[0] * float(np.abs(K).max())
    lower = (
        c_d
        * (2.0 * gamma) ** (-d / 2.0)
        * math.exp(-40.71 * d * d / (sep * sep * gamma))
        * sep ** (-float(d))
    )
    return upper, lower


def conditioning_report(
    pool, selected, gamma: float, lam: float, c_d: float = 1.0
) -> ConditioningReport:
    """Assemble the conditioning summary for a selected training set, checking
    the selection before any kernel work. Both condition numbers come from one
    eigen-solve of K, since K + lam * I has K's eigenvalues shifted by lam."""
    if not (math.isfinite(lam) and lam >= 0):
        raise DataError("lambda must be non-negative and finite")
    pool = np.ascontiguousarray(pool, dtype=np.float64)
    sep = separation_distance(pool, selected)
    K = gaussian_kernel_matrix(pool[np.asarray(selected, dtype=np.int64)], gamma)
    cond_r, cond_u, lam_max, lam_min = _conditions(K, lam)
    return ConditioningReport(
        cond_regularized=cond_r,
        cond_unregularized=cond_u,
        lambda_max=lam_max,
        lambda_min=lam_min,
        sep_distance=sep,
        lower_bound_params=(pool.shape[1], float(gamma), float(c_d)),
    )


def gamma_for_half_kernel(pool) -> float:
    """Kernel width at which the median nearest-neighbour pair has kernel
    value one half: ln(2) / median_nn_distance^2. ``pool`` is a raw pool or a
    pool-by-pool ``selection._Geometry``, as for nn_distances."""
    dists, _ = nn_distances(pool)
    median = float(np.median(dists))
    if median <= 0:
        raise DataError("median nearest-neighbour distance is zero; duplicate-heavy pool")
    return math.log(2.0) / (median * median)


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
            b, d = int(header["b"]), int(header["d"])
            gamma, lam = float(header["gamma"]), float(header["lambda"])
        except (ValueError, KeyError, TypeError) as exc:
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
