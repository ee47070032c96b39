"""Evaluation metrics, the fill-distance error bound, empirical constant
estimation, and the pairwise-distance correlation diagnostic."""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, replace

import numpy as np
from scipy.spatial.distance import pdist
from scipy.stats import rankdata

from .dataset import Dataset
from .errors import DataError
from .regression import KernelModel, krr_lipschitz_bound, krr_predict
from .rng import rng_from_seed
from .selection import SelectionResult

# Pair counts above these limits fall back to seeded subsampling.
_CORRELATION_MAX_PAIRS = 5_000_000
_LIPSCHITZ_EXACT_ROWS = 2000
_LIPSCHITZ_MAX_PAIRS = 2_000_000

# |coefficient| at or below this is a negligible correlation.
NEGLIGIBLE_CORRELATION = 0.1


@dataclass(frozen=True)
class CorrelationReport:
    """Feature-distance vs label-distance correlation over point pairs."""

    pearson: float
    spearman: float
    pair_count: int
    subsampled: bool
    verdict: str

    def to_json(self) -> str:
        return json.dumps(asdict(self))


@dataclass(frozen=True)
class BoundReport:
    """Decomposition of the fill-distance upper bound on the maximum
    prediction error, next to the observed maximum error.

    The bound is ``fill_dist * (lip_model + lip_label_arg * lip_target)
    + lip_label_arg * label_uncertainty + train_max_error``. It bounds the
    maximum *expected* error at the unselected feature locations; the report
    compares it against the realized maximum absolute error, which the noise
    model of the synthetic generator keeps below the bound but which real
    noisy labels need not.
    """

    fill_dist: float
    lip_model: float
    lip_label_arg: float
    lip_target: float
    label_uncertainty: float
    train_max_error: float
    bound_value: float
    observed_maxae: float | None

    @property
    def slack(self) -> float | None:
        if self.observed_maxae is None:
            return None
        return self.bound_value - self.observed_maxae

    def to_json(self) -> str:
        return json.dumps(asdict(self))


# ---------------------------------------------------------------------------
# Error metrics
# ---------------------------------------------------------------------------


def _paired(y_true, y_pred) -> tuple[np.ndarray, np.ndarray]:
    y_true = np.ascontiguousarray(y_true, dtype=np.float64)
    y_pred = np.ascontiguousarray(y_pred, dtype=np.float64)
    if y_true.ndim != 1 or y_true.shape != y_pred.shape:
        raise DataError(f"length mismatch: {y_true.shape} vs {y_pred.shape}")
    if y_true.size == 0:
        raise DataError("empty sequences")
    return y_true, y_pred


def maxae(y_true, y_pred) -> float:
    """Maximum absolute difference between true and predicted values."""
    y_true, y_pred = _paired(y_true, y_pred)
    return float(np.abs(y_true - y_pred).max())


def mae(y_true, y_pred) -> float:
    """Mean absolute difference between true and predicted values.

    Never above ``maxae``: the rounded mean of equal values can exceed them
    by an ulp, so it is capped at the largest difference.
    """
    y_true, y_pred = _paired(y_true, y_pred)
    err = np.abs(y_true - y_pred)
    return float(min(err.mean(), err.max()))


# ---------------------------------------------------------------------------
# Correlation of pairwise distances
# ---------------------------------------------------------------------------


def pearson(a, b) -> float:
    """Pearson correlation of two equal-length sequences."""
    a = np.ascontiguousarray(a, dtype=np.float64)
    b = np.ascontiguousarray(b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1 or a.size < 2:
        raise DataError("pearson needs two equal-length sequences of >= 2 values")
    if (a == a[0]).all():
        raise DataError("first sequence has zero variance; correlation undefined")
    if (b == b[0]).all():
        raise DataError("second sequence has zero variance; correlation undefined")
    # Scaling by a power of two is exact, leaves the correlation unchanged,
    # and keeps the products in corrcoef from underflowing on tiny inputs.
    a = np.ldexp(a, -np.frexp(np.abs(a).max())[1])
    b = np.ldexp(b, -np.frexp(np.abs(b).max())[1])
    return float(np.corrcoef(a, b)[0, 1])


def spearman(a, b) -> float:
    """Spearman correlation: Pearson on average-ranked values (ties get
    average ranks)."""
    a = np.ascontiguousarray(a, dtype=np.float64)
    b = np.ascontiguousarray(b, dtype=np.float64)
    return pearson(rankdata(a, method="average"), rankdata(b, method="average"))


def _pair_offsets(n: int) -> np.ndarray:
    # offsets[i] = linear index of pair (i, i + 1) in the i<j enumeration
    i = np.arange(n, dtype=np.int64)
    return i * (n - 1) - (i * (i - 1)) // 2


def _sample_pair_indices(n: int, k: int, rng) -> tuple[np.ndarray, np.ndarray]:
    """k distinct pairs (i, j), i < j, uniform over all n-choose-2 pairs."""
    total = n * (n - 1) // 2
    collected = np.empty(0, dtype=np.int64)
    while collected.size < k:
        draw = rng.integers(0, total, size=2 * (k - collected.size) + 16, dtype=np.int64)
        collected = np.unique(np.concatenate([collected, draw]))
    chosen = collected[rng.permutation(collected.size)[:k]]
    chosen.sort()
    offsets = _pair_offsets(n)
    i = np.searchsorted(offsets, chosen, side="right") - 1
    j = chosen - offsets[i] + i + 1
    return i, j


def _checked_xy(X, y) -> tuple[np.ndarray, np.ndarray]:
    """``X`` and ``y`` as float64 arrays, an n x d matrix and n finite labels."""
    X = np.ascontiguousarray(X, dtype=np.float64)
    y = np.ascontiguousarray(y, dtype=np.float64)
    if X.ndim != 2 or y.ndim != 1 or X.shape[0] != y.shape[0]:
        raise DataError("X must be n x d and y length n")
    if not (np.isfinite(X).all() and np.isfinite(y).all()):
        raise DataError("X and y must not contain NaN or Inf entries")
    return X, y


def _pair_distances(X, y, exact: bool, max_pairs: int, seed: int):
    """Feature and label distances over all pairs when ``exact``, otherwise
    over a seeded sample of ``max_pairs`` distinct pairs."""
    if exact:
        return pdist(X), pdist(y[:, None])
    i, j = _sample_pair_indices(X.shape[0], max_pairs, rng_from_seed(seed))
    return np.linalg.norm(X[i] - X[j], axis=1), np.abs(y[i] - y[j])


def pairwise_distance_correlation(
    X, y, max_pairs: int = _CORRELATION_MAX_PAIRS, seed: int = 0
) -> CorrelationReport:
    """Correlate feature-space and label-space distances over point pairs.

    All n-choose-2 pairs are used when they fit under ``max_pairs``;
    otherwise a seeded uniform subsample of ``max_pairs`` distinct pairs is
    taken and flagged. The verdict applies the |rho| <= 0.1 negligibility
    threshold to the Pearson coefficient.
    """
    X, y = _checked_xy(X, y)
    n = X.shape[0]
    if n < 3:
        raise DataError("need at least 3 points to correlate pairwise distances")
    if max_pairs < 2:
        raise DataError("max_pairs must be >= 2")
    total = n * (n - 1) // 2
    subsampled = total > max_pairs
    count = max_pairs if subsampled else total
    feature_d, label_d = _pair_distances(X, y, not subsampled, max_pairs, seed)
    if (feature_d == feature_d[0]).all():
        raise DataError(
            "all feature distances are identical; pairwise correlation undefined"
        )
    if (label_d == label_d[0]).all():
        raise DataError(
            "all label distances are identical; pairwise correlation undefined"
        )
    rho_p = pearson(feature_d, label_d)
    rho_s = spearman(feature_d, label_d)
    if abs(rho_p) <= NEGLIGIBLE_CORRELATION:
        verdict = "negligible"
    else:
        verdict = "positive" if rho_p > 0 else "negative"
    return CorrelationReport(
        pearson=rho_p,
        spearman=rho_s,
        pair_count=int(count),
        subsampled=subsampled,
        verdict=verdict,
    )


# ---------------------------------------------------------------------------
# The fill-distance error bound
# ---------------------------------------------------------------------------


def error_bound(
    h: float,
    lip_model: float,
    lip_label_arg: float,
    lip_target: float,
    eps: float,
    eps_train: float,
) -> BoundReport:
    """Compose the upper bound on the maximum expected prediction error:
    ``h * (lip_model + lip_label_arg * lip_target) + lip_label_arg * eps
    + eps_train``.
    """
    values = (h, lip_model, lip_label_arg, lip_target, eps, eps_train)
    for name, v in zip(
        ("h", "lip_model", "lip_label_arg", "lip_target", "eps", "eps_train"), values
    ):
        if not math.isfinite(v) or v < 0:
            raise DataError(f"{name} must be finite and non-negative, got {v}")
    bound = h * (lip_model + lip_label_arg * lip_target) + lip_label_arg * eps + eps_train
    return BoundReport(
        fill_dist=h,
        lip_model=lip_model,
        lip_label_arg=lip_label_arg,
        lip_target=lip_target,
        label_uncertainty=eps,
        train_max_error=eps_train,
        bound_value=bound,
        observed_maxae=None,
    )


def empirical_lipschitz(
    X, y, exact_limit: int = _LIPSCHITZ_EXACT_ROWS, max_pairs: int = _LIPSCHITZ_MAX_PAIRS,
    seed: int = 0,
) -> float:
    """Largest label slope |y_i - y_j| / ||x_i - x_j|| over point pairs.

    Exact over all pairs up to ``exact_limit`` rows; above that a seeded pair
    subsample is used and the result is a lower estimate of the true maximum.
    Duplicate feature rows with differing labels are rejected (the slope is
    infinite).
    """
    X, y = _checked_xy(X, y)
    n = X.shape[0]
    if n < 2:
        raise DataError("need at least 2 points")
    feature_d, label_d = _pair_distances(X, y, n <= exact_limit, max_pairs, seed)
    zero = feature_d == 0.0
    if (label_d[zero] > 0.0).any():
        raise DataError("duplicate feature rows with differing labels: infinite slope")
    if zero.all():
        return 0.0
    return float((label_d[~zero] / feature_d[~zero]).max())


def training_max_error(model: KernelModel, train: Dataset) -> float:
    """Realized maximum absolute prediction error of the model on its training set."""
    y = train.require_labels()
    pred = krr_predict(model, train.features)
    return float(np.abs(y - pred).max())


def bound_check(
    pool: Dataset,
    selection: SelectionResult,
    model: KernelModel,
    lip_target: float,
    eps: float,
    lip_label_arg: float = 1.0,
) -> BoundReport:
    """Evaluate the error bound for a selection/model pair against the
    observed maximum absolute error on the unselected rows.

    The model must have been trained on exactly the selected rows. The label
    Lipschitz constant defaults to 1, the value for the absolute error. One
    prediction pass over the pool gives the training and the observed error.

    The fill distance h is the selection's last ``fill_trace`` entry, which
    every sampler records on ``pool`` bit for bit as ``fill_distance`` would
    recompute it. For a selection not computed on this pool (loaded from
    JSON, edited, or made on another pool), rebuild its traces first with
    ``selection_traces(pool.features, selection.indices)``.
    """
    y = pool.require_labels()
    idx = selection.indices
    if (idx >= pool.n).any():
        raise DataError("selection indices out of range for the pool")
    if model.train_features.shape != (idx.size, pool.d) or not np.array_equal(
        model.train_features, pool.features[idx]
    ):
        raise DataError("model was not trained on exactly the selected rows")

    h = float(selection.fill_trace[-1])
    pred = krr_predict(model, pool.features)
    report = error_bound(
        h, krr_lipschitz_bound(model), lip_label_arg, lip_target, eps, maxae(y[idx], pred[idx])
    )
    mask = np.ones(pool.n, dtype=bool)
    mask[idx] = False
    observed = maxae(y[mask], pred[mask]) if mask.any() else None
    return replace(report, observed_maxae=observed)
