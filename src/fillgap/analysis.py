"""Evaluation metrics, the fill-distance error bound, empirical constant
estimation, and the pairwise-distance correlation diagnostic."""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, replace

import numpy as np
from scipy.spatial.distance import pdist

from .dataset import Dataset
from .errors import DataError
from .regression import KernelModel, krr_lipschitz_bound, krr_predict
from .rng import _count, _floats, _indices, _real, rng_from_seed
from .selection import _OVERFLOW_MESSAGE, SelectionResult

# Pair counts above these limits fall back to seeded subsampling. All pairs
# of up to 3162 rows fit under the first, of up to 2000 under the second.
_CORRELATION_MAX_PAIRS = 5_000_000
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
        """The fields in order, then ``slack``: what ``fillgap bound`` prints."""
        return json.dumps({**asdict(self), "slack": self.slack})


# ---------------------------------------------------------------------------
# Error metrics
# ---------------------------------------------------------------------------


def _paired(a, b, names: tuple[str, str], least: int) -> tuple[np.ndarray, np.ndarray]:
    """``a`` and ``b`` as float64 arrays: two equal-length 1-D sequences of at
    least ``least`` finite values, named ``names`` in errors."""
    a, b = _floats(a, names[0], 1), _floats(b, names[1], 1)
    if a.size != b.size or a.size < least:
        raise DataError(
            f"{names[0]} and {names[1]} must be equal-length 1-D sequences of >= {least} "
            f"values, got lengths {a.size} and {b.size}"
        )
    return a, b


def maxae(y_true, y_pred) -> float:
    """Maximum absolute difference between true and predicted values."""
    y_true, y_pred = _paired(y_true, y_pred, ("y_true", "y_pred"), 1)
    return float(np.abs(y_true - y_pred).max())


def mae(y_true, y_pred) -> float:
    """Mean absolute difference between true and predicted values.

    Never above ``maxae``: the rounded mean of equal values can exceed them
    by an ulp, so it is capped at the largest difference.
    """
    y_true, y_pred = _paired(y_true, y_pred, ("y_true", "y_pred"), 1)
    err = np.abs(y_true - y_pred)
    return float(min(err.mean(), err.max()))


# ---------------------------------------------------------------------------
# Correlation of pairwise distances
# ---------------------------------------------------------------------------


def _pearson(a: np.ndarray, b: np.ndarray, names: tuple[str, str]) -> float:
    """Pearson correlation of two equal-length float64 arrays; a constant one,
    named by ``names`` in the error, leaves it undefined."""
    for values, name in zip((a, b), names):
        if (values == values[0]).all():
            raise DataError(f"{name} has zero variance; correlation undefined")
    # Scaling by a power of two is exact, leaves the correlation unchanged,
    # and keeps the products in corrcoef from underflowing on tiny inputs.
    a = np.ldexp(a, -np.frexp(np.abs(a).max())[1])
    b = np.ldexp(b, -np.frexp(np.abs(b).max())[1])
    return float(np.corrcoef(a, b)[0, 1])


def pearson(a, b) -> float:
    """Pearson correlation of two equal-length sequences of finite values."""
    a, b = _paired(a, b, ("a", "b"), 2)
    return _pearson(a, b, ("first sequence", "second sequence"))


def _average_ranks(v: np.ndarray) -> np.ndarray:
    """Ranks 1..n of ``v``; a run of tied values shares the average of its
    ranks. Every rank is a half-integer, so the bits equal those of
    ``scipy.stats.rankdata(v, method="average")``, which uses the same formula."""
    order = np.argsort(v, kind="stable")
    ordered = v[order]
    new = np.concatenate(([True], ordered[1:] != ordered[:-1]))
    dense = np.cumsum(new)  # 1-based index of each sorted value's run
    count = np.append(np.flatnonzero(new), v.size)  # run k spans [count[k-1], count[k])
    ranks = np.empty(v.size)
    ranks[order] = 0.5 * (count[dense] + count[dense - 1] + 1)
    return ranks


def spearman(a, b) -> float:
    """Spearman correlation: Pearson on the ranks of two equal-length
    sequences of finite values. Tied values get the average of their ranks;
    NaN or Inf entries raise ``DataError``."""
    a, b = _paired(a, b, ("a", "b"), 2)
    return pearson(_average_ranks(a), _average_ranks(b))


def _pair_offsets(n: int) -> np.ndarray:
    # offsets[i] = linear index of pair (i, i + 1) in the i<j enumeration
    i = np.arange(n, dtype=np.int64)
    return i * (n - 1) - (i * (i - 1)) // 2


def _distinct_draws(total: int, k: int, rng) -> np.ndarray:
    """k distinct integers, uniform over the k-subsets of [0, total)."""
    collected = np.empty(0, dtype=np.int64)
    while collected.size < k:
        draw = rng.integers(0, total, size=2 * (k - collected.size) + 16, dtype=np.int64)
        collected = np.unique(np.concatenate([collected, draw]))
    return collected[rng.permutation(collected.size)[:k]]


def _sample_pair_indices(n: int, k: int, rng) -> tuple[np.ndarray, np.ndarray]:
    """k distinct pairs (i, j), i < j, uniform over all n-choose-2 pairs.

    Drawing until k are distinct slows without bound as k nears the total (a
    coupon collector's tail), so past half the pairs the total - k pairs to
    leave out are drawn instead; the pairs kept then number under 2k."""
    total = n * (n - 1) // 2
    if 2 * k <= total:
        chosen = np.sort(_distinct_draws(total, k, rng))
    else:
        keep = np.ones(total, dtype=bool)
        keep[_distinct_draws(total, total - k, rng)] = False
        chosen = np.flatnonzero(keep)
    offsets = _pair_offsets(n)
    i = np.searchsorted(offsets, chosen, side="right") - 1
    j = chosen - offsets[i] + i + 1
    return i, j


def _pair_distances(X, y, max_pairs, seed, least: int) -> tuple[np.ndarray, np.ndarray, bool]:
    """Feature and label distances of ``X`` (n x d) and ``y`` (n labels) over
    all n-choose-2 pairs, or, when more than ``max_pairs``, over a seeded
    sample of that many distinct pairs, and whether they were sampled. ``n``
    must be >= ``least`` and ``max_pairs`` >= ``least - 1``; the seed is
    checked either way. A distance that overflows float64 raises DataError,
    since the statistics would skip or drown it."""
    X, y = _floats(X, "X", 2), _floats(y, "y", 1)
    n = X.shape[0]
    if y.shape[0] != n:
        raise DataError("X must be n x d and y length n")
    if n < least:
        raise DataError(f"need at least {least} points")
    max_pairs = _count(max_pairs, "max_pairs", least - 1)
    rng = rng_from_seed(seed)
    sampled = n * (n - 1) // 2 > max_pairs
    if not sampled:
        feature_d, label_d = pdist(X), pdist(y[:, None], "cityblock")
    else:
        i, j = _sample_pair_indices(n, max_pairs, rng)
        with np.errstate(over="ignore"):  # an overflow is the error raised below
            feature_d, label_d = np.linalg.norm(X[i] - X[j], axis=1), np.abs(y[i] - y[j])
    if not (np.isfinite(feature_d).all() and np.isfinite(label_d).all()):
        raise DataError(_OVERFLOW_MESSAGE)
    return feature_d, label_d, sampled


def pairwise_distance_correlation(
    X, y, max_pairs: int = _CORRELATION_MAX_PAIRS, seed: int = 0
) -> CorrelationReport:
    """Correlate feature-space and label-space distances over point pairs.

    All n-choose-2 pairs are used when they fit under ``max_pairs``;
    otherwise a seeded uniform subsample of ``max_pairs`` distinct pairs is
    taken and flagged. The verdict applies the |rho| <= 0.1 negligibility
    threshold to the Pearson coefficient.
    """
    feature_d, label_d, subsampled = _pair_distances(X, y, max_pairs, seed, 3)
    names = ("sequence of feature distances", "sequence of label distances")
    rho_p = _pearson(feature_d, label_d, names)
    rho_s = _pearson(_average_ranks(feature_d), _average_ranks(label_d), names)
    if abs(rho_p) <= NEGLIGIBLE_CORRELATION:
        verdict = "negligible"
    else:
        verdict = "positive" if rho_p > 0 else "negative"
    return CorrelationReport(
        pearson=rho_p,
        spearman=rho_s,
        pair_count=feature_d.size,
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
    h, lip_model, lip_label_arg, lip_target, eps, eps_train = (
        _real(v, name, "non-negative")
        for v, name in zip(
            (h, lip_model, lip_label_arg, lip_target, eps, eps_train),
            ("h", "lip_model", "lip_label_arg", "lip_target", "eps", "eps_train"),
        )
    )
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


def empirical_lipschitz(X, y, max_pairs: int = _LIPSCHITZ_MAX_PAIRS, seed: int = 0) -> float:
    """Largest label slope |y_i - y_j| / ||x_i - x_j|| over point pairs.

    Exact over all n-choose-2 pairs when they fit under ``max_pairs``, as in
    ``pairwise_distance_correlation``; otherwise over a seeded sample of
    ``max_pairs`` distinct pairs, and the result is a lower estimate of the
    true maximum. Duplicate feature rows with differing labels are rejected
    (the slope is infinite).
    """
    feature_d, label_d, _ = _pair_distances(X, y, max_pairs, seed, 2)
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
    idx = _indices(selection.indices, pool.n)
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
