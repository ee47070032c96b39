import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fillgap.analysis import (
    BoundReport,
    CorrelationReport,
    bound_check,
    empirical_lipschitz,
    error_bound,
    mae,
    maxae,
    pairwise_distance_correlation,
    pearson,
    spearman,
    training_max_error,
)
from fillgap.dataset import Dataset, SynthConfig, synth_with_info
from fillgap.errors import DataError
from fillgap.regression import KernelModel, gamma_for_half_kernel, krr_fit, krr_predict
from fillgap.selection import fps

reasonable = st.floats(-1e6, 1e6, allow_nan=False)


# ---------------------------------------------------------------------------
# Error metrics
# ---------------------------------------------------------------------------


def test_maxae_examples():
    assert maxae([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 0.0
    assert maxae([1.0, 2.0, 3.0], [1.0, 2.0, 5.0]) == 2.0
    assert maxae([4.0], [1.5]) == 2.5


def test_mae_examples():
    assert mae([1.0, 2.0], [1.0, 2.0]) == 0.0
    assert mae([0.0, 0.0], [1.0, 3.0]) == 2.0


def test_metric_errors():
    with pytest.raises(DataError):
        maxae([1.0], [1.0, 2.0])
    with pytest.raises(DataError):
        mae([], [])


@settings(max_examples=50)
@given(arrays(np.float64, st.integers(1, 20), elements=reasonable).flatmap(
    lambda a: st.tuples(st.just(a), arrays(np.float64, len(a), elements=reasonable))
))
def test_maxae_dominates_mae(pair):
    y_true, y_pred = pair
    assert maxae(y_true, y_pred) >= mae(y_true, y_pred) >= 0.0


# ---------------------------------------------------------------------------
# Correlations
# ---------------------------------------------------------------------------


def test_linear_labels_give_perfect_correlation():
    x = np.array([0.0, 0.7, 1.9, 3.2, 4.1])[:, None]
    report = pairwise_distance_correlation(x, 2.0 * x[:, 0] + 3.0, max_pairs=100)
    assert report.pearson == pytest.approx(1.0, abs=1e-12)
    assert report.spearman == pytest.approx(1.0, abs=1e-12)
    assert report.verdict == "positive"
    assert report.pair_count == 10 and not report.subsampled


def test_monotone_nonlinear_labels():
    # gaps grow with x, so pair-distance ranks coincide while the linear
    # correlation falls below one
    x = np.array([0.0, 1.0, 3.0, 7.0])[:, None]
    report = pairwise_distance_correlation(x, x[:, 0] ** 2, max_pairs=100)
    assert report.spearman == pytest.approx(1.0, abs=1e-12)
    assert report.pearson < 1.0
    assert report.pearson == pytest.approx(0.9398901316097774, rel=1e-12)


def test_correlation_negative_and_negligible_verdicts():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(40, 2))
    noise = rng.normal(size=40)
    negligible = pairwise_distance_correlation(x, noise, max_pairs=10_000, seed=1)
    assert negligible.verdict in ("negligible", "positive", "negative")
    assert abs(negligible.pearson) <= 0.1  # white labels against geometry
    assert negligible.verdict == "negligible"


def test_exact_equals_subsampled_when_pairs_cover_everything():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(60, 3))
    y = rng.normal(size=60)
    total = 60 * 59 // 2
    exact = pairwise_distance_correlation(x, y, max_pairs=total)
    assert not exact.subsampled
    again = pairwise_distance_correlation(x, y, max_pairs=total, seed=99)
    assert again.pearson == exact.pearson and again.spearman == exact.spearman


def test_subsampled_path_is_deterministic_and_flagged():
    rng = np.random.default_rng(6)
    x = rng.normal(size=(80, 2))
    y = x[:, 0] + rng.normal(scale=0.2, size=80)
    a = pairwise_distance_correlation(x, y, max_pairs=500, seed=3)
    b = pairwise_distance_correlation(x, y, max_pairs=500, seed=3)
    assert a.subsampled and a.pair_count == 500
    assert a.pearson == b.pearson and a.spearman == b.spearman
    full = pairwise_distance_correlation(x, y, max_pairs=10**6)
    assert a.pearson == pytest.approx(full.pearson, abs=0.1)


def test_correlation_rejects_degenerate_geometry():
    x = np.zeros((4, 2))
    with pytest.raises(DataError, match="feature distances"):
        pairwise_distance_correlation(x, np.arange(4.0), max_pairs=100)
    with pytest.raises(DataError, match="label distances"):
        pairwise_distance_correlation(np.random.default_rng(0).normal(size=(4, 2)),
                                      np.ones(4), max_pairs=100)
    with pytest.raises(DataError):
        pairwise_distance_correlation(np.ones((2, 1)), np.ones(2), max_pairs=100)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("where", ["feature", "label"])
def test_pair_statistics_reject_non_finite_input(bad, where):
    # Unchecked, a NaN feature would give pearson=nan with verdict "negative",
    # and an inf label an infinite Lipschitz estimate.
    rng = np.random.default_rng(2)
    x = rng.normal(size=(30, 3))
    y = x[:, 0].copy()
    if where == "feature":
        x[4, 0] = bad
    else:
        y[4] = bad
    with pytest.raises(DataError, match="NaN or Inf"):
        pairwise_distance_correlation(x, y, max_pairs=100)
    with pytest.raises(DataError, match="NaN or Inf"):
        empirical_lipschitz(x, y)


def test_spearman_invariant_under_monotone_transform():
    rng = np.random.default_rng(8)
    a = rng.normal(size=50)
    b = rng.normal(size=50)
    base = spearman(a, b)
    assert spearman(np.exp(a), b) == pytest.approx(base, abs=1e-12)
    assert spearman(a, b**3) == pytest.approx(spearman(a, b**3), abs=0)
    assert spearman(2 * a + 5, b) == pytest.approx(base, abs=1e-12)


@settings(max_examples=40)
@given(
    arrays(np.float64, 12, elements=st.floats(-100, 100, allow_nan=False)),
    arrays(np.float64, 12, elements=st.floats(-100, 100, allow_nan=False)),
)
def test_correlations_bounded(a, b):
    if (a == a[0]).all() or (b == b[0]).all():
        return
    assert -1.0 - 1e-12 <= pearson(a, b) <= 1.0 + 1e-12
    assert -1.0 - 1e-12 <= spearman(a, b) <= 1.0 + 1e-12


# ---------------------------------------------------------------------------
# Error bound
# ---------------------------------------------------------------------------


def test_error_bound_zero_case():
    report = error_bound(0.0, 1.0, 1.0, 3.0, 0.0, 0.0)
    assert report.bound_value == 0.0


def test_error_bound_arithmetic():
    report = error_bound(2.0, 1.0, 1.0, 3.0, 0.1, 0.05)
    assert report.bound_value == pytest.approx(8.15, abs=1e-12)


def test_error_bound_exact_composition():
    report = error_bound(1.7, 2.3, 0.9, 4.1, 0.2, 0.03)
    assert report.bound_value == 1.7 * (2.3 + 0.9 * 4.1) + 0.9 * 0.2 + 0.03


def test_error_bound_rejects_negative():
    with pytest.raises(DataError):
        error_bound(-1.0, 1.0, 1.0, 1.0, 0.0, 0.0)


@settings(max_examples=40)
@given(
    st.floats(0, 10), st.floats(0, 10), st.floats(0, 10),
    st.floats(0, 10), st.floats(0, 10), st.floats(0, 10),
    st.floats(0.01, 1.0), st.integers(0, 5),
)
def test_error_bound_monotone(h, lm, lly, lt, eps, et, delta, which):
    args = [h, lm, lly, lt, eps, et]
    base = error_bound(*args).bound_value
    if which < 6:
        args[which] += delta
    assert error_bound(*args).bound_value >= base - 1e-12


# ---------------------------------------------------------------------------
# Empirical constants
# ---------------------------------------------------------------------------


def test_empirical_lipschitz_linear():
    x = np.linspace(0, 1, 30)[:, None]
    assert empirical_lipschitz(x, 2.0 * x[:, 0]) == pytest.approx(2.0, rel=1e-12)


def test_empirical_lipschitz_constant():
    x = np.random.default_rng(0).normal(size=(20, 2))
    assert empirical_lipschitz(x, np.full(20, 7.0)) == 0.0


def test_empirical_lipschitz_matches_generator():
    ds, info = synth_with_info(SynthConfig(n=400, d=6, target_lipschitz=2.0, seed=3))
    assert empirical_lipschitz(ds.features, ds.labels) == pytest.approx(2.0, abs=1e-9)


def test_empirical_lipschitz_rejects_contradictory_duplicates():
    x = np.array([[1.0, 2.0], [1.0, 2.0]])
    with pytest.raises(DataError, match="duplicate"):
        empirical_lipschitz(x, np.array([0.0, 1.0]))


def test_empirical_lipschitz_subsampled_is_lower_estimate():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(120, 2))
    y = 3.0 * x[:, 0]
    exact = empirical_lipschitz(x, y)
    sampled = empirical_lipschitz(x, y, exact_limit=50, max_pairs=2000, seed=1)
    assert sampled <= exact + 1e-12


# ---------------------------------------------------------------------------
# Training error and the bound check
# ---------------------------------------------------------------------------


def _fit_on(pool, indices, gamma, lam=0.0):
    train = Dataset(pool.features[indices], labels=pool.labels[indices])
    return krr_fit(train, gamma, lam)


def test_training_max_error_interpolating_fit():
    rng = np.random.default_rng(2)
    pool = Dataset(rng.uniform(size=(30, 2)) * 5, labels=rng.normal(size=30))
    model = _fit_on(pool, np.arange(10), gamma=1.0)
    train = Dataset(pool.features[:10], labels=pool.labels[:10])
    assert training_max_error(model, train) <= 1e-8 * np.abs(train.labels).max()


def test_training_max_error_zero_weight_model():
    train = Dataset(np.eye(3), labels=np.array([1.0, -4.0, 2.0]))
    model = KernelModel(train.features, np.zeros(3), gamma=1.0, lam=0.0)
    assert training_max_error(model, train) == 4.0


def test_training_max_error_large_lambda_approaches_label_scale():
    # weights shrink like 1/lambda, so the training error converges to max|y|
    # (the residual prediction can leave it a hair on either side)
    rng = np.random.default_rng(9)
    train = Dataset(rng.uniform(size=(10, 2)), labels=rng.normal(size=10))
    top = np.abs(train.labels).max()
    gaps = [
        abs(training_max_error(krr_fit(train, gamma=1.0, lam=lam), train) - top)
        for lam in (1e2, 1e3, 1e4)
    ]
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[2] <= 1e-3 * top


def test_bound_check_full_pipeline_has_nonnegative_slack():
    ds, info = synth_with_info(
        SynthConfig(n=240, d=3, target_lipschitz=2.0, noise_level=0.1, seed=12)
    )
    gamma = gamma_for_half_kernel(ds.features)
    selection = fps(ds.features, 24, seed=5)
    model = _fit_on(ds, selection.indices, gamma)
    report = bound_check(ds, selection, model, lip_target=info.lipschitz, eps=0.1)
    assert report.observed_maxae is not None
    assert report.slack >= 0.0
    assert report.lip_label_arg == 1.0
    assert report.bound_value == (
        report.fill_dist * (report.lip_model + report.lip_label_arg * report.lip_target)
        + report.lip_label_arg * report.label_uncertainty
        + report.train_max_error
    )


def test_bound_check_whole_pool_degenerates():
    ds, info = synth_with_info(SynthConfig(n=12, d=2, target_lipschitz=1.0, seed=1))
    gamma = 2.0
    selection = fps(ds.features, 12, seed=0)
    model = _fit_on(ds, selection.indices, gamma, lam=1e-10)
    report = bound_check(ds, selection, model, lip_target=info.lipschitz, eps=0.0)
    assert report.fill_dist == 0.0
    assert report.observed_maxae is None and report.slack is None


def test_bound_check_budget_growth_never_raises_fill_term():
    ds, info = synth_with_info(SynthConfig(n=100, d=2, target_lipschitz=1.0, seed=6))
    gamma = gamma_for_half_kernel(ds.features)
    full = fps(ds.features, 30, seed=2)
    fills = [float(full.fill_trace[b - 1]) for b in (10, 20, 30)]
    assert fills[0] >= fills[1] >= fills[2]


def test_bound_check_reads_fill_from_the_selection_trace(monkeypatch):
    from fillgap import analysis, selection
    from fillgap.selection import STRATEGY_KINDS, StrategySpec, fill_distance, select

    ds, info = synth_with_info(SynthConfig(n=300, d=3, target_lipschitz=1.5, seed=8))
    gamma = gamma_for_half_kernel(ds.features)
    specs = [
        StrategySpec(kind, switch_fraction=0.02 if kind == "fps_then_random" else None)
        for kind in STRATEGY_KINDS
    ]
    cases = []
    for spec in specs:
        result = select(ds.features, spec, 20, seed=3)
        idx = result.indices
        model = _fit_on(ds, idx, gamma)
        mask = np.ones(ds.n, dtype=bool)
        mask[idx] = False
        expected = (
            fill_distance(ds.features, idx),
            training_max_error(model, Dataset(ds.features[idx], labels=ds.labels[idx])),
            maxae(ds.labels[mask], krr_predict(model, ds.features[mask])),
        )
        cases.append((spec.kind, result, model, expected))

    def walk_again(*args, **kwargs):
        raise AssertionError("bound_check recomputed the fill distance")

    predicted = []

    def counted_predict(model, X):
        predicted.append(len(X))
        return krr_predict(model, X)

    monkeypatch.setattr(selection, "fill_distance", walk_again)
    monkeypatch.setattr(analysis, "fill_distance", walk_again, raising=False)
    monkeypatch.setattr(analysis, "krr_predict", counted_predict)
    for kind, result, model, expected in cases:
        predicted.clear()
        report = bound_check(ds, result, model, lip_target=info.lipschitz, eps=0.0)
        # One prediction pass over the pool gives both error terms bit for bit.
        assert predicted == [ds.n], kind
        assert (report.fill_dist, report.train_max_error, report.observed_maxae) == expected, kind


def test_bound_check_requires_matching_model():
    ds, info = synth_with_info(SynthConfig(n=40, d=2, target_lipschitz=1.0, seed=7))
    selection = fps(ds.features, 8, seed=1)
    other = _fit_on(ds, np.arange(8), gamma=1.0)
    with pytest.raises(DataError, match="selected rows"):
        bound_check(ds, selection, other, lip_target=1.0, eps=0.0)


def test_bound_report_json_fields():
    report = error_bound(1.0, 2.0, 1.0, 0.5, 0.1, 0.01)
    payload = report.to_json()
    for key in (
        "fill_dist",
        "lip_model",
        "lip_label_arg",
        "lip_target",
        "label_uncertainty",
        "train_max_error",
        "bound_value",
        "observed_maxae",
    ):
        assert key in payload


def test_correlation_report_json():
    report = CorrelationReport(0.5, 0.4, 10, False, "positive")
    assert report.to_json() == (
        '{"pearson": 0.5, "spearman": 0.4, "pair_count": 10, "subsampled": false, '
        '"verdict": "positive"}'
    )
