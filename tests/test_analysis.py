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


@pytest.mark.parametrize(
    "y_true,y_pred,message",
    [
        (["a"], ["b"], "y_true must be an array of real numbers, got <U1 values"),
        ([1.0], [1 + 2j], "y_pred must be an array of real numbers, got complex128 values"),
        ([1.0, None], [1.0, 2.0], "y_true must be an array of real numbers, got object values"),
        ([[1.0]], [[1.0]], r"y_true must be a 1-D array, got shape \(1, 1\)"),
        ([1.0], [[1.0]], r"y_pred must be a 1-D array, got shape \(1, 1\)"),
        ([1.0, math.nan], [1.0, 2.0], "y_true must have finite entries, got NaN or Inf"),
        ([1.0], [1.0, 2.0], "y_true and y_pred must be equal-length 1-D sequences of >= 1 values, got lengths 1 and 2"),
        ([], [], "y_true and y_pred must be equal-length 1-D sequences of >= 1 values, got lengths 0 and 0"),
    ],
    ids=["string", "complex", "object", "2-d", "2-d-pred", "nan", "unequal", "empty"],
)
@pytest.mark.parametrize("metric", [maxae, mae])
def test_metrics_reject_what_is_not_a_finite_real_sequence(metric, y_true, y_pred, message):
    # maxae([[1.0]], [[1.0]]) read "length mismatch: (1, 1) vs (1, 1)", and a
    # string raised a bare ValueError.
    with pytest.raises(DataError, match="^" + message + "$"):
        metric(y_true, y_pred)


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


@pytest.mark.parametrize(
    "statistic,rows,max_pairs,message",
    [
        (pairwise_distance_correlation, 2, 100, "need at least 3 points"),
        (empirical_lipschitz, 1, 100, "need at least 2 points"),
        (pairwise_distance_correlation, 3, 1, "max_pairs must be >= 2, got 1"),
        (empirical_lipschitz, 2, 0, "max_pairs must be >= 1, got 0"),
    ],
    ids=["correlation-rows", "lipschitz-rows", "correlation-pairs", "lipschitz-pairs"],
)
def test_pair_statistics_need_enough_rows_and_pairs(statistic, rows, max_pairs, message):
    x = np.arange(2.0 * rows).reshape(rows, 2) ** 2
    with pytest.raises(DataError, match="^" + message + "$"):
        statistic(x, np.arange(float(rows)), max_pairs=max_pairs)


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


@pytest.mark.parametrize(
    "x,y,message",
    [
        ([["a"]] * 4, [0.0, 1.0, 2.0, 3.0], "X must be an array of real numbers, got <U1 values"),
        ([[0.0], [1.0], [2.0, 3.0]], [0.0, 1.0, 2.0], "X must be an array of real numbers, got a ragged sequence"),
        ([[0.0], [1.0], [3.0]], [0.0, 1.0, 2j], "y must be an array of real numbers, got complex128 values"),
        ([0.0, 1.0, 3.0], [0.0, 1.0, 2.0], r"X must be a 2-D array, got shape \(3,\)"),
        ([[0.0], [1.0], [3.0]], [0.0, 1.0], "X must be n x d and y length n"),
    ],
    ids=["string", "ragged", "complex", "1-d", "unequal-lengths"],
)
def test_pair_statistics_reject_what_is_not_a_real_array(x, y, message):
    for statistic in (pairwise_distance_correlation, empirical_lipschitz):
        with pytest.raises(DataError, match="^" + message + "$"):
            statistic(x, y)


@pytest.mark.parametrize("max_pairs", [None, 100], ids=["all-pairs", "sampled"])
@pytest.mark.parametrize("where", ["feature", "label"])
def test_pair_statistics_raise_on_overflowing_distances(where, max_pairs):
    # Finite rows whose distances pass the largest float64. Unchecked, the
    # Lipschitz estimate of the features came from the 3 of 435 pairs that
    # did not overflow (8.17e-156, not 9.98e-156), and the correlation
    # reported "a must have finite entries".
    x = np.random.default_rng(41).uniform(size=(30, 3))
    y = x[:, 0].copy()
    if where == "feature":
        x *= 1e155
    else:
        y = (2.0 * y - 1.0) * 1.7e308
    args = {} if max_pairs is None else {"max_pairs": max_pairs}
    for statistic in (pairwise_distance_correlation, empirical_lipschitz):
        with pytest.raises(DataError, match="^pairwise distances overflow float64; rescale the pool$"):
            statistic(x, y, **args)
    # Label gaps up to 1.7e308 are finite on both paths. The all-pairs path
    # squared them and raised the overflow error here.
    x = np.random.default_rng(41).uniform(size=(30, 3))
    y = x[:, 0] * 1.7e308
    slope = empirical_lipschitz(x, y, **args)
    assert math.isfinite(slope)
    assert empirical_lipschitz(x, y) >= slope


@pytest.mark.parametrize("args", [{}, {"max_pairs": 2, "seed": 1}], ids=["all-pairs", "sampled"])
def test_lipschitz_raises_on_an_overflowing_slope(args):
    # Finite gaps whose ratio passes float64's largest value: 1e308 / 0.5.
    # Unchecked it returned inf with a RuntimeWarning on both paths.
    x, y = [[0.0], [0.5], [3.0]], [0.0, 1e308, 0.0]
    with pytest.raises(DataError, match="^pairwise distances overflow float64; rescale the pool$"):
        empirical_lipschitz(x, y, **args)
    # The seed-0 sample misses the pair (0, 1) and its finite slopes stand.
    assert empirical_lipschitz(x, y, max_pairs=2, seed=0) == 1e308 / 2.5


def test_spearman_invariant_under_monotone_transform():
    rng = np.random.default_rng(8)
    a = rng.normal(size=50)
    b = rng.normal(size=50)
    base = spearman(a, b)
    assert spearman(np.exp(a), b) == pytest.approx(base, abs=1e-12)
    assert spearman(a, b**3) == pytest.approx(spearman(a, b**3), abs=0)
    assert spearman(2 * a + 5, b) == pytest.approx(base, abs=1e-12)


@pytest.mark.parametrize(
    "values",
    [
        [3.0, -1.0, 2.5, 7.0, 0.5],  # no ties
        [4.0] * 6,  # all tied
        [2.0, 1.0, 2.0, 3.0, 1.0, 2.0, 5.0, 5.0],  # runs of ties
        [0.0, -0.0, 1.0, -0.0, -1.0],  # -0.0 equals 0.0
        [1.5],  # a single value
        [-1e300, -1e-300, -5e150, -1e300, -2.0, -1e-300],  # large negative spread
    ],
    ids=["no-ties", "all-tied", "tie-runs", "signed-zero", "single", "negative-spread"],
)
def test_average_ranks_match_scipy_bit_for_bit(values):
    from scipy.stats import rankdata

    from fillgap.analysis import _average_ranks

    v = np.array(values)
    assert _average_ranks(v).tobytes() == rankdata(v, method="average").tobytes()


def test_average_ranks_match_scipy_on_random_input():
    from scipy.stats import rankdata

    from fillgap.analysis import _average_ranks

    rng = np.random.default_rng(19)
    for size in (2, 3, 50, 1001):
        for v in (rng.normal(size=size), rng.integers(-4, 4, size=size).astype(np.float64)):
            assert _average_ranks(v).tobytes() == rankdata(v, method="average").tobytes()


@pytest.mark.parametrize("max_pairs", [10**6, 700], ids=["exact", "subsampled"])
def test_correlation_report_equals_scipy_ranked_report(monkeypatch, max_pairs):
    # Ranking with scipy.stats.rankdata, as the correlation did before it
    # ranked with numpy, gives the same report bit for bit on both paths.
    from scipy.stats import rankdata

    from fillgap import analysis

    x = np.random.default_rng(4).uniform(size=(90, 3))
    y = np.round(x[:, 0] * 4)  # rounded labels: many tied label distances
    report = pairwise_distance_correlation(x, y, max_pairs=max_pairs, seed=2)
    assert report.subsampled == (max_pairs < 90 * 89 // 2)
    monkeypatch.setattr(analysis, "_average_ranks", lambda v: rankdata(v, method="average"))
    assert pairwise_distance_correlation(x, y, max_pairs=max_pairs, seed=2) == report


@pytest.mark.parametrize("statistic", [pearson, spearman])
@pytest.mark.parametrize(
    "a,b,message",
    [
        ([[1.0, 2.0], [3.0, 4.0]], [[1.0, 2.0], [3.0, 4.0]], r"a must be a 1-D array, got shape \(2, 2\)"),
        ([1.0, 2.0, 3.0], [1.0, 2.0], "equal-length 1-D sequences"),
        ([1.0], [2.0], "equal-length 1-D sequences"),
        ([1.0, math.nan, 3.0], [1.0, 2.0, 4.0], "NaN or Inf"),
        ([1.0, math.inf, 3.0], [1.0, 2.0, 4.0], "NaN or Inf"),
        ([1.0, 2.0, 3.0], [1.0, -math.inf, 4.0], "NaN or Inf"),
        (["1", "2", "3"], [1.0, 2.0, 4.0], "^a must be an array of real numbers, got <U1 values$"),
        ([1.0, 2.0, 3.0], [1.0, 2.0, 4j], "^b must be an array of real numbers, got complex128 values$"),
        ([2.0, 2.0, 2.0], [1.0, 2.0, 4.0], "^first sequence has zero variance; correlation undefined$"),
        ([1.0, 2.0, 4.0], [5.0, 5.0, 5.0], "^second sequence has zero variance; correlation undefined$"),
    ],
    ids=["2-d", "unequal", "single", "nan", "inf", "negative-inf", "string", "complex",
         "constant-first", "constant-second"],
)
def test_correlations_reject_malformed_input(statistic, a, b, message):
    # Ranking would flatten 2-D input and put NaN last; the tier-1 warning
    # filter turns the Inf arithmetic of an unchecked pearson into an error.
    with pytest.raises(DataError, match=message):
        statistic(a, b)


def test_no_module_imports_scipy_stats():
    import os
    import subprocess
    import sys
    from pathlib import Path

    import fillgap

    # A fresh process: this one may have loaded scipy.stats for the tests.
    script = (
        "import importlib, pkgutil, sys, fillgap\n"
        "for module in pkgutil.iter_modules(fillgap.__path__):\n"
        "    if module.name != '__main__':\n"
        "        importlib.import_module('fillgap.' + module.name)\n"
        "print(' '.join(sorted(sys.modules)))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(fillgap.__file__).resolve().parent.parent)
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()
    modules = proc.stdout.decode().split()
    assert "fillgap.analysis" in modules and "fillgap.experiment" in modules
    assert [m for m in modules if m == "scipy.stats" or m.startswith("scipy.stats.")] == []


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


@pytest.mark.parametrize(
    "value,message",
    [
        (True, "must be a real number, got True"),
        ("1", "must be a real number, got '1'"),
        (None, "must be a real number, got None"),
        (-1.0, "must be non-negative and finite, got -1.0"),
        (math.nan, "must be non-negative and finite, got nan"),
        (math.inf, "must be non-negative and finite, got inf"),
    ],
)
@pytest.mark.parametrize("position", range(6))
def test_error_bound_constants_are_non_negative_real_numbers(position, value, message):
    # Unchecked, error_bound(True, 1, 1, 1, 0, 0) returned the int 2.
    names = ("h", "lip_model", "lip_label_arg", "lip_target", "eps", "eps_train")
    args = [1, 1, 1, 1, 0, 0]
    args[position] = value
    with pytest.raises(DataError, match=f"^{names[position]} {message}$"):
        error_bound(*args)


def test_error_bound_stores_floats():
    report = error_bound(1, 1, 1, 1, 0, np.float32(0))
    assert report.bound_value == 2.0 and type(report.bound_value) is float
    assert {type(getattr(report, f)) for f in ("fill_dist", "lip_model", "train_max_error")} == {float}


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
    # Duplicate rows with equal labels: every pair has zero gap and zero slope.
    assert empirical_lipschitz(np.ones((3, 2)), np.full(3, 7.0)) == 0.0


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
    sampled = empirical_lipschitz(x, y, max_pairs=2000, seed=1)
    assert sampled <= exact + 1e-12


@pytest.mark.parametrize("which", ["correlation", "lipschitz"])
def test_sampling_all_pairs_but_one_takes_bounded_time(monkeypatch, which):
    import time

    from fillgap import analysis

    # 300 rows have 44850 pairs. Drawing until 44849 are distinct is a coupon
    # collector's tail: the correlation took 67.7 s so, and 0.98 s at 44000.
    n, k = 300, 44849
    rng = np.random.default_rng(2)
    x = rng.uniform(size=(n, 3))
    y = np.sin(3.0 * x).sum(axis=1)
    exact = empirical_lipschitz(x, y)
    drawn = []
    sample = analysis._sample_pair_indices

    def recorded(*args):
        drawn.append(sample(*args))
        return drawn[-1]

    monkeypatch.setattr(analysis, "_sample_pair_indices", recorded)
    start = time.perf_counter()
    if which == "correlation":
        report = pairwise_distance_correlation(x, y, max_pairs=k, seed=3)
        assert report.pair_count == k and report.subsampled
    else:
        assert empirical_lipschitz(x, y, max_pairs=k, seed=3) <= exact
    assert time.perf_counter() - start < 1.0
    (i, j), = drawn
    assert i.size == k and (i < j).all() and (j < n).all()
    assert np.unique(i * n + j).size == k


def test_empirical_lipschitz_is_exact_when_all_pairs_fit():
    from scipy.spatial.distance import pdist

    rng = np.random.default_rng(6)
    x = rng.normal(size=(100, 3))
    y = np.sin(x).sum(axis=1)
    slopes = pdist(y[:, None]) / pdist(x)
    # 4950 pairs fit under 10**6: all are used, none is drawn twice.
    assert empirical_lipschitz(x, y, max_pairs=10**6) == slopes.max()
    assert empirical_lipschitz(x, y, max_pairs=4950) == slopes.max()
    with pytest.raises(DataError, match="max_pairs"):
        empirical_lipschitz(x, y, max_pairs=0)


@pytest.mark.parametrize("max_pairs", [100.5, True, math.nan, "100"])
def test_max_pairs_must_be_an_integral_count(max_pairs):
    rng = np.random.default_rng(6)
    x, y = rng.normal(size=(30, 3)), rng.normal(size=30)
    for measure in (empirical_lipschitz, pairwise_distance_correlation):
        with pytest.raises(DataError, match="max_pairs must be integral, got"):
            measure(x, y, max_pairs=max_pairs)


@pytest.mark.parametrize("seed", [2.7, True, math.nan, "4"])
@pytest.mark.parametrize("max_pairs", [100, 10**6])
def test_seed_must_be_integral_whether_or_not_pairs_are_sampled(max_pairs, seed):
    # 30 rows have 435 pairs: sampled at max_pairs=100, all used at 10**6.
    rng = np.random.default_rng(6)
    x, y = rng.normal(size=(30, 3)), rng.normal(size=30)
    for measure in (empirical_lipschitz, pairwise_distance_correlation):
        with pytest.raises(DataError, match="seed must be integral, got"):
            measure(x, y, max_pairs=max_pairs, seed=seed)


def test_max_pairs_of_any_integral_numeric_type_subsamples_alike():
    rng = np.random.default_rng(6)
    x, y = rng.normal(size=(30, 3)), rng.normal(size=30)
    for measure in (empirical_lipschitz, pairwise_distance_correlation):
        expected = measure(x, y, max_pairs=100, seed=4)
        assert measure(x, y, max_pairs=100.0, seed=4.0) == expected
        assert measure(x, y, max_pairs=np.int64(100), seed=np.uint8(4)) == expected


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


def test_bound_check_rejects_a_selection_past_the_pool():
    ds, _ = synth_with_info(SynthConfig(n=40, d=2, target_lipschitz=1.0, seed=7))
    selection = fps(ds.features, 8, seed=1)
    model = _fit_on(ds, selection.indices, gamma=1.0)
    smaller = Dataset(ds.features[:30], labels=ds.labels[:30])
    assert selection.indices.max() >= 30
    with pytest.raises(DataError, match=r"selected index out of range \[0, 30\)"):
        bound_check(smaller, selection, model, lip_target=1.0, eps=0.0)


def test_bound_check_memory_stays_within_blocks():
    import tracemalloc

    from fillgap import selection

    d, b = 16, 500
    for n in (5000, 20000):
        rng = np.random.default_rng(0)
        x = rng.uniform(size=(n, d))
        pool = Dataset(x, labels=np.sin(x.sum(axis=1)))
        picked = fps(x, b, seed=1)
        idx = picked.indices
        model = krr_fit(Dataset(x[idx], labels=pool.labels[idx]), 2.0, 1e-6)
        tracemalloc.start()
        try:
            bound_check(pool, picked, model, lip_target=1.0, eps=0.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # Six per-row arrays (the predictions, the mask, the unselected labels
        # and predictions, their difference and its absolute value), the
        # gathered b x d training rows and one prediction block: O(n + b d) at
        # both sizes, where the n x b kernel would take 80 MB at n=20000.
        assert peak < 8 * n * 6 + 8 * b * d + 8 * selection._BLOCK_ENTRIES, n


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


def test_every_report_writes_strict_json():
    # A bare NaN or Infinity token is not JSON; conditioning_report wrote one
    # for C_d = NaN. Each report is built with its None and NaN fields set.
    import json

    from fillgap.regression import conditioning_report

    def refuse(token):
        raise ValueError(f"{token} is not JSON")

    ds, info = synth_with_info(SynthConfig(n=12, d=2, target_lipschitz=1.0, seed=1))
    whole = fps(ds.features, 12, seed=0)  # no unselected row: observed_maxae is None
    model = _fit_on(ds, whole.indices, 2.0, lam=1e-10)
    duplicated = np.repeat(ds.features[:3], 2, axis=0)  # singular: cond_unregularized is None
    reports = [
        whole,  # sep_trace[0] is NaN
        error_bound(1, 2, 1, 0.5, 0, 0),
        bound_check(ds, whole, model, lip_target=info.lipschitz, eps=0.0),
        pairwise_distance_correlation(ds.features, ds.labels),
        conditioning_report(duplicated, [0, 1, 2, 3], gamma=1.0, lam=0.0),
        conditioning_report(ds.features, [0, 5], gamma=0.5, lam=1e-4, c_d=2),
    ]
    assert reports[-2].cond_unregularized is None and reports[2].observed_maxae is None
    for report in reports:
        json.loads(report.to_json(), parse_constant=refuse)
