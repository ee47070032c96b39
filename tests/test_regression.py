import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fillgap.dataset import Dataset, SynthConfig, synth_lipschitz
from fillgap.errors import DataError, IllConditionedError
from fillgap.regression import (
    ConditioningReport,
    KernelModel,
    condition_number,
    conditioning_report,
    default_grid,
    eigen_bounds,
    gamma_for_half_kernel,
    gaussian_envelope_slope,
    gaussian_kernel_matrix,
    grid_search_cv_report,
    krr_fit,
    krr_lipschitz_bound,
    krr_predict,
    load_model,
    save_model,
)
from fillgap.selection import nn_distances


def labelled(features, labels):
    return Dataset(np.asarray(features, dtype=float), labels=np.asarray(labels, dtype=float))


# ---------------------------------------------------------------------------
# Kernel matrix
# ---------------------------------------------------------------------------


def test_kernel_identical_rows_all_ones():
    X = np.ones((4, 3))
    assert (gaussian_kernel_matrix(X, 2.0) == 1.0).all()


def test_kernel_unit_diagonal_and_symmetry():
    from scipy.spatial.distance import cdist

    rng = np.random.default_rng(0)
    X = rng.normal(size=(12, 4))
    K = gaussian_kernel_matrix(X, 0.7)
    assert (np.diag(K) == 1.0).all()
    assert np.array_equal(K, K.T)
    assert (K > 0).all() and (K <= 1.0).all()
    expected = np.exp(-0.7 * cdist(X, X, "sqeuclidean"))
    np.fill_diagonal(expected, 1.0)
    assert np.array_equal(K, expected)


def test_kernel_off_diagonal_value():
    K = gaussian_kernel_matrix(np.array([[0.0], [1.0]]), 1.0)
    assert K[0, 1] == pytest.approx(math.exp(-1.0), rel=1e-15)


def test_kernel_rejects_bad_inputs():
    with pytest.raises(DataError):
        gaussian_kernel_matrix(np.array([[np.inf]]), 1.0)
    with pytest.raises(DataError):
        gaussian_kernel_matrix(np.ones((2, 2)), 0.0)
    with pytest.raises(DataError, match=r"must be a 2-D matrix, got shape \(3,\)"):
        gaussian_kernel_matrix(np.ones(3), 1.0)


# ---------------------------------------------------------------------------
# Fit and predict
# ---------------------------------------------------------------------------


def test_fit_single_point_weights_equal_label():
    model = krr_fit(labelled([[0.0, 0.0]], [3.5]), gamma=1.0, lam=0.0)
    assert model.weights.tolist() == [3.5]


def test_fit_two_points_interpolates():
    train = labelled([[0.0], [1.0]], [1.0, -2.0])
    model = krr_fit(train, gamma=1.0, lam=0.0)
    pred = krr_predict(model, train.features)
    assert np.abs(pred - train.labels).max() <= 1e-8 * np.abs(train.labels).max()


def test_fit_duplicate_point_is_ill_conditioned_at_zero_lambda():
    train = labelled([[1.0, 2.0], [1.0, 2.0]], [1.0, 1.0])
    with pytest.raises(IllConditionedError, match="eigenvalue"):
        krr_fit(train, gamma=1.0, lam=0.0)
    model = krr_fit(train, gamma=1.0, lam=1e-6)  # regularized solve succeeds
    assert np.isfinite(model.weights).all()


def test_predict_far_query_decays():
    train = labelled([[0.0], [1.0]], [5.0, -3.0])
    model = krr_fit(train, gamma=1.0, lam=0.0)
    pred = krr_predict(model, np.array([[100.0]]))  # distance >= 99, gamma d^2 >> 50
    assert abs(pred[0]) <= np.abs(model.weights).sum() * math.exp(-50.0)


def test_predict_zero_weights():
    model = KernelModel(np.zeros((3, 2)), np.zeros(3), gamma=1.0, lam=0.0)
    assert (krr_predict(model, np.random.default_rng(0).normal(size=(5, 2))) == 0).all()


def test_predict_dimension_mismatch():
    model = KernelModel(np.zeros((2, 3)), np.zeros(2), gamma=1.0, lam=0.0)
    with pytest.raises(DataError):
        krr_predict(model, np.zeros((4, 2)))


def test_predict_rejects_non_finite_queries():
    model = KernelModel(np.zeros((2, 3)), np.ones(2), gamma=1.0, lam=0.0)
    queries = np.zeros((200, 3))
    queries[150, 1] = np.nan
    with pytest.raises(DataError, match="kernel inputs contain NaN or Inf entries"):
        krr_predict(model, queries)


def test_predict_memory_stays_within_blocks():
    import tracemalloc

    from fillgap import selection

    n, d, b = 20000, 16, 1000
    rng = np.random.default_rng(0)
    queries = rng.uniform(size=(n, d))
    model = KernelModel(queries[:b], rng.normal(size=b), gamma=2.0, lam=0.0)
    tracemalloc.start()
    try:
        krr_predict(model, queries)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # The output plus two kernel blocks (8.2 MB, under 16 MiB); the whole
    # n x b kernel matrix would take 160 MB, and cdist, scaling and exp held
    # two of them at once.
    assert peak < 8 * n + 2 * 8 * selection._BLOCK_ENTRIES


_PREDICT_EXACT_SCRIPT = """
import sys
import numpy as np
from scipy.spatial.distance import cdist
from fillgap import selection
from fillgap.regression import KernelModel, krr_predict

default_entries = selection._BLOCK_ENTRIES
for n, d, b in ((19003, 16, 1000), (9999, 64, 333), (5001, 144, 77), (70001, 8, 100)):
    rng = np.random.default_rng(n)
    queries = rng.uniform(size=(n, d))
    train = queries[rng.choice(n, size=b, replace=False)]
    weights = rng.normal(size=b)
    gamma = 0.5 * d ** -0.5
    expected = np.exp(-gamma * cdist(queries, train, "sqeuclidean")) @ weights
    for entries in (default_entries, 64 * b):  # default blocks, then 64 rows each
        selection._BLOCK_ENTRIES = entries
        got = krr_predict(KernelModel(train, weights, gamma, 0.0), queries)
        sys.stdout.write(f"{n} {entries} {int((got != expected).sum())}\\n")
"""


def test_predict_blocks_match_unblocked_kernel_product():
    import os
    import subprocess
    import sys
    from pathlib import Path

    import fillgap

    # One BLAS thread: a threaded unblocked product itself moves by an ULP or
    # two between thread counts, while the blocked one does not (criterion 8).
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(fillgap.__file__).resolve().parent.parent)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    proc = subprocess.run(
        [sys.executable, "-c", _PREDICT_EXACT_SCRIPT], capture_output=True, env=env, timeout=300
    )
    assert proc.returncode == 0, proc.stderr.decode()
    lines = proc.stdout.decode().split("\n")[:-1]
    assert len(lines) == 8
    for line in lines:
        assert line.endswith(" 0"), f"rows, block entries, mismatches: {line}"


def test_selection_kernel_matches_the_public_kernels(monkeypatch):
    from scipy.spatial.distance import cdist

    from fillgap import regression, selection

    rng = np.random.default_rng(3)
    pool = rng.uniform(size=(700, 5))
    selected = rng.permutation(700)[:40]
    rows = np.setdiff1d(np.arange(700), selected[:30])
    weights = rng.normal(size=30)
    monkeypatch.setattr(selection, "_BLOCK_ENTRIES", 64 * 30)  # several 64-row blocks
    expected_dists = cdist(pool, pool[selected], "sqeuclidean")
    expected_gram = gaussian_kernel_matrix(pool[selected[:30]], 0.7)
    model = KernelModel(pool[selected[:30]], weights, gamma=0.7, lam=0.0)
    expected_pred = krr_predict(model, pool[rows])
    # A sweep's n x B column gather of its kept n x n matrix, a kept n x B
    # matrix of its own, then the blocks recomputed above the dense limit.
    for keep in (True, False):
        gathered = selection._Geometry(pool, keep).columns(selected)
        for geometry in (gathered, selection._Geometry(pool, keep, pool[selected])):
            sq_dists = geometry.sq_dists
            for block_rows in (slice(100, 300), np.arange(100, 300), rows[::7]):
                for cols in (slice(0, 30), np.arange(5, 25)):
                    expected = expected_dists[block_rows][:, cols]
                    assert np.array_equal(sq_dists(block_rows, cols), expected)
            assert np.array_equal(regression._gram(sq_dists, selected[:30], 30, 0.7), expected_gram)
            assert np.array_equal(regression._predict(sq_dists, rows, weights, 0.7), expected_pred)
            whole = regression._predict(sq_dists, slice(0, 700), weights, 0.7)
            assert np.array_equal(whole, krr_predict(model, pool))
        # The selection's own rows by slice, as gaussian_kernel_matrix reads them.
        own = selection._Geometry(pool[selected], keep)
        assert np.array_equal(regression._gram(own.sq_dists, slice(0, 30), 30, 0.7), expected_gram)


def test_kernel_matrix_that_cannot_be_allocated_raises_data_error(monkeypatch):
    empty = np.empty

    def refusing(shape, *args, **kwargs):
        if shape == (300, 300):
            raise MemoryError("Unable to allocate")
        return empty(shape, *args, **kwargs)

    monkeypatch.setattr(np, "empty", refusing)
    train = labelled(np.random.default_rng(0).uniform(size=(300, 2)), np.zeros(300))
    for build in (lambda: gaussian_kernel_matrix(train.features, 1.0), lambda: krr_fit(train, 1.0, 0.0)):
        with pytest.raises(DataError, match=r"300 x 300 float64 matrix \(0.000671 GiB\)"):
            build()


def test_model_validation():
    with pytest.raises(DataError):
        KernelModel(np.zeros((3, 2)), np.zeros(2), gamma=1.0, lam=0.0)
    with pytest.raises(DataError):
        KernelModel(np.zeros((2, 2)), np.zeros(2), gamma=-1.0, lam=0.0)


def test_shrinkage_weights_norm_non_increasing_in_lambda():
    rng = np.random.default_rng(5)
    for _ in range(5):
        train = labelled(rng.normal(size=(20, 3)), rng.normal(size=20))
        norms = [
            float(np.linalg.norm(krr_fit(train, 0.5, lam).weights))
            for lam in (0.0, 1e-6, 1e-3, 1e-1, 1.0, 10.0)
        ]
        assert all(a >= b - 1e-9 for a, b in zip(norms, norms[1:]))


# ---------------------------------------------------------------------------
# Slope bound
# ---------------------------------------------------------------------------


def test_envelope_slope_matches_numeric_maximization():
    for gamma in (0.25, 1.0, 4.0):
        r = np.linspace(0.0, 8.0 / math.sqrt(gamma), 400_001)
        numeric = float((2.0 * gamma * r * np.exp(-gamma * r * r)).max())
        assert gaussian_envelope_slope(gamma) == pytest.approx(numeric, rel=1e-9)


def test_lipschitz_bound_zero_weights():
    model = KernelModel(np.zeros((2, 2)), np.zeros(2), gamma=1.0, lam=0.0)
    assert krr_lipschitz_bound(model) == 0.0


def test_lipschitz_bound_single_weight():
    model = KernelModel(np.zeros((1, 2)), np.ones(1), gamma=1.0, lam=0.0)
    assert krr_lipschitz_bound(model) == pytest.approx(math.sqrt(2.0 / math.e), rel=1e-12)


def test_sampled_slopes_never_exceed_bound():
    rng = np.random.default_rng(11)
    train = labelled(rng.normal(size=(15, 3)), rng.normal(size=15))
    model = krr_fit(train, gamma=0.8, lam=1e-8)
    bound = krr_lipschitz_bound(model)
    u = rng.normal(size=(10_000, 3))
    v = u + rng.normal(scale=0.5, size=(10_000, 3))
    gaps = np.linalg.norm(u - v, axis=1)
    keep = gaps > 0
    slopes = np.abs(krr_predict(model, u[keep]) - krr_predict(model, v[keep])) / gaps[keep]
    assert slopes.max() <= bound * (1 + 1e-12)


# ---------------------------------------------------------------------------
# Grid search
# ---------------------------------------------------------------------------


def test_default_grid_endpoints_and_spacing():
    grid = default_grid()
    assert grid.size == 12
    assert grid[0] == pytest.approx(1e-14, rel=1e-12)
    assert grid[-1] == pytest.approx(1e-2, rel=1e-12)
    ratios = grid[1:] / grid[:-1]
    assert np.allclose(ratios, ratios[0], rtol=1e-9)


def test_grid_search_single_cell():
    rng = np.random.default_rng(2)
    pool = labelled(rng.normal(size=(40, 2)), rng.normal(size=40))
    report = grid_search_cv_report(
        pool, train_sizes=[20], gamma_grid=[0.5], lambda_grid=[1e-4], folds=4, seed=3
    )
    assert report.gamma == 0.5 and report.lam == 1e-4


def test_grid_search_recovers_generating_width():
    # Target drawn from a kernel expansion at a known width; the selected
    # width must match the winner of independent exhaustive scoring and land
    # within one grid step of the truth.
    rng = np.random.default_rng(7)
    centers = rng.uniform(-1, 1, size=(12, 2))
    coeffs = rng.normal(size=12)
    true_gamma = 2.0

    def target(X):
        d2 = ((X[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        return np.exp(-true_gamma * d2) @ coeffs

    X = rng.uniform(-1, 1, size=(120, 2))
    pool = labelled(X, target(X))
    gamma_grid = np.array([0.125, 0.5, 2.0, 8.0, 32.0])
    lambda_grid = np.array([1e-10, 1e-6])
    report = grid_search_cv_report(
        pool, train_sizes=[60], gamma_grid=gamma_grid, lambda_grid=lambda_grid, folds=5, seed=1
    )

    # independent exhaustive re-scoring of the same folds
    from fillgap.rng import child_seed, rng_from_seed

    subset = rng_from_seed(child_seed(1, "grid_search", 60, 0)).permutation(120)[:60]
    feats, ys = pool.features[subset], pool.labels[subset]
    edges = [(k * 60 // 5, (k + 1) * 60 // 5) for k in range(5)]
    best = (math.inf, None, None)
    for g in gamma_grid:
        for l in lambda_grid:
            scores = []
            for lo, hi in edges:
                mask = np.zeros(60, dtype=bool)
                mask[lo:hi] = True
                try:
                    m = krr_fit(Dataset(feats[~mask], labels=ys[~mask]), float(g), float(l))
                except IllConditionedError:
                    scores = [math.inf]
                    break
                scores.append(float(np.abs(krr_predict(m, feats[mask]) - ys[mask]).mean()))
            score = float(np.mean(scores))
            if score < best[0]:
                best = (score, float(g), float(l))
    assert report.winners[0][1] == best[1]
    assert report.winners[0][2] == best[2]
    step = math.log(4.0)  # grid spacing in log space
    assert abs(math.log(report.gamma) - math.log(true_gamma)) <= step + 1e-9


def test_grid_search_geometric_vs_arithmetic_means():
    rng = np.random.default_rng(4)
    pool = labelled(rng.normal(size=(60, 2)), rng.normal(size=60))
    report = grid_search_cv_report(
        pool,
        train_sizes=[20, 30],
        gamma_grid=[0.1, 1.0],
        lambda_grid=[1e-6, 1e-3],
        folds=4,
        seed=9,
    )
    gammas = [w[1] for w in report.winners]
    assert report.gamma == pytest.approx(float(np.exp(np.mean(np.log(gammas)))))
    assert report.gamma_arithmetic == pytest.approx(float(np.mean(gammas)))


def test_grid_search_degenerate_fold_rejected():
    rng = np.random.default_rng(2)
    pool = labelled(rng.normal(size=(40, 2)), rng.normal(size=40))
    with pytest.raises(DataError, match="fold"):
        grid_search_cv_report(pool, train_sizes=[3], gamma_grid=[1.0], lambda_grid=[1e-6], folds=5)


def test_grid_search_validation():
    rng = np.random.default_rng(2)
    pool = labelled(rng.normal(size=(30, 2)), rng.normal(size=30))
    with pytest.raises(DataError):
        grid_search_cv_report(pool, train_sizes=[10], gamma_grid=[], lambda_grid=[1.0])
    with pytest.raises(DataError):
        grid_search_cv_report(pool, train_sizes=[10], gamma_grid=[0.0, 1.0], lambda_grid=[1.0])


# ---------------------------------------------------------------------------
# Conditioning
# ---------------------------------------------------------------------------


def test_condition_number_identity():
    cond, lam_max, lam_min = condition_number(np.eye(5))
    assert cond == 1.0 and lam_max == 1.0 and lam_min == 1.0


@pytest.mark.parametrize("c", [0.0, 0.3, 0.9, 0.99])
def test_condition_number_two_by_two_closed_form(c):
    cond, _, _ = condition_number(np.array([[1.0, c], [c, 1.0]]))
    assert cond == pytest.approx((1 + c) / (1 - c), rel=1e-10)


def test_condition_number_gaussian_two_points():
    K = gaussian_kernel_matrix(np.array([[0.0], [1.0]]), 1.0)
    cond, _, _ = condition_number(K)
    e = math.exp(-1.0)
    assert cond == pytest.approx((1 + e) / (1 - e), rel=1e-12)
    assert cond == pytest.approx(2.163953413738653, rel=1e-12)


def test_condition_number_flags_singular():
    cond, lam_max, lam_min = condition_number(np.ones((3, 3)))
    assert cond is None
    assert lam_max == pytest.approx(3.0)


def test_condition_number_rejects_asymmetric():
    with pytest.raises(DataError, match="symmetric"):
        condition_number(np.array([[1.0, 0.5], [0.2, 1.0]]))


def test_regularization_never_worsens_conditioning():
    rng = np.random.default_rng(3)
    for _ in range(5):
        pool = rng.normal(size=(10, 2))
        for gamma in (1.5, 0.01):
            for lam in (0.0, 1e-14, 1e-8, 1e-3, 10.0):
                report = conditioning_report(pool, np.arange(10), gamma, lam)
                cond_u, cond_r = report.cond_unregularized, report.cond_regularized
                if lam == 0.0:
                    assert cond_r == cond_u
                if cond_u is not None:
                    assert cond_r is not None
                    assert cond_r <= cond_u * (1 + 2**-51)


def test_regularized_condition_of_a_singular_kernel():
    # Duplicate rows make K singular; K + lam * I is not.
    pool = np.array([[0.0, 0.0], [1.0, 0.5], [0.0, 0.0], [2.0, 1.0]])
    report = conditioning_report(pool, [0, 1, 2, 3], gamma=0.5, lam=1e-3)
    assert report.cond_unregularized is None
    assert report.sep_distance == 0.0
    assert math.isfinite(report.cond_regularized)
    expected = (report.lambda_max + 1e-3) / (report.lambda_min + 1e-3)
    assert report.cond_regularized == expected
    assert conditioning_report(pool, [0, 1, 2, 3], gamma=0.5, lam=0.0).cond_regularized is None


def test_conditioning_report_solves_once(monkeypatch):
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counted(matrix):
        calls.append(matrix.shape)
        return eigvalsh(matrix)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    pool = np.random.default_rng(1).normal(size=(30, 3))
    for lam in (0.0, 1e-4):
        conditioning_report(pool, [0, 5, 9, 17], gamma=0.5, lam=lam)
    assert calls == [(4, 4), (4, 4)]


def test_conditioning_report_checks_selection_before_kernel_work(monkeypatch):
    from fillgap import regression

    def no_kernel(*args, **kwargs):
        raise AssertionError("kernel built before the selection was checked")

    monkeypatch.setattr(regression, "gaussian_kernel_matrix", no_kernel)
    pool = np.random.default_rng(1).normal(size=(30, 3))
    for selected in ([0, 5, 30], [0, -1, 5]):
        with pytest.raises(DataError, match="selected index out of range"):
            conditioning_report(pool, selected, gamma=0.5, lam=1e-4)


def test_eigen_bounds_identity_case():
    K = np.eye(6)
    upper, lower = eigen_bounds(K, sep=1.0, gamma=1.0, d=2)
    assert upper == 6.0
    _, lam_max, _ = condition_number(K)
    assert lam_max <= upper


def test_eigen_bounds_upper_holds_on_random_instances():
    rng = np.random.default_rng(9)
    for _ in range(10):
        X = rng.normal(size=(8, 3))
        K = gaussian_kernel_matrix(X, 0.6)
        upper, _ = eigen_bounds(K, sep=0.1, gamma=0.6, d=3)
        _, lam_max, _ = condition_number(K)
        assert lam_max <= upper + 1e-12


def test_eigen_bounds_lower_increases_with_separation():
    # monotone regime: sep^2 * gamma < 2 * 40.71 * d, above the underflow
    # threshold where the exponential is representable at all
    seps = np.linspace(0.6, 3.0, 40)
    values = [eigen_bounds(np.eye(4), s, gamma=1.0, d=2)[1] for s in seps]
    assert all(a < b for a, b in zip(values, values[1:]))
    # far below that, the bound collapses to zero in double precision
    assert eigen_bounds(np.eye(4), 0.05, gamma=1.0, d=2)[1] == 0.0


def test_eigen_bounds_rejects_bad_sep():
    with pytest.raises(DataError):
        eigen_bounds(np.eye(3), sep=0.0, gamma=1.0, d=2)


def test_conditioning_report_fields():
    rng = np.random.default_rng(1)
    pool = rng.normal(size=(30, 3))
    report = conditioning_report(pool, [0, 5, 9, 17], gamma=0.5, lam=1e-4)
    assert isinstance(report, ConditioningReport)
    assert report.lambda_max >= report.lambda_min
    assert report.sep_distance > 0
    assert report.lower_bound_params == (3, 0.5, 1.0)
    payload = json.loads(report.to_json())
    assert list(payload) == [
        "cond_regularized", "cond_unregularized", "lambda_max", "lambda_min", "sep_distance",
        "lower_bound_params",
    ]
    assert payload["lower_bound_params"] == {"d": 3, "gamma": 0.5, "C_d": 1.0}
    for lam in (math.nan, -1e-3, math.inf):
        with pytest.raises(DataError, match="lambda must be non-negative and finite"):
            conditioning_report(pool, [0, 5, 9, 17], gamma=0.5, lam=lam)


def test_gamma_for_half_kernel():
    rng = np.random.default_rng(10)
    pool = rng.normal(size=(50, 3))
    gamma = gamma_for_half_kernel(pool)
    dists, _ = nn_distances(pool)
    median = float(np.median(dists))
    assert math.exp(-gamma * median * median) == pytest.approx(0.5, rel=1e-12)


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------


def test_model_save_load_roundtrip(tmp_path):
    rng = np.random.default_rng(6)
    train = labelled(rng.normal(size=(9, 4)), rng.normal(size=9))
    model = krr_fit(train, gamma=0.3, lam=1e-5)
    path = tmp_path / "model.krr"
    save_model(model, path)
    back = load_model(path)
    assert back.gamma == model.gamma and back.lam == model.lam
    assert np.array_equal(back.train_features, model.train_features)
    assert np.array_equal(back.weights, model.weights)


def test_model_load_rejects_corrupt_payload(tmp_path):
    path = tmp_path / "model.krr"
    path.write_bytes(b'{"gamma": 1.0, "lambda": 0.0, "b": 2, "d": 2}\n\x00\x01')
    with pytest.raises(DataError, match="payload"):
        load_model(path)


# ---------------------------------------------------------------------------
# Interpolation across random instances
# ---------------------------------------------------------------------------


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000))
def test_interpolation_on_separated_instances(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 12))
    X = rng.uniform(0, 1, size=(n, 2)) + 3.0 * np.arange(n)[:, None]  # well separated
    y = rng.normal(size=n)
    model = krr_fit(Dataset(X, labels=y), gamma=1.0, lam=0.0)
    pred = krr_predict(model, X)
    assert np.abs(pred - y).max() <= 1e-8 * max(np.abs(y).max(), 1e-30)
