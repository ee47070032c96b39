import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fillgap.dataset import Dataset, SynthConfig, synth_lipschitz
from fillgap.errors import DataError, IllConditionedError
from fillgap.regression import (
    ConditioningReport,
    _cv_scores,
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


LABELLED3 = Dataset(np.arange(6.0).reshape(3, 2), np.arange(3.0))


@pytest.mark.parametrize(
    "call,message",
    [
        (lambda: krr_fit(LABELLED3, 1.0, True), "lambda must be a real number, got True"),
        (lambda: krr_fit(LABELLED3, 1.0, None), "lambda must be a real number, got None"),
        (lambda: krr_fit(LABELLED3, 1.0, -1e-3), "lambda must be non-negative and finite, got -0.001"),
        (lambda: krr_fit(LABELLED3, "1", 0.0), "gamma must be a real number, got '1'"),
        (lambda: gaussian_kernel_matrix(LABELLED3.features, "1"), "gamma must be a real number, got '1'"),
        (lambda: gaussian_kernel_matrix(LABELLED3.features, True), "gamma must be a real number, got True"),
        (lambda: gaussian_kernel_matrix(LABELLED3.features, math.nan), "gamma must be positive and finite, got nan"),
        (lambda: gaussian_kernel_matrix([[1.0], ["x"]], 1.0), "X must be an array of real numbers, got <U32 values"),
        (lambda: gaussian_envelope_slope(True), "gamma must be a real number, got True"),
        (lambda: KernelModel(np.zeros((1, 1)), [1.0], gamma=1.0, lam=True), "lambda must be a real number, got True"),
        (lambda: KernelModel([[1 + 2j]], [1.0], gamma=1.0, lam=0.0), "train_features must be an array of real numbers, got complex128 values"),
        (lambda: KernelModel(np.zeros((1, 1)), [math.nan], gamma=1.0, lam=0.0), "weights must have finite entries, got NaN or Inf"),
        (lambda: krr_predict(KernelModel(np.zeros((1, 1)), [1.0], 1.0, 0.0), [["a"]]), "X must be an array of real numbers, got <U1 values"),
        (lambda: eigen_bounds(np.eye(2), sep=True, gamma=1.0, d=1), "sep must be a real number, got True"),
        (lambda: eigen_bounds(np.eye(2), sep=0.0, gamma=1.0, d=1), "sep must be positive and finite, got 0.0"),
        (lambda: eigen_bounds(np.eye(2), sep=1.0, gamma=1.0, d=1, c_d="1"), "C_d must be a real number, got '1'"),
    ],
)
def test_real_parameters_and_arrays_are_checked_by_name(call, message):
    # Unchecked, lam=True fitted with lambda 1.0, lam=None and gamma="1" raised
    # a bare TypeError, and the imaginary part of 1+2j was dropped.
    with pytest.raises(DataError, match="^" + re.escape(message) + "$"):
        call()


def test_kernel_off_diagonal_value():
    K = gaussian_kernel_matrix(np.array([[0.0], [1.0]]), 1.0)
    assert K[0, 1] == pytest.approx(math.exp(-1.0), rel=1e-15)


def test_kernel_rejects_bad_inputs():
    with pytest.raises(DataError):
        gaussian_kernel_matrix(np.array([[np.inf]]), 1.0)
    with pytest.raises(DataError):
        gaussian_kernel_matrix(np.ones((2, 2)), 0.0)
    with pytest.raises(DataError, match=r"X must be a 2-D array, got shape \(3,\)"):
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
    with pytest.raises(DataError, match="X must have finite entries, got NaN or Inf"):
        krr_predict(model, queries)


def test_predict_memory_stays_within_blocks():
    import tracemalloc

    from fillgap import selection

    d, b = 16, 1000
    for n in (5000, 20000):
        rng = np.random.default_rng(0)
        queries = rng.uniform(size=(n, d))
        model = KernelModel(queries[:b], rng.normal(size=b), gamma=2.0, lam=0.0)
        tracemalloc.start()
        try:
            krr_predict(model, queries)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # The output plus two kernel blocks (2.0 MB, under 3 MiB); the whole
        # n x b kernel matrix would take 160 MB at n=20000, and cdist, scaling
        # and exp held two of them at once.
        assert peak < 8 * n + 2 * 8 * selection._BLOCK_ENTRIES, n


def test_sweep_gram_and_fit_memory_is_one_gram_matrix():
    import tracemalloc

    from fillgap import selection
    from fillgap.regression import _gram, _solve
    from fillgap.selection import _Geometry

    # A sweep cell builds its Gram matrix from the n x B squared distances
    # its selection run keeps (here B = b + 100: a run that also serves a
    # larger budget), then solves in place; both are built first.
    n = 2000
    pool = np.random.default_rng(0).uniform(size=(n, 8))
    labels = np.sin(3.0 * pool).sum(axis=1)
    geometry = _Geometry(pool)
    for b in (400, 800):
        idx = np.random.default_rng(1).choice(n, size=b + 100, replace=False)
        sq_dists = geometry.columns(idx).sq_dists
        y = labels[idx[:b]]
        tracemalloc.start()
        try:
            _solve(_gram(sq_dists, idx[:b], b, 2.0), y, 1e-6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # K, one block of at most 1 MiB (the gathered squared distances while
        # K is built, a strip of K's lower triangle while the solve copies it
        # back) and sixteen b-vectors (the saved diagonals, the weights, the
        # residual and their temporaries). A second b x b matrix would add
        # 1.3 MB at b=400 and 5.1 MB at b=800.
        assert peak < 8 * b * b + 8 * selection._BLOCK_ENTRIES + 16 * 8 * b, b


def test_fit_memory_is_one_gram_matrix():
    import tracemalloc

    from fillgap import selection

    for b in (500, 1000):
        train = labelled(*_smooth_rows(b, 16))
        tracemalloc.start()
        try:
            krr_fit(train, gamma=2.0, lam=1e-8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # K, factored in place, one strip of K's lower triangle and
        # sixteen b-vectors; the Fortran copy of K that cho_factor made
        # before the solve factored in place took 8 MB more at b=1000.
        assert peak < 8 * b * b + 8 * selection._BLOCK_ENTRIES + 16 * 8 * b, b


def _smooth_rows(b: int, d: int) -> tuple[np.ndarray, np.ndarray]:
    """b uniform rows in [0, 1]^d and a smooth label of each."""
    X = np.random.default_rng(b).uniform(size=(b, d))
    return X, np.sin(3.0 * X).sum(axis=1)


@pytest.mark.parametrize(
    "gamma,lam,match",
    [
        (0.5, 1e-8, None),
        (0.05, 0.0, "not numerically positive definite"),
        (0.05, 1e-12, "solve residual"),
    ],
    ids=["solved", "factor-fails", "residual-fails"],
)
def test_solve_leaves_the_gram_matrix_bitwise_unchanged(gamma, lam, match):
    from scipy.linalg import cho_factor, cho_solve

    from fillgap.regression import _solve

    # 300 rows: three blocks of the copy back over the factor.
    X, y = _smooth_rows(300, 2)
    K = gaussian_kernel_matrix(X, gamma)
    before = K.copy()
    if match is None:
        weights = _solve(K, y, lam)
        # The weights of a Cholesky solve on a shifted copy.
        shifted = before.copy()
        shifted.flat[:: shifted.shape[0] + 1] += lam
        expected = cho_solve(cho_factor(shifted, lower=True), y)
        assert weights.tobytes() == expected.tobytes()
    else:
        with pytest.raises(IllConditionedError, match=match):
            _solve(K, y, lam)
    assert K.tobytes() == before.tobytes()


@pytest.mark.parametrize("b", [5, 64, 128, 300, 1000])
def test_eigenvalues_match_numpy_eigvalsh_bit_for_bit(b):
    from fillgap.regression import _eigenvalues

    X, _ = _smooth_rows(b, 4)
    K = gaussian_kernel_matrix(X, 3.0)
    expected = [float(v).hex() for v in np.linalg.eigvalsh(K)]
    assert [float(v).hex() for v in _eigenvalues(K.copy())] == expected
    # condition_number eigen-solves a copy, reading K's lower triangle as
    # eigvalsh does, also when K is symmetric only within tolerance.
    K[np.triu_indices(b, 1)] *= 1 + 2**-50
    before = K.copy()
    _, lam_max, lam_min = condition_number(K)
    expected = np.linalg.eigvalsh(K)
    assert (lam_max.hex(), lam_min.hex()) == (float(expected[-1]).hex(), float(expected[0]).hex())
    assert K.tobytes() == before.tobytes()


def test_conditioning_report_memory_stays_within_blocks():
    import tracemalloc

    from fillgap import selection

    d, b = 16, 500
    for n in (5000, 20000):
        pool = np.random.default_rng(0).uniform(size=(n, d))
        selected = np.random.default_rng(1).choice(n, size=b, replace=False)
        tracemalloc.start()
        try:
            conditioning_report(pool, selected, gamma=2.0, lam=1e-6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # One b x b array, K, which the eigen-solve overwrites, and the larger
        # of the eigen-solve's workspace and the separation walk's block over
        # the b selected rows: no per-row array of the float64 pool, the same
        # bound at both sizes, where the n x b kernel would take 80 MB at
        # n=20000. An eigen-solve of a copy would add 2 MB.
        assert peak < 8 * b * b + 8 * selection._BLOCK_ENTRIES, n


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
    for shape in ((0, 2), (2, 0)):
        with pytest.raises(DataError, match="at least one training row and column"):
            KernelModel(np.zeros(shape), np.zeros(shape[0]), gamma=1.0, lam=0.0)
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


def _reference_cv_scores(feats, ys, gamma_grid, lambda_grid, folds):
    """Mean absolute CV error of each (gamma, lambda) pair over contiguous
    folds, fitted and predicted through the public krr_fit and krr_predict;
    inf for a pair from its first failing fit on."""
    size = ys.size
    edges = [(k * size // folds, (k + 1) * size // folds) for k in range(folds)]
    out = np.empty((len(gamma_grid), len(lambda_grid)))
    for i, g in enumerate(gamma_grid):
        for j, l in enumerate(lambda_grid):
            scores = []
            for lo, hi in edges:
                mask = np.zeros(size, dtype=bool)
                mask[lo:hi] = True
                try:
                    m = krr_fit(Dataset(feats[~mask], labels=ys[~mask]), float(g), float(l))
                except IllConditionedError:
                    scores = [math.inf]
                    break
                scores.append(float(np.abs(krr_predict(m, feats[mask]) - ys[mask]).mean()))
            out[i, j] = float(np.mean(scores))
    return out


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
    reference = _reference_cv_scores(feats, ys, gamma_grid, lambda_grid, 5)
    # The scorer gives the public fit loop's scores bit for bit; here the
    # (0.125, 1e-10) pair fails, so that includes an inf.
    scores = _cv_scores(feats, ys, gamma_grid, lambda_grid, 5)
    assert np.isinf(reference).any()
    assert scores.tobytes() == reference.tobytes()
    best = (math.inf, None, None)
    for i, g in enumerate(gamma_grid):
        for j, l in enumerate(lambda_grid):
            if reference[i, j] < best[0]:
                best = (reference[i, j], float(g), float(l))
    assert report.winners[0][1] == best[1]
    assert report.winners[0][2] == best[2]
    step = math.log(4.0)  # grid spacing in log space
    assert abs(math.log(report.gamma) - math.log(true_gamma)) <= step + 1e-9


def test_grid_search_reads_one_distance_block_per_fold(monkeypatch):
    # One subset: each fold computes one cdist block, from every subset row to
    # the fold's training rows, which all (gamma, lambda) pairs read; no fit or
    # prediction goes through the public model API.
    from fillgap import regression, selection

    cdist_calls = []
    cdist = selection.cdist

    def counting_cdist(a, b, metric="euclidean", **kwargs):
        cdist_calls.append((metric, len(a), len(b)))
        return cdist(a, b, metric, **kwargs)

    def refuse(*args, **kwargs):
        raise AssertionError("grid search went through the public model API")

    monkeypatch.setattr(selection, "cdist", counting_cdist)
    for name in ("krr_fit", "krr_predict", "Dataset", "KernelModel"):
        monkeypatch.setattr(regression, name, refuse)
    rng = np.random.default_rng(2)
    pool = labelled(rng.normal(size=(40, 2)), rng.normal(size=40))
    size, folds = 22, 4
    grid_search_cv_report(
        pool, [size], gamma_grid=[0.1, 1.0, 10.0], lambda_grid=[1e-8, 1e-4], folds=folds, seed=3
    )
    held = [(k + 1) * size // folds - k * size // folds for k in range(folds)]
    assert cdist_calls == [("sqeuclidean", size, size - h) for h in held]


def test_grid_search_pairs_failing_on_a_later_fold_score_inf_and_never_win():
    # Rows 0-3 are one point, so at lambda 1e-18 a fit on rows 0-5 is singular
    # and one on rows 6-11 is not: the first pair in grid order fits its first
    # fold, fails on its second, scores inf as the public fit loop does, and
    # loses. Drawn in any order, 4 copies in two folds of 6 always fail a fit.
    rng = np.random.default_rng(5)
    X = rng.uniform(-1, 1, size=(12, 2))
    X[1:4] = X[0]
    y = np.sin(X).sum(axis=1)
    gamma_grid, lambda_grid = np.array([0.5, 2.0]), np.array([1e-18, 1e-3])
    krr_fit(labelled(X[6:], y[6:]), 0.5, 1e-18)
    with pytest.raises(IllConditionedError):
        krr_fit(labelled(X[:6], y[:6]), 0.5, 1e-18)
    scores = _cv_scores(X, y, gamma_grid, lambda_grid, 2)
    assert scores.tobytes() == _reference_cv_scores(X, y, gamma_grid, lambda_grid, 2).tobytes()
    assert np.isinf(scores[:, 0]).all() and np.isfinite(scores[:, 1]).all()
    report = grid_search_cv_report(labelled(X, y), [12], gamma_grid, lambda_grid, folds=2, seed=1)
    assert [w[2] for w in report.winners] == [1e-3]


def test_grid_search_where_every_pair_fails_raises():
    # Equal rows give an all-ones kernel, which a lambda below half an ULP of
    # 1 leaves singular: every pair fails on its first fold.
    pool = labelled(np.ones((12, 2)), np.arange(12.0))
    with pytest.raises(IllConditionedError, match="every grid pair failed to fit at train size 12"):
        grid_search_cv_report(pool, [12], gamma_grid=[0.5, 2.0], lambda_grid=[1e-18, 1e-17], folds=3)


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
    for gamma_grid in (0.5, [[0.5, 1.0]]):
        with pytest.raises(DataError, match="1-D"):
            grid_search_cv_report(pool, train_sizes=[10], gamma_grid=gamma_grid, lambda_grid=[1.0])
    with pytest.raises(DataError):
        grid_search_cv_report(pool, train_sizes=[10], gamma_grid=[0.0, 1.0], lambda_grid=[1.0])
    for gamma_grid, lambda_grid in (([math.inf], [1.0]), ([math.nan], [1.0]), ([1.0], [math.nan])):
        with pytest.raises(DataError, match="finite"):
            grid_search_cv_report(pool, [10], gamma_grid=gamma_grid, lambda_grid=lambda_grid)
    with pytest.raises(DataError, match="integral"):  # not truncated to 12 rows
        grid_search_cv_report(pool, train_sizes=[12.5], gamma_grid=[1.0], lambda_grid=[1.0])


@pytest.mark.parametrize(
    "counts,message",
    [
        (dict(folds=2.5), "folds must be integral, got 2.5"),
        (dict(folds=True), "folds must be integral, got True"),
        (dict(folds=1), "folds must be >= 2, got 1"),
        (dict(repeats=2.5), "repeats must be integral, got 2.5"),
        (dict(repeats=0), "repeats must be >= 1, got 0"),
        (dict(train_sizes=[31]), r"train size 31 out of range \[2, 30\]"),
        (dict(train_sizes=10), "^train_sizes must be a sequence, got 10$"),
        (dict(train_sizes="10"), "^train_sizes must be a sequence, got '10'$"),
        (dict(train_sizes=[]), "^train_sizes must be non-empty$"),
        (dict(train_sizes=["a"]), "^train size must be a real number, got 'a'$"),
        (dict(train_sizes=[None]), "^train size must be a real number, got None$"),
    ],
)
def test_grid_search_counts_must_be_integral(counts, message):
    rng = np.random.default_rng(2)
    pool = labelled(rng.normal(size=(30, 2)), rng.normal(size=30))
    args = {"train_sizes": [10], "gamma_grid": [1.0], "lambda_grid": [1e-6], **counts}
    with pytest.raises(DataError, match=message):
        grid_search_cv_report(pool, **args)


def test_grid_search_takes_integral_counts_of_any_numeric_type():
    rng = np.random.default_rng(2)
    pool = labelled(rng.normal(size=(30, 2)), rng.normal(size=30))
    reports = [
        grid_search_cv_report(pool, [size], [0.5, 1.0], [1e-6, 1e-3], folds=folds, repeats=repeats, seed=seed)
        for size, folds, repeats, seed in ((12, 3, 2, 5), (12.0, 3.0, 2.0, 5.0), (np.int64(12), np.int8(3), np.uint8(2), np.int64(5)))
    ]
    assert reports[0] == reports[1] == reports[2]


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


@pytest.mark.parametrize(
    "K, match",
    [
        (np.zeros((0, 0)), "non-empty"),
        ([[math.nan]], "NaN"),
        ([[1.0, math.inf], [math.inf, 1.0]], "NaN"),
        ([["a"]], r"^K must be an array of real numbers, got <U1 values$"),
        ([[1.0, 0.0], [0.0]], r"^K must be an array of real numbers, got a ragged sequence$"),
        (np.ones(3), r"^K must be a 2-D array, got shape \(3,\)$"),
    ],
)
def test_condition_number_rejects_empty_and_non_finite(K, match):
    with pytest.raises(DataError, match=match):
        condition_number(K)


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
    from fillgap import regression

    calls = []
    eigenvalues = regression._eigenvalues

    def counted(matrix):
        calls.append(matrix.shape)
        return eigenvalues(matrix)

    monkeypatch.setattr(regression, "_eigenvalues", counted)
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
    # A bound below the smallest float64 is 0.0, even where sep**-d or
    # sep * sep alone would overflow or underflow.
    for sep, gamma, d in ((1e-160, 1.0, 2), (1e-200, 1.0, 2), (1.0, 1e-300, 200)):
        assert eigen_bounds(np.eye(3), sep=sep, gamma=gamma, d=d) == (3.0, 0.0)
    with pytest.raises(DataError, match="not a finite float64"):
        eigen_bounds(np.eye(3), sep=1.0, gamma=1e-300, d=10**306)
    with pytest.raises(DataError, match="non-empty"):
        eigen_bounds(np.zeros((0, 0)), 0.1, 1.0, 2)
    with pytest.raises(DataError, match="NaN"):
        eigen_bounds([[math.nan]], 0.1, 1.0, 2)


def test_eigen_bounds_dimension_is_an_integral_count():
    for d in (2.5, True, math.nan, 0):
        with pytest.raises(DataError, match=r"^d "):
            eigen_bounds(np.eye(3), sep=1.0, gamma=1.0, d=d)
    assert eigen_bounds(np.eye(3), 1.0, 1.0, d=2.0) == eigen_bounds(np.eye(3), 1.0, 1.0, d=np.int64(2))


def test_conditioning_report_rejects_fractional_indices():
    pool = np.random.default_rng(1).normal(size=(30, 3))
    with pytest.raises(DataError, match="integral"):  # a cast would read rows 0 and 1
        conditioning_report(pool, [0.5, 1.7], gamma=0.5, lam=1e-4)
    floats = conditioning_report(pool, [0.0, 5.0, 9.0], gamma=0.5, lam=1e-4)
    assert floats == conditioning_report(pool, np.array([0, 5, 9], np.uint16), gamma=0.5, lam=1e-4)


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
    # Unchecked, C_d = NaN was written as a bare NaN token and C_d = -1 reported.
    for c_d in (math.nan, -1.0, 0.0, math.inf):
        with pytest.raises(DataError, match=r"^C_d must be positive and finite, got"):
            conditioning_report(pool, [0, 5, 9, 17], gamma=0.5, lam=1e-4, c_d=c_d)
    with pytest.raises(DataError, match=r"^C_d must be a real number, got True$"):
        conditioning_report(pool, [0, 5, 9, 17], gamma=0.5, lam=1e-4, c_d=True)


def test_gamma_for_half_kernel():
    rng = np.random.default_rng(10)
    pool = rng.normal(size=(50, 3))
    gamma = gamma_for_half_kernel(pool)
    dists, _ = nn_distances(pool)
    median = float(np.median(dists))
    assert math.exp(-gamma * median * median) == pytest.approx(0.5, rel=1e-12)


def test_gamma_for_half_kernel_names_underflow():
    # Every squared distance underflows to zero, though no two rows are equal.
    tiny = np.random.default_rng(0).uniform(size=(50, 3)) * 1e-200
    assert np.unique(tiny, axis=0).shape[0] == 50
    with pytest.raises(DataError, match="zero.*underflow"):
        gamma_for_half_kernel(tiny)


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
