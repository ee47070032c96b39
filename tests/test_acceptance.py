"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
complete. Timing-sensitive criteria measure wall-clock time around the
operation under test only.
"""

import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import fillgap
from fillgap.analysis import bound_check, pairwise_distance_correlation
from fillgap.dataset import Dataset, SynthConfig, synth_with_info
from fillgap.errors import IllConditionedError
from fillgap.experiment import ExperimentConfig, ModelConfig, run_experiment
from fillgap.regression import (
    eigen_bounds,
    gamma_for_half_kernel,
    gaussian_kernel_matrix,
    condition_number,
    krr_fit,
    krr_lipschitz_bound,
    krr_predict,
)
from fillgap.selection import (
    StrategySpec,
    fps,
    kcenter_bruteforce,
    maxsep_bruteforce,
    separation_distance,
)

SRC_ROOT = Path(fillgap.__file__).resolve().parent.parent


def report(number: int, name: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number:02d} {name}: {status} ({detail})")


def small_instances(count=200):
    for seed in range(count):
        rng = np.random.default_rng(10_000 + seed)
        n = int(rng.integers(4, 13))
        d = int(rng.integers(1, 4))
        budget = 2 + seed % 3  # cycles through 2, 3, 4
        yield seed, rng.uniform(-1.0, 1.0, size=(n, d)), min(budget, n)


def test_criterion_01_fps_two_approximation():
    start = time.perf_counter()
    violations = 0
    worst_ratio = 0.0
    count = 0
    for seed, pool, budget in small_instances(200):
        result = fps(pool, budget, seed=seed)
        optimum, _ = kcenter_bruteforce(pool, budget)
        achieved = float(result.fill_trace[-1])
        if achieved > 2.0 * optimum + 1e-12:
            violations += 1
        if optimum > 0:
            worst_ratio = max(worst_ratio, achieved / optimum)
        count += 1
    elapsed = time.perf_counter() - start
    ok = violations == 0 and count >= 200 and elapsed < 10.0
    report(
        1,
        "fps-2-approximation",
        ok,
        f"{count} instances, 0 violations expected, got {violations}; "
        f"worst ratio {worst_ratio:.3f}; {elapsed:.2f}s",
    )
    assert violations == 0
    assert count >= 200
    assert elapsed < 10.0


def test_criterion_02_fps_separation_half_approximation():
    violations = 0
    worst_ratio = math.inf
    count = 0
    for seed, pool, budget in small_instances(200):
        result = fps(pool, budget, seed=seed)
        optimum, _ = maxsep_bruteforce(pool, budget)
        achieved = separation_distance(pool, result.indices)
        if achieved < 0.5 * optimum - 1e-12:
            violations += 1
        if optimum > 0:
            worst_ratio = min(worst_ratio, achieved / optimum)
        count += 1
    ok = violations == 0 and count >= 200
    report(
        2,
        "fps-separation-half-approximation",
        ok,
        f"{count} instances, {violations} violations; worst ratio {worst_ratio:.3f}",
    )
    assert violations == 0
    assert count >= 200


def test_criterion_03_bound_dominates_observed_maxae():
    start = time.perf_counter()
    slacks = []
    runs = 0
    for i in range(20):
        d = (2, 8)[i % 2]
        noise = (0.0, 0.1)[(i // 2) % 2]
        cfg = SynthConfig(
            n=500, d=d, target_lipschitz=2.0, noise_level=noise, tail_fraction=0.0,
            seed=40_000 + i,
        )
        ds, info = synth_with_info(cfg)
        gamma = gamma_for_half_kernel(ds.features)
        for frac in (0.02, 0.05, 0.10):
            budget = round(frac * cfg.n)
            selection = fps(ds.features, budget, seed=50_000 + i * 7 + budget)
            train = Dataset(
                ds.features[selection.indices], labels=ds.labels[selection.indices]
            )
            model = krr_fit(train, gamma, 0.0)
            result = bound_check(
                ds, selection, model, lip_target=info.lipschitz, eps=cfg.noise_level
            )
            slacks.append(result.slack)
            runs += 1
    elapsed = time.perf_counter() - start
    min_slack = min(slacks)
    ok = min_slack >= 0.0 and runs == 60 and elapsed < 60.0
    report(
        3,
        "error-bound-dominates-maxae",
        ok,
        f"{runs} runs, min slack {min_slack:.3f}, median slack "
        f"{sorted(slacks)[len(slacks) // 2]:.3f}; {elapsed:.2f}s",
    )
    assert min_slack >= 0.0
    assert runs == 60
    assert elapsed < 60.0


def _tail_experiment(metrics, budgets, lam):
    return ExperimentConfig(
        strategies=(
            StrategySpec(kind="fps"),
            StrategySpec(kind="random"),
            StrategySpec(kind="facility_location"),
            StrategySpec(kind="kmedoidspp"),
        ),
        budgets=budgets,
        metrics=metrics,
        master_seed=777,
        repeats=5,
        synth=SynthConfig(
            n=2000, d=8, target_lipschitz=2.0, noise_level=0.0, tail_fraction=0.01,
            seed=31_337,
        ),
        model=ModelConfig(gamma=None, lam=lam),
    )


def test_criterion_04_fps_reduces_maxae_not_mae():
    start = time.perf_counter()
    cfg = _tail_experiment(("maxae", "mae"), (0.02,), lam=1e-8)
    result = run_experiment(cfg)
    means = {
        (a.strategy, a.metric): a.mean for a in result.aggregates if a.budget == 0.02
    }
    fps_maxae = means[("fps", "maxae")]
    baselines = {
        name: means[(name, "maxae")]
        for name in ("random", "facility_location", "kmedoidspp")
    }
    mae_ratio = means[("fps", "mae")] / means[("random", "mae")]
    elapsed = time.perf_counter() - start
    maxae_ok = all(fps_maxae < v for v in baselines.values())
    mae_ok = abs(mae_ratio - 1.0) <= 0.25
    ok = maxae_ok and mae_ok and elapsed < 120.0
    report(
        4,
        "fps-maxae-advantage-mae-parity",
        ok,
        f"maxae fps {fps_maxae:.3f} vs " +
        ", ".join(f"{k} {v:.3f}" for k, v in baselines.items()) +
        f"; mae ratio {mae_ratio:.3f}; {elapsed:.1f}s",
    )
    assert maxae_ok
    assert mae_ok
    assert elapsed < 120.0


def test_criterion_05_fps_improves_conditioning():
    cfg = _tail_experiment(("cond_unregularized",), (0.02, 0.05), lam=0.0)
    cfg = ExperimentConfig(
        strategies=(StrategySpec(kind="fps"), StrategySpec(kind="random")),
        budgets=cfg.budgets,
        metrics=cfg.metrics,
        master_seed=cfg.master_seed,
        repeats=cfg.repeats,
        synth=cfg.synth,
        model=cfg.model,
    )
    result = run_experiment(cfg)
    means = {(a.strategy, a.budget): a.mean for a in result.aggregates}
    ok = all(
        means[("fps", budget)] < means[("random", budget)] for budget in (0.02, 0.05)
    )
    detail = "; ".join(
        f"budget {budget:g}: fps {means[('fps', budget)]:.2f} vs "
        f"random {means[('random', budget)]:.2f}"
        for budget in (0.02, 0.05)
    )
    report(5, "fps-lower-condition-number", ok, detail)
    assert ok


def test_criterion_06_interpolation_residuals():
    worst = 0.0
    for seed in range(100):
        rng = np.random.default_rng(60_000 + seed)
        n = int(rng.integers(3, 25))
        d = int(rng.integers(1, 5))
        X = rng.uniform(size=(n, d)) + 3.0 * np.arange(n)[:, None]
        y = rng.normal(size=n)
        model = krr_fit(Dataset(X, labels=y), gamma=1.0, lam=0.0)
        residual = np.abs(krr_predict(model, X) - y).max() / max(np.abs(y).max(), 1e-300)
        worst = max(worst, float(residual))
    ok = worst <= 1e-8
    report(6, "krr-interpolation", ok, f"100 instances, worst relative residual {worst:.2e}")
    assert worst <= 1e-8


def test_criterion_07_model_slope_and_eigenvalue_bounds():
    slope_violations = 0
    eigen_violations = 0
    worst_margin = math.inf
    for seed in range(20):
        rng = np.random.default_rng(70_000 + seed)
        n = int(rng.integers(8, 30))
        d = int(rng.integers(2, 5))
        gamma = float(np.exp(rng.normal()))
        X = rng.normal(size=(n, d))
        y = rng.normal(size=n)
        model = krr_fit(Dataset(X, labels=y), gamma, 1e-8)
        bound = krr_lipschitz_bound(model)
        u = rng.normal(size=(10_000, d))
        v = u + rng.normal(scale=0.3, size=(10_000, d))
        gaps = np.linalg.norm(u - v, axis=1)
        keep = gaps > 0
        slopes = np.abs(krr_predict(model, u[keep]) - krr_predict(model, v[keep]))
        slopes /= gaps[keep]
        if slopes.max() > bound:
            slope_violations += 1
        worst_margin = min(worst_margin, bound - float(slopes.max()))
        K = gaussian_kernel_matrix(X, gamma)
        upper, _ = eigen_bounds(K, sep=separation_distance(X, range(n)) or 1e-3,
                                gamma=gamma, d=d)
        _, lam_max, _ = condition_number(K)
        if lam_max > upper + 1e-9:
            eigen_violations += 1
    ok = slope_violations == 0 and eigen_violations == 0
    report(
        7,
        "model-slope-and-eigenvalue-bounds",
        ok,
        f"20 models: {slope_violations} slope violations, "
        f"{eigen_violations} eigenvalue violations, smallest slope margin {worst_margin:.3e}",
    )
    assert slope_violations == 0
    assert eigen_violations == 0


_DETERMINISM_SCRIPT = """
import sys
import numpy as np
from fillgap.dataset import SynthConfig, synth_lipschitz
from fillgap.experiment import (ExperimentConfig, ModelConfig, run_experiment,
                                rows_csv, aggregates_csv)
from fillgap.regression import KernelModel, krr_predict
from fillgap.selection import (StrategySpec, fps, random_select,
                               facility_location, kmedoidspp, fps_then_random,
                               nn_distances)

pool = synth_lipschitz(SynthConfig(n=150, d=4, target_lipschitz=1.5,
                                   noise_level=0.05, seed=9)).features
for result in (
    fps(pool, 12, seed=3),
    random_select(pool, 12, seed=3),
    facility_location(pool, 12, seed=3),
    kmedoidspp(pool, 12, seed=3),
    fps_then_random(pool, 12, 0.05, seed=3),
):
    sys.stdout.write(result.to_json() + "\\n")

# Many GEMM tiles of nearest-neighbour scores, at every thread count.
wide = synth_lipschitz(SynthConfig(n=3000, d=16, target_lipschitz=2.0,
                                   tail_fraction=0.01, seed=9)).features
sys.stdout.write(nn_distances(wide)[0].tobytes().hex() + "\\n")

# Many row blocks of kernel predictions, the last one ragged.
rng = np.random.default_rng(9)
queries = rng.uniform(size=(19003, 16))
model = KernelModel(queries[:1000], rng.normal(size=1000), gamma=0.5, lam=0.0)
sys.stdout.write(krr_predict(model, queries).tobytes().hex() + "\\n")

cfg = ExperimentConfig(
    strategies=(StrategySpec(kind="fps"), StrategySpec(kind="random")),
    budgets=(0.1, 0.2),
    metrics=("maxae", "mae", "fill_distance"),
    master_seed=11,
    repeats=2,
    synth=SynthConfig(n=120, d=3, target_lipschitz=1.5, noise_level=0.05, seed=4),
    model=ModelConfig(gamma=None, lam=1e-8),
)
report = run_experiment(cfg)
sys.stdout.write(rows_csv(report))
sys.stdout.write(aggregates_csv(report))
"""


def test_criterion_08_thread_count_determinism():
    outputs = {}
    for threads in (1, 4, 8):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC_ROOT) + os.pathsep + env.get("PYTHONPATH", "")
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            env[var] = str(threads)
        proc = subprocess.run(
            [sys.executable, "-c", _DETERMINISM_SCRIPT],
            capture_output=True,
            env=env,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr.decode()
        outputs[threads] = proc.stdout
    ok = outputs[1] == outputs[4] == outputs[8]
    report(
        8,
        "thread-count-determinism",
        ok,
        f"5 samplers + nn_distances + krr_predict on 19003 rows + experiment CSVs "
        f"byte-compared across threads {{1,4,8}}; {len(outputs[1])} bytes each",
    )
    assert ok


_PERF_SCRIPT = """
import json, time
import numpy as np
from fillgap.selection import fps

rng = np.random.default_rng(0)
pool = rng.random((100_000, 64))
fps(pool, 4, seed=1)  # warm the code paths
start = time.perf_counter()
result = fps(pool, 1000, seed=1)
elapsed = time.perf_counter() - start
print(json.dumps({"seconds": elapsed, "checksum": int(result.indices.sum())}))
"""


def test_criterion_09_desk_scale_performance_and_memory():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC_ROOT) + os.pathsep + env.get("PYTHONPATH", "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    proc = subprocess.run(
        [sys.executable, "-c", _PERF_SCRIPT], capture_output=True, env=env, timeout=300
    )
    assert proc.returncode == 0, proc.stderr.decode()
    timing = json.loads(proc.stdout)

    # memory: everything fps allocates beyond the pool must stay O(n)
    rng = np.random.default_rng(0)
    pool = rng.random((100_000, 64))
    fps(pool, 4, seed=1)
    tracemalloc.start()
    fps(pool, 1000, seed=1)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    n = pool.shape[0]
    memory_budget = 64 * n + 8 * 2**20  # a handful of length-n arrays plus slack
    ok = timing["seconds"] < 5.0 and peak < memory_budget
    report(
        9,
        "desk-scale-fps",
        ok,
        f"1000 of 100k at d=64 in {timing['seconds']:.2f}s single-threaded; "
        f"peak extra memory {peak / 2**20:.1f} MiB (pool is 48.8 MiB)",
    )
    assert timing["seconds"] < 5.0
    assert peak < memory_budget


def test_criterion_10_correlation_constructions():
    # exact linear construction: both coefficients are exactly one
    x = np.array([0.0, 1.0, 3.0, 7.0, 15.0, 31.0, 63.0, 127.0, 255.0])[:, None]
    linear = pairwise_distance_correlation(x, 2.0 * x[:, 0] + 3.0, max_pairs=10**6)
    linear_ok = (
        abs(linear.pearson - 1.0) <= 1e-12 and abs(linear.spearman - 1.0) <= 1e-12
    )

    # monotone nonlinear construction: rank-perfect, linearly imperfect
    xm = np.array([0.0, 1.0, 3.0, 7.0])[:, None]
    mono = pairwise_distance_correlation(xm, xm[:, 0] ** 2, max_pairs=10**6)
    mono_ok = abs(mono.spearman - 1.0) <= 1e-12 and mono.pearson < 1.0

    # subsampling with full coverage equals the exact computation bit for bit
    rng = np.random.default_rng(123)
    X = rng.normal(size=(200, 3))
    y = X[:, 0] + 0.3 * rng.normal(size=200)
    total = 200 * 199 // 2
    exact = pairwise_distance_correlation(X, y, max_pairs=10**9)
    covered = pairwise_distance_correlation(X, y, max_pairs=total, seed=5)
    coverage_ok = (
        exact.pearson == covered.pearson
        and exact.spearman == covered.spearman
        and not covered.subsampled
    )
    ok = linear_ok and mono_ok and coverage_ok
    report(
        10,
        "correlation-constructions",
        ok,
        f"linear ({linear.pearson:.15f}, {linear.spearman:.15f}); "
        f"monotone ({mono.pearson:.4f}, {mono.spearman:.15f}); "
        f"full-coverage equality {coverage_ok}",
    )
    assert linear_ok
    assert mono_ok
    assert coverage_ok
