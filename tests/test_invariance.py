"""Metamorphic tests: scaling the pool by a power of two.

Multiplying every coordinate by 2**k is exact in float64 while nothing
underflows or overflows, and every distance the samplers compute, squared
or not, then scales exactly by 2**k or 4**k. So every sampler must pick the
same rows, its fill and separation traces must scale by exactly 2**k, and a
sweep with gamma=auto (gamma scales by 4**-k) must record the same kernel
values and so bit-identical errors and condition numbers.

Translation is not covered: the nearest-selected walk expands squared norms
and cancels far from the origin.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fillgap import selection
from fillgap.analysis import bound_check
from fillgap.dataset import Dataset, SynthConfig, synth_lipschitz, synth_with_info
from fillgap.experiment import ExperimentConfig, ModelConfig, run_experiment
from fillgap.regression import gamma_for_half_kernel, krr_fit
from fillgap.selection import StrategySpec, select

SPECS = tuple(StrategySpec(kind=k) for k in ("fps", "random", "facility_location", "kmedoidspp")) + (
    StrategySpec(kind="fps_then_random", switch_fraction=0.3),
)

# Lattice coordinates, which give duplicate and equidistant rows, or floats
# far enough from zero that squared differences stay normal at 4**-20.
coordinates = st.one_of(
    st.integers(-8, 8).map(lambda v: v / 4.0),
    st.floats(-2.0, 2.0).filter(lambda v: v == 0.0 or abs(v) >= 2.0**-30),
)
pools = st.tuples(st.integers(1, 12), st.integers(1, 3)).flatmap(
    lambda shape: arrays(np.float64, shape, elements=coordinates)
)


def assert_scaled(base, scaled, factor):
    assert np.array_equal(scaled.indices, base.indices)
    np.testing.assert_array_equal(scaled.fill_trace, base.fill_trace * factor)
    np.testing.assert_array_equal(scaled.sep_trace, base.sep_trace * factor)


@settings(max_examples=60, deadline=None)
@given(pool=pools, k=st.integers(-20, 20), budget_fraction=st.floats(0.0, 1.0), seed=st.integers(0, 2**32))
def test_scaling_keeps_picks_and_scales_traces(pool, k, budget_fraction, seed):
    budget = max(1, math.ceil(budget_fraction * pool.shape[0]))
    for spec in SPECS:
        base = select(pool, spec, budget, seed=seed)
        assert_scaled(base, select(pool * 2.0**k, spec, budget, seed=seed), 2.0**k)


@pytest.mark.parametrize("k", [-20, -3, 20])
def test_scaling_on_a_lattice(k):
    # A 6 x 6 grid with every row twice: every distance ties with many others.
    grid = np.array([[i, j] for i in range(6) for j in range(6)], dtype=np.float64)
    pool = np.vstack([grid, grid])
    for spec in SPECS:
        for budget in (2, 9, 40):
            base = select(pool, spec, budget, seed=5)
            assert_scaled(base, select(pool * 2.0**k, spec, budget, seed=5), 2.0**k)


def _tail_sweep(pool):
    cfg = ExperimentConfig(
        strategies=SPECS,
        budgets=(0.02, 0.05, 0.1),
        metrics=("maxae", "mae", "cond_regularized", "cond_unregularized", "fill_distance", "sep_distance"),
        master_seed=11,
        repeats=2,
        synth=SynthConfig(n=4, d=2, seed=0),  # replaced by the explicit pool
        model=ModelConfig(gamma=None, lam=1e-8),
    )
    return {(r.strategy, r.budget, r.seed, r.metric): r.value for r in run_experiment(cfg, pool).rows}


@pytest.mark.parametrize("limit", [selection._DENSE_MATRIX_LIMIT, 0])
def test_scaling_a_sweep_keeps_errors_and_conditioning(monkeypatch, limit):
    # The sweep of configs/synthetic_tail.ini, reduced to 300 rows, on both
    # sides of the dense limit: shared distance blocks and recomputed ones.
    monkeypatch.setattr(selection, "_DENSE_MATRIX_LIMIT", limit)
    pool = synth_lipschitz(SynthConfig(n=300, d=8, target_lipschitz=2.0, tail_fraction=0.01, seed=4))
    base = _tail_sweep(pool)
    for k in (-20, 7, 20):
        scaled = _tail_sweep(Dataset(pool.features * 2.0**k, labels=pool.labels))
        assert scaled.keys() == base.keys()
        for key, value in base.items():
            factor = 2.0**k if key[3] in ("fill_distance", "sep_distance") else 1.0
            assert scaled[key] == value * factor or (math.isnan(value) and math.isnan(scaled[key])), key


def _bound(pool, spec, lip_target, eps):
    """gamma=auto, a fit on the spec's 40 picks and the error bound they give."""
    picks = select(pool.features, spec, 40, seed=3)
    gamma = gamma_for_half_kernel(pool.features)
    model = krr_fit(Dataset(pool.features[picks.indices], labels=pool.labels[picks.indices]), gamma, 1e-8)
    return gamma, bound_check(pool, picks, model, lip_target=lip_target, eps=eps)


@pytest.mark.parametrize("kind", ["fps", "random"])
def test_scaling_keeps_the_error_bound(kind):
    # Scaling the features by 2**k scales h by 2**k, the model and target
    # slopes by 2**-k and gamma by 4**-k, so the bound and the observed
    # maximum error are the same bits.
    pool, info = synth_with_info(SynthConfig(n=400, d=4, target_lipschitz=1.5, noise_level=0.1, seed=8))
    spec = StrategySpec(kind)
    gamma, base = _bound(pool, spec, info.lipschitz, info.noise_amplitude)
    assert base.observed_maxae <= base.bound_value
    for k in (-7, 3, 20):
        scaled_pool = Dataset(pool.features * 2.0**k, labels=pool.labels)
        scaled_gamma, scaled = _bound(scaled_pool, spec, info.lipschitz * 2.0**-k, info.noise_amplitude)
        assert scaled.bound_value == base.bound_value, k
        assert scaled.observed_maxae == base.observed_maxae, k
        assert scaled.fill_dist * 2.0**-k == base.fill_dist, k
        assert scaled_gamma * 4.0**k == gamma, k
