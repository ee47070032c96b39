import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fillgap.dataset import SynthConfig, synth_lipschitz
from fillgap.errors import DataError
from fillgap.selection import (
    SelectionResult,
    StrategySpec,
    facility_location,
    fill_distance,
    fps,
    fps_then_random,
    kcenter_bruteforce,
    kmedoidspp,
    maxsep_bruteforce,
    nn_distances,
    random_select,
    select,
    selection_traces,
    separation_distance,
)

LINE5 = np.arange(5.0)[:, None]
TAIL_TIE_SEED = 9012901901826290948
LINE6 = np.array([0.0, 1.0, 2.0, 3.0, 4.0, 10.0])[:, None]

ALL_SAMPLERS = [
    ("fps", lambda pool, b, seed: fps(pool, b, seed=seed)),
    ("random", lambda pool, b, seed: random_select(pool, b, seed=seed)),
    ("facility_location", lambda pool, b, seed: facility_location(pool, b, seed=seed)),
    ("kmedoidspp", lambda pool, b, seed: kmedoidspp(pool, b, seed=seed)),
    ("fps_then_random", lambda pool, b, seed: fps_then_random(pool, b, 0.3, seed=seed)),
]


def random_instance(seed, n_max=12, d_max=3):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, n_max + 1))
    d = int(rng.integers(1, d_max + 1))
    return rng.uniform(-1, 1, size=(n, d))


# ---------------------------------------------------------------------------
# Geometric quantities
# ---------------------------------------------------------------------------


def test_fill_distance_line_examples():
    assert fill_distance(LINE5, [0]) == 4.0
    assert fill_distance(LINE5, [0, 4]) == 2.0
    assert fill_distance(LINE5, range(5)) == 0.0


def test_fill_distance_empty_selected_rejected():
    with pytest.raises(DataError):
        fill_distance(LINE5, [])


def test_fill_distance_monotone_under_additions():
    rng = np.random.default_rng(0)
    pool = rng.normal(size=(30, 3))
    selected = [3, 11]
    base = fill_distance(pool, selected)
    for extra in range(30):
        if extra in selected:
            continue
        assert fill_distance(pool, selected + [extra]) <= base


def test_separation_examples():
    assert separation_distance(LINE5, [0, 4]) == 2.0
    assert separation_distance(LINE5, [0, 1, 4]) == 0.5
    dup = np.zeros((3, 2))
    assert separation_distance(dup, [0, 1]) == 0.0
    with pytest.raises(DataError):
        separation_distance(LINE5, [2])


def test_nn_distances_examples():
    from fillgap import selection

    dists, mean = nn_distances(np.array([0.0, 1.0, 3.0])[:, None])
    assert dists.tolist() == [1.0, 1.0, 2.0]
    assert mean == pytest.approx(4.0 / 3.0)
    dup, _ = nn_distances(np.zeros((2, 2)))
    assert dup.tolist() == [0.0, 0.0]
    with pytest.raises(DataError):
        nn_distances(np.ones((1, 2)))
    geometry = selection._Geometry(np.zeros((2, 2)))
    assert nn_distances(geometry)[0].tolist() == [0.0, 0.0]
    assert (np.diagonal(geometry._matrix) == 0.0).all()  # the kept matrix is left as it was
    with pytest.raises(DataError, match="at least 2 rows"):
        nn_distances(selection._Geometry(np.ones((1, 2))))


def _nn_pools():
    """Pools of every kind the GEMM candidate pass must handle exactly."""
    import itertools

    rng = np.random.default_rng(41)
    unit = rng.uniform(size=(301, 6))
    pools = {
        "synth": synth_lipschitz(
            SynthConfig(n=601, d=16, target_lipschitz=2.0, tail_fraction=0.01, seed=51)
        ).features,
        "uniform16": rng.uniform(size=(500, 16)),
        "uniform64": rng.uniform(size=(250, 64)),
        "uniform144": rng.uniform(size=(200, 144)),
        "duplicates": rng.normal(size=(30, 3))[rng.integers(0, 30, size=400)],
        "lattice": np.array(list(itertools.product(range(7), repeat=3)), dtype=np.float64),
        "small_integers": rng.integers(-3, 4, size=(400, 5)).astype(np.float64),
        "all_equal": np.full((50, 2), 3.0),
    }
    small = rng.uniform(size=(301, 4)) * 1e-3
    for shift in (0.0, 1e3, 1e5, 1e6):
        pools[f"shift_{shift:g}"] = small + shift
    for scale in (2.0**20, 2.0**-20, 1e150, 1e-150, 1e-160, 1e-170, 1e155, 1e160):
        pools[f"scale_{scale:g}"] = unit * scale
    return pools


@pytest.mark.parametrize("rows_per_block", [None, 3])
def test_nn_distances_matches_brute_cdist(monkeypatch, rows_per_block):
    from scipy.spatial.distance import cdist

    from fillgap import selection
    from fillgap.regression import gamma_for_half_kernel

    # Three rows per block runs many blocks and, at n not divisible by 3, a
    # ragged last one; duplicate, lattice and integer pools tie exactly, so
    # their rows take the full candidate scan. A sweep passes its geometry,
    # whose kept matrix gives the roots of its off-diagonal row minima.
    for name, pool in _nn_pools().items():
        if rows_per_block is not None:
            monkeypatch.setattr(selection, "_BLOCK_ENTRIES", rows_per_block * pool.shape[0])
        dist_matrix = cdist(pool, pool)
        np.fill_diagonal(dist_matrix, np.inf)
        expected = dist_matrix.min(axis=1)
        for source in (pool, selection._Geometry(pool)):
            dists, mean = nn_distances(source)
            assert np.array_equal(dists, expected), name
            assert mean == float(expected.mean()), name
        median = float(np.median(expected))
        if median > 0.0:
            assert gamma_for_half_kernel(pool) == math.log(2.0) / (median * median), name


def test_root_of_squared_distances_equals_euclidean_cdist():
    import itertools

    from scipy.spatial.distance import cdist

    from fillgap import selection

    # A kept matrix holds squared distances and gives Euclidean blocks as
    # their roots; recomputed blocks come from cdist. Both must agree bit for
    # bit, from subnormal squares to near overflow and far from the origin.
    rng = np.random.default_rng(5)
    dims = (1, 2, 3, 8, 16, 64, 144, 200)
    for d, scale, offset in itertools.product(dims, (1e-160, 1e-80, 1.0, 1e80, 1e150), (0.0, 1e7)):
        pool = rng.normal(size=(40, d)) * scale + offset
        near = pool[rng.permutation(40)[:15]] + rng.normal(size=(15, d)) * scale * 1e-3
        case = (d, scale, offset)
        assert np.array_equal(np.sqrt(cdist(pool, near, "sqeuclidean")), cdist(pool, near)), case
        kept, recomputed = selection._Geometry(pool), selection._Geometry(pool, keep_matrix=False)
        idx = rng.permutation(40)[:12]
        blocks = ((slice(5, 30), slice(None)), (idx, slice(None)), (slice(None), idx), (idx, idx[:5]))
        for rows, cols in blocks:
            assert np.array_equal(kept.sq_dists(rows, cols), recomputed.sq_dists(rows, cols)), case
            assert np.array_equal(kept.dists(rows, cols), recomputed.dists(rows, cols)), case
        gathered = kept.columns(idx).sq_dists(slice(None))
        assert np.array_equal(gathered, cdist(pool, pool[idx], "sqeuclidean")), case


def test_nn_distances_memory_stays_within_blocks():
    import tracemalloc

    from fillgap import selection

    n, d = 20000, 16
    pool = np.random.default_rng(0).uniform(size=(n, d))
    tracemalloc.start()
    try:
        nn_distances(pool)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # The scaled copy of the pool plus a few score blocks of 2**19 entries
    # (4 MiB each); the whole n x n matrix would take 3.2 GB.
    assert peak < 8 * n * d + 4 * 8 * selection._BLOCK_ENTRIES


def test_separation_walks_only_selected_rows_and_matches_full_walk():
    import itertools

    rng = np.random.default_rng(13)
    pools = (
        rng.uniform(size=(700, 7)),
        rng.normal(size=(25, 4))[rng.integers(0, 25, size=500)],
        np.array(list(itertools.product(range(8), repeat=3)), dtype=np.float64) * 0.1 + 3.0,
    )
    for pool in pools:
        for seed, budget in itertools.product(range(3), (2, 5, 33, 150)):
            for result in (fps(pool, budget, seed=seed), random_select(pool, budget, seed=seed)):
                full_walk = selection_traces(pool, result.indices)[1][-1]
                assert separation_distance(pool, result.indices) == full_walk
    # A repeated index is at distance zero from itself.
    assert separation_distance(pools[0], [3, 5, 3]) == 0.0


@pytest.mark.parametrize("name,sampler", ALL_SAMPLERS)
def test_walk_blocks_do_not_change_results(name, sampler, monkeypatch):
    # The walk brings row blocks current lazily; many blocks of 64 rows must
    # give the picks and traces of one block holding the whole pool, also
    # with exact ties (lattice) and rows at distance zero (duplicates).
    import itertools

    from fillgap import selection

    rng = np.random.default_rng(29)
    pools = (
        rng.uniform(size=(700, 2)),
        rng.normal(size=(6, 2))[rng.integers(0, 6, size=300)],
        np.array(list(itertools.product(range(20), repeat=2)), dtype=np.float64),
    )
    for pool in pools:
        monkeypatch.setattr(selection, "_WALK_BLOCK_ENTRIES", 2**30)
        whole = sampler(pool, 40, 3)
        monkeypatch.setattr(selection, "_WALK_BLOCK_ENTRIES", 128)
        blocked = sampler(pool, 40, 3)
        assert np.array_equal(blocked.indices, whole.indices), name
        assert np.array_equal(blocked.fill_trace, whole.fill_trace), name
        assert np.array_equal(blocked.sep_trace, whole.sep_trace, equal_nan=True), name


# ---------------------------------------------------------------------------
# FPS
# ---------------------------------------------------------------------------


def test_fps_line_walkthrough():
    result = fps(LINE6, 3, start_index=0)
    assert result.indices.tolist() == [0, 5, 4]  # points 0, 10, 4
    assert result.fill_trace.tolist() == [10.0, 4.0, 2.0]
    assert math.isnan(result.sep_trace[0])
    assert result.sep_trace[1:].tolist() == [5.0, 2.0]


def test_fps_exhausts_pool():
    result = fps(LINE5, 5, seed=1)
    assert sorted(result.indices.tolist()) == [0, 1, 2, 3, 4]
    assert result.fill_trace[-1] == 0.0


def test_fps_budget_validation():
    with pytest.raises(DataError):
        fps(LINE5, 0)
    with pytest.raises(DataError):
        fps(LINE5, 6)
    with pytest.raises(DataError):
        fps(LINE5, 2, start_index=9)


def test_fps_two_approximation_on_small_instances():
    for seed in range(50):
        pool = random_instance(seed)
        b = int(np.random.default_rng(seed + 1).integers(2, 5))
        b = min(b, pool.shape[0])
        result = fps(pool, b, seed=seed)
        optimum, _ = kcenter_bruteforce(pool, b)
        assert result.fill_trace[-1] <= 2.0 * optimum + 1e-12


def test_fps_greedy_identity():
    pool = random_instance(123, n_max=40)
    result = fps(pool, pool.shape[0] // 2, seed=7)
    norms = np.einsum("ij,ij->i", pool, pool)
    for t in range(1, result.indices.size):
        prior = result.indices[:t]
        point = pool[result.indices[t]]
        dist = np.sqrt(
            np.maximum(norms[prior] - 2.0 * pool[prior] @ point + norms[result.indices[t]], 0)
        ).min()
        assert dist == pytest.approx(result.fill_trace[t - 1], rel=1e-12)


# ---------------------------------------------------------------------------
# Baselines
# ---------------------------------------------------------------------------


def test_random_select_exhaustive_and_deterministic():
    a = random_select(LINE5, 5, seed=3)
    b = random_select(LINE5, 5, seed=3)
    assert sorted(a.indices.tolist()) == [0, 1, 2, 3, 4]
    assert np.array_equal(a.indices, b.indices)


def test_random_select_uniform_frequencies():
    counts = np.zeros(5, dtype=int)
    for seed in range(10_000):
        counts[random_select(LINE5, 1, seed=seed).indices[0]] += 1
    # binomial(10000, 1/5): five sigma is 5 * sqrt(10000 * 0.2 * 0.8) = 200
    assert (np.abs(counts - 2000) <= 200).all()


def test_facility_location_two_candidate_example():
    pool = np.array([0.0, 1.0, 10.0])[:, None]
    result = facility_location(pool, 2, start_index=1)
    assert result.indices.tolist() == [1, 2]  # adding 10 costs 1, adding 0 costs 9


def test_facility_location_exhausts_pool():
    result = facility_location(LINE5, 5, seed=0)
    assert sorted(result.indices.tolist()) == [0, 1, 2, 3, 4]


def test_facility_location_vs_exhaustive_oracle():
    import itertools

    from scipy.spatial.distance import cdist

    ratios = []
    for seed in range(20):
        pool = random_instance(seed, n_max=10)
        n = pool.shape[0]
        b = min(3, n - 1)
        dist_matrix = cdist(pool, pool)
        # brute-force optimum over subsets containing the 1-medoid start
        start = int(np.argmin(dist_matrix.sum(axis=1)))
        best = math.inf
        for subset in itertools.combinations(range(n), b):
            if start not in subset:
                continue
            best = min(best, float(dist_matrix[:, subset].min(axis=1).sum()))
        greedy = facility_location(pool, b, start_index=start)
        achieved = float(dist_matrix[:, greedy.indices].min(axis=1).sum())
        assert achieved >= best - 1e-9
        ratios.append(achieved / best if best > 0 else 1.0)
    # record the empirical quality rather than asserting a bound
    assert np.mean(ratios) < 1.5


@pytest.mark.parametrize("dense_limit", [None, 0])
def test_facility_location_matches_eager_greedy(monkeypatch, dense_limit):
    from scipy.spatial.distance import cdist

    from fillgap import selection

    # A dense limit of 0 runs the recomputed-block path.
    if dense_limit is not None:
        monkeypatch.setattr(selection, "_DENSE_MATRIX_LIMIT", dense_limit)
    rng = np.random.default_rng(23)
    duplicated = rng.normal(size=(3, 2))[rng.integers(0, 3, size=12)]
    # At most _RESCORE_BATCH rows: the first step pops every row in one batch.
    few = rng.uniform(-1, 1, size=(selection._RESCORE_BATCH, 2))
    # Shipped tail pool: at this seed two rows of equal gain reach step 38
    # with summed scores that round apart.
    tail = synth_lipschitz(
        SynthConfig(n=2000, d=8, target_lipschitz=2.0, tail_fraction=0.01, seed=31337)
    ).features
    starts = ({"start_index": 0}, {"start_index": 5})
    cases = (
        (rng.uniform(-1, 1, size=(30, 3)), 12, starts),
        (duplicated, 12, starts),
        (few, selection._RESCORE_BATCH, starts),
        (tail, 40, ({"seed": TAIL_TIE_SEED},)),
    )
    # Rescoring one candidate at a time, and in the batches the sampler uses,
    # which also rescore candidates that cannot win.
    batches = (1, selection._RESCORE_BATCH)
    for pool, budget, calls in cases:
        dist_matrix = cdist(pool, pool)
        for kwargs in calls:
            start = kwargs.get("start_index")
            if start is None:
                start = selection._first_index(pool.shape[0], kwargs["seed"], None)
            expected = [start]
            while len(expected) < budget:
                nearest = dist_matrix[:, expected].min(axis=1)
                scores = np.minimum(dist_matrix, nearest).sum(axis=1)
                scores[expected] = np.inf
                expected.append(int(np.argmin(scores)))  # smallest index on ties
            fill, sep = selection_traces(pool, expected)
            for batch in batches:
                monkeypatch.setattr(selection, "_RESCORE_BATCH", batch)
                result = facility_location(pool, budget, **kwargs)
                assert result.indices.tolist() == expected, batch
                assert np.array_equal(result.fill_trace, fill)
                assert np.array_equal(result.sep_trace, sep, equal_nan=True)


def test_facility_location_translation_invariant():
    # Far from the origin the norm expansion cancels; FL scores exact distances.
    pool = np.random.default_rng(0).uniform(size=(300, 4)) * 1e-3
    near = facility_location(pool, 30, start_index=0)
    far = facility_location(pool + 1e5, 30, start_index=0)
    assert np.array_equal(near.indices, far.indices)


def test_kmedoidspp_separated_pairs():
    import itertools

    from scipy.spatial.distance import cdist

    pool = np.array([0.0, 0.1, 10.0, 10.1])[:, None]
    dist_matrix = cdist(pool, pool)

    def one_update(medoids):
        assign = dist_matrix[list(medoids)].argmin(axis=0)
        assign[list(medoids)] = np.arange(2)
        out = []
        for k in range(2):
            members = np.flatnonzero(assign == k)
            costs = dist_matrix[np.ix_(members, members)].sum(axis=1)
            out.append(int(members[np.argmin(costs)]))
        return tuple(out)

    # every fixed point of the alternating update pairs one medoid per cluster
    cross = {(0, 2), (0, 3), (1, 2), (1, 3)}
    for medoids in itertools.combinations(range(4), 2):
        if one_update(medoids) == medoids:
            assert medoids in cross
    for seed in range(6):
        result = kmedoidspp(pool, 2, seed=seed)
        pair = tuple(sorted(result.indices.tolist()))
        assert pair in cross


def test_kmedoidspp_exhaustive_and_deterministic():
    a = kmedoidspp(LINE5, 5, seed=2)
    b = kmedoidspp(LINE5, 5, seed=2)
    assert sorted(a.indices.tolist()) == [0, 1, 2, 3, 4]
    assert np.array_equal(a.indices, b.indices)


def _overflowing_pool():
    # Finite entries whose squared distances pass the largest float64.
    return np.random.default_rng(41).uniform(size=(301, 6)) * 1e155


def test_facility_location_raises_on_overflowing_distances():
    with pytest.raises(DataError, match="overflow"):
        facility_location(_overflowing_pool(), 12, seed=4)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_walk_raises_on_overflowing_distances():
    pool = _overflowing_pool()
    with pytest.raises(DataError, match="overflow"):
        fps(pool, 12, seed=4)
    with pytest.raises(DataError, match="overflow"):
        fps(pool, 1, seed=4)
    for kind in ("random", "kmedoidspp", "fps_then_random"):
        spec = StrategySpec(kind, switch_fraction=0.02 if kind == "fps_then_random" else None)
        with pytest.raises(DataError, match="overflow"):
            select(pool, spec, 12, seed=4)


def test_kmedoidspp_memory_stays_within_blocks(monkeypatch):
    import tracemalloc

    from fillgap import selection

    n = 3000
    pool = np.random.default_rng(0).uniform(size=(n, 4))
    expected = kmedoidspp(pool, 2, seed=1)
    monkeypatch.setattr(selection, "_BLOCK_ENTRIES", 10_000, raising=False)
    tracemalloc.start()
    try:
        result = kmedoidspp(pool, 2, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(result.indices, expected.indices)
    # One cluster holds at least n/2 rows, so its full cost matrix would take
    # (n/2)^2 * 8 bytes = 18 MB.
    assert peak < 2 * 2**20


def test_sampler_matrix_that_cannot_be_allocated_raises_data_error(monkeypatch):
    empty = np.empty

    def refusing(shape, *args, **kwargs):
        if shape == (300, 300):
            raise MemoryError("Unable to allocate")
        return empty(shape, *args, **kwargs)

    pool = np.random.default_rng(0).uniform(size=(300, 2))
    monkeypatch.setattr(np, "empty", refusing)
    with pytest.raises(DataError, match=r"300 x 300 float64 matrix \(0.000671 GiB\)"):
        facility_location(pool, 5, seed=0)


@pytest.mark.parametrize("block_entries", [None, 7])
def test_kmedoidspp_on_shared_geometry_matches_bare_pool(monkeypatch, block_entries):
    import itertools

    from fillgap import selection

    # A sweep's geometry slices its kept matrix; a bare pool recomputes blocks.
    # A patched block size splits both Lloyd passes into many blocks.
    if block_entries is not None:
        monkeypatch.setattr(selection, "_BLOCK_ENTRIES", block_entries)
    rng = np.random.default_rng(31)
    duplicated = np.array([[0.0, 0.0], [1.0, 2.0]])[[0, 1, 0, 0, 1, 0, 1, 0]]
    lattice = np.array(list(itertools.product(range(4), repeat=3)), dtype=np.float64)
    cases = (
        (rng.uniform(-1, 1, size=(60, 3)), (2, 7, 20)),
        (duplicated, (2, 5, duplicated.shape[0])),
        (lattice, (3, 10, 30)),
        (rng.uniform(size=(80, 144)), (2, 8, 25)),
    )
    for pool, budgets in cases:
        geometry = selection._Geometry(pool)
        for budget, seed in itertools.product(budgets, (0, 1)):
            shared = kmedoidspp(geometry, budget, seed=seed)
            bare = kmedoidspp(pool, budget, seed=seed)
            assert np.array_equal(shared.indices, bare.indices)
            assert np.array_equal(shared.fill_trace, bare.fill_trace)
            assert np.array_equal(shared.sep_trace, bare.sep_trace, equal_nan=True)
        assert geometry._matrix is not None


def test_kmedoidspp_max_iters_zero_is_seeding_only():
    pool = random_instance(5, n_max=12)
    result = kmedoidspp(pool, 3, seed=4, max_iters=0)
    assert result.indices.size == 3


def test_fps_then_random_degenerate_equals_fps():
    pool = random_instance(9, n_max=12)
    n = pool.shape[0]
    hybrid = fps_then_random(pool, 2, 0.5, seed=13)  # switch point >= budget
    plain = fps(pool, 2, seed=13)
    assert np.array_equal(hybrid.indices, plain.indices)


def test_fps_then_random_prefix_property():
    rng = np.random.default_rng(1)
    pool = rng.normal(size=(200, 3))
    hybrid = fps_then_random(pool, 30, 0.02, seed=5)  # switch at ceil(4) = 4
    plain = fps(pool, 4, seed=5)
    assert np.array_equal(hybrid.indices[:4], plain.indices)
    assert np.unique(hybrid.indices).size == 30


def test_fps_then_random_trace_behaviour():
    rng = np.random.default_rng(2)
    pool = rng.normal(size=(100, 2))
    result = fps_then_random(pool, 20, 0.05, seed=3)
    switch = math.ceil(0.05 * 100)
    prefix = result.fill_trace[:switch]
    assert (np.diff(prefix) <= 1e-12).all()
    assert (result.fill_trace[switch:] <= prefix[-1] + 1e-12).all()


@pytest.mark.parametrize("kind", ["fps", "random", "facility_location", "fps_then_random"])
def test_prefix_kinds_are_prefixes_of_larger_budgets(kind):
    # A sweep selects once at its largest budget and slices the smaller cells.
    from fillgap import selection

    assert kind in selection._PREFIX_KINDS
    assert "kmedoidspp" not in selection._PREFIX_KINDS
    rng = np.random.default_rng(31)
    duplicated = rng.normal(size=(4, 2))[rng.integers(0, 4, size=60)]
    # Switch points ceil(0.05 * 60) = 3 and ceil(0.5 * 60) = 30 fall below
    # and above the smaller budgets.
    fractions = (0.05, 0.5) if kind == "fps_then_random" else (None,)
    for pool in (rng.uniform(-1, 1, size=(60, 3)), duplicated):
        for fraction in fractions:
            spec = StrategySpec(kind, switch_fraction=fraction)
            full = select(pool, spec, 40, seed=17)
            for b in (2, 10, 25):
                part = select(pool, spec, b, seed=17)
                assert np.array_equal(part.indices, full.indices[:b])
                assert np.array_equal(part.fill_trace, full.fill_trace[:b])
                assert np.array_equal(part.sep_trace, full.sep_trace[:b], equal_nan=True)


def test_fps_then_random_invalid_fraction():
    with pytest.raises(DataError):
        fps_then_random(LINE5, 2, 0.0, seed=0)
    with pytest.raises(DataError):
        fps_then_random(LINE5, 2, 1.0, seed=0)


# ---------------------------------------------------------------------------
# Brute-force oracles
# ---------------------------------------------------------------------------


def test_kcenter_bruteforce_examples():
    optimum, witness = kcenter_bruteforce(LINE5, 1)
    assert optimum == 2.0 and witness.tolist() == [2]
    optimum, witness = kcenter_bruteforce(LINE5, 2)
    assert optimum == 1.0
    assert fill_distance(LINE5, witness) == 1.0
    optimum, _ = kcenter_bruteforce(LINE5, 5)
    assert optimum == 0.0


def test_maxsep_bruteforce_examples():
    optimum, witness = maxsep_bruteforce(LINE5, 2)
    assert optimum == 2.0 and witness.tolist() == [0, 4]
    optimum, witness = maxsep_bruteforce(LINE5, 3)
    assert optimum == 1.0 and witness.tolist() == [0, 2, 4]
    dup = np.zeros((4, 2))
    assert maxsep_bruteforce(dup, 2)[0] == 0.0


def test_bruteforce_guard():
    rng = np.random.default_rng(0)
    pool = rng.normal(size=(60, 2))
    with pytest.raises(DataError, match="guard"):
        kcenter_bruteforce(pool, 10)


# ---------------------------------------------------------------------------
# Cross-strategy invariants
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name,sampler", ALL_SAMPLERS)
def test_sampler_contract(name, sampler):
    rng = np.random.default_rng(17)
    pool = rng.uniform(size=(40, 3))
    # Budget = n on a pool of two distinct rows whose squared distances are
    # exact: every sampler, and the FPS head of fps_then_random, keeps
    # picking after every row is at distance zero from the selection.
    duplicated = np.array([[0.0, 0.0], [1.0, 2.0]])[[0, 1, 0, 0, 1, 0, 1, 0]]
    cases = [(pool, int(np.random.default_rng(seed).integers(2, 12)), seed) for seed in (0, 1, 2)]
    cases.append((duplicated, duplicated.shape[0], 3))
    for pool, budget, seed in cases:
        result = sampler(pool, budget, seed)
        assert result.indices.size == budget
        assert np.unique(result.indices).size == budget
        assert result.strategy == name
        # determinism
        again = sampler(pool, budget, seed)
        assert np.array_equal(result.indices, again.indices)
        assert np.array_equal(result.fill_trace, again.fill_trace)
        # trace consistency against scratch recomputation
        fill, sep = selection_traces(pool, result.indices)
        assert np.array_equal(fill, result.fill_trace)
        assert np.array_equal(sep[1:], result.sep_trace[1:])
        assert math.isnan(result.sep_trace[0])
        for t in range(budget):
            assert result.fill_trace[t] == fill_distance(pool, result.indices[: t + 1])
            if t >= 1:
                assert result.sep_trace[t] == separation_distance(
                    pool, result.indices[: t + 1]
                )
        # fill trace never increases
        assert (np.diff(result.fill_trace) <= 0).all()


def test_fps_sep_trace_non_increasing():
    pool = np.random.default_rng(8).normal(size=(60, 2))
    result = fps(pool, 20, seed=5)
    assert (np.diff(result.sep_trace[1:]) <= 0).all()


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_fps_half_separation_approximation(seed):
    pool = random_instance(seed)
    b = 2 + seed % 3
    b = min(b, pool.shape[0])
    result = fps(pool, b, seed=seed)
    optimum, _ = maxsep_bruteforce(pool, b)
    achieved = separation_distance(pool, result.indices)
    assert achieved >= 0.5 * optimum - 1e-12


# ---------------------------------------------------------------------------
# StrategySpec and serialization
# ---------------------------------------------------------------------------


def test_strategy_spec_validation():
    with pytest.raises(DataError):
        StrategySpec(kind="nope")
    with pytest.raises(DataError):
        StrategySpec(kind="fps_then_random")
    with pytest.raises(DataError):
        StrategySpec(kind="fps", switch_fraction=0.2)
    for kind in ("random", "kmedoidspp"):  # samplers that ignore start_index
        with pytest.raises(DataError, match="start_index"):
            StrategySpec(kind=kind, start_index=7)
    spec = StrategySpec(kind="fps_then_random", switch_fraction=0.02)
    assert spec.label == "fps_then_random:0.02"


def test_select_dispatch():
    pool = np.random.default_rng(0).normal(size=(30, 2))
    for kind in ("fps", "random", "facility_location", "kmedoidspp"):
        result = select(pool, StrategySpec(kind=kind), 5, seed=1)
        assert result.strategy == kind
    hybrid = select(pool, StrategySpec(kind="fps_then_random", switch_fraction=0.1), 5, seed=1)
    assert hybrid.strategy == "fps_then_random"


def test_selection_result_json_roundtrip():
    pool = np.random.default_rng(4).normal(size=(25, 2))
    result = fps(pool, 6, seed=9)
    back = SelectionResult.from_json(result.to_json())
    assert np.array_equal(back.indices, result.indices)
    assert np.array_equal(back.fill_trace, result.fill_trace)
    assert math.isnan(back.sep_trace[0])
    assert np.array_equal(back.sep_trace[1:], result.sep_trace[1:])
    assert back.strategy == result.strategy and back.seed == result.seed


@pytest.mark.parametrize(
    "indices",
    [[1.7, 2.2], [1, 2.5], ["1", "2"], [True, False], [1, math.nan], [1, math.inf], [[1, 2]]],
)
def test_selection_result_json_rejects_indices_that_are_not_integers(indices):
    text = json.dumps({"strategy": "fps", "seed": 1, "indices": indices})
    with pytest.raises(DataError, match="malformed selection JSON|1-D"):
        SelectionResult.from_json(text)


def test_selection_result_json_accepts_integral_floats():
    text = json.dumps({"strategy": "fps", "seed": 1, "indices": [3, 1.0, 4.0]})
    assert SelectionResult.from_json(text).indices.tolist() == [3, 1, 4]


def test_selection_result_invariants():
    with pytest.raises(DataError):
        SelectionResult(
            indices=np.array([1, 1]),
            fill_trace=np.zeros(2),
            sep_trace=np.zeros(2),
            strategy="fps",
            seed=0,
        )
