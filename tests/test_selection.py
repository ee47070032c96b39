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
    dists, mean = nn_distances(np.array([0.0, 1.0, 3.0])[:, None])
    assert dists.tolist() == [1.0, 1.0, 2.0]
    assert mean == pytest.approx(4.0 / 3.0)
    dup, _ = nn_distances(np.zeros((2, 2)))
    assert dup.tolist() == [0.0, 0.0]
    with pytest.raises(DataError, match="at least 2 rows"):
        nn_distances(np.ones((1, 2)))


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
        # Exact ties that cross tiles.
        "lattice_2d": np.array(list(itertools.product(range(15), repeat=2)), dtype=np.float64),
        # Ties between an earlier and a later row, and (growing gaps) a unique
        # nearest row just before each row: at a tile's first row only the
        # column reduction of the tile before finds it.
        "lattice_1d_reversed": np.arange(200.0)[::-1, None],
        "growing_gaps": np.arange(200.0)[:, None] ** 2,
        "small_integers": rng.integers(-3, 4, size=(400, 5)).astype(np.float64),
        "all_equal": np.full((50, 2), 3.0),
    }
    small = rng.uniform(size=(301, 4)) * 1e-3
    for shift in (0.0, 1e3, 1e5, 1e6):
        pools[f"shift_{shift:g}"] = small + shift
    for scale in (2.0**20, 2.0**-20, 1e150, 1e-150, 1e-160, 1e-170, 1e155, 1e160):
        pools[f"scale_{scale:g}"] = unit * scale
    return pools


@pytest.mark.parametrize("tile_rows", [None, 3, 7])
def test_nn_distances_matches_brute_cdist(monkeypatch, tile_rows):
    from scipy.spatial.distance import cdist

    from fillgap import selection
    from fillgap.regression import gamma_for_half_kernel

    # Tiles of 3 and 7 rows run many bands and, at n not divisible by the
    # side, ragged last tiles; duplicate, lattice and integer pools tie
    # exactly, so their rows keep many candidates across tiles.
    if tile_rows is not None:
        monkeypatch.setattr(selection, "_BLOCK_ENTRIES", tile_rows**2)
    overflowing = []
    for name, pool in _nn_pools().items():
        dist_matrix = cdist(pool, pool)
        np.fill_diagonal(dist_matrix, np.inf)
        expected = dist_matrix.min(axis=1)
        if not math.isfinite(float(expected.mean())):
            # Neither an inf distance nor a gamma of 0.0 is returned.
            overflowing.append(name)
            for call in (nn_distances, gamma_for_half_kernel):
                with pytest.raises(DataError, match="^pairwise distances overflow float64"):
                    call(pool)
            continue
        dists, mean = nn_distances(pool)
        assert np.array_equal(dists, expected), name
        assert mean == float(expected.mean()), name
        median = float(np.median(expected))
        if median > 0.0 and math.isfinite(math.log(2.0) / (median * median)):
            assert gamma_for_half_kernel(pool) == math.log(2.0) / (median * median), name
        else:
            with pytest.raises(DataError):
                gamma_for_half_kernel(pool)
    assert overflowing == ["scale_1e+155", "scale_1e+160"]


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


def test_pairwise_squared_distances_are_bitwise_symmetric():
    import itertools

    from scipy.spatial.distance import cdist

    from fillgap import selection

    # k-medoids assigns pool rows to medoids from the medoids' rows of the
    # kept matrix, or of cdist(medoids, rows) on a bare pool; those equal the
    # columns bit for bit only if both are symmetric, as (a - b)**2 == (b - a)**2.
    rng = np.random.default_rng(17)
    uniform = rng.uniform(size=(1000, 4))
    pools = {
        "uniform": uniform,
        "shifted": uniform * 1e-3 + 1e5,
        "duplicates": rng.normal(size=(40, 3))[rng.integers(0, 40, size=300)],
        "lattice": np.array(list(itertools.product(range(6), repeat=3)), dtype=np.float64),
        "wide": rng.normal(size=(300, 1001)),
    }
    for name, pool in pools.items():
        squared = selection._Geometry(pool)._matrix
        assert np.array_equal(squared, squared.T), name
        assert (np.diagonal(squared) == 0.0).all(), name
        a, b = pool[::3], pool[1::2]
        for metric in ("sqeuclidean", "euclidean"):
            assert np.array_equal(cdist(a, b, metric), cdist(b, a, metric).T), (name, metric)


def test_nn_distances_memory_stays_within_blocks():
    import tracemalloc

    from fillgap import selection

    # The two augmented copies of the pool (n x (d + 2) each), four per-row
    # arrays (margins, thresholds, the output and one temporary) and a few
    # square tiles of _BLOCK_ENTRIES entries (1 MiB each): O(n d) at
    # both sizes, where the whole n x n matrix would take 3.2 GB at n=20000.
    d = 16
    for n in (5000, 20000):
        pool = np.random.default_rng(0).uniform(size=(n, d))
        tracemalloc.start()
        try:
            nn_distances(pool)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * n * (2 * (d + 2) + 4) + 4 * 8 * selection._BLOCK_ENTRIES, n


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
        monkeypatch.setattr(selection, "_BLOCK_ENTRIES", 2**30)
        whole = sampler(pool, 40, 3)
        monkeypatch.setattr(selection, "_BLOCK_ENTRIES", 128)
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


ORACLES = [
    ("kcenter_bruteforce", kcenter_bruteforce),
    ("maxsep_bruteforce", maxsep_bruteforce),
]


@pytest.mark.parametrize("budget", [2.7, 2.5, math.nan, math.inf, True, "3"])
@pytest.mark.parametrize("name,run", ALL_SAMPLERS + [
    (name, lambda pool, b, seed, oracle=oracle: oracle(pool, b)) for name, oracle in ORACLES
])
def test_every_sampler_rejects_a_budget_that_is_not_an_integral_count(name, run, budget):
    # A cast would select 2 rows for 2.7 and raise ValueError or
    # OverflowError for NaN or inf.
    with pytest.raises(DataError, match=r"budget must satisfy 1 <= b <= 6"):
        run(LINE6, budget, 1)


@pytest.mark.parametrize("budget", [3.0, np.int64(3), np.uint8(3)])
@pytest.mark.parametrize("name,run", ALL_SAMPLERS)
def test_every_sampler_takes_an_integral_budget_of_any_numeric_type(name, run, budget):
    expected = run(LINE6, 3, 1)
    result = run(LINE6, budget, 1)
    assert np.array_equal(result.indices, expected.indices)
    assert np.array_equal(result.fill_trace, expected.fill_trace)
    assert np.array_equal(result.sep_trace, expected.sep_trace, equal_nan=True)


def test_oracles_take_an_integral_float_budget():
    assert kcenter_bruteforce(LINE6, 2.0)[1].tolist() == kcenter_bruteforce(LINE6, 2)[1].tolist()
    assert maxsep_bruteforce(LINE6, 3.0)[1].tolist() == maxsep_bruteforce(LINE6, 3)[1].tolist()


@pytest.mark.parametrize("seed", [2.7, math.nan, math.inf, True, "3"])
@pytest.mark.parametrize("name,run", ALL_SAMPLERS)
def test_every_sampler_rejects_a_seed_that_is_not_an_integer(name, run, seed):
    # A cast would run and record 2.7 as seed 2.
    with pytest.raises(DataError, match=r"seed must be integral, got"):
        run(LINE6, 3, seed)


@pytest.mark.parametrize("seed", [7.0, np.int64(7), np.uint8(7)])
@pytest.mark.parametrize("name,run", ALL_SAMPLERS)
def test_every_sampler_takes_an_integral_seed_of_any_numeric_type(name, run, seed):
    expected = run(LINE6, 3, 7)
    result = run(LINE6, 3, seed)
    assert np.array_equal(result.indices, expected.indices)
    assert type(result.seed) is int and result.seed == 7


@pytest.mark.parametrize("start_index", [2.7, math.nan, True, "2"])
@pytest.mark.parametrize("kind", ["fps", "facility_location", "fps_then_random"])
def test_start_index_must_be_an_integral_row(kind, start_index):
    # A cast would start FPS at row 2 for 2.7 and raise ValueError for NaN.
    fraction = 0.5 if kind == "fps_then_random" else None
    with pytest.raises(DataError, match="start_index must be integral, got"):
        select(LINE6, StrategySpec(kind, fraction, start_index), 3)
    run = {"fps": fps, "facility_location": facility_location}.get(kind)
    if run is not None:
        with pytest.raises(DataError, match="start_index must be integral, got"):
            run(LINE6, 3, start_index=start_index)


NOT_REAL_POOLS = [
    ([["a"]], "got <U1 values"),
    ([[1.0], [1.0, 2.0]], "got a ragged sequence"),
    ([[1 + 2j]], "got complex128 values"),
    ([[1.0], [None]], "got object values"),
    ([[True], [False]], "got bool values"),
]


@pytest.mark.parametrize("pool,message", NOT_REAL_POOLS, ids=["string", "ragged", "complex", "object", "bool"])
@pytest.mark.parametrize("name,run", ALL_SAMPLERS + [
    ("fill_distance", lambda pool, b, seed: fill_distance(pool, [0])),
    ("nn_distances", lambda pool, b, seed: nn_distances(pool)),
])
def test_every_pool_reader_rejects_what_is_not_a_real_matrix(name, run, pool, message):
    # Unchecked, "a" and a ragged pool raised a bare ValueError, and the
    # imaginary part of 1+2j was dropped with a warning.
    with pytest.raises(DataError, match=r"^pool must be an array of real numbers, " + message):
        run(pool, 1, 0)


@pytest.mark.parametrize("name,run", ALL_SAMPLERS + [
    ("fill_distance", lambda pool, b, seed: fill_distance(pool, [0])),
    ("nn_distances", lambda pool, b, seed: nn_distances(pool)),
])
def test_every_pool_reader_rejects_an_empty_pool(name, run):
    with pytest.raises(DataError, match=r"^pool must be non-empty, got shape \(0, 3\)$"):
        run(np.empty((0, 3)), 1, 0)


def test_a_pool_is_read_without_a_copy_and_any_real_dtype_alike():
    from fillgap.selection import _as_pool

    pool = np.random.default_rng(4).uniform(size=(40, 3))
    assert _as_pool(pool) is pool
    scaled = np.round(pool * 100)
    expected = fps(scaled, 5, seed=1)
    for same in (scaled.astype(np.int32), scaled.astype(np.float32), np.asfortranarray(scaled), scaled.tolist()):
        got = fps(same, 5, seed=1)
        assert np.array_equal(got.indices, expected.indices) and np.array_equal(got.fill_trace, expected.fill_trace)


@pytest.mark.parametrize("fraction", ["0.5", True, [0.5]])
def test_switch_fraction_must_be_a_real_number(fraction):
    # Unchecked, "0.5" raised a bare TypeError and True passed as 1.
    with pytest.raises(DataError, match="switch_fraction must be a real number, got"):
        StrategySpec("fps_then_random", switch_fraction=fraction)
    with pytest.raises(DataError, match="switch_fraction must be a real number, got"):
        fps_then_random(LINE6, 3, fraction)


def test_switch_fraction_is_one_float_for_the_label_and_the_sampler():
    spec = StrategySpec("fps_then_random", switch_fraction=np.float32(0.5))
    assert type(spec.switch_fraction) is float and spec.switch_fraction == float(np.float32(0.5))
    assert spec.label == f"fps_then_random:{float(np.float32(0.5))!r}"
    expected = fps_then_random(LINE6, 4, 0.5, seed=3)
    for fraction in (np.float64(0.5), np.float32(0.5)):
        assert np.array_equal(fps_then_random(LINE6, 4, fraction, seed=3).indices, expected.indices)
    assert StrategySpec("fps_then_random", switch_fraction=np.float64(0.1)).label == "fps_then_random:0.1"


def test_an_integral_float_start_index_is_that_row():
    spec = StrategySpec("fps", start_index=2.0)
    assert type(spec.start_index) is int and spec.start_index == 2
    assert fps(LINE6, 3, start_index=np.float64(2.0)).indices.tolist() == [2, 5, 0]
    with pytest.raises(DataError, match=r"start_index -1 out of range \[0, 5\]"):
        fps(LINE6, 3, start_index=-1)


@pytest.mark.parametrize("max_iters", [2.5, True, math.nan, -1])
def test_kmedoidspp_max_iters_must_be_a_count(max_iters):
    with pytest.raises(DataError, match="max_iters"):
        kmedoidspp(LINE6, 3, seed=1, max_iters=max_iters)


@pytest.mark.parametrize(
    "indices,message",
    [
        ([0.5, 1.7], "integral"),
        ([0, math.nan], "integral"),
        ([0, math.inf], "integral"),
        ([True, False], "integral"),
        (["0", "1"], "integral"),
        ([], "non-empty 1-D"),
        ([[0, 1]], "non-empty 1-D"),
        ([0, 6], r"selected index out of range \[0, 6\)"),
        ([-1, 2], "selected index out of range"),
    ],
)
def test_index_readers_reject_what_is_not_a_row_index(indices, message):
    # A cast would measure rows 0 and 1 for [0.5, 1.7].
    for read in (selection_traces, fill_distance, separation_distance):
        with pytest.raises(DataError, match=message):
            read(LINE6, indices)


@pytest.mark.parametrize("indices", [[0.5, 1.7], [-1, 2], [2**63, 1], [1e300, 1], [[0, 1]], []])
def test_selection_result_rejects_what_is_not_a_row_index(indices):
    traces = np.zeros(np.shape(indices))
    with pytest.raises(DataError, match="selected ind"):
        SelectionResult(indices, traces, traces, strategy="fps", seed=0)


@pytest.mark.parametrize(
    "indices", [[4, 0, 2], [4.0, 0.0, 2.0], np.array([4, 0, 2], np.uint8), np.array([4, 0, 2], np.int32)]
)
def test_index_readers_take_integral_indices_of_any_numeric_type(indices):
    expected = selection_traces(LINE6, [4, 0, 2])
    for got, want in zip(selection_traces(LINE6, indices), expected):
        assert np.array_equal(got, want, equal_nan=True)
    assert fill_distance(LINE6, indices) == expected[0][-1]
    assert separation_distance(LINE6, indices) == expected[1][-1]
    result = SelectionResult(indices, *expected, strategy="fps", seed=np.int64(3))
    assert result.indices.dtype == np.int64 and result.indices.tolist() == [4, 0, 2]
    assert type(result.seed) is int


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

    block = 10_000
    for n in (3000, 6000):
        pool = np.random.default_rng(0).uniform(size=(n, 4))
        expected = kmedoidspp(pool, 2, seed=1)
        with monkeypatch.context() as m:
            m.setattr(selection, "_BLOCK_ENTRIES", block)
            tracemalloc.start()
            try:
                result = kmedoidspp(pool, 2, seed=1)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert np.array_equal(result.indices, expected.indices)
        # Eight per-row arrays (the walk's, the assignment and the costs) and
        # a few blocks of ``block`` entries. One cluster holds at least n/2
        # rows, so its full cost matrix would take (n/2)^2 * 8 bytes: 18 MB
        # at n=3000, 72 MB at n=6000.
        assert peak < 8 * 8 * n + 4 * 8 * block, n


def test_standalone_walk_samplers_memory_stays_within_blocks():
    import tracemalloc

    from fillgap import selection

    # Eight per-row arrays (the walk's distances, norms and marks, the
    # permutations of random and fps_then_random) and the walk's block of
    # _BLOCK_ENTRIES entries: O(n) where the n x n matrix would take
    # 3.2 GB at n=20000.
    d, b = 16, 500
    for n in (5000, 20000):
        pool = np.random.default_rng(0).uniform(size=(n, d))
        for run in (
            lambda: fps(pool, b, seed=1),
            lambda: random_select(pool, b, seed=1),
            lambda: fps_then_random(pool, b, 0.02, seed=1),
        ):
            tracemalloc.start()
            try:
                run()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 8 * 8 * n + 8 * selection._BLOCK_ENTRIES, n


def test_facility_location_memory_is_its_matrix_plus_per_row_state():
    import tracemalloc

    # The n x n matrix of squared distances, built when its geometry is made;
    # per row two entries of the lazy heap, each a tuple, a float and an int
    # (under 128 bytes: the first step holds every row's old and new bound at
    # once); and 16 per-row float64 arrays for the walk and the running minima.
    for n in (1000, 2000):
        pool = np.random.default_rng(0).uniform(size=(n, 8))
        tracemalloc.start()
        try:
            facility_location(pool, 100, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * n * n + n * (2 * 128 + 16 * 8), n


def test_samplers_in_a_sweep_hold_no_more_than_their_per_row_state():
    import tracemalloc

    from fillgap import selection

    # A sweep's samplers share one _Geometry whose n x n matrix is built
    # before they run, so each run's peak is measured above that matrix.
    b = 100
    for n in (1000, 2000):
        pool = np.random.default_rng(0).uniform(size=(n, 8))
        geometry = selection._Geometry(pool)
        bounds = {
            # Eight per-row arrays (the walk's distances, norms and marks, the
            # permutations of random and fps_then_random) and the walk's block
            # of at most _BLOCK_ENTRIES entries.
            "fps": 8 * 8 * n + 8 * selection._BLOCK_ENTRIES,
            "random": 8 * 8 * n + 8 * selection._BLOCK_ENTRIES,
            "fps_then_random": 8 * 8 * n + 8 * selection._BLOCK_ENTRIES,
            # Per row two entries of the lazy heap of under 128 bytes each
            # and 16 float64 arrays (the walk, the running minima and the
            # rescored blocks of _RESCORE_BATCH rows); no matrix of its own.
            "facility_location": n * (2 * 128 + 16 * 8),
            # Eight per-row arrays (the walk's, the assignment and the costs),
            # one gathered block of at most _BLOCK_ENTRIES and argmin's
            # contiguous copy of it along the medoid axis.
            "kmedoidspp": 8 * 8 * n + 2 * 8 * selection._BLOCK_ENTRIES,
        }
        for kind, bound in bounds.items():
            spec = StrategySpec(kind, switch_fraction=0.02 if kind == "fps_then_random" else None)
            tracemalloc.start()
            try:
                select(geometry, spec, b, seed=1)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < bound, (kind, n, peak)


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


def test_facility_location_checks_arguments_before_building_its_matrix(monkeypatch):
    empty = np.empty

    def refusing(shape, *args, **kwargs):
        if shape == (300, 300):
            raise MemoryError("Unable to allocate")
        return empty(shape, *args, **kwargs)

    # A bad argument is reported as itself, not as the n x n matrix it would
    # have built.
    pool = np.random.default_rng(0).uniform(size=(300, 2))
    monkeypatch.setattr(np, "empty", refusing)
    with pytest.raises(DataError, match="budget must satisfy"):
        facility_location(pool, 0, seed=0)
    with pytest.raises(DataError, match="start_index 300 out of range"):
        facility_location(pool, 5, seed=0, start_index=300)


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
    from fillgap import selection

    pool = random_instance(5, n_max=12)
    result = kmedoidspp(pool, 3, seed=4, max_iters=0)
    assert np.array_equal(result.indices, selection._kmedoids_seeding(pool, 3, 4))


def _flatnonzero_lloyd(geom, medoids, max_iters):
    # The Lloyd loop as it read before clusters came from one stable sort:
    # one np.flatnonzero(assign == k) scan per cluster.
    from fillgap import selection

    n, budget = geom.n, medoids.size
    assign = np.empty(n, dtype=np.int64)
    for _ in range(max_iters):
        for lo, hi in selection._row_blocks(n, budget):
            assign[lo:hi] = geom.dists(medoids, slice(lo, hi)).argmin(axis=0)
        assign[medoids] = np.arange(budget)
        updated = medoids.copy()
        for k in range(budget):
            members = np.flatnonzero(assign == k)
            costs = np.empty(members.size)
            for lo, hi in selection._row_blocks(members.size, members.size):
                costs[lo:hi] = geom.dists(members[lo:hi], members).sum(axis=1)
            updated[k] = members[int(np.argmin(costs))]
        if np.array_equal(updated, medoids):
            break
        medoids = updated
    return medoids


@st.composite
def _pools_with_duplicates(draw):
    # Rows drawn from a few distinct points on a small integer grid, so rows
    # repeat and distances tie.
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    n = draw(st.integers(2, 40))
    d = draw(st.integers(1, 3))
    distinct = rng.integers(-3, 4, size=(draw(st.integers(1, n)), d)).astype(np.float64)
    pool = distinct[rng.integers(0, distinct.shape[0], size=n)]
    return pool, draw(st.integers(1, n)), seed


@settings(max_examples=60, deadline=None)
@given(_pools_with_duplicates())
def test_kmedoids_lloyd_matches_the_flatnonzero_loop(case):
    # Members listed by one stable sort are the rows each flatnonzero scan
    # finds, in the same order, so every medoid agrees bit for bit: from the
    # ++ seeding and from any distinct start, on a kept matrix and on
    # recomputed blocks.
    from fillgap import selection

    pool, budget, seed = case
    n = pool.shape[0]
    starts = (
        selection._kmedoids_seeding(pool, budget, seed),
        np.random.default_rng(seed).permutation(n)[:budget],
    )
    for geom in (selection._Geometry(pool), selection._Geometry(pool, keep_matrix=False)):
        for start in starts:
            for max_iters in (1, 2, selection._KMEDOIDS_MAX_ITERS):
                kept = start.copy()
                result = selection._kmedoids_lloyd(geom, start, max_iters)
                assert np.array_equal(start, kept)  # the start is left as it is
                assert np.array_equal(result, _flatnonzero_lloyd(geom, start, max_iters))


def test_kmedoids_seeding_is_a_prefix_of_larger_budgets():
    # A sweep seeds once per repeat at its largest budget and runs Lloyd from
    # each budget's prefix. Each draw reads only the earlier picks, also once
    # every remaining row duplicates a chosen one and the zero-mass branch
    # takes the smallest unselected row.
    from fillgap import selection

    rng = np.random.default_rng(7)
    pools = {
        "four_points": rng.normal(size=(4, 2))[rng.integers(0, 4, size=60)],
        "two_points": np.array([[0.0, 0.0]] * 30 + [[1.0, 0.5]] * 30),
        "all_equal": np.full((25, 3), 2.0),
        "small_integers": rng.integers(-1, 2, size=(80, 2)).astype(np.float64),
    }
    for name, pool in pools.items():
        n = pool.shape[0]
        distinct = np.unique(pool, axis=0).shape[0]
        for seed in (0, 1, 17):
            full = selection._kmedoids_seeding(pool, n, seed)
            assert np.unique(full).size == n, name
            # Past the distinct points every pick is the smallest unselected row.
            rest = full[distinct:]
            assert np.array_equal(rest, np.sort(rest)), name
            for budget in range(1, n + 1):
                part = selection._kmedoids_seeding(pool, budget, seed)
                assert np.array_equal(part, full[:budget]), (name, seed, budget)
                assert np.array_equal(kmedoidspp(pool, budget, seed=seed, max_iters=0).indices, part)


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
            # The sweep's one run at the largest budget serves every budget.
            geom = selection._Geometry(pool)
            (run,) = selection._sweep_runs(geom, spec, [2, 10, 25, 40], 17, traced=False)
            assert list(run[3]) == [0, 1, 2, 3]
            assert np.array_equal(run[0], full.indices)
            assert np.array_equal(run[1], full.fill_trace)
            assert np.array_equal(run[2], full.sep_trace, equal_nan=True)


@pytest.mark.parametrize("traced", [True, False])
def test_sweep_runs_kmedoidspp_once_per_budget(traced):
    # k-medoids++ is no prefix kind: the sweep runs it once per budget, from
    # one seeding, and each run equals the standalone call at that budget.
    from fillgap import selection

    rng = np.random.default_rng(32)
    pool = rng.uniform(-1, 1, size=(60, 3))
    sizes = [2, 10, 25, 40]
    geom, spec = selection._Geometry(pool), StrategySpec("kmedoidspp")
    runs = list(selection._sweep_runs(geom, spec, sizes, 17, traced))
    assert [list(run[3]) for run in runs] == [[0], [1], [2], [3]]
    for (medoids, fill, sep, _), size in zip(runs, sizes):
        alone = kmedoidspp(pool, size, seed=17)
        assert np.array_equal(medoids, alone.indices)
        if traced:
            assert np.array_equal(fill, alone.fill_trace)
            assert np.array_equal(sep, alone.sep_trace, equal_nan=True)
        else:
            assert fill is None and sep is None


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
    with pytest.raises(DataError, match="^separation distance needs at least 2 selected rows$"):
        maxsep_bruteforce(LINE5, 1)


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


def test_selection_result_json_without_traces_writes_valid_json():
    # A file without traces reads as NaN traces, which are written as null.
    def reject(constant):
        raise AssertionError(f"bare {constant} in selection JSON")

    text = json.dumps({"strategy": "fps", "seed": 2, "indices": [3, 1]})
    traceless = SelectionResult.from_json(text)
    assert np.isnan(traceless.fill_trace).all() and np.isnan(traceless.sep_trace).all()
    text = traceless.to_json()
    payload = json.loads(text, parse_constant=reject)
    assert payload["fill_trace"] == payload["sep_trace"] == [None, None]
    back = SelectionResult.from_json(text)
    assert np.isnan(back.fill_trace).all() and np.isnan(back.sep_trace).all()
    assert back.indices.tolist() == [3, 1] and back.seed == 2


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


@pytest.mark.parametrize("seed", [7.9, "7", True, None, math.nan, math.inf, [7]])
def test_selection_result_json_rejects_a_seed_that_is_not_an_integer(seed):
    # A cast would read 7.9 as seed 7.
    text = json.dumps({"strategy": "fps", "seed": seed, "indices": [3, 1]})
    with pytest.raises(DataError, match="malformed selection JSON"):
        SelectionResult.from_json(text)


@pytest.mark.parametrize("seed", [7, 7.0, 13910599620879966349])
def test_selection_result_json_reads_integral_seeds_exactly(seed):
    # Seeds past 2**53 are not rounded through a float.
    text = json.dumps({"strategy": "fps", "seed": seed, "indices": [3, 1]})
    loaded = SelectionResult.from_json(text).seed
    assert loaded == int(seed) and type(loaded) is int


def test_selection_result_invariants():
    with pytest.raises(DataError):
        SelectionResult(
            indices=np.array([1, 1]),
            fill_trace=np.zeros(2),
            sep_trace=np.zeros(2),
            strategy="fps",
            seed=0,
        )
    with pytest.raises(DataError, match="^traces must have one entry per selection step$"):
        SelectionResult([1, 2], np.zeros(2), np.zeros(3), strategy="fps", seed=0)


@pytest.mark.parametrize(
    "trace,message",
    [
        (["a"], "got <U1 values"),
        (["0.5"], "got <U3 values"),
        ([True], "got bool values"),
        ([[0.5], [0.5, 1.0]], "got a ragged sequence"),
    ],
    ids=["string", "numeric-string", "bool", "ragged"],
)
@pytest.mark.parametrize("key", ["fill_trace", "sep_trace"])
def test_selection_result_rejects_traces_that_are_not_real_numbers(key, trace, message):
    # A cast read ["0.5"] and [True] as numbers and raised a bare ValueError for ["a"].
    traces = {"fill_trace": [0.5], "sep_trace": [math.nan], key: trace}
    with pytest.raises(DataError, match=f"^{key} must be an array of real numbers, {message}$"):
        SelectionResult([0], strategy="fps", seed=0, **traces)
    text = json.dumps({"strategy": "fps", "seed": 0, "indices": [0], key: trace})
    with pytest.raises(DataError, match="malformed selection JSON"):
        SelectionResult.from_json(text)


@pytest.mark.parametrize("inf", [math.inf, -math.inf])
@pytest.mark.parametrize("key", ["fill_trace", "sep_trace"])
def test_selection_result_rejects_infinite_trace_entries(key, inf):
    # A trace holds distances, or NaN where one is undefined. An inf entry was
    # written as a bare Infinity token, which is not JSON, and read back.
    traces = {"fill_trace": [0.5], "sep_trace": [math.nan], key: [inf]}
    with pytest.raises(DataError, match=f"^{key} must have finite or NaN entries, got Inf$"):
        SelectionResult([0], strategy="fps", seed=0, **traces)
    text = json.dumps({"strategy": "fps", "seed": 0, "indices": [0], key: [inf]})
    assert "Infinity" in text
    with pytest.raises(DataError, match="malformed selection JSON"):
        SelectionResult.from_json(text)
