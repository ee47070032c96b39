import dataclasses
import math
import pathlib
import re

import numpy as np
import pytest

from fillgap.dataset import Dataset, SynthConfig, save_dataset, synth_lipschitz
from fillgap.errors import ConfigError, DataError
from fillgap.experiment import (
    METRICS,
    _KEYS,
    _resolve_model,
    Aggregate,
    ExperimentConfig,
    ModelConfig,
    RunRow,
    aggregate_runs,
    aggregates_csv,
    load_experiment_config,
    pool_from_config,
    resolve_budget,
    rows_csv,
    run_experiment,
    summary_table,
    write_report,
)
from fillgap.regression import grid_search_cv_report
from fillgap.rng import child_seed
from fillgap.selection import StrategySpec, fps, select


def small_config(**overrides):
    defaults = dict(
        strategies=(StrategySpec(kind="fps"), StrategySpec(kind="random")),
        budgets=(0.05, 0.1),
        metrics=("maxae", "mae", "fill_distance"),
        master_seed=7,
        repeats=2,
        synth=SynthConfig(n=120, d=3, target_lipschitz=1.5, noise_level=0.05, seed=3),
        model=ModelConfig(gamma=None, lam=1e-8),
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


# ---------------------------------------------------------------------------
# Budget resolution
# ---------------------------------------------------------------------------


def test_resolve_budget_half_up():
    assert resolve_budget(0.02, 1000) == 20
    assert resolve_budget(0.025, 100) == 3  # 2.5 rounds half-up
    assert resolve_budget(1.0, 7) == 7


def test_resolve_budget_too_small():
    with pytest.raises(DataError, match="fewer than 2"):
        resolve_budget(0.001, 100)


def test_resolve_budget_rounds_before_the_minimum():
    # 1.5 rows round half-up to 2, as grid search's train sizes do; 1.49 to 1.
    assert resolve_budget(0.015, 100) == 2
    with pytest.raises(DataError, match="fewer than 2"):
        resolve_budget(0.0149, 100)


# ---------------------------------------------------------------------------
# run_experiment
# ---------------------------------------------------------------------------


def test_row_count_single_cell():
    cfg = small_config(
        strategies=(StrategySpec(kind="fps"),),
        budgets=(0.1,),
        repeats=1,
        metrics=("maxae", "mae"),
    )
    report = run_experiment(cfg)
    assert len(report.rows) == 2  # one row per metric
    assert {r.metric for r in report.rows} == {"maxae", "mae"}


def test_report_counts_and_aggregate_structure():
    cfg = small_config()
    report = run_experiment(cfg)
    cells = len(cfg.strategies) * len(cfg.budgets) * cfg.repeats
    assert len(report.rows) == cells * len(cfg.metrics)
    assert len(report.aggregates) == len(cfg.strategies) * len(cfg.budgets) * len(cfg.metrics)
    for agg in report.aggregates:
        assert agg.count + agg.failures == cfg.repeats


def test_reports_are_bit_identical_across_runs():
    cfg = small_config()
    a = run_experiment(cfg)
    b = run_experiment(cfg)
    assert a == b
    assert rows_csv(a) == rows_csv(b)
    assert aggregates_csv(a) == aggregates_csv(b)


def test_fill_distance_non_increasing_across_budgets_for_fps():
    # budgets share their repeat's seed, so each fps run is a prefix of the
    # next and the fill column is monotone within every seed
    cfg = small_config(
        strategies=(StrategySpec(kind="fps"),),
        budgets=(0.05, 0.1, 0.2),
        metrics=("fill_distance",),
        repeats=3,
    )
    report = run_experiment(cfg)
    by_seed = {}
    for row in report.rows:
        by_seed.setdefault(row.seed, []).append((row.budget, row.value))
    assert len(by_seed) == 3
    for cells in by_seed.values():
        values = [v for _, v in sorted(cells)]
        assert values[0] >= values[1] >= values[2]


def test_sweep_selects_once_per_strategy_and_repeat(monkeypatch):
    # Prefix samplers select once at the largest budget. k-medoids++ seeds
    # once per repeat at the largest budget and runs Lloyd per cell from that
    # seeding's prefix; it walks the medoids' traces only when a trace metric
    # is listed. Facility location, k-medoids++ and every cell's kernels read
    # one pool-by-pool matrix of squared distances, built before the first
    # selection because the strategies list a reader of it; gamma=auto reads
    # the raw pool and builds none.
    from fillgap import experiment, selection

    events = []  # selection work and n x B gathers, in the order they ran
    cdist_calls = []  # (metric, rows, columns, events before the call)
    cdist = selection.cdist
    columns = selection._Geometry.columns
    select = selection.select
    seeding = selection._kmedoids_seeding
    lloyd = selection._kmedoids_lloyd
    traces = selection.selection_traces

    def counting_select(pool, spec, budget, seed=0):
        events.append(("select", spec.kind, budget))
        return select(pool, spec, budget, seed=seed)

    def counting_seeding(points, budget, seed):
        events.append(("seeding", budget))
        return seeding(points, budget, seed)

    def counting_lloyd(geom, medoids, max_iters):
        events.append(("lloyd", medoids.size, max_iters))
        return lloyd(geom, medoids, max_iters)

    def counting_traces(pool, indices):
        events.append(("traces", len(indices)))
        return traces(pool, indices)

    def counting_cdist(a, b, metric="euclidean", **kwargs):
        cdist_calls.append((metric, len(a), len(b), len(events)))
        return cdist(a, b, metric, **kwargs)

    def counting_columns(self, indices):
        events.append(("gather", len(indices), self._matrix is not None))
        return columns(self, indices)

    monkeypatch.setattr(selection, "select", counting_select)
    monkeypatch.setattr(selection, "_kmedoids_seeding", counting_seeding)
    monkeypatch.setattr(selection, "_kmedoids_lloyd", counting_lloyd)
    monkeypatch.setattr(selection, "selection_traces", counting_traces)
    monkeypatch.setattr(selection, "cdist", counting_cdist)
    monkeypatch.setattr(selection._Geometry, "columns", counting_columns)
    kinds = ("fps", "random", "facility_location", "kmedoidspp", "fps_then_random")
    cfg = small_config(
        strategies=tuple(
            StrategySpec(kind=k, switch_fraction=0.1 if k == "fps_then_random" else None)
            for k in kinds
        ),
        budgets=(0.05, 0.1, 0.2),
        metrics=("maxae", "mae", "fill_distance", "sep_distance", "cond_unregularized"),
        repeats=2,
    )
    sizes = [resolve_budget(b, 120) for b in cfg.budgets]

    def expected(traced):
        # Each selection run, one per prefix (strategy, repeat) and one per
        # k-medoids++ cell, gathers its n x B kernel block from the n x n
        # matrix once, right after it selects, and every cell it serves
        # slices that block. The fps and random runs listed before facility
        # location gather from it too. Random selection walks its traces
        # whatever the metrics.
        pattern = []
        for kind in kinds:
            for _ in range(cfg.repeats):
                if kind != "kmedoidspp":
                    pattern.append(("select", kind, max(sizes)))
                    pattern += [("traces", max(sizes))] if kind == "random" else []
                    pattern.append(("gather", max(sizes), True))
                    continue
                pattern.append(("seeding", max(sizes)))
                for size in sizes:
                    pattern.append(("lloyd", size, selection._KMEDOIDS_MAX_ITERS))
                    pattern += [("traces", size)] if traced else []
                    pattern.append(("gather", size, True))
        return pattern

    report = run_experiment(cfg)
    assert events == expected(traced=True)
    # The n x n matrix is computed once, before the first selection, and
    # gamma=auto's nearest-neighbour pass, before it, makes the only
    # Euclidean cdist calls.
    assert all(c[3] == 0 for c in cdist_calls if c[0] != "sqeuclidean")
    assert [c for c in cdist_calls if c[0] == "sqeuclidean"] == [("sqeuclidean", 120, 120, 0)]
    # Without a trace metric no k-medoids++ cell walks its medoids.
    events.clear()
    untraced = dataclasses.replace(cfg, metrics=("maxae", "mae", "cond_unregularized"))
    run_experiment(untraced)
    assert events == expected(traced=False)
    # Recomputing every distance and kernel block instead of slicing agrees.
    with monkeypatch.context() as m:
        m.setattr(selection, "_DENSE_MATRIX_LIMIT", 0)
        assert rows_csv(run_experiment(cfg)) == rows_csv(report)


def _duplicated_pool(n=120):
    # Six distinct points: once they are picked every other row is at
    # distance zero from the selection.
    rng = np.random.default_rng(5)
    features = rng.uniform(size=(6, 3))[rng.integers(0, 6, size=n)]
    return Dataset(features, labels=features.sum(axis=1))


@pytest.mark.parametrize("limit", [8192, 0])
@pytest.mark.parametrize("duplicated", [False, True])
def test_sweep_cells_equal_standalone_samplers(monkeypatch, limit, duplicated):
    # Every cell trains on exactly the rows its sampler selects on its own at
    # the cell's budget and repeat seed, with the same fill and separation:
    # a prefix strategy's slice of its run at the largest budget, and a
    # k-medoids++ cell's Lloyd run from its repeat's one seeding. Both on the
    # kept n x n matrix and on recomputed blocks.
    from fillgap import experiment, selection

    monkeypatch.setattr(selection, "_DENSE_MATRIX_LIMIT", limit)
    cells = []
    cell_values = experiment._cell_values

    def recording(cfg, pool, idx, traces, *args):
        cells.append((idx.copy(), dict(traces)))
        return cell_values(cfg, pool, idx, traces, *args)

    monkeypatch.setattr(experiment, "_cell_values", recording)
    kinds = ("fps", "random", "facility_location", "kmedoidspp", "fps_then_random")
    cfg = small_config(
        strategies=tuple(
            StrategySpec(kind=k, switch_fraction=0.1 if k == "fps_then_random" else None)
            for k in kinds
        ),
        budgets=(0.05, 0.1, 0.2, 0.4),
        metrics=("mae", "fill_distance", "sep_distance"),
        repeats=2,
        model=ModelConfig(gamma=2.0, lam=1e-8),  # gamma=auto rejects duplicate-heavy pools
    )
    pool = _duplicated_pool() if duplicated else synth_lipschitz(cfg.synth)
    run_experiment(cfg, pool=pool)
    sizes = [resolve_budget(b, pool.n) for b in cfg.budgets]
    expected = []
    for spec in cfg.strategies:
        for rep in range(cfg.repeats):
            seed = child_seed(cfg.master_seed, spec.label, rep)
            for size in sizes:
                alone = select(pool.features, spec, size, seed=seed)
                traces = {"fill_distance": alone.fill_trace[-1], "sep_distance": alone.sep_trace[-1]}
                expected.append((alone.indices, traces))
    assert len(cells) == len(expected)
    for (idx, traces), (alone, alone_traces) in zip(cells, expected):
        assert np.array_equal(idx, alone)
        assert traces == alone_traces


@pytest.mark.parametrize("limit", [8192, 0])
def test_sweep_slicing_changes_no_metric(monkeypatch, limit):
    # A prefix strategy's cells read the first rows and columns of one n x B
    # block gathered at the largest budget, and k-medoids++ cells share one
    # seeding. Selecting every cell on its own at its budget, through select,
    # and gathering its own n x size block writes the same rows: every metric
    # keeps its bits, the kernel ones included. Both on the kept n x n matrix
    # and on recomputed blocks.
    from fillgap import experiment, selection

    monkeypatch.setattr(selection, "_DENSE_MATRIX_LIMIT", limit)
    kinds = ("fps", "random", "facility_location", "kmedoidspp", "fps_then_random")
    cfg = small_config(
        strategies=tuple(
            StrategySpec(kind=k, switch_fraction=0.1 if k == "fps_then_random" else None)
            for k in kinds
        ),
        budgets=(0.05, 0.1, 0.2),
        metrics=METRICS,
        repeats=2,
    )
    report = run_experiment(cfg)

    def per_cell(geometry, spec, sizes, seed, traced):
        for col, size in enumerate(sizes):
            result = select(geometry, spec, size, seed=seed)
            yield result.indices, result.fill_trace, result.sep_trace, (col,)

    monkeypatch.setattr(experiment, "_sweep_runs", per_cell)
    assert rows_csv(run_experiment(cfg)) == rows_csv(report)


def test_sweep_without_a_pool_matrix_reader_builds_none(monkeypatch):
    # fps and random read no pool-by-pool block, and gamma=auto reads the raw
    # pool, so each selection run computes its n x B kernel block and no n x n
    # matrix is built, with a pinned gamma or with gamma=auto.
    import tracemalloc

    from fillgap import selection
    from fillgap.selection import select

    selections = []
    shapes = []  # (metric, rows, columns, selections made before the call)
    cdist = selection.cdist

    def counting(pool, spec, budget, seed=0):
        selections.append(spec.kind)
        return select(pool, spec, budget, seed=seed)

    def counting_cdist(a, b, metric="euclidean", **kwargs):
        shapes.append((metric, len(a), len(b), len(selections)))
        return cdist(a, b, metric, **kwargs)

    monkeypatch.setattr(selection, "select", counting)
    monkeypatch.setattr(selection, "cdist", counting_cdist)
    n = 3000  # the n x n matrix alone would take 72 MB
    big = synth_lipschitz(SynthConfig(n=n, d=8, target_lipschitz=1.5, seed=3))
    for gamma in (2.0, None):
        cfg = small_config(
            strategies=(StrategySpec("fps"), StrategySpec("random")),
            model=ModelConfig(gamma=gamma, lam=1e-6),
            repeats=2,
        )
        selections.clear()
        shapes.clear()
        report = run_experiment(cfg)
        budget = resolve_budget(max(cfg.budgets), 120)
        blocks = [("sqeuclidean", 120, budget, i + 1) for i in range(4)]
        if gamma is None:
            # gamma=auto's nearest-neighbour pass adds Euclidean candidate
            # blocks, all before the first selection.
            assert {s[0] for s in shapes[: -len(blocks)]} == {"euclidean"}
            assert all(s[3] == 0 for s in shapes[: -len(blocks)])
            assert shapes[-len(blocks) :] == blocks
        else:
            assert shapes == blocks
        with monkeypatch.context() as m:
            m.setattr(selection, "_DENSE_MATRIX_LIMIT", 0)
            assert rows_csv(run_experiment(cfg)) == rows_csv(report)

        tracemalloc.start()
        try:
            run_experiment(dataclasses.replace(cfg, budgets=(0.01, 0.02)), pool=big)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n * n * 8 / 2, gamma


def test_gamma_auto_on_too_small_distances_raises_data_error():
    # ln 2 / median^2 overflows at scale 1e-160: the sweep must not run its
    # kernels at gamma=inf.
    features = np.random.default_rng(0).uniform(size=(50, 3)) * 1e-160
    pool = Dataset(features, labels=np.arange(50.0))
    with pytest.raises(DataError, match="too small"):
        run_experiment(small_config(budgets=(0.1, 0.2)), pool=pool)


def test_too_small_budget_fails_before_any_pool_work(monkeypatch):
    from fillgap import experiment

    def never(*args, **kwargs):
        raise AssertionError("pool work started before every budget was resolved")

    monkeypatch.setattr(experiment, "_sweep_runs", never)
    monkeypatch.setattr(experiment, "gamma_for_half_kernel", never)
    cfg = small_config(budgets=(0.01, 0.5), metrics=("fill_distance",))  # 1.2 of 120 rows
    with pytest.raises(DataError, match="fewer than 2"):
        run_experiment(cfg)


def test_training_and_evaluation_sets_disjoint():
    # reproduce a cell's selection and check the complement evaluation
    cfg = small_config(repeats=1)
    pool = synth_lipschitz(cfg.synth)
    from fillgap.rng import child_seed
    from fillgap.selection import select

    for spec in cfg.strategies:
        for budget in cfg.budgets:
            size = resolve_budget(budget, pool.n)
            seed = child_seed(cfg.master_seed, spec.label, 0)
            result = select(pool.features, spec, size, seed=seed)
            mask = np.ones(pool.n, dtype=bool)
            mask[result.indices] = False
            assert mask.sum() == pool.n - size


def test_failed_cells_recorded_not_fatal():
    # duplicated rows force a singular kernel at lambda zero whenever both
    # duplicates are selected; budget 1.0 selects everything, guaranteeing it
    feats = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0], [2.0, 0.5]])
    pool = Dataset(feats, labels=np.array([1.0, 1.0, 2.0, 3.0]))
    cfg = ExperimentConfig(
        strategies=(StrategySpec(kind="random"),),
        budgets=(1.0,),
        metrics=("maxae", "mae", "sep_distance"),
        master_seed=1,
        repeats=2,
        dataset_path=None,
        synth=SynthConfig(n=4, d=2, seed=0),  # replaced by explicit pool below
        model=ModelConfig(gamma=1.0, lam=0.0),
    )
    report = run_experiment(cfg, pool=pool)
    for agg in report.aggregates:
        if agg.metric in ("maxae", "mae"):
            assert agg.failures == 2 and math.isnan(agg.mean)
        else:
            assert agg.failures == 0
            assert agg.mean == 0.0  # duplicates give zero separation


@pytest.mark.parametrize("limit", [8192, 0])
def test_failed_prefix_cells_recorded_on_both_kernel_paths(monkeypatch, limit):
    # Two distinct points in ten rows: any three selected rows repeat one, so
    # the kernel at lambda zero is singular in every cell, on the shared-block
    # path and on the per-cell path alike.
    from fillgap import selection

    monkeypatch.setattr(selection, "_DENSE_MATRIX_LIMIT", limit)
    feats = np.array([[0.0, 0.0]] * 6 + [[1.0, 0.5]] * 4)
    pool = Dataset(feats, labels=np.arange(10.0))
    cfg = ExperimentConfig(
        strategies=(StrategySpec(kind="fps"), StrategySpec(kind="random")),
        budgets=(0.3, 0.5),
        metrics=("maxae", "mae", "fill_distance", "cond_unregularized"),
        master_seed=1,
        repeats=2,
        synth=SynthConfig(n=4, d=2, seed=0),  # replaced by explicit pool below
        model=ModelConfig(gamma=1.0, lam=0.0),
    )
    report = run_experiment(cfg, pool=pool)
    for agg in report.aggregates:
        if agg.metric in ("maxae", "mae", "cond_unregularized"):
            assert agg.failures == 2 and math.isnan(agg.mean), agg
        else:
            assert agg.failures == 0 and math.isfinite(agg.mean), agg


def _refuse_to_allocate(monkeypatch, shape):
    empty = np.empty

    def refusing(requested, *args, **kwargs):
        if requested == shape:
            raise MemoryError("Unable to allocate")
        return empty(requested, *args, **kwargs)

    monkeypatch.setattr(np, "empty", refusing)


def test_kernel_block_that_cannot_be_allocated_raises_data_error(monkeypatch):
    # Facility location builds the pool-by-pool matrix the kernels gather
    # from. A pinned gamma: gamma=auto's score block at n=120 is 120 x 120 too.
    _refuse_to_allocate(monkeypatch, (120, 120))
    cfg = small_config(
        strategies=(StrategySpec("facility_location"),), model=ModelConfig(gamma=0.5, lam=1e-8)
    )
    with pytest.raises(DataError, match=r"120 x 120 float64 matrix \(.* GiB\)"):
        run_experiment(cfg)


def test_selection_block_that_cannot_be_allocated_raises_data_error(monkeypatch):
    # With a pinned gamma fps and random build no pool-by-pool matrix; each
    # selection run computes its own block, here the one at budget 0.1.
    _refuse_to_allocate(monkeypatch, (120, 12))
    with pytest.raises(DataError, match=r"120 x 12 float64 matrix \(.* GiB\)"):
        run_experiment(small_config(model=ModelConfig(gamma=0.5, lam=1e-8)))


def test_metrics_without_labels_do_not_require_them():
    feats = np.random.default_rng(0).normal(size=(50, 2))
    pool = Dataset(feats)  # no labels
    cfg = ExperimentConfig(
        strategies=(StrategySpec(kind="fps"),),
        budgets=(0.2,),
        metrics=("fill_distance", "sep_distance", "cond_unregularized"),
        master_seed=3,
        repeats=2,
        synth=SynthConfig(n=4, d=2, seed=0),
        model=ModelConfig(gamma=0.5, lam=0.0),
    )
    report = run_experiment(cfg, pool=pool)
    assert all(not math.isnan(r.value) for r in report.rows)


def test_conditioning_metrics_behave(monkeypatch):
    solves = []
    eigvalsh = np.linalg.eigvalsh

    def counted(matrix):
        solves.append(matrix.shape)
        return eigvalsh(matrix)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    cfg = small_config(
        metrics=("cond_regularized", "cond_unregularized"),
        model=ModelConfig(gamma=None, lam=1e-4),
        repeats=2,
    )
    report = run_experiment(cfg)
    rows = {}
    for r in report.rows:
        rows.setdefault((r.strategy, r.budget, r.seed), {})[r.metric] = r.value
    assert len(solves) == len(rows)  # one eigen-solve per cell for both metrics
    for cell in rows.values():
        if not math.isnan(cell["cond_unregularized"]):
            assert cell["cond_regularized"] <= cell["cond_unregularized"] * (1 + 2**-51)


# ---------------------------------------------------------------------------
# aggregate_runs
# ---------------------------------------------------------------------------


def test_aggregate_singleton():
    aggs = aggregate_runs([RunRow("fps", 0.1, 1, "maxae", 3.0)])
    assert aggs[0].mean == 3.0 and aggs[0].std == 0.0 and aggs[0].count == 1


def test_aggregate_mean_and_population_std():
    rows = [RunRow("fps", 0.1, s, "maxae", v) for s, v in ((1, 1.0), (2, 3.0))]
    agg = aggregate_runs(rows)[0]
    assert agg.mean == 2.0 and agg.std == 1.0  # population std, not sample


def test_aggregate_with_failures():
    rows = [
        RunRow("fps", 0.1, 1, "maxae", 4.0),
        RunRow("fps", 0.1, 2, "maxae", math.nan),
        RunRow("fps", 0.1, 3, "maxae", 6.0),
    ]
    agg = aggregate_runs(rows)[0]
    assert agg.mean == 5.0 and agg.count == 2 and agg.failures == 1


def test_aggregate_empty_rejected():
    with pytest.raises(DataError):
        aggregate_runs([])


# ---------------------------------------------------------------------------
# Config file parsing
# ---------------------------------------------------------------------------


GOOD_CONFIG = """
[synth]
n = 120
d = 3
target_lipschitz = 1.5
noise_level = 0.05
tail_fraction = 0.0
seed = 3

[sweep]
strategies = fps, random, fps_then_random:0.02
budgets = 0.05, 0.1
repeats = 2
metrics = maxae, mae
master_seed = 7

[model]
gamma = auto
lambda = 1e-8
"""


def test_load_config_roundtrip(tmp_path):
    path = tmp_path / "exp.ini"
    path.write_text(GOOD_CONFIG)
    cfg = load_experiment_config(path)
    assert [s.label for s in cfg.strategies] == ["fps", "random", "fps_then_random:0.02"]
    assert cfg.budgets == (0.05, 0.1)
    assert cfg.repeats == 2
    assert cfg.model.lam == 1e-8 and cfg.model.gamma is None
    assert cfg.synth.n == 120
    report = run_experiment(cfg)
    assert len(report.aggregates) == 3 * 2 * 2


def test_load_config_with_dataset_path(tmp_path):
    ds = synth_lipschitz(SynthConfig(n=40, d=2, target_lipschitz=1.0, seed=1))
    csv_path = tmp_path / "pool.csv"
    save_dataset(ds, csv_path)
    path = tmp_path / "exp.ini"
    path.write_text(
        f"""
[dataset]
path = {csv_path}
label_column = y

[sweep]
strategies = fps
budgets = 0.2
master_seed = 1
metrics = maxae
repeats = 1

[model]
gamma = 1.0
lambda = 1e-9
"""
    )
    cfg = load_experiment_config(path)
    assert cfg.dataset_path == str(csv_path)
    report = run_experiment(cfg)
    assert len(report.rows) == 1


@pytest.mark.parametrize(
    "mutation,field",
    [
        ("strategies = warp", "strategies"),
        ("strategies = fps_then_random:1.5", r"\[sweep\] strategies: switch_fraction must be in \(0, 1\)"),
        ("strategies = fps:0.5", r"\[sweep\] strategies: switch_fraction is only valid for fps_then_random"),
        ("budgets = 0.5, 0.2", "budgets"),
        ("budgets = 0.0, 0.5", "budgets"),
        ("repeats = zero", "repeats"),
        ("metrics = maxae, bogus", "metrics"),
        ("master_seed = x", "master_seed"),
        ("n = 2.5", r"\[synth\] n must be integral, got 2.5$"),
        ("repeats = 2.5", r"\[sweep\] repeats must be integral, got 2.5$"),
        ("master_seed = 1e400", r"\[sweep\] master_seed must be integral, got inf$"),
        ("gamma = abc", r"\[model\] gamma must be a number or 'auto', got 'abc'$"),
    ],
)
def test_bad_config_names_field(tmp_path, mutation, field):
    lines = []
    replaced = False
    for line in GOOD_CONFIG.splitlines():
        key = mutation.split("=")[0].strip()
        if line.strip().startswith(key + " ") or line.strip().startswith(key + "="):
            lines.append(mutation)
            replaced = True
        else:
            lines.append(line)
    assert replaced
    path = tmp_path / "exp.ini"
    path.write_text("\n".join(lines))
    with pytest.raises(ConfigError, match=field):
        load_experiment_config(path)


@pytest.mark.parametrize(
    "setting,message",
    [("folds = 1", r"\[model\] folds must be >= 2"), ("grid_repeats = 0", r"\[model\] grid_repeats must be >= 1")],
    ids=["folds", "grid_repeats"],
)
def test_bad_model_counts_fail_at_load_time(tmp_path, setting, message):
    path = tmp_path / "exp.ini"
    path.write_text(GOOD_CONFIG.replace("lambda = 1e-8", f"lambda = 1e-8\ngrid_search = true\n{setting}"))
    with pytest.raises(ConfigError, match=message):
        load_experiment_config(path)


def test_config_reads_integral_numbers_as_ints_and_boolean_words(tmp_path):
    # Every number is read once, as an int or a float, and the configs apply
    # the integer rule: 120.0 is the count 120, as SynthConfig(n=120.0) is.
    written = GOOD_CONFIG.replace("n = 120", "n = 120.0").replace("seed = 3", "seed = 3.0")
    written = written.replace("repeats = 2", "repeats = 2e0").replace("lambda = 1e-8", "lambda = 1e-8\nfolds = 5.0")
    paths = [tmp_path / "plain.ini", tmp_path / "written.ini"]
    for path, text in zip(paths, (GOOD_CONFIG, written)):
        path.write_text(text)
    plain, got = (load_experiment_config(path) for path in paths)
    assert got == plain and got.config_hash() == plain.config_hash()
    assert type(got.synth.n) is type(got.synth.seed) is type(got.repeats) is type(got.model.folds) is int
    for word, value in (("Yes", True), ("on", True), ("1", True), ("FALSE", False), ("off", False), ("0", False)):
        paths[1].write_text(GOOD_CONFIG.replace("lambda = 1e-8", f"lambda = 1e-8\ngrid_search = {word}"))
        assert load_experiment_config(paths[1]).model.grid_search is value, word
    paths[1].write_text(GOOD_CONFIG.replace("lambda = 1e-8", "lambda = 1e-8\ngrid_search = maybe"))
    with pytest.raises(ConfigError, match=r"^\[model\] grid_search must be a boolean, got 'maybe'$"):
        load_experiment_config(paths[1])


def test_grid_search_sweep_trains_at_the_report_pair_and_repeats(tmp_path):
    path = tmp_path / "exp.ini"
    path.write_text(GOOD_CONFIG.replace("lambda = 1e-8", "lambda = 1e-8\ngrid_search = true\nfolds = 3"))
    cfg = load_experiment_config(path)
    pool = pool_from_config(cfg)
    sizes = [resolve_budget(b, pool.n) for b in cfg.budgets]
    seed = child_seed(cfg.master_seed, "grid_search")
    report = grid_search_cv_report(pool, sizes, folds=3, seed=seed)
    assert _resolve_model(cfg, pool, sizes) == (report.gamma, report.lam)
    written = []
    for name in ("first", "second"):
        (tmp_path / name).mkdir()
        write_report(run_experiment(cfg), tmp_path / name / "rows.csv", tmp_path / name / "agg.csv")
        written.append((tmp_path / name / "rows.csv").read_bytes())
    assert written[0] == written[1]
    # Every cell trains at the searched pair: pinning it gives the same rows.
    pinned = dataclasses.replace(cfg, model=ModelConfig(gamma=report.gamma, lam=report.lam))
    assert rows_csv(run_experiment(pinned)).encode() == written[0]


def test_config_requires_sweep_section(tmp_path):
    path = tmp_path / "exp.ini"
    path.write_text("[synth]\nn = 10\nd = 2\n")
    with pytest.raises(ConfigError, match="sweep"):
        load_experiment_config(path)


def test_config_requires_exactly_one_source(tmp_path):
    path = tmp_path / "exp.ini"
    path.write_text(
        """
[sweep]
strategies = fps
budgets = 0.2
master_seed = 1
"""
    )
    with pytest.raises(ConfigError, match="dataset"):
        load_experiment_config(path)


def test_normalized_dataset_config_drops_constant_columns_and_scales(tmp_path):
    from fillgap.dataset import load_dataset, minmax_normalize, remove_zero_variance

    rng = np.random.default_rng(8)
    values = np.column_stack(
        [rng.uniform(-3, 5, size=30), np.full(30, 2.5), 1e3 * rng.uniform(size=30), rng.normal(size=30)]
    )
    data = tmp_path / "pool.csv"
    np.savetxt(data, values, delimiter=",", header="a,c,b,y", comments="")
    configs = {}
    for flag in ("true", "false"):
        path = tmp_path / f"{flag}.ini"
        path.write_text(
            f"[dataset]\npath = {data}\nlabel_column = y\nnormalize = {flag}\n\n"
            "[sweep]\nstrategies = fps\nbudgets = 0.5\nmaster_seed = 1\n\n[model]\ngamma = 1.0\n"
        )
        configs[flag] = load_experiment_config(path)
    pool = pool_from_config(configs["true"])
    raw = load_dataset(data, has_labels=True, label_column="y")
    expected = minmax_normalize(remove_zero_variance(raw)[0])[0]
    assert pool.features.tobytes() == expected.features.tobytes()
    assert pool.labels.tobytes() == raw.labels.tobytes()
    assert pool.feature_names == ("a", "b") and pool.features.min() == 0.0 and pool.features.max() == 1.0
    assert configs["true"].normalize and not configs["false"].normalize
    assert configs["true"].config_hash() != configs["false"].config_hash()


def _table_fields(*sections):
    return [name for section in sections for name, _ in _KEYS[section].values()]


def test_key_table_sets_each_field_once():
    for sections, cls, nested in (
        (("synth",), SynthConfig, set()),
        (("model",), ModelConfig, set()),
        (("dataset", "sweep"), ExperimentConfig, {"synth", "model"}),
    ):
        names = _table_fields(*sections)
        assert len(names) == len(set(names))
        assert set(names) == {f.name for f in dataclasses.fields(cls)} - nested


SHIPPED_CONFIGS = sorted((pathlib.Path(__file__).parents[1] / "configs").glob("*.ini"))


@pytest.mark.parametrize("path", SHIPPED_CONFIGS, ids=lambda p: p.name)
def test_shipped_configs_load_with_their_published_hashes(path):
    expected = {"synthetic_tail.ini": "790c926ca93294ec", "molecular_features.ini": "a79e4d9635631e67"}
    assert load_experiment_config(path).config_hash() == expected[path.name]


def test_config_hash_includes_start_index():
    fps = small_config(strategies=(StrategySpec("fps"),))
    started = small_config(strategies=(StrategySpec("fps", start_index=3),))
    assert fps.config_hash() != started.config_hash()
    assert run_experiment(fps).rows != run_experiment(started).rows


def test_config_hash_reads_float_fields_as_floats():
    def cfg(lipschitz, lam, budget):
        synth = SynthConfig(n=120, d=3, target_lipschitz=lipschitz, seed=3)
        return small_config(synth=synth, model=ModelConfig(gamma=None, lam=lam), budgets=(0.5, budget))

    assert cfg(2, 0, 1).config_hash() == cfg(2.0, 0.0, 1.0).config_hash()
    assert cfg(2, 0, 1).config_hash() != cfg(3, 0, 1).config_hash()
    # Integer fields keep their integer form.
    assert '"repeats": 2' in cfg(2, 0, 1).canonical()


def test_config_hash_reads_integral_fields_as_ints():
    # Before the integer rule, master_seed=7.0 hashed apart from 7 and
    # 7.9 was accepted.
    def cfg(seed, repeats, n, start_index, folds):
        return small_config(
            master_seed=seed,
            repeats=repeats,
            synth=SynthConfig(n=n, d=3, seed=3),
            strategies=(StrategySpec("fps", start_index=start_index),),
            model=ModelConfig(grid_search=True, folds=folds, grid_repeats=folds - 1),
        )

    expected = cfg(7, 2, 120, 3, 3)
    for values in ((7.0, 2.0, 120.0, 3.0, 3.0), (np.int64(7), np.uint8(2), np.int32(120), np.int64(3), np.int8(3))):
        got = cfg(*values)
        assert got == expected and got.config_hash() == expected.config_hash()
        assert got.canonical() == expected.canonical()


@pytest.mark.parametrize(
    "make,message",
    [
        (lambda: small_config(master_seed=7.9), r"\[sweep\] master_seed must be integral, got 7.9"),
        (lambda: small_config(master_seed="7"), r"\[sweep\] master_seed must be integral, got '7'"),
        (lambda: small_config(repeats=2.5), r"\[sweep\] repeats must be integral, got 2.5"),
        (lambda: ModelConfig(folds=2.5), r"\[model\] folds must be integral, got 2.5"),
        (lambda: ModelConfig(grid_repeats=True), r"\[model\] grid_repeats must be integral, got True"),
    ],
)
def test_config_counts_and_seeds_must_be_integral(make, message):
    with pytest.raises(ConfigError, match=message):
        make()


@pytest.mark.parametrize(
    "make,message",
    [
        (lambda: ModelConfig(lam="x"), r"\[model\] lambda must be a real number, got 'x'"),
        (lambda: ModelConfig(lam="1e-3"), r"\[model\] lambda must be a real number, got '1e-3'"),
        (lambda: ModelConfig(gamma=True), r"\[model\] gamma must be a real number, got True"),
        (lambda: small_config(budgets=("0.5",)), r"\[sweep\] budgets must be a real number, got '0.5'"),
        (lambda: small_config(budgets=(0.25, None)), r"\[sweep\] budgets must be a real number, got None"),
        (lambda: ModelConfig(gamma=-1), r"\[model\] gamma must be positive and finite, got -1$"),
        (lambda: ModelConfig(gamma=math.inf), r"\[model\] gamma must be positive and finite, got inf$"),
        (lambda: ModelConfig(lam=math.nan), r"\[model\] lambda must be non-negative and finite, got nan$"),
    ],
)
def test_config_floats_must_be_real_numbers(make, message):
    # A cast would accept "1e-3" and raise a bare ValueError for "x".
    with pytest.raises(ConfigError, match=message):
        make()


@pytest.mark.parametrize(
    "make,message",
    [
        (lambda: small_config(budgets=0.5), r"\[sweep\] budgets must be a sequence, got 0.5$"),
        (lambda: small_config(budgets="0.5"), r"\[sweep\] budgets must be a sequence, got '0.5'$"),
        (lambda: small_config(strategies=("fps",)), r"\[sweep\] strategies must be StrategySpec values, got 'fps'$"),
        (lambda: small_config(strategies=StrategySpec("fps")), r"\[sweep\] strategies must be a sequence, got StrategySpec"),
        (lambda: small_config(metrics="maxae"), r"\[sweep\] metrics must be a sequence, got 'maxae'$"),
        (lambda: small_config(metrics=None), r"\[sweep\] metrics must be a sequence, got None$"),
    ],
)
def test_config_sequence_fields_must_be_sequences(make, message):
    # Unchecked, budgets=0.5 raised a bare TypeError, strategies=("fps",) an
    # AttributeError, and metrics="maxae" was read as five unknown metrics.
    with pytest.raises(ConfigError, match=message):
        make()


def test_config_sequence_fields_are_stored_as_tuples():
    expected = small_config()
    got = small_config(
        strategies=list(expected.strategies), budgets=[0.05, 0.1], metrics=iter(expected.metrics)
    )
    assert got == expected and got.config_hash() == expected.config_hash()
    assert {type(getattr(got, name)) for name in ("strategies", "budgets", "metrics")} == {tuple}


def test_config_float_fields_take_real_numbers_of_any_numeric_type():
    model = ModelConfig(gamma=np.float32(0.5), lam=np.int64(0))
    assert (type(model.gamma), type(model.lam)) == (float, float)
    assert model == ModelConfig(gamma=0.5, lam=0.0)
    cfg = small_config(budgets=(np.float64(0.25), 1))
    assert cfg.budgets == (0.25, 1.0) and {type(b) for b in cfg.budgets} == {float}


@pytest.mark.parametrize(
    "addition,key",
    [
        ("[dataset]\nnormalise = true", "normalise"),
        ("[synth]\ntail_fracton = 0.05", "tail_fracton"),
        ("[sweep]\nrepeat = 9", "repeat"),
        ("[model]\nlamda = 1e-3", "lamda"),
        ("[grid]\nfolds = 3", "grid"),
    ],
    ids=["dataset", "synth", "sweep", "model", "section"],
)
def test_unknown_key_or_section_is_config_error(tmp_path, addition, key):
    section = addition.split("\n")[0]
    path = tmp_path / "exp.ini"
    path.write_text(
        GOOD_CONFIG.replace(section, addition) if section in GOOD_CONFIG else GOOD_CONFIG + addition
    )
    with pytest.raises(ConfigError, match=rf"unknown (keys|sections) \['{key}'\]; valid: \["):
        load_experiment_config(path)


def test_synth_keys_are_synth_configs_fields(tmp_path):
    path = tmp_path / "exp.ini"
    path.write_text(GOOD_CONFIG.replace("[synth]", "[synth]\ntail_fracton = 0.05"))
    valid = "['n', 'd', 'target_lipschitz', 'noise_level', 'tail_fraction', 'seed']"
    with pytest.raises(ConfigError) as exc:
        load_experiment_config(path)
    assert str(exc.value) == f"[synth] unknown keys ['tail_fracton']; valid: {valid}"


@pytest.mark.parametrize(
    "text,message",
    [(None, "cannot read config "), ("[sweep\nstrategies = fps\n", "malformed config ")],
    ids=["unreadable", "malformed"],
)
def test_unreadable_or_malformed_config_is_config_error(tmp_path, text, message):
    path = tmp_path / "exp.ini"
    if text is not None:
        path.write_text(text)
    with pytest.raises(ConfigError, match="^" + re.escape(message + str(path))):
        load_experiment_config(path)


def test_missing_keys_take_the_dataclass_defaults(tmp_path):
    path = tmp_path / "exp.ini"
    path.write_text("[synth]\nn = 50\nd = 2\n[sweep]\nstrategies = fps\nbudgets = 0.1\nmaster_seed = 1\n")
    cfg = load_experiment_config(path)
    assert cfg.synth == SynthConfig(n=50, d=2)
    assert cfg.model == ModelConfig()
    assert (cfg.repeats, cfg.metrics, cfg.normalize) == (5, ("maxae", "mae"), False)
    path.write_text("[synth]\nd = 2\n[sweep]\nstrategies = fps\nbudgets = 0.1\nmaster_seed = 1\n")
    with pytest.raises(ConfigError, match=r"\[synth\] n is required"):
        load_experiment_config(path)


def test_strategy_label_keeps_the_switch_fraction():
    close = (StrategySpec("fps_then_random", 0.1234561), StrategySpec("fps_then_random", 0.1234564))
    assert close[0].label != close[1].label
    assert StrategySpec("fps_then_random", np.float64(0.02)).label == "fps_then_random:0.02"
    report = run_experiment(small_config(strategies=close, budgets=(0.1,), metrics=("maxae", "mae")))
    assert len(report.aggregates) == 4
    assert len({row.seed for row in report.rows}) == 4


# ---------------------------------------------------------------------------
# CSV output
# ---------------------------------------------------------------------------


def test_csv_headers_and_shape(tmp_path):
    cfg = small_config(repeats=1)
    report = run_experiment(cfg)
    rows_path = tmp_path / "rows.csv"
    agg_path = tmp_path / "aggregates.csv"
    write_report(report, rows_path, agg_path)
    rows_lines = rows_path.read_text().strip().splitlines()
    agg_lines = agg_path.read_text().strip().splitlines()
    assert rows_lines[0] == "strategy,budget,seed,metric,value"
    assert agg_lines[0] == "strategy,budget,metric,mean,std"
    assert len(rows_lines) == 1 + len(report.rows)
    assert len(agg_lines) == 1 + len(report.aggregates)
    # values re-parse to the exact floats
    first = rows_lines[1].split(",")
    assert float(first[1]) == report.rows[0].budget
    assert float(first[4]) == report.rows[0].value


def test_summary_table_mentions_all_aggregates():
    cfg = small_config(repeats=1)
    report = run_experiment(cfg)
    table = summary_table(report)
    for agg in report.aggregates:
        assert agg.metric in table
    assert report.config_hash in table


def test_config_validation_direct():
    with pytest.raises(ConfigError, match="budgets"):
        small_config(budgets=(0.5, 0.2))
    with pytest.raises(ConfigError, match="repeats"):
        small_config(repeats=0)
    with pytest.raises(ConfigError, match="metrics"):
        small_config(metrics=("nope",))
    with pytest.raises(ConfigError, match="dataset"):
        small_config(synth=None)
    with pytest.raises(ConfigError, match=r"strategies repeated: \['fps'\]"):
        small_config(strategies=(StrategySpec("fps"), StrategySpec("random"), StrategySpec("fps")))
    with pytest.raises(ConfigError, match=r"metrics repeated: \['mae'\]"):
        small_config(metrics=("mae", "maxae", "mae"))
