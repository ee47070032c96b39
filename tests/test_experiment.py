import dataclasses
import math
import pathlib

import numpy as np
import pytest

from fillgap.dataset import Dataset, SynthConfig, save_dataset, synth_lipschitz
from fillgap.errors import ConfigError, DataError
from fillgap.experiment import (
    _KEYS,
    Aggregate,
    ExperimentConfig,
    ModelConfig,
    RunRow,
    aggregate_runs,
    aggregates_csv,
    load_experiment_config,
    resolve_budget,
    rows_csv,
    run_experiment,
    summary_table,
    write_report,
)
from fillgap.selection import StrategySpec, fps


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
    # Prefix samplers select once at the largest budget; k-medoids++ per cell.
    # gamma=auto, facility location, k-medoids++ and every cell's kernels read
    # one pool-by-pool matrix of squared distances: the sweep makes that one
    # cdist call and none per selection run.
    from fillgap import experiment, selection
    from fillgap.selection import select

    calls = []
    cdist_calls = []  # (metric, rows, columns, selections made before the call)
    gathers = []  # (selections made before, selected rows) per n x B matrix built
    cdist = selection.cdist
    squared = selection._Geometry._squared

    def counting(pool, spec, budget, seed=0):
        calls.append((spec.kind, budget))
        return select(pool, spec, budget, seed=seed)

    def counting_cdist(a, b, metric="euclidean", **kwargs):
        cdist_calls.append((metric, len(a), len(b), len(calls)))
        return cdist(a, b, metric, **kwargs)

    def counting_squared(self):
        if self._matrix is None and self._source is not None:
            gathers.append((len(calls), len(self._source[1])))
        return squared(self)

    monkeypatch.setattr(experiment, "select", counting)
    monkeypatch.setattr(selection, "cdist", counting_cdist)
    monkeypatch.setattr(selection._Geometry, "_squared", counting_squared)
    cfg = small_config(
        strategies=tuple(
            StrategySpec(kind=k) for k in ("fps", "random", "facility_location", "kmedoidspp")
        )
        + (StrategySpec(kind="fps_then_random", switch_fraction=0.1),),
        budgets=(0.05, 0.1, 0.2),
        metrics=("maxae", "mae", "fill_distance", "sep_distance", "cond_unregularized"),
        repeats=2,
    )
    report = run_experiment(cfg)
    sizes = [resolve_budget(b, 120) for b in cfg.budgets]
    for kind in ("fps", "random", "facility_location", "fps_then_random"):
        assert [b for k, b in calls if k == kind] == [max(sizes)] * cfg.repeats
    assert sorted(b for k, b in calls if k == "kmedoidspp") == sorted(sizes * cfg.repeats)
    # One matrix, built by gamma=auto before the first selection.
    assert cdist_calls == [("sqeuclidean", 120, 120, 0)]
    # Each selection run, one per prefix (strategy, repeat) and one per
    # k-medoids++ cell, gathers its n x B kernel block once, right after it
    # selects, and every cell it serves slices that block.
    assert gathers == [(i + 1, budget) for i, (_, budget) in enumerate(calls)]
    # Recomputing every distance and kernel block instead of slicing agrees.
    with monkeypatch.context() as m:
        m.setattr(selection, "_DENSE_MATRIX_LIMIT", 0)
        assert rows_csv(run_experiment(cfg)) == rows_csv(report)
    # Slicing changes no row: selecting every cell at its own budget agrees.
    monkeypatch.setattr(experiment, "_PREFIX_KINDS", ())
    assert rows_csv(run_experiment(cfg)) == rows_csv(report)


def test_sweep_without_a_pool_matrix_reader_builds_none(monkeypatch):
    # With a pinned gamma, fps and random read no pool-by-pool block, so each
    # selection run computes its n x B kernel block and no n x n matrix is built.
    from fillgap import selection

    shapes = []
    cdist = selection.cdist

    def counting_cdist(a, b, metric="euclidean", **kwargs):
        shapes.append((metric, len(a), len(b)))
        return cdist(a, b, metric, **kwargs)

    monkeypatch.setattr(selection, "cdist", counting_cdist)
    cfg = small_config(
        strategies=(StrategySpec("fps"), StrategySpec("random")),
        model=ModelConfig(gamma=2.0, lam=1e-6),
        repeats=2,
    )
    report = run_experiment(cfg)
    budget = resolve_budget(max(cfg.budgets), 120)
    assert shapes == [("sqeuclidean", 120, budget)] * 4
    monkeypatch.setattr(selection, "_DENSE_MATRIX_LIMIT", 0)
    assert rows_csv(run_experiment(cfg)) == rows_csv(report)


def test_too_small_budget_fails_before_any_pool_work(monkeypatch):
    from fillgap import experiment

    def never(*args, **kwargs):
        raise AssertionError("pool work started before every budget was resolved")

    monkeypatch.setattr(experiment, "select", never)
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
    # gamma=auto builds the pool-by-pool matrix the kernels gather from.
    _refuse_to_allocate(monkeypatch, (120, 120))
    with pytest.raises(DataError, match=r"120 x 120 float64 matrix \(.* GiB\)"):
        run_experiment(small_config())


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
        ("budgets = 0.5, 0.2", "budgets"),
        ("budgets = 0.0, 0.5", "budgets"),
        ("repeats = zero", "repeats"),
        ("metrics = maxae, bogus", "metrics"),
        ("master_seed = x", "master_seed"),
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
