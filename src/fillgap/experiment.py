"""Seeded sweep orchestration: strategies x budgets x repeats, metric rows,
cross-seed aggregates, and CSV/INI plumbing.

Every cell derives its seed by hashing (master seed, strategy label,
repeat), so reports are a pure function of the configuration and the
dataset bytes and extending the sweep grid never reshuffles existing
cells. Budgets within a repeat share the seed, so every sampler except
k-medoids++ selects at a smaller budget exactly the prefix, in indices and
traces, of its selection at a larger one. The sweep therefore selects once
per (strategy, repeat) at the largest budget and slices each cell from that
run; k-medoids++ selects per cell.

Every distance block the sweep reads comes from one source,
``selection._Geometry`` (the samplers' nearest-selected walk aside):
for pools of up to selection's dense limit (8192 rows) it keeps one n x n
matrix of squared distances and slices or gathers it, above that it
recomputes bounded row blocks, with the same bits either way. The matrix
(8 MB at n=1000, 512 MiB at n=8192) is built on its first read, by
``gamma=auto``'s nearest-neighbour pass or by the first sampler or cell that
needs it. The samplers read Euclidean blocks as its roots. Each selection run
keeps one n x B matrix for its B selected rows (n * B * 8 bytes: 0.8 MB at
n=1000, B=100), gathered from the n x n matrix once that is built and
computed with ``cdist`` before. Every cell the run serves, all budgets of a
prefix kind's (strategy, repeat) or one k-medoids++ cell, reads its Gram
matrix and prediction blocks from it through the readers behind
``gaussian_kernel_matrix`` and ``krr_predict``, and builds one Gram matrix
for conditioning and the fit. Cells run repeat by repeat, so at most one
such n x B matrix is live. ``gamma=auto`` builds the n x n matrix, so under
the limit a sweep that runs only ``fps`` and ``random``, which read no
distance block, holds it too; with a pinned gamma it builds none.
"""

from __future__ import annotations

import configparser
import csv
import hashlib
import io
import json
import math
import os
from dataclasses import MISSING, dataclass, field, fields, is_dataclass

import numpy as np

from . import __version__
from .analysis import mae, maxae
from .dataset import Dataset, SynthConfig, load_dataset, minmax_normalize, parse_label_column, remove_zero_variance, synth_lipschitz
from .errors import ConfigError, DataError, IllConditionedError
from .regression import _conditions, _gram, _predict, _solve, gamma_for_half_kernel, grid_search_cv_report
from .rng import child_seed
from .selection import _PREFIX_KINDS, SelectionResult, StrategySpec, _Geometry, select

METRICS = (
    "maxae",
    "mae",
    "cond_regularized",
    "cond_unregularized",
    "fill_distance",
    "sep_distance",
)

_PREDICTION_METRICS = ("maxae", "mae")
_CONDITIONING_METRICS = ("cond_regularized", "cond_unregularized")


@dataclass(frozen=True)
class ModelConfig:
    """KRR hyperparameters, either pinned or found by one up-front grid search.

    ``gamma=None`` means: use the width at which the median nearest-neighbour
    kernel entry is one half.
    """

    gamma: float | None = None
    lam: float = 0.0
    grid_search: bool = False
    folds: int = 5
    grid_repeats: int = 1

    def __post_init__(self):
        if self.gamma is not None:
            object.__setattr__(self, "gamma", float(self.gamma))
        object.__setattr__(self, "lam", float(self.lam))
        if self.gamma is not None and not (math.isfinite(self.gamma) and self.gamma > 0):
            raise ConfigError("[model] gamma must be positive or 'auto'")
        if not (math.isfinite(self.lam) and self.lam >= 0):
            raise ConfigError("[model] lambda must be non-negative")
        if self.folds < 2:
            raise ConfigError("[model] folds must be >= 2")
        if self.grid_repeats < 1:
            raise ConfigError("[model] grid_repeats must be >= 1")


@dataclass(frozen=True)
class ExperimentConfig:
    """Full sweep description; exactly one of dataset_path / synth is set."""

    strategies: tuple[StrategySpec, ...]
    budgets: tuple[float, ...]
    metrics: tuple[str, ...]
    master_seed: int
    repeats: int = 5
    dataset_path: str | None = None
    label_column: str | int | None = None
    normalize: bool = False
    synth: SynthConfig | None = None
    model: ModelConfig = field(default_factory=ModelConfig)

    def __post_init__(self):
        object.__setattr__(self, "budgets", tuple(float(b) for b in self.budgets))
        if (self.dataset_path is None) == (self.synth is None):
            raise ConfigError("[dataset] exactly one of path / synth must be given")
        if not self.strategies:
            raise ConfigError("[sweep] strategies must be non-empty")
        if not self.budgets:
            raise ConfigError("[sweep] budgets must be non-empty")
        for lo, hi in zip(self.budgets, self.budgets[1:]):
            if not lo < hi:
                raise ConfigError("[sweep] budgets must be strictly increasing")
        if not all(0.0 < b <= 1.0 for b in self.budgets):
            raise ConfigError("[sweep] budgets must be fractions in (0, 1]")
        if self.repeats < 1:
            raise ConfigError("[sweep] repeats must be >= 1")
        if not self.metrics:
            raise ConfigError("[sweep] metrics must be non-empty")
        unknown = [m for m in self.metrics if m not in METRICS]
        if unknown:
            raise ConfigError(f"[sweep] unknown metrics {unknown}; valid: {METRICS}")
        labels = [s.label for s in self.strategies]
        for key, names in (("strategies", labels), ("metrics", self.metrics)):
            repeated = sorted({name for name in names if names.count(name) > 1})
            if repeated:
                raise ConfigError(f"[sweep] {key} repeated: {repeated}")

    def canonical(self) -> str:
        return json.dumps(_canonical(self), sort_keys=True)

    def config_hash(self) -> str:
        return hashlib.blake2b(self.canonical().encode(), digest_size=8).hexdigest()


def _canonical(value):
    """JSON-ready form of a config value for hashing: floats as their repr,
    strategies as their label (with their ``start_index`` when set), tuples
    as lists, nested configs as dicts of their fields, with ModelConfig.lam
    keyed ``lambda``. The configs store their float fields as floats, so 2
    and 2.0 hash alike."""
    if isinstance(value, StrategySpec):
        if value.start_index is None:
            return value.label
        return {"label": value.label, "start_index": int(value.start_index)}
    if is_dataclass(value):
        return {
            "lambda" if f.name == "lam" else f.name: _canonical(getattr(value, f.name))
            for f in fields(value)
        }
    if isinstance(value, tuple):
        return [_canonical(v) for v in value]
    return repr(value) if isinstance(value, float) else value


@dataclass(frozen=True)
class RunRow:
    """One (strategy, budget, repeat, metric) measurement; value is NaN for a
    failed cell."""

    strategy: str
    budget: float
    seed: int
    metric: str
    value: float


@dataclass(frozen=True)
class Aggregate:
    """Mean and population standard deviation across repeats, with the number
    of failed cells excluded from both."""

    strategy: str
    budget: float
    metric: str
    mean: float
    std: float
    count: int
    failures: int


@dataclass(frozen=True)
class ExperimentReport:
    rows: tuple[RunRow, ...]
    aggregates: tuple[Aggregate, ...]
    config_hash: str
    code_version: str


def resolve_budget(budget: float, n: int) -> int:
    """Turn a fraction of the pool into a subset size (half-up rounding)."""
    if budget * n < 2.0:
        raise DataError(f"budget {budget} on {n} rows yields fewer than 2 points")
    return max(2, int(math.floor(budget * n + 0.5)))


def pool_from_config(cfg: ExperimentConfig) -> Dataset:
    if cfg.synth is not None:
        return synth_lipschitz(cfg.synth)
    ds = load_dataset(cfg.dataset_path, has_labels=True, label_column=cfg.label_column)
    if cfg.normalize:
        ds, _ = remove_zero_variance(ds)
        ds, _ = minmax_normalize(ds)
    return ds


def _resolve_model(
    cfg: ExperimentConfig, pool: Dataset, geometry: _Geometry, sizes: list[int]
) -> tuple[float, float]:
    if cfg.model.grid_search:
        report = grid_search_cv_report(
            pool,
            train_sizes=sizes,
            folds=cfg.model.folds,
            repeats=cfg.model.grid_repeats,
            seed=child_seed(cfg.master_seed, "grid_search"),
        )
        return report.gamma, report.lam
    gamma = cfg.model.gamma if cfg.model.gamma is not None else gamma_for_half_kernel(geometry)
    return float(gamma), float(cfg.model.lam)


def _cell_values(
    cfg: ExperimentConfig,
    pool: Dataset,
    result: SelectionResult,
    size: int,
    sq_dists,
    gamma: float,
    lam: float,
) -> dict[str, float]:
    """Metric values of one cell, trained on the first ``size`` rows of
    ``result`` and evaluated on every other pool row. ``sq_dists(rows, cols,
    out)`` reads the squared distances to ``result``'s rows; one Gram matrix
    serves both conditioning and the fit."""
    idx = result.indices[:size]
    mask = np.ones(pool.n, dtype=bool)
    mask[idx] = False
    if mask.sum() + idx.size != pool.n:
        raise DataError("selection and evaluation sets overlap")

    values: dict[str, float] = {}
    if "fill_distance" in cfg.metrics:
        values["fill_distance"] = float(result.fill_trace[size - 1])
    if "sep_distance" in cfg.metrics:
        values["sep_distance"] = float(result.sep_trace[size - 1])
    conditioning = any(m in _CONDITIONING_METRICS for m in cfg.metrics)
    predicting = any(m in _PREDICTION_METRICS for m in cfg.metrics)
    if conditioning or (predicting and mask.any()):
        K = _gram(sq_dists, idx, size, gamma)
    if conditioning:
        cond_r, cond_u, _, _ = _conditions(K, lam)
        values["cond_regularized"] = math.nan if cond_r is None else cond_r
        values["cond_unregularized"] = math.nan if cond_u is None else cond_u
    if predicting:
        values["maxae"] = values["mae"] = math.nan
        if mask.any():
            try:
                weights = _solve(K, pool.labels[idx], lam)  # shifts K: conditioning reads it first
            except IllConditionedError:
                return values
            pred = _predict(sq_dists, np.flatnonzero(mask), weights, gamma)
            truth = pool.labels[mask]
            values["maxae"] = maxae(truth, pred)
            values["mae"] = mae(truth, pred)
    return values


def run_experiment(cfg: ExperimentConfig, pool: Dataset | None = None) -> ExperimentReport:
    """Execute the sweep: select, train, evaluate on all unselected rows.

    Kernel fits that fail (for example a singular kernel at lambda zero) are
    recorded as NaN cells for the prediction metrics and the sweep continues.
    """
    if pool is None:
        pool = pool_from_config(cfg)
    if any(m in _PREDICTION_METRICS for m in cfg.metrics):
        pool.require_labels()
    sizes = [resolve_budget(budget, pool.n) for budget in cfg.budgets]
    geometry = _Geometry(pool.features)  # validated when the dataset was built
    gamma, lam = _resolve_model(cfg, pool, geometry, sizes)
    rows: list[RunRow] = []
    for spec in cfg.strategies:
        label = spec.label
        prefix = spec.kind in _PREFIX_KINDS
        seeds = [child_seed(cfg.master_seed, label, rep) for rep in range(cfg.repeats)]
        cells: dict[tuple[int, int], dict[str, float]] = {}
        for rep, seed in enumerate(seeds):
            for col, size in enumerate(sizes):
                if col == 0 or not prefix:
                    # Rebinding drops the last run's columns before this one's
                    # are gathered, so at most one n x B matrix is live.
                    result = select(geometry, spec, max(sizes) if prefix else size, seed=seed)
                    sq_dists = geometry.columns(result.indices).sq_dists
                cells[col, rep] = _cell_values(cfg, pool, result, size, sq_dists, gamma, lam)
        for col, budget in enumerate(cfg.budgets):
            for rep, seed in enumerate(seeds):
                for metric in cfg.metrics:
                    rows.append(RunRow(label, budget, seed, metric, cells[col, rep][metric]))

    return ExperimentReport(
        rows=tuple(rows),
        aggregates=aggregate_runs(rows),
        config_hash=cfg.config_hash(),
        code_version=__version__,
    )


def aggregate_runs(rows) -> tuple[Aggregate, ...]:
    """Group rows by (strategy, budget, metric) and compute the mean and
    population standard deviation over the non-failed values."""
    rows = list(rows)
    if not rows:
        raise DataError("no rows to aggregate")
    groups: dict[tuple[str, float, str], list[float]] = {}
    for row in rows:
        groups.setdefault((row.strategy, row.budget, row.metric), []).append(row.value)
    aggregates = []
    for (strategy, budget, metric), values in groups.items():
        arr = np.asarray(values)
        ok = arr[~np.isnan(arr)]
        failures = int(np.isnan(arr).sum())
        if ok.size:
            mean, std = float(ok.mean()), float(ok.std())
        else:
            mean, std = math.nan, math.nan
        aggregates.append(
            Aggregate(strategy, budget, metric, mean, std, int(ok.size), failures)
        )
    return tuple(aggregates)


# ---------------------------------------------------------------------------
# Config file: INI sections [dataset]/[synth], [sweep], [model]
# ---------------------------------------------------------------------------


def _parse_float(section: str, key: str, raw: str) -> float:
    try:
        return float(raw)
    except ValueError:
        raise ConfigError(f"[{section}] {key} must be a number, got {raw!r}") from None


def _parse_int(section: str, key: str, raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"[{section}] {key} must be an integer, got {raw!r}") from None


def _parse_bool(section: str, key: str, raw: str) -> bool:
    lowered = raw.strip().lower()
    if lowered in ("true", "yes", "1", "on"):
        return True
    if lowered in ("false", "no", "0", "off"):
        return False
    raise ConfigError(f"[{section}] {key} must be a boolean, got {raw!r}")


def _parse_text(section: str, key: str, raw: str) -> str:
    return raw


def _parse_gamma(section: str, key: str, raw: str) -> float | None:
    return None if raw.strip().lower() == "auto" else _parse_float(section, key, raw)


def _parse_strategy(section: str, key: str, token: str) -> StrategySpec:
    kind, colon, arg = token.partition(":")
    if colon and kind != "fps_then_random":
        raise ConfigError(f"[{section}] strategy {token!r}: only fps_then_random takes an argument")
    fraction = _parse_float(section, key, arg) if colon else None
    try:
        return StrategySpec(kind=kind, switch_fraction=fraction)
    except DataError as exc:
        raise ConfigError(f"[{section}] {key}: {exc}") from None


def _listed(parse):
    """Parser of a comma-separated list whose non-empty items ``parse`` reads."""
    return lambda section, key, raw: tuple(
        parse(section, key, t.strip()) for t in raw.split(",") if t.strip()
    )


# Each section's INI keys, with the field each one sets and its parser.
# [dataset] and [sweep] set ExperimentConfig's own fields, [synth] and
# [model] those of its nested SynthConfig and ModelConfig. A key left out of
# the file keeps its field's default.
_KEYS = {
    "dataset": {
        "path": ("dataset_path", _parse_text),
        "label_column": ("label_column", lambda section, key, raw: parse_label_column(raw)),
        "normalize": ("normalize", _parse_bool),
    },
    "synth": {
        "n": ("n", _parse_int),
        "d": ("d", _parse_int),
        "target_lipschitz": ("target_lipschitz", _parse_float),
        "noise_level": ("noise_level", _parse_float),
        "tail_fraction": ("tail_fraction", _parse_float),
        "seed": ("seed", _parse_int),
    },
    "sweep": {
        "strategies": ("strategies", _listed(_parse_strategy)),
        "budgets": ("budgets", _listed(_parse_float)),
        "metrics": ("metrics", _listed(_parse_text)),
        "repeats": ("repeats", _parse_int),
        "master_seed": ("master_seed", _parse_int),
    },
    "model": {
        "gamma": ("gamma", _parse_gamma),
        "lambda": ("lam", _parse_float),
        "grid_search": ("grid_search", _parse_bool),
        "folds": ("folds", _parse_int),
        "grid_repeats": ("grid_repeats", _parse_int),
    },
}


def _section_fields(parser: configparser.ConfigParser, section: str) -> dict:
    """Field values set by the keys present in ``section``."""
    if not parser.has_section(section):
        return {}
    table = _KEYS[section]
    unknown = [key for key in parser[section] if key not in table]
    if unknown:
        raise ConfigError(f"[{section}] unknown keys {unknown}; valid: {list(table)}")
    return {table[key][0]: table[key][1](section, key, raw) for key, raw in parser[section].items()}


def _build(cls, section: str, values: dict):
    """``cls(**values)``; a field without a default that no key of
    ``section`` set is a config error naming that key."""
    required = {f.name for f in fields(cls) if f.default is f.default_factory is MISSING}
    for key, (name, _) in _KEYS[section].items():
        if name in required and name not in values:
            raise ConfigError(f"[{section}] {key} is required")
    return cls(**values)


def load_experiment_config(path: str | os.PathLike) -> ExperimentConfig:
    """Parse an INI experiment configuration; errors name the bad field."""
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    except configparser.Error as exc:
        raise ConfigError(f"malformed config {path}: {exc}") from None

    unknown = [section for section in parser.sections() if section not in _KEYS]
    if unknown:
        raise ConfigError(f"unknown sections {unknown}; valid: {list(_KEYS)}")
    dataset = _section_fields(parser, "dataset")
    if not dataset.get("dataset_path"):  # an empty path leaves the section unused
        dataset = {}
    synth = None
    if parser.has_section("synth"):
        try:
            synth = _build(SynthConfig, "synth", _section_fields(parser, "synth"))
        except DataError as exc:
            raise ConfigError(f"[synth] {exc}") from None
    sweep = {"metrics": ("maxae", "mae"), **_section_fields(parser, "sweep")}
    model = ModelConfig(**_section_fields(parser, "model"))
    return _build(ExperimentConfig, "sweep", {**sweep, **dataset, "synth": synth, "model": model})


# ---------------------------------------------------------------------------
# Report output
# ---------------------------------------------------------------------------


def _atomic_write(path: str | os.PathLike, text: str) -> None:
    tmp = f"{path}.tmp"
    with open(tmp, "w", newline="", encoding="utf-8") as fh:
        fh.write(text)
    os.replace(tmp, path)


def rows_csv(report: ExperimentReport) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["strategy", "budget", "seed", "metric", "value"])
    for row in report.rows:
        writer.writerow([row.strategy, repr(row.budget), row.seed, row.metric, repr(row.value)])
    return buf.getvalue()


def aggregates_csv(report: ExperimentReport) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["strategy", "budget", "metric", "mean", "std"])
    for agg in report.aggregates:
        writer.writerow([agg.strategy, repr(agg.budget), agg.metric, repr(agg.mean), repr(agg.std)])
    return buf.getvalue()


def write_report(report: ExperimentReport, rows_path, aggregates_path) -> None:
    _atomic_write(rows_path, rows_csv(report))
    _atomic_write(aggregates_path, aggregates_csv(report))


def summary_table(report: ExperimentReport) -> str:
    """Human-readable aggregate table, one line per (strategy, budget, metric)."""
    lines = [
        f"{'strategy':<24} {'budget':>8} {'metric':>20} {'mean':>14} {'std':>12} {'fail':>5}"
    ]
    for agg in report.aggregates:
        lines.append(
            f"{agg.strategy:<24} {agg.budget:>8g} {agg.metric:>20} "
            f"{agg.mean:>14.6g} {agg.std:>12.6g} {agg.failures:>5d}"
        )
    lines.append(f"config {report.config_hash} / code {report.code_version}")
    return "\n".join(lines)
