"""Seeded sweep orchestration: strategies x budgets x repeats, metric rows,
cross-seed aggregates, and CSV/INI plumbing.

Every cell derives its seed by hashing (master seed, strategy label,
repeat), so reports are a pure function of the configuration and the
dataset bytes and extending the sweep grid never reshuffles existing
cells. Budgets within a repeat share the seed, and
``selection._sweep_runs`` makes each (strategy, repeat)'s selection runs
and says which budgets each run serves; it walks k-medoids++ traces only
when a ``fill_distance`` or ``sep_distance`` metric is listed.

Every distance block the sweep reads comes from one source,
``selection._Geometry`` (the samplers' nearest-selected walk aside):
for pools of up to selection's dense limit (8192 rows) it keeps one n x n
matrix of squared distances and slices or gathers it, above that it
recomputes bounded row blocks, with the same bits either way. The sweep
keeps the matrix (8 MB at n=1000, 512 MiB at n=8192) when a
facility-location or k-medoids++ strategy is listed, since that strategy
reads it anyway, and builds it with its geometry, after ``gamma=auto`` and
before the first selection run; the samplers read Euclidean blocks as its
roots. When the metrics need kernels, each selection run keeps one n x B
matrix for its B selected rows (n * B * 8 bytes: 0.8 MB at n=1000, B=100),
gathered from the n x n matrix when the sweep keeps it and computed with
``cdist`` otherwise. Each cell the run serves reads its Gram matrix and
prediction blocks from the run's matrix through the readers behind
``gaussian_kernel_matrix`` and ``krr_predict``, and builds one Gram matrix
for conditioning and the fit. Cells run repeat by repeat, so at most one
such n x B matrix is live. ``gamma=auto`` runs
``selection.nn_distances`` on the raw pool in 1 MiB tiles, so a sweep whose
strategies are only ``fps``, ``random`` and ``fps_then_random`` builds no
n x n matrix.
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
from .rng import _count, _integral, _real, _sequence, child_seed
from .selection import _MATRIX_KINDS, StrategySpec, _Geometry, _sweep_runs

_PREDICTION_METRICS = ("maxae", "mae")
_CONDITIONING_METRICS = ("cond_regularized", "cond_unregularized")
_TRACE_METRICS = ("fill_distance", "sep_distance")
METRICS = _PREDICTION_METRICS + _CONDITIONING_METRICS + _TRACE_METRICS


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
            object.__setattr__(self, "gamma", _checked("model", _real, self.gamma, "gamma", "positive"))
        object.__setattr__(self, "lam", _checked("model", _real, self.lam, "lambda", "non-negative"))
        for name, lo in (("folds", 2), ("grid_repeats", 1)):
            object.__setattr__(self, name, _checked("model", _count, getattr(self, name), name, lo))


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
        for name in ("strategies", "budgets", "metrics"):
            object.__setattr__(self, name, _checked("sweep", _sequence, getattr(self, name), name))
        budgets = tuple(_checked("sweep", _real, b, "budgets") for b in self.budgets)
        object.__setattr__(self, "budgets", budgets)
        for spec in self.strategies:
            if not isinstance(spec, StrategySpec):
                raise ConfigError(f"[sweep] strategies must be StrategySpec values, got {spec!r}")
        object.__setattr__(self, "master_seed", _checked("sweep", _integral, self.master_seed, "master_seed"))
        object.__setattr__(self, "repeats", _checked("sweep", _count, self.repeats, "repeats", 1))
        if (self.dataset_path is None) == (self.synth is None):
            raise ConfigError("[dataset] exactly one of path / synth must be given")
        for lo, hi in zip(self.budgets, self.budgets[1:]):
            if not lo < hi:
                raise ConfigError("[sweep] budgets must be strictly increasing")
        if not all(0.0 < b <= 1.0 for b in self.budgets):
            raise ConfigError("[sweep] budgets must be fractions in (0, 1]")
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


def _checked(section: str, check, *args):
    """``check(*args)``, its DataError raised as a ConfigError of ``section``."""
    try:
        return check(*args)
    except DataError as exc:
        raise ConfigError(f"[{section}] {exc}") from None


def _canonical(value):
    """JSON-ready form of a config value for hashing: floats as their repr,
    strategies as their label (with their ``start_index`` when set), tuples
    as lists, nested configs as dicts of their fields, with ModelConfig.lam
    keyed ``lambda``. The configs store their float fields as floats, so 2
    and 2.0 hash alike."""
    if isinstance(value, StrategySpec):
        if value.start_index is None:
            return value.label
        return {"label": value.label, "start_index": value.start_index}
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
    """Turn a fraction of the pool into a subset size: half-up rounding, then
    at least 2 rows."""
    size = math.floor(budget * n + 0.5)
    if size < 2:
        raise DataError(f"budget {budget} on {n} rows yields fewer than 2 points")
    return size


def pool_from_config(cfg: ExperimentConfig) -> Dataset:
    if cfg.synth is not None:
        return synth_lipschitz(cfg.synth)
    ds = load_dataset(cfg.dataset_path, has_labels=True, label_column=cfg.label_column)
    if cfg.normalize:
        ds, _ = remove_zero_variance(ds)
        ds, _ = minmax_normalize(ds)
    return ds


def _resolve_model(cfg: ExperimentConfig, pool: Dataset, sizes: list[int]) -> tuple[float, float]:
    if cfg.model.grid_search:
        report = grid_search_cv_report(
            pool,
            train_sizes=sizes,
            folds=cfg.model.folds,
            repeats=cfg.model.grid_repeats,
            seed=child_seed(cfg.master_seed, "grid_search"),
        )
        return report.gamma, report.lam
    gamma = cfg.model.gamma if cfg.model.gamma is not None else gamma_for_half_kernel(pool.features)
    return float(gamma), float(cfg.model.lam)


def _cell_values(
    cfg: ExperimentConfig,
    pool: Dataset,
    idx: np.ndarray,
    traces: dict[str, float],
    sq_dists,
    gamma: float,
    lam: float,
) -> dict[str, float]:
    """Metric values of one cell, trained on the rows ``idx`` and evaluated
    on every other pool row; ``traces`` holds the cell's listed trace
    metrics. ``sq_dists(rows, cols, out)`` reads the squared distances to
    the rows of the selection run whose first rows are ``idx``; one Gram
    matrix serves both conditioning and the fit."""
    size = idx.size
    mask = np.ones(pool.n, dtype=bool)
    mask[idx] = False

    values = dict(traces)
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
    gamma, lam = _resolve_model(cfg, pool, sizes)
    # Made after gamma=auto's tiles are freed. A facility-location or
    # k-medoids++ run reads the n x n matrix anyway; built first, it also
    # serves the kernel blocks of the runs before that one.
    keep = any(spec.kind in _MATRIX_KINDS for spec in cfg.strategies)
    geometry = _Geometry(pool.features, keep)  # validated when the dataset was built
    kernels = any(m in _PREDICTION_METRICS + _CONDITIONING_METRICS for m in cfg.metrics)
    traced = any(m in _TRACE_METRICS for m in cfg.metrics)
    rows: list[RunRow] = []
    for spec in cfg.strategies:
        label = spec.label
        seeds = [child_seed(cfg.master_seed, label, rep) for rep in range(cfg.repeats)]
        cells: dict[tuple[int, int], dict[str, float]] = {}
        for rep, seed in enumerate(seeds):
            for indices, fill, sep, cols in _sweep_runs(geometry, spec, sizes, seed, traced):
                sq_dists = geometry.columns(indices).sq_dists if kernels else None
                for col in cols:
                    size = sizes[col]
                    traces = {
                        m: float(t[size - 1])
                        for m, t in zip(_TRACE_METRICS, (fill, sep))
                        if m in cfg.metrics
                    }
                    idx = indices[:size]
                    cells[col, rep] = _cell_values(cfg, pool, idx, traces, sq_dists, gamma, lam)
                # Dropped before the next run's columns are built, so at
                # most one n x B matrix is live.
                del sq_dists
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


def _parse_number(section: str, key: str, raw: str) -> int | float:
    """Integer text as an int, other numbers as a float; the configs check each field."""
    for cast in (int, float):
        try:
            return cast(raw)
        except ValueError:
            pass
    raise ConfigError(f"[{section}] {key} must be a number, got {raw!r}")


def _parse_bool(section: str, key: str, raw: str) -> bool:
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[raw.strip().lower()]
    except KeyError:
        raise ConfigError(f"[{section}] {key} must be a boolean, got {raw!r}") from None


def _parse_text(section: str, key: str, raw: str) -> str:
    return raw


def parse_gamma(raw: str) -> float | None:
    """A kernel width as written in a config file or on the command line:
    "auto", in any case and with surrounding spaces, is None (the width
    gamma_for_half_kernel picks); other text is a float, or ValueError."""
    return None if raw.strip().lower() == "auto" else float(raw)


def _parse_gamma(section: str, key: str, raw: str) -> float | None:
    try:
        return parse_gamma(raw)
    except ValueError:
        raise ConfigError(f"[{section}] {key} must be a number or 'auto', got {raw!r}") from None


def _parse_strategy(section: str, key: str, token: str) -> StrategySpec:
    kind, colon, arg = token.partition(":")
    fraction = _parse_number(section, key, arg) if colon else None
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
# [model] those of its nested SynthConfig and ModelConfig; [synth]'s keys
# are SynthConfig's field names. A key left out of the file keeps its
# field's default.
_KEYS = {
    "dataset": {
        "path": ("dataset_path", _parse_text),
        "label_column": ("label_column", lambda section, key, raw: parse_label_column(raw)),
        "normalize": ("normalize", _parse_bool),
    },
    "synth": {f.name: (f.name, _parse_number) for f in fields(SynthConfig)},
    "sweep": {
        "strategies": ("strategies", _listed(_parse_strategy)),
        "budgets": ("budgets", _listed(_parse_number)),
        "metrics": ("metrics", _listed(_parse_text)),
        "repeats": ("repeats", _parse_number),
        "master_seed": ("master_seed", _parse_number),
    },
    "model": {
        "gamma": ("gamma", _parse_gamma),
        "lambda": ("lam", _parse_number),
        "grid_search": ("grid_search", _parse_bool),
        "folds": ("folds", _parse_number),
        "grid_repeats": ("grid_repeats", _parse_number),
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
        synth = _checked("synth", _build, SynthConfig, "synth", _section_fields(parser, "synth"))
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
