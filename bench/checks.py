"""Output checks, each against a separate computation or a property the
method must have, never against a stored copy of an earlier output.

Every check returns a list of error strings; an empty list means it passed.
None of them imports fillgap.
"""

from __future__ import annotations

import csv
import io
import math
from collections import defaultdict

import numpy as np
from scipy.spatial import cKDTree

ROWS_HEADER = ["strategy", "budget", "seed", "metric", "value"]
AGGREGATES_HEADER = ["strategy", "budget", "metric", "mean", "std"]
ULP = np.finfo(np.float64).eps


def nn_gamma(features: np.ndarray) -> float:
    """ln 2 / median^2 of nearest-neighbour distances from a KD-tree."""
    dists, _ = cKDTree(features).query(features, k=2, workers=-1)
    median = float(np.median(dists[:, 1]))
    return math.log(2.0) / (median * median)


def check_gamma(features: np.ndarray, gamma: float, expected: float | None = None) -> list[str]:
    """gamma = nn_gamma(features); ``expected`` is that value if already known."""
    if expected is None:
        expected = nn_gamma(features)
    if not math.isclose(gamma, expected, rel_tol=1e-9):
        return [f"gamma {gamma!r} differs from ln2/median_nn^2 = {expected!r}"]
    return []


def exact_min_sq_dists(points: np.ndarray, centres: np.ndarray, block: int = 128) -> np.ndarray:
    """Squared distance from every point to its nearest centre, each
    computed as sum((x - y)^2) without the norm expansion."""
    out = np.empty(points.shape[0])
    for lo in range(0, points.shape[0], block):
        diff = points[lo : lo + block, None, :] - centres[None, :, :]
        out[lo : lo + block] = np.einsum("ijk,ijk->ij", diff, diff).min(axis=1)
    return out


def check_fps_traces(fill: np.ndarray, sep: np.ndarray) -> list[str]:
    """Non-increasing traces and the greedy identity fill[t-1] = 2 sep[t]."""
    errors = []
    if (np.diff(fill) > 0).any():
        errors.append("fps fill trace increases")
    if (np.diff(sep[1:]) > 0).any():
        errors.append("fps separation trace increases")
    gap = np.abs(fill[:-1] - 2.0 * sep[1:])
    worst = int(np.argmax(gap / fill[:-1])) if fill.size > 1 else 0
    if fill.size > 1 and gap[worst] > 4 * ULP * fill[worst]:
        errors.append(
            f"fill_trace[{worst}] = {fill[worst]!r} but 2 * sep_trace[{worst + 1}] = {2 * sep[worst + 1]!r}"
        )
    return errors


def check_fill(features: np.ndarray, indices: np.ndarray, reported: float, what: str) -> list[str]:
    """A reported fill distance against the exact recomputation."""
    exact = math.sqrt(float(exact_min_sq_dists(features, features[indices]).max()))
    if not math.isclose(reported, exact, rel_tol=1e-10):
        return [f"{what} fill distance {reported!r} differs from exact {exact!r}"]
    return []


def check_predictions(
    queries: np.ndarray, pred: np.ndarray, train: np.ndarray, weights: np.ndarray, gamma: float
) -> list[str]:
    """Predictions against an explicit sum_j w_j exp(-gamma ||x - x_j||^2)."""
    errors = []
    for x, p in zip(queries, pred):
        terms = weights * np.exp(-gamma * ((train - x) ** 2).sum(axis=1))
        expected = math.fsum(terms)
        scale = math.fsum(np.abs(terms)) + abs(expected)
        if abs(p - expected) > 1e-10 * scale + 1e-300:
            errors.append(f"prediction {float(p)!r} differs from the explicit kernel sum {expected!r}")
            break
    return errors


def check_desk_strategy(result: dict) -> list[str]:
    """bound >= observed maximum error, conditioning ordered and >= 1."""
    errors = []
    name = result["strategy"]
    if not result["bound_value"] >= result["observed_maxae"]:
        errors.append(f"{name}: bound {result['bound_value']!r} < observed maxae {result['observed_maxae']!r}")
    if not result["maxae"] >= result["mae"]:
        errors.append(f"{name}: maxae {result['maxae']!r} < mae {result['mae']!r}")
    if not math.isclose(result["observed_maxae"], result["maxae"], rel_tol=1e-9):
        errors.append(f"{name}: bound_check observed {result['observed_maxae']!r} != maxae {result['maxae']!r}")
    errors += _check_cond(name, result["cond_unregularized"], result["cond_regularized"])
    if not math.isclose(result["cond_sep"], result["sep_final"], rel_tol=1e-12):
        errors.append(f"{name}: conditioning separation {result['cond_sep']!r} != trace {result['sep_final']!r}")
    return errors


def _check_cond(where: str, cond_u: float, cond_r: float | None) -> list[str]:
    """cond_unregularized >= cond_regularized >= 1; NaN or None means singular."""
    u = math.inf if cond_u is None or math.isnan(cond_u) else cond_u
    if cond_r is None:
        return [] if u >= 1.0 else [f"{where}: cond_unregularized {cond_u!r} < 1"]
    r = math.inf if math.isnan(cond_r) else cond_r
    if not (r >= 1.0 and u >= r * (1.0 - 1e-12)):
        return [f"{where}: cond_unregularized {cond_u!r}, cond_regularized {cond_r!r} not ordered >= 1"]
    return []


# ---------------------------------------------------------------------------
# Sweep reports
# ---------------------------------------------------------------------------


def parse_rows(text: str) -> tuple[list[str], list[list[str]]]:
    table = list(csv.reader(io.StringIO(text)))
    return (table[0], table[1:]) if table else ([], [])


def check_sweep(
    rows_text: str,
    aggregates_text: str,
    strategies: list[str],
    budgets: list[float],
    repeats: int,
    metrics: list[str],
) -> tuple[int, int, list[str]]:
    """Check rows.csv and aggregates.csv of one sweep.

    Returns (cells attempted, cells failed, errors). A cell fails when its
    prediction metrics are NaN.
    """
    errors: list[str] = []
    header, rows = parse_rows(rows_text)
    if header != ROWS_HEADER:
        errors.append(f"rows.csv header {header}")
    # (strategy, budget) -> seed -> metric -> value, in file order
    cells: dict = defaultdict(dict)
    for row in rows:
        if len(row) != 5:
            errors.append(f"malformed rows.csv line {row}")
            continue
        strategy, budget, seed, metric, value = row
        per_metric = cells[(strategy, float(budget))].setdefault(int(seed), {})
        if metric in per_metric:
            errors.append(f"duplicate row {row}")
        per_metric[metric] = float(value)

    expected_keys = {(s, b) for s in strategies for b in budgets}
    if set(cells) != expected_keys:
        errors.append(f"rows.csv covers {len(cells)} strategy x budget pairs, expected {len(expected_keys)}")
    seeds_of = {}
    failed = 0
    for (strategy, budget), by_seed in sorted(cells.items()):
        where = f"{strategy} @ {budget}"
        if len(by_seed) != repeats:
            errors.append(f"{where}: {len(by_seed)} repeats, expected {repeats}")
        if seeds_of.setdefault(strategy, list(by_seed)) != list(by_seed):
            errors.append(f"{where}: repeat seeds differ across budgets")
        for seed, values in by_seed.items():
            if sorted(values) != sorted(metrics):
                errors.append(f"{where} seed {seed}: metrics {sorted(values)}, expected {sorted(metrics)}")
                continue
            if "maxae" in values and (math.isnan(values["maxae"]) or math.isnan(values["mae"])):
                failed += 1
            elif "maxae" in values and not values["maxae"] >= values["mae"]:
                errors.append(f"{where} seed {seed}: maxae {values['maxae']!r} < mae {values['mae']!r}")
            if "cond_unregularized" in values:
                errors += _check_cond(
                    f"{where} seed {seed}", values["cond_unregularized"], values.get("cond_regularized")
                )
            if strategy == "fps" and "fill_distance" in values:
                fill, sep = values["fill_distance"], values["sep_distance"]
                if not fill <= 2.0 * sep * (1.0 + 4 * ULP):
                    errors.append(f"{where} seed {seed}: fps fill {fill!r} > 2 * sep {sep!r}")

    if "fill_distance" in metrics and "fps" in strategies:
        for seed in seeds_of.get("fps", []):
            for metric in ("fill_distance", "sep_distance"):
                series = [cells[("fps", b)].get(seed, {}).get(metric, math.nan) for b in budgets]
                if any(later > earlier for earlier, later in zip(series, series[1:])):
                    errors.append(f"fps seed {seed}: {metric} increases with the budget: {series}")

    errors += _check_aggregates(rows, aggregates_text)
    attempted = len(strategies) * len(budgets) * repeats
    return attempted, failed, errors


def _check_aggregates(rows: list[list[str]], aggregates_text: str) -> list[str]:
    """aggregates.csv = mean and population std of the non-NaN rows."""
    errors = []
    groups: dict = defaultdict(list)
    for row in rows:
        if len(row) == 5:
            groups[(row[0], float(row[1]), row[3])].append(float(row[4]))
    header, aggs = parse_rows(aggregates_text)
    if header != AGGREGATES_HEADER:
        errors.append(f"aggregates.csv header {header}")
    seen = set()
    for agg in aggs:
        key = (agg[0], float(agg[1]), agg[2])
        if key not in groups or key in seen:
            errors.append(f"aggregates.csv has an unexpected group {key}")
            continue
        seen.add(key)
        ok = [v for v in groups[key] if not math.isnan(v)]
        mean, std = float(agg[3]), float(agg[4])
        if not ok:
            if not (math.isnan(mean) and math.isnan(std)):
                errors.append(f"{key}: all values failed but aggregate is {mean!r}, {std!r}")
            continue
        scale = max(abs(v) for v in ok) or 1.0  # scaled so that squares cannot overflow
        unit = [v / scale for v in ok]
        unit_mean = math.fsum(unit) / len(unit)
        ref_mean = unit_mean * scale
        ref_std = math.sqrt(math.fsum((v - unit_mean) ** 2 for v in unit) / len(unit)) * scale
        if abs(mean - ref_mean) > 1e-12 * scale or abs(std - ref_std) > 1e-12 * scale:
            errors.append(f"{key}: aggregate ({mean!r}, {std!r}) != recomputed ({ref_mean!r}, {ref_std!r})")
    if seen != set(groups):
        errors.append(f"aggregates.csv has {len(seen)} groups, rows.csv has {len(groups)}")
    return errors
