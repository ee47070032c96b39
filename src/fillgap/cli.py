"""Command line surface.

One binary with subcommands; JSON results go to standard output (or --out),
experiment sweeps write CSV files. Exit codes: 0 success, 1 usage or
configuration error, 2 data or numerical error.

This module imports no numerical libraries at import time: --threads (or the
FILLGAP_THREADS environment variable) is applied to the BLAS thread-count
environment variables before anything heavy loads.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict, fields, replace

_THREAD_ENV_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors by default; the contract here is 1.
    def error(self, message):
        raise _UsageError(message)


def _apply_thread_limit(threads: int | None) -> None:
    if threads is None:
        env = os.environ.get("FILLGAP_THREADS")
        if env is None:
            return
        try:
            threads = int(env)
        except ValueError:
            raise _UsageError(f"FILLGAP_THREADS must be an integer, got {env!r}") from None
    if threads < 1:
        raise _UsageError("--threads must be >= 1")
    if "numpy" in sys.modules:
        return  # too late to bound the pools; library defaults apply
    for var in _THREAD_ENV_VARS:
        os.environ[var] = str(threads)  # an explicit count overrides inherited ones


def _emit(text: str, out_path: str | None) -> None:
    if out_path is None:
        print(text)
    else:
        tmp = f"{out_path}.tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(text)
            fh.write("\n")
        os.replace(tmp, out_path)


def _load_pool(args, need_labels: bool):
    from .dataset import load_dataset, parse_label_column

    label_column = getattr(args, "label_column", None)
    if label_column is not None:
        label_column = parse_label_column(label_column)
    has_labels = need_labels or label_column is not None
    return load_dataset(args.data, has_labels=has_labels, label_column=label_column)


def _resolve_cli_budget(raw: str, n: int) -> int:
    from .experiment import resolve_budget

    try:
        value = float(raw)
    except ValueError:
        raise _UsageError(f"--budget must be a count or fraction, got {raw!r}") from None
    if not math.isfinite(value):
        raise _UsageError(f"--budget must be finite, got {raw!r}")
    if 0 < value < 1:
        return resolve_budget(value, n)
    if value != int(value):
        raise _UsageError(f"budget counts must be integral, got {raw!r}")
    return int(value)


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------


def _cmd_select(args) -> int:
    from .errors import DataError
    from .selection import StrategySpec, select

    try:
        spec = StrategySpec(
            kind=args.strategy, switch_fraction=args.switch, start_index=args.start_index
        )
    except DataError as exc:
        raise _UsageError(str(exc)) from None
    pool = _load_pool(args, need_labels=False)
    budget = _resolve_cli_budget(args.budget, pool.n)
    result = select(pool.features, spec, budget, seed=args.seed)
    _emit(result.to_json(include_traces=args.trace), args.out)
    return 0


def _cmd_fit(args) -> int:
    from .regression import _header, gamma_for_half_kernel, krr_fit, save_model

    pool = _load_pool(args, need_labels=True)
    if args.gamma == "auto":
        gamma = gamma_for_half_kernel(pool.features)
    else:
        try:
            gamma = float(args.gamma)
        except ValueError:
            raise _UsageError(f"--gamma must be a number or 'auto', got {args.gamma!r}") from None
    model = krr_fit(pool, gamma, args.lam)
    save_model(model, args.out)
    print(json.dumps(_header(model)))
    return 0


def _cmd_predict(args) -> int:
    from .regression import krr_predict, load_model

    model = load_model(args.model)
    pool = _load_pool(args, need_labels=False)
    pred = krr_predict(model, pool.features)
    _emit(json.dumps([float(v) for v in pred]), args.out)
    return 0


def _cmd_eval(args) -> int:
    from .analysis import mae, maxae
    from .regression import krr_predict, load_model

    model = load_model(args.model)
    pool = _load_pool(args, need_labels=True)
    pred = krr_predict(model, pool.features)
    y = pool.require_labels()
    _emit(json.dumps({"maxae": maxae(y, pred), "mae": mae(y, pred)}), args.out)
    return 0


def _parse_constants(raw: str) -> dict[str, float]:
    out: dict[str, float] = {}
    for item in raw.split(","):
        item = item.strip()
        if not item:
            continue
        key, sep, value = item.partition("=")
        if not sep:
            raise _UsageError(f"--constants entries must be key=value, got {item!r}")
        try:
            out[key.strip()] = float(value)
        except ValueError:
            raise _UsageError(f"--constants {key.strip()} must be a number") from None
    return out


def _cmd_bound(args) -> int:
    from .analysis import bound_check
    from .regression import load_model
    from .selection import SelectionResult, selection_traces

    constants = _parse_constants(args.constants)
    unknown = set(constants) - {"lip_target", "eps", "lip_label_arg"}
    if unknown:
        raise _UsageError(f"unknown constants {sorted(unknown)}")
    if "lip_target" not in constants or "eps" not in constants:
        raise _UsageError("--constants must provide lip_target and eps")
    pool = _load_pool(args, need_labels=True)
    with open(args.selection, encoding="utf-8") as fh:
        selection = SelectionResult.from_json(fh.read())
    # The file may be edited or come from another pool: h comes from the traces.
    fill, sep = selection_traces(pool.features, selection.indices)
    selection = replace(selection, fill_trace=fill, sep_trace=sep)
    model = load_model(args.model)
    report = bound_check(
        pool,
        selection,
        model,
        lip_target=constants["lip_target"],
        eps=constants["eps"],
        lip_label_arg=constants.get("lip_label_arg", 1.0),
    )
    _emit(json.dumps({**asdict(report), "slack": report.slack}), args.out)
    return 0


def _cmd_corr(args) -> int:
    from .analysis import pairwise_distance_correlation

    pool = _load_pool(args, need_labels=True)
    report = pairwise_distance_correlation(
        pool.features, pool.require_labels(), max_pairs=args.max_pairs, seed=args.seed
    )
    _emit(report.to_json(), args.out)
    return 0


def _cmd_nn(args) -> int:
    from .selection import nn_distances

    pool = _load_pool(args, need_labels=False)
    dists, mean = nn_distances(pool.features)
    _emit(json.dumps({"distances": [float(v) for v in dists], "mean": mean}), args.out)
    return 0


def _cmd_synth(args) -> int:
    from .dataset import SynthConfig, save_dataset, synth_with_info

    # Options left out are absent from args, so their fields keep SynthConfig's defaults.
    given = {f.name: getattr(args, f.name) for f in fields(SynthConfig) if f.name in args}
    ds, info = synth_with_info(SynthConfig(**given))
    save_dataset(ds, args.out)
    print(
        json.dumps(
            {
                "n": ds.n,
                "d": ds.d,
                "lipschitz": info.lipschitz,
                "noise_amplitude": info.noise_amplitude,
                "intercept": info.intercept,
                "weights": [float(w) for w in info.weights],
                "n_tail": info.n_tail,
                "bulk_median_nn": None
                if math.isnan(info.bulk_median_nn)
                else info.bulk_median_nn,
                "seed": info.seed,
            }
        )
    )
    return 0


def _cmd_experiment(args) -> int:
    from .experiment import (
        load_experiment_config,
        resolve_budget,
        run_experiment,
        summary_table,
        write_report,
        pool_from_config,
    )

    cfg = load_experiment_config(args.config)
    if args.dry_run:
        pool = pool_from_config(cfg)
        print(f"pool: n={pool.n} d={pool.d}")
        print(f"strategies: {', '.join(s.label for s in cfg.strategies)}")
        sizes = ", ".join(
            f"{b:g} -> {resolve_budget(b, pool.n)}" for b in cfg.budgets
        )
        print(f"budgets: {sizes}")
        print(f"repeats: {cfg.repeats}; metrics: {', '.join(cfg.metrics)}")
        print(f"cells: {len(cfg.strategies) * len(cfg.budgets) * cfg.repeats}")
        print(f"config hash: {cfg.config_hash()}")
        return 0
    report = run_experiment(cfg)
    os.makedirs(args.out_dir, exist_ok=True)
    rows_path = os.path.join(args.out_dir, "rows.csv")
    agg_path = os.path.join(args.out_dir, "aggregates.csv")
    write_report(report, rows_path, agg_path)
    print(summary_table(report))
    print(f"rows -> {rows_path}")
    print(f"aggregates -> {agg_path}")
    return 0


# ---------------------------------------------------------------------------
# Parser assembly
# ---------------------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="fillgap", description=__doc__)
    parser.add_argument("--threads", type=int, default=None, help="bound library thread pools")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("select", help="run a sampler over a pool CSV")
    p.add_argument("--data", required=True)
    p.add_argument("--strategy", required=True, help="sampler; unknown names list the valid ones")
    p.add_argument("--budget", required=True, help="count (>= 1) or fraction in (0, 1)")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--start-index", type=int, default=None)
    p.add_argument("--switch", type=float, default=None, help="fps_then_random switch fraction")
    p.add_argument("--trace", action="store_true", help="include fill/sep traces in the JSON")
    p.add_argument("--label-column", default=None, help="drop this column before selecting")
    p.add_argument("--out", default=None)
    p.set_defaults(handler=_cmd_select)

    p = sub.add_parser("fit", help="train kernel ridge regression on a labelled CSV")
    p.add_argument("--data", required=True)
    p.add_argument("--label-column", default=None)
    p.add_argument("--gamma", default="auto", help="kernel width, or 'auto'")
    p.add_argument("--lambda", dest="lam", type=float, default=0.0)
    p.add_argument("--out", required=True, help="model file to write")
    p.set_defaults(handler=_cmd_fit)

    p = sub.add_parser("predict", help="predict labels for a CSV with a saved model")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--label-column", default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(handler=_cmd_predict)

    p = sub.add_parser("eval", help="maximum/mean absolute error of a model on labelled data")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--label-column", default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(handler=_cmd_eval)

    p = sub.add_parser("bound", help="evaluate the fill-distance error bound for a selection")
    p.add_argument("--data", required=True)
    p.add_argument("--label-column", default=None)
    p.add_argument("--selection", required=True, help="selection JSON file")
    p.add_argument("--model", required=True, help="model file")
    p.add_argument(
        "--constants",
        required=True,
        help="comma list: lip_target=<f>,eps=<f>[,lip_label_arg=<f>]",
    )
    p.add_argument("--out", default=None)
    p.set_defaults(handler=_cmd_bound)

    p = sub.add_parser("corr", help="feature/label pairwise distance correlation")
    p.add_argument("--data", required=True)
    p.add_argument("--label-column", default=None)
    p.add_argument("--max-pairs", type=int, default=5_000_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(handler=_cmd_corr)

    p = sub.add_parser("nn", help="nearest-neighbour distances of a pool")
    p.add_argument("--data", required=True)
    p.add_argument("--label-column", default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(handler=_cmd_nn)

    p = sub.add_parser("synth", help="generate a synthetic labelled dataset CSV")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--lipschitz", dest="target_lipschitz", type=float, default=argparse.SUPPRESS)
    p.add_argument("--noise", dest="noise_level", type=float, default=argparse.SUPPRESS)
    p.add_argument("--tail-fraction", type=float, default=argparse.SUPPRESS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_synth)

    p = sub.add_parser("experiment", help="run a sweep from an INI config")
    p.add_argument("--config", required=True)
    p.add_argument("--out-dir", default=".")
    p.add_argument("--dry-run", action="store_true")
    p.set_defaults(handler=_cmd_experiment)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        _apply_thread_limit(args.threads)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    from .errors import ConfigError, FillgapError

    try:
        return args.handler(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except FillgapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
