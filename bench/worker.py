"""One fresh process of one workload: set up once, then run and check the
outputs in whole rounds until the run times add up to ``--seconds``.

    python3 bench/worker.py <workdir> --mode full|setup [--seconds S] [--trace]

``run.py`` starts this with the BLAS thread count pinned. It reads
``<workdir>/spec.json`` and writes ``<workdir>/result.json`` with
CLOCK_MONOTONIC stamps (``time.monotonic``), so the parent can time set-up
from the moment it started the process, and the time of every run. Only
set-up and runs are timed; ``ru_maxrss`` is read after the first run, before
any check.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SRC_DIR = os.path.join(os.path.dirname(BENCH_DIR), "src")


def _import_fillgap():
    """Import fillgap from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, SRC_DIR)
    import fillgap

    if os.path.dirname(os.path.dirname(os.path.abspath(fillgap.__file__))) != SRC_DIR:
        raise SystemExit(f"fillgap imported from {fillgap.__file__}, not from {SRC_DIR}")
    import fillgap.analysis  # noqa: F401  (load every layer before tracing)
    import fillgap.experiment  # noqa: F401


# ---------------------------------------------------------------------------
# Sweeps: the calls `fillgap experiment` makes
# ---------------------------------------------------------------------------


def _labels_from_xyz(text: str) -> list[float]:
    """The ``y=<value>`` of each XYZ block's comment line."""
    lines = text.splitlines()
    labels, pos = [], 0
    while pos < len(lines):
        count = int(lines[pos])
        labels.append(float(lines[pos + 1].split("=", 1)[1]))
        pos += 2 + count
    return labels


def setup_sweep(spec: dict) -> dict:
    from fillgap.experiment import load_experiment_config, pool_from_config

    if spec["workload"] == "sweep-molecular":
        import numpy as np
        from fillgap.dataset import Dataset, coulomb_matrix, read_xyz, save_dataset

        with open(spec["xyz"], encoding="utf-8") as fh:
            text = fh.read()
        molecules = read_xyz(text)
        features = np.stack([coulomb_matrix(m, spec["max_atoms"]) for m in molecules])
        names = tuple(f"c{i}" for i in range(features.shape[1]))
        save_dataset(Dataset(features, labels=_labels_from_xyz(text), feature_names=names), spec["csv"])
    cfg = load_experiment_config(spec["config"])
    return {"cfg": cfg, "pool": pool_from_config(cfg)}


def run_sweep(spec: dict, state: dict) -> dict:
    from fillgap.experiment import run_experiment, write_report

    rows = os.path.join(spec["dir"], "rows.csv")
    aggregates = os.path.join(spec["dir"], "aggregates.csv")
    write_report(run_experiment(state["cfg"], state["pool"]), rows, aggregates)
    return {"rows": rows, "aggregates": aggregates}


def _expected_gamma(state: dict) -> float:
    """The KD-tree gamma of the pool, computed once per process: every round
    runs on the same pool."""
    import checks

    if "expected_gamma" not in state:
        state["expected_gamma"] = checks.nn_gamma(state["pool"].features)
    return state["expected_gamma"]


def check_sweep(spec: dict, state: dict, out: dict, gammas: list) -> tuple[int, int, list[str]]:
    import checks

    cfg = state["cfg"]
    with open(out["rows"], encoding="utf-8") as fh:
        rows_text = fh.read()
    with open(out["aggregates"], encoding="utf-8") as fh:
        aggregates_text = fh.read()
    attempted, failed, errors = checks.check_sweep(
        rows_text,
        aggregates_text,
        [s.label for s in cfg.strategies],
        list(cfg.budgets),
        cfg.repeats,
        list(cfg.metrics),
    )
    if len(gammas) != 1:
        errors.append(f"gamma=auto resolved {len(gammas)} times, expected once")
    else:
        errors += checks.check_gamma(state["pool"].features, gammas[0], _expected_gamma(state))
    return attempted, failed, errors


# ---------------------------------------------------------------------------
# desk-large: one pass of the paper's pipeline
# ---------------------------------------------------------------------------

DESK_STAGES = ("select", "fit", "predict", "bound", "conditioning")
DESK_STRATEGIES = ("fps", "random")
# gamma=auto, then every stage for every strategy
DESK_OPERATIONS = 1 + len(DESK_STAGES) * len(DESK_STRATEGIES)


def setup_desk(spec: dict) -> dict:
    from fillgap.dataset import SynthConfig, synth_with_info

    pool, info = synth_with_info(
        SynthConfig(
            n=spec["n"],
            d=spec["d"],
            target_lipschitz=spec["target_lipschitz"],
            noise_level=spec["noise_level"],
            tail_fraction=spec["tail_fraction"],
            seed=spec["synth_seed"],
        )
    )
    return {"pool": pool, "info": info}


def run_desk(spec: dict, state: dict) -> dict:
    import numpy as np
    from fillgap.analysis import bound_check
    from fillgap.dataset import Dataset
    from fillgap.errors import FillgapError
    from fillgap.regression import conditioning_report, gamma_for_half_kernel, krr_fit, krr_predict
    from fillgap.selection import fps, random_select

    pool, info = state["pool"], state["info"]
    out: dict = {"gamma": None, "strategies": {}, "failed_ops": 0, "failures": []}
    try:
        out["gamma"] = gamma_for_half_kernel(pool.features)
    except FillgapError as exc:
        out["failed_ops"] = DESK_OPERATIONS
        out["failures"].append(f"gamma: {exc}")
        return out
    samplers = {"fps": fps, "random": random_select}
    for name in DESK_STRATEGIES:
        stage = DESK_STAGES[0]
        try:
            selection = samplers[name](pool.features, spec["budget"], seed=spec[f"{name}_seed"])
            idx = selection.indices
            stage = DESK_STAGES[1]
            model = krr_fit(Dataset(pool.features[idx], labels=pool.labels[idx]), out["gamma"], spec["lam"])
            stage = DESK_STAGES[2]
            mask = np.ones(pool.n, dtype=bool)
            mask[idx] = False
            pred = krr_predict(model, pool.features[mask])
            stage = DESK_STAGES[3]
            bound = bound_check(pool, selection, model, lip_target=info.lipschitz, eps=0.0)
            stage = DESK_STAGES[4]
            cond = conditioning_report(pool.features, idx, out["gamma"], spec["lam"])
        except FillgapError as exc:
            out["failed_ops"] += len(DESK_STAGES) - DESK_STAGES.index(stage)
            out["failures"].append(f"{name} {stage}: {exc}")
            continue
        out["strategies"][name] = {
            "selection": selection,
            "model": model,
            "mask": mask,
            "pred": pred,
            "bound": bound,
            "cond": cond,
        }
    return out


def check_desk(spec: dict, state: dict, out: dict, gammas: list) -> tuple[int, int, list[str]]:
    import numpy as np

    import checks

    errors: list[str] = []
    if out["gamma"] is None:
        return DESK_OPERATIONS, out["failed_ops"], errors
    pool = state["pool"]
    X, y = pool.features, pool.labels
    errors += checks.check_gamma(X, out["gamma"], _expected_gamma(state))
    maxae = {}
    for name, r in out["strategies"].items():
        sel, model, mask, pred = r["selection"], r["model"], r["mask"], r["pred"]
        truth = y[mask]
        maxae[name] = float(np.abs(pred - truth).max())
        summary = {
            "strategy": name,
            "bound_value": r["bound"].bound_value,
            "observed_maxae": r["bound"].observed_maxae,
            "maxae": maxae[name],
            "mae": float(np.abs(pred - truth).mean()),
            "cond_unregularized": r["cond"].cond_unregularized,
            "cond_regularized": r["cond"].cond_regularized,
            "cond_sep": r["cond"].sep_distance,
            "sep_final": float(sel.sep_trace[-1]),
        }
        errors += checks.check_desk_strategy(summary)
        rng = np.random.default_rng(spec["sample_seed"])
        sample = rng.choice(int(mask.sum()), size=min(200, int(mask.sum())), replace=False)
        errors += checks.check_predictions(
            X[mask][sample], pred[sample], model.train_features, model.weights, model.gamma
        )
        if name == "fps":
            errors += checks.check_fps_traces(sel.fill_trace, sel.sep_trace)
            errors += checks.check_fill(X, sel.indices, float(sel.fill_trace[-1]), "fps trace")
            if not math.isclose(r["bound"].fill_dist, sel.fill_trace[-1], rel_tol=1e-10):
                errors.append(f"bound fill {r['bound'].fill_dist!r} != fps trace {float(sel.fill_trace[-1])!r}")
    if set(maxae) == {"fps", "random"} and not maxae["fps"] < maxae["random"]:
        errors.append(f"fps maxae {maxae['fps']!r} is not below random's {maxae['random']!r}")
    return DESK_OPERATIONS, out["failed_ops"], errors


# workload -> (set-up, run, check); only set-up and run are timed
PHASES = {
    "sweep-tail": (setup_sweep, run_sweep, check_sweep),
    "sweep-molecular": (setup_sweep, run_sweep, check_sweep),
    "desk-large": (setup_desk, run_desk, check_desk),
}


def _capture_gamma(store: list):
    """Record each gamma=auto the sweep resolves, for the checks. Returns
    the function it replaced."""
    import fillgap.experiment as experiment

    resolve = experiment.gamma_for_half_kernel

    def recorded(pool):
        gamma = resolve(pool)
        store.append(gamma)
        return gamma

    experiment.gamma_for_half_kernel = recorded
    return resolve


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("workdir")
    parser.add_argument("--mode", choices=("full", "setup"), default="full")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--seconds", type=float, default=0.0, help="repeat the run until its times add up to this")
    args = parser.parse_args()
    with open(os.path.join(args.workdir, "spec.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    setup, run, check = PHASES[spec["workload"]]

    _import_fillgap()
    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.start()
        tracer.install()
    gammas: list = []
    _capture_gamma(gammas)

    state = setup(spec)
    pool_ready = time.monotonic()
    result: dict = {"pool_ready": pool_ready}
    if args.mode == "full":
        run_times: list[float] = []
        result.update(attempted=0, failed=0, errors=[], failures=[])
        # Whole rounds of run + check until the timed runs add up to --seconds.
        while not run_times or sum(run_times) < args.seconds:
            gammas.clear()
            run_start = time.perf_counter()
            out = run(spec, state)
            run_end = time.perf_counter()
            run_times.append(run_end - run_start)
            if len(run_times) == 1:
                # set-up plus one run, before any check allocates
                result["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
                if tracer is not None:
                    tracer.stop()
                    result["spans"] = [s.as_dict() for s in tracer.spans]
                    result["run_window"] = [run_start, run_end]
            result["failures"] += out.get("failures", [])
            attempted, failed, errors = check(spec, state, out, gammas)
            result["attempted"] += attempted
            result["failed"] += failed
            result["errors"] += errors
            del out
        result["run_s"] = run_times
    with open(os.path.join(args.workdir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
