"""Tests of the benchmark itself: the small mode of every workload runs and
passes its checks, and every check fails on a deliberately corrupted output.

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import configparser
import dataclasses
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import checks
import spans
import worker
import workloads

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH_DIR)


def _bench_process(*args: str) -> subprocess.CompletedProcess:
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"), *args],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return proc


def _bench(*args: str) -> dict:
    return json.loads(_bench_process(*args).stdout.strip().splitlines()[-1])


def _declared(kind: str) -> set[str]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"] for m in json.load(fh)[kind]}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_small_mode_runs_and_passes_its_checks(workload):
    result = _bench("--workload", workload, "--seed", "5", "--seconds", "0", "--trace", "0", "--small")
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == _declared("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_rounds_repeat_until_their_run_times_add_up_to_the_seconds():
    proc = _bench_process("--workload", "sweep-tail", "--seed", "5", "--seconds", "1", "--trace", "0", "--small")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    logged = [line for line in proc.stderr.splitlines() if " rounds, run_s [" in line]
    assert len(logged) == 1
    times = json.loads(logged[0].split("run_s ", 1)[1].split("]", 1)[0] + "]")
    slack = 1e-3 * len(times)  # the log rounds each time to 1 ms
    assert sum(times) >= 1 - slack and sum(times[:-1]) < 1 + slack
    cells = 5 * 6 * workloads.SIZES["sweep-tail"][True]["repeats"]
    assert (result["attempted"], result["failed"]) == (cells * len(times), 0)


def test_traced_small_mode_reports_every_layer():
    result = _bench("--workload", "sweep-molecular", "--seed", "5", "--seconds", "0", "--trace", "1", "--small")
    assert result["correct"] is True
    assert set(result["metrics"]) == _declared("per_layer")
    assert result["metrics"]["selection.select_calls"]["value"] == 4 * 7 * 2


def test_outside_a_checkout_exits_nonzero_without_a_result(tmp_path):
    bench_copy = tmp_path / "bench"
    bench_copy.mkdir()
    for name in ("run.py", "worker.py", "workloads.py", "checks.py", "spans.py"):
        (bench_copy / name).write_text(open(os.path.join(BENCH_DIR, name), encoding="utf-8").read())
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "desk-large", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_workload_configs_match_the_shipped_configs():
    def parsed(text):
        parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
        parser.read_string(text)
        return {s: dict(parser[s]) for s in parser.sections()}

    def shipped(name):
        with open(os.path.join(ROOT, "configs", name), encoding="utf-8") as fh:
            return parsed(fh.read())

    tail = parsed(workloads.TAIL_INI.format(synth_seed=0, master_seed=0, **workloads.SIZES["sweep-tail"][False]))
    want = shipped("synthetic_tail.ini")
    # The tail pool has 1000 rows instead of 2000: at 2000, facility location
    # streams its 32 MB distance matrix from memory at every step, and its
    # time swings with the memory traffic of whatever shares the machine.
    assert (tail["synth"]["n"], want["synth"]["n"]) == ("1000", "2000")
    for section, key in (("synth", "seed"), ("sweep", "master_seed"), ("synth", "n")):
        del tail[section][key], want[section][key]
    assert tail == want

    size = workloads.SIZES["sweep-molecular"][False]
    molecular = parsed(workloads.MOLECULAR_INI.format(path="x", master_seed=0, repeats=size["repeats"]))
    want = shipped("molecular_features.ini")
    for section in (molecular, want):
        del section["sweep"]["master_seed"]
    assert {k: molecular[k] for k in ("sweep", "model")} == {k: want[k] for k in ("sweep", "model")}


def test_declared_per_layer_metrics_are_the_ones_reported():
    assert _declared("per_layer") == set(spans.LAYER_METRICS) | {"trace.overhead_s", "trace.unattributed_s"}


def test_molecule_generator_is_seeded_and_never_places_coincident_atoms():
    a = workloads.make_molecules(9, 50)
    b = workloads.make_molecules(9, 50)
    assert all(sa == sb and np.array_equal(pa, pb) for (sa, pa), (sb, pb) in zip(a, b))
    assert len(a[0][0]) == workloads.MAX_ATOMS
    for _, positions in a:
        gaps = np.linalg.norm(positions[:, None] - positions[None], axis=-1) + np.eye(len(positions))
        assert gaps.min() >= 0.9


# ---------------------------------------------------------------------------
# Every check fails on a corrupted output
# ---------------------------------------------------------------------------


def _small_outputs(workload, tmp_path):
    worker._import_fillgap()
    spec = workloads.make_inputs(workload, 7, str(tmp_path), small=True)
    setup, run, check = worker.PHASES[workload]
    import fillgap.experiment

    gammas: list = []
    original = worker._capture_gamma(gammas)
    try:
        state = setup(spec)
        out = run(spec, state)
    finally:
        fillgap.experiment.gamma_for_half_kernel = original
    return spec, state, out, gammas, check


@pytest.fixture(scope="module")
def tail_sweep(tmp_path_factory):
    spec, state, out, gammas, check = _small_outputs("sweep-tail", tmp_path_factory.mktemp("tail"))
    with open(out["rows"], encoding="utf-8") as fh:
        rows = fh.read()
    with open(out["aggregates"], encoding="utf-8") as fh:
        aggregates = fh.read()
    assert check(spec, state, out, gammas)[2] == []
    cfg = state["cfg"]
    shape = ([s.label for s in cfg.strategies], list(cfg.budgets), cfg.repeats, list(cfg.metrics))
    return rows, aggregates, shape, state["pool"].features, gammas[0]


@pytest.fixture(scope="module")
def molecular_sweep(tmp_path_factory):
    spec, state, out, gammas, check = _small_outputs("sweep-molecular", tmp_path_factory.mktemp("molecular"))
    assert check(spec, state, out, gammas)[2] == []
    with open(out["rows"], encoding="utf-8") as fh:
        rows = fh.read()
    with open(out["aggregates"], encoding="utf-8") as fh:
        aggregates = fh.read()
    cfg = state["cfg"]
    return rows, aggregates, ([s.label for s in cfg.strategies], list(cfg.budgets), cfg.repeats, list(cfg.metrics))


@pytest.fixture(scope="module")
def desk(tmp_path_factory):
    spec, state, out, gammas, check = _small_outputs("desk-large", tmp_path_factory.mktemp("desk"))
    attempted, failed, errors = check(spec, state, out, gammas)
    assert (attempted, failed, errors) == (worker.DESK_OPERATIONS, 0, [])
    return spec, state, out, check


def _edit_row(rows_text, match, edit):
    """Apply ``edit`` to the first data row for which ``match`` holds."""
    lines = rows_text.splitlines(keepends=True)
    for i, line in enumerate(lines[1:], start=1):
        cells = line.rstrip("\r\n").split(",")
        if match(cells):
            lines[i] = ",".join(edit(cells)) + "\r\n"
            return "".join(lines)
    raise AssertionError("no row matched")


def test_check_sweep_passes_on_real_output(tail_sweep):
    rows, aggregates, shape, _, _ = tail_sweep
    attempted, failed, errors = checks.check_sweep(rows, aggregates, *shape)
    assert (attempted, failed, errors) == (len(shape[0]) * len(shape[1]) * shape[2], 0, [])


def test_dropped_rows_line_fails(tail_sweep):
    rows, aggregates, shape, _, _ = tail_sweep
    lines = rows.splitlines(keepends=True)
    assert checks.check_sweep("".join(lines[:7] + lines[8:]), aggregates, *shape)[2]


def test_dropped_aggregates_line_fails(tail_sweep):
    rows, aggregates, shape, _, _ = tail_sweep
    assert checks.check_sweep(rows, "".join(aggregates.splitlines(keepends=True)[:-1]), *shape)[2]


def test_perturbed_aggregate_fails(tail_sweep):
    rows, aggregates, shape, _, _ = tail_sweep
    lines = aggregates.splitlines(keepends=True)
    cells = lines[3].rstrip("\r\n").split(",")
    cells[3] = repr(float(cells[3]) * (1 + 1e-9))
    bad = "".join(lines[:3] + [",".join(cells) + "\r\n"] + lines[4:])
    assert checks.check_sweep(rows, bad, *shape)[2]


def test_maxae_below_mae_fails(tail_sweep):
    rows, aggregates, shape, _, _ = tail_sweep
    bad = _edit_row(rows, lambda c: c[3] == "maxae", lambda c: c[:4] + ["1e-300"])
    assert any("maxae" in e for e in checks.check_sweep(bad, aggregates, *shape)[2])


def test_nan_prediction_counts_as_failed_cell(tail_sweep):
    rows, aggregates, shape, _, _ = tail_sweep
    bad = _edit_row(rows, lambda c: c[3] == "mae", lambda c: c[:4] + ["nan"])
    assert checks.check_sweep(bad, aggregates, *shape)[1] == 1


def test_fps_fill_above_twice_separation_fails(tail_sweep):
    rows, aggregates, shape, _, _ = tail_sweep
    bad = _edit_row(rows, lambda c: c[0] == "fps" and c[3] == "sep_distance", lambda c: c[:4] + ["1e-6"])
    assert any("2 * sep" in e for e in checks.check_sweep(bad, aggregates, *shape)[2])


def test_fps_fill_increasing_with_budget_fails(tail_sweep):
    rows, aggregates, shape, _, _ = tail_sweep
    last = repr(shape[1][-1])
    bad = _edit_row(
        rows, lambda c: c[0] == "fps" and c[1] == last and c[3] == "fill_distance", lambda c: c[:4] + ["1e6"]
    )
    assert any("increases with the budget" in e for e in checks.check_sweep(bad, aggregates, *shape)[2])


def test_condition_number_below_one_fails(tail_sweep):
    rows, aggregates, shape, _, _ = tail_sweep
    bad = _edit_row(rows, lambda c: c[3] == "cond_unregularized", lambda c: c[:4] + ["0.5"])
    assert any("cond_" in e for e in checks.check_sweep(bad, aggregates, *shape)[2])


def test_regularized_above_unregularized_fails(molecular_sweep):
    rows, aggregates, shape = molecular_sweep
    assert checks.check_sweep(rows, aggregates, *shape)[2] == []
    bad = _edit_row(rows, lambda c: c[3] == "cond_regularized", lambda c: c[:4] + ["1e300"])
    assert any("not ordered" in e for e in checks.check_sweep(bad, aggregates, *shape)[2])


def test_gamma_check(tail_sweep):
    *_, features, gamma = tail_sweep
    assert checks.check_gamma(features, gamma) == []
    assert checks.check_gamma(features, gamma * (1 + 1e-6))


def _check_desk_with(desk, strategy, **changes):
    spec, state, out, check = desk
    entry = dict(out["strategies"][strategy], **changes)
    edited = dict(out, strategies=dict(out["strategies"], **{strategy: entry}))
    return check(spec, state, edited, [])[2]


def test_swapped_selected_index_fails(desk):
    _, state, out, _ = desk
    sel = out["strategies"]["fps"]["selection"]
    unselected = np.setdiff1d(np.arange(state["pool"].n), sel.indices)
    swapped = sel.indices.copy()
    swapped[-1] = unselected[0]
    errors = _check_desk_with(desk, "fps", selection=dataclasses.replace(sel, indices=swapped))
    assert any("fill distance" in e for e in errors)


def test_broken_greedy_identity_fails(desk):
    sel = desk[2]["strategies"]["fps"]["selection"]
    sep = sel.sep_trace.copy()
    sep[3] *= 1 + 1e-12
    assert checks.check_fps_traces(sel.fill_trace, sel.sep_trace) == []
    assert checks.check_fps_traces(sel.fill_trace, sep)
    fill = sel.fill_trace.copy()
    fill[4] = fill[2] * 2
    assert any("increases" in e for e in checks.check_fps_traces(fill, sel.sep_trace))


def test_perturbed_prediction_fails(desk):
    _, state, out, _ = desk
    r = out["strategies"]["random"]
    queries = state["pool"].features[r["mask"]][:5]
    pred = r["pred"][:5].copy()
    args = (r["model"].train_features, r["model"].weights, r["model"].gamma)
    assert checks.check_predictions(queries, pred, *args) == []
    pred[2] += 1e-6 * max(1.0, abs(pred[2]))
    assert checks.check_predictions(queries, pred, *args)


def test_bound_below_observed_error_fails(desk):
    bound = desk[2]["strategies"]["random"]["bound"]
    tight = dataclasses.replace(bound, bound_value=0.5 * bound.observed_maxae)
    assert any("bound" in e for e in _check_desk_with(desk, "random", bound=tight))


def test_fps_not_beating_random_fails(desk):
    r = desk[2]["strategies"]["fps"]
    pred = r["pred"].copy()
    pred[0] += 1e6
    assert any("not below random" in e for e in _check_desk_with(desk, "fps", pred=pred))


def test_exact_distances_match_a_direct_loop():
    rng = np.random.default_rng(0)
    points, centres = rng.normal(size=(300, 5)), rng.normal(size=(7, 5))
    loop = [min(math.fsum((p - c) ** 2) for c in centres) for p in points]
    np.testing.assert_allclose(checks.exact_min_sq_dists(points, centres, block=64), loop, rtol=1e-14)
