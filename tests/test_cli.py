import json
import math
import os

import numpy as np
import pytest

from fillgap.cli import main
from fillgap.dataset import Dataset, SynthConfig, save_dataset, synth_lipschitz


@pytest.fixture
def pool_csv(tmp_path):
    ds = synth_lipschitz(SynthConfig(n=60, d=3, target_lipschitz=2.0, seed=5))
    path = tmp_path / "pool.csv"
    save_dataset(ds, path)
    return path


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    out = capsys.readouterr()
    return code, out.out, out.err


# ---------------------------------------------------------------------------
# select
# ---------------------------------------------------------------------------


def test_select_count_budget(pool_csv, capsys):
    code, out, _ = run(
        capsys, "select", "--data", pool_csv, "--label-column", "y",
        "--strategy", "fps", "--budget", "10", "--seed", "7",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["strategy"] == "fps" and payload["seed"] == 7
    assert len(payload["indices"]) == 10
    assert len(set(payload["indices"])) == 10
    assert "fill_trace" not in payload


def test_select_fraction_budget_rounds(pool_csv, capsys):
    code, out, _ = run(
        capsys, "select", "--data", pool_csv, "--label-column", "y",
        "--strategy", "random", "--budget", "0.1", "--seed", "1",
    )
    assert code == 0
    assert len(json.loads(out)["indices"]) == 6  # 0.1 * 60


def test_select_trace_flag(pool_csv, capsys):
    code, out, _ = run(
        capsys, "select", "--data", pool_csv, "--label-column", "y",
        "--strategy", "fps", "--budget", "5", "--seed", "2", "--trace",
    )
    payload = json.loads(out)
    assert len(payload["fill_trace"]) == 5
    assert payload["sep_trace"][0] is None


def test_select_hybrid_requires_switch(pool_csv, capsys):
    code, _, err = run(
        capsys, "select", "--data", pool_csv, "--strategy", "fps_then_random",
        "--budget", "5", "--seed", "2",
    )
    assert code == 1 and "switch" in err


def test_select_hybrid(pool_csv, capsys):
    code, out, _ = run(
        capsys, "select", "--data", pool_csv, "--label-column", "y",
        "--strategy", "fps_then_random", "--switch", "0.05",
        "--budget", "10", "--seed", "2",
    )
    assert code == 0
    assert len(json.loads(out)["indices"]) == 10


def test_select_unknown_strategy_is_usage_error(pool_csv, capsys):
    code, _, err = run(
        capsys, "select", "--data", pool_csv, "--strategy", "warp",
        "--budget", "5", "--seed", "2",
    )
    assert code == 1
    assert "fps" in err  # the valid list is shown


def test_select_writes_out_file(pool_csv, tmp_path, capsys):
    out_path = tmp_path / "sel.json"
    code, _, _ = run(
        capsys, "select", "--data", pool_csv, "--label-column", "y",
        "--strategy", "fps", "--budget", "8", "--seed", "3",
        "--trace", "--out", out_path,
    )
    assert code == 0
    assert len(json.loads(out_path.read_text())["indices"]) == 8


def test_select_byte_identical_reruns(pool_csv, capsys):
    args = (
        "select", "--data", pool_csv, "--label-column", "y",
        "--strategy", "kmedoidspp", "--budget", "6", "--seed", "11", "--trace",
    )
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2


# ---------------------------------------------------------------------------
# fit / predict / eval
# ---------------------------------------------------------------------------


def test_fit_predict_eval_roundtrip(pool_csv, tmp_path, capsys):
    model_path = tmp_path / "model.krr"
    code, out, _ = run(
        capsys, "fit", "--data", pool_csv, "--gamma", "auto",
        "--lambda", "1e-8", "--out", model_path,
    )
    assert code == 0
    header = json.loads(out)
    assert header["b"] == 60 and header["d"] == 3
    assert json.loads(model_path.read_bytes().split(b"\n")[0]) == header

    code, out, _ = run(capsys, "predict", "--model", model_path, "--data", pool_csv,
                       "--label-column", "y")
    assert code == 0
    predictions = json.loads(out)
    assert len(predictions) == 60

    code, out, _ = run(capsys, "eval", "--model", model_path, "--data", pool_csv)
    assert code == 0
    metrics = json.loads(out)
    # interpolating fit evaluated on its own training data
    assert metrics["maxae"] <= 1e-6
    assert metrics["mae"] <= metrics["maxae"]


def test_predict_dimension_mismatch_is_data_error(tmp_path, capsys):
    ds = Dataset(np.random.default_rng(0).normal(size=(10, 2)),
                 labels=np.random.default_rng(1).normal(size=10))
    csv_a = tmp_path / "a.csv"
    save_dataset(ds, csv_a)
    model_path = tmp_path / "m.krr"
    code, _, _ = run(capsys, "fit", "--data", csv_a, "--gamma", "1.0",
                     "--lambda", "1e-9", "--out", model_path)
    assert code == 0
    wide = tmp_path / "wide.csv"
    save_dataset(Dataset(np.zeros((3, 5)) + np.arange(5)), wide)
    code, _, err = run(capsys, "predict", "--model", model_path, "--data", wide)
    assert code == 2


# ---------------------------------------------------------------------------
# corr / nn / bound
# ---------------------------------------------------------------------------


def test_corr_linear_labels(tmp_path, capsys):
    # distinct pairwise gaps and exact integer arithmetic: both coefficients
    # must come out exactly one
    x = np.array([0.0, 1.0, 3.0, 7.0, 15.0, 31.0, 63.0, 127.0, 255.0])[:, None]
    ds = Dataset(x, labels=2.0 * x[:, 0] + 3.0)
    path = tmp_path / "lin.csv"
    save_dataset(ds, path)
    code, out, _ = run(capsys, "corr", "--data", path)
    assert code == 0
    report = json.loads(out)
    assert report["pearson"] == pytest.approx(1.0, abs=1e-12)
    assert report["spearman"] == pytest.approx(1.0, abs=1e-12)
    assert report["verdict"] == "positive"


def test_corr_requires_labels(tmp_path, capsys):
    save_dataset(Dataset(np.random.default_rng(0).normal(size=(10, 1))), tmp_path / "u.csv")
    # single-column file cannot yield features plus labels
    code, _, err = run(capsys, "corr", "--data", tmp_path / "u.csv")
    assert code == 2


def test_nn_matches_recomputation(pool_csv, capsys):
    code, out, _ = run(capsys, "nn", "--data", pool_csv, "--label-column", "y")
    assert code == 0
    payload = json.loads(out)
    from fillgap.dataset import load_dataset
    from fillgap.selection import nn_distances

    pool = load_dataset(pool_csv, has_labels=True, label_column="y")
    dists, mean = nn_distances(pool.features)
    assert payload["distances"] == [float(v) for v in dists]
    assert payload["mean"] == mean


def test_label_column_index_reads_alike_on_the_command_line_and_in_a_config(tmp_path, capsys):
    from fillgap.errors import DataError
    from fillgap.experiment import load_experiment_config, pool_from_config
    from fillgap.selection import nn_distances

    # Labels in column 0 under a header: only the index, not a name, picks them.
    values = np.random.default_rng(3).uniform(size=(20, 4))
    data = tmp_path / "pool.csv"
    np.savetxt(data, values, delimiter=",", header="t,a,b,c", comments="")
    ini = tmp_path / "exp.ini"

    def config(label):
        ini.write_text(
            f"[dataset]\npath = {data}\nlabel_column = {label}\nnormalize = false\n\n"
            "[sweep]\nstrategies = fps\nbudgets = 0.5\nmaster_seed = 1\nmetrics = maxae\n\n"
            "[model]\ngamma = 1.0\n"
        )
        return load_experiment_config(ini)

    pool = pool_from_config(config("0"))
    assert np.array_equal(pool.labels, values[:, 0])
    assert np.array_equal(pool.features, values[:, 1:])
    code, out, _ = run(capsys, "nn", "--data", data, "--label-column", "0")
    assert code == 0
    assert json.loads(out)["distances"] == nn_distances(pool.features)[0].tolist()

    # Only a signed run of ASCII digits is an index; other text, "+-1" too, names a header.
    for label, message in (("-1", "index -1 out of range"), ("+-1", "'\\+-1' not found")):
        with pytest.raises(DataError, match=message) as exc:
            pool_from_config(config(label))
        code, _, err = run(capsys, "nn", "--data", data, "--label-column", label)
        assert code == 2
        assert err.strip() == f"error: {exc.value}"


def _bound_inputs(tmp_path, capsys):
    """A synthetic pool, an FPS selection with traces and a model fitted on it."""
    code, out, _ = run(
        capsys, "synth", "--n", "150", "--d", "3", "--lipschitz", "2.0",
        "--noise", "0.1", "--seed", "9", "--out", tmp_path / "synth.csv",
    )
    assert code == 0
    info = json.loads(out)
    assert info["lipschitz"] == pytest.approx(2.0)

    data = tmp_path / "synth.csv"
    sel_path = tmp_path / "sel.json"
    code, _, _ = run(
        capsys, "select", "--data", data, "--label-column", "y",
        "--strategy", "fps", "--budget", "15", "--seed", "4",
        "--trace", "--out", sel_path,
    )
    assert code == 0

    # train on exactly the selected rows
    from fillgap.dataset import load_dataset
    from fillgap.regression import gamma_for_half_kernel, krr_fit, save_model
    from fillgap.selection import SelectionResult

    pool = load_dataset(data, has_labels=True, label_column="y")
    selection = SelectionResult.from_json(sel_path.read_text())
    gamma = gamma_for_half_kernel(pool.features)
    model = krr_fit(
        Dataset(pool.features[selection.indices], labels=pool.labels[selection.indices]),
        gamma, 0.0,
    )
    model_path = tmp_path / "model.krr"
    save_model(model, model_path)
    return data, sel_path, model_path


def _run_bound(capsys, data, sel_path, model_path):
    return run(
        capsys, "bound", "--data", data, "--selection", sel_path,
        "--model", model_path, "--constants", "lip_target=2.0,eps=0.1",
    )


def test_bound_pipeline(tmp_path, capsys):
    code, out, _ = _run_bound(capsys, *_bound_inputs(tmp_path, capsys))
    assert code == 0
    report = json.loads(out)
    assert report["slack"] >= 0.0
    assert report["observed_maxae"] <= report["bound_value"]


def test_bound_rebuilds_the_traces_of_the_selection_file(tmp_path, capsys):
    data, sel_path, model_path = _bound_inputs(tmp_path, capsys)
    code, expected, _ = _run_bound(capsys, data, sel_path, model_path)
    assert code == 0
    payload = json.loads(sel_path.read_text())
    payload["fill_trace"] = [10.0 * v for v in payload["fill_trace"]]
    altered = tmp_path / "altered.json"
    altered.write_text(json.dumps(payload))
    code, out, _ = _run_bound(capsys, data, altered, model_path)
    assert code == 0
    assert out == expected
    del payload["fill_trace"], payload["sep_trace"]
    altered.write_text(json.dumps(payload))
    assert _run_bound(capsys, data, altered, model_path)[1] == expected


@pytest.mark.parametrize(
    "damage",
    ["truncated selection", "selection without seed", "non-integral indices", "model header [1]"],
)
def test_bound_and_predict_reject_malformed_files(tmp_path, capsys, damage):
    data, sel_path, model_path = _bound_inputs(tmp_path, capsys)
    if damage == "truncated selection":
        sel_path.write_text(sel_path.read_text()[:40])
    elif damage == "selection without seed":
        payload = json.loads(sel_path.read_text())
        del payload["seed"]
        sel_path.write_text(json.dumps(payload))
    elif damage == "non-integral indices":
        payload = json.loads(sel_path.read_text())
        payload["indices"] = [i + 0.5 for i in payload["indices"]]
        sel_path.write_text(json.dumps(payload))
    else:
        model_path.write_bytes(b"[1]\n" + model_path.read_bytes().split(b"\n", 1)[1])
        code, _, err = run(capsys, "predict", "--model", model_path, "--data", data,
                           "--label-column", "y")
        assert code == 2 and err.startswith("error: malformed model header")
    code, _, err = _run_bound(capsys, data, sel_path, model_path)
    assert code == 2 and err.startswith("error: malformed")


def test_bound_requires_constants(tmp_path, pool_csv, capsys):
    code, _, err = run(
        capsys, "bound", "--data", pool_csv, "--selection", "x.json",
        "--model", "m.krr", "--constants", "eps=0.1",
    )
    assert code == 1 and "lip_target" in err


# ---------------------------------------------------------------------------
# synth and experiment
# ---------------------------------------------------------------------------


def test_synth_writes_loadable_csv(tmp_path, capsys):
    out = tmp_path / "s.csv"
    code, _, _ = run(
        capsys, "synth", "--n", "40", "--d", "2", "--lipschitz", "1.0",
        "--tail-fraction", "0.05", "--seed", "3", "--out", out,
    )
    assert code == 0
    from fillgap.dataset import load_dataset

    ds = load_dataset(out, has_labels=True, label_column="y")
    assert ds.n == 40 and ds.d == 2


def test_synth_defaults_are_synth_configs(tmp_path, capsys):
    out = tmp_path / "s.csv"
    assert run(capsys, "synth", "--n", "30", "--d", "2", "--seed", "4", "--out", out)[0] == 0
    expected = tmp_path / "expected.csv"
    save_dataset(synth_lipschitz(SynthConfig(n=30, d=2, seed=4)), expected)
    assert out.read_bytes() == expected.read_bytes()


EXPERIMENT_INI = """
[synth]
n = 90
d = 2
target_lipschitz = 1.0
noise_level = 0.0
seed = 2

[sweep]
strategies = fps, random
budgets = 0.1, 0.2
repeats = 2
metrics = maxae, fill_distance
master_seed = 5

[model]
gamma = auto
lambda = 1e-9
"""


def test_experiment_dry_run_writes_nothing(tmp_path, capsys):
    cfg = tmp_path / "exp.ini"
    cfg.write_text(EXPERIMENT_INI)
    out_dir = tmp_path / "results"
    code, out, _ = run(
        capsys, "experiment", "--config", cfg, "--out-dir", out_dir, "--dry-run"
    )
    assert code == 0
    assert "cells: 8" in out
    assert not out_dir.exists()


def test_experiment_writes_both_csvs(tmp_path, capsys):
    cfg = tmp_path / "exp.ini"
    cfg.write_text(EXPERIMENT_INI)
    out_dir = tmp_path / "results"
    code, out, _ = run(capsys, "experiment", "--config", cfg, "--out-dir", out_dir)
    assert code == 0
    rows = (out_dir / "rows.csv").read_text().strip().splitlines()
    aggs = (out_dir / "aggregates.csv").read_text().strip().splitlines()
    assert len(rows) == 1 + 2 * 2 * 2 * 2  # strategies x budgets x repeats x metrics
    assert len(aggs) == 1 + 2 * 2 * 2  # strategies x budgets x metrics
    assert "maxae" in out  # summary table printed


def test_experiment_byte_identical(tmp_path, capsys):
    cfg = tmp_path / "exp.ini"
    cfg.write_text(EXPERIMENT_INI)
    dir_a, dir_b = tmp_path / "a", tmp_path / "b"
    assert run(capsys, "experiment", "--config", cfg, "--out-dir", dir_a)[0] == 0
    assert run(capsys, "experiment", "--config", cfg, "--out-dir", dir_b)[0] == 0
    assert (dir_a / "rows.csv").read_bytes() == (dir_b / "rows.csv").read_bytes()
    assert (dir_a / "aggregates.csv").read_bytes() == (dir_b / "aggregates.csv").read_bytes()


def test_experiment_invalid_config_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "exp.ini"
    cfg.write_text(EXPERIMENT_INI.replace("budgets = 0.1, 0.2", "budgets = oops"))
    code, _, err = run(capsys, "experiment", "--config", cfg)
    assert code == 1
    assert "budgets" in err


@pytest.mark.parametrize(
    "old,new,field",
    [
        ("strategies = fps, random", "strategies = fps, fps_then_random:1.5", "switch_fraction"),
        ("lambda = 1e-9", "lambda = 1e-9\ngrid_search = true\nfolds = 1", "folds"),
        ("lambda = 1e-9", "lambda = 1e-9\ngrid_search = true\ngrid_repeats = 0", "grid_repeats"),
        ("lambda = 1e-9", "lamda = 1e-3", "lamda"),
        ("repeats = 2", "repeat = 9", "repeat"),
        ("seed = 2", "seed = 2\ntail_fracton = 0.05", "tail_fracton"),
        ("strategies = fps, random", "strategies = fps, fps", "repeated"),
    ],
    ids=["switch_fraction", "folds", "grid_repeats", "lamda", "repeat", "tail_fracton", "twice"],
)
def test_experiment_config_errors_caught_by_dry_run(tmp_path, capsys, old, new, field):
    cfg = tmp_path / "exp.ini"
    cfg.write_text(EXPERIMENT_INI.replace(old, new))
    code, _, err = run(capsys, "experiment", "--config", cfg, "--dry-run")
    assert code == 1
    assert err.startswith("config error: [") and field in err


def test_data_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("a,b\n1,NaN\n")
    code, _, err = run(capsys, "nn", "--data", bad)
    assert code == 2
    assert "row 2" in err


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_select_overflowing_pool_exit_code(tmp_path, capsys):
    pool = np.random.default_rng(41).uniform(size=(301, 6)) * 1e155
    path = tmp_path / "huge.csv"
    np.savetxt(path, pool, fmt="%.17g", delimiter=",", header="a,b,c,d,e,f", comments="")
    for strategy in ("facility_location", "fps"):
        code, out, err = run(
            capsys, "select", "--data", path, "--strategy", strategy,
            "--budget", "12", "--seed", "4",
        )
        assert code == 2, strategy
        assert out == "" and "overflow" in err, strategy


def test_fit_too_large_for_memory_exit_code(pool_csv, tmp_path, capsys, monkeypatch):
    empty = np.empty

    def refusing(shape, *args, **kwargs):
        if shape == (60, 60):  # the training kernel matrix
            raise MemoryError("Unable to allocate")
        return empty(shape, *args, **kwargs)

    monkeypatch.setattr(np, "empty", refusing)
    code, out, err = run(
        capsys, "fit", "--data", pool_csv, "--label-column", "y", "--gamma", "1.0",
        "--out", tmp_path / "m.bin",
    )
    assert code == 2 and out == ""
    assert "60 x 60" in err and "GiB" in err


def test_missing_file_exit_code(tmp_path, capsys):
    code, _, _ = run(capsys, "nn", "--data", tmp_path / "absent.csv")
    assert code == 2


def test_threads_flag_validation(pool_csv, capsys):
    code, _, err = run(
        capsys, "--threads", "0", "nn", "--data", pool_csv, "--label-column", "y"
    )
    assert code == 1 and "threads" in err


def test_threads_env_fallback(pool_csv, capsys, monkeypatch):
    monkeypatch.setenv("FILLGAP_THREADS", "2")
    code, out, _ = run(capsys, "nn", "--data", pool_csv, "--label-column", "y")
    assert code == 0
    monkeypatch.setenv("FILLGAP_THREADS", "banana")
    code, _, err = run(capsys, "nn", "--data", pool_csv, "--label-column", "y")
    assert code == 1 and "FILLGAP_THREADS" in err


@pytest.mark.parametrize("budget", ["nan", "inf", "1e400"])
def test_select_rejects_non_finite_budget(pool_csv, capsys, budget):
    code, out, err = run(
        capsys, "select", "--data", pool_csv, "--label-column", "y",
        "--strategy", "fps", "--budget", budget, "--seed", "1",
    )
    assert code == 1 and out == ""
    assert "--budget must be finite" in err


def test_threads_flag_overrides_inherited_variables(monkeypatch):
    import sys

    from fillgap.cli import _THREAD_ENV_VARS, _apply_thread_limit

    # The limit acts only before numpy loads, which reads the variables once.
    monkeypatch.delitem(sys.modules, "numpy")
    for var in _THREAD_ENV_VARS:
        monkeypatch.setenv(var, "4")
    _apply_thread_limit(1)
    assert all(os.environ[var] == "1" for var in _THREAD_ENV_VARS)


def test_usage_error_leaves_no_partial_output(pool_csv, tmp_path, capsys):
    out_path = tmp_path / "never.json"
    for bad in (
        ("--strategy", "fps_then_random"),  # missing --switch
        ("--strategy", "random", "--start-index", "3"),  # option the sampler ignores
        ("--strategy", "kmedoidspp", "--start-index", "3"),
    ):
        code, _, _ = run(
            capsys, "select", "--data", pool_csv, *bad,
            "--budget", "5", "--seed", "1", "--out", out_path,
        )
        assert code == 1
        assert not out_path.exists()
