"""fillgap benchmark: one workload, every output checked, one JSON result.

    python3 bench/run.py --workload sweep-tail --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. Each worker (bench/worker.py) is a fresh
process with the BLAS thread count pinned to BLAS_THREADS.

--trace 0 reports the end-to-end metrics:
  setup_s       start of a fresh process -> pool in memory, median of
                SETUP_SAMPLES processes
  run_s         pool in memory -> results written, median of the rounds
  peak_rss_mib  ru_maxrss of the worker after set-up and its first round
One worker sets up once and repeats whole rounds of run and check until the
timed runs add up to --seconds (at least one round); set-up-only workers
follow until there are SETUP_SAMPLES set-up times.

--trace 1 runs one untraced and one traced worker of one round each and
reports the per-layer metrics of bench/spans.py from the traced one, plus
trace.overhead_s (traced run_s - untraced run_s) and trace.unattributed_s
(traced run_s not covered by a span).

The last line of standard output is the JSON result. Exits non-zero without
a result when the program cannot be run, for example outside a checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

import spans
import workloads

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
RUN_DIR = os.path.join(BENCH_DIR, "_run")  # scratch inputs, outputs and traces

BLAS_THREADS = 1
SETUP_SAMPLES = 3
WORKER_TIMEOUT_S = 170


def worker_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env.pop("FILLGAP_THREADS", None)
    env["PYTHONHASHSEED"] = "0"
    return env


def run_worker(workdir: str, mode: str, seconds: float = 0.0, trace: bool = False) -> dict:
    """One fresh worker process; its result with set-up time filled in."""
    result_path = os.path.join(workdir, "result.json")
    if os.path.exists(result_path):
        os.remove(result_path)
    cmd = [sys.executable, os.path.join(BENCH_DIR, "worker.py"), workdir, "--mode", mode, "--seconds", str(seconds)]
    if trace:
        cmd.append("--trace")
    started = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, env=worker_env(), timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"worker {' '.join(cmd[2:])} exited with {proc.returncode}")
    with open(result_path, encoding="utf-8") as fh:
        result = json.load(fh)
    result["setup_s"] = result["pool_ready"] - started
    for failure in result.get("failures", []):
        print(f"failed operation: {failure}", file=sys.stderr)
    for error in result.get("errors", []):
        print(f"CHECK FAILED: {error}", file=sys.stderr)
    return result


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(workdir: str, seconds: float) -> tuple[list[dict], dict]:
    full = run_worker(workdir, "full", seconds=seconds)
    setups = [full["setup_s"]]
    while len(setups) < SETUP_SAMPLES:
        setups.append(run_worker(workdir, "setup")["setup_s"])
    print(
        f"{len(full['run_s'])} rounds, run_s {[round(r, 3) for r in full['run_s']]}, "
        f"setup_s {[round(s, 3) for s in setups]}",
        file=sys.stderr,
    )
    return [full], {
        "setup_s": metric(statistics.median(setups), "s"),
        "run_s": metric(statistics.median(full["run_s"]), "s"),
        "peak_rss_mib": metric(full["peak_rss_mib"], "MiB"),
    }


def per_layer(workdir: str, trace_path: str) -> tuple[list[dict], dict]:
    plain = run_worker(workdir, "full")
    traced = run_worker(workdir, "full", trace=True)
    window = tuple(traced["run_window"])
    metrics = spans.layer_metrics(traced["spans"])
    metrics["trace.overhead_s"] = metric(traced["run_s"][0] - plain["run_s"][0], "s")
    metrics["trace.unattributed_s"] = metric(spans.unattributed(traced["spans"], window), "s")
    print(f"self time inside the traced run ({traced['run_s'][0]:.3f} s):", file=sys.stderr)
    for name, calls, seconds in spans.self_time_table(traced["spans"], window):
        print(f"  {name:<36} {calls:>6} calls {seconds:>10.4f} s", file=sys.stderr)
    with open(trace_path, "w", encoding="utf-8") as fh:
        json.dump({"run_window": window, "spans": traced["spans"]}, fh)
    print(f"spans written to {os.path.relpath(trace_path, ROOT)}", file=sys.stderr)
    return [plain, traced], metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="fillgap benchmark")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true", help="reduced sizes, for the benchmark's own tests")
    args = parser.parse_args(argv)
    # On SIGTERM, unwind: subprocess.run kills and reaps the running worker
    # and the scratch directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not os.path.isfile(os.path.join(ROOT, "src", "fillgap", "__init__.py")):
        print(f"no fillgap sources under {os.path.join(ROOT, 'src')}; run from a checkout", file=sys.stderr)
        return 2

    os.makedirs(RUN_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=RUN_DIR)
    try:
        workloads.make_inputs(args.workload, args.seed, workdir, small=args.small)
        if args.trace:
            trace_path = os.path.join(RUN_DIR, f"trace-{args.workload}-seed{args.seed}.json")
            rounds, metrics = per_layer(workdir, trace_path)
        else:
            rounds, metrics = end_to_end(workdir, args.seconds)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(
        json.dumps(
            {
                "correct": all(not r["errors"] for r in rounds),
                "attempted": sum(r["attempted"] for r in rounds),
                "failed": sum(r["failed"] for r in rounds),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
