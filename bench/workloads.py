"""The benchmark's workloads and the inputs it makes for them from a seed.

Input generation uses numpy only, never fillgap: the program under test
receives the generated files and nothing else.

- ``sweep-tail``: the sweep of configs/synthetic_tail.ini (150 cells, d=8)
  on a pool of n=1000 instead of the shipped 2000; at 2000 the facility
  location time follows the memory traffic of the shared machine. Facility
  location and per-budget reselection dominate.
- ``sweep-molecular``: the [sweep] and [model] sections of
  configs/molecular_features.ini (140 cells) over Coulomb-matrix features of
  seeded synthetic molecules. Wide rows, featurisation and CSV ingest in
  set-up, k-medoids and two eigen-solves per cell in the run.
- ``desk-large``: one pass of the paper's pipeline at n=20000, d=16:
  gamma=auto, FPS and random selection, fit, predict, bound, conditioning.
  No facility location and no sweep orchestration.
"""

from __future__ import annotations

import json
import os

import numpy as np

WORKLOADS = ("sweep-tail", "sweep-molecular", "desk-large")

TAIL_INI = """\
[synth]
n = {n}
d = 8
target_lipschitz = 2.0
noise_level = 0.0
tail_fraction = 0.01
seed = {synth_seed}

[sweep]
strategies = fps, random, facility_location, kmedoidspp, fps_then_random:0.02
budgets = 0.01, 0.02, 0.03, 0.05, 0.07, 0.10
repeats = {repeats}
metrics = maxae, mae, fill_distance, sep_distance, cond_unregularized
master_seed = {master_seed}

[model]
gamma = auto
lambda = 1e-8
"""

MOLECULAR_INI = """\
[dataset]
path = {path}
label_column = y
normalize = true

[sweep]
strategies = fps, random, facility_location, kmedoidspp
budgets = 0.01, 0.02, 0.03, 0.04, 0.05, 0.07, 0.10
repeats = {repeats}
metrics = maxae, mae, cond_regularized, cond_unregularized
master_seed = {master_seed}

[model]
gamma = auto
lambda = 1.9e-4
"""

# Full size and the small mode the benchmark's own tests run.
SIZES = {
    "sweep-tail": {False: {"n": 1000, "repeats": 5}, True: {"n": 300, "repeats": 2}},
    "sweep-molecular": {False: {"molecules": 1000, "repeats": 5}, True: {"molecules": 200, "repeats": 2}},
    "desk-large": {False: {"n": 20000, "budget": 1000}, True: {"n": 2000, "budget": 100}},
}

MAX_ATOMS = 12
# Element symbols the generator draws, with their nuclear charges and odds.
ELEMENTS = (("H", 1, 0.45), ("C", 6, 0.30), ("N", 7, 0.10), ("O", 8, 0.08), ("F", 9, 0.04), ("S", 16, 0.03))


def _seeds(seed: int, workload: str, count: int) -> list[int]:
    """``count`` independent 32-bit seeds for one workload and --seed."""
    tag = [ord(c) for c in workload]
    return [int(s) for s in np.random.SeedSequence([seed, *tag]).generate_state(count)]


def make_molecules(seed: int, count: int) -> list[tuple[list[str], np.ndarray]]:
    """Seeded molecules of 2 to MAX_ATOMS atoms as (symbols, positions).

    Each atom after the first bonds to a uniformly chosen earlier atom at a
    length drawn from [0.95, 1.6] in a uniform direction; a placement closer
    than 0.9 to any earlier atom is redrawn, so no two atoms coincide. The
    first molecule always has MAX_ATOMS atoms, so the padded Coulomb matrix
    has MAX_ATOMS**2 = 144 columns.
    """
    rng = np.random.default_rng(seed)
    symbols, charges, odds = zip(*ELEMENTS)
    molecules = []
    for k in range(count):
        m = MAX_ATOMS if k == 0 else int(rng.integers(2, MAX_ATOMS + 1))
        picked = [symbols[i] for i in rng.choice(len(symbols), size=m, p=odds)]
        positions = np.zeros((m, 3))
        for i in range(1, m):
            while True:
                anchor = positions[int(rng.integers(i))]
                direction = rng.standard_normal(3)
                direction /= np.linalg.norm(direction)
                candidate = anchor + rng.uniform(0.95, 1.6) * direction
                if np.linalg.norm(positions[:i] - candidate, axis=1).min() >= 0.9:
                    positions[i] = candidate
                    break
        molecules.append((picked, positions))
    return molecules


def molecule_label(symbols: list[str], positions: np.ndarray) -> float:
    """A smooth pair energy: sum over atom pairs of sqrt(z_i z_j) exp(-r_ij / 1.5)."""
    charge = dict((s, z) for s, z, _ in ELEMENTS)
    z = np.array([charge[s] for s in symbols], dtype=np.float64)
    total = 0.0
    for i in range(len(z)):
        for j in range(i + 1, len(z)):
            r = float(np.linalg.norm(positions[i] - positions[j]))
            total += float(np.sqrt(z[i] * z[j])) * float(np.exp(-r / 1.5))
    return total


def xyz_text(molecules) -> str:
    """XYZ blocks; each comment line carries the label as ``y=<value>``."""
    lines = []
    for symbols, positions in molecules:
        lines.append(str(len(symbols)))
        lines.append(f"y={molecule_label(symbols, positions)!r}")
        for s, (x, y, zc) in zip(symbols, positions):
            lines.append(f"{s} {float(x)!r} {float(y)!r} {float(zc)!r}")
    return "\n".join(lines) + "\n"


def make_inputs(workload: str, seed: int, workdir: str, small: bool = False) -> dict:
    """Write the workload's inputs under ``workdir`` and return its spec,
    which is also saved as ``spec.json`` there for the worker process."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; valid: {WORKLOADS}")
    size = SIZES[workload][small]
    spec: dict = {"workload": workload, "seed": seed, "small": small, "dir": workdir}
    if workload == "sweep-tail":
        synth_seed, master_seed = _seeds(seed, workload, 2)
        spec["config"] = os.path.join(workdir, "config.ini")
        with open(spec["config"], "w", encoding="utf-8") as fh:
            fh.write(TAIL_INI.format(synth_seed=synth_seed, master_seed=master_seed, **size))
    elif workload == "sweep-molecular":
        molecule_seed, master_seed = _seeds(seed, workload, 2)
        spec["xyz"] = os.path.join(workdir, "molecules.xyz")
        spec["csv"] = os.path.join(workdir, "features.csv")
        spec["config"] = os.path.join(workdir, "config.ini")
        spec["max_atoms"] = MAX_ATOMS
        with open(spec["xyz"], "w", encoding="utf-8") as fh:
            fh.write(xyz_text(make_molecules(molecule_seed, size["molecules"])))
        with open(spec["config"], "w", encoding="utf-8") as fh:
            fh.write(
                MOLECULAR_INI.format(path=spec["csv"], master_seed=master_seed, repeats=size["repeats"])
            )
    else:
        synth_seed, fps_seed, random_seed, sample_seed = _seeds(seed, workload, 4)
        spec.update(
            n=size["n"],
            d=16,
            target_lipschitz=2.0,
            tail_fraction=0.01,
            noise_level=0.0,
            budget=size["budget"],
            lam=1e-8,
            synth_seed=synth_seed,
            fps_seed=fps_seed,
            random_seed=random_seed,
            sample_seed=sample_seed,
        )
    with open(os.path.join(workdir, "spec.json"), "w", encoding="utf-8") as fh:
        json.dump(spec, fh)
    return spec
