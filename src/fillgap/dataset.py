"""Dataset ingestion, featurization, preprocessing and synthesis.

CSV files are comma separated, UTF-8, with an optional header row and plain
decimal-point floats. Molecules are read from XYZ-like text blocks (count
line, comment line, then ``symbol x y z`` rows).
"""

from __future__ import annotations

import csv
import json
import math
import os
import re
from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist

from .errors import DataError
from .rng import _count, _floats, _indices, _integral, _real, rng_from_seed
from .selection import nn_distances

# Nuclear charges for the supported element symbols.
CHARGE_BY_SYMBOL = {"H": 1, "C": 6, "N": 7, "O": 8, "F": 9, "S": 16}


@dataclass(frozen=True)
class Dataset:
    """A feature matrix with optional labels and column metadata.

    Parameters
    ----------
    features : (n, d) float64 array, finite entries only.
    labels : optional length-n float64 array, finite entries only.
    feature_names : optional length-d sequence of column names.
    source : free-form provenance text.
    """

    features: np.ndarray
    labels: np.ndarray | None = None
    feature_names: tuple[str, ...] | None = None
    source: str = ""

    def __post_init__(self):
        feats = _floats(self.features, "features", 2)
        if feats.size < 1:
            raise DataError(f"features must be non-empty, got shape {feats.shape}")
        object.__setattr__(self, "features", feats)
        if self.labels is not None:
            labels = _floats(self.labels, "labels", 1)
            if labels.shape[0] != feats.shape[0]:
                raise DataError(
                    f"label count {labels.shape} does not match row count {feats.shape[0]}"
                )
            object.__setattr__(self, "labels", labels)
        if self.feature_names is not None:
            names = tuple(str(c) for c in self.feature_names)
            if len(names) != feats.shape[1]:
                raise DataError(
                    f"{len(names)} feature names for {feats.shape[1]} columns"
                )
            object.__setattr__(self, "feature_names", names)

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def d(self) -> int:
        return self.features.shape[1]

    def require_labels(self) -> np.ndarray:
        if self.labels is None:
            raise DataError("dataset has no labels")
        return self.labels


@dataclass(frozen=True)
class Molecule:
    """Atomic composition and geometry: nuclear charges plus Cartesian positions."""

    charges: np.ndarray
    positions: np.ndarray

    def __post_init__(self):
        charges = np.asarray(self.charges)
        if charges.ndim != 1 or charges.shape[0] < 1:
            raise DataError("molecule needs at least one atom")
        try:
            charges = _indices(charges)  # integral, never truncated
        except DataError:
            charges = None
        if charges is None or (charges <= 0).any():
            raise DataError(f"nuclear charges must be positive integers, got {self.charges!r}")
        positions = _floats(self.positions, "positions", 2)
        if positions.shape != (charges.shape[0], 3):
            raise DataError(f"positions must have shape ({charges.shape[0]}, 3)")
        if charges.shape[0] > 1:
            dists = cdist(positions, positions)
            np.fill_diagonal(dists, np.inf)
            if (dists <= 0.0).any():
                raise DataError("molecule has coincident atoms")
        object.__setattr__(self, "charges", charges)
        object.__setattr__(self, "positions", positions)

    @property
    def m(self) -> int:
        return self.charges.shape[0]


@dataclass(frozen=True)
class SynthConfig:
    """Knobs for the synthetic regression dataset generator."""

    n: int
    d: int
    target_lipschitz: float = 1.0
    noise_level: float = 0.0
    tail_fraction: float = 0.0
    seed: int = 0

    def __post_init__(self):
        for name, sign in (
            ("target_lipschitz", "non-negative"), ("noise_level", "non-negative"), ("tail_fraction", "")
        ):
            object.__setattr__(self, name, _real(getattr(self, name), name, sign))
        for name in ("n", "d"):
            object.__setattr__(self, name, _count(getattr(self, name), name, 1))
        object.__setattr__(self, "seed", _integral(self.seed, "seed"))
        if not 0.0 <= self.tail_fraction < 1.0:
            raise DataError("tail_fraction must be in [0, 1)")


@dataclass(frozen=True)
class SynthInfo:
    """Exact generator parameters, recorded so error bounds can be evaluated
    with known constants instead of estimates.

    ``lipschitz`` is the realized global Lipschitz constant of the noiseless
    label map (the gradient norm of the linear map). Noise is uniform on
    ``[-noise_amplitude, +noise_amplitude]``, so every realized deviation is
    at most ``noise_amplitude`` and the mean absolute deviation is
    ``noise_amplitude / 2``.
    """

    lipschitz: float
    noise_amplitude: float
    intercept: float
    weights: np.ndarray
    n_tail: int
    bulk_median_nn: float
    seed: int

    def label_fn(self, features: np.ndarray) -> np.ndarray:
        """Noiseless labels of the generator for the given feature rows."""
        return np.asarray(features, dtype=np.float64) @ self.weights + self.intercept


# ---------------------------------------------------------------------------
# CSV ingestion
# ---------------------------------------------------------------------------


def _parse_cell(cell: str, line_no: int, col_label: str) -> float:
    try:
        value = float(cell)
    except ValueError:
        raise DataError(
            f"non-numeric cell at row {line_no}, column {col_label}: {cell!r}"
        ) from None
    if not math.isfinite(value):
        raise DataError(f"non-finite cell at row {line_no}, column {col_label}: {cell!r}")
    return value


def _looks_like_header(row: list[str]) -> bool:
    for cell in row:
        try:
            if not math.isfinite(float(cell)):
                return True
        except ValueError:
            return True
    return False


def parse_label_column(raw: str) -> str | int:
    """A label column as written in a config file or on the command line: a
    signed decimal integer is a 0-based column index, other text a header name."""
    return int(raw) if re.fullmatch(r"[+-]?[0-9]+", raw) else raw


def load_dataset(
    path: str | os.PathLike,
    has_labels: bool = False,
    label_column: str | int | None = None,
) -> Dataset:
    """Load a CSV file into a Dataset, rows kept in file order.

    The first row is treated as a header when any of its cells does not parse
    as a finite float. With ``has_labels``, or when ``label_column`` names
    one, the label column (header name, 0-based index, or by default the
    column named ``y`` when present, else the last column) is split off from
    the features as the labels.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        raw = list(csv.reader(fh))
    raw = [row for row in raw if row]
    if not raw:
        raise DataError(f"empty file: {path}")

    header: list[str] | None = None
    if _looks_like_header(raw[0]):
        header = [c.strip() for c in raw[0]]
        data_rows = raw[1:]
        first_line = 2
    else:
        data_rows = raw
        first_line = 1
    if not data_rows:
        raise DataError(f"file has a header but no data rows: {path}")

    width = len(header) if header is not None else len(data_rows[0])
    names = header if header is not None else [f"x{i}" for i in range(width)]

    values = np.empty((len(data_rows), width), dtype=np.float64)
    for r, row in enumerate(data_rows):
        line_no = first_line + r
        if len(row) != width:
            raise DataError(
                f"row {line_no} has {len(row)} cells, expected {width}"
            )
        for c, cell in enumerate(row):
            values[r, c] = _parse_cell(cell.strip(), line_no, names[c])

    if not has_labels and label_column is None:
        return Dataset(values, feature_names=tuple(names), source=str(path))

    if label_column is None:
        label_idx = names.index("y") if (header is not None and "y" in names) else width - 1
    elif isinstance(label_column, int):
        if not 0 <= label_column < width:
            raise DataError(f"label column index {label_column} out of range for {width} columns")
        label_idx = label_column
    else:
        if header is None:
            raise DataError(f"label column {label_column!r} requires a header row")
        if label_column not in names:
            raise DataError(f"label column {label_column!r} not found in header {names}")
        label_idx = names.index(label_column)

    if width < 2:
        raise DataError("cannot split labels from a single-column file")
    keep = [c for c in range(width) if c != label_idx]
    return Dataset(
        values[:, keep],
        labels=values[:, label_idx],
        feature_names=tuple(names[c] for c in keep),
        source=str(path),
    )


def save_dataset(ds: Dataset, path: str | os.PathLike) -> None:
    """Write a Dataset as CSV with a header; floats use repr so that a
    load/save cycle round-trips 64-bit values bit-exactly."""
    names = list(ds.feature_names) if ds.feature_names is not None else [
        f"x{i}" for i in range(ds.d)
    ]
    table = ds.features if ds.labels is None else np.column_stack([ds.features, ds.labels])
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(names if ds.labels is None else names + ["y"])
        writer.writerows([repr(v) for v in row.tolist()] for row in table)


# ---------------------------------------------------------------------------
# Molecules
# ---------------------------------------------------------------------------


def read_xyz(text: str) -> list[Molecule]:
    """Parse concatenated XYZ blocks into molecules.

    Each block is a count line, a comment line, then ``symbol x y z`` rows.
    Symbols are looked up in CHARGE_BY_SYMBOL.
    """
    lines = text.splitlines()
    molecules: list[Molecule] = []
    pos = 0
    while pos < len(lines):
        if not lines[pos].strip():
            pos += 1
            continue
        try:
            count = int(lines[pos].strip())
        except ValueError:
            raise DataError(f"expected an atom count at line {pos + 1}: {lines[pos]!r}") from None
        if count < 1:
            raise DataError(f"atom count must be >= 1 at line {pos + 1}")
        if pos + 2 + count > len(lines):
            raise DataError(f"truncated molecule block starting at line {pos + 1}")
        charges = []
        coords = []
        for k in range(count):
            parts = lines[pos + 2 + k].split()
            if len(parts) != 4:
                raise DataError(f"expected 'symbol x y z' at line {pos + 3 + k}")
            symbol = parts[0]
            if symbol not in CHARGE_BY_SYMBOL:
                raise DataError(
                    f"unknown element symbol {symbol!r} at line {pos + 3 + k}; "
                    f"known: {sorted(CHARGE_BY_SYMBOL)}"
                )
            charges.append(CHARGE_BY_SYMBOL[symbol])
            coords.append([_parse_cell(p, pos + 3 + k, axis) for p, axis in zip(parts[1:], "xyz")])
        molecules.append(Molecule(np.array(charges), np.array(coords)))
        pos += 2 + count
    if not molecules:
        raise DataError("no molecules found")
    return molecules


def load_xyz(path: str | os.PathLike) -> list[Molecule]:
    with open(path, encoding="utf-8") as fh:
        return read_xyz(fh.read())


def coulomb_matrix(mol: Molecule, max_atoms: int) -> np.ndarray:
    """Coulomb-matrix feature vector of a molecule, zero padded to
    ``max_atoms`` and flattened row-major.

    Entry (i, j) is ``0.5 * z_i ** 2.4`` on the diagonal and
    ``z_i * z_j / ||r_i - r_j||`` off it. Atoms are kept in input order; no
    canonical reordering is applied, so pre-sort if a canonical form matters.
    """
    max_atoms = _count(max_atoms, "max_atoms", 1)
    m = mol.m
    if m > max_atoms:
        raise DataError(f"molecule has {m} atoms, exceeding max_atoms={max_atoms}")
    z = mol.charges.astype(np.float64)
    dists = cdist(mol.positions, mol.positions)
    np.fill_diagonal(dists, np.inf)
    block = np.outer(z, z) / dists
    np.fill_diagonal(block, 0.5 * z**2.4)
    out = np.zeros((max_atoms, max_atoms), dtype=np.float64)
    out[:m, :m] = block
    return out.reshape(-1)


# ---------------------------------------------------------------------------
# Preprocessing
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ColumnScaling:
    """Per-column minimum and maximum used by minmax_normalize."""

    mins: np.ndarray
    maxs: np.ndarray


def remove_zero_variance(ds: Dataset) -> tuple[Dataset, list[int]]:
    """Drop every column whose entries are all exactly equal.

    Uses exact equality, not a variance tolerance, so the behaviour is
    deterministic. Returns the filtered dataset and the removed column
    indices in ascending order.
    """
    constant = (ds.features == ds.features[0]).all(axis=0)
    removed = [int(i) for i in np.flatnonzero(constant)]
    if len(removed) == ds.d:
        raise DataError("all columns have zero variance; empty feature space")
    if not removed:
        return ds, []
    keep = ~constant
    names = (
        tuple(n for n, k in zip(ds.feature_names, keep) if k)
        if ds.feature_names is not None
        else None
    )
    out = Dataset(ds.features[:, keep], labels=ds.labels, feature_names=names, source=ds.source)
    return out, removed


def minmax_normalize(ds: Dataset) -> tuple[Dataset, ColumnScaling]:
    """Map each column affinely onto [0, 1]; both endpoints are attained.

    Columns must be non-constant (run remove_zero_variance first). The
    scaling statistics are computed on the full dataset, so select subsets
    after normalizing, not before.
    """
    mins = ds.features.min(axis=0)
    maxs = ds.features.max(axis=0)
    flat = np.flatnonzero(maxs == mins)
    if flat.size:
        raise DataError(f"constant column {int(flat[0])}: cannot min-max normalize")
    scaled = (ds.features - mins) / (maxs - mins)
    out = Dataset(scaled, labels=ds.labels, feature_names=ds.feature_names, source=ds.source)
    return out, ColumnScaling(mins=mins, maxs=maxs)


# ---------------------------------------------------------------------------
# Synthesis
# ---------------------------------------------------------------------------


def synth_with_info(cfg: SynthConfig) -> tuple[Dataset, SynthInfo]:
    """Generate a seeded dataset whose label map has a known Lipschitz
    constant and bounded label noise, plus the exact generator constants.

    Bulk points fill a compact cluster; ``tail_fraction`` of the points are
    isolated, each at least three bulk-median nearest-neighbour spacings from
    every other point. Labels are a fixed linear map of the features plus
    bounded uniform noise whose mean absolute deviation is at most
    ``noise_level``. Deterministic in ``cfg.seed``.
    """
    n_tail = int(round(cfg.n * cfg.tail_fraction))
    if cfg.tail_fraction > 0.0 and n_tail < 1:
        raise DataError(
            f"tail_fraction {cfg.tail_fraction} yields no tail points for n={cfg.n}"
        )
    n_bulk = cfg.n - n_tail
    if n_tail > 0 and n_bulk < 2:
        raise DataError("need at least 2 bulk points to place a tail")

    rng = rng_from_seed(cfg.seed)
    bulk = rng.uniform(0.0, 1.0, size=(n_bulk, cfg.d))

    if cfg.target_lipschitz > 0.0:
        direction = rng.standard_normal(cfg.d)
        direction /= np.linalg.norm(direction)
        weights = cfg.target_lipschitz * direction
    else:
        weights = np.zeros(cfg.d)
    intercept = float(rng.standard_normal())

    # Rows 0 and 1 differ by a multiple of the gradient direction, so the
    # realized label slope attains the recorded Lipschitz constant exactly.
    if n_bulk >= 2 and cfg.target_lipschitz > 0.0:
        step = 0.5 * (1.0 / n_bulk) ** (1.0 / cfg.d)
        bulk[1] = bulk[0] + step * (weights / cfg.target_lipschitz)

    median_nn = math.nan
    if n_tail > 0:
        median_nn = float(np.median(nn_distances(bulk)[0]))
        center = bulk.mean(axis=0)
        radius_bulk = float(np.linalg.norm(bulk - center, axis=1).max())
        dirs = rng.standard_normal((n_tail, cfg.d))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        # Strictly increasing radii keep every tail point at least three
        # bulk-median spacings away from everything else.
        radii = radius_bulk + 3.0 * median_nn * np.arange(1, n_tail + 1)
        tail = center + dirs * radii[:, None]
        features = np.vstack([bulk, tail])
    else:
        features = bulk

    noiseless = features @ weights + intercept
    amplitude = cfg.noise_level / 2.0
    if amplitude > 0.0:
        noise = rng.uniform(-amplitude, amplitude, size=cfg.n)
    else:
        noise = np.zeros(cfg.n)
    labels = noiseless + noise

    info = SynthInfo(
        weights=weights,
        intercept=intercept,
        lipschitz=float(np.linalg.norm(weights)),
        noise_amplitude=amplitude,
        n_tail=n_tail,
        bulk_median_nn=median_nn,
        seed=cfg.seed,
    )
    source = json.dumps({"synthetic": True, "seed": cfg.seed, "n": cfg.n, "d": cfg.d})
    return Dataset(features, labels=labels, source=source), info


def synth_lipschitz(cfg: SynthConfig) -> Dataset:
    """The dataset of synth_with_info, without the generator constants."""
    return synth_with_info(cfg)[0]
