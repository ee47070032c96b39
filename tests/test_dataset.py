import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fillgap.dataset import (
    ColumnScaling,
    Dataset,
    Molecule,
    SynthConfig,
    coulomb_matrix,
    load_dataset,
    load_xyz,
    minmax_normalize,
    read_xyz,
    remove_zero_variance,
    save_dataset,
    synth_lipschitz,
    synth_with_info,
)
from fillgap.errors import DataError
from fillgap.selection import nn_distances

finite64 = st.floats(allow_nan=False, allow_infinity=False, width=64)


# ---------------------------------------------------------------------------
# CSV loading
# ---------------------------------------------------------------------------


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def test_load_labelled_by_name(tmp_path):
    path = write(tmp_path, "a,b,y\n1,2,3\n4,5,6\n7,8,9\n")
    ds = load_dataset(path, has_labels=True, label_column="y")
    assert ds.n == 3 and ds.d == 2
    assert ds.labels.tolist() == [3.0, 6.0, 9.0]
    assert ds.feature_names == ("a", "b")
    # Naming the label column is enough to read labels.
    named = load_dataset(path, label_column="y")
    assert np.array_equal(named.features, ds.features) and np.array_equal(named.labels, ds.labels)
    assert load_dataset(path, label_column=0).labels.tolist() == [1.0, 4.0, 7.0]


def test_load_unlabelled_keeps_all_columns(tmp_path):
    path = write(tmp_path, "a,b,y\n1,2,3\n4,5,6\n7,8,9\n")
    ds = load_dataset(path, has_labels=False)
    assert ds.n == 3 and ds.d == 3
    assert ds.labels is None


def test_load_label_by_index_and_default(tmp_path):
    path = write(tmp_path, "1,2,3\n4,5,6\n")
    by_index = load_dataset(path, has_labels=True, label_column=0)
    assert by_index.labels.tolist() == [1.0, 4.0]
    default = load_dataset(path, has_labels=True)  # defaults to the last column
    assert default.labels.tolist() == [3.0, 6.0]


def test_load_headerless(tmp_path):
    ds = load_dataset(write(tmp_path, "1.5,2\n3,4\n"))
    assert ds.n == 2 and ds.d == 2
    assert ds.feature_names == ("x0", "x1")


def test_load_nan_cell_names_location(tmp_path):
    path = write(tmp_path, "a,b\n1,2\n3,NaN\n")
    with pytest.raises(DataError, match=r"row 3.*b"):
        load_dataset(path)


def test_load_non_numeric_cell(tmp_path):
    with pytest.raises(DataError, match="non-numeric"):
        load_dataset(write(tmp_path, "1,2\n3,oops\n"))


def test_load_wrong_arity(tmp_path):
    with pytest.raises(DataError, match="row 2"):
        load_dataset(write(tmp_path, "1,2\n3\n"))


def test_load_empty_file(tmp_path):
    with pytest.raises(DataError, match="empty"):
        load_dataset(write(tmp_path, ""))
    with pytest.raises(DataError, match="^file has a header but no data rows: "):
        load_dataset(write(tmp_path, "a,b,y\n\n"))


def test_load_missing_label_column(tmp_path):
    with pytest.raises(DataError, match="not found"):
        load_dataset(write(tmp_path, "a,b\n1,2\n"), has_labels=True, label_column="z")
    with pytest.raises(DataError, match="^label column 'y' requires a header row$"):
        load_dataset(write(tmp_path, "1,2\n3,4\n"), has_labels=True, label_column="y")


@settings(max_examples=30)
@given(
    arrays(np.float64, st.tuples(st.integers(1, 6), st.integers(1, 4)), elements=finite64),
    st.booleans(),
)
def test_save_load_roundtrip_bit_exact(tmp_path_factory, features, with_labels):
    tmp = tmp_path_factory.mktemp("roundtrip")
    labels = features[:, 0] * 0.5 if with_labels else None
    ds = Dataset(features, labels=labels)
    path = tmp / "ds.csv"
    save_dataset(ds, path)
    back = load_dataset(path, has_labels=with_labels, label_column="y" if with_labels else None)
    assert np.array_equal(back.features, ds.features)
    if with_labels:
        assert np.array_equal(back.labels, ds.labels)


def test_dataset_invariants():
    with pytest.raises(DataError):
        Dataset(np.empty((0, 2)))
    with pytest.raises(DataError):
        Dataset(np.array([[1.0, np.nan]]))
    with pytest.raises(DataError):
        Dataset(np.ones((3, 2)), labels=np.ones(2))
    with pytest.raises(DataError, match="^3 feature names for 2 columns$"):
        Dataset(np.ones((3, 2)), feature_names=("a", "b", "c"))
    with pytest.raises(DataError, match="^dataset has no labels$"):
        Dataset(np.ones((3, 2))).require_labels()


@pytest.mark.parametrize(
    "make,message",
    [
        (lambda: Dataset([[1.0], [1.0, 2.0]]), "features must be an array of real numbers, got a ragged sequence"),
        (lambda: Dataset(np.array([[1 + 2j]])), "features must be an array of real numbers, got complex128 values"),
        (lambda: Dataset([["1.5"]]), "features must be an array of real numbers, got <U3 values"),
        (lambda: Dataset([[1.0], [None]]), "features must be an array of real numbers, got object values"),
        (lambda: Dataset(np.ones(3)), r"features must be a 2-D array, got shape \(3,\)"),
        (lambda: Dataset(np.ones((2, 1)), labels=["a", "b"]), "labels must be an array of real numbers, got <U1 values"),
        (lambda: Dataset(np.ones((2, 1)), labels=[1.0, math.inf]), "labels must have finite entries, got NaN or Inf"),
        (lambda: Molecule([1], [["0", "0", "0"]]), "positions must be an array of real numbers, got <U1 values"),
        (lambda: Molecule([1], [[0.0, 0.0, math.nan]]), "positions must have finite entries, got NaN or Inf"),
        (lambda: Molecule([], np.zeros((0, 3))), "molecule needs at least one atom"),
        (lambda: Molecule([1, 6], np.zeros((2, 2))), r"positions must have shape \(2, 3\)"),
        (lambda: Molecule([1], np.zeros((2, 3))), r"positions must have shape \(1, 3\)"),
    ],
)
def test_arrays_that_are_not_finite_real_numbers_are_rejected_by_name(make, message):
    # Unchecked, a ragged or string input raised a bare ValueError, and the
    # imaginary part of 1+2j was dropped with a warning.
    with pytest.raises(DataError, match="^" + message + "$"):
        make()


def test_integer_features_are_read_as_floats():
    ds = Dataset(np.arange(6).reshape(3, 2), labels=np.array([1, 2, 3], np.uint8))
    assert ds.features.dtype == ds.labels.dtype == np.float64
    assert ds.features.flags.c_contiguous and ds.labels.tolist() == [1.0, 2.0, 3.0]


# ---------------------------------------------------------------------------
# Molecules and the Coulomb featurizer
# ---------------------------------------------------------------------------


def test_coulomb_single_hydrogen():
    mol = Molecule(np.array([1]), np.zeros((1, 3)))
    vec = coulomb_matrix(mol, 1)
    assert vec.tolist() == [0.5]


def test_coulomb_h2_unit_distance():
    mol = Molecule(np.array([1, 1]), np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 1.0]]))
    mat = coulomb_matrix(mol, 2).reshape(2, 2)
    assert mat[0, 0] == 0.5 and mat[1, 1] == 0.5
    assert mat[0, 1] == 1.0 and mat[1, 0] == 1.0


def test_coulomb_carbon_diagonal_matches_independent_power():
    # Oracle: 6**2.4 solved as the real root of p**5 = 6**12 by bisection.
    target = 6**12
    lo, hi = 1.0, 1000.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid**5 < target:
            lo = mid
        else:
            hi = mid
    expected = 0.5 * 0.5 * (lo + hi)
    mol = Molecule(np.array([6]), np.zeros((1, 3)))
    value = coulomb_matrix(mol, 1)[0]
    assert value == pytest.approx(36.85810519942594, abs=1e-12)
    assert value == pytest.approx(expected, rel=1e-12)


def test_coulomb_zero_padding_row_major():
    mol = Molecule(np.array([1, 6]), np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 2.0]]))
    mat = coulomb_matrix(mol, 3).reshape(3, 3)
    assert mat[0, 1] == pytest.approx(6.0 / 2.0)
    assert (mat[2, :] == 0).all() and (mat[:, 2] == 0).all()
    # flattened row-major: entry (0, 1) sits at linear position 1
    assert coulomb_matrix(mol, 3)[1] == mat[0, 1]


def test_coulomb_too_many_atoms():
    mol = Molecule(np.array([1, 1]), np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 1.0]]))
    with pytest.raises(DataError, match="max_atoms"):
        coulomb_matrix(mol, 1)
    for max_atoms in (2.5, True, math.nan, 0):
        with pytest.raises(DataError, match="max_atoms"):
            coulomb_matrix(mol, max_atoms)
    assert np.array_equal(coulomb_matrix(mol, 3.0), coulomb_matrix(mol, np.int64(3)))


def test_coincident_atoms_rejected():
    with pytest.raises(DataError, match="coincident"):
        Molecule(np.array([1, 1]), np.zeros((2, 3)))


@pytest.mark.parametrize(
    "charges",
    [[1.5, 6.9], [1, 0], [6, -1], [1.0, math.nan], [1.0, math.inf], [True, True], ["1", "6"]],
)
def test_charges_that_are_not_positive_integers_are_rejected(charges):
    # A fraction was truncated (1.5 and 6.9 read as H and C); bools read as H.
    with pytest.raises(DataError, match="nuclear charges must be positive integers"):
        Molecule(np.array(charges), [[0.0, 0.0, 0.0], [0.0, 0.0, 1.0]])


def test_integral_charges_of_any_numeric_type_are_kept():
    positions = [[0.0, 0.0, 0.0], [0.0, 0.0, 1.0]]
    for charges in ([1, 6], [1.0, 6.0], np.array([1, 6], dtype=np.uint8)):
        mol = Molecule(np.array(charges), positions)
        assert mol.charges.dtype == np.int64
        assert mol.charges.tolist() == [1, 6]


@settings(max_examples=40)
@given(
    st.integers(1, 5).flatmap(
        lambda m: st.tuples(
            st.lists(st.sampled_from([1, 6, 7, 8, 9, 16]), min_size=m, max_size=m),
            arrays(
                np.float64,
                (m, 3),
                elements=st.floats(-5, 5, allow_nan=False),
                unique=True,
            ),
        )
    )
)
def test_coulomb_symmetric(mol_parts):
    charges, positions = mol_parts
    try:
        mol = Molecule(np.array(charges), positions)
    except DataError:
        return  # coincident rows generated by chance
    mat = coulomb_matrix(mol, mol.m + 2).reshape(mol.m + 2, mol.m + 2)
    assert np.array_equal(mat, mat.T)


def test_read_xyz_two_blocks():
    text = "2\nwater-ish\nH 0 0 0\nO 0 0 1\n1\nlone carbon\nC 1 2 3\n"
    mols = read_xyz(text)
    assert len(mols) == 2
    assert mols[0].charges.tolist() == [1, 8]
    assert mols[1].charges.tolist() == [6]
    assert mols[1].positions.tolist() == [[1.0, 2.0, 3.0]]


def test_load_xyz_reads_a_file_as_read_xyz_reads_its_text(tmp_path):
    text = "2\nwater-ish\nH 0 0 0\nO 0 0 1\n\n3\nmethyl-ish\nC 1 2 3\nH 1 2 4.1\nH 1 3.05 3\n"
    path = tmp_path / "mols.xyz"
    path.write_text(text, encoding="utf-8")
    loaded, parsed = load_xyz(path), read_xyz(text)
    assert len(loaded) == len(parsed) == 2
    for got, expected in zip(loaded, parsed):
        assert np.array_equal(got.charges, expected.charges)
        assert np.array_equal(got.positions, expected.positions)
    assert loaded[1].charges.tolist() == [6, 1, 1]


def test_read_xyz_unknown_symbol():
    with pytest.raises(DataError, match="unknown element"):
        read_xyz("1\nc\nXx 0 0 0\n")


def test_read_xyz_truncated():
    with pytest.raises(DataError, match="truncated"):
        read_xyz("3\nc\nH 0 0 0\n")


@pytest.mark.parametrize(
    "text,message",
    [
        ("two\nc\nH 0 0 0\n", "expected an atom count at line 1: 'two'"),
        ("1\nc\nH 0 0 0\n0\nc\n", "atom count must be >= 1 at line 4"),
        ("2\nc\nH 0 0 0\nO 0 0\n", "expected 'symbol x y z' at line 4"),
        ("1\nc\nH 0 0 zero\n", "non-numeric cell at row 3, column z: 'zero'"),
        ("\n  \n", "no molecules found"),
    ],
    ids=["count-line", "zero-count", "short-row", "non-numeric", "no-molecules"],
)
def test_read_xyz_rejects_malformed_text(text, message):
    with pytest.raises(DataError, match="^" + message + "$"):
        read_xyz(text)


# ---------------------------------------------------------------------------
# Preprocessing
# ---------------------------------------------------------------------------


def test_remove_zero_variance_basic():
    n = 6
    feats = np.column_stack([np.full(n, 5.0), np.arange(n, dtype=float)])
    ds, removed = remove_zero_variance(Dataset(feats, feature_names=("c", "ramp")))
    assert removed == [0]
    assert ds.d == 1 and ds.feature_names == ("ramp",)


def test_remove_zero_variance_identity():
    ds0 = Dataset(np.array([[1.0, 2.0], [3.0, 4.0]]))
    ds, removed = remove_zero_variance(ds0)
    assert removed == [] and ds is ds0


def test_remove_zero_variance_all_constant():
    with pytest.raises(DataError, match="zero variance"):
        remove_zero_variance(Dataset(np.ones((4, 3))))


def test_remove_zero_variance_mordred_scale_arithmetic():
    # 1826 raw columns with exactly 530 constant ones leave 1296.
    rng = np.random.default_rng(0)
    feats = rng.random((40, 1826))
    constant = rng.permutation(1826)[:530]
    feats[:, constant] = 7.25
    ds, removed = remove_zero_variance(Dataset(feats))
    assert len(removed) == 530
    assert ds.d == 1296
    assert removed == sorted(removed)


def test_minmax_examples():
    ds, scaling = minmax_normalize(Dataset(np.array([[0.0], [5.0], [10.0]])))
    assert ds.features[:, 0].tolist() == [0.0, 0.5, 1.0]
    assert isinstance(scaling, ColumnScaling)
    ds2, _ = minmax_normalize(Dataset(np.array([[-2.0], [2.0]])))
    assert ds2.features[:, 0].tolist() == [0.0, 1.0]


def test_minmax_idempotent_and_attains_endpoints():
    rng = np.random.default_rng(3)
    ds = Dataset(rng.normal(size=(20, 4)))
    once, _ = minmax_normalize(ds)
    twice, _ = minmax_normalize(once)
    assert np.array_equal(once.features, twice.features)
    assert (once.features.min(axis=0) == 0).all()
    assert (once.features.max(axis=0) == 1).all()
    assert once.features.min() >= 0 and once.features.max() <= 1


def test_minmax_constant_column_rejected():
    with pytest.raises(DataError, match="column 1"):
        minmax_normalize(Dataset(np.array([[0.0, 3.0], [1.0, 3.0]])))


# ---------------------------------------------------------------------------
# Synthesis
# ---------------------------------------------------------------------------


def test_synth_deterministic():
    cfg = SynthConfig(n=64, d=3, target_lipschitz=1.5, noise_level=0.2, seed=11)
    a = synth_lipschitz(cfg)
    b = synth_lipschitz(cfg)
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.labels, b.labels)


def test_synth_info_matches_generation():
    cfg = SynthConfig(n=50, d=4, target_lipschitz=2.0, seed=9)
    ds, info = synth_with_info(cfg)
    assert info.lipschitz == pytest.approx(2.0, rel=1e-12)
    # noiseless labels reproduce exactly from the recorded map
    assert np.array_equal(info.label_fn(ds.features), ds.labels)


def test_synth_noise_is_bounded():
    cfg = SynthConfig(n=400, d=2, target_lipschitz=1.0, noise_level=0.3, seed=21)
    ds, info = synth_with_info(cfg)
    eta = ds.labels - info.label_fn(ds.features)
    assert info.noise_amplitude == 0.15
    assert np.abs(eta).max() <= info.noise_amplitude
    assert np.abs(eta).mean() <= cfg.noise_level


def test_synth_lipschitz_pairs_hold_exhaustively():
    cfg = SynthConfig(n=300, d=5, target_lipschitz=3.0, noise_level=0.1, seed=4)
    ds, info = synth_with_info(cfg)
    f = info.label_fn(ds.features)
    diffs = f[:, None] - f[None, :]
    dists = np.linalg.norm(ds.features[:, None, :] - ds.features[None, :, :], axis=2)
    mask = dists > 0
    assert (np.abs(diffs[mask]) <= cfg.target_lipschitz * dists[mask] * (1 + 1e-10)).all()


def test_synth_tail_points_are_isolated():
    cfg = SynthConfig(n=1000, d=8, target_lipschitz=2.0, tail_fraction=0.01, seed=42)
    ds, info = synth_with_info(cfg)
    assert info.n_tail == 10
    dists, mean = nn_distances(ds.features)
    bulk_median = float(np.median(dists[: ds.n - info.n_tail]))
    isolated = dists >= 3.0 * bulk_median
    assert isolated.sum() == 10
    assert isolated[ds.n - info.n_tail :].all()
    # the isolated rows sit far beyond the mean spacing as well
    assert (dists[ds.n - info.n_tail :] > 2.0 * mean).all()


def test_synth_tail_memory_stays_below_pairwise_matrix():
    # The bulk median spacing must come from a streamed nearest-neighbour
    # pass, not from the full n_bulk x n_bulk distance matrix.
    cfg = SynthConfig(n=8000, d=8, target_lipschitz=1.0, tail_fraction=0.01, seed=3)
    tracemalloc.start()
    _, info = synth_with_info(cfg)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    n_bulk = cfg.n - info.n_tail
    assert peak < 0.5 * 8 * n_bulk**2


def test_synth_tail_too_small_rejected():
    with pytest.raises(DataError, match="tail"):
        synth_lipschitz(SynthConfig(n=20, d=2, tail_fraction=0.01, seed=0))
    with pytest.raises(DataError, match="^need at least 2 bulk points to place a tail$"):
        synth_lipschitz(SynthConfig(n=2, d=2, tail_fraction=0.5, seed=0))


def test_synth_config_validation():
    with pytest.raises(DataError):
        SynthConfig(n=0, d=2)
    with pytest.raises(DataError):
        SynthConfig(n=5, d=2, noise_level=-1.0)
    with pytest.raises(DataError):
        SynthConfig(n=5, d=2, tail_fraction=1.0)


def test_synth_zero_lipschitz_constant_labels():
    ds, info = synth_with_info(SynthConfig(n=30, d=3, target_lipschitz=0.0, seed=1))
    assert info.lipschitz == 0.0
    assert np.ptp(ds.labels) == 0.0


@pytest.mark.parametrize(
    "counts,message",
    [
        (dict(n=10.5), "n must be integral, got 10.5"),
        (dict(d=True), "d must be integral, got True"),
        (dict(n=0), "n must be >= 1, got 0"),
        (dict(seed=2.7), "seed must be integral, got 2.7"),
        (dict(seed="3"), "seed must be integral, got '3'"),
    ],
)
def test_synth_config_counts_and_seed_must_be_integral(counts, message):
    # A cast would generate with seed 2 and record 2.7.
    with pytest.raises(DataError, match=message):
        SynthConfig(**{"n": 20, "d": 2, **counts})


def test_synth_config_takes_integral_numbers_of_any_numeric_type():
    expected, expected_info = synth_with_info(SynthConfig(n=20, d=2, tail_fraction=0.1, seed=7))
    for n, d, seed in ((20.0, 2.0, 7.0), (np.int64(20), np.uint8(2), np.int64(7))):
        cfg = SynthConfig(n=n, d=d, tail_fraction=0.1, seed=seed)
        assert (type(cfg.n), type(cfg.d), type(cfg.seed)) == (int, int, int)
        ds, info = synth_with_info(cfg)
        assert np.array_equal(ds.features, expected.features) and ds.source == expected.source
        assert type(info.seed) is int and info.seed == expected_info.seed


@pytest.mark.parametrize(
    "reals,message",
    [
        (dict(noise_level=None), "noise_level must be a real number, got None"),
        (dict(target_lipschitz=True), "target_lipschitz must be a real number, got True"),
        (dict(tail_fraction="0.1"), "tail_fraction must be a real number, got '0.1'"),
        (dict(noise_level=-0.5), "noise_level must be non-negative and finite, got -0.5"),
        (dict(target_lipschitz=math.inf), "target_lipschitz must be non-negative and finite, got inf"),
    ],
)
def test_synth_config_floats_must_be_real_numbers(reals, message):
    # A cast would read True as Lipschitz 1 and raise a bare TypeError for None.
    with pytest.raises(DataError, match=message):
        SynthConfig(**{"n": 20, "d": 2, **reals})


def test_synth_config_takes_real_numbers_of_any_numeric_type():
    expected = SynthConfig(n=20, d=2, target_lipschitz=2.0, noise_level=0.5, tail_fraction=0.25)
    cfg = SynthConfig(
        n=20, d=2, target_lipschitz=2, noise_level=np.float32(0.5), tail_fraction=np.float64(0.25)
    )
    assert cfg == expected
    assert {type(getattr(cfg, f)) for f in ("target_lipschitz", "noise_level", "tail_fraction")} == {float}
