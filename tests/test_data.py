import csv
import io
import json
import re

import numpy as np
import pytest

from localgrad import data as datamod
from localgrad.analysis import ks_two_sample
from localgrad.data import (
    NONLINEAR_DISK_RADIUS,
    NONLINEAR_RING,
    THREE_CLUSTER_CENTERS,
    TRIANGLE_VERTICES,
    Dataset,
    gen_nonlinear,
    gen_three_clusters,
    gen_triangle,
    in_triangle,
    inject_outliers,
    iris_binary,
    load_csv,
    load_iris,
    normalize_fit_apply,
    save_csv,
    save_json,
    split_stratified,
)


def write(path, text):
    path.write_text(text)
    return str(path)


# ---------------------------------------------------------------- load/save


def test_load_three_rows(tmp_path):
    p = write(tmp_path / "a.csv", "f1,f2,label\n1.0,2.0,0\n3.5,-1.0,1\n0.0,0.25,0\n")
    ds = load_csv(p, classes=(0, 1))
    assert ds.features.shape == (3, 2)
    assert list(ds.row_ids) == [0, 1, 2]
    assert list(ds.feature_names) == ["f1", "f2"]
    assert list(ds.labels) == [0, 1, 0]


def test_load_honors_id_column(tmp_path):
    p = write(tmp_path / "a.csv", "id,x,label\n7,1.0,0\n3,2.0,1\n")
    ds = load_csv(p, classes=(0, 1))
    assert list(ds.row_ids) == [7, 3]
    assert list(ds.feature_names) == ["x"]


def test_load_na_cell_names_row_and_column(tmp_path):
    p = write(tmp_path / "bad.csv", "f1,f2,label\n1.0,2.0,0\n3.5,NA,1\n")
    with pytest.raises(ValueError) as err:
        load_csv(p, classes=(0, 1))
    msg = str(err.value)
    assert "f2" in msg and "2" in msg


def test_load_unknown_label_rejected(tmp_path):
    p = write(tmp_path / "bad.csv", "f1,label\n1.0,0\n2.0,5\n")
    with pytest.raises(ValueError, match="label"):
        load_csv(p, classes=(0, 1))


@pytest.mark.parametrize("label", ["1.5", "nan", "inf", "-inf"])
def test_load_non_integer_label_rejected(tmp_path, label):
    p = write(tmp_path / "bad.csv", f"f1,label\n1.0,0\n2.0,{label}\n")
    with pytest.raises(ValueError, match=re.escape(f"non-integer label '{label}' at row 1")):
        load_csv(p)


def test_load_integer_cells_read_exactly_or_from_integral_floats(tmp_path):
    # integer text goes through int() (no rounding at 2**53 + 1); "1.0" and "4e0" are integral floats
    p = write(tmp_path / "a.csv", "id,f1,label\n4e0,1.0,9007199254740993\n2,2.0,1.0\n")
    ds = load_csv(p)
    assert ds.labels.tolist() == [9007199254740993, 1]
    assert ds.row_ids.tolist() == [4, 2]


@pytest.mark.parametrize("rid", ["1.5", "x", "nan", "inf"])
def test_load_non_integer_id_names_file_and_row(tmp_path, rid):
    p = write(tmp_path / "bad.csv", f"id,f1,label\n{rid},1.0,0\n")
    with pytest.raises(ValueError, match=re.escape(f"{p}: non-integer id '{rid}' at row 0")):
        load_csv(p)


@pytest.mark.parametrize(
    "text, column",
    [
        ("id,f1,label\n1,1.0,0\n2,2.0,99999999999999999999\n", "label"),
        ("id,f1,label\n1,1.0,0\n-9223372036854775809,2.0,1\n", "id"),
    ],
)
def test_load_integer_cell_beyond_int64_names_file_row_and_column(tmp_path, text, column):
    p = write(tmp_path / "big.csv", text)
    with pytest.raises(ValueError, match=re.escape(f"{p}: ") + f".* at row 1, column '{column}' is outside the int64 range"):
        load_csv(p)


def test_load_integer_cells_at_the_int64_bounds(tmp_path):
    p = write(tmp_path / "edge.csv", "id,f1,label\n-9223372036854775808,1.0,9223372036854775807\n")
    ds = load_csv(p)
    assert ds.row_ids.tolist() == [-(2**63)] and ds.labels.tolist() == [2**63 - 1]


def test_load_missing_label_column(tmp_path):
    p = write(tmp_path / "bad.csv", "f1,f2\n1.0,2.0\n")
    with pytest.raises(ValueError):
        load_csv(p, classes=(0, 1))


@pytest.mark.parametrize("text, message", [("", "empty file"), ("f1,label\r\n", "no data rows")])
def test_load_empty_and_header_only_files(tmp_path, text, message):
    p = write(tmp_path / "bare.csv", text)
    with pytest.raises(ValueError, match=re.escape(f"{p}: {message}")):
        load_csv(p)


def test_load_blank_records_are_skipped_but_counted(tmp_path):
    # the row index counts every record after the header, blank ones too
    p = write(tmp_path / "gaps.csv", "f1,label\n\n1.0,0\n\n\n2.0,1\n")
    ds = load_csv(p)
    assert ds.features.tolist() == [[1.0], [2.0]] and ds.row_ids.tolist() == [0, 1]
    p = write(tmp_path / "bad.csv", "f1,label\n\n1.0,0\n\n2.0,x\n")
    with pytest.raises(ValueError, match=re.escape(f"{p}: non-integer label 'x' at row 3")):
        load_csv(p)


def test_load_ragged_row_names_its_cell_count(tmp_path):
    p = write(tmp_path / "ragged.csv", "id,f1,f2,label\n1,1.0,2.0,0\n2,1.0,2.0,1\n\n3,1.0\n")
    with pytest.raises(ValueError, match=re.escape(f"{p}: row 3 has 2 cells, expected 4")):
        load_csv(p)


@pytest.mark.parametrize("cell", ["inf", "-inf", "nan", "1e999"])
def test_load_non_finite_feature_names_row_and_column(tmp_path, cell):
    p = write(tmp_path / "big.csv", f"f1,f2,label\n1.0,2.0,0\n3.0,{cell},1\n")
    with pytest.raises(ValueError, match=re.escape(f"{p}: non-finite value at row 1, column 'f2'")):
        load_csv(p)


def test_load_reads_feature_cells_as_float_does(tmp_path):
    # float() accepts underscores between digits and surrounding blanks
    p = write(tmp_path / "a.csv", "f1,f2,label\n1_000, 2.5 ,0\n")
    assert load_csv(p).features.tolist() == [[1000.0, 2.5]]


def test_load_duplicate_ids_rejected(tmp_path):
    p = write(tmp_path / "dup.csv", "id,f1,label\n4,1.0,0\n2,2.0,1\n4,3.0,1\n")
    with pytest.raises(ValueError, match=re.escape(f"{p}: duplicate row ids")):
        load_csv(p)


def test_load_table_without_feature_columns(tmp_path):
    p = write(tmp_path / "pred.csv", "id,label\n5,1\n3,0\n9,1\n")
    ds = load_csv(p)
    assert ds.features.shape == (3, 0) and ds.features.dtype == np.float64
    assert ds.row_ids.tolist() == [5, 3, 9] and ds.labels.tolist() == [1, 0, 1]
    assert ds.feature_names == []


def test_save_load_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    ds = Dataset(
        features=rng.normal(size=(20, 3)) * np.pi,
        labels=rng.integers(0, 2, size=20),
        feature_names=("a", "b", "c"),
    )
    path = tmp_path / "rt.csv"
    save_csv(ds, path)
    back = load_csv(path, classes=(0, 1))
    assert np.array_equal(back.features, ds.features)
    assert np.array_equal(back.labels, ds.labels)
    assert list(back.feature_names) == list(ds.feature_names)


def test_load_csv_memory_is_the_table_not_the_cells(tmp_path, traced):
    # 5000 x 12 features take 0.48 MB as float64; holding every cell as a str and
    # then a float took 8.6 MB, and the streaming reader peaked at 0.71 MB when
    # this bound was set
    rng = np.random.default_rng(61)
    ds = Dataset(rng.normal(size=(5000, 12)), rng.integers(0, 2, size=5000))
    path = tmp_path / "wide.csv"
    save_csv(ds, path)
    with traced() as peak:
        back = load_csv(path)
        used = peak()
    assert used < 2.5e6
    assert back.features.flags.c_contiguous and back.features.dtype == np.float64
    assert np.array_equal(back.features, ds.features) and np.array_equal(back.labels, ds.labels)


@pytest.mark.parametrize("cells_per_write", [1, 13, datamod._WRITE_CELLS])
def test_write_table_matches_csv_writer(tmp_path, monkeypatch, cells_per_write):
    # reference: csv.writer with the same cells formatted by %.17g / %d
    monkeypatch.setattr(datamod, "_WRITE_CELLS", cells_per_write)
    floats = np.array([-0.0, 5e-324, 2.2250738585072009e-308, 1e308, -1e308, 0.1, np.pi, 1.0])
    ints = np.array([0, -3, 2**53 + 1, 7, 1, -1, 12, 5])
    bools = np.array([True, False] * 4)
    text = np.array(["plain", "a,b", 'say "hi"', "", 'x,"y"', "line\nbreak", "cr\r", " q "])
    matrix = np.column_stack([floats[::-1], -floats])
    header = ["id", "a,b", 'quo"te', "", "m1", "m2"]
    blocks = [(ints, floats, bools, text, matrix), (ints[:3], floats[:3], bools[:3], text[:3], matrix[:3])]
    path = tmp_path / "table.csv"
    datamod._write_table(path, header, blocks)

    ref = io.StringIO(newline="")
    w = csv.writer(ref, lineterminator="\r\n")
    w.writerow(header)
    for n in (8, 3):
        for i in range(n):
            w.writerow(["%d" % ints[i], "%.17g" % floats[i], "%d" % bools[i], text[i]]
                       + ["%.17g" % v for v in matrix[i]])
    assert path.read_bytes() == ref.getvalue().encode()
    with open(path, newline="") as fh:
        assert [row[3] for row in csv.reader(fh)][1:] == list(text) + list(text[:3])


# ------------------------------------------------------------ normalization


def test_normalize_moments():
    rng = np.random.default_rng(1)
    ds = Dataset(rng.normal(3.0, 2.5, size=(40, 3)), np.zeros(40, dtype=int))
    train, _ = normalize_fit_apply(ds, [])
    assert np.all(np.abs(train.features.mean(axis=0)) < 1e-10)
    assert np.all(np.abs(train.features.std(axis=0) - 1.0) < 1e-10)


def test_normalize_already_standardized_is_identity():
    rng = np.random.default_rng(2)
    raw = rng.normal(size=(60, 2))
    raw = (raw - raw.mean(axis=0)) / raw.std(axis=0)
    ds = Dataset(raw.copy(), np.zeros(60, dtype=int))
    train, _ = normalize_fit_apply(ds, [])
    assert np.all(np.abs(train.features - raw) < 1e-10)


def test_normalize_constant_column_flagged_scale_one():
    feats = np.column_stack([np.full(10, 4.0), np.arange(10.0)])
    ds = Dataset(feats, np.zeros(10, dtype=int))
    with pytest.warns(UserWarning, match="constant"):
        train, _ = normalize_fit_apply(ds, [])
    assert train.norm_stats is not None
    assert train.norm_stats[train.feature_names[0]]["std"] == 1.0
    assert np.all(train.features[:, 0] == 0.0)


def test_same_stats_reproduce_normalized_train():
    rng = np.random.default_rng(3)
    ds = Dataset(rng.normal(5, 3, size=(30, 4)), np.zeros(30, dtype=int))
    held_out_copy = Dataset(ds.features.copy(), ds.labels.copy())
    train, (other,) = normalize_fit_apply(ds, [held_out_copy])
    assert np.array_equal(train.features, other.features)


def test_norm_stats_json_round_trip(tmp_path):
    rng = np.random.default_rng(5)
    ds = Dataset(rng.normal(size=(15, 3)), np.zeros(15, dtype=int))
    train, _ = normalize_fit_apply(ds, [])
    path = tmp_path / "stats.json"
    save_json(train.norm_stats, path)
    loaded = json.loads(path.read_text())
    assert loaded == train.norm_stats
    mean = np.array([loaded[name]["mean"] for name in ds.feature_names])
    scale = np.array([loaded[name]["std"] for name in ds.feature_names])
    assert np.array_equal((ds.features - mean) / scale, train.features)


# ----------------------------------------------------------------- splits


def test_split_deterministic_given_seed():
    ds = gen_triangle(50, seed=9)
    a_train, a_test = split_stratified(ds, 60, seed=21)
    b_train, b_test = split_stratified(ds, 60, seed=21)
    assert np.array_equal(a_train.features, b_train.features)
    assert np.array_equal(a_test.row_ids, b_test.row_ids)


def test_split_sizes_and_partition():
    ds = load_iris()
    train, test = split_stratified(ds, 100, seed=0)
    assert len(train.labels) == 100
    assert len(test.labels) == 50
    assert set(train.row_ids) | set(test.row_ids) == set(range(150))
    assert set(train.row_ids) & set(test.row_ids) == set()


def test_split_class_counts_recount():
    ds = load_iris()
    train, test = split_stratified(ds, 100, seed=13)
    # stratified: each species contributes proportionally (50 -> 33/34)
    for cls in (0, 1, 2):
        n_train = int(np.sum(train.labels == cls))
        assert n_train in (33, 34)
        assert n_train + int(np.sum(test.labels == cls)) == 50


def test_split_infeasible_errors():
    ds = gen_triangle(10, seed=0)
    with pytest.raises(ValueError):
        split_stratified(ds, 20, seed=0)


# -------------------------------------------------------------- generators


def test_triangle_counts_and_membership():
    ds = gen_triangle(80, seed=5)
    assert len(ds.labels) == 160
    pos = ds.features[ds.labels == 1]
    neg = ds.features[ds.labels == -1]
    assert len(pos) == 80 and len(neg) == 80
    assert all(in_triangle(p) for p in pos)
    assert not any(in_triangle(q) for q in neg)


def test_triangle_seed_determinism():
    a = gen_triangle(40, seed=77)
    b = gen_triangle(40, seed=77)
    c = gen_triangle(40, seed=78)
    assert np.array_equal(a.features, b.features)
    assert not np.array_equal(a.features, c.features)


def test_triangle_vertices_fixed():
    v = np.asarray(TRIANGLE_VERTICES)
    assert v.shape == (3, 2)
    # centroid near the origin keeps the configuration centered
    assert np.linalg.norm(v.mean(axis=0)) < 0.25


def cluster_blocks(ds):
    # rows are emitted left cluster, middle cluster, right cluster; the
    # middle one is the single run of class-2 labels
    mid = np.flatnonzero(ds.labels == 2)
    left = np.arange(0, mid[0])
    right = np.arange(mid[-1] + 1, len(ds.labels))
    return left, mid, right


def test_three_clusters_means_exact():
    ds = gen_three_clusters(300, seed=3)
    centers = np.asarray(THREE_CLUSTER_CENTERS)
    for block, center in zip(cluster_blocks(ds), centers):
        np.testing.assert_allclose(ds.features[block].mean(axis=0), center, atol=1e-12)


def test_three_clusters_labels_follow_cluster():
    ds = gen_three_clusters(90, seed=8)
    left, mid, right = cluster_blocks(ds)
    assert set(ds.labels[left]) == {1}
    assert set(ds.labels[mid]) == {2}
    assert set(ds.labels[right]) == {1}
    assert len(left) == len(right) == 30
    # each block actually sits around its nominal center
    for block, center in zip((left, mid, right), np.asarray(THREE_CLUSTER_CENTERS)):
        assert np.all(np.linalg.norm(ds.features[block] - center, axis=1) < 2.5)


def test_three_clusters_x2_marginal_matched_across_classes():
    ds = gen_three_clusters(1000, seed=12)
    x2_outer = ds.features[ds.labels == 1, 1]
    x2_middle = ds.features[ds.labels == 2, 1]
    _, p = ks_two_sample(x2_outer, x2_middle)
    assert p > 0.05


def test_nonlinear_counts_and_regions():
    ds = gen_nonlinear(200, seed=2)
    assert len(ds.labels) == 200
    r = np.linalg.norm(ds.features, axis=1)
    neg = ds.labels == -1
    pos = ds.labels == 1
    assert np.all(r[neg] <= NONLINEAR_DISK_RADIUS + 1e-12)
    # positives are either in the surrounding ring or on the interior ridge
    ring = pos & (r >= NONLINEAR_RING[0] - 1e-12)
    ridge = pos & (r < NONLINEAR_RING[0])
    assert np.all(r[ring] <= NONLINEAR_RING[1] + 1e-12)
    assert ridge.sum() >= 3
    assert np.all(np.abs(ds.features[ridge, 1]) < 0.2)


def test_inject_outliers_counts_and_flips():
    ds = gen_triangle(60, seed=1)
    corrupted, idx = inject_outliers(ds, 6, seed=4)
    assert len(idx) == 6
    assert np.array_equal(corrupted.features, ds.features)
    assert np.all(corrupted.labels[idx] == -ds.labels[idx])
    untouched = np.setdiff1d(np.arange(len(ds.labels)), idx)
    assert np.array_equal(corrupted.labels[untouched], ds.labels[untouched])


def test_inject_outliers_prefers_deep_points():
    ds = gen_triangle(60, seed=1)
    _, idx = inject_outliers(ds, 5, seed=4)
    # flipped points sit inside the opposite class's region, i.e. away from
    # the boundary: their distance to the nearest opposite-class point is
    # at least the median such distance
    depth = np.array(
        [
            np.min(
                np.linalg.norm(
                    ds.features[ds.labels != ds.labels[j]] - ds.features[j], axis=1
                )
            )
            for j in range(len(ds.labels))
        ]
    )
    assert np.all(depth[idx] >= np.median(depth) - 1e-12)


# ------------------------------------------------------------------- iris


def test_iris_shape_and_species_counts():
    ds = load_iris()
    assert ds.features.shape == (150, 4)
    for cls in (0, 1, 2):
        assert int(np.sum(ds.labels == cls)) == 50


def test_iris_binary_relabel():
    full = load_iris()
    ds = iris_binary(full)
    assert set(ds.labels) == {0, 1}
    assert int(np.sum(ds.labels == 0)) == 50
    assert int(np.sum(ds.labels == 1)) == 100
    assert np.array_equal(ds.labels == 0, full.labels == 1)  # versicolor
    assert ds.features is full.features


def test_iris_feature_names():
    ds = load_iris()
    assert list(ds.feature_names) == [
        "sepal_length",
        "sepal_width",
        "petal_length",
        "petal_width",
    ]


def test_subset_preserves_row_ids():
    ds = load_iris()
    sub = ds.subset(np.array([5, 60, 149]))
    assert list(sub.row_ids) == [5, 60, 149]
    assert np.array_equal(sub.features, ds.features[[5, 60, 149]])


@pytest.mark.parametrize("ids, bad", [([0.5, 1.7], "0.5"), ([3, np.nan], "nan"), ([2.0, 1e21], "1e+21")])
def test_row_ids_that_are_not_integers_are_errors(ids, bad):
    # the ids were cast with truncation: [0.5, 1.7] became [0, 1]
    with pytest.raises(ValueError, match=re.escape(f"id {bad} is not an integer")):
        Dataset(np.zeros((2, 1)), [0, 1], row_ids=ids)
    assert Dataset(np.zeros((2, 1)), [0, 1], row_ids=[4.0, -2.0]).row_ids.tolist() == [4, -2]


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: Dataset(np.zeros((2, 1)), [0, 2**70]), f"label {2**70} is not an integer"),
        (lambda: Dataset(np.zeros((2, 1)), [0, 1], row_ids=[2.0, 2**70]), f"id {2**70} is not an integer"),
        (lambda: datamod._integers([1, 2**64]), f"label {2**64} is not an integer"),
    ],
    ids=["labels", "row-ids", "integers"],
)
def test_python_ints_beyond_int64_are_named_as_not_integers(call, message):
    # a Python int beyond int64 makes an object array, whose cast to int raised
    # numpy's OverflowError ("Python int too large to convert to C long")
    with pytest.raises(ValueError, match=re.escape(message)):
        call()


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"row_ids": [1, 2, 3]}, "row_ids has shape (3,) but features has 2 rows"),
        ({"feature_names": ["a", "b", "c"]}, "expected 1 feature names, got 3"),
    ],
)
def test_dataset_rejects_ids_or_names_that_do_not_fit(kwargs, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        Dataset(np.zeros((2, 1)), [0, 1], **kwargs)


def test_explanation_vector_rejects_a_gradient_of_another_dimension():
    with pytest.raises(ValueError, match="gradient dimension must equal query dimension"):
        datamod.ExplanationVector(np.zeros(2), np.zeros(3), 0.5, 1, "parzen-mimic")


def test_normalization_rejects_datasets_with_other_feature_names():
    train = Dataset(np.arange(4.0).reshape(2, 2), [0, 1], ["a", "b"])
    with pytest.raises(ValueError, match="feature names differ between datasets"):
        normalize_fit_apply(train, [Dataset(np.zeros((1, 2)), [0], ["a", "c"])])


def test_three_clusters_need_six_points():
    with pytest.raises(ValueError, match="need at least 6 points for three clusters"):
        gen_three_clusters(5, seed=0)


@pytest.mark.parametrize(
    "ds, count, message",
    [
        (Dataset(np.arange(3.0)[:, None], [0, 1, 2]), 1, "outlier injection needs exactly two classes"),
        (Dataset(np.arange(4.0)[:, None], [0, 0, 1, 1]), 5, "count exceeds dataset size"),
    ],
    ids=["three-classes", "count"],
)
def test_inject_outliers_checks_classes_and_count(ds, count, message):
    with pytest.raises(ValueError, match=message):
        inject_outliers(ds, count, seed=0)


def test_inject_outliers_widens_its_pool_to_every_point_when_asked_for_more():
    # about half the points sit at or past the median depth; asked for every point,
    # the pool silently becomes the whole set, and both classes flip to the other
    ds = Dataset(np.arange(8.0)[:, None], [0, 0, 0, 0, 1, 1, 1, 1])
    corrupted, idx = inject_outliers(ds, ds.n, seed=3)
    assert idx.tolist() == list(range(8))
    assert corrupted.labels.tolist() == [1, 1, 1, 1, 0, 0, 0, 0]


def test_zero_d_query_is_refused_by_every_predictor():
    # on a 1-D model a 0-d query is neither a point nor a q x 1 block: no predictor guesses which.
    # A block of another width is refused too, and so is a query that is not finite (a NaN
    # query got class 0 from mimic_predict, scipy's error or a NaN gradient from the GP route)
    from localgrad.classifiers import KnnClassifier, TableOracle
    from localgrad.gpc import ep_fit, explain_gpc, predict_proba
    from localgrad.kernels import KernelSpec
    from localgrad.mimic import ParzenMimic, explain_mimic, mimic_predict, parzen_posterior_not

    X, y = np.array([[-1.0], [1.0]]), np.array([-1, 1])
    model = ep_fit(X, y, KernelSpec("rbf", width=1.0))
    mm = ParzenMimic(X, y, 1.0)
    calls = [
        lambda x: predict_proba(model, x),
        lambda x: explain_gpc(model, x),
        KnnClassifier(X, y, k=1).predict,
        TableOracle(Dataset(X, y), {0: -1, 1: 1}).predict,
        lambda x: mimic_predict(mm, x),
        lambda x: parzen_posterior_not(mm, x, np.ones(np.size(x), int)),
        lambda x: explain_mimic(mm, x, np.ones(np.size(x), int)),
    ]
    for call in calls:
        for x in (1.0, np.float64(1.0), np.array(1.0)):
            with pytest.raises(ValueError, match=re.escape("point of dimension 1 or a q x 1 block, got shape ()")):
                call(x)
        with pytest.raises(ValueError, match=re.escape("point of dimension 1 or a q x 1 block, got shape (2, 2)")):
            call(np.zeros((2, 2)))
        for bad in (np.nan, np.inf, -np.inf):
            for x in ([bad], [[0.5], [bad]]):
                with pytest.raises(ValueError, match="queries must be finite"):
                    call(np.array(x))


def _model_blob(X, y):
    """A model file of a fit on four good points, carrying the training set X, y."""
    from localgrad.gpc import ep_fit, model_to_dict
    from localgrad.kernels import KernelSpec

    good = np.array([[0.0, 1.0], [1.0, 0.0], [2.0, 2.0], [3.0, 1.0]])
    good = model_to_dict(ep_fit(good, [-1, 1, -1, 1], KernelSpec()))
    return {**good, "train_x": np.asarray(X).tolist(), "train_y": np.asarray(y).tolist()}


@pytest.mark.parametrize(
    "entry",
    ["ParzenMimic", "select_width", "default_sigma_grid", "KnnClassifier", "knn_fit_loo", "ep_fit", "model_from_dict",
     "Dataset"],
)
def test_points_and_labels_meet_one_rule_in_every_model(entry):
    # the points' and the labels' rules live in data, and each entry point names its own
    # arguments in them.  Checked apart, default_sigma_grid met 1-D points with numpy's
    # AxisError, and Dataset truncated a 0.5 label to 0
    from localgrad.classifiers import KnnClassifier, knn_fit_loo
    from localgrad.gpc import ep_fit, model_from_dict
    from localgrad.kernels import KernelSpec
    from localgrad.mimic import ParzenMimic, default_sigma_grid, select_width

    calls = {
        "ParzenMimic": (lambda X, y: ParzenMimic(X, y, 1.0), "ref_x", "ref_labels"),
        "select_width": (lambda X, y: select_width(X, y, [0.5, 1.0]), "ref_x", "ref_labels"),
        "default_sigma_grid": (lambda X, y: default_sigma_grid(X), "points", None),
        "KnnClassifier": (lambda X, y: KnnClassifier(X, y, 1), "train_x", "train_y"),
        "knn_fit_loo": (lambda X, y: knn_fit_loo(X, y, (1, 2)), "train_x", "train_y"),
        "ep_fit": (lambda X, y: ep_fit(X, y, KernelSpec()), "train_x", "train_y"),
        "model_from_dict": (lambda X, y: model_from_dict(_model_blob(X, y)), "train_x", "train_y"),
        "Dataset": (lambda X, y: Dataset(X, y), "features", "labels"),
    }
    call, points, labels = calls[entry]
    X, y = np.array([[0.0, 1.0], [1.0, 0.0], [2.0, 2.0], [3.0, 1.0]]), np.array([-1, 1, -1, 1])
    nan_row, inf_row = X.copy(), X.copy()
    nan_row[2, 1], inf_row[1, 0] = np.nan, np.inf
    empty = "(0,)" if entry == "model_from_dict" else "(0, 2)"  # a model file's empty list has no width
    cases = [
        (X[:, 0], y, f"{points} must be a nonempty n x d matrix, got shape (4,)"),
        (X[:0], y[:0], f"{points} must be a nonempty n x d matrix, got shape {empty}"),
        (nan_row, y, f"{points} must be finite, but row 2 is [2.0, nan]"),
        (inf_row, y, f"{points} must be finite, but row 1 is [inf, 0.0]"),
    ]
    if labels:
        cases += [
            (X, [-1, 1, -1, 1, 1], f"{labels} has shape (5,) but {points} has 4 rows"),
            (X, [-1, 0.5, -1, 1], "label 0.5 is not an integer"),
            (X, y[:, None], f"{labels} has shape (4, 1) but {points} has 4 rows"),
        ]
    for bad_x, bad_y, message in cases:
        with pytest.raises(ValueError, match=re.escape(message)):
            call(bad_x, bad_y)
    call(X, y)  # the good set passes every rule
