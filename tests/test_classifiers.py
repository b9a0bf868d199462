import csv
import re

import numpy as np
import pytest
from scipy.spatial.distance import cdist

from localgrad.classifiers import (
    KnnClassifier,
    TableOracle,
    _nearest,
    _sq_distances,
    knn_fit_loo,
    table_oracle_load,
)
from localgrad.data import Dataset, _row_blocks
from oracles import knn_loo_errors_bruteforce, knn_predict_bruteforce


def two_clusters(n=16, seed=0):
    rng = np.random.default_rng(seed)
    a = rng.normal([-4, 0], 0.3, size=(n // 2, 2))
    b = rng.normal([+4, 0], 0.3, size=(n // 2, 2))
    X = np.vstack([a, b])
    y = np.array([0] * (n // 2) + [1] * (n // 2))
    return X, y


def test_training_point_k1_returns_own_label():
    X, y = two_clusters()
    clf = KnnClassifier(X, y, k=1)
    for i in range(len(y)):
        assert clf.predict(X[i]) == y[i]


def test_majority_vote_matches_exhaustive_sort():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(30, 3))
    y = rng.integers(0, 3, size=30)
    clf = KnnClassifier(X, y, k=5)
    queries = rng.normal(size=(50, 3))
    expected = []
    for q in queries:
        order = np.argsort([np.linalg.norm(q - xi) for xi in X], kind="stable")
        votes = y[order[:5]]
        counts = {c: np.sum(votes == c) for c in set(votes)}
        top = max(counts.values())
        tied = [c for c, n in counts.items() if n == top]
        # tie rule: the class of the nearest neighbor among tied classes
        expected.append(next(c for c in votes if c in tied))
        assert clf.predict(q) == expected[-1]
    assert clf.predict(queries).tolist() == expected


def test_distance_tie_broken_by_lower_index():
    X = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 5.0]])
    y = np.array([7, 8, 9])
    clf = KnnClassifier(X, y, k=1)
    # query equidistant from rows 0 and 1; row 0 wins
    assert clf.predict(np.zeros(2)) == 7


def test_vote_tie_broken_by_nearest_tied_class():
    # k=2: one vote each; winner must be the closer point's class
    X = np.array([[1.0, 0.0], [-2.0, 0.0], [9.0, 9.0]])
    y = np.array([3, 5, 3])
    clf = KnnClassifier(X, y, k=2)
    assert clf.predict(np.zeros(2)) == 3
    clf2 = KnnClassifier(X * np.array([-1, 1.0]), y, k=2)
    assert clf2.predict(np.zeros(2)) == 3  # mirrored: class 3 still nearest


def test_loo_error_count_matches_bruteforce():
    rng = np.random.default_rng(9)
    X = rng.normal(size=(24, 2))
    y = rng.integers(0, 2, size=24)
    clf = knn_fit_loo(X, y, (1, 3, 5))
    assert clf.loo_errors == {k: knn_loo_errors_bruteforce(X, y, k) for k in (1, 3, 5)}


def exact_ties_set():
    """Integer grid with duplicated rows: many exactly equal distances, so
    the neighbor order rests on the lower-index rule and the vote-tie rule."""
    rng = np.random.default_rng(21)
    base = rng.integers(0, 4, size=(30, 2)).astype(float)
    X = np.vstack([base, base[:10]])
    return X, rng.integers(0, 3, size=len(X))


def test_loo_errors_match_bruteforce_with_exact_ties():
    X, y = exact_ties_set()
    ks = range(1, 7)
    clf = knn_fit_loo(X, y, ks)
    assert clf.loo_errors == {k: knn_loo_errors_bruteforce(X, y, k) for k in ks}


@pytest.mark.parametrize("block_rows", [1, 7])
def test_loo_errors_block_size_changes_nothing(monkeypatch, block_rows):
    # blocks of one row, and of 7 rows, which does not divide the 40 points
    X, y = exact_ties_set()
    monkeypatch.setattr("localgrad.data._BLOCK_ELEMENTS", block_rows * len(X))
    ks = range(1, 7)
    clf = knn_fit_loo(X, y, ks)
    assert clf.loo_errors == {k: knn_loo_errors_bruteforce(X, y, k) for k in ks}


@pytest.mark.parametrize("block_rows", [1, 7])
def test_predict_block_size_changes_nothing(monkeypatch, block_rows):
    # blocks of one row, and of 7 rows, which does not divide the 50 queries;
    # one vote labels them all, whatever the blocks
    X, y = exact_ties_set()
    queries = np.random.default_rng(22).integers(-1, 5, size=(50, 2)).astype(float)
    clf = KnnClassifier(X, y, k=4)
    expected = knn_predict_bruteforce(X, y, 4, queries)
    dist = cdist(queries, X, "sqeuclidean")
    assert (np.count_nonzero(dist <= np.sort(dist, axis=1)[:, 3:4], axis=1) > 4).any()  # ties at the 4th distance
    votes = y[stable_first(dist, 4)]
    assert any(sorted(np.unique(row, return_counts=True)[1].tolist())[-2:] == [2, 2] for row in votes)  # vote ties
    assert clf.predict(queries).tolist() == expected
    monkeypatch.setattr("localgrad.data._BLOCK_ELEMENTS", block_rows * len(X))
    assert clf.predict(queries).tolist() == expected
    assert [clf.predict(q) for q in queries] == expected
    assert clf.predict(queries[:0]).tolist() == []


def tied_distances(rows=50, m=12, seed=23):
    """Squared distances from rounded queries to rounded training points,
    three of them duplicated and five queries on training points: ties
    at the k-th distance are common, but not on every row."""
    rng = np.random.default_rng(seed)
    train = np.round(rng.normal(size=(m, 2)), 1)
    train[-3:] = train[:3]
    queries = np.round(rng.normal(size=(rows, 2)), 1)
    queries[:5] = train[:5]
    return cdist(queries, train, "sqeuclidean")


def stable_first(dist, k):
    return np.argsort(dist, axis=1, kind="stable")[:, :k]


@pytest.mark.parametrize("block_rows", [1, 7, None])
@pytest.mark.parametrize("k", [1, 2, 11, 12])
def test_nearest_equals_stable_argsort(monkeypatch, k, block_rows):
    # k = 1, 2, m - 1 and m; one-row, 7-row and default-size blocks
    dist = tied_distances()
    m = dist.shape[1]
    if k < m:  # the data must reach both the partial path and the tie fallback
        counts = np.count_nonzero(dist <= np.sort(dist, axis=1)[:, k - 1 : k], axis=1)
        assert (counts == k).any() and (counts > k).any()
    if block_rows:
        monkeypatch.setattr("localgrad.data._BLOCK_ELEMENTS", block_rows * m)
    got = np.vstack([_nearest(dist[block], k) for block in _row_blocks(len(dist), m)])
    assert np.array_equal(got, stable_first(dist, k))


@pytest.mark.parametrize("k", [1, 2, 10, 11, 12])
def test_nearest_with_inf_self_column(k):
    # knn_fit_loo's block: each point's distance to itself is +inf
    X = np.round(np.random.default_rng(24).normal(size=(12, 2)), 1)
    X[-3:] = X[:3]
    dist = cdist(X, X, "sqeuclidean")
    dist[np.arange(12), np.arange(12)] = np.inf
    assert np.array_equal(_nearest(dist, k), stable_first(dist, k))


def test_nearest_fully_sorts_only_tied_rows(monkeypatch):
    # a row without a tie at the k-th distance sorts only its k nearest
    # columns; a full-width sort there would mean the partial path is gone
    m, k = 60, 5
    full_rows = []
    argsort = np.argsort

    def counting_argsort(a, *args, **kwargs):
        if np.shape(a)[-1] == m:
            full_rows.append(len(a))
        return argsort(a, *args, **kwargs)

    rng = np.random.default_rng(25)
    untied = cdist(rng.normal(size=(40, 3)), rng.normal(size=(m, 3)), "sqeuclidean")
    tied = tied_distances(m=m)
    n_tied = int(np.sum(np.count_nonzero(tied <= np.sort(tied, axis=1)[:, k - 1 : k], axis=1) > k))
    monkeypatch.setattr(np, "argsort", counting_argsort)
    got_untied, got_tied = _nearest(untied, k), _nearest(tied, k)
    monkeypatch.undo()
    assert np.array_equal(got_untied, stable_first(untied, k))
    assert np.array_equal(got_tied, stable_first(tied, k))
    assert 0 < n_tied < len(tied)
    assert sum(full_rows) == n_tied


@pytest.mark.parametrize("bad", [np.nan, np.inf, 1e200])
def test_fit_loo_rejects_non_finite_distances(bad):
    X, y = two_clusters(n=10)
    X[3, 0] = bad  # 1e200 is finite, but its squared distances overflow
    with pytest.raises(ValueError, match="finite"):
        knn_fit_loo(X, y, (1, 3))


@pytest.mark.parametrize("bad", [np.nan, np.inf, 1e200])
def test_predict_rejects_non_finite_distances(bad):
    X, y = two_clusters(n=10)
    queries = X.copy()
    queries[3, 0] = bad  # 1e200 is finite, but its squared distances overflow
    clf = KnnClassifier(X, y, k=3)
    for q in (queries, queries[3]):
        with pytest.raises(ValueError, match="finite"):
            clf.predict(q)
    X[3, 0] = bad
    with pytest.raises(ValueError, match="finite"):
        KnnClassifier(X, y, k=3).predict(np.zeros(2))


def test_squared_distances_that_overflow_meet_the_distance_guard():
    # coordinates of 1e200 pass the points' rule, but their squared distances are inf
    message = "k-NN needs finite points and finite squared distances"
    X, y = two_clusters(n=10)
    far = X.copy()
    far[3, 0] = 1e200
    with pytest.raises(ValueError, match=message):
        knn_fit_loo(far, y, (1, 3))
    with pytest.raises(ValueError, match=message):
        KnnClassifier(X, y, k=3).predict(far)
    with pytest.raises(ValueError, match=message):  # NaN fails the guard too
        _sq_distances(np.array([[np.nan, 0.0]]), X)


def test_fit_loo_tie_prefers_smaller_k():
    X, y = two_clusters(n=20, seed=2)
    clf = knn_fit_loo(X, y, k_candidates=(1, 3))
    # both candidates have zero LOO error on well-separated clusters
    assert knn_loo_errors_bruteforce(X, y, 1) == 0
    assert knn_loo_errors_bruteforce(X, y, 3) == 0
    assert clf.loo_errors == {1: 0, 3: 0}
    assert clf.k == 1


def test_fit_loo_selects_minimizer():
    rng = np.random.default_rng(14)
    X = np.vstack(
        [rng.normal([-1, 0], 1.0, size=(25, 2)), rng.normal([1, 0], 1.0, size=(25, 2))]
    )
    y = np.array([0] * 25 + [1] * 25)
    candidates = (1, 3, 5, 7, 9)
    clf = knn_fit_loo(X, y, candidates)
    errors = {k: knn_loo_errors_bruteforce(X, y, k) for k in candidates}
    assert clf.loo_errors == errors
    best = min(errors.values())
    assert clf.k == min(k for k, e in errors.items() if e == best)


def test_fit_loo_memory_stays_quadratic(traced):
    # an m x m x d difference tensor alone would take 69 MB here
    rng = np.random.default_rng(4)
    X = rng.normal(size=(600, 24))
    y = rng.integers(0, 2, size=600)
    with traced() as peak:
        knn_fit_loo(X, y, range(1, 11))
        used = peak()
    assert used < 25e6


def test_knn_memory_grows_linearly(traced):
    # one 2000 x 2000 float64 distance matrix alone would take 32 MB
    rng = np.random.default_rng(5)
    X = rng.normal(size=(2000, 6))
    y = rng.integers(0, 2, size=2000)
    with traced() as peak:
        clf = knn_fit_loo(X, y, range(1, 11))
        fit_peak = peak()
        clf.predict(rng.normal(size=(2000, 6)))
        predict_peak = peak()
    assert fit_peak < 8e6
    assert predict_peak < 8e6


def test_fit_loo_validation():
    X, y = two_clusters(n=10)
    with pytest.raises(ValueError):
        knn_fit_loo(X, y, k_candidates=())
    with pytest.raises(ValueError):
        knn_fit_loo(X, y, k_candidates=(10,))  # k must be <= n-1
    with pytest.raises(ValueError):
        KnnClassifier(X, y, k=0)


@pytest.mark.parametrize(
    "labels, message",
    [
        ([0, 1, 0, 1, 0, 1, 1], "train_y has shape (7,) but train_x has 5 rows"),
        ([0, 1, 0, 1], "train_y has shape (4,) but train_x has 5 rows"),
        ([[0], [1], [0], [1], [0]], "train_y has shape (5, 1) but train_x has 5 rows"),
        ([0, 0.5, 1, 1.5, 1], "label 0.5 is not an integer"),
    ],
)
def test_knn_takes_one_integer_label_per_point(labels, message):
    # unchecked, 7 labels for 5 points were accepted, 4 failed in predict ("index 4 is
    # out of bounds"), [0, 0.5, 1, 1.5, 1] was truncated to [0, 0, 1, 1, 1], and
    # knn_fit_loo met a wrong count in a broadcast that named neither argument
    X = np.random.default_rng(0).normal(size=(5, 2))
    with pytest.raises(ValueError, match=re.escape(message)):
        KnnClassifier(X, labels, 1)
    with pytest.raises(ValueError, match=re.escape(message)):
        knn_fit_loo(X, labels, (1, 2))


def test_k_that_is_not_an_integer_is_an_error():
    # read by int(), 2.5 made k 2, and the candidates (1.7, 3.2) scored k = 1 and 3
    X, y = two_clusters(n=10)
    with pytest.raises(ValueError, match=re.escape("k 2.5 is not an integer")):
        KnnClassifier(X, y, 2.5)
    with pytest.raises(ValueError, match=re.escape("k 1.7 is not an integer")):
        knn_fit_loo(X, y, (1.7, 3.2))
    assert KnnClassifier(X, y, 2.0).k == 2  # integral floats stay integers
    assert knn_fit_loo(X, y, (3.0, 1)).loo_errors.keys() == {1, 3}


@pytest.mark.parametrize("shape", [(5,), (0, 2), (5, 2, 1)])
def test_knn_training_points_form_a_nonempty_matrix(shape):
    # as the mimic's references do: unchecked, a (5,) set built and then failed in
    # predict with "tuple index out of range", and knn_fit_loo failed inside cdist
    message = f"train_x must be a nonempty n x d matrix, got shape {shape}"
    for call in (lambda X, y: KnnClassifier(X, y, 1), lambda X, y: knn_fit_loo(X, y, (1,))):
        with pytest.raises(ValueError, match=re.escape(message)):
            call(np.zeros(shape), np.zeros(shape[0], dtype=int))


def test_table_oracle_three_rows(tmp_path):
    ds = Dataset(np.array([[0.0, 1.0], [2.0, 3.0], [4.0, 5.0]]), np.array([0, 1, 0]))
    path = tmp_path / "preds.csv"
    path.write_text("id,label\n0,1\n1,0\n2,1\n")
    oracle = table_oracle_load(path, ds)
    assert oracle.predict(np.array([2.0, 3.0])) == 0
    assert oracle.predict(np.array([4.0, 5.0])) == 1


def test_table_oracle_round_trip_with_knn(tmp_path):
    X, y = two_clusters(n=20, seed=8)
    ds = Dataset(X, y)
    clf = KnnClassifier(X, y, k=3)
    preds = np.array([clf.predict(x) for x in X])
    path = tmp_path / "knn_preds.csv"
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["id", "label"])
        w.writerows(zip(ds.row_ids, preds))
    oracle = table_oracle_load(path, ds)
    for i, x in enumerate(X):
        assert oracle.predict(x) == preds[i]


def test_table_oracle_block_predict_matches_point_predict():
    ds = Dataset(np.array([[0.0, 1.0], [2.0, 3.0], [4.0, 5.0]]), np.array([0, 1, 0]))
    oracle = TableOracle(ds, {0: 2, 1: 1, 2: 2})
    rows = ds.features[[2, 0, 1, 0]]
    assert oracle.predict(rows).tolist() == [oracle.predict(x) for x in rows] == [2, 2, 1, 2]
    assert isinstance(oracle.predict(rows[0]), int)
    with pytest.raises(ValueError, match="not a row"):
        oracle.predict(np.vstack([rows, [[0.5, 0.5]]]))


def test_table_oracle_conflicting_duplicate_coordinates():
    ds = Dataset(np.array([[0.0, 1.0], [2.0, 3.0], [0.0, 1.0]]), np.array([0, 1, 1]))
    with pytest.raises(ValueError, match="conflicting labels"):
        TableOracle(ds, {0: 0, 1: 1, 2: 1})
    # agreeing duplicates are fine
    oracle = TableOracle(ds, {0: 1, 1: 0, 2: 1})
    assert oracle.predict(np.array([0.0, 1.0])) == 1


def test_table_oracle_unknown_query_errors(tmp_path):
    ds = Dataset(np.array([[0.0], [1.0]]), np.array([0, 1]))
    path = tmp_path / "p.csv"
    path.write_text("id,label\n0,0\n1,1\n")
    oracle = table_oracle_load(path, ds)
    with pytest.raises(ValueError):
        oracle.predict(np.array([0.5]))


def test_table_oracle_id_mismatch(tmp_path):
    ds = Dataset(np.array([[0.0], [1.0]]), np.array([0, 1]))
    path = tmp_path / "p.csv"
    path.write_text("id,label\n0,0\n5,1\n")
    with pytest.raises(ValueError):
        table_oracle_load(path, ds)


def test_table_oracle_reads_integral_float_labels(tmp_path):
    ds = Dataset(np.array([[0.0], [1.0]]), np.array([0, 1]))
    path = tmp_path / "p.csv"
    path.write_text("id,label\n0,1.0\n1,0\n")
    assert table_oracle_load(path, ds).predict(ds.features).tolist() == [1, 0]


def test_table_oracle_without_id_column_keys_rows_in_order(tmp_path):
    # like a dataset file, a table without an id column has ids 0..n-1
    ds = Dataset(np.array([[0.0], [1.0], [2.0]]), np.array([0, 1, 0]))
    path = tmp_path / "p.csv"
    path.write_text("label\n1\n1\n0\n")
    assert table_oracle_load(path, ds).predict(ds.features).tolist() == [1, 1, 0]
    shifted = Dataset(ds.features, ds.labels, row_ids=[1, 2, 3])
    with pytest.raises(ValueError, match="ids do not match"):
        table_oracle_load(path, shifted)


def test_table_oracle_rejects_feature_columns(tmp_path):
    ds = Dataset(np.array([[0.0], [1.0]]), np.array([0, 1]))
    path = tmp_path / "p.csv"
    path.write_text("id,x,label\n0,0.0,1\n1,1.0,0\n")
    with pytest.raises(ValueError, match=r"no feature columns, got \['x'\]"):
        table_oracle_load(path, ds)


def test_table_oracle_missing_id_is_a_value_error():
    ds = Dataset(np.array([[0.0], [1.0]]), np.array([0, 1]))
    with pytest.raises(ValueError, match="ids do not match"):
        TableOracle(ds, {0: 1})
    with pytest.raises(ValueError, match="ids do not match"):
        TableOracle(ds, {0: 1, 1: 0, 2: 1})


def test_predictions_deterministic():
    X, y = two_clusters(n=30, seed=4)
    clf = knn_fit_loo(X, y, k_candidates=(1, 3, 5))
    rng = np.random.default_rng(0)
    qs = rng.normal(scale=4, size=(20, 2))
    first = [clf.predict(q) for q in qs]
    second = [clf.predict(q) for q in qs]
    assert first == second
