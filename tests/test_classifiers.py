import tracemalloc

import numpy as np
import pytest

from localgrad.classifiers import (
    KnnClassifier,
    TableOracle,
    knn_fit_loo,
    save_predictions,
    table_oracle_load,
)
from localgrad.data import Dataset
from oracles import knn_loo_errors_bruteforce


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
    assert clf.predict_batch(queries).tolist() == expected


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


def test_loo_errors_match_bruteforce_with_exact_ties():
    # integer grid with duplicated rows: many exactly equal distances, so the
    # neighbor order rests on the lower-index rule and the vote-tie rule
    rng = np.random.default_rng(21)
    base = rng.integers(0, 4, size=(30, 2)).astype(float)
    X = np.vstack([base, base[:10]])
    y = rng.integers(0, 3, size=len(X))
    ks = range(1, 7)
    clf = knn_fit_loo(X, y, ks)
    assert clf.loo_errors == {k: knn_loo_errors_bruteforce(X, y, k) for k in ks}


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


def test_fit_loo_memory_stays_quadratic():
    # an m x m x d difference tensor alone would take 69 MB here
    rng = np.random.default_rng(4)
    X = rng.normal(size=(600, 24))
    y = rng.integers(0, 2, size=600)
    tracemalloc.start()
    try:
        knn_fit_loo(X, y, range(1, 11))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 25e6


def test_fit_loo_validation():
    X, y = two_clusters(n=10)
    with pytest.raises(ValueError):
        knn_fit_loo(X, y, k_candidates=())
    with pytest.raises(ValueError):
        knn_fit_loo(X, y, k_candidates=(10,))  # k must be <= n-1
    with pytest.raises(ValueError):
        KnnClassifier(X, y, k=0)


def test_table_oracle_three_rows(tmp_path):
    ds = Dataset(np.array([[0.0, 1.0], [2.0, 3.0], [4.0, 5.0]]), np.array([0, 1, 0]))
    path = tmp_path / "preds.csv"
    path.write_text("id,label\n0,1\n1,0\n2,1\n")
    oracle = table_oracle_load(path, ds, classes=(0, 1))
    assert oracle.predict_by_id(2) == 1
    assert oracle.predict(np.array([2.0, 3.0])) == 0


def test_table_oracle_round_trip_with_knn(tmp_path):
    X, y = two_clusters(n=20, seed=8)
    ds = Dataset(X, y)
    clf = KnnClassifier(X, y, k=3)
    preds = np.array([clf.predict(x) for x in X])
    path = tmp_path / "knn_preds.csv"
    save_predictions(path, ds.row_ids, preds)
    oracle = table_oracle_load(path, ds, classes=(0, 1))
    for i, x in enumerate(X):
        assert oracle.predict(x) == preds[i]


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
    oracle = table_oracle_load(path, ds, classes=(0, 1))
    with pytest.raises(ValueError):
        oracle.predict(np.array([0.5]))


def test_table_oracle_label_outside_class_set(tmp_path):
    ds = Dataset(np.array([[0.0], [1.0]]), np.array([0, 1]))
    path = tmp_path / "p.csv"
    path.write_text("id,label\n0,0\n1,4\n")
    with pytest.raises(ValueError):
        table_oracle_load(path, ds, classes=(0, 1))


def test_table_oracle_id_mismatch(tmp_path):
    ds = Dataset(np.array([[0.0], [1.0]]), np.array([0, 1]))
    path = tmp_path / "p.csv"
    path.write_text("id,label\n0,0\n5,1\n")
    with pytest.raises(ValueError):
        table_oracle_load(path, ds, classes=(0, 1))


def test_predictions_deterministic():
    X, y = two_clusters(n=30, seed=4)
    clf = knn_fit_loo(X, y, k_candidates=(1, 3, 5))
    rng = np.random.default_rng(0)
    qs = rng.normal(scale=4, size=(20, 2))
    first = [clf.predict(q) for q in qs]
    second = [clf.predict(q) for q in qs]
    assert first == second
