"""Classifiers to be explained: k-NN with LOO model selection and a
table-backed oracle standing in for externally trained models.

Anything with a ``predict`` method that labels a point, or each row of
a block, works as a label source; both classes here are deterministic
and immutable once built.
"""

from __future__ import annotations

import numpy as np
from scipy.spatial.distance import cdist

from . import data


class KnnClassifier:
    """Euclidean k-nearest-neighbors, majority vote.

    Tie rules (fixed for determinism): distance ties go to the lower
    training index; vote ties go to the class of the nearest neighbor
    among the tied classes.
    """

    def __init__(self, train_x, train_y, k: int):
        self.train_x = data._points(train_x, "train_x")
        n = len(self.train_x)
        self.train_y = data._integer_labels(train_y, n, "train_y", "train_x")
        self.k = int(data._integers(k, "k"))
        if not 1 <= self.k <= n:
            raise ValueError(f"k must be in [1, {n}], got {self.k}")
        self.loo_errors = None  # filled by knn_fit_loo

    def predict(self, x):
        """Label of a point x (an int), or of each row of a q x d block x
        (an array): each row block's distances give its rows' stable
        neighbor order, and one vote labels every row."""
        X, point = data._query_block(x, self.train_x.shape[1])
        order = np.empty((len(X), self.k), dtype=np.intp)
        for block in data._row_blocks(len(X), len(self.train_x)):
            order[block] = _nearest(_sq_distances(X[block], self.train_x), self.k)
        labels = _vote(self.train_y[order])
        return int(labels[0]) if point else labels


def _sq_distances(A, B) -> np.ndarray:
    """Squared distances from each row of A to each row of B; ranking needs
    them finite, so non-finite points or overflowing distances are an error."""
    dist = cdist(A, B, "sqeuclidean")
    if not dist.max() < np.inf:  # NaN fails too
        raise ValueError("k-NN needs finite points and finite squared distances")
    return dist


def _nearest(dist: np.ndarray, k: int) -> np.ndarray:
    """Columns of each row's k smallest distances, nearest first, ties to
    the lower column: the first k columns of a stable argsort.

    A partial selection finds each row's k-th smallest distance.  Where
    exactly k columns lie at or below it, only those k are stable-sorted
    (flat indices modulo m give them in column order); rows where more
    columns tie at the k-th distance get the full sort.  Needs 1 <= k <= m
    and no NaN.
    """
    within = dist <= np.partition(dist, k - 1, axis=1)[:, k - 1 : k]
    exact = np.count_nonzero(within, axis=1) == k
    order = np.empty((len(dist), k), dtype=np.intp)
    cols = (np.flatnonzero(within[exact]) % dist.shape[1]).reshape(-1, k)
    near = dist[np.flatnonzero(exact)[:, None], cols]  # the k columns only, with no copy of whole rows
    order[exact] = np.take_along_axis(cols, np.argsort(near, axis=1, kind="stable"), axis=1)
    order[~exact] = np.argsort(dist[~exact], axis=1, kind="stable")[:, :k]
    return order


def _vote(neighbor_labels: np.ndarray) -> np.ndarray:
    """Majority label of each row (neighbors nearest first); vote ties go
    to the tied label met first in the row."""
    classes, idx = np.unique(neighbor_labels, return_inverse=True)
    idx = idx.reshape(neighbor_labels.shape)
    rows = np.arange(len(idx))[:, None]
    counts = np.zeros((len(idx), len(classes)), dtype=int)
    np.add.at(counts, (rows, idx), 1)
    tied = counts == counts.max(axis=1, keepdims=True, initial=0)  # a block of no rows has no classes
    return neighbor_labels[rows[:, 0], np.argmax(tied[rows, idx], axis=1)]


def knn_fit_loo(train_x, train_y, k_candidates) -> KnnClassifier:
    """Pick k by leave-one-out error; ties go to the smaller k.

    One stable neighbor order serves every candidate.  It is built one
    row block at a time, with each point's distance to itself set to
    +inf: point i's first k neighbors are then the other points in
    exactly the order KnnClassifier.predict would rank them with i left
    out of the training set.  That needs finite distances, so non-finite
    points (or distances that overflow) are an error.
    """
    clf = KnnClassifier(train_x, train_y, 1)  # checks the training set
    X, y, n = clf.train_x, clf.train_y, len(clf.train_x)
    cands = sorted(set(data._integers(list(k_candidates), "k").tolist()))
    if not cands:
        raise ValueError("no k candidates")
    if cands[0] < 1 or cands[-1] > n - 1:
        raise ValueError(f"k candidates must lie in [1, {n - 1}]")
    order = np.empty((n, cands[-1]), dtype=np.intp)
    for block in data._row_blocks(n, n):
        dist = _sq_distances(X[block], X)
        dist[np.arange(len(dist)), np.arange(n)[block]] = np.inf  # not its own neighbor
        order[block] = _nearest(dist, cands[-1])
    neighbor_labels = y[order]
    errors = {k: int(np.sum(_vote(neighbor_labels[:, :k]) != y)) for k in cands}
    clf.k = min(cands, key=lambda k: (errors[k], k))
    clf.loo_errors = errors
    return clf


class TableOracle:
    """Stored predictions keyed to a companion dataset's rows.

    predict() requires an exact coordinate match against the companion
    dataset (float-bit equality).
    """

    def __init__(self, dataset, by_id: dict):
        """`by_id` maps exactly the dataset's row ids to labels; rows with
        equal coordinates must carry equal labels."""
        if set(by_id) != set(dataset.row_ids.tolist()):
            raise ValueError("the labels' ids do not match the companion dataset's row ids")
        self._d, self._by_coords = dataset.features.shape[1], {}
        for rid, point in zip(dataset.row_ids.tolist(), dataset.features):
            key = np.ascontiguousarray(point, dtype=float).tobytes()
            label = by_id[rid]
            if self._by_coords.setdefault(key, label) != label:
                raise ValueError(f"duplicate coordinates with conflicting labels (id {rid})")

    def predict(self, x):
        """Label of a point x (an int), or of each row of a q x d block x
        (an array), one dict lookup per row."""
        X, point = data._query_block(x, self._d)
        try:
            labels = np.array([self._by_coords[row.tobytes()] for row in X], dtype=int)
        except KeyError:
            raise ValueError("query point is not a row of the companion dataset") from None
        return int(labels[0]) if point else labels


def table_oracle_load(path, dataset) -> TableOracle:
    """Load a prediction table: a dataset CSV (data.load_csv) with a label
    column, an optional leading id column and no feature columns.  Its ids
    must be exactly the companion dataset's row ids."""
    table = data.load_csv(path)
    if table.d:
        raise ValueError(f"{path}: a prediction table has no feature columns, got {table.feature_names}")
    return TableOracle(dataset, dict(zip(table.row_ids, table.labels)))
