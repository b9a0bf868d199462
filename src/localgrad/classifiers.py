"""Classifiers to be explained: k-NN with LOO model selection and a
table-backed oracle standing in for externally trained models.

Anything with a ``predict(point) -> class`` method works as a label
source; both classes here are deterministic and immutable once built.
"""

from __future__ import annotations

import csv

import numpy as np
from scipy.spatial.distance import cdist


class KnnClassifier:
    """Euclidean k-nearest-neighbors, majority vote.

    Tie rules (fixed for determinism): distance ties go to the lower
    training index; vote ties go to the class of the nearest neighbor
    among the tied classes.
    """

    def __init__(self, train_x, train_y, k: int):
        self.train_x = np.asarray(train_x, dtype=float)
        self.train_y = np.asarray(train_y, dtype=int)
        n = len(self.train_x)
        if n == 0:
            raise ValueError("empty training set")
        if not 1 <= k <= n:
            raise ValueError(f"k must be in [1, {n}], got {k}")
        self.k = int(k)
        self.loo_errors = None  # filled by knn_fit_loo

    def predict(self, x) -> int:
        return int(self.predict_batch([x])[0])

    def predict_batch(self, X) -> np.ndarray:
        """Labels of the rows of X: one distance matrix, one stable
        neighbor order and one vote over all rows."""
        dist = cdist(np.atleast_2d(np.asarray(X, dtype=float)), self.train_x, "sqeuclidean")
        order = np.argsort(dist, axis=1, kind="stable")
        return _vote(self.train_y[order[:, : self.k]])


def _vote(neighbor_labels: np.ndarray) -> np.ndarray:
    """Majority label of each row (neighbors nearest first); vote ties go
    to the tied label met first in the row."""
    classes, idx = np.unique(neighbor_labels, return_inverse=True)
    idx = idx.reshape(neighbor_labels.shape)
    rows = np.arange(len(idx))[:, None]
    counts = np.zeros((len(idx), len(classes)), dtype=int)
    np.add.at(counts, (rows, idx), 1)
    tied = counts == counts.max(axis=1, keepdims=True)
    return neighbor_labels[rows[:, 0], np.argmax(tied[rows, idx], axis=1)]


def knn_fit_loo(train_x, train_y, k_candidates) -> KnnClassifier:
    """Pick k by leave-one-out error; ties go to the smaller k.

    One distance matrix without its diagonal and one stable neighbor
    order serve every candidate: point i's neighbors are the other points
    in exactly the order KnnClassifier.predict would rank them with i left
    out of the training set.
    """
    X = np.asarray(train_x, dtype=float)
    y = np.asarray(train_y, dtype=int)
    n = len(X)
    if n == 0:
        raise ValueError("empty training set")
    cands = sorted(set(int(k) for k in k_candidates))
    if not cands:
        raise ValueError("no k candidates")
    if cands[0] < 1 or cands[-1] > n - 1:
        raise ValueError(f"k candidates must lie in [1, {n - 1}]")
    others = cdist(X, X, "sqeuclidean")[~np.eye(n, dtype=bool)].reshape(n, n - 1)
    order = np.argsort(others, axis=1, kind="stable")[:, : cands[-1]]
    order += order >= np.arange(n)[:, None]  # back to indices of X
    neighbor_labels = y[order]
    errors = {k: int(np.sum(_vote(neighbor_labels[:, :k]) != y)) for k in cands}
    best = min(cands, key=lambda k: (errors[k], k))
    clf = KnnClassifier(X, y, best)
    clf.loo_errors = errors
    return clf


class TableOracle:
    """Stored predictions keyed to a companion dataset's rows.

    predict() requires an exact coordinate match against the companion
    dataset (float-bit equality); lookups by row id are also available.
    """

    def __init__(self, dataset, by_id: dict):
        """`by_id` maps the dataset's row ids to labels; rows with equal
        coordinates must carry equal labels."""
        by_coords = {}
        for rid, point in zip(dataset.row_ids, dataset.features):
            key = np.ascontiguousarray(point, dtype=float).tobytes()
            prev = by_coords.get(key)
            if prev is not None and by_id[prev] != by_id[int(rid)]:
                raise ValueError(f"duplicate coordinates with conflicting labels (id {rid})")
            by_coords.setdefault(key, int(rid))
        self._by_id = by_id
        self._by_coords = by_coords

    def predict(self, x) -> int:
        key = np.ascontiguousarray(x, dtype=float).tobytes()
        if key not in self._by_coords:
            raise ValueError("query point is not a row of the companion dataset")
        return self._by_id[self._by_coords[key]]

    def predict_by_id(self, row_id: int) -> int:
        if int(row_id) not in self._by_id:
            raise ValueError(f"unknown row id {row_id}")
        return self._by_id[int(row_id)]


def table_oracle_load(path, dataset, classes=None) -> TableOracle:
    """Load a prediction table CSV (header ``id,label``).

    Ids must bijectively match the companion dataset's row ids; labels
    outside `classes` (when given) are a load error.
    """
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or [h.strip() for h in rows[0]] != ["id", "label"]:
        raise ValueError(f"{path}: expected header 'id,label'")
    by_id = {}
    for i, row in enumerate(rows[1:]):
        if not row:
            continue
        if len(row) != 2:
            raise ValueError(f"{path}: row {i} malformed")
        try:
            rid, lab = int(row[0]), int(row[1])
        except ValueError:
            raise ValueError(f"{path}: non-integer cell at row {i}") from None
        if classes is not None and lab not in classes:
            raise ValueError(f"{path}: label {lab} at row {i} outside declared classes")
        if rid in by_id:
            raise ValueError(f"{path}: duplicate id {rid}")
        by_id[rid] = lab
    if set(by_id) != set(int(r) for r in dataset.row_ids):
        raise ValueError(f"{path}: ids do not match the companion dataset's row ids")
    return TableOracle(dataset, by_id)


def save_predictions(path, row_ids, labels) -> None:
    """Write a prediction table CSV (header ``id,label``)."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["id", "label"])
        for rid, lab in zip(row_ids, labels):
            w.writerow([int(rid), int(lab)])
