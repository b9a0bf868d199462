"""Dataset loading, normalization, splitting, and toy-data generators.

CSV layout is ``id,<feature...>,label``: an optional leading integer id
column, numeric feature columns in file order, and one integer class
column.  Normalization statistics travel with the dataset so a transform
fitted on a training split can be applied to anything else.  Both
explanation routes return the ExplanationVector record defined here.
"""

from __future__ import annotations

import csv
import json
import warnings
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.spatial.distance import cdist


@dataclass
class Dataset:
    """Feature matrix with aligned labels, ids, and optional norm stats."""

    features: np.ndarray
    labels: np.ndarray
    feature_names: list | None = field(default=None)
    row_ids: np.ndarray | None = field(default=None)
    norm_stats: dict | None = field(default=None)

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=float)
        self.labels = np.asarray(self.labels, dtype=int)
        n, d = self.features.shape
        if self.feature_names is None:
            self.feature_names = [f"f{j + 1}" for j in range(d)]
        if self.row_ids is None:
            self.row_ids = np.arange(n)
        self.row_ids = np.asarray(self.row_ids, dtype=int)
        if len(self.labels) != n or len(self.row_ids) != n:
            raise ValueError("features, labels and row_ids must have equal length")
        if len(self.feature_names) != d:
            raise ValueError(f"expected {d} feature names, got {len(self.feature_names)}")
        if not np.all(np.isfinite(self.features)):
            raise ValueError("features contain NaN or Inf")

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def d(self) -> int:
        return self.features.shape[1]

    def classes(self) -> np.ndarray:
        return np.unique(self.labels)

    def subset(self, indices) -> "Dataset":
        """New dataset keeping only the given rows (original ids retained)."""
        idx = np.asarray(indices, dtype=int)
        return Dataset(
            features=self.features[idx],
            labels=self.labels[idx],
            feature_names=list(self.feature_names),
            row_ids=self.row_ids[idx],
            norm_stats=self.norm_stats,
        )


@dataclass
class ExplanationVector:
    """A local explanation: the gradient of a class-probability function
    at a query point, together with the prediction it explains.

    A positive component means that increasing the corresponding feature
    increases the explained probability (for the analytic source, the
    probability of the +1 class; for the mimic sources, the probability
    of leaving the predicted class).
    """

    query: np.ndarray
    gradient: np.ndarray
    predicted_probability: float
    predicted_label: int
    source: str  # analytic-gpc | parzen-mimic | hessian-fallback
    far_field: bool = False

    def __post_init__(self):
        self.query = np.asarray(self.query, dtype=float)
        self.gradient = np.asarray(self.gradient, dtype=float)
        if self.query.shape != self.gradient.shape:
            raise ValueError("gradient dimension must equal query dimension")


def load_csv(path, label_column: str = "label", classes=None) -> Dataset:
    """Read a dataset CSV.

    The header must contain `label_column`; a leading column named ``id``
    supplies row ids (otherwise ids are 0..n-1 in file order).  If
    `classes` is given, every label must belong to it.
    """
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise ValueError(f"{path}: empty file")
    header = [h.strip() for h in rows[0]]
    if label_column not in header:
        raise ValueError(f"{path}: missing label column {label_column!r}")
    label_pos = header.index(label_column)
    has_id = header and header[0] == "id"
    feature_pos = [
        j for j, name in enumerate(header) if j != label_pos and not (has_id and j == 0)
    ]
    feature_names = [header[j] for j in feature_pos]

    feats, labels, ids = [], [], []
    for i, row in enumerate(rows[1:]):
        if not row:
            continue
        if len(row) != len(header):
            raise ValueError(f"{path}: row {i} has {len(row)} cells, expected {len(header)}")
        vals = []
        for j in feature_pos:
            try:
                v = float(row[j])
            except ValueError:
                raise ValueError(
                    f"{path}: non-numeric value {row[j]!r} at row {i}, column {header[j]!r}"
                ) from None
            if not np.isfinite(v):
                raise ValueError(f"{path}: non-finite value at row {i}, column {header[j]!r}")
            vals.append(v)
        try:
            lab_f = float(row[label_pos])
            lab = int(lab_f)
            if lab != lab_f:
                raise ValueError
        except ValueError:
            raise ValueError(
                f"{path}: non-integer label {row[label_pos]!r} at row {i}"
            ) from None
        if classes is not None and lab not in classes:
            raise ValueError(f"{path}: unknown label {lab} at row {i}")
        if has_id:
            ids.append(int(row[0]))
        feats.append(vals)
        labels.append(lab)
    if not feats:
        raise ValueError(f"{path}: no data rows")
    if not has_id:
        ids = list(range(len(feats)))
    if len(set(ids)) != len(ids):
        raise ValueError(f"{path}: duplicate row ids")
    return Dataset(np.array(feats), np.array(labels), feature_names, np.array(ids))


def save_csv(data: Dataset, path) -> None:
    """Write ``id,<feature...>,label`` with 17-significant-digit floats.

    The float format round-trips doubles bit-exactly through load_csv.
    """
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["id"] + list(data.feature_names) + ["label"])
        for i in range(data.n):
            w.writerow(
                [int(data.row_ids[i])]
                + ["%.17g" % v for v in data.features[i]]
                + [int(data.labels[i])]
            )


def save_norm_stats(stats: dict, path) -> None:
    with open(path, "w") as fh:
        json.dump(stats, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_norm_stats(path) -> dict:
    with open(path) as fh:
        stats = json.load(fh)
    return {name: {"mean": float(s["mean"]), "std": float(s["std"])} for name, s in stats.items()}


def normalize_fit_apply(train: Dataset, others=()):
    """Standardize using the training split's mean and standard deviation.

    Returns ``(train_normalized, [others_normalized...])``.  Columns with
    zero spread keep scale 1 and trigger a warning instead of an error.
    """
    mean = train.features.mean(axis=0)
    std = train.features.std(axis=0)
    constant = std < 1e-12
    if np.any(constant):
        names = [train.feature_names[j] for j in np.flatnonzero(constant)]
        warnings.warn(f"constant feature(s) {names}: scale set to 1", stacklevel=2)
    scale = np.where(constant, 1.0, std)
    stats = {
        name: {"mean": float(mean[j]), "std": float(scale[j])}
        for j, name in enumerate(train.feature_names)
    }

    def apply(ds: Dataset) -> Dataset:
        if list(ds.feature_names) != list(train.feature_names):
            raise ValueError("feature names differ between datasets")
        return replace(ds, features=(ds.features - mean) / scale, norm_stats=stats)

    return apply(train), [apply(ds) for ds in others]


def apply_norm_stats(data: Dataset, stats: dict) -> Dataset:
    """Apply previously fitted statistics to another dataset."""
    mean = np.array([stats[name]["mean"] for name in data.feature_names])
    scale = np.array([stats[name]["std"] for name in data.feature_names])
    return replace(data, features=(data.features - mean) / scale, norm_stats=stats)


def denormalize(data: Dataset) -> np.ndarray:
    """Features mapped back to original units (norm_stats required)."""
    if data.norm_stats is None:
        raise ValueError("dataset carries no normalization statistics")
    mean = np.array([data.norm_stats[name]["mean"] for name in data.feature_names])
    scale = np.array([data.norm_stats[name]["std"] for name in data.feature_names])
    return data.features * scale + mean


def _allocate(sizes, total):
    # largest-remainder apportionment of `total` across strata of given sizes
    sizes = np.asarray(sizes, dtype=float)
    exact = total * sizes / sizes.sum()
    base = np.floor(exact).astype(int)
    short = total - base.sum()
    order = np.lexsort((np.arange(len(sizes)), -(exact - base)))
    base[order[:short]] += 1
    return base


def split_stratified(
    data: Dataset,
    n_train: int,
    seed: int,
    balance_classes: bool = False,
    preserve_group=None,
):
    """Deterministic stratified train/test split.

    Stratifies by class (and by group membership when `preserve_group`,
    a boolean mask, is given).  With `balance_classes` the training class
    counts differ by at most one.
    """
    if not 0 < n_train < data.n:
        raise ValueError(f"n_train must be in (0, {data.n}), got {n_train}")
    rng = np.random.default_rng(seed)
    classes = data.classes()
    if balance_classes:
        per_class = np.full(len(classes), n_train // len(classes))
        per_class[: n_train % len(classes)] += 1
    else:
        per_class = _allocate([np.sum(data.labels == c) for c in classes], n_train)

    if preserve_group is not None:
        group = np.asarray(preserve_group, dtype=bool)
        if group.shape != (data.n,):
            raise ValueError("preserve_group must be a boolean mask over all rows")

    train_idx = []
    for c, quota in zip(classes, per_class):
        members = np.flatnonzero(data.labels == c)
        if quota > len(members):
            raise ValueError(
                f"class {c} has {len(members)} rows, cannot take {quota} for training"
            )
        if preserve_group is None:
            cells = [members]
            cell_quota = [quota]
        else:
            cells = [members[group[members]], members[~group[members]]]
            cells = [cell for cell in cells if len(cell)]
            cell_quota = _allocate([len(cell) for cell in cells], quota)
        for cell, q in zip(cells, cell_quota):
            if q > len(cell):
                raise ValueError("infeasible group-preserving split")
            train_idx.extend(rng.choice(cell, size=q, replace=False))
    train_idx = np.sort(np.array(train_idx, dtype=int))
    test_idx = np.setdiff1d(np.arange(data.n), train_idx)
    return data.subset(train_idx), data.subset(test_idx)


# ---------------------------------------------------------------------------
# toy generators
# ---------------------------------------------------------------------------

TRIANGLE_VERTICES = np.array([[0.0, 1.05], [-1.05, -0.8], [1.05, -0.8]])
_TRIANGLE_BOX = 1.6
_TRIANGLE_MARGIN = 0.15


def in_triangle(points, vertices=TRIANGLE_VERTICES) -> np.ndarray:
    """Boolean mask: which 2-D points lie inside the (ccw) triangle."""
    P = np.atleast_2d(np.asarray(points, dtype=float))
    inside = np.ones(len(P), dtype=bool)
    for i in range(3):
        a, b = vertices[i], vertices[(i + 1) % 3]
        cross = (b[0] - a[0]) * (P[:, 1] - a[1]) - (b[1] - a[1]) * (P[:, 0] - a[0])
        inside &= cross >= 0.0
    return inside


def _dist_to_triangle_edges(P, vertices=TRIANGLE_VERTICES):
    P = np.atleast_2d(np.asarray(P, dtype=float))
    dists = np.full(len(P), np.inf)
    for i in range(3):
        a, b = vertices[i], vertices[(i + 1) % 3]
        ab = b - a
        t = np.clip(((P - a) @ ab) / (ab @ ab), 0.0, 1.0)
        proj = a + t[:, None] * ab
        dists = np.minimum(dists, np.linalg.norm(P - proj, axis=1))
    return dists


def _rejection_sample(rng, n, box, accept):
    out = []
    have = 0
    while have < n:
        cand = rng.uniform(-box, box, size=(max(4 * (n - have), 64), 2))
        good = cand[accept(cand)]
        out.append(good)
        have += len(good)
    return np.concatenate(out)[:n]


def gen_triangle(n_per_class: int, seed: int) -> Dataset:
    """Two-class 2-D toy set: a triangle (+1) inside a surrounding field (-1).

    Points are uniform in their region; a margin band of 0.15 around the
    triangle boundary is left empty so the classes are cleanly separated.
    """
    rng = np.random.default_rng(seed)
    m = _TRIANGLE_MARGIN
    pos = _rejection_sample(
        rng,
        n_per_class,
        _TRIANGLE_BOX,
        lambda P: in_triangle(P) & (_dist_to_triangle_edges(P) >= m),
    )
    neg = _rejection_sample(
        rng,
        n_per_class,
        _TRIANGLE_BOX,
        lambda P: ~in_triangle(P) & (_dist_to_triangle_edges(P) >= m),
    )
    X = np.vstack([pos, neg])
    y = np.concatenate([np.ones(n_per_class, dtype=int), -np.ones(n_per_class, dtype=int)])
    return Dataset(X, y, ["x1", "x2"], np.arange(2 * n_per_class))


THREE_CLUSTER_CENTERS = np.array([[-2.0, 0.0], [0.0, 0.0], [2.0, 0.0]])
THREE_CLUSTER_STD = 0.5  # 0.25 * inter-cluster distance


def gen_three_clusters(n: int, seed: int) -> Dataset:
    """Three isotropic Gaussian clusters on the x1 axis; the middle one is
    class 2, the outer two are class 1, so only x1 carries class signal.

    Sampling is antithetic: the outer clusters are exact mirror images of
    each other through the origin (the left one recentered so its mean
    sits exactly on its nominal center), and the middle cluster is made
    of mirror pairs, with an odd remainder placed exactly at the center.
    The configuration is therefore point-symmetric about the middle
    center, which makes that center an exact stationary point of every
    class-density ratio — the idealized geometry this set illustrates.
    """
    if n < 6:
        raise ValueError("need at least 6 points for three clusters")
    rng = np.random.default_rng(seed)
    n_outer = n // 3
    n_mid = n - 2 * n_outer
    offsets = rng.normal(0.0, THREE_CLUSTER_STD, size=(n_outer, 2))
    left = THREE_CLUSTER_CENTERS[0] + (offsets - offsets.mean(axis=0))
    right = -left
    pairs = rng.normal(0.0, THREE_CLUSTER_STD, size=(n_mid // 2, 2))
    mid_parts = [pairs, -pairs]
    if n_mid % 2:
        mid_parts.append(np.zeros((1, 2)))
    mid = np.vstack(mid_parts)
    X = np.vstack([left, mid, right])
    y = np.concatenate(
        [np.full(n_outer, 1), np.full(n_mid, 2), np.full(n_outer, 1)]
    ).astype(int)
    return Dataset(X, y, ["x1", "x2"], np.arange(n))


NONLINEAR_DISK_RADIUS = 1.0
NONLINEAR_RING = (1.35, 2.4)
NONLINEAR_RIDGE_SPAN = 0.7


def gen_nonlinear(n: int, seed: int) -> Dataset:
    """Negative disk surrounded by a positive ring, plus a thin ridge of
    isolated positive points crossing the disk along the x1 axis."""
    rng = np.random.default_rng(seed)
    n_ridge = max(3, round(0.05 * n))
    n_neg = round(0.4 * (n - n_ridge))
    n_pos = n - n_ridge - n_neg

    theta = rng.uniform(0, 2 * np.pi, n_neg)
    r = NONLINEAR_DISK_RADIUS * np.sqrt(rng.uniform(0, 1, n_neg))
    neg = np.column_stack([r * np.cos(theta), r * np.sin(theta)])

    r1, r2 = NONLINEAR_RING
    theta = rng.uniform(0, 2 * np.pi, n_pos)
    r = np.sqrt(rng.uniform(r1**2, r2**2, n_pos))
    pos = np.column_stack([r * np.cos(theta), r * np.sin(theta)])

    ridge_x = np.linspace(-NONLINEAR_RIDGE_SPAN, NONLINEAR_RIDGE_SPAN, n_ridge)
    ridge = np.column_stack([ridge_x, rng.normal(0.0, 0.03, n_ridge)])

    X = np.vstack([neg, pos, ridge])
    y = np.concatenate(
        [-np.ones(n_neg, dtype=int), np.ones(n_pos + n_ridge, dtype=int)]
    )
    return Dataset(X, y, ["x1", "x2"], np.arange(n))


def inject_outliers(data: Dataset, count: int, seed: int):
    """Flip the labels of `count` points sitting deep inside their own class
    region (binary data only).  Returns (corrupted dataset, flipped indices).
    """
    classes = data.classes()
    if len(classes) != 2:
        raise ValueError("outlier injection needs exactly two classes")
    if count > data.n:
        raise ValueError("count exceeds dataset size")
    rng = np.random.default_rng(seed)
    # depth = distance to the nearest point of the other class
    sq = cdist(data.features, data.features, "sqeuclidean")
    sq[data.labels[:, None] == data.labels[None, :]] = np.inf
    depth = np.sqrt(sq.min(axis=1))
    eligible = np.flatnonzero(depth >= np.median(depth))
    if count > len(eligible):
        eligible = np.arange(data.n)
    picked = np.sort(rng.choice(eligible, size=count, replace=False))
    flipped = data.labels.copy()
    swap = {classes[0]: classes[1], classes[1]: classes[0]}
    for i in picked:
        flipped[i] = swap[data.labels[i]]
    return replace(data, labels=flipped), picked


IRIS_FEATURES = ["sepal_length", "sepal_width", "petal_length", "petal_width"]
IRIS_SPECIES = ("setosa", "versicolor", "virginica")


def load_iris(binary: bool = False) -> Dataset:
    """Bundled 150x4 Fisher Iris set; labels are species codes 0/1/2.

    With ``binary=True`` the labels are collapsed to class 0 = versicolor
    versus class 1 = the other two species.
    """
    from importlib import resources

    path = resources.files("localgrad").joinpath("datasets/iris.csv")
    with resources.as_file(path) as p:
        data = load_csv(p, classes={0, 1, 2})
    if binary:
        data = replace(data, labels=np.where(data.labels == 1, 0, 1))
    return data
