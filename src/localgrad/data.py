"""Dataset loading, normalization, splitting, and toy-data generators.

CSV layout is ``id,<feature...>,label``: an optional leading integer id
column, numeric feature columns in file order, and one integer class
column.  Normalization statistics travel with the dataset so a transform
fitted on a training split can be applied to anything else.  Both
explanation routes (gpc.explain_gpc, mimic.explain_mimic) return the
ExplanationVector record defined here, for a point or a block, and every
block pass uses the row blocks defined here.
"""

from __future__ import annotations

import csv
import json
import math
import warnings
from array import array
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.spatial.distance import cdist

# Passes that hold a row of m numbers per point (k-NN and mimic labels, mimic
# gradients, width selection), or of n*d for the GP's gradient tensor, m*d for the
# differences of the mimic's rows redone from them and 2*m*d for the differences
# and weighted differences of its Hessian rows, work on blocks of rows with at most
# this many float64 elements (256 KiB) each.
_BLOCK_ELEMENTS = 2**15
# _write_table writes at most this many cells per call: about 100 KiB of memory
_WRITE_CELLS = 2**10
# the range of ids and labels, as ints: load_csv compares every row's with them
_INT64_MIN, _INT64_MAX = int(np.iinfo(np.int64).min), int(np.iinfo(np.int64).max)
# cell formats by numpy dtype kind; a column of any other kind is quoted text
_CELL_FORMATS = {"f": "%.17g", "i": "%d", "u": "%d", "b": "%d"}


def _query_block(x, d: int):
    """The queries x as a q x d block of finite floats, and whether x was one point (shape (d,))."""
    x = np.asarray(x, dtype=float)
    if x.ndim not in (1, 2) or x.shape[-1] != d:
        raise ValueError(f"queries must be a point of dimension {d} or a q x {d} block, got shape {x.shape}")
    # min and max carry a NaN or an inf through, with no q x d temporary
    if not (math.isfinite(x.min(initial=0.0)) and math.isfinite(x.max(initial=0.0))):
        raise ValueError("queries must be finite")
    return np.atleast_2d(x), x.ndim == 1


def _points(x, name: str) -> np.ndarray:
    """x as a nonempty n x d matrix of finite floats: the one rule for a model's points
    (references, training points, features); the first row that is not finite is named."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or len(x) == 0:
        raise ValueError(f"{name} must be a nonempty n x d matrix, got shape {x.shape}")
    # min and max carry a NaN or an inf through, as _query_block reads queries
    if not (math.isfinite(x.min(initial=0.0)) and math.isfinite(x.max(initial=0.0))):
        row = int(np.argmin(np.isfinite(x).all(axis=1)))
        raise ValueError(f"{name} must be finite, but row {row} is {x[row].tolist()}")
    return x


def _integers(values, kind: str = "label") -> np.ndarray:
    """values as ints, with no copy of ints; the first that is not an integer (1.5, NaN,
    inf, beyond int64) is an error naming it as a `kind`."""
    values = np.asarray(values)
    if values.dtype == object:  # as a Python int beyond int64 makes it: numpy's cast would overflow
        beyond = [v for v in values.flat if not _INT64_MIN <= v <= _INT64_MAX]  # NaN too
        if beyond:
            raise ValueError(f"{kind} {beyond[0]!r} is not an integer")
    with np.errstate(invalid="ignore"):  # NaN, inf and out-of-range values cast to garbage
        as_int = values.astype(int, copy=False)
    if (as_int != values).any():
        raise ValueError(f"{kind} {values[as_int != values][0].item()!r} is not an integer")
    return as_int


def _integer_labels(labels, n: int, name: str, points_name: str) -> np.ndarray:
    """labels (called name) as one integer label per row of the n points (called
    points_name), by _integers' rule."""
    labels = np.asarray(labels)
    if labels.shape != (n,):
        raise ValueError(f"{name} has shape {labels.shape} but {points_name} has {n} rows")
    return _integers(labels)


def _differences(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """The r x m x d differences a_i - b_j of the rows of A and B, a copy of A's rows
    operated on in place: a broadcast subtraction would also take ufunc buffers beside them."""
    diff = np.repeat(A[:, None, :], len(B), axis=1)
    diff -= B
    return diff


def _row_blocks(n_rows: int, row_len: int):
    """Slices covering rows 0..n_rows-1 in order, each holding as many
    rows of row_len elements as _BLOCK_ELEMENTS allows (at least one)."""
    step = max(1, _BLOCK_ELEMENTS // max(1, row_len))
    return [slice(lo, min(lo + step, n_rows)) for lo in range(0, n_rows, step)]


@dataclass
class Dataset:
    """Feature matrix with aligned labels, ids, and optional norm stats."""

    features: np.ndarray
    labels: np.ndarray
    feature_names: list | None = field(default=None)
    row_ids: np.ndarray | None = field(default=None)
    norm_stats: dict | None = field(default=None)

    def __post_init__(self):
        self.features = _points(self.features, "features")
        n, d = self.features.shape
        self.labels = _integer_labels(self.labels, n, "labels", "features")
        if self.feature_names is None:
            self.feature_names = [f"f{j + 1}" for j in range(d)]
        self.row_ids = np.arange(n) if self.row_ids is None else _integers(self.row_ids, "id")
        if self.row_ids.shape != (n,):
            raise ValueError(f"row_ids has shape {self.row_ids.shape} but features has {n} rows")
        if len(self.feature_names) != d:
            raise ValueError(f"expected {d} feature names, got {len(self.feature_names)}")

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
    at a query point, together with the prediction it explains.  A point
    record has length-d `query` and `gradient` arrays and scalar other
    fields; a block record holds q queries as columns (q x d `query` and
    `gradient`, length-q other fields).

    A positive component means that increasing the corresponding feature
    increases the explained probability (for the analytic source, the
    probability of the +1 class; for the mimic sources, the probability
    of leaving the predicted class).
    """

    query: np.ndarray
    gradient: np.ndarray
    predicted_probability: float | np.ndarray
    predicted_label: int | np.ndarray
    source: str | np.ndarray  # analytic-gpc | parzen-mimic | hessian-fallback
    far_field: bool | np.ndarray = False

    def __post_init__(self):
        self.query = np.asarray(self.query, dtype=float)
        self.gradient = np.asarray(self.gradient, dtype=float)
        if self.query.shape != self.gradient.shape:
            raise ValueError("gradient dimension must equal query dimension")

    def row(self, i) -> "ExplanationVector":
        """Row i of a block record, as a point record with Python scalars."""
        scalars = (self.predicted_probability, self.predicted_label, self.source, self.far_field)
        return ExplanationVector(self.query[i], self.gradient[i], *(c[i].item() for c in scalars))


def _integral(text):
    """The integer an id or label cell, or a --k-grid value, holds, or None:
    integer text is read exactly by int(), other text must be a float with
    an integral value ("1.0" is 1; inf and nan are not)."""
    try:
        return int(text)
    except ValueError:
        try:
            value = float(text)
        except ValueError:
            return None
    return int(value) if value.is_integer() else None


def load_csv(path, classes=None) -> Dataset:
    """Read a dataset CSV; the package's only CSV reader.

    The header must contain a ``label`` column; a leading column named
    ``id`` supplies row ids (otherwise ids are 0..n-1 in file order).  Ids
    and labels are integer cells by _integral's rule.  If `classes` is
    given, every label must belong to it.  A prediction table is such a
    file with no feature columns.  The file is read one record at a time,
    so the reader holds the table and one row, not every cell.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ValueError(f"{path}: empty file")
        header = [h.strip() for h in header]
        if "label" not in header:
            raise ValueError(f"{path}: missing label column 'label'")
        label_pos = header.index("label")
        has_id = header[0] == "id"
        feature_pos = [j for j in range(has_id, len(header)) if j != label_pos]
        feature_names = [header[j] for j in feature_pos]

        feats, labels, ids = array("d"), array("q"), array("q")
        for i, row in enumerate(reader):
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
                if not math.isfinite(v):
                    raise ValueError(f"{path}: non-finite value at row {i}, column {header[j]!r}")
                vals.append(v)
            lab, rid = _integral(row[label_pos]), _integral(row[0]) if has_id else len(ids)
            if lab is None:
                raise ValueError(f"{path}: non-integer label {row[label_pos]!r} at row {i}")
            if rid is None:
                raise ValueError(f"{path}: non-integer id {row[0]!r} at row {i}")
            for j, value in ((label_pos, lab), (0, rid)):
                if not _INT64_MIN <= value <= _INT64_MAX:
                    raise ValueError(f"{path}: {row[j]!r} at row {i}, column {header[j]!r} is outside the int64 range")
            if classes is not None and lab not in classes:
                raise ValueError(f"{path}: unknown label {lab} at row {i}")
            feats.fromlist(vals)
            labels.append(lab)
            ids.append(rid)
    if not labels:
        raise ValueError(f"{path}: no data rows")
    ids = np.frombuffer(ids, dtype=np.int64)
    ordered = np.sort(ids)
    if np.any(ordered[1:] == ordered[:-1]):
        raise ValueError(f"{path}: duplicate row ids")
    features = np.frombuffer(feats).reshape(len(labels), len(feature_pos))
    return Dataset(features, np.frombuffer(labels, dtype=np.int64), feature_names, ids)


def _quote(text) -> str:
    """A text cell as csv's QUOTE_MINIMAL writes it (quotes doubled inside)."""
    text = str(text)
    return '"' + text.replace('"', '""') + '"' if any(c in text for c in ',"\r\n') else text


def _write_table(path, header, blocks) -> None:
    """Write a CSV table: the header, then the rows of each block, in the
    package's one table format, as csv.writer writes it: floats with 17
    significant digits (they round-trip bit-exactly), ints and bools as
    integers, text and header names quoted as by QUOTE_MINIMAL, and CRLF
    after every row.  A block is a sequence of equally long arrays, each one
    column (1-D) or several (2-D).  Its row template is built once from
    their dtypes, and its rows are written _WRITE_CELLS cells at a time."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(map(_quote, header)) + "\r\n")
        for block in blocks:
            cols = [c for a in map(np.asarray, block) for c in (a.T if a.ndim == 2 else [a])]
            row = ",".join(_CELL_FORMATS.get(c.dtype.kind, "%s") for c in cols) + "\r\n"
            cols = [c if c.dtype.kind in _CELL_FORMATS else np.array(list(map(_quote, c)), dtype=object)
                    for c in cols]
            step = max(1, _WRITE_CELLS // len(cols))
            for lo in range(0, len(cols[0]), step):
                cells = zip(*(c[lo : lo + step].tolist() for c in cols))
                fh.write("".join(row % r for r in cells))


def save_csv(data: Dataset, path) -> None:
    """Write ``id,<feature...>,label``; the floats round-trip bit-exactly through load_csv."""
    header = ["id"] + list(data.feature_names) + ["label"]
    _write_table(path, header, [(data.row_ids, data.features, data.labels)])


def save_json(obj, path) -> None:
    """Write a JSON object with sorted keys, indented, ending in a newline."""
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


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


def _allocate(sizes, total):
    # largest-remainder apportionment of `total` across strata of given sizes
    sizes = np.asarray(sizes, dtype=float)
    exact = total * sizes / sizes.sum()
    base = np.floor(exact).astype(int)
    short = total - base.sum()
    order = np.lexsort((np.arange(len(sizes)), -(exact - base)))
    base[order[:short]] += 1
    return base


def split_stratified(data: Dataset, n_train: int, seed: int):
    """Deterministic train/test split, stratified by class: each class
    gets its largest-remainder share of the `n_train` training rows."""
    if not 0 < n_train < data.n:
        raise ValueError(f"n_train must be in (0, {data.n}), got {n_train}")
    rng = np.random.default_rng(seed)
    classes = data.classes()
    per_class = _allocate([np.sum(data.labels == c) for c in classes], n_train)
    train_idx = []
    for c, quota in zip(classes, per_class):
        members = np.flatnonzero(data.labels == c)
        train_idx.extend(rng.choice(members, size=quota, replace=False))
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
    flipped[picked] = np.where(data.labels[picked] == classes[0], classes[1], classes[0])
    return replace(data, labels=flipped), picked


IRIS_FEATURES = ["sepal_length", "sepal_width", "petal_length", "petal_width"]
IRIS_SPECIES = ("setosa", "versicolor", "virginica")


def load_iris() -> Dataset:
    """Bundled 150x4 Fisher Iris set; labels are species codes 0/1/2."""
    from importlib import resources

    path = resources.files("localgrad").joinpath("datasets/iris.csv")
    with resources.as_file(path) as p:
        return load_csv(p, classes={0, 1, 2})


def iris_binary(iris: Dataset) -> Dataset:
    """The Iris set of load_iris relabelled class 0 = versicolor versus
    class 1 = the other two species."""
    return replace(iris, labels=np.where(iris.labels == 1, 0, 1))
