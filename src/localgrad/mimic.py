"""Parzen-window mimic of an arbitrary classifier.

Given reference points labeled by some classifier g, the mimic places a
Gaussian bump of width sigma on every reference and forms weighted class
densities

    joint(x, c) = (1/m) * sum_{i in I_c} k_sigma(x - x_i),
    k_sigma(z)  = exp(-1/2 * z'z / sigma^2) / sqrt(2*pi*sigma^2),

whose ratios give a posterior that mimics g.  The normalizing constant
is the one-dimensional one regardless of d; it cancels in every ratio
below, so the joint is deliberately unnormalized as a d-dim density.

The estimated explanation vector at a query z with label c = g(z) is the
gradient of the "leave the class" posterior p(y != c | x) at x = z.
Writing S_in / S_out for the weight sums over I_c and its complement,
and V_in / V_out for the matching weighted sums of (z - x_i), it has the
closed form

    zeta(z) = (S_out * V_in - S_in * V_out) / (sigma^2 * T^2),  T = S_in + S_out.

This expression is invariant under rescaling all weights by a common
factor, so it is evaluated with weights scaled by the largest one;
that keeps T^2 away from underflow without changing any result.

Far field: when even the largest Gaussian weight underflows to zero in
double precision, densities carry no information.  Posteriors then fall
back to class priors, predictions to the majority class, and explanation
vectors to zero — all flagged.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, replace

import numpy as np
from scipy.spatial.distance import cdist, pdist

from . import data
from .data import ExplanationVector

# log of the smallest positive double: below this, exp() underflows to 0
_UNDERFLOW_LOG = float(np.log(np.finfo(float).smallest_subnormal))


@dataclass
class ParzenMimic:
    """Labeled reference set, stored grouped by class, plus kernel width.  Immutable once built."""

    ref_x: np.ndarray
    ref_labels: np.ndarray
    sigma: float

    def __post_init__(self):
        self.ref_x = np.asarray(self.ref_x, dtype=float)
        self.ref_labels = np.asarray(self.ref_labels, dtype=int)
        if self.ref_x.ndim != 2:
            raise ValueError("ref_x must be an m x d matrix")
        if len(self.ref_labels) != len(self.ref_x):
            raise ValueError("ref_x and ref_labels must have equal length")
        if not self.sigma > 0:
            raise ValueError(f"sigma must be positive, got {self.sigma}")
        # grouped by class, stably: the rows of class classes[j] are class_slices[j]
        order = np.argsort(self.ref_labels, kind="stable")
        self.ref_x, self.ref_labels = self.ref_x[order], self.ref_labels[order]
        self.classes, self.class_counts = np.unique(self.ref_labels, return_counts=True)
        bounds = [0, *np.cumsum(self.class_counts).tolist()]
        self.class_slices = [slice(lo, hi) for lo, hi in zip(bounds, bounds[1:])]

    def majority_class(self) -> int:
        return int(self.classes[np.argmax(self.class_counts)])  # ties: lower class id


def _point(mimic: ParzenMimic, x) -> np.ndarray:
    """The query point x as a one-row block."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.size != mimic.ref_x.shape[1]:
        raise ValueError(f"query must be a point of dimension {mimic.ref_x.shape[1]}, got shape {x.shape}")
    return x[None]


def _class_index(mimic: ParzenMimic, c) -> int:
    """Position of label c in mimic.classes; a label no reference carries is an error."""
    try:
        return mimic.classes.tolist().index(int(c))
    except ValueError:
        raise ValueError(f"label {int(c)} is carried by no reference of the mimic") from None


def _rescale(sq: np.ndarray, sigma: float, out: np.ndarray) -> np.ndarray:
    """Write into `out` the weights exp(-1/2 * sq / sigma^2) of rows of squared
    distances, each row divided by its largest one.  Returns the far-field
    mask: rows whose largest weight underflows, so they carry no information."""
    np.multiply(sq, -0.5, out=out)
    out /= sigma**2
    top = out.max(axis=1)
    far = top < _UNDERFLOW_LOG
    top[far] = 0.0  # unshifted, far rows underflow to 0; callers fall back on them
    out -= top[:, None]
    np.exp(out, out=out)
    return far


def _weights(mimic: ParzenMimic, X):
    """Rescaled weights of the rows of X in place on one buffer, and the far-field mask."""
    w = cdist(X, mimic.ref_x, "sqeuclidean")
    return w, _rescale(w, mimic.sigma, out=w)


def _class_sums(mimic: ParzenMimic, w: np.ndarray) -> np.ndarray:
    """Each row's class sums, one slice each: a row's sums do not depend on the block."""
    return np.array([w[:, s].sum(axis=1) for s in mimic.class_slices]).T


def _decide(mimic: ParzenMimic, w: np.ndarray, far: np.ndarray) -> np.ndarray:
    """The mimic's decision rule: the class with the largest class sum (ties:
    lower class id); far-field rows go to the majority class."""
    pred = mimic.classes[np.argmax(_class_sums(mimic, w), axis=1)]
    if far.any():
        pred[far] = mimic.majority_class()
    return pred


def parzen_posterior_not(mimic: ParzenMimic, x, c) -> float:
    """p(y != c | x) = 1 - p(y = c | x), the share of the class sum _decide
    compares in the total; in the far field, 1 - the class prior."""
    j = _class_index(mimic, c)
    w, far = _weights(mimic, _point(mimic, x))
    if far[0]:
        return 1.0 - float(mimic.class_counts[j]) / len(mimic.ref_x)
    sums = _class_sums(mimic, w)[0]
    return 1.0 - float(sums[j]) / float(sum(sums))


def mimic_predict(mimic: ParzenMimic, x):
    """Class with maximal posterior at a point x (an int), or at each row
    of a q x d block x (an array), one row block at a time; ties and far
    field go as documented."""
    x = np.asarray(x, dtype=float)
    X = _point(mimic, x) if x.ndim == 1 else x
    pred = np.empty(len(X), dtype=mimic.classes.dtype)
    for block in data._row_blocks(len(X), len(mimic.ref_x)):
        pred[block] = _decide(mimic, *_weights(mimic, X[block]))
    return int(pred[0]) if x.ndim == 1 else pred


def select_width(
    ref_x,
    ref_labels,
    probe_points,
    probe_labels,
    candidate_sigmas,
) -> float:
    """Pick sigma minimizing disagreement with g on the probe points.

    The score of a candidate is the plain count of probes where the
    mimic's prediction differs from the supplied g label; ties go to the
    smaller sigma.  When the probes coincide with the references (same
    points, same labels), each probe's own reference is left out of the
    density — otherwise vanishing widths would win trivially.  Probes are
    scored one row block at a time, every candidate on each block, and
    each candidate's counts are added across blocks.
    """
    ref_x = np.asarray(ref_x, dtype=float)
    ref_labels = np.asarray(ref_labels, dtype=int)
    probes = np.asarray(probe_points, dtype=float)
    g_labels = np.asarray(probe_labels, dtype=int)
    if len(probes) == 0 or len(ref_x) == 0:
        raise ValueError("reference and probe sets must be nonempty")
    cands = sorted(float(s) for s in candidate_sigmas)
    positive = [s for s in cands if s > 0]
    if not positive:
        raise ValueError("no positive sigma candidate")

    loo = probes.shape == ref_x.shape and np.array_equal(probes, ref_x) and np.array_equal(
        g_labels, ref_labels
    )
    mimic = ParzenMimic(ref_x, ref_labels, positive[0])  # the decision rule reads only the labels
    if loo:  # probes in the mimic's order: probe i's own reference is column i
        probes, g_labels = mimic.ref_x, mimic.ref_labels
    counts = np.zeros(len(positive), dtype=int)
    for block in data._row_blocks(len(probes), len(ref_x)):
        sq = cdist(probes[block], mimic.ref_x, "sqeuclidean")
        if loo:  # each probe's own reference gets weight 0
            np.fill_diagonal(sq[:, block], np.inf)
        w = np.empty_like(sq)  # weights of one candidate; reused
        for i, s in enumerate(positive):
            far = _rescale(sq, s, out=w)
            counts[i] += np.count_nonzero(_decide(mimic, w, far) != g_labels[block])
    return positive[int(np.argmin(counts))]  # first minimum: the smaller sigma


def default_sigma_grid(points, count: int = 25, span=(1e-2, 1e2)) -> np.ndarray:
    """Log-spaced candidate widths scaled by the median pairwise distance.

    The median is taken in place on the one buffer of pairwise distances.
    A zero median (more than half of the point pairs coincide) scales no
    grid and is an error.
    """
    points = np.asarray(points, dtype=float)
    if len(points) < 2:
        raise ValueError(
            f"the sigma grid is scaled by a median pairwise distance, which needs at "
            f"least two points, got {len(points)}"
        )
    dist = pdist(points, "sqeuclidean")
    np.sqrt(dist, out=dist)
    med = float(np.median(dist, overwrite_input=True))
    if not med > 0:
        raise ValueError(
            f"the median pairwise distance is {med:g}, so it cannot scale a sigma grid "
            f"(it is 0 when more than half of the point pairs coincide); "
            f"pass --sigma or --sigma-grid"
        )
    return med * np.logspace(np.log10(span[0]), np.log10(span[1]), count)


def _quotient_parts(mimic: ParzenMimic, z, c):
    """What the explanation quotient and the Hessian at z are built from:
    the rescaled weights, the mask of references in class c, and the
    differences z - x_i.  None in the far field."""
    _class_index(mimic, c)  # a label no reference carries is an error
    w, far = _weights(mimic, _point(mimic, z))
    if far[0]:
        return None
    return w[0], mimic.ref_labels == int(c), z - mimic.ref_x


def explain_estimated(mimic: ParzenMimic, z, g_label) -> ExplanationVector:
    """Estimated explanation vector at z for the class assigned by g.

    A positive component means increasing that feature increases the
    mimic's probability that the label differs from g_label.  In the far
    field the gradient is identically zero and flagged.
    """
    z = np.asarray(z, dtype=float)
    c = int(g_label)
    parts = _quotient_parts(mimic, z, c)
    if parts is None:
        gradient = np.zeros_like(z)
    else:
        w, inside, diff = parts
        s_in = float(np.sum(w[inside]))
        s_out = float(np.sum(w[~inside]))
        v_in = w[inside] @ diff[inside]
        v_out = w[~inside] @ diff[~inside]
        gradient = (s_out * v_in - s_in * v_out) / (mimic.sigma**2 * (s_in + s_out) ** 2)
    return ExplanationVector(
        query=z,
        gradient=gradient,
        predicted_probability=parzen_posterior_not(mimic, z, c),
        predicted_label=c,
        source="parzen-mimic",
        far_field=parts is None,
    )


def parzen_hessian(mimic: ParzenMimic, z, c) -> np.ndarray:
    """Analytic Hessian of p(y != c | x) at z.

    With w_i(x) = exp(-|x - x_i|^2 / (2 sigma^2)) the pieces are
    grad w_i = -w_i (x - x_i) / sigma^2 and
    hess w_i = w_i ((x-x_i)(x-x_i)' / sigma^4 - I / sigma^2); the quotient
    rule for O/T (O = outside-class sum, T = total) assembles them.  All
    terms are ratios of equal homogeneity degree, so rescaled weights
    leave the result unchanged.
    """
    z = np.asarray(z, dtype=float)
    parts = _quotient_parts(mimic, z, c)
    if parts is None:
        return np.zeros((z.size, z.size))
    w, inside, diff = parts
    s2 = mimic.sigma**2
    out = ~inside
    eye = np.eye(z.size)

    def grad_of(mask):
        return -(w[mask] @ diff[mask]) / s2

    def hess_of(mask):
        wd = w[mask, None] * diff[mask]
        return (wd.T @ diff[mask]) / s2**2 - np.sum(w[mask]) / s2 * eye

    T = float(np.sum(w))
    O = float(np.sum(w[out]))
    gT, gO = grad_of(slice(None)), grad_of(out)
    hT, hO = hess_of(slice(None)), hess_of(out)
    return (
        hO / T
        - (np.outer(gO, gT) + np.outer(gT, gO)) / T**2
        - O * hT / T**2
        + 2.0 * O * np.outer(gT, gT) / T**3
    )


def hessian_direction(mimic: ParzenMimic, z, g_label):
    """Fallback direction where the explanation gradient vanishes.

    Returns the top eigenvector of the Hessian of p(y != g_label | x) at
    z (orientation-free; the first nonzero component is made positive)
    together with its eigenvalue.
    """
    z = np.asarray(z, dtype=float)
    H = parzen_hessian(mimic, z, g_label)
    if not np.linalg.norm(H) > 0.0:
        raise ValueError("no informative direction: Hessian is numerically zero")
    eigvals, eigvecs = np.linalg.eigh(H)
    vec = eigvecs[:, -1]
    nonzero = np.flatnonzero(np.abs(vec) > 1e-9)
    if len(nonzero) and vec[nonzero[0]] < 0:
        vec = -vec
    return vec, float(eigvals[-1])


def explain_with_fallback(
    mimic: ParzenMimic, z, g_label, threshold: float = 1e-6
) -> ExplanationVector:
    """explain_estimated, switching to the Hessian direction when the
    gradient norm falls below `threshold` (far-field points stay zero)."""
    ev = explain_estimated(mimic, z, g_label)
    if ev.far_field or np.linalg.norm(ev.gradient) >= threshold:
        return ev
    try:
        direction, _ = hessian_direction(mimic, z, g_label)
    except ValueError:
        return ev
    return replace(ev, gradient=direction, source="hessian-fallback")


def smooth_gradients(queries, gradients, window_halfwidth: float) -> np.ndarray:
    """Sliding-hypercube smoothing of a gradient field.

    Each output is the mean of all gradients whose query lies within the
    axis-aligned cube of the given halfwidth centered at that query (the
    point itself always included).
    """
    Q = np.atleast_2d(np.asarray(queries, dtype=float))
    G = np.atleast_2d(np.asarray(gradients, dtype=float))
    if len(Q) != len(G):
        raise ValueError("queries and gradients must be aligned")
    if not window_halfwidth > 0:
        raise ValueError("window halfwidth must be positive")
    out = np.empty_like(G)
    for i in range(len(Q)):
        mask = np.all(np.abs(Q - Q[i]) <= window_halfwidth, axis=1)
        out[i] = G[mask].mean(axis=0)
    return out


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def save_explanations(path, explanations, feature_names=None) -> None:
    """Write explanations as CSV: query coords, gradient coords, predicted
    label, source, far-field flag.  Floats carry 17 significant digits."""
    explanations = list(explanations)
    if not explanations:
        raise ValueError("nothing to save")
    d = explanations[0].query.size
    if feature_names is None:
        feature_names = [f"x{j + 1}" for j in range(d)]
    if len(feature_names) != d:
        raise ValueError(f"expected {d} feature names")
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(
            list(feature_names)
            + [f"grad_{name}" for name in feature_names]
            + ["probability", "label", "source", "far_field"]
        )
        for ev in explanations:
            w.writerow(
                ["%.17g" % v for v in ev.query]
                + ["%.17g" % v for v in ev.gradient]
                + ["%.17g" % ev.predicted_probability, int(ev.predicted_label), ev.source, int(ev.far_field)]
            )
