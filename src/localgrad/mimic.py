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
import json
from dataclasses import dataclass, replace

import numpy as np
from scipy.spatial.distance import cdist, pdist

from .data import ExplanationVector

# log of the smallest positive double: below this, exp() underflows to 0
_UNDERFLOW_LOG = float(np.log(np.finfo(float).smallest_subnormal))


@dataclass
class ParzenMimic:
    """Labeled reference set plus kernel width.  Immutable once built."""

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
        self.classes, counts = np.unique(self.ref_labels, return_counts=True)
        # reference order grouped by class, stable: class j holds positions
        # class_bounds[j]:class_bounds[j + 1], so each class sum is one slice
        self.by_class = np.argsort(self.ref_labels, kind="stable")
        self.class_bounds = np.concatenate([[0], np.cumsum(counts)])

    def majority_class(self) -> int:
        return int(self.classes[np.argmax(np.diff(self.class_bounds))])  # ties: lower class id


def _log_weights(mimic: ParzenMimic, x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.size != mimic.ref_x.shape[1]:
        raise ValueError(
            f"query must be a point of dimension {mimic.ref_x.shape[1]}, got shape {x.shape}"
        )
    return -0.5 * cdist(x[None], mimic.ref_x, "sqeuclidean")[0] / mimic.sigma**2


def _rescale(w: np.ndarray) -> np.ndarray:
    """Turn rows of log-weights, in place, into weights divided by the
    row's largest one.  Returns the far-field mask: rows whose largest
    weight underflows, and which therefore carry no information."""
    top = w.max(axis=1)
    far = top < _UNDERFLOW_LOG
    top[far] = 0.0  # unshifted, far rows underflow to 0; callers fall back on them
    w -= top[:, None]
    np.exp(w, out=w)
    return far


def _weights(mimic: ParzenMimic, x):
    """Rescaled weights at the point x as a 1 x m row, and its far-field mask."""
    w = _log_weights(mimic, x)[None]
    return w, _rescale(w)


def _decide(mimic: ParzenMimic, w: np.ndarray, far: np.ndarray) -> np.ndarray:
    """The mimic's decision rule on C-ordered rows of rescaled weights whose
    columns follow mimic.by_class: the class with the largest weight sum
    (ties: lower class id); far-field rows go to the majority class.  A
    class sum adds one contiguous slice of its row, the class's weights in
    reference order, exactly as the posterior adds them; so a row's
    prediction does not depend on the rows it is decided with."""
    b = mimic.class_bounds
    sums = np.column_stack([w[:, lo:hi].sum(axis=1) for lo, hi in zip(b[:-1], b[1:])])
    pred = mimic.classes[np.argmax(sums, axis=1)]
    if far.any():
        pred[far] = mimic.majority_class()
    return pred


def is_far_field(mimic: ParzenMimic, x) -> bool:
    """True when every Gaussian weight at x underflows double precision."""
    return bool(_weights(mimic, x)[1][0])


def parzen_joint(mimic: ParzenMimic, x, c) -> float:
    """Weighted class density (1/m) sum_{i in I_c} k_sigma(x - x_i)."""
    lw = _log_weights(mimic, x)
    inside = mimic.ref_labels == int(c)
    if not inside.any():
        return 0.0
    norm = np.sqrt(2.0 * np.pi) * mimic.sigma
    return float(np.sum(np.exp(lw[inside])) / (norm * len(mimic.ref_x)))


def parzen_posterior(mimic: ParzenMimic, x, c) -> float:
    """Mimic posterior p(y = c | x); class prior when x is far field."""
    inside = mimic.ref_labels == int(c)
    w, far = _weights(mimic, x)
    if far[0]:
        return np.count_nonzero(inside) / len(mimic.ref_x)
    return float(np.sum(w[0][inside])) / float(np.sum(w[0]))


def parzen_posterior_not(mimic: ParzenMimic, x, c) -> float:
    """Complement posterior p(y != c | x), defined as 1 - p(y = c | x)."""
    return 1.0 - parzen_posterior(mimic, x, c)


def mimic_predict(mimic: ParzenMimic, x) -> int:
    """Class with maximal posterior; ties and far field go as documented."""
    w, far = _weights(mimic, x)
    return int(_decide(mimic, w[:, mimic.by_class], far)[0])


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
    density — otherwise vanishing widths would win trivially.
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
    sq = cdist(probes, ref_x[mimic.by_class], "sqeuclidean")  # columns as _decide reads them
    if loo:  # each probe's own reference gets weight 0
        sq[np.arange(len(sq)), np.argsort(mimic.by_class)] = np.inf

    best_sigma, best_count = None, None
    w = np.empty_like(sq)  # log-weights, then weights, of one candidate; reused
    for s in positive:
        np.multiply(sq, -0.5, out=w)
        w /= s**2
        far = _rescale(w)
        count = int(np.sum(_decide(mimic, w, far) != g_labels))
        if best_count is None or count < best_count:
            best_sigma, best_count = s, count
    return best_sigma


def default_sigma_grid(points, count: int = 25, span=(1e-2, 1e2)) -> np.ndarray:
    """Log-spaced candidate widths scaled by the median pairwise distance."""
    points = np.asarray(points, dtype=float)
    if len(points) < 2:
        raise ValueError(
            f"the sigma grid is scaled by a median pairwise distance, which needs at "
            f"least two points, got {len(points)}"
        )
    med = float(np.median(np.sqrt(pdist(points, "sqeuclidean"))))
    if med <= 0:
        med = 1.0
    return med * np.logspace(np.log10(span[0]), np.log10(span[1]), count)


def _quotient_parts(mimic: ParzenMimic, z, c):
    """What the explanation quotient and the Hessian at z are built from:
    the rescaled weights, the mask of references in class c, and the
    differences z - x_i.  None in the far field."""
    w, far = _weights(mimic, z)
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
        return ExplanationVector(
            query=z,
            gradient=np.zeros_like(z),
            predicted_probability=parzen_posterior_not(mimic, z, c),
            predicted_label=c,
            source="parzen-mimic",
            far_field=True,
        )
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


def mimic_to_dict(mimic: ParzenMimic) -> dict:
    return {
        "refs": mimic.ref_x.tolist(),
        "labels": mimic.ref_labels.tolist(),
        "sigma": mimic.sigma,
    }


def mimic_from_dict(obj: dict) -> ParzenMimic:
    return ParzenMimic(
        ref_x=np.asarray(obj["refs"], dtype=float),
        ref_labels=np.asarray(obj["labels"], dtype=int),
        sigma=float(obj["sigma"]),
    )


def save_mimic(mimic: ParzenMimic, path) -> None:
    with open(path, "w") as fh:
        json.dump(mimic_to_dict(mimic), fh, sort_keys=True)
        fh.write("\n")


def load_mimic(path) -> ParzenMimic:
    with open(path) as fh:
        return mimic_from_dict(json.load(fh))


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


def load_explanations(path):
    """Inverse of save_explanations."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header = rows[0]
    d = (len(header) - 4) // 2
    out = []
    for row in rows[1:]:
        if not row:
            continue
        out.append(
            ExplanationVector(
                query=np.array([float(v) for v in row[:d]]),
                gradient=np.array([float(v) for v in row[d : 2 * d]]),
                predicted_probability=float(row[2 * d]),
                predicted_label=int(row[2 * d + 1]),
                source=row[2 * d + 2],
                far_field=bool(int(row[2 * d + 3])),
            )
        )
    return out
