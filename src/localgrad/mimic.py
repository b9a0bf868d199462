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

With c the centre of the references' bounding box and P_in / P_out the weighted
sums of (x_i - c), V_c = S_c (z - c) - P_c, so z cancels between the classes:

    zeta(z) = (S_in * P_out - S_out * P_in) / (sigma^2 * T^2),

which needs no z - x_i.  Centring keeps the terms on the scale of the references'
spread, so a common shift of the data loses no digits.  But each product carries
about S_in * S_out * |z - c| and rounds at eps times that, while the two cancel to
the numerator: a row where that ratio exceeds 64, or whose numerator overflows, is
redone from the differences z - x_i, as the Hessian below is formed for flagged rows.

Where it vanishes, the explainer may fall back to the top eigenvector of the
Hessian, from the same weight pass.  With M_in / M_out the weighted sums of
(z - x_i)(z - x_i)' and V = V_in + V_out, differentiating p T = S_out twice
gives one identity, in which the quotient rule's I / sigma^2 terms cancel:

    H(z) = [(S_in * M_out - S_out * M_in) / (T * sigma^4) + (zeta V' + V zeta') / sigma^2] / T.

The explainer forms sigma^2 H, a positive multiple of H with the same top eigenvector,
which divides by T sigma^2 only: no sigma^4 appears.

Both are invariant under rescaling all weights by a common
factor, so they are evaluated with weights scaled by the largest one;
that keeps T^2 away from underflow without changing any result.

Far field: when even the largest Gaussian weight underflows to zero in
double precision, densities carry no information.  Such a row weighs every
reference by 1, so its class sums are the class counts: posteriors are 1 - the
class priors, predictions the majority class, explanation vectors zero, all flagged.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.spatial.distance import cdist

from . import data
from .data import ExplanationVector

# what _usable_width asks of a width, as its errors state it
_WIDTH_RULE = "with sigma**2 and m**2 * sigma**2 normal doubles"
# log of the smallest positive double: below this, exp() underflows to 0
_UNDERFLOW_LOG = float(np.log(np.finfo(float).smallest_subnormal))
# bit pattern of +inf: nonnegative doubles up to it sort as their uint64 patterns do
_INF_BITS = int(np.array(np.inf).view(np.uint64))
# bits of the patterns that one selection pass buckets by
_RADIX_BITS = 12
# the explainer redoes a row from direct differences where its centred products exceed
# its numerator by more than this; below it their rounding costs a few eps times it,
# about 2e-14 relative at worst on sets made to reach it
_CANCEL_RATIO = 2.0**6


@dataclass
class ParzenMimic:
    """Labeled reference set, stored grouped by class, plus kernel width.  Immutable once built."""

    ref_x: np.ndarray
    ref_labels: np.ndarray
    sigma: float

    def __post_init__(self):
        self.ref_x = data._points(self.ref_x, "ref_x")
        m = len(self.ref_x)
        self.ref_labels = data._integer_labels(self.ref_labels, m, "ref_labels", "ref_x")
        if not _usable_width(self.sigma, m):
            raise ValueError(f"sigma must be positive, {_WIDTH_RULE} for {m} references, got {self.sigma}")
        # grouped by class, stably: the rows of class classes[j] are class_slices[j]
        order = np.argsort(self.ref_labels, kind="stable")
        self.ref_x, self.ref_labels = self.ref_x[order], self.ref_labels[order]
        self.classes, self.class_counts = np.unique(self.ref_labels, return_counts=True)
        bounds = [0, *np.cumsum(self.class_counts).tolist()]
        self.class_slices = [slice(lo, hi) for lo, hi in zip(bounds, bounds[1:])]


def _usable_width(sigma, m: int) -> bool:
    """Whether sigma is positive (NaN is not) and everything the mimic of m references
    divides by is a normal double: sigma^2 (the weights) and sigma^2 T^2 with 1 <= T <= m
    (the gradients; sigma^2 H divides by T sigma^2)."""
    with np.errstate(over="ignore", under="ignore"):
        s2 = np.float_power(sigma, 2)
        return bool(sigma > 0 and np.finfo(float).tiny <= s2 and m * m * s2 < np.inf)


def _queries(mimic: ParzenMimic, x, c=None):
    """The queries x as a q x d block, whether x was one point, and, given labels c with one
    per row, each row's position in mimic.classes (else None); an unknown label is an error."""
    X, point = data._query_block(x, mimic.ref_x.shape[1])
    if c is None:
        return X, point, None
    c = np.asarray(c)
    if c.size != len(X):
        raise ValueError(f"expected one label per query, got {c.size} labels for {len(X)} queries")
    c = data._integers(c).reshape(len(X))
    unknown = c[~np.isin(c, mimic.classes)]
    if len(unknown):
        raise ValueError(f"label {unknown.min()} is carried by no reference of the mimic")
    return X, point, mimic.classes.searchsorted(c)


def _rescale(sq: np.ndarray, sigma, out: np.ndarray) -> np.ndarray:
    """Write into `out` the weights exp(-1/2 * sq / sigma^2) of rows of squared
    distances, each row divided by its largest one.  Returns the far-field mask: rows
    whose largest weight underflows carry no information and weigh every reference by 1.
    sigma is one width, or an array of widths broadcast on out's leading axes; each
    width's rows are then the bits of the call with that width alone."""
    np.multiply(sq, -0.5, out=out)
    # squared by C's pow, as float ** does; ** on an array would multiply,
    # which rounds about one width in 1000 to another last bit
    out /= np.float_power(sigma, 2)
    top = out.max(axis=-1)
    far = top < _UNDERFLOW_LOG
    top[far] = 0.0  # a row of infinite distances would take -inf - (-inf)
    out -= top[..., None]
    out[far] = 0.0
    np.exp(out, out=out)
    return far


def _weights(mimic: ParzenMimic, X):
    """Rescaled weights of the rows of X in place on one buffer, and the far-field mask."""
    w = cdist(X, mimic.ref_x, "sqeuclidean")
    return w, _rescale(w, mimic.sigma, out=w)


def _class_sums(class_slices, w: np.ndarray) -> np.ndarray:
    """Each row's class sums, one slice each: a row's sums do not depend on the block."""
    return np.array([w[:, s].sum(axis=1) for s in class_slices]).T


def _sums(mimic: ParzenMimic, X: np.ndarray) -> np.ndarray:
    """The q x k class sums of the rows of X, one row block at a time."""
    sums = np.empty((len(X), len(mimic.classes)))
    for block in data._row_blocks(len(X), len(mimic.ref_x)):
        sums[block] = _class_sums(mimic.class_slices, _weights(mimic, X[block])[0])
    return sums


def _relabel(mimic: ParzenMimic, X: np.ndarray, c: np.ndarray, p: np.ndarray) -> np.ndarray:
    """The mimic's labels of the rows of X, labelled c before, from their p(y != c) as
    parzen_posterior_not gives it.  A row keeps c unless another class sum is at least S_c, so
    p is at least 1/2 up to the rounding of the k-term total and of the quotient, which (k + 2) eps
    covers (ties go to the lower class id; far rows' sums are class counts): only rows with
    p >= 1/2 - (k + 2) eps go to one mimic_predict call, if there are any."""
    label, maybe = c.copy(), np.flatnonzero(p >= 0.5 - (len(mimic.classes) + 2) * np.finfo(float).eps)
    if len(maybe):
        label[maybe] = mimic_predict(mimic, X[maybe])
    return label


def parzen_posterior_not(mimic: ParzenMimic, x, c):
    """p(y != c | x): 1 - the class sum of c over the total of the class sums that
    mimic_predict compares, so 1 - the class prior in the far field.  A point x gives
    a float; the rows of a q x d block x, with a label each in c, give an array, one
    row block at a time: a row's value does not depend on its block."""
    X, point, j = _queries(mimic, x, c)
    sums = _sums(mimic, X)
    p = 1.0 - sums[np.arange(len(X)), j] / np.add.accumulate(sums, axis=1)[:, -1]  # total in class order
    return float(p[0]) if point else p


def mimic_predict(mimic: ParzenMimic, x):
    """Class with the largest class sum (ties: lower class id) at a point x
    (an int), or at each row of a q x d block x (an array), one row block
    at a time; in the far field, the majority class."""
    X, point, _ = _queries(mimic, x)
    pred = mimic.classes[np.argmax(_sums(mimic, X), axis=1)]
    return int(pred[0]) if point else pred


def select_width(ref_x, ref_labels, candidate_sigmas) -> float:
    """Pick sigma by leave-one-out agreement with g on the references.

    Each reference is scored by the mimic of the other references, bit for bit (its
    own weight is left out, or vanishing widths would win trivially).  The score of a
    candidate is the plain count of references where that mimic's prediction differs
    from the supplied g label (_width_counts); ties go to the smaller sigma.  Most
    scores at very small and very large widths are settled by bounds on the class sums
    that prove what that one rule decides, before a row's weights are formed."""
    mimic = ParzenMimic(ref_x, ref_labels, 1.0)  # the references; _width_counts takes the widths
    sigmas, m = sorted(map(float, candidate_sigmas)), len(mimic.ref_x)
    bad = [s for s in sigmas if not _usable_width(s, m)]
    if bad or not sigmas:
        raise ValueError(f"sigma candidates must be positive, {_WIDTH_RULE} for {m} references, got {bad or 'none'}")
    if m < 2:
        raise ValueError(f"leave-one-out width selection needs at least two references, got {m}")
    return sigmas[int(np.argmin(_width_counts(mimic, sigmas)))]  # first minimum: the smaller sigma


def _width_counts(mimic: ParzenMimic, sigmas) -> np.ndarray:
    """Per width of sigmas, the count of references whose leave-one-out label is not their
    own.  A class's references share the class slices of the others (this class's and every
    later one a row shorter): class by class, one row block at a time, every width on each
    block (_block_counts).  A class of one reference has an empty slice there, whose sum of
    0 never wins: near rows weigh another reference by 1, far rows count at least 1 in
    every other class."""
    X, m, sigmas = mimic.ref_x, len(mimic.ref_x), np.asarray(sigmas, dtype=float)
    counts = np.zeros(len(sigmas), dtype=int)
    for k, sl in enumerate(mimic.class_slices):
        others = [slice(t.start - (t.start > sl.start), t.stop - (t.stop > sl.start)) for t in mimic.class_slices]
        for block in data._row_blocks(sl.stop - sl.start, m):
            rows = np.arange(sl.start + block.start, sl.start + block.stop)
            counts += _block_counts(X, rows, others, k, sigmas)
    return counts


def _block_counts(X, rows, others, k, sigmas) -> np.ndarray:
    """Per width, the count of the rows of X, all of class k, whose leave-one-out label
    is not k.  Each class's nearest and farthest reference bound its class sum
    (_proven_labels); the (width, row) pairs whose label that proves are counted so, and
    the others are gathered, a block's worth at a time, into one buffer, rescaled with a
    width per row and labelled by the class sums as the mimic does, bit for bit.  Nothing
    of the block outlives the call."""
    m, n = len(X), np.array([t.stop - t.start for t in others])
    sq = cdist(X[rows], X, "sqeuclidean")
    sq = sq[np.arange(m) != rows[:, None]].reshape(len(rows), m - 1)  # in the others' order
    ext = np.empty((len(rows), 2, len(n)))
    for c, t in enumerate(others):
        part = sq[:, t] if n[c] else sq  # an empty class takes the row's: they keep its top
        part.min(axis=1, out=ext[:, 0, c])
        part.max(axis=1, out=ext[:, 1, c])
    counts = np.zeros(len(sigmas), dtype=int)
    for ws in data._row_blocks(len(sigmas), ext.size):
        label = _proven_labels(ext, n, sigmas[ws], m)
        counts[ws] += np.count_nonzero((label >= 0) & (label != k), axis=1)
        wi, ri = np.nonzero(label < 0)
        wi += ws.start
        chunks = data._row_blocks(len(ri), m - 1)
        buf = np.empty((chunks[0].stop if chunks else 0, m - 1))
        for p in chunks:
            w = np.take(sq, ri[p], axis=0, out=buf[: p.stop - p.start], mode="clip")  # "raise" would buffer a copy
            _rescale(w, sigmas[wi[p], None], out=w)
            wrong = np.argmax(_class_sums(others, w), axis=1) != k
            counts += np.bincount(wi[p][wrong], minlength=len(sigmas))
    return counts


def _proven_labels(ext, n, sigmas, m) -> np.ndarray:
    """Per width of sigmas (rows) and row of ext (columns), the class position that the
    mimic's argmax of the class sums must give, or -1 where the bounds prove none.

    ext holds each row's smallest and largest squared distance to each class's n_c
    references, so one _rescale gives every width's weights hi_c and lo_c of each class's
    nearest and farthest reference; the row's nearest reference is among them, so these
    are the bits of the row's full pass.  Each class sum lies near
        lower_c = max(n_c lo_c, 1 if hi_c == 1)  (a sum of nonnegative terms holding 1 is at least 1)
        upper_c = n_c hi_c (1 + delta),
    both 0 for an empty class.  A class whose lower bound exceeds every other's upper bound
    has the largest sum, which the argmax picks: delta = 4 m eps covers, for both sums at
    once, the rounding of m - 1 terms each (Higham 2002, section 4.2), of the products and
    ulp-level non-monotonicity of exp.  Subnormal weights, which relative margins miss,
    decide nothing: the class of the row's nearest reference sums to at least 1, so a
    proven class's lower bound is at least 1."""
    delta = 4 * m * np.finfo(float).eps
    w = np.empty((len(sigmas), *ext.shape))
    _rescale(ext.reshape(len(ext), -1), sigmas[:, None, None], out=w.reshape(len(sigmas), len(ext), -1))
    hi, lo = w[:, :, 0], w[:, :, 1]
    lower = np.maximum(n * lo, (hi == 1) & (n > 0))
    upper = n * hi * (1 + delta)
    beaten = np.count_nonzero(lower.max(axis=2, keepdims=True) > upper, axis=2)  # never the top class itself
    return np.where(beaten == len(n) - 1, lower.argmax(axis=2), -1)


def _pair_bits(points: np.ndarray):
    """The squared distances of the pairs i < j of points as uint64 bit patterns, one
    row block at a time; cdist gives each pair pdist's bits."""
    m = len(points)
    for block in data._row_blocks(m - 1, m):
        upper = np.arange(m - block.start - 1) >= np.arange(block.stop - block.start)[:, None]
        yield cdist(points[block], points[block.start + 1 :], "sqeuclidean")[upper].view(np.uint64)


def _middle_squared_distances(points: np.ndarray) -> np.ndarray:
    """The squared distances of ranks (N-1)//2 and N//2 among the N pairs i < j of points,
    selected exactly by radix (bucket) selection on their uint64 bit patterns, in passes
    over row blocks with no buffer of all N.  Each pass buckets the patterns inside a
    bracket by their next _RADIX_BITS bits, most significant first, and narrows the
    bracket to the bucket holding both ranks; once it holds a block's worth, one more pass
    gathers it for np.partition.  Buckets of single patterns give the values directly, and
    two adjacent ranks in two buckets are the largest pattern below the upper bucket and
    the smallest from it on, both found in one more pass."""
    n = len(points) * (len(points) - 1) // 2
    ranks = np.array([(n - 1) // 2, n // 2])  # within the bracket [lo, lo + width)
    lo, width, count = 0, _INF_BITS + 1, n
    while count > data._BLOCK_ELEMENTS:
        shift = max(0, (width - 1).bit_length() - _RADIX_BITS)
        hist = np.zeros(((width - 1) >> shift) + 1, dtype=int)
        for u in _pair_bits(points):
            u -= np.uint64(lo)  # patterns below lo wrap past every width
            u = u[u < width]
            u >>= shift
            hist += np.bincount(u.view(np.intp), minlength=len(hist))  # offsets below 2**_RADIX_BITS
        cum = np.cumsum(hist)
        b0, b1 = (int(b) for b in np.searchsorted(cum, ranks, side="right"))
        if shift == 0:
            return np.array([lo + b0, lo + b1], dtype=np.uint64).view(float)
        if b0 < b1:
            cut = np.uint64(lo + (b1 << shift))
            below, above = 0, _INF_BITS
            for u in _pair_bits(points):
                below = max(below, u.max(initial=0, where=u < cut))
                above = min(above, u.min(initial=_INF_BITS, where=u >= cut))
            return np.array([below, above], dtype=np.uint64).view(float)
        ranks -= cum[b0] - hist[b0]
        lo, width, count = lo + (b0 << shift), min(width - (b0 << shift), 1 << shift), int(hist[b0])
    inside = np.concatenate([u[u - np.uint64(lo) < width] for u in _pair_bits(points)])
    return np.partition(inside, ranks)[ranks].view(float)


def default_sigma_grid(points, span=(1e-2, 1e2)) -> np.ndarray:
    """25 log-spaced candidate widths over `span` times the median pairwise distance.

    The median is np.median's, bit for bit, with no buffer of all pairs: sqrt is
    monotone, so it is the mean of the roots of the two middle squared distances, which
    _middle_squared_distances selects in row blocks.  The points meet data._points' rule,
    and a median of 0 (more than half of the point pairs coincide) or of inf (the squared
    distances overflow) scales no grid and is an error.
    """
    points = data._points(points, "points")
    if len(points) < 2:
        raise ValueError(
            f"the sigma grid is scaled by a median pairwise distance, which needs at "
            f"least two points, got {len(points)}"
        )
    med = float(np.mean(np.sqrt(_middle_squared_distances(points))))
    if not 0 < med < np.inf:
        cause = "more than half of the point pairs coincide" if med == 0 else "the squared distances overflow"
        raise ValueError(
            f"the median pairwise distance is {med:g} ({cause}), so it cannot scale a "
            f"sigma grid; pass --sigma or --sigma-grid"
        )
    return med * np.logspace(np.log10(span[0]), np.log10(span[1]), 25)


def _centred(mimic: ParzenMimic):
    """The centre of the references' bounding box, halved before adding so that no sum
    overflows, and the references less it, transposed (d x m); no difference overflows."""
    centre = mimic.ref_x.min(axis=0) / 2 + mimic.ref_x.max(axis=0) / 2
    return centre, (mimic.ref_x - centre).T.copy()


def _explain_rows(mimic: ParzenMimic, X: np.ndarray, j: np.ndarray, centre, centred, hessian_threshold):
    """The explanation quotient at each row of X for the class mimic.classes[j], the far-field
    mask, and given a threshold, the near rows whose quotient's norm is below it and sigma^2
    times their Hessians (None if there are none), from one weight pass.  centred holds the references
    less centre, transposed (d x m), as _centred makes them; each class's P_c is one einsum
    of the weights of its slice with it, so the chunk holds no differences.  Rows whose
    quotient the centring could blur are redone from their direct differences.  Far rows are
    neither redone nor flagged, and their quotient is 0.  A row's result does not depend on
    the others."""
    w, far = _weights(mimic, X)
    s_in, s_out = _in_out(_class_sums(mimic.class_slices, w), j)
    # each product carries about S_in S_out |z - centre| and rounds at eps times that, while
    # they cancel to |num|: a row whose ratio exceeds _CANCEL_RATIO, or whose numerator
    # overflowed, is redone from z - x_i (and then has the bits of that direct form)
    with np.errstate(over="ignore", invalid="ignore"):
        p = np.stack([np.einsum("ri,di->rd", w[:, s], centred[:, s]) for s in mimic.class_slices], axis=1)
        p_in, p_out = _in_out(p, j)
        num = s_in[:, None] * p_out - s_out[:, None] * p_in
        size = np.abs(num).max(axis=1)
        kept = (s_in * s_out * np.abs(X - centre).max(axis=1) <= _CANCEL_RATIO * size) & (size < np.inf)
    redo = np.flatnonzero(~far & ~kept)
    for b in data._row_blocks(len(redo), mimic.ref_x.size):
        num[redo[b]] = _direct_numerators(mimic, redo[b], X, w, j, s_in, s_out)
    den = mimic.sigma**2 * (s_in + s_out) ** 2
    zeta = np.divide(num, den[:, None], out=np.zeros_like(num), where=~far[:, None])
    if hessian_threshold is None:
        return zeta, far, (), None
    f = np.flatnonzero(~far & (np.linalg.norm(zeta, axis=1) < hessian_threshold))
    # the flagged rows go in blocks of their own, each holding their differences and
    # weighted differences (2 m d numbers a row), freed before the next block's
    blocks = data._row_blocks(len(f), 2 * mimic.ref_x.size)
    hess = np.concatenate([_hessians(mimic, f[b], X, w, j, s_in, s_out, zeta) for b in blocks]) if len(f) else None
    return zeta, far, f, hess


def _in_out(stack: np.ndarray, j: np.ndarray):
    """Of a stack with one entry per row (axis 0) and class (axis 1), each row's entry for
    its class j and the sum of its entries for the other classes."""
    other = np.arange(stack.shape[1]) != j[:, None]
    other = other.reshape(other.shape + (1,) * (stack.ndim - 2))  # broadcast over each entry
    return stack[np.arange(len(j)), j], (stack * other).sum(axis=1)


def _direct_numerators(mimic: ParzenMimic, rows, X, w, j, s_in, s_out) -> np.ndarray:
    """S_out V_in - S_in V_out at the given rows of a chunk of rows X, from their direct
    differences; each class's V_c is one einsum over its slice."""
    diff, w = data._differences(X[rows], mimic.ref_x), w[rows]
    v = np.stack([np.einsum("ri,rid->rd", w[:, s], diff[:, s]) for s in mimic.class_slices], axis=1)
    v_in, v_out = _in_out(v, j[rows])
    return s_out[rows, None] * v_in - s_in[rows, None] * v_out


def _hessians(mimic: ParzenMimic, rows, X, w, j, s_in, s_out, zeta) -> np.ndarray:
    """sigma^2 times the module docstring's H at the given rows of a chunk of rows X, weights
    w, labels j, class sums s_in / s_out and gradients zeta, from their direct differences
    d_i = z - x_i.  M_c is one batched matmul of the weighted w_i d_i with the d_i per class
    slice, and V the sum of the weighted differences."""
    diff = data._differences(X[rows], mimic.ref_x)
    # a copy multiplied in place: a product broadcast along the last axis
    # would also take ufunc buffers beside the differences
    wd = np.repeat(w[rows, :, None], mimic.ref_x.shape[1], axis=2)
    wd *= diff
    mc = np.stack([np.matmul(wd[:, s].transpose(0, 2, 1), diff[:, s]) for s in mimic.class_slices], 1)
    m_in, m_out = _in_out(mc, j[rows])
    s_in, s_out = s_in[rows, None, None], s_out[rows, None, None]
    zv, t = zeta[rows, :, None] * wd.sum(axis=1)[:, None, :], s_in + s_out
    return ((s_in * m_out - s_out * m_in) / (t * mimic.sigma**2) + zv + zv.transpose(0, 2, 1)) / t


def _top_directions(hess: np.ndarray):
    """Top eigenvector (its first component with |v| > 1e-9 made positive) of each
    Hessian of a stack, and the mask of those of nonzero norm."""
    vec = np.linalg.eigh(hess)[1][:, :, -1]
    first = np.take_along_axis(vec, np.argmax(np.abs(vec) > 1e-9, axis=1)[:, None], axis=1)
    return np.where(first < 0, -vec, vec), np.linalg.norm(hess, axis=(1, 2)) > 0.0


def explain_mimic(mimic: ParzenMimic, z, g_label, hessian_threshold=None) -> ExplanationVector:
    """Estimated explanation vector at a point z for the class g assigns it;
    for a q x d block z with one label per row, one block record whose
    columns hold q rows, one row chunk at a time.  A row's result does not
    depend on its chunk, so a point is row 0 of the one-row block.

    A positive component means increasing that feature increases the
    mimic's probability that the label differs from g_label.  In the far
    field the gradient is identically zero and flagged.  With a positive
    hessian_threshold, a row whose gradient norm falls below it takes the
    Hessian direction instead, from the same weight pass, with source
    "hessian-fallback"; far-field rows, and rows whose Hessian is zero, keep
    their gradient.
    """
    X, point, j = _queries(mimic, z, g_label)
    if hessian_threshold is not None and not hessian_threshold > 0:  # NaN too
        raise ValueError(f"hessian_threshold must be positive, got {hessian_threshold}")
    gradient, far, fallback = np.empty_like(X), np.empty(len(X), dtype=bool), np.zeros(len(X), dtype=bool)
    centre, centred = _centred(mimic)
    for rows in data._row_blocks(len(X), len(mimic.ref_x)):
        gradient[rows], far[rows], flagged, hess = _explain_rows(
            mimic, X[rows], j[rows], centre, centred, hessian_threshold
        )
        if hess is not None:
            direction, informative = _top_directions(hess)
            taken = rows.start + flagged[informative]
            gradient[taken], fallback[taken] = direction[informative], True
    labels = mimic.classes[j]
    source = np.where(fallback, "hessian-fallback", "parzen-mimic")
    evs = ExplanationVector(X, gradient, parzen_posterior_not(mimic, X, labels), labels, source, far)
    return evs.row(0) if point else evs


def smooth_gradients(queries, gradients, window_halfwidth: float) -> np.ndarray:
    """Sliding-hypercube smoothing of a gradient field.

    Each output is the mean of all gradients whose query lies within the
    axis-aligned cube of the given halfwidth centered at that query (the
    point itself always included): a closed max-norm ball.  The queries
    must be finite.  Each row block's Chebyshev distances to every query
    (data._row_blocks(q, q)) give its cubes' members in column order.
    """
    Q = data._points(np.atleast_2d(queries), "queries")
    G = np.atleast_2d(np.asarray(gradients, dtype=float))
    if G.shape != Q.shape:
        raise ValueError(f"gradients must have the queries' shape {Q.shape}, got {G.shape}")
    if not window_halfwidth > 0:
        raise ValueError("window halfwidth must be positive")
    q = len(Q)
    n, cols = np.empty(q, dtype=np.intp), []
    for b in data._row_blocks(q, q):
        cube = cdist(Q[b], Q, "chebyshev") <= window_halfwidth
        n[b] = np.count_nonzero(cube, axis=1)
        cols.append(np.flatnonzero(cube) % q)
    cols = np.concatenate(cols)
    if G.shape[1] == 1:  # the mean of one column sums it pairwise, not row by row
        return np.array([G[rows].mean(axis=0) for rows in np.split(cols, np.cumsum(n[:-1]))]).reshape(G.shape)
    # CSR adds each row's members to 0 in column order, as mean(axis=0) adds a cube's rows
    out = sparse.csr_array((np.ones(len(cols)), cols, np.r_[0, np.cumsum(n)]), shape=(q, q)) @ G
    out /= n[:, None]
    return out


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def save_explanations(path, ev: ExplanationVector, feature_names) -> None:
    """Write a block record as CSV: query coords, gradient coords, predicted
    probability, label, source, far-field flag, in data's table format."""
    if ev.query.ndim != 2 or not len(ev.query):
        raise ValueError("nothing to save: expected a block record with at least one row")
    d = ev.query.shape[1]
    if len(feature_names) != d:
        raise ValueError(f"expected {d} feature names")
    names = list(feature_names)
    header = names + [f"grad_{name}" for name in names] + ["probability", "label", "source", "far_field"]
    block = [ev.query, ev.gradient, ev.predicted_probability, ev.predicted_label, ev.source, ev.far_field]
    data._write_table(path, header, [block])
