"""Population-level analysis of per-instance explanations: feature
ranking by mean gradient, per-feature histograms, and group-difference
statistics (two-sample KS, symmetrized KLD)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import kolmogorov
from scipy.stats import rankdata

from . import data


@dataclass
class FeatureRanking:
    feature_names: list
    mean_gradient: np.ndarray
    rank: np.ndarray  # rank[j] of feature j; 1 = largest mean

    def ordered(self):
        """(name, mean, rank) triples from rank 1 to rank d."""
        order = np.argsort(self.rank)
        return [
            (self.feature_names[j], float(self.mean_gradient[j]), int(self.rank[j]))
            for j in order
        ]


@dataclass(frozen=True)
class HistogramSpec:
    bin_count: int
    lo: float
    hi: float
    epsilon: float = 1.0

    def __post_init__(self):
        if self.bin_count < 2:
            raise ValueError("need at least 2 bins")
        if not self.lo < self.hi:
            raise ValueError(f"degenerate range [{self.lo}, {self.hi}]")
        if not self.epsilon > 0:
            raise ValueError("epsilon must be positive")

    def edges(self) -> np.ndarray:
        return np.linspace(self.lo, self.hi, self.bin_count + 1)


def default_histogram_spec(values, bin_count: int = 30, epsilon: float = 1.0) -> HistogramSpec:
    """30 bins spanning mean +- 4 standard deviations of the pooled values."""
    v = np.asarray(values, dtype=float)
    mu, sd = float(v.mean()), float(v.std())
    if sd <= 0:
        sd = max(abs(mu), 1.0) * 1e-3
    return HistogramSpec(bin_count, mu - 4 * sd, mu + 4 * sd, epsilon)


def rank_features(explanations, names) -> FeatureRanking:
    """Rank features by the mean of their gradient components over the rows
    of a block record, descending; ties go to the lower feature index."""
    G = explanations.gradient
    if not len(G):
        raise ValueError("no explanations to rank")
    d = G.shape[1]
    if len(names) != d:
        raise ValueError(f"expected {d} feature names")
    means = G.mean(axis=0)
    order = np.lexsort((np.arange(d), -means))
    rank = np.empty(d, dtype=int)
    rank[order] = np.arange(1, d + 1)
    return FeatureRanking(list(names), means, rank)


def histogram(values, spec: HistogramSpec):
    """Bin counts (left-closed bins, final bin closed) plus the number of
    out-of-range values, which are clipped into the boundary bins."""
    v = np.asarray(values, dtype=float)
    clipped = int(np.sum((v < spec.lo) | (v > spec.hi)))
    counts, _ = np.histogram(np.clip(v, spec.lo, spec.hi), bins=spec.edges())
    return counts, clipped


def _ecdf_distance(a, b) -> float:
    a = np.sort(np.asarray(a, dtype=float))
    b = np.sort(np.asarray(b, dtype=float))
    pooled = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, pooled, side="right") / len(a)
    cdf_b = np.searchsorted(b, pooled, side="right") / len(b)
    return float(np.max(np.abs(cdf_a - cdf_b)))


def ks_two_sample(a, b):
    """Two-sample Kolmogorov-Smirnov test.

    Returns (D, p).  D is the sup distance between the two empirical
    CDFs; p is the survival function of the asymptotic Kolmogorov
    distribution (`scipy.special.kolmogorov`) at
    sqrt(n_eff) * D with effective size n_eff = n_a*n_b/(n_a+n_b)
    (tracks a permutation test to a few permille already at n = 50).
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if len(a) == 0 or len(b) == 0:
        raise ValueError("both samples must be nonempty")
    d = _ecdf_distance(a, b)
    n_eff = len(a) * len(b) / (len(a) + len(b))
    return d, float(kolmogorov(np.sqrt(n_eff) * d))


def sym_kld(hist_a, hist_b, epsilon: float) -> float:
    """Symmetrized KL divergence of two equally binned histograms, with
    epsilon added to every bin count before normalizing."""
    pa = np.asarray(hist_a, dtype=float)
    pb = np.asarray(hist_b, dtype=float)
    if pa.shape != pb.shape:
        raise ValueError("histograms must share their binning")
    if not epsilon > 0:
        raise ValueError("epsilon must be positive")
    pa = (pa + epsilon) / (pa + epsilon).sum()
    pb = (pb + epsilon) / (pb + epsilon).sum()
    kl_ab = float(np.sum(pa * np.log(pa / pb)))
    kl_ba = float(np.sum(pb * np.log(pb / pa)))
    return 0.5 * (kl_ab + kl_ba)


@dataclass
class GroupComparison:
    hist_in: np.ndarray
    hist_out: np.ndarray
    clipped_in: int
    clipped_out: int
    ks_statistic: float
    p_value: float
    kld: float


def compare_groups(explanations, feature: int, group_mask, spec: HistogramSpec) -> GroupComparison:
    """Compare one feature's gradient components between the rows of a block
    record inside and outside a group."""
    values = explanations.gradient[:, feature]
    mask = np.asarray(group_mask, dtype=bool)
    if len(mask) != len(values):
        raise ValueError("mask length must match the number of explanations")
    if mask.all() or not mask.any():
        raise ValueError("group mask must split the set into two nonempty parts")
    hist_in, clip_in = histogram(values[mask], spec)
    hist_out, clip_out = histogram(values[~mask], spec)
    d, p = ks_two_sample(values[mask], values[~mask])
    return GroupComparison(
        hist_in=hist_in,
        hist_out=hist_out,
        clipped_in=clip_in,
        clipped_out=clip_out,
        ks_statistic=d,
        p_value=p,
        kld=sym_kld(hist_in, hist_out, spec.epsilon),
    )


def roc_auc(labels, scores) -> float:
    """Area under the ROC curve via the rank statistic; labels are
    {-1,+1} or {0,1}, ties in scores get averaged ranks."""
    y = np.asarray(labels)
    pos = y == y.max()
    n_pos, n_neg = int(pos.sum()), int((~pos).sum())
    if n_pos == 0 or n_neg == 0:
        raise ValueError("need both classes for AUC")
    ranks = rankdata(np.asarray(scores, dtype=float), method="average")
    return float((ranks[pos].sum() - n_pos * (n_pos + 1) / 2) / (n_pos * n_neg))


# ---------------------------------------------------------------------------
# exports
# ---------------------------------------------------------------------------


def save_ranking_csv(ranking: FeatureRanking, path) -> None:
    names, means, ranks = zip(*ranking.ordered())
    data._write_table(path, ["feature", "mean_gradient", "rank"], [(names, means, ranks)])


def save_histogram_csv(spec: HistogramSpec, counts, path, clipped: int = 0) -> None:
    edges = spec.edges()
    blocks = [(edges[:-1], edges[1:], counts), (["clipped"], [""], [clipped])]
    data._write_table(path, ["bin_lo", "bin_hi", "count"], blocks)


def comparison_to_dict(cmp: GroupComparison) -> dict:
    return {
        "ks_statistic": cmp.ks_statistic,
        "p_value": cmp.p_value,
        "sym_kld": cmp.kld,
        "hist_in": [int(c) for c in cmp.hist_in],
        "hist_out": [int(c) for c in cmp.hist_out],
        "clipped_in": cmp.clipped_in,
        "clipped_out": cmp.clipped_out,
    }
