import numpy as np
import pytest

from localgrad.analysis import (
    HistogramSpec,
    compare_groups,
    default_histogram_spec,
    histogram,
    ks_two_sample,
    rank_features,
    roc_auc,
    save_histogram_csv,
    save_ranking_csv,
    sym_kld,
)
from localgrad.data import ExplanationVector
from oracles import auc_pairwise, ecdf_distance, kld_two_terms, rebin_naive


def make_evs(gradients):
    G = np.asarray(gradients, dtype=float)
    return [
        ExplanationVector(
            query=np.zeros(G.shape[1]),
            gradient=g,
            predicted_probability=0.5,
            predicted_label=1,
            source="parzen-mimic",
        )
        for g in G
    ]


# ------------------------------------------------------------------ ranking


def test_rank_all_zero_gradients_index_order():
    evs = make_evs(np.zeros((5, 4)))
    ranking = rank_features(evs, ["a", "b", "c", "d"])
    assert np.array_equal(ranking.mean_gradient, np.zeros(4))
    assert list(ranking.rank) == [1, 2, 3, 4]


def test_rank_orders_by_descending_mean():
    evs = make_evs([[1.0, -2.0, 0.5], [3.0, -4.0, 0.5]])
    ranking = rank_features(evs, ["x", "y", "z"])
    np.testing.assert_allclose(ranking.mean_gradient, [2.0, -3.0, 0.5])
    assert list(ranking.rank) == [1, 3, 2]
    assert [t[0] for t in ranking.ordered()] == ["x", "z", "y"]


def test_rank_tie_prefers_lower_index():
    evs = make_evs([[1.0, 2.0, 2.0, -1.0]])
    ranking = rank_features(evs, ["a", "b", "c", "d"])
    assert list(ranking.rank) == [3, 1, 2, 4]


def test_rank_invariant_under_positive_rescale():
    rng = np.random.default_rng(0)
    G = rng.normal(size=(20, 6))
    r1 = rank_features(make_evs(G), list("abcdef"))
    r2 = rank_features(make_evs(G * 7.5), list("abcdef"))
    assert np.array_equal(r1.rank, r2.rank)


def test_rank_validation():
    with pytest.raises(ValueError):
        rank_features([], ["a"])
    with pytest.raises(ValueError):
        rank_features(make_evs([[1.0, 2.0]]), ["only-one"])


# --------------------------------------------------------------- histograms


def test_histogram_bin_centers_one_each():
    spec = HistogramSpec(bin_count=10, lo=0.0, hi=1.0)
    centers = (spec.edges()[:-1] + spec.edges()[1:]) / 2
    counts, clipped = histogram(centers, spec)
    assert np.array_equal(counts, np.ones(10, dtype=int))
    assert clipped == 0


def test_histogram_conservation_and_clipping():
    spec = HistogramSpec(bin_count=5, lo=-1.0, hi=1.0)
    values = np.array([-5.0, -0.9, 0.0, 0.2, 0.9, 7.0, 1.0])
    counts, clipped = histogram(values, spec)
    assert counts.sum() == len(values)
    assert clipped == 2
    assert counts[0] >= 1 and counts[-1] >= 2  # clipped mass lands in edge bins


def test_histogram_matches_naive_rebinning():
    rng = np.random.default_rng(1)
    for _ in range(20):
        spec = HistogramSpec(
            bin_count=int(rng.integers(2, 40)),
            lo=float(rng.uniform(-3, 0)),
            hi=float(rng.uniform(0.5, 3)),
        )
        values = rng.normal(scale=2.0, size=200)
        counts, clipped = histogram(values, spec)
        want_counts, want_clipped = rebin_naive(values, spec.lo, spec.hi, spec.bin_count)
        assert np.array_equal(counts, want_counts)
        assert clipped == want_clipped


def test_default_histogram_spec_window():
    rng = np.random.default_rng(2)
    v = rng.normal(3.0, 2.0, size=500)
    spec = default_histogram_spec(v)
    assert spec.bin_count == 30
    assert spec.lo == pytest.approx(v.mean() - 4 * v.std())
    assert spec.hi == pytest.approx(v.mean() + 4 * v.std())


def test_default_histogram_spec_zero_spread():
    spec = default_histogram_spec(np.full(10, 2.0))
    assert spec.lo < 2.0 < spec.hi


def test_histogram_spec_validation():
    with pytest.raises(ValueError):
        HistogramSpec(bin_count=1, lo=0.0, hi=1.0)
    with pytest.raises(ValueError):
        HistogramSpec(bin_count=5, lo=1.0, hi=1.0)
    with pytest.raises(ValueError):
        HistogramSpec(bin_count=5, lo=0.0, hi=1.0, epsilon=0.0)


# -------------------------------------------------------------------- tests


def test_ks_identical_samples():
    a = np.array([0.1, 0.5, 0.9, 1.4])
    d, p = ks_two_sample(a, a.copy())
    assert d == 0.0
    assert p == 1.0


def test_ks_disjoint_supports():
    a = np.linspace(0, 1, 20)
    d, p = ks_two_sample(a, a + 10.0)
    assert d == 1.0
    assert p < 1e-6


def test_ks_statistic_matches_ecdf_oracle():
    rng = np.random.default_rng(3)
    for _ in range(30):
        a = rng.normal(size=int(rng.integers(5, 60)))
        b = rng.normal(loc=rng.uniform(-1, 1), size=int(rng.integers(5, 60)))
        d, _ = ks_two_sample(a, b)
        assert d == pytest.approx(ecdf_distance(a, b), abs=1e-12)
        assert 0.0 <= d <= 1.0


def test_ks_symmetric_in_arguments():
    rng = np.random.default_rng(4)
    a = rng.normal(size=30)
    b = rng.normal(size=45)
    assert ks_two_sample(a, b) == ks_two_sample(b, a)


def test_ks_p_value_monotone_in_shift():
    rng = np.random.default_rng(5)
    a = rng.normal(size=50)
    ps = []
    for shift in (0.0, 0.5, 1.5):
        b = rng.normal(size=50) + shift
        ps.append(ks_two_sample(a, b)[1])
    assert ps[0] > ps[2]
    assert ps[1] > ps[2]
    assert all(0.0 <= p <= 1.0 for p in ps)


def test_ks_p_value_large_interleaved_samples():
    # D = 1e-5 at n_eff = 5e4, so lambda ~ 0.002, deep in the p = 1 regime
    from scipy.stats import ks_2samp

    a = np.arange(0.0, 2e5, 2.0)
    b = a + 1.0
    d, p = ks_two_sample(a, b)
    ref = ks_2samp(a, b)
    assert d == pytest.approx(ref.statistic, abs=1e-12)
    assert p == pytest.approx(ref.pvalue, abs=1e-9)
    assert p == pytest.approx(1.0, abs=1e-9)


# --------------------------------------------------------------------- kld


def test_kld_identical_histograms_zero():
    h = np.array([3, 1, 4, 1, 5])
    assert sym_kld(h, h, epsilon=1.0) == 0.0


def test_kld_symmetry():
    rng = np.random.default_rng(6)
    for _ in range(20):
        a = rng.integers(0, 50, size=12)
        b = rng.integers(0, 50, size=12)
        assert abs(sym_kld(a, b, 1.0) - sym_kld(b, a, 1.0)) < 1e-12


def test_kld_matches_two_term_oracle():
    rng = np.random.default_rng(7)
    for _ in range(20):
        a = rng.integers(0, 30, size=8)
        b = rng.integers(0, 30, size=8)
        eps = float(rng.uniform(0.5, 2.0))
        assert sym_kld(a, b, eps) == pytest.approx(kld_two_terms(a, b, eps), rel=1e-12)


def test_kld_positive_for_different_histograms():
    a = np.array([10, 0, 0])
    b = np.array([0, 0, 10])
    assert sym_kld(a, b, 1.0) > 0.1


# ------------------------------------------------------------------- groups


def test_compare_groups_duplicate_set():
    rng = np.random.default_rng(8)
    G = rng.normal(size=(15, 3))
    evs = make_evs(np.vstack([G, G]))
    mask = np.array([True] * 15 + [False] * 15)
    spec = default_histogram_spec(G[:, 0])
    cmp = compare_groups(evs, feature=0, group_mask=mask, spec=spec)
    assert cmp.ks_statistic == 0.0
    assert cmp.kld == 0.0
    assert cmp.p_value == 1.0
    assert np.array_equal(cmp.hist_in, cmp.hist_out)


def test_compare_groups_detects_shift():
    rng = np.random.default_rng(9)
    inside = rng.normal(2.0, 0.5, size=(40, 2))
    outside = rng.normal(-2.0, 0.5, size=(40, 2))
    evs = make_evs(np.vstack([inside, outside]))
    mask = np.array([True] * 40 + [False] * 40)
    spec = default_histogram_spec(np.vstack([inside, outside])[:, 1])
    cmp = compare_groups(evs, feature=1, group_mask=mask, spec=spec)
    assert cmp.p_value < 1e-6
    assert cmp.kld > 0.5
    assert cmp.hist_in.sum() == 40 and cmp.hist_out.sum() == 40


def test_compare_groups_validation():
    evs = make_evs(np.zeros((4, 2)))
    spec = HistogramSpec(5, -1, 1)
    with pytest.raises(ValueError):
        compare_groups(evs, 0, np.array([True] * 4), spec)
    with pytest.raises(ValueError):
        compare_groups(evs, 0, np.array([False] * 4), spec)
    with pytest.raises(ValueError):
        compare_groups(evs, 0, np.array([True, False]), spec)


# --------------------------------------------------------------------- auc


def test_auc_perfect_and_reversed():
    labels = np.array([0, 0, 1, 1])
    assert roc_auc(labels, np.array([0.1, 0.2, 0.8, 0.9])) == 1.0
    assert roc_auc(labels, np.array([0.9, 0.8, 0.2, 0.1])) == 0.0


def test_auc_matches_pairwise_oracle_with_ties():
    rng = np.random.default_rng(10)
    for _ in range(25):
        n = int(rng.integers(6, 40))
        labels = rng.integers(0, 2, size=n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        scores = np.round(rng.normal(size=n), 1)  # rounding forces ties
        assert roc_auc(labels, scores) == pytest.approx(
            auc_pairwise(labels, scores), abs=1e-12
        )


def test_auc_of_constant_scores_is_half():
    labels = np.array([0, 1, 0, 1, 1])
    assert roc_auc(labels, np.full(5, 0.3)) == pytest.approx(0.5)


# ----------------------------------------------------------------- exports


def test_ranking_csv_round_trip(tmp_path):
    evs = make_evs([[1.0, -2.0, 0.5], [3.0, -4.0, 0.5]])
    ranking = rank_features(evs, ["x", "y", "z"])
    path = tmp_path / "rank.csv"
    save_ranking_csv(ranking, path)
    lines = path.read_text().strip().split("\n")
    assert lines[0].split(",") == ["feature", "mean_gradient", "rank"]
    assert lines[1].split(",")[0] == "x"  # rank 1 row first
    assert lines[3].split(",")[0] == "y"


def test_histogram_csv_has_clipped_row(tmp_path):
    spec = HistogramSpec(4, 0.0, 1.0)
    counts, clipped = histogram(np.array([-1.0, 0.1, 0.5, 2.0]), spec)
    path = tmp_path / "hist.csv"
    save_histogram_csv(spec, counts, path, clipped=clipped)
    text = path.read_text().strip().split("\n")
    assert len(text) == 1 + 4 + 1  # header + bins + clipped summary
    assert text[-1].startswith("clipped")
    assert text[-1].endswith("2")
