import tracemalloc

import numpy as np
import pytest

from localgrad.data import gen_three_clusters
from localgrad.mimic import (
    ParzenMimic,
    default_sigma_grid,
    explain_estimated,
    explain_with_fallback,
    hessian_direction,
    mimic_predict,
    parzen_hessian,
    parzen_posterior_not,
    save_explanations,
    select_width,
    smooth_gradients,
)
from oracles import (
    fd_gradient,
    fd_hessian,
    load_explanations,
    parzen_posterior_naive,
    select_width_bruteforce,
)


def random_mimic(rng, m=None, d=None, n_classes=2, sigma=None):
    m = m or int(rng.integers(5, 40))
    d = d or int(rng.integers(1, 6))
    X = rng.normal(size=(m, d))
    y = rng.integers(1, n_classes + 1, size=m)
    y[: n_classes] = np.arange(1, n_classes + 1)  # every class present
    sigma = sigma or float(rng.uniform(0.3, 2.0))
    return ParzenMimic(X, y, sigma)


# ---------------------------------------------------------------- densities


def test_posterior_midpoint_symmetric_pair():
    mm = ParzenMimic(np.array([[-1.0], [1.0]]), np.array([1, 2]), 0.8)
    assert 1 - parzen_posterior_not(mm, np.array([0.0]), 1) == pytest.approx(0.5, abs=1e-15)
    assert 1 - parzen_posterior_not(mm, np.array([0.0]), 2) == pytest.approx(0.5, abs=1e-15)


def test_posterior_at_reference_small_sigma():
    rng = np.random.default_rng(1)
    X = rng.normal(size=(12, 2))
    y = np.array([1, 2] * 6)
    spread = np.median(
        [np.linalg.norm(a - b) for a in X for b in X if not np.array_equal(a, b)]
    )
    mm = ParzenMimic(X, y, 0.01 * spread)
    for i in (0, 3, 7):
        assert 1 - parzen_posterior_not(mm, X[i], y[i]) > 0.999
        assert mimic_predict(mm, X[i]) == y[i]


def test_posterior_normalization_thousand_queries():
    rng = np.random.default_rng(2)
    mm = random_mimic(rng, m=25, d=4, n_classes=3)
    for _ in range(1000):
        x = rng.normal(scale=2.0, size=4)
        total = sum(1 - parzen_posterior_not(mm, x, c) for c in (1, 2, 3))
        assert abs(total - 1.0) < 1e-12


def test_posterior_matches_naive_ratio():
    rng = np.random.default_rng(3)
    mm = random_mimic(rng, m=20, d=2)
    for _ in range(40):
        x = rng.normal(scale=1.5, size=2)
        got = 1 - parzen_posterior_not(mm, x, 1)
        want = parzen_posterior_naive(mm.ref_x, mm.ref_labels, mm.sigma, x, 1)
        assert got == pytest.approx(want, rel=1e-12)


def test_two_class_complement_exact():
    rng = np.random.default_rng(4)
    mm = random_mimic(rng, m=15, d=3)
    for _ in range(50):
        x = rng.normal(scale=3.0, size=3)
        for c in (1, 2):
            other = 1 - parzen_posterior_not(mm, x, 3 - c)
            assert parzen_posterior_not(mm, x, c) == pytest.approx(other, abs=1e-15)


# ---------------------------------------------------------------- far field


def far_mimic():
    X = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    return ParzenMimic(X, np.array([1, 2, 2]), 0.01)


def test_far_field_detection():
    mm = far_mimic()
    assert not explain_estimated(mm, np.array([0.05, 0.05]), 1).far_field
    assert explain_estimated(mm, np.array([1e4, 1e4]), 1).far_field


def test_far_field_posterior_is_prior():
    mm = far_mimic()
    x = np.array([1e4, 1e4])
    assert 1 - parzen_posterior_not(mm, x, 1) == pytest.approx(1.0 / 3.0)
    assert 1 - parzen_posterior_not(mm, x, 2) == pytest.approx(2.0 / 3.0)


def test_far_field_predict_is_majority():
    mm = far_mimic()
    assert mimic_predict(mm, np.array([1e4, 1e4])) == 2
    # majority tie -> lower class id
    mm2 = ParzenMimic(np.array([[0.0], [1.0]]), np.array([1, 2]), 0.01)
    assert mimic_predict(mm2, np.array([1e6])) == 1


def test_far_field_explanation_zero_and_flagged():
    mm = far_mimic()
    ev = explain_estimated(mm, np.array([1e4, 1e4]), 1)
    assert ev.far_field is True
    assert np.array_equal(ev.gradient, np.zeros(2))
    assert ev.predicted_probability == pytest.approx(2.0 / 3.0)


# --------------------------------------------------------------- prediction


def test_predict_tie_goes_to_lower_class_id():
    mm = ParzenMimic(np.array([[-1.0], [1.0]]), np.array([2, 1]), 0.7)
    assert mimic_predict(mm, np.array([0.0])) == 1


def test_predict_is_argmax_of_naive_posterior():
    # an oracle apart from the shared decision rule, which select_width_bruteforce also calls
    rng = np.random.default_rng(5)
    for n_classes in (2, 3):
        for _ in range(20):
            mm = random_mimic(rng, n_classes=n_classes)
            for q in rng.normal(0, 1.5, size=(10, mm.ref_x.shape[1])):
                post = [
                    parzen_posterior_naive(mm.ref_x, mm.ref_labels, mm.sigma, q, c)
                    for c in mm.classes
                ]
                assert mimic_predict(mm, q) == mm.classes[int(np.argmax(post))]  # ties: lower id


@pytest.mark.parametrize("block_rows", [1, 7])
def test_mimic_predict_block_equals_point(monkeypatch, block_rows):
    # blocks of one row, and of 7 rows, which does not divide the 45 queries
    rng = np.random.default_rng(43)
    mm = random_mimic(rng, m=30, d=3, n_classes=3, sigma=0.6)
    queries = rng.normal(scale=1.5, size=(45, 3))
    queries[-3:] += 1e4  # far field: the majority class
    expected = [mimic_predict(mm, q) for q in queries]
    assert all(isinstance(label, int) for label in expected)
    monkeypatch.setattr("localgrad.data._BLOCK_ELEMENTS", block_rows * len(mm.ref_x))
    assert mimic_predict(mm, queries).tolist() == expected
    assert expected[-1] == mm.majority_class()


@pytest.mark.parametrize("seed", range(4))
def test_reference_order_changes_nothing(seed):
    # the mimic stores its references grouped by class; a permuted reference
    # set must give the same mimic up to the order each class sum is added in
    rng = np.random.default_rng(60 + seed)
    mm = random_mimic(rng, m=60, d=3, n_classes=3, sigma=0.5)
    perm = rng.permutation(60)
    X, y = mm.ref_x[perm], mm.ref_labels[perm]
    shuffled = ParzenMimic(X, y, mm.sigma)
    queries = rng.normal(scale=1.5, size=(40, 3))
    queries[-2:] += 1e4  # far field
    assert mimic_predict(shuffled, queries).tolist() == mimic_predict(mm, queries).tolist()
    grid = [0.1, 0.3, 0.6, 1.2]
    R, r = mm.ref_x, mm.ref_labels
    assert select_width(X, y, X, y, grid) == select_width(R, r, R, r, grid)
    probe_labels = mimic_predict(mm, queries)
    assert select_width(X, y, queries, probe_labels, grid) == select_width(R, r, queries, probe_labels, grid)
    for q in queries:
        for c in mm.classes:
            a, b = explain_estimated(mm, q, c), explain_estimated(shuffled, q, c)
            assert a.far_field == b.far_field
            assert abs(a.predicted_probability - b.predicted_probability) <= 1e-12
            assert np.allclose(a.gradient, b.gradient, rtol=0, atol=1e-12)
    assert [explain_estimated(mm, q, 1).far_field for q in queries[-2:]] == [True, True]


def test_label_no_reference_carries_is_an_error():
    # label 7 has no class sum in a {1, 2} mimic: unchecked, it reads p = 1 with a
    # zero gradient, or a Hessian-fallback direction made of rounding noise
    mm = ParzenMimic(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]), np.array([1, 2, 2]), 0.7)
    for z in (np.array([0.3, 0.2]), np.array([1e4, 1e4])):  # near and far field
        for call in (parzen_posterior_not, explain_estimated, parzen_hessian, explain_with_fallback):
            with pytest.raises(ValueError, match="label 7"):
                call(mm, z, 7)
    assert explain_estimated(mm, np.array([0.3, 0.2]), np.int64(2)).predicted_label == 2


# ------------------------------------------------------------ width choice


def test_select_width_single_candidate():
    mm_X = np.array([[0.0], [1.0]])
    y = np.array([1, 2])
    assert select_width(mm_X, y, mm_X, y, [0.37]) == 0.37


def test_select_width_rejects_nonpositive():
    X = np.array([[0.0], [1.0]])
    y = np.array([1, 2])
    with pytest.raises(ValueError):
        select_width(X, y, X, y, [-1.0, 0.0])


def test_select_width_oversmoothed_not_chosen():
    rng = np.random.default_rng(6)
    a = rng.normal([-2, 0], 0.4, size=(30, 2))
    b = rng.normal([2, 0], 0.4, size=(10, 2))
    X = np.vstack([a, b])
    y = np.array([1] * 30 + [2] * 10)
    spread = np.median(
        np.linalg.norm(X[:, None] - X[None, :], axis=2)[np.triu_indices(40, 1)]
    )
    picked = select_width(X, y, X, y, [0.01 * spread, spread, 100 * spread])
    assert picked != 100 * spread


def test_select_width_matches_bruteforce_loo():
    rng = np.random.default_rng(7)
    X = np.vstack(
        [rng.normal([-1, 0], 0.8, size=(12, 2)), rng.normal([1, 0], 0.8, size=(12, 2))]
    )
    y = np.array([1] * 12 + [2] * 12)
    grid = [0.15, 0.4, 0.9, 2.0]
    assert select_width(X, y, X, y, grid) == select_width_bruteforce(X, y, grid)
    X, y, grid = interleaved_set()
    assert select_width(X, y, X, y, grid) == select_width_bruteforce(X, y, grid) == 0.3


def test_select_width_tie_prefers_smaller():
    a = np.array([[-5.0, 0.0], [-5.2, 0.1], [-4.8, -0.1]])
    b = a + np.array([10.0, 0.0])
    X = np.vstack([a, b])
    y = np.array([1, 1, 1, 2, 2, 2])
    # both candidates classify every LOO probe correctly -> tie -> smaller
    assert select_width(X, y, X, y, [0.9, 0.5]) == 0.5


def test_select_width_with_external_probes():
    rng = np.random.default_rng(8)
    X = np.vstack(
        [rng.normal([-2, 0], 0.5, size=(15, 2)), rng.normal([2, 0], 0.5, size=(15, 2))]
    )
    y = np.array([1] * 15 + [2] * 15)
    probes = rng.normal(0, 2.5, size=(40, 2))
    probe_labels = np.where(probes[:, 0] < 0, 1, 2)
    grid = [0.2, 0.6, 1.5, 4.0]
    picked = select_width(X, y, probes, probe_labels, grid)
    assert picked == select_width_bruteforce(X, y, grid, probes, probe_labels)


def interleaved_set():
    """40 noisy points whose probes' own references sit elsewhere in the
    class-grouped order; only leaving them out keeps 0.02 from winning."""
    rng = np.random.default_rng(11)
    X = rng.normal(size=(40, 2))
    y = np.where(X[:, 0] > 0, 1, 2)
    y[rng.choice(40, 8, replace=False)] ^= 3  # swaps labels 1 and 2
    return X, y, [0.02, 0.3, 1.0, 3.0]


def near_tie_set():
    """At sigma=1 each class has one weight of 1 and five of 2^-53, so the
    class sums tie or not depending on the order they are added in."""
    s = np.array([1, 0, -1, 1, 0, 1, 1, 1, 1, -1, 1, 1], dtype=float)
    X = (s * np.sqrt(106 * np.log(2)))[:, None]
    y = np.array([1, 1, 2, 1, 2, 1, 2, 1, 2, 2, 2, 1])
    return X, y, [1.0, 1.001]


def test_select_width_near_tie_scores_the_mimic_it_returns():
    X, y, grid = near_tie_set()
    probes, probe_labels = np.array([[0.0]]), np.array([1])
    picked = select_width(X, y, probes, probe_labels, grid)
    assert picked == select_width_bruteforce(X, y, grid, probes, probe_labels)


@pytest.mark.parametrize("block_rows", [1, 7])
@pytest.mark.parametrize("make_set", [interleaved_set, near_tie_set])
def test_select_width_block_size_changes_nothing(monkeypatch, block_rows, make_set):
    # blocks of one row, and of 7 rows, which divides neither 40 nor 12
    X, y, grid = make_set()
    monkeypatch.setattr("localgrad.data._BLOCK_ELEMENTS", block_rows * len(X))
    assert select_width(X, y, X, y, grid) == select_width_bruteforce(X, y, grid)
    rng = np.random.default_rng(12)
    probes = rng.uniform(X.min(axis=0), X.max(axis=0), size=(23, X.shape[1]))
    probe_labels = rng.integers(1, 3, size=23)
    assert select_width(X, y, probes, probe_labels, grid) == select_width_bruteforce(
        X, y, grid, probes, probe_labels
    )


def test_default_sigma_grid_shape_and_span():
    rng = np.random.default_rng(9)
    pts = rng.normal(size=(20, 3))
    grid = default_sigma_grid(pts)
    assert len(grid) == 25
    assert grid[-1] / grid[0] == pytest.approx(1e4, rel=1e-9)
    d = np.linalg.norm(pts[:, None] - pts[None, :], axis=2)
    med = np.median(d[np.triu_indices(20, 1)])
    assert grid[0] == pytest.approx(1e-2 * med, rel=1e-12)


@pytest.mark.parametrize("n", [0, 1])
def test_default_sigma_grid_needs_two_points(n):
    with pytest.raises(ValueError, match="at least two points"):
        default_sigma_grid(np.zeros((n, 2)))


def test_default_sigma_grid_rejects_zero_median():
    # 8 of 10 points coincide: 28 of the 45 pairs are at distance 0
    X = np.vstack([np.zeros((8, 2)), [[1.0, 0.0], [0.0, 2.0]]])
    with pytest.raises(ValueError, match="median pairwise distance is 0.*--sigma"):
        default_sigma_grid(X)


def test_width_selection_memory_stays_quadratic():
    # an m x m x d difference tensor alone would take 69 MB here
    rng = np.random.default_rng(10)
    X = rng.normal(size=(600, 24))
    y = rng.integers(0, 2, size=600)
    tracemalloc.start()
    try:
        grid = default_sigma_grid(X)
        grid_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        select_width(X, y, X, y, grid)
        select_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert grid_peak < 25e6
    assert select_peak < 25e6


def test_width_selection_memory_grows_linearly():
    # two 2000 x 2000 float64 buffers alone would take 64 MB
    rng = np.random.default_rng(13)
    X = rng.normal(size=(2000, 6))
    y = rng.integers(0, 2, size=2000)
    grid = np.logspace(-1, 1, 25)
    tracemalloc.start()
    try:
        select_width(X, y, X, y, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6


# ------------------------------------------------------------- explanations


def test_explain_two_point_example():
    mm = ParzenMimic(np.array([[-1.0], [1.0]]), np.array([1, 2]), 1.0)
    ev = explain_estimated(mm, np.array([0.0]), 1)
    assert ev.gradient.shape == (1,)
    assert ev.gradient[0] > 0.0  # moving right raises p(not class 1)
    assert ev.source == "parzen-mimic"
    assert ev.predicted_label == 1
    # and for the other label the sign flips
    ev2 = explain_estimated(mm, np.array([0.0]), 2)
    assert ev2.gradient[0] == pytest.approx(-ev.gradient[0], rel=1e-12)


def test_explain_matches_finite_differences_many_configs():
    rng = np.random.default_rng(10)
    for _ in range(60):
        n_classes = int(rng.integers(2, 4))
        mm = random_mimic(rng, n_classes=n_classes)
        z = rng.normal(size=mm.ref_x.shape[1])
        c = int(rng.integers(1, n_classes + 1))
        ev = explain_estimated(mm, z, c)
        want = fd_gradient(lambda p: parzen_posterior_not(mm, p, c), z, step=1e-5)
        scale = max(np.linalg.norm(want), 1e-12)
        assert np.linalg.norm(ev.gradient - want) / scale < 1e-6


def test_explain_probability_is_complement_posterior():
    rng = np.random.default_rng(11)
    mm = random_mimic(rng, m=20, d=2)
    z = rng.normal(size=2)
    ev = explain_estimated(mm, z, 1)
    assert ev.predicted_probability == parzen_posterior_not(mm, z, 1)


def test_explain_symmetric_equidistant_is_zero():
    X = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    y = np.array([1, 1, 2, 2])
    mm = ParzenMimic(X, y, 0.9)
    ev = explain_estimated(mm, np.array([0.0, 0.0]), 1)
    assert np.linalg.norm(ev.gradient) < 1e-15


def test_explain_rescale_invariance_far_from_mass():
    # moderately remote query: individual weights are tiny but the
    # rescaled quotient must stay finite and match finite differences
    X = np.array([[0.0, 0.0], [0.4, 0.1], [-0.3, 0.2], [0.1, -0.4]])
    y = np.array([1, 2, 1, 2])
    mm = ParzenMimic(X, y, 0.05)
    z = np.array([1.7, 1.4])  # log-weights ~ -700: raw weights (sub)normal
    ev = explain_estimated(mm, z, 1)
    assert not ev.far_field
    assert np.all(np.isfinite(ev.gradient))
    assert np.linalg.norm(ev.gradient) > 0.0


# ------------------------------------------------------------------ hessian


def test_hessian_matches_finite_differences():
    rng = np.random.default_rng(12)
    for _ in range(25):
        mm = random_mimic(rng, m=15, d=int(rng.integers(1, 4)), sigma=1.0)
        z = rng.normal(scale=0.8, size=mm.ref_x.shape[1])
        H = parzen_hessian(mm, z, 1)
        want = fd_hessian(lambda p: parzen_posterior_not(mm, p, 1), z, step=1e-4)
        scale = max(np.linalg.norm(want), 1e-8)
        assert np.linalg.norm(H - want) / scale < 1e-4


def test_hessian_direction_three_clusters():
    data = gen_three_clusters(120, seed=3)
    mm = ParzenMimic(data.features, data.labels, 0.6)
    center = np.array([0.0, 0.0])
    ev = explain_estimated(mm, center, 2)
    assert np.linalg.norm(ev.gradient) < 1e-10  # stationary point
    direction, eigenvalue = hessian_direction(mm, center, 2)
    assert np.linalg.norm(direction) == pytest.approx(1.0, abs=1e-12)
    assert abs(direction @ np.array([1.0, 0.0])) > 0.9
    assert eigenvalue > 0.0


def test_hessian_direction_canonical_orientation():
    data = gen_three_clusters(120, seed=3)
    mm = ParzenMimic(data.features, data.labels, 0.6)
    direction, _ = hessian_direction(mm, np.zeros(2), 2)
    nonzero = np.flatnonzero(np.abs(direction) > 1e-9)
    assert direction[nonzero[0]] > 0


def test_hessian_degenerate_spectrum_isotropic_ring():
    # 8 references of the other class on a circle + one reference of the
    # queried class at the center: rotational symmetry forces an
    # isotropic second-order term (equal top eigenvalues)
    angles = np.linspace(0, 2 * np.pi, 8, endpoint=False)
    ring = np.column_stack([np.cos(angles), np.sin(angles)])
    X = np.vstack([[0.0, 0.0], ring])
    y = np.array([1] + [2] * 8)
    mm = ParzenMimic(X, y, 0.8)
    H = parzen_hessian(mm, np.zeros(2), 1)
    eigvals = np.linalg.eigvalsh(H)
    assert abs(eigvals[-1] - eigvals[-2]) < 1e-8 * max(abs(eigvals[-1]), 1e-30)


def test_hessian_direction_error_when_uninformative():
    mm = ParzenMimic(np.array([[0.0], [1.0]]), np.array([1, 1]), 1.0)
    with pytest.raises(ValueError, match="no informative direction"):
        hessian_direction(mm, np.array([0.5]), 1)


def test_fallback_triggers_at_stationary_point():
    data = gen_three_clusters(120, seed=4)
    mm = ParzenMimic(data.features, data.labels, 0.6)
    ev = explain_with_fallback(mm, np.zeros(2), 2, threshold=1e-6)
    assert ev.source == "hessian-fallback"
    assert np.linalg.norm(ev.gradient) == pytest.approx(1.0, abs=1e-12)


def test_fallback_leaves_normal_points_alone():
    data = gen_three_clusters(120, seed=4)
    mm = ParzenMimic(data.features, data.labels, 0.6)
    ev = explain_with_fallback(mm, np.array([1.0, 0.0]), 2, threshold=1e-6)
    assert ev.source == "parzen-mimic"


def test_fallback_respects_far_field():
    mm = far_mimic()
    ev = explain_with_fallback(mm, np.array([1e4, 1e4]), 1)
    assert ev.far_field is True
    assert ev.source == "parzen-mimic"
    assert np.array_equal(ev.gradient, np.zeros(2))


# ---------------------------------------------------------------- smoothing


def test_smoothing_singleton_windows_identity():
    queries = np.array([[0.0, 0.0], [5.0, 0.0], [0.0, 5.0]])
    grads = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
    out = smooth_gradients(queries, grads, 0.5)
    assert np.array_equal(out, grads)


def test_smoothing_global_window_is_mean():
    rng = np.random.default_rng(13)
    queries = rng.uniform(-1, 1, size=(12, 3))
    grads = rng.normal(size=(12, 3))
    out = smooth_gradients(queries, grads, 10.0)
    mean = grads.mean(axis=0)
    for row in out:
        np.testing.assert_allclose(row, mean, rtol=1e-12)


def test_smoothing_damps_single_outlier():
    queries = np.column_stack([np.linspace(0, 1, 11), np.zeros(11)])
    grads = np.tile([1.0, 0.0], (11, 1))
    grads[5] = [-9.0, 0.0]
    out = smooth_gradients(queries, grads, 2.0)
    consensus = np.array([1.0, 0.0])
    before = np.linalg.norm(grads[5] - consensus)
    after = np.linalg.norm(out[5] - consensus)
    assert before / after >= 5.0


# ------------------------------------------------------------ serialization


def test_explanations_csv_round_trip(tmp_path):
    rng = np.random.default_rng(15)
    mm = random_mimic(rng, m=20, d=2)
    evs = [explain_estimated(mm, rng.normal(size=2), 1) for _ in range(8)]
    evs.append(explain_estimated(mm, np.array([1e5, 1e5]), 1))  # far-field row
    path = tmp_path / "evs.csv"
    save_explanations(path, evs, feature_names=["u", "v"])
    back = load_explanations(path)
    assert len(back) == 9
    for orig, loaded in zip(evs, back):
        assert np.array_equal(orig.query, loaded.query)
        assert np.array_equal(orig.gradient, loaded.gradient)
        assert orig.predicted_probability == loaded.predicted_probability
        assert orig.predicted_label == loaded.predicted_label
        assert orig.source == loaded.source
        assert orig.far_field == loaded.far_field


def test_parzen_mimic_validation():
    with pytest.raises(ValueError):
        ParzenMimic(np.array([[0.0]]), np.array([1]), 0.0)
    with pytest.raises(ValueError):
        ParzenMimic(np.array([[0.0], [1.0]]), np.array([1]), 1.0)
