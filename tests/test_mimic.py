import functools
import re
import warnings

import numpy as np
import pytest

from localgrad import mimic as mimicmod
from localgrad.data import gen_three_clusters
from localgrad.mimic import (
    ParzenMimic,
    _middle_squared_distances,
    _width_counts,
    default_sigma_grid,
    explain_mimic,
    mimic_predict,
    parzen_posterior_not,
    save_explanations,
    select_width,
    smooth_gradients,
)
from oracles import (
    assert_same_point_record,
    fd_gradient,
    fd_hessian,
    load_explanations,
    parzen_explanation_masked,
    parzen_hessian_mp,
    parzen_posterior_naive,
    select_width_bruteforce,
    sigma_grid_pdist,
    smooth_gradients_bruteforce,
)


# what the mimic asks of a width, as its errors state it
RULE = "with sigma**2 and m**2 * sigma**2 normal doubles"


def chunk_hessian(mm, z, c):
    """The Hessian of p(y != c | x) at a near point z, as the explainer's row chunk forms it
    (its references centred and transposed, as explain_mimic hands them to each chunk), which
    is sigma^2 times it."""
    j = mm.classes.searchsorted([c])
    return mimicmod._explain_rows(mm, z[None], j, *mimicmod._centred(mm), np.inf)[3][0] / mm.sigma**2


def random_mimic(rng, m=None, d=None, n_classes=2, sigma=None):
    m = m or int(rng.integers(5, 40))
    d = d or int(rng.integers(1, 6))
    X = rng.normal(size=(m, d))
    y = rng.integers(1, n_classes + 1, size=m)
    y[: n_classes] = np.arange(1, n_classes + 1)  # every class present
    sigma = sigma or float(rng.uniform(0.3, 2.0))
    return ParzenMimic(X, y, sigma)


def chunkings(mm, block_rows):
    """_BLOCK_ELEMENTS settings under which explain_mimic takes gradient chunks of block_rows
    rows, and then Hessian blocks of block_rows rows (direct-difference blocks of twice as
    many, gradient chunks of 2 d block_rows rows)."""
    return block_rows * len(mm.ref_x), 2 * block_rows * mm.ref_x.size


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
    assert not explain_mimic(mm, np.array([0.05, 0.05]), 1).far_field
    assert explain_mimic(mm, np.array([1e4, 1e4]), 1).far_field


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
    ev = explain_mimic(mm, np.array([1e4, 1e4]), 1)
    assert ev.far_field is True
    assert np.array_equal(ev.gradient, np.zeros(2))
    assert ev.predicted_probability == pytest.approx(2.0 / 3.0)


@pytest.mark.parametrize("block_rows", [1, 7])
def test_far_field_edge_rows_take_the_one_rule(monkeypatch, block_rows):
    # every far row weighs each reference by 1, whatever made it far: a largest
    # weight that exp rounds to the smallest subnormal, squared distances that
    # overflow to inf, or coordinates near the largest double
    mm = ParzenMimic(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]), np.array([1, 2, 2]), 1.0)
    edge = np.array(
        [[-np.sqrt(1490.0), 0.0], [1e200, 0.0], [-1e200, -1e200], [1e308, 1e308], [-1.7e308, 0.0]]
    )
    top = -0.5 * np.sum(edge[0] ** 2)  # the largest log-weight of the first edge row
    assert top < np.log(np.finfo(float).smallest_subnormal) and np.exp(top) == 5e-324
    near = np.random.default_rng(46).uniform(-0.5, 1.5, size=(10, 2))
    queries = np.vstack([near[:4], edge, near[4:]])  # one block, near rows on both sides
    far = np.zeros(15, dtype=bool)
    far[4:9] = True
    labels = np.array([1, 2] * 7 + [1])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        points = [explain_mimic(mm, q, c) for q, c in zip(queries, labels)]
        predicted = [mimic_predict(mm, q) for q in queries]
        monkeypatch.setattr("localgrad.data._BLOCK_ELEMENTS", block_rows * len(mm.ref_x))
        p = parzen_posterior_not(mm, queries, labels)
        pred = mimic_predict(mm, queries)
        evs = explain_mimic(mm, queries, labels)
    assert evs.far_field.tolist() == far.tolist()
    assert p.tolist() == evs.predicted_probability.tolist() == [ev.predicted_probability for ev in points]
    assert p[far].tolist() == (1.0 - mm.class_counts[labels[far] - 1] / 3).tolist()  # 1 - the prior
    assert pred.tolist() == predicted and pred[far].tolist() == [2] * 5  # the majority class
    assert np.array_equal(evs.gradient, np.array([ev.gradient for ev in points]))
    assert not evs.gradient[far].any()


def test_empty_block_gives_empty_results():
    mm = far_mimic()
    Z = np.empty((0, 2))
    assert mimic_predict(mm, Z).shape == parzen_posterior_not(mm, Z, []).shape == (0,)
    evs = explain_mimic(mm, Z, np.empty(0, dtype=int))
    assert evs.query.shape == evs.gradient.shape == (0, 2)
    assert evs.predicted_probability.shape == evs.far_field.shape == (0,)


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
    assert expected[-1] == mm.classes[np.argmax(mm.class_counts)]


@pytest.mark.parametrize("n_classes", [3, 9])
@pytest.mark.parametrize("block_rows", [1, 7])
def test_posterior_block_equals_point(monkeypatch, block_rows, n_classes):
    # a q x d block with a label per row gives each row's point value bit for bit,
    # in blocks of one row and of 7 rows, which does not divide the 45 queries;
    # from 8 classes on, numpy's sum(axis=1) no longer adds the class sums in order
    rng = np.random.default_rng(44)
    mm = random_mimic(rng, m=30, d=3, n_classes=n_classes, sigma=0.6)
    queries = rng.normal(scale=1.5, size=(45, 3))
    queries[-3:] += 1e4  # far field: 1 - the class prior, with no 0/0 on the way
    labels = rng.integers(1, n_classes + 1, size=45)
    expected = [parzen_posterior_not(mm, q, c) for q, c in zip(queries, labels)]
    assert all(isinstance(p, float) for p in expected)
    monkeypatch.setattr("localgrad.data._BLOCK_ELEMENTS", block_rows * len(mm.ref_x))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = parzen_posterior_not(mm, queries, labels)
    assert got.tolist() == expected
    assert got[-1] == 1.0 - mm.class_counts[labels[-1] - 1] / len(mm.ref_x)
    labels[20] = 0  # the classes are 1..n_classes
    with pytest.raises(ValueError, match="label 0 "):
        parzen_posterior_not(mm, queries, labels)


def test_explain_middle_class_matches_masked_quotient():
    # the references of the middle class are a slice with others on both sides
    rng = np.random.default_rng(45)
    for _ in range(10):
        mm = random_mimic(rng, m=40, d=3, n_classes=3, sigma=0.9)
        perm = rng.permutation(len(mm.ref_x))  # the oracle sees the references unsorted
        X, y = mm.ref_x[perm], mm.ref_labels[perm]
        z = rng.normal(scale=0.8, size=3)
        ev = explain_mimic(mm, z, 2)
        want = parzen_explanation_masked(X, y, mm.sigma, z, 2)
        assert np.allclose(ev.gradient, want, rtol=1e-10, atol=1e-14)
        H = fd_hessian(lambda p: parzen_posterior_not(mm, p, 2), z, step=1e-4)
        assert np.linalg.norm(chunk_hessian(mm, z, 2) - H) / max(np.linalg.norm(H), 1e-8) < 1e-4


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
    assert select_width(X, y, grid) == select_width(mm.ref_x, mm.ref_labels, grid)
    for q in queries:
        for c in mm.classes:
            a, b = explain_mimic(mm, q, c), explain_mimic(shuffled, q, c)
            assert a.far_field == b.far_field
            assert abs(a.predicted_probability - b.predicted_probability) <= 1e-12
            assert np.allclose(a.gradient, b.gradient, rtol=0, atol=1e-12)
    assert [explain_mimic(mm, q, 1).far_field for q in queries[-2:]] == [True, True]


def test_label_no_reference_carries_is_an_error():
    # label 7 has no class sum in a {1, 2} mimic: unchecked, it reads p = 1 with a
    # zero gradient, or a Hessian-fallback direction made of rounding noise
    mm = ParzenMimic(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]), np.array([1, 2, 2]), 0.7)
    with_fallback = functools.partial(explain_mimic, hessian_threshold=1e-6)
    for z in (np.array([0.3, 0.2]), np.array([1e4, 1e4])):  # near and far field
        for call in (parzen_posterior_not, explain_mimic, with_fallback):
            with pytest.raises(ValueError, match="label 7"):
                call(mm, z, 7)
    assert explain_mimic(mm, np.array([0.3, 0.2]), np.int64(2)).predicted_label == 2


@pytest.mark.parametrize("block", [False, True])
@pytest.mark.parametrize("bad", [1.5, 1.9, np.nan, np.inf])
def test_query_label_that_is_not_an_integer_is_an_error(bad, block):
    # read as int, 1.5 and 1.9 would explain class 1, and NaN or inf would
    # warn on the cast and then name label -9223372036854775808
    mm = ParzenMimic(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]), np.array([1, 2, 2]), 0.7)
    with_fallback = functools.partial(explain_mimic, hessian_threshold=1e-6)
    calls = [parzen_posterior_not, explain_mimic, with_fallback]
    if block:  # a near row and a far row; the bad label is on the far one
        z, c = np.array([[0.3, 0.2], [1e4, 1e4]]), np.array([2.0, bad])
    else:
        z, c = np.array([0.3, 0.2]), bad
    for call in calls:
        with pytest.raises(ValueError, match=re.escape(f"label {bad} is not an integer")):
            call(mm, z, c)
    ones = np.ones(np.shape(c))  # integral floats stay labels
    assert np.array_equal(parzen_posterior_not(mm, z, ones), parzen_posterior_not(mm, z, ones.astype(int)))


def test_references_and_width_that_are_not_finite_are_errors():
    # a NaN reference made every class sum NaN (so every label the first class), an
    # inf reference let select_width pick any width, and an infinite width gave zero
    # gradients that were not flagged far-field; the mean the explainer centres on
    # would carry one such reference into every row
    X, y = np.array([[0.0, 1.0], [1.0, 0.0], [2.0, 2.0], [3.0, 1.0]]), np.array([1, 0, 1, 0])
    for row, bad in ((0, np.nan), (2, np.inf), (3, -np.inf)):
        refs = X.copy()
        refs[row, 1] = bad
        message = f"ref_x must be finite, but row {row} is {refs[row].tolist()}"
        for make in (lambda: ParzenMimic(refs, y, 1.0), lambda: select_width(refs, y, [0.5, 1.0])):
            with pytest.raises(ValueError, match=re.escape(message)):
                make()
    for sigma in (np.inf, np.nan, 0.0, -1.0, 1e200, 1e-170, np.float64(1e200)):
        message = f"sigma must be positive, {RULE} for 4 references, got {sigma}"
        with pytest.raises(ValueError, match=re.escape(message)):
            ParzenMimic(X, y, sigma)
    with pytest.raises(ValueError, match=re.escape("normal doubles for 4 references, got [1e-170, 1e+200]")):
        select_width(X, y, [1e-170, 1.0, 1e200])


@pytest.mark.parametrize("bad", [1.5, 1.9, np.nan, np.inf])
def test_reference_label_that_is_not_an_integer_is_an_error(bad):
    # read as int, labels 1.5, 2.0 and 2.7 would make the classes [1, 2]
    X = np.array([[0.0], [1.0], [2.0]])
    for make in (lambda y: ParzenMimic(X, y, 0.7), lambda y: select_width(X, y, [0.3, 1.0])):
        with pytest.raises(ValueError, match=re.escape(f"label {bad} is not an integer")):
            make(np.array([2.0, bad, 2.0]))
    assert ParzenMimic(X, np.array([1.0, 2.0, 2.0]), 0.7).classes.tolist() == [1, 2]


# ------------------------------------------------------------ width choice


def test_select_width_single_candidate():
    mm_X = np.array([[0.0], [1.0]])
    y = np.array([1, 2])
    assert select_width(mm_X, y, [0.37]) == 0.37


def test_select_width_rejects_nonpositive():
    X = np.array([[0.0], [1.0]])
    y = np.array([1, 2])
    message = f"sigma candidates must be positive, {RULE} for 2 references, got [-1.0, 0.0]"
    with pytest.raises(ValueError, match=re.escape(message)):
        select_width(X, y, [-1.0, 0.0])
    for bad in (-1.0, 0.0, np.nan, np.inf):  # one bad candidate among good ones is an error too
        with pytest.raises(ValueError, match=re.escape(f"got [{bad}]")):
            select_width(X, y, [0.5, bad, 2.0])
    with pytest.raises(ValueError, match="got none"):
        select_width(X, y, [])
    with pytest.raises(ValueError, match="at least two references"):  # no other reference to score by
        select_width(X[:1], y[:1], [1.0])


def test_select_width_oversmoothed_not_chosen():
    rng = np.random.default_rng(6)
    a = rng.normal([-2, 0], 0.4, size=(30, 2))
    b = rng.normal([2, 0], 0.4, size=(10, 2))
    X = np.vstack([a, b])
    y = np.array([1] * 30 + [2] * 10)
    spread = np.median(
        np.linalg.norm(X[:, None] - X[None, :], axis=2)[np.triu_indices(40, 1)]
    )
    picked = select_width(X, y, [0.01 * spread, spread, 100 * spread])
    assert picked != 100 * spread


def checked_width(X, y, grid):
    """select_width's width, after checking it and every width's leave-one-out
    disagreement count against the brute-force oracle."""
    best, counts = select_width_bruteforce(X, y, grid)
    assert _width_counts(ParzenMimic(X, y, min(grid)), sorted(grid)).tolist() == counts
    assert select_width(X, y, grid) == best
    return best


def test_select_width_matches_bruteforce_loo():
    rng = np.random.default_rng(7)
    X = np.vstack(
        [rng.normal([-1, 0], 0.8, size=(12, 2)), rng.normal([1, 0], 0.8, size=(12, 2))]
    )
    y = np.array([1] * 12 + [2] * 12)
    grid = [0.15, 0.4, 0.9, 2.0]
    checked_width(X, y, grid)
    X, y, grid = interleaved_set()
    assert checked_width(X, y, grid) == 0.3
    X, y, grid = singleton_far_set()
    loo = [ParzenMimic(np.delete(X, i, axis=0), np.delete(y, i), grid[1]) for i in range(len(X))]
    far = [explain_mimic(mm, x, mm.classes[0]).far_field for mm, x in zip(loo, X)]
    assert 0 < sum(far) < len(X)  # some leave-one-out rows are far-field at grid[1]
    assert checked_width(X, y, grid) == grid[1]


def test_select_width_tie_prefers_smaller():
    a = np.array([[-5.0, 0.0], [-5.2, 0.1], [-4.8, -0.1]])
    b = a + np.array([10.0, 0.0])
    X = np.vstack([a, b])
    y = np.array([1, 1, 1, 2, 2, 2])
    # both candidates classify every LOO probe correctly -> tie -> smaller
    assert select_width(X, y, [0.9, 0.5]) == 0.5


def interleaved_set():
    """40 noisy points whose probes' own references sit elsewhere in the
    class-grouped order; only leaving them out keeps 0.02 from winning."""
    rng = np.random.default_rng(11)
    X = rng.normal(size=(40, 2))
    y = np.where(X[:, 0] > 0, 1, 2)
    y[rng.choice(40, 8, replace=False)] ^= 3  # swaps labels 1 and 2
    return X, y, [0.02, 0.3, 1.0, 3.0]


def singleton_far_set():
    """30 noisy references, one of them alone in class 3, on a grid reaching
    widths at which some or all references, left out, are far from every
    other: a far row goes to the majority class of the others, and class 3,
    left out, has no reference to win with.  A class slice of the others off
    by one row picks 1.5 here."""
    rng = np.random.default_rng(12)
    X = rng.uniform(-3, 3, size=(30, 2))
    y = np.where(X[:, 0] > 0, 1, 2)
    y[rng.random(30) < 0.2] ^= 3  # swaps labels 1 and 2
    y[7] = 3
    return X, y, [0.005, 0.015, 0.05, 0.4, 1.5]


def top_majority_far_set():
    """singleton_far_set with labels 1 made 4: the majority class, which far rows go
    to, is then not the lowest label, which class sums of all zeros would pick."""
    X, y, grid = singleton_far_set()
    return X, np.where(y == 1, 4, y), grid


def near_tie_set():
    """Three references at 0 (labels 2, 2, 1) and two of class 2 at r = sqrt(106 ln 2).
    At sigma=1 a reference at 0 weighs each other one at 0 by 1 and each at r
    by just under 2^-53.  Left out, a class-2 reference at 0 sees class sums
    of 1 and 1 + 2^-53 + 2^-53: added in the mimic's order, the first 2^-53
    is lost and the tie goes to class 1; the two small weights added first
    would sum to 2^-52 and survive.  At sigma=1.001 each small weight exceeds
    2^-53 and class 2 wins in any order."""
    r = np.sqrt(106 * np.log(2))
    return np.array([[0.0], [0.0], [0.0], [r], [r]]), np.array([2, 2, 1, 2, 2]), [1.0, 1.001]


def eight_term_tie_set():
    """near_tie_set with six references at r.  Left out, a class-2 reference
    at 0 sees a class-2 sum of seven terms, which numpy adds in order, so
    the tie holds at 1.  The eight terms of the full slice, its own zero
    weight included, numpy adds in eight partial sums, which keep the
    small weights: a zero weight in place of leaving out loses the tie."""
    r = np.sqrt(106 * np.log(2))
    return np.array([[0.0]] * 3 + [[r]] * 6), np.array([2, 2, 1] + [2] * 6), [1.0, 1.001]


def test_select_width_near_tie_scores_the_mimic_it_returns():
    # each reference is scored by the mimic of the others, whose class sums
    # are added in their own order: other orders resolve the tie otherwise
    for X, y, grid in (near_tie_set(), eight_term_tie_set()):
        loo = [ParzenMimic(np.delete(X, i, axis=0), np.delete(y, i), 1.0) for i in range(len(X))]
        assert [mimic_predict(mm, x) for mm, x in zip(loo, X)] == [1, 1] + [2] * (len(X) - 2)
        assert checked_width(X, y, grid) == 1.001


@pytest.mark.parametrize("block_rows", [1, 7])
@pytest.mark.parametrize(
    "make_set", [interleaved_set, near_tie_set, eight_term_tie_set, singleton_far_set, top_majority_far_set]
)
def test_select_width_block_size_changes_nothing(monkeypatch, block_rows, make_set):
    # blocks of one row, and of 7 rows, which divides none of the sets' sizes
    X, y, grid = make_set()
    monkeypatch.setattr("localgrad.data._BLOCK_ELEMENTS", block_rows * len(X))
    checked_width(X, y, grid)


def bound_tally(monkeypatch, sizes=None):
    """Wrap _proven_labels to count the (width, row) pairs it settles and leaves, and
    to record each call's bound-array size (widths x ext entries) in `sizes`."""
    tally = {"settled": 0, "left": 0}
    proven = mimicmod._proven_labels

    def counted(ext, n, sigmas, m):
        label = proven(ext, n, sigmas, m)
        tally["settled"] += int(np.count_nonzero(label >= 0))
        tally["left"] += int(np.count_nonzero(label < 0))
        if sizes is not None:
            sizes.append(len(sigmas) * ext.size)
        return label

    monkeypatch.setattr(mimicmod, "_proven_labels", counted)
    return tally


def rounding_tie_set():
    """A class-1 probe at 0, a class-2 reference at 0 and 22 of class 1 at a, each of
    which weighs w, just over 1/22, at sigma=1.  Added as the mimic adds them, the 22
    weights sum to 1 - 2^-53, so class 2's weight of 1 wins; but 22 w rounds to
    1 + 2^-52, so a bound without delta's margin would give the probe to class 1."""
    a = 2.48637987980852
    return np.array([[0.0], [0.0]] + [[a]] * 22), np.array([1, 2] + [1] * 22), [1.0, 4.0]


def test_width_counts_leave_a_rounding_tie_to_the_class_sums(monkeypatch):
    X, y, grid = rounding_tie_set()
    w = float(np.exp(-0.5 * X[2, 0] ** 2))
    assert np.full((1, 22), w).sum(axis=1)[0] < 1.0 < 22 * w
    assert mimic_predict(ParzenMimic(X[1:], y[1:], 1.0), X[0]) == 2
    tally = bound_tally(monkeypatch)
    checked_width(X, y, grid)
    assert tally["settled"] > 0 and tally["left"] > 0


def test_a_class_whose_farthest_weight_underflows_is_proven_by_its_top_weight():
    # a row at squared distances 0.01 and 0.5 from its nearest and farthest class-0
    # reference, 0.6 and 1 from class 1's: at sigma 0.01 every weight but the nearest, 1,
    # underflows, so only that top weight bounds class 0's sum from below; at sigma 1 its
    # farthest weight does too
    ext = np.array([[[0.01, 0.6], [0.5, 1.0]]])  # (row, nearest / farthest, class)
    n = np.array([3, 3])
    assert mimicmod._proven_labels(ext, n, np.array([0.01, 1.0]), 7).tolist() == [[0], [0]]


def random_loo_set(rng):
    """2-4 classes, one of them a single reference, in 1-3 rounded dimensions (so the
    nearest distances tie across classes), some references far from the rest, and
    widths from 1e-3 to 1e3 times the spread."""
    m, d, k = int(rng.integers(6, 25)), int(rng.integers(1, 4)), int(rng.integers(2, 5))
    X = np.round(rng.normal(size=(m, d)) * 2, int(rng.integers(0, 2)))
    y = rng.integers(0, k - 1, size=m)
    y[int(rng.integers(m))] = k - 1
    X[rng.random(m) < 0.15] += 1e3
    spread = float(np.median(np.abs(X - np.median(X, axis=0)).sum(axis=1))) + 0.1
    return X, y, (spread * 10 ** rng.uniform(-3, 3, size=6)).tolist()


@pytest.mark.parametrize("block_rows", [1, 7, None])
def test_width_counts_match_bruteforce_on_random_sets(monkeypatch, block_rows):
    # the bounds only prove what the argmax of the class sums decides: every count is the
    # brute-force leave-one-out count, on blocks of one row, of 7 rows and the default
    rng = np.random.default_rng(61)
    tally = bound_tally(monkeypatch)
    for _ in range(25):
        X, y, grid = random_loo_set(rng)
        if block_rows:
            monkeypatch.setattr("localgrad.data._BLOCK_ELEMENTS", block_rows * len(X))
        checked_width(X, y, grid)
    assert tally["settled"] > 0 and tally["left"] > 0


def test_width_counts_keep_the_bound_arrays_within_a_block(monkeypatch):
    # 400 widths on blocks of 7 rows: the bounds take the widths in chunks
    rng = np.random.default_rng(62)
    X, y, _ = random_loo_set(rng)
    grid = np.geomspace(1e-3, 1e3, 400).tolist()
    monkeypatch.setattr("localgrad.data._BLOCK_ELEMENTS", 7 * len(X))
    sizes = []
    tally = bound_tally(monkeypatch, sizes)
    checked_width(X, y, grid)
    assert max(sizes) <= 7 * len(X) < sum(sizes)
    assert tally["settled"] > 0 and tally["left"] > 0


def test_rescale_on_a_column_of_widths_gives_each_widths_bits():
    # one width is squared as float ** squares it; ** on an array would round some
    # widths' squares to another last bit, and this grid holds one of them
    rng = np.random.default_rng(63)
    widths = rng.uniform(0.1, 10.0, size=5000)
    odd = next(s for s in widths.tolist() if np.square(s) != s**2)
    sigmas = np.array([1e-3, 0.5, odd, 3.0, 1e3])
    sq = rng.uniform(0.0, 50.0, size=(6, 9))
    sq[1] += 1e7  # far at the small widths
    sq[2, 4] = np.inf
    out = np.empty((len(sigmas), *sq.shape))
    far = mimicmod._rescale(sq, sigmas[:, None, None], out=out)
    for i, s in enumerate(sigmas.tolist()):
        w = np.empty_like(sq)
        assert far[i].tolist() == mimicmod._rescale(sq, s, out=w).tolist()
        assert out[i].tobytes() == w.tobytes()
    assert far[:, 1].tolist() == [True, True, True, True, False]


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
    # an empty set meets the points' rule first
    message = "at least two points" if n else re.escape("points must be a nonempty n x d matrix, got shape (0, 2)")
    with pytest.raises(ValueError, match=message):
        default_sigma_grid(np.zeros((n, 2)))


def test_default_sigma_grid_rejects_zero_median():
    # 8 of 10 points coincide: 28 of the 45 pairs are at distance 0
    X = np.vstack([np.zeros((8, 2)), [[1.0, 0.0], [0.0, 2.0]]])
    with pytest.raises(ValueError, match="median pairwise distance is 0.*--sigma"):
        default_sigma_grid(X)


@pytest.mark.parametrize("block_rows", [1, 3, None])
def test_default_sigma_grid_matches_pdist_median_bit_for_bit(monkeypatch, block_rows):
    # odd and even pair counts, ties, duplicated points and m = 2, on the default
    # block and on blocks of 1 and 3 rows, which leave each pass a bracket to narrow
    rng = np.random.default_rng(51)
    for m in [2, 3, 4, 5, 17, 40, 81]:
        if block_rows:
            monkeypatch.setattr("localgrad.data._BLOCK_ELEMENTS", block_rows * m)
        for X in (
            rng.normal(size=(m, 3)),
            np.round(rng.normal(size=(m, 2)), 1),  # many tied distances
            rng.integers(0, 3, size=(m, 2)).astype(float),
            rng.normal(size=(m, 2))[rng.integers(0, max(2, m // 2), size=m)],  # duplicated points
            rng.normal(size=(m, 4)) * 1e150,
        ):
            want = sigma_grid_pdist(X)
            if want[0] > 0:
                assert default_sigma_grid(X).tobytes() == want.tobytes()
            else:  # more than half of the pairs coincide
                with pytest.raises(ValueError, match="median pairwise distance is 0"):
                    default_sigma_grid(X)


@pytest.mark.parametrize("block", [1, None])
def test_middle_squared_distances_coincident_majority_and_split_ranks(monkeypatch, block):
    # a block of one number leaves every pass a bracket to narrow, down to single values
    if block:
        monkeypatch.setattr("localgrad.data._BLOCK_ELEMENTS", block)
    # 9 of 12 points coincide: 36 of the 66 pairs are at distance 0
    X = np.vstack([np.zeros((9, 2)), [[1.0, 0.0], [0.0, 2.0], [3.0, 3.0]]])
    assert _middle_squared_distances(X).tolist() == [0.0, 0.0]
    # 0, 1, 2, 3 on a line: squared distances 1, 1, 1, 4, 4, 9, so the two middle
    # ranks, 2 and 3, fall on two values, 1 and 4
    X = np.arange(4.0)[:, None]
    assert _middle_squared_distances(X).tolist() == [1.0, 4.0]
    # 0.0625, 0.5625, 1, (1 + 2**-52)**2, 1.5625, 4: the middle two are 2 ulps apart
    X = np.array([[0.0], [1.0], [-1.0 - 2**-52], [0.25]])
    assert _middle_squared_distances(X).tolist() == [1.0, 1.0 + 2**-51]
    assert default_sigma_grid(X).tobytes() == sigma_grid_pdist(X).tobytes()


def test_default_sigma_grid_rejects_points_that_are_not_finite():
    X = np.random.default_rng(52).normal(size=(6, 2))
    for bad in (np.inf, -np.inf, np.nan):
        X[4, 1] = bad
        with pytest.raises(ValueError, match=r"points must be finite, but row 4 is"):
            default_sigma_grid(X)


def test_default_sigma_grid_rejects_an_overflowing_median():
    # finite coordinates whose squared distances overflow: every pairwise distance is inf
    X = np.array([[0.0, 1e200], [1e200, 0.0], [-1e200, 0.0], [0.0, -1e200]])
    with pytest.raises(ValueError, match=r"median pairwise distance is inf \(the squared distances overflow\)"):
        default_sigma_grid(X)


def test_default_sigma_grid_memory_stays_in_blocks(traced):
    # one buffer of the 1500 * 1499 / 2 pairwise distances alone would take 9 MB; the
    # selection's passes over row blocks peaked at 0.8 MB when this bound was set
    X = np.random.default_rng(53).normal(size=(1500, 6))
    with traced() as peak:
        grid = default_sigma_grid(X)
        used = peak()
    assert used < 1.5e6
    assert grid.tobytes() == sigma_grid_pdist(X).tobytes()


def test_width_selection_memory_stays_quadratic(traced):
    # an m x m x d difference tensor alone would take 69 MB here
    rng = np.random.default_rng(10)
    X = rng.normal(size=(600, 24))
    y = rng.integers(0, 2, size=600)
    with traced() as peak:
        grid = default_sigma_grid(X)
        grid_peak = peak()
        select_width(X, y, grid)
        select_peak = peak()
    assert grid_peak < 25e6
    assert select_peak < 25e6


def test_width_selection_memory_grows_linearly(traced):
    # two 2000 x 2000 float64 buffers alone would take 64 MB
    rng = np.random.default_rng(13)
    X = rng.normal(size=(2000, 6))
    y = rng.integers(0, 2, size=2000)
    grid = np.logspace(-1, 1, 25)
    with traced() as peak:
        select_width(X, y, grid)
        used = peak()
    assert used < 8e6


def test_width_selection_memory_at_the_mimic_select_shape(traced):
    # 900 references in 6-d, the benchmark's width selection: a block's distances, its
    # copy without the left-out column and one weight buffer; 0.66 MB when this bound
    # was set, where the previous block's buffers, still alive, made it 0.87 MB
    rng = np.random.default_rng(64)
    X = rng.normal(size=(900, 6))
    y = (X[:, 0] + 0.5 * X[:, 1] ** 2 > 0.5).astype(int)
    grid = default_sigma_grid(X)
    with traced() as peak:
        select_width(X, y, grid)
        used = peak()
    assert used < 0.7e6


# ------------------------------------------------------------- explanations


def test_explain_two_point_example():
    mm = ParzenMimic(np.array([[-1.0], [1.0]]), np.array([1, 2]), 1.0)
    ev = explain_mimic(mm, np.array([0.0]), 1)
    assert ev.gradient.shape == (1,)
    assert ev.gradient[0] > 0.0  # moving right raises p(not class 1)
    assert ev.source == "parzen-mimic"
    assert ev.predicted_label == 1
    # and for the other label the sign flips
    ev2 = explain_mimic(mm, np.array([0.0]), 2)
    assert ev2.gradient[0] == pytest.approx(-ev.gradient[0], rel=1e-12)


def test_explain_matches_finite_differences_many_configs():
    rng = np.random.default_rng(10)
    for _ in range(60):
        n_classes = int(rng.integers(2, 4))
        mm = random_mimic(rng, n_classes=n_classes)
        z = rng.normal(size=mm.ref_x.shape[1])
        c = int(rng.integers(1, n_classes + 1))
        ev = explain_mimic(mm, z, c)
        want = fd_gradient(lambda p: parzen_posterior_not(mm, p, c), z, step=1e-5)
        scale = max(np.linalg.norm(want), 1e-12)
        assert np.linalg.norm(ev.gradient - want) / scale < 1e-6


def test_explain_probability_is_complement_posterior():
    rng = np.random.default_rng(11)
    mm = random_mimic(rng, m=20, d=2)
    z = rng.normal(size=2)
    ev = explain_mimic(mm, z, 1)
    assert ev.predicted_probability == parzen_posterior_not(mm, z, 1)


def test_explain_symmetric_equidistant_is_zero():
    X = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    y = np.array([1, 1, 2, 2])
    mm = ParzenMimic(X, y, 0.9)
    ev = explain_mimic(mm, np.array([0.0, 0.0]), 1)
    assert np.linalg.norm(ev.gradient) < 1e-15


def test_explain_rescale_invariance_far_from_mass():
    # moderately remote query: individual weights are tiny but the
    # rescaled quotient must stay finite and match finite differences
    X = np.array([[0.0, 0.0], [0.4, 0.1], [-0.3, 0.2], [0.1, -0.4]])
    y = np.array([1, 2, 1, 2])
    mm = ParzenMimic(X, y, 0.05)
    z = np.array([1.7, 1.4])  # log-weights ~ -700: raw weights (sub)normal
    ev = explain_mimic(mm, z, 1)
    assert not ev.far_field
    assert np.all(np.isfinite(ev.gradient))
    assert np.linalg.norm(ev.gradient) > 0.0


# ------------------------------------------------------------------ hessian


def test_hessian_matches_finite_differences():
    rng = np.random.default_rng(12)
    for _ in range(25):
        mm = random_mimic(rng, m=15, d=int(rng.integers(1, 4)), sigma=1.0)
        z = rng.normal(scale=0.8, size=mm.ref_x.shape[1])
        H = chunk_hessian(mm, z, 1)
        want = fd_hessian(lambda p: parzen_posterior_not(mm, p, 1), z, step=1e-4)
        scale = max(np.linalg.norm(want), 1e-8)
        assert np.linalg.norm(H - want) / scale < 1e-4


@pytest.mark.parametrize("n_classes", [2, 3, 9])
def test_hessian_matches_the_high_precision_oracle(n_classes):
    # every label, the middle classes included, on unsorted references, as drawn and
    # shifted by 1e4; queries a few widths out meet labels of almost no weight, where
    # |H| falls to 1e-22 (9 classes), and a quotient rule with terms of order 1 loses every digit
    rng = np.random.default_rng(51)
    for _ in range(4):
        mm = random_mimic(rng, m=12, d=3, n_classes=n_classes, sigma=0.5)
        perm = rng.permutation(len(mm.ref_x))
        z = rng.normal(scale=2.0, size=3)
        for shift in (0.0, 1e4):
            shifted = ParzenMimic(mm.ref_x + shift, mm.ref_labels, mm.sigma)
            for c in mm.classes:
                want = parzen_hessian_mp(shifted.ref_x[perm], shifted.ref_labels[perm], mm.sigma, z + shift, c)
                got = chunk_hessian(shifted, z + shift, c)
                assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)


@pytest.mark.parametrize("shift", [0.0, 1e4])
def test_hessian_keeps_its_digits_where_it_is_tiny(shift):
    # near class 1's references, class 2 has almost no weight: p(y != 2) is 1 - 1e-14 or
    # closer, and |H| is 1e-10 to 1e-14.  A quotient rule whose terms are of order 1 there
    # cancels to relative errors of 6e-7 to 2e-2; the identity keeps about 1e-15
    X = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [6.0, 5.0], [7.0, 6.0]]) + shift
    y = np.array([1, 1, 1, 2, 2])
    mm = ParzenMimic(X, y, 1.0)
    for z in np.array([[0.3, 0.2], [0.5, 0.5], [-1.0, 0.5]]) + shift:
        want = parzen_hessian_mp(X, y, 1.0, z, 2)
        assert 1e-15 < np.linalg.norm(want) < 1e-9
        assert np.linalg.norm(chunk_hessian(mm, z, 2) - want) <= 1e-10 * np.linalg.norm(want)


def test_hessian_direction_three_clusters():
    data = gen_three_clusters(120, seed=3)
    mm = ParzenMimic(data.features, data.labels, 0.6)
    center = np.array([0.0, 0.0])
    ev = explain_mimic(mm, center, 2)
    assert np.linalg.norm(ev.gradient) < 1e-10  # stationary point
    ev = explain_mimic(mm, center, 2, hessian_threshold=1e-6)
    direction = ev.gradient
    assert ev.source == "hessian-fallback"
    assert np.linalg.norm(direction) == pytest.approx(1.0, abs=1e-12)
    assert abs(direction @ np.array([1.0, 0.0])) > 0.9
    assert direction @ chunk_hessian(mm, center, 2) @ direction > 0.0  # its eigenvalue


def test_hessian_direction_canonical_orientation():
    data = gen_three_clusters(120, seed=3)
    mm = ParzenMimic(data.features, data.labels, 0.6)
    direction = explain_mimic(mm, np.zeros(2), 2, hessian_threshold=1e-6).gradient
    nonzero = np.flatnonzero(np.abs(direction) > 1e-9)
    assert direction[nonzero[0]] > 0


def test_top_directions_take_their_sign_from_the_first_component_above_rounding():
    # I + v v' has the top eigenvector v.  A first component of -1e-5 sets the sign, so
    # (-1e-5, 1) turns to (1e-5, -1); one of -1e-12, below the 1e-9 floor where a
    # component that symmetry zeroes lies, is passed over for the second
    def hess(first):
        v = np.array([first, 1.0]) / np.hypot(first, 1.0)
        return np.eye(2) + np.outer(v, v)

    direction, informative = mimicmod._top_directions(np.stack([hess(-1e-5), hess(-1e-12)]))
    assert informative.all()
    assert np.sign(direction).tolist() == [[1, -1], [-1, 1]]


def test_hessian_degenerate_spectrum_isotropic_ring():
    # 8 references of the other class on a circle + one reference of the
    # queried class at the center: rotational symmetry forces an
    # isotropic second-order term (equal top eigenvalues)
    angles = np.linspace(0, 2 * np.pi, 8, endpoint=False)
    ring = np.column_stack([np.cos(angles), np.sin(angles)])
    X = np.vstack([[0.0, 0.0], ring])
    y = np.array([1] + [2] * 8)
    mm = ParzenMimic(X, y, 0.8)
    H = chunk_hessian(mm, np.zeros(2), 1)
    eigvals = np.linalg.eigvalsh(H)
    assert abs(eigvals[-1] - eigvals[-2]) < 1e-8 * max(abs(eigvals[-1]), 1e-30)


def test_fallback_triggers_at_stationary_point():
    data = gen_three_clusters(120, seed=4)
    mm = ParzenMimic(data.features, data.labels, 0.6)
    ev = explain_mimic(mm, np.zeros(2), 2, hessian_threshold=1e-6)
    assert ev.source == "hessian-fallback"
    assert np.linalg.norm(ev.gradient) == pytest.approx(1.0, abs=1e-12)


def test_fallback_leaves_normal_points_alone():
    data = gen_three_clusters(120, seed=4)
    mm = ParzenMimic(data.features, data.labels, 0.6)
    ev = explain_mimic(mm, np.array([1.0, 0.0]), 2, hessian_threshold=1e-6)
    assert ev.source == "parzen-mimic"


def test_fallback_respects_far_field():
    mm = far_mimic()
    ev = explain_mimic(mm, np.array([1e4, 1e4]), 1, hessian_threshold=1e-6)
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


def _smoothing_cases():
    rng = np.random.default_rng(14)
    grid = np.stack(np.meshgrid(np.arange(6.0), np.arange(5.0)), axis=-1).reshape(-1, 2)
    dup = np.repeat(rng.normal(size=(10, 3)), 3, axis=0)
    spread = rng.normal(size=(300, 6))
    return [
        (grid, 1.0),  # the window reaches the neighbours exactly: ties on the cube faces
        (grid * 0.1, 0.1),  # the same with steps that are not exact in binary
        (dup, 1e-12),  # duplicated points, each window holds only its copies
        (spread, 0.6),
        (spread[:40, :2], 1e9),  # one window holds everything
        (rng.uniform(-1, 1, size=(50, 1)), 0.05),
    ]


@pytest.mark.parametrize("case", range(6))
def test_smoothing_equals_the_mask_oracle_bit_for_bit(case):
    Q, r = _smoothing_cases()[case]
    G = np.random.default_rng(case).normal(size=Q.shape)
    assert np.array_equal(smooth_gradients(Q, G, r), smooth_gradients_bruteforce(Q, G, r))


@pytest.mark.parametrize("block_rows", [1, 7])
@pytest.mark.parametrize("case", range(6))
def test_smoothing_block_size_changes_nothing(monkeypatch, case, block_rows):
    # blocks of one row, and of 7 rows, which divides none of the cases' query counts
    Q, r = _smoothing_cases()[case]
    G = np.random.default_rng(case).normal(size=Q.shape)
    monkeypatch.setattr("localgrad.data._BLOCK_ELEMENTS", block_rows * len(Q))
    assert np.array_equal(smooth_gradients(Q, G, r), smooth_gradients_bruteforce(Q, G, r))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_smoothing_rejects_non_finite_queries(bad):
    # a NaN row's Chebyshev distances fail every comparison, even to itself
    queries = np.zeros((3, 2))
    queries[1, 0] = bad
    with pytest.raises(ValueError, match=re.escape(f"queries must be finite, but row 1 is {queries[1].tolist()}")):
        smooth_gradients(queries, np.ones((3, 2)), 0.5)


def test_smoothing_one_column_with_long_cubes_equals_the_mask_oracle_bit_for_bit():
    # a column's mean sums its cubes of more than 8 rows pairwise, not in index order
    Q = np.random.default_rng(16).normal(size=(200, 1))
    G = np.random.default_rng(17).normal(size=Q.shape)
    assert np.array_equal(smooth_gradients(Q, G, 0.3), smooth_gradients_bruteforce(Q, G, 0.3))


def test_smoothing_rejects_gradients_of_another_shape():
    # unchecked, 6 x 1 gradients of 6 x 2 queries were smoothed into a 6 x 1 field
    queries = np.random.default_rng(15).normal(size=(6, 2))
    for grads in (np.ones((6, 1)), np.ones((6, 3)), np.ones((5, 2))):
        with pytest.raises(ValueError, match=re.escape(f"queries' shape (6, 2), got {grads.shape}")):
            smooth_gradients(queries, grads, 0.5)


@pytest.mark.parametrize("window", [0.0, -0.5, np.nan])
def test_smoothing_window_must_be_positive(window):
    with pytest.raises(ValueError, match="window halfwidth must be positive"):
        smooth_gradients(np.zeros((3, 2)), np.ones((3, 2)), window)


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
    Z = np.vstack([rng.normal(size=(8, 2)), [[1e5, 1e5]]])  # and a far-field row
    evs = explain_mimic(mm, Z, np.ones(9, dtype=int))
    path = tmp_path / "evs.csv"
    save_explanations(path, evs, feature_names=["u", "v"])
    back = load_explanations(path)
    assert len(back) == 9
    for i, loaded in enumerate(back):
        orig = evs.row(i)
        assert np.array_equal(orig.query, loaded.query)
        assert np.array_equal(orig.gradient, loaded.gradient)
        assert orig.predicted_probability == loaded.predicted_probability
        assert orig.predicted_label == loaded.predicted_label
        assert orig.source == loaded.source
        assert orig.far_field == loaded.far_field


def test_explanations_csv_needs_a_block_and_its_feature_names(tmp_path):
    mm = random_mimic(np.random.default_rng(16), m=20, d=2)
    ev = explain_mimic(mm, np.zeros(2), 1)
    with pytest.raises(ValueError, match="block record"):
        save_explanations(tmp_path / "p.csv", ev, ["u", "v"])
    with pytest.raises(ValueError, match="expected 2 feature names"):
        save_explanations(tmp_path / "b.csv", explain_mimic(mm, np.zeros((1, 2)), [1]), ["u"])


@pytest.mark.parametrize("block_rows", [1, 7])
def test_block_rows_equal_the_point_calls(monkeypatch, block_rows):
    # a Hessian-fallback row (the stationary centre), two plain rows and a far-field row
    data = gen_three_clusters(120, seed=4)
    mm = ParzenMimic(data.features, data.labels, 0.6)
    Z = np.array([[0.0, 0.0], [1.0, 0.0], [1e4, 1e4], [-2.0, 0.3]])
    points = [explain_mimic(mm, z, c, hessian_threshold=1e-6) for z, c in zip(Z, [2, 2, 1, 1])]
    for elements in chunkings(mm, block_rows):
        monkeypatch.setattr("localgrad.data._BLOCK_ELEMENTS", elements)
        evs = explain_mimic(mm, Z, [2, 2, 1, 1], hessian_threshold=1e-6)
        assert evs.query.shape == evs.gradient.shape == (4, 2)
        assert evs.source.tolist() == ["hessian-fallback", "parzen-mimic", "parzen-mimic", "parzen-mimic"]
        assert evs.far_field.tolist() == [False, False, True, False]
        for i, point in enumerate(points):
            assert isinstance(point.far_field, bool) and isinstance(point.source, str)
            assert_same_point_record(evs.row(i), point)


@pytest.mark.parametrize("n_classes", [2, 3, 9])
@pytest.mark.parametrize("block_rows", [1, 7])
def test_block_equals_point_in_any_chunk(monkeypatch, block_rows, n_classes):
    # chunks of one row, and of 7 rows, which does not divide the 45 queries, then Hessian
    # blocks of as many rows; the threshold sends about a third of the rows to the
    # Hessian, but no far-field row
    rng = np.random.default_rng(46)
    mm = random_mimic(rng, m=30, d=3, n_classes=n_classes, sigma=0.6)
    queries = rng.normal(scale=1.5, size=(45, 3))
    queries[-3:] += 1e4
    labels = rng.integers(1, n_classes + 1, size=45)
    norms = np.linalg.norm(explain_mimic(mm, queries, labels).gradient, axis=1)
    threshold = float(np.quantile(norms[:-3], 1 / 3))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        points = [explain_mimic(mm, q, c, hessian_threshold=threshold) for q, c in zip(queries, labels)]
        for elements in chunkings(mm, block_rows):
            monkeypatch.setattr("localgrad.data._BLOCK_ELEMENTS", elements)
            evs = explain_mimic(mm, queries, labels, hessian_threshold=threshold)
            assert evs.far_field.tolist() == [False] * 42 + [True] * 3
            assert 10 <= np.count_nonzero(evs.source == "hessian-fallback") <= 15
            assert np.array_equal(evs.gradient[-3:], np.zeros((3, 3)))
            for i, point in enumerate(points):
                assert_same_point_record(evs.row(i), point)


def test_explanations_far_from_the_origin_match_the_masked_quotient():
    # the references are centred on their bounding box, so data shifted by 1e4 lose no digits
    rng = np.random.default_rng(47)
    mm = random_mimic(rng, m=40, d=3, n_classes=3, sigma=0.7)
    shift = np.full(3, 1e4)
    shifted = ParzenMimic(mm.ref_x + shift, mm.ref_labels, mm.sigma)
    queries = rng.normal(scale=0.8, size=(30, 3)) + shift
    labels = rng.integers(1, 4, size=30)
    evs = explain_mimic(shifted, queries, labels)
    for z, c, got in zip(queries, labels, evs.gradient):
        want = parzen_explanation_masked(shifted.ref_x, shifted.ref_labels, mm.sigma, z, c)
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


def test_centred_sums_match_the_masked_quotient_at_any_shift_scale_and_width():
    # 300 sets of 2-4 classes: shifts up to 3e5, scales 1e-3 to 1e3, widths 0.003 to 10
    # times the scale, and queries within a few widths of a reference.  The centred form
    # cancels the query between the classes; where it reads 0, so does the oracle
    rng = np.random.default_rng(49)
    for _ in range(300):
        k, d = int(rng.integers(2, 5)), int(rng.integers(1, 5))
        m, scale = int(rng.integers(k, 40)), 10 ** rng.uniform(-3, 3)
        X = rng.normal(size=(m, d)) * scale + rng.uniform(-3e5, 3e5, size=d)
        y = rng.integers(0, k, size=m)
        y[:k] = np.arange(k)
        sigma = scale * 10 ** rng.uniform(np.log10(0.003), 1)
        queries = X[rng.integers(0, m, size=5)] + rng.normal(size=(5, d)) * sigma
        labels = rng.integers(0, k, size=5)
        evs = explain_mimic(ParzenMimic(X, y, sigma), queries, labels)
        for z, c, got in zip(queries, labels, evs.gradient):
            want = parzen_explanation_masked(X, y, sigma, z, c)
            assert np.linalg.norm(got - want) <= 1e-11 * np.linalg.norm(want)


def redone_rows(monkeypatch):
    """The chunk rows explain_mimic redoes from direct differences, as calls record them."""
    rows, direct = [], mimicmod._direct_numerators
    monkeypatch.setattr(
        "localgrad.mimic._direct_numerators", lambda mimic, r, *args: rows.extend(r) or direct(mimic, r, *args)
    )
    return rows


@pytest.mark.parametrize("far", [[[1e200, 0.0]], [[1.7e308, 1.0], [1.6e308, -1.0]]], ids=["1e200", "1e308"])
def test_far_references_leave_near_explanations_exact(monkeypatch, far):
    # one reference at 1e200, or two near the largest double (whose mean overflows), put
    # the centre 1e199 or more from every near query: the centred products would cancel
    # to rounding, so each near row is redone from z - x_i, and matches the oracle
    rng = np.random.default_rng(54)
    near = random_mimic(rng, m=30, d=2, n_classes=2, sigma=1.0)
    mm = ParzenMimic(np.vstack([near.ref_x, far]), np.concatenate([near.ref_labels, [1] * len(far)]), 1.0)
    queries, labels = rng.normal(size=(20, 2)), rng.integers(1, 3, size=20)
    redone = redone_rows(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        evs = explain_mimic(mm, queries, labels)
    assert redone == list(range(20)) and not evs.far_field.any()
    with np.errstate(over="ignore"):  # the oracle squares the far differences
        for z, c, got in zip(queries, labels, evs.gradient):
            want = parzen_explanation_masked(mm.ref_x, mm.ref_labels, mm.sigma, z, c)
            assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)


@pytest.mark.parametrize("block_rows", [1, 7])
def test_rows_the_centring_would_blur_are_redone_in_any_chunk(monkeypatch, block_rows):
    # two clusters 1e6 apart, sigma 0.5: about either, the centred products carry 5e5 and
    # cancel to about sigma, which cost 2e-9 relative before such rows were redone.  A
    # gap of 10 keeps them: the products exceed the numerator by less than the bound
    rng = np.random.default_rng(55)
    X = np.vstack([rng.normal(size=(40, 3)), rng.normal(size=(40, 3)) + 1e6])
    y = rng.integers(0, 2, size=80)
    queries = np.vstack([X[:20] + rng.normal(scale=0.3, size=(20, 3)), X[40:50], [[-1e4, 0.0, 0.0]]])
    labels = rng.integers(0, 2, size=31)
    for gap, want_redone in ((1e6, list(range(30))), (10.0, [])):
        shifted = X.copy()
        shifted[40:] += gap - 1e6
        mm = ParzenMimic(shifted, y, 0.5)
        Z = queries.copy()
        Z[20:30] += gap - 1e6
        redone = redone_rows(monkeypatch)
        evs = explain_mimic(mm, Z, labels)
        assert sorted(redone) == want_redone and evs.far_field.tolist() == [False] * 30 + [True]
        for z, c, got in zip(Z[:30], labels, evs.gradient):
            want = parzen_explanation_masked(mm.ref_x, mm.ref_labels, mm.sigma, z, c)
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
    # the redone rows, some of them Hessian rows too, are the point calls' in any chunk
    mm = ParzenMimic(X, y, 0.5)
    threshold = float(np.quantile(np.linalg.norm(evs.gradient[:30], axis=1), 1 / 3))
    points = [explain_mimic(mm, z, c, hessian_threshold=threshold) for z, c in zip(queries, labels)]
    for elements in chunkings(mm, block_rows):
        monkeypatch.setattr("localgrad.data._BLOCK_ELEMENTS", elements)
        evs = explain_mimic(mm, queries, labels, hessian_threshold=threshold)
        assert np.count_nonzero(evs.source == "hessian-fallback") >= 5
        for i, point in enumerate(points):
            assert_same_point_record(evs.row(i), point)


@pytest.mark.parametrize("seed", [55, 56, 57])
def test_rows_whose_products_exceed_the_numerator_64_fold_are_redone(monkeypatch, seed):
    # two clusters 300 apart, sigma 0.5: about either, the centred products carry about
    # 150 and exceed the numerator a few hundred-fold.  Redone, every row keeps 2e-14
    # relative; kept (a bound of 4096), rows lost 1.6e-13 to 4.5e-13
    rng = np.random.default_rng(seed)
    X = np.vstack([rng.normal(size=(40, 3)), rng.normal(size=(40, 3)) + [300.0, 0.0, 0.0]])
    mm = ParzenMimic(X, rng.integers(0, 2, size=80), 0.5)
    Z = np.vstack([X[:20], X[40:60]]) + rng.normal(scale=0.3, size=(40, 3))
    labels = rng.integers(0, 2, size=40)
    redone = redone_rows(monkeypatch)
    evs = explain_mimic(mm, Z, labels)
    assert redone
    for z, c, got in zip(Z, labels, evs.gradient):
        want = parzen_explanation_masked(mm.ref_x, mm.ref_labels, mm.sigma, z, c)
        assert np.linalg.norm(got - want) <= 2e-14 * np.linalg.norm(want)


def test_a_numerator_that_overflows_on_one_side_is_redone(monkeypatch):
    # in dimension 0 four references sit at 0.85e308 and one at -0.85e308, so the centre is
    # 0.  The three of class 1 at the queries sum their centred coordinate past the largest
    # double, while the query class 0's weight of about 0.5 keeps S_out P_in finite: the
    # numerator reads +inf, not NaN, and the rows are redone from z - x_i
    a, half = 0.85e308, np.sqrt(2 * np.log(2))
    X = np.array([[a, 0.0], [a, 0.1], [a, -0.1], [a, half], [-a, 0.0]])
    mm = ParzenMimic(X, [1, 1, 1, 0, 1], 1.0)
    Z, labels = np.array([[a, 0.0], [a, 0.3]]), [0, 0]
    redone = redone_rows(monkeypatch)
    evs = explain_mimic(mm, Z, labels)
    assert sorted(redone) == [0, 1] and np.isfinite(evs.gradient).all()
    with np.errstate(over="ignore"):  # the oracle squares the far differences
        for z, c, got in zip(Z, labels, evs.gradient):
            want = parzen_explanation_masked(mm.ref_x, mm.ref_labels, mm.sigma, z, c)
            assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)


def test_far_rows_are_never_redone(monkeypatch):
    # a far row weighs every reference by 1, so its centred products fail the ratio test,
    # but its quotient is 0 whatever they are: redone from z - x_i, this one's differences
    # from references at -1e308 would overflow
    rng = np.random.default_rng(68)
    X = np.column_stack([np.full(20, -1e308), rng.normal(size=20)])
    mm = ParzenMimic(X, rng.integers(0, 2, size=20), 0.5)
    Z = np.array([[1e308, 0.0], [-1e308, 0.2]])
    redone = redone_rows(monkeypatch)
    evs = explain_mimic(mm, Z, [0, 1])
    assert evs.far_field.tolist() == [True, False] and 0 not in redone
    assert np.array_equal(evs.gradient[0], np.zeros(2))


def test_references_near_the_largest_double_keep_their_centred_rows(monkeypatch):
    # every reference at 1.5e308 in dimension 0: min + max of the box would overflow, and an
    # infinite centre sent every row to the direct differences.  Halved before adding, the
    # centre is 1.5e308 and each row keeps the bits of the same set at 0
    rng = np.random.default_rng(65)
    X, Z = rng.normal(size=(30, 3)), rng.normal(size=(20, 3))
    X[:, 0] = Z[:, 0] = 0.0
    y, labels = np.resize([1, 2, 3], 30), rng.integers(1, 4, size=20)
    want = explain_mimic(ParzenMimic(X, y, 0.8), Z, labels)
    X[:, 0] = Z[:, 0] = 1.5e308
    redone = redone_rows(monkeypatch)
    evs = explain_mimic(ParzenMimic(X, y, 0.8), Z, labels)
    assert redone == []
    assert evs.gradient.tobytes() == want.gradient.tobytes()


@pytest.mark.parametrize("m", [7, 800, 5000])
def test_gradient_pass_weighs_a_block_of_rows_per_weight_call(monkeypatch, m):
    # the gradient chunk holds the weights alone, 2**15 // m rows; the probability
    # column's parzen_posterior_not makes the other calls, with the same blocks
    rng = np.random.default_rng(50)
    mm = ParzenMimic(rng.normal(size=(m, 7)), rng.integers(0, 2, size=m), 0.8)
    queries = rng.normal(size=(300, 7))
    labels = mimic_predict(mm, queries)
    median = float(np.median(np.linalg.norm(explain_mimic(mm, queries, labels).gradient, axis=1)))
    calls, weights = [], mimicmod._weights
    monkeypatch.setattr("localgrad.mimic._weights", lambda *args: calls.append(len(args[1])) or weights(*args))
    step = 2**15 // m
    for threshold in (None, median):  # the Hessian rows reuse their chunk's weights
        calls.clear()
        evs = explain_mimic(mm, queries, labels, hessian_threshold=threshold)
        assert calls == 2 * ([step] * (300 // step) + [300 % step] * (300 % step > 0))
    assert 100 < np.count_nonzero(evs.source == "hessian-fallback") <= 150


def test_hessian_is_formed_only_for_the_flagged_rows(monkeypatch):
    # rows under the threshold, far-field rows excepted, reach the chunk's Hessian step,
    # and no other row, in chunks of one row and of 7 rows, and in Hessian blocks of as many
    data = gen_three_clusters(120, seed=4)
    mm = ParzenMimic(data.features, data.labels, 0.6)
    Z = np.vstack([np.random.default_rng(48).normal(size=(40, 2)), [[0.0, 0.0], [1e4, 1e4]]])
    labels = np.full(len(Z), 2)
    norms = np.linalg.norm(explain_mimic(mm, Z, labels).gradient, axis=1)
    threshold = float(np.median(norms))
    flagged = np.flatnonzero(norms < threshold)[:-1].tolist()  # the far-field row has norm 0
    assert 40 in flagged and 41 not in flagged
    want = [chunk_hessian(mm, Z[i], 2) for i in flagged]
    formed, hessians = [], mimicmod._hessians

    def kept(*args):
        formed.append(hessians(*args))
        return formed[-1]

    monkeypatch.setattr("localgrad.mimic._hessians", kept)
    for elements in [*chunkings(mm, 1), *chunkings(mm, 7)]:
        formed.clear()
        monkeypatch.setattr("localgrad.data._BLOCK_ELEMENTS", elements)
        evs = explain_mimic(mm, Z, labels, hessian_threshold=threshold)
        assert np.array_equal(np.concatenate(formed) / mm.sigma**2, want)  # the flagged rows' Hessians, in order
        assert np.flatnonzero(evs.source == "hessian-fallback").tolist() == flagged


@pytest.mark.parametrize("block_rows", [1, 7])
def test_flagged_rows_with_a_zero_hessian_keep_their_gradient(monkeypatch, block_rows):
    # ten class-1 references 50 away from the three clusters: around them every other
    # weight underflows to exactly 0, so p(y != 1), its gradient and its Hessian are 0
    data = gen_three_clusters(120, seed=4)
    lone = np.random.default_rng(53).normal(scale=0.5, size=(10, 2)) + [50.0, 0.0]
    mm = ParzenMimic(np.vstack([data.features, lone]), np.concatenate([data.labels, [1] * 10]), 0.6)
    Z = np.array([[0.0, 0.0], [50.1, 0.2], [1.0, 0.0], [49.5, -0.3], [50.0, 0.0], [1e4, 1e4]])
    labels = [2, 1, 2, 1, 1, 1]
    for z in Z[[1, 3, 4]]:
        assert np.array_equal(chunk_hessian(mm, z, 1), np.zeros((2, 2)))
    points = [explain_mimic(mm, z, c, hessian_threshold=1e-6) for z, c in zip(Z, labels)]
    for elements in chunkings(mm, block_rows):
        monkeypatch.setattr("localgrad.data._BLOCK_ELEMENTS", elements)
        evs = explain_mimic(mm, Z, labels, hessian_threshold=1e-6)
        assert evs.source.tolist() == ["hessian-fallback"] + ["parzen-mimic"] * 5
        assert evs.far_field.tolist() == [False] * 5 + [True]
        assert np.array_equal(evs.gradient[[1, 3, 4]], np.zeros((3, 2)))
        assert np.array_equal(evs.predicted_probability[[1, 3, 4]], np.zeros(3))
        for i, point in enumerate(points):
            assert_same_point_record(evs.row(i), point)


def test_block_explanation_memory_stays_in_chunks(traced):
    # a 2000 x 800 x 7 difference tensor alone would take 90 MB; the chunked
    # pass, its 2000-row record included, peaked at 0.90 MB when this bound was set.
    # A threshold that sends half the rows to the Hessian copies no more than a chunk
    rng = np.random.default_rng(49)
    mm = ParzenMimic(rng.normal(size=(800, 7)), rng.integers(0, 2, size=800), 0.8)
    queries = rng.normal(size=(2000, 7))
    labels = rng.integers(0, 2, size=2000)
    median = float(np.median(np.linalg.norm(explain_mimic(mm, queries, labels).gradient, axis=1)))
    for threshold in (None, median):
        with traced() as peak:
            evs = explain_mimic(mm, queries, labels, hessian_threshold=threshold)
            used = peak()
        assert used < 1.5e6
    assert np.count_nonzero(evs.source == "hessian-fallback") == 1000


def test_query_shapes_and_label_counts_are_checked():
    mm = random_mimic(np.random.default_rng(50), m=20, d=2)
    for call in (mimic_predict, lambda mm, x: parzen_posterior_not(mm, x, 1)):
        with pytest.raises(ValueError, match=re.escape("dimension 2 or a q x 2 block, got shape ()")):
            call(mm, 1.0)
    with pytest.raises(ValueError, match=re.escape("got shape (5, 3)")):
        mimic_predict(mm, np.zeros((5, 3)))
    for call in (parzen_posterior_not, explain_mimic):
        with pytest.raises(ValueError, match="got 3 labels for 5 queries"):
            call(mm, np.zeros((5, 2)), [1, 2, 1])
        with pytest.raises(ValueError, match=re.escape("got shape (5, 3)")):
            call(mm, np.zeros((5, 3)), np.ones(5, dtype=int))


@pytest.mark.parametrize("threshold", [0.0, -1.0, np.nan])
def test_hessian_threshold_must_be_positive(threshold):
    # unchecked, a NaN threshold sent this gradient of norm 0.84 to the Hessian
    data = gen_three_clusters(120, seed=4)
    mm = ParzenMimic(data.features, data.labels, 0.6)
    z = np.array([1.0, 0.3])
    assert np.linalg.norm(explain_mimic(mm, z, 2).gradient) == pytest.approx(0.84, abs=0.01)
    with pytest.raises(ValueError, match="hessian_threshold must be positive, got"):
        explain_mimic(mm, z, 2, hessian_threshold=threshold)


@pytest.mark.parametrize("scale", [1e-160, 1e-150, 1e-90, 1e-80, 1e-76, 1e76, 1e77, 1e100, 6e152, 1e154])
def test_explanations_are_invariant_under_scaling_data_and_sigma(scale):
    # references, queries and sigma scaled together divide every gradient by the scale and
    # leave every Hessian direction as it is, wherever sigma**2 and m**2 sigma**2 are normal
    # doubles: at m = 20, for sigma from about 1.5e-154 to 6.7e152.  The sigma**4 that H once
    # divided by was refused beyond about 1e-77 and 1e77; unrefused, the directions drifted at
    # 1e-80 and read NaN at 1e-90.  Beyond the range sigma is refused: unrefused, the
    # gradients were off by 2.7e-4 relative at 1e-160 and all 0 at 1e154
    rng = np.random.default_rng(64)
    X, y, Z = rng.normal(size=(20, 2)), rng.integers(0, 2, size=20), rng.normal(size=(3, 2))
    mm = ParzenMimic(X, y, 1.0)
    labels = mimic_predict(mm, Z)
    gradients = explain_mimic(mm, Z, labels).gradient
    directions = explain_mimic(mm, Z, labels, hessian_threshold=1e300).gradient
    if scale in (1e-160, 1e154):
        message = f"sigma must be positive, {RULE} for 20 references, got {scale}"
        with pytest.raises(ValueError, match=re.escape(message)):
            ParzenMimic(X * scale, y, scale)
        return
    mm = ParzenMimic(X * scale, y, scale)
    np.testing.assert_allclose(explain_mimic(mm, Z * scale, labels).gradient * scale, gradients, rtol=1e-12)
    evs = explain_mimic(mm, Z * scale, labels, hessian_threshold=1e300)
    assert (evs.source == "hessian-fallback").all()
    np.testing.assert_allclose(evs.gradient, directions, rtol=1e-12)


def test_parzen_mimic_validation():
    with pytest.raises(ValueError):
        ParzenMimic(np.array([[0.0]]), np.array([1]), 0.0)
    with pytest.raises(ValueError):
        ParzenMimic(np.array([[0.0], [1.0]]), np.array([1]), 1.0)
    with pytest.raises(ValueError, match="nonempty"):  # select_width rejects an empty set through it
        ParzenMimic(np.zeros((0, 2)), np.zeros(0, dtype=int), 1.0)
