import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist

from localgrad.kernels import (
    KernelSpec,
    kernel_diag,
    kernel_from_dict,
    kernel_grad_matrix,
    kernel_gram,
    kernel_to_dict,
    kernel_vector,
)
from oracles import fd_gradient, kernel_pair, kernel_pair_grad


def all_specs():
    return [
        KernelSpec("rbf", width=1.0),
        KernelSpec("rbf", width=0.37),
        KernelSpec("linear"),
        KernelSpec("rational-quadratic", rq_alpha=1.5, rq_length=0.8),
        KernelSpec("rational-quadratic", rq_alpha=4.0, rq_length=2.0),
    ]


def test_rbf_identical_points_is_one():
    spec = KernelSpec("rbf", width=1.0)
    x = np.array([0.3, -2.0])
    assert kernel_pair(spec, x, x) == 1.0


def test_rbf_unit_separation():
    spec = KernelSpec("rbf", width=1.0)
    assert kernel_pair(spec, np.array([0.0]), np.array([1.0])) == pytest.approx(
        np.exp(-1.0), rel=1e-15
    )


def test_linear_is_dot_product():
    spec = KernelSpec("linear")
    assert kernel_pair(spec, np.array([1.0, 2.0]), np.array([3.0, 4.0])) == 11.0


def test_rational_quadratic_closed_form():
    spec = KernelSpec("rational-quadratic", rq_alpha=2.0, rq_length=0.5)
    x = np.array([0.4, -0.1])
    y = np.array([-0.2, 0.3])
    sq = np.sum((x - y) ** 2)
    expected = (1.0 + sq / (2.0 * 2.0 * 0.25)) ** -2.0
    assert kernel_pair(spec, x, y) == pytest.approx(expected, rel=1e-14)


def test_symmetry_all_kinds():
    rng = np.random.default_rng(7)
    for spec in all_specs():
        for _ in range(20):
            x, y = rng.normal(size=(2, 3))
            assert kernel_pair(spec, x, y) == pytest.approx(
                kernel_pair(spec, y, x), rel=1e-14, abs=1e-300
            )


def test_rbf_grad_at_identical_points_is_zero():
    spec = KernelSpec("rbf", width=2.5)
    x = np.array([1.0, -3.0, 0.5])
    assert np.array_equal(kernel_pair_grad(spec, x, x), np.zeros(3))


def test_rbf_grad_known_value():
    spec = KernelSpec("rbf", width=1.0)
    g = kernel_pair_grad(spec, np.array([0.0]), np.array([1.0]))
    assert g[0] == pytest.approx(2.0 * np.exp(-1.0), rel=1e-14)


def test_grad_matches_finite_differences_many_triples():
    # >= 100 random (spec, x, y) triples across all three kinds
    rng = np.random.default_rng(42)
    checked = 0
    for spec in all_specs():
        for _ in range(30):
            d = rng.integers(1, 6)
            x = rng.normal(scale=1.5, size=d)
            y = rng.normal(scale=1.5, size=d)
            got = kernel_pair_grad(spec, x, y)
            want = fd_gradient(lambda p: kernel_pair(spec, p, y), x)
            scale = max(np.linalg.norm(want), 1e-8)
            assert np.linalg.norm(got - want) / scale < 1e-6
            checked += 1
    assert checked >= 100


def test_grad_antisymmetry_translation_invariant_kinds():
    rng = np.random.default_rng(3)
    for spec in all_specs():
        if spec.kind == "linear":
            continue
        for _ in range(25):
            x, y = rng.normal(size=(2, 4))
            np.testing.assert_allclose(
                kernel_pair_grad(spec, x, y), -kernel_pair_grad(spec, y, x), rtol=1e-13
            )


def test_linear_grad_is_other_point():
    spec = KernelSpec("linear")
    x = np.array([0.1, 0.2])
    y = np.array([-3.0, 5.0])
    assert np.array_equal(kernel_pair_grad(spec, x, y), y)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.floats(-5, 5), min_size=2, max_size=4),
    st.lists(st.floats(-5, 5), min_size=2, max_size=4),
    st.floats(0.05, 10.0),
)
def test_rbf_value_range_property(xs, ys, w):
    d = min(len(xs), len(ys))
    x = np.array(xs[:d])
    y = np.array(ys[:d])
    spec = KernelSpec("rbf", width=w)
    v = kernel_pair(spec, x, y)
    assert 0.0 <= v <= 1.0
    if w * np.sum((x - y) ** 2) < 700:  # within float range, strictly positive
        assert v > 0.0


def test_gram_psd_small_random_sets():
    rng = np.random.default_rng(11)
    for spec in all_specs():
        pts = rng.normal(size=(12, 3))
        K = kernel_gram(spec, pts)
        assert np.array_equal(K, K.T)
        assert np.linalg.eigvalsh(K).min() > -1e-8


def test_gram_exact_for_near_duplicates_far_from_origin():
    # |a|^2 + |b|^2 - 2 a.b cancels to 0 here, giving K = 1 instead of exp(-1)
    spec = KernelSpec("rbf", width=1e12)
    pts = np.array([[1000.0, 1000.0], [1000.0, 1000.0 + 1e-6]])
    K = kernel_gram(spec, pts)
    expected = np.exp(-spec.width * np.sum((pts[0] - pts[1]) ** 2))
    assert 0.36 < expected < 0.37
    np.testing.assert_allclose([K[0, 1], K[1, 0]], expected, rtol=1e-12)
    assert K[0, 0] == K[1, 1] == 1.0


@pytest.mark.parametrize("d", [2, 5, 24])
def test_gram_exactly_symmetric_with_rows_equal_to_kernel_vector(d):
    rng = np.random.default_rng(d)
    pts = rng.normal(scale=3.0, size=(40, d))
    for spec in all_specs():
        K = kernel_gram(spec, pts)
        assert np.array_equal(K, K.T)
        for i in range(len(pts)):
            assert np.array_equal(K[i], kernel_vector(spec, pts[i : i + 1], pts)[0])


def test_rbf_gram_in_one_buffer_bit_equal_to_textbook_form(traced):
    n = 200
    pts = np.random.default_rng(13).normal(scale=2.0, size=(n, 4))
    for w in (0.37, 1.0, 25.0):
        with traced() as peak:
            K = kernel_gram(KernelSpec("rbf", width=w), pts)
            used = peak()
        assert np.array_equal(K, np.exp(-w * cdist(pts, pts, "sqeuclidean")))
        assert used < 1.5 * n * n * 8  # the squared distances are scaled and exponentiated in place


@pytest.mark.parametrize(
    "spec",
    [KernelSpec("rbf", width=0.3)]
    + [KernelSpec("rational-quadratic", rq_alpha=a, rq_length=1.3) for a in (0.5, 0.7, 1.0, 2.0)],
)
def test_grad_matrix_in_place_bit_equal_to_textbook_form(traced, spec):
    # K, the derivative and J: two q x n arrays and J's d of them, plus the ufunc
    # buffers of one broadcast product. A fresh array per step took 5.4 (rbf) and
    # 7.4 (rational-quadratic) q x n arrays
    q, n, d = 200, 300, 2
    rng = np.random.default_rng(14)
    A, B = rng.normal(scale=2.0, size=(q, d)), rng.normal(scale=2.0, size=(n, d))
    with traced() as peak:
        K_pass, J = kernel_grad_matrix(spec, A, B)
        used = peak()
    sq = cdist(A, B, "sqeuclidean")
    if spec.kind == "rbf":
        K = np.exp(-spec.width * sq)
        dK = -spec.width * K
    else:
        base = 1.0 + sq / (2.0 * spec.rq_alpha * spec.rq_length**2)
        K = base**-spec.rq_alpha
        dK = -0.5 * base ** -(spec.rq_alpha + 1.0) / spec.rq_length**2
    assert np.array_equal(K_pass, K) and np.array_equal(kernel_vector(spec, A, B), K)
    assert np.array_equal(J, (A[:, None, :] - B[None, :, :]) * (2.0 * dK)[:, :, None])
    assert used < (d + 2.5) * q * n * 8


def test_gram_matches_pairwise_eval():
    spec = KernelSpec("rational-quadratic", rq_alpha=1.0, rq_length=1.3)
    rng = np.random.default_rng(5)
    pts = rng.normal(size=(6, 2))
    K = kernel_gram(spec, pts)
    for i in range(6):
        for j in range(6):
            assert K[i, j] == pytest.approx(
                kernel_pair(spec, pts[i], pts[j]), rel=1e-12, abs=1e-15
            )


def test_kernel_vector_and_grad_matrix_consistency():
    # each entry depends on its own pair only: a block of points gives the pair's bits
    rng = np.random.default_rng(9)
    pts = rng.normal(size=(8, 3))
    x0 = rng.normal(size=3)
    for spec in all_specs():
        kv = kernel_vector(spec, x0[None], pts)[0]
        J = kernel_grad_matrix(spec, x0[None], pts)[1][0]
        assert kv.shape == (8,)
        assert J.shape == (8, 3)
        for i in range(8):
            assert kv[i] == kernel_pair(spec, x0, pts[i])
            assert np.array_equal(J[i], kernel_pair_grad(spec, x0, pts[i]))


@pytest.mark.parametrize("block_rows", [1, 7])
def test_block_rows_equal_point_calls(block_rows):
    # blocks of one row, each a point's call, and of 7 rows, which does not divide the 30 queries
    rng = np.random.default_rng(41)
    pts = rng.normal(size=(25, 4))
    queries = rng.normal(scale=2.0, size=(30, 4))
    for spec in all_specs():
        K = kernel_vector(spec, queries, pts)
        K_pass, J = kernel_grad_matrix(spec, queries, pts)
        assert K.shape == (30, 25) and J.shape == (30, 25, 4)
        assert np.array_equal(K_pass, K)
        for lo in range(0, len(queries), block_rows):
            rows = slice(lo, lo + block_rows)
            assert np.array_equal(kernel_vector(spec, queries[rows], pts), K[rows])
            for got, want in zip(kernel_grad_matrix(spec, queries[rows], pts), (K[rows], J[rows])):
                assert np.array_equal(got, want)


def test_kernel_diag_matches_pair_eval_and_finite_differences():
    rng = np.random.default_rng(42)
    X = rng.normal(size=(6, 3))
    for spec in all_specs():
        values, grads = kernel_diag(spec, X)
        for x, v, g in zip(X, values, grads):
            assert v == pytest.approx(kernel_pair(spec, x, x), rel=1e-15)
            want = fd_gradient(lambda p: kernel_pair(spec, p, p), x)
            np.testing.assert_allclose(g, want, rtol=1e-8, atol=1e-9)


def test_dimension_mismatch_errors():
    spec = KernelSpec("rbf", width=1.0)
    for call in (kernel_vector, kernel_grad_matrix):
        with pytest.raises(ValueError, match="dimension mismatch"):
            call(spec, np.array([[1.0]]), np.array([[1.0, 2.0]]))
        with pytest.raises(ValueError, match="dimension mismatch"):
            call(spec, np.array([[1.0, 2.0, 3.0]]), np.array([[1.0, 2.0]]))
        with pytest.raises(ValueError, match="points must be a 2-d array"):
            call(spec, np.array([[1.0, 2.0]]), np.array([1.0, 2.0]))
        # the queries are a q x d block: a point is a block of one row
        with pytest.raises(ValueError, match="X must be a 2-d array"):
            call(spec, np.array([1.0, 2.0]), np.array([[1.0, 2.0]]))


def test_invalid_parameters_rejected_at_construction():
    with pytest.raises(ValueError):
        KernelSpec("rbf", width=0.0)
    with pytest.raises(ValueError):
        KernelSpec("rbf", width=-1.0)
    with pytest.raises(ValueError):
        KernelSpec("rational-quadratic", rq_alpha=-2.0, rq_length=1.0)
    with pytest.raises(ValueError):
        KernelSpec("rational-quadratic", rq_alpha=1.0, rq_length=0.0)
    with pytest.raises(ValueError):
        KernelSpec("cubic")


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")], ids=["nan", "+inf", "-inf"])
@pytest.mark.parametrize("kind", ["rbf", "linear", "rational-quadratic"])
def test_non_finite_parameters_rejected_by_name(kind, value):
    # an unused parameter must be finite too: it is written into the model JSON
    for field, name in (("width", "width"), ("rq_alpha", "alpha"), ("rq_length", "length")):
        with pytest.raises(ValueError, match=f"kernel {name} must be finite"):
            KernelSpec(kind, **{field: value})


def test_json_round_trip_all_kinds():
    for spec in all_specs():
        blob = json.dumps(kernel_to_dict(spec), sort_keys=True)
        back = kernel_from_dict(json.loads(blob))
        assert back == spec


def test_json_keys_match_contract():
    d = kernel_to_dict(KernelSpec("rational-quadratic", rq_alpha=2.0, rq_length=0.5))
    assert set(d) == {"kind", "w", "alpha", "length"}
    assert d["kind"] == "rational-quadratic"
    assert d["alpha"] == 2.0 and d["length"] == 0.5
    d = kernel_to_dict(KernelSpec("rbf", width=3.0))
    assert d["kind"] == "rbf" and d["w"] == 3.0


def test_from_dict_rejects_unknown_kind():
    with pytest.raises(ValueError):
        kernel_from_dict({"kind": "polynomial", "degree": 3})
