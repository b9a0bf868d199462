import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from localgrad.kernels import (
    KernelSpec,
    kernel_eval,
    kernel_from_dict,
    kernel_grad_matrix,
    kernel_grad_x,
    kernel_gram,
    kernel_to_dict,
    kernel_vector,
)
from oracles import fd_gradient


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
    assert kernel_eval(spec, x, x) == 1.0


def test_rbf_unit_separation():
    spec = KernelSpec("rbf", width=1.0)
    assert kernel_eval(spec, np.array([0.0]), np.array([1.0])) == pytest.approx(
        np.exp(-1.0), rel=1e-15
    )


def test_linear_is_dot_product():
    spec = KernelSpec("linear")
    assert kernel_eval(spec, np.array([1.0, 2.0]), np.array([3.0, 4.0])) == 11.0


def test_rational_quadratic_closed_form():
    spec = KernelSpec("rational-quadratic", rq_alpha=2.0, rq_length=0.5)
    x = np.array([0.4, -0.1])
    y = np.array([-0.2, 0.3])
    sq = np.sum((x - y) ** 2)
    expected = (1.0 + sq / (2.0 * 2.0 * 0.25)) ** -2.0
    assert kernel_eval(spec, x, y) == pytest.approx(expected, rel=1e-14)


def test_symmetry_all_kinds():
    rng = np.random.default_rng(7)
    for spec in all_specs():
        for _ in range(20):
            x, y = rng.normal(size=(2, 3))
            assert kernel_eval(spec, x, y) == pytest.approx(
                kernel_eval(spec, y, x), rel=1e-14, abs=1e-300
            )


def test_rbf_grad_at_identical_points_is_zero():
    spec = KernelSpec("rbf", width=2.5)
    x = np.array([1.0, -3.0, 0.5])
    assert np.array_equal(kernel_grad_x(spec, x, x), np.zeros(3))


def test_rbf_grad_known_value():
    spec = KernelSpec("rbf", width=1.0)
    g = kernel_grad_x(spec, np.array([0.0]), np.array([1.0]))
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
            got = kernel_grad_x(spec, x, y)
            want = fd_gradient(lambda p: kernel_eval(spec, p, y), x)
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
                kernel_grad_x(spec, x, y), -kernel_grad_x(spec, y, x), rtol=1e-13
            )


def test_linear_grad_is_other_point():
    spec = KernelSpec("linear")
    x = np.array([0.1, 0.2])
    y = np.array([-3.0, 5.0])
    assert np.array_equal(kernel_grad_x(spec, x, y), y)


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
    v = kernel_eval(spec, x, y)
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
            assert np.array_equal(K[i], kernel_vector(spec, pts[i], pts))


def test_gram_matches_pairwise_eval():
    spec = KernelSpec("rational-quadratic", rq_alpha=1.0, rq_length=1.3)
    rng = np.random.default_rng(5)
    pts = rng.normal(size=(6, 2))
    K = kernel_gram(spec, pts)
    for i in range(6):
        for j in range(6):
            assert K[i, j] == pytest.approx(
                kernel_eval(spec, pts[i], pts[j]), rel=1e-12, abs=1e-15
            )


def test_kernel_vector_and_grad_matrix_consistency():
    spec = KernelSpec("rbf", width=0.7)
    rng = np.random.default_rng(9)
    pts = rng.normal(size=(8, 3))
    x0 = rng.normal(size=3)
    kv = kernel_vector(spec, x0, pts)
    J = kernel_grad_matrix(spec, x0, pts)
    assert kv.shape == (8,)
    assert J.shape == (8, 3)
    for i in range(8):
        assert kv[i] == pytest.approx(kernel_eval(spec, x0, pts[i]), rel=1e-14)
        np.testing.assert_allclose(J[i], kernel_grad_x(spec, x0, pts[i]), rtol=1e-14)


def test_dimension_mismatch_errors():
    spec = KernelSpec("rbf", width=1.0)
    with pytest.raises(ValueError):
        kernel_eval(spec, np.array([1.0]), np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        kernel_grad_x(spec, np.array([1.0, 2.0, 3.0]), np.array([1.0, 2.0]))


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
