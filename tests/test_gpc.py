import io
import json
import re
import warnings

import numpy as np
import pytest
from scipy.linalg import cholesky, solve_triangular

from localgrad import gpc, kernels
from localgrad.data import ExplanationVector, gen_nonlinear, gen_triangle
from localgrad.gpc import (
    GpcModel,
    _add_jitter,
    _predictive,
    _recompute_posterior,
    ep_fit,
    explain_gpc,
    load_gpc,
    model_from_dict,
    model_to_dict,
    predict_proba,
    save_gpc,
)
from localgrad.kernels import KernelSpec, kernel_gram, kernel_to_dict
from oracles import (
    assert_same_point_record,
    ep_posterior_gpml,
    ep_posterior_mean_mp,
    ep_sequential_oracle,
    erfc_oracle,
    fd_gradient,
    latent_moments_dense,
    latent_variance_dense,
)


@pytest.fixture(scope="module")
def symmetric_pair():
    X = np.array([[-1.0], [1.0]])
    y = np.array([-1, 1])
    return ep_fit(X, y, KernelSpec("rbf", width=1.0))


def test_symmetric_pair_alpha_antisymmetric(symmetric_pair):
    model = symmetric_pair
    assert model.converged
    assert abs(model.alpha[0] + model.alpha[1]) < 1e-6


def test_symmetric_pair_probability_half_at_midpoint(symmetric_pair):
    assert predict_proba(symmetric_pair, np.array([0.0])) == pytest.approx(0.5, abs=1e-6)


def test_symmetric_pair_latent_mean_zero_at_midpoint(symmetric_pair):
    (mean,), (var,) = _predictive(symmetric_pair, np.array([[0.0]]))
    assert abs(mean) < 1e-6
    assert var >= 0.0


def test_symmetric_pair_gradient_points_toward_positive_class(symmetric_pair):
    ev = explain_gpc(symmetric_pair, np.array([0.0]))
    assert ev.gradient.shape == (1,)
    assert ev.gradient[0] > 0.0
    assert ev.source == "analytic-gpc"


def test_triangle_training_labels_recovered(triangle_gpc):
    data, model = triangle_gpc
    assert model.converged
    preds = np.array(
        [1 if predict_proba(model, x) > 0.5 else -1 for x in data.features]
    )
    err = np.mean(preds != data.labels)
    assert err <= 0.05


def test_contradictory_pair_probability_half():
    X = np.array([[0.5, 0.5], [0.5, 0.5]])
    y = np.array([-1, 1])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        model = ep_fit(X, y, KernelSpec("rbf", width=1.0))
    assert (not model.converged) or predict_proba(
        model, np.array([0.5, 0.5])
    ) == pytest.approx(0.5, abs=1e-3)


def test_far_field_latent_is_prior():
    X = np.array([[-1.0, 0.0], [1.0, 0.0]])
    y = np.array([-1, 1])
    model = ep_fit(X, y, KernelSpec("rbf", width=1.0))
    (mean,), (var,) = _predictive(model, np.array([[500.0, 500.0]]))
    assert abs(mean) < 1e-12
    assert var == pytest.approx(1.0, abs=1e-12)
    assert predict_proba(model, np.array([500.0, 500.0])) == pytest.approx(0.5)


def test_far_field_gradients_vanish():
    X = np.array([[-1.0, 0.0], [1.0, 0.0]])
    y = np.array([-1, 1])
    model = ep_fit(X, y, KernelSpec("rbf", width=1.0))
    _, _, (gm,), (gv,) = _predictive(model, np.array([[40.0, -40.0]]), grad=True)
    assert np.linalg.norm(gm) < 1e-6
    assert np.linalg.norm(gv) < 1e-6


def test_variance_matches_dense_inverse_oracle(triangle_gpc):
    data, model = triangle_gpc
    rng = np.random.default_rng(0)
    for _ in range(25):
        x0 = rng.uniform(-2, 2, size=2)
        _, (var,) = _predictive(model, x0[None])
        want = latent_variance_dense(model, x0)
        assert abs(var - want) < 1e-8


def test_probability_bounds_on_grid(triangle_gpc):
    _, model = triangle_gpc
    g = np.linspace(-2.5, 2.5, 100)
    P = np.array([predict_proba(model, np.array([a, b])) for a in g for b in g])
    assert P.size == 10**4
    assert np.all(P >= 0.0) and np.all(P <= 1.0)


@pytest.mark.parametrize("z, var_cav, floored", [(-1e4, 1e4, True), (-2e4, 5.0, False)], ids=["floor", "clamp"])
def test_sites_far_on_the_wrong_side_keep_a_sharp_nonnegative_precision(z, var_cav, floored):
    # a cavity 1e4 standard deviations or more on the wrong side of its label: N(z)/Phi(z)
    # is about -z and the tilted variance cancels to rounding.  Unguarded, the first read
    # -6141, which left the site flat (precision 0) where the floor makes it sharp; the
    # second read above the cavity's variance, which gave a site precision of -0.17
    tau_cav = np.array([1.0 / var_cav])
    nu_cav = z * np.sqrt(1.0 + var_cav) * tau_cav
    site_tau, site_nu = gpc._site_targets(tau_cav, nu_cav, np.array([1.0]))
    assert site_tau[0] >= 0 and np.isfinite(site_nu).all()
    assert (site_tau[0] > 1e13) == floored


def test_probit_link_value_against_erfc_oracle():
    # unit latent mean with zero predictive variance -> standard normal CDF at 1
    X = np.array([[-1.0], [1.0]])
    y = np.array([-1, 1])
    model = ep_fit(X, y, KernelSpec("rbf", width=1.0))
    # engineered check of the link formula itself
    fbar, s = 1.0, 1.0
    p = 0.5 * erfc_oracle(-fbar / np.sqrt(2.0 * s))
    assert p == pytest.approx(0.841344746068543, abs=1e-12)
    # and the model's own output respects the same formula
    x0 = np.array([0.3])
    (mean,), (var,) = _predictive(model, x0[None])
    want = 0.5 * erfc_oracle(-mean / np.sqrt(2.0 * (1.0 + var)))
    assert predict_proba(model, x0) == pytest.approx(want, abs=1e-12)


def test_grad_latent_matches_finite_differences(triangle_gpc):
    data, model = triangle_gpc
    rng = np.random.default_rng(1)
    for _ in range(20):
        x0 = rng.uniform(-1.5, 1.5, size=2)
        _, _, (gm,), (gv,) = _predictive(model, x0[None], grad=True)
        fm = fd_gradient(lambda p: _predictive(model, p[None])[0][0], x0)
        fv = fd_gradient(lambda p: _predictive(model, p[None])[1][0], x0)
        assert np.linalg.norm(gm - fm) / max(np.linalg.norm(fm), 1e-10) < 1e-6
        assert np.linalg.norm(gv - fv) / max(np.linalg.norm(fv), 1e-10) < 1e-6


def test_explain_matches_finite_differences_all_kernels():
    data = gen_triangle(40, seed=7)
    rng = np.random.default_rng(2)
    kernels = [
        KernelSpec("rbf", width=1.0),
        KernelSpec("linear"),
        KernelSpec("rational-quadratic", rq_alpha=2.0, rq_length=1.0),
    ]
    for spec in kernels:
        model = ep_fit(data.features, data.labels, spec)
        for _ in range(15):
            x0 = rng.uniform(-1.5, 1.5, size=2)
            ev = explain_gpc(model, x0)
            want = fd_gradient(lambda p: predict_proba(model, p), x0, step=1e-4)
            norm = np.linalg.norm(want)
            if norm > 1e-8:
                assert np.linalg.norm(ev.gradient - want) / norm < 1e-5
            else:
                assert np.linalg.norm(ev.gradient - want) < 1e-9


def test_explanation_vector_fields(triangle_gpc):
    _, model = triangle_gpc
    x0 = np.array([0.1, -0.2])
    ev = explain_gpc(model, x0)
    assert np.array_equal(ev.query, x0)
    assert ev.gradient.shape == (2,)
    assert 0.0 <= ev.predicted_probability <= 1.0
    assert ev.predicted_label in (-1, 1)
    expected_label = 1 if ev.predicted_probability >= 0.5 else -1
    assert ev.predicted_label == expected_label
    assert ev.source == "analytic-gpc"
    assert ev.far_field is False


def test_label_flip_direction_first_order(triangle_gpc):
    data, model = triangle_gpc
    rng = np.random.default_rng(3)
    checked = 0
    for _ in range(60):
        x0 = rng.uniform(-1.8, 1.8, size=2)
        ev = explain_gpc(model, x0)
        norm = np.linalg.norm(ev.gradient)
        if norm <= 1e-4:
            continue
        step = 1e-3 * ev.gradient / norm
        p0 = predict_proba(model, x0)
        p1 = predict_proba(model, x0 + step)
        assert p1 > p0
        checked += 1
    assert checked >= 20


def test_hull_exterior_gradients_small(triangle_gpc):
    data, model = triangle_gpc
    span = data.features.max(axis=0) - data.features.min(axis=0)
    outside = data.features.max(axis=0) + 0.8 * span
    rng = np.random.default_rng(4)
    far_norms = []
    for _ in range(10):
        q = outside + rng.uniform(0, 0.4, size=2)
        far_norms.append(np.linalg.norm(explain_gpc(model, q).gradient))
    # boundary points: midpoints between nearest opposite-label pairs
    boundary_norms = []
    pos = data.features[data.labels == 1]
    neg = data.features[data.labels == -1]
    for p in pos[:20]:
        q = neg[np.argmin(np.linalg.norm(neg - p, axis=1))]
        boundary_norms.append(np.linalg.norm(explain_gpc(model, (p + q) / 2).gradient))
    assert max(far_norms) < 0.10 * np.median(boundary_norms)


def test_deep_interior_gradient_smaller_than_boundary():
    rng = np.random.default_rng(5)
    a = rng.normal([-3, 0], 0.4, size=(20, 2))
    b = rng.normal([3, 0], 0.4, size=(20, 2))
    X = np.vstack([a, b])
    y = np.array([-1] * 20 + [1] * 20)
    model = ep_fit(X, y, KernelSpec("rbf", width=0.5))
    deep = np.linalg.norm(explain_gpc(model, np.array([3.0, 0.0])).gradient)
    mid = np.linalg.norm(explain_gpc(model, np.array([0.0, 0.0])).gradient)
    assert deep < mid


def test_ep_validation_errors():
    with pytest.raises(ValueError):
        ep_fit(np.array([[0.0]]), np.array([1]), KernelSpec("rbf", width=1.0))
    with pytest.raises(ValueError):
        ep_fit(
            np.array([[0.0], [1.0]]), np.array([1, 1]), KernelSpec("rbf", width=1.0)
        )
    with pytest.raises(ValueError):
        ep_fit(
            np.array([[0.0], [1.0]]), np.array([0, 1]), KernelSpec("rbf", width=1.0)
        )


def test_site_variances_nonnegative(triangle_gpc):
    _, model = triangle_gpc
    assert np.all(model.site_variance >= 0.0)


def test_serialization_round_trip(tmp_path, triangle_gpc):
    data, model = triangle_gpc
    path = tmp_path / "model.json"
    save_gpc(model, path)
    back = load_gpc(path)
    rng = np.random.default_rng(6)
    for _ in range(10):
        x0 = rng.uniform(-2, 2, size=2)
        assert predict_proba(back, x0) == predict_proba(model, x0)
        np.testing.assert_array_equal(
            explain_gpc(back, x0).gradient, explain_gpc(model, x0).gradient
        )


def test_saved_model_is_the_streamed_json(tmp_path, triangle_gpc):
    # one json.dumps (the C encoder) writes the bytes that json.dump streams
    _, model = triangle_gpc
    path = tmp_path / "model.json"
    save_gpc(model, path)
    streamed = io.StringIO()
    json.dump(model_to_dict(model), streamed, sort_keys=True)
    assert path.read_text() == streamed.getvalue() + "\n"


@pytest.mark.parametrize("kernel", ["rbf", 5, None, ["rbf"]])
def test_model_from_dict_rejects_a_kernel_that_is_not_an_object(triangle_gpc, kernel):
    # "rbf" was read as its letters ['b', 'f', 'r'], and 5 or None raised a TypeError
    _, model = triangle_gpc
    blob = model_to_dict(model)
    blob["kernel"] = kernel
    with pytest.raises(ValueError, match=f"kernel JSON must be an object, got {type(kernel).__name__}$"):
        model_from_dict(blob)


def test_serialization_detects_tampering(tmp_path, triangle_gpc):
    _, model = triangle_gpc
    path = tmp_path / "model.json"
    save_gpc(model, path)
    blob = json.loads(path.read_text())
    blob["site_variance"] = [-0.5] * len(blob["site_variance"])
    path.write_text(json.dumps(blob))
    with pytest.raises(ValueError):
        load_gpc(path)


def test_ep_deterministic(triangle_gpc):
    data, model = triangle_gpc
    again = ep_fit(data.features, data.labels, KernelSpec("rbf", width=1.0))
    np.testing.assert_array_equal(model.alpha, again.alpha)
    np.testing.assert_array_equal(model.site_variance, again.site_variance)
    assert model.ep_iterations == again.ep_iterations


@pytest.mark.parametrize(
    "spec",
    [
        KernelSpec("rbf", width=1.0),
        KernelSpec("linear"),
        KernelSpec("rational-quadratic", rq_alpha=2.0, rq_length=1.0),
    ],
    ids=["rbf", "linear", "rational-quadratic"],
)
def test_ep_matches_sequential_oracle(spec):
    data = gen_triangle(40, seed=7)
    model = ep_fit(data.features, data.labels, spec)
    site_variance, alpha, _sweeps, converged = ep_sequential_oracle(
        data.features, data.labels, spec
    )
    assert model.converged and converged
    np.testing.assert_allclose(model.site_variance, site_variance, rtol=1e-4)
    oracle_model = model_from_dict(
        {
            "kernel": kernel_to_dict(spec),
            "train_x": data.features.tolist(),
            "train_y": data.labels.tolist(),
            "site_variance": site_variance.tolist(),
            "alpha": alpha.tolist(),
        }
    )
    rng = np.random.default_rng(11)
    for x0 in rng.uniform(-1.5, 1.5, size=(50, 2)):
        assert abs(predict_proba(model, x0) - predict_proba(oracle_model, x0)) < 1e-5


def test_ep_sweep_trace(triangle_gpc):
    _, model = triangle_gpc
    assert len(model.sweep_max_delta) == model.ep_iterations
    assert len(model.sweep_skipped) == model.ep_iterations
    assert model.sweep_max_delta[-1] < 1e-6 <= model.sweep_max_delta[-2]
    assert all(0 <= k <= len(model.train_x) for k in model.sweep_skipped)


def test_ep_non_convergence_reported():
    data = gen_triangle(20, seed=3)
    with pytest.warns(UserWarning, match="did not converge"):
        model = ep_fit(data.features, data.labels, KernelSpec("rbf", width=1.0), max_sweeps=1)
    assert model.converged is False
    assert model.ep_iterations == 1
    assert len(model.sweep_max_delta) == 1


def _nonlinear_with_noise(n=250, seed=1):
    """gen_nonlinear's disk and ring plus three Gaussian noise dimensions."""
    base = gen_nonlinear(n, seed)
    noise = np.random.default_rng([seed, 1]).normal(size=(n, 3))
    return np.hstack([base.features, noise]), base.labels


def _separable(scale):
    """200 standard normal 3-d points, scaled, labelled by the sign of feature 1."""
    X = np.random.default_rng(0).normal(size=(200, 3)) * scale
    return X, np.where(X[:, 0] > 0, 1, -1)


@pytest.mark.parametrize("scale", [30, 100])
def test_ep_converges_on_scaled_separable_linear(scale):
    model = ep_fit(*_separable(scale), KernelSpec("linear"))
    assert model.converged


def test_ep_converges_in_few_sweeps_on_nonlinear_rbf():
    # a fixed step of 0.5 took 24 sweeps here; the adaptive step takes 9
    model = ep_fit(*_nonlinear_with_noise(), KernelSpec("rbf", width=0.15))
    assert model.converged and model.ep_iterations <= 12


@pytest.mark.parametrize("case", ["rbf", "rational-quadratic", "linear-x100"])
def test_ep_tol_bounds_distance_to_fixed_point(case):
    if case == "rbf":
        X, y, spec = *_nonlinear_with_noise(), KernelSpec("rbf", width=0.15)
    elif case == "rational-quadratic":
        data = gen_triangle(40, seed=7)
        X, y, spec = data.features, data.labels, KernelSpec("rational-quadratic", rq_alpha=2.0, rq_length=1.0)
    else:
        X, y, spec = *_separable(100), KernelSpec("linear")
    tol = 1e-6
    ref = ep_fit(X, y, spec, tol=1e-11)
    assert ref.converged
    # measured worst case over these fits: |dtau| 1.79e-6, |dalpha| 1.79e-7
    model = ep_fit(X, y, spec, tol=tol)
    assert model.converged
    assert np.max(np.abs(1.0 / model.site_variance - 1.0 / ref.site_variance)) < 2.0 * tol
    assert np.max(np.abs(model.alpha - ref.alpha)) < 0.2 * tol


def test_ep_step_trace(triangle_gpc):
    _, model = triangle_gpc
    assert len(model.sweep_step) == model.ep_iterations
    assert model.sweep_step[0] == 1.0  # every fit starts undamped
    assert all(0.0 < s <= 1.0 for s in model.sweep_step)
    # here the residual grows in the first two sweeps, so the step halves twice, then grows
    halved = ep_fit(*_separable(100), KernelSpec("linear"))
    assert halved.sweep_step[:4] == [1.0, 0.5, 0.25, 0.3125]
    assert min(halved.sweep_step) < 0.5 < max(halved.sweep_step)


def test_ep_counts_floored_sites(triangle_gpc):
    assert triangle_gpc[1].floored_sites == 0
    # the far point's prior variance (1e14) leaves its cavity improper in every sweep
    X = np.array([[0.0, 1.0], [0.0, -1.0], [0.0, 2.0], [0.0, -2.0], [1e7, 0.0]])
    model = ep_fit(X, np.array([1, -1, 1, -1, 1]), KernelSpec("linear"))
    assert model.converged
    assert all(k == 1 for k in model.sweep_skipped)
    assert model.floored_sites == 1


@pytest.mark.parametrize("key", ["train_y", "alpha", "site_variance"])
def test_model_from_dict_rejects_length_mismatch(triangle_gpc, key):
    _, model = triangle_gpc
    blob = model_to_dict(model)
    blob[key] = blob[key][:-1]
    with pytest.raises(ValueError, match=f"{key} has"):
        model_from_dict(blob)


@pytest.mark.parametrize("shape", [(3,), (5,), (4, 1)], ids=["3", "5", "4x1"])
def test_ep_fit_rejects_a_label_count_that_differs_from_the_rows(shape):
    # unchecked, the labels met a mask over the rows (IndexError: boolean index did
    # not match), and (4, 1) labels a broadcast naming neither argument
    X = np.array([[0.0], [1.0], [2.0], [3.0]])
    y = np.resize([-1, 1], shape)
    with pytest.raises(ValueError, match=re.escape(f"train_y has shape {shape} but train_x has 4 rows")):
        ep_fit(X, y, KernelSpec("rbf", width=1.0))


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("train_x", [0.0, 1.0, 2.0, 3.0], "train_x must be a nonempty n x d matrix, got shape (4,)"),
        ("train_y", [0.5, 1.7, -1, 9], "label 0.5 is not an integer"),
        ("train_y", [1, 1, 1, 1], "train_y must contain both -1 and +1 and nothing else"),
        ("train_y", [[-1], [1], [-1], [1]], "train_y has shape (4, 1) but train_x has 4 rows"),
        # a model file's NaN token reached the Gram matrix's cholesky, whose error named nothing
        ("train_x", [[0.0], [1.0], [float("nan")], [3.0]], "train_x must be finite"),
        ("train_x", [[0.0], [float("inf")], [2.0], [3.0]], "train_x must be finite"),
        ("train_x", [[0.0], [1.0], [2.0], [-float("inf")]], "train_x must be finite"),
    ],
)
def test_model_from_dict_checks_the_training_set_as_ep_fit_does(key, value, message):
    # a model file's training set meets ep_fit's rule: these labels once loaded,
    # cast to int, as [0, 1, -1, 9]
    X = np.array([[0.0], [1.0], [2.0], [3.0]])
    blob = model_to_dict(ep_fit(X, np.array([-1, 1, -1, 1]), KernelSpec("rbf")))
    blob[key] = value
    with pytest.raises(ValueError, match=re.escape(message)):
        model_from_dict(blob)
    with pytest.raises(ValueError, match=re.escape(message)):
        ep_fit(blob["train_x"], blob["train_y"], KernelSpec("rbf"))


@pytest.mark.parametrize(
    "key, index, value, message",
    [
        ("site_variance", 2, -1e-9, "site_variance entries must be nonnegative"),
        ("alpha", 1, float("nan"), "alpha yields non-finite latent means on the training set"),
    ],
    ids=["site_variance", "alpha"],
)
def test_model_from_dict_refuses_a_site_or_weight_no_fit_gives(key, index, value, message):
    # the jitter of 1e-8 keeps K + diag(s) definite under a site variance of -1e-9, and
    # the factor never reads alpha: unchecked, both loaded, and the NaN predicted NaN
    X = np.array([[0.0], [1.0], [2.0], [3.0]])
    blob = model_to_dict(ep_fit(X, np.array([-1, 1, -1, 1]), KernelSpec("rbf")))
    blob[key][index] = value
    with pytest.raises(ValueError, match=re.escape(message)):
        model_from_dict(blob)


def test_ep_fit_refuses_a_gram_matrix_that_is_not_positive_definite(monkeypatch):
    # symmetric with eigenvalues 3 and -1: the jitter cannot make it definite
    monkeypatch.setattr(gpc, "kernel_gram", lambda spec, X: np.array([[1.0, 2.0], [2.0, 1.0]]))
    with pytest.raises(ValueError, match="Gram matrix is not positive definite after jitter"):
        ep_fit(np.array([[0.0], [1.0]]), np.array([-1, 1]), KernelSpec("rbf"))


FACTOR_SPECS = [KernelSpec("rbf", width=0.8), KernelSpec("linear"), KernelSpec("rational-quadratic", rq_alpha=0.7)]


def loaded_model(spec, X, site_variance):
    """A model loaded from a file holding X, these site variances, alternating labels and zero weights."""
    n = len(X)
    return model_from_dict(
        {
            "kernel": kernel_to_dict(spec),
            "train_x": X.tolist(),
            "train_y": np.resize([-1, 1], n).tolist(),
            "site_variance": site_variance.tolist(),
            "alpha": np.zeros(n).tolist(),
        }
    )


@pytest.mark.parametrize("sites", ["1e-10", "1e10", "mixed"])
@pytest.mark.parametrize("spec", FACTOR_SPECS, ids=lambda spec: spec.kind)
def test_loaded_factor_reproduces_the_matrix_it_factors(spec, sites):
    # Cholesky is backward stable (Higham 2002, Theorem 10.3), so a loaded model's factor
    # reproduces K + jitter I + diag(s) to a few eps of its norm, and loading checks no
    # factor: at most 2.2e-16 relative here, over data scales 1e-3 to 1e3
    rng = np.random.default_rng(66)
    for scale in (1e-3, 1.0, 1e3):
        X = rng.normal(size=(60, 3)) * scale
        s = np.full(60, float(sites)) if sites != "mixed" else 10 ** rng.uniform(-10, 10, 60)
        model = loaded_model(spec, X, s)
        A = kernel_gram(spec, model.train_x) + np.diag(model.jitter + s)
        L = model.chol_factor
        assert np.linalg.norm(L @ L.T - A) <= 1e-13 * np.linalg.norm(A)


@pytest.mark.parametrize("spec", FACTOR_SPECS, ids=lambda spec: spec.kind)
def test_predictive_variance_keeps_the_jitters_floor(spec):
    # with zero site variances and half the points coincident, a loaded model's variance
    # at its own points stays above 1e-9/n of the prior variance: the jitter's floor of
    # about 1e-8/n, which the solve's rounding never takes below 0, so nothing clamps it
    rng = np.random.default_rng(67)
    X = rng.normal(size=(200, 2)) * 3.0
    X[:100] = X[0]
    model = loaded_model(spec, X, np.zeros(200))
    Q = np.vstack([X, X + 1e-7, rng.normal(size=(50, 2))])
    var = _predictive(model, Q)[1]
    assert (var >= 1e-9 / 200 * kernels.kernel_diag(spec, Q)[0]).all()


def test_model_from_dict_forms_the_residual_in_row_blocks(traced):
    # K and its factor: the bound was set at 2.22 n^2 float64 for n = 400, when loading
    # also formed a residual of the factor in 81-row blocks, and stays as an upper bound
    n = 400
    rng = np.random.default_rng(39)
    X = rng.normal(size=(n, 5))
    blob = {
        "kernel": kernel_to_dict(KernelSpec("rbf", width=0.3)),
        "train_x": X.tolist(),
        "train_y": np.where(X[:, 0] > 0, 1, -1).tolist(),
        "site_variance": rng.uniform(0.5, 5.0, n).tolist(),
        "alpha": rng.normal(size=n).tolist(),
    }
    with traced() as peak:
        model_from_dict(blob)
        used = peak()
    assert used < 2.5 * n * n * 8


def test_model_from_dict_memory_stays_small(traced):
    # K and its factor; the bound was set when loading also formed a residual of the
    # factor, in one block of all n = 150 rows, and stays as an upper bound
    n = 150
    X = np.random.default_rng(36).normal(size=(n, 5))
    blob = model_to_dict(ep_fit(X, np.where(X[:, 0] > 0, 1, -1), KernelSpec("rbf", width=0.3)))
    with traced() as peak:
        model_from_dict(blob)
        used = peak()
    assert used < 3.5 * n * n * 8


# ------------------------------------------------------------ block queries

BLOCK_SPECS = [
    KernelSpec("rbf", width=0.8),
    KernelSpec("linear"),
    KernelSpec("rational-quadratic", rq_alpha=0.7, rq_length=1.3),
]


@pytest.fixture(scope="module")
def three_kind_models():
    rng = np.random.default_rng(31)
    X = rng.normal(size=(30, 3))
    y = np.where(X[:, 0] + 0.5 * rng.normal(size=30) > 0, 1, -1)
    return [ep_fit(X, y, spec) for spec in BLOCK_SPECS]


@pytest.mark.parametrize("block_rows", [1, 7])
@pytest.mark.parametrize("kind", [spec.kind for spec in BLOCK_SPECS])
def test_block_equals_point_whatever_the_chunk(three_kind_models, monkeypatch, block_rows, kind):
    # chunks of one row, and of 7 rows, which does not divide the 40 queries
    model = next(m for m in three_kind_models if m.kernel.kind == kind)
    queries = np.random.default_rng(32).normal(scale=2.0, size=(40, 3))
    points = [(predict_proba(model, q), explain_gpc(model, q)) for q in queries]
    assert isinstance(points[0][0], float) and isinstance(points[0][1], ExplanationVector)
    n, d = model.train_x.shape
    monkeypatch.setattr("localgrad.data._BLOCK_ELEMENTS", block_rows * n * d)
    probs, evs = predict_proba(model, queries), explain_gpc(model, queries)
    assert probs.shape == (40,) and evs.query.shape == evs.gradient.shape == (40, 3)
    assert np.array_equal(evs.predicted_probability, probs)
    for i, (p1, ev1) in enumerate(points):
        assert probs[i] == p1 == ev1.predicted_probability
        assert_same_point_record(evs.row(i), ev1)


@pytest.mark.parametrize("kind", [spec.kind for spec in BLOCK_SPECS])
def test_a_gradient_chunk_makes_one_kernel_pass(three_kind_models, monkeypatch, kind):
    # K* comes with the gradient tensor: 40 queries in chunks of 7 rows take 6 passes,
    # where recomputing K* beside the tensor took 12; a probability chunk takes one too
    model = next(m for m in three_kind_models if m.kernel.kind == kind)
    queries = np.random.default_rng(35).normal(scale=2.0, size=(40, 3))
    n, d = model.train_x.shape
    monkeypatch.setattr("localgrad.data._BLOCK_ELEMENTS", 7 * n * d)
    passes, core = [], kernels._kernel_core
    monkeypatch.setattr(kernels, "_kernel_core", lambda *args, **kw: passes.append(len(args[1])) or core(*args, **kw))
    explain_gpc(model, queries)
    assert passes == [7] * 5 + [5]
    passes.clear()
    predict_proba(model, queries)
    assert passes == [7] * 5 + [5]


@pytest.mark.parametrize("kind", [spec.kind for spec in BLOCK_SPECS])
def test_block_gradients_match_dense_inverse_oracle(three_kind_models, kind):
    model = next(m for m in three_kind_models if m.kernel.kind == kind)
    queries = np.random.default_rng(33).normal(scale=1.5, size=(12, 3))
    mean, var, grad_mean, grad_var = _predictive(model, queries, grad=True)
    for i, q in enumerate(queries):
        want = latent_moments_dense(model, q)
        np.testing.assert_allclose(mean[i], want[0], rtol=1e-9, atol=1e-9)
        np.testing.assert_allclose(var[i], want[1], rtol=1e-8, atol=1e-8)
        np.testing.assert_allclose(grad_mean[i], want[2], rtol=1e-8, atol=1e-9)
        np.testing.assert_allclose(grad_var[i], want[3], rtol=1e-6, atol=1e-7)


@pytest.mark.parametrize("big", [1e160, 1.7e308])
@pytest.mark.parametrize("call", [predict_proba, explain_gpc])
def test_non_finite_latent_moments_are_an_error_naming_the_query_row(three_kind_models, big, call):
    # the linear kernel's x.x overflows: at 1e160 this gave p = NaN and a NaN gradient,
    # at 1.7e308 cho_solve's unnamed "array must not contain infs or NaNs"
    model = next(m for m in three_kind_models if m.kernel.kind == "linear")
    queries = np.random.default_rng(36).normal(size=(4, 3))
    queries[2] = big
    message = f"latent moments are not finite at query row 2, {queries[2].tolist()}"
    with np.errstate(over="ignore"), pytest.raises(ValueError, match=re.escape(message)):
        call(model, queries)  # the kernel's own overflow at 1.7e308 warns first
    with np.errstate(over="ignore"), pytest.raises(ValueError, match=re.escape(message.replace("row 2", "row 0"))):
        call(model, queries[2])


def test_explain_block_memory_stays_small(traced):
    # one unchunked 2000 x 300 x 5 gradient tensor alone would take 24 MB
    rng = np.random.default_rng(34)
    X = rng.normal(size=(300, 5))
    model = ep_fit(X, np.where(X[:, 0] > 0, 1, -1), KernelSpec("rbf", width=0.3))
    queries = rng.normal(size=(2000, 5))
    with traced() as peak:
        evs = explain_gpc(model, queries)
        used = peak()
    assert evs.gradient.shape == (2000, 5)
    assert used < 4e6


def test_explain_block_frees_each_chunk_before_the_next(traced):
    # 47 chunks of 43 rows; a chunk's 43 x 150 x 5 gradient tensor is 0.26 MB. With
    # the previous chunk's tensor, K* and solves still alive this took 1.05 MB; the
    # record and one chunk's arrays peaked at 0.74 MB when this bound was set
    rng = np.random.default_rng(34)
    X = rng.normal(size=(150, 5))
    model = ep_fit(X, np.where(X[:, 0] > 0, 1, -1), KernelSpec("rbf", width=0.3))
    queries = rng.normal(size=(2000, 5))
    with traced() as peak:
        evs = explain_gpc(model, queries)
        used = peak()
    assert evs.gradient.shape == (2000, 5)
    assert used < 0.85e6


def test_ep_fit_memory_stays_small(traced):
    # a sweep holds K, the factor of B and one column block of V: 2.75 n^2 float64
    # when this bound was set, and 3.22 n^2 with the whole V
    n = 250
    rng = np.random.default_rng(35)
    X = rng.normal(size=(n, 5))
    y = np.where(X[:, 0] + 0.5 * X[:, 1] > 0, 1, -1)
    with traced() as peak:
        model = ep_fit(X, y, KernelSpec("rbf", width=0.3))
        used = peak()
    assert model.converged and model.ep_iterations > 1
    assert used < 3.0 * n * n * 8


# ----------------------------------------------------------- EP recompute


TAU_CASES = ["zero", "mixed", "near-1e14"]


def _posterior_case(spec, tau_case, n):
    # exact zeros in the data give the linear Gram zero and negative entries,
    # so the scaled Gram holds -0.0 wherever a zero tau meets a negative entry
    rng = np.random.default_rng(36)
    X = rng.normal(size=(n, 3))
    X[rng.random(X.shape) < 0.2] = 0.0
    K, _ = _add_jitter(kernel_gram(spec, X))
    tau = {
        "zero": np.zeros(n),
        "mixed": np.where(rng.random(n) < 0.4, 0.0, rng.uniform(0.1, 3.0, n)),
        "near-1e14": rng.uniform(0.5e14, 1e14, n),
    }[tau_case]
    assert np.any(K < 0) == (spec.kind == "linear")
    return K, tau, rng


@pytest.mark.parametrize("tau_case", TAU_CASES)
@pytest.mark.parametrize("spec", BLOCK_SPECS, ids=[spec.kind for spec in BLOCK_SPECS])
def test_recompute_posterior_bytes_equal_gpml_form(spec, tau_case):
    K, tau, rng = _posterior_case(spec, tau_case, 80)
    n = len(K)
    for nu in (np.zeros(n), np.where(tau == 0, 0.0, rng.normal(size=n)), rng.normal(size=n)):
        got = _recompute_posterior(K, tau, nu)
        want = ep_posterior_gpml(K, tau, nu)
        for g, w in zip(got, want):
            assert g.tobytes() == w.tobytes()


@pytest.mark.parametrize("cols", [2, 3, 64, 83, 125, 131, 249, 250, 262])
def test_recompute_posterior_bytes_equal_gpml_form_in_column_blocks(monkeypatch, cols):
    # n = 250 in blocks of `cols` columns of V (131 is the default budget's); 3, 83
    # and 249 leave a lone last column, which is solved beside the one before it
    monkeypatch.setattr("localgrad.data._BLOCK_ELEMENTS", cols * 250)
    for spec in BLOCK_SPECS:
        for tau_case in TAU_CASES:
            K, tau, rng = _posterior_case(spec, tau_case, 250)
            nu = rng.normal(size=250)
            got = _recompute_posterior(K, tau, nu)
            want = ep_posterior_gpml(K, tau, nu)
            for g, w in zip(got, want):
                assert g.tobytes() == w.tobytes()


@pytest.mark.parametrize("tau_case", TAU_CASES)
@pytest.mark.parametrize("spec", BLOCK_SPECS, ids=[spec.kind for spec in BLOCK_SPECS])
def test_recompute_posterior_one_column_blocks_move_variances_by_roundoff(monkeypatch, spec, tau_case):
    # a one-column triangular solve takes another BLAS path; the default budget
    # gives one-column blocks only above n = 16384. The error is taken against
    # diag(K), the scale of the subtraction: at tau ~ 1e14 the variances are
    # about 1e-14 and hold no correct digit in either form
    K, tau, rng = _posterior_case(spec, tau_case, 250)
    nu = rng.normal(size=250)
    monkeypatch.setattr("localgrad.data._BLOCK_ELEMENTS", 250)
    post_var, mu = _recompute_posterior(K, tau, nu)
    want_var, want_mu = ep_posterior_gpml(K, tau, nu)
    assert mu.tobytes() == want_mu.tobytes()
    assert np.all(np.abs(post_var - want_var) <= 1e-13 * np.diag(K))


@pytest.mark.parametrize("tau_case", TAU_CASES)
@pytest.mark.parametrize("spec", BLOCK_SPECS, ids=[spec.kind for spec in BLOCK_SPECS])
def test_recompute_posterior_mean_no_less_accurate_than_v_form(spec, tau_case):
    # GPML Alg. 3.6's mean against the whole-V form K nu - V'(V nu), both against
    # a 50-digit reference; at tau ~ 1e14 both keep only about one digit
    K, tau, rng = _posterior_case(spec, tau_case, 80)
    nu = rng.normal(size=80)
    ref = ep_posterior_mean_mp(K, tau, nu)
    sroot = np.sqrt(tau)
    L = cholesky(np.eye(80) + sroot[:, None] * K * sroot[None, :], lower=True)
    V = solve_triangular(L, sroot[:, None] * K, lower=True)

    def err(mu):
        return np.linalg.norm(mu - ref) / np.linalg.norm(ref)

    assert err(_recompute_posterior(K, tau, nu)[1]) <= err(K @ nu - V.T @ (V @ nu))


def test_recompute_posterior_holds_the_factor_and_one_block(traced):
    # K, built before tracing, the factor of B and one 131-column block of V; with
    # the whole V this took 2.13 n^2 float64, and 1.66 n^2 when this bound was set
    n = 250
    rng = np.random.default_rng(38)
    K, _ = _add_jitter(kernel_gram(KernelSpec("rbf", width=0.3), rng.normal(size=(n, 5))))
    tau, nu = rng.uniform(0.1, 3.0, n), rng.normal(size=n)
    with traced() as peak:
        _recompute_posterior(K, tau, nu)
        used = peak()
    assert used < 1.8 * n * n * 8


def test_recompute_posterior_raises_on_non_finite_result():
    K, _ = _add_jitter(kernel_gram(KernelSpec("rbf"), np.random.default_rng(37).normal(size=(10, 2))))
    nu = np.ones(10)
    nu[3] = np.nan
    with pytest.raises(np.linalg.LinAlgError, match="not finite"):
        _recompute_posterior(K, np.ones(10), nu)
