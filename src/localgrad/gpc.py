"""Binary Gaussian process classification with a probit likelihood,
fitted by expectation propagation, plus the analytic input gradient of
the predictive class probability.

The predictive probability for the positive class is

    p(x0) = 1/2 * erfc(-fbar(x0) / (sqrt(2) * sqrt(1 + var_f(x0))))

with latent mean fbar(x0) = sum_i alpha_i k(x0, x_i) and latent variance
var_f(x0) = k(x0,x0) - k_*^T (K + S)^{-1} k_*, where S is the diagonal
of EP site variances.  Differentiating through both the mean and the
variance gives the explanation vector

    grad p = exp(-fbar^2 / (2(1+var))) / sqrt(2*pi)
             * ( grad fbar / sqrt(1+var)
                 - 1/2 * fbar * (1+var)^(-3/2) * grad var )

where grad var = d k(x0,x0)/d x0 - 2 J^T (K + S)^{-1} k_* and J stacks
the kernel gradients at x0 against each training point.

Labels are fixed to {-1, +1}; probabilities refer to the +1 class.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import cho_solve, cholesky, solve_triangular
from scipy.special import erfc, log_ndtr

from .data import ExplanationVector
from .kernels import (
    KernelSpec,
    kernel_eval,
    kernel_from_dict,
    kernel_grad_matrix,
    kernel_grad_x,
    kernel_gram,
    kernel_to_dict,
    kernel_vector,
)

_LOG_SQRT_2PI = 0.5 * np.log(2.0 * np.pi)
_TAU_FLOOR = 1e-10  # floor on site precision when forming site variances


@dataclass
class GpcModel:
    """EP-fitted binary GP classifier.  Treat instances as immutable;
    predictions on a shared model are safe to run concurrently."""

    kernel: KernelSpec
    train_x: np.ndarray
    train_y: np.ndarray
    site_variance: np.ndarray
    alpha: np.ndarray
    chol_factor: np.ndarray  # lower Cholesky factor of K + jitter*I + diag(site_variance)
    ep_iterations: int
    converged: bool
    jitter: float = field(default=0.0)
    # EP trace, one entry per sweep: largest site change and number of
    # sites skipped for an improper cavity (empty for loaded models)
    sweep_max_delta: list = field(default_factory=list)
    sweep_skipped: list = field(default_factory=list)


def _probit_moments(mu_cav, var_cav, y):
    """Mean and variance of the tilted distribution N(f; mu_cav, var_cav)
    * Phi(y*f), computed through log Phi for numerical stability."""
    denom = np.sqrt(1.0 + var_cav)
    z = y * mu_cav / denom
    # ratio = N(z) / Phi(z), stable for z << 0 where it approaches -z
    ratio = np.exp(-0.5 * z * z - _LOG_SQRT_2PI - log_ndtr(z))
    mu_hat = mu_cav + y * var_cav * ratio / denom
    var_hat = var_cav - var_cav**2 * ratio * (z + ratio) / (1.0 + var_cav)
    return mu_hat, np.maximum(var_hat, 1e-14)


def _recompute_posterior(K, tau, nu):
    """Stable recomputation of the EP posterior q(f) = N(mu, Sigma)."""
    n = K.shape[0]
    sroot = np.sqrt(tau)
    B = np.eye(n) + sroot[:, None] * K * sroot[None, :]
    L = cholesky(B, lower=True)
    V = solve_triangular(L, sroot[:, None] * K, lower=True)
    Sigma = K - V.T @ V
    return Sigma, Sigma @ nu


def ep_fit(
    train_x,
    train_y,
    kernel: KernelSpec,
    tol: float = 1e-6,
    max_sweeps: int = 100,
    damping: float = 0.5,
) -> GpcModel:
    """Fit the EP approximation.

    Every sweep updates all sites at once (parallel EP): the cavities
    come from the current posterior marginals, every site with a proper
    cavity takes a damped step (step factor 1 - damping) toward the site
    that matches its tilted moments, and the posterior is then recomputed
    once in the stable form of GPML section 3.6.  Sites with an improper
    cavity keep their values for that sweep.  Convergence means the
    largest absolute change of any site natural parameter over a sweep
    fell below `tol`; running out of sweeps is reported by the
    `converged` flag plus a warning, not an error.  The model keeps the
    per-sweep largest change and skipped-site count.
    """
    X = np.asarray(train_x, dtype=float)
    y = np.asarray(train_y, dtype=float)
    n = X.shape[0]
    if n < 2:
        raise ValueError("need at least two training points")
    if not set(np.unique(y)) == {-1.0, 1.0}:
        raise ValueError("training labels must contain both -1 and +1 and nothing else")
    if not 0.0 <= damping < 1.0:
        raise ValueError(f"damping must be in [0, 1), got {damping}")

    K = kernel_gram(kernel, X)
    jitter = 1e-8 * np.trace(K) / n
    K = K + jitter * np.eye(n)
    try:
        cholesky(K, lower=True)
    except np.linalg.LinAlgError as exc:
        raise ValueError("Gram matrix is not positive definite after jitter") from exc

    step = 1.0 - damping
    nu = np.zeros(n)  # site natural parameters: nu = mu_site / var_site
    tau = np.zeros(n)  # tau = 1 / var_site
    Sigma, mu = K, np.zeros(n)
    sweep_max_delta, sweep_skipped = [], []
    sweeps = 0
    converged = False
    for sweeps in range(1, max_sweeps + 1):
        post_var = np.diag(Sigma)
        tau_cav = 1.0 / post_var - tau
        nu_cav = mu / post_var - nu
        ok = tau_cav > 1e-12  # an improper cavity leaves its site as is
        tau_cav, nu_cav = tau_cav[ok], nu_cav[ok]
        mu_hat, var_hat = _probit_moments(nu_cav / tau_cav, 1.0 / tau_cav, y[ok])
        # damped move toward the sites that match the tilted moments
        dtau = step * (np.maximum(1.0 / var_hat - tau_cav, 0.0) - tau[ok])
        dnu = step * (mu_hat / var_hat - nu_cav - nu[ok])
        tau[ok] += dtau
        nu[ok] += dnu
        max_delta = float(np.max(np.abs(np.concatenate([dtau, dnu])), initial=0.0))
        sweep_max_delta.append(max_delta)
        sweep_skipped.append(int(n - np.count_nonzero(ok)))
        Sigma, mu = _recompute_posterior(K, tau, nu)
        if max_delta < tol:
            converged = True
            break
    if not converged:
        warnings.warn(
            f"EP did not converge within {max_sweeps} sweeps (last delta {max_delta:.3g})",
            stacklevel=2,
        )

    site_variance = 1.0 / np.maximum(tau, _TAU_FLOOR)
    site_mean_scaled = nu * site_variance  # mu_site = nu / tau
    B = K + np.diag(site_variance)
    L = cholesky(B, lower=True)
    alpha = cho_solve((L, True), site_mean_scaled)
    return GpcModel(
        kernel=kernel,
        train_x=X,
        train_y=np.asarray(train_y, dtype=int),
        site_variance=site_variance,
        alpha=alpha,
        chol_factor=L,
        ep_iterations=sweeps,
        converged=converged,
        jitter=jitter,
        sweep_max_delta=sweep_max_delta,
        sweep_skipped=sweep_skipped,
    )


def _predictive(model: GpcModel, x0, grad: bool = False):
    """Latent mean and variance at x0 from one k_* and one solve with the
    stored factor, and with `grad` also their gradients with respect to x0:
    (mean, var) or (mean, var, grad_mean, grad_var), the variance clamped
    as predict_latent documents.
    """
    x0 = np.asarray(x0, dtype=float)
    k_star = kernel_vector(model.kernel, x0, model.train_x)
    solved = cho_solve((model.chol_factor, True), k_star)
    mean = float(model.alpha @ k_star)
    var = float(kernel_eval(model.kernel, x0, x0) - k_star @ solved)
    if var < -1e-10:
        raise RuntimeError(f"negative predictive variance {var:.3g}: factorization unhealthy")
    var = max(var, 0.0)
    if not grad:
        return mean, var
    J = kernel_grad_matrix(model.kernel, x0, model.train_x)
    # d k(x,x)/dx = 2 * (d k(x,y)/dx at y=x) by symmetry of the kernel
    self_term = 2.0 * kernel_grad_x(model.kernel, x0, x0)
    return mean, var, J.T @ model.alpha, self_term - 2.0 * (J.T @ solved)


def _probit(mean: float, var: float) -> float:
    """Predictive probability of the +1 class from the latent moments."""
    return float(0.5 * erfc(-mean / (np.sqrt(2.0) * np.sqrt(1.0 + var))))


def predict_latent(model: GpcModel, x0):
    """Latent mean and variance at x0.

    Variance is clamped to 0 when roundoff takes it slightly negative;
    anything below -1e-10 means the stored factorization is unhealthy.
    """
    return _predictive(model, x0)


def predict_proba(model: GpcModel, x0) -> float:
    """Probability of the +1 class at x0."""
    return _probit(*_predictive(model, x0))


def grad_latent(model: GpcModel, x0):
    """Gradients of the latent mean and variance with respect to x0."""
    return _predictive(model, x0, grad=True)[2:]


def explain_gpc(model: GpcModel, x0) -> ExplanationVector:
    """Explanation vector: the gradient of predict_proba at x0."""
    x0 = np.asarray(x0, dtype=float)
    mean, var, grad_mean, grad_var = _predictive(model, x0, grad=True)
    s = 1.0 + var
    prefactor = np.exp(-(mean**2) / (2.0 * s)) / np.sqrt(2.0 * np.pi)
    gradient = prefactor * (grad_mean / np.sqrt(s) - 0.5 * mean * s**-1.5 * grad_var)
    p = _probit(mean, var)
    return ExplanationVector(
        query=x0,
        gradient=gradient,
        predicted_probability=p,
        predicted_label=1 if p >= 0.5 else -1,
        source="analytic-gpc",
    )


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def model_to_dict(model: GpcModel) -> dict:
    return {
        "kernel": kernel_to_dict(model.kernel),
        "train_x": model.train_x.tolist(),
        "train_y": model.train_y.tolist(),
        "site_variance": model.site_variance.tolist(),
        "alpha": model.alpha.tolist(),
        "ep_iterations": model.ep_iterations,
        "converged": model.converged,
    }


def model_from_dict(obj: dict) -> GpcModel:
    """Rebuild a model; the factorization is recomputed and verified."""
    kernel = kernel_from_dict(obj["kernel"])
    X = np.asarray(obj["train_x"], dtype=float)
    train_y = np.asarray(obj["train_y"], dtype=int)
    site_variance = np.asarray(obj["site_variance"], dtype=float)
    alpha = np.asarray(obj["alpha"], dtype=float)
    for name, arr in (("train_y", train_y), ("alpha", alpha), ("site_variance", site_variance)):
        if len(arr) != len(X):
            raise ValueError(f"{name} has {len(arr)} entries but train_x has {len(X)} rows")
    if np.any(site_variance < 0):
        raise ValueError("site_variance entries must be nonnegative")
    K = kernel_gram(kernel, X)
    n = K.shape[0]
    jitter = 1e-8 * np.trace(K) / n
    B = K + jitter * np.eye(n) + np.diag(site_variance)
    L = cholesky(B, lower=True)
    target = K + np.diag(site_variance)
    err = np.linalg.norm(L @ L.T - target) / np.linalg.norm(target)
    if not err < 1e-8:
        raise ValueError(f"factorization check failed (relative error {err:.3g})")
    fbar = K @ alpha
    if not np.all(np.isfinite(fbar)):
        raise ValueError("alpha yields non-finite latent means on the training set")
    return GpcModel(
        kernel=kernel,
        train_x=X,
        train_y=train_y,
        site_variance=site_variance,
        alpha=alpha,
        chol_factor=L,
        ep_iterations=int(obj.get("ep_iterations", 0)),
        converged=bool(obj.get("converged", True)),
        jitter=jitter,
    )


def save_gpc(model: GpcModel, path) -> None:
    with open(path, "w") as fh:
        json.dump(model_to_dict(model), fh, sort_keys=True)
        fh.write("\n")


def load_gpc(path) -> GpcModel:
    with open(path) as fh:
        return model_from_dict(json.load(fh))
