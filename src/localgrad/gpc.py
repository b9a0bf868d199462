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
from scipy.linalg import cholesky
from scipy.linalg.lapack import dpotrs, dtrtrs
from scipy.special import erfc, log_ndtr

from . import data
from .data import ExplanationVector
from .kernels import (
    KernelSpec,
    kernel_diag,
    kernel_from_dict,
    kernel_grad_matrix,
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
    # EP trace, one entry per sweep: undamped residual, number of sites
    # skipped for an improper cavity and step set; then the number of site
    # precisions raised to _TAU_FLOOR (empty and 0 for loaded models)
    sweep_max_delta: list = field(default_factory=list)
    sweep_skipped: list = field(default_factory=list)
    sweep_step: list = field(default_factory=list)
    floored_sites: int = 0


def _site_targets(tau_cav, nu_cav, y):
    """Natural parameters (tau, nu) of the sites that match the moments of the tilted
    distributions N(f; mu_cav, var_cav) * Phi(y*f), computed through log Phi for
    numerical stability.  About 1e4 cavity standard deviations or more on the wrong
    side, the tilted variance cancels to rounding: it is floored at 1e-14, and a site
    precision that comes out negative (a variance above the cavity's, which the
    log-concave likelihood rules out) is raised to 0."""
    mu_cav, var_cav = nu_cav / tau_cav, 1.0 / tau_cav
    denom = np.sqrt(1.0 + var_cav)
    z = y * mu_cav / denom
    # ratio = N(z) / Phi(z), stable for z << 0 where it approaches -z
    ratio = np.exp(-0.5 * z * z - _LOG_SQRT_2PI - log_ndtr(z))
    mu_hat = mu_cav + y * var_cav * ratio / denom
    var_hat = np.maximum(var_cav - var_cav**2 * ratio * (z + ratio) / (1.0 + var_cav), 1e-14)
    return np.maximum(1.0 / var_hat - tau_cav, 0.0), mu_hat / var_hat - nu_cav


def _add_jitter(K):
    """K + jitter*I, formed in place, with jitter = 1e-8 * trace(K) / n, and
    the jitter.  Fitted and loaded models both factor this matrix plus the
    diagonal of site variances, through `_site_factor`."""
    jitter = 1e-8 * np.trace(K) / len(K)
    np.einsum("ii->i", K)[...] += jitter
    return K, jitter


def _site_factor(K, site_variance):
    """Lower Cholesky factor of K + diag(site_variance), formed in place in
    one Fortran-ordered copy of K."""
    A = np.array(K, order="F")
    np.einsum("ii->i", A)[...] += site_variance
    return cholesky(A, lower=True, overwrite_a=True)


def _v_column_norms(L, K_rows, sroot):
    """Squared norms of the columns of V = L^-1 S^1/2 K at the rows K_rows of
    the symmetric K, from one Fortran-ordered block that the triangular
    solve overwrites and that is freed on return."""
    V = (K_rows * sroot).T  # columns of sroot[:, None] * K bit for bit, as K is exactly symmetric
    V = dtrtrs(L, V, lower=1, overwrite_b=1)[0]
    return np.einsum("ij,ij->j", V, V)


def _recompute_posterior(K, tau, nu):
    """Stable recomputation of the EP posterior q(f) = N(mu, Sigma), Sigma =
    K - V'V with V = L^-1 S^1/2 K and L the factor of B = I + S^1/2 K S^1/2
    (GPML Alg. 3.5): its marginal variances and its mean Sigma @ nu, with
    neither Sigma nor the whole V.  Besides K it holds L, formed and
    factored in place in one Fortran-ordered buffer, and one block of V's
    columns from data._row_blocks(n, n) at a time.  The mean is Alg. 3.6's,
    K (nu - S^1/2 L^-T L^-1 S^1/2 K nu).  A one-column solve takes another
    BLAS path, so a lone last column is solved beside the one before it;
    the variances are then the whole V's bit for bit, except with blocks of
    one column (above n = 16384 by default), which move them by about
    1e-14 of diag(K).  The solves call LAPACK's trtrs as solve_triangular
    does, but without its per-call checks, which took over half of a vector
    solve's time at n = 250; L's diagonal is positive, so no solve is
    singular.  K is finite (`ep_fit` checks it), so no call scans for
    non-finite entries and a non-finite result raises instead."""
    n = len(K)
    sroot = np.sqrt(tau)
    B = (K * sroot).T
    B *= sroot
    np.einsum("ii->i", B)[...] += 1.0
    L = cholesky(B, lower=True, overwrite_a=True, check_finite=False)
    post_var = np.diag(K).copy()
    for cols in data._row_blocks(n, n):
        lo = min(cols.start, n - 2)  # below cols.start only for a lone last column
        post_var[cols] -= _v_column_norms(L, K[lo : cols.stop], sroot)[cols.start - lo :]
    w = dtrtrs(L, sroot * (K @ nu), lower=1, overwrite_b=1)[0]
    w = dtrtrs(L, w, lower=1, trans=1, overwrite_b=1)[0]
    mu = K @ (nu - sroot * w)
    if not (np.isfinite(post_var).all() and np.isfinite(mu).all()):
        raise np.linalg.LinAlgError("EP posterior is not finite")
    return post_var, mu


def _training_set(train_x, train_y):
    """A GP training set, fitted or loaded: points and labels by data's rules, and
    train_y holding both -1 and +1 and nothing else."""
    X = data._points(train_x, "train_x")
    y = data._integer_labels(train_y, len(X), "train_y", "train_x")
    if set(np.unique(y).tolist()) != {-1, 1}:
        raise ValueError("train_y must contain both -1 and +1 and nothing else")
    return X, y


def ep_fit(
    train_x,
    train_y,
    kernel: KernelSpec,
    tol: float = 1e-6,
    max_sweeps: int = 100,
) -> GpcModel:
    """Fit the EP approximation.

    Every sweep updates all sites at once (parallel EP).  The cavities
    come from the current posterior marginals; each site with a proper
    cavity has a target, the site that matches its tilted moments.  The
    undamped residual, the largest |target - site| over both natural
    parameters, is tested against `tol` before stepping, so `tol` bounds
    the distance to the fixed point whatever the step.  Otherwise every
    such site moves by step * residual and the posterior is recomputed
    once in the stable form of GPML section 3.6.  The step starts at 1; it
    halves when the residual grew since the last sweep, and else grows by
    1.25x up to 1.  Running out of sweeps is reported by the `converged`
    flag plus a warning, not an error.  The model keeps the per-sweep
    residual, improper-cavity count and step, and the number of site
    precisions floored at _TAU_FLOOR.
    """
    X, y = _training_set(train_x, train_y)
    n = len(X)

    K, jitter = _add_jitter(kernel_gram(kernel, X))
    try:
        cholesky(K, lower=True)
    except np.linalg.LinAlgError as exc:
        raise ValueError("Gram matrix is not positive definite after jitter") from exc

    step = 1.0
    nu = np.zeros(n)  # site natural parameters: nu = mu_site / var_site
    tau = np.zeros(n)  # tau = 1 / var_site
    post_var, mu = np.diag(K), np.zeros(n)
    sweep_max_delta, sweep_skipped, sweep_step = [], [], []
    sweeps = 0
    converged = False
    for sweeps in range(1, max_sweeps + 1):
        tau_cav = 1.0 / post_var - tau
        nu_cav = mu / post_var - nu
        ok = tau_cav > 1e-12  # an improper cavity leaves its site as is
        site_tau, site_nu = _site_targets(tau_cav[ok], nu_cav[ok], y[ok])
        # undamped residual: the sites that match the tilted moments, less the sites
        rtau, rnu = site_tau - tau[ok], site_nu - nu[ok]
        residual = float(np.max(np.abs(np.concatenate([rtau, rnu])), initial=0.0))
        if sweeps > 1:
            step = step * 0.5 if residual > sweep_max_delta[-1] else min(step * 1.25, 1.0)
        sweep_max_delta.append(residual)
        sweep_skipped.append(int(n - np.count_nonzero(ok)))
        sweep_step.append(step)
        if residual < tol:
            converged = True
            break
        tau[ok] += step * rtau
        nu[ok] += step * rnu
        post_var, mu = _recompute_posterior(K, tau, nu)
    if not converged:
        warnings.warn(
            f"EP did not converge within {max_sweeps} sweeps (last residual {residual:.3g})",
            stacklevel=2,
        )

    site_variance = 1.0 / np.maximum(tau, _TAU_FLOOR)
    site_mean_scaled = nu * site_variance  # mu_site = nu / tau
    L = _site_factor(K, site_variance)
    alpha = dpotrs(L, site_mean_scaled, lower=1, overwrite_b=1)[0]  # both finite: cho_solve without its scan
    return GpcModel(
        kernel=kernel,
        train_x=X,
        train_y=y,
        site_variance=site_variance,
        alpha=alpha,
        chol_factor=L,
        ep_iterations=sweeps,
        converged=converged,
        jitter=jitter,
        sweep_max_delta=sweep_max_delta,
        sweep_skipped=sweep_skipped,
        sweep_step=sweep_step,
        floored_sites=int(np.count_nonzero(tau < _TAU_FLOOR)),
    )


def _predictive_rows(model: GpcModel, X, grad: bool):
    """_predictive's moments at the rows of one chunk X, from one kernel pass.
    The chunk's K*, solves and gradient tensor are freed on return, so the
    next chunk builds its own with none of them alive."""
    if grad:
        k_star, J = kernel_grad_matrix(model.kernel, X, model.train_x)
    else:
        k_star = kernel_vector(model.kernel, X, model.train_x)
    solved = dpotrs(model.chol_factor, k_star.T, lower=1)[0].T
    k_self, grad_self = kernel_diag(model.kernel, X)
    mean = np.einsum("qn,n->q", k_star, model.alpha)
    var = k_self - np.einsum("qn,qn->q", k_star, solved)
    if not grad:
        return mean, var
    return mean, var, np.einsum("qnd,n->qd", J, model.alpha), grad_self - 2.0 * np.einsum("qnd,qn->qd", J, solved)


def _predictive(model: GpcModel, X, grad: bool = False):
    """Latent means and variances at the rows of the q x d block X, and
    with `grad` their q x d gradients: (mean, var[, grad_mean, grad_var]).

    Rows go in chunks of at most data._BLOCK_ELEMENTS / (n d) rows.  Each
    chunk takes one K*, one solve with a right-hand side per row (GPML
    Alg. 3.2 on a matrix of test inputs) and einsum contractions, which
    sum each row in one order whatever its chunk.  The solve calls LAPACK's
    potrs as cho_solve does, but without its scan of the factor and of K*
    for non-finite entries: a query whose moments are not finite (a kernel
    value that overflows, say) is an error naming its row.  No variance
    needs a clamp: the jitter keeps each above about 1e-8/n of its prior
    variance (n observations with that noise), while the solve rounds off
    a few eps of it; fits of up to n = 1000 with zero site variances kept
    1e-11.
    """
    out = (np.empty(len(X)), np.empty(len(X))) + ((np.empty_like(X), np.empty_like(X)) if grad else ())
    for rows in data._row_blocks(len(X), model.train_x.size):
        with np.errstate(over="ignore", invalid="ignore"):  # a non-finite row is named below
            parts = _predictive_rows(model, X[rows], grad)
        finite = np.isfinite(np.column_stack(parts)).all(axis=1)
        if not finite.all():
            row = rows.start + int(np.argmin(finite))
            raise ValueError(f"the GP's latent moments are not finite at query row {row}, {X[row].tolist()}")
        for whole, part in zip(out, parts):
            whole[rows] = part
    return out


def _probit(mean, var):
    """Predictive probability of the +1 class from the latent moments."""
    return 0.5 * erfc(-mean / (np.sqrt(2.0) * np.sqrt(1.0 + var)))


def predict_proba(model: GpcModel, x0):
    """Probability of the +1 class at a point x0 (a float), or at each row
    of a q x d block x0 (an array)."""
    X, point = data._query_block(x0, model.train_x.shape[1])
    p = _probit(*_predictive(model, X))
    return float(p[0]) if point else p


def explain_gpc(model: GpcModel, x0) -> ExplanationVector:
    """Explanation vector, the gradient of predict_proba, at a point x0;
    for a q x d block x0, one block record whose columns hold q rows."""
    X, point = data._query_block(x0, model.train_x.shape[1])
    mean, var, grad_mean, grad_var = _predictive(model, X, grad=True)
    s = 1.0 + var
    prefactor = np.exp(-(mean**2) / (2.0 * s)) / np.sqrt(2.0 * np.pi)
    gradient = prefactor[:, None] * (
        grad_mean / np.sqrt(s)[:, None] - (0.5 * mean * s**-1.5)[:, None] * grad_var
    )
    p = _probit(mean, var)
    evs = ExplanationVector(
        X, gradient, p, np.where(p >= 0.5, 1, -1), np.full(len(X), "analytic-gpc"), np.zeros(len(X), bool)
    )
    return evs.row(0) if point else evs


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
    """Rebuild a model; the factorization is recomputed from the kernel and site variances."""
    kernel = kernel_from_dict(obj["kernel"])
    X, train_y = _training_set(obj["train_x"], obj["train_y"])
    site_variance = np.asarray(obj["site_variance"], dtype=float)
    alpha = np.asarray(obj["alpha"], dtype=float)
    for name, arr in (("alpha", alpha), ("site_variance", site_variance)):
        if len(arr) != len(X):
            raise ValueError(f"{name} has {len(arr)} entries but train_x has {len(X)} rows")
    if np.any(site_variance < 0):
        raise ValueError("site_variance entries must be nonnegative")
    K, jitter = _add_jitter(kernel_gram(kernel, X))
    L = _site_factor(K, site_variance)
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
        fh.write(json.dumps(model_to_dict(model), sort_keys=True) + "\n")  # the C encoder, same bytes


def load_gpc(path) -> GpcModel:
    with open(path) as fh:
        return model_from_dict(json.load(fh))
