"""Independent oracles for the test suite.

Everything here is deliberately written the slow, obvious way — plain
loops, dense linear algebra, brute-force enumeration — so the library's
vectorized/closed-form implementations are checked against code that
shares none of their structure.
"""

import numpy as np


def fd_gradient(fn, x, step=1e-5):
    """Central finite-difference gradient of a scalar function."""
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    for j in range(x.size):
        e = np.zeros_like(x)
        e[j] = step
        out[j] = (fn(x + e) - fn(x - e)) / (2.0 * step)
    return out


def fd_hessian(fn, x, step=1e-4):
    """Central finite-difference Hessian of a scalar function."""
    x = np.asarray(x, dtype=float)
    d = x.size
    H = np.zeros((d, d))
    for a in range(d):
        for b in range(d):
            ea = np.zeros(d)
            eb = np.zeros(d)
            ea[a] = step
            eb[b] = step
            H[a, b] = (
                fn(x + ea + eb) - fn(x + ea - eb) - fn(x - ea + eb) + fn(x - ea - eb)
            ) / (4.0 * step * step)
    return H


def erfc_oracle(x, dps=30):
    """erfc through mpmath's arbitrary-precision evaluation."""
    import mpmath

    with mpmath.workdps(dps):
        return float(mpmath.erfc(x))


def kernel_pair(spec, x, y):
    """k(x, y) for one pair: kernel_vector at the one-row block [x] on the one-row points [y]."""
    from localgrad.kernels import kernel_vector

    return float(kernel_vector(spec, np.asarray(x, dtype=float)[None], np.asarray(y, dtype=float)[None])[0, 0])


def kernel_pair_grad(spec, x, y):
    """Gradient of k(., y) at x: kernel_grad_matrix at the one-row block [x] on the one-row points [y]."""
    from localgrad.kernels import kernel_grad_matrix

    return kernel_grad_matrix(spec, np.asarray(x, dtype=float)[None], np.asarray(y, dtype=float)[None])[1][0, 0]


def latent_variance_dense(model, x0):
    """Predictive latent variance via explicit dense inversion of K + S."""
    from localgrad.kernels import kernel_gram, kernel_vector

    K = kernel_gram(model.kernel, model.train_x)
    B = K + model.jitter * np.eye(len(K)) + np.diag(model.site_variance)
    k_star = kernel_vector(model.kernel, np.asarray(x0, dtype=float)[None], model.train_x)[0]
    return kernel_pair(model.kernel, x0, x0) - k_star @ np.linalg.inv(B) @ k_star


def latent_moments_dense(model, x0):
    """Latent mean and variance at x0 and their gradients, from a dense
    inverse of K + S, one kernel call per training point, and a central
    finite difference of x -> k(x, x) for the variance's self term."""
    from localgrad.kernels import kernel_gram

    K = kernel_gram(model.kernel, model.train_x)
    B_inv = np.linalg.inv(K + model.jitter * np.eye(len(K)) + np.diag(model.site_variance))
    k_star = np.array([kernel_pair(model.kernel, x0, xi) for xi in model.train_x])
    J = np.array([kernel_pair_grad(model.kernel, x0, xi) for xi in model.train_x])
    self_grad = fd_gradient(lambda p: kernel_pair(model.kernel, p, p), x0)
    solved = B_inv @ k_star
    return (
        k_star @ model.alpha,
        kernel_pair(model.kernel, x0, x0) - k_star @ solved,
        J.T @ model.alpha,
        self_grad - 2.0 * J.T @ solved,
    )


def ep_posterior_gpml(K, tau, nu):
    """EP posterior marginal variances and mean from the stable B-form of
    GPML section 3.6, as plain expressions with fresh arrays: B = I +
    S^1/2 K S^1/2, L = chol(B), V = L^-1 S^1/2 K, diag(Sigma) = diag(K -
    V'V) from the whole V, and the mean Sigma nu in Alg. 3.6's form,
    K (nu - S^1/2 L^-T L^-1 S^1/2 K nu)."""
    from scipy.linalg import cholesky, solve_triangular

    n = K.shape[0]
    sroot = np.sqrt(tau)
    B = np.eye(n) + sroot[:, None] * K * sroot[None, :]
    L = cholesky(B, lower=True)
    V = solve_triangular(L, sroot[:, None] * K, lower=True)
    w = solve_triangular(L, solve_triangular(L, sroot * (K @ nu), lower=True), lower=True, trans="T")
    return np.diag(K) - np.einsum("ij,ij->j", V, V), K @ (nu - sroot * w)


def ep_posterior_mean_mp(K, tau, nu, dps=50):
    """The EP posterior mean Sigma nu = K (nu - S^1/2 B^-1 S^1/2 K nu), B =
    I + S^1/2 K S^1/2, through mpmath at `dps` digits from the float64
    inputs taken exactly: B x = S^1/2 K nu by Gaussian elimination without
    pivoting (B is symmetric positive definite), on object arrays of mpf."""
    import mpmath

    with mpmath.workdps(dps):
        n = len(K)
        Km = np.array([[mpmath.mpf(float(v)) for v in row] for row in K], dtype=object)
        sroot = np.array([mpmath.sqrt(mpmath.mpf(float(t))) for t in tau], dtype=object)
        num = np.array([mpmath.mpf(float(v)) for v in nu], dtype=object)
        B = sroot[:, None] * Km * sroot[None, :] + np.eye(n, dtype=int)
        x = sroot * (Km @ num)
        for k in range(n):
            f = B[k + 1 :, k] / B[k, k]
            B[k + 1 :, k + 1 :] -= np.outer(f, B[k, k + 1 :])
            x[k + 1 :] -= f * x[k]
        for k in range(n - 1, -1, -1):
            x[k] = (x[k] - B[k, k + 1 :] @ x[k + 1 :]) / B[k, k]
        return np.array([float(v) for v in Km @ (num - sroot * x)])


def ep_sequential_oracle(train_x, train_y, kernel, tol=1e-6, max_sweeps=100, damping=0.5):
    """EP with the sequential schedule: one site at a time in index order,
    a rank-1 update of Sigma after every site, and a fresh posterior from
    the stable B-form after every sweep.  Same jitter, improper-cavity
    rule and site-variance floor as `ep_fit`; its step stays fixed at
    1 - damping and it stops on the damped change, so it checks the fixed
    point that `ep_fit` reaches, not its step rule.

    Returns (site_variance, alpha, sweeps, converged), where alpha solves
    (K + jitter*I + diag(site_variance)) alpha = site means by dense solve.
    """
    from scipy.stats import norm

    from localgrad.kernels import kernel_gram

    X = np.asarray(train_x, dtype=float)
    y = np.asarray(train_y, dtype=float)
    n = len(X)
    K = kernel_gram(kernel, X)
    K = K + 1e-8 * np.trace(K) / n * np.eye(n)

    def posterior(tau, nu):
        sroot = np.sqrt(tau)
        L = np.linalg.cholesky(np.eye(n) + np.outer(sroot, sroot) * K)
        V = np.linalg.solve(L, sroot[:, None] * K)
        Sigma = K - V.T @ V
        return Sigma, Sigma @ nu

    step = 1.0 - damping
    tau = np.zeros(n)
    nu = np.zeros(n)
    Sigma, mu = K.copy(), np.zeros(n)
    converged = False
    for sweeps in range(1, max_sweeps + 1):
        max_delta = 0.0
        for i in range(n):
            tau_cav = 1.0 / Sigma[i, i] - tau[i]
            if tau_cav <= 1e-12:
                continue
            nu_cav = mu[i] / Sigma[i, i] - nu[i]
            m, v = nu_cav / tau_cav, 1.0 / tau_cav
            # moments of N(f; m, v) * Phi(y f)
            z = y[i] * m / np.sqrt(1.0 + v)
            ratio = np.exp(norm.logpdf(z) - norm.logcdf(z))
            mu_hat = m + y[i] * v * ratio / np.sqrt(1.0 + v)
            var_hat = max(v - v * v * ratio * (z + ratio) / (1.0 + v), 1e-14)
            dtau = step * (max(1.0 / var_hat - tau_cav, 0.0) - tau[i])
            dnu = step * (mu_hat / var_hat - nu_cav - nu[i])
            tau[i] += dtau
            nu[i] += dnu
            max_delta = max(max_delta, abs(dtau), abs(dnu))
            si = Sigma[:, i].copy()
            Sigma -= (dtau / (1.0 + dtau * si[i])) * np.outer(si, si)
            mu = Sigma @ nu
        Sigma, mu = posterior(tau, nu)
        if max_delta < tol:
            converged = True
            break
    site_variance = 1.0 / np.maximum(tau, 1e-10)
    alpha = np.linalg.solve(K + np.diag(site_variance), nu * site_variance)
    return site_variance, alpha, sweeps, converged


def parzen_joint_naive(ref_x, ref_labels, sigma, x, c):
    """Direct summation of the weighted class density."""
    total = 0.0
    for xi, lab in zip(ref_x, ref_labels):
        if lab == c:
            z = np.asarray(x, dtype=float) - np.asarray(xi, dtype=float)
            total += np.exp(-0.5 * float(z @ z) / sigma**2) / np.sqrt(2.0 * np.pi * sigma**2)
    return total / len(ref_x)


def parzen_posterior_naive(ref_x, ref_labels, sigma, x, c):
    """Posterior as a ratio of direct sums (no rescaling tricks)."""
    num = 0.0
    den = 0.0
    for xi, lab in zip(ref_x, ref_labels):
        z = np.asarray(x, dtype=float) - np.asarray(xi, dtype=float)
        w = np.exp(-0.5 * float(z @ z) / sigma**2)
        den += w
        if lab == c:
            num += w
    return num / den


def parzen_explanation_masked(ref_x, ref_labels, sigma, z, c):
    """The explanation quotient of the mimic module's docstring,
    zeta = (S_out V_in - S_in V_out) / (sigma^2 T^2), from unscaled weights
    and boolean class masks over the references in the order given."""
    X = np.asarray(ref_x, dtype=float)
    z = np.asarray(z, dtype=float)
    diff = z - X
    w = np.exp(-0.5 * np.sum(diff * diff, axis=1) / sigma**2)
    inside = np.asarray(ref_labels) == c
    s_in, s_out = w[inside].sum(), w[~inside].sum()
    v_in, v_out = w[inside] @ diff[inside], w[~inside] @ diff[~inside]
    return (s_out * v_in - s_in * v_out) / (sigma**2 * (s_in + s_out) ** 2)


def parzen_hessian_mp(ref_x, ref_labels, sigma, z, c, dps=60):
    """Hessian of p(y != c | x) at z through mpmath at `dps` digits: the
    quotient rule for O/T with unscaled weights, summed reference by
    reference in the order given, from grad w_i = -w_i d_i / sigma^2 and
    hess w_i = w_i (d_i d_i' / sigma^4 - I / sigma^2), d_i = z - x_i."""
    import mpmath

    with mpmath.workdps(dps):
        d, s2 = len(z), mpmath.mpf(float(sigma)) ** 2
        T, gT, hT = mpmath.mpf(0), mpmath.zeros(d, 1), mpmath.zeros(d, d)
        O, gO, hO = mpmath.mpf(0), mpmath.zeros(d, 1), mpmath.zeros(d, d)
        for xi, label in zip(ref_x, ref_labels):
            di = mpmath.matrix([mpmath.mpf(float(a)) - mpmath.mpf(float(b)) for a, b in zip(z, xi)])
            w = mpmath.exp(-(di.T * di)[0] / (2 * s2))
            g, h = -w * di / s2, w * (di * di.T / s2**2 - mpmath.eye(d) / s2)
            T, gT, hT = T + w, gT + g, hT + h
            if label != c:
                O, gO, hO = O + w, gO + g, hO + h
        H = hO / T - (gO * gT.T + gT * gO.T) / T**2 - O * hT / T**2 + 2 * O * gT * gT.T / T**3
        return np.array(H.tolist(), dtype=float)


def knn_loo_errors_bruteforce(train_x, train_y, k):
    """LOO error count, ranking each left-out point's neighbors with a
    full sort on (squared distance, index) and voting by the documented
    rule: most votes wins, and a vote tie goes to the tied class met
    first among the nearest."""
    X = np.asarray(train_x, dtype=float).tolist()
    y = np.asarray(train_y, dtype=int).tolist()
    errors = 0
    for i, xi in enumerate(X):
        ranked = sorted(
            (sum((a - b) * (a - b) for a, b in zip(xi, xj)), j) for j, xj in enumerate(X) if j != i
        )
        votes = [y[j] for _, j in ranked[:k]]
        top = max(votes.count(c) for c in votes)
        winner = next(c for c in votes if votes.count(c) == top)
        if winner != y[i]:
            errors += 1
    return errors


def knn_predict_bruteforce(train_x, train_y, k, queries):
    """k-NN labels of the queries from a stable argsort of each query's squared
    distances and the documented vote: most votes wins, and a vote tie goes to
    the tied class met first among the nearest."""
    y = np.asarray(train_y, dtype=int).tolist()
    labels = []
    for q in np.asarray(queries, dtype=float):
        votes = [y[j] for j in np.argsort(np.sum((train_x - q) ** 2, axis=1), kind="stable")[:k]]
        top = max(votes.count(c) for c in votes)
        labels.append(next(c for c in votes if votes.count(c) == top))
    return labels


def select_width_bruteforce(ref_x, ref_labels, sigmas):
    """Width selection by refitting a leave-one-out mimic per reference:
    the chosen width, and the disagreement count of each width in
    ascending order."""
    from localgrad.mimic import ParzenMimic, mimic_predict

    X = np.asarray(ref_x, dtype=float)
    y = np.asarray(ref_labels, dtype=int)
    counts = []
    for s in sorted(float(v) for v in sigmas):
        count = 0
        for i in range(len(X)):
            mm = ParzenMimic(np.delete(X, i, axis=0), np.delete(y, i), s)
            if mimic_predict(mm, X[i]) != y[i]:
                count += 1
        counts.append(count)
    return sorted(float(v) for v in sigmas)[counts.index(min(counts))], counts


def sigma_grid_pdist(points, span=(1e-2, 1e2)):
    """The auto sigma grid from one buffer of all m(m-1)/2 pairwise distances
    and np.median over it."""
    from scipy.spatial.distance import pdist

    med = float(np.median(np.sqrt(pdist(np.asarray(points, dtype=float), "sqeuclidean"))))
    return med * np.logspace(np.log10(span[0]), np.log10(span[1]), 25)


def ecdf_distance(a, b):
    a = np.sort(np.asarray(a, dtype=float))
    b = np.sort(np.asarray(b, dtype=float))
    grid = np.concatenate([a, b])
    fa = np.searchsorted(a, grid, side="right") / len(a)
    fb = np.searchsorted(b, grid, side="right") / len(b)
    return float(np.max(np.abs(fa - fb)))


def ks_p_permutation(a, b, rounds=100000, seed=0):
    """Permutation estimate of the KS p-value."""
    rng = np.random.default_rng(seed)
    d_obs = ecdf_distance(a, b)
    pooled = np.concatenate([np.asarray(a, float), np.asarray(b, float)])
    na = len(a)
    hits = 0
    for _ in range(rounds):
        rng.shuffle(pooled)
        if ecdf_distance(pooled[:na], pooled[na:]) >= d_obs - 1e-12:
            hits += 1
    return hits / rounds


def kld_two_terms(hist_a, hist_b, epsilon):
    """Symmetrized KLD by two separate one-directional computations."""
    pa = np.asarray(hist_a, dtype=float) + epsilon
    pb = np.asarray(hist_b, dtype=float) + epsilon
    pa = pa / pa.sum()
    pb = pb / pb.sum()
    forward = sum(p * np.log(p / q) for p, q in zip(pa, pb))
    backward = sum(q * np.log(q / p) for p, q in zip(pa, pb))
    return 0.5 * (forward + backward)


def rebin_naive(values, lo, hi, bin_count):
    """Left-closed bins, final bin closed, out-of-range clipped; one value
    at a time."""
    counts = [0] * bin_count
    clipped = 0
    width = (hi - lo) / bin_count
    for v in values:
        if v < lo:
            clipped += 1
            v = lo
        elif v > hi:
            clipped += 1
            v = hi
        idx = int((v - lo) / width)
        if idx >= bin_count:
            idx = bin_count - 1
        counts[idx] += 1
    return np.array(counts), clipped


def auc_pairwise(labels, scores):
    """AUC as the fraction of correctly ordered (pos, neg) pairs, ties 1/2."""
    labels = np.asarray(labels)
    scores = np.asarray(scores, dtype=float)
    pos = scores[labels == labels.max()]
    neg = scores[labels != labels.max()]
    wins = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                wins += 1.0
            elif p == q:
                wins += 0.5
    return wins / (len(pos) * len(neg))


def load_explanations(path):
    """Parse an explanations CSV as save_explanations writes it, by
    column position, into ExplanationVector records."""
    import csv

    from localgrad.data import ExplanationVector

    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    d = (len(rows[0]) - 4) // 2
    return [
        ExplanationVector(
            query=np.array([float(v) for v in row[:d]]),
            gradient=np.array([float(v) for v in row[d : 2 * d]]),
            predicted_probability=float(row[2 * d]),
            predicted_label=int(row[2 * d + 1]),
            source=row[2 * d + 2],
            far_field=bool(int(row[2 * d + 3])),
        )
        for row in rows[1:]
        if row
    ]


def assert_same_point_record(a, b):
    """Two point ExplanationVectors agree bit for bit, field by field, with
    scalar fields of the same Python type."""
    from dataclasses import fields

    for f in fields(a):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if isinstance(x, np.ndarray):
            assert x.dtype == y.dtype and np.array_equal(x, y), f.name
        else:
            assert type(x) is type(y) and x == y, f.name


def smooth_gradients_bruteforce(queries, gradients, window_halfwidth):
    """Sliding-cube smoothing by a boolean mask per query: the mean of the
    gradients whose query lies in the closed cube around each query."""
    Q = np.atleast_2d(np.asarray(queries, dtype=float))
    G = np.atleast_2d(np.asarray(gradients, dtype=float))
    out = np.empty_like(G)
    for i in range(len(Q)):
        mask = np.all(np.abs(Q - Q[i]) <= window_halfwidth, axis=1)
        out[i] = G[mask].mean(axis=0)
    return out
