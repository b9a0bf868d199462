"""End-to-end acceptance checks.

One test per shipped guarantee.  Each test prints a single
``ACCEPTANCE <nn> <name>: PASS/FAIL`` line (shown with ``pytest -s`` and
always shown for failures) and asserts the same condition, so the -v
report carries one verdict per guarantee.
"""

import csv
import json
import time

import numpy as np

from localgrad.analysis import (
    compare_groups,
    default_histogram_spec,
    histogram,
    ks_two_sample,
    rank_features,
    sym_kld,
)
from localgrad.cli import main
from localgrad.data import (
    gen_nonlinear,
    gen_three_clusters,
    gen_triangle,
    inject_outliers,
    load_csv,
    save_csv,
)
from localgrad.gpc import ep_fit, explain_gpc, predict_proba
from localgrad.kernels import KernelSpec
from localgrad.mimic import (
    ParzenMimic,
    default_sigma_grid,
    explain_mimic,
    mimic_predict,
    parzen_posterior_not,
    select_width,
    smooth_gradients,
)

from oracles import fd_gradient, knn_loo_errors_bruteforce, ks_p_permutation


def _report(num, name, ok, detail):
    verdict = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:02d} {name}: {verdict} — {detail}")
    return detail


def _mean_cosine(a, b):
    num = (a * b).sum(axis=1)
    den = np.linalg.norm(a, axis=1) * np.linalg.norm(b, axis=1)
    keep = den > 0
    return float((num[keep] / den[keep]).mean())


# -------------------------------------------------------------------------
# 01: analytic gradients match finite differences on all three kernels
# -------------------------------------------------------------------------


def test_01_analytic_gradient_matches_finite_differences():
    t0 = time.perf_counter()
    data = gen_triangle(30, seed=7)
    kernels = [
        KernelSpec("rbf", width=1.0),
        KernelSpec("linear"),
        KernelSpec("rational-quadratic", rq_alpha=1.5, rq_length=1.0),
    ]
    rng = np.random.default_rng(2024)
    checked, worst_rel, worst_abs = 0, 0.0, 0.0
    ok = True
    for spec in kernels:
        model = ep_fit(data.features, data.labels, spec)
        queries = rng.uniform(-1.8, 1.8, size=(170, 2))
        for q in queries:
            grad = explain_gpc(model, q).gradient
            want = fd_gradient(lambda x: predict_proba(model, x), q)
            err = np.linalg.norm(grad - want)
            if np.linalg.norm(grad) > 1e-8:
                rel = err / np.linalg.norm(grad)
                worst_rel = max(worst_rel, rel)
                ok = ok and rel < 1e-5
            else:
                worst_abs = max(worst_abs, err)
                ok = ok and err < 1e-9
            checked += 1
    elapsed = time.perf_counter() - t0
    ok = ok and checked >= 500 and elapsed < 60.0
    detail = _report(
        1,
        "analytic-gradient-fd",
        ok,
        f"{checked} queries, worst rel {worst_rel:.2e} (<1e-5), "
        f"worst abs {worst_abs:.2e} (<1e-9), {elapsed:.1f}s (<60s)",
    )
    assert ok, detail


# -------------------------------------------------------------------------
# 02: estimated gradients match finite differences on random configurations
# -------------------------------------------------------------------------


def test_02_estimated_gradient_matches_finite_differences():
    t0 = time.perf_counter()
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(500):
        d = int(rng.integers(1, 11))
        m = int(rng.integers(5, 201))
        n_classes = int(rng.integers(2, 5))
        refs = rng.normal(size=(m, d))
        labels = rng.integers(1, n_classes + 1, size=m)
        labels[:n_classes] = np.arange(1, n_classes + 1)
        sigma = float(rng.uniform(0.3, 2.0))
        mm = ParzenMimic(refs, labels, sigma)
        c = int(rng.integers(1, n_classes + 1))
        # query near the midpoint of an opposite-class pair — the regime
        # explanations are computed in, and where the finite-difference
        # oracle resolves the gradient at every dimension in range
        i = int(rng.choice(np.flatnonzero(labels == c)))
        j = int(rng.choice(np.flatnonzero(labels != c)))
        z = 0.5 * (refs[i] + refs[j]) + 0.1 * sigma * rng.normal(size=d)
        grad = explain_mimic(mm, z, c).gradient
        want = fd_gradient(lambda x: parzen_posterior_not(mm, x, c), z, step=1e-5)
        worst = max(worst, np.linalg.norm(grad - want) / max(np.linalg.norm(want), 1e-12))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-6 and elapsed < 30.0
    detail = _report(
        2,
        "estimated-gradient-fd",
        ok,
        f"500 configurations, worst rel {worst:.2e} (<1e-6), {elapsed:.1f}s (<30s)",
    )
    assert ok, detail


# -------------------------------------------------------------------------
# 03: EP on the symmetric two-point problem
# -------------------------------------------------------------------------


def test_03_ep_symmetric_two_point():
    model = ep_fit(
        np.array([[1.0, 0.0], [-1.0, 0.0]]),
        np.array([1, -1]),
        KernelSpec("rbf", width=1.0),
    )
    p_mid = predict_proba(model, np.zeros(2))
    asym = abs(model.alpha[0] + model.alpha[1])
    ok = abs(p_mid - 0.5) < 1e-6 and asym < 1e-6
    detail = _report(
        3,
        "ep-two-point-symmetry",
        ok,
        f"|p(0)-0.5| = {abs(p_mid - 0.5):.2e} (<1e-6), "
        f"weight antisymmetry {asym:.2e} (<1e-6)",
    )
    assert ok, detail


# -------------------------------------------------------------------------
# 04: iris pipeline bands over ten seeded 100/50 runs
# -------------------------------------------------------------------------


def test_04_iris_pipeline_bands(tmp_path):
    runs = []
    for seed in range(10):
        stem = tmp_path / f"run{seed}"
        assert main(["iris", "--seed", str(seed), "--out", str(stem)]) == 0
        metrics = json.loads((tmp_path / f"run{seed}-metrics.json").read_text())

        species = {}
        with open(tmp_path / f"run{seed}-test-species.csv") as fh:
            for row in csv.DictReader(fh):
                species[int(row["id"])] = int(row["species"])
        with open(tmp_path / f"run{seed}-test.csv") as fh:
            test_rows = list(csv.DictReader(fh))
        with open(tmp_path / f"run{seed}-explanations.csv") as fh:
            expl_rows = list(csv.DictReader(fh))
        assert len(test_rows) == len(expl_rows) == 50

        # k selection: the recorded LOO curve covers k=1..10, matches a
        # brute-force refit on the written training split (save_csv
        # round-trips exactly), and k is its smallest minimizer
        loo = metrics["k_loo_errors"]
        train = load_csv(tmp_path / f"run{seed}-train.csv")
        k_ok = (
            set(loo) == {str(k) for k in range(1, 11)}
            and all(
                loo[str(k)] == knn_loo_errors_bruteforce(train.features, train.labels, k)
                for k in range(1, 11)
            )
            and metrics["k"] == min(range(1, 11), key=lambda k: (loo[str(k)], k))
        )

        # among correctly classified test points, count petal-length signs:
        # setosa should point toward larger petals (positive component,
        # i.e. "small petals here"), virginica the opposite
        setosa = [0, 0]
        virginica = [0, 0]
        for trow, erow in zip(test_rows, expl_rows):
            if int(erow["label"]) != int(trow["label"]):
                continue
            g = float(erow["grad_petal_length"])
            sp = species[int(trow["id"])]
            if sp == 0:
                setosa[0] += g > 0
                setosa[1] += 1
            elif sp == 2:
                virginica[0] += g < 0
                virginica[1] += 1
        sign_ok = (
            setosa[1] > 0
            and virginica[1] > 0
            and setosa[0] / setosa[1] >= 0.8
            and virginica[0] / virginica[1] >= 0.8
        )
        runs.append(
            {
                "k": metrics["k"],
                "loo_min": min(loo.values()),
                "k_ok": k_ok,
                "test_error": metrics["test_error"],
                "sigma": metrics["sigma"],
                "agreement": metrics["mimic_train_agreement"],
                "sign_ok": sign_ok,
            }
        )

    median_err = float(np.median([r["test_error"] for r in runs]))
    k_counts = {k: sum(r["k"] == k for r in runs) for k in {r["k"] for r in runs}}
    k_runs = sum(r["k_ok"] for r in runs)
    k_per_seed = " ".join(f"{seed}:k={r['k']}({r['loo_min']})" for seed, r in enumerate(runs))
    agreement_ok = all(r["agreement"] >= 0.95 for r in runs)
    sigma_ok = all(0.1 <= r["sigma"] <= 0.6 for r in runs)
    sign_runs = sum(r["sign_ok"] for r in runs)

    ok = (
        median_err <= 0.12
        and k_runs == 10
        and agreement_ok
        and sigma_ok
        and sign_runs >= 8
    )
    detail = _report(
        4,
        "iris-pipeline-bands",
        ok,
        f"median test error {median_err:.3f} (<=0.12: {median_err <= 0.12}), "
        f"k = smallest minimizer of the brute-force LOO curve over 1..10 in "
        f"{k_runs}/10 runs (all: {k_runs == 10}; per seed k(min LOO errors) "
        f"{k_per_seed}; counts {k_counts}), "
        f"agreement>=0.95 all runs: {agreement_ok}, "
        f"sigma in [0.1,0.6] all runs: {sigma_ok}, "
        f"sign structure {sign_runs}/10 (>=8: {sign_runs >= 8})",
    )
    assert ok, detail


# -------------------------------------------------------------------------
# 05: vanishing gradient at the three-cluster center + Hessian direction
# -------------------------------------------------------------------------


def test_05_three_cluster_hessian_fallback():
    data = gen_three_clusters(120, seed=3)
    mm = ParzenMimic(data.features, data.labels, 0.6)
    center = np.zeros(2)
    center_norm = float(np.linalg.norm(explain_mimic(mm, center, 2).gradient))

    # class boundaries sit near x1 = +-1 (cluster centers at -2, 0, +2)
    boundary = np.array([[x, y] for x in (-1.0, 1.0) for y in (-0.5, 0.0, 0.5)])
    norms = []
    for b in boundary:
        g = mimic_predict(mm, b)
        norms.append(np.linalg.norm(explain_mimic(mm, b, g).gradient))
    boundary_median = float(np.median(norms))

    fallback = explain_mimic(mm, center, 2, hessian_threshold=1e-6)  # the --hessian-fallback path
    cos_x1 = abs(float(fallback.gradient[0]))
    ok = center_norm < 1e-3 * boundary_median and cos_x1 > 0.9 and fallback.source == "hessian-fallback"
    detail = _report(
        5,
        "three-cluster-fallback",
        ok,
        f"center norm {center_norm:.2e} vs 1e-3*boundary median "
        f"{1e-3 * boundary_median:.2e}, |cos(direction, x1)| = {cos_x1:.4f} (>0.9), source {fallback.source}",
    )
    assert ok, detail


# -------------------------------------------------------------------------
# 06: width regimes — boundary concentration, fitted, direction collapse
# -------------------------------------------------------------------------


def test_06_width_regime_behavior():
    data = gen_nonlinear(300, seed=0)
    X, y = data.features, data.labels
    diff = X[:, None, :] - X[None, :, :]
    dist = np.sqrt((diff**2).sum(axis=2))
    med = float(np.median(dist[np.triu_indices(len(X), k=1)]))
    opp = np.where(y[None, :] != y[:, None], dist, np.inf).min(axis=1)
    interior = opp >= np.quantile(opp, 0.75)
    boundary = opp <= np.quantile(opp, 0.25)

    def grad_field(sigma):
        mm = ParzenMimic(X, y, sigma)
        return np.array(
            [explain_mimic(mm, x, mimic_predict(mm, x)).gradient for x in X]
        )

    def mean_abs_cos(G):
        norms = np.linalg.norm(G, axis=1)
        U = G[norms > 0] / norms[norms > 0, None]
        C = np.abs(U @ U.T)
        return float(C[np.triu_indices(len(U), k=1)].mean())

    fitted = select_width(X, y, default_sigma_grid(X))
    g_tiny = grad_field(0.01 * med)
    g_fit = grad_field(fitted)
    g_huge = grad_field(100.0 * med)

    tiny_norms = np.linalg.norm(g_tiny, axis=1)
    b_med = float(np.median(tiny_norms[boundary]))
    i_med = float(np.median(tiny_norms[interior]))
    tiny_ok = b_med > 0 and i_med < 0.01 * b_med

    cos_fit = mean_abs_cos(g_fit)
    cos_huge = mean_abs_cos(g_huge)
    huge_ok = cos_huge > cos_fit

    ok = tiny_ok and huge_ok
    detail = _report(
        6,
        "width-regimes",
        ok,
        f"tiny: interior median {i_med:.2e} < 1% of boundary median {b_med:.2e}: "
        f"{tiny_ok}; huge: mean |cos| {cos_huge:.3f} > fitted {cos_fit:.3f}: {huge_ok} "
        f"(fitted sigma {fitted:.3f})",
    )
    assert ok, detail


# -------------------------------------------------------------------------
# 07: planted-feature recovery from GPC explanation rankings
# -------------------------------------------------------------------------


def test_07_planted_feature_recovery():
    names = [f"f{j}" for j in range(20)]
    hits = 0
    for seed in range(10):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(150, 20))
        score = X[:, 0] + X[:, 1] + X[:, 2] - X[:, 3] - X[:, 4]
        y = np.where(score >= 0, 1, -1)
        model = ep_fit(X, y, KernelSpec("rbf", width=0.025))
        evs = explain_gpc(model, X)
        ordered = [name for name, _, _ in rank_features(evs, names).ordered()]
        if {"f0", "f1", "f2"} <= set(ordered[:5]) and {"f3", "f4"} <= set(ordered[-5:]):
            hits += 1
    ok = hits >= 9
    detail = _report(
        7,
        "planted-feature-recovery",
        ok,
        f"3 positive features in top-5 and 2 negative in bottom-5 "
        f"in {hits}/10 seeds (>=9)",
    )
    assert ok, detail


# -------------------------------------------------------------------------
# 08: an immune subgroup separates from the rest in gradient distribution
# -------------------------------------------------------------------------


def test_08_subgroup_immunity():
    hits, worst_p, worst_margin = 0, 0.0, np.inf
    for seed in range(10):
        rng = np.random.default_rng(seed)
        n, n_group = 160, 40
        group = np.zeros(n, dtype=bool)
        group[:n_group] = True
        f0 = rng.normal(size=n)
        membership = np.where(group, 3.0, -3.0)
        f2 = rng.normal(size=n)
        X = np.column_stack([f0, membership, f2])
        # inside the subgroup the label ignores f0; outside it follows f0
        y = np.where(group, 1, np.where(f0 > 0, 1, -1))
        model = ep_fit(X, y, KernelSpec("rbf", width=0.1))
        evs = explain_gpc(model, X)
        values = evs.gradient[:, 0]
        spec = default_histogram_spec(values)
        cmp_true = compare_groups(evs, 0, group, spec)
        random_mask = np.zeros(n, dtype=bool)
        random_mask[rng.choice(n, n_group, replace=False)] = True
        cmp_rand = compare_groups(evs, 0, random_mask, spec)
        if cmp_true.p_value < 0.01 and cmp_true.kld > cmp_rand.kld:
            hits += 1
        worst_p = max(worst_p, cmp_true.p_value)
        worst_margin = min(worst_margin, cmp_true.kld / max(cmp_rand.kld, 1e-300))
    ok = hits >= 9
    detail = _report(
        8,
        "subgroup-immunity",
        ok,
        f"{hits}/10 seeds with KS p < 0.01 and group KLD above random mask "
        f"(worst p {worst_p:.1e}, worst KLD ratio {worst_margin:.2f})",
    )
    assert ok, detail


# -------------------------------------------------------------------------
# 09: window smoothing recovers clean gradients at corrupted points
# -------------------------------------------------------------------------


def test_09_outlier_smoothing():
    clean = gen_triangle(80, seed=0)
    corrupt, affected = inject_outliers(clean, 8, seed=100)
    X = clean.features
    sigma, window = 0.3, 0.5
    mm_clean = ParzenMimic(X, clean.labels, sigma)
    mm_corrupt = ParzenMimic(X, corrupt.labels, sigma)
    g_clean = np.array([explain_mimic(mm_clean, x, 1).gradient for x in X])
    g_corrupt = np.array([explain_mimic(mm_corrupt, x, 1).gradient for x in X])
    g_smooth = smooth_gradients(X, g_corrupt, window)

    cos_raw = _mean_cosine(g_clean[affected], g_corrupt[affected])
    cos_smooth = _mean_cosine(g_clean[affected], g_smooth[affected])
    improvement = cos_smooth - cos_raw
    ok = improvement >= 0.2
    detail = _report(
        9,
        "outlier-smoothing",
        ok,
        f"mean cosine at {len(affected)} corrupted points: raw {cos_raw:+.3f}, "
        f"smoothed {cos_smooth:+.3f}, improvement {improvement:+.3f} (>=0.2)",
    )
    assert ok, detail


# -------------------------------------------------------------------------
# 10: morphing walks negative points across the boundary
# -------------------------------------------------------------------------


def test_10_morphing_flips_negatives(tmp_path):
    data = gen_triangle(100, seed=11)
    src = tmp_path / "morph-in.csv"
    out = tmp_path / "morph-out.csv"
    save_csv(data, src)
    assert main(["morph", "--data", str(src), "--sigma", "0.25", "--out", str(out)]) == 0

    mm = ParzenMimic(data.features, data.labels, 0.25)
    negatives = [
        i
        for i in range(data.n)
        if data.labels[i] == -1 and mimic_predict(mm, data.features[i]) == -1
    ]
    trajectories = {}
    with open(out) as fh:
        for row in csv.DictReader(fh):
            trajectories.setdefault(int(row["id"]), []).append(row)

    step0_exact = all(
        int(traj[0]["step"]) == 0
        and float(traj[0]["x1"]) == data.features[i][0]
        and float(traj[0]["x2"]) == data.features[i][1]
        for i, traj in ((int(r), trajectories[int(r)]) for r in data.row_ids)
    )
    flips = 0
    for i in negatives:
        last = trajectories[int(data.row_ids[i])][-1]
        if int(last["flipped"]) == 1 and int(last["step"]) <= 50:
            flips += 1
    rate = flips / len(negatives)
    ok = rate >= 0.9 and step0_exact
    detail = _report(
        10,
        "morph-boundary-crossing",
        ok,
        f"{flips}/{len(negatives)} correctly classified negatives flip "
        f"within 50 steps ({rate:.0%} >= 90%), step-0 rows bit-exact: {step0_exact}",
    )
    assert ok, detail


# -------------------------------------------------------------------------
# 11: statistics against slow oracles
# -------------------------------------------------------------------------


def test_11_statistics_validation():
    worst_gap = 0.0
    for shift, seed in [(0.35, 42), (0.45, 7)]:
        rng = np.random.default_rng(seed)
        a = rng.normal(0.0, 1.0, 50)
        b = rng.normal(shift, 1.0, 50)
        _, p_asym = ks_two_sample(a, b)
        p_perm = ks_p_permutation(a, b, rounds=100000, seed=0)
        worst_gap = max(worst_gap, abs(p_asym - p_perm))
    ks_ok = worst_gap <= 0.02

    rng = np.random.default_rng(3)
    h1, _ = histogram(rng.normal(size=400), default_histogram_spec(rng.normal(size=400)))
    h2, _ = histogram(
        rng.normal(0.5, 1.2, 400), default_histogram_spec(rng.normal(size=400))
    )
    sym_gap = abs(sym_kld(h1, h2, 1.0) - sym_kld(h2, h1, 1.0))
    sym_ok = sym_gap < 1e-12

    values = rng.normal(size=1000) * 3.0
    spec = default_histogram_spec(rng.normal(size=50))
    counts, clipped = histogram(values, spec)
    conserve_ok = int(counts.sum()) == len(values)

    ok = ks_ok and sym_ok and conserve_ok
    detail = _report(
        11,
        "statistics-validation",
        ok,
        f"KS asymptotic vs 1e5-permutation gap {worst_gap:.4f} (<=0.02), "
        f"sym-KLD argument-order gap {sym_gap:.1e} (<1e-12), "
        f"histogram conserves all 1000 counts ({clipped} clipped into edge bins): "
        f"{conserve_ok}",
    )
    assert ok, detail
