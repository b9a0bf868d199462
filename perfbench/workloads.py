"""The three workloads: input generation, the commands of one pass, and
the checks on their outputs.

Every input is generated from the workload seed; the program only ever
sees the generated files.  A pass is a closed loop: one CLI command at a
time, each started when the previous one has returned.  Its commands
fall into two groups, ``main`` and ``side``, timed separately (see
README.md for what each group is on each workload).
"""

from __future__ import annotations

import csv
import json
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# Sizes, chosen so that one pass takes about 1.5-3 s on a 2-core x86 box
# and so that each workload is dominated by the layer it is meant to load.
GRID_N = 250  # gpc-fit: rbf kernel-grid fit (three fits on 3/4 of it, then one on all)
GRID_WIDTHS = (0.05, 0.15, 0.45)
RQ_N = 180  # gpc-fit: rational-quadratic fit
FIELD_TRAIN_N = 120  # explain-query: 2-d model behind vector-field
FIELD_GRID = 40
QUERY_TRAIN_N = 150  # explain-query: 5-d model behind explain/morph
GPC_QUERIES = 250
MIMIC_REFS = 800  # explain-query: references of the estimated route
MIMIC_QUERIES = 300
FAR_QUERIES = 6  # of MIMIC_QUERIES, placed where every Parzen weight underflows
MIMIC_SIGMA = 0.7
FALLBACK_THRESHOLD = 0.12
SMOOTH_WINDOW = 0.6
MORPH_STEPS = 30
SELECT_REFS = 900  # mimic-select: references of the knn:loo + auto-sigma command
SELECT_QUERIES = 300
IRIS_RUNS = 20

FD_STEP = 1e-5
FD_SAMPLE = 8  # rows per output whose gradient is checked by finite differences


@dataclass
class Command:
    """One CLI invocation of a pass."""

    name: str
    group: str  # "main" or "side"
    argv: list
    outputs: list  # files the command writes; hashed for the determinism check
    rows: int = 0  # explanation / node / morph rows written, filled by the check


@dataclass
class Workload:
    name: str
    why: str
    setup: Callable  # (lg, inputs_dir, seed) -> None
    commands: Callable  # (inputs_dir, out_dir, seed) -> list[Command]
    check: Callable  # (lg, inputs_dir, commands, seed, chosen) -> {command name: [problems]}
    report: Callable  # (per-command seconds over passes, commands) -> {metric: (value, unit)}
    nonzero: list = field(default_factory=list)  # per-layer metrics that must not read 0


# ---------------------------------------------------------------------------
# input generation
# ---------------------------------------------------------------------------


def _sub(seed: int, k: int) -> int:
    """Independent integer sub-seed k of a workload seed (any integer)."""
    return int(np.random.SeedSequence([seed % 2**64, k]).generate_state(1)[0])


def _five_d(lg, n, seed):
    """gen_nonlinear's disk-and-ring plus three Gaussian noise dimensions."""
    base = lg.data.gen_nonlinear(n, seed)
    noise = np.random.default_rng([seed, 1]).normal(size=(n, 3))  # a stream apart from gen_nonlinear's
    return lg.data.Dataset(
        np.hstack([base.features, noise]), base.labels, ["x1", "x2", "n1", "n2", "n3"]
    )


def _six_d(lg, n, seed, group=False, far=0):
    """Six Gaussian features, a nonlinear two-class rule, optionally a 0/1
    group column that shifts the rule, and `far` rows moved out of range."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, 6))
    score = X[:, 0] + 0.5 * X[:, 1] ** 2 - 0.5 + 0.8 * X[:, 2] * X[:, 3]
    names = [f"x{j + 1}" for j in range(6)]
    if group:
        grp = rng.integers(0, 2, size=n)
        score = score + 0.7 * grp * X[:, 0]
        X = np.hstack([X, grp[:, None]])
        names.append("grp")
    if far:
        X[n - far :, 0] += 60.0
    return lg.data.Dataset(X, (score > 0).astype(int), names)


def _fit(lg, data_csv, kernel, out):
    rc = lg.cli.main(["fit-gpc", "--data", str(data_csv), "--kernel", json.dumps(kernel), "--out", str(out)])
    if rc != 0:
        raise RuntimeError(f"setup fit of {data_csv} failed")


# ---------------------------------------------------------------------------
# output parsing and checks
# ---------------------------------------------------------------------------


def _read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _floats(rows, cols):
    return np.array([[float(r[j]) for j in cols] for r in rows], dtype=float).reshape(len(rows), len(cols))


def _fd_grad(f, x):
    g = np.empty_like(x)
    for j in range(x.size):
        e = np.zeros_like(x)
        e[j] = FD_STEP
        g[j] = (f(x + e) - f(x - e)) / (2.0 * FD_STEP)
    return g


def _grad_ok(fd, grad):
    return bool(np.allclose(grad, fd, rtol=1e-4, atol=1e-7))


def _sample(n, seed, k=FD_SAMPLE):
    return np.random.default_rng(seed).choice(n, size=min(k, n), replace=False)


def _check_explanations(path, n_rows, d, problems):
    """Row count and finiteness of an explanation CSV; returns
    (query coords, gradients, labels, sources)."""
    header, rows = _read_csv(path)
    if len(header) != 2 * d + 4:
        problems.append(f"{path.name}: {len(header)} columns, expected {2 * d + 4}")
        return None
    if len(rows) != n_rows:
        problems.append(f"{path.name}: {len(rows)} rows, expected {n_rows}")
    vals = _floats(rows, range(2 * d + 1))
    if not np.all(np.isfinite(vals)):
        problems.append(f"{path.name}: non-finite values")
    labels = np.array([int(r[2 * d + 1]) for r in rows])
    sources = [r[2 * d + 2] for r in rows]
    return vals[:, :d], vals[:, d : 2 * d], labels, sources


def _check_morph(path, queries, steps, problems):
    """Path structure of a morph CSV; returns (rows, paths, flipped paths)."""
    header, rows = _read_csv(path)
    d = queries.d
    by_id = {}
    for r in rows:
        by_id.setdefault(int(r[0]), []).append(r)
    if sorted(by_id) != sorted(int(i) for i in queries.row_ids):
        problems.append(f"{path.name}: path ids differ from the query ids")
        return len(rows), len(by_id), 0
    flipped = 0
    for rid, x in zip(queries.row_ids, queries.features):
        path_rows = by_id[int(rid)]
        if [int(r[1]) for r in path_rows] != list(range(len(path_rows))) or len(path_rows) > steps + 1:
            problems.append(f"{path.name}: id {rid}: steps not 0..k with k <= {steps}")
            continue
        start = np.array([float(v) for v in path_rows[0][2 : 2 + d]])
        if not np.array_equal(start, x):  # bit-exact: both sides are %.17g round trips
            problems.append(f"{path.name}: id {rid}: step 0 is not the query point")
        vals = _floats(path_rows, range(2, 3 + d))
        if not np.all(np.isfinite(vals)):
            problems.append(f"{path.name}: id {rid}: non-finite values")
        flags = [int(r[-1]) for r in path_rows]
        if any(flags[:-1]) or (flags[-1] == 0 and len(path_rows) != steps + 1):
            problems.append(f"{path.name}: id {rid}: path did not stop at its first flip")
        flipped += flags[-1]
    return len(rows), len(by_id), flipped


def _check_gpc_metrics(path, problems):
    m = json.loads(Path(path).read_text())
    if m.get("converged") is not True:
        problems.append(f"{Path(path).name}: EP did not converge")
    if not 1 <= int(m.get("ep_iterations", 0)):
        problems.append(f"{Path(path).name}: no EP sweeps reported")
    for key in ("train_error", "train_auc"):
        if not 0.0 <= float(m.get(key, -1)) <= 1.0:
            problems.append(f"{Path(path).name}: {key} outside [0, 1]")
    grid = m.get("grid_search")
    if grid is not None and grid["selected"] not in grid["grid"]:
        problems.append(f"{Path(path).name}: selected kernel parameter not in the grid")
    return m


def _check_model(lg, path, n, problems):
    model = lg.gpc.load_gpc(path)
    if len(model.alpha) != n or not np.all(np.isfinite(model.alpha)):
        problems.append(f"{Path(path).name}: alpha has wrong length or non-finite entries")


def _check_analytic_grads(lg, model, X, G, seed, problems, label):
    for i in _sample(len(X), seed):
        fd = _fd_grad(lambda x: lg.gpc.predict_proba(model, x), X[i])
        if not _grad_ok(fd, G[i]):
            problems.append(f"{label}: row {i}: gradient differs from finite differences")


def _mimic_from(lg, refs, k, sigma):
    knn = lg.classifiers.KnnClassifier(refs.features, refs.labels, k)
    g = np.array([knn.predict(x) for x in refs.features], dtype=int)
    return lg.mimic.ParzenMimic(refs.features, g, sigma)


def _check_estimated_grads(lg, mm, X, G, labels, rows, seed, problems, label):
    for i in rows[_sample(len(rows), seed)]:
        fd = _fd_grad(lambda x: lg.mimic.parzen_posterior_not(mm, x, labels[i]), X[i])
        if not _grad_ok(fd, G[i]):
            problems.append(f"{label}: row {i}: gradient differs from finite differences")


def iqm(values) -> float:
    """Interquartile mean: the mean of the values left after dropping the
    lowest and highest quarter.  The machine this was tuned on switches
    between speed levels ~15% apart every 10-20 s; a median then jumps
    between levels, while this mean blends them and still ignores stalls."""
    v = np.sort(np.asarray(values, dtype=float))
    cut = len(v) // 4
    return float(np.mean(v[cut : len(v) - cut])) if len(v) else 0.0


def _pass_sum(per_cmd, names):
    """Typical (interquartile-mean) summed time of the named commands in a pass."""
    return iqm(np.sum([per_cmd[n] for n in names], axis=0))


def _rate(per_cmd, commands, names):
    return sum(commands[n].rows for n in names) / _pass_sum(per_cmd, names)


# ---------------------------------------------------------------------------
# gpc-fit
# ---------------------------------------------------------------------------


def _gpc_fit_setup(lg, d: Path, seed):
    lg.data.save_csv(_five_d(lg, GRID_N, _sub(seed, 1)), d / "grid.csv")
    lg.data.save_csv(_five_d(lg, RQ_N, _sub(seed, 2)), d / "rq.csv")


def _gpc_fit_commands(d: Path, o: Path, seed):
    rq = {"kind": "rational-quadratic", "alpha": 1.0, "length": 1.5}
    return [
        Command(
            "fit-gpc-grid", "main",
            ["fit-gpc", "--data", str(d / "grid.csv"), "--kernel", '{"kind": "rbf"}',
             "--kernel-grid", ",".join(map(str, GRID_WIDTHS)), "--seed", str(seed % 2**32),
             "--out", str(o / "grid.json")],
            [o / "grid.json", o / "grid-metrics.json"],
        ),
        Command(
            "fit-gpc-rq", "side",
            ["fit-gpc", "--data", str(d / "rq.csv"), "--kernel", json.dumps(rq),
             "--out", str(o / "rq.json")],
            [o / "rq.json", o / "rq-metrics.json"],
        ),
    ]


def _gpc_fit_check(lg, d, commands, seed, chosen):
    out = {}
    for cmd, n in zip(commands, (GRID_N, RQ_N)):
        problems = out.setdefault(cmd.name, [])
        _check_gpc_metrics(cmd.outputs[1], problems)
        _check_model(lg, cmd.outputs[0], n, problems)
    return out


def _gpc_fit_report(per_cmd, commands):
    return {"fit_s": (_pass_sum(per_cmd, list(commands)), "s")}


# ---------------------------------------------------------------------------
# explain-query
# ---------------------------------------------------------------------------


def _explain_setup(lg, d: Path, seed):
    lg.data.save_csv(lg.data.gen_nonlinear(FIELD_TRAIN_N, _sub(seed, 1)), d / "field-train.csv")
    _fit(lg, d / "field-train.csv", {"kind": "rbf", "w": 1.0}, d / "field-model.json")
    lg.data.save_csv(_five_d(lg, QUERY_TRAIN_N, _sub(seed, 2)), d / "gpc-train.csv")
    _fit(lg, d / "gpc-train.csv", {"kind": "rbf", "w": 0.15}, d / "gpc-model.json")
    lg.data.save_csv(_five_d(lg, GPC_QUERIES, _sub(seed, 3)), d / "gpc-queries.csv")
    lg.data.save_csv(_six_d(lg, MIMIC_REFS, _sub(seed, 4), group=True), d / "refs.csv")
    lg.data.save_csv(
        _six_d(lg, MIMIC_QUERIES, _sub(seed, 5), group=True, far=FAR_QUERIES), d / "queries.csv"
    )


def _explain_commands(d: Path, o: Path, seed):
    gpc = ["--model", str(d / "gpc-model.json"), "--queries", str(d / "gpc-queries.csv")]
    mim = ["--data", str(d / "refs.csv"), "--oracle", "knn:5", "--sigma", str(MIMIC_SIGMA)]
    steps = ["--steps", str(MORPH_STEPS), "--step-size", "0.15"]
    return [
        Command(
            "vector-field", "main",
            ["vector-field", "--model", str(d / "field-model.json"), "--grid", str(FIELD_GRID),
             "--out", str(o / "field.csv")],
            [o / "field.csv"],
        ),
        Command("explain-gpc", "main", ["explain", *gpc, "--out", str(o / "gpc-expl.csv")],
                [o / "gpc-expl.csv"]),
        Command("morph-gpc", "main", ["morph", *gpc, *steps, "--out", str(o / "gpc-morph.csv")],
                [o / "gpc-morph.csv"]),
        Command(
            "explain-mimic", "side",
            ["explain", *mim, "--queries", str(d / "queries.csv"),
             "--hessian-fallback", str(FALLBACK_THRESHOLD), "--smooth-window", str(SMOOTH_WINDOW),
             "--out", str(o / "mimic-expl.csv")],
            [o / "mimic-expl.csv"],
        ),
        Command(
            "morph-mimic", "side",
            ["morph", *mim, "--queries", str(d / "queries.csv"), *steps,
             "--out", str(o / "mimic-morph.csv")],
            [o / "mimic-morph.csv"],
        ),
        Command(
            "compare", "side",
            ["compare", *mim, "--feature", "x1", "--group", "grp", "--out", str(o / "compare.json")],
            [o / "compare.json"],
        ),
    ]


def _explain_check(lg, d, commands, seed, chosen):
    out = {c.name: [] for c in commands}
    cmd = {c.name: c for c in commands}

    # vector-field: grid^2 nodes, p in [0, 1], gradients match finite differences
    problems = out["vector-field"]
    header, rows = _read_csv(cmd["vector-field"].outputs[0])
    vals = _floats(rows, range(5))
    if len(rows) != FIELD_GRID**2:
        problems.append(f"field.csv: {len(rows)} rows, expected {FIELD_GRID ** 2}")
    if not np.all(np.isfinite(vals)) or not np.all((vals[:, 2] >= 0) & (vals[:, 2] <= 1)):
        problems.append("field.csv: non-finite values or p outside [0, 1]")
    field_model = lg.gpc.load_gpc(d / "field-model.json")
    _check_analytic_grads(lg, field_model, vals[:, :2], vals[:, 3:], _sub(seed, 10), problems, "field.csv")
    cmd["vector-field"].rows = len(rows)

    # analytic explanations and morph paths
    model = lg.gpc.load_gpc(d / "gpc-model.json")
    gq = lg.data.load_csv(d / "gpc-queries.csv")
    problems = out["explain-gpc"]
    parsed = _check_explanations(cmd["explain-gpc"].outputs[0], gq.n, gq.d, problems)
    if parsed is not None:
        X, G, _, _ = parsed
        if not np.array_equal(X, gq.features):
            problems.append("gpc-expl.csv: query coordinates differ from the input")
        _check_analytic_grads(lg, model, X, G, _sub(seed, 11), problems, "gpc-expl.csv")
        cmd["explain-gpc"].rows = len(X)
    cmd["morph-gpc"].rows, paths, flips = _check_morph(
        cmd["morph-gpc"].outputs[0], gq, MORPH_STEPS, out["morph-gpc"]
    )
    chosen.setdefault("morph_paths", []).append(paths)
    chosen.setdefault("morph_flips", []).append(flips)

    # estimated explanations: rows whose smoothing window holds only the row
    # itself carry the raw gradient, which must match finite differences
    refs = lg.data.load_csv(d / "refs.csv")
    q = lg.data.load_csv(d / "queries.csv")
    mm = _mimic_from(lg, refs, 5, MIMIC_SIGMA)
    problems = out["explain-mimic"]
    parsed = _check_explanations(cmd["explain-mimic"].outputs[0], q.n, q.d, problems)
    if parsed is not None:
        X, G, labels, sources = parsed
        alone = np.array([
            i for i in range(len(X))
            if np.sum(np.all(np.abs(X - X[i]) <= SMOOTH_WINDOW, axis=1)) == 1
        ])
        raw = np.array([i for i in alone if sources[i] == "parzen-mimic"], dtype=int)
        _check_estimated_grads(lg, mm, X, G, labels, raw, _sub(seed, 12), problems, "mimic-expl.csv")
        fallback = np.array([i for i in alone if sources[i] == "hessian-fallback"], dtype=int)
        if len(fallback) and not np.allclose(np.linalg.norm(G[fallback], axis=1), 1.0, atol=1e-9):
            problems.append("mimic-expl.csv: Hessian-fallback directions are not unit vectors")
        cmd["explain-mimic"].rows = len(X)
    cmd["morph-mimic"].rows, paths, flips = _check_morph(
        cmd["morph-mimic"].outputs[0], q, MORPH_STEPS, out["morph-mimic"]
    )
    chosen["morph_paths"].append(paths)
    chosen["morph_flips"].append(flips)

    problems = out["compare"]
    res = json.loads(Path(cmd["compare"].outputs[0]).read_text())
    if res.get("group_size") != int(np.sum(refs.features[:, -1] != 0)):
        problems.append("compare.json: group_size differs from the group column")
    numbers = [res["ks_statistic"], res["p_value"], res["sym_kld"]]
    if not all(np.isfinite(numbers)) or not 0.0 <= res["p_value"] <= 1.0:
        problems.append("compare.json: non-finite statistic or p-value outside [0, 1]")
    return out


def _explain_report(per_cmd, commands):
    return {
        "gpc_explain_per_s": (_rate(per_cmd, commands, ["explain-gpc"]), "1/s"),
        "mimic_explain_per_s": (_rate(per_cmd, commands, ["explain-mimic"]), "1/s"),
        "field_nodes_per_s": (_rate(per_cmd, commands, ["vector-field"]), "1/s"),
        "morph_steps_per_s": (_rate(per_cmd, commands, ["morph-gpc", "morph-mimic"]), "1/s"),
    }


# ---------------------------------------------------------------------------
# mimic-select
# ---------------------------------------------------------------------------


def _select_setup(lg, d: Path, seed):
    lg.data.save_csv(_six_d(lg, SELECT_REFS, _sub(seed, 1)), d / "refs.csv")
    lg.data.save_csv(_six_d(lg, SELECT_QUERIES, _sub(seed, 2)), d / "queries.csv")


def _iris_seeds(seed):
    return [_sub(seed, 100 + i) % 100000 for i in range(IRIS_RUNS)]


def _select_commands(d: Path, o: Path, seed):
    cmds = [
        Command(
            "explain-select", "main",
            ["explain", "--data", str(d / "refs.csv"), "--queries", str(d / "queries.csv"),
             "--oracle", "knn:loo", "--sigma-grid", "auto", "--out", str(o / "select-expl.csv")],
            [o / "select-expl.csv"],
        )
    ]
    for s in _iris_seeds(seed):
        stem = o / f"iris-{s}"
        suffixes = ("explanations.csv", "train.csv", "test.csv", "test-species.csv",
                    "norm-stats.json", "metrics.json")
        cmds.append(
            Command(f"iris-{s}", "side", ["iris", "--seed", str(s), "--out", f"{stem}.csv"],
                    [Path(f"{stem}-{suffix}") for suffix in suffixes])
        )
    return cmds


def _select_check(lg, d, commands, seed, chosen):
    out = {c.name: [] for c in commands}
    sel = commands[0]
    problems = out[sel.name]
    refs = lg.data.load_csv(d / "refs.csv")
    q = lg.data.load_csv(d / "queries.csv")
    parsed = _check_explanations(sel.outputs[0], q.n, q.d, problems)
    if parsed is not None:
        sel.rows = len(parsed[0])
    # k and sigma are seen on the return values of knn_fit_loo and select_width;
    # should either function be gone from the program, only the iris metrics remain
    ks, sigmas = chosen.get("k", []), chosen.get("sigma", [])
    if not {"classifiers.knn_fit_loo", "mimic.select_width"} <= chosen["spans"]:
        ks = sigmas = [None] * (1 + IRIS_RUNS)
    elif len(ks) != 1 + IRIS_RUNS or len(sigmas) != 1 + IRIS_RUNS:
        problems.append("k or sigma selection was not observed once per command")
        return out
    k, sigma = ks[0], sigmas[0]
    if k is not None:
        grid = lg.mimic.default_sigma_grid(refs.features)
        if not 1 <= k <= 10 or not np.any(np.isclose(grid, sigma, rtol=1e-12, atol=0)):
            problems.append(f"selected k={k} or sigma={sigma} outside 1..10 / the auto grid")
        if parsed is not None:
            X, G, labels, _ = parsed
            mm = _mimic_from(lg, refs, k, sigma)
            _check_estimated_grads(
                lg, mm, X, G, labels, np.arange(len(X)), _sub(seed, 13), problems, "select-expl.csv"
            )

    for i, cmd in enumerate(commands[1:]):
        problems = out[cmd.name]
        m = json.loads(Path(cmd.outputs[5]).read_text())
        train = lg.data.load_csv(cmd.outputs[1])
        grid = lg.mimic.default_sigma_grid(train.features, span=(0.1, 1.0))
        if ks[i + 1] is not None and (m["k"] != ks[i + 1] or m["sigma"] != sigmas[i + 1]):
            problems.append("metrics.json disagrees with the observed selection")
        if not 1 <= m["k"] <= 10 or not np.any(np.isclose(grid, m["sigma"], rtol=1e-12, atol=0)):
            problems.append(f"k={m['k']} or sigma={m['sigma']} outside 1..10 / the iris grid")
        test = lg.data.load_csv(cmd.outputs[2])
        parsed = _check_explanations(cmd.outputs[0], test.n, test.d, problems)
        if parsed is not None and i == 0:
            X, G, labels, _ = parsed
            mm = _mimic_from(lg, train, m["k"], m["sigma"])
            _check_estimated_grads(
                lg, mm, X, G, labels, np.arange(len(X)), _sub(seed, 14), problems, cmd.name
            )
        cmd.rows = test.n
    return out


def _select_report(per_cmd, commands):
    iris = [t for name, times in per_cmd.items() if name.startswith("iris-") for t in times]
    return {
        "fit_s": (_pass_sum(per_cmd, ["explain-select"]), "s"),
        "iris_s": (iqm(iris), "s"),
    }


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

_COMMON = ["cli.self_s", "data.load_csv.calls", "data.load_csv.s", "data.self_s"]

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "gpc-fit",
            "EP dominates: fit-gpc --kernel-grid over 3 rbf widths (main) plus one rational-quadratic "
            "fit (side); the only workload where a faster EP shows",
            _gpc_fit_setup,
            _gpc_fit_commands,
            _gpc_fit_check,
            _gpc_fit_report,
            _COMMON + [
                "cli.fit-gpc.s", "gpc.ep_fit.calls", "gpc.ep_fit.s", "gpc.ep_sweeps",
                "gpc.ep_s_per_sweep", "gpc.predict_proba.calls", "gpc.predict_proba.s",
                "kernels.kernel_vector.calls", "kernels.kernel_vector.s",
                "kernels.kernel_gram.calls", "kernels.kernel_gram.s", "analysis.roc_auc.s",
                "gpc.self_s", "kernels.self_s", "analysis.self_s",
            ],
        ),
        Workload(
            "explain-query",
            "per-query code dominates: analytic vector-field/explain/morph on fitted GPs (main), "
            "estimated explain/morph/compare at fixed k and sigma (side); no EP, no selection",
            _explain_setup,
            _explain_commands,
            _explain_check,
            _explain_report,
            _COMMON + [
                "cli.explain.s", "cli.vector-field.s", "cli.morph.s", "cli.compare.s",
                "cli.morph.flip_frac",
                "gpc.explain_gpc.calls", "gpc.explain_gpc.s", "gpc.explain_gpc.us_per_call",
                "gpc.predict_proba.calls", "gpc.predict_proba.s",
                "kernels.kernel_vector.calls", "kernels.kernel_vector.s",
                "kernels.kernel_grad_matrix.calls", "kernels.kernel_grad_matrix.s",
                "kernels.kernel_gram.calls", "kernels.kernel_gram.s",
                "gpc.load_gpc.calls", "gpc.load_gpc.s",
                "mimic.explain_estimated.calls", "mimic.explain_estimated.s",
                "mimic.explain_with_fallback.calls", "mimic.explain_with_fallback.s",
                "mimic.mimic_predict.calls", "mimic.mimic_predict.s",
                "mimic.parzen_posterior_not.calls", "mimic.parzen_posterior_not.s",
                "mimic.smooth_gradients.s", "mimic.hessian_fallback.frac", "mimic.far_field.rows",
                "classifiers.KnnClassifier.predict.calls", "classifiers.KnnClassifier.predict.s",
                "analysis.compare_groups.s", "mimic.save_explanations.s",
                "gpc.self_s", "kernels.self_s", "mimic.self_s", "classifiers.self_s", "analysis.self_s",
            ],
        ),
        Workload(
            "mimic-select",
            "model selection dominates: explain --oracle knn:loo --sigma-grid auto on 900 refs (main) "
            "plus 20 iris runs at m=100 (side), where per-call overhead outweighs m^2 work",
            _select_setup,
            _select_commands,
            _select_check,
            _select_report,
            _COMMON + [
                "cli.explain.s", "cli.iris.s",
                "mimic.select_width.calls", "mimic.select_width.s", "mimic.select_width.candidates",
                "mimic.default_sigma_grid.s",
                "classifiers.knn_fit_loo.calls", "classifiers.knn_fit_loo.s",
                "classifiers.knn_fit_loo.k_evaluated",
                "classifiers.KnnClassifier.predict.calls", "classifiers.KnnClassifier.predict.s",
                "mimic.explain_estimated.calls", "mimic.explain_estimated.s",
                "mimic.mimic_predict.calls", "mimic.mimic_predict.s",
                "mimic.parzen_posterior_not.calls", "mimic.save_explanations.s",
                "mimic.self_s", "classifiers.self_s",
            ],
        ),
    )
}
