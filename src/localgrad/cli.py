"""Command-line interface.

Subcommands reproduce the experimental pipelines end to end and emit
plot-ready CSV/JSON; rendering is left to external tools.  Every run is
reproducible: outputs are byte-identical for the same config and seed
(floats are written with 17 significant digits, JSON keys are sorted,
and all randomness flows through one seeded generator per run).

A JSON config file may mirror any flag (keys are the flag names with
dashes replaced by underscores); explicitly passed flags win.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

import numpy as np

from . import analysis, classifiers, data as datamod, gpc, mimic as mimicmod
from .kernels import kernel_from_dict, kernel_to_dict


def _fmt(x: float) -> str:
    return "%.17g" % x


def _parse_floats(text: str) -> list:
    return [float(tok) for tok in str(text).split(",") if tok.strip()]


def _load_config(args: argparse.Namespace) -> argparse.Namespace:
    """Fill unset flags from the JSON config file, if any."""
    if getattr(args, "config", None):
        with open(args.config) as fh:
            cfg = json.load(fh)
        for key, value in cfg.items():
            attr = key.replace("-", "_")
            if hasattr(args, attr) and getattr(args, attr) is None:
                setattr(args, attr, value)
    return args


def _require(args, *names):
    for name in names:
        if getattr(args, name, None) is None:
            raise ValueError(f"missing required option --{name.replace('_', '-')}")


def _binary_pm1(labels):
    """Map a two-class label vector onto {-1,+1} (lower id -> -1)."""
    classes = sorted(set(int(v) for v in labels))
    if classes == [-1, 1]:
        return np.asarray(labels, dtype=int), {-1: -1, 1: 1}
    if len(classes) != 2:
        raise ValueError(f"need exactly two classes, got {classes}")
    mapping = {classes[0]: -1, classes[1]: 1}
    return np.array([mapping[int(v)] for v in labels], dtype=int), mapping


def _resolve_oracle(spec, dataset):
    """Build a label source from an --oracle value.

    ``knn:K`` fits k-NN with that k on the dataset's labels; ``knn:loo``
    (or ``knn``) picks k by leave-one-out from 1..10; anything else is a
    prediction-table CSV keyed to the dataset's rows.  Without an oracle
    the dataset's own label column plays the role of g; like a table, it
    labels only points that are rows of the dataset.
    """
    if spec is None:
        labels = {int(r): int(l) for r, l in zip(dataset.row_ids, dataset.labels)}
        return classifiers.TableOracle(dataset, labels)
    text = str(spec)
    if text.startswith("knn"):
        _, _, arg = text.partition(":")
        if arg in ("", "loo"):
            ks = [k for k in range(1, 11) if k <= dataset.n - 1]
            return classifiers.knn_fit_loo(dataset.features, dataset.labels, ks)
        return classifiers.KnnClassifier(dataset.features, dataset.labels, int(arg))
    return classifiers.table_oracle_load(text, dataset)


def _build_mimic(args, refs):
    """Reference labels from the oracle, then width selection."""
    oracle = _resolve_oracle(getattr(args, "oracle", None), refs)
    g_labels = np.array([oracle.predict(x) for x in refs.features], dtype=int)
    if getattr(args, "sigma", None) is not None:
        sigma = float(args.sigma)
    else:
        grid_arg = getattr(args, "sigma_grid", None)
        if grid_arg in (None, "auto"):
            grid = mimicmod.default_sigma_grid(refs.features)
        else:
            grid = _parse_floats(grid_arg)
        sigma = mimicmod.select_width(refs.features, g_labels, refs.features, g_labels, grid)
    return mimicmod.ParzenMimic(refs.features, g_labels, sigma), oracle, sigma


def _explanations(args, queries):
    """Shared explanation routing: analytic (--model) or mimic, then the
    --smooth-window smoothing when it is given."""
    if getattr(args, "model", None) and getattr(args, "oracle", None):
        raise ValueError("pass either --model (analytic) or --oracle (mimic), not both")
    if getattr(args, "model", None):
        model = gpc.load_gpc(args.model)
        evs = [gpc.explain_gpc(model, x) for x in queries.features]
        route = ("gpc", model, lambda x: gpc.predict_proba(model, x))
    else:
        _require(args, "data")
        refs = datamod.load_csv(args.data)
        mm, oracle, _sigma = _build_mimic(args, refs)
        threshold = getattr(args, "hessian_fallback", None)
        evs = []
        for x in queries.features:
            g_label = oracle.predict(x)
            if threshold is not None:
                evs.append(mimicmod.explain_with_fallback(mm, x, g_label, float(threshold)))
            else:
                evs.append(mimicmod.explain_estimated(mm, x, g_label))
        route = ("mimic", mm, None)
    window = getattr(args, "smooth_window", None)
    if window is not None:
        G = np.vstack([ev.gradient for ev in evs])
        S = mimicmod.smooth_gradients(queries.features, G, float(window))
        evs = [dataclasses.replace(ev, gradient=s) for ev, s in zip(evs, S)]
    return evs, route


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_fit_gpc(args) -> int:
    _require(args, "data", "out")
    train = datamod.load_csv(args.data)
    y, label_map = _binary_pm1(train.labels)
    kernel_dict = json.loads(args.kernel) if args.kernel else {"kind": "rbf"}
    base = kernel_from_dict(kernel_dict)
    seed = int(args.seed or 0)

    searched = None
    if args.kernel_grid is not None:
        grid = _parse_floats(args.kernel_grid)
        if base.kind == "linear":
            raise ValueError("the linear kernel has no parameter to grid-search")
        param = "width" if base.kind == "rbf" else "rq_length"
        n_val = max(1, train.n // 4)
        sub_train, val = datamod.split_stratified(train, train.n - n_val, seed)
        y_sub, _ = _binary_pm1(sub_train.labels)
        y_val, _ = _binary_pm1(val.labels)
        scores = {}
        for value in grid:
            spec = dataclasses.replace(base, **{param: float(value)})
            model = gpc.ep_fit(sub_train.features, y_sub, spec)
            preds = np.array(
                [1 if gpc.predict_proba(model, x) >= 0.5 else -1 for x in val.features]
            )
            scores[float(value)] = float(np.mean(preds == y_val))
        best = max(sorted(scores), key=lambda v: (scores[v], -v))
        base = dataclasses.replace(base, **{param: best})
        searched = {"parameter": param, "grid": grid, "accuracy": scores, "selected": best}

    model = gpc.ep_fit(train.features, y, base)
    gpc.save_gpc(model, args.out)

    def error_and_auc(ds):
        labels, _ = _binary_pm1(ds.labels)
        probs = np.array([gpc.predict_proba(model, x) for x in ds.features])
        preds = np.where(probs >= 0.5, 1, -1)
        return float(np.mean(preds != labels)), analysis.roc_auc(labels, probs)

    train_error, train_auc = error_and_auc(train)
    metrics = {
        "seed": seed,
        "kernel": kernel_to_dict(base),
        "label_map": {str(k): v for k, v in label_map.items()},
        "converged": model.converged,
        "ep_iterations": model.ep_iterations,
        "ep_sweep_max_delta": model.sweep_max_delta,
        "ep_sweep_skipped": model.sweep_skipped,
        "train_error": train_error,
        "train_auc": train_auc,
    }
    if searched:
        metrics["grid_search"] = searched
    if args.test:
        test = datamod.load_csv(args.test)
        metrics["test_error"], metrics["test_auc"] = error_and_auc(test)
    out_metrics = args.metrics or (str(args.out).rsplit(".", 1)[0] + "-metrics.json")
    with open(out_metrics, "w") as fh:
        json.dump(metrics, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


def cmd_explain(args) -> int:
    _require(args, "out")
    queries = datamod.load_csv(args.queries or args.data)
    evs, _route = _explanations(args, queries)
    mimicmod.save_explanations(args.out, evs, queries.feature_names)
    return 0


def cmd_vector_field(args) -> int:
    _require(args, "model", "out")
    model = gpc.load_gpc(args.model)
    if model.train_x.shape[1] != 2:
        raise ValueError("vector-field needs a 2-D model")
    n = int(args.grid or 30)
    if args.xlim and args.ylim:
        (x_lo, x_hi), (y_lo, y_hi) = _parse_floats(args.xlim), _parse_floats(args.ylim)
    else:
        lo = model.train_x.min(axis=0)
        hi = model.train_x.max(axis=0)
        pad = 0.1 * (hi - lo)
        (x_lo, y_lo), (x_hi, y_hi) = lo - pad, hi + pad
    xs = np.linspace(x_lo, x_hi, n)
    ys = np.linspace(y_lo, y_hi, n)
    with open(args.out, "w", newline="") as fh:
        fh.write("x1,x2,p,grad_x1,grad_x2\n")
        for yv in ys:
            for xv in xs:
                ev = gpc.explain_gpc(model, np.array([xv, yv]))
                fh.write(
                    ",".join(
                        [_fmt(xv), _fmt(yv), _fmt(ev.predicted_probability)]
                        + [_fmt(g) for g in ev.gradient]
                    )
                    + "\n"
                )
    return 0


def cmd_morph(args) -> int:
    _require(args, "out")
    queries = datamod.load_csv(args.queries or args.data)
    evs, (route, obj, prob) = _explanations(args, queries)
    steps = int(args.steps if args.steps is not None else 50)
    if args.step_size is not None:
        step_size = float(args.step_size)
    else:
        step_size = 0.1 * float(np.mean(queries.features.std(axis=0)))

    with open(args.out, "w", newline="") as fh:
        header = ["id", "step"] + list(queries.feature_names) + ["p", "label", "flipped"]
        fh.write(",".join(header) + "\n")
        for rid, ev in zip(queries.row_ids, evs):
            norm = float(np.linalg.norm(ev.gradient))
            if norm > 0:
                direction = ev.gradient / norm
                if route == "gpc" and ev.predicted_label == 1:
                    direction = -direction  # walk away from the predicted class
            else:
                direction = np.zeros_like(ev.gradient)
            for t in range(steps + 1):
                x = ev.query + (t * step_size) * direction
                if route == "gpc":
                    p = prob(x)
                    label = 1 if p >= 0.5 else -1
                else:
                    label = mimicmod.mimic_predict(obj, x)
                    p = mimicmod.parzen_posterior_not(obj, x, ev.predicted_label)
                flipped = int(label != ev.predicted_label)
                fh.write(
                    ",".join(
                        [str(int(rid)), str(t)]
                        + [_fmt(v) for v in x]
                        + [_fmt(p), str(int(label)), str(flipped)]
                    )
                    + "\n"
                )
                if flipped:
                    break
    return 0


def cmd_rank(args) -> int:
    _require(args, "out")
    queries = datamod.load_csv(args.queries or args.data)
    evs, _route = _explanations(args, queries)
    ranking = analysis.rank_features(evs, queries.feature_names)
    analysis.save_ranking_csv(ranking, args.out)
    bins = int(args.bins or 30)
    stem = str(args.out)
    if stem.endswith(".csv"):
        stem = stem[:-4]
    G = np.vstack([ev.gradient for ev in evs])
    for j, name in enumerate(queries.feature_names):
        spec = analysis.default_histogram_spec(G[:, j], bin_count=bins)
        counts, clipped = analysis.histogram(G[:, j], spec)
        safe = "".join(ch if ch.isalnum() else "_" for ch in name)
        analysis.save_histogram_csv(spec, counts, f"{stem}-hist-{safe}.csv", clipped)
    return 0


def cmd_compare(args) -> int:
    _require(args, "out", "data", "feature", "group")
    full = datamod.load_csv(args.data)
    if args.group not in full.feature_names:
        raise ValueError(f"group column {args.group!r} not in the dataset")
    if args.feature not in full.feature_names:
        raise ValueError(f"feature {args.feature!r} not in the dataset")
    mask = full.features[:, full.feature_names.index(args.group)] != 0
    evs, _route = _explanations(args, full)
    j = full.feature_names.index(args.feature)
    values = np.array([ev.gradient[j] for ev in evs])
    bins = int(args.bins or 30)
    eps = float(args.epsilon if args.epsilon is not None else 1.0)
    spec = analysis.default_histogram_spec(values, bin_count=bins, epsilon=eps)
    cmp_result = analysis.compare_groups(evs, j, mask, spec)
    out = analysis.comparison_to_dict(cmp_result)
    out["feature"] = args.feature
    out["group"] = args.group
    out["group_size"] = int(mask.sum())
    with open(args.out, "w") as fh:
        json.dump(out, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


def cmd_iris(args) -> int:
    """Full pipeline on the bundled Iris data: split, normalize, k-NN with
    LOO selection, mimic width selection, explanations for the test set."""
    _require(args, "out")
    seed = int(args.seed or 0)
    full = datamod.load_iris()
    binary = datamod.load_iris(binary=True)
    train, test = datamod.split_stratified(binary, 100, seed)
    train, [test] = datamod.normalize_fit_apply(train, [test])

    k_grid = [int(k) for k in _parse_floats(args.k_grid)] if args.k_grid else list(range(1, 11))
    clf = classifiers.knn_fit_loo(train.features, train.labels, k_grid)
    g_train = clf.predict_batch(train.features)
    g_test = clf.predict_batch(test.features)
    train_error = float(np.mean(g_train != train.labels))
    test_error = float(np.mean(g_test != test.labels))

    if args.sigma_grid in (None, "auto"):
        # widths below ~0.1x the pairwise scale collapse the mimic to a
        # nearest-neighbor lookup where the selection count saturates, so
        # this pipeline searches [0.1, 1] x median pairwise distance
        sigma_grid = mimicmod.default_sigma_grid(train.features, span=(0.1, 1.0))
    else:
        sigma_grid = _parse_floats(args.sigma_grid)
    sigma = mimicmod.select_width(train.features, g_train, train.features, g_train, sigma_grid)
    mm = mimicmod.ParzenMimic(train.features, g_train, sigma)
    mimic_train = np.array([mimicmod.mimic_predict(mm, x) for x in train.features])
    agreement = float(np.mean(mimic_train == g_train))

    evs = [mimicmod.explain_estimated(mm, x, int(g)) for x, g in zip(test.features, g_test)]
    stem = str(args.out)
    if stem.endswith(".csv"):
        stem = stem[:-4]
    mimicmod.save_explanations(f"{stem}-explanations.csv", evs, test.feature_names)
    datamod.save_csv(train, f"{stem}-train.csv")
    datamod.save_csv(test, f"{stem}-test.csv")
    species = {int(r): int(l) for r, l in zip(full.row_ids, full.labels)}
    with open(f"{stem}-test-species.csv", "w", newline="") as fh:
        fh.write("id,species\n")
        for rid in test.row_ids:
            fh.write(f"{int(rid)},{species[int(rid)]}\n")
    datamod.save_norm_stats(train.norm_stats, f"{stem}-norm-stats.json")

    metrics = {
        "seed": seed,
        "k": clf.k,
        "k_loo_errors": {str(k): v for k, v in clf.loo_errors.items()},
        "train_error": train_error,
        "test_error": test_error,
        "sigma": sigma,
        "mimic_train_agreement": agreement,
    }
    with open(f"{stem}-metrics.json", "w") as fh:
        json.dump(metrics, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------


def _add_common(sub):
    sub.add_argument("--config", help="JSON file mirroring the flags; flags override it")
    sub.add_argument("--seed", type=int, help="run seed (default 0)")
    sub.add_argument("--out", help="output path (or prefix for multi-file commands)")


def _add_mimic_opts(sub):
    sub.add_argument("--data", help="reference/query dataset CSV")
    sub.add_argument("--model", help="fitted GPC model JSON (analytic route)")
    sub.add_argument("--oracle", help="label source: knn[:K|:loo] or a prediction-table CSV")
    sub.add_argument("--queries", help="separate query CSV (default: --data rows)")
    sub.add_argument("--sigma", type=float, help="fixed Parzen width (skips selection)")
    sub.add_argument("--sigma-grid", help="comma-separated widths or 'auto'")
    sub.add_argument(
        "--hessian-fallback",
        nargs="?",
        const=1e-6,
        type=float,
        help="use the Hessian direction when the gradient norm is below this threshold",
    )
    sub.add_argument("--smooth-window", type=float, help="sliding-cube halfwidth for smoothing")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="localgrad",
        description="Local explanation vectors for classifiers.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("fit-gpc", help="train a GP classifier, optionally grid-searching the kernel")
    _add_common(p)
    p.add_argument("--data", help="training dataset CSV (binary labels)")
    p.add_argument("--test", help="held-out dataset CSV for test metrics")
    p.add_argument("--kernel", help='kernel JSON, e.g. {"kind":"rbf","w":2.0}')
    p.add_argument("--kernel-grid", help="comma-separated kernel parameter candidates")
    p.add_argument("--metrics", help="metrics JSON path (default derived from --out)")
    p.set_defaults(func=cmd_fit_gpc)

    p = subs.add_parser("explain", help="explanation vectors for query points")
    _add_common(p)
    _add_mimic_opts(p)
    p.set_defaults(func=cmd_explain)

    p = subs.add_parser("vector-field", help="probability and gradient on a 2-D grid")
    _add_common(p)
    p.add_argument("--model", help="fitted GPC model JSON")
    p.add_argument("--grid", type=int, help="grid nodes per axis (default 30)")
    p.add_argument("--xlim", help="x1 range as 'lo,hi' (default: data box +10%%)")
    p.add_argument("--ylim", help="x2 range as 'lo,hi'")
    p.set_defaults(func=cmd_vector_field)

    p = subs.add_parser("morph", help="walk queries along their explanation vectors")
    _add_common(p)
    _add_mimic_opts(p)
    p.add_argument("--steps", type=int, help="maximum number of steps (default 50)")
    p.add_argument("--step-size", type=float, help="step length (default 0.1 x data scale)")
    p.set_defaults(func=cmd_morph)

    p = subs.add_parser("rank", help="feature ranking by mean gradient + histograms")
    _add_common(p)
    _add_mimic_opts(p)
    p.add_argument("--bins", type=int, help="histogram bins (default 30)")
    p.set_defaults(func=cmd_rank)

    p = subs.add_parser("compare", help="two-group comparison of one feature's gradients")
    _add_common(p)
    _add_mimic_opts(p)
    p.add_argument("--feature", help="feature whose gradient components are compared")
    p.add_argument("--group", help="dataset column whose nonzero entries mark the group")
    p.add_argument("--bins", type=int, help="histogram bins (default 30)")
    p.add_argument("--epsilon", type=float, help="bin smoothing for the KLD (default 1)")
    p.set_defaults(func=cmd_compare)

    p = subs.add_parser("iris", help="bundled Iris pipeline (split, k-NN, mimic, explanations)")
    _add_common(p)
    p.add_argument("--k-grid", help="comma-separated k candidates (default 1..10)")
    p.add_argument("--sigma-grid", help="comma-separated widths or 'auto'")
    p.set_defaults(func=cmd_iris)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _load_config(args)
        return args.func(args)
    except Exception as exc:  # error contract: nonzero exit + JSON on stderr
        print(
            json.dumps({"command": args.command, "error": str(exc), "type": type(exc).__name__}),
            file=sys.stderr,
        )
        return 1


if __name__ == "__main__":
    sys.exit(main())
