"""Command-line interface.

Subcommands reproduce the experimental pipelines end to end and emit
plot-ready CSV/JSON; rendering is left to external tools.  Every run is
reproducible: outputs are byte-identical for the same config and seed
(floats are written with 17 significant digits, JSON keys are sorted,
and all randomness flows through one seeded generator per run).

A JSON config file may mirror any flag (keys are the flag names with
dashes replaced by underscores, values are parsed as the flag parses
them); explicitly passed flags win.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys

import numpy as np

from . import analysis, classifiers, data as datamod, gpc, mimic as mimicmod
from .kernels import kernel_from_dict, kernel_to_dict


def _parse_floats(text: str, flag: str) -> list:
    """The numbers of a comma-separated list; a token that is no number is an error naming the flag."""
    try:
        return [float(tok) for tok in str(text).split(",") if tok.strip()]
    except ValueError:
        raise ValueError(f"--{flag} takes comma-separated numbers, got {text!r}") from None


class _RaisingParser(argparse.ArgumentParser):
    """Parser for config values: a value its flag rejects raises instead
    of exiting, so it takes the error contract of every other failure."""

    def error(self, message):
        raise ValueError(f"config: {message}")


def _load_config(args: argparse.Namespace) -> argparse.Namespace:
    """Fill unset flags from the JSON config file, if any.  Each value goes
    through the subcommand's own parser as ``--flag=value``, so it gets the
    flag's type; ``true`` stands for the bare flag.  A key that names no
    flag of the subcommand is an error; ``null`` leaves its flag unset."""
    if getattr(args, "config", None):
        with open(args.config) as fh:
            cfg = json.load(fh)
        argv = [args.command]
        for key, value in cfg.items():
            attr = key.replace("-", "_")
            if attr == "command" or not hasattr(args, attr):
                raise ValueError(f"config key {key!r} is not a flag of {args.command}")
            if getattr(args, attr) is None and value is not None:
                flag = "--" + attr.replace("_", "-")
                argv.append(flag if value is True else f"{flag}={value}")
        parsed = _parser(_RaisingParser).parse_args(argv)
        for attr, value in vars(parsed).items():
            if getattr(args, attr) is None:
                setattr(args, attr, value)
    return args


def _require(args, *names):
    for name in names:
        if getattr(args, name, None) is None:
            raise ValueError(f"missing required option --{name.replace('_', '-')}")


def _count(args, name, default, least):
    """An integer flag's value, or its default when unset; below `least` is an error."""
    value = default if getattr(args, name) is None else getattr(args, name)
    if value < least:
        raise ValueError(f"--{name.replace('_', '-')} must be at least {least}, got {value}")
    return value


def _limits(args, name):
    """A range flag's 'lo,hi' as two numbers; anything else is an error naming the flag."""
    try:
        lo, hi = _parse_floats(getattr(args, name), name)
    except ValueError:  # a token that is no number, or not two of them
        raise ValueError(f"--{name} takes two numbers 'lo,hi', got {getattr(args, name)!r}") from None
    return lo, hi


def _to_pm1(labels, label_map):
    """Labels mapped onto {-1,+1} by the training set's label_map; a label
    the training set does not carry is an error."""
    unknown = sorted(set(labels.tolist()) - set(label_map))
    if unknown:
        raise ValueError(f"label {unknown[0]} is not a training class {sorted(label_map)}")
    return np.array([label_map[v] for v in labels.tolist()], dtype=int)


def _resolve_oracle(spec, dataset):
    """Build a label source from an --oracle value.

    ``knn:K`` fits k-NN with that k on the dataset's labels; ``knn:loo``
    (or ``knn``) picks k by leave-one-out from 1..10; anything else is a
    prediction-table CSV keyed to the dataset's rows.  Without an oracle
    the dataset's own label column plays the role of g; like a table, it
    labels only points that are rows of the dataset.
    """
    if spec is None:
        return classifiers.TableOracle(dataset, dict(zip(dataset.row_ids, dataset.labels)))
    text = str(spec)
    if text.startswith("knn"):
        _, _, arg = text.partition(":")
        if arg in ("", "loo"):
            return classifiers.knn_fit_loo(dataset.features, dataset.labels, range(1, min(11, dataset.n)))
        k = datamod._integral(arg)
        if k is None:
            raise ValueError(f"--oracle knn:K takes an integer K, got {text!r}")
        return classifiers.KnnClassifier(dataset.features, dataset.labels, k)
    return classifiers.table_oracle_load(text, dataset)


def _fit_mimic(args, points, g_labels, *span):
    """The Parzen mimic of the labels g gives the points.  Its width is
    --sigma, or else the leave-one-out choice from the --sigma-grid list
    or from the auto grid, default_sigma_grid(points, *span)."""
    if getattr(args, "sigma", None) is not None:
        sigma = float(args.sigma)
    else:
        if args.sigma_grid in (None, "auto"):
            grid = mimicmod.default_sigma_grid(points, *span)
        else:
            grid = _parse_floats(args.sigma_grid, "sigma-grid")
            if not grid:
                raise ValueError(f"--sigma-grid lists no candidates, got {args.sigma_grid!r}")
        # by keyword: perfbench's tracer counts the candidates from it
        sigma = mimicmod.select_width(points, g_labels, candidate_sigmas=grid)
    return mimicmod.ParzenMimic(points, g_labels, sigma)


def _explanations(args, queries):
    """Shared explanation routing: one explain_gpc (--model) or explain_mimic
    call for all the queries, then the --smooth-window smoothing when it is
    given.  The mimic's references are the --data rows; without --queries
    they are the queries, read and labelled once.  Returns one block record
    of the queries' explanations and the route: ("gpc", model) or ("mimic", mimic)."""
    if getattr(args, "model", None):
        for name in ("oracle", "sigma", "sigma_grid", "hessian_fallback"):
            if getattr(args, name, None) is not None:
                flag = "--" + name.replace("_", "-")
                raise ValueError(f"pass either --model (analytic) or {flag} (mimic), not both")
        model = gpc.load_gpc(args.model)
        evs = gpc.explain_gpc(model, queries.features)
        route = ("gpc", model)
    else:
        _require(args, "data")
        threshold = args.hessian_fallback
        if threshold is not None and not threshold > 0:
            raise ValueError(f"--hessian-fallback must be positive, got {threshold}")
        refs = queries if args.queries is None else datamod.load_csv(args.data)
        oracle = _resolve_oracle(args.oracle, refs)
        g_refs = oracle.predict(refs.features)
        mm = _fit_mimic(args, refs.features, g_refs)
        g = g_refs if queries is refs else oracle.predict(queries.features)
        evs = mimicmod.explain_mimic(mm, queries.features, g, hessian_threshold=threshold)
        route = ("mimic", mm)
    window = getattr(args, "smooth_window", None)
    if window is not None:
        evs.gradient = mimicmod.smooth_gradients(queries.features, evs.gradient, float(window))
    return evs, route


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_fit_gpc(args) -> int:
    _require(args, "data", "out")
    train = datamod.load_csv(args.data)
    classes = train.classes().tolist()
    if len(classes) != 2:
        raise ValueError(f"need exactly two classes, got {classes}")
    label_map = {classes[0]: -1, classes[1]: 1}  # lower id -> -1
    kernel_dict = json.loads(args.kernel) if args.kernel else {"kind": "rbf"}
    if not isinstance(kernel_dict, dict):
        raise ValueError(f'--kernel must be a JSON object such as {{"kind": "rbf", "w": 2.0}}, got {args.kernel!r}')
    base = kernel_from_dict(kernel_dict)
    seed = int(args.seed or 0)

    searched = None
    if args.kernel_grid is not None:
        grid = _parse_floats(args.kernel_grid, "kernel-grid")
        if not grid:
            raise ValueError(f"--kernel-grid lists no candidates, got {args.kernel_grid!r}")
        if base.kind == "linear":
            raise ValueError("the linear kernel has no parameter to grid-search")
        param = "width" if base.kind == "rbf" else "rq_length"
        n_val = max(1, train.n // 4)
        sub_train, val = datamod.split_stratified(train, train.n - n_val, seed)
        y_sub, y_val = _to_pm1(sub_train.labels, label_map), _to_pm1(val.labels, label_map)

        def accuracy(value):
            # the candidate dies on return: one grid model is alive at a time
            model = gpc.ep_fit(sub_train.features, y_sub, dataclasses.replace(base, **{param: value}))
            return float(np.mean(np.where(gpc.predict_proba(model, val.features) >= 0.5, 1, -1) == y_val))

        scores = {value: accuracy(value) for value in grid}
        best = max(sorted(scores), key=lambda v: (scores[v], -v))
        base = dataclasses.replace(base, **{param: best})
        searched = {"parameter": param, "grid": grid, "accuracy": scores, "selected": best}

    model = gpc.ep_fit(train.features, _to_pm1(train.labels, label_map), base)
    gpc.save_gpc(model, args.out)

    def error_and_auc(ds):
        labels = _to_pm1(ds.labels, label_map)
        probs = gpc.predict_proba(model, ds.features)
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
        "ep_sweep_step": model.sweep_step,
        "ep_floored_sites": model.floored_sites,
        "train_error": train_error,
        "train_auc": train_auc,
    }
    if searched:
        metrics["grid_search"] = searched
    if args.test:
        test = datamod.load_csv(args.test)
        metrics["test_error"], metrics["test_auc"] = error_and_auc(test)
    datamod.save_json(metrics, args.metrics or (str(args.out).rsplit(".", 1)[0] + "-metrics.json"))
    return 0


def cmd_explain(args) -> int:
    _require(args, "out", "data" if args.queries is None else "queries")
    queries = datamod.load_csv(args.queries or args.data)
    evs, _route = _explanations(args, queries)
    mimicmod.save_explanations(args.out, evs, queries.feature_names)
    return 0


def cmd_vector_field(args) -> int:
    _require(args, "model", "out")
    limits = [_limits(args, name) if getattr(args, name) else None for name in ("xlim", "ylim")]
    model = gpc.load_gpc(args.model)
    if model.train_x.shape[1] != 2:
        raise ValueError("vector-field needs a 2-D model")
    n = _count(args, "grid", 30, least=1)
    lo, hi = model.train_x.min(axis=0), model.train_x.max(axis=0)
    pad = 0.1 * (hi - lo)
    # each axis spans the padded data box, unless its flag gives a range
    xs, ys = (np.linspace(*(given or box), n) for given, box in zip(limits, zip(lo - pad, hi + pad)))

    def grid_rows():  # one explain_gpc call and one block per grid row
        for yv in ys:
            evs = gpc.explain_gpc(model, np.column_stack([xs, np.full(n, yv)]))
            yield evs.query, evs.predicted_probability, evs.gradient

    datamod._write_table(args.out, ["x1", "x2", "p", "grad_x1", "grad_x2"], grid_rows())
    return 0


def cmd_morph(args) -> int:
    """Walk each query along its explanation vector until its label flips.
    All live paths advance in lockstep, one block evaluation per step, and
    step 0 reads the explanations' probabilities; on the mimic route each
    step's labels come from mimic._relabel.  The rows are then written in
    blocks of whole paths."""
    _require(args, "out", "data" if args.queries is None else "queries")
    queries = datamod.load_csv(args.queries or args.data)
    steps = _count(args, "steps", 50, least=0)
    if args.step_size is not None and not args.step_size > 0:
        raise ValueError(f"--step-size must be positive, got {args.step_size}")
    step_size = args.step_size or 0.1 * float(np.mean(queries.features.std(axis=0)))
    if not step_size > 0:  # one query, or identical ones, would never move
        raise ValueError("the queries have no spread to scale the step by; pass --step-size")
    evs, (route, obj) = _explanations(args, queries)

    start, label0, G = queries.features, evs.predicted_label, evs.gradient
    if route == "gpc":
        G[label0 == 1] *= -1.0  # walk away from the predicted class
    norms = np.array([np.linalg.norm(g) for g in G])[:, None]  # axis=1 would round otherwise
    directions = np.divide(G, norms, out=np.zeros_like(G), where=norms > 0)
    probs = np.empty((steps + 1, len(start)))  # p of path i at step t
    probs[0] = evs.predicted_probability
    last, last_label = np.full(len(start), steps), label0.copy()  # the first flip, if any
    live = np.arange(len(start))
    for t in range(steps + 1):
        X = start[live] + (t * step_size) * directions[live]
        if route == "gpc":
            if t:
                probs[t, live] = gpc.predict_proba(obj, X)
            label = np.where(probs[t, live] >= 0.5, 1, -1)
        else:
            if t:
                probs[t, live] = mimicmod.parzen_posterior_not(obj, X, label0[live])
            label = mimicmod._relabel(obj, X, label0[live], probs[t, live])
        flip = label != label0[live]
        last[live[flip]], last_label[live[flip]] = t, label[flip]
        live = live[~flip]
        if not len(live):
            break

    header = ["id", "step"] + list(queries.feature_names) + ["p", "label", "flipped"]

    def paths():  # blocks of whole paths, each path from step 0 to its last step
        for b in datamod._row_blocks(len(start), (last.max() + 1) * len(header)):
            i, t = np.nonzero(np.arange(last.max() + 1) <= last[b, None])  # path i's steps 0..last[i]
            i += b.start
            labels = np.where(t < last[i], label0[i], last_label[i])  # only the last step can have flipped
            X = directions[i]
            X *= (t * step_size)[:, None]
            X += start[i]
            yield queries.row_ids[i], t, X, probs[t, i], labels, labels != label0[i]

    datamod._write_table(args.out, header, paths())
    return 0


def cmd_rank(args) -> int:
    _require(args, "out", "data" if args.queries is None else "queries")
    queries = datamod.load_csv(args.queries or args.data)
    bins = _count(args, "bins", 30, least=2)
    stem = str(args.out).removesuffix(".csv")
    hist_paths = {}  # histogram file -> its feature, in feature order
    for name in queries.feature_names:
        path = f"{stem}-hist-{''.join(ch if ch.isalnum() else '_' for ch in name)}.csv"
        if path in hist_paths:
            raise ValueError(f"features {hist_paths[path]!r} and {name!r} would both write {path}")
        hist_paths[path] = name
    evs, _route = _explanations(args, queries)
    ranking = analysis.rank_features(evs, queries.feature_names)
    analysis.save_ranking_csv(ranking, args.out)
    for j, path in enumerate(hist_paths):
        spec = analysis.default_histogram_spec(evs.gradient[:, j], bin_count=bins)
        counts, clipped = analysis.histogram(evs.gradient[:, j], spec)
        analysis.save_histogram_csv(spec, counts, path, clipped)
    return 0


def cmd_compare(args) -> int:
    _require(args, "out", "feature", "group", "data" if args.queries is None else "queries")
    queries = datamod.load_csv(args.queries or args.data)
    for flag in ("group", "feature"):
        if getattr(args, flag) not in queries.feature_names:
            raise ValueError(f"--{flag} {getattr(args, flag)!r} is not a column of the dataset")
    mask = queries.features[:, queries.feature_names.index(args.group)] != 0
    bins = _count(args, "bins", 30, least=2)
    evs, _route = _explanations(args, queries)
    j = queries.feature_names.index(args.feature)
    eps = float(args.epsilon if args.epsilon is not None else 1.0)
    spec = analysis.default_histogram_spec(evs.gradient[:, j], bin_count=bins, epsilon=eps)
    cmp_result = analysis.compare_groups(evs, j, mask, spec)
    out = analysis.comparison_to_dict(cmp_result)
    out["feature"] = args.feature
    out["group"] = args.group
    out["group_size"] = int(mask.sum())
    datamod.save_json(out, args.out)
    return 0


def cmd_iris(args) -> int:
    """Full pipeline on the bundled Iris data: split, normalize, k-NN with
    LOO selection, mimic width selection, explanations for the test set."""
    _require(args, "out")
    seed = int(args.seed or 0)
    full = datamod.load_iris()
    train, test = datamod.split_stratified(datamod.iris_binary(full), 100, seed)
    train, [test] = datamod.normalize_fit_apply(train, [test])

    k_grid = range(1, 11)
    if args.k_grid:
        k_grid = [datamod._integral(k) for k in args.k_grid.split(",") if k.strip()]
    if None in k_grid:
        raise ValueError(f"--k-grid takes integers, got {args.k_grid!r}")
    clf = classifiers.knn_fit_loo(train.features, train.labels, k_grid)
    g_train = clf.predict(train.features)
    g_test = clf.predict(test.features)
    train_error = float(np.mean(g_train != train.labels))
    test_error = float(np.mean(g_test != test.labels))

    # widths below ~0.1x the pairwise scale collapse the mimic to a
    # nearest-neighbor lookup where the selection count saturates, so
    # this pipeline's auto grid spans [0.1, 1] x median pairwise distance
    mm = _fit_mimic(args, train.features, g_train, (0.1, 1.0))
    mimic_train = mimicmod.mimic_predict(mm, train.features)
    agreement = float(np.mean(mimic_train == g_train))

    evs = mimicmod.explain_mimic(mm, test.features, g_test)
    stem = str(args.out).removesuffix(".csv")
    mimicmod.save_explanations(f"{stem}-explanations.csv", evs, test.feature_names)
    datamod.save_csv(train, f"{stem}-train.csv")
    datamod.save_csv(test, f"{stem}-test.csv")
    species = dict(zip(full.row_ids.tolist(), full.labels.tolist()))
    test_species = [species[r] for r in test.row_ids.tolist()]
    datamod._write_table(f"{stem}-test-species.csv", ["id", "species"], [(test.row_ids, test_species)])
    datamod.save_json(train.norm_stats, f"{stem}-norm-stats.json")

    metrics = {
        "seed": seed,
        "k": clf.k,
        "k_loo_errors": {str(k): v for k, v in clf.loo_errors.items()},
        "train_error": train_error,
        "test_error": test_error,
        "sigma": mm.sigma,
        "mimic_train_agreement": agreement,
    }
    datamod.save_json(metrics, f"{stem}-metrics.json")
    return 0


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------


def _add_common(sub):
    sub.add_argument("--config", help="JSON file mirroring the flags; flags override it")
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


def build_parser(parser_class=argparse.ArgumentParser) -> argparse.ArgumentParser:
    parser = parser_class(
        prog="localgrad",
        description="Local explanation vectors for classifiers.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("fit-gpc", help="train a GP classifier, optionally grid-searching the kernel")
    _add_common(p)
    p.add_argument("--seed", type=int, help="seed of the grid search's validation split (default 0)")
    p.add_argument("--data", help="training dataset CSV (binary labels)")
    p.add_argument("--test", help="held-out dataset CSV for test metrics")
    p.add_argument("--kernel", help='kernel JSON, e.g. {"kind":"rbf","w":2.0}')
    p.add_argument("--kernel-grid", help="comma-separated kernel parameter candidates")
    p.add_argument("--metrics", help="metrics JSON path (default derived from --out)")

    p = subs.add_parser("explain", help="explanation vectors for query points")
    _add_common(p)
    _add_mimic_opts(p)

    p = subs.add_parser("vector-field", help="probability and gradient on a 2-D grid")
    _add_common(p)
    p.add_argument("--model", help="fitted GPC model JSON")
    p.add_argument("--grid", type=int, help="grid nodes per axis (default 30)")
    p.add_argument("--xlim", help="x1 range as 'lo,hi' (default: data box +10%%)")
    p.add_argument("--ylim", help="x2 range as 'lo,hi' (default: data box +10%%)")

    p = subs.add_parser("morph", help="walk queries along their explanation vectors")
    _add_common(p)
    _add_mimic_opts(p)
    p.add_argument("--steps", type=int, help="maximum number of steps (default 50)")
    p.add_argument("--step-size", type=float, help="step length (default 0.1 x data scale)")

    p = subs.add_parser("rank", help="feature ranking by mean gradient + histograms")
    _add_common(p)
    _add_mimic_opts(p)
    p.add_argument("--bins", type=int, help="histogram bins (default 30)")

    p = subs.add_parser("compare", help="two-group comparison of one feature's gradients")
    _add_common(p)
    _add_mimic_opts(p)
    p.add_argument("--feature", help="feature whose gradient components are compared")
    p.add_argument("--group", help="dataset column whose nonzero entries mark the group")
    p.add_argument("--bins", type=int, help="histogram bins (default 30)")
    p.add_argument("--epsilon", type=float, help="bin smoothing for the KLD (default 1)")

    p = subs.add_parser("iris", help="bundled Iris pipeline (split, k-NN, mimic, explanations)")
    _add_common(p)
    p.add_argument("--seed", type=int, help="seed of the train/test split (default 0)")
    p.add_argument("--k-grid", help="comma-separated k candidates (default 1..10)")
    p.add_argument("--sigma-grid", help="comma-separated widths or 'auto'")

    return parser


@functools.cache
def _parser(parser_class=argparse.ArgumentParser) -> argparse.ArgumentParser:
    """build_parser's tree, built once per parser class for main and the
    config reader.  main looks the command's cmd_* function up when it runs,
    so a replaced one is called."""
    return build_parser(parser_class)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        _load_config(args)
        return globals()["cmd_" + args.command.replace("-", "_")](args)
    except Exception as exc:  # error contract: nonzero exit + JSON on stderr
        print(
            json.dumps({"command": args.command, "error": str(exc), "type": type(exc).__name__}),
            file=sys.stderr,
        )
        return 1


if __name__ == "__main__":
    sys.exit(main())
