"""Command-line interface.

Subcommands reproduce the experimental pipelines end to end and emit
plot-ready CSV/JSON; rendering is left to external tools.  Every run is
reproducible: outputs are byte-identical for the same config and seed
(floats are written with 17 significant digits, JSON keys are sorted,
and all randomness flows through one seeded generator per run).

A JSON config file may mirror any flag (keys are the flag names with
dashes replaced by underscores, values are parsed as the flag parses
them); a flag on the command line wins, since its tokens are parsed after
the file's.  Every flag value is then checked once, by _resolve, before
the command reads any input.
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


class _RaisingParser(argparse.ArgumentParser):
    """Parser of a command line with a config file's tokens: a value its
    flag rejects raises instead of exiting, so it takes the error contract
    of every other failure."""

    def error(self, message):
        raise ValueError(f"config: {message}")


def _load_config(args: argparse.Namespace) -> list:
    """The JSON config file's flags as ``--flag=value`` tokens, for main to
    parse before the command line's.  ``true`` stands for the bare flag and
    ``null`` for no token; an object is passed as its JSON text and an array
    as its items joined by commas.  A key that names no flag of the
    subcommand is an error."""
    with open(args.config) as fh:
        cfg = json.load(fh)
    tokens = []
    for key, value in cfg.items():
        attr = key.replace("-", "_")
        if attr == "command" or not hasattr(args, attr):
            raise ValueError(f"config key {key!r} is not a flag of {args.command}")
        flag = "--" + attr.replace("_", "-")
        if isinstance(value, dict):
            value = json.dumps(value)
        elif isinstance(value, list):
            value = ",".join(map(str, value))
        if value is not None:
            tokens.append(flag if value is True else f"{flag}={value}")
    return tokens


def _resolve(args: argparse.Namespace) -> None:
    """Check every flag value of the command, and convert the lists, ranges
    and the kernel's JSON in place, before the command reads any input; so
    vars(args) is the run's resolved flag set.  A bad value is an error
    naming its flag.  Checks that need the data stay in the commands."""
    flags = vars(args)
    if flags.get("model"):
        for name in ("oracle", "sigma", "sigma_grid", "hessian_fallback"):
            if flags.get(name) is not None:
                raise ValueError(f"pass either --model (analytic) or --{name.replace('_', '-')} (mimic), not both")
    for name, least in (("grid", 1), ("bins", 2), ("steps", 0), ("seed", 0)):
        if name in flags and flags[name] < least:
            raise ValueError(f"--{name} must be at least {least}, got {flags[name]}")
    for name in ("step_size", "hessian_fallback", "smooth_window", "epsilon"):
        if flags.get(name) is not None and not flags[name] > 0:
            raise ValueError(f"--{name.replace('_', '-')} must be positive, got {flags[name]}")
    for name in ("xlim", "ylim", "sigma_grid", "kernel_grid"):  # comma-separated numbers
        text, flag = flags.get(name), "--" + name.replace("_", "-")
        if text is None or (name, text) == ("sigma_grid", "auto"):
            continue
        try:
            flags[name] = [float(tok) for tok in text.split(",") if tok.strip()]
        except ValueError:
            flags[name] = None
        if name in ("xlim", "ylim") and len(flags[name] or ()) != 2:
            raise ValueError(f"{flag} takes two numbers 'lo,hi', got {text!r}")
        if flags[name] is None:
            raise ValueError(f"{flag} takes comma-separated numbers, got {text!r}")
        if not flags[name]:
            raise ValueError(f"{flag} lists no candidates, got {text!r}")
    if flags.get("k_grid") is not None:
        ks = [datamod._integral(k) for k in flags["k_grid"].split(",") if k.strip()]
        if None in ks or not ks:
            raise ValueError(f"--k-grid takes integers, got {flags['k_grid']!r}")
        flags["k_grid"] = ks
    if "kernel" in flags:
        text = flags["kernel"]
        try:
            flags["kernel"] = json.loads(text)
        except ValueError:
            flags["kernel"] = None
        if not isinstance(flags["kernel"], dict):
            raise ValueError(f'--kernel must be a JSON object such as {{"kind": "rbf", "w": 2.0}}, got {text!r}')
    oracle = flags.get("oracle")
    if oracle and oracle.split(":")[0] == "knn":  # knn, knn:loo or knn:K
        k = oracle.partition(":")[2] or "loo"
        if k != "loo":
            k = datamod._integral(k)
            if k is None:
                raise ValueError(f"--oracle knn:K takes an integer K, got {oracle!r}")
        flags["oracle"] = f"knn:{k}"


def _require(args, *names):
    for name in names:
        if getattr(args, name, None) is None:
            raise ValueError(f"missing required option --{name.replace('_', '-')}")


def _queries(args, *required):
    """The rows a command explains: --queries, or else the --data rows, read
    once the command's `required` flags and that file's flag are given."""
    _require(args, *required, "data" if args.queries is None else "queries")
    return datamod.load_csv(args.queries or args.data)


def _to_pm1(labels, label_map):
    """Labels mapped onto {-1,+1} by the training set's label_map; a label
    the training set does not carry is an error."""
    unknown = sorted(set(labels.tolist()) - set(label_map))
    if unknown:
        raise ValueError(f"label {unknown[0]} is not a training class {sorted(label_map)}")
    return np.array([label_map[v] for v in labels.tolist()], dtype=int)


def _resolve_oracle(spec, dataset):
    """Build a label source from a resolved --oracle value.

    ``knn:K`` fits k-NN with that k on the dataset's labels; ``knn:loo``
    picks k by leave-one-out from 1..10; anything else is a prediction-table
    CSV keyed to the dataset's rows.  Without an oracle the dataset's own
    label column plays the role of g; like a table, it labels only points
    that are rows of the dataset.
    """
    if spec is None:
        return classifiers.TableOracle(dataset, dict(zip(dataset.row_ids, dataset.labels)))
    if spec == "knn:loo":
        return classifiers.knn_fit_loo(dataset.features, dataset.labels, range(1, min(11, dataset.n)))
    if spec.startswith("knn:"):
        return classifiers.KnnClassifier(dataset.features, dataset.labels, int(spec[4:]))
    return classifiers.table_oracle_load(spec, dataset)


def _fit_mimic(args, points, g_labels, *span):
    """The Parzen mimic of the labels g gives the points.  Its width is
    --sigma, or else the leave-one-out choice from the --sigma-grid list
    or from the auto grid, default_sigma_grid(points, *span)."""
    sigma = getattr(args, "sigma", None)
    if sigma is None:
        grid = mimicmod.default_sigma_grid(points, *span) if args.sigma_grid in (None, "auto") else args.sigma_grid
        # by keyword: perfbench's tracer counts the candidates from it
        sigma = mimicmod.select_width(points, g_labels, candidate_sigmas=grid)
    return mimicmod.ParzenMimic(points, g_labels, sigma)


def _explanations(args, queries):
    """Shared explanation routing: one explain_gpc (--model) or explain_mimic
    call for all the queries, then the --smooth-window smoothing when it is
    given.  The mimic's references are the --data rows; without --queries
    they are the queries, read and labelled once.  Returns one block record
    of the queries' explanations and the route: ("gpc", model) or ("mimic", mimic)."""
    if args.model:
        model = gpc.load_gpc(args.model)
        evs = gpc.explain_gpc(model, queries.features)
        route = ("gpc", model)
    else:
        _require(args, "data")
        refs = queries if args.queries is None else datamod.load_csv(args.data)
        oracle = _resolve_oracle(args.oracle, refs)
        g_refs = oracle.predict(refs.features)
        mm = _fit_mimic(args, refs.features, g_refs)
        g = g_refs if queries is refs else oracle.predict(queries.features)
        evs = mimicmod.explain_mimic(mm, queries.features, g, hessian_threshold=args.hessian_fallback)
        route = ("mimic", mm)
    if args.smooth_window is not None:
        evs.gradient = mimicmod.smooth_gradients(queries.features, evs.gradient, args.smooth_window)
    return evs, route


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_fit_gpc(args) -> int:
    _require(args, "data", "out")
    base, grid = kernel_from_dict(args.kernel), args.kernel_grid
    if grid is not None and base.kind == "linear":
        raise ValueError("the linear kernel has no parameter to grid-search")
    train = datamod.load_csv(args.data)
    classes = train.classes().tolist()
    if len(classes) != 2:
        raise ValueError(f"need exactly two classes, got {classes}")
    label_map = {classes[0]: -1, classes[1]: 1}  # lower id -> -1

    searched = None
    if grid is not None:
        param = "width" if base.kind == "rbf" else "rq_length"
        n_val = max(1, train.n // 4)
        sub_train, val = datamod.split_stratified(train, train.n - n_val, args.seed)
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
        "seed": args.seed,
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
    queries = _queries(args, "out")
    evs, _route = _explanations(args, queries)
    mimicmod.save_explanations(args.out, evs, queries.feature_names)
    return 0


def cmd_vector_field(args) -> int:
    _require(args, "model", "out")
    model = gpc.load_gpc(args.model)
    if model.train_x.shape[1] != 2:
        raise ValueError("vector-field needs a 2-D model")
    n, lo, hi = args.grid, model.train_x.min(axis=0), model.train_x.max(axis=0)
    pad = 0.1 * (hi - lo)
    # each axis spans the padded data box, unless its flag gives a range
    xs, ys = (np.linspace(*(given or box), n) for given, box in zip((args.xlim, args.ylim), zip(lo - pad, hi + pad)))

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
    queries = _queries(args, "out")
    step_size = args.step_size or 0.1 * float(np.mean(queries.features.std(axis=0)))
    if not step_size > 0:  # one query, or identical ones, would never move
        raise ValueError("the queries have no spread to scale the step by; pass --step-size")
    evs, (route, obj) = _explanations(args, queries)

    start, label0, G = queries.features, evs.predicted_label, evs.gradient
    if route == "gpc":
        G[label0 == 1] *= -1.0  # walk away from the predicted class
    norms = np.array([np.linalg.norm(g) for g in G])[:, None]  # axis=1 would round otherwise
    directions = np.divide(G, norms, out=np.zeros_like(G), where=norms > 0)
    probs = np.empty((args.steps + 1, len(start)))  # p of path i at step t
    probs[0] = evs.predicted_probability
    last, last_label = np.full(len(start), args.steps), label0.copy()  # the first flip, if any
    live = np.arange(len(start))
    for t in range(args.steps + 1):
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
    queries = _queries(args, "out")
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
        spec = analysis.default_histogram_spec(evs.gradient[:, j], bin_count=args.bins)
        counts, clipped = analysis.histogram(evs.gradient[:, j], spec)
        analysis.save_histogram_csv(spec, counts, path, clipped)
    return 0


def cmd_compare(args) -> int:
    queries = _queries(args, "out", "feature", "group")
    for flag in ("group", "feature"):
        if getattr(args, flag) not in queries.feature_names:
            raise ValueError(f"--{flag} {getattr(args, flag)!r} is not a column of the dataset")
    mask = queries.features[:, queries.feature_names.index(args.group)] != 0
    evs, _route = _explanations(args, queries)
    j = queries.feature_names.index(args.feature)
    spec = analysis.default_histogram_spec(evs.gradient[:, j], bin_count=args.bins, epsilon=args.epsilon)
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
    full = datamod.load_iris()
    train, test = datamod.split_stratified(datamod.iris_binary(full), 100, args.seed)
    train, [test] = datamod.normalize_fit_apply(train, [test])

    clf = classifiers.knn_fit_loo(train.features, train.labels, args.k_grid or range(1, 11))
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
        "seed": args.seed,
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
    p.add_argument("--seed", type=int, default=0, help="seed of the grid search's split (default %(default)s)")
    p.add_argument("--data", help="training dataset CSV (binary labels)")
    p.add_argument("--test", help="held-out dataset CSV for test metrics")
    p.add_argument("--kernel", default='{"kind": "rbf"}', help="kernel JSON object (default %(default)s)")
    p.add_argument("--kernel-grid", help="comma-separated kernel parameter candidates")
    p.add_argument("--metrics", help="metrics JSON path (default derived from --out)")

    p = subs.add_parser("explain", help="explanation vectors for query points")
    _add_common(p)
    _add_mimic_opts(p)

    p = subs.add_parser("vector-field", help="probability and gradient on a 2-D grid")
    _add_common(p)
    p.add_argument("--model", help="fitted GPC model JSON")
    p.add_argument("--grid", type=int, default=30, help="grid nodes per axis (default %(default)s)")
    p.add_argument("--xlim", help="x1 range as 'lo,hi' (default: data box +10%%)")
    p.add_argument("--ylim", help="x2 range as 'lo,hi' (default: data box +10%%)")

    p = subs.add_parser("morph", help="walk queries along their explanation vectors")
    _add_common(p)
    _add_mimic_opts(p)
    p.add_argument("--steps", type=int, default=50, help="maximum number of steps (default %(default)s)")
    p.add_argument("--step-size", type=float, help="step length (default 0.1 x data scale)")

    p = subs.add_parser("rank", help="feature ranking by mean gradient + histograms")
    _add_common(p)
    _add_mimic_opts(p)
    p.add_argument("--bins", type=int, default=30, help="histogram bins (default %(default)s)")

    p = subs.add_parser("compare", help="two-group comparison of one feature's gradients")
    _add_common(p)
    _add_mimic_opts(p)
    p.add_argument("--feature", help="feature whose gradient components are compared")
    p.add_argument("--group", help="dataset column whose nonzero entries mark the group")
    p.add_argument("--bins", type=int, default=30, help="histogram bins (default %(default)s)")
    p.add_argument("--epsilon", type=float, default=1.0, help="bin smoothing for the KLD (default %(default)s)")

    p = subs.add_parser("iris", help="bundled Iris pipeline (split, k-NN, mimic, explanations)")
    _add_common(p)
    p.add_argument("--seed", type=int, default=0, help="seed of the train/test split (default %(default)s)")
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
        if args.config:  # the file's tokens first, so the command line's win
            argv = sys.argv[1:] if argv is None else argv
            args = _parser(_RaisingParser).parse_args([argv[0], *_load_config(args), *argv[1:]])
        _resolve(args)
        return globals()["cmd_" + args.command.replace("-", "_")](args)
    except Exception as exc:  # error contract: nonzero exit + JSON on stderr
        print(
            json.dumps({"command": args.command, "error": str(exc), "type": type(exc).__name__}),
            file=sys.stderr,
        )
        return 1


if __name__ == "__main__":
    sys.exit(main())
