import csv
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from localgrad import classifiers, cli, data as datamod
from localgrad.classifiers import KnnClassifier
from localgrad.cli import main
from localgrad.data import Dataset, gen_nonlinear, gen_triangle, load_csv, save_csv
from localgrad.gpc import explain_gpc, load_gpc, predict_proba
from localgrad.mimic import (
    ParzenMimic,
    explain_mimic,
    mimic_predict,
    parzen_posterior_not,
    save_explanations,
    select_width,
)
from oracles import load_explanations


@pytest.fixture(scope="module")
def triangle_csv(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli-data")
    data = gen_triangle(40, seed=5)
    path = root / "triangle.csv"
    save_csv(data, path)
    return str(path)


@pytest.fixture(scope="module")
def fitted_model(triangle_csv, tmp_path_factory):
    root = tmp_path_factory.mktemp("cli-model")
    model_path = root / "model.json"
    rc = main(
        [
            "fit-gpc",
            "--data",
            triangle_csv,
            "--kernel",
            '{"kind": "rbf", "w": 1.0}',
            "--out",
            str(model_path),
        ]
    )
    assert rc == 0
    return str(model_path)


def read_rows(path):
    lines = Path(path).read_text().strip().split("\n")
    header = lines[0].split(",")
    return header, [line.split(",") for line in lines[1:]]


# ------------------------------------------------------------------ fit-gpc


def test_fit_gpc_outputs(fitted_model):
    model = load_gpc(fitted_model)
    assert model.converged
    metrics = json.loads(Path(fitted_model.replace(".json", "-metrics.json")).read_text())
    assert metrics["kernel"]["kind"] == "rbf"
    assert metrics["train_error"] <= 0.05
    assert 0.0 <= metrics["train_auc"] <= 1.0
    assert len(metrics["ep_sweep_max_delta"]) == metrics["ep_iterations"]
    assert len(metrics["ep_sweep_skipped"]) == metrics["ep_iterations"]
    assert metrics["ep_sweep_max_delta"][-1] < 1e-6
    assert len(metrics["ep_sweep_step"]) == metrics["ep_iterations"]
    assert all(0.0 < s <= 1.0 for s in metrics["ep_sweep_step"])
    assert metrics["ep_floored_sites"] == 0


def test_fit_gpc_deterministic_rerun(triangle_csv, tmp_path):
    out_a = tmp_path / "a.json"
    out_b = tmp_path / "b.json"
    for out in (out_a, out_b):
        rc = main(
            [
                "fit-gpc",
                "--data",
                triangle_csv,
                "--kernel",
                '{"kind": "rbf", "w": 1.0}',
                "--seed",
                "3",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    metrics_a = tmp_path / "a-metrics.json"
    assert metrics_a.read_bytes() == (tmp_path / "b-metrics.json").read_bytes()
    assert "ep_sweep_max_delta" not in json.loads(out_a.read_text())


def test_fit_gpc_auc_one_on_separated_data(tmp_path):
    rng = np.random.default_rng(0)
    X = np.vstack(
        [rng.normal([-4, 0], 0.3, size=(15, 2)), rng.normal([4, 0], 0.3, size=(15, 2))]
    )
    ds = Dataset(X, np.array([-1] * 15 + [1] * 15))
    data_path = tmp_path / "sep.csv"
    save_csv(ds, data_path)
    out = tmp_path / "sep-model.json"
    rc = main(
        [
            "fit-gpc",
            "--data",
            str(data_path),
            "--kernel",
            '{"kind": "rbf", "w": 0.5}',
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    metrics = json.loads((tmp_path / "sep-model-metrics.json").read_text())
    assert metrics["train_auc"] == 1.0
    assert metrics["train_error"] == 0.0


def test_fit_gpc_grid_search(triangle_csv, tmp_path):
    out = tmp_path / "grid-model.json"
    rc = main(
        [
            "fit-gpc",
            "--data",
            triangle_csv,
            "--kernel",
            '{"kind": "rbf"}',
            "--kernel-grid",
            "0.5,1.0,2.0",
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    metrics = json.loads((tmp_path / "grid-model-metrics.json").read_text())
    assert metrics["kernel"]["w"] in (0.5, 1.0, 2.0)
    assert metrics["grid_search"]["grid"] == [0.5, 1.0, 2.0]
    assert len(metrics["grid_search"]["accuracy"]) == 3
    assert metrics["grid_search"]["selected"] == metrics["kernel"]["w"]


def test_fit_gpc_grid_search_with_one_minority_row(tmp_path):
    # the validation split holds class 0 only; it is scored by the training classes
    X = np.random.default_rng(9).normal(size=(12, 2))
    X[11] += 3.0
    data_path = tmp_path / "minority.csv"
    save_csv(Dataset(X, np.array([0] * 11 + [1])), data_path)
    out = tmp_path / "m.json"
    rc = main(["fit-gpc", "--data", str(data_path), "--kernel-grid", "0.5,1.0", "--out", str(out)])
    assert rc == 0
    metrics = json.loads((tmp_path / "m-metrics.json").read_text())
    assert metrics["label_map"] == {"0": -1, "1": 1}
    assert metrics["grid_search"]["selected"] in (0.5, 1.0)


def test_fit_gpc_grid_holds_one_candidate_at_a_time(tmp_path, traced):
    # the final n = 250 fit holds K, the factor of B and one column block of V; with
    # the last 188-row grid candidate also alive the command took 4.0 n^2 float64,
    # 3.4 n^2 with the whole V, and 2.97 n^2 when this bound was set
    n = 250
    base = gen_nonlinear(n, seed=41)
    X = np.hstack([base.features, np.random.default_rng(42).normal(size=(n, 3))])
    save_csv(Dataset(X, base.labels), tmp_path / "d.csv")
    with traced() as peak:
        rc = main(["fit-gpc", "--data", str(tmp_path / "d.csv"), "--kernel-grid", "0.05,0.15,0.45",
                   "--out", str(tmp_path / "m.json")])
        used = peak()
    assert rc == 0
    assert used < 3.2 * n * n * 8


def test_fit_gpc_rejects_a_test_label_the_training_set_lacks(triangle_csv, tmp_path, capsys):
    # the model is trained on -1/+1; a test set labelled 1/2 is not remapped by its own classes
    test = load_csv(triangle_csv)
    test_path = tmp_path / "test12.csv"
    save_csv(Dataset(test.features, np.where(test.labels > 0, 2, 1)), test_path)
    out = tmp_path / "m.json"
    rc = main(["fit-gpc", "--data", triangle_csv, "--test", str(test_path), "--out", str(out)])
    assert rc == 1
    err = json.loads(capsys.readouterr().err)
    assert err["type"] == "ValueError" and "label 2" in err["error"]


def test_fit_gpc_needs_exactly_two_classes(tmp_path, capsys):
    path = tmp_path / "three.csv"
    save_csv(Dataset(np.random.default_rng(2).normal(size=(9, 2)), np.tile([0, 1, 2], 3)), path)
    out = tmp_path / "m.json"
    assert main(["fit-gpc", "--data", str(path), "--out", str(out)]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["type"] == "ValueError" and err["error"] == "need exactly two classes, got [0, 1, 2]"
    assert not out.exists()


def test_fit_gpc_refuses_a_grid_for_the_linear_kernel(triangle_csv, tmp_path, capsys):
    out = tmp_path / "m.json"
    argv = ["fit-gpc", "--data", triangle_csv, "--kernel", '{"kind": "linear"}', "--kernel-grid", "1,2"]
    assert main(argv + ["--out", str(out)]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["type"] == "ValueError" and err["error"] == "the linear kernel has no parameter to grid-search"
    assert not out.exists()


# ------------------------------------------------------------------ explain


def test_explain_gpc_route_matches_library(triangle_csv, fitted_model, tmp_path):
    out = tmp_path / "evs.csv"
    rc = main(
        ["explain", "--data", triangle_csv, "--model", fitted_model, "--out", str(out)]
    )
    assert rc == 0
    evs = load_explanations(out)
    model = load_gpc(fitted_model)
    data = gen_triangle(40, seed=5)
    assert len(evs) == len(data.labels)
    for ev, x in zip(evs, data.features):
        want = explain_gpc(model, x)
        assert np.array_equal(ev.gradient, want.gradient)
        assert ev.predicted_probability == want.predicted_probability
        assert ev.source == "analytic-gpc"


def test_explain_mimic_route(triangle_csv, tmp_path):
    out = tmp_path / "mimic-evs.csv"
    rc = main(
        [
            "explain",
            "--data",
            triangle_csv,
            "--oracle",
            "knn:3",
            "--sigma",
            "0.4",
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    evs = load_explanations(out)
    assert len(evs) == 80
    assert all(ev.source == "parzen-mimic" for ev in evs)


def test_oracle_knn_k_takes_an_integral_float(triangle_csv, tmp_path):
    base = ["explain", "--data", triangle_csv, "--sigma", "0.4"]
    assert main(base + ["--oracle", "knn:3", "--out", str(tmp_path / "int.csv")]) == 0
    assert main(base + ["--oracle", "knn:3.0", "--out", str(tmp_path / "float.csv")]) == 0
    assert (tmp_path / "int.csv").read_bytes() == (tmp_path / "float.csv").read_bytes()


def test_oracle_knn_k_rejects_a_non_integer(triangle_csv, tmp_path, capsys):
    out = tmp_path / "e.csv"
    assert main(["explain", "--data", triangle_csv, "--oracle", "knn:1.5", "--out", str(out)]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["type"] == "ValueError" and "--oracle" in err["error"] and "1.5" in err["error"]
    assert not out.exists()


@pytest.mark.parametrize("oracle", ["knn:loo", "knn"])
def test_oracle_knn_loo_explains_the_mimic_of_the_leave_one_out_choice(triangle_csv, tmp_path, oracle):
    # k from 1..10 by leave-one-out on the data, then the mimic of that k-NN's labels
    data = load_csv(triangle_csv)
    g = classifiers.knn_fit_loo(data.features, data.labels, range(1, 11)).predict(data.features)
    mm = ParzenMimic(data.features, g, 0.4)
    save_explanations(tmp_path / "ref.csv", explain_mimic(mm, data.features, g), data.feature_names)
    out = tmp_path / "out.csv"
    assert main(["explain", "--data", triangle_csv, "--oracle", oracle, "--sigma", "0.4", "--out", str(out)]) == 0
    assert out.read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_oracle_table_of_the_data_labels_explains_as_the_label_column(triangle_csv, tmp_path):
    # a prediction table is keyed by id, so its rows may come in any order
    data = load_csv(triangle_csv)
    table = tmp_path / "table.csv"
    datamod._write_table(table, ["id", "label"], [(data.row_ids[::-1], data.labels[::-1])])
    base = ["explain", "--data", triangle_csv, "--sigma", "0.4"]
    assert main(base + ["--oracle", str(table), "--out", str(tmp_path / "table-out.csv")]) == 0
    assert main(base + ["--out", str(tmp_path / "own.csv")]) == 0
    assert (tmp_path / "table-out.csv").read_bytes() == (tmp_path / "own.csv").read_bytes()


def test_explain_sigma_grid_list_selects_like_fixed_sigma(triangle_csv, tmp_path):
    # an explicit --sigma-grid is searched by leave-one-out on the oracle's
    # reference labels; the mimic it builds is the --sigma mimic of that width
    grid = [3.0, 0.01, 0.1, 0.3]
    data = load_csv(triangle_csv)
    g_labels = KnnClassifier(data.features, data.labels, 3).predict(data.features)
    sigma = select_width(data.features, g_labels, grid)
    assert sigma == 0.1  # neither the first nor the smallest candidate
    base = ["explain", "--data", triangle_csv, "--oracle", "knn:3"]
    listed, fixed = tmp_path / "listed.csv", tmp_path / "fixed.csv"
    assert main(base + ["--sigma-grid", ",".join(map(str, grid)), "--out", str(listed)]) == 0
    assert main(base + ["--sigma", repr(sigma), "--out", str(fixed)]) == 0
    assert listed.read_bytes() == fixed.read_bytes()


@pytest.mark.parametrize("sigma", ["inf", "nan", "1e200", "1e-170"])
def test_explain_rejects_a_width_that_is_not_finite(triangle_csv, tmp_path, capsys, sigma):
    # --sigma inf wrote zero gradients that were not flagged far-field; 1e200, whose
    # square overflows, failed with an OverflowError naming nothing, and 1e-170, whose
    # square underflows to 0, wrote NaN gradients
    out = tmp_path / "x.csv"
    assert main(["explain", "--data", triangle_csv, "--sigma", sigma, "--out", str(out)]) == 1
    err = json.loads(capsys.readouterr().err)
    rule = "sigma must be positive, with sigma**2 and m**2 * sigma**2 normal doubles"
    message = f"{rule} for 80 references, got {float(sigma)}"
    assert err["type"] == "ValueError" and message in err["error"]
    assert not out.exists()


def test_explain_rejects_both_routes(triangle_csv, fitted_model, tmp_path, capsys):
    rc = main(
        [
            "explain",
            "--data",
            triangle_csv,
            "--model",
            fitted_model,
            "--oracle",
            "knn:3",
            "--out",
            str(tmp_path / "x.csv"),
        ]
    )
    assert rc != 0
    err = json.loads(capsys.readouterr().err)
    assert err["command"] == "explain"


@pytest.mark.parametrize("command", ["explain", "morph", "rank", "compare"])
@pytest.mark.parametrize("flag", ["--sigma=0.3", "--sigma-grid=auto", "--hessian-fallback"])
def test_model_route_rejects_mimic_flags(triangle_csv, fitted_model, tmp_path, capsys, command, flag):
    # the analytic route has no width and no Hessian fallback; the flag used to be ignored
    out = tmp_path / "out.csv"
    extra = ["--feature", "x1", "--group", "x2"] if command == "compare" else []
    argv = [command, "--data", triangle_csv, "--model", fitted_model, flag, *extra, "--out", str(out)]
    assert main(argv) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["type"] == "ValueError" and flag.split("=")[0] in err["error"]
    assert not out.exists()


@pytest.mark.parametrize(
    "command, flag",
    [
        ("vector-field", "--grid=0"),
        ("vector-field", "--grid=-3"),
        ("rank", "--bins=0"),
        ("compare", "--bins=0"),
        ("morph", "--steps=-1"),
        ("morph", "--step-size=0"),
        ("morph", "--step-size=-0.5"),
    ],
)
def test_count_flags_out_of_range_are_errors(triangle_csv, fitted_model, tmp_path, capsys, command, flag):
    # unchecked, a zero count falls back to the default, and a negative step count or
    # a nonpositive step size writes a morph with no rows or walks backwards
    out = tmp_path / "out.csv"
    data = [] if command == "vector-field" else ["--data", triangle_csv]
    extra = ["--feature", "x1", "--group", "x2"] if command == "compare" else []
    argv = [command, *data, "--model", fitted_model, flag, *extra, "--out", str(out)]
    assert main(argv) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["type"] == "ValueError" and flag.split("=")[0] in err["error"]
    assert not out.exists()


@pytest.mark.parametrize("command", ["rank", "compare"])
def test_bins_below_two_fail_naming_the_flag_before_anything_is_computed(triangle_csv, tmp_path, capsys,
                                                                         monkeypatch, command):
    # --bins 1 passed the flag check, then failed in HistogramSpec ("need at least 2
    # bins") once the explanations had been computed
    def explain_mimic(*args, **kwargs):
        raise AssertionError("an explanation was computed")

    monkeypatch.setattr("localgrad.mimic.explain_mimic", explain_mimic)
    out = tmp_path / "out.csv"
    extra = ["--feature", "x1", "--group", "x2"] if command == "compare" else []
    assert main([command, "--data", triangle_csv, "--sigma", "0.3", "--bins", "1", *extra, "--out", str(out)]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["type"] == "ValueError" and err["error"] == "--bins must be at least 2, got 1"
    assert not out.exists()


@pytest.mark.parametrize("value, in_config", [("-5", False), ("0", False), ("nan", False), (0, True)])
def test_hessian_fallback_threshold_must_be_positive(
    triangle_csv, tmp_path, capsys, monkeypatch, value, in_config
):
    # unchecked, no gradient norm falls below a threshold of 0 or less, so the
    # fallback never ran, and every norm fails `>= nan`, so it always ran
    def explain_mimic(*args, **kwargs):
        raise AssertionError("an explanation was computed")

    monkeypatch.setattr("localgrad.mimic.explain_mimic", explain_mimic)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"hessian_fallback": value}))
    out = tmp_path / "out.csv"
    flag = ["--config", str(cfg)] if in_config else [f"--hessian-fallback={value}"]
    assert main(["explain", "--data", triangle_csv, "--sigma", "0.3", *flag, "--out", str(out)]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["type"] == "ValueError" and "--hessian-fallback" in err["error"]
    assert not out.exists()


def test_explain_without_oracle_rejects_queries_off_the_data(triangle_csv, tmp_path, capsys):
    # without --oracle the data's label column is g, which labels only its own rows
    data = gen_triangle(40, seed=5)
    queries_path = tmp_path / "shifted.csv"
    save_csv(Dataset(data.features + 0.25, data.labels), queries_path)
    out = tmp_path / "x.csv"
    rc = main(
        [
            "explain",
            "--data",
            triangle_csv,
            "--queries",
            str(queries_path),
            "--sigma",
            "0.4",
            "--out",
            str(out),
        ]
    )
    assert rc != 0
    err = json.loads(capsys.readouterr().err)
    assert err["command"] == "explain" and err["type"] == "ValueError"
    assert not out.exists()


def test_explain_without_oracle_rejects_conflicting_duplicates(tmp_path, capsys):
    # rows 0 and 2 share coordinates but not labels: no label for that point
    ds = Dataset(np.array([[0.0, 1.0], [2.0, 3.0], [0.0, 1.0]]), np.array([0, 1, 1]))
    data_path = tmp_path / "dup.csv"
    save_csv(ds, data_path)
    rc = main(
        ["explain", "--data", str(data_path), "--sigma", "0.5", "--out", str(tmp_path / "x.csv")]
    )
    assert rc != 0
    err = json.loads(capsys.readouterr().err)
    assert "conflicting labels" in err["error"]


def test_explain_sigma_grid_rejects_bad_candidates(triangle_csv, tmp_path, capsys):
    # a listed width that is not positive and finite is an error, not dropped
    out = tmp_path / "x.csv"
    assert main(["explain", "--data", triangle_csv, "--sigma-grid=-1,nan,0.5", "--out", str(out)]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["type"] == "ValueError" and "sigma candidates must be positive" in err["error"]
    assert "-1.0" in err["error"] and "nan" in err["error"] and not out.exists()


@pytest.mark.parametrize("command", ["explain", "iris"])
@pytest.mark.parametrize("grid", [",", ""])
def test_sigma_grid_listing_no_candidate_fails_naming_the_flag(triangle_csv, tmp_path, capsys, command, grid):
    # was "sigma candidates must be positive and finite, got none", naming no flag
    out = tmp_path / "x.csv"
    data = ["--data", triangle_csv] if command == "explain" else ["--seed", "1"]
    assert main([command, *data, "--sigma-grid", grid, "--out", str(out)]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["type"] == "ValueError" and "--sigma-grid lists no candidates" in err["error"]
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["explain", "iris"])
def test_sigma_grid_token_that_is_no_number_fails_naming_the_flag(triangle_csv, tmp_path, capsys, command):
    # was Python's "could not convert string to float: 'a'", naming no flag
    out = tmp_path / "x.csv"
    data = ["--data", triangle_csv] if command == "explain" else ["--seed", "1"]
    assert main([command, *data, "--sigma-grid", "a,0.5", "--out", str(out)]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["type"] == "ValueError" and err["error"] == "--sigma-grid takes comma-separated numbers, got 'a,0.5'"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["explain", "morph", "rank", "compare"])
def test_rows_to_explain_are_required(fitted_model, tmp_path, capsys, command):
    # without --queries the --data rows are explained, so one of the two must be given
    argv = [command, "--model", fitted_model, "--feature", "x1", "--group", "x2", "--out", str(tmp_path / "x")]
    assert main(argv if command == "compare" else argv[:3] + argv[-2:]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err == {"command": command, "error": "missing required option --data", "type": "ValueError"}


def test_explain_auto_sigma_grid_needs_two_references(tmp_path, capsys):
    data_path = tmp_path / "one.csv"
    save_csv(Dataset(np.array([[0.0, 1.0]]), np.array([1])), data_path)
    rc = main(["explain", "--data", str(data_path), "--out", str(tmp_path / "x.csv")])
    assert rc == 1
    err = json.loads(capsys.readouterr().err)
    assert err["type"] == "ValueError" and "at least two points" in err["error"]


def test_explain_auto_sigma_grid_rejects_zero_median(tmp_path, capsys):
    # 8 of 10 references coincide, so the median pairwise distance is 0
    X = np.vstack([np.zeros((8, 2)), [[1.0, 0.0], [0.0, 2.0]]])
    data_path = tmp_path / "piled.csv"
    save_csv(Dataset(X, np.array([1] * 9 + [2])), data_path)
    out = tmp_path / "x.csv"
    rc = main(["explain", "--data", str(data_path), "--sigma-grid", "auto", "--out", str(out)])
    assert rc == 1
    err = json.loads(capsys.readouterr().err)
    assert err["type"] == "ValueError" and "median pairwise distance is 0" in err["error"]
    assert "--sigma" in err["error"] and not out.exists()


# ------------------------------------------------------------- vector-field


def test_vector_field_grid(fitted_model, tmp_path):
    out = tmp_path / "field.csv"
    rc = main(
        ["vector-field", "--model", fitted_model, "--grid", "8", "--out", str(out)]
    )
    assert rc == 0
    header, rows = read_rows(out)
    assert header == ["x1", "x2", "p", "grad_x1", "grad_x2"]
    assert len(rows) == 64
    model = load_gpc(fitted_model)
    for row in rows[:5] + rows[30:33]:
        x = np.array([float(row[0]), float(row[1])])
        p = float(row[2])
        assert 0.0 <= p <= 1.0
        assert p == predict_proba(model, x)
        g = explain_gpc(model, x).gradient
        assert float(row[3]) == g[0] and float(row[4]) == g[1]


@pytest.mark.parametrize("flag, axis", [("--xlim", 0), ("--ylim", 1)])
def test_vector_field_one_axis_limit(fitted_model, tmp_path, flag, axis):
    base = tmp_path / "base.csv"
    out = tmp_path / "field.csv"
    assert main(["vector-field", "--model", fitted_model, "--grid", "3", "--out", str(base)]) == 0
    rc = main(
        ["vector-field", "--model", fitted_model, "--grid", "3", f"{flag}=-5,5", "--out", str(out)]
    )
    assert rc == 0
    _, default_rows = read_rows(base)
    _, rows = read_rows(out)
    given = sorted({float(row[axis]) for row in rows})
    other = sorted({float(row[1 - axis]) for row in rows})
    assert given == [-5.0, 0.0, 5.0]
    assert other == sorted({float(row[1 - axis]) for row in default_rows})


@pytest.mark.parametrize("flag", ["--xlim=1", "--ylim=1,2,3", "--xlim=a,b"])
def test_vector_field_ranges_need_two_numbers(fitted_model, tmp_path, capsys, monkeypatch, flag):
    # one or three numbers failed with Python's "not enough / too many values to unpack"
    def explain_gpc(*args, **kwargs):
        raise AssertionError("an explanation was computed")

    monkeypatch.setattr("localgrad.gpc.explain_gpc", explain_gpc)
    out = tmp_path / "field.csv"
    assert main(["vector-field", "--model", fitted_model, flag, "--out", str(out)]) == 1
    err = json.loads(capsys.readouterr().err)
    name, value = flag.split("=")
    assert err["type"] == "ValueError" and err["error"] == f"{name} takes two numbers 'lo,hi', got {value!r}"
    assert not out.exists()


def test_vector_field_needs_a_two_dimensional_model(tmp_path, capsys):
    rng = np.random.default_rng(4)
    X = rng.normal(size=(20, 3))
    save_csv(Dataset(X, np.where(X[:, 0] > 0, 1, -1)), tmp_path / "d3.csv")
    model = tmp_path / "m3.json"
    assert main(["fit-gpc", "--data", str(tmp_path / "d3.csv"), "--out", str(model)]) == 0
    out = tmp_path / "field.csv"
    assert main(["vector-field", "--model", str(model), "--out", str(out)]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["type"] == "ValueError" and err["error"] == "vector-field needs a 2-D model"
    assert not out.exists()


# -------------------------------------------------------------------- morph


def test_morph_step_zero_bit_exact_and_flip(triangle_csv, fitted_model, tmp_path):
    out = tmp_path / "morph.csv"
    rc = main(
        [
            "morph",
            "--data",
            triangle_csv,
            "--model",
            fitted_model,
            "--steps",
            "50",
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    header, rows = read_rows(out)
    assert header == ["id", "step", "x1", "x2", "p", "label", "flipped"]
    data = gen_triangle(40, seed=5)
    model = load_gpc(fitted_model)
    by_id = {}
    for row in rows:
        by_id.setdefault(int(row[0]), []).append(row)
    for rid, steps in by_id.items():
        first = steps[0]
        assert int(first[1]) == 0
        orig = data.features[list(data.row_ids).index(rid)]
        assert float(first[2]) == orig[0] and float(first[3]) == orig[1]
        # the recorded p must match a recomputation at the recorded point
        for row in steps[:3]:
            x = np.array([float(row[2]), float(row[3])])
            assert float(row[4]) == predict_proba(model, x)
        if steps[-1][6] == "1":
            p_last = float(steps[-1][4])
            p_prev = float(steps[-2][4])
            label0 = int(steps[0][5])
            if label0 == -1:
                assert p_prev <= 0.5 < p_last
            else:
                assert p_prev >= 0.5 > p_last


def test_morph_deterministic(triangle_csv, fitted_model, tmp_path):
    outs = []
    for name in ("m1.csv", "m2.csv"):
        out = tmp_path / name
        rc = main(
            ["morph", "--data", triangle_csv, "--model", fitted_model, "--out", str(out)]
        )
        assert rc == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_morph_mimic_rows_match_recomputation(triangle_csv, tmp_path):
    out = tmp_path / "morph.csv"
    argv = ["morph", "--data", triangle_csv, "--oracle", "knn:3", "--sigma", "0.3"]
    assert main(argv + ["--steps", "20", "--step-size", "0.1", "--out", str(out)]) == 0
    data = gen_triangle(40, seed=5)
    knn = KnnClassifier(data.features, data.labels, 3)
    mm = ParzenMimic(data.features, knn.predict(data.features), 0.3)
    g = {int(rid): knn.predict(x) for rid, x in zip(data.row_ids, data.features)}
    _, rows = read_rows(out)
    flips = 0
    for row in rows:
        x = np.array([float(row[2]), float(row[3])])
        label = mimic_predict(mm, x)
        assert float(row[4]) == parzen_posterior_not(mm, x, g[int(row[0])])  # bit for bit
        assert int(row[5]) == label
        assert int(row[6]) == int(label != g[int(row[0])])
        flips += int(row[6])
    assert len({row[0] for row in rows}) == 80 and flips > 0


@pytest.fixture(scope="module")
def three_class_morph(tmp_path_factory):
    """Three clusters labelled 0, 1, 2, a k-NN oracle on them, and morph queries: the
    references plus a point where the oracle and its mimic disagree.  Returns the
    argv, the mimic, each query's oracle label by id and that point."""
    root = tmp_path_factory.mktemp("three-class")
    refs = Dataset(datamod.gen_three_clusters(90, seed=3).features, np.repeat([0, 1, 2], 30), ["x1", "x2"])
    knn = KnnClassifier(refs.features, refs.labels, 3)
    mm = ParzenMimic(refs.features, knn.predict(refs.features), 0.5)
    grid = np.stack(np.meshgrid(np.linspace(-3, 3, 121), np.linspace(-1.5, 1.5, 61)), -1).reshape(-1, 2)
    odd = grid[np.flatnonzero(knn.predict(grid) != mimic_predict(mm, grid))[:1]]
    queries = Dataset(np.vstack([refs.features, odd]), np.zeros(91, int), ["x1", "x2"])
    save_csv(refs, root / "refs.csv")
    save_csv(queries, root / "queries.csv")
    argv = ["morph", "--data", str(root / "refs.csv"), "--queries", str(root / "queries.csv"),
            "--oracle", "knn:3", "--sigma", "0.5", "--step-size", "0.15"]
    return argv, mm, dict(enumerate(knn.predict(queries.features).tolist())), odd[0]


def test_morph_three_classes_rows_match_recomputation(three_class_morph, tmp_path):
    # rows the mimic step does not relabel keep their class: every row is recomputed
    argv, mm, g, odd = three_class_morph
    out = tmp_path / "morph.csv"
    assert main(argv + ["--steps", "25", "--out", str(out)]) == 0
    paths = {}
    for row in read_rows(out)[1]:
        x = np.array([float(row[2]), float(row[3])])
        label = mimic_predict(mm, x)
        assert float(row[4]) == parzen_posterior_not(mm, x, g[int(row[0])])  # bit for bit
        assert (int(row[5]), int(row[6])) == (label, int(label != g[int(row[0])]))
        paths.setdefault(int(row[0]), []).append((int(row[1]), int(row[5]), int(row[6])))
    assert sorted(paths) == list(range(91))
    moves = set()
    for rid, path in paths.items():
        assert [t for t, _, _ in path] == list(range(len(path)))
        assert not any(f for _, _, f in path[:-1])  # each path ends at its first flip
        if path[-1][2]:
            moves.add((g[rid], path[-1][1], len(path) == 1))
    assert {(1, 0, False), (1, 2, False)} <= moves  # the middle class leaves to either side
    assert (g[90], mimic_predict(mm, odd), True) in moves  # flips at step 0


def test_morph_relabels_a_tie_at_step_zero(tmp_path):
    # equal class sums go to the lower class id, and their p(y != c) is exactly 1/2
    refs = Dataset(np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 5.0]]), [1, 0, 0], ["x1", "x2"])
    queries = Dataset(np.zeros((1, 2)), [0], ["x1", "x2"])
    save_csv(refs, tmp_path / "refs.csv")
    save_csv(queries, tmp_path / "queries.csv")
    out = tmp_path / "morph.csv"
    argv = ["morph", "--data", str(tmp_path / "refs.csv"), "--queries", str(tmp_path / "queries.csv"),
            "--oracle", "knn:1", "--sigma", "0.5", "--step-size", "0.1", "--out", str(out)]
    assert main(argv) == 0
    assert read_rows(out)[1] == [["0", "0", "0", "0", "0.5", "0", "1"]]  # k-NN says 1, the tie 0


@pytest.mark.parametrize("steps", ["25", "0"])
@pytest.mark.parametrize("route", ["mimic", "gpc"])
def test_morph_writes_the_same_bytes_in_blocks_of_paths(three_class_morph, triangle_csv, fitted_model,
                                                        tmp_path, monkeypatch, route, steps):
    if route == "mimic":
        argv = three_class_morph[0]
    else:
        argv = ["morph", "--data", triangle_csv, "--model", fitted_model, "--step-size", "0.1"]
    write, blocks = datamod._write_table, []

    def counting(path, header, parts):
        parts = list(parts)
        blocks.append(len(parts))
        write(path, header, parts)

    monkeypatch.setattr(datamod, "_write_table", counting)
    assert main(argv + ["--steps", steps, "--out", str(tmp_path / "default.csv")]) == 0
    monkeypatch.setattr(datamod, "_BLOCK_ELEMENTS", 20)  # every row pass and table block too
    assert main(argv + ["--steps", steps, "--out", str(tmp_path / "small.csv")]) == 0
    assert blocks[0] == 1 and blocks[1] >= 40
    assert (tmp_path / "small.csv").read_bytes() == (tmp_path / "default.csv").read_bytes()
    rows, n = read_rows(tmp_path / "default.csv")[1], 91 if route == "mimic" else 80
    if steps == "0":  # one row per query, at its start
        assert [(row[0], row[1]) for row in rows] == [(str(i), "0") for i in range(n)]
    else:
        assert len(rows) > 2 * n


def test_morph_relabels_only_the_rows_that_may_have_flipped(three_class_morph, tmp_path, monkeypatch):
    # a row keeps its class c unless p(y != c) >= 1/2 up to (k + 2) eps: only
    # those rows reach mimic_predict, each once, at its step's point
    argv, mm, _, _ = three_class_morph
    seen = []
    predict = mimic_predict

    def recording(mimic, x):
        seen.extend(map(tuple, np.asarray(x).tolist()))
        return predict(mimic, x)

    monkeypatch.setattr("localgrad.mimic.mimic_predict", recording)
    out = tmp_path / "morph.csv"
    assert main(argv + ["--steps", "25", "--out", str(out)]) == 0
    rows = read_rows(out)[1]
    half = 0.5 - (len(mm.classes) + 2) * np.finfo(float).eps
    maybe = [(float(r[2]), float(r[3])) for r in rows if float(r[4]) >= half]
    assert sorted(seen) == sorted(maybe)
    assert sum(int(r[6]) for r in rows) <= len(maybe) < len(rows) / 4


def test_morph_directions_divide_by_each_vector_norm(tmp_path):
    # np.linalg.norm(G, axis=1) sums the squares in another order than the norm of one
    # vector, and moves some directions, so the points written, by an ulp
    X = np.random.default_rng(21).normal(size=(200, 6))
    save_csv(Dataset(X, (X[:, 0] + X[:, 1] > 0).astype(int)), tmp_path / "d6.csv")
    base = ["--data", str(tmp_path / "d6.csv"), "--oracle", "knn:3", "--sigma", "1.5"]
    assert main(["explain", *base, "--out", str(tmp_path / "e.csv")]) == 0
    assert main(["morph", *base, "--steps", "2", "--step-size", "0.1", "--out", str(tmp_path / "m.csv")]) == 0
    G = np.loadtxt(tmp_path / "e.csv", delimiter=",", skiprows=1, usecols=range(6, 12))
    directions = np.array([g / np.linalg.norm(g) for g in G])
    rows = np.loadtxt(tmp_path / "m.csv", delimiter=",", skiprows=1, usecols=range(8))
    i, t = rows[:, 0].astype(int), rows[:, 1]
    assert np.array_equal(rows[:, 2:], X[i] + (t * 0.1)[:, None] * directions[i])


@pytest.mark.parametrize("copies", [1, 3])
def test_morph_queries_with_no_spread_need_a_step_size(triangle_csv, fitted_model, tmp_path, capsys, copies):
    # one query, or identical ones, scale the default step to 0: the command exited 0
    # and wrote steps + 1 copies of each start
    start = gen_triangle(40, seed=5).features[7]
    queries = Dataset(np.tile(start, (copies, 1)), np.zeros(copies, int), ["x1", "x2"], np.arange(copies))
    save_csv(queries, tmp_path / "queries.csv")
    out = tmp_path / "morph.csv"
    argv = ["morph", "--data", triangle_csv, "--queries", str(tmp_path / "queries.csv"), "--model", fitted_model]
    assert main(argv + ["--steps", "5", "--out", str(out)]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["type"] == "ValueError" and "--step-size" in err["error"]
    assert not out.exists()
    assert main(argv + ["--steps", "5", "--step-size", "0.1", "--out", str(out)]) == 0
    _, written = read_rows(out)
    assert len({(row[2], row[3]) for row in written}) > 1  # the walk moves


# --------------------------------------------------------------------- rank


def test_rank_outputs(triangle_csv, fitted_model, tmp_path):
    out = tmp_path / "rank.csv"
    rc = main(
        ["rank", "--data", triangle_csv, "--model", fitted_model, "--out", str(out)]
    )
    assert rc == 0
    header, rows = read_rows(out)
    assert header == ["feature", "mean_gradient", "rank"]
    assert len(rows) == 2
    assert (tmp_path / "rank-hist-x1.csv").exists()
    assert (tmp_path / "rank-hist-x2.csv").exists()


def test_rank_rejects_features_that_share_a_histogram_file(tmp_path, capsys):
    # "a,b" and "a.b" both name the file rank-hist-a_b.csv; nothing is written
    X = np.random.default_rng(3).normal(size=(12, 2))
    data_path = tmp_path / "clash.csv"
    save_csv(Dataset(X, (X[:, 0] > 0).astype(int), ["a,b", "a.b"]), data_path)
    out = tmp_path / "rank.csv"
    assert main(["rank", "--data", str(data_path), "--sigma", "0.5", "--out", str(out)]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["type"] == "ValueError"
    assert "'a,b'" in err["error"] and "'a.b'" in err["error"] and "rank-hist-a_b.csv" in err["error"]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["clash.csv"]


# ------------------------------------------------------------------ compare


def run_compare(tmp_path, *extra):
    rng = np.random.default_rng(1)
    X = rng.normal(size=(60, 2))
    grp = (np.arange(60) < 20).astype(float)
    labels = np.where(X[:, 0] + np.where(grp > 0, 0.0, 2.0) * X[:, 1] > 0, 1, -1)
    ds = Dataset(np.column_stack([X, grp]), labels, ["f1", "f2", "grp"])
    data_path = tmp_path / "grp.csv"
    save_csv(ds, data_path)
    out = tmp_path / f"cmp{len(extra)}.json"
    rc = main(
        [
            "compare",
            "--data",
            str(data_path),
            "--oracle",
            "knn:3",
            "--sigma",
            "0.8",
            "--feature",
            "f2",
            "--group",
            "grp",
            "--out",
            str(out),
            *extra,
        ]
    )
    assert rc == 0
    return json.loads(out.read_text())


def count_calls(monkeypatch, owner, attr, calls):
    """Replace owner.attr by a wrapper that counts its calls in calls[attr]."""
    fn = getattr(owner, attr)
    calls[attr] = 0

    def wrapper(*args, **kwargs):
        calls[attr] += 1
        return fn(*args, **kwargs)

    monkeypatch.setattr(owner, attr, wrapper)


def test_compare_reads_and_labels_the_data_once(tmp_path, monkeypatch):
    # the --data rows are both the references and the queries
    calls = {}
    count_calls(monkeypatch, datamod, "load_csv", calls)
    count_calls(monkeypatch, classifiers.KnnClassifier, "predict", calls)
    run_compare(tmp_path)
    assert calls == {"load_csv": 1, "predict": 1}


def test_main_runs_the_command_function_of_call_time(triangle_csv, tmp_path, monkeypatch):
    # the parser is built once per process; the subcommand's function is looked
    # up on the module when main runs, so a replaced cmd_* is the one called
    argv = ["explain", "--data", triangle_csv, "--sigma", "0.3", "--out", str(tmp_path / "e.csv")]
    assert main(argv) == 0
    seen = []
    monkeypatch.setattr(cli, "cmd_explain", lambda args: seen.append(args.out) or 0)
    assert main(argv) == 0
    assert seen == [str(tmp_path / "e.csv")]
    assert cli.build_parser() is not cli.build_parser()  # only main's own parser is shared


def test_compare_outputs(tmp_path):
    result = run_compare(tmp_path)
    assert result["feature"] == "f2"
    assert result["group_size"] == 20
    assert 0.0 <= result["p_value"] <= 1.0
    assert result["sym_kld"] >= 0.0
    assert len(result["hist_in"]) == len(result["hist_out"])


def test_compare_explains_the_query_rows(tmp_path):
    # the --queries rows are explained and grouped; the --data rows are the references
    rng = np.random.default_rng(1)
    X = rng.normal(size=(60, 2))
    grp = (np.arange(60) < 20).astype(float)
    ds = Dataset(np.column_stack([X, grp]), (X[:, 0] > 0).astype(int), ["f1", "f2", "grp"])
    save_csv(ds, tmp_path / "refs.csv")
    save_csv(ds.subset(np.arange(15, 45)), tmp_path / "queries.csv")  # 5 of 30 in the group
    out = tmp_path / "cmp.json"
    argv = ["compare", "--data", str(tmp_path / "refs.csv"), "--queries", str(tmp_path / "queries.csv"),
            "--oracle", "knn:3", "--sigma", "0.8", "--feature", "f2", "--group", "grp", "--out", str(out)]
    assert main(argv) == 0
    result = json.loads(out.read_text())
    assert result["group_size"] == 5
    assert sum(result["hist_in"]) + sum(result["hist_out"]) == 30


@pytest.mark.parametrize("flag", ["--feature", "--group"])
def test_compare_columns_must_be_columns_of_the_dataset(triangle_csv, tmp_path, capsys, flag):
    out = tmp_path / "cmp.json"
    names = {"--feature": "x1", "--group": "x2", flag: "grp"}
    argv = ["compare", "--data", triangle_csv, "--sigma", "0.3", *(a for kv in names.items() for a in kv)]
    assert main(argv + ["--out", str(out)]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["type"] == "ValueError" and err["error"] == f"{flag} 'grp' is not a column of the dataset"
    assert not out.exists()


def test_compare_applies_smooth_window(tmp_path):
    # a window holding every point turns each gradient into the global mean
    smoothed = run_compare(tmp_path, "--smooth-window", "1e9")
    assert smoothed != run_compare(tmp_path)
    assert smoothed["ks_statistic"] == 0.0  # both groups hold the same value


# --------------------------------------------------------------------- iris


@pytest.fixture(scope="module")
def iris_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli-iris")
    out = root / "iris"
    rc = main(["iris", "--seed", "1", "--out", str(out)])
    assert rc == 0
    return root


def test_iris_metrics(iris_run):
    metrics = json.loads((iris_run / "iris-metrics.json").read_text())
    assert metrics["k"] in range(1, 11)
    assert 0.0 <= metrics["test_error"] <= 0.2
    assert metrics["mimic_train_agreement"] >= 0.95
    assert 0.05 <= metrics["sigma"] <= 1.0


def test_iris_outputs_exist(iris_run):
    for suffix in (
        "iris-explanations.csv",
        "iris-train.csv",
        "iris-test.csv",
        "iris-norm-stats.json",
    ):
        assert (iris_run / suffix).exists()
    evs = load_explanations(iris_run / "iris-explanations.csv")
    assert len(evs) == 50


def test_iris_sigma_grid_list_is_searched_whole(tmp_path):
    # the listed widths are searched by leave-one-out on the written training
    # split as the k-NN labels it; the auto grid's span [0.1, 1] x median
    # pairwise distance does not narrow the list
    grid = [8.0, 0.05, 0.15, 3.0]
    out = tmp_path / "iris"
    assert main(["iris", "--seed", "1", "--sigma-grid", ",".join(map(str, grid)), "--out", str(out)]) == 0
    metrics = json.loads((tmp_path / "iris-metrics.json").read_text())
    train = load_csv(tmp_path / "iris-train.csv")
    g_train = KnnClassifier(train.features, train.labels, metrics["k"]).predict(train.features)
    assert metrics["sigma"] == select_width(train.features, g_train, grid) == 0.15
    d = np.linalg.norm(train.features[:, None] - train.features[None], axis=2)
    assert metrics["sigma"] < 0.1 * np.median(d[np.triu_indices(len(d), 1)])


def test_iris_reads_the_bundled_csv_once(tmp_path, monkeypatch):
    calls = {}
    count_calls(monkeypatch, datamod, "load_csv", calls)
    assert main(["iris", "--seed", "1", "--out", str(tmp_path / "iris")]) == 0
    assert calls == {"load_csv": 1}


@pytest.mark.parametrize("k_grid, ks", [("3.0", [3]), ("2,1e0", [1, 2])])
def test_iris_k_grid_takes_integral_values(tmp_path, k_grid, ks):
    assert main(["iris", "--seed", "1", "--k-grid", k_grid, "--out", str(tmp_path / "iris")]) == 0
    metrics = json.loads((tmp_path / "iris-metrics.json").read_text())
    assert sorted(map(int, metrics["k_loo_errors"])) == ks and metrics["k"] in ks


@pytest.mark.parametrize("k_grid", ["2.7", "3,x", "inf"])
def test_iris_k_grid_rejects_non_integers(tmp_path, capsys, k_grid):
    out = tmp_path / "iris"
    assert main(["iris", "--seed", "1", "--k-grid", k_grid, "--out", str(out)]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["type"] == "ValueError" and "--k-grid" in err["error"] and k_grid in err["error"]
    assert not list(tmp_path.iterdir())


def test_iris_deterministic(tmp_path):
    blobs = []
    for sub in ("r1", "r2"):
        out = tmp_path / sub / "iris"
        out.parent.mkdir()
        rc = main(["iris", "--seed", "7", "--out", str(out)])
        assert rc == 0
        blobs.append((out.parent / "iris-metrics.json").read_bytes())
    assert blobs[0] == blobs[1]


# ------------------------------------------------------------------ reruns


@pytest.fixture(scope="module")
def clusters_csv(tmp_path_factory):
    # an odd middle cluster puts one row exactly on its stationary centre
    path = tmp_path_factory.mktemp("cli-clusters") / "clusters.csv"
    save_csv(datamod.gen_three_clusters(121, seed=4), path)
    return str(path)


def run_twice(tmp_path, argv, out_name):
    """Run argv with --out into two fresh directories; per run, the bytes
    of every file it wrote, by name."""
    runs = []
    for sub in ("r1", "r2"):
        (tmp_path / sub).mkdir()
        assert main([*argv, "--out", str(tmp_path / sub / out_name)]) == 0
        runs.append({f.name: f.read_bytes() for f in sorted((tmp_path / sub).iterdir())})
    return runs


def test_explain_mimic_fallback_and_smoothing_rerun_identical(clusters_csv, tmp_path):
    argv = ["explain", "--data", clusters_csv, "--oracle", "knn:3", "--sigma", "0.6",
            "--hessian-fallback", "1e-6", "--smooth-window", "0.3"]
    first, second = run_twice(tmp_path, argv, "e.csv")
    assert first == second and list(first) == ["e.csv"]
    sources = [ev.source for ev in load_explanations(tmp_path / "r1" / "e.csv")]
    assert "hessian-fallback" in sources and "parzen-mimic" in sources


@pytest.mark.parametrize(
    "command, files",
    [("vector-field", ["f.csv"]), ("rank", ["f-hist-x1.csv", "f-hist-x2.csv", "f.csv"])],
)
def test_gpc_route_commands_rerun_identical(triangle_csv, fitted_model, tmp_path, command, files):
    argv = [command, "--model", fitted_model]
    argv += ["--grid", "6"] if command == "vector-field" else ["--data", triangle_csv]
    first, second = run_twice(tmp_path, argv, "f.csv")
    assert first == second and list(first) == files


def test_compare_rerun_identical(tmp_path):
    for sub in ("r1", "r2"):
        (tmp_path / sub).mkdir()
        run_compare(tmp_path / sub)
    assert (tmp_path / "r1" / "cmp0.json").read_bytes() == (tmp_path / "r2" / "cmp0.json").read_bytes()


# ------------------------------------------------------------ output format


def test_every_csv_written_is_rectangular_with_crlf_rows(fitted_model, tmp_path):
    # feature names with a comma and a quote must be quoted wherever they are header cells
    X = np.random.default_rng(8).normal(size=(24, 2))
    data_path = tmp_path / "named.csv"
    save_csv(Dataset(X, (X[:, 0] + X[:, 1] > 0).astype(int), ["a,b", 'c"d']), data_path)
    mim = ["--data", str(data_path), "--oracle", "knn:3", "--sigma", "0.8"]
    for argv in (
        ["explain", *mim, "--out", str(tmp_path / "expl.csv")],
        ["morph", *mim, "--steps", "4", "--out", str(tmp_path / "morph.csv")],
        ["rank", *mim, "--bins", "4", "--out", str(tmp_path / "rank.csv")],
        ["vector-field", "--model", fitted_model, "--grid", "3", "--out", str(tmp_path / "field.csv")],
        ["iris", "--seed", "1", "--out", str(tmp_path / "iris.csv")],
    ):
        assert main(argv) == 0, argv[0]
    written = sorted(tmp_path.glob("*.csv"))
    assert len(written) == 11  # the dataset, 3 explain/morph/field, 3 rank, 4 iris
    for path in written:
        raw = path.read_bytes()
        assert raw.endswith(b"\r\n") and raw.count(b"\n") == raw.count(b"\r\n"), path.name
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) > 1 and all(len(row) == len(rows[0]) for row in rows), path.name
    with open(tmp_path / "morph.csv", newline="") as fh:
        assert next(csv.reader(fh)) == ["id", "step", "a,b", 'c"d', "p", "label", "flipped"]


# ----------------------------------------------------------- error contract


def test_missing_file_error_json(capsys):
    rc = main(["explain", "--data", "/nonexistent/never.csv", "--oracle", "knn:3"])
    assert rc == 1
    err = json.loads(capsys.readouterr().err)
    assert err["command"] == "explain"
    assert "error" in err and "type" in err


def test_bad_kernel_json_error(triangle_csv, tmp_path, capsys):
    rc = main(
        [
            "fit-gpc",
            "--data",
            triangle_csv,
            "--kernel",
            '{"kind": "warp"}',
            "--out",
            str(tmp_path / "m.json"),
        ]
    )
    assert rc == 1
    err = json.loads(capsys.readouterr().err)
    assert err["type"] == "ValueError"


@pytest.mark.parametrize(
    "kernel", ['{"kind": "rational-quadratic", "alpha": Infinity}', '{"kind": "rbf", "w": Infinity}']
)
def test_fit_gpc_rejects_non_finite_kernel_parameter(triangle_csv, tmp_path, capsys, kernel):
    out = tmp_path / "m.json"
    rc = main(["fit-gpc", "--data", triangle_csv, "--kernel", kernel, "--out", str(out)])
    assert rc == 1
    err = json.loads(capsys.readouterr().err)
    assert err["type"] == "ValueError"
    assert "must be finite" in err["error"]
    assert not out.exists()


@pytest.mark.parametrize(
    "flags, named",
    [
        # an unknown key was ignored, so this fitted width 1 and exited 0
        (["--kernel", '{"kind": "rbf", "width": 5.0}'], "'width'"),
        (["--kernel", '{"w": 5}'], "'kind'"),  # was a KeyError whose message read 'kind'
        (["--kernel-grid", ","], "--kernel-grid"),  # was "max() arg is an empty sequence"
        (["--kernel-grid", ""], "--kernel-grid"),
        (["--kernel", "5"], "--kernel must be a JSON object"),  # was a TypeError
        (["--kernel", '"rbf"'], "--kernel must be a JSON object"),  # listed the letters as keys
        (["--kernel-grid", "x"], "--kernel-grid takes comma-separated numbers"),  # was float()'s message
    ],
)
def test_fit_gpc_kernel_flags_fail_naming_what_is_wrong(triangle_csv, tmp_path, capsys, flags, named):
    out = tmp_path / "m.json"
    rc = main(["fit-gpc", "--data", triangle_csv, *flags, "--out", str(out)])
    assert rc == 1
    err = json.loads(capsys.readouterr().err)
    assert err["type"] == "ValueError" and named in err["error"]
    assert not out.exists()


# --------------------------------------------------------------- flag rules


_FLAG_BASES = {  # each command's other flags; the files are never read
    "fit-gpc": ["--data", "d.csv"],
    "explain": ["--data", "d.csv"],
    "vector-field": ["--model", "m.json"],
    "morph": ["--data", "d.csv"],
    "rank": ["--model", "m.json"],
    "compare": ["--data", "d.csv", "--feature", "x1", "--group", "x2"],
    "iris": [],
}


@pytest.mark.parametrize("in_config", [False, True])
@pytest.mark.parametrize(
    "command, key, value, message",
    [
        # --smooth-window and --epsilon failed only after the explanations were computed,
        # in smooth_gradients and HistogramSpec, with messages naming no flag
        ("explain", "smooth_window", "0", "--smooth-window must be positive, got 0.0"),
        ("explain", "smooth_window", "nan", "--smooth-window must be positive, got nan"),
        ("compare", "epsilon", "0", "--epsilon must be positive, got 0.0"),
        ("compare", "epsilon", "-1", "--epsilon must be positive, got -1.0"),
        # numpy's "expected non-negative integer", once the data had been read
        ("fit-gpc", "seed", "-1", "--seed must be at least 0, got -1"),
        ("iris", "seed", "-1", "--seed must be at least 0, got -1"),
        # a bare JSONDecodeError, "Expecting property name enclosed in double quotes"
        ("fit-gpc", "kernel", "{bad", '--kernel must be a JSON object such as {"kind": "rbf", "w": 2.0}, got \'{bad\''),
        # these named their flag, but only once the data or the model had been read
        ("fit-gpc", "kernel_grid", "x", "--kernel-grid takes comma-separated numbers, got 'x'"),
        ("explain", "oracle", "knn:1.5", "--oracle knn:K takes an integer K, got 'knn:1.5'"),
        ("explain", "sigma_grid", ",", "--sigma-grid lists no candidates, got ','"),
        ("explain", "hessian_fallback", "-5", "--hessian-fallback must be positive, got -5.0"),
        ("iris", "k_grid", "3,x", "--k-grid takes integers, got '3,x'"),
        ("iris", "k_grid", ",", "--k-grid takes integers, got ','"),  # "no k candidates", from knn_fit_loo
        ("morph", "steps", "-1", "--steps must be at least 0, got -1"),
        ("morph", "step_size", "0", "--step-size must be positive, got 0.0"),
        ("rank", "bins", "1", "--bins must be at least 2, got 1"),
        ("rank", "sigma", "0.3", "pass either --model (analytic) or --sigma (mimic), not both"),
        ("vector-field", "grid", "0", "--grid must be at least 1, got 0"),
    ],
)
def test_a_bad_flag_value_fails_naming_its_flag_before_any_input_is_read(
    tmp_path, capsys, monkeypatch, command, key, value, message, in_config
):
    def read(*args, **kwargs):
        raise AssertionError("an input was read")

    for name in ("data.load_csv", "gpc.load_gpc", "gpc.explain_gpc", "mimic.explain_mimic"):
        monkeypatch.setattr(f"localgrad.{name}", read)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: value}))
    flag = ["--config", str(cfg)] if in_config else [f"--{key.replace('_', '-')}={value}"]
    assert main([command, *_FLAG_BASES[command], *flag, "--out", str(tmp_path / "out")]) == 1
    assert json.loads(capsys.readouterr().err) == {"command": command, "error": message, "type": "ValueError"}
    assert list(tmp_path.iterdir()) == [cfg]


@pytest.mark.parametrize(
    "command, defaults",
    [
        ("fit-gpc", {"seed": 0, "kernel": {"kind": "rbf"}}),
        ("vector-field", {"grid": 30}),
        ("morph", {"steps": 50}),
        ("rank", {"bins": 30}),
        ("compare", {"bins": 30, "epsilon": 1.0}),
        ("iris", {"seed": 0}),
    ],
)
def test_a_flag_not_given_reaches_the_command_as_its_parser_default(monkeypatch, command, defaults):
    # the defaults were None, and each command body held its own fallback
    seen = {}
    monkeypatch.setattr(cli, "cmd_" + command.replace("-", "_"), lambda args: seen.update(vars(args)) or 0)
    assert main([command]) == 0
    assert {name: seen[name] for name in defaults} == defaults


def test_oracle_table_whose_name_starts_with_knn_is_read_as_a_table(triangle_csv, tmp_path, monkeypatch):
    # any --oracle starting with "knn" was read as knn:loo, so this table was ignored
    data = load_csv(triangle_csv)
    monkeypatch.chdir(tmp_path)
    flipped = tmp_path / "flipped.csv"
    datamod._write_table("knn-labels.csv", ["id", "label"], [(data.row_ids, 1 - data.labels)])
    save_csv(Dataset(data.features, 1 - data.labels, data.feature_names, data.row_ids), flipped)
    assert main(["explain", "--data", triangle_csv, "--oracle", "knn-labels.csv", "--sigma", "0.4",
                 "--out", str(tmp_path / "table.csv")]) == 0
    assert main(["explain", "--data", str(flipped), "--sigma", "0.4", "--out", str(tmp_path / "own.csv")]) == 0
    assert (tmp_path / "table.csv").read_bytes() == (tmp_path / "own.csv").read_bytes()


# ------------------------------------------------------------------- config


def test_config_file_supplies_flags(fitted_model, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"model": fitted_model, "grid": 5}))
    out = tmp_path / "field.csv"
    rc = main(["vector-field", "--config", str(cfg), "--out", str(out)])
    assert rc == 0
    _, rows = read_rows(out)
    assert len(rows) == 25


def test_flags_override_config(fitted_model, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"model": fitted_model, "grid": 5}))
    out = tmp_path / "field.csv"
    rc = main(
        ["vector-field", "--config", str(cfg), "--grid", "4", "--out", str(out)]
    )
    assert rc == 0
    _, rows = read_rows(out)
    assert len(rows) == 16


def test_config_unknown_key_rejected(fitted_model, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"model": fitted_model, "gird": 3}))
    out = tmp_path / "field.csv"
    rc = main(["vector-field", "--config", str(cfg), "--out", str(out)])
    assert rc == 1
    err = json.loads(capsys.readouterr().err)
    assert err["command"] == "vector-field"
    assert err["type"] == "ValueError" and "'gird'" in err["error"]
    assert not out.exists()


@pytest.mark.parametrize("command", ["explain", "vector-field", "morph", "rank", "compare"])
def test_seed_is_not_a_flag_of_commands_without_randomness(tmp_path, capsys, command):
    # only fit-gpc and iris draw a split; the other commands take no --seed
    with pytest.raises(SystemExit) as exc:
        main([command, "--seed", "1", "--out", str(tmp_path / "x")])
    assert exc.value.code == 2
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 1}))
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "x")]) == 1
    err = capsys.readouterr().err.splitlines()[-1]
    assert json.loads(err) == {
        "command": command, "error": f"config key 'seed' is not a flag of {command}", "type": "ValueError"
    }
    assert not (tmp_path / "x").exists()


def test_config_true_means_the_bare_flag(tmp_path):
    data = tmp_path / "tri.csv"
    save_csv(gen_triangle(30, 0), data)
    base = ["explain", "--data", str(data), "--oracle", "knn:3", "--sigma", "0.3"]
    flag_out, cfg_out = tmp_path / "flag.csv", tmp_path / "cfg.csv"
    assert main(base + ["--hessian-fallback", "--out", str(flag_out)]) == 0
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"hessian_fallback": True}))
    assert main(base + ["--config", str(cfg), "--out", str(cfg_out)]) == 0
    assert cfg_out.read_bytes() == flag_out.read_bytes()
    # the threshold is the flag's 1e-6, not float(True) = 1.0
    assert all(ev.source != "hessian-fallback" for ev in load_explanations(cfg_out))


def test_config_value_gets_the_flag_type(triangle_csv, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"steps": 2.5}))
    out = tmp_path / "morph.csv"
    rc = main(
        ["morph", "--data", triangle_csv, "--sigma", "0.3", "--config", str(cfg), "--out", str(out)]
    )
    assert rc == 1
    err = json.loads(capsys.readouterr().err)
    assert err["command"] == "morph"
    assert err["type"] == "ValueError" and "--steps" in err["error"] and "2.5" in err["error"]
    assert not out.exists()


@pytest.mark.parametrize(
    "command, key, value, text",
    [
        # the object reached --kernel as Python's repr {'kind': ...}, a JSONDecodeError
        ("fit-gpc", "kernel", {"kind": "rbf", "w": 2.0}, '{"kind": "rbf", "w": 2.0}'),
        # the arrays failed with "takes comma-separated numbers, got '[0.5, 1.0]'"
        ("fit-gpc", "kernel_grid", [0.5, 1.0], "0.5,1.0"),
        ("explain", "sigma_grid", [0.2, 0.4], "0.2,0.4"),
    ],
)
def test_config_objects_and_arrays_read_as_their_flag_text(triangle_csv, tmp_path, command, key, value, text):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: value}))
    base = [command, "--data", triangle_csv, "--out"]
    flag_out, cfg_out = tmp_path / "flag.json", tmp_path / "cfg-run.json"
    assert main([*base, str(flag_out), f"--{key.replace('_', '-')}", text]) == 0
    assert main([*base, str(cfg_out), "--config", str(cfg)]) == 0
    assert cfg_out.read_bytes() == flag_out.read_bytes()


def test_a_bad_config_value_fails_where_the_command_line_sets_its_flag(fitted_model, tmp_path, capsys):
    # the command line's value wins, but the file's is parsed too: it was skipped unread
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"grid": "x"}))
    out = tmp_path / "field.csv"
    assert main(["vector-field", "--config", str(cfg), "--model", fitted_model, "--grid", "4", "--out", str(out)]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err == {"command": "vector-field", "error": "config: argument --grid: invalid int value: 'x'",
                   "type": "ValueError"}
    assert not out.exists()


# -------------------------------------------------------------- entry point


def test_console_entry_point(triangle_csv, tmp_path):
    out = tmp_path / "m.json"
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "localgrad.cli",
            "fit-gpc",
            "--data",
            triangle_csv,
            "--kernel",
            '{"kind": "rbf", "w": 1.0}',
            "--out",
            str(out),
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert out.exists()
