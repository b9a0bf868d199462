import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from localgrad.classifiers import KnnClassifier
from localgrad.cli import main
from localgrad.data import Dataset, gen_triangle, save_csv
from localgrad.gpc import explain_gpc, load_gpc, predict_proba
from localgrad.mimic import ParzenMimic, mimic_predict, parzen_posterior_not
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


def test_compare_outputs(tmp_path):
    result = run_compare(tmp_path)
    assert result["feature"] == "f2"
    assert result["group_size"] == 20
    assert 0.0 <= result["p_value"] <= 1.0
    assert result["sym_kld"] >= 0.0
    assert len(result["hist_in"]) == len(result["hist_out"])


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


def test_iris_deterministic(tmp_path):
    blobs = []
    for sub in ("r1", "r2"):
        out = tmp_path / sub / "iris"
        out.parent.mkdir()
        rc = main(["iris", "--seed", "7", "--out", str(out)])
        assert rc == 0
        blobs.append((out.parent / "iris-metrics.json").read_bytes())
    assert blobs[0] == blobs[1]


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
