import json
import os
import re
import subprocess
import sys
import threading
import warnings

import numpy as np
import pytest
from counting import count_normalize, force_run_threads

import pgcn
import pgcn.cli
import pgcn.crossval
import pgcn.experiments
from pgcn.cli import GRADCHECK_L2, gradcheck_instance, main
from pgcn.model import load_checkpoint
from pgcn.training import grad_check


@pytest.fixture()
def synth_dir(tmp_path):
    out = tmp_path / "data"
    code = main([
        "synth", "--n", "60", "--d", "6", "--seed", "3",
        "--informative-strength", "2.0", "--out-dir", str(out),
    ])
    assert code == 0
    return out


def dataset_args(synth_dir):
    return [
        "--features", str(synth_dir / "features.csv"),
        "--meta", str(synth_dir / "meta.csv"),
        "--labels", str(synth_dir / "labels.csv"),
    ]


class TestSynth:
    def test_writes_three_files(self, synth_dir):
        for name in ("features.csv", "meta.csv", "labels.csv"):
            assert (synth_dir / name).exists()

    def test_bad_parameters_exit_nonzero(self, tmp_path, capsys):
        code = main(["synth", "--n", "11", "--out-dir", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:parameter:")
        assert err.count("\n") == 1


class TestBuildGraph:
    def test_exports_edge_list(self, synth_dir, tmp_path, capsys):
        out = tmp_path / "graphs"
        code = main(["build-graph", *dataset_args(synth_dir),
                     "--element", "informative", "--out-dir", str(out)])
        assert code == 0
        path = out / "graph_informative.txt"
        assert path.exists()
        assert path.read_text().startswith("n 60\n")

    def test_random_element(self, synth_dir, tmp_path):
        out = tmp_path / "graphs"
        code = main(["build-graph", *dataset_args(synth_dir), "--element", "random",
                     "--density", "0.2", "--seed", "5", "--out-dir", str(out)])
        assert code == 0
        assert (out / "graph_random.txt").exists()

    def test_config_metric_is_read(self, synth_dir, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"metric": "cosine", "betas": {}}))
        texts = []
        for name, extra in (("pearson", []), ("cosine", ["--config", str(cfg)])):
            out = tmp_path / name
            assert main(["build-graph", *dataset_args(synth_dir), "--element", "informative",
                         "--out-dir", str(out), *extra]) == 0
            texts.append((out / "graph_informative.txt").read_text())
        assert texts[0] != texts[1]

    @pytest.mark.parametrize("element", ["informative", "random"])
    def test_export_never_normalizes(self, synth_dir, tmp_path, monkeypatch, element):
        calls = count_normalize(monkeypatch)
        assert main(["build-graph", *dataset_args(synth_dir), "--element", element,
                     "--out-dir", str(tmp_path / "graphs")]) == 0
        assert calls == []

    def test_unknown_element_is_config_error(self, synth_dir, tmp_path, capsys):
        code = main(["build-graph", *dataset_args(synth_dir),
                     "--element", "age", "--out-dir", str(tmp_path)])
        assert code == 2
        assert capsys.readouterr().err.startswith("error:config:")


class TestTrain:
    def test_config_is_read_before_the_data(self, synth_dir, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{")
        args = dataset_args(synth_dir)
        args[1] = str(tmp_path / "nope.csv")
        code = main(["train", *args, "--graphs", "informative", "--config", str(cfg), "--out-dir", str(tmp_path)])
        one_error_line(capsys, code, f"error:config: {cfg}: invalid JSON")

    def test_each_graph_is_normalized_once(self, synth_dir, tmp_path, monkeypatch):
        calls = count_normalize(monkeypatch)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"train": {"max_epochs": 3, "hidden_width": 4}}))
        assert main(["train", *dataset_args(synth_dir), "--graphs", "informative,nuisance", "--config", str(cfg),
                     "--out-dir", str(tmp_path / "run")]) == 0
        assert [w.dim for w in calls] == [60, 60]

    def test_writes_checkpoint_and_history(self, synth_dir, tmp_path):
        out = tmp_path / "run"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"train": {"max_epochs": 20, "hidden_width": 8}}))
        code = main(["train", *dataset_args(synth_dir),
                     "--graphs", "informative,nuisance",
                     "--config", str(cfg), "--seed", "7", "--out-dir", str(out)])
        assert code == 0
        params, seed = load_checkpoint(out / "checkpoint.npz")
        assert seed == 7
        assert params.n_branches == 2
        header = (out / "history.csv").read_text().splitlines()[0]
        assert header == "epoch,train_loss,val_loss,val_acc,omega_1,omega_2"


class TestCv:
    def write_config(self, tmp_path, seed=9):
        cfg = tmp_path / "exp.json"
        cfg.write_text(json.dumps({
            "arms": [
                {"name": "solo", "graph_sources": ["informative"], "omega": [1.0]},
                {"name": "both", "graph_sources": ["informative", "nuisance"]},
            ],
            "train": {"max_epochs": 15, "hidden_width": 8, "seed": seed},
            "repeats": 2,
        }))
        return cfg

    def test_report_and_histories(self, synth_dir, tmp_path):
        cfg = self.write_config(tmp_path)
        out = tmp_path / "cv"
        code = main(["cv", *dataset_args(synth_dir), "--config", str(cfg), "--out-dir", str(out)])
        assert code == 0
        assert (out / "report.txt").exists()
        assert (out / "history_solo_rep0.csv").exists()
        assert (out / "history_both_rep1.csv").exists()

    def test_byte_identical_across_runs(self, synth_dir, tmp_path):
        cfg = self.write_config(tmp_path)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["cv", *dataset_args(synth_dir), "--config", str(cfg), "--out-dir", str(out_a)]) == 0
        assert main(["cv", *dataset_args(synth_dir), "--config", str(cfg), "--out-dir", str(out_b)]) == 0
        assert (out_a / "report.txt").read_bytes() == (out_b / "report.txt").read_bytes()

    def test_missing_config_rejected(self, synth_dir, tmp_path, capsys):
        args = dataset_args(synth_dir)
        args[1] = str(tmp_path / "nope.csv")  # the config is checked before the data is read
        code = main(["cv", *args, "--out-dir", str(tmp_path)])
        one_error_line(capsys, code, "error:config: cv requires --config")

    def test_seed_flag_overrides_the_configured_seed(self, synth_dir, tmp_path):
        overridden, configured = tmp_path / "overridden", tmp_path / "configured"
        assert main(["cv", *dataset_args(synth_dir), "--config", str(self.write_config(tmp_path, seed=9)),
                     "--seed", "5", "--out-dir", str(overridden)]) == 0
        assert main(["cv", *dataset_args(synth_dir), "--config", str(self.write_config(tmp_path, seed=5)),
                     "--out-dir", str(configured)]) == 0
        report = (overridden / "report.txt").read_bytes()
        assert b"\nseed = 5\n" in report
        assert report == (configured / "report.txt").read_bytes()

    @pytest.mark.parametrize("setting, message", [
        ({"repeats": 1}, "need at least 2 repeats, got 1"),
        ({"val_fraction": 1.5}, "validation fraction must lie in (0, 1), got 1.5"),
    ], ids=["repeats", "val_fraction"])
    def test_split_policy_rejected_before_any_graph_is_built(self, synth_dir, tmp_path, capsys, monkeypatch,
                                                             setting, message):
        built = []
        monkeypatch.setattr(pgcn.experiments, "build_graph", lambda *args, **kwargs: built.append(args))
        cfg = tmp_path / "exp.json"
        cfg.write_text(json.dumps({"arms": [{"name": "solo", "graph_sources": ["informative"]}], **setting}))
        code = main(["cv", *dataset_args(synth_dir), "--config", str(cfg), "--out-dir", str(tmp_path / "out")])
        one_error_line(capsys, code, f"error:parameter: {message}")
        assert built == []


CV_ARMS = [{"name": "solo", "graph_sources": ["informative"]}]


@pytest.mark.parametrize(
    "command, payload",
    [
        ("train", {"omega": "fixed"}),
        ("train", {"betas": [1]}),
        ("build-graph", {"betas": [1]}),
        ("train", {"betas": {"informative": "x"}}),
        ("cv", {"arms": CV_ARMS, "repeats": "x"}),
        ("cv", {"arms": CV_ARMS, "val_fraction": "x"}),
        ("cv", {"arms": CV_ARMS, "repeats": 2.7}),
        ("cv", {"arms": CV_ARMS, "repeats": True}),
        ("cv", {"arms": CV_ARMS, "val_fraction": True}),
        ("cv", {"arms": CV_ARMS, "betas": {"informative": True}}),
        ("train", {"train": {"max_epochs": 2.5}}),
        ("train", {"train": {"hidden_width": 4.5}}),
        ("train", {"train": {"max_epochs": True}}),
        ("build-graph", {"omega": [0.3, 0.7, 0.1]}),
        ("build-graph", {"train": {"max_epochs": 5}}),
    ],
    ids=["train-omega-string", "train-betas-list", "build-graph-betas-list",
         "train-betas-nonnumeric", "cv-repeats-string", "cv-val-fraction-string",
         "cv-repeats-fraction", "cv-repeats-bool", "cv-val-fraction-bool", "cv-betas-bool",
         "train-max-epochs-fraction", "train-hidden-width-fraction", "train-max-epochs-bool",
         "build-graph-omega", "build-graph-train"],
)
def test_malformed_config_field_is_config_error(synth_dir, tmp_path, capsys, command, payload):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(payload))
    extra = {"train": ["--graphs", "informative"], "build-graph": ["--element", "informative"]}
    code = main([command, *dataset_args(synth_dir), *extra.get(command, []),
                 "--config", str(cfg), "--out-dir", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:config:")
    assert err.count("\n") == 1


@pytest.mark.parametrize("metric", ["bogus", ["cosine"]])
@pytest.mark.parametrize("command", ["train", "build-graph", "cv"])
def test_unknown_metric_is_config_error_without_metadata_sources(synth_dir, tmp_path, capsys, command, metric):
    # no source builds a metadata graph, so only the config check can see the metric
    cfg = tmp_path / "cfg.json"
    payload = {"metric": metric}
    if command == "cv":
        payload["arms"] = [{"name": "r", "graph_sources": ["random"]}]
    cfg.write_text(json.dumps(payload))
    extra = {"train": ["--graphs", "random"], "build-graph": ["--element", "random"]}
    code = main([command, *dataset_args(synth_dir), *extra.get(command, []),
                 "--config", str(cfg), "--out-dir", str(tmp_path / "out")])
    one_error_line(capsys, code, f"error:config: {cfg}: 'metric' must be one of 'pearson', 'cosine', got {metric!r}")
    assert not (tmp_path / "out").exists()
@pytest.mark.parametrize(
    "setting, value",
    [
        ("l2_lambda", float("nan")),
        ("l2_lambda", float("inf")),
        ("l2_lambda", -1e-3),
        ("learning_rate", float("nan")),
        ("learning_rate", float("inf")),
        ("learning_rate", 0.0),
        ("adam_beta1", 1.0),
        ("adam_beta1", -0.1),
        ("adam_beta1", float("nan")),
        ("adam_beta2", 1.0),
        ("adam_eps", 0.0),
        ("adam_eps", float("nan")),
        ("adam_eps", float("inf")),
    ],
)
def test_untrainable_optimizer_setting_is_parameter_error(synth_dir, tmp_path, capsys, setting, value):
    cfg = tmp_path / "cfg.json"
    # json writes nan and inf as NaN and Infinity, which its reader accepts
    cfg.write_text(json.dumps({"train": {setting: value, "max_epochs": 3}}))
    code = main(["train", *dataset_args(synth_dir), "--graphs", "informative",
                 "--config", str(cfg), "--out-dir", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:parameter:")
    assert setting in err
    assert err.count("\n") == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflow is the case under test
def test_run_that_never_improves_is_parameter_error(tmp_path, capsys):
    data = tmp_path / "data"
    assert main(["synth", "--n", "40", "--out-dir", str(data)]) == 0
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"train": {"learning_rate": 1e300, "max_epochs": 5, "early_stop_patience": 2}}))
    capsys.readouterr()
    code = main(["train", *dataset_args(data), "--graphs", "informative",
                 "--config", str(cfg), "--out-dir", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.splitlines()[-1].startswith("error:parameter:")
    assert "learning_rate" in err
    assert not (tmp_path / "out").exists()


def test_class_index_beyond_subjects_is_data_error(synth_dir, tmp_path, capsys):
    labels = synth_dir / "labels.csv"
    lines = labels.read_text().splitlines()
    lines[2] = lines[2].split(",")[0] + ",10000000000000"  # would size Y at 146 TiB
    labels.write_text("\n".join(lines) + "\n")
    code = main(["build-graph", *dataset_args(synth_dir), "--element", "informative",
                 "--out-dir", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(f"error:data: {labels}:3: class index must be < 60")
    assert err.count("\n") == 1


EDGE_LIST_FAULTS = ("truncated-line", "swapped-tokens", "huge-index", "negative-index", "huge-header",
                    "nan-weight", "duplicate-line", "empty-file", "non-ascii-byte")


def mutate_edge_list(text, kind, rng):
    """``text`` with one fault of ``kind`` on an edge line that ``rng`` picks."""
    lines = text.splitlines()
    k = int(rng.integers(1, len(lines)))  # line 0 is the header
    tokens = lines[k].split()
    if kind == "truncated-line":
        lines[k] = lines[k][:int(rng.integers(len(lines[k])))]
    elif kind == "swapped-tokens":
        a, b = rng.choice(3, size=2, replace=False)
        tokens[a], tokens[b] = tokens[b], tokens[a]
    elif kind == "huge-index":
        tokens[int(rng.integers(2))] = str(10 ** int(rng.integers(2, 40)))
    elif kind == "negative-index":
        tokens[int(rng.integers(2))] = str(-int(rng.integers(1, 100)))
    elif kind == "huge-header":
        lines[0] = f"n {10 ** int(rng.integers(2, 40))}"
    elif kind == "nan-weight":
        tokens[2] = "nan"
    elif kind == "duplicate-line":
        lines.insert(int(rng.integers(1, len(lines) + 1)), lines[k])
    elif kind == "empty-file":
        return ""
    elif kind == "non-ascii-byte":
        cut = int(rng.integers(len(lines[k]) + 1))
        lines[k] = lines[k][:cut] + "\u00e9" + lines[k][cut:]
    if kind in ("swapped-tokens", "huge-index", "negative-index", "nan-weight"):
        lines[k] = " ".join(tokens)
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("kind", EDGE_LIST_FAULTS)
def test_seeded_edge_list_faults_end_in_one_error_line(synth_dir, tmp_path, capsys, kind):
    assert main(["build-graph", *dataset_args(synth_dir), "--element", "informative",
                 "--out-dir", str(tmp_path)]) == 0
    text = (tmp_path / "graph_informative.txt").read_text()
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"train": {"max_epochs": 2, "hidden_width": 4}}))
    capsys.readouterr()
    rng = np.random.default_rng([5, EDGE_LIST_FAULTS.index(kind)])
    for case in range(4):
        path = tmp_path / f"mutant_{case}.txt"
        path.write_text(mutate_edge_list(text, kind, rng))
        code = main(["train", *dataset_args(synth_dir), "--graphs", str(path), "--config", str(cfg),
                     "--out-dir", str(tmp_path / "out")])
        err = capsys.readouterr().err
        if code != 0 or err:
            assert code == 2 and err.startswith("error:") and err.count("\n") == 1, (kind, case, err)


class TestGradcheck:
    def test_passes_and_prints_per_seed(self, capsys):
        code = main(["gradcheck", "--count", "3", "--seed", "0"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.count("max_rel_error") == 4  # 3 seeds + overall line

    def test_checks_at_the_calibration_of_its_threshold(self, capsys):
        # grad_check's default step and the L2 weight gradcheck_instance redraws at
        assert main(["gradcheck", "--count", "2", "--seed", "4"]) == 0
        errors = [grad_check(*gradcheck_instance(seed), l2_lambda=GRADCHECK_L2) for seed in (4, 5)]
        expected = [f"seed {seed} max_rel_error {err:.3e}" for seed, err in zip((4, 5), errors)]
        assert capsys.readouterr().out.splitlines()[:2] == expected


class TestRankReport:
    def test_summarizes_history(self, synth_dir, tmp_path, capsys):
        run_dir = tmp_path / "run"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"train": {"max_epochs": 15, "hidden_width": 8}}))
        main(["train", *dataset_args(synth_dir), "--graphs", "informative,nuisance",
              "--config", str(cfg), "--seed", "2", "--out-dir", str(run_dir)])
        capsys.readouterr()
        code = main(["rank-report", str(run_dir / "history.csv"), "--out-dir", str(run_dir)])
        out = capsys.readouterr().out
        assert code == 0
        assert out.startswith("rank-report")
        assert (run_dir / "rank_report.txt").read_text() == out

    def test_malformed_history_errors(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("not,a,history\n")
        code = main(["rank-report", str(bad)])
        assert code == 2
        assert capsys.readouterr().err.startswith("error:data:")


def loaded_in_fresh_process(module, code="import pgcn.cli"):
    """Whether ``module`` is in ``sys.modules`` after ``code`` runs in a fresh interpreter on this checkout."""
    src = os.path.dirname(os.path.dirname(pgcn.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run(
        [sys.executable, "-c", f"{code}\nimport sys; print({module!r} in sys.modules)"],
        capture_output=True, text=True, env=env, check=True,
    )
    return out.stdout.strip() == "True"


def test_cli_import_does_not_load_scipy_stats():
    # scipy.stats costs most of the package's import time, and every CLI call pays it
    assert not loaded_in_fresh_process("scipy.stats")


def test_cli_import_does_not_load_scipy_special():
    # only cv's arm comparisons need betainc, so paired_t_test imports it on its first call
    assert not loaded_in_fresh_process("scipy.special")


def test_cli_import_and_operator_products_do_not_load_csgraph():
    # scipy.sparse.csgraph would add about 50 ms and 8 MB to every call; spmm labels components in numpy
    assert not loaded_in_fresh_process("scipy.sparse.csgraph")
    products = ("import pgcn.cli, numpy as np\nfrom pgcn.graphs import random_graph\nfrom pgcn.linalg import spmm\n"
                "for density in (0.05, 0.5):\n"
                "    spmm(random_graph(60, density, seed=1).normalized, np.ones((60, 2)))")
    assert not loaded_in_fresh_process("scipy.sparse.csgraph", products)


NEGATIVE_SEEDS = [-1, *(-int(s) for s in np.random.default_rng(23).integers(2, 2**40, size=2))]


@pytest.mark.parametrize("seed", NEGATIVE_SEEDS)
@pytest.mark.parametrize("command", ["synth", "build-graph", "train", "cv", "gradcheck"])
def test_negative_seed_flag_is_one_parameter_error(synth_dir, tmp_path, capsys, command, seed):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"arms": CV_ARMS, "train": {"max_epochs": 2}}))
    extra = {
        "synth": ["--n", "20"],
        "build-graph": [*dataset_args(synth_dir), "--element", "random"],
        "train": [*dataset_args(synth_dir), "--graphs", "informative"],
        "cv": [*dataset_args(synth_dir), "--config", str(cfg)],
        "gradcheck": ["--count", "1"],
    }[command]
    out = [] if command == "gradcheck" else ["--out-dir", str(tmp_path / "out")]
    capsys.readouterr()
    code = main([command, *extra, *out, "--seed", str(seed)])
    one_error_line(capsys, code, f"error:parameter: --seed must be >= 0, got {seed}")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("seed", NEGATIVE_SEEDS)
@pytest.mark.parametrize("command", ["train", "cv"])
def test_negative_configured_seed_is_one_parameter_error(synth_dir, tmp_path, capsys, command, seed):
    cfg = tmp_path / "cfg.json"
    payload = {"train": {"seed": seed, "max_epochs": 2}}
    cfg.write_text(json.dumps({"arms": CV_ARMS, **payload} if command == "cv" else payload))
    extra = ["--graphs", "informative"] if command == "train" else []
    capsys.readouterr()
    code = main([command, *dataset_args(synth_dir), *extra, "--config", str(cfg), "--out-dir", str(tmp_path / "out")])
    one_error_line(capsys, code, f"error:parameter: seed must be >= 0, got {seed}")
    assert not (tmp_path / "out").exists()


def write_with_byte(path, source, line, byte):
    """Copy ``source`` to ``path`` with ``byte`` inserted at the start of 0-based ``line``."""
    lines = source.read_bytes().split(b"\n")
    lines[line] = byte + lines[line]
    path.write_bytes(b"\n".join(lines))


def one_error_line(capsys, code, prefix):
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(prefix), err
    assert err.count("\n") == 1, err


@pytest.mark.parametrize("name", ["features.csv", "meta.csv", "labels.csv"])
def test_non_utf8_byte_in_dataset_csv_is_data_error(synth_dir, tmp_path, capsys, name):
    write_with_byte(synth_dir / f"bad_{name}", synth_dir / name, 3, b"\xff")
    args = dataset_args(synth_dir)
    args[args.index(str(synth_dir / name))] = str(synth_dir / f"bad_{name}")
    code = main(["build-graph", *args, "--element", "informative", "--out-dir", str(tmp_path / "out")])
    one_error_line(capsys, code, f"error:data: {synth_dir / f'bad_{name}'}:4: byte 0xff is not utf-8")


def test_huge_feature_value_is_one_data_error(synth_dir, capsys):
    lines = (synth_dir / "features.csv").read_text().splitlines()
    lines[5] = ",".join(["1e200", *lines[5].split(",")[1:]])
    (synth_dir / "huge.csv").write_text("\n".join(lines) + "\n")
    args = dataset_args(synth_dir)
    args[args.index(str(synth_dir / "features.csv"))] = str(synth_dir / "huge.csv")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["train", *args, "--graphs", "informative,nuisance", "--out-dir", str(synth_dir / "out")])
    one_error_line(capsys, code, f"error:data: {synth_dir / 'huge.csv'}:6: feature values too large")


def test_non_ascii_byte_in_edge_list_is_data_error(synth_dir, tmp_path, capsys):
    assert main(["build-graph", *dataset_args(synth_dir), "--element", "informative",
                 "--out-dir", str(tmp_path)]) == 0
    bad = tmp_path / "bad.txt"
    write_with_byte(bad, tmp_path / "graph_informative.txt", 2, b"\xc3\xa9")
    capsys.readouterr()
    code = main(["train", *dataset_args(synth_dir), "--graphs", str(bad), "--out-dir", str(tmp_path / "out")])
    one_error_line(capsys, code, f"error:data: {bad}:3: byte 0xc3 is not ascii")


def test_edge_list_source_that_is_a_directory_is_data_error(synth_dir, tmp_path, capsys):
    code = main(["train", *dataset_args(synth_dir), "--graphs", str(tmp_path), "--out-dir", str(tmp_path / "out")])
    one_error_line(capsys, code, f"error:data: cannot read {tmp_path}:")


@pytest.mark.parametrize("command", ["train", "cv"])
def test_non_utf8_byte_in_config_is_config_error(synth_dir, tmp_path, capsys, command):
    cfg = tmp_path / "cfg.json"
    cfg.write_bytes(b'{"train": {"max_epochs": 2},\n "metric": "pear\xffson"}')
    extra = ["--graphs", "informative"] if command == "train" else []
    code = main([command, *dataset_args(synth_dir), *extra, "--config", str(cfg), "--out-dir", str(tmp_path / "o")])
    one_error_line(capsys, code, f"error:config: {cfg}:2: byte 0xff is not utf-8")


@pytest.mark.parametrize("fault, message", [(b"\xe9", ":3: byte 0xe9 is not ascii"),
                                            (b"1" * 200000, ":3: unparseable value")],
                         ids=["non-ascii-byte", "oversized-cell"])
def test_unreadable_history_is_data_error(synth_dir, tmp_path, capsys, fault, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"train": {"max_epochs": 3, "hidden_width": 4}}))
    assert main(["train", *dataset_args(synth_dir), "--graphs", "informative", "--config", str(cfg),
                 "--out-dir", str(tmp_path)]) == 0
    bad = tmp_path / "bad.csv"
    write_with_byte(bad, tmp_path / "history.csv", 2, fault)
    capsys.readouterr()
    one_error_line(capsys, main(["rank-report", str(bad)]), f"error:data: {bad}{message}")


def test_hidden_width_beyond_memory_is_parameter_error(synth_dir, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"train": {"hidden_width": 10 ** 30}}))
    code = main(["train", *dataset_args(synth_dir), "--graphs", "informative", "--config", str(cfg),
                 "--out-dir", str(tmp_path / "out")])
    one_error_line(capsys, code, "error:parameter: hidden_width=1000000000000000000000000000000 needs")


INPUT_FAULTS = ("truncated-line", "swapped-cell", "huge-number", "negative-number", "nan", "duplicate-line",
                "empty-file", "non-utf8-byte")
FUZZ_CONFIG = {"train": {"max_epochs": 2, "hidden_width": 4, "learning_rate": 0.01, "dropout_p": 0.3,
                         "early_stop_patience": 5, "omega_warmup_epochs": 1, "seed": 3},
               "omega": [0.5, 0.5], "metric": "pearson"}
NUMBER = re.compile(rb"-?[0-9][0-9.e+-]*")


def mutate_input_file(data, kind, rng, separator):
    """``data`` with one fault of ``kind`` on a line that ``rng`` picks.

    A cell is a ``separator``-delimited part of a line.  In a config file
    (``separator`` ``b": "``) a number fault replaces one number token, and
    a huge number goes only into ``hidden_width``.
    """
    lines = data.split(b"\n")[:-1]
    k = int(rng.integers(len(lines)))
    cells = lines[k].split(separator)
    numbers = list(NUMBER.finditer(lines[k]))
    if kind == "truncated-line":
        lines[k] = lines[k][:int(rng.integers(len(lines[k]) + 1))]
    elif kind == "swapped-cell" and len(cells) > 1:
        a, b = rng.choice(len(cells), size=2, replace=False)
        cells[a], cells[b] = cells[b], cells[a]
        lines[k] = separator.join(cells)
    elif kind in ("huge-number", "negative-number", "nan") and separator == b",":
        cells[int(rng.integers(len(cells)))] = {"huge-number": b"1" + b"0" * int(rng.integers(2, 400)),
                                                "negative-number": b"-%d" % rng.integers(1, 100),
                                                "nan": b"nan"}[kind]
        lines[k] = separator.join(cells)
    elif kind == "huge-number":
        lines = [b' "hidden_width": %d,' % 10 ** int(rng.integers(15, 40)) if b'"hidden_width"' in line else line
                 for line in lines]
    elif kind in ("negative-number", "nan") and numbers:
        m = numbers[int(rng.integers(len(numbers)))]
        lines[k] = lines[k][:m.start()] + (b"-" + m.group() if kind == "negative-number" else b"NaN") + lines[k][m.end():]
    elif kind == "duplicate-line":
        lines.insert(int(rng.integers(len(lines) + 1)), lines[k])
    elif kind == "empty-file":
        return b""
    elif kind == "non-utf8-byte":
        cut = int(rng.integers(len(lines[k]) + 1))
        lines[k] = lines[k][:cut] + b"\xff" + lines[k][cut:]
    return b"\n".join(lines) + b"\n"


@pytest.mark.parametrize("kind", INPUT_FAULTS)
def test_seeded_dataset_and_config_faults_end_in_one_error_line(synth_dir, tmp_path, capsys, kind):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(FUZZ_CONFIG, indent=1) + "\n")
    targets = {name: synth_dir / name for name in ("features.csv", "meta.csv", "labels.csv")}
    targets["cfg.json"] = cfg
    rng = np.random.default_rng([12, INPUT_FAULTS.index(kind)])
    for name, path in targets.items():
        data = path.read_bytes()
        for case in range(5):
            mutant = tmp_path / f"mutant_{case}_{name}"
            mutant.write_bytes(mutate_input_file(data, kind, rng, b": " if name == "cfg.json" else b","))
            paths = {**targets, name: mutant}
            code = main(["train", "--features", str(paths["features.csv"]), "--meta", str(paths["meta.csv"]),
                         "--labels", str(paths["labels.csv"]), "--graphs", "informative,nuisance",
                         "--config", str(paths["cfg.json"]), "--out-dir", str(tmp_path / "out")])
            err = capsys.readouterr().err
            if code != 0 or err:
                assert code == 2 and err.startswith("error:") and err.count("\n") == 1, (name, case, err)


def pgcn_subprocess(args, cwd, **env):
    """Run ``python -m pgcn`` on this checkout with default warning filters and ``env`` added."""
    src = os.path.dirname(os.path.dirname(pgcn.__file__))
    base = {k: v for k, v in os.environ.items() if k != "PYTHONWARNINGS"}
    base["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "pgcn", *args], cwd=cwd, capture_output=True, text=True,
                          env={**base, **env})


@pytest.mark.parametrize("argv", [
    ["synth", "--config", "cfg.json"],
    ["gradcheck", "--count", "1", "--config", "cfg.json"],
    ["rank-report", "history.csv", "--config", "cfg.json"],
    ["rank-report", "history.csv", "--seed", "1"],
    ["gradcheck", "--count", "1", "--eps", "1e-3"],
    ["gradcheck", "--count", "1", "--l2", "0"],
])
def test_flags_a_command_does_not_read_are_rejected(argv, capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # a command that ran anyway would write here
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_warnings_on_the_way_to_an_error_are_not_printed(tmp_path):
    data = tmp_path / "data"
    assert main(["synth", "--n", "40", "--out-dir", str(data)]) == 0
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"train": {"learning_rate": 1e300, "max_epochs": 5, "early_stop_patience": 2}}))
    out = pgcn_subprocess(["train", *dataset_args(data), "--graphs", "informative", "--config", str(cfg),
                           "--out-dir", str(tmp_path / "out")], tmp_path)
    assert out.returncode == 2
    assert out.stderr.count("\n") == 1 and out.stderr.startswith("error:parameter:"), out.stderr


def test_warnings_of_a_run_that_succeeds_are_printed_after_it(monkeypatch, capsys):
    def noisy(args):
        warnings.warn("held back until the command ends", UserWarning)
        print("done")
        return 0

    monkeypatch.setattr(pgcn.cli, "cmd_synth", noisy)
    with pytest.warns(UserWarning, match="held back"):
        assert main(["synth"]) == 0
    assert capsys.readouterr().out == "done\n"


def test_warnings_of_run_threads_are_printed_after_the_command(synth_dir, tmp_path, monkeypatch):
    original = pgcn.crossval.train
    shown_during_run = []

    def overflowing(*args):
        if threading.current_thread() is not threading.main_thread():
            np.float64(1e308) * np.float64(10.0)  # numpy's overflow RuntimeWarning, raised in a helper thread
            shown_during_run.append(len(shown))
        return original(*args)

    monkeypatch.setattr(pgcn.crossval, "train", overflowing)
    threads = force_run_threads(monkeypatch, 3)
    cfg = TestCv().write_config(tmp_path)
    with pytest.warns(RuntimeWarning, match="overflow") as shown:
        assert main(["cv", *dataset_args(synth_dir), "--config", str(cfg), "--out-dir", str(tmp_path / "cv")]) == 0
    assert len(set(threads)) == 3
    assert shown_during_run and set(shown_during_run) == {0}  # held back while the command ran


def test_report_bytes_do_not_depend_on_blas_threads(tmp_path):
    # wide enough for the threaded BLAS kernels; history cells may move in their last bit across thread counts
    dataset, _, _ = pgcn.synth_generate(1000, 64, seed=5, informative_strength=1.0)
    pgcn.write_dataset(dataset, tmp_path / "data")
    cfg = tmp_path / "experiment.json"
    cfg.write_text(json.dumps({
        "arms": [{"name": "both", "graph_sources": ["informative", "nuisance"]},
                 {"name": "solo", "graph_sources": ["informative"]}],
        "train": {"max_epochs": 6, "hidden_width": 16, "early_stop_patience": 6, "seed": 3},
        "repeats": 2,
    }))
    reports = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        run = pgcn_subprocess(["cv", *dataset_args(tmp_path / "data"), "--config", str(cfg), "--out-dir", str(out)],
                              tmp_path, OPENBLAS_NUM_THREADS=threads)
        assert run.returncode == 0, run.stderr
        reports.append((out / "report.txt").read_bytes())
    assert reports[0] == reports[1]
