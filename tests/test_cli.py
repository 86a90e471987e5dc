"""Command-line behavior: exit codes, outputs, file artifacts."""

import json

import pytest

from proctriage.cli import main
from proctriage.features import load_dataset

FIX = "tests/fixtures"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- parse / featurize ----------------------------------------------------------

def test_featurize_sandbox(capsys):
    code, out, err = run(capsys, "featurize", "--in", f"{FIX}/sandbox_host.txt")
    assert code == 0
    assert out.strip() == "40,4,10.0"
    assert err == ""


def test_featurize_safe(capsys):
    code, out, _ = run(capsys, "featurize", "--in", f"{FIX}/safe_host.txt")
    assert code == 0
    assert out.strip() == "220,1,220.0"


def test_featurize_json_out(capsys, tmp_path):
    out_path = tmp_path / "features.json"
    code, _, _ = run(capsys, "featurize", "--in", f"{FIX}/sandbox_host.txt",
                     "--out", str(out_path))
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert doc == {"process_count": 40, "user_count": 4, "ratio": 10.0}


def test_featurize_explicit_format(capsys):
    code, out, _ = run(capsys, "featurize", "--in", f"{FIX}/sandbox_host.txt",
                       "--format", "tasklist")
    assert code == 0
    assert out.strip() == "40,4,10.0"


def test_parse_table(capsys):
    code, out, _ = run(capsys, "parse", "--in", f"{FIX}/sandbox_host.txt")
    assert code == 0
    assert "41 entries, 0 skipped rows" in out
    assert "smss.exe" in out


def test_parse_json_out(capsys, tmp_path):
    out_path = tmp_path / "parsed.json"
    code, _, _ = run(capsys, "parse", "--in", f"{FIX}/safe_host.txt", "--out", str(out_path))
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert doc["format"] == "tasklist_tabular"
    assert len(doc["entries"]) == 221


def test_parse_missing_file_is_error(capsys):
    code, _, err = run(capsys, "parse", "--in", "no/such/file.txt")
    assert code == 1
    assert "FileNotFoundError" in err


def test_garbage_listing_is_error(capsys, tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("no header here\n")
    code, _, err = run(capsys, "featurize", "--in", str(bad))
    assert code == 1
    assert "UnrecognizedFormat" in err


def test_usage_error_is_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


@pytest.mark.parametrize("listen", ["127.0.0.1:abc", "127.0.0.1:99999", "127.0.0.1:"])
def test_bad_listen_port_is_usage_error(capsys, tmp_path, listen):
    with pytest.raises(SystemExit) as exc:
        main(["serve", "--data-dir", str(tmp_path), "--listen", listen])
    assert exc.value.code == 2
    assert "port must be an integer from 0 to 65535" in capsys.readouterr().err


# -- datagen / stats / split ------------------------------------------------------

@pytest.fixture(scope="module")
def dataset_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "dataset.csv"
    code = main(["datagen", "--seed", "7", "--out", str(path)])
    assert code == 0
    return path


def test_datagen_writes_dataset(capsys, dataset_csv):
    data = load_dataset(dataset_csv)
    assert len(data) == 384
    assert data.class_counts() == (324, 60)


def test_datagen_custom_sizes_stdout(capsys):
    code, out, _ = run(capsys, "datagen", "--n-safe", "3", "--n-unsafe", "2",
                       "--seed", "1")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "process_count,user_count,ratio,label,origin"
    assert len(lines) == 6


def test_datagen_deterministic(capsys, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    run(capsys, "datagen", "--seed", "9", "--out", str(a))
    run(capsys, "datagen", "--seed", "9", "--out", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_stats_table(capsys, dataset_csv):
    code, out, _ = run(capsys, "stats", "--in", str(dataset_csv))
    assert code == 0
    assert "All Data (384 samples)" in out
    assert "Safe (324 samples)" in out
    assert "Unsafe (60 samples)" in out
    assert "Process Count" in out


def test_stats_json(capsys, dataset_csv, tmp_path):
    out_path = tmp_path / "stats.json"
    code, _, _ = run(capsys, "stats", "--in", str(dataset_csv), "--out", str(out_path))
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert doc["all"]["n"] == 384
    assert doc["safe"]["n"] == 324
    assert doc["unsafe"]["n"] == 60


def test_split_writes_both_sides(capsys, dataset_csv, tmp_path):
    out_dir = tmp_path / "splits"
    code, out, _ = run(capsys, "split", "--in", str(dataset_csv),
                       "--seed", "3", "--out", str(out_dir))
    assert code == 0
    train = load_dataset(out_dir / "train.csv")
    test = load_dataset(out_dir / "test.csv")
    assert (len(train), len(test)) == (307, 77)
    assert "train: 307 samples" in out


def test_split_summary_only(capsys, dataset_csv):
    code, out, _ = run(capsys, "split", "--in", str(dataset_csv), "--train-fraction", "0.5")
    assert code == 0
    assert "train: 192 samples" in out
    assert "test:  192 samples" in out


def test_stats_malformed_csv_is_error(capsys, tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("wrong,header\n1,2\n")
    code, _, err = run(capsys, "stats", "--in", str(bad))
    assert code == 1
    assert "MalformedDatasetFile" in err


@pytest.mark.parametrize("command", ["stats", "split", "train"])
def test_a_count_too_big_for_its_ratio_is_a_malformed_line(capsys, tmp_path, command):
    # process_count / user_count overflows a float: the line is refused, not a traceback
    bad = tmp_path / "bad.csv"
    bad.write_text("process_count,user_count,ratio,label,origin\n"
                   "40,4,10.0,1,\n" + "9" * 401 + ",1,1.0,0,\n")
    code, out, err = run(capsys, command, "--in", str(bad), "--out", str(tmp_path / "out"))
    assert (code, out) == (1, "")
    assert err == "MalformedDatasetFile: line 3: integer division result too large for a float\n"


@pytest.mark.parametrize("argv, message", [
    ("datagen --n-safe -1", "negative sample count"),
    ("datagen --n-safe 0 --n-unsafe 0", "nothing to generate"),
    ("split --in {data} --train-fraction 1.5", "train_fraction must be in (0, 1)"),
    ("train --in {data} --max-depth 0 --out {out}", "max_depth must be None or an integer >= 1"),
    ("train --in {data} --model ann --epochs 0 --out {out}", "epochs must be >= 1"),
    ("train --in {data} --model ann --lr -1 --out {out}", "learning_rate must be >= 0"),
    ("train --in {data} --model ann --lr nan --out {out}", "learning_rate must be finite"),
    ("train --in {data} --model ann --lr inf --out {out}", "learning_rate must be finite"),
], ids=["n-safe", "no-samples", "train-fraction", "max-depth", "epochs", "lr", "lr-nan",
        "lr-inf"])
def test_out_of_range_option_is_usage_error(capsys, dataset_csv, tmp_path, argv, message):
    out_path = tmp_path / "model.json"
    code, out, err = run(capsys, *argv.format(data=dataset_csv, out=out_path).split())
    assert (code, out) == (2, "")
    assert err == f"proctriage {argv.split()[0]}: error: {message}\n"
    assert not out_path.exists()


# -- train / evaluate / classify -----------------------------------------------------

def test_train_dtree_deterministic(capsys, dataset_csv, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    code, out, _ = run(capsys, "train", "--in", str(dataset_csv), "--model", "dtree",
                       "--max-depth", "5", "--out", str(a))
    assert code == 0
    assert "Accuracy:" in out
    run(capsys, "train", "--in", str(dataset_csv), "--model", "dtree",
        "--max-depth", "5", "--out", str(b))
    assert a.read_bytes() == b.read_bytes()
    doc = json.loads(a.read_text())
    assert doc["version"] == "dtree-v1"


def test_train_ann_writes_history(capsys, dataset_csv, tmp_path):
    out = tmp_path / "net.json"
    code, stdout, _ = run(capsys, "train", "--in", str(dataset_csv), "--model", "ann",
                          "--epochs", "30", "--out", str(out))
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["version"] == "ann-v1"
    assert doc["scaler"] is not None
    history = (tmp_path / "net.history.csv").read_text().splitlines()
    assert history[0] == "epoch,bce,mse"
    assert len(history) == 31
    assert history[1].startswith("1,")


def test_train_ann_deterministic(capsys, dataset_csv, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run(capsys, "train", "--in", str(dataset_csv), "--model", "ann",
        "--epochs", "10", "--out", str(a))
    run(capsys, "train", "--in", str(dataset_csv), "--model", "ann",
        "--epochs", "10", "--out", str(b))
    assert a.read_bytes() == b.read_bytes()


@pytest.fixture(scope="module")
def tree_model(tmp_path_factory, dataset_csv):
    path = tmp_path_factory.mktemp("models") / "tree.json"
    assert main(["train", "--in", str(dataset_csv), "--max-depth", "5",
                 "--out", str(path)]) == 0
    return path


def test_evaluate_model_on_dataset(capsys, tree_model, dataset_csv):
    code, out, _ = run(capsys, "evaluate", str(tree_model), "--in", str(dataset_csv))
    assert code == 0
    assert "Accuracy:" in out
    assert "Safe" in out and "Unsafe" in out


def test_evaluate_report_json(capsys, tree_model, dataset_csv, tmp_path):
    out_path = tmp_path / "report.json"
    code, _, _ = run(capsys, "evaluate", str(tree_model), "--in", str(dataset_csv),
                     "--out", str(out_path))
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert set(doc) >= {"confusion", "per_class", "macro_avg", "weighted_avg", "accuracy"}


def test_evaluate_prediction_files(capsys, tmp_path):
    pred = tmp_path / "pred.txt"
    actual = tmp_path / "actual.txt"
    pred.write_text("0\n1\n1\n0\n")
    actual.write_text("0\n1\n0\n0\n")
    code, out, _ = run(capsys, "evaluate", "--pred", str(pred), "--actual", str(actual))
    assert code == 0
    assert "Accuracy: 75.00%" in out


def test_evaluate_mismatched_files_is_error(capsys, tmp_path):
    pred = tmp_path / "pred.txt"
    actual = tmp_path / "actual.txt"
    pred.write_text("0\n1\n")
    actual.write_text("0\n")
    code, _, err = run(capsys, "evaluate", "--pred", str(pred), "--actual", str(actual))
    assert code == 1
    assert "LengthMismatch" in err


@pytest.mark.parametrize("argv, message", [
    ("--pred {labels}", "--pred and --actual go together"),
    ("--actual {labels}", "--pred and --actual go together"),
    ("{model}", "need MODEL and --in DATASET, or --pred/--actual"),
    ("--in {data}", "need MODEL and --in DATASET, or --pred/--actual"),
], ids=["pred-only", "actual-only", "model-only", "in-only"])
def test_evaluate_without_its_pair_of_inputs_is_error(capsys, tree_model, dataset_csv,
                                                      tmp_path, argv, message):
    labels = tmp_path / "labels.txt"
    labels.write_text("0\n1\n")
    code, out, err = run(capsys, "evaluate",
                         *argv.format(labels=labels, model=tree_model, data=dataset_csv).split())
    assert (code, out) == (1, "")
    assert err == f"MalformedDatasetFile: line 0: {message}\n"


def test_evaluate_bad_label_file_is_error(capsys, tmp_path):
    pred = tmp_path / "pred.txt"
    actual = tmp_path / "actual.txt"
    pred.write_text("0\ntwo\n")
    actual.write_text("0\n1\n")
    code, _, err = run(capsys, "evaluate", "--pred", str(pred), "--actual", str(actual))
    assert code == 1
    assert "MalformedDatasetFile" in err


# the published matrix (66/1/3/7) as (actual, predicted, count, probability) runs
_GOLDEN_CELLS = [(0, 0, 66, "0.1"), (0, 1, 1, "0.6"), (1, 0, 3, "0.4"), (1, 1, 7, "0.9")]
_GOLDEN_TEXT = """\
Metrics            Precision  Recall  F1-score  Support
Safe                    0.96    0.99      0.97       67
Unsafe                  0.88    0.70      0.78       10
Macro Average           0.92    0.84      0.87       77
Weighted Average        0.95    0.95      0.95       77

Accuracy: 94.81%
Mean Absolute Error: 0.1260
Mean Squared Error: 0.0282
"""
_GOLDEN_DOC = {
    "confusion": [[66, 1], [3, 7]],
    "per_class": {
        "safe": {"precision": 0.9565217391304348, "recall": 0.9850746268656716,
                 "f1": 0.9705882352941176, "support": 67},
        "unsafe": {"precision": 0.875, "recall": 0.7, "f1": 0.7777777777777777,
                   "support": 10},
    },
    "macro_avg": {"precision": 0.9157608695652174, "recall": 0.8425373134328358,
                  "f1": 0.8741830065359477, "support": 77},
    "weighted_avg": {"precision": 0.9459345002823263, "recall": 0.948051948051948,
                     "f1": 0.9455479161361514, "support": 77},
    "accuracy": 0.948051948051948,
    "mae": 0.12597402597402593,
    "mse": 0.02818181818181817,
}


def test_evaluate_golden_report(capsys, tmp_path):
    """Stdout and the --out file, byte for byte, on the published matrix."""
    columns = {"pred": [], "actual": [], "probs": []}
    for a, p, n, prob in _GOLDEN_CELLS:
        columns["actual"] += [str(a)] * n
        columns["pred"] += [str(p)] * n
        columns["probs"] += [prob] * n
    argv = ["evaluate"]
    for name, lines in columns.items():
        (tmp_path / name).write_text("\n".join(lines) + "\n")
        argv += [f"--{name}", str(tmp_path / name)]

    assert run(capsys, *argv) == (0, _GOLDEN_TEXT, "")
    out_path = tmp_path / "report.json"
    assert run(capsys, *argv, "--out", str(out_path)) == (0, "", "")
    assert out_path.read_text() == json.dumps(_GOLDEN_DOC, indent=2) + "\n"


@pytest.mark.parametrize("value", ["nan", "inf", "5", "-1"])
def test_evaluate_probability_outside_0_to_1_is_error(capsys, tmp_path, value):
    for name, text in (("pred", "0\n1\n"), ("actual", "0\n1\n"), ("probs", f"0.2\n{value}\n")):
        (tmp_path / name).write_text(text)
    out_path = tmp_path / "report.json"
    code, out, err = run(capsys, "evaluate", "--pred", str(tmp_path / "pred"),
                         "--actual", str(tmp_path / "actual"),
                         "--probs", str(tmp_path / "probs"), "--out", str(out_path))
    assert (code, out) == (1, "")
    assert err == f"MalformedDatasetFile: line 2: not a number from 0 to 1: {value!r}\n"
    assert not out_path.exists()


def test_classify_human_line(capsys, tree_model):
    code, out, _ = run(capsys, "classify", str(tree_model),
                       "--in", f"{FIX}/sandbox_host.txt")
    assert code == 0
    assert out.startswith(("safe ", "sandbox "))
    assert "features=40,4,10.0" in out


def test_classify_json(capsys, tree_model, tmp_path):
    out_path = tmp_path / "verdict.json"
    code, _, _ = run(capsys, "classify", str(tree_model),
                     "--in", f"{FIX}/safe_host.txt", "--out", str(out_path))
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert doc["verdict"] in ("safe", "sandbox")
    assert doc["features"]["process_count"] == 220


def test_classify_bad_model_file_is_error(capsys, tmp_path):
    bad = tmp_path / "model.json"
    bad.write_text('{"version": "mystery"}')
    code, _, err = run(capsys, "classify", str(bad), "--in", f"{FIX}/safe_host.txt")
    assert code == 1
    assert "ModelFormatError" in err


def test_classify_refuses_a_number_too_big_for_int(capsys, tree_model, tmp_path):
    doc = json.loads(tree_model.read_text())
    doc["root"]["feature_index"] = float("inf")
    bad = tmp_path / "tree.json"
    # 1e999 parses to inf; json reads no integer of more than 4,300 digits
    for number in ("1e999", "1" * 5000):
        bad.write_text(json.dumps(doc).replace("Infinity", number))
        code, out, err = run(capsys, "classify", str(bad), "--in", f"{FIX}/safe_host.txt")
        assert (code, out) == (1, ""), number
        assert err.startswith("ModelFormatError: "), number


@pytest.mark.parametrize("command", [
    "parse --in {bad}", "featurize --in {bad}", "stats --in {bad}",
    "classify {bad} --in tests/fixtures/safe_host.txt",
])
def test_non_utf8_input_is_error(capsys, tmp_path, command):
    bad = tmp_path / "latin1"
    bad.write_bytes("PID\tNAME\n1\tcaf\xe9.exe\n".encode("latin-1"))
    code, _, err = run(capsys, *command.format(bad=bad).split())
    assert code == 1
    assert err.startswith("UnicodeDecodeError: ")


# -- export-tree -------------------------------------------------------------------

def test_export_tree_ascii(capsys, tree_model):
    code, out, _ = run(capsys, "export-tree", str(tree_model))
    assert code == 0
    assert "if " in out and "class:" in out


def test_export_tree_dot(capsys, tree_model, tmp_path):
    out_path = tmp_path / "tree.dot"
    code, _, _ = run(capsys, "export-tree", str(tree_model), "--format", "dot",
                     "--out", str(out_path))
    assert code == 0
    dot = out_path.read_text()
    assert dot.count("digraph") == 1
    assert "->" in dot


def test_train_stops_a_tree_at_the_depth_it_can_load(capsys, tmp_path):
    # alternating labels along the counts: each split peels off about one sample,
    # so an unbounded tree would run far past the depth a model document may have
    rows = "".join(f"{pc},1,{pc}.0,{pc % 2},\n" for pc in range(1, 1301))
    data, model = tmp_path / "alternating.csv", tmp_path / "tree.json"
    data.write_text("process_count,user_count,ratio,label,origin\n" + rows)
    code, out, err = run(capsys, "train", "--in", str(data), "--out", str(model))
    assert (code, err) == (0, "")
    assert "Accuracy:" in out
    for style in ("ascii", "dot"):
        code, out, err = run(capsys, "export-tree", str(model), "--format", style)
        assert (code, err) == (0, "")


def test_export_tree_rejects_ann(capsys, dataset_csv, tmp_path):
    net = tmp_path / "net.json"
    main(["train", "--in", str(dataset_csv), "--model", "ann", "--epochs", "5",
          "--out", str(net)])
    capsys.readouterr()
    code, _, err = run(capsys, "export-tree", str(net))
    assert code == 1
    assert "ModelFormatError" in err


@pytest.mark.parametrize("names", [["x"], "abc"], ids=["one-name", "string"])
def test_export_tree_refuses_foreign_feature_names(capsys, tree_model, tmp_path, names):
    doc = json.loads(tree_model.read_text())
    doc["feature_names"] = names
    bad = tmp_path / "tree.json"
    bad.write_text(json.dumps(doc))
    code, out, err = run(capsys, "export-tree", str(bad))
    assert (code, out) == (1, "")
    assert err.startswith("ModelFormatError: ")


# -- serve ---------------------------------------------------------------------------

def test_serve_bad_model_file_is_error(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(capsys, "serve", str(bad), "--data-dir", str(tmp_path / "data"),
                       "--listen", "127.0.0.1:0")
    assert code == 1
    assert err.startswith("ModelFormatError: ")
    assert "listening" not in err
