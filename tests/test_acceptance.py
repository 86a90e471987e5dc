"""Acceptance gate: eight checks, one printed PASS/FAIL line each.

Each test prints its verdict through the `announce` fixture so the line
is visible in normal pytest output, then asserts so the suite fails
loudly too.
"""

import json
import signal
import statistics
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

import numpy as np
import pytest

from proctriage.ann import (
    AnnConfig,
    ann_from_dict,
    ann_to_dict,
    gradient_check,
    init_network,
    predict_ann,
    train_ann,
)
from proctriage.datagen import GenConfig, generate_dataset, generate_process_list
from proctriage.dtree import (
    TreeConfig,
    best_split,
    gini,
    predict_tree,
    train_tree,
    tree_from_dict,
    tree_to_dict,
)
from proctriage.features import (
    FeatureVector,
    Label,
    LabeledDataset,
    LabeledSample,
    ScalerParams,
    dataset_from_csv,
    dataset_to_csv,
    featurize,
    fit_scaler,
    split_dataset,
)
from proctriage.metrics import (
    accuracy,
    aggregate_metrics,
    class_metrics,
)
from proctriage.proclist import parse_process_list


def test_criterion_1_metric_oracle(announce):
    """Published-report arithmetic reproduced to 2 decimal places."""
    cm = ((66, 1), (3, 7))
    per = class_metrics(cm)
    macro, weighted = aggregate_metrics(per)
    acc = accuracy(cm)

    def r2(m):
        return (round(m["precision"], 2), round(m["recall"], 2), round(m["f1"], 2), m["support"])

    ok = (
        r2(per[Label.TARGET]) == (0.96, 0.99, 0.97, 67)
        and r2(per[Label.SANDBOX]) == (0.88, 0.70, 0.78, 10)
        and r2(macro) == (0.92, 0.84, 0.87, 77)
        and r2(weighted) == (0.95, 0.95, 0.95, 77)
        and abs(acc * 100 - 94.80) <= 0.01
    )
    assert announce("criterion 1: metric oracle on the reference confusion matrix", ok)


def test_criterion_2_feature_oracle(announce, sandbox_host_text, safe_host_text):
    """The two canned listings featurize to their known triples."""
    v_sandbox = featurize(parse_process_list(sandbox_host_text))
    v_safe = featurize(parse_process_list(safe_host_text))
    ok = (
        (v_sandbox.process_count, v_sandbox.user_count, v_sandbox.ratio) == (40, 4, 10.0)
        and v_safe.user_count == 1
        and v_safe.ratio == float(v_safe.process_count)
    )
    assert announce("criterion 2: feature oracle on the canned listings", ok)


def test_criterion_3_model_quality_on_synthetic_data(announce):
    """Median accuracy/recall bars over ten seeded generate/split/train runs."""
    t0 = time.perf_counter()
    tree_accs, tree_recalls, ann_accs = [], [], []
    for seed in range(10):
        data = generate_dataset(GenConfig(seed=seed))
        train, test = split_dataset(data, 0.8, seed=seed, stratified=True)
        actual = [s.label for s in test]

        tree = train_tree(train, TreeConfig(max_depth=5, min_samples_split=10))
        preds = [predict_tree(tree, s.features) for s in test]
        tree_accs.append(sum(p == a for p, a in zip(preds, actual)) / len(actual))
        sandbox_total = sum(1 for a in actual if a == Label.SANDBOX)
        sandbox_hits = sum(1 for p, a in zip(preds, actual)
                           if a == p == Label.SANDBOX)
        tree_recalls.append(sandbox_hits / sandbox_total)

        ann, _ = train_ann(train, AnnConfig(learning_rate=3.0, seed=seed))
        apreds = [predict_ann(ann, s.features)[0] for s in test]
        ann_accs.append(sum(p == a for p, a in zip(apreds, actual)) / len(actual))
    elapsed = time.perf_counter() - t0

    med_acc = statistics.median(tree_accs)
    med_recall = statistics.median(tree_recalls)
    med_ann = statistics.median(ann_accs)
    ok = med_acc >= 0.90 and med_recall >= 0.60 and med_ann >= 0.85 and elapsed < 10.0
    assert announce(
        f"criterion 3: synthetic-data quality bars (tree acc {med_acc:.3f}, "
        f"sandbox recall {med_recall:.3f}, ann acc {med_ann:.3f}, {elapsed:.1f}s)",
        ok,
    )


def test_criterion_4_training_dynamics(announce):
    """Loss halves by the last epoch; small steps never raise BCE."""
    data = generate_dataset(GenConfig(seed=1337))
    train, _ = split_dataset(data, 0.8, seed=1337)

    _, history = train_ann(train, AnnConfig(seed=0))
    halved = history.mse[-1] <= 0.5 * history.mse[0]

    _, slow = train_ann(train, AnnConfig(learning_rate=1e-3, seed=0))
    monotone = all(slow.bce[i + 10] <= slow.bce[i] + 1e-9
                   for i in range(len(slow.bce) - 10))

    ok = halved and monotone
    assert announce(
        f"criterion 4: training dynamics (mse ratio "
        f"{history.mse[-1] / history.mse[0]:.3f}, 10-epoch windows monotone: "
        f"{monotone})",
        ok,
    )


def test_criterion_5_gradient_correctness(announce):
    """Backprop agrees with central finite differences on 20 seeded pairs."""
    rng = np.random.default_rng(2024)
    worst = 0.0
    for i in range(20):
        model = init_network(AnnConfig(seed=i))
        model.scaler = ScalerParams(mins=(9.0, 1.0, 2.1), maxs=(305.0, 17.0, 305.0))
        pc = int(rng.integers(9, 306))
        uc = int(rng.integers(1, min(17, pc) + 1))
        sample = LabeledSample(FeatureVector.from_counts(pc, uc),
                               Label(int(rng.integers(0, 2))))
        worst = max(worst, gradient_check(model, sample))
    ok = worst < 1e-4
    assert announce(f"criterion 5: gradient check (max relative error {worst:.2e})", ok)


def _brute_gini(c0, c1):
    n = c0 + c1
    p0 = c0 / n
    p1 = c1 / n
    return 1.0 - (p0 * p0 + p1 * p1)


def _brute_force_split(samples):
    """Plain nested-loop reference: every feature, every midpoint."""
    xs = [[float(s.features.process_count), float(s.features.user_count),
           float(s.features.ratio)] for s in samples]
    ys = [int(s.label) for s in samples]
    n = len(ys)
    parent = _brute_gini(ys.count(0), ys.count(1))
    best = None
    for f in range(3):
        vals = sorted(set(row[f] for row in xs))
        for lo, hi in zip(vals, vals[1:]):
            t = (lo + hi) / 2.0
            left = [y for row, y in zip(xs, ys) if row[f] <= t]
            right = [y for row, y in zip(xs, ys) if row[f] > t]
            nl, nr = len(left), len(right)
            gl = _brute_gini(nl - sum(left), sum(left))
            gr = _brute_gini(nr - sum(right), sum(right))
            weighted = (nl / n) * gl + (nr / n) * gr
            decrease = parent - weighted
            if decrease > 0.0 and (best is None or decrease > best[2]):
                best = (f, t, decrease)
    return best


def test_criterion_6_split_search_matches_brute_force(announce):
    """The vectorized split search equals the reference on 50 small sets."""
    t0 = time.perf_counter()
    mismatches = []
    for trial in range(50):
        rng = np.random.default_rng(1000 + trial)
        n = int(rng.integers(2, 13))
        samples = []
        for _ in range(n):
            pc = int(rng.integers(1, 301))
            uc = int(rng.integers(1, min(20, pc) + 1))
            samples.append(LabeledSample(FeatureVector.from_counts(pc, uc),
                                         Label(int(rng.integers(0, 2)))))
        lib = best_split(samples)
        ref = _brute_force_split(samples)
        if (lib is None) != (ref is None):
            mismatches.append(trial)
        elif lib is not None and (lib[0] != ref[0] or lib[1] != ref[1]
                                  or abs(lib[2] - ref[2]) > 1e-12):
            mismatches.append(trial)
    elapsed = time.perf_counter() - t0
    ok = not mismatches and elapsed < 5.0
    assert announce(
        f"criterion 6: split search vs brute force (50 trials, "
        f"{len(mismatches)} mismatches, {elapsed:.1f}s)",
        ok,
    )


def test_criterion_7_property_suites(announce):
    """Seeded property sweeps: scaler range, gini, split partition, round-trips."""
    rng = np.random.default_rng(99)
    ok = True

    # scaler outputs stay inside the unit cube, even for out-of-range probes
    for _ in range(200):
        n = int(rng.integers(2, 12))
        rows = []
        for _ in range(n):
            pc = int(rng.integers(1, 400))
            uc = int(rng.integers(1, min(25, pc) + 1))
            rows.append(LabeledSample(FeatureVector.from_counts(pc, uc), Label.TARGET))
        params = fit_scaler(LabeledDataset(tuple(rows)))
        probe_pc = int(rng.integers(1, 600))
        probe_uc = int(rng.integers(1, min(30, probe_pc) + 1))
        out = params.transform(FeatureVector.from_counts(probe_pc, probe_uc).as_array())
        ok = ok and bool(np.all(out >= 0.0) and np.all(out <= 1.0))

    # gini: symmetric, pure -> 0, balanced -> 0.5
    for _ in range(200):
        a, b = int(rng.integers(0, 300)), int(rng.integers(0, 300))
        if a + b == 0:
            continue
        ok = ok and gini((a, b)) == gini((b, a))
    ok = ok and gini((17, 0)) == 0.0 and gini((0, 4)) == 0.0 and gini((9, 9)) == 0.5

    # split_dataset: exact partition at the documented floor sizes
    data = generate_dataset(GenConfig(seed=99))
    train, test = split_dataset(data, 0.8, seed=99)
    ok = ok and (len(train), len(test)) == (307, 77)
    merged = sorted(id(s) for s in (*train.samples, *test.samples))
    ok = ok and merged == sorted(id(s) for s in data.samples)

    # CSV round-trip is lossless
    small = LabeledDataset(data.samples[:25])
    ok = ok and dataset_from_csv(dataset_to_csv(small)).samples == small.samples

    # both model schemas round-trip losslessly
    tr, _ = split_dataset(data, 0.8, seed=1)
    tree = train_tree(tr, TreeConfig(max_depth=4))
    ok = ok and tree_to_dict(tree_from_dict(json.loads(
        json.dumps(tree_to_dict(tree))))) == tree_to_dict(tree)
    ann, _ = train_ann(tr, AnnConfig(epochs=5, seed=3))
    doc = json.loads(json.dumps(ann_to_dict(ann)))
    again = ann_from_dict(doc)
    ok = ok and all(np.array_equal(x, y)
                    for x, y in zip(again.parameters(), ann.parameters()))
    ok = ok and again.scaler == ann.scaler

    assert announce("criterion 7: property suites (scaler, gini, split, round-trips)", ok)


# -- criterion 8: real process restart ------------------------------------------


def _http(base, method, path, body=None, content_type="text/plain"):
    data = body.encode("utf-8") if isinstance(body, str) else body
    headers = {"Content-Type": content_type} if data is not None else {}
    req = urllib.request.Request(base + path, data=data, headers=headers, method=method)
    try:
        with urllib.request.urlopen(req, timeout=10) as resp:
            return resp.status, json.loads(resp.read().decode("utf-8"))
    except urllib.error.HTTPError as err:
        return err.code, json.loads(err.read().decode("utf-8"))


def _start_server(data_dir, model_path=None):
    """Launch the CLI server on a free port; return (process, base_url)."""
    argv = [sys.executable, "-m", "proctriage.cli", "serve"]
    if model_path is not None:
        argv.append(str(model_path))
    argv += ["--data-dir", str(data_dir), "--listen", "127.0.0.1:0"]
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE,
                            stderr=subprocess.STDOUT, text=True)
    banner = {}

    def read_banner():
        banner["line"] = proc.stdout.readline()

    reader = threading.Thread(target=read_banner, daemon=True)
    reader.start()
    reader.join(timeout=30)
    line = banner.get("line", "")
    if "listening on http://" not in line:
        proc.kill()
        raise RuntimeError(f"server did not start: {line!r}")
    base = line.strip().split("listening on ", 1)[1]
    return proc, base


def _stop_server(proc):
    proc.send_signal(signal.SIGINT)
    try:
        proc.wait(timeout=15)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait(timeout=5)


def test_criterion_8_service_durability(announce, tmp_path):
    """Submissions survive a real process restart; verdicts stay consistent."""
    # a model to keep active across both server lives
    data = generate_dataset(GenConfig(n_safe=60, n_unsafe=30, seed=5))
    tree = train_tree(data, TreeConfig(max_depth=4))
    model_path = tmp_path / "model.json"
    model_path.write_text(json.dumps(tree_to_dict(tree)))
    data_dir = tmp_path / "served"

    fixtures = [generate_process_list(Label.TARGET, seed=s) for s in range(6)]
    fixtures += [generate_process_list(Label.SANDBOX, seed=s) for s in range(6)]
    fixtures += [
        "complete garbage\n", "PID NAME but no rows", "", "\x00\x01 binaryish",
        "just words here", "PID\tPPID\n1\t0\n", "----", "header? no.",
    ]
    assert len(fixtures) == 20

    acked = {}
    verdicts = {}
    ok = True
    proc, base = _start_server(data_dir, model_path)
    try:
        for text in fixtures:
            status, doc = _http(base, "POST", "/v1/submit", text)
            if status == 400:       # empty body is rejected, never acknowledged
                ok = ok and text.strip() == ""
                continue
            ok = ok and status == 200 and bool(doc["id"])
            acked[doc["id"]] = text
            verdicts[doc["id"]] = doc["verdict"]
            # stateless classify agrees with the stored verdict
            status, cls = _http(base, "POST", "/v1/classify", text)
            ok = ok and status == 200 and cls["verdict"] == doc["verdict"]
    finally:
        _stop_server(proc)
    ok = ok and len(acked) == 19 and proc.returncode == 0

    # second life: same data dir, model restored from disk, nothing re-sent
    proc, base = _start_server(data_dir)
    try:
        status, listed = _http(base, "GET", "/v1/samples")
        ok = ok and status == 200
        by_id = {rec["id"]: rec for rec in listed}
        ok = ok and set(by_id) == set(acked)
        for rid, text in acked.items():
            ok = ok and by_id[rid]["raw_text"] == text
        status, info = _http(base, "GET", "/v1/model")
        ok = ok and info.get("active") is True
        for rid, text in acked.items():
            if not text.strip():
                continue
            status, cls = _http(base, "POST", "/v1/classify", text)
            ok = ok and status == 200 and cls["verdict"] == verdicts[rid]
    finally:
        _stop_server(proc)
    ok = ok and proc.returncode == 0

    assert announce(
        f"criterion 8: durability across a process restart "
        f"({len(acked)} records verified)",
        ok,
    )
