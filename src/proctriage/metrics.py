"""Confusion matrices and the usual imbalanced-classification arithmetic.

Per-class precision/recall/F1/support with macro and weighted averages,
overall accuracy, and MAE/MSE over predicted probabilities, all on plain
values: a confusion matrix is the pair of count rows ((tt, ts), (st, ss))
indexed (actual, predicted), a metric row is a dict, and the report is
the JSON document ``evaluate --out`` writes.  The safe (target) class
comes first, as the positive class.
"""
from __future__ import annotations

from .errors import LengthMismatch
from .features import Label

# the report's per-class keys, in report order
_CLASS_KEYS = {Label.TARGET: "safe", Label.SANDBOX: "unsafe"}
_RATES = ("precision", "recall", "f1")


def confusion(pred, actual) -> tuple[tuple[int, int], tuple[int, int]]:
    """Tally (actual, predicted) label pairs; a label other than 0 or 1 raises."""
    pred, actual = list(pred), list(actual)
    if len(pred) != len(actual):
        raise LengthMismatch(f"{len(pred)} predictions vs {len(actual)} labels")
    if not pred:
        raise LengthMismatch("empty label sequences")
    cells = [[0, 0], [0, 0]]
    for p, a in zip(pred, actual):
        if p not in (0, 1) or a not in (0, 1):
            raise ValueError(f"label {p if a in (0, 1) else a!r} is neither 0 nor 1")
        cells[int(a)][int(p)] += 1
    return tuple(cells[0]), tuple(cells[1])


def _total(cm) -> int:
    """The matrix's sample count; a negative cell or an empty matrix raises."""
    if any(c < 0 for row in cm for c in row):
        raise ValueError("negative cell count")
    total = sum(c for row in cm for c in row)
    if total < 1:
        raise ValueError("confusion matrix is empty")
    return total


def _safe_div(num: float, den: float) -> float:
    return num / den if den else 0.0


def class_metrics(cm) -> dict[Label, dict]:
    """Precision/recall/F1/support per class, with 0/0 reported as 0."""
    _total(cm)  # refuses a negative cell or an empty matrix
    out = {}
    for label in (Label.TARGET, Label.SANDBOX):
        correct, support = cm[label][label], sum(cm[label])
        precision = _safe_div(correct, cm[0][label] + cm[1][label])
        recall = _safe_div(correct, support)
        f1 = _safe_div(2.0 * precision * recall, precision + recall)
        out[label] = {"precision": precision, "recall": recall, "f1": f1, "support": support}
    return out


def aggregate_metrics(per_class: dict[Label, dict]) -> tuple[dict, dict]:
    """(macro, weighted) averages; both carry the summed support."""
    rows = list(per_class.values())
    total = sum(r["support"] for r in rows)
    if total < 1:
        raise ValueError("no class has support")
    macro = {k: sum(r[k] for r in rows) / len(rows) for k in _RATES}
    weighted = {k: sum(r[k] * r["support"] for r in rows) / total for k in _RATES}
    return {**macro, "support": total}, {**weighted, "support": total}


def accuracy(cm) -> float:
    return (cm[0][0] + cm[1][1]) / _total(cm)


def regression_errors(probs, labels) -> tuple[float, float]:
    """(mean absolute error, mean squared error) of probabilities vs labels."""
    import numpy as np
    p = np.asarray(list(probs), dtype=float)
    y = np.asarray([int(l) for l in labels], dtype=float)
    if p.shape != y.shape:
        raise LengthMismatch(f"{p.shape[0]} probabilities vs {y.shape[0]} labels")
    if p.size == 0:
        raise LengthMismatch("empty sequences")
    err = p - y
    return float(np.mean(np.abs(err))), float(np.mean(err ** 2))


def evaluate_predictions(pred, actual, probs=None) -> dict:
    """The report: confusion, per_class (safe, unsafe), macro_avg,
    weighted_avg, accuracy, then mae and mse when ``probs`` is given."""
    cm = confusion(pred, actual)
    per_class = class_metrics(cm)
    macro, weighted = aggregate_metrics(per_class)
    doc = {"confusion": cm,
           "per_class": {_CLASS_KEYS[label]: row for label, row in per_class.items()},
           "macro_avg": macro, "weighted_avg": weighted, "accuracy": accuracy(cm)}
    if probs is not None:
        doc["mae"], doc["mse"] = regression_errors(probs, actual)
    return doc


def format_report(doc: dict) -> str:
    """Fixed-width metrics table plus the accuracy line.

    Metric values render at two decimals, accuracy at two decimals of
    percent; the document keeps full precision.
    """
    rows = [(key.capitalize(), row) for key, row in doc["per_class"].items()]
    rows += [("Macro Average", doc["macro_avg"]), ("Weighted Average", doc["weighted_avg"])]

    lines = [f"{'Metrics':<18}{'Precision':>10}{'Recall':>8}{'F1-score':>10}{'Support':>9}"]
    for name, m in rows:
        lines.append(f"{name:<18}{m['precision']:>10.2f}{m['recall']:>8.2f}"
                     f"{m['f1']:>10.2f}{m['support']:>9d}")
    lines += ["", f"Accuracy: {doc['accuracy'] * 100.0:.2f}%"]
    if "mae" in doc:
        lines += [f"Mean Absolute Error: {doc['mae']:.4f}",
                  f"Mean Squared Error: {doc['mse']:.4f}"]
    return "\n".join(lines) + "\n"
