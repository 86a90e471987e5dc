"""Classification metric arithmetic, including the published-report oracle."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from proctriage.errors import LengthMismatch
from proctriage.features import Label
from proctriage.metrics import (
    accuracy,
    aggregate_metrics,
    class_metrics,
    confusion,
    evaluate_predictions,
    format_report,
    regression_errors,
)

REPORT_CM = ((66, 1), (3, 7))


# -- confusion ----------------------------------------------------------------

def test_confusion_convention_actual_row_predicted_col():
    pred = [Label.TARGET, Label.SANDBOX, Label.SANDBOX, Label.TARGET]
    actual = [Label.TARGET, Label.TARGET, Label.SANDBOX, Label.SANDBOX]
    cm = confusion(pred, actual)
    assert cm == ((1, 1), (1, 1))


def test_confusion_perfect_diagonal():
    labels = [Label.TARGET, Label.SANDBOX, Label.SANDBOX]
    cm = confusion(labels, labels)
    assert cm == ((1, 0), (0, 2))


def test_confusion_single_off_diagonal_cell():
    pred = [Label.SANDBOX] * 5
    actual = [Label.TARGET] * 5
    cm = confusion(pred, actual)
    assert cm == ((0, 5), (0, 0))


def test_confusion_length_mismatch():
    with pytest.raises(LengthMismatch):
        confusion([Label.TARGET], [Label.TARGET, Label.SANDBOX])
    with pytest.raises(LengthMismatch):
        confusion([], [])


@pytest.mark.parametrize("check, pred, actual, label", [
    (evaluate_predictions, [1, 1], [-1, 1], "-1"),  # once read as the sandbox row
    (confusion, [0.7, 1], [0, 1], "0.7"),  # once truncated to 0
    (confusion, [2], [0], "2"),  # once an IndexError
], ids=["minus-one", "fraction", "two"])
def test_a_label_other_than_0_or_1_is_refused(check, pred, actual, label):
    with pytest.raises(ValueError, match=f"^label {label} is neither 0 nor 1$"):
        check(pred, actual)


def test_confusion_matrix_validation():
    for check in (class_metrics, accuracy):
        with pytest.raises(ValueError):
            check(((0, 0), (0, 0)))
        with pytest.raises(ValueError):
            check(((-1, 2), (0, 1)))


# -- per-class metrics ----------------------------------------------------------

def test_class_metrics_published_report():
    per = class_metrics(REPORT_CM)
    safe, unsafe = per[Label.TARGET], per[Label.SANDBOX]
    assert safe["precision"] == pytest.approx(66 / 69)
    assert safe["recall"] == pytest.approx(66 / 67)
    assert safe["f1"] == pytest.approx(2 * (66 / 69) * (66 / 67) / (66 / 69 + 66 / 67))
    assert safe["support"] == 67
    assert unsafe["precision"] == pytest.approx(0.875)
    assert unsafe["recall"] == pytest.approx(0.70)
    assert unsafe["f1"] == pytest.approx(7 / 9)
    assert unsafe["support"] == 10


def test_class_metrics_perfect():
    per = class_metrics(((4, 0), (0, 6)))
    for m in per.values():
        assert (m["precision"], m["recall"], m["f1"]) == (1.0, 1.0, 1.0)


def test_class_metrics_absent_class_all_zero():
    per = class_metrics(((3, 0), (0, 0)))
    unsafe = per[Label.SANDBOX]
    assert unsafe == {"precision": 0.0, "recall": 0.0, "f1": 0.0, "support": 0}


def test_a_one_sample_matrix_is_scored():
    per = class_metrics(((1, 0), (0, 0)))
    assert per[Label.TARGET] == {"precision": 1.0, "recall": 1.0, "f1": 1.0, "support": 1}
    macro, weighted = aggregate_metrics(per)
    assert macro == {"precision": 0.5, "recall": 0.5, "f1": 0.5, "support": 1}
    assert weighted == {"precision": 1.0, "recall": 1.0, "f1": 1.0, "support": 1}


def test_f1_between_precision_and_recall():
    per = class_metrics(REPORT_CM)
    for m in per.values():
        if m["precision"] > 0 and m["recall"] > 0:
            assert (min(m["precision"], m["recall"]) <= m["f1"]
                    <= max(m["precision"], m["recall"]))


# -- aggregates ------------------------------------------------------------------

def test_aggregate_published_report():
    macro, weighted = aggregate_metrics(class_metrics(REPORT_CM))
    assert round(macro["precision"], 2) == 0.92
    assert round(macro["recall"], 2) == 0.84
    assert round(macro["f1"], 2) == 0.87
    assert macro["support"] == 77
    assert round(weighted["precision"], 2) == 0.95
    assert round(weighted["recall"], 2) == 0.95
    assert round(weighted["f1"], 2) == 0.95
    assert weighted["support"] == 77


def test_aggregate_hand_example():
    per = {
        Label.TARGET: {"precision": 0.0, "recall": 0.0, "f1": 0.0, "support": 1},
        Label.SANDBOX: {"precision": 1.0, "recall": 1.0, "f1": 1.0, "support": 3},
    }
    macro, weighted = aggregate_metrics(per)
    assert macro["precision"] == 0.5
    assert weighted["precision"] == 0.75
    assert macro["support"] == weighted["support"] == 4


def test_aggregate_equal_supports_macro_equals_weighted():
    per = {
        Label.TARGET: {"precision": 0.8, "recall": 0.6, "f1": 0.7, "support": 5},
        Label.SANDBOX: {"precision": 0.4, "recall": 0.9, "f1": 0.55, "support": 5},
    }
    macro, weighted = aggregate_metrics(per)
    assert macro["precision"] == pytest.approx(weighted["precision"])
    assert macro["recall"] == pytest.approx(weighted["recall"])
    assert macro["f1"] == pytest.approx(weighted["f1"])


def test_aggregate_identical_classes_macro_equals_weighted():
    m = {"precision": 0.7, "recall": 0.7, "f1": 0.7, "support": 9}
    macro, weighted = aggregate_metrics({Label.TARGET: m, Label.SANDBOX: m})
    assert macro["precision"] == weighted["precision"] == 0.7


def test_aggregate_requires_support():
    per = {Label.TARGET: {"precision": 0.0, "recall": 0.0, "f1": 0.0, "support": 0},
           Label.SANDBOX: {"precision": 0.0, "recall": 0.0, "f1": 0.0, "support": 0}}
    with pytest.raises(ValueError):
        aggregate_metrics(per)


# -- accuracy ---------------------------------------------------------------------

def test_accuracy_values():
    assert accuracy(REPORT_CM) == pytest.approx(73 / 77)
    assert accuracy(((5, 0), (0, 5))) == 1.0
    assert accuracy(((0, 4), (6, 0))) == 0.0


# -- regression errors ---------------------------------------------------------------

def test_regression_errors_hand_values():
    assert regression_errors([1.0, 0.0], [1, 0]) == (0.0, 0.0)
    mae, mse = regression_errors([0.5], [1])
    assert (mae, mse) == (0.5, 0.25)
    mae, mse = regression_errors([0.9, 0.2], [1, 0])
    assert mae == pytest.approx(0.15)
    assert mse == pytest.approx(0.025)


def test_regression_errors_mse_at_most_mae():
    probs = [0.1, 0.4, 0.6, 0.93]
    labels = [0, 0, 1, 1]
    mae, mse = regression_errors(probs, labels)
    assert mse <= mae <= 1.0


def test_regression_errors_length_mismatch():
    with pytest.raises(LengthMismatch):
        regression_errors([0.5], [0, 1])
    with pytest.raises(LengthMismatch):
        regression_errors([], [])


@given(st.lists(st.tuples(st.floats(0, 1), st.integers(0, 1)), min_size=1, max_size=30))
def test_regression_errors_bounds(pairs):
    probs = [p for p, _ in pairs]
    labels = [y for _, y in pairs]
    mae, mse = regression_errors(probs, labels)
    assert 0.0 <= mse <= mae <= 1.0


# -- report assembly -------------------------------------------------------------------

def _report_inputs():
    pred, actual = [], []
    for (a, p), n in zip(((0, 0), (0, 1), (1, 0), (1, 1)), (66, 1, 3, 7)):
        pred += [Label(p)] * n
        actual += [Label(a)] * n
    return pred, actual


def test_evaluate_predictions_full_report():
    pred, actual = _report_inputs()
    report = evaluate_predictions(pred, actual)
    assert report["confusion"] == ((66, 1), (3, 7))
    assert report["accuracy"] == pytest.approx(73 / 77)
    assert report["weighted_avg"]["support"] == 77
    assert "mae" not in report and "mse" not in report


def test_evaluate_predictions_with_probs():
    pred = [Label.TARGET, Label.SANDBOX]
    actual = [Label.TARGET, Label.SANDBOX]
    report = evaluate_predictions(pred, actual, probs=[0.2, 0.9])
    assert report["mae"] == pytest.approx(0.15)
    assert report["mse"] == pytest.approx(0.025)


def test_report_to_dict_shape():
    pred, actual = _report_inputs()
    doc = evaluate_predictions(pred, actual)
    assert set(doc) >= {"confusion", "per_class", "macro_avg", "weighted_avg", "accuracy"}
    assert set(doc["per_class"]) == {"safe", "unsafe"}
    assert doc["per_class"]["safe"]["support"] == 67


def test_format_report_rendering():
    pred, actual = _report_inputs()
    text = format_report(evaluate_predictions(pred, actual, probs=None))
    assert "Safe" in text and "Unsafe" in text
    assert "Accuracy: 94.81%" in text
    assert "0.88" in text and "0.70" in text and "0.78" in text
    # no regression block without probabilities
    assert "Mean Absolute Error" not in text


def test_format_report_with_probs_has_error_block():
    pred = [Label.TARGET, Label.SANDBOX]
    actual = [Label.TARGET, Label.SANDBOX]
    text = format_report(evaluate_predictions(pred, actual, probs=[0.2, 0.9]))
    assert "Mean Absolute Error: 0.1500" in text
    assert "Mean Squared Error: 0.0250" in text
