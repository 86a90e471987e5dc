"""The full metric arithmetic on a worked confusion matrix.

A confusion matrix is a pair of count rows indexed (actual, predicted),
with Safe as the positive class, and each metric row is a plain dict.
This example matrix has 67 actual-safe and 10 actual-unsafe samples and
is the reference the test suite locks every formula against.
"""
from proctriage import (
    Label,
    accuracy,
    aggregate_metrics,
    class_metrics,
    regression_errors,
)

cm = ((66, 1), (3, 7))
print("confusion matrix (rows actual, columns predicted):")
print("              pred safe  pred unsafe")
print(f"  actual safe       {cm[0][0]:>3}          {cm[0][1]:>3}")
print(f"  actual unsafe     {cm[1][0]:>3}          {cm[1][1]:>3}")
print()

per = class_metrics(cm)
for label, name in ((Label.TARGET, "Safe"), (Label.SANDBOX, "Unsafe")):
    m = per[label]
    print(f"{name:>6}: precision {m['precision']:.4f} recall {m['recall']:.4f} "
          f"f1 {m['f1']:.4f} support {m['support']}")

macro, weighted = aggregate_metrics(per)
for name, m in ((" macro", macro), ("wghtd", weighted)):
    print(f"{name}: precision {m['precision']:.4f} recall {m['recall']:.4f} "
          f"f1 {m['f1']:.4f} support {m['support']}")
print(f"accuracy: {accuracy(cm) * 100:.2f}%")
print()

# probability-quality measures work straight off raw outputs
probs = [0.1, 0.2, 0.35, 0.81, 0.9]
labels = [0, 0, 0, 1, 1]
mae, mse = regression_errors(probs, labels)
print(f"regression view of {probs} vs {labels}:")
print(f"  mae {mae:.4f}  mse {mse:.4f}")
