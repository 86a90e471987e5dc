"""Feature extraction, labeled datasets, scaling, splitting, and stats.

Each host snapshot reduces to three numbers: how many processes are
running (the pid-0 pseudo-process never counts), how many distinct
owners appear (floored at one), and their ratio.
"""
from __future__ import annotations

import csv
import io
import math
import sys
from dataclasses import dataclass
from enum import IntEnum
from itertools import compress
from pathlib import Path
from typing import TYPE_CHECKING

from .errors import DatasetTooSmall, EmptyListing, MalformedDatasetFile
# _checked_rows is private to the package: the one row reader, shared with parse_process_list
from .proclist import ProcessList, _checked_rows

if TYPE_CHECKING:  # NumPy loads where arrays are computed, so parsing and a tree need none
    import numpy as np

FEATURE_NAMES = ("process_count", "user_count", "ratio")


class Label(IntEnum):
    TARGET = 0   # production environment, safe to proceed
    SANDBOX = 1  # instrumented analysis environment


@dataclass(frozen=True)
class FeatureVector:
    process_count: int
    user_count: int
    ratio: float

    def __post_init__(self):
        if self.process_count < 1 or self.user_count < 1:
            raise ValueError("counts must be >= 1")
        if self.user_count > self.process_count:
            raise ValueError("user_count exceeds process_count")
        if self.ratio != self.process_count / self.user_count:
            raise ValueError("ratio is not process_count / user_count")
        if self.process_count > sys.float_info.max:  # user_count <= process_count: in range too
            raise ValueError("process_count is beyond float range")

    @classmethod
    def from_counts(cls, process_count: int, user_count: int) -> "FeatureVector":
        return cls(process_count, user_count, process_count / user_count)

    def as_array(self) -> np.ndarray:
        import numpy as np
        return np.array([self.process_count, self.user_count, self.ratio], dtype=float)

    def to_dict(self) -> dict:
        """The feature triple as JSON-ready fields, in FEATURE_NAMES order."""
        return {name: getattr(self, name) for name in FEATURE_NAMES}

    @classmethod
    def from_dict(cls, doc: dict) -> "FeatureVector":
        doc = _typed(doc, dict)
        return cls(_whole(doc["process_count"]), _whole(doc["user_count"]), _number(doc["ratio"]))


def _whole(value) -> int:
    """A document's integer field: a JSON number with no fractional part.

    Private to the package, like the readers below; each raises ValueError.

    A bool, a string or a fractional number raises rather than reading as
    an int (``true`` as 1, ``0.9`` as 0); so do infinity and NaN.
    """
    if type(value) is int:
        return value
    if type(value) is not float or not value.is_integer():
        raise ValueError(f"{value!r} is not a whole number")
    return int(value)


def _number(value) -> float:
    """A document's real field: a finite JSON number, read as a float.  A bool, a string,
    infinity, NaN or an int beyond float range raises rather than reading as a number."""
    if type(value) in (int, float) and abs(value) <= sys.float_info.max:  # NaN compares False
        return float(value)
    raise ValueError(f"{value!r} is not a finite number")


def _typed(value, kind: type, length: int | None = None):
    """A document's object, array or string field: ``value`` when it is exactly
    a ``kind`` (dict, list or str), and has ``length`` entries when that is given."""
    if type(value) is not kind or length is not None and len(value) != length:
        raise ValueError(f"{type(value).__name__} is not a {kind.__name__}"
                         + ("" if length is None else f" of {length} entries"))
    return value


@dataclass(frozen=True)
class LabeledSample:
    features: FeatureVector
    label: Label
    origin: str | None = None


@dataclass(frozen=True)
class LabeledDataset:
    """Immutable bag of labeled samples; may be empty (e.g. a fresh export)."""

    samples: tuple[LabeledSample, ...]

    def __len__(self) -> int:
        return len(self.samples)

    def __iter__(self):
        return iter(self.samples)

    def feature_matrix(self) -> np.ndarray:
        import numpy as np
        triples = [(s.features.process_count, s.features.user_count, s.features.ratio)
                   for s in self.samples]
        return np.array(triples, dtype=float).reshape(-1, len(FEATURE_NAMES))

    def label_array(self) -> np.ndarray:
        import numpy as np
        return np.array([int(s.label) for s in self.samples])

    def class_counts(self) -> tuple[int, int]:
        sandbox = sum(s.label for s in self.samples)
        return len(self.samples) - sandbox, sandbox

    def subset(self, label: Label) -> "LabeledDataset | None":
        kept = tuple(s for s in self.samples if s.label == label)
        return LabeledDataset(kept) if kept else None


def featurize(plist: ProcessList) -> FeatureVector:
    """Reduce a parsed process list to its feature triple.

    The pid-0 pseudo-process is excluded from the count; owners compare
    case-insensitively after trimming; a listing with no visible owners
    still counts one user.
    """
    return _vector([e.pid for e in plist.entries], [e.owner or "" for e in plist.entries])


def featurize_text(text: str, *, strict: bool = False) -> tuple[FeatureVector, int]:
    """Reduce listing text to its feature triple and the count of rows skipped.

    The same result, exceptions and log line as
    ``featurize(parse_process_list(text, strict=strict))`` with the length
    of that list's warnings, from the same checked rows, but with no
    :class:`~proctriage.proclist.ProcessEntry` built per row: it reads the
    pid and owner columns alone, and for the rows read by column (a tab
    listing's full-width rows) builds no tuple per row either.
    """
    _, columns, warnings = _checked_rows(text, None, strict, "")
    return _vector(columns[0], columns[5]), len(warnings)


def _vector(pids, owners) -> FeatureVector:
    """The feature triple of rows' pids and owner cells, as :func:`featurize` says."""
    countable = list(compress(owners, pids))  # owners of pid != 0 rows; C-level, no Python loop
    if not countable:
        raise EmptyListing("no countable entries after excluding pid 0")
    users = set(map(str.casefold, map(str.strip, set(countable))))  # each distinct cell once
    users.discard("")
    return FeatureVector.from_counts(len(countable), max(1, len(users)))


@dataclass(frozen=True)
class ScalerParams:
    """Per-feature min/max fitted on a training set."""

    mins: tuple[float, float, float]
    maxs: tuple[float, float, float]

    def transform(self, x: np.ndarray) -> np.ndarray:
        """Map features onto [0, 1], clamping out-of-range values.

        A degenerate feature (min == max) maps to 0.0 everywhere.
        """
        import numpy as np
        mins = np.asarray(self.mins, dtype=float)
        spans = np.asarray(self.maxs, dtype=float) - mins
        safe_spans = np.where(spans > 0, spans, 1.0)
        scaled = (np.asarray(x, dtype=float) - mins) / safe_spans
        scaled = np.where(spans > 0, scaled, 0.0)
        return np.clip(scaled, 0.0, 1.0)

    def transform_row(self, x) -> list[float]:
        """One row by :meth:`transform`'s rules, bit for bit, in plain floats."""
        out = []
        for value, lo, hi in zip(x, map(float, self.mins), map(float, self.maxs)):
            span = hi - lo
            scaled = (value - lo) / span if span > 0 else 0.0
            out.append(min(max(scaled, 0.0), 1.0))  # as np.clip: -0.0 and NaN pass through
        return out


def fit_scaler(train: LabeledDataset) -> ScalerParams:
    """Fit min-max parameters on the training set only."""
    if not len(train):
        raise DatasetTooSmall("cannot fit a scaler on an empty dataset")
    x = train.feature_matrix()
    # plain floats: the network's document is read back with the strict _number
    return ScalerParams(mins=tuple(x.min(axis=0).tolist()), maxs=tuple(x.max(axis=0).tolist()))


def split_dataset(data: LabeledDataset, train_fraction: float, seed: int,
                  stratified: bool = False) -> tuple[LabeledDataset, LabeledDataset]:
    """Seeded shuffle then floor/remainder split into train and test.

    With ``stratified`` set, the floor split is applied per class
    instead (sizes may then differ from the global floor by rounding).
    """
    if not 0.0 < train_fraction < 1.0:
        raise ValueError("train_fraction must be in (0, 1)")
    n = len(data)
    if n < 2:
        raise DatasetTooSmall("need at least two samples to split")

    import numpy as np
    rng = np.random.default_rng(seed)
    groups = ([np.flatnonzero(data.label_array() == cls) for cls in (0, 1)] if stratified
              else [np.arange(n)])
    train_idx, test_idx = [], []
    for members in groups:
        order = members[rng.permutation(len(members))]
        k = math.floor(train_fraction * len(order))
        train_idx.extend(order[:k])
        test_idx.extend(order[k:])

    if not train_idx or not test_idx:
        raise DatasetTooSmall(f"{n} samples at fraction {train_fraction} leaves a side empty")
    return (LabeledDataset(tuple(data.samples[i] for i in train_idx)),
            LabeledDataset(tuple(data.samples[i] for i in test_idx)))


def _stats_block(x: np.ndarray) -> dict | None:
    if not len(x):
        return None
    return {"n": len(x), "min": x.min(axis=0).tolist(), "max": x.max(axis=0).tolist(),
            "mean": x.mean(axis=0).tolist(), "std": x.std(axis=0).tolist()}  # population std


def compute_stats(data: LabeledDataset) -> dict:
    """Per-feature stats for the whole set and for each class.

    The result is a JSON document: ``{"all"|"safe"|"unsafe": {"n", "min",
    "max", "mean", "std"}}``, each list in FEATURE_NAMES order; a class
    with no samples is None.
    """
    if not len(data):
        raise DatasetTooSmall("cannot compute stats on an empty dataset")
    x, labels = data.feature_matrix(), data.label_array()
    return {"all": _stats_block(x),
            "safe": _stats_block(x[labels == Label.TARGET]),
            "unsafe": _stats_block(x[labels == Label.SANDBOX])}


def format_stats(stats: dict) -> str:
    """Render a :func:`compute_stats` document as a fixed-width table, one
    block per class."""
    pretty = {"process_count": "Process Count", "user_count": "User Count", "ratio": "Ratio"}
    out = []
    for title, key in (("All Data", "all"), ("Safe", "safe"), ("Unsafe", "unsafe")):
        block = stats[key]
        if block is None:
            continue
        out.append(f"{title} ({block['n']} samples)")
        out.append(f"{'Feature':<15}{'Min':>9}{'Max':>9}{'Mean':>9}{'Std Dev':>9}")
        for i, name in enumerate(FEATURE_NAMES):
            out.append(f"{pretty[name]:<15}" + "".join(
                f"{block[column][i]:>9.1f}" for column in ("min", "max", "mean", "std")))
        out.append("")
    return "\n".join(out).rstrip() + "\n"


DATASET_HEADER = ["process_count", "user_count", "ratio", "label", "origin"]


def save_dataset(data: LabeledDataset, path: str | Path) -> None:
    """Write a dataset as CSV with the standard five-column header."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(dataset_to_csv(data))


def dataset_to_csv(data: LabeledDataset) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(DATASET_HEADER)
    for s in data.samples:
        writer.writerow([s.features.process_count, s.features.user_count,
                         repr(s.features.ratio), int(s.label), s.origin or ""])
    return buf.getvalue()


def load_dataset(path: str | Path) -> LabeledDataset:
    """Load a dataset CSV, validating every row.

    Raises :class:`MalformedDatasetFile` (with the offending line number)
    on a bad header, a bad cell, or a file with no data rows.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return dataset_from_csv(fh.read())


def dataset_from_csv(text: str) -> LabeledDataset:
    reader = csv.reader(io.StringIO(text))
    samples = []
    try:
        header = next(reader, None)
        if header is None:
            raise MalformedDatasetFile(0, "empty file")
        if [c.strip() for c in header] != DATASET_HEADER:
            raise MalformedDatasetFile(1, f"bad header {header!r}")
        for row in reader:  # read lazily: reader.line_num is this row's physical line
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) != len(DATASET_HEADER):
                raise ValueError(f"expected {len(DATASET_HEADER)} cells")
            pc, uc, ratio, label = int(row[0]), int(row[1]), float(row[2]), int(row[3])
            if label not in (0, 1):
                raise ValueError(f"label must be 0 or 1, got {label}")
            fv = FeatureVector(pc, uc, ratio)
            samples.append(LabeledSample(fv, Label(label), row[4].strip() or None))
    # csv.Error: such as a cell longer than csv.field_size_limit();
    # OverflowError: a count too big for its ratio
    except (csv.Error, ValueError, OverflowError) as e:
        raise MalformedDatasetFile(reader.line_num, str(e)) from None
    if not samples:
        raise MalformedDatasetFile(reader.line_num, "no data rows")
    return LabeledDataset(tuple(samples))
