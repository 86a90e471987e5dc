"""CART-style binary decision tree over raw feature triples.

Greedy recursive splitting on gini impurity with midpoint thresholds.
No pruning; depth and minimum-split-size are the only regularizers.
Thresholds are evaluated exhaustively, features in index order, so
training is fully deterministic.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import DatasetTooSmall, EmptyNode, ModelFormatError
from .features import (FEATURE_NAMES, FeatureVector, Label, LabeledDataset, LabeledSample,
                       _number, _typed, _whole)

if TYPE_CHECKING:  # only training computes with arrays; a tree predicts in plain Python
    import numpy as np

TREE_SCHEMA_VERSION = "dtree-v1"
# Deeper documents are refused, and training stops there: growing, loading
# and saving (one checked copy), both exports and json's encoder recurse once
# per level, and must stay well inside the interpreter's recursion limit.
MAX_TREE_DEPTH = 200


@dataclass(frozen=True)
class TreeConfig:
    max_depth: int | None = None
    min_samples_split: int = 2

    def __post_init__(self):
        # exactly int: tree_to_dict writes these, and tree_from_dict reads back whole numbers only
        if self.max_depth is not None and (type(self.max_depth) is not int or self.max_depth < 1):
            raise ValueError("max_depth must be None or an integer >= 1")
        if type(self.min_samples_split) is not int or self.min_samples_split < 2:
            raise ValueError("min_samples_split must be >= 2")


@dataclass
class DecisionTreeModel:
    # the root node record of the dtree-v1 document: n_samples, class_counts
    # [target, sandbox] and impurity, then a leaf's label (0 or 1) or a
    # split's feature_index, threshold and left (<= threshold) and right records
    root: dict
    config: TreeConfig


def gini(counts: tuple[int, int]) -> float:
    """Two-class gini impurity: 1 - p0^2 - p1^2, in [0, 0.5].

    The counts may be integer arrays, for one impurity per element.
    """
    import numpy as np
    n0, n1 = counts
    n = n0 + n1
    if np.any(n == 0):
        raise EmptyNode("gini of an empty node")
    p0 = n0 / n
    p1 = n1 / n
    # grouped sum keeps gini((a,b)) == gini((b,a)) exact in floating point
    return 1.0 - (p0 * p0 + p1 * p1)


def _leaf_label(counts: list[int]) -> int:
    # ties resolve to the cautious class
    return int(Label.SANDBOX if counts[1] >= counts[0] else Label.TARGET)


def _best_split_arrays(x: np.ndarray, y: np.ndarray):
    """Exhaustive midpoint search over every feature.

    Returns (feature_index, threshold, impurity_decrease) or None when no
    candidate strictly reduces weighted impurity.  Ties keep the first
    candidate in (feature asc, threshold asc) order.
    """
    import numpy as np
    n = len(y)
    n1_total = int(y.sum())
    parent = gini((n - n1_total, n1_total))
    nl = np.arange(1, n)             # left size after each sorted position
    nr = n - nl
    best = None
    for f in range(x.shape[1]):
        order = np.argsort(x[:, f], kind="stable")
        sv = x[order, f]
        l1 = np.cumsum(y[order])[:-1]
        r1 = n1_total - l1
        weighted = (nl / n) * gini((nl - l1, l1)) + (nr / n) * gini((nr - r1, r1))
        # no cut between equal values
        decrease = np.where(sv[:-1] != sv[1:], parent - weighted, -np.inf)
        i = int(np.argmax(decrease))  # the first of equal decreases
        if decrease[i] > 0.0 and (best is None or decrease[i] > best[2]):
            best = (f, float((sv[i] + sv[i + 1]) / 2.0), float(decrease[i]))
    return best


def best_split(samples: list[LabeledSample]):
    """Best (feature, midpoint threshold, impurity decrease) for ``samples``."""
    if len(samples) < 2:
        raise ValueError("need at least two samples")
    data = LabeledDataset(tuple(samples))
    return _best_split_arrays(data.feature_matrix(), data.label_array())


def _grow(x: np.ndarray, y: np.ndarray, depth: int, config: TreeConfig) -> dict:
    n = len(y)
    n1 = int(y.sum())
    counts = [n - n1, n1]
    impurity = gini(counts)
    node = {"n_samples": n, "class_counts": counts, "impurity": impurity}

    at_depth_limit = depth >= min(config.max_depth or MAX_TREE_DEPTH, MAX_TREE_DEPTH)
    stop = impurity == 0.0 or n < config.min_samples_split or at_depth_limit
    found = None if stop else _best_split_arrays(x, y)
    if found is None:
        node["label"] = _leaf_label(counts)
        return node

    f, t, _ = found
    mask = x[:, f] <= t
    node.update(feature_index=f, threshold=t,
                left=_grow(x[mask], y[mask], depth + 1, config),
                right=_grow(x[~mask], y[~mask], depth + 1, config))
    return node


def train_tree(train: LabeledDataset, config: TreeConfig | None = None) -> DecisionTreeModel:
    """Fit a tree on raw (unscaled) features."""
    if not len(train):
        raise DatasetTooSmall("cannot train a tree on an empty dataset")
    config = config or TreeConfig()
    return DecisionTreeModel(root=_grow(train.feature_matrix(), train.label_array(), 0, config),
                             config=config)


def _leaf(model: DecisionTreeModel, v: FeatureVector) -> dict:
    """The leaf record ``v`` reaches; counts compare as floats, as in training."""
    x = (float(v.process_count), float(v.user_count), v.ratio)
    node = model.root
    while "label" not in node:
        node = node["left"] if x[node["feature_index"]] <= node["threshold"] else node["right"]
    return node


def predict_tree(model: DecisionTreeModel, v: FeatureVector) -> Label:
    return Label(_leaf(model, v)["label"])


def predict_proba(model: DecisionTreeModel, v: FeatureVector) -> float:
    """Sandbox probability: class-1 fraction of the reached leaf."""
    n0, n1 = _leaf(model, v)["class_counts"]
    return n1 / (n0 + n1)


def export_tree(model: DecisionTreeModel, style: str = "ascii") -> str:
    """Render the tree as an indented rule listing or as dot graph text."""
    if style == "ascii":
        return _export_ascii(model)
    if style == "dot":
        return _export_dot(model)
    raise ValueError(f"unknown export style {style!r}")


def _export_ascii(model: DecisionTreeModel) -> str:
    lines: list[str] = []

    def walk(node: dict, indent: int):
        pad = "  " * indent
        if "label" in node:
            n0, n1 = node["class_counts"]
            lines.append(f"{pad}class: {Label(node['label']).name.lower()} "
                         f"(target={n0}, sandbox={n1})")
            return
        name = FEATURE_NAMES[node["feature_index"]]
        lines.append(f"{pad}if {name} <= {node['threshold']:g}:  "
                     f"# gini={node['impurity']:.4f}, samples={node['n_samples']}")
        walk(node["left"], indent + 1)
        lines.append(f"{pad}else:  # {name} > {node['threshold']:g}")
        walk(node["right"], indent + 1)

    walk(model.root, 0)
    return "\n".join(lines) + "\n"


def _export_dot(model: DecisionTreeModel) -> str:
    lines = ["digraph decision_tree {", '  node [shape=box];']
    counter = 0

    def walk(node: dict) -> int:
        nonlocal counter
        nid = counter
        counter += 1
        n0, n1 = node["class_counts"]
        if "label" in node:
            label = f"{Label(node['label']).name.lower()}\\ntarget={n0}, sandbox={n1}"
            lines.append(f'  n{nid} [label="{label}"];')
        else:
            name = FEATURE_NAMES[node["feature_index"]]
            label = (f"{name} <= {node['threshold']:g}\\ngini={node['impurity']:.4f}"
                     f"\\nsamples={node['n_samples']}")
            lines.append(f'  n{nid} [label="{label}"];')
            left_id = walk(node["left"])
            right_id = walk(node["right"])
            lines.append(f"  n{nid} -> n{left_id};")
            lines.append(f"  n{nid} -> n{right_id};")
        return nid

    walk(model.root)
    lines.append("}")
    return "\n".join(lines) + "\n"


def _node_from_dict(rec: dict, depth: int = 0) -> dict:
    """A checked copy of a node record, with only the keys the tree reads."""
    if depth > MAX_TREE_DEPTH:
        raise ModelFormatError(f"tree deeper than {MAX_TREE_DEPTH} levels")
    try:
        rec = _typed(rec, dict)
        node = {"n_samples": _whole(rec["n_samples"]),
                "class_counts": list(map(_whole, _typed(rec["class_counts"], list, 2))),
                "impurity": _number(rec["impurity"])}
        counts = node["class_counts"]
        # predict_proba divides by a leaf's count total, and GET /v1/model reports the root's
        if min(counts) < 0 or sum(counts) == 0 or sum(counts) != node["n_samples"]:
            raise ValueError(f"class counts {counts} under n_samples {node['n_samples']}")
        if "label" in rec:
            node["label"] = int(Label(_whole(rec["label"])))
        else:
            f = node["feature_index"] = _whole(rec["feature_index"])
            node["threshold"] = _number(rec["threshold"])
            if not 0 <= f < len(FEATURE_NAMES):
                raise ValueError(f"split on feature {f}")
            node["left"] = _node_from_dict(rec["left"], depth + 1)
            node["right"] = _node_from_dict(rec["right"], depth + 1)
    except (KeyError, ValueError) as e:
        raise ModelFormatError(f"bad tree node record: {e}") from None
    return node


def tree_to_dict(model: DecisionTreeModel) -> dict:
    """The dtree-v1 document; its root is the loader's checked copy, so a
    tree that ``tree_from_dict`` would refuse raises ModelFormatError."""
    root = _node_from_dict(model.root)
    return {
        "version": TREE_SCHEMA_VERSION,
        "criterion": "gini",
        "config": {"max_depth": model.config.max_depth,
                   "min_samples_split": model.config.min_samples_split},
        "feature_names": list(FEATURE_NAMES),
        "n_samples": root["n_samples"],
        "class_counts": list(root["class_counts"]),
        "root": root,
    }


def tree_from_dict(doc: dict) -> DecisionTreeModel:
    if not isinstance(doc, dict) or doc.get("version") != TREE_SCHEMA_VERSION:
        raise ModelFormatError(f"not a {TREE_SCHEMA_VERSION} document")
    try:
        cfg = _typed(doc.get("config", {}), dict)
        max_depth = cfg.get("max_depth")
        config = TreeConfig(max_depth=None if max_depth is None else _whole(max_depth),
                            min_samples_split=_whole(cfg.get("min_samples_split", 2)))
        # only gini trees are grown; another criterion names another model
        if doc.get("criterion", "gini") != "gini":
            raise ValueError(f"criterion must be 'gini', not {doc['criterion']!r}")
        # export and model info name each split's feature from this list
        if doc.get("feature_names", list(FEATURE_NAMES)) != list(FEATURE_NAMES):
            raise ValueError(f"feature_names must be {list(FEATURE_NAMES)}")
        root = _node_from_dict(doc["root"])
        # the top-level totals may be left out; given, they are the root's
        totals = [_whole(doc.get("n_samples", root["n_samples"])),
                  list(map(_whole, _typed(doc.get("class_counts", root["class_counts"]), list, 2)))]
        if totals != [root["n_samples"], root["class_counts"]]:
            raise ValueError(f"top-level totals {totals} contradict the root's")
        return DecisionTreeModel(root=root, config=config)
    except (KeyError, ValueError) as e:
        raise ModelFormatError(str(e)) from None
