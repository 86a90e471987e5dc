"""CART internals: gini, split search, growth limits, export, round-trip."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from proctriage.dtree import (
    MAX_TREE_DEPTH,
    DecisionTreeModel,
    TreeConfig,
    _leaf,
    best_split,
    export_tree,
    gini,
    predict_proba,
    predict_tree,
    train_tree,
    tree_from_dict,
    tree_to_dict,
)
from proctriage.errors import DatasetTooSmall, EmptyNode, ModelFormatError
from proctriage.features import FeatureVector, Label, LabeledDataset, LabeledSample
from proctriage.service import read_model_file


def _mk(pc, uc, label):
    return LabeledSample(FeatureVector.from_counts(pc, uc), label)


def _dataset(rows):
    return LabeledDataset(tuple(_mk(*r) for r in rows))


# -- gini --------------------------------------------------------------------

def test_gini_hand_values():
    assert gini((3, 1)) == 0.375
    assert gini((1, 3)) == 0.375
    assert gini((2, 2)) == 0.5
    assert gini((4, 0)) == 0.0
    assert gini((0, 7)) == 0.0


def test_gini_empty_node():
    with pytest.raises(EmptyNode):
        gini((0, 0))


@given(a=st.integers(0, 500), b=st.integers(0, 500))
def test_gini_properties(a, b):
    if a + b == 0:
        return
    g = gini((a, b))
    assert 0.0 <= g <= 0.5
    assert g == gini((b, a))
    if a == b:
        assert g == 0.5
    if a == 0 or b == 0:
        assert g == 0.0


# -- best_split --------------------------------------------------------------

def test_best_split_perfect_separator():
    samples = [_mk(10, 1, Label.TARGET), _mk(12, 1, Label.TARGET),
               _mk(40, 1, Label.SANDBOX), _mk(44, 1, Label.SANDBOX)]
    f, t, d = best_split(samples)
    assert f == 0
    assert t == 26.0
    assert d == pytest.approx(0.5)


def test_best_split_tie_prefers_lowest_feature():
    # feature 0 and feature 1 both separate perfectly; ratio is constant
    samples = [_mk(10, 1, Label.TARGET), _mk(20, 2, Label.SANDBOX)]
    f, t, d = best_split(samples)
    assert f == 0
    assert t == 15.0


def test_best_split_tie_prefers_lowest_threshold():
    # both candidate cuts on feature 0 give the same impurity decrease
    samples = [_mk(10, 1, Label.TARGET), _mk(20, 1, Label.SANDBOX),
               _mk(30, 1, Label.TARGET)]
    f, t, _ = best_split(samples)
    assert f == 0
    assert t == 15.0


def test_best_split_none_when_indistinguishable():
    samples = [_mk(10, 1, Label.TARGET), _mk(10, 1, Label.SANDBOX)]
    assert best_split(samples) is None


def test_best_split_requires_two_samples():
    with pytest.raises(ValueError):
        best_split([_mk(10, 1, Label.TARGET)])


def _scalar_gini(n0, n1):
    n = n0 + n1
    p0 = n0 / n
    p1 = n1 / n
    return 1.0 - (p0 * p0 + p1 * p1)


def _scalar_best_split(samples):
    """The split search as one scalar gini per candidate threshold."""
    x = np.array([s.features.as_array() for s in samples])
    y = np.array([int(s.label) for s in samples])
    n = len(y)
    n1_total = int(y.sum())
    parent = _scalar_gini(n - n1_total, n1_total)
    best = None
    for f in range(x.shape[1]):
        vals = x[:, f]
        order = np.argsort(vals, kind="stable")
        sv = vals[order]
        cum1 = np.cumsum(y[order])
        for i in range(n - 1):
            if sv[i] == sv[i + 1]:
                continue
            nl = i + 1
            nr = n - nl
            l1 = int(cum1[i])
            l0 = nl - l1
            r1 = n1_total - l1
            r0 = nr - r1
            weighted = (nl / n) * _scalar_gini(l0, l1) + (nr / n) * _scalar_gini(r0, r1)
            decrease = parent - weighted
            if decrease > 0.0 and (best is None or decrease > best[2]):
                best = (f, float((sv[i] + sv[i + 1]) / 2.0), decrease)
    return best


@settings(max_examples=300, deadline=None)
@given(rows=st.lists(st.tuples(st.integers(3, 8), st.integers(1, 3), st.sampled_from(Label)),
                     min_size=2, max_size=300))
def test_best_split_equals_the_scalar_search_bit_for_bit(rows):
    # small value ranges make equal values and equal decreases common
    samples = [_mk(*r) for r in rows]
    assert best_split(samples) == _scalar_best_split(samples)


# -- training and prediction -------------------------------------------------

def test_train_perfectly_separable():
    data = _dataset([
        (200, 1, Label.TARGET), (150, 1, Label.TARGET), (90, 2, Label.TARGET),
        (30, 3, Label.SANDBOX), (25, 2, Label.SANDBOX), (40, 4, Label.SANDBOX),
    ])
    model = train_tree(data)
    for s in data:
        assert predict_tree(model, s.features) == s.label
    assert model.root["n_samples"] == 6
    assert model.root["class_counts"] == [3, 3]


def test_predict_proba_is_leaf_fraction():
    data = _dataset([
        (10, 1, Label.TARGET), (12, 1, Label.TARGET), (14, 1, Label.SANDBOX),
        (90, 1, Label.SANDBOX), (95, 1, Label.SANDBOX),
    ])
    model = train_tree(data, TreeConfig(max_depth=1))
    probs = {predict_proba(model, s.features) for s in data}
    assert probs <= {0.0, 1.0, 1 / 3, 2 / 3}
    for s in data:
        p = predict_proba(model, s.features)
        assert 0.0 <= p <= 1.0


def test_leaf_tie_defaults_to_sandbox():
    data = _dataset([(10, 1, Label.TARGET), (10, 1, Label.SANDBOX)])
    model = train_tree(data)
    assert "label" in model.root
    assert predict_tree(model, FeatureVector.from_counts(10, 1)) == Label.SANDBOX


def test_max_depth_limits_growth():
    data = _dataset([
        (10, 1, Label.TARGET), (20, 1, Label.SANDBOX),
        (30, 1, Label.TARGET), (40, 1, Label.SANDBOX),
    ])
    model = train_tree(data, TreeConfig(max_depth=1))
    assert "label" not in model.root
    assert "label" in model.root["left"] and "label" in model.root["right"]


def _depth(node: dict) -> int:
    deepest, stack = 0, [(node, 0)]
    while stack:
        node, depth = stack.pop()
        deepest = max(deepest, depth)
        if "label" not in node:
            stack += [(node["left"], depth + 1), (node["right"], depth + 1)]
    return deepest


@pytest.mark.parametrize("max_depth", [None, 500])
def test_growth_stops_at_the_depth_a_document_may_have(max_depth):
    # alternating labels along the counts: each split peels off about one sample
    data = _dataset([(pc, 1, Label(pc % 2)) for pc in range(1, 1001)])
    model = train_tree(data, TreeConfig(max_depth=max_depth))
    assert _depth(model.root) == MAX_TREE_DEPTH
    doc = json.loads(json.dumps(tree_to_dict(model)))
    assert doc["config"]["max_depth"] == max_depth
    again = tree_from_dict(doc)
    assert tree_to_dict(again) == doc
    for style in ("ascii", "dot"):
        assert export_tree(again, style) == export_tree(model, style)


def test_min_samples_split_stops_growth():
    data = _dataset([
        (10, 1, Label.TARGET), (20, 1, Label.SANDBOX), (30, 1, Label.TARGET),
    ])
    model = train_tree(data, TreeConfig(min_samples_split=4))
    assert "label" in model.root


def _numpy_leaf(node: dict, v: FeatureVector) -> dict:
    """The leaf a descent over the vector as a NumPy float array reaches."""
    x = np.array([v.process_count, v.user_count, v.ratio], dtype=float)
    while "label" not in node:
        node = node["left"] if x[node["feature_index"]] <= node["threshold"] else node["right"]
    return node


def _random_node(rng, cuts, depth: int) -> dict:
    node = {"n_samples": 2, "class_counts": [1, 1], "impurity": 0.5}
    if depth == 0 or rng.random() < 0.15:
        return {**node, "label": int(rng.integers(2))}
    f = int(rng.integers(3))
    return {**node, "feature_index": f, "threshold": float(rng.choice(cuts[f])),
            "left": _random_node(rng, cuts, depth - 1),
            "right": _random_node(rng, cuts, depth - 1)}


def test_the_leaf_lookup_matches_a_numpy_descent():
    rng = np.random.default_rng(5)
    # counts at and past 2**53 round when read as floats; a cut at a neighbour
    # of such a count sends it left or right only if both reads round alike
    counts = [1, 2, 3, 7, 40, 2**53 - 1, 2**53, 2**53 + 1, 2**53 + 3, 2**63 + 1, 2**64 - 1]
    counts += [int(c) for c in rng.integers(2**53, 2**62, 20)] + [3**45, 7**30 + 1]
    vectors = [FeatureVector.from_counts(pc, uc) for pc in counts
               for uc in (1, 3, 7, pc // 3 + 1, pc) if uc <= pc]
    x = np.array([[v.process_count, v.user_count, v.ratio] for v in vectors], dtype=float)
    cuts = [np.concatenate([c, np.nextafter(c, -np.inf), np.nextafter(c, np.inf)])
            for c in x.T]
    for _ in range(200):
        model = DecisionTreeModel(root=_random_node(rng, cuts, 8), config=TreeConfig())
        for v in vectors:
            assert _leaf(model, v) is _numpy_leaf(model.root, v)


def test_boundary_value_goes_left():
    data = _dataset([(10, 1, Label.TARGET), (20, 1, Label.SANDBOX)])
    model = train_tree(data)
    assert model.root["threshold"] == 15.0
    # exactly at the threshold: left branch (target side here)
    at = FeatureVector.from_counts(15, 1)
    assert predict_tree(model, at) == Label.TARGET


def test_train_empty_raises():
    with pytest.raises(DatasetTooSmall):
        train_tree(LabeledDataset(()))


def test_config_validation():
    with pytest.raises(ValueError):
        TreeConfig(max_depth=0)
    with pytest.raises(ValueError):
        TreeConfig(min_samples_split=1)
    # not exactly an int: tree_to_dict would write it, and tree_from_dict refuse that document
    for field, value in [("max_depth", 1.5), ("max_depth", True), ("max_depth", 3.0),
                         ("min_samples_split", 2.5), ("min_samples_split", 4.0)]:
        with pytest.raises(ValueError):
            TreeConfig(**{field: value})
    with pytest.raises(AttributeError):  # frozen: no assignment gets past the checks
        TreeConfig().max_depth = 1.5


# -- export ------------------------------------------------------------------

def test_export_ascii_mentions_features_and_leaves():
    data = _dataset([(10, 1, Label.TARGET), (40, 2, Label.SANDBOX)])
    model = train_tree(data)
    text = export_tree(model, style="ascii")
    assert "process_count <= " in text
    assert "class: target" in text and "class: sandbox" in text


def test_export_dot_shape():
    data = _dataset([(10, 1, Label.TARGET), (40, 2, Label.SANDBOX)])
    model = train_tree(data)
    dot = export_tree(model, style="dot")
    assert dot.startswith("digraph")
    assert dot.count("digraph") == 1
    assert dot.count("->") == 2
    assert dot.rstrip().endswith("}")


def test_export_unknown_style():
    data = _dataset([(10, 1, Label.TARGET), (40, 2, Label.SANDBOX)])
    model = train_tree(data)
    with pytest.raises(ValueError):
        export_tree(model, style="svg")


# -- persistence -------------------------------------------------------------

def test_json_roundtrip_preserves_predictions(tmp_path):
    data = _dataset([
        (200, 1, Label.TARGET), (150, 1, Label.TARGET), (90, 2, Label.TARGET),
        (30, 3, Label.SANDBOX), (25, 2, Label.SANDBOX), (40, 4, Label.SANDBOX),
        (60, 2, Label.TARGET), (35, 2, Label.SANDBOX),
    ])
    model = train_tree(data, TreeConfig(max_depth=4))
    path = tmp_path / "tree.json"
    path.write_text(json.dumps(tree_to_dict(model), indent=2) + "\n", encoding="utf-8")
    again = read_model_file(path).model
    assert tree_to_dict(again) == tree_to_dict(model)
    for s in data:
        assert predict_tree(again, s.features) == predict_tree(model, s.features)
        assert predict_proba(again, s.features) == predict_proba(model, s.features)


def test_roundtrip_is_json_stable():
    data = _dataset([(10, 1, Label.TARGET), (40, 2, Label.SANDBOX)])
    doc = tree_to_dict(train_tree(data))
    assert json.loads(json.dumps(doc)) == doc


def test_an_edited_document_leaves_the_model_alone():
    data = _dataset([
        (200, 1, Label.TARGET), (150, 1, Label.TARGET), (90, 2, Label.TARGET),
        (30, 3, Label.SANDBOX), (25, 2, Label.SANDBOX), (40, 4, Label.SANDBOX),
        (60, 2, Label.TARGET), (35, 2, Label.SANDBOX),
    ])
    model = train_tree(data, TreeConfig(max_depth=4))

    def outputs():
        return ([(predict_tree(model, s.features), predict_proba(model, s.features))
                 for s in data], export_tree(model, "ascii"), export_tree(model, "dot"))

    before = outputs()
    root = tree_to_dict(model)["root"]
    root["threshold"] = -1.0                # at the top of the tree
    leaf = root["left"]
    while "label" not in leaf:
        leaf = leaf["left"]
    leaf["label"] = 1 - leaf["label"]       # and below it
    assert outputs() == before


def test_a_document_without_a_criterion_loads():
    data = _dataset([(10, 1, Label.TARGET), (40, 2, Label.SANDBOX)])
    doc = tree_to_dict(train_tree(data))
    del doc["criterion"]
    assert tree_to_dict(tree_from_dict(doc)) == {**doc, "criterion": "gini"}


def test_from_dict_rejects_garbage():
    with pytest.raises(ModelFormatError):
        tree_from_dict({"version": "something-else"})
    with pytest.raises(ModelFormatError):
        tree_from_dict({})
    data = _dataset([(10, 1, Label.TARGET), (40, 2, Label.SANDBOX)])
    model = train_tree(data)
    doc = tree_to_dict(model)
    with pytest.raises(ModelFormatError, match="^not a dtree-v1 document$"):
        tree_from_dict({**doc, "version": "dtree-v2"})  # a good tree of another version
    del doc["root"]["left"]
    with pytest.raises(ModelFormatError):
        tree_from_dict(doc)
    del model.root["left"]  # nor is such a root saved
    with pytest.raises(ModelFormatError):
        tree_to_dict(model)


def test_load_rejects_non_json(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("not json at all")
    with pytest.raises(ModelFormatError):
        read_model_file(bad)


def test_load_rejects_deeply_nested_json(tmp_path):
    deep = tmp_path / "deep.json"
    deep.write_text('{"version": "dtree-v1", "root": ' + '{"left": ' * 100_000
                    + "null" + "}" * 100_001)
    with pytest.raises(ModelFormatError):
        read_model_file(deep)
