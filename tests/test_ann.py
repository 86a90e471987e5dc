"""Network internals: sigmoid, loss, training dynamics, persistence."""

import json
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from proctriage.ann import (
    BCE_EPS,
    AnnConfig,
    NeuralNetModel,
    _forward_batch,
    ann_from_dict,
    ann_to_dict,
    bce_loss,
    forward,
    gradient_check,
    init_network,
    predict_ann,
    sigmoid,
    train_ann,
)
from proctriage.datagen import GenConfig, generate_dataset
from proctriage.errors import DatasetTooSmall, LengthMismatch, ModelFormatError
from proctriage.features import (
    FeatureVector,
    Label,
    LabeledDataset,
    LabeledSample,
    ScalerParams,
    fit_scaler,
)
from proctriage.service import read_model_file


def _mk(pc, uc, label):
    return LabeledSample(FeatureVector.from_counts(pc, uc), label)


def _toy_dataset():
    return LabeledDataset(tuple([
        _mk(200, 1, Label.TARGET), _mk(150, 1, Label.TARGET),
        _mk(90, 2, Label.TARGET), _mk(120, 1, Label.TARGET),
        _mk(30, 3, Label.SANDBOX), _mk(25, 2, Label.SANDBOX),
        _mk(40, 4, Label.SANDBOX), _mk(35, 3, Label.SANDBOX),
    ]))


# -- primitives ----------------------------------------------------------------

def test_sigmoid_values_and_stability():
    assert sigmoid(np.array([0.0]))[0] == 0.5
    assert sigmoid(np.array([800.0]))[0] == 1.0
    assert sigmoid(np.array([-800.0]))[0] == pytest.approx(0.0, abs=1e-300)
    z = np.array([-3.0, -0.5, 0.5, 3.0])
    np.testing.assert_allclose(sigmoid(z) + sigmoid(-z), 1.0, atol=1e-15)


def _two_branch_sigmoid(z: np.ndarray) -> np.ndarray:
    """The reference: 1 / (1 + e^-z) where z >= 0, e^z / (1 + e^z) elsewhere."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def test_sigmoid_equals_the_two_branch_formula_bit_for_bit():
    rng = np.random.default_rng(3)
    anywhere = rng.integers(0, 2**64, 300_000, dtype=np.uint64).view(np.float64)
    edges = [0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324, 745.0, -745.0, 1000.0, -1000.0,
             709.78, -709.78, 36.8, -36.8, np.finfo(float).max, -np.finfo(float).max]
    z = np.concatenate([anywhere[np.isfinite(anywhere)], rng.uniform(-1000, 1000, 300_000),
                        rng.normal(0, 20, 300_000), edges])
    assert np.array_equal(sigmoid(z).view(np.uint64), _two_branch_sigmoid(z).view(np.uint64))


def test_init_is_deterministic_and_bounded():
    a = init_network(AnnConfig(seed=5))
    b = init_network(AnnConfig(seed=5))
    c = init_network(AnnConfig(seed=6))
    for wa, wb in zip(a.parameters(), b.parameters()):
        np.testing.assert_array_equal(wa, wb)
    assert any(not np.array_equal(wa, wc)
               for wa, wc in zip(a.parameters(), c.parameters()))
    for w in a.parameters():
        assert np.all(np.abs(w) <= 0.5)
    assert a.layer_sizes == (3, 3, 3, 1)
    assert [w.shape for w in a.weights] == [(3, 3), (3, 3), (3, 1)]


def test_config_validation():
    with pytest.raises(ValueError):
        AnnConfig(layer_sizes=(2, 3, 1))
    with pytest.raises(ValueError):
        AnnConfig(layer_sizes=(3,))
    with pytest.raises(ValueError):
        AnnConfig(learning_rate=-0.1)
    with pytest.raises(ValueError):
        AnnConfig(epochs=0)
    for rate in (math.inf, math.nan):
        with pytest.raises(ValueError):
            AnnConfig(learning_rate=rate)
    # exactly an int, as TreeConfig's fields: training would fail with TypeError, or
    # write a document that ann_from_dict refuses
    for field, value in [("epochs", 1.5), ("epochs", True), ("epochs", 3.0),
                         ("layer_sizes", (3, 2.0, 1)), ("layer_sizes", (3, 1.5, 1)),
                         ("layer_sizes", (3, True, 1)), ("layer_sizes", (3, 0, 1)),
                         ("seed", 1.5), ("seed", True), ("seed", 3.0), ("seed", -1)]:
        with pytest.raises(ValueError):
            AnnConfig(**{field: value})
    with pytest.raises(AttributeError):  # frozen: no assignment gets past the checks
        AnnConfig().epochs = 1.5


def test_a_network_with_no_hidden_layer_is_accepted():
    config = AnnConfig(layer_sizes=(3, 1))
    model = ann_from_dict(ann_to_dict(init_network(config)))
    assert model.layer_sizes == (3, 1) and model.weights[0].shape == (3, 1)
    assert 0.0 <= predict_ann(model, FeatureVector.from_counts(40, 4))[1] <= 1.0


def test_bce_hand_value():
    # p = 0.5 on both classes gives exactly ln 2
    assert bce_loss([0.5, 0.5], [0, 1]) == pytest.approx(math.log(2.0), rel=1e-12)
    # perfect predictions clamp at eps, loss stays tiny but finite
    loss = bce_loss([1.0, 0.0], [1, 0])
    assert 0.0 < loss < 1e-6


def test_bce_length_mismatch():
    with pytest.raises(LengthMismatch):
        bce_loss([0.5], [0, 1])


# -- training dynamics ---------------------------------------------------------

def test_zero_learning_rate_never_moves():
    model, history = train_ann(_toy_dataset(), AnnConfig(learning_rate=0.0, epochs=20, seed=3))
    fresh = init_network(AnnConfig(seed=3))
    for w, f in zip(model.parameters(), fresh.parameters()):
        np.testing.assert_array_equal(w, f)
    assert len(set(history.bce)) == 1


def test_history_has_one_entry_per_epoch():
    _, history = train_ann(_toy_dataset(), AnnConfig(epochs=37, seed=0))
    assert len(history) == 37
    assert len(history.mse) == 37


def test_history_records_post_update_loss():
    data = _toy_dataset()
    model, history = train_ann(data, AnnConfig(epochs=1, learning_rate=0.5, seed=2))
    # after one epoch the recorded loss matches the updated model exactly
    x = model.scaler.transform(data.feature_matrix())
    probs = np.array([forward(model, row) for row in x])
    assert bce_loss(probs, data.label_array()) == pytest.approx(history.bce[0], rel=1e-12)


def _two_pass_training(train, config):
    """Full-batch descent running one forward pass for the gradients and a
    second, after the update, for the recorded loss, in every epoch."""
    model = init_network(config)
    model.scaler = fit_scaler(train)
    x = model.scaler.transform(train.feature_matrix())
    y = train.label_array().astype(float).reshape(-1, 1)

    def forward_all():
        acts = [x]
        for w, b in zip(model.weights, model.biases):
            acts.append(sigmoid(acts[-1] @ w + b))
        return acts

    bce, mse = [], []
    for _ in range(config.epochs):
        acts = forward_all()
        delta = (acts[-1] - y) / x.shape[0]
        grads_w, grads_b = [], []
        for layer in range(len(model.weights) - 1, -1, -1):
            grads_w.insert(0, acts[layer].T @ delta)
            grads_b.insert(0, delta.sum(axis=0))
            if layer > 0:
                a_prev = acts[layer]
                delta = (delta @ model.weights[layer].T) * a_prev * (1.0 - a_prev)
        for w, gw in zip(model.weights, grads_w):
            w -= config.learning_rate * gw
        for b, gb in zip(model.biases, grads_b):
            b -= config.learning_rate * gb
        probs = forward_all()[-1]
        p = np.clip(probs.ravel(), BCE_EPS, 1.0 - BCE_EPS)
        t = np.asarray([int(v) for v in y.ravel()], dtype=float)
        bce.append(float(-np.mean(t * np.log(p) + (1.0 - t) * np.log(1.0 - p))))
        mse.append(float(np.mean((probs - y) ** 2)))
    return model, bce, mse


@pytest.mark.parametrize("lr", [0.1, 3.0])
def test_training_equals_two_forward_passes_per_epoch(lr):
    data = generate_dataset(GenConfig(n_safe=160, n_unsafe=40, seed=4))
    config = AnnConfig(learning_rate=lr, epochs=60, seed=7)
    model, history = train_ann(data, config)
    ref_model, ref_bce, ref_mse = _two_pass_training(data, config)
    assert history.bce == ref_bce and history.mse == ref_mse
    for got, want in zip(model.parameters(), ref_model.parameters()):
        np.testing.assert_array_equal(got, want)


def test_training_is_deterministic():
    m1, h1 = train_ann(_toy_dataset(), AnnConfig(seed=9, epochs=40))
    m2, h2 = train_ann(_toy_dataset(), AnnConfig(seed=9, epochs=40))
    for a, b in zip(m1.parameters(), m2.parameters()):
        np.testing.assert_array_equal(a, b)
    assert h1.bce == h2.bce and h1.mse == h2.mse


def test_training_learns_separable_toy_data():
    model, history = train_ann(_toy_dataset(), AnnConfig(learning_rate=3.0, epochs=500, seed=1))
    assert history.bce[-1] < history.bce[0]
    hits = sum(predict_ann(model, s.features)[0] == s.label for s in _toy_dataset())
    assert hits == 8


def test_scaler_comes_from_training_split_only():
    data = _toy_dataset()
    model, _ = train_ann(data, AnnConfig(epochs=1, seed=0))
    x = data.feature_matrix()
    assert model.scaler.mins == tuple(x.min(axis=0))
    assert model.scaler.maxs == tuple(x.max(axis=0))


def test_train_empty_raises():
    with pytest.raises(DatasetTooSmall):
        train_ann(LabeledDataset(()))


# -- prediction ------------------------------------------------------------------

def test_predict_threshold_tie_is_sandbox():
    model = init_network(AnnConfig(seed=0))
    # force the output unit to emit exactly 0.5
    model.weights[-1][:] = 0.0
    model.biases[-1][:] = 0.0
    model.scaler = ScalerParams(mins=(0.0, 0.0, 0.0), maxs=(300.0, 20.0, 300.0))
    label, p = predict_ann(model, FeatureVector.from_counts(40, 4))
    assert p == 0.5
    assert label == Label.SANDBOX


@pytest.mark.parametrize("threshold, label", [(0.0, Label.SANDBOX), (1.0, Label.TARGET)])
def test_a_threshold_at_either_end_of_0_to_1_loads(threshold, label):
    doc = ann_to_dict(init_network(AnnConfig(seed=0)))
    doc["threshold"] = threshold
    model = ann_from_dict(doc)
    assert model.threshold == threshold
    # the output sigmoid reads 0.5 here: at or above 0.0, below 1.0
    model.weights[-1][:] = 0.0
    model.biases[-1][:] = 0.0
    assert predict_ann(model, FeatureVector.from_counts(40, 4)) == (label, 0.5)


def test_predict_returns_probability():
    model, _ = train_ann(_toy_dataset(), AnnConfig(epochs=5, seed=0))
    label, p = predict_ann(model, FeatureVector.from_counts(40, 4))
    assert 0.0 <= p <= 1.0
    assert label in (Label.TARGET, Label.SANDBOX)


@st.composite
def _networks(draw, values):
    """A network of up to three hidden layers of 1-6 units, its weights and biases
    drawn from ``values``, held as arrays."""
    sizes = (3, *draw(st.lists(st.integers(1, 6), max_size=3)), 1)
    weights = [np.array(draw(st.lists(st.lists(values, min_size=fan_out, max_size=fan_out),
                                      min_size=fan_in, max_size=fan_in)))
               for fan_in, fan_out in zip(sizes, sizes[1:])]
    biases = [np.array(draw(st.lists(values, min_size=n, max_size=n))) for n in sizes[1:]]
    return NeuralNetModel(layer_sizes=sizes, weights=weights, biases=biases)


def _ulps(a: float, b: float) -> int:
    """How many doubles lie between two non-negative floats."""
    return abs(struct.unpack("<q", struct.pack("<d", a))[0]
               - struct.unpack("<q", struct.pack("<d", b))[0])


# Each unit's sum rounds apart from BLAS's, math.exp differs from NumPy's exp in the
# last bit, and a hidden layer passes its inputs' error on times up to 0.25 * 20 per
# input.  A sweep of 100,000 random networks of these shapes found 366 ulps at most.
FORWARD_ULPS = 2**16


@settings(max_examples=200, deadline=None)
@given(_networks(st.floats(-20.0, 20.0)), st.lists(st.floats(0.0, 1.0), min_size=3, max_size=3))
def test_one_row_forward_is_within_ulps_of_the_batch_pass(model, x):
    want = float(_forward_batch(model, np.array([x]))[-1][0, 0])
    assert _ulps(forward(model, x), want) <= FORWARD_ULPS


_ANY_FINITE = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=200, deadline=None)
@given(_networks(st.sampled_from([1e308, -1e308]) | _ANY_FINITE),
       st.none() | st.builds(ScalerParams, *[st.tuples(_ANY_FINITE, _ANY_FINITE, _ANY_FINITE)] * 2),
       st.integers(1, 2**24).flatmap(lambda pc: st.tuples(st.just(pc), st.integers(1, pc))))
def test_list_held_and_array_held_parameters_predict_the_same_bits(model, scaler, counts):
    model.scaler = scaler
    doc = ann_to_dict(model)
    listed = ann_from_dict(doc, arrays=False)
    assert type(listed.weights[0]) is list and type(listed.biases[0]) is list
    assert ann_to_dict(listed) == doc
    v = FeatureVector.from_counts(*counts)
    label, p = predict_ann(model, v)
    assert predict_ann(listed, v) == (label, p)
    assert struct.pack("<d", predict_ann(listed, v)[1]) == struct.pack("<d", p)
    assert 0.0 <= p <= 1.0  # finite, even where a unit's float sum is not


def test_a_sum_of_infinities_of_both_signs_reads_as_its_exact_sign():
    model = init_network(AnnConfig(layer_sizes=(3, 1)))
    v = FeatureVector.from_counts(40, 10)
    # 40 * 2**1020 + 10 * w is inf + -inf in floats; exactly, it is (2**1022 + w) * 10
    for w, bias, want in [(-2.0**1022, 0.0, (Label.SANDBOX, 0.5)),
                          (-2.0**1022, -1.0, (Label.TARGET, math.exp(-1) / (1 + math.exp(-1)))),
                          (-2.0**1021, 0.0, (Label.SANDBOX, 1.0)),  # past the float range
                          (-2.0**1023, 0.0, (Label.TARGET, 0.0))]:
        model.weights[0][:, 0] = [2.0**1020, w, 0.0]
        model.biases[0][:] = bias
        assert predict_ann(model, v) == want
    # an input that is not finite has no exact sum: NaN stays NaN, as in the batch pass
    assert math.isnan(forward(model, [math.nan, 1.0, 1.0]))


# -- gradient check ----------------------------------------------------------------

def test_gradient_check_close_to_numeric():
    model = init_network(AnnConfig(seed=0))
    model.scaler = ScalerParams(mins=(9.0, 1.0, 2.1), maxs=(305.0, 17.0, 305.0))
    sample = _mk(40, 4, Label.SANDBOX)
    worst = gradient_check(model, sample)
    assert type(worst) is float
    assert worst < 1e-4
    # a zero output weight leaves its hidden unit's incoming weights and bias
    # with exactly zero gradient, analytic and numeric: those are skipped
    model.weights[2][0, 0] = 0.0
    assert gradient_check(model, sample) < 1e-4


def test_gradient_check_detects_broken_gradient():
    model = init_network(AnnConfig(seed=0))
    model.scaler = ScalerParams(mins=(9.0, 1.0, 2.1), maxs=(305.0, 17.0, 305.0))
    sample = _mk(40, 4, Label.SANDBOX)
    baseline = gradient_check(model, sample)
    # a large finite-difference step degrades agreement measurably
    coarse = gradient_check(model, sample, step=0.5)
    assert coarse > baseline


# -- persistence ----------------------------------------------------------------

def test_json_roundtrip_bitwise(tmp_path):
    model, _ = train_ann(_toy_dataset(), AnnConfig(epochs=30, seed=4))
    path = tmp_path / "ann.json"
    path.write_text(json.dumps(ann_to_dict(model), indent=2) + "\n", encoding="utf-8")
    again = read_model_file(path).model
    assert again.layer_sizes == model.layer_sizes
    for a, b in zip(again.parameters(), model.parameters()):
        np.testing.assert_array_equal(a, b)
    assert again.scaler == model.scaler
    assert again.threshold == model.threshold
    v = FeatureVector.from_counts(40, 4)
    assert predict_ann(again, v) == predict_ann(model, v)


def test_from_dict_rejects_garbage():
    with pytest.raises(ModelFormatError):
        ann_from_dict({"version": "nope"})
    with pytest.raises(ModelFormatError):
        ann_from_dict([1, 2, 3])
    model = init_network(AnnConfig(seed=0))
    doc = ann_to_dict(model)
    doc["weights"][0]["shape"] = [2, 3]
    with pytest.raises(ModelFormatError):
        ann_from_dict(doc)


def test_from_dict_rejects_non_finite():
    model = init_network(AnnConfig(seed=0))
    doc = ann_to_dict(model)
    doc["weights"][0]["data"][0] = float("nan")
    with pytest.raises(ModelFormatError):
        ann_from_dict(doc)


def test_load_rejects_non_json(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    with pytest.raises(ModelFormatError):
        read_model_file(bad)
