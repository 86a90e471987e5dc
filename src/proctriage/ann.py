"""Small fully-connected sigmoid network trained by gradient descent.

Default topology is 3 inputs, two hidden layers of 3 units, one output
unit, sigmoid everywhere.  Training is full-batch descent on mean binary
cross-entropy over min-max scaled features; the scaler is fitted on the
training split inside :func:`train_ann` and embedded in the model so
prediction can never leak test-set statistics.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .errors import DatasetTooSmall, LengthMismatch, ModelFormatError
from .features import (FeatureVector, Label, LabeledDataset, LabeledSample, ScalerParams,
                       _number, _typed, _whole, fit_scaler)

if TYPE_CHECKING:  # NumPy loads with the first network built, loaded or trained
    import numpy as np

ANN_SCHEMA_VERSION = "ann-v1"
BCE_EPS = 1e-7
INIT_RANGE = 0.5  # initial weights and biases are uniform in +/- this


@dataclass(frozen=True)
class AnnConfig:
    layer_sizes: tuple[int, ...] = (3, 3, 3, 1)
    learning_rate: float = 0.1
    epochs: int = 500
    seed: int = 0

    def __post_init__(self):
        # exactly int, as training and ann_to_dict use them: a bool, 1.5 or 3.0 is refused
        if (len(self.layer_sizes) < 2 or self.layer_sizes[0] != 3 or self.layer_sizes[-1] != 1
                or not all(type(n) is int and n >= 1 for n in self.layer_sizes)):
            raise ValueError("layer_sizes must run from 3 inputs to 1 output, each an integer >= 1")
        if self.learning_rate < 0:
            raise ValueError("learning_rate must be >= 0")
        if not math.isfinite(self.learning_rate):
            raise ValueError("learning_rate must be finite")
        if type(self.epochs) is not int or self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if type(self.seed) is not int or self.seed < 0:
            raise ValueError("seed must be an integer >= 0")


@dataclass
class NeuralNetModel:
    layer_sizes: tuple[int, ...]
    # per layer, arrays of shape (fan_in, fan_out) and (fan_out,); a served network
    # holds them as lists of floats in the same shape (see ann_from_dict)
    weights: list[np.ndarray]
    biases: list[np.ndarray]
    scaler: ScalerParams | None = None
    threshold: float = 0.5
    seed: int = 0

    def parameters(self):
        for w, b in zip(self.weights, self.biases):
            yield w
            yield b


@dataclass
class LossHistory:
    bce: list[float] = field(default_factory=list)
    mse: list[float] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.bce)


def sigmoid(z: np.ndarray) -> np.ndarray:
    # 1 / (1 + e^-z) for z >= 0 and e^z / (1 + e^z) below: exp never sees a positive power
    import numpy as np
    z = np.asarray(z, dtype=float)
    return np.exp(np.minimum(z, 0.0)) / (1.0 + np.exp(-np.abs(z)))


def init_network(config: AnnConfig) -> NeuralNetModel:
    """Fresh model with weights and biases uniform in +/- INIT_RANGE."""
    import numpy as np
    rng = np.random.default_rng(config.seed)
    weights, biases = [], []
    for fan_in, fan_out in zip(config.layer_sizes[:-1], config.layer_sizes[1:]):
        weights.append(rng.uniform(-INIT_RANGE, INIT_RANGE, (fan_in, fan_out)))
        biases.append(rng.uniform(-INIT_RANGE, INIT_RANGE, fan_out))
    return NeuralNetModel(layer_sizes=tuple(config.layer_sizes), weights=weights,
                          biases=biases, seed=config.seed)


def _forward_batch(model: NeuralNetModel, x: np.ndarray) -> list[np.ndarray]:
    """Activations per layer; index 0 is the input batch."""
    acts = [x]
    for w, b in zip(model.weights, model.biases):
        acts.append(sigmoid(acts[-1] @ w + b))
    return acts


def _plain(param) -> list:
    """A weight matrix or bias vector as (nested) lists of floats, however it is held."""
    return param.tolist() if hasattr(param, "tolist") else param


def _unit(inputs: list[float], weights, bias: float) -> float:
    """One unit's input: the products of ``inputs`` and ``weights`` summed left to
    right, plus ``bias``.

    Where that float sum is not finite (a product past the float range, or
    inf + -inf), the exactly rounded sum is returned instead, and +/-inf past
    the float range, so no NaN comes of finite inputs.
    """
    z = 0.0
    for a, w in zip(inputs, weights):
        z += a * w
    z += bias
    if math.isfinite(z) or not all(map(math.isfinite, inputs)):
        return z
    from fractions import Fraction
    exact = sum((Fraction(a) * Fraction(w) for a, w in zip(inputs, weights)), Fraction(bias))
    try:
        return float(exact)
    except OverflowError:
        return math.inf if exact > 0 else -math.inf


def forward(model: NeuralNetModel, scaled_input) -> float:
    """Probability of the sandbox class for one already-scaled triple.

    One row runs in plain floats, without NumPy: each unit is :func:`_unit`,
    then :func:`sigmoid`'s formula through ``math.exp``.  Parameters held as
    arrays or as lists give the same bits.
    """
    acts = [float(a) for a in scaled_input]
    for w, b in zip(model.weights, model.biases):
        zs = [_unit(acts, col, bias) for col, bias in zip(zip(*_plain(w)), _plain(b))]
        acts = [math.exp(min(z, 0.0)) / (1.0 + math.exp(-abs(z))) for z in zs]
    return acts[0]


def bce_loss(probs, labels) -> float:
    """Mean binary cross-entropy with probabilities clamped away from 0/1."""
    import numpy as np
    p = np.asarray(probs, dtype=float)
    y = np.asarray(labels, dtype=float)
    if p.shape != y.shape:
        raise LengthMismatch(f"{p.shape[0]} probabilities vs {y.shape[0]} labels")
    p = np.clip(p, BCE_EPS, 1.0 - BCE_EPS)
    return float(-np.mean(y * np.log(p) + (1.0 - y) * np.log(1.0 - p)))


def _gradients(model: NeuralNetModel, acts: list[np.ndarray], y: np.ndarray):
    """Backprop the mean-BCE loss from one forward pass's activations;
    returns one gradient per array, in ``model.parameters()`` order."""
    delta = (acts[-1] - y) / len(y)  # d(mean BCE)/d(pre-sigmoid output)
    grads = []
    for layer in range(len(model.weights) - 1, -1, -1):
        grads[:0] = acts[layer].T @ delta, delta.sum(axis=0)
        if layer > 0:
            a_prev = acts[layer]
            delta = (delta @ model.weights[layer].T) * a_prev * (1.0 - a_prev)
    return grads


def train_ann(train: LabeledDataset, config: AnnConfig | None = None
              ) -> tuple[NeuralNetModel, LossHistory]:
    """Full-batch gradient descent for ``config.epochs`` epochs.

    The min-max scaler is fitted here, on the training set only, and
    stored in the returned model.  The history records loss after each
    epoch's update; that epoch's forward pass also feeds the next
    epoch's gradients.
    """
    if not len(train):
        raise DatasetTooSmall("cannot train a network on an empty dataset")
    import numpy as np
    config = config or AnnConfig()
    model = init_network(config)
    model.scaler = fit_scaler(train)
    x = model.scaler.transform(train.feature_matrix())
    y = train.label_array().astype(float).reshape(-1, 1)

    history = LossHistory()
    acts = _forward_batch(model, x)
    for _ in range(config.epochs):
        for theta, grad in zip(model.parameters(), _gradients(model, acts, y)):
            theta -= config.learning_rate * grad
        acts = _forward_batch(model, x)
        probs = acts[-1]
        history.bce.append(bce_loss(probs.ravel(), y.ravel()))
        history.mse.append(float(np.mean((probs - y) ** 2)))
    return model, history


def _scaled(model: NeuralNetModel, v: FeatureVector) -> list[float]:
    """``v`` as the network's input: min-max scaled (with clamping) if the model has a scaler."""
    x = [float(v.process_count), float(v.user_count), v.ratio]
    return x if model.scaler is None else model.scaler.transform_row(x)


def predict_ann(model: NeuralNetModel, v: FeatureVector) -> tuple[Label, float]:
    """Scale (with clamping), run forward, threshold at model.threshold.

    A probability exactly at the threshold resolves to sandbox.
    """
    p = forward(model, _scaled(model, v))
    return (Label.SANDBOX if p >= model.threshold else Label.TARGET), p


def gradient_check(model: NeuralNetModel, sample: LabeledSample, step: float = 1e-5) -> float:
    """Max relative error between analytic and central-difference gradients.

    Every weight and bias is perturbed individually; parameters whose
    analytic and numeric gradients are both ~0 contribute no error.
    """
    import numpy as np
    x = np.array([_scaled(model, sample.features)])
    y = np.array([[float(sample.label)]])

    analytic = _gradients(model, _forward_batch(model, x), y)
    worst = 0.0
    for theta, grad in zip(model.parameters(), analytic):
        flat_theta = theta.ravel()
        flat_grad = grad.ravel()
        for i in range(flat_theta.size):
            orig = flat_theta[i]
            flat_theta[i] = orig + step
            lo_hi = bce_loss([forward(model, x[0])], y[0])
            flat_theta[i] = orig - step
            lo_lo = bce_loss([forward(model, x[0])], y[0])
            flat_theta[i] = orig
            numeric = (lo_hi - lo_lo) / (2.0 * step)
            a = abs(flat_grad[i])
            b = abs(numeric)
            if a < 1e-12 and b < 1e-12:
                continue
            worst = max(worst, abs(flat_grad[i] - numeric) / max(a, b))
    return float(worst)


def ann_to_dict(model: NeuralNetModel) -> dict:
    return {
        "version": ANN_SCHEMA_VERSION,
        "layer_sizes": list(model.layer_sizes),
        "weights": [{"shape": [len(w), len(w[0])], "data": [v for row in w for v in row]}
                    for w in map(_plain, model.weights)],
        "biases": [_plain(b) for b in model.biases],
        "scaler": None if model.scaler is None else
                  {"mins": list(model.scaler.mins), "maxs": list(model.scaler.maxs)},
        "threshold": model.threshold,
        "seed": model.seed,
    }


def ann_from_dict(doc: dict, arrays: bool = True) -> NeuralNetModel:
    """The checked network of an ann-v1 document.  Without ``arrays`` its weights
    and biases stay lists of floats, and NumPy is not loaded."""
    if not isinstance(doc, dict) or doc.get("version") != ANN_SCHEMA_VERSION:
        raise ModelFormatError(f"not an {ANN_SCHEMA_VERSION} document")
    try:
        sizes = tuple(map(_whole, _typed(doc["layer_sizes"], list)))
        config = AnnConfig(layer_sizes=sizes, seed=_whole(doc.get("seed", 0)))
        layers = zip(_typed(doc["weights"], list, len(sizes) - 1),
                     _typed(doc["biases"], list, len(sizes) - 1), sizes[:-1], sizes[1:])
        weights, biases = [], []
        for rec, bias, fan_in, fan_out in layers:
            rec = _typed(rec, dict)
            if list(map(_whole, _typed(rec["shape"], list))) != [fan_in, fan_out]:
                raise ModelFormatError(f"weight shape {rec['shape']} does not match layers")
            data = [_number(v) for v in _typed(rec["data"], list, fan_in * fan_out)]
            weights.append([data[i:i + fan_out] for i in range(0, len(data), fan_out)])
            biases.append([_number(v) for v in _typed(bias, list, fan_out)])
        scaler = doc.get("scaler")
        if scaler is not None:
            scaler = _typed(scaler, dict)
            scaler = ScalerParams(mins=tuple(map(_number, _typed(scaler["mins"], list, 3))),
                                  maxs=tuple(map(_number, _typed(scaler["maxs"], list, 3))))
        model = NeuralNetModel(layer_sizes=sizes, weights=weights, biases=biases,
                               scaler=scaler, threshold=_number(doc.get("threshold", 0.5)),
                               seed=config.seed)
    except (KeyError, ValueError) as e:
        raise ModelFormatError(str(e)) from None
    if not 0.0 <= model.threshold <= 1.0:
        raise ModelFormatError(f"threshold {model.threshold} is not a probability")
    if arrays:
        import numpy as np
        model.weights = [np.array(w) for w in weights]
        model.biases = [np.array(b) for b in biases]
    return model
