"""Small fully-connected sigmoid network trained by gradient descent.

Default topology is 3 inputs, two hidden layers of 3 units, one output
unit, sigmoid everywhere.  Training is full-batch descent on mean binary
cross-entropy over min-max scaled features; the scaler is fitted on the
training split inside :func:`train_ann` and embedded in the model so
prediction can never leak test-set statistics.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DatasetTooSmall, LengthMismatch, ModelFormatError
from .features import (FeatureVector, Label, LabeledDataset, LabeledSample, ScalerParams,
                       _number, _typed, _whole, fit_scaler)

ANN_SCHEMA_VERSION = "ann-v1"
BCE_EPS = 1e-7
INIT_RANGE = 0.5  # initial weights and biases are uniform in +/- this


@dataclass
class AnnConfig:
    layer_sizes: tuple[int, ...] = (3, 3, 3, 1)
    learning_rate: float = 0.1
    epochs: int = 500
    seed: int = 0

    def __post_init__(self):
        if len(self.layer_sizes) < 2 or self.layer_sizes[0] != 3 or self.layer_sizes[-1] != 1:
            raise ValueError("layer_sizes must run from 3 inputs to 1 output")
        if self.learning_rate < 0:
            raise ValueError("learning_rate must be >= 0")
        if not np.isfinite(self.learning_rate):
            raise ValueError("learning_rate must be finite")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")


@dataclass
class NeuralNetModel:
    layer_sizes: tuple[int, ...]
    weights: list[np.ndarray]          # per layer, shape (fan_in, fan_out)
    biases: list[np.ndarray]           # per layer, shape (fan_out,)
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
    z = np.asarray(z, dtype=float)
    return np.exp(np.minimum(z, 0.0)) / (1.0 + np.exp(-np.abs(z)))


def init_network(config: AnnConfig) -> NeuralNetModel:
    """Fresh model with weights and biases uniform in +/- INIT_RANGE."""
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


def forward(model: NeuralNetModel, scaled_input) -> float:
    """Probability of the sandbox class for one already-scaled triple."""
    a = np.asarray(scaled_input, dtype=float).reshape(1, -1)
    return float(_forward_batch(model, a)[-1][0, 0])


def bce_loss(probs, labels) -> float:
    """Mean binary cross-entropy with probabilities clamped away from 0/1."""
    p = np.asarray(probs, dtype=float)
    y = np.asarray(labels, dtype=float)
    if p.shape != y.shape:
        raise LengthMismatch(f"{p.shape[0]} probabilities vs {y.shape[0]} labels")
    p = np.clip(p, BCE_EPS, 1.0 - BCE_EPS)
    return float(-np.mean(y * np.log(p) + (1.0 - y) * np.log(1.0 - p)))


def _gradients(model: NeuralNetModel, acts: list[np.ndarray], y: np.ndarray):
    """Backprop the mean-BCE loss from one forward pass's activations;
    returns (grads_w, grads_b)."""
    delta = (acts[-1] - y) / len(y)  # d(mean BCE)/d(pre-sigmoid output)
    grads_w, grads_b = [], []
    for layer in range(len(model.weights) - 1, -1, -1):
        grads_w.insert(0, acts[layer].T @ delta)
        grads_b.insert(0, delta.sum(axis=0))
        if layer > 0:
            a_prev = acts[layer]
            delta = (delta @ model.weights[layer].T) * a_prev * (1.0 - a_prev)
    return grads_w, grads_b


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
    config = config or AnnConfig()
    model = init_network(config)
    model.scaler = fit_scaler(train)
    x = model.scaler.transform(train.feature_matrix())
    y = train.label_array().astype(float).reshape(-1, 1)

    history = LossHistory()
    acts = _forward_batch(model, x)
    for _ in range(config.epochs):
        grads_w, grads_b = _gradients(model, acts, y)
        for w, gw in zip(model.weights, grads_w):
            w -= config.learning_rate * gw
        for b, gb in zip(model.biases, grads_b):
            b -= config.learning_rate * gb
        acts = _forward_batch(model, x)
        probs = acts[-1]
        history.bce.append(bce_loss(probs.ravel(), y.ravel()))
        history.mse.append(float(np.mean((probs - y) ** 2)))
    return model, history


def predict_ann(model: NeuralNetModel, v: FeatureVector) -> tuple[Label, float]:
    """Scale (with clamping), run forward, threshold at model.threshold.

    A probability exactly at the threshold resolves to sandbox.
    """
    x = v.as_array()
    if model.scaler is not None:
        x = model.scaler.transform(x)
    p = forward(model, x)
    return (Label.SANDBOX if p >= model.threshold else Label.TARGET), p


def gradient_check(model: NeuralNetModel, sample: LabeledSample, step: float = 1e-5) -> float:
    """Max relative error between analytic and central-difference gradients.

    Every weight and bias is perturbed individually; parameters whose
    analytic and numeric gradients are both ~0 contribute no error.
    """
    x = sample.features.as_array()
    if model.scaler is not None:
        x = model.scaler.transform(x)
    x = x.reshape(1, -1)
    y = np.array([[float(sample.label)]])

    grads_w, grads_b = _gradients(model, _forward_batch(model, x), y)
    analytic = grads_w + grads_b
    params = list(model.weights) + list(model.biases)

    worst = 0.0
    for theta, grad in zip(params, analytic):
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
    return worst


def ann_to_dict(model: NeuralNetModel) -> dict:
    return {
        "version": ANN_SCHEMA_VERSION,
        "layer_sizes": list(model.layer_sizes),
        "weights": [{"shape": list(w.shape), "data": w.ravel().tolist()}
                    for w in model.weights],
        "biases": [b.tolist() for b in model.biases],
        "scaler": None if model.scaler is None else
                  {"mins": list(model.scaler.mins), "maxs": list(model.scaler.maxs)},
        "threshold": model.threshold,
        "seed": model.seed,
    }


def ann_from_dict(doc: dict) -> NeuralNetModel:
    if not isinstance(doc, dict) or doc.get("version") != ANN_SCHEMA_VERSION:
        raise ModelFormatError(f"not an {ANN_SCHEMA_VERSION} document")
    try:
        sizes = tuple(map(_whole, _typed(doc["layer_sizes"], list)))
        layers = zip(_typed(doc["weights"], list, len(sizes) - 1),
                     _typed(doc["biases"], list, len(sizes) - 1), sizes[:-1], sizes[1:])
        weights, biases = [], []
        for rec, bias, fan_in, fan_out in layers:
            rec = _typed(rec, dict)
            if list(map(_whole, _typed(rec["shape"], list))) != [fan_in, fan_out]:
                raise ModelFormatError(f"weight shape {rec['shape']} does not match layers")
            weights.append(np.array([_number(v) for v in _typed(rec["data"], list)])
                           .reshape(fan_in, fan_out))
            biases.append(np.array([_number(v) for v in _typed(bias, list, fan_out)]))
        scaler = doc.get("scaler")
        if scaler is not None:
            scaler = _typed(scaler, dict)
            scaler = ScalerParams(mins=tuple(map(_number, _typed(scaler["mins"], list, 3))),
                                  maxs=tuple(map(_number, _typed(scaler["maxs"], list, 3))))
        model = NeuralNetModel(layer_sizes=sizes, weights=weights, biases=biases,
                               scaler=scaler, threshold=_number(doc.get("threshold", 0.5)),
                               seed=_whole(doc.get("seed", 0)))
    except (KeyError, ValueError) as e:
        raise ModelFormatError(str(e)) from None
    if sizes[0] != 3 or sizes[-1] != 1 or min(sizes) < 1:
        raise ModelFormatError(f"layer sizes {list(sizes)} do not run from 3 inputs to 1 output")
    if not 0.0 <= model.threshold <= 1.0:
        raise ModelFormatError(f"threshold {model.threshold} is not a probability")
    return model
