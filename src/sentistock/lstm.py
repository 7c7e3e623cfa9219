"""From-scratch LSTM regressor: forward pass, BPTT, optimizers, training.

One LSTM layer feeds a linear output unit. Everything runs in double
precision on plain numpy, single-threaded, and is bit-reproducible given a
seed: parameter init, batch shuffling, and optimizer state all derive from
the config seed and nothing else.

Gate equations, with z = concat(x_t, h_{t-1}):

    f = sigmoid(W_f z + b_f)        forget gate
    i = sigmoid(W_i z + b_i)        input gate
    g = tanh(W_g z + b_g)           candidate cell update
    o = sigmoid(W_o z + b_o)        output gate
    C_t = f * C_{t-1} + i * g
    h_t = o * tanh(C_t)

The prediction for a sequence is W_y h_T + b_y (no output activation; the
model works in normalized target space).
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np

from .errors import (
    CheckpointFormatError,
    CheckpointVersionError,
    ConfigError,
    NonFiniteActivation,
    NonFiniteLoss,
    PipelineError,
    ShapeMismatch,
)
from .features import ScalerParams, WindowedDataset, invert_target, scaler_from_dict, scaler_to_dict

TENSOR_ORDER = ("W_f", "W_i", "W_o", "W_g", "b_f", "b_i", "b_o", "b_g", "W_y", "b_y")
OPTIMIZERS = ("adam", "sgd")

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class LstmParams:
    """Gate weights/biases plus the linear output projection."""

    W_f: np.ndarray
    W_i: np.ndarray
    W_o: np.ndarray
    W_g: np.ndarray
    b_f: np.ndarray
    b_i: np.ndarray
    b_o: np.ndarray
    b_g: np.ndarray
    W_y: np.ndarray
    b_y: np.ndarray
    input_size: int
    hidden_size: int

    def __post_init__(self):
        h, z = self.hidden_size, self.input_size + self.hidden_size
        for name in ("W_f", "W_i", "W_o", "W_g"):
            if getattr(self, name).shape != (h, z):
                raise ShapeMismatch(f"{name} must be ({h}, {z}), got {getattr(self, name).shape}")
        for name in ("b_f", "b_i", "b_o", "b_g"):
            if getattr(self, name).shape != (h,):
                raise ShapeMismatch(f"{name} must be ({h},)")
        if self.W_y.shape != (1, h) or self.b_y.shape != (1,):
            raise ShapeMismatch("output projection must be (1, hidden) with scalar bias")
        for name, tensor in self.tensors():
            if not np.all(np.isfinite(tensor)):
                raise ShapeMismatch(f"{name} contains non-finite entries")

    def tensors(self) -> tuple[tuple[str, np.ndarray], ...]:
        """(name, array) pairs in the fixed order used everywhere."""
        return tuple((name, getattr(self, name)) for name in TENSOR_ORDER)


@dataclass
class GateCache:
    """Per-timestep activations kept for the backward pass.

    Arrays are batched: shape (batch, .) even for a single sequence.
    """

    z: np.ndarray
    f: np.ndarray
    i: np.ndarray
    o: np.ndarray
    g: np.ndarray
    C_prev: np.ndarray
    C: np.ndarray
    h: np.ndarray


@dataclass(frozen=True)
class TrainConfig:
    epochs: int
    learning_rate: float = 1e-3
    batch_size: int = 32
    seed: int = 0
    grad_clip_norm: float = 5.0
    optimizer: str = "adam"
    hidden_size: int = 32

    def __post_init__(self):
        if self.epochs < 1:
            raise ConfigError("epochs must be a positive integer")
        if not self.learning_rate > 0:
            raise ConfigError("learning_rate must be positive")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be a positive integer")
        if not self.grad_clip_norm > 0:
            raise ConfigError("grad_clip_norm must be positive")
        if self.optimizer not in OPTIMIZERS:
            raise ConfigError(f"optimizer must be one of {OPTIMIZERS}, got {self.optimizer!r}")
        if self.hidden_size < 1:
            raise ConfigError("hidden_size must be a positive integer")


@dataclass
class Checkpoint:
    """Trained parameters plus everything needed to replay a run."""

    params: LstmParams
    config: TrainConfig
    loss_history: tuple[float, ...]
    scaler: ScalerParams | None = None
    feature_mode: str | None = None

    def __post_init__(self):
        if len(self.loss_history) != self.config.epochs:
            raise ValueError("loss_history must hold one entry per epoch")


def init_params(input_size: int, hidden_size: int, seed: int) -> LstmParams:
    """Xavier-uniform gate weights from a seeded generator.

    Draw order is fixed (W_f, W_i, W_o, W_g, W_y) so identical seeds give
    bit-identical parameters. The forget-gate bias starts at 1.0, every
    other bias at 0.
    """
    if input_size < 1 or hidden_size < 1:
        raise ValueError("input_size and hidden_size must be positive")
    rng = np.random.default_rng(seed)
    z = input_size + hidden_size

    def xavier(rows: int, cols: int) -> np.ndarray:
        limit = math.sqrt(6.0 / (rows + cols))
        return rng.uniform(-limit, limit, size=(rows, cols))

    return LstmParams(
        W_f=xavier(hidden_size, z),
        W_i=xavier(hidden_size, z),
        W_o=xavier(hidden_size, z),
        W_g=xavier(hidden_size, z),
        b_f=np.ones(hidden_size),
        b_i=np.zeros(hidden_size),
        b_o=np.zeros(hidden_size),
        b_g=np.zeros(hidden_size),
        W_y=xavier(1, hidden_size),
        b_y=np.zeros(1),
        input_size=input_size,
        hidden_size=hidden_size,
    )


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # Piecewise form avoids exp overflow for large-magnitude inputs.
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _step(x: np.ndarray, h_prev: np.ndarray, C_prev: np.ndarray, p: LstmParams) -> GateCache:
    """One batched LSTM step; x is (batch, input)."""
    z = np.concatenate([x, h_prev], axis=1)
    f = _sigmoid(z @ p.W_f.T + p.b_f)
    i = _sigmoid(z @ p.W_i.T + p.b_i)
    o = _sigmoid(z @ p.W_o.T + p.b_o)
    g = np.tanh(z @ p.W_g.T + p.b_g)
    C = f * C_prev + i * g
    h = o * np.tanh(C)
    return GateCache(z=z, f=f, i=i, o=o, g=g, C_prev=C_prev, C=C, h=h)


def _forward_batch(
    X: np.ndarray,
    params: LstmParams,
    keep_caches: bool = True,
) -> tuple[np.ndarray, list[GateCache], np.ndarray]:
    """Run a batch of sequences; X is (batch, lookback, features).

    Returns (predictions, caches, final hidden state). Caches are empty
    when keep_caches is False (inference path).
    """
    if X.ndim != 3:
        raise ShapeMismatch(f"expected (batch, lookback, features), got {X.shape}")
    if X.shape[2] != params.input_size:
        raise ShapeMismatch(f"feature count {X.shape[2]} != input_size {params.input_size}")
    batch, steps, _ = X.shape
    h = np.zeros((batch, params.hidden_size))
    C = np.zeros((batch, params.hidden_size))
    caches: list[GateCache] = []
    for t in range(steps):
        cache = _step(X[:, t, :], h, C, params)
        h, C = cache.h, cache.C
        if keep_caches:
            caches.append(cache)
    yhat = h @ params.W_y[0] + params.b_y[0]
    return yhat, caches, h


def sequence_forward(sequence: np.ndarray, params: LstmParams) -> tuple[float, list[GateCache]]:
    """Forward one sequence (lookback, features) from a zero initial state."""
    sequence = np.asarray(sequence, dtype=np.float64)
    if sequence.ndim != 2:
        raise ShapeMismatch(f"sequence must be 2-D, got shape {sequence.shape}")
    if sequence.shape[0] < 1:
        raise ShapeMismatch("sequence must contain at least one timestep")
    yhat, caches, _ = _forward_batch(sequence[None, :, :], params)
    prediction = float(yhat[0])
    if not math.isfinite(prediction):
        raise NonFiniteActivation("forward pass produced a non-finite prediction")
    return prediction, caches


def backward(
    caches: Sequence[GateCache],
    d_prediction: float,
    params: LstmParams,
    clip_norm: float | None = None,
) -> dict[str, np.ndarray]:
    """Backpropagation through time for one sequence.

    ``d_prediction`` is dLoss/dPrediction at the output unit; the caller
    owns the loss (squared error in training: 2 * (prediction - label)).
    When ``clip_norm`` is given, the global L2 norm over all parameter
    gradients is clipped to it after accumulation.
    """
    grads = _bptt(caches, np.array([float(d_prediction)]), params)
    if clip_norm is not None:
        grads = clip_gradients(grads, clip_norm)
    return grads


def _bptt(caches: Sequence[GateCache], dyhat: np.ndarray, params: LstmParams) -> dict[str, np.ndarray]:
    if not caches:
        raise ShapeMismatch("caches are empty; run a forward pass first")
    if dyhat.shape != (caches[-1].h.shape[0],):
        raise ShapeMismatch("d_prediction batch size does not match caches")

    F = params.input_size
    grads = {name: np.zeros_like(tensor) for name, tensor in params.tensors()}

    grads["W_y"][0] = dyhat @ caches[-1].h
    grads["b_y"][0] = dyhat.sum()
    dh = dyhat[:, None] * params.W_y[0]
    dC = np.zeros_like(dh)

    for cache in reversed(caches):
        tanhC = np.tanh(cache.C)
        do = dh * tanhC
        dC = dC + dh * cache.o * (1.0 - tanhC * tanhC)
        df = dC * cache.C_prev
        di = dC * cache.g
        dg = dC * cache.i

        dzf = df * cache.f * (1.0 - cache.f)
        dzi = di * cache.i * (1.0 - cache.i)
        dzo = do * cache.o * (1.0 - cache.o)
        dzg = dg * (1.0 - cache.g * cache.g)

        grads["W_f"] += dzf.T @ cache.z
        grads["W_i"] += dzi.T @ cache.z
        grads["W_o"] += dzo.T @ cache.z
        grads["W_g"] += dzg.T @ cache.z
        grads["b_f"] += dzf.sum(axis=0)
        grads["b_i"] += dzi.sum(axis=0)
        grads["b_o"] += dzo.sum(axis=0)
        grads["b_g"] += dzg.sum(axis=0)

        dz = dzf @ params.W_f + dzi @ params.W_i + dzo @ params.W_o + dzg @ params.W_g
        dh = dz[:, F:]
        dC = dC * cache.f

    return grads


def gradient_norm(grads: dict[str, np.ndarray]) -> float:
    """Global L2 norm across every parameter tensor."""
    return math.sqrt(sum(float(np.sum(g * g)) for g in grads.values()))


def clip_gradients(grads: dict[str, np.ndarray], max_norm: float) -> dict[str, np.ndarray]:
    """Scale all gradients so the global L2 norm does not exceed max_norm."""
    total = gradient_norm(grads)
    if total <= max_norm or total == 0.0:
        return grads
    scale = max_norm / total
    return {name: g * scale for name, g in grads.items()}


class _Adam:
    def __init__(self, lr: float):
        self.lr = lr
        self.t = 0
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}

    def step(self, params: LstmParams, grads: dict[str, np.ndarray]) -> None:
        self.t += 1
        for name, tensor in params.tensors():
            g = grads[name]
            m = self.m.setdefault(name, np.zeros_like(tensor))
            v = self.v.setdefault(name, np.zeros_like(tensor))
            m *= ADAM_BETA1
            m += (1.0 - ADAM_BETA1) * g
            v *= ADAM_BETA2
            v += (1.0 - ADAM_BETA2) * (g * g)
            m_hat = m / (1.0 - ADAM_BETA1 ** self.t)
            v_hat = v / (1.0 - ADAM_BETA2 ** self.t)
            tensor -= self.lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


class _Sgd:
    def __init__(self, lr: float):
        self.lr = lr

    def step(self, params: LstmParams, grads: dict[str, np.ndarray]) -> None:
        for name, tensor in params.tensors():
            tensor -= self.lr * grads[name]


def train(
    windows: WindowedDataset,
    config: TrainConfig,
    scaler: ScalerParams | None = None,
    feature_mode: str | None = None,
) -> Checkpoint:
    """Train on windowed sequences with MSE loss on normalized targets.

    Mini-batches are drawn in a seeded shuffled order each epoch; the
    recorded per-epoch loss is the mean squared error over all samples as
    encountered (before each batch's update). ``scaler`` and
    ``feature_mode`` are carried into the checkpoint so predictions can be
    denormalized and replayed later.
    """
    n = len(windows)
    if n == 0:
        raise ValueError("cannot train on an empty window set")
    X = np.asarray(windows.sequences, dtype=np.float64)
    y = np.asarray(windows.labels, dtype=np.float64)

    params = init_params(X.shape[2], config.hidden_size, config.seed)
    optimizer = _Adam(config.learning_rate) if config.optimizer == "adam" else _Sgd(config.learning_rate)
    rng = np.random.default_rng(config.seed)

    loss_history = []
    for epoch in range(config.epochs):
        order = rng.permutation(n)
        sq_sum = 0.0
        for start in range(0, n, config.batch_size):
            idx = order[start:start + config.batch_size]
            yhat, caches, _ = _forward_batch(X[idx], params)
            err = yhat - y[idx]
            batch_sq = float(np.sum(err * err))
            if not math.isfinite(batch_sq):
                raise NonFiniteLoss(epoch)
            sq_sum += batch_sq
            dyhat = (2.0 / len(idx)) * err
            grads = _bptt(caches, dyhat, params)
            grads = clip_gradients(grads, config.grad_clip_norm)
            optimizer.step(params, grads)
        loss_history.append(sq_sum / n)

    return Checkpoint(
        params=params,
        config=config,
        loss_history=tuple(loss_history),
        scaler=scaler,
        feature_mode=feature_mode,
    )


def predict(checkpoint: Checkpoint, windows: WindowedDataset) -> np.ndarray:
    """Predictions in currency units (inverse target scaling applied).

    Without a scaler on the checkpoint, raw normalized outputs come back.
    An empty window set yields an empty vector.
    """
    if len(windows) == 0:
        return np.empty(0, dtype=np.float64)
    X = np.asarray(windows.sequences, dtype=np.float64)
    if X.shape[2] != checkpoint.params.input_size:
        raise ShapeMismatch(
            f"window feature count {X.shape[2]} != model input size {checkpoint.params.input_size}"
        )
    yhat, _, _ = _forward_batch(X, checkpoint.params, keep_caches=False)
    if checkpoint.scaler is None:
        return yhat
    return invert_target(yhat, checkpoint.scaler)


# Checkpoint persistence: versioned JSON with flattened row-major weights.

def checkpoint_to_json(checkpoint: Checkpoint) -> str:
    doc = {
        "version": 1,
        "input_size": checkpoint.params.input_size,
        "hidden_size": checkpoint.params.hidden_size,
        "params": {name: tensor.ravel().tolist() for name, tensor in checkpoint.params.tensors()},
        "config": asdict(checkpoint.config),
        "scaler": scaler_to_dict(checkpoint.scaler) if checkpoint.scaler else None,
        "feature_mode": checkpoint.feature_mode,
        "loss_history": list(checkpoint.loss_history),
    }
    return json.dumps(doc, sort_keys=True, indent=2)


def checkpoint_from_json(text: str | bytes) -> Checkpoint:
    """Rebuild a checkpoint; a document this code cannot read raises
    :class:`CheckpointFormatError` (its subclass for an unknown version)."""
    try:
        doc = json.loads(text)
    except ValueError as exc:
        raise CheckpointFormatError(f"checkpoint is not a JSON document: {exc}") from exc
    if not isinstance(doc, dict):
        raise CheckpointFormatError("checkpoint document is not a JSON object")
    version = doc.get("version")
    if version != 1:
        raise CheckpointVersionError(f"cannot load checkpoint version {version!r}")
    try:
        input_size = int(doc["input_size"])
        hidden_size = int(doc["hidden_size"])
        z = input_size + hidden_size
        shapes = {
            "W_f": (hidden_size, z), "W_i": (hidden_size, z),
            "W_o": (hidden_size, z), "W_g": (hidden_size, z),
            "b_f": (hidden_size,), "b_i": (hidden_size,),
            "b_o": (hidden_size,), "b_g": (hidden_size,),
            "W_y": (1, hidden_size), "b_y": (1,),
        }
        tensors = {
            name: np.array(doc["params"][name], dtype=np.float64).reshape(shape)
            for name, shape in shapes.items()
        }
        params = LstmParams(input_size=input_size, hidden_size=hidden_size, **tensors)
        config = TrainConfig(**doc["config"])
        scaler = scaler_from_dict(doc["scaler"]) if doc.get("scaler") else None
        return Checkpoint(
            params=params,
            config=config,
            loss_history=tuple(doc["loss_history"]),
            scaler=scaler,
            feature_mode=doc.get("feature_mode"),
        )
    except (KeyError, TypeError, ValueError, PipelineError) as exc:
        raise CheckpointFormatError(f"malformed checkpoint ({type(exc).__name__}: {exc})") from exc


def save_checkpoint(checkpoint: Checkpoint, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(checkpoint_to_json(checkpoint))


def load_checkpoint(path) -> Checkpoint:
    # Bytes, so that a file that is not UTF-8 fails inside the decoder too.
    with open(path, "rb") as fh:
        return checkpoint_from_json(fh.read())
