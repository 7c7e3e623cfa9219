"""From-scratch LSTM regressor: forward pass, BPTT, optimizers, training.

One LSTM layer feeds a linear output unit. Everything runs in double
precision on plain numpy and is bit-reproducible given a seed and a fixed
BLAS thread count: parameter init, batch shuffling, and optimizer state all
derive from the config seed and nothing else. (The matrix products go
through BLAS, whose summation order may depend on its thread count.)

Gate equations, with z = concat(x_t, h_{t-1}):

    f = sigmoid(W_f z + b_f)        forget gate
    i = sigmoid(W_i z + b_i)        input gate
    o = sigmoid(W_o z + b_o)        output gate
    g = tanh(W_g z + b_g)           candidate cell update
    C_t = f * C_{t-1} + i * g
    h_t = o * tanh(C_t)

The four gates are stored stacked: one weight W of shape (4H, F+H) and one
bias b of shape (4H,), whose row blocks [kH, (k+1)H) are f, i, o, g in that
order. A step is then one product z W^T + b, with the sigmoid applied to the
first 3H columns and tanh to the last H; backpropagation likewise forms one
(batch, 4H) gradient at the pre-activations and multiplies it once by z and
once by W. The checkpoint document still names each gate's block
(W_f ... b_g), so it reads the same as before the stacking.

The prediction for a sequence is W_y h_T + b_y (no output activation; the
model works in normalized target space). :func:`forward` runs a batch of
sequences; a single sequence is a batch of one (``seq[None]``).

Memory. A training forward pass allocates its BPTT cache once per call, as
three arrays stacked over time (:class:`Steps`): Z (L+1, B, F+H), whose
row t is z_t = (x_t, h_{t-1}), so each h is stored once; G (L, B, 4H), the
activated gates; and C (L+1, B, H). That is 8 B ((L+1)(F+2H) + 4LH) bytes,
11.4 MiB at lookback 30, batch 64, 4 features and hidden 128. Every step
writes into its rows in place (the product, the sigmoid, tanh and the cell
update) and allocates no array of its own. ``train`` runs each batch's
forward and backward pass in a function of its own, so only one cache is
alive at a time, and the optimizers update in place. The inference path
(``keep_steps=False``, used by :func:`predict`) runs the same loop in two
alternating slots of Z and C and one of G, so its memory does not grow
with the lookback: about 8 B (2(F+H) + 10H) bytes with the scratch.
``predict`` runs all windows as one batch. Chunks of windows would bound
memory further, but a GEMM row's bits can depend on the row count: at
hidden 128, chunks of 1 or 7 of 500 windows gave predictions up to 2.2e-16
away from the full batch's, which would change prediction bytes.
"""

from __future__ import annotations

import copy
import json
import math
from collections.abc import Callable, Sequence
from dataclasses import asdict, dataclass, replace
from typing import NamedTuple

import numpy as np

from .errors import NonFiniteLoss, PipelineError
from .features import ScalerParams, WindowedDataset, invert_target, scaler_from_dict, scaler_to_dict

OPTIMIZERS = ("adam", "sgd")

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class LstmParams:
    """The stacked gate weights and bias plus the linear output projection.

    ``W`` is (4H, F+H) and ``b`` is (4H,); rows [kH, (k+1)H) hold gate k of
    f, i, o, g.
    """

    W: np.ndarray
    b: np.ndarray
    W_y: np.ndarray
    b_y: np.ndarray
    input_size: int
    hidden_size: int

    def __post_init__(self):
        h, z = self.hidden_size, self.input_size + self.hidden_size
        if self.W.shape != (4 * h, z) or self.b.shape != (4 * h,):
            raise PipelineError(
                f"gate stack must be W ({4 * h}, {z}) and b ({4 * h},), got {self.W.shape} and {self.b.shape}"
            )
        if self.W_y.shape != (1, h) or self.b_y.shape != (1,):
            raise PipelineError("output projection must be (1, hidden) with scalar bias")
        for name, tensor in self.tensors():
            if not np.all(np.isfinite(tensor)):
                raise PipelineError(f"{name} contains non-finite entries")

    def tensors(self) -> tuple[tuple[str, np.ndarray], ...]:
        """(name, array) pairs in the fixed order used everywhere."""
        return (("W", self.W), ("b", self.b), ("W_y", self.W_y), ("b_y", self.b_y))


class Step(NamedTuple):
    """One timestep of a forward pass, as views into its :class:`Steps` cache.

    Every field is (batch, .); ``gates`` holds the activated f, i, o, g
    blocks side by side (batch, 4H).
    """

    z: np.ndarray
    gates: np.ndarray
    C_prev: np.ndarray
    C: np.ndarray
    h: np.ndarray


class Steps(Sequence[Step]):
    """The BPTT cache of one forward pass: three arrays stacked over time.

    ``Z`` is (L+1, B, F+H) and row t is z_t = (x_t, h_{t-1}), so h_t is
    stored once, in the last H columns of row t+1 (the first F columns of
    row L are unused). ``G`` is (L, B, 4H), the activated gates of each
    step. ``C`` is (L+1, B, H): C[0] is the zero start state and C[t+1] the
    cell state after step t. Item t is a :class:`Step` of views; nothing is
    copied.
    """

    def __init__(self, Z: np.ndarray, G: np.ndarray, C: np.ndarray):
        self.Z, self.G, self.C = Z, G, C

    def __len__(self) -> int:
        return len(self.G)

    def __getitem__(self, t: int) -> Step:
        t = range(len(self.G))[t]
        F = self.Z.shape[2] - self.C.shape[2]
        return Step(self.Z[t], self.G[t], self.C[t], self.C[t + 1], self.Z[t + 1, :, F:])


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
            raise PipelineError("epochs must be a positive integer")
        if not self.learning_rate > 0:
            raise PipelineError("learning_rate must be positive")
        if self.batch_size < 1:
            raise PipelineError("batch_size must be a positive integer")
        if not self.grad_clip_norm > 0:
            raise PipelineError("grad_clip_norm must be positive")
        if self.optimizer not in OPTIMIZERS:
            raise PipelineError(f"optimizer must be one of {OPTIMIZERS}, got {self.optimizer!r}")
        if self.hidden_size < 1:
            raise PipelineError("hidden_size must be a positive integer")
        if self.seed < 0:
            raise PipelineError("seed must be a non-negative integer")


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
    """Xavier-uniform weights from a seeded generator.

    One draw fills the gate stack W, then one fills W_y, so identical seeds
    give bit-identical parameters. Every gate block gets the Xavier limit of
    its own (H, F+H) shape, so W is the four per-gate draws stacked. The
    forget block of b starts at 1.0, every other bias at 0.
    """
    if input_size < 1 or hidden_size < 1:
        raise ValueError("input_size and hidden_size must be positive")
    rng = np.random.default_rng(seed)
    h, z = hidden_size, input_size + hidden_size
    gate_limit = math.sqrt(6.0 / (h + z))
    try:
        W = rng.uniform(-gate_limit, gate_limit, size=(4 * h, z))
    except ValueError as exc:  # numpy refuses a shape past its maximum dimension
        raise PipelineError(f"hidden_size {hidden_size} needs a ({4 * h}, {z}) gate matrix: {exc}") from exc
    out_limit = math.sqrt(6.0 / (1 + h))
    W_y = rng.uniform(-out_limit, out_limit, size=(1, h))
    b = np.zeros(4 * h)
    b[:h] = 1.0
    return LstmParams(W=W, b=b, W_y=W_y, b_y=np.zeros(1), input_size=input_size, hidden_size=hidden_size)


def _sigmoid_inplace(x: np.ndarray, e: np.ndarray, mask: np.ndarray) -> None:
    """Overwrite x with its logistic function; e (float) and mask (bool) are
    scratch arrays of x's shape.

    e = exp(-|x|) never overflows. It is exp(-x) for x >= 0 and exp(x)
    otherwise, so x becomes 1 / (1 + exp(-x)) or exp(x) / (1 + exp(x)) bit
    for bit. minimum(x, -x) rather than -abs(x) keeps a NaN's sign bit.
    """
    np.negative(x, out=e)
    np.minimum(x, e, out=e)
    np.exp(e, out=e)
    np.greater_equal(x, 0.0, out=mask)
    np.copyto(x, e)
    np.copyto(x, 1.0, where=mask)
    e += 1.0
    x /= e


def forward(
    X: np.ndarray,
    params: LstmParams,
    keep_steps: bool = True,
) -> tuple[np.ndarray, Sequence[Step]]:
    """Run a batch of sequences from a zero state; X is (batch, lookback, features).

    Returns (predictions, steps): the :class:`Steps` cache for
    :func:`backward`, or an empty tuple when keep_steps is False (inference
    path), which runs the same loop in two alternating slots of Z and C and
    one of G.
    """
    if X.ndim != 3:
        raise PipelineError(f"expected (batch, lookback, features), got {X.shape}")
    if X.shape[2] != params.input_size:
        raise PipelineError(f"feature count {X.shape[2]} != input_size {params.input_size}")
    batch, lookback, F = X.shape
    H = params.hidden_size
    slots = lookback + 1 if keep_steps else 2
    Z = np.empty((slots, batch, F + H))
    G = np.empty((slots - 1, batch, 4 * H))
    C = np.empty((slots, batch, H))
    Z[0, :, F:] = 0.0
    C[0] = 0.0
    # Scratch: e and mask for the sigmoid, tmp for i * g and then tanh(C).
    e = np.empty((batch, 3 * H))
    mask = np.empty((batch, 3 * H), dtype=bool)
    tmp = np.empty((batch, H))
    W_T = params.W.T
    for t in range(lookback):
        now, nxt = t % slots, (t + 1) % slots
        z, gates = Z[now], G[t % len(G)]
        z[:, :F] = X[:, t]
        np.matmul(z, W_T, out=gates)
        gates += params.b
        _sigmoid_inplace(gates[:, :3 * H], e, mask)
        np.tanh(gates[:, 3 * H:], out=gates[:, 3 * H:])
        f, i, o, g = gates[:, :H], gates[:, H:2 * H], gates[:, 2 * H:3 * H], gates[:, 3 * H:]
        C_next = C[nxt]
        np.multiply(f, C[now], out=C_next)
        np.multiply(i, g, out=tmp)
        C_next += tmp
        np.tanh(C_next, out=tmp)
        np.multiply(o, tmp, out=Z[nxt, :, F:])
    # A contiguous copy: the product's bits can depend on h's row stride.
    h = np.ascontiguousarray(Z[lookback % slots, :, F:])
    yhat = h @ params.W_y[0] + params.b_y[0]
    return yhat, (Steps(Z, G, C) if keep_steps else ())


def backward(steps: Sequence[Step], d_prediction, params: LstmParams) -> dict[str, np.ndarray]:
    """Backpropagation through time over the steps of a forward pass.

    ``d_prediction`` is dLoss/dPrediction at the output unit, a scalar for
    one sequence or one entry per sequence of a batch; the caller owns the
    loss (squared error in training: 2 * (prediction - label)). Gradients
    are summed over the batch and keyed like ``params.tensors()``.
    """
    if not steps:
        raise PipelineError("steps are empty; run a forward pass first")
    dyhat = np.atleast_1d(np.asarray(d_prediction, dtype=np.float64))
    h_last = np.ascontiguousarray(steps[-1].h)  # contiguous, as in forward
    if dyhat.shape != (h_last.shape[0],):
        raise PipelineError("d_prediction batch size does not match the forward pass")

    H, F = params.hidden_size, params.input_size
    W_h = params.W[:, F:]
    grads = {name: np.zeros_like(tensor) for name, tensor in params.tensors()}

    grads["W_y"][0] = dyhat @ h_last
    grads["b_y"][0] = dyhat.sum()
    dh = dyhat[:, None] * params.W_y[0]
    dC = np.zeros_like(dh)
    # dA: the loss gradient at the gate pre-activations, blocks f, i, o, g;
    # every step overwrites all of it.
    dA = np.empty((len(dh), 4 * H))

    for z, gates, C_prev, C, _ in reversed(steps):
        f, i, o, g = gates[:, :H], gates[:, H:2 * H], gates[:, 2 * H:3 * H], gates[:, 3 * H:]
        tanhC = np.tanh(C)
        dC = dC + dh * o * (1.0 - tanhC * tanhC)

        np.multiply(dC, C_prev, out=dA[:, :H])
        np.multiply(dC, g, out=dA[:, H:2 * H])
        np.multiply(dh, tanhC, out=dA[:, 2 * H:3 * H])
        sig = gates[:, :3 * H]
        dA[:, :3 * H] *= sig * (1.0 - sig)
        np.multiply(dC * i, 1.0 - g * g, out=dA[:, 3 * H:])

        grads["W"] += dA.T @ z
        grads["b"] += dA.sum(axis=0)
        dh = dA @ W_h
        dC = dC * f

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
    """Adam with bias correction, updated in place; ``step`` overwrites the
    gradient arrays, which serve as its second scratch buffer."""

    def __init__(self, lr: float):
        self.lr = lr
        self.t = 0
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}
        self.scratch: dict[str, np.ndarray] = {}

    def step(self, params: LstmParams, grads: dict[str, np.ndarray]) -> None:
        self.t += 1
        for name, tensor in params.tensors():
            g = grads[name]
            m = self.m.setdefault(name, np.zeros_like(tensor))
            v = self.v.setdefault(name, np.zeros_like(tensor))
            s = self.scratch.setdefault(name, np.empty_like(tensor))
            m *= ADAM_BETA1
            np.multiply(g, 1.0 - ADAM_BETA1, out=s)
            m += s
            v *= ADAM_BETA2
            np.multiply(g, g, out=s)
            s *= 1.0 - ADAM_BETA2
            v += s
            # tensor -= lr * m_hat / (sqrt(v_hat) + eps), one operation at a time.
            np.divide(m, 1.0 - ADAM_BETA1 ** self.t, out=s)
            s *= self.lr
            np.divide(v, 1.0 - ADAM_BETA2 ** self.t, out=g)
            np.sqrt(g, out=g)
            g += ADAM_EPS
            s /= g
            tensor -= s


class _Sgd:
    """Plain gradient descent; ``step`` overwrites the gradient arrays."""

    def __init__(self, lr: float):
        self.lr = lr

    def step(self, params: LstmParams, grads: dict[str, np.ndarray]) -> None:
        for name, tensor in params.tensors():
            g = grads[name]
            g *= self.lr
            tensor -= g


def _batch_gradients(
    X: np.ndarray, y: np.ndarray, params: LstmParams, epoch: int
) -> tuple[float, dict[str, np.ndarray]]:
    """The squared-error sum and the BPTT gradients of one batch.

    The batch's cache is local here and dies on return, so ``train`` never
    holds two caches at once.
    """
    yhat, steps = forward(X, params)
    err = yhat - y
    batch_sq = float(np.sum(err * err))
    if not math.isfinite(batch_sq):
        raise NonFiniteLoss(epoch)
    return batch_sq, backward(steps, (2.0 / len(y)) * err, params)


def train(
    windows: WindowedDataset,
    config: TrainConfig,
    scaler: ScalerParams | None = None,
    feature_mode: str | None = None,
    on_epoch: Callable[[Checkpoint], None] | None = None,
) -> Checkpoint:
    """Train on windowed sequences with MSE loss on normalized targets.

    Mini-batches are drawn in a seeded shuffled order each epoch; the
    recorded per-epoch loss is the mean squared error over all samples as
    encountered (before each batch's update). ``scaler`` and
    ``feature_mode`` are carried into the checkpoint so predictions can be
    denormalized and replayed later.

    ``on_epoch``, when given, receives after every epoch e a checkpoint of
    the model so far: its own copy of the parameters, ``config.epochs = e``
    and the first e losses. The random draws do not depend on
    ``config.epochs`` (init, then one permutation per epoch), so that
    checkpoint is the one ``train`` returns when run with ``epochs = e``.
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
            batch_sq, grads = _batch_gradients(X[idx], y[idx], params, epoch)
            sq_sum += batch_sq
            optimizer.step(params, clip_gradients(grads, config.grad_clip_norm))
        loss_history.append(sq_sum / n)
        if on_epoch is not None:
            on_epoch(
                Checkpoint(
                    params=copy.deepcopy(params),
                    config=replace(config, epochs=epoch + 1),
                    loss_history=tuple(loss_history),
                    scaler=scaler,
                    feature_mode=feature_mode,
                )
            )

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
    yhat, _ = forward(X, checkpoint.params, keep_steps=False)
    if checkpoint.scaler is None:
        return yhat
    return invert_target(yhat, checkpoint.scaler)


# Checkpoint persistence: versioned JSON with flattened row-major weights.
# The document keeps one array per gate; this order maps the gate names to
# the row blocks of W and b.
_GATE_BLOCKS = ("f", "i", "o", "g")


def _checkpoint_document(checkpoint: Checkpoint) -> dict:
    p = checkpoint.params
    H = p.hidden_size
    arrays = {"W_y": p.W_y, "b_y": p.b_y}
    for k, gate in enumerate(_GATE_BLOCKS):
        arrays[f"W_{gate}"] = p.W[k * H:(k + 1) * H]
        arrays[f"b_{gate}"] = p.b[k * H:(k + 1) * H]
    return {
        "version": 1,
        "input_size": p.input_size,
        "hidden_size": H,
        "params": {name: tensor.ravel().tolist() for name, tensor in arrays.items()},
        "config": asdict(checkpoint.config),
        "scaler": scaler_to_dict(checkpoint.scaler) if checkpoint.scaler else None,
        "feature_mode": checkpoint.feature_mode,
        "loss_history": list(checkpoint.loss_history),
    }


#: The checkpoint's one encoder; it keeps no state between documents.
_CHECKPOINT_ENCODER = json.JSONEncoder(sort_keys=True, indent=2)


def checkpoint_to_json(checkpoint: Checkpoint) -> str:
    return _CHECKPOINT_ENCODER.encode(_checkpoint_document(checkpoint))


def checkpoint_from_json(text: str | bytes) -> Checkpoint:
    """Rebuild a checkpoint; a document this code cannot read raises
    :class:`PipelineError`."""
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise PipelineError(f"checkpoint is not a JSON document: {exc}") from exc
    if not isinstance(doc, dict):
        raise PipelineError("checkpoint document is not a JSON object")
    version = doc.get("version")
    if version != 1:
        raise PipelineError(f"cannot load checkpoint version {version!r}")
    try:
        input_size = int(doc["input_size"])
        hidden_size = int(doc["hidden_size"])
        arrays = doc["params"]

        def array(name: str) -> np.ndarray:
            return np.array(arrays[name], dtype=np.float64)

        # Each gate block is reshaped on its own, so entries one gate lacks
        # and another has to spare cannot pass as a well-shaped stack.
        params = LstmParams(
            W=np.concatenate([array(f"W_{g}").reshape(hidden_size, -1) for g in _GATE_BLOCKS]),
            b=np.concatenate([array(f"b_{g}").reshape(hidden_size) for g in _GATE_BLOCKS]),
            W_y=array("W_y").reshape(1, -1),
            b_y=array("b_y"),
            input_size=input_size,
            hidden_size=hidden_size,
        )
        config = TrainConfig(**doc["config"])
        scaler = scaler_from_dict(doc["scaler"]) if doc.get("scaler") else None
        return Checkpoint(
            params=params,
            config=config,
            loss_history=tuple(doc["loss_history"]),
            scaler=scaler,
            feature_mode=doc.get("feature_mode"),
        )
    except (KeyError, TypeError, ValueError, OverflowError, PipelineError) as exc:
        raise PipelineError(f"malformed checkpoint ({type(exc).__name__}: {exc})") from exc


def save_checkpoint(checkpoint: Checkpoint, path) -> None:
    """Write :func:`checkpoint_to_json`'s text, streamed chunk by chunk
    from the same encoder rather than built whole in memory."""
    doc = _checkpoint_document(checkpoint)
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(_CHECKPOINT_ENCODER.iterencode(doc))


def load_checkpoint(path) -> Checkpoint:
    # Bytes, so that a file that is not UTF-8 fails inside the decoder too.
    with open(path, "rb") as fh:
        return checkpoint_from_json(fh.read())
