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

The four gates are stored stacked in one gate matrix W of shape
(4H, F+H+1): row blocks [kH, (k+1)H) are f, i, o, g in that order, and the
last column is the gate bias. The checkpoint document still names each
gate's weights and bias (W_f ... b_g), so it reads as before the stacking.

The bias rides in the gate product: a pass stores z_t as (x_t, h_{t-1}, 1),
so a step is one product W z_t, with no bias add and no weight copy. The
sigmoid, on the first 3H rows, is 1 / (1 + exp(-x)) in four in-place
numpy calls (negative, exp, add 1, reciprocal); exp overflows to inf below
x of about -709.78, whose reciprocal is the 0.0 the sigmoid rounds to
there, so each pass runs under one ``np.errstate(over="ignore")``. For
x >= 0 this is the bits of 1 / (1 + exp(-x)); for x < 0 it is within a
few ulp of exp(x) / (1 + exp(x)). tanh takes the last H rows.
Backpropagation likewise forms one (4H, batch) gradient at the
pre-activations per step and multiplies it once by z_t, whose last column
is then the bias gradient, and once by W's h columns; the first product
is added straight into W's gradient.

The prediction for a sequence is W_y h_T + b_y (no output activation; the
model works in normalized target space). :func:`forward` runs a batch of
sequences; a single sequence is a batch of one (``seq[None]``).

Memory. ``train`` runs every batch through one private workspace, built
when the batch size changes (at most twice an epoch, around a short last
batch) after the old one is dropped, so one workspace is alive at a time,
and released when ``train`` returns. It holds the BPTT cache, three arrays
stacked over time and stored feature-major with the batch last: Z (L+1,
F+H+1, B), whose slab t is z_t = (x_t, h_{t-1}, 1), so each h is stored
once and the constant row is set once, when the workspace is built; G (L,
4H, B), the activated gates; and C (L+1, H, B). Each gate block of a step,
and the sigmoid's whole 3H-row block, is then one contiguous slab, which
the elementwise operations run on faster than on the column slices of a
(B, 4H) array. The cache takes 8 B ((L+1)(F+2H+1) + 4LH) bytes. Beside it
lie the forward scratch (an (H, B) array and a (B, H) copy of the last h)
and the backward scratch (dA (4H, B), dh and dC, one (3H, B) and three
(H, B) temporaries, and one step's (4H, F+H+1) gradient product), 8 (B
((L+1)(F+2H+1) + 4LH + 14H) + 4H (F+H+1)) bytes in all: 12.9 MiB at
lookback 30, batch 64, 4 features and hidden 128, of which the cache is
11.5 MiB. The workspace also keeps, for each step, the tuple of views that
step reads and writes, so neither loop slices an array and every numpy
operation writes with ``out=``. The inputs are copied into Z once per
batch. The backward pass reads the cache and never writes into it; it
accumulates the weight gradient one step at a time. The public
:func:`forward` builds a workspace per call and returns it as the cache;
:func:`backward` runs in that workspace, so it allocates only the flat
gradient it returns. The optimizers update in place. The inference path (``keep_steps=False``, used
by :func:`predict`) runs the same loop in two alternating slots of Z and C
and one of G, so its memory does not grow with the lookback: 8 B
(2(F+H+1) + 8H) bytes with the scratch.
``predict`` runs all windows as one batch. Chunks of windows would bound
memory further, but a GEMM's bits can depend on its batch size: at
hidden 128, chunks of 1 or 7 of 500 windows gave predictions up to 2.2e-16
away from the full batch's, which would change prediction bytes.

``train`` keeps every parameter in one flat vector, in the order of
:meth:`LstmParams.tensors`, and the model's arrays are views of it; the
gradient, Adam's moments and one scratch vector share that layout, so
clipping and each optimizer operation are one numpy call. The clipping
norm still adds each tensor's sum of squares in tensor order (W's bias
column inside W's sum), so the bits are those of a tensor-by-tensor update.

A checkpoint is one compact ``json.dumps`` with sorted keys, so the json
module's C encoder writes it whole. In ``compare``, each feature mode's
process encodes its own checkpoints with :func:`checkpoint_to_json` and
predicts with them as training reaches each epoch size, and the CLI
writes that text (see ``evaluation.run_comparison``).
"""

from __future__ import annotations

import copy
import json
import math
from collections.abc import Callable
from dataclasses import asdict, dataclass, replace

from ._numpy import np
from .errors import NonFiniteLoss, PipelineError
from .features import FEATURE_MODES, ScalerParams, WindowedDataset, invert_target

OPTIMIZERS = ("adam", "sgd")

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class LstmParams:
    """The gate matrix plus the linear output projection.

    ``W`` is (4H, F+H+1), the matrix [W | b] that the gate product
    multiplies: rows [kH, (k+1)H) hold gate k of f, i, o, g, and the last
    column is the gate bias, so the bias of gate row r is ``W[r, -1]``.
    """

    W: np.ndarray
    W_y: np.ndarray
    b_y: np.ndarray
    input_size: int
    hidden_size: int

    def __post_init__(self):
        h, z = self.hidden_size, self.input_size + self.hidden_size + 1
        if self.W.shape != (4 * h, z):
            raise PipelineError(f"gate stack must be W ({4 * h}, {z}), got {self.W.shape}")
        if self.W_y.shape != (1, h) or self.b_y.shape != (1,):
            raise PipelineError("output projection must be (1, hidden) with scalar bias")
        for name, tensor in self.tensors():
            if not np.all(np.isfinite(tensor)):
                raise PipelineError(f"{name} contains non-finite entries")

    def tensors(self) -> tuple[tuple[str, np.ndarray], ...]:
        """(name, array) pairs in the fixed order used everywhere."""
        return (("W", self.W), ("W_y", self.W_y), ("b_y", self.b_y))


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
        if not 0 < self.learning_rate < math.inf:
            raise PipelineError("learning_rate must be a positive finite number")
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

    One draw fills the (4H, F+H) weights of the gate matrix W, then one
    fills W_y, so identical seeds give bit-identical parameters. Every gate
    block gets the Xavier limit of its own (H, F+H) shape, so the weights
    are the four per-gate draws stacked. The bias column starts at 1.0 in
    the forget rows and at 0 in every other.
    """
    if input_size < 1 or hidden_size < 1:
        raise ValueError("input_size and hidden_size must be positive")
    rng = np.random.default_rng(seed)
    h, z = hidden_size, input_size + hidden_size
    gate_limit = math.sqrt(6.0 / (h + z))
    try:
        W = np.zeros((4 * h, z + 1))
        W[:, :z] = rng.uniform(-gate_limit, gate_limit, size=(4 * h, z))
    except ValueError as exc:  # numpy refuses a shape past its maximum dimension
        raise PipelineError(f"hidden_size {hidden_size} needs a ({4 * h}, {z + 1}) gate matrix: {exc}") from exc
    W[:h, z] = 1.0
    out_limit = math.sqrt(6.0 / (1 + h))
    W_y = rng.uniform(-out_limit, out_limit, size=(1, h))
    return LstmParams(W=W, W_y=W_y, b_y=np.zeros(1), input_size=input_size, hidden_size=hidden_size)


class _Workspace:
    """Every array a forward and backward pass of one batch size use,
    allocated once, with the views each step reads and writes precomputed.

    ``Z``, ``G`` and ``C`` are the BPTT cache (see :func:`forward`); with
    ``keep_steps`` False they hold two alternating slots of Z and C and one
    of G, and there is no backward scratch. ``steps[t]`` is the tuple (z_t,
    the x rows of z_t, z_t transposed, the gate slab, its sigmoid block, f,
    i, o, g, C_t, C_{t+1}, the h rows of z_{t+1}). A pass writes every
    result into these arrays with ``out=``. Row F+H of every slab of Z is the
    constant 1 that multiplies the bias column of the gate matrix; it is set
    here and never written again. With ``keep_steps``, slot 0 of C and of
    Z's h rows is only read, so the zero start state set here holds for
    batch after batch of this size, and the last batch's ``Z``, ``G`` and
    ``C`` stay valid until the next forward pass. An inference workspace
    writes over slot 0 and serves one pass.
    """

    def __init__(self, input_size: int, hidden_size: int, batch: int, lookback: int, keep_steps: bool = True):
        F, H, B = input_size, hidden_size, batch
        self.input_size, self.hidden_size, self.batch = F, H, B
        self.keep_steps = keep_steps
        slots = lookback + 1 if keep_steps else 2
        self.Z = Z = np.empty((slots, F + H + 1, B))
        self.G = G = np.empty((slots - 1, 4 * H, B))
        self.C = C = np.empty((slots, H, B))
        Z[0, F:F + H] = 0.0
        Z[:, F + H] = 1.0
        C[0] = 0.0
        # Forward scratch: tmp for i * g and then tanh(C), h for a
        # contiguous (B, H) copy of the last h.
        self.tmp = np.empty((H, B))
        self.h = np.empty((B, H))
        self.h_last = Z[lookback % slots, F:F + H]
        self.steps = []
        for t in range(lookback):
            now, nxt = t % slots, (t + 1) % slots
            z, gates = Z[now], G[t % len(G)]
            self.steps.append((
                z, z[:F], z.T, gates, gates[:3 * H],
                gates[:H], gates[H:2 * H], gates[2 * H:3 * H], gates[3 * H:],
                C[now], C[nxt], Z[nxt, F:F + H],
            ))
        if keep_steps:
            # Backward scratch: dA, the loss gradient at the gate
            # pre-activations (row blocks f, i, o, g), dh and dC, one
            # (3H, B) and three (H, B) temporaries, and one step's product
            # dA z_t^T, the gate matrix's gradient from that step.
            self.dA = np.empty((4 * H, B))
            self.dA_blocks = (self.dA[:3 * H], self.dA[:H], self.dA[H:2 * H],
                              self.dA[2 * H:3 * H], self.dA[3 * H:])
            self.dh = np.empty((H, B))
            self.dC = np.empty((H, B))
            self.sig_scratch = np.empty((3 * H, B))
            self.t1, self.t2, self.t3 = np.empty((3, H, B))
            self.dW_step = np.empty((4 * H, F + H + 1))

    def forward(self, X: np.ndarray, params: LstmParams) -> np.ndarray:
        """Predictions for the (B, L, F) batch X; the cache is left in Z, G, C."""
        W, tmp = params.W, self.tmp
        xs = X.transpose(1, 2, 0)
        per_step_x = not self.keep_steps
        if not per_step_x:
            self.Z[:len(self.steps), :self.input_size] = xs
        # sigmoid(x) = 1 / (1 + exp(-x)): exp overflows to inf for x below
        # about -709.78, and 1 / inf is the 0.0 the sigmoid rounds to there.
        with np.errstate(over="ignore"):
            for t, (z, x_rows, _, gates, sig, f, i, o, g, c, c_next, h_next) in enumerate(self.steps):
                if per_step_x:
                    x_rows[...] = xs[t]
                np.matmul(W, z, out=gates)
                np.negative(sig, out=sig)
                np.exp(sig, out=sig)
                sig += 1.0
                np.reciprocal(sig, out=sig)
                np.tanh(g, out=g)
                np.multiply(f, c, out=c_next)
                np.multiply(i, g, out=tmp)
                c_next += tmp
                np.tanh(c_next, out=tmp)
                np.multiply(o, tmp, out=h_next)
        # A contiguous (B, H) copy: the product's bits can depend on h's stride.
        np.copyto(self.h, self.h_last.T)
        return self.h @ params.W_y[0] + params.b_y[0]

    def backward(self, dyhat: np.ndarray, params: LstmParams, out: np.ndarray) -> dict[str, np.ndarray]:
        """BPTT over the cache in Z, G, C; see :func:`backward`."""
        H, F = self.hidden_size, self.input_size
        W_hT = params.W[:, F:F + H].T
        grads = _tensor_views(out, F, H)
        dW, dW_step = grads["W"], self.dW_step
        grads["W_y"][0] = dyhat @ self.h
        grads["b_y"][0] = np.add.reduce(dyhat)

        dA, dh, dC = self.dA, self.dh, self.dC
        dA_sig, dA_f, dA_i, dA_o, dA_g = self.dA_blocks
        s3, t1, t2, t3 = self.sig_scratch, self.t1, self.t2, self.t3
        np.multiply(params.W_y[0][:, None], dyhat, out=dh)
        dC.fill(0.0)
        dW.fill(0.0)
        # Each operation keeps the operands and their order from the
        # expressions dC + dh * o * (1 - tanh(C)^2), sig * (1 - sig) and
        # (dC * i) * (1 - g^2), so the gradient's bits are theirs.
        for _, _, zT, _, sig, f, i, o, g, c, c_next, _ in reversed(self.steps):
            np.tanh(c_next, out=t1)
            np.multiply(dh, o, out=t3)
            np.multiply(t1, t1, out=t2)
            np.subtract(1.0, t2, out=t2)
            t3 *= t2
            dC += t3

            np.multiply(dC, c, out=dA_f)
            np.multiply(dC, g, out=dA_i)
            np.multiply(dh, t1, out=dA_o)
            np.subtract(1.0, sig, out=s3)
            np.multiply(sig, s3, out=s3)
            dA_sig *= s3
            np.multiply(dC, i, out=t2)
            np.multiply(g, g, out=t3)
            np.subtract(1.0, t3, out=t3)
            np.multiply(t2, t3, out=dA_g)

            # z_t's last row is 1, so the product's last column is the bias
            # gradient of this step.
            np.matmul(dA, zT, out=dW_step)
            dW += dW_step
            np.matmul(W_hT, dA, out=dh)
            dC *= f

        return grads


def forward(
    X: np.ndarray,
    params: LstmParams,
    keep_steps: bool = True,
) -> tuple[np.ndarray, _Workspace | None]:
    """Run a batch of sequences from a zero state; X is (batch, lookback, features).

    Returns (predictions, cache). The cache is the workspace the pass ran
    in, which :func:`backward` runs in too; its ``Z``, ``G`` and ``C`` are
    stacked over time with the batch last. Slab t of Z is z_t = (x_t,
    h_{t-1}, 1), so h_t sits in rows [F, F+H) of Z[t+1] (the first F rows
    of Z[L] are unused) and row F+H is 1 throughout; G[t] holds the
    activated gates f, i, o, g of step t as row blocks; C[0] is the zero
    start state and C[t+1] the cell state after step t. When keep_steps is
    False (inference path) the cache is None, and the same loop runs in two
    alternating slots of Z and C and one of G. Each call builds a workspace
    of its own, so the cache it returns shares no buffer with any other
    call.
    """
    if X.ndim != 3:
        raise PipelineError(f"expected (batch, lookback, features), got {X.shape}")
    if X.shape[2] != params.input_size:
        raise PipelineError(f"feature count {X.shape[2]} != input_size {params.input_size}")
    batch, lookback, F = X.shape
    workspace = _Workspace(F, params.hidden_size, batch, lookback, keep_steps)
    yhat = workspace.forward(X, params)
    return yhat, (workspace if keep_steps else None)


def _tensor_views(flat: np.ndarray, input_size: int, hidden_size: int) -> dict[str, np.ndarray]:
    """Views of a flat vector shaped like the parameter tensors, keyed and
    laid out in the order of :meth:`LstmParams.tensors`."""
    H, Z = hidden_size, input_size + hidden_size + 1
    views, start = {}, 0
    for name, shape in (("W", (4 * H, Z)), ("W_y", (1, H)), ("b_y", (1,))):
        size = math.prod(shape)
        views[name] = flat[start:start + size].reshape(shape)
        start += size
    return views


def backward(cache: _Workspace, d_prediction, params: LstmParams) -> dict[str, np.ndarray]:
    """Backpropagation through time in the workspace :func:`forward` returned.

    ``d_prediction`` is dLoss/dPrediction at the output unit, a scalar for
    one sequence or one entry per sequence of a batch; the caller owns the
    loss (squared error in training: 2 * (prediction - label)). Gradients
    are summed over the batch into a new flat vector of every parameter;
    the returned views of it are keyed like ``params.tensors()``. The
    cache is only read, so it can be backpropagated again; ``params`` must
    have the sizes of the forward pass.
    """
    if not isinstance(cache, _Workspace) or not cache.keep_steps or not cache.steps:
        raise PipelineError("steps are empty; run a forward pass first")
    if (params.input_size, params.hidden_size) != (cache.input_size, cache.hidden_size):
        raise PipelineError(f"params have input_size {params.input_size} and hidden_size {params.hidden_size}, "
                            f"the forward pass {cache.input_size} and {cache.hidden_size}")
    dyhat = np.atleast_1d(np.asarray(d_prediction, dtype=np.float64))
    if dyhat.shape != (cache.batch,):
        raise PipelineError("d_prediction batch size does not match the forward pass")
    return cache.backward(dyhat, params, np.empty(sum(tensor.size for _, tensor in params.tensors())))


class _Adam:
    """Adam with bias correction over the flat parameter vector, updated in
    place; ``step`` overwrites the gradient, which serves as its second
    scratch buffer beside the caller's ``scratch``."""

    def __init__(self, lr: float, size: int):
        self.lr = lr
        self.t = 0
        self.m = np.zeros(size)
        self.v = np.zeros(size)

    def step(self, theta: np.ndarray, g: np.ndarray, s: np.ndarray) -> None:
        self.t += 1
        m, v = self.m, self.v
        m *= ADAM_BETA1
        np.multiply(g, 1.0 - ADAM_BETA1, out=s)
        m += s
        v *= ADAM_BETA2
        np.multiply(g, g, out=s)
        s *= 1.0 - ADAM_BETA2
        v += s
        # theta -= lr * m_hat / (sqrt(v_hat) + eps), one operation at a time.
        np.divide(m, 1.0 - ADAM_BETA1 ** self.t, out=s)
        s *= self.lr
        np.divide(v, 1.0 - ADAM_BETA2 ** self.t, out=g)
        np.sqrt(g, out=g)
        g += ADAM_EPS
        s /= g
        theta -= s


class _Sgd:
    """Plain gradient descent; ``step`` overwrites the gradient."""

    def __init__(self, lr: float):
        self.lr = lr

    def step(self, theta: np.ndarray, g: np.ndarray, s: np.ndarray) -> None:
        g *= self.lr
        theta -= g


def _checked_squared_error(err: np.ndarray, epoch: int) -> float:
    """The sum of ``err``'s squares; :class:`NonFiniteLoss` when it is not finite."""
    batch_sq = float(np.add.reduce(err * err))
    if not math.isfinite(batch_sq):
        raise NonFiniteLoss(epoch)
    return batch_sq


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
    encountered (before each batch's update). A batch loss that is not
    finite raises :class:`NonFiniteLoss`; after the last update, the last
    batch is run forward once more for that check, since no later batch
    makes it. ``scaler`` and
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

    lookback, F, H = X.shape[1], X.shape[2], config.hidden_size
    # One flat vector holds every parameter, and params' arrays are views of
    # it, so the clipping and the optimizer run one numpy call per operation.
    theta = np.concatenate([tensor.ravel() for _, tensor in init_params(F, H, config.seed).tensors()])
    params = LstmParams(**_tensor_views(theta, F, H), input_size=F, hidden_size=H)
    grad = np.empty_like(theta)
    scratch = np.empty_like(theta)  # the squares for clipping, then Adam's scratch
    squares = tuple(_tensor_views(scratch, F, H).values())
    max_norm = config.grad_clip_norm
    optimizer = _Adam(config.learning_rate, theta.size) if config.optimizer == "adam" else _Sgd(config.learning_rate)
    rng = np.random.default_rng(config.seed)

    # One workspace at a time, rebuilt only when the batch size changes
    # (around a short last batch); the old one is dropped first.
    workspace = None
    loss_history = []
    for epoch in range(config.epochs):
        order = rng.permutation(n)
        sq_sum = 0.0
        # A diverging run overflows here before its loss turns non-finite;
        # the loss check reports it as NonFiniteLoss, so numpy stays quiet.
        with np.errstate(over="ignore", invalid="ignore"):
            for start in range(0, n, config.batch_size):
                idx = order[start:start + config.batch_size]
                if workspace is None or workspace.batch != len(idx):
                    workspace = None
                    workspace = _Workspace(F, H, len(idx), lookback)
                labels = y[idx]
                err = workspace.forward(X[idx], params) - labels
                sq_sum += _checked_squared_error(err, epoch)
                workspace.backward((2.0 / len(labels)) * err, params, grad)
                # Clip to a global L2 norm of max_norm. Each tensor's squares
                # are summed in its own shape (axis None, as np.sum does) and
                # the sums added in tensor order, so the norm has the bits of
                # a tensor-by-tensor sum.
                np.multiply(grad, grad, out=scratch)
                norm = math.sqrt(sum(float(np.add.reduce(sq, None)) for sq in squares))
                if not (norm <= max_norm or norm == 0.0):
                    grad *= max_norm / norm
                optimizer.step(theta, grad, scratch)
            if epoch == config.epochs - 1:
                _checked_squared_error(workspace.forward(X[idx], params) - labels, epoch)
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
    An empty window set yields an empty vector. A prediction that is not
    finite raises :class:`NonFiniteLoss` with the checkpoint's last epoch.
    """
    X = np.asarray(windows.sequences, dtype=np.float64)
    # A diverged model's products overflow; the check below reports it, so
    # numpy stays quiet.
    with np.errstate(over="ignore", invalid="ignore"):
        yhat, _ = forward(X, checkpoint.params, keep_steps=False)
        if checkpoint.scaler is not None:
            yhat = invert_target(yhat, checkpoint.scaler)
    bad = len(yhat) - int(np.count_nonzero(np.isfinite(yhat)))
    if bad:
        raise NonFiniteLoss(checkpoint.config.epochs - 1,
                            f"prediction became non-finite in {bad} of {len(yhat)} windows")
    return yhat


# Checkpoint persistence: versioned JSON with flattened row-major weights.
# The document keeps one weight and one bias array per gate; this order maps
# the gate names to the row blocks of W, whose last column is the bias.
_GATE_BLOCKS = ("f", "i", "o", "g")


def _checkpoint_document(checkpoint: Checkpoint) -> dict:
    p, scaler = checkpoint.params, checkpoint.scaler
    H = p.hidden_size
    arrays = {"W_y": p.W_y, "b_y": p.b_y}
    for k, gate in enumerate(_GATE_BLOCKS):
        block = p.W[k * H:(k + 1) * H]
        arrays[f"W_{gate}"] = block[:, :-1]
        arrays[f"b_{gate}"] = block[:, -1]
    return {
        "version": 1,
        "input_size": p.input_size,
        "hidden_size": H,
        "params": {name: tensor.ravel().tolist() for name, tensor in arrays.items()},
        "config": asdict(checkpoint.config),
        "scaler": None if scaler is None else {
            "feature_names": list(scaler.feature_names),
            "min": list(scaler.mins),
            "max": list(scaler.maxs),
        },
        "feature_mode": checkpoint.feature_mode,
        "loss_history": list(checkpoint.loss_history),
    }


def checkpoint_to_json(checkpoint: Checkpoint) -> str:
    """The checkpoint document as compact JSON with sorted keys; a NaN or
    infinity, which strict JSON cannot hold, raises :class:`NonFiniteLoss`."""
    try:
        return json.dumps(_checkpoint_document(checkpoint), sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise NonFiniteLoss(checkpoint.config.epochs - 1, "checkpoint would hold a non-finite number") from exc


def _json_int(value, name: str) -> int:
    """value itself when it is a JSON integer; a float such as 32.5 or a
    bool is refused rather than converted."""
    if type(value) is not int:
        raise PipelineError(f"{name} must be an integer, got {value!r}")
    return value


def checkpoint_from_json(text: str | bytes) -> Checkpoint:
    """Rebuild a checkpoint; a document this code cannot read raises
    :class:`PipelineError`.

    The sizes must be JSON integers, ``config.hidden_size`` must equal
    ``hidden_size``, and the feature mode must be ``hisa``, ``dlpm`` or
    null.
    """
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
        input_size = _json_int(doc["input_size"], "input_size")
        hidden_size = _json_int(doc["hidden_size"], "hidden_size")
        arrays = doc["params"]

        def array(name: str) -> np.ndarray:
            return np.array(arrays[name], dtype=np.float64)

        # Each gate's weights and bias are reshaped on their own, so entries
        # one array lacks and another has to spare cannot pass as a
        # well-shaped gate matrix.
        params = LstmParams(
            W=np.concatenate([
                np.column_stack((array(f"W_{g}").reshape(hidden_size, -1), array(f"b_{g}").reshape(hidden_size)))
                for g in _GATE_BLOCKS
            ]),
            W_y=array("W_y").reshape(1, -1),
            b_y=array("b_y"),
            input_size=input_size,
            hidden_size=hidden_size,
        )
        config = TrainConfig(**doc["config"])
        if _json_int(config.hidden_size, "config.hidden_size") != hidden_size:
            raise PipelineError(f"config.hidden_size {config.hidden_size} != hidden_size {hidden_size}")
        feature_mode = doc.get("feature_mode")
        if feature_mode is not None and feature_mode not in FEATURE_MODES:
            raise PipelineError(f"feature_mode must be one of {FEATURE_MODES} or null, got {feature_mode!r}")
        columns = doc.get("scaler")
        scaler = ScalerParams(
            feature_names=tuple(columns["feature_names"]),
            mins=tuple(float(x) for x in columns["min"]),
            maxs=tuple(float(x) for x in columns["max"]),
        ) if columns else None
        return Checkpoint(
            params=params,
            config=config,
            loss_history=tuple(doc["loss_history"]),
            scaler=scaler,
            feature_mode=feature_mode,
        )
    except (KeyError, TypeError, ValueError, OverflowError, PipelineError) as exc:
        raise PipelineError(f"malformed checkpoint ({type(exc).__name__}: {exc})") from exc


def save_checkpoint(checkpoint: Checkpoint, path) -> None:
    """Write :func:`checkpoint_to_json`'s text to ``path`` in one write;
    nothing is written when encoding fails."""
    text = checkpoint_to_json(checkpoint)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def load_checkpoint(path) -> Checkpoint:
    # Bytes, so that a file that is not UTF-8 fails inside the decoder too.
    with open(path, "rb") as fh:
        return checkpoint_from_json(fh.read())
