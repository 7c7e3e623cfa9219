"""Independent reference implementations used as test oracles.

Nothing here may import from the modules it checks beyond plain data types;
each oracle is a separate transcription of the documented rule, kept
deliberately naive so a bug in the production path cannot hide in both.
"""

import math
import re

import numpy as np

from sentistock.lstm import ADAM_BETA1, ADAM_BETA2, ADAM_EPS, Checkpoint, LstmParams, backward, forward, init_params
from sentistock.sentiment import Lexicon


_REFERENCE_URL_RE = re.compile(r"(?:https?://|www\.)\S+", re.IGNORECASE)
_REFERENCE_MENTION_RE = re.compile(r"@\w+")
_REFERENCE_TOKEN_RE = re.compile(r"[^\W_]+")


def reference_tokenize(text: str) -> list[str]:
    """The tokenizer rule as three regexes, on any text.

    URLs, then @-mentions, become a space; the tokens are the remaining
    runs of unicode letters and digits (``_`` splits), each lowercased.
    """
    text = _REFERENCE_URL_RE.sub(" ", text)
    text = _REFERENCE_MENTION_RE.sub(" ", text)
    return [t.lower() for t in _REFERENCE_TOKEN_RE.findall(text)]


def reference_score_polarity(tokens, lexicon: Lexicon) -> float:
    """Brute-force transcription of the sentiment scoring rule.

    For every scoring term, gather the modifiers queued since the previous
    scoring term and multiply them onto the term's polarity in encounter
    order: a negator contributes -0.5, an intensity-carrying term its
    intensity. Clause scores are clipped, averaged, and clipped again.
    """
    clause_scores = []
    queued = []
    for tok in tokens:
        if tok in lexicon.negators:
            queued.append(-0.5)
        elif tok in lexicon.terms:
            entry = lexicon.terms[tok]
            if entry.intensity != 1.0:
                queued.append(entry.intensity)
            else:
                value = entry.polarity
                for modifier in queued:
                    value = value * modifier
                clause_scores.append(max(-1.0, min(1.0, value)))
                queued = []
    if not clause_scores:
        return 0.0
    mean = sum(clause_scores) / len(clause_scores)
    return max(-1.0, min(1.0, mean))


def masked_sigmoid_reference(x: np.ndarray) -> np.ndarray:
    """Logistic function split by a boolean mask on the sign of x.

    1 / (1 + exp(-x)) where x >= 0 and exp(x) / (1 + exp(x)) elsewhere
    (NaN included), so neither branch overflows.
    """
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def scalar_cell_reference(x, h_prev, C_prev, params: LstmParams):
    """One LSTM step computed with pure-Python scalar loops.

    Independent of every numpy vectorization choice in the production cell.
    Unit j of each gate reads row j of that gate's block of the stacked
    ``params.W``, whose last column is the bias: f at rows [0, H), i at
    [H, 2H), o at [2H, 3H) and g at [3H, 4H).
    Returns (h, C) as lists of floats.
    """

    def sigmoid(v):
        return 1.0 / (1.0 + math.exp(-v))

    z = list(x) + list(h_prev)
    H = params.hidden_size

    def pre(row):
        return sum(params.W[row][k] * z[k] for k in range(len(z))) + params.W[row][-1]

    h_out, C_out = [], []
    for j in range(H):
        f = sigmoid(pre(0 * H + j))
        i = sigmoid(pre(1 * H + j))
        o = sigmoid(pre(2 * H + j))
        g = math.tanh(pre(3 * H + j))
        C = f * C_prev[j] + i * g
        h_out.append(o * math.tanh(C))
        C_out.append(C)
    return h_out, C_out


def scalar_sequence_reference(sequence, params: LstmParams) -> float:
    """Full-sequence prediction built on the scalar cell reference."""
    H = params.hidden_size
    h = [0.0] * H
    C = [0.0] * H
    for x in sequence:
        h, C = scalar_cell_reference(list(x), h, C, params)
    return sum(params.W_y[0][j] * h[j] for j in range(H)) + params.b_y[0]


def finite_difference_gradients(sequence, label, params: LstmParams, eps=1e-5):
    """Central-difference gradients of the squared-error loss.

    Perturbs every entry of every parameter tensor through the public
    forward pass; never touches the analytic backward path.
    """

    def loss(p):
        prediction, _ = forward(sequence[None], p)
        return (prediction[0] - label) ** 2

    grads = {}
    for name, tensor in params.tensors():
        grad = np.zeros_like(tensor)
        flat = tensor.reshape(-1)
        gflat = grad.reshape(-1)
        for k in range(flat.size):
            original = flat[k]
            flat[k] = original + eps
            up = loss(params)
            flat[k] = original - eps
            down = loss(params)
            flat[k] = original
            gflat[k] = (up - down) / (2.0 * eps)
        grads[name] = grad
    return grads


def per_gate(grads, hidden_size):
    """Gradients with the stacked W split into its gate blocks.

    Rows [0, H), [H, 2H), [2H, 3H) and [3H, 4H) become W_f, W_i, W_o, W_g
    and their last column b_f ... b_g, so a gradient check holds each gate's
    weights and bias to their own scale and a small block's error cannot
    hide behind a large one's norm.
    """
    H = hidden_size
    blocks = {"W_y": grads["W_y"], "b_y": grads["b_y"]}
    for k, gate in enumerate("fiog"):
        blocks[f"W_{gate}"] = grads["W"][k * H:(k + 1) * H, :-1]
        blocks[f"b_{gate}"] = grads["W"][k * H:(k + 1) * H, -1]
    return blocks


def relative_tensor_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """Standard gradient-check metric: ||a - n|| / max(||a|| + ||n||, tiny)."""
    diff = float(np.linalg.norm(analytic - numeric))
    scale = float(np.linalg.norm(analytic) + np.linalg.norm(numeric))
    return diff / max(scale, 1e-12)


def reference_gradient_norm(grads):
    """Global L2 norm across every parameter tensor, tensor by tensor."""
    return math.sqrt(sum(float(np.sum(g * g)) for g in grads.values()))


def reference_clip_gradients(grads, max_norm):
    """Scale all gradients so the global L2 norm does not exceed max_norm."""
    total = reference_gradient_norm(grads)
    if total <= max_norm or total == 0.0:
        return grads
    scale = max_norm / total
    return {name: g * scale for name, g in grads.items()}


class ReferenceAdam:
    """Adam with bias correction, one parameter tensor at a time."""

    def __init__(self, lr):
        self.lr = lr
        self.t = 0
        self.m, self.v, self.scratch = {}, {}, {}

    def step(self, params, grads):
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
            np.divide(m, 1.0 - ADAM_BETA1 ** self.t, out=s)
            s *= self.lr
            np.divide(v, 1.0 - ADAM_BETA2 ** self.t, out=g)
            np.sqrt(g, out=g)
            g += ADAM_EPS
            s /= g
            tensor -= s


class ReferenceSgd:
    """Plain gradient descent, one parameter tensor at a time."""

    def __init__(self, lr):
        self.lr = lr

    def step(self, params, grads):
        for name, tensor in params.tensors():
            g = grads[name]
            g *= self.lr
            tensor -= g


def reference_train(windows, config, scaler=None, feature_mode=None):
    """``train``'s loop with a per-tensor gradient, clipping and optimizer.

    Shares ``init_params``, ``forward`` and ``backward`` with the program
    and draws the same batches, so only the flat parameter vector, the flat
    clipping and the flat optimizer differ from ``train``.
    """
    X = np.asarray(windows.sequences, dtype=np.float64)
    y = np.asarray(windows.labels, dtype=np.float64)
    n = len(y)
    params = init_params(X.shape[2], config.hidden_size, config.seed)
    optimizer = ReferenceAdam(config.learning_rate) if config.optimizer == "adam" else ReferenceSgd(config.learning_rate)
    rng = np.random.default_rng(config.seed)
    loss_history = []
    for _ in range(config.epochs):
        order = rng.permutation(n)
        sq_sum = 0.0
        for start in range(0, n, config.batch_size):
            idx = order[start:start + config.batch_size]
            yhat, cache = forward(X[idx], params)
            err = yhat - y[idx]
            sq_sum += float(np.sum(err * err))
            grads = backward(cache, (2.0 / len(idx)) * err, params)
            optimizer.step(params, reference_clip_gradients(grads, config.grad_clip_norm))
        loss_history.append(sq_sum / n)
    return Checkpoint(params=params, config=config, loss_history=tuple(loss_history),
                      scaler=scaler, feature_mode=feature_mode)
