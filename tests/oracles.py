"""Independent reference implementations used as test oracles.

Nothing here may import from the modules it checks beyond plain data types;
each oracle is a separate transcription of the documented rule, kept
deliberately naive so a bug in the production path cannot hide in both.
"""

import math

import numpy as np

from sentistock.lstm import LstmParams, forward
from sentistock.sentiment import Lexicon


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
    ``params.W`` and ``params.b``: f at rows [0, H), i at [H, 2H), o at
    [2H, 3H) and g at [3H, 4H).
    Returns (h, C) as lists of floats.
    """

    def sigmoid(v):
        return 1.0 / (1.0 + math.exp(-v))

    z = list(x) + list(h_prev)
    H = params.hidden_size

    def pre(row):
        return sum(params.W[row][k] * z[k] for k in range(len(z))) + params.b[row]

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
    """Gradients with the stacked W and b split into their gate blocks.

    Rows [0, H), [H, 2H), [2H, 3H) and [3H, 4H) become W_f, W_i, W_o, W_g
    (and b_f ... b_g), so a gradient check holds each gate to its own scale
    and a small gate's error cannot hide behind a large one's norm.
    """
    H = hidden_size
    blocks = {"W_y": grads["W_y"], "b_y": grads["b_y"]}
    for k, gate in enumerate("fiog"):
        blocks[f"W_{gate}"] = grads["W"][k * H:(k + 1) * H]
        blocks[f"b_{gate}"] = grads["b"][k * H:(k + 1) * H]
    return blocks


def relative_tensor_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """Standard gradient-check metric: ||a - n|| / max(||a|| + ||n||, tiny)."""
    diff = float(np.linalg.norm(analytic - numeric))
    scale = float(np.linalg.norm(analytic) + np.linalg.norm(numeric))
    return diff / max(scale, 1e-12)
