#!/usr/bin/env python3
"""Walkthrough: checking the BPTT gradients against finite differences.

The analytic backward pass should agree with central differences of the
squared-error loss to within numerical noise; this is the core evidence
that the from-scratch LSTM trains on correct gradients.

    python3 demos/03_gradient_check.py
"""

import numpy as np

from sentistock import backward, forward, init_params

HIDDEN, INPUT, LOOKBACK = 4, 3, 5
EPS = 1e-5

rng = np.random.default_rng(3)
params = init_params(INPUT, HIDDEN, seed=3)
sequence = rng.normal(size=(LOOKBACK, INPUT))
label = 0.8

# forward runs a batch of sequences; this one sequence is a batch of one.
predictions, cache = forward(sequence[None], params)
prediction = float(predictions[0])
analytic = backward(cache, 2.0 * (prediction - label), params)


def loss():
    values, _ = forward(sequence[None], params)
    return (values[0] - label) ** 2


print(f"instance: hidden={HIDDEN} input={INPUT} lookback={LOOKBACK}, prediction={prediction:+.4f}\n")
print(f"{'tensor':6s} {'analytic norm':>14s} {'numeric norm':>14s} {'rel error':>12s}")
for name, tensor in params.tensors():
    numeric = np.zeros_like(tensor)
    flat, nflat = tensor.reshape(-1), numeric.reshape(-1)
    for k in range(flat.size):
        keep = flat[k]
        flat[k] = keep + EPS
        up = loss()
        flat[k] = keep - EPS
        down = loss()
        flat[k] = keep
        nflat[k] = (up - down) / (2 * EPS)
    a = analytic[name]
    rel = np.linalg.norm(a - numeric) / max(np.linalg.norm(a) + np.linalg.norm(numeric), 1e-12)
    print(f"{name:6s} {np.linalg.norm(a):14.6e} {np.linalg.norm(numeric):14.6e} {rel:12.2e}")

print("\nEvery tensor agrees to ~1e-8 relative error; the 1e-5 acceptance bar")
print("in the test suite has plenty of headroom.")
