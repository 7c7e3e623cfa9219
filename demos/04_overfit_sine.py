#!/usr/bin/env python3
"""Walkthrough: overfitting a noiseless sine wave, the training sanity check.

A 20-sample noiseless series must be memorizable; if 200 epochs cannot
drive the training loss toward zero, something in the forward pass,
gradients, or optimizer is broken.

    python3 demos/04_overfit_sine.py
"""

import numpy as np

from sentistock import ScalerParams, TrainConfig, WindowedDataset, predict, train

N_SAMPLES, LOOKBACK = 20, 5

t = np.arange(N_SAMPLES + LOOKBACK)
values = 100.0 + 20.0 * np.sin(0.3 * t)  # price-like units
lo, hi = float(values.min()), float(values.max())
normalized = (values - lo) / (hi - lo)

windows = WindowedDataset(
    sequences=np.stack([normalized[j:j + LOOKBACK, None] for j in range(N_SAMPLES)]),
    labels=np.array([normalized[j + LOOKBACK] for j in range(N_SAMPLES)]),
)
scaler = ScalerParams(("value", "target"), (lo, lo), (hi, hi))

config = TrainConfig(epochs=200, learning_rate=0.02, batch_size=32, seed=0,
                     grad_clip_norm=5.0, optimizer="adam", hidden_size=16)
checkpoint = train(windows, config, scaler=scaler)

print("epoch    mean training loss")
for epoch in (0, 9, 49, 99, 199):
    print(f"{epoch + 1:5d}    {checkpoint.loss_history[epoch]:.3e}")

predictions = predict(checkpoint, windows)
raw_labels = values[LOOKBACK:]
worst = float(np.max(np.abs(predictions - raw_labels) / np.abs(raw_labels)))

print(f"\nfinal loss {checkpoint.loss_history[-1]:.3e} (bar: 1e-3)")
print(f"worst relative prediction error on training windows: {100 * worst:.3f}% (bar: 5%)")
print("\n  label      prediction")
for label, pred in list(zip(raw_labels, predictions))[:8]:
    print(f"  {label:8.3f}   {pred:8.3f}")
