import json
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from sentistock.errors import NonFiniteLoss, PipelineError
from sentistock.features import ScalerParams, WindowedDataset, invert_target
from sentistock.lstm import (
    Checkpoint,
    LstmParams,
    TrainConfig,
    backward,
    checkpoint_from_json,
    checkpoint_to_json,
    clip_gradients,
    forward,
    gradient_norm,
    init_params,
    predict,
    save_checkpoint,
    train,
    _checkpoint_document,
    _sigmoid_inplace,
)

from oracles import (
    finite_difference_gradients,
    masked_sigmoid_reference,
    per_gate,
    relative_tensor_error,
    scalar_cell_reference,
    scalar_sequence_reference,
)


def zero_params(input_size=2, hidden_size=3):
    z = input_size + hidden_size
    return LstmParams(
        W=np.zeros((4 * hidden_size, z)), b=np.zeros(4 * hidden_size),
        W_y=np.zeros((1, hidden_size)), b_y=np.zeros(1),
        input_size=input_size, hidden_size=hidden_size,
    )


def gates(step, hidden_size):
    """The activated f, i, o, g blocks of one step, each (batch, hidden)."""
    H = hidden_size
    return tuple(step.gates[:, k * H:(k + 1) * H] for k in range(4))


def sine_windows(n_samples=20, lookback=5):
    """Noiseless sine fixture in price-like units, normalized for training."""
    t = np.arange(n_samples + lookback)
    values = 100.0 + 20.0 * np.sin(0.3 * t)
    lo, hi = float(values.min()), float(values.max())
    u = (values - lo) / (hi - lo)
    seqs = np.stack([u[j:j + lookback, None] for j in range(n_samples)])
    labels = np.array([u[j + lookback] for j in range(n_samples)])
    scaler = ScalerParams(("value", "target"), (lo, lo), (hi, hi))
    raw_labels = values[lookback:]
    return WindowedDataset(seqs, labels, lookback), scaler, raw_labels


class TestInitParams:
    def test_same_seed_bit_identical(self):
        a = init_params(3, 4, seed=99)
        b = init_params(3, 4, seed=99)
        for (_, ta), (_, tb) in zip(a.tensors(), b.tensors()):
            assert np.array_equal(ta, tb)

    def test_shapes(self):
        p = init_params(3, 4, seed=0)
        assert p.W.shape == (16, 7)
        assert p.b.shape == (16,)
        assert p.W_y.shape == (1, 4)

    def test_forget_bias_ones(self):
        p = init_params(3, 4, seed=0)
        assert p.b[:4].tolist() == [1.0, 1.0, 1.0, 1.0]
        assert p.b[4:].tolist() == [0.0] * 12

    def test_xavier_bounds(self):
        p = init_params(3, 4, seed=0)
        limit = math.sqrt(6.0 / (7 + 4))
        assert np.max(np.abs(p.W)) <= limit

    def test_misshaped_stack_rejected(self):
        p = zero_params(2, 3)
        with pytest.raises(PipelineError, match="gate stack must be"):
            replace(p, W=np.zeros((3, 5)))
        with pytest.raises(PipelineError, match="gate stack must be"):
            replace(p, b=np.zeros(3))


class TestSigmoid:
    def test_bit_identical_to_masked_reference(self):
        special = [0.0, 1e-300, 36.0, 745.0, 1000.0, np.inf, np.nan]
        arrays = [np.array(special + [-v for v in special])]
        rng = np.random.default_rng(11)
        arrays += [scale * rng.standard_normal((16, 32)) for scale in (0.1, 1.0, 10.0, 100.0, 800.0)]
        for x in arrays:
            expected = masked_sigmoid_reference(x).view(np.int64)
            out = x.copy()
            _sigmoid_inplace(out, np.empty_like(x), np.empty(x.shape, dtype=bool))
            assert np.array_equal(out.view(np.int64), expected)
            # Also as forward runs it: on the leading columns of a wider array.
            wide = np.zeros(x.shape[:-1] + (x.shape[-1] + 3,))
            view = wide[..., :x.shape[-1]]
            view[...] = x
            _sigmoid_inplace(view, np.empty_like(x), np.empty(x.shape, dtype=bool))
            assert np.array_equal(view.view(np.int64), expected)


class TestCellForward:
    """The cell step, seen through ``forward`` on a batch of one and its per-step records."""

    def test_zero_weights_halve_everything(self):
        # Only the g block (rows 9-11) reads x, so step 1 leaves a non-zero
        # cell state and step 2 (x = 0) runs with every gate pre-activation
        # at zero.
        p = zero_params()
        p.W[9:12, 0] = [1.0, -2.0, 0.5]
        _, steps = forward(np.array([[3.0, -1.0], [0.0, 0.0]])[None], p)
        prev, step = steps
        f, i, o, g = gates(step, 3)
        assert np.all(prev.C != 0.0)
        assert np.allclose(f, 0.5) and np.allclose(i, 0.5)
        assert np.allclose(o, 0.5) and np.allclose(g, 0.0)
        assert np.allclose(step.C, 0.5 * prev.C)
        assert np.allclose(step.h, 0.5 * np.tanh(0.5 * prev.C))

    def test_zero_state_zero_weights_gives_zero(self):
        p = zero_params()
        _, steps = forward(np.array([[5.0, 7.0]])[None], p)
        assert np.array_equal(steps[0].h, np.zeros((1, 3)))

    def test_matches_scalar_reference(self):
        rng = np.random.default_rng(12)
        p = init_params(1, 2, seed=12)
        for _ in range(20):
            seq = rng.normal(size=(4, 1))
            pred, steps = forward(seq[None], p)
            h_ref, c_ref = [0.0, 0.0], [0.0, 0.0]
            for x, step in zip(seq, steps):
                h_ref, c_ref = scalar_cell_reference(x, h_ref, c_ref, p)
                assert np.max(np.abs(step.h[0] - np.array(h_ref))) < 1e-12
                assert np.max(np.abs(step.C[0] - np.array(c_ref))) < 1e-12
            assert abs(pred[0] - scalar_sequence_reference(seq, p)) < 1e-12

    def test_shape_mismatch(self):
        p = zero_params()
        with pytest.raises(PipelineError, match="feature count 5 != input_size"):
            forward(np.zeros((1, 5))[None], p)

    def test_gate_ranges_randomized(self):
        rng = np.random.default_rng(8)
        p = init_params(3, 6, seed=8)
        _, steps = forward(rng.normal(scale=5.0, size=(1, 50, 3)), p)
        assert len(steps) == 50
        for step in steps:
            f, i, o, g = gates(step, 6)
            for gate in (f, i, o):
                assert np.all(gate > 0.0) and np.all(gate < 1.0)
            assert np.all(g > -1.0) and np.all(g < 1.0)


class TestSequenceForward:
    def test_zero_weights_predict_bias(self):
        p = zero_params()
        p.b_y[0] = 0.37
        pred, _ = forward(np.ones((1, 4, 2)), p)
        assert pred[0] == 0.37

    def test_single_timestep_equals_cell_plus_projection(self):
        p = init_params(2, 3, seed=5)
        x = np.array([[0.4, -0.2]])
        pred, (step,) = forward(x[None], p)
        assert pred[0] == pytest.approx(float(step.h[0] @ p.W_y[0] + p.b_y[0]), abs=1e-15)

    def test_order_sensitivity_witness(self):
        p = init_params(2, 3, seed=6)
        rng = np.random.default_rng(6)
        seq = rng.normal(size=(5, 2))
        in_order = scalar_sequence_reference(seq, p)
        reversed_ = scalar_sequence_reference(seq[::-1], p)
        assert in_order != reversed_
        pred, _ = forward(seq[None], p)
        assert pred[0] == pytest.approx(in_order, abs=1e-12)

    def test_matches_scalar_reference_end_to_end(self):
        p = init_params(3, 4, seed=7)
        rng = np.random.default_rng(7)
        seq = rng.normal(size=(6, 3))
        pred, _ = forward(seq[None], p)
        assert pred[0] == pytest.approx(scalar_sequence_reference(seq, p), abs=1e-12)


class TestBackward:
    def test_zero_upstream_gradient(self):
        p = init_params(3, 4, seed=1)
        _, steps = forward(np.random.default_rng(1).normal(size=(1, 5, 3)), p)
        grads = backward(steps, 0.0, p)
        assert [name for name, _ in p.tensors()] == list(grads)
        assert all(np.all(g == 0.0) for g in grads.values())

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        p = init_params(3, 4, seed=3)
        seq = rng.normal(size=(5, 3))
        label = float(rng.normal())
        pred, steps = forward(seq[None], p)
        analytic = per_gate(backward(steps, 2.0 * (pred[0] - label), p), 4)
        numeric = per_gate(finite_difference_gradients(seq, label, p), 4)
        assert len(analytic) == 10
        for name in analytic:
            assert relative_tensor_error(analytic[name], numeric[name]) < 1e-5, name

    def test_batch_gradient_is_sum_over_sequences(self):
        rng = np.random.default_rng(5)
        p = init_params(3, 4, seed=5)
        X = rng.normal(size=(3, 5, 3))
        upstream = rng.normal(size=3)
        _, steps = forward(X, p)
        batched = backward(steps, upstream, p)
        summed = {name: np.zeros_like(t) for name, t in p.tensors()}
        for seq, d in zip(X, upstream):
            _, seq_steps = forward(seq[None], p)
            for name, g in backward(seq_steps, d, p).items():
                summed[name] += g
        for name in summed:
            assert np.allclose(batched[name], summed[name], rtol=1e-12, atol=1e-15), name

    def test_upstream_batch_size_must_match(self):
        p = init_params(3, 4, seed=5)
        _, steps = forward(np.ones((1, 2, 3)), p)
        with pytest.raises(PipelineError, match="d_prediction batch size"):
            backward(steps, np.ones(2), p)

    def test_clip_hits_exact_norm(self):
        rng = np.random.default_rng(4)
        p = init_params(3, 4, seed=4)
        seq = rng.normal(size=(5, 3))
        pred, steps = forward(seq[None], p)
        grads = clip_gradients(backward(steps, 1e6 * 2.0 * (pred[0] - 3.0), p), 5.0)
        assert gradient_norm(grads) == pytest.approx(5.0, rel=1e-12)

    def test_clip_leaves_small_gradients_alone(self):
        grads = {"a": np.array([0.3, 0.4])}
        assert clip_gradients(grads, max_norm=5.0)["a"] is grads["a"]

    def test_empty_caches_rejected(self):
        with pytest.raises(PipelineError, match="steps are empty"):
            backward([], 1.0, init_params(2, 2, seed=0))


class TestNoAliasing:
    """Each forward pass owns its buffers: no state is shared between calls or paths."""

    @pytest.mark.parametrize("batch", [1, 7, 64, 500])
    def test_inference_path_equals_training_path(self, batch):
        p = init_params(4, 32, seed=batch)
        X = np.random.default_rng(batch).normal(size=(batch, 12, 4))
        kept, _ = forward(X, p)
        inferred, steps = forward(X, p, keep_steps=False)
        assert not steps
        assert np.array_equal(inferred.view(np.int64), kept.view(np.int64))

    def test_cache_survives_a_second_forward(self):
        rng = np.random.default_rng(21)
        p = init_params(3, 8, seed=21)
        X1, X2 = rng.normal(size=(2, 5, 6, 3))
        upstream = rng.normal(size=5)
        _, first = forward(X1, p)
        expected = backward(first, upstream, p)
        forward(X2, p)
        forward(X2, p, keep_steps=False)
        again = backward(first, upstream, p)
        for name in expected:
            assert np.array_equal(again[name], expected[name]), name


def traced_peak(fn, *args, **kwargs) -> int:
    """Peak bytes allocated while fn runs; tracemalloc sees numpy's buffers."""
    tracemalloc.start()
    try:
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestBoundedMemory:
    """Shapes of train_predict_wide: lookback 30, batch 64, hidden 128, 4 features."""

    L, B, H, F = 30, 64, 128, 4

    def test_train_holds_one_batch_cache(self):
        L, B, H, F = self.L, self.B, self.H, self.F
        rng = np.random.default_rng(30)
        windows = WindowedDataset(rng.normal(size=(3 * B, L, F)), rng.normal(size=3 * B), L)
        cfg = TrainConfig(epochs=1, batch_size=B, hidden_size=H, seed=30)
        one_cache = L * B * (F + 7 * H) * 8  # z, four gates, C and h per step
        assert traced_peak(train, windows, cfg) <= 1.5 * one_cache

    def test_inference_forward_peak(self):
        X = np.random.default_rng(31).normal(size=(500, self.L, self.F))
        p = init_params(self.F, self.H, seed=31)
        gate_array = 500 * 4 * self.H * 8
        assert traced_peak(forward, X, p, keep_steps=False) <= 4 * gate_array


class TestTrain:
    def test_bit_identical_checkpoints(self):
        windows, scaler, _ = sine_windows()
        cfg = TrainConfig(epochs=3, learning_rate=0.01, batch_size=8, seed=42, hidden_size=8)
        a = train(windows, cfg, scaler=scaler, feature_mode="hisa")
        b = train(windows, cfg, scaler=scaler, feature_mode="hisa")
        assert checkpoint_to_json(a) == checkpoint_to_json(b)
        for (_, ta), (_, tb) in zip(a.params.tensors(), b.params.tensors()):
            assert np.array_equal(ta, tb)

    def test_on_epoch_checkpoints_equal_shorter_runs(self):
        windows, scaler, _ = sine_windows()
        cfg = TrainConfig(epochs=4, learning_rate=0.01, batch_size=8, seed=3, hidden_size=6)
        seen = []
        final = train(windows, cfg, scaler=scaler, feature_mode="dlpm", on_epoch=seen.append)
        expected = [
            checkpoint_to_json(train(windows, replace(cfg, epochs=e), scaler=scaler, feature_mode="dlpm"))
            for e in range(1, 5)
        ]
        # Serialized only now: a snapshot sharing the live tensors would show the final weights.
        assert [checkpoint_to_json(cp) for cp in seen] == expected
        assert checkpoint_to_json(final) == expected[-1]

    def test_loss_history_length(self):
        windows, _, _ = sine_windows()
        cfg = TrainConfig(epochs=5, hidden_size=4)
        cp = train(windows, cfg)
        assert len(cp.loss_history) == 5

    def test_divergence_raises_nonfinite_loss(self):
        # Hidden states are bounded, so divergence must blow up the output
        # projection; an absurd rate overflows the squared error to inf.
        windows, _, _ = sine_windows()
        cfg = TrainConfig(epochs=10, learning_rate=1e200, batch_size=8, optimizer="sgd",
                          grad_clip_norm=1e300, hidden_size=8, seed=0)
        with pytest.raises(NonFiniteLoss) as err:
            with np.errstate(over="ignore", invalid="ignore"):
                train(windows, cfg)
        assert err.value.epoch >= 0

    def test_loss_decreases_on_sine(self):
        windows, _, _ = sine_windows()
        cfg = TrainConfig(epochs=60, learning_rate=0.02, batch_size=32, seed=0, hidden_size=16)
        cp = train(windows, cfg)
        assert cp.loss_history[-1] < cp.loss_history[0]

    def test_sgd_monotone_after_epoch_10_across_seeds(self):
        # Full-batch SGD descent settles into a monotone tail; assert the
        # aggregate since individual seeds may wobble.
        windows, _, _ = sine_windows()
        monotone = 0
        for seed in range(10):
            cfg = TrainConfig(epochs=200, learning_rate=0.1, batch_size=32,
                              seed=seed, optimizer="sgd", hidden_size=16)
            cp = train(windows, cfg)
            tail = cp.loss_history[10:]
            monotone += all(b <= a for a, b in zip(tail, tail[1:]))
        assert monotone >= 9


class TestPredict:
    def test_zero_weight_checkpoint_predicts_constant(self):
        windows, scaler, _ = sine_windows()
        p = zero_params(input_size=1, hidden_size=3)
        p.b_y[0] = 0.5
        cp = Checkpoint(params=p, config=TrainConfig(epochs=1, hidden_size=3),
                        loss_history=(0.0,), scaler=scaler, feature_mode="hisa")
        out = predict(cp, windows)
        expected = float(invert_target(np.array([0.5]), scaler)[0])
        assert np.all(out == expected)

    def test_empty_windows(self):
        cp = Checkpoint(params=zero_params(1, 3), config=TrainConfig(epochs=1, hidden_size=3),
                        loss_history=(0.0,))
        empty = WindowedDataset(np.empty((0, 4, 1)), np.empty(0), 4)
        assert predict(cp, empty).shape == (0,)

    def test_feature_count_mismatch(self):
        windows, _, _ = sine_windows()
        cp = Checkpoint(params=zero_params(input_size=3, hidden_size=2),
                        config=TrainConfig(epochs=1, hidden_size=2), loss_history=(0.0,))
        with pytest.raises(PipelineError, match="feature count 1 != input_size 3"):
            predict(cp, windows)


class TestCheckpointPersistence:
    def test_roundtrip_predictions_bit_identical(self):
        windows, scaler, _ = sine_windows()
        cfg = TrainConfig(epochs=5, learning_rate=0.02, seed=11, hidden_size=8)
        cp = train(windows, cfg, scaler=scaler, feature_mode="hisa")
        again = checkpoint_from_json(checkpoint_to_json(cp))
        assert np.array_equal(predict(cp, windows), predict(again, windows))
        assert again.config == cp.config
        assert again.scaler == cp.scaler
        assert again.loss_history == cp.loss_history

    @pytest.mark.parametrize("carried", [True, False], ids=["scaler-and-mode", "bare"])
    def test_saved_file_is_checkpoint_to_json(self, tmp_path, carried):
        windows, scaler, _ = sine_windows()
        cfg = TrainConfig(epochs=2, learning_rate=0.02, seed=12, hidden_size=8)
        cp = train(windows, cfg, scaler=scaler if carried else None, feature_mode="hisa" if carried else None)
        save_checkpoint(cp, tmp_path / "checkpoint.json")
        assert (tmp_path / "checkpoint.json").read_bytes() == checkpoint_to_json(cp).encode("utf-8")
        # The text as json.dumps wrote it before the module kept one encoder.
        reference = json.dumps(_checkpoint_document(cp), sort_keys=True, indent=2)
        assert checkpoint_to_json(cp) == reference

    def test_gate_names_map_to_row_blocks(self):
        H, F = 2, 3
        p = zero_params(input_size=F, hidden_size=H)
        for k in range(4):
            p.W[k * H:(k + 1) * H] = k
            p.b[k * H:(k + 1) * H] = k
        cp = Checkpoint(params=p, config=TrainConfig(epochs=1, hidden_size=H), loss_history=(0.0,))
        text = checkpoint_to_json(cp)
        arrays = json.loads(text)["params"]
        for k, gate in enumerate("fiog"):
            assert arrays[f"W_{gate}"] == [float(k)] * (H * (F + H)), gate
            assert arrays[f"b_{gate}"] == [float(k)] * H, gate
        again = checkpoint_from_json(text)
        assert np.array_equal(again.params.W, p.W) and np.array_equal(again.params.b, p.b)

    def test_unknown_version_refused(self):
        windows, _, _ = sine_windows()
        cp = train(windows, TrainConfig(epochs=1, hidden_size=4))
        doc = checkpoint_to_json(cp).replace('"version": 1', '"version": 2')
        with pytest.raises(PipelineError, match="cannot load checkpoint version 2"):
            checkpoint_from_json(doc)

    def test_loss_history_must_match_epochs(self):
        with pytest.raises(ValueError):
            Checkpoint(params=zero_params(), config=TrainConfig(epochs=3, hidden_size=3),
                       loss_history=(0.0,))
