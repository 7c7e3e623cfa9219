import inspect
import json
import math
import pickle
import tracemalloc
import warnings
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
    forward,
    init_params,
    predict,
    save_checkpoint,
    train,
    _checkpoint_document,
)
from sentistock import lstm

from oracles import (
    finite_difference_gradients,
    masked_sigmoid_reference,
    per_gate,
    reference_gradient_norm,
    reference_train,
    relative_tensor_error,
    scalar_cell_reference,
    scalar_sequence_reference,
)


def zero_params(input_size=2, hidden_size=3):
    z = input_size + hidden_size + 1
    return LstmParams(
        W=np.zeros((4 * hidden_size, z)), W_y=np.zeros((1, hidden_size)), b_y=np.zeros(1),
        input_size=input_size, hidden_size=hidden_size,
    )


def gates(cache, t, hidden_size):
    """The activated f, i, o, g blocks of step t, each (hidden, batch)."""
    H = hidden_size
    return tuple(cache.G[t, k * H:(k + 1) * H] for k in range(4))


def hidden(cache, t, input_size):
    """h after step t, (hidden, batch): rows [F, F+H) of z_{t+1}."""
    H = cache.C.shape[1]
    return cache.Z[t + 1, input_size:input_size + H]


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
    return WindowedDataset(seqs, labels), scaler, raw_labels


class TestInitParams:
    def test_same_seed_bit_identical(self):
        a = init_params(3, 4, seed=99)
        b = init_params(3, 4, seed=99)
        for (_, ta), (_, tb) in zip(a.tensors(), b.tensors()):
            assert np.array_equal(ta, tb)

    def test_shapes(self):
        p = init_params(3, 4, seed=0)
        assert p.W.shape == (16, 8)
        assert p.W_y.shape == (1, 4)

    def test_forget_bias_ones(self):
        p = init_params(3, 4, seed=0)
        assert p.W[:4, -1].tolist() == [1.0, 1.0, 1.0, 1.0]
        assert p.W[4:, -1].tolist() == [0.0] * 12

    def test_xavier_bounds(self):
        p = init_params(3, 4, seed=0)
        limit = math.sqrt(6.0 / (7 + 4))
        assert np.max(np.abs(p.W[:, :-1])) <= limit

    def test_draws_the_weights_then_the_output_projection(self):
        # The bias column is no draw: the (4H, F+H) weights come first, then
        # W_y, from one generator, as before the bias joined the gate matrix.
        p = init_params(3, 4, seed=5)
        rng = np.random.default_rng(5)
        weights = rng.uniform(-math.sqrt(6.0 / 11), math.sqrt(6.0 / 11), size=(16, 7))
        W_y = rng.uniform(-math.sqrt(6.0 / 5), math.sqrt(6.0 / 5), size=(1, 4))
        assert np.array_equal(p.W[:, :-1], weights) and np.array_equal(p.W_y, W_y)

    def test_misshaped_stack_rejected(self):
        p = zero_params(2, 3)
        with pytest.raises(PipelineError, match="gate stack must be"):
            replace(p, W=np.zeros((3, 5)))
        # The (4H, F+H) weights without their bias column.
        with pytest.raises(PipelineError, match=r"gate stack must be W \(12, 6\), got \(12, 5\)"):
            replace(p, W=np.zeros((12, 5)))


def identity_gates():
    """One input, one unit: every gate pre-activation is exactly x, since W
    is 1 on the x column and 0 elsewhere, its bias column included, so W z
    adds only zeros to 1 * x."""
    p = zero_params(input_size=1, hidden_size=1)
    p.W[:, 0] = 1.0
    return p


def sigmoid_through_forward(x: np.ndarray) -> np.ndarray:
    """The sigmoid as ``forward`` takes it, on a one-step batch of x's values."""
    _, cache = forward(x.reshape(-1, 1, 1), identity_gates())
    G = cache.G
    assert np.array_equal(G[0, 0], G[0, 1], equal_nan=True)
    assert np.array_equal(G[0, 0], G[0, 2], equal_nan=True)
    return G[0, 0].reshape(x.shape)


class TestSigmoid:
    """1 / (1 + exp(-x)) against the masked reference, which takes
    exp(x) / (1 + exp(x)) for x < 0."""

    special = [0.0, 5e-324, 1e-300, 36.0, 709.8, 745.0, 1000.0, np.inf]

    def test_bit_identical_to_masked_reference(self):
        # Bit for bit where x >= 0 (and at -0.0 and -inf); see the next tests for x < 0.
        rng = np.random.default_rng(11)
        arrays = [np.array(self.special + [-0.0, -np.inf])]
        arrays += [np.abs(scale * rng.standard_normal((16, 32))) for scale in (0.1, 1.0, 10.0, 50.0, 100.0, 800.0)]
        for x in arrays:
            expected = masked_sigmoid_reference(x).view(np.int64)
            assert np.array_equal(sigmoid_through_forward(x).view(np.int64), expected)

    def test_nan_stays_nan(self):
        out = sigmoid_through_forward(np.array([np.nan, -np.nan]))
        assert np.all(np.isnan(out))

    def test_negative_x_within_8_ulp_or_1e_308(self):
        rng = np.random.default_rng(12)
        x = -np.concatenate([
            np.array(self.special),
            np.abs(rng.standard_normal(20_000)) * 10.0,
            rng.uniform(0.0, 800.0, 100_000),
        ])
        expected = masked_sigmoid_reference(x)
        out = sigmoid_through_forward(x)
        normal = expected >= np.finfo(np.float64).tiny
        ulps = np.abs(out[normal].view(np.int64) - expected[normal].view(np.int64))
        assert ulps.max() <= 8
        assert np.max(np.abs(out[~normal] - expected[~normal])) <= 1e-308
        assert np.all(out >= 0.0) and np.all(out <= 1.0)

    def test_no_floating_point_warning(self):
        # exp(-x) overflows below about -709.78; forward silences only that.
        x = np.array([-1000.0, -745.0, -709.8, -np.inf, np.nan, 1000.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sigmoid_through_forward(x)
            forward(x.reshape(-1, 1, 1), identity_gates(), keep_steps=False)


class TestCellForward:
    """The cell step, seen through ``forward`` on a batch of one and its cache."""

    def test_zero_weights_halve_everything(self):
        # Only the g block (rows 9-11) reads x, so step 1 leaves a non-zero
        # cell state and step 2 (x = 0) runs with every gate pre-activation
        # at zero.
        p = zero_params()
        p.W[9:12, 0] = [1.0, -2.0, 0.5]
        _, cache = forward(np.array([[3.0, -1.0], [0.0, 0.0]])[None], p)
        C = cache.C
        f, i, o, g = gates(cache, 1, 3)
        assert np.all(C[1] != 0.0)
        assert np.allclose(f, 0.5) and np.allclose(i, 0.5)
        assert np.allclose(o, 0.5) and np.allclose(g, 0.0)
        assert np.allclose(C[2], 0.5 * C[1])
        assert np.allclose(hidden(cache, 1, 2), 0.5 * np.tanh(0.5 * C[1]))

    def test_zero_state_zero_weights_gives_zero(self):
        p = zero_params()
        _, cache = forward(np.array([[5.0, 7.0]])[None], p)
        assert np.array_equal(hidden(cache, 0, 2), np.zeros((3, 1)))

    def test_matches_scalar_reference(self):
        rng = np.random.default_rng(12)
        p = init_params(1, 2, seed=12)
        for _ in range(20):
            seq = rng.normal(size=(4, 1))
            pred, cache = forward(seq[None], p)
            h_ref, c_ref = [0.0, 0.0], [0.0, 0.0]
            for t, x in enumerate(seq):
                h_ref, c_ref = scalar_cell_reference(x, h_ref, c_ref, p)
                assert np.max(np.abs(hidden(cache, t, 1)[:, 0] - np.array(h_ref))) < 1e-12
                assert np.max(np.abs(cache.C[t + 1, :, 0] - np.array(c_ref))) < 1e-12
            assert abs(pred[0] - scalar_sequence_reference(seq, p)) < 1e-12

    def test_shape_mismatch(self):
        p = zero_params()
        with pytest.raises(PipelineError, match="feature count 5 != input_size"):
            forward(np.zeros((1, 5))[None], p)

    def test_gate_ranges_randomized(self):
        rng = np.random.default_rng(8)
        p = init_params(3, 6, seed=8)
        _, cache = forward(rng.normal(scale=5.0, size=(1, 50, 3)), p)
        assert len(cache.G) == 50
        for t in range(50):
            f, i, o, g = gates(cache, t, 6)
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
        pred, cache = forward(x[None], p)
        assert len(cache.G) == 1
        assert pred[0] == pytest.approx(float(hidden(cache, 0, 2)[:, 0] @ p.W_y[0] + p.b_y[0]), abs=1e-15)

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
        # (batch, lookback, features, hidden). Batch 11 is compare_paper's
        # final short batch; it and batch 64 run the GEMMs on other BLAS
        # kernels than batch 3 does.
        for batch, lookback, features, hidden_size in [(3, 5, 3, 4), (11, 15, 3, 32), (11, 15, 4, 32), (64, 15, 4, 128)]:
            rng = np.random.default_rng(5)
            p = init_params(features, hidden_size, seed=5)
            X = rng.normal(size=(batch, lookback, features))
            upstream = rng.normal(size=batch)
            _, steps = forward(X, p)
            batched = backward(steps, upstream, p)
            summed = {name: np.zeros_like(t) for name, t in p.tensors()}
            for seq, d in zip(X, upstream):
                _, seq_steps = forward(seq[None], p)
                for name, g in backward(seq_steps, d, p).items():
                    summed[name] += g
            for name in summed:
                assert np.allclose(batched[name], summed[name], rtol=1e-12, atol=1e-15), (batch, hidden_size, name)

    def test_upstream_batch_size_must_match(self):
        p = init_params(3, 4, seed=5)
        _, steps = forward(np.ones((1, 2, 3)), p)
        with pytest.raises(PipelineError, match="d_prediction batch size"):
            backward(steps, np.ones(2), p)

    @pytest.mark.parametrize("kind", ["inference path", "bare tuple", "inference workspace"])
    def test_only_a_training_workspace_is_backpropagated(self, kind):
        p = init_params(3, 4, seed=5)
        X = np.ones((2, 3, 3))
        if kind == "inference path":
            _, cache = forward(X, p, keep_steps=False)
            assert cache is None
        elif kind == "bare tuple":
            _, workspace = forward(X, p)
            cache = (workspace.Z, workspace.G, workspace.C)
        else:
            cache = lstm._Workspace(3, 4, 2, 3, keep_steps=False)
            cache.forward(X, p)
        with pytest.raises(PipelineError, match="steps are empty"):
            backward(cache, np.ones(2), p)

    # Clipping runs inside train: one window, one batch and SGD at rate 1
    # make the first update the negated (clipped) gradient.
    @staticmethod
    def one_sgd_step(label, max_norm):
        rng = np.random.default_rng(4)
        seq = rng.normal(size=(1, 5, 3))
        cfg = TrainConfig(epochs=1, learning_rate=1.0, batch_size=1, seed=4, grad_clip_norm=max_norm,
                          optimizer="sgd", hidden_size=4)
        trained = train(WindowedDataset(seq, np.array([label])), cfg).params
        start = init_params(3, 4, seed=4)
        pred, cache = forward(seq, start)
        grads = backward(cache, 2.0 * (pred - label), start)
        return start, trained, grads

    def test_clip_hits_exact_norm(self):
        start, trained, grads = self.one_sgd_step(label=-1e6, max_norm=5.0)
        assert reference_gradient_norm(grads) > 1e3
        steps = {name: a - b for (name, a), (_, b) in zip(start.tensors(), trained.tensors())}
        assert reference_gradient_norm(steps) == pytest.approx(5.0, rel=1e-12)

    def test_clip_leaves_small_gradients_alone(self):
        start, trained, grads = self.one_sgd_step(label=0.5, max_norm=5.0)
        assert reference_gradient_norm(grads) < 5.0
        for (name, a), (_, b) in zip(start.tensors(), trained.tensors()):
            assert np.array_equal(b.view(np.int64), (a - grads[name]).view(np.int64)), name

    @pytest.mark.parametrize("input_size, hidden_size", [(2, 4), (3, 5)], ids=["input_size", "hidden_size"])
    def test_params_of_another_size_refused(self, input_size, hidden_size):
        p = init_params(3, 4, seed=5)
        _, cache = forward(np.ones((2, 3, 3)), p)
        message = (f"params have input_size {input_size} and hidden_size {hidden_size}, "
                   "the forward pass 3 and 4")
        with pytest.raises(PipelineError, match=message):
            backward(cache, np.ones(2), init_params(input_size, hidden_size, seed=5))

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

    def test_backward_leaves_the_cache_alone(self):
        rng = np.random.default_rng(22)
        p = init_params(4, 16, seed=22)
        _, cache = forward(rng.normal(size=(11, 7, 4)), p)
        arrays = (cache.Z, cache.G, cache.C)
        before = [a.copy() for a in arrays]
        backward(cache, rng.normal(size=11), p)
        for name, kept, now in zip("ZGC", before, arrays):
            assert np.array_equal(now.view(np.int64), kept.view(np.int64)), name

    def test_nested_train_and_predict_share_no_buffer(self):
        # compare's on_epoch predicts in the middle of training; a nested run
        # at the same shapes must leave the outer run's workspace alone.
        windows = random_windows(171, 15, 4, seed=40)
        cfg = TrainConfig(epochs=3, learning_rate=0.01, batch_size=16, seed=9, hidden_size=32)
        inner_windows = random_windows(40, 15, 4, seed=41)
        inner_cfg = replace(cfg, seed=10)

        def meddle(checkpoint):
            predict(checkpoint, inner_windows)
            predict(train(inner_windows, inner_cfg), windows)

        expected = checkpoint_to_json(reference_train(windows, cfg, feature_mode="dlpm"))
        assert checkpoint_to_json(train(windows, cfg, feature_mode="dlpm", on_epoch=meddle)) == expected


class TestCacheLayout:
    def test_gate_blocks_are_contiguous_slabs(self):
        H, F, B, L = 8, 3, 5, 4
        p = init_params(F, H, seed=23)
        _, cache = forward(np.random.default_rng(23).normal(size=(B, L, F)), p)
        Z, G, C = cache.Z, cache.G, cache.C
        assert (Z.shape, G.shape, C.shape) == ((L + 1, F + H + 1, B), (L, 4 * H, B), (L + 1, H, B))
        for t in range(L):
            assert G[t, :3 * H].flags.c_contiguous
            for k in range(4):
                assert G[t, k * H:(k + 1) * H].flags.c_contiguous, (t, k)

    @pytest.mark.parametrize("run", ["train", "inference"])
    def test_bias_row_of_z_stays_one(self, run, monkeypatch):
        # Row F+H of every slab of Z carries the bias through the gate
        # product; it is set once, when the workspace is built, and no pass
        # may write over it.
        built = []

        class Recorded(lstm._Workspace):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                built.append(self)

        monkeypatch.setattr(lstm, "_Workspace", Recorded)
        F, H = 4, 8
        windows = random_windows(37, 6, F, seed=24)
        if run == "train":
            # Batches of 16, 16 and 5 per epoch: a workspace for 16, then one for 5, twice.
            train(windows, TrainConfig(epochs=2, batch_size=16, seed=24, hidden_size=H))
        else:
            forward(windows.sequences, init_params(F, H, seed=24), keep_steps=False)
        assert len(built) == (4 if run == "train" else 1)
        for workspace in built:
            assert workspace.Z.shape[1] == F + H + 1
            assert np.all(workspace.Z[:, F + H] == 1.0)

    def test_forward_returns_a_workspace_built_as_train_builds_it(self, monkeypatch):
        # The gradient oracles check backward through forward's cache, so it
        # must be the construction every training batch runs in.
        built = []

        class Recorded(lstm._Workspace):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                arguments = inspect.signature(super().__init__).bind(*args, **kwargs)
                arguments.apply_defaults()
                built.append((self, arguments.arguments))

        monkeypatch.setattr(lstm, "_Workspace", Recorded)
        F, H, B, L = 4, 8, 16, 6
        windows = random_windows(B, L, F, seed=25)
        train(windows, TrainConfig(epochs=1, batch_size=B, seed=25, hidden_size=H))
        _, cache = forward(windows.sequences, init_params(F, H, seed=25))
        (_, in_train), (workspace, in_forward) = built
        assert cache is workspace
        assert in_forward == in_train == {"input_size": F, "hidden_size": H, "batch": B, "lookback": L,
                                          "keep_steps": True}


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

    def train_peak(self, n, epochs):
        L, B, H, F = self.L, self.B, self.H, self.F
        rng = np.random.default_rng(30)
        windows = WindowedDataset(rng.normal(size=(n, L, F)), rng.normal(size=n))
        cfg = TrainConfig(epochs=epochs, batch_size=B, hidden_size=H, seed=30)
        return traced_peak(train, windows, cfg)

    def one_cache(self):
        return self.L * self.B * (self.F + 1 + 7 * self.H) * 8  # z and its 1, four gates, C and h per step

    def one_workspace(self):
        """The lstm module docstring's size of a training workspace: the
        cache and the scratch of both passes."""
        L, B, H, F = self.L, self.B, self.H, self.F
        return 8 * (B * ((L + 1) * (F + 2 * H + 1) + 4 * L * H + 14 * H) + 4 * H * (F + H + 1))

    def test_train_holds_one_batch_cache(self):
        assert self.train_peak(3 * self.B, epochs=1) <= 1.5 * self.one_cache()

    def test_short_last_batch_replaces_the_workspace(self):
        # Batches of B, B, B and 5 twice over: the full-size workspace is
        # dropped before the short batch's is built, so the peak is that of
        # full batches alone (holding both would add about 0.1 of a cache).
        peak = self.train_peak(3 * self.B + 5, epochs=2)
        assert peak <= 1.5 * self.one_cache()
        assert peak <= self.train_peak(3 * self.B, epochs=1) + 0.03 * self.one_cache()

    def test_forward_peak_is_one_workspace(self):
        # forward builds backward's scratch too. Per-step weight-gradient
        # products keep that to a few (4H, B) buffers; one (4H, L*B) product
        # would add a copy of G, about half a workspace, where 1% is allowed.
        rng = np.random.default_rng(32)
        p = init_params(self.F, self.H, seed=32)
        X = rng.normal(size=(self.B, self.L, self.F))
        assert traced_peak(forward, X, p) <= 1.01 * self.one_workspace()

    def test_backward_allocates_a_fraction_of_the_cache(self):
        # backward runs in forward's workspace: beside the flat gradient it
        # returns, it allocates only a few small temporaries.
        L, B, H, F = self.L, self.B, self.H, self.F
        rng = np.random.default_rng(32)
        p = init_params(F, H, seed=32)
        _, cache = forward(rng.normal(size=(B, L, F)), p)
        gradient = 8 * sum(tensor.size for _, tensor in p.tensors())
        assert traced_peak(backward, cache, rng.normal(size=B), p) <= 1.5 * gradient

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

    @pytest.mark.parametrize("message", [None, "loss overflowed"])
    def test_nonfinite_loss_survives_pickling(self, message):
        # compare sends a forked child's divergence through a pipe this way.
        exc = NonFiniteLoss(3, message)
        again = pickle.loads(pickle.dumps(exc, protocol=pickle.HIGHEST_PROTOCOL))
        assert type(again) is NonFiniteLoss
        assert again.epoch == 3
        assert str(again) == str(exc) == (message or "training loss became non-finite at epoch 3")

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


def random_windows(n, lookback, features, seed):
    rng = np.random.default_rng(seed)
    return WindowedDataset(rng.normal(size=(n, lookback, features)), rng.normal(size=n))


class TestFlatOptimizer:
    """``train`` keeps every parameter, the gradient and Adam's state in flat
    vectors; the per-tensor loop in ``oracles.reference_train`` must give
    the same checkpoint bit for bit."""

    @pytest.mark.parametrize("optimizer", ["adam", "sgd"])
    @pytest.mark.parametrize("max_norm", [1e-3, 1e6], ids=["clipped", "unclipped"])
    @pytest.mark.parametrize(
        "n, features, hidden_size, batch_size",
        # 171 windows in batches of 16 end in a short batch of 11, as in compare_paper.
        # 133 windows in batches of 64 end in a short batch of 5, at shapes BLAS threads.
        [(40, 3, 8, 8), (171, 3, 32, 16), (171, 4, 32, 16), (133, 4, 128, 64)],
        ids=["H8-B8", "H32-B16-F3", "H32-B16-F4", "H128-B64"],
    )
    def test_equals_per_tensor_reference(self, optimizer, max_norm, n, features, hidden_size, batch_size):
        windows = random_windows(n, 15, features, seed=n + features)
        cfg = TrainConfig(epochs=3, learning_rate=0.01, batch_size=batch_size, seed=9,
                          grad_clip_norm=max_norm, optimizer=optimizer, hidden_size=hidden_size)
        expected = checkpoint_to_json(reference_train(windows, cfg, feature_mode="dlpm"))
        assert checkpoint_to_json(train(windows, cfg, feature_mode="dlpm")) == expected


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
        empty = WindowedDataset(np.empty((0, 4, 1)), np.empty(0))
        assert predict(cp, empty).shape == (0,)

    def test_feature_count_mismatch(self):
        windows, _, _ = sine_windows()
        cp = Checkpoint(params=zero_params(input_size=3, hidden_size=2),
                        config=TrainConfig(epochs=1, hidden_size=2), loss_history=(0.0,))
        with pytest.raises(PipelineError, match="feature count 1 != input_size 3"):
            predict(cp, windows)

    def test_empty_windows_with_the_wrong_feature_count(self):
        # No window is a batch of 0 on the one inference path, so the
        # feature count is checked as for any other batch.
        cp = Checkpoint(params=zero_params(1, 3), config=TrainConfig(epochs=1, hidden_size=3),
                        loss_history=(0.0,))
        with pytest.raises(PipelineError, match="feature count 2 != input_size 1"):
            predict(cp, WindowedDataset(np.empty((0, 4, 2)), np.empty(0)))


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
        windows, _, _ = sine_windows()
        scaler = ScalerParams(("value", "target"), (80.0, 80.5), (120.0, 120.25))
        cfg = TrainConfig(epochs=2, learning_rate=0.02, seed=12, hidden_size=8)
        cp = train(windows, cfg, scaler=scaler if carried else None, feature_mode="hisa" if carried else None)
        save_checkpoint(cp, tmp_path / "checkpoint.json")
        assert (tmp_path / "checkpoint.json").read_bytes() == checkpoint_to_json(cp).encode("utf-8")
        block = {"feature_names": ["value", "target"], "min": [80.0, 80.5], "max": [120.0, 120.25]}
        assert json.loads(checkpoint_to_json(cp))["scaler"] == (block if carried else None)
        assert checkpoint_from_json(checkpoint_to_json(cp)).scaler == (scaler if carried else None)
        # A valid document loads and re-serializes to the same bytes.
        assert checkpoint_to_json(checkpoint_from_json(checkpoint_to_json(cp))) == checkpoint_to_json(cp)
        # The text is the json module's own compact encoding of the document.
        reference = json.dumps(_checkpoint_document(cp), sort_keys=True)
        assert checkpoint_to_json(cp) == reference

    def test_gate_names_map_to_row_blocks(self):
        # Gate k's weights are k and its bias 10 + k, so a bias column read
        # as a weight column, or the reverse, shows.
        H, F = 2, 3
        p = zero_params(input_size=F, hidden_size=H)
        for k in range(4):
            p.W[k * H:(k + 1) * H, :-1] = k
            p.W[k * H:(k + 1) * H, -1] = 10 + k
        cp = Checkpoint(params=p, config=TrainConfig(epochs=1, hidden_size=H), loss_history=(0.0,))
        text = checkpoint_to_json(cp)
        arrays = json.loads(text)["params"]
        for k, gate in enumerate("fiog"):
            assert arrays[f"W_{gate}"] == [float(k)] * (H * (F + H)), gate
            assert arrays[f"b_{gate}"] == [float(10 + k)] * H, gate
        again = checkpoint_from_json(text)
        assert np.array_equal(again.params.W, p.W)

    #: A version-1 document written out by hand: one feature, one unit, and
    #: every parameter entry distinct.
    HAND_WRITTEN_V1 = (
        '{"config": {"batch_size": 32, "epochs": 1, "grad_clip_norm": 5.0, "hidden_size": 1, '
        '"learning_rate": 0.001, "optimizer": "adam", "seed": 0}, "feature_mode": null, "hidden_size": 1, '
        '"input_size": 1, "loss_history": [0.5], "params": {"W_f": [0.1, 0.2], "W_g": [1.0, 1.1], '
        '"W_i": [0.4, 0.5], "W_o": [0.7, 0.8], "W_y": [1.3], "b_f": [0.3], "b_g": [1.2], "b_i": [0.6], '
        '"b_o": [0.9], "b_y": [1.4]}, "scaler": null, "version": 1}'
    )

    def test_hand_written_document_loads_into_the_gate_matrix(self):
        cp = checkpoint_from_json(self.HAND_WRITTEN_V1)
        # Rows f, i, o, g: each gate's weights (x, then h), then its bias.
        expected = [[0.1, 0.2, 0.3], [0.4, 0.5, 0.6], [0.7, 0.8, 0.9], [1.0, 1.1, 1.2]]
        assert cp.params.W.shape == (4, 3)
        assert cp.params.W.tolist() == expected
        assert cp.params.W_y.tolist() == [[1.3]] and cp.params.b_y.tolist() == [1.4]
        assert checkpoint_to_json(cp) == self.HAND_WRITTEN_V1

    def test_bool_size_refused(self):
        # One feature: int(True) would have passed as input_size 1.
        windows, _, _ = sine_windows()
        doc = json.loads(checkpoint_to_json(train(windows, TrainConfig(epochs=1, hidden_size=4))))
        doc["input_size"] = True
        with pytest.raises(PipelineError, match="input_size must be an integer, got True"):
            checkpoint_from_json(json.dumps(doc))

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
