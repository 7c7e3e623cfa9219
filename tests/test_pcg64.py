"""``sentistock._pcg64`` draws the stream of ``numpy.random.default_rng``.

Each check runs the same calls on numpy's generator and on the package's
and compares the results bit for bit, through ``.view(np.uint64)``.
"""

import operator

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sentistock._pcg64 import CHUNK, PCG64, seed_words

SEEDS = st.one_of(st.integers(0, 2**70), st.just(np.int64(7)))

#: Empty, single, odd and chunk-straddling lengths.
LENGTHS = st.one_of(
    st.sampled_from([0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 1]),
    st.integers(0, 3 * CHUNK).map(lambda n: n | 1),
)

#: (rows, cols) of a 2-d fill: whole-row blocks (cols up to CHUNK) and
#: blocks within a row (cols above it).
SHAPES_2D = st.tuples(st.integers(1, 40), st.one_of(st.integers(1, 300), st.sampled_from([CHUNK, CHUNK + 1])))

CALLS = st.lists(
    st.one_of(
        st.tuples(st.just("uniform"), st.one_of(LENGTHS.map(lambda n: (n,)), SHAPES_2D),
                  st.floats(-10, 10), st.floats(1e-3, 10)),
        st.tuples(st.just("permutation"), st.integers(0, 3000)),
    ),
    min_size=1,
    max_size=8,
)


def bits(values: np.ndarray) -> np.ndarray:
    return values.view(np.uint64)


def package_uniform(stream: PCG64, shape, low: float, high: float) -> np.ndarray:
    """Fill a strided view, as init_params fills W's weight columns; the
    column beside it must stay untouched."""
    if len(shape) == 1:
        out = np.empty(shape)
        stream.uniform(low, high, out)
        return out
    wide = np.full((shape[0], shape[1] + 1), np.nan)
    stream.uniform(low, high, wide[:, :-1])
    assert np.isnan(wide[:, -1]).all()
    return wide[:, :-1]


class TestSameStreamAsNumpy:
    @settings(derandomize=True, max_examples=120, deadline=None)
    @given(SEEDS, CALLS)
    def test_random_call_sequences(self, seed, calls):
        ours, theirs = PCG64(seed), np.random.default_rng(seed)
        for call in calls:
            if call[0] == "uniform":
                _, shape, low, width = call
                expected = theirs.uniform(low, low + width, size=shape)
                got = package_uniform(ours, shape, low, low + width)
                assert got.shape == expected.shape
                assert np.array_equal(bits(got), bits(expected)), call
            else:
                expected, got = theirs.permutation(call[1]), ours.permutation(call[1])
                assert got.dtype == expected.dtype
                assert np.array_equal(bits(got), bits(expected)), call

    @pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 + 3, 2**128 + 5, 2**200 + 12345])
    def test_seed_words(self, seed):
        # Seeds of more than four 32-bit words take the pool's second mixing loop.
        expected = np.random.SeedSequence(seed).generate_state(4, np.uint64)
        assert seed_words(seed) == tuple(int(word) for word in expected)

    def test_odd_permutations_carry_the_upper_half(self):
        # permutation(2) makes one 32-bit draw, so every other call starts
        # from the upper half the call before it kept; a uniform draw in
        # between leaves that half in place.
        ours, theirs = PCG64(11), np.random.default_rng(11)
        for n in (2, 2, 3, 2):
            assert np.array_equal(ours.permutation(n), theirs.permutation(n))
            out = np.empty(3)
            ours.uniform(0.0, 1.0, out)
            assert np.array_equal(bits(out), bits(theirs.uniform(0.0, 1.0, size=3)))


class TestSeed:
    def test_numpy_integer_seed(self):
        out, expected = np.empty(5), np.empty(5)
        PCG64(np.int64(7)).uniform(0.0, 1.0, out)
        PCG64(7).uniform(0.0, 1.0, expected)
        assert np.array_equal(bits(out), bits(expected))

    def test_negative_seed_is_refused_as_numpy_does(self):
        with pytest.raises(ValueError):
            np.random.default_rng(-1)
        with pytest.raises(ValueError, match="non-negative"):
            PCG64(-1)

    def test_seed_goes_through_operator_index(self):
        with pytest.raises(TypeError):
            operator.index(7.0)
        with pytest.raises(TypeError):
            PCG64(7.0)


class TestUniformArguments:
    def test_three_dimensional_out_is_refused(self):
        with pytest.raises(ValueError, match="1-d or 2-d"):
            PCG64(0).uniform(0.0, 1.0, np.empty((2, 2, 2)))
