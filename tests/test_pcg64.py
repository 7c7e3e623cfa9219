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

#: Shapes of a fill: 1-d, 2-d (filled through a strided view, as init_params
#: fills W's weight columns), including rows wider than CHUNK, and 3-d.
SHAPES = st.one_of(
    LENGTHS.map(lambda n: (n,)),
    st.tuples(st.integers(1, 40), st.one_of(st.integers(1, 300), st.sampled_from([CHUNK, CHUNK + 1]))),
    st.tuples(st.integers(1, 6), st.integers(1, 12), st.integers(1, 300)),
)

#: Training's order of draws: uniform fills, then permutations.
UNIFORMS = st.lists(st.tuples(SHAPES, st.floats(-10, 10), st.floats(1e-3, 10)), max_size=4)
PERMUTATIONS = st.lists(st.integers(0, 3000), max_size=5)


def bits(values: np.ndarray) -> np.ndarray:
    return values.view(np.uint64)


def package_uniform(stream: PCG64, shape, low: float, high: float) -> np.ndarray:
    """Fill a strided view, as init_params fills W's weight columns; the
    column beside it must stay untouched."""
    wide = np.full((*shape[:-1], shape[-1] + 1), np.nan)
    stream.uniform(low, high, wide[..., :-1])
    assert np.isnan(wide[..., -1]).all()
    return wide[..., :-1]


class TestSameStreamAsNumpy:
    @settings(derandomize=True, max_examples=120, deadline=None)
    @given(SEEDS, UNIFORMS, PERMUTATIONS)
    def test_uniform_calls_then_permutations(self, seed, uniforms, permutations):
        ours, theirs = PCG64(seed), np.random.default_rng(seed)
        for shape, low, width in uniforms:
            expected = theirs.uniform(low, low + width, size=shape)
            got = package_uniform(ours, shape, low, low + width)
            assert got.shape == expected.shape
            assert np.array_equal(bits(got), bits(expected)), shape
        for n in permutations:
            expected, got = theirs.permutation(n), ours.permutation(n)
            assert got.dtype == expected.dtype
            assert np.array_equal(bits(got), bits(expected)), n

    @pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 + 3, 2**128 + 5, 2**200 + 12345])
    def test_seed_words(self, seed):
        # Seeds of more than four 32-bit words take the pool's second mixing loop.
        expected = np.random.SeedSequence(seed).generate_state(4, np.uint64)
        assert seed_words(seed) == tuple(int(word) for word in expected)

    def test_odd_permutations_carry_the_upper_half(self):
        # permutation(2) makes one 32-bit draw, so every other call starts
        # from the upper half the call before it kept.
        ours, theirs = PCG64(11), np.random.default_rng(11)
        for n in (2, 2, 3, 2):
            assert np.array_equal(ours.permutation(n), theirs.permutation(n))


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


class TestOrderOfDraws:
    @pytest.mark.parametrize("n", [0, 1])
    def test_uniform_after_a_permutation_that_drew_nothing(self, n):
        ours, theirs = PCG64(3), np.random.default_rng(3)
        assert np.array_equal(ours.permutation(n), theirs.permutation(n))
        out = np.empty(5)
        ours.uniform(0.0, 1.0, out)
        assert np.array_equal(bits(out), bits(theirs.uniform(0.0, 1.0, size=5)))

    def test_uniform_after_a_permutation_that_drew_raises(self):
        stream = PCG64(3)
        stream.permutation(2)
        with pytest.raises(ValueError, match="cannot follow a permutation"):
            stream.uniform(0.0, 1.0, np.empty(5))
