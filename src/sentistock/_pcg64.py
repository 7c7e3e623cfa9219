"""The random stream of numpy's ``default_rng(seed)``, computed here.

Training draws its initial weights and its batch order from this stream,
so it never imports ``numpy.random``, which brings in about 19 modules
(``secrets``, ``hashlib`` and the legacy ``mtrand`` among them), and the
bits depend on this module rather than on the numpy release: numpy's
NEP 19 lets a release change what a ``Generator`` method draws. The stream
equals ``numpy.random.default_rng(seed)`` as of numpy 2.4.6.

- :func:`seed_words` is numpy's ``SeedSequence(seed).generate_state(4,
  uint64)``: the seed's 32-bit words are hashed into a pool of four, and
  the pool into four 64-bit words.
- :class:`PCG64` is O'Neill's PCG XSL-RR 128/64 (*PCG: A Family of Simple
  Fast Space-Efficient Statistically Good Algorithms for Random Number
  Generation*, HMC-CS-2014-0905) seeded as numpy's ``PCG64`` is: the first
  two words are the initial state, the last two the increment. Each draw
  steps the 128-bit state s to s * M + inc (mod 2**128) and outputs the
  xor of its two halves rotated right by its top 6 bits.

The generator serves the order in which training draws: any number of
:meth:`PCG64.uniform` calls (``init_params``), then any number of
:meth:`PCG64.permutation` calls (``train``'s shuffles, on a stream of their
own). A permutation draws a whole block ahead, so the stream stands past
outputs it has not used yet, and a ``uniform`` call after one that drew
anything raises ``ValueError``.

The state is a Python int between blocks of up to :data:`CHUNK` outputs.
A block's states come at once from numpy operations on uint64 words:
s_k = M**k * s_0 + (M**(k-1) + ... + 1) * inc (mod 2**128) for k = 1 ..
m, with M**k and the sums tabled once per process for k up to CHUNK (the
sums times inc once per generator), and the 128-bit products formed from
32-bit pieces of the low words. The xor, rotation and float conversion run
on the block too, so a draw holds at most a few block-sized arrays,
whatever its size, and :meth:`PCG64.uniform` runs no Python loop per
output. Only :meth:`PCG64.permutation`'s shuffle, one swap per element, is
a Python loop.
"""

from __future__ import annotations

import functools
import operator

from ._numpy import np

#: Outputs per block: a draw's working memory is a few arrays of this length.
CHUNK = 1024

_MULT = 0x2360ED051FC65DA44385DF649FCCF645  # PCG's default 128-bit multiplier
_MASK128 = (1 << 128) - 1
_MASK64 = (1 << 64) - 1
_MASK32 = 0xFFFFFFFF


def seed_words(seed) -> tuple[int, int, int, int]:
    """numpy's ``SeedSequence(seed).generate_state(4, np.uint64)`` as ints.

    ``seed`` is a non-negative integer (anything ``operator.index``
    takes, a numpy integer too); a negative one raises ``ValueError``, as
    numpy does.
    """
    n = operator.index(seed)
    if n < 0:
        raise ValueError("expected non-negative integer")
    entropy = [n & _MASK32]
    while n > _MASK32:
        n >>= 32
        entropy.append(n & _MASK32)

    hash_const = 0x43B0D7E5

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = (hash_const * 0x931E8875) & _MASK32
        value = (value * hash_const) & _MASK32
        return value ^ (value >> 16)

    def mix(x: int, y: int) -> int:
        result = (0xCA01F9DD * x - 0x4973F715 * y) & _MASK32
        return result ^ (result >> 16)

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for value in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(value))

    hash_const = 0x8B51F9DD
    halves = []
    for i in range(8):
        value = pool[i % 4] ^ hash_const
        hash_const = (hash_const * 0x58F38DED) & _MASK32
        value = (value * hash_const) & _MASK32
        halves.append(value ^ (value >> 16))
    return tuple(halves[2 * k] | halves[2 * k + 1] << 32 for k in range(4))


def _words(values: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """The low and high 64-bit words of 128-bit ints, as read-only uint64
    arrays: the tables are shared by every generator in the process."""
    words = (np.array([v & _MASK64 for v in values], dtype=np.uint64),
             np.array([v >> 64 for v in values], dtype=np.uint64))
    for array in words:
        array.flags.writeable = False
    return words


def _mul_add(a: tuple[np.ndarray, np.ndarray], s: int, c: tuple[np.ndarray, np.ndarray] | None = None):
    """(low, high) uint64 words of a * s + c (mod 2**128), for the 128-bit
    ints a and c given as equal-length (low, high) word arrays and a Python
    int s. The low words' product is built from 32-bit pieces, whose
    products fit in 64 bits; the rest of the high word wraps mod 2**64, as
    uint64 arithmetic does."""
    a_lo, a_hi = a
    s_lo, s_hi = s & _MASK64, s >> 64
    a0, a1 = a_lo & _MASK32, a_lo >> 32
    b0, b1 = s_lo & _MASK32, s_lo >> 32
    lo = a0 * b0
    mid = a0 * b1
    cross = a1 * b0
    hi = a1 * b1
    hi += mid >> 32
    hi += cross >> 32
    mid &= _MASK32
    mid += cross & _MASK32
    mid += lo >> 32  # below 3 * 2**32
    hi += mid >> 32
    lo &= _MASK32
    mid <<= 32
    lo |= mid
    np.multiply(a_hi, s_lo, out=cross)
    hi += cross
    np.multiply(a_lo, s_hi, out=cross)
    hi += cross
    if c is not None:
        lo += c[0]
        hi += c[1]
        hi += lo < c[0]  # the carry out of the low word
    return lo, hi


@functools.cache
def _jump_tables() -> tuple[tuple[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]:
    """M**k and M**(k-1) + ... + 1 (mod 2**128) for k = 1 .. CHUNK, as words."""
    powers, sums = [], []
    power, total = 1, 0
    for _ in range(CHUNK):
        total = (total + power) & _MASK128
        power = (power * _MULT) & _MASK128
        powers.append(power)
        sums.append(total)
    return _words(powers), _words(sums)


class PCG64:
    """The PCG64 stream of ``numpy.random.default_rng(seed)``, with the two
    draws training makes: :meth:`uniform` calls, then :meth:`permutation`
    calls."""

    def __init__(self, seed):
        words = seed_words(seed)
        initstate = words[0] << 64 | words[1]
        inc = ((words[2] << 64 | words[3]) << 1 | 1) & _MASK128
        self._state = ((inc + initstate) * _MULT + inc) & _MASK128
        self._powers, sums = _jump_tables()
        self._offsets = _mul_add(sums, inc)  # (M**(k-1) + ... + 1) * inc
        # The lower and upper halves of the block :meth:`permutation` last
        # drew, in numpy's order of 32-bit draws, of which the first
        # ``_used`` are taken; the stream stands past the whole block.
        self._halves: list[int] = []
        self._used = 0

    def _outputs(self, m: int) -> np.ndarray:
        """The next m (1 <= m <= CHUNK) 64-bit outputs, a new uint64 array:
        each state's halves xored, rotated right by its top 6 bits. The
        stream moves past them."""
        (p_lo, p_hi), (c_lo, c_hi) = self._powers, self._offsets
        lo, hi = _mul_add((p_lo[:m], p_hi[:m]), self._state, (c_lo[:m], c_hi[:m]))
        self._state = int(hi[-1]) << 64 | int(lo[-1])
        out = np.bitwise_xor(hi, lo)
        rot = np.right_shift(hi, 58)
        low_part = np.right_shift(out, rot)
        # The bits shifted out on the right come back on the left.
        np.subtract(64, rot, out=rot)
        rot &= 63
        out <<= rot
        out |= low_part
        return out

    def uniform(self, low: float, high: float, out: np.ndarray) -> None:
        """Fill ``out``, a float64 array of any shape that may be a strided
        view, in row-major order with ``default_rng(seed).uniform(low,
        high, out.shape)``'s values: low + (high - low) * u, where u is an
        output's top 53 bits times 2**-53. After a :meth:`permutation` that
        drew, it raises ``ValueError``: that draw took a block ahead."""
        if self._halves:
            raise ValueError("uniform cannot follow a permutation that drew from the stream")
        for start in range(0, out.size, CHUNK):
            bits = self._outputs(min(CHUNK, out.size - start))
            bits >>= 11
            values = np.multiply(bits, 2.0 ** -53)
            values *= high - low
            values += low
            out.flat[start:start + values.size] = values

    def permutation(self, n: int) -> np.ndarray:
        """``default_rng(seed).permutation(n)``: numpy's Fisher-Yates
        shuffle of ``arange(n)`` (int64), which draws each swap index j in
        [0, i] by masking 32-bit draws to i's bit length and drawing again
        while j > i. A 32-bit draw takes the lower half of a fresh output
        and keeps the upper half for the next, across calls too. n is at
        most 2**32, numpy's limit for 32-bit draws."""
        n = operator.index(n)
        if n > 1 << 32:
            raise ValueError(f"permutation supports n up to 2**32, got {n}")
        order = list(range(n))
        halves, used = self._halves, self._used
        mask = (1 << (n - 1).bit_length()) - 1
        for i in range(n - 1, 0, -1):
            if i <= mask >> 1:  # the mask of i's bit length
                mask >>= 1
            while True:
                if used == len(halves):
                    # A whole block, which later calls go on drawing from.
                    halves = self._outputs(CHUNK).astype("<u8", copy=False).view("<u4").tolist()
                    used = 0
                j = halves[used] & mask
                used += 1
                if j <= i:
                    break
            order[i], order[j] = order[j], order[i]
        self._halves, self._used = halves, used
        return np.array(order, dtype=np.int64)
