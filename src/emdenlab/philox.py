"""Philox4x64-10 on numpy arrays: numpy's ``Generator(Philox(seed))``
draws for the calls the identity campaigns make, without numpy.random.

``Philox(seed)`` gives, bit for bit, what numpy's generator gives for
``uniform(low, high, size)`` and for a scalar ``integers(low, high)``
over at most 2**32 values, interleaved in any order:

* **Key.** numpy's ``SeedSequence(seed).generate_state(2, uint64)``,
  written with Python ints: the seed's 32-bit words are hashed into a
  pool of four words, mixed, and hashed out again (O'Neill's
  seed_seq_fe, as numpy has it).
* **Blocks.** Philox4x64 with 10 rounds (Salmon, Moraes, Dror & Shaw,
  "Parallel random numbers: as easy as 1, 2, 3", SC'11).  The counter
  is incremented before each block, so the first block has counter 1,
  and a block's four words are handed out in order.  ``_blocks`` runs
  the rounds vectorized over counters, with each 64x64 -> 128-bit
  product formed from 32-bit halves in uint64, and the stream refills
  its buffer ``_CHUNK`` blocks at a time.  A caller that knows how many
  words it will draw first may say so: the first refill then makes just
  the blocks for them, at most ``_CHUNK``.  The counter's upper words
  stay zero: the stream is exact for its first 2**64 blocks.
* **Doubles.** A word w gives (w >> 11) * 2**-53, and
  ``uniform`` returns low + (high - low) * that.
* **Integers.** Lemire's bounded method on 32-bit draws (Lemire, "Fast
  random integer generation in an interval", ACM TOMACS 29(1), 2019).
  A 32-bit draw takes a word's low half and keeps its high half for
  the next 32-bit draw, as numpy's ``has_uint32`` buffer does; double
  draws pass that kept half by.

The module imports no other emdenlab module.
"""

from __future__ import annotations

import math
import operator

import numpy as np

__all__ = ["Philox"]

_MASK32 = 0xFFFFFFFF
_MASK64 = 0xFFFFFFFFFFFFFFFF

# numpy's SeedSequence: hash and mix constants, pool of four 32-bit words
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_POOL = 4

# Philox4x64-10: round multipliers and the key's Weyl increments
_M0, _M1 = 0xD2E7470EE14C6C93, 0xCA5A826395121157
_W0, _W1 = 0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B
_ROUNDS = 10

#: blocks per buffer refill (four words each)
_CHUNK = 2048


def _key(seed: int) -> tuple:
    """numpy's ``SeedSequence(seed).generate_state(2, uint64)`` as two
    Python ints, for a non-negative integer seed."""
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError("expected non-negative integer")
    entropy = [seed & _MASK32]
    seed >>= 32
    while seed:
        entropy.append(seed & _MASK32)
        seed >>= 32
    const = _INIT_A

    def hashmix(value):
        nonlocal const
        value ^= const
        const = const * _MULT_A & _MASK32
        value = value * const & _MASK32
        return value ^ value >> 16

    def mix(x, y):
        result = (_MIX_L * x - _MIX_R * y) & _MASK32
        return result ^ result >> 16

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(_POOL)]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL:]:
        for dst in range(_POOL):
            pool[dst] = mix(pool[dst], hashmix(word))
    const = _INIT_B
    state = []
    for word in pool:
        word ^= const
        const = const * _MULT_B & _MASK32
        word = word * const & _MASK32
        state.append(word ^ word >> 16)
    return state[0] | state[1] << 32, state[2] | state[3] << 32


def _mulhilo(m: int, b: np.ndarray):
    """(low, high) 64-bit words of the 128-bit products m * b, for a
    constant m and a uint64 array b, from 32-bit halves."""
    m_lo, m_hi = np.uint64(m & _MASK32), np.uint64(m >> 32)
    b_lo, b_hi = b & np.uint64(_MASK32), b >> np.uint64(32)
    t = b_lo * m_lo
    t >>= np.uint64(32)
    t += b_hi * m_lo  # < 2**64: a 32x32-bit product plus a 32-bit carry
    mid = t & np.uint64(_MASK32)
    t >>= np.uint64(32)
    mid += b_lo * m_hi
    mid >>= np.uint64(32)
    t += mid
    t += b_hi * m_hi
    return b * np.uint64(m), t  # uint64 products wrap modulo 2**64


def _blocks(key: tuple, first: int, count: int) -> np.ndarray:
    """The words of the blocks with counters first, ..., first + count - 1,
    in stream order (four per block), as one uint64 array."""
    c0 = np.arange(first, first + count, dtype=np.uint64)
    c1 = np.zeros(count, np.uint64)
    c2 = np.zeros(count, np.uint64)
    c3 = np.zeros(count, np.uint64)
    k0, k1 = key
    for i in range(_ROUNDS):
        if i:
            k0, k1 = (k0 + _W0) & _MASK64, (k1 + _W1) & _MASK64
        lo0, hi0 = _mulhilo(_M0, c0)
        lo1, hi1 = _mulhilo(_M1, c2)
        hi1 ^= c1
        hi1 ^= np.uint64(k0)
        hi0 ^= c3
        hi0 ^= np.uint64(k1)
        c0, c1, c2, c3 = hi1, lo1, hi0, lo0
    out = np.empty((count, 4), np.uint64)
    out[:, 0], out[:, 1], out[:, 2], out[:, 3] = c0, c1, c2, c3
    return out.reshape(-1)


class Philox:
    """numpy's ``Generator(Philox(seed))`` for ``uniform`` and scalar
    ``integers`` over at most 2**32 values: the same draws, bit for bit,
    and the same types.

    ``words``, if given, is how many words the caller expects to draw
    first; it sizes the first refill only and changes no draw."""

    def __init__(self, seed: int, words: int = None):
        self._key = _key(seed)
        self._counter = 0  # the counter of the last block generated
        self._words = np.empty(0, np.uint64)
        self._pos = 0
        self._half = None  # a word's high half, kept for the next 32-bit draw
        # blocks of the next refill
        self._count = _CHUNK if words is None else min(_CHUNK, max(1, -(-words // 4)))

    def _refill(self):
        count, self._count = self._count, _CHUNK
        self._words = _blocks(self._key, self._counter + 1, count)
        self._counter += count
        self._pos = 0

    def _next64(self) -> int:
        if self._pos == self._words.size:
            self._refill()
        self._pos += 1
        return int(self._words[self._pos - 1])

    def _take(self, count: int) -> np.ndarray:
        """The next count words of the stream."""
        out = np.empty(count, np.uint64)
        done = 0
        while done < count:
            if self._pos == self._words.size:
                self._refill()
            step = min(count - done, self._words.size - self._pos)
            out[done:done + step] = self._words[self._pos:self._pos + step]
            self._pos += step
            done += step
        return out

    def _next32(self) -> int:
        if self._half is not None:
            half, self._half = self._half, None
            return half
        word = self._next64()
        self._half = word >> 32
        return word & _MASK32

    def uniform(self, low=0.0, high=1.0, size=None):
        """low + (high - low) * u, u uniform on [0, 1) with 53 random
        bits: a Python float when size is None, else a float64 array of
        that shape filled in C order."""
        low = float(low)
        span = float(high) - low
        if size is None:
            return low + span * ((self._next64() >> 11) * 2.0**-53)
        shape = tuple(size) if np.iterable(size) else (operator.index(size),)
        x = (self._take(math.prod(shape)) >> np.uint64(11)).astype(np.float64)
        x *= 2.0**-53
        x *= span
        x += low
        return x.reshape(shape)

    def integers(self, low, high=None):
        """One int64 uniform on [low, high), or on [0, low) when high is
        None, by Lemire's bounded method on 32-bit draws (numpy's path
        for at most 2**32 values, the only one implemented)."""
        if high is None:
            low, high = 0, low
        low, high = operator.index(low), operator.index(high)
        if low >= high:
            raise ValueError("low >= high")
        n = high - low
        if n > 1 << 32:
            raise NotImplementedError("integers draws ranges of at most 2**32 values")
        if n == 1:  # a single value: numpy draws nothing
            return np.int64(low)
        m = self._next32() * n
        if m & _MASK32 < n:
            threshold = ((1 << 32) - n) % n
            while m & _MASK32 < threshold:
                m = self._next32() * n
        return np.int64(low + (m >> 32))
