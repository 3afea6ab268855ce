"""numpy's default random stream on the standard library alone.

``SeedSequence`` and ``Generator`` give the doubles of numpy's
``SeedSequence`` and ``default_rng`` (a PCG64 bit generator) bit for bit,
so a run draws the points it drew when it sampled through numpy:

* the seed sequence hashes the seed's 32-bit words, and a spawn key
  after them, into a pool of four words, and hashes the pool out again
  into the generator's 128-bit state and increment;
* each draw is one step of the 128-bit LCG, its XSL-RR output, the top
  53 bits of that as a double in [0, 1) and ``lo + (hi - lo) * U``.

A numpy ``Generator`` passed in place of this one draws the same doubles
through the same ``uniform`` call.
"""

from __future__ import annotations

from itertools import cycle
from typing import Sequence

_MASK32 = 0xFFFFFFFF
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_TWO_M53 = 2.0 ** -53


def _words(n: int) -> list[int]:
    """The 32-bit words of a non-negative int, least significant first."""
    if n < 0:
        raise ValueError(f"seed {n}: expected a non-negative int")
    out = [n & _MASK32]
    while n > _MASK32:
        n >>= 32
        out.append(n & _MASK32)
    return out


def _mix(x: int, y: int) -> int:
    r = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
    return r ^ (r >> 16)


class SeedSequence:
    """numpy's ``SeedSequence(entropy)`` and its ``spawn`` children."""

    def __init__(self, entropy: int, spawn_key: tuple[int, ...] = ()):
        self.entropy = entropy
        self.spawn_key = spawn_key
        self.n_children_spawned = 0
        words = _words(entropy)
        if spawn_key:   # padded so that a spawn key cannot pose as run entropy
            words += [0] * (_POOL_SIZE - len(words))
            words += [w for k in spawn_key for w in _words(k)]
        hash_const = _INIT_A

        def hashmix(value: int) -> int:
            nonlocal hash_const
            value ^= hash_const
            hash_const = (hash_const * _MULT_A) & _MASK32
            value = (value * hash_const) & _MASK32
            return value ^ (value >> 16)

        pool = [hashmix(words[i] if i < len(words) else 0) for i in range(_POOL_SIZE)]
        for src in range(_POOL_SIZE):
            for dst in range(_POOL_SIZE):
                if src != dst:
                    pool[dst] = _mix(pool[dst], hashmix(pool[src]))
        for word in words[_POOL_SIZE:]:
            for dst in range(_POOL_SIZE):
                pool[dst] = _mix(pool[dst], hashmix(word))
        self.pool = pool

    def spawn(self, n_children: int) -> list[SeedSequence]:
        start = self.n_children_spawned
        self.n_children_spawned += n_children
        return [SeedSequence(self.entropy, self.spawn_key + (i,))
                for i in range(start, start + n_children)]

    def generate_state(self, n_words: int) -> list[int]:
        """``n_words`` 32-bit words of state hashed out of the pool."""
        hash_const = _INIT_B
        out = []
        for _, value in zip(range(n_words), cycle(self.pool)):
            value ^= hash_const
            hash_const = (hash_const * _MULT_B) & _MASK32
            value = (value * hash_const) & _MASK32
            out.append(value ^ (value >> 16))
        return out


class Generator:
    """numpy's ``default_rng(seed_sequence)``: PCG64 (XSL-RR), ``uniform`` only."""

    def __init__(self, seq: SeedSequence):
        w = seq.generate_state(8)
        # numpy's generate_state(4, uint64): little-endian pairs of 32-bit words
        s0, s1, i0, i1 = (w[k] | w[k + 1] << 32 for k in range(0, 8, 2))
        self._inc = ((i0 << 64 | i1) << 1 | 1) & _MASK128
        state = (self._inc + (s0 << 64 | s1)) & _MASK128
        self._state = (state * _PCG_MULT + self._inc) & _MASK128

    def uniform(self, low: Sequence[float], high: Sequence[float],
                size: tuple[int, int]) -> list[list[float]]:
        """``size[0]`` rows, each a draw in ``[low[k], high[k])`` per column
        k, drawn row by row: numpy's broadcast ``uniform(low, high, size)``."""
        columns = list(zip(low, [h - l for l, h in zip(low, high)]))
        mult, inc, state = _PCG_MULT, self._inc, self._state
        rows = []
        for _ in range(size[0]):
            row = []
            for lo, span in columns:
                state = (state * mult + inc) & _MASK128
                x = (state >> 64) ^ (state & _MASK64)
                x = ((x | x << 64) >> (state >> 122)) & _MASK64   # rotated right
                row.append(lo + span * ((x >> 11) * _TWO_M53))
            rows.append(row)
        self._state = state
        return rows


def default_rng(seed: int | SeedSequence | Generator) -> Generator:
    """A generator seeded by an int or a ``SeedSequence``; a generator (this
    module's or numpy's) is returned as it is."""
    if isinstance(seed, int):
        seed = SeedSequence(seed)
    if isinstance(seed, SeedSequence):
        return Generator(seed)
    return seed
