"""Seeding and replication helpers.

Every random draw in the package flows through ``spawn_rng`` so that a
(seed, stream-key) pair fully determines the stream. The per-draw loops of a
band or a bootstrap test take their generators from ``spawn_rngs``, which
gives the same streams as ``spawn_rng(seed, b)``, seeded for all draws at
once. Replications run serially, in order, through ``parallel_map``: a
thread pool over them measured no faster on two cores, so the thread count
has no effect.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator

import numpy as np

from .errors import ConfigError

# NumPy's SeedSequence hash (numpy/random/bit_generator.pyx) and PCG64's
# 128-bit multiplier: part of NumPy's stream-compatibility contract (NEP 19)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_POOL = 4
_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def spawn_rng(seed: int, *key: int) -> np.random.Generator:
    """Independent generator for stream ``key`` under the master ``seed``."""
    if seed < 0 or min(key, default=0) < 0:
        raise ConfigError(f"seeds and replications must be non-negative: seed {seed}, key {key}")
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))


def _seed_words(seed: int, count: int) -> np.ndarray:
    """``generate_state(4, uint64)`` of ``SeedSequence(seed, spawn_key=(b,))`` for
    every b < ``count``, as a (count, 8) array of little-endian uint32 words."""
    const = _INIT_A

    def hashmix(value):
        nonlocal const
        value = value ^ const
        const = const * _MULT_A & _MASK32
        value = value * const
        return value ^ (value >> 16)

    def mix(x, y):
        out = _MIX_L * x - _MIX_R * y
        return out ^ (out >> 16)

    seed, words = int(seed), []
    while seed or not words:
        words.append(seed & _MASK32)
        seed >>= 32
    # a spawn key pads the seed's words to the pool size before it is appended
    entropy = [np.full(count, w, dtype=np.uint32) for w in words + [0] * (_POOL - len(words))]
    entropy.append(np.arange(count, dtype=np.uint32))
    pool = [hashmix(word) for word in entropy[:_POOL]]
    for src, dst in itertools.permutations(range(_POOL), 2):
        pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word, dst in itertools.product(entropy[_POOL:], range(_POOL)):
        pool[dst] = mix(pool[dst], hashmix(word))
    const, state = _INIT_B, []
    for i in range(2 * _POOL):
        word = pool[i % _POOL] ^ const
        const = const * _MULT_B & _MASK32
        word = word * const
        state.append(word ^ (word >> 16))
    return np.stack(state, axis=1)


def spawn_rngs(seed: int, count: int) -> Iterator[np.random.Generator]:
    """``spawn_rng(seed, b)`` for b = 0 ... ``count`` - 1, bit for bit.

    One generator is yielded again and again, each time set to the state
    ``spawn_rng(seed, b)`` starts in, so it must be used up before the next
    one is taken. The SeedSequence hash runs for every key at once; each
    state then takes PCG64's two seeding steps in Python integers. A negative
    seed, or a key beyond one 32-bit word, is refused here, not at the first
    draw.
    """
    if seed < 0:
        raise ConfigError(f"seeds and replications must be non-negative: seed {seed}")
    if not 0 <= count <= _MASK32 + 1:
        raise ConfigError(f"stream keys take one 32-bit word: count {count}")
    # the uint64 words (s_hi, s_lo, inc_hi, inc_lo), little-endian as generate_state makes them
    words = _seed_words(seed, count).astype("<u4").view("<u8").tolist()
    return _set_states(words)


def _set_states(words: list) -> Iterator[np.random.Generator]:
    """One generator set to PCG64's seeded (state, inc) of each seed's words in turn."""
    gen = np.random.Generator(np.random.PCG64())
    for s_hi, s_lo, i_hi, i_lo in words:
        # pcg_setseq_128_srandom_r: from state 0, step, add the seed, step
        inc = ((i_hi << 64 | i_lo) << 1 | 1) & _MASK128
        state = (((inc + (s_hi << 64 | s_lo)) & _MASK128) * _PCG_MULT + inc) & _MASK128
        gen.bit_generator.state = {
            "bit_generator": "PCG64",
            "state": {"state": state, "inc": inc},
            "has_uint32": 0,
            "uinteger": 0,
        }
        yield gen


def parallel_map(fn, items) -> list:
    """Map ``fn`` over ``items`` serially, in order."""
    return [fn(item) for item in items]
