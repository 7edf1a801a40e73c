"""Counter-based random streams keyed by (seed, index...).

Every Monte Carlo trial and sample path draws from its own Philox stream
(Salmon et al., SC'11) whose key is ``SeedSequence(entropy=seed,
spawn_key=index)``'s own, so results are bitwise reproducible regardless of
batching or scheduling order.  ``rng_stream`` builds one such stream through
its ``SeedSequence`` and is the definition.

``trial_streams`` gives the streams of the consecutive trials of one sampler
call, with the same keys computed per batch.  A spawned ``SeedSequence``
hashes the seed's uint32 words into a four-word pool, mixes each word of the
trial index into every pool word, and draws the two key words from the pool.
The seed's part is the same for every trial, so numpy's own
``SeedSequence(seed)`` runs it once (its pool is the same with or without a
spawn key).  The index words and the key draw then run once for the whole
batch, on uint64 arrays of uint32 values with every product and difference
masked to 32 bits.  That is SeedSequence's uint32 arithmetic: a product of
two uint32 values fits in 64 bits, and a negative difference wraps modulo
2^64, which keeps its low 32 bits (array arithmetic wraps without a
warning).  One Philox generator is reset to each trial's key in turn, with
counter 0 and an empty buffer, the state a fresh
``Philox(SeedSequence(...))`` starts in.  Building each stream through its own ``SeedSequence`` took
about 12 us a trial on a 2-vCPU Xeon; the reset takes about 1.5 us.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

__all__ = ["rng_stream", "trial_streams"]

# SeedSequence's pool size and hash constants (numpy.random.bit_generator)
_POOL_SIZE = 4
_MASK = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


def rng_stream(seed: int, *key: int) -> np.random.Generator:
    """Independent generator for the given seed and integer key path."""
    sequence = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(k) for k in key))
    return np.random.Generator(np.random.Philox(sequence))


def _word_count(value: int) -> int:
    """How many uint32 words SeedSequence reads from a non-negative int."""
    return max(1, -(-value.bit_length() // 32))


def _constants(const: int, mult: int, count: int) -> np.ndarray:
    """``const`` and the ``count`` hash constants SeedSequence steps it to by ``mult``, as a uint64 column."""
    chain = [const]
    for _ in range(count):
        chain.append(chain[-1] * mult & _MASK)
    return np.array(chain, dtype=np.uint64)[:, None]


def _hashed(values: np.ndarray, constants: np.ndarray) -> np.ndarray:
    """SeedSequence's hash of uint32 values, row d at the constants d and d + 1 of a column.

    Each hash xors in a constant, multiplies by the next one and xorshifts.
    """
    values = (values ^ constants[:-1]) * constants[1:] & _MASK
    return values ^ values >> 16


_KEY_CONSTANTS = _constants(_INIT_B, _MULT_B, _POOL_SIZE)


def _spawn_keys(sequence: np.random.SeedSequence, first: int, trials: int) -> tuple[np.ndarray, np.ndarray]:
    """The two Philox key words of ``SeedSequence(entropy=seed, spawn_key=(i,))`` for i = first .. first + trials - 1.

    ``sequence`` is ``SeedSequence(seed)``; the key words are its spawned
    children's ``generate_state(2, np.uint64)``, one array entry per trial.
    """
    last = first + trials - 1
    index = np.arange(first, last + 1, dtype=np.uint64 if last >> 64 == 0 else object)
    words = _word_count(last)
    # the seed's part hashed 4 max(4, seed words) times: once per pool word,
    # 12 times in the pairwise mixing and 4 times per seed word past the fourth
    calls = _POOL_SIZE * max(_POOL_SIZE, _word_count(sequence.entropy))
    constants = _constants(_INIT_A * pow(_MULT_A, calls, 1 << 32) & _MASK, _MULT_A, _POOL_SIZE * words)
    pool = sequence.pool.astype(np.uint64)[:, None]
    for j in range(words):
        word = (index >> 32 * j & _MASK).astype(np.uint64)
        hashed = _hashed(word, constants[_POOL_SIZE * j : _POOL_SIZE * (j + 1) + 1])
        mixed = (_MIX_MULT_L * pool - _MIX_MULT_R * hashed) & _MASK
        mixed ^= mixed >> 16
        # an index below 2^(32 j) has no word j, and its pool stays
        pool = mixed if j == 0 or first >> 32 * j else np.where(index >> 32 * j != 0, mixed, pool)
    state = _hashed(pool, _KEY_CONSTANTS)
    return state[0] | state[1] << 32, state[2] | state[3] << 32


def trial_streams(seed: int, first_trial: int, trials: int) -> Iterator[np.random.Generator]:
    """The streams ``rng_stream(seed, first_trial + t)`` for t = 0 .. trials - 1, in turn.

    A batch's streams are one generator, reset to the next trial's key when
    the next one is asked for, so a caller draws everything of a trial
    before the next.  One trial has no batch to share the key pass with, so
    it gets ``rng_stream``'s own generator.
    """
    seed, first_trial = int(seed), int(first_trial)
    if first_trial < 0:
        raise ValueError("trial indices must be non-negative")
    if trials == 1:
        yield rng_stream(seed, first_trial)
        return
    sequence = np.random.SeedSequence(seed)
    low, high = _spawn_keys(sequence, first_trial, trials)
    bits = np.random.Philox(sequence)
    rng = np.random.Generator(bits)
    keyed = {"counter": (0, 0, 0, 0), "key": None}
    # counter 0 and an empty buffer: the state a fresh generator starts in
    state = {
        "bit_generator": "Philox",
        "state": keyed,
        "buffer": (0, 0, 0, 0),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    for key in zip(low.tolist(), high.tolist()):
        keyed["key"] = key
        bits.state = state
        yield rng
