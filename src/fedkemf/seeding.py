"""Deterministic seed derivation for independent random streams.

All randomness in a run is derived from the experiment seed plus integer
context (salt, client id, round, epoch), so client updates are reproducible
regardless of scheduling order.

derive_seed is np.random.SeedSequence's hash of the context, computed in
Python integers with numpy's hash constants precomputed: building a
SeedSequence for every epoch costs more than the hash.  The streams
themselves are np.random.default_rng(seed)'s.  _bulk_generators makes many of
those streams at once, for set-up's per-client streams: the same hash over
uint64 arrays, then PCG64's seeding in Python integers.  tests/test_seeding.py
pins both to numpy.
"""

import numpy as np

# Stream salts.  Distinct salts keep the salted streams apart, but a client's
# epoch orders are seeded from (seed, client_id, round, epoch) with no salt, and
# SeedSequence pads short entropy with zeros.  So the client whose id equals a
# salt shares seeds with that salt's stream: client 101's epoch 0 of round r with
# the sampling of round r, client 202's round r with the distillation of round
# r + 1, clients 303 and 808 with the init and val-split streams.  Salting either
# side would change every artifact.
SALT_SAMPLING = 101
SALT_DISTILL = 202
SALT_CLIENT_INIT = 303
SALT_GLOBAL_INIT = 404
SALT_DATA = 505
SALT_TEST_DATA = 606
SALT_SERVER_SPLIT = 707
SALT_VAL_SPLIT = 808
SALT_PARTITION = 909

# numpy/random/bit_generator.pyx (SeedSequence) constants.
_M32 = 0xFFFFFFFF


def _hash_constants(init, mult, count):
    """[(xor, multiplier)] of `count` successive hashes: a hash xors the running constant
    into the value, steps the constant by `mult` and multiplies the value by it."""
    pairs = []
    for _ in range(count):
        pairs.append((init, init * mult & _M32))
        init = init * mult & _M32
    return pairs


# SeedSequence's pool takes one hash per entropy word, then mixes the hash of each
# entry, in order, into every other entry, in order; a state word is the hash of a
# pool entry.
_POOL_HASHES = _hash_constants(0x43B0D7E5, 0x931E8875, 16)
_INPUT_HASHES = _POOL_HASHES[:4]
_MIXING = [(src, dst, x, m) for (src, dst), (x, m) in zip(
    [(src, dst) for src in range(4) for dst in range(4) if src != dst], _POOL_HASHES[4:])]
_STATE_HASHES = _hash_constants(0x8B51F9DD, 0x58F38DED, 8)

# numpy/random/src/pcg64/pcg64.h: PCG_DEFAULT_MULTIPLIER_128.
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_M128 = (1 << 128) - 1


def _pool(words):
    """SeedSequence's four-word entropy pool of one to four 32-bit words, each an int or
    a uint64 array (uint64 wraps where Python ints grow, and every step masks to 32
    bits, so both give the same words)."""
    pool = []
    for word, (x, m) in zip(words + [0] * (4 - len(words)), _INPUT_HASHES):
        h = (word ^ x) * m & _M32
        pool.append(h ^ h >> 16)
    for src, dst, x, m in _MIXING:
        h = (pool[src] ^ x) * m & _M32
        h = 0xCA01F9DD * pool[dst] - 0x4973F715 * (h ^ h >> 16) & _M32
        pool[dst] = h ^ h >> 16
    return pool


def _state_words(pool, count):
    """SeedSequence.generate_state(count, np.uint32) of `pool`: the pool, cycled, hashed."""
    words = []
    for i, (x, m) in enumerate(_STATE_HASHES[:count]):
        h = (pool[i % 4] ^ x) * m & _M32
        words.append(h ^ h >> 16)
    return words


def derive_seed(*parts):
    """Collapse one to four integers of context into one 64-bit seed, stably across platforms.

    Equals int(np.random.SeedSequence([p & 0xFFFFFFFF for p in parts])
    .generate_state(2, np.uint32).view(np.uint64)[0]) on a little-endian host:
    the four-word pool (shorter entropy is padded with zero words), then two
    state words.  Any part may be a np.uint64 array; the parts then broadcast
    and the result is a uint64 array of seeds, element by element the int the
    scalar parts would give.
    """
    if len(parts) > 4:
        raise ValueError(f"derive_seed takes at most four parts, got {len(parts)}")
    words = [p & _M32 if isinstance(p, np.ndarray) else int(p) & _M32 for p in parts]
    lo, hi = _state_words(_pool(words), 2)
    return lo | hi << 32


def _bulk_generators(seeds):
    """Yield np.random.default_rng(seed)'s generator for each seed of a uint64 array, in order.

    One Generator is made per call and re-seeded for every seed: every yield
    is the same object, valid only until the next one is drawn, so a caller
    must use each before it draws the next (list() of this gives the last
    seed's stream for every element).  The seeding is
    default_rng's: SeedSequence(seed)'s eight state words (a seed below 2**32
    is one entropy word, a larger one two, and the pool pads both with zero
    words), then PCG64's 128-bit set-up, state = ((inc + initstate) * MULT +
    inc) mod 2**128 with inc = initseq << 1 | 1.
    """
    w = _state_words(_pool([seeds & _M32, seeds >> 32]), 8)
    # generate_state(4, np.uint64) is little-endian pairs of the eight 32-bit words;
    # PCG64 reads its four words as (initstate high, low, initseq high, low).
    state_hi, state_lo, seq_hi, seq_lo = (w[2 * k] | w[2 * k + 1] << 32 for k in range(4))
    bit_generator = np.random.PCG64(0)
    generator = np.random.Generator(bit_generator)
    state = {"bit_generator": "PCG64", "has_uint32": 0, "uinteger": 0}
    for a, b, c, d in zip(state_hi.tolist(), state_lo.tolist(), seq_hi.tolist(), seq_lo.tolist()):
        inc = (c << 64 | d) << 1 & _M128 | 1
        state["state"] = {"state": ((inc + (a << 64 | b)) * _PCG_MULT + inc) & _M128,
                          "inc": inc}
        bit_generator.state = state
        yield generator
