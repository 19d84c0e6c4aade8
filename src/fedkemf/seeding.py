"""Deterministic seed derivation for independent random streams.

All randomness in a run is derived from the experiment seed plus integer
context (salt, client id, round, epoch), so client updates are reproducible
regardless of scheduling order.

derive_seed is np.random.SeedSequence's hash of the context, computed in
Python integers with numpy's hash constants precomputed: building a
SeedSequence for every epoch costs more than the hash.  The streams
themselves are np.random.default_rng(seed)'s.  tests/test_seeding.py pins
derive_seed to numpy over 10,000 context tuples.
"""

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
_STATE_HASHES = _hash_constants(0x8B51F9DD, 0x58F38DED, 2)


def derive_seed(*parts) -> int:
    """Collapse one to four integers of context into one 64-bit seed, stably across platforms.

    Equals int(np.random.SeedSequence([p & 0xFFFFFFFF for p in parts])
    .generate_state(2, np.uint32).view(np.uint64)[0]) on a little-endian host:
    the four-word pool (shorter entropy is padded with zero words), then two
    state words.
    """
    if len(parts) > 4:
        raise ValueError(f"derive_seed takes at most four parts, got {len(parts)}")
    pool = []
    for word, (x, m) in zip([int(p) & _M32 for p in parts] + [0] * (4 - len(parts)),
                            _INPUT_HASHES):
        h = (word ^ x) * m & _M32
        pool.append(h ^ h >> 16)
    for src, dst, x, m in _MIXING:
        h = (pool[src] ^ x) * m & _M32
        h = 0xCA01F9DD * pool[dst] - 0x4973F715 * (h ^ h >> 16) & _M32
        pool[dst] = h ^ h >> 16
    lo, hi = (((v ^ x) * m & _M32) for v, (x, m) in zip(pool, _STATE_HASHES))
    return (lo ^ lo >> 16) | (hi ^ hi >> 16) << 32
