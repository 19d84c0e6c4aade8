"""Keyed random streams: every draw of a run comes from a Philox stream keyed by its context.

A stream is np.random.Philox with key (experiment seed mod 2**64, salt << 32 |
stream id) and counter (0, 0, word 2, 0).  Drawing advances only counter
words 0 and 1, so two contexts that differ in the seed, the salt, the stream
id (a client id) or word 2 (a round or a redraw attempt) never share a block
of output, with no hash in between: counter-based streams (Salmon et al.,
"Parallel random numbers: as easy as 1, 2, 3", SC 2011).
"""

import numpy as np
from numpy.random.bit_generator import ISeedSequence

# Stream salts, one per kind of draw; below 2**32, as the key's high half.
SALT_SAMPLING = 101      # word 2: the round
SALT_DISTILL = 202       # word 2: the round
SALT_CLIENT = 303        # stream id: the client; its val split, then its init
SALT_GLOBAL_INIT = 404
SALT_DATA = 505
SALT_TEST_DATA = 606
SALT_SERVER_SPLIT = 707
SALT_ORDERS = 808        # stream id: the client, word 2: the round; every epoch's order
SALT_PARTITION = 909     # word 2: the redraw attempt


class _Key(ISeedSequence):
    """A Philox key handed over as its seed sequence, so that no OS entropy is drawn: given
    key=..., Philox would first build and then discard an entropy-seeded SeedSequence."""

    def __init__(self, key):
        self.key = key

    def generate_state(self, n_words, dtype=np.uint32):
        return self.key  # Philox asks for its two uint64 key words


def stream(seed, salt, stream_id=0, word2=0):
    """The np.random.Generator of context (seed, salt, stream_id, word2)."""
    if not 0 <= stream_id < 2 ** 32:
        raise ValueError(f"stream id must be in [0, 2**32), got {stream_id}")
    # uint64 arrays: numpy would convert a Python-list word >= 2**63 through float64.
    key = np.array([int(seed) % 2 ** 64, salt << 32 | int(stream_id)], dtype=np.uint64)
    counter = np.array([0, 0, word2, 0], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(_Key(key), counter=counter))
