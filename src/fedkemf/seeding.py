"""Deterministic seed derivation for independent random streams.

All randomness in a run is derived from the experiment seed plus integer
context (salt, client id, round, epoch), so client updates are reproducible
regardless of scheduling order.
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


def derive_seed(*parts) -> int:
    """Collapse integer context into one 64-bit seed, stably across platforms."""
    ss = np.random.SeedSequence([int(p) & 0xFFFFFFFF for p in parts])
    return int(ss.generate_state(2, dtype=np.uint32).view(np.uint64)[0])
