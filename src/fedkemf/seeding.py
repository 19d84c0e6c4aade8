"""Deterministic seed derivation for independent random streams.

All randomness in a run is derived from the experiment seed plus integer
context (salt, client id, round, epoch), so client updates are reproducible
regardless of scheduling order.
"""

import numpy as np

# Stream salts; distinct constants keep unrelated streams independent.
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
