"""seeding.derive_seed against numpy: every derived seed is the one numpy's SeedSequence makes.

derive_seed computes numpy's SeedSequence hash in Python integers.  These
tests compare it with numpy itself over 10,000 context tuples, so a numpy
release that changed the hash would fail here instead of silently moving
every artifact.
"""

import numpy as np
import pytest

from fedkemf import seeding

M32 = 0xFFFFFFFF


def numpy_derive_seed(*parts):
    ss = np.random.SeedSequence([int(p) & M32 for p in parts])
    return int(ss.generate_state(2, np.uint32).view(np.uint64)[0])


def part_tuples(count=10_000):
    """`count` tuples of 1-4 parts, each part drawn below 2**10, 2**31, 2**40 or 2**62 in
    magnitude, negative about half the time."""
    rng = np.random.default_rng(20240607)
    scales = (2 ** 10, 2 ** 31, 2 ** 40, 2 ** 62)
    return [tuple(int(rng.integers(-scales[j], scales[j]))
                  for j in rng.integers(0, 4, size=i % 4 + 1))
            for i in range(count)]


TUPLES = part_tuples()


def test_tuples_cover_every_kind_of_part():
    flat = [p for t in TUPLES for p in t]
    assert {len(t) for t in TUPLES} == {1, 2, 3, 4}
    assert sum(p >= 2 ** 32 for p in flat) > 1000 and sum(p < 0 for p in flat) > 1000
    assert sum(0 <= p < 2 ** 32 for p in flat) > 1000


def test_derive_seed_is_numpys_seed_sequence():
    for parts in TUPLES:
        assert seeding.derive_seed(*parts) == numpy_derive_seed(*parts), parts


def test_derive_seed_masks_parts_to_32_bits():
    assert seeding.derive_seed(-1, 2 ** 32 + 5) == seeding.derive_seed(M32, 5)
    assert seeding.derive_seed(np.int64(-1), np.uint64(7)) == numpy_derive_seed(-1, 7)


def test_short_context_is_padded_with_zero_words_as_numpy_pads_it():
    assert seeding.derive_seed(1, 101, 5) == seeding.derive_seed(1, 101, 5, 0)


def test_rejects_more_than_four_parts():
    with pytest.raises(ValueError):
        seeding.derive_seed(1, 2, 3, 4, 5)
