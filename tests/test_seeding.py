"""seeding against numpy: every derived seed is the one numpy's SeedSequence makes, and
every bulk stream is the one np.random.default_rng makes.

derive_seed computes numpy's SeedSequence hash in Python integers (or uint64
arrays), and _bulk_generators adds PCG64's seeding.  These tests compare them
with numpy itself over 10,000 context tuples and 10,000 seeds, so a numpy
release that changed the hash or the seeding would fail here instead of
silently moving every artifact.
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


def test_array_parts_give_the_scalar_seeds_element_by_element():
    for length in (1, 2, 3, 4):
        tuples = [t for t in TUPLES if len(t) == length]
        columns = [np.array([t[j] & M32 for t in tuples], dtype=np.uint64) for j in range(length)]
        seeds = seeding.derive_seed(*columns)
        assert seeds.dtype == np.uint64
        assert seeds.tolist() == [seeding.derive_seed(*t) for t in tuples]


def test_array_parts_broadcast_against_int_parts():
    salts = np.array([seeding.SALT_VAL_SPLIT, seeding.SALT_CLIENT_INIT], dtype=np.uint64)
    cids = np.arange(50, dtype=np.uint64)[:, None]
    seeds = seeding.derive_seed(-7, salts, cids)
    assert seeds.shape == (50, 2)
    assert seeds.tolist() == [[seeding.derive_seed(-7, salt, cid) for salt in salts.tolist()]
                              for cid in range(50)]


def bulk_seeds(count=10_000):
    """0, 2**32 - 1, 2**32, 2**64 - 1, then seeds below 2**32 (one entropy word) and at or
    above it (two words), half each."""
    rng = np.random.default_rng(20240608)
    edges = np.array([0, M32, M32 + 1, 2 ** 64 - 1], dtype=np.uint64)
    half = (count - edges.size) // 2
    return np.concatenate([
        edges, rng.integers(0, 2 ** 32, size=half, dtype=np.uint64),
        rng.integers(2 ** 32, 2 ** 64 - 1, size=count - edges.size - half, dtype=np.uint64,
                     endpoint=True),
    ])


def test_bulk_generators_are_default_rngs():
    seeds = bulk_seeds()
    drawn = 0
    for seed, gen in zip(seeds.tolist(), seeding._bulk_generators(seeds)):
        ref = np.random.default_rng(seed)
        assert gen.uniform(-1.0, 1.0, size=3).tolist() == ref.uniform(-1.0, 1.0, size=3).tolist()
        assert gen.permutation(11).tolist() == ref.permutation(11).tolist(), seed
        drawn += 1
    assert drawn == seeds.size


def test_a_generator_drawn_after_another_yields_its_own_stream():
    seeds = np.array([5, 2 ** 40 + 3, 5], dtype=np.uint64)
    streams = seeding._bulk_generators(seeds)
    first = next(streams)
    first.random(3, dtype=np.float32)  # leaves half a 64-bit word buffered
    first.integers(0, 7, size=5)
    second = next(streams)
    # One Generator, re-seeded: drawing the next stream ends the previous one.
    assert first is second
    assert second.random(4, dtype=np.float32).tolist() == (
        np.random.default_rng(2 ** 40 + 3).random(4, dtype=np.float32).tolist())
    third = next(streams)
    assert third.uniform(size=4).tolist() == np.random.default_rng(5).uniform(size=4).tolist()
