"""seeding.stream: one Philox stream per context, keyed by (seed, salt, stream id) and
counted from word 2.

The streams are disjoint by construction: a context's key and counter words 2
and 3 are fixed for the life of its stream, and distinct contexts never share
them.  The known-answer draws pin numpy's Philox, so a numpy release that
changed it would fail here instead of silently moving every artifact.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fedkemf import seeding

SALTS = [getattr(seeding, name) for name in dir(seeding) if name.startswith("SALT_")]
CONTEXTS = st.tuples(st.sampled_from(SALTS), st.integers(0, 2 ** 32 - 1),
                     st.integers(0, 2 ** 64 - 1))


def identity(gen):
    """(key, counter words 2 and 3) of a stream: what no other context's stream shares."""
    state = gen.bit_generator.state["state"]
    return state["key"].tolist(), state["counter"][2:].tolist()


def test_salts_are_distinct_and_fit_the_keys_high_half():
    assert len(set(SALTS)) == len(SALTS) == 9
    assert all(0 <= salt < 2 ** 32 for salt in SALTS)


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(-2 ** 70, 2 ** 70), a=CONTEXTS, b=CONTEXTS,
       draws=st.integers(0, 40))
def test_distinct_contexts_never_share_a_key_and_counter(seed, a, b, draws):
    gen_a, gen_b = seeding.stream(seed, *a), seeding.stream(seed, *b)
    before = identity(gen_a)
    gen_a.random(draws)
    gen_a.permutation(draws + 1)
    assert identity(gen_a) == before == (
        [seed % 2 ** 64, a[0] << 32 | a[1]], [a[2], 0])
    assert (identity(gen_b) == before) == (a == b)


def test_stream_is_philox_at_its_key_and_counter():
    gen = seeding.stream(1, seeding.SALT_DATA)
    ref = np.random.Generator(np.random.Philox(key=seeding.SALT_DATA << 96 | 1))
    assert gen.integers(0, 2 ** 63, size=3).tolist() == [
        3900232658760440714, 3175096443521105430, 8976611716246052861]
    assert ref.integers(0, 2 ** 63, size=3).tolist() == [
        3900232658760440714, 3175096443521105430, 8976611716246052861]
    top = seeding.stream(2 ** 64 - 1, seeding.SALT_ORDERS, 2 ** 32 - 1, 2 ** 64 - 1)
    assert identity(top) == ([2 ** 64 - 1, seeding.SALT_ORDERS << 32 | 2 ** 32 - 1],
                             [2 ** 64 - 1, 0])
    assert top.integers(0, 2 ** 63, size=3).tolist() == [
        6110049213944022769, 8889118279635807545, 5865796203663877354]


def plain(state):
    """A bit generator's state dict with its arrays as lists, comparable with ==."""
    return {k: plain(v) if isinstance(v, dict) else getattr(v, "tolist", lambda: v)()
            for k, v in state.items()}


@settings(max_examples=200, deadline=None)
@given(seed=st.sampled_from([-1, 2 ** 63, 2 ** 64]), salt=st.sampled_from(SALTS),
       stream_id=st.integers(0, 2 ** 32 - 1),
       word2=st.sampled_from([0, 1, 2 ** 32, 2 ** 63, 2 ** 64 - 1]))
def test_stream_equals_philox_built_from_its_key(seed, salt, stream_id, word2):
    # stream hands Philox its key through a seed sequence of its own instead of key=...
    gen = seeding.stream(seed, salt, stream_id, word2)
    ref = np.random.Generator(np.random.Philox(
        key=np.array([seed % 2 ** 64, salt << 32 | stream_id], dtype=np.uint64),
        counter=np.array([0, 0, word2, 0], dtype=np.uint64)))
    assert plain(gen.bit_generator.state) == plain(ref.bit_generator.state)
    assert gen.integers(0, 2 ** 63, size=4).tolist() == ref.integers(0, 2 ** 63, size=4).tolist()
    assert gen.random(3).tolist() == ref.random(3).tolist()
    assert plain(gen.bit_generator.state) == plain(ref.bit_generator.state)


def test_stream_masks_the_seed_to_64_bits():
    for seed, masked in [(-1, 2 ** 64 - 1), (2 ** 64 + 5, 5), (-2 ** 64, 0),
                         (np.int64(-3), 2 ** 64 - 3)]:
        gen, ref = seeding.stream(seed, seeding.SALT_CLIENT, 7), seeding.stream(
            masked, seeding.SALT_CLIENT, 7)
        assert identity(gen) == identity(ref)
        assert gen.random(4).tolist() == ref.random(4).tolist()


def test_rejects_stream_ids_outside_32_bits():
    for stream_id in (-1, 2 ** 32, 2 ** 40):
        with pytest.raises(ValueError, match="stream id"):
            seeding.stream(1, seeding.SALT_ORDERS, stream_id)


def test_a_generator_drawn_after_another_yields_its_own_stream():
    # Every call makes its own Generator: making and drawing a second stream neither ends
    # nor moves the first.
    first = seeding.stream(5, seeding.SALT_CLIENT, 3)
    first.random(3, dtype=np.float32)  # leaves half a 64-bit word buffered
    second = seeding.stream(5, seeding.SALT_CLIENT, 4)
    second.integers(0, 7, size=5)
    ref = seeding.stream(5, seeding.SALT_CLIENT, 3)
    ref.random(3, dtype=np.float32)
    assert first is not second
    assert first.random(4, dtype=np.float32).tolist() == ref.random(4, dtype=np.float32).tolist()
