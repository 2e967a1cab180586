"""SeedStream: random access into a stream reads what sequential takes read."""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from dctlab.rng import SeedStream

SEEDS = st.one_of(st.integers(0, 2**64 - 1), st.binary(max_size=40))
# offsets anywhere in 0..5000, and offsets a few bytes either side of a 32-byte block edge
OFFSETS = st.one_of(st.integers(0, 5000),
                    st.builds(lambda block, d: max(0, min(5000, 32 * block + d)),
                              st.integers(0, 157), st.integers(-3, 3)))


@settings(max_examples=300, deadline=None)
@given(SEEDS, st.text(max_size=20), OFFSETS, st.integers(0, 100))
@example(0, "", 0, 0)
@example(0, "", 32, 0)
@example(7, "batch", 31, 2)
@example(7, "batch", 30, 67)
@example(7, "batch", 4999, 100)
def test_at_reads_what_take_reads_after_an_offset(seed, label, offset, n):
    fresh = SeedStream(seed, label)
    fresh.take(offset)
    want = fresh.take(n)
    stream = SeedStream(seed, label)
    assert stream.at(offset, n) == want
    # at consumes nothing, and reads from the stream's start whatever was taken
    stream.take(offset)
    assert stream.at(offset, n) == want and stream.take(n) == want
