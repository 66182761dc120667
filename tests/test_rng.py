import warnings

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pdettc.rng import RngStream, mix64

U64 = st.integers(0, 2**64 - 1)
WIDTH = 8          # a shifted copy is a run of WIDTH equal values


def _draws(seed, stream, counter):
    """Every draw method of a stream at one counter, as comparable arrays."""
    def at():
        return RngStream(seed, stream, counter)
    return {
        "uniform": at().uniform(1024),
        "normal": at().normal(1024),
        "integers": at().integers(0, 2**62, 1024),
        "permutation": at().permutation(1024),
        "bits16": at().bits16((4096,)).view(np.uint64),
    }


def _has_shifted_copy(a, b):
    """Whether WIDTH consecutive values of b appear in a at some offset."""
    windows = np.lib.stride_tricks.sliding_window_view(a, WIDTH)
    return bool(np.any(np.all(windows == b[:WIDTH], axis=1)))


@settings(max_examples=25, deadline=None)
@given(seed=U64, stream=U64, counter=st.integers(0, 2**40))
@example(seed=5, stream=0, counter=0)
def test_draws_at_consecutive_counters_share_no_shifted_block(seed, stream, counter):
    now, nxt = _draws(seed, stream, counter), _draws(seed, stream, counter + 1)
    for name in now:
        assert not _has_shifted_copy(now[name], nxt[name]), name
        assert not _has_shifted_copy(nxt[name], now[name]), name


@settings(max_examples=25, deadline=None)
@given(seed=U64, stream=U64, c16=st.integers(0, 64), cgen=st.integers(0, 64))
@example(seed=3, stream=1, c16=0, cgen=0)
def test_bits16_blocks_never_meet_generator_blocks(seed, stream, c16, cgen):
    bits = RngStream(seed, stream, c16).bits16((4 * 4096,)).view(np.uint64)
    raw = RngStream(seed, stream, cgen)._gen().bit_generator.random_raw(4096)
    assert np.intersect1d(bits, raw).size == 0


@settings(max_examples=50, deadline=None)
@given(seed=U64, stream=U64, bit=st.integers(0, 11), which=st.sampled_from(["seed", "stream"]))
@example(seed=7, stream=2**63 + 4096, bit=0, which="stream")
@example(seed=2**64 - 1, stream=0, bit=0, which="seed")
def test_keys_differing_in_low_bits_draw_differently(seed, stream, bit, which):
    other = (seed ^ (1 << bit), stream) if which == "seed" else (seed, stream ^ (1 << bit))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        a = RngStream(seed, stream)
        b = RngStream(*other)
        assert not np.array_equal(a.uniform(4), b.uniform(4))
        assert not np.array_equal(a.bits16((16,)), b.bits16((16,)))


@settings(max_examples=25, deadline=None)
@given(seed=U64, parts=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=3),
       counter=st.integers(0, 2**40))
def test_mix64_streams_replay(seed, parts, counter):
    stream = mix64(*parts)
    assert stream == mix64(*parts)
    a, b = RngStream(seed, stream, counter), RngStream(seed, stream, counter)
    assert np.array_equal(a.normal(8), b.normal(8))
    assert np.array_equal(a.bits16((9,)), b.bits16((9,)))
    assert a.counter == b.counter == counter + 2
    c = RngStream(seed, stream, a.counter)
    assert np.array_equal(a.uniform(3), c.uniform(3))


_OPS = {
    "uniform": lambda r, n: r.uniform(n),
    "normal": lambda r, n: r.normal(n, scale=2.0),
    "integers": lambda r, n: r.integers(0, 1000, n),    # 32-bit draws, buffered in pairs
    "integers64": lambda r, n: r.integers(0, 2**62, n),
    "permutation": lambda r, n: r.permutation(n),
    "bits16": lambda r, n: r.bits16((n, 3)),
}


@settings(max_examples=60, deadline=None)
@given(seed=U64, stream=U64, counter=st.integers(0, 2**40),
       ops=st.lists(st.tuples(st.sampled_from(sorted(_OPS)), st.integers(1, 9)),
                    min_size=1, max_size=12))
@example(seed=1, stream=2, counter=0,
         ops=[("integers", 3), ("bits16", 1), ("integers", 5), ("uniform", 2),
              ("integers", 1), ("permutation", 7)])
def test_a_reused_stream_draws_what_a_fresh_one_draws_at_each_counter(seed, stream,
                                                                      counter, ops):
    reused = RngStream(seed, stream, counter)
    for name, n in ops:
        at = reused.counter
        got = _OPS[name](reused, n)
        assert reused.counter == at + 1
        assert np.array_equal(got, _OPS[name](RngStream(seed, stream, at), n)), (name, at)
        if name == "integers" and n % 2:
            # an odd count of 32-bit draws leaves half a word buffered, which
            # the next draw's reset must discard
            assert reused._bitgen.state["has_uint32"] == 1
