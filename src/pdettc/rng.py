"""Counter-based random streams.

Every random draw in this package is a pure function of
(seed, stream, counter).  A stream never touches global state, so
independent consumers (dropout layers, candidate samplers, dataset
generators) can be given independent streams, and a draw is replayed
exactly by a new ``RngStream(seed, stream, counter)`` at its counter.

A stream draws from one Philox4x64 bit generator keyed by (seed, stream).
Its 128-bit key is built from a uint64 array, so every 64-bit seed and
stream id is a distinct key.  Each draw's block counter is
[block, counter, kind, 0]: the draw counts its blocks in the first word,
the stream counter sits in the second and the kind of draw (0 for the
Generator methods, 1 for `RngStream.bits16`) in the third.  Draws at
different counters or of different kinds therefore never share a block
(Salmon et al., SC'11).

The stream builds its bit generator, and the `numpy.random.Generator`
over it, once, at its first draw.  Every draw then resets the generator's
state to counter [0, counter, kind, 0] with an empty buffer (buffer_pos 4,
no buffered uint32), which is the state of a Philox newly built at that
counter, so a draw is bit-identical to one from a fresh
``RngStream(seed, stream, counter)`` whatever the stream drew before.
A reset costs a quarter of a construction.
"""

from __future__ import annotations

import math

import numpy as np

_MASK64 = (1 << 64) - 1
_EMPTY_BUFFER = np.zeros(4, dtype=np.uint64)   # unread once buffer_pos is 4


def mix64(*parts: int) -> int:
    """Mix integers into a single 64-bit stream id (splitmix64 chain)."""
    z = 0x9E3779B97F4A7C15
    for p in parts:
        z = (z + (int(p) & _MASK64)) & _MASK64
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        z = z ^ (z >> 31)
    return z


class RngStream:
    """One replayable random stream keyed by (seed, stream).

    Each draw advances ``counter`` by one; the value produced at a given
    counter depends only on the (seed, stream, counter) triple.
    """

    def __init__(self, seed: int, stream: int = 0, counter: int = 0):
        self.seed = int(seed) & _MASK64
        self.stream = int(stream) & _MASK64
        self.counter = int(counter)
        self._bitgen = None
        self._generator = None

    def _philox(self, kind: int) -> np.random.Philox:
        """The stream's bit generator, reset to the draw at the current
        counter; advances the counter."""
        key = np.array([self.seed, self.stream], dtype=np.uint64)
        if self._bitgen is None:
            self._bitgen = np.random.Philox(key=key)
            self._generator = np.random.Generator(self._bitgen)
        self._bitgen.state = {
            "bit_generator": "Philox",
            "state": {"counter": np.array([0, self.counter & _MASK64, kind, 0],
                                          dtype=np.uint64),
                      "key": key},
            "buffer": _EMPTY_BUFFER, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0,
        }
        self.counter += 1
        return self._bitgen

    def _gen(self) -> np.random.Generator:
        self._philox(0)
        return self._generator

    def uniform(self, size=None) -> np.ndarray:
        return self._gen().random(size=size, dtype=np.float64)

    def bits16(self, shape) -> np.ndarray:
        """Uniform raw uint16 bits of the given shape, one counter step.

        The values are the draw's raw 64-bit Philox words split into four
        uint16 each, in memory order.
        """
        n = math.prod(shape)
        raw = self._philox(1).random_raw((n + 3) // 4)
        return raw.view(np.uint16)[:n].reshape(shape)

    def normal(self, size=None, scale: float = 1.0) -> np.ndarray:
        return self._gen().normal(0.0, scale, size=size)

    def integers(self, low: int, high: int, size=None) -> np.ndarray:
        return self._gen().integers(low, high, size=size)

    def permutation(self, n: int) -> np.ndarray:
        return self._gen().permutation(n)
