"""Counter-based random streams.

Every random draw in this package is a pure function of
(seed, stream, counter).  A stream never touches global state, so
independent consumers (dropout layers, candidate samplers, dataset
generators) can be given independent streams and replayed exactly.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1


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

    def _gen(self) -> np.random.Generator:
        bitgen = np.random.Philox(
            counter=[self.counter & _MASK64, 0, 0, 0],
            key=[self.seed, self.stream],
        )
        self.counter += 1
        return np.random.Generator(bitgen)

    def uniform(self, size=None) -> np.ndarray:
        return self._gen().random(size=size, dtype=np.float64)

    def bits32(self, shape) -> np.ndarray:
        """Uniform raw uint32 bits of the given shape, one counter step.

        The Philox block counter of this draw holds the stream counter in
        its second word and 1 in its third, so a draw's blocks never
        overlap those of another counter, nor those of the other draw
        methods, which count blocks from the stream counter in the first
        word.
        """
        n = int(np.prod(shape, dtype=np.int64))
        bitgen = np.random.Philox(counter=[0, self.counter & _MASK64, 1, 0],
                                  key=[self.seed, self.stream])
        self.counter += 1
        return bitgen.random_raw((n + 1) // 2).view(np.uint32)[:n].reshape(shape)

    def normal(self, size=None, scale: float = 1.0) -> np.ndarray:
        return self._gen().normal(0.0, scale, size=size)

    def integers(self, low: int, high: int, size=None) -> np.ndarray:
        return self._gen().integers(low, high, size=size)

    def permutation(self, n: int) -> np.ndarray:
        return self._gen().permutation(n)

    def child(self, *parts: int) -> "RngStream":
        """Independent stream derived from this stream's identity."""
        return RngStream(self.seed, mix64(self.stream, *parts))

    def clone(self) -> "RngStream":
        return RngStream(self.seed, self.stream, self.counter)

    def __repr__(self) -> str:  # pragma: no cover
        return f"RngStream(seed={self.seed}, stream={self.stream}, counter={self.counter})"
