"""Counter-based seeded pseudorandom stream with fixed cross-platform output.

SplitMix64: state advances by the 64-bit golden-gamma constant and each
output is a finalizer hash of the state.  Chosen over random.Random because
the byte-level output sequence is pinned by these few lines, not by the
standard library's implementation details, which keeps generated files and
verification runs reproducible everywhere.
"""

from __future__ import annotations

from typing import Sequence, TypeVar

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15

T = TypeVar("T")


class SplitMix64:
    def __init__(self, seed: int):
        self._state = seed & _MASK

    def next64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def below(self, bound: int) -> int:
        """Uniform draw in [0, bound) for any positive bound.

        Joins as many 64-bit words as the bound needs and draws again when
        they fall past the last whole multiple of the bound.  For a bound of
        at most 2^64 a redraw has chance below bound/2^64, so a draw is then
        almost always one word reduced modulo the bound.
        """
        if bound < 1:
            raise ValueError("bound must be positive")
        while True:
            x, span = self.next64(), 1 << 64
            while span < bound:
                x, span = x << 64 | self.next64(), span << 64
            if x < span - bound or x < span - span % bound:  # the first test spares the exact limit
                return x % bound

    def choice(self, items: Sequence[T]) -> T:
        return items[self.below(len(items))]

    def spawn(self) -> "SplitMix64":
        """Independent child stream; deterministic function of the parent state."""
        return SplitMix64(self.next64())
