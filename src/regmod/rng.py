"""Counter-based seeded pseudorandom stream with fixed cross-platform output.

SplitMix64: state advances by the 64-bit golden-gamma constant and each
output is a finalizer hash of the state.  Chosen over random.Random because
the byte-level output sequence is pinned by these few lines, not by the
standard library's implementation details, which keeps generated files and
verification runs reproducible everywhere.

Because the state is a counter, word i of the stream depends only on the
seed and i.  `words(k)` uses that to compute k words at once: it lays the
states s + γ, s + 2γ, … in the 128-bit lanes of one big integer and runs
the finalizer on all lanes together, so it returns exactly what k `next64`
calls would and leaves the same state behind.  `rewind(k)` steps the
counter back k words, so a caller that drew a block and used only part of
it hands the rest back.

A block serves bounded draws without a redraw test per draw: for a bound b
of at most 2^64, `below(b)` returns word % b for a word under
`one_word_limit(b)` and draws again only otherwise.  So when every word of
a block is under that limit, each draw is its word reduced modulo b; when
one is not, the caller rewinds the block and draws with `below`.
"""

from __future__ import annotations

import sys
from functools import cache
from typing import Sequence, TypeVar

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_BLOCK = 1024  # words per big-integer pass: as fast per word as 4096, with a quarter of the memory

T = TypeVar("T")


@cache
def _lanes() -> tuple[int, int, int]:
    """(ONES, STEPS, LANES) for a full block: in lane i, 1, (i + 1)·γ mod 2^64 and 2^64 − 1.

    Built on first use, so importing this module costs nothing.
    """
    ones = int.from_bytes(b"\x01".ljust(16, b"\x00") * _BLOCK, "little")
    steps = int.from_bytes(
        b"".join((i * _GAMMA & _MASK).to_bytes(16, "little") for i in range(1, _BLOCK + 1)),
        "little",
    )
    return ones, steps, ones * _MASK


def one_word_limit(bound: int) -> int:
    """The words below(bound) keeps as word % bound: those under the last whole
    multiple of bound below 2^64.  0 when the bound needs more than one word."""
    span = 1 << 64
    return span - span % bound if 1 <= bound <= span else 0


class SplitMix64:
    def __init__(self, seed: int):
        self._state = seed & _MASK

    def next64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def words(self, k: int) -> list[int]:
        """Exactly [self.next64() for _ in range(k)], computed a block at a time.

        Each lane holds one 64-bit word with 64 spare bits above it: a
        product of a word and a 64-bit constant fits its lane, and masking
        every lane back to 64 bits after each step clears both the high half
        of the product and the bits a right shift pulls in from the next
        lane.  The last shift's stray bits land in the high halves, which
        are never read.
        """
        out: list[int] = []
        for start in range(0, k, _BLOCK):
            n = min(k - start, _BLOCK)
            ones, steps, lanes = _lanes()
            if n < _BLOCK:
                cut = (1 << 128 * n) - 1
                ones, steps, lanes = ones & cut, steps & cut, lanes & cut
            z = (self._state * ones + steps) & lanes
            self._state = (self._state + n * _GAMMA) & _MASK
            z = ((z ^ (z >> 30)) & lanes) * 0xBF58476D1CE4E5B9 & lanes
            z = ((z ^ (z >> 27)) & lanes) * 0x94D049BB133111EB & lanes
            z ^= z >> 31
            # native byte order, so the 64-bit halves read back as the words on any
            # host; a lane's low half comes first on a little-endian host, and on a
            # big-endian one the lanes run backwards with the low half second
            halves = memoryview(z.to_bytes(16 * n, sys.byteorder)).cast("Q")
            out += (halves[::2] if sys.byteorder == "little" else halves[::-2]).tolist()
        return out

    def rewind(self, k: int) -> None:
        """Step the counter back k words: the next k outputs repeat the last k."""
        self._state = (self._state - k * _GAMMA) & _MASK

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
