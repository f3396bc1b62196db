"""numpy ``Generator`` draws replayed from the raw words of its PCG64.

The synthetic generator promises files bit-for-bit equal to those of plain
scalar ``rng.random()``/``rng.integers(m)`` loops, but computes them in array
scans. :class:`Stream` is its copy of numpy's draw model (numpy >= 1.24):

- ``random()`` is ``(word >> 11) * 2**-53`` of one 64-bit word.
- A 32-bit draw is the buffered high half of the last word, if one is
  buffered; otherwise it is the low half of a new word, and that word's high
  half is buffered (the bit generator's ``has_uint32``/``uinteger``).
  ``random()`` leaves the buffer alone.
- ``integers(m)`` for ``1 <= m <= 2**32`` draws nothing when ``m == 1``;
  otherwise it is Lemire's method on 32-bit draws u: the value
  ``(u * m) >> 32``, unless ``(u * m) mod 2**32 < 2**32 mod m``, which
  rejects u and draws again.

Contract:

- Read-ahead: the stream reads words from the bit generator in blocks, so it
  may read more words than the draws use. Between opening a stream and
  closing it, draw only through the stream.
- Step-back on close: :meth:`Stream.close` steps the bit generator back over
  the words read but not used, then writes the 32-bit buffer back. The
  generator then stands exactly where the same scalar draws leave it.
- PCG64 only: any other bit generator raises ``TypeError``.
"""

from __future__ import annotations

import numpy as np

_LOW = 0xFFFFFFFF
_UNIT = 2.0**-53
_PERIOD = 1 << 128  # advancing PCG64 by _PERIOD - k steps it back k words


class Stream:
    """A PCG64 ``Generator``'s draws, replayed from words read ``block`` at
    a time; see the module docstring for the contract."""

    def __init__(self, rng: np.random.Generator, block: int):
        self._bitgen = rng.bit_generator
        if not isinstance(self._bitgen, np.random.PCG64):
            raise TypeError(
                f"need a PCG64 generator, got {type(self._bitgen).__name__}"
            )
        state = self._bitgen.state
        self._has32 = state["has_uint32"]
        self._u32 = state["uinteger"]
        self._block = block
        self._words = np.empty(0, dtype=np.uint64)
        self._pos = 0  # the next unused word
        self._hits: list[int] = []  # positions in _words below _hit_level
        self._hit_level: float | None = None
        self._hit_next = 0

    def _read(self) -> None:
        """Make an unused word available."""
        if self._pos == len(self._words):
            self._words = self._bitgen.random_raw(self._block)
            self._pos = 0
            self._hit_level = None

    def _word(self) -> int:
        self._read()
        self._pos += 1
        return int(self._words[self._pos - 1])

    def _next32(self) -> int:
        if self._has32:
            self._has32 = 0
            return self._u32
        word = self._word()
        self._has32, self._u32 = 1, word >> 32
        return word & _LOW

    def random(self) -> float:
        return (self._word() >> 11) * _UNIT

    def integers(self, m: int) -> int:
        if m == 1:
            return 0
        while True:
            scaled = self._next32() * m
            if (scaled & _LOW) >= (1 << 32) % m:
                return scaled >> 32

    def scan(self, level: float, limit: int) -> tuple[int, float | None]:
        """Draw ``random()`` up to ``limit`` times, stopping at the first draw
        below ``level``; return the number of draws at or above it and the
        stopping draw, or None if all ``limit`` were at or above it.
        """
        passed = 0
        while passed < limit:
            self._read()
            if self._hit_level != level:
                units = (self._words >> 11) * _UNIT
                self._hits = np.flatnonzero(units < level).tolist()
                self._hit_level, self._hit_next = level, 0
            hits, k = self._hits, self._hit_next
            while k < len(hits) and hits[k] < self._pos:
                k += 1
            self._hit_next = k
            stop = min(len(self._words), self._pos + limit - passed)
            if k < len(hits) and hits[k] < stop:
                hit = hits[k]
                passed += hit - self._pos
                self._pos = hit + 1
                return passed, (int(self._words[hit]) >> 11) * _UNIT
            passed += stop - self._pos
            self._pos = stop
        return passed, None

    def close(self) -> None:
        """Step the bit generator back over the unused words, then write the
        32-bit buffer back (``advance`` clears it, so this comes second)."""
        unread = len(self._words) - self._pos
        if unread:
            self._bitgen.advance(_PERIOD - unread)
        state = self._bitgen.state
        state["has_uint32"], state["uinteger"] = self._has32, self._u32
        self._bitgen.state = state
