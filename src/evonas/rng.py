"""Deterministic, splittable random streams.

Every stochastic component in this package draws from a :class:`RngStream`.
A stream is identified by a root seed plus a *path* of names/indices; the
(seed, path) pair is hashed with SHA-256 into a 128-bit key for numpy's
Philox counter-based bit generator.  Because the key fully determines the
stream, substreams can be created in any order, from any thread, and the
numbers they produce never change: trajectories replay bit-exactly.

A stream's first block of four raw words comes from one per-thread Philox,
re-keyed through its `state` setter.  A fifth word or a float draw builds
the stream's own Philox from the same key, advanced past the words drawn.

Philox (4x64, 10 rounds) is used because it is a named, documented,
counter-based algorithm whose output is identical across platforms for a
fixed numpy version.

Integers below high <= 2**32 are Lemire draws (arXiv 1805.10941) on Philox's
32-bit words, low half of each `random_raw()` word first: the values and
stream position of `Generator.integers`, without depending on that method,
which NEP 19 does not freeze across numpy versions.  Only float draws (and
integers past 2**32) build a `Generator`.
"""

from __future__ import annotations

import hashlib
import operator
import struct
import threading

import numpy as np

__all__ = ["RngStream", "derive_seed"]


def _digest(seed: int, path: tuple) -> bytes:
    return hashlib.sha256(repr((int(seed),) + path).encode("utf-8")).digest()


def _key(seed: int, path: tuple) -> int:
    return int.from_bytes(_digest(seed, path)[:16], "little")


class _Scratch(threading.local):
    """One thread's Philox, re-keyed through one reused state dict of plain ints."""

    def __init__(self):
        self.bits = np.random.Philox(0)
        self.state = {"bit_generator": "Philox", "state": {"counter": (0,) * 4, "key": (0, 0)},
                      "buffer": (0,) * 4, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}

    def first_block(self, seed: int, path: tuple) -> list:
        """The (seed, path) Philox's first four raw words, last word first."""
        self.state["state"]["key"] = struct.unpack_from("<QQ", _digest(seed, path))
        self.bits.state = self.state
        return self.bits.random_raw(4).tolist()[::-1]


_SCRATCH = _Scratch()


def derive_seed(seed: int, *path) -> int:
    """Derive a 63-bit integer seed for (seed, path), e.g. per-run seeds."""
    return _key(seed, tuple(path)) & (2**63 - 1)


class RngStream:
    """A deterministic random stream with named substreams.

    Draw methods advance the stream state; `child` creates an independent
    stream whose output depends only on the root seed and the child path,
    never on how much the parent has been consumed.  The key is hashed on
    the first draw, so a stream used only to derive child paths costs no
    hashing.  The stream's own bit generator is built on its fifth raw word
    or first float draw, a `Generator` only on the first float draw.
    """

    __slots__ = ("seed", "path", "_words", "_bits", "_half", "_gen")

    def __init__(self, seed: int, path: tuple = ()):
        self.seed = int(seed)
        self.path = tuple(path)
        self._words = None  # the first block's words not yet drawn, last first
        self._bits = None
        self._half = None  # high 32 bits of the last raw word, not yet drawn
        self._gen = None

    def _raw(self) -> int:
        if self._bits is None:
            if self._words is None:
                self._words = _SCRATCH.first_block(self.seed, self.path)
            if self._words:
                return self._words.pop()
        return self._philox().random_raw()

    def _philox(self) -> np.random.Philox:
        if self._bits is None:
            self._bits = np.random.Philox(key=_key(self.seed, self.path))
            if self._words is not None:
                self._bits.random_raw(4 - len(self._words))  # past the words drawn
        return self._bits

    def _generator(self) -> np.random.Generator:
        if self._gen is None:
            self._gen = np.random.Generator(self._philox())
        return self._gen

    def _below(self, high: int) -> int:
        """One Lemire draw in [0, high); high == 1 draws no word."""
        threshold = (1 << 32) % high
        while high > 1:
            if self._half is None:
                word = self._raw()
                word, self._half = word & 0xFFFFFFFF, word >> 32
            else:
                word, self._half = self._half, None
            if (word * high) & 0xFFFFFFFF >= threshold:
                return (word * high) >> 32
        return 0

    def child(self, *path) -> "RngStream":
        """Independent substream addressed by `path` components."""
        return RngStream(self.seed, self.path + path)

    # -- draws ------------------------------------------------------------

    def integers(self, high: int, size=None):
        """Uniform integers in [0, high): a Python int, or an int64 array of `size`."""
        high = operator.index(high)
        if not 1 <= high <= 1 << 32:
            draws = self._generator().integers(high, size=size)
            return draws if size is not None else int(draws)
        if size is None:
            return self._below(high)
        out = np.empty(size, np.int64)
        out.flat = [self._below(high) for _ in range(out.size)]
        return out

    def uniform(self, low: float = 0.0, high: float = 1.0, size=None):
        return self._generator().uniform(low, high, size=size)

    def normal(self, loc: float = 0.0, scale: float = 1.0, size=None):
        return self._generator().normal(loc, scale, size=size)

    def __repr__(self) -> str:
        return f"RngStream(seed={self.seed}, path={self.path!r})"
