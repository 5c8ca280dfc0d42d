"""Deterministic, splittable random streams.

Every stochastic component in this package draws from a :class:`RngStream`.
A stream is identified by a root seed plus a *path* of names/indices; the
(seed, path) pair is hashed with SHA-256 into a 128-bit key for numpy's
Philox counter-based bit generator.  Because the key fully determines the
stream, substreams can be created in any order, from any thread, and the
numbers they produce never change: trajectories replay bit-exactly.

Philox gets the key from `_KeySeed.generate_state(2, uint64)`, not from
`Philox(key=...)`, which first builds an OS-entropy SeedSequence.

Philox (4x64, 10 rounds) is used because it is a named, documented,
counter-based algorithm whose output is identical across platforms for a
fixed numpy version.
"""

from __future__ import annotations

import hashlib

import numpy as np

__all__ = ["RngStream", "derive_seed"]


def _key(seed: int, path: tuple) -> int:
    material = repr((int(seed),) + path).encode("utf-8")
    digest = hashlib.sha256(material).digest()
    return int.from_bytes(digest[:16], "little")


class _KeySeed(np.random.bit_generator.ISeedSequence):
    """Seed sequence holding a 128-bit Philox key and nothing else."""

    def __init__(self, key: int):
        self._words = np.frombuffer(key.to_bytes(16, "little"), dtype="<u8")

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 2 or np.dtype(dtype) != np.uint64:  # all Philox asks for
            raise ValueError(f"a Philox key is 2 uint64 words, not {n_words} of {np.dtype(dtype)}")
        return self._words


def derive_seed(seed: int, *path) -> int:
    """Derive a 63-bit integer seed for (seed, path), e.g. per-run seeds."""
    return _key(seed, tuple(path)) & (2**63 - 1)


class RngStream:
    """A deterministic random stream with named substreams.

    Draw methods advance the stream state; `child` creates an independent
    stream whose output depends only on the root seed and the child path,
    never on how much the parent has been consumed.  The key and generator
    are built on the first draw, so a stream used only to derive child
    paths costs no hashing.
    """

    __slots__ = ("seed", "path", "_gen")

    def __init__(self, seed: int, path: tuple = ()):
        self.seed = int(seed)
        self.path = tuple(path)
        self._gen = None

    def _generator(self) -> np.random.Generator:
        if self._gen is None:
            self._gen = np.random.Generator(np.random.Philox(_KeySeed(_key(self.seed, self.path))))
        return self._gen

    def child(self, *path) -> "RngStream":
        """Independent substream addressed by `path` components."""
        return RngStream(self.seed, self.path + path)

    # -- draws ------------------------------------------------------------

    def integers(self, high: int, size=None):
        """Uniform integers in [0, high)."""
        return self._generator().integers(high, size=size)

    def uniform(self, low: float = 0.0, high: float = 1.0, size=None):
        return self._generator().uniform(low, high, size=size)

    def normal(self, loc: float = 0.0, scale: float = 1.0, size=None):
        return self._generator().normal(loc, scale, size=size)

    def __repr__(self) -> str:
        return f"RngStream(seed={self.seed}, path={self.path!r})"
