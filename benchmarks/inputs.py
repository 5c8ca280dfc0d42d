"""Benchmark inputs derived from the workload seed (standard library only).

The program never sees the workload seed itself: it receives a landscape
seed, a master search seed and a batch seed (or a batch file) derived here.
"""

from __future__ import annotations

import hashlib
import random
from pathlib import Path

# CIFAR-10 binary layout read by evonas.batches.load_raw_batch: per record
# one label byte, then 3 x 32 x 32 pixel bytes.
RAW_PIXELS = 3 * 32 * 32
RAW_COUNT = 20
NUM_CLASSES = 10


def derive(workload: str, seed: int, name: str) -> int:
    """A 31-bit seed for one input of one workload run."""
    digest = hashlib.sha256(f"{workload}/{seed}/{name}".encode()).digest()
    return int.from_bytes(digest[:4], "little") >> 1


def write_raw_batch(path, seed: int, count: int = RAW_COUNT) -> None:
    """Write `count` records with labels cycling over all classes.

    Balanced labels give every class at least two samples, so the loader
    drops none of them.
    """
    rnd = random.Random(seed)
    records = bytearray()
    for i in range(count):
        records.append(i % NUM_CLASSES)
        records += rnd.randbytes(RAW_PIXELS)
    Path(path).write_bytes(bytes(records))
