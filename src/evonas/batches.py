"""Input batches for proxy scoring: synthetic class templates or raw files."""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import ConfigError, check_fields, is_int
from .rng import RngStream

__all__ = ["SyntheticBatchSpec", "BatchFormatError", "make_batch", "load_raw_batch"]

# Raw batch files use the CIFAR-10 binary layout: per record 1 label byte
# followed by 3072 pixel bytes (1024 R, 1024 G, 1024 B, each 32x32 row-major).
_RAW_RECORD_BYTES = 3073
_RAW_SHAPE = (3, 32, 32)


class BatchFormatError(ValueError):
    """Raw batch file does not match the expected byte layout."""


@dataclass(frozen=True)
class SyntheticBatchSpec:
    """Balanced synthetic batch: one standard-normal template per class, each
    sample that template plus standard-normal noise scaled by 0.1."""

    num_classes: int = 10
    samples_per_class: int = 3
    image_shape: tuple = (3, 16, 16)
    seed: int = 0

    def __post_init__(self):
        check_fields(self)
        if self.samples_per_class < 2:
            raise ConfigError("samples_per_class must be >= 2 (correlations need pairs)")
        shape = self.image_shape
        if not (isinstance(shape, tuple) and len(shape) == 3 and all(is_int(d) and d >= 1 for d in shape)):
            raise ConfigError(f"image_shape must be (channels, h, w), ints >= 1, got {shape!r}")


def make_batch(spec: SyntheticBatchSpec) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic (batch, labels); samples of one class sit together."""
    root = RngStream(spec.seed, ("batch",))
    images = []
    labels = []
    for k in range(spec.num_classes):
        template = root.child("template", k).normal(size=spec.image_shape)
        for i in range(spec.samples_per_class):
            noise = root.child("sample", k, i).normal(size=spec.image_shape)
            images.append(template + 0.1 * noise)
            labels.append(k)
    return np.stack(images), np.asarray(labels, dtype=np.int64)


def load_raw_batch(path, count: int) -> tuple[np.ndarray, np.ndarray]:
    """First `count` records of a CIFAR-10-format binary file.

    Pixels are scaled to [0, 1] float64.  Classes left with a single sample
    carry no pairwise information, so they are dropped with a warning.
    """
    if count < 2:
        raise ValueError("count must be >= 2")
    data = Path(path).read_bytes()
    need = count * _RAW_RECORD_BYTES
    if len(data) < need:
        full = len(data) // _RAW_RECORD_BYTES
        raise BatchFormatError(
            f"{path}: truncated at byte {len(data)}: record {full} needs bytes "
            f"[{full * _RAW_RECORD_BYTES}, {(full + 1) * _RAW_RECORD_BYTES})"
        )
    raw = np.frombuffer(data[:need], dtype=np.uint8).reshape(count, _RAW_RECORD_BYTES)
    labels = raw[:, 0].astype(np.int64)
    images = raw[:, 1:].reshape(count, *_RAW_SHAPE).astype(np.float64) / 255.0
    present, counts = np.unique(labels, return_counts=True)
    singletons = present[counts < 2]
    if singletons.size:
        warnings.warn(
            f"dropping {singletons.size} singleton class(es) {singletons.tolist()} "
            "from raw batch: correlations need at least 2 samples per class",
            stacklevel=2,
        )
        keep = ~np.isin(labels, singletons)
        images, labels = images[keep], labels[keep]
    return np.ascontiguousarray(images), labels
