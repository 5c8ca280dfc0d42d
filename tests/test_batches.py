import numpy as np
import pytest

from evonas.batches import BatchFormatError, SyntheticBatchSpec, load_raw_batch, make_batch


def test_spec_validation():
    with pytest.raises(ValueError):
        SyntheticBatchSpec(samples_per_class=1)
    with pytest.raises(ValueError):
        SyntheticBatchSpec(num_classes=0)
    with pytest.raises(ValueError):
        SyntheticBatchSpec(image_shape=(3, 16))


def test_make_batch_deterministic():
    spec = SyntheticBatchSpec(seed=5)
    a, la = make_batch(spec)
    b, lb = make_batch(spec)
    assert np.array_equal(a, b)
    assert np.array_equal(la, lb)


def test_make_batch_shape_and_labels():
    batch, labels = make_batch(SyntheticBatchSpec(num_classes=10, samples_per_class=3))
    assert batch.shape == (30, 3, 16, 16)
    assert batch.dtype == np.float64
    for k in range(10):
        assert np.count_nonzero(labels == k) == 3


def test_make_batch_class_structure():
    batch, labels = make_batch(SyntheticBatchSpec(seed=2, num_classes=6, samples_per_class=4))
    flat = batch.reshape(len(labels), -1)
    within, across = [], []
    for i in range(len(labels)):
        for j in range(i + 1, len(labels)):
            d = np.linalg.norm(flat[i] - flat[j])
            (within if labels[i] == labels[j] else across).append(d)
    assert np.mean(within) < np.mean(across)


def raw_record(label, value=None, pixels=None):
    body = np.full(3072, value, dtype=np.uint8) if pixels is None else pixels
    return bytes([label]) + body.tobytes()


def test_load_raw_batch_exact_values(tmp_path):
    pixels = np.arange(3072, dtype=np.uint8)  # 0..255 repeating
    path = tmp_path / "batch.bin"
    path.write_bytes(raw_record(7, pixels=pixels) + raw_record(7, value=255))
    batch, labels = load_raw_batch(path, 2)
    assert labels.tolist() == [7, 7]
    assert batch.shape == (2, 3, 32, 32)
    # channel-major, row-major layout, scaled by 255
    expected = pixels.reshape(3, 32, 32).astype(np.float64) / 255.0
    assert np.array_equal(batch[0], expected)
    assert np.array_equal(batch[1], np.ones((3, 32, 32)))
    assert batch[0, 0, 0, 1] == 1.0 / 255.0


def test_load_raw_batch_truncated(tmp_path):
    path = tmp_path / "batch.bin"
    path.write_bytes(raw_record(1, value=0) + b"\x00" * 100)
    with pytest.raises(BatchFormatError, match="byte 3173"):
        load_raw_batch(path, 2)


def test_load_raw_batch_drops_singletons(tmp_path):
    path = tmp_path / "batch.bin"
    path.write_bytes(
        raw_record(1, value=0) + raw_record(2, value=0) + raw_record(1, value=9)
    )
    with pytest.warns(UserWarning, match="singleton"):
        batch, labels = load_raw_batch(path, 3)
    assert labels.tolist() == [1, 1]
    assert batch.shape == (2, 3, 32, 32)


def test_load_raw_batch_refuses_all_singletons(tmp_path):
    path = tmp_path / "batch.bin"
    path.write_bytes(b"".join(raw_record(label, value=0) for label in (0, 1, 2, 0)))
    with pytest.raises(BatchFormatError, match=r"batch\.bin: no class among the first 3 records"):
        load_raw_batch(path, 3)
    with pytest.warns(UserWarning, match=r"singleton class\(es\) \[1, 2\]"):
        assert load_raw_batch(path, 4)[1].tolist() == [0, 0]


def test_load_raw_batch_count_validation(tmp_path):
    path = tmp_path / "batch.bin"
    path.write_bytes(raw_record(0, value=0))
    with pytest.raises(ValueError):
        load_raw_batch(path, 1)
