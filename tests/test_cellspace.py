import operator

import numpy as np
import pytest
from scipy import stats

from evonas.cellspace import (
    ArchEncoding,
    ArchParseError,
    NUM_EDGES,
    SPACE_SIZE,
    OpKind,
    decode_str,
    encode_str,
    enumerate_all,
    mutate,
    random_arch,
)
from evonas.rng import RngStream

ALL_ZERO = ArchEncoding((OpKind.ZEROIZE,) * 6)
ALL_SKIP = ArchEncoding((OpKind.SKIP_CONNECT,) * 6)


def test_space_size():
    assert NUM_EDGES == 6
    assert SPACE_SIZE == 5**6 == 15625


def test_index_roundtrip_in_enumeration_order():
    for k, arch in enumerate(enumerate_all()):
        assert ArchEncoding.from_index(k) == arch
        assert ArchEncoding.from_index(k).__index__() == k
        assert operator.index(arch) == k
    assert k == SPACE_SIZE - 1
    # base 5 over EDGES, edge 0 most significant
    assert operator.index(ArchEncoding((OpKind.SKIP_CONNECT,) + (OpKind.ZEROIZE,) * 5)) == 5**5
    assert operator.index(ArchEncoding((OpKind.ZEROIZE,) * 5 + (OpKind.AVGPOOL3X3,))) == 4
    for bad in (-1, SPACE_SIZE):
        with pytest.raises(ValueError):
            ArchEncoding.from_index(bad)


def test_arch_encoding_validation():
    with pytest.raises(ValueError):
        ArchEncoding((OpKind.ZEROIZE,) * 5)
    assert ALL_ZERO == ArchEncoding((OpKind.ZEROIZE,) * 6)
    assert ALL_ZERO != ALL_SKIP


def test_random_arch_deterministic():
    a = random_arch(RngStream(42))
    b = random_arch(RngStream(42))
    assert a == b


def test_random_arch_uniform_marginals_and_coverage():
    # 1e6 samples: per-edge op frequencies within 4 binomial sigma of 0.2,
    # chi-square per edge at significance 0.001, and full-space coverage
    n = 1_000_000
    stream = RngStream(2718)
    counts = np.zeros((6, 5), dtype=np.int64)
    seen = set()
    for _ in range(n):
        arch = random_arch(stream)
        counts[range(6), arch.indices] += 1
        seen.add(arch.edge_ops)
    sigma = np.sqrt(n * 0.2 * 0.8)
    assert np.all(np.abs(counts - n * 0.2) < 4 * sigma)
    for edge in range(6):
        _, p = stats.chisquare(counts[edge])
        assert p > 0.001
    assert len(seen) == 15625


def test_mutate_hamming_one_and_never_parent():
    stream = RngStream(9)
    for i in range(2000):
        parent = random_arch(stream)
        child = mutate(parent, stream)
        assert parent.hamming(child) == 1
        assert child != parent


def test_mutate_single_edge_swap():
    # drawing edge (0->1) and conv3x3 turns an identity edge into conv3x3
    child = mutate(ALL_SKIP, RngStream(39, ("fig3",)))
    assert child.edge_ops[0] == OpKind.CONV3X3
    assert child.edge_ops[1:] == ALL_SKIP.edge_ops[1:]


def test_mutate_uniform_over_24_children():
    n = 100_000
    parent = ArchEncoding(
        (OpKind.CONV3X3, OpKind.ZEROIZE, OpKind.SKIP_CONNECT,
         OpKind.AVGPOOL3X3, OpKind.CONV1X1, OpKind.CONV3X3)
    )
    stream = RngStream(31337)
    counts: dict = {}
    for _ in range(n):
        child = mutate(parent, stream)
        counts[child.edge_ops] = counts.get(child.edge_ops, 0) + 1
    assert len(counts) == 24
    sigma = np.sqrt(n * (1 / 24) * (23 / 24))
    for c in counts.values():
        assert abs(c - n / 24) < 4 * sigma


def test_enumerate_all():
    archs = list(enumerate_all())
    assert len(archs) == 15625
    assert archs[0] == ALL_ZERO
    assert len(set(archs)) == 15625


def test_encode_all_zero():
    assert encode_str(ALL_ZERO) == "|none~0|+|none~0|none~1|+|none~0|none~1|none~2|"


def test_encode_mixed_arch():
    arch = ArchEncoding(
        (OpKind.CONV3X3, OpKind.SKIP_CONNECT, OpKind.ZEROIZE,
         OpKind.SKIP_CONNECT, OpKind.CONV1X1, OpKind.AVGPOOL3X3)
    )
    assert encode_str(arch) == (
        "|nor_conv_3x3~0|+|skip_connect~0|none~1|+"
        "|skip_connect~0|nor_conv_1x1~1|avg_pool_3x3~2|"
    )


def test_decode_all_zero():
    assert decode_str("|none~0|+|none~0|none~1|+|none~0|none~1|none~2|") == ALL_ZERO


def test_roundtrip_exhaustive():
    for arch in enumerate_all():
        assert decode_str(encode_str(arch)) == arch


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("|bogus~0|+|none~0|none~1|+|none~0|none~1|none~2|", "unknown op name"),
        ("|none~0|+|none~0|none~1|", "3 '+'-separated"),
        ("|none~0|none~1|+|none~0|none~1|+|none~0|none~1|none~2|", "expects 1 edge token"),
        ("|none~0|+|none~0|none~1|+|none~0|none~1|none~1|", "source 1, expected 2"),
        ("|none|+|none~0|none~1|+|none~0|none~1|none~2|", "missing '~<source>'"),
        ("none~0+|none~0|none~1|+|none~0|none~1|none~2|", "'|'-delimited"),
    ],
)
def test_decode_rejects_malformed(text, fragment):
    with pytest.raises(ArchParseError) as err:
        decode_str(text)
    assert fragment in str(err.value)
