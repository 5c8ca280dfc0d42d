import copy
import itertools
import json
import math
import operator
import pickle
import re

import numpy as np
import pytest
from scipy import stats

from evonas.cellspace import (
    ArchEncoding,
    ArchParseError,
    NUM_EDGES,
    NUM_NODES,
    OP_NAMES,
    SPACE_SIZE,
    OpKind,
    decode_str,
    encode_str,
    enumerate_all,
    mutate,
    random_arch,
)
from evonas.cellspace import _fields, _strings
from evonas.evolution import Individual, SearchConfig, spawn_generation
from evonas.rng import RngStream
from evonas.zeroproxy import ProxyScore

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
    k = np.fromiter((operator.index(random_arch(stream)) for _ in range(n)), dtype=np.int64, count=n)
    digits = k[:, None] // 5 ** np.arange(5, -1, -1) % 5  # edge 0 most significant
    counts = np.array([np.bincount(digits[:, edge], minlength=5) for edge in range(6)])
    sigma = np.sqrt(n * 0.2 * 0.8)
    assert np.all(np.abs(counts - n * 0.2) < 4 * sigma)
    for edge in range(6):
        _, p = stats.chisquare(counts[edge])
        assert p > 0.001
    assert np.unique(k).size == 15625


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
        ("|bogus~0|+|none~0|none~1|+|none~0|none~1|none~2|", "field 1 is 'bogus~0'"),
        ("|none~0|+|none~0|none~1|", "field 5 is ''"),
        ("|none~0|none~1|+|none~0|none~1|+|none~0|none~1|none~2|", "field 2 is 'none~1'"),
        ("|none~0|+|none~0|none~1|+|none~0|none~1|none~1|", "field 8 is 'none~1'"),
        ("|none|+|none~0|none~1|+|none~0|none~1|none~2|", "field 1 is 'none'"),
        ("none~0+|none~0|none~1|+|none~0|none~1|none~2|", "field 0 is 'none~0+'"),
    ],
)
def test_decode_rejects_malformed(text, fragment):
    with pytest.raises(ArchParseError) as err:
        decode_str(text)
    assert fragment in str(err.value)


@pytest.mark.parametrize("value", [5, None, 1.5, b"|none~0|", ["|none~0|"], {"arch": "|none~0|"}])
def test_decode_rejects_a_non_string(value):
    with pytest.raises(ArchParseError) as err:
        decode_str(value)
    assert str(err.value) == f"an architecture string must be a str, got {type(value).__name__}: {value!r}"


def _reference_encode_str(arch):
    """encode_str as it was before the string table: formatted per edge."""
    ops = arch.edge_ops
    groups = []
    pos = 0
    for dest in range(1, NUM_NODES):
        parts = []
        for src in range(dest):
            parts.append(f"{OP_NAMES[ops[pos]]}~{src}")
            pos += 1
        groups.append("|" + "|".join(parts) + "|")
    return "+".join(groups)


def test_string_table_matches_reference_formatter():
    for arch in enumerate_all():
        text = encode_str(arch)
        assert text == _reference_encode_str(arch)
        assert decode_str(text) is arch
        assert encode_str(ArchEncoding(arch.edge_ops)) == text


# the inputs of the former hand parser's tests, plus the source spellings
# its int() read as 0: no writer produces them, so each now fails, naming
# the first field no canonical string has there (or the field count)
SRC = {src: "['avg_pool_3x3~{0}', 'none~{0}', 'nor_conv_1x1~{0}', 'nor_conv_3x3~{0}', 'skip_connect~{0}']".format(src)
       for src in range(3)}
PARSE_CASES = [
    ("|bogus~0|+|none~0|none~1|+|none~0|none~1|none~2|", f"field 1 is 'bogus~0', expected one of {SRC[0]}"),
    ("|none~0|+|none~0|none~1|", "field 5 is '', expected one of ['+']"),
    ("|none~0|none~1|+|none~0|none~1|+|none~0|none~1|none~2|", "field 2 is 'none~1', expected one of ['+']"),
    ("|none~0|+|none~0|none~1|+|none~0|none~1|none~1|", f"field 8 is 'none~1', expected one of {SRC[2]}"),
    ("|none|+|none~0|none~1|+|none~0|none~1|none~2|", f"field 1 is 'none', expected one of {SRC[0]}"),
    ("none~0+|none~0|none~1|+|none~0|none~1|none~2|", "field 0 is 'none~0+', expected one of ['']"),
    ("|none~x|+|none~0|none~1|+|none~0|none~1|none~2|", f"field 1 is 'none~x', expected one of {SRC[0]}"),
    ("", "expected 10 '|'-separated fields, got 1"),
    ("|+|none~0|none~1|+|none~0|none~1|none~2|", f"field 1 is '+', expected one of {SRC[0]}"),
    ("|NONE~0|+|none~0|none~1|+|none~0|none~1|none~2|", f"field 1 is 'NONE~0', expected one of {SRC[0]}"),
    ("|none~00|+|none~0|none~1|+|none~0|none~1|none~2|", f"field 1 is 'none~00', expected one of {SRC[0]}"),
    ("|none~0 |+|none~0|none~1|+|none~0|none~1|none~2|", f"field 1 is 'none~0 ', expected one of {SRC[0]}"),
    ("|nor_conv_3x3~0_0|+|none~0|none~1|+|none~0|none~1|none~2|",
     f"field 1 is 'nor_conv_3x3~0_0', expected one of {SRC[0]}"),
    ("|none~ 0|+|none~0|none~1|+|none~0|none~1|none~2|", f"field 1 is 'none~ 0', expected one of {SRC[0]}"),
    ("|none~-0|+|none~0|none~1|+|none~0|none~1|none~2|", f"field 1 is 'none~-0', expected one of {SRC[0]}"),
    ("|none~\u0660|+|none~0|none~1|+|none~0|none~1|none~2|", f"field 1 is 'none~\u0660', expected one of {SRC[0]}"),
]


@pytest.mark.parametrize("text,expected", PARSE_CASES)
def test_decode_str_parses_as_before(text, expected):
    with pytest.raises(ArchParseError) as err:
        decode_str(text)
    assert str(err.value) == f"not an architecture string: {text!r}: {expected}"


@pytest.mark.parametrize("k", [0, 5**6 - 1, 9375, 4242])
def test_decode_names_the_one_corrupted_field(k):
    fields = encode_str(ArchEncoding.from_index(k)).split("|")
    assert len(fields) == len(_fields()) == 10
    for i in range(len(fields)):
        bad = "|".join(fields[:i] + [fields[i] + "x"] + fields[i + 1:])
        with pytest.raises(ArchParseError, match=re.escape(f": field {i} is {fields[i] + 'x'!r}, expected")):
            decode_str(bad)


def test_string_table_is_the_product_of_its_field_sets():
    # the strings are distinct and each lies in the product, so equal sizes
    # make the table the whole product: a string whose every field is
    # allowed is canonical
    assert len(set(_strings())) == len(_strings()) == math.prod(len(values) for values in _fields())
    assert [len(values) for values in _fields()] == [1, 5, 1, 5, 5, 1, 5, 5, 5, 1]


@pytest.mark.parametrize("k", [-1, -SPACE_SIZE, SPACE_SIZE, SPACE_SIZE + 7])
def test_encode_rejects_an_index_outside_the_space(k):
    with pytest.raises(IndexError, match=re.escape(f"no genotype {k}: indices lie in [0, {SPACE_SIZE})")):
        encode_str(k)


# Reference bodies: random_arch and mutate as they were before they worked
# on genotype indices.  The index arithmetic must give the same genotype
# from the same draws and consume exactly as many.


def _reference_random_arch(rng):
    idx = rng.integers(len(OP_NAMES), size=NUM_EDGES)
    return ArchEncoding(tuple(OpKind(int(i)) for i in idx))


def _reference_mutate(parent, rng):
    edge = int(rng.integers(NUM_EDGES))
    alternatives = [op for op in OpKind if op != parent.edge_ops[edge]]
    new_op = alternatives[int(rng.integers(len(alternatives)))]
    ops = list(parent.edge_ops)
    ops[edge] = new_op
    return ArchEncoding(tuple(ops))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_mutate_matches_reference_for_every_parent(seed):
    new, ref = RngStream(seed, ("mutate",)), RngStream(seed, ("mutate",))
    for parent in enumerate_all():
        child = mutate(parent, new)
        assert child == _reference_mutate(parent, ref)
        assert child is ArchEncoding.from_index(child)
        assert new.integers(1 << 62) == ref.integers(1 << 62)


def test_random_arch_matches_reference():
    for i in range(10_000):
        new, ref = RngStream(5, ("arch", i)), RngStream(5, ("arch", i))
        arch = random_arch(new)
        assert arch == _reference_random_arch(ref)
        assert arch is ArchEncoding.from_index(arch)
        assert new.integers(1 << 62) == ref.integers(1 << 62)


def test_direct_construction_equals_table_entry():
    for k, digits in enumerate(itertools.product(range(len(OP_NAMES)), repeat=NUM_EDGES)):
        direct, canonical = ArchEncoding(digits), ArchEncoding.from_index(k)
        assert direct is not canonical
        assert direct == canonical and hash(direct) == hash(canonical)
        assert operator.index(direct) == operator.index(canonical) == k
        assert direct.edge_ops == canonical.edge_ops
        assert all(type(op) is OpKind for op in direct.edge_ops)
    assert decode_str(encode_str(ALL_SKIP)) is ArchEncoding.from_index(ALL_SKIP)


def test_spawn_generation_skips_directly_constructed_trained():
    # every child but the lowest-scoring one is marked trained through an
    # equal, directly constructed encoding: that child must still be chosen
    parent = Individual(ALL_SKIP, ProxyScore(0.0), 50.0, birth_index=0, origin="init")
    cfg = SearchConfig(pop_size=1, cycles=1, init_candidates=1, gen_size=6)
    stream = RngStream(3, ("cycle", 0))
    children = [mutate(ALL_SKIP, stream.child("child", j, "mut")) for j in range(cfg.gen_size)]
    target = min(children, key=operator.index)
    assert max(children, key=operator.index) != target
    trained = {ArchEncoding(c.edge_ops) for c in children if c != target}
    score = lambda archs: [ProxyScore(float(operator.index(a))) for a in archs]  # noqa: E731
    arch, proxy = spawn_generation(parent, cfg, score, stream, trained=trained)
    assert arch == target and arch not in trained
    assert proxy.value == float(operator.index(target))


def test_genotype_is_its_index():
    arch = ArchEncoding.from_index(1234)
    assert isinstance(arch, int) and arch == 1234 and hash(arch) == hash(1234)
    assert 1234 in {arch} and arch in {1234}
    assert json.dumps(arch) == "1234"
    assert type(arch + 0) is int and type(int(arch)) is int
    assert not ALL_ZERO and ALL_SKIP


def test_repr_and_str_name_the_edge_ops_not_the_index():
    arch = ArchEncoding((OpKind.CONV3X3, OpKind.SKIP_CONNECT, OpKind.ZEROIZE,
                         OpKind.SKIP_CONNECT, OpKind.CONV1X1, OpKind.AVGPOOL3X3))
    assert repr(arch) == f"ArchEncoding(edge_ops={arch.edge_ops!r})"
    assert repr(arch).startswith("ArchEncoding(edge_ops=(<OpKind.CONV3X3: 3>, <OpKind.SKIP_CONNECT: 1>, ")
    text = "|nor_conv_3x3~0|+|skip_connect~0|none~1|+|skip_connect~0|nor_conv_1x1~1|avg_pool_3x3~2|"
    assert str(arch) == f"{arch}" == "%s" % arch == text


@pytest.mark.parametrize("roundtrip", [lambda x: pickle.loads(pickle.dumps(x)), copy.deepcopy, copy.copy],
                         ids=["pickle", "deepcopy", "copy"])
def test_genotypes_survive_pickle_and_copy(roundtrip):
    for arch in (ALL_ZERO, ALL_SKIP, ArchEncoding.from_index(SPACE_SIZE - 1)):
        back = roundtrip(arch)
        assert type(back) is ArchEncoding and back == arch and back.edge_ops == arch.edge_ops
    ind = Individual(ALL_SKIP, ProxyScore(0.5, (0.5,)), 50.0, birth_index=3, origin="init")
    back = roundtrip(ind)
    assert back == ind and type(back.arch) is ArchEncoding and back.arch.edge_ops == ALL_SKIP.edge_ops
