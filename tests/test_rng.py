import numpy as np
import pytest

from evonas.rng import RngStream, _key, _KeySeed, derive_seed


def test_same_seed_same_draws():
    a = RngStream(42).normal(size=10)
    b = RngStream(42).normal(size=10)
    assert np.array_equal(a, b)


def test_child_streams_are_path_addressed():
    # a child's output must not depend on how much the parent was consumed
    parent = RngStream(7)
    before = parent.child("sub").normal(size=5)
    parent.normal(size=1000)
    after = parent.child("sub").normal(size=5)
    assert np.array_equal(before, after)


def test_distinct_paths_distinct_streams():
    root = RngStream(1)
    a = root.child("a").integers(1 << 30, size=8)
    b = root.child("b").integers(1 << 30, size=8)
    c = root.child("a", 0).integers(1 << 30, size=8)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_nested_child_equals_flat_path():
    assert np.array_equal(
        RngStream(3).child("x", 1).child("y").normal(size=4),
        RngStream(3).child("x", 1, "y").normal(size=4),
    )


def test_integers_range():
    draws = RngStream(5).integers(6, size=10_000)
    assert draws.min() >= 0 and draws.max() <= 5
    assert set(np.unique(draws)) == set(range(6))


def test_derive_seed_stable_and_spread():
    # frozen value guards cross-version reproducibility of run seeds
    assert derive_seed(123, "run", 0) == 442273835081565426
    seeds = {derive_seed(123, "run", i) for i in range(1000)}
    assert len(seeds) == 1000
    assert all(0 <= s < 2**63 for s in seeds)


def test_lazy_generator_keeps_every_stream():
    # reference: the generator built eagerly from the (seed, path) key
    def eager(path):
        return np.random.Generator(np.random.Philox(key=_key(11, path)))

    # built early: forced before any child is derived
    early = RngStream(11, ("run",))
    early._generator()
    kid_first = early.child("c", 2)
    assert np.array_equal(early.normal(size=6), eager(("run",)).normal(size=6))
    # built late: children derived and drawn from before the parent draws
    late = RngStream(11, ("run",))
    kid = late.child("c", 2)
    assert np.array_equal(kid.integers(100, size=6), eager(("run", "c", 2)).integers(100, size=6))
    assert np.array_equal(late.normal(size=6), eager(("run",)).normal(size=6))
    # a child derived after the parent's first draw is the same stream
    assert np.array_equal(late.child("c", 2).uniform(size=6), kid_first.uniform(size=6))
    # a path-only stream builds no bit generator, an integer-only one no Generator
    assert RngStream(11).child("cycle", 0).child("child", 1)._bits is None
    mut = RngStream(11).child("cycle", 0, "child", 1, "mut")
    for high in (1, 6, 2**32):
        mut.integers(high)
        mut.integers(high, size=3)
    assert mut._bits is not None and mut._gen is None


def test_key_seed_draws_equal_philox_key():
    # 120 (seed, path) pairs: every draw kind, scalar and sized, equals the
    # generator that Philox builds from the same key given as `key=`; integer
    # draws interleave with float draws, whose words they must not move
    paths = [(), ("run",), ("init", 3, "arch"), ("cycle", 17, "child", 2, "mut")]
    highs = [1, 2, 5, 6, 7, 200, 2**31 + 1, 3 * 2**30, 2**32 - 1, 2**32, np.int64(2**32 - 5), 1 << 40]
    for seed in range(30):
        for path in paths:
            ours = RngStream(seed, path)
            ref = np.random.Generator(np.random.Philox(key=_key(seed, path)))
            for high in highs:
                draw = ours.integers(high)
                assert type(draw) is int and draw == ref.integers(high)
                assert ours.normal() == ref.normal()
            assert ours.integers(6) == ref.integers(6)
            assert ours.integers(1) == ref.integers(1) == 0  # consumes no word
            assert ours.integers(7) == ref.integers(7)
            for high, size in [(5, 6), (6, 7), (200, (2, 3)), (2**32 - 1, 4), (1, 3), (3, 0)]:
                draws, expected = ours.integers(high, size=size), ref.integers(high, size=size)
                assert draws.dtype == expected.dtype and np.array_equal(draws, expected)
            assert np.array_equal(ours.integers(1 << 40, size=7), ref.integers(1 << 40, size=7))
            assert ours.uniform() == ref.uniform()
            assert np.array_equal(ours.uniform(5.0, 15.0, size=9), ref.uniform(5.0, 15.0, size=9))
            assert ours.normal() == ref.normal()
            assert np.array_equal(ours.normal(1.0, 2.0, size=(3, 4)), ref.normal(1.0, 2.0, size=(3, 4)))


def test_key_seed_answers_only_the_philox_request():
    seq = _KeySeed(_key(4, ("x",)))
    words = seq.generate_state(2, np.uint64)
    assert words.tolist() == [_key(4, ("x",)) & (2**64 - 1), _key(4, ("x",)) >> 64]
    for n_words, dtype in [(4, np.uint32), (1, np.uint64), (4, np.uint64), (2, np.uint32)]:
        with pytest.raises(ValueError):
            seq.generate_state(n_words, dtype)
