import sys
import threading

import numpy as np

from evonas.rng import RngStream, _key, derive_seed


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
    # those draws read four raw words, the first block, so no bit generator
    # is built; the fifth word builds one
    assert mut._bits is None and mut._gen is None
    mut.integers(6)
    assert mut._bits is not None and mut._gen is None


def _reference(seed, path):
    return np.random.Generator(np.random.Philox(key=_key(seed, path)))


def test_interleaved_streams_continue_past_the_first_block():
    # four streams take their first blocks in turn, then all read on past
    # word 4 with float and wide integer draws between the 32-bit ones
    paths = [("a",), ("b", 1), ("cycle", 3, "child", 0, "mut"), ("init", 9, "arch")]
    ours = [RngStream(5, path) for path in paths]
    refs = [_reference(5, path) for path in paths]
    for step in range(12):
        for stream, ref in zip(ours, refs):
            assert stream.integers(6) == ref.integers(6)
            if step % 4 == 3:
                assert stream.normal() == ref.normal()
            if step % 5 == 4:
                assert stream.integers(1 << 40) == ref.integers(1 << 40)
            if step == 7:
                assert np.array_equal(stream.integers(2**32, size=3), ref.integers(2**32, size=3))
    # a stream whose first float draw comes mid-block skips exactly the words drawn
    for used in range(6):
        stream, ref = RngStream(8, ("x", used)), _reference(8, ("x", used))
        assert [stream.integers(2**32) for _ in range(used)] == ref.integers(2**32, size=used).tolist()
        assert stream.uniform() == ref.uniform()
        assert stream.integers(7) == ref.integers(7)


def test_stream_continues_in_another_thread():
    stream, ref = RngStream(3, ("run", 2)), _reference(3, ("run", 2))
    first = [stream.integers(200) for _ in range(3)]  # takes the first block here
    later = []
    worker = threading.Thread(target=lambda: later.extend(stream.integers(200) for _ in range(9)))
    worker.start()
    worker.join()
    assert first + later == ref.integers(200, size=12).tolist()


def test_threads_draw_distinct_streams_at_once():
    n_streams, n_threads = 300, 2
    start = threading.Barrier(n_threads)
    drawn = {}

    def draw(t):
        start.wait()
        for i in range(n_streams):
            stream = RngStream(9, ("t", t, i))
            drawn[t, i] = [stream.integers(6) for _ in range(10)]

    workers = [threading.Thread(target=draw, args=(t,)) for t in range(n_threads)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, inside a re-key too
    try:
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
    finally:
        sys.setswitchinterval(interval)
    for (t, i), draws in drawn.items():
        assert draws == _reference(9, ("t", t, i)).integers(6, size=10).tolist()
    assert len(drawn) == n_streams * n_threads


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
