import math

import numpy as np
import pytest

from evonas.cellspace import ArchEncoding, OpKind, enumerate_all, mutate, random_arch
from evonas.evolution import (
    CheckpointError,
    METHODS,
    PROXY_COST_S,
    ConfigError,
    Individual,
    SearchConfig,
    Trajectory,
    _scoring,
    init_population,
    load_checkpoint,
    method_config,
    rea_config,
    remove_survivor,
    run_random_search,
    run_search,
    save_checkpoint,
    score_stream,
    spawn_generation,
    tournament_select,
)
from evonas.oracle import Benchmark, SyntheticSpec, best_of, gen_synthetic, query
from evonas.rng import RngStream, derive_seed
from evonas.zeroproxy import WORST_SCORE, ProxyScore


def hashed_benchmark():
    """Cheap deterministic landscape: fitness from the genotype digits."""
    v = np.array(
        [sum((3 + 7 * e) * int(op) for e, op in enumerate(arch.edge_ops)) % 97 for arch in enumerate_all()],
        dtype=np.float64,
    )
    return Benchmark(dataset_name="hashed", val_acc=v, test_acc=v / 2, train_time_s=np.ones(v.size))


BENCH = hashed_benchmark()


def mock_scorer(arch, stream):
    return ProxyScore(value=float(sum(arch.indices)))


def batched(scorer, calls=None, rng=RngStream(0)):
    """The scoring step of a guided run of stream `rng` around the per-arch
    `scorer`; `calls`, when given, receives the archs of every step call and
    the stream paths the scorer saw."""
    calls = [] if calls is None else calls
    paths = []

    def seen(arch, stream):
        paths.append(stream.path)
        return scorer(arch, stream)

    score = _scoring(SearchConfig(), seen, Trajectory(), rng)

    def recorded(archs):
        paths.clear()
        proxies = score(archs)
        calls.append((list(archs), list(paths)))
        return proxies

    return recorded


def individuals(fitnesses, birth0=0):
    stream = RngStream(0)
    return [
        Individual(random_arch(stream), ProxyScore(0.0), float(f), birth0 + i, "init")
        for i, f in enumerate(fitnesses)
    ]


# ---------------------------------------------------------------------------
# configuration


def test_config_defaults():
    cfg = SearchConfig()
    assert cfg.gen_size == cfg.pop_size == 10
    assert cfg.init_candidates == cfg.cycles == 200
    assert cfg.guided


def test_config_validation():
    with pytest.raises(ConfigError):
        SearchConfig(pop_size=0)
    with pytest.raises(ConfigError):
        SearchConfig(pop_size=10, init_candidates=5)
    with pytest.raises(ConfigError):
        SearchConfig(pop_size=10, cycles=5)
    with pytest.raises(ConfigError):
        SearchConfig(tournament_size=0)
    with pytest.raises(ConfigError):
        SearchConfig(gen_size=0)
    with pytest.raises(ConfigError):
        SearchConfig(parent_mode="best")
    with pytest.raises(ConfigError):
        SearchConfig(removal_mode="middle")


def test_rea_config_semantics():
    cfg = rea_config(pop_size=7, cycles=50, seed=3)
    assert not cfg.guided
    assert cfg.gen_size == 1
    assert cfg.init_candidates == 7
    # unguided configs always collapse to one child per cycle
    assert SearchConfig(guided=False, gen_size=9, init_candidates=10).gen_size == 1


@pytest.mark.parametrize("name, value", [
    ("pop_size", 4.0), ("pop_size", True), ("cycles", "12"), ("tournament_size", None),
    ("gen_size", 2.0), ("init_candidates", False), ("seed", 1.5),
])
def test_search_counts_must_be_integers(name, value):
    with pytest.raises(ConfigError, match=name):
        SearchConfig(**{name: value})


def test_unguided_runs_are_charged_no_proxy_time():
    traj = run_search(rea_config(pop_size=5, cycles=20, seed=4), BENCH, mock_scorer)
    assert traj.n_proxy_evals == 0
    assert traj.simulated_time_s == sum(query(BENCH, e.arch).train_time_s for e in traj.events)


def test_method_config_states_what_each_method_runs():
    base = SearchConfig(pop_size=4, tournament_size=3, cycles=20, gen_size=2, init_candidates=20,
                        removal_mode="highest", seed=9)
    assert METHODS == ("gea", "rea", "rs")
    assert method_config("gea", base) == base
    assert method_config("rea", base) == rea_config(pop_size=4, tournament_size=3, cycles=20,
                                                    removal_mode="highest", seed=9)
    # random search reads only cycles and seed
    assert method_config("rs", base) == SearchConfig(pop_size=20, cycles=20, guided=False, seed=9)
    assert method_config("rs", base, cycles=3, seed=2, tournament_size=1) == method_config(
        "rs", SearchConfig(pop_size=3, cycles=3, seed=2))
    with pytest.raises(ConfigError, match="method"):
        method_config("annealing", base)


def test_method_config_replaces_in_one_step():
    # each field alone would fail against the base: cycles < pop_size, pop_size > init_candidates
    assert method_config("rs", SearchConfig(pop_size=4, cycles=20), cycles=3).cycles == 3
    assert method_config("rea", SearchConfig(init_candidates=20, cycles=30), pop_size=25).init_candidates == 25


# ---------------------------------------------------------------------------
# selection and removal


def test_tournament_single_individual():
    pop = individuals([5.0])
    for mode in ("tournament", "highest", "lowest"):
        cfg = SearchConfig(pop_size=1, cycles=1, init_candidates=1, parent_mode=mode)
        assert tournament_select(pop, cfg, RngStream(0)) is pop[0]


def test_parent_mode_extremes():
    pop = individuals([3.0, 9.0, 1.0, 9.0])
    hi = tournament_select(pop, SearchConfig(parent_mode="highest"), RngStream(0))
    lo = tournament_select(pop, SearchConfig(parent_mode="lowest"), RngStream(0))
    assert hi is pop[1]  # ties break to lowest birth index
    assert lo is pop[2]


def test_tournament_win_probability():
    # P(best of 10 is drawn in 5 with-replacement draws) = 1 - (9/10)^5
    pop = individuals(list(range(1, 11)))
    cfg = SearchConfig(tournament_size=5)
    stream = RngStream(77)
    n = 100_000
    wins = sum(tournament_select(pop, cfg, stream) is pop[9] for _ in range(n))
    p = 1 - (9 / 10) ** 5
    sigma = np.sqrt(n * p * (1 - p))
    assert abs(wins - n * p) < 4 * sigma


def test_tournament_tie_breaks_to_earliest_draw():
    pop = individuals([1.0, 1.0, 1.0])

    class TwoDraws:
        def integers(self, high, size=None):
            return np.array([2, 0, 1])

    cfg = SearchConfig(tournament_size=3)
    assert tournament_select(pop, cfg, TwoDraws()) is pop[2]


def test_remove_survivor_modes():
    cfg = SearchConfig(pop_size=3, cycles=3, init_candidates=3)
    pop = individuals([5.0, 2.0, 9.0, 9.0])
    removed = remove_survivor(pop, SearchConfig(pop_size=3, cycles=3, init_candidates=3, removal_mode="oldest"))
    assert removed.birth_index == 0
    assert len(pop) == 3

    pop = individuals([5.0, 2.0, 9.0, 9.0])
    removed = remove_survivor(pop, SearchConfig(pop_size=3, cycles=3, init_candidates=3, removal_mode="highest"))
    assert removed.birth_index == 2  # ties to lowest birth index

    pop = individuals([5.0, 2.0, 9.0, 2.0])
    before = list(pop)
    removed = remove_survivor(pop, SearchConfig(pop_size=3, cycles=3, init_candidates=3, removal_mode="lowest"))
    assert removed.birth_index == 1
    assert pop == [ind for ind in before if ind is not removed]
    with pytest.raises(ValueError):
        remove_survivor(pop, cfg)


# ---------------------------------------------------------------------------
# generation


def test_spawn_single_child():
    parent = individuals([1.0])[0]
    cfg = SearchConfig(pop_size=1, cycles=1, init_candidates=1, gen_size=1)
    arch, proxy = spawn_generation(parent, cfg, batched(lambda a, s: ProxyScore(-100.0)), RngStream(5))
    assert parent.arch.hamming(arch) == 1
    assert proxy.value == -100.0


def test_spawn_selects_injected_argmax():
    parent = individuals([1.0])[0]
    cfg = SearchConfig(pop_size=1, cycles=1, init_candidates=1, gen_size=10)
    calls = []

    def indexed_scorer(arch, stream):
        calls.append(arch)
        return ProxyScore(value=float(len(calls) - 1))

    arch, proxy = spawn_generation(parent, cfg, batched(indexed_scorer), RngStream(6))
    assert proxy.value == 9.0
    assert arch == calls[9]


def test_spawn_best_matches_rescoring():
    parent = individuals([1.0])[0]
    cfg = SearchConfig(pop_size=1, cycles=1, init_candidates=1, gen_size=10)
    stream = RngStream(7, ("cycle", 0))
    arch, proxy = spawn_generation(parent, cfg, batched(mock_scorer, rng=RngStream(7)), stream)
    rescored = []
    for j in range(10):
        child = mutate(parent.arch, stream.child("child", j, "mut"))
        rescored.append(mock_scorer(child, score_stream(RngStream(7), child)).value)
    assert proxy.value == max(rescored)


def test_spawn_all_sentinel_takes_first_child():
    parent = individuals([1.0])[0]
    cfg = SearchConfig(pop_size=1, cycles=1, init_candidates=1, gen_size=5)
    stream = RngStream(9, ("c",))
    arch, proxy = spawn_generation(parent, cfg, batched(lambda a, s: ProxyScore.sentinel()), stream)
    assert proxy.is_sentinel
    assert arch == mutate(parent.arch, stream.child("child", 0, "mut"))


def test_spawn_nan_first_child_never_wins():
    parent = individuals([1.0])[0]
    cfg = SearchConfig(pop_size=1, cycles=1, init_candidates=1, gen_size=3)
    stream = RngStream(12, ("c",))
    values = iter([math.nan, 1.0, 2.0])
    arch, proxy = spawn_generation(parent, cfg, batched(lambda a, s: ProxyScore(next(values))), stream)
    assert proxy.value == 2.0
    assert arch == mutate(parent.arch, stream.child("child", 2, "mut"))


def scored_children(parent, cfg, scorer, stream, rng=RngStream(0)):
    """(arch, score) of every child spawn_generation scores from cycle stream
    `stream` of the run of stream `rng`, in child order."""
    out = []
    for j in range(cfg.gen_size):
        arch = mutate(parent.arch, stream.child("child", j, "mut"))
        out.append((arch, scorer(arch, score_stream(rng, arch)).value))
    return out


def test_spawn_skips_trained_children():
    parent = individuals([1.0])[0]
    cfg = SearchConfig(pop_size=1, cycles=1, init_candidates=1, gen_size=10)
    stream = RngStream(10, ("c",))
    children = scored_children(parent, cfg, mock_scorer, stream)
    top_arch, _ = spawn_generation(parent, cfg, batched(mock_scorer), stream)
    arch, proxy = spawn_generation(parent, cfg, batched(mock_scorer), stream, trained={top_arch})
    fresh = [(a, v) for a, v in children if a != top_arch]
    assert arch != top_arch
    # first child (lowest index) holding the best score among untrained children
    assert (arch, proxy.value) == max(fresh, key=lambda c: c[1])


def test_spawn_falls_back_when_all_children_trained():
    parent = individuals([1.0])[0]
    cfg = SearchConfig(pop_size=1, cycles=1, init_candidates=1, gen_size=6)
    stream = RngStream(11, ("c",))
    trained = {a for a, _ in scored_children(parent, cfg, mock_scorer, stream)}
    assert spawn_generation(parent, cfg, batched(mock_scorer), stream, trained=trained) == spawn_generation(
        parent, cfg, batched(mock_scorer), stream
    )


# ---------------------------------------------------------------------------
# initialization


def test_init_population_counts():
    cfg = SearchConfig(pop_size=10, cycles=200, init_candidates=200)
    calls = []

    def counting_scorer(arch, stream):
        calls.append(arch)
        return mock_scorer(arch, stream)

    pop, candidates = init_population(cfg, batched(counting_scorer), RngStream(1))
    assert len(calls) == 200  # every candidate proxy-scored
    assert len(candidates) == 200
    assert len(pop) == 10  # only the kept ones get trained, by the run
    assert all(ind in candidates for ind in pop)
    assert all(ind.fitness is None for ind in candidates)


def test_init_population_keeps_top_by_proxy():
    cfg = SearchConfig(pop_size=10, cycles=200, init_candidates=200)
    pop, candidates = init_population(cfg, batched(mock_scorer), RngStream(2))
    resort = sorted(candidates, key=lambda ind: (-ind.proxy.value, ind.birth_index))[:10]
    assert sorted(ind.birth_index for ind in pop) == sorted(ind.birth_index for ind in resort)
    births = [ind.birth_index for ind in pop]
    assert births == sorted(births)  # population in birth order


def test_init_population_no_filter_when_sizes_match():
    cfg = SearchConfig(pop_size=10, cycles=10, init_candidates=10)
    pop, candidates = init_population(cfg, batched(mock_scorer), RngStream(3))
    assert [ind.arch for ind in pop] == [ind.arch for ind in candidates]


def test_init_population_nan_candidate_is_sentinel():
    cfg = SearchConfig(pop_size=3, cycles=10, init_candidates=10)
    values = iter([5.0, math.nan, 9.0, 8.0, 7.0, 0.0, 1.0, 2.0, 3.0, 4.0])
    pop, _ = init_population(cfg, batched(lambda a, s: ProxyScore(next(values))), RngStream(4))
    assert [ind.proxy.value for ind in pop] == [9.0, 8.0, 7.0]


def test_init_population_scores_all_candidates_in_one_call():
    cfg = SearchConfig(pop_size=4, cycles=20, init_candidates=9)
    calls = []
    _, candidates = init_population(cfg, batched(mock_scorer, calls), RngStream(5))
    archs = [ind.arch for ind in candidates]
    assert calls == [(archs, [("score", int(a)) for a in archs])]


def test_spawn_generation_scores_all_children_in_one_call():
    parent = individuals([1.0])[0]
    cfg = SearchConfig(pop_size=1, cycles=1, init_candidates=1, gen_size=7)
    stream = RngStream(8, ("cycle", 3))
    calls = []
    spawn_generation(parent, cfg, batched(mock_scorer, calls), stream)
    children = [a for a, _ in scored_children(parent, cfg, mock_scorer, stream)]
    assert calls == [(children, [("score", int(a)) for a in children])]


def test_scoring_step_charges_guided_runs_only():
    cfg = SearchConfig()
    traj = Trajectory()
    score = _scoring(cfg, lambda a, s: ProxyScore(float(a)), traj, RngStream(0))
    archs = list(enumerate_all())[:5]
    assert [p.value for p in score(archs[:3])] == [0.0, 1.0, 2.0]
    score(archs[3:])
    assert traj.n_proxy_evals == 5
    assert traj.simulated_time_s == 3 * PROXY_COST_S + 2 * PROXY_COST_S

    def scorer(arch, stream):
        raise AssertionError("an unguided run called its scorer")

    traj = Trajectory()
    scores = _scoring(rea_config(), scorer, traj, RngStream(0))(archs)
    assert all(p.is_sentinel for p in scores) and len(scores) == 5
    assert traj == Trajectory()


# ---------------------------------------------------------------------------
# full runs


def test_run_zero_cycles():
    cfg = SearchConfig(pop_size=10, cycles=10, init_candidates=10)
    traj = run_search(cfg, BENCH, mock_scorer)
    assert traj.n_trained == 10
    assert all(e.origin == "init" for e in traj.events)
    assert traj.best.fitness == max(e.fitness for e in traj.events)


def test_run_search_invariants():
    cfg = SearchConfig(pop_size=5, tournament_size=3, cycles=30, gen_size=4, init_candidates=40, seed=11)
    traj = run_search(cfg, BENCH, mock_scorer)
    assert traj.n_trained == 30
    assert len(traj.final_population) == 5
    assert traj.n_proxy_evals == 40 + (30 - 5) * 4
    best = -1.0
    for e in traj.events:
        best = max(best, e.fitness)
        assert e.best_so_far == best
    # every accepted child is one mutation away from its parent
    for e in traj.events:
        if e.parent_arch is not None:
            assert e.parent_arch.hamming(e.arch) == 1
    # simulated time: one train per event plus proxy cost
    expected = sum(query(BENCH, e.arch).train_time_s for e in traj.events)
    expected += PROXY_COST_S * traj.n_proxy_evals
    assert abs(traj.simulated_time_s - expected) < 1e-9


def test_run_deterministic():
    cfg = SearchConfig(pop_size=4, cycles=20, gen_size=5, init_candidates=25, seed=21)
    assert run_search(cfg, BENCH, mock_scorer) == run_search(cfg, BENCH, mock_scorer)


def test_guided_repeats_only_when_every_child_was_trained():
    values = RngStream(12).uniform(size=15625)
    frozen = {arch: ProxyScore(value=float(v)) for arch, v in zip(enumerate_all(), values)}
    scorer = lambda arch, stream: frozen[arch]
    # the fittest individual stays the parent, so its neighbourhood runs out
    cfg = SearchConfig(pop_size=3, cycles=100, gen_size=3, init_candidates=6, seed=13,
                       parent_mode="highest", removal_mode="lowest")
    traj = run_search(cfg, BENCH, scorer)
    assert traj.n_trained == 100  # a repeat still costs a training slot
    assert traj.n_proxy_evals == 6 + (100 - 3) * 3
    # a transfer run counts its loaded individuals as trained
    transfer_cfg = SearchConfig(pop_size=3, cycles=100, gen_size=3, init_candidates=6, seed=14,
                                parent_mode="highest", removal_mode="lowest")
    transfer = run_search(transfer_cfg, BENCH, scorer, initial_population=traj.final_population)
    for run_cfg, run in ((cfg, traj), (transfer_cfg, transfer)):
        seen = {e.arch for e in run.events[: run_cfg.pop_size]}
        repeats = skips = 0
        for e in run.events[run_cfg.pop_size:]:
            cycle = int(e.origin.split(":")[1])
            rng = RngStream(run_cfg.seed)
            parent = Individual(e.parent_arch, ProxyScore(0.0), 0.0, 0, "init")
            children = scored_children(parent, run_cfg, scorer, rng.child("cycle", cycle), rng)
            assert e.arch in {a for a, _ in children}
            skips += e.arch != max(children, key=lambda c: c[1])[0]
            if e.arch in seen:
                repeats += 1
                assert all(a in seen for a, _ in children)
            seen.add(e.arch)
        # both the skip and the fallback were exercised
        assert skips > 0 and repeats > 0


def test_score_depends_only_on_run_seed_and_genotype():
    calls = []

    def scorer(arch, stream):
        calls.append((arch, stream.path, stream.uniform()))
        return ProxyScore(calls[-1][2])

    # the fittest individual stays the parent, so children repeat
    cfg = SearchConfig(pop_size=3, cycles=60, gen_size=3, init_candidates=6, seed=13,
                       parent_mode="highest", removal_mode="lowest")
    traj = run_search(cfg, BENCH, scorer)
    assert len(calls) == traj.n_proxy_evals
    # a genotype equals its index but its repr, which RngStream hashes, is not the index's
    assert all(path == ("score", int(arch)) and type(path[1]) is int for arch, path, _ in calls)
    values = {}
    for arch, _, value in calls:
        values.setdefault(arch, set()).add(value)
    assert len(values) < len(calls)  # some genotype was scored more than once
    assert all(len(v) == 1 for v in values.values())
    assert all(e.proxy_value in values[e.arch] for e in traj.events)


def test_best_tie_breaks_to_earliest_trained():
    from test_oracle import constant_benchmark

    bench = constant_benchmark()
    cfg = SearchConfig(pop_size=3, cycles=12, init_candidates=6, gen_size=2, seed=5)
    traj = run_search(cfg, bench, mock_scorer)
    # every fitness ties at 50: the first-trained individual must win
    assert traj.best.fitness == 50.0
    assert traj.best.origin == "init"
    assert traj.best.arch == traj.events[0].arch


def test_guided_needs_scorer():
    with pytest.raises(ConfigError):
        run_search(SearchConfig(cycles=10, pop_size=10, init_candidates=10), BENCH, None)


def test_guided_nan_scores_run_as_sentinels():
    cfg = SearchConfig(pop_size=5, tournament_size=3, cycles=40, gen_size=4, init_candidates=20, seed=6)
    proxy = BENCH.val_acc.copy()
    holes = np.arange(proxy.size) % 3 == 0
    runs = []
    for fill in (math.nan, -math.inf):
        proxy[holes] = fill
        traj = run_search(cfg, BENCH, lambda arch, stream: ProxyScore(proxy[arch]))
        runs.append([(e.arch, e.proxy_value, e.parent_arch) for e in traj.events])
    assert runs[0] == runs[1]
    assert any(e[1] == WORST_SCORE for e in runs[0])


def test_unguided_run_never_calls_its_scorer():
    def scorer(arch, stream):
        raise AssertionError("an unguided run called its scorer")

    cfg = rea_config(pop_size=5, tournament_size=3, cycles=30, seed=7)
    traj = run_search(cfg, BENCH, scorer)
    assert traj.events == run_search(cfg, BENCH).events
    assert traj.n_proxy_evals == 0


def test_rea_reduction_matches_reference_loop():
    """Unguided mode must replay a straightforward aging-evolution loop."""

    def reference_rea(seed, pop_size, s_size, cycles):
        root = RngStream(seed)
        pop = []
        history = []
        for i in range(pop_size):
            arch = random_arch(root.child("init", i, "arch"))
            fit = query(BENCH, arch).val_acc
            pop.append((arch, fit))
            history.append((arch, fit))
        c = 0
        while len(history) < cycles:
            stream = root.child("cycle", c)
            draws = stream.child("tournament").integers(len(pop), size=s_size)
            parent = None
            for d in draws:
                if parent is None or pop[int(d)][1] > parent[1]:
                    parent = pop[int(d)]
            child = mutate(parent[0], stream.child("child", 0, "mut"))
            fit = query(BENCH, child).val_acc
            pop.append((child, fit))
            history.append((child, fit))
            pop.pop(0)
            c += 1
        return history

    for seed in (0, 1, 2, 3, 4):
        cfg = rea_config(pop_size=6, tournament_size=3, cycles=25, seed=seed)
        traj = run_search(cfg, BENCH, None)
        ref = reference_rea(seed, 6, 3, 25)
        assert [(e.arch, e.fitness) for e in traj.events] == ref
        assert all(e.proxy_value == ProxyScore.sentinel().value for e in traj.events)


def test_random_search_matches_reference_loop():
    """Random search must replay a standalone loop of uniform samples."""
    timed = Benchmark(
        dataset_name="timed",
        val_acc=BENCH.val_acc,
        test_acc=BENCH.test_acc,
        train_time_s=1.0 + BENCH.val_acc / 8,
    )

    def reference_rs(seed, cycles):
        root = RngStream(seed)
        events = []
        best, clock = float("-inf"), 0.0
        for i in range(cycles):
            arch = random_arch(root.child("init", i, "arch"))
            rec = query(timed, arch)
            best = max(best, rec.val_acc)
            clock += rec.train_time_s
            events.append((arch, rec.val_acc, best, clock, ProxyScore.sentinel().value))
        return events

    for seed in (0, 1, 2, 3, 4):
        cfg = SearchConfig(pop_size=5, cycles=30, gen_size=4, seed=seed)
        traj = run_random_search(cfg, timed)
        events = [
            (e.arch, e.fitness, e.best_so_far, e.simulated_time_s, e.proxy_value)
            for e in traj.events
        ]
        assert events == reference_rs(seed, 30)
        assert traj.simulated_time_s == events[-1][3]


def test_random_search():
    cfg = SearchConfig(pop_size=10, cycles=50, seed=9)
    traj = run_random_search(cfg, BENCH)
    assert traj.n_trained == 50
    assert traj.n_proxy_evals == 0
    assert traj.best.fitness == max(e.fitness for e in traj.events)
    assert run_random_search(cfg, BENCH) == traj


def test_guided_beats_baseline_with_perfect_proxy():
    bench = gen_synthetic(
        SyntheticSpec(seed=5, noise_std=2.0, target_proxy_tau=1.0, interaction_scale=0.5)
    )
    scorer = lambda arch, stream: ProxyScore(value=bench.synthetic_proxy[arch])
    _, best_rec = best_of(bench)
    gea_regret, rea_regret = [], []
    for i in range(25):
        seed = derive_seed(314, "run", i)
        g = run_search(SearchConfig(cycles=200, gen_size=10, seed=seed), bench, scorer)
        r = run_search(rea_config(cycles=200, seed=seed), bench)
        gea_regret.append(best_rec.val_acc - g.best.fitness)
        rea_regret.append(best_rec.val_acc - r.best.fitness)
    assert np.mean(gea_regret) < np.mean(rea_regret)


# ---------------------------------------------------------------------------
# checkpoints and transfer


def test_checkpoint_roundtrip(tmp_path):
    cfg = SearchConfig(pop_size=5, cycles=20, init_candidates=20, gen_size=3, seed=8)
    traj = run_search(cfg, BENCH, mock_scorer)
    path = tmp_path / "pop.json"
    save_checkpoint(traj.final_population, path)
    loaded = load_checkpoint(path)
    assert [ind.arch for ind in loaded] == [ind.arch for ind in traj.final_population]
    assert [ind.birth_index for ind in loaded] == [
        ind.birth_index for ind in traj.final_population
    ]
    assert [ind.fitness for ind in loaded] == [ind.fitness for ind in traj.final_population]
    assert [ind.proxy.value for ind in loaded] == [
        ind.proxy.value for ind in traj.final_population
    ]


def test_checkpoint_sentinel_roundtrip(tmp_path):
    pop = individuals([1.0, 2.0])
    pop[0] = Individual(pop[0].arch, ProxyScore.sentinel(), 1.0, 0, "init")
    path = tmp_path / "pop.json"
    save_checkpoint(pop, path)
    loaded = load_checkpoint(path)
    assert loaded[0].proxy.is_sentinel
    assert not loaded[1].proxy.is_sentinel


def test_checkpoint_space_mismatch(tmp_path):
    import json

    pop = individuals([1.0])
    path = tmp_path / "pop.json"
    save_checkpoint(pop, path)
    doc = json.loads(path.read_text())
    doc["space"]["ops"] = ["none"]
    path.write_text(json.dumps(doc))
    with pytest.raises(CheckpointError, match="space"):
        load_checkpoint(path)


def test_checkpoint_shape_errors(tmp_path):
    import json

    path = tmp_path / "pop.json"
    save_checkpoint(individuals([1.0]), path)
    doc = json.loads(path.read_text())
    row = doc["individuals"][0]
    for bad in ([doc], "pop", 3, None, {**doc, "individuals": {"0": row}}, {**doc, "individuals": 3},
                {**doc, "individuals": None}, {**doc, "individuals": [[row]]},
                {**doc, "individuals": [{**row, "arch": 5}]}, {**doc, "individuals": [{**row, "birth_index": 1.7}]},
                {**doc, "individuals": [{**row, "proxy": True}]}, {**doc, "individuals": [{**row, "proxy": "x"}]},
                {**doc, "individuals": [{**row, "fitness": "50"}]},
                {**doc, "individuals": [{**row, "fitness": float("nan")}]}):
        path.write_text(json.dumps(bad))
        with pytest.raises(CheckpointError):
            load_checkpoint(path)


def test_checkpoint_birth_order_enforced(tmp_path):
    import json

    pop = individuals([1.0, 2.0])
    path = tmp_path / "pop.json"
    save_checkpoint(pop, path)
    doc = json.loads(path.read_text())
    doc["individuals"][1]["birth_index"] = 0
    path.write_text(json.dumps(doc))
    with pytest.raises(CheckpointError, match="birth_index"):
        load_checkpoint(path)


def test_transfer_run_counts_and_eviction(tmp_path):
    donor_cfg = SearchConfig(pop_size=5, cycles=15, init_candidates=15, gen_size=2, seed=1)
    donor = run_search(donor_cfg, BENCH, mock_scorer)
    path = tmp_path / "pop.json"
    save_checkpoint(donor.final_population, path)
    loaded = load_checkpoint(path)

    target = gen_synthetic(SyntheticSpec(seed=30, noise_std=1.0, interaction_scale=0.3))
    cfg = SearchConfig(pop_size=5, cycles=15, init_candidates=15, gen_size=2, seed=2)
    traj = run_search(cfg, target, mock_scorer, initial_population=loaded)
    # loaded individuals are the first pop_size history entries, re-evaluated
    assert traj.n_trained == 15
    assert [e.arch for e in traj.events[:5]] == [ind.arch for ind in loaded]
    for e in traj.events[:5]:
        assert e.fitness == query(target, e.arch).val_acc
    # proxy evaluations happen only for the evolution cycles
    assert traj.n_proxy_evals == (15 - 5) * 2
    # the first eviction removes the loaded leftmost individual
    survivors = {ind.birth_index for ind in traj.final_population}
    assert loaded[0].birth_index not in survivors


@pytest.mark.parametrize("kind", ["gea", "rea", "rs", "transfer"])
def test_one_oracle_query_per_trained_architecture(kind, monkeypatch):
    import evonas.evolution as evolution

    calls = []
    monkeypatch.setattr(evolution, "query", lambda bench, arch: calls.append(arch) or query(bench, arch))
    if kind == "rs":
        traj = run_random_search(SearchConfig(cycles=20, seed=4), BENCH)
    elif kind == "rea":
        traj = run_search(rea_config(pop_size=5, cycles=20, seed=4), BENCH)
    else:
        initial = individuals([1.0, 2.0, 3.0, 4.0, 5.0]) if kind == "transfer" else None
        cfg = SearchConfig(pop_size=5, cycles=20, gen_size=3, init_candidates=12, seed=4)
        traj = run_search(cfg, BENCH, mock_scorer, initial_population=initial)
    assert calls == [e.arch for e in traj.events]


def test_transfer_population_size_mismatch():
    pop = individuals([1.0, 2.0])
    cfg = SearchConfig(pop_size=5, cycles=10, init_candidates=10)
    with pytest.raises(ConfigError):
        run_search(cfg, BENCH, mock_scorer, initial_population=pop)


@pytest.mark.parametrize("name, value", [("guided", "False"), ("guided", 1)])
def test_search_switches_must_be_bools(name, value):
    with pytest.raises(ConfigError, match=name):
        SearchConfig(**{name: value})
