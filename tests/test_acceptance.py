"""End-to-end acceptance suite.

Each test prints one PASS/FAIL line (run with `pytest -s` to see them all);
the assertions pin the tolerances.  Criterion 8 needs externally converted
benchmark data and is skipped with a notice when the file is absent.
"""

import math
import os
import time

import numpy as np
import pytest

import evonas as ev
from evonas.cellspace import enumerate_all
from evonas.evolution import rea_config
from evonas.rng import RngStream, derive_seed
from evonas.stats import welch_ttest
from evonas.tensornet import relu_kink_margin
from evonas.zeroproxy import ClassCorr, ProxyScore, WORST_SCORE, eval_matrix, score

MASTER_SEED = 123
RUNS = 25

# landscape used by criteria 6 and 7: rugged enough that random search
# keeps a positive regret and neither evolution variant saturates
LANDSCAPE = dict(seed=5, noise_std=2.0, interaction_scale=0.5)


def report(num, name, ok, detail="", status=None):
    line = f"ACCEPTANCE {num} [{name}]: {status or ('PASS' if ok else 'FAIL')}"
    if detail:
        line += f" | {detail}"
    print(line, flush=True)
    return ok


def paired_finals(bench, methods, runs=RUNS, **cfg_overrides):
    """Final val_acc arrays for each method over shared derived seeds."""
    scorer = None
    if bench.synthetic_proxy is not None:
        proxy_map = bench.synthetic_proxy
        scorer = lambda arch, stream: ProxyScore(value=proxy_map[arch])
    out = {m: [] for m in methods}
    for i in range(runs):
        seed = derive_seed(MASTER_SEED, "run", i)
        for method in methods:
            if method == "gea":
                cfg = ev.SearchConfig(pop_size=10, tournament_size=5, cycles=200,
                                      gen_size=10, seed=seed, **cfg_overrides)
                traj = ev.run_search(cfg, bench, scorer)
            elif method == "rea":
                cfg = rea_config(pop_size=10, tournament_size=5, cycles=200, seed=seed)
                traj = ev.run_search(cfg, bench)
            else:
                cfg = ev.SearchConfig(pop_size=10, cycles=200, seed=seed)
                traj = ev.run_random_search(cfg, bench)
            out[method].append(traj.best.fitness)
    return {m: np.array(v) for m, v in out.items()}


# ---------------------------------------------------------------------------


def test_acceptance_1_score_formula_oracle():
    """eval_matrix/score vs an independent direct-formula implementation."""

    def direct_e(m, t):
        n = m.shape[0]
        total = 0.0
        for i in range(n):
            for j in range(n):
                total += math.log(abs(m[i, j]) + t)
        return total / math.sqrt(n * n)

    def direct_z(es, k, tau):
        if not es:
            return WORST_SCORE
        if k <= tau:
            return sum(abs(e) for e in es)
        total = 0.0
        for i in range(len(es)):
            for j in range(i + 1, len(es)):
                total += abs(es[i] - es[j])
        return total / len(es)

    rng = np.random.default_rng(99)
    params = ev.ProxyParams()
    start = time.time()
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 9))
        m = rng.uniform(-1.0, 1.0, size=(n, n))
        m = (m + m.T) / 2.0
        np.fill_diagonal(m, 1.0)
        got = eval_matrix(ClassCorr(0, m), params)
        want = direct_e(m, params.t)
        worst = max(worst, abs(got - want) / max(1.0, abs(want)))
    for _ in range(1000):
        es = list(rng.normal(scale=5.0, size=int(rng.integers(1, 11))))
        k = int(rng.integers(1, 151))
        got = score(es, K=k, params=params)
        want = direct_z(es, k, params.tau)
        worst = max(worst, abs(got - want) / max(1.0, abs(want)))
    elapsed = time.time() - start
    ok = worst <= 1e-9 and elapsed < 5.0
    assert report(1, "score formula oracle", ok,
                  f"max rel err {worst:.2e}, {elapsed:.2f}s")


def test_acceptance_2_jacobian_finite_differences():
    """Input Jacobian vs central differences on 20 random genotypes."""
    cfg = ev.SkeletonConfig(input_channels=2, input_hw=8, stem_channels=4, num_classes=5)
    start = time.time()
    worst = 0.0
    checked = 0
    seed = 0
    while checked < 20:
        root = RngStream(seed, ("acc2",))
        seed += 1
        arch = ev.random_arch(root.child("arch"))
        net = ev.build_network(arch, cfg, root.child("init"))
        # resample the batch while a data-dependent preactivation sits within
        # two finite-difference steps of a ReLU kink, where the central
        # difference would straddle it (exact structural zeros never move
        # with the input and cannot be escaped by resampling)
        for attempt in range(16):
            batch = root.child("batch", attempt).normal(size=(3, 2, 8, 8))
            if relu_kink_margin(net, batch, positive_only=True) > 2e-4:
                break
        else:
            pytest.fail(f"could not find a kink-free batch for arch seed {seed - 1}")
        jac = ev.input_jacobian(net, batch, [0, 1, 2])
        fd = ev.finite_diff_jacobian(net, batch, 1e-4)
        denom = np.linalg.norm(fd)
        if denom == 0.0:
            assert np.array_equal(jac.J, fd)
            continue
        worst = max(worst, float(np.linalg.norm(jac.J - fd) / denom))
        checked += 1
    elapsed = time.time() - start
    ok = worst <= 1e-3 and elapsed < 120.0
    assert report(2, "jacobian vs finite differences", ok,
                  f"20 archs, max rel frobenius err {worst:.2e}, {elapsed:.1f}s")


@pytest.fixture(scope="module")
def cheap_bench():
    v = np.array(
        [sum((3 + 7 * e) * int(op) for e, op in enumerate(arch.edge_ops)) % 97 for arch in enumerate_all()],
        dtype=np.float64,
    )
    return ev.Benchmark(dataset_name="cheap", val_acc=v, test_acc=v, train_time_s=np.ones(v.size))


def test_acceptance_3_algorithm_invariants(cheap_bench):
    """Invariants over 100 randomized short guided runs."""
    mock = lambda arch, stream: ProxyScore(value=float(sum(arch.indices)))
    rng = np.random.default_rng(7)
    start = time.time()
    for _ in range(100):
        pop = int(rng.integers(1, 9))
        cycles = int(rng.integers(pop, 31))
        cfg = ev.SearchConfig(
            pop_size=pop,
            tournament_size=int(rng.integers(1, 7)),
            cycles=cycles,
            gen_size=int(rng.integers(1, 5)),
            init_candidates=int(rng.integers(pop, 41)),
            parent_mode=str(rng.choice(["tournament", "highest", "lowest"])),
            removal_mode=str(rng.choice(["oldest", "highest", "lowest"])),
            seed=int(rng.integers(0, 2**31)),
        )
        traj = ev.run_search(cfg, cheap_bench, mock)
        assert len(traj.final_population) == cfg.pop_size
        assert traj.n_trained == cfg.cycles
        assert traj.n_proxy_evals == cfg.init_candidates + (cfg.cycles - cfg.pop_size) * cfg.gen_size
        best = -math.inf
        for e in traj.events:
            best = max(best, e.fitness)
            assert e.best_so_far == best
            if e.parent_arch is not None:
                assert e.parent_arch.hamming(e.arch) == 1
    elapsed = time.time() - start
    ok = elapsed < 60.0
    assert report(3, "algorithm invariants", ok, f"100 runs, {elapsed:.1f}s")


def test_acceptance_4_determinism(tmp_path):
    """Byte-identical files on rerun; identical direct reruns."""
    spec = ev.SyntheticSpec(seed=41, noise_std=1.0, target_proxy_tau=0.7, interaction_scale=0.3)
    search = ev.SearchConfig(pop_size=4, tournament_size=2, cycles=12, gen_size=3,
                             init_candidates=20, seed=MASTER_SEED)
    snapshots = []
    for _ in range(2):  # identical config, identical output location
        cfg = ev.ExperimentConfig(method="gea", search=search, benchmark=spec,
                                  num_runs=2, out=str(tmp_path / "out"))
        snapshots.append([p.read_bytes() for p in ev.emit_results(ev.run_experiment(cfg))])
    identical_csv = snapshots[0][0] == snapshots[1][0]
    identical_json = snapshots[0][1] == snapshots[1][1]

    bench = ev.gen_synthetic(spec)
    proxy_map = bench.synthetic_proxy
    scorer = lambda arch, stream: ProxyScore(value=proxy_map[arch])
    cfg = ev.SearchConfig(pop_size=6, cycles=40, gen_size=8, init_candidates=30, seed=9)
    first = ev.run_search(cfg, bench, scorer)
    second = ev.run_search(cfg, bench, scorer)
    ok = identical_csv and identical_json and first == second
    assert report(4, "determinism", ok,
                  f"files identical={identical_csv and identical_json}, reruns identical={first == second}")


def test_acceptance_5_baseline_reduction(cheap_bench):
    """Unguided mode replays a standalone aging-evolution reference loop."""

    def reference_rea(seed, pop_size, s_size, cycles):
        root = RngStream(seed)
        pop, history = [], []
        for i in range(pop_size):
            arch = ev.random_arch(root.child("init", i, "arch"))
            root.child("init", i, "score").uniform()
            fit = ev.query(cheap_bench, arch).val_acc
            pop.append((arch, fit))
            history.append((arch, fit))
        cycle = 0
        while len(history) < cycles:
            stream = root.child("cycle", cycle)
            draws = stream.child("tournament").integers(len(pop), size=s_size)
            parent = None
            for d in draws:
                if parent is None or pop[int(d)][1] > parent[1]:
                    parent = pop[int(d)]
            child = ev.mutate(parent[0], stream.child("child", 0, "mut"))
            stream.child("child", 0, "score").uniform()
            fit = ev.query(cheap_bench, child).val_acc
            pop.append((child, fit))
            history.append((child, fit))
            pop.pop(0)
            cycle += 1
        return history

    mock = lambda arch, stream: ProxyScore(value=0.0)  # never consulted
    matched = 0
    for i in range(25):
        seed = derive_seed(MASTER_SEED, "reduction", i)
        cfg = rea_config(pop_size=10, tournament_size=5, cycles=40, seed=seed)
        traj = ev.run_search(cfg, cheap_bench, mock)
        ref = reference_rea(seed, 10, 5, 40)
        if [(e.arch, e.fitness) for e in traj.events] == ref:
            matched += 1
    ok = matched == 25
    assert report(5, "baseline reduction", ok, f"{matched}/25 trajectories event-identical")


def test_acceptance_6_guidance_benefit():
    """Guided search beats the baselines when the proxy carries signal."""
    bench = ev.gen_synthetic(ev.SyntheticSpec(target_proxy_tau=0.6, **LANDSCAPE))
    _, best_rec = ev.best_of(bench)
    finals = paired_finals(bench, ("gea", "rea", "rs"))
    t, p = welch_ttest(finals["gea"], finals["rea"])
    gea_regret = best_rec.val_acc - finals["gea"].mean()
    rs_regret = best_rec.val_acc - finals["rs"].mean()
    ok = (
        finals["gea"].mean() >= finals["rea"].mean()
        and p < 0.05
        and gea_regret < rs_regret
        and rs_regret > 0
    )
    assert report(
        6, "guidance benefit (tau 0.6)", ok,
        f"GEA {finals['gea'].mean():.2f} REA {finals['rea'].mean():.2f} "
        f"p={p:.1e}, regret GEA {gea_regret:.2f} < RS {rs_regret:.2f}",
    )


def test_acceptance_6b_uninformative_proxy_control():
    """Control arm: a tau-0 proxy map must not make GEA differ from REA.

    A proxy that carries no signal about fitness should leave guided search
    no better and no worse than the unguided baseline: across the seed-paired
    runs, GEA's and REA's final val_acc must not differ at two-sided Welch
    p <= 0.01.  The map is frozen, so a parent's top-scoring child is the same
    at every win; the check also guards against the search spending its
    training slots on architectures it has already trained.
    """
    bench = ev.gen_synthetic(ev.SyntheticSpec(target_proxy_tau=0.0, **LANDSCAPE))
    finals = paired_finals(bench, ("gea", "rea"))
    t, p = welch_ttest(finals["gea"], finals["rea"])
    ok = p > 0.01
    report(
        "6b", "uninformative proxy control (tau 0.0)", ok,
        f"GEA {finals['gea'].mean():.2f} REA {finals['rea'].mean():.2f} t={t:.2f} p={p:.4f}",
    )
    assert ok, (
        f"two-sided Welch p={p:.4f} <= 0.01: with a frozen tau-0 proxy map, guided "
        f"search ({finals['gea'].mean():.2f}) differs from the unguided baseline "
        f"({finals['rea'].mean():.2f}); an uninformative proxy must leave the "
        "search neither better nor worse"
    )


def test_acceptance_7_removal_ablation():
    """Evicting the fittest must be strictly worse than evicting the oldest."""
    bench = ev.gen_synthetic(ev.SyntheticSpec(target_proxy_tau=0.6, **LANDSCAPE))
    oldest = paired_finals(bench, ("gea",), removal_mode="oldest")["gea"]
    highest = paired_finals(bench, ("gea",), removal_mode="highest")["gea"]
    t, p = welch_ttest(oldest, highest)
    ok = highest.mean() < oldest.mean() and p < 0.05
    assert report(
        7, "removal-policy ablation", ok,
        f"oldest {oldest.mean():.2f}±{oldest.std(ddof=1):.2f} > "
        f"highest {highest.mean():.2f}±{highest.std(ddof=1):.2f}, p={p:.1e}",
    )


def test_acceptance_8_real_benchmark_conditional():
    """Reported accuracy bands on converted benchmark data, when present."""
    path = os.environ.get("EVONAS_NB201_CIFAR10", "data/nb201_cifar10.json")
    if not os.path.exists(path):
        report(8, "real benchmark bands", True, f"no tabular file at {path!r}", status="SKIP")
        pytest.skip(
            f"converted benchmark data not found at {path!r} "
            "(set EVONAS_NB201_CIFAR10 to run this criterion)"
        )
    bench = ev.load_tabular(path)
    raw = os.environ.get("EVONAS_CIFAR10_BIN")
    if raw:
        batch, labels = ev.load_raw_batch(raw, 32)
        skeleton = ev.SkeletonConfig(input_hw=32)
    else:
        batch, labels = ev.make_batch(ev.SyntheticBatchSpec(seed=MASTER_SEED))
        skeleton = ev.SkeletonConfig()
    params = ev.ProxyParams()
    scorer = lambda arch, stream: ev.score_arch(arch, batch, labels, skeleton, params, stream)
    gea, rea = [], []
    for i in range(RUNS):
        seed = derive_seed(MASTER_SEED, "run", i)
        cfg = ev.SearchConfig(pop_size=10, tournament_size=5, cycles=200, gen_size=10, seed=seed)
        gea.append(ev.run_search(cfg, bench, scorer).best.fitness)
        rea.append(ev.run_search(rea_config(cycles=200, seed=seed), bench).best.fitness)
    gea_mean, rea_mean = float(np.mean(gea)), float(np.mean(rea))
    ok = abs(gea_mean - 91.26) <= 3 * 0.20 and abs(rea_mean - 91.22) <= 3 * 0.25
    assert report(8, "real benchmark bands", ok,
                  f"GEA mean {gea_mean:.2f} (band 91.26±0.60), REA mean {rea_mean:.2f} (band 91.22±0.75)")


def test_acceptance_9_statistics_fixtures():
    """Frozen fixtures for the statistics operations, at 1e-6."""
    from test_stats import WELCH_A, WELCH_B, WELCH_P, WELCH_T

    t, p = welch_ttest(WELCH_A, WELCH_B)
    tau_value = ev.kendall_tau([1, 2, 3, 4], [1, 3, 2, 4])
    ok = (
        abs(t - WELCH_T) < 1e-6
        and abs(p - WELCH_P) < 1e-6
        and abs(tau_value - 4.0 / 6.0) < 1e-6
    )
    assert report(9, "statistics fixtures", ok,
                  f"welch t={t:.6f} p={p:.6f}, tau={tau_value:.6f}")
