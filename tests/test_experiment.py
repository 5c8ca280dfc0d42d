import json

import numpy as np
import pytest

from evonas.batches import SyntheticBatchSpec
from evonas.evolution import ConfigError, SearchConfig
from evonas.experiment import ExperimentConfig, emit_results, run_experiment
from evonas.oracle import SyntheticSpec, gen_synthetic, save_tabular
from evonas.stats import mean_std

SMALL_SEARCH = SearchConfig(pop_size=4, tournament_size=2, cycles=12, gen_size=3,
                            init_candidates=20, seed=77)
BENCH_SPEC = SyntheticSpec(seed=41, noise_std=1.0, target_proxy_tau=0.7, interaction_scale=0.3)


def small_config(**overrides):
    fields = dict(method="gea", search=SMALL_SEARCH, benchmark=BENCH_SPEC, num_runs=3)
    fields.update(overrides)
    return ExperimentConfig(**fields)


def test_config_validation():
    with pytest.raises(ConfigError):
        ExperimentConfig(method="annealing", benchmark=BENCH_SPEC)
    with pytest.raises(ConfigError):
        ExperimentConfig(benchmark=BENCH_SPEC, num_runs=0)
    with pytest.raises(ConfigError):
        ExperimentConfig(benchmark=None)
    with pytest.raises(ConfigError):
        ExperimentConfig(benchmark=BENCH_SPEC, sweep=(("momentum", [1]),))
    with pytest.raises(ConfigError):
        ExperimentConfig(benchmark=BENCH_SPEC, sweep=(("pop_size", []),))


def test_random_search_smoke():
    result = run_experiment(small_config(method="rs", num_runs=1))
    assert len(result.rows) == 1
    assert len(result.runs) == 1
    assert result.rows[0].label == "rs"
    assert result.runs[0].n_proxy_evals == 0


def test_sweep_produces_labeled_rows():
    cfg = small_config(sweep=(("removal_mode", ["oldest", "highest", "lowest"]),), num_runs=2)
    result = run_experiment(cfg)
    assert [row.label for row in result.rows] == [
        "gea:removal_mode=oldest",
        "gea:removal_mode=highest",
        "gea:removal_mode=lowest",
    ]
    assert len(result.runs) == 6


def test_seed_pairing_across_methods():
    gea = run_experiment(small_config())
    rea = run_experiment(small_config(method="rea"))
    assert [r.seed for r in gea.runs] == [r.seed for r in rea.runs]


def test_summary_recomputable_from_runs():
    result = run_experiment(small_config(num_runs=4))
    row = result.rows[0]
    mean_val, std_val = mean_std([r.final_val_acc for r in result.runs])
    assert abs(row.mean_val_acc - mean_val) < 1e-12
    assert abs(row.std_val_acc - std_val) < 1e-12
    assert abs(row.mean_regret - np.mean([r.regret for r in result.runs])) < 1e-12


def test_run_accounting():
    result = run_experiment(small_config(num_runs=1))
    run = result.runs[0]
    cfg = SMALL_SEARCH
    assert run.n_proxy_evals == cfg.init_candidates + (cfg.cycles - cfg.pop_size) * cfg.gen_size
    # curve: one init point plus one per executed cycle
    assert len(run.curve) == 1 + (cfg.cycles - cfg.pop_size)
    assert run.curve[0][0] == 0
    best_values = [point[1] for point in run.curve]
    assert best_values == sorted(best_values)
    assert run.regret >= 0.0


def test_curve_init_only_when_no_cycles():
    search = SearchConfig(pop_size=6, cycles=6, init_candidates=6, seed=3)
    result = run_experiment(small_config(search=search, num_runs=1))
    assert len(result.runs[0].curve) == 1


@pytest.mark.parametrize("method", ["gea", "rea", "rs"])
def test_curve_points_numbered_from_zero(method):
    search = SearchConfig(pop_size=6, tournament_size=2, cycles=15, gen_size=3,
                          init_candidates=20, seed=3)
    run = run_experiment(small_config(method=method, search=search, num_runs=1)).runs[0]
    # random search: one point per sample; evolution: the init point, then one per cycle
    points = 15 if method == "rs" else 15 - 6 + 1
    assert [cycle for cycle, _, _ in run.curve] == list(range(points))
    assert run.curve[-1][1] == run.final_val_acc
    assert run.curve[-1][2] == run.simulated_time_s


def test_emit_results_roundtrip(tmp_path):
    result = run_experiment(small_config(num_runs=2, out=str(tmp_path / "r")))
    curves, summary = emit_results(result)
    doc = json.loads(summary.read_text())
    assert doc["tool_version"]
    assert doc["config"]["method"] == "gea"
    for row_doc, row in zip(doc["rows"], result.rows):
        for key, value in row_doc.items():
            assert value == getattr(row, key)
    # summary stats recomputable from the emitted per-run finals
    vals = [r["final_val_acc"] for r in doc["runs"]]
    mean_val, std_val = mean_std(vals)
    assert abs(doc["rows"][0]["mean_val_acc"] - mean_val) < 1e-12
    assert abs(doc["rows"][0]["std_val_acc"] - std_val) < 1e-12
    lines = curves.read_text().splitlines()
    assert lines[0] == "run_id,cycle,best_so_far,simulated_time_s"
    assert len(lines) - 1 == sum(len(r.curve) for r in result.runs)


def test_emitted_files_byte_identical(tmp_path):
    cfg_a = small_config(num_runs=2, out=str(tmp_path / "a"))
    cfg_b = small_config(num_runs=2, out=str(tmp_path / "b"))
    curves_a, summary_a = emit_results(run_experiment(cfg_a))
    curves_b, summary_b = emit_results(run_experiment(cfg_b))
    assert curves_a.read_bytes() == curves_b.read_bytes()
    # output location is part of the echo; normalize it before comparing
    one = summary_a.read_text().replace(str(tmp_path / "a"), "OUT")
    two = summary_b.read_text().replace(str(tmp_path / "b"), "OUT")
    assert one == two


def test_network_scoring_path():
    search = SearchConfig(pop_size=2, tournament_size=2, cycles=4, gen_size=2,
                          init_candidates=4, seed=5)
    batch = SyntheticBatchSpec(num_classes=3, samples_per_class=2, image_shape=(2, 8, 8), seed=1)
    from evonas.tensornet import SkeletonConfig

    cfg = ExperimentConfig(
        method="gea",
        search=search,
        benchmark=BENCH_SPEC,
        batch=batch,
        skeleton=SkeletonConfig(input_channels=2, input_hw=8, stem_channels=4, num_classes=3),
        num_runs=1,
    )
    result = run_experiment(cfg)
    assert result.runs[0].n_proxy_evals == 4 + (4 - 2) * 2


def test_tabular_benchmark_path(tmp_path):
    bench_path = tmp_path / "bench.json"
    save_tabular(gen_synthetic(BENCH_SPEC), bench_path)
    result = run_experiment(small_config(benchmark=str(bench_path), num_runs=1))
    reference = run_experiment(small_config(num_runs=1))
    assert result.runs[0].final_val_acc == reference.runs[0].final_val_acc


def test_guided_without_proxy_source_fails():
    bench = gen_synthetic(BENCH_SPEC)
    bench.synthetic_proxy = None
    with pytest.raises(ConfigError):
        run_experiment(small_config(benchmark=bench))
