import dataclasses
import hashlib
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


def test_sweep_labels_spell_json_tokens():
    cfg = small_config(sweep=(("gen_size", [None, 2]),), num_runs=1)
    assert [row.label for row in run_experiment(cfg).rows] == ["gea:gen_size=null", "gea:gen_size=2"]


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


# sha256 of (curves.csv, summary.json) for each method's small experiment; a
# deliberate change to the output files moves these and says why in CHANGES.md
PINNED_OUTPUTS = {
    "gea": ("f1a3c5145857cde344eda981998ee79a78938b3de0d7432264246e486dd3cc64",
            "dd927d186f0d7fccc12ba5baf11038749fedd69a16edcd0e00327af76568840c"),
    "rea": ("70831656c058faa53a30a4f4ab78abf364f40bf23d7db943ed022c63cec73f30",
            "390b83155114990c69273ff73c7378faacd5358b33db648652f549f2afe152b8"),
    "rs": ("dd59cdf40bbbb7400a913073de373799754976a1490a2e7674521be6d23d132b",
           "fae9e00ab92f23266767603476cadff8d81fd5f16ddf3d541784844432e1124e"),
}


@pytest.mark.parametrize("method", sorted(PINNED_OUTPUTS))
def test_output_bytes_are_pinned(tmp_path, method):
    result = run_experiment(small_config(method=method, num_runs=2, out="pinned"))
    paths = emit_results(result, tmp_path / method)
    assert tuple(hashlib.sha256(path.read_bytes()).hexdigest() for path in paths) == PINNED_OUTPUTS[method]


def test_rea_echo_states_what_ran():
    search = run_experiment(small_config(method="rea", num_runs=1)).config.search
    assert (search.guided, search.gen_size, search.init_candidates) == (False, 1, SMALL_SEARCH.pop_size)
    assert run_experiment(small_config(num_runs=1)).config.search == SMALL_SEARCH


def test_rs_echo_states_what_ran():
    # random search keeps every one of its `cycles` uniform samples, unguided
    result = run_experiment(small_config(method="rs", num_runs=1, sweep=(("cycles", [12, 8]),)))
    search = result.config.search
    ran = (search.guided, search.pop_size, search.gen_size, search.init_candidates)
    assert ran == (False, SMALL_SEARCH.cycles, 1, SMALL_SEARCH.cycles)
    assert [len(run.curve) for run in result.runs] == [12, 8]
    assert all(run.n_proxy_evals == 0 for run in result.runs)


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


def test_path_sources_rerun_from_their_echo(tmp_path):
    from test_cli import write_cifar_batch

    from evonas.experiment import _config_echo, config_from_doc

    bench_path, batch_path = tmp_path / "bench.json", tmp_path / "batch.bin"
    save_tabular(gen_synthetic(BENCH_SPEC), bench_path)
    write_cifar_batch(batch_path)
    search = SearchConfig(pop_size=2, tournament_size=2, cycles=3, gen_size=2, seed=5)
    cfg = ExperimentConfig(search=search, benchmark=bench_path, batch=batch_path, batch_count=20)
    first = emit_results(run_experiment(cfg), tmp_path / "first")
    echo = json.loads(json.dumps(_config_echo(cfg)))
    assert (echo["benchmark"], echo["batch"]) == (str(bench_path), str(batch_path))
    again = emit_results(run_experiment(config_from_doc(echo)), tmp_path / "again")
    assert [path.read_bytes() for path in first] == [path.read_bytes() for path in again]


def test_guided_without_proxy_source_fails():
    bench = gen_synthetic(BENCH_SPEC)
    bench.synthetic_proxy = None
    with pytest.raises(ConfigError):
        run_experiment(small_config(benchmark=bench))


def test_config_doc_round_trips_through_json():
    from evonas.experiment import _config_echo, config_from_doc
    from evonas.tensornet import SkeletonConfig

    cfg = ExperimentConfig(
        method="rea", search=SMALL_SEARCH, benchmark=BENCH_SPEC,
        batch=SyntheticBatchSpec(num_classes=3, samples_per_class=2, image_shape=(2, 8, 8)),
        batch_count=7, skeleton=SkeletonConfig(input_hw=8), num_runs=2,
        sweep=(("removal_mode", ["oldest", "lowest"]), ("tournament_size", [2, 3])), out="x",
    )
    doc = json.loads(json.dumps(_config_echo(cfg)))
    assert doc["benchmark"] == {"synthetic": dataclasses.asdict(BENCH_SPEC)}
    assert config_from_doc(doc) == cfg
    assert config_from_doc({"config": doc, "rows": [], "runs": [], "tool_version": "x"}) == cfg  # a summary.json
    # a later document's keys win, a search object's key by key
    assert config_from_doc(doc, {"num_runs": 3, "search": {"seed": 9}}) == dataclasses.replace(
        cfg, num_runs=3, search=dataclasses.replace(cfg.search, seed=9))


def test_config_doc_defaults_and_unknown_keys():
    from evonas.experiment import config_from_doc

    cfg = config_from_doc({"benchmark": "bench.json"})
    assert cfg == ExperimentConfig(benchmark="bench.json")
    for doc in (
        {"benchmark": "bench.json", "num_run": 3},
        {"benchmark": "bench.json", "search": {"popsize": 3}},
        {"benchmark": {"synthetic": {"seed": 1, "tau": 0.5}}},
        {"benchmark": {"path": "bench.json", "synthetic": {"seed": 1}}},
        ["benchmark", "bench.json"],
        # keys and spellings this document no longer has
        {"benchmark": {"path": "bench.json"}},
        {"benchmark": "bench.json", "batch": {"path": "x.bin"}},
        {"benchmark": "bench.json", "batch": {"raw": {"path": "x.bin", "count": 20}}},
        {"benchmark": "bench.json", "proxy": {"tau": 0.5}},
        {"benchmark": "bench.json", "search": {"budget_counts_init": False}},
        {"benchmark": "bench.json", "search": {"proxy_cost_s": 0.1}},
        {"benchmark": {"synthetic": {"seed": 1, "test_noise_std": 0.5}}},
        {"benchmark": "bench.json", "batch": {"synthetic": {"noise_scale": 0.1}}},
    ):
        with pytest.raises(ConfigError):
            config_from_doc(doc)


def test_config_doc_raw_batch_form():
    from evonas.experiment import config_from_doc

    # a raw batch is its file path; batch_count says how many records it reads
    cfg = config_from_doc({"benchmark": "b.json", "batch": "x.bin", "batch_count": 20})
    assert (cfg.batch, cfg.batch_count) == ("x.bin", 20)
    assert config_from_doc({"benchmark": "b.json", "batch": "x.bin"}).batch_count == ExperimentConfig.batch_count


@pytest.mark.parametrize("param, values", [("seed", [1, 2]), ("guided", [True, False])])
def test_run_fields_are_not_sweepable(param, values):
    with pytest.raises(ConfigError, match=param):
        ExperimentConfig(benchmark=BENCH_SPEC, sweep=((param, values),))


@pytest.mark.parametrize("method, param, values", [
    ("rs", "pop_size", [3, 5]),
    ("rs", "tournament_size", [1, 3]),
    ("rs", "removal_mode", ["oldest", "highest"]),
    ("rs", "parent_mode", ["tournament", "lowest"]),
    ("rea", "gen_size", [2, 7]),
    ("rea", "init_candidates", [4, 9]),
    ("rea", "tournament_size", [3, 3]),
    ("gea", "gen_size", [None, 4]),  # null resolves to pop_size 4
    ("gea", "cycles", [12, 12]),
])
def test_sweep_of_equal_searches_fails(method, param, values):
    # a field the method decides or never reads would run identical points
    with pytest.raises(ConfigError, match=f"{param}.*{method}"):
        small_config(method=method, sweep=((param, values),))


@pytest.mark.parametrize("doc, name", [
    ('{"search": {"pop_size": 4.0}}', "pop_size"),
    ('{"search": {"pop_size": true}}', "pop_size"),
    ('{"search": {"cycles": "12"}}', "cycles"),
    ('{"search": {"seed": 1.5}}', "seed"),
    ('{"num_runs": true}', "num_runs"),
    ('{"batch_count": 8.0}', "batch_count"),
    ('{"batch_count": 1}', "batch_count"),
    ('{"benchmark": {"synthetic": {"seed": 1.5}}}', "seed"),
    ('{"benchmark": {"synthetic": {"seed": true}}}', "seed"),
    ('{"benchmark": {"synthetic": {"seed": 1, "target_proxy_tau": "0.5"}}}', "target_proxy_tau"),
    ('{"benchmark": {"synthetic": {"seed": 1, "noise_std": NaN}}}', "noise_std"),
    ('{"skeleton": {"stem_channels": 4.0}}', "stem_channels"),
    ('{"skeleton": {"bn_eps": -1.0}}', "bn_eps"),  # a negative eps makes most scorings NaN
    ('{"batch": {"synthetic": {"num_classes": 2.0}}}', "num_classes"),
    ('{"out": 5}', "out"),
    # a raw batch is a path, not an object
    ('{"batch": {"raw": {"count": 3}}}', "batch"),
    ('{"batch": {"raw": "x.bin"}}', "batch"),
    ('{"batch": {"raw": {"path": "x.bin", "size": 3}}}', "batch"),
    ('{"batch": {"synthetic": {"image_shape": [3, 16.0, 16]}}}', "image_shape"),
    ('{"batch": {"synthetic": {"image_shape": [3, true, 16]}}}', "image_shape"),
    ('{"batch": 5}', "batch"),
    ('{"benchmark": 5}', "benchmark"),
])
def test_config_doc_counts_must_be_integers(doc, name):
    from evonas.experiment import config_from_doc

    with pytest.raises(ConfigError, match=rf"^{name}\b"):
        config_from_doc({"benchmark": "bench.json", **json.loads(doc)})


@pytest.mark.parametrize("sweep", [
    [["pop_size", "3,4"]], [["pop_size", 3]], [["pop_size"]], [[3, [1, 2]]], ["pop_size"],
    "pop_size", {"pop_size": [3, 4]}, 3,
])
def test_config_doc_sweep_entries_are_field_and_values(sweep):
    from evonas.experiment import config_from_doc

    with pytest.raises(ConfigError, match="sweep"):
        config_from_doc({"benchmark": "bench.json", "sweep": sweep})
    cfg = config_from_doc({"benchmark": "bench.json", "sweep": [["pop_size", [3, 4]]]})
    assert cfg.sweep == (("pop_size", [3, 4]),)


def test_sweep_changes_one_field_at_a_time():
    # base gen_size and init_candidates resolve to pop_size=4 and cycles=20; a
    # swept cycles=10 point keeps both, as summary.json echoes them
    base = SearchConfig(pop_size=4, tournament_size=2, cycles=20, seed=3)
    result = run_experiment(small_config(search=base, num_runs=1, sweep=(("cycles", [10]),)))
    run = result.runs[0]
    assert run.n_proxy_evals == 20 + (10 - 4) * 4
    assert len(run.curve) == 1 + (10 - 4)


def test_bad_sweep_value_fails_before_any_search(monkeypatch):
    import evonas.experiment as experiment

    calls = []
    monkeypatch.setattr(experiment, "run_search", lambda *a, **k: calls.append(a))
    with pytest.raises(ConfigError):
        run_experiment(small_config(num_runs=2, sweep=(("pop_size", [3, 4, 0]),)))
    assert calls == []


def test_batch_label_past_the_skeleton_classes_fails_before_any_search(monkeypatch):
    import evonas.experiment as experiment

    calls = []
    monkeypatch.setattr(experiment, "run_search", lambda *a, **k: calls.append(a))
    with pytest.raises(ConfigError, match=r"label 11 .* 10 classes"):
        run_experiment(small_config(num_runs=1, batch=SyntheticBatchSpec(num_classes=12)))
    assert calls == []


def test_non_square_batch_fails_before_any_search(monkeypatch):
    import evonas.experiment as experiment

    calls = []
    monkeypatch.setattr(experiment, "run_search", lambda *a, **k: calls.append(a))
    with pytest.raises(ConfigError, match=r"square.*\(3, 8, 4\)"):
        run_experiment(small_config(num_runs=1, batch=SyntheticBatchSpec(image_shape=(3, 8, 4))))
    assert calls == []
