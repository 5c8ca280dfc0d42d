import json
from dataclasses import replace

import numpy as np
import pytest

from evonas.batches import SyntheticBatchSpec, load_raw_batch, make_batch
from evonas.cellspace import decode_str, encode_str
from evonas.cli import main
from evonas.evolution import SearchConfig, method_config, run_search, score_stream
from evonas.experiment import config_from_doc, emit_results, load_batch, run_experiment
from evonas.oracle import SyntheticSpec, gen_synthetic, load_tabular, save_tabular
from evonas.rng import RngStream
from evonas.tensornet import SkeletonConfig
from evonas.zeroproxy import ProxyParams, score_arch


@pytest.fixture(scope="module")
def bench_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("bench") / "bench.json"
    save_tabular(
        gen_synthetic(SyntheticSpec(seed=41, noise_std=1.0, target_proxy_tau=0.7,
                                    interaction_scale=0.3)),
        path,
    )
    return path


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_bench_gen(tmp_path, capsys):
    out = tmp_path / "bench.json"
    code, stdout, _ = run_cli(
        capsys, "bench", "gen", "--seed", "3", "--tau", "0.8", "--out", str(out)
    )
    assert code == 0
    doc = json.loads(stdout)
    assert doc["architectures"] == 15625
    assert 0.75 <= doc["measured_tau"] <= 0.85
    assert out.exists()


def test_search_with_flags(tmp_path, bench_file, capsys):
    out_dir = tmp_path / "results"
    code, stdout, _ = run_cli(
        capsys,
        "search", "--method", "gea", "--benchmark", str(bench_file),
        "--pop-size", "4", "--tournament", "2", "--cycles", "10", "--gen-size", "3",
        "--seed", "5", "--runs", "2", "--out", str(out_dir),
    )
    assert code == 0
    doc = json.loads(stdout)
    assert (out_dir / "curves.csv").exists()
    assert (out_dir / "summary.json").exists()
    assert doc["rows"][0]["label"] == "gea"
    summary = json.loads((out_dir / "summary.json").read_text())
    assert summary["config"]["search"]["pop_size"] == 4
    assert summary["config"]["search"]["init_candidates"] == 10  # defaults to cycles
    assert len(summary["runs"]) == 2


def test_config_file_and_flag_precedence(tmp_path, bench_file, capsys):
    cfg = {
        "method": "rea",
        "num_runs": 1,
        "search": {"pop_size": 3, "tournament_size": 2, "cycles": 8, "seed": 9},
        "benchmark": str(bench_file),
        "out": str(tmp_path / "from_file"),
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    # flag overrides the file's cycles and out, file supplies the rest
    out_dir = tmp_path / "flagged"
    code, stdout, _ = run_cli(
        capsys, "search", "--config", str(cfg_path), "--cycles", "6", "--out", str(out_dir)
    )
    assert code == 0
    summary = json.loads((out_dir / "summary.json").read_text())
    assert summary["config"]["method"] == "rea"
    assert summary["config"]["search"]["cycles"] == 6
    assert summary["config"]["search"]["pop_size"] == 3


def test_ablate_sweep(tmp_path, bench_file, capsys):
    out_dir = tmp_path / "ablate"
    code, stdout, _ = run_cli(
        capsys,
        "ablate", "--benchmark", str(bench_file),
        "--pop-size", "3", "--tournament", "2", "--cycles", "8", "--gen-size", "2",
        "--runs", "1", "--out", str(out_dir),
        "--sweep", "removal_mode=oldest,highest,lowest",
    )
    assert code == 0
    doc = json.loads(stdout)
    assert [r["label"] for r in doc["rows"]] == [
        "gea:removal_mode=oldest",
        "gea:removal_mode=highest",
        "gea:removal_mode=lowest",
    ]


def test_score_command(capsys):
    arch = "|nor_conv_3x3~0|+|skip_connect~0|none~1|+|skip_connect~0|nor_conv_1x1~1|avg_pool_3x3~2|"
    code, stdout, _ = run_cli(capsys, "score", arch, "--seed", "3")
    assert code == 0
    doc = json.loads(stdout)
    assert doc["arch"] == arch
    assert isinstance(doc["score"], float)


def test_score_sentinel(capsys):
    arch = "|none~0|+|none~0|none~1|+|none~0|none~1|none~2|"
    code, stdout, _ = run_cli(capsys, "score", arch)
    assert code == 0
    assert json.loads(stdout)["score"] == "sentinel"


def write_cifar_batch(path, count=20):
    """CIFAR-10-layout records: a label byte, then 3072 pixel bytes; each class twice."""
    records = np.random.default_rng(0).integers(0, 256, size=(count, 3073), dtype=np.uint8)
    records[:, 0] = np.arange(count) % 10
    path.write_bytes(records.tobytes())


def test_raw_batch_runs_at_its_own_shape(tmp_path, bench_file, capsys):
    batch_file = tmp_path / "batch.bin"
    write_cifar_batch(batch_file)
    out_dir = tmp_path / "results"
    code, _, err = run_cli(
        capsys, "search", "--benchmark", str(bench_file), "--batch", str(batch_file),
        "--batch-count", "20", "--pop-size", "2", "--tournament", "2", "--cycles", "3",
        "--gen-size", "2", "--out", str(out_dir),
    )
    assert code == 0, err
    skeleton = json.loads((out_dir / "summary.json").read_text("utf-8"))["config"]["skeleton"]
    assert (skeleton["input_channels"], skeleton["input_hw"]) == (3, 32)

    arch = "|nor_conv_3x3~0|+|skip_connect~0|none~1|+|skip_connect~0|nor_conv_1x1~1|avg_pool_3x3~2|"
    code, stdout, _ = run_cli(capsys, "score", arch, "--batch", str(batch_file), "--batch-count", "20")
    assert code == 0
    batch, labels = load_raw_batch(batch_file, 20)
    expected = score_arch(decode_str(arch), batch, labels, SkeletonConfig(input_hw=32), ProxyParams(),
                          score_stream(RngStream(0), decode_str(arch)))
    doc = json.loads(stdout)
    assert not expected.is_sentinel
    assert (doc["score"], doc["per_class"]) == (expected.value, list(expected.per_class))


def test_score_command_repeats_a_runs_score(tmp_path, bench_file, capsys):
    """`score --seed S` prints the proxy value a run of seed S gave the arch on that batch."""
    batch_file = tmp_path / "batch.bin"
    write_cifar_batch(batch_file)
    batch, labels = load_raw_batch(batch_file, 20)
    skeleton = SkeletonConfig(input_hw=32)
    cfg = SearchConfig(pop_size=2, tournament_size=2, cycles=3, gen_size=2, seed=7)
    traj = run_search(cfg, load_tabular(bench_file),
                      lambda arch, stream: score_arch(arch, batch, labels, skeleton, ProxyParams(), stream))
    for event in (traj.events[0], traj.events[-1]):  # an initial candidate and a child
        code, stdout, _ = run_cli(capsys, "score", encode_str(event.arch), "--batch", str(batch_file),
                                  "--batch-count", "20", "--seed", "7")
        assert code == 0
        assert json.loads(stdout)["score"] == event.proxy_value


def test_score_command_repeats_a_runs_score_on_the_default_batch(bench_file, capsys):
    """Without --batch, `score --seed S` scores on the default synthetic batch, as a run of seed S does."""
    batch, labels = make_batch(SyntheticBatchSpec())
    cfg = SearchConfig(pop_size=2, tournament_size=2, cycles=3, gen_size=2, seed=5)
    traj = run_search(cfg, load_tabular(bench_file),
                      lambda arch, stream: score_arch(arch, batch, labels, SkeletonConfig(), ProxyParams(), stream))
    for event in (traj.events[0], traj.events[-1]):  # an initial candidate and a child
        code, stdout, _ = run_cli(capsys, "score", encode_str(event.arch), "--seed", "5")
        assert code == 0
        assert json.loads(stdout)["score"] == event.proxy_value


def test_stats_ttest_and_tau(tmp_path, bench_file, capsys):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    for method, out in (("gea", out_a), ("rea", out_b)):
        code, _, _ = run_cli(
            capsys,
            "search", "--method", method, "--benchmark", str(bench_file),
            "--pop-size", "3", "--tournament", "2", "--cycles", "8",
            "--seed", "1", "--runs", "3", "--out", str(out),
        )
        assert code == 0
    code, stdout, _ = run_cli(
        capsys, "stats", "ttest", str(out_a / "summary.json"), str(out_b / "summary.json")
    )
    assert code == 0
    doc = json.loads(stdout)
    assert doc["n_a"] == doc["n_b"] == 3
    assert 0.0 <= doc["p"] <= 1.0

    code, stdout, _ = run_cli(
        capsys, "stats", "tau", str(out_a / "curves.csv"), "cycle", "best_so_far"
    )
    assert code == 0
    assert -1.0 <= json.loads(stdout)["tau"] <= 1.0

    # a constant column or a NaN entry has no tau: strict JSON null, not NaN
    def strict(text):
        return json.loads(text, parse_constant=lambda name: pytest.fail(f"{name} is not JSON"))

    for body in ("1,2\n1,3\n1,4\n", "1,2\n2,nan\n3,4\n"):
        path = tmp_path / "tau.csv"
        path.write_text("a,b\n" + body, encoding="utf-8")
        code, stdout, _ = run_cli(capsys, "stats", "tau", str(path), "a", "b")
        assert code == 0 and strict(stdout) == {"n": 3, "tau": None}

    # a header-only file has both columns but no rows
    path.write_text("a,b\n", encoding="utf-8")
    code, _, err = run_cli(capsys, "stats", "tau", str(path), "a", "b")
    assert code == 1 and json.loads(err)["message"] == f"{path} has no rows"

    # nor has a t-test over a run whose final val_acc is NaN
    doc = json.loads((out_a / "summary.json").read_text("utf-8"))
    doc["runs"] = doc["runs"][:2]
    doc["runs"][1]["final_val_acc"] = float("nan")
    path = tmp_path / "nan_summary.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, stdout, _ = run_cli(capsys, "stats", "ttest", str(path), str(path))
    assert code == 0 and strict(stdout) == {"n_a": 2, "n_b": 2, "p": None, "t": None}


def test_error_is_machine_readable(tmp_path, capsys):
    code, stdout, stderr = run_cli(
        capsys, "search", "--benchmark", str(tmp_path / "missing.json")
    )
    assert code == 1
    assert stdout == ""
    err = json.loads(stderr.strip())
    assert err["error"]
    assert "missing.json" in err["message"]


def test_unknown_arch_string_error(capsys):
    code, _, stderr = run_cli(capsys, "score", "|bogus~0|+|none~0|none~1|+|none~0|none~1|none~2|")
    assert code == 1
    assert "field 1 is 'bogus~0'" in json.loads(stderr.strip())["message"]


def small_config_doc(out):
    return {
        "search": {"pop_size": 3, "tournament_size": 2, "cycles": 6, "gen_size": 2, "seed": 4},
        "benchmark": {"synthetic": {"seed": 41, "noise_std": 1.0, "target_proxy_tau": 0.7}},
        "batch": {"synthetic": {"num_classes": 3, "samples_per_class": 2, "image_shape": [2, 8, 8]}},
        "skeleton": {"stem_channels": 4, "num_classes": 3},
        "num_runs": 2,
        "out": str(out),
    }


@pytest.mark.parametrize("method", ["gea", "rea", "rs"])
def test_summary_config_reruns_identically(tmp_path, capsys, method):
    first, second, third = tmp_path / "first", tmp_path / "second", tmp_path / "third"
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({**small_config_doc(first), "method": method}))
    code, _, err = run_cli(capsys, "search", "--config", str(cfg_path))
    assert code == 0, err
    summary = json.loads((first / "summary.json").read_text("utf-8"))
    assert summary["config"]["batch"]["synthetic"]["image_shape"] == [2, 8, 8]
    echo_path = tmp_path / "echo.json"
    echo_path.write_text(json.dumps(summary["config"]))
    code, _, err = run_cli(capsys, "search", "--config", str(echo_path), "--out", str(second))
    assert code == 0, err
    assert (first / "curves.csv").read_bytes() == (second / "curves.csv").read_bytes()
    rerun = json.loads((second / "summary.json").read_text("utf-8"))
    assert rerun["config"].pop("out") == str(second)
    summary["config"].pop("out")
    assert rerun == summary
    # the summary.json itself reads as its config block
    code, _, err = run_cli(capsys, "search", "--config", str(first / "summary.json"), "--out", str(third))
    assert code == 0, err
    assert (first / "curves.csv").read_bytes() == (third / "curves.csv").read_bytes()


def test_in_memory_benchmark_summary_reruns_with_its_file(tmp_path, capsys):
    """A summary echoes a Benchmark object as "<in-memory>", which names no file:
    its rerun fails as a ConfigError naming --benchmark, and with the saved benchmark
    given there it writes the same curves."""
    cfg = config_from_doc(small_config_doc(tmp_path / "first"))
    bench = gen_synthetic(cfg.benchmark)
    emit_results(run_experiment(replace(cfg, benchmark=bench)))
    summary = tmp_path / "first" / "summary.json"
    assert json.loads(summary.read_text("utf-8"))["config"]["benchmark"] == "<in-memory>"
    err = config_error(capsys, "search", "--config", str(summary), "--out", str(tmp_path / "again"))
    assert err["error"] == "ConfigError" and "--benchmark" in err["message"]
    bench_path = tmp_path / "bench.json"
    save_tabular(bench, bench_path)
    code, _, err = run_cli(capsys, "search", "--config", str(summary), "--benchmark", str(bench_path),
                           "--out", str(tmp_path / "again"))
    assert code == 0, err
    assert (tmp_path / "first" / "curves.csv").read_bytes() == (tmp_path / "again" / "curves.csv").read_bytes()


def config_error(capsys, *argv):
    code, stdout, stderr = run_cli(capsys, *argv)
    assert (code, stdout) == (1, "")
    return json.loads(stderr.strip())


@pytest.mark.parametrize("with_batch", [False, True])
@pytest.mark.parametrize("count", ["1", "0"])
def test_score_batch_count_below_two_fails(tmp_path, capsys, with_batch, count):
    batch_file = tmp_path / "batch.bin"
    write_cifar_batch(batch_file, count=4)
    source = ("--batch", str(batch_file)) if with_batch else ()
    arch = "|nor_conv_3x3~0|+|skip_connect~0|none~1|+|skip_connect~0|nor_conv_1x1~1|avg_pool_3x3~2|"
    err = config_error(capsys, "score", arch, *source, "--batch-count", count)
    assert err["error"] == "ConfigError"
    assert "batch_count" in err["message"]


def test_unknown_config_key_fails(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    doc = small_config_doc(tmp_path / "r")
    for key, bad in (("num_run", {**doc, "num_run": 3}), ("proxy", {**doc, "proxy": {}}),
                     ("budget_counts_init", {**doc, "search": {**doc["search"], "budget_counts_init": False}})):
        cfg_path.write_text(json.dumps(bad))
        err = config_error(capsys, "search", "--config", str(cfg_path))
        assert err["error"] == "ConfigError"
        assert key in err["message"]
    assert not (tmp_path / "r").exists()


def test_search_flags_over_a_non_object_search_block_fail(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({**small_config_doc(tmp_path / "r"), "search": 5}))
    for flags in ((), ("--cycles", "6")):
        err = config_error(capsys, "search", "--config", str(cfg_path), *flags)
        assert (err["error"], err["message"]) == ("ConfigError", "search must be an object, got 5")
    assert not (tmp_path / "r").exists()


def test_non_integer_skeleton_count_fails_before_any_output(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    doc = small_config_doc(tmp_path / "r")
    cfg_path.write_text(json.dumps({**doc, "skeleton": {**doc["skeleton"], "stem_channels": 4.0}}))
    err = config_error(capsys, "search", "--config", str(cfg_path))
    assert err["error"] == "ConfigError"
    assert "stem_channels" in err["message"]
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("sweep", ["seed=1,2", "guided=true", "budget_counts_init=False"])
def test_misconfigured_sweep_fails(tmp_path, bench_file, capsys, sweep):
    err = config_error(
        capsys, "ablate", "--benchmark", str(bench_file), "--pop-size", "3", "--tournament", "2",
        "--cycles", "6", "--out", str(tmp_path / "r"), "--sweep", sweep,
    )
    assert err["error"] == "ConfigError"
    assert sweep.split("=")[0] in err["message"]


def test_sweep_tokens_are_json_values(tmp_path, bench_file, capsys):
    code, stdout, err = run_cli(
        capsys, "ablate", "--benchmark", str(bench_file), "--pop-size", "3", "--tournament", "2",
        "--cycles", "6", "--out", str(tmp_path / "r"), "--sweep", "gen_size=null,2",
    )
    assert code == 0, err
    default, two = json.loads(stdout)["rows"]
    assert (default["label"], two["label"]) == ("gea:gen_size=null", "gea:gen_size=2")
    # null is the default gen_size, pop_size 3: 6 initial candidates, then 3 cycles of 3 or 2 children
    runs = json.loads((tmp_path / "r" / "summary.json").read_text("utf-8"))["runs"]
    assert [run["n_proxy_evals"] for run in runs] == [6 + 3 * 3, 6 + 3 * 2]


def test_raw_batch_config_form_runs(tmp_path, bench_file, capsys):
    batch_file = tmp_path / "batch.bin"
    write_cifar_batch(batch_file)
    out_dir = tmp_path / "results"
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "search": {"pop_size": 2, "tournament_size": 2, "cycles": 3, "gen_size": 2},
        "benchmark": str(bench_file),
        "batch": str(batch_file),
        "batch_count": 20,
        "out": str(out_dir),
    }))
    code, _, err = run_cli(capsys, "search", "--config", str(cfg_path))
    assert code == 0, err
    config = json.loads((out_dir / "summary.json").read_text("utf-8"))["config"]
    assert (config["batch"], config["batch_count"]) == (str(batch_file), 20)
    assert (config["skeleton"]["input_channels"], config["skeleton"]["input_hw"]) == (3, 32)


def test_score_command_repeats_a_runs_score_from_its_summary(tmp_path, capsys):
    """`score --config summary.json --seed S` scores at that run's own skeleton and batch."""
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(small_config_doc(tmp_path / "run")))
    code, _, err = run_cli(capsys, "search", "--config", str(cfg_path))
    assert code == 0, err
    summary_path = tmp_path / "run" / "summary.json"
    summary = json.loads(summary_path.read_text("utf-8"))
    cfg = config_from_doc(summary["config"])
    assert cfg.skeleton.stem_channels == 4  # not the default skeleton
    run = summary["runs"][1]
    batch, labels, skeleton = load_batch(cfg.batch, cfg.batch_count, cfg.skeleton)
    traj = run_search(method_config(cfg.method, cfg.search, seed=run["seed"]), gen_synthetic(cfg.benchmark),
                      lambda arch, stream: score_arch(arch, batch, labels, skeleton, ProxyParams(), stream))
    assert (encode_str(traj.best.arch), traj.best.fitness) == (run["final_arch"], run["final_val_acc"])
    events = [e for e in traj.events if np.isfinite(e.proxy_value)]
    for event in (events[0], events[-1]):
        for config in (summary_path, cfg_path):  # a summary.json, or the experiment document itself
            code, stdout, err = run_cli(capsys, "score", encode_str(event.arch), "--config", str(config),
                                        "--seed", str(run["seed"]))
            assert code == 0, err
            assert json.loads(stdout)["score"] == event.proxy_value


@pytest.mark.parametrize("flag", [("--batch", "b.bin"), ("--batch-count", "8")])
def test_score_config_excludes_batch_flags(tmp_path, capsys, flag):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(small_config_doc(tmp_path / "run")))
    arch = "|nor_conv_3x3~0|+|skip_connect~0|none~1|+|skip_connect~0|nor_conv_1x1~1|avg_pool_3x3~2|"
    err = config_error(capsys, "score", arch, "--config", str(cfg_path), *flag)
    assert err["error"] == "ConfigError"
    assert "--config" in err["message"]


def test_score_config_with_a_non_square_batch_fails(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    doc = small_config_doc(tmp_path / "run")
    doc["batch"]["synthetic"]["image_shape"] = [2, 8, 4]
    cfg_path.write_text(json.dumps(doc))
    arch = "|nor_conv_3x3~0|+|skip_connect~0|none~1|+|skip_connect~0|nor_conv_1x1~1|avg_pool_3x3~2|"
    err = config_error(capsys, "score", arch, "--config", str(cfg_path))
    assert err["error"] == "ConfigError"
    assert "(2, 8, 4)" in err["message"]


def test_score_config_without_a_batch_fails(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    doc = small_config_doc(tmp_path / "run")
    del doc["batch"]
    cfg_path.write_text(json.dumps(doc))
    arch = "|nor_conv_3x3~0|+|skip_connect~0|none~1|+|skip_connect~0|nor_conv_1x1~1|avg_pool_3x3~2|"
    err = config_error(capsys, "score", arch, "--config", str(cfg_path))
    assert err["error"] == "ConfigError"
    assert "proxy map" in err["message"]
