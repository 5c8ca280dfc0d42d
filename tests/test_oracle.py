import hashlib
import json
import operator
import random
import re
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from evonas.cellspace import ArchEncoding, OpKind, encode_str, enumerate_all, random_arch
from evonas.evolution import SearchConfig, run_search
from evonas import oracle
from evonas.oracle import (
    Benchmark,
    BenchmarkError,
    FitnessRecord,
    SyntheticSpec,
    best_of,
    gen_synthetic,
    load_tabular,
    query,
    save_tabular,
)
from evonas.rng import RngStream
from evonas.stats import TauAgainst, kendall_tau
from evonas.zeroproxy import ProxyScore
from evonas.cellspace import NUM_EDGES, NUM_NODES, OP_NAMES, SPACE_SIZE, space_doc


def constant_benchmark(val=50.0):
    full = np.full(SPACE_SIZE, val)
    return Benchmark(dataset_name="const", val_acc=full, test_acc=full, train_time_s=np.ones(SPACE_SIZE))


def assert_benchmarks_equal(a, b):
    assert a.dataset_name == b.dataset_name
    for name in ("val_acc", "test_acc", "train_time_s", "synthetic_proxy"):
        x, y = getattr(a, name), getattr(b, name)
        assert (x is None) == (y is None), name
        if x is not None:
            assert np.array_equal(x, y), name


def test_benchmark_validation(tmp_path):
    bad_arch = ArchEncoding.from_index(1234)
    for field, bad in (("val_acc", 101.0), ("val_acc", float("nan")), ("train_time_s", -1.0)):
        columns = {name: np.full(SPACE_SIZE, 50.0) for name in ("val_acc", "test_acc", "train_time_s")}
        columns[field][operator.index(bad_arch)] = bad
        with pytest.raises(BenchmarkError, match=re.escape(str(bad_arch))):
            Benchmark(dataset_name="x", **columns)

        path = tmp_path / "bench.json"
        save_tabular(constant_benchmark(), path)
        doc = json.loads(path.read_text())
        row = doc["records"][operator.index(bad_arch)]
        assert row["arch"] == str(bad_arch)
        row[field] = bad
        path.write_text(json.dumps(doc))
        with pytest.raises(BenchmarkError, match=re.escape(str(bad_arch))):
            load_tabular(path)


def test_benchmark_must_be_total():
    ones = np.ones(100)
    with pytest.raises(BenchmarkError):
        Benchmark(dataset_name="x", val_acc=ones, test_acc=ones, train_time_s=ones)


def test_synthetic_spec_validation():
    with pytest.raises(ValueError):
        SyntheticSpec(seed=0, noise_std=-1.0)
    with pytest.raises(ValueError):
        SyntheticSpec(seed=0, target_proxy_tau=1.5)


def test_gen_synthetic_deterministic():
    spec = SyntheticSpec(seed=3, noise_std=1.0, target_proxy_tau=0.7, interaction_scale=0.2)
    a = gen_synthetic(spec)
    b = gen_synthetic(spec)
    assert a.dataset_name == b.dataset_name
    probe = list(enumerate_all())[::1000]
    for arch in probe:
        assert query(a, arch) == query(b, arch)
        assert a.synthetic_proxy[arch] == b.synthetic_proxy[arch]


def test_separable_landscape_optimum_is_per_edge_argmax():
    spec = SyntheticSpec(seed=9, noise_std=0.0, target_proxy_tau=1.0, interaction_scale=0.0)
    bench = gen_synthetic(spec)
    # re-derive the per-edge utilities from the documented stream layout
    utils = RngStream(9, ("synthetic-benchmark",)).child("edge-utils").normal(
        size=(NUM_EDGES, len(OpKind))
    )
    expected = ArchEncoding(tuple(OpKind(int(i)) for i in utils.argmax(axis=1)))
    arch, record = best_of(bench)
    assert arch == expected
    assert record.val_acc == 100.0


def test_target_tau_one_is_exact():
    bench = gen_synthetic(SyntheticSpec(seed=4, target_proxy_tau=1.0))
    assert kendall_tau(bench.synthetic_proxy, bench.val_acc) > 1.0 - 1e-12


def test_target_tau_calibration():
    bench = gen_synthetic(
        SyntheticSpec(seed=5, noise_std=2.0, target_proxy_tau=0.6, interaction_scale=0.5)
    )
    assert 0.55 <= kendall_tau(bench.synthetic_proxy, bench.val_acc) <= 0.65


def test_target_tau_negative():
    bench = gen_synthetic(SyntheticSpec(seed=6, target_proxy_tau=-0.5))
    assert -0.55 <= kendall_tau(bench.synthetic_proxy, bench.val_acc) <= -0.45


@pytest.fixture
def calibration_spy(monkeypatch):
    """Records every x `_calibrate_proxy` measures with its tau, and which
    count ran: "incremental", or "tied" (a full count of an x with ties)."""
    log = SimpleNamespace(measured=[], paths=[])

    class Spy(TauAgainst):
        def __call__(self, x):
            got = super().__call__(x)
            log.measured.append((np.array(x), got))
            return got

        def _recount(self, x):
            done = super()._recount(x)
            if done:
                log.paths.append("incremental")
            return done

        def _count(self, x):
            ties = super()._count(x)
            if ties[0]:
                log.paths.append("tied")
            return ties

    monkeypatch.setattr(oracle, "TauAgainst", Spy)
    return log


def assert_exact_taus(measured, val):
    for x, got in measured:
        want = kendall_tau(x, val)
        assert got == want or (np.isnan(got) and np.isnan(want))


def test_calibration_measures_exact_tau_on_landscape(calibration_spy):
    bench = gen_synthetic(SyntheticSpec(seed=1, noise_std=2.0, target_proxy_tau=0.6, interaction_scale=0.5))
    assert len(calibration_spy.measured) > 40
    assert "incremental" in calibration_spy.paths
    assert_exact_taus(calibration_spy.measured, bench.val_acc)


def test_calibration_measures_exact_tau_with_ties(calibration_spy):
    # distinct integer fitness and integer noise: base + amp*eta ties at the
    # early, coarse amplitudes and not at the late bisection steps, so both
    # full counts of tied x and incremental ones run
    rng = np.random.default_rng(0)
    val = rng.permutation(2049).astype(float)
    eta = rng.integers(-3, 4, size=val.size).astype(float)
    proxy = oracle._calibrate_proxy(val, eta, 0.5)
    assert {"tied", "incremental"} <= set(calibration_spy.paths)
    assert_exact_taus(calibration_spy.measured, val)
    assert abs(kendall_tau(proxy, val) - 0.5) <= 0.05


def test_calibration_near_the_asymptote_skips_bisection(calibration_spy):
    # a target near tau's large-amplitude asymptote is met, within 0.04, by
    # an amplitude the doubling reaches: that one is taken as it is
    bench = gen_synthetic(SyntheticSpec(seed=7, target_proxy_tau=0.0))
    x, got = calibration_spy.measured[-1]
    assert len(calibration_spy.measured) < 10 and abs(got) <= 0.04
    assert np.array_equal(x, bench.synthetic_proxy)


# sha256 of the synthetic_proxy bytes, computed when kendall_tau was still
# scipy.stats.kendalltau: calibration bisects on exact tau values, so any
# drift in the tau moves these maps
PROXY_MAP_SHA256 = [
    pytest.param(dict(seed=1, noise_std=2.0, target_proxy_tau=0.6, interaction_scale=0.5),
                 "5118ebaba20af4361a374cc43c22e0c769195a1c61e040ea25a3235df5af48e7", id="tau0.6"),
    pytest.param(dict(seed=7, target_proxy_tau=0.0),
                 "389ef1959bc645a19b47dd0792fb59870d57b040f38c90ce982a6c03f3272d10", id="tau0"),
    pytest.param(dict(seed=3, noise_std=1.0, target_proxy_tau=-0.4, interaction_scale=0.25),
                 "763dd9cbf4dc0ab0e23c6e8f77ebec2942f016203603991dc194bceaa3a70ad4", id="tau-0.4"),
    pytest.param(dict(seed=5, target_proxy_tau=1.0),
                 "ecdb89892dcba7ee43b07b4e4add76e06a2892bb82d8f5ce99fab18634b7ec53", id="tau1"),
    pytest.param(dict(seed=11, noise_std=0.5, target_proxy_tau=0.3),
                 "49dd418f61b8e81c1aeb1a3ccb1e279b65980684cc31545090273b6bbdcbe47e", id="tau0.3"),
]


@pytest.mark.parametrize("spec,digest", PROXY_MAP_SHA256)
def test_proxy_map_is_pinned(spec, digest):
    proxy = gen_synthetic(SyntheticSpec(**spec)).synthetic_proxy
    assert proxy.dtype == np.float64 and proxy.shape == (SPACE_SIZE,)
    assert hashlib.sha256(proxy.tobytes()).hexdigest() == digest


def test_accuracies_in_range():
    bench = gen_synthetic(SyntheticSpec(seed=7, noise_std=3.0, interaction_scale=1.0))
    vals, tests, times = bench.val_acc, bench.test_acc, bench.train_time_s
    assert vals.min() == 0.0 and vals.max() == 100.0
    assert tests.min() >= 0.0 and tests.max() <= 100.0
    assert np.all((times >= 5.0) & (times <= 15.0))


def test_query_is_pure_lookup():
    bench = gen_synthetic(SyntheticSpec(seed=8))
    arch = random_arch(RngStream(1))
    assert query(bench, arch) == query(bench, arch)
    k = operator.index(arch)
    record = query(bench, arch)
    assert record == FitnessRecord(bench.val_acc[k], bench.test_acc[k], bench.train_time_s[k])
    assert all(type(x) is float for x in (record.val_acc, record.test_acc, record.train_time_s))


@pytest.mark.parametrize("k", [-1, SPACE_SIZE])
def test_query_rejects_an_index_outside_the_space(k):
    bench = gen_synthetic(SyntheticSpec(seed=8))
    with pytest.raises(IndexError, match=f"no genotype {k}:"):
        query(bench, k)


def test_best_of_beats_random_sample():
    bench = gen_synthetic(SyntheticSpec(seed=10, noise_std=1.0))
    _, record = best_of(bench)
    stream = RngStream(2)
    for _ in range(1000):
        assert record.val_acc >= query(bench, random_arch(stream)).val_acc


def test_best_of_constant_landscape_lexicographic_tiebreak():
    arch, _ = best_of(constant_benchmark())
    assert arch == ArchEncoding((OpKind.ZEROIZE,) * 6)


def test_save_load_roundtrip(tmp_path):
    bench = gen_synthetic(SyntheticSpec(seed=11, noise_std=0.5, target_proxy_tau=0.8))
    path = tmp_path / "bench.json"
    save_tabular(bench, path)
    loaded = load_tabular(path)
    assert_benchmarks_equal(loaded, bench)


def test_save_load_roundtrip_without_proxy(tmp_path):
    bench = constant_benchmark()
    path = tmp_path / "bench.json"
    save_tabular(bench, path)
    loaded = load_tabular(path)
    assert_benchmarks_equal(loaded, bench)
    assert loaded.synthetic_proxy is None


def test_load_rejects_incomplete(tmp_path):
    bench = constant_benchmark()
    path = tmp_path / "bench.json"
    save_tabular(bench, path)
    doc = json.loads(path.read_text())
    doc["records"] = doc["records"][:-1]  # 15624 records
    path.write_text(json.dumps(doc))
    with pytest.raises(BenchmarkError, match="incomplete"):
        load_tabular(path)


def test_load_rejects_duplicates(tmp_path):
    bench = constant_benchmark()
    path = tmp_path / "bench.json"
    save_tabular(bench, path)
    doc = json.loads(path.read_text())
    doc["records"][1] = doc["records"][0]
    path.write_text(json.dumps(doc))
    with pytest.raises(BenchmarkError, match="duplicate"):
        load_tabular(path)


def test_load_rejects_malformed_record(tmp_path):
    bench = constant_benchmark()
    path = tmp_path / "bench.json"
    save_tabular(bench, path)
    doc = json.loads(path.read_text())
    del doc["records"][0]["val_acc"]
    path.write_text(json.dumps(doc))
    with pytest.raises(BenchmarkError, match="record 0"):
        load_tabular(path)


@pytest.mark.parametrize("duplicate_at,malformed_at", [(1, 5), (7, 2)])
def test_load_reports_the_first_bad_record(duplicate_at, malformed_at, tmp_path):
    path = tmp_path / "bench.json"
    save_tabular(constant_benchmark(), path)
    doc = json.loads(path.read_text())
    doc["records"][duplicate_at] = dict(doc["records"][0])
    del doc["records"][malformed_at]["val_acc"]
    path.write_text(json.dumps(doc))
    if duplicate_at < malformed_at:
        message = f"{path}: duplicate arch string at record {duplicate_at}: {doc['records'][0]['arch']!r}"
    else:
        message = f"{path}: record {malformed_at} is malformed: 'val_acc'"
    with pytest.raises(BenchmarkError, match=f"^{re.escape(message)}$"):
        load_tabular(path)


def one_record(**values):
    """A benchmark document of one record, its values overridden by `values`."""
    record = {"arch": encode_str(ArchEncoding.from_index(0)), "val_acc": 1.0, "test_acc": 1.0, "train_time_s": 1.0}
    return {"space": space_doc(), "dataset": "d", "records": [{**record, **values}]}


@pytest.mark.parametrize(
    "doc,fragment",
    [
        (5, "a benchmark file is a JSON object, got int"),
        ("space dataset records", "a benchmark file is a JSON object, got str"),
        (None, "a benchmark file is a JSON object, got NoneType"),
        (["space", "dataset", "records"], "a benchmark file is a JSON object, got list"),
        ({"space": space_doc(), "dataset": "d", "records": 5}, "records must be a list, got int"),
        ({"space": space_doc(), "dataset": None, "records": []}, "dataset must be a string, got NoneType"),
        ({"space": space_doc(), "dataset": 5, "records": []}, "dataset must be a string, got int"),
        (one_record(val_acc=True), "record 0 is malformed: val_acc must be a number, got bool"),
        (one_record(val_acc="93.5"), "record 0 is malformed: val_acc must be a number, got str"),
        (one_record(train_time_s=None), "record 0 is malformed: train_time_s must be a number, got NoneType"),
        (one_record(proxy=False), "record 0 is malformed: proxy must be a number, got bool"),
        (one_record(test_acc=[1.0]), "record 0 is malformed: test_acc must be a number, got list"),
        (one_record(train_time_s=10**400), "record 0 is malformed: train_time_s must be a number, got an int past float range"),
    ],
)
def test_load_rejects_a_document_of_the_wrong_shape(doc, fragment, tmp_path):
    path = tmp_path / "bench.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(BenchmarkError, match=f"^{re.escape(f'{path}: {fragment}')}$"):
        load_tabular(path)


def test_load_takes_integer_values(tmp_path):
    path = tmp_path / "bench.json"
    save_tabular(constant_benchmark(), path)
    doc = json.loads(path.read_text())
    doc["records"][0].update(val_acc=50, test_acc=50, train_time_s=1)
    path.write_text(json.dumps(doc))
    assert_benchmarks_equal(load_tabular(path), constant_benchmark())


@pytest.mark.parametrize("arch", [5, None, ["|none~0|"], {"a": 1}])
def test_load_rejects_a_record_whose_arch_is_not_a_string(arch, tmp_path):
    path = tmp_path / "bench.json"
    save_tabular(constant_benchmark(), path)
    doc = json.loads(path.read_text())
    doc["records"][3]["arch"] = arch
    path.write_text(json.dumps(doc))
    with pytest.raises(BenchmarkError, match="record 3 is malformed: an architecture string must be a str"):
        load_tabular(path)


def test_load_rejects_a_record_with_a_non_canonical_arch_string(tmp_path):
    # `none~00` names genotype 0's first edge, but no writer spells it so
    path = tmp_path / "bench.json"
    save_tabular(constant_benchmark(), path)
    doc = json.loads(path.read_text())
    doc["records"][0]["arch"] = doc["records"][0]["arch"].replace("none~0", "none~00", 1)
    path.write_text(json.dumps(doc))
    with pytest.raises(BenchmarkError, match="record 0 is malformed: not an architecture string: .* 'none~00'"):
        load_tabular(path)


def test_load_rejects_bad_json_with_position(tmp_path):
    path = tmp_path / "bench.json"
    path.write_text('{"space": [broken')
    with pytest.raises(BenchmarkError, match="line 1"):
        load_tabular(path)


def test_load_rejects_wrong_space(tmp_path):
    bench = constant_benchmark()
    path = tmp_path / "bench.json"
    save_tabular(bench, path)
    doc = json.loads(path.read_text())
    doc["space"]["ops"] = ["a", "b"]
    path.write_text(json.dumps(doc))
    with pytest.raises(BenchmarkError, match="space"):
        load_tabular(path)


def test_simulated_times_loadable_and_positive(tmp_path):
    bench = gen_synthetic(SyntheticSpec(seed=12))
    arch = random_arch(RngStream(3))
    assert query(bench, arch).train_time_s > 0


def test_load_accepts_records_in_any_order(tmp_path):
    bench = gen_synthetic(SyntheticSpec(seed=14, noise_std=1.0, target_proxy_tau=0.7))
    path = tmp_path / "bench.json"
    save_tabular(bench, path)
    doc = json.loads(path.read_text())
    random.Random(0).shuffle(doc["records"])
    assert doc["records"][0]["arch"] != encode_str(next(enumerate_all()))
    path.write_text(json.dumps(doc))
    assert_benchmarks_equal(load_tabular(path), bench)


def test_load_rejects_partial_proxy(tmp_path):
    bench = gen_synthetic(SyntheticSpec(seed=15))
    path = tmp_path / "bench.json"
    save_tabular(bench, path)
    doc = json.loads(path.read_text())
    del doc["records"][7]["proxy"]
    path.write_text(json.dumps(doc))
    with pytest.raises(BenchmarkError, match="some records but not all"):
        load_tabular(path)


def test_load_names_missing_architectures(tmp_path):
    path = tmp_path / "bench.json"
    save_tabular(constant_benchmark(), path)
    doc = json.loads(path.read_text())
    gone = doc["records"].pop(4321)["arch"]
    path.write_text(json.dumps(doc))
    with pytest.raises(BenchmarkError, match=re.escape(f"15624 of 15625 architectures present; missing e.g. ['{gone}']")):
        load_tabular(path)


def reference_save_tabular(bench, path) -> None:
    """The writer of the dict-of-records benchmark, kept verbatim as the
    byte-level reference; `bench` is a `legacy_view`."""
    records = []
    for arch in enumerate_all():
        rec = bench.records[arch]
        row = {
            "arch": encode_str(arch),
            "val_acc": rec.val_acc,
            "test_acc": rec.test_acc,
            "train_time_s": rec.train_time_s,
        }
        if bench.synthetic_proxy is not None:
            row["proxy"] = bench.synthetic_proxy[arch]
        records.append(row)
    doc = {
        "space": {"nodes": bench.space.num_nodes, "ops": list(bench.space.op_names)},
        "dataset": bench.dataset_name,
        "records": records,
    }
    Path(path).write_text(json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n", "utf-8")


def legacy_view(bench):
    """The benchmark as the dict-of-records layout the reference writer reads."""
    proxy = bench.synthetic_proxy
    return SimpleNamespace(
        space=SimpleNamespace(num_nodes=NUM_NODES, op_names=OP_NAMES),
        dataset_name=bench.dataset_name,
        records={arch: query(bench, arch) for arch in enumerate_all()},
        synthetic_proxy=None if proxy is None else {arch: float(proxy[arch]) for arch in enumerate_all()},
    )


@pytest.mark.parametrize("with_proxy", [True, False, "nonfinite"])
def test_save_tabular_matches_reference_writer(with_proxy, tmp_path):
    bench = gen_synthetic(SyntheticSpec(seed=16, noise_std=2.0, target_proxy_tau=0.6, interaction_scale=0.5))
    if not with_proxy:
        bench.synthetic_proxy = None
    elif with_proxy == "nonfinite":  # json spells these NaN, Infinity and -Infinity
        bench.synthetic_proxy[[0, 777, SPACE_SIZE - 1]] = [np.nan, np.inf, -np.inf]
    save_tabular(bench, tmp_path / "new.json")
    reference_save_tabular(legacy_view(bench), tmp_path / "reference.json")
    assert (tmp_path / "new.json").read_bytes() == (tmp_path / "reference.json").read_bytes()
    loaded = load_tabular(tmp_path / "new.json")
    for name in ("val_acc", "test_acc", "train_time_s", "synthetic_proxy"):
        x, y = getattr(loaded, name), getattr(bench, name)
        assert (x is None and y is None) or x.tobytes() == y.tobytes(), name


def test_proxy_map_indexed_by_arch_as_scorer():
    """`bench.synthetic_proxy[arch]` works unwrapped, as the benchmark
    harness's proxy-map scorer uses it."""
    bench = gen_synthetic(SyntheticSpec(seed=17, noise_std=1.0, target_proxy_tau=0.6))
    proxy = bench.synthetic_proxy
    stream = RngStream(4)
    for _ in range(100):
        arch = random_arch(stream)
        assert proxy[arch] == proxy[operator.index(arch)]
    cfg = SearchConfig(pop_size=5, tournament_size=3, cycles=40, gen_size=4, init_candidates=20, seed=6)
    raw = run_search(cfg, bench, lambda arch, stream: ProxyScore(value=proxy[arch]))
    wrapped = run_search(cfg, bench, lambda arch, stream: ProxyScore(value=float(proxy[arch])))
    assert raw.events == wrapped.events
    assert [e.proxy_value for e in raw.events] == [float(proxy[e.arch]) for e in raw.events]
    assert all(type(e.proxy_value) is float for e in raw.events)
