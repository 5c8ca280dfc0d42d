"""Multi-seed experiment runner: sweeps, summary statistics, file emission.

An experiment runs `num_runs` searches per sweep point, each with a seed
derived from the master seed and the run index only, so experiments that
differ in method or swept parameter stay seed-paired.  Results land in two
files: `curves.csv` with per-run best-so-far trajectories and
`summary.json` with per-run finals and aggregate rows.  Both files are
byte-identical across reruns of the same configuration.

This module owns the experiment's JSON document: `_config_echo` writes it
as the `config` block of `summary.json` and `config_from_doc` reads it
back, from that block or the whole summary, so a run's own summary
reruns it.  `search` and `skeleton` are objects of their dataclass
fields; `benchmark` and `batch` are a path or `{"synthetic": {...}}`, and
a raw batch reads its first `batch_count` records.  A Benchmark object
echoes as `"<in-memory>"`, which names no file: its rerun needs one.
Absent keys take the dataclass defaults; unknown keys fail.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import os
from dataclasses import dataclass, field
from pathlib import Path

from . import __version__
from .batches import SyntheticBatchSpec, check_count, load_raw_batch, make_batch
from .cellspace import ArchEncoding, encode_str
from .config import ConfigError, check_fields
from .evolution import SearchConfig, Trajectory, method_config, run_search
from .oracle import Benchmark, SyntheticSpec, best_of, gen_synthetic, load_tabular
from .rng import RngStream, derive_seed
from .stats import mean_std
from .tensornet import SkeletonConfig
from .zeroproxy import ProxyParams, ProxyScore, score_arch

__all__ = [
    "ExperimentConfig",
    "config_from_doc",
    "SummaryRow",
    "RunResult",
    "ExperimentResult",
    "load_batch",
    "run_experiment",
    "emit_results",
]

# the master seed derives every run seed, and the method decides guidance
_SWEEPABLE = {f.name for f in dataclasses.fields(SearchConfig)} - {"seed", "guided"}
# the experiment document's dataclass objects and benchmark/batch sources
_OBJECTS = (("search", SearchConfig), ("skeleton", SkeletonConfig))
_SOURCES = (("benchmark", SyntheticSpec), ("batch", SyntheticBatchSpec))
_IN_MEMORY = "<in-memory>"  # the echo of a Benchmark object, which names no file


@dataclass
class ExperimentConfig:
    """One experiment: a method, its knobs, data sources and replication.

    `benchmark` is a tabular-file path, a SyntheticSpec or a Benchmark.  `batch`
    selects how guided runs score architectures: a SyntheticBatchSpec or a
    raw-image file path (its first `batch_count` records, at least 2)
    scores real networks at the batch's input shape (the result's
    `skeleton` echoes it); None falls back to the benchmark's bundled proxy
    map.  `sweep` lists (search-field, values) pairs, each
    swept one field at a time: a point runs `method_config(method, search,
    field=value)`, so under gea a swept `pop_size` or `cycles` keeps the
    base's resolved `gen_size` and `init_candidates` (as `summary.json`
    echoes them).  A sweep whose values give equal searches fails (a field
    the method decides or never reads, or a repeated value), and so does
    one over `seed` or `guided`: the master seed derives every run seed and
    `method` decides guidance.
    """

    method: str = "gea"
    search: SearchConfig = field(default_factory=SearchConfig)
    benchmark: object = None
    batch: object = None
    batch_count: int = 32
    skeleton: SkeletonConfig = field(default_factory=SkeletonConfig)
    num_runs: int = 1
    sweep: tuple = ()
    out: str = "results"

    def __post_init__(self):
        check_fields(self)
        method_config(self.method, self.search)  # an unknown method fails here
        check_count(self.batch_count)
        if not isinstance(self.benchmark, (str, os.PathLike, SyntheticSpec, Benchmark)):
            raise ConfigError(f"benchmark must be a path, a SyntheticSpec or a Benchmark, got {self.benchmark!r}")
        if not isinstance(self.batch, (type(None), str, os.PathLike, SyntheticBatchSpec)):
            raise ConfigError(f"batch must be null, a path or a SyntheticBatchSpec, got {self.batch!r}")
        for param, values in self.sweep:
            if param not in _SWEEPABLE:
                raise ConfigError(f"sweep parameter {param!r} is not a sweepable search field")
            if not values:
                raise ConfigError(f"sweep over {param!r} has no values")
            if len({method_config(self.method, self.search, **{param: v}) for v in values}) < len(values):
                raise ConfigError(f"sweep over {param!r} runs equal {self.method} searches: "
                                  f"{self.method} decides or never reads it, or a value repeats")


@dataclass(frozen=True)
class SummaryRow:
    label: str
    mean_val_acc: float
    std_val_acc: float
    mean_test_acc: float
    std_test_acc: float
    mean_time_s: float
    mean_regret: float


@dataclass
class RunResult:
    label: str
    run_id: int
    seed: int
    final_arch: ArchEncoding
    final_val_acc: float
    final_test_acc: float
    regret: float
    simulated_time_s: float
    n_proxy_evals: int
    curve: list  # (cycle, best_so_far, simulated_time_s)


# summary.json's per-run keys: every RunResult field but the curve, which curves.csv holds
_RUN_KEYS = tuple(f.name for f in dataclasses.fields(RunResult) if f.name != "curve")


@dataclass
class ExperimentResult:
    config: ExperimentConfig
    reference_arch: ArchEncoding
    reference_val_acc: float
    runs: list
    rows: list


def _resolve_benchmark(cfg: ExperimentConfig) -> Benchmark:
    if isinstance(cfg.benchmark, Benchmark):
        return cfg.benchmark
    if isinstance(cfg.benchmark, SyntheticSpec):
        return gen_synthetic(cfg.benchmark)
    if cfg.benchmark == _IN_MEMORY:
        raise ConfigError(f"benchmark {_IN_MEMORY} was never saved: give its file with --benchmark")
    return load_tabular(cfg.benchmark)


def load_batch(source, count: int, skeleton: SkeletonConfig):
    """(batch, labels, skeleton) from a SyntheticBatchSpec or the first `count`
    records of a raw file (`count` >= 2 for either source); the skeleton
    takes the batch's input shape, whose images must be square, and must
    have a class for every label."""
    check_count(count)
    if isinstance(source, SyntheticBatchSpec):
        batch, labels = make_batch(source)
    else:
        batch, labels = load_raw_batch(source, count)
    if labels.max() >= skeleton.num_classes:
        raise ConfigError(f"batch label {labels.max()} needs more than the skeleton's {skeleton.num_classes} classes")
    _, channels, hw, width = batch.shape
    if hw != width:
        raise ConfigError(f"batch images must be square for the skeleton, got shape {batch.shape[1:]}")
    return batch, labels, dataclasses.replace(skeleton, input_channels=channels, input_hw=hw)


def _resolve_scorer(cfg: ExperimentConfig, bench: Benchmark, guided: bool):
    """Scorer for guided runs (None for unguided ones) and the skeleton it runs at."""
    if not guided:
        return None, cfg.skeleton
    if cfg.batch is not None:
        batch, labels, skeleton = load_batch(cfg.batch, cfg.batch_count, cfg.skeleton)
        return (lambda arch, stream: score_arch(arch, batch, labels, skeleton, ProxyParams(), stream)), skeleton
    if bench.synthetic_proxy is not None:
        proxy_map = bench.synthetic_proxy
        return (lambda arch, stream: ProxyScore(value=proxy_map[arch])), cfg.skeleton
    raise ConfigError("guided method needs a batch source or a benchmark with a proxy map")


def _curve(traj: Trajectory, first: int) -> list:
    """Best-so-far points from event `first` on, numbered from 0.

    `first` is the last initial event of an evolution run (its point is
    cycle 0, then one point per cycle) and 0 for random search (one point
    per sample)."""
    return [(i, e.best_so_far, e.simulated_time_s) for i, e in enumerate(traj.events[first:])]


def _token(value) -> str:
    """A sweep value as its label spells it: None as its JSON token `null`,
    like a `--sweep` token; anything else by str."""
    return "null" if value is None else str(value)


def run_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    """Execute every (sweep point, run) search and aggregate summaries.

    Every search config is built before the first search runs, so a bad
    sweep value fails at once."""
    seeds = [derive_seed(cfg.search.seed, "run", run_id) for run_id in range(cfg.num_runs)]
    points = [(cfg.method, {})] if not cfg.sweep else [
        (f"{cfg.method}:{param}={_token(value)}", {param: value}) for param, values in cfg.sweep for value in values
    ]
    plan = [(label, [method_config(cfg.method, cfg.search, **override, seed=seed) for seed in seeds])
            for label, override in points]
    ran = method_config(cfg.method, cfg.search)
    bench = _resolve_benchmark(cfg)
    scorer, skeleton = _resolve_scorer(cfg, bench, ran.guided)
    ref_arch, ref_rec = best_of(bench)

    runs: list = []
    rows: list = []
    for label, searches in plan:
        point_runs = []
        for run_id, search in enumerate(searches):
            traj = run_search(search, bench, scorer)
            first = 0 if cfg.method == "rs" else search.pop_size - 1
            point_runs.append(
                RunResult(
                    label=label,
                    run_id=run_id,
                    seed=search.seed,
                    final_arch=traj.best.arch,
                    final_val_acc=traj.best.fitness,
                    final_test_acc=traj.best_test_acc,
                    regret=ref_rec.val_acc - traj.best.fitness,
                    simulated_time_s=traj.simulated_time_s,
                    n_proxy_evals=traj.n_proxy_evals,
                    curve=_curve(traj, first),
                )
            )
        mean_val, std_val = mean_std([r.final_val_acc for r in point_runs])
        mean_test, std_test = mean_std([r.final_test_acc for r in point_runs])
        rows.append(
            SummaryRow(
                label=label,
                mean_val_acc=mean_val,
                std_val_acc=std_val,
                mean_test_acc=mean_test,
                std_test_acc=std_test,
                mean_time_s=mean_std([r.simulated_time_s for r in point_runs])[0],
                mean_regret=mean_std([r.regret for r in point_runs])[0],
            )
        )
        runs.extend(point_runs)
    return ExperimentResult(
        config=dataclasses.replace(cfg, search=ran, skeleton=skeleton),
        reference_arch=ref_arch,
        reference_val_acc=ref_rec.val_acc,
        runs=runs,
        rows=rows,
    )


def _fields(cls, doc, where: str) -> dict:
    """`doc` as keyword arguments of dataclass `cls` (JSON lists become
    tuples); unknown keys fail."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{where} must be an object, got {doc!r}")
    unknown = doc.keys() - {f.name for f in dataclasses.fields(cls)}
    if unknown:
        raise ConfigError(f"unknown {where} keys: {sorted(unknown)}")
    return {k: tuple(v) if isinstance(v, list) else v for k, v in doc.items()}


def _source(doc, spec_cls, where: str):
    """A benchmark or batch source: a path or {"synthetic": {...}}."""
    if not isinstance(doc, dict):
        return doc
    if doc.keys() == {"synthetic"}:
        return spec_cls(**_fields(spec_cls, doc["synthetic"], f"{where}.synthetic"))
    raise ConfigError(f'{where} must be a path or {{"synthetic": {{...}}}}, got {doc!r}')


def config_from_doc(doc, flags=None) -> ExperimentConfig:
    """The ExperimentConfig of an experiment document, or of a summary.json
    through its `config` block: the inverse of that block.  `flags`, an
    experiment document too, is laid over it, a `search` object key by key."""
    if isinstance(doc, dict) and "config" in doc:
        doc = doc["config"]
    fields = _fields(ExperimentConfig, doc, "experiment")
    flags = _fields(ExperimentConfig, flags or {}, "flags")
    if "search" in flags:
        flags["search"] = {**_fields(SearchConfig, fields.get("search", {}), "search"), **flags["search"]}
    fields.update(flags)
    for name, cls in _OBJECTS:
        fields[name] = cls(**_fields(cls, fields.get(name, {}), name))
    for name, spec_cls in _SOURCES:
        fields[name] = _source(fields.get(name), spec_cls, name)
    sweep = fields.get("sweep", ())
    for entry in sweep if isinstance(sweep, tuple) else [sweep]:
        if not (isinstance(entry, list) and [type(x) for x in entry] == [str, list]):
            raise ConfigError(f"a sweep entry is [field, [values...]], got {entry!r}")
    fields["sweep"] = tuple((param, values) for param, values in sweep)
    return ExperimentConfig(**fields)


def _config_echo(cfg: ExperimentConfig) -> dict:
    doc = {f.name: getattr(cfg, f.name) for f in dataclasses.fields(cfg)}
    for name, _ in _OBJECTS:
        doc[name] = dataclasses.asdict(doc[name])
    for name, spec_cls in _SOURCES:
        value = doc[name]
        doc[name] = ({"synthetic": dataclasses.asdict(value)} if isinstance(value, spec_cls)
                     else os.fspath(value) if isinstance(value, (str, os.PathLike))
                     else value if value is None else _IN_MEMORY)
    doc["sweep"] = [[p, list(v)] for p, v in cfg.sweep]
    return doc


def emit_results(result: ExperimentResult, out=None) -> tuple[Path, Path]:
    """Write curves.csv and summary.json under the output directory.

    The CSV holds one row per curve point: run_id (label#index), cycle,
    best_so_far, simulated_time_s.  The JSON carries the config echo, the
    summary rows and every run's final values, from which the row means and
    stds are recomputable.  Output depends only on the experiment result.
    """
    out_dir = Path(out if out is not None else result.config.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    curves_path = out_dir / "curves.csv"
    summary_path = out_dir / "summary.json"

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["run_id", "cycle", "best_so_far", "simulated_time_s"])
    for run in result.runs:
        run_key = f"{run.label}#{run.run_id}"
        for cycle, best, t in run.curve:
            writer.writerow([run_key, cycle, repr(float(best)), repr(float(t))])
    curves_path.write_text(buf.getvalue(), "utf-8")

    doc = {
        "tool_version": __version__,
        "config": _config_echo(result.config),
        "reference": {
            "arch": encode_str(result.reference_arch),
            "val_acc": result.reference_val_acc,
        },
        "rows": [dataclasses.asdict(row) for row in result.rows],
        "runs": [{**{name: getattr(r, name) for name in _RUN_KEYS}, "final_arch": encode_str(r.final_arch)}
                 for r in result.runs],
    }
    summary_path.write_text(json.dumps(doc, sort_keys=True, indent=1) + "\n", "utf-8")
    return curves_path, summary_path
