"""Command-line front end.

Subcommands: `search` (one method, one configuration), `ablate` (parameter
sweeps), `bench gen` (write a synthetic benchmark file), `score` (a run's
proxy score for one architecture string, at a run's skeleton and batch
with `--config`), `stats` (t-test / rank correlation on result files).
Options beat config-file values beat defaults.  On failure the process
exits nonzero after printing one JSON error line to stderr.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import sys
from pathlib import Path

from .batches import SyntheticBatchSpec
from .cellspace import decode_str, encode_str
from .evolution import METHODS, ConfigError, score_stream
from .experiment import ExperimentConfig, config_from_doc, emit_results, load_batch, run_experiment
from .oracle import SyntheticSpec, gen_synthetic, save_tabular
from .rng import RngStream
from .stats import kendall_tau, welch_ttest
from .tensornet import SkeletonConfig
from .zeroproxy import ProxyParams, score_arch

__all__ = ["main"]


def _parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="evonas", description=__doc__.splitlines()[0])
    sub = top.add_subparsers(dest="command", required=True)

    def add_run_flags(p):
        p.add_argument("--config", help="experiment JSON file: the config block of a summary.json")
        p.add_argument("--method", choices=METHODS)
        p.add_argument("--pop-size", type=int, dest="pop_size")
        p.add_argument("--tournament", type=int, dest="tournament_size")
        p.add_argument("--cycles", type=int)
        p.add_argument("--gen-size", type=int, dest="gen_size")
        p.add_argument("--seed", type=int)
        p.add_argument("--runs", type=int, dest="num_runs")
        p.add_argument("--benchmark", help="tabular benchmark JSON file")
        p.add_argument("--batch", help="raw image batch file (CIFAR-10 binary layout)")
        p.add_argument("--batch-count", type=int, dest="batch_count")
        p.add_argument("--out", help="output directory")

    search = sub.add_parser("search", help="run one search configuration")
    add_run_flags(search)

    ablate = sub.add_parser("ablate", help="sweep search parameters")
    add_run_flags(ablate)
    ablate.add_argument(
        "--sweep",
        action="append",
        default=[],
        metavar="PARAM=V1,V2,...",
        help="search field to sweep (repeatable)",
    )

    bench = sub.add_parser("bench", help="benchmark utilities")
    bench_sub = bench.add_subparsers(dest="bench_command", required=True)
    gen = bench_sub.add_parser("gen", help="generate a synthetic benchmark file")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--noise-std", type=float, default=0.0, dest="noise_std")
    gen.add_argument("--tau", type=float, default=1.0, help="target proxy-fitness Kendall tau")
    gen.add_argument("--interaction-scale", type=float, default=0.0, dest="interaction_scale")
    gen.add_argument("--out", required=True, help="output file")

    score = sub.add_parser("score", help="proxy-score one architecture string")
    score.add_argument("arch", help="canonical architecture string")
    score.add_argument("--config", help="a run's summary.json or experiment JSON: its skeleton and batch")
    score.add_argument("--batch", help="raw image batch file; default: synthetic batch")
    score.add_argument("--batch-count", type=int, dest="batch_count", help="default: 32")
    score.add_argument("--seed", type=int, default=0, help="run seed (a summary.json run seed)")

    stats = sub.add_parser("stats", help="statistics on result files")
    stats_sub = stats.add_subparsers(dest="stats_command", required=True)
    ttest = stats_sub.add_parser("ttest", help="Welch t-test of final val_acc between two runs")
    ttest.add_argument("summary_a", help="summary.json of sample A")
    ttest.add_argument("summary_b", help="summary.json of sample B")
    tau = stats_sub.add_parser("tau", help="Kendall tau-b between two CSV columns")
    tau.add_argument("csv_file")
    tau.add_argument("col_x")
    tau.add_argument("col_y")
    return top


def _parse_sweep(specs: list) -> list:
    """[[param, values], ...] from PARAM=V1,V2,... specs; each value is read
    as JSON (numbers, true, false, null), else taken as the raw string."""
    def value(token: str):
        try:
            return json.loads(token)
        except json.JSONDecodeError:
            return token

    out = []
    for spec in specs:
        param, sep, values = spec.partition("=")
        if not sep or not values:
            raise ConfigError(f"bad sweep spec {spec!r}, expected PARAM=V1,V2,...")
        out.append([param.replace("-", "_"), [value(v) for v in values.split(",")]])
    return out


_SEARCH_FLAGS = ("pop_size", "tournament_size", "cycles", "gen_size", "seed")
_EXPERIMENT_FLAGS = ("method", "num_runs", "benchmark", "batch", "batch_count", "out")


def _experiment_from_args(args) -> ExperimentConfig:
    """The --config document with the given flags laid over it."""
    doc = json.loads(Path(args.config).read_text("utf-8")) if args.config else {}
    if not isinstance(doc, dict):
        raise ConfigError(f"{args.config}: an experiment document is a JSON object")
    search = {name: getattr(args, name) for name in _SEARCH_FLAGS if getattr(args, name) is not None}
    if search and isinstance(doc.get("search", {}), dict):  # any other block fails in config_from_doc
        doc["search"] = {**doc.get("search", {}), **search}
    doc.update({name: getattr(args, name) for name in _EXPERIMENT_FLAGS if getattr(args, name) is not None})
    if getattr(args, "sweep", None):
        doc["sweep"] = _parse_sweep(args.sweep)
    return config_from_doc(doc)


def _cmd_run(args) -> int:
    cfg = _experiment_from_args(args)
    result = run_experiment(cfg)
    curves, summary = emit_results(result)
    print(json.dumps({
        "curves": str(curves),
        "summary": str(summary),
        "rows": [dataclasses.asdict(row) for row in result.rows],
    }, sort_keys=True))
    return 0


def _cmd_bench_gen(args) -> int:
    spec = SyntheticSpec(
        seed=args.seed,
        noise_std=args.noise_std,
        target_proxy_tau=args.tau,
        interaction_scale=args.interaction_scale,
    )
    bench = gen_synthetic(spec)
    save_tabular(bench, args.out)
    print(json.dumps({
        "path": args.out,
        "architectures": len(bench.val_acc),
        "measured_tau": round(kendall_tau(bench.synthetic_proxy, bench.val_acc), 6),
    }, sort_keys=True))
    return 0


def _score_setup(args) -> tuple:
    """(batch source, batch count, skeleton): the --config document's, read
    as `config_from_doc` reads it (a summary.json through its config block),
    else the flags' at the default skeleton."""
    if not args.config:
        count = 32 if args.batch_count is None else args.batch_count
        return args.batch or SyntheticBatchSpec(), count, SkeletonConfig()
    if args.batch is not None or args.batch_count is not None:
        raise ConfigError("--config gives the batch: drop --batch and --batch-count")
    doc = json.loads(Path(args.config).read_text("utf-8"))
    cfg = config_from_doc(doc["config"] if isinstance(doc, dict) and "config" in doc else doc)
    if cfg.batch is None:
        raise ConfigError(f"{args.config} has no batch: its runs scored with the benchmark's proxy map")
    return cfg.batch, cfg.batch_count, cfg.skeleton


def _cmd_score(args) -> int:
    arch = decode_str(args.arch)
    batch, labels, skeleton = load_batch(*_score_setup(args))
    result = score_arch(arch, batch, labels, skeleton, ProxyParams(), score_stream(RngStream(args.seed), arch))
    print(json.dumps({
        "arch": encode_str(arch),
        "score": "sentinel" if result.is_sentinel else result.value,
        "per_class": list(result.per_class),
    }, sort_keys=True))
    return 0


def _final_vals(path) -> list:
    doc = json.loads(Path(path).read_text("utf-8"))
    return [run["final_val_acc"] for run in doc["runs"]]


def _cmd_stats(args) -> int:
    if args.stats_command == "ttest":
        a = _final_vals(args.summary_a)
        b = _final_vals(args.summary_b)
        t, p = (v if math.isfinite(v) else None for v in welch_ttest(a, b))  # a non-finite entry: JSON null
        print(json.dumps({"t": t, "p": p, "n_a": len(a), "n_b": len(b)}, sort_keys=True))
    else:
        with open(args.csv_file, newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        if not rows or args.col_x not in rows[0] or args.col_y not in rows[0]:
            raise ConfigError(f"columns {args.col_x!r}/{args.col_y!r} not found in {args.csv_file}")
        x = [float(r[args.col_x]) for r in rows]
        y = [float(r[args.col_y]) for r in rows]
        tau = kendall_tau(x, y)  # NaN for a constant column or a NaN entry: JSON null
        print(json.dumps({"tau": tau if math.isfinite(tau) else None, "n": len(x)}, sort_keys=True))
    return 0


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.command in ("search", "ablate"):
            return _cmd_run(args)
        if args.command == "bench":
            return _cmd_bench_gen(args)
        if args.command == "score":
            return _cmd_score(args)
        return _cmd_stats(args)
    except Exception as exc:  # surface every failure as one parseable line
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
