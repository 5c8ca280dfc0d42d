"""Benchmark of guided architecture search, end to end and per layer.

Usage (from the repository root):

    python3 benchmarks/run.py --workload proxymap-sweep --seed 1 --seconds 30 --trace 0

A run repeats *passes* of one workload until `--seconds` have elapsed (at
least one).  Every pass is a fresh worker process doing what a user does:
import evonas, set up, search, write outputs; passes of one run get
identical inputs, so they must give identical result digests.  Metrics are
medians over passes.  Set-up-only passes follow until there are
MIN_SETUPS set-up samples.  With `--trace 1`, untraced and traced passes
alternate: the traced ones give the per-layer metrics, and the ratio of the
two totals gives the tracing overhead.

The last line of standard output is one JSON object with `correct`,
`attempted` (search runs), `failed` (runs that raised or failed an output
check) and `metrics` (the end-to-end metrics of BENCHMARK.json with
`--trace 0`, its per-layer metrics with `--trace 1`).  The full result,
with the environment block, quality figures and the results digest, is
written to `.bench_results/`.  Exit code 0 means every check passed.
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from inputs import RAW_COUNT, derive, write_raw_batch

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("proxymap-sweep", "gea-net-desk", "gea-net-wide")
MIN_SETUPS = 3
PASS_TIMEOUT_S = 170.0
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)

# Reported beside the BENCHMARK.json metrics, ungated: (unit, better).
REPORTED = {
    "wall.setup_s": ("s", "lower"),
    "wall.total_s": ("s", "lower"),
    "speed.kernel_ms": ("ms", "lower"),
    "score_ms.p50": ("ms", "lower"),
    "score_ms.tail": ("ms", "lower"),
    "error_frac": ("ratio", "lower"),
    "gea.regret": ("val-acc-points", "lower"),
    "rea.regret": ("val-acc-points", "lower"),
    "rs.regret": ("val-acc-points", "lower"),
    "gea.repeat_frac": ("ratio", "lower"),
    "rea.repeat_frac": ("ratio", "lower"),
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--quick", action="store_true", help="minimal sizes, fewest passes (self-test)")
    return p.parse_args(argv)


def make_inputs(args, workdir: Path) -> dict:
    name = args.workload
    spec = {
        "workload": name,
        "quick": args.quick,
        "landscape_seed": derive(name, args.seed, "landscape"),
        "search_seed": derive(name, args.seed, "search"),
        "batch_seed": derive(name, args.seed, "batch"),
    }
    if name == "gea-net-wide":
        path = workdir / "batch.bin"
        write_raw_batch(path, spec["batch_seed"])
        spec.update(batch_path=str(path), batch_count=RAW_COUNT)
    return spec


def run_pass(spec: dict, workdir: Path, index: int, traced: bool, setup_only=False) -> tuple[dict, float]:
    """One worker process; it runs in its own directory, so emitted paths are
    relative and the digest does not depend on where the checkout lives."""
    pass_dir = workdir / "pass"
    pass_dir.mkdir()
    spec = dict(spec, trace=traced, full_check=index == 0, setup_only=setup_only,
                result_path=str(pass_dir / "result.json"))
    spec_path = pass_dir / "spec.json"
    spec_path.write_text(json.dumps(spec), "utf-8")
    start = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), str(spec_path)],
            cwd=pass_dir, capture_output=True, text=True, timeout=PASS_TIMEOUT_S,
        )
        result_path = Path(spec["result_path"])
        if result_path.exists():
            result = json.loads(result_path.read_text("utf-8"))
        else:
            result = {"crash": f"worker exited {proc.returncode}:\n{proc.stderr[-4000:]}"}
    except subprocess.TimeoutExpired:
        result = {"crash": f"worker exceeded {PASS_TIMEOUT_S:.0f} s"}
    wall = time.perf_counter() - start
    shutil.rmtree(pass_dir, ignore_errors=True)
    return result, wall


def tail(samples_ms: list) -> tuple[float, float, int]:
    """Highest listed percentile with >= 10 samples beyond it: (value, pct, n)."""
    xs = sorted(samples_ms)
    n = len(xs)
    for pct in TAIL_PERCENTILES:
        if n * (1.0 - pct / 100.0) >= 10:
            return xs[min(n - 1, math.ceil(pct / 100.0 * n) - 1)], pct, n
    return xs[-1], 100.0, n


def end_to_end(passes: list, setups: list) -> dict:
    med = lambda key: statistics.median(p[key] for p in passes)  # noqa: E731
    return {
        "setup_s": statistics.median(p["setup_s"] for p in passes + setups),
        "total_s": med("total_s"),
        "trained_per_s": statistics.median(p["counts"]["trained"] / p["search_s"] for p in passes),
        "scores_per_s": statistics.median(p["counts"]["scored"] / p["search_s"] for p in passes),
        "peak_rss_mb": med("peak_rss_mb"),
    }


def per_layer(traced: dict, untraced_total_s: float) -> dict:
    """Per-layer metrics of one traced pass."""
    tr = traced["trace"]
    tot = tr["totals"]
    calls = lambda name: tot.get(name, [0, 0.0, 0.0])[0]  # noqa: E731
    secs = lambda name: tot.get(name, [0, 0.0, 0.0])[1]  # noqa: E731
    self_s = lambda name: tot.get(name, [0, 0.0, 0.0])[2]  # noqa: E731
    ratio = lambda a, b: a / b if b else 0.0  # noqa: E731
    trained = traced["counts"]["trained"]
    m = {}
    for name in ("rng.child", "cellspace.mutate", "cellspace.random_arch", "tensornet.build_network",
                 "tensornet.input_jacobian", "zeroproxy.score_arch", "stats.kendall_tau", "oracle.query",
                 "evolution.run_search", "evolution.run_random_search", "evolution.scorer",
                 "experiment.run_experiment"):
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.s"] = secs(name)
    for name in ("cellspace.decode_str", "cellspace.encode_str", "batches.make_batch",
                 "batches.load_raw_batch", "zeroproxy.per_class_correlation", "zeroproxy.eval_matrix",
                 "oracle.gen_synthetic", "oracle.save_tabular", "oracle.load_tabular", "oracle.best_of",
                 "evolution.spawn_generation", "evolution.tournament_select", "evolution.remove_survivor",
                 "evolution.init_population", "experiment.emit_results"):
        m[f"{name}.s"] = secs(name)
    for name in ("zeroproxy.score_arch", "evolution.run_search", "experiment.run_experiment"):
        m[f"{name}.self_s"] = self_s(name)
    forward_s = tr["probe"][1]
    m["tensornet.forward.s"] = forward_s
    m["tensornet.backward.s"] = secs("tensornet.input_jacobian") - forward_s
    gflop = tr["conv_flop"] / 1e9
    m["tensornet.conv_gflop"] = ratio(gflop, calls("tensornet.input_jacobian"))
    m["tensornet.conv_gflops"] = ratio(gflop, secs("tensornet.input_jacobian"))
    m["zeroproxy.sentinel_frac"] = ratio(tr["sentinels"], calls("zeroproxy.score_arch"))
    m["oracle.query.per_trained"] = ratio(calls("oracle.query"), trained)
    m["evolution.scored_per_trained"] = ratio(calls("evolution.scorer"), trained)
    m["experiment.emitted_bytes"] = traced["emitted_bytes"]
    m["trace.overhead_frac"] = traced["total_s"] / untraced_total_s - 1.0
    m["trace.self_s_sum"] = sum(v[2] for v in tot.values())
    m["trace.wall_total_s"] = traced["wall"]["total_s"]
    return m


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "evonas" / "__init__.py").is_file():
        print(f"error: no evonas package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec_doc = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    wanted = spec_doc["per_layer"] if args.trace else spec_doc["end_to_end"]

    workdir = ROOT / ".bench_work" / args.workload
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        spec = make_inputs(args, workdir)
        passes, walls = [], []
        start = time.perf_counter()
        while True:
            traced = bool(args.trace) and len(passes) % 2 == 1
            result, wall = run_pass(spec, workdir, len(passes), traced)
            passes.append(dict(result, traced=traced))
            walls.append(wall)
            elapsed = time.perf_counter() - start
            enough = len(passes) >= 1 + args.trace
            if "crash" in result or (enough and (args.quick or elapsed >= args.seconds)):
                break
            if elapsed + max(walls) > PASS_TIMEOUT_S:
                break
        setups = []
        while "crash" not in passes[-1] and sum(not p["traced"] for p in passes) + len(setups) < MIN_SETUPS:
            result, _ = run_pass(spec, workdir, len(passes) + len(setups), False, setup_only=True)
            if "crash" in result:
                passes.append(dict(result, traced=False))
                break
            setups.append(result)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    report = summarize(args, passes, setups, wanted)
    out_dir = ROOT / ".bench_results"
    out_dir.mkdir(exist_ok=True)
    out_path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n", "utf-8")

    for line in report["lines"]:
        print(line)
    print(f"result file: {out_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": report["metrics"],
    }))
    return 0 if report["correct"] else 1


def summarize(args, passes: list, setups: list, wanted: list) -> dict:
    crashes = [p["crash"] for p in passes if "crash" in p]
    done = [p for p in passes if "crash" not in p]
    attempted = sum(len(p["errors"]) for p in done) + len(crashes)
    failures = [err for p in done for err in p["errors"].values() if err]
    digests = sorted({p["digest"] for p in done})
    problems = crashes + sorted(set(failures))
    if len(digests) > 1:
        problems.append(f"passes with identical inputs gave {len(digests)} different digests")
    failed = len(failures) + len(crashes) if len(digests) <= 1 else attempted
    lines = [f"workload {args.workload} seed {args.seed} trace {args.trace}: {len(passes)} passes "
             f"({sum(p['traced'] for p in passes)} traced) and {len(setups)} set-up-only passes"]
    metrics: dict = {}
    extra: dict = {}
    untraced = [p for p in done if not p["traced"]]
    traced = [p for p in done if p["traced"]]
    if untraced and (traced or not args.trace):
        e2e = end_to_end(untraced, setups)
        if args.trace:
            layer_runs = [per_layer(p, e2e["total_s"]) for p in traced]
            # median_low keeps counts whole when there is an even number of traced passes
            values = {k: statistics.median_low(r[k] for r in layer_runs) for k in layer_runs[0]}
            if values["trace.self_s_sum"] > values["trace.wall_total_s"]:
                problems.append("traced self times sum to more than the traced total_s")
        else:
            values = e2e
        for m in wanted:
            if m["name"] not in values:
                problems.append(f"metric {m['name']} is not computed")
                continue
            metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
            lines.append(f"{m['name']} = {values[m['name']]:.6g} {m['unit']} ({m['better']} is better)")
        first = done[0]
        extra = dict(first["quality"])
        extra["wall.total_s"] = statistics.median(p["wall"]["total_s"] for p in untraced)
        extra["speed.kernel_ms"] = 1e3 * statistics.median(k for p in untraced for k in p["kernel_s"])
        extra["wall.setup_s"] = statistics.median(p["wall"]["setup_s"] for p in untraced + setups)
        extra["error_frac"] = failed / attempted if attempted else 1.0
        notes = {}
        samples = [1e3 * s for p in untraced for s in p["score_s"]]
        if samples:
            extra["score_ms.p50"] = statistics.median(samples)
            extra["score_ms.tail"], pct, n = tail(samples)
            extra["score_ms.tail_percentile"] = pct
            extra["score_ms.samples"] = n
            notes["score_ms.tail"] = f" (p{pct:g} of {n} scorer calls)"
        for name, (unit, better) in REPORTED.items():
            if name in extra:
                lines.append(f"{name} = {extra[name]:.6g} {unit} ({better} is better, ungated)"
                             + notes.get(name, ""))
    correct = not problems and bool(metrics) and len(metrics) == len(wanted)
    for problem in problems:
        lines.append(f"FAILED: {problem}")
    lines.append(f"digest {digests[0] if len(digests) == 1 else 'none' if not digests else 'MISMATCH'}")
    env = done[0].get("env", {}) if done else {}
    if env:
        lines.append("env " + json.dumps(env, sort_keys=True))
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "correct": correct,
        "attempted": max(attempted, 1),
        "failed": failed if attempted else 1,
        "metrics": metrics,
        "reported": extra,
        "digest": digests[0] if len(digests) == 1 else None,
        "env": env,
        "problems": problems,
        "passes": [{k: v for k, v in p.items() if k not in ("score_s",)} for p in passes],
        "setup_passes": setups,
        "lines": lines,
    }


if __name__ == "__main__":
    sys.exit(main())
