"""The three benchmark workloads: set-up, timed searches, output checks, digests.

Every search is a closed loop: one caller scores the next candidate only
after the previous scoring returns.  A workload object runs inside one
worker process (see worker.py); it reaches the package only through the
``evonas`` namespace at call time, so the tracer's wrappers are seen.

- proxymap-sweep: seed-paired GEA/REA/RS comparison through
  ``run_experiment`` on a proxy map; no network is built, so the time goes
  to evolution, rng, cellspace and oracle.
- gea-net-desk: guided ``run_search`` scoring real untrained networks at
  the default desk skeleton; nearly all the time is in ``score_arch``.
- gea-net-wide: the same loop in a single run at the paper skeleton's
  layer shapes (32x32 inputs, 16 stem channels doubling to 64), where the
  convolution input gradient dominates.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from pathlib import Path

import evonas as ev
from evonas.rng import derive_seed

from inputs import RAW_COUNT, write_raw_batch

HERE = Path(__file__).resolve().parent
REFERENCE_FILE = HERE / "reference_scores.json"

# The acceptance-style landscape: rugged, proxy rank-correlated at tau 0.6.
LANDSCAPE = dict(noise_std=2.0, interaction_scale=0.5, target_proxy_tau=0.6)

SKELETONS = {
    "desk": ev.SkeletonConfig(),
    "wide": ev.SkeletonConfig(input_hw=32, stem_channels=16, cells_per_stage=1),
}

# Search sizes per workload; "quick" is the minimal size the self-test runs.
# The net searches spend most scorings on initial candidates (uniform random
# genotypes), so the scored mix, and with it the work, is alike across seeds.
SIZES = {
    "proxymap-sweep": {
        "full": dict(runs=5, pop_size=10, tournament_size=5, cycles=200, gen_size=10),
        "quick": dict(runs=2, pop_size=4, tournament_size=2, cycles=12, gen_size=3),
    },
    "gea-net-desk": {
        "full": dict(runs=3, pop_size=10, tournament_size=5, cycles=15, gen_size=3, init_candidates=40),
        "quick": dict(runs=2, pop_size=3, tournament_size=2, cycles=4, gen_size=2, init_candidates=4),
    },
    "gea-net-wide": {
        "full": dict(runs=1, pop_size=4, tournament_size=2, cycles=6, gen_size=2, init_candidates=60),
        "quick": dict(runs=1, pop_size=2, tournament_size=2, cycles=3, gen_size=2, init_candidates=2),
    },
}

# Reference scorings: fixed (arch, init stream) on a fixed batch per skeleton.
REFERENCE_SEED = 20220813
REFERENCE_ARCHS = {
    "desk": (
        "|nor_conv_3x3~0|+|skip_connect~0|none~1|+|skip_connect~0|nor_conv_1x1~1|avg_pool_3x3~2|",
        "|nor_conv_1x1~0|+|avg_pool_3x3~0|skip_connect~1|+|skip_connect~0|nor_conv_3x3~1|nor_conv_1x1~2|",
        "|avg_pool_3x3~0|+|nor_conv_3x3~0|nor_conv_3x3~1|+|none~0|skip_connect~1|nor_conv_3x3~2|",
    ),
    "wide": (
        "|nor_conv_3x3~0|+|skip_connect~0|none~1|+|skip_connect~0|nor_conv_1x1~1|avg_pool_3x3~2|",
    ),
}
REFERENCE_RTOL = 1e-9

# Net searches take a speed calibration mark (speed.py) at the first scoring
# at least this long after the previous mark.
MARK_EVERY_S = 0.25


def conv_flop(net, n: int) -> float:
    """Computed convolution FLOPs of one scoring (forward + input gradient).

    A convolution with c_in input and c_out output channels, a k x k
    kernel and an h_out x w_out output does n * c_out * h_out * w_out *
    c_in * k * k multiply-adds on a batch of n samples, counted as 2 FLOPs
    each.  The input gradient is the transposed convolution and does the
    same number again.  The network has a 3x3 stem conv (input_channels ->
    stem_channels), per cell one c x c conv for every nor_conv_1x1 (k=1)
    and nor_conv_3x3 (k=3) edge at the stage's width c and resolution, and
    between stages a stride-2 3x3 conv c -> 2c at half the resolution.
    Batch norm, ReLU, pooling and the classifier are not counted.  This is
    an operation count from shapes; it ignores cache misses.
    """
    cfg = net.cfg
    kernel_area = {ev.OpKind.CONV1X1: 1, ev.OpKind.CONV3X3: 9}
    per_cell = sum(kernel_area.get(op, 0) for op in net.arch.edge_ops)
    hw, c = cfg.input_hw, cfg.stem_channels
    macs = n * hw * hw * c * cfg.input_channels * 9
    for stage in range(cfg.num_stages):
        macs += cfg.cells_per_stage * per_cell * n * hw * hw * c * c
        if stage < cfg.num_stages - 1:
            hw //= 2
            macs += n * hw * hw * (2 * c) * c * 9
            c *= 2
    return 2.0 * 2.0 * macs


class CheckFailure(AssertionError):
    """An output check failed; the message names the run and the check."""


def _require(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailure(what)


def _first_failure(fn, *args):
    """The message of the CheckFailure `fn(*args)` raises, else None."""
    try:
        fn(*args)
    except CheckFailure as exc:
        return str(exc)
    return None


def _repeats(archs) -> int:
    seen: set = set()
    repeats = 0
    for arch in archs:
        repeats += arch in seen
        seen.add(arch)
    return repeats


def _check_events(traj, bench, budget: int, label: str) -> None:
    """Budget, best-so-far and oracle invariants of one trajectory."""
    _require(traj.n_trained == budget, f"{label}: trained {traj.n_trained}, budget {budget}")
    running = -math.inf
    for e in traj.events:
        _require(e.fitness == ev.query(bench, e.arch).val_acc, f"{label}: event {e.event_index} fitness")
        running = max(running, e.fitness)
        _require(e.best_so_far == running, f"{label}: best_so_far at event {e.event_index}")
    _require(traj.best.fitness == running, f"{label}: reported best is not the running max")
    _require(ev.query(bench, traj.best.arch).val_acc == traj.best.fitness, f"{label}: best arch val_acc")


def _rel_close(a: float, b: float, rtol: float = 1e-12) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b), 1e-300)


# ---------------------------------------------------------------------------
# reference scorings (shared with make_reference.py)


def reference_batch(skeleton: str, workdir: Path):
    if skeleton == "desk":
        return ev.make_batch(ev.SyntheticBatchSpec(seed=REFERENCE_SEED))
    path = workdir / "reference_batch.bin"
    write_raw_batch(path, REFERENCE_SEED)
    return ev.load_raw_batch(path, RAW_COUNT)


def reference_scorings(skeleton: str, workdir: Path) -> list:
    """(arch, init seed, score) for each reference architecture."""
    batch, labels = reference_batch(skeleton, workdir)
    out = []
    for i, text in enumerate(REFERENCE_ARCHS[skeleton]):
        stream = ev.RngStream(REFERENCE_SEED, ("reference", i))
        ps = ev.score_arch(ev.decode_str(text), batch, labels, SKELETONS[skeleton], ev.ProxyParams(), stream)
        out.append({"arch": text, "init": [REFERENCE_SEED, "reference", i], "score": ps.value})
    return out


def _check_reference(skeleton: str, workdir: Path) -> None:
    expected = json.loads(REFERENCE_FILE.read_text("utf-8"))[skeleton]
    for got, want in zip(reference_scorings(skeleton, workdir), expected, strict=True):
        err = abs(got["score"] - want["score"]) / abs(want["score"])
        _require(err <= REFERENCE_RTOL, f"reference score of {got['arch']} off by {err:.3g} (relative)")


# ---------------------------------------------------------------------------
# workloads


class ProxymapSweep:
    """GEA, REA and RS through run_experiment on the proxy map, then a t-test."""

    METHODS = ("gea", "rea", "rs")

    def __init__(self, spec: dict, size: dict, clock):
        self.spec = spec
        self.size = size
        self.clock = clock
        self.workdir = Path.cwd()

    def setup(self):
        bench = ev.gen_synthetic(ev.SyntheticSpec(seed=self.spec["landscape_seed"], **LANDSCAPE))
        self.clock.mark("setup")
        path = self.workdir / "benchmark.json"
        ev.save_tabular(bench, path)
        self.clock.mark("setup")
        self.bench = ev.load_tabular(path)
        self.clock.mark("setup")
        _, self.ref = ev.best_of(self.bench)
        self.clock.mark("setup")

    def search(self):
        size = self.size
        base = ev.SearchConfig(
            pop_size=size["pop_size"],
            tournament_size=size["tournament_size"],
            cycles=size["cycles"],
            gen_size=size["gen_size"],
            seed=self.spec["search_seed"],
        )
        self.results = {}
        for method in self.METHODS:
            cfg = ev.ExperimentConfig(
                method=method, search=base, benchmark=self.bench,
                num_runs=size["runs"], out=method,
            )
            result = ev.run_experiment(cfg)
            ev.emit_results(result)
            self.results[method] = result
            self.clock.mark("search")
        self.ttest = ev.welch_ttest(
            [r.final_val_acc for r in self.results["gea"].runs],
            [r.final_val_acc for r in self.results["rea"].runs],
        )

    def counts(self) -> dict:
        runs = [r for res in self.results.values() for r in res.runs]
        return {
            "runs": len(runs),
            "trained": len(runs) * self.size["cycles"],
            "scored": sum(r.n_proxy_evals for r in runs),
        }

    def _rerun(self, method: str, run):
        size = self.size
        kw = dict(pop_size=size["pop_size"], tournament_size=size["tournament_size"],
                  cycles=size["cycles"], seed=run.seed)
        if method == "rs":
            return ev.run_random_search(ev.SearchConfig(**kw), self.bench)
        if method == "rea":
            return ev.run_search(ev.rea_config(**kw), self.bench)
        proxy = self.bench.synthetic_proxy
        scorer = lambda arch, stream: ev.ProxyScore(value=proxy[arch])  # noqa: E731
        return ev.run_search(ev.SearchConfig(gen_size=size["gen_size"], **kw), self.bench, scorer)

    def check_run(self, method: str, run, full: bool) -> dict:
        size = self.size
        label = f"{run.label}#{run.run_id}"
        pop, cycles = size["pop_size"], size["cycles"]
        bests = [b for _, b, _ in run.curve]
        trained = len(run.curve) if method == "rs" else len(run.curve) - 1 + pop
        _require(trained == cycles, f"{label}: curve implies {trained} trainings, budget {cycles}")
        _require(all(a <= b for a, b in zip(bests, bests[1:])), f"{label}: best_so_far decreases")
        _require(bests[-1] == run.final_val_acc, f"{label}: final val_acc is not the last best_so_far")
        _require(ev.query(self.bench, run.final_arch).val_acc == run.final_val_acc, f"{label}: oracle val_acc")
        _require(run.regret == self.ref.val_acc - run.final_val_acc and run.regret >= 0, f"{label}: regret")
        evals = cycles + (cycles - pop) * size["gen_size"] if method == "gea" else 0
        _require(run.n_proxy_evals == evals, f"{label}: n_proxy_evals {run.n_proxy_evals}, expected {evals}")
        if not full:
            return {}
        traj = self._rerun(method, run)
        _check_events(traj, self.bench, cycles, label)
        offset = 0 if method == "rs" else pop - 1
        replay = [e.best_so_far for e in traj.events[offset:]]
        _require(replay == bests, f"{label}: curve differs from a direct rerun")
        _require(traj.best.arch == run.final_arch, f"{label}: final arch differs from a direct rerun")
        return {"repeats": _repeats(e.arch for e in traj.events), "trained": traj.n_trained}

    def check_summary(self, method: str) -> None:
        doc = json.loads((self.workdir / method / "summary.json").read_text("utf-8"))
        runs = doc["runs"]
        for row in doc["rows"]:
            mine = [r for r in runs if r["label"] == row["label"]]
            _require(len(mine) == self.size["runs"], f"{method}: summary run count")
            for key, col in (("final_val_acc", "val_acc"), ("final_test_acc", "test_acc")):
                vals = [r[key] for r in mine]
                mean = sum(vals) / len(vals)
                std = math.sqrt(sum((v - mean) ** 2 for v in vals) / (len(vals) - 1))
                _require(_rel_close(row[f"mean_{col}"], mean), f"{method}: summary mean_{col}")
                _require(_rel_close(row[f"std_{col}"], std, 1e-9), f"{method}: summary std_{col}")
            for key, col in (("simulated_time_s", "mean_time_s"), ("regret", "mean_regret")):
                mean = sum(r[key] for r in mine) / len(mine)
                _require(_rel_close(row[col], mean), f"{method}: summary {col}")

    def check(self, full: bool) -> dict:
        """Run label -> (error or None, facts) for every search run."""
        out = {}
        for method in self.METHODS:
            shared = _first_failure(self.check_summary, method)
            for run in self.results[method].runs:
                try:
                    facts, error = self.check_run(method, run, full), None
                except CheckFailure as exc:
                    facts, error = {}, str(exc)
                out[f"{run.label}#{run.run_id}"] = (shared or error, facts)
        return out

    def quality(self, facts: dict) -> dict:
        out = {}
        for method in self.METHODS:
            runs = self.results[method].runs
            out[f"{method}.regret"] = sum(r.regret for r in runs) / len(runs)
            rows = [facts[f"{r.label}#{r.run_id}"] for r in runs]
            if all(rows):
                out[f"{method}.repeat_frac"] = sum(f["repeats"] for f in rows) / sum(f["trained"] for f in rows)
        out["welch_t"], out["welch_p"] = self.ttest
        return out

    def emitted_bytes(self) -> int:
        return sum(
            (self.workdir / m / name).stat().st_size
            for m in self.METHODS
            for name in ("curves.csv", "summary.json")
        )

    def digest(self) -> str:
        h = hashlib.sha256()
        for method in self.METHODS:
            for name in ("curves.csv", "summary.json"):
                h.update((self.workdir / method / name).read_bytes())
        h.update(repr(self.ttest).encode())
        return h.hexdigest()


class NetSearch:
    """Guided run_search with the benchmark's own timed score_arch closure."""

    def __init__(self, spec: dict, size: dict, clock, skeleton: str):
        self.spec = spec
        self.size = size
        self.clock = clock
        self.skeleton_name = skeleton
        self.skeleton = SKELETONS[skeleton]
        self.workdir = Path.cwd()
        self.score_s: list = []

    def setup(self):
        self.bench = ev.gen_synthetic(ev.SyntheticSpec(seed=self.spec["landscape_seed"], **LANDSCAPE))
        self.clock.mark("setup")
        if self.skeleton_name == "desk":
            self.batch, self.labels = ev.make_batch(ev.SyntheticBatchSpec(seed=self.spec["batch_seed"]))
        else:
            self.batch, self.labels = ev.load_raw_batch(self.spec["batch_path"], self.spec["batch_count"])
        self.clock.mark("setup")

    def scorer(self, arch, stream):
        if self.clock.since_mark() >= MARK_EVERY_S:
            self.clock.mark("search")
        start = time.perf_counter()
        ps = ev.score_arch(arch, self.batch, self.labels, self.skeleton, ev.ProxyParams(), stream)
        self.score_s.append(time.perf_counter() - start)
        return ps

    def search(self):
        size = self.size
        self.trajs = []
        for r in range(size["runs"]):
            cfg = ev.SearchConfig(
                pop_size=size["pop_size"],
                tournament_size=size["tournament_size"],
                cycles=size["cycles"],
                gen_size=size["gen_size"],
                init_candidates=size["init_candidates"],
                seed=derive_seed(self.spec["search_seed"], "run", r),
            )
            self.trajs.append(ev.run_search(cfg, self.bench, self.scorer))

    def counts(self) -> dict:
        return {
            "runs": len(self.trajs),
            "trained": sum(t.n_trained for t in self.trajs),
            "scored": len(self.score_s),
        }

    def check(self, full: bool) -> dict:
        """Run label -> (error or None, facts) for every search run."""
        size = self.size
        _, self.ref = ev.best_of(self.bench)
        evals = size["init_candidates"] + (size["cycles"] - size["pop_size"]) * size["gen_size"]
        shared = _first_failure(
            _require, len(self.score_s) == evals * len(self.trajs), "scorer calls differ from n_proxy_evals"
        )
        if full:
            shared = shared or _first_failure(_check_reference, self.skeleton_name, self.workdir)

        def check_run(label, traj):
            _check_events(traj, self.bench, size["cycles"], label)
            _require(self.ref.val_acc - traj.best.fitness >= 0, f"{label}: negative regret")
            _require(traj.n_proxy_evals == evals, f"{label}: n_proxy_evals {traj.n_proxy_evals}, expected {evals}")

        return {
            f"gea#{r}": (shared or _first_failure(check_run, f"gea#{r}", traj), {})
            for r, traj in enumerate(self.trajs)
        }

    def quality(self, facts: dict) -> dict:
        n = len(self.trajs)
        return {
            "gea.regret": sum(self.ref.val_acc - t.best.fitness for t in self.trajs) / n,
            "gea.repeat_frac": sum(_repeats(e.arch for e in t.events) for t in self.trajs)
            / sum(t.n_trained for t in self.trajs),
        }

    def emitted_bytes(self) -> int:
        return 0

    def digest(self) -> str:
        h = hashlib.sha256()
        for r, traj in enumerate(self.trajs):
            for e in traj.events:
                h.update(f"{r}|{ev.encode_str(e.arch)}|{e.best_so_far!r}|{e.proxy_value!r}\n".encode())
            h.update(f"best|{ev.encode_str(traj.best.arch)}|{traj.best.fitness!r}\n".encode())
        return h.hexdigest()


def make(spec: dict, clock):
    size = SIZES[spec["workload"]]["quick" if spec["quick"] else "full"]
    if spec["workload"] == "proxymap-sweep":
        return ProxymapSweep(spec, size, clock)
    return NetSearch(spec, size, clock, spec["workload"].rsplit("-", 1)[1])
