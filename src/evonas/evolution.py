"""Aging-evolution search loop with optional proxy-guided candidate filtering.

One run: sample `init_candidates` genotypes, keep the `pop_size` best by
proxy score and train them (oracle lookup), then cycle: pick a parent by
tournament, mutate it `gen_size` times, score the children, train the
top-scoring child that this run has not trained yet (the top-scoring child
overall if every child was trained before), append it to the population
and evict a survivor (oldest by default).  A repeat chosen by that fallback
still costs one training slot.  The run stops once `cycles` architectures
have been trained; the answer is the best-by-fitness individual ever
trained.

Guided mode off degenerates to the classic aging-evolution baseline:
init_candidates == pop_size, one child per cycle, and no proxy calls (every
individual carries the sentinel score).  Those unguided defaults are set in
`SearchConfig.__post_init__` alone, and `_scoring` alone decides whether a
run calls its scorer.  Random search is the unguided initialization with
pop_size == init_candidates == cycles: every sample is kept and no cycle
runs.

Every random draw comes from a named substream of the run stream, so
trajectories are reproducible event for event.  Substream layout:

    ("init", i, "arch"), ("init", i, "score")
    ("cycle", c, "tournament")
    ("cycle", c, "child", j, "mut"), ("cycle", c, "child", j, "score")

The "score" streams seed the scorer (guided runs only).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Collection, Optional

from .cellspace import (
    NUM_NODES,
    OP_NAMES,
    ArchEncoding,
    decode_str,
    encode_str,
    mutate,
    random_arch,
)
from .oracle import Benchmark, query
from .rng import RngStream
from .zeroproxy import ProxyScore

__all__ = [
    "ConfigError",
    "CheckpointError",
    "Individual",
    "SearchConfig",
    "TrajectoryEvent",
    "Trajectory",
    "Scorer",
    "rea_config",
    "init_population",
    "tournament_select",
    "spawn_generation",
    "remove_survivor",
    "run_search",
    "run_random_search",
    "save_checkpoint",
    "load_checkpoint",
]

# A scorer maps (arch, dedicated stream) to a proxy score; the stream seeds
# whatever randomness the scorer needs (e.g. network initialization).
Scorer = Callable[[ArchEncoding, RngStream], "ProxyScore | float"]

_PARENT_MODES = ("tournament", "highest", "lowest")
_REMOVAL_MODES = ("oldest", "highest", "lowest")


class ConfigError(ValueError):
    """Invalid search configuration."""


class CheckpointError(ValueError):
    """Checkpoint file malformed or from a different search space."""


@dataclass
class Individual:
    arch: ArchEncoding
    proxy: ProxyScore
    fitness: Optional[float]
    birth_index: int
    origin: str


@dataclass(frozen=True)
class SearchConfig:
    """All evolution knobs.

    `gen_size` defaults to `pop_size` and `init_candidates` to `cycles`.
    `guided=False` gives baseline aging-evolution semantics: no proxy calls
    (every score is the sentinel), one child per cycle (gen_size is forced
    to 1), and `init_candidates` defaults to `pop_size`.  The unguided
    defaults are set here only: `rea_config`, random search and the
    experiment runner leave both fields at None.  `budget_counts_init` keeps
    the total number of trained architectures at `cycles`, counting the
    initial population; switching it off runs `cycles` evolution steps on
    top of the initial population.
    """

    pop_size: int = 10
    tournament_size: int = 5
    cycles: int = 200
    gen_size: Optional[int] = None
    init_candidates: Optional[int] = None
    parent_mode: str = "tournament"
    removal_mode: str = "oldest"
    guided: bool = True
    seed: int = 0
    proxy_cost_s: float = 0.05
    budget_counts_init: bool = True

    def __post_init__(self):
        if not self.guided or self.gen_size is None:
            object.__setattr__(self, "gen_size", self.pop_size if self.guided else 1)
        if self.init_candidates is None:
            object.__setattr__(
                self, "init_candidates", self.pop_size if not self.guided else self.cycles
            )
        if self.tournament_size < 1:
            raise ConfigError("tournament_size must be >= 1")
        if not 1 <= self.pop_size <= self.init_candidates:
            raise ConfigError("need 1 <= pop_size <= init_candidates")
        if self.cycles < self.pop_size:
            raise ConfigError("cycles must be >= pop_size")
        if self.gen_size < 1:
            raise ConfigError("gen_size must be >= 1")
        if self.parent_mode not in _PARENT_MODES:
            raise ConfigError(f"parent_mode must be one of {_PARENT_MODES}")
        if self.removal_mode not in _REMOVAL_MODES:
            raise ConfigError(f"removal_mode must be one of {_REMOVAL_MODES}")
        if self.proxy_cost_s < 0:
            raise ConfigError("proxy_cost_s must be nonnegative")


def rea_config(pop_size: int = 10, tournament_size: int = 5, cycles: int = 200,
               seed: int = 0, **overrides) -> SearchConfig:
    """Baseline aging-evolution configuration (no guidance)."""
    return SearchConfig(
        pop_size=pop_size,
        tournament_size=tournament_size,
        cycles=cycles,
        guided=False,
        seed=seed,
        **overrides,
    )


@dataclass(frozen=True)
class TrajectoryEvent:
    """One trained architecture, in training order."""

    event_index: int
    arch: ArchEncoding
    proxy_value: float
    fitness: float
    best_so_far: float
    simulated_time_s: float
    parent_arch: Optional[ArchEncoding] = None
    origin: str = "init"


@dataclass
class Trajectory:
    events: list = field(default_factory=list)
    best: Optional[Individual] = None
    best_test_acc: float = 0.0
    final_population: list = field(default_factory=list)
    n_proxy_evals: int = 0
    simulated_time_s: float = 0.0

    @property
    def n_trained(self) -> int:
        return len(self.events)


def _as_proxy(value) -> ProxyScore:
    return value if isinstance(value, ProxyScore) else ProxyScore(value=value)


def _scoring(cfg: SearchConfig, scorer: Optional[Scorer]) -> Callable:
    """The run's (arch, stream) -> ProxyScore function: the sentinel in an
    unguided run, which never calls `scorer`; otherwise `scorer`."""
    if not cfg.guided:
        return lambda arch, stream: ProxyScore.sentinel()
    if scorer is None:
        raise ConfigError("guided search needs a scorer")
    return lambda arch, stream: _as_proxy(scorer(arch, stream))


def _extremum(pop: list, mode: str) -> Individual:
    """The fitness-`highest` or `lowest` individual (ties: lowest birth_index)."""
    sign = -1 if mode == "highest" else 1
    return min(pop, key=lambda ind: (sign * ind.fitness, ind.birth_index))


def tournament_select(pop: list, cfg: SearchConfig, rng: RngStream) -> Individual:
    """Pick the parent for the next generation.

    tournament: S draws with replacement, fittest wins (ties: earliest
    draw).  highest/lowest: population-wide extremum (ties: lowest
    birth_index).
    """
    if not pop:
        raise ValueError("population is empty")
    if cfg.parent_mode == "tournament":
        draws = rng.integers(len(pop), size=cfg.tournament_size)
        best = None
        for i in draws:
            cand = pop[int(i)]
            if best is None or cand.fitness > best.fitness:
                best = cand
        return best
    return _extremum(pop, cfg.parent_mode)


def remove_survivor(pop: list, cfg: SearchConfig) -> Individual:
    """Evict one individual in place and return it.

    oldest: leftmost; highest/lowest: fitness extremum (ties: lowest
    birth_index).
    """
    if len(pop) != cfg.pop_size + 1:
        raise ValueError(f"population must be over capacity by exactly one, got {len(pop)}")
    if cfg.removal_mode == "oldest":
        return pop.pop(0)
    victim = _extremum(pop, cfg.removal_mode)
    pop.remove(victim)
    return victim


def spawn_generation(
    parent: Individual,
    cfg: SearchConfig,
    score_child: Callable[[ArchEncoding, RngStream], ProxyScore],
    cycle_stream: RngStream,
    trained: Collection[ArchEncoding] = frozenset(),
) -> tuple[ArchEncoding, ProxyScore]:
    """Mutate the parent gen_size times, score each child, keep the best.

    The best is the top-scoring child not in `trained` (the architectures
    the run has already trained); if every child is in it, the top-scoring
    child overall.  Under a frozen proxy the same parent would otherwise
    yield the same argmax child at every win.  Each child draws from its
    own indexed substream; ties (and the all-sentinel case) go to the
    lowest child index.
    """
    results = []
    for j in range(cfg.gen_size):
        sub = cycle_stream.child("child", j)
        arch = mutate(parent.arch, sub.child("mut"))
        results.append((arch, score_child(arch, sub.child("score"))))
    results = [r for r in results if r[0] not in trained] or results
    best_arch, best_score = results[0]
    for arch, ps in results[1:]:
        if ps.value > best_score.value:
            best_arch, best_score = arch, ps
    return best_arch, best_score


def init_population(
    cfg: SearchConfig,
    bench: Benchmark,
    scorer: Optional[Scorer],
    rng: RngStream,
    records: Optional[list] = None,
) -> tuple[list, list]:
    """Sample, score and filter the initial population.

    Returns (population, candidates); the population holds the pop_size
    best-by-proxy candidates (ties: lower birth index), in birth order,
    with fitness filled in from the oracle.  Unguided candidates all carry
    the sentinel score, so the first pop_size are kept.  `records`, when
    given, receives the oracle record of each kept individual in population
    order, so that a caller needs no second lookup.
    """
    score = _scoring(cfg, scorer)
    candidates = []
    for i in range(cfg.init_candidates):
        arch = random_arch(rng.child("init", i, "arch"))
        proxy = score(arch, rng.child("init", i, "score"))
        candidates.append(Individual(arch, proxy, None, birth_index=i, origin="init"))
    kept = sorted(candidates, key=lambda ind: (-ind.proxy.value, ind.birth_index))[: cfg.pop_size]
    kept.sort(key=lambda ind: ind.birth_index)
    for ind in kept:
        record = query(bench, ind.arch)
        ind.fitness = record.val_acc
        if records is not None:
            records.append(record)
    return kept, candidates


def run_search(
    cfg: SearchConfig,
    bench: Benchmark,
    scorer: Optional[Scorer] = None,
    rng: Optional[RngStream] = None,
    initial_population: Optional[list] = None,
) -> Trajectory:
    """Run one full search and return its trajectory.

    `initial_population` (e.g. from `load_checkpoint`) replaces the random
    initialization for transfer search: the loaded individuals are
    re-evaluated on this benchmark and count as the first pop_size trained
    architectures.  Every trained architecture, loaded ones included, joins
    the set that `spawn_generation` steers guided children away from; a
    repeat it falls back to is still charged one training slot.
    """
    score_child = _scoring(cfg, scorer)
    rng = rng if rng is not None else RngStream(cfg.seed)
    traj = Trajectory()
    clock = 0.0
    best: Optional[Individual] = None
    best_record = None
    trained: set = set()

    def log(ind: Individual, record, parent_arch=None) -> None:
        nonlocal clock, best, best_record
        clock += record.train_time_s
        trained.add(ind.arch)
        if best is None or ind.fitness > best.fitness:
            best, best_record = ind, record
        traj.events.append(
            TrajectoryEvent(
                event_index=len(traj.events),
                arch=ind.arch,
                proxy_value=ind.proxy.value,
                fitness=ind.fitness,
                best_so_far=best.fitness,
                simulated_time_s=clock,
                parent_arch=parent_arch,
                origin=ind.origin,
            )
        )

    pop: list
    records: list = []
    if initial_population is None:
        if cfg.guided:
            traj.n_proxy_evals += cfg.init_candidates
            clock += cfg.init_candidates * cfg.proxy_cost_s
        pop, _ = init_population(cfg, bench, scorer, rng, records=records)
        births = cfg.init_candidates
    else:
        if len(initial_population) != cfg.pop_size:
            raise ConfigError(
                f"initial population has {len(initial_population)} individuals, "
                f"expected pop_size={cfg.pop_size}"
            )
        records = [query(bench, ind.arch) for ind in initial_population]
        pop = [replace(ind, fitness=r.val_acc) for ind, r in zip(initial_population, records)]
        births = max(ind.birth_index for ind in pop) + 1
    for ind, record in zip(pop, records):
        log(ind, record)

    target = cfg.cycles if cfg.budget_counts_init else cfg.cycles + cfg.pop_size
    cycle = 0
    while len(traj.events) < target:
        stream = rng.child("cycle", cycle)
        parent = tournament_select(pop, cfg, stream.child("tournament"))
        if cfg.guided:
            traj.n_proxy_evals += cfg.gen_size
            clock += cfg.gen_size * cfg.proxy_cost_s
        child_arch, child_proxy = spawn_generation(parent, cfg, score_child, stream, trained=trained)
        record = query(bench, child_arch)
        child = Individual(
            child_arch, child_proxy, record.val_acc, birth_index=births, origin=f"cycle:{cycle}"
        )
        births += 1
        pop.append(child)
        log(child, record, parent_arch=parent.arch)
        remove_survivor(pop, cfg)
        if len(pop) != cfg.pop_size:
            raise RuntimeError("population size invariant violated")
        cycle += 1

    traj.best = best
    traj.best_test_acc = best_record.test_acc
    traj.final_population = pop
    traj.simulated_time_s = clock
    return traj


def run_random_search(cfg: SearchConfig, bench: Benchmark, rng: Optional[RngStream] = None) -> Trajectory:
    """Baseline: `cycles` independent uniform samples, answer is the argmax.

    This is the unguided initialization with every sample kept and no
    cycle run.  The samples form no population to evolve or transfer, so
    `final_population` stays empty.
    """
    n = cfg.cycles
    sampling = replace(cfg, guided=False, pop_size=n, init_candidates=None, budget_counts_init=True)
    traj = run_search(sampling, bench, rng=rng)
    traj.final_population = []
    return traj


# ---------------------------------------------------------------------------
# population checkpoints (transfer search)


def _proxy_to_json(proxy: ProxyScore):
    return "sentinel" if proxy.is_sentinel else proxy.value


def save_checkpoint(pop: list, path) -> None:
    """Persist a population, oldest first, for later transfer search."""
    doc = {
        "space": {"nodes": NUM_NODES, "ops": list(OP_NAMES)},
        "individuals": [
            {
                "arch": encode_str(ind.arch),
                "fitness": ind.fitness,
                "proxy": _proxy_to_json(ind.proxy),
                "birth_index": ind.birth_index,
            }
            for ind in pop
        ],
    }
    Path(path).write_text(json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n", "utf-8")


def load_checkpoint(path) -> list:
    """Load a population saved by save_checkpoint, verifying the space."""
    try:
        doc = json.loads(Path(path).read_text("utf-8"))
    except json.JSONDecodeError as exc:
        raise CheckpointError(f"{path}: invalid JSON: {exc}") from None
    space_doc = doc.get("space", {})
    if space_doc.get("nodes") != NUM_NODES or tuple(space_doc.get("ops", ())) != OP_NAMES:
        raise CheckpointError(f"{path}: checkpoint space {space_doc!r} does not match target space")
    pop = []
    last_birth = None
    for idx, row in enumerate(doc.get("individuals", [])):
        try:
            arch = decode_str(row["arch"])
            fitness = float(row["fitness"])
            proxy = ProxyScore.sentinel() if row["proxy"] == "sentinel" else ProxyScore(float(row["proxy"]))
            birth = int(row["birth_index"])
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckpointError(f"{path}: individual {idx} is malformed: {exc}") from None
        if last_birth is not None and birth <= last_birth:
            raise CheckpointError(f"{path}: birth_index must increase along the population")
        last_birth = birth
        pop.append(Individual(arch, proxy, fitness, birth, origin="init"))
    return pop
