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

A run has one scoring step and one training step.  Scoring takes a whole
generation at once (the initial candidates, then each cycle's children)
and charges the run's proxy evaluations and simulated time; the scorer is
called once per candidate, generation by generation, in index order; its
`score_stream` makes a score depend only on the run seed and the genotype.
Training is one oracle query per trained architecture, whether initial,
transferred or a child, and logs one trajectory event.

Guided mode off degenerates to the classic aging-evolution baseline:
init_candidates == pop_size, one child per cycle, and no proxy calls or
proxy cost (every individual carries the sentinel score).  Those unguided
defaults are set in `SearchConfig.__post_init__` alone, and `_scoring`
alone decides whether a run calls its scorer and pays `PROXY_COST_S` of
simulated time per call.

`METHODS` names the compared search methods and `method_config` alone
states the search each one runs: GEA is the guided run, REA (aging
evolution) the unguided one, and random search (RS) the unguided
initialization with pop_size == init_candidates == cycles, so every sample
is kept and no cycle runs.  Every method runs through `run_search`.

Every random draw comes from a named substream of the run stream
`RngStream(seed)`, so trajectories are reproducible event for event:

    ("init", i, "arch")
    ("cycle", c, "tournament")
    ("cycle", c, "child", j, "mut")
    ("score", k)    the scorer's, for genotype index k
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Collection, Optional

from .cellspace import ArchEncoding, decode_str, encode_str, matches_space, mutate, random_arch, space_doc
from .config import ConfigError, check_fields, is_int, is_real
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
    "score_stream",
    "METHODS",
    "method_config",
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

# A scorer maps (arch, its score_stream) to a ProxyScore; the stream seeds
# whatever randomness the scorer needs (e.g. network initialization).
Scorer = Callable[[ArchEncoding, RngStream], ProxyScore]

# simulated seconds charged per proxy scoring of a guided run
PROXY_COST_S = 0.05

_PARENT_MODES = ("tournament", "highest", "lowest")
_REMOVAL_MODES = ("oldest", "highest", "lowest")


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

    `cycles` is the number of trained architectures, the initial population
    included.  `gen_size` defaults to `pop_size` and `init_candidates` to
    `cycles`.  `guided=False` gives baseline aging-evolution semantics: no
    proxy calls or proxy cost (every score is the sentinel), one child per
    cycle (gen_size is forced to 1), and `init_candidates` defaults to
    `pop_size`.  `method_config` states which of these fields each search
    method reads.
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

    def __post_init__(self):
        check_fields(self)
        if not self.guided or self.gen_size is None:
            object.__setattr__(self, "gen_size", self.pop_size if self.guided else 1)
        if self.init_candidates is None:
            object.__setattr__(self, "init_candidates", self.pop_size if not self.guided else self.cycles)
        if self.pop_size > self.init_candidates:
            raise ConfigError("need pop_size <= init_candidates")
        if self.cycles < self.pop_size:
            raise ConfigError("cycles must be >= pop_size")
        if self.parent_mode not in _PARENT_MODES:
            raise ConfigError(f"parent_mode must be one of {_PARENT_MODES}")
        if self.removal_mode not in _REMOVAL_MODES:
            raise ConfigError(f"removal_mode must be one of {_REMOVAL_MODES}")


METHODS = ("gea", "rea", "rs")


def method_config(method: str, base: SearchConfig, **fields) -> SearchConfig:
    """The search `method` runs from `base`, with `fields` replaced in one
    step.  gea: guided.  rea: unguided, leaving `gen_size` and
    `init_candidates` to SearchConfig.  rs: `cycles` uniform samples, all
    kept, so it reads only `cycles` and `seed`."""
    if method == "rs":
        cycles, seed = (fields.get(name, getattr(base, name)) for name in ("cycles", "seed"))
        return SearchConfig(pop_size=cycles, cycles=cycles, guided=False, seed=seed)
    if method not in METHODS:
        raise ConfigError(f"method must be one of {METHODS}, got {method!r}")
    run = {"guided": True} if method == "gea" else {"guided": False, "gen_size": None, "init_candidates": None}
    return replace(base, **{**fields, **run})


def rea_config(**fields) -> SearchConfig:
    """Baseline aging-evolution configuration (no guidance); `fields` and
    their defaults are SearchConfig's."""
    return SearchConfig(guided=False, **fields)


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


def score_stream(rng: RngStream, arch: ArchEncoding) -> RngStream:
    """The stream that seeds the scoring of `arch` in the run of stream `rng`."""
    return rng.child("score", int(arch))  # RngStream hashes repr(path): the index, not the genotype


def _scoring(cfg: SearchConfig, scorer: Optional[Scorer], traj: Trajectory, rng: RngStream) -> Callable[[list], list]:
    """The run's scoring step, archs -> [ProxyScore] in order.

    Unguided, it returns sentinels, never calls `scorer` and charges
    nothing.  Guided, it calls `scorer(arch, score_stream(rng, arch))` per
    arch and charges `traj` one proxy evaluation and `PROXY_COST_S` each.
    """
    if not cfg.guided:
        return lambda archs: [ProxyScore.sentinel() for _ in archs]
    if scorer is None:
        raise ConfigError("guided search needs a scorer")

    def score(archs: list) -> list:
        traj.n_proxy_evals += len(archs)
        traj.simulated_time_s += len(archs) * PROXY_COST_S
        return [scorer(arch, score_stream(rng, arch)) for arch in archs]

    return score


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
        return max((pop[int(i)] for i in draws), key=lambda ind: ind.fitness)
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
    score: Callable[[list], list],
    cycle_stream: RngStream,
    trained: Collection[ArchEncoding] = frozenset(),
) -> tuple[ArchEncoding, ProxyScore]:
    """Mutate the parent gen_size times, score the children in one call,
    keep the best.

    The best is the top-scoring child not in `trained` (the architectures
    the run has already trained); if every child is in it, the top-scoring
    child overall.  Under a frozen proxy the same parent would otherwise
    yield the same argmax child at every win.  Each child draws from its
    own indexed substream; ties (and the all-sentinel case) go to the
    lowest child index.
    """
    archs = [mutate(parent.arch, cycle_stream.child("child", j, "mut")) for j in range(cfg.gen_size)]
    results = list(zip(archs, score(archs)))
    results = [r for r in results if r[0] not in trained] or results
    return max(results, key=lambda r: r[1].value)


def init_population(cfg: SearchConfig, score: Callable[[list], list], rng: RngStream) -> tuple[list, list]:
    """Sample the init_candidates, score them in one call and filter.

    Returns (population, candidates); the population holds the pop_size
    best-by-proxy candidates (ties: lower birth index), in birth order, not
    yet trained (fitness None).  Unguided candidates all carry the sentinel
    score, so the first pop_size are kept.
    """
    archs = [random_arch(rng.child("init", i, "arch")) for i in range(cfg.init_candidates)]
    candidates = [Individual(arch, proxy, None, i, "init") for i, (arch, proxy) in enumerate(zip(archs, score(archs)))]
    kept = sorted(candidates, key=lambda ind: (-ind.proxy.value, ind.birth_index))[: cfg.pop_size]
    kept.sort(key=lambda ind: ind.birth_index)
    return kept, candidates


def run_search(
    cfg: SearchConfig,
    bench: Benchmark,
    scorer: Optional[Scorer] = None,
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
    traj = Trajectory()
    rng = RngStream(cfg.seed)
    score = _scoring(cfg, scorer, traj, rng)
    trained: set = set()

    def train(ind: Individual, parent_arch: Optional[ArchEncoding] = None) -> Individual:
        """Query the oracle once; return the trained individual, logged."""
        record = query(bench, ind.arch)
        ind = replace(ind, fitness=record.val_acc)
        traj.simulated_time_s += record.train_time_s
        trained.add(ind.arch)
        if traj.best is None or ind.fitness > traj.best.fitness:
            traj.best, traj.best_test_acc = ind, record.test_acc
        traj.events.append(
            TrajectoryEvent(
                event_index=len(traj.events),
                arch=ind.arch,
                proxy_value=ind.proxy.value,
                fitness=ind.fitness,
                best_so_far=traj.best.fitness,
                simulated_time_s=traj.simulated_time_s,
                parent_arch=parent_arch,
                origin=ind.origin,
            )
        )
        return ind

    if initial_population is None:
        pop, _ = init_population(cfg, score, rng)
        first_birth = cfg.init_candidates
    else:
        if len(initial_population) != cfg.pop_size:
            raise ConfigError(
                f"initial population has {len(initial_population)} individuals, "
                f"expected pop_size={cfg.pop_size}"
            )
        pop = initial_population
        first_birth = max(ind.birth_index for ind in pop) + 1
    pop = [train(ind) for ind in pop]

    for cycle in range(cfg.cycles - cfg.pop_size):
        stream = rng.child("cycle", cycle)
        parent = tournament_select(pop, cfg, stream.child("tournament"))
        arch, proxy = spawn_generation(parent, cfg, score, stream, trained=trained)
        pop.append(train(Individual(arch, proxy, None, first_birth + cycle, f"cycle:{cycle}"), parent.arch))
        remove_survivor(pop, cfg)

    traj.final_population = pop
    return traj


def run_random_search(cfg: SearchConfig, bench: Benchmark) -> Trajectory:
    """Baseline: `cycles` independent uniform samples, answer is the argmax.

    This is the unguided initialization with every sample kept and no
    cycle run.  The samples form no population to evolve or transfer, so
    `final_population` stays empty.
    """
    traj = run_search(method_config("rs", cfg), bench)
    traj.final_population = []
    return traj


# ---------------------------------------------------------------------------
# population checkpoints (transfer search)


def _proxy_to_json(proxy: ProxyScore):
    return "sentinel" if proxy.is_sentinel else proxy.value


def save_checkpoint(pop: list, path) -> None:
    """Persist a population, oldest first, for later transfer search."""
    doc = {
        "space": space_doc(),
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
    if not isinstance(doc, dict):
        raise CheckpointError(f"{path}: a checkpoint is a JSON object, got {type(doc).__name__}")
    space = doc.get("space", {})
    if not matches_space(space):
        raise CheckpointError(f"{path}: checkpoint space {space!r} does not match target space")
    rows = doc.get("individuals", [])
    if not isinstance(rows, list):
        raise CheckpointError(f"{path}: individuals must be a list, got {type(rows).__name__}")
    pop = []
    last_birth = None
    for idx, row in enumerate(rows):
        try:
            arch, fitness, proxy, birth = decode_str(row["arch"]), row["fitness"], row["proxy"], row["birth_index"]
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise CheckpointError(f"{path}: individual {idx} is malformed: {exc}") from None
        if not (is_real(fitness) and (proxy == "sentinel" or is_real(proxy)) and is_int(birth)):
            raise CheckpointError(f"{path}: individual {idx} needs finite fitness and proxy, int birth_index")
        if last_birth is not None and birth <= last_birth:
            raise CheckpointError(f"{path}: birth_index must increase along the population")
        last_birth = birth
        proxy = ProxyScore.sentinel() if proxy == "sentinel" else ProxyScore(proxy)
        pop.append(Individual(arch, proxy, float(fitness), birth, origin="init"))
    return pop
