"""Fitness oracles: file-backed tabular benchmarks and synthetic landscapes.

A Benchmark holds validation/test accuracy and a simulated training cost
for every one of the 15625 genotypes, replacing actual training during
search, as float64 arrays indexed by genotype: an ArchEncoding indexes them
directly (`bench.val_acc[arch]`).  Tabular files follow the JSON schema
documented in `save_tabular`, one record per genotype, unchanged by that
layout; `gen_synthetic` builds a seeded landscape with a known global optimum and a
companion proxy map calibrated to a requested rank correlation with the
fitness, which stands in for real benchmark data in experiments and tests.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .cellspace import (
    EDGES,
    NUM_EDGES,
    NUM_NODES,
    OP_NAMES,
    SPACE_SIZE,
    ArchEncoding,
    OpKind,
    _strings,
    decode_str,
    encode_str,
    matches_space,
    space_doc,
)
from .config import ConfigError, check_fields
from .rng import RngStream
from .stats import TauAgainst

__all__ = [
    "FitnessRecord",
    "Benchmark",
    "SyntheticSpec",
    "BenchmarkError",
    "CalibrationError",
    "load_tabular",
    "save_tabular",
    "query",
    "gen_synthetic",
    "best_of",
]


class BenchmarkError(ValueError):
    """Malformed or incomplete benchmark."""


class CalibrationError(RuntimeError):
    """Requested proxy-fitness rank correlation could not be reached."""


@dataclass(frozen=True)
class FitnessRecord:
    """One genotype's row of a Benchmark."""

    val_acc: float
    test_acc: float
    train_time_s: float


@dataclass
class Benchmark:
    """Fitness of every genotype, as float64 arrays indexed by genotype.

    Each array holds SPACE_SIZE entries; `synthetic_proxy` is the proxy map
    of a synthetic landscape, or None.  Accuracies must lie in [0, 100] and
    training times must be finite and nonnegative.
    """

    dataset_name: str
    val_acc: np.ndarray
    test_acc: np.ndarray
    train_time_s: np.ndarray
    synthetic_proxy: np.ndarray | None = None

    def __post_init__(self):
        names = ["val_acc", "test_acc", "train_time_s"]
        if self.synthetic_proxy is not None:
            names.append("synthetic_proxy")
        for name in names:
            values = np.asarray(getattr(self, name), dtype=np.float64)
            if values.shape != (SPACE_SIZE,):
                raise BenchmarkError(
                    f"benchmark must cover all {SPACE_SIZE} architectures, got {name} of shape {values.shape}"
                )
            setattr(self, name, values)
        val, test, time = self.val_acc, self.test_acc, self.train_time_s
        ok = (val >= 0.0) & (val <= 100.0) & (test >= 0.0) & (test <= 100.0)
        ok &= np.isfinite(time) & (time >= 0.0)
        if not ok.all():
            k = int(np.argmin(ok))
            raise BenchmarkError(
                f"invalid fitness for {ArchEncoding.from_index(k)}: {_record(self, k)}; "
                "accuracies must lie in [0, 100] and train_time_s must be finite and nonnegative"
            )


@dataclass(frozen=True)
class SyntheticSpec:
    """Knobs for the generated landscape.

    `interaction_scale` weights pairwise terms between edges that share a
    node (0 gives a separable landscape whose optimum is the per-edge
    argmax); `noise_std` adds per-architecture roughness before rescaling.
    """

    seed: int
    noise_std: float = 0.0
    target_proxy_tau: float = 1.0
    interaction_scale: float = 0.0

    def __post_init__(self):
        check_fields(self)
        if self.noise_std < 0.0:
            raise ConfigError("noise_std must be nonnegative")
        if not -1.0 <= self.target_proxy_tau <= 1.0:
            raise ConfigError("target_proxy_tau must lie in [-1, 1]")


def _record(bench: Benchmark, k: int) -> FitnessRecord:
    return FitnessRecord(float(bench.val_acc[k]), float(bench.test_acc[k]), float(bench.train_time_s[k]))


def query(bench: Benchmark, arch: ArchEncoding) -> FitnessRecord:
    """Pure lookup of one genotype's row, as Python floats."""
    return _record(bench, arch)


def best_of(bench: Benchmark) -> tuple[ArchEncoding, FitnessRecord]:
    """Exhaustive argmax over val_acc; ties go to the lexicographically
    first encoding."""
    k = int(np.argmax(bench.val_acc))
    return ArchEncoding.from_index(k), _record(bench, k)


# ---------------------------------------------------------------------------
# tabular file I/O

def _json_floats(column: np.ndarray) -> list:
    """Each value as json.dumps spells it: repr, or NaN/Infinity/-Infinity."""
    texts = list(map(float.__repr__, column.tolist()))
    for k in np.flatnonzero(~np.isfinite(column)).tolist():
        texts[k] = json.dumps(float(column[k]))
    return texts


def save_tabular(bench: Benchmark, path) -> None:
    """Write the benchmark as UTF-8 JSON.

    Schema: {"space": {"nodes": 4, "ops": [...]}, "dataset": str,
    "records": [{"arch": str, "val_acc": x, "test_acc": x,
    "train_time_s": x}, ...]} with records in enumeration order.  When the
    benchmark carries a synthetic proxy map, each record additionally holds
    a "proxy" value; plain files without it load fine.

    The text is what json.dumps(doc, sort_keys=True, separators=(",", ":"))
    gives, formatted from the columns: keys in sorted order, and canonical
    arch strings need no escaping.
    """
    columns = {"val_acc": bench.val_acc, "test_acc": bench.test_acc, "train_time_s": bench.train_time_s}
    if bench.synthetic_proxy is not None:
        columns["proxy"] = bench.synthetic_proxy
    keys = sorted(columns)  # "arch" sorts before all of them
    record = "{" + ",".join(['"arch":"%s"'] + [f'"{key}":%s' for key in keys]) + "}"
    records = ",".join(map(record.__mod__, zip(_strings(), *(_json_floats(columns[key]) for key in keys))))
    space = json.dumps(space_doc(), sort_keys=True, separators=(",", ":"))
    text = f'{{"dataset":{json.dumps(bench.dataset_name)},"records":[{records}],"space":{space}}}\n'
    Path(path).write_text(text, "utf-8")


def _number(row: dict, key: str) -> float:
    """row[key], a JSON number (NaN and Infinity included), as a float; a bool is no number."""
    value = row[key]
    if type(value) is float:
        return value
    if type(value) is not int:
        raise TypeError(f"{key} must be a number, got {type(value).__name__}")
    try:
        return float(value)
    except OverflowError:
        raise TypeError(f"{key} must be a number, got an int past float range") from None


def load_tabular(path) -> Benchmark:
    """Read and validate a tabular benchmark file (see save_tabular).

    Records may come in any order; each fills its genotype's array slot.
    """
    text = Path(path).read_text("utf-8")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise BenchmarkError(
            f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from None
    if not isinstance(doc, dict):
        raise BenchmarkError(f"{path}: a benchmark file is a JSON object, got {type(doc).__name__}")
    for key in ("space", "dataset", "records"):
        if key not in doc:
            raise BenchmarkError(f"{path}: missing top-level key {key!r}")
    if not isinstance(doc["dataset"], str):
        raise BenchmarkError(f"{path}: dataset must be a string, got {type(doc['dataset']).__name__}")
    if not matches_space(doc["space"]):
        raise BenchmarkError(
            f"{path}: space descriptor {doc['space']!r} does not match "
            f"nodes={NUM_NODES}, ops={list(OP_NAMES)}"
        )
    if not isinstance(doc["records"], list):
        raise BenchmarkError(f"{path}: records must be a list, got {type(doc['records']).__name__}")
    seen = bytearray(SPACE_SIZE)
    slots, vals, tests, times, proxies = [], [], [], [], []  # per record; proxies where present
    for idx, row in enumerate(doc["records"]):
        try:
            k = decode_str(row["arch"])
            val, test, time = _number(row, "val_acc"), _number(row, "test_acc"), _number(row, "train_time_s")
            if "proxy" in row:
                proxies.append(_number(row, "proxy"))
        except (KeyError, TypeError, ValueError) as exc:
            raise BenchmarkError(f"{path}: record {idx} is malformed: {exc}") from None
        if seen[k]:
            raise BenchmarkError(f"{path}: duplicate arch string at record {idx}: {row['arch']!r}")
        seen[k] = 1
        slots.append(k)
        vals.append(val)
        tests.append(test)
        times.append(time)
    if len(slots) < SPACE_SIZE:
        absent = np.flatnonzero(~np.frombuffer(seen, bool))[:5]
        missing = [encode_str(ArchEncoding.from_index(k)) for k in absent]
        raise BenchmarkError(
            f"{path}: incomplete benchmark: {len(slots)} of {SPACE_SIZE} "
            f"architectures present; missing e.g. {missing}"
        )
    if 0 < len(proxies) < SPACE_SIZE:
        raise BenchmarkError(f"{path}: proxy values present on some records but not all")
    columns = [vals, tests, times] + ([proxies] if proxies else [])
    table = np.empty((len(columns), SPACE_SIZE))
    table[:, slots] = columns
    return Benchmark(doc["dataset"], *table)


# ---------------------------------------------------------------------------
# synthetic landscape

# Edge pairs sharing a node; their joint op choice gets an interaction term.
_ADJACENT_PAIRS = tuple(
    (i, j)
    for i in range(NUM_EDGES)
    for j in range(i + 1, NUM_EDGES)
    if set(EDGES[i]) & set(EDGES[j])
)


def _calibrate_proxy(val: np.ndarray, eta: np.ndarray, target: float) -> np.ndarray:
    """Find a noise amplitude so kendall_tau(base + amp*eta, val) hits target.

    The measured tau is monotone in the amplitude (toward 0 as amp grows),
    so bisection converges; the space is small enough to measure tau
    exhaustively at every step.  The steps measure through one TauAgainst
    of `val`: val is ranked once, and each step recounts discordant pairs
    only among the genotypes whose proxy order moved since the previous
    step (an element in place keeps its order against every other one), so
    the late bisection steps, which move few genotypes, cost little.  Every
    step's tau is exactly kendall_tau's.
    """
    base = val if target >= 0 else -val
    tau = TauAgainst(val)
    if abs(tau(base) - target) <= 1e-9:
        return base.copy()

    def measured(amp: float) -> float:
        return tau(base + amp * eta)

    span = float(val.max() - val.min()) or 1.0
    lo, hi = 0.0, span
    for _ in range(60):
        t_hi = measured(hi)
        if (t_hi <= target) if target >= 0 else (t_hi >= target):
            break
        if abs(t_hi - target) <= 0.04:
            # tau has flattened near its large-amplitude asymptote but is
            # already inside the tolerance; take this amplitude as is
            return base + hi * eta
        lo, hi = hi, hi * 2.0
    else:
        raise CalibrationError(f"could not bracket target tau {target}")
    for _ in range(50):
        mid = 0.5 * (lo + hi)
        t_mid = measured(mid)
        if (t_mid > target) if target >= 0 else (t_mid < target):
            lo = mid
        else:
            hi = mid
    amp = 0.5 * (lo + hi)
    proxy = base + amp * eta
    got = tau(proxy)
    if abs(got - target) > 0.05:
        raise CalibrationError(f"target tau {target} unreachable; calibrated to {got:.4f}")
    return proxy


def gen_synthetic(spec: SyntheticSpec) -> Benchmark:
    """Deterministic landscape over the full space.

    Per-(edge, op) utilities are standard normal; architectures score the
    sum of their edge utilities plus interaction terms for node-sharing
    edge pairs plus optional noise, affinely rescaled into [0, 100].
    test_acc is val_acc plus seeded normal noise of std 0.5; train_time_s is
    uniform in [5, 15].  The proxy map is val_acc plus calibrated noise so
    its Kendall tau against val_acc lands within 0.05 of the target.
    """
    root = RngStream(spec.seed, ("synthetic-benchmark",))
    n_ops = len(OpKind)
    utilities = root.child("edge-utils").normal(size=(NUM_EDGES, n_ops))
    # row k holds the edge op indices of genotype k: its base-n_ops digits, first edge most significant
    places = n_ops ** np.arange(NUM_EDGES - 1, -1, -1)
    combos = np.arange(SPACE_SIZE)[:, None] // places % n_ops
    raw = utilities[np.arange(NUM_EDGES), combos].sum(axis=1)
    if spec.interaction_scale:
        for i, j in _ADJACENT_PAIRS:
            table = root.child("interaction", i, j).normal(size=(n_ops, n_ops))
            raw = raw + spec.interaction_scale * table[combos[:, i], combos[:, j]]
    if spec.noise_std:
        raw = raw + spec.noise_std * root.child("fitness-noise").normal(size=raw.size)
    lo, hi = float(raw.min()), float(raw.max())
    if hi == lo:
        val = np.full_like(raw, 50.0)
    else:
        val = np.clip((raw - lo) / (hi - lo) * 100.0, 0.0, 100.0)
    test = np.clip(val + 0.5 * root.child("test-noise").normal(size=raw.size), 0.0, 100.0)
    times = root.child("train-time").uniform(5.0, 15.0, size=raw.size)
    proxy = _calibrate_proxy(val, root.child("proxy-noise").normal(size=raw.size), spec.target_proxy_tau)
    return Benchmark(f"synthetic-{spec.seed}", val, test, times, proxy)
