"""Cell-based architecture genotype: sampling, mutation, enumeration, string codec.

A cell is a DAG over 4 nodes with one operation on each of the 6 edges
(0->1), (0->2), (1->2), (0->3), (1->3), (2->3).  With 5 operation kinds the
space holds 5**6 = 15625 genotypes, indexed (`ArchEncoding.__index__`) by
their edge ops read as base-5 digits, edge 0 most significant.  The
canonical string encoding groups edges by destination node, e.g.

    |nor_conv_3x3~0|+|skip_connect~0|none~1|+|skip_connect~0|nor_conv_1x1~1|avg_pool_3x3~2|

which is the interchange format used by tabular benchmark files and the CLI.
"""

from __future__ import annotations

import enum
import itertools
import operator
from dataclasses import dataclass
from typing import Iterator

from .rng import RngStream

__all__ = [
    "OpKind",
    "ArchEncoding",
    "ArchParseError",
    "EDGES",
    "NUM_NODES",
    "NUM_EDGES",
    "SPACE_SIZE",
    "random_arch",
    "mutate",
    "enumerate_all",
    "encode_str",
    "decode_str",
]

NUM_NODES = 4
# Edge order: grouped by destination node, sources ascending.
EDGES: tuple[tuple[int, int], ...] = ((0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (2, 3))
NUM_EDGES = len(EDGES)


class OpKind(enum.IntEnum):
    """The 5 edge operations; integer value is the canonical index."""

    ZEROIZE = 0
    SKIP_CONNECT = 1
    CONV1X1 = 2
    CONV3X3 = 3
    AVGPOOL3X3 = 4


# Canonical operation names used by the string codec and benchmark files.
OP_NAMES: tuple[str, ...] = (
    "none",
    "skip_connect",
    "nor_conv_1x1",
    "nor_conv_3x3",
    "avg_pool_3x3",
)
_NAME_TO_OP = {name: OpKind(i) for i, name in enumerate(OP_NAMES)}
SPACE_SIZE = len(OP_NAMES) ** NUM_EDGES


class ArchParseError(ValueError):
    """Raised when an architecture string does not match the codec grammar."""


@dataclass(frozen=True)
class ArchEncoding:
    """Genotype: one OpKind per edge, in EDGES order."""

    edge_ops: tuple[OpKind, ...]

    def __post_init__(self):
        if len(self.edge_ops) != NUM_EDGES:
            raise ValueError(f"expected {NUM_EDGES} edge operations, got {len(self.edge_ops)}")
        object.__setattr__(self, "edge_ops", tuple(OpKind(op) for op in self.edge_ops))

    @property
    def indices(self) -> tuple[int, ...]:
        return tuple(int(op) for op in self.edge_ops)

    def hamming(self, other: "ArchEncoding") -> int:
        return sum(a != b for a, b in zip(self.edge_ops, other.edge_ops))

    def __index__(self) -> int:
        """Position in enumerate_all order: base 5 over EDGES, edge 0 most significant."""
        k = 0
        for op in self.edge_ops:
            k = k * len(OP_NAMES) + op
        return k

    @classmethod
    def from_index(cls, k) -> "ArchEncoding":
        """Inverse of __index__."""
        k = operator.index(k)
        if not 0 <= k < SPACE_SIZE:
            raise ValueError(f"genotype index must lie in [0, {SPACE_SIZE}), got {k}")
        ops = []
        for _ in range(NUM_EDGES):
            k, op = divmod(k, len(OP_NAMES))
            ops.append(op)
        return cls(tuple(reversed(ops)))

    def __str__(self) -> str:
        return encode_str(self)


def random_arch(rng: RngStream) -> ArchEncoding:
    """Sample a genotype uniformly; consumes exactly one 6-integer draw."""
    idx = rng.integers(len(OP_NAMES), size=NUM_EDGES)
    return ArchEncoding(tuple(OpKind(int(i)) for i in idx))


def mutate(parent: ArchEncoding, rng: RngStream) -> ArchEncoding:
    """Replace the operation on one uniformly chosen edge.

    The replacement is drawn uniformly from the 4 kinds different from the
    current one, so the child is never equal to the parent and every
    (parent, child) pair at Hamming distance 1 has probability 1/24.
    """
    edge = int(rng.integers(NUM_EDGES))
    alternatives = [op for op in OpKind if op != parent.edge_ops[edge]]
    new_op = alternatives[int(rng.integers(len(alternatives)))]
    ops = list(parent.edge_ops)
    ops[edge] = new_op
    return ArchEncoding(tuple(ops))


def enumerate_all() -> Iterator[ArchEncoding]:
    """All 15625 genotypes, in index order (lexicographic in edge op indices)."""
    for combo in itertools.product(OpKind, repeat=NUM_EDGES):
        yield ArchEncoding(combo)


def encode_str(arch: ArchEncoding) -> str:
    """Canonical string: edges grouped by destination node, '~<source>' suffix."""
    groups = []
    pos = 0
    for dest in range(1, NUM_NODES):
        parts = []
        for src in range(dest):
            op = arch.edge_ops[pos]
            parts.append(f"{OP_NAMES[op]}~{src}")
            pos += 1
        groups.append("|" + "|".join(parts) + "|")
    return "+".join(groups)


def decode_str(text: str) -> ArchEncoding:
    """Inverse of encode_str; raises ArchParseError naming the bad token."""
    groups = text.split("+")
    if len(groups) != 3:
        raise ArchParseError(f"expected 3 '+'-separated node groups, got {len(groups)}: {text!r}")
    ops: list[OpKind] = []
    for gi, group in enumerate(groups):
        dest = gi + 1
        if not (group.startswith("|") and group.endswith("|")) or len(group) < 2:
            raise ArchParseError(f"group {gi} must be '|'-delimited, got {group!r}")
        tokens = group[1:-1].split("|")
        if len(tokens) != dest:
            raise ArchParseError(
                f"group {gi} expects {dest} edge token(s) (edges into node {dest}), got {len(tokens)}"
            )
        for ti, token in enumerate(tokens):
            name, sep, src_text = token.partition("~")
            if not sep:
                raise ArchParseError(f"token {token!r} (group {gi}, position {ti}) is missing '~<source>'")
            if name not in _NAME_TO_OP:
                raise ArchParseError(f"unknown op name {name!r} in token {token!r} (group {gi}, position {ti})")
            try:
                src = int(src_text)
            except ValueError:
                raise ArchParseError(f"bad source index {src_text!r} in token {token!r}") from None
            if src != ti:
                raise ArchParseError(
                    f"token {token!r} (group {gi}, position {ti}) has source {src}, expected {ti}"
                )
            ops.append(_NAME_TO_OP[name])
    return ArchEncoding(tuple(ops))
