"""Cell-based architecture genotype: sampling, mutation, enumeration, string codec.

A cell is a DAG over 4 nodes with one operation on each of the 6 edges
(0->1), (0->2), (1->2), (0->3), (1->3), (2->3).  With 5 operation kinds the
space holds 5**6 = 15625 genotypes, indexed by their edge ops read as
base-5 digits, edge 0 most significant.  An ArchEncoding is an `int` whose
value is that index, so it equals, hashes and indexes arrays as the index
does; only its repr and str name the edge ops.  Sampling, mutation,
enumeration and decoding return canonical instances from a table of all
15625 built on first use.  `mutate` puts the r-th other op in OpKind order,
`new = r + (r >= op)`, on `edge`: the child is `k + (new - op) * 5**(5 - edge)`.
The canonical string encoding groups edges by destination node, e.g.

    |nor_conv_3x3~0|+|skip_connect~0|none~1|+|skip_connect~0|nor_conv_1x1~1|avg_pool_3x3~2|

which is the interchange format used by tabular benchmark files and the CLI.
The 15625 canonical strings are also a table built on first use, so
encoding is an index and decoding a canonical string one dict lookup.
`canonical(arch)` sets each edge on no node-0-to-node-3 path of non-`none`
edges to `none`: 9445 classes, the 341 zero-output genotypes mapped to 0.
"""

from __future__ import annotations

import enum
import functools
import itertools
import operator
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
    "canonical",
    "encode_str",
    "decode_str",
    "space_doc",
    "matches_space",
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
_OPS = tuple(OpKind)
_PLACES = tuple(len(OP_NAMES) ** (NUM_EDGES - 1 - e) for e in range(NUM_EDGES))  # digit place values


def space_doc() -> dict:
    """The space descriptor that benchmark and checkpoint files carry."""
    return {"nodes": NUM_NODES, "ops": list(OP_NAMES)}


def matches_space(doc) -> bool:
    """Whether a file's space descriptor names this search space."""
    return isinstance(doc, dict) and doc.get("nodes") == NUM_NODES and doc.get("ops") == list(OP_NAMES)


class ArchParseError(ValueError):
    """Raised when an architecture string does not match the codec grammar."""


def _fold(digits) -> int:
    """Genotype index of edge op digits: base 5, edge 0 most significant."""
    k = 0
    for d in digits:
        k = k * len(OP_NAMES) + d
    return k


class ArchEncoding(int):
    """Genotype: one OpKind per edge, in EDGES order; an int whose value is its index."""

    __slots__ = ()

    def __new__(cls, edge_ops):
        if len(edge_ops) != NUM_EDGES:
            raise ValueError(f"expected {NUM_EDGES} edge operations, got {len(edge_ops)}")
        return super().__new__(cls, _fold(OpKind(op) for op in edge_ops))

    def __reduce__(self):
        return ArchEncoding.from_index, (int(self),)

    def __repr__(self) -> str:
        return f"ArchEncoding(edge_ops={self.edge_ops!r})"

    @property
    def edge_ops(self) -> tuple[OpKind, ...]:
        return tuple([_OPS[d] for d in self.indices])

    @property
    def indices(self) -> tuple[int, ...]:
        return tuple([self // p % len(OP_NAMES) for p in _PLACES])

    def hamming(self, other: "ArchEncoding") -> int:
        return sum(a != b for a, b in zip(self.edge_ops, other.edge_ops))

    @classmethod
    def from_index(cls, k) -> "ArchEncoding":
        """The canonical instance of index `k`, its position in enumerate_all order."""
        k = operator.index(k)
        if not 0 <= k < SPACE_SIZE:
            raise ValueError(f"genotype index must lie in [0, {SPACE_SIZE}), got {k}")
        return _table()[k]

    def __str__(self) -> str:
        return encode_str(self)


@functools.cache
def _table() -> tuple[ArchEncoding, ...]:
    """The canonical instance of every genotype, in index order."""
    return tuple(int.__new__(ArchEncoding, k) for k in range(SPACE_SIZE))


def random_arch(rng: RngStream) -> ArchEncoding:
    """Sample a genotype uniformly; consumes exactly one 6-integer draw."""
    return _table()[_fold(rng.integers(len(OP_NAMES), size=NUM_EDGES).tolist())]


def mutate(parent: ArchEncoding, rng: RngStream) -> ArchEncoding:
    """Replace the operation on one uniformly chosen edge.

    The replacement is drawn uniformly from the 4 kinds different from the
    current one, so the child is never equal to the parent and every
    (parent, child) pair at Hamming distance 1 has probability 1/24.
    """
    edge = int(rng.integers(NUM_EDGES))
    op = parent // _PLACES[edge] % len(OP_NAMES)
    r = int(rng.integers(len(OP_NAMES) - 1))
    new_op = r + (r >= op)
    return _table()[parent + (new_op - op) * _PLACES[edge]]


def enumerate_all() -> Iterator[ArchEncoding]:
    """All 15625 genotypes, in index order (lexicographic in edge op indices)."""
    return iter(_table())


def canonical(arch: ArchEncoding) -> ArchEncoding:
    """`arch` with each dead edge set to `none`: EDGES order lets one sweep each way find them."""
    ops, fed, needed = arch.indices, {0}, {NUM_NODES - 1}
    for (src, dst), op in zip(EDGES, ops):
        if op and src in fed:
            fed.add(dst)
    for (src, dst), op in zip(EDGES[::-1], ops[::-1]):
        if op and dst in needed:
            needed.add(src)
    return _table()[_fold(op * (src in fed and dst in needed) for (src, dst), op in zip(EDGES, ops))]


@functools.cache
def _strings() -> tuple[str, ...]:
    """The canonical string of every genotype, in index order."""
    # each edge's token with the separator before it; an edge from node 0
    # after the first opens the next node's '+' group
    pieces = [[("|+|" if src == 0 and e else "|") + f"{name}~{src}" for name in OP_NAMES]
              for e, (src, _) in enumerate(EDGES)]
    return tuple("".join(p) + "|" for p in itertools.product(*pieces))


@functools.cache
def _by_string() -> dict[str, ArchEncoding]:
    """Canonical string -> canonical genotype."""
    return dict(zip(_strings(), _table()))


def encode_str(arch: ArchEncoding) -> str:
    """Canonical string: edges grouped by destination node, '~<source>' suffix."""
    return _strings()[arch]


def decode_str(text: str) -> ArchEncoding:
    """Inverse of encode_str; raises ArchParseError naming the bad token.

    Non-canonical spellings the grammar allows (e.g. `none~00`) decode too."""
    if not isinstance(text, str):
        raise ArchParseError(f"an architecture string must be a str, got {type(text).__name__}: {text!r}")
    arch = _by_string().get(text)
    return arch if arch is not None else _parse_str(text)


def _parse_str(text: str) -> ArchEncoding:
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
    return _table()[_fold(ops)]
