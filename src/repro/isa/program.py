"""Structured control-flow representation of a kernel body.

The functional executor does not interpret branch instructions per work
item -- that would make Python execution of multi-million-instruction
programs impossible.  Instead every kernel carries, alongside its basic
blocks, a *structured program tree* describing how those blocks compose:
sequences, counted loops, and two-way branches.  Walking the tree with a
given argument vector and RNG yields exact per-block execution counts for
one hardware thread, which the executor then scales across threads.

This is a modelling choice, not a shortcut in the methodology: GT-Pin's
counters and the sampling pipeline consume only per-block dynamic counts,
which the tree reproduces faithfully (including data-dependent trip counts
and branch biases).
"""

from __future__ import annotations

import dataclasses
from typing import Mapping, Sequence, Union

import numpy as np

#: Kernel arguments are a name -> scalar mapping at execution time.
ArgValues = Mapping[str, float]


@dataclasses.dataclass(frozen=True, slots=True)
class TripCount:
    """Loop trip-count model: ``base + scale * args[arg]``, optionally noisy.

    ``jitter`` adds uniform integer noise in ``[-jitter, +jitter]`` sampled
    once per kernel invocation -- the model of data-dependent control flow
    that makes repeated trials non-deterministic (Section V-E's motivation
    for CoFluent record/replay).
    """

    base: int = 1
    arg: str | None = None
    scale: float = 0.0
    jitter: int = 0

    def __post_init__(self) -> None:
        if self.base < 0:
            raise ValueError(f"base trip count must be >= 0, got {self.base}")
        if self.jitter < 0:
            raise ValueError(f"jitter must be >= 0, got {self.jitter}")

    def resolve(self, args: ArgValues, rng: np.random.Generator) -> int:
        trips = float(self.base)
        if self.arg is not None:
            trips += self.scale * float(args.get(self.arg, 0.0))
        if self.jitter:
            trips += int(rng.integers(-self.jitter, self.jitter + 1))
        return max(0, int(round(trips)))


@dataclasses.dataclass(frozen=True, slots=True)
class Block:
    """Leaf node: execute basic block ``block_id`` once."""

    block_id: int


@dataclasses.dataclass(frozen=True, slots=True)
class Seq:
    """Execute children in order."""

    children: tuple["Node", ...]


@dataclasses.dataclass(frozen=True, slots=True)
class Loop:
    """Execute ``body`` ``trip`` times (trip resolved per invocation)."""

    body: "Node"
    trip: TripCount


@dataclasses.dataclass(frozen=True, slots=True)
class Branch:
    """Two-way branch taking ``taken`` with probability ``p_taken``.

    Per-thread divergence is modelled in aggregate: across ``n`` executions
    the taken arm runs ``round(p_taken * n)`` times (deterministic given
    the trip counts), matching how SIMD divergence washes out over the
    thousands of hardware-thread executions per invocation.
    """

    taken: "Node"
    not_taken: "Node | None"
    p_taken: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.p_taken <= 1.0:
            raise ValueError(f"p_taken must be in [0, 1], got {self.p_taken}")


Node = Union[Block, Seq, Loop, Branch]


def block_ids(node: Node) -> frozenset[int]:
    """All basic-block ids referenced by a program tree."""
    ids: set[int] = set()
    _collect_ids(node, ids)
    return frozenset(ids)


def _collect_ids(node: Node, out: set[int]) -> None:
    if isinstance(node, Block):
        out.add(node.block_id)
    elif isinstance(node, Seq):
        for child in node.children:
            _collect_ids(child, out)
    elif isinstance(node, Loop):
        _collect_ids(node.body, out)
    elif isinstance(node, Branch):
        _collect_ids(node.taken, out)
        if node.not_taken is not None:
            _collect_ids(node.not_taken, out)
    else:  # pragma: no cover - defensive
        raise TypeError(f"unknown program node {node!r}")


def has_jitter(node: Node) -> bool:
    """True if any loop in the tree resolves trips with RNG noise.

    A jitter-free tree consumes no RNG state in
    :func:`execution_counts`, which is what makes an invocation's block
    counts a pure function of its arguments (the property the simulation
    engine's counts cache and epoch memo rely on).
    """
    if isinstance(node, Block):
        return False
    if isinstance(node, Seq):
        return any(has_jitter(child) for child in node.children)
    if isinstance(node, Loop):
        return node.trip.jitter > 0 or has_jitter(node.body)
    if isinstance(node, Branch):
        return has_jitter(node.taken) or (
            node.not_taken is not None and has_jitter(node.not_taken)
        )
    raise TypeError(f"unknown program node {node!r}")  # pragma: no cover


def trip_arg_names(node: Node) -> frozenset[str]:
    """Argument names any loop trip count in the tree reads.

    These are the only inputs (besides RNG jitter) that influence
    :func:`execution_counts`; intersected with the host-written buffer
    keys (the reserved ``__`` namespace) they form a dispatch's buffer
    *read set* -- what the runtime records for dependency analysis and
    what the batched simulation engine keys its epoch partition on.
    """
    names: set[str] = set()
    _collect_trip_args(node, names)
    return frozenset(names)


def _collect_trip_args(node: Node, out: set[str]) -> None:
    if isinstance(node, Block):
        return
    if isinstance(node, Seq):
        for child in node.children:
            _collect_trip_args(child, out)
    elif isinstance(node, Loop):
        if node.trip.arg is not None:
            out.add(node.trip.arg)
        _collect_trip_args(node.body, out)
    elif isinstance(node, Branch):
        _collect_trip_args(node.taken, out)
        if node.not_taken is not None:
            _collect_trip_args(node.not_taken, out)
    else:  # pragma: no cover - defensive
        raise TypeError(f"unknown program node {node!r}")


def execution_counts(
    node: Node,
    args: ArgValues,
    rng: np.random.Generator,
    n_block_ids: int,
) -> np.ndarray:
    """Per-block execution counts for ONE pass over the program tree.

    Returns a dense ``int64`` vector indexed by block id.  Trip counts and
    branch splits are resolved with ``rng``, so two calls with differently
    seeded generators model two non-deterministic trials.
    """
    counts = np.zeros(n_block_ids, dtype=np.int64)
    _accumulate(node, args, rng, 1.0, counts)
    return counts


def _accumulate(
    node: Node,
    args: ArgValues,
    rng: np.random.Generator,
    multiplier: float,
    counts: np.ndarray,
) -> None:
    if multiplier <= 0.0:
        return
    if isinstance(node, Block):
        counts[node.block_id] += int(round(multiplier))
    elif isinstance(node, Seq):
        for child in node.children:
            _accumulate(child, args, rng, multiplier, counts)
    elif isinstance(node, Loop):
        trips = node.trip.resolve(args, rng)
        _accumulate(node.body, args, rng, multiplier * trips, counts)
    elif isinstance(node, Branch):
        taken = multiplier * node.p_taken
        _accumulate(node.taken, args, rng, taken, counts)
        if node.not_taken is not None:
            _accumulate(node.not_taken, args, rng, multiplier - taken, counts)
    else:  # pragma: no cover - defensive
        raise TypeError(f"unknown program node {node!r}")


def seq(*children: Node) -> Seq:
    """Convenience constructor collapsing nested sequences."""
    flat: list[Node] = []
    for child in children:
        if isinstance(child, Seq):
            flat.extend(child.children)
        else:
            flat.append(child)
    return Seq(tuple(flat))


def straight_line(block_ids_: Sequence[int]) -> Seq:
    """A Seq of plain Block leaves, in order."""
    return Seq(tuple(Block(b) for b in block_ids_))
