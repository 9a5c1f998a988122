"""Complete partitions of an integer and the weight vectors they induce.

A tuple of positive integers ``(r_1, ..., r_p)`` is a complete partition of
``s`` when the parts sum to ``s`` and every ``q`` in ``{1, ..., s}`` is a
subset sum of the parts. Dividing the parts by ``s`` yields the exact
rational weight vector of a completely partitioned weighted geometric mean.
`partition_table` holds all complete partitions of one target as arrays,
for blocks of trials that take one of them per row.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, NamedTuple, Sequence

import numpy as np

__all__ = [
    "DEFAULT_ENUMERATION_BOUND",
    "CompletePartition",
    "WeightVector",
    "is_complete",
    "enumerate_complete",
    "weights",
    "PartitionTable",
    "partition_table",
]

DEFAULT_ENUMERATION_BOUND = 30


def _is_int(x) -> bool:
    """Whether ``x`` is an int and not a bool, which Python counts as one."""
    return isinstance(x, int) and not isinstance(x, bool)


def _validate_parts(parts: Sequence[int], s: int) -> tuple[int, ...]:
    if not _is_int(s) or s < 1:
        raise ValueError(f"target must be a positive integer, got {s!r}")
    parts = tuple(parts)
    if not parts:
        raise ValueError("a partition needs at least one part")
    for r in parts:
        if not _is_int(r) or r < 1:
            raise ValueError(f"parts must be positive integers, got {r!r}")
    return parts


def is_complete(parts: Sequence[int], s: int) -> bool:
    """Check the three defining conditions of a complete partition of ``s``.

    Parts may come in any order. Subset-sum representability of every
    ``q <= s`` is decided by dynamic programming over achievable sums,
    encoded as a bitmask (bit q set = q achievable), so the check is exact
    and costs O(p*s) bit operations.
    """
    parts = _validate_parts(parts, s)
    if sum(parts) != s:
        return False
    achievable = 1  # bit 0: the empty subset
    for r in parts:
        achievable |= achievable << r
    wanted = (1 << (s + 1)) - 2  # bits 1..s
    return achievable & wanted == wanted


def enumerate_complete(s: int, *, bound: int = DEFAULT_ENUMERATION_BOUND) -> list[tuple[int, ...]]:
    """All complete partitions of ``s`` as nonincreasing tuples.

    Output is deterministic: ascending lexicographic order on the tuples.
    Generation walks nondecreasing part sequences and prunes with the
    prefix-sum criterion (first part 1, each next part at most one more than
    the sum so far), which characterizes completeness; `is_complete` provides
    an independent subset-sum route that the tests compare against.
    """
    if not _is_int(s) or s < 1:
        raise ValueError(f"target must be a positive integer, got {s!r}")
    if not _is_int(bound):
        raise ValueError(f"enumeration bound must be an integer, got {bound!r}")
    if s > bound:
        raise ValueError(f"enumeration bound exceeded: s={s} > {bound}")

    found: list[tuple[int, ...]] = []

    def extend(prefix: list[int], total: int) -> None:
        if total == s:
            found.append(tuple(reversed(prefix)))
            return
        low = prefix[-1]
        high = min(s - total, total + 1)
        for nxt in range(low, high + 1):
            prefix.append(nxt)
            extend(prefix, total + nxt)
            prefix.pop()

    extend([1], 1)
    found.sort()
    return found


@dataclass(frozen=True)
class WeightVector:
    """Exact rational weights ``t_k`` with ``0 < t_k <= 1`` summing to 1.

    Weights of a completely partitioned weighted geometric mean are always
    of the form ``r_k / s``; the degenerate single-weight vector ``(1,)``
    (from the one-part partition of s = 1) is admitted. ``floats`` holds
    the weights as floats, converted once.
    """

    weights: tuple[Fraction, ...]
    floats: tuple[float, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        ws = tuple(Fraction(w) for w in self.weights)
        if not ws:
            raise ValueError("a weight vector needs at least one weight")
        for w in ws:
            if not (0 < w <= 1):
                raise ValueError(f"weights must lie in (0, 1], got {w}")
        if sum(ws) != 1:
            raise ValueError(f"weights must sum to exactly 1, got {sum(ws)}")
        object.__setattr__(self, "weights", ws)
        object.__setattr__(self, "floats", tuple(float(w) for w in ws))

    def __len__(self) -> int:
        return len(self.weights)

    def __iter__(self):
        return iter(self.weights)

    def as_floats(self) -> list[float]:
        return list(self.floats)


@dataclass(frozen=True)
class CompletePartition:
    """A validated complete partition, canonicalized to nonincreasing order."""

    parts: tuple[int, ...]
    target: int

    def __post_init__(self):
        parts = _validate_parts(self.parts, self.target)
        if not is_complete(parts, self.target):
            raise ValueError(
                f"{parts} is not a complete partition of {self.target}"
            )
        object.__setattr__(self, "parts", tuple(sorted(parts, reverse=True)))

    def __len__(self) -> int:
        return len(self.parts)


@lru_cache(maxsize=256)
def weights(cp: CompletePartition) -> WeightVector:
    """The exact weight vector (r_1/s, ..., r_p/s) of a complete partition,
    built once per partition: both are immutable."""
    return WeightVector(tuple(Fraction(r, cp.target) for r in cp.parts))


class PartitionTable(NamedTuple):
    """The complete partitions of one target s as arrays.

    parts    the partitions, in `enumerate_complete` order
    weights  (p, k) float: row i holds the weights of parts[i] as floats,
             then zeros up to k, the most parts of any of them
    repeats  (p, s) int: slot j of the repeated-argument form of parts[i]
             holds argument repeats[i, j], argument q repeated r_q times
    """

    parts: tuple[tuple[int, ...], ...]
    weights: np.ndarray
    repeats: np.ndarray


@lru_cache(maxsize=DEFAULT_ENUMERATION_BOUND)
def partition_table(s: int) -> PartitionTable:
    """Every complete partition of ``s`` as a `PartitionTable`, built once
    per target: its arrays are read-only."""
    pool = tuple(enumerate_complete(s))
    table = np.zeros((len(pool), max(map(len, pool))))
    for row, parts in zip(table, pool):
        row[:len(parts)] = weights(CompletePartition(parts, s)).floats
    repeats = np.array([np.repeat(np.arange(len(parts)), parts) for parts in pool])
    table.flags.writeable = repeats.flags.writeable = False
    return PartitionTable(pool, table, repeats)
