"""Subsets of a ground set as integer bitmasks.

Element ``i`` (1-based, matching the ``e_1..e_n`` labelling convention used
throughout) occupies bit ``i - 1``.  Python integers are arbitrary precision,
so the same representation covers both the machine-word fast path and any
larger ground set without a separate code path.  Array operations over many
masks hold them in a numpy array (`mask_array`): int64 while every mask fits
in 62 bits, Python ints above, under the same numpy expressions.  Arrays
indexed by all 2^n masks are transformed over the subset lattice by one
loop, `subset_reduce`, which takes the ufunc that joins two subsets.
"""

from __future__ import annotations

import os
from collections.abc import Iterable, Iterator, Sequence

import numpy as np

# largest n for which any array over all 2^n masks is built: the independence,
# dependence and Hall tables and the exchange sweep (whose int64 arrays take
# 8 MB each at n = 20); `CYCMAT_MAX_N` overrides, read by `lattice_cap`
LATTICE_CAP = 20
LATTICE_CAP_ENV = "CYCMAT_MAX_N"
# widest mask held in an int64 array; wider masks use Python ints
WORD_BITS = 62


class CapExceeded(ValueError):
    """Raised when an exhaustive sweep would exceed its cap."""


def env_cap(name: str, default: int) -> int:
    """Positive integer cap read from environment variable `name`."""
    value = os.environ.get(name)
    if value is None:
        return default
    try:
        cap = int(value)
    except ValueError:
        raise ValueError(f"{name} must be a positive integer, got {value!r}") from None
    if cap < 1:
        raise ValueError(f"{name} must be positive, got {value}")
    return cap


def lattice_cap() -> int:
    """`LATTICE_CAP`, or the positive integer in `CYCMAT_MAX_N`."""
    return env_cap(LATTICE_CAP_ENV, LATTICE_CAP)


def require_cap(task: str, n: int, limit: int, env: str = LATTICE_CAP_ENV) -> None:
    """Refuse `task` on n elements above `limit`, which `env` overrides."""
    if n > limit:
        raise CapExceeded(f"{task} needs n <= {limit}, got n={n}; raise the cap via {env} to proceed")


def mask_of(indices: Iterable[int]) -> int:
    """Bitmask for a collection of 1-based element indices."""
    m = 0
    for i in indices:
        if i < 1:
            raise ValueError(f"element index must be >= 1, got {i}")
        m |= 1 << (i - 1)
    return m


def indices(mask: int) -> tuple[int, ...]:
    """1-based element indices of a mask, ascending."""
    return tuple(iter_indices(mask))


def iter_indices(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length()
        mask ^= low


def full_mask(n: int) -> int:
    return (1 << n) - 1


def is_subset(a: int, b: int) -> bool:
    return a & ~b == 0


def singletons(mask: int) -> Iterator[int]:
    """Yield each element of `mask` as a one-bit mask."""
    while mask:
        low = mask & -mask
        yield low
        mask ^= low


def subset_key(mask: int) -> tuple[int, tuple[int, ...]]:
    """Canonical sort key: cardinality, then ascending index order."""
    return (mask.bit_count(), indices(mask))


def canonical_sort(masks: Iterable[int] | np.ndarray, n: int) -> np.ndarray:
    """The distinct `masks` in `subset_key` order, as a `mask_array`, without
    building index tuples.

    Among sets of one size, ascending index order is descending order of
    the mask with its bits reversed, so element 1 weighs most.  The size
    and the reversed mask come from one shift loop over the bits of the
    `mask_array`, then one ``np.lexsort``; masks wider than `WORD_BITS`
    run the same expressions on an object array.  The width is
    max(n, widest mask), so masks outside the n elements sort as well.
    """
    masks = mask_array(masks, n)
    width = max_width(masks, n)
    size, reversed_ = np.zeros_like(masks), np.zeros_like(masks)
    for b in range(width):
        bit = (masks >> b) & 1
        size += bit
        reversed_ |= bit << (width - 1 - b)
    ordered = masks[np.lexsort((-reversed_, size))]
    distinct = np.ones(len(ordered), dtype=bool)
    distinct[1:] = ordered[1:] != ordered[:-1]  # equal masks sort next to each other
    return ordered[distinct]


def cyclic_interval(n: int, i: int, j: int) -> int:
    """Mask of elements e_i..e_j on the cycle of n elements, wrapping if i > j."""
    i = (i - 1) % n
    j = (j - 1) % n
    if i <= j:
        return (full_mask(j - i + 1)) << i
    return (full_mask(n) ^ (full_mask(i - j - 1) << (j + 1)))


def permute(mask: int, perm: tuple[int, ...]) -> int:
    """Image of a mask under a permutation given as 1-based target indices."""
    out = 0
    for i in iter_indices(mask):
        out |= 1 << (perm[i - 1] - 1)
    return out


def dependence_table(n: int, generators: Iterable[int]) -> bytearray:
    """Table ``t`` with ``t[mask] = 1`` iff mask contains some generator.

    The `subset_reduce` of the generators by ``np.maximum``, as a
    ``bytearray`` of 2^n bytes: a single lookup is a plain int, and
    ``np.frombuffer(t, np.uint8)`` views it as an array without a copy.
    """
    table = bytearray(1 << n)
    cells = np.frombuffer(table, dtype=np.uint8)
    cells[np.fromiter(generators, dtype=np.int64)] = 1
    subset_reduce(cells, np.maximum)
    return table


def subset_reduce(values: np.ndarray, op: np.ufunc) -> np.ndarray:
    """In place: ``values[X]`` becomes ``values[Y]`` over all Y <= X, joined
    by the binary ufunc `op`.  ``np.maximum`` gives the largest (on a bool
    array, "some subset is marked"), ``np.add`` the sum and
    ``np.bitwise_or`` the OR (on masks, the union of the marked sets
    inside X).  Returns `values`.

    Yates' algorithm, one numpy operation per bit b:
    ``values.reshape(-1, 2, 1 << b)`` pairs each mask without b with the
    same mask plus b.  O(n * 2^n), so callers keep n small.
    """
    for b in range(len(values).bit_length() - 1):
        halves = values.reshape(-1, 2, 1 << b)
        op(halves[:, 1], halves[:, 0], out=halves[:, 1])
    return values


def member_unions(n: int, masks: Sequence[int] | np.ndarray) -> np.ndarray:
    """``int32`` array over all 2^n masks: the union of the `masks` inside
    each one (0 where none is).  The `subset_reduce` of the masks by
    ``np.bitwise_or``; int32 holds masks up to n = 31."""
    masks = np.asarray(masks, dtype=np.int32)
    union = np.zeros(1 << n, dtype=np.int32)
    union[masks] = masks
    return subset_reduce(union, np.bitwise_or)


def all_maximal_subsets(marked: np.ndarray) -> np.ndarray:
    """Bool array: is ``marked[X - e]`` set for every e in X (true at X = 0)?"""
    out = np.ones(len(marked), dtype=bool)
    for b in range(len(marked).bit_length() - 1):
        out.reshape(-1, 2, 1 << b)[:, 1] &= marked.reshape(-1, 2, 1 << b)[:, 0]
    return out


def extension_counts(marked: np.ndarray) -> np.ndarray:
    """``uint8`` array over all 2^n masks: how many e outside X have
    ``marked[X | e]`` set.  The upward mirror of `all_maximal_subsets`,
    one numpy pass per element."""
    out = np.zeros(len(marked), dtype=np.uint8)
    for b in range(len(marked).bit_length() - 1):
        out.reshape(-1, 2, 1 << b)[:, 0] += marked.reshape(-1, 2, 1 << b)[:, 1]
    return out


def lattice_rank(independent: np.ndarray) -> np.ndarray:
    """Rank of every mask, from a ``bool`` array over all 2^n masks that marks
    the independent ones: the size of its largest independent subset."""
    sizes = set_sizes(len(independent).bit_length() - 1)
    return subset_reduce(np.where(independent, sizes, 0), np.maximum)


def greedy_rank(independent: np.ndarray) -> np.ndarray:
    """Greedy rank of every mask, from a ``bool`` array over all 2^n masks:
    the size of the set built by adding X's elements in ascending order,
    each kept when the set so far stays independent (`MatroidOracle.rank`).

    Equal to `lattice_rank` on a matroid, and to the greedy walk on any
    table.  The masks with highest element b extend the greedy sets of
    those below 2^b, so one numpy pass per element builds them all.
    """
    n = len(independent).bit_length() - 1
    greedy = np.zeros(1 << n, dtype=np.int32)
    rank = np.zeros(1 << n, dtype=np.uint8)
    for b in range(n):
        low = 1 << b
        extended = greedy[:low] | low
        keep = independent[extended]
        greedy[low:2 * low] = np.where(keep, extended, greedy[:low])
        rank[low:2 * low] = rank[:low] + keep
    return rank


def set_sizes(n: int) -> np.ndarray:
    """``uint8`` array of 2^n entries: the number of elements of each mask."""
    sizes = np.zeros(1 << n, dtype=np.uint8)
    for b in range(n):
        sizes.reshape(-1, 2, 1 << b)[:, 1] += 1
    return sizes


def mask_array(masks: Iterable[int] | np.ndarray, n: int = 0) -> np.ndarray:
    """Masks as a numpy array: int64 when every mask and `n` fit in
    `WORD_BITS`, else Python ints (dtype object).  ``& | ^ - >> << == !=``
    give the same results on both.  An array of either kind is kept."""
    if not isinstance(masks, np.ndarray):
        masks = list(masks)
        masks = np.array(masks, dtype=object if max(masks, default=0).bit_length() > WORD_BITS else np.int64)
    if n > WORD_BITS and masks.dtype != object:
        masks = masks.astype(object)
    return masks


def max_width(masks: np.ndarray, n: int = 0) -> int:
    """max(n, bit length of the widest of the nonnegative `masks`)."""
    return max(n, int(masks.max()).bit_length() if len(masks) else 0)
