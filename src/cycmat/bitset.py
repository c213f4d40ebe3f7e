"""Subsets of a ground set as integer bitmasks.

Element ``i`` (1-based, matching the ``e_1..e_n`` labelling convention used
throughout) occupies bit ``i - 1``.  Python integers are arbitrary precision,
so the same representation covers both the machine-word fast path and any
larger ground set without a separate code path.  Array operations over many
masks hold them in a numpy array (`mask_array`): int64 while every mask fits
in 62 bits, Python ints above, under the same numpy expressions.  Kernels
that read each mask of such an array (`canonical_sort`, `bit_counts`,
`permute_masks`, `mask_elements`) read its byte columns (`mask_bytes`)
through 256-entry tables, or peel one element per pass, so none makes a
pass per bit of the ground set.  Arrays indexed by all 2^n masks are
transformed over the subset lattice one bit at a time: `halves` pairs each
mask without bit b with the same mask plus b, and every per-bit pass
(`subset_reduce`, which takes the ufunc that joins two subsets, and the
kernels beside it) is one ufunc call on those views.
"""

from __future__ import annotations

import os
from collections.abc import Iterable, Iterator, Sequence
from functools import lru_cache

import numpy as np

# largest n for which any array over all 2^n masks is built: the independence,
# dependence and Hall tables and the exchange sweep (whose int64 arrays take
# 8 MB each at n = 20); `CYCMAT_MAX_N` overrides, read by `lattice_cap`
LATTICE_CAP = 20
LATTICE_CAP_ENV = "CYCMAT_MAX_N"
# widest mask held in an int64 array; wider masks use Python ints
WORD_BITS = 62
# `halves` walks blocks shorter than this transposed, in long strided runs
SHORT_BLOCK = 16
# rows per block of a (member x element) array: at n = 20 each int64
# temporary of a block takes 4096 * 20 * 8 bytes = 640 KB
MEMBER_BLOCK = 4096


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
    the mask with its bits reversed, so element 1 weighs most.  So one
    ``np.lexsort`` orders the `mask_bytes` columns: its keys are the size
    (the sum of `_BYTE_SIZES` over the columns), then each column, lowest
    byte first, through `_BYTE_RANKS`.  No reversed mask is built, so no
    width overflows.  The width is max(n, widest mask), so masks outside the
    n elements sort as well.  The result is fresh and read-only.
    """
    masks = mask_array(masks, n)
    width = max_width(masks, n)
    columns = mask_bytes(masks, width)
    ranks = [np.take(_BYTE_RANKS, column) for column in reversed(columns.T)]  # lexsort's last key weighs most
    ordered = masks[np.lexsort((*ranks, _size_of_bytes(columns, width)))]
    distinct = np.ones(len(ordered), dtype=bool)
    distinct[1:] = ordered[1:] != ordered[:-1]  # equal masks sort next to each other
    ordered = ordered[distinct]
    ordered.flags.writeable = False
    return ordered


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


def permute_masks(masks: np.ndarray, perm: tuple[int, ...]) -> np.ndarray:
    """`permute` of every mask of a `mask_array`, entry for entry: the OR of
    one `byte_images` lookup per `mask_bytes` column.  Bits past len(perm)
    are dropped."""
    columns = mask_bytes(masks, max_width(masks, len(perm)))
    out = np.zeros_like(masks)
    for j, image in enumerate(byte_images(perm, masks.dtype)):
        out |= np.take(image, columns[..., j])
    return out


def byte_images(perm: tuple[int, ...], dtype: np.dtype) -> np.ndarray:
    """``(⌈len(perm)/8⌉, 256)`` array: row j holds the `permute` image of
    each byte value v placed at byte j, that is of v << 8j, bits past
    len(perm) dropped.  Each entry is the OR of the targets
    1 << (perm[i] - 1) that `_BYTE_BITS` selects, one reduction for all."""
    count = -(-len(perm) // 8)
    targets = np.zeros(8 * count, dtype=dtype)
    targets[:len(perm)] = [1 << (target - 1) for target in perm]
    return np.bitwise_or.reduce(np.where(_BYTE_BITS, targets.reshape(count, 1, 8), 0), axis=-1)


def bit_counts(masks: np.ndarray) -> np.ndarray:
    """The number of elements of each nonnegative mask of a `mask_array`,
    the sum of `_BYTE_SIZES` over its `mask_bytes` columns, so no array over
    all 2^n masks is needed at any n.  ``uint8`` while every mask fits in
    255 bits, a wider unsigned dtype above."""
    width = int(masks.max()).bit_length() if masks.size else 0
    return _size_of_bytes(mask_bytes(masks, width), width)


# the number of set bits of each byte value
_BYTE_SIZES = np.array([b.bit_count() for b in range(256)], dtype=np.uint8)
# 255 minus each byte value with its bits reversed: ascending on a byte of a
# mask is ascending index order (among masks that agree on the bytes below)
_BYTE_RANKS = np.array([255 - int(f"{b:08b}"[::-1], 2) for b in range(256)], dtype=np.uint8)
# ``_BYTE_BITS[v, b]``: is bit b of the byte value v set?
_BYTE_BITS = np.array([[v >> b & 1 == 1 for b in range(8)] for v in range(256)])


def mask_bytes(masks: np.ndarray, width: int) -> np.ndarray:
    """``uint8`` array of shape ``masks.shape + (⌈width/8⌉,)``: byte j of each
    nonnegative mask of a `mask_array` at ``[..., j]``, lowest byte first.

    The byte columns that every per-mask kernel reads instead of one pass
    per bit: an int64 array is viewed as its little-endian bytes, and an
    object array is written out once by ``int.to_bytes``.  `width` must
    cover every mask (`max_width`); an object mask that is negative or
    wider raises `ValueError`.
    """
    count = -(-width // 8)
    if masks.dtype != object:
        words = np.ascontiguousarray(masks, dtype="<i8")
        return words.view(np.uint8).reshape(*masks.shape, 8)[..., :count]
    try:
        data = b"".join([int(m).to_bytes(count, "little") for m in masks.ravel().tolist()])
    except OverflowError:
        raise ValueError(f"masks must be nonnegative and fit in {width} bits") from None
    return np.frombuffer(data, dtype=np.uint8).reshape(*masks.shape, count)


def mask_elements(masks: np.ndarray, k: int) -> np.ndarray:
    """``(len(masks), k)`` intp array: the 1-based indices, ascending, of
    each mask of a `mask_array` whose masks all have k elements.

    k passes each peel the lowest bit (``m & -m``) and read its index as the
    exponent of that power of two as a float64, on int64 and object arrays
    alike.  That is exact below 2^1024; a wider mask raises `OverflowError`.
    """
    rows = np.empty((k, len(masks)), dtype=np.intp)
    rest = masks.copy()
    for row in rows:
        low = rest & -rest
        row[:] = np.frexp(low.astype(np.float64))[1]  # 2^b is 0.5 * 2^(b + 1)
        rest ^= low
    return np.ascontiguousarray(rows.T)


def _size_of_bytes(columns: np.ndarray, width: int) -> np.ndarray:
    """The number of set bits of each mask, from its `mask_bytes` columns,
    in the smallest unsigned dtype that holds `width`."""
    sizes = np.zeros(columns.shape[:-1], dtype=np.min_scalar_type(width))
    for j in range(columns.shape[-1]):
        sizes += np.take(_BYTE_SIZES, columns[..., j])
    return sizes


def blocks(values: np.ndarray) -> Iterator[np.ndarray]:
    """Consecutive slices of `values`, `MEMBER_BLOCK` rows each and the last
    one shorter: the unit in which a whole-array read over a family's
    members builds its temporaries, so that none grows with the family."""
    return (values[lo:lo + MEMBER_BLOCK] for lo in range(0, len(values), MEMBER_BLOCK))


def dependence_table(n: int, generators: Sequence[int] | np.ndarray) -> bytearray:
    """Table ``t`` with ``t[mask] = 1`` iff mask contains some generator.

    The `subset_reduce` of the generators (Python ints or an integer array,
    used without a copy) by ``np.maximum``, as a ``bytearray`` of 2^n
    bytes: a single lookup is a plain int, and ``np.frombuffer(t, np.uint8)``
    views it as an array without a copy.
    """
    table = bytearray(1 << n)
    cells = np.frombuffer(table, dtype=np.uint8)
    cells[np.asarray(generators, dtype=np.int64)] = 1
    subset_reduce(cells, np.maximum)
    return table


def halves(values: np.ndarray, b: int) -> tuple[np.ndarray, np.ndarray]:
    """Views of the 2^n-entry `values` at the masks without bit b and at the
    same masks with b, entry for entry.

    ``values.reshape(-1, 2, 1 << b)`` holds them as blocks of 2^b masks.
    Below `SHORT_BLOCK` the views are returned transposed, blocks last, so
    that a ufunc called with ``order="C"`` runs its inner loop over the
    2^(n-b-1) blocks instead of over a block of one to eight masks (at
    n = 20 that takes bit 1 from about 6 ms to 0.5 ms).  Every per-bit
    pass calls its ufunc that way, writing through the views in place.
    """
    pairs = values.reshape(-1, 2, 1 << b)
    if 1 << b < SHORT_BLOCK:
        pairs = pairs.transpose(1, 2, 0)
        return pairs[0], pairs[1]
    return pairs[:, 0], pairs[:, 1]


def subset_reduce(values: np.ndarray, op: np.ufunc) -> np.ndarray:
    """In place: ``values[X]`` becomes ``values[Y]`` over all Y <= X, joined
    by the binary ufunc `op`.  ``np.maximum`` gives the largest (on a bool
    array, "some subset is marked"), ``np.add`` the sum and
    ``np.bitwise_or`` the OR (on masks, the union of the marked sets
    inside X).  Returns `values`.

    Yates' algorithm, one `op` call per bit b over the two `halves`: the
    entry of each mask with b joins that of the same mask without b.
    O(n * 2^n), so callers keep n small.
    """
    for b in range(len(values).bit_length() - 1):
        without, with_ = halves(values, b)
        op(with_, without, out=with_, order="C")
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
        _, with_ = halves(out, b)
        np.bitwise_and(with_, halves(marked, b)[0], out=with_, order="C")
    return out


def extension_counts(marked: np.ndarray) -> np.ndarray:
    """``uint8`` array over all 2^n masks: how many e outside X have
    ``marked[X | e]`` set.  The upward mirror of `all_maximal_subsets`,
    one `halves` pass per element."""
    out = np.zeros(len(marked), dtype=np.uint8)
    for b in range(len(marked).bit_length() - 1):
        without, _ = halves(out, b)
        np.add(without, halves(marked, b)[1], out=without, order="C")
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


@lru_cache(maxsize=None)
def set_sizes(n: int) -> np.ndarray:
    """Read-only ``uint8`` array of 2^n entries: the number of elements of
    each mask.

    A constant of n, built on the first call and shared by every later
    one, like `transversal.interval_presentation`: callers compute from it
    and never write to it.  Up to the `LATTICE_CAP` of 20 all sizes kept
    take at most 2 MB.
    """
    sizes = np.zeros(1 << n, dtype=np.uint8)
    for b in range(n):  # the masks with highest bit b are those below 2^b plus b
        np.add(sizes[:1 << b], 1, out=sizes[1 << b:2 << b])
    sizes.flags.writeable = False
    return sizes


def mask_array(masks: Iterable[int] | np.ndarray, n: int = 0) -> np.ndarray:
    """Masks as a numpy array: int64 when every mask and `n` fit in
    `WORD_BITS`, else Python ints (dtype object).  ``& | ^ - >> << == !=``
    give the same results on both.  An array of either kind is kept."""
    if not isinstance(masks, np.ndarray):
        masks = list(masks)
        masks = np.array(masks, dtype=object if int(max(masks, default=0)).bit_length() > WORD_BITS else np.int64)
    if n > WORD_BITS and masks.dtype != object:
        masks = masks.astype(object)
    return masks


def max_width(masks: np.ndarray, n: int = 0) -> int:
    """max(n, bit length of the widest of the nonnegative `masks`)."""
    return max(n, int(masks.max()).bit_length() if len(masks) else 0)
