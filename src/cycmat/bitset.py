"""Subsets of a ground set as integer bitmasks.

Element ``i`` (1-based, matching the ``e_1..e_n`` labelling convention used
throughout) occupies bit ``i - 1``.  Python integers are arbitrary precision,
so the same representation covers both the machine-word fast path and any
larger ground set without a separate code path.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator, Sequence


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


def size(mask: int) -> int:
    return mask.bit_count()


def full_mask(n: int) -> int:
    return (1 << n) - 1


def complement(mask: int, n: int) -> int:
    return full_mask(n) & ~mask


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


def cyclic_interval(n: int, i: int, j: int) -> int:
    """Mask of elements e_i..e_j on the cycle of n elements, wrapping if i > j."""
    i = (i - 1) % n
    j = (j - 1) % n
    if i <= j:
        return (full_mask(j - i + 1)) << i
    return (full_mask(n) ^ (full_mask(i - j - 1) << (j + 1)))


def interval_length(n: int, i: int, j: int) -> int:
    return (j - i) % n + 1


def permute(mask: int, perm: tuple[int, ...]) -> int:
    """Image of a mask under a permutation given as 1-based target indices."""
    out = 0
    for i in iter_indices(mask):
        out |= 1 << (perm[i - 1] - 1)
    return out


def dependence_table(n: int, generators: Iterable[int]) -> bytearray:
    """Table ``t`` with ``t[mask] = 1`` iff mask contains some generator.

    Superset closure over the subset lattice; costs O(n * 2^n), so callers
    must keep n small (the library caps this at enumeration scale).
    """
    table = bytearray(1 << n)
    for g in generators:
        table[g] = 1
    for b in range(n):
        bit = 1 << b
        for m in range(1 << n):
            if m & bit and table[m ^ bit]:
                table[m] = 1
    return table


def containment_test(n: int, members: Sequence[int]) -> Callable[[int], bool]:
    """Predicate: does a mask over n elements contain some member?  A
    `dependence_table` lookup up to n = 18, a scan over the members above."""
    if n <= 18:
        table = dependence_table(n, members)
        return lambda mask: bool(table[mask])
    return lambda mask: any(is_subset(m, mask) for m in members)
