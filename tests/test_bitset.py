import random

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from cycmat import bitset

masks = st.integers(min_value=0, max_value=(1 << 12) - 1)


def test_mask_roundtrip():
    assert bitset.mask_of([1, 3, 8]) == 0b10000101
    assert bitset.indices(0b10000101) == (1, 3, 8)


@given(masks, masks)
def test_union_intersection_commute(a, b):
    assert a | b == b | a
    assert a & b == b & a


@given(masks, masks, masks)
def test_associativity(a, b, c):
    assert (a | b) | c == a | (b | c)
    assert (a & b) & c == a & (b & c)


def test_cyclic_interval_wraparound():
    # n = 8: positions 7..2 wrap through 8 and 1
    assert bitset.indices(bitset.cyclic_interval(8, 7, 2)) == (1, 2, 7, 8)
    assert bitset.indices(bitset.cyclic_interval(8, 3, 3)) == (3,)
    assert bitset.indices(bitset.cyclic_interval(12, 1, 5)) == (1, 2, 3, 4, 5)


def test_cyclic_interval_lengths():
    for n in (5, 8, 9):
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                got = bitset.cyclic_interval(n, i, j).bit_count()
                assert got == (j - i) % n + 1


def test_permute_rotation():
    perm = tuple(i % 8 + 1 for i in range(1, 9))  # e_i -> e_{i+1}
    assert bitset.permute(bitset.mask_of([1, 2, 8]), perm) == bitset.mask_of([2, 3, 1])


@st.composite
def generator_sets(draw):
    n = draw(st.integers(min_value=1, max_value=12))
    gens = draw(st.lists(st.integers(min_value=0, max_value=(1 << n) - 1), max_size=8))
    return n, gens


@given(generator_sets())
@example((4, [0b0011, 0b1100]))
def test_dependence_table_matches_direct_scan(case):
    n, gens = case
    table = bitset.dependence_table(n, gens)
    assert isinstance(table, bytearray) and len(table) == 1 << n
    for mask in range(1 << n):
        direct = any(g & ~mask == 0 for g in gens)
        assert bool(table[mask]) == direct


@given(
    st.integers(min_value=0, max_value=12),
    st.lists(st.integers(min_value=0, max_value=(1 << 14) - 1), max_size=60),
)
@example(3, [0b10010, 0b101])  # {2, 5} reaches past n: reversed over its own width, {1, 3} would sort last
def test_canonical_sort_is_subset_key_order(n, masks):
    assert bitset.canonical_sort(set(masks), n).tolist() == sorted(set(masks), key=bitset.subset_key)


@given(
    st.integers(min_value=0, max_value=7),
    st.lists(st.integers(min_value=0, max_value=(1 << 7) - 1), max_size=12),
)
@example(3, [])
def test_member_unions_is_the_union_of_the_masks_inside(n, masks):
    masks = [m & bitset.full_mask(n) for m in masks]
    union = bitset.member_unions(n, masks)
    assert union.dtype == "int32"
    for x in range(1 << n):
        want = 0
        for m in masks:
            if bitset.is_subset(m, x):
                want |= m
        assert union[x] == want


def test_set_sizes_is_one_read_only_array_per_n():
    sizes = bitset.set_sizes(9)
    assert bitset.set_sizes(9) is sizes
    assert sizes.tolist() == [m.bit_count() for m in range(1 << 9)]
    with pytest.raises(ValueError):
        sizes[3] = 0
    with pytest.raises(ValueError):
        np.add(sizes, 1, out=sizes)


@pytest.mark.parametrize("n", [1, 8, 12, 62, 63, 70])
def test_array_permute_equals_the_per_mask_permute(n):
    rng = random.Random(n)
    for _ in range(5):
        perm = tuple(rng.sample(range(1, n + 1), n))
        masks = [0, bitset.full_mask(n)] + [rng.getrandbits(n) for _ in range(40)]
        image = bitset.permute_masks(bitset.mask_array(masks, n), perm)
        assert image.tolist() == [bitset.permute(m, perm) for m in masks]


@pytest.mark.parametrize("n", [1, 7, 8, 14, 62, 63, 70])
def test_bit_counts_equal_int_bit_count(n):
    rng = random.Random(n)
    masks = [0, bitset.full_mask(n)] + [rng.getrandbits(n) for _ in range(60)]
    counts = bitset.bit_counts(bitset.mask_array(masks, n))
    assert counts.tolist() == [m.bit_count() for m in masks]
    grid = bitset.mask_array(masks, n).reshape(2, -1)
    assert bitset.bit_counts(grid).tolist() == counts.reshape(2, -1).tolist()
    assert bitset.bit_counts(bitset.mask_array([], n)).tolist() == []


# widths on each side of a byte boundary, and of the int64 / object switch
INT64_WIDTHS = (7, 8, 9, 15, 16, 17, 56, 57, 62)
OBJECT_WIDTHS = (63, 64, 65, 70)


def boundary_masks(n: int) -> list[int]:
    """Masks whose widest is exactly n bits: the empty mask, the top
    element alone and with element 1, the full set, random masks with and
    without the top element, and three members repeated."""
    rng = random.Random(n)
    top = 1 << (n - 1)
    masks = [0, top, top | 1, bitset.full_mask(n)]
    masks += [rng.getrandbits(n) | top for _ in range(30)] + [rng.getrandbits(n) for _ in range(30)]
    return masks + masks[2:5]


def test_byte_tables_equal_their_definitions():
    for v in range(256):
        assert bitset._BYTE_SIZES[v] == v.bit_count()
        assert bitset._BYTE_RANKS[v] == 255 - sum(1 << (7 - b) for b in range(8) if v >> b & 1)
        assert bitset._BYTE_BITS[v].tolist() == [v >> b & 1 == 1 for b in range(8)]
    assert bitset._BYTE_SIZES.dtype == bitset._BYTE_RANKS.dtype == np.uint8


@pytest.mark.parametrize("n", INT64_WIDTHS + OBJECT_WIDTHS)
def test_byte_images_are_the_permute_of_each_byte(n):
    perm = tuple(random.Random(n).sample(range(1, n + 1), n))
    dtype = object if n > bitset.WORD_BITS else np.int64
    images = bitset.byte_images(perm, dtype)
    assert images.shape == (-(-n // 8), 256) and images.dtype == dtype
    for j, row in enumerate(images):
        assert row.tolist() == [bitset.permute(v << 8 * j & bitset.full_mask(n), perm) for v in range(256)]


@pytest.mark.parametrize("n", INT64_WIDTHS + OBJECT_WIDTHS)
def test_byte_kernels_equal_the_per_mask_definitions(n):
    masks = boundary_masks(n)
    array = bitset.mask_array(masks, n)
    assert array.dtype == (object if n in OBJECT_WIDTHS else np.int64)
    count = -(-n // 8)
    columns = bitset.mask_bytes(array, n)
    assert columns.dtype == np.uint8
    assert columns.tolist() == [list(m.to_bytes(count, "little")) for m in masks]
    assert bitset.bit_counts(array).tolist() == [m.bit_count() for m in masks]
    perm = tuple(random.Random(-n).sample(range(1, n + 1), n))
    image = bitset.permute_masks(array, perm)
    assert image.dtype == array.dtype and image.tolist() == [bitset.permute(m, perm) for m in masks]
    for k in {m.bit_count() for m in masks}:
        with_k = [m for m in masks if m.bit_count() == k]
        elements = bitset.mask_elements(bitset.mask_array(with_k, n), k)
        assert elements.dtype == np.intp and elements.shape == (len(with_k), k)
        assert elements.tolist() == [list(bitset.indices(m)) for m in with_k]


@pytest.mark.parametrize("n", INT64_WIDTHS + OBJECT_WIDTHS)
def test_canonical_sort_at_byte_boundaries(n):
    masks = boundary_masks(n)
    expected = sorted(set(masks), key=bitset.subset_key)
    for given_masks in (masks, bitset.mask_array(masks, n)):
        ordered = bitset.canonical_sort(given_masks, n)
        assert ordered.tolist() == expected and not ordered.flags.writeable
        assert ordered.dtype == (object if n in OBJECT_WIDTHS else np.int64)
    # members wider than n sort by their own width
    assert bitset.canonical_sort(masks, n - 6).tolist() == expected
    assert bitset.canonical_sort([], n).tolist() == []


@pytest.mark.parametrize("n", [8, 62, 70])
def test_byte_kernels_on_no_mask(n):
    empty = bitset.mask_array([], n)
    perm = tuple(range(n, 0, -1))
    assert bitset.mask_bytes(empty, n).shape == (0, -(-n // 8))
    assert bitset.bit_counts(empty).tolist() == []
    assert bitset.permute_masks(empty, perm).tolist() == []
    assert bitset.mask_elements(empty, 3).shape == (0, 3)


def test_bit_counts_above_255_elements():
    masks = bitset.mask_array([bitset.full_mask(300), 1 << 299, 0])
    assert bitset.bit_counts(masks).tolist() == [300, 1, 0]


def test_object_mask_bytes_refuse_a_mask_that_does_not_fit():
    with pytest.raises(ValueError, match="nonnegative"):
        bitset.mask_bytes(bitset.mask_array([1 << 69, -1]), 70)
    with pytest.raises(ValueError, match="fit in 64 bits"):
        bitset.mask_bytes(bitset.mask_array([1 << 69]), 64)
