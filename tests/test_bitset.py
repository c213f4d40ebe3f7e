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
