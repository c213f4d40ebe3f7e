"""Every per-bit pass over the subset lattice against a per-mask reference.

The kernels walk bit b through `bitset.halves`, whose views are transposed
for blocks shorter than `bitset.SHORT_BLOCK`; n runs from 0 to 9, so bits on
both sides of that threshold run.  Each kernel reads random tables,
reversed ``[::-1]`` views (a dual's table is one) and read-only Hall
tables.  The rank-table route of `MatroidOracle.rank` and the vectorised
deficiency-dichotomy entry are checked against the loops they replaced.
"""

import functools
import operator
import random
from types import SimpleNamespace

import numpy as np
import pytest

from cycmat import GroundSet, MatroidOracle, bitset
from cycmat.constructions import truncate
from cycmat.core import CircuitFamily, _exchange_failure
from cycmat.suite import PSI_GRID, _deficiency_entry
from cycmat.transversal import BipartitePresentation, interval_presentation
from cycmat.weakmap import ElementBijection, is_weak_map_by_independence

NS = range(10)


def _subsets(x: int):
    """Every Y <= x, x first."""
    y = x
    while True:
        yield y
        if y == 0:
            return
        y = (y - 1) & x


def _hall_table(n: int, rng: np.random.Generator) -> np.ndarray:
    nbrs = tuple(int(v) for v in rng.integers(0, 1 << n, size=int(rng.integers(1, 6))))
    table = BipartitePresentation(GroundSet(n), nbrs).independent
    assert not table.flags.writeable
    return table


def _tables(n: int, seed: int) -> list[np.ndarray]:
    """Bool tables over the 2^n masks: a random one, a reversed view of
    another and, for n >= 1, a read-only Hall table."""
    rng = np.random.default_rng(seed)
    tables = [rng.random(1 << n) < 0.5, (rng.random(1 << n) < 0.5)[::-1]]
    if n:
        tables.append(_hall_table(n, rng))
    return tables


def _downward_closed_tables(n: int, seed: int) -> list[np.ndarray]:
    """Downward-closed tables: the sets containing none of some random
    generators (a matroid or not), a reversed view of one, and a Hall table."""
    rng = np.random.default_rng(seed)
    tables = []
    for count in (1, 3, 6):
        gens = rng.integers(1, 1 << n, size=count) if n else np.zeros(0, dtype=np.int64)
        tables.append(np.frombuffer(bitset.dependence_table(n, gens), dtype=np.uint8) == 0)
    tables.append(np.ascontiguousarray(tables[-1][::-1])[::-1])
    if n:
        tables.append(_hall_table(n, rng))
    return tables


@pytest.mark.parametrize("n", NS)
def test_set_sizes_counts_the_bits(n):
    sizes = bitset.set_sizes(n)
    assert sizes.dtype == np.uint8
    assert sizes.tolist() == [m.bit_count() for m in range(1 << n)]


@pytest.mark.parametrize("n", NS)
@pytest.mark.parametrize(
    "op, join, dtype",
    [(np.maximum, max, bool), (np.maximum, max, np.uint8), (np.add, operator.add, np.int32),
     (np.bitwise_or, operator.or_, np.int32)],
)
def test_subset_reduce_joins_every_subset(n, op, join, dtype):
    rng = np.random.default_rng(n)
    base = rng.integers(0, 1 << n, size=1 << n).astype(dtype)
    # in place on a contiguous array and on a reversed view of one
    for values in (base.copy(), base.copy()[::-1]):
        before = values.tolist()
        expected = [functools.reduce(join, (before[y] for y in _subsets(x))) for x in range(1 << n)]
        assert bitset.subset_reduce(values, op) is values
        assert values.tolist() == expected


@pytest.mark.parametrize("n", NS)
def test_all_maximal_subsets_and_extension_counts(n):
    for table in _tables(n, n):
        marked = table.tolist()
        maximal = bitset.all_maximal_subsets(table)
        counts = bitset.extension_counts(table)
        assert counts.dtype == np.uint8
        for x in range(1 << n):
            inside = [1 << b for b in range(n) if x >> b & 1]
            outside = [1 << b for b in range(n) if not x >> b & 1]
            assert maximal[x] == all(marked[x ^ e] for e in inside)
            assert counts[x] == sum(marked[x | e] for e in outside)


@pytest.mark.parametrize("n", NS)
def test_lattice_and_greedy_rank(n):
    for table in _tables(n, 100 + n):
        marked = table.tolist()
        lattice = bitset.lattice_rank(table)
        greedy = bitset.greedy_rank(table)
        for x in range(1 << n):
            assert lattice[x] == max((y.bit_count() for y in _subsets(x) if marked[y]), default=0)
            current = 0
            for b in range(n):
                if x >> b & 1 and marked[current | 1 << b]:
                    current |= 1 << b
            assert greedy[x] == current.bit_count()


def _exchange_reference(table: np.ndarray) -> tuple | None:
    """The first independent Y by (size, mask) with an independent X one
    larger that avoids every element extending Y, and the lowest such X."""
    marked = table.tolist()
    size = len(marked)
    n = size.bit_length() - 1
    rank = [max((y.bit_count() for y in _subsets(x) if marked[y]), default=0) for x in range(size)]
    for y in sorted(range(size), key=lambda m: (m.bit_count(), m)):
        if not marked[y]:
            continue
        ext = sum(1 << b for b in range(n) if not y >> b & 1 and marked[y | 1 << b])
        k = y.bit_count()
        if rank[(size - 1) ^ ext] > k:
            x = min(m for m in range(size) if marked[m] and m.bit_count() == k + 1 and m & ext == 0)
            return ("exchange", bitset.indices(x), bitset.indices(y))
    return None


@pytest.mark.parametrize("n", NS)
def test_exchange_failure_witness(n):
    outcomes = set()
    for table in _downward_closed_tables(n, 200 + n):
        expected = _exchange_reference(table)
        assert _exchange_failure(table) == expected
        outcomes.add(expected is None)
    if n >= 3:
        assert outcomes == {True, False}  # both a passing and a failing table ran


@pytest.mark.parametrize("n", range(1, 10))
def test_weak_map_image_is_the_inverse_image_of_each_mask(n):
    rng = random.Random(n)
    tables = _tables(n, 300 + n)
    for source_table in tables:
        for target_table in tables:
            mapping = list(range(1, n + 1))
            rng.shuffle(mapping)
            phi = ElementBijection(tuple(mapping))
            source = MatroidOracle(GroundSet(n), source_table.__getitem__, table=lambda t=source_table: t)
            target = MatroidOracle(GroundSet(n), target_table.__getitem__, table=lambda t=target_table: t)
            inverse = phi.inverse()
            failing = [
                inverse.apply(x) for x in range(1 << n)
                if target_table[x] and not source_table[inverse.apply(x)]
            ]
            report = is_weak_map_by_independence(source, target, phi)
            assert report.ok == (not failing)
            assert report.checked == 1 << n
            assert report.witnesses == tuple(failing[:1])


def _predicate_oracles(seed: int) -> tuple[list[bool], MatroidOracle, MatroidOracle]:
    """Random answers on 1..8 elements (not a matroid in general), as an
    oracle that keeps its independence table and one that does not."""
    rng = random.Random(seed)
    n = rng.randint(1, 8)
    answers = [rng.random() < 0.6 for _ in range(1 << n)]
    tabled = MatroidOracle(GroundSet(n), answers.__getitem__)
    tabled.independence_table()
    return answers, tabled, MatroidOracle(GroundSet(n), answers.__getitem__)


@pytest.mark.parametrize("seed", range(20))
def test_rank_table_is_the_greedy_walk_of_any_predicate(seed):
    answers, tabled, walked = _predicate_oracles(seed)
    n = tabled.n
    asked = []
    tabled._indep = lambda mask: asked.append(mask) or answers[mask]
    assert [tabled.rank(m) for m in range(1 << n)] == [walked.rank(m) for m in range(1 << n)]
    assert asked == []  # every rank was a lookup
    assert tabled.rank() == walked.rank()
    assert tabled.kept("rank-table") is not None and walked.kept("rank-table") is None
    for mask in (1 << n, -1, -(1 << n)):
        with pytest.raises(ValueError):
            tabled.rank(mask)
    # the dual's table reads the same rank table
    assert tabled.dual().independence_table().tolist() == [
        walked.is_coindependent(m) for m in range(1 << n)
    ]


@pytest.mark.parametrize("seed", range(10))
def test_truncation_rank_table_is_the_greedy_walk(seed):
    answers, parent, _ = _predicate_oracles(seed)
    n = parent.n
    for i in range(1, parent.rank() + 1):
        tabled = truncate(parent, i)
        tabled.independence_table()
        supplied = truncate(MatroidOracle(GroundSet(n), answers.__getitem__), i)
        walked = MatroidOracle(tabled.ground, tabled._indep)  # the same predicate, no rank supplied
        for mask in range(1 << n):
            assert tabled.rank(mask) == supplied.rank(mask) == walked.rank(mask), (answers, i, mask)
        assert supplied.kept("rank-table") is None


def _deficiency_loop(pres, oracle) -> tuple[bool, object]:
    """The entry's loop over circuits x unions, kept as its reference."""
    unions = pres.base.unions
    for circuit in oracle.circuits():
        for j_mask, union in enumerate(unions):
            size = j_mask.bit_count()
            if (union & ~circuit).bit_count() < size:
                size_ok = circuit.bit_count() == union.bit_count() - size + 1
                if not (bitset.is_subset(circuit, union) and size_ok):
                    lefts = list(bitset.indices(j_mask))
                    return False, {"circuit": list(bitset.indices(circuit)), "J": lefts}
    return True, None


@pytest.mark.parametrize("n, s", [(n, s) for n, s in PSI_GRID if n <= 12])
def test_deficiency_entry_matches_the_loop(n, s, psi_oracles):
    pres, oracle = interval_presentation(n, s), psi_oracles[(n, s)]
    assert _deficiency_entry(pres, oracle) == _deficiency_loop(pres, oracle) == (True, None)
    rng = random.Random(n * 100 + s)
    members = list(oracle.circuits())
    failures = 0
    for _ in range(30):
        corrupted = list(members)
        for _ in range(rng.randint(1, 3)):
            edit = rng.randrange(3)
            if edit == 0:  # a random mask in place of a member
                corrupted[rng.randrange(len(corrupted))] = rng.getrandbits(n)
            elif edit == 1:  # a member with one element dropped or added
                i = rng.randrange(len(corrupted))
                corrupted[i] ^= 1 << rng.randrange(n)
            else:  # a mask outside the ground set
                corrupted.insert(rng.randrange(len(corrupted) + 1), rng.getrandbits(n) | 1 << n)
        rng.shuffle(corrupted)
        # `circuits()` returns a family, here one kept in the corrupted order
        family = CircuitFamily(n, tuple(corrupted))
        stub = SimpleNamespace(n=n, ground=oracle.ground, circuits=lambda c=family: c)
        expected = _deficiency_loop(pres, stub)
        assert _deficiency_entry(pres, stub) == expected
        failures += not expected[0]
    assert failures  # the corrupted lists gave witnesses to compare
