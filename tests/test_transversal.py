import dataclasses
import itertools
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cycmat import CapExceeded, bitset, transversal
from cycmat.constructions import truncate
from cycmat.core import (
    GroundSet,
    MatroidOracle,
    oracle_from_circuits,
    verify_matroid_axioms,
)
from cycmat.cyclic import PSI_FLOOR
from cycmat.suite import PSI_GRID
from cycmat.transversal import (
    _matching_size,
    BipartitePresentation,
    IntervalPresentation,
    brute_force_matching_size,
    classify_circuit,
    dual_transversal,
    interval_presentation,
    max_matching,
    psi,
    psi_basis_table,
    psi_basis_test,
    self_duality_map,
    transversal_matroid,
)


def hall_indep(pres, mask):
    """Quantifier form of dual independence: every J has |N(J) - X| >= |J|.

    An oracle independent of the augmenting-path code path.
    """
    m = pres.m
    for j_mask in range(1, 1 << m):
        lefts = bitset.indices(j_mask)
        union = pres.neighborhood_union(lefts)
        if (union & ~mask).bit_count() < len(lefts):
            return False
    return True


def test_interval_presentation_shape():
    pres = interval_presentation(8, 3)
    assert pres.m == 4
    assert pres.base.neighborhoods[0] == bitset.mask_of([1, 2, 3])
    assert pres.base.neighborhoods[3] == bitset.mask_of([7, 8, 1])
    assert pres.xs == (1, 3, 5, 7)


def test_interval_presentation_rejects_bad_params():
    # odd n, s below 2, and n below 2s - 2 (the intervals would wrap onto themselves)
    for n, s in ((9, 3), (7, 3), (8, 1), (4, 4), (6, 5)):
        assert not PSI_FLOOR.holds(n, s, None)
        for build in (IntervalPresentation, interval_presentation):
            with pytest.raises(ValueError) as info:
                build(n, s)
            assert str(info.value) == f"psi(n, s) needs {PSI_FLOOR.formula}, got n={n}, s={s}"
    # the other side of each edge
    for n, s in ((8, 3), (8, 2), (6, 4), (8, 5)):
        assert PSI_FLOOR.holds(n, s, None) and IntervalPresentation(n, s).m == n // 2


def test_interval_presentation_holds_only_n_and_s():
    assert [field.name for field in dataclasses.fields(IntervalPresentation)] == ["n", "s"]
    pres = interval_presentation(8, 3)
    assert pres == IntervalPresentation(8, 3) and pres is interval_presentation(8, 3)
    with pytest.raises(dataclasses.FrozenInstanceError):
        pres.xs = (1, 2, 3, 4)


def _cyclically_increasing(seq):
    """Distinct, and increasing once rotated to start at the minimum."""
    wraps = sum(a > b for a, b in zip(seq, seq[1:] + seq[:1]))
    return len(set(seq)) == len(seq) and wraps <= 1


@pytest.mark.parametrize("n", range(2, 41, 2))
def test_derived_intervals_are_odd_start_s_windows_in_cyclic_order(n):
    for s in range(2, n // 2 + 2):
        pres = IntervalPresentation(n, s)
        nbrs = pres.base.neighborhoods
        assert pres.m == len(nbrs) == len(pres.xs) == len(pres.ys) == n // 2
        for x, y, nbr in zip(pres.xs, pres.ys, nbrs):
            assert x % 2 == 1
            assert nbr == bitset.mask_of([(x - 1 + k) % n + 1 for k in range(s)])
            assert nbr.bit_count() == s
            assert y == (x + s - 2) % n + 1
        for i, a in enumerate(nbrs):
            for j, b in enumerate(nbrs):
                assert i == j or a & ~b, (n, s, i, j)
        assert _cyclically_increasing(pres.xs) and _cyclically_increasing(pres.ys), (n, s)


def test_max_matching_complete():
    pres = interval_presentation(8, 3)
    result = max_matching(pres.base)
    assert result.size == 4
    assert result.complete


def test_max_matching_deficiency_witness():
    # avoiding N(1) entirely starves left vertex 1
    pres = interval_presentation(8, 3)
    result = max_matching(pres.base, avoid=bitset.mask_of([1, 2, 3]))
    assert result.size == 3
    assert result.witness == (1,)


def test_witness_certifies_deficiency():
    pres = interval_presentation(12, 4)
    rng = random.Random(5)
    for _ in range(120):
        avoid = rng.getrandbits(12)
        result = max_matching(pres.base, avoid)
        assert result.size == brute_force_matching_size(pres.base, [avoid])[0]
        if not result.complete:
            union = pres.base.neighborhood_union(result.witness)
            deficiency = len(result.witness) - (union & ~avoid).bit_count()
            # the extracted J attains the maximum deficiency
            assert deficiency == pres.m - result.size


def reference_matching_size(pres, avoid):
    """The exhaustive recursion over matchings that Ore's defect formula replaced."""
    adjacency = [nbr & ~avoid for nbr in pres.neighborhoods]

    def best(i, used):
        if i == len(adjacency):
            return 0
        out = best(i + 1, used)
        for bit in bitset.singletons(adjacency[i] & ~used):
            out = max(out, 1 + best(i + 1, used | bit))
        return out

    return best(0, 0)


def reference_matching(adjacency):
    """Kuhn's augmenting paths as a recursive search, the form the explicit
    stack of `transversal._augment` replaced; left vertices ascending."""

    def augment(i, match_of_right, seen):
        for bit in bitset.singletons(adjacency[i] & ~seen):
            seen |= bit
            holder = match_of_right.get(bit)
            if holder is None:
                match_of_right[bit] = i
                return True, seen
            ok, seen = augment(holder, match_of_right, seen)
            if ok:
                match_of_right[bit] = i
                return True, seen
        return False, seen

    match_of_right = {}
    room = 0
    for adj in adjacency:
        room |= adj
    for i in range(len(adjacency)):
        if len(match_of_right) == room.bit_count():
            break
        augment(i, match_of_right, 0)
    return match_of_right


def test_iterative_augmenting_paths_equal_the_recursive_search():
    rng = random.Random(20261019)
    for _ in range(1500):
        n, m = rng.randint(1, 24), rng.randint(1, 16)
        adjacency = [rng.getrandbits(n) & rng.getrandbits(n) for _ in range(m)]
        want = reference_matching(adjacency)
        got = transversal._matching(adjacency)
        # the same pairs, inserted in the same order
        assert list(got.items()) == list(want.items()), adjacency


def test_augmenting_path_longer_than_the_recursion_limit():
    # N(i) = {e_i, e_{i+1}} for i < 1500 and N(1500) = {e_1}: vertex 1500's
    # augmenting path runs through all 1499 earlier vertices
    n = 1501
    nbrs = [bitset.mask_of([i, i + 1]) for i in range(1, 1500)] + [bitset.mask_of([1])]
    pres = BipartitePresentation(GroundSet(n), tuple(nbrs))
    result = max_matching(pres)
    assert result.complete and result.size == 1500
    assert result.pairs == tuple((i, i + 1) for i in range(1, 1500)) + ((1500, 1),)


@st.composite
def presentations_and_avoids(draw):
    n = draw(st.integers(1, 10))
    masks = st.integers(0, (1 << n) - 1)
    nbrs = draw(st.lists(masks, min_size=1, max_size=6))  # empty neighbourhoods allowed
    return BipartitePresentation(GroundSet(n), tuple(nbrs)), draw(masks)


@settings(max_examples=300, deadline=None)
@given(presentations_and_avoids())
def test_defect_formula_matches_augmenting_paths_and_recursion(case):
    pres, avoid = case
    (size,) = brute_force_matching_size(pres, [avoid])
    assert size == max_matching(pres, avoid).size
    assert size == reference_matching_size(pres, avoid)


def test_unions_table_matches_neighborhood_union():
    pres = interval_presentation(12, 4).base
    assert len(pres.unions) == 1 << pres.m
    for j, union in enumerate(pres.unions):
        assert union == pres.neighborhood_union(bitset.indices(j))


@st.composite
def presentations(draw):
    n = draw(st.integers(1, 10))
    m = draw(st.integers(1, 70))
    masks = st.integers(0, (1 << n) - 1)  # empty neighbourhoods allowed
    nbrs = draw(st.lists(masks, min_size=m, max_size=m))
    return BipartitePresentation(GroundSet(n), tuple(nbrs))


def _assert_tables_match_augmenting_paths(pres):
    size, full, m = _matching_size(pres), pres.ground.full, pres.m
    for mask in range(1 << pres.ground.n):
        assert pres.independent[mask] == (size(mask) == mask.bit_count()), mask
        assert pres.dual_independent[mask] == (size(full & ~mask) == m), mask


def _pinned(test):
    """m > n with an empty neighbourhood, so [m] does not match into E, and
    m > WORD_BITS twice."""
    for pres in (
        BipartitePresentation(GroundSet(4), (0b0011, 0b0110, 0, 0b1100, 0b1001, 0b1111)),
        BipartitePresentation(GroundSet(10), tuple(range(bitset.WORD_BITS + 1))),
        BipartitePresentation(GroundSet(10), (0,) + tuple(1 << i % 10 for i in range(69))),
    ):
        test = example(pres)(test)
    return test


@settings(max_examples=60, deadline=None)
@given(presentations())
@_pinned
def test_hall_tables_match_augmenting_paths(pres):
    _assert_tables_match_augmenting_paths(pres)


def _matching_oracles(pres):
    """The transversal matroid and its dual as built above the lattice cap,
    whatever n is: both supply their rank from one maximum matching."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(bitset, "lattice_cap", lambda: 0)
        return transversal_matroid(pres), dual_transversal(pres)


@settings(max_examples=60, deadline=None)
@given(presentations())
@_pinned
def test_matching_rank_equals_greedy_rank_on_the_hall_table(pres):
    primal, dual = _matching_oracles(pres)
    greedy_primal = MatroidOracle(pres.ground, pres.independent.__getitem__)
    greedy_dual = MatroidOracle(pres.ground, pres.dual_independent.__getitem__)
    for mask in range(1 << pres.ground.n):
        assert primal.rank(mask) == greedy_primal.rank(mask), mask
        assert dual.rank(mask) == greedy_dual.rank(mask), mask
    # the supplied rank asks no predicate, so it leaves the memo empty
    assert primal._memo == dual._memo == {}


def test_hall_tables_are_read_only():
    pres = interval_presentation(8, 3).base
    for table in (pres.independent, pres.dual_independent):
        assert len(table) == 1 << 8
        with pytest.raises(ValueError):
            table[0] = False


def test_psi_grid_matches_augmenting_paths():
    for n, s in PSI_GRID:
        M = psi(n, s)
        pres = interval_presentation(n, s).base
        size, full, m = _matching_size(pres), pres.ground.full, pres.m
        for mask in range(1 << n):
            assert M.indep(mask) == (size(full & ~mask) == m), (n, s, mask)


def test_no_complete_matching_means_no_independent_set(monkeypatch):
    # two left vertices share the single element e1: [m] never matches
    pres = BipartitePresentation(GroundSet(3), (0b001, 0b001))
    size = _matching_size(pres)
    assert not pres.dual_independent.any()
    assert not any(size(pres.ground.full & ~mask) == pres.m for mask in range(1 << 3))
    assert not dual_transversal(pres).indep(0)
    _assert_tables_match_augmenting_paths(pres)
    monkeypatch.setenv("CYCMAT_MAX_N", "2")
    above = dual_transversal(pres)
    assert not above.indep(0)
    assert above.rank() == 0
    assert all(above.rank(mask) == 0 for mask in range(1 << 3))


def _no_augmenting_paths(adjacency):
    raise AssertionError("augmenting paths run below the lattice cap")


def test_psi_below_table_cap_needs_no_matching(monkeypatch):
    monkeypatch.setattr(transversal, "_matching", _no_augmenting_paths)
    M = psi(12, 4)
    assert len(M.circuits()) == len(M.cocircuits()) > 0
    assert verify_matroid_axioms(M).ok
    ground = GroundSet(6)
    pres = BipartitePresentation(ground, tuple(bitset.cyclic_interval(6, i, i + 2) for i in (1, 3)))
    assert transversal_matroid(pres).rank() == 2
    assert dual_transversal(pres).rank() == 4


def test_psi_above_table_cap_runs_augmenting_paths(monkeypatch):
    calls = []
    matching = transversal._matching

    def counting(adjacency):
        calls.append(len(adjacency))
        return matching(adjacency)

    monkeypatch.setattr(transversal, "_matching", counting)
    monkeypatch.delenv("CYCMAT_MAX_N", raising=False)
    assert 22 > bitset.LATTICE_CAP
    assert psi(22, 4).rank() == 11
    # one matching on E to see that [m] matches, one on E - X
    assert 0 < len(calls) <= 2
    calls.clear()
    assert psi(22, 4).rank(bitset.mask_of([1, 2, 3, 4])) == 3  # an s-window is a circuit
    assert 0 < len(calls) <= 2
    assert "dual_independent" not in vars(interval_presentation(22, 4).base)


@pytest.mark.parametrize("n, s, cap", [(22, 4, None), (30, 5, None), (40, 6, None), (10, 3, "8")])
def test_supplied_rank_above_the_cap_equals_greedy_rank(monkeypatch, n, s, cap):
    if cap is None:
        monkeypatch.delenv("CYCMAT_MAX_N", raising=False)
    else:
        monkeypatch.setenv("CYCMAT_MAX_N", cap)
    assert n > bitset.lattice_cap()
    rng = random.Random(n)
    nbrs = tuple(rng.getrandbits(n) & rng.getrandbits(n) for _ in range(rng.randint(1, n)))
    pres = BipartitePresentation(GroundSet(n), nbrs)
    for M in (psi(n, s), truncate(psi(n, s), 1), transversal_matroid(pres), dual_transversal(pres)):
        assert M._rank is not None, M
        greedy = MatroidOracle(M.ground, M._indep)  # the same predicate, no supplied rank
        assert M.rank() == greedy.rank(), M
        for _ in range(30):
            mask = rng.getrandbits(n)
            assert M.rank(mask) == greedy.rank(mask), (M, mask)
        with pytest.raises(ValueError):
            M.rank(1 << n)


def test_psi_at_the_lattice_cap_reads_the_hall_table(monkeypatch):
    monkeypatch.setattr(transversal, "_matching", _no_augmenting_paths)
    monkeypatch.delenv("CYCMAT_MAX_N", raising=False)
    assert psi(20, 4).rank() == 10
    assert "dual_independent" in vars(interval_presentation(20, 4).base)


def test_enumeration_cap_holds_for_table_oracles(monkeypatch):
    monkeypatch.setenv("CYCMAT_MAX_N", "8")
    M = psi(10, 3)
    with pytest.raises(CapExceeded):
        M.circuits()
    assert M.rank() == 5
    assert M.indep(bitset.mask_of([1, 3, 5, 7, 9]))
    assert not M.indep(bitset.mask_of([1, 2, 3]))


def test_presentation_above_the_cap_builds_no_hall_table(monkeypatch):
    # a presentation not yet asked (interval_presentation is cached), at n = 10
    monkeypatch.setenv("CYCMAT_MAX_N", "8")
    pres = BipartitePresentation(GroundSet(10), interval_presentation(10, 3).base.neighborhoods)
    assert dual_transversal(pres).rank() == 5
    assert transversal_matroid(pres).rank() == 5
    assert "independent" not in vars(pres) and "dual_independent" not in vars(pres)


def test_matching_pairs_respect_neighborhoods():
    pres = interval_presentation(10, 3)
    result = max_matching(pres.base, avoid=bitset.mask_of([2, 3]))
    for left, elem in result.pairs:
        assert pres.base.neighborhoods[left - 1] >> (elem - 1) & 1


def test_transversal_matroid_single_block():
    ground = GroundSet(5)
    pres = BipartitePresentation(ground, (ground.full,))
    M = transversal_matroid(pres)
    for mask in range(1 << 5):
        assert M.indep(mask) == (mask.bit_count() <= 1)


def test_transversal_matroid_disjoint_pairs():
    ground = GroundSet(6)
    pres = BipartitePresentation(
        ground, tuple(bitset.mask_of([2 * i + 1, 2 * i + 2]) for i in range(3))
    )
    M = transversal_matroid(pres)
    for mask in range(1 << 6):
        expected = all(
            (mask & bitset.mask_of([2 * i + 1, 2 * i + 2])).bit_count() <= 1 for i in range(3)
        )
        assert M.indep(mask) == expected


def test_dual_transversal_matches_hall_oracle():
    for n, s in ((8, 3), (10, 4)):
        pres = interval_presentation(n, s)
        M = dual_transversal(pres.base)
        for mask in range(1 << n):
            assert M.indep(mask) == hall_indep(pres.base, mask)


def test_dual_transversal_equals_generic_dual():
    pres = interval_presentation(8, 3)
    direct = dual_transversal(pres.base)
    generic = transversal_matroid(pres.base).dual()
    for mask in range(1 << 8):
        assert direct.indep(mask) == generic.indep(mask)


def test_psi_parameters_and_rank():
    assert psi(12, 4).rank() == 6
    assert psi(8, 3).rank() == 4
    with pytest.raises(ValueError):
        psi(9, 3)
    with pytest.raises(ValueError):
        psi(6, 5)  # 6 < 2*5 - 2


def test_smallest_psi_parameters_build():
    M = psi(4, 2)
    for mask in range(1 << 4):
        expected = (mask & 0b0011).bit_count() <= 1 and (mask & 0b1100).bit_count() <= 1
        assert M.indep(mask) == expected
    assert psi(4, 3).rank() == 2


def test_psi_s2_is_disjoint_pairs():
    M = psi(8, 2)
    for mask in range(1 << 8):
        expected = all(
            (mask & bitset.mask_of([2 * i + 1, 2 * i + 2])).bit_count() <= 1 for i in range(4)
        )
        assert M.indep(mask) == expected


def test_dependent_triple_in_psi83():
    M = psi(8, 3)
    assert not M.indep(bitset.mask_of([1, 2, 3]))
    pres = interval_presentation(8, 3)
    result = max_matching(pres.base, avoid=bitset.mask_of([1, 2, 3]))
    assert result.witness == (1,)


def test_augmented_two_block_starves_matching():
    # avoiding a two-block set plus a gap element leaves no complete matching
    pres = interval_presentation(12, 4)
    for avoid in (
        bitset.mask_of([1, 2, 3, 5, 6]),
        bitset.mask_of([1, 2, 4, 5, 6]),
        bitset.mask_of([1, 2, 3, 4, 5]),
    ):
        assert max_matching(pres.base, avoid).size < 6


def test_psi_basis_examples():
    assert psi_basis_test(8, 3, bitset.mask_of([1, 3, 5, 7]))
    assert not psi_basis_test(8, 3, bitset.mask_of([1, 2, 3, 5]))


def test_basis_characterization_agrees_with_matching(psi_oracles):
    for n, s in ((8, 3), (12, 4)):
        M = psi_oracles[(n, s)]
        half = n // 2
        for mask in range(1 << n):
            lhs = psi_basis_test(n, s, mask)
            rhs = mask.bit_count() == half and M.indep(mask)
            assert lhs == rhs


@pytest.mark.parametrize("n, s", [(n, s) for n, s in PSI_GRID if n <= 12])
def test_basis_table_is_the_basis_test_on_every_mask(n, s):
    table = psi_basis_table(n, s)
    assert table.dtype == bool and len(table) == 1 << n
    assert table.tolist() == [psi_basis_test(n, s, mask) for mask in range(1 << n)]


def test_self_duality_map_shape():
    assert self_duality_map(8, 4) == tuple(range(1, 9))
    assert self_duality_map(8, 3) == (2, 3, 4, 5, 6, 7, 8, 1)


def test_self_duality_on_circuits(psi_oracles):
    for n, s in ((8, 3), (8, 4), (10, 3), (12, 4), (12, 5)):
        M = psi_oracles[(n, s)]
        perm = self_duality_map(n, s)
        assert {bitset.permute(c, perm) for c in M.circuits()} == set(M.cocircuits().members)


def test_self_duality_basis_route(psi_oracles):
    # complement-then-unrotate carries bases to bases
    M = psi(10, 3)
    n = 10
    perm = self_duality_map(n, 3)
    inverse = tuple(sorted(range(1, n + 1), key=lambda i: perm[i - 1]))
    full = M.ground.full
    for mask in range(1 << n):
        if mask.bit_count() == 5 and M.indep(mask):
            image = bitset.permute(full & ~mask, inverse)
            assert M.indep(image) and image.bit_count() == 5


def test_classification_interval_example():
    pres = interval_presentation(8, 3)
    outcome = classify_circuit(psi(8, 3), pres, bitset.mask_of([1, 2, 3]))
    assert outcome.kind == "interval"
    assert (outcome.i, outcome.j) == (1, 1)


def test_classification_spanning_example():
    pres = interval_presentation(8, 3)
    M = dual_transversal(pres.base)
    five = [c for c in M.circuits() if c.bit_count() == 5]
    assert five
    for c in five:
        assert classify_circuit(M, pres, c).kind == "spanning"


def test_classification_rejects_non_circuit():
    pres = interval_presentation(8, 3)
    with pytest.raises(ValueError):
        classify_circuit(psi(8, 3), pres, bitset.mask_of([1, 2]))


def test_classification_rejects_other_ground_set():
    pres = interval_presentation(8, 3)
    with pytest.raises(ValueError):
        classify_circuit(psi(10, 3), pres, bitset.mask_of([1, 2, 3]))


def test_classification_total(psi_oracles):
    for n, s in ((8, 3), (12, 5)):
        pres = interval_presentation(n, s)
        M = psi_oracles[(n, s)]
        for circuit in M.circuits():
            assert classify_circuit(M, pres, circuit).ok


def test_classification_needs_the_interval_in_the_closure():
    # {1,2,4,5} is psi(10,3)'s circuit on the run [1, 2], whose interval is
    # {1..5}; as the one circuit of a matroid, 3 lies outside its closure
    pres = interval_presentation(10, 3)
    circuit = bitset.mask_of([1, 2, 4, 5])
    assert classify_circuit(psi(10, 3), pres, circuit) == transversal.CircuitClassification(
        "interval", 1, 2)
    lone = oracle_from_circuits(GroundSet(10), [circuit])
    assert classify_circuit(lone, pres, circuit).kind == "unclassified"


@pytest.mark.parametrize("s", [3, 4])
def test_circuit_closure_is_where_the_rank_stays(s):
    # X lies in cl(C) iff r(C | X) = r(C), the one rank classify_circuit asks
    # in place of the closure; r(C) = |C| - 1 on a circuit
    M = psi(10, s)
    rng = random.Random(s)
    for circuit in M.circuits():
        closure = M.closure(circuit)
        assert M.rank(circuit) == circuit.bit_count() - 1
        for _ in range(6):
            for mask in (rng.getrandbits(10), closure & rng.getrandbits(10)):
                assert bitset.is_subset(mask, closure) == (
                    M.rank(circuit | mask) == M.rank(circuit)), (circuit, mask)


def test_circuit_size_dichotomy(psi_oracles):
    # circuits are spanning-size or interval-size s + k
    for n, s in ((8, 3), (12, 4)):
        M = psi_oracles[(n, s)]
        m = n // 2
        interval_sizes = {s + k for k in range(0, m - s + 1)}
        for c in M.circuits():
            assert c.bit_count() == n - m + 1 or c.bit_count() in interval_sizes


def test_interval_run_union():
    pres = interval_presentation(8, 3)
    assert pres.run_union(1, 2) == bitset.cyclic_interval(8, 1, 5)
    assert pres.run_union(4, 1) == bitset.cyclic_interval(8, 7, 3)
    assert pres.run_length(4, 1) == 2


def reference_defect_sizes(pres, avoids):
    """Ore's defect one avoid at a time, the loop the array form replaced."""
    return [
        pres.m - max(j.bit_count() - (union & ~avoid).bit_count() for j, union in enumerate(pres.unions))
        for avoid in avoids
    ]


@pytest.mark.parametrize("n", [1, 5, 10, 14, 62, 63, 70])
def test_array_defect_equals_the_per_avoid_defect(n):
    rng = random.Random(n)
    for _ in range(20):
        m = rng.randint(1, 7)
        nbrs = [rng.getrandbits(n) & rng.getrandbits(n) for _ in range(m)]
        nbrs[rng.randrange(m)] = nbrs[rng.randrange(m)]  # a repeated neighbourhood
        pres = BipartitePresentation(GroundSet(n), tuple(nbrs))
        avoids = [0, pres.ground.full] + [rng.getrandbits(n) for _ in range(12)]
        assert brute_force_matching_size(pres, avoids).tolist() == reference_defect_sizes(pres, avoids)
        assert brute_force_matching_size(pres, []).tolist() == []


def reference_matching_entry(pres, seed, matching=max_matching):
    """The entry's loop before the defect ran on all avoids at once."""
    rng = random.Random(seed)
    n = pres.n
    avoids = [0] + [1 << i for i in range(n)] + [rng.getrandbits(n) for _ in range(40)]
    for avoid in avoids:
        avoid &= pres.base.ground.full
        fast = matching(pres.base, avoid)
        (slow,) = reference_defect_sizes(pres.base, [avoid])
        if fast.size != slow:
            return False, {"avoid": list(bitset.indices(avoid)), "fast": fast.size, "slow": slow}
        if fast.size < pres.m:
            lefts = fast.witness
            union = pres.base.unions[bitset.mask_of(lefts)]
            if len(lefts) - (union & ~avoid).bit_count() != pres.m - fast.size:
                return False, {"avoid": list(bitset.indices(avoid)), "witness": list(lefts)}
    return True, None


@pytest.mark.parametrize("n, s", [(n, s) for n, s in PSI_GRID if n <= 12])
def test_matching_entry_keeps_the_first_failing_avoid(n, s, monkeypatch):
    from cycmat import suite

    pres = interval_presentation(n, s)
    assert suite._matching_entry(pres, 7) == reference_matching_entry(pres, 7) == (True, None)

    def off_by_one(base, avoid=0):
        result = max_matching(base, avoid)
        if avoid.bit_count() % 3 == 2:  # a wrong size on some avoids, never the first
            return transversal.MatchingResult(result.size + 1, result.pairs, result.witness)
        return result

    expected = reference_matching_entry(pres, 7, off_by_one)
    monkeypatch.setattr(suite, "max_matching", off_by_one)
    assert not expected[0]
    assert suite._matching_entry(pres, 7) == expected


def reference_classify(oracle, pres, circuit):
    """The m^2 loop over runs, each union rebuilt, that `interval_runs` replaced."""
    if oracle.n != pres.n:
        raise ValueError("the classified matroid must share the presentation's ground set")
    if not oracle.is_circuit(circuit):
        raise ValueError("classification requires a circuit of the dual matroid")
    n, m = pres.n, pres.m
    if circuit.bit_count() == n - m + 1:
        return transversal.CircuitClassification("spanning")
    for i in range(1, m + 1):
        for j in range(1, m + 1):
            union = pres.run_union(i, j)
            interval = bitset.cyclic_interval(n, pres.xs[i - 1], pres.ys[j - 1])
            if union != interval or not bitset.is_subset(circuit, union):
                continue
            if circuit.bit_count() != union.bit_count() - pres.run_length(i, j) + 1:
                continue
            if i != j:
                if not bitset.is_subset(union & ~pres.run_union(i % m + 1, j), circuit):
                    continue
                if not bitset.is_subset(union & ~pres.run_union(i, (j - 2) % m + 1), circuit):
                    continue
            if oracle.rank(interval) != circuit.bit_count() - 1:
                continue
            return transversal.CircuitClassification("interval", i, j)
    return transversal.CircuitClassification("unclassified")


@pytest.mark.parametrize("n, s", [(n, s) for n, s in PSI_GRID if n <= 12])
def test_classification_over_kept_runs_equals_the_loop(n, s, psi_oracles):
    pres, oracle = interval_presentation(n, s), psi_oracles[(n, s)]
    for circuit in oracle.circuits():
        assert classify_circuit(oracle, pres, circuit) == reference_classify(oracle, pres, circuit)
    # the lone circuit of psi(10,3)'s interval run [1, 2] is left unclassified
    pres = interval_presentation(10, 3)
    circuit = bitset.mask_of([1, 2, 4, 5])
    lone = oracle_from_circuits(GroundSet(10), [circuit])
    assert classify_circuit(lone, pres, circuit) == reference_classify(lone, pres, circuit)
    assert classify_circuit(lone, pres, circuit).kind == "unclassified"
    # U(3,5) on e_1..e_5: {1,2,3,4} fills run [1, 2]'s interval {1..5} up to
    # rank and size, but misses e_5, which only N(2) reaches
    quads = [bitset.mask_of(q) for q in itertools.combinations(range(1, 6), 4)]
    uniform_part = oracle_from_circuits(GroundSet(10), quads)
    for quad in quads:
        assert classify_circuit(uniform_part, pres, quad) == reference_classify(uniform_part, pres, quad)
    assert classify_circuit(uniform_part, pres, bitset.mask_of([1, 2, 3, 4])).kind == "unclassified"
    for route in (classify_circuit, reference_classify):
        with pytest.raises(ValueError, match="requires a circuit"):
            route(psi(10, 3), pres, bitset.mask_of([1, 2]))


def test_interval_runs_are_the_runs_whose_union_is_the_interval():
    pres = interval_presentation(12, 4)
    m = pres.m
    runs = {(i, j): rest for i, j, *rest in pres.interval_runs}
    for i in range(1, m + 1):
        for j in range(1, m + 1):
            union = pres.run_union(i, j)
            interval = bitset.cyclic_interval(12, pres.xs[i - 1], pres.ys[j - 1])
            assert ((i, j) in runs) == (union == interval)
    assert list(runs) == sorted(runs)
    assert runs[(1, 1)] == [pres.base.neighborhoods[0], 0, 1]
    # N(1) | N(2) = {1..6}: only N(1) reaches 1, 2 and only N(2) reaches 5, 6
    assert runs[(1, 2)] == [bitset.mask_of(range(1, 7)), bitset.mask_of([1, 2, 5, 6]), 2]


def reference_augment(root, adjacency, match_of_right):
    """`_augment` without its first-step shortcut: every search on the stack."""
    seen = 0
    stack = [(root, bitset.singletons(adjacency[root]))]
    path = []
    while stack:
        bit = next(stack[-1][1], None)
        if bit is None:
            stack.pop()
            del path[-1:]
            continue
        seen |= bit
        path.append(bit)
        holder = match_of_right.get(bit)
        if holder is None:
            for (left, _), right in zip(stack, path):
                match_of_right[right] = left
            return True
        stack.append((holder, bitset.singletons(adjacency[holder] & ~seen)))
    return False


def _chain_presentation():
    nbrs = [bitset.mask_of([i, i + 1]) for i in range(1, 1500)] + [bitset.mask_of([1])]
    return BipartitePresentation(GroundSet(1501), tuple(nbrs))


def test_first_step_shortcut_keeps_pairs_and_witness(monkeypatch):
    rng = random.Random(20261020)
    cases = []
    for _ in range(300):
        n, m = rng.randint(1, 20), rng.randint(1, 12)
        nbrs = [rng.getrandbits(n) & rng.getrandbits(n) for _ in range(m)]
        nbrs[rng.randrange(m)] = nbrs[rng.randrange(m)]
        pres = BipartitePresentation(GroundSet(n), tuple(nbrs))
        cases += [(pres, 0), (pres, rng.getrandbits(n)), (pres, pres.ground.full)]
    cases.append((_chain_presentation(), 0))
    cases.append((_chain_presentation(), bitset.mask_of([1])))
    got = [max_matching(pres, avoid) for pres, avoid in cases]
    with monkeypatch.context() as patch:
        patch.setattr(transversal, "_augment", reference_augment)
        want = [max_matching(pres, avoid) for pres, avoid in cases]
    assert got == want
    assert any(not result.complete for result in got) and any(result.complete for result in got)
