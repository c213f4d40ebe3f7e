"""Supplied independence tables equal their predicates.

An oracle built with `table` skips asking its predicate mask by mask, so the
table it hands over must be the predicate's answer on every mask.  Each case
builds the oracles, fills every table (which must write no memo entry,
here or in a parent), then asks `indep` on all 2^n masks.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cycmat import GroundSet, MatroidOracle, bitset, oracle_from_circuits
from cycmat.constructions import free_spike, truncate, uniform, wheel
from cycmat.transversal import BipartitePresentation, dual_transversal, psi, transversal_matroid

MAX_N = 10


def _assert_tables_are_predicates(supplied: list[MatroidOracle], others=()) -> None:
    """Each oracle of `supplied` hands over a table; with their duals and
    double duals, every table equals `indep` on every mask."""
    oracles = []
    for oracle in supplied:
        assert oracle._table is not None, oracle
        oracles += [oracle, oracle.dual(), oracle.dual().dual()]
    for oracle in others:
        oracles += [oracle.dual(), oracle.dual().dual()]
    involved = [*oracles, *others]
    memos = [dict(oracle._memo) for oracle in involved]  # truncate() asks its base's rank
    tables = [oracle.independence_table() for oracle in oracles]
    for oracle, memo in zip(involved, memos):
        assert oracle._memo == memo, oracle
    for oracle, table in zip(oracles, tables):
        assert table.dtype == bool and len(table) == 1 << oracle.n, oracle
        assert table.tolist() == [oracle.indep(m) for m in range(1 << oracle.n)], oracle


@st.composite
def presentations(draw):
    n = draw(st.integers(min_value=1, max_value=MAX_N))
    nbrs = draw(st.lists(st.integers(min_value=0, max_value=(1 << n) - 1), min_size=1, max_size=5))
    return BipartitePresentation(GroundSet(n), tuple(nbrs))


@settings(max_examples=60, deadline=None)
@given(presentations(), st.integers(min_value=0, max_value=3))
def test_transversal_tables_are_their_predicates(pres, steps):
    primal, dual = transversal_matroid(pres), dual_transversal(pres)
    family = oracle_from_circuits(pres.ground, primal.circuits().members, validate=False)
    supplied = [primal, dual, family]
    for oracle in (primal, dual):
        if 1 <= steps <= oracle.rank():
            supplied.append(truncate(oracle, steps))
    _assert_tables_are_predicates(supplied)
    # the presentation's own arrays, not copies
    assert primal.independence_table() is pres.independent
    assert dual.independence_table() is pres.dual_independent


@settings(max_examples=20, deadline=None)
@given(st.sampled_from([(n, s) for n in range(4, MAX_N + 1, 2) for s in range(2, n // 2 + 2)]))
def test_psi_tables_are_their_predicates(params):
    oracle = psi(*params)
    _assert_tables_are_predicates([oracle, truncate(oracle, 1)])


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=MAX_N).flatmap(
    lambda n: st.tuples(st.integers(min_value=0, max_value=n), st.just(n))))
def test_uniform_tables_are_their_predicates(rn):
    r, n = rn
    oracle = uniform(r, n)
    supplied = [oracle] + ([truncate(oracle, 1)] if r else [])
    _assert_tables_are_predicates(supplied)


def test_construction_tables_are_their_predicates():
    spikes = [free_spike(r)[0] for r in (3, 4, 5)]
    graphic = wheel(4)
    _assert_tables_are_predicates([*spikes, truncate(spikes[0], 2), graphic, truncate(graphic, 1)])


@pytest.mark.parametrize("r", range(2, 9))
def test_wheel_forest_table_is_the_union_find_predicate(r):
    # r = 2 has two parallel rim edges between its two rim vertices
    oracle = wheel(r)
    table = oracle.independence_table()
    assert not oracle._memo
    assert table.dtype == bool and len(table) == 1 << (2 * r)
    assert table.tolist() == [oracle.indep(m) for m in range(1 << (2 * r))]
    assert len(oracle.circuits()) == r * r - r + 1  # the cycles of the wheel


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=1, max_value=8).flatmap(lambda n: st.tuples(
    st.just(n), st.sets(st.integers(min_value=0, max_value=(1 << n) - 1), max_size=60))))
@example((3, {0, 0b011}))  # {1, 2} independent, {1} and {2} not
@example((3, {0b101, 0b010}))  # the empty set dependent
def test_greedy_dual_table_matches_is_coindependent_off_matroids(case):
    # not a matroid in general: the dual's table must still be the greedy
    # rank's `is_coindependent`, not the lattice rank's
    n, independent = case
    oracle = MatroidOracle(GroundSet(n), lambda m: m in independent)
    _assert_tables_are_predicates([], others=[oracle])
    rank = bitset.greedy_rank(oracle.independence_table())
    assert rank.tolist() == [oracle.rank(m) for m in range(1 << n)]
