"""The suite checks' whole-array reads against the loops they replaced.

Each reference below is the per-item loop that a gather now does in one
array expression: the per-bit passes of `orthogonality_violation` and of the
C - e test in `_is_matroid_family`, the `itertools.combinations` walk of
`truncation_circuits`, the per-run loop of `classify_circuit` and the
per-window rank query of `cyclic._window_ranks`.  Each test asks both on
the same input and wants the same answer, witness included.
"""

import itertools
import random

import numpy as np
import pytest

from cycmat import GroundSet, bitset, core, cyclic, psi, uniform, wheel
from cycmat.constructions import free_spike, truncate, truncation_circuits
from cycmat.core import CircuitFamily, oracle_from_circuits, orthogonality_violation
from cycmat.cyclic import CyclicOrdering, natural_ordering
from cycmat.suite import TRUNCATION_GRID
from cycmat.transversal import (
    CircuitClassification,
    classify_circuit,
    classify_circuits,
    interval_presentation,
)

# -- orthogonality ------------------------------------------------------------


def reference_orthogonality_violation(circuits, cocircuits, n):
    """One pass per element b over the circuits that hold it."""
    full = bitset.full_mask(n)
    cs = np.array(circuits, dtype=np.int64).astype(np.int32)
    ds = np.array(cocircuits, dtype=np.int64).astype(np.int32)
    union = bitset.member_unions(n, ds)
    partnered = np.zeros(len(cs), dtype=bool)
    for b in range(n):
        holds = (cs >> b) & 1 == 1
        partnered[holds] |= (union[(full ^ cs[holds]) | 1 << b] >> b) & 1 == 1
    if not partnered.any():
        return None
    i = int(np.argmax(partnered))
    meet = ds & cs[i]
    j = int(np.argmax((meet != 0) & (meet & (meet - 1) == 0)))
    return int(cs[i]), int(ds[j])


def _violating_pair(n, rng):
    """A circuit and a cocircuit over n >= 1 elements meeting in one element."""
    e = 1 << rng.randrange(n)
    rest = bitset.full_mask(n) ^ e
    c = e | (rng.getrandbits(n) & rest)
    d = e | (rng.getrandbits(n) & rest & ~c)
    return c, d


def _orthogonal_family(n, count, rng, cocircuits):
    """`count` random masks, repeats allowed, each replaced by the empty
    mask where it meets one of `cocircuits` in exactly one element."""
    masks = [rng.getrandbits(n) for _ in range(count)]
    return [0 if any((m & d).bit_count() == 1 for d in cocircuits) else m for m in masks]


@pytest.mark.parametrize("n", range(0, 15))
def test_orthogonality_gather_equals_the_per_bit_passes(n):
    rng = random.Random(n)
    top = (1 << n) - 1
    cases = [([], []), ([], [top]), ([top], [])]
    for _ in range(20):
        size = rng.randrange(0, 40)
        cases.append(([rng.randint(0, top) for _ in range(size)], [rng.randint(0, top) for _ in range(size)]))
    if n:
        masks = [rng.randint(0, top) for _ in range(8)]
        cases.append((masks + masks, masks[::-1] + masks))  # repeated masks
        c, d = _violating_pair(n, rng)
        quiet = _orthogonal_family(n, 30, rng, [top, d])
        cases.append(([c] + quiet, [top, d]))  # the violation first
        cases.append((quiet + [c], [top, d]))  # and last
    for circuits, cocircuits in cases:
        expected = reference_orthogonality_violation(circuits, cocircuits, n)
        assert orthogonality_violation(circuits, cocircuits, n) == expected


@pytest.mark.parametrize("at", [0, bitset.MEMBER_BLOCK - 1, bitset.MEMBER_BLOCK, 5000 - 1])
def test_orthogonality_gather_finds_a_violation_in_any_block(at):
    # 5000 circuits on 14 elements span two blocks; only circuit `at` has a
    # partner: d, the one cocircuit besides E
    n, rng = 14, random.Random(at)
    c, d = _violating_pair(n, rng)
    cocircuits = [bitset.full_mask(n), d]
    circuits = _orthogonal_family(n, 5000, rng, cocircuits)
    circuits[at] = c
    expected = reference_orthogonality_violation(circuits, cocircuits, n)
    assert expected == (c, d)
    assert orthogonality_violation(circuits, cocircuits, n) == expected
    assert orthogonality_violation(circuits[:at] + circuits[at + 1:], cocircuits, n) is None


# -- the C - e test of the circuit-axiom decision --------------------------------


def reference_is_matroid_family(family):
    """`_is_matroid_family` with its C - e test as one pass per element."""
    table, masks = family.dependence(), family.masks
    ordered = np.sort(masks)
    if table is None or (ordered[1:] == ordered[:-1]).any():
        return False
    dependent = np.frombuffer(table, dtype=np.uint8)
    for b in range(family.n):
        if dependent[masks[(masks >> b) & 1 == 1] ^ (1 << b)].any():
            return False
    return family.exchange_failure() is None


def _superset_families():
    """Circuit families with one strict superset of a member added: distinct
    members, the same dependence table and exchange verdict, and a C - e
    that contains a member.  Each with the family as it was."""
    rng = random.Random(3)
    for oracle in (psi(8, 3), psi(10, 4), wheel(4), uniform(3, 7), free_spike(4)[0]):
        n, members = oracle.n, oracle.circuits().members
        for _ in range(4):
            c = rng.choice(members)
            grown = c | (1 << rng.choice([b for b in range(n) if not c >> b & 1]))
            if grown not in members:
                yield CircuitFamily.from_masks(n, members), CircuitFamily.from_masks(n, members + (grown,))


def test_removal_gather_equals_the_per_bit_passes_on_failing_families():
    cases = list(_superset_families())
    assert len(cases) >= 15
    for circuits, grown in cases:
        assert core._is_matroid_family(circuits) and reference_is_matroid_family(circuits)
        # the grown family keeps the table and the exchange verdict, so only
        # the C - e test fails it
        assert grown.dependence() == circuits.dependence()
        assert grown.exchange_failure() is None
        assert not reference_is_matroid_family(grown)
        assert not core._is_matroid_family(grown)


def test_removal_gather_equals_the_per_bit_passes_across_blocks():
    # U(7,15)'s 6435 circuits span two blocks of the (member x element)
    # array; a grown member sorts last, into the second
    family = uniform(7, 15).circuits()
    assert len(family) > bitset.MEMBER_BLOCK
    assert core._is_matroid_family(family) and reference_is_matroid_family(family)
    grown = CircuitFamily.from_masks(15, family.members + (bitset.full_mask(9),))
    assert int(grown.masks[-1]) == bitset.full_mask(9)
    assert core._is_matroid_family(grown) == reference_is_matroid_family(grown) is False


# -- truncation circuits ------------------------------------------------------------


def reference_truncation_circuits(oracle, i):
    """The walk through every (r - i + 1)-set, asking the predicate."""
    r = oracle.rank()
    keep = [c for c in oracle.circuits() if c.bit_count() <= r - i + 1]
    for combo in itertools.combinations(range(oracle.n), r - i + 1):
        mask = sum(1 << b for b in combo)
        if oracle.indep(mask):
            keep.append(mask)
    return CircuitFamily.from_masks(oracle.n, keep)


TRUNCATION_PARENTS = (
    list(dict.fromkeys(f"psi({n},{s})" for n, s, _ in TRUNCATION_GRID))
    + ["wheel(3)", "wheel(5)", "spike(3)", "spike(5)", "U(1,4)", "U(3,6)", "U(5,5)", "U(4,9)"]
)


def _parent(label):
    name, args = label[:-1].split("(")
    args = tuple(int(a) for a in args.split(","))
    if name == "U":
        return uniform(*args)
    if name == "spike":
        return free_spike(*args)[0]
    return {"psi": psi, "wheel": wheel}[name](*args)


@pytest.mark.parametrize("label", TRUNCATION_PARENTS)
def test_truncation_circuits_read_off_the_table_equal_the_walk(label):
    oracle = _parent(label)
    for i in range(1, oracle.rank() + 1):
        expected = reference_truncation_circuits(oracle, i)
        assert truncation_circuits(oracle, i) == expected
        assert truncate(oracle, i).circuits() == expected


def test_truncation_circuits_refuse_a_parent_above_the_cap(monkeypatch):
    monkeypatch.setenv(bitset.LATTICE_CAP_ENV, "6")
    with pytest.raises(bitset.CapExceeded):
        truncation_circuits(psi(8, 3), 1)


# -- the interval classification of psi's circuits ---------------------------------


def reference_classify_circuit(oracle, pres, circuit):
    """The loop over `pres.interval_runs`, one rank per run that fits."""
    if oracle.n != pres.n:
        raise ValueError("the classified matroid must share the presentation's ground set")
    if not oracle.is_circuit(circuit):
        raise ValueError("classification requires a circuit of the dual matroid")
    size = circuit.bit_count()
    if size == pres.n - pres.m + 1:
        return CircuitClassification("spanning")
    for i, j, union, ends, length in pres.interval_runs:
        if circuit & ~union or ends & ~circuit or size != union.bit_count() - length + 1:
            continue
        if oracle.rank(union) == size - 1:
            return CircuitClassification("interval", i, j)
    return CircuitClassification("unclassified")


PSI_UP_TO_14 = [(n, s) for n in range(2, 15, 2) for s in range(2, n // 2 + 2) if n >= 2 * s - 2]


@pytest.mark.parametrize("n, s", PSI_UP_TO_14)
def test_family_classifier_equals_the_per_run_loop(n, s):
    pres, oracle = interval_presentation(n, s), psi(n, s)
    circuits = oracle.circuits()
    expected = [reference_classify_circuit(oracle, pres, c) for c in circuits]
    assert classify_circuits(oracle, pres, circuits.masks) == expected
    assert classify_circuits(oracle, pres, circuits.members[::-1]) == expected[::-1]
    assert all(outcome.ok for outcome in expected)


@pytest.mark.parametrize("n, s, r", [(8, 2, 3), (8, 4, 5), (10, 6, 7), (12, 2, 5), (12, 4, 7)])
def test_family_classifier_takes_the_first_of_several_fitting_runs(n, s, r):
    # U(r, n) is no psi: some of its circuits fit two or three runs, in
    # shape and rank, and the first in (i, j) order classifies them
    pres, oracle = interval_presentation(n, s), uniform(r, n)
    circuits = oracle.circuits()
    expected = [reference_classify_circuit(oracle, pres, c) for c in circuits]
    assert classify_circuits(oracle, pres, circuits.masks) == expected
    fitting = [
        [(i, j) for i, j, union, ends, length in pres.interval_runs
         if not c & ~union and not ends & ~c and c.bit_count() == union.bit_count() - length + 1
         and oracle.rank(union) == c.bit_count() - 1]
        for c in circuits
    ]
    assert any(len(runs) > 1 and outcome.kind == "interval" for runs, outcome in zip(fitting, expected))
    for runs, outcome in zip(fitting, expected):
        if runs and outcome.kind == "interval":
            assert (outcome.i, outcome.j) == runs[0]


def test_family_classifier_names_the_planted_circuit_first():
    # {1,2,4,5} is psi(10,3)'s circuit on the run [1, 2]; beside U(3,5)'s
    # quads on e_1..e_5 its interval {1..5} is no longer in its closure, and
    # {1,2,3,4} misses e_5, which only N(2) reaches
    pres = interval_presentation(10, 3)
    planted = bitset.mask_of([1, 2, 4, 5])
    quads = [bitset.mask_of(q) for q in itertools.combinations(range(1, 6), 4)]
    for oracle in (oracle_from_circuits(GroundSet(10), [planted]), oracle_from_circuits(GroundSet(10), quads)):
        circuits = oracle.circuits().members
        expected = [reference_classify_circuit(oracle, pres, c) for c in circuits]
        outcomes = classify_circuits(oracle, pres, circuits)
        assert outcomes == expected
        first = next(c for c, outcome in zip(circuits, outcomes) if not outcome.ok)
        assert first == next(c for c, outcome in zip(circuits, expected) if not outcome.ok)
        assert classify_circuit(oracle, pres, first).kind == "unclassified"


def test_family_classifier_checks_every_mask_with_and_without_the_circuit_table():
    pres = interval_presentation(8, 3)
    for kept in (False, True):
        oracle = psi(8, 3)
        if kept:
            oracle.circuit_table()
        circuits = list(oracle.circuits().members) if kept else [bitset.mask_of([1, 2, 3])]
        assert all(o.ok for o in classify_circuits(oracle, pres, circuits))
        for bad in ([*circuits, bitset.mask_of([1, 2])], [1 << 8], [-1]):
            with pytest.raises(ValueError):
                classify_circuits(oracle, pres, bad)
    assert classify_circuits(psi(8, 3), pres, []) == []


# -- window ranks ---------------------------------------------------------------------


def reference_window_ranks(oracle, ordering, lengths):
    """One rank query per window."""
    return {(i, k): oracle.rank(ordering.window(i, k)) for i in range(1, ordering.n + 1) for k in lengths}


@pytest.mark.parametrize("build", [lambda: psi(12, 4), lambda: wheel(5), lambda: truncate(psi(10, 3), 1)])
def test_window_ranks_gathered_from_the_table_equal_one_query_per_window(build):
    # the reference asks an oracle that keeps no table, so its ranks are the
    # greedy walk (or the builder's rank) on every window
    rng = random.Random(12)
    asked = build()
    n = asked.n
    orderings = [natural_ordering(n)] + [CyclicOrdering(tuple(rng.sample(range(1, n + 1), n))) for _ in range(3)]
    for kept in (False, True):
        oracle = build()
        if kept:
            oracle.independence_table()
        for ordering in orderings:
            for lengths in (range(1, n + 1), range(3, n - 2), range(0)):
                ranks = cyclic._window_ranks(oracle, ordering, lengths)
                assert list(ranks.items()) == list(reference_window_ranks(asked, ordering, lengths).items())
        assert (oracle.kept("rank-table") is not None) == kept
    assert asked.kept("independence-table") is None


# -- the oracle's array forms ---------------------------------------------------------


@pytest.mark.parametrize("kept", [False, True])
def test_ranks_equal_one_rank_query_per_mask(kept):
    oracle = psi(10, 3)
    if kept:
        oracle.independence_table()
    masks = np.array(random.Random(10).sample(range(1 << 10), 60), dtype=np.int64).reshape(6, 10)
    ranks = oracle.ranks(masks)
    assert ranks.shape == masks.shape
    assert ranks.tolist() == [[psi(10, 3).rank(m) for m in row] for row in masks.tolist()]
    assert oracle.ranks(np.zeros((10, 0), dtype=np.int64)).shape == (10, 0)
    assert (oracle.kept("rank-table") is not None) == kept
    with pytest.raises(ValueError):
        oracle.ranks(np.array([1 << 10]))


@pytest.mark.parametrize("kept", [False, True])
def test_are_circuits_equal_one_is_circuit_query_per_mask(kept):
    oracle = psi(10, 3)
    if kept:
        oracle.circuit_table()
    masks = np.array([*oracle.circuits().members[:20], *range(20)], dtype=np.int64).reshape(4, 10) if kept else (
        np.array([bitset.mask_of([1, 2, 3]), *range(11)], dtype=np.int64).reshape(3, 4))
    marks = oracle.are_circuits(masks)
    assert marks.shape == masks.shape
    assert marks.tolist() == [[psi(10, 3).is_circuit(m) for m in row] for row in masks.tolist()]
    assert marks.any()
    for bad in ([1 << 10], [-1]):
        with pytest.raises(ValueError):
            oracle.are_circuits(np.array(bad))
