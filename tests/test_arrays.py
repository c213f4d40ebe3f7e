"""The array forms of the circuit-family checks against their loop references.

`validate_circuit_axioms`, `orthogonality_violations` and the exhaustive
exchange sweep test circuit pairs as numpy arrays, a bounded block of rows at
a time.  The loop versions they replaced stay here as the references: same
report, same violation order, same first witness, and bounded memory.
"""

import itertools
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cycmat import (
    AxiomReport,
    CircuitFamily,
    GroundSet,
    MatroidOracle,
    orthogonality_check,
    orthogonality_violations,
    psi,
    validate_circuit_axioms,
    verify_matroid_axioms,
)
from cycmat import bitset
from cycmat.constructions import free_spike, whirl
from cycmat.suite import DEFAULT_SEED, FixtureSet

# peak traced allocation allowed for one n = 14 check; the unblocked pairwise
# products it replaced allocated 22 MB (circuit axioms) and 82 MB (exchange)
PEAK_BYTES = 8 << 20


def reference_validate_circuit_axioms(family, n: int) -> AxiomReport:
    """The pure-Python pairwise loops, with containment as a direct scan."""
    members = tuple(family.members if isinstance(family, CircuitFamily) else family)
    violations = []
    full = bitset.full_mask(n)
    for c in members:
        if c == 0:
            violations.append(("empty-circuit", ()))
        if c & ~full:
            violations.append(("out-of-range", (bitset.indices(c),)))
    for a, b in itertools.combinations(members, 2):
        if bitset.is_subset(a, b) or bitset.is_subset(b, a):
            violations.append(("antichain", (bitset.indices(a), bitset.indices(b))))
    if any(kind == "out-of-range" for kind, _ in violations):
        return AxiomReport(ok=False, violations=tuple(violations))
    for a, b in itertools.combinations(members, 2):
        common = a & b
        if not common:
            continue
        union = a | b
        for bit in bitset.singletons(common):
            if not any(bitset.is_subset(m, union ^ bit) for m in members):
                violations.append(
                    ("elimination", (bitset.indices(a), bitset.indices(b), bit.bit_length()))
                )
    return AxiomReport(ok=not violations, violations=tuple(violations))


@st.composite
def families(draw, min_n: int, max_n: int, spill: int = 0, max_size: int = 10):
    """(n, masks, as_family): up to `max_size` masks over n + `spill` bits,
    passed as a list or as a `CircuitFamily`."""
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    top = n + draw(st.integers(min_value=0, max_value=spill))
    masks = draw(st.lists(st.integers(min_value=0, max_value=(1 << top) - 1), max_size=max_size))
    return n, masks, draw(st.booleans())


def _assert_matches_reference(case) -> None:
    n, masks, as_family = case
    family = CircuitFamily.from_masks(n, masks) if as_family else masks
    assert validate_circuit_axioms(family, n) == reference_validate_circuit_axioms(family, n)


@settings(max_examples=300)
@given(families(1, 8))
@example((4, [0b0111, 0b1011, 0b1101], False))  # the suite's mutant U(2,4)
@example((4, [0, 0b0011, 0b0011, 0b0110], False))  # empty and repeated members
def test_validate_matches_reference_small(case):
    _assert_matches_reference(case)


@given(families(1, 8, spill=2))
@example((4, [0b10011, 0b0011, 0b0101], False))
def test_validate_matches_reference_out_of_range(case):
    _assert_matches_reference(case)


@settings(max_examples=50)
@given(families(19, 24, max_size=8))
@example((19, [bitset.mask_of([1, 2, 20]), bitset.mask_of([1, 3])], False))
@example((20, [bitset.mask_of([1, 2, 20]), bitset.mask_of([1, 3, 20])], True))
def test_validate_matches_reference_scan_path(case):
    # n > 18: containment is a blocked scan over the members, not a table
    _assert_matches_reference(case)


@settings(max_examples=50)
@given(families(63, 80, spill=1, max_size=8))
@example((70, [bitset.mask_of([1, 70]), bitset.mask_of([2, 70]), bitset.mask_of([1, 2])], False))
def test_validate_matches_reference_wide_masks(case):
    # masks past 62 bits are held as Python ints (dtype object)
    _assert_matches_reference(case)


@pytest.mark.parametrize("build", [
    lambda: psi(8, 3), lambda: psi(10, 3), lambda: whirl(4), lambda: free_spike(4)[0],
])
def test_validate_matches_reference_on_matroids(build):
    oracle = build()
    for family in (oracle.circuits(), oracle.cocircuits()):
        report = validate_circuit_axioms(family, oracle.n)
        assert report.ok
        assert report == reference_validate_circuit_axioms(family, oracle.n)
    # drop a circuit: elimination fails, in the reference's order
    broken = oracle.circuits().members[1:]
    report = validate_circuit_axioms(broken, oracle.n)
    assert not report.ok
    assert report == reference_validate_circuit_axioms(broken, oracle.n)


def _nested_loop_violations(circuits, cocircuits):
    return [(c, d) for c in circuits for d in cocircuits if not orthogonality_check(c, d)]


def test_orthogonality_violations_agree_with_pair_check():
    M = psi(8, 3)
    circuits, cocircuits = M.circuits(), M.cocircuits()
    assert list(orthogonality_violations(circuits, cocircuits)) == []
    # circuits against circuits do meet in single elements: same pairs, same order
    expected = _nested_loop_violations(circuits, circuits)
    assert expected
    assert list(orthogonality_violations(circuits, circuits)) == expected


def test_orthogonality_first_witness_on_corrupted_cocircuit():
    M = psi(8, 3)
    circuits = M.circuits().members
    cocircuits = list(M.cocircuits().members)
    middle = len(cocircuits) // 2
    cocircuits[middle] ^= 1  # toggle e1 in one cocircuit
    expected = _nested_loop_violations(circuits, cocircuits)
    assert expected and all(d == cocircuits[middle] for _, d in expected)
    assert next(orthogonality_violations(circuits, cocircuits)) == expected[0]


@pytest.fixture(scope="module")
def n14_fixtures():
    """The n = 14 suite fixtures by label, built as `cycmat suite --max-n 14` builds them."""
    fixtures = FixtureSet(14, DEFAULT_SEED, ("psi", "truncation")).cyclic_fixtures()
    return {fx.label: fx.oracle for fx in fixtures if fx.oracle.n == 14}


def test_n14_suite_fixtures_sweep_exhaustively(n14_fixtures):
    assert sorted(n14_fixtures) == ["T^1(psi(14,3))", "T^2(psi(14,3))", "psi(14,3)", "psi(14,4)"]
    for label, oracle in n14_fixtures.items():
        report = verify_matroid_axioms(oracle)
        assert report.ok, (label, report.witnesses)


def test_exchange_sweep_witness_past_the_first_row_block():
    # U(3,14) except that {13, 14} has no independent extension: downward
    # closed, fails exchange, and {13, 14} is the last of 91 rows of 2-sets
    pair = bitset.mask_of([13, 14])
    fake = MatroidOracle(
        GroundSet(14), lambda m: m.bit_count() <= 2 or (m.bit_count() == 3 and m & pair != pair)
    )
    report = verify_matroid_axioms(fake)
    assert not report.ok
    assert report.witnesses == (("exchange", (1, 2, 3), (13, 14)),)


def _traced_peak(thunk) -> int:
    tracemalloc.start()
    try:
        thunk()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_circuit_axioms_memory_is_bounded(n14_fixtures):
    circuits = n14_fixtures["T^2(psi(14,3))"].circuits()
    assert len(circuits) == 1659
    assert validate_circuit_axioms(circuits, 14).ok  # builds the family's table first
    peak = _traced_peak(lambda: validate_circuit_axioms(circuits, 14))
    assert peak < PEAK_BYTES, peak


def test_exchange_sweep_memory_is_bounded(n14_fixtures):
    oracle = n14_fixtures["psi(14,4)"]
    assert verify_matroid_axioms(oracle).ok  # fills the independence memo first
    peak = _traced_peak(lambda: verify_matroid_axioms(oracle))
    assert peak < PEAK_BYTES, peak
