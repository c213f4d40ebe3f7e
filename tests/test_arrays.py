"""The table and array forms of the circuit-family checks against their loop
references.

`validate_circuit_axioms` decides a family on its dependence table and walks
pairs only to list violations; `orthogonality_violation` finds the first
circuit-cocircuit pair meeting in one element by a subset-OR transform.
Circuits, cocircuits and the matroid-axiom sweep are transforms of a table
over all 2^n subsets.  The routes they replaced stay here as the
references: same families, same report, same violation order, same first
witness, and bounded memory.
"""

import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cycmat import (
    CapExceeded,
    CircuitFamily,
    GroundSet,
    MatroidOracle,
    VerificationReport,
    orthogonality_check,
    orthogonality_violation,
    psi,
    validate_circuit_axioms,
    verify_matroid_axioms,
)
from cycmat import bitset, core
from cycmat.constructions import free_spike, whirl
from cycmat.suite import DEFAULT_SEED, FAMILY_NAMES, FixtureSet
from cycmat.transversal import BipartitePresentation, transversal_matroid

# peak traced allocation allowed for one n = 14 check; the unblocked pairwise
# products it replaced allocated 22 MB (circuit axioms) and 82 MB (exchange)
PEAK_BYTES = 8 << 20


def reference_validate_circuit_axioms(family, n: int) -> VerificationReport:
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
        return VerificationReport("circuit-axioms", False, len(members), tuple(violations))
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
    return VerificationReport("circuit-axioms", not violations, len(members), tuple(violations))


@st.composite
def families(draw, min_n: int, max_n: int, spill: int = 0, max_size: int = 10):
    """(n, masks, as_family): up to `max_size` masks over n + `spill` bits,
    passed as a list or as a `CircuitFamily`."""
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    top = n + draw(st.integers(min_value=0, max_value=spill))
    masks = draw(st.lists(st.integers(min_value=0, max_value=(1 << top) - 1), max_size=max_size))
    return n, masks, draw(st.booleans())


def _decides(masks, n: int) -> bool:
    """The table decision alone, on nonempty in-range masks: a wrong "fails"
    would not show through `validate_circuit_axioms`, which then walks pairs."""
    return core._is_matroid_family(CircuitFamily(n, tuple(masks)))


def _assert_matches_reference(case) -> None:
    n, masks, as_family = case
    family = CircuitFamily.from_masks(n, masks) if as_family else masks
    expected = reference_validate_circuit_axioms(family, n)
    assert validate_circuit_axioms(family, n) == expected
    if n <= bitset.LATTICE_CAP and all(0 < m <= bitset.full_mask(n) for m in masks):
        assert _decides(family, n) == expected.ok


@settings(max_examples=300)
@given(families(1, 8))
@example((4, [0b0111, 0b1011, 0b1101], False))  # the suite's mutant U(2,4)
@example((4, [0, 0b0011, 0b0011, 0b0110], False))  # empty and repeated members
@example((4, [0b0011, 0b0101, 0b0110, 0b0011], False))  # a circuit family, one listed twice
def test_validate_matches_reference_small(case):
    _assert_matches_reference(case)


@given(families(1, 8, spill=2))
@example((4, [0b10011, 0b0011, 0b0101], False))
def test_validate_matches_reference_out_of_range(case):
    _assert_matches_reference(case)


@settings(max_examples=50)
@given(families(bitset.LATTICE_CAP + 1, 24, max_size=8))
@example((21, [bitset.mask_of([1, 2, 21]), bitset.mask_of([1, 3])], False))
@example((22, [bitset.mask_of([1, 2, 22]), bitset.mask_of([1, 3, 22])], True))
def test_validate_matches_reference_scan_path(case):
    # n above the lattice cap: containment is a blocked scan over the members,
    # not a table
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


@st.composite
def transversal_families(draw, max_n: int = 8):
    """(n, circuits or cocircuits of a random transversal matroid, kept whole,
    with one member dropped, or with one nonempty mask added)."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    neighborhoods = draw(st.lists(
        st.integers(min_value=1, max_value=(1 << n) - 1), min_size=1, max_size=5))
    oracle = transversal_matroid(BipartitePresentation(GroundSet(n), tuple(neighborhoods)))
    members = list(draw(st.sampled_from([oracle.circuits, oracle.cocircuits]))())
    edit = draw(st.sampled_from(["keep", "drop", "add"]))
    if edit == "drop" and members:
        members.pop(draw(st.integers(min_value=0, max_value=len(members) - 1)))
    elif edit == "add":
        members.append(draw(st.integers(min_value=1, max_value=(1 << n) - 1)))
    return n, members


@settings(max_examples=300)
@given(transversal_families())
@example((4, [0b0011, 0b0101, 0b0110, 0b0011]))  # a circuit listed twice
def test_decision_matches_reference_on_transversal_families(case):
    n, members = case
    assert _decides(members, n) == reference_validate_circuit_axioms(members, n).ok


def test_family_built_under_a_lower_cap_still_validates(monkeypatch):
    oracle = psi(10, 3)
    members = oracle.circuits().members
    monkeypatch.setenv(bitset.LATTICE_CAP_ENV, "8")
    scanned = CircuitFamily.from_masks(10, members)
    assert not scanned.contains_member(0) and scanned._dependence is None  # scanned above the lowered cap
    monkeypatch.delenv(bitset.LATTICE_CAP_ENV)
    assert validate_circuit_axioms(scanned, 10) == VerificationReport("circuit-axioms", True, len(members))
    broken = CircuitFamily.from_masks(10, members[1:])
    monkeypatch.setenv(bitset.LATTICE_CAP_ENV, "8")
    broken.contains_member(0)  # asked under the lowered cap, validated above it
    monkeypatch.delenv(bitset.LATTICE_CAP_ENV)
    assert validate_circuit_axioms(broken, 10) == reference_validate_circuit_axioms(broken, 10)
    # and a table built under the default cap is read after the cap is lowered
    tabled = CircuitFamily.from_masks(10, members)
    assert tabled.dependence() is not None
    monkeypatch.setenv(bitset.LATTICE_CAP_ENV, "8")
    assert validate_circuit_axioms(tabled, 10) == VerificationReport("circuit-axioms", True, len(members))


def test_oracle_first_asked_under_a_lower_cap_still_fills_its_table(monkeypatch):
    # the containment test is built on the first question, here above a lowered
    # cap (a scan); the independence table asked after the cap is restored is full
    source = psi(10, 3)
    oracle = core.oracle_from_circuits(GroundSet(10), source.circuits().members, validate=False)
    monkeypatch.setenv(bitset.LATTICE_CAP_ENV, "8")
    assert oracle.rank() == 5
    assert oracle.circuits()._dependence is None
    monkeypatch.delenv(bitset.LATTICE_CAP_ENV)
    assert np.array_equal(oracle.independence_table(), source.independence_table())
    assert verify_matroid_axioms(oracle).ok


def test_family_asked_under_a_lower_cap_is_decided_on_its_table(monkeypatch):
    # a family that first scanned, under a lowered cap, builds its one table once
    # the cap is restored: the decision reads it and walks no pair
    family = CircuitFamily.from_masks(10, psi(10, 3).circuits().members)
    monkeypatch.setenv(bitset.LATTICE_CAP_ENV, "8")
    assert family.contains_member(bitset.full_mask(10))
    monkeypatch.delenv(bitset.LATTICE_CAP_ENV)

    def no_pairs(*args):
        raise AssertionError("a passing family walked its pairs")

    monkeypatch.setattr(core.itertools, "combinations", no_pairs)
    assert validate_circuit_axioms(family, 10) == VerificationReport("circuit-axioms", True, len(family))
    assert family._dependence is not None


def reference_circuits(oracle) -> CircuitFamily:
    """The k-subset loop: every `is_circuit` k-set, k up to rank + 1."""
    found = []
    for k in range(1, oracle.rank() + 2):
        for combo in itertools.combinations(range(1, oracle.n + 1), k):
            mask = bitset.mask_of(combo)
            if oracle.is_circuit(mask):
                found.append(mask)
    return CircuitFamily.from_masks(oracle.n, found)


def reference_cocircuits(oracle) -> CircuitFamily:
    """The k-subset loop on the dual oracle, whose predicate is a greedy rank."""
    return reference_circuits(oracle.dual())


def _extension_mask(oracle, y: int) -> int:
    out = 0
    for bit in bitset.singletons(oracle.ground.full & ~y):
        if oracle.indep(y | bit):
            out |= bit
    return out


def reference_verify_matroid_axioms(oracle) -> tuple[bool, tuple]:
    """(ok, witnesses) of the pairwise sweep: every independent Y against
    every larger independent X, by size of Y, then size of X, then rows."""
    n = oracle.n
    if not oracle.indep(0):
        return False, (("empty-set",),)
    independents = [m for m in range(1 << n) if oracle.indep(m)]
    for m in independents:
        for bit in bitset.singletons(m):
            if not oracle.indep(m ^ bit):
                return False, (("downward-closure", bitset.indices(m), bit.bit_length()),)
    by_size = {}
    for m in independents:
        by_size.setdefault(m.bit_count(), []).append(m)
    sizes = sorted(by_size)
    for sy in sizes:
        ys = bitset.mask_array([_extension_mask(oracle, y) & ~y for y in by_size[sy]])
        for sx in sizes:
            if sx <= sy:
                continue
            xs = bitset.mask_array(by_size[sx])
            step = max(1, (1 << 14) // len(xs))  # rows per block of at most 2^14 cells
            for lo in range(0, len(ys), step):
                hits = (ys[lo:lo + step, None] & xs[None, :]) == 0
                if hits.any():
                    yi, xi = np.argwhere(hits)[0]
                    return False, (("exchange",
                                    bitset.indices(by_size[sx][int(xi)]),
                                    bitset.indices(by_size[sy][lo + int(yi)])),)
    return True, ()


@pytest.fixture(scope="module")
def max_n14():
    """The fixtures of `cycmat suite --max-n 14`, built as the suite builds them."""
    return FixtureSet(14, DEFAULT_SEED, FAMILY_NAMES)


def test_families_match_subset_loops(max_n14):
    fixtures = max_n14.all_oracles() + max_n14.group("random")
    assert len(fixtures) == 48
    for fx in fixtures:
        oracle = fx.oracle
        assert oracle.circuits() == reference_circuits(oracle), fx.label
        assert oracle.cocircuits() == reference_cocircuits(oracle), fx.label


def _assert_sweep_matches_reference(n: int, independent: set[int], circuits_first: bool) -> None:
    # enumerating circuits first fills the table the sweep reads; it must
    # still hold every answer, or a downward-closure failure would be hidden
    oracle = MatroidOracle(GroundSet(n), lambda m: m in independent)
    if circuits_first:
        oracle.circuits()
    report = verify_matroid_axioms(oracle)
    assert (report.ok, report.witnesses) == reference_verify_matroid_axioms(oracle)


@st.composite
def downward_closed(draw, max_n: int = 7):
    """(n, every subset of some drawn set)."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    tops = draw(st.lists(st.integers(min_value=0, max_value=(1 << n) - 1), max_size=6))
    return n, {m for m in range(1 << n) if any(m & ~top == 0 for top in tops)} | {0}


@settings(max_examples=200)
@given(downward_closed(), st.booleans())
@example((3, {0, 0b001, 0b010, 0b100, 0b011}), False)  # {1,2} and {3} both maximal
def test_sweep_matches_reference_downward_closed(case, circuits_first):
    _assert_sweep_matches_reference(*case, circuits_first)


@st.composite
def with_empty_set(draw, max_n: int = 7):
    """(n, an arbitrary family of masks containing the empty set)."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    masks = draw(st.sets(st.integers(min_value=1, max_value=(1 << n) - 1), max_size=40))
    return n, masks | {0}


@settings(max_examples=200)
@given(with_empty_set(), st.booleans())
@example((3, {0, 0b011}), False)  # {1,2} independent but {1} not
@example((3, {0, 0b011}), True)
def test_sweep_matches_reference_arbitrary_families(case, circuits_first):
    _assert_sweep_matches_reference(*case, circuits_first)


@st.composite
def uniform_with_one_flip(draw, max_n: int = 7):
    """(n, the independent sets of U(r, n) with one mask toggled)."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    r = draw(st.integers(min_value=0, max_value=n))
    flip = draw(st.integers(min_value=0, max_value=(1 << n) - 1))
    return n, {m for m in range(1 << n) if m.bit_count() <= r} ^ {flip}


@settings(max_examples=200)
@given(uniform_with_one_flip(), st.booleans())
def test_sweep_matches_reference_flipped_uniform(case, circuits_first):
    _assert_sweep_matches_reference(*case, circuits_first)


def reference_orthogonality_violation(circuits, cocircuits):
    """The nested loop: the first (circuit, cocircuit) pair, circuits outer,
    that fails `orthogonality_check`, or None."""
    return next(
        ((c, d) for c in circuits for d in cocircuits if not orthogonality_check(c, d)), None
    )


def test_orthogonality_violations_agree_with_pair_check():
    M = psi(8, 3)
    circuits, cocircuits = M.circuits(), M.cocircuits()
    assert orthogonality_violation(circuits, cocircuits, 8) is None
    assert reference_orthogonality_violation(circuits, cocircuits) is None
    # circuits against circuits do meet in single elements: the same first pair
    expected = reference_orthogonality_violation(circuits, circuits)
    assert expected is not None
    assert orthogonality_violation(circuits, circuits, 8) == expected


def test_orthogonality_first_witness_on_corrupted_cocircuit():
    # the mutation check of the orthogonality entry: one bad cocircuit is caught
    M = psi(8, 3)
    circuits = M.circuits().members
    cocircuits = list(M.cocircuits().members)
    middle = len(cocircuits) // 2
    cocircuits[middle] ^= 1  # toggle e1 in one cocircuit
    expected = reference_orthogonality_violation(circuits, cocircuits)
    assert expected is not None and expected[1] == cocircuits[middle]
    assert orthogonality_violation(circuits, cocircuits, 8) == expected


@st.composite
def mask_lists(draw, max_n: int = 10):
    """(n, circuits, cocircuits): arbitrary masks over n elements, each list
    possibly empty, with repeats and the empty mask."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    masks = st.lists(st.integers(min_value=0, max_value=(1 << n) - 1), max_size=16)
    return n, draw(masks), draw(masks)


@settings(max_examples=400)
@given(mask_lists())
@example((4, [0b0011, 0b0011, 0], [0, 0b0110, 0b0110]))  # repeats and empty masks
@example((3, [0b001], [0b001]))  # one element each
@example((4, [0b0111], [0b1000]))  # disjoint
@example((2, [], [0b01]))
def test_orthogonality_violation_matches_nested_loop(case):
    n, circuits, cocircuits = case
    expected = reference_orthogonality_violation(circuits, cocircuits)
    assert orthogonality_violation(circuits, cocircuits, n) == expected
    assert orthogonality_violation(np.array(circuits, dtype=np.int64), cocircuits, n) == expected


def test_orthogonality_violation_refuses_masks_outside_the_ground_set_and_the_cap():
    with pytest.raises(ValueError, match="inside the 3 elements"):
        orthogonality_violation([0b1000], [0b0001], 3)
    with pytest.raises(ValueError, match="inside the 3 elements"):
        orthogonality_violation([0b0001], [-1], 3)
    with pytest.raises(CapExceeded):
        orthogonality_violation([1], [1], bitset.LATTICE_CAP + 1)


@pytest.fixture(scope="module")
def n14_fixtures(max_n14):
    """The n = 14 cyclic suite fixtures by label."""
    return {fx.label: fx.oracle for fx in max_n14.cyclic_fixtures() if fx.oracle.n == 14}


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


def test_passing_n14_family_visits_no_pair(n14_fixtures, monkeypatch):
    def no_pairs(*args):
        raise AssertionError("a passing family walked its pairs")

    monkeypatch.setattr(core.itertools, "combinations", no_pairs)
    circuits = n14_fixtures["psi(14,4)"].circuits()
    assert validate_circuit_axioms(circuits, 14).ok
    assert validate_circuit_axioms(list(circuits), 14).ok
    with pytest.raises(AssertionError, match="walked its pairs"):
        validate_circuit_axioms(circuits.members[1:], 14)


def test_numpy_masks_give_the_same_report_as_python_ints():
    # a failing family names its witnesses with `bitset.indices`, which needs Python ints
    for masks in ([3, 5], [3, 5, 6], [3, 1, 12]):
        expected = validate_circuit_axioms(masks, 3)
        assert validate_circuit_axioms(np.array(masks), 3) == expected
    assert not validate_circuit_axioms(np.array([3, 5]), 3).ok


def test_circuit_axioms_memory_is_bounded(n14_fixtures):
    circuits = n14_fixtures["T^2(psi(14,3))"].circuits()
    assert len(circuits) == 1659
    assert validate_circuit_axioms(circuits, 14).ok  # builds the family's table first
    peak = _traced_peak(lambda: validate_circuit_axioms(circuits, 14))
    assert peak < PEAK_BYTES, peak


def test_exchange_sweep_memory_is_bounded(n14_fixtures):
    oracle = n14_fixtures["psi(14,4)"]
    assert verify_matroid_axioms(oracle).ok  # fills the independence table first
    peak = _traced_peak(lambda: verify_matroid_axioms(oracle))
    assert peak < PEAK_BYTES, peak
