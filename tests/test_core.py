import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cycmat import (
    CapExceeded,
    GroundSet,
    MatroidOracle,
    VerificationReport,
    oracle_from_circuits,
    orthogonality_check,
    psi,
    uniform,
    validate_circuit_axioms,
    verify_matroid_axioms,
)
from cycmat import bitset
from cycmat.constructions import free_spike, whirl
from cycmat.core import CircuitFamily


def brute_rank(oracle, mask):
    """Exhaustive rank: no greedy assumption, usable as an independent check."""
    best = 0
    elems = bitset.indices(mask)
    for k in range(len(elems), 0, -1):
        for combo in itertools.combinations(elems, k):
            if oracle.indep(bitset.mask_of(combo)):
                return k
    return best


def hyperplane_cocircuits(oracle):
    """Cocircuits as complements of hyperplanes: rank r-1 and closed."""
    n, r = oracle.n, oracle.rank()
    full = oracle.ground.full
    out = set()
    for mask in range(1, 1 << n):
        rest = full & ~mask
        if oracle.rank(rest) == r - 1 and oracle.closure(rest) == rest:
            out.add(mask)
    return out


def test_ground_set_validation():
    with pytest.raises(ValueError):
        GroundSet(0)
    g = GroundSet(3)
    assert g == GroundSet(3)
    assert hash(g) == hash(GroundSet(3))
    assert g != GroundSet(4)


def test_ground_set_mask_is_cheap_on_a_large_ground_set():
    g = GroundSet(10**6)
    assert vars(g) == {"n": 10**6, "full": (1 << 10**6) - 1}
    assert g.mask([1, 10**6]) == 1 | 1 << (10**6 - 1)


def test_uniform_rank_examples():
    M = uniform(2, 4)
    assert M.rank(bitset.mask_of([1, 2, 3])) == 2
    assert M.rank() == 2
    assert M.rank(0) == 0


def test_rank_matches_brute_force():
    for M in (uniform(2, 5), psi(8, 3), free_spike(4)[0]):
        for mask in range(0, 1 << M.n, 7):  # stride keeps this quick
            assert M.rank(mask) == brute_rank(M, mask)


def test_psi_rank_full_ground():
    assert psi(12, 4).rank() == 6


def test_psi_restricted_rank_is_circuit_rank():
    # {e1,e2,e3} is a minimal dependent set of psi(8,3)
    M = psi(8, 3)
    window = bitset.mask_of([1, 2, 3])
    assert M.is_circuit(window)
    assert M.rank(window) == 2


def test_closure_examples():
    M = uniform(2, 4)
    assert M.closure(bitset.mask_of([1, 2])) == M.ground.full
    assert M.closure(0) == 0
    P = psi(8, 3)
    assert P.closure(bitset.mask_of([1, 2])) == bitset.mask_of([1, 2, 3])


def test_closure_idempotent_and_extensive():
    M = psi(8, 3)
    for mask in range(0, 256, 5):
        cl = M.closure(mask)
        assert mask & ~cl == 0
        assert M.closure(cl) == cl


def test_uniform_circuits():
    fam = uniform(2, 4).circuits()
    assert fam.as_indices() == [[1, 2, 3], [1, 2, 4], [1, 3, 4], [2, 3, 4]]


def test_circuit_family_canonical_order():
    fam = psi(8, 3).circuits()
    keys = [bitset.subset_key(m) for m in fam.members]
    assert keys == sorted(keys)


@pytest.mark.parametrize("n, indices", [
    (5, []),  # the empty family
    (70, [[1, 70], [63, 64], [2], [1, 2, 3], [70], [2], [5, 6, 69]]),  # above WORD_BITS: object arrays
    (70, [[2, 3], [1, 4], [1, 2], [3], [62]]),  # narrow masks, but n above WORD_BITS
    (4, [[1, 9], [2, 3], [5], [1, 2, 4], [3, 4], [6, 7]]),  # members reaching past n
    (3, [[1, 65], [2, 3], [64], [1, 2, 3]]),  # past n and past WORD_BITS
    (4, [[], [1], []]),  # the empty set
])
def test_family_order_and_indices_match_the_definitions(n, indices):
    masks = [bitset.mask_of(c) for c in indices]
    expected = sorted(set(masks), key=bitset.subset_key)
    assert bitset.canonical_sort(masks, n).tolist() == expected
    family = CircuitFamily.from_masks(n, masks)
    assert family.members == tuple(expected)
    assert all(type(m) is int for m in family.members)
    assert family.as_indices() == [list(bitset.indices(m)) for m in expected]


@pytest.mark.parametrize("n", [7, 8, 9, 15, 16, 17, 56, 57, 62, 63, 64, 65, 70])
def test_index_runs_at_byte_boundaries(n):
    # the top element is set in some member, so the widest member is n bits
    # wide: int64 masks up to 62, object arrays above
    rng = np.random.default_rng(n)
    top = 1 << (n - 1)
    masks = [0, top, top | 1, top | 1, bitset.full_mask(n)]  # the empty mask and a repeated member
    masks += [int(m) | top * int(b) for m, b in zip(rng.integers(0, 1 << min(n, 62), 40), rng.integers(0, 2, 40))]
    for family in (CircuitFamily.from_masks(n, masks), CircuitFamily(n, masks),
                   CircuitFamily.from_masks(n - 5, masks)):  # sorted, unsorted, and members wider than n
        assert family.masks.dtype == (object if n > bitset.WORD_BITS else np.int64)
        runs = family.index_runs()
        assert all(run.dtype == np.intp and run.flags.c_contiguous and run.flags.writeable for run in runs)
        assert [row for run in runs for row in run.tolist()] == [list(bitset.indices(m)) for m in family.members]
        assert family.as_indices() == [list(bitset.indices(m)) for m in family.members]
    assert len(CircuitFamily.from_masks(n, masks).index_runs()) == len({m.bit_count() for m in masks})
    assert CircuitFamily.from_masks(n, []).index_runs() == []


@settings(max_examples=200)
@given(
    st.integers(min_value=1, max_value=80),
    st.lists(st.integers(min_value=0, max_value=(1 << 80) - 1) | st.integers(min_value=0, max_value=63),
             max_size=40),
)
def test_family_order_and_indices_on_random_masks(n, masks):
    family = CircuitFamily.from_masks(n, masks)
    assert family.members == tuple(sorted(set(masks), key=bitset.subset_key))
    assert family.as_indices() == [list(bitset.indices(m)) for m in family.members]


@given(
    st.integers(min_value=1, max_value=70),
    st.lists(st.integers(min_value=0, max_value=(1 << bitset.WORD_BITS) - 1), max_size=40),
)
def test_family_from_an_int64_array_equals_family_from_ints(n, masks):
    from_ints = CircuitFamily.from_masks(n, masks)
    from_array = CircuitFamily.from_masks(n, np.array(masks, dtype=np.int64))
    assert from_array == from_ints
    assert all(type(m) is int for m in from_array.members)


def _inputs(n: int, masks: list[int]) -> dict:
    """The same masks as every input a family takes: a list, a tuple, an int64
    array while they fit in `bitset.WORD_BITS`, an object array above it."""
    inputs = {"list": list(masks), "tuple": tuple(masks)}
    if max(masks, default=0).bit_length() <= bitset.WORD_BITS:
        inputs["int64"] = np.array(masks, dtype=np.int64)
    if n > bitset.WORD_BITS:
        inputs["object"] = np.array(masks, dtype=object)
    return inputs


@st.composite
def sized_masks(draw, min_n: int = 1, max_n: int = 80, max_size: int = 30):
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    masks = draw(st.lists(st.integers(min_value=0, max_value=bitset.full_mask(n)), max_size=max_size))
    return n, masks


@settings(max_examples=200)
@given(sized_masks())
@example((70, [1 << 69 | 1, 0b11, 1 << 69 | 1]))  # a repeated member above WORD_BITS
@example((5, []))
def test_family_is_the_same_from_every_input(case):
    n, masks = case
    for build, expected in ((CircuitFamily, tuple(masks)),
                            (CircuitFamily.from_masks, tuple(sorted(set(masks), key=bitset.subset_key)))):
        for kind, given_masks in _inputs(n, masks).items():
            family = build(n, given_masks)
            assert family == build(n, masks), kind
            assert family.members == expected and all(type(m) is int for m in family.members), kind
            assert len(family) == len(expected) and list(family) == list(expected), kind
            assert family.as_indices() == [list(bitset.indices(m)) for m in expected], kind


@given(sized_masks())
def test_families_that_differ_compare_unequal(case):
    n, masks = case
    family = CircuitFamily(n, masks)
    assert family != CircuitFamily(n + 1, masks)
    assert family != CircuitFamily(n, [*masks, 0])
    if masks:
        assert family != CircuitFamily(n, masks[1:])
        changed = [masks[0] ^ 1, *masks[1:]]
        assert family != CircuitFamily(n, changed)
    assert family != list(masks)
    with pytest.raises(TypeError):
        hash(family)


@settings(max_examples=100)
@given(sized_masks(min_n=2, max_n=9, max_size=12))
def test_contains_member_agrees_between_the_table_and_the_scan(case):
    n, masks = case
    expected = np.frombuffer(CircuitFamily(n, masks).dependence(), dtype=np.uint8).astype(bool).tolist()
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv(bitset.LATTICE_CAP_ENV, str(n - 1))
        scanned = CircuitFamily(n, masks)
        assert scanned.dependence() is None
        assert [scanned.contains_member(x) for x in range(1 << n)] == expected


@settings(max_examples=100)
@given(sized_masks(), st.lists(st.integers(min_value=0, max_value=(1 << 80) - 1), max_size=10))
def test_contains_member_scan_matches_the_member_loop(case, probes):
    # above the lattice cap, on int64 and object arrays alike
    n, masks = case
    probes = [x & bitset.full_mask(n) for x in probes] + [0, bitset.full_mask(n)]
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv(bitset.LATTICE_CAP_ENV, "1")
        for kind, given_masks in _inputs(n, masks).items():
            family = CircuitFamily(n, given_masks)
            for x in probes:
                assert family.contains_member(x) == any(m & ~x == 0 for m in masks), (kind, x)


@pytest.mark.parametrize("masks", [[7, 11, 13, 14], [7, 11, 13, 14, 28, 3]], ids=["passing", "failing"])
def test_pair_walk_reads_the_cap_once(monkeypatch, masks):
    # the cap is read once, for `_is_matroid_family`'s table fetch; above it
    # the pair walk asks no containment test, so it reads no cap
    monkeypatch.setenv(bitset.LATTICE_CAP_ENV, "3")
    reads = []
    cap = bitset.lattice_cap
    monkeypatch.setattr(bitset, "lattice_cap", lambda: reads.append(1) or cap())
    report = validate_circuit_axioms(masks, 5)
    assert len(reads) == 1
    monkeypatch.delenv(bitset.LATTICE_CAP_ENV)
    assert report == validate_circuit_axioms(masks, 5)  # the table route gives the same report


@pytest.mark.parametrize("call", [
    lambda: validate_circuit_axioms([-1], 3),
    lambda: oracle_from_circuits(GroundSet(3), [-2]),
    lambda: oracle_from_circuits(GroundSet(3), [-2], validate=False).rank(),
    lambda: CircuitFamily(70, [1 << 69, -(1 << 69)]),
    lambda: CircuitFamily.from_masks(4, np.array([3, -1])),
], ids=["validate", "oracle", "oracle-unvalidated", "object-array", "from-masks"])
def test_negative_member_mask_is_refused(call):
    # it used to loop forever naming its indices, or wrap -2 to the mask 0b110
    with pytest.raises(ValueError, match="nonnegative"):
        call()


def _read_only_view(masks: np.ndarray) -> np.ndarray:
    view = masks.view()
    view.flags.writeable = False
    return view


@pytest.mark.parametrize("n, dtype", [(2, np.int64), (70, object)])
@pytest.mark.parametrize("share", [lambda a: a, lambda a: a[:], _read_only_view],
                         ids=["array", "view", "read-only-view"])
def test_family_keeps_masks_that_no_caller_can_write(n, dtype, share):
    given = np.array([3], dtype=dtype)
    family = CircuitFamily(n, share(given))
    assert not family.contains_member(1)  # up to the cap, this builds the kept table
    given[0] = 1
    assert family.members == (3,) and not family.contains_member(1)
    with pytest.raises(ValueError, match="read-only"):
        family.masks[0] = 1
    assert family.members == (3,)


def test_family_keeps_the_canonical_sort_without_a_copy(monkeypatch):
    sorted_masks = []
    canonical_sort = bitset.canonical_sort

    def recorded(*args):
        sorted_masks.append(canonical_sort(*args))
        return sorted_masks[-1]

    monkeypatch.setattr(bitset, "canonical_sort", recorded)
    family = CircuitFamily.from_masks(3, np.array([6, 3, 5]))
    [kept] = sorted_masks
    assert family.masks is kept and not kept.flags.writeable
    assert family.members == (3, 5, 6)


def test_circuits_cap():
    with pytest.raises(CapExceeded):
        uniform(2, 21).circuits()


def test_dual_of_uniform():
    D = uniform(2, 5).dual()
    U = uniform(3, 5)
    for mask in range(1 << 5):
        assert D.indep(mask) == U.indep(mask)


def test_dual_involution():
    M = psi(8, 3)
    DD = M.dual().dual()
    for mask in range(1 << 8):
        assert M.indep(mask) == DD.indep(mask)


def test_dual_is_built_once_per_oracle():
    # threads that ask a fresh oracle for its cocircuits at once, which
    # builds its dual, all get one dual and one family
    import sys
    import threading
    from concurrent.futures import ThreadPoolExecutor

    M = psi(8, 3)
    barrier = threading.Barrier(8)

    def ask(_):
        barrier.wait(timeout=10)
        return M.cocircuits(), M.dual()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            answers = list(pool.map(ask, range(8), timeout=30))
    finally:
        sys.setswitchinterval(interval)
    D = answers[0][1]
    assert all(d is D for _, d in answers) and M.dual() is D
    assert all(c is D.circuits() for c, _ in answers) and M.cocircuits() is D.circuits()
    # the dual's dual is built from the dual's own coindependence, not M
    assert D.dual() is not M and D.dual() is D.dual()


def test_rank_plus_dual_rank(small_fixtures):
    for name, M in small_fixtures.items():
        assert M.rank() + M.dual().rank() == M.n, name


def test_cocircuits_match_hyperplane_complements(small_fixtures):
    # the dual's circuits against a definition that reads no table
    for name, M in small_fixtures.items():
        assert set(M.cocircuits().members) == hyperplane_cocircuits(M), name


def test_cocircuits_equal_dual_circuits(small_fixtures):
    # the dual's table is the greedy-rank array reversed; a fresh oracle on
    # is_coindependent asks rank(E - X) = rank(E) one mask at a time
    for name, M in small_fixtures.items():
        fresh = MatroidOracle(M.ground, M.is_coindependent)
        assert M.cocircuits() == fresh.circuits(), name
        assert M.dual().circuits() == fresh.circuits(), name


@st.composite
def downward_closed(draw):
    """A ground set size and the maximal sets of a downward-closed family."""
    n = draw(st.integers(min_value=1, max_value=6))
    return n, draw(st.frozensets(st.integers(min_value=0, max_value=(1 << n) - 1),
                                 min_size=1, max_size=6))


@settings(max_examples=150, deadline=None)
@given(downward_closed())
@example((4, frozenset({0b1100, 0b0010})))  # independent sets inside {3,4} or {2}
def test_cocircuit_routes_agree_off_matroids(case):
    # most of these predicates are not matroids; every cocircuit question is
    # still one question to the dual
    n, tops = case
    M = MatroidOracle(GroundSet(n), lambda m: any(m & ~top == 0 for top in tops))
    asked = {X for X in range(1 << n) if M.is_cocircuit(X)}
    assert set(M.dual().circuits().members) == asked
    assert set(M.cocircuits().members) == asked


def _counting_copy(oracle):
    """A fresh oracle on the same predicate, and its list of predicate calls."""
    asked = []

    def indep(mask):
        asked.append(mask)
        return oracle._indep(mask)

    return MatroidOracle(oracle.ground, indep), asked


def test_every_thread_gets_the_first_value_kept():
    # threads released at once ask one fresh oracle for each value it
    # derives, each thread in its own order; a value is built with no lock
    # held, so no thread waits on another's build (a deadlock fails the
    # map's timeout), and every thread gets the one value kept
    import sys
    import threading
    from concurrent.futures import ThreadPoolExecutor

    from cycmat.cyclic import STParams, certify, natural_ordering

    M = psi(10, 3)
    ordering, params = natural_ordering(10), STParams(3, 3)
    questions = {
        "circuits": M.circuits,
        "cocircuits": M.cocircuits,
        "extension counts": M.extension_counts,
        "dual circuits": lambda: M.dual().circuits(),
        "dual of the dual": lambda: M.dual().dual(),
        "certificate": lambda: certify(M, ordering, params),
        "dual certificate": lambda: certify(M.dual(), ordering, params),
    }
    keys = list(questions)
    barrier = threading.Barrier(8)

    def ask(i):
        barrier.wait(timeout=10)
        order = keys[i % len(keys):] + keys[:i % len(keys)]
        return {key: questions[key]() for key in order}

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    pool = ThreadPoolExecutor(max_workers=8)
    try:
        answers = list(pool.map(ask, range(8), timeout=30))
    finally:
        pool.shutdown(wait=False)  # a `with` block would wait on deadlocked threads
        sys.setswitchinterval(interval)
    for key in keys:
        assert all(answer[key] is answers[0][key] for answer in answers), key
        assert questions[key]() is answers[0][key], key
    assert answers[0]["cocircuits"] is answers[0]["dual circuits"]


def test_table_asks_the_predicate_once_per_subset():
    # enumeration and the exchange sweep share one table, filled with the
    # predicate's answer on every subset in ascending order; none of it goes
    # through the memo, which is for single queries
    for oracle, n_circuits in ((psi(14, 3), 49), (uniform(2, 12), 220)):
        M, asked = _counting_copy(oracle)
        assert len(M.circuits()) == n_circuits
        assert M.cocircuits() == oracle.cocircuits()
        assert verify_matroid_axioms(M).ok
        assert asked == list(range(1 << M.n))
        assert M._memo == {}


def test_cocircuits_after_circuits_build_only_the_dual(monkeypatch):
    # the cocircuits are the dual's circuits, and the dual's table is a
    # transform of this oracle's, so the predicate is asked nothing more
    M, asked = _counting_copy(psi(10, 3))
    M.circuits()
    before = len(asked)
    built = []
    init = MatroidOracle.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(MatroidOracle, "__init__", counting)
    cocircuits = M.cocircuits()
    assert built == [M.dual()]
    assert len(asked) == before
    assert set(cocircuits.members) == hyperplane_cocircuits(M)


def test_self_dual_even_family():
    M = psi(8, 4)
    assert set(M.cocircuits().members) == set(M.circuits().members)


def test_orthogonality_check():
    assert orthogonality_check(bitset.mask_of([1, 2, 3]), bitset.mask_of([4, 5, 6]))
    assert not orthogonality_check(bitset.mask_of([1, 2, 3]), bitset.mask_of([3, 4, 5]))


def test_orthogonality_all_pairs_psi83():
    M = psi(8, 3)
    for c in M.circuits():
        for d in M.cocircuits():
            assert orthogonality_check(c, d)


def test_validate_circuit_axioms_accepts_uniform():
    fam = [bitset.mask_of(c) for c in itertools.combinations(range(1, 5), 3)]
    assert validate_circuit_axioms(fam, 4).ok


def test_validate_circuit_axioms_rejects_nested():
    fam = [bitset.mask_of([1, 2]), bitset.mask_of([1, 2, 3])]
    report = validate_circuit_axioms(fam, 3)
    assert not report.ok
    assert report.checked == 2 and report.witnesses[0][0] == "antichain"


def test_validate_circuit_axioms_rejects_broken_elimination():
    # drop one 3-subset of U(2,4): elimination now has a hole
    fam = [bitset.mask_of(c) for c in ([1, 2, 3], [1, 2, 4], [1, 3, 4])]
    report = validate_circuit_axioms(fam, 4)
    assert not report.ok
    assert any(v[0] == "elimination" for v in report.witnesses)


def test_validate_circuit_axioms_reports_out_of_range():
    report = validate_circuit_axioms([0b10011], 4)
    assert not report.ok
    assert report.witnesses == (("out-of-range", ((1, 2, 5),)),)
    # with a pair to eliminate, on the dependence-table path and the scan path
    for n in (4, 19):
        fam = [bitset.mask_of([1, 2, n + 1]), bitset.mask_of([1, 3])]
        report = validate_circuit_axioms(fam, n)
        assert not report.ok
        assert report.witnesses[0] == ("out-of-range", ((1, 2, n + 1),))


def test_validate_circuit_axioms_spike():
    for r in range(3, 11):
        M, _ = free_spike(r, validate=False)
        assert validate_circuit_axioms(M.circuits(), M.n).ok, r


def test_exchange_sweep_passes_on_fixtures(small_fixtures):
    for name, M in small_fixtures.items():
        if M.n <= 10:
            report = verify_matroid_axioms(M)
            assert report.ok, (name, report.witnesses)


def test_exchange_sweep_catches_non_matroid():
    # independence closed downward but failing exchange: {1,2} and {3} max-independent
    ground = GroundSet(3)
    good = {0, 0b001, 0b010, 0b100, 0b011}
    fake = MatroidOracle(ground, lambda m: m in good, name="fake")
    report = verify_matroid_axioms(fake)
    assert not report.ok
    assert report.witnesses[0][0] == "exchange"


def test_exchange_sweep_catches_downward_violation():
    ground = GroundSet(3)
    bad = {0, 0b011}  # {1,2} independent but {1} not
    fake = MatroidOracle(ground, lambda m: m in bad, name="fake")
    report = verify_matroid_axioms(fake)
    assert not report.ok


def test_oracle_from_circuits_roundtrip():
    source = psi(8, 3)
    rebuilt = oracle_from_circuits(source.ground, source.circuits().members)
    for mask in range(1 << 8):
        assert rebuilt.indep(mask) == source.indep(mask)


def test_enum_cap_env_override(monkeypatch):
    monkeypatch.setenv("CYCMAT_MAX_N", "4")
    with pytest.raises(CapExceeded):
        uniform(2, 5).circuits()
    monkeypatch.setenv("CYCMAT_MAX_N", "21")
    assert len(uniform(2, 21).circuits()) == len(list(itertools.combinations(range(21), 3)))
    monkeypatch.setenv("CYCMAT_MAX_N", "0")
    with pytest.raises(ValueError):
        uniform(2, 5).circuits()


def test_exchange_sweep_answers_up_to_the_lattice_cap():
    report = verify_matroid_axioms(psi(16, 4))
    assert report.ok and report.checked == 1 << 16


def test_exchange_sweep_refuses_above_the_lattice_cap(monkeypatch):
    monkeypatch.delenv("CYCMAT_MAX_N", raising=False)
    with pytest.raises(CapExceeded, match="n <= 20, got n=21"):
        verify_matroid_axioms(uniform(3, 21))
    monkeypatch.setenv("CYCMAT_MAX_N", "8")
    with pytest.raises(CapExceeded, match="CYCMAT_MAX_N"):
        verify_matroid_axioms(uniform(3, 10))


def test_oracle_shared_across_threads():
    # memoisation and family enumeration stay consistent under concurrency
    from concurrent.futures import ThreadPoolExecutor

    M = psi(10, 3)
    expected = {mask: M.dual().indep(mask) for mask in range(0, 1 << 10, 11)}

    def probe(offset):
        fam = M.circuits()
        ranks = [M.rank(mask) for mask in range(offset, 1 << 10, 97)]
        duals = {mask: M.dual().indep(mask) for mask in range(0, 1 << 10, 11)}
        return len(fam), sum(ranks), duals

    with ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(probe, range(8)))
    assert len({r[0] for r in results}) == 1
    for _, _, duals in results:
        assert duals == expected


def test_oracle_from_circuits_builds_one_table(monkeypatch):
    # validation and the independence predicate share one dependence table
    circuits = whirl(6).circuits().members
    sizes = []
    original = bitset.dependence_table

    def counting(n, generators):
        sizes.append(n)
        return original(n, generators)

    monkeypatch.setattr(bitset, "dependence_table", counting)
    M = oracle_from_circuits(GroundSet(12), circuits, validate=True)
    assert M.indep(bitset.mask_of([1, 3, 5]))
    assert sizes == [12]


WITNESSES = st.one_of(st.integers(), st.tuples(st.text(max_size=3), st.integers()))


@given(st.lists(st.none() | WITNESSES, max_size=12), st.text(max_size=5))
def test_report_of_counts_every_case_and_fails_by_its_witnesses(cases, note):
    report = VerificationReport.of("check", iter(cases), note)
    failing = tuple(c for c in cases if c is not None)
    assert report == VerificationReport("check", len(cases), failing, note)
    assert report.ok == (not failing)


def test_report_of_no_case_is_a_vacuous_pass():
    report = VerificationReport.of("nearly-upgrade", [], "size bounds not met; vacuous")
    assert report.ok and report.checked == 0 and report.witnesses == ()
    assert report.note == "size bounds not met; vacuous"
