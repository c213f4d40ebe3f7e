import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cycmat import CapExceeded, GroundSet, bitset, psi, uniform, wheel, whirl
from cycmat.constructions import free_spike, truncate
from cycmat.core import MatroidOracle
from cycmat.transversal import BipartitePresentation, transversal_matroid
from cycmat.cyclic import (
    FULL,
    NEARLY,
    CyclicOrdering,
    STParams,
    certify,
    check_adjacent_windows,
    check_rank_formula,
    check_window_closure,
    check_window_structure,
    find_orderings,
    full_from_odd_circuits,
    natural_ordering,
    size_bounds,
    unique_window_circuits,
    upgrade_from_nearly,
    window_rank_prediction,
)
from cycmat.suite import run_suite

ST33 = STParams(3, 3)


def test_st_params_validation():
    with pytest.raises(ValueError):
        STParams(1, 3)
    p = STParams(3, 5)
    assert (p.t1, p.t2) == (3, 5)


def test_ordering_must_be_permutation():
    with pytest.raises(ValueError):
        CyclicOrdering((1, 2, 2))


def test_interval_positions():
    o = natural_ordering(8)
    assert o.window(7, 4) == bitset.mask_of([7, 8, 1, 2])
    assert o.window(3, 1) == bitset.mask_of([3])
    assert natural_ordering(12).window(1, 5) == bitset.mask_of([1, 2, 3, 4, 5])


def test_interval_respects_permutation():
    o = CyclicOrdering((3, 1, 4, 2))
    assert o.window(1, 2) == bitset.mask_of([3, 1])
    assert o.window(4, 2) == bitset.mask_of([2, 3])


permutations8 = st.permutations(range(1, 9))


@given(permutations8, st.integers(-20, 20), st.integers(0, 20))
def test_window_is_the_wrapped_run(perm, start, length):
    # every start, including ones past n or below 1, and lengths that wrap onto themselves
    expected = bitset.mask_of(perm[(start - 1 + k) % 8] for k in range(length))
    assert CyclicOrdering(tuple(perm)).window(start, length) == expected


@given(permutations8, st.integers(0, 7), st.booleans())
def test_canonical_invariant_under_symmetry(perm, k, flip):
    o = CyclicOrdering(tuple(perm))
    other = o.rotated(k)
    if flip:
        other = other.reversed_order()
    assert other.canonical == o.canonical
    assert other == o and hash(other) == hash(o)


def test_uniform_any_ordering_nearly():
    M = uniform(2, 4)
    cert = certify(M, natural_ordering(4), ST33)
    assert cert.nearly


def test_certificate_floor():
    with pytest.raises(ValueError):
        certify(uniform(2, 4), natural_ordering(4), STParams(3, 6))


def test_psi_natural_full_with_phases(psi_oracles):
    cert = certify(psi_oracles[(8, 3)], natural_ordering(8), ST33)
    assert cert.full
    assert cert.circuit_starts == (1, 3, 5, 7)
    assert cert.circuit_phase == 1
    assert cert.cocircuit_phase == 0  # shifted by one, whirl-like


def test_psi_even_family_same_phase(psi_oracles):
    cert = certify(psi_oracles[(12, 4)], natural_ordering(12), STParams(4, 4))
    assert cert.full
    assert cert.circuit_phase == cert.cocircuit_phase == 1


def test_wheel_non_alternating_ordering_fails():
    M = wheel(4)
    # spokes first, rims after: windows of three spokes are independent
    scrambled = CyclicOrdering((1, 3, 5, 7, 2, 4, 6, 8))
    cert = certify(M, scrambled, ST33)
    assert cert.kind == "neither"


def test_certificates_rotation_and_reflection_invariant(psi_oracles):
    M = psi_oracles[(8, 3)]
    base = natural_ordering(8)
    kinds = {certify(M, base.rotated(k), ST33).kind for k in range(8)}
    kinds.add(certify(M, base.reversed_order(), ST33).kind)
    assert kinds == {"full"}


def test_full_certificates_have_single_parity(psi_oracles):
    # above the size floor, window circuits live at exactly one parity class
    for (n, s), M in psi_oracles.items():
        cert = certify(M, natural_ordering(n), STParams(s, s))
        assert cert.full
        assert cert.circuit_phase is not None
        assert cert.cocircuit_phase is not None
        expected_shift = 0 if s % 2 == 0 else 1
        assert (cert.circuit_phase - cert.cocircuit_phase) % 2 == expected_shift


def _assert_dual_certificates(M, o, p):
    # the t-cocircuit windows of M are the t-circuit windows of its dual
    cert = certify(M, o, p)
    dual = certify(M.dual(), o, STParams(p.t, p.s))
    assert dual.kind == cert.kind, (o.order, p)
    assert (dual.circuit_starts, dual.cocircuit_starts) == (cert.cocircuit_starts, cert.circuit_starts)
    assert (dual.circuit_phase, dual.cocircuit_phase) == (cert.cocircuit_phase, cert.circuit_phase)


def test_psi_certificates_swap_under_duality(psi_oracles):
    for (n, s), M in psi_oracles.items():
        odd_then_even = tuple(range(1, n + 1, 2)) + tuple(range(2, n + 1, 2))
        for o in (natural_ordering(n), CyclicOrdering(odd_then_even)):
            for t in (s - 1, s, s + 1):
                _assert_dual_certificates(M, o, STParams(s, t))


@st.composite
def transversal_orderings(draw):
    n = draw(st.integers(min_value=3, max_value=8))
    nbrs = draw(st.lists(st.integers(min_value=1, max_value=(1 << n) - 1), min_size=1, max_size=5))
    s, t = (draw(st.integers(min_value=2, max_value=n + 1)) for _ in range(2))
    order = CyclicOrdering(tuple(draw(st.permutations(range(1, n + 1)))))
    return BipartitePresentation(GroundSet(n), tuple(nbrs)), order, STParams(s, t)


@settings(max_examples=80, deadline=None)
@given(transversal_orderings())
def test_transversal_certificates_swap_under_duality(case):
    pres, o, p = case
    _assert_dual_certificates(transversal_matroid(pres), o, p)


def test_full_implies_nearly_on_examples(psi_oracles):
    fixtures = [
        (psi_oracles[(8, 3)], ST33),
        (free_spike(4)[0], STParams(4, 4)),
        (uniform(2, 5), STParams(3, 4)),
    ]
    for M, p in fixtures:
        cert = certify(M, natural_ordering(M.n), p)
        assert cert.full and cert.nearly


def test_size_bounds_table():
    assert size_bounds(9, STParams(3, 5)).nearly_allowed
    assert not size_bounds(9, STParams(3, 5)).full_allowed  # odd n
    rep = size_bounds(6, STParams(3, 4))
    assert not rep.full_allowed and "window-parity" in rep.violated
    assert not size_bounds(1, STParams(2, 2)).nearly_allowed
    assert size_bounds(5, ST33).nearly_allowed


def test_find_orderings_uniform_24():
    # full symmetry: all (4-1)!/2 = 3 dihedral classes qualify
    found = find_orderings(uniform(2, 4), ST33, mode=NEARLY)
    assert len(found) == 3
    assert all(o.order[0] == 1 for o in found)


def test_find_orderings_wheel_contains_alternating():
    found = find_orderings(wheel(4), ST33, mode=FULL)
    assert natural_ordering(8) in found


def test_find_orderings_spike_pairs_consecutive():
    M, pairs = free_spike(3)
    found = find_orderings(M, STParams(4, 4), mode=NEARLY)
    # every ordering that keeps each pair consecutive qualifies
    def pairs_consecutive(o):
        pos = {e: i for i, e in enumerate(o.order)}
        return all(
            (pos[2 * i + 2] - pos[2 * i + 1]) % 6 in (1, 5) for i in range(3)
        )
    qualifying = [o for o in found if pairs_consecutive(o)]
    assert qualifying
    for o in found:
        assert certify(M, o, STParams(4, 4)).nearly


def test_certificate_memoised_on_its_oracle():
    M = psi(8, 3)
    first = certify(M, natural_ordering(8), ST33)
    assert certify(M, natural_ordering(8), ST33) is first
    assert certify(psi(8, 3), natural_ordering(8), ST33) is not first


def test_certified_oracle_is_freed():
    import gc
    import weakref

    M = psi(12, 4)
    assert certify(M, natural_ordering(12), STParams(4, 4)).full
    ref = weakref.ref(M)
    del M
    gc.collect()
    assert ref() is None


def test_find_orderings_leaves_no_certificates():
    M = wheel(4)
    found = find_orderings(M, ST33, mode=NEARLY)
    assert found
    # every leaf of the search starts at element 1
    for rest in itertools.permutations(range(2, M.n + 1)):
        assert M.kept(((1, *rest), ST33)) is None, rest
    # the keys read above are the ones certify keeps
    assert certify(M, found[0], ST33) is M.kept((found[0].order, ST33))


def test_find_orderings_respects_limit_and_cap():
    assert len(find_orderings(uniform(2, 4), ST33, mode=NEARLY, limit=1)) == 1
    with pytest.raises(CapExceeded):
        find_orderings(uniform(6, 13), ST33)


def naive_orderings(oracle, params, mode):
    """Unpruned reference enumeration: certify every dihedral representative."""
    import itertools

    n = oracle.n
    out = []
    for rest in itertools.permutations(range(2, n + 1)):
        if n > 2 and rest[0] > rest[-1]:
            continue
        ordering = CyclicOrdering((1,) + rest)
        cert = certify(oracle, ordering, params)
        if cert.nearly if mode == NEARLY else cert.full:
            out.append(ordering.canonical)
    return out


def search_fixtures():
    return [
        (uniform(2, 4), ST33, NEARLY),
        (uniform(2, 5), STParams(3, 4), FULL),
        (whirl(3), ST33, NEARLY),
        (whirl(3), ST33, FULL),
        (free_spike(3)[0], STParams(4, 4), NEARLY),
    ]


def test_search_matches_naive_enumeration():
    for oracle, params, mode in search_fixtures():
        fast = [o.canonical for o in find_orderings(oracle, params, mode=mode)]
        assert fast == naive_orderings(oracle, params, mode)


def test_search_limit_takes_a_prefix():
    # limit k gives the first k orderings of the unlimited search, for every
    # k up to one past the count
    for oracle, params, mode in search_fixtures():
        full = find_orderings(oracle, params, mode=mode)
        for k in range(1, len(full) + 2):
            limited = find_orderings(oracle, params, mode=mode, limit=k)
            assert [o.order for o in limited] == [o.order for o in full[:k]], (oracle.name, mode, k)


def route_fixtures():
    """Builders of the oracles both window routes must agree on, with their
    (s, t); each is called twice, so one copy never builds a table."""
    import random

    from cycmat.suite import random_transversal

    # not a matroid: the independent sets are the subsets of {3,4} or of {2}
    def non_matroid():
        return MatroidOracle(GroundSet(4), lambda m: m & ~0b1100 == 0 or m & ~0b0010 == 0)

    rng = random.Random(11)
    seeds = [rng.getrandbits(32) for _ in range(3)]
    return [
        (lambda: psi(8, 3), ST33),
        (lambda: wheel(4), ST33),
        (lambda: uniform(2, 4), ST33),
        (non_matroid, ST33),
        # no independent set, not even the empty one: the empty mask is no circuit
        (lambda: MatroidOracle(GroundSet(3), lambda m: False), ST33),
        *((lambda seed=seed: random_transversal(random.Random(seed), 7), STParams(3, 4)) for seed in seeds),
    ]


@pytest.mark.parametrize("case", range(len(route_fixtures())))
def test_window_routes_agree(case):
    # the predicate route (a fresh oracle) and the table route (circuit and
    # extension-count tables built) give the same answer on every mask, the
    # same certificate on every ordering tried, and the same search
    import random

    from cycmat import cyclic

    build, params = route_fixtures()[case]
    fresh, tabled = build(), build()
    for matroid in (tabled, tabled.dual()):
        matroid.extension_counts()
    n = fresh.n
    for ask, told in ((fresh, tabled), (fresh.dual(), tabled.dual())):
        counts, marks = told.extension_counts(), told.circuit_table()
        for mask in range(1 << n):
            assert ask.is_circuit(mask) == told.is_circuit(mask) == marks[mask], (told.name, mask)
            assert cyclic._in_circuit(ask, mask) == cyclic._in_circuit(told, mask), (told.name, mask)
            assert sum(1 for _ in cyclic._extensions(ask, mask)) == counts[mask], (told.name, mask)
        for mask in (1 << n, -1):
            for matroid in (ask, told):
                with pytest.raises(ValueError):
                    matroid.is_circuit(mask)
    nearly = find_orderings(tabled, params)
    rng = random.Random(case)
    orderings = [o.order for o in nearly]
    for _ in range(8):
        order = list(range(1, n + 1))
        rng.shuffle(order)
        orderings.append(tuple(order))
    for order in orderings:
        ordering = CyclicOrdering(order)
        assert certify(fresh, ordering, params) == certify(tabled, ordering, params), order
    for matroid in (fresh, fresh.dual()):
        assert matroid.kept("circuit-table") is None and matroid.kept("independence-table") is None


def test_window_routes_agree_on_the_search(monkeypatch):
    # with the lattice cap below n the search builds no table and asks the predicates
    for build, params in route_fixtures():
        tabled = build()
        found = [o.order for o in find_orderings(tabled, params)]
        monkeypatch.setenv(bitset.LATTICE_CAP_ENV, "2")
        fresh = build()
        assert [o.order for o in find_orderings(fresh, params)] == found, fresh.name
        assert fresh.kept("independence-table") is None and fresh.kept("extension-counts") is None
        monkeypatch.delenv(bitset.LATTICE_CAP_ENV)


def test_certify_builds_no_table():
    M = psi(16, 4)
    assert certify(M, natural_ordering(16), STParams(4, 4)).full
    for matroid in (M, M.dual()):
        assert matroid.kept("independence-table") is None
        assert matroid.kept("circuit-table") is None and matroid.kept("extension-counts") is None


@pytest.mark.parametrize("label, build, params", [
    ("psi(16,4)", lambda: psi(16, 4), STParams(4, 4)),
    ("T^1(psi(16,4))", lambda: truncate(psi(16, 4), 1), STParams(4, 6)),
])
def test_n16_nearly_orderings_are_all_full(monkeypatch, label, build, params):
    # the in-pair swaps {2i - 1, 2i} generate 2^8 nearly orderings, and each is full
    monkeypatch.setenv("CYCMAT_SEARCH_CAP", "16")
    oracle = build()
    nearly = find_orderings(oracle, params, mode=NEARLY)
    full = find_orderings(oracle, params, mode=FULL)
    assert len(nearly) == 256, label
    assert [o.order for o in full] == [o.order for o in nearly], label


def test_certificate_failure_order(psi_oracles):
    # one ordering that breaks all six rule kinds: the nearly failures
    # interleaved by position, then both leading rules, then the circuit
    # steps, then the cocircuit steps
    cert = certify(psi_oracles[(8, 3)], CyclicOrdering((3, 4, 1, 2, 8, 7, 6, 5)), ST33)
    assert cert.kind == "neither"
    assert cert.failures == (
        ("window-not-in-circuit", 2),
        ("window-not-in-cocircuit", 2),
        ("window-not-in-circuit", 4),
        ("window-not-in-cocircuit", 8),
        ("no-leading-circuit-window", 1),
        ("no-leading-cocircuit-window", 1),
        ("circuit-window-step", 8),
        ("cocircuit-window-step", 5),
    )


def test_find_orderings_deterministic(psi_oracles):
    M = psi_oracles[(8, 3)]
    a = [o.canonical for o in find_orderings(M, ST33, mode=NEARLY)]
    b = [o.canonical for o in find_orderings(M, ST33, mode=NEARLY)]
    assert a == b


def test_adjacent_windows_psi83(psi_oracles):
    M = psi_oracles[(8, 3)]
    report = check_adjacent_windows(M, natural_ordering(8), ST33)
    assert report.ok
    # circuit at position 1 forces cocircuits at 6..8 and 4..6
    assert M.is_cocircuit(bitset.mask_of([6, 7, 8]))
    assert M.is_cocircuit(bitset.mask_of([4, 5, 6]))


def test_adjacent_windows_rejects_boundary():
    with pytest.raises(ValueError):
        check_adjacent_windows(uniform(2, 5), natural_ordering(5), STParams(3, 4))


def test_window_structure_even_and_odd(psi_oracles):
    even = check_window_structure(psi_oracles[(12, 4)], natural_ordering(12), STParams(4, 4))
    assert even.ok
    odd = check_window_structure(psi_oracles[(8, 3)], natural_ordering(8), ST33)
    assert odd.ok
    # the odd case's shifted independent window, concretely
    assert psi_oracles[(8, 3)].indep(bitset.mask_of([2, 3, 4]))


def test_window_closure_examples(psi_oracles):
    M = psi_oracles[(8, 3)]
    report = check_window_closure(M, natural_ordering(8), ST33)
    # starts 1..8, k = 2..5, two biconditionals each
    assert (report.ok, report.checked, report.witnesses) == (True, 64, ())
    assert M.closure(bitset.mask_of([1, 2])) & bitset.mask_of([3])
    assert not M.closure(bitset.mask_of([2, 3])) & bitset.mask_of([4])


def test_window_closure_sweep(psi_oracles):
    report = check_window_closure(psi_oracles[(12, 4)], natural_ordering(12), STParams(4, 4))
    # starts 1..12, k = 3..8
    assert (report.ok, report.checked, report.witnesses) == (True, 144, ())


def test_window_rank_examples(psi_oracles):
    M = psi_oracles[(8, 3)]
    o = natural_ordering(8)
    report = window_rank_prediction(M, o, ST33)
    # starts 1..8, k = 1..6
    assert (report.ok, report.checked, report.witnesses) == (True, 48, ())
    # circuit phase start: floor((3+5-1)/2) = 3; off-phase: ceil = 4
    assert M.rank(o.window(1, 5)) == 3
    assert M.rank(o.window(2, 5)) == 4
    assert M.rank(o.window(1, 2)) == 2


def test_window_reports_need_a_full_ordering():
    M = psi(8, 3)
    o = CyclicOrdering((1, 3, 2, 4, 5, 6, 7, 8))
    assert not certify(M, o, ST33).full
    for check in (check_window_closure, window_rank_prediction):
        with pytest.raises(ValueError, match="needs a fully structured ordering"):
            check(M, o, ST33)


# psi(8,3) under its natural ordering: the window e_3..e_6 at (i, k) = (3, 4)
FLIP_WINDOW = bitset.mask_of([3, 4, 5, 6])


def _flip_rank_of(monkeypatch, window):
    rank = MatroidOracle.rank

    def flipped(self, mask=None):
        answer = rank(self, mask)
        return answer + 1 if (self.name, mask) == ("psi(8,3)", window) else answer

    monkeypatch.setattr(MatroidOracle, "rank", flipped)


def _flip_closure(monkeypatch):
    # r(e_3..e_6) reads 4, not 3, so e_7 leaves its closure and e_2 enters
    # it; e_3..e_6 is also the (k+1)-window behind e_4..e_6 at (i, k) = (4, 3)
    _flip_rank_of(monkeypatch, FLIP_WINDOW)
    return (("closure-ahead", 3, 4), ("closure-behind", 3, 4), ("closure-behind", 4, 3))


def _flip_rank(monkeypatch):
    _flip_rank_of(monkeypatch, FLIP_WINDOW)
    # start 3 is on the circuit phase, so the predicted rank is floor((3+4-1)/2) = 3
    return (("window-rank", 3, 4, 3, 4),)


@pytest.mark.parametrize("check, name, flip", [
    (check_window_closure, "window-closure", _flip_closure),
    (window_rank_prediction, "window-rank", _flip_rank),
])
def test_window_report_names_a_flipped_answer(monkeypatch, check, name, flip):
    # fresh oracles: a flipped rank could reach a shared oracle's dual memo
    M = psi(8, 3)
    o = natural_ordering(8)
    assert certify(M, o, ST33).full
    witnesses = flip(monkeypatch)
    report = check(M, o, ST33)
    assert not report.ok
    assert report.witnesses == witnesses
    params = {"matroid": "psi(8,3)", "s": 3, "t": 3}
    entries = run_suite(8, families=("psi",))["entries"]
    [entry] = [e for e in entries if (e["check"], e["params"]) == (name, params)]
    assert (entry["ok"], entry["witness"]) == (False, [witnesses[0]])


@pytest.mark.parametrize("check, windows", [
    # lengths s-1..n-t+1 = 3..11 and 1..11 at each of the 14 starts
    (check_window_closure, 14 * 9),
    (window_rank_prediction, 14 * 11),
])
def test_window_reports_ask_each_window_rank_once(monkeypatch, check, windows):
    M = psi(14, 4)
    o = natural_ordering(14)
    params = STParams(4, 4)
    assert certify(M, o, params).full
    rank = MatroidOracle.rank
    asked = []

    def counted(self, mask=None):
        asked.append(mask)
        return rank(self, mask)

    monkeypatch.setattr(MatroidOracle, "rank", counted)
    assert check(M, o, params).ok
    assert len(asked) <= windows
    assert len(set(asked)) == len(asked)


def test_rank_formula(psi_oracles):
    assert check_rank_formula(psi_oracles[(12, 4)], STParams(4, 4))
    assert check_rank_formula(truncate(psi(10, 3), 1), STParams(3, 5))
    assert check_rank_formula(uniform(2, 5), STParams(3, 4))
    assert not check_rank_formula(uniform(2, 5), STParams(3, 3))


def test_full_from_odd_circuits(psi_oracles):
    cert = full_from_odd_circuits(psi_oracles[(8, 3)], natural_ordering(8), ST33)
    assert cert.full
    with pytest.raises(ValueError):
        full_from_odd_circuits(uniform(2, 5), natural_ordering(5), STParams(3, 4))


def test_unique_window_circuits(psi_oracles):
    for key, p in (((8, 3), ST33), ((12, 4), STParams(4, 4))):
        report = unique_window_circuits(psi_oracles[key], natural_ordering(key[0]), p)
        assert report.ok
    # below the bound the check is refused; U(2,4) indeed has two triangles per pair
    with pytest.raises(ValueError):
        unique_window_circuits(uniform(2, 4), natural_ordering(4), ST33)
    M = uniform(2, 4)
    window = bitset.mask_of([1, 2])
    count = sum(1 for e in (3, 4) if M.is_circuit(window | 1 << (e - 1)))
    assert count == 2


def test_random_matroid_certificate_invariants():
    import random

    from cycmat.suite import random_transversal

    rng = random.Random(3)
    for _ in range(12):
        M = random_transversal(rng, 7)
        order = list(range(1, 8))
        rng.shuffle(order)
        o = CyclicOrdering(tuple(order))
        for p in (ST33, STParams(3, 4)):
            cert = certify(M, o, p)
            assert not cert.full or cert.nearly
            for k in (1, 4):
                assert certify(M, o.rotated(k), p).kind == cert.kind
            assert certify(M, o.reversed_order(), p).kind == cert.kind


def test_wheel3_nearly_not_full_witness():
    # below the upgrade bounds a nearly ordering need not be full: with the
    # 3-spoke wheel, every 2-window of this order sits in a triangle and a
    # vertex star, yet the 3-window at position 3 is not a circuit
    M = wheel(3)
    witness = CyclicOrdering((1, 2, 3, 4, 6, 5))
    cert = certify(M, witness, ST33)
    assert cert.kind == "nearly"
    assert not M.is_circuit(bitset.mask_of([3, 4, 6]))
    report = upgrade_from_nearly(M, witness, ST33)
    assert report.ok and report.checked == 0  # vacuous: 6 < 8


def test_empirical_contrapositive_below_bounds():
    # every nearly-but-not-full instance found by search sits below a bound
    for M, p in ((wheel(3), ST33), (whirl(3), ST33)):
        for o in find_orderings(M, p, mode=NEARLY):
            if not certify(M, o, p).full:
                t1, t2 = p.t1, p.t2
                assert M.n < max(3 * t1 + t2 - 5, t1 + 2 * t2 - 1)


def test_upgrade_applies_above_bounds(psi_oracles):
    report = upgrade_from_nearly(psi_oracles[(8, 3)], natural_ordering(8), ST33)
    assert report.ok and report.checked == 1


def test_upgrade_vacuous_below_bounds():
    report = upgrade_from_nearly(whirl(3), natural_ordering(6), ST33)
    assert report.ok and report.checked == 0 and "vacuous" in report.note


def test_upgrade_rejects_small_parameters():
    with pytest.raises(ValueError):
        upgrade_from_nearly(uniform(1, 2), natural_ordering(2), STParams(2, 2))


def test_truncated_psi_full_at_3_5():
    T = truncate(psi(14, 3), 1)
    report = upgrade_from_nearly(T, natural_ordering(14), STParams(3, 5))
    # n = 14 >= max(3*3+5-5, 3+2*5-1) = 12: the upgrade truly applies
    assert report.ok and report.checked == 1
