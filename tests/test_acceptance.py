"""Acceptance criteria, one test per criterion, each printing a PASS line.

All comparisons are exact (the properties are structural); run with -s to
see the per-criterion lines.
"""

import hashlib
import random

from cycmat import bitset
from cycmat.cli import main as cli_main
from cycmat.constructions import free_spike, truncate, uniform, wheel, whirl
from cycmat.core import validate_circuit_axioms, verify_matroid_axioms
from cycmat.counterexample import (
    forced_dependents,
    psi_two_block_circuits,
    rank_bound_contradiction,
)
from cycmat.cyclic import (
    NEARLY,
    STParams,
    certify,
    check_adjacent_windows,
    check_rank_formula,
    check_window_closure,
    check_window_structure,
    find_orderings,
    full_from_odd_circuits,
    natural_ordering,
    unique_window_circuits,
    upgrade_from_nearly,
    window_rank_prediction,
)
from cycmat.suite import DEFAULT_SEED, PSI_GRID, TRUNCATION_GRID, random_transversal
from cycmat.transversal import (
    classify_circuit,
    interval_presentation,
    psi,
    psi_basis_test,
    self_duality_map,
    transversal_matroid,
)
from cycmat.weakmap import weak_image_of_truncated_psi

# sha256 prefix of the default-seed, max-n 12 suite report; refactors must
# leave the report byte-identical
SUITE_12_HASH_PREFIX = "62e5623172f68587"


def _ok(number: int, name: str) -> None:
    print(f"ACCEPTANCE {number} {name}: PASS")


def test_criterion_1_psi_rank(psi_oracles):
    for (n, s), oracle in psi_oracles.items():
        assert oracle.rank() == n // 2, (n, s)
    _ok(1, "psi-construction-rank")


def test_criterion_2_dual_oracle_equivalence(psi_oracles):
    for (n, s), direct in psi_oracles.items():
        assert n <= 12
        pres = interval_presentation(n, s)
        generic = transversal_matroid(pres.base).dual()
        half = n // 2
        for mask in range(1 << n):
            assert direct.indep(mask) == generic.indep(mask), (n, s, mask)
            by_counts = psi_basis_test(n, s, mask)
            by_matching = mask.bit_count() == half and direct.indep(mask)
            assert by_counts == by_matching, (n, s, mask)
    _ok(2, "dual-oracle-equivalence")


def test_criterion_3_self_duality(psi_oracles):
    for (n, s), oracle in psi_oracles.items():
        perm = self_duality_map(n, s)
        mapped = {bitset.permute(c, perm) for c in oracle.circuits()}
        assert mapped == set(oracle.cocircuits().members), (n, s)
    _ok(3, "self-duality")


def test_criterion_4_circuit_classification(psi_oracles):
    for (n, s), oracle in psi_oracles.items():
        pres = interval_presentation(n, s)
        total = spanning = 0
        for circuit in oracle.circuits():
            outcome = classify_circuit(oracle, pres, circuit)
            assert outcome.ok, (n, s, bitset.indices(circuit))
            total += 1
            spanning += outcome.kind == "spanning"
            if outcome.kind == "spanning":
                assert circuit.bit_count() == n - n // 2 + 1
        assert total == len(oracle.circuits())
    _ok(4, "circuit-classification")


def _window_fixtures():
    for n, s in PSI_GRID:
        yield psi(n, s), STParams(s, s), f"psi({n},{s})"
    for n, s, t in TRUNCATION_GRID:
        yield truncate(psi(n, s), (t - s) // 2), STParams(s, t), f"T({n},{s},{t})"


def test_criterion_5_window_properties():
    for oracle, st, label in _window_fixtures():
        n, s, t = oracle.n, st.s, st.t
        assert n <= 14
        ordering = natural_ordering(n)
        cert = certify(oracle, ordering, st)
        assert cert.full, label
        assert check_adjacent_windows(oracle, ordering, st).ok, label
        if (s - t) % 2 == 0:
            assert check_window_structure(oracle, ordering, st).ok, label
        # both reports cover every start i, and every k of their ranges
        closure = check_window_closure(oracle, ordering, st)
        assert (closure.ok, closure.checked) == (True, 2 * n * (n - s - t + 2)), label
        ranks = window_rank_prediction(oracle, ordering, st)
        assert (ranks.ok, ranks.checked) == (True, n * (n - t + 1)), (label, ranks.witnesses[:1])
        assert check_rank_formula(oracle, st), label
        assert oracle.rank() == (n + s - t) // 2, label
        if n >= s + t:
            assert full_from_odd_circuits(oracle, ordering, st).full, label
        if n >= s + 2 * t - 4:
            assert unique_window_circuits(oracle, ordering, st).ok, label
    _ok(5, "window-property-suite")


def test_criterion_6_upgrade_at_desk_scale():
    st = STParams(3, 3)
    targets = [("psi(8,3)", psi(8, 3)), ("wheel(4)", wheel(4))]
    rng = random.Random(DEFAULT_SEED)
    targets += [(f"random-{i}", random_transversal(rng, 8)) for i in range(20)]
    nearly_total = 0
    for label, oracle in targets:
        for ordering in find_orderings(oracle, st, mode=NEARLY):
            nearly_total += 1
            report = upgrade_from_nearly(oracle, ordering, st)
            # n = 8 meets both bounds, so the check is never vacuous
            assert report.checked == 1 and report.ok, (label, ordering.order)
    assert nearly_total > 0
    # informational survey below the bound (n = 6 and the 4-element case)
    exhibited = []
    for label, oracle in (
        ("whirl(3)", whirl(3)), ("wheel(3)", wheel(3)), ("U(2,4)", uniform(2, 4))
    ):
        orderings = find_orderings(oracle, st, mode=NEARLY)
        gaps = [o for o in orderings if not certify(oracle, o, st).full]
        exhibited.extend((label, o.order) for o in gaps[:1])
        print(f"  below-bound {label}: {len(orderings)} nearly orderings, "
              f"{len(gaps)} nearly-not-full")
    print(f"  exhibited nearly-not-full instances: {exhibited or 'none found'}")
    _ok(6, "nearly-implies-full-upgrade")


def test_criterion_7_canonical_weak_map():
    fixtures = [
        (wheel(4), STParams(3, 3)),
        (free_spike(4)[0], STParams(4, 4)),
        (truncate(psi(10, 3), 1), STParams(3, 5)),
    ]
    for oracle, st in fixtures:
        target = truncate(psi(oracle.n, st.s), (st.t - st.s) // 2)
        report = weak_image_of_truncated_psi(oracle, natural_ordering(oracle.n), st, target)
        assert report.ok, oracle.name
    _ok(7, "canonical-weak-map-image")


def test_criterion_8_quotient_refutation():
    for n, s in ((8, 4), (12, 4), (12, 5)):
        report = psi_two_block_circuits(psi(n, s), s)
        assert report.ok and report.checked > 0, (n, s)
    for n, s in ((12, 5), (8, 4)):
        report = rank_bound_contradiction(forced_dependents(n, s), psi(n, s))
        assert report.ok, (n, s)
        assert report.rank_bound == n // 2
        assert report.claimed_rank == n // 2 + 1
        assert report.rank_bound < report.claimed_rank
        assert report.chain[-1].bound == n // 2
    _ok(8, "quotient-refutation")


def test_criterion_9_axiom_integrity(small_fixtures):
    for name, oracle in small_fixtures.items():
        assert oracle.n <= 12, name
        assert validate_circuit_axioms(oracle.circuits(), oracle.n).ok, name
        report = verify_matroid_axioms(oracle)
        assert report.ok, (name, report.witnesses)
    _ok(9, "axiom-integrity")


def test_criterion_10_suite_determinism(tmp_path, capsys):
    first, second = tmp_path / "a.json", tmp_path / "b.json"
    argv = ["suite", "--seed", str(DEFAULT_SEED)]
    assert cli_main(argv + ["--out", str(first)]) == 0
    assert cli_main(argv + ["--out", str(second)]) == 0
    capsys.readouterr()
    assert first.read_bytes() == second.read_bytes()
    for path in (first, second):
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest.startswith(SUITE_12_HASH_PREFIX), digest[:16]
    _ok(10, "suite-determinism")
