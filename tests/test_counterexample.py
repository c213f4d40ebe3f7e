import dataclasses

import pytest

from cycmat import bitset, psi, uniform
from cycmat.counterexample import (
    AXIOM,
    ForcedLedger,
    TwoBlockSpec,
    forced_dependents,
    iter_specs,
    psi_two_block_circuits,
    rank_bound_contradiction,
)


def test_two_block_base_example():
    spec = TwoBlockSpec(1, 2, 2, 5, 12)
    assert bitset.indices(spec.mask) == (1, 2, 4, 5)
    assert bitset.indices(spec.gap) == (3,)
    assert spec.exclusions == ()
    # k + l = s - 1: the augmented set is one full window
    assert spec.with_x(3) == bitset.cyclic_interval(12, 1, 5)


def test_two_block_literal_formula():
    spec = TwoBlockSpec(1, 3, 2, 5, 12)
    assert bitset.indices(spec.mask) == (1, 2, 3, 6, 7)
    assert bitset.indices(spec.gap) == (4, 5)


def test_two_block_upper_bound_parameters():
    spec = TwoBlockSpec(1, 2, 2, 4, 8)
    assert bitset.indices(spec.mask) == (1, 2, 5, 6)
    assert spec.gap.bit_count() == 2  # gap length k + l - (s - 2)


def test_two_block_exclusions_at_extremes():
    spec = TwoBlockSpec(1, 4, 2, 5, 12)  # k = s - 1
    assert spec.exclusions == (5,)
    assert 5 not in spec.admissible()
    spec = TwoBlockSpec(1, 2, 4, 5, 12)  # l = s - 1
    assert spec.exclusions == (bitset.indices(spec.gap)[-1],)


def test_two_block_block_sizes():
    for spec in iter_specs(12, 5):
        assert spec.mask.bit_count() == spec.k + spec.ell
        assert spec.gap.bit_count() == spec.k + spec.ell - spec.s + 2
        assert spec.gap & spec.mask == 0


def test_spec_validation():
    with pytest.raises(ValueError):
        TwoBlockSpec(2, 2, 2, 5, 12)  # even start
    with pytest.raises(ValueError):
        TwoBlockSpec(1, 1, 2, 5, 12)  # block too short
    with pytest.raises(ValueError):
        TwoBlockSpec(1, 4, 4, 5, 12)  # k + l too large
    with pytest.raises(ValueError):
        TwoBlockSpec(1, 2, 2, 5, 10)  # n below 4s - 8


def test_augmented_sets_are_circuits():
    for n, s in ((8, 4), (12, 4), (12, 5)):
        report = psi_two_block_circuits(psi(n, s), s)
        assert report.ok and report.checked > 0
        # reference route: membership in the enumerated circuit family
        circuits = set(psi(n, s).circuits().members)
        augmented = [spec.with_x(x) for spec in iter_specs(n, s) for x in spec.admissible()]
        assert len(augmented) == report.checked
        assert all(mask in circuits for mask in augmented)


def test_psi_two_block_rejects_parameters():
    with pytest.raises(ValueError):
        psi_two_block_circuits(psi(10, 5), 5)
    with pytest.raises(ValueError):
        psi_two_block_circuits(psi(12, 3), 3)


def test_psi_two_block_rejects_a_matroid_that_is_not_psi():
    # U(6, 12) has no circuit below size 7, so every augmented set fails
    report = psi_two_block_circuits(uniform(6, 12), 4)
    assert not report.ok
    assert report.checked == 12
    assert len(report.witnesses) == 12


def test_ledger_base_case_is_axiom():
    ledger = forced_dependents(12, 5)
    # k + l = s - 1 = 4: the (1, 2, 2) instance closes the first window
    entry = ledger.entries[(1, 2, 2, 3)]
    assert entry.rule == "window"
    assert entry.target == bitset.cyclic_interval(12, 1, 5)
    assert ledger.entries[(AXIOM, 1)].target == bitset.cyclic_interval(12, 1, 5)


def test_ledger_splice_case_trace():
    ledger = forced_dependents(12, 5)
    # k + l = s: windows at i and i+2 spliced on the unused gap element
    entry = ledger.entries[(1, 3, 2, 4)]
    assert entry.rule == "splice"
    assert entry.eliminated == 5
    assert entry.parents == ((AXIOM, 1), (AXIOM, 3))
    union = ledger.entries[(AXIOM, 1)].target | ledger.entries[(AXIOM, 3)].target
    assert entry.target == union & ~(1 << 4)


def test_ledger_targets_dependent_in_psi():
    for n, s in ((8, 4), (12, 5), (16, 6)):
        ledger = forced_dependents(n, s)
        report = ledger.verify_dependent(psi(n, s))
        assert report.ok, report.witnesses[:3]


def test_ledger_covers_all_instances():
    for n, s in ((8, 4), (12, 5)):
        ledger = forced_dependents(n, s)
        expected = sum(len(spec.admissible()) for spec in iter_specs(n, s))
        assert ledger.instance_count() == expected


def test_ledger_deep_branches_exercised():
    rules = {entry.rule for entry in forced_dependents(16, 6).entries.values()}
    assert {"front-pair", "front-swap", "front-axiom", "back-pair", "back-swap"} <= rules
    rules5 = {entry.rule for entry in forced_dependents(12, 5).entries.values()}
    assert {"centre-left", "centre-right", "shrink-front", "shrink-back"} <= rules5


def test_ledger_eliminations_are_sound():
    # every non-axiom trace: parents contain the eliminated element and the
    # target is exactly their union minus it
    ledger = forced_dependents(12, 5)
    for entry in ledger.entries.values():
        if entry.eliminated is None:
            continue
        a, b = (ledger.entries[p].target for p in entry.parents)
        bit = 1 << (entry.eliminated - 1)
        assert a & bit and b & bit
        assert entry.target == (a | b) & ~bit


def test_rank_bound_contradiction_certificates():
    for n, s in ((8, 4), (12, 5), (16, 6)):
        report = rank_bound_contradiction(forced_dependents(n, s), psi(n, s))
        assert report.ok
        assert report.rank_bound == n // 2
        assert report.claimed_rank == n // 2 + 1
        assert report.chain[0].bound == s - 1
        assert report.chain[-1].prefix_size == n - s + 2
        assert report.chain[-1].bound == n // 2
        assert len(report.spanning) == s - 2


def test_rank_bound_report_carries_its_ledger():
    given = forced_dependents(12, 5)
    report = rank_bound_contradiction(given, psi(12, 5))
    assert report.ledger is given
    ledger = forced_dependents(12, 5)
    assert len(report.ledger) == len(ledger)
    assert report.ledger.instance_count() == ledger.instance_count()


def test_rank_bound_chain_structure():
    report = rank_bound_contradiction(forced_dependents(12, 5), psi(12, 5))
    # base: the first window has rank at most s - 1
    assert report.chain[0].rule == "axiom-circuit"
    rules = [step.rule for step in report.chain[1:]]
    assert rules == ["add-element", "closure-circuit"] * (len(rules) // 2)
    for step in report.chain:
        if step.rule == "closure-circuit":
            assert step.support is not None
            assert step.support.bit_count() == 5
            # the supporting circuit ends exactly at the new prefix element
            assert max(bitset.indices(step.support)) == step.prefix_size


def test_rank_bound_rejects_parameters():
    with pytest.raises(ValueError):
        rank_bound_contradiction(ForcedLedger(10, 5), psi(10, 5))
    with pytest.raises(ValueError):
        rank_bound_contradiction(ForcedLedger(12, 3), psi(12, 3))
    with pytest.raises(ValueError, match="the ledger is for n=12, the oracle has n=16"):
        rank_bound_contradiction(forced_dependents(12, 5), psi(16, 5))


# the spanning entries of forced_dependents(16, 5): e_1..e_3 and e_11..e_13
# with one of e_14, e_15, e_16, keyed by that element last
SPANNING_16_5 = [(11, 3, 3, x) for x in (14, 15, 16)]


def test_rank_bound_needs_every_spanning_entry():
    ledger = forced_dependents(16, 5)
    assert [bitset.indices(ledger.entries[k].target)[-1] for k in SPANNING_16_5] == [14, 15, 16]
    del ledger.entries[SPANNING_16_5[1]]
    with pytest.raises(RuntimeError, match=r"missing the spanning entry \(11, 3, 3, 15\)"):
        rank_bound_contradiction(ledger, psi(16, 5))


@pytest.mark.parametrize("target", [
    bitset.mask_of([1, 2, 3, 11, 12, 13, 14, 15]),  # widened by e_15, so no circuit either
    bitset.cyclic_interval(16, 11, 15),  # a circuit of psi(16, 5), but two elements past the prefix
])
def test_rank_bound_refuses_a_spanning_set_beyond_the_prefix(target):
    ledger = forced_dependents(16, 5)
    key = SPANNING_16_5[0]
    ledger.entries[key] = dataclasses.replace(ledger.entries[key], target=target)
    assert rank_bound_contradiction(ledger, psi(16, 5)).ok is False


def test_rank_bound_rejects_a_matroid_that_is_not_psi():
    # the spanning sets are dependent in U(7, 12) but not circuits of it
    assert not rank_bound_contradiction(forced_dependents(12, 5), uniform(7, 12)).ok
