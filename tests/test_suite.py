"""The suite report and what a run builds.

The report hashes pin the canonical report byte for byte on small grids,
including the checks whose matroid lies outside the run's grid (for example
`whirl(3)` at max-n 4, `spike(4)` with the spike family off), and the
`--inject-mutant` report.  The construction count pins that a run builds
each matroid once.
"""

import dataclasses
import hashlib
from collections import Counter

import numpy as np
import pytest

from cycmat import bitset, counterexample, suite
from cycmat.cli import main
from cycmat.constructions import truncate, uniform
from cycmat.core import GroundSet, MatroidOracle, VerificationReport
from cycmat.cyclic import NEARLY, STParams, certify, find_orderings
from cycmat.documents import canonical_json
from cycmat.suite import DEFAULT_SEED, FAMILY_NAMES, FixtureSet, run_suite
from cycmat.transversal import (
    BipartitePresentation,
    MatchingResult,
    dual_transversal,
    interval_presentation,
    max_matching,
    psi,
    psi_basis_table,
)

# a report row that runs every family with the injected mutant
MUTANT = "mutant"


@pytest.mark.parametrize("max_n, families, prefix, checks", [
    (6, None, "5c036946e14033d4", 75),
    (8, ("psi",), "0a9efa37e07c92a7", 50),
    (10, ("psi",), "7558ef2f7c4b0470", 73),
    (10, ("wheel", "whirl", "uniform"), "2869d65849754c3f", 75),
    (12, ("counterexample",), "12e6dd36793516de", 12),
    (4, ("whirl", "wheel", "uniform", "random"), "b6cd2167bd012835", 36),
    (14, None, "8402595bd15c7503", 350),
    (12, MUTANT, "5d112c84efe451c6", 301),
])
def test_report_hash(max_n, families, prefix, checks):
    mutant = families == MUTANT
    report = run_suite(max_n, families=None if mutant else families, inject_mutant=mutant)
    digest = hashlib.sha256(canonical_json(report).encode()).hexdigest()
    assert digest.startswith(prefix), digest[:16]
    failed = 1 if mutant else 0
    assert report["summary"]["total"] == checks
    assert report["summary"]["failed"] == failed
    assert report["summary"]["passed"] == checks - failed
    if mutant:
        first = report["summary"]["first_failure"]
        assert (first["check"], first["params"]) == ("circuit-axioms", {"matroid": "mutant-U(2,4)"})
    else:
        assert report["summary"]["first_failure"] is None


def test_repeated_family_counts_once():
    once = canonical_json(run_suite(6, families=("uniform",)))
    assert canonical_json(run_suite(6, families=("uniform", "uniform"))) == once


def test_fixture_set_builds_each_builder_and_args_once():
    fixtures = FixtureSet(10, DEFAULT_SEED, FAMILY_NAMES)
    calls = Counter()

    def builder(*args):
        calls[args] += 1
        return object()

    first = fixtures.build(builder, 1, 2)
    assert fixtures.build(builder, 1, 2) is first
    assert fixtures.build(builder, 2, 1) is not first
    assert calls == Counter({(1, 2): 1, (2, 1): 1})
    # another function with the same arguments is another fixture
    assert fixtures.build(lambda *args: builder(*args), 1, 2) is not first

    # a build that raises is not kept: the next request builds again
    def broken(n):
        calls["broken", n] += 1
        raise ValueError("no such fixture")

    for _ in range(2):
        with pytest.raises(ValueError):
            fixtures.build(broken, 3)
    assert calls["broken", 3] == 2

    # an oracle argument keys by identity: T^1 of the run's psi(10,3) is
    # the run's T^1(psi(10,3)), and T^1 of another psi(10,3) is not
    shared = fixtures.build(truncate, fixtures.build(psi, 10, 3), 1)
    assert fixtures.truncated_psi(10, 3, 1) is shared
    assert fixtures.build(truncate, psi(10, 3), 1) is not shared


def test_suite_builds_each_matroid_once(monkeypatch):
    built, tables, supplied, ledgers = Counter(), Counter(), Counter(), Counter()
    init, derived = MatroidOracle.__init__, MatroidOracle.derived
    derive = counterexample.forced_dependents

    def counting(self, ground, indep, name="", table=None, rank=None):
        built[name] += 1
        init(self, ground, indep, name, table=table, rank=rank)

    def counting_derived(self, key, build):
        if key == "independence-table" and self.kept(key) is None:
            # tables handed over by the oracle's builder, and tables filled
            # by asking the predicate mask by mask
            (tables if self._table is None else supplied)[self.name] += 1
        return derived(self, key, build)

    monkeypatch.setattr(MatroidOracle, "__init__", counting)
    monkeypatch.setattr(MatroidOracle, "derived", counting_derived)

    def counting_ledger(n, s):
        ledgers[n, s] += 1
        return derive(n, s)

    for module in (suite, counterexample):
        monkeypatch.setattr(module, "forced_dependents", counting_ledger)
    run_suite(max_n=12)
    # the ordering search asks each random fixture's dual about cocircuits
    assert sum(built.values()) <= 133, built.most_common(5)
    # no oracle asks its predicate mask by mask: every table is supplied,
    # the wheels' forest tables and the duals' included
    assert not tables, tables
    # the nearly-upgrade search tabulates each random fixture and its dual
    assert sum(supplied.values()) == 132, supplied.most_common(5)
    # each oracle builds its dual at most once; labels such as transversal(m=4)
    # name several oracles
    duals = [label for label in built if label.startswith("dual(")]
    assert "dual(dual(psi(8,3)))" in duals
    for label in duals:
        assert built[label] <= built[label[len("dual("):-1]], (label, built[label])
    for label in ("U(2,4)", "whirl(3)", "spike(4)", *(f"wheel({r})" for r in suite.WHEEL_GRID)):
        assert built[label] == 1, (label, built[label])
    psi_labels = [label for label in built if label.startswith(("psi(", "T^")) and "psi(" in label]
    grid = {f"psi({n},{s})" for n, s in suite.PSI_GRID if n <= 12}
    grid |= {f"T^{(t - s) // 2}(psi({n},{s}))" for n, s, t in suite.TRUNCATION_GRID if n <= 12}
    assert grid <= set(psi_labels), sorted(grid - set(psi_labels))
    for label in psi_labels:
        assert built[label] == 1, (label, built[label])
    assert ledgers == Counter({(8, 4): 1, (12, 4): 1, (12, 5): 1})
    assert built["dual-transversal(m=6)"] <= 3


@pytest.mark.parametrize("side", ["direct-dual", "basis-test"])
@pytest.mark.parametrize("flipped", [(0b1011,), (0b1111_0000, 0b0011_1100), (0,)])
def test_table_comparisons_name_the_lowest_flipped_mask(monkeypatch, side, flipped):
    # one side of a comparison is wrong on the flipped masks only; the check
    # must fail, and name the lowest of them
    if side == "direct-dual":
        def flipped_dual(base):
            table = dual_transversal(base).independence_table().copy()
            table[list(flipped)] ^= True
            return MatroidOracle(base.ground, lambda m: bool(table[m]), table=lambda: table)

        monkeypatch.setattr(suite, "dual_transversal", flipped_dual)
        check, other = "dual-transversal-equivalence", "basis-characterization"
    else:
        def flipped_bases(n, s):
            table = psi_basis_table(n, s)
            table[list(flipped)] ^= True
            return table

        monkeypatch.setattr(suite, "psi_basis_table", flipped_bases)
        check, other = "basis-characterization", "dual-transversal-equivalence"
    report = run_suite(max_n=8, families=("psi",))
    entries = {e["check"]: e for e in report["entries"] if e["params"] == {"n": 8, "s": 3}}
    assert entries[check]["ok"] is False
    assert entries[check]["witness"] == list(bitset.indices(min(flipped)))
    assert entries[other]["ok"] is True


def test_suite_reports_a_fixture_that_fails_to_build(monkeypatch, capsys):
    # every psi has rank 0, so T^1(psi(10,3)) cannot be built
    def only_empty(pres):
        table = np.zeros(1 << pres.ground.n, dtype=bool)
        table[0] = True
        return table

    monkeypatch.setattr(BipartitePresentation, "dual_independent", property(only_empty))
    report = run_suite(max_n=10)
    assert report["summary"]["failed"] > 0
    broken = [e for e in report["entries"] if e["check"] == "fixture-build"]
    assert broken == [{
        "check": "fixture-build",
        "params": {"matroid": "T^1(psi(10,3))"},
        "ok": False,
        "witness": "error: truncation steps must satisfy 0 <= i <= rank, got i=1, rank=0",
    }]
    assert main(["suite", "--max-n", "10"]) == 1
    capsys.readouterr()


def test_matching_cross_check_rejects_a_witness_short_of_the_maximum(monkeypatch):
    # J = (1,) is deficient (N(1) lies inside the avoid set) but its deficiency
    # is 1, not m - size = 2: a witness that is not a König certificate
    pres = interval_presentation(8, 3)
    avoid = bitset.mask_of([1, 2, 3, 5, 6, 7])
    assert max_matching(pres.base, avoid).witness == (1, 3)

    def short_witness(base, avoid_mask=0):
        result = max_matching(base, avoid_mask)
        if avoid_mask == avoid:
            return MatchingResult(result.size, result.pairs, (1,))
        return result

    monkeypatch.setattr(suite, "max_matching", short_witness)
    seed = 5  # draws this avoid set among the check's random ones
    ok, witness = suite._matching_entry(pres, seed)
    assert not ok
    assert witness == {"avoid": [1, 2, 3, 5, 6, 7], "witness": [1]}


def test_self_duality_reports_what_a_wrong_map_misses_and_adds(monkeypatch):
    # the identity does not map psi(8,3)'s circuits onto its cocircuits
    monkeypatch.setattr(suite, "self_duality_map", lambda n, s: tuple(range(1, n + 1)))
    report = run_suite(max_n=8, families=("psi",))
    [entry] = [e for e in report["entries"]
               if (e["check"], e["params"]) == ("self-duality", {"n": 8, "s": 3})]
    oracle = psi(8, 3)
    mapped = set(oracle.circuits().members)
    actual = set(oracle.cocircuits().members)
    assert mapped != actual
    assert entry == {
        "check": "self-duality",
        "params": {"n": 8, "s": 3},
        "ok": False,
        "witness": {
            "missing": [list(bitset.indices(m)) for m in sorted(actual - mapped)[:2]],
            "extra": [list(bitset.indices(m)) for m in sorted(mapped - actual)[:2]],
        },
    }


def test_orthogonality_entry_names_the_first_meeting_pair():
    # not a matroid: the sets inside {1, 2} or {3}; its circuits {1, 3} and
    # {2, 3} meet its cocircuits {1} and {2} in one element each
    independent = np.zeros(8, dtype=bool)
    independent[[0b000, 0b001, 0b010, 0b100, 0b011]] = True
    oracle = MatroidOracle(GroundSet(3), lambda mask: bool(independent[mask]), table=lambda: independent)
    assert suite._orthogonality_entry(oracle) == (False, [[1, 3], [1]])


def test_upgrade_entry_names_a_nearly_ordering_that_is_not_full():
    # psi(8,3) is above the (3,3) bounds; its one nearly ordering is planted
    # as nearly but not full, which the upgrade statement rules out
    oracle, st = psi(8, 3), STParams(3, 3)
    [ordering] = find_orderings(oracle, st, mode=NEARLY)
    cert = certify(psi(8, 3), ordering, st)
    oracle.derived((ordering.order, st), lambda: dataclasses.replace(
        cert, kind=NEARLY, failures=(("circuit-window-step", 1),)))
    assert suite._upgrade_entry(oracle, st) == (False, {"order": list(range(1, 9))})


def test_ledger_entry_names_the_first_independent_target():
    # every set is independent in U(8,8), so the first ledger entry fails first
    ledger = counterexample.forced_dependents(8, 4)
    first = next(iter(ledger.entries))
    assert first == (counterexample.AXIOM, 1)
    assert suite._ledger_entry(ledger, uniform(8, 8)) == (False, [first])


def _old_report_entry(report):
    # the adapter every report went through before `record` read results itself
    return report.ok, list(report.witnesses[:1]) or None


FAILING = VerificationReport(
    "circuit-axioms", 3, (("elimination", (7, 11)), ("nested", (3, 7)))
)


@pytest.mark.parametrize("result, expected", [
    (FAILING, _old_report_entry(FAILING)),
    (VerificationReport("circuit-axioms", 3), (True, None)),
    (VerificationReport("weak-map", 5, ((1, 2),)), (False, [(1, 2)])),
    (True, (True, None)),
    (False, (False, None)),
    ((True, {"nearly_orderings": 2}), (True, {"nearly_orderings": 2})),
    ((False, [[1, 2]]), (False, [[1, 2]])),
    (ValueError("no such fixture"), (False, "error: no such fixture")),
])
def test_record_turns_every_result_shape_into_one_entry(monkeypatch, result, expected):
    # the injected mutant's check is one `record` call; feed it each shape
    def check():
        if isinstance(result, Exception):
            raise result
        return result

    monkeypatch.setattr(suite, "_mutant_check", check)
    report = run_suite(max_n=1, families=("counterexample",), inject_mutant=True)
    [entry] = [e for e in report["entries"] if e["params"] == {"matroid": "mutant-U(2,4)"}]
    assert (entry["ok"], entry["witness"]) == expected
    assert entry["check"] == "circuit-axioms"
    assert report["summary"]["failed"] == (0 if expected[0] else 1)
    if not expected[0]:
        assert report["summary"]["first_failure"] == {
            "check": "circuit-axioms",
            "params": {"matroid": "mutant-U(2,4)"},
            "witness": expected[1],
        }
