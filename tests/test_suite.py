"""The suite report and what a run builds.

The report hashes pin the canonical report byte for byte on small grids,
including the checks whose matroid lies outside the run's grid (for example
`whirl(3)` at max-n 4, `spike(4)` with the spike family off).  The
construction count pins that a run builds each matroid once.
"""

import hashlib
from collections import Counter

import pytest

from cycmat import bitset, suite
from cycmat.core import MatroidOracle
from cycmat.documents import canonical_json
from cycmat.suite import run_suite
from cycmat.transversal import MatchingResult, interval_presentation, max_matching


@pytest.mark.parametrize("max_n, families, prefix, checks", [
    (6, None, "5c036946e14033d4", 75),
    (8, ("psi",), "0a9efa37e07c92a7", 50),
    (10, ("psi",), "7558ef2f7c4b0470", 73),
    (10, ("wheel", "whirl", "uniform"), "2869d65849754c3f", 75),
    (12, ("counterexample",), "12e6dd36793516de", 12),
    (4, ("whirl", "wheel", "uniform", "random"), "b6cd2167bd012835", 36),
    (14, None, "8402595bd15c7503", 350),
])
def test_report_hash(max_n, families, prefix, checks):
    report = run_suite(max_n, families=families)
    digest = hashlib.sha256(canonical_json(report).encode()).hexdigest()
    assert digest.startswith(prefix), digest[:16]
    assert report["summary"] == {
        "total": checks, "passed": checks, "failed": 0, "first_failure": None,
    }


def test_suite_builds_each_matroid_once(monkeypatch):
    built = Counter()
    init = MatroidOracle.__init__

    def counting(self, ground, indep, name=""):
        built[name] += 1
        init(self, ground, indep, name)

    monkeypatch.setattr(MatroidOracle, "__init__", counting)
    run_suite(max_n=12)
    assert sum(built.values()) <= 200, built.most_common(5)
    for label in ("U(2,4)", "whirl(3)", "spike(4)"):
        assert built[label] == 1, (label, built[label])
    assert built["dual-transversal(m=6)"] <= 3


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
