"""Every guard of the library that no other test reaches raises its own
error with its own message.  Three of them only a planted value reaches: a
certificate stored under its ordering's key through `oracle.derived`, where
every check that certifies reads it, or a weak-map test that fails."""

import pytest

from cycmat import VerificationReport, bitset, documents, psi, suite, weakmap
from cycmat.constructions import truncation_circuits
from cycmat.core import GroundSet, oracle_from_circuits
from cycmat.cyclic import (
    FULL,
    NEARLY,
    OrderingCertificate,
    STParams,
    certify,
    find_orderings,
    full_from_odd_circuits,
    natural_ordering,
)
from cycmat.transversal import BipartitePresentation, interval_presentation, max_matching
from cycmat.weakmap import (
    ElementBijection,
    interval_rank_condition,
    is_quotient,
    is_weak_map,
    is_weak_map_by_independence,
    weak_image_of_truncated_psi,
)

ST33, ST44 = STParams(3, 3), STParams(4, 4)


def _planted(oracle, params: STParams, kind: str):
    """`oracle` with a `kind` certificate of its natural ordering planted:
    no window is a circuit or a cocircuit, and no circuit phase is set."""
    n = oracle.n
    cert = OrderingCertificate(kind, n, params.s, params.t, (), (), None, None)
    oracle.derived((natural_ordering(n).order, params), lambda: cert)
    return oracle


def _unconfirmed_weak_map(monkeypatch):
    failing = VerificationReport("weak-map", 1, (1,))
    monkeypatch.setattr(weakmap, "is_weak_map", lambda source, target: failing)
    return interval_rank_condition(psi(8, 3), interval_presentation(8, 3), psi(8, 3))


GUARDS = [
    pytest.param(
        lambda mp: oracle_from_circuits(GroundSet(4), [0b0011, 0b0110]), ValueError,
        "circuit family fails the axioms: ('elimination', ((1, 2), (2, 3), 2))",
        id="oracle_from_circuits-axioms"),
    pytest.param(
        lambda mp: certify(psi(8, 3), natural_ordering(10), ST33), ValueError,
        "ordering length must match the ground set", id="certify-length"),
    pytest.param(
        lambda mp: find_orderings(psi(8, 3), ST33, mode="both"), ValueError,
        "mode must be 'nearly' or 'full'", id="find_orderings-mode"),
    pytest.param(
        lambda mp: GroundSet(4).mask([5]), ValueError, "element index out of range",
        id="GroundSet.mask-range"),
    pytest.param(
        lambda mp: bitset.mask_of([0]), ValueError, "element index must be >= 1, got 0",
        id="mask_of-zero"),
    pytest.param(
        lambda mp: truncation_circuits(psi(8, 3), 0), ValueError,
        "cross-check applies to 1 <= i <= rank", id="truncation_circuits-i"),
    pytest.param(
        lambda mp: is_weak_map(psi(8, 3), psi(8, 3), ElementBijection((1, 2, 3))), ValueError,
        "bijection size must match the ground sets", id="is_weak_map-bijection"),
    pytest.param(
        lambda mp: is_weak_map_by_independence(psi(8, 3), psi(8, 3), ElementBijection((1, 2, 3))),
        ValueError, "bijection size must match the ground sets",
        id="is_weak_map_by_independence-bijection"),
    pytest.param(
        lambda mp: is_weak_map_by_independence(psi(8, 3), psi(10, 3)), ValueError,
        "weak maps need ground sets of equal size", id="is_weak_map_by_independence-sizes"),
    pytest.param(
        lambda mp: is_quotient(psi(8, 3), psi(10, 3)), ValueError,
        "quotients need a common ground set", id="is_quotient-sizes"),
    pytest.param(
        lambda mp: interval_rank_condition(psi(10, 3), interval_presentation(8, 3), psi(8, 3)),
        ValueError, "the compared matroid must share the ground set",
        id="interval_rank_condition-sizes"),
    pytest.param(
        lambda mp: BipartitePresentation(GroundSet(3), (0b1000,)), ValueError,
        "neighbourhood reaches outside the ground set", id="BipartitePresentation-range"),
    pytest.param(
        lambda mp: max_matching(interval_presentation(8, 3).base, 1 << 8), ValueError,
        "avoid set lies outside the ground set", id="max_matching-avoid"),
    pytest.param(
        lambda mp: suite.run_suite(4, families=("nope",)), ValueError,
        "unknown fixture families: ['nope']", id="run_suite-family"),
    pytest.param(
        lambda mp: documents.doc_construction("nope", 3), ValueError,
        "unknown construction kind 'nope'", id="doc_construction-kind"),
    pytest.param(
        lambda mp: documents.to_oracle([1]), ValueError, "document must be a JSON object",
        id="to_oracle-not-an-object"),
    pytest.param(
        lambda mp: documents.to_oracle({**documents.doc_construction("wheel", 3), "extra": 1}),
        ValueError, "document carries unknown top-level fields", id="to_oracle-extra-field"),
    pytest.param(
        lambda mp: full_from_odd_circuits(_planted(psi(8, 3), ST44, NEARLY), natural_ordering(8), ST44),
        ValueError, "odd window starts [1, 3, 5, 7] are not circuits",
        id="full_from_odd_circuits-planted"),
    pytest.param(
        lambda mp: weak_image_of_truncated_psi(
            _planted(psi(8, 3), ST33, FULL), natural_ordering(8), ST33, psi(8, 3)),
        ValueError, "circuit windows have no single parity; cannot align",
        id="weak_image_of_truncated_psi-planted"),
    pytest.param(
        _unconfirmed_weak_map, RuntimeError,
        "interval rank condition held but the weak map failed; "
        "this cannot happen for a loop-free interval presentation",
        id="interval_rank_condition-unconfirmed"),
]


@pytest.mark.parametrize("call, error, message", GUARDS)
def test_guard_raises_its_message(monkeypatch, call, error, message):
    with pytest.raises(error) as info:
        call(monkeypatch)
    assert str(info.value) == message
