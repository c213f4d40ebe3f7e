import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cycmat import (
    CapExceeded,
    GroundSet,
    MatroidOracle,
    VerificationReport,
    bitset,
    oracle_from_circuits,
    psi,
    uniform,
    wheel,
    whirl,
)
from cycmat.constructions import free_spike, truncate
from cycmat.cyclic import STParams, natural_ordering
from cycmat.transversal import (
    BipartitePresentation,
    dual_transversal,
    interval_presentation,
    transversal_matroid,
)
from cycmat.weakmap import (
    ElementBijection,
    interval_rank_condition,
    is_quotient,
    is_weak_map,
    is_weak_map_by_independence,
    truncated_psi_certificate,
    weak_image_of_truncated_psi,
)


def test_bijection_validation():
    with pytest.raises(ValueError):
        ElementBijection((1, 1, 3))
    phi = ElementBijection((2, 3, 1))
    assert phi.inverse().mapping == (3, 1, 2)
    assert phi.apply(bitset.mask_of([1, 3])) == bitset.mask_of([2, 1])


def test_identity_self_weak_map():
    M = uniform(2, 4)
    assert is_weak_map(M, M).ok


def test_whirl_to_wheel_weak_map():
    # adding the rim circuit makes the wheel a weak-map image of the whirl
    report = is_weak_map(whirl(4), wheel(4))
    assert report.ok
    assert not is_weak_map(wheel(4), whirl(4)).ok


def test_rank_increase_blocks_weak_map():
    report = is_weak_map(uniform(1, 4), uniform(2, 4))
    assert not report.ok
    assert report.checked == 6 and len(report.witnesses) == 1  # the six pairs of U(1,4)
    assert report.witnesses[0].bit_count() == 2


def test_weak_map_routes_agree():
    pairs = [
        (uniform(1, 4), uniform(2, 4)),
        (uniform(2, 4), uniform(1, 4)),
        (whirl(4), wheel(4)),
        (psi(8, 3), wheel(4)),
        (free_spike(3)[0], uniform(3, 6)),
    ]
    for source, target in pairs:
        assert is_weak_map(source, target).ok == is_weak_map_by_independence(source, target).ok


def _first_pullback_failure(source, target, phi):
    """The mask loop the table route replaced: phi^{-1} of the lowest
    independent set of the target that pulls back dependent, or None."""
    inv = phi.inverse()
    for mask in range(1 << target.n):
        if target.indep(mask) and not source.indep(inv.apply(mask)):
            return inv.apply(mask)
    return None


@pytest.mark.parametrize("source, target", [
    (uniform(2, 5), uniform(3, 5)),
    (uniform(3, 5), uniform(2, 5)),
    (whirl(4), wheel(4)),
    (wheel(4), whirl(4)),
    (psi(8, 3), wheel(4)),
])
def test_weak_map_by_independence_witness_matches_the_mask_loop(source, target):
    for phi in (ElementBijection.identity(source.n),
                ElementBijection(tuple(range(2, source.n + 1)) + (1,)),
                ElementBijection(tuple(range(source.n, 0, -1)))):
        report = is_weak_map_by_independence(source, target, phi)
        expected = _first_pullback_failure(source, target, phi)
        assert report.ok == (expected is None)
        assert report.witnesses == (() if expected is None else (expected,))


def test_weak_map_by_independence_fills_no_memo():
    source, target = psi(12, 4), truncate(psi(12, 4), 1)
    assert is_weak_map_by_independence(target, source).ok is False
    assert is_weak_map_by_independence(source, target).ok
    assert source._memo == {} and target._memo == {}


def test_weak_map_by_independence_refuses_above_the_cap():
    asked = []

    def indep(mask):
        asked.append(mask)
        return mask.bit_count() <= 2

    n = bitset.LATTICE_CAP + 1
    M = MatroidOracle(GroundSet(n), indep)
    with pytest.raises(CapExceeded):
        is_weak_map_by_independence(M, M)
    assert asked == []


def test_weak_maps_compose():
    chain = [uniform(4, 8), wheel(4), truncate(wheel(4), 1)]
    first = is_weak_map(chain[0], chain[1])
    second = is_weak_map(chain[1], chain[2])
    assert first.ok and second.ok
    assert is_weak_map(chain[0], chain[2]).ok


def test_size_mismatch_rejected():
    with pytest.raises(ValueError):
        is_weak_map(uniform(1, 3), uniform(1, 4))


def test_quotient_truncation():
    for M in (uniform(2, 4), psi(8, 3), wheel(4), free_spike(4)[0]):
        assert is_quotient(M, truncate(M, 1)).ok


def rank_route_quotient(upper, lower):
    """Second route: quotient iff rank differences never grow, i.e.
    r_upper(B) - r_upper(A) >= r_lower(B) - r_lower(A) for all A inside B."""
    n = upper.n
    for b in range(1 << n):
        rb_u, rb_l = upper.rank(b), lower.rank(b)
        a = b
        while True:
            if rb_u - upper.rank(a) < rb_l - lower.rank(a):
                return False
            if a == 0:
                break
            a = (a - 1) & b
    return True


def test_quotient_routes_agree():
    pairs = [
        (uniform(2, 4), uniform(1, 4)),
        (uniform(1, 4), uniform(2, 4)),
        (psi(8, 3), truncate(psi(8, 3), 1)),
        (wheel(4), whirl(4)),
        (whirl(4), wheel(4)),
        (free_spike(3)[0], truncate(free_spike(3)[0], 1)),
    ]
    for upper, lower in pairs:
        assert is_quotient(upper, lower).ok == rank_route_quotient(upper, lower)


def reference_is_quotient(upper, lower):
    """The pairwise loop `is_quotient` replaced: the first circuit of `upper`,
    in canonical order, that is not a union of `lower` circuits, or None."""
    lower_circuits = lower.circuits().members
    for circuit in upper.circuits():
        covered = 0
        for c in lower_circuits:
            if bitset.is_subset(c, circuit):
                covered |= c
        if covered != circuit:
            return circuit
    return None


@st.composite
def transversal_truncations(draw, max_n: int = 8):
    """(a random transversal matroid, one of its truncations)."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    neighborhoods = draw(st.lists(
        st.integers(min_value=1, max_value=(1 << n) - 1), min_size=1, max_size=5))
    upper = transversal_matroid(BipartitePresentation(GroundSet(n), tuple(neighborhoods)))
    return upper, truncate(upper, draw(st.integers(min_value=0, max_value=upper.rank())))


@settings(max_examples=200, deadline=None)
@given(transversal_truncations())
def test_quotient_matches_the_pairwise_reference(pair):
    # a truncation is a quotient; the reverse direction fails unless it is trivial
    for upper, lower in (pair, pair[::-1]):
        expected = reference_is_quotient(upper, lower)
        report = is_quotient(upper, lower)
        assert report.ok == (expected is None)
        assert report.witnesses == (() if expected is None else (expected,))
        assert report.checked == len(upper.circuits())


def test_quotient_refuses_above_the_cap():
    # circuits listed by hand need no table, but the quotient pass builds one
    n = bitset.LATTICE_CAP + 1
    listed = oracle_from_circuits(GroundSet(n), [bitset.mask_of([1, 2])], validate=False)
    with pytest.raises(CapExceeded):
        is_quotient(listed, listed)


def test_quotient_examples():
    assert is_quotient(uniform(2, 4), uniform(1, 4)).ok
    assert is_quotient(uniform(2, 4), uniform(2, 4)).ok
    report = is_quotient(uniform(1, 4), uniform(2, 4))
    assert not report.ok and report.witnesses[0].bit_count() == 2


def test_interval_rank_condition_wheel():
    wheel4, dual = wheel(4), psi(8, 3)
    report = interval_rank_condition(wheel4, interval_presentation(8, 3), dual)
    assert report == VerificationReport("interval-rank", 16)
    assert is_weak_map(dual, wheel4).ok


def test_interval_rank_condition_self():
    pres = interval_presentation(8, 3)
    report = interval_rank_condition(psi(8, 3), pres, dual_transversal(pres.base))
    assert report.ok


def test_interval_rank_condition_free_matroid_fails():
    report = interval_rank_condition(uniform(8, 8), interval_presentation(8, 3), psi(8, 3))
    assert not report.ok
    assert report.checked == 16 and len(report.witnesses) == 1


def test_interval_rank_condition_above_the_cap_rests_on_the_lemma():
    pres = interval_presentation(22, 4)
    report = interval_rank_condition(truncate(psi(22, 4), 1), pres, psi(22, 4))
    assert report == VerificationReport("interval-rank", 121)


def test_interval_rank_condition_above_the_cap_names_a_violation():
    pres, dual, free = interval_presentation(22, 4), psi(22, 4), uniform(11, 22)
    report = interval_rank_condition(free, pres, dual)
    assert not report.ok
    (i, k), = report.witnesses
    union = pres.run_union(i, (i + k - 2) % pres.m + 1)
    assert free.rank(union) == 4 and dual.rank(union) == 3


@pytest.mark.parametrize("n", [8, 22])
def test_interval_rank_condition_asks_the_run_of_all_intervals(n):
    # U(1, n/2) on the odd elements plus the free matroid on the even ones:
    # only the union of all m intervals has larger rank here (n/2 + 1) than
    # in psi(n, 3) (n/2), so the run-length loop must reach k = m
    odd = [bitset.mask_of([i]) for i in range(1, n + 1, 2)]
    parallel = [a | b for j, a in enumerate(odd) for b in odd[j + 1:]]
    oracle = oracle_from_circuits(GroundSet(n), parallel)
    pres, dual = interval_presentation(n, 3), psi(n, 3)
    m = pres.m
    assert oracle.rank() == m + 1 and dual.rank() == m
    report = interval_rank_condition(oracle, pres, dual)
    assert report == VerificationReport("interval-rank", m * m, ((1, m),))


def test_interval_rank_condition_above_a_lowered_cap(monkeypatch):
    # the weak-map confirmation lists circuits, which the lowered cap refuses
    monkeypatch.setenv("CYCMAT_MAX_N", "6")
    report = interval_rank_condition(wheel(4), interval_presentation(8, 3), psi(8, 3))
    assert report == VerificationReport("interval-rank", 16)


def test_interval_rank_condition_rejects_a_dual_of_the_wrong_size():
    with pytest.raises(ValueError, match="dual"):
        interval_rank_condition(wheel(4), interval_presentation(8, 3), psi(10, 3))


def test_truncated_psi_certificates():
    for n, s, t in ((10, 3, 5), (12, 4, 4), (12, 4, 6)):
        cert = truncated_psi_certificate(truncate(psi(n, s), (t - s) // 2), s, t)
        assert cert.full, (n, s, t)


def test_truncated_psi_rejects_bad_parity():
    with pytest.raises(ValueError):
        truncated_psi_certificate(psi(10, 3), 3, 4)
    with pytest.raises(ValueError):
        truncated_psi_certificate(uniform(3, 9), 3, 5)


def test_truncated_psi_certificate_rejects_a_target_of_the_wrong_rank():
    # psi(10, 3) has rank 5; the (3, 5) target T^1(psi(10, 3)) has rank 4
    with pytest.raises(ValueError, match="the target needs n=10"):
        truncated_psi_certificate(psi(10, 3), 3, 5)


def test_pipeline_wheel():
    report = weak_image_of_truncated_psi(
        wheel(4), natural_ordering(8), STParams(3, 3), truncate(psi(8, 3), 0)
    )
    assert report.ok and report.note == "rotation=0"


def test_pipeline_spike():
    M, _ = free_spike(4)
    report = weak_image_of_truncated_psi(
        M, natural_ordering(8), STParams(4, 4), truncate(psi(8, 4), 0)
    )
    assert report.ok


def test_pipeline_truncation_self():
    T = truncate(psi(10, 3), 1)
    report = weak_image_of_truncated_psi(
        T, natural_ordering(10), STParams(3, 5), truncate(psi(10, 3), 1)
    )
    assert report.ok


def test_pipeline_on_every_full_fixture(psi_oracles):
    # every fully structured fixture with t >= s is an image of its canonical
    # representative (itself, for the dual interval family)
    for (n, s), oracle in psi_oracles.items():
        report = weak_image_of_truncated_psi(
            oracle, natural_ordering(n), STParams(s, s), truncate(psi(n, s), 0)
        )
        assert report.ok, (n, s)


def test_pipeline_phase_alignment():
    # shift the wheel ordering so circuits sit at even starts; the pipeline
    # must rotate once and still succeed
    shifted = natural_ordering(8).rotated(1)
    report = weak_image_of_truncated_psi(wheel(4), shifted, STParams(3, 3), truncate(psi(8, 3), 0))
    assert report.ok and report.note == "rotation=1"


def test_pipeline_rejects_boundary():
    with pytest.raises(ValueError):
        weak_image_of_truncated_psi(
            uniform(2, 5), natural_ordering(5), STParams(3, 4), truncate(psi(6, 3), 0)
        )


def test_pipeline_rejects_a_target_of_the_wrong_size_or_rank():
    st = STParams(3, 5)
    T = truncate(psi(10, 3), 1)
    for target in (truncate(psi(12, 3), 1), psi(10, 3)):
        with pytest.raises(ValueError, match="the target needs n=10"):
            weak_image_of_truncated_psi(T, natural_ordering(10), st, target)
