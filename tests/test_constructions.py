import itertools
import random

import pytest

from cycmat import bitset, certify, natural_ordering, psi
from cycmat.constructions import (
    PairPartition,
    free_spike,
    rim_mask,
    truncate,
    truncation_circuits,
    uniform,
    wheel,
    whirl,
)
from cycmat.core import GroundSet, MatroidOracle, validate_circuit_axioms
from cycmat.cyclic import STParams


def test_uniform_validation():
    with pytest.raises(ValueError):
        uniform(5, 4)
    assert uniform(0, 3).rank() == 0


def test_uniform_boundary_is_fully_structured():
    M = uniform(2, 5)
    cert = certify(M, natural_ordering(5), STParams(3, 4))
    assert cert.full


def test_wheel_rank_and_size():
    for r in (3, 4, 5):
        M = wheel(r)
        assert M.n == 2 * r
        assert M.rank() == r


def test_wheel_triangles_and_rim():
    M = wheel(4)
    assert M.is_circuit(bitset.mask_of([1, 2, 3]))  # spoke, rim, spoke
    assert M.is_circuit(rim_mask(4))


def test_wheel_alternating_ordering_structured():
    for r in (4, 5):
        cert = certify(wheel(r), natural_ordering(2 * r), STParams(3, 3))
        assert cert.full
        assert cert.circuit_phase == 1


def test_whirl_relaxes_rim():
    for r in (3, 4):
        rim = rim_mask(r)
        assert wheel(r).is_circuit(rim)
        W = whirl(r)
        assert W.indep(rim)
        for i in range(r):
            assert W.is_circuit(rim | 1 << (2 * i))


def test_whirl_matches_dual_interval_family():
    # two constructions, one matroid: rim relaxation vs the matching dual
    for r in range(3, 8):
        W = whirl(r)
        P = psi(2 * r, 3)
        assert set(W.circuits().members) == set(P.circuits().members)


def test_whirl_lists_the_rim_relaxation_of_the_graphic_wheel():
    # the listed circuits stay tied to the forest predicate of `wheel`
    for r in range(2, 8):
        rim = rim_mask(r)
        relaxed = {c for c in wheel(r).circuits() if c != rim}
        relaxed |= {rim | 1 << (2 * i) for i in range(r)}
        assert set(whirl(r).circuits().members) == relaxed, r


def test_whirl_axioms():
    # r = 11..16 (n = 22..32) sit above the lattice cap, so their r^2 listed
    # circuits take the pair walk
    for r in range(2, 17):
        W = whirl(r)
        assert validate_circuit_axioms(W.circuits(), W.n).ok


def test_pair_partition():
    pairs = PairPartition.consecutive(3)
    assert pairs.count_inside(bitset.mask_of([1, 2, 3, 4])) == 2
    assert pairs.count_inside(bitset.mask_of([1, 3, 5])) == 0


def test_spike_pair_unions_are_circuits_and_cocircuits():
    # the proof `free_spike` runs at build time, on unproved builds
    for r in range(3, 11):
        M, pairs = free_spike(r, validate=False)
        for a, b in itertools.combinations(pairs.pairs, 2):
            assert M.is_circuit(a | b), (r, a, b)
            assert M.is_cocircuit(a | b), (r, a, b)


def test_spike_rank_examples():
    M, _ = free_spike(4)
    assert M.rank(bitset.mask_of([1, 2, 3])) == 3  # one pair plus a leg
    assert M.indep(bitset.mask_of([1, 2, 3]))
    assert not M.indep(bitset.mask_of([1, 2, 3, 4]))
    assert M.rank() == 4


def test_spike_interleaved_ordering():
    M, _ = free_spike(4)
    cert = certify(M, natural_ordering(8), STParams(4, 4))
    assert cert.nearly
    assert cert.full  # pairs-consecutive ordering has circuits at odd starts


def test_spike_floor():
    with pytest.raises(ValueError):
        free_spike(2)


def test_truncate_uniform():
    T = truncate(uniform(2, 4), 1)
    expect = uniform(1, 4)
    for mask in range(1 << 4):
        assert T.indep(mask) == expect.indep(mask)


def test_truncate_identity_and_bounds():
    M = uniform(2, 4)
    assert truncate(M, 0) is M
    with pytest.raises(ValueError):
        truncate(M, 3)
    assert truncate(M, 2).rank() == 0


def test_truncate_drops_rank_by_steps():
    M = psi(10, 3)
    for i in range(0, 4):
        assert truncate(M, i).rank() == 5 - i


def test_truncated_psi_is_structured():
    T = truncate(psi(10, 3), 1)
    cert = certify(T, natural_ordering(10), STParams(3, 5))
    assert cert.full


def test_truncation_circuits_cross_check():
    for M in (uniform(2, 4), psi(8, 3), wheel(4)):
        T = truncate(M, 1)
        assert set(T.circuits().members) == set(truncation_circuits(M, 1).members)


def test_truncated_rank_is_the_greedy_rank_of_any_predicate():
    # min(r - i, parent rank) equals the greedy rank of the truncated
    # predicate whether or not the parent is a matroid
    rng = random.Random(7)
    for _ in range(20):
        answers = [rng.random() < 0.6 for _ in range(1 << 6)]
        M = MatroidOracle(GroundSet(6), answers.__getitem__)
        for i in range(1, M.rank() + 1):
            T = truncate(M, i)
            greedy = MatroidOracle(T.ground, T._indep)  # the same predicate, no supplied rank
            assert all(T.rank(mask) == greedy.rank(mask) for mask in range(1 << 6)), (answers, i)


def test_swirl_small_circuits_are_consecutive_pair_unions():
    # the rank-r free swirl: 4-circuits are exactly adjacent pair unions
    for r in (4, 5, 6, 7):
        n = 2 * r
        M = psi(n, 4)
        pairs = PairPartition.consecutive(r).pairs
        expected = {pairs[i] | pairs[(i + 1) % r] for i in range(r)}
        got = {c for c in M.circuits() if c.bit_count() == 4}
        assert got == expected
