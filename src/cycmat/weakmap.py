"""Weak-map and quotient relations between matroids on equal-size ground sets.

A bijection is a weak map when every circuit image contains a circuit of the
target (equivalently, independent sets pull back independent).  Quotients are
recognised by the union-of-circuits criterion, in one subset-OR pass over
the lower matroid's circuits.  The canonical-image pipeline shows a fully
structured matroid is a weak-map image of the truncated dual interval
matroid on the same parameters, after aligning the circuit phase.  Every
check returns a `core.VerificationReport`; the witnesses of the weak-map and
quotient checks are circuit masks.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import bitset, cyclic
from .core import MatroidOracle, VerificationReport
from .cyclic import CyclicOrdering, STParams, certify, check_rank_formula, natural_ordering
from .transversal import IntervalPresentation


@dataclass(frozen=True)
class ElementBijection:
    """Bijection between two ground sets of equal size, as 1-based targets."""

    mapping: tuple[int, ...]

    def __post_init__(self) -> None:
        n = len(self.mapping)
        if sorted(self.mapping) != list(range(1, n + 1)):
            raise ValueError("mapping must be a bijection onto 1..n")

    @classmethod
    def identity(cls, n: int) -> "ElementBijection":
        return cls(tuple(range(1, n + 1)))

    def inverse(self) -> "ElementBijection":
        inv = [0] * len(self.mapping)
        for i, j in enumerate(self.mapping, start=1):
            inv[j - 1] = i
        return ElementBijection(tuple(inv))

    def apply(self, mask: int) -> int:
        return bitset.permute(mask, self.mapping)


def is_weak_map(
    source: MatroidOracle, target: MatroidOracle, phi: ElementBijection | None = None
) -> VerificationReport:
    """Does every circuit of `source` map onto a dependent set of `target`?
    The witness is the first source circuit, in canonical order, that does not."""
    if source.n != target.n:
        raise ValueError("weak maps need ground sets of equal size")
    phi = phi or ElementBijection.identity(source.n)
    if len(phi.mapping) != source.n:
        raise ValueError("bijection size must match the ground sets")
    circuits = source.circuits()
    for circuit in circuits:
        if target.indep(phi.apply(circuit)):
            return VerificationReport("weak-map", len(circuits), (circuit,))
    return VerificationReport("weak-map", len(circuits))


def is_weak_map_by_independence(
    source: MatroidOracle, target: MatroidOracle, phi: ElementBijection | None = None
) -> VerificationReport:
    """Equivalent test through independent sets: phi^{-1} of every independent
    set of the target is independent in the source.  Exhaustive over both
    oracles' independence tables, so it refuses ground sets above the
    `bitset.lattice_cap` (`CapExceeded`); kept as the second route for
    cross-checks.  The witness is phi^{-1} of the lowest failing mask."""
    if source.n != target.n:
        raise ValueError("weak maps need ground sets of equal size")
    bitset.require_cap("the independence weak-map test", target.n, bitset.lattice_cap())
    phi = phi or ElementBijection.identity(source.n)
    if len(phi.mapping) != source.n:
        raise ValueError("bijection size must match the ground sets")
    image = bitset.permute_masks(np.arange(1 << target.n), phi.inverse().mapping)  # phi^{-1}(X) at X
    failing = np.flatnonzero(target.independence_table() & ~source.independence_table()[image])
    witnesses = (int(image[failing[0]]),) if len(failing) else ()
    return VerificationReport("weak-map", len(image), witnesses)


def is_quotient(upper: MatroidOracle, lower: MatroidOracle) -> VerificationReport:
    """`lower` is a quotient of `upper` iff every circuit of `upper` is a
    union of circuits of `lower`.

    One lattice pass, not a walk over pairs: with U[X] the union of the
    `lower` circuits inside X (`bitset.member_unions`), the test is
    U[C] == C for every circuit C of `upper`.  The witness is the first C,
    in canonical order, that fails.  Above the `bitset.lattice_cap` it
    raises `CapExceeded`.
    """
    if upper.n != lower.n:
        raise ValueError("quotients need a common ground set")
    bitset.require_cap("the quotient test", upper.n, bitset.lattice_cap())
    circuits = upper.circuits().masks
    union = bitset.member_unions(upper.n, lower.circuits().masks)
    failing = np.flatnonzero(union[circuits] != circuits)
    witnesses = (int(circuits[failing[0]]),) if len(failing) else ()
    return VerificationReport("quotient", len(circuits), witnesses)


def interval_rank_condition(
    oracle: MatroidOracle, pres: IntervalPresentation, dual: MatroidOracle
) -> VerificationReport:
    """Compare ranks of every union of consecutive presentation intervals in
    `oracle` against `dual`, the dual of the matroid `pres` presents
    (psi(n, s), or `dual_transversal(pres.base)`).  The intervals cover
    every element, so the presented matroid is loop-free; if no union has
    larger rank in `oracle`, the identity map from the dual is a weak map
    onto `oracle`.

    The report checks the m * m unions, m = `pres.m`; its witness is the
    first (start i, run length k) whose union has larger rank in `oracle`.
    When the condition holds, up to `bitset.lattice_cap` the weak map is
    confirmed by `is_weak_map(dual, oracle)`, and a failed confirmation
    raises RuntimeError; above the cap the weak map rests on the interval
    lemma alone.
    """
    if oracle.n != pres.n:
        raise ValueError("the compared matroid must share the ground set")
    if dual.n != pres.n:
        raise ValueError("the dual must share the presentation's ground set")
    m = pres.m
    for i in range(1, m + 1):
        for k in range(1, m + 1):
            union = pres.run_union(i, (i + k - 2) % m + 1)
            if oracle.rank(union) > dual.rank(union):
                return VerificationReport("interval-rank", m * m, ((i, k),))
    if pres.n <= bitset.lattice_cap() and not is_weak_map(dual, oracle).ok:
        raise RuntimeError(
            "interval rank condition held but the weak map failed; "
            "this cannot happen for a loop-free interval presentation"
        )
    return VerificationReport("interval-rank", m * m)


def _require_target(target: MatroidOracle, n: int, params: STParams) -> None:
    """`target`, the caller's T^((t-s)/2)(psi(n, s)), needs n elements and
    the `RANK_FORMULA` rank (`cyclic.check_rank_formula`)."""
    if target.n != n or not check_rank_formula(target, params):
        raise ValueError(f"the target needs n={n} and {cyclic.RANK_FORMULA.formula}, "
                         f"got n={target.n}, rank={target.rank()}")


def truncated_psi_certificate(target: MatroidOracle, s: int, t: int):
    """Certificate of the natural ordering of `target`, the caller's
    T^((t-s)/2)(psi(n, s)), for parameters (s, t) that meet `cyclic.TRUNCATED_PSI`;
    the result must be full."""
    cyclic.require(cyclic.TRUNCATED_PSI, target.n, s, t, "T^((t-s)/2)(psi(n, s))")
    params = STParams(s, t)
    _require_target(target, target.n, params)
    return certify(target, natural_ordering(target.n), params)


def weak_image_of_truncated_psi(
    oracle: MatroidOracle, ordering: CyclicOrdering, params: STParams, target: MatroidOracle
) -> VerificationReport:
    """A fully (s, t)-structured matroid on n elements is a weak-map image
    of `target`, the ((t-s)/2)-th truncation of psi(n, s), when (n, s, t)
    meets `cyclic.CANONICAL_IMAGE` (C2); dualise first when t < s.

    The caller passes the target in, so a run that already holds it does not
    build it again; its size and rank (n + s - t)/2 are checked.  The
    ordering is rotated by one step when its circuit windows start at even
    positions, so that the image's odd-start circuit phase lines up; the
    applied rotation is recorded in the report note.
    """
    cert = cyclic.require_certificate(
        oracle, ordering, params, "the canonical image", row=cyclic.CANONICAL_IMAGE)
    _require_target(target, cert.n, params)
    if cert.circuit_phase is None:
        raise ValueError("circuit windows have no single parity; cannot align")
    rotation = 0 if cert.circuit_phase == 1 else 1
    aligned = ordering.rotated(rotation)
    phi = ElementBijection(aligned.order)
    return replace(is_weak_map(target, oracle, phi), note=f"rotation={rotation}")
