"""Transversal matroids from bipartite presentations, and their duals.

A presentation lists neighbourhoods N(1..m) over the ground set.  A subset X
is independent in the presented transversal matroid iff X matches into [m];
it is independent in the dual iff [m] matches completely into E - X.  The
interval-presentation family built here has N(i) covering s consecutive
elements starting at e_{2i-1}; its dual (rank n/2, self-dual) is the central
fixture of the whole library.

Up to the `bitset.lattice_cap` both oracles look X up in a Hall table of
the presentation, built once over all 2^n masks from Hall's condition
without any matching, and hand that table over as their independence
table.  Above it each independence or rank query runs one maximum matching
(Kuhn's augmenting paths) of [m] into a set Y, whose size is the rank r(Y)
of the presented matroid; the dual's rank follows from duality,
r*(X) = |X| - r(E) + r(E - X).
`max_matching` (augmenting paths, with a Hall witness) and
`brute_force_matching_size` (Ore's defect formula) cross-check each other.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property, lru_cache

import numpy as np

from . import bitset
from .core import GroundSet, MatroidOracle


@dataclass(frozen=True)
class BipartitePresentation:
    """Neighbourhoods N(1..m) as masks over the ground set."""

    ground: GroundSet
    neighborhoods: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.neighborhoods:
            raise ValueError("a presentation needs at least one neighbourhood")
        for nbr in self.neighborhoods:
            if nbr & ~self.ground.full:
                raise ValueError("neighbourhood reaches outside the ground set")

    @property
    def m(self) -> int:
        return len(self.neighborhoods)

    def neighborhood(self, i: int) -> int:
        return self.neighborhoods[i - 1]

    def neighborhood_union(self, lefts) -> int:
        out = 0
        for i in lefts:
            out |= self.neighborhoods[i - 1]
        return out

    def covered(self) -> int:
        return self.neighborhood_union(range(1, self.m + 1))

    def loop_free(self) -> bool:
        return self.covered() == self.ground.full

    @cached_property
    def unions(self) -> tuple[int, ...]:
        """N(J) for every J of left vertices, indexed by J's mask (bit i - 1 for i).

        One OR per entry, built once; it has 2^m entries, so only routes that
        are already exhaustive over left sets read it.
        """
        out = [0] * (1 << self.m)
        for j in range(1, len(out)):
            low = j & -j
            out[j] = out[j ^ low] | self.neighborhoods[low.bit_length() - 1]
        return tuple(out)

    @cached_property
    def independent(self) -> np.ndarray:
        """Read-only ``bool`` array over all 2^n element masks: does X match into [m]?

        Hall's condition on the element side: X matches iff no Y <= X has
        |L(Y)| < |Y|, where L(Y) = {i : N(i) meets Y} has m - S[E - Y]
        members and S[X] = #{i : N(i) <= X}.  Two O(n 2^n) transforms and no
        matching; callers build it only for n up to the `bitset.lattice_cap`.
        """
        n = self.ground.n
        inside = bitset.subset_sum(np.bincount(self.neighborhoods, minlength=1 << n))
        # reversing a 2^n array maps mask Y to its complement E - Y
        deficient = self.m - inside[::-1] < bitset.set_sizes(n)
        return _read_only(~bitset.subset_max(deficient))

    @cached_property
    def dual_independent(self) -> np.ndarray:
        """Read-only ``bool`` array over all 2^n element masks: does [m] match
        completely into E - X, that is, has E - X rank m in `independent`?"""
        return _read_only((bitset.lattice_rank(self.independent) == self.m)[::-1])


def _read_only(table: np.ndarray) -> np.ndarray:
    table.flags.writeable = False
    return table


@dataclass(frozen=True)
class MatchingResult:
    """Maximum matching of [m] into E - avoid, with a Hall certificate.

    `pairs` maps left vertices to elements (both 1-based).  When the matching
    is incomplete, `witness` is a set J of left vertices with
    |N(J) - avoid| < |J|, extracted from the final alternating-reachability
    sets; its deficiency |J| - |N(J) - avoid| equals m - size, the maximum.
    """

    size: int
    pairs: tuple[tuple[int, int], ...]
    witness: tuple[int, ...] | None

    @property
    def complete(self) -> bool:
        return self.witness is None


def _augment(i: int, adjacency: list[int], match_of_right: dict[int, int], seen: int) -> tuple[bool, int]:
    for bit in bitset.singletons(adjacency[i] & ~seen):
        seen |= bit
        holder = match_of_right.get(bit)
        if holder is None:
            match_of_right[bit] = i
            return True, seen
        ok, seen = _augment(holder, adjacency, match_of_right, seen)
        if ok:
            match_of_right[bit] = i
            return True, seen
    return False, seen


def _matching(adjacency: list[int]) -> dict[int, int]:
    """Kuhn's augmenting paths; left vertices processed in ascending order.

    Once every right vertex is matched no path can augment, so the rest of
    the left vertices are not searched; the matching is the same.
    """
    match_of_right: dict[int, int] = {}
    rights = 0
    for adj in adjacency:
        rights |= adj
    room = rights.bit_count()
    for i in range(len(adjacency)):
        if len(match_of_right) == room:
            break
        _augment(i, adjacency, match_of_right, 0)
    return match_of_right


def max_matching(pres: BipartitePresentation, avoid: int = 0) -> MatchingResult:
    if avoid & ~pres.ground.full:
        raise ValueError("avoid set lies outside the ground set")
    adjacency = [nbr & ~avoid for nbr in pres.neighborhoods]
    match_of_right = _matching(adjacency)
    size = len(match_of_right)
    pairs = tuple(
        sorted((left + 1, bit.bit_length()) for bit, left in match_of_right.items())
    )
    if size == pres.m:
        return MatchingResult(size, pairs, None)
    matched_left = set(match_of_right.values())
    reach_left = {i for i in range(pres.m) if i not in matched_left}
    reach_right = 0
    frontier = list(reach_left)
    while frontier:
        rights = 0
        for i in frontier:
            rights |= adjacency[i]
        rights &= ~reach_right
        reach_right |= rights
        frontier = []
        for bit in bitset.singletons(rights):
            j = match_of_right.get(bit)
            if j is not None and j not in reach_left:
                reach_left.add(j)
                frontier.append(j)
    witness = tuple(sorted(i + 1 for i in reach_left))
    return MatchingResult(size, pairs, witness)


def brute_force_matching_size(pres: BipartitePresentation, avoid: int = 0) -> int:
    """Ore's defect form of Hall's theorem: m - max over J of |J| - |N(J) - avoid|.

    Exhaustive over left sets and free of augmenting paths; the independent
    cross-check for `max_matching`.  J = {} bounds the maximum below by 0.
    """
    return pres.m - max(
        j.bit_count() - (union & ~avoid).bit_count() for j, union in enumerate(pres.unions)
    )


def _matching_size(pres: BipartitePresentation):
    """Size of a maximum matching of [m] into Y, as a function of Y: the rank
    of Y in the presented transversal matroid.  Kuhn's augmenting paths."""
    neighborhoods = pres.neighborhoods

    def size(mask: int) -> int:
        return len(_matching([nbr & mask for nbr in neighborhoods]))

    return size


def _oracle(pres: BipartitePresentation, dual: bool, name: str) -> MatroidOracle:
    """The presented matroid or its dual.  Up to the `bitset.lattice_cap`
    independence is a lookup in the presentation's Hall table (built on
    first use), which the oracle also takes as its independence table.
    Above it, independence and rank each take one maximum matching: r(X) is
    its size on X, and the dual's rank is |X| - m + r(E - X) once [m]
    matches into E (0 otherwise, where no set is independent)."""
    if pres.ground.n > bitset.lattice_cap():
        size, full, m = _matching_size(pres), pres.ground.full, pres.m
        if not dual:
            return MatroidOracle(
                pres.ground, lambda mask: size(mask) == mask.bit_count(), name, rank=size
            )
        complete = cache(lambda: size(full) == m)
        return MatroidOracle(
            pres.ground, lambda mask: size(full & ~mask) == m, name,
            rank=lambda mask: mask.bit_count() - m + size(full & ~mask) if complete() else 0,
        )
    if dual:
        return MatroidOracle(
            pres.ground, lambda mask: pres.dual_independent[mask], name,
            table=lambda: pres.dual_independent,
        )
    return MatroidOracle(
        pres.ground, lambda mask: pres.independent[mask], name, table=lambda: pres.independent
    )


def transversal_matroid(pres: BipartitePresentation) -> MatroidOracle:
    """X independent iff X has a complete matching into [m]."""
    return _oracle(pres, False, f"transversal(m={pres.m})")


def dual_transversal(pres: BipartitePresentation) -> MatroidOracle:
    """X independent iff [m] matches completely into E - X."""
    return _oracle(pres, True, f"dual-transversal(m={pres.m})")


@dataclass(frozen=True)
class MultiPathPresentation:
    """Presentation whose neighbourhoods are cyclic intervals sigma(x_i, y_i).

    The interval endpoints must be monotone around the cycle and the
    intervals must form an antichain; both are checked at construction.
    """

    base: BipartitePresentation
    xs: tuple[int, ...]
    ys: tuple[int, ...]

    def __post_init__(self) -> None:
        n = self.base.ground.n
        m = self.base.m
        if len(self.xs) != m or len(self.ys) != m:
            raise ValueError("endpoint lists must have one entry per neighbourhood")
        if len(set(self.xs)) != m or len(set(self.ys)) != m:
            raise ValueError("interval endpoints must be distinct")
        for i in range(m):
            expected = bitset.cyclic_interval(n, self.xs[i], self.ys[i])
            if expected != self.base.neighborhoods[i]:
                raise ValueError(f"neighbourhood {i + 1} is not the interval sigma(x,y)")
        # cyclic monotonicity is vacuous for fewer than three intervals
        for i in range(m if m > 2 else 0):
            prev_x, next_x = self.xs[(i - 1) % m], self.xs[(i + 1) % m]
            prev_y, next_y = self.ys[(i - 1) % m], self.ys[(i + 1) % m]
            if not bitset.cyclic_interval(n, prev_x, next_x) >> (self.xs[i] - 1) & 1:
                raise ValueError("start points are not cyclically monotone")
            if not bitset.cyclic_interval(n, prev_y, next_y) >> (self.ys[i] - 1) & 1:
                raise ValueError("end points are not cyclically monotone")
        for i in range(m):
            for j in range(m):
                if i != j and bitset.is_subset(
                    self.base.neighborhoods[i], self.base.neighborhoods[j]
                ):
                    raise ValueError("intervals must form an antichain")

    @property
    def m(self) -> int:
        return self.base.m

    @property
    def n(self) -> int:
        return self.base.ground.n

    def run_union(self, i: int, j: int) -> int:
        """Union of neighbourhoods over the cyclic run [i, j] of left vertices."""
        run = bitset.cyclic_interval(self.m, i, j)
        return self.base.neighborhood_union(bitset.iter_indices(run))

    def run_length(self, i: int, j: int) -> int:
        return (j - i) % self.m + 1


@lru_cache(maxsize=None)
def interval_presentation(n: int, s: int) -> MultiPathPresentation:
    """The presentation with N(i) = {e_{2i-1}, ..., e_{2i+s-2}} for i in [n/2].

    Requires n even and n >= 2s - 2; below that floor the intervals wrap onto
    themselves and the construction is rejected rather than guessed at.
    """
    if n % 2:
        raise ValueError(f"ground set size must be even, got n={n}")
    if s < 2:
        raise ValueError(f"interval length must be at least 2, got s={s}")
    if n < 2 * s - 2:
        raise ValueError(f"need n >= 2s - 2 to avoid wrap-around degeneracy, got n={n}, s={s}")
    ground = GroundSet(n)
    m = n // 2
    xs = tuple(2 * i - 1 for i in range(1, m + 1))
    ys = tuple((2 * i + s - 3) % n + 1 for i in range(1, m + 1))
    neighborhoods = tuple(
        bitset.cyclic_interval(n, xs[i], ys[i]) for i in range(m)
    )
    base = BipartitePresentation(ground, neighborhoods)
    return MultiPathPresentation(base, xs, ys)


def psi(n: int, s: int) -> MatroidOracle:
    """Dual of the interval-presented transversal matroid; rank n/2."""
    return _oracle(interval_presentation(n, s).base, True, f"psi({n},{s})")


@cache
def _basis_windows(n: int, s: int) -> tuple[tuple[int, int], ...]:
    """(window, bound) pairs of the interval-count basis test for psi(n, s):
    each window of s + 2k consecutive elements starting at an odd position,
    for 0 <= k <= n/2 - s, with its bound s + k.  X is a basis iff
    |X| = n/2 and X has fewer than `bound` elements in every `window`.
    Independent of the matching oracle."""
    interval_presentation(n, s)  # validate parameters
    return tuple(
        (bitset.cyclic_interval(n, i, i + s - 1 + 2 * k), s + k)
        for i in range(1, n + 1, 2)
        for k in range(0, n // 2 - s + 1)
    )


def psi_basis_test(n: int, s: int, mask: int) -> bool:
    """Is `mask` a basis of psi(n, s), by the interval-count rule of `_basis_windows`?"""
    windows = _basis_windows(n, s)
    return mask.bit_count() == n // 2 and all(
        (mask & window).bit_count() < bound for window, bound in windows
    )


def psi_basis_table(n: int, s: int) -> np.ndarray:
    """``bool`` array over all 2^n masks: `psi_basis_test` on each, one numpy
    pass per window of `_basis_windows`."""
    sizes = bitset.set_sizes(n)
    masks = np.arange(1 << n)
    bases = sizes == n // 2
    for window, bound in _basis_windows(n, s):
        bases &= sizes[masks & window] < bound
    return bases


def self_duality_map(n: int, s: int) -> tuple[int, ...]:
    """Permutation carrying psi(n, s) onto its dual.

    Identity for even s; the one-step rotation e_i -> e_{i+1} for odd s.
    """
    interval_presentation(n, s)
    if s % 2 == 0:
        return tuple(range(1, n + 1))
    return tuple(i % n + 1 for i in range(1, n + 1))


@dataclass(frozen=True)
class CircuitClassification:
    """Outcome of the two-shape circuit classifier for dual interval matroids.

    Every circuit is either spanning (|E| - m + 1 elements) or pinned to a
    run [i, j] of neighbourhoods whose union is the interval sigma(x_i, y_j).
    A third tag would be a structure violation and must never appear for a
    genuine circuit.
    """

    kind: str
    i: int | None = None
    j: int | None = None

    @property
    def ok(self) -> bool:
        return self.kind in ("spanning", "interval")


def classify_circuit(
    oracle: MatroidOracle, pres: MultiPathPresentation, circuit: int
) -> CircuitClassification:
    """Classify a circuit of `oracle`, the dual of the matroid `pres` presents
    (`dual_transversal(pres.base)`, or `psi` for an interval presentation)."""
    if oracle.n != pres.n:
        raise ValueError("the classified matroid must share the presentation's ground set")
    if not oracle.is_circuit(circuit):
        raise ValueError("classification requires a circuit of the dual matroid")
    n, m = pres.n, pres.m
    if circuit.bit_count() == n - m + 1:
        return CircuitClassification("spanning")
    closure = oracle.closure(circuit)
    for i in range(1, m + 1):
        for j in range(1, m + 1):
            union = pres.run_union(i, j)
            interval = bitset.cyclic_interval(n, pres.xs[i - 1], pres.ys[j - 1])
            if union != interval:
                continue
            if not bitset.is_subset(circuit, union):
                continue
            if circuit.bit_count() != union.bit_count() - pres.run_length(i, j) + 1:
                continue
            if i != j:
                inner = pres.run_union(i % m + 1, j)
                if not bitset.is_subset(union & ~inner, circuit):
                    continue
                inner = pres.run_union(i, (j - 2) % m + 1)
                if not bitset.is_subset(union & ~inner, circuit):
                    continue
            if not bitset.is_subset(interval, closure):
                continue
            return CircuitClassification("interval", i, j)
    return CircuitClassification("unclassified")
