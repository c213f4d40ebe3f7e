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

from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from functools import cache, cached_property, lru_cache

import numpy as np

from . import bitset
from .core import GroundSet, MatroidOracle
from .cyclic import PSI_FLOOR, require


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

    def neighborhood_union(self, lefts) -> int:
        out = 0
        for i in lefts:
            out |= self.neighborhoods[i - 1]
        return out

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
        S counts in int32: m is far below 2^31, and neighbourhoods may repeat,
        so a byte could overflow.
        """
        n = self.ground.n
        counts = np.bincount(self.neighborhoods, minlength=1 << n).astype(np.int32)
        inside = bitset.subset_reduce(counts, np.add)
        # reversing a 2^n array maps mask Y to its complement E - Y
        deficient = self.m - inside[::-1] < bitset.set_sizes(n)
        return _read_only(~bitset.subset_reduce(deficient, np.maximum))

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


def _augment(root: int, adjacency: list[int], match_of_right: dict[int, int]) -> bool:
    """Depth-first search for an augmenting path from `root` on an explicit
    stack, flipped into `match_of_right` when found.  Each frame fixes its
    candidate rights on entry: its adjacency minus the rights seen so far.

    The search's first step tries root's lowest right; when that right is
    free it is the whole path, so it is taken without building the stack.
    """
    low = adjacency[root] & -adjacency[root]
    if low and low not in match_of_right:
        match_of_right[low] = root
        return True
    seen = 0
    stack = [(root, bitset.singletons(adjacency[root]))]
    path: list[int] = []  # the right each frame below the top is trying
    while stack:
        bit = next(stack[-1][1], None)
        if bit is None:
            stack.pop()
            del path[-1:]
            continue
        seen |= bit
        path.append(bit)
        holder = match_of_right.get(bit)
        if holder is None:
            for (left, _), right in zip(stack, path):
                match_of_right[right] = left
            return True
        stack.append((holder, bitset.singletons(adjacency[holder] & ~seen)))
    return False


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
        _augment(i, adjacency, match_of_right)
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


def brute_force_matching_size(pres: BipartitePresentation, avoids: Sequence[int]) -> np.ndarray:
    """Ore's defect form of Hall's theorem, m - max over J of |J| - |N(J) - avoid|,
    for each mask in `avoids`: an int array, one size per avoid, in order.

    Exhaustive over left sets and free of augmenting paths; the independent
    cross-check for `max_matching`.  One array expression over
    avoids x 2^m unions `pres.unions`, whose sizes come from
    `bitset.bit_counts`, eight bits at a time, so no table over all 2^n
    element masks is built at any n.  J = {} bounds the maximum below by 0.
    """
    n = pres.ground.n
    unions = bitset.mask_array(pres.unions, n)
    avoids = bitset.mask_array(avoids, n)
    free = bitset.bit_counts(unions[None, :] & ~avoids[:, None])
    defect = bitset.set_sizes(pres.m).astype(np.int16) - free
    return pres.m - defect.max(axis=1)


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
class IntervalPresentation:
    """N(i) = {e_{2i-1}, ..., e_{2i+s-2}} = sigma(x_i, y_i) for i in [n/2],
    derived from (n, s) alone: distinct intervals with monotone endpoints,
    an antichain by construction.  Requires `PSI_FLOOR`; below it the
    intervals wrap onto themselves and are rejected."""

    n: int
    s: int

    def __post_init__(self) -> None:
        require(PSI_FLOOR, self.n, self.s, None, "psi(n, s)")

    @property
    def m(self) -> int:
        return self.n // 2

    @cached_property
    def xs(self) -> tuple[int, ...]:
        return tuple(range(1, self.n, 2))

    @cached_property
    def ys(self) -> tuple[int, ...]:
        return tuple((x + self.s - 2) % self.n + 1 for x in self.xs)

    @cached_property
    def base(self) -> BipartitePresentation:
        nbrs = (bitset.cyclic_interval(self.n, x, y) for x, y in zip(self.xs, self.ys))
        return BipartitePresentation(GroundSet(self.n), tuple(nbrs))

    @cached_property
    def basis_windows(self) -> tuple[tuple[int, int], ...]:
        """(window, bound) pairs of the interval-count basis test for psi(n, s):
        each window of s + 2k consecutive elements starting at an odd position,
        for 0 <= k <= n/2 - s, with its bound s + k.  X is a basis iff
        |X| = n/2 and X has fewer than `bound` elements in every `window`.
        Independent of the matching oracle."""
        n, s = self.n, self.s
        return tuple(
            (bitset.cyclic_interval(n, x, x + s - 1 + 2 * k), s + k)
            for x in self.xs
            for k in range(0, self.m - s + 1)
        )

    def run_union(self, i: int, j: int) -> int:
        """Union of neighbourhoods over the cyclic run [i, j] of left vertices."""
        run = bitset.cyclic_interval(self.m, i, j)
        return self.base.neighborhood_union(bitset.iter_indices(run))

    def run_length(self, i: int, j: int) -> int:
        return (j - i) % self.m + 1

    @cached_property
    def interval_runs(self) -> tuple[tuple[int, int, int, int, int], ...]:
        """(i, j, union, ends, length) for each cyclic run [i, j] of left
        vertices whose `run_union` is the interval sigma(x_i, y_j), in
        (i, j) order: `ends` holds the elements of the union that only N(i)
        or only N(j) reach (the union minus the run [i + 1, j], and minus
        the run [i, j - 1]; for i = j both runs are the whole cycle, so
        `ends` is 0), and `length` is the `run_length`.  What
        `classify_circuit` tests a circuit against."""
        n, m = self.n, self.m
        runs = []
        for i in range(1, m + 1):
            for j in range(1, m + 1):
                union = self.run_union(i, j)
                if union != bitset.cyclic_interval(n, self.xs[i - 1], self.ys[j - 1]):
                    continue
                inner = self.run_union(i % m + 1, j) & self.run_union(i, (j - 2) % m + 1)
                runs.append((i, j, union, union & ~inner, self.run_length(i, j)))
        return tuple(runs)


@lru_cache(maxsize=None)
def interval_presentation(n: int, s: int) -> IntervalPresentation:
    """The shared `IntervalPresentation(n, s)`: every psi oracle of one (n, s)
    reads its neighbourhoods, Hall tables and basis windows."""
    return IntervalPresentation(n, s)


def psi(n: int, s: int) -> MatroidOracle:
    """Dual of the interval-presented transversal matroid; rank n/2."""
    return _oracle(interval_presentation(n, s).base, True, f"psi({n},{s})")


def psi_basis_test(n: int, s: int, mask: int) -> bool:
    """Is `mask` a basis of psi(n, s), by the interval-count rule of
    `IntervalPresentation.basis_windows`?"""
    windows = interval_presentation(n, s).basis_windows
    return mask.bit_count() == n // 2 and all(
        (mask & window).bit_count() < bound for window, bound in windows
    )


def psi_basis_table(n: int, s: int) -> np.ndarray:
    """``bool`` array over all 2^n masks: `psi_basis_test` on each, one numpy
    pass per window of `IntervalPresentation.basis_windows`."""
    sizes = bitset.set_sizes(n)
    masks = np.arange(1 << n)
    bases = sizes == n // 2
    for window, bound in interval_presentation(n, s).basis_windows:
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
    oracle: MatroidOracle, pres: IntervalPresentation, circuit: int
) -> CircuitClassification:
    """Classify one circuit of `oracle`: `classify_circuits` of it alone."""
    return classify_circuits(oracle, pres, [circuit])[0]


def classify_circuits(
    oracle: MatroidOracle, pres: IntervalPresentation, circuits: Iterable[int] | np.ndarray
) -> list[CircuitClassification]:
    """Classify each of `circuits`, masks of circuits of `oracle`, in order;
    `oracle` is psi(n, s) for `pres` = `interval_presentation(n, s)`, or
    the same matroid as `dual_transversal(pres.base)`.

    A circuit of n - m + 1 elements is spanning.  Otherwise the runs
    [i, j] of `pres.interval_runs` are tried in (i, j) order, and the first
    whose interval U holds the circuit C, with |C| = |U| - (j - i + 1) + 1,
    C holding the elements only N(i) and only N(j) reach, and U in the
    closure of C, classifies it; none leaves it unclassified.  The shape
    tests are one array expression over (circuit x run), in `bitset.blocks`
    of circuits, and each run's rank is asked once, on the first block
    where some circuit passes them.  A mask that is not a circuit of
    `oracle` raises `ValueError`.
    """
    if oracle.n != pres.n:
        raise ValueError("the classified matroid must share the presentation's ground set")
    masks = bitset.mask_array(circuits, pres.n)
    if not oracle.are_circuits(masks).all():
        raise ValueError("classification requires a circuit of the dual matroid")
    runs = pres.interval_runs
    _, _, unions, ends, lengths = zip(*runs)
    unions, ends = bitset.mask_array(unions, pres.n), bitset.mask_array(ends, pres.n)
    room = bitset.bit_counts(unions) - np.array(lengths) + 1  # the size of a circuit pinned to each run
    ranks = np.full(len(runs), -1)  # each run's rank, asked on first need
    spanning, unclassified = len(runs), len(runs) + 1
    codes: list[int] = []
    for block in bitset.blocks(masks[:, None]):
        sizes = bitset.bit_counts(block).astype(np.int64)
        fits = ((block & ~unions) == 0) & ((ends & ~block) == 0) & (sizes == room)
        ask = fits.any(axis=0) & (ranks < 0)
        ranks[ask] = [oracle.rank(union) for union in unions[ask].tolist()]
        # C lies in the interval and r(C) = |C| - 1, so the interval
        # lies in cl(C) iff it has C's rank
        fits &= ranks == sizes - 1
        code = np.where(fits.any(axis=1), np.argmax(fits, axis=1), unclassified)
        codes += np.where(sizes[:, 0] == pres.n - pres.m + 1, spanning, code).tolist()
    outcomes = [CircuitClassification("interval", i, j) for i, j, *_ in runs]
    outcomes += [CircuitClassification("spanning"), CircuitClassification("unclassified")]
    return [outcomes[code] for code in codes]
