"""Independent reference answers for the benchmark's correctness gates.

Nothing here imports cycmat: each matroid the workloads use is rebuilt from
its definition (bipartite matching, graph forests, closed rank formulas) so
that a wrong answer from the library cannot also be the expected answer.
Element indices are 1-based throughout, matching the documents and the CLI.
"""

from __future__ import annotations

import itertools
from collections.abc import Callable, Iterable


def matching_size(lefts: list[set[int]], rights: Iterable[int]) -> int:
    """Maximum matching of left vertices into `rights` (Kuhn's algorithm)."""
    allowed = set(rights)
    owner: dict[int, int] = {}

    def augment(i: int, seen: set[int]) -> bool:
        for e in lefts[i]:
            if e in allowed and e not in seen:
                seen.add(e)
                if e not in owner or augment(owner[e], seen):
                    owner[e] = i
                    return True
        return False

    return sum(1 for i in range(len(lefts)) if augment(i, set()))


def psi_neighborhoods(n: int, s: int) -> list[set[int]]:
    """N(i) = {e_{2i-1}, ..., e_{2i+s-2}} on the n-cycle, i = 1..n/2."""
    return [{(2 * i - 2 + k) % n + 1 for k in range(s)} for i in range(1, n // 2 + 1)]


def psi_rank(n: int, s: int, subset: Iterable[int]) -> int:
    """Rank in psi(n, s), the dual of the interval transversal matroid:
    r*(X) = |X| - r(E) + r(E - X), with r(E) = n/2."""
    x = set(subset)
    rest = set(range(1, n + 1)) - x
    return len(x) - n // 2 + matching_size(psi_neighborhoods(n, s), rest)


def transversal_rank(neighborhoods: list[list[int]], subset: Iterable[int]) -> int:
    """Rank in a transversal matroid: the largest part of X matchable into [m]."""
    x = set(subset)
    element_lefts = [set() for _ in range(max(x, default=0))]
    for i, nb in enumerate(neighborhoods):
        for e in nb:
            if e in x:
                element_lefts[e - 1].add(i)
    return matching_size([element_lefts[e - 1] for e in sorted(x)], range(len(neighborhoods)))


def psi_indep(n: int, s: int) -> Callable[[frozenset], bool]:
    nbhds = psi_neighborhoods(n, s)
    ground = set(range(1, n + 1))
    return lambda x: matching_size(nbhds, ground - x) == len(nbhds)


def transversal_indep(neighborhoods: list[list[int]]) -> Callable[[frozenset], bool]:
    return lambda x: transversal_rank(neighborhoods, x) == len(x)


def uniform_indep(r: int) -> Callable[[frozenset], bool]:
    return lambda x: len(x) <= r


def truncated_indep(inner: Callable[[frozenset], bool], rank: int) -> Callable[[frozenset], bool]:
    return lambda x: len(x) <= rank and inner(x)


def wheel_indep(r: int) -> Callable[[frozenset], bool]:
    """Forest test on the r-spoke wheel: e_{2i-1} is spoke (0, i), e_{2i} rim (i, i+1)."""
    edges = {}
    for i in range(1, r + 1):
        edges[2 * i - 1] = (0, i)
        edges[2 * i] = (i, i % r + 1)

    def indep(x: frozenset) -> bool:
        parent = list(range(r + 1))

        def find(v: int) -> int:
            while parent[v] != v:
                v = parent[v]
            return v

        for e in x:
            a, b = (find(v) for v in edges[e])
            if a == b:
                return False
            parent[a] = b
        return True

    return indep


def spike_indep(r: int) -> Callable[[frozenset], bool]:
    """Free tipless spike on pairs {e_{2i-1}, e_{2i}}: r(X) = min(r, |X| - max(0, p - 1))."""

    def indep(x: frozenset) -> bool:
        pairs = sum(1 for i in range(1, r + 1) if {2 * i - 1, 2 * i} <= x)
        return min(r, len(x) - max(0, pairs - 1)) == len(x)

    return indep


def circuits(indep: Callable[[frozenset], bool], n: int) -> list[list[int]]:
    """Every minimal dependent set, by brute force over all subsets, in the
    CLI's canonical order (size, then ascending indices)."""
    table = {}
    for k in range(n + 1):
        for combo in itertools.combinations(range(1, n + 1), k):
            x = frozenset(combo)
            table[x] = indep(x)
    found = []
    for k in range(1, n + 1):
        for combo in itertools.combinations(range(1, n + 1), k):
            x = frozenset(combo)
            if not table[x] and all(table[x - {e}] for e in x):
                found.append(list(combo))
    return found


def is_weak_map(source: list[list[int]], target_indep: Callable[[frozenset], bool]) -> bool:
    """Identity weak map: every source circuit is dependent in the target."""
    return all(not target_indep(frozenset(c)) for c in source)


def is_quotient(upper: list[list[int]], lower: list[list[int]]) -> bool:
    """Every circuit of `upper` is a union of circuits of `lower`."""
    lower_sets = [set(c) for c in lower]
    for c in upper:
        cs = set(c)
        covered = set().union(*(d for d in lower_sets if d <= cs))
        if covered != cs:
            return False
    return True
