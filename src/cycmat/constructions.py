"""Named matroid families used as fixtures and cross-checks.

Uniform matroids, wheels (graphic), whirls (rim relaxation of the wheel),
free tipless spikes, and the truncation operator.  Wheels and whirls use the
alternating labelling e_1 = spoke_1, e_2 = rim_1, e_3 = spoke_2, ... so that
their natural cyclic order is the structured one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import bitset
from .core import (
    CircuitFamily,
    GroundSet,
    MatroidOracle,
    oracle_from_circuits,
    validate_circuit_axioms,
)


def uniform(r: int, n: int) -> MatroidOracle:
    """Independence is having at most r elements."""
    if not 0 <= r <= n:
        raise ValueError(f"uniform matroid needs 0 <= r <= n, got r={r}, n={n}")
    return MatroidOracle(
        GroundSet(n), lambda mask: mask.bit_count() <= r, name=f"U({r},{n})",
        table=lambda: bitset.set_sizes(n) <= r,
    )


def _wheel_edges(r: int) -> list[tuple[int, int]]:
    # vertex 0 is the hub; rim vertices are 1..r
    edges = []
    for i in range(1, r + 1):
        edges.append((0, i))  # e_{2i-1}: spoke i
        edges.append((i, i % r + 1))  # e_{2i}: rim edge i -> i+1
    return edges


def _forest_table(edges: list[tuple[int, int]], vertices: int) -> np.ndarray:
    """``bool`` array over all 2^n edge masks (edge b + 1 is bit b): is the
    edge set a forest?

    Each mask carries a component label per vertex (uint8, so at most 256
    vertices).  Edge b = (u, v) keeps a forest below 2^b a forest iff the
    labels of u and v differ there, and then merges the two labels; one
    numpy pass per edge, over the 2^b masks below it.
    """
    n = len(edges)
    forest = np.zeros(1 << n, dtype=bool)
    forest[0] = True
    # labels are read only as the base of a later edge, so masks below 2^(n - 1)
    labels = np.empty((1 << (n - 1), vertices), dtype=np.uint8)
    labels[0] = np.arange(vertices)
    for b, (u, v) in enumerate(edges):
        low = 1 << b
        below = labels[:low]
        forest[low:2 * low] = forest[:low] & (below[:, u] != below[:, v])
        if b < n - 1:
            labels[low:2 * low] = np.where(below == below[:, v, None], below[:, u, None], below)
    return forest


def wheel(r: int) -> MatroidOracle:
    """Graphic matroid of the r-spoke wheel; independence = forest.

    The predicate is a union-find forest test, for single queries; the
    table is `_forest_table`, the same test on every mask in numpy passes.
    """
    if r < 2:
        raise ValueError(f"wheel needs r >= 2, got r={r}")
    edges = _wheel_edges(r)

    def indep(mask: int) -> bool:
        parent = list(range(r + 1))

        def find(v: int) -> int:
            while parent[v] != v:
                parent[v] = parent[parent[v]]
                v = parent[v]
            return v

        for i in bitset.iter_indices(mask):
            a, b = edges[i - 1]
            ra, rb = find(a), find(b)
            if ra == rb:
                return False
            parent[ra] = rb
        return True

    return MatroidOracle(
        GroundSet(2 * r), indep, name=f"wheel({r})", table=lambda: _forest_table(edges, r + 1)
    )


def rim_mask(r: int) -> int:
    return bitset.mask_of(2 * i for i in range(1, r + 1))


def whirl(r: int) -> MatroidOracle:
    """Relax the rim circuit of the wheel: the rim becomes independent and
    each rim-plus-spoke set becomes a circuit.

    The wheel's other circuits are listed directly: each proper cyclic arc
    of rim edges with its two bounding spokes, r(r - 1) of them.  The list
    is not re-proved here (the tests and the suite check it): above the
    lattice cap the axiom check walks all pairs of its r^2 circuits.
    """
    if r < 2:
        raise ValueError(f"whirl needs r >= 2, got r={r}")
    rim = rim_mask(r)
    spokes = [1 << (2 * i) for i in range(r)]  # spoke i + 1 is e_{2i+1}
    rims = [spoke << 1 for spoke in spokes]  # rim edge i + 1 is e_{2i+2}
    circuits = [rim | spoke for spoke in spokes]
    for i in range(r):
        arc = 0
        for length in range(1, r):
            arc |= rims[(i + length - 1) % r]
            circuits.append(spokes[i] | arc | spokes[(i + length) % r])
    return oracle_from_circuits(GroundSet(2 * r), circuits, name=f"whirl({r})", validate=False)


@dataclass(frozen=True)
class PairPartition:
    """Partition of e_1..e_{2r} into consecutive pairs {e_{2i-1}, e_{2i}}."""

    pairs: tuple[int, ...]

    @classmethod
    def consecutive(cls, r: int) -> "PairPartition":
        return cls(tuple(bitset.mask_of((2 * i - 1, 2 * i)) for i in range(1, r + 1)))

    def count_inside(self, mask: int) -> int:
        return sum(1 for p in self.pairs if bitset.is_subset(p, mask))


def free_spike(r: int, validate: bool = True) -> tuple[MatroidOracle, PairPartition]:
    """Rank-r free tipless spike on pairs L_i = {e_{2i-1}, e_{2i}}.

    Rank of X is min(r, |X| - max(0, p - 1)) where p counts pairs inside X.
    The closed form is validated at build time: circuit axioms hold and every
    union of two pairs is both a 4-element circuit and a 4-element cocircuit.
    """
    if r < 3:
        raise ValueError(f"spike needs r >= 3, got r={r}")
    partition = PairPartition.consecutive(r)

    def rank_of(mask: int) -> int:
        p = partition.count_inside(mask)
        return min(r, mask.bit_count() - max(0, p - 1))

    def table() -> np.ndarray:
        # rank(X) = |X| iff |X| <= r and X contains at most one pair
        masks = np.arange(1 << (2 * r))
        pairs = sum((masks & pair) == pair for pair in partition.pairs)
        return (bitset.set_sizes(2 * r) <= r) & (pairs <= 1)

    oracle = MatroidOracle(
        GroundSet(2 * r), lambda mask: rank_of(mask) == mask.bit_count(), name=f"spike({r})",
        table=table,
    )
    if validate:
        report = validate_circuit_axioms(oracle.circuits(), 2 * r)
        if not report.ok:
            raise RuntimeError(f"spike circuit family fails the axioms: {report.witnesses[0]}")
        for a in range(r):
            for b in range(a + 1, r):
                union = partition.pairs[a] | partition.pairs[b]
                if not oracle.is_circuit(union):
                    raise RuntimeError("pair union is not a circuit; rank form is wrong")
                if not oracle.is_cocircuit(union):
                    raise RuntimeError("pair union is not a cocircuit; rank form is wrong")
    return oracle, partition


# the one list of construction kinds: the builders of one parameter r, keyed
# by document kind, which `documents` and the CLI's `gen` flags read.  Each
# looks its builder up when called, so a rebinding of the module's names
# (perfbench's tracer) reaches it.  A spike skips the build-time proof of its
# closed form, which lists circuits and so refuses r >= 11; the tests and the
# suite's spike fixtures run that proof.
CONSTRUCTIONS = {
    "wheel": lambda r: wheel(r),
    "whirl": lambda r: whirl(r),
    "free_spike": lambda r: free_spike(r, validate=False)[0],
}


def truncate(oracle: MatroidOracle, i: int) -> MatroidOracle:
    """Drop the rank by i: independent sets keep only those of size <= r - i.

    Its rank is min(r - i, parent rank), which is also what the greedy loop
    returns on the truncated predicate, so the parent's supplied rank, if
    any, carries over.
    """
    r = oracle.rank()
    if not 0 <= i <= r:
        raise ValueError(f"truncation steps must satisfy 0 <= i <= rank, got i={i}, rank={r}")
    if i == 0:
        return oracle
    limit = r - i
    return MatroidOracle(
        oracle.ground,
        lambda mask: mask.bit_count() <= limit and oracle.indep(mask),
        name=f"T^{i}({oracle.name})",
        table=lambda: (bitset.set_sizes(oracle.n) <= limit) & oracle.independence_table(),
        rank=lambda mask: min(limit, oracle.rank(mask)),
    )


def truncation_circuits(oracle: MatroidOracle, i: int) -> CircuitFamily:
    """Expected circuits of the i-th truncation, from the parent matroid.

    Small circuits survive; every independent set of size r - i + 1 becomes a
    circuit.  Both are read off the parent's tables: its circuits of at most
    r - i + 1 elements, and the masks of that size its independence table
    marks, so above the `bitset.lattice_cap` it raises `CapExceeded`, as
    `circuits` does.  Used to cross-check the truncation oracle.
    """
    r = oracle.rank()
    if not 1 <= i <= r:
        raise ValueError("cross-check applies to 1 <= i <= rank")
    size = r - i + 1
    sizes = bitset.set_sizes(oracle.n)
    circuits = oracle.circuits().masks
    grown = np.flatnonzero(oracle.independence_table() & (sizes == size))
    return CircuitFamily.from_masks(oracle.n, np.concatenate([circuits[sizes[circuits] <= size], grown]))
