"""Independence oracles and derived matroid quantities.

A matroid is represented by its ground set and a deterministic independence
predicate over bitmasks.  Rank, closure, circuits, cocircuits and duals are
all derived from the predicate; circuits come from one table of independent
sets per oracle, and cocircuits are the circuits of the dual.  Enumerations
are capped so that exponential sweeps stay a deliberate choice rather than
an accident.
"""

from __future__ import annotations

import functools
import itertools
import threading
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field

import numpy as np

from . import bitset


@dataclass(frozen=True)
class GroundSet:
    """Elements e_1..e_n, addressed by 1-based index."""

    n: int
    full: int = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"ground set needs at least one element, got n={self.n}")
        object.__setattr__(self, "full", bitset.full_mask(self.n))

    def mask(self, elements: Iterable[int]) -> int:
        m = bitset.mask_of(elements)
        if m & ~self.full:
            raise ValueError("element index out of range")
        return m


@dataclass(frozen=True, eq=False)
class CircuitFamily:
    """Complete list of minimal dependent sets, held once as the read-only
    mask array `masks` in the given order (`from_masks` sorts), and the one
    test of "does X contain a member?" (`contains_member`).  A caller's
    array is copied unless it is read-only and owns its data.  A negative
    mask raises `ValueError`.  Families are equal when n and masks are;
    none is hashable."""

    n: int
    masks: np.ndarray
    _dependence: bytearray | None = field(default=None, init=False, repr=False)
    # (`_exchange_failure` of the sets `_dependence` leaves out,) once decided
    _exchange: tuple | None = field(default=None, init=False, repr=False)

    def __post_init__(self) -> None:
        masks = bitset.mask_array(self.masks, self.n)
        if masks is self.masks and (masks.flags.writeable or masks.base is not None):
            masks = masks.copy()  # the caller's array: keep one that no caller can write
        if len(masks) and masks.min() < 0:
            raise ValueError("member masks must be nonnegative")
        masks.flags.writeable = False
        object.__setattr__(self, "masks", masks)

    @classmethod
    def from_masks(cls, n: int, masks: Iterable[int] | np.ndarray) -> "CircuitFamily":
        """The distinct `masks`, given as Python ints or as a numpy array, in
        `bitset.canonical_sort` order."""
        return cls(n, bitset.canonical_sort(masks, n))

    @property
    def members(self) -> tuple[int, ...]:
        """The members as Python ints, in order: a tuple built on each call."""
        return tuple(self.masks.tolist())

    def __iter__(self):
        return iter(self.masks.tolist())

    def __len__(self) -> int:
        return len(self.masks)

    def __eq__(self, other) -> bool:
        return isinstance(other, CircuitFamily) and self.n == other.n and np.array_equal(self.masks, other.masks)

    def dependence(self) -> bytearray | None:
        """The members' `bitset.dependence_table`, built on the first call up
        to the `bitset.lattice_cap` and kept; None above the cap.  A None is
        not kept, so a family first asked under a lowered cap still builds
        its table when asked under a higher one."""
        if self._dependence is None and self.n <= bitset.lattice_cap():
            object.__setattr__(self, "_dependence", bitset.dependence_table(self.n, self.masks))
        return self._dependence

    def exchange_failure(self) -> tuple | None:
        """`_exchange_failure` of the sets that contain no member, run once on
        the `dependence` table and kept: the one exchange test, which
        `validate_circuit_axioms` and `verify_matroid_axioms` both read, in
        either order.  With no table (above the `bitset.lattice_cap`) it
        raises `CapExceeded`."""
        if self._exchange is None:
            table = self.dependence()
            if table is None:
                bitset.require_cap("the exchange test", self.n, bitset.lattice_cap())
            independent = np.frombuffer(table, dtype=np.uint8) == 0
            object.__setattr__(self, "_exchange", (_exchange_failure(independent),))
        return self._exchange[0]

    def contains_member(self, mask: int) -> bool:
        """Does `mask` contain some member?  One lookup in `dependence`, or
        one array expression over the members above the cap."""
        table = self.dependence()
        if table is None:
            return not (self.masks & ~mask).all()  # some member leaves no bit outside mask
        return bool(table[mask])

    def index_runs(self) -> list[np.ndarray]:
        """Each member's 1-based element indices, ascending, as one
        ``(count, size)`` array per run of consecutive members of one size,
        in member order.

        The sizes come from `bitset.bit_counts`, and each run's indices
        from one `bitset.mask_elements` call, which makes one pass per
        member size, never one per bit of the ground set.  The canonical
        order sorts by size first, so a family from `from_masks` has one
        run per size.
        """
        masks = self.masks
        sizes = bitset.bit_counts(masks)
        bounds = [0, *(np.flatnonzero(sizes[1:] != sizes[:-1]) + 1).tolist(), len(sizes)]  # run starts, then len
        return [
            bitset.mask_elements(masks[lo:hi], int(sizes[lo]))
            for lo, hi in zip(bounds, bounds[1:])
            if lo < hi  # only the empty family has no run
        ]

    def as_indices(self) -> list[list[int]]:
        """Each member's 1-based element indices, ascending: the rows of
        `index_runs`."""
        return list(itertools.chain.from_iterable(run.tolist() for run in self.index_runs()))


@dataclass(frozen=True)
class VerificationReport:
    """Pass/fail record of one check, with counterwitnesses: the one result
    of every pass/fail check in the package.  It fails exactly when it
    names a witness."""

    check: str
    checked: int
    witnesses: tuple = ()
    note: str = ""

    @property
    def ok(self) -> bool:
        return not self.witnesses

    @classmethod
    def of(cls, check: str, cases: Iterable, note: str = "") -> "VerificationReport":
        """The report of `cases`, each None where it holds and its witness
        where it fails: `checked` counts the cases, and the witnesses are
        the failing ones in order."""
        cases = list(cases)
        return cls(check, len(cases), tuple(c for c in cases if c is not None), note)


class MatroidOracle:
    """Matroid given by an independence predicate on bitmasks.

    Instances are immutable after construction, and the predicate must be
    pure.  `table`, when given, is a zero-argument function returning the
    ``bool`` array over all 2^n masks that equals the predicate on every
    mask (a Hall table, a closed form); it is called once, on first use,
    in place of asking the predicate mask by mask.  `rank`, when given, is
    the rank function of the same predicate (one maximum matching, a closed
    form); until the independence table is kept, `rank(mask)` returns it
    in place of the greedy loop, and it writes no memo entry.  The memo
    caches single `indep` queries and is written without the lock: two
    threads that race on an entry store the same value.  Everything else
    the oracle derives is kept by `derived`: the independence table (the
    predicate's answer on all 2^n subsets, which enumeration and the
    exchange sweep share), the circuit, extension-count and rank tables
    built from it, the circuits, the cocircuits (every cocircuit question
    goes to the dual), the dual, the full rank and `cyclic.certify`'s
    certificates.  Oracles can be shared across
    threads, and all derived state is freed with the oracle.
    """

    def __init__(
        self,
        ground: GroundSet,
        indep: Callable[[int], bool],
        name: str = "",
        table: Callable[[], np.ndarray] | None = None,
        rank: Callable[[int], int] | None = None,
    ):
        self.ground = ground
        self.name = name or "matroid"
        self._indep = indep
        self._table = table
        self._rank = rank
        self._memo: dict[int, bool] = {}
        self._lock = threading.Lock()
        self._derived: dict = {}

    # -- the store of derived values -------------------------------------------

    def derived(self, key, build: Callable[[], object]):
        """The value kept under `key`, built by `build()` on first use.

        `build` runs without `_lock`, so it may ask this oracle or another
        (the dual, or the primal behind a dual's table) for their values.
        The result is kept under the lock with ``setdefault``: racing threads
        may each build a value, and all get the first one kept.  `build`
        must not return None, which `kept` reads as "not kept yet".
        """
        value = self._derived.get(key)
        if value is None:
            value = build()
            with self._lock:
                value = self._derived.setdefault(key, value)
        return value

    def kept(self, key):
        """The value kept under `key`, or None; never builds one."""
        return self._derived.get(key)

    # read by perfbench's tracer only, to tell a cold enumeration from a warm one
    _circuits = property(lambda self: self.kept("circuits"))
    _cocircuits = property(lambda self: self.kept("cocircuits"))

    # -- predicate and rank ---------------------------------------------------

    @property
    def n(self) -> int:
        return self.ground.n

    def indep(self, mask: int) -> bool:
        if mask & ~self.ground.full:
            raise ValueError("subset is not contained in the ground set")
        cached = self._memo.get(mask)
        if cached is None:
            cached = bool(self._indep(mask))
            self._memo[mask] = cached
        return cached

    def rank(self, mask: int | None = None) -> int:
        """Size of a maximal independent subset.  Once the independence table
        is kept, one lookup in the `rank_table`; before, the supplied `rank`
        when the oracle's builder gave one, otherwise built greedily through
        the memo.  With no `mask`, the rank of the ground set, kept.

        Greedy extension is exact on matroids, and the `rank_table` is the
        greedy walk on any predicate, so the routes agree wherever the
        supplied `rank` is the predicate's; the axiom sweep in
        `verify_matroid_axioms` is the guard that the predicate is a matroid.
        """
        if mask is None:
            return self.derived("rank", lambda: self.rank(self.ground.full))
        tabled = "independence-table" in self._derived
        if tabled or self._rank is not None:
            if mask & ~self.ground.full:  # a negative index would wrap
                raise ValueError("subset is not contained in the ground set")
            return int(self.rank_table()[mask]) if tabled else self._rank(mask)
        current = 0
        for bit in bitset.singletons(mask):
            if self.indep(current | bit):
                current |= bit
        return current.bit_count()

    def ranks(self, masks: np.ndarray) -> np.ndarray:
        """`rank` of each of `masks`, an integer array, in its shape: once
        the independence table is kept, one gather from the `rank_table`,
        the lookup `rank` makes then; before, one `rank` query per mask."""
        masks = np.asarray(masks)
        if "independence-table" not in self._derived:
            return np.array(list(map(self.rank, masks.ravel().tolist())), dtype=np.int64).reshape(masks.shape)
        if (masks & ~self.ground.full).any():  # a negative index would wrap
            raise ValueError("subset is not contained in the ground set")
        return self.rank_table()[masks]

    def closure(self, mask: int) -> int:
        base = self.rank(mask)
        out = mask
        for bit in bitset.singletons(self.ground.full & ~mask):
            if self.rank(mask | bit) == base:
                out |= bit
        return out

    # -- circuits and cocircuits --------------------------------------------

    def is_circuit(self, mask: int) -> bool:
        """Is `mask` dependent, with every maximal proper subset independent?

        One lookup once the `circuit_table` is kept; before, `indep` is
        asked about `mask` and each maximal proper subset.
        """
        marks = self._derived.get("circuit-table")  # `kept`, inlined: windows and sweeps ask this often
        if marks is None:
            if mask == 0 or self.indep(mask):
                return False
            return all(self.indep(mask ^ bit) for bit in bitset.singletons(mask))
        if mask & ~self.ground.full:  # a negative index would wrap
            raise ValueError("subset is not contained in the ground set")
        return bool(marks[mask])

    def are_circuits(self, masks: np.ndarray) -> np.ndarray:
        """`is_circuit` of each of `masks`, an integer array, in its shape:
        once the `circuit_table` is kept, one gather from it; before, one
        `is_circuit` query per mask.  A mask outside the ground set raises
        `ValueError`, as `is_circuit` does."""
        masks = np.asarray(masks)
        marks = self.kept("circuit-table")
        if marks is None:
            return np.array(list(map(self.is_circuit, masks.ravel().tolist())), dtype=bool).reshape(masks.shape)
        if (masks & ~self.ground.full).any():  # a negative index would wrap
            raise ValueError("subset is not contained in the ground set")
        return marks[masks]

    def is_coindependent(self, mask: int) -> bool:
        """The dual's predicate; ask `dual().indep`, whose memo caches it."""
        return self.rank(self.ground.full & ~mask) == self.rank()

    def is_cocircuit(self, mask: int) -> bool:
        """Is `mask` a circuit of the dual?"""
        return self.dual().is_circuit(mask)

    def circuits(self) -> CircuitFamily:
        """The masks the `circuit_table` marks."""
        return self.derived(
            "circuits", lambda: CircuitFamily.from_masks(self.n, np.flatnonzero(self.circuit_table()))
        )

    def circuit_table(self) -> np.ndarray:
        """``bool`` array over all 2^n masks marking the circuits: the
        dependent masks whose every X - e is independent, from the
        independence table; the empty mask is not marked."""

        def build() -> np.ndarray:
            independent = self.independence_table()
            marks = ~independent & bitset.all_maximal_subsets(independent)
            marks[0] = False
            return marks

        return self.derived("circuit-table", build)

    def extension_counts(self) -> np.ndarray:
        """`bitset.extension_counts` of the `circuit_table`: at X, the number
        of circuits X | e with e outside X."""
        return self.derived("extension-counts", lambda: bitset.extension_counts(self.circuit_table()))

    def cocircuits(self) -> CircuitFamily:
        """The dual's circuits."""
        return self.derived("cocircuits", lambda: self.dual().circuits())

    def independence_table(self) -> np.ndarray:
        """``bool`` array over all 2^n masks: the predicate's answer on each.

        The supplied `table` when there is one; otherwise the predicate is
        asked once per mask, in ascending order.  Neither goes through the
        memo, so no answer is held twice.  The table is raw: on a predicate
        that is not a matroid it shows every violation to
        `verify_matroid_axioms`.
        """

        def build() -> np.ndarray:
            bitset.require_cap("circuit enumeration", self.n, bitset.lattice_cap())
            if self._table is not None:
                return self._table()
            size = 1 << self.n
            return np.fromiter(map(self._indep, range(size)), dtype=bool, count=size)

        return self.derived("independence-table", build)

    def rank_table(self) -> np.ndarray:
        """``uint8`` array over all 2^n masks: `bitset.greedy_rank` of the
        independence table, the greedy walk of `rank` on every mask."""
        return self.derived("rank-table", lambda: bitset.greedy_rank(self.independence_table()))

    # -- derived matroids ----------------------------------------------------

    def dual(self) -> "MatroidOracle":
        """The dual, kept; its own dual is a new oracle, not this one.

        Its table is `is_coindependent` on every mask, rank(E - X) = rank(E)
        read from the `rank_table`, so it equals the predicate even when
        this oracle is not a matroid.
        """
        return self.derived(
            "dual",
            lambda: MatroidOracle(
                self.ground, self.is_coindependent, f"dual({self.name})", table=self._coindependent
            ),
        )

    def _coindependent(self) -> np.ndarray:
        rank = self.rank_table()
        # reversing a 2^n array maps mask X to its complement
        return (rank == rank[-1])[::-1]

    def __repr__(self) -> str:
        return f"MatroidOracle({self.name}, n={self.n})"


def oracle_from_circuits(
    ground: GroundSet, circuits: Iterable[int] | np.ndarray, name: str = "", validate: bool = True
) -> MatroidOracle:
    """Oracle with X independent iff X contains no listed circuit.

    `circuits` are masks, as Python ints or a numpy array.  The predicate is
    the family's `contains_member` and the table its `dependence`, so the
    oracle, validation and the circuit-axiom decision share one dependence
    table, built on the first question that needs it, not here: listing the
    circuits needs none.
    """
    family = CircuitFamily.from_masks(ground.n, circuits)
    if validate:
        report = validate_circuit_axioms(family, ground.n)
        if not report.ok:
            raise ValueError(f"circuit family fails the axioms: {report.witnesses[0]}")

    oracle = MatroidOracle(
        ground,
        lambda mask: not family.contains_member(mask),
        name=name or "from-circuits",
        table=lambda: np.frombuffer(family.dependence(), dtype=np.uint8) == 0,
    )
    oracle.derived("circuits", lambda: family)
    return oracle


def orthogonality_check(circuit: int, cocircuit: int) -> bool:
    """A circuit and a cocircuit never meet in exactly one element.

    The rule for one pair, which `orthogonality_violation` decides for whole
    families; the tests' reference, and a name `perfbench/tracer.py` counts.
    """
    return (circuit & cocircuit).bit_count() != 1


def orthogonality_violation(
    circuits: Iterable[int] | np.ndarray, cocircuits: Iterable[int] | np.ndarray, n: int
) -> tuple[int, int] | None:
    """The first circuit-cocircuit pair that meets in exactly one element, in
    nested-loop order (every cocircuit against the first circuit, then the
    next circuit), or None when `orthogonality_check` holds on every pair.

    A lattice pass, not a walk over pairs: U[X], the union of the cocircuits
    inside X, is `bitset.member_unions` over all 2^n masks.  A circuit C
    meets some cocircuit in exactly e iff e is in C and in U[(E - C) | e].
    U[(E - C) | e] meets C at most in e, so one gather over the (circuit x
    element) array of masks (E - C) | e, in `bitset.blocks` of circuits,
    marks every circuit with such a partner; the first marked circuit is
    then tested against each cocircuit.  O(n 2^n + n |circuits| +
    |cocircuits|), with temporaries of at most `bitset.MEMBER_BLOCK` x n
    entries.  Above the `bitset.lattice_cap` it raises `CapExceeded`, and
    masks outside the n elements raise `ValueError`.
    """
    bitset.require_cap("the orthogonality check", n, bitset.lattice_cap())
    full = bitset.full_mask(n)
    cs, ds = bitset.mask_array(circuits), bitset.mask_array(cocircuits)
    for masks in (cs, ds):
        if len(masks) and (masks.min() < 0 or masks.max() > full):
            raise ValueError(f"masks must lie inside the {n} elements")
    cs, ds = cs.astype(np.int32), ds.astype(np.int32)
    union = bitset.member_unions(n, ds)
    bits = np.int32(1) << np.arange(n, dtype=np.int32)
    for block in bitset.blocks(cs[:, None]):
        partnered = (union[(full ^ block) | bits] & block).any(axis=1)
        if partnered.any():
            c = int(block[np.argmax(partnered), 0])
            meet = ds & c
            j = int(np.argmax((meet != 0) & (meet & (meet - 1) == 0)))
            return c, int(ds[j])
    return None


def validate_circuit_axioms(family: CircuitFamily | Iterable[int], n: int) -> VerificationReport:
    """Check antichain, non-emptiness and weak elimination for a family.

    The report's `checked` is the number of members and its witnesses are
    the violations, each a (kind, details) pair.

    Weak elimination: for distinct members C1, C2 and e in their
    intersection, some member lies inside (C1 | C2) - e.  Up to the
    `bitset.lattice_cap` the family is decided on its `dependence` table, and
    a passing family visits no pair.  Otherwise the pairs are walked and the
    failures collected, not raised: first per member, then antichain
    failures, then elimination failures, each by pair in
    `itertools.combinations` order and e ascending.  An e of C1 & C2 fails
    iff every member inside C1 | C2 holds e: a pair's failing elements are
    the AND of those members, kept per union for the last 2^16 unions, and
    no containment test is asked.  A member outside the ground set leaves
    elimination undefined, so it is not tested then.  Raw masks (numpy
    integers included), or a family over another n, are wrapped in input
    order as one `CircuitFamily`; a negative mask raises `ValueError`.
    """
    if not isinstance(family, CircuitFamily) or family.n != n:
        family = CircuitFamily(n, list(family))  # unsorted: the witnesses keep the input's order
    full = bitset.full_mask(n)
    in_range = not (family.masks & ~full).any()
    if in_range and family.masks.all() and _is_matroid_family(family):  # no member empty
        return VerificationReport("circuit-axioms", len(family))
    members = family.masks.tolist()
    violations: list[tuple[str, tuple]] = []
    for c in members:
        if c == 0:
            violations.append(("empty-circuit", ()))
        if c & ~full:
            violations.append(("out-of-range", (bitset.indices(c),)))
    antichain: list[tuple[str, tuple]] = []
    elimination: list[tuple[str, tuple]] = []

    @functools.lru_cache(maxsize=1 << 16)
    def inside_and(union: int) -> int:  # within C1 & C2, as both lie inside; 0 if a member is empty
        return int(np.bitwise_and.reduce(family.masks[(family.masks & ~union) == 0]))

    for a, b in itertools.combinations(members, 2):
        common = a & b
        if common in (a, b):
            antichain.append(("antichain", (bitset.indices(a), bitset.indices(b))))
        if not in_range or not common:
            continue
        for bit in bitset.singletons(inside_and(a | b)):
            elimination.append(("elimination", (bitset.indices(a), bitset.indices(b), bit.bit_length())))
    violations += antichain + elimination
    return VerificationReport("circuit-axioms", len(members), tuple(violations))


def _is_matroid_family(family: CircuitFamily) -> bool:
    """Are the nonempty in-range members the circuits of a matroid, decided
    on the family's `dependence` table (False above the cap, where it has
    none)?  Iff they are distinct, no C - e contains a member (one gather
    over the (member x element) array, in `bitset.blocks` of members), and
    the sets that contain none pass the exchange test."""
    table, masks = family.dependence(), family.masks
    ordered = np.sort(masks)
    if table is None or (ordered[1:] == ordered[:-1]).any():  # sorted, a repeated member is adjacent
        return False
    # one gather of dependent[C ^ e] per block of members: for e in C that is
    # C - e, and for e outside C it is C | e, always dependent, so the block
    # passes iff the dependent count is its number of pairs with e outside C
    dependent = np.frombuffer(table, dtype=np.uint8).view(bool)
    bits = 1 << np.arange(family.n, dtype=masks.dtype)
    sizes = bitset.set_sizes(family.n)
    for block in bitset.blocks(masks):
        outside = block.size * family.n - int(sizes[block].sum(dtype=np.int64))
        if np.count_nonzero(dependent[block[:, None] ^ bits]) > outside:
            return False
    return family.exchange_failure() is None


def _exchange_failure(independent: np.ndarray) -> tuple | None:
    """The exchange test on a downward-closed ``bool`` table over all 2^n masks.

    Exchange fails at an independent Y iff rank(E - ext(Y)) > |Y|, ext(Y)
    being the elements that extend Y.  None when it holds, else the witness
    ("exchange", X, Y): the first such Y by (size, mask) and the lowest
    independent X one larger that avoids ext(Y).
    """
    n = len(independent).bit_length() - 1
    sizes = bitset.set_sizes(n)
    rank = bitset.lattice_rank(independent)
    masks = np.arange(len(independent), dtype=np.int32)
    ext = np.zeros(len(independent), dtype=np.int32)
    for b in range(n):  # bit b of ext[Y], for Y without b, is independent[Y | b]
        without, _ = bitset.halves(ext, b)
        extends = bitset.halves(independent, b)[1].astype(np.int32)
        np.bitwise_or(without, extends << b, out=without, order="C")
    failing = independent & (rank[bitset.full_mask(n) ^ ext] > sizes)
    if not failing.any():
        return None
    k = sizes[failing].min()
    y = int(np.flatnonzero(failing & (sizes == k))[0])
    x = int(np.flatnonzero(independent & (sizes == k + 1) & ((masks & ext[y]) == 0))[0])
    return ("exchange", bitset.indices(x), bitset.indices(y))


def verify_matroid_axioms(oracle: MatroidOracle) -> VerificationReport:
    """Sweep the independence axioms: empty set, downward closure, exchange.

    Reads the oracle's independence table, the predicate's answer on every
    subset (shared with circuit enumeration, filled on first use); above
    the `bitset.lattice_cap` it raises `CapExceeded`.  Downward closure and
    exchange are read off the oracle's circuits: a downward-closed table
    marks exactly the sets that contain no circuit; else the lowest mask X
    where the two differ is independent over a dependent set, and since no
    X - e is such a set, some X - e is dependent.  When they agree, the
    verdict is the family's `CircuitFamily.exchange_failure`, run once
    whichever check asks first.  A kept family from another table raises
    `RuntimeError`.
    """
    n = oracle.n
    bitset.require_cap("the exchange sweep", n, bitset.lattice_cap())
    independent = oracle.independence_table()
    if not independent[0]:
        return VerificationReport("matroid-axioms", 1, (("empty-set",),))
    checked = 1 << n
    family = oracle.circuits()
    dependent = np.frombuffer(family.dependence(), dtype=np.uint8)  # 1 where a circuit lies inside
    differ = np.flatnonzero(dependent == independent)  # marked in both tables, or in neither
    if len(differ):
        m = int(differ[0])
        bit = next((b for b in bitset.singletons(m) if not independent[m ^ b]), None)
        if bit is None or not independent[m]:
            raise RuntimeError(f"the kept circuit family is not the independence table's at mask {m}")
        return VerificationReport(
            "matroid-axioms", checked,
            (("downward-closure", bitset.indices(m), bit.bit_length()),),
        )
    witness = family.exchange_failure()
    return VerificationReport("matroid-axioms", checked, () if witness is None else (witness,))
