"""Refutation machinery for the rank-(n/2 + 1) quotient question.

Two-block sets: k consecutive elements, a gap of k + l - (s - 2) elements,
then l consecutive elements.  Adding an admissible gap element x always
yields a circuit of psi(n, s); and in any matroid M' whose odd windows of
length s are circuits, the same augmented sets are forced to be dependent by
repeated circuit elimination.  Chaining the resulting closure bounds shows
r(M') <= n/2, contradicting rank n/2 + 1, so psi(n, s) is not a quotient of
any such M'.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import bitset
from .core import MatroidOracle, VerificationReport
from .cyclic import REFUTATION, require

AXIOM = "axiom"


def _idx(n: int, i: int) -> int:
    return (i - 1) % n + 1


def _bit(n: int, i: int) -> int:
    return 1 << (_idx(n, i) - 1)


@dataclass(frozen=True)
class TwoBlockSpec:
    """Parameters (i, k, l) of a two-block set inside the n-cycle.

    Block one is sigma(i, i+k-1), block two sigma(i+2k+l-s+2, i+2k+2l-s+1);
    the admissible augmentation elements are the gap elements between them,
    minus the stated exclusions at the extreme block lengths.
    """

    i: int
    k: int
    ell: int
    s: int
    n: int

    def __post_init__(self) -> None:
        s, n = self.s, self.n
        require(REFUTATION, n, s, None, "the quotient refutation")
        if self.i != _idx(n, self.i) or self.i % 2 == 0:
            raise ValueError(f"start index must be odd and in [n], got i={self.i}")
        if not (2 <= self.k <= s - 1 and 2 <= self.ell <= s - 1):
            raise ValueError(f"block lengths must lie in [2, s-1], got k={self.k}, l={self.ell}")
        if not (s - 1 <= self.k + self.ell <= 2 * s - 4):
            raise ValueError(
                f"block lengths must satisfy s-1 <= k+l <= 2s-4, got k+l={self.k + self.ell}"
            )

    @property
    def block_one(self) -> int:
        return bitset.cyclic_interval(self.n, self.i, self.i + self.k - 1)

    @property
    def block_two(self) -> int:
        i, k, ell, s = self.i, self.k, self.ell, self.s
        return bitset.cyclic_interval(self.n, i + 2 * k + ell - s + 2, i + 2 * k + 2 * ell - s + 1)

    @property
    def mask(self) -> int:
        return self.block_one | self.block_two

    @property
    def gap(self) -> int:
        i, k, ell, s = self.i, self.k, self.ell, self.s
        return bitset.cyclic_interval(self.n, i + k, i + 2 * k + ell - s + 1)

    @property
    def exclusions(self) -> tuple[int, ...]:
        out = []
        if self.k == self.s - 1:
            out.append(_idx(self.n, self.i + self.k))
        if self.ell == self.s - 1:
            out.append(_idx(self.n, self.i + 2 * self.k + self.ell - self.s + 1))
        return tuple(out)

    def admissible(self) -> tuple[int, ...]:
        banned = set(self.exclusions)
        return tuple(x for x in bitset.iter_indices(self.gap) if x not in banned)

    def with_x(self, x: int) -> int:
        bit = 1 << (x - 1)
        if not (self.gap & bit) or x in self.exclusions:
            raise ValueError(f"x={x} is not an admissible gap element")
        return self.mask | bit


def iter_specs(n: int, s: int):
    for i in range(1, n + 1, 2):
        for k in range(2, s):
            for ell in range(2, s):
                if s - 1 <= k + ell <= 2 * s - 4:
                    yield TwoBlockSpec(i, k, ell, s, n)


def psi_two_block_circuits(oracle: MatroidOracle, s: int) -> VerificationReport:
    """Every admissible augmented two-block set is a circuit of `oracle`, which is
    psi(n, s) with n = oracle.n, each tested directly, so no enumeration caps n."""
    n = oracle.n
    require(REFUTATION, n, s, None, "the quotient refutation")
    return VerificationReport.of("two-block-circuits", (
        None if oracle.is_circuit(spec.with_x(x)) else (spec.i, spec.k, spec.ell, x)
        for spec in iter_specs(n, s) for x in spec.admissible()
    ))


@dataclass(frozen=True)
class ForcedEntry:
    """One derived dependent set with its elimination trace.

    Axiom entries are the odd-start s-windows.  Every other entry records the
    two parent entries and the eliminated element; dependence of the parents
    plus one elimination forces dependence of the target in any matroid
    containing the axiom circuits.
    """

    key: tuple
    target: int
    rule: str
    parents: tuple[tuple, ...] = ()
    eliminated: int | None = None


@dataclass
class ForcedLedger:
    """All forced dependent sets for parameters (n, s), keyed in derivation
    order; `derive` replays the elimination induction into it."""

    n: int
    s: int
    entries: dict = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.entries)

    def instance_count(self) -> int:
        return sum(1 for k in self.entries if k[0] != AXIOM)

    def verify_dependent(self, oracle: MatroidOracle) -> VerificationReport:
        """Sanity sweep: every ledger target is dependent in `oracle`."""
        return VerificationReport.of("forced-sets-dependent", (
            key if oracle.indep(entry.target) else None for key, entry in self.entries.items()
        ))

    def _add(self, entry: ForcedEntry) -> tuple:
        self.entries[entry.key] = entry
        return entry.key

    def _axiom(self, i: int) -> tuple:
        n, s = self.n, self.s
        i = _idx(n, i)
        if i % 2 == 0:
            raise RuntimeError(f"axiom windows start at odd positions, got {i}")
        key = (AXIOM, i)
        if key not in self.entries:
            self._add(ForcedEntry(key, bitset.cyclic_interval(n, i, i + s - 1), AXIOM))
        return key

    def _eliminate(self, key: tuple, target: int, rule: str, pa: tuple, pb: tuple, elem: int) -> tuple:
        """Record target = (parent_a | parent_b) - elem; the set algebra must
        close exactly or the transcription of the derivation is wrong."""
        a = self.entries[pa].target
        b = self.entries[pb].target
        bit = _bit(self.n, elem)
        if not (a & bit and b & bit):
            raise RuntimeError(f"eliminated element {elem} is not shared by the parents")
        derived = (a | b) & ~bit
        if derived != target:
            raise RuntimeError(
                f"derivation for {key} produced {bitset.indices(derived)} "
                f"instead of {bitset.indices(target)}"
            )
        return self._add(ForcedEntry(key, target, rule, (pa, pb), _idx(self.n, elem)))

    def derive(self, i: int, k: int, ell: int, x: int) -> tuple:
        n, s = self.n, self.s
        i, x = _idx(n, i), _idx(n, x)
        key = (i, k, ell, x)
        if key in self.entries:
            return key
        spec = TwoBlockSpec(i, k, ell, s, n)
        target = spec.with_x(x)
        if k + ell == s - 1:
            # the augmented set is exactly the odd window starting at i
            akey = self._axiom(i)
            if self.entries[akey].target != target:
                raise RuntimeError("base two-block set does not close the window")
            return self._add(ForcedEntry(key, target, "window", (akey,)))
        if k + ell == s:
            gap = (_idx(n, i + k), _idx(n, i + k + 1))
            other = gap[1] if x == gap[0] else gap[0]
            return self._eliminate(
                key, target, "splice",
                self._axiom(i), self._axiom(i + 2), other,
            )
        if k == s - 1:
            return self._eliminate(
                key, target, "shrink-front",
                self.derive(i + 2, k - 1, ell, x), self._axiom(i), i + s - 1,
            )
        if ell == s - 1:
            return self._eliminate(
                key, target, "shrink-back",
                self.derive(i, k, ell - 1, x), self._axiom(i + 2 * k), i + 2 * k,
            )
        if k == 3 and ell == 3:
            if s != 5:
                raise RuntimeError("the 3+3 case only arises for s = 5")
            if x == _idx(n, i + 3):
                return self._eliminate(
                    key, target, "centre-left",
                    self.derive(i + 2, 2, 3, i + 4), self._axiom(i), i + 4,
                )
            other = i + 5 if x == _idx(n, i + 4) else i + 4
            return self._eliminate(
                key, target, "centre-right",
                self.derive(i, 3, 2, i + 4), self._axiom(i + 4), other,
            )
        gap_start = _idx(n, i + k)
        gap_end = _idx(n, i + 2 * k + ell - s + 1)
        if k >= 4:
            if x != gap_end:
                if ell == s - 2 and x == _idx(n, i + 2 * k + ell - s):
                    return self._eliminate(
                        key, target, "front-axiom",
                        self.derive(i, k, ell - 1, x),
                        self._axiom(i + 2 * k + ell - s), gap_end,
                    )
                return self._eliminate(
                    key, target, "front-pair",
                    self.derive(i, k, ell - 1, x),
                    self.derive(i + 2, k - 2, ell + 1, x), gap_end,
                )
            return self._eliminate(
                key, target, "front-swap",
                self.derive(i, k, ell - 1, gap_start),
                self.derive(i + 2, k - 2, ell + 1, gap_start), gap_start,
            )
        # mirror branch: ell >= 4 while k = 3 (the reflection image of the
        # k >= 4 rules under e_j -> e_{s+1-j})
        if ell < 4:
            raise RuntimeError(f"unhandled two-block case k={k}, l={ell}, s={s}")
        if x != gap_start:
            return self._eliminate(
                key, target, "back-pair",
                self.derive(i + 2, k - 1, ell, x),
                self.derive(i, k + 1, ell - 2, x), gap_start,
            )
        return self._eliminate(
            key, target, "back-swap",
            self.derive(i + 2, k - 1, ell, gap_end),
            self.derive(i, k + 1, ell - 2, gap_end), gap_end,
        )


def forced_dependents(n: int, s: int) -> ForcedLedger:
    """Replay the elimination induction: derive every admissible augmented
    two-block set as dependent in any matroid whose odd s-windows are circuits."""
    require(REFUTATION, n, s, None, "the quotient refutation")
    ledger = ForcedLedger(n, s)
    for spec in iter_specs(n, s):
        for x in spec.admissible():
            ledger.derive(spec.i, spec.k, spec.ell, x)
    return ledger


@dataclass(frozen=True)
class ChainStep:
    prefix_size: int
    bound: int
    rule: str
    support: int | None = None


@dataclass(frozen=True)
class ContradictionReport:
    """Machine-checked rank bound for the hypothetical rank-(n/2 + 1) matroid.

    The chain bounds r({e_1..e_m}) one element at a time; the spanning step
    then pulls every remaining element into the closure through a verified
    circuit, ending with n/2 < n/2 + 1.  `ledger` is the forced-set ledger
    the spanning step read.
    """

    n: int
    s: int
    chain: tuple[ChainStep, ...]
    spanning: tuple[tuple[int, int], ...]
    rank_bound: int
    claimed_rank: int
    ledger: ForcedLedger = field(compare=False, repr=False)
    ok: bool


def rank_bound_contradiction(ledger: ForcedLedger, oracle: MatroidOracle) -> ContradictionReport:
    """The rank bound from `ledger` = forced_dependents(n, s) and `oracle` = psi(n, s)."""
    n, s = ledger.n, ledger.s
    require(REFUTATION, n, s, None, "the quotient refutation")
    if oracle.n != n:
        raise ValueError(f"the ledger is for n={n}, the oracle has n={oracle.n}")
    prefix = bitset.cyclic_interval(n, 1, s)
    chain = [ChainStep(s, s - 1, "axiom-circuit", prefix)]
    bound = s - 1
    ok = True
    for u in range(1, n // 2 - s + 2):
        bound += 1
        chain.append(ChainStep(s + 2 * u - 1, bound, "add-element"))
        support = bitset.cyclic_interval(n, 2 * u + 1, 2 * u + s)
        closing = 1 << (2 * u + s - 1)
        # the supporting window must end at the new element and otherwise sit
        # inside the previous prefix
        if support & ~bitset.cyclic_interval(n, 1, s + 2 * u) or not support & closing:
            ok = False
        chain.append(ChainStep(s + 2 * u, bound, "closure-circuit", support))
    if bound != n // 2 or chain[-1].prefix_size != n - s + 2:
        ok = False
    prefix_mask = bitset.cyclic_interval(n, 1, n - s + 2)
    spanning = []
    for x in range(n - s + 3, n + 1):
        key = (_idx(n, n - 2 * s + 5), s - 2, s - 2, x)
        entry = ledger.entries.get(key)
        if entry is None:
            raise RuntimeError(f"ledger is missing the spanning entry {key}")
        if entry.target & ~prefix_mask != 1 << (x - 1):
            ok = False
        if not oracle.is_circuit(entry.target):
            # the upgrade from dependent set to circuit needs minimality in
            # psi(n, s); without it the closure step is unjustified
            ok = False
        spanning.append((x, entry.target))
    return ContradictionReport(
        n, s, tuple(chain), tuple(spanning),
        rank_bound=n // 2, claimed_rank=n // 2 + 1,
        ledger=ledger, ok=ok,
    )
