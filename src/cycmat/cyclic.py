"""Cyclic orderings and their circuit/cocircuit window structure.

An ordering is *nearly* structured for parameters (s, t) when every s-1
consecutive elements lie in an s-element circuit and every t-1 consecutive
elements lie in a t-element cocircuit.  It is *fully* structured when the
windows themselves are circuits/cocircuits recurring with step two.  This
module certifies both properties, searches for orderings, and machine-checks
the window-level consequences (flanking cocircuits, parity structure,
closure, window ranks, the rank formula, uniqueness, and the
nearly-to-fully upgrade at the proven size bounds).

Each window check takes a whole ordering and returns one
`VerificationReport` over every window start (and every window length the
statement covers), its witnesses in start-then-length order.  Every check
asks its hypotheses of one table of `Hypothesis` rows, and `require`
raises the `ValueError` of an unmet row.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from dataclasses import dataclass, field
from functools import partial
from itertools import islice

import numpy as np

from . import bitset
from .core import MatroidOracle, VerificationReport

NEITHER = "neither"
NEARLY = "nearly"
FULL = "full"

DEFAULT_SEARCH_CAP = 12
SEARCH_CAP_ENV = "CYCMAT_SEARCH_CAP"


@dataclass(frozen=True)
class Hypothesis:
    """A hypothesis of the paper on (n, s, t): its name, its formula as text
    and the predicate deciding it, asked with None for an n or t it ignores."""

    name: str
    formula: str
    holds: Callable[[int | None, int, int | None], bool]


def require(row: Hypothesis, n: int | None, s: int, t: int | None, what: str) -> None:
    """Raise the `ValueError` naming `what`, `row` and (n, s, t) unless `row` holds."""
    if not row.holds(n, s, t):
        got = ", ".join(f"{k}={v}" for k, v in (("n", n), ("s", s), ("t", t)) if v is not None)
        raise ValueError(f"{what} needs {row.formula}, got {got}")


# The table: no other line of the package writes these formulas.  Nearly structure
# needs the floor; full structure above the floor also needs even n and s = t mod 2.
WINDOW_SIZES = Hypothesis("window-sizes", "s, t >= 2", lambda n, s, t: s >= 2 and t >= 2)
CERTIFICATE_FLOOR = Hypothesis("certificate-floor", "n >= max(s,t) - 1", lambda n, s, t: n >= max(s, t) - 1)
FLOOR = Hypothesis("floor", "n >= s + t - 2", lambda n, s, t: n >= s + t - 2)
ABOVE_FLOOR = Hypothesis("above-floor", "n > s + t - 2", lambda n, s, t: n > s + t - 2)
EVEN_SIZE = Hypothesis("even-size", "even n", lambda n, s, t: n % 2 == 0)
WINDOW_PARITY = Hypothesis("window-parity", "s = t mod 2", lambda n, s, t: (s - t) % 2 == 0)
# the rank of a fully structured matroid, which must be whole
RANK_FORMULA = Hypothesis("rank-formula", "rank (n + s - t)/2", lambda n, s, t: (n + s - t) % 2 == 0)
ODD_START_UPGRADE = Hypothesis("odd-start-upgrade", "n >= s + t", lambda n, s, t: n >= s + t)
UNIQUENESS = Hypothesis("uniqueness", "n >= s + 2t - 4", lambda n, s, t: n >= s + 2 * t - 4)
# C1, nearly implies fully: its guard and its size bound
UPGRADE_SIZES = Hypothesis("upgrade-sizes", "s, t >= 3", lambda n, s, t: s >= 3 and t >= 3)
UPGRADE_BOUND = Hypothesis(
    "upgrade-bound", "n >= 3 min(s,t) + max(s,t) - 5 and n >= min(s,t) + 2 max(s,t) - 1",
    lambda n, s, t: n >= 3 * min(s, t) + max(s, t) - 5 and n >= min(s, t) + 2 * max(s, t) - 1)
# T^((t-s)/2)(psi(n, s)) is fully (s, t)-structured; C2, fully structured is its weak-map image
TRUNCATED_PSI = Hypothesis(
    "truncated-psi", "2 <= s <= t, s = t mod 2 and even n >= s + t - 2",
    lambda n, s, t: 2 <= s <= t and (t - s) % 2 == 0 and n % 2 == 0 and n >= s + t - 2)
CANONICAL_IMAGE = Hypothesis(
    "canonical-image", "2 <= s <= t, s = t mod 2 and even n > s + t - 2",
    lambda n, s, t: 2 <= s <= t and (t - s) % 2 == 0 and n % 2 == 0 and n > s + t - 2)
PSI_FLOOR = Hypothesis(
    "psi-floor", "even n, s >= 2 and n >= 2s - 2", lambda n, s, t: n % 2 == 0 and s >= 2 and n >= 2 * s - 2)
# the quotient refutation: two-block sets, the forced ledger and the rank bound
REFUTATION = Hypothesis(
    "refutation", "s >= 4 and even n >= 4s - 8", lambda n, s, t: s >= 4 and n % 2 == 0 and n >= 4 * s - 8)


def formula_rank(n: int, s: int, t: int) -> int:
    """The `RANK_FORMULA` rank, rounded down."""
    return (n + s - t) // 2


@dataclass(frozen=True)
class STParams:
    """Circuit size s and cocircuit size t, both at least 2."""

    s: int
    t: int

    def __post_init__(self) -> None:
        require(WINDOW_SIZES, None, self.s, self.t, "(s, t)-structure")


@dataclass(frozen=True, eq=False)
class CyclicOrdering:
    """A cyclic ordering of e_1..e_n, up to rotation and reflection.

    Equality and hashing use the canonical representative (lexicographically
    least among all rotations of both directions); the ordering as given is
    kept for window arithmetic.
    """

    order: tuple[int, ...]
    canonical: tuple[int, ...] = field(init=False)
    # _sums[j]: the sum of the bits of the first j elements of the order written twice
    _sums: tuple[int, ...] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        n = len(self.order)
        if sorted(self.order) != list(range(1, n + 1)):
            raise ValueError("ordering must be a permutation of 1..n")
        object.__setattr__(self, "canonical", _canonical_form(self.order))
        sums = [0]
        for e in self.order * 2:
            sums.append(sums[-1] + (1 << (e - 1)))
        object.__setattr__(self, "_sums", tuple(sums))

    @property
    def n(self) -> int:
        return len(self.order)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CyclicOrdering):
            return NotImplemented
        return self.canonical == other.canonical

    def __hash__(self) -> int:
        return hash(self.canonical)

    def rotated(self, k: int) -> "CyclicOrdering":
        k %= self.n
        return CyclicOrdering(self.order[k:] + self.order[:k])

    def reversed_order(self) -> "CyclicOrdering":
        return CyclicOrdering(tuple(reversed(self.order)))

    def window(self, start: int, length: int) -> int:
        """Mask of the `length` >= 0 elements from cyclic position `start`
        on, wrapping past position n: a difference of two `_sums`, whose
        terms are distinct elements while length < n."""
        sums = self._sums
        n = len(self.order)
        if length >= n:
            return sums[n]
        i = (start - 1) % n
        return sums[i + length] - sums[i]


def _canonical_form(order: tuple[int, ...]) -> tuple[int, ...]:
    candidates = []
    for direction in (order, tuple(reversed(order))):
        for k in range(len(order)):
            candidates.append(direction[k:] + direction[:k])
    return min(candidates)


def natural_ordering(n: int) -> CyclicOrdering:
    return CyclicOrdering(tuple(range(1, n + 1)))


@dataclass(frozen=True)
class OrderingCertificate:
    """Outcome of certifying one ordering against (s, t) window structure.

    `circuit_starts` / `cocircuit_starts` list the window positions that are
    themselves circuits / cocircuits; phases give the parity class of those
    starts (1 = odd positions) and are reported only for full certificates on
    more than s + t - 2 elements, where the parity is well defined.
    """

    kind: str
    n: int
    s: int
    t: int
    circuit_starts: tuple[int, ...]
    cocircuit_starts: tuple[int, ...]
    circuit_phase: int | None
    cocircuit_phase: int | None
    failures: tuple[tuple[str, int], ...] = ()

    @property
    def nearly(self) -> bool:
        return self.kind in (NEARLY, FULL)

    @property
    def full(self) -> bool:
        return self.kind == FULL

    def position(self, start: int) -> int:
        """The window start `start`, reduced into 1..n."""
        return (start - 1) % self.n + 1

    def circuit_at(self, start: int) -> bool:
        """Is the s-window at cyclic position `start` a circuit?"""
        return self.position(start) in self.circuit_starts

    def cocircuit_at(self, start: int) -> bool:
        """Is the t-window at cyclic position `start` a cocircuit?"""
        return self.position(start) in self.cocircuit_starts


def _phase(starts: tuple[int, ...]) -> int | None:
    parities = {i % 2 for i in starts}
    if len(parities) == 1:
        return parities.pop()
    return None


def _extensions(oracle: MatroidOracle, window: int):
    """The one-element extensions of `window` that are circuits; pass
    `oracle.dual()` for the cocircuits."""
    for bit in bitset.singletons(oracle.ground.full & ~window):
        if oracle.is_circuit(window | bit):
            yield window | bit


def _in_circuit(oracle: MatroidOracle, window: int) -> bool:
    """Does `window` lie in a circuit one element larger?  One lookup once
    the oracle keeps its `extension_counts`; until then the first of the
    `_extensions` decides."""
    counts = oracle.kept("extension-counts")
    if counts is None:
        return any(_extensions(oracle, window))
    return bool(counts[window])


def _build_certificate(
    oracle: MatroidOracle, ordering: CyclicOrdering, params: STParams
) -> OrderingCertificate:
    n, s, t = oracle.n, params.s, params.t
    if ordering.n != n:
        raise ValueError("ordering length must match the ground set")
    require(CERTIFICATE_FLOOR, n, s, t, "an (s, t)-certificate")
    failures: list[tuple[str, int]] = []
    dual = oracle.dual()

    def starts(matroid: MatroidOracle, size: int) -> tuple[int, ...]:
        # a window that wraps onto itself (n < size) has fewer than `size`
        # distinct elements and never counts as a window circuit
        windows = ((i, ordering.window(i, size)) for i in range(1, n + 1))
        return tuple(i for i, w in windows if w.bit_count() == size and matroid.is_circuit(w))

    circuit_starts, cocircuit_starts = starts(oracle, s), starts(dual, t)

    for i in range(1, n + 1):
        if not _in_circuit(oracle, ordering.window(i, s - 1)):
            failures.append(("window-not-in-circuit", i))
        if not _in_circuit(dual, ordering.window(i, t - 1)):
            failures.append(("window-not-in-cocircuit", i))
    nearly_ok = not failures

    # full structure, per side: a window at position 1 or 2, and each window
    # followed by another two positions on; leading failures precede steps
    leading: list[tuple[str, int]] = []
    steps: list[tuple[str, int]] = []
    for side, found in (("circuit", circuit_starts), ("cocircuit", cocircuit_starts)):
        if not (1 in found or 2 in found):
            leading.append((f"no-leading-{side}-window", 1))
        steps += [(f"{side}-window-step", i) for i in found if (i + 1) % n + 1 not in found]
    failures += leading + steps

    kind = FULL if not failures else NEARLY if nearly_ok else NEITHER
    phase = cophase = None
    if kind == FULL and ABOVE_FLOOR.holds(n, s, t):
        phase = _phase(circuit_starts)
        cophase = _phase(cocircuit_starts)
    return OrderingCertificate(
        kind, n, s, t, circuit_starts, cocircuit_starts, phase, cophase, tuple(failures)
    )


def certify(oracle: MatroidOracle, ordering: CyclicOrdering, params: STParams) -> OrderingCertificate:
    """Certificate of `ordering`, kept in the oracle's `derived` store under
    the raw order and the parameters (rotations are distinct keys though
    CyclicOrdering compares them equal).  It reads the oracle's circuit and
    extension-count tables where they are kept but never builds them: one
    certificate asks far fewer sets than a table holds."""
    return oracle.derived((ordering.order, params), lambda: _build_certificate(oracle, ordering, params))


@dataclass(frozen=True)
class BoundsReport:
    """Which ground-set size constraints hold for given (s, t)."""

    n: int
    s: int
    t: int
    nearly_allowed: bool
    full_allowed: bool
    violated: tuple[str, ...]


def size_bounds(n: int, params: STParams) -> BoundsReport:
    """Evaluate the proven size constraints: the `FLOOR` always, and above
    it (`ABOVE_FLOOR`) for full structure also `EVEN_SIZE` and
    `WINDOW_PARITY`.  `violated` names the rows that fail, in that order."""
    s, t = params.s, params.t
    rows = (FLOOR, EVEN_SIZE, WINDOW_PARITY) if ABOVE_FLOOR.holds(n, s, t) else (FLOOR,)
    violated = tuple(row.name for row in rows if not row.holds(n, s, t))
    return BoundsReport(n, s, t, FLOOR.holds(n, s, t), not violated, violated)


def find_orderings(
    oracle: MatroidOracle,
    params: STParams,
    mode: str = NEARLY,
    limit: int | None = None,
) -> list[CyclicOrdering]:
    """All orderings (one per rotation/reflection class) whose certificate
    meets `mode`, in lexicographic order of their canonical form.

    Backtracking over positions: a prefix dies as soon as a completed
    (s-1)- or (t-1)-window is in no s-circuit / t-cocircuit.  Leaves are
    generated lazily, so taking the first `limit` accepted ones is the
    search's one stop rule.  Up to the `bitset.lattice_cap` the oracle and
    its dual first build their `extension_counts`, read once here, so every
    window test of the search and of its certificates is one lookup; above
    it they ask the predicates.
    """
    if mode not in (NEARLY, FULL):
        raise ValueError(f"mode must be '{NEARLY}' or '{FULL}'")
    if limit is not None and limit < 1:
        raise ValueError(f"limit must be positive, got {limit}")
    n = oracle.n
    cap = bitset.env_cap(SEARCH_CAP_ENV, DEFAULT_SEARCH_CAP)
    bitset.require_cap("ordering search", n, cap, SEARCH_CAP_ENV)
    tabled = n <= bitset.lattice_cap()  # every window question becomes one lookup
    tests = [
        (size, m.extension_counts().__getitem__ if tabled else partial(_in_circuit, m))
        for size, m in ((params.s, oracle), (params.t, oracle.dual()))
    ]

    def prefix_ok(bits: tuple[int, ...]) -> bool:
        # the (s-1)- and (t-1)-windows the last element completes; the bits
        # of a prefix are distinct, so their sum is the window's mask
        for size, in_circuit in tests:
            if len(bits) >= size - 1 and not in_circuit(sum(bits[len(bits) - size + 1:])):
                return False
        return True

    def leaves(bits: tuple[int, ...], used: int) -> Iterator[CyclicOrdering]:
        """The complete orderings below the prefix whose elements' bits are
        `bits` (their union is `used`), depth first with e ascending."""
        if len(bits) == n:
            if n <= 2 or bits[1] < bits[-1]:  # else a reflection twin of one yielded already
                yield CyclicOrdering(tuple(bit.bit_length() for bit in bits))
            return
        for e in range(1, n + 1):
            bit = 1 << (e - 1)
            if not used & bit and prefix_ok(child := bits + (bit,)):
                yield from leaves(child, used | bit)

    def accepted(ordering: CyclicOrdering) -> bool:
        # each leaf is visited once, so keeping it would only grow the
        # oracle's store by up to (n-1)!/2 certificates
        cert = _build_certificate(oracle, ordering, params)
        return cert.nearly if mode == NEARLY else cert.full

    return list(islice(filter(accepted, leaves((1,), 1)), limit))


def require_certificate(
    oracle: MatroidOracle, ordering: CyclicOrdering, params: STParams, what: str,
    mode: str = FULL, row: Hypothesis = ABOVE_FLOOR,
) -> OrderingCertificate:
    """The certificate of `ordering`, which `what` needs to meet `mode` on n
    elements that meet `row`, asked first: by default full above the floor,
    where every window has distinct elements."""
    require(row, oracle.n, params.s, params.t, what)
    cert = certify(oracle, ordering, params)
    if not (cert.full if mode == FULL else cert.nearly):
        raise ValueError(f"{what} needs a {'fully' if mode == FULL else mode} structured ordering")
    return cert


def check_adjacent_windows(
    oracle: MatroidOracle, ordering: CyclicOrdering, params: STParams
) -> VerificationReport:
    """Each circuit window is flanked by cocircuit windows at distance t on
    both sides, and dually."""
    cert = require_certificate(oracle, ordering, params, "adjacent-window check")
    s, t = cert.s, cert.t
    flanks = (
        (cert.circuit_starts, (-t, s), cert.cocircuit_at, "missing-flank-cocircuit"),
        (cert.cocircuit_starts, (-s, t), cert.circuit_at, "missing-flank-circuit"),
    )
    return VerificationReport.of("adjacent-windows", (
        None if present(i + d) else (kind, i, cert.position(i + d))
        for starts, offsets, present, kind in flanks for i in starts for d in offsets
    ))


def check_window_structure(
    oracle: MatroidOracle, ordering: CyclicOrdering, params: STParams
) -> VerificationReport:
    """Parity structure at each circuit window: for even s, t the cocircuit
    window shares the start; for odd s, t it is shifted by one.  The shifted
    s-window is independent and the appropriate t-window coindependent."""
    cert = require_certificate(oracle, ordering, params, "window-structure check")
    s, t = cert.s, cert.t
    require(WINDOW_PARITY, cert.n, s, t, "window-structure check")
    even = s % 2 == 0
    cases, dual = [], oracle.dual()
    for i in cert.circuit_starts:
        after = cert.position(i + 1)
        cocirc, coindep = (i, after) if even else (after, i)  # cocircuit and coindependent window starts
        cases += (
            None if cert.cocircuit_at(cocirc) else ("expected-cocircuit", i, cocirc),
            None if oracle.indep(ordering.window(after, s)) else ("expected-independent", i, after),
            None if dual.indep(ordering.window(coindep, t)) else ("expected-coindependent", i, coindep),
        )
    return VerificationReport.of("window-structure", cases)


def _window_ranks(oracle: MatroidOracle, ordering: CyclicOrdering, lengths: range) -> dict:
    """r(W(i, k)) of the k-window at every start i and each k in `lengths`,
    keyed (i, k) in start-then-length order: one `MatroidOracle.ranks`
    call on the (start x length) array of window masks."""
    sums, n = np.array(ordering._sums), ordering.n
    starts = np.arange(n)[:, None]  # W(i, k), k <= n, is sums[i - 1 + k] - sums[i - 1]
    windows = sums[starts + np.array(lengths, dtype=np.int64)] - sums[starts]
    keys = [(i, k) for i in range(1, n + 1) for k in lengths]
    return dict(zip(keys, oracle.ranks(windows).ravel().tolist()))


def check_window_closure(
    oracle: MatroidOracle, ordering: CyclicOrdering, params: STParams
) -> VerificationReport:
    """Both closure biconditionals at every start i and s-1 <= k <= n-t: the
    next element enters the closure of the k-window iff the trailing
    s-window is a circuit, and the preceding element does iff the leading
    s-window is one.  Neither element lies in the window while k <= n-t, so
    each is a rank equality: r(W(i, k+1)) = r(W(i, k)) ahead and
    r(W(i-1, k+1)) = r(W(i, k)) behind."""
    cert = require_certificate(oracle, ordering, params, "closure check")
    n, s, t = cert.n, cert.s, cert.t
    ks = range(s - 1, n - t + 1)
    rank = _window_ranks(oracle, ordering, range(s - 1, n - t + 2))
    return VerificationReport.of("window-closure", (
        case for i in range(1, n + 1) for k in ks for case in (  # the start before i is i - 1 or n
            None if (rank[i, k + 1] == rank[i, k]) == cert.circuit_at(i + k - s + 1) else ("closure-ahead", i, k),
            None if (rank[i - 1 or n, k + 1] == rank[i, k]) == cert.circuit_at(i - 1) else ("closure-behind", i, k),
        )
    ))


def window_rank_prediction(
    oracle: MatroidOracle, ordering: CyclicOrdering, params: STParams
) -> VerificationReport:
    """Predicted against oracle rank of the k-window at every start i, for
    1 <= k <= n-t+1.

    Below s the window is independent; from s on the rank is
    floor((s+k-1)/2) when the leading s-window is a circuit and the ceiling
    otherwise.  A witness is (i, k, predicted, actual).
    """
    cert = require_certificate(oracle, ordering, params, "window-rank check")
    n, s, t = cert.n, cert.s, cert.t
    rank = _window_ranks(oracle, ordering, range(1, n - t + 2))

    def predicted(i: int, k: int) -> int:
        if k < s:
            return k
        return (s + k - 1) // 2 if cert.circuit_at(i) else (s + k) // 2

    return VerificationReport.of("window-rank", (
        None if (p := predicted(i, k)) == actual else ("window-rank", i, k, p, actual)
        for (i, k), actual in rank.items()
    ))


def check_rank_formula(oracle: MatroidOracle, params: STParams) -> bool:
    """Rank (n+s-t)/2 exactly (`RANK_FORMULA`), so corank (n-s+t)/2."""
    n, s, t = oracle.n, params.s, params.t
    return RANK_FORMULA.holds(n, s, t) and oracle.rank() == formula_rank(n, s, t)


def full_from_odd_circuits(
    oracle: MatroidOracle, ordering: CyclicOrdering, params: STParams
) -> OrderingCertificate:
    """When a nearly structured ordering on n >= s + t elements
    (`ODD_START_UPGRADE`) has circuits at every odd window start, the full
    certificate must follow; returns it for the caller to assert."""
    cert = require_certificate(oracle, ordering, params, "the odd-start upgrade", NEARLY, ODD_START_UPGRADE)
    missing = [i for i in range(1, cert.n + 1, 2) if i not in cert.circuit_starts]
    if missing:
        raise ValueError(f"odd window starts {missing} are not circuits")
    return cert


def unique_window_circuits(
    oracle: MatroidOracle, ordering: CyclicOrdering, params: STParams
) -> VerificationReport:
    """On n >= s + 2t - 4 elements (`UNIQUENESS`), each (s-1)-window extends
    to exactly one s-element circuit."""
    cert = require_certificate(oracle, ordering, params, "uniqueness check", NEARLY, UNIQUENESS)
    n, s = cert.n, cert.s
    counts = oracle.kept("extension-counts")

    def count(window: int) -> int:
        return sum(1 for _ in _extensions(oracle, window)) if counts is None else int(counts[window])

    return VerificationReport.of("unique-window-circuit", (
        None if (c := count(ordering.window(i, s - 1))) == 1 else ("window-circuit-count", i, c)
        for i in range(1, n + 1)
    ))


def upgrade_from_nearly(
    oracle: MatroidOracle, ordering: CyclicOrdering, params: STParams
) -> VerificationReport:
    """Nearly structured implies fully structured (C1) for s, t >= 3
    (`UPGRADE_SIZES`) once n meets `UPGRADE_BOUND`; below the bound the
    check is vacuous (noted)."""
    cert = require_certificate(oracle, ordering, params, "the nearly-to-fully upgrade", NEARLY, UPGRADE_SIZES)
    if UPGRADE_BOUND.holds(cert.n, cert.s, cert.t):
        return VerificationReport.of("nearly-upgrade", [None if cert.full else (cert.kind, cert.failures)])
    return VerificationReport.of("nearly-upgrade", [], "size bounds not met; vacuous")
