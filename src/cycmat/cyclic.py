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
statement covers), its witnesses in start-then-length order.  The four
checks that need a full certificate on n > s + t - 2 elements pass one
gate, `_full_certificate`.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field
from functools import partial
from itertools import islice

from . import bitset
from .core import MatroidOracle, VerificationReport

NEITHER = "neither"
NEARLY = "nearly"
FULL = "full"

DEFAULT_SEARCH_CAP = 12
SEARCH_CAP_ENV = "CYCMAT_SEARCH_CAP"


@dataclass(frozen=True)
class STParams:
    """Circuit size s and cocircuit size t, both at least 2."""

    s: int
    t: int

    def __post_init__(self) -> None:
        if self.s < 2 or self.t < 2:
            raise ValueError(f"window sizes must exceed one, got s={self.s}, t={self.t}")

    @property
    def t1(self) -> int:
        return min(self.s, self.t)

    @property
    def t2(self) -> int:
        return max(self.s, self.t)


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

    def circuit_at(self, start: int) -> bool:
        """Is the s-window at cyclic position `start` a circuit?"""
        return (start - 1) % self.n + 1 in self.circuit_starts

    def cocircuit_at(self, start: int) -> bool:
        """Is the t-window at cyclic position `start` a cocircuit?"""
        return (start - 1) % self.n + 1 in self.cocircuit_starts


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
    if n < max(s, t) - 1:
        raise ValueError(
            f"an (s,t)-structured matroid needs at least max(s,t)-1 elements, got n={n}"
        )
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
    if kind == FULL and n > s + t - 2:
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
    """Evaluate the proven size constraints: the floor n >= s + t - 2 always,
    and for full structure on n > s + t - 2 also n even with s = t mod 2."""
    s, t = params.s, params.t
    violated: list[str] = []
    nearly_allowed = n >= s + t - 2
    if not nearly_allowed:
        violated.append("floor")
    full_allowed = nearly_allowed
    if n > s + t - 2:
        if n % 2:
            violated.append("even-size")
            full_allowed = False
        if (s - t) % 2:
            violated.append("window-parity")
            full_allowed = False
    return BoundsReport(n, s, t, nearly_allowed, full_allowed, tuple(violated))


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


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ValueError(message)


def _full_certificate(
    oracle: MatroidOracle, ordering: CyclicOrdering, params: STParams, what: str
) -> OrderingCertificate:
    """The certificate of `ordering`, which `what` needs to be full on
    n > s + t - 2 elements, where every window has distinct elements."""
    cert = certify(oracle, ordering, params)
    _require(cert.full, f"{what} needs a fully structured ordering")
    _require(cert.n > cert.s + cert.t - 2, f"{what} needs n > s + t - 2, got n={cert.n}")
    return cert


def check_adjacent_windows(
    oracle: MatroidOracle, ordering: CyclicOrdering, params: STParams
) -> VerificationReport:
    """Each circuit window is flanked by cocircuit windows at distance t on
    both sides, and dually."""
    cert = _full_certificate(oracle, ordering, params, "adjacent-window check")
    s, t = cert.s, cert.t
    witnesses = []
    checked = 0
    for i in cert.circuit_starts:
        for start in (i - t, i + s):
            checked += 1
            if not cert.cocircuit_at(start):
                witnesses.append(("missing-flank-cocircuit", i, start))
    for i in cert.cocircuit_starts:
        for start in (i - s, i + t):
            checked += 1
            if not cert.circuit_at(start):
                witnesses.append(("missing-flank-circuit", i, start))
    return VerificationReport("adjacent-windows", not witnesses, checked, tuple(witnesses))


def check_window_structure(
    oracle: MatroidOracle, ordering: CyclicOrdering, params: STParams
) -> VerificationReport:
    """Parity structure at each circuit window: for even s, t the cocircuit
    window shares the start; for odd s, t it is shifted by one.  The shifted
    s-window is independent and the appropriate t-window coindependent."""
    cert = _full_certificate(oracle, ordering, params, "window-structure check")
    s, t = cert.s, cert.t
    _require((s - t) % 2 == 0, "window-structure check needs s = t mod 2")
    even = s % 2 == 0
    witnesses = []
    checked = 0
    for i in cert.circuit_starts:
        cocirc_start = i if even else i + 1
        coindep_start = i + 1 if even else i
        checked += 3
        if not cert.cocircuit_at(cocirc_start):
            witnesses.append(("expected-cocircuit", i, cocirc_start))
        if not oracle.indep(ordering.window(i + 1, s)):
            witnesses.append(("expected-independent", i, i + 1))
        if not oracle.dual().indep(ordering.window(coindep_start, t)):
            witnesses.append(("expected-coindependent", i, coindep_start))
    return VerificationReport("window-structure", not witnesses, checked, tuple(witnesses))


def _window_ranks(oracle: MatroidOracle, ordering: CyclicOrdering, lengths: range) -> dict:
    """r(W(i, k)) of the k-window at every start i and each k in `lengths`,
    one rank query per window, keyed (i, k) in start-then-length order."""
    starts = range(1, ordering.n + 1)
    return {(i, k): oracle.rank(ordering.window(i, k)) for i in starts for k in lengths}


def check_window_closure(
    oracle: MatroidOracle, ordering: CyclicOrdering, params: STParams
) -> VerificationReport:
    """Both closure biconditionals at every start i and s-1 <= k <= n-t: the
    next element enters the closure of the k-window iff the trailing
    s-window is a circuit, and the preceding element does iff the leading
    s-window is one.  Neither element lies in the window while k <= n-t, so
    each is a rank equality: r(W(i, k+1)) = r(W(i, k)) ahead and
    r(W(i-1, k+1)) = r(W(i, k)) behind."""
    cert = _full_certificate(oracle, ordering, params, "closure check")
    n, s, t = cert.n, cert.s, cert.t
    ks = range(s - 1, n - t + 1)
    rank = _window_ranks(oracle, ordering, range(s - 1, n - t + 2))
    witnesses = []
    for i in range(1, n + 1):
        before = (i - 2) % n + 1
        for k in ks:
            if (rank[i, k + 1] == rank[i, k]) != cert.circuit_at(i + k - s + 1):
                witnesses.append(("closure-ahead", i, k))
            if (rank[before, k + 1] == rank[i, k]) != cert.circuit_at(i - 1):
                witnesses.append(("closure-behind", i, k))
    return VerificationReport("window-closure", not witnesses, 2 * n * len(ks), tuple(witnesses))


def window_rank_prediction(
    oracle: MatroidOracle, ordering: CyclicOrdering, params: STParams
) -> VerificationReport:
    """Predicted against oracle rank of the k-window at every start i, for
    1 <= k <= n-t+1.

    Below s the window is independent; from s on the rank is
    floor((s+k-1)/2) when the leading s-window is a circuit and the ceiling
    otherwise.  A witness is (i, k, predicted, actual).
    """
    cert = _full_certificate(oracle, ordering, params, "window-rank check")
    n, s, t = cert.n, cert.s, cert.t
    rank = _window_ranks(oracle, ordering, range(1, n - t + 2))
    witnesses = []
    for (i, k), actual in rank.items():
        if k < s:
            predicted = k
        else:
            predicted = (s + k - 1) // 2 if cert.circuit_at(i) else (s + k) // 2
        if predicted != actual:
            witnesses.append(("window-rank", i, k, predicted, actual))
    return VerificationReport("window-rank", not witnesses, len(rank), tuple(witnesses))


def check_rank_formula(oracle: MatroidOracle, params: STParams) -> bool:
    """Rank (n+s-t)/2 and corank (n-s+t)/2, exactly."""
    n, s, t = oracle.n, params.s, params.t
    if (n + s - t) % 2:
        return False
    r = oracle.rank()
    return r == (n + s - t) // 2 and n - r == (n - s + t) // 2


def full_from_odd_circuits(
    oracle: MatroidOracle, ordering: CyclicOrdering, params: STParams
) -> OrderingCertificate:
    """When a nearly structured ordering on n >= s + t elements has circuits
    at every odd window start, the full certificate must follow; returns it
    for the caller to assert."""
    cert = certify(oracle, ordering, params)
    n, s, t = cert.n, cert.s, cert.t
    _require(cert.nearly, "upgrade needs a nearly structured ordering")
    _require(n >= s + t, f"upgrade needs n >= s + t, got n={n}")
    missing = [i for i in range(1, n + 1, 2) if i not in cert.circuit_starts]
    _require(not missing, f"odd window starts {missing} are not circuits")
    return cert


def unique_window_circuits(
    oracle: MatroidOracle, ordering: CyclicOrdering, params: STParams
) -> VerificationReport:
    """On n >= s + 2t - 4 elements, each (s-1)-window extends to exactly one
    s-element circuit."""
    cert = certify(oracle, ordering, params)
    n, s, t = cert.n, cert.s, cert.t
    _require(cert.nearly, "uniqueness check needs a nearly structured ordering")
    _require(n >= s + 2 * t - 4, f"uniqueness check needs n >= s + 2t - 4, got n={n}")
    counts = oracle.kept("extension-counts")
    witnesses = []
    for i in range(1, n + 1):
        window = ordering.window(i, s - 1)
        count = sum(1 for _ in _extensions(oracle, window)) if counts is None else int(counts[window])
        if count != 1:
            witnesses.append(("window-circuit-count", i, count))
    return VerificationReport("unique-window-circuit", not witnesses, n, tuple(witnesses))


def upgrade_from_nearly(
    oracle: MatroidOracle, ordering: CyclicOrdering, params: STParams
) -> VerificationReport:
    """Nearly structured implies fully structured once n >= 3*t1 + t2 - 5 and
    n >= t1 + 2*t2 - 1; below the bounds the check is vacuous (noted)."""
    s, t = params.s, params.t
    _require(s >= 3 and t >= 3, "the nearly-to-fully upgrade needs s, t >= 3")
    cert = certify(oracle, ordering, params)
    _require(cert.nearly, "upgrade needs a nearly structured ordering")
    t1, t2 = params.t1, params.t2
    if cert.n >= 3 * t1 + t2 - 5 and cert.n >= t1 + 2 * t2 - 1:
        return VerificationReport(
            "nearly-upgrade", cert.full, 1,
            () if cert.full else ((cert.kind, cert.failures),),
        )
    return VerificationReport("nearly-upgrade", True, 0, note="size bounds not met; vacuous")
