"""The verification suite: every structural check over a fixture grid.

Every matroid is built once per run and shared by label (`FixtureSet.oracle`),
so oracle memoisation carries across checks; only the cross-checks that
compare two constructions, and the negative controls, build their own.  The
refutation and truncation-certificate checks read the run's psi(n, s) and
T^i(psi(n, s)), and each forced ledger is derived once (`FixtureSet.ledger`).
Entries are keyed by check name and parameters and the report is assembled
in sorted order, making the output independent of execution order and
byte-stable across runs with the same seed.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable

import numpy as np

from . import bitset
from .constructions import free_spike, truncate, truncation_circuits, uniform, wheel, whirl
from .core import (
    GroundSet,
    MatroidOracle,
    VerificationReport,
    orthogonality_violation,
    validate_circuit_axioms,
    verify_matroid_axioms,
)
from .counterexample import (
    ForcedLedger,
    forced_dependents,
    psi_two_block_circuits,
    rank_bound_contradiction,
)
from .cyclic import (
    NEARLY,
    STParams,
    certify,
    check_adjacent_windows,
    check_rank_formula,
    check_window_closure,
    check_window_structure,
    find_orderings,
    full_from_odd_circuits,
    natural_ordering,
    size_bounds,
    unique_window_circuits,
    upgrade_from_nearly,
    window_rank_prediction,
)
from .transversal import (
    BipartitePresentation,
    brute_force_matching_size,
    classify_circuit,
    dual_transversal,
    interval_presentation,
    max_matching,
    psi,
    psi_basis_table,
    self_duality_map,
    transversal_matroid,
)
from .weakmap import (
    interval_rank_condition,
    is_quotient,
    truncated_psi_certificate,
    weak_image_of_truncated_psi,
)

DEFAULT_SEED = 20260810
DEFAULT_MAX_N = 12

# fixture grids; each run keeps the entries with n <= max_n
PSI_GRID = ((8, 3), (10, 3), (12, 3), (8, 4), (12, 4), (12, 5), (14, 3), (14, 4))
TRUNCATION_GRID = ((10, 3, 5), (12, 3, 5), (12, 4, 6), (14, 3, 5), (14, 3, 7))  # (n, s, t)
UNIFORM_GRID = ((2, 4, 3, 3), (2, 5, 3, 4), (3, 6, 4, 4))  # (r, n, s, t)
WHEEL_GRID = (3, 4, 5, 6)
SPIKE_GRID = (3, 4, 5, 6)
TWO_BLOCK_GRID = ((8, 4), (12, 4), (12, 5))
CONTRADICTION_GRID = ((8, 4), (12, 5))
RANDOM_COUNT = 20

FAMILY_NAMES = (
    "uniform", "wheel", "whirl", "spike", "psi", "truncation", "random", "counterexample",
)


@dataclass
class Fixture:
    label: str
    oracle: MatroidOracle
    st: STParams | None = None


class FixtureSet:
    """Lazily built, cached fixtures for one suite run: one oracle per label."""

    def __init__(self, max_n: int, seed: int, families: tuple[str, ...]):
        self.max_n = max_n
        self.seed = seed
        self.families = families
        self._built: dict[str, list[Fixture]] = {}
        self._oracles: dict[str, MatroidOracle] = {}
        self._ledgers: dict[tuple[int, int], ForcedLedger] = {}
        # label -> "error: ..." for each grid fixture whose build raised
        self.broken: dict[str, str] = {}

    def oracle(self, label: str, build: Callable[[], MatroidOracle]) -> MatroidOracle:
        """The run's oracle for `label`, from `build` on first use, whether or
        not the label lies in the run's grid."""
        if label not in self._oracles:
            self._oracles[label] = build()
        return self._oracles[label]

    def enabled(self, family: str) -> bool:
        return family in self.families

    def group(self, family: str) -> list[Fixture]:
        if not self.enabled(family):
            return []
        if family not in self._built:
            self._built[family] = []
            for label, build, st in self._grid(family):
                try:
                    self._built[family].append(Fixture(label, build(), st))
                except Exception as exc:  # a broken fixture is a failed entry, not a dead run
                    self.broken[label] = f"error: {exc}"
        return self._built[family]

    def truncation(self, fx: Fixture) -> MatroidOracle:
        """T^1 of a fixture, shared by the checks that compare the two."""
        return self.oracle(f"T^1({fx.label})", lambda: truncate(fx.oracle, 1))

    def psi(self, n: int, s: int) -> MatroidOracle:
        return self.oracle(f"psi({n},{s})", lambda: psi(n, s))

    def truncated_psi(self, n: int, s: int, i: int) -> MatroidOracle:
        return self.oracle(f"T^{i}(psi({n},{s}))", lambda: truncate(self.psi(n, s), i))

    def ledger(self, n: int, s: int) -> ForcedLedger:
        if (n, s) not in self._ledgers:
            self._ledgers[n, s] = forced_dependents(n, s)
        return self._ledgers[n, s]

    def uniform(self, r: int, n: int) -> MatroidOracle:
        return self.oracle(f"U({r},{n})", lambda: uniform(r, n))

    def wheel(self, r: int) -> MatroidOracle:
        return self.oracle(f"wheel({r})", lambda: wheel(r))

    def whirl(self, r: int) -> MatroidOracle:
        return self.oracle(f"whirl({r})", lambda: whirl(r))

    def spike(self, r: int) -> MatroidOracle:
        return self.oracle(f"spike({r})", lambda: free_spike(r)[0])

    def _grid(self, family: str):
        """(label, build, st) for each fixture of `family` in the grid."""
        if family == "psi":
            for n, s in PSI_GRID:
                if n <= self.max_n:
                    yield f"psi({n},{s})", partial(self.psi, n, s), STParams(s, s)
        elif family == "truncation":
            for n, s, t in TRUNCATION_GRID:
                if n <= self.max_n:
                    i = (t - s) // 2
                    yield f"T^{i}(psi({n},{s}))", partial(self.truncated_psi, n, s, i), STParams(s, t)
        elif family == "uniform":
            for r, n, s, t in UNIFORM_GRID:
                if n <= self.max_n:
                    yield f"U({r},{n})", partial(self.uniform, r, n), STParams(s, t)
        elif family in ("wheel", "whirl", "spike"):
            st = STParams(4, 4) if family == "spike" else STParams(3, 3)
            for r in SPIKE_GRID if family == "spike" else WHEEL_GRID:
                if 2 * r <= self.max_n:
                    yield f"{family}({r})", partial(getattr(self, family), r), st
        elif family == "random":
            rng = random.Random(self.seed)
            for idx in range(RANDOM_COUNT):
                yield f"random-{idx}", partial(random_transversal, rng, 8), None

    def all_oracles(self) -> list[Fixture]:
        out: list[Fixture] = []
        for family in ("uniform", "wheel", "whirl", "spike", "psi", "truncation"):
            out.extend(self.group(family))
        return out

    def cyclic_fixtures(self) -> list[Fixture]:
        return self.group("psi") + self.group("truncation")


def random_transversal(rng: random.Random, n: int) -> MatroidOracle:
    m = rng.randint(3, 5)
    neighborhoods = []
    for _ in range(m):
        size = rng.randint(2, 5)
        neighborhoods.append(bitset.mask_of(rng.sample(range(1, n + 1), size)))
    pres = BipartitePresentation(GroundSet(n), tuple(neighborhoods))
    return transversal_matroid(pres)


def _mask_list(masks) -> list[list[int]]:
    return [list(bitset.indices(m)) for m in masks]


def _entry(result: Any) -> tuple[bool, Any]:
    """A check's result as (ok, witness): a report gives its first witness,
    a bool none, and an (ok, witness) pair is kept as it is."""
    if isinstance(result, VerificationReport):
        return result.ok, list(result.witnesses[:1]) or None
    if isinstance(result, bool):
        return result, None
    ok, witness = result
    return ok, witness


def run_suite(
    max_n: int = DEFAULT_MAX_N,
    seed: int = DEFAULT_SEED,
    families: tuple[str, ...] | None = None,
    inject_mutant: bool = False,
) -> dict:
    if max_n < 1:
        raise ValueError(f"max_n must be positive, got {max_n}")
    chosen = tuple(families) if families else FAMILY_NAMES
    unknown = set(chosen) - set(FAMILY_NAMES)
    if unknown:
        raise ValueError(f"unknown fixture families: {sorted(unknown)}")
    fixtures = FixtureSet(max_n, seed, chosen)
    entries: list[dict] = []

    def record(check: str, params: dict, fn: Callable[..., Any], *args: Any) -> None:
        """Run the check `fn(*args)` now and keep its `_entry`; a raise is a
        failed entry, not a dead run.  The check has run when `record`
        returns, so a closure may read the caller's loop variables."""
        try:
            ok, witness = _entry(fn(*args))
        except Exception as exc:
            ok, witness = False, f"error: {exc}"
        entries.append({"check": check, "params": params, "ok": ok, "witness": witness})

    _structural_checks(fixtures, record)
    _transversal_checks(fixtures, record)
    _window_checks(fixtures, record)
    _ordering_checks(fixtures, record)
    _relation_checks(fixtures, record)
    _counterexample_checks(fixtures, record)
    if inject_mutant:
        record("circuit-axioms", {"matroid": "mutant-U(2,4)"}, _mutant_check)
    for label, error in fixtures.broken.items():
        record("fixture-build", {"matroid": label}, lambda: (False, error))

    entries.sort(key=lambda e: (e["check"], json.dumps(e["params"], sort_keys=True)))
    failed = [e for e in entries if not e["ok"]]
    report = {
        "schema": 1,
        "seed": seed,
        "max_n": max_n,
        "families": sorted(chosen),
        "entries": entries,
        "summary": {
            "total": len(entries),
            "passed": len(entries) - len(failed),
            "failed": len(failed),
            "first_failure": None if not failed else {
                key: failed[0][key] for key in ("check", "params", "witness")
            },
        },
    }
    return report


def _mutant_check() -> VerificationReport:
    full = [bitset.mask_of(c) for c in ([1, 2, 3], [1, 2, 4], [1, 3, 4])]
    return validate_circuit_axioms(full, 4)


def _structural_checks(fixtures: FixtureSet, record) -> None:
    for fx in fixtures.all_oracles():
        params = {"matroid": fx.label}
        oracle = fx.oracle
        record("dual-rank-sum", params, lambda: oracle.rank() + oracle.dual().rank() == oracle.n)
        record("circuit-axioms", params,
               lambda: validate_circuit_axioms(oracle.circuits(), oracle.n))
        record("exchange-sweep", params, verify_matroid_axioms, oracle)
        record("orthogonality", params, _orthogonality_entry, oracle)
        if oracle.n <= 8:
            record("dual-involution", params, lambda: _first_disagreement(
                oracle.independence_table(), oracle.dual().dual().independence_table()))


def _orthogonality_entry(oracle: MatroidOracle) -> tuple[bool, Any]:
    pair = orthogonality_violation(oracle.circuits(), oracle.cocircuits(), oracle.n)
    if pair is None:
        return True, None
    return False, _mask_list(pair)


def _first_disagreement(left: np.ndarray, right: np.ndarray) -> tuple[bool, Any]:
    """Entry comparing two ``bool`` tables over all 2^n masks; the witness is
    the lowest mask on which they differ."""
    differ = np.flatnonzero(left != right)
    if len(differ):
        return False, list(bitset.indices(int(differ[0])))
    return True, None


def _transversal_checks(fixtures: FixtureSet, record) -> None:
    for fx in fixtures.group("psi"):
        oracle = fx.oracle
        n, s = oracle.n, fx.st.s
        params = {"n": n, "s": s}
        pres = interval_presentation(n, s)
        if n <= 12:
            record("dual-transversal-equivalence", params, _dual_equivalence_entry, pres)
            record("basis-characterization", params, lambda: _first_disagreement(
                psi_basis_table(n, s),
                (bitset.set_sizes(n) == n // 2) & oracle.independence_table()))
            record("self-duality", params, _self_duality_entry, n, s, oracle)
            record("circuit-classification", params, _classification_entry, pres, oracle)
            record("deficiency-dichotomy", params, _deficiency_entry, pres, oracle)
        record("matching-cross-check", params, _matching_entry, pres, fixtures.seed)


def _dual_equivalence_entry(pres) -> tuple[bool, Any]:
    # the Hall rank-m table against the greedy rank of the primal Hall table
    direct = dual_transversal(pres.base)
    generic = transversal_matroid(pres.base).dual()
    return _first_disagreement(direct.independence_table(), generic.independence_table())


def _self_duality_entry(n: int, s: int, oracle: MatroidOracle) -> tuple[bool, Any]:
    perm = self_duality_map(n, s)
    return _family_difference(
        set(oracle.cocircuits().members), {bitset.permute(c, perm) for c in oracle.circuits()}
    )


def _family_difference(expected: set[int], actual: set[int]) -> tuple[bool, Any]:
    """Entry comparing two families of masks; the witness lists up to two
    members of each side that the other lacks, in mask order."""
    if expected == actual:
        return True, None
    return False, {
        "missing": _mask_list(sorted(expected - actual)[:2]),
        "extra": _mask_list(sorted(actual - expected)[:2]),
    }


def _classification_entry(pres, oracle: MatroidOracle) -> tuple[bool, Any]:
    for circuit in oracle.circuits():
        outcome = classify_circuit(oracle, pres, circuit)
        if not outcome.ok:
            return False, list(bitset.indices(circuit))
    return True, None


def _deficiency_entry(pres, oracle: MatroidOracle) -> tuple[bool, Any]:
    unions = pres.base.unions
    for circuit in oracle.circuits():
        for j_mask, union in enumerate(unions):
            size = j_mask.bit_count()
            if (union & ~circuit).bit_count() < size:
                size_ok = circuit.bit_count() == union.bit_count() - size + 1
                if not (bitset.is_subset(circuit, union) and size_ok):
                    lefts = list(bitset.indices(j_mask))
                    return False, {"circuit": list(bitset.indices(circuit)), "J": lefts}
    return True, None


def _matching_entry(pres, seed: int) -> tuple[bool, Any]:
    rng = random.Random(seed)
    n = pres.n
    avoids = [0] + [1 << i for i in range(n)] + [
        rng.getrandbits(n) for _ in range(40)
    ]
    for avoid in avoids:
        avoid &= pres.base.ground.full
        fast = max_matching(pres.base, avoid)
        slow = brute_force_matching_size(pres.base, avoid)
        if fast.size != slow:
            return False, {"avoid": list(bitset.indices(avoid)), "fast": fast.size, "slow": slow}
        if fast.size < pres.m:
            # the König witness attains the maximum deficiency, m - size
            lefts = fast.witness
            union = pres.base.unions[bitset.mask_of(lefts)]
            if len(lefts) - (union & ~avoid).bit_count() != pres.m - fast.size:
                return False, {"avoid": list(bitset.indices(avoid)), "witness": list(lefts)}
    return True, None


def _window_checks(fixtures: FixtureSet, record) -> None:
    for fx in fixtures.cyclic_fixtures():
        oracle, st = fx.oracle, fx.st
        n = oracle.n
        params = {"matroid": fx.label, "s": st.s, "t": st.t}
        ordering = natural_ordering(n)
        record("rank-formula", params, check_rank_formula, oracle, st)
        if n > st.s + st.t - 2:
            record("window-flanks", params, check_adjacent_windows, oracle, ordering, st)
            if (st.s - st.t) % 2 == 0:
                record("window-structure", params, check_window_structure, oracle, ordering, st)
            record("window-closure", params, check_window_closure, oracle, ordering, st)
            record("window-rank", params, window_rank_prediction, oracle, ordering, st)
        if n >= st.s + st.t:
            record("odd-start-upgrade", params,
                   lambda: full_from_odd_circuits(oracle, ordering, st).full)
        if n >= st.s + 2 * st.t - 4:
            record("unique-window-circuit", params, unique_window_circuits, oracle, ordering, st)
        record("reversal-closure", params, lambda: (
            certify(oracle, ordering.reversed_order(), st).full
            == certify(oracle, ordering, st).full))
    for fx in fixtures.group("uniform"):
        params = {"matroid": fx.label, "s": fx.st.s, "t": fx.st.t}
        record("rank-formula", params, check_rank_formula, fx.oracle, fx.st)
        record("boundary-certificate", params,
               lambda: certify(fx.oracle, natural_ordering(fx.oracle.n), fx.st).full)
    for n, s, t, nearly_ok, full_ok in (
        (9, 3, 5, True, False),
        (6, 3, 4, True, False),
        (1, 2, 2, False, False),
        (8, 3, 3, True, True),
    ):
        record("size-bounds", {"n": n, "s": s, "t": t},
               _size_bounds_entry, n, s, t, nearly_ok, full_ok)


def _size_bounds_entry(n: int, s: int, t: int, nearly_ok: bool, full_ok: bool) -> bool:
    bounds = size_bounds(n, STParams(s, t))
    return bounds.nearly_allowed == nearly_ok and bounds.full_allowed == full_ok


def _ordering_checks(fixtures: FixtureSet, record) -> None:
    st = STParams(3, 3)
    if fixtures.enabled("psi") and fixtures.max_n >= 8:
        record("nearly-upgrade", {"matroid": "psi(8,3)"},
               lambda: _upgrade_entry(fixtures.psi(8, 3), st))
    if fixtures.enabled("wheel") and fixtures.max_n >= 8:
        record("nearly-upgrade", {"matroid": "wheel(4)"},
               lambda: _upgrade_entry(fixtures.wheel(4), st))
    for fx in fixtures.group("random"):
        record("nearly-upgrade", {"matroid": fx.label}, _upgrade_entry, fx.oracle, st)
    if fixtures.enabled("whirl"):
        record("below-bound-survey", {"matroid": "whirl(3)"},
               lambda: _survey_entry(fixtures.whirl(3), st))
    if fixtures.enabled("wheel"):
        # the 3-spoke wheel is the known source of nearly-not-full data at n = 6
        record("below-bound-survey", {"matroid": "wheel(3)"},
               lambda: _survey_entry(fixtures.wheel(3), st))
    if fixtures.enabled("uniform"):
        record("below-bound-survey", {"matroid": "U(2,4)"},
               lambda: _survey_entry(fixtures.uniform(2, 4), st))


def _upgrade_entry(oracle: MatroidOracle, st: STParams) -> tuple[bool, Any]:
    orderings = find_orderings(oracle, st, mode=NEARLY)
    for ordering in orderings:
        report = upgrade_from_nearly(oracle, ordering, st)
        if not report.ok:
            return False, {"order": list(ordering.order)}
    return True, {"nearly_orderings": len(orderings)}


def _survey_entry(oracle: MatroidOracle, st: STParams) -> tuple[bool, Any]:
    # informational: report nearly-but-not-full orderings below the bound
    orderings = find_orderings(oracle, st, mode=NEARLY)
    gaps = [o for o in orderings if not certify(oracle, o, st).full]
    return True, {
        "nearly_orderings": len(orderings),
        "nearly_not_full": len(gaps),
        "example": list(gaps[0].order) if gaps else None,
    }


def _relation_checks(fixtures: FixtureSet, record) -> None:
    if fixtures.enabled("truncation"):
        # the run's T^((t-s)/2)(psi(n, s)), usually certified by the window checks
        # already; n <= 12 only, so that the pinned max-n 14 report keeps its entries
        for n, s, t in (TRUNCATION_GRID + ((12, 4, 4),)):
            if n <= min(fixtures.max_n, DEFAULT_MAX_N):
                record("truncation-cyclic", {"n": n, "s": s, "t": t},
                       lambda: truncated_psi_certificate(
                           fixtures.truncated_psi(n, s, (t - s) // 2), s, t).full)
    if fixtures.enabled("psi") and fixtures.max_n >= 10:
        pipeline = [
            ("wheel(4)", partial(fixtures.wheel, 4), STParams(3, 3)),
            ("spike(4)", partial(fixtures.spike, 4), STParams(4, 4)),
            ("T^1(psi(10,3))", partial(fixtures.truncated_psi, 10, 3, 1), STParams(3, 5)),
        ]
        for label, build, st in pipeline:
            record("weak-map-pipeline", {"matroid": label, "s": st.s, "t": st.t},
                   lambda: _pipeline_entry(fixtures, build(), st))
    if fixtures.enabled("psi") and fixtures.max_n >= 8:
        for label, build, expected in (
            ("wheel(4)", partial(fixtures.wheel, 4), True),
            ("psi(8,3)", partial(fixtures.psi, 8, 3), True),
            ("U(8,8)", partial(uniform, 8, 8), False),
        ):
            record("interval-rank-weakmap", {"matroid": label},
                   lambda: _interval_rank_entry(fixtures, build(), expected))
    for fx in fixtures.all_oracles():
        if fx.oracle.n <= 10 and fx.oracle.rank() >= 1:
            params = {"matroid": fx.label}
            record("quotient-truncation", params,
                   lambda: is_quotient(fx.oracle, fixtures.truncation(fx)).ok)
            record("truncation-circuits", params, lambda: _family_difference(
                set(truncation_circuits(fx.oracle, 1).members),
                set(fixtures.truncation(fx).circuits().members)))


def _pipeline_entry(fixtures: FixtureSet, oracle: MatroidOracle, st: STParams) -> tuple[bool, Any]:
    target = fixtures.truncated_psi(oracle.n, st.s, (st.t - st.s) // 2)
    report = weak_image_of_truncated_psi(oracle, natural_ordering(oracle.n), st, target)
    return report.ok, _mask_list(report.witnesses) or None


def _interval_rank_entry(
    fixtures: FixtureSet, oracle: MatroidOracle, expected: bool
) -> tuple[bool, Any]:
    report = interval_rank_condition(oracle, interval_presentation(8, 3), fixtures.psi(8, 3))
    if report.ok != expected:
        return False, {"condition": report.ok}
    return True, None


def _counterexample_checks(fixtures: FixtureSet, record) -> None:
    if not fixtures.enabled("counterexample"):
        return
    for n, s in TWO_BLOCK_GRID:
        if n <= fixtures.max_n:
            record("two-block-circuits", {"n": n, "s": s},
                   lambda: psi_two_block_circuits(fixtures.psi(n, s), s))
            record("forced-ledger", {"n": n, "s": s},
                   lambda: _ledger_entry(fixtures.ledger(n, s), fixtures.psi(n, s)))
    for n, s in CONTRADICTION_GRID:
        if n <= fixtures.max_n:
            record("rank-contradiction", {"n": n, "s": s},
                   lambda: rank_bound_contradiction(fixtures.ledger(n, s), fixtures.psi(n, s)).ok)


def _ledger_entry(ledger: ForcedLedger, oracle: MatroidOracle) -> tuple[bool, Any]:
    report = ledger.verify_dependent(oracle)
    if not report.ok:
        return False, list(report.witnesses[:1])
    return True, {"entries": len(ledger), "instances": ledger.instance_count()}
