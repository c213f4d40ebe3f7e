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
    family: str
    label: str
    oracle: MatroidOracle
    st: STParams | None = None
    psi_params: tuple[int, int] | None = None


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
            for label, build, st, psi_params in self._grid(family):
                try:
                    self._built[family].append(Fixture(family, label, build(), st, psi_params))
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
        """(label, build, st, psi_params) for each fixture of `family` in the grid."""
        if family == "psi":
            for n, s in PSI_GRID:
                if n <= self.max_n:
                    yield f"psi({n},{s})", partial(self.psi, n, s), STParams(s, s), (n, s)
        elif family == "truncation":
            for n, s, t in TRUNCATION_GRID:
                if n <= self.max_n:
                    i = (t - s) // 2
                    yield (f"T^{i}(psi({n},{s}))", partial(self.truncated_psi, n, s, i),
                           STParams(s, t), (n, s))
        elif family == "uniform":
            for r, n, s, t in UNIFORM_GRID:
                if n <= self.max_n:
                    yield f"U({r},{n})", partial(self.uniform, r, n), STParams(s, t), None
        elif family in ("wheel", "whirl", "spike"):
            st = STParams(4, 4) if family == "spike" else STParams(3, 3)
            for r in SPIKE_GRID if family == "spike" else WHEEL_GRID:
                if 2 * r <= self.max_n:
                    yield f"{family}({r})", partial(getattr(self, family), r), st, None
        elif family == "random":
            rng = random.Random(self.seed)
            for idx in range(RANDOM_COUNT):
                yield f"random-{idx}", partial(random_transversal, rng, 8), None, None

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


@dataclass(frozen=True)
class SuiteEntry:
    check: str
    params: dict
    ok: bool
    witness: Any = None


def _mask_list(masks) -> list[list[int]]:
    return [list(bitset.indices(m)) for m in masks]


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
    entries: list[SuiteEntry] = []

    def record(check: str, params: dict, thunk: Callable[[], tuple[bool, Any]]) -> None:
        try:
            ok, witness = thunk()
        except Exception as exc:  # a crash is a failed entry, not a dead run
            ok, witness = False, f"error: {exc}"
        entries.append(SuiteEntry(check, params, ok, witness))

    _structural_checks(fixtures, record)
    _transversal_checks(fixtures, record)
    _window_checks(fixtures, record)
    _ordering_checks(fixtures, record)
    _relation_checks(fixtures, record)
    _counterexample_checks(fixtures, record)
    if inject_mutant:
        record("circuit-axioms", {"matroid": "mutant-U(2,4)"}, _mutant_check)
    for label, error in fixtures.broken.items():
        entries.append(SuiteEntry("fixture-build", {"matroid": label}, False, error))

    entries.sort(key=lambda e: (e.check, json.dumps(e.params, sort_keys=True)))
    failed = [e for e in entries if not e.ok]
    report = {
        "schema": 1,
        "seed": seed,
        "max_n": max_n,
        "families": sorted(chosen),
        "entries": [
            {"check": e.check, "params": e.params, "ok": e.ok, "witness": e.witness}
            for e in entries
        ],
        "summary": {
            "total": len(entries),
            "passed": len(entries) - len(failed),
            "failed": len(failed),
            "first_failure": None if not failed else {
                "check": failed[0].check,
                "params": failed[0].params,
                "witness": failed[0].witness,
            },
        },
    }
    return report


def _mutant_check() -> tuple[bool, Any]:
    full = [bitset.mask_of(c) for c in ([1, 2, 3], [1, 2, 4], [1, 3, 4])]
    report = validate_circuit_axioms(full, 4)
    return report.ok, report.violations[:1] or None


def _structural_checks(fixtures: FixtureSet, record) -> None:
    for fx in fixtures.all_oracles():
        params = {"matroid": fx.label}
        record("dual-rank-sum", params, lambda fx=fx: (
            fx.oracle.rank() + fx.oracle.dual().rank() == fx.oracle.n, None))
        record("circuit-axioms", params, lambda fx=fx: _axioms_entry(fx))
        record("exchange-sweep", params, lambda fx=fx: _exchange_entry(fx))
        record("orthogonality", params, lambda fx=fx: _orthogonality_entry(fx))
        if fx.oracle.n <= 8:
            record("dual-involution", params, lambda fx=fx: _dual_involution_entry(fx))


def _axioms_entry(fx: Fixture) -> tuple[bool, Any]:
    report = validate_circuit_axioms(fx.oracle.circuits(), fx.oracle.n)
    return report.ok, report.violations[:1] or None


def _exchange_entry(fx: Fixture) -> tuple[bool, Any]:
    report = verify_matroid_axioms(fx.oracle)
    return report.ok, report.witnesses[:1] or None


def _orthogonality_entry(fx: Fixture) -> tuple[bool, Any]:
    oracle = fx.oracle
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


def _dual_involution_entry(fx: Fixture) -> tuple[bool, Any]:
    oracle = fx.oracle
    return _first_disagreement(
        oracle.independence_table(), oracle.dual().dual().independence_table()
    )


def _transversal_checks(fixtures: FixtureSet, record) -> None:
    for fx in fixtures.group("psi"):
        n, s = fx.psi_params
        params = {"n": n, "s": s}
        pres = interval_presentation(n, s)
        if n <= 12:
            record("dual-transversal-equivalence", params,
                   lambda pres=pres: _dual_equivalence_entry(pres))
            record("basis-characterization", params,
                   lambda n=n, s=s, fx=fx: _basis_entry(n, s, fx.oracle))
            record("self-duality", params,
                   lambda n=n, s=s, fx=fx: _self_duality_entry(n, s, fx.oracle))
            record("circuit-classification", params,
                   lambda pres=pres, fx=fx: _classification_entry(pres, fx.oracle))
            record("deficiency-dichotomy", params,
                   lambda pres=pres, fx=fx: _deficiency_entry(pres, fx.oracle))
        record("matching-cross-check", params,
               lambda pres=pres, seed=fixtures.seed: _matching_entry(pres, seed))


def _dual_equivalence_entry(pres) -> tuple[bool, Any]:
    # the Hall rank-m table against the greedy rank of the primal Hall table
    direct = dual_transversal(pres.base)
    generic = transversal_matroid(pres.base).dual()
    return _first_disagreement(direct.independence_table(), generic.independence_table())


def _basis_entry(n: int, s: int, oracle: MatroidOracle) -> tuple[bool, Any]:
    return _first_disagreement(
        psi_basis_table(n, s), (bitset.set_sizes(n) == n // 2) & oracle.independence_table()
    )


def _self_duality_entry(n: int, s: int, oracle: MatroidOracle) -> tuple[bool, Any]:
    perm = self_duality_map(n, s)
    mapped = {bitset.permute(c, perm) for c in oracle.circuits()}
    actual = set(oracle.cocircuits().members)
    if mapped != actual:
        return False, {
            "missing": _mask_list(sorted(actual - mapped)[:2]),
            "extra": _mask_list(sorted(mapped - actual)[:2]),
        }
    return True, None


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
        st = fx.st
        n = fx.oracle.n
        params = {"matroid": fx.label, "s": st.s, "t": st.t}
        ordering = natural_ordering(n)
        record("rank-formula", params, lambda fx=fx, st=st: (check_rank_formula(fx.oracle, st), None))
        if n > st.s + st.t - 2:
            record("window-flanks", params, lambda fx=fx, o=ordering, st=st: _report_entry(
                check_adjacent_windows(fx.oracle, o, st)))
            if (st.s - st.t) % 2 == 0:
                record("window-structure", params, lambda fx=fx, o=ordering, st=st: _report_entry(
                    check_window_structure(fx.oracle, o, st)))
            record("window-closure", params, lambda fx=fx, o=ordering, st=st: _closure_entry(
                fx.oracle, o, st))
            record("window-rank", params, lambda fx=fx, o=ordering, st=st: _window_rank_entry(
                fx.oracle, o, st))
        if n >= st.s + st.t:
            record("odd-start-upgrade", params, lambda fx=fx, o=ordering, st=st: (
                full_from_odd_circuits(fx.oracle, o, st).full, None))
        if n >= st.s + 2 * st.t - 4:
            record("unique-window-circuit", params, lambda fx=fx, o=ordering, st=st: _report_entry(
                unique_window_circuits(fx.oracle, o, st)))
        record("reversal-closure", params, lambda fx=fx, o=ordering, st=st: (
            certify(fx.oracle, o.reversed_order(), st).full
            == certify(fx.oracle, o, st).full, None))
    for fx in fixtures.group("uniform"):
        params = {"matroid": fx.label, "s": fx.st.s, "t": fx.st.t}
        record("rank-formula", params, lambda fx=fx: (check_rank_formula(fx.oracle, fx.st), None))
        record("boundary-certificate", params, lambda fx=fx: (
            certify(fx.oracle, natural_ordering(fx.oracle.n), fx.st).full, None))
    for n, s, t, nearly_ok, full_ok in (
        (9, 3, 5, True, False),
        (6, 3, 4, True, False),
        (1, 2, 2, False, False),
        (8, 3, 3, True, True),
    ):
        params = {"n": n, "s": s, "t": t}
        record("size-bounds", params, lambda n=n, s=s, t=t, a=nearly_ok, b=full_ok: (
            (lambda rep: rep.nearly_allowed == a and rep.full_allowed == b)(
                size_bounds(n, STParams(s, t))), None))


def _report_entry(report) -> tuple[bool, Any]:
    return report.ok, list(report.witnesses[:1]) or None


def _closure_entry(oracle, ordering, st) -> tuple[bool, Any]:
    n = oracle.n
    for i in range(1, n + 1):
        for k in range(st.s - 1, n - st.t + 1):
            ahead, behind = check_window_closure(oracle, ordering, st, i, k)
            if not (ahead and behind):
                return False, {"i": i, "k": k}
    return True, None


def _window_rank_entry(oracle, ordering, st) -> tuple[bool, Any]:
    n = oracle.n
    for i in range(1, n + 1):
        for k in range(1, n - st.t + 2):
            predicted, actual = window_rank_prediction(oracle, ordering, st, i, k)
            if predicted != actual:
                return False, {"i": i, "k": k, "predicted": predicted, "actual": actual}
    return True, None


def _ordering_checks(fixtures: FixtureSet, record) -> None:
    st = STParams(3, 3)
    # builds run inside `record`, so a fixture that fails to build is a failed entry
    targets: list[tuple[str, Callable[[], MatroidOracle]]] = []
    if fixtures.enabled("psi") and fixtures.max_n >= 8:
        targets.append(("psi(8,3)", partial(fixtures.psi, 8, 3)))
    if fixtures.enabled("wheel") and fixtures.max_n >= 8:
        targets.append(("wheel(4)", partial(fixtures.wheel, 4)))
    for fx in fixtures.group("random"):
        targets.append((fx.label, lambda fx=fx: fx.oracle))
    for label, build in targets:
        record("nearly-upgrade", {"matroid": label}, lambda build=build: _upgrade_entry(build(), st))
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
                       lambda n=n, s=s, t=t: (truncated_psi_certificate(
                           fixtures.truncated_psi(n, s, (t - s) // 2), s, t).full, None))
    if fixtures.enabled("psi") and fixtures.max_n >= 10:
        pipeline = [
            ("wheel(4)", partial(fixtures.wheel, 4), STParams(3, 3)),
            ("spike(4)", partial(fixtures.spike, 4), STParams(4, 4)),
            ("T^1(psi(10,3))", partial(fixtures.truncated_psi, 10, 3, 1), STParams(3, 5)),
        ]
        for label, build, st in pipeline:
            record("weak-map-pipeline", {"matroid": label, "s": st.s, "t": st.t},
                   lambda build=build, st=st: _pipeline_entry(fixtures, build(), st))
    if fixtures.enabled("psi") and fixtures.max_n >= 8:
        for label, build, expected in (
            ("wheel(4)", partial(fixtures.wheel, 4), True),
            ("psi(8,3)", partial(fixtures.psi, 8, 3), True),
            ("U(8,8)", partial(uniform, 8, 8), False),
        ):
            record("interval-rank-weakmap", {"matroid": label}, lambda build=build,
                   expected=expected: _interval_rank_entry(fixtures, build(), expected))
    for fx in fixtures.all_oracles():
        if fx.oracle.n <= 10 and fx.oracle.rank() >= 1:
            params = {"matroid": fx.label}
            record("quotient-truncation", params, lambda fx=fx: (
                is_quotient(fx.oracle, fixtures.truncation(fx)).holds, None))
            record("truncation-circuits", params, lambda fx=fx: _truncation_circuits_entry(
                fx.oracle, fixtures.truncation(fx)))


def _pipeline_entry(fixtures: FixtureSet, oracle: MatroidOracle, st: STParams) -> tuple[bool, Any]:
    target = fixtures.truncated_psi(oracle.n, st.s, (st.t - st.s) // 2)
    report = weak_image_of_truncated_psi(oracle, natural_ordering(oracle.n), st, target)
    witness = None if report.holds else _mask_list([report.violating_circuit])
    return report.holds, witness


def _interval_rank_entry(
    fixtures: FixtureSet, oracle: MatroidOracle, expected: bool
) -> tuple[bool, Any]:
    outcome = interval_rank_condition(oracle, interval_presentation(8, 3), fixtures.psi(8, 3))
    if outcome.condition != expected:
        return False, {"condition": outcome.condition}
    return True, None


def _truncation_circuits_entry(
    oracle: MatroidOracle, truncated: MatroidOracle
) -> tuple[bool, Any]:
    expected = set(truncation_circuits(oracle, 1).members)
    actual = set(truncated.circuits().members)
    if expected != actual:
        return False, {
            "missing": _mask_list(sorted(expected - actual)[:2]),
            "extra": _mask_list(sorted(actual - expected)[:2]),
        }
    return True, None


def _counterexample_checks(fixtures: FixtureSet, record) -> None:
    if not fixtures.enabled("counterexample"):
        return
    for n, s in TWO_BLOCK_GRID:
        if n <= fixtures.max_n:
            record("two-block-circuits", {"n": n, "s": s}, lambda n=n, s=s: _report_entry(
                psi_two_block_circuits(fixtures.psi(n, s), s)))
            record("forced-ledger", {"n": n, "s": s},
                   lambda n=n, s=s: _ledger_entry(fixtures.ledger(n, s), fixtures.psi(n, s)))
    for n, s in CONTRADICTION_GRID:
        if n <= fixtures.max_n:
            record("rank-contradiction", {"n": n, "s": s}, lambda n=n, s=s: (
                rank_bound_contradiction(fixtures.ledger(n, s), fixtures.psi(n, s)).ok, None))


def _ledger_entry(ledger: ForcedLedger, oracle: MatroidOracle) -> tuple[bool, Any]:
    report = ledger.verify_dependent(oracle)
    if not report.ok:
        return False, list(report.witnesses[:1])
    return True, {"entries": len(ledger), "instances": ledger.instance_count()}
