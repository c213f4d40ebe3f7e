"""Call tracer for the traced benchmark pass.

Installed only in a traced pass, after set-up and before the timed call.
It rebinds the public functions of each `cycmat` module in every `cycmat`
module that holds them by name (for example `suite` imports
`validate_circuit_axioms` and `orthogonality_check` directly), patches the
hot `MatroidOracle` methods on the class, and wraps the predicate callable
handed to every `MatroidOracle` constructor.

Two kinds of record are kept:

- coarse calls become spans (name, parent span, start, end), kept in memory
  up to `SPAN_CAP` and written out when the pass ends;
- hot leaves (`indep`, predicates, `rank`, `is_circuit`, `is_cocircuit`,
  `orthogonality_check`) only bump aggregated counters, and predicates and
  `rank` also add to aggregated times.

Per group the tracer keeps the call count, the union time (wall time during
which at least one call of the group is on the stack, so nested calls of one
group are not counted twice) and the self time (time not covered by any
traced callee).
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import statistics
import sys
import time
from collections import defaultdict

MODULES = (
    "bitset", "core", "transversal", "constructions", "cyclic",
    "weakmap", "counterexample", "documents", "cli", "suite",
)
SPAN_CAP = 100_000

# (module, function) -> group; a group is the name prefix of its metrics
SPANS = {
    ("bitset", "dependence_table"): "bitset.dependence_table",
    ("core", "validate_circuit_axioms"): "core.validate_circuit_axioms",
    ("core", "verify_matroid_axioms"): "core.verify_matroid_axioms",
    ("core", "oracle_from_circuits"): "core.oracle_from_circuits",
    ("transversal", "max_matching"): "transversal.max_matching",
    ("transversal", "brute_force_matching_size"): "transversal.brute_force_matching_size",
    ("transversal", "transversal_matroid"): "transversal.build",
    ("transversal", "dual_transversal"): "transversal.build",
    ("transversal", "interval_presentation"): "transversal.build",
    ("transversal", "psi"): "transversal.psi",
    ("transversal", "psi_basis_test"): "transversal.psi_basis_test",
    ("transversal", "self_duality_map"): "transversal.self_duality_map",
    ("transversal", "classify_circuit"): "transversal.classify_circuit",
    ("constructions", "uniform"): "constructions.build",
    ("constructions", "wheel"): "constructions.build",
    ("constructions", "whirl"): "constructions.build",
    ("constructions", "free_spike"): "constructions.build",
    ("constructions", "truncate"): "constructions.build",
    ("constructions", "truncation_circuits"): "constructions.truncation_circuits",
    ("cyclic", "certify"): "cyclic.certify",
    ("cyclic", "find_orderings"): "cyclic.find_orderings",
    ("cyclic", "check_adjacent_windows"): "cyclic.window_checks",
    ("cyclic", "check_window_structure"): "cyclic.window_checks",
    ("cyclic", "check_window_closure"): "cyclic.window_checks",
    ("cyclic", "window_rank_prediction"): "cyclic.window_checks",
    ("cyclic", "check_rank_formula"): "cyclic.window_checks",
    ("cyclic", "full_from_odd_circuits"): "cyclic.window_checks",
    ("cyclic", "unique_window_circuits"): "cyclic.window_checks",
    ("cyclic", "upgrade_from_nearly"): "cyclic.window_checks",
    ("weakmap", "is_weak_map"): "weakmap",
    ("weakmap", "is_weak_map_by_independence"): "weakmap",
    ("weakmap", "is_quotient"): "weakmap",
    ("weakmap", "interval_rank_condition"): "weakmap",
    ("weakmap", "truncated_psi_certificate"): "weakmap",
    ("weakmap", "weak_image_of_truncated_psi"): "weakmap",
    ("counterexample", "psi_two_block_circuits"): "counterexample.two_block",
    ("counterexample", "forced_dependents"): "counterexample.ledger",
    ("counterexample", "rank_bound_contradiction"): "counterexample.chain",
    ("documents", "parse"): "documents.parse",
    ("documents", "to_oracle"): "documents.to_oracle",
    ("documents", "canonical_json"): "documents.canonical_json",
    ("documents", "parse_ordering"): "documents.parse_ordering",
    ("suite", "run_suite"): "suite.run_suite",
    ("suite", "random_transversal"): "suite.random_transversal",
}
CLI_COMMANDS = (
    "gen", "rank", "circuits", "verify-ordering", "find-orderings", "weakmap",
    "counterexample",
)


class Tracer:
    def __init__(self) -> None:
        self.clock = time.perf_counter
        self.calls: dict[str, int] = defaultdict(int)
        self.union_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.depth: dict[str, int] = defaultdict(int)
        self.extra: dict[str, float] = defaultdict(float)
        self.latencies: dict[str, list[float]] = defaultdict(list)
        self.distinct: dict[str, set] = defaultdict(set)
        # one frame per open timed call: [time covered by traced callees, span id]
        self.stack: list[list] = [[0.0, -1]]
        self.spans: list[list] = []
        self.dropped = 0
        self.t0 = self.clock()
        self._undo: list[tuple[object, str, object]] = []

    # -- wrappers --------------------------------------------------------------

    def timed(self, group: str, fn, record: bool, note=None, name_of=None):
        """Wrap `fn` so each call adds to `group`'s count, union and self time.

        `record` keeps a span; `note(tracer, args, kwargs, result, seconds)` derives
        extra counters from the call; `name_of(args)` overrides the group.
        """
        tracer = self
        clock = self.clock
        stack = self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            key = name_of(args) if name_of else group
            sid = stack[-1][1]  # unrecorded calls pass their parent span on
            if record:
                if len(tracer.spans) < SPAN_CAP:
                    sid = len(tracer.spans)
                    tracer.spans.append([key, stack[-1][1], 0.0, 0.0])
                else:
                    sid = -1
                    tracer.dropped += 1
            frame = [0.0, sid]
            stack.append(frame)
            tracer.depth[key] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                seconds = clock() - start
                stack.pop()
                tracer.depth[key] -= 1
                tracer.calls[key] += 1
                tracer.self_s[key] += seconds - frame[0]
                if not tracer.depth[key]:
                    tracer.union_s[key] += seconds
                stack[-1][0] += seconds
                if record and sid >= 0:
                    tracer.spans[sid][2] = start - tracer.t0
                    tracer.spans[sid][3] = start + seconds - tracer.t0
            if note is not None:
                note(tracer, args, kwargs, result, seconds)
            return result

        return traced

    def counted(self, key: str, fn):
        calls = self.calls

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)

        return counted

    # -- installation ----------------------------------------------------------

    def _rebind(self, original, replacement, modules) -> None:
        for module in modules:
            for name, value in list(vars(module).items()):
                if value is original:
                    self._undo.append((module, name, value))
                    setattr(module, name, replacement)

    def install(self) -> None:
        package = importlib.import_module("cycmat")
        mods = {name: importlib.import_module(f"cycmat.{name}") for name in MODULES}
        holders = [package, *mods.values()]
        if "cycmat.__main__" in sys.modules:
            holders.append(sys.modules["cycmat.__main__"])
        notes = {
            "bitset.dependence_table": _note_dependence_table,
            "core.validate_circuit_axioms": _note_axioms,
            "core.verify_matroid_axioms": _note_sweep,
            "transversal.psi": _note_psi,
            "cyclic.certify": _note_certify,
            "cyclic.find_orderings": _note_found,
            "counterexample.two_block": _note_two_block,
            "counterexample.ledger": _note_ledger,
        }
        for (module, name), group in SPANS.items():
            original = getattr(mods[module], name)
            self._rebind(original, self.timed(group, original, True, notes.get(group)), holders)
        main = mods["cli"].main
        self._rebind(main, self.timed("cli", main, True, _note_cli, _cli_group), holders)
        ortho = mods["core"].orthogonality_check
        self._rebind(ortho, self.counted("core.orthogonality_check", ortho), holders)

        oracle_cls = mods["core"].MatroidOracle
        patches = {
            "indep": self.counted("core.indep", oracle_cls.indep),
            "is_circuit": self.counted("core.is_circuit", oracle_cls.is_circuit),
            "is_cocircuit": self.counted("core.is_cocircuit", oracle_cls.is_cocircuit),
            "rank": self.timed("core.rank", oracle_cls.rank, False),
            "circuits": self._cold("_circuits", oracle_cls.circuits),
            "cocircuits": self._cold("_cocircuits", oracle_cls.cocircuits),
            "__init__": self._wrap_predicate(oracle_cls.__init__),
        }
        for name, replacement in patches.items():
            self._undo.append((oracle_cls, name, getattr(oracle_cls, name)))
            setattr(oracle_cls, name, replacement)

    def uninstall(self) -> None:
        for holder, name, value in reversed(self._undo):
            setattr(holder, name, value)
        self._undo.clear()

    def _cold(self, slot: str, method):
        """A circuits()/cocircuits() call is cold (an enumeration) when the
        oracle has not filled that family yet."""
        enum = self.timed("core.enum", method, True, _note_enum)

        @functools.wraps(method)
        def family(oracle, *args, **kwargs):
            if getattr(oracle, slot) is None:
                return enum(oracle, *args, **kwargs)
            return method(oracle, *args, **kwargs)

        return family

    def _wrap_predicate(self, init):
        tracer = self

        @functools.wraps(init)
        def __init__(oracle, ground, indep, *args, **kwargs):
            layer = getattr(indep, "__module__", "") or ""
            group = f"{layer.rpartition('.')[2] or 'unknown'}.predicate"
            init(oracle, ground, tracer.timed(group, indep, False), *args, **kwargs)

        return __init__

    # -- results ---------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer values of this pass, keyed by metric name."""
        c, u, own, x = self.calls, self.union_s, self.self_s, self.extra
        evals = sum(v for k, v in c.items() if k.endswith(".predicate"))
        out = {
            "core.predicate.evals": c["core.predicate"],
            "core.predicate.s": own["core.predicate"],
            "core.enum.count": c["core.enum"],
            "core.enum.s": u["core.enum"],
            "core.enum.distinct_ratio": _ratio(len(self.distinct["core.enum"]), c["core.enum"]),
            "core.validate_circuit_axioms.calls": c["core.validate_circuit_axioms"],
            "core.validate_circuit_axioms.s": u["core.validate_circuit_axioms"],
            "core.validate_circuit_axioms.pairs": x["core.validate_circuit_axioms.pairs"],
            "bitset.dependence_table.s": u["bitset.dependence_table"],
            "bitset.dependence_table.cells": x["bitset.dependence_table.cells"],
            "core.orthogonality_check.calls": c["core.orthogonality_check"],
            "core.verify_matroid_axioms.s": u["core.verify_matroid_axioms"],
            "core.verify_matroid_axioms.exhaustive_s": x["core.verify_matroid_axioms.exhaustive_s"],
            "core.verify_matroid_axioms.sampled_s": x["core.verify_matroid_axioms.sampled_s"],
            "core.indep.calls": c["core.indep"],
            "core.memo.hit_ratio": _ratio(c["core.indep"] - evals, c["core.indep"]),
            "core.rank.calls": c["core.rank"],
            "core.rank.self_s": own["core.rank"],
            "core.is_circuit.calls": c["core.is_circuit"],
            "core.is_cocircuit.calls": c["core.is_cocircuit"],
            "transversal.predicate.evals": c["transversal.predicate"],
            "transversal.predicate.s": own["transversal.predicate"],
            "transversal.max_matching.s": u["transversal.max_matching"],
            "transversal.brute_force_matching_size.s": u["transversal.brute_force_matching_size"],
            "transversal.psi.calls": c["transversal.psi"],
            "transversal.psi.distinct_ratio": _ratio(len(self.distinct["transversal.psi"]), c["transversal.psi"]),
            "constructions.build.s": u["constructions.build"],
            "constructions.predicate.s": own["constructions.predicate"],
            "cyclic.certify.calls": c["cyclic.certify"],
            "cyclic.certify.s": u["cyclic.certify"],
            "cyclic.certify.distinct_ratio": _ratio(len(self.distinct["cyclic.certify"]), c["cyclic.certify"]),
            "cyclic.find_orderings.s": u["cyclic.find_orderings"],
            "cyclic.find_orderings.found": x["cyclic.find_orderings.found"],
            "cyclic.window_checks.s": u["cyclic.window_checks"],
            "weakmap.calls": c["weakmap"],
            "weakmap.s": u["weakmap"],
            "counterexample.two_block.s": u["counterexample.two_block"],
            "counterexample.two_block.checked": x["counterexample.two_block.checked"],
            "counterexample.ledger.s": u["counterexample.ledger"],
            "counterexample.ledger.entries": x["counterexample.ledger.entries"],
            "counterexample.chain.s": own["counterexample.chain"],
            "documents.parse.s": u["documents.parse"],
            "documents.to_oracle.s": own["documents.to_oracle"],
            "documents.canonical_json.s": u["documents.canonical_json"],
            "suite.run_suite.self_s": own["suite.run_suite"],
        }
        for command in CLI_COMMANDS:
            samples = self.latencies[f"cli.cmd.{command}"]
            out[f"cli.cmd.{command}.p50_ms"] = 1000 * statistics.median(samples) if samples else 0.0
        return {k: float(v) for k, v in out.items()}

    def write(self, path: str) -> None:
        """Spans as JSON: [name, parent span id, start s, end s] per call."""
        with open(path, "w") as fh:
            json.dump({
                "fields": ["name", "parent", "start_s", "end_s"],
                "spans": self.spans,
                "dropped": self.dropped,
                "calls": self.calls,
                "self_s": self.self_s,
                "union_s": self.union_s,
            }, fh)


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _cli_group(args) -> str:
    argv = args[0] if args else None
    command = argv[0] if argv else "unknown"
    return f"cli.cmd.{command}"


def _note_cli(tracer, args, kwargs, result, seconds) -> None:
    tracer.latencies[_cli_group(args)].append(seconds)


def _note_dependence_table(tracer, args, kwargs, result, seconds) -> None:
    n = args[0]
    tracer.extra["bitset.dependence_table.cells"] += n * 2 ** n


def _note_axioms(tracer, args, kwargs, result, seconds) -> None:
    family = args[0]
    size = len(family.members if hasattr(family, "members") else tuple(family))
    tracer.extra["core.validate_circuit_axioms.pairs"] += math.comb(size, 2)


def _note_sweep(tracer, args, kwargs, result, seconds) -> None:
    kind = "sampled" if result.note == "sampled" else "exhaustive"
    tracer.extra[f"core.verify_matroid_axioms.{kind}_s"] += seconds


def _note_enum(tracer, args, kwargs, result, seconds) -> None:
    tracer.distinct["core.enum"].add((result.n, result.members))


def _note_psi(tracer, args, kwargs, result, seconds) -> None:
    tracer.distinct["transversal.psi"].add(tuple(args) + tuple(sorted(kwargs.items())))


def _note_certify(tracer, args, kwargs, result, seconds) -> None:
    oracle, ordering, params = args[:3]
    # identity of the oracle object: the module-level certificate cache is
    # keyed on it, so a fresh oracle for the same matroid is a new key
    tracer.distinct["cyclic.certify"].add((id(oracle), ordering.order, params))


def _note_found(tracer, args, kwargs, result, seconds) -> None:
    tracer.extra["cyclic.find_orderings.found"] += len(result)


def _note_two_block(tracer, args, kwargs, result, seconds) -> None:
    tracer.extra["counterexample.two_block.checked"] += result.checked


def _note_ledger(tracer, args, kwargs, result, seconds) -> None:
    tracer.extra["counterexample.ledger.entries"] += len(result)
