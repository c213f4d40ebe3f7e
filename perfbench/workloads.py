"""The benchmark's workloads: inputs from a seed, one timed pass, and grading.

Each workload is constructed in a fresh interpreter (set-up: only the seed
and plain data go in, plus document files for `cli-mix`), then `run()` is the
timed pass and returns one latency per request, then `grade()` checks every
operation against expectations that do not come from the code under test
(constants recorded at commit 20c3bee, the paper's bounds, or the
independent implementations in `reference.py`).

Library calls go through module attributes (`suite.run_suite`, not a name
imported here) so that the traced pass sees them after the tracer rebinds.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import itertools
import json
import os
import random
import time
from dataclasses import dataclass
from typing import Callable

import cycmat.cli as cli
import cycmat.constructions as constructions
import cycmat.core as core
import cycmat.cyclic as cyclic
import cycmat.documents as documents
import cycmat.suite as suite
import cycmat.transversal as transversal

import reference

clock = time.perf_counter

SUITE_SEED = 20260810  # the suite's own default seed
SUITE_14_HASH_PREFIX = "8402595bd15c7503"  # sha256 of the max-n 14 report at SUITE_SEED
SUITE_14_CHECKS = 350


@dataclass
class Grade:
    attempted: int
    failures: list[str]
    digest: str  # hash of every answer; equal across passes of one seed


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def upgrade_bound_holds(n: int, s: int, t: int) -> bool:
    """Nearly structured implies fully structured from this size on."""
    t1, t2 = min(s, t), max(s, t)
    return n >= 3 * t1 + t2 - 5 and n >= t1 + 2 * t2 - 1


class Suite14:
    """`run_suite(max_n=14, seed)` and its canonical report.

    The timed request is the whole call; the graded operations are its checks.
    """

    name = "suite-14"

    def __init__(self, seed: int, workdir: str, inject_mutant: bool = False):
        self.seed = seed
        self.inject_mutant = inject_mutant

    def run(self) -> list[float]:
        start = clock()
        self.report = suite.run_suite(max_n=14, seed=self.seed, inject_mutant=self.inject_mutant)
        self.text = documents.canonical_json(self.report)
        return [clock() - start]

    def grade(self) -> Grade:
        expected = SUITE_14_CHECKS + self.inject_mutant
        entries = self.report["entries"]
        failures = [f"check {e['check']} {e['params']} failed" for e in entries if not e["ok"]]
        if len(entries) != expected:
            failures.append(f"{len(entries)} checks, expected {expected}")
        digest = hashlib.sha256(self.text.encode()).hexdigest()
        if self.seed == SUITE_SEED and not self.inject_mutant and not digest.startswith(SUITE_14_HASH_PREFIX):
            failures.append(f"report hash {digest[:16]}, expected {SUITE_14_HASH_PREFIX}")
        return Grade(max(len(entries), expected), failures, digest)


# label, constructor, (s, t), expected (nearly, full) counts at commit 20c3bee
ORDERING_FIXTURES = (
    ("spike(6)", lambda: constructions.free_spike(6, validate=False)[0], (4, 4), (3840, 3840)),
    ("U(4,8)", lambda: constructions.uniform(4, 8), (5, 5), (2520, 2520)),
    ("U(3,8)", lambda: constructions.uniform(3, 8), (4, 6), (2520, 2520)),
    ("psi(12,4)", lambda: transversal.psi(12, 4), (4, 4), (64, 64)),
    ("T^1(psi(12,4))", lambda: constructions.truncate(transversal.psi(12, 4), 1), (4, 6), (64, 64)),
)
RANDOM_ORDERING_FIXTURES = 3
CERTIFY_SAMPLE = 48


class Orderings:
    """Ordering search in both modes, then `certify` and `upgrade_from_nearly`
    on a seeded sample of the orderings found.

    The timed request is the whole pass; the graded operations are the fixtures.
    """

    name = "orderings"

    def __init__(self, seed: int, workdir: str):
        rng = random.Random(seed)
        self.fixtures = [(label, build, st, counts) for label, build, st, counts in ORDERING_FIXTURES]
        for idx in range(RANDOM_ORDERING_FIXTURES):
            # the same distribution as the suite's random transversal fixtures
            nbhds = [rng.sample(range(1, 9), rng.randint(2, 5)) for _ in range(rng.randint(3, 5))]
            self.fixtures.append((
                f"random-{idx}",
                lambda nbhds=nbhds: transversal.transversal_matroid(transversal.BipartitePresentation(
                    core.GroundSet(8), tuple(sum(1 << (e - 1) for e in nb) for nb in nbhds))),
                (3, 3), None,
            ))
        self.sample_seeds = [rng.getrandbits(32) for _ in self.fixtures]

    def run(self) -> list[float]:
        start = clock()
        self.results = []
        for (label, build, (s, t), _), sample_seed in zip(self.fixtures, self.sample_seeds):
            oracle = build()
            params = cyclic.STParams(s, t)
            nearly = cyclic.find_orderings(oracle, params, mode=cyclic.NEARLY)
            full = cyclic.find_orderings(oracle, params, mode=cyclic.FULL)
            picks = random.Random(sample_seed).sample(range(len(nearly)), min(CERTIFY_SAMPLE, len(nearly)))
            certs = [cyclic.certify(oracle, nearly[i], params) for i in picks]
            upgrades = [cyclic.upgrade_from_nearly(oracle, nearly[i], params) for i in picks]
            self.results.append((oracle.n, nearly, full, picks, certs, upgrades))
        return [clock() - start]

    def grade(self) -> Grade:
        failures, answers = [], []
        for (label, _, (s, t), counts), (n, nearly, full, picks, certs, upgrades) in zip(
            self.fixtures, self.results
        ):
            nearly_set = {o.canonical for o in nearly}
            full_set = {o.canonical for o in full}
            problems = []
            if counts is not None and (len(nearly), len(full)) != counts:
                problems.append(f"found {len(nearly)}/{len(full)}, expected {counts[0]}/{counts[1]}")
            if not full_set <= nearly_set:
                problems.append("a fully structured ordering is not nearly structured")
            bound = upgrade_bound_holds(n, s, t)
            if bound and nearly_set != full_set:
                problems.append("nearly and full differ above the upgrade bound")
            for i, cert, upgrade in zip(picks, certs, upgrades):
                if not cert.nearly or cert.full != (nearly[i].canonical in full_set):
                    problems.append(f"certificate of {nearly[i].order} disagrees with the search")
                if not upgrade.ok or (upgrade.checked == 1) != bound:
                    problems.append(f"upgrade report for {nearly[i].order} is wrong")
            if problems:
                failures.append(f"{label}: {'; '.join(problems[:3])}")
            answers.append([label, sorted(nearly_set), sorted(full_set), picks,
                            [c.kind for c in certs], [u.ok for u in upgrades]])
        return Grade(len(self.fixtures), failures, _digest(answers))


def _call_cli(argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects the command line
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue()


# (n, s) -> (ledger entries, non-axiom instances, two-block sets checked) at commit 20c3bee
REFUTE_POINTS = {
    (16, 4): (24, 16, 16),
    (16, 5): (104, 96, 96),
    (16, 6): (232, 224, 224),
    (18, 6): (261, 252, 252),
}


class Refute:
    """`cycmat counterexample n s` at each point, in seeded order.

    The timed request is the whole pass; the graded operations are the points.
    """

    name = "refute"

    def __init__(self, seed: int, workdir: str):
        self.points = sorted(REFUTE_POINTS)
        random.Random(seed).shuffle(self.points)

    def run(self) -> list[float]:
        start = clock()
        self.outputs = [_call_cli(["counterexample", str(n), str(s)]) for n, s in self.points]
        return [clock() - start]

    def grade(self) -> Grade:
        failures = []
        for (n, s), (code, text) in zip(self.points, self.outputs):
            entries, instances, checked = REFUTE_POINTS[(n, s)]
            if code != 0:
                failures.append(f"counterexample {n} {s}: exit {code}")
                continue
            out = json.loads(text)
            expect = {
                "two-block ok": (out["two_block_circuits"]["ok"], True),
                "two-block checked": (out["two_block_circuits"]["checked"], checked),
                "ledger": (out["ledger"], {"entries": entries, "instances": instances}),
                "contradiction": (out["conclusion"]["contradiction"], True),
                "rank bound": (out["conclusion"]["rank_bound"], n // 2),
                "claimed rank": (out["conclusion"]["claimed_rank"], n // 2 + 1),
                "chain end": (out["chain"][-1]["bound"], n // 2),
                "spanning steps": (len(out["spanning"]), s - 2),
            }
            wrong = [f"{k} is {got}, expected {want}" for k, (got, want) in expect.items() if got != want]
            if wrong:
                failures.append(f"counterexample {n} {s}: {'; '.join(wrong)}")
        return Grade(len(self.points), failures, _digest([self.points, self.outputs]))


@dataclass
class Request:
    cls: str
    argv: list[str]
    # (exit code, stdout) -> failure message or None; called after the pass
    expect: Callable[[int, str], str | None]


def _expect(code: int, check: Callable[[dict], str | None] | None = None):
    def grade(got: int, text: str) -> str | None:
        if got != code:
            return f"exit {got}, expected {code}"
        return check(json.loads(text)) if check else None
    return grade


def _expect_equal(code: int, want: Callable[[], dict]):
    return _expect(code, lambda out: None if out == want() else f"output differs from {want()}")


def _expect_relation(want: Callable[[], bool]):
    """A weak-map or quotient answer: exit 0 and holds, or exit 1 and fails."""
    def grade(got: int, text: str) -> str | None:
        holds = want()
        return _expect(0 if holds else 1, lambda out: None if out["holds"] == holds else
                       f"holds={out['holds']}, expected {holds}")(got, text)
    return grade


class CliMix:
    """A closed loop of 120 requests from one client through `cli.main(argv)`.

    The class counts are fixed so that the latency quantiles land inside a
    class on every seed: the cheapest 44 requests (generators, `rank --set`,
    rejected input, `verify-ordering`), 40 mid-cost ones (`circuits` on small
    representations, `weakmap`, `find-orderings --limit`, transversal ranks)
    which hold the median, 14 upper ones, then 16 `circuits` requests on the
    n = 16 circuits document, which hold p90, and 6 whole-matroid ranks of
    psi(200, 4) on top.  The seed picks the order and the details that barely
    move a request's cost (subsets, orderings, neighbourhoods, element order).  Sizes,
    limits and weak-map directions are fixed: chosen by the seed, they moved
    the median request by about 8 % from seed to seed.
    """

    name = "cli-mix"

    def __init__(self, seed: int, workdir: str):
        self.rng = rng = random.Random(seed)
        self.dir = workdir
        self.requests: list[Request] = []
        self._circuits = functools.cache(lambda label, n, make_indep: reference.circuits(make_indep(), n))
        self._build_light()
        self._build_mid()
        self._build_heavy()
        rng.shuffle(self.requests)

    # -- inputs ------------------------------------------------------------

    def _write(self, name: str, payload) -> str:
        path = os.path.join(self.dir, name)
        with open(path, "w") as fh:
            fh.write(payload if isinstance(payload, str) else json.dumps(payload, sort_keys=True, indent=2))
        return path

    def _doc(self, name: str, body: dict) -> str:
        return self._write(name, {"schema": 1, "matroid": body})

    def _add(self, cls: str, argv: list[str], expect) -> None:
        self.requests.append(Request(cls, argv, expect))

    def _subset(self, n: int) -> list[int]:
        return sorted(self.rng.sample(range(1, n + 1), self.rng.randint(5, 12)))

    def _transversal(self, n: int, m: int, size: int) -> list[list[int]]:
        return [sorted(self.rng.sample(range(1, n + 1), size)) for _ in range(m)]

    def _build_light(self) -> None:
        rng = self.rng
        nbhds = self._transversal(10, 4, 4)
        tfile = self._write("gen-transversal.json", {"n": 10, "neighborhoods": nbhds})
        gens = [
            (["--psi", "200", "4"], {"psi": {"n": 200, "s": 4}}),
            (["--psi", "64", "6"], {"psi": {"n": 64, "s": 6}}),
            (["--uniform", "3", "1000"], {"uniform": {"r": 3, "n": 1000}}),
            (["--uniform", "40", "100"], {"uniform": {"r": 40, "n": 100}}),
            (["--wheel", "6"], {"construction": {"kind": "wheel", "r": 6}}),
            (["--free-spike", "4"], {"construction": {"kind": "free_spike", "r": 4}}),
            (["--truncate", "1", "--psi", "10", "3"], {"truncate": {"i": 1, "inner": {"psi": {"n": 10, "s": 3}}}}),
            (["--truncate", "2", "--uniform", "5", "9"], {"truncate": {"i": 2, "inner": {"uniform": {"r": 5, "n": 9}}}}),
            (["--transversal", tfile], {"transversal": {"n": 10, "neighborhoods": nbhds}}),
            (["--wheel", "3"], {"construction": {"kind": "wheel", "r": 3}}),
        ]
        for flags, body in gens:
            self._add("gen", ["gen", *flags], _expect_equal(0, lambda body=body: {"schema": 1, "matroid": body}))

        psi_sizes = ((200, 3), (200, 4), (300, 4), (300, 5), (400, 3), (400, 5), (200, 3), (300, 4))
        for idx in range(16):
            kind = idx % 4
            if kind in (0, 1):
                n, s = psi_sizes[idx // 2]
                doc = self._doc(f"set-psi-{idx}.json", {"psi": {"n": n, "s": s}})
                x = self._subset(n)
                want = lambda n=n, s=s, x=x: {"set": x, "rank": reference.psi_rank(n, s, x)}
            elif kind == 2:
                n = (150, 250)[idx // 4 % 2]
                nb = self._transversal(n, n // 3, 6)
                doc = self._doc(f"set-transversal-{idx}.json", {"transversal": {"n": n, "neighborhoods": nb}})
                x = self._subset(n)
                want = lambda nb=nb, x=x: {"set": x, "rank": reference.transversal_rank(nb, x)}
            else:
                n, r = 10_000, rng.randint(2, 20)
                doc = self._doc(f"set-uniform-{idx}.json", {"uniform": {"r": r, "n": n}})
                x = self._subset(n)
                want = lambda r=r, x=x: {"set": x, "rank": min(r, len(x))}
            self._add("rank-set", ["rank", doc, "--set", ",".join(map(str, x))], _expect_equal(0, want))

        psi12 = self._doc("psi-12-4.json", {"psi": {"n": 12, "s": 4}})
        psi10 = self._doc("psi-10-3.json", {"psi": {"n": 10, "s": 3}})
        u1000 = self._doc("u-3-1000.json", {"uniform": {"r": 3, "n": 1000}})
        rejected = [
            ["gen", "--psi", "9", "4"],
            ["rank", u1000, "--set", "1,1001"],
            ["rank", self._write("bad-schema.json", {"schema": 2, "matroid": {"uniform": {"r": 1, "n": 3}}})],
            ["rank", self._write("malformed.json", '{"schema": 1, "matroid": ')],
            ["circuits", self._doc("u-2-21.json", {"uniform": {"r": 2, "n": 21}})],
            ["find-orderings", self._doc("psi-14-4.json", {"psi": {"n": 14, "s": 4}}), "--s", "4", "--t", "4"],
            ["verify-ordering", psi12, self._write("short-order.json", list(range(1, 11))), "--s", "4", "--t", "4"],
            ["weakmap", psi10, psi12],
        ]
        for argv in rejected:
            self._add("rejected", argv, _expect(2))

        natural = list(range(1, 13))
        # transpositions (0-based positions) that leave psi(12, 4) unstructured
        breaking = ((1, 4), (2, 5), (0, 6), (3, 9), (1, 2))
        for idx in range(10):
            if idx % 2 == 0:
                k = rng.randrange(12)
                order = natural[k:] + natural[:k]
                if rng.random() < 0.5:
                    order.reverse()
                code = 0
            else:
                i, j = rng.choice(breaking)
                order = natural[:]
                order[i], order[j] = order[j], order[i]
                code = 1
            path = self._write(f"order-{idx}.json", order)
            mode = rng.choice(("nearly", "full"))
            self._add("verify-ordering", ["verify-ordering", psi12, path, "--s", "4", "--t", "4", "--mode", mode],
                      _expect(code, lambda out, code=code: None if (out["kind"] == "full") == (code == 0)
                              else f"certificate kind {out['kind']}"))

    def _build_mid(self) -> None:
        small = [
            ("U(3,7)", {"uniform": {"r": 3, "n": 7}}, 7, lambda: reference.uniform_indep(3)),
            ("U(4,8)", {"uniform": {"r": 4, "n": 8}}, 8, lambda: reference.uniform_indep(4)),
            ("psi(10,3)", {"psi": {"n": 10, "s": 3}}, 10, lambda: reference.psi_indep(10, 3)),
            ("psi(10,4)", {"psi": {"n": 10, "s": 4}}, 10, lambda: reference.psi_indep(10, 4)),
            ("psi(8,3)", {"psi": {"n": 8, "s": 3}}, 8, lambda: reference.psi_indep(8, 3)),
            ("T1psi(10,3)", {"truncate": {"i": 1, "inner": {"psi": {"n": 10, "s": 3}}}}, 10,
             lambda: reference.truncated_indep(reference.psi_indep(10, 3), 4)),
            ("wheel(4)", {"construction": {"kind": "wheel", "r": 4}}, 8, lambda: reference.wheel_indep(4)),
            ("wheel(5)", {"construction": {"kind": "wheel", "r": 5}}, 10, lambda: reference.wheel_indep(5)),
            ("spike(4)", {"construction": {"kind": "free_spike", "r": 4}}, 8, lambda: reference.spike_indep(4)),
            ("spike(5)", {"construction": {"kind": "free_spike", "r": 5}}, 10, lambda: reference.spike_indep(5)),
        ]
        nb = self._transversal(10, 5, 3)
        small.append(("transversal", {"transversal": {"n": 10, "neighborhoods": nb}}, 10,
                      lambda nb=nb: reference.transversal_indep(nb)))
        paths = {label: self._doc(f"small-{i}.json", body) for i, (label, body, _, _) in enumerate(small)}
        for idx in range(16):
            label, _, n, indep = small[idx % len(small)]
            want = lambda label=label, n=n, indep=indep: {"n": n, "circuits": self._circuits(label, n, indep)}
            self._add("circuits-small", ["circuits", paths[label]], _expect_equal(0, want))

        pairs = [
            ("psi(10,3)", "T1psi(10,3)"),
            ("psi(10,4)", "T1psi(10,4)"),
            ("wheel(5)", "T1wheel(5)"),
        ]
        paths["T1psi(10,4)"] = self._doc("t1-psi-10-4.json", {"truncate": {"i": 1, "inner": {"psi": {"n": 10, "s": 4}}}})
        paths["T1wheel(5)"] = self._doc("t1-wheel-5.json", {"truncate": {"i": 1, "inner": {"construction": {"kind": "wheel", "r": 5}}}})
        indeps = {label: (n, indep) for label, _, n, indep in small}
        indeps["T1psi(10,4)"] = (10, lambda: reference.truncated_indep(reference.psi_indep(10, 4), 4))
        indeps["T1wheel(5)"] = (10, lambda: reference.truncated_indep(reference.wheel_indep(5), 4))

        def family(label):
            n, indep = indeps[label]
            return self._circuits(label, n, indep)

        for upper, lower in pairs:
            for a, b in ((upper, lower), (lower, upper)):
                self._add("weakmap", ["weakmap", paths[a], paths[b], "--quotient"], _expect_relation(
                    lambda a=a, b=b: reference.is_quotient(family(a), family(b))))
                self._add("weakmap", ["weakmap", paths[a], paths[b]], _expect_relation(
                    lambda a=a, b=b: reference.is_weak_map(family(a), indeps[b][1]())))

        psi12 = os.path.join(self.dir, "psi-12-4.json")
        for idx, limit in enumerate((3, 6, 10, 14, 18, 24)):
            mode = ("nearly", "full")[idx % 2]
            self._add("find-orderings",
                      ["find-orderings", psi12, "--s", "4", "--t", "4", "--mode", mode, "--limit", str(limit)],
                      _expect(0, lambda out, limit=limit: None if out["count"] == min(limit, 64)
                              and len({tuple(o) for o in out["orderings"]}) == out["count"]
                              else f"found {out['count']}"))

        for idx in range(6):
            nb = self._transversal(100, 33, 6)
            doc = self._doc(f"transversal-100-{idx}.json", {"transversal": {"n": 100, "neighborhoods": nb}})
            self._add("rank-transversal", ["rank", doc], _expect_equal(
                0, lambda nb=nb: {"n": 100, "rank": reference.transversal_rank(nb, range(1, 101))}))

    def _build_heavy(self) -> None:
        rng = self.rng
        for idx in range(4):
            doc = self._doc(f"psi-100-{idx}.json", {"psi": {"n": 100, "s": 4}})
            self._add("rank-psi-100", ["rank", doc], _expect_equal(0, lambda: {"n": 100, "rank": 50}))
        u_big = self._doc("u-big.json", {"uniform": {"r": 50_000, "n": 100_000}})
        for idx in range(4):
            x = self._subset(100_000)
            self._add("rank-set-uniform-1e5", ["rank", u_big, "--set", ",".join(map(str, x))],
                      _expect_equal(0, lambda x=x: {"set": x, "rank": len(x)}))
        for n, count in ((14, 3), (15, 3), (16, 16)):
            all_4 = [list(c) for c in itertools.combinations(range(1, n + 1), 4)]
            shuffled = [rng.sample(c, 4) for c in all_4]
            rng.shuffle(shuffled)
            doc = self._doc(f"circuits-u3-{n}.json", {"circuits": {"n": n, "circuits": shuffled}})
            for _ in range(count):
                self._add(f"circuits-doc-{n}", ["circuits", doc],
                          _expect_equal(0, lambda n=n, all_4=all_4: {"n": n, "circuits": all_4}))
        doc = self._doc("psi-200-4.json", {"psi": {"n": 200, "s": 4}})
        for _ in range(6):
            self._add("rank-psi-200", ["rank", doc], _expect_equal(0, lambda: {"n": 200, "rank": 100}))

    # -- the pass ----------------------------------------------------------

    def run(self) -> list[float]:
        latencies, self.outputs = [], []
        for request in self.requests:
            start = clock()
            self.outputs.append(_call_cli(request.argv))
            latencies.append(clock() - start)
        return latencies

    def grade(self) -> Grade:
        failures = []
        for request, (code, text) in zip(self.requests, self.outputs):
            try:
                problem = request.expect(code, text)
            except (ValueError, KeyError, TypeError) as exc:
                problem = f"unreadable output: {exc!r}"
            if problem:
                failures.append(f"{' '.join(os.path.basename(a) for a in request.argv)}: {problem}")
        answers = [[r.cls, code, text] for r, (code, text) in zip(self.requests, self.outputs)]
        return Grade(len(self.requests), failures, _digest(answers))


WORKLOADS = {w.name: w for w in (Suite14, Orderings, CliMix, Refute)}
