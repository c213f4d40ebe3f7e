"""Command-line front end.

Exit codes: 0 when the requested property holds (or output was produced),
1 when a verified property fails (a witness is reported), 2 for invalid
input or unmet preconditions.  All JSON output is canonical so reports can
be compared byte for byte.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import sys
import time

import numpy as np

from . import bitset, documents
from .constructions import CONSTRUCTIONS
from .cyclic import FULL, NEARLY, CyclicOrdering, STParams, certify, find_orderings
from .counterexample import forced_dependents, psi_two_block_circuits, rank_bound_contradiction
from .documents import canonical_json
from .suite import DEFAULT_MAX_N, DEFAULT_SEED, FAMILY_NAMES, run_suite
from .transversal import psi
from .weakmap import ElementBijection, is_quotient, is_weak_map


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (ValueError, OSError) as exc:  # CapExceeded is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OverflowError, MemoryError):  # a ground set too large to hold
        print("error: input too large to hold in memory", file=sys.stderr)
        return 2


@functools.cache  # parse_args leaves the parser as it was; building it costs more than most requests
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cycmat",
        description="matroid construction, cyclic-ordering verification, and the check suite",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="emit a matroid document")
    _add_construction_flags(gen)
    gen.add_argument("--truncate", type=int, metavar="I", help="wrap the construction in a truncation")
    _add_out(gen)
    gen.set_defaults(handler=_cmd_gen)

    rank = sub.add_parser("rank", help="rank of a document matroid or a subset")
    rank.add_argument("doc", help="matroid document path ('-' for stdin)")
    rank.add_argument("--set", dest="subset", help="comma-separated 1-based element indices")
    _add_out(rank)
    rank.set_defaults(handler=_cmd_rank)

    circuits = sub.add_parser("circuits", help="enumerate circuits of a document matroid")
    circuits.add_argument("doc")
    _add_out(circuits)
    circuits.set_defaults(handler=_cmd_circuits)

    verify = sub.add_parser("verify-ordering", help="certify an ordering against (s, t)")
    verify.add_argument("doc")
    verify.add_argument("ordering", help="JSON array of 1-based indices ('-' for stdin)")
    verify.add_argument("--s", type=int, required=True)
    verify.add_argument("--t", type=int, required=True)
    verify.add_argument("--mode", choices=(NEARLY, FULL), default=FULL)
    _add_out(verify)
    verify.set_defaults(handler=_cmd_verify)

    find = sub.add_parser("find-orderings", help="search orderings meeting a mode")
    find.add_argument("doc")
    find.add_argument("--s", type=int, required=True)
    find.add_argument("--t", type=int, required=True)
    find.add_argument("--mode", choices=(NEARLY, FULL), default=NEARLY)
    find.add_argument("--limit", type=int, default=None)
    _add_out(find)
    find.set_defaults(handler=_cmd_find)

    weak = sub.add_parser("weakmap", help="test a weak map (or quotient) between documents")
    weak.add_argument("doc1")
    weak.add_argument("doc2")
    relation = weak.add_mutually_exclusive_group()
    relation.add_argument("--map", dest="mapping",
                          help="'identity' (the default) or a JSON array file mapping source to target indices")
    relation.add_argument("--quotient", action="store_true",
                          help="test the quotient relation instead (same ground set)")
    _add_out(weak)
    weak.set_defaults(handler=_cmd_weakmap)

    suite = sub.add_parser("suite", help="run the full verification suite")
    suite.add_argument("--max-n", type=int, default=DEFAULT_MAX_N)
    suite.add_argument("--seed", type=int, default=DEFAULT_SEED)
    suite.add_argument("--families", help=f"comma list from: {', '.join(FAMILY_NAMES)}")
    suite.add_argument("--inject-mutant", action="store_true",
                       help="add a deliberately broken fixture (exercises the failure path)")
    _add_out(suite)
    suite.set_defaults(handler=_cmd_suite)

    counter = sub.add_parser("counterexample", help="certify the quotient refutation for (n, s)")
    counter.add_argument("n", type=int)
    counter.add_argument("s", type=int)
    _add_out(counter)
    counter.set_defaults(handler=_cmd_counterexample)

    return parser


def _add_construction_flags(parser: argparse.ArgumentParser) -> None:
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--uniform", nargs=2, type=int, metavar=("R", "N"))
    group.add_argument("--psi", nargs=2, type=int, metavar=("N", "S"))
    for kind in CONSTRUCTIONS:  # --wheel, --whirl, --free-spike
        group.add_argument("--" + kind.replace("_", "-"), type=int, metavar="R")
    group.add_argument("--transversal", metavar="FILE",
                       help="JSON file: {\"n\": ..., \"neighborhoods\": [[...], ...]}")


def _add_out(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out", help="write output here instead of stdout")


def _write(args, text: str) -> None:
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path) as fh:
        return fh.read()


def _load_oracle(path: str):
    return documents.to_oracle(documents.decode(_read(path), "document"))


def _cmd_gen(args) -> int:
    if args.uniform:
        doc = documents.doc_uniform(*args.uniform)
    elif args.psi:
        doc = documents.doc_psi(*args.psi)
    elif kind := next((k for k in CONSTRUCTIONS if getattr(args, k) is not None), None):
        doc = documents.doc_construction(kind, getattr(args, kind))
    else:
        payload = documents.decode(_read(args.transversal), "transversal file")
        documents.validate_matroid({"transversal": payload})
        doc = documents.doc_transversal(payload["n"], payload["neighborhoods"])
    if args.truncate is not None:
        doc = documents.doc_truncate(doc, args.truncate)
    documents.to_oracle(doc)  # reject invalid parameters before emitting
    _write(args, canonical_json(doc))
    return 0


def _cmd_rank(args) -> int:
    oracle = _load_oracle(args.doc)
    if args.subset is not None:
        elements = [int(x) for x in args.subset.split(",") if x.strip()]
        mask = oracle.ground.mask(elements)
        result = {"set": sorted(set(elements)), "rank": oracle.rank(mask)}
    else:
        result = {"rank": oracle.rank(), "n": oracle.n}
    _write(args, canonical_json(result))
    return 0


def _cmd_circuits(args) -> int:
    oracle = _load_oracle(args.doc)
    _write(args, canonical_json({"n": oracle.n, "circuits": oracle.circuits()}))
    return 0


def _cmd_verify(args) -> int:
    oracle = _load_oracle(args.doc)
    order = documents.parse_ordering(_read(args.ordering), oracle.n)
    cert = certify(oracle, CyclicOrdering(order), STParams(args.s, args.t))
    _write(args, canonical_json(dataclasses.asdict(cert)))
    meets = cert.full if args.mode == FULL else cert.nearly
    return 0 if meets else 1


def _cmd_find(args) -> int:
    oracle = _load_oracle(args.doc)
    params = STParams(args.s, args.t)
    found = find_orderings(oracle, params, mode=args.mode, limit=args.limit)
    orderings = np.array([o.canonical for o in found], dtype=np.int64).reshape(len(found), oracle.n)
    payload = {"mode": args.mode, "count": len(found), "orderings": orderings}
    _write(args, canonical_json(payload))
    return 0


def _cmd_weakmap(args) -> int:
    source = _load_oracle(args.doc1)
    target = _load_oracle(args.doc2)
    if args.quotient:
        report = is_quotient(source, target)
    else:
        if args.mapping in (None, "identity"):
            phi = ElementBijection.identity(source.n)
        else:
            phi = ElementBijection(documents.parse_ordering(_read(args.mapping), source.n))
        report = is_weak_map(source, target, phi)
    payload = {
        "relation": report.check,
        "holds": report.ok,
        "violating_circuit": list(bitset.indices(report.witnesses[0])) if report.witnesses else None,
    }
    _write(args, canonical_json(payload))
    return 0 if report.ok else 1


def _cmd_suite(args) -> int:
    families = tuple(args.families.split(",")) if args.families else None
    start = time.monotonic()
    report = run_suite(
        max_n=args.max_n,
        seed=args.seed,
        families=families,
        inject_mutant=args.inject_mutant,
    )
    elapsed = time.monotonic() - start
    _write(args, canonical_json(report))
    summary = report["summary"]
    print(
        f"suite: {summary['passed']}/{summary['total']} checks passed "
        f"in {elapsed:.1f}s (timings kept off the canonical report)",
        file=sys.stderr,
    )
    if summary["failed"]:
        first = summary["first_failure"]
        print(f"first failure: {first['check']} {first['params']}", file=sys.stderr)
        return 1
    return 0


def _cmd_counterexample(args) -> int:
    n, s = args.n, args.s
    ledger = forced_dependents(n, s)  # checks the parameters first
    oracle = psi(n, s)
    circuits_report = psi_two_block_circuits(oracle, s)
    contradiction = rank_bound_contradiction(ledger, oracle)
    payload = {
        "n": n,
        "s": s,
        "two_block_circuits": {
            "ok": circuits_report.ok,
            "checked": circuits_report.checked,
        },
        "ledger": {"entries": len(ledger), "instances": ledger.instance_count()},
        "chain": [
            {
                "prefix_size": step.prefix_size,
                "bound": step.bound,
                "rule": step.rule,
                "support": None if step.support is None else list(bitset.indices(step.support)),
            }
            for step in contradiction.chain
        ],
        "spanning": [
            {"x": x, "circuit": list(bitset.indices(mask))}
            for x, mask in contradiction.spanning
        ],
        "conclusion": {
            "rank_bound": contradiction.rank_bound,
            "claimed_rank": contradiction.claimed_rank,
            "contradiction": contradiction.ok and circuits_report.ok,
        },
    }
    _write(args, canonical_json(payload))
    return 0 if contradiction.ok and circuits_report.ok else 1


if __name__ == "__main__":
    sys.exit(main())
