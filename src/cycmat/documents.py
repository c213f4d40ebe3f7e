"""Canonical JSON documents for matroids and orderings.

Documents carry exactly one representation; set lists hold 1-based element
indices.  Emission is canonical (sorted keys, two-space indent, trailing
newline) so equal documents are byte-equal and goldens can be compared
directly.  `canonical_json` is the one emitter of every CLI output: its
bytes equal ``json.dumps(obj, sort_keys=True, indent=2) + "\\n"``, but it
does not call that: with an indent the stdlib skips its C encoder for a
pure-Python generator, several times slower than this emitter on a long
circuit list.  A `CircuitFamily` value emits as its `as_indices()` list,
written straight from the family's index arrays.
"""

from __future__ import annotations

import json
from itertools import chain
from json.encoder import encode_basestring_ascii
from typing import Any

import numpy as np

from . import bitset
from .constructions import CONSTRUCTIONS, truncate, uniform
from .core import CircuitFamily, GroundSet, MatroidOracle, oracle_from_circuits
from .transversal import BipartitePresentation, psi, transversal_matroid

SCHEMA_VERSION = 1

# the one declaration of each representation: its payload fields, in the
# order `validate_matroid` checks them, and its builder of a checked payload.
# Each builder looks its functions up when called, so a rebinding of the
# module's names (perfbench's tracer) reaches it, as in `CONSTRUCTIONS`.
_REPRESENTATIONS = {
    "uniform": (("r", "n"), lambda p: uniform(p["r"], p["n"])),
    "psi": (("n", "s"), lambda p: psi(p["n"], p["s"])),
    "circuits": (
        ("n", "circuits"),
        lambda p: oracle_from_circuits(
            GroundSet(p["n"]),
            bitset.mask_rows(p["circuits"], p["n"]),
            name="document-circuits",
            validate=False,
        ),
    ),
    "transversal": (
        ("n", "neighborhoods"),
        lambda p: transversal_matroid(
            BipartitePresentation(
                GroundSet(p["n"]), tuple(bitset.mask_rows(p["neighborhoods"], p["n"]).tolist())
            )
        ),
    ),
    "construction": (("kind", "r"), lambda p: CONSTRUCTIONS[p["kind"]](p["r"])),
    "truncate": (("i", "inner"), lambda p: truncate(_build(p["inner"]), p["i"])),
}


def doc_uniform(r: int, n: int) -> dict:
    return {"schema": SCHEMA_VERSION, "matroid": {"uniform": {"r": r, "n": n}}}


def doc_psi(n: int, s: int) -> dict:
    return {"schema": SCHEMA_VERSION, "matroid": {"psi": {"n": n, "s": s}}}


def doc_circuits(n: int, circuits: list[list[int]]) -> dict:
    canon = sorted(
        (sorted(set(c)) for c in circuits), key=lambda c: (len(c), c)
    )
    return {"schema": SCHEMA_VERSION, "matroid": {"circuits": {"n": n, "circuits": canon}}}


def doc_transversal(n: int, neighborhoods: list[list[int]]) -> dict:
    return {
        "schema": SCHEMA_VERSION,
        "matroid": {
            "transversal": {"n": n, "neighborhoods": [sorted(set(nb)) for nb in neighborhoods]}
        },
    }


def doc_construction(kind: str, r: int) -> dict:
    if kind not in CONSTRUCTIONS:
        raise ValueError(f"unknown construction kind {kind!r}")
    return {"schema": SCHEMA_VERSION, "matroid": {"construction": {"kind": kind, "r": r}}}


def doc_truncate(inner: dict, i: int) -> dict:
    return {
        "schema": SCHEMA_VERSION,
        "matroid": {"truncate": {"inner": inner["matroid"], "i": i}},
    }


def canonical_json(obj: Any) -> str:
    """``json.dumps(obj, sort_keys=True, indent=2) + "\\n"``, byte for byte,
    where a `CircuitFamily` value stands for its `as_indices()` list.  Dict
    keys must be strings: any other key raises TypeError rather than being
    coerced."""
    return _emit(obj, "\n") + "\n"


def _emit(obj: Any, newline: str) -> str:
    """`obj` as indented JSON whose nested lines start with `newline`."""
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, CircuitFamily):
        return _emit_family(obj, newline)
    if isinstance(obj, (list, tuple)) and obj:
        inner = newline + "  "
        if set(map(type, obj)) == {int}:  # bools are not exactly int
            items = map(int.__repr__, obj)
        else:
            items = [_emit(value, inner) for value in obj]
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    if isinstance(obj, dict) and obj:  # a key that is not a str raises TypeError here
        inner = newline + "  "
        items = [encode_basestring_ascii(key) + ": " + _emit(obj[key], inner) for key in sorted(obj)]
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    return json.dumps(obj)  # floats and empty containers; anything else raises TypeError


def _emit_family(family: CircuitFamily, newline: str) -> str:
    """`family.as_indices()` as `_emit` writes it, from its `index_runs`.

    Each index i gets two strings, its line inside a row and its line
    closing one (which also opens the next row); a run of rows is one
    object-array lookup of those strings, and the text is one join."""
    runs = family.index_runs()
    if not runs:
        return "[]"
    inner = newline + "  "
    deeper = inner + "  "
    reopen = "," + inner + "["
    top = max(family.members).bit_length()  # the largest index
    endings = (",", inner + "]" + reopen)  # index i's line is lines[i], its closing line lines[top + 1 + i]
    lines = np.array([deeper + str(i) + end for end in endings for i in range(top + 1)], dtype=object)
    closing = np.zeros(top + 1, dtype=np.int64)  # its last k entries, added to a k-index row, close the row
    closing[-1] = top + 1
    pieces = [
        lines[run + closing[-run.shape[1]:]].ravel().tolist() if run.shape[1] else ["]" + reopen] * len(run)
        for run in runs
    ]
    return "[" + inner + "[" + "".join(chain.from_iterable(pieces))[: -len(reopen)] + newline + "]"


def decode(text: str, what: str) -> Any:
    """The JSON value in `text`; malformed or too deeply nested text raises
    ValueError naming `what` (the decoder recurses once per nesting level)."""
    try:
        return json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ValueError(f"{what} is not valid JSON: {exc}") from exc


def parse(text: str) -> dict:
    doc = decode(text, "document")
    _validate(doc)
    return doc


def _is_int(value: Any) -> bool:
    """A JSON integer; booleans are ints to Python but not to a document."""
    return isinstance(value, int) and not isinstance(value, bool)


def _validate(doc: Any) -> None:
    if not isinstance(doc, dict):
        raise ValueError("document must be a JSON object")
    if not _is_int(doc.get("schema")) or doc["schema"] != SCHEMA_VERSION:
        raise ValueError(f"unsupported schema version {doc.get('schema')!r}")
    if set(doc) - {"schema", "labels", "matroid"}:
        raise ValueError("document carries unknown top-level fields")
    labels = doc.get("labels")
    if labels is not None:
        if (
            not isinstance(labels, list)
            or not all(isinstance(x, str) for x in labels)
            or len(set(labels)) != len(labels)
        ):
            raise ValueError("labels must be a list of distinct strings")
    validate_matroid(doc.get("matroid"))


def validate_matroid(body: Any) -> None:
    """Raise ValueError unless `body` is a matroid body with one known
    representation.  Its payload's fields are checked in table order, each by
    its name: index lists over n, a construction kind, a nested body, or an
    integer."""
    kind = _kind(body)
    payload = body[kind]
    fields, _ = _REPRESENTATIONS[kind]
    if not isinstance(payload, dict):
        raise ValueError("representation payload must be a JSON object")
    if set(payload).difference(fields):
        raise ValueError(f"{kind} payload carries unknown fields")
    for name in fields:
        value = payload.get(name)
        if name in ("circuits", "neighborhoods"):
            _expect_index_lists(value, payload["n"])
        elif name == "kind":
            if not isinstance(value, str) or value not in CONSTRUCTIONS:
                raise ValueError(f"unknown construction kind {value!r}")
        elif name == "inner":
            validate_matroid(value)
        elif not _is_int(value):
            raise ValueError(f"representation field {name!r} must be an integer")
    if kind == "circuits" and not all(payload["circuits"]):
        raise ValueError("circuits must be nonempty")


def _kind(body: Any) -> str:
    """The one known representation a matroid body carries."""
    if not isinstance(body, dict):
        raise ValueError("matroid body must be a JSON object")
    kind = next(iter(body), None)
    if len(body) != 1 or kind not in _REPRESENTATIONS:
        raise ValueError("matroid body must carry exactly one known representation")
    return kind


def _expect_index_lists(value: Any, n: int) -> None:
    """A list of lists of JSON integers in 1..n: one type test over the
    rows and one over their concatenation (bools are not exactly int),
    then its min and max."""
    if not isinstance(value, list):
        raise ValueError("expected a list of index lists")
    if not set(map(type, value)) <= {list}:
        raise ValueError("set lists must hold 1-based element indices within the ground set")
    flat = list(chain.from_iterable(value))
    if flat and (set(map(type, flat)) != {int} or min(flat) < 1 or max(flat) > n):
        raise ValueError("set lists must hold 1-based element indices within the ground set")


def to_oracle(doc: dict) -> MatroidOracle:
    """The document's matroid.  Labels are checked against its size, then dropped."""
    oracle = _build(doc["matroid"])
    labels = doc.get("labels")
    if labels is not None and len(labels) != oracle.n:
        raise ValueError(f"document has {len(labels)} labels for {oracle.n} elements")
    return oracle


def _build(body: dict) -> MatroidOracle:
    kind = _kind(body)
    _, build = _REPRESENTATIONS[kind]
    return build(body[kind])


def parse_ordering(text: str, n: int) -> tuple[int, ...]:
    """An ordering or map file is a JSON array of 1-based indices, a permutation."""
    data = decode(text, "ordering")
    if (
        not isinstance(data, list)
        or not all(_is_int(i) for i in data)
        or sorted(data) != list(range(1, n + 1))
    ):
        raise ValueError(f"expected a JSON array forming a permutation of 1..{n}")
    return tuple(data)
