"""Canonical JSON documents for matroids and orderings.

Documents carry exactly one representation; set lists hold 1-based element
indices.  Emission is canonical (sorted keys, two-space indent, trailing
newline) so equal documents are byte-equal and goldens can be compared
directly.  `canonical_json` is the one emitter of every CLI output: its
bytes equal ``json.dumps(obj, sort_keys=True, indent=2) + "\\n"``, but it
does not call that: with an indent the stdlib skips its C encoder for a
pure-Python generator, several times slower than this emitter on a long
circuit list.  A `CircuitFamily` value emits as its `as_indices()` list,
and a 2-D signed integer numpy array as its `tolist()`, each written
straight from its index arrays.
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
# order `validate_matroid` checks them, and its builder of a checked payload
# (index lists already masks, a nested body already checked).  Each builder
# looks its functions up when called, so a rebinding of the module's names
# (perfbench's tracer) reaches it, as in `CONSTRUCTIONS`.
_REPRESENTATIONS = {
    "uniform": (("r", "n"), lambda p: uniform(p["r"], p["n"])),
    "psi": (("n", "s"), lambda p: psi(p["n"], p["s"])),
    "circuits": (
        ("n", "circuits"),
        lambda p: oracle_from_circuits(GroundSet(p["n"]), p["circuits"], name="document-circuits", validate=False),
    ),
    "transversal": (
        ("n", "neighborhoods"),
        lambda p: transversal_matroid(
            BipartitePresentation(GroundSet(p["n"]), tuple(p["neighborhoods"].tolist()))
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
    canon = CircuitFamily.from_masks(n, _index_masks(circuits, n)).as_indices()
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
    where a `CircuitFamily` value stands for its `as_indices()` list and a
    2-D signed integer numpy array for its `tolist()`.  Dict
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
        return _emit_rows(obj.index_runs(), newline)
    if isinstance(obj, np.ndarray) and obj.ndim == 2 and obj.dtype.kind == "i":
        return _emit_rows([obj], newline)
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


def _emit_rows(runs: list[np.ndarray], newline: str) -> str:
    """The rows of the 2-D integer arrays `runs`, in order, as `_emit`
    writes one list of int lists.

    Each value v in 0..top gets two strings, its line inside a row and its
    line closing one (which also opens the next row); a run of rows is one
    object-array lookup of those strings, and the text is one join.  A
    negative value, or values sparser than the rows, go row by row."""
    runs = [run for run in runs if len(run)]
    if not runs:
        return "[]"
    values = np.concatenate([run.ravel() for run in runs])
    top = int(values.max(initial=0))
    if values.min(initial=0) < 0 or top > values.size:  # a line per value would outgrow the rows
        return _emit([row for run in runs for row in run.tolist()], newline)
    inner = newline + "  "
    deeper = inner + "  "
    reopen = "," + inner + "["
    endings = (",", inner + "]" + reopen)  # v's line is lines[v], its closing line lines[top + 1 + v]
    lines = np.array([deeper + str(v) + end for end in endings for v in range(top + 1)], dtype=object)
    # the last k entries of `closing`, added to a row of k values, close the row
    closing = np.zeros(1 + max(run.shape[1] for run in runs), dtype=np.int64)
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


def _validate(doc: Any) -> dict:
    """The checked matroid body of the document `doc` (`validate_matroid`)."""
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
    return validate_matroid(doc.get("matroid"))


def validate_matroid(body: Any) -> dict:
    """The checked form of `body`, which `_build` takes: raise ValueError
    unless `body` is a matroid body with one known representation.  Its
    payload's fields are checked in table order, each by its name: index
    lists over n (which become their masks), a construction kind, a nested
    body (which becomes its checked form), or an integer."""
    kind = _kind(body)
    payload = body[kind]
    fields, _ = _REPRESENTATIONS[kind]
    if not isinstance(payload, dict):
        raise ValueError("representation payload must be a JSON object")
    if set(payload).difference(fields):
        raise ValueError(f"{kind} payload carries unknown fields")
    checked = {}
    for name in fields:
        value = payload.get(name)
        if name in ("circuits", "neighborhoods"):
            value = _index_masks(value, payload["n"])
        elif name == "kind":
            if not isinstance(value, str) or value not in CONSTRUCTIONS:
                raise ValueError(f"unknown construction kind {value!r}")
        elif name == "inner":
            value = validate_matroid(value)
        elif not _is_int(value):
            raise ValueError(f"representation field {name!r} must be an integer")
        checked[name] = value
    if kind == "circuits" and 0 in checked["circuits"]:  # the mask of an empty circuit
        raise ValueError("circuits must be nonempty")
    return {kind: checked}


def _kind(body: Any) -> str:
    """The one known representation a matroid body carries."""
    if not isinstance(body, dict):
        raise ValueError("matroid body must be a JSON object")
    kind = next(iter(body), None)
    if len(body) != 1 or kind not in _REPRESENTATIONS:
        raise ValueError("matroid body must carry exactly one known representation")
    return kind


_OUTSIDE = "set lists must hold 1-based element indices within the ground set"


def _index_masks(value: Any, n: int) -> np.ndarray:
    """The `bitset.mask_of` of each row of `value`, a list of lists of JSON
    integers in 1..n, checked and converted in one walk over the indices.

    One type test over the rows and one over their concatenation (bools
    are not exactly int); the indices then go into one numpy array (int64,
    or Python ints above `bitset.WORD_BITS`), whose min and max are the
    range test, each becomes its bit, and one ``bitwise_or.reduceat``
    joins each row."""
    if not isinstance(value, list):
        raise ValueError("expected a list of index lists")
    if not set(map(type, value)) <= {list}:
        raise ValueError(_OUTSIDE)
    flat = list(chain.from_iterable(value))
    if flat and set(map(type, flat)) != {int}:
        raise ValueError(_OUTSIDE)
    try:
        indices = np.array(flat, dtype=object if n > bitset.WORD_BITS else np.int64)
    except OverflowError:  # beyond int64, so beyond n
        raise ValueError(_OUTSIDE) from None
    if flat and (indices.min() < 1 or indices.max() > n):
        raise ValueError(_OUTSIDE)
    bits = np.left_shift(np.ones(1, dtype=indices.dtype), indices - 1)
    lengths = np.fromiter(map(len, value), dtype=np.int64, count=len(value))
    masks = np.zeros(len(value), dtype=bits.dtype)
    filled = lengths > 0
    if flat:  # an empty row is the empty mask, and reduceat cannot end on one
        masks[filled] = np.bitwise_or.reduceat(bits, (np.cumsum(lengths) - lengths)[filled])
    return masks


def to_oracle(doc: Any) -> MatroidOracle:
    """The matroid of the decoded document `doc`, which is checked as
    `parse` checks it, with the same messages, and built from its checked
    body.  Labels are checked against its size, then dropped."""
    oracle = _build(_validate(doc))
    labels = doc.get("labels")
    if labels is not None and len(labels) != oracle.n:
        raise ValueError(f"document has {len(labels)} labels for {oracle.n} elements")
    return oracle


def _build(body: dict) -> MatroidOracle:
    """The oracle of a checked matroid body (`validate_matroid`)."""
    ((kind, payload),) = body.items()
    _, build = _REPRESENTATIONS[kind]
    return build(payload)


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
