"""Canonical JSON documents for matroids and orderings.

Documents carry exactly one representation; set lists hold 1-based element
indices.  Emission is canonical (sorted keys, two-space indent, trailing
newline) so equal documents are byte-equal and goldens can be compared
directly.  `canonical_json` is the one emitter of every CLI output: its
bytes equal ``json.dumps(obj, sort_keys=True, indent=2) + "\\n"``, but it
does not call that: with an indent the stdlib skips its C encoder for a
pure-Python generator, several times slower than this emitter on a long
circuit list.
"""

from __future__ import annotations

import json
from itertools import chain, groupby
from json.encoder import encode_basestring_ascii
from typing import Any

from . import bitset
from .constructions import free_spike, truncate, uniform, wheel, whirl
from .core import GroundSet, MatroidOracle, oracle_from_circuits
from .transversal import BipartitePresentation, psi, transversal_matroid

SCHEMA_VERSION = 1

# each representation and the fields its payload may carry
_REPRESENTATIONS = {
    "uniform": {"r", "n"},
    "psi": {"n", "s"},
    "circuits": {"n", "circuits"},
    "transversal": {"n", "neighborhoods"},
    "construction": {"kind", "r"},
    "truncate": {"inner", "i"},
}
_CONSTRUCTION_KINDS = ("wheel", "whirl", "free_spike")


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
    if kind not in _CONSTRUCTION_KINDS:
        raise ValueError(f"unknown construction kind {kind!r}")
    return {"schema": SCHEMA_VERSION, "matroid": {"construction": {"kind": kind, "r": r}}}


def doc_truncate(inner: dict, i: int) -> dict:
    return {
        "schema": SCHEMA_VERSION,
        "matroid": {"truncate": {"inner": inner["matroid"], "i": i}},
    }


def canonical_json(obj: Any) -> str:
    """``json.dumps(obj, sort_keys=True, indent=2) + "\\n"``, byte for byte.
    Dict keys must be strings: any other key raises TypeError rather than
    being coerced."""
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
    if isinstance(obj, (list, tuple)) and obj:
        inner = newline + "  "
        kinds = set(map(type, obj))
        if kinds == {int}:  # bools are not exactly int
            items = map(int.__repr__, obj)
        elif kinds <= {list, tuple} and all(obj) and set(map(type, chain.from_iterable(obj))) == {int}:
            # nonempty int lists, such as a circuit family: one %-template per run of equal-length rows
            deeper = inner + "  "
            items = []
            for length, run in groupby(obj, len):
                run = list(run)
                row = "[" + deeper + ("," + deeper).join(["%d"] * length) + inner + "]"
                items.append(("," + inner).join([row] * len(run)) % tuple(chain.from_iterable(run)))
        else:
            items = [_emit(value, inner) for value in obj]
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    if isinstance(obj, dict) and obj:  # a key that is not a str raises TypeError here
        inner = newline + "  "
        items = [encode_basestring_ascii(key) + ": " + _emit(obj[key], inner) for key in sorted(obj)]
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    return json.dumps(obj)  # floats and empty containers; anything else raises TypeError


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
    """Raise ValueError unless `body` is a matroid body with one known representation."""
    if not isinstance(body, dict):
        raise ValueError("matroid body must be a JSON object")
    keys = [k for k in body if k in _REPRESENTATIONS]
    if len(keys) != 1 or set(body) - set(_REPRESENTATIONS):
        raise ValueError("matroid body must carry exactly one known representation")
    kind = keys[0]
    payload = body[kind]
    if isinstance(payload, dict) and set(payload) - _REPRESENTATIONS[kind]:
        raise ValueError(f"{kind} payload carries unknown fields")
    if kind == "uniform":
        _expect_int_fields(payload, "r", "n")
    elif kind == "psi":
        _expect_int_fields(payload, "n", "s")
    elif kind == "circuits":
        _expect_int_fields(payload, "n")
        _expect_index_lists(payload.get("circuits"), payload["n"])
        if not all(payload["circuits"]):
            raise ValueError("circuits must be nonempty")
    elif kind == "transversal":
        _expect_int_fields(payload, "n")
        _expect_index_lists(payload.get("neighborhoods"), payload["n"])
    elif kind == "construction":
        _expect_int_fields(payload)  # an object, before its kind is read
        if payload.get("kind") not in _CONSTRUCTION_KINDS:
            raise ValueError(f"unknown construction kind {payload.get('kind')!r}")
        _expect_int_fields(payload, "r")
    elif kind == "truncate":
        _expect_int_fields(payload, "i")
        validate_matroid(payload.get("inner"))


def _expect_int_fields(payload: Any, *names: str) -> None:
    if not isinstance(payload, dict):
        raise ValueError("representation payload must be a JSON object")
    for name in names:
        if not _is_int(payload.get(name)):
            raise ValueError(f"representation field {name!r} must be an integer")


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
    kind = next(k for k in body if k in _REPRESENTATIONS)
    payload = body[kind]
    if kind == "uniform":
        return uniform(payload["r"], payload["n"])
    if kind == "psi":
        return psi(payload["n"], payload["s"])
    if kind == "circuits":
        ground = GroundSet(payload["n"])
        return oracle_from_circuits(
            ground,
            bitset.mask_rows(payload["circuits"], ground.n),
            name="document-circuits",
            validate=False,
        )
    if kind == "transversal":
        ground = GroundSet(payload["n"])
        pres = BipartitePresentation(
            ground, tuple(bitset.mask_rows(payload["neighborhoods"], ground.n).tolist())
        )
        return transversal_matroid(pres)
    if kind == "construction":
        builder = {"wheel": wheel, "whirl": whirl}.get(payload["kind"])
        if builder is not None:
            return builder(payload["r"])
        oracle, _ = free_spike(payload["r"])
        return oracle
    if kind == "truncate":
        return truncate(_build(payload["inner"]), payload["i"])
    raise ValueError(f"unknown representation {kind!r}")


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
