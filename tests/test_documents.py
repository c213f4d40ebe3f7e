import json
import random
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cycmat import bitset, documents, psi, uniform, wheel
from cycmat.constructions import CONSTRUCTIONS, truncate
from cycmat.core import CircuitFamily


def test_round_trip_byte_identical():
    docs = [
        documents.doc_uniform(2, 5),
        documents.doc_psi(12, 4),
        documents.doc_construction("whirl", 4),
        documents.doc_truncate(documents.doc_psi(10, 3), 1),
        documents.doc_circuits(4, [[2, 3, 4], [1, 2, 3], [1, 2, 4], [1, 3, 4]]),
        documents.doc_transversal(6, [[1, 2], [3, 4], [5, 6]]),
    ]
    for doc in docs:
        text = documents.canonical_json(doc)
        assert documents.parse(text) == doc
        assert documents.canonical_json(documents.parse(text)) == text


def test_circuit_lists_canonicalised():
    doc = documents.doc_circuits(4, [[3, 2, 1], [4, 2, 1]])
    assert doc["matroid"]["circuits"]["circuits"] == [[1, 2, 3], [1, 2, 4]]


def test_parse_rejects_malformed():
    bad = [
        "not json",
        '{"schema": 2, "matroid": {"uniform": {"r": 1, "n": 2}}}',
        '{"schema": 1, "matroid": {}}',
        '{"schema": 1, "matroid": {"uniform": {"r": 1}}}',
        '{"schema": 1, "matroid": {"uniform": {"r": 1, "n": 2}, "psi": {"n": 8, "s": 3}}}',
        '{"schema": 1, "matroid": {"circuits": {"n": 3, "circuits": [[0]]}}}',
        '{"schema": 1, "matroid": {"construction": {"kind": "mystery", "r": 3}}}',
        '{"schema": 1, "matroid": {"construction": [1]}}',
        '{"schema": 1, "matroid": {"construction": "wheel"}}',
        '{"schema": 1, "matroid": {"truncate": {"i": 1, "inner": {"construction": 7}}}}',
    ]
    for text in bad:
        with pytest.raises(ValueError):
            documents.parse(text)


def test_to_oracle_uniform_and_psi():
    M = documents.to_oracle(documents.doc_uniform(2, 5))
    expect = uniform(2, 5)
    for mask in range(1 << 5):
        assert M.indep(mask) == expect.indep(mask)
    P = documents.to_oracle(documents.doc_psi(8, 3))
    expect = psi(8, 3)
    for mask in range(1 << 8):
        assert P.indep(mask) == expect.indep(mask)


def test_to_oracle_nested_truncation():
    doc = documents.doc_truncate(documents.doc_psi(10, 3), 1)
    M = documents.to_oracle(doc)
    expect = truncate(psi(10, 3), 1)
    assert M.rank() == expect.rank() == 4


def test_to_oracle_circuit_document():
    source = wheel(4)
    doc = documents.doc_circuits(8, source.circuits().as_indices())
    rebuilt = documents.to_oracle(doc)
    for mask in range(1 << 8):
        assert rebuilt.indep(mask) == source.indep(mask)


def test_labels_field():
    doc = documents.doc_uniform(1, 2)
    doc["labels"] = ["a", "b"]
    assert documents.parse(documents.canonical_json(doc)) == doc
    assert documents.to_oracle(doc).n == 2
    doc["labels"] = ["a"]
    with pytest.raises(ValueError):
        documents.to_oracle(doc)
    doc["labels"] = ["a", "a"]
    with pytest.raises(ValueError):
        documents.parse(documents.canonical_json(doc))


def test_parse_ordering():
    assert documents.parse_ordering("[2, 1, 3]", 3) == (2, 1, 3)
    for text in ("[1, 1, 2]", "[1, 2]", '"x"', "[0, 1, 2]", "[true, 2, 3]"):
        with pytest.raises(ValueError):
            documents.parse_ordering(text, 3)


_JSON_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2 ** 100), max_value=2 ** 100)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text()
)
_JSON_VALUES = st.recursive(
    _JSON_SCALARS | st.lists(st.integers(min_value=-(2 ** 70), max_value=2 ** 70)),
    lambda children: (
        st.lists(children, max_size=5)
        | st.tuples(children, children)
        | st.dictionaries(st.text(max_size=4), children, max_size=5)
    ),
    max_leaves=30,
)


@settings(max_examples=200, deadline=None)
@given(_JSON_VALUES)
@example({})
@example([])
@example([[]])
@example([True, 1])
@example({"a": [1, [2, "x"]]})
@example([[1, 2], (3,), [2 ** 70, -1]])
@example([[1, 2], [], [3]])
@example([[1, True], [2]])
@example([[1, 2], [3], [4, 5, 6], [7], [8, 9]])  # rows of mixed lengths
@example([[i, i + 1, i + 2] for i in range(300)])  # one long run of equal rows
@example([[1, 2], [3, 4], [5, 6, 7], [8, 9], [10, 11]])  # a run split by a longer row
def test_canonical_json_matches_indented_stdlib(value):
    assert documents.canonical_json(value) == json.dumps(value, sort_keys=True, indent=2) + "\n"


@st.composite
def _families(draw):
    """A family over n <= 80 whose members may be empty, lie past n or be
    wider than `bitset.WORD_BITS`; half are canonical, half keep the drawn
    order, so one size can make several runs."""
    n = draw(st.integers(min_value=0, max_value=80))
    masks = draw(st.lists(
        st.integers(min_value=0, max_value=(1 << 90) - 1) | st.integers(min_value=0, max_value=(1 << 12) - 1),
        max_size=30,
    ))
    if draw(st.booleans()):
        return CircuitFamily.from_masks(n, masks)
    return CircuitFamily(n, tuple(masks))


@settings(max_examples=300, deadline=None)
@given(_families())
@example(CircuitFamily(5, ()))  # the empty family
@example(CircuitFamily.from_masks(3, [0, 0b11, 0b101]))  # an empty member
@example(CircuitFamily.from_masks(3, [1 << 12 | 1, 0b110]))  # a member past n
@example(CircuitFamily.from_masks(70, [1 << 69 | 1, 3 << 62, 0b111]))  # above WORD_BITS
@example(CircuitFamily.from_masks(120, [1 << 119 | 1 << 9 | 1, 1 << 99 | 1 << 10]))  # two- and three-digit indices
@example(CircuitFamily.from_masks(12, [0b1, 0b111, 0b1100_0000_0011, 0b1111_0000, 0b11]))  # several sizes
@example(CircuitFamily(6, (0b111, 0b11, 0b1110, 0b1, 0b110, 0)))  # unsorted: one size in several runs
def test_family_emits_as_its_index_lists(family):
    n = family.n
    rows = family.as_indices()
    assert rows == [list(bitset.indices(m)) for m in family.members]
    runs = family.index_runs()
    assert rows == [row for run in runs for row in run.tolist()]
    assert all(run.ndim == 2 and len(run) for run in runs)
    assert all(a.shape[1] != b.shape[1] for a, b in zip(runs, runs[1:]))
    assert documents.canonical_json({"n": n, "circuits": family}) == (
        json.dumps({"n": n, "circuits": rows}, sort_keys=True, indent=2) + "\n"
    )
    nested = [{"circuits": family, "n": n}, family]
    assert documents.canonical_json(nested) == (
        json.dumps([{"circuits": rows, "n": n}, rows], sort_keys=True, indent=2) + "\n"
    )


@pytest.mark.parametrize("value", [{1: "a"}, {True: 0}, {"a": {None: 1}}, [{("a",): 1}], {1: 2, "a": 3}])
def test_canonical_json_rejects_non_string_keys(value):
    with pytest.raises(TypeError):
        documents.canonical_json(value)


def per_element_index_lists(value, n):
    """The per-element rule the bulk `_expect_index_lists` replaced, kept as its reference."""
    if not isinstance(value, list):
        raise ValueError("expected a list of index lists")
    for entry in value:
        if not isinstance(entry, list) or not all(
            isinstance(i, int) and not isinstance(i, bool) and 1 <= i <= n for i in entry
        ):
            raise ValueError("set lists must hold 1-based element indices within the ground set")


def _outcome(check, value, n):
    try:
        check(value, n)
    except ValueError as exc:
        return str(exc)
    return None


_INDEX_LIKE = (
    st.integers(min_value=-1, max_value=9)
    | st.integers(min_value=-(2 ** 70), max_value=2 ** 70)
    | st.booleans()
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text(max_size=2)
    | st.none()
    | st.lists(st.integers(min_value=0, max_value=9), max_size=2)
)
_ROWS = st.lists(
    st.lists(_INDEX_LIKE, max_size=5)
    | _INDEX_LIKE
    | st.dictionaries(st.text(max_size=2), st.integers(min_value=1, max_value=3), max_size=2),
    max_size=6,
)


@settings(max_examples=300)
@given(st.integers(min_value=-1, max_value=9), _ROWS | _INDEX_LIKE)
@example(3, [])  # the empty family
@example(3, [[]])
@example(3, [[1, 2], [], [3]])
@example(3, [[0]])
@example(3, [[4]])  # n + 1
@example(3, [[1, 3], [1, 4]])
@example(3, [[1, True]])
@example(3, [[1], [False]])
@example(3, [[1.0]])
@example(3, [["1"]])
@example(3, [[None]])
@example(3, [[1, [2]]])  # a nested list
@example(3, [[1], 2])  # a row that is not a list
@example(3, [[1], {"a": 1}])
@example(3, [[1], {}])  # an empty non-list row adds no index to test
@example(3, [""])
@example(3, [[1], None])
@example(3, {"a": [1]})
@example(3, None)
@example(0, [[1]])
@example(-1, [[]])
def test_bulk_index_list_check_matches_per_element_rule(n, value):
    assert _outcome(documents._expect_index_lists, value, n) == _outcome(per_element_index_lists, value, n)


_REFERENCE_FIELDS = {
    "uniform": {"r", "n"},
    "psi": {"n", "s"},
    "circuits": {"n", "circuits"},
    "transversal": {"n", "neighborhoods"},
    "construction": {"kind", "r"},
    "truncate": {"inner", "i"},
}


def reference_validate_matroid(body):
    """The per-kind chain the table-driven `validate_matroid` replaced, kept as its reference."""
    if not isinstance(body, dict):
        raise ValueError("matroid body must be a JSON object")
    keys = [k for k in body if k in _REFERENCE_FIELDS]
    if len(keys) != 1 or set(body) - set(_REFERENCE_FIELDS):
        raise ValueError("matroid body must carry exactly one known representation")
    kind = keys[0]
    payload = body[kind]
    if isinstance(payload, dict) and set(payload) - _REFERENCE_FIELDS[kind]:
        raise ValueError(f"{kind} payload carries unknown fields")
    if kind == "uniform":
        _reference_int_fields(payload, "r", "n")
    elif kind == "psi":
        _reference_int_fields(payload, "n", "s")
    elif kind == "circuits":
        _reference_int_fields(payload, "n")
        documents._expect_index_lists(payload.get("circuits"), payload["n"])
        if not all(payload["circuits"]):
            raise ValueError("circuits must be nonempty")
    elif kind == "transversal":
        _reference_int_fields(payload, "n")
        documents._expect_index_lists(payload.get("neighborhoods"), payload["n"])
    elif kind == "construction":
        _reference_int_fields(payload)  # an object, before its kind is read
        if not isinstance(payload.get("kind"), str) or payload["kind"] not in CONSTRUCTIONS:
            raise ValueError(f"unknown construction kind {payload.get('kind')!r}")
        _reference_int_fields(payload, "r")
    elif kind == "truncate":
        _reference_int_fields(payload, "i")
        reference_validate_matroid(payload.get("inner"))


def _reference_int_fields(payload, *names):
    if not isinstance(payload, dict):
        raise ValueError("representation payload must be a JSON object")
    for name in names:
        if not isinstance(payload.get(name), int) or isinstance(payload.get(name), bool):
            raise ValueError(f"representation field {name!r} must be an integer")


# values of the wrong type for some field, and of the right type for others
_ODD_VALUES = [
    None, True, False, 1.5, "3", "wheel", -1, 0, 99, [], {}, [[1]], [[0]], [[]], [[True]],
    [1, 2], [[1, "2"]], {"psi": {"n": 8, "s": 3}},
]
_NOT_OBJECTS = [None, 1, "psi", [1], [], True]


def _valid_payload(rng, kind, depth):
    n = rng.randint(1, 8)
    rows = [sorted(rng.sample(range(1, n + 1), rng.randint(1, n))) for _ in range(rng.randint(0, 3))]
    if kind == "uniform":
        return {"r": rng.randint(0, n), "n": n}
    if kind == "psi":
        return {"n": 2 * rng.randint(2, 5), "s": rng.randint(2, 4)}
    if kind == "circuits":
        return {"n": n, "circuits": rows}
    if kind == "transversal":
        return {"n": n, "neighborhoods": rows + [[]] * rng.randint(0, 1)}
    if kind == "construction":
        return {"kind": rng.choice(sorted(CONSTRUCTIONS)), "r": rng.randint(3, 5)}
    return {"i": rng.randint(0, 2), "inner": _random_body(rng, depth + 1)}


def _random_body(rng, depth=0):
    """A matroid body, valid or broken in one of the ways a document can be."""
    kind = rng.choice(sorted(_REFERENCE_FIELDS) + ["truncate"] * (depth < 3))
    payload = _valid_payload(rng, kind, depth)
    body = {kind: payload}
    fault = rng.choice(["none", "missing", "wrong", "all wrong", "extra", "payload", "two", "unknown", "body"])
    if fault == "missing":
        del payload[rng.choice(sorted(payload))]
    elif fault == "wrong":
        payload[rng.choice(sorted(payload))] = rng.choice(_ODD_VALUES)
    elif fault == "all wrong":  # the first field checked is the one named
        for name in payload:
            payload[name] = rng.choice(_ODD_VALUES)
    elif fault == "extra":
        payload[rng.choice(["x", "r", "n", "s", "kind", "inner", "circuits", "neighborhoods"])] = 1
    elif fault == "payload":
        body[kind] = rng.choice(_NOT_OBJECTS)
    elif fault == "two":
        other = rng.choice(sorted(_REFERENCE_FIELDS))
        body[other] = _valid_payload(rng, other, 3)
    elif fault == "unknown":
        body["bogus"] = {}
    elif fault == "body" and depth:
        return rng.choice(_NOT_OBJECTS)
    return body


def _validation_outcome(check, body):
    try:
        check(body)
    except Exception as exc:  # the type is compared too: a KeyError or TypeError is a difference
        return type(exc).__name__, str(exc)
    return None


def test_table_validator_matches_the_per_kind_reference():
    rng = random.Random(2026)
    messages = set()
    for _ in range(2400):
        body = _random_body(rng)
        outcome = _validation_outcome(documents.validate_matroid, body)
        assert outcome == _validation_outcome(reference_validate_matroid, body), body
        messages.add(outcome and outcome[1])
    # some bodies passed, and every rule of the validator was reached
    assert None in messages
    rules = [
        "matroid body must be a JSON object",
        "matroid body must carry exactly one known representation",
        "representation payload must be a JSON object",
        "representation field 'i'",
        "representation field 'n'",
        "representation field 'r'",
        "representation field 's'",
        "unknown construction kind",
        "expected a list of index lists",
        "set lists must hold",
        "circuits must be nonempty",
    ] + [f"{kind} payload carries unknown fields" for kind in _REFERENCE_FIELDS]
    for rule in rules:
        assert any(m and m.startswith(rule) for m in messages), rule


@pytest.mark.parametrize(
    "body", [{}, {"bogus": {}}, {"psi": {"n": 8, "s": 3}, "uniform": {"r": 1, "n": 2}}]
)
def test_to_oracle_needs_exactly_one_known_representation(body):
    with pytest.raises(ValueError) as raised:
        documents.to_oracle({"schema": 1, "matroid": body})
    assert str(raised.value) == "matroid body must carry exactly one known representation"


def test_builders_are_looked_up_when_called(monkeypatch):
    calls = Counter()

    def counting(name):
        original = getattr(documents, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return wrapper

    names = ("uniform", "psi", "truncate", "transversal_matroid", "oracle_from_circuits")
    for name in names:
        monkeypatch.setattr(documents, name, counting(name))
    docs = [
        documents.doc_uniform(2, 4),
        documents.doc_psi(8, 3),
        documents.doc_circuits(3, [[1, 2, 3]]),
        documents.doc_transversal(3, [[1, 2], [3]]),
        documents.doc_construction("whirl", 3),
        documents.doc_truncate(documents.doc_construction("wheel", 3), 1),
    ]
    for doc in docs:
        documents.to_oracle(documents.parse(documents.canonical_json(doc)))
    assert calls == dict.fromkeys(names, 1)
