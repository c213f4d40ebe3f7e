import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cycmat import documents, psi, uniform, wheel
from cycmat.constructions import truncate


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
