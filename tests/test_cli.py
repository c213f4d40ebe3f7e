import io
import itertools
import json
import random

import pytest

from cycmat import bitset, cli, documents
from cycmat.cli import main
from cycmat.constructions import CONSTRUCTIONS


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gen_psi_document(capsys, tmp_path):
    out = tmp_path / "psi.json"
    code, _, _ = run_cli(capsys, "gen", "--psi", "12", "4", "--out", str(out))
    assert code == 0
    doc = documents.parse(out.read_text())
    assert doc["matroid"]["psi"] == {"n": 12, "s": 4}


def test_gen_truncate_nested(capsys):
    code, out, _ = run_cli(capsys, "gen", "--truncate", "1", "--psi", "10", "3")
    assert code == 0
    doc = json.loads(out)
    assert doc["matroid"]["truncate"]["i"] == 1
    assert doc["matroid"]["truncate"]["inner"]["psi"] == {"n": 10, "s": 3}


def test_gen_rejects_bad_parameters(capsys):
    code, _, err = run_cli(capsys, "gen", "--psi", "9", "3")
    assert code == 2
    assert "error:" in err


def test_rank_command(capsys, tmp_path):
    doc = tmp_path / "m.json"
    doc.write_text(documents.canonical_json(documents.doc_psi(12, 4)))
    code, out, _ = run_cli(capsys, "rank", str(doc))
    assert code == 0
    assert json.loads(out)["rank"] == 6
    code, out, _ = run_cli(capsys, "rank", str(doc), "--set", "1,2,3")
    assert code == 0
    assert json.loads(out) == {"rank": 3, "set": [1, 2, 3]}


@pytest.mark.parametrize("subset", ["", ","])
def test_rank_of_the_empty_set(capsys, tmp_path, subset):
    doc = tmp_path / "m.json"
    doc.write_text(documents.canonical_json(documents.doc_psi(8, 3)))
    code, out, _ = run_cli(capsys, "rank", str(doc), "--set", subset)
    assert code == 0
    assert json.loads(out) == {"rank": 0, "set": []}


@pytest.mark.parametrize("text", [
    '{"schema": true, "matroid": {"uniform": {"r": 1, "n": 4}}}',
    '{"schema": 1, "matroid": {"uniform": {"r": true, "n": 4}}}',
    '{"schema": 1, "matroid": {"circuits": {"n": 3, "circuits": [[true, 2]]}}}',
])
def test_rank_rejects_boolean_integers(capsys, tmp_path, text):
    doc = tmp_path / "m.json"
    doc.write_text(text)
    code, out, err = run_cli(capsys, "rank", str(doc))
    assert code == 2 and out == ""
    assert "error:" in err


def test_circuits_command(capsys, tmp_path):
    doc = tmp_path / "m.json"
    doc.write_text(documents.canonical_json(documents.doc_uniform(2, 4)))
    code, out, _ = run_cli(capsys, "circuits", str(doc))
    assert code == 0
    assert json.loads(out)["circuits"] == [[1, 2, 3], [1, 2, 4], [1, 3, 4], [2, 3, 4]]


def test_circuits_command_keeps_listed_family_with_labels(capsys, tmp_path):
    # U(19,21): the 21 twenty-element subsets, above the enumeration cap of 20
    n = 21
    plain = documents.doc_circuits(n, [[i for i in range(1, n + 1) if i != j]
                                       for j in range(1, n + 1)])
    labelled = dict(plain, labels=[f"x{i}" for i in range(1, n + 1)])
    outputs = []
    for doc in (plain, labelled):
        path = tmp_path / "m.json"
        path.write_text(documents.canonical_json(doc))
        code, out, err = run_cli(capsys, "circuits", str(path))
        assert code == 0, err
        outputs.append(out)
    assert outputs[0] == outputs[1]
    assert len(json.loads(outputs[0])["circuits"]) == n


@pytest.mark.parametrize("n", [12, 25])
def test_circuits_document_builds_its_table_only_when_asked(capsys, tmp_path, monkeypatch, n):
    # listing a document's circuits reads no dependence table; rank and indep build
    # it on first use up to the lattice cap (20) and scan the members above it
    built = []
    original = bitset.dependence_table

    def counting(size, generators):
        built.append(size)
        return original(size, generators)

    monkeypatch.setattr(bitset, "dependence_table", counting)
    rng = random.Random(n)
    triples = [list(c) for c in itertools.combinations(range(1, n + 1), 3)]  # U(2, n)
    shuffled = [rng.sample(c, 3) for c in triples]
    rng.shuffle(shuffled)
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"schema": 1, "matroid": {"circuits": {"n": n, "circuits": shuffled}}}))
    code, out, _ = run_cli(capsys, "circuits", str(path))
    assert code == 0 and json.loads(out) == {"n": n, "circuits": triples}
    assert built == []
    oracle = documents.to_oracle(documents.parse(path.read_text()))
    assert oracle.circuits().as_indices() == triples and built == []
    assert oracle.rank() == 2
    assert oracle.indep(bitset.mask_of([1, n])) and not oracle.indep(bitset.mask_of([1, 2, n]))
    tabled = n <= bitset.lattice_cap()
    assert built == ([n] if tabled else [])
    assert (oracle.circuits()._dependence is not None) == tabled


@pytest.mark.parametrize("labels", [[1, 2, 3, 4], ["a", "a", "b", "c"], ["a", "b", "c"], []])
def test_bad_labels_exit_2(capsys, tmp_path, labels):
    # not strings, duplicated, one short, none: labels are validated though no output reads them
    path = tmp_path / "m.json"
    path.write_text(documents.canonical_json(dict(documents.doc_uniform(2, 4), labels=labels)))
    code, out, _ = run_cli(capsys, "circuits", str(path))
    assert code == 2 and out == ""


@pytest.mark.parametrize("matroid", [
    {"construction": [1]},
    {"construction": "wheel"},
    {"truncate": {"i": 1, "inner": {"construction": 7}}},
])
def test_construction_payload_that_is_not_an_object_exits_2(capsys, monkeypatch, matroid):
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps({"schema": 1, "matroid": matroid})))
    code, out, err = run_cli(capsys, "rank", "-")
    assert code == 2 and out == ""
    assert "representation payload must be a JSON object" in err


@pytest.mark.parametrize("matroid", [
    {"psi": {"n": 8, "s": 3, "x": 1}},
    {"uniform": {"r": 2, "n": 4, "s": 3}},
    {"construction": {"kind": "wheel", "r": 4, "rim": True}},
    {"truncate": {"i": 1, "inner": {"psi": {"n": 8, "s": 3}}, "j": 0}},
    {"truncate": {"i": 1, "inner": {"circuits": {"n": 3, "circuits": [[1, 2]], "m": 1}}}},
])
def test_payload_with_unknown_fields_exits_2(capsys, monkeypatch, matroid):
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps({"schema": 1, "matroid": matroid})))
    code, out, err = run_cli(capsys, "rank", "-")
    assert code == 2 and out == ""
    assert "payload carries unknown fields" in err


HUGE = 2 ** 70


@pytest.mark.parametrize("argv, matroid", [
    (["gen", "--uniform", "2", str(HUGE)], None),
    (["rank", "-"], {"uniform": {"r": 2, "n": HUGE}}),
    (["rank", "-"], {"psi": {"n": HUGE, "s": 3}}),
    (["rank", "-"], {"transversal": {"n": HUGE, "neighborhoods": [[1, 2]]}}),
])
def test_ground_set_too_large_to_hold_exits_2(capsys, monkeypatch, argv, matroid):
    # invalid input (exit 2), not a traceback (exit 1, a failed property)
    if matroid is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps({"schema": 1, "matroid": matroid})))
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err == "error: input too large to hold in memory\n"


@pytest.mark.parametrize("kind", ["spike", ["wheel"], {"wheel": 1}, None, 3])
def test_unknown_construction_kind_exits_2(capsys, monkeypatch, kind):
    doc = {"schema": 1, "matroid": {"construction": {"kind": kind, "r": 4}}}
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
    code, out, err = run_cli(capsys, "rank", "-")
    assert code == 2 and out == ""
    assert "unknown construction kind" in err


@pytest.mark.parametrize("kind", sorted(CONSTRUCTIONS))
def test_each_construction_kind_has_a_gen_flag(capsys, kind):
    code, out, _ = run_cli(capsys, "gen", "--" + kind.replace("_", "-"), "4")
    assert code == 0
    assert out == documents.canonical_json(documents.doc_construction(kind, 4))
    assert documents.to_oracle(documents.parse(out)).n == 8


def test_spike_above_the_lattice_cap_has_a_rank(capsys, monkeypatch):
    # the rank is a closed form; building the spike enumerates no circuits
    code, doc, _ = run_cli(capsys, "gen", "--free-spike", "11")
    assert code == 0
    monkeypatch.setattr("sys.stdin", io.StringIO(doc))
    code, out, err = run_cli(capsys, "rank", "-")
    assert (code, err) == (0, "")
    assert json.loads(out) == {"n": 22, "rank": 11}


def test_rank_follows_an_augmenting_path_of_1500_vertices(capsys, monkeypatch):
    # N(i) = {i, i+1} for i < 1500 and N(1500) = {1}: the last vertex's
    # augmenting path runs back through every other vertex
    nbrs = [[i, i + 1] for i in range(1, 1500)] + [[1]]
    doc = documents.doc_transversal(1501, nbrs)
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
    code, out, err = run_cli(capsys, "rank", "-")
    assert (code, err) == (0, "")
    assert json.loads(out) == {"n": 1501, "rank": 1500}


@pytest.mark.parametrize("command, payload", [
    ("gen", {"neighborhoods": [[1, 2]]}),  # no "n"
    ("gen", [1]),
    ("weakmap", [1.0, 2.0, 3.0, 4.0]),
    ("weakmap", 5),
    ("gen", {"n": 2, "neighborhoods": [[1, 2]], "m": 1}),  # an unknown field
])
def test_bad_input_files_exit_2(capsys, tmp_path, command, payload):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(payload))
    if command == "gen":
        code, out, _ = run_cli(capsys, "gen", "--transversal", str(path))
    else:
        doc = tmp_path / "m.json"
        doc.write_text(documents.canonical_json(documents.doc_uniform(2, 4)))
        code, out, _ = run_cli(capsys, "weakmap", str(doc), str(doc), "--map", str(path))
    assert code == 2 and out == ""


def test_gen_transversal_from_a_valid_file(capsys, tmp_path):
    path, doc = tmp_path / "input.json", tmp_path / "m.json"
    path.write_text(json.dumps({"n": 6, "neighborhoods": [[3, 1, 3], [2]]}))
    code, _, _ = run_cli(capsys, "gen", "--transversal", str(path), "--out", str(doc))
    assert code == 0
    assert documents.parse(doc.read_text())["matroid"] == {"transversal": {"n": 6, "neighborhoods": [[1, 3], [2]]}}
    code, out, _ = run_cli(capsys, "rank", str(doc))
    assert code == 0 and json.loads(out)["rank"] == 2


DEEP = "[" * 5000 + "]" * 5000


@pytest.mark.parametrize("command", ["rank", "circuits", "verify-ordering", "weakmap", "gen"])
def test_deeply_nested_json_exits_2(capsys, tmp_path, command):
    # the decoder recurses once per level and gives up near the recursion limit
    doc, deep = tmp_path / "m.json", tmp_path / "deep.json"
    doc.write_text(documents.canonical_json(documents.doc_uniform(2, 4)))
    deep.write_text(DEEP)
    if command in ("rank", "circuits"):
        doc.write_text('{"schema": 1, "matroid": ' + DEEP + "}")
        argv = [command, str(doc)]
    elif command == "verify-ordering":
        argv = [command, str(doc), str(deep), "--s", "3", "--t", "3"]
    elif command == "weakmap":
        argv = [command, str(doc), str(doc), "--map", str(deep)]
    else:
        argv = [command, "--transversal", str(deep)]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error:") and "not valid JSON" in err


@pytest.mark.parametrize("command", ["circuits", "rank"])
def test_empty_circuit_document_exits_2(capsys, tmp_path, command):
    # the empty set as a circuit makes every set dependent; it is not a matroid
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"schema": 1, "matroid": {"circuits": {"n": 3, "circuits": [[]]}}}))
    code, out, _ = run_cli(capsys, command, str(path))
    assert code == 2 and out == ""


def _write_fixture(tmp_path, doc, order):
    doc_path = tmp_path / "m.json"
    doc_path.write_text(documents.canonical_json(doc))
    order_path = tmp_path / "order.json"
    order_path.write_text(json.dumps(order))
    return str(doc_path), str(order_path)


def test_verify_ordering_full(capsys, tmp_path):
    doc, order = _write_fixture(tmp_path, documents.doc_psi(8, 3), list(range(1, 9)))
    code, out, _ = run_cli(capsys, "verify-ordering", doc, order,
                           "--s", "3", "--t", "3", "--mode", "full")
    assert code == 0
    cert = json.loads(out)
    assert cert["kind"] == "full"
    assert cert["circuit_starts"] == [1, 3, 5, 7]


def test_verify_ordering_mode_unmet(capsys, tmp_path):
    doc, order = _write_fixture(
        tmp_path, documents.doc_construction("wheel", 4), [1, 3, 5, 7, 2, 4, 6, 8]
    )
    code, out, _ = run_cli(capsys, "verify-ordering", doc, order,
                           "--s", "3", "--t", "3", "--mode", "nearly")
    assert code == 1
    assert json.loads(out)["kind"] == "neither"


def test_verify_ordering_every_failure_kind(capsys, tmp_path):
    # the certificate document, byte for byte, of an ordering that breaks
    # every nearly and full rule
    doc, order = _write_fixture(tmp_path, documents.doc_psi(8, 3), [3, 4, 1, 2, 8, 7, 6, 5])
    code, out, _ = run_cli(capsys, "verify-ordering", doc, order, "--s", "3", "--t", "3")
    assert code == 1
    expected = {
        "circuit_phase": None,
        "circuit_starts": [6, 8],
        "cocircuit_phase": None,
        "cocircuit_starts": [3, 5],
        "failures": [
            ["window-not-in-circuit", 2],
            ["window-not-in-cocircuit", 2],
            ["window-not-in-circuit", 4],
            ["window-not-in-cocircuit", 8],
            ["no-leading-circuit-window", 1],
            ["no-leading-cocircuit-window", 1],
            ["circuit-window-step", 8],
            ["cocircuit-window-step", 5],
        ],
        "kind": "neither",
        "n": 8,
        "s": 3,
        "t": 3,
    }
    assert out == json.dumps(expected, sort_keys=True, indent=2) + "\n"


def test_verify_ordering_malformed(capsys, tmp_path):
    doc, order = _write_fixture(tmp_path, documents.doc_psi(8, 3), [1, 1, 2, 3, 4, 5, 6, 7])
    code, _, err = run_cli(capsys, "verify-ordering", doc, order, "--s", "3", "--t", "3")
    assert code == 2
    assert "error:" in err


def test_find_orderings_command(capsys, tmp_path):
    doc = tmp_path / "m.json"
    doc.write_text(documents.canonical_json(documents.doc_uniform(2, 4)))
    code, out, _ = run_cli(capsys, "find-orderings", str(doc), "--s", "3", "--t", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 3


def test_find_orderings_cap(capsys, tmp_path):
    doc = tmp_path / "m.json"
    doc.write_text(documents.canonical_json(documents.doc_uniform(6, 13)))
    code, _, err = run_cli(capsys, "find-orderings", str(doc), "--s", "3", "--t", "3")
    assert code == 2


@pytest.mark.parametrize("limit", ["0", "-3"])
def test_find_orderings_rejects_nonpositive_limit(capsys, tmp_path, limit):
    doc = tmp_path / "m.json"
    doc.write_text(documents.canonical_json(documents.doc_uniform(2, 4)))
    code, out, err = run_cli(
        capsys, "find-orderings", str(doc), "--s", "3", "--t", "3", "--limit", limit
    )
    assert code == 2 and out == ""
    assert "limit must be positive" in err


def test_find_orderings_rejects_nonpositive_search_cap(capsys, tmp_path, monkeypatch):
    doc = tmp_path / "m.json"
    doc.write_text(documents.canonical_json(documents.doc_uniform(2, 4)))
    monkeypatch.setenv("CYCMAT_SEARCH_CAP", "-3")
    code, out, err = run_cli(capsys, "find-orderings", str(doc), "--s", "3", "--t", "3")
    assert code == 2 and out == ""
    assert "CYCMAT_SEARCH_CAP must be positive" in err


def test_non_integer_lattice_cap_is_named(capsys, tmp_path, monkeypatch):
    doc = tmp_path / "m.json"
    doc.write_text(documents.canonical_json(documents.doc_uniform(2, 4)))
    monkeypatch.setenv("CYCMAT_MAX_N", "abc")
    code, out, err = run_cli(capsys, "circuits", str(doc))
    assert code == 2 and out == ""
    assert "CYCMAT_MAX_N must be a positive integer, got 'abc'" in err


def test_weakmap_command(capsys, tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    a.write_text(documents.canonical_json(documents.doc_construction("whirl", 4)))
    b.write_text(documents.canonical_json(documents.doc_construction("wheel", 4)))
    code, out, _ = run_cli(capsys, "weakmap", str(a), str(b))
    assert code == 0 and json.loads(out)["holds"]

    a.write_text(documents.canonical_json(documents.doc_uniform(1, 4)))
    b.write_text(documents.canonical_json(documents.doc_uniform(2, 4)))
    code, out, _ = run_cli(capsys, "weakmap", str(a), str(b))
    assert code == 1
    assert json.loads(out)["violating_circuit"] is not None

    b.write_text(documents.canonical_json(documents.doc_uniform(2, 5)))
    code, _, err = run_cli(capsys, "weakmap", str(a), str(b))
    assert code == 2


def test_weakmap_quotient_flag(capsys, tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    a.write_text(documents.canonical_json(documents.doc_uniform(2, 4)))
    b.write_text(documents.canonical_json(documents.doc_uniform(1, 4)))
    code, out, _ = run_cli(capsys, "weakmap", str(a), str(b), "--quotient")
    assert code == 0 and json.loads(out)["relation"] == "quotient"


@pytest.mark.parametrize("mapping", ["identity", "missing.json"])
def test_weakmap_quotient_and_map_exclude_each_other(capsys, tmp_path, mapping):
    a = tmp_path / "a.json"
    a.write_text(documents.canonical_json(documents.doc_psi(8, 3)))
    with pytest.raises(SystemExit) as exc:
        main(["weakmap", str(a), str(a), "--quotient", "--map", str(tmp_path / mapping)])
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert "error:" in captured.err


def test_counterexample_command(capsys):
    code, out, _ = run_cli(capsys, "counterexample", "8", "4")
    assert code == 0
    payload = json.loads(out)
    assert payload["conclusion"]["contradiction"]
    assert payload["conclusion"] == {
        "rank_bound": 4, "claimed_rank": 5, "contradiction": True,
    }
    assert payload["two_block_circuits"]["ok"]


def test_counterexample_beyond_enumeration_cap(capsys, monkeypatch):
    # n = 24 is above the default circuit-enumeration cap of 20
    monkeypatch.delenv("CYCMAT_MAX_N", raising=False)
    code, out, _ = run_cli(capsys, "counterexample", "24", "6")
    assert code == 0
    payload = json.loads(out)
    assert payload["conclusion"]["contradiction"] is True
    assert payload["two_block_circuits"] == {"ok": True, "checked": 336}


def test_counterexample_rejects_small_n(capsys):
    code, _, err = run_cli(capsys, "counterexample", "10", "5")
    assert code == 2


def test_suite_mutant_fails(capsys, tmp_path):
    out = tmp_path / "report.json"
    code = main([
        "suite", "--max-n", "6", "--families", "uniform",
        "--inject-mutant", "--out", str(out),
    ])
    capsys.readouterr()
    assert code == 1
    report = json.loads(out.read_text())
    assert report["summary"]["failed"] == 1
    assert report["summary"]["first_failure"]["params"] == {"matroid": "mutant-U(2,4)"}


def test_suite_rejects_nonpositive_max_n(capsys):
    code, out, err = run_cli(capsys, "suite", "--max-n", "-5")
    assert code == 2 and out == ""
    assert "max_n must be positive" in err


def test_suite_small_grid_passes_and_deterministic(capsys, tmp_path):
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    argv = ["suite", "--max-n", "6", "--families", "uniform,wheel,whirl",
            "--seed", "7"]
    assert main(argv + ["--out", str(out1)]) == 0
    assert main(argv + ["--out", str(out2)]) == 0
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()


def test_reused_parser_keeps_no_state_between_calls(capsys, tmp_path):
    cli._build_parser.cache_clear()
    suite = ["suite", "--max-n", "6", "--families", "uniform"]
    code, first, _ = run_cli(capsys, *suite)
    assert code == 0
    assert run_cli(capsys, *suite, "--inject-mutant")[0] == 1
    code, again, _ = run_cli(capsys, *suite)
    assert code == 0 and again == first

    doc = tmp_path / "psi.json"
    doc.write_text(documents.canonical_json(documents.doc_psi(12, 4)))
    find = ["find-orderings", str(doc), "--s", "4", "--t", "4"]
    code, out, _ = run_cli(capsys, *find, "--limit", "3")
    assert code == 0 and json.loads(out)["count"] == 3
    code, out, _ = run_cli(capsys, *find)
    assert code == 0 and json.loads(out)["count"] == 64

    with pytest.raises(SystemExit) as exc:
        main(["rank", str(doc), "--set"])
    assert exc.value.code == 2
    capsys.readouterr()
    code, out, _ = run_cli(capsys, "rank", str(doc))
    assert code == 0 and json.loads(out) == {"n": 12, "rank": 6}
    assert cli._build_parser.cache_info().misses == 1
