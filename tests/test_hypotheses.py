"""The table of the paper's hypotheses in `cycmat.cyclic`.

Each edge test reads its row, pins the row's verdict on both sides of the
edge with literals, and checks that the guard or gate which reads the row
acts on it: a row or a guard changed by one token fails one of them.
"""

import ast
import dataclasses
import io
import re
import tokenize
from pathlib import Path

import pytest

import cycmat
from cycmat import psi, truncate, uniform
from cycmat.counterexample import forced_dependents
from cycmat.cyclic import (
    ABOVE_FLOOR,
    CANONICAL_IMAGE,
    CERTIFICATE_FLOOR,
    FLOOR,
    FULL,
    NEARLY,
    ODD_START_UPGRADE,
    RANK_FORMULA,
    REFUTATION,
    TRUNCATED_PSI,
    UNIQUENESS,
    UPGRADE_BOUND,
    UPGRADE_SIZES,
    WINDOW_PARITY,
    Hypothesis,
    OrderingCertificate,
    STParams,
    certify,
    check_adjacent_windows,
    check_rank_formula,
    check_window_structure,
    find_orderings,
    full_from_odd_circuits,
    natural_ordering,
    size_bounds,
    unique_window_circuits,
    upgrade_from_nearly,
)
from cycmat.weakmap import truncated_psi_certificate, weak_image_of_truncated_psi

PACKAGE = Path(cycmat.__file__).parent
README = Path(__file__).resolve().parent.parent / "README.md"


def _message(what: str, row: Hypothesis, **got) -> str:
    values = ", ".join(f"{k}={v}" for k, v in got.items())
    return f"{what} needs {row.formula}, got {values}"


def _raises(message: str, check, *args):
    with pytest.raises(ValueError) as info:
        check(*args)
    assert str(info.value) == message


def _planted(n: int, params: STParams, kind: str) -> cycmat.MatroidOracle:
    """U(2, n) with a `kind` certificate of its natural ordering planted under
    the ordering's store key, where every check that certifies reads it."""
    oracle = uniform(2, n)
    failures = () if kind == FULL else (("no-leading-circuit-window", 1),)
    cert = OrderingCertificate(kind, n, params.s, params.t, (), (), None, None, failures)
    oracle.derived((natural_ordering(n).order, params), lambda: cert)
    return oracle


def test_rows_are_named_once():
    rows = [v for v in vars(cycmat.cyclic).values() if isinstance(v, Hypothesis)]
    assert len(rows) == 15
    assert len({row.name for row in rows}) == len(rows)
    with pytest.raises(dataclasses.FrozenInstanceError):
        FLOOR.formula = "n >= 0"


@pytest.mark.parametrize("s, t, n, applies", [
    (3, 5, 10, False),  # meets 3*3 + 5 - 5 = 9, not 3 + 2*5 - 1 = 12
    (3, 5, 11, False),
    (3, 5, 12, True),
    (5, 3, 11, False),
    (5, 3, 12, True),
    (5, 5, 14, False),  # meets 5 + 2*5 - 1 = 14, not 3*5 + 5 - 5 = 15
    (5, 5, 15, True),
    (3, 3, 7, False),
    (3, 3, 8, True),
])
def test_upgrade_reads_its_bound_at_the_edge(s, t, n, applies):
    params = STParams(s, t)
    assert UPGRADE_BOUND.holds(n, s, t) is applies
    oracle = _planted(n, params, NEARLY)
    report = upgrade_from_nearly(oracle, natural_ordering(n), params)
    if applies:  # the planted ordering is nearly but not full, so C1 fails on it
        assert (report.ok, report.checked) == (False, 1)
        assert report.witnesses == ((NEARLY, (("no-leading-circuit-window", 1),)),)
    else:
        assert (report.ok, report.checked, report.note) == (True, 0, "size bounds not met; vacuous")


@pytest.mark.parametrize("s, t", [(2, 4), (4, 2), (2, 2), (2, 3)])
def test_upgrade_refuses_windows_below_three(s, t):
    params = STParams(s, t)
    assert not UPGRADE_SIZES.holds(None, s, t)
    oracle = _planted(12, params, NEARLY)
    _raises(_message("the nearly-to-fully upgrade", UPGRADE_SIZES, n=12, s=s, t=t),
            upgrade_from_nearly, oracle, natural_ordering(12), params)


def test_upgrade_takes_windows_of_three():
    for s, t in ((3, 3), (3, 4), (4, 3)):
        assert UPGRADE_SIZES.holds(None, s, t)
        params = STParams(s, t)
        report = upgrade_from_nearly(_planted(12, params, NEARLY), natural_ordering(12), params)
        assert report.checked == int(UPGRADE_BOUND.holds(12, s, t))


def test_size_bounds_read_the_floor_at_the_edge():
    assert FLOOR.holds(4, 3, 3) and not FLOOR.holds(3, 3, 3)
    at, below = size_bounds(4, STParams(3, 3)), size_bounds(3, STParams(3, 3))
    assert (at.nearly_allowed, at.full_allowed, at.violated) == (True, True, ())
    assert (below.nearly_allowed, below.full_allowed, below.violated) == (False, False, ("floor",))
    # the floor is tight: U(2,4) has a nearly (3,3)-ordering on s + t - 2 = 4 elements
    found = find_orderings(uniform(2, 4), STParams(3, 3), mode=NEARLY)
    assert found and all(certify(uniform(2, 4), o, STParams(3, 3)).nearly for o in found)


@pytest.mark.parametrize("n, s, t, violated", [
    (5, 3, 4, ()),  # on the floor: neither even n nor s = t mod 2 is asked
    (6, 3, 4, ("window-parity",)),
    (5, 3, 3, ("even-size",)),
    (6, 3, 3, ()),
    (7, 3, 4, ("even-size", "window-parity")),
])
def test_size_bounds_above_the_floor(n, s, t, violated):
    assert ABOVE_FLOOR.holds(n, s, t) is (n > 5 if (s, t) == (3, 4) else n > 4)
    bounds = size_bounds(n, STParams(s, t))
    assert (bounds.nearly_allowed, bounds.full_allowed, bounds.violated) == (True, not violated, violated)


def test_canonical_image_reads_its_row_at_the_floor():
    # even n = s + t - 2 is below C2, which reads n > s + t - 2
    for n, s in ((4, 3), (6, 4)):
        assert not CANONICAL_IMAGE.holds(n, s, s) and TRUNCATED_PSI.holds(n, s, s)
        _raises(_message("the canonical image", CANONICAL_IMAGE, n=n, s=s, t=s),
                weak_image_of_truncated_psi, psi(n, s), natural_ordering(n), STParams(s, s), psi(n, s))
    # one step above: psi(n, s) is a weak-map image of itself
    for n, s in ((6, 3), (8, 4)):
        assert CANONICAL_IMAGE.holds(n, s, s)
        report = weak_image_of_truncated_psi(psi(n, s), natural_ordering(n), STParams(s, s), psi(n, s))
        assert report.ok and report.note == "rotation=0"


def test_canonical_image_wants_t_at_least_s():
    assert not CANONICAL_IMAGE.holds(10, 5, 3) and CANONICAL_IMAGE.holds(10, 3, 5)
    T = truncate(psi(10, 3), 1)
    _raises(_message("the canonical image", CANONICAL_IMAGE, n=10, s=5, t=3),
            weak_image_of_truncated_psi, T, natural_ordering(10), STParams(5, 3), T)


def test_truncated_psi_reads_its_row():
    # the floor itself is allowed: psi(4, 3) is fully (3, 3)-structured on 4 elements
    assert TRUNCATED_PSI.holds(4, 3, 3) and not TRUNCATED_PSI.holds(4, 3, 5)
    assert truncated_psi_certificate(psi(4, 3), 3, 3).full
    _raises(_message("T^((t-s)/2)(psi(n, s))", TRUNCATED_PSI, n=4, s=3, t=5),
            truncated_psi_certificate, psi(4, 3), 3, 5)
    _raises(_message("T^((t-s)/2)(psi(n, s))", TRUNCATED_PSI, n=10, s=3, t=4),
            truncated_psi_certificate, psi(10, 3), 3, 4)


def test_window_checks_read_the_row_above_the_floor():
    params = STParams(3, 3)
    assert not ABOVE_FLOOR.holds(4, 3, 3) and ABOVE_FLOOR.holds(5, 3, 3)
    _raises(_message("adjacent-window check", ABOVE_FLOOR, n=4, s=3, t=3),
            check_adjacent_windows, _planted(4, params, FULL), natural_ordering(4), params)
    # one element more, the row holds and the planted (empty) full certificate is read
    report = check_adjacent_windows(_planted(5, params, FULL), natural_ordering(5), params)
    assert (report.ok, report.checked) == (True, 0)


def test_window_structure_reads_the_parity_row():
    assert not WINDOW_PARITY.holds(8, 3, 4) and WINDOW_PARITY.holds(8, 3, 5)
    params = STParams(3, 4)
    _raises(_message("window-structure check", WINDOW_PARITY, n=8, s=3, t=4),
            check_window_structure, _planted(8, params, FULL), natural_ordering(8), params)
    params = STParams(3, 5)
    report = check_window_structure(_planted(8, params, FULL), natural_ordering(8), params)
    assert (report.ok, report.checked) == (True, 0)


def test_odd_start_upgrade_and_uniqueness_read_their_rows():
    params = STParams(4, 4)
    assert not ODD_START_UPGRADE.holds(7, 4, 4) and ODD_START_UPGRADE.holds(8, 4, 4)
    assert not UNIQUENESS.holds(7, 4, 4) and UNIQUENESS.holds(8, 4, 4)
    below = uniform(3, 7)
    _raises(_message("the odd-start upgrade", ODD_START_UPGRADE, n=7, s=4, t=4),
            full_from_odd_circuits, below, natural_ordering(7), params)
    _raises(_message("uniqueness check", UNIQUENESS, n=7, s=4, t=4),
            unique_window_circuits, below, natural_ordering(7), params)
    assert full_from_odd_circuits(psi(8, 4), natural_ordering(8), params).full
    assert unique_window_circuits(psi(8, 4), natural_ordering(8), params).ok


def test_rank_formula_reads_its_row():
    # (n + s - t)/2 is whole for U(2, 5) at (3, 4) and at (3, 2), not at (3, 3)
    assert RANK_FORMULA.holds(5, 3, 4) and not RANK_FORMULA.holds(5, 3, 3)
    assert check_rank_formula(uniform(2, 5), STParams(3, 4))
    assert not check_rank_formula(uniform(2, 5), STParams(3, 3))
    assert check_rank_formula(uniform(3, 5), STParams(3, 2))
    # one off on either side of the rank
    assert not check_rank_formula(uniform(3, 5), STParams(3, 4))
    assert not check_rank_formula(uniform(1, 5), STParams(3, 4))


def test_certificates_read_their_floor():
    assert not CERTIFICATE_FLOOR.holds(3, 3, 5) and CERTIFICATE_FLOOR.holds(4, 3, 5)
    _raises(_message("an (s, t)-certificate", CERTIFICATE_FLOOR, n=3, s=3, t=5),
            certify, uniform(1, 3), natural_ordering(3), STParams(3, 5))
    assert certify(uniform(1, 4), natural_ordering(4), STParams(3, 5)).n == 4


@pytest.mark.parametrize("n, s", [(7, 4), (6, 4), (10, 5), (8, 3)])
def test_refutation_reads_its_row(n, s):
    assert not REFUTATION.holds(n, s, None)
    _raises(_message("the quotient refutation", REFUTATION, n=n, s=s), forced_dependents, n, s)


def test_refutation_runs_on_its_edge():
    for n, s in ((8, 4), (12, 5)):
        assert REFUTATION.holds(n, s, None)
        assert len(forced_dependents(n, s)) > 0


# the code forms of the table's formulas, matched on the tokens of a line with
# its comments and strings dropped and attribute owners (`st.`, `cert.`) removed
FORMULA_FORMS = [
    r"\bs \+ t\b", r"\bs \+ 2 \* t\b", r"\bn \+ s - t\b", r"\bn - s \+ t\b",
    r"\b[34] \* s - 8\b", r"\b2 \* s - 2\b", r"\b3 \* t1\b", r"\bt1 \+ 2 \* t2\b",
    r"\bm(?:ax|in) \( s , t \)", r"\( s - t \) %", r"\( t - s \) %", r"\bn % 2\b",
    r"\b[st] (?:<|<=|>|>=) [2-4]\b", r"\bs <=? t\b", r"\bt <=? s\b", r"\bt1\b", r"\bt2\b",
]


def _code_lines(path: Path):
    """(line number, tokens) of each line of code in `path`, comments and
    strings dropped, owners of attributes removed."""
    skip = {tokenize.COMMENT, tokenize.STRING, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
    skip |= {getattr(tokenize, name) for name in dir(tokenize) if name.startswith("FSTRING_")}
    lines: dict[int, list[str]] = {}
    for tok in tokenize.generate_tokens(io.StringIO(path.read_text()).readline):
        if tok.type not in skip:
            lines.setdefault(tok.start[0], []).append(tok.string)
    for number, tokens in sorted(lines.items()):
        yield number, re.sub(r"\b\w+ \. (?=\w)", "", " ".join(tokens))


def _table_lines(path: Path) -> range:
    """The lines of the table in `cyclic.py`: from `Hypothesis` through `formula_rank`."""
    tree = ast.parse(path.read_text())
    nodes = {getattr(node, "name", None): node for node in tree.body}
    first = nodes["Hypothesis"]
    return range(first.decorator_list[0].lineno, nodes["formula_rank"].end_lineno + 1)


def _formulas_outside_the_table(package: Path) -> list[str]:
    table = _table_lines(package / "cyclic.py")
    found = []
    for path in sorted(package.glob("*.py")):
        for number, code in _code_lines(path):
            if path.name == "cyclic.py" and number in table:
                continue
            found += [f"{path.name}:{number}: {code}" for form in FORMULA_FORMS if re.search(form, code)]
    return found


def test_no_hypothesis_formula_outside_the_table():
    assert _formulas_outside_the_table(PACKAGE) == []


def test_the_scan_sees_the_formulas_of_the_table():
    table = _table_lines(PACKAGE / "cyclic.py")
    code = [c for n, c in _code_lines(PACKAGE / "cyclic.py") if n in table]
    absent = {r"\bn - s \+ t\b", r"\b3 \* t1\b", r"\bt1 \+ 2 \* t2\b", r"\bt1\b", r"\bt2\b",
              r"\bt <=? s\b"}  # no row writes these forms; they are scanned for all the same
    for form in FORMULA_FORMS:
        assert any(re.search(form, c) for c in code) is (form not in absent), form


def test_the_scan_finds_a_gate_written_out(tmp_path):
    (tmp_path / "cyclic.py").write_text((PACKAGE / "cyclic.py").read_text())
    (tmp_path / "gates.py").write_text(
        '"""n > s + t - 2 in a docstring is prose."""\n'
        "def gate(fx, n):\n"
        "    # if n >= fx.st.s + 2 * fx.st.t - 4: a comment is prose too\n"
        "    return n > fx.st.s + fx.st.t - 2 and (fx.st.s - fx.st.t) % 2 == 0\n"
    )
    assert _formulas_outside_the_table(tmp_path) == [
        "gates.py:4: return n > s + t - 2 and ( s - t ) % 2 == 0",
        "gates.py:4: return n > s + t - 2 and ( s - t ) % 2 == 0",
    ]


def test_readme_states_c1_and_c2_as_the_table_does():
    text = " ".join(README.read_text().split())
    assert UPGRADE_BOUND.formula in text
    assert CANONICAL_IMAGE.formula in text
