import gc
import weakref

import pytest
from hypothesis import given, strategies as st

from elball.ontology import (
    Atomic,
    Conjunction,
    Existential,
    GCI,
    Instantiation,
    Nominal,
    Ontology,
    OntologyError,
    ParseError,
    RoleAssertion,
    TOP,
    BOT,
    format_axiom,
    parse_axiom,
    parse_ontology,
)


def test_simple_gci():
    onto = parse_ontology("Male < Person\n")
    assert len(onto.axioms) == 1
    male = onto.classes.id("Male")
    person = onto.classes.id("Person")
    assert onto.axioms[0] == GCI(Atomic(male), Atomic(person))


def test_existential_with_top():
    onto = parse_ontology("Parent < hasChild some Top")
    parent = onto.classes.id("Parent")
    has_child = onto.relations.id("hasChild")
    assert onto.axioms[0] == GCI(Atomic(parent), Existential(has_child, TOP))


def test_empty_input():
    onto = parse_ontology("")
    assert onto.axioms == []
    # reserved names are always present
    assert "Top" in onto.classes and "Bot" in onto.classes


def test_comments_and_blank_lines():
    onto = parse_ontology("# a comment\n\nA < B  # trailing comment\n")
    assert len(onto.axioms) == 1


def test_fresh_style_names_survive_comments():
    onto = parse_ontology("N#0 < B\n")
    assert "N#0" in onto.classes


def test_role_assertion():
    onto = parse_ontology("hasChild(john, mary)")
    assert onto.axioms[0] == RoleAssertion(
        onto.relations.id("hasChild"),
        onto.individuals.id("john"),
        onto.individuals.id("mary"),
    )


def test_class_assertion():
    onto = parse_ontology("{john} : Father")
    assert onto.axioms[0] == Instantiation(
        Atomic(onto.classes.id("Father")), onto.individuals.id("john")
    )


def test_nominal_gci():
    onto = parse_ontology("{john} < interacts some {mary}")
    axiom = onto.axioms[0]
    assert isinstance(axiom.sub, Nominal)
    assert isinstance(axiom.sup.filler, Nominal)


def test_some_binds_tighter_than_and():
    onto = parse_ontology("A < r some B and C")
    sup = onto.axioms[0].sup
    assert isinstance(sup, Conjunction)
    assert isinstance(sup.left, Existential)
    assert sup.right == Atomic(onto.classes.id("C"))


def test_conjunction_left_associative():
    onto = parse_ontology("A and B and C < D")
    sub = onto.axioms[0].sub
    assert isinstance(sub.left, Conjunction)
    assert isinstance(sub.right, Atomic)


def test_parentheses_override():
    onto = parse_ontology("A and (B and C) < D")
    sub = onto.axioms[0].sub
    assert isinstance(sub.right, Conjunction)


def test_interning_is_stable():
    onto = parse_ontology("A < B\nA < C\n")
    a1 = onto.axioms[0].sub
    a2 = onto.axioms[1].sub
    assert a1 == a2


def test_an_unknown_name_has_no_handle():
    onto = parse_ontology("A < B\n")
    assert onto.classes.id("B") == 3
    with pytest.raises(OntologyError, match="^unknown symbol 'C'$"):
        onto.classes.id("C")


def atomic_nodes(concepts) -> dict[int, set[int]]:
    """Class handle -> the id() of every Atomic node for it among ``concepts``."""
    nodes: dict[int, set[int]] = {}
    stack = list(concepts)
    while stack:
        concept = stack.pop()
        if isinstance(concept, Atomic):
            nodes.setdefault(concept.cls, set()).add(id(concept))
        elif isinstance(concept, Conjunction):
            stack += concept.left, concept.right
        elif isinstance(concept, Existential):
            stack.append(concept.filler)
    return nodes


def test_one_atomic_node_per_class_within_a_parse_call():
    text = "A < B\nB and A < r some (A and C)\n{x} : A and Top\nr some B < A\nr(x, y)\n"
    onto = parse_ontology(text)
    concepts = [c for a in onto.axioms if isinstance(a, GCI) for c in (a.sub, a.sup)]
    concepts += [a.concept for a in onto.axioms if isinstance(a, Instantiation)]
    nodes = atomic_nodes(concepts)
    assert sorted(onto.classes.name(cls) for cls in nodes) == ["A", "B", "C", "Top"]
    assert all(len(ids) == 1 for ids in nodes.values())
    # another call into the same ontology interns the same handles
    again = parse_ontology("C < A\n", onto)
    assert again.axioms[-1] == GCI(Atomic(onto.classes.id("C")), Atomic(onto.classes.id("A")))
    line = parse_axiom("A and (A and B) < r some A", onto)
    assert len(atomic_nodes([line.sub, line.sup])[onto.classes.id("A")]) == 1


def test_a_parsed_ontology_is_freed_with_its_last_reference():
    # not at the next full collection, as a reference cycle through it would have it
    gc.disable()
    try:
        onto = parse_ontology("A < B\nr(a, b)\n{a} : r some (A and B)\n")
        ref = weakref.ref(onto)
        del onto
        assert ref() is None
    finally:
        gc.enable()


def test_positions_recorded():
    onto = parse_ontology("A < B\n\nC < D\n")
    assert [line for line, _ in onto.positions] == [1, 3]


@pytest.mark.parametrize(
    "bad",
    ["A <", "< B", "A B", "A & B < C", "{a : C", "r(a b)", "A < and B"],
)
def test_syntax_errors_have_positions(bad):
    with pytest.raises(ParseError) as exc:
        parse_ontology(bad)
    assert "line 1" in str(exc.value)


# (text, line, column, message) of every parse-error path; one line goes
# through parse_axiom, more than one through parse_ontology
PARSE_ERRORS = [
    pytest.param("A < é", 1, 5, "unexpected character 'é'", id="non-ascii-letter"),
    pytest.param("A <\x0bB", 1, 4, "unexpected character '\\x0b'", id="vertical-tab"),
    pytest.param("A < :B", 1, 5, "expected a concept, found ':'", id="leading-colon"),
    pytest.param("A < -B", 1, 5, "unexpected character '-'", id="leading-hyphen"),
    pytest.param("A ? B", 1, 3, "unexpected character '?'", id="question-mark"),
    pytest.param("A <  ", 1, 3, "unexpected end of line", id="end-after-lt"),
    pytest.param("A < r some", 1, 7, "unexpected end of line", id="end-after-some"),
    pytest.param("A < (", 1, 5, "unexpected end of line", id="end-after-paren"),
    pytest.param("A < {a", 1, 6, "unexpected end of line", id="end-after-nominal"),
    pytest.param("r(a, b", 1, 6, "unexpected end of line", id="end-in-role-assertion"),
    pytest.param("A < B and", 1, 7, "unexpected end of line", id="end-after-and"),
    pytest.param("A < B C", 1, 7, "trailing input 'C'", id="trailing-input"),
    pytest.param("A#b < C D", 1, 9, "trailing input 'D'", id="hash-inside-name"),
    pytest.param("A #b < C D", 1, 1, "unexpected end of line", id="hash-after-blank"),
    pytest.param("\tA <\t\t< B", 1, 7, "expected a concept, found '<'", id="tabs"),
    pytest.param("A < B\n\n\tr(a,\tb) x", 3, 10, "trailing input 'x'", id="tabs-line-3"),
    pytest.param("A : B", 1, 3, "class assertion requires a '{name}' subject", id="assert-class"),
    pytest.param("r(a b)", 1, 5, "expected ',', found 'b'", id="expected-comma"),
    pytest.param("{and} : A", 1, 2, "expected a name, found 'and'", id="keyword-name"),
    pytest.param("A B", 1, 3, "expected '<' or ':', found 'B'", id="no-connective"),
    pytest.param("", 1, 1, "empty axiom", id="empty-axiom"),
]


@pytest.mark.parametrize("text, line, column, message", PARSE_ERRORS)
def test_parse_errors_pin_message_line_and_column(text, line, column, message):
    with pytest.raises(ParseError) as exc:
        parse_ontology(text) if "\n" in text else parse_axiom(text, Ontology())
    assert str(exc.value) == f"line {line}, column {column}: {message}"
    assert (exc.value.line, exc.value.column) == (line, column)


@pytest.mark.parametrize("char", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029", "\r"])
def test_only_newline_ends_a_line(char):
    # str.splitlines() breaks at each of these; the format does not
    with pytest.raises(ParseError) as exc:
        parse_ontology(f"A < B\nC <{char}D\n")
    assert str(exc.value) == f"line 2, column 4: unexpected character {char!r}"
    assert (exc.value.line, exc.value.column) == (2, 4)
    with pytest.raises(ParseError, match="line 1, column 6: unexpected character"):
        parse_ontology(f"A < B{char}C < D")


def test_crlf_is_one_line_end():
    onto = parse_ontology("A < B\r\n\r\nC < D\r\n")
    assert onto.positions == [(1, 1), (3, 1)]
    assert onto.axioms == parse_ontology("A < B\n\nC < D\n").axioms


def test_format_gci_with_bot():
    onto = parse_ontology("Female and Male < Bot")
    assert format_axiom(onto.axioms[0], onto) == "Female and Male < Bot"


def test_format_role_assertion():
    onto = parse_ontology("hasChild(john, mary)")
    assert format_axiom(onto.axioms[0], onto) == "hasChild(john, mary)"


def test_format_simple_roundtrip():
    onto = parse_ontology("Mother < Parent")
    text = format_axiom(onto.axioms[0], onto)
    assert text == "Mother < Parent"
    assert parse_axiom(text, onto) == onto.axioms[0]


# --- random round-trip property -----------------------------------------

# names with a leading digit or a ':' as in STRING protein IDs and GO classes
_CLASSES = ("A", "B", "C", "D", "GO:0005575", "4D")
_RELATIONS = ("r", "s", "part:of")
_INDIVIDUALS = ("a", "b", "9606.ENSP23", "0")
_onto = Ontology()
for _name in _CLASSES:
    _onto.classes.intern(_name)
for _name in _RELATIONS:
    _onto.relations.intern(_name)
for _name in _INDIVIDUALS:
    _onto.individuals.intern(_name)

_atoms = st.sampled_from(
    [Atomic(_onto.classes.id(n)) for n in _CLASSES]
    + [TOP, BOT]
    + [Nominal(_onto.individuals.id(n)) for n in _INDIVIDUALS]
)


def _concepts(depth):
    if depth == 0:
        return _atoms
    sub = _concepts(depth - 1)
    return st.one_of(
        _atoms,
        st.builds(Conjunction, sub, sub),
        st.builds(
            Existential,
            st.sampled_from([_onto.relations.id(n) for n in _RELATIONS]),
            sub,
        ),
    )


_axioms = st.one_of(
    st.builds(GCI, _concepts(4), _concepts(4)),
    st.builds(
        Instantiation,
        _concepts(3),
        st.sampled_from([_onto.individuals.id(n) for n in _INDIVIDUALS]),
    ),
    st.builds(
        RoleAssertion,
        st.sampled_from([_onto.relations.id(n) for n in _RELATIONS]),
        st.sampled_from([_onto.individuals.id(n) for n in _INDIVIDUALS]),
        st.sampled_from([_onto.individuals.id(n) for n in _INDIVIDUALS]),
    ),
)


@given(_axioms)
def test_parse_format_roundtrip(axiom):
    text = format_axiom(axiom, _onto)
    assert parse_axiom(text, _onto) == axiom
