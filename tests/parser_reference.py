"""A reference parser for the ontology text format, written for clarity over
speed: each token a (kind, value, column) triple, one ``_LineParser`` per line.
``elball.ontology`` used it before its string-token parser; it stays as the
oracle that ``tests/test_parser.py`` compares ``parse_ontology`` and
``parse_axiom`` with: equal axioms, vocabularies and positions, or an equal
``ParseError``.
"""

from __future__ import annotations

import re

from elball.ontology import (
    BOT,
    BOT_NAME,
    GCI,
    TOP,
    TOP_NAME,
    Atomic,
    Axiom,
    Concept,
    Conjunction,
    Existential,
    Instantiation,
    Nominal,
    Ontology,
    ParseError,
    RoleAssertion,
)

_KEYWORDS = frozenset({"and", "some", TOP_NAME, BOT_NAME})
# After blanks: a name, a punctuation mark, a comment, or any other character,
# which is an error. That last group excludes blanks, so trailing blanks match
# nothing rather than read as an unexpected character.
_TOKEN = re.compile(r"[ \t]*(?:([A-Za-z0-9_][A-Za-z0-9_#.:\-]*)|([<(){}:,])|(#)|([^ \t]))")


def _tokenize(text: str, lineno: int) -> list[tuple[str, str, int]]:
    """Return (kind, value, column) triples; kind is 'ident' or the punct char."""
    tokens = []
    for match in _TOKEN.finditer(text):
        ident, punct, comment, other = match.groups()
        col = match.start(match.lastindex) + 1
        if comment:  # '#' inside an identifier is part of the name
            break
        if other:
            raise ParseError(f"unexpected character {other!r}", lineno, col)
        tokens.append(("ident", ident, col) if ident else (punct, punct, col))
    return tokens


class _LineParser:
    def __init__(
        self, tokens: list[tuple[str, str, int]], lineno: int, onto: Ontology, atomics: dict[str, Atomic]
    ):
        # two end tokens, so peek(1) stays in range; errors there point at the last token
        self.tokens = tokens + [("end", "", tokens[-1][2])] * 2
        self.pos = 0
        self.lineno = lineno
        self.onto = onto
        self.atomics = atomics  # class name -> the one Atomic node of the parse call

    def peek(self, ahead: int = 0) -> tuple[str, str, int]:
        return self.tokens[self.pos + ahead]

    def next(self) -> tuple[str, str, int]:
        tok = self.peek()
        if tok[0] == "end":
            raise ParseError("unexpected end of line", self.lineno, tok[2])
        self.pos += 1
        return tok

    def expect(self, kind: str):
        tok = self.next()
        if tok[0] != kind:
            raise ParseError(f"expected {kind!r}, found {tok[1]!r}", self.lineno, tok[2])
        return tok

    def expect_ident(self) -> tuple[str, int]:
        tok = self.next()
        if tok[0] != "ident" or tok[1] in _KEYWORDS:
            raise ParseError(f"expected a name, found {tok[1]!r}", self.lineno, tok[2])
        return tok[1], tok[2]

    def parse_axiom(self) -> Axiom:
        try:
            return self._parse_axiom()
        except RecursionError:
            raise ParseError("concept nested too deeply", self.lineno, self.peek()[2]) from None

    # axiom := concept "<" concept | IDENT "(" IDENT "," IDENT ")"
    #        | "{" IDENT "}" ":" concept
    def _parse_axiom(self) -> Axiom:
        if self.peek()[0] == "ident" and self.peek(1)[0] == "(":
            axiom = self._parse_role_assertion()
        else:
            lhs = self.parse_concept()
            tok = self.next()
            if tok[0] == "<":
                rhs = self.parse_concept()
                axiom = GCI(lhs, rhs)
            elif tok[0] == ":":
                if not isinstance(lhs, Nominal):
                    raise ParseError(
                        "class assertion requires a '{name}' subject", self.lineno, tok[2]
                    )
                concept = self.parse_concept()
                axiom = Instantiation(concept, lhs.individual)
            else:
                raise ParseError(f"expected '<' or ':', found {tok[1]!r}", self.lineno, tok[2])
        tok = self.peek()
        if tok[0] != "end":
            raise ParseError(f"trailing input {tok[1]!r}", self.lineno, tok[2])
        return axiom

    def _parse_role_assertion(self) -> RoleAssertion:
        rel_name, _ = self.expect_ident()
        self.expect("(")
        subj, _ = self.expect_ident()
        self.expect(",")
        obj, _ = self.expect_ident()
        self.expect(")")
        return RoleAssertion(
            self.onto.relations.intern(rel_name),
            self.onto.individuals.intern(subj),
            self.onto.individuals.intern(obj),
        )

    # concept := prim ("and" prim)*   left-associative
    def parse_concept(self) -> Concept:
        concept = self.parse_prim()
        while self.peek()[:2] == ("ident", "and"):
            self.next()
            concept = Conjunction(concept, self.parse_prim())
        return concept

    # prim := "(" concept ")" | "{" IDENT "}" | "Top" | "Bot"
    #       | IDENT ["some" prim]
    def parse_prim(self) -> Concept:
        tok = self.next()
        if tok[0] == "(":
            inner = self.parse_concept()
            self.expect(")")
            return inner
        if tok[0] == "{":
            name, _ = self.expect_ident()
            self.expect("}")
            return Nominal(self.onto.individuals.intern(name))
        if tok[0] != "ident" or tok[1] in ("and", "some"):
            raise ParseError(f"expected a concept, found {tok[1]!r}", self.lineno, tok[2])
        if tok[1] == TOP_NAME:
            return TOP
        if tok[1] == BOT_NAME:
            return BOT
        if self.peek()[:2] == ("ident", "some"):
            self.next()
            filler = self.parse_prim()
            return Existential(self.onto.relations.intern(tok[1]), filler)
        node = self.atomics.get(tok[1])
        if node is None:
            node = self.atomics[tok[1]] = Atomic(self.onto.classes.intern(tok[1]))
        return node


def parse_ontology(text: str, onto: Ontology | None = None) -> Ontology:
    """Parse the text format into an Ontology, interning symbols on first use.
    Every mention of a class within the call is the same ``Atomic`` node.

    A line ends at a line feed, or a carriage return and a line feed; any
    other character that ``str.splitlines`` breaks at is an unexpected
    character.
    """
    onto = onto if onto is not None else Ontology()
    atomics: dict[str, Atomic] = {}
    for lineno, line in enumerate(text.split("\n"), start=1):
        tokens = _tokenize(line.removesuffix("\r"), lineno)
        if not tokens:
            continue
        parser = _LineParser(tokens, lineno, onto, atomics)
        axiom = parser.parse_axiom()
        onto.add(axiom, (lineno, tokens[0][2]))
    return onto


def parse_axiom(text: str, onto: Ontology) -> Axiom:
    """Parse a single axiom line against an existing ontology's vocabularies."""
    tokens = _tokenize(text, 1)
    if not tokens:
        raise ParseError("empty axiom", 1, 1)
    return _LineParser(tokens, 1, onto, {}).parse_axiom()
