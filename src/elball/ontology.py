"""Vocabularies, concept AST, and parser/printer for the compact EL++ text format.

Concrete syntax, one axiom per line:

    Male < Person                   # concept inclusion
    Female and Male < Bot           # conjunction, Bot keyword
    Parent < hasChild some Top      # existential restriction
    hasChild(john, mary)            # role assertion
    {john} : Father                 # class assertion

``some`` binds tighter than ``and``; ``and`` is left-associative;
parentheses are accepted. ``#`` starts a comment at line start or after
whitespace (so fresh names like ``N#0`` survive a round trip).

Concept nodes are immutable and compare by value, so one node may be
shared between axioms: ``dataio.build_dataset`` and
``normalizer.eliminate_abox`` build one node per distinct concept.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Iterator, Union

TOP_NAME = "Top"
BOT_NAME = "Bot"

# Reserved handles: Top interns first, Bot second, in every class vocabulary.
TOP_ID = 0
BOT_ID = 1


class OntologyError(Exception):
    """Base error for ontology construction and lookup failures."""


class ParseError(OntologyError):
    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class Vocabulary:
    """Bijective name <-> integer handle interning for one symbol namespace."""

    def __init__(self, reserved: tuple[str, ...] = ()):
        self._names: list[str] = []
        self._ids: dict[str, int] = {}
        for name in reserved:
            self.intern(name)

    def intern(self, name: str) -> int:
        handle = self._ids.get(name)
        if handle is None:
            handle = len(self._names)
            self._names.append(name)
            self._ids[name] = handle
        return handle

    def id(self, name: str) -> int:
        try:
            return self._ids[name]
        except KeyError:
            raise OntologyError(f"unknown symbol {name!r}") from None

    def name(self, handle: int) -> str:
        return self._names[handle]

    def copy(self) -> "Vocabulary":
        out = Vocabulary()
        out._names = list(self._names)
        out._ids = dict(self._ids)
        return out

    def __contains__(self, name: str) -> bool:
        return name in self._ids

    def __len__(self) -> int:
        return len(self._names)

    def __iter__(self) -> Iterator[str]:
        return iter(self._names)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Vocabulary) and self._names == other._names

    def __repr__(self) -> str:
        return f"Vocabulary({self._names!r})"


def class_vocabulary() -> Vocabulary:
    return Vocabulary(reserved=(TOP_NAME, BOT_NAME))


# --- concept AST ---------------------------------------------------------


@dataclass(frozen=True)
class Atomic:
    cls: int


@dataclass(frozen=True)
class Nominal:
    individual: int


@dataclass(frozen=True)
class Conjunction:
    left: "Concept"
    right: "Concept"


@dataclass(frozen=True)
class Existential:
    relation: int
    filler: "Concept"


Concept = Union[Atomic, Nominal, Conjunction, Existential]

TOP = Atomic(TOP_ID)
BOT = Atomic(BOT_ID)


@dataclass(frozen=True)
class GCI:
    sub: Concept
    sup: Concept


@dataclass(frozen=True)
class Instantiation:
    concept: Concept
    individual: int


@dataclass(frozen=True)
class RoleAssertion:
    relation: int
    subject: int
    object: int


Axiom = Union[GCI, Instantiation, RoleAssertion]


@dataclass
class Ontology:
    """Parsed axioms over interned class/relation/individual vocabularies.

    Immutable by convention after construction; ``positions`` carries the
    (line, column) of each axiom for diagnostics, parallel to ``axioms``.
    """

    classes: Vocabulary = field(default_factory=class_vocabulary)
    relations: Vocabulary = field(default_factory=Vocabulary)
    individuals: Vocabulary = field(default_factory=Vocabulary)
    axioms: list[Axiom] = field(default_factory=list)
    positions: list[tuple[int, int]] = field(default_factory=list)

    def add(self, axiom: Axiom, position: tuple[int, int] = (0, 0)) -> None:
        self.axioms.append(axiom)
        self.positions.append(position)


# --- parser --------------------------------------------------------------

_KEYWORDS = frozenset({"and", "some", TOP_NAME, BOT_NAME})
# After blanks: a name, a punctuation mark, a comment, or any other character,
# which is an error. That last group excludes blanks, so trailing blanks match
# nothing rather than read as an unexpected character.
_TOKEN = re.compile(r"[ \t]*(?:([A-Za-z_][A-Za-z0-9_#.\-]*)|([<(){}:,])|(#)|([^ \t]))")


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
    def __init__(self, tokens: list[tuple[str, str, int]], lineno: int, onto: Ontology):
        # two end tokens, so peek(1) stays in range; errors there point at the last token
        self.tokens = tokens + [("end", "", tokens[-1][2])] * 2
        self.pos = 0
        self.lineno = lineno
        self.onto = onto

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

    # axiom := concept "<" concept | IDENT "(" IDENT "," IDENT ")"
    #        | "{" IDENT "}" ":" concept
    def parse_axiom(self) -> Axiom:
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
        return Atomic(self.onto.classes.intern(tok[1]))


def parse_ontology(text: str, onto: Ontology | None = None) -> Ontology:
    """Parse the text format into an Ontology, interning symbols on first use.

    A line ends at a line feed, or a carriage return and a line feed; any
    other character that ``str.splitlines`` breaks at is an unexpected
    character.
    """
    onto = onto if onto is not None else Ontology()
    for lineno, line in enumerate(text.split("\n"), start=1):
        tokens = _tokenize(line.removesuffix("\r"), lineno)
        if not tokens:
            continue
        parser = _LineParser(tokens, lineno, onto)
        axiom = parser.parse_axiom()
        onto.add(axiom, (lineno, tokens[0][2]))
    return onto


def parse_axiom(text: str, onto: Ontology) -> Axiom:
    """Parse a single axiom line against an existing ontology's vocabularies."""
    tokens = _tokenize(text, 1)
    if not tokens:
        raise ParseError("empty axiom", 1, 1)
    return _LineParser(tokens, 1, onto).parse_axiom()


# --- printer -------------------------------------------------------------

# A nested conjunction, as an existential filler or a right conjunct (the
# grammar is left-associative), needs parentheses.
def format_concept(concept: Concept, onto: Ontology, nested: bool = False) -> str:
    if isinstance(concept, Atomic):
        return onto.classes.name(concept.cls)
    if isinstance(concept, Nominal):
        return "{" + onto.individuals.name(concept.individual) + "}"
    if isinstance(concept, Existential):
        rel = onto.relations.name(concept.relation)
        return f"{rel} some {format_concept(concept.filler, onto, True)}"
    if isinstance(concept, Conjunction):
        left = format_concept(concept.left, onto)
        right = format_concept(concept.right, onto, True)
        text = f"{left} and {right}"
        return f"({text})" if nested else text
    raise OntologyError(f"unknown concept node {concept!r}")


def format_axiom(axiom: Axiom, onto: Ontology) -> str:
    if isinstance(axiom, GCI):
        return f"{format_concept(axiom.sub, onto)} < {format_concept(axiom.sup, onto)}"
    if isinstance(axiom, RoleAssertion):
        rel = onto.relations.name(axiom.relation)
        subj = onto.individuals.name(axiom.subject)
        obj = onto.individuals.name(axiom.object)
        return f"{rel}({subj}, {obj})"
    if isinstance(axiom, Instantiation):
        subj = onto.individuals.name(axiom.individual)
        return f"{{{subj}}} : {format_concept(axiom.concept, onto)}"
    raise OntologyError(f"unknown axiom node {axiom!r}")


def format_ontology(onto: Ontology) -> str:
    return "\n".join(format_axiom(a, onto) for a in onto.axioms) + ("\n" if onto.axioms else "")
