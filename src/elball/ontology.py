"""Vocabularies, concept AST, and parser/printer for the compact EL++ text format.

Concrete syntax, one axiom per line:

    Male < Person                   # concept inclusion
    Female and Male < Bot           # conjunction, Bot keyword
    Parent < hasChild some Top      # existential restriction
    hasChild(john, mary)            # role assertion
    {john} : Father                 # class assertion

``some`` binds tighter than ``and``; ``and`` is left-associative;
parentheses are accepted. A concept lies in at most ``MAX_NESTING`` levels,
each a ``(`` or a ``some``; a deeper one is a ParseError at the token that opens
the level past it. A name starts with an ASCII letter, digit or
``_`` and goes on with those and ``# . - :`` (``9606.ENSP23``, ``GO:0005575``).
``#`` starts a comment where it does not continue a name, such as ``N#0``.

Concept nodes are immutable and compare by value, so one node may be
shared between axioms: ``parse_ontology`` builds one ``Atomic`` per class
within a call, and ``dataio.build_dataset`` and
``normalizer.eliminate_abox`` build one node per distinct concept.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, fields
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


def _node(cls):
    """``cls`` as a frozen, slotted dataclass whose ``__init__`` sets each slot
    through its descriptor. The generated frozen ``__init__`` looks up
    ``object.__setattr__`` once per field, which makes a node about 1.5x as
    slow to build; equality, hash, repr and frozenness stay the dataclass's."""
    cls = dataclass(frozen=True, slots=True)(cls)
    names = [f.name for f in fields(cls)]
    namespace = {f"_set_{name}": getattr(cls, name).__set__ for name in names}
    body = "".join(f"\n    _set_{name}(self, {name})" for name in names)
    exec(f"def __init__(self, {', '.join(names)}):{body}", namespace)
    cls.__init__ = namespace["__init__"]
    cls.__init__.__qualname__ = f"{cls.__qualname__}.__init__"
    return cls


@_node
class Atomic:
    cls: int


@_node
class Nominal:
    individual: int


@_node
class Conjunction:
    left: "Concept"
    right: "Concept"


@_node
class Existential:
    relation: int
    filler: "Concept"


Concept = Union[Atomic, Nominal, Conjunction, Existential]

TOP = Atomic(TOP_ID)
BOT = Atomic(BOT_ID)


@_node
class GCI:
    sub: Concept
    sup: Concept


@_node
class Instantiation:
    concept: Concept
    individual: int


@_node
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
    Axioms given without positions are built in code and get (0, 0) each.
    """

    classes: Vocabulary = field(default_factory=class_vocabulary)
    relations: Vocabulary = field(default_factory=Vocabulary)
    individuals: Vocabulary = field(default_factory=Vocabulary)
    axioms: list[Axiom] = field(default_factory=list)
    positions: list[tuple[int, int]] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.positions:
            self.positions = [(0, 0)] * len(self.axioms)

    def add(self, axiom: Axiom, position: tuple[int, int] = (0, 0)) -> None:
        self.axioms.append(axiom)
        self.positions.append(position)


# --- parser --------------------------------------------------------------

_KEYWORDS = frozenset({"and", "some", TOP_NAME, BOT_NAME})
_END = None  # the token after a line's last
# punctuation, an unexpected character (read as "", which no rule accepts), the end
_MARKS = frozenset(("<", "(", ")", "{", "}", ":", ",", "", _END))
_NOT_NAME = _MARKS | _KEYWORDS
_NOT_CONCEPT = _NOT_NAME - {"(", "{", TOP_NAME, BOT_NAME}
_NAME = r"[A-Za-z0-9_][A-Za-z0-9_#.:\-]*"
# A name, a punctuation mark, a comment (a '#' that does not continue a name,
# to the end of the text), or any other non-blank character, read as "".
_TOKEN = re.compile(rf"({_NAME}|[<(){{}}:,]|#.*)|[^ \t]", re.DOTALL)


# Levels of "(" and "some" a concept may lie in. The parser takes one Python
# frame per level, so this keeps the outcome independent of the caller's stack.
MAX_NESTING = 512


class _Syntax(Exception):
    """(message, index): a grammar error at token ``index`` of a line."""


class _Parser:
    """Recursive descent over one line's tokens at a time, ``_END`` appended,
    read at index ``i``; one per parse call, raising ``_Syntax``. (Closures that
    call each other would be a reference cycle, keeping ``onto`` alive.)"""

    __slots__ = ("onto", "atomics", "toks", "i")

    def __init__(self, onto: Ontology):
        self.onto, self.toks, self.i = onto, [], 0
        self.atomics: dict[str, Atomic] = {}  # class name -> the one Atomic node of the call

    def fail(self, what: str):
        tok = self.toks[self.i]
        raise _Syntax("unexpected end of line" if tok is _END else f"expected {what}, found {tok!r}", self.i)

    def take(self, mark: str | None = None) -> str:
        """The token at i, which must be ``mark`` (a name if None); moves i past it."""
        tok = self.toks[self.i]
        if (tok in _NOT_NAME) if mark is None else (tok != mark):
            self.fail("a name" if mark is None else repr(mark))
        self.i += 1
        return tok

    # axiom := concept "<" concept | IDENT "(" IDENT "," IDENT ")"
    #        | "{" IDENT "}" ":" concept
    def axiom(self, toks: list) -> Axiom:
        self.toks, self.i = toks, 0
        try:
            if toks[1] == "(" and toks[0] not in _MARKS:
                take, individual = self.take, self.onto.individuals.intern
                rel, _, subj, _, obj, _ = take(), take("("), take(), take(","), take(), take(")")
                result = RoleAssertion(self.onto.relations.intern(rel), individual(subj), individual(obj))
            else:
                lhs = self.concept()
                if toks[self.i] == "<":
                    self.i += 1
                    result = GCI(lhs, self.concept())
                elif toks[self.i] == ":":
                    if not isinstance(lhs, Nominal):
                        raise _Syntax("class assertion requires a '{name}' subject", self.i)
                    self.i += 1
                    result = Instantiation(self.concept(), lhs.individual)
                else:
                    self.fail("'<' or ':'")
        except RecursionError:  # a caller already close to the recursion limit
            raise _Syntax("concept nested too deeply", self.i) from None
        if toks[self.i] is not _END:
            raise _Syntax(f"trailing input {toks[self.i]!r}", self.i)
        return result

    # concept := prim ("and" prim)*   left-associative
    # prim := "(" concept ")" | "{" IDENT "}" | "Top" | "Bot"
    #       | IDENT ["some" prim]
    def concept(self, depth: int = 0, prim: bool = False) -> Concept:
        """The concept at i, or only its first prim if ``prim``, inside
        ``depth`` levels. Each "(" and "some" opens one level, parsed by one
        call deeper, so a concept that fits MAX_NESTING fits the stack."""
        node = None
        while True:
            tok = self.toks[self.i]
            if tok in _NOT_CONCEPT:
                self.fail("a concept")
            self.i += 1
            if tok == "(":
                part = self.concept(self.deeper(depth, self.i - 1))
                self.take(")")
            elif tok == "{":
                name = self.take()
                self.take("}")
                part = Nominal(self.onto.individuals.intern(name))
            elif tok == TOP_NAME:
                part = TOP
            elif tok == BOT_NAME:
                part = BOT
            elif self.toks[self.i] == "some":
                self.i += 1
                filler = self.concept(self.deeper(depth, self.i - 1), prim=True)
                part = Existential(self.onto.relations.intern(tok), filler)
            else:
                part = self.atomics.get(tok)
                if part is None:
                    part = self.atomics[tok] = Atomic(self.onto.classes.intern(tok))
            node = part if node is None else Conjunction(node, part)
            if prim or self.toks[self.i] != "and":
                return node
            self.i += 1

    @staticmethod
    def deeper(depth: int, index: int) -> int:
        """``depth`` + 1 for the level that token ``index`` opens, unless it
        exceeds MAX_NESTING."""
        if depth == MAX_NESTING:
            raise _Syntax("concept nested too deeply", index)
        return depth + 1


def _parse(lines: list[str], onto: Ontology, axioms: list, positions: list) -> None:
    """Append the axiom and (line, column) of each line with more than blanks and a
    comment. A line's first unexpected character before any comment is its error,
    else its grammar error; only then are its columns worked out, by a second scan."""
    axiom = _Parser(onto).axiom
    for lineno, line in enumerate(lines, start=1):
        toks = _TOKEN.findall(line)
        if toks and toks[-1][:1] == "#":
            toks.pop()
        if not toks:
            continue
        toks.append(_END)
        try:
            axioms.append(axiom(toks))
            positions.append((lineno, len(line) - len(line.lstrip(" \t")) + 1))
        except _Syntax as exc:
            columns = []
            for match in _TOKEN.finditer(line):
                if match[1] is None:
                    raise ParseError(f"unexpected character {match[0]!r}", lineno, match.start() + 1) from None
                if match[1][0] == "#":
                    break
                columns.append(match.start() + 1)
            message, j = exc.args
            raise ParseError(message, lineno, columns[min(j, len(columns) - 1)]) from None


def parse_ontology(text: str, onto: Ontology | None = None) -> Ontology:
    """Parse the text format into an Ontology, interning symbols on first use.
    Every mention of a class within the call is the same ``Atomic`` node.

    A line ends at a line feed, or a carriage return and a line feed; any
    other character that ``str.splitlines`` breaks at is an unexpected
    character.
    """
    onto = onto if onto is not None else Ontology()
    lines = text.replace("\r\n", "\n").removesuffix("\r").split("\n")
    _parse(lines, onto, onto.axioms, onto.positions)
    return onto


def parse_axiom(text: str, onto: Ontology) -> Axiom:
    """Parse a single axiom line against an existing ontology's vocabularies."""
    axioms: list[Axiom] = []
    _parse([text], onto, axioms, [])
    if not axioms:
        raise ParseError("empty axiom", 1, 1)
    return axioms[0]


def is_name(text: str) -> bool:
    """Whether ``text`` can stand for a class, relation or individual in the text format."""
    return re.fullmatch(_NAME, text) is not None and text not in _KEYWORDS


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
