"""ABox elimination and rewriting into the four EL++ normal forms.

The bottom forms are split out into their own buckets, so a normalized
theory ends up with the seven of ``NormalForm``, where every argument is an
atomic class (possibly fresh or nominal-derived).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from itertools import chain
from typing import Optional

import numpy as np

from .ontology import (
    BOT,
    BOT_ID,
    Atomic,
    Axiom,
    Concept,
    Conjunction,
    Existential,
    GCI,
    Instantiation,
    Nominal,
    Ontology,
    RoleAssertion,
    Vocabulary,
)

FRESH_PREFIX = "N#"


class NormalizationError(Exception):
    pass


class UnsupportedAxiomError(NormalizationError):
    """No normal form exists, e.g. Bot inside an existential filler on the right."""


class NormalForm(Enum):
    """The seven buckets. A member's value is its label, ``field`` its bucket
    in NormalizedTheory and LossBatch, ``kinds`` its operand columns ("c"
    class, "r" relation) and ``text`` its axiom, a %-template over their names."""

    NF1 = ("NF1", "nf1", "cc", "%s < %s")
    NF2 = ("NF2", "nf2", "ccc", "%s and %s < %s")
    NF3 = ("NF3", "nf3", "crc", "%s < %s some %s")
    NF4 = ("NF4", "nf4", "rcc", "%s some %s < %s")
    BOT1 = ("Bot1", "bot1", "c", "%s < Bot")
    BOT2 = ("Bot2", "bot2", "cc", "%s and %s < Bot")
    BOT4 = ("Bot4", "bot4", "rc", "%s some %s < Bot")

    def __new__(cls, label: str, bucket: str, kinds: str, text: str):
        member = object.__new__(cls)
        member._value_ = label
        member.field, member.kinds, member.text = bucket, kinds, text
        return member

    # members are singletons compared by identity; Enum's own hash runs in Python
    __hash__ = object.__hash__

    def format(self, rows: np.ndarray, names: dict[str, np.ndarray]) -> list[str]:
        """The text of each row of operand handles, one column per operand;
        ``names`` maps each kind to its handle -> name array."""
        columns = (names[k][col] for k, col in zip(self.kinds, rows.T))
        return [self.text % operands for operands in zip(*columns)]  # % is faster than str.format


# The members under plain names: on Python 3.10 and 3.11 each NormalForm.NF1
# is a descriptor lookup, which _normal_form would pay once per axiom.
_NF1, _NF2, _NF3, _NF4, _BOT1, _BOT2, _BOT4 = NormalForm


@dataclass
class NormalizedTheory:
    """Seven disjoint axiom buckets over an augmented class vocabulary.

    An entry holds its form's operand handles in ``NormalForm.kinds`` order,
    e.g. (r, C, D) for NF4's r some C < D; a Bot1 entry is the bare class.
    Entries are immutable (tuples, a bare int for Bot1): ``handles`` converts
    a bucket once and reuses the array while the bucket equals its copy of
    the entries; ``names`` reuses its arrays until a vocabulary grows.
    """

    classes: Vocabulary
    relations: Vocabulary
    nf1: list[tuple[int, int]] = field(default_factory=list)
    nf2: list[tuple[int, int, int]] = field(default_factory=list)
    nf3: list[tuple[int, int, int]] = field(default_factory=list)
    nf4: list[tuple[int, int, int]] = field(default_factory=list)
    bot1: list[int] = field(default_factory=list)
    bot2: list[tuple[int, int]] = field(default_factory=list)
    bot4: list[tuple[int, int]] = field(default_factory=list)
    fresh: set[int] = field(default_factory=set)
    # per form, a copy of its bucket and that copy's handle array; under
    # "names", the vocabularies, their sizes and the name arrays
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __getstate__(self) -> dict:
        # a copy or unpickled theory converts afresh: copied arrays would be writeable
        return {**vars(self), "_memo": {}}

    def counts(self) -> dict[str, int]:
        return {form.value: len(getattr(self, form.field)) for form in NormalForm}

    def _converted(self, form: NormalForm) -> tuple[list, np.ndarray]:
        """A copy of the form's bucket as last converted, and its ``handles``.
        Both are shared with later calls, so neither may be changed."""
        entries = getattr(self, form.field)
        memo = self._memo.get(form)
        # list comparison tests each pair of entries for identity before
        # equality: a pointer walk while the bucket holds the copy's objects
        if memo is None or type(entries) is not list or memo[0] != entries:
            width = len(form.kinds)
            copy = list(entries)
            flat = copy if width == 1 else chain.from_iterable(copy)
            rows = np.fromiter(flat, dtype=np.intp)
            rows.flags.writeable = False  # before reshaping: no view can turn it back on
            memo = self._memo[form] = copy, rows.reshape(len(copy), width)
        return memo

    def handles(self, form: NormalForm) -> np.ndarray:
        """The form's bucket as a read-only array of handles, one row per
        axiom, converted once per bucket content."""
        return self._converted(form)[1]

    def names(self) -> dict[str, np.ndarray]:
        """Read-only handle -> name arrays of the classes ("c") and relations
        ("r"), built again only when a vocabulary grows or is replaced."""
        vocabularies = (("c", self.classes), ("r", self.relations))
        sizes = [(v, len(v)) for _, v in vocabularies]
        memo = self._memo.get("names")
        if memo is None or memo[0] != sizes:
            names = {kind: np.array(list(v), dtype=object) for kind, v in vocabularies}
            for array in names.values():
                array.flags.writeable = False
            memo = self._memo["names"] = sizes, names
        return dict(memo[1])

    def n_axioms(self) -> int:
        return sum(self.counts().values())

    def as_ontology(self) -> Ontology:
        """View the buckets as an ontology of GCIs (for printing and round trips)."""
        onto = Ontology(
            classes=self.classes.copy(), relations=self.relations.copy()
        )
        for c, d in self.nf1:
            onto.add(GCI(Atomic(c), Atomic(d)))
        for c, d, e in self.nf2:
            onto.add(GCI(Conjunction(Atomic(c), Atomic(d)), Atomic(e)))
        for c, r, d in self.nf3:
            onto.add(GCI(Atomic(c), Existential(r, Atomic(d))))
        for r, c, d in self.nf4:
            onto.add(GCI(Existential(r, Atomic(c)), Atomic(d)))
        for c in self.bot1:
            onto.add(GCI(Atomic(c), BOT))
        for c, d in self.bot2:
            onto.add(GCI(Conjunction(Atomic(c), Atomic(d)), BOT))
        for r, c in self.bot4:
            onto.add(GCI(Existential(r, Atomic(c)), BOT))
        return onto


def _nested_too_deeply(line: int) -> NormalizationError:
    """The error for an axiom whose rewriting ran out of Python stack."""
    return NormalizationError((f"line {line}: " if line else "") + "axiom nested too deeply to normalize")


def _positions(onto: Ontology) -> list[tuple[int, int]]:
    """``onto.positions``, refused unless it holds one position per axiom."""
    if len(onto.positions) != len(onto.axioms):
        raise NormalizationError(
            f"{len(onto.axioms)} axioms but {len(onto.positions)} positions; "
            "add axioms with Ontology.add, which records a position for each"
        )
    return onto.positions


def nominal_class_name(individual_name: str) -> str:
    return "{" + individual_name + "}"


def eliminate_abox(onto: Ontology) -> Ontology:
    """Replace individuals with singleton classes.

    r(a,b) becomes {a} < r some {b}; C(a) becomes {a} < C; nominal concepts
    inside GCIs become atomic classes named "{a}", one shared Atomic node
    each, interned on first occurrence (subject before object). Role
    assertions share one r some {b} node per (r, b). A concept or GCI
    without a nominal is kept as it is, not rebuilt.
    """
    out = Ontology(
        classes=onto.classes.copy(),
        relations=onto.relations.copy(),
        individuals=onto.individuals.copy(),
    )
    nominal_classes: dict[int, Atomic] = {}
    some: dict[int, Existential] = {}  # by id(); every key is a node of onto.axioms
    asserted: dict[tuple[int, int], Existential] = {}  # (r, b) of a role assertion r(a, b)

    def nominal_class(individual: int) -> Atomic:
        node = nominal_classes.get(individual)
        if node is None:
            name = nominal_class_name(onto.individuals.name(individual))
            node = nominal_classes[individual] = Atomic(out.classes.intern(name))
        return node

    def convert(concept: Concept) -> Concept:
        kind = type(concept)
        if kind is Nominal:
            return nominal_class(concept.individual)
        if kind is Existential:
            node = some.get(id(concept))
            if node is None:
                filler = convert(concept.filler)
                unchanged = filler is concept.filler
                node = some[id(concept)] = concept if unchanged else Existential(concept.relation, filler)
            return node
        if kind is not Conjunction:
            return concept
        # the parser builds a flat conjunction as a left-nested tree as deep as
        # it is long, so the tree is rebuilt post-order from an explicit stack,
        # where None marks the conjunction below it as having its two
        # converted children done
        stack: list[Optional[Concept]] = [concept]
        done: list[Concept] = []
        while stack:
            node = stack.pop()
            if node is None:
                node = stack.pop()
                right, left = done.pop(), done.pop()
                if left is not node.left or right is not node.right:
                    node = Conjunction(left, right)
                done.append(node)
            elif type(node) is Conjunction:
                stack += node, None, node.right, node.left
            else:
                done.append(convert(node))
        return done[0]

    axioms = out.axioms
    try:
        for axiom, position in zip(onto.axioms, _positions(onto)):
            kind = type(axiom)
            if kind is RoleAssertion:
                sub = nominal_class(axiom.subject)
                key = (axiom.relation, axiom.object)
                sup = asserted.get(key)
                if sup is None:
                    sup = asserted[key] = Existential(axiom.relation, nominal_class(axiom.object))
                axiom = GCI(sub, sup)
            elif kind is Instantiation:
                axiom = GCI(nominal_class(axiom.individual), convert(axiom.concept))
            else:
                sub, sup = convert(axiom.sub), convert(axiom.sup)
                if sub is not axiom.sub or sup is not axiom.sup:
                    axiom = GCI(sub, sup)
            axioms.append(axiom)
    except RecursionError:
        raise _nested_too_deeply(position[0]) from None
    out.positions = list(onto.positions)
    some.clear()  # convert refers to itself, so only the cyclic GC would free it
    return out


def _contains_bot(concept: Concept) -> bool:
    for part in _flatten_conjunction(concept):
        if part == BOT or isinstance(part, Existential) and _contains_bot(part.filler):
            return True
    return False


def _flatten_conjunction(concept: Concept) -> list[Concept]:
    """The conjuncts of a conjunction tree, left to right, without recursion."""
    conjuncts, stack = [], [concept]
    while stack:
        concept = stack.pop()
        if isinstance(concept, Conjunction):
            stack += concept.right, concept.left
        else:
            conjuncts.append(concept)
    return conjuncts


def _normal_form(sub: Concept, sup: Concept) -> Optional[tuple[NormalForm, object]]:
    """The bucket that  sub < sup  already fits and its entry there, or None.

    None also covers every axiom with Bot on its left.
    """
    if isinstance(sub, Atomic) and sub.cls != BOT_ID:
        if isinstance(sup, Atomic):
            if sup.cls == BOT_ID:
                return _BOT1, sub.cls
            return _NF1, (sub.cls, sup.cls)
        if isinstance(sup, Existential) and isinstance(sup.filler, Atomic) and sup.filler.cls != BOT_ID:
            return _NF3, (sub.cls, sup.relation, sup.filler.cls)
        return None
    if not isinstance(sup, Atomic):
        return None
    if isinstance(sub, Conjunction):
        left, right = sub.left, sub.right
        if not (isinstance(left, Atomic) and isinstance(right, Atomic)) or BOT_ID in (left.cls, right.cls):
            return None
        if sup.cls == BOT_ID:
            return _BOT2, (left.cls, right.cls)
        return _NF2, (left.cls, right.cls, sup.cls)
    if isinstance(sub, Existential) and isinstance(sub.filler, Atomic) and sub.filler.cls != BOT_ID:
        if sup.cls == BOT_ID:
            return _BOT4, (sub.relation, sub.filler.cls)
        return _NF4, (sub.relation, sub.filler.cls, sup.cls)
    return None


def classify_axiom(axiom: Axiom) -> Optional[NormalForm]:
    """Which bucket the axiom already fits, or None when it is not normal."""
    if not isinstance(axiom, GCI):
        return None
    found = _normal_form(axiom.sub, axiom.sup)
    return None if found is None else found[0]


def normalize(onto: Ontology) -> NormalizedTheory:
    """Rewrite a TBox-only ontology into the seven normal-form buckets.

    Rules (i)-(v) apply by direct recursion, so entries land in the order
    the rewrites reach them. A fresh class named for a left-hand concept
    is defined (concept < fresh) after the axiom that uses it, one named
    for a right-hand filler (fresh < filler) before it, and the definitions
    made for one left-hand conjunction are added last-first. Fresh classes
    are drawn from the "N#<k>" namespace in introduction order; identical
    complex subconcepts reuse the same fresh name within one run (per
    rewriting polarity). Axioms whose left-hand side contains Bot are
    dropped as tautologies; duplicates are deduplicated. An axiom that is
    already normal goes straight to its bucket. A nominal is
    refused: ``eliminate_abox`` must run first. A NormalizationError names
    the line of the input axiom it arose from.
    """
    theory = NormalizedTheory(
        classes=onto.classes.copy(), relations=onto.relations.copy()
    )
    # Fresh-name sharing is per polarity: "sub" entries carry a defining
    # axiom  fresh < concept,  "sup" entries carry  concept < fresh.
    fresh_of: dict[tuple[str, Concept], int] = {}
    # each bucket's entries as the keys of a dict: deduplicated, in first-seen order
    buckets: dict[NormalForm, dict] = {form: {} for form in NormalForm}

    def fresh(concept: Concept, polarity: str) -> tuple[Atomic, bool]:
        key = (polarity, concept)
        is_new = key not in fresh_of
        if is_new:
            fresh_of[key] = theory.classes.intern(f"{FRESH_PREFIX}{len(theory.fresh)}")
            theory.fresh.add(fresh_of[key])
        return Atomic(fresh_of[key]), is_new

    def add(sub: Concept, sup: Concept) -> None:
        found = _normal_form(sub, sup)
        if found is None:
            rewrite(sub, sup)
        else:
            form, entry = found
            buckets[form][entry] = None

    def rewrite(sub: Concept, sup: Concept) -> None:
        """Add the normal forms of  sub < sup,  which is not normal itself."""
        if nominals := [c for c in (sub, sup) if isinstance(c, Nominal)]:
            # the rules below bring every nested nominal to a side of an axiom of its
            # own; one in a tautology is dropped with it, as after eliminate_abox
            name = onto.individuals.name(nominals[0].individual)
            raise NormalizationError(
                f"nominal {nominal_class_name(name)} in a GCI; run eliminate_abox first"
            )
        elif _contains_bot(sub):
            return  # Bot in a (purely positive) EL concept makes it Bot: a tautology
        elif isinstance(sup, Conjunction):
            # (v) split conjunctions on the right
            for part in _flatten_conjunction(sup):
                add(sub, part)
        elif isinstance(sup, Existential) and _contains_bot(sup):
            # Bot on the right in a non-normal position
            raise UnsupportedAxiomError(
                "no normal form exists for Bot inside an existential filler "
                "on the right-hand side"
            )
        elif not isinstance(sub, Atomic) and not isinstance(sup, Atomic):
            # (iii) complex on both sides: route through a fresh middle class
            mid, is_new = fresh(sub, "sup")
            add(mid, sup)
            if is_new:
                add(sub, mid)
        elif isinstance(sub, Atomic):
            # (iv) C < r some D-hat with complex filler
            filler, is_new = fresh(sup.filler, "sub")
            if is_new:
                add(filler, sup.filler)
            add(sub, Existential(sup.relation, filler))
        elif isinstance(sub, Existential):
            # (ii) r some C-hat < D with complex filler
            filler, is_new = fresh(sub.filler, "sup")
            add(Existential(sub.relation, filler), sup)
            if is_new:
                add(sub.filler, filler)
        else:
            # (i) a conjunction < atomic: replace the complex
            # conjuncts left to right, then fold the first pair until two remain
            conjuncts = _flatten_conjunction(sub)
            definitions = []
            for i, conjunct in enumerate(conjuncts):
                if not isinstance(conjunct, Atomic):
                    conjuncts[i], is_new = fresh(conjunct, "sup")
                    if is_new:
                        definitions.append((conjunct, conjuncts[i]))
            head = conjuncts[0]
            for conjunct in conjuncts[1:-1]:
                pair = Conjunction(head, conjunct)
                head, is_new = fresh(pair, "sup")
                if is_new:
                    definitions.append((pair, head))
            add(Conjunction(head, conjuncts[-1]) if len(conjuncts) > 1 else head, sup)
            for definition in reversed(definitions):
                add(*definition)

    for axiom, (line, _) in zip(onto.axioms, _positions(onto)):
        try:
            if not isinstance(axiom, GCI):
                raise NormalizationError(
                    "ontology still contains ABox axioms; run eliminate_abox first"
                )
            add(axiom.sub, axiom.sup)
        except RecursionError:
            raise _nested_too_deeply(line) from None
        except NormalizationError as exc:
            if line:  # axioms built in code carry line 0
                exc.args = (f"line {line}: {exc}",)
            raise
    del add, rewrite  # they refer to each other, so only the cyclic GC would free them
    for form, entries in buckets.items():
        setattr(theory, form.field, list(entries))
    return theory
