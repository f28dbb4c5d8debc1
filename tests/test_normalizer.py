import gc

import numpy as np
import pytest

from el_oracle import atomic_subsumptions
from elball.family import family_ontology
from elball.normalizer import (
    NormalForm,
    NormalizationError,
    UnsupportedAxiomError,
    classify_axiom,
    eliminate_abox,
    normalize,
)
from elball.ontology import (
    Atomic,
    BOT,
    Conjunction,
    Existential,
    GCI,
    Ontology,
    TOP,
    format_axiom,
    parse_axiom,
    parse_ontology,
)


def test_eliminate_role_assertion():
    onto = parse_ontology("hasChild(john, mary)")
    out = eliminate_abox(onto)
    john = out.classes.id("{john}")
    mary = out.classes.id("{mary}")
    assert out.axioms == [
        GCI(Atomic(john), Existential(out.relations.id("hasChild"), Atomic(mary)))
    ]


def test_eliminate_instantiation():
    onto = parse_ontology("{john} : Father")
    out = eliminate_abox(onto)
    assert out.axioms == [
        GCI(Atomic(out.classes.id("{john}")), Atomic(out.classes.id("Father")))
    ]


def test_eliminate_is_identity_on_tbox():
    onto = parse_ontology("A < B\nA and B < C\n")
    out = eliminate_abox(onto)
    assert out.axioms == onto.axioms


def test_eliminate_nominals_in_gcis():
    onto = parse_ontology("{p} < interacts some {q}")
    out = eliminate_abox(onto)
    axiom = out.axioms[0]
    assert axiom.sub == Atomic(out.classes.id("{p}"))
    assert axiom.sup.filler == Atomic(out.classes.id("{q}"))


def test_eliminate_shares_one_atomic_per_nominal_class():
    onto = parse_ontology("r(a, b)\nr(b, a)\n{a} : C and r some {b}\n{b} < s some {a}\n")
    out = eliminate_abox(onto)
    nodes: dict[int, set[int]] = {}

    def walk(concept):
        if isinstance(concept, Atomic):
            nodes.setdefault(concept.cls, set()).add(id(concept))
        elif isinstance(concept, Conjunction):
            walk(concept.left)
            walk(concept.right)
        elif isinstance(concept, Existential):
            walk(concept.filler)

    for axiom in out.axioms:
        walk(axiom.sub)
        walk(axiom.sup)
    assert len(nodes[out.classes.id("{a}")]) == 1
    assert len(nodes[out.classes.id("{b}")]) == 1


def test_abox_vocabulary_and_bucket_order():
    """Class handles feed checkpoints, so their order is part of the contract."""
    onto = parse_ontology(
        "A < B\n"
        "r(b, a)\n"
        "{c} : A and r some {b}\n"
        "{a} < r some {d}\n"
        "s some {c} < B\n"
        "{d} < r some ({a} and B)\n"
        "r(b, a)\n"
        "{a} : Bot\n"
        "{b} and {c} < Bot\n"
        "s some {d} < Bot\n"
    )
    theory = normalize(eliminate_abox(onto))
    assert list(theory.classes) == ["Top", "Bot", "A", "B", "{b}", "{a}", "{c}", "{d}", "N#0"]
    assert list(theory.relations) == ["r", "s"]
    A, B, b, a, c, d, n0 = 2, 3, 4, 5, 6, 7, 8
    r, s = 0, 1
    assert theory.nf1 == [(A, B), (c, A), (n0, a), (n0, B)]
    assert theory.nf2 == []
    assert theory.nf3 == [(b, r, a), (c, r, b), (a, r, d), (d, r, n0)]
    assert theory.nf4 == [(s, c, B)]
    assert theory.bot1 == [a]
    assert theory.bot2 == [(b, c)]
    assert theory.bot4 == [(s, d)]
    assert theory.fresh == {n0}


def test_classify_normal_forms():
    onto = parse_ontology(
        "Parent < hasChild some Top\n"
        "hasChild some Person < Parent\n"
        "A and B and C < D\n"
        "Male < Person\n"
        "Female and Male < Bot\n"
        "A < Bot\n"
        "r some A < Bot\n"
        "A and B < C\n"
    )
    tags = [classify_axiom(a) for a in onto.axioms]
    assert tags == [
        NormalForm.NF3,
        NormalForm.NF4,
        None,
        NormalForm.NF1,
        NormalForm.BOT2,
        NormalForm.BOT1,
        NormalForm.BOT4,
        NormalForm.NF2,
    ]


def test_family_golden_counts():
    theory = normalize(eliminate_abox(family_ontology()))
    assert theory.counts() == {
        "NF1": 7,
        "NF2": 2,
        "NF3": 1,
        "NF4": 1,
        "Bot1": 0,
        "Bot2": 1,
        "Bot4": 0,
    }
    assert theory.fresh == set()


def test_composed_axiom_one_fresh_symbol():
    onto = parse_ontology("Father and Mother < hasChild some Person")
    theory = normalize(onto)
    assert len(theory.fresh) == 1
    fresh_id = next(iter(theory.fresh))
    assert theory.classes.name(fresh_id) == "N#0"
    father = theory.classes.id("Father")
    mother = theory.classes.id("Mother")
    person = theory.classes.id("Person")
    has_child = theory.relations.id("hasChild")
    assert theory.nf2 == [(father, mother, fresh_id)]
    assert theory.nf3 == [(fresh_id, has_child, person)]
    assert theory.nf1 == [] and theory.nf4 == []


def test_already_normal_is_fixpoint():
    onto = parse_ontology("Male < Person")
    theory = normalize(onto)
    assert theory.fresh == set()
    assert theory.nf1 == [(onto.classes.id("Male"), onto.classes.id("Person"))]


def test_bot2_direct():
    theory = normalize(parse_ontology("Female and Male < Bot"))
    assert theory.counts()["Bot2"] == 1 and theory.fresh == set()


def test_bot_on_left_dropped():
    theory = normalize(parse_ontology("Bot < A\nA and Bot < B\nr some Bot < C\n"))
    assert theory.n_axioms() == 0


def test_bot_in_right_existential_rejected():
    with pytest.raises(UnsupportedAxiomError):
        normalize(parse_ontology("A < r some Bot"))


def test_conjunction_on_right_splits():
    theory = normalize(parse_ontology("A < B and C"))
    assert sorted(theory.nf1) == sorted(
        [
            (theory.classes.id("A"), theory.classes.id("B")),
            (theory.classes.id("A"), theory.classes.id("C")),
        ]
    )
    assert theory.fresh == set()


def test_three_way_conjunction():
    theory = normalize(parse_ontology("A and B and C < D"))
    assert len(theory.fresh) == 1
    assert len(theory.nf2) == 2


def test_left_conjunction_of_complex_and_atomic_conjuncts_golden():
    # complex conjuncts get fresh names left to right, then the first pair
    # folds until two conjuncts remain; the definitions follow the axiom
    # that uses them, last one first
    theory = normalize(parse_ontology("r some (A and s some B) and C and s some D and E < F"))
    names = theory.names()
    assert {form.value: form.format(theory.handles(form), names) for form in NormalForm} == {
        "NF1": [],
        "NF2": ["N#3 and E < F", "N#2 and N#1 < N#3", "N#0 and C < N#2", "A and N#5 < N#4"],
        "NF3": [],
        "NF4": ["s some D < N#1", "r some N#4 < N#0", "s some B < N#5"],
        "Bot1": [],
        "Bot2": [],
        "Bot4": [],
    }
    assert sorted(theory.classes.name(c) for c in theory.fresh) == [f"N#{k}" for k in range(6)]


LONG_CONJUNCTIONS = {  # shape -> (axiom text, nonempty bucket sizes, fresh classes)
    "left atomic": (" and ".join(f"A{i}" for i in range(900)) + " < B", {"NF2": 899}, 898),
    "left existential": (
        " and ".join(f"r some A{i}" for i in range(900)) + " < B", {"NF2": 899, "NF4": 900}, 1798
    ),
    "right atomic": ("B < " + " and ".join(f"A{i}" for i in range(900)), {"NF1": 900}, 0),
}


@pytest.mark.parametrize("shape", LONG_CONJUNCTIONS)
def test_long_conjunctions_normalize_without_recursion_error(shape):
    text, sizes, n_fresh = LONG_CONJUNCTIONS[shape]
    theory = normalize(parse_ontology(text))
    assert {form: n for form, n in theory.counts().items() if n} == sizes
    assert len(theory.fresh) == n_fresh


def test_normalize_leaves_no_reference_cycle():
    # a cycle would keep the fresh-name table and the dedup sets alive
    # until the cyclic collector runs, which raises peak memory
    onto = parse_ontology("r some (A and s some B) and C < D\nA < r some (B and C)\nA < B and C\n")
    gc.collect()
    gc.disable()
    try:
        normalize(onto)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_duplicates_removed():
    theory = normalize(parse_ontology("A < B\nA < B\n"))
    assert theory.counts()["NF1"] == 1


def test_structural_sharing_of_fresh_names():
    theory = normalize(parse_ontology("A < r some (B and C)\nD < r some (B and C)\n"))
    assert len(theory.fresh) == 1


def test_idempotence():
    onto = parse_ontology(
        "Father and Mother < hasChild some Person\n"
        "A < r some (B and C)\n"
        "r some (A and B) < C\n"
    )
    theory = normalize(onto)
    again = normalize(theory.as_ontology())
    assert again.fresh == set()
    assert again.counts() == theory.counts()
    assert sorted(again.nf1) == sorted(theory.nf1)
    assert sorted(again.nf2) == sorted(theory.nf2)
    assert sorted(again.nf3) == sorted(theory.nf3)
    assert sorted(again.nf4) == sorted(theory.nf4)


def test_abox_required_first():
    from elball.normalizer import NormalizationError

    with pytest.raises(NormalizationError):
        normalize(parse_ontology("hasChild(a, b)"))


def test_normalization_errors_name_the_input_line():
    with pytest.raises(UnsupportedAxiomError, match="^line 3: no normal form"):
        normalize(parse_ontology("A < B\n\nA < r some (B and Bot)\n"))
    with pytest.raises(NormalizationError, match="^line 2: ontology still contains ABox"):
        normalize(parse_ontology("A < B\nhasChild(a, b)\n"))


# every bucket nonempty, with Top, Bot, fresh "N#k" names and "{a}" classes
EVERY_FORM = """\
A and B and C < D
Top < r some (A and {a})
hasChild(a, b)
{b} : A
r some Top < B and D
A < Bot
A and {a} < Bot
r some {b} < Bot
"""


def test_bucket_text_matches_format_axiom():
    theory = normalize(eliminate_abox(parse_ontology(EVERY_FORM)))
    onto = theory.as_ontology()
    expected = iter([format_axiom(axiom, onto) for axiom in onto.axioms])
    names = theory.names()
    texts = []
    for form in NormalForm:
        bucket = form.format(theory.handles(form), names)
        assert bucket == [next(expected) for _ in bucket]
        texts += bucket
    assert next(expected, None) is None
    assert all(theory.counts().values()) and theory.fresh
    for word in ("Top", "Bot", "N#0", "N#1", "{a}", "{b}"):
        assert any(word in text for text in texts)


# --- oracle-backed conservativity ---------------------------------------


def random_ontology(rng, n_classes=5, n_relations=2, n_axioms=4, depth=3):
    onto = Ontology()
    class_ids = [onto.classes.intern(f"C{i}") for i in range(n_classes)]
    rel_ids = [onto.relations.intern(f"r{i}") for i in range(n_relations)]

    def concept(d):
        choice = rng.integers(4 if d > 0 else 1)
        if choice == 0:
            # mostly plain classes, occasionally Top/Bot
            roll = rng.integers(10)
            if roll == 0:
                return TOP
            if roll == 1:
                return BOT
            return Atomic(class_ids[rng.integers(len(class_ids))])
        if choice == 1:
            return Conjunction(concept(d - 1), concept(d - 1))
        return Existential(rel_ids[rng.integers(len(rel_ids))], concept(d - 1))

    for _ in range(n_axioms):
        onto.add(GCI(concept(depth), concept(depth)))
    return onto, class_ids


def test_normalization_preserves_subsumptions():
    rng = np.random.default_rng(7)
    checked = 0
    for _ in range(100):
        onto, class_ids = random_ontology(rng)
        try:
            theory = normalize(onto)
        except UnsupportedAxiomError:
            continue  # Bot in a right-hand existential filler has no normal form
        before = atomic_subsumptions(onto, class_ids)
        after = atomic_subsumptions(theory.as_ontology(), class_ids)
        assert before == after
        checked += 1
    assert checked >= 60
