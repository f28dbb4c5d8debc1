import copy
import gc
import pickle

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


def test_eliminate_keeps_each_conjunction_tree_and_interns_nominals_left_to_right():
    onto = parse_ontology("({c} and (D and {e})) and r some ({f} and {c}) < G and {g}")
    out = eliminate_abox(onto)
    c, e, f, g, D, G = (Atomic(out.classes.id(n)) for n in ("{c}", "{e}", "{f}", "{g}", "D", "G"))
    r = out.relations.id("r")
    sub = Conjunction(Conjunction(c, Conjunction(D, e)), Existential(r, Conjunction(f, c)))
    assert out.axioms == [GCI(sub, Conjunction(G, g))]
    assert [n for n in out.classes if n.startswith("{")] == ["{c}", "{e}", "{f}", "{g}"]


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


def test_eliminate_shares_one_existential_per_role_assertion_object():
    onto = parse_ontology("r(a, b)\nr(c, b)\ns(a, b)\nr(a, c)\nr(c, b)\n")
    sups = [axiom.sup for axiom in eliminate_abox(onto).axioms]
    assert sups[0] is sups[1] is sups[4]  # r some {b}
    assert sups[2] is not sups[0] and sups[3] is not sups[0]
    assert len({id(sup) for sup in sups}) == 3


def test_eliminate_keeps_what_holds_no_nominal():
    onto = parse_ontology("A < r some (B and s some C)\n{a} and B < r some C\n")
    out = eliminate_abox(onto)
    assert out.axioms[0] is onto.axioms[0]
    sub, sup = out.axioms[1].sub, out.axioms[1].sup
    assert sub.right is onto.axioms[1].sub.right and sup is onto.axioms[1].sup
    assert out.positions == onto.positions


def test_normalize_keeps_an_axiom_built_in_code():
    counts = normalize(Ontology(axioms=[GCI(TOP, BOT)])).counts()
    assert counts["Bot1"] == 1 and sum(counts.values()) == 1


def test_eliminate_abox_keeps_an_axiom_built_in_code():
    onto = Ontology(axioms=[GCI(TOP, BOT)])
    assert onto.positions == [(0, 0)]
    out = eliminate_abox(onto)
    assert out.axioms == [GCI(TOP, BOT)] and out.positions == [(0, 0)]


def test_eliminate_abox_keeps_axioms_built_in_code_and_added():
    onto = Ontology(axioms=[GCI(TOP, BOT)])
    onto.add(GCI(Atomic(onto.classes.intern("A")), TOP))
    assert eliminate_abox(onto).axioms == onto.axioms
    assert normalize(onto).n_axioms() == 2


def test_axioms_without_positions_are_refused():
    onto = Ontology(axioms=[GCI(TOP, BOT)])
    onto.axioms.append(GCI(TOP, BOT))
    for step in (eliminate_abox, normalize):
        with pytest.raises(NormalizationError, match="2 axioms but 1 positions"):
            step(onto)


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
        "r(a, b)\n"  # assertions are no GCIs, so in no normal form
        "{a} : A\n"
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
        None,
        None,
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
    # An axiom already normal goes to its bucket directly and the others through
    # the rewrite; an entry from either path is kept once, where it was first made.
    cases = [
        # a normal axiom repeats entries that the rewrite of an earlier one made
        ("A < B and r some C\nA < r some C\nA < B\n", {"NF1": ["A < B"], "NF3": ["A < r some C"]}),
        ("A < B and C\nA < C\n", {"NF1": ["A < B", "A < C"]}),
        ("r some (A and B) < C\nr some N#0 < C\nA and B < N#0\n",
         {"NF2": ["A and B < N#0"], "NF4": ["r some N#0 < C"]}),
        # a rewrite makes entries that an earlier normal axiom added
        ("A < C\nA < B and C\n", {"NF1": ["A < C", "A < B"]}),
        ("A < r some C\nD < B\nA < B and r some C and D\n",
         {"NF1": ["D < B", "A < B", "A < D"], "NF3": ["A < r some C"]}),
        ("A and B < Bot\nr some C < Bot\nA and B and r some C < Bot\n",
         {"NF2": ["A and B < N#1"], "NF4": ["r some C < N#0"], "Bot2": ["A and B < Bot", "N#1 and N#0 < Bot"],
          "Bot4": ["r some C < Bot"]}),
    ]
    for text, buckets in cases:
        theory = normalize(parse_ontology(text))
        names = theory.names()
        found = {form.value: form.format(theory.handles(form), names) for form in NormalForm}
        assert {form: rows for form, rows in found.items() if rows} == buckets, text


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



@pytest.mark.parametrize("text, name", [
    ("{a} < B", "a"),
    ("r some {a} < B", "a"),
    ("A < {b}", "b"),
    ("A < r some (B and {c})", "c"),
    ("A and {d} < Bot", "d"),
])
def test_nominal_concepts_require_eliminate_abox(text, name):
    message = f"^line 2: nominal {{{name}}} in a GCI; run eliminate_abox first$"
    with pytest.raises(NormalizationError, match=message):
        normalize(parse_ontology("A < B\n" + text))
    theory = normalize(eliminate_abox(parse_ontology(text)))
    assert f"{{{name}}}" in theory.classes

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


# --- the converted buckets ---------------------------------------------------


def converted_theory():
    return normalize(parse_ontology("A < B\nA and B < C\nA < r some B\nr some A < C\nD < Bot\nB and C < Bot\nr some D < Bot"))


def test_handles_are_converted_once_and_read_only():
    theory = converted_theory()
    for form in NormalForm:
        rows = theory.handles(form)
        assert theory.handles(form) is rows
        assert rows.shape == (len(getattr(theory, form.field)), len(form.kinds))
        with pytest.raises(ValueError, match="read-only"):
            rows[:0] = 0
        with pytest.raises(ValueError, match="WRITEABLE"):
            rows.flags.writeable = True
    names = theory.names()
    assert all(theory.names()[k] is v for k, v in names.items())
    assert not names["c"].flags.writeable


@pytest.mark.parametrize("change", ["append", "replace", "reassign", "slice"])
def test_handles_follow_every_change_to_a_bucket(change):
    theory = converted_theory()
    before = theory.handles(NormalForm.NF3)
    c, r = theory.classes.id("C"), theory.relations.id("r")
    if change == "append":
        theory.nf3.append((c, r, c))
    elif change == "replace":
        theory.nf3[0] = (c, r, c)
    elif change == "reassign":
        theory.nf3 = [(c, r, c)]
    else:
        theory.nf3[:] = [(c, r, c)] + theory.nf3
    after = theory.handles(NormalForm.NF3)
    assert after is not before
    assert after.tolist() == [list(entry) for entry in theory.nf3]
    assert theory.handles(NormalForm.NF3) is after
    assert before.tolist() != after.tolist()
    # an equal entry in a new tuple keeps the conversion
    theory.nf3[0] = tuple(list(theory.nf3[0]))
    assert theory.handles(NormalForm.NF3) is after


def test_bot1_handles_follow_its_bare_classes():
    theory = converted_theory()
    assert theory.handles(NormalForm.BOT1).tolist() == [[theory.classes.id("D")]]
    theory.bot1[0] = theory.classes.id("A")
    assert theory.handles(NormalForm.BOT1).tolist() == [[theory.classes.id("A")]]


def test_names_follow_the_vocabularies():
    theory = converted_theory()
    names = theory.names()
    theory.classes.intern("A")  # already there: the vocabulary does not grow
    assert theory.names()["c"] is names["c"]
    theory.classes.intern("Z")
    assert list(theory.names()["c"]) == list(theory.classes)
    theory.relations = theory.relations.copy()
    theory.relations.intern("s")
    assert list(theory.names()["r"]) == ["r", "s"]


@pytest.mark.parametrize("how", ["copy", "deepcopy", "pickle"])
def test_a_copied_theory_converts_afresh(how):
    theory = converted_theory()
    rows = theory.handles(NormalForm.NF1)
    other = {"copy": copy.copy, "deepcopy": copy.deepcopy, "pickle": lambda t: pickle.loads(pickle.dumps(t))}[how](theory)
    assert other == theory
    got = other.handles(NormalForm.NF1)
    assert got is not rows and not got.flags.writeable and got.tolist() == rows.tolist()
    assert theory.handles(NormalForm.NF1) is rows


def test_the_conversion_is_not_part_of_equality_or_repr():
    theory, again = converted_theory(), converted_theory()
    for form in NormalForm:
        theory.handles(form)
    assert theory == again and repr(theory) == repr(again)
