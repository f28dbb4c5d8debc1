import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from elball import cli
from elball.semsim import (
    SemSimError,
    bma_similarity,
    build_taxonomy,
    semsim_score_fn,
)

LOG2 = math.log(2.0)


@pytest.fixture
def chain():
    # Top <- A <- B with annotation counts 4 / 2 / 1 after propagation
    edges = [("A", "Top"), ("B", "A")]
    annotations = {
        "e1": {"B"},
        "e2": {"A"},
        "e3": {"Top"},
        "e4": {"Top"},
    }
    return build_taxonomy(edges, annotations)


class TestInformationContent:
    def test_root_ic_zero(self, chain):
        assert chain.class_ic("Top") == 0.0

    def test_half_support_is_log_two(self, chain):
        assert chain.class_ic("A") == pytest.approx(LOG2)

    def test_quarter_support(self, chain):
        assert chain.class_ic("B") == pytest.approx(2 * LOG2)

    def test_unannotated_class_has_no_ic(self):
        index = build_taxonomy([("A", "Top"), ("C", "Top")], {"e1": {"A"}})
        assert index.class_ic("C") is None

    def test_unknown_annotation_class_rejected(self):
        with pytest.raises(SemSimError):
            build_taxonomy([("A", "Top")], {"e1": {"Mystery"}})

    def test_ic_monotone_toward_leaves(self, chain):
        assert chain.class_ic("B") >= chain.class_ic("A") >= chain.class_ic("Top")


class TestResnikLin:
    def test_resnik_self_is_ic(self, chain):
        assert chain.resnik("B", "B") == pytest.approx(chain.class_ic("B"))

    def test_resnik_chain_pair(self, chain):
        assert chain.resnik("A", "B") == pytest.approx(LOG2)

    def test_resnik_symmetric(self, chain):
        assert chain.resnik("A", "B") == chain.resnik("B", "A")

    def test_resnik_disjoint_branches_floor_zero(self):
        index = build_taxonomy(
            [("A", "Top"), ("B", "Top")], {"e1": {"A"}, "e2": {"B"}}
        )
        assert index.resnik("A", "B") == 0.0

    def test_resnik_skips_unannotated_ancestors(self):
        # Mid has no support of its own and no annotated descendants on one side
        index = build_taxonomy(
            [("Mid", "Top"), ("A", "Mid"), ("B", "Top")],
            {"e1": {"A"}, "e2": {"B"}},
        )
        assert index.resnik("A", "B") == 0.0

    def test_lin_self_is_one(self, chain):
        assert chain.lin("A", "A") == 1.0
        assert chain.lin("B", "B") == 1.0

    def test_lin_chain_pair(self, chain):
        # 2*log2 / (log2 + 2*log2)
        assert chain.lin("A", "B") == pytest.approx(2.0 / 3.0)

    def test_lin_zero_denominator(self, chain):
        assert chain.lin("Top", "Top") == 0.0

    def test_lin_undefined_ic_scores_zero(self):
        index = build_taxonomy([("A", "Top"), ("C", "Top")], {"e1": {"A"}})
        assert index.lin("A", "C") == 0.0

    def test_lin_range(self, chain):
        for c1 in ("A", "B"):
            for c2 in ("A", "B"):
                assert 0.0 <= chain.lin(c1, c2) <= 1.0

    def test_unknown_class(self, chain):
        with pytest.raises(SemSimError):
            chain.resnik("A", "Nope")

    def test_cycle_collapses_to_equivalence(self):
        index = build_taxonomy(
            [("A", "B"), ("B", "A"), ("A", "Top")], {"e1": {"A"}, "e2": {"Top"}}
        )
        assert index.node_of["A"] == index.node_of["B"]
        assert index.resnik("A", "B") == pytest.approx(LOG2)
        assert index.lin("A", "B") == 1.0


class TestBma:
    def test_identical_sets_under_lin(self, chain):
        lin = chain.pairwise("lin")
        assert bma_similarity({"A", "B"}, {"A", "B"}, lin) == pytest.approx(1.0)

    def test_singleton_equals_pairwise(self, chain):
        lin = chain.pairwise("lin")
        assert bma_similarity({"A"}, {"B"}, lin) == pytest.approx(chain.lin("A", "B"))

    def test_asymmetric_two_vs_one(self, chain):
        # forward: mean(lin(A,B), lin(B,B)) = (2/3 + 1)/2; backward: lin(B,B) = 1
        lin = chain.pairwise("lin")
        expected = 0.5 * ((2.0 / 3.0 + 1.0) / 2.0 + 1.0)
        assert bma_similarity(["A", "B"], ["B"], lin) == pytest.approx(expected)

    def test_symmetry(self, chain):
        lin = chain.pairwise("lin")
        assert bma_similarity(["A", "B"], ["B"], lin) == pytest.approx(
            bma_similarity(["B"], ["A", "B"], lin)
        )

    def test_empty_set_rejected(self, chain):
        with pytest.raises(SemSimError):
            bma_similarity([], ["A"], chain.pairwise("lin"))

    def test_entity_similarity(self, chain):
        assert chain.entity_similarity("e1", "e1", "lin") == pytest.approx(1.0)
        assert chain.entity_similarity("e1", "ghost", "lin") == -math.inf

    def test_unknown_measure(self, chain):
        with pytest.raises(SemSimError):
            chain.pairwise("cosine")


def test_score_fn_adapter(chain):
    fn = semsim_score_fn(chain, "lin")
    scores = fn("e1", "interacts", ["e1", "e2", "ghost"])
    assert scores[0] == pytest.approx(1.0)
    assert scores[1] == pytest.approx(chain.lin("B", "A"))
    assert scores[2] == -math.inf


def random_taxonomy_inputs(seed):
    """The edges and annotations of a seeded DAG with a cycle, an unannotated
    branch and Top-only entities."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(12, 30))
    classes = [f"C{i}" for i in range(n)]
    edges = [
        (classes[i], classes[p])
        for i in range(1, n)
        for p in rng.choice(i, size=min(i, int(rng.integers(1, 3))), replace=False)
    ]
    a, b = rng.choice(n, size=2, replace=False)
    edges += [(classes[a], classes[b]), (classes[b], classes[a])]
    edges += [("U0", "Top"), ("U1", "U0")]  # no entity is annotated below U0
    annotations = {
        f"E{k}": {classes[i] for i in rng.choice(n, size=int(rng.integers(1, 13)), replace=False)}
        for k in range(int(rng.integers(10, 25)))
    }
    annotations.update({"TopOnly0": {"Top"}, "TopOnly1": {"Top"}, "Bare": set()})
    return edges, annotations


def random_taxonomy(seed):
    return build_taxonomy(*random_taxonomy_inputs(seed))


def test_random_taxonomy_covers_edge_cases():
    index = random_taxonomy(0)
    assert len(set(index.node_of.values())) < len(index.node_of)  # a collapsed cycle
    assert index.class_ic("U1") is None
    assert math.copysign(1.0, index.class_ic("Top")) == -1.0  # IC -0.0
    sizes = {len(c) for c in index.annotations.values()}
    assert 0 in sizes and max(sizes) > 8


@pytest.mark.parametrize("measure", ["resnik", "lin"])
@pytest.mark.parametrize("seed", range(8))
def test_score_fn_equals_scalar_bma_bitwise(seed, measure):
    index = random_taxonomy(seed)
    fn = semsim_score_fn(index, measure)
    entities = list(index.annotations)
    tails = entities + ["ghost", "ghost"] + entities[:5]
    tails = [tails[i] for i in np.random.default_rng(seed).permutation(len(tails))]
    for head in entities + ["ghost"]:
        got = np.asarray(fn(head, "interacts", tails), dtype=np.float64)
        expect = np.array([index.entity_similarity(head, t, measure) for t in tails])
        np.testing.assert_array_equal(got.view(np.int64), expect.view(np.int64), err_msg=head)


def test_score_fn_rejects_unknown_measure_at_construction(chain):
    with pytest.raises(SemSimError):
        semsim_score_fn(chain, "cosine")


SCORE_EVERY_PAIR = """
import numpy as np
from elball.semsim import build_taxonomy, semsim_score_fn

rng = np.random.default_rng(3)
classes = [f"C{i}" for i in range(40)]
edges = [(classes[i], classes[int(rng.integers(i))]) for i in range(1, 40)]
annotations = {
    f"E{k}": {classes[i] for i in rng.choice(40, size=8, replace=False)} for k in range(20)
}
index = build_taxonomy(edges, annotations)
entities = sorted(annotations)
for measure in ("resnik", "lin"):
    fn = semsim_score_fn(index, measure)
    for head in entities:
        print(np.asarray(fn(head, "r", entities)).tobytes().hex())
        print(np.array([index.entity_similarity(head, t, measure) for t in entities]).tobytes().hex())
"""


def test_scores_do_not_depend_on_the_hash_seed():
    src = str(Path(__file__).resolve().parent.parent / "src")

    def scores(hash_seed: str) -> list[str]:
        env = {**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": src}
        proc = subprocess.run(
            [sys.executable, "-c", SCORE_EVERY_PAIR],
            env=env, capture_output=True, text=True, timeout=120, check=True,
        )
        return proc.stdout.splitlines()

    first, second = scores("1"), scores("2")
    assert len(first) == 2 * 2 * 20
    assert first == second
    # the table scorer and the scalar BMA agree bit for bit in each process
    assert first[0::2] == first[1::2]


@pytest.mark.parametrize("measure", ["resnik", "lin"])
@pytest.mark.parametrize("seed", range(4))
def test_cli_scores_equal_the_in_memory_index(tmp_path, capsys, seed, measure):
    """``elball semsim`` over ``random_taxonomy(seed)`` written to files."""
    edges, annotations = random_taxonomy_inputs(seed)
    index = build_taxonomy(edges, annotations)
    names = [*index.annotations, "ghost"]  # "Bare" has no annotation row in the file
    rng = np.random.default_rng(seed)
    pairs = [(names[i], names[j]) for i, j in rng.integers(len(names), size=(80, 2))]
    pairs += [("Bare", "E0"), ("E0", "Bare"), ("E0", "ghost"), ("ghost", "ghost"), ("E0", "E0")]
    taxonomy, annots, pair_file = tmp_path / "tax.el", tmp_path / "annots.tsv", tmp_path / "pairs.tsv"
    taxonomy.write_text("".join(f"{c} < {d}\n" for c, d in edges))
    annots.write_text("".join(f"{e}\t{c}\n" for e, classes in annotations.items() for c in classes))
    pair_file.write_text("".join(f"{a}\t{b}\n" for a, b in pairs))
    command = ["semsim", "--taxonomy", str(taxonomy), "--annotations", str(annots),
               "--pairs", str(pair_file), "--measure", measure]
    assert cli.main(command) == 0
    expect = [f"{a}\t{b}\t{index.entity_similarity(a, b, measure):.6f}" for a, b in pairs]
    assert capsys.readouterr().out == "\n".join(expect) + "\n"
