import numpy as np
import pytest

from elball.ontology import parse_ontology
from elball.synthetic import generate, write_dataset


def test_deterministic():
    a = generate(seed=3)
    b = generate(seed=3)
    assert a.pair_rows == b.pair_rows
    assert a.annotation_rows == b.annotation_rows
    assert a.taxonomy_text == b.taxonomy_text


def test_annotations_cover_every_entity():
    ds = generate(n_entities=50, seed=1)
    annotated = {entity for entity, _ in ds.annotation_rows}
    assert annotated == {f"P{i}" for i in range(50)}


def test_taxonomy_parses():
    ds = generate(n_entities=20, n_modules=4, seed=0)
    onto = parse_ontology(ds.taxonomy_text)
    assert "Function" in onto.classes
    assert "M0" in onto.classes and "F3_0" in onto.classes


def test_intra_module_links_dominate():
    ds = generate(seed=0)
    # recover each entity's module from its non-noise annotations
    from collections import Counter

    votes: dict[str, Counter] = {}
    for entity, leaf in ds.annotation_rows:
        votes.setdefault(entity, Counter())[leaf.split("_")[0]] += 1
    module = {entity: counts.most_common(1)[0][0] for entity, counts in votes.items()}
    intra = sum(module[a] == module[b] for a, b, _ in ds.pair_rows)
    assert intra / len(ds.pair_rows) > 0.5


def test_write_dataset(tmp_path):
    write_dataset(generate(n_entities=10, seed=0), tmp_path)
    for name in ("pairs.tsv", "annotations.tsv", "taxonomy.el"):
        assert (tmp_path / name).exists()
    first = (tmp_path / "pairs.tsv").read_text().splitlines()[0].split("\t")
    assert len(first) == 3 and float(first[2]) == 900.0


def scalar_pair_rows(n_entities, n_modules, p_intra, p_inter, seed, leaves_per_module=3, annotations_per_entity=2):
    """``generate``'s pairs by the scalar loop, one ``rng.random()`` call per
    pair after the same module and annotation draws: the oracle the per-row
    vector draws must equal."""
    rng = np.random.default_rng(seed)
    module_of = rng.integers(n_modules, size=n_entities)
    for _ in range(n_entities):
        rng.choice(leaves_per_module, size=min(annotations_per_entity, leaves_per_module), replace=False)
        rng.integers(n_modules)
        rng.integers(leaves_per_module)
    rows = []
    for i in range(n_entities):
        for j in range(i + 1, n_entities):
            p = p_intra if module_of[i] == module_of[j] else p_inter
            if rng.random() < p:
                rows.append((f"P{i}", f"P{j}", 900.0))
    return rows


@pytest.mark.parametrize(
    "n, n_modules, p_intra, p_inter",
    [(1, 1, 0.4, 0.01), (2, 1, 0.4, 0.01), (2, 2, 0.4, 0.01), (100, 5, 0.4, 0.01),
     (200, 10, 0.4, 0.01), (1000, 50, 0.4, 0.002), (60, 3, 1.0, 0.0), (60, 3, 0.0, 1.0)],
)
@pytest.mark.parametrize("seed", [0, 1, 3])
def test_pair_rows_equal_the_scalar_loop(n, n_modules, p_intra, p_inter, seed):
    ds = generate(n_entities=n, n_modules=n_modules, p_intra=p_intra, p_inter=p_inter, seed=seed)
    assert ds.pair_rows == scalar_pair_rows(n, n_modules, p_intra, p_inter, seed)
    assert all(type(a) is str and type(b) is str for a, b, _ in ds.pair_rows)
