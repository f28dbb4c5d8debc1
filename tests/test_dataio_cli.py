import ast
import base64
import dataclasses
import json
import math
import os
import re
import struct
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from elball import cli, dataio, trainer
from elball.dataio import (
    Checkpoint,
    CheckpointError,
    DataError,
    build_dataset,
    export_2d,
    format_export_2d,
    load_checkpoint,
    read_pairs_tsv,
    save_checkpoint,
    split_pairs,
)
from elball.embeddings import EmbeddingSet, TOP_RADIUS
from elball.evaluation import LinkSplit, entity_index
from elball.family import FAMILY_KB
from elball.normalizer import NormalForm, UnsupportedAxiomError, eliminate_abox, normalize
from elball.ontology import (
    GCI,
    Atomic,
    Existential,
    Nominal,
    ParseError,
    format_axiom,
    format_ontology,
    parse_ontology,
)


def sample_embeddings(dim=2, n_classes=4, n_rels=1, seed=0):
    rng = np.random.default_rng(seed)
    e = EmbeddingSet(
        rng.normal(0, 1, (n_classes, dim)),
        rng.uniform(0, 1, n_classes),
        rng.normal(0, 1, (n_rels, dim)),
    )
    e.class_radii[e.top] = TOP_RADIUS
    return e


CLASS_NAMES = ["Top", "Bot", "A", "B"]
REL_NAMES = ["r"]


class TestCheckpoint:
    def test_round_trip_bitwise(self, tmp_path):
        e = sample_embeddings()
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, e, CLASS_NAMES, REL_NAMES, {"margin": -0.1, "seed": 7})
        first = path.read_bytes()
        ckpt = load_checkpoint(path)
        assert np.array_equal(ckpt.embeddings.class_centers, e.class_centers)
        assert np.array_equal(ckpt.embeddings.class_radii, e.class_radii)
        assert np.array_equal(ckpt.embeddings.rel_vectors, e.rel_vectors)
        assert ckpt.metadata["margin"] == -0.1
        path2 = tmp_path / "again.json"
        save_checkpoint(path2, ckpt.embeddings, ckpt.class_names, ckpt.relation_names,
                        {k: v for k, v in ckpt.metadata.items() if k != "dim"})
        assert path2.read_bytes() == first

    def test_top_and_bot_resolved(self, tmp_path):
        e = sample_embeddings()
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, e, CLASS_NAMES, REL_NAMES, {})
        ckpt = load_checkpoint(path)
        assert ckpt.embeddings.top == 0
        assert ckpt.embeddings.bot == 1

    def test_truncated_file(self, tmp_path):
        e = sample_embeddings()
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, e, CLASS_NAMES, REL_NAMES, {})
        path.write_bytes(path.read_bytes()[:40])
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_missing_key(self, tmp_path):
        path = tmp_path / "ckpt.json"
        path.write_text(json.dumps({"version": dataio.CHECKPOINT_VERSION, "metadata": {}, "classes": []}))
        with pytest.raises(CheckpointError, match="missing 'relations'"):
            load_checkpoint(path)

    def test_version_mismatch(self, tmp_path):
        path = tmp_path / "ckpt.json"
        path.write_text(
            json.dumps({"version": 99, "metadata": {}, "classes": {}, "relations": {}})
        )
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_dimension_mismatch(self, tmp_path):
        e = sample_embeddings(dim=50)
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, e, CLASS_NAMES, REL_NAMES, {})
        with pytest.raises(CheckpointError):
            load_checkpoint(path, expect_dim=2)
        assert load_checkpoint(path, expect_dim=50).embeddings.dim == 50

    def test_entity_index_resolves_braced_names(self, tmp_path):
        e = sample_embeddings()
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, e, ["Top", "Bot", "{P1}", "{P2}"], REL_NAMES, {})
        index = load_checkpoint(path).entity_index()
        assert index["P1"] == index["{P1}"] == 2

    def test_entity_index_is_the_shared_builder(self):
        names = ["Top", "Bot", "{P1}", "{}"]
        ckpt = Checkpoint(sample_embeddings(), names, REL_NAMES)
        assert ckpt.entity_index() == entity_index(names)
        assert "" not in ckpt.entity_index()

    def test_top_sentinel_radius_round_trips(self, tmp_path):
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, sample_embeddings(), CLASS_NAMES, REL_NAMES, {})
        assert load_checkpoint(path).embeddings.class_radii[0] == TOP_RADIUS


def table_b64(values):
    """A table's values packed as little-endian float64, row by row, in base64."""
    values = np.asarray(values, dtype=float).ravel().tolist()  # row-major whatever the strides
    return base64.b64encode(struct.pack(f"<{len(values)}d", *values)).decode("ascii")


def table_values(payload, key):
    return np.frombuffer(base64.b64decode(payload[key]), dtype="<f8").copy()


def json_dump_bytes(e, class_names, relation_names, metadata):
    """Format version 2 from its definition: json.dump(indent=1) of the names and tables."""
    payload = {
        "version": 2,
        "metadata": {"dim": e.dim, **metadata},
        "classes": class_names,
        "relations": relation_names,
        "centers": table_b64(e.class_centers),
        "radii": table_b64(e.class_radii),
        "vectors": table_b64(e.rel_vectors),
    }
    return (json.dumps(payload, indent=1) + "\n").encode()


def version_1_bytes(e, class_names, relation_names, metadata):
    """A checkpoint as format version 1 wrote it, each value a JSON number."""
    payload = {
        "version": 1,
        "metadata": {"dim": e.dim, **metadata},
        "classes": {
            name: {"center": e.class_centers[i].tolist(), "radius": float(e.class_radii[i])}
            for i, name in enumerate(class_names)
        },
        "relations": {name: e.rel_vectors[i].tolist() for i, name in enumerate(relation_names)},
    }
    return (json.dumps(payload, indent=1) + "\n").encode()


@pytest.mark.parametrize("n_rels", [1, 3, 0])
def test_save_writes_the_bytes_of_json_dump(tmp_path, n_rels):
    e = sample_embeddings(dim=3, n_classes=6, n_rels=n_rels, seed=5)
    # values whose repr is easy to get wrong; Top's radius is TOP_RADIUS
    e.class_centers[2] = [-0.0, 5e-324, 1.0]
    e.class_centers[3] = [1e300, -1e-300, 0.1]
    e.class_radii[2:4] = [-0.0, 1e300]
    if n_rels:
        e.rel_vectors[0] = [0.0, -5e-324, 123456789.125]
    class_names = ["Top", "Bot", 'say "hi"', "back\\slash", "tab\tnew\nline\x00\x1f", "naïve ∃r.⊤ 🙂"]
    relation_names = ["r", "s t", "\x7f"][:n_rels]
    metadata = {"margin": -0.1, "seed": 7, "name": "é\n", "nested": {"a": [1, 2.5]}}
    path = tmp_path / "ckpt.json"
    save_checkpoint(path, e, class_names, relation_names, metadata)
    assert path.read_bytes() == json_dump_bytes(e, class_names, relation_names, metadata)
    ckpt = load_checkpoint(path)
    assert ckpt.class_names == class_names and ckpt.relation_names == relation_names
    assert np.array_equal(ckpt.embeddings.class_centers, e.class_centers)
    assert np.signbit(ckpt.embeddings.class_radii[2])


def test_save_writes_these_version_2_bytes(tmp_path):
    e = EmbeddingSet(np.array([[0.0], [-0.0], [1.5]]), np.array([TOP_RADIUS, 0.0, 5e-324]), np.array([[-2.0]]))
    path = tmp_path / "ckpt.json"
    save_checkpoint(path, e, ["Top", "Bot", "A"], ["r"], {"seed": 7})
    assert path.read_bytes() == (
        b'{\n "version": 2,\n "metadata": {\n  "dim": 1,\n  "seed": 7\n },\n'
        b' "classes": [\n  "Top",\n  "Bot",\n  "A"\n ],\n "relations": [\n  "r"\n ],\n'
        b' "centers": "AAAAAAAAAAAAAAAAAAAAgAAAAAAAAPg/",\n'
        b' "radii": "////////738AAAAAAAAAAAEAAAAAAAAA",\n'
        b' "vectors": "AAAAAAAAAMA="\n}\n'
    )


def test_a_version_1_checkpoint_is_refused_naming_both_versions(tmp_path):
    path = tmp_path / "ckpt.json"
    path.write_bytes(version_1_bytes(sample_embeddings(), CLASS_NAMES, REL_NAMES, {"seed": 7}))
    with pytest.raises(CheckpointError) as info:
        load_checkpoint(path)
    assert str(info.value) == f"checkpoint {path}: version 1 != supported 2"


# values whose bytes are easy to get wrong, among any finite ones
EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e300, -1e300, TOP_RADIUS]


@st.composite
def table_sets(draw):
    """Tables and names a checkpoint may hold: Top anywhere, 0-3 relations."""
    dim = draw(st.integers(1, 3))
    class_names = draw(st.lists(st.text(max_size=4).filter(lambda name: name != "Top"), max_size=4, unique=True))
    class_names.insert(draw(st.integers(0, len(class_names))), "Top")
    relation_names = draw(st.lists(st.text(max_size=4), max_size=3, unique=True))
    value = st.sampled_from(EDGE_FLOATS) | st.floats(allow_nan=False, allow_infinity=False)
    radius = st.sampled_from([r for r in EDGE_FLOATS if not r < 0]) | st.floats(0, allow_infinity=False)

    def table(shape, values):
        return np.array(draw(st.lists(values, min_size=math.prod(shape), max_size=math.prod(shape)))).reshape(shape)

    n = len(class_names)
    e = EmbeddingSet(table((n, dim), value), table((n,), radius), table((len(relation_names), dim), value))
    e.class_radii[class_names.index("Top")] = TOP_RADIUS
    return e, class_names, relation_names


@given(tables=table_sets())
def test_tables_round_trip_bit_exactly(tmp_path_factory, tables):
    e, class_names, relation_names = tables
    path = tmp_path_factory.mktemp("ckpt") / "ckpt.json"
    save_checkpoint(path, e, class_names, relation_names, {"seed": 1})
    ckpt = load_checkpoint(path)
    for table in ("class_centers", "class_radii", "rel_vectors"):
        got, want = getattr(ckpt.embeddings, table), getattr(e, table)
        assert got.dtype == np.float64 and got.shape == want.shape and got.tobytes() == want.tobytes()
    assert ckpt.class_names == class_names and ckpt.relation_names == relation_names
    again = path.with_name("again.json")
    save_checkpoint(again, ckpt.embeddings, ckpt.class_names, ckpt.relation_names, ckpt.metadata)
    assert again.read_bytes() == path.read_bytes()


def test_big_endian_and_strided_tables_save_the_bytes_of_native_ones(tmp_path):
    e = sample_embeddings(dim=3, n_classes=5, n_rels=2, seed=3)
    names = (CLASS_NAMES + ["C"], ["r", "s"], {})
    save_checkpoint(tmp_path / "native.json", e, *names)
    big = EmbeddingSet(*(table.astype(">f8") for table in (e.class_centers, e.class_radii, e.rel_vectors)))
    strided = EmbeddingSet(
        np.asfortranarray(e.class_centers), np.repeat(e.class_radii, 2)[::2], e.rel_vectors.T.copy().T
    )
    assert not strided.class_centers.flags.c_contiguous and not strided.class_radii.flags.c_contiguous
    for other in (big, strided):
        save_checkpoint(tmp_path / "other.json", other, *names)
        assert (tmp_path / "other.json").read_bytes() == (tmp_path / "native.json").read_bytes()
    loaded = load_checkpoint(tmp_path / "other.json").embeddings
    assert all(t.dtype.isnative and t.flags.c_contiguous and t.flags.writeable for t in vars(loaded).values())


def test_save_refuses_a_non_finite_metadata_value(tmp_path):
    path = tmp_path / "ckpt.json"
    with pytest.raises(CheckpointError, match="metadata holds a NaN or ±inf"):
        save_checkpoint(path, sample_embeddings(), CLASS_NAMES, REL_NAMES, {"margin": math.nan})
    assert list(tmp_path.iterdir()) == []  # no checkpoint, no temp file


@pytest.mark.parametrize(
    "metadata, why",
    [
        ({3: 1}, "metadata key 3 would load back as {'3': 1}"),
        ({"pair": (1, 2)}, "metadata key 'pair' would load back as {'pair': [1, 2]}"),
        ({"seed": 7, "nested": {"a": {True: 1}}},
         "metadata key 'nested' would load back as {'nested': {'a': {'true': 1}}}"),
        ({"seed": np.int64(3)}, "metadata holds a value json cannot write (*int64*) at key 'seed'"),
        ({"tags": {"a"}}, "metadata holds a value json cannot write (*set*) at key 'tags'"),
        ({"trace": [0.5, [math.inf]]}, "metadata holds a NaN or ±inf at key 'trace'"),
    ],
    ids=["int key", "tuple", "nested bool key", "numpy int", "set", "nested inf"],
)
def test_save_refuses_metadata_that_would_not_load_back_equal(tmp_path, metadata, why):
    path = tmp_path / "ckpt.json"
    with pytest.raises(CheckpointError) as info:
        save_checkpoint(path, sample_embeddings(), CLASS_NAMES, REL_NAMES, metadata)
    # json's own words for a value it cannot write stand in for each "*"
    pattern = ".*".join(map(re.escape, f"cannot write checkpoint {path}: {why}".split("*")))
    assert re.fullmatch(pattern, str(info.value)), str(info.value)
    assert list(tmp_path.iterdir()) == []  # no checkpoint, no temp file


@pytest.mark.parametrize("dim", [3, 2.0])
def test_save_refuses_a_metadata_dim_that_is_not_the_tables(tmp_path, dim):
    path = tmp_path / "ckpt.json"
    message = f"^cannot write checkpoint {re.escape(str(path))}: metadata dim {dim} "
    with pytest.raises(CheckpointError, match=message):
        save_checkpoint(path, sample_embeddings(dim=2), CLASS_NAMES, REL_NAMES, {"dim": dim})
    assert list(tmp_path.iterdir()) == []
    # an equal dim passes: re-saving a loaded checkpoint's metadata carries it
    save_checkpoint(path, sample_embeddings(dim=2), CLASS_NAMES, REL_NAMES, {"dim": 2})
    ckpt = load_checkpoint(path)
    again = tmp_path / "again.json"
    save_checkpoint(again, ckpt.embeddings, ckpt.class_names, ckpt.relation_names, ckpt.metadata)
    assert again.read_bytes() == path.read_bytes()


@pytest.mark.parametrize(
    "class_names, relation_names, n_rels, why",
    [
        (["Top", "Bot", "A", "A"], REL_NAMES, 1, "class name 'A' is repeated"),
        (["Top", "Bot", "A"], REL_NAMES, 1, "3 class names for a 4-row table"),
        (CLASS_NAMES + ["C"], REL_NAMES, 1, "5 class names for a 4-row table"),
        (CLASS_NAMES, [], 1, "0 relation names for a 1-row table"),
        (CLASS_NAMES, ["r", "r"], 2, "relation name 'r' is repeated"),
        # json would write a key 3 as "3", and the name would not read back
        (["Top", "Bot", 3, "B"], REL_NAMES, 1, "class name 3 is not a string"),
        (CLASS_NAMES, [None], 1, "relation name None is not a string"),
    ],
    ids=["repeated class", "fewer classes", "more classes", "fewer relations", "repeated relation",
         "non-string class", "non-string relation"],
)
def test_save_refuses_names_that_do_not_match_the_rows_one_to_one(
    tmp_path, class_names, relation_names, n_rels, why
):
    path = tmp_path / "ckpt.json"
    with pytest.raises(CheckpointError) as info:
        save_checkpoint(path, sample_embeddings(n_rels=n_rels), class_names, relation_names, {})
    assert str(info.value) == f"cannot write checkpoint {path}: {why}"
    assert list(tmp_path.iterdir()) == []  # no checkpoint, no temp file


@pytest.mark.parametrize(
    "dim, class_names, why, load_why",
    [
        (0, CLASS_NAMES, "dim 0 is not a positive integer", "metadata dim 0 is not a positive integer"),
        (2, ["Bot", "A", "B", "C"], "no 'Top' class", "no 'Top' class"),
    ],
    ids=["dim 0", "no Top"],
)
def test_save_refuses_a_table_set_that_load_refuses(tmp_path, dim, class_names, why, load_why):
    e = sample_embeddings(dim=dim)
    path = tmp_path / "ckpt.json"
    with pytest.raises(CheckpointError) as info:
        save_checkpoint(path, e, class_names, REL_NAMES, {})
    assert str(info.value) == f"cannot write checkpoint {path}: {why}"
    assert list(tmp_path.iterdir()) == []  # no checkpoint, no temp file
    path.write_bytes(json_dump_bytes(e, class_names, REL_NAMES, {}))  # what save would have written
    with pytest.raises(CheckpointError, match=f"checkpoint {re.escape(str(path))}: {load_why}$"):
        load_checkpoint(path)


def random_table_set(rng):
    """Tables, names and metadata drawn at random, often with one thing a
    checkpoint may not hold."""
    dim, n_classes, n_rels = int(rng.integers(0, 4)), int(rng.integers(1, 6)), int(rng.integers(0, 3))
    e = sample_embeddings(dim=dim, n_classes=n_classes, n_rels=n_rels, seed=int(rng.integers(1 << 30)))
    e.class_radii[rng.random(n_classes) < 0.3] = -0.0
    e.class_radii[rng.random(n_classes) < 0.2] = TOP_RADIUS
    class_names = [f"C{i}" for i in range(n_classes)]
    class_names[int(rng.integers(n_classes))] = "Top"  # anywhere, not only first
    relation_names = [f"r{i}" for i in range(n_rels)]
    fault = rng.integers(6)
    if fault == 0 and n_classes > 1:
        class_names[class_names.index("Top")] = "Bot"
    elif fault == 1 and dim:
        e.class_centers[rng.integers(n_classes), rng.integers(dim)] = np.nan
    elif fault == 2:
        e.class_radii[rng.integers(n_classes)] = -1e-3
    elif fault == 3 and n_rels:
        relation_names[-1] = relation_names[0] if n_rels > 1 else 7
    return e, class_names, relation_names, {"seed": int(rng.integers(100)), "margin": float(rng.normal())}


def test_load_reads_back_every_table_set_that_save_accepts(tmp_path):
    rng = np.random.default_rng(5)
    path = tmp_path / "ckpt.json"
    outcomes = Counter()
    for _ in range(200):
        e, class_names, relation_names, metadata = random_table_set(rng)
        try:
            save_checkpoint(path, e, class_names, relation_names, metadata)
        except CheckpointError:
            outcomes["refused"] += 1
            assert not path.exists() and list(tmp_path.iterdir()) == []
            continue
        outcomes["saved"] += 1
        ckpt = load_checkpoint(path)
        for table in ("class_centers", "class_radii", "rel_vectors"):
            got, want = getattr(ckpt.embeddings, table), getattr(e, table)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
        assert ckpt.class_names == class_names and ckpt.relation_names == relation_names
        assert ckpt.metadata == {"dim": e.dim, **metadata}
        path.unlink()
    assert min(outcomes["saved"], outcomes["refused"]) > 40


def test_an_interrupted_save_leaves_the_previous_checkpoint(tmp_path, monkeypatch):
    path = tmp_path / "ckpt.json"
    save_checkpoint(path, sample_embeddings(seed=0), CLASS_NAMES, REL_NAMES, {})
    before = path.read_bytes()

    def interrupted(payload, fh, **options):
        fh.write('{\n "version": 2')
        raise RuntimeError("interrupted")

    monkeypatch.setattr(dataio.json, "dump", interrupted)
    with pytest.raises(RuntimeError, match="interrupted"):
        save_checkpoint(path, sample_embeddings(seed=1), CLASS_NAMES, REL_NAMES, {})
    assert path.read_bytes() == before
    assert list(tmp_path.iterdir()) == [path]  # no temp file


def test_a_loaded_checkpoint_follows_its_names_and_aligns_to_the_theory(tmp_path):
    # a hand-made file may order its classes as it likes; the tables keep its
    # order, and align_embeddings moves each row to the theory's handle
    theory = normalize(eliminate_abox(parse_ontology("A < B\nB < r some A\n")))
    order = ["B", "A", "Top", "Bot"]
    e = sample_embeddings(n_classes=4)
    e.class_radii[:] = [0.5, 0.25, TOP_RADIUS, 0.0]
    path = tmp_path / "ckpt.json"
    save_checkpoint(path, e, order, ["r"], {})
    ckpt = load_checkpoint(path)
    assert ckpt.embeddings.top == 0 and ckpt.class_names == order
    assert ckpt.embeddings.class_radii.tolist() == e.class_radii.tolist()
    aligned = cli.align_embeddings(ckpt, theory)
    rows = [order.index(name) for name in theory.classes]
    assert aligned.class_centers.tolist() == e.class_centers[rows].tolist()
    assert aligned.class_radii.tolist() == e.class_radii[rows].tolist()
    assert aligned.class_radii[aligned.top] == TOP_RADIUS


NON_FINITE = [
    ("class_centers", (2, 1), np.nan, "class 'A'"),
    ("class_radii", 3, np.inf, "class 'B'"),
    ("rel_vectors", (0, 0), np.nan, "relation 'r'"),
]


class TestNonFiniteCheckpoint:
    @pytest.mark.parametrize("table, at, value, symbol", NON_FINITE)
    def test_save_refuses(self, tmp_path, table, at, value, symbol):
        e = sample_embeddings()
        getattr(e, table)[at] = value
        path = tmp_path / "ckpt.json"
        with pytest.raises(CheckpointError) as info:
            save_checkpoint(path, e, CLASS_NAMES, REL_NAMES, {})
        assert str(path) in str(info.value) and symbol in str(info.value)
        assert list(tmp_path.iterdir()) == []  # no checkpoint, no temp file

    @pytest.mark.parametrize("table, at, value, symbol", NON_FINITE)
    def test_load_rejects(self, tmp_path, table, at, value, symbol):
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, sample_embeddings(), CLASS_NAMES, REL_NAMES, {})
        payload = json.loads(path.read_text())
        key = {"class_centers": "centers", "class_radii": "radii", "rel_vectors": "vectors"}[table]
        values = table_values(payload, key).reshape(getattr(sample_embeddings(), table).shape)
        values[at] = value
        payload[key] = table_b64(values)
        path.write_text(json.dumps(payload))
        with pytest.raises(CheckpointError) as info:
            load_checkpoint(path)
        assert str(path) in str(info.value) and symbol in str(info.value)


class TestNegativeRadiusCheckpoint:
    def test_save_refuses(self, tmp_path):
        e = sample_embeddings()
        e.class_radii[2] = -0.5
        path = tmp_path / "ckpt.json"
        with pytest.raises(CheckpointError) as info:
            save_checkpoint(path, e, CLASS_NAMES, REL_NAMES, {})
        assert str(info.value) == (
            f"cannot write checkpoint {path}: class 'A' has a negative radius -0.5"
        )
        assert list(tmp_path.iterdir()) == []  # no checkpoint, no temp file

    def test_load_rejects(self, tmp_path):
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, sample_embeddings(), CLASS_NAMES, REL_NAMES, {})
        payload = json.loads(path.read_text())
        radii = table_values(payload, "radii")
        radii[3] = -1e-300
        payload["radii"] = table_b64(radii)
        path.write_text(json.dumps(payload))
        with pytest.raises(CheckpointError) as info:
            load_checkpoint(path)
        assert str(info.value) == f"checkpoint {path}: class 'B' has a negative radius -1e-300"

    def test_negative_zero_passes(self, tmp_path):
        e = sample_embeddings()
        e.class_radii[2] = -0.0
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, e, CLASS_NAMES, REL_NAMES, {})
        radii = load_checkpoint(path).embeddings.class_radii
        assert radii[2] == 0.0 and radii[0] == TOP_RADIUS


MALFORMED = [
    pytest.param(lambda p: p.update(metadata=[2]), "'metadata' is not a JSON object", id="metadata-list"),
    pytest.param(lambda p: p["metadata"].update(dim=-1), "metadata dim -1", id="negative-dim"),
    pytest.param(lambda p: p["metadata"].update(dim=True), "metadata dim True", id="bool-dim"),
    pytest.param(lambda p: p.update(version=True), "version True", id="bool-version"),
    pytest.param(lambda p: p.update(version=2.0), "version 2.0", id="float-version"),
    # json.load keeps the last of two equal keys; the first would vanish
    pytest.param(
        lambda p: p.update(metadata=Repeated(p["metadata"])), "key 'dim' is repeated", id="repeated-key"
    ),
    # the names
    pytest.param(lambda p: p.pop("classes"), "missing 'classes'", id="no-classes"),
    pytest.param(
        lambda p: p.update(relations={"r": [0.5, 0.5]}), "'relations' is not a JSON array", id="object-relation"
    ),
    pytest.param(lambda p: p["classes"].__setitem__(2, 3), "class name 3 is not a string", id="number-class"),
    pytest.param(
        lambda p: p["classes"].__setitem__(3, "A"), "class name 'A' is repeated", id="repeated-class"
    ),
    # a table that is missing, or not a string
    pytest.param(lambda p: p.pop("centers"), "missing 'centers'", id="no-center"),
    pytest.param(lambda p: p.pop("radii"), "missing 'radii'", id="no-radius"),
    pytest.param(lambda p: p.update(centers=None), "'centers' is not a base64 string", id="null-center"),
    pytest.param(lambda p: p.update(centers=False), "'centers' is not a base64 string", id="bool-center"),
    pytest.param(lambda p: p.update(radii=True), "'radii' is not a base64 string", id="bool-radius"),
    pytest.param(
        lambda p: p.update(centers=[[0.5, 0.5]] * 4), "'centers' is not a base64 string", id="nested-center"
    ),
    # json reads a JSON integer exactly, however long
    pytest.param(lambda p: p.update(radii=10**400), "'radii' is not a base64 string", id="huge-radius"),
    # a string that is not strict base64
    pytest.param(lambda p: p.update(radii="1.5"), "'radii' is not strict base64", id="string-radius"),
    pytest.param(lambda p: p.update(vectors="0.5, 2"), "'vectors' is not strict base64", id="string-relation"),
    pytest.param(
        lambda p: p.update(radii=p["radii"][:8] + "\n" + p["radii"][8:]),
        "'radii' is not strict base64",
        id="text-radius",
    ),
    pytest.param(lambda p: p.update(centers=p["centers"] + "é"), "'centers' is not strict base64", id="string-center"),
    pytest.param(
        lambda p: p.update(radii=p["radii"].rstrip("=")), "'radii' is not strict base64", id="unpadded-radius"
    ),
    # a table of the wrong size
    pytest.param(
        lambda p: p.update(centers=table_b64(table_values(p, "centers")[:-1])),
        "'centers' holds 56 bytes, not the 64 of a (4, 2) float64 table",
        id="ragged-center",
    ),
    pytest.param(
        lambda p: p.update(vectors=table_b64([*table_values(p, "vectors"), 0.5])),
        "'vectors' holds 24 bytes, not the 16 of a (1, 2) float64 table",
        id="long-relation",
    ),
]


class Repeated(dict):
    """A JSON object that json.dumps writes with its last key twice."""

    def items(self):
        items = list(super().items())
        return items + items[-1:]


@pytest.mark.parametrize("corrupt, where", MALFORMED)
def test_malformed_checkpoint_names_file_and_class(tmp_path, corrupt, where):
    path = tmp_path / "ckpt.json"
    save_checkpoint(path, sample_embeddings(), CLASS_NAMES, REL_NAMES, {})
    payload = json.loads(path.read_text())
    corrupt(payload)
    path.write_text(json.dumps(payload))
    with pytest.raises(CheckpointError) as info:
        load_checkpoint(path)
    assert str(path) in str(info.value) and where in str(info.value)


@pytest.mark.parametrize("text", ["5", "[]", "null"])
def test_checkpoint_top_level_must_be_an_object(tmp_path, text):
    path = tmp_path / "ckpt.json"
    path.write_text(text)
    with pytest.raises(CheckpointError) as info:
        load_checkpoint(path)
    assert str(info.value) == f"corrupt checkpoint {path}: the top level is not a JSON object"


def test_an_integer_json_will_not_read_names_the_checkpoint(tmp_path):
    # past int_max_str_digits json.load raises a plain ValueError, not a JSONDecodeError
    path = tmp_path / "ckpt.json"
    path.write_text('{"version": ' + "1" * 5000 + "}")
    with pytest.raises(CheckpointError, match=re.escape(str(path))):
        load_checkpoint(path)


class TestTsvParsing:
    def test_pairs(self, tmp_path):
        path = tmp_path / "pairs.tsv"
        path.write_text("# comment\nP1\tP2\t900\n\nP3\tP4\t699.5\n")
        assert read_pairs_tsv(path) == [("P1", "P2", 900.0), ("P3", "P4", 699.5)]

    def test_malformed_row_names_line(self, tmp_path):
        path = tmp_path / "pairs.tsv"
        path.write_text("P1\tP2\t900\nP3 P4 800\n")
        with pytest.raises(DataError, match=":2:"):
            read_pairs_tsv(path)

    def test_a_line_that_is_not_utf8_names_its_line(self, tmp_path):
        # text mode decodes in chunks, and a bad byte this far in once surfaced
        # while an earlier line was the last one read; \r\n and \r each end a line
        rows = [f"P{i}\tP{i + 1}\t900" for i in range(1000)]
        text = "\r\n".join(rows[:2]) + "\r" + "\n".join(rows[2:]) + "\n"
        path = tmp_path / "pairs.tsv"
        path.write_bytes(text.encode() + b"P\xff\tP0\t900\nP1\tP2\t900\n")
        with pytest.raises(DataError) as info:
            read_pairs_tsv(path)
        assert str(info.value) == f"{path}:1001: not UTF-8 text"

    def test_non_numeric_confidence(self, tmp_path):
        path = tmp_path / "pairs.tsv"
        path.write_text("P1\tP2\thigh\n")
        with pytest.raises(DataError, match="non-numeric"):
            read_pairs_tsv(path)

    def test_nan_confidence_names_its_line(self, tmp_path):
        # no threshold keeps or drops a NaN confidence, so its row is refused
        path = tmp_path / "pairs.tsv"
        path.write_text("P1\tP2\t900\nP3\tP4\tnan\n")
        with pytest.raises(DataError) as info:
            read_pairs_tsv(path)
        assert str(info.value) == f"{path}:2: non-numeric confidence 'nan'"

    @pytest.mark.parametrize(
        "options, message",
        [
            ({"min_confidence": math.nan}, "min_confidence must be a number, not nan"),
            ({"seed": -1}, "seed must be a non-negative integer, not -1"),
            ({"seed": 1.5}, "seed must be a non-negative integer, not 1.5"),
            ({"seed": True}, "seed must be a non-negative integer, not True"),
        ],
    )
    def test_build_dataset_refuses_meaningless_options(self, options, message):
        with pytest.raises(DataError) as info:
            build_dataset([("P1", "P2", 900.0)], [("P1", "F")], **options)
        assert str(info.value) == message

    def test_build_dataset_refuses_a_nan_confidence_row(self):
        # rows handed over by a library caller, not read from a TSV
        rows = [("P1", "P2", math.nan), ("P3", "P4", 900.0)]
        with pytest.raises(DataError) as info:
            build_dataset(rows, [("P1", "F")])
        assert str(info.value) == "pair_rows[0] ('P1', 'P2') has a NaN confidence"

    def test_build_dataset_refuses_the_annotation_relation(self):
        # interactions through hasFunction would read as annotations
        with pytest.raises(DataError) as info:
            build_dataset([("P1", "P2", 900.0)], [("P1", "F")], relation="hasFunction")
        assert str(info.value) == "relation 'hasFunction' is the annotation relation; give the interactions another"

    def test_string_and_go_names_round_trip_through_the_text_format(self):
        rows = [(f"9606.ENSP{i}", f"9606.ENSP{(i + 1) % 6}", 900.0) for i in range(6)]
        annots = [(f"9606.ENSP{i}", f"GO:000557{i % 2}") for i in range(6)]
        onto, _ = build_dataset(rows, annots, seed=1)
        text = format_ontology(onto)
        assert "{9606.ENSP0} < hasFunction some GO:0005570" in text.splitlines()
        reparsed = parse_ontology(text)
        assert reparsed.axioms == onto.axioms
        assert [list(v) for v in (reparsed.classes, reparsed.relations, reparsed.individuals)] == [
            list(v) for v in (onto.classes, onto.relations, onto.individuals)
        ]

    def test_split_skips_blank_and_comment_lines(self, tmp_path):
        (tmp_path / "test.tsv").write_text("# comment\nP1\tinteracts\tP2\n\n")
        assert dataio.read_split(tmp_path).test == [("P1", "interacts", "P2")]
        (tmp_path / "train.tsv").write_text("# comment\n\nP1\tP2\n")
        with pytest.raises(DataError, match="train.tsv:3:"):
            dataio.read_split(tmp_path)


class TestSplit:
    PAIRS = [(f"P{i}", f"Q{i}") for i in range(10)]

    def test_sizes_8_1_1(self):
        train, valid, test = split_pairs(self.PAIRS, seed=0)
        assert (len(train), len(valid), len(test)) == (8, 1, 1)

    def test_partition(self):
        train, valid, test = split_pairs(self.PAIRS, seed=0)
        assert sorted(train + valid + test) == sorted(self.PAIRS)

    def test_deterministic(self):
        assert split_pairs(self.PAIRS, seed=3) == split_pairs(self.PAIRS, seed=3)

    def test_seed_sensitivity(self):
        assert split_pairs(self.PAIRS, seed=0) != split_pairs(self.PAIRS, seed=1)


class TestBuildDataset:
    def test_confidence_threshold(self):
        onto, split = build_dataset(
            [("P1", "P2", 699.0), ("P3", "P4", 700.0)], [], seed=0
        )
        triples = split.train + split.valid + split.test
        heads = {h for h, _, _ in triples}
        assert "P1" not in heads and "P3" in heads

    def test_reciprocal_pairs_deduplicated(self):
        _, split = build_dataset(
            [("P1", "P2", 900.0), ("P2", "P1", 900.0)], [], seed=0
        )
        assert len(split.train + split.valid + split.test) == 2  # one pair, two directions

    def test_symmetric_off(self):
        _, split = build_dataset(
            [("P1", "P2", 900.0)], [], seed=0, symmetric=False
        )
        assert split.train + split.valid + split.test == [("P1", "interacts", "P2")]

    def test_symmetric_off_keeps_each_row_direction(self):
        # P2 sorts after P1; each row keeps its direction, a reverse row is a
        # pair of its own, and only exact repeats are dropped
        rows = [("P2", "P1", 900.0), ("P1", "P2", 900.0), ("P2", "P1", 900.0)]
        rows += [(f"Q{i}", f"P{i}", 900.0) for i in range(10)]
        onto, split = build_dataset(rows, [], seed=0, symmetric=False)
        triples = split.train + split.valid + split.test
        assert sorted(triples) == sorted({(a, "interacts", b) for a, b, _ in rows})
        texts = [format_axiom(axiom, onto) for axiom in onto.axioms]
        assert texts == [f"{{{h}}} < interacts some {{{t}}}" for h, _, t in split.train]
        assert any(h.startswith("Q") for h, _, _ in split.train)
        _, split = build_dataset(rows, [], seed=0)  # symmetric: one undirected pair each
        assert len(split.train + split.valid + split.test) == 2 * 11

    def test_annotation_axiom_text(self):
        onto, _ = build_dataset([], [("P", "F"), ("P", "F")], seed=0)
        assert len(onto.axioms) == 1
        assert format_axiom(onto.axioms[0], onto) == "{P} < hasFunction some F"

    def test_only_train_interactions_become_axioms(self):
        rows = [(f"P{i}", f"Q{i}", 900.0) for i in range(10)]
        onto, split = build_dataset(rows, [], seed=0)
        texts = {format_axiom(a, onto) for a in onto.axioms}
        for h, r, t in split.train:
            assert f"{{{h}}} < {r} some {{{t}}}" in texts
        for h, r, t in split.test + split.valid:
            assert f"{{{h}}} < {r} some {{{t}}}" not in texts

    ROWS = [(f"P{i}", f"P{(i + 1) % 6}", 900.0) for i in range(6)] + [("P0", "P3", 900.0)]
    ANNOTS = [(f"P{i}", f"F{i % 2}") for i in range(6)] + [("P7", "F1")]

    def test_concept_nodes_are_shared(self):
        onto, _ = build_dataset(self.ROWS, self.ANNOTS, seed=1)
        nominals = {
            id(c) for a in onto.axioms for c in (a.sub, a.sup.filler) if isinstance(c, Nominal)
        }
        assert len(nominals) == len(onto.individuals)
        assert len({id(a.sup) for a in onto.axioms}) == len({a.sup for a in onto.axioms})

    def test_axioms_equal_independently_built_gcis(self):
        onto, split = build_dataset(self.ROWS, self.ANNOTS, seed=1)
        names = [n for h, _, t in split.train for n in (h, t)] + [e for e, _ in self.ANNOTS]
        assert list(onto.individuals) == list(dict.fromkeys(names))
        ind, rel = onto.individuals.id, onto.relations.id
        expect = [
            GCI(Nominal(ind(h)), Existential(rel(r), Nominal(ind(t)))) for h, r, t in split.train
        ] + [
            GCI(Nominal(ind(e)), Existential(rel("hasFunction"), Atomic(onto.classes.id(c))))
            for e, c in self.ANNOTS
        ]
        assert onto.axioms == expect

    def test_round_trip_to_identical_theory(self):
        rows = [(f"P{i}", f"P{(i + 1) % 6}", 900.0) for i in range(6)]
        annots = [(f"P{i}", f"F{i % 2}") for i in range(6)]
        onto, _ = build_dataset(rows, annots, seed=1)
        theory = normalize(eliminate_abox(onto))
        reparsed = parse_ontology(format_ontology(onto))
        assert normalize(eliminate_abox(reparsed)) == theory


class TestExport2d:
    def test_header_and_rows(self, tmp_path):
        e = sample_embeddings()
        ckpt = Checkpoint(e, CLASS_NAMES, REL_NAMES, {"dim": 2})
        rows = export_2d(ckpt)
        assert [name for name, *_ in rows] == CLASS_NAMES
        text = format_export_2d(rows)
        lines = text.splitlines()
        assert lines[0] == "class\tx\ty\tr"
        assert len(lines) == 1 + len(CLASS_NAMES)

    def test_rejects_other_dims(self):
        ckpt = Checkpoint(sample_embeddings(dim=3), CLASS_NAMES, REL_NAMES, {})
        with pytest.raises(DataError):
            export_2d(ckpt)

    def test_values_round_trip_through_repr(self):
        e = sample_embeddings()
        ckpt = Checkpoint(e, CLASS_NAMES, REL_NAMES, {"dim": 2})
        line = format_export_2d(export_2d(ckpt)).splitlines()[4]
        name, x, y, r = line.split("\t")
        assert float(x) == e.class_centers[3][0]
        assert float(r) == e.class_radii[3]


# --- CLI end to end -------------------------------------------------------


@pytest.fixture
def family_file(tmp_path):
    path = tmp_path / "family.el"
    path.write_text(FAMILY_KB)
    return path


def write_interaction_files(tmp_path):
    pairs = tmp_path / "pairs.tsv"
    pairs.write_text(
        "".join(f"P{i}\tP{(i + 1) % 10}\t900\n" for i in range(10))
        + "P0\tP5\t100\n"  # below threshold
    )
    annots = tmp_path / "annots.tsv"
    annots.write_text("".join(f"P{i}\tF{i % 2}\n" for i in range(10)))
    return pairs, annots


class TestCli:
    def test_normalize_sections(self, family_file, tmp_path, capsys):
        assert cli.main(["normalize", str(family_file)]) == 0
        out = capsys.readouterr().out
        for header in ("# NF1", "# NF2", "# NF3", "# NF4", "# Bot1", "# Bot2", "# Bot4"):
            assert header in out
        assert "Female and Male < Bot" in out

    def test_train_check_export(self, family_file, tmp_path):
        ckpt = tmp_path / "family.json"
        rc = cli.main(
            [
                "train", "--theory", str(family_file), "--dim", "2",
                "--margin", "0", "--epochs", "300", "--batch", "16",
                "--seed", "42", "--out", str(ckpt),
            ]
        )
        assert rc == 0 and ckpt.exists()
        meta = json.loads(ckpt.read_text())["metadata"]
        assert meta["dim"] == 2 and meta["seed"] == 42
        assert len(meta["loss_trace_tail"]) == 10

        # a loose tolerance passes, an impossibly tight one does not
        report_path = tmp_path / "report.json"
        assert cli.main(["check", str(family_file), str(ckpt), "--tol", "100",
                         "--out", str(report_path)]) == 0
        assert json.loads(report_path.read_text())["overall"] is True
        assert cli.main(["check", str(family_file), str(ckpt), "--tol", "1e-12"]) == 1

        out_path = tmp_path / "plot.tsv"
        assert cli.main(["export2d", str(ckpt), "--out", str(out_path)]) == 0
        lines = out_path.read_text().splitlines()
        assert lines[0] == "class\tx\ty\tr"
        assert len(lines) == 9  # header + 8 classes

    def test_ingest_train_evaluate(self, tmp_path):
        pairs, annots = write_interaction_files(tmp_path)
        data_dir = tmp_path / "data"
        rc = cli.main(
            [
                "ingest", "--pairs", str(pairs), "--annotations", str(annots),
                "--seed", "0", "--out-dir", str(data_dir),
            ]
        )
        assert rc == 0
        for name in ("ontology.el", "train.tsv", "valid.tsv", "test.tsv"):
            assert (data_dir / name).exists()
        split = dataio.read_split(data_dir)
        assert len(split.valid) >= 1 and len(split.test) >= 1

        ckpt = tmp_path / "ppi.json"
        rc = cli.main(
            [
                "train", "--theory", str(data_dir / "ontology.el"), "--dim", "4",
                "--margin", "-0.1", "--epochs", "50", "--batch", "8",
                "--seed", "0", "--out", str(ckpt),
            ]
        )
        assert rc == 0

        report_path = tmp_path / "eval.json"
        rc = cli.main(
            [
                "evaluate", "--ckpt", str(ckpt), "--split", str(data_dir),
                "--relation", "interacts", "--out", str(report_path),
            ]
        )
        assert rc == 0
        report = json.loads(report_path.read_text())
        assert set(report) >= {"Raw Hits@10", "Filtered AUC", "Queries"}
        assert report["Queries"] == len(split.test)

    def test_semsim_command(self, tmp_path):
        taxonomy = tmp_path / "tax.el"
        taxonomy.write_text("F0 < Function\nF1 < Function\n")
        annots = tmp_path / "annots.tsv"
        annots.write_text("P0\tF0\nP1\tF0\nP2\tF1\n")
        pairs = tmp_path / "pairs.tsv"
        pairs.write_text("P0\tP1\nP0\tP2\n")
        out = tmp_path / "scores.tsv"
        rc = cli.main(
            [
                "semsim", "--taxonomy", str(taxonomy), "--annotations", str(annots),
                "--pairs", str(pairs), "--measure", "lin", "--out", str(out),
            ]
        )
        assert rc == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 2
        same = float(lines[0].split("\t")[2])
        diff = float(lines[1].split("\t")[2])
        assert same > diff  # shared annotation beats disjoint annotation

    def test_semsim_pairs_skip_comments_and_ignore_extra_columns(self, tmp_path):
        taxonomy = tmp_path / "tax.el"
        taxonomy.write_text("F0 < Function\n")
        annots = tmp_path / "annots.tsv"
        annots.write_text("P0\tF0\nP1\tF0\n")
        pairs = tmp_path / "pairs.tsv"
        pairs.write_text("# entity pairs\nP0\tP1\t900\n")
        out = tmp_path / "scores.tsv"
        rc = cli.main(
            [
                "semsim", "--taxonomy", str(taxonomy), "--annotations", str(annots),
                "--pairs", str(pairs), "--out", str(out),
            ]
        )
        assert rc == 0
        assert [line.split("\t")[:2] for line in out.read_text().splitlines()] == [["P0", "P1"]]
        pairs.write_text("P0\tP1\nP0\n")
        with pytest.raises(DataError, match="pairs.tsv:2:"):
            cli.main(["semsim", "--taxonomy", str(taxonomy), "--annotations", str(annots), "--pairs", str(pairs)])


# every bucket nonempty, with Top, Bot, a fresh class and nominal classes
EVERY_FORM_KB = FAMILY_KB + "Top < r some (A and B)\nr some {john} < Bot\nA < Bot\n"


def test_normalize_output_renormalizes_to_the_same_theory(tmp_path, capsys):
    path = tmp_path / "every.el"
    path.write_text(EVERY_FORM_KB)
    assert cli.main(["normalize", str(path)]) == 0
    again = normalize(eliminate_abox(parse_ontology(capsys.readouterr().out)))
    theory = normalize(eliminate_abox(parse_ontology(EVERY_FORM_KB)))
    assert all(theory.counts().values()) and theory.fresh
    assert again.counts() == theory.counts() and again.fresh == set()
    assert format_ontology(again.as_ontology()) == format_ontology(theory.as_ontology())


def test_theory_errors_name_the_file_and_line(tmp_path):
    path = tmp_path / "bad.el"
    path.write_text("A < B\nA < < B\n")
    with pytest.raises(ParseError, match=f"^{re.escape(str(path))}: line 2, column 5: ") as info:
        cli.main(["normalize", str(path)])
    assert (info.value.line, info.value.column) == (2, 5)
    path.write_text("A < B\n\nA < r some (B and Bot)\n")
    with pytest.raises(UnsupportedAxiomError, match=f"^{re.escape(str(path))}: line 3: "):
        cli.main(["normalize", str(path)])


@pytest.fixture
def mismatched_checkpoint(tmp_path):
    """A theory with class C, and a checkpoint trained on one without it."""
    trained, other, ckpt = tmp_path / "ab.el", tmp_path / "ac.el", tmp_path / "ab.json"
    trained.write_text("A < B\n")
    other.write_text("A < C\n")
    assert cli.main(["train", "--theory", str(trained), "--dim", "2", "--epochs", "1",
                     "--out", str(ckpt)]) == 0
    return other, ckpt


def test_check_names_the_checkpoint_missing_a_class(mismatched_checkpoint):
    theory, ckpt = mismatched_checkpoint
    with pytest.raises(CheckpointError, match=f"^{re.escape(str(ckpt))}: .* class 'C'"):
        cli.main(["check", str(theory), str(ckpt)])


# --- flags left out take the library's defaults ---------------------------


@pytest.fixture
def train_configs(monkeypatch):
    """Each TrainConfig that ``elball train`` builds; training is skipped."""
    configs = []

    def fake_train(theory, cfg):
        configs.append(cfg)
        return trainer.init_embeddings(theory, cfg), trainer.LossTrace()

    monkeypatch.setattr(cli, "train", fake_train)
    return configs


TRAIN_FLAGS = [
    ("--dim", "3", "dim", 3),
    ("--margin", "0.5", "margin", 0.5),
    ("--epochs", "7", "epochs", 7),
    ("--batch", "5", "batch_size", 5),
    ("--lr", "0.2", "learning_rate", 0.2),
    ("--seed", "9", "seed", 9),
    ("--neg-per-pos", "2", "negatives_per_positive", 2),
    ("--steps-per-epoch", "3", "steps_per_epoch", 3),
]


def test_train_without_flags_uses_train_config_defaults(family_file, tmp_path, train_configs):
    assert cli.main(["train", "--theory", str(family_file), "--out", str(tmp_path / "c.json")]) == 0
    assert train_configs == [trainer.TrainConfig()]


@pytest.mark.parametrize("flag, text, field, value", TRAIN_FLAGS)
def test_each_train_flag_sets_its_field(family_file, tmp_path, train_configs, flag, text, field, value):
    assert getattr(trainer.TrainConfig(), field) != value
    argv = ["train", "--theory", str(family_file), flag, text, "--out", str(tmp_path / "c.json")]
    assert cli.main(argv) == 0
    assert train_configs == [dataclasses.replace(trainer.TrainConfig(), **{field: value})]


def test_train_rejects_eval_every(family_file, tmp_path, capsys):
    # --neg-mode went with per-epoch negatives: a script that still passes it must fail, not train
    argv = ["train", "--theory", str(family_file), "--out", str(tmp_path / "c.json")]
    for flag, value in (("--eval-every", "5"), ("--neg-mode", "fresh")):
        with pytest.raises(SystemExit) as info:
            cli.main(argv + [flag, value])
        assert info.value.code == 2 and flag in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags, options",
    [
        ([], {}),
        (["--min-confidence", "50"], {"min_confidence": 50.0}),
        (["--seed", "3"], {"seed": 3}),
        (["--relation", "binds"], {"relation": "binds"}),
        (["--no-symmetric"], {"symmetric": False}),
    ],
)
def test_ingest_passes_only_given_flags_to_build_dataset(tmp_path, monkeypatch, flags, options):
    calls = []

    def spy(pair_rows, annotation_rows, **kwargs):
        calls.append(kwargs)
        return build_dataset(pair_rows, annotation_rows, **kwargs)

    monkeypatch.setattr(dataio, "build_dataset", spy)
    pairs, annots = write_interaction_files(tmp_path)
    argv = ["ingest", "--pairs", str(pairs), "--annotations", str(annots), *flags,
            "--out-dir", str(tmp_path / "data")]
    assert cli.main(argv) == 0
    assert calls == [options]


# --- console entry point ---------------------------------------------------


def run_console(*argv, env=()):
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src"), **dict(env)}
    return subprocess.run(
        [sys.executable, "-m", "elball.cli", *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )


def test_console_exit_status_tells_bad_input_from_a_violated_model(
    family_file, mismatched_checkpoint, tmp_path
):
    bad = tmp_path / "bad.el"
    bad.write_text("A < B\nA < < B\n")
    done = run_console("normalize", str(bad))
    assert done.returncode == 2
    assert done.stderr.splitlines() == [
        f"elball: {bad}: line 2, column 5: expected a concept, found '<'"
    ]

    theory, ckpt = mismatched_checkpoint
    done = run_console("check", str(theory), str(ckpt))
    assert done.returncode == 2 and str(ckpt) in done.stderr and "'C'" in done.stderr

    family_ckpt = tmp_path / "family.json"
    assert cli.main(["train", "--theory", str(family_file), "--dim", "2", "--epochs", "50",
                     "--out", str(family_ckpt)]) == 0
    assert run_console("check", str(family_file), str(family_ckpt), "--tol", "1e-12").returncode == 1

    zero_dim = tmp_path / "zero-dim.json"
    done = run_console("train", "--theory", str(family_file), "--dim", "0", "--out", str(zero_dim))
    assert done.returncode == 2
    assert done.stderr.splitlines() == [
        "elball: dim, batch_size, and steps_per_epoch must be positive"
    ]
    assert not zero_dim.exists()

    done = run_console("train", "--theory", str(family_file), "--seed", "-1", "--out", str(zero_dim))
    assert done.returncode == 2
    assert done.stderr.splitlines() == ["elball: seed must be a non-negative integer, not -1"]
    assert not zero_dim.exists()

    pairs, annots = write_interaction_files(tmp_path)
    for flags, message in [
        (["--seed", "-1"], "seed must be a non-negative integer, not -1"),
        (["--min-confidence", "nan"], "min_confidence must be a number, not nan"),
    ]:
        done = run_console("ingest", "--pairs", str(pairs), "--annotations", str(annots),
                           *flags, "--out-dir", str(tmp_path / "data"))
        assert done.returncode == 2
        assert done.stderr.splitlines() == [f"elball: {message}"]
    assert not (tmp_path / "data").exists()

    # text that is not UTF-8 is bad input, named by path and line, for check too
    bad.write_bytes(b"A < B\nC < D\xff\n")
    for argv in [("normalize", str(bad)), ("check", str(bad), str(family_ckpt))]:
        done = run_console(*argv)
        assert done.returncode == 2
        assert done.stderr.splitlines() == [f"elball: {bad}: line 2: not UTF-8 text"]
    pairs.write_bytes(pairs.read_bytes() + b"P1\tP\xe9\t900\n")
    done = run_console("ingest", "--pairs", str(pairs), "--annotations", str(annots),
                       "--out-dir", str(tmp_path / "data"))
    assert done.returncode == 2
    assert done.stderr.splitlines() == [f"elball: {pairs}:12: not UTF-8 text"]
    assert not (tmp_path / "data").exists()

    # a lone \r ends no line: the parser refuses it, as parse_ontology does
    bad.write_bytes(b"A < B\rC < D\n")
    done = run_console("normalize", str(bad))
    assert done.returncode == 2
    assert done.stderr.splitlines() == [f"elball: {bad}: line 1, column 6: unexpected character '\\r'"]
    # while \r\n still ends one, as in parse_ontology
    bad.write_bytes(b"A < B\r\nC < D\r\n")
    out = tmp_path / "crlf.txt"
    assert cli.main(["normalize", str(bad), "--out", str(out)]) == 0
    assert out.read_text(encoding="utf-8").splitlines()[:3] == ["# NF1", "A < B", "C < D"]


def test_console_ingest_writes_an_ontology_that_normalize_and_train_read(tmp_path):
    pairs, annots = tmp_path / "pairs.tsv", tmp_path / "annots.tsv"
    pairs.write_text("".join(f"9606.ENSP{i:05}\t9606.ENSP{(i + 1) % 10:05}\t900\n" for i in range(10)))
    annots.write_text("".join(f"9606.ENSP{i:05}\tGO:000{5575 + i % 3}\n" for i in range(10)))
    data = tmp_path / "data"
    done = run_console("ingest", "--pairs", str(pairs), "--annotations", str(annots), "--out-dir", str(data))
    assert done.returncode == 0, done.stderr
    assert "{9606.ENSP00000} < hasFunction some GO:0005575" in (data / "ontology.el").read_text()
    done = run_console("normalize", str(data / "ontology.el"), "--out", str(tmp_path / "nf.txt"))
    assert done.returncode == 0, done.stderr
    # two processes under different string hash seeds write the same checkpoint bytes
    ckpts = [tmp_path / f"ckpt{seed}.json" for seed in (1, 2)]
    for seed, ckpt in zip((1, 2), ckpts):
        done = run_console("train", "--theory", str(data / "ontology.el"), "--epochs", "20",
                           "--out", str(ckpt), env={"PYTHONHASHSEED": str(seed)})
        assert done.returncode == 0, done.stderr
    assert ckpts[0].read_bytes() == ckpts[1].read_bytes()


@pytest.mark.parametrize("pairs_text, annots_text, flags, message", [
    ("P1\tP2\t900\n", "P 2\tF\n", [], "individual 'P 2' is not a name the ontology format can hold"),
    ("P1\tP2\t900\n", "P2\t{F}\n", [], "class '{F}' is not a name the ontology format can hold"),
    ("P1\tP2\t900\n", "P2\tF\n", ["--relation", "binds to"],
     "relation 'binds to' is not a name the ontology format can hold"),
    ("P1\tP2\t900\n", "and\tF\n", [], "individual 'and' is not a name the ontology format can hold"),
    ("P1\tP2\t900\n", "P2\tF\n", ["--relation", "hasFunction"],
     "relation 'hasFunction' is the annotation relation; give the interactions another"),
], ids=["blank", "brace", "relation", "keyword", "annotation-relation"])
def test_ingest_refuses_what_the_ontology_format_cannot_hold(
    tmp_path, capsys, pairs_text, annots_text, flags, message
):
    pairs, annots, data = tmp_path / "pairs.tsv", tmp_path / "annots.tsv", tmp_path / "data"
    pairs.write_text(pairs_text)
    annots.write_text(annots_text)
    argv = ["ingest", "--pairs", str(pairs), "--annotations", str(annots), *flags, "--out-dir", str(data)]
    assert run_in_process(capsys, *argv) == (2, [f"elball: {message}"])
    assert not data.exists()


def test_check_json_summarizes_each_form(family_file, tmp_path):
    ckpt, out = tmp_path / "family.json", tmp_path / "report.json"
    assert cli.main(["train", "--theory", str(family_file), "--dim", "2", "--epochs", "50",
                     "--seed", "3", "--out", str(ckpt)]) == 0
    assert cli.main(["check", str(family_file), str(ckpt), "--tol", "0.1", "--out", str(out)]) == 1
    report = json.loads(out.read_text())
    assert list(report) == ["overall", "tolerance", "max_violation", "forms", "checks"]
    forms, checks = report["forms"], report["checks"]
    assert list(forms) == ["NF1", "NF2", "NF3", "NF4", "Bot1", "Bot2", "Bot4"]
    assert sum(f["count"] for f in forms.values()) == len(checks)
    failing = [c for c in checks if not c["satisfied"]]
    binding = [c for c in failing if not c["informational"]]
    assert sum(f["violated"] for f in forms.values() if not f["informational"]) == len(binding) > 0
    for label, f in forms.items():
        rows = [c for c in checks if c["form"] == label]
        assert f["count"] == len(rows)
        assert f["violated"] == sum(not c["satisfied"] for c in rows)
        if rows:
            assert f["max"] == max(c["violation"] for c in rows)
            assert f["worst"] in {c["axiom"] for c in rows if c["violation"] == f["max"]}


def test_train_refuses_top_on_a_left_hand_side(tmp_path):
    theory, ckpt = tmp_path / "top.el", tmp_path / "top.json"
    theory.write_text("A < B\nTop < r some A\n")
    done = run_console("train", "--theory", str(theory), "--epochs", "5", "--out", str(ckpt))
    assert done.returncode == 2
    assert done.stderr.splitlines() == [
        "elball: NF3 axiom 'Top < r some A' has Top on its left-hand side, "
        "which no ball embedding satisfies"
    ]
    assert not ckpt.exists()


def test_check_writes_strict_json_when_an_axiom_reads_inf(tmp_path):
    trained, checked = tmp_path / "ab.el", tmp_path / "top.el"
    ckpt, out = tmp_path / "ab.json", tmp_path / "report.json"
    trained.write_text("A < B\n")
    checked.write_text("A < B\nTop < A\n")
    assert cli.main(["train", "--theory", str(trained), "--dim", "2", "--epochs", "20",
                     "--out", str(ckpt)]) == 0
    assert cli.main(["check", str(checked), str(ckpt), "--out", str(out)]) == 1

    def refuse(token):
        raise ValueError(f"{token} is not JSON")

    report = json.loads(out.read_text(), parse_constant=refuse)
    assert report["max_violation"] == report["forms"]["NF1"]["max"] == "inf"
    violation = {c["axiom"]: c["violation"] for c in report["checks"]}
    assert violation["Top < A"] == "inf"
    # finite values stay numbers, equal to those of a report with no inf in it
    cli.main(["check", str(trained), str(ckpt), "--out", str(out)])
    finite = json.loads(out.read_text(), parse_constant=refuse)
    assert isinstance(violation["A < B"], float)
    assert violation["A < B"] == finite["checks"][0]["violation"] == finite["max_violation"]
    assert report["tolerance"] == finite["tolerance"] == 0.0


def run_in_process(capsys, *argv):
    """``elball`` run in this process: its exit status and its stderr lines."""
    status = cli.run(list(argv))
    return status, capsys.readouterr().err.splitlines()


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--lr", "-0.01"], "learning_rate must be positive and finite, not -0.01"),
        (["--lr", "0"], "learning_rate must be positive and finite, not 0.0"),
        (["--lr", "nan"], "learning_rate must be positive and finite, not nan"),
        (["--margin", "inf"], "margin must be finite, not inf"),
        (["--margin", "nan"], "margin must be finite, not nan"),
    ],
)
def test_train_refuses_a_rate_or_margin_that_makes_training_meaningless(
    family_file, tmp_path, capsys, flags, message
):
    ckpt = tmp_path / "family.json"
    argv = ["train", "--theory", str(family_file), "--epochs", "5", *flags, "--out", str(ckpt)]
    assert run_in_process(capsys, *argv) == (2, [f"elball: {message}"])
    assert not ckpt.exists()


@pytest.fixture
def trained_family(family_file, tmp_path):
    ckpt = tmp_path / "family.json"
    assert cli.main(["train", "--theory", str(family_file), "--dim", "2", "--epochs", "20",
                     "--out", str(ckpt)]) == 0
    return family_file, ckpt


@pytest.mark.parametrize("tol", ["nan", "-0.5"])
def test_check_refuses_a_nan_or_negative_tolerance(trained_family, capsys, tol):
    theory, ckpt = trained_family
    status, err = run_in_process(capsys, "check", str(theory), str(ckpt), "--tol", tol)
    assert (status, err) == (2, [f"elball: tolerance must be non-negative, not {float(tol)!r}"])


def test_check_passes_every_finite_violation_at_an_infinite_tolerance(trained_family, tmp_path):
    theory, ckpt = trained_family
    out = tmp_path / "report.json"
    assert cli.main(["check", str(theory), str(ckpt), "--tol", "inf", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["tolerance"] == "inf"


@pytest.mark.parametrize("gamma, margin", [("nan", -0.1), (None, "0.1"), (None, None)])
def test_evaluate_refuses_a_gamma_that_is_not_a_finite_number(tmp_path, capsys, gamma, margin):
    path, split_dir = tmp_path / "ckpt.json", tmp_path / "split"
    names = ["Top", "Bot", "{P0}", "{P1}"]
    save_checkpoint(path, sample_embeddings(), names, ["interacts"], {"margin": margin})
    split = LinkSplit(train=[("P0", "interacts", "P1")], test=[("P1", "interacts", "P0")])
    dataio.write_split(split, split_dir)
    argv = ["evaluate", "--ckpt", str(path), "--split", str(split_dir)]
    if gamma is not None:
        argv += ["--gamma", gamma]
    wrong = float(gamma) if gamma is not None else margin
    assert run_in_process(capsys, *argv) == (
        2, [f"elball: gamma must be a finite real number, not {wrong!r}"]
    )


@pytest.mark.parametrize("axiom, message", [
    # the parser runs out of stack on the filler
    ("r some (" * 340 + "A and B" + ")" * 340 + " < C", r"line 2, column \d+: concept nested too deeply"),
    # the text parses; rewriting the nested filler runs out of stack
    ("A < " + "r some " * 500 + "B", "line 2: axiom nested too deeply to normalize"),
], ids=["parse", "normalize"])
def test_deep_nesting_is_an_input_error(tmp_path, capsys, axiom, message):
    path = tmp_path / "deep.el"
    path.write_text("A < B\n" + axiom + "\n")
    status, err = run_in_process(capsys, "normalize", str(path))
    assert status == 2 and len(err) == 1
    assert re.fullmatch(f"elball: {re.escape(str(path))}: {message}", err[0])


def test_a_long_flat_conjunction_normalizes(tmp_path, capsys):
    # the parser builds it as a left-nested tree 3000 deep, which eliminate_abox walks
    text = "A < B\n" + " and ".join(f"A{i}" for i in range(3000)) + " < C\n"
    path, out = tmp_path / "flat.el", tmp_path / "flat.txt"
    path.write_text(text)
    assert run_in_process(capsys, "normalize", str(path), "--out", str(out)) == (0, [])
    direct = normalize(parse_ontology(text))
    via_abox = normalize(eliminate_abox(parse_ontology(text)))
    assert list(via_abox.classes) == list(direct.classes)
    for form in NormalForm:
        assert getattr(via_abox, form.field) == getattr(direct, form.field)
    assert len(direct.nf2) == 2999 and direct.nf1 == [(2, 3)]
    lines = []
    for form in NormalForm:
        lines += [f"# {form.value}", *form.format(direct.handles(form), direct.names())]
    assert out.read_text().splitlines() == lines


def text_opens_without_encoding(tree: ast.AST) -> list[int]:
    """Lines of the text-mode open, os.fdopen, read_text and write_text calls
    that pass no ``encoding=``: those read and write the locale's encoding."""
    lines = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call) or any(kw.arg == "encoding" for kw in node.keywords):
            continue
        func = node.func
        if (isinstance(func, ast.Name) and func.id == "open") or getattr(func, "attr", None) == "fdopen":
            at = 1  # open(path, mode), os.fdopen(fd, mode)
        elif getattr(func, "attr", None) == "open" and getattr(func.value, "id", None) != "os":
            at = 0  # Path.open(mode); os.open makes a descriptor and has no text mode
        elif getattr(func, "attr", None) in ("read_text", "write_text"):
            at = None
        else:
            continue
        mode = node.args[at] if at is not None and len(node.args) > at else next(
            (kw.value for kw in node.keywords if kw.arg == "mode"), None)
        if not (isinstance(mode, ast.Constant) and "b" in str(mode.value)):
            lines.append(node.lineno)
    return lines


def test_every_text_mode_open_in_the_package_names_its_encoding():
    assert text_opens_without_encoding(ast.parse(
        "open(p)\nopen(p, 'w')\nopen(p, mode='a')\nopen(p, m)\nos.fdopen(fd, 'w')\n"
        "Path(p).open()\np.read_text()\np.write_text(t)\n"
        "open(p, 'rb')\nos.fdopen(fd, 'wb')\nos.open(p, flags)\np.open('rb')\n"
        "open(p, encoding='utf-8')\np.write_text(t, encoding='utf-8')\n"
    )) == [1, 2, 3, 4, 5, 6, 7, 8]
    src = Path(__file__).resolve().parents[1] / "src" / "elball"
    found = [
        f"{path.name}:{line}"
        for path in sorted(src.glob("*.py"))
        for line in text_opens_without_encoding(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert found == []


IMPORTED_PACKAGES = """
import sys
before = set(sys.modules)
import elball, elball.cli
print(*sorted({m.partition(".")[0] for m in set(sys.modules) - before} - sys.stdlib_module_names))
"""


def test_importing_elball_loads_no_package_but_numpy():
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-c", IMPORTED_PACKAGES], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    assert proc.stdout.split() == ["elball", "numpy"]
