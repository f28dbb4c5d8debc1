"""Checkpoint I/O, interaction-data ingestion, split handling, and 2D export."""

from __future__ import annotations

import json
import math
import os
import tempfile
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .embeddings import EmbeddingSet
from .evaluation import LinkSplit, entity_index
from .ontology import GCI, TOP_NAME, Atomic, Existential, Nominal, Ontology

CHECKPOINT_VERSION = 1
_NUMBERS = {int, float}  # the types json reads a JSON number as
FUNCTION_RELATION = "hasFunction"  # links an entity to each of its annotations
SPLIT_RATIOS = (0.8, 0.1, 0.1)  # train, valid, test


class DataError(Exception):
    pass


class CheckpointError(DataError):
    pass


@dataclass
class Checkpoint:
    embeddings: EmbeddingSet
    class_names: list[str]
    relation_names: list[str]
    metadata: dict = field(default_factory=dict)

    @property
    def class_index(self) -> dict[str, int]:
        return {name: i for i, name in enumerate(self.class_names)}

    @property
    def relation_index(self) -> dict[str, int]:
        return {name: i for i, name in enumerate(self.relation_names)}

    def entity_index(self) -> dict[str, int]:
        """Class lookup that also resolves bare entity names to their "{name}" class."""
        return entity_index(self.class_names)


def save_checkpoint(
    path: str | Path,
    e: EmbeddingSet,
    class_names: list[str],
    relation_names: list[str],
    metadata: dict,
) -> None:
    """Write a checkpoint atomically (temp file + rename), reproducible bytes."""
    path = Path(path)
    dim = metadata.get("dim", e.dim)
    if type(dim) is not int or dim != e.dim:
        raise CheckpointError(
            f"cannot write checkpoint {path}: metadata dim {dim!r} is not the tables' dim {e.dim}"
        )
    metadata = {"dim": e.dim, **metadata}
    bad = _invalid(e, class_names, relation_names) or _unsaved(metadata)
    if bad is not None:
        raise CheckpointError(f"cannot write checkpoint {path}: {bad}")
    head = json.dumps({"version": CHECKPOINT_VERSION, "metadata": metadata}, indent=1)
    classes = (
        f'{{\n   "center": {_json_floats(center, 4)},\n   "radius": {radius!r}\n  }}'
        for center, radius in zip(e.class_centers.tolist(), e.class_radii.tolist())
    )
    relations = (_json_floats(vector, 3) for vector in e.rel_vectors.tolist())
    fd, tmp = tempfile.mkstemp(dir=path.parent or ".", suffix=".tmp")
    try:
        # the bytes json.dump(indent=1) writes, without its pure-Python encoder
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(f'{head[:-2]},\n "classes": ')
            _write_json_object(fh, class_names, classes)
            fh.write(',\n "relations": ')
            _write_json_object(fh, relation_names, relations)
            fh.write("\n}\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _unsaved(metadata: dict) -> str | None:
    """Why json cannot write ``metadata`` so that it loads back equal, or None."""
    for key, value in metadata.items():
        try:
            back = json.loads(json.dumps({key: value}, allow_nan=False))
        except (TypeError, ValueError) as exc:  # allow_nan=False refuses a NaN or ±inf
            why = "a NaN or ±inf" if "Out of range" in str(exc) else f"a value json cannot write ({exc})"
            return f"metadata holds {why} at key {key!r}"
        if back != {key: value}:  # a key that is not a string, a tuple, ...
            return f"metadata key {key!r} would load back as {back}"
    return None


def _json_floats(values: list[float], indent: int) -> str:
    """A nonempty list of finite floats as json.dump(indent=1) writes it at this depth."""
    pad = "\n" + " " * indent
    return f"[{pad}{(',' + pad).join(map(float.__repr__, values))}\n{' ' * (indent - 1)}]"


def _write_json_object(fh, names: list[str], bodies) -> None:
    """A top-level section's object of formatted bodies, as json.dump(indent=1)
    writes it; one entry at a time, so the text is never held whole."""
    if not names:
        fh.write("{}")
        return
    separator = "{\n  "
    for name, body in zip(names, bodies):
        fh.write(f"{separator}{json.encoder.encode_basestring_ascii(name)}: {body}")
        separator = ",\n  "
    fh.write("\n }")


def _invalid(e: EmbeddingSet, class_names: list, relation_names: list) -> str | None:
    """Why the tables and names are not a checkpoint, or None when they are: it
    has dim >= 1, a Top class, string names naming the rows one to one, finite
    values and non-negative radii. Save and load both hold a checkpoint to this."""
    if e.dim < 1:
        return f"dim {e.dim} is not a positive integer"
    tables = (("class", class_names, e.n_classes), ("relation", relation_names, e.n_relations))
    for kind, names, rows in tables:
        if len(names) != rows:
            return f"{len(names)} {kind} names for a {rows}-row table"
        seen: set[str] = set()
        for name in names:
            if not isinstance(name, str):
                return f"{kind} name {name!r} is not a string"
            if name in seen:
                return f"{kind} name {name!r} is repeated"
            seen.add(name)
    if TOP_NAME not in class_names:
        return f"no {TOP_NAME!r} class"
    rows = (
        ("class", class_names, ~(np.isfinite(e.class_centers).all(axis=1) & np.isfinite(e.class_radii))),
        ("relation", relation_names, ~np.isfinite(e.rel_vectors).all(axis=1)),
    )
    for kind, names, bad in rows:
        if bad.any():
            return f"{kind} {names[int(np.argmax(bad))]!r} holds a NaN or ±inf"
    negative = e.class_radii < 0
    if negative.any():
        i = int(np.argmax(negative))
        return f"class {class_names[i]!r} has a negative radius {float(e.class_radii[i])!r}"
    return None


def load_checkpoint(path: str | Path, expect_dim: int | None = None) -> Checkpoint:
    try:
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh, object_pairs_hook=_unique_keys)
    except ValueError as exc:  # a JSON or UTF-8 error, or a repeated key
        raise CheckpointError(f"corrupt checkpoint {path}: {exc}") from None
    if not isinstance(payload, dict):
        raise CheckpointError(f"corrupt checkpoint {path}: the top level is not a JSON object")

    for key in ("version", "metadata", "classes", "relations"):
        if key not in payload:
            raise CheckpointError(f"corrupt checkpoint {path}: missing {key!r}")
        if key != "version" and not isinstance(payload[key], dict):
            raise CheckpointError(f"corrupt checkpoint {path}: {key!r} is not a JSON object")
    version = payload["version"]
    if type(version) is not int or version != CHECKPOINT_VERSION:  # True and 1.0 equal 1
        raise CheckpointError(f"checkpoint {path}: version {version!r} != supported {CHECKPOINT_VERSION}")
    dim = payload["metadata"].get("dim")
    if type(dim) is not int or dim < 1:  # a bool is an int, but not a dimension
        raise CheckpointError(f"corrupt checkpoint {path}: metadata dim {dim!r} is not a positive integer")
    if expect_dim is not None and dim != expect_dim:
        raise CheckpointError(f"checkpoint {path}: dimension {dim} != requested {expect_dim}")

    classes, relations = payload["classes"], payload["relations"]
    centers, radii = np.empty((len(classes), dim)), np.empty(len(classes))
    rels = np.empty((len(relations), dim))
    kind = "class"
    try:
        for i, (name, entry) in enumerate(classes.items()):
            if type(entry) is not dict:
                _corrupt(path, "class", name, f"is {entry!r}, not an object with 'center' and 'radius'")
            if "radius" not in entry or "center" not in entry:
                _corrupt(path, "class", name, f"has no {'radius' if 'radius' not in entry else 'center'!r}")
            radius = entry["radius"]
            if type(radius) not in _NUMBERS:  # numpy would read a string or a boolean as a number
                _corrupt(path, "class", name, f"has a radius {radius!r}, not a number")
            radii[i] = radius
            centers[i] = _vector(path, "class", name, entry["center"], dim)
        kind = "relation"
        for i, (name, entry) in enumerate(relations.items()):
            rels[i] = _vector(path, "relation", name, entry, dim)
    except OverflowError:  # a JSON integer past the float range, which json reads exactly
        why = "holds an integer too large for a float"
        raise CheckpointError(f"corrupt checkpoint {path}: {kind} {name!r} {why}") from None
    e, class_names, relation_names = EmbeddingSet(centers, radii, rels), list(classes), list(relations)
    bad = _invalid(e, class_names, relation_names)
    if bad is not None:
        raise CheckpointError(f"checkpoint {path}: {bad}")
    return Checkpoint(e, class_names, relation_names, payload["metadata"])


def _unique_keys(pairs: list) -> dict:
    """A JSON object's pairs as a dict; a repeated key raises ValueError."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        key = next(key for key, n in Counter(key for key, _ in pairs).items() if n > 1)
        raise ValueError(f"key {key!r} is repeated in one object")
    return obj


def _vector(path, kind: str, name: str, vector, dim: int) -> list:
    """``vector`` if it is a flat list of ``dim`` JSON numbers, else CheckpointError naming the entry."""
    if type(vector) is list and len(vector) == dim and _NUMBERS.issuperset(map(type, vector)):
        return vector
    if type(vector) is not list:
        _corrupt(path, kind, name, f"has {vector!r}, not a list of {dim} numbers")
    if len(vector) != dim:
        _corrupt(path, kind, name, f"has a vector of shape ({len(vector)},); metadata dim is {dim}")
    x = next(x for x in vector if type(x) not in _NUMBERS)
    _corrupt(path, kind, name, f"holds {x!r}, not a number")


def _corrupt(path, kind: str, name: str, why: str):
    raise CheckpointError(f"corrupt checkpoint {path}: {kind} {name!r} {why}")


# --- ingestion -----------------------------------------------------------


def tsv_lines(path: str | Path):
    """(line number, tab-separated fields) of every line but blank and # lines;
    a line that is not UTF-8 raises DataError naming it."""
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.rstrip("\n")
                if line and not line.startswith("#"):
                    yield lineno, line.split("\t")
    except UnicodeDecodeError:
        # text mode decodes in chunks, so the error does not say which line;
        # bytes split where text mode splits, at \n, \r\n and \r
        for lineno, raw in enumerate(Path(path).read_bytes().splitlines(), start=1):
            try:
                raw.decode("utf-8")
            except UnicodeDecodeError:
                raise DataError(f"{path}:{lineno}: not UTF-8 text") from None
        raise


def _tsv_rows(path: str | Path, width: int):
    """tsv_lines, each of ``width`` fields; another row raises DataError naming its line."""
    for lineno, parts in tsv_lines(path):
        if len(parts) != width:
            raise DataError(f"{path}:{lineno}: expected {width} tab-separated fields")
        yield lineno, parts


def read_pairs_tsv(path: str | Path) -> list[tuple[str, str, float]]:
    """entity1<TAB>entity2<TAB>confidence rows; malformed rows name their line."""
    rows = []
    for lineno, parts in _tsv_rows(path, 3):
        try:
            conf = float(parts[2])
            if math.isnan(conf):  # no threshold keeps or drops it
                raise ValueError
        except ValueError:
            raise DataError(f"{path}:{lineno}: non-numeric confidence {parts[2]!r}") from None
        rows.append((parts[0], parts[1], conf))
    return rows


def read_annotations_tsv(path: str | Path) -> list[tuple[str, str]]:
    return [(entity, cls) for _, (entity, cls) in _tsv_rows(path, 2)]


def split_pairs(pairs: list[tuple[str, str]], seed: int) -> tuple[list, list, list]:
    """Deterministic shuffled ``SPLIT_RATIOS`` split; leftovers from flooring go to test."""
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(pairs))
    shuffled = [pairs[i] for i in order.tolist()]  # Python ints index a list faster than numpy ints
    n = len(pairs)
    n_train = int(SPLIT_RATIOS[0] * n)
    n_valid = int(SPLIT_RATIOS[1] * n)
    return (
        shuffled[:n_train],
        shuffled[n_train : n_train + n_valid],
        shuffled[n_train + n_valid :],
    )


def build_dataset(
    pair_rows: list[tuple[str, str, float]],
    annotation_rows: list[tuple[str, str]],
    min_confidence: float = 700.0,
    seed: int = 0,
    relation: str = "interacts",
    symmetric: bool = True,
) -> tuple[Ontology, LinkSplit]:
    """Turn interaction pairs and annotations into axioms plus an 80/10/10 split.

    Pairs below the confidence threshold are dropped (a NaN confidence, which
    no threshold orders, raises ``DataError``), then repeated pairs. When
    ``symmetric`` is set, a pair and its reverse are one undirected pair,
    kept as (min, max), which after splitting becomes two directed
    triples/axioms. Otherwise each row keeps its direction and only exact
    repeats are dropped. Only the train portion of the interactions becomes
    axioms; annotations always do, through ``FUNCTION_RELATION``, which
    ``relation`` therefore may not be.
    """
    if relation == FUNCTION_RELATION:
        raise DataError(f"relation {relation!r} is the annotation relation; give the interactions another")
    if math.isnan(min_confidence):
        raise DataError(f"min_confidence must be a number, not {min_confidence!r}")
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
        raise DataError(f"seed must be a non-negative integer, not {seed!r}")
    seen = set()
    unique: list[tuple[str, str]] = []
    for row, (a, b, conf) in enumerate(pair_rows):
        if conf >= min_confidence:
            pair = (b, a) if symmetric and b < a else (a, b)
            if pair not in seen:
                seen.add(pair)
                unique.append(pair)
        elif math.isnan(conf):  # no threshold keeps or drops it
            raise DataError(f"pair_rows[{row}] ({a!r}, {b!r}) has a NaN confidence")

    train_pairs, valid_pairs, test_pairs = split_pairs(unique, seed)

    def directed(pairs):
        out = []
        for a, b in pairs:
            out.append((a, relation, b))
            if symmetric and a != b:
                out.append((b, relation, a))
        return out

    split = LinkSplit(
        train=directed(train_pairs),
        valid=directed(valid_pairs),
        test=directed(test_pairs),
    )

    # Concept nodes are immutable, so the axioms share one Nominal per
    # individual and one Existential per (relation, filler).
    onto = Ontology()
    axioms = onto.axioms
    rel_id = onto.relations.intern(relation)
    fn_rel_id = onto.relations.intern(FUNCTION_RELATION)
    nominals: dict[str, Nominal] = {}

    def nominal(name: str) -> Nominal:
        node = nominals.get(name)
        if node is None:
            node = nominals[name] = Nominal(onto.individuals.intern(name))
        return node

    interacts_with: dict[str, Existential] = {}
    for head, _, tail in split.train:
        sub = nominal(head)
        sup = interacts_with.get(tail)
        if sup is None:
            sup = interacts_with[tail] = Existential(rel_id, nominal(tail))
        axioms.append(GCI(sub, sup))
    has_function: dict[str, Existential] = {}
    seen_annots = set()
    for entity, cls in annotation_rows:
        if (entity, cls) in seen_annots:
            continue
        seen_annots.add((entity, cls))
        sub = nominal(entity)
        sup = has_function.get(cls)
        if sup is None:
            sup = has_function[cls] = Existential(fn_rel_id, Atomic(onto.classes.intern(cls)))
        axioms.append(GCI(sub, sup))
    onto.positions.extend([(0, 0)] * len(axioms))  # built in code, not read from a line
    return onto, split


def ingest(
    pairs_file: str | Path, annotations_file: str | Path, **options
) -> tuple[Ontology, LinkSplit]:
    """Read the pairs and annotations TSVs into ``build_dataset(..., **options)``."""
    pairs, annotations = read_pairs_tsv(pairs_file), read_annotations_tsv(annotations_file)
    return build_dataset(pairs, annotations, **options)


def write_split(split: LinkSplit, out_dir: str | Path) -> None:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, triples in (("train", split.train), ("valid", split.valid), ("test", split.test)):
        with open(out_dir / f"{name}.tsv", "w", encoding="utf-8") as fh:
            for h, r, t in triples:
                fh.write(f"{h}\t{r}\t{t}\n")


def read_split(split_dir: str | Path) -> LinkSplit:
    def read(name):
        path = Path(split_dir) / f"{name}.tsv"
        return [tuple(parts) for _, parts in _tsv_rows(path, 3)] if path.exists() else []

    return LinkSplit(train=read("train"), valid=read("valid"), test=read("test"))


# --- 2D export -----------------------------------------------------------

EXPORT_2D_HEADER = "class\tx\ty\tr"


def export_2d(ckpt: Checkpoint) -> list[tuple[str, float, float, float]]:
    """One (name, x, y, radius) row per class; requires a 2D checkpoint."""
    if ckpt.embeddings.dim != 2:
        raise DataError(f"2D export needs dim=2, checkpoint has dim={ckpt.embeddings.dim}")
    e = ckpt.embeddings
    return [
        (name, float(e.class_centers[i][0]), float(e.class_centers[i][1]), float(e.class_radii[i]))
        for i, name in enumerate(ckpt.class_names)
    ]


def format_export_2d(rows) -> str:
    lines = [EXPORT_2D_HEADER]
    lines += [f"{name}\t{x!r}\t{y!r}\t{r!r}" for name, x, y, r in rows]
    return "\n".join(lines) + "\n"
