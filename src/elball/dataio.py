"""Checkpoint I/O, interaction-data ingestion, split handling, and 2D export."""

from __future__ import annotations

import json
import math
import os
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .embeddings import EmbeddingSet
from .evaluation import LinkSplit, entity_index
from .ontology import BOT_NAME, GCI, TOP_NAME, Atomic, Existential, Nominal, Ontology

CHECKPOINT_VERSION = 1
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
    bad = _misnamed(e, class_names, relation_names) or _first_invalid(
        e.class_centers, e.class_radii, e.rel_vectors, class_names, relation_names
    )
    if bad is not None:
        raise CheckpointError(f"cannot write checkpoint {path}: {bad}")
    payload = {
        "version": CHECKPOINT_VERSION,
        "metadata": {"dim": e.dim, **metadata},
        "classes": {
            name: {
                "center": e.class_centers[i].tolist(),
                "radius": float(e.class_radii[i]),
            }
            for i, name in enumerate(class_names)
        },
        "relations": {
            name: e.rel_vectors[i].tolist() for i, name in enumerate(relation_names)
        },
    }
    fd, tmp = tempfile.mkstemp(dir=path.parent or ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            json.dump(payload, fh, indent=1, allow_nan=False)
            fh.write("\n")
        os.replace(tmp, path)
    except BaseException as exc:
        if os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(exc, ValueError):  # allow_nan=False refused a NaN or ±inf
            raise CheckpointError(
                f"cannot write checkpoint {path}: metadata holds a NaN or ±inf"
            ) from None
        raise


def _misnamed(e: EmbeddingSet, class_names: list[str], relation_names: list[str]) -> str | None:
    """Why the names do not name the table rows one to one, or None when they do."""
    tables = (("class", class_names, e.n_classes), ("relation", relation_names, e.n_relations))
    for kind, names, rows in tables:
        if len(names) != rows:
            return f"{len(names)} {kind} names for a {rows}-row table"
        seen: set[str] = set()
        for name in names:
            if name in seen:
                return f"{kind} name {name!r} is repeated"
            seen.add(name)
    return None


def _first_invalid(centers, radii, rels, class_names, relation_names) -> str | None:
    """The first class or relation row holding a NaN or ±inf, else the first
    class with a negative radius, and why; None when there is neither."""
    rows = (
        ("class", class_names, ~(np.isfinite(centers).all(axis=1) & np.isfinite(radii))),
        ("relation", relation_names, ~np.isfinite(rels).all(axis=1)),
    )
    for kind, names, bad in rows:
        if bad.any():
            return f"{kind} {names[int(np.argmax(bad))]!r} holds a NaN or ±inf"
    negative = radii < 0
    if negative.any():
        i = int(np.argmax(negative))
        return f"class {class_names[i]!r} has a negative radius {float(radii[i])!r}"
    return None


def load_checkpoint(path: str | Path, expect_dim: int | None = None) -> Checkpoint:
    try:
        with open(path) as fh:
            payload = json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise CheckpointError(f"corrupt checkpoint {path}: {exc}") from None
    if not isinstance(payload, dict):
        raise CheckpointError(f"corrupt checkpoint {path}: the top level is not a JSON object")

    for key in ("version", "metadata", "classes", "relations"):
        if key not in payload:
            raise CheckpointError(f"corrupt checkpoint {path}: missing {key!r}")
        if key != "version" and not isinstance(payload[key], dict):
            raise CheckpointError(f"corrupt checkpoint {path}: {key!r} is not a JSON object")
    if payload["version"] != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"checkpoint {path}: version {payload['version']} != supported {CHECKPOINT_VERSION}"
        )
    dim = payload["metadata"].get("dim")
    if type(dim) is not int or dim < 1:  # a bool is an int, but not a dimension
        raise CheckpointError(f"corrupt checkpoint {path}: metadata dim {dim!r} is not a positive integer")
    if expect_dim is not None and dim != expect_dim:
        raise CheckpointError(f"checkpoint {path}: dimension {dim} != requested {expect_dim}")

    if TOP_NAME not in payload["classes"]:
        raise CheckpointError(f"checkpoint {path} has no {TOP_NAME!r} class")
    class_names = list(payload["classes"])
    relation_names = list(payload["relations"])
    try:
        centers = np.asarray(
            [payload["classes"][n]["center"] for n in class_names], dtype=np.float64
        ).reshape(len(class_names), dim)
        radii = np.asarray([float(payload["classes"][n]["radius"]) for n in class_names])
        rels = np.asarray(
            [payload["relations"][n] for n in relation_names], dtype=np.float64
        ).reshape(len(relation_names), dim)
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"corrupt checkpoint {path}: {_bad_entry(payload, dim) or exc}") from None
    bad = _first_invalid(centers, radii, rels, class_names, relation_names)
    if bad is not None:
        raise CheckpointError(f"checkpoint {path}: {bad}")

    top = class_names.index(TOP_NAME)
    bot = class_names.index(BOT_NAME) if BOT_NAME in class_names else top

    e = EmbeddingSet(centers, radii, rels, top=top, bot=bot)
    return Checkpoint(e, class_names, relation_names, payload["metadata"])


def _bad_entry(payload: dict, dim: int) -> str | None:
    """The first class or relation entry that is not a numeric vector of
    length ``dim`` (a class also needs a numeric radius), and why."""
    for kind, table in (("class", payload["classes"]), ("relation", payload["relations"])):
        for name, entry in table.items():
            where = f"{kind} {name!r}"
            try:
                if kind == "class":
                    float(entry["radius"])
                    entry = entry["center"]
                vector = np.asarray(entry, dtype=np.float64)
            except KeyError as exc:
                return f"{where} has no {exc}"
            except (TypeError, ValueError) as exc:
                return f"{where} is malformed: {exc}"
            if vector.shape != (dim,):
                return f"{where} has a vector of shape {vector.shape}; metadata dim is {dim}"
    return None


# --- ingestion -----------------------------------------------------------


def tsv_lines(path: str | Path):
    """(line number, tab-separated fields) of every line but blank and # lines."""
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if line and not line.startswith("#"):
                yield lineno, line.split("\t")


def read_pairs_tsv(path: str | Path) -> list[tuple[str, str, float]]:
    """entity1<TAB>entity2<TAB>confidence rows; malformed rows name their line."""
    rows = []
    for lineno, parts in tsv_lines(path):
        if len(parts) != 3:
            raise DataError(f"{path}:{lineno}: expected 3 tab-separated fields")
        try:
            conf = float(parts[2])
            if math.isnan(conf):  # no threshold keeps or drops it
                raise ValueError
        except ValueError:
            raise DataError(f"{path}:{lineno}: non-numeric confidence {parts[2]!r}") from None
        rows.append((parts[0], parts[1], conf))
    return rows


def read_annotations_tsv(path: str | Path) -> list[tuple[str, str]]:
    rows = []
    for lineno, parts in tsv_lines(path):
        if len(parts) != 2:
            raise DataError(f"{path}:{lineno}: expected 2 tab-separated fields")
        rows.append((parts[0], parts[1]))
    return rows


def split_pairs(pairs: list[tuple[str, str]], seed: int) -> tuple[list, list, list]:
    """Deterministic shuffled ``SPLIT_RATIOS`` split; leftovers from flooring go to test."""
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(pairs))
    shuffled = [pairs[i] for i in order]
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
    no threshold orders, raises ``DataError``), then reciprocal
    duplicates are collapsed; after splitting, pairs are re-symmetrized as
    two directed triples/axioms when ``symmetric`` is set. Only the train
    portion of the interactions becomes axioms; annotations always do,
    through ``FUNCTION_RELATION``.
    """
    if math.isnan(min_confidence):
        raise DataError(f"min_confidence must be a number, not {min_confidence!r}")
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
        raise DataError(f"seed must be a non-negative integer, not {seed!r}")
    kept = []
    for row, (a, b, conf) in enumerate(pair_rows):
        if conf >= min_confidence:
            kept.append((a, b))
        elif math.isnan(conf):  # no threshold keeps or drops it
            raise DataError(f"pair_rows[{row}] ({a!r}, {b!r}) has a NaN confidence")
    seen = set()
    unique: list[tuple[str, str]] = []
    for a, b in kept:
        canonical = (a, b) if a <= b else (b, a)
        if canonical not in seen:
            seen.add(canonical)
            unique.append(canonical)

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
        onto.add(GCI(sub, sup))
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
        onto.add(GCI(sub, sup))
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
        with open(out_dir / f"{name}.tsv", "w") as fh:
            for h, r, t in triples:
                fh.write(f"{h}\t{r}\t{t}\n")


def read_split(split_dir: str | Path) -> LinkSplit:
    split_dir = Path(split_dir)

    def read(name):
        path = split_dir / f"{name}.tsv"
        if not path.exists():
            return []
        triples = []
        for lineno, parts in tsv_lines(path):
            if len(parts) != 3:
                raise DataError(f"{path}:{lineno}: expected 3 tab-separated fields")
            triples.append(tuple(parts))
        return triples

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
