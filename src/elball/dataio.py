"""Checkpoint I/O, interaction-data ingestion, split handling, and 2D export."""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .embeddings import EmbeddingSet
from .evaluation import LinkSplit, entity_index
from .ontology import (
    Atomic,
    Existential,
    GCI,
    Nominal,
    Ontology,
)

CHECKPOINT_VERSION = 1


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
    path = Path(path)
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
            where = _first_nonfinite(
                e.class_centers, e.class_radii, e.rel_vectors, class_names, relation_names
            )
            raise CheckpointError(
                f"cannot write checkpoint {path}: {where or 'metadata'} holds a NaN or ±inf"
            ) from None
        raise


def _first_nonfinite(centers, radii, rels, class_names, relation_names) -> str | None:
    """'class NAME' or 'relation NAME' of the first row holding a NaN or ±inf, else None."""
    rows = (
        ("class", class_names, ~(np.isfinite(centers).all(axis=1) & np.isfinite(radii))),
        ("relation", relation_names, ~np.isfinite(rels).all(axis=1)),
    )
    for kind, names, bad in rows:
        if bad.any():
            return f"{kind} {names[int(np.argmax(bad))]!r}"
    return None


def load_checkpoint(path: str | Path, expect_dim: int | None = None) -> Checkpoint:
    try:
        with open(path) as fh:
            payload = json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise CheckpointError(f"corrupt checkpoint {path}: {exc}") from None

    for key in ("version", "metadata", "classes", "relations"):
        if key not in payload:
            raise CheckpointError(f"corrupt checkpoint {path}: missing {key!r}")
    if payload["version"] != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"checkpoint version {payload['version']} != supported {CHECKPOINT_VERSION}"
        )
    dim = payload["metadata"].get("dim")
    if expect_dim is not None and dim != expect_dim:
        raise CheckpointError(f"checkpoint dimension {dim} != requested {expect_dim}")

    class_names = list(payload["classes"])
    relation_names = list(payload["relations"])
    centers = np.asarray(
        [payload["classes"][n]["center"] for n in class_names], dtype=np.float64
    ).reshape(len(class_names), -1)
    radii = np.asarray(
        [payload["classes"][n]["radius"] for n in class_names], dtype=np.float64
    )
    rels = (
        np.asarray([payload["relations"][n] for n in relation_names], dtype=np.float64)
        .reshape(len(relation_names), -1)
        if relation_names
        else np.zeros((0, centers.shape[1]))
    )
    if centers.shape[1] != dim or (relation_names and rels.shape[1] != dim):
        raise CheckpointError(f"vector length disagrees with metadata dim {dim}")
    bad = _first_nonfinite(centers, radii, rels, class_names, relation_names)
    if bad is not None:
        raise CheckpointError(f"checkpoint {path}: {bad} holds a NaN or ±inf")

    try:
        top = class_names.index("Top")
    except ValueError:
        raise CheckpointError("checkpoint has no 'Top' class") from None
    bot = class_names.index("Bot") if "Bot" in class_names else top

    e = EmbeddingSet(centers, radii, rels, top=top, bot=bot)
    return Checkpoint(e, class_names, relation_names, payload["metadata"])


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


def split_pairs(
    pairs: list[tuple[str, str]], seed: int, ratios=(0.8, 0.1, 0.1)
) -> tuple[list, list, list]:
    """Deterministic shuffled split; leftovers from flooring go to test."""
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(pairs))
    shuffled = [pairs[i] for i in order]
    n = len(pairs)
    n_train = int(ratios[0] * n)
    n_valid = int(ratios[1] * n)
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
    function_relation: str = "hasFunction",
    symmetric: bool = True,
    ratios=(0.8, 0.1, 0.1),
) -> tuple[Ontology, LinkSplit]:
    """Turn interaction pairs and annotations into axioms plus an 80/10/10 split.

    Pairs below the confidence threshold are dropped, then reciprocal
    duplicates are collapsed; after splitting, pairs are re-symmetrized as
    two directed triples/axioms when ``symmetric`` is set. Only the train
    portion of the interactions becomes axioms; annotations always do.
    """
    kept = [(a, b) for a, b, conf in pair_rows if conf >= min_confidence]
    seen = set()
    unique: list[tuple[str, str]] = []
    for a, b in kept:
        canonical = (a, b) if a <= b else (b, a)
        if canonical not in seen:
            seen.add(canonical)
            unique.append(canonical)

    train_pairs, valid_pairs, test_pairs = split_pairs(unique, seed, ratios)

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

    onto = Ontology()
    rel_id = onto.relations.intern(relation)
    fn_rel_id = onto.relations.intern(function_relation)
    for head, _, tail in split.train:
        onto.add(
            GCI(
                Nominal(onto.individuals.intern(head)),
                Existential(rel_id, Nominal(onto.individuals.intern(tail))),
            )
        )
    seen_annots = set()
    for entity, cls in annotation_rows:
        if (entity, cls) in seen_annots:
            continue
        seen_annots.add((entity, cls))
        onto.add(
            GCI(
                Nominal(onto.individuals.intern(entity)),
                Existential(fn_rel_id, Atomic(onto.classes.intern(cls))),
            )
        )
    return onto, split


def ingest(
    pairs_file: str | Path,
    annotations_file: str | Path,
    min_confidence: float = 700.0,
    seed: int = 0,
    relation: str = "interacts",
    function_relation: str = "hasFunction",
    symmetric: bool = True,
) -> tuple[Ontology, LinkSplit]:
    return build_dataset(
        read_pairs_tsv(pairs_file),
        read_annotations_tsv(annotations_file),
        min_confidence=min_confidence,
        seed=seed,
        relation=relation,
        function_relation=function_relation,
        symmetric=symmetric,
    )


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
