"""Synthetic protein-interaction benchmark with annotation-correlated links.

Entities are partitioned into functional modules over a small three-level
function taxonomy (leaf functions under module-level functions under a
root). Each entity is annotated with leaf functions of its module plus one
random off-module leaf as noise; interactions are dense within a module
and sparse across modules. Link prediction from shared annotations is
therefore clearly better than chance, which is what the scaled sanity
checks assert.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass
class SyntheticDataset:
    pair_rows: list[tuple[str, str, float]]  # (entity, entity, confidence)
    annotation_rows: list[tuple[str, str]]  # (entity, leaf function)
    taxonomy_text: str  # subsumption axioms in the EL text format
    taxonomy_edges: list[tuple[str, str]]  # (subclass, superclass)


def generate(
    n_entities: int = 200,
    n_modules: int = 10,
    leaves_per_module: int = 3,
    annotations_per_entity: int = 2,
    p_intra: float = 0.4,
    p_inter: float = 0.01,
    confidence: float = 900.0,
    seed: int = 0,
) -> SyntheticDataset:
    rng = np.random.default_rng(seed)
    entities = [f"P{i}" for i in range(n_entities)]
    module_of = rng.integers(n_modules, size=n_entities)

    edges = [(f"M{m}", "Function") for m in range(n_modules)]
    edges += [
        (f"F{m}_{j}", f"M{m}")
        for m in range(n_modules)
        for j in range(leaves_per_module)
    ]
    taxonomy_text = "".join(f"{sub} < {sup}\n" for sub, sup in edges)

    annotation_rows = []
    for i, entity in enumerate(entities):
        m = module_of[i]
        picks = rng.choice(leaves_per_module, size=min(annotations_per_entity, leaves_per_module), replace=False)
        for j in picks:
            annotation_rows.append((entity, f"F{m}_{j}"))
        noise_module = int(rng.integers(n_modules))
        noise_leaf = int(rng.integers(leaves_per_module))
        annotation_rows.append((entity, f"F{noise_module}_{noise_leaf}"))

    # one draw per later entity of each row: the stream of a scalar
    # rng.random() call per pair, in the same order
    pair_rows = []
    for i in range(n_entities):
        p = np.where(module_of[i + 1 :] == module_of[i], p_intra, p_inter)
        for j in np.flatnonzero(rng.random(n_entities - i - 1) < p) + i + 1:
            pair_rows.append((entities[i], entities[j], confidence))

    return SyntheticDataset(pair_rows, annotation_rows, taxonomy_text, edges)


def write_dataset(dataset: SyntheticDataset, out_dir: str | Path) -> None:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "pairs.tsv", "w") as fh:
        for a, b, conf in dataset.pair_rows:
            fh.write(f"{a}\t{b}\t{conf:g}\n")
    with open(out_dir / "annotations.tsv", "w") as fh:
        for entity, cls in dataset.annotation_rows:
            fh.write(f"{entity}\t{cls}\n")
    with open(out_dir / "taxonomy.el", "w") as fh:
        fh.write(dataset.taxonomy_text)
