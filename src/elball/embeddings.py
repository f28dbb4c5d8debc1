"""Embedding tables: per-class center and radius, per-relation translation.

Classes and relations are addressed by their vocabulary handles, so the
tables are plain arrays indexed by handle. Top's radius is a finite
sentinel (the largest representable float) standing in for infinity; Top's
parameters are frozen during training.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ontology import BOT_ID, TOP_ID

TOP_RADIUS = float(np.finfo(np.float64).max)


def table_views(flat: np.ndarray, n_classes: int, dim: int) -> tuple[np.ndarray, ...]:
    """Centers, radii and relation vectors as views into one buffer laid out
    [centers | radii | relations]."""
    at = n_classes * dim
    return (
        flat[:at].reshape(n_classes, dim),
        flat[at : at + n_classes],
        flat[at + n_classes :].reshape(-1, dim),
    )


@dataclass
class EmbeddingSet:
    class_centers: np.ndarray  # (n_classes, dim)
    class_radii: np.ndarray  # (n_classes,)
    rel_vectors: np.ndarray  # (n_relations, dim)
    top: int = TOP_ID
    bot: int = BOT_ID

    @property
    def dim(self) -> int:
        return self.class_centers.shape[1]

    @property
    def n_classes(self) -> int:
        return self.class_centers.shape[0]

    @property
    def n_relations(self) -> int:
        return self.rel_vectors.shape[0]

    def packed(self) -> tuple[np.ndarray, "EmbeddingSet"]:
        """The tables copied into one buffer, and an EmbeddingSet of views into it."""
        flat = np.concatenate(
            [self.class_centers.ravel(), self.class_radii, self.rel_vectors.ravel()]
        )
        return flat, EmbeddingSet(*table_views(flat, self.n_classes, self.dim), self.top, self.bot)

    def zeros_like(self) -> "EmbeddingSet":
        return EmbeddingSet(
            np.zeros_like(self.class_centers),
            np.zeros_like(self.class_radii),
            np.zeros_like(self.rel_vectors),
            self.top,
            self.bot,
        )

