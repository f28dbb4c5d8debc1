"""Geometric n-ball embeddings for EL++ ontologies.

Pipeline: parse the text format (``ontology``), compile away the ABox and
rewrite into normal forms (``normalizer``), train ball embeddings against
the per-normal-form losses (``losses``, ``trainer``), verify the result
geometrically (``geometry``), and evaluate link prediction against
semantic-similarity baselines (``evaluation``, ``semsim``).
"""

from .embeddings import EmbeddingSet, TOP_RADIUS
from .evaluation import LinkSplit, RankingReport, ranking_report
from .family import FAMILY_KB, family_ontology
from .geometry import Ball, ModelReport, check_model, containment_violation, intersection_ball
from .losses import LossBatch, batch_gradient, batch_loss
from .normalizer import NormalizedTheory, classify_axiom, eliminate_abox, normalize
from .ontology import Ontology, format_axiom, format_ontology, parse_ontology
from .semsim import TaxonomyIndex, bma_similarity, build_taxonomy
from .trainer import TrainConfig, init_embeddings, train

__all__ = [
    "Ball",
    "EmbeddingSet",
    "FAMILY_KB",
    "LinkSplit",
    "LossBatch",
    "ModelReport",
    "NormalizedTheory",
    "Ontology",
    "RankingReport",
    "TOP_RADIUS",
    "TaxonomyIndex",
    "TrainConfig",
    "batch_gradient",
    "batch_loss",
    "bma_similarity",
    "build_taxonomy",
    "check_model",
    "classify_axiom",
    "containment_violation",
    "eliminate_abox",
    "family_ontology",
    "format_axiom",
    "format_ontology",
    "init_embeddings",
    "intersection_ball",
    "normalize",
    "parse_ontology",
    "ranking_report",
    "train",
]

__version__ = "0.1.0"
