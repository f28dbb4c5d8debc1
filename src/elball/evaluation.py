"""Link-prediction scoring and ranking metrics (hits@k, mean rank, AUC).

Ranking is generic over a batch score function ``score_fn(head, rel,
tails) -> array`` so the same report machinery serves ball embeddings and
semantic-similarity baselines. Ties are broken pessimistically: the true
tail ranks worst among equal scores.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Hashable, Sequence

import numpy as np

from .embeddings import EmbeddingSet

Triple = tuple[Hashable, Hashable, Hashable]
ScoreFn = Callable[[Hashable, Hashable, Sequence[Hashable]], np.ndarray]


class EvaluationError(Exception):
    pass


def embedding_score_fn(
    e: EmbeddingSet,
    class_index: dict[Hashable, int],
    rel_index: dict[Hashable, int],
    gamma: float,
) -> ScoreFn:
    """Batch score function over symbol names, vectorized over the tails."""

    def fn(head, rel, tails):
        try:
            c = class_index[head]
            r = rel_index[rel]
            d = np.fromiter(map(class_index.__getitem__, tails), np.intp, len(tails))
        except KeyError as exc:
            raise EvaluationError(f"no embedding for symbol {exc.args[0]!r}") from None
        gaps = np.linalg.norm(
            e.class_centers[c] + e.rel_vectors[r] - e.class_centers[d], axis=-1
        )
        return -np.maximum(0.0, gaps - e.class_radii[c] - e.class_radii[d] - gamma)

    return fn


@dataclass
class LinkSplit:
    """Disjoint train/valid/test triple lists plus the candidate tail pool.

    When ``candidates`` is empty it is derived per relation as every tail
    of that relation across all three splits.
    """

    train: list[Triple] = field(default_factory=list)
    valid: list[Triple] = field(default_factory=list)
    test: list[Triple] = field(default_factory=list)
    candidates: dict[Hashable, list[Hashable]] = field(default_factory=dict)

    def candidate_tails(self, rel) -> list[Hashable]:
        if rel in self.candidates:
            return self.candidates[rel]
        seen = {}
        for h, r, t in self.train + self.valid + self.test:
            if r == rel and t not in seen:
                seen[t] = None
        tails = list(seen)
        self.candidates[rel] = tails
        return tails


@dataclass
class RankingReport:
    raw_hits10: float
    raw_hits100: float
    raw_mean_rank: float
    raw_auc: float
    filtered_hits10: float
    filtered_hits100: float
    filtered_mean_rank: float
    filtered_auc: float
    n_queries: int

    def to_dict(self) -> dict:
        return {
            "Raw Hits@10": self.raw_hits10,
            "Filtered Hits@10": self.filtered_hits10,
            "Raw Hits@100": self.raw_hits100,
            "Filtered Hits@100": self.filtered_hits100,
            "Raw Mean Rank": self.raw_mean_rank,
            "Filtered Mean Rank": self.filtered_mean_rank,
            "Raw AUC": self.raw_auc,
            "Filtered AUC": self.filtered_auc,
            "Queries": self.n_queries,
        }


def _positions(candidates: Sequence[Hashable]) -> dict[Hashable, list[int]]:
    where: dict[Hashable, list[int]] = {}
    for i, t in enumerate(candidates):
        where.setdefault(t, []).append(i)
    return where


def _ranks(head, rel, true_tail, candidates, where, score_fn, exclude) -> tuple[int, int, int, int]:
    """(raw rank, raw pool, filtered rank, filtered pool) from one score_fn call.

    Ranks are pessimistic: 1 + the other candidates scoring at least the
    true tail. ``where`` maps each candidate to its positions. Filtering
    drops the candidates in ``exclude`` except the true tail itself.
    """
    if true_tail not in where:
        raise EvaluationError(f"true tail {true_tail!r} not among candidates")
    scores = np.asarray(score_fn(head, rel, candidates), dtype=np.float64)
    true_idx = where[true_tail][0]
    ahead = scores >= scores[true_idx]
    ahead[true_idx] = False
    raw = 1 + int(np.count_nonzero(ahead))
    dropped = {i for t in exclude if t != true_tail for i in where.get(t, ())}
    ahead[list(dropped)] = False
    return raw, len(candidates), 1 + int(np.count_nonzero(ahead)), len(candidates) - len(dropped)


def rank_query(
    head,
    rel,
    true_tail,
    candidates: Sequence[Hashable],
    score_fn: ScoreFn,
    exclude: frozenset | set = frozenset(),
) -> tuple[int, int]:
    """Pessimistic rank of the true tail and the number of ranked candidates.

    ``exclude`` drops known-true tails from the candidate list (the
    filtered setting); the true tail itself is never dropped.
    """
    candidates = list(candidates)
    return _ranks(head, rel, true_tail, candidates, _positions(candidates), score_fn, exclude)[2:]


def _per_query_auc(rank: int, n: int) -> float:
    return 1.0 if n <= 1 else (n - rank) / (n - 1)


def ranking_report(split: LinkSplit, score_fn: ScoreFn) -> RankingReport:
    """Raw and filtered metrics over the test triples.

    Each query is scored once over its relation's whole candidate pool.
    Filtered ranking excludes train and validation tails for the same
    (head, relation); other test triples are not excluded.
    """
    if not split.test:
        raise EvaluationError("empty test set")

    known: dict[tuple, set] = {}
    for h, r, t in split.train + split.valid:
        known.setdefault((h, r), set()).add(t)

    pools: dict = {}
    raw_ranks, raw_aucs, filt_ranks, filt_aucs = [], [], [], []
    for h, r, t in split.test:
        if r not in pools:
            candidates = list(split.candidate_tails(r))
            pools[r] = candidates, _positions(candidates)
        rank, n, rank_f, n_f = _ranks(h, r, t, *pools[r], score_fn, known.get((h, r), ()))
        raw_ranks.append(rank)
        raw_aucs.append(_per_query_auc(rank, n))
        filt_ranks.append(rank_f)
        filt_aucs.append(_per_query_auc(rank_f, n_f))

    def hits(ranks, k):
        return float(np.mean([rank <= k for rank in ranks]))

    return RankingReport(
        raw_hits10=hits(raw_ranks, 10),
        raw_hits100=hits(raw_ranks, 100),
        raw_mean_rank=float(np.mean(raw_ranks)),
        raw_auc=float(np.mean(raw_aucs)),
        filtered_hits10=hits(filt_ranks, 10),
        filtered_hits100=hits(filt_ranks, 100),
        filtered_mean_rank=float(np.mean(filt_ranks)),
        filtered_auc=float(np.mean(filt_aucs)),
        n_queries=len(split.test),
    )
