"""Link-prediction scoring and ranking metrics (hits@k, mean rank, AUC).

Ranking is generic over a batch score function ``score_fn(head, rel,
tails) -> array`` so the same report machinery serves ball embeddings and
semantic-similarity baselines. A score function that also has a
``block(heads, rel, tails)`` method, as ``embedding_score_fn``'s does,
scores many queries of one relation at once. Ties are broken
pessimistically: the true tail ranks worst among equal scores.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from itertools import chain
from typing import Callable, Hashable, Iterable, Iterator, Sequence

import numpy as np

from .embeddings import EmbeddingSet

Triple = tuple[Hashable, Hashable, Hashable]
ScoreFn = Callable[[Hashable, Hashable, Sequence[Hashable]], np.ndarray]

_BLOCK = 1 << 16  # float64 elements in one Q×K×dim difference block, 512 kB


class EvaluationError(Exception):
    pass


def entity_index(class_names: Iterable[str]) -> dict[str, int]:
    """Class name -> row, where a bare entity name "p" also names its "{p}" class.

    A class literally named "p" keeps its own row; "{}" names no entity.
    """
    index = {name: i for i, name in enumerate(class_names)}
    for name, i in list(index.items()):
        if len(name) > 2 and name[0] == "{" and name[-1] == "}":
            index.setdefault(name[1:-1], i)
    return index


class EmbeddingScorer:
    """-max(0, ||c_h + r - c_t|| - r_h - r_t - gamma) over symbol names.

    Calling it scores one head against a list of tails. ``block`` resolves
    and gathers the tails once and scores many heads against them, in row
    blocks of at most ``_BLOCK`` difference elements; every row equals the
    call's bit for bit.
    """

    def __init__(self, e: EmbeddingSet, class_index: dict, rel_index: dict, gamma: float):
        if isinstance(gamma, bool) or not isinstance(gamma, numbers.Real) or not math.isfinite(gamma):
            raise EvaluationError(f"gamma must be a finite real number, not {gamma!r}")
        self.e, self.class_index, self.rel_index, self.gamma = e, class_index, rel_index, gamma

    def __call__(self, head, rel, tails) -> np.ndarray:
        return next(self.block([head], rel, tails))[0]

    def block(self, heads: Sequence, rel, tails: Sequence) -> Iterator[np.ndarray]:
        """The Q×K scores of ``heads`` against ``tails``, as consecutive row blocks."""
        h, t = self._handles(self.class_index, heads), self._handles(self.class_index, tails)
        r = self._handles(self.rel_index, [rel])[0]
        centers, radii = self.e.class_centers, self.e.class_radii
        tail_centers, tail_radii = centers[t], radii[t]
        step = max(1, _BLOCK // max(1, len(t) * self.e.dim))
        buf = np.empty((min(step, len(h)), len(t), self.e.dim))  # every block's differences
        for i in range(0, len(h), step):
            rows = h[i : i + step]
            moved = centers[rows] + self.e.rel_vectors[r]
            x = np.subtract(moved[:, None, :], tail_centers, out=buf[: len(rows)])
            gaps = np.sqrt(np.add.reduce(np.multiply(x, x, out=x), -1))
            yield -np.maximum(0.0, gaps - radii[rows, None] - tail_radii - self.gamma)

    @staticmethod
    def _handles(index: dict, names: Sequence) -> np.ndarray:
        try:
            return np.fromiter(map(index.__getitem__, names), np.intp, len(names))
        except KeyError as exc:
            raise EvaluationError(f"no embedding for symbol {exc.args[0]!r}") from None


embedding_score_fn = EmbeddingScorer  # (e, class_index, rel_index, gamma) -> score function


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


def _blocks(score_fn: ScoreFn, heads: Sequence, rel, tails: list) -> Iterator[np.ndarray]:
    """Row blocks of the Q×K scores; a plain score function's rows fill one reused buffer."""
    if hasattr(score_fn, "block"):
        yield from score_fn.block(heads, rel, tails)
        return
    step = max(1, _BLOCK // max(1, len(tails)))
    buf = np.empty((min(step, len(heads)), len(tails)))
    for i in range(0, len(heads), step):
        chunk = heads[i : i + step]
        block = buf[: len(chunk)]
        for row, head in zip(block, chunk):
            row[:] = score_fn(head, rel, tails)
        yield block


def _rank(score_fn: ScoreFn, heads: Sequence, rel, tails: Sequence, pool: list, exclude: list):
    """Raw rank, filtered rank and filtered pool size of each query (heads[q], rel, tails[q]).

    Ranks are pessimistic: 1 + the pool positions holding another tail
    that score at least the true tail. Filtering also drops every position
    of the tails in ``exclude[q]`` except the true tail itself.
    """
    where: dict[Hashable, list[int]] = {}
    for i, t in enumerate(pool):
        where.setdefault(t, []).append(i)
    first = np.fromiter((where[t][0] for t in pool), np.intp, len(pool))
    try:
        col = np.fromiter((where[t][0] for t in tails), np.intp, len(tails))
    except KeyError as exc:
        raise EvaluationError(f"true tail {exc.args[0]!r} not among candidates") from None
    drops = [[i for x in ex if x != t for i in where.get(x, ())] for t, ex in zip(tails, exclude)]
    n_dropped = np.fromiter(map(len, drops), np.intp, len(drops))
    drop_q = np.repeat(np.arange(len(drops)), n_dropped)
    drop_col = np.fromiter(chain.from_iterable(drops), np.intp, len(drop_q))
    raw, filt = np.empty((2, len(heads)), dtype=np.intp)
    start = 0
    for scores in _blocks(score_fn, heads, rel, pool):
        stop = start + len(scores)
        cols = col[start:stop]
        ahead = scores >= scores[np.arange(len(cols)), cols, None]
        ahead &= first != cols[:, None]  # the self-mask, over every copy of the true tail
        raw[start:stop] = np.count_nonzero(ahead, axis=1)
        lo, hi = np.searchsorted(drop_q, (start, stop))
        ahead[drop_q[lo:hi] - start, drop_col[lo:hi]] = False
        filt[start:stop] = np.count_nonzero(ahead, axis=1)
        start = stop
    return 1 + raw, 1 + filt, len(pool) - n_dropped


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
    _, rank, n = _rank(score_fn, [head], rel, [true_tail], list(candidates), [exclude])
    return int(rank[0]), int(n[0])


def ranking_report(split: LinkSplit, score_fn: ScoreFn) -> RankingReport:
    """Raw and filtered metrics over the test triples.

    The queries of each relation are scored together against its whole
    candidate pool, once each. Filtered ranking excludes train and
    validation tails for the same (head, relation); other test triples
    are not excluded.
    """
    if not split.test:
        raise EvaluationError("empty test set")

    known: dict[tuple, set] = {}
    for h, r, t in split.train + split.valid:
        known.setdefault((h, r), set()).add(t)
    by_rel: dict = {}
    for q, (h, r, t) in enumerate(split.test):
        by_rel.setdefault(r, []).append(q)

    # per query in split.test order: raw rank, raw pool, filtered rank, filtered pool
    raw, n, filt, n_f = np.empty((4, len(split.test)), dtype=np.intp)
    for r, queries in by_rel.items():
        heads, _, tails = zip(*map(split.test.__getitem__, queries))
        pool = list(split.candidate_tails(r))
        exclude = [known.get((h, r), ()) for h in heads]
        raw[queries], filt[queries], n_f[queries] = _rank(score_fn, heads, r, tails, pool, exclude)
        n[queries] = len(pool)

    def auc(rank, n):
        return np.divide(n - rank, n - 1, out=np.ones(len(n)), where=n > 1)

    def hits(ranks, k):
        return float(np.mean(ranks <= k))

    return RankingReport(
        raw_hits10=hits(raw, 10),
        raw_hits100=hits(raw, 100),
        raw_mean_rank=float(np.mean(raw)),
        raw_auc=float(np.mean(auc(raw, n))),
        filtered_hits10=hits(filt, 10),
        filtered_hits100=hits(filt, 100),
        filtered_mean_rank=float(np.mean(filt)),
        filtered_auc=float(np.mean(auc(filt, n_f))),
        n_queries=len(split.test),
    )
