"""Link-prediction scoring and ranking metrics (hits@k, mean rank, AUC).

Ranking is generic over a batch score function ``score_fn(head, rel,
tails) -> array`` so the same report machinery serves ball embeddings and
semantic-similarity baselines. Ties are broken pessimistically: the true
tail ranks worst among equal scores. ``embedding_score_fn``'s scorer ranks
through a matrix-product screen with a proven error bound, and its ranks
equal those of its exact scores at any BLAS thread count.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from itertools import chain
from typing import Callable, Hashable, Iterable, Sequence

import numpy as np

from .embeddings import EmbeddingSet

Triple = tuple[Hashable, Hashable, Hashable]
ScoreFn = Callable[[Hashable, Hashable, Sequence[Hashable]], np.ndarray]

_BLOCK = 1 << 16  # float64 elements in one score or product block, 512 kB
# heads in one screen product at least: over fewer, packing the pool costs more than the
# product, so a pool wider than _WIDE_POOL takes _SCREEN_HEADS heads a block
_SCREEN_HEADS = 16
_WIDE_POOL = _BLOCK // _SCREEN_HEADS
_SCREENED = 1e100  # a row holding a larger or non-finite entry (Top's radius) is not screened


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


def _args(moved, radius, centers, radii, gamma) -> np.ndarray:
    """The NF3 hinge argument ||moved - center|| - radius - radii - gamma, elementwise."""
    x = moved - centers
    return np.sqrt(np.add.reduce(np.multiply(x, x, out=x), -1)) - radius - radii - gamma


def _screen(m, r_h, c, r_t, gamma, row: np.ndarray):
    """(start, stop, x = a'[row[start:stop]], E) per run of the sorted head rows ``row``; x is reused.

    a' = sqrt(max(s, 0)) - r_t, s = ||m||² - 2m·c + ||c||² from one matrix product
    (norms as extra columns) per block of at most ``_BLOCK`` head×pool elements, or
    of ``_SCREEN_HEADS`` heads of a pool wider than ``_WIDE_POOL``.
    E, the block's largest E_h = 2 sqrt((n + 4)u) S_h, S_h = ||m_h|| + C + |r_h| + R
    + |gamma| (u = 2^-53, n the dimension, C, R the largest ||c_t||, |r_t|), bounds
    |fl(a' - (T + r_h + gamma)) - (a - T)| for the ``_args`` float a, T in [0, 2 S_h]:
    a k-term dot product errs by at most ku/(1 - ku) times its |terms| summed, in
    any order, with or without FMA (Higham 2002, §3.1), so |s - d²| <= (2n + 3)u
    (||m|| + ||c||)², d the real distance, and as |sqrt x - sqrt y| <= sqrt|x - y| the
    gap errs by sqrt 2 of the factor 2 at most; the rest, O(n u S_h), fits for n < 1e6.
    """
    mm, cc = np.einsum("ij,ij->i", m, m), np.einsum("ij,ij->i", c, c)
    lhs = np.column_stack([-2.0 * m, np.ones(len(m)), mm])
    rhs = np.column_stack([c, cc, np.ones(len(c))]).T
    bound = np.sqrt(mm) + np.sqrt(cc.max()) + np.abs(r_h) + np.fmax.reduce(np.abs(r_t)) + abs(gamma)
    bound *= 2.0 * math.sqrt((m.shape[1] + 4) * 2.0**-53)
    step = _SCREEN_HEADS if len(c) > _WIDE_POOL else max(1, _BLOCK // len(c))
    buf = np.empty((2, step, len(c)))  # a block's a', and the rows of one run of it
    for top in range(0, len(m), step):
        a = np.matmul(lhs[top : top + step], rhs, out=buf[0, : len(lhs[top : top + step])])
        np.sqrt(np.maximum(a, 0.0, out=a), out=a)
        a -= r_t
        lo, hi = np.searchsorted(row, (top, top + len(a)))
        for start in range(lo, hi, step):
            stop = min(start + step, hi)
            x = np.take(a, row[start:stop] - top, axis=0, out=buf[1, : stop - start], mode="clip")
            yield start, stop, x, bound[top : top + step].max()


class EmbeddingScorer:
    """-max(0, a) over symbol names, a = ||c_h + r - c_t|| - r_h - r_t - gamma.

    Calling it gives one head's exact scores through ``_args``. ``ahead`` ranks by
    ``_screen``, recomputing the pairs within its bound: 0.07 % on ppi-1000, 0.2 % on
    the others.
    """

    def __init__(self, e: EmbeddingSet, class_index: dict, rel_index: dict, gamma: float):
        if isinstance(gamma, bool) or not isinstance(gamma, numbers.Real) or not math.isfinite(gamma):
            raise EvaluationError(f"gamma must be a finite real number, not {gamma!r}")
        self.e, self.class_index, self.rel_index, self.gamma = e, class_index, rel_index, gamma

    def __call__(self, head, rel, tails) -> np.ndarray:
        moved, radius, centers, radii = self._gather([head], rel, tails)
        return -np.maximum(0.0, _args(moved, radius, centers, radii, self.gamma))

    def _gather(self, heads: Sequence, rel, tails: Sequence) -> tuple[np.ndarray, ...]:
        h, t = self._handles(self.class_index, heads), self._handles(self.class_index, tails)
        e, r = self.e, self._handles(self.rel_index, [rel])[0]
        centers, radii = e.class_centers, e.class_radii
        return centers[h] + e.rel_vectors[r], radii[h], centers[t], radii[t]

    def ahead(self, heads: Sequence, rel, tails: Sequence, row: np.ndarray, col: np.ndarray):
        """(start, stop, ahead) over runs of the queries (heads[row[q]], rel, tails[col[q]]),
        ``row`` sorted: ahead[i, j] = a_j <= T = max(0, a_true), tails[j] scoring at least
        query start + i's true tail. x = a' - (T + r_h + gamma) <= -E is ahead, x > E is not;
        the band between, and rows beyond ``_SCREENED`` (NaN in x), are recomputed."""
        moved, rh, centers, rt = self._gather(heads, rel, tails)
        T = np.maximum(0.0, _args(moved[row], rh[row], centers[col], rt[col], self.gamma))
        ok_h = (np.abs(moved) <= _SCREENED).all(1) & (np.abs(rh) <= _SCREENED)
        ok_t = (np.abs(centers) <= _SCREENED).all(1) & (np.abs(rt) <= _SCREENED)
        m, r_h = np.where(ok_h[:, None], moved, 0.0), np.where(ok_h, rh, 0.0)
        c, r_t = np.where(ok_t[:, None], centers, 0.0), np.where(ok_t, rt, np.nan)
        mid = np.where(ok_h[row] & ok_t[col], T + r_h[row] + self.gamma, np.nan)
        for start, stop, x, E in _screen(m, r_h, c, r_t, self.gamma, row):
            x -= mid[start:stop, None]
            ahead, band = x <= -E, ~(x > E)  # NaN lands in the band
            band ^= ahead
            q, j = np.divmod(np.flatnonzero(band), len(c))  # 10x np.nonzero's speed on 2-D
            g = row[start + q]
            ahead[q, j] = _args(moved[g], rh[g], centers[j], rt[j], self.gamma) <= T[start + q]
            yield start, stop, ahead

    @staticmethod
    def _handles(index: dict, names: Sequence) -> np.ndarray:
        try:
            return np.fromiter(map(index.__getitem__, names), np.intp, len(names))
        except KeyError as exc:
            raise EvaluationError(f"no embedding for symbol {exc.args[0]!r}") from None


embedding_score_fn = EmbeddingScorer  # (e, class_index, rel_index, gamma) -> score function


@dataclass
class LinkSplit:
    """Disjoint train/valid/test triple lists plus the given candidate tail pools.

    A relation with no pool in ``candidates`` ranks against its derived pool:
    every tail it has across the three lists, first seen first. ``ranking_report``
    keeps derived pools in its plans, never in ``candidates``, so they follow the
    lists. It keeps the plans on the instance, outside the fields (``==``,
    ``repr``, ``asdict`` and ``replace`` do not see them), with copies of the three
    lists and of each given pool it ranked against, and a later call reuses them
    while all of these compare ``==`` to the copies.
    """

    train: list[Triple] = field(default_factory=list)
    valid: list[Triple] = field(default_factory=list)
    test: list[Triple] = field(default_factory=list)
    candidates: dict[Hashable, list[Hashable]] = field(default_factory=dict)

    def candidate_tails(self, rel) -> list[Hashable]:
        """The given pool of ``rel``, or else its derived pool, stored in ``candidates``
        so that a repeat call is one lookup. A pool stored here is a given pool from
        then on: it does not follow later edits to the triples. A derived pool that
        the ranking plans hold, while they fit the split, is copied, not derived again."""
        if rel not in self.candidates:
            plans = getattr(self, "_plans", None)
            plan = plans.by_rel.get(rel) if plans is not None else None
            if plan is not None and not plan.given and plans.fits(self):
                self.candidates[rel] = list(plan.pool)  # a copy: editing it must not edit the plan
            else:
                self.candidates[rel] = _derived_pool(self, rel)
        return self.candidates[rel]


def _derived_pool(split: LinkSplit, rel) -> list[Hashable]:
    """Every tail of ``rel`` across the split's train, valid and test triples, first seen first."""
    triples = chain(split.train, split.valid, split.test)
    return list(dict.fromkeys(t for _, r, t in triples if r == rel))


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


def _stacked(score_fn: ScoreFn, heads: Sequence, rel, tails: list, row, col):
    """``ahead`` for a plain score function: its rows fill one reused buffer and are compared.

    A row that is not one score per tail, a scalar included, is refused rather than broadcast."""
    step = max(1, _BLOCK // max(1, len(tails)))
    buf = np.empty((min(step, len(heads)), len(tails)))
    for top in range(0, len(heads), step):
        chunk = heads[top : top + step]
        scores = buf[: len(chunk)]
        for scored, head in zip(scores, chunk):
            got = np.asarray(score_fn(head, rel, tails))
            if got.shape != scored.shape:
                raise EvaluationError(
                    f"score function gave shape {got.shape} for head {head!r} and relation "
                    f"{rel!r}, not {scored.shape}"
                )
            scored[:] = got
        lo, hi = np.searchsorted(row, (top, top + len(scores)))
        for start in range(lo, hi, step):
            stop = min(start + step, hi)
            rows = row[start:stop] - top
            yield start, stop, scores[rows] >= scores[rows, col[start:stop], None]


def _copies(flat: np.ndarray, run_start: np.ndarray, n_run: np.ndarray, key: np.ndarray):
    """(q, flat[run_start[key[q]] : run_start[key[q]] + n_run[key[q]]]) for every q, concatenated."""
    n = n_run[key]
    q = np.repeat(np.arange(len(key)), n)
    return q, flat[np.arange(len(q)) + np.repeat(run_start[key] - (np.cumsum(n) - n), n)]


@dataclass
class _Plan:
    """What ranking one relation's queries needs besides scores, from ``_plan``.

    The queries are regrouped by head: query q asks for ``pool[col[q]]`` of head
    ``heads[row[q]]``, and is ``split.test[at[q]]``. The pool positions of every copy
    of its true tail are ``self_col[self_q == q]``; those its filter drops are
    ``drop_col[drop_q == q]``, and ``n_f[q]`` positions remain.
    """

    pool: list
    given: bool  # the pool is split.candidates[rel], not derived
    heads: list
    at: np.ndarray
    row: np.ndarray
    col: np.ndarray
    self_q: np.ndarray
    self_col: np.ndarray
    drop_q: np.ndarray
    drop_col: np.ndarray
    n_f: np.ndarray


def _plan(queries: list, heads: Sequence, tails: Sequence, rel, pool: list, given: bool, known):
    """The ``_Plan`` of the queries (heads[q], rel, tails[q]), ``split.test[queries[q]]``.

    Each distinct head gets one row, so scoring costs distinct heads × pool,
    not queries × pool. Filtering drops every position of the tails in
    ``known[head, rel]`` except those of the true tail itself; those
    positions are found once per head.
    """
    where: dict[Hashable, list[int]] = {}
    for i, t in enumerate(pool):
        where.setdefault(t, []).append(i)
    first = np.fromiter((where[t][0] for t in pool), np.intp, len(pool))
    try:
        col = np.fromiter((where[t][0] for t in tails), np.intp, len(tails))
    except KeyError as exc:
        raise EvaluationError(f"true tail {exc.args[0]!r} not among candidates") from None
    row_of: dict[Hashable, int] = {}
    row = np.fromiter((row_of.setdefault(h, len(row_of)) for h in heads), np.intp, len(heads))
    order = np.argsort(row, kind="stable")  # the queries regrouped by head, in head order
    row, col = row[order], col[order]
    # every pool position holding each query's true tail, from runs of equal `first`
    n_same = np.bincount(first, minlength=len(pool))
    self_q, self_col = _copies(np.argsort(first, kind="stable"), np.cumsum(n_same) - n_same, n_same, col)
    # the pool positions of each head's known tails, one run per head; each
    # query copies its head's run, then takes its true tail's positions out
    known_at = [[i for x in known.get((h, rel), ()) for i in where.get(x, ())] for h in row_of]
    n_known = np.fromiter(map(len, known_at), np.intp, len(known_at))
    flat = np.fromiter(chain.from_iterable(known_at), np.intp, int(n_known.sum()))
    drop_q, drop_col = _copies(flat, np.cumsum(n_known) - n_known, n_known, row)
    kept = first[drop_col] != col[drop_q]
    drop_q, drop_col = drop_q[kept], drop_col[kept]
    n_dropped = np.bincount(drop_q, minlength=len(row))
    at = np.asarray(queries, dtype=np.intp)[order]
    return _Plan(pool, given, list(row_of), at, row, col, self_q, self_col, drop_q, drop_col,
                 len(pool) - n_dropped)


def _count(score_fn: ScoreFn, rel, plan: _Plan) -> tuple[np.ndarray, np.ndarray]:
    """Raw and filtered rank of each of ``plan``'s queries, in its order: the part that scores.

    Ranks are pessimistic: 1 + the pool positions holding another tail that
    score at least the true tail. A block clears the true tail's positions
    and counts each row once; the filtered rank takes the dropped positions
    that rank ahead out of the raw count.
    """
    count = np.uint16 if len(plan.pool) < 1 << 16 else np.uint32  # a row's count fits, and sums fast
    raw, filt = np.empty((2, len(plan.row)), dtype=np.intp)
    self_q, self_col, drop_q, drop_col = plan.self_q, plan.self_col, plan.drop_q, plan.drop_col
    screen = getattr(score_fn, "ahead", None) or (lambda *args: _stacked(score_fn, *args))
    for start, stop, ahead in screen(plan.heads, rel, plan.pool, plan.row, plan.col):
        a, b = np.searchsorted(self_q, (start, stop))
        ahead[self_q[a:b] - start, self_col[a:b]] = False
        raw[start:stop] = np.add.reduce(ahead.view(np.uint8), axis=1, dtype=count)
        a, b = np.searchsorted(drop_q, (start, stop))
        q, j = drop_q[a:b] - start, drop_col[a:b]
        filt[start:stop] = raw[start:stop] - np.bincount(q[ahead[q, j]], minlength=stop - start)
    return 1 + raw, 1 + filt


class _Plans:
    """The plans of a split's test queries by relation, with copies of what they were built from.

    ``fits`` holds while the split's lists, and the given pool of each queried
    relation, compare ``==`` to the copies; ``==`` on lists tests identity first,
    so an unchanged split costs one pointer comparison per triple.
    """

    def __init__(self, split: LinkSplit):
        self.train, self.valid, self.test = list(split.train), list(split.valid), list(split.test)
        known: dict[tuple, set] = {}
        by_rel: dict = {}
        for q, (h, r, t) in enumerate(split.test):
            by_rel.setdefault(r, []).append(q)
            known.setdefault((h, r), set())
        queried = {h for h, _ in known}
        for h, r, t in chain(split.train, split.valid):
            if h in queried and (wanted := known.get((h, r))) is not None:
                wanted.add(t)

        # per query in split.test order: raw pool, filtered pool
        self.n, self.n_f = np.empty((2, len(split.test)), dtype=np.intp)
        self.by_rel: dict[Hashable, _Plan] = {}
        for r, queries in by_rel.items():
            heads, _, tails = zip(*map(split.test.__getitem__, queries))
            given = r in split.candidates
            pool = list(split.candidates[r]) if given else _derived_pool(split, r)
            plan = self.by_rel[r] = _plan(queries, heads, tails, r, pool, given, known)
            self.n[plan.at], self.n_f[plan.at] = len(pool), plan.n_f

    def fits(self, split: LinkSplit) -> bool:
        if not (split.test == self.test and split.train == self.train and split.valid == self.valid):
            return False
        for r, plan in self.by_rel.items():
            pool = split.candidates.get(r)
            if pool is None:  # derived now: equal lists derive it equal
                if plan.given:
                    return False
            elif (pool if type(pool) is list else list(pool)) != plan.pool:
                return False
        return True


def ranking_report(split: LinkSplit, score_fn: ScoreFn) -> RankingReport:
    """Raw and filtered metrics over the test triples.

    Each distinct (head, relation) key of the test triples is scored once
    against the relation's whole candidate pool, so scoring costs keys ×
    pool, not queries × pool. Filtered ranking excludes train and
    validation tails for the same (head, relation); other test triples
    are not excluded. Only the queried (head, relation) keys are indexed,
    so the filter costs one membership test per train or valid triple.
    That filter, the pools and the positions are planned once and kept on
    ``split`` (see ``LinkSplit``), so a later call on an unchanged split,
    with this or another score function, only scores and counts.
    """
    if not split.test:
        raise EvaluationError("empty test set")
    plans = getattr(split, "_plans", None)
    if plans is None or not plans.fits(split):
        plans = split._plans = _Plans(split)

    # per query in split.test order: raw rank, filtered rank
    raw, filt = np.empty((2, len(split.test)), dtype=np.intp)
    for r, plan in plans.by_rel.items():
        raw[plan.at], filt[plan.at] = _count(score_fn, r, plan)
    n, n_f = plans.n, plans.n_f

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
