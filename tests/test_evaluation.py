import math
import re

import numpy as np
import pytest

from elball import evaluation
from elball.embeddings import EmbeddingSet, TOP_RADIUS
from elball.evaluation import (
    EvaluationError,
    LinkSplit,
    RankingReport,
    embedding_score_fn,
    entity_index,
    rank_query,
    ranking_report,
)


def embed(centers, radii, rels):
    e = EmbeddingSet(
        np.asarray(centers, dtype=float),
        np.asarray(radii, dtype=float),
        np.asarray(rels, dtype=float),
    )
    e.class_radii[e.top] = TOP_RADIUS
    return e


def score(e, c, r, d, gamma):
    """The embedding score of one triple, through embedding_score_fn over handles."""
    fn = embedding_score_fn(
        e, {i: i for i in range(e.n_classes)}, {i: i for i in range(e.n_relations)}, gamma
    )
    return float(fn(c, r, [d])[0])


class TestScore:
    def test_exact_translation(self):
        e = embed([(0, 0), (9, 9), (0, 1), (1, 1)], [0, 0, 0.2, 0.2], [[1, 0]])
        assert score(e, 2, 0, 3, 0.0) == 0.0

    def test_gap_minus_radii(self):
        e = embed([(0, 0), (9, 9), (0, 0), (2, 0)], [0, 0, 0.1, 0.1], [[1, 0]])
        assert score(e, 2, 0, 3, 0.0) == pytest.approx(-0.8)

    def test_linear_in_tail_radius(self):
        e = embed([(0, 0), (9, 9), (0, 0), (2, 0)], [0, 0, 0.1, 0.6], [[1, 0]])
        assert score(e, 2, 0, 3, 0.0) == pytest.approx(-0.3)

    def test_never_positive(self, rng):
        e = embed(rng.normal(0, 1, (6, 3)), rng.uniform(0, 1, 6), rng.normal(0, 1, (2, 3)))
        for _ in range(50):
            c, d = rng.integers(2, 6, size=2)
            r = rng.integers(2)
            assert score(e, c, r, d, rng.uniform(-0.1, 0.1)) <= 0.0

    def test_batch_fn_matches_scalar(self, rng):
        e = embed(rng.normal(0, 1, (6, 3)), rng.uniform(0, 1, 6), rng.normal(0, 1, (1, 3)))
        names = {f"C{i}": i for i in range(6)}
        fn = embedding_score_fn(e, names, {"r": 0}, gamma=0.05)
        got = fn("C2", "r", ["C3", "C4", "C5"])

        def printed(d):  # -max(0, ||f(c) + f(r) - f(d)|| - r(c) - r(d) - gamma)
            gap = np.linalg.norm(e.class_centers[2] + e.rel_vectors[0] - e.class_centers[d])
            return -max(0.0, gap - e.class_radii[2] - e.class_radii[d] - 0.05)

        want = [printed(d) for d in (3, 4, 5)]
        assert np.allclose(got, want)

    @pytest.mark.parametrize("gamma", [math.nan, math.inf, -math.inf, np.nan, True, "0.1", None])
    def test_refuses_a_gamma_that_is_not_a_finite_real(self, gamma):
        e = embed([(0, 0), (0, 0)], [0, 0], [[0, 0]])
        message = f"gamma must be a finite real number, not {gamma!r}"
        with pytest.raises(EvaluationError, match=f"^{re.escape(message)}$"):
            embedding_score_fn(e, {"A": 0}, {"r": 0}, gamma)

    @pytest.mark.parametrize("gamma", [0, -0.1, np.float32(0.5), np.float64(2.0)])
    def test_accepts_a_finite_real_gamma(self, gamma):
        e = embed([(0, 0), (9, 9), (0, 0)], [0, 0, 0.5], [[0, 0]])
        assert embedding_score_fn(e, {"A": 2}, {"r": 0}, gamma)("A", "r", ["A"])[0] == 0.0

    def test_missing_symbol(self):
        e = embed([(0, 0), (0, 0)], [0, 0], [[0, 0]])
        fn = embedding_score_fn(e, {"A": 0}, {"r": 0}, gamma=0.0)
        with pytest.raises(EvaluationError):
            fn("A", "r", ["B"])


def const_scores(mapping, default=0.0):
    def fn(head, rel, tails):
        return np.asarray([mapping.get(t, default) for t in tails], dtype=float)

    return fn


class TestRankQuery:
    def test_unique_max_is_rank_one(self):
        fn = const_scores({"b": -0.1}, default=-1.0)
        rank, n = rank_query("a", "r", "b", list("bcdef"), fn)
        assert (rank, n) == (1, 5)

    def test_all_ties_rank_worst(self):
        fn = const_scores({}, default=0.0)
        tails = [f"t{i}" for i in range(10)]
        rank, n = rank_query("a", "r", "t0", tails, fn)
        assert (rank, n) == (10, 10)

    def test_exclusion_drops_competitors(self):
        fn = const_scores({"b": -0.5}, default=0.0)
        rank, _ = rank_query("a", "r", "b", list("bcd"), fn)
        assert rank == 3
        rank, n = rank_query("a", "r", "b", list("bcd"), fn, exclude={"c", "d"})
        assert (rank, n) == (1, 1)

    def test_true_tail_never_excluded(self):
        fn = const_scores({})
        rank, n = rank_query("a", "r", "b", list("bc"), fn, exclude={"b"})
        assert n == 2 and rank == 2

    def test_true_tail_must_be_candidate(self):
        with pytest.raises(EvaluationError):
            rank_query("a", "r", "z", list("bcd"), const_scores({}))


class TestRankingReport:
    def split_one_query(self):
        train = [("a", "r", t) for t in ("c", "d")]
        return LinkSplit(train=train, test=[("a", "r", "b")])

    def test_rank_one_metrics(self):
        split = LinkSplit(test=[("a", "r", "b")], candidates={"r": list("bcdef")})
        report = ranking_report(split, const_scores({"b": -0.1}, default=-1.0))
        assert report.raw_hits10 == 1.0
        assert report.raw_mean_rank == 1.0
        assert report.raw_auc == 1.0
        assert report.n_queries == 1

    def test_rank_three_of_five_auc_half(self):
        scores = {"b": -2.0, "c": -1.0, "d": -1.5, "e": -3.0, "f": -4.0}
        split = LinkSplit(test=[("a", "r", "b")], candidates={"r": list("bcdef")})
        report = ranking_report(split, const_scores(scores))
        assert report.raw_mean_rank == 3.0
        assert report.raw_auc == 0.5

    def test_rank_last_auc_zero(self):
        split = LinkSplit(test=[("a", "r", "b")], candidates={"r": list("bcdef")})
        report = ranking_report(split, const_scores({"b": -9.0}, default=-1.0))
        assert report.raw_auc == 0.0

    def test_filtered_excludes_same_head_rel_only(self):
        # competitors c,d outscore b but are known train tails of (a, r)
        split = LinkSplit(
            train=[("a", "r", "c"), ("x", "r", "d")],
            test=[("a", "r", "b")],
            candidates={"r": list("bcd")},
        )
        report = ranking_report(split, const_scores({"b": -0.5}, default=0.0))
        assert report.raw_mean_rank == 3.0
        # only c is excluded; d belongs to a different head
        assert report.filtered_mean_rank == 2.0

    def test_empty_test_set(self):
        with pytest.raises(EvaluationError):
            ranking_report(LinkSplit(), const_scores({}))

    def test_report_dict_column_names(self):
        split = LinkSplit(test=[("a", "r", "b")], candidates={"r": ["b"]})
        d = ranking_report(split, const_scores({})).to_dict()
        assert list(d) == [
            "Raw Hits@10",
            "Filtered Hits@10",
            "Raw Hits@100",
            "Filtered Hits@100",
            "Raw Mean Rank",
            "Filtered Mean Rank",
            "Raw AUC",
            "Filtered AUC",
            "Queries",
        ]

    def test_score_shift_invariance(self, rng):
        split, fn = random_instance(rng)
        base = ranking_report(split, fn)
        shifted = ranking_report(split, lambda h, r, t: fn(h, r, t) + 17.5)
        assert base == shifted


# --- brute-force oracle ---------------------------------------------------


def brute_force_report(split, score_fn):
    """Sort-based reimplementation of the six metrics, kept deliberately dumb."""
    known = set()
    for h, r, t in split.train + split.valid:
        known.add((h, r, t))

    rows = {"raw": [], "filt": []}
    for h, r, t in split.test:
        pool = split.candidate_tails(r)
        for mode in ("raw", "filt"):
            if mode == "filt":
                kept = [x for x in pool if x == t or (h, r, x) not in known]
            else:
                kept = list(pool)
            pairs = sorted(
                ((float(score_fn(h, r, [x])[0]), x) for x in kept),
                key=lambda p: -p[0],
            )
            # pessimistic: walk past every candidate scoring >= the true tail
            true_score = float(score_fn(h, r, [t])[0])
            rank = sum(1 for s, x in pairs if x != t and s >= true_score) + 1
            n = len(kept)
            auc = 1.0 if n <= 1 else (n - rank) / (n - 1)
            rows[mode].append((rank, n, auc))

    def agg(items):
        ranks = [rank for rank, _, _ in items]
        return (
            sum(r <= 10 for r in ranks) / len(ranks),
            sum(r <= 100 for r in ranks) / len(ranks),
            sum(ranks) / len(ranks),
            sum(a for _, _, a in items) / len(items),
        )

    raw = agg(rows["raw"])
    filt = agg(rows["filt"])
    return RankingReport(*raw, *filt, n_queries=len(split.test))


def random_instance(rng, n_tails=20, n_queries=6):
    tails = [f"t{i}" for i in range(n_tails)]
    heads = [f"h{i}" for i in range(4)]

    def pick():
        return (
            heads[rng.integers(len(heads))],
            "r",
            tails[rng.integers(len(tails))],
        )

    train = list({pick() for _ in range(15)})
    valid = list({pick() for _ in range(4)})
    test = []
    while len(test) < n_queries:
        t = pick()
        if t not in train and t not in valid:
            test.append(t)
    table = {
        (h, t): float(np.round(rng.normal(0, 1), 2))  # rounding forces ties
        for h in heads
        for t in tails
    }

    def fn(head, rel, ts):
        return np.asarray([table[head, t] for t in ts])

    return LinkSplit(train=train, valid=valid, test=test, candidates={"r": tails}), fn


def test_oracle_agreement(rng):
    for _ in range(50):
        split, fn = random_instance(rng)
        fast = ranking_report(split, fn)
        slow = brute_force_report(split, fn)
        assert fast == slow


def test_filtered_never_worse_than_raw(rng):
    for _ in range(20):
        split, fn = random_instance(rng)
        report = ranking_report(split, fn)
        assert report.filtered_mean_rank <= report.raw_mean_rank


# --- block scoring ----------------------------------------------------------


def block_tables(rng, n=12, dim=5):
    """Seeded tables whose radii clip many scores to zero; row 0 is Top, relation 1 is zero."""
    rels = np.vstack([rng.normal(0, 1, (1, dim)), np.zeros((1, dim))])
    e = embed(rng.normal(0, 1, (n, dim)), rng.uniform(0, 1.5, n), rels)
    return e, {f"C{i}": i for i in range(n)}, {"r": 0, "zero": 1}


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("rel", ["r", "zero"])
def test_block_rows_equal_call_bitwise(seed, rel, monkeypatch):
    rng = np.random.default_rng(seed)
    e, names, rels = block_tables(rng)
    fn = embedding_score_fn(e, names, rels, gamma=0.05)
    heads = [f"C{i}" for i in rng.integers(0, 12, 9)] + ["C0"]
    tails = [f"C{i}" for i in rng.permutation(12)] + ["C3", "C0"]
    monkeypatch.setattr(evaluation, "_BLOCK", 3 * len(tails) * e.dim)  # three rows a block
    with np.errstate(over="ignore"):  # Top against Top: -TOP_RADIUS - TOP_RADIUS
        blocks = list(fn.block(heads, rel, tails))
        rows = np.stack([fn(h, rel, tails) for h in heads])
        C, rad, R = e.class_centers, e.class_radii, e.rel_vectors
        t = [names[x] for x in tails]
        printed = np.stack([  # the printed score, through np.linalg.norm per head
            -np.maximum(0.0, np.linalg.norm(C[names[h]] + R[rels[rel]] - C[t], axis=-1)
                        - rad[names[h]] - rad[t] - 0.05)
            for h in heads
        ])
    assert [len(b) for b in blocks] == [3, 3, 3, 1]
    got = np.vstack(blocks)
    assert np.array_equal(got.view(np.int64), rows.view(np.int64))
    assert np.array_equal(got.view(np.int64), printed.view(np.int64))
    assert (got == 0.0).any() and (got < 0.0).any()


def block_instance(rng):
    """Six test triples of two relations, interleaved. Pool "r" repeats tails, the
    true tail C2 among them; some known tails lie outside it; pool "zero" has one tail.

    Six queries keep np.mean's sums in the oracle's left-to-right order.
    """
    entities = [f"C{i}" for i in range(1, 12)]
    heads = entities[:3]
    pool_r = entities[:7] + ["C2", "C5", "C2"]
    train = [(str(rng.choice(heads)), "r", str(t)) for t in rng.choice(entities, 12)]
    valid = [(h, "r", "C11") for h in heads] + [("C1", "zero", "C9")]
    tails = ["C2", str(rng.choice(pool_r)), str(rng.choice(pool_r))]
    test = []
    for h, t in zip(rng.choice(heads, 3), tails):
        test += [(str(h), "r", t), (str(rng.choice(heads)), "zero", "C9")]
    pools = {"r": pool_r, "zero": ["C9"]}
    return LinkSplit(train=train, valid=valid, test=test, candidates=pools)


@pytest.mark.parametrize("seed", range(10))
def test_block_report_equals_oracle_and_plain_callable(seed, monkeypatch):
    rng = np.random.default_rng(seed)
    e, names, rels = block_tables(rng)
    fn = embedding_score_fn(e, names, rels, gamma=0.05)
    split = block_instance(rng)
    monkeypatch.setattr(evaluation, "_BLOCK", 2 * 10 * e.dim)  # two rows of pool "r"
    block = ranking_report(split, fn)
    assert block == brute_force_report(split, fn)
    assert block == ranking_report(split, lambda h, r, t: fn(h, r, t))
    assert block.n_queries == 6


def test_duplicated_true_tail_is_not_a_competitor():
    split = LinkSplit(
        train=[("a", "r", "c")], test=[("a", "r", "b")], candidates={"r": list("bcbdc")}
    )
    fn = const_scores({"b": -0.5}, default=-1.0)
    report = ranking_report(split, fn)
    assert report == brute_force_report(split, fn)
    assert (report.raw_mean_rank, report.raw_auc) == (1.0, 1.0)


@pytest.mark.parametrize(
    "triple, symbol",
    [(("X", "r", "C2"), "X"), (("C1", "r", "X"), "X"), (("C1", "s", "C2"), "s")],
)
def test_unknown_symbol_names_it(triple, symbol):
    e, names, rels = block_tables(np.random.default_rng(0))
    fn = embedding_score_fn(e, names, rels, gamma=0.0)
    split = LinkSplit(test=[("C1", "r", "C2"), triple])
    with pytest.raises(EvaluationError, match=repr(symbol)):
        ranking_report(split, fn)


def test_true_tail_missing_from_pool_raises():
    e, names, rels = block_tables(np.random.default_rng(0))
    fn = embedding_score_fn(e, names, rels, gamma=0.0)
    test = [("C1", "r", "C2"), ("C1", "r", "C5")]
    split = LinkSplit(test=test, candidates={"r": ["C2", "C3"]})
    with pytest.raises(EvaluationError, match="'C5' not among candidates"):
        ranking_report(split, fn)


def test_entity_index():
    index = entity_index(["Top", "{P1}", "P2", "{P2}", "{}"])
    assert index["P1"] == index["{P1}"] == 1
    assert index["P2"] == 2 and index["{P2}"] == 3  # a class named P2 keeps its row
    assert index["{}"] == 4 and "" not in index
