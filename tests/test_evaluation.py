import copy
import dataclasses
import math
import re
import warnings
from collections import Counter

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
    ranking_report,
)
from elball.semsim import build_taxonomy, semsim_score_fn


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


def rank_one(true_tail, candidates, fn, exclude=()):
    """The filtered rank and filtered pool size of the query (a, r, true_tail),
    from single-query reports; the tails in ``exclude`` are known train tails.
    A score that puts the true tail last ranks it at the pool size."""
    split = LinkSplit(
        train=[("a", "r", t) for t in exclude],
        test=[("a", "r", true_tail)],
        candidates={"r": list(candidates)},
    )
    last = const_scores({true_tail: -math.inf})
    return ranking_report(split, fn).filtered_mean_rank, ranking_report(split, last).filtered_mean_rank


class TestRankQuery:
    """Ranking one query, through single-query reports."""

    def test_unique_max_is_rank_one(self):
        fn = const_scores({"b": -0.1}, default=-1.0)
        assert rank_one("b", "bcdef", fn) == (1, 5)

    def test_all_ties_rank_worst(self):
        tails = [f"t{i}" for i in range(10)]
        assert rank_one("t0", tails, const_scores({}, default=0.0)) == (10, 10)

    def test_exclusion_drops_competitors(self):
        fn = const_scores({"b": -0.5}, default=0.0)
        assert rank_one("b", "bcd", fn)[0] == 3
        assert rank_one("b", "bcd", fn, exclude={"c", "d"}) == (1, 1)

    def test_true_tail_never_excluded(self):
        assert rank_one("b", "bc", const_scores({}), exclude={"b"}) == (2, 2)

    def test_true_tail_must_be_candidate(self):
        with pytest.raises(EvaluationError):
            rank_one("z", "bcd", const_scores({}))


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


def filter_instance(rng):
    """A split whose filter meets: test heads absent from train (h3, h4), a key
    known only through valid (h3, s), duplicate train triples, a tail known for
    one query that is another query's true tail, and two relations. Pool "r" is
    given, pool "s" derived; at most seven queries keep np.mean's sums in the
    oracle's left-to-right order."""
    tails = [f"t{i}" for i in range(8)]

    def pick(heads):
        return str(rng.choice(heads)), str(rng.choice(["r", "s"])), str(rng.choice(tails))

    train = [pick(["h0", "h1", "h2"]) for _ in range(10)]
    train += train[:3]
    valid = [("h3", "s", str(rng.choice(tails))), pick(["h0", "h1", "h2"])]
    h, r, t = train[0]
    other = "h1" if h == "h0" else "h0"
    test = [(other, r, t), (h, r, str(rng.choice(tails))), ("h3", "s", str(rng.choice(tails))),
            pick(["h4"])]
    test += [x for x in (pick(["h0", "h1", "h2", "h3", "h4"]) for _ in range(3))
             if x not in train and x not in valid]
    test = [test[i] for i in rng.permutation(len(test))]
    table = {(h, r, t): float(np.round(rng.normal(0, 1), 1))  # rounding forces ties
             for h in ("h0", "h1", "h2", "h3", "h4") for r in "rs" for t in tails}

    def fn(head, rel, ts):
        return np.asarray([table[head, rel, t] for t in ts])

    return train, valid, test, tails, fn


@pytest.mark.parametrize("seed", range(20))
def test_oracle_agreement_on_every_prefix_of_the_queries(seed):
    train, valid, test, tails, fn = filter_instance(np.random.default_rng(seed))
    assert len(test) <= 7
    for k in range(1, len(test) + 1):
        split = LinkSplit(train=train, valid=valid, test=test[:k], candidates={"r": tails})
        assert ranking_report(split, fn) == brute_force_report(split, fn)


@pytest.mark.parametrize("seed", range(10))
def test_oracle_agreement_when_heads_share_their_known_tails(seed):
    # the filter's positions are found once per head and taken out per query:
    # heads with several queries, known tails listed twice in the pool, and a
    # true tail also known for its own head
    split, fn = random_instance(np.random.default_rng(seed), n_tails=10, n_queries=7)
    split.candidates["r"] += split.candidates["r"][::3]
    split.train.append(split.test[0])
    assert len(set(h for h, _, _ in split.test)) < len(split.test)
    assert ranking_report(split, fn) == brute_force_report(split, fn)


def wide_pool_instance():
    """2^16 + 3 pool positions over tails C1..C(2^16 + 1), so a row's count needs
    32 bits: head C1's true tail C2 is listed twice more and is also known for C1.
    Head C1 ties with every tail, so its raw rank is the whole pool."""
    n = (1 << 16) + 2
    names = [f"C{i}" for i in range(n)]
    pool = names[1:] + ["C2", "C2"]
    test = [("C1", "r", "C2"), ("C1", "r", "C9"), ("C3", "r", "C2"), ("C4", "r", f"C{n - 1}")]
    train = [("C1", "r", "C2"), ("C1", "r", "C5"), ("C3", "r", "C9")]
    return LinkSplit(train=train, test=test, candidates={"r": pool}), names


@pytest.mark.parametrize("scorer", ["embedding", "ties"])
def test_oracle_agreement_on_a_pool_too_wide_for_16_bit_counts(scorer):
    rng = np.random.default_rng(4)
    split, names = wide_pool_instance()
    assert len(split.candidates["r"]) == (1 << 16) + 3
    if scorer == "embedding":
        n = len(names)
        radii = rng.uniform(0, 0.5, n)
        radii[1] = 1e6  # C1's ball holds every tail: all score 0
        e = embed(rng.normal(0, 1, (n, 2)), radii, rng.normal(0, 1, (1, 2)))
        fn = embedding_score_fn(e, {name: i for i, name in enumerate(names)}, {"r": 0}, gamma=0.1)
        rows = {h: dict(zip(names, fn(h, "r", names))) for h, _, _ in split.test}
        exact = lambda h, r, ts: np.asarray([rows[h][t] for t in ts])  # fn's own rows, per tail
    else:
        table = {h: dict(zip(names, rng.integers(0, 3, len(names)).astype(float)))
                 for h, _, _ in split.test}
        table["C1"] = dict.fromkeys(names, 0.0)
        fn = exact = lambda h, r, ts: np.asarray([table[h][t] for t in ts])
    report = ranking_report(split, fn)
    assert report == brute_force_report(split, exact)
    assert report.raw_mean_rank > (1 << 16) / len(split.test)  # C1's first query ranks last


def test_filtered_never_worse_than_raw(rng):
    for _ in range(20):
        split, fn = random_instance(rng)
        report = ranking_report(split, fn)
        assert report.filtered_mean_rank <= report.raw_mean_rank


# --- exact scoring ----------------------------------------------------------


def block_tables(rng, n=12, dim=5):
    """Seeded tables whose radii clip many scores to zero; row 0 is Top, relation 1 is zero."""
    rels = np.vstack([rng.normal(0, 1, (1, dim)), np.zeros((1, dim))])
    e = embed(rng.normal(0, 1, (n, dim)), rng.uniform(0, 1.5, n), rels)
    return e, {f"C{i}": i for i in range(n)}, {"r": 0, "zero": 1}


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("rel", ["r", "zero"])
def test_block_rows_equal_call_bitwise(seed, rel):
    rng = np.random.default_rng(seed)
    e, names, rels = block_tables(rng)
    fn = embedding_score_fn(e, names, rels, gamma=0.05)
    heads = [f"C{i}" for i in rng.integers(0, 12, 9)] + ["C0"]
    tails = [f"C{i}" for i in rng.permutation(12)] + ["C3", "C0"]
    with np.errstate(over="ignore"):  # Top against Top: -TOP_RADIUS - TOP_RADIUS
        got = np.stack([fn(h, rel, tails) for h in heads])
        C, rad, R = e.class_centers, e.class_radii, e.rel_vectors
        t = [names[x] for x in tails]
        printed = np.stack([  # the printed score, through np.linalg.norm per head
            -np.maximum(0.0, np.linalg.norm(C[names[h]] + R[rels[rel]] - C[t], axis=-1)
                        - rad[names[h]] - rad[t] - 0.05)
            for h in heads
        ])
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


def test_a_derived_pool_follows_the_split_it_was_derived_from():
    split = LinkSplit(train=[("a", "r", "b"), ("a", "r", "c")], test=[("a", "r", "c")])
    fn = const_scores({"c": -0.5}, default=-1.0)
    ranking_report(split, fn)
    split.test.append(("b", "r", "d"))
    assert ranking_report(split, fn) == brute_force_report(LinkSplit(split.train, [], split.test), fn)


@pytest.mark.parametrize(
    "row, shape",
    [(lambda n: 0.5, "()"), (lambda n: np.zeros(n - 1), "(4,)"),
     (lambda n: list(range(n + 1)), "(6,)"), (lambda n: np.zeros((1, n)), "(1, 5)")],
    ids=["scalar", "short", "long", "2-d"],
)
def test_a_malformed_score_row_is_refused(row, shape):
    split = LinkSplit(test=[("a", "r", "b")], candidates={"r": list("bcdef")})
    message = f"gave shape {shape} for head 'a' and relation 'r', not (5,)"
    with pytest.raises(EvaluationError, match=re.escape(message)):
        ranking_report(split, lambda h, r, tails: row(len(tails)))


# --- plans kept on the split ------------------------------------------------

MEMO_SCORES = const_scores({f"t{i}": float(6 - i) for i in range(6)} | {"t6": 7.0})


def memo_split():
    """Pool "r" derived, [t0, t1, t4, t5, t3]; pool "s" given. (h, r, t3) ranks 3rd raw and
    1st filtered; (g, s, t2) ranks 3rd both ways. Each edit below changes the report."""
    return LinkSplit(
        train=[("h", "r", "t0"), ("h", "r", "t1"), ("g", "r", "t4")],
        valid=[("g", "r", "t5")],
        test=[("h", "r", "t3"), ("g", "s", "t2")],
        candidates={"s": ["t0", "t1", "t2", "t3"]},
    )


def _set(items, i, value):
    items[i] = value


MEMO_EDITS = {
    "append to train": lambda s: s.train.append(("g", "s", "t0")),
    "replace a train triple": lambda s: _set(s.train, 0, ("x", "r", "t0")),
    "append to valid": lambda s: s.valid.append(("g", "s", "t1")),
    "replace a valid triple": lambda s: _set(s.valid, 0, ("g", "s", "t1")),
    "append to test": lambda s: s.test.append(("h", "r", "t6")),
    "replace a test triple": lambda s: _set(s.test, 0, ("h", "r", "t4")),
    "extend a given pool in place": lambda s: s.candidates["s"].extend(["t6"]),
    "add a pool": lambda s: _set(s.candidates, "r", ["t3", "t0"]),
    "replace a pool": lambda s: _set(s.candidates, "s", ["t2", "t3"]),
    "drop a given pool": lambda s: s.candidates.pop("s"),
}


@pytest.mark.parametrize("edit", list(MEMO_EDITS))
def test_a_report_after_an_edit_in_place_follows_the_edit(edit):
    split = memo_split()
    before = ranking_report(split, MEMO_SCORES)
    assert before == brute_force_report(memo_split(), MEMO_SCORES)
    MEMO_EDITS[edit](split)
    # the oracle stores the pools it derives, so it reads a copy of the edited split
    expect = brute_force_report(dataclasses.replace(split, candidates=dict(split.candidates)), MEMO_SCORES)
    assert expect != before
    assert ranking_report(split, MEMO_SCORES) == expect
    assert ranking_report(split, MEMO_SCORES) == expect


class Watched(list):
    """A list that counts the times it is iterated."""

    iterations = 0

    def __iter__(self):
        self.iterations += 1
        return super().__iter__()


def test_an_equal_pool_given_later_keeps_the_plans():
    split = memo_split()
    ranking_report(split, MEMO_SCORES)
    split.candidate_tails("r")  # the derived pool, now given
    split.train = Watched(split.train)
    ranking_report(split, MEMO_SCORES)
    assert split.train.iterations == 0


@pytest.mark.parametrize("kind", [tuple, np.array])
def test_a_given_pool_of_another_sequence_type_is_compared_as_a_list(kind):
    split = memo_split()
    split.candidates["s"] = kind(split.candidates["s"])
    first = ranking_report(split, MEMO_SCORES)
    assert first == brute_force_report(memo_split(), MEMO_SCORES)
    split.train = Watched(split.train)
    assert ranking_report(split, MEMO_SCORES) == first
    assert split.train.iterations == 0


@pytest.mark.parametrize("seed", range(5))
def test_two_scorers_on_one_split_equal_fresh_splits(seed):
    rng = np.random.default_rng(seed)
    e, names, rels = block_tables(rng)
    embedding = embedding_score_fn(e, names, rels, gamma=0.05)
    split = block_instance(rng)
    table = {(h, t): float(rng.integers(0, 3)) for h in names for t in names}  # tie-heavy
    plain = lambda h, r, ts: np.asarray([table[h, t] for t in ts])  # noqa: E731
    fresh = {fn: ranking_report(copy.deepcopy(split), fn) for fn in (embedding, plain)}
    for fn in (embedding, plain, plain, embedding, plain):
        assert ranking_report(split, fn) == fresh[fn]
    assert fresh[embedding] != fresh[plain]


def test_the_plans_are_not_part_of_the_split():
    split, twin = memo_split(), memo_split()
    ranking_report(split, MEMO_SCORES)
    assert split == twin
    assert repr(split) == repr(twin)
    assert dataclasses.asdict(split) == dataclasses.asdict(twin)
    assert vars(dataclasses.replace(split)).keys() == vars(twin).keys()


def test_a_warm_report_does_not_read_the_triples():
    split = memo_split()
    split.train, split.valid = Watched(split.train), Watched(split.valid)
    first = ranking_report(split, MEMO_SCORES)
    assert split.train.iterations > 0 and split.valid.iterations > 0
    split.train.iterations = split.valid.iterations = 0
    assert ranking_report(split, MEMO_SCORES) == first
    assert split.train.iterations == split.valid.iterations == 0


def test_a_planned_derived_pool_is_copied_without_reading_the_triples():
    split = memo_split()
    ranking_report(split, MEMO_SCORES)
    split.train, split.valid, split.test = Watched(split.train), Watched(split.valid), Watched(split.test)
    pool = split.candidate_tails("r")
    assert pool == ["t0", "t1", "t4", "t5", "t3"]
    assert split.train.iterations == split.valid.iterations == split.test.iterations == 0
    pool.append("t6")  # a given pool from now on, which the plans must not share
    expect = brute_force_report(dataclasses.replace(split, candidates=dict(split.candidates)), MEMO_SCORES)
    assert ranking_report(split, MEMO_SCORES) == expect


def test_a_derived_pool_after_an_edit_in_place_is_derived_afresh():
    split = memo_split()
    ranking_report(split, MEMO_SCORES)
    split.train.append(("h", "r", "t6"))
    assert split.candidate_tails("r") == ["t0", "t1", "t4", "t6", "t5", "t3"]


def test_entity_index():
    index = entity_index(["Top", "{P1}", "P2", "{P2}", "{}"])
    assert index["P1"] == index["{P1}"] == 1
    assert index["P2"] == 2 and index["{P2}"] == 3  # a class named P2 keeps its row
    assert index["{}"] == 4 and "" not in index


# --- one score row per (head, relation) -------------------------------------

POOL = [f"t{i}" for i in range(9)]


def shared_head_splits():
    """Splits whose heads repeat, at most seven queries each (see ``block_instance``)."""
    return {
        "straddle": LinkSplit(  # a's five queries and b's one share a block of two rows
            train=[("a", "r", "t1"), ("a", "r", "t2"), ("b", "r", "t0")],
            valid=[("c", "r", "t8")],
            test=[("a", "r", "t0"), ("b", "r", "t3"), ("a", "r", "t3"), ("a", "r", "t4"),
                  ("c", "r", "t5"), ("a", "r", "t5"), ("a", "r", "t6")],
            candidates={"r": POOL},
        ),
        "two relations": LinkSplit(
            train=[("a", "r", "t1"), ("a", "s", "t2"), ("a", "s", "t3")],
            valid=[("b", "s", "t1")],
            test=[("a", "r", "t0"), ("a", "s", "t0"), ("b", "s", "t4"), ("a", "s", "t1"),
                  ("a", "r", "t2")],
            candidates={"r": POOL, "s": POOL[:6]},
        ),
        "duplicate true tail": LinkSplit(
            train=[("a", "r", "t2"), ("b", "r", "t3")],
            test=[("a", "r", "t1"), ("b", "r", "t2"), ("a", "r", "t3"), ("b", "r", "t1")],
            candidates={"r": ["t1", "t0", "t2", "t1", "t3", "t2"]},
        ),
    }


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("case", list(shared_head_splits()))
def test_one_score_call_per_head_and_relation(case, seed, monkeypatch):
    split = shared_head_splits()[case]
    monkeypatch.setattr(evaluation, "_BLOCK", 2 * len(POOL))  # two rows, two compared queries
    rng = np.random.default_rng(seed)
    table = {(h, r, t): float(np.round(rng.normal(0, 1), 1))  # rounding forces ties
             for h in "abc" for r in "rs" for t in POOL}
    calls = Counter()

    def fn(head, rel, tails):
        calls[head, rel] += 1
        return np.asarray([table[head, rel, t] for t in tails])

    report = ranking_report(split, fn)
    assert calls == Counter({(h, r): 1 for h, r, _ in split.test})
    assert report == brute_force_report(split, fn)


def dyadic_instance(rng):
    """Forty queries over five heads of C1..C17 and two relations. Every raw and
    filtered pool holds 2^k + 1 tails (17, 9, 5, 3 or 1), so each AUC is a
    multiple of 1/16 and summing them in any order gives the same float."""
    pools = {"r": [f"C{i}" for i in range(1, 18)], "zero": [f"C{i}" for i in range(1, 10)]}
    known_sizes = {"r": (0, 8, 12, 14), "zero": (0, 4, 6, 8)}
    known, train, valid, test = {}, [], [], []
    for h in [f"C{i}" for i in range(1, 6)]:
        for r, pool in pools.items():
            known[h, r] = set(rng.choice(pool, rng.choice(known_sizes[r]), replace=False))
            for t in sorted(known[h, r]):
                (train if rng.random() < 0.7 else valid).append((h, r, t))
    keys = sorted(known)
    for i in rng.integers(len(keys), size=40):
        h, r = keys[i]
        test.append((h, r, str(rng.choice([t for t in pools[r] if t not in known[h, r]]))))
    return LinkSplit(train=train, valid=valid, test=test, candidates=pools)


def resnik_scorer(rng):
    """A Resnik BMA over a random eight-class tree; C17 is unannotated and scores -inf."""
    classes = [f"F{i}" for i in range(8)]
    edges = [(c, str(rng.choice(["Top"] + classes[:i]))) for i, c in enumerate(classes)]
    annotations = {f"C{i}": set(rng.choice(classes, rng.integers(1, 4))) for i in range(1, 17)}
    return semsim_score_fn(build_taxonomy(edges, annotations, root="Top"))


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("scorer", ["embedding", "resnik"])
def test_report_is_equal_under_any_order_of_the_test_queries(scorer, seed, monkeypatch):
    rng = np.random.default_rng(seed)
    if scorer == "embedding":
        fn = embedding_score_fn(*block_tables(rng, n=18), gamma=0.05)
    else:
        fn = resnik_scorer(rng)
    split = dyadic_instance(rng)
    monkeypatch.setattr(evaluation, "_BLOCK", 2 * 17 * 5)  # two embedding rows of pool "r"
    report = ranking_report(split, fn)
    assert report == brute_force_report(split, fn)
    for _ in range(10):
        test = [split.test[q] for q in rng.permutation(len(split.test))]
        shuffled = LinkSplit(split.train, split.valid, test, split.candidates)
        assert ranking_report(shuffled, fn) == report


# --- the screened rank path -------------------------------------------------

SCREEN_KINDS = ["random", "far", "cancel", "edges"]


def screen_instance(kind, seed, dim=9, n=30):
    """Tables of one kind, with distinct heads, a pool with repeated names and
    queries (row, col) over them, ``row`` sorted. Row 0 is Top and is left out.

    random: seeded centers, radii and relation. far: centers of norm ~1e4 that
    lie 1e-6 apart, with tiny radii, a zero relation and gamma 0. cancel: the relation
    cancels head C1's center. edges: class C2 duplicates C1, C3's radius puts
    its head's queries on the zero plateau, and C7 and C8 are placed so their
    arguments against head C4 land at C4's first query's T and at 0. Head C5
    asks for C1, which scores below 0 and ties with C2 and C1's other copies.
    """
    rng = np.random.default_rng(seed)
    centers = rng.normal(0, 1, (n, dim))
    radii = rng.uniform(0, 1.5, n)
    rel = rng.normal(0, 1, dim)
    if kind == "far":
        base = rng.normal(0, 1, dim)
        centers = 1e4 * base / np.linalg.norm(base) + rng.normal(0, 1e-6, (n, dim))
        radii, rel = rng.uniform(0, 2e-6, n), np.zeros(dim)
    elif kind == "cancel":
        rel = -centers[1]
    elif kind == "edges":
        radii[1] = 0.0
        centers[2], radii[2], radii[3] = centers[1], radii[1], 6.0
    names = [f"C{i}" for i in range(1, n)]
    pool = names + ["C1", "C5", "C1"]
    heads = names[:12]
    row = np.sort(np.concatenate([np.arange(len(heads)), rng.integers(0, len(heads), 10)]))
    col = rng.integers(0, len(names), len(row))
    col[row == 0] = 0  # head C1 against true tail C1, tied with C2
    gamma = 0.0 if kind == "far" else 0.05
    if kind == "edges":
        col[row == 3], col[row == 4] = 5, 0  # heads C4 and C5 ask for C6 and C1
        moved = centers[4] + rel
        gap = np.linalg.norm(moved - centers[[6, 7, 8]], axis=-1)
        T = max(0.0, gap[0] - radii[4] - radii[6] - gamma)
        radii[7] = gap[1] - radii[4] - gamma - T
        radii[8] = gap[2] - radii[4] - gamma
    e = embed(centers, radii, rel[None])
    fn = embedding_score_fn(e, {f"C{i}": i for i in range(n)}, {"r": 0}, gamma)
    return fn, heads, pool, row, col


def exact_scores(fn, heads, pool):
    return np.stack([fn(h, "r", pool) for h in heads])


def exact_ahead(fn, heads, pool, row, col):
    scores = exact_scores(fn, heads, pool)
    return scores[row] >= scores[row, col, None]


def screened_ahead(fn, heads, pool, row, col):
    runs = list(fn.ahead(heads, "r", pool, row, col))
    assert [start for start, _, _ in runs] == [0] + [stop for _, stop, _ in runs[:-1]]
    return np.vstack([ahead for _, _, ahead in runs])


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("kind", SCREEN_KINDS)
@pytest.mark.parametrize("dim", [3, 9, 25])
def test_screen_error_is_within_its_bound(kind, seed, dim, monkeypatch):
    fn, heads, pool, row, col = screen_instance(kind, seed, dim)
    moved, rh, centers, rt = fn._gather(heads, "r", pool)
    monkeypatch.setattr(evaluation, "_BLOCK", len(pool))  # one head a block: E is E_h
    runs = evaluation._screen(moved, rh, centers, rt, fn.gamma, np.arange(len(heads)))
    for h, (start, stop, a, bound) in enumerate(runs):
        assert (start, stop) == (h, h + 1)
        exact = evaluation._args(moved[h], rh[h], centers, rt, fn.gamma)
        error = np.abs(a[0] - rh[h] - fn.gamma - exact)
        assert error.max() <= bound, (kind, h)
        assert bound < 1e-6 * (1 + np.abs(moved[h]).sum() + np.abs(centers).sum(1).max())


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("kind", SCREEN_KINDS)
@pytest.mark.parametrize("block", [1, 7, 1 << 18])
def test_screened_ahead_equals_exact_comparisons(kind, seed, block, monkeypatch):
    fn, heads, pool, row, col = screen_instance(kind, seed, dim=9)
    monkeypatch.setattr(evaluation, "_BLOCK", block * len(pool))  # head rows and queries a block
    got = screened_ahead(fn, heads, pool, row, col)
    want = exact_ahead(fn, heads, pool, row, col)
    assert np.array_equal(got, want)
    scores = exact_scores(fn, heads, pool)
    true = scores[row, col]
    if kind == "edges":  # exact ties at T > 0, and the zero plateau, are met
        tied = want & (scores[row] == true[:, None])
        tied[np.arange(len(row)), col] = False
        assert (tied & (true < 0)[:, None]).sum(1).max() >= 3
        assert ((true == 0) & (want.sum(1) > 3)).any()


@pytest.mark.parametrize("dim", [1, 5, 8, 9, 16, 25, 33, 100])
def test_band_recompute_equals_block_bitwise(dim):
    fn, heads, pool, row, col = screen_instance("random", dim, dim)
    moved, rh, centers, rt = fn._gather(heads, "r", pool)
    rng = np.random.default_rng(dim)
    g, j = rng.integers(0, len(heads), 200), rng.integers(0, len(pool), 200)
    got = -np.maximum(0.0, evaluation._args(moved[g], rh[g], centers[j], rt[j], fn.gamma))
    want = exact_scores(fn, heads, pool)[g, j]
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def special_split(case):
    """A split over block_tables(n=12) with Top (C0) or a non-finite center row among
    the heads, the true tails and the pool."""
    e, names, rels = block_tables(np.random.default_rng(3), n=12)
    if case == "nan center":
        e.class_centers[4, 2] = np.nan
    elif case == "inf center":
        e.class_centers[4] = np.inf
        e.class_centers[5, 0] = -np.inf
    heads = ["C0", "C1", "C4", "C5", "C6"] if case != "top tail" else ["C1", "C4", "C6"]
    pool = [f"C{i}" for i in range(12)] if case != "top head" else [f"C{i}" for i in range(1, 12)]
    test = [(h, "r", t) for h in heads for t in ("C0", "C4", "C5", "C7") if t in pool]
    fn = embedding_score_fn(e, names, rels, gamma=0.05)
    return LinkSplit(train=[("C1", "r", "C7")], test=test, candidates={"r": pool}), fn


@pytest.mark.parametrize("case", ["top head", "top tail", "top both", "nan center", "inf center"])
def test_top_and_non_finite_rows_rank_as_exact_scores(case):
    split, fn = special_split(case)

    def report(score_fn):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            return ranking_report(split, score_fn), {(w.category, str(w.message)) for w in caught}

    exact, exact_warnings = report(lambda h, r, t: fn(h, r, t))  # stacked exact rows
    screened, screened_warnings = report(fn)
    assert screened == exact
    assert screened_warnings <= exact_warnings


def test_screen_takes_several_heads_of_a_wide_pool():
    rng = np.random.default_rng(8)
    n, dim = evaluation._WIDE_POOL + 2, 9
    e = embed(rng.normal(0, 1, (n, dim)), rng.uniform(0, 1.5, n), rng.normal(0, 1, (1, dim)))
    fn = embedding_score_fn(e, {f"C{i}": i for i in range(n)}, {"r": 0}, gamma=0.1)
    heads, pool = [f"C{i}" for i in range(1, 41)], [f"C{i}" for i in range(1, n)]
    row, col = np.arange(len(heads)), rng.integers(0, len(pool), len(heads))
    moved, rh, centers, rt = fn._gather(heads, "r", pool)
    blocks = {len(a) for _, _, a, _ in evaluation._screen(moved, rh, centers, rt, fn.gamma, row)}
    assert blocks == {evaluation._SCREEN_HEADS, len(heads) % evaluation._SCREEN_HEADS}
    assert np.array_equal(screened_ahead(fn, heads, pool, row, col), exact_ahead(fn, heads, pool, row, col))


def test_screen_equals_exact_comparisons_on_a_threaded_blas_size():
    # a product this size runs on several threads when the BLAS has them
    rng = np.random.default_rng(7)
    n, dim = 2001, 25
    e = embed(rng.normal(0, 1, (n, dim)), rng.uniform(0, 1.5, n), rng.normal(0, 1, (1, dim)))
    fn = embedding_score_fn(e, {f"C{i}": i for i in range(n)}, {"r": 0}, gamma=0.1)
    heads, pool = [f"C{i}" for i in range(1, 401)], [f"C{i}" for i in range(1, n)]
    row, col = np.arange(len(heads)), rng.integers(0, len(pool), len(heads))
    assert np.array_equal(screened_ahead(fn, heads, pool, row, col), exact_ahead(fn, heads, pool, row, col))
