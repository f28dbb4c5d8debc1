"""End-to-end acceptance checks, one printed PASS/FAIL line per criterion.

Each test exercises a headline guarantee of the package: family-domain
convergence, analytic zero-loss embeddings verifying as models, gradient
agreement with finite differences, normalizer goldens plus an independent
subsumption oracle, ranking-metric agreement with a brute-force oracle,
scaled link-prediction sanity on a synthetic interaction dataset,
bitwise determinism, and the semantic-similarity baseline beating chance.
Three known defects are pinned as strict xfails: a verified model that
violates an entailed subsumption (NF4), a trained family embedding that
is a model only within tolerance 0.1, not at 0, and the embedding
trailing the Resnik baseline it should beat.
"""

import sys
import time

import numpy as np
import pytest

from el_oracle import atomic_subsumptions
from test_evaluation import brute_force_report, random_instance
from test_losses import fd_gradient
from test_normalizer import random_ontology

from elball.dataio import build_dataset, save_checkpoint
from elball.embeddings import EmbeddingSet, TOP_RADIUS
from elball.evaluation import (
    embedding_score_fn,
    entity_index,
    ranking_report,
)
from elball.family import family_ontology
from elball.geometry import Ball, check_model, containment_violation
from elball.losses import LossBatch, batch_gradient, batch_loss
from elball.normalizer import (
    NormalizedTheory,
    UnsupportedAxiomError,
    eliminate_abox,
    normalize,
)
from elball.ontology import Vocabulary, class_vocabulary, parse_ontology
from elball.semsim import build_taxonomy, semsim_score_fn
from elball.synthetic import generate
from elball.trainer import TrainConfig, init_embeddings, train


def report(name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{status}] {name}{suffix}", file=sys.__stdout__, flush=True)
    assert ok, f"{name}{suffix}"


# --- shared fixtures ------------------------------------------------------


@pytest.fixture(scope="module")
def family_theory():
    return normalize(eliminate_abox(family_ontology()))


@pytest.fixture(scope="module")
def synthetic_setup():
    ds = generate(seed=0)
    onto, split = build_dataset(ds.pair_rows, ds.annotation_rows, seed=0)
    parse_ontology(ds.taxonomy_text, onto)
    theory = normalize(eliminate_abox(onto))
    cls_idx = entity_index(theory.classes)
    rel_idx = {name: i for i, name in enumerate(theory.relations)}
    return ds, theory, split, cls_idx, rel_idx


SYNTH_CFG = dict(dim=25, margin=0.1, epochs=2000, batch_size=64, seed=0)


# --- family-domain convergence --------------------------------------------


def test_family_domain_convergence(family_theory):
    cfg = TrainConfig(
        dim=2, margin=0.0, epochs=2000, batch_size=16, learning_rate=0.01, seed=42
    )
    start = time.time()
    e, _ = train(family_theory, cfg)
    elapsed = time.time() - start

    result = check_model(family_theory, e, tol=0.1)
    by_form = {}
    for check in result.checks:
        if not check.informational:
            by_form.setdefault(check.form, []).append(check.satisfied)
    forms_ok = all(
        all(by_form.get(form, [True])) for form in ("NF1", "NF2", "NF3", "Bot2")
    )

    female = family_theory.classes.id("Female")
    male = family_theory.classes.id("Male")
    gap = np.linalg.norm(e.class_centers[female] - e.class_centers[male])
    disjoint = gap >= e.class_radii[female] + e.class_radii[male] - 0.1

    report(
        "family-domain convergence (tol 0.1, every axiom form, Female/Male disjoint)",
        forms_ok and disjoint and result.overall and elapsed < 30.0,
        f"{elapsed:.1f}s, max violation {result.max_violation:.4f}",
    )


# --- analytic zero-loss embeddings verify as models -----------------------


def build_zero_loss_instance(rng):
    """Random containment/disjointness theory with an exact zero-loss embedding.

    Classes are pinned to one of two unit-circle anchors; same-anchor
    classes nest by radius (containment axioms), cross-anchor classes are
    far apart (disjointness axioms). Every loss term is exactly zero.
    """
    n = int(rng.integers(2, 6))
    classes = class_vocabulary()
    ids = [classes.intern(f"C{i}") for i in range(n)]
    anchor = rng.integers(2, size=n)

    centers = np.zeros((n + 2, 2))
    radii = np.zeros(n + 2)
    for i, cid in enumerate(ids):
        centers[cid] = (1.0, 0.0) if anchor[i] == 0 else (-1.0, 0.0)
    for side in (0, 1):
        members = [ids[i] for i in range(n) if anchor[i] == side]
        rng.shuffle(members)
        for rank, cid in enumerate(members):
            radii[cid] = 0.05 * (rank + 1)

    nf1, bot2 = [], []
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            ci, cj = ids[i], ids[j]
            if anchor[i] == anchor[j] and radii[ci] < radii[cj] and rng.random() < 0.7:
                nf1.append((ci, cj))
            if anchor[i] != anchor[j] and i < j and rng.random() < 0.7:
                bot2.append((ci, cj))

    theory = NormalizedTheory(
        classes=classes, relations=Vocabulary(), nf1=nf1, bot2=bot2
    )
    e = EmbeddingSet(centers, radii, np.zeros((0, 2)))
    e.class_radii[e.top] = TOP_RADIUS
    return theory, e


def test_zero_loss_embeddings_are_models():
    rng = np.random.default_rng(123)
    ok = True
    for _ in range(50):
        theory, e = build_zero_loss_instance(rng)
        batch = LossBatch.from_theory(theory, gamma=0.0)
        loss = batch_loss(batch, e)
        verdict = check_model(theory, e, tol=0.0)
        if loss != 0.0 or not verdict.overall:
            ok = False
            break
    report("exact zero-loss embeddings satisfy the model checker at tol 0", ok)


# --- gradients match finite differences, per operation --------------------


def _op_batch(op, rng, n_classes, n_relations, gamma):
    c = rng.integers(2, n_classes, size=3)
    r = rng.integers(0, n_relations)
    rows = {
        "nf1": {"nf1": np.array([[c[0], c[1]]])},
        "nf2": {"nf2": np.array([[c[0], c[1], c[2]]])},
        "nf3": {"nf3": np.array([[c[0], r, c[1]]])},
        "nf4": {"nf4": np.array([[r, c[0], c[1]]])},
        "bot1": {"bot1": np.array([c[0]])},
        "bot2": {"bot2": np.array([[c[0], c[1]]])},
        "bot4": {"bot4": np.array([[r, c[0]]])},
        "neg": {"neg": np.array([[c[0], r, c[1]]])},
    }
    return LossBatch(gamma=gamma, **rows[op])


def _kink_margins(op, batch, e):
    """Distances from every non-differentiable point; small values mean resample."""
    g = batch.gamma
    cen, rad, rel = e.class_centers, e.class_radii, e.rel_vectors

    def norms(*ids):
        return [abs(np.linalg.norm(cen[i]) - 1.0) for i in ids]

    if op == "nf1":
        c, d = batch.nf1[0]
        gap = np.linalg.norm(cen[c] - cen[d])
        return [abs(gap + rad[c] - rad[d] - g), gap] + norms(c, d)
    if op == "nf2":
        c, d, ee = batch.nf2[0]
        dcd = np.linalg.norm(cen[c] - cen[d])
        dce = np.linalg.norm(cen[c] - cen[ee])
        dde = np.linalg.norm(cen[d] - cen[ee])
        return [
            abs(dcd - rad[c] - rad[d] - g),
            abs(dce - rad[c] - g),
            abs(dde - rad[c] - g),
            abs(min(rad[c], rad[d]) - rad[ee] - g),
            abs(rad[c] - rad[d]),
            dcd,
            dce,
            dde,
        ] + norms(c, d, ee)
    if op == "nf3":
        c, r, d = batch.nf3[0]
        t = np.linalg.norm(cen[c] + rel[r] - cen[d])
        return [abs(t + rad[c] - rad[d] - g), t] + norms(c, d)
    if op == "nf4":
        r, c, d = batch.nf4[0]
        t = np.linalg.norm(cen[c] - rel[r] - cen[d])
        return [abs(t - rad[c] - rad[d] - g), t] + norms(c, d)
    if op == "bot2":
        c, d = batch.bot2[0]
        gap = np.linalg.norm(cen[c] - cen[d])
        return [abs(rad[c] + rad[d] - gap + g), gap] + norms(c, d)
    if op == "neg":
        c, r, d = batch.neg[0]
        t = np.linalg.norm(cen[c] + rel[r] - cen[d])
        return [abs(rad[c] + rad[d] - t + g), t] + norms(c, d)
    return [1.0]  # bot1/bot4 are linear in the radius


def test_gradients_match_finite_differences_per_op():
    rng = np.random.default_rng(2024)
    n_classes, n_relations, dim = 6, 2, 3
    start = time.time()
    worst = 0.0
    ok = True
    for op in ("nf1", "nf2", "nf3", "nf4", "bot1", "bot2", "bot4", "neg"):
        for _ in range(100):
            for _ in range(50):  # resample away from kinks
                e = EmbeddingSet(
                    rng.uniform(-1.2, 1.2, (n_classes, dim)),
                    rng.uniform(0.05, 0.9, n_classes),
                    rng.uniform(-1.0, 1.0, (n_relations, dim)),
                )
                e.class_radii[e.top] = TOP_RADIUS
                batch = _op_batch(op, rng, n_classes, n_relations, rng.uniform(-0.1, 0.1))
                if min(_kink_margins(op, batch, e)) > 1e-3:
                    break
            analytic = batch_gradient(batch, e)
            numeric = fd_gradient(batch, e, step=1e-5)
            for a, n in (
                (analytic.class_centers, numeric.class_centers),
                (analytic.class_radii, numeric.class_radii),
                (analytic.rel_vectors, numeric.rel_vectors),
            ):
                err = float(np.max(np.abs(a - n) / np.maximum(1.0, np.abs(n))))
                worst = max(worst, err)
                ok = ok and err < 1e-4
    elapsed = time.time() - start
    report(
        "analytic gradients match central finite differences for all 8 loss ops",
        ok and elapsed < 10.0,
        f"worst relative error {worst:.2e}, {elapsed:.1f}s",
    )


# --- normalizer goldens and oracle agreement ------------------------------


def test_normalizer_goldens_and_oracle(family_theory):
    counts_ok = family_theory.counts() == {
        "NF1": 7,
        "NF2": 2,
        "NF3": 1,
        "NF4": 1,
        "Bot1": 0,
        "Bot2": 1,
        "Bot4": 0,
    } and family_theory.fresh == set()

    composed = normalize(parse_ontology("Father and Mother < hasChild some Person"))
    composed_ok = (
        len(composed.fresh) == 1
        and len(composed.nf2) == 1
        and len(composed.nf3) == 1
        and not composed.nf1
        and not composed.nf4
        and not composed.bot1
        and not composed.bot2
        and not composed.bot4
    )

    rng = np.random.default_rng(31)
    oracle_ok = True
    checked = 0
    for _ in range(100):
        onto, class_ids = random_ontology(rng)
        try:
            theory = normalize(onto)
        except UnsupportedAxiomError:
            continue
        if atomic_subsumptions(onto, class_ids) != atomic_subsumptions(
            theory.as_ontology(), class_ids
        ):
            oracle_ok = False
            break
        checked += 1

    report(
        "normalizer goldens and subsumption-oracle agreement",
        counts_ok and composed_ok and oracle_ok and checked >= 60,
        f"{checked} random ontologies cross-checked",
    )


# --- ranking metrics agree with a brute-force oracle ----------------------


def test_metric_oracle_agreement():
    rng = np.random.default_rng(77)
    ok = True
    for _ in range(50):
        n_tails = int(rng.integers(5, 31))
        split, fn = random_instance(rng, n_tails=n_tails, n_queries=5)
        if ranking_report(split, fn) != brute_force_report(split, fn):
            ok = False
            break

    # per-query extremes: unique best -> AUC 1, unique worst -> AUC 0
    from elball.evaluation import LinkSplit

    tails = [f"t{i}" for i in range(8)]
    table_best = {t: -1.0 for t in tails} | {"t0": 0.0}
    table_worst = {t: -1.0 for t in tails} | {"t0": -2.0}

    def fn_for(table):
        return lambda h, r, ts: np.asarray([table[t] for t in ts])

    split = LinkSplit(test=[("a", "r", "t0")], candidates={"r": tails})
    edge_ok = (
        ranking_report(split, fn_for(table_best)).raw_auc == 1.0
        and ranking_report(split, fn_for(table_worst)).raw_auc == 0.0
    )
    report("ranking metrics agree exactly with the brute-force oracle", ok and edge_ok)


# --- scaled link prediction on the synthetic dataset ----------------------


def test_scaled_link_prediction(synthetic_setup):
    _, theory, split, cls_idx, rel_idx = synthetic_setup
    cfg = TrainConfig(**SYNTH_CFG)
    start = time.time()
    e, _ = train(theory, cfg)
    trained = ranking_report(
        split, embedding_score_fn(e, cls_idx, rel_idx, cfg.margin)
    )
    untrained = ranking_report(
        split,
        embedding_score_fn(init_embeddings(theory, cfg), cls_idx, rel_idx, cfg.margin),
    )
    elapsed = time.time() - start
    ok = (
        trained.filtered_auc >= 0.65
        and trained.filtered_auc > untrained.filtered_auc
        and elapsed < 300.0
    )
    report(
        "scaled link prediction beats chance by a wide margin",
        ok,
        f"filtered AUC {trained.filtered_auc:.3f} vs untrained "
        f"{untrained.filtered_auc:.3f}, {elapsed:.1f}s",
    )


# --- determinism ----------------------------------------------------------


def test_bitwise_determinism(synthetic_setup, tmp_path):
    _, theory, split, cls_idx, rel_idx = synthetic_setup
    cfg = TrainConfig(dim=8, margin=0.1, epochs=200, batch_size=32, seed=5)

    checkpoints = []
    reports = []
    for run in range(2):
        e, _ = train(theory, cfg)
        path = tmp_path / f"run{run}.json"
        save_checkpoint(
            path, e, list(theory.classes), list(theory.relations), {"seed": cfg.seed}
        )
        checkpoints.append(path.read_bytes())
        reports.append(
            ranking_report(split, embedding_score_fn(e, cls_idx, rel_idx, cfg.margin))
        )
    report(
        "identical config and seed give bitwise-identical checkpoints and reports",
        checkpoints[0] == checkpoints[1] and reports[0] == reports[1],
    )


# --- semantic-similarity baseline beats chance ----------------------------


def test_semsim_baseline_beats_chance(synthetic_setup):
    ds, _, split, _, _ = synthetic_setup
    annotations = {}
    for entity, cls in ds.annotation_rows:
        annotations.setdefault(entity, set()).add(cls)
    index = build_taxonomy(ds.taxonomy_edges, annotations, root="Function")
    result = ranking_report(split, semsim_score_fn(index, "resnik"))
    report(
        "Resnik best-match-average ranking beats chance on the synthetic dataset",
        result.filtered_auc > 0.5,
        f"filtered AUC {result.filtered_auc:.3f}",
    )


# --- known defects, pinned as strict xfails --------------------------------


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="NF4 soundness: check_model treats NF4 as informational and the NF4 loss is the "
    "overlap hinge, so a verified model can leave A outside D although A < D is entailed",
)
def test_verified_model_satisfies_entailed_subsumptions():
    onto = parse_ontology("A < r some C\nr some C < D\nB < D\n")
    theory = normalize(onto)
    ids = [theory.classes.id(name) for name in "ABCD"]
    entailed = atomic_subsumptions(onto, ids) - {(c, c) for c in ids}
    told = set(theory.nf1)
    for seed in range(10):
        cfg = TrainConfig(dim=2, margin=0.0, epochs=3000, batch_size=8, seed=seed)
        e, _ = train(theory, cfg)
        if not check_model(theory, e, tol=0.1).overall:
            continue
        for c, d in entailed:
            # A < D takes two axioms to derive; the told B < D takes one
            length = 1 if (c, d) in told else 2
            inner = Ball(e.class_centers[c], float(e.class_radii[c]))
            outer = Ball(e.class_centers[d], float(e.class_radii[d]))
            violation = containment_violation(inner, outer)
            assert violation <= 0.1 * length, (
                f"seed {seed}: verified model violates entailed "
                f"{theory.classes.name(c)} < {theory.classes.name(d)} by {violation:.3f}"
            )


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="a near-model, not a model: training the family KB at margin 0 leaves two NF1 and "
    "two NF2 axioms violated, by at most 0.0121; the same run passes at tol 0.1",
)
def test_trained_family_embedding_is_a_model_at_tol_zero(family_theory):
    cfg = TrainConfig(dim=2, margin=0.0, epochs=2000, batch_size=16, learning_rate=0.01, seed=0)
    e, _ = train(family_theory, cfg)
    result = check_model(family_theory, e, tol=0.0)
    assert result.overall, f"max violation {result.max_violation:.4f} at tol 0"


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="the embedding trails the Resnik BMA baseline the paper says it beats "
    "(filtered AUC 0.775 vs 0.867 on this fixture)",
)
def test_embedding_beats_resnik(synthetic_setup):
    ds, theory, split, cls_idx, rel_idx = synthetic_setup
    cfg = TrainConfig(**SYNTH_CFG)
    e, _ = train(theory, cfg)
    embedding = ranking_report(split, embedding_score_fn(e, cls_idx, rel_idx, cfg.margin))
    annotations = {}
    for entity, cls in ds.annotation_rows:
        annotations.setdefault(entity, set()).add(cls)
    index = build_taxonomy(ds.taxonomy_edges, annotations, root="Function")
    resnik = ranking_report(split, semsim_score_fn(index, "resnik"))
    assert embedding.filtered_auc >= resnik.filtered_auc, (
        f"embedding {embedding.filtered_auc:.3f} < Resnik {resnik.filtered_auc:.3f}"
    )
