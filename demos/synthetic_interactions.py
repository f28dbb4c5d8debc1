"""End-to-end link prediction on a synthetic interaction dataset.

Generates 200 entities organized into functional modules, asserts
interactions densely within modules, turns the data into axioms of the
form {P1} < interacts some {P2} and {P} < hasFunction some F, trains
ball embeddings, and ranks held-out interactions. A Resnik best-match
average baseline over the same annotations is reported for comparison.

Run with: python3 demos/synthetic_interactions.py
"""

from elball.dataio import build_dataset
from elball.evaluation import embedding_score_fn, entity_index, ranking_report
from elball.normalizer import eliminate_abox, normalize
from elball.ontology import parse_ontology
from elball.semsim import build_taxonomy, semsim_score_fn
from elball.synthetic import generate
from elball.trainer import TrainConfig, train


def main():
    ds = generate(seed=0)
    print(f"{len(ds.pair_rows)} interaction pairs, {len(ds.annotation_rows)} annotations")

    onto, split = build_dataset(ds.pair_rows, ds.annotation_rows, seed=0)
    parse_ontology(ds.taxonomy_text, onto)  # merge the function taxonomy
    theory = normalize(eliminate_abox(onto))
    print(f"normalized theory: {theory.counts()}")
    print(f"split sizes: {len(split.train)}/{len(split.valid)}/{len(split.test)} triples")

    cfg = TrainConfig(dim=25, margin=0.1, epochs=2000, batch_size=64, seed=0)
    print(f"\nTraining ball embeddings (dim={cfg.dim}, margin={cfg.margin}) ...")
    e, trace = train(theory, cfg)
    print(f"final minibatch loss: {trace.minibatch[-1]:.2f}")

    cls_idx = entity_index(theory.classes)
    rel_idx = {name: i for i, name in enumerate(theory.relations)}

    emb_report = ranking_report(
        split, embedding_score_fn(e, cls_idx, rel_idx, cfg.margin)
    )
    print("\nBall-embedding ranking over held-out interactions:")
    for key, value in emb_report.to_dict().items():
        print(f"  {key}: {value:.3f}" if isinstance(value, float) else f"  {key}: {value}")

    annotations = {}
    for entity, cls in ds.annotation_rows:
        annotations.setdefault(entity, set()).add(cls)
    index = build_taxonomy(ds.taxonomy_edges, annotations, root="Function")
    sem_report = ranking_report(split, semsim_score_fn(index, "resnik"))
    print("\nResnik best-match-average baseline:")
    for key, value in sem_report.to_dict().items():
        print(f"  {key}: {value:.3f}" if isinstance(value, float) else f"  {key}: {value}")


if __name__ == "__main__":
    main()
