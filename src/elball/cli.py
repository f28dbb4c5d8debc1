"""Command-line entry point: normalize, train, check, evaluate, semsim, ingest, export2d."""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import dataio, semsim
from .dataio import Checkpoint, load_checkpoint, save_checkpoint
from .embeddings import EmbeddingSet, TOP_RADIUS
from .evaluation import embedding_score_fn, ranking_report
from .geometry import check_model
from .normalizer import NormalizedTheory, eliminate_abox, normalize
from .ontology import format_axiom, parse_ontology
from .trainer import TrainConfig, train


def _load_theory(path: str) -> NormalizedTheory:
    with open(path) as fh:
        onto = parse_ontology(fh.read())
    return normalize(eliminate_abox(onto))


def _write_out(text: str, out: str | None) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def align_embeddings(ckpt: Checkpoint, theory: NormalizedTheory) -> EmbeddingSet:
    """Reindex checkpoint tables to the theory's vocabulary handles."""
    cls_index = ckpt.class_index
    rel_index = ckpt.relation_index
    dim = ckpt.embeddings.dim
    centers = np.zeros((len(theory.classes), dim))
    radii = np.zeros(len(theory.classes))
    for cid, name in enumerate(theory.classes):
        if name not in cls_index:
            raise dataio.CheckpointError(f"checkpoint has no embedding for class {name!r}")
        src = cls_index[name]
        centers[cid] = ckpt.embeddings.class_centers[src]
        radii[cid] = ckpt.embeddings.class_radii[src]
    rels = np.zeros((len(theory.relations), dim))
    for rid, name in enumerate(theory.relations):
        if name not in rel_index:
            raise dataio.CheckpointError(f"checkpoint has no embedding for relation {name!r}")
        rels[rid] = ckpt.embeddings.rel_vectors[rel_index[name]]
    top = theory.classes.id("Top")
    radii[top] = TOP_RADIUS
    return EmbeddingSet(centers, radii, rels, top=top, bot=theory.classes.id("Bot"))


def cmd_normalize(args) -> int:
    theory = _load_theory(args.input)
    onto = theory.as_ontology()
    counts = theory.counts()
    lines = []
    offset = 0
    formatted = [format_axiom(a, onto) for a in onto.axioms]
    for name in ("NF1", "NF2", "NF3", "NF4", "Bot1", "Bot2", "Bot4"):
        lines.append(f"# {name}")
        lines.extend(formatted[offset : offset + counts[name]])
        offset += counts[name]
    _write_out("\n".join(lines) + "\n", args.out)
    return 0


def cmd_train(args) -> int:
    theory = _load_theory(args.theory)
    cfg = TrainConfig(
        dim=args.dim,
        margin=args.margin,
        epochs=args.epochs,
        batch_size=args.batch,
        learning_rate=args.lr,
        seed=args.seed,
        negatives_per_positive=args.neg_per_pos,
        steps_per_epoch=args.steps_per_epoch,
        neg_mode=args.neg_mode,
        eval_every=args.eval_every,
    )
    e, trace = train(theory, cfg)
    metadata = {
        "margin": cfg.margin,
        "seed": cfg.seed,
        "epochs": cfg.epochs,
        "loss_trace_tail": trace.minibatch[-10:],
    }
    save_checkpoint(args.out, e, list(theory.classes), list(theory.relations), metadata)
    if trace.minibatch:
        print(f"final minibatch loss: {trace.minibatch[-1]:.6f}", file=sys.stderr)
    return 0


def cmd_check(args) -> int:
    theory = _load_theory(args.theory)
    ckpt = load_checkpoint(args.ckpt)
    e = align_embeddings(ckpt, theory)
    report = check_model(theory, e, args.tol)
    _write_out(json.dumps(report.to_dict(), indent=1) + "\n", args.out)
    return 0 if report.overall else 1


def cmd_evaluate(args) -> int:
    ckpt = load_checkpoint(args.ckpt)
    split = dataio.read_split(args.split)
    if args.relation is not None:
        for name in ("train", "valid", "test"):
            setattr(split, name, [t for t in getattr(split, name) if t[1] == args.relation])
    gamma = args.gamma if args.gamma is not None else ckpt.metadata.get("margin", 0.0)
    score_fn = embedding_score_fn(
        ckpt.embeddings, ckpt.entity_index(), ckpt.relation_index, gamma
    )
    report = ranking_report(split, score_fn)
    _write_out(json.dumps(report.to_dict(), indent=1) + "\n", args.out)
    return 0


def cmd_semsim(args) -> int:
    theory = _load_theory(args.taxonomy)
    edges = [
        (theory.classes.name(c), theory.classes.name(d)) for c, d in theory.nf1
    ]
    annotations: dict[str, set[str]] = {}
    for entity, cls in dataio.read_annotations_tsv(args.annotations):
        annotations.setdefault(entity, set()).add(cls)
    index = semsim.build_taxonomy(edges, annotations)
    lines = []
    for lineno, parts in dataio.tsv_lines(args.pairs):
        if len(parts) < 2:
            raise dataio.DataError(f"{args.pairs}:{lineno}: expected 2 fields")
        value = index.entity_similarity(parts[0], parts[1], args.measure)
        lines.append(f"{parts[0]}\t{parts[1]}\t{value:.6f}")
    _write_out("\n".join(lines) + "\n", args.out)
    return 0


def cmd_ingest(args) -> int:
    onto, split = dataio.ingest(
        args.pairs,
        args.annotations,
        min_confidence=args.min_confidence,
        seed=args.seed,
        relation=args.relation,
        symmetric=args.symmetric,
    )
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    from .ontology import format_ontology

    (out_dir / "ontology.el").write_text(format_ontology(onto))
    dataio.write_split(split, out_dir)
    print(
        f"wrote {len(onto.axioms)} axioms, split "
        f"{len(split.train)}/{len(split.valid)}/{len(split.test)}",
        file=sys.stderr,
    )
    return 0


def cmd_export2d(args) -> int:
    ckpt = load_checkpoint(args.ckpt)
    rows = dataio.export_2d(ckpt)
    _write_out(dataio.format_export_2d(rows), args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="elball", description="Geometric ball embeddings for EL++ ontologies"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("normalize", help="rewrite an ontology into normal-form buckets")
    p.add_argument("input")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_normalize)

    p = sub.add_parser("train", help="train ball embeddings for a theory")
    p.add_argument("--theory", required=True)
    p.add_argument("--dim", type=int, default=50)
    p.add_argument("--margin", type=float, default=-0.1)
    p.add_argument("--epochs", type=int, default=1000)
    p.add_argument("--batch", type=int, default=32)
    p.add_argument("--lr", type=float, default=0.01)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--neg-per-pos", type=int, default=1)
    p.add_argument("--steps-per-epoch", type=int, default=1)
    p.add_argument("--neg-mode", choices=("static", "fresh"), default="static")
    p.add_argument("--eval-every", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("check", help="verify an embedding against a theory")
    p.add_argument("theory")
    p.add_argument("ckpt")
    p.add_argument("--tol", type=float, default=0.0)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("evaluate", help="link-prediction ranking report")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--split", required=True, help="directory with train/valid/test.tsv")
    p.add_argument("--relation", default=None)
    p.add_argument("--gamma", type=float, default=None)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_evaluate)

    p = sub.add_parser("semsim", help="semantic-similarity scores for entity pairs")
    p.add_argument("--taxonomy", required=True)
    p.add_argument("--annotations", required=True)
    p.add_argument("--pairs", required=True)
    p.add_argument("--measure", choices=semsim.MEASURES, default="resnik")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_semsim)

    p = sub.add_parser("ingest", help="interaction TSVs -> axioms + split")
    p.add_argument("--pairs", required=True)
    p.add_argument("--annotations", required=True)
    p.add_argument("--min-confidence", type=float, default=700.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--relation", default="interacts")
    p.add_argument("--symmetric", action=argparse.BooleanOptionalAction, default=True)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(fn=cmd_ingest)

    p = sub.add_parser("export2d", help="dump a 2D checkpoint as plot-ready TSV")
    p.add_argument("ckpt")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_export2d)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
