"""Command-line entry point: normalize, train, check, evaluate, semsim, ingest, export2d."""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from . import dataio, semsim
from .dataio import Checkpoint, load_checkpoint, save_checkpoint
from .embeddings import EmbeddingSet, TOP_RADIUS
from .evaluation import EvaluationError, embedding_score_fn, ranking_report
from .geometry import GeometryError, check_model
from .normalizer import NormalForm, NormalizationError, NormalizedTheory, eliminate_abox, normalize
from .ontology import TOP_ID, OntologyError, format_ontology, parse_ontology
from .trainer import NEG_MODES, TrainConfig, TrainingError, train

# errors in what the user passed in, reported by ``run`` as one line and status 2
INPUT_ERRORS = (OntologyError, NormalizationError, dataio.DataError, EvaluationError,
                GeometryError, semsim.SemSimError, TrainingError, OSError)


def _load_theory(path: str) -> NormalizedTheory:
    with open(path) as fh:
        text = fh.read()
    try:
        return normalize(eliminate_abox(parse_ontology(text)))
    except (OntologyError, NormalizationError) as exc:
        exc.args = (f"{path}: {exc}",)
        raise


def _given(args, names) -> dict:
    """The options among ``names`` that were on the command line."""
    return {name: getattr(args, name) for name in names if hasattr(args, name)}


def _write_out(text: str, out: str | None) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def _rows(index: dict[str, int], names, kind: str) -> np.ndarray:
    """The checkpoint row of each of ``names``, in order."""
    missing = next((name for name in names if name not in index), None)
    if missing is not None:
        raise dataio.CheckpointError(f"checkpoint has no embedding for {kind} {missing!r}")
    return np.fromiter(map(index.__getitem__, names), np.intp, len(names))


def align_embeddings(ckpt: Checkpoint, theory: NormalizedTheory) -> EmbeddingSet:
    """Reindex checkpoint tables to the theory's vocabulary handles."""
    e = ckpt.embeddings
    classes = _rows(ckpt.class_index, theory.classes, "class")
    radii = e.class_radii[classes]
    radii[TOP_ID] = TOP_RADIUS
    rels = e.rel_vectors[_rows(ckpt.relation_index, theory.relations, "relation")]
    return EmbeddingSet(e.class_centers[classes], radii, rels)


def cmd_normalize(args) -> int:
    theory = _load_theory(args.input)
    names = theory.names()
    lines = []
    for form in NormalForm:
        lines += [f"# {form.value}", *form.format(theory.handles(form), names)]
    _write_out("\n".join(lines) + "\n", args.out)
    return 0


def cmd_train(args) -> int:
    theory = _load_theory(args.theory)
    cfg = TrainConfig(**_given(args, [f.name for f in dataclasses.fields(TrainConfig)]))
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
    try:
        e = align_embeddings(ckpt, theory)
    except dataio.CheckpointError as exc:
        exc.args = (f"{args.ckpt}: {exc}",)
        raise
    report = check_model(theory, e, args.tol)
    _write_out(json.dumps(report.to_dict(), indent=1, allow_nan=False) + "\n", args.out)
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
        **_given(args, ("min_confidence", "seed", "relation", "symmetric")),
    )
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
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

    p = sub.add_parser("train", help="train ball embeddings for a theory",
                       description="Options left out take elball.TrainConfig's defaults.",
                       argument_default=argparse.SUPPRESS)
    p.add_argument("--theory", required=True)
    p.add_argument("--dim", type=int)
    p.add_argument("--margin", type=float)
    p.add_argument("--epochs", type=int)
    p.add_argument("--batch", dest="batch_size", type=int, metavar="BATCH")
    p.add_argument("--lr", dest="learning_rate", type=float, metavar="LR")
    p.add_argument("--seed", type=int)
    p.add_argument("--neg-per-pos", dest="negatives_per_positive", type=int, metavar="NEG_PER_POS")
    p.add_argument("--steps-per-epoch", type=int)
    p.add_argument("--neg-mode", choices=NEG_MODES)
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

    p = sub.add_parser("ingest", help="interaction TSVs -> axioms + split",
                       description="Options left out take elball.dataio.build_dataset's defaults.",
                       argument_default=argparse.SUPPRESS)
    p.add_argument("--pairs", required=True)
    p.add_argument("--annotations", required=True)
    p.add_argument("--min-confidence", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--relation")
    p.add_argument("--symmetric", action=argparse.BooleanOptionalAction)
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


def run(argv=None) -> int:
    """``main`` for the console: an input error prints ``elball: <message>``
    on stderr and returns 2, so 1 stays ``check``'s "model violated"."""
    try:
        return main(argv)
    except INPUT_ERRORS as exc:
        print(f"elball: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(run())
