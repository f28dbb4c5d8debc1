"""Workloads, the timed pipeline pass, and the output checks of the benchmark.

One pass goes from input files on disk to reports and a reloaded
checkpoint, calling the library the way a user would:

    setup       dataio.ingest, parse_ontology, eliminate_abox, normalize,
                build_taxonomy
    train       trainer.train
    check       geometry.check_model
    checkpoint  dataio.save_checkpoint, dataio.load_checkpoint
    rank        evaluation.ranking_report with the embedding score
    semsim      evaluation.ranking_report with the Resnik BMA score

A run repeats whole rounds (one pass, then fixed extra repeats of the
short stages) while another round should still end within its time, and
reports medians. A traced run
alternates untraced and traced passes; the traced ones give the
per-layer numbers and the difference gives the cost of tracing.
"""

from __future__ import annotations

import dataclasses
import resource
import statistics
import sys
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import perf_counter

import numpy as np

import elmixed
import oracles
from elball import dataio, synthetic, trainer
from elball.evaluation import LinkSplit, embedding_score_fn, ranking_report
from elball.geometry import check_model
from elball.losses import LossBatch, batch_loss
from elball.normalizer import eliminate_abox, normalize
from elball.ontology import BOT_ID, GCI, Atomic, parse_ontology
from elball.semsim import build_taxonomy, semsim_score_fn
from spans import Tracer

TOL = 0.1  # model-check tolerance behind satisfied_axioms
ROOT_CLASS = "Function"  # root of the function taxonomy
REFERENCE_S = 0.025  # median time of reference_work on the machine the bounds were set on


@dataclass(frozen=True)
class Workload:
    entities: int  # synthetic.generate entities, modules of 20
    epochs: int  # training config otherwise dim 25, margin 0.1, batch 64
    mixed: dict | None = None  # elmixed.generate sizes; None for ppi
    semsim_queries: int | None = None  # None ranks every test query
    auc_floor: float | None = None  # filtered AUC the trained embedding must reach
    setup_reps: int = 1  # calls per round; the first one is part of the pass
    check_reps: int = 1
    rank_reps: int = 1

    @property
    def ontology_file(self) -> str:
        return "taxonomy.el" if self.mixed is None else "ontology.el"


WORKLOADS = {
    "ppi-200": Workload(200, 2000, auc_floor=0.65, setup_reps=6, check_reps=8, rank_reps=8),
    "ppi-1000": Workload(1000, 2000, semsim_queries=20, setup_reps=2, check_reps=3),
    "el-mixed": Workload(100, 500, mixed={}, setup_reps=3, check_reps=4, rank_reps=10),
}

# same code paths at a size that runs in seconds; quality floors do not apply
SMALL = {
    "ppi-200": replace(WORKLOADS["ppi-200"], entities=40, epochs=60, auc_floor=None),
    "ppi-1000": replace(WORKLOADS["ppi-1000"], entities=60, epochs=60, semsim_queries=5),
    "el-mixed": replace(
        WORKLOADS["el-mixed"],
        entities=40,
        epochs=60,
        mixed=dict(n_classes=120, n_axioms=240, n_individuals=20),
    ),
}


def config(w: Workload, seed: int) -> trainer.TrainConfig:
    return trainer.TrainConfig(dim=25, margin=0.1, epochs=w.epochs, batch_size=64, seed=seed)


def call(tr: Tracer | None, name: str, fn, *args, **kwargs):
    return fn(*args, **kwargs) if tr is None else tr.call(name, fn, *args, **kwargs)


# --- inputs and the pass -----------------------------------------------------


def reference_work() -> float:
    """Fixed work that shares no code with elball, mixed like the pipeline's own.

    Small numpy gathers, norms and scatters, a dense Adam-like update, and
    Python string, dict, set and tuple handling. Its time, taken between
    the stages of every round, measures how fast the machine runs at that
    moment; see ``run``.
    """
    rng = np.random.default_rng(12345)
    table = rng.random((600, 25))
    m = np.zeros_like(table)
    v = np.zeros_like(table)
    names: dict = {}
    groups: dict = {}
    rows = []
    for i in range(120):
        pick = rng.integers(600, size=64)
        u = table[pick] - table[pick[::-1]]
        w = (np.linalg.norm(u, axis=-1) > 1.0)[:, None] * u
        g = np.zeros_like(table)
        np.add.at(g, pick, w)
        m = 0.9 * m + 0.1 * g
        v = 0.999 * v + 0.001 * g * g
        table -= 0.01 * m / (np.sqrt(v) + 1e-8)
        for token in f"C{i} and r{i % 4} some D{i % 7} < E{i % 13}".split():
            names.setdefault(token, len(names))
        group = groups.setdefault(f"D{i % 7}", set())
        group.add(names[f"C{i}"])
        rows.append((f"C{i} < E{i % 13}", len(group & {1, 2, 3, 5, 8}), float(w[0, 0])))
    return float(table.sum()) + len(rows)


def make_inputs(w: Workload, seed: int, out: Path, tr: Tracer | None) -> float:
    """Write pairs.tsv, annotations.tsv and the ontology file; return synthetic.generate's time."""
    start = perf_counter()
    base = call(
        tr, "synthetic.generate", synthetic.generate,
        n_entities=w.entities, n_modules=max(1, w.entities // 20), seed=seed,
    )
    generate_s = perf_counter() - start
    out.mkdir(parents=True, exist_ok=True)
    synthetic.write_dataset(base, out)
    if w.mixed is not None:
        (out / w.ontology_file).write_text(elmixed.generate(base, seed, **w.mixed))
    return generate_s


@dataclass
class Setup:
    flat: object  # the ontology after eliminate_abox
    theory: object
    split: LinkSplit
    index: object
    edges: list
    annotations: dict


def setup(ctx, tr: Tracer | None) -> Setup:
    onto, split = call(
        tr, "dataio.ingest", dataio.ingest,
        ctx.out / "pairs.tsv", ctx.out / "annotations.tsv", seed=ctx.seed,
    )
    first = len(onto.axioms)
    text = (ctx.out / ctx.w.ontology_file).read_text()
    call(tr, "ontology.parse_ontology", parse_ontology, text, onto)
    flat = call(tr, "normalizer.eliminate_abox", eliminate_abox, onto)
    theory = call(tr, "normalizer.normalize", normalize, flat)
    edges = [
        (onto.classes.name(a.sub.cls), onto.classes.name(a.sup.cls))
        for a in onto.axioms[first:]
        if isinstance(a, GCI)
        and isinstance(a.sub, Atomic)
        and isinstance(a.sup, Atomic)
        and a.sup.cls != BOT_ID
    ]
    annotations: dict = {}
    for entity, cls in dataio.read_annotations_tsv(ctx.out / "annotations.tsv"):
        annotations.setdefault(entity, set()).add(cls)
    index = call(tr, "semsim.build_taxonomy", build_taxonomy, edges, annotations, root=ROOT_CLASS)
    return Setup(flat, theory, split, index, edges, annotations)


def traced_train(theory, cfg, tr: Tracer, hinges: list[int]):
    """train() with its calls into losses, Adam and negatives timed as spans."""
    names = ("batch_loss", "batch_gradient", "generate_negatives")
    saved = {name: getattr(trainer, name) for name in names}
    saved_step = trainer.Adam.step

    def gradient(batch, e):
        grads = tr.call("losses.batch_gradient", saved["batch_gradient"], batch, e)
        with tr.span("trace.active_hinges"):
            active, total = oracles.active_hinges(batch, e)
            hinges[0] += active
            hinges[1] += total
        return grads

    trainer.batch_loss = tr.wrap("losses.batch_loss", saved["batch_loss"])
    trainer.batch_gradient = gradient
    trainer.generate_negatives = tr.wrap("trainer.generate_negatives", saved["generate_negatives"])
    trainer.Adam.step = lambda self, params, grads: tr.call(
        "trainer.Adam.step", saved_step, self, params, grads
    )
    try:
        return tr.call("trainer.train", trainer.train, theory, cfg)
    finally:
        for name, fn in saved.items():
            setattr(trainer, name, fn)
        trainer.Adam.step = saved_step


@dataclass
class Pass:
    """Outputs and counts of one pipeline pass."""

    s: Setup
    embeddings: object = None
    model: object = None
    ckpt: object = None
    ckpt_bytes: int = 0
    rank: object = None
    semsim: object = None
    semsim_split: LinkSplit | None = None
    semsim_calls: list = field(default_factory=list)  # (head, tails, scores)
    counts: dict = field(default_factory=dict)


def counting(fn, counts: dict, prefix: str):
    def counted(head, rel, tails):
        counts[f"{prefix}.score_calls"] += 1
        counts[f"{prefix}.candidates_scored"] += len(tails)
        return fn(head, rel, tails)

    counts[f"{prefix}.score_calls"] = counts[f"{prefix}.candidates_scored"] = 0
    return counted


def count_pairwise(index, counts: dict) -> None:
    """Count every pairwise class similarity the BMA score asks the index for."""
    pairwise = index.pairwise
    counts["semsim.pairwise_calls"] = 0

    def counted_pairwise(measure):
        fn = pairwise(measure)

        def counted(c1, c2):
            counts["semsim.pairwise_calls"] += 1
            return fn(c1, c2)

        return counted

    index.pairwise = counted_pairwise


class Stage:
    """Times one stage into ``samples[name]`` and, when tracing, spans it.

    With ``reference`` set, reference_work runs just before each stage.
    """

    def __init__(self, samples: dict, tr: Tracer | None, reference: bool = False):
        self.samples, self.tr, self.reference = samples, tr, reference
        self.reference_s = 0.0

    def time_reference(self) -> None:
        start = perf_counter()
        reference_work()
        self.samples.setdefault("reference", []).append(perf_counter() - start)
        self.reference_s += self.samples["reference"][-1]

    def __call__(self, name: str, fn, *args):
        if self.reference:
            self.time_reference()
        if self.tr is not None:
            self.tr.begin(f"stage.{name}")
        start = perf_counter()
        try:
            return fn(*args)
        finally:
            self.samples.setdefault(name, []).append(perf_counter() - start)
            if self.tr is not None:
                self.tr.end()


def run_pass(ctx, samples: dict, tr: Tracer | None, reference: bool) -> Pass:
    stage = Stage(samples, tr, reference)
    cfg = ctx.cfg
    start = perf_counter()
    p = Pass(stage("setup", setup, ctx, tr))
    theory, split = p.s.theory, p.s.split

    hinges = [0, 0]
    if tr is None:
        p.embeddings, _ = stage("train", trainer.train, theory, cfg)
    else:
        p.embeddings, _ = stage("train", traced_train, theory, cfg, tr, hinges)
        p.counts["losses.active_hinges"], p.counts["losses.hinge_terms"] = hinges

    p.model = stage("check", call, tr, "geometry.check_model", check_model, theory, p.embeddings, TOL)

    def checkpoint():
        path = ctx.out / "checkpoint.json"
        call(
            tr, "dataio.save_checkpoint", dataio.save_checkpoint,
            path, p.embeddings, list(theory.classes), list(theory.relations),
            {"seed": cfg.seed, "margin": cfg.margin},
        )
        p.ckpt_bytes = path.stat().st_size
        return call(tr, "dataio.load_checkpoint", dataio.load_checkpoint, path, cfg.dim)

    p.ckpt = stage("checkpoint", checkpoint)

    def rank():
        fn = embedding_score_fn(
            p.ckpt.embeddings, p.ckpt.entity_index(), p.ckpt.relation_index, cfg.margin
        )
        if tr is not None:
            fn = counting(fn, p.counts, "evaluation")
        return call(tr, "evaluation.ranking_report", ranking_report, split, fn)

    p.rank = stage("rank", rank)

    q = ctx.w.semsim_queries
    if q is None:
        p.semsim_split = split
    else:  # a prefix of the (shuffled) test split against the full candidate pools
        pools = {r: split.candidate_tails(r) for _, r, _ in split.test}
        p.semsim_split = LinkSplit(split.train, split.valid, split.test[:q], pools)

    def semsim():
        score = semsim_score_fn(p.s.index, "resnik")
        if tr is not None:
            count_pairwise(p.s.index, p.counts)
            score = counting(score, p.counts, "semsim")

        def captured(head, rel, tails):
            scores = score(head, rel, tails)
            p.semsim_calls.append((head, tails, scores))
            return scores

        return call(tr, "semsim.ranking_report", ranking_report, p.semsim_split, captured)

    p.semsim = stage("semsim", semsim)
    samples.setdefault("pass", []).append(perf_counter() - start - stage.reference_s)
    return p


def extra_repeats(ctx, p: Pass, samples: dict) -> None:
    """The fixed extra calls of a round that steady the short stages' medians."""
    stage = Stage(samples, None)
    stage.time_reference()
    for _ in range(ctx.w.setup_reps - 1):
        stage("setup", setup, ctx, None)
    stage.time_reference()
    for _ in range(ctx.w.check_reps - 1):
        stage("check", check_model, p.s.theory, p.embeddings, TOL)
    fn = embedding_score_fn(
        p.ckpt.embeddings, p.ckpt.entity_index(), p.ckpt.relation_index, ctx.cfg.margin
    )
    stage.time_reference()
    for _ in range(ctx.w.rank_reps - 1):
        stage("rank", ranking_report, p.s.split, fn)


# --- checks -------------------------------------------------------------------


def satisfied(report) -> int:
    return sum(c.satisfied for c in report.checks if not c.informational)


def close(a, b, rtol=1e-9, atol=1e-12) -> bool:
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    same_inf = np.isinf(a) & np.isinf(b) & (np.sign(a) == np.sign(b))
    with np.errstate(invalid="ignore"):
        near = np.abs(a - b) <= atol + rtol * np.abs(b)
    return bool(np.all(same_inf | near))


def check_ranking(ctx, p: Pass):
    names = list(p.s.theory.classes), list(p.s.theory.relations)
    expect = oracles.ranking(p.s.split, oracles.embedding_scorer(p.embeddings, *names, ctx.cfg.margin))
    got = dataclasses.asdict(p.rank)
    bad = [k for k in expect if expect[k] != got[k]]
    return not bad, f"{len(p.s.split.test)} queries" + (f"; differ: {bad}" if bad else "")


def semsim_scores(p: Pass) -> dict:
    """(head, tail) -> the BMA score ranking_report received for it."""
    scores = {}
    for head, tails, values in p.semsim_calls:
        scores.update(zip(((head, t) for t in tails), values))
    return scores


def check_semsim(ctx, p: Pass):
    own = oracles.Resnik(p.s.edges, p.s.annotations, ROOT_CLASS)
    scores = semsim_scores(p)
    wrong = [k for k, v in scores.items() if not close(v, own.bma(*k), rtol=1e-12)]
    return not wrong, f"{len(scores)} entity pairs" + (f"; {len(wrong)} differ, e.g. {wrong[0]}" if wrong else "")


def check_semsim_ranking(ctx, p: Pass):
    scores = semsim_scores(p)

    def score(head, rel, tails):
        return [scores[(head, t)] for t in tails]

    expect = oracles.ranking(p.s.split, score, p.semsim_split.test)
    got = dataclasses.asdict(p.semsim)
    bad = [k for k in expect if expect[k] != got[k]]
    return not bad, f"{len(p.semsim_split.test)} queries" + (f"; differ: {bad}" if bad else "")


def check_resnik(ctx, p: Pass):
    own = oracles.Resnik(p.s.edges, p.s.annotations, ROOT_CLASS)
    annotated = sorted(set().union(*p.s.annotations.values()))
    everything = sorted(own.ancestors)
    rng = np.random.default_rng(ctx.seed)
    pairs = [(a, b) for a in annotated for b in annotated]
    pairs += [
        (everything[i], everything[j])
        for i, j in rng.integers(len(everything), size=(500, 2))
    ]
    wrong = [(a, b) for a, b in pairs if not close(p.s.index.resnik(a, b), own.resnik(a, b), rtol=1e-12)]
    return not wrong, f"{len(pairs)} class pairs" + (f"; {len(wrong)} differ, e.g. {wrong[0]}" if wrong else "")


def check_model_violations(ctx, p: Pass):
    expect = oracles.model_violations(p.s.theory, p.embeddings)
    got: dict = {}
    for c in p.model.checks:
        got.setdefault(c.form, []).append(c)
    bad = []
    for form, values in expect.items():
        rows = got.get(form, [])
        atol = 1e-7 if form == "NF2" else 1e-12  # the lens radius is a square root of a difference
        if len(rows) != len(values) or not close([c.violation for c in rows], values, atol=atol):
            bad.append(form)
        elif any(c.satisfied != (c.violation <= TOL) for c in rows):
            bad.append(f"{form} flags")
    n = sum(len(v) for v in expect.values())
    return not bad, f"{n} axioms" + (f"; differ: {bad}" if bad else "")


def check_checkpoint(ctx, p: Pass):
    a, b = p.embeddings, p.ckpt.embeddings
    same = (
        p.ckpt.class_names == list(p.s.theory.classes)
        and p.ckpt.relation_names == list(p.s.theory.relations)
        and all(
            x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()
            for x, y in (
                (a.class_centers, b.class_centers),
                (a.class_radii, b.class_radii),
                (a.rel_vectors, b.rel_vectors),
            )
        )
    )
    return same, f"{p.ckpt_bytes} bytes"


def check_renormalize(ctx, p: Pass):
    theory = p.s.theory
    again = normalize(theory.as_ontology())
    buckets = ("nf1", "nf2", "nf3", "nf4", "bot1", "bot2", "bot4")
    same = list(again.classes) == list(theory.classes) and all(
        getattr(again, b) == getattr(theory, b) for b in buckets
    )
    return same, f"{theory.n_axioms()} axioms, {len(theory.fresh)} fresh classes"


def check_normal_kept(ctx, p: Pass):
    theory = p.s.theory
    buckets = {b: set(getattr(theory, b)) for b in ("nf1", "nf2", "nf3", "nf4", "bot1", "bot2", "bot4")}
    found = [oracles.normal_form(a, BOT_ID) for a in p.s.flat.axioms]
    found = [f for f in found if f is not None]
    lost = [f for f in found if f[1] not in buckets[f[0]]]
    return not lost, f"{len(found)} normal input axioms" + (f"; {len(lost)} lost, e.g. {lost[0]}" if lost else "")


def check_loss(ctx, p: Pass):
    theory, cfg = p.s.theory, ctx.cfg
    before = oracles.theory_loss(theory, trainer.init_embeddings(theory, cfg), cfg.margin)
    after = oracles.theory_loss(theory, p.embeddings, cfg.margin)
    program = batch_loss(LossBatch.from_theory(theory, cfg.margin), p.embeddings)
    ok = after < before and close(program, after)
    return ok, f"full-theory loss {before:.6g} -> {after:.6g} (library {program:.6g})"


def check_quality(ctx, p: Pass):
    floor = ctx.w.auc_floor
    names = list(p.s.theory.classes), list(p.s.theory.relations)
    start = trainer.init_embeddings(p.s.theory, ctx.cfg)
    untrained = oracles.ranking(p.s.split, oracles.embedding_scorer(start, *names, ctx.cfg.margin))
    auc = p.rank.filtered_auc
    ok = auc >= floor and auc > untrained["filtered_auc"]
    return ok, f"filtered AUC {auc:.4f} (floor {floor}), untrained {untrained['filtered_auc']:.4f}"


def summary(p: Pass) -> tuple:
    """What every pass of a run must reproduce exactly."""
    return (p.rank, p.semsim, satisfied(p.model), p.model.max_violation)


def checks(ctx, p: Pass, summaries: list, tr: Tracer | None) -> list[tuple[str, bool, str]]:
    """Run every output check on the last pass; one (name, ok, detail) each."""
    todo = [
        ("ranking report equals brute-force re-ranking", check_ranking),
        ("Resnik BMA scores equal own recomputation", check_semsim),
        ("semsim ranking report equals brute-force re-ranking", check_semsim_ranking),
        ("Resnik class similarities equal own closure", check_resnik),
        ("check_model violations equal numpy recomputation", check_model_violations),
        ("reloaded checkpoint equals trained tables bit for bit", check_checkpoint),
        ("every input axiom already in normal form keeps its bucket", check_normal_kept),
        ("normalizing the normalized theory changes nothing", check_renormalize),
        ("training lowers the full-theory loss", check_loss),
    ]
    if ctx.w.auc_floor is not None:
        todo.append(("filtered AUC above floor and above untrained", check_quality))
    out = []
    for name, fn in todo:
        try:
            ok, detail = fn(ctx, p)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            ok, detail = False, "raised"
        out.append((name, bool(ok), detail))
    same = all(s == summaries[0] for s in summaries)
    out.append(("every pass gives the same outputs", same, f"{len(summaries)} passes"))
    if tr is not None:
        bad = tr.misnested()
        out.append(("every span nests in its parent", bad == 0, f"{len(tr.spans)} spans, {bad} misnested"))
    return out


# --- the run ------------------------------------------------------------------


@dataclass
class Context:
    w: Workload
    seed: int
    out: Path
    cfg: trainer.TrainConfig


def median(values) -> float:
    return float(statistics.median(values))


def run(name: str, seed: int, seconds: float, trace: bool, small: bool, out: Path):
    """Run one workload; return (correct, attempted, failed, metrics, check lines, unscaled medians)."""
    w = (SMALL if small else WORKLOADS)[name]
    ctx = Context(w, seed, out, config(w, seed))
    tr = Tracer() if trace else None
    if tr is not None:
        tr.round = -1
    generate_s = make_inputs(w, seed, out, tr)

    rounds_samples: list[dict] = []  # stage -> times, one dict per round
    summaries: list = []
    last = None  # only the newest pass is kept, so memory does not grow with rounds
    traced_rounds: list[int] = []
    overheads: list[float] = []
    attempted = failed = 0
    ops_per_pass = 6
    min_rounds = 4 if trace else 3
    start = perf_counter()
    rounds = 0
    round_s: list[float] = []

    def another_round() -> bool:
        if rounds < min_rounds or (trace and rounds % 2):
            return True  # a traced run ends on a traced pass, the twin of an untraced one
        # start a round only if it should end within the run's time
        return perf_counter() - start + median(round_s) <= seconds

    while another_round():
        began = perf_counter()
        use = tr if trace and rounds % 2 == 1 else None
        if use is not None:
            use.round = rounds
        try:
            attempted += ops_per_pass
            samples: dict = {}
            rounds_samples.append(samples)
            p = run_pass(ctx, samples, use, reference=not trace)
            if use is not None:
                traced_rounds.append(rounds)
                overheads.append(samples["pass"][0] - rounds_samples[-2]["pass"][0])
            elif not trace:
                attempted += w.setup_reps + w.check_reps + w.rank_reps - 3
                extra_repeats(ctx, p, samples)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            failed += 1
            rounds_samples.pop()  # a broken round's times are not reported
            break
        summaries.append(summary(p))
        last = p
        rounds += 1
        round_s.append(perf_counter() - began)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    results = checks(ctx, last, summaries, tr) if last is not None and not failed else []
    attempted += len(results)
    failed += sum(not ok for _, ok, _ in results)
    correct = failed == 0
    if tr is not None:
        tr.write(out / "trace.json")
    if last is None or (trace and not traced_rounds):
        return False, attempted, failed, {}, results, {}

    p = last
    if trace:
        metrics = layer_metrics(tr, traced_rounds, p, generate_s, overheads)
        return correct, attempted, failed, metrics, results, {}

    def at_reference_speed(name: str) -> float:
        """Median stage time, each round's samples scaled to the reference speed.

        The machine's speed drifts by 10-30 % between runs of the same code;
        a round's reference_work time measures that drift and scaling by
        REFERENCE_S / its median takes most of it out. See README.md.
        """
        scaled = []
        for rs in rounds_samples:
            factor = REFERENCE_S / median(rs["reference"])
            scaled += [t * factor for t in rs[name]]
        return median(scaled)

    steps = ctx.cfg.epochs * ctx.cfg.steps_per_epoch
    metrics = {
        "setup_s": (at_reference_speed("setup"), "s"),
        "pipeline_s": (at_reference_speed("pass"), "s"),
        "train_steps_per_s": (steps / at_reference_speed("train"), "steps/s"),
        "check_axioms_per_s": (len(p.model.checks) / at_reference_speed("check"), "axioms/s"),
        "rank_queries_per_s": (p.rank.n_queries / at_reference_speed("rank"), "queries/s"),
        "semsim_queries_per_s": (p.semsim.n_queries / at_reference_speed("semsim"), "queries/s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "satisfied_axioms": (satisfied(p.model), "axioms"),
    }
    # the unscaled medians, for the human-readable lines only
    raw = {
        f"measured {name}_s": median([t for rs in rounds_samples for t in rs[name]])
        for name in ("reference", "setup", "pass", "train", "check", "rank", "semsim")
    }
    return correct, attempted, failed, metrics, results, raw


def layer_metrics(tr: Tracer, rounds: list[int], p: Pass, generate_s: float, overheads: list) -> dict:
    """Per-layer metrics: medians over the traced rounds; p is the last traced pass."""
    totals = [tr.layer_totals(rnd) for rnd in rounds]  # name -> (busy, self, calls)

    def busy(name, col=0):
        return median([t.get(name, (0.0, 0.0, 0))[col] for t in totals])

    c = p.counts
    theory = p.s.theory
    return {
        "losses.batch_gradient_s": (busy("losses.batch_gradient"), "s"),
        "losses.batch_loss_s": (busy("losses.batch_loss"), "s"),
        "losses.active_hinge_ratio": (c["losses.active_hinges"] / c["losses.hinge_terms"], "ratio"),
        "trainer.adam_s": (busy("trainer.Adam.step"), "s"),
        "trainer.negatives_s": (busy("trainer.generate_negatives"), "s"),
        "trainer.self_s": (busy("trainer.train", 1), "s"),
        "trainer.steps": (totals[-1]["trainer.Adam.step"][2], "count"),
        "evaluation.ranking_s": (busy("evaluation.ranking_report"), "s"),
        "evaluation.score_calls": (c["evaluation.score_calls"], "count"),
        "evaluation.candidates_scored": (c["evaluation.candidates_scored"], "count"),
        "evaluation.filtered_auc": (p.rank.filtered_auc, "ratio"),
        "semsim.build_taxonomy_s": (busy("semsim.build_taxonomy"), "s"),
        "semsim.ranking_s": (busy("semsim.ranking_report"), "s"),
        "semsim.score_calls": (c["semsim.score_calls"], "count"),
        "semsim.pairwise_calls": (c["semsim.pairwise_calls"], "count"),
        "semsim.filtered_auc": (p.semsim.filtered_auc, "ratio"),
        "ontology.parse_s": (busy("ontology.parse_ontology"), "s"),
        "dataio.ingest_s": (busy("dataio.ingest"), "s"),
        "normalizer.eliminate_abox_s": (busy("normalizer.eliminate_abox"), "s"),
        "normalizer.normalize_s": (busy("normalizer.normalize"), "s"),
        "normalizer.fresh_classes": (len(theory.fresh), "count"),
        "normalizer.normalized_axioms": (theory.n_axioms(), "count"),
        "geometry.check_model_s": (busy("geometry.check_model"), "s"),
        "geometry.axioms_checked": (len(p.model.checks), "count"),
        "dataio.checkpoint_save_s": (busy("dataio.save_checkpoint"), "s"),
        "dataio.checkpoint_load_s": (busy("dataio.load_checkpoint"), "s"),
        "dataio.checkpoint_bytes": (p.ckpt_bytes, "bytes"),
        "synthetic.generate_s": (generate_s, "s"),
        "trace.overhead_s": (median(overheads), "s"),
    }
