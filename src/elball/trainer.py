"""Minibatch training of ball embeddings: init, negatives, Adam, projection.

One epoch samples a minibatch (with replacement) from every nonempty
axiom bucket, takes an Adam step on the summed gradient and clamps all
radii to be non-negative. Top's gradient is always zero, so Adam leaves
its center and sentinel radius exactly as initialized. Centers, radii
and relation vectors are views into one flat parameter buffer, so a step
is one Adam pass over it. Everything is driven by a single seeded
generator, so a (theory, config) pair maps to a bitwise-reproducible
embedding.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from .embeddings import TOP_RADIUS, EmbeddingSet
from .geometry import unsatisfiable
# batch_loss is unused here, but the benchmark's traced run patches it by this module's name
from .losses import LossBatch, batch_gradient, batch_loss
from .normalizer import NormalForm, NormalizedTheory
from .ontology import TOP_ID

logger = logging.getLogger(__name__)

MAX_RETRIES = 100  # draws per negative before the negative is skipped
_SAMPLE_STEPS = 32  # static-negative steps whose minibatch indices one draw makes
_NO_KEY = np.iinfo(np.int64).max  # sentinel past every triple key
NEG_MODES = ("static", "fresh")  # precomputed negatives, or new ones each epoch


class TrainingError(ValueError):
    pass


def _whole(value) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


@dataclass
class TrainConfig:
    dim: int = 50
    margin: float = -0.1
    epochs: int = 1000
    batch_size: int = 32
    learning_rate: float = 0.01
    seed: int = 0
    negatives_per_positive: int = 1
    steps_per_epoch: int = 1
    neg_mode: str = "static"  # one of NEG_MODES

    def __post_init__(self):
        for name in ("dim", "epochs", "batch_size", "steps_per_epoch", "negatives_per_positive"):
            if not _whole(getattr(self, name)):
                raise TrainingError(f"{name} must be an integer, not {getattr(self, name)!r}")
        if self.dim <= 0 or self.batch_size <= 0 or self.steps_per_epoch <= 0:
            raise TrainingError("dim, batch_size, and steps_per_epoch must be positive")
        if self.epochs < 0 or self.negatives_per_positive < 0:
            raise TrainingError("epochs and negatives_per_positive must be non-negative")
        if self.neg_mode not in NEG_MODES:
            raise TrainingError(f"unknown neg_mode {self.neg_mode!r}")
        if not 0 < self.learning_rate < math.inf:  # NaN fails too
            raise TrainingError(f"learning_rate must be positive and finite, not {self.learning_rate!r}")
        if not math.isfinite(self.margin):
            raise TrainingError(f"margin must be finite, not {self.margin!r}")
        if not _whole(self.seed) or self.seed < 0:
            raise TrainingError(f"seed must be a non-negative integer, not {self.seed!r}")


@dataclass
class LossTrace:
    minibatch: list[float] = field(default_factory=list)  # each epoch's last minibatch loss


class Adam:
    """Adam with bias correction over one parameter array.

    Dense: every entry's moments decay each step, gradient or not. ``step``
    updates the moments and the array in place through two scratch buffers,
    in the operation order of the textbook formula; the moments and buffers
    are allocated on the first step.
    """

    beta1 = 0.9
    beta2 = 0.999
    eps = 1e-8

    def __init__(self, lr: float):
        self.lr = lr
        self.t = 0

    def step(self, p: np.ndarray, grad: np.ndarray) -> None:
        if not self.t:
            self.m, self.v = np.zeros_like(p), np.zeros_like(p)
            self._scratch = (np.empty_like(p), np.empty_like(p))
        self.t += 1
        bc1 = 1.0 - self.beta1**self.t
        bc2 = 1.0 - self.beta2**self.t
        m, v = self.m, self.v
        a, b = self._scratch
        # m = beta1 * m + (1 - beta1) * grad
        np.multiply(m, self.beta1, out=m)
        np.multiply(grad, 1.0 - self.beta1, out=a)
        m += a
        # v = beta2 * v + (1 - beta2) * grad * grad
        np.multiply(v, self.beta2, out=v)
        np.multiply(grad, 1.0 - self.beta2, out=a)
        a *= grad
        v += a
        # p -= lr * (m / bc1) / (sqrt(v / bc2) + eps)
        np.divide(m, bc1, out=a)
        a *= self.lr
        np.divide(v, bc2, out=b)
        np.sqrt(b, out=b)
        b += self.eps
        a /= b
        p -= a


def init_embeddings(theory: NormalizedTheory, cfg: TrainConfig) -> EmbeddingSet:
    """Elementwise uniform(0,1) init; Top's radius is the frozen sentinel."""
    rng = np.random.default_rng(cfg.seed)
    n_classes = len(theory.classes)
    n_relations = len(theory.relations)
    e = EmbeddingSet(
        class_centers=rng.uniform(0.0, 1.0, size=(n_classes, cfg.dim)),
        class_radii=rng.uniform(0.0, 1.0, size=n_classes),
        rel_vectors=rng.uniform(0.0, 1.0, size=(n_relations, cfg.dim)),
    )
    e.class_radii[e.top] = TOP_RADIUS
    return e


def generate_negatives(
    nf3: np.ndarray, candidates: np.ndarray, k: int, rng: np.random.Generator
) -> tuple[np.ndarray, int]:
    """Corrupt NF3 axioms (C, r, D) in one class slot, avoiding asserted axioms.

    Each of a positive's k negatives takes i.i.d. uniform (coin, replacement)
    draws until one misses ``nf3``: coin 0 replaces C, 1 replaces D. Returns the
    (n, 3) negatives in positive order and how many were skipped after
    ``MAX_RETRIES`` hits. Each round draws a pair for every open negative with
    one broadcast call and tests their int64 keys at once; only hits stay open.
    """
    rows = np.asarray(nf3, dtype=np.int64).reshape(-1, 3)
    cand = np.asarray(candidates, dtype=np.intp).reshape(-1)
    if k == 0 or not len(rows):
        return np.empty((0, 3), dtype=np.intp), 0
    if not len(cand):
        raise TrainingError("no candidate classes for negative generation")
    if min(rows.min(), cand.min()) < 0:
        raise TrainingError("negative class or relation handle in negative generation")
    n_cls = int(max(rows[:, 0].max(), rows[:, 2].max(), cand.max())) + 1
    n_rel = int(rows[:, 1].max()) + 1
    if n_cls * n_cls * n_rel > _NO_KEY:  # every key stays below the sentinel
        raise TrainingError(
            f"{n_cls} classes and {n_rel} relations overflow the int64 triple keys of negative generation"
        )
    weights = np.array([n_rel * n_cls, n_cls, 1])  # a triple's key is its dot product with these
    asserted = np.sort(np.append(rows @ weights, _NO_KEY))
    negatives = np.repeat(rows, k, axis=0)  # each open negative holds its positive
    open_ = np.arange(len(negatives))
    for _ in range(MAX_RETRIES):
        if not len(open_):
            break
        coin, pick = rng.integers(0, [2, len(cand)], size=(len(open_), 2)).T
        drawn = negatives[open_]
        drawn[np.arange(len(drawn)), 2 * coin] = cand[pick]
        key = drawn @ weights
        miss = asserted[np.searchsorted(asserted, key)] != key
        negatives[open_[miss]] = drawn[miss]
        open_ = open_[~miss]
    if len(open_):
        logger.warning("negative sampling skipped %d negatives (budget exhausted)", len(open_))
    return np.delete(negatives, open_, axis=0).astype(np.intp, copy=False), len(open_)


def train(theory: NormalizedTheory, cfg: TrainConfig) -> tuple[EmbeddingSet, LossTrace]:
    """Run the full training loop and return (embeddings, loss trace)."""
    if theory.n_axioms() == 0:
        raise TrainingError("cannot train on an empty theory")
    full_batch = LossBatch.from_theory(theory, cfg.margin)
    # refuse the rows check_model reads as inf: such a row's loss is a
    # constant near TOP_RADIUS that no step lowers, and two of them in one
    # minibatch sum to inf
    for form in NormalForm:
        rows = getattr(full_batch, form.field).reshape(-1, len(form.kinds))
        bad = unsatisfiable(form, rows, TOP_ID)
        if bad.any():
            text = form.format(rows[bad][:1], theory.names())[0]
            raise TrainingError(
                f"{form.value} axiom {text!r} has Top on its left-hand side, "
                "which no ball embedding satisfies"
            )

    theta, e = init_embeddings(theory, cfg).packed()
    rng = np.random.default_rng([cfg.seed, 1])
    optimizer = Adam(cfg.learning_rate)
    trace = LossTrace()

    # classes eligible as corruption targets: everything but Top/Bot
    ordinary = np.ones(len(theory.classes), dtype=bool)
    ordinary[[e.top, e.bot]] = False
    candidates = np.flatnonzero(ordinary)

    # only corrupt positives whose class slots are both ordinary classes;
    # a negative keeping Top would inherit its unbounded radius
    nf3 = full_batch.nf3
    corruptible = nf3[ordinary[nf3[:, 0]] & ordinary[nf3[:, 2]]]

    def make_negatives():
        return generate_negatives(corruptible, candidates, cfg.negatives_per_positive, rng)[0]

    # minibatches draw from the theory's buckets in NormalForm order, then the negatives
    pools = [(form.field, getattr(full_batch, form.field)) for form in NormalForm]

    def minibatches(steps: int, negatives: np.ndarray) -> Iterator[LossBatch]:
        """``steps`` minibatches whose row indices one call draws. The broadcast
        draw reads the generator stream as one call per step and nonempty pool
        would, in the same order, so the batches equal such a loop's. Rows are
        gathered step by step: chunk-sized row arrays living across steps
        added minor page faults to every step."""
        full = [(name, rows) for name, rows in (*pools, ("neg", negatives)) if len(rows)]
        sizes = np.array([len(rows) for _, rows in full], dtype=np.intp)
        draws = rng.integers(0, sizes[None, :, None], size=(steps, len(full), cfg.batch_size))
        for step in draws:
            yield LossBatch(cfg.margin, **{name: rows[i] for (name, rows), i in zip(full, step)})

    # static negatives leave the generator to the minibatches, so a chunk's
    # draws span epochs; fresh ones are drawn again before each epoch's chunk
    fresh = cfg.neg_mode == "fresh"
    chunk = cfg.steps_per_epoch if fresh else _SAMPLE_STEPS
    total = cfg.epochs * cfg.steps_per_epoch
    negatives = make_negatives()
    for start in range(0, total, chunk):
        if fresh:
            negatives = make_negatives()
        for step, batch in enumerate(minibatches(min(chunk, total - start), negatives), start):
            grads = batch_gradient(batch, e)
            if not np.isfinite(grads.loss):
                offender = next((k for k, v in grads.buckets.items() if not np.isfinite(v)), "?")
                raise TrainingError(f"non-finite loss at epoch {step // cfg.steps_per_epoch} "
                                    f"in bucket {offender}: {grads.buckets}")
            optimizer.step(theta, grads.flat)
            # project radii back onto the feasible set
            np.maximum(e.class_radii, 0.0, out=e.class_radii)
            if (step + 1) % cfg.steps_per_epoch == 0:
                trace.minibatch.append(grads.loss)

    return e, trace
