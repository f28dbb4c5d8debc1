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

import numpy as np

from .embeddings import TOP_RADIUS, EmbeddingSet
from .geometry import unsatisfiable
from .losses import LossBatch, batch_gradient, batch_loss
from .normalizer import NormalForm, NormalizedTheory
from .ontology import TOP_ID

logger = logging.getLogger(__name__)

MAX_RETRIES = 100  # draws per negative before its positive is skipped
NEG_MODES = ("static", "fresh")  # precomputed negatives, or new ones each epoch


class TrainingError(ValueError):
    pass


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
    eval_every: int = 0  # record full-theory loss every k epochs (0 = never)

    def __post_init__(self):
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


@dataclass
class LossTrace:
    minibatch: list[float] = field(default_factory=list)
    full: list[tuple[int, float]] = field(default_factory=list)  # (epoch, loss)


class Adam:
    """Adam with bias correction over a dict of parameter arrays.

    Dense: every entry's moments decay each step, gradient or not. ``step``
    updates the moments and the parameters in place through two scratch
    buffers per array, in the operation order of the textbook formula.
    """

    beta1 = 0.9
    beta2 = 0.999
    eps = 1e-8

    def __init__(self, lr: float):
        self.lr = lr
        self.t = 0
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}
        self._scratch: dict[str, tuple[np.ndarray, np.ndarray]] = {}

    def step(self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray]) -> None:
        self.t += 1
        bc1 = 1.0 - self.beta1**self.t
        bc2 = 1.0 - self.beta2**self.t
        for key, p in params.items():
            grad = grads[key]
            if key not in self.m:
                self.m[key] = np.zeros_like(p)
                self.v[key] = np.zeros_like(p)
                self._scratch[key] = (np.empty_like(p), np.empty_like(p))
            m, v = self.m[key], self.v[key]
            a, b = self._scratch[key]
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
    nf3: list[tuple[int, int, int]],
    candidates: list[int],
    k: int,
    rng: np.random.Generator,
) -> tuple[list[tuple[int, int, int]], int]:
    """Corrupt NF3 axioms (C, r, D) in one class slot, avoiding asserted axioms.

    Returns (negatives, skipped) where skipped counts positives whose
    ``MAX_RETRIES`` draws all hit asserted axioms (possible on dense
    interaction graphs).
    """
    if k == 0 or not nf3:
        return [], 0
    if not candidates:
        raise TrainingError("no candidate classes for negative generation")
    asserted = set(nf3)
    cand = np.asarray(candidates, dtype=np.intp)
    negatives: list[tuple[int, int, int]] = []
    skipped = 0
    for c, r, d in nf3:
        for _ in range(k):
            for _ in range(MAX_RETRIES):
                corrupt_head = rng.integers(2) == 0
                replacement = int(cand[rng.integers(len(cand))])
                corrupted = (replacement, r, d) if corrupt_head else (c, r, replacement)
                if corrupted not in asserted:
                    negatives.append(corrupted)
                    break
            else:
                skipped += 1
    if skipped:
        logger.warning("negative sampling skipped %d positives (budget exhausted)", skipped)
    return negatives, skipped


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
    candidates = [
        cid for cid in range(len(theory.classes)) if cid not in (e.top, e.bot)
    ]

    # only corrupt positives whose class slots are both ordinary classes;
    # a negative keeping Top would inherit its unbounded radius
    corruptible = [(c, r, d) for c, r, d in theory.nf3 if {c, d}.isdisjoint((e.top, e.bot))]

    def make_negatives():
        negs, _ = generate_negatives(
            corruptible, candidates, cfg.negatives_per_positive, rng
        )
        return np.asarray(negs, dtype=np.intp).reshape(-1, 3)

    neg_array = make_negatives()

    # minibatches draw from the theory's buckets in NormalForm order, then the negatives
    pools = [(form.field, getattr(full_batch, form.field)) for form in NormalForm]

    for epoch in range(cfg.epochs):
        if cfg.neg_mode == "fresh":
            neg_array = make_negatives()
        for _ in range(cfg.steps_per_epoch):
            batch = LossBatch(
                cfg.margin,
                **{
                    name: rows[rng.integers(len(rows), size=cfg.batch_size)] if len(rows) else rows
                    for name, rows in (*pools, ("neg", neg_array))
                },
            )

            grads = batch_gradient(batch, e)
            if not np.isfinite(grads.loss):
                offender = next(
                    (k for k, v in grads.buckets.items() if not np.isfinite(v)), "?"
                )
                raise TrainingError(
                    f"non-finite loss at epoch {epoch} in bucket {offender}: {grads.buckets}"
                )
            epoch_loss = grads.loss

            optimizer.step({"params": theta}, {"params": grads.flat})
            # project radii back onto the feasible set
            np.maximum(e.class_radii, 0.0, out=e.class_radii)

        trace.minibatch.append(epoch_loss)
        if cfg.eval_every and (epoch + 1) % cfg.eval_every == 0:
            trace.full.append((epoch + 1, batch_loss(full_batch, e)))

    return e, trace
