"""Training losses for the seven normal forms plus corrupted negatives.

Every loss is a sum of hinge terms over ball centers/radii plus unit-sphere
normalization terms |  ||center|| - 1 | for each class operand. Each normal
form's hinge terms are written once, as one residual table per form
(``_residuals``); ``bucket_losses`` reads it forward and ``batch_gradient``
reads it once for both the loss and the gradient. Subgradient convention at
non-differentiable points: the zero side (hinges contribute nothing at the
kink, the norm direction is zero at a zero vector, sign is zero exactly on
the unit sphere).

Top participates with its sentinel radius, its normalization term is
skipped (its center is frozen and carries no unit-sphere constraint), and
it receives zero gradient.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .embeddings import EmbeddingSet
from .normalizer import NormalizedTheory


class MissingSymbolError(Exception):
    pass


def _empty(width: int) -> np.ndarray:
    return np.zeros((0, width) if width > 1 else 0, dtype=np.intp)


@dataclass
class LossBatch:
    """Index tuples per normal form; layouts match NormalizedTheory buckets.

    nf3/neg rows are (C, r, D); nf4 rows are (r, C, D); bot4 rows are (r, C).
    """

    gamma: float
    nf1: np.ndarray = field(default_factory=lambda: _empty(2))
    nf2: np.ndarray = field(default_factory=lambda: _empty(3))
    nf3: np.ndarray = field(default_factory=lambda: _empty(3))
    nf4: np.ndarray = field(default_factory=lambda: _empty(3))
    bot1: np.ndarray = field(default_factory=lambda: _empty(1))
    bot2: np.ndarray = field(default_factory=lambda: _empty(2))
    bot4: np.ndarray = field(default_factory=lambda: _empty(2))
    neg: np.ndarray = field(default_factory=lambda: _empty(3))

    @classmethod
    def from_theory(cls, theory: NormalizedTheory, gamma: float, negatives=()) -> "LossBatch":
        def arr(rows, width):
            return np.asarray(rows, dtype=np.intp).reshape(-1, width) if rows else _empty(width)

        return cls(
            gamma=gamma,
            nf1=arr(theory.nf1, 2),
            nf2=arr(theory.nf2, 3),
            nf3=arr(theory.nf3, 3),
            nf4=arr(theory.nf4, 3),
            bot1=np.asarray(theory.bot1, dtype=np.intp),
            bot2=arr(theory.bot2, 2),
            bot4=arr(theory.bot4, 2),
            neg=arr(list(negatives), 3),
        )


@dataclass
class Gradient:
    """d batch_loss / d every trainable table (Top's rows zero), and the loss."""

    class_centers: np.ndarray
    class_radii: np.ndarray
    rel_vectors: np.ndarray
    loss: float


# --- the residual table --------------------------------------------------


@dataclass
class _Term:
    """One term of a normal form's loss, over that form's rows in the batch.

    A hinge term is max(0, arg) with arg = sign * (||u|| - gamma) +
    sum(k * radius[h] for h, k in radii) and u = center[a] + rel_sign *
    rel[r] - center[b], where a and b are positions in the form's class
    operands; d arg / d u = sign * u / ||u||. A term without a distance
    (a None) has arg = sum(k * radius[h]) - gamma. Bot1 and Bot4 add the
    radius itself, unhinged. Every sign and k is +1 or -1.
    """

    arg: np.ndarray
    radii: tuple
    a: int | None = None
    b: int | None = None
    u: np.ndarray | None = None
    norm: np.ndarray | None = None  # ||u||, shape (rows, 1)
    sign: int = 1
    r: np.ndarray | None = None
    rel_sign: int = 0
    hinged: bool = True

    def value(self) -> np.ndarray:
        return np.maximum(0.0, self.arg) if self.hinged else self.arg

    def weight(self) -> np.ndarray:
        return (self.arg > 0).astype(np.float64) if self.hinged else np.ones_like(self.arg)


def _norm(u: np.ndarray) -> np.ndarray:
    """Row norms, shape (rows, 1); the arithmetic of np.linalg.norm(axis=-1)."""
    return np.sqrt(np.add.reduce(u * u, axis=-1, keepdims=True))


def _unit(u: np.ndarray, norm: np.ndarray) -> np.ndarray:
    """u / ||u||, zero where u is."""
    return u / np.where(norm > 0, norm, 1.0)


def _hinge(e, gamma, radii, ops=None, a=0, b=1, r=None, rel_sign=0, sign=1) -> _Term:
    term = _Term(None, radii, sign=sign, r=r, rel_sign=rel_sign)
    parts = [(e.class_radii[h], k) for h, k in radii]
    if ops is not None:
        term.a, term.b = a, b
        u = e.class_centers[ops[a]]
        if r is not None:
            u = u + e.rel_vectors[r] if rel_sign > 0 else u - e.rel_vectors[r]
        term.u = u - e.class_centers[ops[b]]
        term.norm = _norm(term.u)
        # summed in the printed objectives' order, which the loss values keep
        # to the last bit: the distance leads a containment hinge and trails
        # a disjointness hinge
        parts.insert(0 if sign > 0 else len(parts), (term.norm[:, 0], sign))
    arg = parts[0][0]  # every form's leading part enters with +1
    for x, k in parts[1:]:
        arg = arg + x if k > 0 else arg - x
    term.arg = arg - gamma if sign > 0 else arg + gamma
    return term


# bucket key, LossBatch field, class columns, relation column
_LAYOUT = (
    ("NF1", "nf1", (0, 1), None),
    ("NF2", "nf2", (0, 1, 2), None),
    ("NF3", "nf3", (0, 2), 1),
    ("NF4", "nf4", (1, 2), 0),
    ("Bot1", "bot1", (0,), None),
    ("Bot2", "bot2", (0, 1), None),
    ("Bot4", "bot4", (1,), 0),
    ("neg", "neg", (0, 2), 1),
)


def _check_symbols(e: EmbeddingSet, classes: list, relations: list) -> None:
    for handles, n, kind in ((classes, e.n_classes, "class"), (relations, e.n_relations, "relation")):
        flat = np.concatenate(handles) if handles else _empty(1)
        if flat.size and (int(flat.min()) < 0 or int(flat.max()) >= n):
            raise MissingSymbolError(f"{kind} handle outside the embedding table [0, {n})")


def _residuals(batch: LossBatch, e: EmbeddingSet) -> list[tuple[str, list, list[_Term]]]:
    """Per nonempty form, in bucket order: (bucket, class operands, terms).

    The class operands are the handle columns that carry a unit-sphere
    term. Raises MissingSymbolError for any handle outside its table.
    """
    rows = {}
    for bucket, name, classes, rel in _LAYOUT:
        b = getattr(batch, name)
        if b.size:
            b = b.reshape(len(b), -1)
            rows[bucket] = [b[:, i] for i in classes], None if rel is None else b[:, rel]
    _check_symbols(
        e,
        [h for classes, _ in rows.values() for h in classes],
        [r for _, r in rows.values() if r is not None],
    )

    g = batch.gamma
    out = []
    for bucket, (classes, r) in rows.items():
        c, d = classes[0], classes[-1]
        if bucket == "NF1":
            terms = [_hinge(e, g, ((c, 1), (d, -1)), classes)]
        elif bucket == "NF2":
            d, x = classes[1], classes[2]
            smaller = np.where(e.class_radii[c] <= e.class_radii[d], c, d)  # a tie goes to r(c)
            terms = [
                _hinge(e, g, ((c, -1), (d, -1)), classes),
                _hinge(e, g, ((c, -1),), classes, 0, 2),
                # the printed objective reuses r(c), not r(d), in the third term
                _hinge(e, g, ((c, -1),), classes, 1, 2),
                _hinge(e, g, ((smaller, 1), (x, -1))),
            ]
        elif bucket == "NF3":
            terms = [_hinge(e, g, ((c, 1), (d, -1)), classes, r=r, rel_sign=1)]
        elif bucket == "NF4":
            terms = [_hinge(e, g, ((c, -1), (d, -1)), classes, r=r, rel_sign=-1)]
        elif bucket == "Bot2":
            terms = [_hinge(e, g, ((c, 1), (d, 1)), classes, sign=-1)]
        elif bucket == "neg":
            terms = [_hinge(e, g, ((c, 1), (d, 1)), classes, r=r, rel_sign=1, sign=-1)]
        else:  # Bot1, Bot4: the radius itself, with no unit-sphere term
            out.append((bucket, [], [_Term(e.class_radii[c], ((c, 1),), hinged=False)]))
            continue
        out.append((bucket, classes, terms))
    return out


def _losses(res, e: EmbeddingSet):
    """Per-bucket loss, and the class operands' handles, centers and norms."""
    handles = [h for _, operands, _ in res for h in operands]
    ops = np.concatenate(handles) if handles else _empty(1)
    centers = e.class_centers[ops]
    norms = _norm(centers)
    pens = np.where(ops == e.top, 0.0, np.abs(norms[:, 0] - 1.0))
    out, at = {}, 0
    for bucket, operands, terms in res:
        value = terms[0].value()
        for t in terms[1:]:
            value = value + t.value()
        norm = None
        for h in operands:
            pen = pens[at : at + len(h)]
            norm = pen if norm is None else norm + pen
            at += len(h)
        out[bucket] = float((value if norm is None else value + norm).sum())
    return out, (ops, centers, norms)


def bucket_losses(batch: LossBatch, e: EmbeddingSet) -> dict[str, float]:
    return _losses(_residuals(batch, e), e)[0]


def batch_loss(batch: LossBatch, e: EmbeddingSet) -> float:
    return float(sum(bucket_losses(batch, e).values()))


def _scatter(idx: list, rows: list, shape: tuple) -> np.ndarray:
    """Sum rows into a zero table of ``shape`` at their handles, in list order."""
    if not idx:
        return np.zeros(shape)
    idx, rows = np.concatenate(idx), np.concatenate(rows)
    if len(shape) == 1:
        return np.bincount(idx, weights=rows, minlength=shape[0])
    flat = (idx[:, None] * shape[1] + np.arange(shape[1])).ravel()
    return np.bincount(flat, weights=rows.ravel(), minlength=shape[0] * shape[1]).reshape(shape)


def batch_gradient(batch: LossBatch, e: EmbeddingSet) -> Gradient:
    """Gradient of batch_loss w.r.t. every trainable scalar, and the loss itself.

    One pass over the residual table; each gradient table is one scatter.
    Top gets zero gradient.
    """
    res = _residuals(batch, e)
    per_bucket, (ops, centers, norms) = _losses(res, e)
    sphere = np.sign(norms - 1.0) * _unit(centers, norms)
    c_idx, c_rows, r_idx, r_rows, v_idx, v_rows = [], [], [], [], [], []
    at = 0
    for _, operands, terms in res:
        pulls = [None] * len(operands)  # per class operand, summed over the terms
        for t in terms:
            w = t.weight()
            for h, k in t.radii:
                r_idx.append(h)
                r_rows.append(w if k > 0 else -w)
            if t.u is not None:
                wd = w[:, None] * _unit(t.u, t.norm)
                pa, pb = (wd, -wd) if t.sign > 0 else (-wd, wd)
                for i, p in ((t.a, pa), (t.b, pb)):
                    pulls[i] = p if pulls[i] is None else pulls[i] + p
                if t.r is not None:
                    v_idx.append(t.r)
                    v_rows.append(pa if t.rel_sign > 0 else pb)
        for h, p in zip(operands, pulls):
            if p is not None:
                c_idx.append(h)
                c_rows.append(p)
        for h in operands:
            c_idx.append(h)
            c_rows.append(sphere[at : at + len(h)])
            at += len(h)

    g = Gradient(
        _scatter(c_idx, c_rows, e.class_centers.shape),
        _scatter(r_idx, r_rows, e.class_radii.shape),
        _scatter(v_idx, v_rows, e.rel_vectors.shape),
        float(sum(per_bucket.values())),
    )
    g.class_centers[e.top] = 0.0
    g.class_radii[e.top] = 0.0
    return g


# --- scalar ops ----------------------------------------------------------


def _one(e, bucket: str, row, gamma: float = 0.0) -> float:
    batch = LossBatch(gamma, **{bucket: np.asarray([row], dtype=np.intp)})
    return batch_loss(batch, e)


def loss_nf1(e, c, d, gamma):
    return _one(e, "nf1", (c, d), gamma)


def loss_nf2(e, c, d, ee, gamma):
    return _one(e, "nf2", (c, d, ee), gamma)


def loss_nf3(e, c, d, r, gamma):
    return _one(e, "nf3", (c, r, d), gamma)


def loss_nf4(e, c, d, r, gamma):
    return _one(e, "nf4", (r, c, d), gamma)


def loss_bot1(e, c):
    return _one(e, "bot1", c)


def loss_bot2(e, c, d, gamma):
    return _one(e, "bot2", (c, d), gamma)


def loss_bot4(e, c, r=None):
    # the relation argument does not enter the loss at all
    return loss_bot1(e, c)


def loss_neg(e, c, d, r, gamma):
    return _one(e, "neg", (c, r, d), gamma)
