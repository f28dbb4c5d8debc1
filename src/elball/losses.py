"""Training losses for the seven normal forms plus corrupted negatives.

Every normal form is a few rows of one coefficient table (``_FORMS``). A
row's hinge argument is

    arg = s * ||c[a] + q * v[rel] - c[b]|| + k1 * r[h1] + k2 * r[h2] - s * gamma

over class centers c, radii r and relation translations v, with hinge sign
s (+1 containment, -1 disjointness), relation sign q and radius weights k,
each +1, -1 or 0. A hinged row adds max(0, arg); Bot1 and Bot4 add their
radius itself (s = 0, unhinged). Each class operand carries one unit-sphere
term | ||c|| - 1 | through the rows' sphere flags. A batch is evaluated as
that table in one pass: one gather of the operands' centers, one norm, one
hinge; ``batch_gradient`` adds one ``np.bincount`` into a flat gradient.
The forward half, ``_forward``, also gives ``geometry.check_model`` its
violations, so training and verification read each form from one row.
Subgradient convention at non-differentiable points: the zero side (hinges
contribute nothing at the kink, the norm direction is zero at a zero
vector, sign is zero exactly on the unit sphere).

Top participates with its sentinel radius, its normalization term is
skipped (its center is frozen and carries no unit-sphere constraint), and
it receives zero gradient.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .embeddings import EmbeddingSet, table_views
from .normalizer import NormalForm, NormalizedTheory


class MissingSymbolError(Exception):
    pass


def _rows(entries, width: int) -> np.ndarray:
    """Handle rows as an (n, width) array, or a flat one when width is 1."""
    return np.asarray(entries, dtype=np.intp).reshape((-1, width) if width > 1 else -1)


@dataclass
class LossBatch:
    """Handle rows per normal form, laid out as NormalizedTheory's buckets,
    and corrupted NF3 rows as ``neg``."""

    gamma: float
    nf1: np.ndarray = field(default_factory=lambda: _rows((), 2))
    nf2: np.ndarray = field(default_factory=lambda: _rows((), 3))
    nf3: np.ndarray = field(default_factory=lambda: _rows((), 3))
    nf4: np.ndarray = field(default_factory=lambda: _rows((), 3))
    bot1: np.ndarray = field(default_factory=lambda: _rows((), 1))
    bot2: np.ndarray = field(default_factory=lambda: _rows((), 2))
    bot4: np.ndarray = field(default_factory=lambda: _rows((), 2))
    neg: np.ndarray = field(default_factory=lambda: _rows((), 3))

    @classmethod
    def from_theory(cls, theory: NormalizedTheory, gamma: float) -> "LossBatch":
        rows = {f.field: _rows(theory.handles(f), len(f.kinds)) for f in NormalForm}
        return cls(gamma=gamma, **rows)


@dataclass
class Gradient:
    """d batch_loss / d every trainable scalar (Top's zero), and the loss.

    ``flat`` is laid out [centers | radii | relations], as the trainer's
    parameter buffer; the three tables are views into it. ``buckets`` holds
    the loss of each nonempty bucket, as ``bucket_losses``; ``loss`` is their sum.
    """

    flat: np.ndarray
    class_centers: np.ndarray
    class_radii: np.ndarray
    rel_vectors: np.ndarray
    loss: float
    buckets: dict[str, float]


# --- the coefficient table ----------------------------------------------

# Operands beyond a form's own columns: Top (a radius-only row measures Top
# against itself, a zero vector) and NF2's smaller operand, the one of c, d
# with the smaller radius, a tie going to r(c).
_TOP, _SMALLER = -1, -2

# Each form's rows. A row is (a, b, q, s, ((h1, k1), (h2, k2)), (sphere a,
# sphere b)), where a, b, h1 and h2 are operand columns of the form's
# ``NormalForm.kinds`` and q applies the form's relation.
_ROWS = {
    NormalForm.NF1: [(0, 1, 0, 1, ((0, 1), (1, -1)), (1, 1))],
    NormalForm.NF2: [
        (0, 1, 0, 1, ((0, -1), (1, -1)), (1, 1)),
        (0, 2, 0, 1, ((0, -1), (0, 0)), (0, 1)),
        # the printed objective reuses r(c), not r(d), in the third term
        (1, 2, 0, 1, ((0, -1), (0, 0)), (0, 0)),
        (_TOP, _TOP, 0, 1, ((_SMALLER, 1), (2, -1)), (0, 0)),
    ],
    NormalForm.NF3: [(0, 2, 1, 1, ((0, 1), (2, -1)), (1, 1))],
    NormalForm.NF4: [(1, 2, -1, 1, ((1, -1), (2, -1)), (1, 1))],
    NormalForm.BOT1: [(_TOP, _TOP, 0, 0, ((0, 1), (0, 0)), (0, 0))],
    NormalForm.BOT2: [(0, 1, 0, -1, ((0, 1), (1, 1)), (1, 1))],
    # the relation is checked but does not enter the loss
    NormalForm.BOT4: [(_TOP, _TOP, 0, 0, ((1, 1), (1, 0)), (0, 0))],
}
# (label, LossBatch field, operand kinds, rows) of every bucket, the
# negatives last
_FORMS = tuple((f.value, f.field, f.kinds, _ROWS[f]) for f in NormalForm) + (
    ("neg", "neg", "crc", [(0, 2, 1, -1, ((0, 1), (2, 1)), (1, 1))]),
)
# forms that add their relation come first, then those that subtract it,
# so the table's relation rows are a prefix of it, in two runs
_TABLE_ORDER = sorted(range(len(_FORMS)), key=lambda i: {1: 0, -1: 1, 0: 2}[_FORMS[i][3][0][2]])


@dataclass(frozen=True)
class _Plan:
    """Where each table column comes from in a batch's handle vector: the
    nonempty buckets' rows flattened in ``_FORMS`` order, then Top."""

    is_rel: np.ndarray  # per handle: a relation handle, else a class handle
    abr: np.ndarray  # handle positions of every row's operand a, then of b, then the relations
    m_plus: int  # relation rows that add their relation; the rest subtract it
    h: np.ndarray  # positions of every row's radius handle h1, then h2
    k: np.ndarray  # their weights
    s: np.ndarray  # hinge signs
    floor: np.ndarray  # 0 under a hinge, -inf for an unhinged row
    sphere: np.ndarray  # unit-sphere flags of a, then b
    smaller: np.ndarray  # slots of h holding NF2's smaller operand (c until chosen)
    smaller_d: np.ndarray  # positions of the d each is compared with
    starts: np.ndarray  # first row of each nonempty form
    order: np.ndarray  # those forms from table order into bucket order
    names: tuple  # the nonempty buckets, in bucket order


@functools.lru_cache(maxsize=64)
def _plan(sizes: tuple) -> _Plan:
    """The plan of a batch whose buckets hold ``sizes`` rows, in ``_FORMS`` order."""
    offsets = np.cumsum([0] + [n * len(form[2]) for n, form in zip(sizes, _FORMS)])
    top = int(offsets[-1])
    is_rel = np.zeros(top + 1, dtype=bool)
    keys = ("a", "b", "rel", "h1", "k1", "h2", "k2", "s", "fa", "fb", "smaller", "smaller_d")
    cols = {key: [] for key in keys}
    starts, blocks = [], []
    n_rows = m_plus = 0
    for i in _TABLE_ORDER:
        _, _, spec, rows = _FORMS[i]
        n = sizes[i]
        if not n:
            continue
        base = offsets[i] + len(spec) * np.arange(n)
        for j, kind in enumerate(spec):
            is_rel[base + j] = kind == "r"
        starts.append(n_rows)
        blocks.append(i)

        def at(col):
            return np.full(n, top) if col == _TOP else base + max(col, 0)

        for a, b, q, s, ((h1, k1), (h2, k2)), (fa, fb) in rows:
            if h1 == _SMALLER:
                cols["smaller"].append(n_rows + np.arange(n))
                cols["smaller_d"].append(base + 1)
            if q:
                cols["rel"].append(base + spec.index("r"))
                m_plus += n if q > 0 else 0
            for key, col in (("a", a), ("b", b), ("h1", h1), ("h2", h2)):
                cols[key].append(at(col))
            for key, value in (("k1", k1), ("k2", k2), ("s", s), ("fa", fa), ("fb", fb)):
                cols[key].append(np.full(n, float(value)))
            n_rows += n

    def cat(*keys, dtype=np.intp):
        return np.concatenate([x for key in keys for x in cols[key]] or [[]]).astype(dtype)

    s = cat("s", dtype=float)
    plan = _Plan(
        is_rel=is_rel,
        abr=cat("a", "b", "rel"),
        m_plus=m_plus,
        h=cat("h1", "h2"),
        k=cat("k1", "k2", dtype=float),
        s=s,
        floor=np.where(s != 0, 0.0, -np.inf),
        sphere=cat("fa", "fb", dtype=float),
        smaller=cat("smaller"),
        smaller_d=cat("smaller_d"),
        starts=np.asarray(starts, dtype=np.intp),
        order=np.argsort(blocks),
        names=tuple(_FORMS[i][0] for i in sorted(blocks)),
    )
    for value in vars(plan).values():
        if isinstance(value, np.ndarray):
            value.flags.writeable = False
    return plan


def _forward(batch: LossBatch, e: EmbeddingSet):
    """Every table row's hinge argument, without the unit-sphere terms.

    Returns the plan, the rows' operand handles ``abr`` (a, then b, then the
    relations) and radius handles ``h``, the gathered ``y`` and its norms (see
    below), and the arguments, rows in table order. Raises
    MissingSymbolError for any handle outside its table.
    """
    buckets = [getattr(batch, form[1]) for form in _FORMS]
    plan = _plan(tuple(len(b) for b in buckets))
    handles = np.concatenate([b.ravel() for b in buckets if len(b)] + [[e.top]], dtype=np.intp)
    if handles.size != plan.is_rel.size:
        raise ValueError("a LossBatch bucket does not have its normal form's width")
    # a negative handle reads as a huge unsigned one
    limit = np.where(plan.is_rel, np.uintp(e.n_relations), np.uintp(e.n_classes))
    bad = handles.view(np.uintp) >= limit
    if bad.any():
        i = int(bad.argmax())
        kind, n = ("relation", e.n_relations) if plan.is_rel[i] else ("class", e.n_classes)
        raise MissingSymbolError(f"{kind} handle {handles[i]} outside the embedding table [0, {n})")

    # y holds every row's u = c[a] + q * v[rel] - c[b], then c[a], then c[b]
    n = len(plan.s)
    abr = handles[plan.abr]
    ab, rel = abr[: 2 * n], abr[2 * n :]
    m1, m = plan.m_plus, len(rel)
    y = np.empty((3 * n, e.dim))
    np.take(e.class_centers, ab, axis=0, out=y[n:], mode="clip")
    u = y[:n]
    np.subtract(y[n : 2 * n], y[2 * n :], out=u)
    if m1:
        u[:m1] += e.rel_vectors[rel[:m1]]
    if m > m1:
        u[m1:m] -= e.rel_vectors[rel[m1:]]
    norm = np.sqrt(np.einsum("ij,ij->i", y, y))

    h = handles[plan.h]
    if plan.smaller.size:
        c, d = h[plan.smaller], handles[plan.smaller_d]
        h[plan.smaller] = np.where(e.class_radii[c] <= e.class_radii[d], c, d)
    kr = plan.k * e.class_radii[h]
    arg = plan.s * norm[:n]
    arg += kr[:n]
    arg += kr[n:]
    arg -= plan.s * batch.gamma
    return plan, abr, h, y, norm, arg


def _table(batch: LossBatch, e: EmbeddingSet, gradient: bool):
    """Per-bucket losses and, if asked, the flat gradient, in one pass."""
    plan, abr, h, y, norm, arg = _forward(batch, e)
    nc, dim = e.n_classes, e.dim
    size = nc * dim + nc + e.n_relations * dim
    n = len(plan.s)
    if not n:
        return {}, np.zeros(size)

    ab = abr[: 2 * n]
    m1, m = plan.m_plus, len(abr) - 2 * n  # relation rows that add, all relation rows
    sphere = plan.sphere * (ab != e.top)
    pen = sphere * np.abs(norm[n:] - 1.0)
    value = np.maximum(arg, plan.floor) + pen[:n] + pen[n:]
    per_bucket = dict(zip(plan.names, np.add.reduceat(value, plan.starts)[plan.order].tolist()))
    if not gradient:
        return per_bucket, None

    # coef scales each row of y: by s * w / ||u|| into the hinge's pull
    # d arg / d u, by sign(||c|| - 1) / ||c|| into a sphere term's pull on c.
    # u's pull goes + to c[a], - to c[b] and q to the relation.
    w = (arg > plan.floor).astype(np.float64)
    coef = np.concatenate([w * plan.s, sphere * np.sign(norm[n:] - 1.0)])
    coef /= np.where(norm > 0, norm, 1.0)
    g = y * coef[:, None]
    rows = 2 * n + m
    weights = np.empty(rows * dim + 2 * n)
    pulls = weights[: rows * dim].reshape(rows, dim)
    np.add(g[n : 2 * n], g[:n], out=pulls[:n])
    np.subtract(g[2 * n :], g[:n], out=pulls[n : 2 * n])
    pulls[2 * n : 2 * n + m1] = g[:m1]
    np.negative(g[m1:m], out=pulls[2 * n + m1 :])
    np.multiply(plan.k.reshape(2, n), w, out=weights[rows * dim :].reshape(2, n))

    first = abr * dim  # each scattered row's first flat position
    first[2 * n :] += nc * dim + nc
    idx = np.empty(weights.size, dtype=np.intp)
    np.add(first[:, None], np.arange(dim), out=idx[: rows * dim].reshape(rows, dim))
    np.add(h, nc * dim, out=idx[rows * dim :])
    flat = np.bincount(idx, weights, minlength=size)
    flat[e.top * dim : (e.top + 1) * dim] = 0.0
    flat[nc * dim + e.top] = 0.0
    return per_bucket, flat


def bucket_losses(batch: LossBatch, e: EmbeddingSet) -> dict[str, float]:
    return _table(batch, e, gradient=False)[0]


def batch_loss(batch: LossBatch, e: EmbeddingSet) -> float:
    return float(sum(bucket_losses(batch, e).values()))


def batch_gradient(batch: LossBatch, e: EmbeddingSet) -> Gradient:
    """Gradient of batch_loss w.r.t. every trainable scalar, and the loss itself.

    One pass over the coefficient table and one scatter. Top gets zero
    gradient.
    """
    per_bucket, flat = _table(batch, e, gradient=True)
    views = table_views(flat, e.n_classes, e.dim)
    return Gradient(flat, *views, float(sum(per_bucket.values())), per_bucket)
