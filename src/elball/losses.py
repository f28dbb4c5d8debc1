"""Training losses for the seven normal forms plus corrupted negatives.

Every normal form is a few rows of one coefficient table (``_FORMS``). A
row's hinge argument is

    arg = s * ||c[a] + q * v[rel] - c[b]|| + k1 * r[h1] + k2 * r[h2] - s * gamma

over class centers c, radii r and relation translations v, with hinge sign
s (+1 containment, -1 disjointness), relation sign q and radius weights k,
each +1, -1 or 0. A hinged row adds max(0, arg); Bot1 and Bot4 add their
radius itself (s = 0, unhinged). Each class operand carries one unit-sphere
term | ||c|| - 1 | through the rows' sphere flags. A batch is evaluated as
that table in one pass: one gather of the center rows' operand centers, one
norm, one hinge; ``batch_gradient`` adds one ``np.bincount`` into a flat
gradient. Radius-only rows (NF2's fourth, Bot1, Bot4) have no center
operands: their norm term is 0.0, and they gather and scatter no center. A
batch may carry a ``work`` dict that keeps the large scratch arrays from one
call to the next; ``train`` gives all its batches one, so a run allocates
them once. The forward half, ``_forward``, also gives
``geometry.check_model`` its violations, so training and verification read
each form from one row.
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


def _frozen(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


_EMPTY = {width: _frozen(_rows((), width)) for width in (1, 2, 3)}  # shared by every batch


@dataclass
class LossBatch:
    """Handle rows per normal form, laid out as NormalizedTheory's buckets,
    and corrupted NF3 rows as ``neg``. An empty bucket is a shared read-only
    array; nothing writes into a batch's buckets.

    ``work`` holds scratch arrays from one loss call to the next; batches
    that share one dict share them, so they must not be evaluated at once.
    Without one, each call allocates its own.
    """

    gamma: float
    nf1: np.ndarray = field(default_factory=lambda: _EMPTY[2])
    nf2: np.ndarray = field(default_factory=lambda: _EMPTY[3])
    nf3: np.ndarray = field(default_factory=lambda: _EMPTY[3])
    nf4: np.ndarray = field(default_factory=lambda: _EMPTY[3])
    bot1: np.ndarray = field(default_factory=lambda: _EMPTY[1])
    bot2: np.ndarray = field(default_factory=lambda: _EMPTY[2])
    bot4: np.ndarray = field(default_factory=lambda: _EMPTY[2])
    neg: np.ndarray = field(default_factory=lambda: _EMPTY[3])
    work: dict | None = field(default=None, compare=False, repr=False)

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
# against itself, a zero vector, so it has no center operands) and NF2's
# smaller operand, the one of c, d with the smaller radius, a tie going to r(c).
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
    nonempty buckets' rows flattened in ``_FORMS`` order. Center rows have
    two class operands; the others are radius-only."""

    is_rel: np.ndarray  # per handle: a relation handle, else a class handle
    limit: np.ndarray  # per handle: its table's size, the unsigned bound it must stay under
    center: np.ndarray | slice  # the center rows in table order, the relation rows first
    nu: int  # how many there are, one u each
    abr: np.ndarray  # handle positions of every center row's operand a, then of b, then the relations
    m_plus: int  # relation rows that add their relation; the rest subtract it
    h: np.ndarray  # positions of every row's radius handle h1, then h2
    k: np.ndarray  # their weights
    s: np.ndarray  # hinge signs
    floor: np.ndarray  # 0 under a hinge, -inf for an unhinged row
    sphere: np.ndarray  # unit-sphere flags of the center rows' a, then b
    smaller: np.ndarray  # slots of h holding NF2's smaller operand (c until chosen)
    smaller_d: np.ndarray  # positions of the d each is compared with
    starts: np.ndarray  # first row of each nonempty form
    order: np.ndarray  # those forms from table order into bucket order
    names: tuple  # the nonempty buckets, in bucket order
    dim: int  # the tables' row width

    @functools.cached_property
    def lanes(self) -> np.ndarray:  # built by a plan's first gradient; forward-only plans hold none
        """0, 1, ..., dim - 1 once per row of abr: a scattered row's offsets from its first."""
        return _frozen(np.tile(np.arange(self.dim), len(self.abr)))


@functools.lru_cache(maxsize=64)
def _plan(sizes: tuple, n_classes: int, n_relations: int, dim: int) -> _Plan:
    """The plan of a batch whose buckets hold ``sizes`` rows, in ``_FORMS``
    order, over tables of ``n_classes`` and ``n_relations`` rows of ``dim``."""
    offsets = np.cumsum([0] + [n * len(form[2]) for n, form in zip(sizes, _FORMS)])
    is_rel = np.zeros(int(offsets[-1]), dtype=bool)
    keys = ("center", "a", "b", "rel", "h1", "k1", "h2", "k2", "s", "fa", "fb", "smaller", "smaller_d")
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
        for a, b, q, s, ((h1, k1), (h2, k2)), (fa, fb) in rows:
            if h1 == _SMALLER:
                cols["smaller"].append(n_rows + np.arange(n))
                cols["smaller_d"].append(base + 1)
            if q:
                cols["rel"].append(base + spec.index("r"))
                m_plus += n if q > 0 else 0
            if a != _TOP:
                cols["center"].append(n_rows + np.arange(n))
                cols["a"].append(base + a)
                cols["b"].append(base + b)
                cols["fa"].append(np.full(n, float(fa)))
                cols["fb"].append(np.full(n, float(fb)))
            cols["h1"].append(base + max(h1, 0))
            cols["h2"].append(base + max(h2, 0))
            for key, value in (("k1", k1), ("k2", k2), ("s", s)):
                cols[key].append(np.full(n, float(value)))
            n_rows += n

    def cat(*keys, dtype=np.intp):
        return np.concatenate([x for key in keys for x in cols[key]] or [[]]).astype(dtype)

    s = cat("s", dtype=float)
    center = cat("center")
    abr = cat("a", "b", "rel")
    plan = _Plan(
        is_rel=is_rel,
        limit=np.where(is_rel, np.uintp(n_relations), np.uintp(n_classes)),
        # a slice when the center rows lead the table, as when no row is radius-only
        center=slice(0, center.size) if np.array_equal(center, np.arange(center.size)) else center,
        nu=center.size,
        abr=abr,
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
        dim=dim,
    )
    for value in vars(plan).values():
        if isinstance(value, np.ndarray):
            _frozen(value)
    return plan


def _scratch(work: dict | None, name: str, shape: tuple, dtype=np.float64) -> np.ndarray:
    """An uninitialized array: ``work``'s ``name`` if it has this shape, else a new one."""
    if work is None:
        return np.empty(shape, dtype)
    array = work.get(name)
    if array is None or array.shape != shape:
        array = work[name] = np.empty(shape, dtype)
    return array


def _forward(batch: LossBatch, e: EmbeddingSet):
    """Every table row's hinge argument, without the unit-sphere terms.

    Only center rows gather centers and take norms; a radius-only row's
    argument starts from a norm term of 0.0, as Top measured against
    itself. Returns the plan, the center rows' operand handles ``abr`` (a,
    then b, then the relations), every row's radius handles ``h``, the
    gathered ``y`` and its norms (see below), and every row's argument, rows
    in table order. ``y`` is scratch from the batch's ``work``. Raises
    ValueError for a bucket whose rows do not have its form's width, and
    MissingSymbolError for any handle outside its table.
    """
    buckets = [getattr(batch, form[1]) for form in _FORMS]
    for (_, name, kinds, _), rows in zip(_FORMS, buckets):
        width = len(kinds)
        if rows.shape[1:] != (width,) and not (width == 1 and rows.ndim == 1):
            raise ValueError(
                f"LossBatch bucket {name} has rows of shape {rows.shape[1:]}, "
                f"not its normal form's width {width}"
            )
    plan = _plan(tuple(len(b) for b in buckets), e.n_classes, e.n_relations, e.dim)
    handles = np.concatenate([b.ravel() for b in buckets if len(b)] or [_EMPTY[1]], dtype=np.intp)
    # a negative handle reads as a huge unsigned one
    bad = handles.view(np.uintp) >= plan.limit
    if bad.any():
        i = int(bad.argmax())
        kind, n = ("relation", e.n_relations) if plan.is_rel[i] else ("class", e.n_classes)
        raise MissingSymbolError(f"{kind} handle {handles[i]} outside the embedding table [0, {n})")

    # y holds every center row's u = c[a] + q * v[rel] - c[b], then c[a], then c[b]
    n, nu = len(plan.s), plan.nu
    abr = handles[plan.abr]
    ab, rel = abr[: 2 * nu], abr[2 * nu :]
    m1, m = plan.m_plus, len(rel)
    y = _scratch(batch.work, "y", (3 * nu, e.dim))
    np.take(e.class_centers, ab, axis=0, out=y[nu:], mode="clip")
    u = y[:nu]
    np.subtract(y[nu : 2 * nu], y[2 * nu :], out=u)
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
    arg = np.zeros(n)
    arg[plan.center] = norm[:nu]
    arg *= plan.s
    arg += kr[:n]
    arg += kr[n:]
    arg -= plan.s * batch.gamma
    return plan, abr, h, y, norm, arg


def _table(batch: LossBatch, e: EmbeddingSet, gradient: bool):
    """Per-bucket losses and, if asked, the flat gradient, in one pass."""
    plan, abr, h, y, norm, arg = _forward(batch, e)
    nc, dim = e.n_classes, e.dim
    size = nc * dim + nc + e.n_relations * dim
    n, nu = len(plan.s), plan.nu
    if not n:
        return {}, np.zeros(size)

    ab = abr[: 2 * nu]
    m1, m = plan.m_plus, len(abr) - 2 * nu  # relation rows that add, all relation rows
    sphere = plan.sphere * (ab != e.top)
    # a radius-only row has no sphere term; its value, never -0.0, would not
    # change by adding 0.0
    pen = sphere * np.abs(norm[nu:] - 1.0)
    value = np.maximum(arg, plan.floor)
    value[plan.center] += pen[:nu]
    value[plan.center] += pen[nu:]
    per_bucket = dict(zip(plan.names, np.add.reduceat(value, plan.starts)[plan.order].tolist()))
    if not gradient:
        return per_bucket, None

    # coef scales each row of y, in place: by s * w / ||u|| into the hinge's
    # pull d arg / d u, by sign(||c|| - 1) / ||c|| into a sphere term's pull
    # on c. u's pull goes + to c[a], - to c[b] and q to the relation; a
    # radius-only row pulls only on its radii.
    w = (arg > plan.floor).astype(np.float64)
    coef = np.concatenate([(w * plan.s)[plan.center], sphere * np.sign(norm[nu:] - 1.0)])
    coef /= np.where(norm > 0, norm, 1.0)
    g = y  # y is not read again
    g *= coef[:, None]
    rows = 2 * nu + m
    weights = _scratch(batch.work, "weights", (rows * dim + 2 * n,))
    pulls = weights[: rows * dim].reshape(rows, dim)
    np.add(g[nu : 2 * nu], g[:nu], out=pulls[:nu])
    np.subtract(g[2 * nu :], g[:nu], out=pulls[nu : 2 * nu])
    pulls[2 * nu : 2 * nu + m1] = g[:m1]
    np.negative(g[m1:m], out=pulls[2 * nu + m1 :])
    np.multiply(plan.k.reshape(2, n), w, out=weights[rows * dim :].reshape(2, n))

    first = abr * dim  # each scattered row's first flat position
    first[2 * nu :] += nc * dim + nc
    idx = _scratch(batch.work, "idx", weights.shape, np.intp)
    np.add(np.repeat(first, dim), plan.lanes, out=idx[: rows * dim])
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
