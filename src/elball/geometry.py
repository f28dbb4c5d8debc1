"""n-ball primitives, the two-ball intersection enclosure, and the model checker.

The checker reads each normal form but NF2 from the first row of its loss in
``losses._ROWS``, at gamma = 0 and without unit-sphere terms: a violation is
that row's hinge argument floored at 0 (containment, disjointness, a zero
radius; NF4's overlap hinge is reported but does not bind). NF2 asks the exact
enclosure of its operands' intersection to lie in the right-hand ball. Balls
are closed for containment, but touching spheres count as disjoint (the
denoted balls are open). Axioms are evaluated as arrays, bucket by bucket.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import losses
from .embeddings import EmbeddingSet
from .normalizer import NormalForm, NormalizedTheory


class GeometryError(Exception):
    pass


@dataclass(frozen=True)
class Ball:
    center: np.ndarray
    radius: float

    def __post_init__(self):
        if self.radius < 0:
            raise GeometryError(f"negative radius {self.radius}")


def _check_dims(a: Ball, b: Ball) -> None:
    if a.center.shape != b.center.shape:
        raise GeometryError(f"dimension mismatch: {a.center.shape} vs {b.center.shape}")


def containment_violation(inner: Ball, outer: Ball) -> float:
    """max(0, ||c_in - c_out|| + r_in - r_out); zero iff inner lies in outer."""
    _check_dims(inner, outer)
    gap = float(np.linalg.norm(inner.center - outer.center))
    return max(0.0, gap + inner.radius - outer.radius)


def _norm(u: np.ndarray) -> np.ndarray:
    return np.sqrt(np.einsum("ij,ij->i", u, u))


_DISJOINT, _A, _B, _LENS = range(4)


def _enclosures(ca, ra, cb, rb):
    """Row-wise smallest ball containing the intersection of balls a and b.

    Returns each row's kind, the enclosure's center and its radius. A row is
    _DISJOINT when the boundary spheres at most touch, _A or _B when that
    ball is the smaller one and lies in the other (this also covers
    concentric centers, where the chord formula is singular), else _LENS.
    """
    # Top's sentinel radius overflows the chord formula; those rows do not read it
    with np.errstate(over="ignore", invalid="ignore"):
        gap = _norm(ca - cb)
        nested = gap + np.minimum(ra, rb) <= np.maximum(ra, rb)
        kind = np.select([gap >= ra + rb, nested], [_DISJOINT, np.where(ra <= rb, _A, _B)], _LENS)
        safe = np.where(gap > 0, gap, 1.0)
        h = (ra**2 - rb**2 + gap**2) / (2.0 * safe)
        lens = kind == _LENS
        center = np.where(lens[:, None], ca + (h / safe)[:, None] * (cb - ca), ca)
        center = np.where((kind == _B)[:, None], cb, center)
        radius = np.where(lens, np.sqrt(np.maximum(0.0, ra**2 - h**2)), np.where(kind == _B, rb, ra))
    return kind, center, radius


def intersection_ball(a: Ball, b: Ball) -> Optional[Ball]:
    """Smallest ball containing the intersection of a and b, or None if disjoint.

    When one ball contains the other, the smaller ball itself is returned.
    Touching boundary spheres count as disjoint.
    """
    _check_dims(a, b)
    (kind,), (center,), (radius,) = _enclosures(
        a.center[None], np.array([a.radius]), b.center[None], np.array([b.radius])
    )
    if kind == _LENS:
        return Ball(center, float(radius))
    return None if kind == _DISJOINT else (a if kind == _A else b)


@dataclass
class AxiomCheck:
    form: str
    axiom: tuple
    text: str
    satisfied: bool
    violation: float
    informational: bool = False

    def to_dict(self) -> dict:
        return {
            "form": self.form,
            "axiom": self.text,
            "satisfied": self.satisfied,
            "violation": self.violation,
            "informational": self.informational,
        }


@dataclass
class ModelReport:
    checks: list[AxiomCheck] = field(default_factory=list)
    tolerance: float = 0.0

    @property
    def overall(self) -> bool:
        return all(c.satisfied for c in self.checks if not c.informational)

    @property
    def max_violation(self) -> float:
        binding = [c.violation for c in self.checks if not c.informational]
        return max(binding, default=0.0)

    def to_dict(self) -> dict:
        return {
            "overall": self.overall,
            "tolerance": self.tolerance,
            "max_violation": self.max_violation,
            "checks": [c.to_dict() for c in self.checks],
        }


_BLOCK = 1024  # axioms evaluated at once; bounds the gathered rows' memory

# Top's rules over a block's columns x and their Top flags t: the rows that
# read inf (a left-hand side of Top), then those that read 0 (they always hold)
_TOP_RULES = {
    NormalForm.NF1: lambda x, t: (t[0], t[1] | (x[0] == x[1])),
    NormalForm.NF2: lambda x, t: (t[0] & t[1], t[2]),
    NormalForm.NF3: lambda x, t: (t[0], t[2]),
    NormalForm.NF4: lambda x, t: (False, False),
    NormalForm.BOT1: lambda x, t: (t[0], False),
    NormalForm.BOT2: lambda x, t: (t[0] | t[1], False),
    NormalForm.BOT4: lambda x, t: (t[1], False),
}

# forms reported without a verdict: NF4's overlap hinge does not entail the
# subsumption it stands for
_INFORMATIONAL = (NormalForm.NF4,)


def _violations(form: NormalForm, block: np.ndarray, e: EmbeddingSet) -> np.ndarray:
    """Violations of one block of a bucket's rows, Top's rules applied."""
    x = block.T
    C, r = e.class_centers, e.class_radii
    # Top's sentinel radius and non-finite operands can overflow; the masks
    # decide those rows
    with np.errstate(over="ignore", invalid="ignore"):
        if form is NormalForm.NF2:
            kind, center, radius = _enclosures(C[x[0]], r[x[0]], C[x[1]], r[x[1]])
            v = np.where(kind == _DISJOINT, 0.0, _norm(center - C[x[2]]) + radius - r[x[2]])
        else:
            batch = losses.LossBatch(gamma=0.0, **{form.field: block})
            v = losses._forward(batch, e)[-1][: len(block)]  # the form's first row
        inf, zero = _TOP_RULES[form](x, x == e.top)
        return np.where(zero, 0.0, np.where(inf, math.inf, np.maximum(v, 0.0)))


def check_model(theory: NormalizedTheory, e: EmbeddingSet, tol: float) -> ModelReport:
    """Check the Table-1 conditions of a finished embedding, axiom by axiom.

    NF4 is reported informationally only. Top on a right-hand side always
    passes; Top on a left-hand side (other than Top < Top) is unsatisfiable
    by construction and reads inf, and so does any axiom with a non-finite
    center, radius or relation vector among its operands.
    """
    finite = {"c": np.isfinite(e.class_centers).all(axis=1) & np.isfinite(e.class_radii)}
    finite["r"] = np.isfinite(e.rel_vectors).all(axis=1)
    names = theory.names()
    report = ModelReport(tolerance=tol)
    for form in NormalForm:
        rows = theory.handles(form)
        ok = np.ones(len(rows), dtype=bool)
        for kind, col in zip(form.kinds, rows.T):
            bad = col >= len(finite[kind])
            if bad.any():
                what = "class" if kind == "c" else "relation"
                raise GeometryError(f"no embedding for {what} {names[kind][col[bad.argmax()]]!r}")
            ok &= finite[kind][col]
        v = [_violations(form, rows[i : i + _BLOCK], e) for i in range(0, len(rows), _BLOCK)]
        v = np.where(ok, np.concatenate(v or [[]]), math.inf)
        axioms = getattr(theory, form.field)
        axioms = [(c,) for c in axioms] if len(form.kinds) == 1 else axioms
        label, informational = form.value, form in _INFORMATIONAL
        report.checks += [
            AxiomCheck(label, axiom, text, bool(x <= tol), x, informational)
            for axiom, text, x in zip(axioms, form.format(rows, names), v.tolist())
        ]
    return report
