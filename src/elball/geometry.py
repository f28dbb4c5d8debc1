"""n-ball primitives, the two-ball intersection enclosure, and the model checker.

The checker reads each normal form but NF2 from the first row of its loss in
``losses._ROWS``, at gamma = 0 and without unit-sphere terms: a violation is
that row's hinge argument floored at 0 (containment, disjointness, a zero
radius; NF4's overlap hinge is reported but does not bind). NF2 asks the exact
enclosure of its operands' intersection to lie in the right-hand ball. Balls
are closed for containment, but touching spheres count as disjoint (the
denoted balls are open). Axioms are evaluated as arrays, bucket by bucket,
and the report keeps those arrays: it formats an axiom's text and builds
its AxiomCheck only when asked.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from functools import cached_property
from itertools import repeat
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


def _json_number(x: float):
    """``x``, or its text ("inf", "-inf", "nan") where JSON has no number for it."""
    return x if math.isfinite(x) else repr(float(x))


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
            "violation": _json_number(self.violation),
            "informational": self.informational,
        }


@dataclass(frozen=True)
class FormSummary:
    """One form's axioms in a ModelReport: how many there are, how many are
    violated beyond the tolerance, the largest violation, and the text of
    the axiom that has it (the first on ties; None for an empty form)."""

    count: int
    violated: int
    max: float
    worst: Optional[str]
    informational: bool


@dataclass(eq=False)
class ModelReport:
    """A model check kept as arrays: per form, the operand handle rows (as
    ``NormalizedTheory.handles``) and their violations.

    ``overall``, ``max_violation`` and ``forms`` read the arrays; ``forms``
    formats one row per form. ``checks`` builds one AxiomCheck, text
    included, per axiom on first access. ``axioms`` keeps the bucket
    entries as the theory held them, in the list that ``handles`` was
    converted from (shared, so not to be changed); AxiomCheck.axiom shares those tuples,
    so that building ``checks`` allocates (and garbage-collects) no tuple
    per row.
    """

    tolerance: float
    handles: dict[NormalForm, np.ndarray]
    violations: dict[NormalForm, np.ndarray]
    names: dict[str, np.ndarray]  # as NormalizedTheory.names
    axioms: dict[NormalForm, list]

    def _binding(self) -> list[np.ndarray]:
        return [v for form, v in self.violations.items() if form not in _INFORMATIONAL]

    @property
    def overall(self) -> bool:
        return all(bool((v <= self.tolerance).all()) for v in self._binding())

    @property
    def max_violation(self) -> float:
        return max((float(v.max()) for v in self._binding() if len(v)), default=0.0)

    @cached_property
    def forms(self) -> dict[str, FormSummary]:
        """Each form's summary, by label, in NormalForm order."""
        out = {}
        for form, v in self.violations.items():
            peak, worst = 0.0, None
            if len(v):
                i = int(v.argmax())
                peak, worst = float(v[i]), form.format(self.handles[form][i : i + 1], self.names)[0]
            violated = len(v) - int(np.count_nonzero(v <= self.tolerance))
            out[form.value] = FormSummary(len(v), violated, peak, worst, form in _INFORMATIONAL)
        return out

    @cached_property
    def checks(self) -> list[AxiomCheck]:
        """One AxiomCheck per axiom, forms in NormalForm order."""
        checks = []
        for form, rows in self.handles.items():
            v, axioms = self.violations[form], self.axioms[form]
            if len(form.kinds) == 1:
                axioms = [(c,) for c in axioms]
            checks += map(
                AxiomCheck, repeat(form.value), axioms, form.format(rows, self.names),
                (v <= self.tolerance).tolist(), v.tolist(), repeat(form in _INFORMATIONAL),
            )
        return checks

    def to_dict(self) -> dict:
        return {
            "overall": self.overall,
            "tolerance": _json_number(self.tolerance),
            "max_violation": _json_number(self.max_violation),
            "forms": {
                label: {**asdict(summary), "max": _json_number(summary.max)}
                for label, summary in self.forms.items()
            },
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


def unsatisfiable(form: NormalForm, rows: np.ndarray) -> np.ndarray:
    """Which of a bucket's handle rows Top's rules read as inf: Top on a
    left-hand side, unless a rule makes the row hold (Top < Top)."""
    x = rows.T
    inf, zero = _TOP_RULES[form](x, x == EmbeddingSet.top)
    return np.broadcast_to(np.asarray(inf) & ~np.asarray(zero), len(rows))


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
    center, radius or relation vector among its operands. ``tol`` must be
    non-negative (inf passes every finite violation).
    """
    if not tol >= 0:  # NaN fails too
        raise GeometryError(f"tolerance must be non-negative, not {tol!r}")
    finite = {"c": np.isfinite(e.class_centers).all(axis=1) & np.isfinite(e.class_radii)}
    finite["r"] = np.isfinite(e.rel_vectors).all(axis=1)
    names = theory.names()
    handles, violations, axioms = {}, {}, {}
    for form in NormalForm:
        entries, rows = theory._converted(form)
        ok = np.ones(len(rows), dtype=bool)
        for kind, col in zip(form.kinds, rows.T):
            bad = col.view(np.uintp) >= len(finite[kind])  # a negative handle reads as a huge one
            if bad.any():
                what = "class" if kind == "c" else "relation"
                handle = col[bad.argmax()]
                symbol = repr(names[kind][handle]) if 0 <= handle < len(names[kind]) else f"handle {handle}"
                raise GeometryError(f"no embedding for {what} {symbol}")
            ok &= finite[kind][col]
        v = [_violations(form, rows[i : i + _BLOCK], e) for i in range(0, len(rows), _BLOCK)]
        handles[form], violations[form] = rows, np.where(ok, np.concatenate(v or [[]]), math.inf)
        axioms[form] = entries
    return ModelReport(tol, handles, violations, names, axioms)
