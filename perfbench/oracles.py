"""Independent recomputations that the benchmark checks the program's outputs against.

Everything here is written from the definitions (the paper's geometry,
pessimistic ranking, Resnik over an annotation-count information
content) in plain numpy and Python. It calls into ``elball`` for nothing
but the data it is given, so a fault in a program layer cannot hide
behind the same fault here.
"""

from __future__ import annotations

import math
from types import SimpleNamespace

import numpy as np

# --- geometry -------------------------------------------------------------


def _norm(u: np.ndarray) -> np.ndarray:
    return np.sqrt(np.sum(u * u, axis=-1))


def hinge_arguments(batch, C, rad, R) -> list[np.ndarray]:
    """Every hinge argument of a loss batch; a term is active when its argument is > 0.

    Bot1/Bot4 are linear in the radius and carry no hinge.
    """
    g = batch.gamma
    out = []
    if len(batch.nf1):
        c, d = batch.nf1.T
        out.append(_norm(C[c] - C[d]) + rad[c] - rad[d] - g)
    if len(batch.nf2):
        c, d, e = batch.nf2.T
        out.append(_norm(C[c] - C[d]) - rad[c] - rad[d] - g)
        out.append(_norm(C[c] - C[e]) - rad[c] - g)
        out.append(_norm(C[d] - C[e]) - rad[c] - g)  # the printed loss reuses r(c)
        out.append(np.minimum(rad[c], rad[d]) - rad[e] - g)
    if len(batch.nf3):
        c, r, d = batch.nf3.T
        out.append(_norm(C[c] + R[r] - C[d]) + rad[c] - rad[d] - g)
    if len(batch.nf4):
        r, c, d = batch.nf4.T
        out.append(_norm(C[c] - R[r] - C[d]) - rad[c] - rad[d] - g)
    if len(batch.bot2):
        c, d = batch.bot2.T
        out.append(rad[c] + rad[d] - _norm(C[c] - C[d]) + g)
    if len(batch.neg):
        c, r, d = batch.neg.T
        out.append(rad[c] + rad[d] - _norm(C[c] + R[r] - C[d]) + g)
    return out


def active_hinges(batch, e) -> tuple[int, int]:
    """(active hinge terms, all hinge terms) of one training batch."""
    args = hinge_arguments(batch, e.class_centers, e.class_radii, e.rel_vectors)
    return sum(int(np.count_nonzero(a > 0)) for a in args), sum(a.size for a in args)


def theory_loss(theory, e, gamma: float) -> float:
    """Summed loss of every axiom of a normalized theory (no negatives).

    Each class operand other than Top adds its unit-sphere term
    | ||center|| - 1 |; Bot1 and Bot4 add the radius of their class.
    """
    C, rad, R, top = e.class_centers, e.class_radii, e.rel_vectors, e.top

    def rows(bucket, width):
        return np.asarray(bucket, dtype=np.intp).reshape(-1, width)

    batch = SimpleNamespace(
        gamma=gamma,
        nf1=rows(theory.nf1, 2),
        nf2=rows(theory.nf2, 3),
        nf3=rows(theory.nf3, 3),
        nf4=rows(theory.nf4, 3),
        bot2=rows(theory.bot2, 2),
        neg=rows([], 3),
    )
    total = sum(float(np.sum(np.maximum(0.0, a))) for a in hinge_arguments(batch, C, rad, R))

    def sphere(idx):
        return float(np.sum(np.where(idx == top, 0.0, np.abs(_norm(C[idx]) - 1.0))))

    for name, cols in (("nf1", (0, 1)), ("nf2", (0, 1, 2)), ("nf3", (0, 2)), ("nf4", (1, 2)), ("bot2", (0, 1))):
        arr = getattr(batch, name)
        total += sum(sphere(arr[:, k]) for k in cols)
    total += float(np.sum(rad[np.asarray(theory.bot1, dtype=np.intp)]))
    total += float(np.sum(rad[rows(theory.bot4, 2)[:, 1]]))
    return total


def _enclosing_ball(ca, ra, cb, rb):
    """Smallest ball around the lens of two overlapping balls, one row per pair.

    The lens's rim lies in the plane where the two sphere equations agree;
    its center sits at fraction t = (gap^2 + ra^2 - rb^2) / (2 gap^2) along
    ca -> cb and its radius is sqrt(ra^2 - (t gap)^2). When one ball holds
    the other the smaller ball is the enclosure. Rows whose balls do not
    overlap (touching counts as disjoint) come back with ``disjoint`` set.
    """
    diff = cb - ca
    gap = _norm(diff)
    disjoint = gap >= ra + rb
    nested = ~disjoint & (gap + np.minimum(ra, rb) <= np.maximum(ra, rb))
    lens = ~disjoint & ~nested
    safe_gap = np.where(lens, gap, 1.0)
    t = (safe_gap**2 + ra**2 - rb**2) / (2.0 * safe_gap**2)
    center = np.where(lens[:, None], ca + t[:, None] * diff, np.where((ra <= rb)[:, None], ca, cb))
    radius = np.where(lens, np.sqrt(np.maximum(0.0, ra**2 - (t * safe_gap) ** 2)), np.minimum(ra, rb))
    return center, radius, disjoint


def model_violations(theory, e) -> dict[str, np.ndarray]:
    """Per-axiom violation of every normal-form bucket, in bucket order.

    Top on a right-hand side always passes; Top on a left-hand side (other
    than Top < Top) cannot be satisfied and reads infinite.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        return _violations(theory, e.class_centers, e.class_radii, e.rel_vectors, e.top)


def _violations(theory, C, rad, R, top):
    inf = math.inf

    def rows(bucket, width):
        return np.asarray(bucket, dtype=np.intp).reshape(-1, width)

    out = {}
    c, d = rows(theory.nf1, 2).T
    v = np.maximum(0.0, _norm(C[c] - C[d]) + rad[c] - rad[d])
    out["NF1"] = np.where((d == top) | (c == d), 0.0, np.where(c == top, inf, v))

    c, d, ee = rows(theory.nf2, 3).T
    center, radius, disjoint = _enclosing_ball(C[c], rad[c], C[d], rad[d])
    # Top as one conjunct leaves the other conjunct's ball
    for is_top, other in ((c == top, d), (d == top, c)):
        center = np.where(is_top[:, None], C[other], center)
        radius = np.where(is_top, rad[other], radius)
        disjoint &= ~is_top
    v = np.maximum(0.0, _norm(center - C[ee]) + radius - rad[ee])
    v = np.where(disjoint | (ee == top), 0.0, v)
    both_top = (c == top) & (d == top)
    out["NF2"] = np.where(both_top, np.where(ee == top, 0.0, inf), v)

    c, r, d = rows(theory.nf3, 3).T
    v = np.maximum(0.0, _norm(C[c] + R[r] - C[d]) + rad[c] - rad[d])
    out["NF3"] = np.where(d == top, 0.0, np.where(c == top, inf, v))

    r, c, d = rows(theory.nf4, 3).T
    out["NF4"] = np.maximum(0.0, _norm(C[c] - R[r] - C[d]) - rad[c] - rad[d])

    c = np.asarray(theory.bot1, dtype=np.intp)
    out["Bot1"] = np.where(c == top, inf, np.maximum(0.0, rad[c]))

    c, d = rows(theory.bot2, 2).T
    v = np.maximum(0.0, rad[c] + rad[d] - _norm(C[c] - C[d]))
    out["Bot2"] = np.where((c == top) | (d == top), inf, v)

    r, c = rows(theory.bot4, 2).T
    out["Bot4"] = np.where(c == top, inf, np.maximum(0.0, rad[c]))
    return out


def normal_form(axiom, bot: int):
    """(bucket, entry) of a GCI that is already in one of the seven normal forms, else None.

    Entries use the NormalizedTheory layouts: NF3 (C, r, D), NF4 (r, C, D),
    Bot4 (r, C), Bot1 a bare class. Concepts are told apart by their fields.
    """
    sub, sup = axiom.sub, axiom.sup

    def atomic(c):
        return hasattr(c, "cls") and c.cls != bot

    if not hasattr(sup, "cls"):
        if atomic(sub) and hasattr(sup, "filler") and atomic(sup.filler):
            return "nf3", (sub.cls, sup.relation, sup.filler.cls)
        return None
    to_bot = sup.cls == bot
    if atomic(sub):
        return ("bot1", sub.cls) if to_bot else ("nf1", (sub.cls, sup.cls))
    if hasattr(sub, "left") and atomic(sub.left) and atomic(sub.right):
        pair = (sub.left.cls, sub.right.cls)
        return ("bot2", pair) if to_bot else ("nf2", pair + (sup.cls,))
    if hasattr(sub, "filler") and atomic(sub.filler):
        pair = (sub.relation, sub.filler.cls)
        return ("bot4", pair) if to_bot else ("nf4", pair + (sup.cls,))
    return None


# --- link ranking ---------------------------------------------------------


def entity_index(class_names) -> dict[str, int]:
    """Class name -> row, where an entity "p" also names its "{p}" class."""
    index = {name: i for i, name in enumerate(class_names)}
    for name, i in list(index.items()):
        if len(name) > 2 and name[0] == "{" and name[-1] == "}":
            index.setdefault(name[1:-1], i)
    return index


def embedding_scorer(e, class_names, relation_names, gamma):
    """score(head, rel, tails) = -max(0, ||c_h + r - c_t|| - r_h - r_t - gamma)."""
    cls = entity_index(class_names)
    rel = {name: i for i, name in enumerate(relation_names)}
    C, rad, R = e.class_centers, e.class_radii, e.rel_vectors

    def score(head, relation, tails):
        h, t = cls[head], np.asarray([cls[x] for x in tails], dtype=np.intp)
        gaps = np.linalg.norm(C[h] + R[rel[relation]] - C[t], axis=-1)
        return -np.maximum(0.0, gaps - rad[h] - rad[t] - gamma)

    return score


def ranking(split, score, queries=None) -> dict[str, float]:
    """Raw and filtered hits@10/100, mean rank and AUC by brute force.

    ``queries`` defaults to the split's test triples. The candidate pool
    of a relation is every tail it has in any of the split's triples.
    Ties rank the true tail last. Filtering drops the train and valid
    tails of the query's (head, relation), never the true tail.
    """
    triples = list(split.train) + list(split.valid) + list(split.test)
    pools: dict = {}
    for _, r, t in triples:
        pools.setdefault(r, {})[t] = None
    known: dict = {}
    for h, r, t in list(split.train) + list(split.valid):
        known.setdefault((h, r), set()).add(t)

    ranks = {"raw": [], "filtered": []}
    aucs = {"raw": [], "filtered": []}
    queries = split.test if queries is None else queries
    for h, r, t in queries:
        pool = list(pools[r])
        position = {x: i for i, x in enumerate(pool)}
        scores = np.asarray(score(h, r, pool), dtype=np.float64)
        true_score = scores[position[t]]
        others = np.ones(len(pool), dtype=bool)
        others[position[t]] = False
        kept = np.ones(len(pool), dtype=bool)
        kept[[position[x] for x in known.get((h, r), ()) if x != t]] = False
        for mode, keep in (("raw", others), ("filtered", others & kept)):
            n = int(np.count_nonzero(keep)) + 1
            rank = 1 + int(np.count_nonzero(keep & (scores >= true_score)))
            ranks[mode].append(rank)
            aucs[mode].append(1.0 if n <= 1 else (n - rank) / (n - 1))

    out = {}
    for mode in ("raw", "filtered"):
        rk = np.asarray(ranks[mode])
        out[f"{mode}_hits10"] = float(np.mean(rk <= 10))
        out[f"{mode}_hits100"] = float(np.mean(rk <= 100))
        out[f"{mode}_mean_rank"] = float(np.mean(rk))
        out[f"{mode}_auc"] = float(np.mean(aucs[mode]))
    out["n_queries"] = len(queries)
    return out


# --- Resnik best-match average ---------------------------------------------


class Resnik:
    """Resnik similarity from a plain ancestor closure and annotation counts.

    A class with no asserted superclass hangs under the root. IC(c) is
    -log(p(c)), p(c) being the share of annotated entities with c among
    the ancestors of one of their classes; a class no entity reaches has
    no IC and is skipped.
    """

    def __init__(self, edges, annotations: dict, root: str):
        parents: dict = {root: set()}
        for child, parent in edges:
            parents.setdefault(parent, set())
            if child != parent:
                parents.setdefault(child, set()).add(parent)
        for cls, ups in parents.items():
            if cls != root and not ups:
                ups.add(root)

        self.ancestors: dict = {}
        for cls in parents:
            seen, stack = {cls}, [cls]
            while stack:
                for up in parents[stack.pop()]:
                    if up not in seen:
                        seen.add(up)
                        stack.append(up)
            self.ancestors[cls] = frozenset(seen)

        counts = dict.fromkeys(parents, 0)
        for classes in annotations.values():
            for cls in set().union(*(self.ancestors[c] for c in classes)):
                counts[cls] += 1
        total = counts[root]
        self.ic = {c: -math.log(n / total) for c, n in counts.items() if n > 0}
        self.annotations = {k: sorted(v) for k, v in annotations.items()}

        self._memo: dict = {}

    def resnik(self, c1, c2) -> float:
        if (c1, c2) not in self._memo:
            common = self.ancestors[c1] & self.ancestors[c2]
            self._memo[c1, c2] = max((self.ic[c] for c in common if c in self.ic), default=0.0)
        return self._memo[c1, c2]

    def bma(self, e1, e2) -> float:
        a1, a2 = self.annotations.get(e1), self.annotations.get(e2)
        if not a1 or not a2:
            return -math.inf
        best1 = [max(self.resnik(x, y) for y in a2) for x in a1]
        best2 = [max(self.resnik(x, y) for x in a1) for y in a2]
        return 0.5 * (sum(best1) / len(best1) + sum(best2) / len(best2))
