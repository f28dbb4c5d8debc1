"""Resnik/Lin similarity over a subsumption taxonomy, with best-match average.

Information content comes from annotation frequency: entity annotations
propagate to all ancestors, p(c) is the annotated fraction relative to the
root, and IC(c) = -log p(c). Classes with zero annotation support have
undefined IC and are excluded from common-ancestor maxima.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from itertools import repeat
from operator import add
from typing import Callable, Hashable, Iterable, Optional

import numpy as np

from .ontology import TOP_NAME

MEASURES = ("resnik", "lin")


class SemSimError(Exception):
    pass


@dataclass
class TaxonomyIndex:
    """A subsumption taxonomy over nodes, with annotation-based IC.

    The classes of one cycle share a node. Every node's ancestors include
    itself and the root's node, so they form a DAG under the root.
    """

    node_of: dict[Hashable, int]  # class -> node, shared by the classes of a cycle
    ancestors: dict[int, frozenset[int]]  # node -> ancestor nodes incl. self and the root
    ic: dict[int, Optional[float]]  # node -> IC, None when unannotated
    annotations: dict[Hashable, frozenset[Hashable]]  # entity -> classes

    def class_ic(self, cls) -> Optional[float]:
        return self.ic[self._node(cls)]

    def _node(self, cls) -> int:
        try:
            return self.node_of[cls]
        except KeyError:
            raise SemSimError(f"unknown class {cls!r}") from None

    def resnik(self, c1, c2) -> float:
        """Max IC over common ancestors (the root guarantees a floor of 0)."""
        common = self.ancestors[self._node(c1)] & self.ancestors[self._node(c2)]
        values = [self.ic[n] for n in common if self.ic[n] is not None]
        return max(values, default=0.0)

    def lin(self, c1, c2) -> float:
        ic1, ic2 = self.class_ic(c1), self.class_ic(c2)
        if ic1 is None or ic2 is None or ic1 + ic2 == 0.0:
            return 0.0
        return 2.0 * self.resnik(c1, c2) / (ic1 + ic2)

    def pairwise(self, measure: str) -> Callable[[Hashable, Hashable], float]:
        try:
            return {"resnik": self.resnik, "lin": self.lin}[measure]
        except KeyError:
            raise SemSimError(f"unknown measure {measure!r}") from None

    def entity_similarity(self, e1, e2, measure: str = "resnik") -> float:
        """BMA similarity between two annotated entities; -inf if unannotated."""
        a1 = self.annotations.get(e1, frozenset())
        a2 = self.annotations.get(e2, frozenset())
        if not a1 or not a2:
            return -math.inf
        return bma_similarity(a1, a2, self.pairwise(measure))


def bma_similarity(
    classes1: Iterable[Hashable],
    classes2: Iterable[Hashable],
    pairwise: Callable[[Hashable, Hashable], float],
) -> float:
    """Symmetric best-match average of pairwise class similarities.

    Each side's best matches are added left to right from 0.0 in sorted class
    order, so the float result depends neither on a set's iteration order
    (PYTHONHASHSEED) nor on the Python version (``sum`` is compensated from 3.12).
    """
    c1, c2 = sorted(classes1), sorted(classes2)
    if not c1 or not c2:
        raise SemSimError("best-match average requires nonempty annotation sets")
    best1 = [max(pairwise(a, b) for b in c2) for a in c1]
    best2 = [max(pairwise(a, b) for a in c1) for b in c2]
    return 0.5 * (reduce(add, best1, 0.0) / len(best1) + reduce(add, best2, 0.0) / len(best2))


def build_taxonomy(
    edges: Iterable[tuple[Hashable, Hashable]],
    annotations: dict[Hashable, Iterable[Hashable]],
    root: Hashable = TOP_NAME,
) -> TaxonomyIndex:
    """Index a taxonomy from (subclass, superclass) edges and entity annotations.

    The classes are the root and both ends of every edge whose ends differ.
    Every class but the root has the root as a parent, so the root is an
    ancestor of every class and no IC is negative. Each class's ancestors
    are found by a stack walk up the parents; classes with equal ancestor
    sets, exactly the members of one cycle, share one node.
    """
    parents: dict[Hashable, set] = {root: set()}
    for child, parent in edges:
        if child != parent:
            parents.setdefault(child, {root}).add(parent)
            parents.setdefault(parent, {root})

    closure_node: dict[frozenset, int] = {}  # ancestor set -> node
    node_of = {}
    for cls in parents:
        seen, stack = {cls}, [cls]
        while stack:
            for parent in parents[stack.pop()]:
                if parent not in seen:
                    seen.add(parent)
                    stack.append(parent)
        node_of[cls] = closure_node.setdefault(frozenset(seen), len(closure_node))
    ancestors = {node: frozenset(map(node_of.__getitem__, c)) for c, node in closure_node.items()}

    annot = {entity: frozenset(classes) for entity, classes in annotations.items()}
    counts = dict.fromkeys(ancestors, 0)
    for entity, classes in annot.items():
        for cls in classes:
            if cls not in node_of:
                raise SemSimError(f"entity {entity!r} annotated with unknown class {cls!r}")
        for node in frozenset().union(*(ancestors[node_of[c]] for c in classes)):
            counts[node] += 1
    # the root is an ancestor of every class, so count > 0 implies total > 0
    total = counts[node_of[root]]
    ic = {node: -math.log(count / total) if count else None for node, count in counts.items()}

    return TaxonomyIndex(node_of=node_of, ancestors=ancestors, ic=ic, annotations=annot)


def _similarity_table(index: TaxonomyIndex, nodes: list[int], measure: str) -> np.ndarray:
    """The pairwise measure between every two of ``nodes`` as a float64 table.

    Every cell starts at 0.0. Visiting the ancestors whose IC is defined in
    ascending IC order, and writing each one's IC into the block of ``nodes``
    below it, leaves each cell at the largest IC of a common ancestor: what
    ``resnik`` computes, the root's -0.0 included. Lin follows elementwise;
    every node here annotates some entity, so its IC is defined.
    """
    below: dict[int, list[int]] = {}
    for k, node in enumerate(nodes):
        for a in index.ancestors[node]:
            below.setdefault(a, []).append(k)
    table = np.zeros((len(nodes), len(nodes)))
    for a in sorted((a for a in below if index.ic[a] is not None), key=index.ic.__getitem__):
        block = np.asarray(below[a])
        table[np.ix_(block, block)] = index.ic[a]
    if measure == "lin":
        ic = np.array([index.ic[n] for n in nodes])
        denom = ic[:, None] + ic[None, :]
        table = np.divide(2.0 * table, denom, out=np.zeros_like(table), where=denom != 0.0)
    return table


def semsim_score_fn(index: TaxonomyIndex, measure: str = "resnik"):
    """Best-match average over a batch of tails, in the evaluation module's interface.

    Built once: a K×K float64 table of the measure over the K taxonomy nodes
    that annotate some entity (K²×8 bytes, 180 kB at K = 150), and per entity
    a padded column of its classes' table columns in ``sorted(annotations[e])``
    order, the order ``bma_similarity`` sees. Each call then takes every best
    match with array maxima, a head class's over the slot axis of a (head
    classes, slots, tails) gather, so that each maximum runs between
    contiguous rows of tails, and adds them left to right from 0.0, as
    ``bma_similarity`` does, so its scores equal ``entity_similarity``'s
    bit for bit. Unannotated or unknown heads and tails score -inf.

    Consecutive calls with an equal pool of tails (``==`` as lists, which
    tests each name's identity first) reuse its resolved columns: the scorer
    keeps a copy of the last pool's names with its gathered columns and
    sizes, so scoring many heads against one candidate pool, as
    ``ranking_report`` does, looks the pool's names up once. A pool changed
    in place or a different pool is resolved afresh.
    """
    if measure not in MEASURES:
        raise SemSimError(f"unknown measure {measure!r}")
    entities = [e for e, classes in index.annotations.items() if classes]
    nodes = sorted({index.node_of[c] for e in entities for c in index.annotations[e]})
    column = {node: k for k, node in enumerate(nodes)}
    pad = len(nodes)
    width = max((len(index.annotations[e]) for e in entities), default=0)
    # one column per entity plus a blank column for unknown and unannotated
    # names; the blank column's size is 1, as its -inf best matches decide its score
    cols = np.full((width, len(entities) + 1), pad, dtype=np.intp)
    sizes = np.ones(len(entities) + 1, dtype=np.intp)
    for i, e in enumerate(entities):
        slots = [column[index.node_of[c]] for c in sorted(index.annotations[e])]
        cols[: len(slots), i] = slots
        sizes[i] = len(slots)
    row_of = {e: i for i, e in enumerate(entities)}
    blank = len(entities)
    # the padding column is -inf, so a row maximum never picks it
    table = np.hstack([_similarity_table(index, nodes, measure), np.full((pad, 1), -math.inf)])
    # the last pool resolved: a copy of its names, its columns (slots × n) and sizes
    last = ([], cols[:, :0], sizes[:0])

    def fn(head, rel, tails):
        nonlocal last
        n = len(tails)
        h = row_of.get(head)
        if h is None:
            return np.full(n, -math.inf)
        given = tails if type(tails) is list else list(tails)
        names, tail_cols, tail_sizes = last  # one read, so the three always match
        if given != names:
            rows = np.fromiter(map(row_of.get, given, repeat(blank)), np.intp, n)
            tail_cols, tail_sizes = cols[:, rows], sizes[rows]
            last = given.copy(), tail_cols, tail_sizes
        head_rows = table[cols[: sizes[h], h]]
        best1 = head_rows[:, tail_cols].max(axis=1)
        # padded tail columns gather 0.0, which leaves a sum from 0.0 unchanged
        best2 = np.append(head_rows[:, :pad].max(axis=0), 0.0)[tail_cols]
        s1 = s2 = 0.0
        for best in best1:
            s1 = s1 + best
        for best in best2:
            s2 = s2 + best
        return 0.5 * (s1 / len(head_rows) + s2 / tail_sizes)

    return fn
