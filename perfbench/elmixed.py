"""Seeded generator for the el-mixed workload: a mixed EL++ ontology with an ABox.

The interaction part is a ``synthetic.generate`` dataset (entity pairs and
function annotations over a three-level function taxonomy), so el-mixed
has held-out links to rank like the ppi workloads. Over its taxonomy this
generator writes a TBox over ``G<k>`` classes hung under that taxonomy,
drawn from templates that cover all seven normal forms plus nested
conjunctions and existentials that make the normalizer introduce fresh
classes, and an ABox of class and role assertions about ``x<i>``
individuals.
"""

from __future__ import annotations

import numpy as np

from elball import synthetic

RELATIONS = ("partOf", "regulates", "locatedIn", "bindsTo")

# (weight, template); A..D are distinct classes, r and s distinct relations
TEMPLATES = (
    (10, "{A} and {B} < {C}"),
    (16, "{A} < {r} some {B}"),
    (8, "{r} some {A} < {B}"),
    (3, "{A} and {B} < Bot"),
    (5, "{A} and {r} some {B} < {C}"),
    (5, "{A} < {r} some ({B} and {C})"),
    (3, "{A} < {r} some ({s} some {B})"),
    (4, "{r} some ({A} and {B}) < {C}"),
    (3, "{A} and {B} and {C} < {D}"),
    (4, "{A} < {B} and {r} some {C}"),
    (2, "{A} and {r} some {B} < {s} some ({C} and {D})"),
    (2, "{r} some ({s} some {A}) < {B}"),
)
EMPTY_CLASSES = 6  # G0..G5 get "G < Bot" and "r some G < Bot"


def generate(
    base: synthetic.SyntheticDataset,
    seed: int,
    n_classes: int = 1200,
    n_axioms: int = 2400,
    n_individuals: int = 200,
    assertions_per_individual: int = 3,
) -> str:
    """Ontology text over ``base``'s function taxonomy: taxonomy, TBox, then ABox."""
    rng = np.random.default_rng([seed, 7])
    functions = sorted({sub for sub, _ in base.taxonomy_edges})
    classes = [f"G{k}" for k in range(n_classes)]

    # each G class hangs under an earlier G class or a function class;
    # every fifth one gets a second parent, so the taxonomy is a DAG
    edges = list(base.taxonomy_edges)
    for k, name in enumerate(classes):
        pool = functions + classes[:k]
        edges.append((name, pool[int(rng.integers(len(pool)))]))
        if k % 5 == 4:
            second = pool[int(rng.integers(len(pool)))]
            if (name, second) not in edges:
                edges.append((name, second))
    lines = [f"{sub} < {sup}" for sub, sup in edges]

    ordinary = classes[EMPTY_CLASSES:]
    weights = np.asarray([w for w, _ in TEMPLATES], dtype=np.float64)
    picks = rng.choice(len(TEMPLATES), size=n_axioms, p=weights / weights.sum())
    for t in picks:
        a, b, c, d = (ordinary[i] for i in rng.choice(len(ordinary), 4, replace=False))
        r, s = (RELATIONS[i] for i in rng.choice(len(RELATIONS), 2, replace=False))
        lines.append(TEMPLATES[t][1].format(A=a, B=b, C=c, D=d, r=r, s=s))
    for k, name in enumerate(classes[:EMPTY_CLASSES]):
        lines.append(f"{name} < Bot")
        lines.append(f"{RELATIONS[k % len(RELATIONS)]} some {name} < Bot")

    individuals = [f"x{i}" for i in range(n_individuals)]
    for ind in individuals:
        for i in rng.choice(len(ordinary), assertions_per_individual, replace=False):
            lines.append(f"{{{ind}}} : {ordinary[i]}")
        other = individuals[int(rng.integers(len(individuals)))]
        lines.append(f"{RELATIONS[int(rng.integers(len(RELATIONS)))]}({ind}, {other})")
    return "\n".join(lines) + "\n"
