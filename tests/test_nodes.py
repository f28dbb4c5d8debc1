"""Value semantics of the seven concept and axiom node classes.

The checks use the standard library only, so besides running under pytest
this file runs as a script on any interpreter, numpy or not:

    python3.13 tests/test_nodes.py

which loads src/elball/ontology.py on its own, without the package.
"""

import copy
import dataclasses
import pickle
import sys
from pathlib import Path


def samples(o) -> list[tuple[object, str]]:
    """One node of each class in module ``o`` and its repr."""
    a, b = o.Atomic(3), o.Nominal(4)
    both = o.Conjunction(a, b)
    some = o.Existential(1, both)
    both_text = "Conjunction(left=Atomic(cls=3), right=Nominal(individual=4))"
    some_text = f"Existential(relation=1, filler={both_text})"
    return [
        (a, "Atomic(cls=3)"),
        (b, "Nominal(individual=4)"),
        (both, both_text),
        (some, some_text),
        (o.GCI(a, some), f"GCI(sub=Atomic(cls=3), sup={some_text})"),
        (o.Instantiation(some, 4), f"Instantiation(concept={some_text}, individual=4)"),
        (o.RoleAssertion(1, 2, 3), "RoleAssertion(relation=1, subject=2, object=3)"),
    ]


def check_value_semantics(o) -> None:
    nodes = samples(o)
    assert sorted(type(node).__name__ for node, _ in nodes) == sorted(
        ["Atomic", "Nominal", "Conjunction", "Existential", "GCI", "Instantiation", "RoleAssertion"]
    )
    for node, text in nodes:
        cls = type(node)
        names = [f.name for f in dataclasses.fields(node)]
        values = [getattr(node, name) for name in names]
        assert repr(node) == text
        assert not hasattr(node, "__dict__") and cls.__slots__ == tuple(names)
        for name in names:
            for change in (lambda: setattr(node, name, 0), lambda: delattr(node, name)):
                try:
                    change()
                except dataclasses.FrozenInstanceError:
                    pass
                else:
                    raise AssertionError(f"{text}: {name} is not frozen")
        for bad in (values[:-1], values + [0]):
            try:
                cls(*bad)
            except TypeError:
                pass
            else:
                raise AssertionError(f"{cls.__name__} took {len(bad)} fields")
        twin = cls(**dict(zip(names, values)))
        assert twin == node and hash(twin) == hash(node) and twin is not node
        pickled = [pickle.loads(pickle.dumps(node, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
        for other in (copy.copy(node), copy.deepcopy(node), dataclasses.replace(node), *pickled):
            assert type(other) is cls and other == node and hash(other) == hash(node) and repr(other) == text
        changed = dataclasses.replace(node, **{names[0]: 7})
        assert getattr(changed, names[0]) == 7 and changed != node
        assert [getattr(changed, name) for name in names[1:]] == values[1:]
    # equality goes by type as well as fields
    assert o.Atomic(3) != o.Nominal(3) and o.Atomic(3) == o.Atomic(3) and o.Atomic(3) != 3
    assert o.Existential(1, o.Atomic(3)) != o.Existential(1, o.Nominal(3))
    assert len({o.Atomic(3), o.Atomic(3), o.Nominal(3)}) == 2


def test_value_semantics_of_every_node_class():
    from elball import ontology

    check_value_semantics(ontology)


if __name__ == "__main__":
    import importlib.util

    path = Path(__file__).resolve().parents[1] / "src" / "elball" / "ontology.py"
    spec = importlib.util.spec_from_file_location("ontology", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # pickle finds the classes by module name
    spec.loader.exec_module(module)
    check_value_semantics(module)
    print(f"node value semantics hold on Python {sys.version.split()[0]}")
