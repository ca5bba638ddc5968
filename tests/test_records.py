"""The package's immutable value classes: their fields, repr, equality, hash,
immutability, copying and pickling, and what importing the package loads."""

import copy
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from legcordial.constructors import BalanceForm, ConstructionRecipe
from legcordial.graph import make_complete, make_cycle, make_path
from legcordial.labeling import EdgeTally, Labeling
from legcordial.search import (
    Budget,
    DiffWindow,
    RecipeSearchResult,
    SearchResult,
    SearchSpec,
)

P3 = make_path(3)
RECIPE = ConstructionRecipe("join", 3, make_cycle(3), make_complete(1), (1, 2, 3), (1,))

# (class, field names in constructor order, one value of each field)
VALUES = [
    (Labeling, ("graph", "assign"), (P3, (2, 1, 3))),
    (EdgeTally, ("e0", "e1"), (1, 2)),
    (
        ConstructionRecipe,
        ("theorem", "p", "g1", "g2", "lab_g1", "lab_g2"),
        ("join", 3, make_cycle(3), make_complete(1), (1, 2, 3), (1,)),
    ),
    (BalanceForm, ("coef1", "coef2", "lo", "hi", "n", "m", "k"), (1, 1, 0, 2, 3, 1, None)),
    (Budget, ("max_nodes", "max_seconds"), (10, 1.5)),
    (DiffWindow, ("lo", "hi"), (-1, 3)),
    (
        SearchSpec,
        ("graph", "p", "objective", "budget", "mode"),
        (P3, 5, DiffWindow(0, 0), Budget(10), "count-all"),
    ),
    (SearchResult, ("outcome", "nodes", "labeling", "count", "complete"), ("found", 4, (1, 2, 3), 2, True)),
    (RecipeSearchResult, ("outcome", "recipe", "nodes"), ("found", RECIPE, 7)),
]
IDS = [cls.__name__ for cls, _, _ in VALUES]


@pytest.mark.parametrize("cls,fields,args", VALUES, ids=IDS)
def test_value_class_semantics(cls, fields, args):
    value = cls(*args)
    assert value == cls(**dict(zip(fields, args)))
    assert tuple(getattr(value, name) for name in fields) == args
    # the dataclass repr: fields in constructor order, each value's repr
    assert repr(value) == f"{cls.__name__}({', '.join(f'{k}={v!r}' for k, v in zip(fields, args))})"
    # equal by class and fields, never to a tuple or another class's value
    assert value != args
    assert value != (EdgeTally if cls is DiffWindow else DiffWindow)(-1, 3)
    assert hash(value) == hash(cls(*args))
    assert len({value, cls(*args)}) == 1
    for name in (fields[0], "other"):
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert tuple(getattr(value, name) for name in fields) == args
    for twin in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value), copy.copy(value)):
        assert type(twin) is cls and twin == value


def test_value_classes_built_from_lists_hold_tuples():
    labels = [2, 1, 3]
    lab = Labeling(P3, labels)
    labels[0] = 9  # the caller's list is not the labeling's
    assert lab.assign == (2, 1, 3) and lab == Labeling(P3, (2, 1, 3))
    with pytest.raises(TypeError):
        lab.assign[0] = 9
    recipe = ConstructionRecipe("join", 3, RECIPE.g1, RECIPE.g2, [1, 2, 3], [1])
    assert recipe == RECIPE
    for value, twin in ((lab, Labeling(P3, (2, 1, 3))), (recipe, RECIPE)):
        assert hash(value) == hash(twin)


def test_value_class_reprs_and_defaults():
    assert repr(Budget()) == "Budget(max_nodes=2000000, max_seconds=None)"
    assert repr(EdgeTally(1, 2)) == "EdgeTally(e0=1, e1=2)"
    assert repr(SearchResult("none", 0)) == (
        "SearchResult(outcome='none', nodes=0, labeling=None, count=None, complete=False)"
    )
    spec = SearchSpec(P3, 5)
    assert (spec.objective, spec.budget, spec.mode) == (DiffWindow(-1, 1), Budget(), "find-first")
    assert SearchSpec(P3, 5, budget=None).budget is None
    assert RECIPE == ConstructionRecipe("join", 3, RECIPE.g1, RECIPE.g2, lab_g1=(1, 2, 3), lab_g2=(1,))
    assert ConstructionRecipe("cart", 3, P3, P3).lab_g1 is None


@pytest.mark.parametrize(
    "build,error,message",
    [
        (lambda: SearchSpec(P3, 5, mode="all"), ValueError, "mode must be one of"),
        (lambda: SearchSpec(P3, 9), ValueError, "p must be an odd prime, got 9"),
        (lambda: Labeling(P3, (1, 2, 2)), ValueError, r"assign must be a permutation of 1\.\.3"),
    ],
)
def test_value_class_validation_messages(build, error, message):
    with pytest.raises(error, match=message):
        build()


def test_import_loads_no_dataclasses_inspect_or_typing():
    # -S keeps site hooks (which may import typing themselves) out of the count
    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        "import sys, legcordial, legcordial.cli; "
        "print(sorted({'dataclasses', 'inspect', 'typing'} & set(sys.modules)))"
    )
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run(
        [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out == "[]\n"
