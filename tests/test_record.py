"""Frozen records against `dataclasses` twins, and the import that records keep light."""

import ast
import dataclasses
import os
import subprocess
import sys
from functools import cached_property
from pathlib import Path

import pytest

from lamsys.abelian import DimensionError, IntMatrix
from lamsys.record import record, replace

SRC = Path(__file__).resolve().parent.parent / "src"


@record
class Point:
    x: int
    label: str
    tags: tuple = ()
    extra: object = None


@dataclasses.dataclass(frozen=True)
class PointTwin:
    x: int
    label: str
    tags: tuple = ()
    extra: object = None


@record(eq=False)
class Node:
    name: str
    weight: int = 1

    @cached_property
    def doubled(self) -> int:
        return 2 * self.weight


@dataclasses.dataclass(frozen=True, eq=False)
class NodeTwin:
    name: str
    weight: int = 1


def outcome(cls, args, kwargs):
    """repr of the built instance, or the TypeError message, with the class name written as `C`."""
    try:
        text = repr(cls(*args, **kwargs))
    except TypeError as exc:
        text = f"TypeError: {exc}"
    return text.replace(cls.__qualname__, "C")


CALLS = [
    ((1, "a"), {}),
    ((1, "a", (2,), 3.5), {}),
    ((), {"x": 1, "label": "a"}),
    ((), {"extra": None, "label": "a", "x": 1}),
    ((1,), {"label": "a", "extra": [1]}),
    ((1, "a"), {"tags": (1, 2)}),
    # missing arguments
    ((), {}),
    ((1,), {}),
    ((), {"tags": ()}),
    ((), {"x": 1}),
    # too many, unknown and repeated arguments
    ((1, "a", (), None, 5), {}),
    ((1, "a", (), None, 5), {"x": 1}),
    ((1, "a", (), None, 5), {"y": 1}),
    ((1, "a"), {"y": 1}),
    ((1,), {"x": 2}),
    ((1, "a", ()), {"label": "b", "tags": ()}),
    ((1,), {"y": 1, "x": 2}),
    ((1,), {"x": 2, "y": 1}),
]


@pytest.mark.parametrize("args,kwargs", CALLS)
def test_construction_and_type_errors_match_dataclasses(args, kwargs):
    assert outcome(Point, args, kwargs) == outcome(PointTwin, args, kwargs)


def test_missing_arguments_are_listed_like_a_function_of_the_same_signature():
    @record
    class Three:
        a: int
        b: int
        c: int

    with pytest.raises(TypeError, match=r"missing 3 required positional arguments: 'a', 'b', and 'c'$"):
        Three()
    with pytest.raises(TypeError, match=r"takes 4 positional arguments but 5 were given$"):
        Three(1, 2, 3, 4)


def test_equality_hash_and_repr_match_dataclasses():
    values = [(1, "a"), (1, "a", (1,)), (2, "a"), (1, "b"), (1, "a", (), 0)]
    records = [Point(*v) for v in values]
    twins = [PointTwin(*v) for v in values]
    for r, t in zip(records, twins):
        assert repr(r).replace("Point", "C") == repr(t).replace("PointTwin", "C")
        assert hash(r) == hash(t)
        for r2, t2 in zip(records, twins):
            assert (r == r2) == (t == t2)
            assert (r != r2) == (t != t2)
    assert Point(1, "a") == Point(1, "a") and Point(1, "a") is not Point(1, "a")
    assert Point(1, "a") != PointTwin(1, "a")  # another class is never equal
    assert Point(1, "a") != (1, "a", (), None)  # nor is a tuple of the same values
    with pytest.raises(TypeError):
        hash(Point(1, "a", extra=[1]))  # an unhashable field makes the record unhashable, as in a dataclass
    with pytest.raises(TypeError):
        hash(PointTwin(1, "a", extra=[1]))


def test_eq_false_keeps_identity():
    a, b = Node("n"), Node("n")
    ta, tb = NodeTwin("n"), NodeTwin("n")
    assert (a == b) == (ta == tb) is False
    assert a == a and ta == ta
    assert hash(a) == object.__hash__(a)
    assert repr(a).replace("Node", "C") == repr(ta).replace("NodeTwin", "C")
    assert len({a, b}) == 2


def test_fields_cannot_be_set_or_deleted():
    for obj in (Point(1, "a"), PointTwin(1, "a"), Node("n"), NodeTwin("n")):
        with pytest.raises(AttributeError, match="cannot assign to field 'x'"):
            obj.x = 2
        with pytest.raises(AttributeError, match="cannot assign to field 'label'"):
            obj.label = "b"
        with pytest.raises(AttributeError, match="cannot delete field 'label'"):
            del obj.label


def test_cached_property_works_on_a_record():
    node = Node("n", 4)
    assert node.doubled == 8
    assert node.__dict__["doubled"] == 8


def test_post_init_errors_propagate():
    with pytest.raises(DimensionError, match="ragged rows"):
        IntMatrix(((1, 2), (3,)))
    assert IntMatrix(((1, 2), (3, 4))).entries == ((1, 2), (3, 4))


def test_replace_agrees_with_dataclasses_replace():
    changes = [{}, {"x": 5}, {"label": "z", "extra": 7}, {"tags": (1,), "x": 0, "label": "", "extra": None}]
    for change in changes:
        new = replace(Point(1, "a", (2,)), **change)
        twin = dataclasses.replace(PointTwin(1, "a", (2,)), **change)
        assert repr(new).replace("Point", "C") == repr(twin).replace("PointTwin", "C")
    for cls in (Point, PointTwin):
        with pytest.raises(TypeError, match="unexpected keyword argument 'y'"):
            (replace if cls is Point else dataclasses.replace)(cls(1, "a"), y=1)
    with pytest.raises(DimensionError):
        replace(IntMatrix(((1, 2),)), entries=((1,), (2, 3)))


def test_no_module_imports_dataclasses():
    """Records replace `dataclass` throughout, so its import cost stays out of every CLI call."""
    offenders = []
    for path in sorted((SRC / "lamsys").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            offenders += [f"{path.name}:{node.lineno}" for name in names if name.split(".")[0] == "dataclasses"]
    assert offenders == []


def test_importing_the_cli_loads_no_dataclasses():
    # compared with the modules loaded before the import, so a site hook that loads dataclasses does not count
    code = (
        "import sys; before = set(sys.modules); import lamsys.cli; "
        "print(sorted(m for m in set(sys.modules) - before if m.split('.')[0] in ('dataclasses', 'inspect')))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_importing_the_core_loads_no_other_domain_module():
    # the package re-exports nothing, so a user of the core alone loads no abelian, whitehead or table code
    code = "import sys, lamsys.core; print(sorted(m for m in sys.modules if m.split('.')[0] == 'lamsys'))"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "['lamsys', 'lamsys.core', 'lamsys.record']"
