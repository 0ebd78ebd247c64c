"""The exit-code contract under one structural mutation of a golden input.

Each example takes a golden case, changes one value of one input document
it reads (drops a key, swaps in a value of another type, wraps the value in
a list, or moves an int by one or to 0 or -1), and runs the case's command
in-process.  Whatever the input, the run must exit 0, 1 or 2 with at most
one line on stderr and no traceback: exit 3 is an internal error, which no
input may cause.  `unif-table` reads no file, and the `*-large` cases only
make each run slower, so both are left out.
"""

import contextlib
import copy
import io
import json
import tempfile
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import run_dispatch

GOLDEN = Path(__file__).resolve().parent / "golden"
CASES = {
    case["name"]: case["argv"]
    for case in json.loads((GOLDEN / "cases.json").read_text())
    if not case["name"].startswith("unif-table") and not case["name"].endswith("-large")
}
INPUTS = {path.name: json.loads(path.read_text()) for path in (GOLDEN / "inputs").glob("*.json")}
# one value of each JSON type; a swap takes one whose type differs from the value's
OTHER_TYPES = (None, True, 1.5, 7, "x", [], {})


class _Drop:
    def __repr__(self):
        return "DROP"


DROP = _Drop()


def _paths(value, prefix=()):
    """The key path of every value below `value`, in document order."""
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


@st.composite
def mutations(draw):
    """(case name, input file name, key path, new value); the value DROP drops the key."""
    name = draw(st.sampled_from(sorted(CASES)))
    files = [arg.removeprefix("inputs/") for arg in CASES[name] if arg.startswith("inputs/")]
    file = draw(st.sampled_from(files))
    path = draw(st.sampled_from(list(_paths(INPUTS[file]))))
    value = _at(INPUTS[file], path)
    changes = [[value]] + [v for v in OTHER_TYPES if type(v) is not type(value)]
    if type(value) is int:
        changes += [v for v in (value + 1, value - 1, 0, -1) if v != value]
    if isinstance(_at(INPUTS[file], path[:-1]), dict):
        changes.append(DROP)
    return name, file, path, draw(st.sampled_from(changes))


def _run(name, file, path, new):
    doc = copy.deepcopy(INPUTS[file])
    parent = _at(doc, path[:-1])
    if new is DROP:
        del parent[path[-1]]
    else:
        parent[path[-1]] = new
    with tempfile.TemporaryDirectory() as tmp:
        argv = []
        for arg in CASES[name]:
            if arg.startswith("inputs/"):
                target = Path(tmp) / arg.removeprefix("inputs/")
                target.write_text(json.dumps(doc if target.name == file else INPUTS[target.name]))
                arg = str(target)
            argv.append(arg)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code, _ = run_dispatch(argv)
    return code, err.getvalue()


@settings(max_examples=300, deadline=10_000)
@given(mutations())
# transform on a family whose level map lacks a node once raised KeyError (exit 3)
@example(("transform-disjoint", "ws-h2.json", ("level", ""), DROP))
def test_mutated_golden_inputs_keep_the_exit_contract(mutation):
    code, err = _run(*mutation)
    assert code in (0, 1, 2), err
    assert err.count("\n") <= 1 and "Traceback" not in err, err
