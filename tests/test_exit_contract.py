"""The exit-code contract under one or two structural mutations of a golden input.

Each example takes a golden case, changes one value of one input document
it reads (drops a key, swaps in a value of another type, wraps the value in
a list, or moves an int by one or to 0 or -1), may change a second value of
the document so changed, and runs the case's command in-process.  Two
changes reach inputs that pass the first check they meet and fail a later
one, such as witness systems that `solve-witness` and `basis` check only
for the faults that stop them indexing a relation row.  Whatever the input, the run must exit 0, 1 or 2 with at most
one line on stderr and no traceback: exit 3 is an internal error, which no
input may cause.  The `*-large` cases only make each run slower, so they
are left out.  `unif-table` reads no file, so its arguments are drawn
instead: primes, non-primes, negatives and two large primes for `--p`, and
`--mu` of the right shape, of a wrong type or shape, or too short.  Its
sizes are capped in the strategy, not by a timeout.
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


def _changes(doc, path) -> list:
    """The values that may replace the one at `path`; DROP drops its key."""
    value = _at(doc, path)
    changes = [[value]] + [v for v in OTHER_TYPES if type(v) is not type(value)]
    if type(value) is int:
        changes += [v for v in (value + 1, value - 1, 0, -1) if v != value]
    if isinstance(_at(doc, path[:-1]), dict):
        changes.append(DROP)
    return changes


def _apply(doc, path, new) -> None:
    """Change the value at `path` to a copy of `new`, so that later changes leave `new` as drawn."""
    parent = _at(doc, path[:-1])
    if new is DROP:
        del parent[path[-1]]
    else:
        parent[path[-1]] = copy.deepcopy(new)


@st.composite
def mutations(draw):
    """(case name, input file name, ((key path, new value), ...)): one or two changes, each to the document the last left."""
    name = draw(st.sampled_from(sorted(CASES)))
    files = [arg.removeprefix("inputs/") for arg in CASES[name] if arg.startswith("inputs/")]
    file = draw(st.sampled_from(files))
    doc = copy.deepcopy(INPUTS[file])
    edits = []
    for _ in range(draw(st.integers(1, 2))):
        paths = list(_paths(doc))
        if not paths:
            break
        path = draw(st.sampled_from(paths))
        new = draw(st.sampled_from(_changes(doc, path)))
        _apply(doc, path, new)
        edits.append((path, new))
    return name, file, tuple(edits)


def _run(name, file, edits):
    doc = copy.deepcopy(INPUTS[file])
    for path, new in edits:
        _apply(doc, path, new)
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
@example(("transform-disjoint", "ws-h2.json", ((("level", ""), DROP),)))
def test_mutated_golden_inputs_keep_the_exit_contract(mutation):
    code, err = _run(*mutation)
    assert code in (0, 1, 2), err
    assert err.count("\n") <= 1 and "Traceback" not in err, err


# JSON texts of a wrong type or shape for --mu, and one that does not parse
MU_TEXTS = ("7", "1.5", "true", "null", '"1"', '{"0": 1}', "[1.5]", '[[1, "2"]]', "[[[1]]]", "[1,")


@st.composite
def unif_table_argv(draw):
    """A `unif-table` argv whose table, if the arguments are valid, takes well under a second.

    2^61 - 1 and 2^127 - 1 come at r = 0 and r = 1, but not with the second
    power block, whose modulus is p^{t_2}.  At r = 1 and 2^61 - 1, mu
    ranges over [-p, p]: t is 19,483, so Y has at most 2t + 1 segments and
    Y - Y at most 4t + 1.  At 2^127 - 1, t is 1,805,811,300, and Y alone
    has 2t + 1, about 3.6 * 10^9, segments once |mu| > 2t + 1, so there mu
    stays within [-3, 3], where Y, [-t, t] + mu_1 [-t, t], is one
    interval.  The first power block, at t_0 = 0, sums three translates.
    The second power block comes only for p < 20.  A row of 60 values is
    long enough for t_2 at each such p.
    """
    r = draw(st.integers(-1, 1))
    i = draw(st.sampled_from((None, -1, 0, 1, 2)))
    p = st.integers(-3, 19 if i == 2 else 40)
    if r >= 0 and i != 2:
        p |= st.sampled_from((2 ** 61 - 1, 2 ** 127 - 1))
    prime = draw(p)
    argv = ["unif-table", "--p", str(prime), "--r", str(r)]
    if i is not None:
        argv += ["--i", str(i)]
    values = st.integers(-prime, prime) if r == 1 and prime == 2 ** 61 - 1 else st.integers(-3, 3)
    rows = st.lists(st.sampled_from((0, 1, 5, 60)).flatmap(lambda n: st.lists(values, min_size=n, max_size=n)), max_size=2)
    mu = draw(st.none() | st.sampled_from(MU_TEXTS) | st.lists(values, max_size=2).map(json.dumps) | rows.map(json.dumps))
    return argv if mu is None else argv + ["--mu", mu]


@settings(max_examples=300, deadline=10_000)
@given(unif_table_argv())
# Y - Y, once listed pair by pair of Y's 38,967 segments, ran out of memory
@example(["unif-table", "--p", str(2 ** 61 - 1), "--r", "1", "--mu", "[1000000]"])
def test_unif_table_keeps_the_exit_contract(argv):
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code, _ = run_dispatch(argv)
    assert code in (0, 2), err.getvalue()
    assert err.getvalue().count("\n") <= 1 and "Traceback" not in err.getvalue(), err.getvalue()
