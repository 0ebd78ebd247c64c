"""Golden CLI corpus: every case's stdout and exit code, byte for byte.

The corpus under `tests/golden/` is written by `tests/golden/generate.py`;
this test only reads it, and checks that the generator would write the
committed inputs and argv lists again.  Metamorphic tests replay the
cases on rewritten inputs: another layout must not change a byte of the
output, and an order-preserving renaming of the atoms must change only the
atoms that the output names.
"""

import contextlib
import gc
import importlib.util
import json
import random
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from helpers import collector, run_dispatch

GOLDEN = Path(__file__).resolve().parent / "golden"
CASES = json.loads((GOLDEN / "cases.json").read_text())


@pytest.mark.parametrize("case", CASES, ids=[c["name"] for c in CASES])
def test_golden_case(case, monkeypatch):
    monkeypatch.chdir(GOLDEN)
    code, out = run_dispatch(case["argv"])
    assert code == case["exit"]
    assert out == (GOLDEN / "expected" / f"{case['name']}.out").read_text()


@pytest.mark.parametrize("case", CASES, ids=[c["name"] for c in CASES])
def test_golden_case_leaves_no_cyclic_garbage(case, monkeypatch):
    # dispatch pauses the cyclic collector, which is safe only while an
    # operation's objects are all freed by reference counting
    monkeypatch.chdir(GOLDEN)
    run_dispatch(case["argv"])  # fills the parser and table caches
    gc.collect()
    with collector(False):
        run_dispatch(case["argv"])
        assert gc.collect() == 0


def test_generator_writes_the_committed_inputs_and_cases():
    spec = importlib.util.spec_from_file_location("golden_generate", GOLDEN / "generate.py")
    generate = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(generate)
    cases = generate.corpus()  # builds the documents and writes nothing
    docs = {name: doc for _, _, per_case in cases for name, doc in per_case.items()}
    assert len(docs) == 30
    # ws-basis-stall.json is committed once and never generated
    assert sorted(p.name for p in (GOLDEN / "inputs").iterdir()) == sorted([*docs, "ws-basis-stall.json"])
    for name, doc in docs.items():
        assert generate.input_text(doc) == (GOLDEN / "inputs" / name).read_text(), name
    assert [(name, argv) for name, argv, _ in cases] == [(c["name"], c["argv"]) for c in CASES]


class _Reversed(random.Random):
    """The layout that reverses every object and listed set instead of shuffling it."""

    def shuffle(self, x):
        x.reverse()


def _replay(case, rewrite):
    """The exit code and stdout of case, run on its input documents as rewrite(doc) gives them."""
    with tempfile.TemporaryDirectory() as tmp:
        (Path(tmp) / "inputs").mkdir()
        for arg in case["argv"]:
            if arg.startswith("inputs/"):
                doc = json.loads((GOLDEN / arg).read_text())
                (Path(tmp) / arg).write_text(json.dumps(rewrite(doc)))
        with contextlib.chdir(tmp):
            return run_dispatch(case["argv"])


def _relaid(o, rng: random.Random, key=None):
    """o with every object's keys, and the sets listed under `nodes` and in `B` and `E`, in the order rng gives."""
    if isinstance(o, dict):
        keys = list(o)
        rng.shuffle(keys)
        # the lists in B and E are sets too, so their items inherit the key
        return {k: _relaid(o[k], rng, key if key in ("B", "E") else k) for k in keys}
    if isinstance(o, list):
        o = [_relaid(x, rng) for x in o]
        if key in ("nodes", "B", "E"):
            rng.shuffle(o)
    return o


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(CASES), st.randoms(use_true_random=False))
# reversed, structure-dense lists the phi key "1" before "0.0", and so its two phi-domain violations
@example(next(c for c in CASES if c["name"] == "validate-structure-dense"), _Reversed())
def test_golden_output_does_not_depend_on_input_layout(case, rng):
    code, out = _replay(case, lambda doc: _relaid(doc, rng))
    assert code == case["exit"]
    assert out == (GOLDEN / "expected" / f"{case['name']}.out").read_text()


def _renamed(atom):
    """The JSON form of an atom under the renaming int x -> 3x + 7, str s -> "~" + s, applied through lists.

    Each map keeps the order within its kind, and lists compare item by
    item, so the renaming keeps the canonical atom order.
    """
    if isinstance(atom, list):
        return list(map(_renamed, atom))
    return 3 * atom + 7 if isinstance(atom, int) else "~" + atom


def _renamed_family(doc, rename=_renamed):
    """doc with every atom of its carriers and slices renamed; a coloring names no atom."""
    if "B" in doc:
        doc["B"] = {k: list(map(rename, v)) for k, v in doc["B"].items()}
    if "phi" in doc:
        doc["phi"] = {z: {k: list(map(rename, v)) for k, v in per_level.items()} for z, per_level in doc["phi"].items()}
    return doc


def _renamed_text(text):
    """The compact JSON text of an atom, renamed."""
    return json.dumps(_renamed(json.loads(text)), separators=(",", ":"))


def _renamed_generator(g):
    """A generator name with its atom renamed; a z generator names no atom."""
    return "a:" + _renamed_text(g[2:]) if g.startswith("a:") else g


def _renamed_tag(atom):
    """A `transform --kind disjoint` atom [x, parent node] with only x renamed."""
    return [_renamed(atom[0]), atom[1]]


def _renamed_output(argv, expected):
    """The output expected from argv run on the renamed inputs, given the output on the original ones."""
    assignment = expected.get("certificate", {}).get("assignment")
    if assignment is not None:
        expected["certificate"]["assignment"] = {i: _renamed(a) for i, a in assignment.items()}
    for witnesses in ("sibling_overlap", "slice_alignment"):
        for w in expected.get("structure", {}).get(witnesses, ()):
            w["atom"] = _renamed(w["atom"])
    if "presentation" in expected:
        expected["presentation"]["gens"] = list(map(_renamed_generator, expected["presentation"]["gens"]))
    if "witness" in expected:
        expected["witness"]["f"] = {_renamed_text(a): v for a, v in expected["witness"]["f"].items()}
    if "basis" in expected:
        expected["basis"]["atom_part"] = list(map(_renamed, expected["basis"]["atom_part"]))
        failing = expected["verification"]["failing_generators"]
        expected["verification"]["failing_generators"] = list(map(_renamed_generator, failing))
    if "renaming" in expected:
        new_atom = _renamed_tag if argv[argv.index("--kind") + 1] == "disjoint" else _renamed
        expected["renaming"] = [[new_atom(new), _renamed(old)] for new, old in expected["renaming"]]
        _renamed_family(expected["document"], new_atom)
    return expected


# every command that reads a family; unif-sim, unif-table and build-group read none
_RENAMABLE = [c for c in CASES if c["argv"][0] not in ("unif-sim", "unif-table", "build-group")]


@pytest.mark.parametrize("case", _RENAMABLE, ids=[c["name"] for c in _RENAMABLE])
def test_golden_output_follows_an_order_preserving_atom_renaming(case):
    text = (GOLDEN / "expected" / f"{case['name']}.out").read_text()
    code, out = _replay(case, _renamed_family)
    assert code == case["exit"]
    if text:  # a malformed input (exit 2) writes nothing to stdout
        text = json.dumps(_renamed_output(case["argv"], json.loads(text)), sort_keys=True, separators=(",", ":")) + "\n"
    assert out == text
