"""Golden CLI corpus: every case's stdout and exit code, byte for byte.

The corpus under `tests/golden/` is written by `tests/golden/generate.py`;
this test only reads it, and checks that the generator would write the
committed inputs and argv lists again.  A metamorphic test replays each
case on its inputs rewritten in another layout, which must not change a
byte of the output.
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
    assert len(docs) == 29
    # ws-basis-stall.json is committed once and never generated
    assert sorted(p.name for p in (GOLDEN / "inputs").iterdir()) == sorted([*docs, "ws-basis-stall.json"])
    for name, doc in docs.items():
        assert generate.input_text(doc) == (GOLDEN / "inputs" / name).read_text(), name
    assert [(name, argv) for name, argv, _ in cases] == [(c["name"], c["argv"]) for c in CASES]


class _Reversed(random.Random):
    """The layout that reverses every object and listed set instead of shuffling it."""

    def shuffle(self, x):
        x.reverse()


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
    with tempfile.TemporaryDirectory() as tmp:
        (Path(tmp) / "inputs").mkdir()
        for arg in case["argv"]:
            if arg.startswith("inputs/"):
                doc = json.loads((GOLDEN / arg).read_text())
                (Path(tmp) / arg).write_text(json.dumps(_relaid(doc, rng)))
        with contextlib.chdir(tmp):
            code, out = run_dispatch(case["argv"])
    assert code == case["exit"]
    assert out == (GOLDEN / "expected" / f"{case['name']}.out").read_text()
