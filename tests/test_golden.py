"""Golden CLI corpus: every case's stdout and exit code, byte for byte.

The corpus under `tests/golden/` is written by `tests/golden/generate.py`;
this test only reads it.
"""

import gc
import json
from pathlib import Path

import pytest

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
