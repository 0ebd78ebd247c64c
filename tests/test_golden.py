"""Golden CLI corpus: every case's stdout and exit code, byte for byte.

The corpus under `tests/golden/` is written by `tests/golden/generate.py`;
this test only reads it.
"""

import json
from pathlib import Path

import pytest

from helpers import run_dispatch

GOLDEN = Path(__file__).resolve().parent / "golden"
CASES = json.loads((GOLDEN / "cases.json").read_text())


@pytest.mark.parametrize("case", CASES, ids=[c["name"] for c in CASES])
def test_golden_case(case, monkeypatch):
    monkeypatch.chdir(GOLDEN)
    code, out = run_dispatch(case["argv"])
    assert code == case["exit"]
    assert out == (GOLDEN / "expected" / f"{case['name']}.out").read_text()
