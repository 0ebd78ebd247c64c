"""The golden witness-side certificates, re-verified by code that shares nothing with `src/`.

The checkers are the benchmark's own (`perfbench/checks.py`): they rebuild
the relation rows and the witness equation from the input documents and
take Smith forms from sympy, without importing `lamsys`.  Each checked case
must pass them as committed, and each single-field corruption of it must be
reported.
"""

import copy
import functools
import importlib.util
import json
import sys
from pathlib import Path

import pytest

GOLDEN = Path(__file__).resolve().parent / "golden"
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
CASES = {c["name"]: c for c in json.loads((GOLDEN / "cases.json").read_text())}

# witness-side cases whose output carries nothing the checkers read
UNCHECKED = {
    "build-G-low-j": "exit 1 with the j-trunc violation, no presentation",
    "build-G-variant-none": "exit 1 with no final left, no presentation",
    "basis-no-order": "exit 1 with no reshuffling order, no basis",
    "solve-witness-low-j": "exit 2 on malformed input, no output",
}


@functools.cache
def _checks():
    """perfbench/checks.py, loaded by path with perfbench/ on sys.path for its `workloads` import."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        spec = importlib.util.spec_from_file_location("perfbench_checks", PERFBENCH / "checks.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(PERFBENCH))
    return module


def _doc(path: str) -> dict:
    return json.loads((GOLDEN / path).read_text())


def _option(argv: list, name: str) -> str:
    return argv[argv.index(name) + 1]


def _variant(doc: dict, allowed: set) -> dict:
    """The document as `build-G --variant` filters it: only the finals whose first index is allowed."""
    out = dict(doc)
    for key in ("q", "d", "phi"):
        out[key] = {k: v for k, v in doc[key].items() if int(k.split(".")[0]) in allowed}
    return out


def _checker(case: dict):
    argv = case["argv"]
    doc = _doc(_option(argv, "--system"))
    checks = _checks()
    if argv[0] == "build-G":
        if "--variant" in argv:
            doc = _variant(doc, {int(x) for x in _option(argv, "--variant").split(",")})
        return checks.build_g(doc)
    if argv[0] == "solve-witness":
        m = checks.m_range(doc)
        coloring = {zk: _doc(_option(argv, "--c"))["c"][zk][:m] for zk in doc["q"]}
        return checks.solve_witness(doc, coloring, planted=True)
    return checks.basis(doc, int(_option(argv, "--alpha")), int(_option(argv, "--beta")))


def _edit(*path, to):
    """The corruption that replaces the value at path in an output by `to` of it."""

    def corrupt(out: dict) -> None:
        for key in path[:-1]:
            out = out[key]
        out[path[-1]] = to(out[path[-1]])

    return corrupt


def _corruptions(case: dict, out: dict) -> dict:
    """Single-field corruptions of a checked output, each of which the checker must report."""
    argv = case["argv"]
    doc = _doc(_option(argv, "--system"))
    found = {}
    plus_one = lambda v: v + 1
    if argv[0] == "build-G":
        found["a factor 2"] = _edit("invariant_factors", 0, to=lambda v: 2)
        found["rank + 1"] = _edit("rank", to=plus_one)
        found["free flipped"] = _edit("free", to=lambda v: not v)
    elif argv[0] == "solve-witness":
        found["status infeasible"] = _edit("status", to=lambda v: "infeasible")
        found["f dropped"] = lambda o: o["witness"].pop("f")
        zk = sorted(doc["q"])[0]
        if _checks().m_range(doc) > 0:
            # row (zk, 0) reads the atom phi_1(0) and a[r]
            found["f + 1 on a read atom"] = _edit("witness", "f", json.dumps(doc["phi"][zk]["1"][0]), to=plus_one)
            found["a[r] + 1"] = _edit("witness", "a", f"{zk}:{doc['r']}", to=plus_one)
    else:
        found["not ok"] = _edit("verification", "ok", to=lambda v: False)
        found["a dropped z generator"] = lambda o: o["basis"]["z_part"].pop()
        if out["basis"]["atom_part"]:
            found["a dropped atom"] = lambda o: o["basis"]["atom_part"].pop()
        # a z generator moved up one index that the candidate lacks, inside its final's J indices if one is free
        z_part = out["basis"]["z_part"]
        free = [i for i, (z, j) in enumerate(z_part) if [z, j + 1] not in z_part]
        i = min(free, key=lambda i: z_part[i][1] + 1 >= doc["J"])
        found["a shifted z index"] = _edit("basis", "z_part", i, 1, to=plus_one)
    return found


CHECKED = sorted(
    name
    for name, c in CASES.items()
    if c["argv"][0] in ("build-G", "solve-witness", "basis") and name not in UNCHECKED
)


def test_every_witness_side_case_is_checked_or_listed():
    assert len(CHECKED) == 10
    assert set(UNCHECKED) <= CASES.keys()
    assert all(CASES[name]["exit"] != 0 for name in UNCHECKED)


@pytest.mark.parametrize("name", CHECKED)
def test_golden_witness_certificate_rechecks(name):
    case = CASES[name]
    out = json.loads((GOLDEN / "expected" / f"{name}.out").read_text())
    check = _checker(case)
    assert check(out, case["exit"]) == []
    corruptions = _corruptions(case, out)
    assert len(corruptions) >= 2
    missed = []
    for what, corrupt in corruptions.items():
        bad = copy.deepcopy(out)
        corrupt(bad)
        if not check(bad, case["exit"]):
            missed.append(what)
    assert missed == []
