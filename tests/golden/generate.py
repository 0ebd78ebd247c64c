"""Write the golden CLI corpus: input documents, argv lists, stdout and exit codes.

Run from the repository root:

    PYTHONPATH=src python tests/golden/generate.py

Every input is hand-written or drawn from a fixed seed through
`tests/helpers.py`, so the inputs are the same bytes on every run.  The one
exception is `inputs/ws-basis-stall.json`, committed once and never
rewritten here: the witness system that
`witness_system(random.Random("basis-search/8"), 2, 2, 6, 6, False)` in
`perfbench/workloads.py` draws, on which `basis --alpha 7 --beta 12` once
stalled in a dense Smith form.  Each case
runs in-process through `lamsys.cli.dispatch` with the working directory set
to this folder, so the input paths in the manifests are relative.
`tests/test_golden.py` replays the cases and compares bytes; it never
rewrites the files.  Regenerate only for a deliberate output change, and
review the diff of `expected/`.
"""

from __future__ import annotations

import json
import os
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

from helpers import random_coloring, random_whitehead_system, run_dispatch  # noqa: E402

from lamsys.core import atom_sort_key, make_family, make_skeleton, node_key  # noqa: E402
from lamsys.jsonio import SCHEMA, system_to_doc  # noqa: E402
from lamsys.whitehead import WhiteheadSystem  # noqa: E402


def flat_family(sets_by_first):
    """Height-1 family document with one final per key."""
    finals = [(i,) for i in sorted(sets_by_first)]
    atoms = sorted({a for s in sets_by_first.values() for a in s}, key=atom_sort_key)
    sys_ = make_skeleton(
        nodes=[()] + finals,
        level={(): 1, **{f: 0 for f in finals}},
        e_map={(): [f[0] for f in finals]},
        b_map={(): [], **{f: atoms for f in finals}},
    )
    trunc = max(len(s) for s in sets_by_first.values())
    phi = {(f, 1): sorted(sets_by_first[f[0]], key=atom_sort_key) for f in finals}
    return system_to_doc(make_family(sys_, phi, truncation=trunc))


def escaping_family():
    """Free family whose string atoms JSON must escape, next to plain ints."""
    return flat_family(
        {
            0: ["é", "☃", 1],
            1: ['a"b', "back\\slash", "𝔸"],
            2: ["tab\t", "\u0001", 2],
            3: [1, 'a"b', "tab\t"],
        }
    )


def single_final_system(trunc, r=0, j_trunc=None):
    atoms = [f"x{m}" for m in range(trunc)]
    sys_ = make_skeleton(
        nodes=[(), (0,)],
        level={(): 1, (0,): 0},
        e_map={(): [0]},
        b_map={(): [], (0,): atoms or ["b0"]},
    )
    fam = make_family(sys_, {((0,), 1): atoms}, truncation=trunc)
    return WhiteheadSystem(
        family=fam,
        r=r,
        q={(0,): tuple(2 for _ in range(trunc))},
        d={(0,): tuple(tuple(1 for _ in range(r)) for _ in range(trunc))},
        j_trunc=trunc + r + 2 if j_trunc is None else j_trunc,
    )


def coupled_chains_system():
    """Two finals whose only relation rows share their one atom, q = 2."""
    sys_ = make_skeleton(
        nodes=[(), (0,), (1,)],
        level={(): 1, (0,): 0, (1,): 0},
        e_map={(): [0, 1]},
        b_map={(): [], (0,): ["x"], (1,): ["x"]},
    )
    fam = make_family(sys_, {((0,), 1): ["x"], ((1,), 1): ["x"]}, truncation=1)
    return WhiteheadSystem(
        family=fam,
        r=0,
        q={(0,): (2,), (1,): (2,)},
        d={(0,): ((),), (1,): ((),)},
        j_trunc=2,
    )


def ws_doc(ws):
    return system_to_doc(ws)


def coloring_doc(c):
    return {"schema": SCHEMA, "c": {node_key(z): list(v) for z, v in c.items()}}


def seeded_ws(seed, **kw):
    return random_whitehead_system(random.Random(f"golden/{seed}"), **kw)


def shared_ladder(seed, levels, m, r=0):
    """Subcase i, every level on the same g labels; primes from 31..200, mu entries from -3..3."""
    rng = random.Random(f"golden-shared/{seed}")
    primes = [p for p in range(31, 200) if all(p % d for d in range(2, int(p ** 0.5) + 1))]
    doc = {"schema": SCHEMA, "subcase": "i", "r": r, "levels": {}}
    for li in range(levels):
        alpha = 100 * (li + 1)
        doc["levels"][str(alpha)] = {
            "ladder": sorted(rng.sample(range(1, alpha), m)),
            "colors": [rng.randint(0, 1) for _ in range(m)],
            "g": [f"s{n}" for n in range(m)],
            "primes": rng.sample(primes, m),
        }
        if r:
            doc["levels"][str(alpha)]["mu"] = [[rng.randint(-3, 3) for _ in range(m)] for _ in range(r)]
    return doc


def mixed_ladder():
    """Two levels on the shared labels s0..s2 beside two levels with labels of their own, r = 1."""
    doc = shared_ladder("mixed", 2, 3, r=1)
    for alpha, primes, mu in ((300, [211, 223, 227], [1, 0, -1]), (400, [229, 233, 239], [2, -3, 1])):
        doc["levels"][str(alpha)] = {
            "ladder": [alpha // 4, alpha // 2, alpha - 1],
            "colors": [alpha // 100 % 2, 1, 0],
            "g": [f"i{alpha}:{n}" for n in range(3)],
            "primes": primes,
            "mu": [mu],
        }
    return doc


def shared_ladder_ii():
    """Subcase ii at p = 2, r = 1, three levels on shared labels.

    Level 100 holds the fresh label s1 on rows 1 and 2, so its core row
    W_2 - W_1 has -(1 + p) on y:100:2; level 300 mixes shared labels with
    labels of its own.
    """
    rng = random.Random("golden-shared-ii")
    labels = {
        100: ["s0", "s1", "s1", "s2", "s3", "s4", "s5"],
        200: [f"s{n}" for n in range(7)],
        300: ["t0", "s1", "t2", "s3", "t4", "s5", "s6"],
    }
    doc = {"schema": SCHEMA, "subcase": "ii", "r": 1, "p": 2, "i_max": 1, "levels": {}}
    for alpha, g in labels.items():
        doc["levels"][str(alpha)] = {
            "ladder": [alpha // 2],
            "colors": [rng.randint(0, 1)],
            "g": g,
            "mu": [[rng.randint(-3, 3) for _ in g]],
        }
    return doc


def shared_ladder_r2():
    """Subcase i at r = 2, three levels of 4, 3 and 5 rungs that share s0 and s1.

    Level 200 lists s1 after a label of its own, and level 300 lists s1
    before s0, so the shared labels sit on different rungs in each level.
    """
    rng = random.Random("golden-shared-r2")
    primes = [p for p in range(1009, 1500) if all(p % d for d in range(2, int(p ** 0.5) + 1))]
    labels = {
        100: ["s0", "s1", "u2", "u3"],
        200: ["s0", "v1", "s1"],
        300: ["s1", "w1", "s0", "w3", "w4"],
    }
    doc = {"schema": SCHEMA, "subcase": "i", "r": 2, "levels": {}}
    for alpha, g in labels.items():
        doc["levels"][str(alpha)] = {
            "ladder": sorted(rng.sample(range(1, alpha), len(g))),
            "colors": [rng.randint(0, 1) for _ in g],
            "g": g,
            "primes": rng.sample(primes, len(g)),
            "mu": [[rng.randint(-3, 3) for _ in g] for _ in range(2)],
        }
    return doc


def diagonal_ladder_ii():
    """Subcase ii at p = 2, r = 0, two levels that share only a1.

    Each core row decides its y_n by the -1 there, which no other row holds,
    so the decided block is diagonal; but it also reads y_{n+1} and a1,
    which come after y_n.  The lifted kernel is then not in row echelon
    form, and its Hermite form is not the lifted basis reduced above the
    free columns.
    """
    doc = {"schema": SCHEMA, "subcase": "ii", "r": 0, "p": 2, "i_max": 1, "levels": {}}
    for alpha, g, color in ((10, ["a0", "a1", "d1", "c0"], 1), (20, ["d0", "f1", "c1", "a1"], 0)):
        doc["levels"][str(alpha)] = {"ladder": [1], "colors": [color], "g": g}
    return doc


def greedy_family():
    """16 finals, each with a private atom and up to four of twelve shared ones."""
    rng = random.Random("golden/greedy")
    shared = [f"s{i}" for i in range(12)]
    return flat_family({i: rng.sample(shared, rng.randint(0, 4)) + [f"p{i}"] for i in range(16)})


def dense_structure_family():
    """Height-2 family that breaks all three structure properties.

    Carriers overlap across levels and across mids, slices draw from one
    cross-level pool (one slice repeats a value), and phi carries a key
    past a final's length and a key at a non-final node.
    """
    rng = random.Random("golden/structure-dense")
    pool1 = [f"u{i}" for i in range(6)]
    pool2 = [f"v{i}" for i in range(6)] + pool1[:3]
    mids = [(0,), (1,), (2,)]
    e_map = {(): [0, 1, 2], (0,): [0, 1], (1,): [0, 1, 2], (2,): [1]}
    finals = [m + (j,) for m in mids for j in e_map[m]]
    sys_ = make_skeleton(
        nodes=[()] + mids + finals,
        level={(): 2, **{m: 1 for m in mids}, **{f: 0 for f in finals}},
        e_map=e_map,
        b_map={(): [], **{m: pool1 for m in mids}, **{f: pool2 for f in finals}},
    )
    phi = {(z, k): rng.sample(pool1 if k == 1 else pool2, 3) for z in finals for k in (1, 2)}
    phi[((1, 2), 2)] = [phi[((1, 2), 2)][0]] * 2 + [phi[((1, 2), 2)][1]]
    doc = system_to_doc(make_family(sys_, phi, truncation=3))
    doc["phi"]["0.0"]["3"] = ["u0", "u1", "u2"]
    doc["phi"]["1"] = {"1": ["u3", "u4", "u5"]}
    return doc


def large_family():
    """Height-2 family of 40 finals, five mids of eight, with ints and awkward strings.

    Every final owns a private int atom, which its siblings' carriers hold
    too; its level-1 slice draws from a pool shared by all mids, whose names
    hold characters that JSON escapes or that close a container (`]`, `}`,
    `,`, `%`, a line break), and its level-2 slice adds two of its mid's
    four shared atoms to its private one.  It is large enough that the witness
    lists of `validate --structure`, the `B` map and the renaming of both
    transforms hold well over 32 entries each.
    """
    rng = random.Random("golden/large")
    pool1 = [f"a{i}" for i in range(10)] + ["x]", "y}", "c,\n", "%s", 'q"]', "é,", "\U0001d538"]
    mids = [(i,) for i in range(5)]
    finals = [m + (j,) for m in mids for j in range(8)]
    own = {m: [f"b{m[0]}_{t}" for t in range(4)] + [100 + 8 * m[0] + j for j in range(8)] for m in mids}
    sys_ = make_skeleton(
        nodes=[()] + mids + finals,
        level={(): 2, **{m: 1 for m in mids}, **{f: 0 for f in finals}},
        e_map={(): [m[0] for m in mids], **{m: list(range(8)) for m in mids}},
        b_map={(): [], **{m: pool1 for m in mids}, **{f: own[f[:1]] for f in finals}},
    )
    phi = {}
    for i, f in enumerate(finals):
        phi[(f, 1)] = rng.sample(pool1, 3)
        phi[(f, 2)] = [100 + i] + rng.sample(own[f[:1]][:4], 2)
    return system_to_doc(make_family(sys_, phi, truncation=3))


def corpus():
    """(name, argv, {input file name: document}) for every case."""
    minimal = system_to_doc(
        make_skeleton(
            nodes=[(), (0,)],
            level={(): 2, (0,): 0},
            e_map={(): [0]},
            b_map={(): [], (0,): ["a", "b"]},
        )
    )
    bad_level = json.loads(json.dumps(minimal))
    bad_level["level"][""] = 0
    free_fam = flat_family({0: ["a", "b"], 1: ["b", "c"], 2: ["c", "d"]})
    twins = flat_family({0: ["a"], 1: ["a"], 2: ["b", "c"]})
    rng = random.Random("golden/families")
    atoms = [f"t{i}" for i in range(9)]
    random_fam = flat_family({i: rng.sample(atoms, rng.randint(1, 3)) for i in range(10)})
    ws_h2 = seeded_ws("h2", n=2, r=1, truncation=3, cross_level_atoms=True)
    ws_h1 = seeded_ws("h1", n=1, r=0, truncation=3, width=3)
    ws_basis = seeded_ws("basis", n=2, r=1, truncation=3)
    basis_beta = max(z[0] for z in ws_basis.finals()) + 1
    strong = ws_doc(single_final_system(3, r=1))
    strong["strong"] = {"order": ["0"], "alpha": -1, "theta_fresh": 1}
    trunc0 = single_final_system(0)
    low_j = single_final_system(2, j_trunc=1)
    spec0 = {"schema": SCHEMA, "r": 0, "q": [2, 2, 2, 2], "d": [[], [], [], []], "J": 5}
    spec1 = {"schema": SCHEMA, "r": 1, "q": [3, 5, 7], "d": [[1], [-2], [1]], "J": 5}
    indep = {
        "schema": SCHEMA,
        "subcase": "i",
        "r": 1,
        "levels": {
            "40": {
                "ladder": [3, 8, 15, 21],
                "colors": [1, 0, 1, 1],
                "g": ["a0", "a1", "a2", "a3"],
                "primes": [1009, 1013, 1019, 1021],
                "mu": [[1, -2, 3, 0]],
            },
            "80": {
                "ladder": [50, 60, 70, 79],
                "colors": [0, 0, 1, 0],
                "g": ["b0", "b1", "b2", "b3"],
                "primes": [1031, 1033, 1039, 1049],
                "mu": [[2, 2, -1, 1]],
            },
        },
    }
    sub_ii = {
        "schema": SCHEMA,
        "subcase": "ii",
        "r": 0,
        "p": 3,
        "i_max": 2,
        "levels": {
            "50": {
                "ladder": [10, 30],
                "colors": [1, 0],
                "g": [f"h{n}" for n in range(17)],
            }
        },
    }

    return [
        ("validate-skeleton", ["validate", "inputs/minimal.json"], {"minimal.json": minimal}),
        ("validate-violations", ["validate", "inputs/bad-level.json"], {"bad-level.json": bad_level}),
        ("validate-family", ["validate", "inputs/random-family.json"], {"random-family.json": random_fam}),
        ("validate-structure", ["validate", "inputs/ws-h2.json", "--structure"], {"ws-h2.json": ws_doc(ws_h2)}),
        ("validate-structure-flat", ["validate", "inputs/free-family.json", "--structure"], {"free-family.json": free_fam}),
        (
            "validate-structure-dense",
            ["validate", "inputs/structure-dense.json", "--structure"],
            {"structure-dense.json": dense_structure_family()},
        ),
        ("validate-trunc0", ["validate", "inputs/trunc0.json"], {"trunc0.json": ws_doc(trunc0)}),
        ("validate-low-j", ["validate", "inputs/low-j.json"], {"low-j.json": ws_doc(low_j)}),
        ("check-free-transversal", ["check-free", "inputs/free-family.json"], {}),
        ("check-free-hall", ["check-free", "inputs/twins.json"], {"twins.json": twins}),
        ("check-free-random", ["check-free", "inputs/random-family.json"], {}),
        ("check-free-k-pass", ["check-free", "inputs/twins.json", "--k", "2"], {}),
        ("check-free-k-fail", ["check-free", "inputs/twins.json", "--k", "3"], {}),
        ("reshuffle-found", ["reshuffle", "inputs/free-family.json", "--alpha", "0", "--fresh", "1"], {}),
        ("reshuffle-none", ["reshuffle", "inputs/twins.json"], {}),
        (
            "reshuffle-greedy",
            ["reshuffle", "inputs/greedy-family.json", "--alpha", "7"],
            {"greedy-family.json": greedy_family()},
        ),
        ("build-group", ["build-group", "--spec", "inputs/spec-r0.json"], {"spec-r0.json": spec0}),
        ("build-group-m-max", ["build-group", "--spec", "inputs/spec-r0.json", "--m-max", "3"], {}),
        ("build-group-r1-m-max", ["build-group", "--spec", "inputs/spec-r1.json", "--m-max", "2"], {"spec-r1.json": spec1}),
        ("build-G-h1", ["build-G", "--system", "inputs/ws-h1.json"], {"ws-h1.json": ws_doc(ws_h1)}),
        ("build-G-h2", ["build-G", "--system", "inputs/ws-h2.json"], {}),
        (
            "build-G-variant",
            ["build-G", "--system", "inputs/ws-h2.json", "--variant", str(ws_h2.finals()[0][0])],
            {},
        ),
        # no final of ws-h1 has first index 99, so the variant keeps the root alone
        ("build-G-variant-none", ["build-G", "--system", "inputs/ws-h1.json", "--variant", "99"], {}),
        ("build-G-low-j", ["build-G", "--system", "inputs/low-j.json"], {}),
        (
            "solve-witness-h2",
            ["solve-witness", "--system", "inputs/ws-h2.json", "--c", "inputs/c-h2.json"],
            {"c-h2.json": coloring_doc(random_coloring(random.Random("golden/c-h2"), ws_h2))},
        ),
        (
            "solve-witness-h1",
            ["solve-witness", "--system", "inputs/ws-h1.json", "--c", "inputs/c-h1.json"],
            {"c-h1.json": coloring_doc(random_coloring(random.Random("golden/c-h1"), ws_h1))},
        ),
        (
            "solve-witness-coupled",
            ["solve-witness", "--system", "inputs/coupled.json", "--c", "inputs/c-coupled.json"],
            {
                "coupled.json": ws_doc(coupled_chains_system()),
                "c-coupled.json": coloring_doc({(0,): [0], (1,): [1]}),
            },
        ),
        (
            "solve-witness-trunc0",
            ["solve-witness", "--system", "inputs/trunc0.json", "--c", "inputs/c-empty.json"],
            {"c-empty.json": coloring_doc({(0,): []})},
        ),
        (
            "solve-witness-low-j",
            ["solve-witness", "--system", "inputs/low-j.json", "--c", "inputs/c-empty.json"],
            {},
        ),
        (
            "basis",
            ["basis", "--system", "inputs/ws-basis.json", "--alpha", "-1", "--beta", str(basis_beta)],
            {"ws-basis.json": ws_doc(ws_basis)},
        ),
        (
            "basis-stall",
            ["basis", "--system", "inputs/ws-basis-stall.json", "--alpha", "7", "--beta", "12"],
            {},
        ),
        (
            "basis-no-order",
            # both finals hold x and nothing else, so neither can go last
            ["basis", "--system", "inputs/coupled.json", "--alpha", "-1", "--beta", "2"],
            {},
        ),
        (
            "basis-strong-order",
            ["basis", "--system", "inputs/strong.json", "--alpha", "-1", "--beta", "1"],
            {"strong.json": strong},
        ),
        ("unif-table-prime", ["unif-table", "--p", "11"], {}),
        ("unif-table-prime-mu", ["unif-table", "--p", "101", "--r", "1", "--mu", "[2]"], {}),
        ("unif-table-power", ["unif-table", "--p", "2", "--i", "1"], {}),
        ("unif-table-power-mu", ["unif-table", "--p", "3", "--r", "1", "--i", "1", "--mu", "[[1, 0, 2, 1, 1]]"], {}),
        ("unif-sim-independent", ["unif-sim", "--instance", "inputs/ladder-independent.json"], {"ladder-independent.json": indep}),
        ("unif-sim-shared", ["unif-sim", "--instance", "inputs/ladder-shared.json"], {"ladder-shared.json": shared_ladder(1, 2, 3)}),
        ("unif-sim-subcase-ii", ["unif-sim", "--instance", "inputs/ladder-ii.json"], {"ladder-ii.json": sub_ii}),
        (
            "unif-sim-shared-r1",
            ["unif-sim", "--instance", "inputs/ladder-shared-r1.json"],
            {"ladder-shared-r1.json": shared_ladder(2, 3, 3, r=1)},
        ),
        ("unif-sim-mixed", ["unif-sim", "--instance", "inputs/ladder-mixed.json"], {"ladder-mixed.json": mixed_ladder()}),
        (
            "unif-sim-shared-8x8-r1",
            ["unif-sim", "--instance", "inputs/ladder-shared-8x8-r1.json"],
            {"ladder-shared-8x8-r1.json": shared_ladder("8x8", 8, 8, r=1)},
        ),
        (
            "unif-sim-shared-ii",
            ["unif-sim", "--instance", "inputs/ladder-shared-ii.json"],
            {"ladder-shared-ii.json": shared_ladder_ii()},
        ),
        (
            "unif-sim-shared-r2",
            ["unif-sim", "--instance", "inputs/ladder-shared-r2.json"],
            {"ladder-shared-r2.json": shared_ladder_r2()},
        ),
        (
            "unif-sim-ii-diagonal",
            ["unif-sim", "--instance", "inputs/ladder-ii-diagonal.json"],
            {"ladder-ii-diagonal.json": diagonal_ladder_ii()},
        ),
        ("transform-disjoint", ["transform", "inputs/ws-h2.json", "--kind", "disjoint"], {}),
        ("transform-tree", ["transform", "inputs/random-family.json", "--kind", "tree"], {}),
        ("check-free-escaping", ["check-free", "inputs/escaping.json"], {"escaping.json": escaping_family()}),
        ("transform-tree-escaping", ["transform", "inputs/escaping.json", "--kind", "tree"], {}),
        (
            "validate-structure-large",
            ["validate", "inputs/large-family.json", "--structure"],
            {"large-family.json": large_family()},
        ),
        ("transform-disjoint-large", ["transform", "inputs/large-family.json", "--kind", "disjoint"], {}),
        ("transform-tree-large", ["transform", "inputs/large-family.json", "--kind", "tree"], {}),
        ("check-free-large", ["check-free", "inputs/large-family.json"], {}),
        ("check-free-k-large", ["check-free", "inputs/large-family.json", "--k", "5"], {}),
    ]


def input_text(doc) -> str:
    """The text of an input file."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def main() -> None:
    cases = corpus()
    (HERE / "inputs").mkdir(exist_ok=True)
    (HERE / "expected").mkdir(exist_ok=True)
    for _, _, docs in cases:
        for fname, doc in docs.items():
            (HERE / "inputs" / fname).write_text(input_text(doc))
    manifest = []
    os.chdir(HERE)
    for name, argv, _ in cases:
        code, out = run_dispatch(argv)
        (HERE / "expected" / f"{name}.out").write_text(out)
        manifest.append({"name": name, "argv": argv, "exit": code})
    (HERE / "cases.json").write_text(json.dumps(manifest, indent=2) + "\n")


if __name__ == "__main__":
    main()
