"""Seeded input documents for the four workloads, and the operations run on them.

Every generator writes its documents under a work directory and returns a
list of `Op`s: one `lamsys` CLI invocation each, with the data its checker
needs.  The benchmark's own code builds every document; nothing here calls
into `lamsys`.

The three workloads that reach the exact solver draw the matrices they hand
it from a fixed corpus (one `random.Random` per corpus slot, named by the
slot) and take only the right-hand sides (colors, colorings, ladder rungs)
from `--seed`.  The cost of an exact solve, and the bit length of what it
returns, is a heavy-tailed function of the matrix: the 16-level independent
ladder costs 4.3 s or 6.6 s depending on its primes, and on shared-label
ladders one instance in a hundred costs twenty times the median.  With the
matrices drawn from the seed, ten seeds would measure which matrices were
drawn rather than the code.  Families cost what their shapes cost, so there
the seed draws everything.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

SCHEMA = "lamsys/1"


@dataclass
class Op:
    label: str
    argv: list[str]
    check: Callable[[dict, int], list[str]]
    largest: bool = False


def _is_prime(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, int(n ** 0.5) + 1))


PRIMES_31 = [p for p in range(31, 400) if _is_prime(p)]
PRIMES_1K = [p for p in range(1000, 1400) if _is_prime(p)]


def node_key(node: tuple) -> str:
    return ".".join(str(i) for i in node)


def _write(work: Path, name: str, doc: dict) -> str:
    path = work / name
    path.write_text(json.dumps(doc))
    return str(path)


# --- ladders -----------------------------------------------------------------


def threshold_exponents(p: int, r: int, i_max: int) -> list[int]:
    """t_0 = 0 and t_i = t_{i-1} + least d with (2p^t + 1)^(2r+2) p^(2t) < p^d."""
    ts = [0]
    for _ in range(i_max):
        t = ts[-1]
        bound = (2 * p ** t + 1) ** (2 * r + 2) * p ** (2 * t)
        d = 1
        while p ** d <= bound:
            d += 1
        ts.append(t + d)
    return ts


def _ladder(rng: random.Random, alpha: int, m: int) -> list[int]:
    return sorted(rng.sample(range(1, alpha), m))


def _level_i(ladder, colors, labels, primes, mu) -> dict:
    return {"ladder": ladder, "colors": colors, "g": labels, "primes": primes, "mu": mu}


def independent_ladder(structure: random.Random, rng: random.Random, levels: int, m: int, r: int) -> dict:
    """Subcase i, every level with its own g labels and primes.

    `structure` fixes the relation matrix (primes and mu); `rng` draws the
    colors and ladder rungs, which only move the right-hand side.
    """
    pool = PRIMES_1K if r else PRIMES_31
    doc = {"schema": SCHEMA, "subcase": "i", "r": r, "levels": {}}
    for li in range(levels):
        alpha = 100 * (li + 1)
        doc["levels"][str(alpha)] = _level_i(
            _ladder(rng, alpha, m),
            [rng.randint(0, 1) for _ in range(m)],
            [f"l{li}g{n}" for n in range(m)],
            structure.sample(pool, m),
            [[structure.randint(-3, 3) for _ in range(m)] for _ in range(r)],
        )
    return doc


def independent_ladder_ii(structure: random.Random, rng: random.Random, levels: int, r: int, i_max: int) -> dict:
    """Subcase ii at p = 2, every level with its own g labels; `structure` draws mu."""
    n_rel = threshold_exponents(2, r, i_max)[-1]
    doc = {"schema": SCHEMA, "subcase": "ii", "r": r, "p": 2, "i_max": i_max, "levels": {}}
    for li in range(levels):
        alpha = 100 * (li + 1)
        doc["levels"][str(alpha)] = {
            "ladder": _ladder(rng, alpha, i_max),
            "colors": [rng.randint(0, 1) for _ in range(i_max)],
            "g": [f"l{li}g{n}" for n in range(n_rel)],
            "mu": [[structure.randint(-2, 2) for _ in range(n_rel)] for _ in range(r)],
        }
    return doc


def shared_ladder(structure: random.Random, rng: random.Random, levels: int, m: int, r: int) -> dict:
    """Subcase i, every level using the same m g labels.

    `structure` fixes the relation matrix (primes and mu); `rng` draws the
    colors and ladder rungs, which only move the right-hand side.
    """
    pool = PRIMES_1K if r else PRIMES_31
    doc = {"schema": SCHEMA, "subcase": "i", "r": r, "levels": {}}
    for li in range(levels):
        alpha = 100 * (li + 1)
        primes = structure.sample(pool, m)
        mu = [[structure.randint(-3, 3) for _ in range(m)] for _ in range(r)]
        doc["levels"][str(alpha)] = _level_i(
            _ladder(rng, alpha, m),
            [rng.randint(0, 1) for _ in range(m)],
            [f"s{n}" for n in range(m)],
            primes,
            mu,
        )
    return doc


def ladder_cells(doc: dict) -> int:
    """Rows times columns of the relation matrix W the instance induces."""
    r = doc["r"]
    if doc["subcase"] == "i":
        n_rel = [len(lv["primes"]) for lv in doc["levels"].values()]
    else:
        n_rel = [threshold_exponents(doc["p"], r, doc["i_max"])[-1]] * len(doc["levels"])
    labels = {g for lv in doc["levels"].values() for g in lv["g"]}
    rows = sum(n_rel)
    cols = sum(r + n + 1 for n in n_rel) + len(labels)
    return rows * cols


# (levels, primes per level, r) in subcase i.  Nine instances in all, so the
# median operation is one instance, not the midpoint between two instances
# of different cost.  Sixteen levels are left out: that 5-second operation
# slowed by two thirds under load from other tenants of the machine while the
# calibration loop slowed by a quarter, so its time could not be steadied.
INDEPENDENT_I = ((8, 8, 0), (8, 8, 1), (4, 8, 0), (4, 8, 1), (2, 8, 0))
# (levels, r, i_max) in subcase ii at p = 2
INDEPENDENT_II = ((1, 0, 2), (2, 0, 2), (3, 0, 2), (4, 1, 1))


def _ladder_ops(work: Path, docs: list[tuple[str, dict, bool]], check_factory) -> list[Op]:
    ops = []
    largest = max(range(len(docs)), key=lambda i: (ladder_cells(docs[i][1]), -i))
    for i, (label, doc, independent) in enumerate(docs):
        path = _write(work, f"ladder{i:03d}.json", doc)
        ops.append(
            Op(
                label=f"unif-sim {label}",
                argv=["unif-sim", "--instance", path],
                check=check_factory(doc, independent),
                largest=i == largest,
            )
        )
    return ops


def ladder_independent(work: Path, seed: int, checks) -> list[Op]:
    rng = random.Random(f"ladder-independent/{seed}")
    docs = []
    for levels, m, r in INDEPENDENT_I:
        structure = random.Random(f"ladder-independent-corpus/i/{levels}x{m}/r{r}")
        docs.append((f"i {levels}x{m} r={r}", independent_ladder(structure, rng, levels, m, r), True))
    for levels, r, i_max in INDEPENDENT_II:
        structure = random.Random(f"ladder-independent-corpus/ii/{levels}/r{r}/{i_max}")
        doc = independent_ladder_ii(structure, rng, levels, r, i_max)
        docs.append((f"ii {levels} levels r={r} i_max={i_max}", doc, True))
    return _ladder_ops(work, docs, checks.ladder)


SHARED_SHAPES = ((2, 4), (2, 5), (3, 3))
SHARED_COPIES = 8


def ladder_shared(work: Path, seed: int, checks) -> list[Op]:
    rng = random.Random(f"ladder-shared/{seed}")
    docs = []
    for copy in range(SHARED_COPIES):
        for levels, m in SHARED_SHAPES:
            for r in (0, 1):
                structure = random.Random(f"ladder-shared-corpus/{levels}x{m}/r{r}/{copy}")
                label = f"shared {levels}x{m} r={r} #{copy}"
                docs.append((label, shared_ladder(structure, rng, levels, m, r), False))
    return _ladder_ops(work, docs, checks.ladder)


# --- witness systems -----------------------------------------------------------

WITNESS_PRIMES = (2, 3, 5, 7, 11, 13)

# (height, r, truncation, finals, cross-level atoms); the last is the largest,
# a 36 x 82 relation matrix
WITNESS_SHAPES = (
    (1, 0, 2, 2, False),
    (1, 1, 3, 3, False),
    (1, 2, 4, 4, False),
    (2, 0, 3, 4, True),
    (2, 1, 4, 4, False),
    (2, 1, 5, 5, True),
    (2, 2, 6, 6, False),
)
WITNESS_COPIES = 2


def witness_system(structure: random.Random, height: int, r: int, t: int, n_finals: int, cross: bool) -> dict:
    """Witness system whose every final owns one private atom at its deepest level.

    Private atoms keep a reshuffling order in existence (each final is fresh
    whenever it comes).  Sibling carriers grow by one private atom per
    sibling, so the carrier chains are monotone.  Without `cross` the level
    slices are disjoint, which the quotient-basis construction assumes.
    """
    pool1 = [f"u{i}" for i in range(t + 2)]
    pool2 = [f"v{i}" for i in range(t + 2)]
    nodes, level, e_map, b_map = [()], {(): height}, {}, {(): []}
    if height == 1:
        groups = {(): sorted(structure.sample(range(12), n_finals))}
    else:
        n_mid = (n_finals + 1) // 2
        firsts = sorted(structure.sample(range(12), n_mid))
        e_map[()] = firsts
        groups, left = {}, n_finals
        for k, i in enumerate(firsts):
            count = 2 if left - 2 >= n_mid - k - 1 else 1
            groups[(i,)] = sorted(structure.sample(range(4), count))
            left -= count
            nodes.append((i,))
            level[(i,)] = 1
            b_map[(i,)] = pool1
    deep = pool1 if height == 1 else pool2 + (pool1 if cross else [])
    phi, private = {}, 0
    for parent, indices in groups.items():
        e_map[parent] = indices
        chain = []
        for j in indices:
            z = parent + (j,)
            chain.append(private)
            private += 1
            nodes.append(z)
            level[z] = 0
            b_map[z] = deep + list(chain)
            slices = {}
            for k in range(1, height):
                slices[str(k)] = structure.sample(b_map[z[:k]], t)
            slices[str(height)] = [chain[-1]] + structure.sample(deep, t - 1)
            phi[node_key(z)] = slices
    finals = sorted(n for n in nodes if level[n] == 0)
    return {
        "schema": SCHEMA,
        "nodes": [node_key(n) for n in nodes],
        "level": {node_key(n): v for n, v in level.items()},
        "E": {node_key(n): v for n, v in e_map.items()},
        "B": {node_key(n): v for n, v in b_map.items()},
        "phi": phi,
        "truncation": t,
        "r": r,
        "q": {node_key(z): [structure.choice(WITNESS_PRIMES) for _ in range(t)] for z in finals},
        "d": {node_key(z): [[structure.randint(-3, 3) for _ in range(r)] for _ in range(t)] for z in finals},
        "J": t + r + 2,
    }


def m_range(doc: dict) -> int:
    return min(doc["truncation"], doc["J"] - doc["r"] - 1)


def witness_image(doc: dict, f: dict, a: dict) -> dict:
    """c(z, m) = q a[m+r+1] - a[m+r] - sum_l d[m][l] a[l] - sum_k f(phi_k(m)), recomputed here."""
    r = doc["r"]
    out = {}
    for zk, qs in doc["q"].items():
        depth = len(doc["phi"][zk])
        row = []
        for m in range(m_range(doc)):
            total = qs[m] * a[(zk, m + r + 1)] - a[(zk, m + r)]
            total -= sum(doc["d"][zk][m][l] * a[(zk, l)] for l in range(r))
            total -= sum(f[json.dumps(doc["phi"][zk][str(k)][m])] for k in range(1, depth + 1))
            row.append(total)
        out[zk] = row
    return out


def witness_atoms(doc: dict) -> list:
    return sorted({json.dumps(x) for slices in doc["phi"].values() for vals in slices.values() for x in vals})


def witness(work: Path, seed: int, checks) -> list[Op]:
    rng = random.Random(f"witness/{seed}")
    ops = []
    for copy in range(WITNESS_COPIES):
        for shape_index, shape in enumerate(WITNESS_SHAPES):
            height, r, t, n_finals, cross = shape
            structure = random.Random(f"witness-corpus/{shape_index}/{copy}")
            doc = witness_system(structure, *shape)
            tag = f"h={height} r={r} T={t} finals={n_finals}{' cross' if cross else ''} #{copy}"
            stem = f"ws{copy}_{shape_index}"
            system = _write(work, f"{stem}.json", doc)
            planted_f = {x: rng.randint(-9, 9) for x in witness_atoms(doc)}
            planted_a = {(zk, j): rng.randint(-9, 9) for zk in doc["q"] for j in range(doc["J"])}
            planted = witness_image(doc, planted_f, planted_a)
            random_c = {zk: [rng.randint(-6, 6) for _ in range(m_range(doc))] for zk in doc["q"]}
            largest = copy == 0 and shape_index == len(WITNESS_SHAPES) - 1
            for kind, coloring in (("planted", planted), ("random", random_c)):
                path = _write(work, f"{stem}_c_{kind}.json", {"schema": SCHEMA, "c": coloring})
                ops.append(
                    Op(
                        label=f"solve-witness {kind} {tag}",
                        argv=["solve-witness", "--system", system, "--c", path],
                        check=checks.solve_witness(doc, coloring, planted=kind == "planted"),
                        largest=largest and kind == "planted",
                    )
                )
            ops.append(
                Op(
                    label=f"build-G {tag}",
                    argv=["build-G", "--system", system],
                    check=checks.build_g(doc),
                )
            )
            if not cross:
                firsts = sorted({int(zk.split(".")[0]) for zk in doc["q"]})
                alpha = -1 if (copy + shape_index) % 2 == 0 else firsts[0]
                beta = firsts[-1] + 1
                ops.append(
                    Op(
                        label=f"basis alpha={alpha} {tag}",
                        argv=["basis", "--system", system, "--alpha", str(alpha), "--beta", str(beta)],
                        check=checks.basis(doc, alpha, beta),
                        )
                )
    return ops


# --- families -----------------------------------------------------------------

FAMILY_T = 3
FAMILY_CHILDREN = 8
FAMILY_POOL = 24
# (sets, planted violator); the 2,000-set family is the largest input.  The
# two 250-set families make the median operation one of their two
# `transform --kind disjoint` runs rather than a cluster of operations whose
# order the seed decides.
FAMILY_SIZES = ((250, False), (250, True), (500, True), (1000, False), (2000, True))


def family(rng: random.Random, n_sets: int, violator: bool) -> tuple[dict, list[int]]:
    """Height-2 family: mids of 8 finals each, every final with a private int atom.

    Level-1 slices come from one pool shared by every mid; level-2 slices hold
    the final's private atom and two atoms of its mid's pool.  With `violator`
    the finals of one mid drop their private atoms and draw from 3 + 4 atoms,
    so those 8 sets have a union of 7.  Private atoms sort first, so matching
    finds every augmenting path at depth one outside that group.
    """
    n_mids = -(-n_sets // FAMILY_CHILDREN)
    pool1 = [f"a{i}" for i in range(FAMILY_POOL)]
    bad_mid = rng.randrange(n_sets // FAMILY_CHILDREN) if violator else None  # a full mid
    tight = rng.sample(pool1, FAMILY_T)
    nodes, level, e_map, b_map, phi = [""], {"": 2}, {"": list(range(n_mids))}, {"": []}, {}
    group: list[int] = []
    count = 0
    for i in range(n_mids):
        kids = min(FAMILY_CHILDREN, n_sets - count)
        mid = str(i)
        nodes.append(mid)
        level[mid] = 1
        e_map[mid] = list(range(kids))
        b_map[mid] = pool1
        shared = [f"b{i}_{t}" for t in range(FAMILY_T + 1)]
        private = list(range(10_000 + count, 10_000 + count + kids))
        for j in range(kids):
            z = f"{i}.{j}"
            nodes.append(z)
            level[z] = 0
            if i == bad_mid:
                group.append(count + j)
                b_map[z] = shared
                phi[z] = {"1": rng.sample(tight, FAMILY_T), "2": rng.sample(shared, FAMILY_T)}
            else:
                b_map[z] = shared + private
                phi[z] = {"1": rng.sample(pool1, FAMILY_T), "2": [private[j]] + rng.sample(shared, FAMILY_T - 1)}
        count += kids
    doc = {"schema": SCHEMA, "nodes": nodes, "level": level, "E": e_map, "B": b_map, "phi": phi, "truncation": FAMILY_T}
    return doc, group


def family_sets(doc: dict) -> tuple[list[str], list[frozenset]]:
    """Finals in canonical order (all finals share one length) and their sets."""
    finals = sorted(doc["phi"], key=lambda k: tuple(int(x) for x in k.split(".")))
    sets = [frozenset(json.dumps(x) for vals in doc["phi"][z].values() for x in vals) for z in finals]
    return finals, sets


def minimum_violator(sets: list[frozenset], group: list[int]) -> int:
    """Size of the smallest Hall violator, by brute force over the planted group.

    Every other set owns a private atom, so dropping it from a violator leaves
    a violator: the smallest one lies inside the group.
    """
    for size in range(1, len(group) + 1):
        for sub in itertools.combinations(group, size):
            if len(frozenset().union(*(sets[i] for i in sub))) < size:
                return size
    raise ValueError("the planted group is not a violator")


def families(work: Path, seed: int, checks) -> list[Op]:
    rng = random.Random(f"families/{seed}")
    ops = []
    for index, (n_sets, violator) in enumerate(FAMILY_SIZES):
        doc, group = family(rng, n_sets, violator)
        path = _write(work, f"family{index}.json", doc)
        finals, sets = family_sets(doc)
        tag = f"{n_sets} sets {'violator' if violator else 'free'}"
        ops.append(
            Op(
                label=f"check-free {tag}",
                argv=["check-free", path],
                check=checks.check_free(finals, sets, free=not violator),
                largest=n_sets == FAMILY_SIZES[-1][0],
            )
        )
        if violator:
            smallest = minimum_violator(sets, group)
            for k in (smallest, smallest + 1):
                ops.append(
                    Op(
                        label=f"check-free --k {k} {tag}",
                        argv=["check-free", path, "--k", str(k)],
                        check=checks.k_free(finals, sets, k, smallest),
                    )
                )
        else:
            # a violator family has no reshuffling order, and the search for
            # one runs into its node budget
            ops.append(
                Op(
                    label=f"check-free --k 5 {tag}",
                    argv=["check-free", path, "--k", "5"],
                    check=checks.k_free(finals, sets, 5, None),
                )
            )
            alpha = rng.randrange(len(doc["E"][""]))
            ops.append(
                Op(
                    label=f"reshuffle --alpha {alpha} {tag}",
                    argv=["reshuffle", path, "--alpha", str(alpha)],
                    check=checks.reshuffle(finals, sets, alpha, 1),
                )
            )
        if n_sets <= 500:
            ops.append(Op(label=f"validate {tag}", argv=["validate", path], check=checks.validate(doc, None)))
        if n_sets <= 250 and not violator:
            ops.append(
                Op(
                    label=f"validate --structure {tag}",
                    argv=["validate", path, "--structure"],
                    check=checks.validate(doc, finals),
                )
            )
        if n_sets <= 250:
            for kind in ("disjoint", "tree"):
                ops.append(
                    Op(
                        label=f"transform {kind} {tag}",
                        argv=["transform", path, "--kind", kind],
                        check=checks.transform(doc),
                    )
                )
    return ops


WORKLOADS = {
    "ladder-independent": ladder_independent,
    "ladder-shared": ladder_shared,
    "witness": witness,
    "families": families,
}
