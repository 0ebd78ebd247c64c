"""Output checks that recompute every claim from the input documents.

Nothing here imports `lamsys`: relation matrices, witness equations, set
families and structure reports are rebuilt from the documents the benchmark
wrote, and Smith forms come from sympy.  Each factory returns
`check(output, exit_code) -> list of problems`; an empty list means correct.
"""

from __future__ import annotations

import json
from fractions import Fraction

from workloads import m_range, threshold_exponents, witness_image


def _node(key: str) -> tuple:
    return tuple(int(x) for x in key.split(".")) if key else ()


def _atom_order(atom):
    """Canonical atom order of the documents: ints, then strings, then lists."""
    if isinstance(atom, int):
        return (0, atom)
    if isinstance(atom, str):
        return (1, atom)
    return (2, tuple(_atom_order(x) for x in atom))


def _canon(x) -> str:
    return json.dumps(x, sort_keys=True)


# --- ladders -----------------------------------------------------------------


def ladder(doc: dict, independent: bool):
    r, subcase = doc["r"], doc["subcase"]
    levels = sorted(doc["levels"].items(), key=lambda kv: int(kv[0]))
    ts = threshold_exponents(doc["p"], r, doc["i_max"]) if subcase == "ii" else None

    def n_rel(lv):
        return len(lv["primes"]) if subcase == "i" else ts[-1]

    names = []
    for alpha, lv in levels:
        names += [f"z:{alpha}:{k}" for k in range(1, r + 1)]
        names += [f"y:{alpha}:{n}" for n in range(n_rel(lv) + 1)]
    names += [f"g:{g}" for g in sorted({g for _, lv in levels for g in lv["g"]})]
    col = {g: i for i, g in enumerate(names)}
    w, row_colors = [], []
    for alpha, lv in levels:
        for n in range(n_rel(lv)):
            row = [0] * len(names)
            if subcase == "i":
                row[col[f"y:{alpha}:{n + 1}"]] += lv["primes"][n]
                row[col[f"y:{alpha}:0"]] -= 1
                row_colors.append(lv["colors"][n])
            else:
                row[col[f"y:{alpha}:{n + 1}"]] += doc["p"]
                row[col[f"y:{alpha}:{n}"]] -= 1
                block = next(i for i in range(1, len(ts)) if ts[i - 1] <= n < ts[i])
                row_colors.append(lv["colors"][block - 1])
            for k in range(r):
                row[col[f"z:{alpha}:{k + 1}"]] -= lv["mu"][k][n]
            row[col[f"g:{lv['g'][n]}"]] += 1
            w.append(row)

    def check(out: dict, code: int) -> list[str]:
        if code != 0 or "report" not in out:
            return [f"exit {code}, status {out.get('status')!r}"]
        rep = out["report"]
        if rep["generators"] != names:
            return ["generator order differs from the one rebuilt from the instance"]
        errs = []
        if rep["relations"] != w:
            errs.append("relation matrix differs from W rebuilt from the instance")
        c = [rep["splitting"][g] for g in names]
        a = rep["shift_coefficients"]
        if [sum(x * y for x, y in zip(row, c)) for row in w] != [-s for s in a]:
            errs.append("W c != -a")
        if any(s != 0 for s, color in zip(a, row_colors) if color == 0):
            errs.append("nonzero shift on a row colored 0")
        if len(rep["levels"]) != len(levels):
            return errs + ["one level report per level expected"]
        for (alpha, lv), got in zip(levels, rep["levels"]):
            n_queries = len(lv["primes"]) if subcase == "i" else doc["i_max"]
            if got["alpha"] != int(alpha) or sorted(q["n"] for q in got["queries"]) != list(range(n_queries)):
                errs.append(f"level {alpha}: queries do not cover the ladder")
                continue
            for q in got["queries"]:
                if q["n"] >= got["n0"] and q["H"] != lv["colors"][q["n"]]:
                    errs.append(f"level {alpha}: query {q['n']} past n0 recovers {q['H']}, colored {lv['colors'][q['n']]}")
            if independent and got["n0"] != 0:
                errs.append(f"level {alpha}: independent level reports n0 = {got['n0']}")
        if not rep["ok"] or not all(rep["checks"].values()):
            errs.append("report is not ok")
        return errs

    return check


# --- witness systems -----------------------------------------------------------


def _finals(doc: dict) -> list[str]:
    return sorted(doc["q"], key=_node)


def _witness_rows(doc: dict, finals: list[str]) -> list[dict]:
    """Relation rows as {column: coefficient}, in the solver's row order."""
    r = doc["r"]
    rows = []
    for zk in finals:
        depth = len(doc["phi"][zk])
        for m in range(m_range(doc)):
            row: dict = {}

            def add(key, v):
                row[key] = row.get(key, 0) + v

            add(("z", zk, m + r + 1), doc["q"][zk][m])
            add(("z", zk, m + r), -1)
            for l in range(r):
                add(("z", zk, l), -doc["d"][zk][m][l])
            for k in range(1, depth + 1):
                add(("atom", _canon(doc["phi"][zk][str(k)][m])), -1)
            rows.append(row)
    return rows


def _columns(doc: dict, finals: list[str]) -> list:
    atoms = {_canon(x) for zk in finals for vals in doc["phi"][zk].values() for x in vals}
    return [("atom", x) for x in sorted(atoms)] + [("z", zk, j) for zk in finals for j in range(doc["J"])]


def _dense(rows: list[dict], columns: list) -> list[list[int]]:
    return [[row.get(c, 0) for c in columns] for row in rows]


def _smith_diagonal(matrix: list[list[int]]) -> list[int]:
    from sympy import Matrix, ZZ
    from sympy.matrices.normalforms import smith_normal_form

    snf = smith_normal_form(Matrix(matrix), domain=ZZ)
    return sorted(abs(int(snf[i, i])) for i in range(min(snf.shape)) if snf[i, i] != 0)


def solve_witness(doc: dict, coloring: dict, planted: bool):
    finals = _finals(doc)

    def check(out: dict, code: int) -> list[str]:
        status = out.get("status")
        if status == "witness" and code == 0:
            w = out["witness"]
            a = {}
            for key, v in w["a"].items():
                zk, j = key.rsplit(":", 1)
                a[(zk, int(j))] = v
            try:
                image = witness_image(doc, w["f"], a)
            except KeyError as exc:
                return [f"witness lacks a value for {exc}"]
            return [] if image == coloring else ["witness does not satisfy the equations rebuilt from the document"]
        if status == "infeasible" and code == 1:
            if planted:
                return ["planted coloring reported infeasible"]
            y = [Fraction(s) for s in out["certificate"]["y"]]
            rows = _witness_rows(doc, finals)
            rhs = [v for zk in finals for v in coloring[zk]]
            if len(y) != len(rows):
                return ["infeasibility vector has the wrong length"]
            sums: dict = {}
            for yi, row in zip(y, rows):
                for c, v in row.items():
                    sums[c] = sums.get(c, 0) + yi * v
            errs = []
            if any(s.denominator != 1 for s in sums.values()):
                errs.append("y A is not integral")
            if sum(yi * ci for yi, ci in zip(y, rhs)).denominator == 1:
                errs.append("y c is integral")
            return errs
        return [f"exit {code} with status {status!r}"]

    return check


def build_g(doc: dict):
    finals = _finals(doc)

    def check(out: dict, code: int) -> list[str]:
        if code != 0:
            return [f"exit {code}"]
        columns = _columns(doc, finals)
        factors = _smith_diagonal(_dense(_witness_rows(doc, finals), columns))
        errs = []
        if sorted(out["invariant_factors"]) != factors:
            errs.append("invariant factors differ from sympy's Smith form")
        if len(out["presentation"]["gens"]) != len(columns):
            errs.append("generator count differs from the document")
        if out["rank"] != len(columns) - len(factors):
            errs.append("rank differs from generators minus relation rank")
        if out["free"] != all(d == 1 for d in factors):
            errs.append("freeness verdict differs from the invariant factors")
        return errs

    return check


def basis(doc: dict, alpha: int, beta: int):
    """The candidate spans the slice quotient and its size is the quotient's free rank."""
    finals = _finals(doc)
    window = [zk for zk in finals if _node(zk)[0] < beta]
    low = [zk for zk in window if _node(zk)[0] <= alpha]

    def check(out: dict, code: int) -> list[str]:
        if code != 0 or not out["verification"]["ok"]:
            return [f"exit {code}, verification {out.get('verification')}"]
        columns = _columns(doc, window)
        index = {c: i for i, c in enumerate(columns)}
        killed = [("atom", _canon(x)) for zk in low for vals in doc["phi"][zk].values() for x in vals]
        killed += [("z", zk, j) for zk in low for j in range(doc["J"])]
        rows = _dense(_witness_rows(doc, window), columns)
        for c in dict.fromkeys(killed):
            rows.append([1 if i == index[c] else 0 for i in range(len(columns))])
        cand = [("z", zk, j) for zk, j in out["basis"]["z_part"]]
        cand += [("atom", _canon(x)) for x in out["basis"]["atom_part"]]
        if len(set(cand)) != len(cand) or any(c not in index for c in cand):
            return ["candidate repeats a generator or names one outside the window"]
        factors = _smith_diagonal(rows)
        errs = []
        if any(d != 1 for d in factors):
            errs.append("slice quotient is not free")
        if len(cand) != len(columns) - len(factors):
            errs.append(f"candidate size {len(cand)} != free rank {len(columns) - len(factors)}")
        spanned = _smith_diagonal(rows + [[1 if i == index[c] else 0 for i in range(len(columns))] for c in cand])
        if len(spanned) != len(columns) or any(d != 1 for d in spanned):
            errs.append("candidate does not generate the slice quotient")
        return errs

    return check


# --- families -----------------------------------------------------------------


def _union(sets, indices) -> frozenset:
    return frozenset().union(*(sets[i] for i in indices))


def check_free(finals: list[str], sets: list[frozenset], free: bool):
    def check(out: dict, code: int) -> list[str]:
        if out.get("finals") != finals:
            return ["finals differ from the document's"]
        cert = out["certificate"]
        if free:
            if code != 0 or cert["type"] != "transversal":
                return [f"planted transversal, got {cert['type']} (exit {code})"]
            assignment = {int(i): json.dumps(a) for i, a in cert["assignment"].items()}
            errs = []
            if sorted(assignment) != list(range(len(sets))):
                errs.append("transversal does not cover every set")
            if len(set(assignment.values())) != len(assignment):
                errs.append("transversal is not injective")
            if any(a not in sets[i] for i, a in assignment.items()):
                errs.append("transversal picks an atom outside its set")
            return errs
        if code != 1 or cert["type"] != "hall-certificate":
            return [f"planted violator, got {cert['type']} (exit {code})"]
        violator = cert["violator"]
        if not violator or any(not 0 <= i < len(sets) for i in violator):
            return ["violator indices out of range"]
        return [] if len(_union(sets, violator)) < len(set(violator)) else ["violator's union is not smaller than it"]

    return check


def k_free(finals: list[str], sets: list[frozenset], k: int, smallest: int | None):
    """`smallest` is the size of the smallest violator, None for a free family."""
    must_fail = smallest is not None and smallest < k

    def check(out: dict, code: int) -> list[str]:
        if out.get("finals") != finals:
            return ["finals differ from the document's"]
        if not must_fail:
            return [] if code == 0 and out["result"] == "pass" else [f"expected pass below k = {k}, got {out['result']}"]
        if code != 1 or out["result"] != "fail":
            return [f"a violator of size {smallest} < k = {k} exists, got {out['result']}"]
        violator = out["certificate"]["violator"]
        errs = []
        if len(violator) != smallest:
            errs.append(f"certificate has size {len(violator)}, the smallest violator {smallest}")
        if len(_union(sets, violator)) >= len(violator):
            errs.append("violator's union is not smaller than it")
        return errs

    return check


def reshuffle(finals: list[str], sets: list[frozenset], alpha: int, theta: int):
    set_of = dict(zip(finals, sets))

    def check(out: dict, code: int) -> list[str]:
        if code != 0 or out["status"] != "found":
            return [f"every final owns a private atom, yet status {out['status']!r}"]
        order = out["certificate"]["order"]
        if sorted(order) != sorted(finals):
            return ["order is not a permutation of the finals"]
        errs = []
        seen: set = set()
        for zk in order:
            if len(set_of[zk] - seen) < theta:
                errs.append(f"{zk} has fewer than {theta} fresh atoms")
                break
            seen |= set_of[zk]
        firsts = [_node(zk)[0] for zk in order]
        high = [i for i, f in enumerate(firsts) if f > alpha]
        if high and any(f <= alpha for f in firsts[high[0]:]):
            errs.append("a final at or below alpha follows one above it")
        return errs

    return check


def _structure(doc: dict, finals: list[str]) -> dict:
    """The three structure witness lists, recomputed from their definitions."""
    nodes = sorted(doc["nodes"], key=lambda k: tuple((0, v) for v in _node(k)) + ((-1, 0),))
    carrier = {k: set(json.dumps(a) for a in doc["B"].get(k, [])) for k in nodes}
    atom = lambda shared: min((json.loads(a) for a in shared), key=_atom_order)
    overlap = []
    for i, k1 in enumerate(nodes):
        n1 = _node(k1)
        for k2 in nodes[i + 1:]:
            n2 = _node(k2)
            shared = carrier[k1] & carrier[k2]
            if shared and (len(n1) != len(n2) or n1[:-1] != n2[:-1] or not n1 or not n2):
                overlap.append({"nodes": [k1, k2], "atom": atom(shared)})
    slices = {zk: {int(k): [json.dumps(x) for x in vals] for k, vals in doc["phi"][zk].items()} for zk in finals}
    alignment = []
    for zi, zk in enumerate(finals):
        z = _node(zk)
        for vk in finals[zi:]:
            v = _node(vk)
            for k in range(1, len(z) + 1):
                for i in range(1, len(v) + 1):
                    if zk == vk and k == i:
                        continue
                    shared = set(slices[zk][k]) & set(slices[vk][i])
                    if shared and (k != i or len(z) != len(v) or any(z[j] != v[j] for j in range(len(z)) if j != k - 1)):
                        alignment.append({"finals": [zk, vk], "levels": [k, i], "atom": atom(shared)})
    tree = []
    for zk in finals:
        for k in range(1, len(_node(zk)) + 1):
            vals = slices[zk][k]
            for vk in finals:
                if len(_node(vk)) < k:
                    continue
                other = set(slices[vk][k])
                for m in range(len(vals) - 1):
                    if vals[m + 1] in other and vals[m] not in other:
                        tree.append({"final": zk, "level": k, "position": m + 1, "other": vk})
    return {"sibling_overlap": overlap, "slice_alignment": alignment, "enumeration_tree": tree}


def validate(doc: dict, finals: list[str] | None):
    """A valid family; with `finals`, the structure report too."""

    def check(out: dict, code: int) -> list[str]:
        if code != 0 or out["violations"]:
            return [f"valid family reported {out['violations'][:1]} (exit {code})"]
        if finals is None:
            return []
        got = out["structure"]
        errs = []
        for name, expected in _structure(doc, finals).items():
            if sorted(map(_canon, got[name])) != sorted(map(_canon, expected)):
                errs.append(f"structure list {name} differs from its recomputation")
        if got["ok"] != (not (got["sibling_overlap"] or got["slice_alignment"] or got["enumeration_tree"])):
            errs.append("structure verdict disagrees with its witness lists")
        return errs

    return check


def transform(doc: dict):
    """Every transformed slice maps back to the original one and lies in its new carrier."""

    def check(out: dict, code: int) -> list[str]:
        if code != 0:
            return [f"exit {code}"]
        back = {_canon(new): old for new, old in out["renaming"]}
        new = out["document"]
        if sorted(new["phi"]) != sorted(doc["phi"]):
            return ["transformed family has other finals"]
        errs = []
        for zk, per_level in doc["phi"].items():
            z = _node(zk)
            for k, vals in per_level.items():
                moved = new["phi"][zk][k]
                if [back.get(_canon(x)) for x in moved] != vals:
                    errs.append(f"{zk} level {k} does not map back to the original slice")
                    break
                carrier = {_canon(a) for a in new["B"][".".join(map(str, z[: int(k)]))]}
                if any(_canon(x) not in carrier for x in moved):
                    errs.append(f"{zk} level {k} leaves its new carrier")
                    break
        return errs

    return check
