"""Reference implementations that only the tests use.

The quadratic scans are what the library ran before it indexed atoms, and
`system_to_doc` is the document builder that converted every atom of every
carrier on its own and orders nodes by `lex_compare` itself; the
differential tests run both and require identical results.
`threshold_exponents` is the step loop that tried every d in turn,
`max_magnitude_bound` the loop that tried every t, and `shift_disjoint`
the set search that the tables' interval search is checked against.
`prime_zero_class` and `power_zero_class` build a table's Y from every
coefficient vector, as the tables did before they summed intervals one
coefficient at a time.
`gen_names` and `ladder_rows` are `simulate`'s row assembly as it ran
before it laid its columns out by arithmetic: a name -> column map over
the generator names, one formatted name per lookup, and one table fetch
per row.
`lattice_basis` and `dense_hnf` are a ladder core's lattice basis and the
Hermite form as they ran on dense vectors and rows, before both kept only
nonzeros.  The linear algebra helpers (a Bareiss determinant, a rank read
off `hnf`, a brute-force purity search) give the tests an independent
second answer.
`whole_splitting`, `core_splitting` and `basis_generation` are the
generic paths that `simulate` and `verify_basis` replaced: one exact solve
of the whole ladder system (before label elimination), one exact solve of
its coupled core (before the core's kernel was read off its congruence
lattice), and one Hermite form for every generation check (before unit
peeling).
`unit_pivots` and `peeled_block` are unit peeling as it ran on dense
matrices, reading each row's nonzeros off the dense row and each column's
off a column scan, before relation rows became sparse maps.
`family_from_doc` parses a family document one value at a time, as
`jsonio` did before it checked the types of whole columns.
`max_matching` is the matching that sorted every set and ran a depth-first
search from each one, before a set whose lowest-ranked atom was still free
took it without a search.
The oracles take the skeleton, the family and the witness system as
separate arguments, as the library once did; the differential tests pass
them the parts of one value.
Nothing under `src/` imports this module.
"""

import warnings
from collections import deque
from functools import cmp_to_key
from itertools import compress, product

from lamsys import jsonio, uniformization
from lamsys.abelian import (
    CertificateError,
    DimensionError,
    IntMatrix,
    NonfreeSpec,
    build_chain_group,
    dense,
    hnf,
    in_lattice,
    kernel_basis,
    reduce_mod_lattice,
    solve_z,
)
from lamsys.core import ROOT, BasedFamily, SystemSkeleton, atom_sort_key, atom_to_jsonable, node_key
from lamsys.freeness import ReshufflingOrder
from lamsys.jsonio import SCHEMA


def lex_compare(a, b) -> int:
    """-1, 0, or 1: proper prefixes come first, then first-disagreement order.

    This is the definition of the node order.  It is Python's own comparison
    of int tuples, so the library sorts nodes with plain `sorted`.
    """
    for x, y in zip(a, b):
        if x != y:
            return -1 if x < y else 1
    if len(a) == len(b):
        return 0
    return -1 if len(a) < len(b) else 1


def det(a: IntMatrix) -> int:
    """Determinant by fraction-free (Bareiss) elimination."""
    if a.rows != a.cols:
        raise DimensionError("determinant of a non-square matrix")
    n = a.rows
    if n == 0:
        return 1
    m = [list(row) for row in a.entries]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            pivot = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if pivot is None:
                return 0
            m[k], m[pivot] = m[pivot], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def matrix_rank(a: IntMatrix) -> int:
    h, _ = hnf(a)
    return sum(1 for row in h.entries if any(row))


def core_splitting(a: IntMatrix, shifts) -> tuple[IntMatrix, tuple[int, ...]]:
    """The Hermite form of the kernel of a and the balanced solution of a x = -s.

    `solve_z` and `kernel_basis` of the system, `hnf` of the kernel, then
    the balanced reduction of the particular solution against that form.
    """
    kh, _ = hnf(kernel_basis(a))
    return kh, reduce_mod_lattice(solve_z(a, [-s for s in shifts]), kh)


def whole_splitting(w: IntMatrix, shifts) -> tuple[int, ...]:
    """The canonical splitting of W c = -s from all of W."""
    return core_splitting(w, shifts)[1]


def basis_generation(pres, candidate_names) -> tuple[bool, tuple[str, ...]]:
    """(generated, failing generators) of `verify_basis` from one Hermite form of the stacked rows.

    Every generator's unit vector is reduced against the Hermite form of the
    relation rows and the candidate's unit rows; the names must all be
    generators of `pres`.
    """
    index = {g: i for i, g in enumerate(pres.generators)}
    n = len(pres.generators)
    rows = list(dense(pres.relations, n).entries)
    for g in candidate_names:
        row = [0] * n
        row[index[g]] = 1
        rows.append(tuple(row))
    h, _ = hnf(IntMatrix(tuple(rows)))
    failing = []
    for g in pres.generators:
        e = [0] * n
        e[index[g]] = 1
        if not in_lattice(h, e):
            failing.append(g)
    return not failing, tuple(failing)


def purity_evidence(spec: NonfreeSpec, box: int = 2, k_max: int = 4):
    """Brute-force check that the head subgroup is pure in the truncated chain group.

    Searches coefficient vectors x with |entries| <= box and multipliers
    2 <= k <= k_max; whenever k*x lands in <z_0..z_{r-1}> modulo relations, x
    itself must.  Returns (True, None) or (False, counterexample vector).
    """
    pres = build_chain_group(spec)
    j = spec.j_trunc
    head = tuple(tuple(1 if k == l else 0 for k in range(j)) for l in range(spec.r))
    lattice = IntMatrix(dense(pres.relations, j).entries + head)
    h, _ = hnf(lattice)
    for x in product(range(-box, box + 1), repeat=j):
        if all(v == 0 for v in x):
            continue
        for k in range(2, k_max + 1):
            kx = [k * v for v in x]
            if in_lattice(h, kx) and not in_lattice(h, x):
                return False, tuple(x)
    return True, None


def max_matching(sets):
    """Augmenting-path matching with a search from every set; returns (match_of_set, match_of_atom)."""
    rank = {a: i for i, a in enumerate(sorted(set().union(*sets), key=atom_sort_key))}
    adj = [sorted(s, key=rank.__getitem__) for s in sets]
    match_of_atom = {}
    match_of_set = {}

    def augment(root):
        seen = set()
        stack = [(root, iter(adj[root]))]
        path = []  # path[k]: the atom tried from the set stack[k][0]
        while stack:
            a = next((x for x in stack[-1][1] if x not in seen), None)
            if a is None:
                stack.pop()
                if path:
                    path.pop()
                continue
            seen.add(a)
            path.append(a)
            j = match_of_atom.get(a)
            if j is None:
                for (i, _), b in zip(stack, path):
                    match_of_atom[b] = i
                    match_of_set[i] = b
                return
            stack.append((j, iter(adj[j])))

    for i in range(len(sets)):
        augment(i)
    return match_of_set, match_of_atom


def verify_order(order: ReshufflingOrder, fam) -> bool:
    """ReshufflingOrder.verify with the cutoff tested on every pair of positions."""
    seen: set = set()
    for z in order.order:
        fresh = fam.s(z) - seen
        if len(fresh) < order.theta_fresh:
            return False
        seen |= fam.s(z)
    for i, tau in enumerate(order.order):
        for z in order.order[i + 1:]:
            if z[0] <= order.alpha < tau[0]:
                return False
    return True


def verify_obstruction(obstruction, fam, index) -> bool:
    """ReshufflingObstruction.verify with each pool final's private atoms found by set differences."""
    remaining = list(obstruction.remaining)
    if not remaining or len(set(remaining)) != len(remaining) or any(z not in index for z in remaining):
        return False
    pool = [z for z in remaining if z[0] > obstruction.alpha] or remaining
    for z in pool:
        others = set().union(*(fam.s(w) for w in remaining if w != z))
        if len(fam.s(z) - others) >= obstruction.theta_fresh:
            return False
    return True


def check_structure(sys_, fam):
    """The three structure properties, scanning every pair of nodes and of slices.

    Returns the three witness lists (sibling overlap, slice alignment,
    enumeration tree) as tuples.
    """
    overlap = []
    nodes = sys_.sorted_nodes()
    for i, n1 in enumerate(nodes):
        for n2 in nodes[i + 1:]:
            shared = sys_.B.get(n1, frozenset()) & sys_.B.get(n2, frozenset())
            if shared and (len(n1) != len(n2) or n1[:-1] != n2[:-1] or n1 == ROOT or n2 == ROOT):
                overlap.append(
                    {"nodes": (node_key(n1), node_key(n2)), "atom": min(shared, key=atom_sort_key)}
                )

    alignment = []
    finals = list(fam.finals)
    for zi, z in enumerate(finals):
        for v in finals[zi:]:
            for k in range(1, len(z) + 1):
                for i in range(1, len(v) + 1):
                    if z == v and k == i:
                        continue
                    shared = fam.slice_atoms(z, k) & fam.slice_atoms(v, i)
                    if not shared:
                        continue
                    bad = (
                        k != i
                        or len(z) != len(v)
                        or any(z[j] != v[j] for j in range(len(z)) if j != k - 1)
                    )
                    if bad:
                        alignment.append(
                            {
                                "finals": (node_key(z), node_key(v)),
                                "levels": (k, i),
                                "atom": min(shared, key=atom_sort_key),
                            }
                        )

    tree = []
    for z in finals:
        for k in range(1, len(z) + 1):
            vals = fam.phi.get((z, k), ())
            for v in finals:
                if len(v) < k:
                    continue
                other = fam.slice_atoms(v, k)
                for m in range(len(vals) - 1):
                    if vals[m + 1] in other and vals[m] not in other:
                        tree.append(
                            {
                                "final": node_key(z),
                                "level": k,
                                "position": m + 1,
                                "other": node_key(v),
                            }
                        )
    return tuple(overlap), tuple(alignment), tuple(tree)


def tree_carriers(sys_, fam):
    """Carriers of transform_tree, testing every used tuple against every carrier."""
    used = {tuple(vals[: m + 1]) for vals in fam.phi.values() for m in range(len(vals))}
    out = {}
    for n in sys_.nodes:
        carrier = sys_.B.get(n, frozenset())
        out[n] = frozenset(t for t in used if set(t) <= carrier) if carrier else frozenset()
    return out


def system_to_doc(sys_, fam=None, ws=None) -> dict:
    """jsonio.system_to_doc, sorting and converting every atom where it occurs."""
    nodes = sorted(sys_.nodes, key=cmp_to_key(lex_compare))
    doc = {
        "schema": SCHEMA,
        "nodes": [node_key(n) for n in nodes],
        "level": {node_key(n): sys_.level[n] for n in nodes},
        "E": {node_key(n): sorted(sys_.E[n]) for n in nodes if n in sys_.E},
        "B": {
            node_key(n): [atom_to_jsonable(a) for a in sorted(sys_.B.get(n, frozenset()), key=atom_sort_key)]
            for n in nodes
        },
        "largeness": sys_.largeness,
    }
    if fam is not None:
        phi = {}
        for z in fam.finals:
            per_level = {}
            for k in range(1, len(z) + 1):
                per_level[str(k)] = [atom_to_jsonable(a) for a in fam.phi.get((z, k), ())]
            phi[node_key(z)] = per_level
        doc["phi"] = phi
        doc["truncation"] = fam.truncation
    if ws is not None:
        doc["r"] = ws.r
        doc["q"] = {node_key(z): list(ws.q[z]) for z in ws.finals()}
        doc["d"] = {node_key(z): [list(row) for row in ws.d[z]] for z in ws.finals()}
        doc["J"] = ws.j_trunc
        if ws.strong_order is not None:
            doc["strong"] = ws.strong_order.to_jsonable()
    return doc


def family_from_doc(doc) -> BasedFamily:
    """jsonio.family_from_doc, every value through its own parser in document order."""
    jsonio._check_schema(doc, "system document")
    jsonio._require_keys(doc, jsonio._SYSTEM_REQUIRED, jsonio._SYSTEM_OPTIONAL, "system document")
    node = jsonio._NodeKeys()
    nodes = frozenset(node[k] for k in jsonio._strs(doc["nodes"], "nodes"))
    largeness = doc.get("largeness", "nonempty")
    if type(largeness) is not str:
        raise jsonio._malformed("a string", largeness, "largeness", ())
    sys_ = SystemSkeleton(
        nodes=nodes,
        level={node[k]: jsonio._int(v, "level", k) for k, v in jsonio._object(doc["level"], "level").items()},
        E={node[k]: frozenset(jsonio.ints(v, "E", k)) for k, v in jsonio._object(doc["E"], "E").items()},
        B={node[k]: frozenset(jsonio._atoms(v, "B", k)) for k, v in jsonio._object(doc["B"], "B").items()},
        largeness=largeness,
    )
    if "phi" not in doc or "truncation" not in doc:
        raise jsonio.InputError("document carries no family (phi and truncation required)")
    phi = {}
    for zk, per_level in jsonio._object(doc["phi"], "phi").items():
        z = node[zk]
        for k, vals in jsonio._object(per_level, "phi", zk).items():
            phi[(z, int(k))] = tuple(jsonio._atoms(vals, "phi", zk, k))
    return BasedFamily(
        system=sys_,
        phi=phi,
        truncation=jsonio._int(doc["truncation"], "truncation"),
    )


def threshold_exponents(p: int, r: int, i_max: int) -> tuple[int, ...]:
    """uniformization.threshold_exponents, trying every d from 1 up."""
    ts = [0]
    for _ in range(i_max):
        prev = ts[-1]
        lhs = (2 * p ** prev + 1) ** (2 * r + 2) * p ** (2 * prev)
        d = 1
        while p ** d <= lhs:
            d += 1
        ts.append(prev + d)
    return tuple(ts)


def max_magnitude_bound(p: int, r: int) -> int:
    """uniformization.max_magnitude_bound, counting t up one at a time (time grows as p^(1/(2r+2)))."""
    t = 0
    while (2 * (t + 1) + 1) ** (2 * r + 2) < p:
        t += 1
    return t


def prime_zero_class(p: int, mu) -> uniformization.IntervalSet:
    """uniformization.prime_table's Y, from every one of the (2t+1)^r coefficient vectors."""
    t = uniformization.max_magnitude_bound(p, len(mu))
    centers = sorted({sum(c * m for c, m in zip(mu, vec)) for vec in product(range(-t, t + 1), repeat=len(mu))})
    return uniformization.IntervalSet.from_raw([(c - t, c + t) for c in centers], p)


def power_zero_class(p: int, i: int, thresholds, mu) -> uniformization.IntervalSet:
    """uniformization.power_table's Y, from every one of the (2p^{t_{i-1}}+1)^r coefficient vectors."""
    t_prev, t_cur = thresholds[i - 1], thresholds[i]
    modulus, big_p = p ** t_cur, p ** t_prev
    coeffs = [sum(p ** j * row[j] for j in range(t_cur)) % modulus for row in mu]
    vecs = product(range(-big_p, big_p + 1), repeat=len(mu))
    centers = sorted({sum(c * m for c, m in zip(coeffs, vec)) % modulus for vec in vecs})
    return uniformization.IntervalSet.from_raw([(c - big_p, c + 2 * big_p - 1) for c in centers], modulus)


def gen_names(inst, n_rel_of) -> list[str]:
    """The generator names of a ladder instance, level by level, then the labels."""
    names = []
    for lv in sorted(inst.levels, key=lambda l: l.alpha):
        names += [f"z:{lv.alpha}:{k}" for k in range(1, inst.r + 1)]
        names += [f"y:{lv.alpha}:{n}" for n in range(n_rel_of(lv) + 1)]
    labels = sorted({g for lv in inst.levels for g in lv.g_labels})
    names += [f"g:{g}" for g in labels]
    return names


def ladder_rows(inst):
    """(names, rows, shifts, decided, labels, table keys) of `simulate`'s rows, found by generator name.

    Each row looks its columns up in a name -> column map, by the names
    `gen_names` writes, and fetches its table on its own.  `inst` must be
    valid, so that its thresholds are not cut short.
    """
    if inst.subcase == "ii":
        thresholds = uniformization.threshold_exponents(inst.p, inst.r, inst.i_max)
        n_rel_of = lambda lv: thresholds[-1]
        block_of = [i for i in range(1, len(thresholds)) for _ in range(thresholds[i - 1], thresholds[i])]
    else:
        n_rel_of = lambda lv: len(lv.primes)
    names = gen_names(inst, n_rel_of)
    index = {g: i for i, g in enumerate(names)}
    rows, shifts, decides, labels, keys = [], [], [], [], []
    for lv in sorted(inst.levels, key=lambda l: l.alpha):
        for n in range(n_rel_of(lv)):
            if inst.subcase == "i":
                prime = lv.primes[n]
                decides.append(index[f"y:{lv.alpha}:{n + 1}"])
                row = {decides[-1]: prime, index[f"y:{lv.alpha}:0"]: -1}
                tab = uniformization.prime_table(prime, tuple(lv.mu[k][n] for k in range(inst.r)))
                shift = tab.shift[lv.colors[n]]
            else:
                decides.append(index[f"y:{lv.alpha}:{n}"])
                row = {index[f"y:{lv.alpha}:{n + 1}"]: inst.p, decides[-1]: -1}
                block = block_of[n]
                tab = uniformization.power_table(inst.p, block, thresholds, lv.mu)
                # base-p digit n of the block's shift, a multiple of p^{t_{block-1}}
                shift = tab.shift[lv.colors[block - 1]] // inst.p ** n % inst.p
            for k in range(inst.r):
                if lv.mu[k][n]:
                    row[index[f"z:{lv.alpha}:{k + 1}"]] = -lv.mu[k][n]
            g = index[f"g:{lv.g_labels[n]}"]
            row[g] = 1
            labels.append(g)
            rows.append(row)
            shifts.append(shift)
            keys.append(tab.key)
    return names, rows, shifts, decides, labels, keys


def lattice_basis(forms, size: int) -> list[list[int]]:
    """uniformization._lattice_basis on dense vectors: each form's value on every vector, each update full width."""
    basis = [[int(i == k) for i in range(size)] for k in range(size)]
    for form, p in forms:
        values = [sum(v * b[i] for i, v in form.items()) % p for b in basis]
        piv = next((k for k in reversed(range(size)) if values[k]), None)
        if piv is None:
            continue
        inv = pow(values[piv], -1, p)
        bp = basis[piv]
        for k in range(piv):
            if values[k]:
                q = values[k] * inv % p
                basis[k] = [x - q * y for x, y in zip(basis[k], bp)]
        basis[piv] = [p * y for y in bp]
    return basis


def dense_hnf(a: IntMatrix, inverse: bool = False) -> tuple[IntMatrix, ...]:
    """abelian.hnf on dense rows: the same pivots and row operations, each over the full row width."""
    rows, cols = a.rows, a.cols
    h = [list(row) for row in a.entries]
    u = [list(row) for row in IntMatrix.identity(rows).entries]
    vt = [list(row) for row in IntMatrix.identity(rows).entries] if inverse else None
    tracked = (h, u, vt) if inverse else (h, u)

    def row_sub(i: int, j: int, q: int) -> None:
        if q == 0:
            return
        h[i] = [x - q * y for x, y in zip(h[i], h[j])]
        u[i] = [x - q * y for x, y in zip(u[i], u[j])]
        if vt is not None:
            vt[j] = [x + q * y for x, y in zip(vt[j], vt[i])]

    def swap(i: int, j: int) -> None:
        for m in tracked:
            m[i], m[j] = m[j], m[i]

    pr = 0
    for c in range(cols):
        while True:
            best = None
            for i in range(pr, rows):
                v = h[i][c]
                if v != 0 and (best is None or abs(v) < abs(h[best][c])):
                    best = i
            if best is None:
                break
            if best != pr:
                swap(pr, best)
            done = True
            for i in range(pr + 1, rows):
                if h[i][c] != 0:
                    row_sub(i, pr, h[i][c] // h[pr][c])
                    if h[i][c] != 0:
                        done = False
            if done:
                break
        if pr < rows and h[pr][c] != 0:
            if h[pr][c] < 0:
                for m in tracked:
                    m[pr] = [-x for x in m[pr]]
            for i in range(pr):
                row_sub(i, pr, h[i][c] // h[pr][c])
            pr += 1
            if pr == rows:
                break
    out = IntMatrix(tuple(map(tuple, h))), IntMatrix(tuple(map(tuple, u)))
    return out if vt is None else (*out, IntMatrix(tuple(zip(*vt))))


def shift_disjoint(y, y_prime, modulus: int) -> int:
    """Least b in y_prime with Y and b+Y disjoint, i.e. outside {x - y : x, y in Y}.

    The oracle of the shift that the tables' separation step reads off Y - Y
    built as an interval sum.  The guarantee |Y|^2 < |Y'| is checked; when
    it fails but a valid b still exists, the b is returned with a warning.
    """
    y_set = {v % modulus for v in y}
    yp = sorted({v % modulus for v in y_prime})
    diffs = {(x - v) % modulus for x in y_set for v in y_set}
    b = next((v for v in yp if v not in diffs), None)
    if b is None:
        raise ValueError(f"no valid shift exists (|Y| = {len(y_set)}, |Y'| = {len(yp)}, modulus {modulus})")
    if len(y_set) ** 2 >= len(yp):
        warnings.warn(
            f"size guarantee violated (|Y|^2 = {len(y_set) ** 2} >= |Y'| = {len(yp)}) but a valid shift exists anyway",
            stacklevel=2,
        )
    return b


def _columns(a: IntMatrix) -> list[list[tuple[int, int]]]:
    """For each column t, the (row index, value) pairs of its nonzero entries."""
    cols: list[list[tuple[int, int]]] = [[] for _ in range(a.cols)]
    for i, row in enumerate(a.entries):
        for t in compress(range(len(row)), row):
            cols[t].append((i, row[t]))
    return cols


def unit_pivots(a: IntMatrix) -> list[tuple[int, int]]:
    """(row, column) pivots of singleton +-1 rows and columns of a dense matrix, peeled one after another."""
    m = a.rows
    lines = [[m + j for j in compress(range(len(row)), row)] for row in a.entries]
    lines += [[i for i, _ in col] for col in _columns(a)]
    left = [len(line) for line in lines]
    done = [False] * len(lines)
    queue = deque(k for k, n in enumerate(left) if n == 1)
    pivots = []
    while queue:
        k = queue.popleft()
        if done[k] or left[k] != 1:
            continue
        t = next(t for t in lines[k] if not done[t])
        i, j = (k, t - m) if k < m else (t, k - m)
        if abs(a.entries[i][j]) != 1:
            continue
        pivots.append((i, j))
        done[k] = done[t] = True
        for s in lines[k] + lines[t]:
            if not done[s]:
                left[s] -= 1
                if left[s] == 1:
                    queue.append(s)
    return pivots


def peeled_block(a: IntMatrix, pivots) -> tuple[tuple[int, ...], ...]:
    """The nonzero dense rows of a on the rows and columns that `pivots` leave, once they are re-checked."""
    rows_left, cols_left = set(range(a.rows)), set(range(a.cols))
    cols = _columns(a)
    for i, j in pivots:
        if i not in rows_left or j not in cols_left or abs(a.entries[i][j]) != 1:
            raise CertificateError(f"pivot ({i}, {j}) is not a unit on a row and a column left")
        rows_left.remove(i)
        cols_left.remove(j)
        if any(t in cols_left for t in compress(range(a.cols), a.entries[i])) and any(
            t in rows_left for t, _ in cols[j]
        ):
            raise CertificateError(f"pivot ({i}, {j}) is alone neither in its row nor in its column")
    keep = sorted(cols_left)
    block = (tuple(a.entries[i][j] for j in keep) for i in sorted(rows_left))
    return tuple(row for row in block if any(row))
