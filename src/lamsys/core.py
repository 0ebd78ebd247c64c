"""Finite rooted trees of index sequences with leveled carrier sets.

A SystemSkeleton is the finite surrogate of a tree of sequences whose nodes
carry strictly decreasing level labels (level 0 marks a final node), child
index sets E, and a monotone chain of carrier sets B along siblings.  A
BasedFamily attaches to each final node a family of per-level enumerations
whose ranges live inside the carriers on the path to that node.

"Largeness" of the index sets is one of the fixed predicates named in
`LARGENESS` (`nonempty`, `half`); there is no pretense that any finite
predicate models stationarity.  All values are immutable after
construction and every operation is a pure function, so concurrent use
needs no synchronization.

Atoms are ints, strings, or (recursively) tuples of atoms; tuples are what
the two normalizing transforms below produce.  Equality is structural and
survives the JSON round-trip in `jsonio`.  The rules about atoms live here
and nowhere else: their canonical order (`atom_sort_key`, `atom_ranks`),
their JSON form (`atom_to_jsonable`) and its compact text (`atom_text`),
and the bound on their nesting (`MAX_ATOM_DEPTH`, `atom_depth`).
"""

from __future__ import annotations

import json
from functools import cached_property
from itertools import chain
from json.encoder import encode_basestring_ascii
from typing import Callable, Iterable, Mapping, Sequence, Union

from .record import record

Node = tuple[int, ...]
Atom = Union[int, str, tuple]

ROOT: Node = ()


def node_key(node: Node) -> str:
    """Dot-joined digit string; the root is the empty string."""
    return ".".join(map(str, node))


def parse_node_key(key: str) -> Node:
    if key == "":
        return ROOT
    return tuple(map(int, key.split(".")))


def atom_sort_key(a: Atom):
    if isinstance(a, bool):
        raise TypeError("bool is not an atom")
    if isinstance(a, int):
        return (0, a)
    if isinstance(a, str):
        return (1, a)
    if isinstance(a, tuple):
        return (2, tuple(atom_sort_key(x) for x in a))
    raise TypeError(f"not an atom: {a!r}")


def atom_ranks(atoms: Iterable[Atom]) -> dict[Atom, int]:
    """Each of the distinct atoms given, mapped to its position in canonical order.

    The order is that of `atom_sort_key`, built without its nested keys:
    the ints sorted, then the strs sorted, then the tuples sorted by the
    ranks of their components, which are ranked the same way, one call
    per level of nesting (atoms nest at most `MAX_ATOM_DEPTH` deep).  So a
    tuple's key is one flat tuple of ints, and a plain atom needs no key.
    """
    atoms = list(atoms)
    ints = sorted([a for a in atoms if type(a) is int])
    strs = sorted([a for a in atoms if type(a) is str])
    tuples = [a for a in atoms if type(a) is tuple]
    if len(ints) + len(strs) + len(tuples) < len(atoms):
        # a bool, or any atom of another type, takes the key sort, which rejects a non-atom
        ordered = sorted(atoms, key=atom_sort_key)
    else:
        if tuples:
            # the components as a list, not a set: a set would merge a bool with its equal int
            rank = atom_ranks(list(chain.from_iterable(tuples))).__getitem__
            tuples.sort(key=lambda t: tuple(map(rank, t)))
        ordered = ints + strs + tuples
    return dict(zip(ordered, range(len(ordered))))


def atom_to_jsonable(a: Atom):
    """The JSON form of an atom, tuples as lists; TypeError on a non-atom, as `atom_sort_key` raises."""
    if isinstance(a, tuple):
        return list(map(atom_to_jsonable, a))
    if isinstance(a, (int, str)) and not isinstance(a, bool):
        return a
    raise TypeError(f"not an atom: {a!r}")


def atom_text(a: Atom) -> str:
    """Compact JSON text of an atom (tuples as arrays): its generator name and its witness key.

    A plain int or str is written by the very call `json.dumps` makes for
    its type, so only a tuple goes through `json.dumps`.
    """
    if type(a) is int:
        return int.__repr__(a)
    if type(a) is str:
        return encode_basestring_ascii(a)
    return json.dumps(atom_to_jsonable(a), sort_keys=True, separators=(",", ":"))


# Deepest list nesting an input atom may have.  Atoms are converted
# (`atom_to_jsonable`), ordered (`atom_sort_key`), named
# (`atom_text`) and written (`jsonio.dump`) by recursive walks; at
# this depth each stays far inside Python's default recursion limit of 1,000
# frames.
MAX_ATOM_DEPTH = 100


def atom_depth(values: Iterable) -> int:
    """Deepest nesting of lists or tuples among values (atoms or their JSON forms); 0 when all are plain.

    The depth is counted one level at a time, not by recursion.
    """
    nested = [v for v in values if isinstance(v, (list, tuple))]
    depth = 0
    while nested:
        depth += 1
        nested = [x for v in nested for x in v if isinstance(x, (list, tuple))]
    return depth


# Largeness predicates: finite stand-ins used wherever the source notion
# demands "large" index sets.  Each takes (level of the node, index set).
LARGENESS: dict[str, Callable[[int, frozenset], bool]] = {
    "nonempty": lambda level, indices: len(indices) > 0,
    "half": lambda level, indices: 2 * len(indices) >= level,
}


@record
class Violation:
    clause: str
    node: Node | None
    detail: str

    def to_jsonable(self) -> dict:
        return {
            "clause": self.clause,
            "node": None if self.node is None else node_key(self.node),
            "detail": self.detail,
        }


@record(eq=False)
class SystemSkeleton:
    """Prefix-closed node set with levels, child index sets, and carriers."""

    nodes: frozenset[Node]
    level: Mapping[Node, int]
    E: Mapping[Node, frozenset[int]]
    B: Mapping[Node, frozenset[Atom]]
    largeness: str = "nonempty"

    def sorted_nodes(self) -> list[Node]:
        return sorted(self.nodes)

    @cached_property
    def _parents(self) -> frozenset[Node]:
        return frozenset(n[:-1] for n in self.nodes if n)

    def is_final(self, node: Node) -> bool:
        return node not in self._parents

    def finals(self) -> list[Node]:
        return sorted(self.nodes - self._parents)


def make_skeleton(
    nodes: Iterable[Node],
    level: Mapping[Node, int],
    e_map: Mapping[Node, Iterable[int]],
    b_map: Mapping[Node, Iterable[Atom]],
    largeness: str = "nonempty",
) -> SystemSkeleton:
    return SystemSkeleton(
        nodes=frozenset(tuple(n) for n in nodes),
        level={tuple(k): int(v) for k, v in level.items()},
        E={tuple(k): frozenset(int(i) for i in v) for k, v in e_map.items()},
        B={tuple(k): frozenset(v) for k, v in b_map.items()},
        largeness=largeness,
    )


def validate_system(sys_: SystemSkeleton) -> list[Violation]:
    """Check every skeleton invariant; violations are data, not errors."""
    out: list[Violation] = []
    nodes = sys_.nodes
    if ROOT not in nodes:
        out.append(Violation("root-missing", None, "the empty sequence must be a node"))
        return out
    ordered = sorted(nodes)
    for n in ordered:
        if n != ROOT and n[:-1] not in nodes:
            out.append(Violation("prefix-closed", n, "parent node missing"))
        if n not in sys_.level:
            out.append(Violation("level-missing", n, "no level assigned"))
    if any(v.clause == "level-missing" for v in out):
        return out

    root_level = sys_.level[ROOT]
    if not any(sys_.level[n] == 0 for n in nodes):
        out.append(Violation("no-final-node", ROOT, "no final node reachable (no node at level 0)"))
    for n in ordered:
        lv = sys_.level[n]
        if lv > root_level:
            out.append(Violation("root-level-max", n, f"level {lv} exceeds root level {root_level}"))
        final = sys_.is_final(n)
        if final and lv != 0:
            out.append(Violation("final-iff-level-zero", n, f"final node has level {lv}"))
        if not final and lv == 0:
            out.append(Violation("final-iff-level-zero", n, "level 0 node has children"))
        if n != ROOT:
            parent = n[:-1]
            if sys_.level.get(parent) is not None and lv >= sys_.level[parent]:
                out.append(
                    Violation("level-decrease", n, f"level must strictly decrease ({sys_.level[parent]} -> {lv})")
                )
            e_parent = sys_.E.get(parent, frozenset())
            if n[-1] not in e_parent:
                out.append(Violation("child-index-in-E", n, f"index {n[-1]} missing from E of parent"))

    pred = LARGENESS.get(sys_.largeness)
    if pred is None:
        out.append(Violation("largeness-unknown", None, f"no predicate named {sys_.largeness!r}"))
    for n in ordered:
        final = sys_.is_final(n)
        e = sys_.E.get(n)
        if final:
            if e is not None:
                out.append(Violation("E-on-final", n, "index set attached to a final node"))
            continue
        if e is None or not e:
            out.append(Violation("E-empty", n, "non-final node needs a nonempty index set"))
            continue
        for beta in sorted(e):
            if n + (beta,) not in nodes:
                out.append(Violation("E-index-no-child", n, f"index {beta} has no child node"))
        if pred is not None and not pred(sys_.level[n], e):
            out.append(Violation("largeness", n, f"predicate {sys_.largeness!r} fails on E"))

    if sys_.B.get(ROOT, frozenset()):
        out.append(Violation("B-root-empty", ROOT, "carrier at the root must be empty"))
    for n in ordered:
        if n not in sys_.B:
            out.append(Violation("B-missing", n, "no carrier set assigned"))
    for n in ordered:
        if sys_.is_final(n):
            continue
        kids = [b for b in sorted(sys_.E.get(n, frozenset())) if n + (b,) in nodes]
        for b1, b2 in zip(kids, kids[1:]):
            lo = sys_.B.get(n + (b1,), frozenset())
            hi = sys_.B.get(n + (b2,), frozenset())
            if not lo <= hi:
                missing = min(lo - hi, key=atom_sort_key)
                out.append(
                    Violation(
                        "B-chain",
                        n + (b2,),
                        f"carrier chain not monotone at sibling {b1} <= {b2}: {missing!r} lost",
                    )
                )
    return out


def restrict_to_nodes(sys_: SystemSkeleton, keep: Iterable[Node]) -> SystemSkeleton:
    """Keep only the given nodes, pruning E to kept children and dropping empty E."""
    keep = frozenset(keep)
    new_e = {
        node: frozenset(b for b in sys_.E[node] if node + (b,) in keep)
        for node in keep
        if node in sys_.E
    }
    return SystemSkeleton(
        nodes=keep,
        level={k: v for k, v in sys_.level.items() if k in keep},
        E={node: e for node, e in new_e.items() if e},
        B={k: v for k, v in sys_.B.items() if k in keep},
        largeness=sys_.largeness,
    )


@record(eq=False)
class BasedFamily:
    """Per-final enumerations phi[(final, k)] with ranges inside B(final[:k])."""

    system: SystemSkeleton
    phi: Mapping[tuple[Node, int], tuple[Atom, ...]]
    truncation: int

    @cached_property
    def finals(self) -> tuple[Node, ...]:
        """The skeleton's final nodes (its leaves) in node order."""
        return tuple(self.system.finals())

    def slice_atoms(self, final: Node, k: int) -> frozenset[Atom]:
        return frozenset(self.phi.get((final, k), ()))

    def s(self, final: Node) -> frozenset[Atom]:
        return frozenset().union(*(self.phi.get((final, k), ()) for k in range(1, len(final) + 1)))

    def union_s(self) -> frozenset[Atom]:
        out: set[Atom] = set()
        for z in self.finals:
            out |= self.s(z)
        return frozenset(out)


def make_family(
    system: SystemSkeleton,
    phi: Mapping[tuple[Node, int], Sequence[Atom]],
    truncation: int,
) -> BasedFamily:
    return BasedFamily(
        system=system,
        phi={(tuple(z), int(k)): tuple(v) for (z, k), v in phi.items()},
        truncation=int(truncation),
    )


def slice_shape_violation(fam: BasedFamily, z: Node, k: int) -> Violation | None:
    """phi-missing or phi-length if final z's level-k enumeration is absent or not `truncation` long, else None."""
    vals = fam.phi.get((z, k))
    if vals is None:
        return Violation("phi-missing", z, f"no enumeration at level {k}")
    if len(vals) != fam.truncation:
        return Violation("phi-length", z, f"level {k} enumeration has {len(vals)} values, truncation {fam.truncation}")
    return None


def validate_family(fam: BasedFamily) -> list[Violation]:
    out: list[Violation] = []
    sys_ = fam.system
    for z in fam.finals:
        for k in range(1, len(z) + 1):
            shape = slice_shape_violation(fam, z, k)
            if shape is not None:
                out.append(shape)
                if shape.clause == "phi-missing":
                    continue
            vals = fam.phi[(z, k)]
            if len(set(vals)) != len(vals):
                out.append(Violation("phi-injective", z, f"level {k} enumeration repeats a value"))
            carrier = sys_.B.get(z[:k], frozenset())
            stray = [v for v in vals if v not in carrier]
            if stray:
                out.append(
                    Violation("phi-based-on", z, f"level {k} value {stray[0]!r} outside carrier of {node_key(z[:k])!r}")
                )
    finals = set(fam.finals)
    for (z, k) in sorted(fam.phi):  # in node order, whatever the input's key order
        if z not in finals or not (1 <= k <= len(z)):
            out.append(Violation("phi-domain", z, f"enumeration key ({node_key(z)}, {k}) out of range"))
    return out


@record
class StructureReport:
    """Witness lists for the three checkable structure properties.

    sibling_overlap: carrier sets meeting anywhere except between siblings.
    slice_alignment: slice values shared across levels or across finals that
        disagree somewhere other than the level's branching coordinate.
    enumeration_tree: enumeration values appearing in another final's slice
        without their predecessor.
    The remaining structural properties of the source notion (family
    freeness, heredity under derived systems, the cofinality pattern) have no
    finite content and are recorded as declared-only.
    """

    sibling_overlap: tuple[dict, ...]
    slice_alignment: tuple[dict, ...]
    enumeration_tree: tuple[dict, ...]
    declared_only: tuple[str, ...] = (
        "family-freeness",
        "derived-systems-structured",
        "cofinality-pattern",
    )

    @property
    def ok(self) -> bool:
        return not (self.sibling_overlap or self.slice_alignment or self.enumeration_tree)


def _cross_class_pairs(holders: Mapping[Atom, list], class_of: Callable) -> dict[tuple, Atom]:
    """Every pair (h1, h2), h1 < h2, of holders of one atom that lie in different classes, with its witness atom.

    The atoms are walked in canonical order and each pair keeps the first
    atom that records it.  Whether a pair crosses classes depends only on
    its two holders, so every atom they share records it, and the first is
    the least atom of their intersection.
    """
    pairs: dict[tuple, Atom] = {}
    for atom in sorted(holders, key=atom_sort_key):
        groups: dict = {}
        for h in holders[atom]:
            groups.setdefault(class_of(h), []).append(h)
        if len(groups) < 2:
            continue
        parts = list(groups.values())
        for x, part in enumerate(parts):
            for other in parts[x + 1:]:
                for a in part:
                    for b in other:
                        pairs.setdefault((a, b) if a < b else (b, a), atom)
    return pairs


def check_structure(fam: BasedFamily) -> StructureReport:
    """Check the three finite structure properties of fam, returning witnesses for failures.

    Candidates come from indices of atoms to the carriers and slices holding
    them, so the cost follows the incidences and the witnesses rather than
    all pairs of nodes or finals.  Each witness list is sorted into the order
    of a scan over all pairs.  A witness's atom is the first atom in
    canonical order that its two sets share; one walk over the atoms in that
    order finds the atoms of all witnesses.
    """
    nodes = fam.system.sorted_nodes()
    carriers = [fam.system.B.get(n, frozenset()) for n in nodes]
    carrier_holders: dict[Atom, list[int]] = {}
    for i, carrier in enumerate(carriers):
        for a in carrier:
            carrier_holders.setdefault(a, []).append(i)
    # carriers may meet only between siblings, so the class of a node is its
    # parent; the root is alone in its class
    overlap_atom = _cross_class_pairs(carrier_holders, lambda i: nodes[i][:-1] if nodes[i] else None)
    overlap = [
        {"nodes": (node_key(nodes[i]), node_key(nodes[j])), "atom": overlap_atom[i, j]}
        for i, j in sorted(overlap_atom)
    ]

    finals = list(fam.finals)
    keys = [node_key(z) for z in finals]
    slices = {
        (zi, k): fam.slice_atoms(z, k) for zi, z in enumerate(finals) for k in range(1, len(z) + 1)
    }
    slice_holders: dict[Atom, list[tuple[int, int]]] = {}
    level_holders: dict[tuple[int, Atom], list[int]] = {}
    for (zi, k), atoms in slices.items():
        for a in atoms:
            slice_holders.setdefault(a, []).append((zi, k))
            level_holders.setdefault((k, a), []).append(zi)

    def aligned_class(zi_k):
        # slices may share a value only at one level, between finals of one
        # length that differ at most at that level's branching coordinate
        zi, k = zi_k
        z = finals[zi]
        return k, z[: k - 1], z[k:]

    # a pair of slices of one final is reported at both level orders, with one atom
    quads: dict[tuple, Atom] = {}
    for ((zi, k), (vi, i)), atom in _cross_class_pairs(slice_holders, aligned_class).items():
        quads[zi, vi, k, i] = atom
        if zi == vi:
            quads[zi, vi, i, k] = atom
    alignment = [
        {"finals": (keys[zi], keys[vi]), "levels": (k, i), "atom": quads[zi, vi, k, i]}
        for zi, vi, k, i in sorted(quads)
    ]

    tree = []
    for zi, z in enumerate(finals):
        for k in range(1, len(z) + 1):
            vals = fam.phi.get((z, k), ())
            found = []
            for m in range(len(vals) - 1):
                for vi in level_holders.get((k, vals[m + 1]), ()):
                    if vals[m] not in slices[vi, k]:
                        found.append((vi, m))
            tree.extend(
                {"final": keys[zi], "level": k, "position": m + 1, "other": keys[vi]}
                for vi, m in sorted(found)
            )
    return StructureReport(tuple(overlap), tuple(alignment), tuple(tree))


@record
class TransformResult:
    """Transformed family (on its transformed skeleton) plus the map back to original atoms.

    old_of_new sends every transformed atom occurring in a carrier or slice to
    the atom it came from, so an integer witness f' on the original family
    transfers to the transformed one by f(new) = f'(old_of_new[new]).
    """

    family: BasedFamily
    old_of_new: Mapping[Atom, Atom]


def transform_disjoint(fam: BasedFamily) -> TransformResult:
    """Tag every carrier atom with its parent node, forcing sibling-only overlap.

    A level-k slice value x becomes (x, parent-of-(final[:k])); distinct
    levels of one final then have disjoint ranges.  Siblings often share
    their carrier, so each distinct (carrier, parent) pair is tagged once
    and its result is shared.
    """
    sys_ = fam.system
    new_b = {ROOT: frozenset()}
    old_of_new: dict[Atom, Atom] = {}
    tagged: dict[tuple, frozenset] = {}
    for n in sys_.nodes:
        if n == ROOT:
            continue
        pair = (sys_.B.get(n, frozenset()), n[:-1])
        if pair not in tagged:
            carrier, parent = pair
            tagged[pair] = frozenset((x, parent) for x in carrier)
            old_of_new.update(((x, parent), x) for x in carrier)
        new_b[n] = tagged[pair]
    new_sys = SystemSkeleton(sys_.nodes, dict(sys_.level), dict(sys_.E), new_b, sys_.largeness)
    new_phi = {
        (z, k): tuple((x, z[: k - 1]) for x in vals)
        for (z, k), vals in fam.phi.items()
    }
    new_fam = BasedFamily(new_sys, new_phi, fam.truncation)
    return TransformResult(new_fam, old_of_new)


def transform_tree(fam: BasedFamily) -> TransformResult:
    """Replace each slice value by the initial segment of its enumeration.

    The m-th value of a slice becomes the tuple of values 0..m, so whenever a
    transformed value lies in another slice, so do all its predecessors.  New
    carriers are the used initial-segment tuples whose entries the old carrier
    contains, which keeps the sibling chains monotone.  Each distinct carrier
    is fitted once, and the nodes that carry it share the result.
    """
    sys_ = fam.system
    used: set[tuple] = set()
    new_phi = {}
    for (z, k), vals in fam.phi.items():
        seqs = tuple(tuple(vals[: m + 1]) for m in range(len(vals)))
        new_phi[(z, k)] = seqs
        used.update(seqs)
    # a tuple can fit a carrier only if its last value does
    by_last: dict[Atom, list[tuple]] = {}
    for t in used:
        by_last.setdefault(t[-1], []).append(t)
    fitted: dict[frozenset, frozenset] = {}
    new_b = {}
    for n in sys_.nodes:
        carrier = sys_.B.get(n, frozenset())
        if carrier not in fitted:
            fitted[carrier] = frozenset(t for a in carrier for t in by_last.get(a, ()) if carrier.issuperset(t))
        new_b[n] = fitted[carrier]
    old_of_new = {t: t[-1] for t in used}
    new_sys = SystemSkeleton(sys_.nodes, dict(sys_.level), dict(sys_.E), new_b, sys_.largeness)
    new_fam = BasedFamily(new_sys, new_phi, fam.truncation)
    return TransformResult(new_fam, old_of_new)
