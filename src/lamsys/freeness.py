"""Freeness of finite set families: transversals, Hall certificates, reshuffling.

A family is free when it has a transversal (an injective choice of one
element per set).  `find_transversal` decides this by augmenting-path
matching and, on failure, extracts a violating index set whose union is
smaller than itself, which by Hall's theorem is the exact dual witness.
`k_free_check` asks the same of every subfamily below a size bound, using
the deficiency structure of one maximum matching instead of enumerating
subsets.  `find_reshuffling` decides whether the finals have a well-order
that keeps every set "fresh" relative to its predecessors and puts the
finals at or below a cutoff on the first coordinate first.  It peels the
order off from its end, as in the core peeling of a hypergraph whose
vertices are atoms and whose edges are finals (Molloy, "Cores in random
hypergraphs and Boolean formulas", Random Struct. Algorithms 27 (2005)
124-135), in O(sum |S| + N log N) time over N finals; when peeling gets
stuck, the finals left are the certificate that no order exists.

Vertex orders are fixed (index order on sets, canonical order on atoms), so
results are deterministic.
"""

from __future__ import annotations

import heapq
from collections import Counter
from typing import Mapping, Sequence

from .abelian import CertificateError
from .core import Atom, BasedFamily, Node, atom_ranks, node_key
from .record import record


@record
class Transversal:
    assignment: Mapping[int, Atom]

    def verify(self, family: Sequence[frozenset]) -> bool:
        if set(self.assignment) != set(range(len(family))):
            return False
        if len(set(self.assignment.values())) != len(family):
            return False
        return all(self.assignment[i] in family[i] for i in range(len(family)))


@record
class HallCertificate:
    violator: frozenset[int]

    def verify(self, family: Sequence[frozenset]) -> bool:
        if not self.violator or not all(0 <= i < len(family) for i in self.violator):
            return False
        union: set = set()
        for i in self.violator:
            union |= family[i]
        return len(union) < len(self.violator)


def _normalize(family) -> list[frozenset]:
    return [frozenset(s) for s in family]


def _max_matching(sets: list[frozenset]):
    """Deterministic augmenting-path matching; returns (match_of_set, match_of_atom).

    Each set is searched from in index order, trying its atoms in canonical
    order.  The search's first step takes the set's lowest-ranked atom when
    no set holds it yet; that step needs no search, so it is taken directly,
    and a set's atoms are sorted only when a search first enters it.  Each
    augmenting search is a depth-first search over an explicit stack, so
    path length is not bounded by the recursion limit.
    """
    by_rank = atom_ranks(set().union(*sets)).__getitem__
    adj: list[list | None] = [None] * len(sets)  # a set's atoms by rank, once a search enters it
    match_of_atom: dict[Atom, int] = {}
    match_of_set: dict[int, Atom] = {}

    def atoms(i: int):
        if adj[i] is None:
            adj[i] = sorted(sets[i], key=by_rank)
        return iter(adj[i])

    def augment(root: int) -> None:
        seen: set = set()
        stack = [(root, atoms(root))]
        path: list[Atom] = []  # path[k]: the atom tried from the set stack[k][0]
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
            stack.append((j, atoms(j)))

    for i, s in enumerate(sets):
        first = min(s, key=by_rank, default=None)
        if first is not None and first not in match_of_atom:
            match_of_atom[first] = i
            match_of_set[i] = first
        else:
            augment(i)
    return match_of_set, match_of_atom


def _reachable_violator(sets, match_of_set, match_of_atom, start: int) -> frozenset[int]:
    """Alternating-reachability closure of an unmatched set index.

    Every atom adjacent to the closure is matched into it, so the closure has
    exactly one more set than its union has atoms.  The closure is a set,
    so the order in which atoms are visited does not change it.
    """
    frontier = [start]
    reached = {start}
    while frontier:
        nxt = []
        for i in frontier:
            for a in sets[i]:
                j = match_of_atom.get(a)
                if j is not None and j not in reached:
                    reached.add(j)
                    nxt.append(j)
        frontier = nxt
    return frozenset(reached)


def find_transversal(family):
    """A checked Transversal, or a checked HallCertificate when none exists."""
    sets = _normalize(family)
    match_of_set, match_of_atom = _max_matching(sets)
    if len(match_of_set) == len(sets):
        t = Transversal(dict(sorted(match_of_set.items())))
        if not t.verify(sets):
            raise CertificateError("transversal fails its own check")
        return t
    unmatched = min(i for i in range(len(sets)) if i not in match_of_set)
    cert = HallCertificate(_reachable_violator(sets, match_of_set, match_of_atom, unmatched))
    if not cert.verify(sets):
        raise CertificateError("Hall certificate fails its own check")
    return cert


def k_free_check(family, k: int):
    """The smallest alternating closure of size < k as a Hall certificate, else 'pass'.

    It takes one maximum matching and, for each index the matching leaves
    unmatched, the indices reachable from it by alternating paths.  Each
    such closure is a Hall violator, so a returned certificate is a true
    violator of size < k, and it is checked before it is returned.  A
    'pass' can be wrong: a minimum violator need not be one of these
    closures.  In [{a}, {a, b}, {b}, {b}] the violator {2, 3} has size 2,
    but the matching 0-a, 1-b leaves the closures {0, 1, 2} and {0, 1, 3},
    so k = 3 gives 'pass'.  An exact search for a minimum violator is still
    to be written.
    """
    sets = _normalize(family)
    if not (0 <= k <= len(sets) + 1):
        raise ValueError(f"k must be at most family size + 1 = {len(sets) + 1}")
    match_of_set, match_of_atom = _max_matching(sets)
    best: HallCertificate | None = None
    for i in range(len(sets)):
        if i in match_of_set:
            continue
        violator = _reachable_violator(sets, match_of_set, match_of_atom, i)
        if best is None or len(violator) < len(best.violator):
            best = HallCertificate(violator)
    if best is None or len(best.violator) >= k:
        return "pass"
    if not best.verify(sets):
        raise CertificateError("Hall certificate fails its own check")
    return best


@record
class ReshufflingOrder:
    order: tuple[Node, ...]
    alpha: int
    theta_fresh: int

    def verify(self, fam: BasedFamily) -> bool:
        seen: set = set()
        past_cutoff = False  # a final above alpha has been placed
        for z in self.order:
            atoms = fam.s(z)
            if len(atoms - seen) < self.theta_fresh:
                return False
            seen |= atoms
            if z[0] > self.alpha:
                past_cutoff = True
            elif past_cutoff:
                return False
        return True

    def to_jsonable(self) -> dict:
        return {
            "order": [node_key(z) for z in self.order],
            "alpha": self.alpha,
            "theta_fresh": self.theta_fresh,
        }


@record
class ReshufflingObstruction:
    """Finals that no reshuffling order can end, so that no order exists.

    The pool of `remaining` is its finals above alpha, or all of it when
    none is above.  Every pool final holds fewer than theta_fresh atoms
    that no other remaining final holds.  A valid order of the searched
    finals would restrict to a valid order of `remaining`, and the last
    final of that is a pool final with theta_fresh such atoms.
    """

    remaining: tuple[Node, ...]
    alpha: int
    theta_fresh: int

    def verify(self, fam: BasedFamily, index: Sequence[Node]) -> bool:
        remaining = set(self.remaining)
        if not remaining or len(remaining) != len(self.remaining) or not remaining <= set(index):
            return False
        holders = Counter(a for z in remaining for a in fam.s(z))
        pool = [z for z in self.remaining if z[0] > self.alpha] or self.remaining
        return all(sum(holders[a] == 1 for a in fam.s(z)) < self.theta_fresh for z in pool)

    def to_jsonable(self) -> dict:
        return {
            "remaining": [node_key(z) for z in self.remaining],
            "alpha": self.alpha,
            "theta_fresh": self.theta_fresh,
        }


@record
class ReshufflingResult:
    status: str  # "found" | "none"
    order: ReshufflingOrder | None
    nodes_visited: int  # finals peeled
    obstruction: ReshufflingObstruction | None = None


def find_reshuffling(
    fam: BasedFamily,
    finals: Sequence[Node] | None = None,
    alpha: int = -1,
    theta_fresh: int = 1,
) -> ReshufflingResult:
    """A checked reshuffling order, or a checked obstruction when none exists.

    Reverse peeling fixes the order from its end.  Let R be the finals not
    yet peeled, and its pool the finals of R above alpha, or all of R when
    none is above.  A pool final Z with at least theta_fresh atoms that no
    other final of R holds can go last among R: its predecessors hold
    exactly the atoms of R minus Z.  Conversely, the last final of R in any
    valid order is such a Z.  So peeling either places every final or gets
    stuck at an R that is a `ReshufflingObstruction`.

    Each atom keeps the number of remaining finals that hold it and the sum
    of their ranks in canonical order; when the number drops to 1 the sum
    is the rank of the last holder, which gains a private atom.  Private
    counts only grow, so a final is pushed onto its pool's heap once, when
    it becomes eligible.  The eligible final that sorts last is peeled, so
    the canonical order comes out whenever it is valid.  The cost is
    O(sum |S| + N log N) for N finals.
    """
    index = sorted(finals if finals is not None else fam.finals)
    if not index:
        raise ValueError("empty index set")
    sets = [fam.s(z) for z in index]
    holders: dict[Atom, int] = {}
    rank_sum: dict[Atom, int] = {}
    for rank, atoms in enumerate(sets):
        for a in atoms:
            holders[a] = holders.get(a, 0) + 1
            rank_sum[a] = rank_sum.get(a, 0) + rank
    private = [0] * len(index)
    for a, count in holders.items():
        if count == 1:
            private[rank_sum[a]] += 1
    is_high = [z[0] > alpha for z in index]
    heaps: tuple[list[int], list[int]] = ([], [])  # low, high: negated ranks of eligible finals
    for rank, count in enumerate(private):
        if count >= theta_fresh:
            heaps[is_high[rank]].append(-rank)
    for heap in heaps:
        heapq.heapify(heap)
    high_left = sum(is_high)
    peeled: list[int] = []
    while len(peeled) < len(index):
        heap = heaps[high_left > 0]
        if not heap:
            left = set(range(len(index))).difference(peeled)
            obstruction = ReshufflingObstruction(tuple(index[r] for r in sorted(left)), alpha, theta_fresh)
            if not obstruction.verify(fam, index):
                raise CertificateError("reshuffling obstruction fails its own check")
            return ReshufflingResult("none", None, len(peeled), obstruction)
        rank = -heapq.heappop(heap)
        peeled.append(rank)
        high_left -= is_high[rank]
        for a in sets[rank]:
            holders[a] -= 1
            rank_sum[a] -= rank
            if holders[a] == 1:
                last = rank_sum[a]
                private[last] += 1
                if private[last] == theta_fresh:
                    heapq.heappush(heaps[is_high[last]], -last)
    order = ReshufflingOrder(tuple(index[r] for r in reversed(peeled)), alpha, theta_fresh)
    if not order.verify(fam):
        raise CertificateError("reshuffling order fails its own check")
    return ReshufflingResult("found", order, len(peeled))
