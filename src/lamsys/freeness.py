"""Freeness of finite set families: transversals, Hall certificates, reshuffling.

A family is free when it has a transversal (an injective choice of one
element per set).  `find_transversal` decides this by augmenting-path
matching and, on failure, extracts a violating index set whose union is
smaller than itself, which by Hall's theorem is the exact dual witness.
`k_free_check` asks the same of every subfamily below a size bound, using
the deficiency structure of one maximum matching instead of enumerating
subsets.  `find_reshuffling` searches for a well-order of the finals that
keeps every set "fresh" relative to its predecessors and respects a cutoff
on the first coordinate; on large index sets its greedy pass runs in
O(sum |S| * log N) time over N finals once the sets are indexed by atom.

Vertex orders are fixed (index order on sets, canonical order on atoms), so
results are deterministic.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Mapping, Sequence

from .abelian import CertificateError
from .core import Atom, BasedFamily, Node, atom_sort_key, lex_key, node_key


@dataclass(frozen=True)
class Transversal:
    assignment: Mapping[int, Atom]

    def verify(self, family: Sequence[frozenset]) -> bool:
        if set(self.assignment) != set(range(len(family))):
            return False
        if len(set(self.assignment.values())) != len(family):
            return False
        return all(self.assignment[i] in family[i] for i in range(len(family)))


@dataclass(frozen=True)
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

    Each augmenting search is a depth-first search over an explicit stack, so
    path length is not bounded by the recursion limit.
    """
    adj = [sorted(s, key=atom_sort_key) for s in sets]
    match_of_atom: dict[Atom, int] = {}
    match_of_set: dict[int, Atom] = {}

    def augment(root: int) -> None:
        seen: set = set()
        stack = [(root, iter(adj[root]))]
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
            stack.append((j, iter(adj[j])))

    for i in range(len(sets)):
        augment(i)
    return match_of_set, match_of_atom


def _reachable_violator(sets, match_of_set, match_of_atom, start: int) -> frozenset[int]:
    """Alternating-reachability closure of an unmatched set index.

    Every atom adjacent to the closure is matched into it, so the closure has
    exactly one more set than its union has atoms.
    """
    frontier = [start]
    reached = {start}
    while frontier:
        nxt = []
        for i in frontier:
            for a in sorted(sets[i], key=atom_sort_key):
                j = match_of_atom.get(a)
                if j is not None and j not in reached:
                    reached.add(j)
                    nxt.append(j)
        frontier = nxt
    return frozenset(reached)


def find_transversal(family):
    """A verified Transversal, or a verified HallCertificate when none exists."""
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
    """'pass' when every subfamily of size < k has a transversal.

    Otherwise returns the smallest Hall certificate of size < k.  Minimum
    violators contain an unmatched index of any maximum matching and are
    closed under alternating reachability, so it is enough to minimize the
    closures over unmatched indices.
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


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class ReshufflingResult:
    status: str  # "found" | "none" | "unknown"
    order: ReshufflingOrder | None
    nodes_visited: int


def _greedy(index: Sequence[Node], sets: Mapping[Node, frozenset], alpha: int, theta_fresh: int):
    """Greedy reshuffling order of `index`, or None when it gets stuck.

    Places the finals at or below alpha first, then the rest; within a pool
    the most constrained final goes first: fewest fresh atoms, then
    canonical order, which is the order of `index`.  Each pool keeps a heap
    of (fresh count, rank in `index`) entries, and an entry is stale once
    its final's count has fallen since it was pushed.  Counts only fall, so
    when the smallest live entry of the current pool is short of
    theta_fresh, that final can never be placed and the pass fails.
    """
    fresh = [len(sets[z]) for z in index]
    is_low = [z[0] <= alpha for z in index]
    holders: dict[Atom, list[int]] = {}
    for rank, z in enumerate(index):
        for a in sets[z]:
            holders.setdefault(a, []).append(rank)
    heaps = ([], [])  # high, low
    for rank, count in enumerate(fresh):
        heaps[is_low[rank]].append((count, rank))
    for heap in heaps:
        heapq.heapify(heap)
    placed = [False] * len(index)
    union: set = set()
    acc = []
    left_low = sum(is_low)
    for _ in index:
        heap = heaps[left_low > 0]
        while True:
            count, rank = heap[0]
            if not placed[rank] and count == fresh[rank]:
                break
            heapq.heappop(heap)
        if count < theta_fresh:
            return None
        heapq.heappop(heap)
        placed[rank] = True
        left_low -= is_low[rank]
        z = index[rank]
        acc.append(z)
        for a in sets[z] - union:
            union.add(a)
            for w in holders[a]:
                if not placed[w]:
                    fresh[w] -= 1
                    heapq.heappush(heaps[is_low[w]], (fresh[w], w))
    return acc


def find_reshuffling(
    fam: BasedFamily,
    finals: Sequence[Node] | None = None,
    alpha: int = -1,
    theta_fresh: int = 1,
    budget: int = 200_000,
    exact_limit: int = 10,
) -> ReshufflingResult:
    """Search for an order with the freshness and cutoff-split properties.

    Exact backtracking for small index sets; above `exact_limit` a greedy
    pass runs first and its failure falls back to backtracking capped by
    `budget` visited nodes, reporting "unknown" when the cap is hit.  The
    freshness requirement is monotone (prefix unions only grow), so any
    currently failing candidate prunes the whole branch.  The greedy pass
    indexes the finals by atom and keeps their fresh-atom counts in heaps,
    so it costs O(sum |S| * log N) for N finals, not N^2 set differences.
    """
    index = sorted(finals if finals is not None else fam.finals, key=lex_key)
    if not index:
        raise ValueError("empty index set")
    sets = {z: fam.s(z) for z in index}
    low = [z for z in index if z[0] <= alpha]
    high = [z for z in index if z[0] > alpha]
    visited = 0

    def backtrack(remaining_low, remaining_high, union, acc, cap):
        nonlocal visited
        visited += 1
        if cap is not None and visited > cap:
            return "budget"
        if not remaining_low and not remaining_high:
            return list(acc)
        pool = remaining_low if remaining_low else remaining_high
        for z in remaining_low + remaining_high:
            if len(sets[z] - union) < theta_fresh:
                return None  # it can only get worse later
        for z in pool:
            rest_low = [w for w in remaining_low if w != z] if remaining_low else []
            rest_high = remaining_high if remaining_low else [w for w in remaining_high if w != z]
            res = backtrack(rest_low, rest_high, union | sets[z], acc + [z], cap)
            if res is not None:
                return res
        return None

    if len(index) > exact_limit:
        g = _greedy(index, sets, alpha, theta_fresh)
        if g is not None:
            order = ReshufflingOrder(tuple(g), alpha, theta_fresh)
            if not order.verify(fam):
                raise CertificateError("greedy reshuffling order fails its own check")
            return ReshufflingResult("found", order, visited)
        res = backtrack(low, high, set(), [], budget)
        if res == "budget":
            return ReshufflingResult("unknown", None, visited)
    else:
        res = backtrack(low, high, set(), [], None)
    if res is None:
        return ReshufflingResult("none", None, visited)
    order = ReshufflingOrder(tuple(res), alpha, theta_fresh)
    if not order.verify(fam):
        raise CertificateError("reshuffling order fails its own check")
    return ReshufflingResult("found", order, visited)
