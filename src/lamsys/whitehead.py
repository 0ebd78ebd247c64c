"""Witness systems: a family (which carries its skeleton) + primes and coefficients, and their group.

A WhiteheadSystem attaches to each final of its family a prime sequence q and
integer coefficient rows d.  Its group is presented on the family's atoms
together with per-final generators z, modulo one relation per (final, m):

    q[m] * z[m+r+1] - z[m+r] - sum_{l<r} d[m][l] * z[l] - sum_k phi_k(m),

the chain row `abelian.chain_row` (the one `build_chain_group` presents)
less the final's level atoms; `abelian.chain_faults` checks the chain
data of both.  The group, the quotient presentations and
`verify_witness` all read it from there.

A coloring c of the finals is "witnessed" by integers f on the atoms and a
on the z's satisfying, for every final and m,

    c(m) = q[m]*a[m+r+1] - a[m+r] - sum_{l<r} d[m][l]*a[l] - sum_k f(phi_k(m)),

which is exactly the condition for the homomorphism sending atoms to f and
z's to a to take the relation rows to c.  Every coloring has one, with
f = 0: the rows of a final have -1 on a[m+r] and q[m] on a[m+r+1], a unit
staircase, so `solve_witness` sets the heads and tops to 0 and
back-substitutes a[m+r] = q[m]*a[m+r+1] - c(m) from the top row down; no
linear system is solved.

`enumerate_basis` and `verify_basis` realize the quotient-basis
construction: a reshuffling order picks the "fresh" generators, and the
verifier checks generation (`abelian.outside_lattice`) plus unit invariant
factors in the truncated quotient presentation.  Relation rows, kill rows
and candidate rows are sparse maps {column: nonzero entry}, as `abelian`
reads them.
"""

from __future__ import annotations

from functools import cached_property
from typing import Mapping, Sequence

from .abelian import (
    CertificateError,
    Presentation,
    Row,
    chain_faults,
    chain_row,
    invariant_factors,
    outside_lattice,
)
from .core import (
    Atom,
    BasedFamily,
    Node,
    Violation,
    atom_ranks,
    atom_text,
    node_key,
    restrict_to_nodes,
    validate_family,
    validate_system,
)
from .freeness import ReshufflingOrder
from .record import record


def atom_name(a: Atom) -> str:
    """Canonical generator name for an atom."""
    return "a:" + atom_text(a)


def z_name(final: Node, j: int) -> str:
    return f"z:{node_key(final)}:{j}"


@record(eq=False)
class WhiteheadSystem:
    family: BasedFamily
    r: int
    q: Mapping[Node, tuple[int, ...]]
    d: Mapping[Node, tuple[tuple[int, ...], ...]]
    j_trunc: int
    strong_order: ReshufflingOrder | None = None

    @cached_property
    def m_range(self) -> int:
        """Number of relation rows per final."""
        return min(self.family.truncation, self.j_trunc - self.r - 1)

    def finals(self) -> tuple[Node, ...]:
        return self.family.finals

    def levels(self, final: Node) -> range:
        return range(1, len(final) + 1)


# violations that leave a witness system too short to index its relation rows
SHAPE_CLAUSES = frozenset({"j-trunc", "qd-range", "d-width", "phi-missing", "phi-length"})


def validate_whitehead(ws: WhiteheadSystem) -> list[Violation]:
    out = validate_system(ws.family.system)
    out += validate_family(ws.family)
    if ws.j_trunc < ws.r + 2:
        out.append(Violation("j-trunc", None, f"need j_trunc >= r+2 = {ws.r + 2}"))
        return out
    prime: dict[int, bool] = {}  # shared by the finals, which repeat moduli
    for z in ws.finals():
        faults = chain_faults(ws.r, ws.q.get(z, ()), ws.d.get(z, ()), ws.m_range, prime)
        out += [Violation(clause, z, detail) for clause, detail in faults]
    if ws.strong_order is not None:
        for z in ws.finals():
            for k1 in ws.levels(z):
                for k2 in ws.levels(z):
                    if k1 < k2 and ws.family.slice_atoms(z, k1) & ws.family.slice_atoms(z, k2):
                        out.append(Violation("strong-disjoint", z, f"levels {k1} and {k2} share a value"))
        if not ws.strong_order.verify(ws.family):
            out.append(Violation("strong-order", None, "attached order fails its invariants"))
    return out


def _atoms_of(ws: WhiteheadSystem, finals: Sequence[Node]) -> set:
    return set().union(*(ws.family.s(z) for z in finals))


def generator_names(ws: WhiteheadSystem, finals: Sequence[Node]) -> tuple[list[str], dict]:
    """Atoms of the finals' sets first, then per-final z generators, and their columns.

    The column map takes ("a", atom) to the atom's column and a final to
    the column of its z generator 0; its z generators fill one run of
    j_trunc columns from there.  The tag keeps a tuple atom apart from a
    final, which it may equal.
    """
    rank = atom_ranks(_atoms_of(ws, finals))
    names = [atom_name(a) for a in rank]
    columns: dict = {("a", a): i for a, i in rank.items()}
    for z in finals:
        columns[z] = len(names)
        names += [z_name(z, j) for j in range(ws.j_trunc)]
    return names, columns


def _presentation(ws: WhiteheadSystem, finals: Sequence[Node], low: Sequence[Node] = ()) -> tuple[Presentation, dict]:
    """The finals' generators and relation rows, a kill row per generator of `low`, and the column map.

    Row (z, m) is its chain row in z's block of columns, less one per level atom.
    """
    names, columns = generator_names(ws, finals)
    rows: list[Row] = []
    for z in finals:
        for m in range(ws.m_range):
            row = {columns[z] + j: coeff for j, coeff in chain_row(ws.r, ws.q[z], ws.d[z], m) if coeff}
            for k in ws.levels(z):
                t = columns[("a", ws.family.phi[(z, k)][m])]
                row[t] = row.get(t, 0) - 1  # atom columns hold no chain entry, so this stays nonzero
            rows.append(row)
    rows += [{columns[("a", a)]: 1} for a in atom_ranks(_atoms_of(ws, low))]
    rows += [{columns[z] + j: 1} for z in low for j in range(ws.j_trunc)]
    return Presentation(tuple(names), tuple(rows)), columns


def build_witness_group(ws: WhiteheadSystem) -> Presentation:
    """Presentation on the family atoms and z generators with one row per (final, m)."""
    if ws.j_trunc < ws.r + 2:
        raise ValueError(f"need j_trunc >= r+2 = {ws.r + 2}")
    return _presentation(ws, ws.finals())[0]


@record
class Witness:
    f: Mapping[Atom, int]
    a: Mapping[tuple[Node, int], int]


class MissingValueError(KeyError):
    pass


def verify_witness(ws: WhiteheadSystem, c: Mapping[Node, Sequence[int]], w: Witness):
    """Check the witness equation exactly; returns (ok, first failing (final, m))."""
    for z in ws.finals():
        for m in range(ws.m_range):
            total = sum(coeff * w.a[(z, j)] for j, coeff in chain_row(ws.r, ws.q[z], ws.d[z], m))
            for k in ws.levels(z):
                x = ws.family.phi[(z, k)][m]
                if x not in w.f:
                    raise MissingValueError(f"witness lacks a value on atom {x!r}")
                total -= w.f[x]
            if total != c[z][m]:
                return False, (z, m)
    return True, None


def solve_witness(ws: WhiteheadSystem, c: Mapping[Node, Sequence[int]]) -> Witness:
    """The back-substituted witness of a coloring, checked by `verify_witness`.

    Every coloring has a witness.  Row (z, m) has -1 on a(z, m+r) and q[m]
    on a(z, m+r+1), so with f = 0 and the heads a(z, 0..r-1) and the tops
    a(z, r+M..) 0 (M rows per final), the equation of row m reads
    a(z, m+r) = q[m] * a(z, m+r+1) - c(m), which fixes a(z, m+r) for
    m = M-1 down to 0.  The finals share no z column, so each is solved on
    its own.  A witness that fails the equation is a CertificateError.
    """
    f = dict.fromkeys(atom_ranks(ws.family.union_s()), 0)
    a: dict[tuple[Node, int], int] = {}
    for z in ws.finals():
        values = [0] * ws.j_trunc
        for m in reversed(range(ws.m_range)):
            values[m + ws.r] = ws.q[z][m] * values[m + ws.r + 1] - c[z][m]
        a.update(((z, j), v) for j, v in enumerate(values))
    w = Witness(f, a)
    ok, where = verify_witness(ws, c, w)
    if not ok:
        raise CertificateError(f"back-substituted witness fails the witness equation at {where}")
    return w


# --- quotient bases ---------------------------------------------------------


@record
class BasisCandidate:
    z_part: tuple[tuple[Node, int], ...]
    atom_part: tuple[Atom, ...]

    @property
    def size(self) -> int:
        return len(self.z_part) + len(self.atom_part)


def _predecessor_slices(ws: WhiteheadSystem, order: Sequence[Node], upto: int, k: int) -> frozenset:
    out: set = set()
    for nu in order[:upto]:
        if k <= len(nu):
            out |= ws.family.slice_atoms(nu, k)
    return frozenset(out)


def enumerate_basis(ws: WhiteheadSystem, order: ReshufflingOrder, alpha: int, beta: int) -> BasisCandidate:
    """Candidate basis of the segment quotient from a reshuffling order.

    A z generator of an in-window final survives when its index sits in the
    head, beyond the relation range, or references a value fresh at some
    level; a family value survives when fresh at its level and not at the
    minimal fresh level of its position (that one is recovered through the
    relation row).
    """
    window = [z for z in ws.finals() if alpha < z[0] < beta]
    in_i = [z for z in ws.finals() if z[0] < beta]
    if sorted(order.order) != sorted(in_i):
        raise ValueError(
            "order must cover exactly the finals with first coordinate below beta"
        )
    pos = {z: i for i, z in enumerate(order.order)}
    z_part = []
    atom_part: set = set()
    for z in sorted(window):
        fresh = {}
        for k in ws.levels(z):
            before = _predecessor_slices(ws, order.order, pos[z], k)
            fresh[k] = [x not in before for x in ws.family.phi[(z, k)]]
        for j in range(ws.j_trunc):
            if j < ws.r or j - ws.r >= ws.m_range:
                z_part.append((z, j))
            elif any(fresh[k][j - ws.r] for k in ws.levels(z)):
                z_part.append((z, j))
        for m in range(ws.family.truncation):
            fresh_levels = [k for k in ws.levels(z) if fresh[k][m]]
            # the minimal fresh level is recovered through the relation row;
            # beyond the relation range no row exists, so nothing is dropped
            keep = fresh_levels if m >= ws.m_range else fresh_levels[1:]
            for k in keep:
                atom_part.add(ws.family.phi[(z, k)][m])
    return BasisCandidate(tuple(z_part), tuple(atom_ranks(atom_part)))


def quotient_presentation(ws: WhiteheadSystem, alpha: int, beta: int) -> tuple[Presentation, dict]:
    """Presentation of the slice between the alpha+1 and beta stages, and its `generator_names` column map.

    Generators and relation rows of finals with first coordinate below beta,
    with kill rows for every generator already present at stage alpha+1.
    """
    in_i = [z for z in ws.finals() if z[0] < beta]
    return _presentation(ws, in_i, [z for z in in_i if z[0] <= alpha])


@record
class BasisReport:
    generated: bool
    count_matches: bool
    free_rank: int
    candidate_size: int
    failing_generators: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return self.generated and self.count_matches


def verify_basis(ws: WhiteheadSystem, candidate: BasisCandidate, alpha: int, beta: int) -> BasisReport:
    """Generation and independence of the candidate in the truncated quotient.

    Generation: the relation rows and the candidate's unit vectors span Z^n
    (`abelian.outside_lattice`).  Independence: the quotient has unit
    invariant factors with free rank equal to the candidate size, and a
    surjection of a free group onto a free group of the same rank is an
    isomorphism.  The chain rows' unit staircase and the unit kill rows peel
    to unit pivots, so a factor other than 1 is a CertificateError.
    """
    pres, columns = quotient_presentation(ws, alpha, beta)
    n = len(pres.generators)
    # a candidate generator the quotient lacks is named, in candidate order
    stray = tuple(z_name(z, j) for z, j in candidate.z_part if z not in columns or not 0 <= j < ws.j_trunc)
    stray += tuple(atom_name(a) for a in candidate.atom_part if ("a", a) not in columns)
    if stray:
        return BasisReport(
            generated=False, count_matches=False, free_rank=-1, candidate_size=candidate.size, failing_generators=stray
        )
    factors = invariant_factors(pres)
    if any(d != 1 for d in factors):
        raise CertificateError(f"quotient presentation has invariant factor {max(factors)}, not 1")
    # one factor per independent relation
    free_rank = n - len(factors)
    cand_columns = [columns[z] + j for z, j in candidate.z_part]
    cand_columns += [columns[("a", a)] for a in candidate.atom_part]
    stacked = pres.relations + tuple({t: 1} for t in cand_columns)
    failing = [pres.generators[t] for t in outside_lattice(stacked, n)]
    return BasisReport(
        generated=not failing,
        count_matches=candidate.size == free_rank,
        free_rank=free_rank,
        candidate_size=candidate.size,
        failing_generators=tuple(failing),
    )


def variant_filter(ws: WhiteheadSystem, allowed_first: frozenset[int]) -> WhiteheadSystem:
    """Index-bookkeeping stub: keep only the finals whose first coordinate is allowed.

    Prunes the subtrees under dropped root indices; no structural claim is
    made beyond relabeling.
    """
    keep_nodes = frozenset(
        n for n in ws.family.system.nodes if n == () or n[0] in allowed_first
    )
    fam = BasedFamily(
        system=restrict_to_nodes(ws.family.system, keep_nodes),
        phi={(z, k): v for (z, k), v in ws.family.phi.items() if z in keep_nodes},
        truncation=ws.family.truncation,
    )
    return WhiteheadSystem(
        family=fam,
        r=ws.r,
        q={z: v for z, v in ws.q.items() if z in keep_nodes},
        d={z: v for z, v in ws.d.items() if z in keep_nodes},
        j_trunc=ws.j_trunc,
        strong_order=None,
    )
