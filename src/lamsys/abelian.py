"""Exact integer linear algebra and finitely generated abelian group presentations.

Everything here runs over arbitrary-precision integers: Hermite and Smith
normal forms with recorded unimodular transforms, integer linear system
solving with dual infeasibility certificates, and presentations given by a
generator list plus integer relation rows.  All functions are pure and
all results carry enough data to be checked again by direct multiplication.

A relation row is a sparse map {column: nonzero entry}, from the builders
(`build_chain_group`, the witness side, `simulate`) through peeling to the
writers, which write the dense text straight from the maps.  `dense` is
the one place relation rows become a dense matrix: for the `snf` of the
block that peeling leaves, for the `hnf` fallback of `outside_lattice`, and
for the matrices `hnf` returns.

A presentation's invariant factors come from unit peeling, the first step
of structured Gaussian elimination (LaMacchia and Odlyzko, CRYPTO '90): a
row or column whose one nonzero entry left is +-1 splits off a factor 1 and
leaves the original submatrix on the other rows and columns, so no
transform is needed.  Peeling reads the maps and touches nonzeros only.
The pivot list is re-checked against the original rows before it is used.
Every relation matrix the CLI builds peels completely: each chain row has
-1 on z_{m+r} and q_m on z_{m+r+1}, a unit staircase, and kill rows are
unit vectors.  Whatever is left goes to `snf`, which alternates row
Hermite forms of D and of D^T until D is diagonal, composing their
transforms and inverses, and certifies D = U * A * V by U * U^-1 = I and
V * V^-1 = I.  Unimodularity is never proved by a determinant.

`hnf` is the only elimination loop.  Its pivoting is deterministic (the
smallest absolute value in the column, the first such row on ties), so
every normal form and certificate is reproducible bit for bit.  It takes
and returns dense matrices but eliminates on sparse rows, as the kernels
it meets are sparse: a row operation costs the nonzeros of one row.  On
the CLI it serves two callers, both after structural elimination.  One is the
kernel basis of a ladder system's coupled core: `uniformization.simulate`
eliminates the label columns, reads the core's kernel off its congruence
lattice, and takes the Hermite form of that basis, with no transform read
and no solver run (an independent ladder reaches no `hnf` at all).  The
other is `outside_lattice`, the generation check of `basis`, when peeling
the stacked rows does not settle generation.

`solve_z` and `kernel_basis` have no CLI caller.  They read their answers
off `snf`, which `invariant_factors` keeps anyway: with D = U * A * V,
A x = b becomes D y = U b for x = V y, and the columns of V past the rank
of D are a basis of the integer kernel.  `snf`'s self-check proves that
basis, and `solve_z` checks its solution or certificate against A and b
before returning it.  The benchmark's tracer (`perfbench/tracing.py`) wraps
both, and `tests/test_tracing_targets.py` pins its targets.
"""

from __future__ import annotations

import math
from collections import deque
from fractions import Fraction
from itertools import chain, compress
from typing import Iterator, Mapping, Sequence

from .record import record


class DimensionError(RuntimeError):
    """Matrix and vector shapes, or a presentation's generator names, do not line up.

    The CLI builds every matrix and name list itself, so this is a fault of
    the program, not of its input, and it is no ValueError.
    """


class CertificateError(RuntimeError):
    """A computed result failed its own exact re-verification."""


@record
class IntMatrix:
    """Immutable dense integer matrix, row major."""

    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        widths = {len(row) for row in self.entries}
        if len(widths) > 1:
            raise DimensionError(f"ragged rows: widths {sorted(widths)}")

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        zero = (0,) * n
        return cls(tuple(zero[:i] + (1,) + zero[i + 1:] for i in range(n)))

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0]) if self.entries else 0

    def transpose(self) -> "IntMatrix":
        return IntMatrix(tuple(zip(*self.entries)) if self.entries else ())

    def mul(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise DimensionError(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        cols = other.cols
        out = []
        for r in self.entries:
            out.append(tuple(sum(r[k] * other.entries[k][j] for k in range(self.cols)) for j in range(cols)))
        return IntMatrix(tuple(out))


def hnf(a: IntMatrix, inverse: bool = False) -> tuple[IntMatrix, ...]:
    """Row-style Hermite normal form.

    Returns (H, U) with H = U * a, U unimodular, pivots positive with
    increasing column indices, and entries above each pivot reduced into
    [0, pivot).  With inverse=True returns (H, U, U^-1), the inverse built
    by the inverse of each row operation in the same elimination.

    The elimination runs on sparse {column: entry} rows of H, U and the
    transposed inverse, so a row operation touches the nonzeros of the row
    it subtracts.  Rows stay where they are; a swap exchanges two entries of
    `at`, the row at each position, which orders the result.  The rows from
    position pr on are zero left of the column c being cleared, so those
    nonzero at c are those whose first column, `lead`, is c, and the next
    column with a pivot is the least lead among them.
    """
    n, cols = a.rows, a.cols
    h = [dict(compress(enumerate(row), row)) for row in a.entries]
    u = [{i: 1} for i in range(n)]
    # rows of the transposed inverse: U <- E*U makes U^-1 <- U^-1 * E^-1,
    # a column operation on U^-1 and so a row operation here
    vt = [{i: 1} for i in range(n)] if inverse else None
    tracked = (h, u, vt) if inverse else (h, u)
    at = list(range(n))
    lead = [min(row, default=cols) for row in h]  # by position, as `at`; cols for a zero row

    def row_sub(i: int, j: int, q: int) -> None:
        if q == 0:
            return
        add_multiple(h[i], h[j], -q)
        add_multiple(u[i], u[j], -q)
        if vt is not None:
            add_multiple(vt[j], vt[i], q)

    def swap(k: int, t: int) -> None:
        at[k], at[t] = at[t], at[k]
        lead[k], lead[t] = lead[t], lead[k]

    for pr in range(n):
        c = min(lead[pr:])
        if c == cols:
            break
        while lead[pr:].count(c) > 1:
            # the smallest absolute value at c, the first position on ties, goes to position pr
            swap(pr, min((k for k in range(pr, n) if lead[k] == c), key=lambda k: abs(h[at[k]][c])))
            j = at[pr]
            for k in range(pr + 1, n):
                if lead[k] == c:
                    i = at[k]
                    row_sub(i, j, h[i][c] // h[j][c])
                    if c not in h[i]:
                        lead[k] = min(h[i], default=cols)
        swap(pr, lead.index(c, pr))
        j = at[pr]
        if h[j][c] < 0:
            for m in tracked:
                m[j] = {t: -v for t, v in m[j].items()}
        for i in at[:pr]:
            if c in h[i]:
                row_sub(i, j, h[i][c] // h[j][c])
    out = dense([h[i] for i in at], cols), dense([u[i] for i in at], n)
    return out if vt is None else (*out, dense([vt[i] for i in at], n).transpose())


def add_multiple(target: dict, source: Mapping[int, int], q: int) -> None:
    """target += q * source on sparse {index: nonzero entry} maps, over source's entries, dropping zeros."""
    for t, v in source.items():
        x = target.get(t, 0) + q * v
        if x:
            target[t] = x
        else:
            del target[t]


@record
class SmithDecomposition:
    """D = U * A * V with nonnegative divisibility-chained diagonal; U * u_inv = I and V * v_inv = I."""

    u: IntMatrix
    d: IntMatrix
    v: IntMatrix
    u_inv: IntMatrix
    v_inv: IntMatrix

    @property
    def diagonal(self) -> tuple[int, ...]:
        return tuple(self.d.entries[i][i] for i in range(min(self.d.rows, self.d.cols)))

    def verify(self, a: IntMatrix) -> bool:
        if not (_is_inverse(self.u.entries, self.u_inv.entries) and _is_inverse(self.v.entries, self.v_inv.entries)):
            return False
        if self.u.mul(a).mul(self.v).entries != self.d.entries:
            return False
        if not _is_diagonal(self.d.entries):
            return False
        # nonnegative, each factor dividing the next, and nothing but 0 after a 0
        diag = self.diagonal
        return all(x >= 0 for x in diag) and all(y % x == 0 if x else y == 0 for x, y in zip(diag, diag[1:]))


def snf(a: IntMatrix) -> SmithDecomposition:
    """Smith normal form by alternating row and column Hermite forms, checked before returning.

    D starts as a; a row Hermite form of D, then one of D^T, until D is
    diagonal (Kannan and Bachem 1979; Cohen, Alg. 2.4.14).  Each `hnf`
    brings its transform and that transform's inverse, composed into U, U^-1,
    V and V^-1 over the nonzeros.  A diagonal in Hermite form is positive,
    then zero.  Where d_i does not divide d_j (i < j, i the first such),
    adding column j to column i puts d_j below d_i, and the next row Hermite
    form puts gcd(d_i, d_j) at (i, i).  Every earlier factor divides the
    whole block after it, so each repair lowers d_i to a proper divisor and
    the loop ends.  (Adding row j to row i instead puts d_j above the pivot
    d_j, which the Hermite form reduces straight back to zero.)
    """
    d = a
    u = u_inv = IntMatrix.identity(a.rows).entries
    v = v_inv = IntMatrix.identity(a.cols).entries
    while True:
        d, t, t_inv = hnf(d, inverse=True)  # D <- T D
        u, u_inv = _times(t.entries, u), _times(u_inv, t_inv.entries)
        if not _is_diagonal(d.entries):
            d, t, t_inv = hnf(d.transpose(), inverse=True)  # D <- D T^T
            d = d.transpose()
            v, v_inv = _times(v, t.transpose().entries), _times(t_inv.transpose().entries, v_inv)
            if not _is_diagonal(d.entries):
                continue
        diag = [d.entries[i][i] for i in range(min(d.rows, d.cols))]
        pair = next(((i, j) for i, x in enumerate(diag) for j in range(i + 1, len(diag)) if x and diag[j] % x), None)
        if pair is None:
            break
        i, j = pair
        # D <- D E and V <- V E for E = I + e_j e_i^T, so V^-1 <- (I - e_j e_i^T) V^-1
        d = IntMatrix(_add_column(d.entries, i, j))
        v = _add_column(v, i, j)
        v_inv = v_inv[:j] + (tuple(x - y for x, y in zip(v_inv[j], v_inv[i])),) + v_inv[j + 1:]
    result = SmithDecomposition(IntMatrix(u), d, IntMatrix(v), IntMatrix(u_inv), IntMatrix(v_inv))
    if not result.verify(a):
        raise CertificateError("Smith decomposition fails its self-check")
    return result


def _add_column(rows: Sequence[tuple[int, ...]], i: int, j: int) -> tuple[tuple[int, ...], ...]:
    """rows with column j added to column i."""
    return tuple(row[:i] + (row[i] + row[j],) + row[i + 1:] for row in rows)


def _is_diagonal(rows: Sequence[Sequence[int]]) -> bool:
    return not any(x for i, row in enumerate(rows) for j, x in enumerate(row) if i != j)


@record
class InfeasibilityCertificate:
    """Rational row vector y with y*A integral but y*b non-integral."""

    y: tuple[Fraction, ...]

    def verify(self, a: IntMatrix, b: Sequence[int]) -> bool:
        if len(self.y) != a.rows or len(b) != a.rows:
            return False
        for j in range(a.cols):
            if sum(self.y[i] * a.entries[i][j] for i in range(a.rows)).denominator != 1:
                return False
        return sum(self.y[i] * b[i] for i in range(a.rows)).denominator != 1


def _nonzero(row: Sequence[int]) -> Iterator[int]:
    """Indices of the nonzero entries of row, in order."""
    return compress(range(len(row)), row)


def _sparse_rows(rows: Sequence[Sequence[int]]) -> list[list[tuple[int, int]]]:
    """For each row, the (column index, value) pairs of its nonzero entries."""
    return [[(j, row[j]) for j in _nonzero(row)] for row in rows]


def _sparse_row_times(row: Sequence[int], cols: list[list[tuple[int, int]]], width: int) -> list[int]:
    """row * M for M given by `_sparse_rows(M)`, touching nonzero products only."""
    out = [0] * width
    for t in _nonzero(row):
        x = row[t]
        for j, v in cols[t]:
            out[j] += x * v
    return out


def _is_inverse(t: Sequence[Sequence[int]], t_inv: Sequence[Sequence[int]]) -> bool:
    """Whether t * t_inv = I for t of k rows and t_inv of k columns, multiplied over nonzeros.

    For a square t this proves t unimodular.
    """
    k, n = len(t), len(t_inv)
    if any(len(row) != n for row in t) or any(len(row) != k for row in t_inv):
        return False
    inv_rows = _sparse_rows(t_inv)
    for i, row in enumerate(t):
        out = _sparse_row_times(row, inv_rows, k)
        out[i] -= 1
        if any(out):
            return False
    return True


def _times(left: Sequence[Sequence[int]], right: Sequence[Sequence[int]]) -> tuple[tuple[int, ...], ...]:
    """left * right for a square right, multiplied over nonzeros."""
    right_rows = _sparse_rows(right)
    return tuple(tuple(_sparse_row_times(row, right_rows, len(right))) for row in left)


def solve_z(a: IntMatrix, b: Sequence[int]) -> tuple[int, ...] | InfeasibilityCertificate:
    """Solve a*x = b over the integers, read off the Smith form D = U * a * V.

    With c = U * b the system becomes D * y = c for x = V * y.  Where a
    factor d_i does not divide c_i, row i of U over d_i is a certificate
    (U * a = D * V^-1, so its product with a is row i of V^-1); where c_i is
    nonzero past the rank, row i of U over |c_i| + 1 is one (its product with
    a is 0).  The answer is checked against a and b before it is returned.
    """
    if len(b) != a.rows:
        raise DimensionError(f"matrix has {a.rows} rows, rhs has {len(b)}")
    b = [int(t) for t in b]
    dec = snf(a)
    diag = dec.diagonal
    y = [0] * a.cols
    solution = None
    for i, urow in enumerate(dec.u.entries):
        c = sum(u * t for u, t in zip(urow, b))
        d = diag[i] if i < len(diag) else 0
        if d and c % d == 0:
            y[i] = c // d
        elif c:
            solution = InfeasibilityCertificate(tuple(Fraction(u, d or abs(c) + 1) for u in urow))
            break
    if solution is None:
        solution = tuple(sum(v * t for v, t in zip(vrow, y)) for vrow in dec.v.entries)
        if [sum(x * t for x, t in zip(row, solution)) for row in a.entries] != b:
            raise CertificateError("solution does not satisfy a*x = b")
    elif not solution.verify(a, b):
        raise CertificateError("infeasibility certificate does not verify")
    return solution


def kernel_basis(a: IntMatrix) -> IntMatrix:
    """Rows form a basis of the integer kernel {x : a*x = 0}: the columns of V past the rank of D = U * a * V.

    `snf` certifies U * a * V = D with V * V^-1 = I, so a * V's columns past
    the rank are 0 and V is unimodular: those columns span the kernel over
    the integers.
    """
    dec = snf(a)
    rank = sum(1 for d in dec.diagonal if d)
    return IntMatrix(tuple(zip(*dec.v.entries))[rank:])


def reduce_mod_lattice(v: Sequence[int], h: IntMatrix) -> tuple[int, ...]:
    """Balanced representative of v modulo the row lattice of an HNF matrix h.

    Rows are taken in order, and each moves the coordinate at its pivot p
    into [-(p // 2), p - 1 - p // 2], that is [-p/2, p/2).  The result is 0
    exactly when v is in the lattice: a member stays a member and holds a
    multiple of p at each pivot in turn, and a non-member stays outside.
    """
    x = list(int(t) for t in v)
    for row in h.entries:
        j = next(_nonzero(row), None)
        if j is None:
            continue
        p = row[j]
        q = (x[j] + p // 2) // p if p > 0 else 0
        if q:
            x = [xi - q * ri for xi, ri in zip(x, row)]
    return tuple(x)


def in_lattice(h: IntMatrix, v: Sequence[int]) -> bool:
    """Membership of v in the row lattice, h already in HNF."""
    return all(t == 0 for t in reduce_mod_lattice(v, h))


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# the least strong pseudoprime to all of _MR_BASES (psi_13); below it they decide primality
_PSI_13 = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Miller-Rabin to the bases 2..41, then a strong Lucas test from psi_13 on.

    Trial division by the bases alone decides every n below 43^2 = 1849.
    Below psi_13 = 3317044064679887385961981 the thirteen bases decide
    primality exactly.  From psi_13 on, the answer is the Baillie-PSW test
    (strong base-2 Miller-Rabin and a strong Lucas test, here with twelve
    more bases): no composite is known to pass it, but that is not a proof,
    so a True there means a BPSW probable prime.
    """
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    if n < 43 * 43:  # no prime factor up to 41, and a composite n has one up to sqrt(n)
        return True
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for base in _MR_BASES:
        x = pow(base, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return n < _PSI_13 or _strong_lucas_probable_prime(n)


def _jacobi(a: int, n: int) -> int:
    """The Jacobi symbol (a/n) for odd n > 0."""
    a %= n
    sign = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                sign = -sign
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            sign = -sign
        a %= n
    return sign if n == 1 else 0


def _strong_lucas_probable_prime(n: int) -> bool:
    """Strong Lucas test with Selfridge's parameters (D, P, Q) = (D, 1, (1 - D)/4), for odd n > 2.

    D is the first of 5, -7, 9, -11, ... with Jacobi symbol (D/n) = -1.
    With n + 1 = d * 2^s, n passes when U_d = 0 or V_(d*2^r) = 0 for some
    0 <= r < s (mod n).  A square n has no such D and is composite.
    """
    if math.isqrt(n) ** 2 == n:
        return False
    D = 5
    while (j := _jacobi(D, n)) != -1:
        if j == 0 and abs(D) != n:  # D shares a factor with n
            return False
        D = -D - 2 if D > 0 else -D + 2
    q = (1 - D) // 4
    d, s = n + 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1

    def half(x: int) -> int:  # x / 2 mod n, n odd
        return (x + n if x % 2 else x) // 2 % n

    u, v, qk = 1, 1, q % n  # U_1, V_1 and Q^1 with P = 1
    for bit in bin(d)[3:]:
        u, v, qk = u * v % n, (v * v - 2 * qk) % n, qk * qk % n  # index k -> 2k
        if bit == "1":  # 2k -> 2k + 1
            u, v, qk = half(u + v), half(D * u + v), qk * q % n
    if u == 0 or v == 0:
        return True
    for _ in range(s - 1):
        v, qk = (v * v - 2 * qk) % n, qk * qk % n
        if v == 0:
            return True
    return False


Row = Mapping[int, int]  # a relation row: its nonzero entries by column


@record
class Presentation:
    """Finitely generated abelian group given by named generators and sparse relation rows."""

    generators: tuple[str, ...]
    relations: tuple[Row, ...]

    def __post_init__(self):
        # the one relation-row check, at C speed; only a failing matrix is searched for its first fault
        n, rows = len(self.generators), self.relations
        columns, entries = [*chain.from_iterable(rows)], chain.from_iterable(row.values() for row in rows)
        if columns and not 0 <= min(columns) <= max(columns) < n or not all(entries):
            i, c = next((i, c) for i, row in enumerate(rows) for c, v in row.items() if not (0 <= c < n and v))
            fault = f"a zero at column {c}" if 0 <= c < n else f"column {c}, outside the {n} generators"
            raise DimensionError(f"relation row {i} stores {fault}")
        if len(set(self.generators)) != n:
            raise DimensionError("duplicate generator names")


def dense(rows: Sequence[Row], width: int) -> IntMatrix:
    """Sparse rows as a dense matrix of `width` columns, for `snf`, the `hnf` fallback and `hnf`'s results only.

    These are its callers: `invariant_factors` on the block left after
    peeling, `outside_lattice`, and `hnf` for the H, U and U^-1 it
    returns.  The writers in `jsonio` write the dense text from the rows
    themselves.
    """
    out = []
    for row in rows:
        cells = [0] * width
        for t, v in row.items():
            cells[t] = v
        out.append(tuple(cells))
    return IntMatrix(tuple(out))


def _column_rows(rows: Sequence[Row], width: int) -> list[list[int]]:
    """For each of `width` columns, the indices of the rows with a nonzero there, in order."""
    cols: list[list[int]] = [[] for _ in range(width)]
    for i, row in enumerate(rows):
        for t in row:
            cols[t].append(i)
    return cols


def _unit_pivots(rows: Sequence[Row], width: int) -> list[tuple[int, int]]:
    """(row, column) pivots of singleton +-1 rows and columns, peeled one after another.

    Rows and columns are the two sides of a bipartite graph whose edges are
    the nonzero entries.  A line (row or column) with one edge left whose
    entry is +-1 is peeled together with the line at the other end: a unit
    row drops its column from every row, a unit column drops its row.  Each
    peel lowers the edge counts of the lines next to it, and a count that
    falls to 1 queues that line, so the whole costs O(nonzeros).  A row's
    edges are taken in column order, so the pivots do not depend on the
    order of a map's keys.
    """
    m = len(rows)
    lines = [[m + j for j in sorted(row)] for row in rows]
    lines += _column_rows(rows, width)
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
        if abs(rows[i][j]) != 1:
            continue
        pivots.append((i, j))
        done[k] = done[t] = True
        for s in lines[k] + lines[t]:
            if not done[s]:
                left[s] -= 1
                if left[s] == 1:
                    queue.append(s)
    return pivots


def _peeled_block(rows: Sequence[Row], width: int, pivots: Sequence[tuple[int, int]]) -> tuple[Row, ...]:
    """The nonzero rows on the rows and columns that `pivots` leave, once they are re-checked.

    The block's columns are renumbered 0, 1, ... in the order of the columns
    left, so it has `width - len(pivots)` of them.  Raises CertificateError
    unless every pivot, in order, is +-1 on a row and a column not peeled
    before it, and is alone in its column among the rows left or alone in
    its row among the columns left.  Clearing its column by row operations,
    or its row by column operations, then touches no other entry, so it
    splits off an invariant factor 1 and leaves the original submatrix on
    the other rows and columns.
    """
    rows_left, cols_left = set(range(len(rows))), set(range(width))
    cols = _column_rows(rows, width)
    for i, j in pivots:
        if i not in rows_left or j not in cols_left or abs(rows[i].get(j, 0)) != 1:
            raise CertificateError(f"pivot ({i}, {j}) is not a unit on a row and a column left")
        rows_left.remove(i)
        cols_left.remove(j)
        if any(t in cols_left for t in rows[i]) and any(t in rows_left for t in cols[j]):
            raise CertificateError(f"pivot ({i}, {j}) is alone neither in its row nor in its column")
    keep = {t: k for k, t in enumerate(sorted(cols_left))}
    block = ({keep[t]: v for t, v in rows[i].items() if t in keep} for i in sorted(rows_left))
    return tuple(row for row in block if row)


def invariant_factors(p: Presentation) -> tuple[int, ...]:
    """Nonzero invariant factors of the relation matrix, each > 0, by unit peeling.

    A factor 1 for each peeled unit pivot, checked by `_peeled_block`, then
    the nonzero Smith diagonal of the block that is left, which `snf`
    certifies itself.  There is one factor per independent relation, so the
    free rank of the group is `len(p.generators) - len(invariant_factors(p))`.
    """
    n = len(p.generators)
    pivots = _unit_pivots(p.relations, n)
    block = _peeled_block(p.relations, n, pivots)
    rest = tuple(d for d in snf(dense(block, n - len(pivots))).diagonal if d) if block else ()
    return (1,) * len(pivots) + rest


def outside_lattice(rows: Sequence[Row], width: int) -> list[int]:
    """The columns whose unit vector lies outside the row lattice of `rows`, in order.

    One re-checked unit pivot per column settles it with no normal form: each
    pivot is alone in its row or its column among what is left, so expanding
    the determinant along it shows that the pivot rows form a minor of
    determinant +-1, and they span Z^width.  Otherwise a Hermite form does.
    """
    pivots = _unit_pivots(rows, width)
    if len(pivots) == width and not _peeled_block(rows, width, pivots):
        return []
    h, _ = hnf(dense(rows, width))
    return [t for t in range(width) if not in_lattice(h, [0] * t + [1] + [0] * (width - t - 1))]


@record
class NonfreeSpec:
    """Data for a divisibility-chain group on generators z_0..z_{j_trunc-1}.

    The relations are q_m * z_{m+r+1} = z_{m+r} + sum_{l<r} d[m][l] * z_l for
    every m with m + r + 1 < j_trunc.  Finite truncations are free; the
    interest is the divisibility the chain forces in the quotient by
    <z_0..z_{r-1}>.
    """

    r: int
    q: tuple[int, ...]
    d: tuple[tuple[int, ...], ...]
    j_trunc: int

    def __post_init__(self):
        short = truncation_fault(self.r, self.j_trunc)
        if short is not None:
            raise ValueError(short)
        for _, detail in chain_faults(self.r, self.q, self.d, self.relation_count, {}):
            raise ValueError(detail)

    @property
    def relation_count(self) -> int:
        # one relation per z-generator beyond the head and the chain anchor
        return self.j_trunc - self.r - 1


def chain_row(r: int, q: Sequence[int], d: Sequence[Sequence[int]], m: int) -> tuple[tuple[int, int], ...]:
    """Relation m of the chain, q[m]*z_{m+r+1} - z_{m+r} - sum_{l<r} d[m][l]*z_l, as (z index, coefficient).

    The indices are distinct: the head indices l < r sit below m + r.
    """
    return ((m + r + 1, q[m]), (m + r, -1), *((l, -d[m][l]) for l in range(r)))


def truncation_fault(r: int, j_trunc: int) -> str | None:
    """The fault of a chain with head r cut at j_trunc generators, too few for one relation row, or None."""
    return f"need j_trunc >= r+2 = {r + 2}" if j_trunc < r + 2 else None


def chain_faults(
    r: int, q: Sequence[int], d: Sequence[Sequence[int]], count: int, prime: dict | None = None
) -> Iterator:
    """(clause, detail) per fault of the chain data of `count` rows, in row order.

    `prime` caches primality; without it the moduli go untested, and only
    the faults that leave a row unable to index its data (qd-range and
    d-width) are reported.
    """
    if len(q) < count or len(d) < count:
        yield "qd-range", f"need {count} primes and coefficient rows"
        return
    for m in range(count):
        if prime is not None:
            if q[m] not in prime:
                prime[q[m]] = is_prime(q[m])
            if not prime[q[m]]:
                yield "q-prime", f"q[{m}] = {q[m]} is not prime"
        if len(d[m]) != r:
            yield "d-width", f"d[{m}] has width {len(d[m])}, expected {r}"


def build_chain_group(spec: NonfreeSpec) -> Presentation:
    """Presentation of the truncated divisibility-chain group."""
    j = spec.j_trunc
    gens = tuple(f"z{i}" for i in range(j))
    rows = tuple(
        {i: coeff for i, coeff in chain_row(spec.r, spec.q, spec.d, m) if coeff} for m in range(spec.relation_count)
    )
    return Presentation(gens, rows)


@record
class DivisibilityStep:
    m: int
    product: int
    witness_index: int
    combination: tuple[int, ...]
    head_coefficients: tuple[int, ...]


def divisibility_evidence(spec: NonfreeSpec, m_max: int) -> tuple[DivisibilityStep, ...]:
    """Certify that z_r is divisible by q_0*...*q_m modulo <z_0..z_{r-1}>.

    For each m <= m_max exhibits integer coefficients expressing
    z_r - (q_0*...*q_m) * z_{m+r+1} as a combination of relation rows and the
    head generators z_0..z_{r-1}.  The combination telescopes: row k gets
    -q_0*...*q_{k-1}, so its -z_{k+r} cancels the q_0*...*q_{k-1} * z_{k+r}
    that row k - 1 leaves, and head l gets -sum_k q_0*...*q_{k-1} * d[k][l].
    The relation rows and the head unit vectors are independent, so this is
    the only combination.  Each step is multiplied out over `chain_row`, and
    one that misses its target is a CertificateError.
    """
    if m_max > spec.relation_count - 1:
        raise ValueError(
            f"m_max {m_max} exceeds truncation: need m_max <= {spec.relation_count - 1}"
        )
    r = spec.r
    combination = [0] * spec.relation_count
    head = [0] * r
    steps = []
    product = 1
    for m in range(m_max + 1):
        combination[m] = -product
        for l in range(r):
            head[l] -= product * spec.d[m][l]
        product *= spec.q[m]
        step = DivisibilityStep(
            m=m,
            product=product,
            witness_index=m + r + 1,
            combination=tuple(combination),
            head_coefficients=tuple(head),
        )
        total = [0] * spec.j_trunc
        for k, t in enumerate(step.combination):
            for i, coeff in chain_row(r, spec.q, spec.d, k):
                total[i] += t * coeff
        for l, t in enumerate(step.head_coefficients):
            total[l] += t
        target = [0] * spec.j_trunc
        target[r] = 1
        target[step.witness_index] -= step.product
        if total != target:
            raise CertificateError(f"the divisibility combination of step {m} does not multiply out to its target")
        steps.append(step)
    return tuple(steps)
