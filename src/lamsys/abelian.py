"""Exact integer linear algebra and finitely generated abelian group presentations.

Everything here runs over arbitrary-precision integers: Hermite and Smith
normal forms with recorded unimodular transforms, integer linear system
solving with dual infeasibility certificates, and presentations given by a
generator list plus an integer relation matrix.  All functions are pure and
all results carry enough data to be re-verified by direct multiplication.

One exact solver serves `solve_z`, `kernel_basis` and `integer_solutions`:
a single row Hermite form H = U * A^T, with U^-1 tracked in the same
elimination.  Forward substitution along the pivots of H gives a particular
solution of A x = b or an infeasibility certificate; the rows of U against
the zero rows of H are the kernel basis K.  Before returning, four exact,
determinant-free checks certify the result and raise CertificateError if
one fails (they are not asserts, so they run under `python -O` too):

1. U * A^T = H, multiplied over the nonzeros of the sparse A, with H in
   row echelon form, so its r pivots prove rank A >= r;
2. A x = b, or the certificate y has y A integral and y b not;
3. A K^T = 0, the zero rows of check 1;
4. K L = I for L the matching columns of U^-1, so K spans every integer
   vector of its rational span; with check 1 that span is all of ker A,
   and K is a basis of its integer points.

A presentation's invariant factors come from unit peeling, the first step
of structured Gaussian elimination (LaMacchia and Odlyzko, CRYPTO '90): a
row or column whose one nonzero entry left is +-1 splits off a factor 1 and
leaves the original submatrix on the other rows and columns, so no
transform is needed.  The pivot list is re-checked against the original
rows before it is used.  Every relation matrix the CLI builds peels
completely: each chain row has -1 on z_{m+r} and q_m on z_{m+r+1}, a unit
staircase, and kill rows are unit vectors.  Whatever is left goes to `snf`,
which alternates row Hermite forms of D and of D^T until D is diagonal,
composing their transforms and inverses, and certifies D = U * A * V by
U * U^-1 = I and V * V^-1 = I.  Unimodularity is never proved by a
determinant.

`hnf` is the only elimination loop.  Its pivoting is deterministic (the
smallest absolute value in the column, the first such row on ties), so
every normal form and certificate is reproducible bit for bit.  On the CLI
it serves two callers, both after structural elimination.  One is the
kernel basis of a ladder system's coupled core: `uniformization.simulate`
eliminates the label columns, reads the core's kernel off its congruence
lattice, and takes the Hermite form of that basis, with no transform read
and no solver run (an independent ladder reaches no `hnf` at all).  The
other is the fallback of `basis`'s generation check, when peeling the
stacked rows finds fewer pivots than generators.

So `integer_solutions`, `solve_z`, `kernel_basis` and `snf` have no CLI
caller left (`invariant_factors` hands `snf` only a block that peeling
leaves, and every presentation the CLI builds peels completely).  They stay
here for now, as library functions and as the oracle of the differential
tests: the benchmark's tracer (`perfbench/tracing.py`) wraps them and
`tests/test_tracing_targets.py` pins its targets, so they go together with
a change to the benchmark.
"""

from __future__ import annotations

import math
from collections import deque
from fractions import Fraction
from itertools import compress
from typing import Iterable, Iterator, Sequence

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
    def from_rows(cls, rows: Iterable[Sequence[int]]) -> "IntMatrix":
        return cls(tuple(tuple(int(x) for x in row) for row in rows))

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
    """
    rows, cols = a.rows, a.cols
    h = [list(row) for row in a.entries]
    u = [list(row) for row in IntMatrix.identity(rows).entries]
    # rows of the transposed inverse: U <- E*U makes U^-1 <- U^-1 * E^-1,
    # a column operation on U^-1 and so a row operation here
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
    # every entry is already an int, so skip the conversion in from_rows
    out = IntMatrix(tuple(map(tuple, h))), IntMatrix(tuple(map(tuple, u)))
    return out if vt is None else (*out, IntMatrix(tuple(zip(*vt))))


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
    """Smith normal form by alternating row and column Hermite forms, verified before returning.

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


@record
class IntegerSolutions:
    """Every integer solution of a*x = b, with the echelon data that proves it.

    `hermite` = `transform` * a^T is a row echelon form whose first `rank`
    rows are nonzero; the other rows of `transform` form `kernel`, and
    `dual` has one row per kernel row with kernel * dual^T = I.  The integer
    solutions are exactly `solution` plus the integer combinations of the
    kernel rows, or there are none and `solution` is an
    InfeasibilityCertificate.
    """

    solution: tuple[int, ...] | InfeasibilityCertificate
    hermite: IntMatrix
    transform: IntMatrix
    dual: IntMatrix

    @property
    def rank(self) -> int:
        return sum(1 for row in self.hermite.entries if any(row))

    @property
    def kernel(self) -> IntMatrix:
        return IntMatrix(self.transform.entries[self.rank:])

    def check(self, a: IntMatrix, b: Sequence[int]) -> None:
        """Re-verify every claim exactly; raise CertificateError on the first that fails.

        1. transform * a^T = hermite, computed over the nonzeros of a, and
           hermite is a row echelon form, so rank(a) >= `rank`;
        2. a * solution = b, or the infeasibility certificate verifies;
        3. a * kernel^T = 0, which is the zero rows of (1);
        4. kernel * dual^T = I: the kernel rows are independent and every
           integer vector in their rational span is an integer combination
           of them.  By (1) and (3) they span the kernel of a over the
           rationals, so they are a basis of its integer points.
        """
        n, m = a.cols, a.rows
        # every matrix here is sparse: multiply nonzeros only
        a_cols = _sparse_columns(a.entries, n)
        h, u = self.hermite.entries, self.transform.entries
        if len(h) != n or len(u) != n or any(len(row) != m for row in h) or any(len(row) != n for row in u):
            raise CertificateError("Hermite form or its transform has the wrong shape")
        pivots = [next(_nonzero(row), m) for row in h]
        r = self.rank
        if any(p < m for p in pivots[r:]) or any(p >= q for p, q in zip(pivots[: r - 1], pivots[1:r])):
            raise CertificateError("Hermite form is not in row echelon form")
        for urow, hrow in zip(u, h):
            if tuple(_sparse_row_times(urow, a_cols, m)) != hrow:
                raise CertificateError("transform * a^T differs from the Hermite form")
        if not _is_inverse(u[r:], tuple(zip(*self.dual.entries))):
            raise CertificateError("kernel rows do not span the integer kernel")
        if isinstance(self.solution, InfeasibilityCertificate):
            if not self.solution.verify(a, b):
                raise CertificateError("infeasibility certificate does not verify")
        elif len(self.solution) != n or _sparse_row_times(self.solution, a_cols, m) != [int(t) for t in b]:
            raise CertificateError("solution does not satisfy a*x = b")


def _nonzero(row: Sequence[int]) -> Iterator[int]:
    """Indices of the nonzero entries of row, in order."""
    return compress(range(len(row)), row)


def _sparse_rows(rows: Sequence[Sequence[int]]) -> list[list[tuple[int, int]]]:
    """For each row, the (column index, value) pairs of its nonzero entries."""
    return [[(j, row[j]) for j in _nonzero(row)] for row in rows]


def _sparse_columns(rows: Sequence[Sequence[int]], width: int) -> list[list[tuple[int, int]]]:
    """For each column t, the (row index, value) pairs of its nonzero entries."""
    cols: list[list[tuple[int, int]]] = [[] for _ in range(width)]
    for i, row in enumerate(rows):
        for t in _nonzero(row):
            cols[t].append((i, row[t]))
    return cols


def _sparse_row_times(row: Sequence[int], cols: list[list[tuple[int, int]]], width: int) -> list[int]:
    """row * M for M given by `_sparse_rows(M)` or `_sparse_columns(M^T)`, touching nonzero products only."""
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


def _certificate(
    h: tuple[tuple[int, ...], ...], pivots: list[int], m: int, target: Sequence[int], free: int | None = None, denom: int = 1
) -> InfeasibilityCertificate:
    """y / denom, where y is 1 at column `free` and s on the pivot columns.

    s solves sum_k h[l][pivots[k]] * s[k] = target[l] for every pivot row
    l; the pivot columns of an echelon form are upper triangular, so this is
    back substitution.
    """
    s = [Fraction(0)] * len(pivots)
    for k in reversed(range(len(pivots))):
        row = h[k]
        rest = Fraction(target[k]) - sum((row[pivots[l]] * s[l] for l in range(k + 1, len(pivots))), Fraction(0))
        s[k] = rest / row[pivots[k]]
    y = [Fraction(0)] * m
    for k, p in enumerate(pivots):
        y[p] = s[k] / denom
    if free is not None:
        y[free] = Fraction(1, denom)
    return InfeasibilityCertificate(tuple(y))


def integer_solutions(a: IntMatrix, b: Sequence[int]) -> IntegerSolutions:
    """All integer solutions of a*x = b from one Hermite form of a^T, checked before returning.

    With H = U * a^T, the equation x^T a^T = b^T becomes y^T H = b^T for
    x^T = y^T U, which forward substitution along the pivots of H solves or
    refutes: a pivot that does not divide, or a nonzero remainder off the
    pivot columns.  The rows of U against the zero rows of H span the kernel.
    """
    if len(b) != a.rows:
        raise DimensionError(f"matrix has {a.rows} rows, rhs has {len(b)}")
    n = a.cols
    h, u, u_inv = hnf(a.transpose(), inverse=True)
    pivots = [next(_nonzero(row)) for row in h.entries if any(row)]
    rest = [int(t) for t in b]
    x = [0] * n
    solution = None
    for i, p in enumerate(pivots):
        q, rem = divmod(rest[p], h.entries[i][p])
        if rem:
            # H y = e_i, so y a is integral, while y b = rest[p] / pivot is not
            solution = _certificate(h.entries, pivots, a.rows, [int(l == i) for l in range(len(pivots))])
            break
        if q:
            rest = [v - q * w for v, w in zip(rest, h.entries[i])]
            urow = u.entries[i]
            for t in _nonzero(urow):
                x[t] += q * urow[t]
    else:
        j = next(_nonzero(rest), None)
        if j is None:
            solution = tuple(x)
        else:
            # H y = 0, so y a = 0, while y b = rest[j] / (|rest[j]| + 1)
            target = [-h.entries[l][j] for l in range(len(pivots))]
            solution = _certificate(h.entries, pivots, a.rows, target, free=j, denom=abs(rest[j]) + 1)
    dual = IntMatrix(tuple(zip(*u_inv.entries))[len(pivots):])
    result = IntegerSolutions(solution, h, u, dual)
    result.check(a, b)
    return result


def solve_z(a: IntMatrix, b: Sequence[int]):
    """Solve a*x = b over the integers.

    Returns a solution tuple, or an InfeasibilityCertificate whose dot
    products prove no integer solution exists.
    """
    return integer_solutions(a, b).solution


def kernel_basis(a: IntMatrix) -> IntMatrix:
    """Rows form a basis of the integer kernel {x : a*x = 0}."""
    return integer_solutions(a, (0,) * a.rows).kernel


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


@record
class Presentation:
    """Finitely generated abelian group given by named generators and relation rows."""

    generators: tuple[str, ...]
    relations: IntMatrix

    def __post_init__(self):
        if self.relations.rows and self.relations.cols != len(self.generators):
            raise DimensionError(
                f"relation width {self.relations.cols} != generator count {len(self.generators)}"
            )
        if len(set(self.generators)) != len(self.generators):
            raise DimensionError("duplicate generator names")


def _unit_pivots(a: IntMatrix) -> list[tuple[int, int]]:
    """(row, column) pivots of singleton +-1 rows and columns, peeled one after another.

    Rows and columns are the two sides of a bipartite graph whose edges are
    the nonzero entries.  A line (row or column) with one edge left whose
    entry is +-1 is peeled together with the line at the other end: a unit
    row drops its column from every row, a unit column drops its row.  Each
    peel lowers the edge counts of the lines next to it, and a count that
    falls to 1 queues that line, so the whole costs O(nonzeros).
    """
    m = a.rows
    lines = [[m + j for j in _nonzero(row)] for row in a.entries]
    lines += [[i for i, _ in col] for col in _sparse_columns(a.entries, a.cols)]
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


def _peeled_block(a: IntMatrix, pivots: Sequence[tuple[int, int]]) -> tuple[tuple[int, ...], ...]:
    """The nonzero rows of a on the rows and columns that `pivots` leave, once they are re-checked.

    Raises CertificateError unless every pivot, in order, is +-1 on a row
    and a column not peeled before it, and is alone in its column among the
    rows left or alone in its row among the columns left.  Clearing its
    column by row operations, or its row by column operations, then touches
    no other entry, so it splits off an invariant factor 1 and leaves the
    original submatrix on the other rows and columns.
    """
    rows_left, cols_left = set(range(a.rows)), set(range(a.cols))
    cols = _sparse_columns(a.entries, a.cols)
    for i, j in pivots:
        if i not in rows_left or j not in cols_left or abs(a.entries[i][j]) != 1:
            raise CertificateError(f"pivot ({i}, {j}) is not a unit on a row and a column left")
        rows_left.remove(i)
        cols_left.remove(j)
        if any(t in cols_left for t in _nonzero(a.entries[i])) and any(t in rows_left for t, _ in cols[j]):
            raise CertificateError(f"pivot ({i}, {j}) is alone neither in its row nor in its column")
    keep = sorted(cols_left)
    block = (tuple(a.entries[i][j] for j in keep) for i in sorted(rows_left))
    return tuple(row for row in block if any(row))


def invariant_factors(p: Presentation) -> tuple[int, ...]:
    """Nonzero invariant factors of the relation matrix, each > 0, by unit peeling.

    A factor 1 for each peeled unit pivot, checked by `_peeled_block`, then
    the nonzero Smith diagonal of the block that is left, which `snf`
    certifies itself.  There is one factor per independent relation, so the
    free rank of the group is `len(p.generators) - len(invariant_factors(p))`.
    """
    a = p.relations
    pivots = _unit_pivots(a)
    block = _peeled_block(a, pivots)
    rest = tuple(d for d in snf(IntMatrix(block)).diagonal if d) if block else ()
    return (1,) * len(pivots) + rest


def is_free(p: Presentation) -> bool:
    return all(d == 1 for d in invariant_factors(p))


def rank(p: Presentation) -> int:
    """Free rank: generators minus the number of nonzero invariant factors."""
    return len(p.generators) - len(invariant_factors(p))


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
        if self.j_trunc < self.r + 2:
            raise ValueError(f"truncation {self.j_trunc} too small, need at least r+2 = {self.r + 2}")
        need = self.relation_count
        if len(self.q) < need:
            raise ValueError(f"need {need} primes for truncation {self.j_trunc}, got {len(self.q)}")
        if len(self.d) < need:
            raise ValueError(f"need {need} coefficient rows, got {len(self.d)}")
        for m in range(need):
            # a repeated modulus was already tested at its first index
            if self.q[m] not in self.q[:m] and not is_prime(self.q[m]):
                raise ValueError(f"q[{m}] = {self.q[m]} is not prime")
            if len(self.d[m]) != self.r:
                raise ValueError(f"coefficient row {m} has length {len(self.d[m])}, expected r = {self.r}")

    @property
    def relation_count(self) -> int:
        # one relation per z-generator beyond the head and the chain anchor
        return self.j_trunc - self.r - 1


def chain_row(r: int, q: Sequence[int], d: Sequence[Sequence[int]], m: int) -> tuple[tuple[int, int], ...]:
    """Relation m of the chain, q[m]*z_{m+r+1} - z_{m+r} - sum_{l<r} d[m][l]*z_l, as (z index, coefficient).

    The indices are distinct: the head indices l < r sit below m + r.
    """
    return ((m + r + 1, q[m]), (m + r, -1), *((l, -d[m][l]) for l in range(r)))


def build_chain_group(spec: NonfreeSpec) -> Presentation:
    """Presentation of the truncated divisibility-chain group."""
    j = spec.j_trunc
    gens = tuple(f"z{i}" for i in range(j))
    rows = []
    for m in range(spec.relation_count):
        row = [0] * j
        for i, coeff in chain_row(spec.r, spec.q, spec.d, m):
            row[i] = coeff
        rows.append(row)
    return Presentation(gens, IntMatrix.from_rows(rows))


@record
class DivisibilityStep:
    m: int
    product: int
    witness_index: int
    combination: tuple[int, ...]
    head_coefficients: tuple[int, ...]
    verified: bool


@record
class DivisibilityReport:
    steps: tuple[DivisibilityStep, ...]

    @property
    def ok(self) -> bool:
        return all(s.verified for s in self.steps)


def divisibility_evidence(spec: NonfreeSpec, m_max: int) -> DivisibilityReport:
    """Certify that z_r is divisible by q_0*...*q_m modulo <z_0..z_{r-1}>.

    For each m <= m_max exhibits integer coefficients expressing
    z_r - (q_0*...*q_m) * z_{m+r+1} as a combination of relation rows and the
    head generators z_0..z_{r-1}.  The combination telescopes: row k gets
    -q_0*...*q_{k-1}, so its -z_{k+r} cancels the q_0*...*q_{k-1} * z_{k+r}
    that row k - 1 leaves, and head l gets -sum_k q_0*...*q_{k-1} * d[k][l].
    The relation rows and the head unit vectors are independent, so this is
    the only combination.  Each step is multiplied out over `chain_row` and
    raises CertificateError if it misses its target, so `verified` is True
    on every step returned.
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
            verified=True,
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
    return DivisibilityReport(tuple(steps))
