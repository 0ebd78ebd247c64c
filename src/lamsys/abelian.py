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

A presentation's invariant factors and rank come from one row Hermite form
H = U * A of its relation matrix, again with U^-1 from the same elimination
(`HermiteForm`).  Three determinant-free checks certify it: H is in row
echelon form, U * A = H over the nonzeros of A, and U * U^-1 = I, so U is
unimodular and A has the rank and the Smith form of H.  Each pivot 1 of H
sits in a unit-vector column, checked too, and splits off a factor 1; `snf`
runs only on the rows with larger pivots, restricted to the columns where
they have entries.  `snf` alternates row Hermite forms of D and of D^T
until D is diagonal, composing their transforms and inverses, and
certifies D = U * A * V the same way, by U * U^-1 = I and V * V^-1 = I.
Unimodularity is never proved by a determinant.

`hnf` is the only elimination loop.  Its pivoting is deterministic (the
smallest absolute value in the column, the first such row on ties), so
every normal form and certificate is reproducible bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import compress
from typing import Iterable, Iterator, Sequence


class DimensionError(ValueError):
    """Raised when matrix/vector shapes do not line up."""


class CertificateError(RuntimeError):
    """A computed result failed its own exact re-verification."""


@dataclass(frozen=True)
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

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "IntMatrix":
        return cls(tuple(tuple(0 for _ in range(cols)) for _ in range(rows)))

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0]) if self.entries else 0

    def row(self, i: int) -> tuple[int, ...]:
        return self.entries[i]

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

    def mul_vec(self, v: Sequence[int]) -> tuple[int, ...]:
        if self.cols != len(v):
            raise DimensionError(f"matrix has {self.cols} columns, vector has {len(v)}")
        return tuple(sum(row[j] * v[j] for j in range(self.cols)) for row in self.entries)


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


@dataclass(frozen=True)
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
        # nonnegative, each factor dividing the next, and only zeros after a zero
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


@dataclass(frozen=True)
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


@dataclass(frozen=True)
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
        _check_hermite(self.hermite.entries, self.transform.entries, a_cols, m, "a^T")
        if not _is_inverse(self.transform.entries[self.rank:], tuple(zip(*self.dual.entries))):
            raise CertificateError("kernel rows do not span the integer kernel")
        if isinstance(self.solution, InfeasibilityCertificate):
            if not self.solution.verify(a, b):
                raise CertificateError("infeasibility certificate does not verify")
        elif len(self.solution) != n or _sparse_row_times(self.solution, a_cols, m) != [int(t) for t in b]:
            raise CertificateError("solution does not satisfy a*x = b")


def _nonzero(row: Sequence[int]) -> Iterator[int]:
    """Indices of the nonzero entries of row, in order."""
    return compress(range(len(row)), row)


def _echelon_pivots(h: Sequence[Sequence[int]], width: int) -> list[int]:
    """Pivot columns of the nonzero rows of h; CertificateError unless h is in row echelon form."""
    pivots = [next(_nonzero(row), width) for row in h]
    r = sum(1 for p in pivots if p < width)
    if any(p < width for p in pivots[r:]) or any(p >= q for p, q in zip(pivots[: r - 1], pivots[1:r])):
        raise CertificateError("Hermite form is not in row echelon form")
    return pivots[:r]


def _check_hermite(
    h: Sequence[Sequence[int]], u: Sequence[Sequence[int]], m_rows: list[list[tuple[int, int]]], width: int, name: str
) -> None:
    """CertificateError unless h = u * M in row echelon form, for M given by its sparse rows `m_rows`.

    u is square with one row per row of M, and h has `width` columns.
    """
    k = len(m_rows)
    if len(h) != k or len(u) != k or any(len(row) != width for row in h) or any(len(row) != k for row in u):
        raise CertificateError("Hermite form or its transform has the wrong shape")
    _echelon_pivots(h, width)
    for urow, hrow in zip(u, h):
        if tuple(_sparse_row_times(urow, m_rows, width)) != hrow:
            raise CertificateError(f"transform * {name} differs from the Hermite form")


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


def express_in_lattice(a: IntMatrix, v: Sequence[int]):
    """Integer coefficients t with t * a = v, or None when v is outside the row lattice."""
    if len(v) != a.cols:
        raise DimensionError(f"lattice ambient dimension {a.cols}, vector has {len(v)}")
    res = solve_z(a.transpose(), v)
    return None if isinstance(res, InfeasibilityCertificate) else res


def reduce_mod_lattice(v: Sequence[int], h: IntMatrix, balanced: bool = False) -> tuple[int, ...]:
    """Canonical representative of v modulo the row lattice of an HNF matrix h.

    With balanced=True residues at pivot coordinates land in (-p/2, p/2],
    otherwise in [0, p).
    """
    x = list(int(t) for t in v)
    for row in h.entries:
        j = next(_nonzero(row), None)
        if j is None:
            continue
        p = row[j]
        q = (x[j] + (p // 2 if balanced else 0)) // p if p > 0 else 0
        if q:
            x = [xi - q * ri for xi, ri in zip(x, row)]
    return tuple(x)


def in_lattice(h: IntMatrix, v: Sequence[int]) -> bool:
    """Membership of v in the row lattice, h already in HNF."""
    return all(t == 0 for t in reduce_mod_lattice(v, h))


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for anything this library will see."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    # exact for n < 3.3 * 10^24 with these witnesses
    for base in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(base, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
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
            raise ValueError("duplicate generator names")


@dataclass(frozen=True)
class HermiteForm:
    """`hermite` = `transform` * a in row echelon form, with `inverse` = `transform`^-1.

    These are the three matrices of `hnf(a, inverse=True)`.  Once `check(a)`
    has passed, `rank` is the rank of a and the Smith forms of a and
    `hermite` agree.
    """

    hermite: IntMatrix
    transform: IntMatrix
    inverse: IntMatrix

    @property
    def rank(self) -> int:
        return sum(1 for row in self.hermite.entries if any(row))

    def check(self, a: IntMatrix) -> None:
        """Re-verify the form exactly; raise CertificateError on the first claim that fails.

        1. hermite is in row echelon form, so its `rank` nonzero rows are
           independent and every other row is zero;
        2. transform * a = hermite, computed over the nonzeros of a;
        3. transform * inverse = I, so transform is invertible over the
           integers and a has the rank and the Smith form of hermite.
        """
        _check_hermite(self.hermite.entries, self.transform.entries, _sparse_rows(a.entries), a.cols, "a")
        if not _is_inverse(self.transform.entries, self.inverse.entries):
            raise CertificateError("transform * inverse differs from the identity")

    def unit_split(self) -> tuple[int, IntMatrix]:
        """Smith form of hermite as I_k (+) B: the count k of pivots equal to 1 and the block B.

        A pivot 1 whose column is otherwise zero, as in a Hermite form, lets
        column operations clear the rest of its row without touching any
        other row, so it splits off an invariant factor 1.  B is what is
        left: the rows with pivots above 1, without the columns of unit
        pivots and the columns that are zero in all of those rows, which
        only add free rank.  Raises CertificateError if a unit pivot's
        column is not a unit vector.
        """
        h = self.hermite.entries
        pivots = _echelon_pivots(h, self.hermite.cols)
        units = [(i, p) for i, p in enumerate(pivots) if h[i][p] == 1]
        for i, p in units:
            if any(row[p] for l, row in enumerate(h) if l != i):
                raise CertificateError("a unit pivot's column is not a unit vector")
        unit_cols = {p for _, p in units}
        rest = [h[i] for i, p in enumerate(pivots) if h[i][p] != 1]
        keep = [j for j in range(self.hermite.cols) if j not in unit_cols and any(row[j] for row in rest)]
        return len(units), IntMatrix(tuple(tuple(row[j] for j in keep) for row in rest))


def _hermite_form(a: IntMatrix) -> HermiteForm:
    form = HermiteForm(*hnf(a, inverse=True))
    form.check(a)
    return form


def invariant_factors(p: Presentation) -> tuple[int, ...]:
    """Nonzero invariant factors of the relation matrix, each > 0, from its checked Hermite form.

    A factor 1 for each unit pivot, then the Smith form of the block that
    is left, which runs with its own self-check.  There is one factor per
    nonzero row of the Hermite form, so the free rank of the group is
    `len(p.generators) - len(invariant_factors(p))`.
    """
    units, block = _hermite_form(p.relations).unit_split()
    # the block's rows are in echelon form, so its Smith diagonal has no zero
    return (1,) * units + (snf(block).diagonal if block.rows else ())


def is_free(p: Presentation) -> bool:
    return all(d == 1 for d in invariant_factors(p))


def rank(p: Presentation) -> int:
    """Free rank: generators minus the rank of the relation matrix, from its checked Hermite form."""
    return len(p.generators) - _hermite_form(p.relations).rank


@dataclass(frozen=True)
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


def build_chain_group(spec: NonfreeSpec) -> Presentation:
    """Presentation of the truncated divisibility-chain group."""
    j = spec.j_trunc
    gens = tuple(f"z{i}" for i in range(j))
    rows = []
    for m in range(spec.relation_count):
        row = [0] * j
        row[m + spec.r + 1] = spec.q[m]
        row[m + spec.r] -= 1
        for l in range(spec.r):
            row[l] -= spec.d[m][l]
        rows.append(row)
    return Presentation(gens, IntMatrix.from_rows(rows))


@dataclass(frozen=True)
class DivisibilityStep:
    m: int
    product: int
    witness_index: int
    combination: tuple[int, ...]
    head_coefficients: tuple[int, ...]
    verified: bool


@dataclass(frozen=True)
class DivisibilityReport:
    steps: tuple[DivisibilityStep, ...]

    @property
    def ok(self) -> bool:
        return all(s.verified for s in self.steps)


def divisibility_evidence(spec: NonfreeSpec, m_max: int) -> DivisibilityReport:
    """Certify that z_r is divisible by q_0*...*q_m modulo <z_0..z_{r-1}>.

    For each m <= m_max exhibits integer coefficients expressing
    z_r - (q_0*...*q_m) * z_{m+r+1} as a combination of relation rows and the
    head generators z_0..z_{r-1}.  The solver has checked the combination
    exactly (`IntegerSolutions.check`), so a step is verified when one exists.
    """
    if m_max > spec.relation_count - 1:
        raise ValueError(
            f"m_max {m_max} exceeds truncation: need m_max <= {spec.relation_count - 1}"
        )
    pres = build_chain_group(spec)
    j = spec.j_trunc
    head = [tuple(1 if k == l else 0 for k in range(j)) for l in range(spec.r)]
    stacked = IntMatrix.from_rows(list(pres.relations.entries) + head)
    steps = []
    product = 1
    for m in range(m_max + 1):
        product *= spec.q[m]
        target = [0] * j
        target[spec.r] = 1
        target[m + spec.r + 1] -= product
        coeffs = express_in_lattice(stacked, target) or ()
        steps.append(
            DivisibilityStep(
                m=m,
                product=product,
                witness_index=m + spec.r + 1,
                combination=coeffs[: pres.relations.rows],
                head_coefficients=coeffs[pres.relations.rows:],
                verified=bool(coeffs),
            )
        )
    return DivisibilityReport(tuple(steps))

