"""Residue-class separation tables and the finite chain/splitting simulator.

The combinatorial core: given a finite Y inside Z/n with |Y|^2 < |Y'|, some
b in Y' makes Y and b+Y disjoint (pick b outside the difference set Y-Y).
Two table builders apply this with structured Y:

* `prime_table(p, mu)` works mod a prime p.  Y collects m_0 + sum mu_k*m_k
  over |m_k| <= t_p where t_p is maximal with (2*t_p+1)^(2r+2) < p.  The
  resulting two-class function F sends Y to 0 and b+Y to 1 (0 elsewhere).
* `power_table(p, i, thresholds, mu)` works mod p^{t_i} along the cumulative
  exponents produced by `threshold_exponents`.  Y collects
  m_0 + sum_k (sum_j p^j mu_k(j)) m_k + (digit part below t_{i-1}) over
  |m_k| <= p^{t_{i-1}}, and the class-1 shift is a multiple of p^{t_{i-1}}
  whose base-p digits live in [t_{i-1}, t_i).

Y is always a union of length-3P (or 2t_p+1) arithmetic intervals, so both
builders and the exhaustive checks run on interval sets rather than element
enumeration; moduli like 2^23 and 3^54 stay cheap.

`simulate` realizes the chain construction at finite truncation: a base
presentation A from the ladder relations, a primed copy A' whose relations
add table shifts times a distinguished generator e, the canonical section
psi (generator-wise priming), and a computed splitting rho with pi*rho = id.
Writing rho(x) = x' + c_x*e reduces the splitting to one integer linear
system W c = -a over the relation matrix W, solved exactly; the recovered
bits H(w) then match the input coloring at every index past the reported
magnitude threshold n0.
"""

from __future__ import annotations

import bisect
import warnings
from dataclasses import dataclass
from typing import Mapping, Sequence

from .abelian import (
    CertificateError,
    InfeasibilityCertificate,
    IntMatrix,
    _sparse_rows,
    hnf,
    integer_solutions,
    is_prime,
    reduce_mod_lattice,
)


class ShiftDisjointError(ValueError):
    pass


class TableError(ValueError):
    pass


@dataclass(frozen=True)
class IntervalSet:
    """Disjoint sorted inclusive segments of residues mod `modulus`."""

    modulus: int
    segments: tuple[tuple[int, int], ...]

    @classmethod
    def from_raw(cls, intervals: Sequence[tuple[int, int]], modulus: int) -> "IntervalSet":
        """Build from raw integer intervals [lo, hi], reduced mod modulus and merged."""
        pieces: list[tuple[int, int]] = []
        for lo, hi in intervals:
            if hi < lo:
                continue
            if hi - lo + 1 >= modulus:
                pieces = [(0, modulus - 1)]
                break
            lo_m = lo % modulus
            hi_m = hi % modulus
            if lo_m <= hi_m:
                pieces.append((lo_m, hi_m))
            else:
                pieces.append((lo_m, modulus - 1))
                pieces.append((0, hi_m))
        pieces.sort()
        merged: list[list[int]] = []
        for lo, hi in pieces:
            if merged and lo <= merged[-1][1] + 1:
                merged[-1][1] = max(merged[-1][1], hi)
            else:
                merged.append([lo, hi])
        return cls(modulus, tuple((a, b) for a, b in merged))

    def contains(self, x: int) -> bool:
        x %= self.modulus
        idx = bisect.bisect_right(self.segments, (x, self.modulus)) - 1
        return idx >= 0 and self.segments[idx][0] <= x <= self.segments[idx][1]

    def size(self) -> int:
        return sum(hi - lo + 1 for lo, hi in self.segments)

    def residues(self):
        for lo, hi in self.segments:
            yield from range(lo, hi + 1)

    def shift(self, b: int) -> "IntervalSet":
        return IntervalSet.from_raw([(lo + b, hi + b) for lo, hi in self.segments], self.modulus)

    def difference_set(self) -> "IntervalSet":
        """The set {x - y : x, y in self} as intervals."""
        raw = [
            (lo1 - hi2, hi1 - lo2)
            for lo1, hi1 in self.segments
            for lo2, hi2 in self.segments
        ]
        return IntervalSet.from_raw(raw, self.modulus)

    def disjoint_from(self, other: "IntervalSet") -> bool:
        i = j = 0
        a, b = self.segments, other.segments
        while i < len(a) and j < len(b):
            if a[i][1] < b[j][0]:
                i += 1
            elif b[j][1] < a[i][0]:
                j += 1
            else:
                return False
        return True

    def least_uncovered_multiple(self, stride: int) -> int | None:
        """Smallest multiple of stride in [0, modulus) outside this set."""
        x = 0
        for lo, hi in self.segments:
            if x < lo:
                break
            if x <= hi:
                x = ((hi // stride) + 1) * stride
        return x if x < self.modulus else None


def shift_disjoint(y, y_prime, modulus: int) -> int:
    """Least b in y_prime with Y and b+Y disjoint, i.e. outside {x - y : x, y in Y}.

    The guarantee |Y|^2 < |Y'| is checked; when it fails but a valid b still
    exists, the b is returned with a warning.
    """
    y_set = {v % modulus for v in y}
    yp = sorted({v % modulus for v in y_prime})
    hypothesis = len(y_set) ** 2 < len(yp)
    diffs = {(x - v) % modulus for x in y_set for v in y_set}
    b = next((v for v in yp if v not in diffs), None)
    if b is None:
        raise ShiftDisjointError(
            f"no valid shift exists (|Y| = {len(y_set)}, |Y'| = {len(yp)}, modulus {modulus})"
        )
    if not hypothesis:
        warnings.warn(
            f"size guarantee violated (|Y|^2 = {len(y_set) ** 2} >= |Y'| = {len(yp)}) "
            "but a valid shift exists anyway",
            stacklevel=2,
        )
    if not y_set.isdisjoint({(b + v) % modulus for v in y_set}):
        raise CertificateError(f"shift {b} does not make the set disjoint from its translate")
    return b


def _interval_shift_disjoint(y: IntervalSet, stride: int) -> int:
    """Least multiple of stride outside the difference set of y (interval path)."""
    diffs = y.difference_set()
    b = diffs.least_uncovered_multiple(stride)
    if b is None:
        raise ShiftDisjointError("difference set covers every candidate shift")
    return b


def max_magnitude_bound(p: int, r: int) -> int:
    """Largest t with (2t+1)^(2r+2) < p; requires p >= 2 so t = 0 always works."""
    if p < 2:
        raise TableError(f"modulus base must be at least 2, got {p}")
    t = 0
    while (2 * (t + 1) + 1) ** (2 * r + 2) < p:
        t += 1
    return t


@dataclass(frozen=True)
class PrimeTable:
    """Two-class residue table mod a prime; class l is shift[l] + Y."""

    p: int
    r: int
    mu: tuple[int, ...]
    t_bound: int
    shift: tuple[int, int]
    zero_class: IntervalSet
    one_class: IntervalSet

    def value(self, residue: int) -> int:
        return 1 if self.one_class.contains(residue % self.p) else 0

    @property
    def key(self):
        return ("prime", self.p, self.mu)


def _tuple_ranges(bound: int, r: int):
    """All integer r-tuples with entries in [-bound, bound], lexicographic."""
    if r == 0:
        yield ()
        return
    for head in range(-bound, bound + 1):
        for tail in _tuple_ranges(bound, r - 1):
            yield (head,) + tail


_prime_cache: dict = {}


def prime_table(p: int, mu: Sequence[int] = ()) -> PrimeTable:
    """Separation table mod p for base values m_0 + sum mu_k * m_k, |m_k| <= t_p."""
    key = (p, tuple(int(v) for v in mu))
    if key in _prime_cache:
        return _prime_cache[key]
    if not is_prime(p):
        raise TableError(f"{p} is not prime")
    r = len(mu)
    t = max_magnitude_bound(p, r)
    centers = sorted({sum(c * m for c, m in zip(mu, vec)) for vec in _tuple_ranges(t, r)})
    y = IntervalSet.from_raw([(c - t, c + t) for c in centers], p)
    b = _interval_shift_disjoint(y, 1)
    one = y.shift(b)
    if not y.disjoint_from(one):
        raise CertificateError(f"prime table mod {p}: the two classes overlap")
    table = PrimeTable(p=p, r=r, mu=key[1], t_bound=t, shift=(0, b), zero_class=y, one_class=one)
    _prime_cache[key] = table
    return table


def threshold_exponents(p: int, r: int, i_max: int) -> tuple[int, ...]:
    """Cumulative exponents t_0 = 0 < t_1 < ... < t_{i_max}.

    Each step d_i is the least positive d with
    (2*p^{t_{i-1}} + 1)^(2r+2) * p^(2*t_{i-1}) < p^d (strict).
    """
    if p < 2:
        raise TableError(f"base must be at least 2, got {p}")
    ts = [0]
    for _ in range(i_max):
        prev = ts[-1]
        lhs = (2 * p ** prev + 1) ** (2 * r + 2) * p ** (2 * prev)
        d = 1
        while p ** d <= lhs:
            d += 1
        ts.append(prev + d)
    return tuple(ts)


@dataclass(frozen=True)
class PowerTable:
    """Two-class residue table mod p^{t_i}; class-1 shift has digits in [t_{i-1}, t_i)."""

    p: int
    r: int
    i: int
    t_prev: int
    t_cur: int
    mu: tuple[tuple[int, ...], ...]
    shift: tuple[int, int]
    digits: tuple[tuple[int, ...], tuple[int, ...]]
    zero_class: IntervalSet
    one_class: IntervalSet

    @property
    def modulus(self) -> int:
        return self.p ** self.t_cur

    def value(self, residue: int) -> int:
        return 1 if self.one_class.contains(residue % self.modulus) else 0

    @property
    def key(self):
        return ("power", self.p, self.i, self.mu)


_power_cache: dict = {}


def power_table(
    p: int,
    i: int,
    thresholds: Sequence[int],
    mu: Sequence[Sequence[int]] = (),
) -> PowerTable:
    """Separation table mod p^{t_i}.

    Y collects m_0 + sum_k (sum_{j<t_i} p^j mu_k(j)) m_k + (any digit value
    below p^{t_{i-1}}) over |m_k| <= p^{t_{i-1}}; the table depends only on
    mu restricted below t_i, which is enforced by slicing before anything
    else.
    """
    if i < 1 or i >= len(thresholds):
        raise TableError(f"block index {i} outside supplied thresholds")
    if p < 2:
        raise TableError(f"base must be at least 2, got {p}")
    t_prev, t_cur = thresholds[i - 1], thresholds[i]
    mu_cut = tuple(tuple(int(v) for v in row[:t_cur]) for row in mu)
    if any(len(row) < t_cur for row in mu_cut):
        raise TableError(f"mu rows must supply at least t_{i} = {t_cur} values")
    cache_key = ("power", p, i, t_prev, t_cur, mu_cut)
    if cache_key in _power_cache:
        return _power_cache[cache_key]
    r = len(mu_cut)
    modulus = p ** t_cur
    big_p = p ** t_prev
    coeffs = [sum(p ** j * row[j] for j in range(t_cur)) % modulus for row in mu_cut]
    centers = sorted({sum(c * m for c, m in zip(coeffs, vec)) % modulus for vec in _tuple_ranges(big_p, r)})
    y = IntervalSet.from_raw([(c - big_p, c + 2 * big_p - 1) for c in centers], modulus)
    b = _interval_shift_disjoint(y, big_p)
    one = y.shift(b)
    if not y.disjoint_from(one) or b % big_p:
        raise CertificateError(f"power table mod {p}^{t_cur}: shift {b} is not a disjoint multiple of {p}^{t_prev}")
    v = b // big_p
    digits1 = []
    for _ in range(t_cur - t_prev):
        digits1.append(v % p)
        v //= p
    if v:
        raise CertificateError(f"power table mod {p}^{t_cur}: shift {b} has more than {t_cur - t_prev} digits")
    table = PowerTable(
        p=p,
        r=r,
        i=i,
        t_prev=t_prev,
        t_cur=t_cur,
        mu=mu_cut,
        shift=(0, b),
        digits=(tuple(0 for _ in digits1), tuple(digits1)),
        zero_class=y,
        one_class=one,
    )
    _power_cache[cache_key] = table
    return table


def primes_above(threshold: int, count: int) -> tuple[int, ...]:
    """The `count` smallest primes strictly above `threshold` (experiment setup)."""
    out = []
    candidate = max(threshold + 1, 2)
    while len(out) < count:
        if is_prime(candidate):
            out.append(candidate)
        candidate += 1
    return tuple(out)


def recode_ladder(alpha: int, values: Sequence[int], ladder: Sequence[int], base: int | None = None):
    """Pure index re-coding: pair auxiliary values with ladder rungs.

    Returns (alpha * base, rungs, base) where rung j = ladder[j] * base +
    values[j] % base; the new rungs are strictly increasing below the new
    limit whenever the input ladder was.
    """
    if len(values) != len(ladder):
        raise ValueError("values and ladder must have equal length")
    if any(l2 <= l1 for l1, l2 in zip(ladder, ladder[1:])) or any(l >= alpha for l in ladder):
        raise ValueError("ladder must be strictly increasing below its limit")
    k = base if base is not None else max((abs(v) for v in values), default=0) + 1
    rungs = tuple(l * k + (v % k) for l, v in zip(ladder, values))
    return alpha * k, rungs, k


# --- chain simulation --------------------------------------------------------


@dataclass(frozen=True)
class LadderLevel:
    alpha: int
    ladder: tuple[int, ...]
    colors: tuple[int, ...]
    g_labels: tuple[str, ...]
    mu: tuple[tuple[int, ...], ...] = ()
    primes: tuple[int, ...] | None = None


@dataclass(frozen=True)
class LadderInstance:
    subcase: str  # "i" (distinct primes) or "ii" (fixed prime power blocks)
    r: int
    levels: tuple[LadderLevel, ...]
    p: int | None = None
    i_max: int | None = None


def validate_instance(inst: LadderInstance) -> list[str]:
    out = []
    if inst.subcase not in ("i", "ii"):
        out.append(f"unknown subcase {inst.subcase!r}")
        return out
    if inst.subcase == "ii":
        if inst.p is None or not is_prime(inst.p):
            out.append("subcase ii needs a fixed prime p")
        if inst.i_max is None or inst.i_max < 1:
            out.append("subcase ii needs i_max >= 1")
        if out:
            return out
        thresholds = threshold_exponents(inst.p, inst.r, inst.i_max)
        n_rel = thresholds[-1]
    alphas = [lv.alpha for lv in inst.levels]
    if len(set(alphas)) != len(alphas):
        out.append("duplicate limit levels")
    for lv in inst.levels:
        tag = f"level {lv.alpha}"
        if any(b <= a for a, b in zip(lv.ladder, lv.ladder[1:])):
            out.append(f"{tag}: ladder not strictly increasing")
        if any(x >= lv.alpha for x in lv.ladder):
            out.append(f"{tag}: ladder rung at or above its limit")
        if any(c not in (0, 1) for c in lv.colors):
            out.append(f"{tag}: colors must be bits")
        if len(lv.mu) != inst.r:
            out.append(f"{tag}: need {inst.r} mu rows, got {len(lv.mu)}")
        if inst.subcase == "i":
            m = len(lv.primes or ())
            if lv.primes is None or m == 0:
                out.append(f"{tag}: needs its prime list")
                continue
            if len(set(lv.primes)) != m:
                out.append(f"{tag}: primes must be pairwise distinct")
            if any(not is_prime(pp) for pp in lv.primes):
                out.append(f"{tag}: non-prime in prime list")
            if not (len(lv.ladder) == len(lv.colors) == len(lv.g_labels) == m):
                out.append(f"{tag}: ladder, colors, g labels, primes must share length")
            if any(len(row) < m for row in lv.mu):
                out.append(f"{tag}: mu rows shorter than the prime list")
        else:
            if len(lv.g_labels) != n_rel:
                out.append(f"{tag}: needs {n_rel} base elements, got {len(lv.g_labels)}")
            if len(lv.ladder) != inst.i_max or len(lv.colors) != inst.i_max:
                out.append(f"{tag}: ladder and colors must have length i_max = {inst.i_max}")
            if any(len(row) < n_rel for row in lv.mu):
                out.append(f"{tag}: mu rows must supply {n_rel} values")
    return out


@dataclass(frozen=True)
class ChainState:
    """Presentation data for the chain stage and its primed extension."""

    generators: tuple[str, ...]
    relations: IntMatrix
    shift_coefficients: tuple[int, ...]   # e-coefficient removed from each primed relation
    splitting: Mapping[str, int]          # c_x with rho(x) = x' + c_x * e


@dataclass(frozen=True)
class LevelReport:
    alpha: int
    n0: int
    queries: tuple[dict, ...]
    delta_y0: int
    delta_z: tuple[int, ...]

    @property
    def matches_from_n0(self) -> bool:
        return all(q["match"] for q in self.queries if q["n"] >= self.n0)


@dataclass(frozen=True)
class SimulationReport:
    subcase: str
    levels: tuple[LevelReport, ...]
    chain: ChainState
    checks: Mapping[str, bool]
    table_keys: tuple[tuple, ...]

    @property
    def ok(self) -> bool:
        return all(self.checks.values()) and all(lv.matches_from_n0 for lv in self.levels)


def _gen_names(inst: LadderInstance, n_rel_of) -> list[str]:
    # z and y generators first: the kernel of the relation matrix projects
    # onto their coordinates, so the balanced reduction of the splitting
    # zeroes them whenever the base elements leave enough freedom, keeping
    # the reported thresholds small
    names = []
    for lv in sorted(inst.levels, key=lambda l: l.alpha):
        names += [f"z:{lv.alpha}:{k}" for k in range(1, inst.r + 1)]
        names += [f"y:{lv.alpha}:{n}" for n in range(n_rel_of(lv) + 1)]
    labels = sorted({g for lv in inst.levels for g in lv.g_labels})
    names += [f"g:{g}" for g in labels]
    return names


def _lift(c: list[int], pivot_of: Mapping[int, int], rows: Sequence[Sequence[tuple[int, int]]], shifts: Sequence[int]) -> None:
    """Set each label coordinate c_g, for its pivot row i, to -s_i - sum_t W_it c_t over the row's y and z entries.

    `rows` gives each row's (column, value) nonzeros; the +1 on g is the
    row's only label entry, so this makes row i of W c = -s hold.
    """
    for g, i in pivot_of.items():
        c[g] = -shifts[i] - sum(v * c[t] for t, v in rows[i] if t != g)


def simulate(inst: LadderInstance) -> SimulationReport:
    """Build the chain stage, compute the canonical splitting, recover the colors.

    The kernel of the projection A' -> A is a single integer copy <e> as soon
    as the splitting exists, so it needs no check of its own: W c = -s has an
    integer solution (checked by `IntegerSolutions.check`), hence every
    integer y with y W = 0 has y s = -(y W) c = 0, and no row (0, ..., 0, k)
    with k != 0 lies in the row lattice of [W | -s].

    W c = -s is also the only identity checked after the solve.  With
    delta = -c its row n reads delta(g_n) = delta(y_0) + sum_k mu_k(n)
    delta(z_k) + s_n - p_n delta(y_{n+1}) in subcase i, the identity behind
    query n.  In subcase ii (y_n for y_0, p for p_n) the rows n < t_i summed
    with weights p^n telescope to the block identity for sum_n p^n delta(g_n)
    plus -p^{t_i} delta(y_{t_i}), which is 0 mod p^{t_i}.

    W c = -s always has an integer solution, even with every z and g
    coordinate 0, because each level solves its own rows on its own y
    columns.  In subcase i, row n reads p_n y_{n+1} - y_0 = -s_n, so y_0
    must be s_n mod p_n for every n; the level's primes are distinct, so
    the Chinese remainder theorem gives such a y_0, and then every y_{n+1}.
    In subcase ii, row n reads p y_{n+1} - y_n = -s_n, and the -1 on y_n
    with p on y_{n+1} form a unimodular upper bidiagonal block.  An
    infeasibility answer from the solver is therefore a CertificateError.

    Only the coupled core of W reaches the solver: the label columns are
    eliminated first and lifted after, the step of structured Gaussian
    elimination (LaMacchia and Odlyzko, CRYPTO '90) that needs no pivot
    search here, because each row has one +1 on its label's column and no
    other label entry.  The first row i with label g is g's pivot row, and
    every later row k with label g becomes the core row W_k - W_i, zero on
    every label column, with shift s_k - s_i.  So W c = -s holds exactly
    when the core rows hold on the y and z coordinates and c_g = -s_i -
    sum_t W_it c_t over the y and z entries of each pivot row i.  An L x m
    ladder whose levels share their labels leaves (L - 1) m core rows, an
    independent ladder none.  The core also drops its zero columns, such as
    the y and z columns of levels whose rows are all pivot rows.

    The canonical splitting is the one the whole W gives.  The kernel
    lattice of W is the lift of that of the core (the map c_core -> c is
    injective), and the label columns sort after every y and z column, so
    every pivot of the kernel's Hermite form lies on a y or z column and
    that form is the lift of the core's (both are unique).  A column t that
    is zero on every core row puts e_t in the core's kernel, so its Hermite
    form has the unit row e_t and every other row 0 at t; without the row
    e_t and the column t it is the form of the core without t, and the
    balanced reduction sets c_t to 0.  The reduction reads and reduces only
    pivot coordinates, so it also commutes with the lift.  With no core row
    left, the kernel of the core is every vector, its Hermite form the
    identity, and the reduction gives c_core = 0 with no solver run: every
    y and z coordinate of an independent ladder's splitting is 0, and
    c(g_n) = -s_n.
    """
    problems = validate_instance(inst)
    if problems:
        raise ValueError("invalid instance: " + "; ".join(problems))

    if inst.subcase == "ii":
        thresholds = threshold_exponents(inst.p, inst.r, inst.i_max)
        n_rel_of = lambda lv: thresholds[-1]
        # block_of[n]: the power block i with t_{i-1} <= n < t_i
        block_of = [i for i in range(1, inst.i_max + 1) for _ in range(thresholds[i - 1], thresholds[i])]
    else:
        n_rel_of = lambda lv: len(lv.primes)

    names = _gen_names(inst, n_rel_of)
    index = {g: i for i, g in enumerate(names)}
    levels = sorted(inst.levels, key=lambda l: l.alpha)
    row_tables = []  # the table of each row, read again by that row's query
    rows: list[list[int]] = []
    shifts: list[int] = []
    pivot_of: dict[int, int] = {}  # label column -> its pivot row, the first row with that label
    core: list[list[int]] = []  # each later row less its label's pivot row
    core_shifts: list[int] = []
    for lv in levels:
        n_rel = n_rel_of(lv)
        for n in range(n_rel):
            row = [0] * len(names)
            if inst.subcase == "i":
                prime = lv.primes[n]
                row[index[f"y:{lv.alpha}:{n + 1}"]] += prime
                row[index[f"y:{lv.alpha}:0"]] -= 1
                tab = prime_table(prime, tuple(lv.mu[k][n] for k in range(inst.r)))
                shift = tab.shift[lv.colors[n]]
            else:
                row[index[f"y:{lv.alpha}:{n + 1}"]] += inst.p
                row[index[f"y:{lv.alpha}:{n}"]] -= 1
                block = block_of[n]
                tab = power_table(inst.p, block, thresholds, lv.mu)
                shift = tab.digits[lv.colors[block - 1]][n - thresholds[block - 1]]
            row_tables.append(tab)
            for k in range(inst.r):
                row[index[f"z:{lv.alpha}:{k + 1}"]] -= lv.mu[k][n]
            g = index[f"g:{lv.g_labels[n]}"]
            row[g] += 1
            i = pivot_of.setdefault(g, len(rows))
            if i < len(rows):
                core.append([v - x for v, x in zip(row, rows[i])])
                core_shifts.append(shift - shifts[i])
            rows.append(row)
            shifts.append(shift)

    # every entry is already an int, so skip the conversion in from_rows
    w = IntMatrix(tuple(map(tuple, rows)))
    w_rows = _sparse_rows(w.entries)
    core_cols = [t for t in range(w.cols) if any(row[t] for row in core)]
    c_vec = [0] * w.cols
    if core:
        a = IntMatrix(tuple(tuple(row[t] for t in core_cols) for row in core))
        sols = integer_solutions(a, [-s for s in core_shifts])
        if isinstance(sols.solution, InfeasibilityCertificate):
            raise CertificateError("the solver reports W c = -s infeasible, yet every level solves its own rows")
        kh, _ = hnf(sols.kernel)
        for t, v in zip(core_cols, reduce_mod_lattice(sols.solution, kh, balanced=True)):
            c_vec[t] = v
    _lift(c_vec, pivot_of, w_rows, shifts)
    splitting_ok = all(sum(v * c_vec[t] for t, v in row) == -s for row, s in zip(w_rows, shifts))

    delta = {g: -c_vec[index[g]] for g in names}

    level_reports = []
    start = 0
    for lv in levels:
        n_rel = n_rel_of(lv)
        lv_tables = row_tables[start:start + n_rel]
        start += n_rel
        d_y0 = delta[f"y:{lv.alpha}:0"]
        d_z = tuple(delta[f"z:{lv.alpha}:{k + 1}"] for k in range(inst.r))
        magnitude = max(map(abs, (d_y0, *d_z)))
        queries = []
        if inst.subcase == "i":
            oks = []
            for n, tab in enumerate(lv_tables):
                h_bit = tab.value(delta[f"g:{lv.g_labels[n]}"])
                oks.append(magnitude <= tab.t_bound)
                queries.append(
                    {
                        "n": n,
                        "w": {"mu": list(tab.mu), "p": tab.p, "g": lv.g_labels[n]},
                        "H": h_bit,
                        "c": lv.colors[n],
                        "match": h_bit == lv.colors[n],
                    }
                )
        else:
            # each block reads its table at the block sum of delta over its g labels
            for i_blk in range(1, inst.i_max + 1):
                t_i = thresholds[i_blk]
                block_sum = sum(inst.p ** n * delta[f"g:{lv.g_labels[n]}"] for n in range(t_i))
                # row t_i - 1 is the last of block i_blk
                h_bit = lv_tables[t_i - 1].value(block_sum)
                queries.append(
                    {
                        "n": i_blk - 1,
                        "w": {
                            "mu": [list(row[:t_i]) for row in lv.mu],
                            "g": list(lv.g_labels[:t_i]),
                        },
                        "H": h_bit,
                        "c": lv.colors[i_blk - 1],
                        "match": h_bit == lv.colors[i_blk - 1],
                    }
                )
            oks = [magnitude <= inst.p ** thresholds[m] for m in range(inst.i_max)]
        # n0: the start of the final run of queries whose magnitudes are in bounds
        n0 = len(oks)
        while n0 and oks[n0 - 1]:
            n0 -= 1
        level_reports.append(
            LevelReport(alpha=lv.alpha, n0=n0, queries=tuple(queries), delta_y0=d_y0, delta_z=d_z)
        )

    chain = ChainState(
        generators=tuple(names),
        relations=w,
        shift_coefficients=tuple(shifts),
        splitting={g: c_vec[index[g]] for g in names},
    )
    return SimulationReport(
        subcase=inst.subcase,
        levels=tuple(level_reports),
        chain=chain,
        checks={"projection_splitting_identity": splitting_ok},
        table_keys=tuple(sorted({tab.key for tab in row_tables})),
    )
