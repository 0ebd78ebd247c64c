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

Y is the interval sum [-t, t] + sum_k mu_k [-t, t] (or [-P, 2P-1] + ...,
P = p^{t_{i-1}}), built one coefficient at a time on merged segments, so
both builders and the exhaustive checks run on interval sets, by segments
rather than by elements or coefficient vectors; moduli like 2^23, 3^54 and
2^127 - 1 stay cheap.  Y - Y is an interval sum of the same shape, the
base's difference set plus sum_k mu_k [-2t, 2t] (a sumset identity), so
one step, `_separation`, builds Y, Y - Y and b for both builders.  Y - Y
has at most (4t+1)^r segments where Y has (2t+1)^r, and costs about what
Y costs; listing every pair of Y's segments cost the square of Y's count.

`simulate` realizes the chain construction at finite truncation: a base
presentation A from the ladder relations, a primed copy A' whose relations
add table shifts times a distinguished generator e, the canonical section
psi (generator-wise priming), and a computed splitting rho with pi*rho = id.
Writing rho(x) = x' + c_x*e reduces the splitting to one integer linear
system W c = -a over the relation matrix W.  Its solutions are read off its
structure, with no general solver: each row decides one column; the
particular solution, the kernel lift and the label lift are substitution
along those columns.  The kernel of the coupled core is the graph of a
congruence lattice, whose Hermite form picks the canonical splitting.  The
recovered bits H(w) then match the input coloring at every index past the
reported magnitude threshold n0.  The report holds A as a checked
`abelian.Presentation`.

The generators are laid out level by level in increasing alpha, each
level as z_1..z_r then y_0..y_top, and then the labels g, sorted.  The z
and y columns come first because the kernel of W projects onto their
coordinates: the balanced reduction of the splitting zeroes them whenever
the base elements leave enough freedom, which keeps the reported
thresholds small.  Every column is computed from the level sizes; the
names are written once, for the output.
"""

from __future__ import annotations

import bisect
import math
from typing import Mapping, Sequence

from .abelian import (
    CertificateError,
    IntMatrix,
    Presentation,
    add_multiple,
    hnf,
    is_prime,
    reduce_mod_lattice,
)
from .record import record

MAX_PIECES = 2 ** 18  # per coefficient of an interval sum; the tests and golden cases need at most 77,933


@record
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
        return cls(modulus, tuple(_merged(pieces)))

    def contains(self, x: int) -> bool:
        x %= self.modulus
        idx = bisect.bisect_right(self.segments, (x, self.modulus)) - 1
        return idx >= 0 and self.segments[idx][0] <= x <= self.segments[idx][1]

    def shift(self, b: int) -> "IntervalSet":
        return IntervalSet.from_raw([(lo + b, hi + b) for lo, hi in self.segments], self.modulus)

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


def _merged(pieces) -> list[tuple[int, int]]:
    """The integer segments [lo, hi] of `pieces` in order, those that overlap or touch joined."""
    merged: list[list[int]] = []
    for lo, hi in sorted(pieces):
        if merged and lo <= merged[-1][1] + 1:
            merged[-1][1] = max(merged[-1][1], hi)
        else:
            merged.append([lo, hi])
    return [(a, b) for a, b in merged]


def _interval_sum(base: tuple[int, int], t: int, coeffs: Sequence[int], modulus: int) -> list[tuple[int, int]]:
    """Integer segments whose residues mod modulus are those of base + sum_k coeffs[k] * [-t, t].

    One coefficient at a time, as its balanced residue s' mod modulus, with
    s = |s'|: the copies of a segment of L integers translated by m s, m in
    [-t, t], overlap or touch when s <= L, and so make one segment; else
    they stay 2t+1 segments.  So the work grows with the segments, not with
    the (2t+1)^r coefficient vectors; more than MAX_PIECES pieces is a ValueError.
    """
    segments = [base]
    for c in coeffs:
        s = abs((c + modulus // 2) % modulus - modulus // 2)
        count = sum(1 if s <= hi - lo + 1 else 2 * t + 1 for lo, hi in segments)
        if count > MAX_PIECES:
            raise ValueError(f"the residue table needs {count:,} interval pieces, over the bound of {MAX_PIECES:,}")
        pieces = []
        for lo, hi in segments:
            if s <= hi - lo + 1:
                pieces.append((lo - t * s, hi + t * s))
            else:
                pieces += [(lo + m * s, hi + m * s) for m in range(-t, t + 1)]
        segments = _merged(pieces)
    return segments


def _separation(
    base: tuple[int, int], t: int, coeffs: Sequence[int], modulus: int, stride: int, what: str
) -> tuple[IntervalSet, int, IntervalSet]:
    """(Y, b, b + Y) for Y = base + sum_k coeffs[k] * [-t, t] mod modulus and b the least multiple of stride outside Y - Y.

    Y - Y is the interval sum (base - base) + sum_k coeffs[k] * [-2t, 2t],
    built as Y is, so it costs about what Y costs, not a pass over every
    pair of Y's segments.  The certificate reads Y and b + Y alone: it raises
    CertificateError unless they are disjoint and stride divides b.
    """
    lo, hi = base
    y = IntervalSet.from_raw(_interval_sum(base, t, coeffs, modulus), modulus)
    diffs = IntervalSet.from_raw(_interval_sum((lo - hi, hi - lo), 2 * t, coeffs, modulus), modulus)
    b = diffs.least_uncovered_multiple(stride)
    if b is None:
        raise ValueError("difference set covers every candidate shift")
    one = y.shift(b)
    if not y.disjoint_from(one) or b % stride:
        raise CertificateError(f"{what}: shift {b} is not a disjoint multiple of {stride}")
    return y, b, one


def max_magnitude_bound(p: int, r: int) -> int:
    """Largest t with (2t+1)^(2r+2) < p; requires p >= 2 so t = 0 always works.

    That is t = (s - 1) // 2 for s the largest integer with s^k <= p - 1,
    k = 2r + 2: the largest odd number up to s is 2t + 1.  Newton's method
    on integers, started above the root, descends to s and stops there, in
    a number of steps that grows with the bit length of p, not with t.
    """
    if p < 2:
        raise ValueError(f"modulus base must be at least 2, got {p}")
    k, n = 2 * r + 2, p - 1
    s = 1 << -(-n.bit_length() // k)  # 2^ceil(bits / k) > n^(1/k)
    while (below := ((k - 1) * s + n // s ** (k - 1)) // k) < s:
        s = below
    return (s - 1) // 2


@record
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
        return 1 if self.one_class.contains(residue) else 0

    @property
    def key(self):
        return ("prime", self.p, self.mu)


_prime_cache: dict = {}


def prime_table(p: int, mu: Sequence[int] = ()) -> PrimeTable:
    """Separation table mod p for base values m_0 + sum mu_k * m_k, |m_k| <= t_p."""
    key = (p, tuple(int(v) for v in mu))
    if key in _prime_cache:
        return _prime_cache[key]
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    r = len(mu)
    t = max_magnitude_bound(p, r)
    y, b, one = _separation((-t, t), t, key[1], p, 1, f"prime table mod {p}")
    table = PrimeTable(p=p, r=r, mu=key[1], t_bound=t, shift=(0, b), zero_class=y, one_class=one)
    _prime_cache[key] = table
    return table


def threshold_exponents(p: int, r: int, i_max: int) -> tuple[int, ...]:
    """Cumulative exponents t_0 = 0 < t_1 < ... < t_{i_max}.

    Each step d_i is the least positive d with
    (2*p^{t_{i-1}} + 1)^(2r+2) * p^(2*t_{i-1}) < p^d (strict).
    """
    if p < 2:
        raise ValueError(f"base must be at least 2, got {p}")
    ts = [0]
    for _ in range(i_max):
        prev = ts[-1]
        lhs = (2 * p ** prev + 1) ** (2 * r + 2) * p ** (2 * prev)
        # start near log_p(lhs), then step by exact comparisons to the least d
        d = max(1, int((lhs.bit_length() - 1) / math.log2(p)))
        power = p ** d
        while power <= lhs:
            power *= p
            d += 1
        while d > 1 and power // p > lhs:
            power //= p
            d -= 1
        ts.append(prev + d)
    return tuple(ts)


@record
class PowerTable:
    """Two-class residue table mod p^{t_i}; class-1 shift has digits in [t_{i-1}, t_i)."""

    p: int
    r: int
    i: int
    t_prev: int
    t_cur: int
    mu: tuple[tuple[int, ...], ...]
    shift: tuple[int, int]
    zero_class: IntervalSet
    one_class: IntervalSet

    def value(self, residue: int) -> int:
        return 1 if self.one_class.contains(residue) else 0

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
        raise ValueError(f"block index {i} outside supplied thresholds")
    if p < 2:
        raise ValueError(f"base must be at least 2, got {p}")
    t_prev, t_cur = thresholds[i - 1], thresholds[i]
    mu_cut = tuple(tuple(int(v) for v in row[:t_cur]) for row in mu)
    if any(len(row) < t_cur for row in mu_cut):
        raise ValueError(f"mu rows must supply at least t_{i} = {t_cur} values")
    cache_key = ("power", p, i, t_prev, t_cur, mu_cut)
    if cache_key in _power_cache:
        return _power_cache[cache_key]
    r = len(mu_cut)
    modulus = p ** t_cur
    big_p = p ** t_prev
    coeffs = [sum(p ** j * row[j] for j in range(t_cur)) for row in mu_cut]
    y, b, one = _separation((-big_p, 2 * big_p - 1), big_p, coeffs, modulus, big_p, f"power table mod {p}^{t_cur}")
    # b is a multiple of p^{t_{i-1}}, so below p^{t_i} its digits lie in [t_{i-1}, t_i)
    if b >= modulus:
        raise CertificateError(f"power table mod {p}^{t_cur}: shift {b} has more than {t_cur - t_prev} digits")
    table = PowerTable(p=p, r=r, i=i, t_prev=t_prev, t_cur=t_cur, mu=mu_cut, shift=(0, b), zero_class=y, one_class=one)
    _power_cache[cache_key] = table
    return table


# --- chain simulation --------------------------------------------------------


@record
class LadderLevel:
    alpha: int
    ladder: tuple[int, ...]
    colors: tuple[int, ...]
    g_labels: tuple[str, ...]
    mu: tuple[tuple[int, ...], ...] = ()
    primes: tuple[int, ...] | None = None


@record
class LadderInstance:
    subcase: str  # "i" (distinct primes) or "ii" (fixed prime power blocks)
    r: int
    levels: tuple[LadderLevel, ...]
    p: int | None = None
    i_max: int | None = None


def _reachable_thresholds(inst: LadderInstance) -> tuple[int, ...]:
    """t_0, ..., t_{i_max}, cut after the first t_i above every level's label count (t_0 alone with no level)."""
    # each level needs t_{i_max} labels, so a cut instance is invalid; t_i
    # grows about fivefold a step, so this stays near the labels supplied
    longest = max((len(lv.g_labels) for lv in inst.levels), default=-1)
    thresholds = (0,)
    while len(thresholds) <= inst.i_max and thresholds[-1] <= longest:
        thresholds = threshold_exponents(inst.p, inst.r, len(thresholds))
    return thresholds


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
        # t_1 alone grows with r, so no threshold is computed for an r that
        # some level does not back with its mu rows
        if all(len(lv.mu) == inst.r for lv in inst.levels):
            thresholds = _reachable_thresholds(inst)
            n_rel = thresholds[-1]
            need = str(n_rel) if len(thresholds) > inst.i_max else f"at least {n_rel}"
        else:
            n_rel = None
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
            if n_rel is not None and len(lv.g_labels) != n_rel:
                out.append(f"{tag}: needs {need} base elements, got {len(lv.g_labels)}")
            if len(lv.ladder) != inst.i_max or len(lv.colors) != inst.i_max:
                out.append(f"{tag}: ladder and colors must have length i_max = {inst.i_max}")
            if n_rel is not None and any(len(row) < n_rel for row in lv.mu):
                out.append(f"{tag}: mu rows must supply {need} values")
    return out


@record
class LevelReport:
    alpha: int
    n0: int
    queries: tuple[dict, ...]
    delta_y0: int
    delta_z: tuple[int, ...]

    @property
    def matches_from_n0(self) -> bool:
        return all(q["match"] for q in self.queries if q["n"] >= self.n0)


@record
class SimulationReport:
    subcase: str
    levels: tuple[LevelReport, ...]
    chain: Presentation                  # A: the generators and W's rows
    shift_coefficients: tuple[int, ...]  # e-coefficient removed from each primed relation
    splitting: Mapping[str, int]         # c_x with rho(x) = x' + c_x * e
    checks: Mapping[str, bool]
    table_keys: tuple[tuple, ...]

    @property
    def ok(self) -> bool:
        return all(self.checks.values()) and all(lv.matches_from_n0 for lv in self.levels)


def _ladder_rows(inst: LadderInstance, levels: Sequence[LadderLevel], thresholds: Sequence[int]):
    """W's rows on the generator layout of the module docstring, and what each row carries besides.

    `levels` is sorted by alpha.  Returns (names, rows, shifts, decided,
    labels, row_tables, y0s): the generator names; per row its {column:
    nonzero entry}, its shift, the y column it decides (p_n on y_{n+1} in
    subcase i, -1 on y_n in ii), its label column and its table; and each
    level's y_0 column, which its z_1..z_r columns precede.  Subcase ii
    fetches each level's power table once per block, not once per row, and
    gives the block's rows the base-p digits of the block's shift over
    p^{t_{i-1}}, lowest first.
    """
    r = inst.r
    n_rels = [len(lv.primes) if inst.subcase == "i" else thresholds[-1] for lv in levels]
    y0s, width = [], 0
    for n_rel in n_rels:
        y0s.append(width + r)
        width += r + n_rel + 1
    label_names = sorted({g for lv in levels for g in lv.g_labels})
    label_col = {g: width + k for k, g in enumerate(label_names)}
    names, rows, shifts, decided, labels, row_tables = [], [], [], [], [], []
    for lv, n_rel, y0 in zip(levels, n_rels, y0s):
        names += [f"z:{lv.alpha}:{k}" for k in range(1, r + 1)]
        names += [f"y:{lv.alpha}:{n}" for n in range(n_rel + 1)]
        mu_at = list(zip(*lv.mu)) if r else [()] * n_rel  # mu_at[n]: (mu_1(n), ..., mu_r(n))
        if inst.subcase == "i":
            tables = [prime_table(prime, mu_at[n]) for n, prime in enumerate(lv.primes)]
            shifts += [tab.shift[color] for tab, color in zip(tables, lv.colors)]
            level_rows = [{y0 + n + 1: prime, y0: -1} for n, prime in enumerate(lv.primes)]
            decided += range(y0 + 1, y0 + n_rel + 1)
        else:
            tables = []
            for block in range(1, len(thresholds)):
                tab = power_table(inst.p, block, thresholds, lv.mu)
                tables += [tab] * (tab.t_cur - tab.t_prev)
                v = tab.shift[lv.colors[block - 1]] // inst.p ** tab.t_prev
                for _ in range(tab.t_cur - tab.t_prev):
                    v, digit = divmod(v, inst.p)
                    shifts.append(digit)
            level_rows = [{y0 + n + 1: inst.p, y0 + n: -1} for n in range(n_rel)]
            decided += range(y0, y0 + n_rel)
        for row, mu_n, g in zip(level_rows, mu_at, lv.g_labels):
            for k, v in enumerate(mu_n):
                if v:
                    row[y0 - r + k] = -v
            row[label_col[g]] = 1
            labels.append(label_col[g])
        rows += level_rows
        row_tables += tables
    names += [f"g:{g}" for g in label_names]
    return names, rows, shifts, decided, labels, row_tables, y0s


def _substitute(x: list[int], rows: Sequence[Mapping[int, int]], decided: Sequence[int], rhs: Sequence[int]) -> None:
    """Set x[t] = (b - sum of v x[c] over the row's other entries v at c) // row[t], row by row in order.

    Row j decides column t = decided[j] with right side b = rhs[j].  The
    division is exact when row j . x = b has an integer solution in x[t];
    the callers check what they solve, so nothing is checked here.
    """
    for row, t, b in zip(rows, decided, rhs):
        x[t] = (b - sum(v * x[c] for c, v in row.items() if c != t)) // row[t]


def _particular(inst: LadderInstance, levels, y0s: Sequence[int], width: int, rows, decided, shifts: Sequence[int]) -> list[int]:
    """A solution of W c = -s with every z and g coordinate 0, by substitution along each row's decided y column.

    Subcase i: y_0 is s_n mod p_n for every n (Chinese remainder theorem over
    the level's distinct primes), then row n decides y_{n+1} = (y_0 - s_n) / p_n.
    Subcase ii: y_top = 0, then the rows from the top down decide
    y_n = p y_{n+1} + s_n.
    """
    c = [0] * width
    order = slice(None) if inst.subcase == "i" else slice(None, None, -1)  # subcase ii: from the top row down
    if inst.subcase == "i":
        rest = iter(shifts)  # zip takes one shift per prime, so each level takes its own rows' shifts
        for lv, column in zip(levels, y0s):
            y0, modulus = 0, 1
            for p, sn in zip(lv.primes, rest):
                y0 += modulus * ((sn - y0) * pow(modulus, -1, p) % p)
                modulus *= p
            c[column] = y0
    _substitute(c, rows[order], decided[order], [-s for s in shifts[order]])
    return c


def _lattice_index(rows: Sequence[Mapping[int, int]], decided: Sequence[int]) -> int:
    """[Z^F : L] for L the projection of the kernel of `rows` on the F columns no row decides.

    Row j decides column decided[j].  Raises CertificateError unless the
    decided block is unit triangular (each decided entry +-1 and zero on
    every earlier row), where every x on the other columns lifts and L =
    Z^F, or diagonal (each decided column zero on every other row), where L
    = {x : row_j . x = 0 mod p_j} for p_j the prime row j holds on its
    decided column.  For each prime p, L contains p Z^F on the rows with
    that prime, with quotient the null space mod p of their forms, so the
    index is the product over p of p^(rank mod p of those forms).
    """
    holders: dict[int, list[int]] = {}
    for j, row in enumerate(rows):
        for t in row:
            holders.setdefault(t, []).append(j)
    if all(abs(row[t]) == 1 and holders[t][0] == j for j, (row, t) in enumerate(zip(rows, decided))):
        return 1
    if any(holders[t] != [j] for j, t in enumerate(decided)):
        raise CertificateError("the decided block of the ladder core is neither unit triangular nor diagonal")
    forms: dict[int, list[dict[int, int]]] = {}
    for row, t in zip(rows, decided):
        p = abs(row[t])
        forms.setdefault(p, []).append({c: v % p for c, v in row.items() if c != t and v % p})
    index = 1
    for p, fs in forms.items():
        reduced: dict[int, dict[int, int]] = {}  # pivot column -> a form that is 1 there and 0 left of it
        for f in fs:
            while f:
                c = min(f)
                if c not in reduced:
                    inv = pow(f[c], -1, p)
                    reduced[c] = {k: v * inv % p for k, v in f.items()}
                    break
                x = f[c]
                for k, v in reduced[c].items():
                    f[k] = (f.get(k, 0) - x * v) % p
                    if not f[k]:
                        del f[k]
        index *= p ** len(reduced)
    return index


def _lattice_basis(forms: Sequence[tuple[Mapping[int, int], int]], size: int) -> list[dict[int, int]]:
    """Upper triangular basis of L = {x in Z^size : f . x = 0 mod p for every (f, p) in forms}, as sparse vectors.

    Vector k is a {position: nonzero entry} map.  One step per form, each of
    index p or 1: the pivot is the last basis vector whose value f . b is
    nonzero mod p; the earlier vectors lose their values by subtracting
    multiples of it, and it is multiplied by p.  Only earlier vectors change,
    by a multiple of a later one, so the basis stays upper triangular, and
    each pivot step multiplies one diagonal entry by p.  A position -> vectors
    index gives the vectors that meet a form, the only ones whose value can
    be nonzero, and a subtraction touches the pivot's support alone.
    """
    basis = [{k: 1} for k in range(size)]
    holders = [{k} for k in range(size)]  # position -> the vectors nonzero there
    for form, p in forms:
        values: dict[int, int] = {}
        for i, v in form.items():
            for k in holders[i]:
                values[k] = values.get(k, 0) + v * basis[k][i]
        values = {k: x % p for k, x in values.items() if x % p}
        if not values:
            continue
        piv = max(values)
        inv = pow(values.pop(piv), -1, p)
        bp = basis[piv]
        for k, x in values.items():
            b = basis[k]
            add_multiple(b, bp, -(x * inv % p))
            for i in bp:
                if i in b:
                    holders[i].add(k)
                else:
                    holders[i].discard(k)
        basis[piv] = {i: p * y for i, y in bp.items()}
    return basis


def _canonical_solution(
    rows: Sequence[Mapping[int, int]], decided: Sequence[int], shifts: Sequence[int], particular: Sequence[int]
) -> tuple[int, ...]:
    """The balanced representative of the solutions x of row_j . x = -s_j, from the kernel's lattice.

    `rows` map columns below `len(particular)` to their nonzero entries, row
    j decides column decided[j] (see `_lattice_index`), and `particular` is
    one solution.  The kernel is the graph of the lattice L on the other
    columns: each vector of `_lattice_basis`, set on those columns, gets its
    decided coordinates by substitution with right side 0, and the Hermite
    form of these rows reduces `particular`.  Raises CertificateError unless
    the lifted rows are in the kernel, their free part B is upper triangular
    with a positive diagonal whose product is [Z^F : L], and `particular`
    solves every row.
    """
    width = len(particular)
    decided_set = set(decided)
    free = [t for t in range(width) if t not in decided_set]
    position = {t: k for k, t in enumerate(free)}
    forms = [({position[c]: v for c, v in row.items() if c in position}, abs(row[t])) for row, t in zip(rows, decided)]
    forms = [(f, p) for f, p in forms if p > 1]
    no_rhs = [0] * len(rows)
    kernel = []
    diagonal = 1
    for k, b in enumerate(_lattice_basis(forms, len(free))):
        x = [0] * width
        for i, v in b.items():
            x[free[i]] = v
        _substitute(x, rows, decided, no_rhs)
        if any(sum(v * x[c] for c, v in row.items()) for row in rows):
            raise CertificateError(f"lifted lattice basis row {k} is not in the kernel of the ladder core")
        if b.get(k, 0) <= 0 or any(v for i, v in b.items() if i < k):
            raise CertificateError("the lattice basis is not upper triangular with a positive diagonal")
        diagonal *= b[k]
        kernel.append(tuple(x))
    index = _lattice_index(rows, decided)
    if diagonal != index:
        raise CertificateError(f"the lattice basis has index {diagonal}, the congruences {index}")
    for j, (row, s) in enumerate(zip(rows, shifts)):
        if sum(v * particular[c] for c, v in row.items()) != -s:
            raise CertificateError(f"the particular solution fails ladder core row {j}")
    h, _ = hnf(IntMatrix(tuple(kernel)))
    return reduce_mod_lattice(particular, h)


def simulate(inst: LadderInstance) -> SimulationReport:
    """Build the chain stage, compute the canonical splitting, recover the colors.

    The kernel of the projection A' -> A is a single integer copy <e> as soon
    as the splitting exists, so it needs no check of its own: W c = -s has an
    integer solution (built below and checked), hence every integer y with
    y W = 0 has y s = -(y W) c = 0, and no row (0, ..., 0, k) with k != 0
    lies in the row lattice of [W | -s].

    W c = -s is also the only identity checked after the solve.  With
    delta = -c its row n reads delta(g_n) = delta(y_0) + sum_k mu_k(n)
    delta(z_k) + s_n - p_n delta(y_{n+1}) in subcase i, the identity behind
    query n.  In subcase ii (y_n for y_0, p for p_n) the rows n < t_i summed
    with weights p^n telescope to the block identity for sum_n p^n delta(g_n)
    plus -p^{t_i} delta(y_{t_i}), which is 0 mod p^{t_i}.

    Each row decides one column: in subcase i row n holds p_n on its top
    column y_{n+1}, which no other row holds; in subcase ii it holds -1 on
    y_n; and each label's pivot row (below) holds +1 on its label column.
    The particular solution, the kernel lift and the label lift are
    substitution along those columns: `_substitute` takes rows in order and
    sets each one's decided coordinate from the others by one division.

    W c = -s always has an integer solution, even with every z and g
    coordinate 0, because each level solves its own rows on its own y
    columns.  In subcase i, row n reads p_n y_{n+1} - y_0 = -s_n, so y_0
    must be s_n mod p_n for every n; the level's primes are distinct, so
    the Chinese remainder theorem gives such a y_0, and substitution every
    y_{n+1}.  In subcase ii, row n reads p y_{n+1} - y_n = -s_n: with
    y_top = 0, substitution from the top row down gives every y_n.
    `_particular` builds this solution, so no solver is asked whether one
    exists.

    Once W c = -s holds, no query from n0 on can miss, so `ok` is false only
    when that check fails, a fault of this program, which `unif-sim` reports
    with exit 1 and the splitting that failed.  In subcase i row n reads
    delta(g_n) = s_n + x mod p_n, x = delta(y_0) + sum_k mu_k(n) delta(z_k).
    From n0 on, |delta(y_0)| and every |delta(z_k)| are within the row
    table's t_bound, so x is in its Y (m_0 = delta(y_0), m_k = delta(z_k)),
    and delta(g_n) is in shift[c_n] + Y, which the table keeps apart from
    the other class.  In subcase ii the block identity gives the block sum
    as delta(y_0) + sum_k M_k delta(z_k) + sum_{n < t_i} p^n s_n mod
    p^{t_i}, M_k the table's coefficient.  The rows of block i add
    shift[c_i]; the earlier rows' shifts are digits, so they add a value in
    [0, p^{t_{i-1}}), the digit part of Y.  With every magnitude within
    p^{t_{i-1}}, the block sum is in shift[c_i] + Y.

    Only the coupled core of W is solved: the label columns are eliminated
    first and lifted after, the step of structured Gaussian elimination
    (LaMacchia and Odlyzko, CRYPTO '90) that needs no pivot search here,
    because each row has one +1 on its label's column and no other label
    entry.  The first row i with label g is g's pivot row, and every later
    row k with label g becomes the core row W_k - W_i, zero on every label
    column, with shift s_k - s_i.  So W c = -s holds exactly when the core
    rows hold on the y and z coordinates and each pivot row i then decides
    c_g = -s_i - sum_t W_it c_t over its y and z entries.  An L x m ladder
    whose levels share their labels leaves (L - 1) m core rows, an
    independent ladder none.  The core also drops its zero columns, such as
    the y and z columns of levels whose rows are all pivot rows.

    Each core row decides one column of its own too, so the core's kernel
    is the graph of a lattice and needs no general solver either (Cohen,
    GTM 138, 2.4, for Hermite forms of Z-modules).  In subcase i the core
    row W_k - W_i still decides the top column y_{n+1} of row k, which no
    other row of W holds, since a core row is never a pivot row.  The
    kernel is then the graph of L = {x : row_j . x = 0 mod p_j} on the F
    other columns: each x in L takes one integer value on the decided
    columns.  `_lattice_basis` builds an upper triangular basis B of L by
    one index-p step per core row, and substitution with right side 0
    lifts it.  In subcase ii a core row can hold -(1 + p) on y_n, when the
    label's pivot row is the row just below it, so there the label columns
    are eliminated only where no other row holds them.  The rows whose label
    another row shares are solved as they stand, each level's top row
    first, each deciding its y_n by the -1 there; their decided block is
    unit triangular, so L = Z^F and B = I.  Solving all of W instead would
    carry every label that only one row holds into the kernel basis and its
    Hermite form.  Subcase i subtracts pivot rows for speed alone: solving
    its shared-label rows as they stand, as subcase ii does, leaves their
    label columns in the core, and gave the same golden bytes in 0.233 s,
    not 0.011 s, on shared 16 x 8 at r = 0; 2.6 s, not 0.033 s, on 32 x 8;
    66 s, not 0.115 s, on 64 x 8; 39 ms, not 21 ms, on the benchmark's 48
    `ladder-shared` ladders (2-core x86-64, CPython 3.11, one run each).

    The lifted rows K span the whole kernel, which `_canonical_solution`
    certifies before it uses them (each check raises CertificateError, also
    under `python -O`).  Every row of K is in the kernel (core K^T = 0), so
    B lies in L.  B is upper triangular with a positive diagonal, so its
    rows are independent and span a sublattice of index prod diag(B) in
    Z^F.  That product equals [Z^F : L], which `_lattice_index` computes
    from ranks mod each prime (or as 1 for a unit block) after checking
    that the decided block is diagonal or unit triangular; so B spans L.
    The kernel projects onto the free columns injectively with image L, so
    K spans the kernel.  The particular solution is checked against the
    core rows.  `hnf` of K is the kernel's Hermite form, and the balanced
    reduction of the particular solution against it is the core's
    canonical solution.

    The canonical splitting is the one the whole W gives.  The kernel
    lattice of W is the lift of that of the core: the map c_core -> c is
    injective, and each eliminated label coordinate is a combination of y
    and z coordinates, which sort before every label column.  So a lifted
    vector's first nonzero is its core vector's, the lift of the core
    kernel's Hermite form is in Hermite form with its pivots on core
    columns, and it is the kernel's form (both are unique).  A column t
    that is zero on every core row puts e_t in the core's kernel, so its
    Hermite form has the unit row e_t and every other row 0 at t; without
    the row e_t and the column t it is the form of the core without t, and
    the balanced reduction sets c_t to 0.  The reduction reads and reduces
    only pivot coordinates, so it also commutes with the lift.  With no
    core row left, the kernel of the core is every vector, its Hermite form
    the identity, and the reduction gives c_core = 0 with nothing solved:
    every y and z coordinate of an independent ladder's splitting is 0, and
    c(g_n) = -s_n.
    """
    problems = validate_instance(inst)
    if problems:
        raise ValueError("invalid instance: " + "; ".join(problems))

    levels = sorted(inst.levels, key=lambda l: l.alpha)
    thresholds = _reachable_thresholds(inst) if inst.subcase == "ii" else ()
    names, rows, shifts, decides, labels, row_tables, y0s = _ladder_rows(inst, levels, thresholds)
    pivot_of: dict[int, int] = {}  # label column -> its pivot row, the first row with that label
    for k, g in enumerate(labels):
        pivot_of.setdefault(g, k)

    later = [(k, pivot_of[g]) for k, g in enumerate(labels) if pivot_of[g] != k]
    if inst.subcase == "i":
        # (row, shift, decided column) of each later row less its label's pivot row, zero entries dropped
        core = []
        for k, i in later:
            row = {t: rows[k].get(t, 0) - rows[i].get(t, 0) for t in rows[k].keys() | rows[i].keys()}
            core.append(({t: v for t, v in row.items() if v}, shifts[k] - shifts[i], decides[k]))
    else:
        # every row whose label another row shares, each level's top row first
        shared = {labels[k] for k, _ in later}
        core = [(rows[k], shifts[k], decides[k]) for k in reversed(range(len(rows))) if labels[k] in shared]
    c_vec = [0] * len(names)
    if core:
        cols = sorted({t for row, _, _ in core for t in row})
        position = {t: j for j, t in enumerate(cols)}
        particular = _particular(inst, levels, y0s, len(names), rows, decides, shifts)
        solution = _canonical_solution(
            [{position[t]: v for t, v in row.items()} for row, _, _ in core],
            [position[t] for _, _, t in core],
            [s for _, s, _ in core],
            [particular[t] for t in cols],
        )
        for t, v in zip(cols, solution):
            c_vec[t] = v
    # each label's pivot row decides its label column by the +1 there
    pivots = list(pivot_of.values())
    _substitute(c_vec, [rows[i] for i in pivots], list(pivot_of), [-shifts[i] for i in pivots])
    splitting_ok = all(sum(v * c_vec[t] for t, v in row.items()) == -s for row, s in zip(rows, shifts))

    level_reports = []
    first = 0  # the level's first row
    for lv, y0 in zip(levels, y0s):
        d_y0 = -c_vec[y0]
        d_z = tuple(-c_vec[t] for t in range(y0 - inst.r, y0))
        magnitude = max(map(abs, (d_y0, *d_z)))
        queries = []
        if inst.subcase == "i":
            oks = []
            for n, g in enumerate(lv.g_labels):
                tab = row_tables[first + n]
                h_bit = tab.value(-c_vec[labels[first + n]])
                oks.append(magnitude <= tab.t_bound)
                queries.append(
                    {
                        "n": n,
                        "w": {"mu": list(tab.mu), "p": tab.p, "g": g},
                        "H": h_bit,
                        "c": lv.colors[n],
                        "match": h_bit == lv.colors[n],
                    }
                )
        else:
            # each block reads its table at the block sum of delta over its g labels
            block_sum, power = 0, 1
            for i_blk in range(1, inst.i_max + 1):
                t_i = thresholds[i_blk]
                for n in range(thresholds[i_blk - 1], t_i):
                    block_sum -= power * c_vec[labels[first + n]]
                    power *= inst.p
                # row t_i - 1 is the last of block i_blk
                h_bit = row_tables[first + t_i - 1].value(block_sum)
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
        first += len(lv.g_labels)
        # n0: the start of the final run of queries whose magnitudes are in bounds
        n0 = len(oks)
        while n0 and oks[n0 - 1]:
            n0 -= 1
        level_reports.append(
            LevelReport(alpha=lv.alpha, n0=n0, queries=tuple(queries), delta_y0=d_y0, delta_z=d_z)
        )

    return SimulationReport(
        subcase=inst.subcase,
        levels=tuple(level_reports),
        chain=Presentation(tuple(names), tuple(rows)),
        shift_coefficients=tuple(shifts),
        splitting=dict(zip(names, c_vec)),
        checks={"projection_splitting_identity": splitting_ok},
        table_keys=tuple(sorted({tab.key for tab in row_tables})),
    )
