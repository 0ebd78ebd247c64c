"""Exact linear algebra: normal forms, integer solving, chain-group diagnostics."""

import itertools
import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from helpers import mat_vec

from lamsys import abelian
from lamsys.abelian import (
    CertificateError,
    DivisibilityReport,
    DivisibilityStep,
    InfeasibilityCertificate,
    IntMatrix,
    NonfreeSpec,
    Presentation,
    SmithDecomposition,
    build_chain_group,
    divisibility_evidence,
    hnf,
    in_lattice,
    integer_solutions,
    invariant_factors,
    is_free,
    is_prime,
    kernel_basis,
    rank,
    snf,
    solve_z,
)
from lamsys.record import replace
from reference import det, matrix_rank, purity_evidence

small_matrices = st.integers(1, 5).flatmap(
    lambda r: st.integers(1, 5).flatmap(
        lambda c: st.lists(
            st.lists(st.integers(-20, 20), min_size=c, max_size=c),
            min_size=r,
            max_size=r,
        )
    )
).map(IntMatrix.from_rows)


def test_snf_identity():
    dec = snf(IntMatrix.identity(3))
    assert dec.d.entries == IntMatrix.identity(3).entries
    assert dec.verify(IntMatrix.identity(3))


def test_snf_diag_2_3():
    # gcd of entries is 1 and d1*d2 = |det| = 6
    dec = snf(IntMatrix.from_rows([[2, 0], [0, 3]]))
    assert dec.diagonal == (1, 6)


def test_snf_2x2_dense():
    # gcd = 2 and product of factors = |det| = 8
    a = IntMatrix.from_rows([[2, 4], [6, 8]])
    dec = snf(a)
    assert dec.diagonal == (2, 4)
    assert dec.verify(a)


# adding row j to row i, not column j to column i, never leaves diag(1, 2, 1, 0)
HANG = IntMatrix.from_rows([[0, 0, 6, -1], [-1, 0, 2, 0], [4, 0, 0, 1], [0, 0, 6, 0]])
# Hermite form on both sides already, but 2 does not divide 1
DIAG_2_1 = IntMatrix.from_rows([[2, 0], [0, 1]])


@settings(max_examples=150, deadline=None)
@given(small_matrices)
@example(HANG)
@example(DIAG_2_1)
def test_snf_properties(a):
    dec = snf(a)
    assert dec.verify(a)
    assert abs(det(dec.u)) == abs(det(dec.v)) == 1
    assert dec.u.mul(a).mul(dec.v).entries == dec.d.entries


def test_snf_diagonal_agrees_with_sympy():
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import smith_normal_form

    # the edge shapes (n x 0, zero rows and columns) and relation matrices with factors above 1
    for a in (HANG, DIAG_2_1, *_edge_matrices(), *(p.relations for p in _torsion_presentations())):
        dec = snf(a)
        size = min(a.rows, a.cols)
        if size == 0:
            assert dec.diagonal == ()
            continue
        s = smith_normal_form(sympy.Matrix(a.entries), domain=sympy.ZZ)
        factors = sorted(abs(int(s[i, i])) for i in range(size) if s[i, i] != 0)
        assert dec.diagonal == tuple(factors) + (0,) * (size - len(factors))


@settings(max_examples=150, deadline=None)
@given(small_matrices)
def test_hnf_properties(a):
    h, u = hnf(a)
    assert abs(det(u)) == 1
    assert u.mul(a).entries == h.entries
    h2, u2, u_inv = hnf(a, inverse=True)
    assert (h2, u2) == (h, u)
    assert u.mul(u_inv).entries == IntMatrix.identity(a.rows).entries
    # pivots strictly move right and are positive, entries above lie in [0, pivot)
    last = -1
    for row in h.entries:
        piv = next((j for j, v in enumerate(row) if v != 0), None)
        if piv is None:
            continue
        assert piv > last
        assert row[piv] > 0
        last = piv


def test_solve_z_exact():
    assert solve_z(IntMatrix.from_rows([[2]]), [4]) == (2,)


def test_solve_z_parity_certificate():
    cert = solve_z(IntMatrix.from_rows([[2]]), [3])
    assert isinstance(cert, InfeasibilityCertificate)
    assert cert.y == (Fraction(1, 2),)
    assert cert.verify(IntMatrix.from_rows([[2]]), [3])


def test_solve_z_empty_shapes():
    assert solve_z(IntMatrix.from_rows([]), []) == ()
    a = IntMatrix(((), (), ()))
    assert solve_z(a, [0, 0, 0]) == ()
    cert = solve_z(a, [0, 1, 0])
    assert isinstance(cert, InfeasibilityCertificate)
    assert cert.verify(a, [0, 1, 0])


def test_solve_z_random_4x6():
    rng = random.Random(7)
    for _ in range(60):
        a = IntMatrix.from_rows(
            [[rng.randint(-9, 9) for _ in range(6)] for _ in range(4)]
        )
        b = [rng.randint(-9, 9) for _ in range(4)]
        res = solve_z(a, b)
        if isinstance(res, InfeasibilityCertificate):
            assert res.verify(a, b)
        else:
            assert mat_vec(a, res) == tuple(b)


def test_solve_z_planted_solutions():
    rng = random.Random(11)
    for _ in range(60):
        a = IntMatrix.from_rows(
            [[rng.randint(-9, 9) for _ in range(5)] for _ in range(3)]
        )
        x = [rng.randint(-4, 4) for _ in range(5)]
        b = mat_vec(a, x)
        res = solve_z(a, b)
        assert not isinstance(res, InfeasibilityCertificate)
        assert mat_vec(a, res) == b


@settings(max_examples=80, deadline=None)
@given(small_matrices)
def test_kernel_basis_annihilates(a):
    k = kernel_basis(a)
    for row in k.entries:
        assert mat_vec(a, row) == tuple(0 for _ in range(a.rows))
    assert k.rows == a.cols - matrix_rank(a)
    # primitive: all invariant factors 1, so the rows span every integer
    # kernel vector, not a sublattice of index > 1
    assert k.rows == 0 or snf(k).diagonal == (1,) * k.rows


def _snf_path(a, b):
    """(solution or certificate, kernel basis) read off snf(a): the solver that integer_solutions replaced."""
    dec = snf(a)
    diag = dec.diagonal
    c = mat_vec(dec.u, b) if a.rows else ()
    y = [0] * a.cols
    solution = None
    for i in range(a.rows):
        di = diag[i] if i < len(diag) else 0
        if di == 0 and c[i] != 0:
            solution = InfeasibilityCertificate(tuple(Fraction(x, abs(c[i]) + 1) for x in dec.u.entries[i]))
            break
        if di != 0 and c[i] % di != 0:
            solution = InfeasibilityCertificate(tuple(Fraction(x, di) for x in dec.u.entries[i]))
            break
        if di != 0:
            y[i] = c[i] // di
    if solution is None:
        solution = mat_vec(dec.v, y) if a.cols else ()
    free = [j for j in range(a.cols) if j >= len(diag) or diag[j] == 0]
    kernel = IntMatrix.from_rows([[dec.v.entries[r][j] for r in range(a.cols)] for j in free])
    return solution, kernel


def _sympy_row_hnf(k):
    """Our row HNF of k, computed by sympy's column HNF (pivots bottom-right) on reversed coordinates."""
    from sympy import Matrix
    from sympy.matrices.normalforms import hermite_normal_form

    s = hermite_normal_form(Matrix([row[::-1] for row in k.entries]).T)
    return tuple(tuple(int(x) for x in s.col(c))[::-1] for c in reversed(range(s.cols)))


def _edge_matrices():
    rng = random.Random(41)
    yield IntMatrix.from_rows([])                        # 0 x 0
    yield IntMatrix(((), (), ()))                        # 3 x 0
    yield IntMatrix.from_rows([[0] * 4] * 2)
    yield IntMatrix.from_rows([[0, 0, 0], [2, 0, 4], [0, 0, 0]])
    yield IntMatrix.from_rows([[1, 2, 3], [2, 4, 6], [-1, -2, -3]])
    yield IntMatrix.from_rows([[6, 0], [0, 0], [0, 10]])
    for _ in range(150):
        rows, cols = rng.randint(1, 6), rng.randint(1, 7)
        m = [[rng.randint(-9, 9) if rng.random() < 0.6 else 0 for _ in range(cols)] for _ in range(rows)]
        if rng.random() < 0.4:  # rank-deficient: one row a combination of two others
            m.append([rng.randint(-2, 2) * x + rng.randint(-2, 2) * y for x, y in zip(m[0], m[-1])])
        yield IntMatrix.from_rows(m)


def test_integer_solutions_agree_with_snf_path():
    try:
        import sympy  # noqa: F401
    except ImportError:
        sympy = None
    rng = random.Random(43)
    for a in _edge_matrices():
        planted = [rng.randint(-4, 4) for _ in range(a.cols)]
        for b in (list(mat_vec(a, planted)), [rng.randint(-9, 9) for _ in range(a.rows)]):
            sols = integer_solutions(a, b)
            old_solution, old_kernel = _snf_path(a, b)
            for solution in (sols.solution, old_solution):
                if isinstance(solution, InfeasibilityCertificate):
                    assert solution.verify(a, b)
                else:
                    assert mat_vec(a, solution) == tuple(b)
            assert isinstance(sols.solution, InfeasibilityCertificate) == isinstance(
                old_solution, InfeasibilityCertificate
            )
            assert sols.kernel.rows == old_kernel.rows
            assert hnf(sols.kernel)[0] == hnf(old_kernel)[0]
            if sympy is not None and sols.kernel.rows:
                assert _sympy_row_hnf(sols.kernel) == hnf(sols.kernel)[0].entries
            assert kernel_basis(a) == sols.kernel
            assert solve_z(a, b) == sols.solution


def corrupted_checks_missed() -> list[str]:
    """Corruptions of a certified solution set that `check` failed to reject.

    Written without `assert` so that it means the same under `python -O`.
    """
    a = IntMatrix.from_rows([[2, 1, 0, 3], [0, 1, 1, 1]])
    b = [5, 2]
    good = integer_solutions(a, b)
    u = [list(row) for row in good.transform.entries]
    r = good.rank
    u[0][1] += 1
    bad_transform = IntMatrix.from_rows(u)
    u = [list(row) for row in good.transform.entries]
    u[r] = [2 * x for x in u[r]]  # still in the kernel, but of index 2
    doubled_kernel = IntMatrix.from_rows(u)
    # swapping two nonzero rows of H and of U together keeps U a^T = H and the
    # kernel rows, so only the echelon order fails
    swapped = (1, 0) + tuple(range(2, a.cols))
    cases = {
        "Hermite form out of echelon order": replace(
            good,
            hermite=IntMatrix(tuple(good.hermite.entries[i] for i in swapped)),
            transform=IntMatrix(tuple(good.transform.entries[i] for i in swapped)),
        ),
        "transform without its last row": replace(good, transform=IntMatrix(good.transform.entries[:-1])),
        "corrupted transform": replace(good, transform=bad_transform),
        "non-primitive kernel": replace(good, transform=doubled_kernel),
        "wrong solution": replace(good, solution=(0, 0, 0, 0)),
        "wrong certificate": replace(good, solution=InfeasibilityCertificate((Fraction(1, 2), 0))),
    }
    missed = []
    for name, sols in cases.items():
        try:
            sols.check(a, b)
        except CertificateError:
            continue
        missed.append(name)
    try:
        good.check(a, b)
    except CertificateError:
        missed.append("rejected the uncorrupted solution set")
    missed += _corrupted_pivots_missed()
    missed += _corrupted_divisibility_missed()
    verify = SmithDecomposition.verify
    SmithDecomposition.verify = lambda self, a: False  # a Smith form that fails its self-check
    try:
        snf(a)
        missed.append("Smith form self-check")
    except CertificateError:
        pass
    finally:
        SmithDecomposition.verify = verify
    missed += _corrupted_smith_missed(a)
    return missed


def _corrupted_smith_missed(a) -> list[str]:
    """Corruptions of the decomposition `snf` builds that its self-check failed to reject."""
    good = snf(a)
    u_inv = [list(row) for row in good.u_inv.entries]
    u_inv[0][1] += 1
    eye1, eye2 = IntMatrix.identity(1), IntMatrix.identity(2)
    # in each case U * A * V = D holds and only the named claim fails
    cases = {
        "Smith transform V not unimodular": (IntMatrix.from_rows([[0]]), {"v": IntMatrix.from_rows([[2]])}),
        "wrong Smith inverse of U": (a, {"u_inv": IntMatrix.from_rows(u_inv)}),
        "Smith form off the diagonal": (
            IntMatrix.from_rows([[1, 1]]), {"d": IntMatrix.from_rows([[1, 1]]), "v": eye2, "v_inv": eye2}
        ),
        "negative Smith factor": (IntMatrix.from_rows([[-2]]), {"u": eye1, "u_inv": eye1, "d": IntMatrix.from_rows([[-2]])}),
        "Smith factors out of divisibility order": (
            IntMatrix.from_rows([[2, 0], [0, 3]]),
            {"u": eye2, "u_inv": eye2, "d": IntMatrix.from_rows([[2, 0], [0, 3]]), "v": eye2, "v_inv": eye2},
        ),
        "Smith factor after a zero": (
            IntMatrix.from_rows([[0, 0], [0, 1]]),
            {"u": eye2, "u_inv": eye2, "d": IntMatrix.from_rows([[0, 0], [0, 1]]), "v": eye2, "v_inv": eye2},
        ),
    }
    missed = []
    for name, (m, fields) in cases.items():
        abelian.SmithDecomposition = lambda *parts, fields=fields: replace(
            SmithDecomposition(*parts), **fields
        )
        try:
            snf(m)
            missed.append(name)
        except CertificateError:
            pass
        finally:
            abelian.SmithDecomposition = SmithDecomposition
    return missed


def _corrupted_pivots_missed() -> list[str]:
    """Corrupted unit-pivot lists that the re-check in `invariant_factors` failed to reject."""
    # column 3 is a unit column; the block it leaves has factors (1, 2)
    a = IntMatrix.from_rows([[1, 0, 0, 1], [2, 1, 0, 0], [0, 3, 2, 0]])
    cases = {
        "non-unit pivot": [(2, 2)],
        # row 1 keeps column 0 and column 1 keeps row 2
        "pivot alone neither in its row nor in its column": [(1, 1)],
        "repeated row": [(0, 3), (0, 0)],
    }
    missed = []
    peel = abelian._unit_pivots
    try:
        for name, pivots in cases.items():
            abelian._unit_pivots = lambda m, pivots=pivots: pivots
            try:
                invariant_factors(Presentation(("a", "b", "c", "d"), a))
                missed.append(name)
            except CertificateError:
                pass
    finally:
        abelian._unit_pivots = peel
    if invariant_factors(Presentation(("a", "b", "c", "d"), a)) != (1, 1, 2):
        missed.append("peeled the uncorrupted matrix wrongly")
    return missed


def _corrupted_divisibility_missed() -> list[str]:
    """Corrupted telescoped combinations that `divisibility_evidence` failed to reject."""
    spec = NonfreeSpec(r=1, q=(2, 3, 5, 7), d=((1,), (-2,), (1,), (3,)), j_trunc=6)

    def bump_relation(step):
        return replace(step, combination=(step.combination[0] + 1,) + step.combination[1:])

    def bump_head(step):
        return replace(step, head_coefficients=(step.head_coefficients[0] - 1,))

    def bump_product(step):
        return replace(step, product=step.product * 2)

    cases = {"relation coefficient": bump_relation, "head coefficient": bump_head, "product": bump_product}
    missed = []
    for name, corrupt in cases.items():
        abelian.DivisibilityStep = lambda *args, corrupt=corrupt, **kwargs: corrupt(DivisibilityStep(*args, **kwargs))
        try:
            divisibility_evidence(spec, 2)
            missed.append(f"corrupted {name}")
        except CertificateError:
            pass
        finally:
            abelian.DivisibilityStep = DivisibilityStep
    return missed


def test_certificate_checks_raise():
    assert corrupted_checks_missed() == []


def test_certificate_checks_raise_under_optimize():
    here = Path(__file__).resolve().parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(here.parent / "src"), str(here)]))
    code = (
        "import sys, test_abelian\n"
        "if __debug__: sys.exit('assertions are still on')\n"
        "missed = test_abelian.corrupted_checks_missed()\n"
        "sys.exit(repr(missed) if missed else 0)\n"
    )
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_lattice_membership_roundtrip():
    a = IntMatrix.from_rows([[2, 0, 1], [0, 3, 1]])
    v = [4, 3, 3]  # 2*row0 + row1
    # coefficients t with t a = v solve a^T t = v
    coeffs = solve_z(a.transpose(), v)
    assert coeffs == (2, 1)
    recombined = [
        sum(coeffs[i] * a.entries[i][j] for i in range(a.rows)) for j in range(a.cols)
    ]
    assert recombined == v
    h, _ = hnf(a)
    assert in_lattice(h, v)
    assert not in_lattice(h, [1, 0, 0])


def test_presentation_free_rank():
    free1 = Presentation(("z0",), IntMatrix.from_rows([]))
    assert is_free(free1) and rank(free1) == 1
    torsion = Presentation(("z0",), IntMatrix.from_rows([[2]]))
    assert invariant_factors(torsion) == (2,)
    assert not is_free(torsion)
    assert rank(torsion) == 0


def test_invariant_factors_peel_a_unit_off_the_pivots():
    # column 1 holds a lone 1 that is no Hermite pivot; peeling it leaves the block (3)
    a = IntMatrix.from_rows([[2, 1, 0, 0], [0, 0, 3, 0]])
    assert abelian._unit_pivots(a) == [(0, 1)]
    assert invariant_factors(Presentation(("a", "b", "c", "d"), a)) == (1, 3)
    assert rank(Presentation(("a", "b", "c", "d"), a)) == 2


def test_is_prime_small():
    primes = [p for p in range(2, 60) if is_prime(p)]
    assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]
    assert not is_prime(1) and not is_prime(0) and not is_prime(-7)


def test_is_prime_agrees_with_a_sieve_below_10_5():
    # covers the trial-division answer below 43^2 and the Miller-Rabin rounds above it
    limit = 10 ** 5
    sieve = bytearray([1]) * limit
    sieve[0] = sieve[1] = 0
    for p in range(2, math.isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytes(len(range(p * p, limit, p)))
    assert [n for n in range(limit) if is_prime(n)] == [n for n in range(limit) if sieve[n]]


# psi_12 and psi_13: the least strong pseudoprimes to all prime bases up to 37 and up to 41
PSI_12 = 318665857834031151167461
PSI_13 = 3317044064679887385961981


def test_is_prime_rejects_the_strong_pseudoprimes_psi_12_and_psi_13():
    assert PSI_12 == 399165290221 * 798330580441
    assert PSI_13 == 1287836182261 * 2575672364521
    assert not is_prime(PSI_12)
    assert not is_prime(PSI_13)


def test_strong_lucas_test_agrees_with_sympy():
    primetest = pytest.importorskip("sympy.ntheory.primetest")
    from lamsys.abelian import _strong_lucas_probable_prime

    # the composites that pass are the strong Lucas pseudoprimes 5459, 5777, 10877, ...
    for n in range(3, 30_000, 2):
        assert _strong_lucas_probable_prime(n) == primetest.is_strong_lucas_prp(n), n


def test_is_prime_agrees_with_sympy_past_psi_13():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(13)
    cases = [PSI_13 + k for k in range(-40, 200)]
    cases += [rng.getrandbits(bits) | 1 for bits in (82, 90, 128, 256) for _ in range(60)]
    cases += [2 ** 89 - 1, 2 ** 107 - 1, 2 ** 127 - 1, (2 ** 61 - 1) * (2 ** 89 - 1), (2 ** 89 - 1) ** 2]
    for n in cases:
        assert is_prime(n) == sympy.isprime(n), n


def test_chain_group_rank_one():
    # q_m = 2 throughout, four relations: 2 z1 = z0, ..., 2 z4 = z3
    spec = NonfreeSpec(r=0, q=(2, 2, 2, 2), d=((), (), (), ()), j_trunc=5)
    pres = build_chain_group(spec)
    assert pres.relations.rows == 4
    assert pres.relations.entries[0] == (-1, 2, 0, 0, 0)
    assert is_free(pres)
    assert rank(pres) == 1


def test_chain_group_divisibility_r0():
    # z0 = 2^4 z4 in the quotient (the head subgroup is trivial at r = 0)
    spec = NonfreeSpec(r=0, q=(2, 2, 2, 2), d=((), (), (), ()), j_trunc=5)
    report = divisibility_evidence(spec, 3)
    assert isinstance(report, DivisibilityReport)
    assert report.ok
    assert [s.product for s in report.steps] == [2, 4, 8, 16]
    assert report.steps[3].witness_index == 4


def test_chain_group_r1():
    spec = NonfreeSpec(r=1, q=(2, 3, 5, 7), d=((1,), (1,), (1,), (1,)), j_trunc=6)
    pres = build_chain_group(spec)
    assert is_free(pres)
    assert rank(pres) == 2
    report = divisibility_evidence(spec, 2)
    assert report.ok
    assert [s.product for s in report.steps] == [2, 6, 30]


def test_chain_group_truncation_guard():
    with pytest.raises(ValueError):
        NonfreeSpec(r=1, q=(2,), d=((1,),), j_trunc=2)
    with pytest.raises(ValueError):
        NonfreeSpec(r=0, q=(2,), d=((),), j_trunc=4)
    spec = NonfreeSpec(r=0, q=(2, 2, 2), d=((), (), ()), j_trunc=4)
    with pytest.raises(ValueError):
        divisibility_evidence(spec, 5)


def test_chain_group_head_purity():
    spec = NonfreeSpec(r=1, q=(2, 3), d=((1,), (-2,)), j_trunc=4)
    ok, counterexample = purity_evidence(spec, box=2, k_max=3)
    assert ok, counterexample


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.sampled_from([2, 3, 5, 7]), min_size=2, max_size=4),
    st.integers(0, 2),
    st.integers(-3, 3),
)
def test_chain_truncations_always_free(qs, r, coeff):
    d = tuple(tuple(coeff for _ in range(r)) for _ in qs)
    spec = NonfreeSpec(r=r, q=tuple(qs), d=d, j_trunc=len(qs) + r + 1)
    assert is_free(build_chain_group(spec))


def _full_snf_factors(p):
    """The nonzero Smith diagonal of the whole relation matrix, without peeling."""
    rows = [r for r in p.relations.entries if any(r)]
    return tuple(d for d in snf(IntMatrix.from_rows(rows)).diagonal if d) if rows else ()


def _torsion_presentations():
    rng = random.Random(47)
    yield Presentation(("a", "b", "c"), IntMatrix.from_rows([[2, 0, 0], [0, 6, 0], [0, 0, 0]]))
    yield Presentation(("a", "b"), IntMatrix.from_rows([]))  # 0 x n
    yield Presentation((), IntMatrix(((), ())))  # n x 0
    yield Presentation(("a", "b", "c"), IntMatrix.from_rows([[0] * 3] * 3))
    yield Presentation(("a", "b", "c", "d"), IntMatrix.from_rows([[0, 4, 0, 6], [0, 0, 0, 0], [0, 6, 0, 9]]))
    # factors (1, 3): the entry 1 off the pivot columns must stay in the Smith block
    yield Presentation(("a", "b", "c", "d"), IntMatrix.from_rows([[2, 1, 0, 0], [0, 0, 3, 0]]))
    for spec in (
        NonfreeSpec(r=0, q=(2, 2, 2, 2), d=((), (), (), ()), j_trunc=5),
        NonfreeSpec(r=1, q=(3, 5, 7), d=((1,), (-2,), (1,)), j_trunc=5),
    ):
        chain = build_chain_group(spec)
        yield chain
        # the quotient by the head z_0..z_{r-1} and the anchor z_r is a divisibility chain
        kill = [[int(j == k) for j in range(spec.j_trunc)] for k in range(spec.r + 1)]
        yield Presentation(chain.generators, IntMatrix.from_rows(list(chain.relations.entries) + kill))
    for _ in range(120):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        m = [[rng.randint(-6, 6) if rng.random() < 0.5 else 0 for _ in range(cols)] for _ in range(rows)]
        for row in m:
            if rng.random() < 0.4:  # a scaled row forces a pivot above 1
                row[:] = [rng.choice((2, 3, 4, 6)) * x for x in row]
        if rng.random() < 0.3:
            m.append([0] * cols)
        if rng.random() < 0.3:
            j = rng.randrange(cols)
            for row in m:
                row[j] = 0
        yield Presentation(tuple(f"g{j}" for j in range(cols)), IntMatrix.from_rows(m))


def _mixed_presentations():
    """Random torsion blocks hidden among unit rows, unit columns and unit staircases, rows and columns shuffled."""
    rng = random.Random(53)
    for _ in range(150):
        rows, cols = rng.randint(0, 4), rng.randint(1, 5)
        m = [[rng.choice((0, 0, 2, 3, 4, -6, 9)) for _ in range(cols)] for _ in range(rows)]
        for _ in range(rng.randint(1, 4)):
            kind = rng.choice(("row", "column", "staircase"))
            width = len(m[0]) if m else cols
            if kind == "row":  # a unit row on a fresh column, with entries above and below in that column
                for row in m:
                    row.append(rng.choice((0, 1, -2, 5)))
                m.append([0] * width + [rng.choice((1, -1))])
            elif kind == "column":  # a unit column on a fresh row that also meets old columns
                for row in m:
                    row.append(0)
                m.append([rng.randint(-4, 4) for _ in range(width)] + [rng.choice((1, -1))])
            else:  # -1 on the diagonal and a prime just right of it, as in a chain
                k = rng.randint(2, 3)
                for row in m:
                    row.extend(rng.choice((0, 0, 3)) for _ in range(k + 1))
                for i in range(k):
                    new = [rng.choice((0, 2)) for _ in range(width)] + [0] * (k + 1)
                    new[width + i], new[width + i + 1] = -1, rng.choice((2, 3, 5))
                    m.append(new)
        rng.shuffle(m)
        order = list(range(len(m[0])))
        rng.shuffle(order)
        m = [[row[j] for j in order] for row in m]
        yield Presentation(tuple(f"g{j}" for j in range(len(order))), IntMatrix.from_rows(m))


def _chain_presentations():
    """Chain groups with r >= 1 and their quotients by the head and the anchor."""
    rng = random.Random(59)
    for _ in range(40):
        r = rng.randint(1, 3)
        n = rng.randint(1, 5)
        q = tuple(rng.choice((2, 3, 5, 7)) for _ in range(n))
        d = tuple(tuple(rng.randint(-4, 4) for _ in range(r)) for _ in range(n))
        spec = NonfreeSpec(r=r, q=q, d=d, j_trunc=n + r + 1)
        chain = build_chain_group(spec)
        yield chain
        kill = [[int(j == k) for j in range(spec.j_trunc)] for k in range(spec.r + 1)]
        yield Presentation(chain.generators, IntMatrix.from_rows(list(chain.relations.entries) + kill))


def _witness_presentations():
    """Every build-G presentation, `--variant` system and basis slice window of the golden systems and random ones."""
    from helpers import random_whitehead_system

    from lamsys import jsonio
    from lamsys.whitehead import build_witness_group, quotient_presentation, variant_filter

    inputs = Path(__file__).resolve().parent / "golden" / "inputs"
    names = ("ws-h1", "ws-h2", "ws-basis", "ws-basis-stall", "coupled", "strong", "trunc0")
    systems = [jsonio.whitehead_from_doc(json.loads((inputs / f"{name}.json").read_text())) for name in names]
    rng = random.Random(61)
    systems += [
        random_whitehead_system(rng, n=rng.choice((1, 2)), r=rng.randint(0, 2), truncation=rng.randint(1, 3),
                                cross_level_atoms=rng.random() < 0.5)
        for _ in range(12)
    ]
    for ws in systems:
        firsts = sorted({z[0] for z in ws.finals()})
        yield build_witness_group(ws)
        for k in range(1, len(firsts)):
            for keep in itertools.combinations(firsts, k):
                yield build_witness_group(variant_filter(ws, frozenset(keep)))
        for beta in (x + 1 for x in firsts):
            for alpha in [-1] + [x for x in firsts if x < beta]:
                yield quotient_presentation(ws, alpha, beta)


def test_invariant_factors_agree_with_snf_path():
    try:
        from sympy import ZZ, Matrix
        from sympy.matrices.normalforms import smith_normal_form
    except ImportError:
        smith_normal_form = None
    non_unit = peeled = witness = 0
    for source in (_torsion_presentations(), _mixed_presentations(), _chain_presentations(), _witness_presentations()):
        for p in source:
            factors = invariant_factors(p)
            assert factors == _full_snf_factors(p)
            assert rank(p) == len(p.generators) - matrix_rank(p.relations) == len(p.generators) - len(factors)
            assert is_free(p) == all(d == 1 for d in factors)
            non_unit += any(d != 1 for d in factors)
            peeled += bool(abelian._unit_pivots(p.relations))
            witness += source.__name__ == "_witness_presentations"
            if smith_normal_form is not None and p.relations.rows and p.relations.cols:
                s = smith_normal_form(Matrix(p.relations.entries), domain=ZZ)
                assert sorted(factors) == sorted(abs(int(s[i, i])) for i in range(min(s.shape)) if s[i, i] != 0)
    assert non_unit > 80  # the Smith block left after peeling is exercised
    assert peeled > 300
    assert witness > 100


def test_witness_presentations_peel_completely():
    # the unit staircase of every final and the unit kill rows leave nothing for snf
    for p in _witness_presentations():
        a = p.relations
        pivots = abelian._unit_pivots(a)
        assert abelian._peeled_block(a, pivots) == ()
        assert invariant_factors(p) == (1,) * len(pivots)


def test_telescoped_combination_is_the_solvers():
    rng = random.Random(67)
    for _ in range(40):
        r = rng.randint(0, 3)
        n = rng.randint(1, 5)
        q = tuple(rng.choice((2, 3, 5, 7, 11)) for _ in range(n))
        d = tuple(tuple(rng.randint(-5, 5) for _ in range(r)) for _ in range(n))
        spec = NonfreeSpec(r=r, q=q, d=d, j_trunc=n + r + 1)
        j = spec.j_trunc
        head = [[int(k == l) for k in range(j)] for l in range(r)]
        stacked = IntMatrix.from_rows(list(build_chain_group(spec).relations.entries) + head)
        report = divisibility_evidence(spec, n - 1)
        assert report.ok
        for step in report.steps:
            target = [0] * j
            target[r] += 1
            target[step.witness_index] -= step.product
            assert solve_z(stacked.transpose(), target) == step.combination + step.head_coefficients
