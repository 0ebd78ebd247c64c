"""Exact linear algebra: normal forms, integer solving, chain-group diagnostics."""

import dataclasses
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from lamsys import abelian
from lamsys.abelian import (
    CertificateError,
    DivisibilityReport,
    HermiteForm,
    InfeasibilityCertificate,
    IntMatrix,
    NonfreeSpec,
    Presentation,
    SmithDecomposition,
    build_chain_group,
    divisibility_evidence,
    express_in_lattice,
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
            assert a.mul_vec(res) == tuple(b)


def test_solve_z_planted_solutions():
    rng = random.Random(11)
    for _ in range(60):
        a = IntMatrix.from_rows(
            [[rng.randint(-9, 9) for _ in range(5)] for _ in range(3)]
        )
        x = [rng.randint(-4, 4) for _ in range(5)]
        b = a.mul_vec(x)
        res = solve_z(a, b)
        assert not isinstance(res, InfeasibilityCertificate)
        assert a.mul_vec(res) == b


@settings(max_examples=80, deadline=None)
@given(small_matrices)
def test_kernel_basis_annihilates(a):
    k = kernel_basis(a)
    for row in k.entries:
        assert a.mul_vec(row) == tuple(0 for _ in range(a.rows))
    assert k.rows == a.cols - matrix_rank(a)
    # primitive: all invariant factors 1, so the rows span every integer
    # kernel vector, not a sublattice of index > 1
    assert k.rows == 0 or snf(k).diagonal == (1,) * k.rows


def _snf_path(a, b):
    """(solution or certificate, kernel basis) read off snf(a): the solver that integer_solutions replaced."""
    dec = snf(a)
    diag = dec.diagonal
    c = dec.u.mul_vec(b) if a.rows else ()
    y = [0] * a.cols
    solution = None
    for i in range(a.rows):
        di = diag[i] if i < len(diag) else 0
        if di == 0 and c[i] != 0:
            solution = InfeasibilityCertificate(tuple(Fraction(x, abs(c[i]) + 1) for x in dec.u.row(i)))
            break
        if di != 0 and c[i] % di != 0:
            solution = InfeasibilityCertificate(tuple(Fraction(x, di) for x in dec.u.row(i)))
            break
        if di != 0:
            y[i] = c[i] // di
    if solution is None:
        solution = dec.v.mul_vec(y) if a.cols else ()
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
    yield IntMatrix.zeros(2, 4)
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
        for b in (list(a.mul_vec(planted)), [rng.randint(-9, 9) for _ in range(a.rows)]):
            sols = integer_solutions(a, b)
            old_solution, old_kernel = _snf_path(a, b)
            for solution in (sols.solution, old_solution):
                if isinstance(solution, InfeasibilityCertificate):
                    assert solution.verify(a, b)
                else:
                    assert a.mul_vec(solution) == tuple(b)
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
    cases = {
        "corrupted transform": dataclasses.replace(good, transform=bad_transform),
        "non-primitive kernel": dataclasses.replace(good, transform=doubled_kernel),
        "wrong solution": dataclasses.replace(good, solution=(0, 0, 0, 0)),
        "wrong certificate": dataclasses.replace(good, solution=InfeasibilityCertificate((Fraction(1, 2), 0))),
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
    missed += _corrupted_hermite_missed()
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
        abelian.SmithDecomposition = lambda *parts, fields=fields: dataclasses.replace(
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


def _corrupted_hermite_missed() -> list[str]:
    """Corruptions of a Hermite form with transforms that `check` or `unit_split` failed to reject."""
    a = IntMatrix.from_rows([[2, 4, 1, 0], [0, 6, 3, 2], [4, 2, 5, 6]])
    good = HermiteForm(*hnf(a, inverse=True))

    def bumped(m, i, j):
        rows = [list(row) for row in m.entries]
        rows[i][j] += 1
        return IntMatrix.from_rows(rows)

    def swapped_rows(m):
        return IntMatrix((m.entries[1], m.entries[0]) + m.entries[2:])

    # swapping two rows of U and H together keeps U a = H; swapping the
    # matching columns of U^-1 keeps U U^-1 = I, so only the echelon order fails
    out_of_order = HermiteForm(
        swapped_rows(good.hermite), swapped_rows(good.transform), swapped_rows(good.inverse.transpose()).transpose()
    )
    cases = {
        "corrupted transform": dataclasses.replace(good, transform=bumped(good.transform, 0, 1)),
        "corrupted inverse": dataclasses.replace(good, inverse=bumped(good.inverse, 1, 0)),
        "corrupted Hermite form": dataclasses.replace(good, hermite=bumped(good.hermite, 2, 3)),
        "Hermite form out of echelon order": out_of_order,
        "inverse without its last row": dataclasses.replace(good, inverse=IntMatrix(good.inverse.entries[:-1])),
    }
    missed = []
    for name, form in cases.items():
        try:
            form.check(a)
        except CertificateError:
            continue
        missed.append(name)
    try:
        good.check(a)
        good.unit_split()
    except CertificateError:
        missed.append("rejected the uncorrupted Hermite form")
    # an echelon form that is its own Hermite form as far as the products go,
    # but leaves a 1 above its unit pivot in column 1
    unreduced = IntMatrix.from_rows([[2, 1, 0], [0, 1, 5]])
    eye = IntMatrix.identity(2)
    form = HermiteForm(unreduced, eye, eye)
    try:
        form.check(unreduced)
    except CertificateError:
        missed.append("rejected the unreduced echelon form before the split")
    try:
        form.unit_split()
        missed.append("corrupted unit-pivot column")
    except CertificateError:
        pass
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
    coeffs = express_in_lattice(a, v)
    assert coeffs is not None
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


def test_unit_split_keeps_only_columns_with_entries():
    # no unit pivot; column 3 is zero in both rows and leaves the block, while
    # column 1 is off the pivots but carries an entry and stays
    a = IntMatrix.from_rows([[2, 1, 0, 0], [0, 0, 3, 0]])
    units, block = HermiteForm(*hnf(a, inverse=True)).unit_split()
    assert (units, block.entries) == (0, ((2, 1, 0), (0, 0, 3)))
    assert invariant_factors(Presentation(("a", "b", "c", "d"), a)) == (1, 3)


def test_is_prime_small():
    primes = [p for p in range(2, 60) if is_prime(p)]
    assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]
    assert not is_prime(1) and not is_prime(0) and not is_prime(-7)


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


def _old_invariant_factors(p):
    """The Smith-form reference that the checked Hermite path replaced."""
    if p.relations.rows == 0 or p.relations.cols == 0:
        return ()
    rel = IntMatrix.from_rows([r for r in p.relations.entries if any(r)] or [[0] * len(p.generators)])
    return tuple(d for d in snf(rel).diagonal if d != 0)


def _torsion_presentations():
    rng = random.Random(47)
    yield Presentation(("a", "b", "c"), IntMatrix.from_rows([[2, 0, 0], [0, 6, 0], [0, 0, 0]]))
    yield Presentation(("a", "b"), IntMatrix.from_rows([]))  # 0 x n
    yield Presentation((), IntMatrix(((), ())))  # n x 0
    yield Presentation(("a", "b", "c"), IntMatrix.zeros(3, 3))
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


def test_invariant_factors_agree_with_snf_path():
    try:
        from sympy import ZZ, Matrix
        from sympy.matrices.normalforms import smith_normal_form
    except ImportError:
        smith_normal_form = None
    non_unit = 0
    for p in _torsion_presentations():
        factors = invariant_factors(p)
        assert factors == _old_invariant_factors(p)
        assert rank(p) == len(p.generators) - matrix_rank(p.relations) == len(p.generators) - len(factors)
        assert is_free(p) == all(d == 1 for d in factors)
        non_unit += any(d != 1 for d in factors)
        if smith_normal_form is not None and p.relations.rows and p.relations.cols:
            s = smith_normal_form(Matrix(p.relations.entries), domain=ZZ)
            assert sorted(factors) == sorted(abs(int(s[i, i])) for i in range(min(s.shape)) if s[i, i] != 0)
    assert non_unit > 40  # the Smith block after the unit split is exercised
