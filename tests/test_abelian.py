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

from helpers import free_rank, from_rows, is_free, mat_vec, relation_matrix, sparse

from lamsys import abelian
from lamsys.abelian import (
    CertificateError,
    DivisibilityStep,
    InfeasibilityCertificate,
    IntMatrix,
    NonfreeSpec,
    Presentation,
    SmithDecomposition,
    build_chain_group,
    dense,
    divisibility_evidence,
    hnf,
    in_lattice,
    invariant_factors,
    is_prime,
    kernel_basis,
    snf,
    solve_z,
)
from lamsys.record import replace
import reference
from reference import det, matrix_rank, purity_evidence

small_matrices = st.integers(1, 5).flatmap(
    lambda r: st.integers(1, 5).flatmap(
        lambda c: st.lists(
            st.lists(st.integers(-20, 20), min_size=c, max_size=c),
            min_size=r,
            max_size=r,
        )
    )
).map(from_rows)


def test_snf_identity():
    dec = snf(IntMatrix.identity(3))
    assert dec.d.entries == IntMatrix.identity(3).entries
    assert dec.verify(IntMatrix.identity(3))


def test_snf_diag_2_3():
    # gcd of entries is 1 and d1*d2 = |det| = 6
    dec = snf(from_rows([[2, 0], [0, 3]]))
    assert dec.diagonal == (1, 6)


def test_snf_2x2_dense():
    # gcd = 2 and product of factors = |det| = 8
    a = from_rows([[2, 4], [6, 8]])
    dec = snf(a)
    assert dec.diagonal == (2, 4)
    assert dec.verify(a)


# adding row j to row i, not column j to column i, never leaves diag(1, 2, 1, 0)
HANG = from_rows([[0, 0, 6, -1], [-1, 0, 2, 0], [4, 0, 0, 1], [0, 0, 6, 0]])
# Hermite form on both sides already, but 2 does not divide 1
DIAG_2_1 = from_rows([[2, 0], [0, 1]])


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
    for a in (HANG, DIAG_2_1, *_edge_matrices(), *(relation_matrix(p) for p in _torsion_presentations())):
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


# shapes from 0 x 0 to 6 x 8, about half the entries 0: the kernels `hnf` meets are sparse
sparse_matrices = st.integers(0, 6).flatmap(
    lambda r: st.integers(0, 8).flatmap(
        lambda c: st.lists(
            st.lists(st.one_of(st.just(0), st.integers(-30, 30)), min_size=c, max_size=c),
            min_size=r,
            max_size=r,
        )
    )
).map(from_rows)


@settings(max_examples=300, deadline=None)
@given(small_matrices | sparse_matrices)
def test_hnf_agrees_with_the_dense_reference(a):
    assert hnf(a) == reference.dense_hnf(a)
    assert hnf(a, inverse=True) == reference.dense_hnf(a, inverse=True)


def test_solve_z_exact():
    assert solve_z(from_rows([[2]]), [4]) == (2,)


def test_solve_z_parity_certificate():
    cert = solve_z(from_rows([[2]]), [3])
    assert isinstance(cert, InfeasibilityCertificate)
    assert cert.y == (Fraction(1, 2),)
    assert cert.verify(from_rows([[2]]), [3])


def test_solve_z_empty_shapes():
    assert solve_z(from_rows([]), []) == ()
    a = IntMatrix(((), (), ()))
    assert solve_z(a, [0, 0, 0]) == ()
    cert = solve_z(a, [0, 1, 0])
    assert isinstance(cert, InfeasibilityCertificate)
    assert cert.verify(a, [0, 1, 0])


def test_solve_z_random_4x6():
    rng = random.Random(7)
    for _ in range(60):
        a = from_rows(
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
        a = from_rows(
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


def _hermite_path(a, b):
    """(whether a*x = b is solvable, kernel basis) from one row Hermite form H = U * a^T, with no Smith form.

    b is reachable exactly when it lies in the row lattice of a^T, and the
    rows of U against the zero rows of H span the integer kernel of a.
    """
    h, u = hnf(a.transpose())
    rank = sum(1 for row in h.entries if any(row))
    return in_lattice(sparse(h.entries), b), IntMatrix(u.entries[rank:])


def _sympy_row_hnf(k):
    """Our row HNF of k, computed by sympy's column HNF (pivots bottom-right) on reversed coordinates."""
    from sympy import Matrix
    from sympy.matrices.normalforms import hermite_normal_form

    s = hermite_normal_form(Matrix([row[::-1] for row in k.entries]).T)
    return tuple(tuple(int(x) for x in s.col(c))[::-1] for c in reversed(range(s.cols)))


def _edge_matrices():
    rng = random.Random(41)
    yield from_rows([])            # 0 x 0
    yield IntMatrix(((), (), ()))  # 3 x 0
    yield from_rows([[0] * 4] * 2)
    yield from_rows([[0, 0, 0], [2, 0, 4], [0, 0, 0]])
    yield from_rows([[1, 2, 3], [2, 4, 6], [-1, -2, -3]])
    yield from_rows([[6, 0], [0, 0], [0, 10]])
    for _ in range(150):
        rows, cols = rng.randint(1, 6), rng.randint(1, 7)
        m = [[rng.randint(-9, 9) if rng.random() < 0.6 else 0 for _ in range(cols)] for _ in range(rows)]
        if rng.random() < 0.4:  # rank-deficient: one row a combination of two others
            m.append([rng.randint(-2, 2) * x + rng.randint(-2, 2) * y for x, y in zip(m[0], m[-1])])
        yield from_rows(m)


def test_solve_z_and_kernel_basis_agree_with_hermite_path():
    try:
        import sympy  # noqa: F401
    except ImportError:
        sympy = None
    rng = random.Random(43)
    for a in _edge_matrices():
        planted = [rng.randint(-4, 4) for _ in range(a.cols)]
        for is_planted, b in ((True, list(mat_vec(a, planted))), (False, [rng.randint(-9, 9) for _ in range(a.rows)])):
            solution = solve_z(a, b)
            feasible, hermite_kernel = _hermite_path(a, b)
            if isinstance(solution, InfeasibilityCertificate):
                assert solution.verify(a, b)
            else:
                assert mat_vec(a, solution) == tuple(b)
            assert feasible == (not isinstance(solution, InfeasibilityCertificate))
            assert feasible or not is_planted
        kernel = kernel_basis(a)
        assert kernel.rows == hermite_kernel.rows
        assert hnf(kernel)[0] == hnf(hermite_kernel)[0]
        if sympy is not None and kernel.rows:
            assert _sympy_row_hnf(kernel) == hnf(kernel)[0].entries


def corrupted_checks_missed() -> list[str]:
    """Corruptions of a certified solution set that `check` failed to reject.

    Written without `assert` so that it means the same under `python -O`.
    """
    a = from_rows([[2, 1, 0, 3], [0, 1, 1, 1]])
    missed = _corrupted_solver_missed(a)
    missed += _corrupted_pivots_missed()
    missed += _corrupted_divisibility_missed()
    verify = SmithDecomposition.verify
    SmithDecomposition.verify = lambda self, a: False  # a Smith form that fails its self-check
    try:
        for name, call in (("Smith form self-check", snf), ("kernel basis of a failed Smith form", kernel_basis)):
            try:
                call(a)
                missed.append(name)
            except CertificateError:
                pass
    finally:
        SmithDecomposition.verify = verify
    missed += _corrupted_smith_missed(a)
    return missed


def _corrupted_solver_missed(a) -> list[str]:
    """Corrupted Smith forms whose wrong answer the check in `solve_z` failed to reject.

    `snf` is swapped for a function that returns the corrupted form without
    its self-check, so only `solve_z`'s own check of a*x = b, or of the
    certificate, stands between the corruption and the caller.
    """
    one = from_rows([[2]])
    good = snf(a)
    v = [list(row) for row in good.v.entries]
    v[0] = [x + 1 for x in v[0]]
    cases = {
        "wrong solution": (a, [5, 2], replace(good, v=from_rows(v))),
        # 3 = 2 * 1 + 1, so the true certificate is 1/2; a diagonal of 4 gives 1/4, and 1/4 * 2 is not integral
        "wrong certificate": (one, [3], replace(snf(one), d=from_rows([[4]]))),
    }
    missed = []
    smith = abelian.snf
    try:
        for name, (m, b, dec) in cases.items():
            abelian.snf = lambda _, dec=dec: dec
            try:
                solve_z(m, b)
                missed.append(name)
            except CertificateError:
                pass
    finally:
        abelian.snf = smith
    try:
        solve_z(a, [5, 2]), solve_z(one, [3])
    except CertificateError:
        missed.append("rejected an uncorrupted solve")
    return missed


def _corrupted_smith_missed(a) -> list[str]:
    """Corruptions of the decomposition `snf` builds that its self-check failed to reject."""
    good = snf(a)
    u_inv = [list(row) for row in good.u_inv.entries]
    u_inv[0][1] += 1
    eye1, eye2 = IntMatrix.identity(1), IntMatrix.identity(2)
    # in each case U * A * V = D holds and only the named claim fails
    cases = {
        "Smith transform V not unimodular": (from_rows([[0]]), {"v": from_rows([[2]])}),
        "wrong Smith inverse of U": (a, {"u_inv": from_rows(u_inv)}),
        "Smith form off the diagonal": (
            from_rows([[1, 1]]), {"d": from_rows([[1, 1]]), "v": eye2, "v_inv": eye2}
        ),
        "negative Smith factor": (from_rows([[-2]]), {"u": eye1, "u_inv": eye1, "d": from_rows([[-2]])}),
        "Smith factors out of divisibility order": (
            from_rows([[2, 0], [0, 3]]),
            {"u": eye2, "u_inv": eye2, "d": from_rows([[2, 0], [0, 3]]), "v": eye2, "v_inv": eye2},
        ),
        "Smith factor after a zero": (
            from_rows([[0, 0], [0, 1]]),
            {"u": eye2, "u_inv": eye2, "d": from_rows([[0, 0], [0, 1]]), "v": eye2, "v_inv": eye2},
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


# column 3 is a unit column; the block it leaves has factors (1, 2)
_PEELED = sparse([[1, 0, 0, 1], [2, 1, 0, 0], [0, 3, 2, 0]])
_CORRUPTED_PIVOTS = {
    "non-unit pivot": [(2, 2)],
    # row 1 keeps column 0 and column 1 keeps row 2
    "pivot alone neither in its row nor in its column": [(1, 1)],
    "repeated row": [(0, 3), (0, 0)],
}


def _corrupted_pivots_missed() -> list[str]:
    """Corrupted unit-pivot lists that the re-check in `invariant_factors` failed to reject."""
    a = _PEELED
    missed = []
    peel = abelian._unit_pivots
    try:
        for name, pivots in _CORRUPTED_PIVOTS.items():
            abelian._unit_pivots = lambda rows, width, pivots=pivots: pivots
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
    a = from_rows([[2, 0, 1], [0, 3, 1]])
    v = [4, 3, 3]  # 2*row0 + row1
    # coefficients t with t a = v solve a^T t = v
    coeffs = solve_z(a.transpose(), v)
    assert coeffs == (2, 1)
    recombined = [
        sum(coeffs[i] * a.entries[i][j] for i in range(a.rows)) for j in range(a.cols)
    ]
    assert recombined == v
    h = sparse(hnf(a)[0].entries)
    assert in_lattice(h, v)
    assert not in_lattice(h, [1, 0, 0])


def test_presentation_free_rank():
    free1 = Presentation(("z0",), sparse([]))
    assert is_free(free1) and free_rank(free1) == 1
    torsion = Presentation(("z0",), sparse([[2]]))
    assert invariant_factors(torsion) == (2,)
    assert not is_free(torsion)
    assert free_rank(torsion) == 0


def test_invariant_factors_peel_a_unit_off_the_pivots():
    # column 1 holds a lone 1 that is no Hermite pivot; peeling it leaves the block (3)
    a = sparse([[2, 1, 0, 0], [0, 0, 3, 0]])
    assert abelian._unit_pivots(a, 4) == [(0, 1)]
    assert invariant_factors(Presentation(("a", "b", "c", "d"), a)) == (1, 3)
    assert free_rank(Presentation(("a", "b", "c", "d"), a)) == 2


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
    assert len(pres.relations) == 4
    assert pres.relations[0] == {0: -1, 1: 2}
    assert is_free(pres)
    assert free_rank(pres) == 1


def test_chain_group_divisibility_r0():
    # z0 = 2^4 z4 in the quotient (the head subgroup is trivial at r = 0)
    spec = NonfreeSpec(r=0, q=(2, 2, 2, 2), d=((), (), (), ()), j_trunc=5)
    steps = divisibility_evidence(spec, 3)
    assert isinstance(steps, tuple) and all(isinstance(s, DivisibilityStep) for s in steps)
    assert [s.product for s in steps] == [2, 4, 8, 16]
    assert steps[3].witness_index == 4


def test_chain_group_r1():
    spec = NonfreeSpec(r=1, q=(2, 3, 5, 7), d=((1,), (1,), (1,), (1,)), j_trunc=6)
    pres = build_chain_group(spec)
    assert is_free(pres)
    assert free_rank(pres) == 2
    steps = divisibility_evidence(spec, 2)
    assert [s.product for s in steps] == [2, 6, 30]


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
    rows = [r for r in relation_matrix(p).entries if any(r)]
    return tuple(d for d in snf(from_rows(rows)).diagonal if d) if rows else ()


def _torsion_presentations():
    rng = random.Random(47)
    yield Presentation(("a", "b", "c"), sparse([[2, 0, 0], [0, 6, 0], [0, 0, 0]]))
    yield Presentation(("a", "b"), ())  # 0 x n
    yield Presentation((), ({}, {}))  # n x 0
    yield Presentation(("a", "b", "c"), sparse([[0] * 3] * 3))
    yield Presentation(("a", "b", "c", "d"), sparse([[0, 4, 0, 6], [0, 0, 0, 0], [0, 6, 0, 9]]))
    # factors (1, 3): the entry 1 off the pivot columns must stay in the Smith block
    yield Presentation(("a", "b", "c", "d"), sparse([[2, 1, 0, 0], [0, 0, 3, 0]]))
    for spec in (
        NonfreeSpec(r=0, q=(2, 2, 2, 2), d=((), (), (), ()), j_trunc=5),
        NonfreeSpec(r=1, q=(3, 5, 7), d=((1,), (-2,), (1,)), j_trunc=5),
    ):
        chain = build_chain_group(spec)
        yield chain
        # the quotient by the head z_0..z_{r-1} and the anchor z_r is a divisibility chain
        kill = [[int(j == k) for j in range(spec.j_trunc)] for k in range(spec.r + 1)]
        yield Presentation(chain.generators, chain.relations + sparse(kill))
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
        yield Presentation(tuple(f"g{j}" for j in range(cols)), sparse(m))


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
        yield Presentation(tuple(f"g{j}" for j in range(len(order))), sparse(m))


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
        yield Presentation(chain.generators, chain.relations + sparse(kill))


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
                yield quotient_presentation(ws, alpha, beta)[0]


def test_invariant_factors_agree_with_snf_path():
    try:
        from sympy import ZZ, Matrix
        from sympy.matrices.normalforms import smith_normal_form
    except ImportError:
        smith_normal_form = None
    non_unit = peeled = witness = 0
    for source in (_torsion_presentations(), _mixed_presentations(), _chain_presentations(), _witness_presentations()):
        for p in source:
            a = relation_matrix(p)
            factors = invariant_factors(p)
            assert factors == _full_snf_factors(p)
            assert len(factors) == matrix_rank(a)
            non_unit += any(d != 1 for d in factors)
            peeled += bool(abelian._unit_pivots(p.relations, len(p.generators)))
            witness += source.__name__ == "_witness_presentations"
            if smith_normal_form is not None and a.rows and a.cols:
                s = smith_normal_form(Matrix(a.entries), domain=ZZ)
                assert sorted(factors) == sorted(abs(int(s[i, i])) for i in range(min(s.shape)) if s[i, i] != 0)
    assert non_unit > 80  # the Smith block left after peeling is exercised
    assert peeled > 300
    assert witness > 100


def test_witness_presentations_peel_completely():
    # the unit staircase of every final and the unit kill rows leave nothing for snf
    for p in _witness_presentations():
        n = len(p.generators)
        pivots = abelian._unit_pivots(p.relations, n)
        assert abelian._peeled_block(p.relations, n, pivots) == ()
        assert invariant_factors(p) == (1,) * len(pivots)


def _peeling_disagreements(rows, width, pivot_lists=()) -> list[str]:
    """Where sparse peeling of the rows differs from the dense reference on their dense matrix.

    Compares the pivot lists, then for those pivots and each of
    `pivot_lists` the block left (densified over the columns left) or the
    CertificateError raised.
    """
    a = dense(rows, width)
    pivots = abelian._unit_pivots(rows, width)
    out = [] if pivots == reference.unit_pivots(a) else [f"pivots {pivots} != {reference.unit_pivots(a)}"]
    for given in (pivots, *pivot_lists):
        try:
            got = dense(abelian._peeled_block(rows, width, given), width - len(given)).entries
        except CertificateError as exc:
            got = str(exc)
        try:
            want = reference.peeled_block(a, given)
        except CertificateError as exc:
            want = str(exc)
        if got != want:
            out.append(f"pivots {given}: block {got!r} != {want!r}")
    return out


_sparse_matrices = st.integers(1, 6).flatmap(
    lambda width: st.tuples(
        st.lists(
            st.dictionaries(st.integers(0, width - 1), st.sampled_from((1, -1, 1, -1, 2, -3, 5)), max_size=width),
            max_size=7,
        ),
        st.just(width),
    )
)


@settings(max_examples=300, deadline=None)
@given(_sparse_matrices, st.lists(st.lists(st.tuples(st.integers(0, 7), st.integers(0, 6)), max_size=4), max_size=3))
def test_sparse_peeling_agrees_with_dense_reference(matrix, pivot_lists):
    rows, width = matrix
    assert _peeling_disagreements(rows, width, pivot_lists) == []


def test_sparse_peeling_agrees_with_dense_reference_on_presentations():
    # the shuffled torsion blocks, chain groups with kill rows, and the corrupted pivot lists
    for source in (_torsion_presentations(), _mixed_presentations(), _chain_presentations()):
        for p in source:
            assert _peeling_disagreements(p.relations, len(p.generators)) == []
    assert _peeling_disagreements(_PEELED, 4, _CORRUPTED_PIVOTS.values()) == []


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
        stacked = from_rows(list(relation_matrix(build_chain_group(spec)).entries) + head)
        for step in divisibility_evidence(spec, n - 1):
            target = [0] * j
            target[r] += 1
            target[step.witness_index] -= step.product
            assert solve_z(stacked.transpose(), target) == step.combination + step.head_coefficients
