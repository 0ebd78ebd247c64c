"""Self-checks outside the linear algebra: each raises CertificateError, also under `python -O`."""

import ast
import contextlib
import os
import subprocess
import sys
from pathlib import Path

from lamsys import freeness, uniformization, whitehead
from lamsys.abelian import CertificateError
from lamsys.core import make_family, make_skeleton

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src" / "lamsys"


def test_no_assert_in_src():
    # an assert vanishes under python -O, so none may do a check's work
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []


# the witness side reads its answers off the unit staircase and the ladder
# side off its congruence lattice; `hnf` and `in_lattice` stay for the
# generation check of `basis` where unit peeling does not settle it, and
# `hnf` for the Hermite form of a ladder core's kernel
_GENERIC_SOLVERS = frozenset(
    {
        "solve_z",
        "integer_solutions",
        "kernel_basis",
        "express_in_lattice",
        "snf",
        "HermiteForm",
        "InfeasibilityCertificate",
    }
)


def test_witness_side_names_no_generic_solver():
    found = []
    for name in ("whitehead.py", "cli.py", "uniformization.py"):
        tree = ast.parse((SRC / name).read_text(), filename=name)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names = {node.id}
            elif isinstance(node, ast.Attribute):
                names = {node.attr}
            elif isinstance(node, ast.alias):
                names = {node.name, node.asname}
            else:
                continue
            found += [f"{name}:{node.lineno}:{x}" for x in sorted(names & _GENERIC_SOLVERS)]
    assert found == []


@contextlib.contextmanager
def _patched(owner, name, value):
    """Set owner.name for the duration; a builtin shadowed this way is unshadowed after."""
    saved = vars(owner).get(name, _patched)
    setattr(owner, name, value)
    try:
        yield
    finally:
        if saved is _patched:
            delattr(owner, name)
        else:
            setattr(owner, name, saved)


@contextlib.contextmanager
def _cold(cache: dict):
    saved = dict(cache)
    cache.clear()
    try:
        yield
    finally:
        cache.clear()
        cache.update(saved)


def _flat_family(n):
    """n finals under the root, final i with private atom p{i} and the shared atom s."""
    finals = [(i,) for i in range(n)]
    sys_ = make_skeleton(
        nodes=[()] + finals,
        level={(): 1, **{f: 0 for f in finals}},
        e_map={(): list(range(n))},
        b_map={(): [], **{f: ["s", f"p{f[0]}"] for f in finals}},
    )
    return make_family(sys_, {(f, 1): ["s", f"p{f[0]}"] for f in finals}, truncation=2)


def _witness_system():
    fam = _flat_family(1)
    return whitehead.WhiteheadSystem(
        system=fam.system, family=fam, r=0, q={(0,): (2, 3)}, d={(0,): ((), ())}, j_trunc=4
    )


def _shared_ladder():
    """Two levels sharing the label a0, so one core row reaches the lattice solve."""
    level = uniformization.LadderLevel
    return uniformization.LadderInstance(
        subcase="i",
        r=0,
        levels=(
            level(alpha=40, ladder=(3, 8), colors=(1, 0), g_labels=("a0", "a1"), primes=(31, 37)),
            level(alpha=50, ladder=(4, 9), colors=(1, 1), g_labels=("a0", "b1"), primes=(31, 41)),
        ),
    )


def self_checks_missed() -> list[str]:
    """Self-checks that returned instead of raising CertificateError on a corrupted result.

    Each case breaks one verifier or one search step, then runs the public
    function that checks it.  Written without `assert` so that it means the
    same under `python -O`.
    """
    never = staticmethod(lambda *args: False)
    power_shift = uniformization._interval_shift_disjoint

    def too_long_shift(y, stride):
        # one full modulus more is the same shift, but it needs an extra digit
        return power_shift(y, stride) + y.modulus

    lattice_basis = uniformization._lattice_basis
    substitute = uniformization._substitute
    particular = uniformization._particular

    def half_index_basis(forms, size):
        # twice the last row spans a sublattice: still triangular, inside the lattice, of twice the index
        basis = lattice_basis(forms, size)
        return basis[:-1] + [[2 * x for x in basis[-1]]]

    def off_kernel_lift(x, rows, decided, rhs):
        # on this ladder the particular solution and the label lift each have
        # a nonzero right side, so only the kernel lift is moved off its rows
        substitute(x, rows, decided, rhs)
        if not any(rhs):
            x[decided[0]] += 1

    def off_particular(*args):
        # y:40:0 holds +1 on the core row, so this moves its value
        c = particular(*args)
        c[0] += 1
        return c

    cases = {
        "transversal": (
            _patched(freeness.Transversal, "verify", never),
            lambda: freeness.find_transversal([{"a"}, {"b"}]),
        ),
        "Hall certificate": (
            _patched(freeness.HallCertificate, "verify", never),
            lambda: freeness.find_transversal([{"a"}, {"a"}]),
        ),
        "k-free Hall certificate": (
            _patched(freeness.HallCertificate, "verify", never),
            lambda: freeness.k_free_check([{"a"}, {"a"}], 3),
        ),
        "reshuffling order": (
            _patched(freeness.ReshufflingOrder, "verify", never),
            lambda: freeness.find_reshuffling(_flat_family(3)),
        ),
        "reshuffling obstruction": (
            # each final holds one private atom, so none can go last at theta 2
            _patched(freeness.ReshufflingObstruction, "verify", never),
            lambda: freeness.find_reshuffling(_flat_family(3), theta_fresh=2),
        ),
        "set shift": (
            # a shift search that returns 0 leaves the set on top of itself
            _patched(uniformization, "next", lambda it, default: 0),
            lambda: uniformization.shift_disjoint({1, 2}, range(40), 40),
        ),
        "prime table classes": (
            _patched(uniformization.IntervalSet, "disjoint_from", lambda self, other: False),
            lambda: uniformization.prime_table(11),
        ),
        "power table classes": (
            _patched(uniformization.IntervalSet, "disjoint_from", lambda self, other: False),
            lambda: uniformization.power_table(2, 1, uniformization.threshold_exponents(2, 0, 1), ()),
        ),
        "power table digits": (
            _patched(uniformization, "_interval_shift_disjoint", too_long_shift),
            lambda: uniformization.power_table(2, 1, uniformization.threshold_exponents(2, 0, 1), ()),
        ),
        "basis generation pivots": (
            # a pivot per generator, all on row 0, so every pivot after the first is on a row peeled before
            _patched(whitehead, "_unit_pivots", lambda a: [(0, j) for j in range(a.cols)]),
            lambda: whitehead.verify_basis(_witness_system(), whitehead.BasisCandidate((), ()), -1, 1),
        ),
        "lattice basis triangular": (
            _patched(uniformization, "_lattice_basis", lambda forms, size: lattice_basis(forms, size)[::-1]),
            lambda: uniformization.simulate(_shared_ladder()),
        ),
        "lattice basis index": (
            _patched(uniformization, "_lattice_basis", half_index_basis),
            lambda: uniformization.simulate(_shared_ladder()),
        ),
        "lifted lattice basis": (
            _patched(uniformization, "_substitute", off_kernel_lift),
            lambda: uniformization.simulate(_shared_ladder()),
        ),
        "particular solution": (
            _patched(uniformization, "_particular", off_particular),
            lambda: uniformization.simulate(_shared_ladder()),
        ),
        "witness equation": (
            _patched(whitehead, "verify_witness", lambda ws, c, w: (False, ((0,), 0))),
            lambda: whitehead.solve_witness(_witness_system(), {(0,): [1, 2]}),
        ),
    }
    # a case here counts only with this message, so that no other check catches it first
    messages = {"lifted lattice basis": "lifted lattice basis row 0 is not in the kernel of the ladder core"}
    missed = []
    for name, (patch, run) in cases.items():
        with patch, _cold(uniformization._prime_cache), _cold(uniformization._power_cache):
            try:
                run()
            except CertificateError as exc:
                if messages.get(name, str(exc)) == str(exc):
                    continue
        missed.append(name)
    return missed


def test_self_checks_raise():
    assert self_checks_missed() == []


def test_self_checks_raise_under_optimize():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(HERE.parent / "src"), str(HERE)]))
    code = (
        "import sys, test_checks\n"
        "if __debug__: sys.exit('assertions are still on')\n"
        "missed = test_checks.self_checks_missed()\n"
        "sys.exit(repr(missed) if missed else 0)\n"
    )
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
