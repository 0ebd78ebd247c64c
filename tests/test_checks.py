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
        "witness equation": (
            _patched(whitehead, "verify_witness", lambda ws, c, w: (False, ((0,), 0))),
            lambda: whitehead.solve_witness(_witness_system(), {(0,): [1, 2]}),
        ),
    }
    missed = []
    for name, (patch, run) in cases.items():
        with patch, _cold(uniformization._prime_cache), _cold(uniformization._power_cache):
            try:
                run()
            except CertificateError:
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
