"""Self-checks outside the linear algebra: each raises CertificateError, also under `python -O`."""

import ast
import contextlib
import importlib
import os
import subprocess
import sys
import types
from pathlib import Path

from lamsys import abelian, freeness, uniformization, whitehead
from lamsys.abelian import CertificateError
from lamsys.core import make_family, make_skeleton

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src" / "lamsys"
TRACING = HERE.parent / "perfbench" / "tracing.py"


def test_no_assert_in_src():
    # an assert vanishes under python -O, so none may do a check's work
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []


# outside `abelian`, every module reads its answers off structure: the
# witness side off the unit staircase and the ladder side off its congruence
# lattice; the generation check of `basis` is `abelian.outside_lattice`, and
# `hnf` stays for the Hermite form of a subcase-ii ladder core's kernel
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


def test_no_module_reaches_a_private_name_of_another():
    # a module's underscore names are its own: another lamsys module reaches
    # none of them, by `from .x import _name` or by `x._name` after `from . import x`
    found = []
    paths = sorted(SRC.glob("*.py"))
    assert paths
    for path in paths:
        tree = ast.parse(path.read_text(), filename=path.name)
        modules = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("lamsys")):
                if node.module is None or node.module == "lamsys":
                    modules |= {a.asname or a.name for a in node.names}
                found += [f"{path.name}:{node.lineno}:{a.name}" for a in node.names if a.name.startswith("_")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules:
                if node.attr.startswith("_"):
                    found.append(f"{path.name}:{node.lineno}:{node.value.id}.{node.attr}")
    assert found == []


def test_witness_side_names_no_generic_solver():
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "abelian.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=path.name)):
            if isinstance(node, ast.Name):
                names = {node.id}
            elif isinstance(node, ast.Attribute):
                names = {node.attr}
            elif isinstance(node, ast.alias):
                names = {node.name, node.asname}
            else:
                continue
            found += [f"{path.name}:{node.lineno}:{x}" for x in sorted(names & _GENERIC_SOLVERS)]
    assert found == []


# top-level definitions that no code under src/ needs to reach, each with its reason
_ENTRY_POINTS = {
    ("cli", "main"): "the console-script entry point",
    ("core", "make_skeleton"): "the constructor of skeletons for library callers",
    ("core", "make_family"): "the constructor of families for library callers",
    ("record", "replace"): "the copy-with-changes of a record, for library callers",
    ("abelian", "InfeasibilityCertificate"): "the answer of `solve_z`, which the tracer pins and the CLI does not call",
}


def _traced() -> set:
    """(module, name) of every definition the benchmark's tracer wraps: a function, or a method and its class.

    The tracer's source is read and run, as in `test_tracing_targets.py`;
    nothing is imported from `perfbench/`.
    """
    tracing = types.ModuleType("tracing")
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), tracing.__dict__)
    lamsys = {m: importlib.import_module(f"lamsys.{m}") for m in tracing.MODULES}
    out = set()
    for owner, attr, _, _ in tracing.targets(lamsys):
        if isinstance(owner, types.ModuleType):
            out.add((owner.__name__.rpartition(".")[2], attr))
        else:
            module = owner.__module__.rpartition(".")[2]
            out |= {(module, owner.__name__), (module, f"{owner.__name__}.{attr}")}
    return out


def _named(nodes) -> set:
    """Every name the nodes use, as an AST Name or the attribute of an Attribute."""
    walked = [n for node in nodes for n in ast.walk(node)]
    return {n.id for n in walked if isinstance(n, ast.Name)} | {n.attr for n in walked if isinstance(n, ast.Attribute)}


_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def test_every_src_definition_is_reached():
    """Every top-level function and class under src/, and every method that is no dunder, is reached.

    Module-level statements (they run on import) and `_ENTRY_POINTS` are
    reached; a definition is reached when a reached one names it, as an AST
    Name or Attribute (docstrings and imports do not count).  A method is
    named by its own name, and a class reaches what its body names outside
    those methods; a dunder method counts as part of its class, since Python
    calls it.  A tracer target reaches nothing: what only a tracer target
    uses has no caller.
    """
    defs, names = {}, set()
    for path in sorted(SRC.glob("*.py")):
        for stmt in ast.parse(path.read_text(), filename=path.name).body:
            if isinstance(stmt, _FUNCTIONS):
                defs[(path.stem, stmt.name)] = _named([stmt])
            elif isinstance(stmt, ast.ClassDef):
                methods = [
                    m for m in stmt.body if isinstance(m, _FUNCTIONS) and not (m.name[:2] == m.name[-2:] == "__")
                ]
                rest = [s for s in stmt.body if s not in methods]
                defs[(path.stem, stmt.name)] = _named([*stmt.decorator_list, *stmt.bases, *stmt.keywords, *rest])
                defs.update(((path.stem, f"{stmt.name}.{m.name}"), _named([m])) for m in methods)
            else:
                names |= _named([stmt])
    assert set(_ENTRY_POINTS) <= defs.keys()
    reached = set()
    new = set(_ENTRY_POINTS)
    while new:
        reached |= new
        names = names.union(*(defs[key] for key in new))
        new = {key for key in defs.keys() - reached if key[1].rpartition(".")[2] in names}
    assert sorted(f"{m}.{n}" for m, n in defs.keys() - reached - _traced()) == []


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
        family=fam, r=0, q={(0,): (2, 3)}, d={(0,): ((), ())}, j_trunc=4
    )


def _shared_ladder(*extra):
    """Two levels sharing the label a0, so one core row reaches the lattice solve, then the levels `extra`."""
    level = uniformization.LadderLevel
    return uniformization.LadderInstance(
        subcase="i",
        r=0,
        levels=(
            level(alpha=40, ladder=(3, 8), colors=(1, 0), g_labels=("a0", "a1"), primes=(31, 37)),
            level(alpha=50, ladder=(4, 9), colors=(1, 1), g_labels=("a0", "b1"), primes=(31, 41)),
            *extra,
        ),
    )


def self_checks_missed() -> list[str]:
    """Self-checks that returned instead of raising CertificateError on a corrupted result.

    Each case breaks one verifier or one search step, then runs the public
    function that checks it.  Written without `assert` so that it means the
    same under `python -O`.
    """
    never = staticmethod(lambda *args: False)
    least_uncovered = uniformization.IntervalSet.least_uncovered_multiple

    def too_long_shift(diffs, stride):
        # one full modulus more is the same shift, but it needs an extra digit
        return least_uncovered(diffs, stride) + diffs.modulus

    lattice_basis = uniformization._lattice_basis
    substitute = uniformization._substitute
    particular = uniformization._particular

    def half_index_basis(forms, size):
        # twice the last row spans a sublattice: still triangular, inside the lattice, of twice the index
        basis = lattice_basis(forms, size)
        return basis[:-1] + [{i: 2 * x for i, x in basis[-1].items()}]

    def off_kernel_lift(x, rows, decided, rhs):
        # on this ladder the particular solution and the label lift each have
        # a nonzero right side, so only the kernel lift is moved off its rows
        substitute(x, rows, decided, rhs)
        if not any(rhs):
            x[decided[0]] += 1

    def off_rows_lift(x, rows, decided, rhs):
        # a kernel lift also sets a column that none of its rows holds, so only a row it skipped meets it
        substitute(x, rows, decided, rhs)
        outside = [t for t in range(len(x)) if all(t not in row for row in rows)]
        if outside and not any(rhs):
            x[outside[0]] = 1

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
        "prime table classes": (
            _patched(uniformization.IntervalSet, "disjoint_from", lambda self, other: False),
            lambda: uniformization.prime_table(11),
        ),
        "power table classes": (
            _patched(uniformization.IntervalSet, "disjoint_from", lambda self, other: False),
            lambda: uniformization.power_table(2, 1, uniformization.threshold_exponents(2, 0, 1), ()),
        ),
        "power table digits": (
            _patched(uniformization.IntervalSet, "least_uncovered_multiple", too_long_shift),
            lambda: uniformization.power_table(2, 1, uniformization.threshold_exponents(2, 0, 1), ()),
        ),
        "basis generation pivots": (
            # a pivot per column, all on row 0, so every pivot after the first is on a row peeled before;
            # through `verify_basis`, `invariant_factors` would re-check these pivots first
            _patched(abelian, "_unit_pivots", lambda rows, width: [(0, j) for j in range(width)]),
            lambda: abelian.outside_lattice(({0: 1}, {1: 1}), 2),
        ),
        "quotient invariant factors": (
            # every quotient presentation peels to unit pivots, so a factor 2 is the program's fault
            _patched(whitehead, "invariant_factors", lambda p: (1, 2)),
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
        "lifted lattice basis support": (
            # b1, now shared too, makes a second core row, which the lift of basis row 1 is not run on
            _patched(uniformization, "_substitute", off_rows_lift),
            lambda: uniformization.simulate(
                _shared_ladder(uniformization.LadderLevel(alpha=60, ladder=(5, 10), colors=(0, 1), g_labels=("c0", "b1"), primes=(43, 41)))
            ),
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
    messages = {
        "lifted lattice basis": "lifted lattice basis row 0 is not in the kernel of the ladder core",
        "lifted lattice basis support": "lifted lattice basis row 1 is not in the kernel of the ladder core",
        "power table digits": "power table mod 2^4: shift 19 has more than 4 digits",
    }
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
