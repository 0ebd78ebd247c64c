"""Shared test helpers: random skeletons, families and witness systems, and small
operations that only tests need (a matrix-vector product, carrying a witness
across a transform, freeness and free rank of a presentation, dense matrices
from lists and relation rows in both forms, the residues and size of an interval set)."""

import contextlib
import gc
import io
import random
import traceback

from lamsys.abelian import IntMatrix, dense, invariant_factors
from lamsys.cli import dispatch
from lamsys.core import TransformResult, make_family, make_skeleton
from lamsys.jsonio import SCHEMA
from lamsys.record import replace
from lamsys.uniformization import IntervalSet, LadderInstance
from lamsys.whitehead import Witness, WhiteheadSystem

PRIME_POOL = (2, 3, 5, 7, 11, 13)


def random_whitehead_system(
    rng: random.Random,
    n: int = 2,
    r: int = 1,
    truncation: int = 4,
    width: int = 2,
    cross_level_atoms: bool = False,
    pool_slack: int = 2,
):
    """Random height-n witness system with heavy same-level atom sharing.

    Sibling carriers coincide, so the chain condition holds trivially.  With
    cross_level_atoms the deepest carriers also contain the level-1 pool,
    which couples equations across levels.
    """
    assert n in (1, 2)
    pool1 = [f"u{i}" for i in range(truncation + pool_slack)]
    pool2 = [f"v{i}" for i in range(truncation + pool_slack)]
    if n == 1:
        firsts = sorted(rng.sample(range(6), width))
        finals = [(i,) for i in firsts]
        nodes = [()] + finals
        level = {(): 1, **{f: 0 for f in finals}}
        e_map = {(): firsts}
        b_map = {(): [], **{f: pool1 for f in finals}}
    else:
        firsts = sorted(rng.sample(range(6), width))
        mids = [(i,) for i in firsts]
        finals = []
        e_map = {(): firsts}
        for mid in mids:
            seconds = sorted(rng.sample(range(4), rng.randint(1, 2)))
            e_map[mid] = seconds
            finals += [mid + (j,) for j in seconds]
        nodes = [()] + mids + finals
        deep_pool = pool2 + (pool1 if cross_level_atoms else [])
        level = {(): 2, **{m: 1 for m in mids}, **{f: 0 for f in finals}}
        b_map = {(): [], **{m: pool1 for m in mids}, **{f: deep_pool for f in finals}}
    sys_ = make_skeleton(nodes=nodes, level=level, e_map=e_map, b_map=b_map)
    phi = {}
    for z in finals:
        for k in range(1, len(z) + 1):
            pool = b_map[z[:k]]
            phi[(z, k)] = rng.sample(sorted(pool), truncation)
    fam = make_family(sys_, phi, truncation=truncation)
    q = {z: tuple(rng.choice(PRIME_POOL) for _ in range(truncation)) for z in finals}
    d = {
        z: tuple(tuple(rng.randint(-3, 3) for _ in range(r)) for _ in range(truncation))
        for z in finals
    }
    return WhiteheadSystem(
        family=fam,
        r=r,
        q=q,
        d=d,
        j_trunc=truncation + r + 2,
    )


def transformed_system(ws: WhiteheadSystem, result: TransformResult) -> WhiteheadSystem:
    """Same primes and coefficients over the transformed family and its skeleton."""
    return replace(ws, family=result.family)


def transport_witness(result: TransformResult, ws_new: WhiteheadSystem, w: Witness) -> Witness:
    """Carry a witness across a transform: f(new) = f(old), a unchanged.

    The paper's fact that a transform keeps every coloring witnessed: each
    transformed atom takes the value of the atom it came from.
    """
    f = {}
    for z in ws_new.finals():
        for k in ws_new.levels(z):
            for x in ws_new.family.phi[(z, k)]:
                f[x] = w.f[result.old_of_new[x]]
    return Witness(f, dict(w.a))


def from_rows(rows) -> IntMatrix:
    """The dense matrix with these rows, each entry converted by `int`."""
    return IntMatrix(tuple(tuple(int(x) for x in row) for row in rows))


def sparse(rows) -> tuple[dict[int, int], ...]:
    """Dense rows as relation rows {column: nonzero entry}."""
    return tuple({j: int(x) for j, x in enumerate(row) if x} for row in rows)


def relation_matrix(p) -> IntMatrix:
    """The dense relation matrix of a presentation, one column per generator."""
    return dense(p.relations, len(p.generators))


def residues(s: IntervalSet):
    """Every residue in the interval set, in increasing order."""
    for lo, hi in s.segments:
        yield from range(lo, hi + 1)


def interval_size(s: IntervalSet) -> int:
    """The number of residues in the interval set."""
    return sum(hi - lo + 1 for lo, hi in s.segments)


def mat_vec(a: IntMatrix, v) -> tuple[int, ...]:
    """The product of `a` and the column vector `v`."""
    return tuple(sum(x * y for x, y in zip(row, v, strict=True)) for row in a.entries)


def is_free(p) -> bool:
    """Whether the presentation's group is free abelian: every invariant factor is 1."""
    return all(d == 1 for d in invariant_factors(p))


def free_rank(p) -> int:
    """Generators minus the number of nonzero invariant factors."""
    return len(p.generators) - len(invariant_factors(p))


def instance_to_doc(inst: LadderInstance) -> dict:
    """The ladder-instance document that `jsonio.instance_from_doc` reads back as `inst`."""
    doc = {"schema": SCHEMA, "subcase": inst.subcase, "r": inst.r, "levels": {}}
    doc.update((key, v) for key, v in (("p", inst.p), ("i_max", inst.i_max)) if v is not None)
    for lv in inst.levels:
        entry = {"ladder": list(lv.ladder), "colors": list(lv.colors), "g": list(lv.g_labels)}
        if lv.mu:
            entry["mu"] = [list(row) for row in lv.mu]
        if lv.primes is not None:
            entry["primes"] = list(lv.primes)
        doc["levels"][str(lv.alpha)] = entry
    return doc


def random_coloring(rng: random.Random, ws: WhiteheadSystem, bound: int = 6):
    return {
        z: [rng.randint(-bound, bound) for _ in range(ws.m_range)]
        for z in ws.finals()
    }


def run_dispatch(argv):
    """Run the CLI in-process; returns (exit code, stdout text).

    An exception that escapes `dispatch` is reported as exit 1, the status
    a command-line run ends with on an uncaught exception; its traceback goes
    to stderr.
    """
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            code = dispatch(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:
            traceback.print_exc()
            code = 1
    return code, buf.getvalue()


@contextlib.contextmanager
def collector(enabled: bool):
    """Run the block with the cyclic garbage collector on or off, then put back its state."""
    was = gc.isenabled()
    gc.enable() if enabled else gc.disable()
    try:
        yield
    finally:
        gc.enable() if was else gc.disable()
