"""Shared instance builders for tests: random skeletons, families, witness systems."""

import contextlib
import gc
import io
import random
import traceback

from lamsys.cli import dispatch
from lamsys.core import make_family, make_skeleton
from lamsys.whitehead import WhiteheadSystem

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
        system=sys_,
        family=fam,
        r=r,
        q=q,
        d=d,
        j_trunc=truncation + r + 2,
    )


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
