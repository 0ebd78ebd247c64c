"""Every function the benchmark's tracer wraps exists under the name it uses.

A rename in `lamsys` then fails here, not in the middle of a benchmark run.
The tracer's source is only read: no module file is imported from
`perfbench/` and nothing is installed.
"""

import importlib
import types
from pathlib import Path

from lamsys.core import make_family, make_skeleton
from lamsys.freeness import find_reshuffling

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _targets():
    tracing = types.ModuleType("tracing")
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), tracing.__dict__)
    lamsys = {m: importlib.import_module(f"lamsys.{m}") for m in tracing.MODULES}
    return tracing, tracing.targets(lamsys)


def test_tracing_targets_exist():
    _, targets = _targets()
    missing = [(owner.__name__, attr) for owner, attr, _, _ in targets if not callable(vars(owner).get(attr))]
    assert missing == []


def test_reshuffle_measure_reads_a_real_result():
    # (2,) holds b alone and is peeled; (0,) and (1,) share a and stay
    finals = [(0,), (1,), (2,)]
    sys_ = make_skeleton(nodes=[()] + finals, level={(): 1, **{z: 0 for z in finals}}, e_map={(): [0, 1, 2]}, b_map={})
    fam = make_family(sys_, {((0,), 1): ["a"], ((1,), 1): ["a"], ((2,), 1): ["b"]}, truncation=1)
    tracing, targets = _targets()
    measure = next(m for _, attr, _, m in targets if attr == "find_reshuffling")
    tracer = tracing.Tracer()
    measure(tracer, (fam,), find_reshuffling(fam))
    assert tracer.values["freeness.find_reshuffling.nodes_visited"] == 1
