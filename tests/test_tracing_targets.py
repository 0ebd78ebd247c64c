"""Every function the benchmark's tracer wraps exists under the name it uses.

A rename in `lamsys` then fails here, not in the middle of a benchmark run.
The tracer's source is only read: no module file is imported from
`perfbench/` and nothing is installed.
"""

import importlib
import types
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_tracing_targets_exist():
    tracing = types.ModuleType("tracing")
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), tracing.__dict__)
    lamsys = {m: importlib.import_module(f"lamsys.{m}") for m in tracing.MODULES}
    targets = tracing.targets(lamsys)
    missing = [(owner.__name__, attr) for owner, attr, _, _ in targets if not callable(vars(owner).get(attr))]
    assert missing == []
