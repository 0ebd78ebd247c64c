"""Seeded benchmark of the lamsys CLI.

Run from the repository root:

    python3 perfbench/run.py --workload families --seed 1 --seconds 15 --trace 0

It writes the workload's input documents under perfbench/out/, then drives
`lamsys.cli.dispatch` in-process on them, one operation at a time (closed
loop, one client), in whole rounds over the fixed input set until
`--seconds` have passed.  The outputs of the first round are checked by
`checks.py` and every later round must reproduce them byte for byte.
Timings are scaled to a reference machine speed (see `calibrate`).  The
last line of stdout is one JSON object: `correct`, `attempted`, `failed` and
the end-to-end metrics (`--trace 0`) or the per-layer metrics (`--trace 1`).
See README.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import checks
import workloads
from tracing import Tracer, layer_unit

SETUP_SPAWNS = 11
# The machine's speed drifts by half or more over minutes, as other tenants
# of its cores come and go.  Each timing is therefore scaled by the ratio of
# CAL_REF_S to the time `calibrate` takes right before and right after it.
# CAL_REF_S is a fixed round figure near the calibration's time on an
# unloaded core of a 2-core x86-64 machine with Python 3.11.7; it sets the
# scale of the reported seconds and nothing else.
CAL_REF_S = 0.002
CAL_MOD = 2 ** 1200 + 1
CAL_LIST = list(range(200_000))
UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "op_p50_ms": "ms",
    "largest_op_s": "s",
    "peak_rss_mb": "MB",
    "cert_bits_max": "bits",
}
NUMBER = re.compile(r"-?\d+(/\d+)?")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def calibrate() -> float:
    """Seconds taken by a fixed pure-Python loop.

    Big-int arithmetic, list appends, dict stores and a sort, then strided
    reads over a list of several megabytes: the exact solvers' large
    matrices slow with the memory traffic of other tenants more than
    cache-resident arithmetic does.
    """
    start = time.perf_counter()
    x, rows, seen = 3 ** 400, [], {}
    for i in range(1500):
        x = (x * 7 + i) % CAL_MOD
        rows.append((x & 0xFFFF, i))
        seen[i] = x
    rows.sort()
    total = 0
    for i in range(0, len(CAL_LIST), 67):
        total += CAL_LIST[i * 7919 % len(CAL_LIST)]
    return time.perf_counter() - start


def at_reference_speed(elapsed: float, before: float, after: float) -> float:
    """`elapsed` scaled by the machine's speed, from calibrations on either side."""
    return elapsed * CAL_REF_S * 2 / (before + after)


def setup_seconds(root: Path) -> tuple[float, float]:
    """Median time from a fresh interpreter's start to `lamsys.cli` imported (scaled, raw)."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    code = "import lamsys.cli, time; print(repr(time.monotonic()))"
    scaled, raw = [], []
    for _ in range(SETUP_SPAWNS):
        before = calibrate()
        start = time.monotonic()
        done = subprocess.run([sys.executable, "-c", code], env=env, cwd=root, capture_output=True, text=True, check=True)
        raw.append(float(done.stdout) - start)
        scaled.append(at_reference_speed(raw[-1], before, calibrate()))
    return statistics.median(scaled), statistics.median(raw)


def run_op(dispatch, op) -> tuple[float, int | None, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        start = time.perf_counter()
        try:
            code = dispatch(op.argv)
        except Exception:  # a crash is a failed operation, not the end of the run
            print(f"{op.label} raised:", file=sys.stderr)
            traceback.print_exc()
            code = None
        elapsed = time.perf_counter() - start
    return elapsed, code, buf.getvalue()


class Rounds:
    """Whole rounds over the input set; the first round's outputs are kept for checking."""

    def __init__(self, cli, ops):
        self.cli, self.ops = cli, ops
        self.first: list[tuple[int | None, str]] | None = None
        self.attempted = self.failed = 0
        self.differs: set[str] = set()

    def _attempt(self, op, outputs: list) -> float:
        elapsed, code, text = run_op(self.cli.dispatch, op)
        self.attempted += 1
        if code is None or code == 2:
            self.failed += 1
        outputs.append((code, text))
        return elapsed

    def _compare(self, outputs: list) -> None:
        if self.first is None:
            self.first = outputs
        else:
            self.differs.update(op.label for op, a, b in zip(self.ops, self.first, outputs) if a != b)

    def run(self) -> tuple[list[float], list[float]]:
        """One round; each operation's time, scaled and raw."""
        outputs: list = []
        raw, cal = [], [calibrate()]
        for op in self.ops:
            raw.append(self._attempt(op, outputs))
            cal.append(calibrate())
        self._compare(outputs)
        return [at_reference_speed(t, a, b) for t, a, b in zip(raw, cal, cal[1:])], raw

    def run_paired(self, tracer: Tracer) -> tuple[float, float]:
        """Each operation untraced, then at once traced; the two rounds' total times.

        Pairing at the operation keeps drifts in machine speed, which last
        seconds, out of the traced-minus-untraced difference.
        """
        plain: list = []
        traced: list = []
        plain_s = traced_s = 0.0
        for i, op in enumerate(self.ops):
            plain_s += self._attempt(op, plain)
            tracer.op = f"{i}:{op.label}"
            tracer.install()
            try:
                traced_s += self._attempt(op, traced)
            finally:
                tracer.uninstall()
        self._compare(plain)
        self._compare(traced)
        return plain_s, traced_s


def cert_bits(obj) -> int:
    """Largest bit length of any integer, or integer or fraction string, in a document."""
    if isinstance(obj, bool):
        return 0
    if isinstance(obj, int):
        return abs(obj).bit_length()
    if isinstance(obj, str):
        if NUMBER.fullmatch(obj):
            return max(abs(int(part)).bit_length() for part in obj.split("/"))
        return 0
    if isinstance(obj, dict):
        return max(map(cert_bits, obj.values()), default=0)
    if isinstance(obj, list):
        return max(map(cert_bits, obj), default=0)
    return 0


def check_outputs(rounds: Rounds) -> tuple[bool, int]:
    """Run every checker on the first round's outputs; also return the payloads' largest bit length."""
    correct, bits = True, 0
    for op, (code, text) in zip(rounds.ops, rounds.first):
        if code is None or code == 2:
            continue
        payload = json.loads(text)
        payload.pop("manifest", None)
        bits = max(bits, cert_bits(payload))
        problems = op.check(payload, code)
        if op.label in rounds.differs:
            problems.append("a later round gave different output")
        for problem in problems:
            print(f"CHECK FAILED {op.label}: {problem}", file=sys.stderr)
        correct &= not problems
    return correct, bits


def main(argv) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "lamsys" / "cli.py").is_file():
        print("perfbench: run from the repository root; src/lamsys/cli.py not found", file=sys.stderr)
        return 2
    setup, setup_raw = setup_seconds(root) if args.trace == 0 else (None, None)

    sys.path.insert(0, str(root / "src"))
    from lamsys import cli

    work = Path("perfbench") / "out" / f"{args.workload}-{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    ops = workloads.WORKLOADS[args.workload](work, args.seed, checks)
    largest = next(i for i, op in enumerate(ops) if op.largest)
    rounds = Rounds(cli, ops)

    round_s, op_s, largest_s = [], [], []
    traced_s, layers = [], []
    started = time.perf_counter()
    if args.trace == 0:
        raw_round_s, raw_op_s = [], []
        while not round_s or time.perf_counter() - started < args.seconds:
            times, raw = rounds.run()
            round_s.append(sum(times))
            op_s += times
            largest_s.append(times[largest])
            raw_round_s.append(sum(raw))
            raw_op_s += raw
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        print(
            f"raw wall time: setup_s {setup_raw:.4f}, run_s {statistics.median(raw_round_s):.4f}, "
            f"op_p50_ms {statistics.median(raw_op_s) * 1e3:.3f}",
            file=sys.stderr,
        )
    else:
        # a first untraced round fills the table caches; after it every
        # operation runs untraced and then traced, and the difference of the
        # two is the tracing overhead
        tracer = Tracer()
        rounds.run()
        while not traced_s or time.perf_counter() - started < args.seconds:
            first = len(tracer.spans)
            plain, traced = rounds.run_paired(tracer)
            round_s.append(plain)
            traced_s.append(traced)
            layers.append(tracer.round_metrics(first))
        tracer.write(work / "spans.jsonl")

    correct, bits = check_outputs(rounds)
    if args.trace == 0:
        values = {
            "setup_s": setup,
            "run_s": statistics.median(round_s),
            "op_p50_ms": statistics.median(op_s) * 1e3,
            "largest_op_s": statistics.median(largest_s),
            "peak_rss_mb": peak_rss_mb,
            "cert_bits_max": bits,
        }
        metrics = {name: {"value": values[name], "unit": UNITS[name]} for name in UNITS}
    else:
        values = {name: statistics.median(layer[name] for layer in layers) for name in layers[0]}
        values["trace.overhead_s"] = statistics.median(t - u for t, u in zip(traced_s, round_s))
        metrics = {name: {"value": value, "unit": layer_unit(name)} for name, value in values.items()}
    print(json.dumps({"correct": correct, "attempted": rounds.attempted, "failed": rounds.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
