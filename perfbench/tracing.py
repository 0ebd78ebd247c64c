"""Spans around the public functions of each lamsys layer, installed from outside.

`install` replaces each traced function, in every lamsys module that binds
it, by a wrapper that records a span (name, start, end, parent, op) and, for
some layers, a size figure.  `uninstall` puts the originals back, so untraced
rounds run the unmodified code.  Spans stay in memory until `write`.

A span's self time is its duration minus its direct children's durations.
Size figures are taken inside a `trace.measure` child span, so the time
spent measuring is charged to no layer.  Helpers that are not wrapped (for
example `rank`, `matrix_rank`, `IntMatrix.det`) count in their caller's self
time.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict

MODULES = ("cli", "jsonio", "core", "freeness", "abelian", "uniformization", "whitehead")
MEASURE = "trace.measure"


def _bits(rows) -> int:
    return max((abs(x).bit_length() for row in rows for x in row), default=0)


def _snf(tracer, args, result):
    a = args[0]
    tracer.maximum("abelian.snf.cells_max", a.rows * a.cols)
    tracer.maximum("abelian.snf.transform_bits_max", max(_bits(result.u.entries), _bits(result.v.entries)))


def _hnf(tracer, args, result):
    tracer.maximum("abelian.hnf.transform_bits_max", _bits(result[1].entries))


def _kernel(tracer, args, result):
    tracer.maximum("abelian.kernel_basis.entry_bits_max", _bits(result.entries))


def _reshuffle(tracer, args, result):
    tracer.add("freeness.find_reshuffling.nodes_visited", result.nodes_visited)


def _table(tracer, args, result):
    tracer.table_keys.add(result.key)


def _dump(tracer, args, result):
    tracer.add("jsonio.dump.bytes", len(result.encode()))


def targets(lamsys) -> list[tuple[object, str, str, object]]:
    """(owner, attribute, span name, measure) for every traced function."""
    core, abelian = lamsys["core"], lamsys["abelian"]
    jsonio, freeness = lamsys["jsonio"], lamsys["freeness"]
    uni, white = lamsys["uniformization"], lamsys["whitehead"]
    out = [(lamsys["cli"], "dispatch", "cli.dispatch", None)]
    for name, func in vars(jsonio).items():
        if getattr(func, "__module__", None) != jsonio.__name__:
            continue
        if name.endswith("_from_doc"):
            out.append((jsonio, name, "jsonio.from_doc", None))
        elif name.endswith("_to_doc"):
            out.append((jsonio, name, "jsonio.to_doc", None))
    out.append((jsonio, "dump", "jsonio.dump", _dump))
    out.append((core.SystemSkeleton, "finals", "core.finals", None))
    out += [(core, n, "core.validate", None) for n in ("validate_system", "validate_family", "check_structure")]
    out += [(core, n, "core.transform", None) for n in ("transform_disjoint", "transform_tree")]
    out.append((freeness, "find_transversal", "freeness.find_transversal", None))
    out.append((freeness, "k_free_check", "freeness.k_free_check", None))
    out.append((freeness, "find_reshuffling", "freeness.find_reshuffling", _reshuffle))
    out.append((abelian, "snf", "abelian.snf", _snf))
    out.append((abelian.SmithDecomposition, "verify", "abelian.snf.verify", None))
    out.append((abelian, "hnf", "abelian.hnf", _hnf))
    out.append((abelian, "solve_z", "abelian.solve_z", None))
    out.append((abelian, "kernel_basis", "abelian.kernel_basis", _kernel))
    out.append((abelian, "invariant_factors", "abelian.invariant_factors", None))
    out += [(uni, n, "uniformization.tables", _table) for n in ("prime_table", "power_table")]
    out.append((uni, "simulate", "uniformization.simulate", None))
    for n in ("solve_witness", "build_witness_group", "enumerate_basis", "verify_basis"):
        out.append((white, n, f"whitehead.{n}", None))
    return out


def layer_unit(name: str) -> str:
    for suffix, unit in (("_s", "s"), ("bytes", "bytes"), ("bits_max", "bits")):
        if name.endswith(suffix):
            return unit
    return "count"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, op]
        self._stack: list[int] = []
        self.op = None
        self.values: dict = defaultdict(int)
        self.table_keys: set = set()
        self._saved: list = []

    def open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, self._stack[-1] if self._stack else None, self.op])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        while self._stack and self._stack.pop() != idx:
            pass

    def add(self, name: str, amount: int) -> None:
        self.values[name] += amount

    def maximum(self, name: str, value: int) -> None:
        self.values[name] = max(self.values[name], value)

    def _wrap(self, func, name, measure):
        @functools.wraps(func)
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                result = func(*args, **kwargs)
                if measure is not None:
                    m = self.open(MEASURE)
                    measure(self, args, result)
                    self.close(m)
                return result
            finally:
                self.close(idx)

        return traced

    def install(self) -> None:
        lamsys = {m: importlib.import_module(f"lamsys.{m}") for m in MODULES}
        modules = [importlib.import_module("lamsys"), *lamsys.values()]
        for owner, attr, name, measure in targets(lamsys):
            original = vars(owner)[attr]
            wrapper = self._wrap(original, name, measure)
            holders = [owner] if isinstance(owner, type) else modules
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._saved.append((holder, key, original))
                        setattr(holder, key, wrapper)

    def uninstall(self) -> None:
        for holder, key, original in reversed(self._saved):
            setattr(holder, key, original)
        self._saved.clear()

    def round_metrics(self, first: int) -> dict:
        """Per-layer figures of the spans from index `first` on, then reset the counters."""
        spans = self.spans[first:]
        child = defaultdict(float)
        for name, start, end, parent, _ in spans:
            if parent is not None and parent >= first:
                child[parent] += end - start
        self_s, calls = defaultdict(float), defaultdict(int)
        for i, (name, start, end, _, _) in enumerate(spans, start=first):
            self_s[name] += end - start - child[i]
            calls[name] += 1
        out = {}
        for name in (
            "cli.dispatch", "jsonio.from_doc", "jsonio.to_doc", "jsonio.dump", "core.finals",
            "core.validate", "core.transform", "freeness.find_transversal", "freeness.k_free_check",
            "freeness.find_reshuffling", "abelian.snf", "abelian.hnf", "abelian.solve_z",
            "abelian.kernel_basis", "abelian.invariant_factors", "uniformization.tables",
            "uniformization.simulate", "whitehead.solve_witness", "whitehead.build_witness_group",
            "whitehead.enumerate_basis", "whitehead.verify_basis",
        ):
            out[f"{name}.self_s"] = self_s[name]
        out["abelian.snf.verify_s"] = self_s["abelian.snf.verify"]
        for name in ("core.finals", "freeness.find_transversal", "abelian.snf", "abelian.hnf", "uniformization.tables"):
            out[f"{name}.calls"] = calls[name]
        for name in (
            "jsonio.dump.bytes", "freeness.find_reshuffling.nodes_visited", "abelian.snf.cells_max",
            "abelian.snf.transform_bits_max", "abelian.hnf.transform_bits_max", "abelian.kernel_basis.entry_bits_max",
        ):
            out[name] = self.values[name]
        out["uniformization.tables.built"] = len(self.table_keys)
        self.values.clear()
        self.table_keys.clear()
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent, "op": op}) + "\n")
