"""JSON documents for skeletons, families, witness systems, instances, and certificates.

One schema version string covers every document; unknown fields are
rejected so a certificate can never silently carry unchecked data.  Atoms
map to JSON as int | str | list (lists become tuples on load); node keys
are dot-joined digit strings with the empty string for the root.  Residue
tables serialize residues and moduli as decimal strings since the moduli
outgrow native word sizes.

`dump` writes exactly the bytes of `json.dumps(doc, sort_keys=True,
indent=2) + "\n"`.  The standard library writes indented JSON with its
pure-Python encoder; `dump` instead hands each flat container (one whose
values are all strings, numbers, bools or null) whole to the C encoder,
with the item separator set to a line break and that container's indent,
and adds the line breaks around its brackets itself; only containers that
hold other containers are walked in Python.  Integers of any length are
written: every int-to-decimal conversion here lifts Python's 4,300-digit
limit (`_unlimited_digits`).
"""

from __future__ import annotations

import json
import sys
import threading
from contextlib import contextmanager
from functools import cache
from json.encoder import JSONEncoder, c_make_encoder, encode_basestring_ascii
from typing import Any, Callable, Mapping

from .abelian import IntMatrix, NonfreeSpec, Presentation
from .core import (
    Atom,
    BasedFamily,
    Node,
    SystemSkeleton,
    atom_sort_key,
    node_key,
    parse_node_key,
)
from .freeness import HallCertificate, ReshufflingObstruction, ReshufflingOrder, Transversal
from .uniformization import (
    LadderInstance,
    LadderLevel,
    PowerTable,
    PrimeTable,
    SimulationReport,
)
from .whitehead import BasisCandidate, Witness, WhiteheadSystem

SCHEMA = "lamsys/1"


class InputError(ValueError):
    """Malformed document: wrong schema, unknown field, or bad shape."""


_DIGITS_LOCK = threading.RLock()


@contextmanager
def _unlimited_digits():
    """Write ints of any length as decimal text while the block runs.

    Python (3.10.7 on) refuses to write an int of more than 4,300 digits as
    text, a guard for parsing untrusted input; results such as the products
    of `build-group --m-max` or the moduli of `unif-table` outgrow it.  The
    limit is lifted for the block only and put back afterwards; it is
    interpreter-wide, so concurrent blocks take turns (a nested block finds
    it lifted already and leaves it alone).
    """
    with _DIGITS_LOCK:
        limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
        if limit:
            sys.set_int_max_str_digits(0)
        try:
            yield
        finally:
            if limit:
                sys.set_int_max_str_digits(limit)


def _require_keys(doc: Mapping, required: set[str], optional: set[str], context: str) -> None:
    keys = set(doc)
    missing = required - keys
    unknown = keys - required - optional
    if missing:
        raise InputError(f"{context}: missing fields {sorted(missing)}")
    if unknown:
        raise InputError(f"{context}: unknown fields {sorted(unknown)} (strict parsing)")


def _check_schema(doc: Mapping, context: str) -> None:
    if not isinstance(doc, dict):
        raise InputError(f"{context}: expected a JSON object")
    if doc.get("schema") != SCHEMA:
        raise InputError(f"{context}: schema must be {SCHEMA!r}, got {doc.get('schema')!r}")


# The helpers below take the field name and the keys that lead to the value
# as `where`, and format them only on failure: documents carry thousands of
# values, and a message built per value would double the load time.


def _malformed(expected: str, v, field: str, keys) -> InputError:
    path = "".join(f" {k!r}" for k in keys)
    return InputError(f"{field}{path}: expected {expected}, got {v!r}")


def _int(v, field: str, *keys) -> int:
    """A JSON integer; bools, floats, strings and null are malformed."""
    if type(v) is int:  # bool is a subclass of int, so isinstance would let it through
        return v
    raise _malformed("an integer", v, field, keys)


def _str(v, field: str, *keys) -> str:
    if type(v) is str:
        return v
    raise _malformed("a string", v, field, keys)


def _ints(v, field: str, *keys) -> tuple[int, ...]:
    if isinstance(v, list) and all(type(x) is int for x in v):
        return tuple(v)
    raise _malformed("a list of integers", v, field, keys)


def _int_rows(v, field: str, *keys) -> tuple[tuple[int, ...], ...]:
    if isinstance(v, list):
        return tuple(_ints(row, field, *keys) for row in v)
    raise _malformed("a list of integer lists", v, field, keys)


def _object(v, field: str, *keys) -> dict:
    if isinstance(v, dict):
        return v
    raise _malformed("a JSON object", v, field, keys)


def _list(v, field: str, *keys) -> list:
    if isinstance(v, list):
        return v
    raise _malformed("a list", v, field, keys)


def _strs(v, field: str, *keys) -> list[str]:
    if isinstance(v, list) and all(type(x) is str for x in v):
        return v
    raise _malformed("a list of strings", v, field, keys)


def atom_to_jsonable(a: Atom):
    if isinstance(a, tuple):
        return [atom_to_jsonable(x) for x in a]
    if isinstance(a, (int, str)) and not isinstance(a, bool):
        return a
    raise InputError(f"not a serializable atom: {a!r}")


def atom_from_jsonable(v) -> Atom:
    if isinstance(v, list):
        return tuple(atom_from_jsonable(x) for x in v)
    if isinstance(v, (int, str)) and not isinstance(v, bool):
        return v
    raise InputError(f"not an atom: {v!r}")


_PLAIN_ATOMS = frozenset({int, str})


def _atoms(v, field: str, *keys):
    """The atoms of a B list or phi slice; a list of plain ints and strings is taken as is."""
    v = _list(v, field, *keys)
    # exact types: a bool is an int subclass, so it still reaches atom_from_jsonable and is refused
    return v if _PLAIN_ATOMS.issuperset(map(type, v)) else map(atom_from_jsonable, v)


class _NodeKeys(dict):
    """Node-key string -> node, each distinct string parsed once per document."""

    def __missing__(self, key: str) -> Node:
        node = self[key] = parse_node_key(key)
        return node


# --- skeleton / family / witness system --------------------------------------

_SYSTEM_REQUIRED = {"schema", "nodes", "level", "E", "B"}
_SYSTEM_OPTIONAL = {"largeness", "phi", "truncation", "r", "q", "d", "J", "strong"}


def system_to_doc(
    sys_: SystemSkeleton,
    fam: BasedFamily | None = None,
    ws: WhiteheadSystem | None = None,
) -> dict:
    nodes = sys_.sorted_nodes()
    keys = {n: node_key(n) for n in nodes}

    def key(n: Node) -> str:
        # a final the skeleton does not list is keyed on its own; the root's "" is falsy but the same
        return keys.get(n) or node_key(n)

    carriers = [sys_.B.get(n, frozenset()) for n in nodes]
    slices = {}
    if fam is not None:
        slices = {key(z): {str(k): fam.phi.get((z, k), ()) for k in range(1, len(z) + 1)} for z in fam.finals}
    # sort keys and JSON forms once per distinct atom, not once per occurrence
    carrier_atoms = set().union(*carriers)
    sort_key = {a: atom_sort_key(a) for a in carrier_atoms}
    as_json = {
        a: atom_to_jsonable(a)
        for a in carrier_atoms.union(*(vals for per_level in slices.values() for vals in per_level.values()))
    }
    doc: dict[str, Any] = {
        "schema": SCHEMA,
        "nodes": list(keys.values()),
        "level": {k: sys_.level[n] for n, k in keys.items()},
        "E": {k: sorted(sys_.E[n]) for n, k in keys.items() if n in sys_.E},
        "B": {
            k: [as_json[a] for a in sorted(carrier, key=sort_key.__getitem__)]
            for k, carrier in zip(keys.values(), carriers)
        },
        "largeness": sys_.largeness,
    }
    if fam is not None:
        doc["phi"] = {
            zk: {k: [as_json[a] for a in vals] for k, vals in per_level.items()}
            for zk, per_level in slices.items()
        }
        doc["truncation"] = fam.truncation
    if ws is not None:
        doc["r"] = ws.r
        doc["q"] = {key(z): list(ws.q[z]) for z in ws.finals()}
        doc["d"] = {key(z): [list(row) for row in ws.d[z]] for z in ws.finals()}
        doc["J"] = ws.j_trunc
        if ws.strong_order is not None:
            doc["strong"] = ws.strong_order.to_jsonable()
    return doc


def system_from_doc(doc: Mapping) -> SystemSkeleton:
    return _system(doc)[0]


def _system(doc: Mapping) -> tuple[SystemSkeleton, _NodeKeys]:
    """The skeleton, and the node keys parsed on the way for the rest of the document."""
    _check_schema(doc, "system document")
    _require_keys(doc, _SYSTEM_REQUIRED, _SYSTEM_OPTIONAL, "system document")
    node = _NodeKeys()
    nodes = frozenset(node[k] for k in _strs(doc["nodes"], "nodes"))
    largeness = doc.get("largeness", "nonempty")
    if type(largeness) is not str:
        raise _malformed("a string", largeness, "largeness", ())
    sys_ = SystemSkeleton(
        nodes=nodes,
        level={node[k]: _int(v, "level", k) for k, v in _object(doc["level"], "level").items()},
        E={node[k]: frozenset(_ints(v, "E", k)) for k, v in _object(doc["E"], "E").items()},
        B={node[k]: frozenset(_atoms(v, "B", k)) for k, v in _object(doc["B"], "B").items()},
        largeness=largeness,
    )
    return sys_, node


def family_from_doc(doc: Mapping) -> BasedFamily:
    return _family(doc)[0]


def _family(doc: Mapping) -> tuple[BasedFamily, _NodeKeys]:
    sys_, node = _system(doc)
    if "phi" not in doc or "truncation" not in doc:
        raise InputError("document carries no family (phi and truncation required)")
    phi = {}
    for zk, per_level in _object(doc["phi"], "phi").items():
        z = node[zk]
        for k, vals in _object(per_level, "phi", zk).items():
            phi[(z, int(k))] = tuple(_atoms(vals, "phi", zk, k))
    fam = BasedFamily(
        system=sys_,
        finals=tuple(sys_.finals()),
        phi=phi,
        truncation=_int(doc["truncation"], "truncation"),
    )
    return fam, node


def whitehead_from_doc(doc: Mapping) -> WhiteheadSystem:
    fam, node = _family(doc)
    for key in ("r", "q", "d", "J"):
        if key not in doc:
            raise InputError(f"witness system document needs field {key!r}")
    strong = None
    if "strong" in doc:
        s = _object(doc["strong"], "strong")
        _require_keys(s, {"order", "alpha", "theta_fresh"}, set(), "strong order")
        strong = ReshufflingOrder(
            order=tuple(node[k] for k in _strs(s["order"], "strong", "order")),
            alpha=_int(s["alpha"], "strong", "alpha"),
            theta_fresh=_int(s["theta_fresh"], "strong", "theta_fresh"),
        )
    q = {node[k]: _ints(v, "q", k) for k, v in _object(doc["q"], "q").items()}
    d = {node[k]: _int_rows(v, "d", k) for k, v in _object(doc["d"], "d").items()}
    for z in fam.finals:
        if z not in q or z not in d:
            raise InputError(f"q and d need an entry for every final; final {node_key(z)!r} has none")
    return WhiteheadSystem(
        system=fam.system,
        family=fam,
        r=_int(doc["r"], "r"),
        q=q,
        d=d,
        j_trunc=_int(doc["J"], "J"),
        strong_order=strong,
    )


def coloring_from_doc(doc: Mapping) -> dict[Node, list[int]]:
    _check_schema(doc, "coloring document")
    _require_keys(doc, {"schema", "c"}, set(), "coloring document")
    return {parse_node_key(k): list(_ints(v, "c", k)) for k, v in _object(doc["c"], "c").items()}


def witness_to_doc(w: Witness) -> dict:
    return {
        "f": {
            json.dumps(atom_to_jsonable(a), sort_keys=True, separators=(",", ":")): v
            for a, v in sorted(w.f.items(), key=lambda kv: json.dumps(atom_to_jsonable(kv[0])))
        },
        "a": {f"{node_key(z)}:{j}": v for (z, j), v in sorted(w.a.items())},
    }


# --- presentations and chain specs -------------------------------------------


def presentation_to_doc(p: Presentation) -> dict:
    return {"gens": list(p.generators), "rels": [list(row) for row in p.relations.entries]}


def presentation_from_doc(doc: Mapping) -> Presentation:
    _require_keys(doc, {"gens", "rels"}, set(), "presentation")
    return Presentation(
        tuple(doc["gens"]),
        IntMatrix.from_rows(doc["rels"]),
    )


_CHAIN_REQUIRED = {"schema", "r", "q", "d", "J"}


def chain_spec_from_doc(doc: Mapping) -> NonfreeSpec:
    _check_schema(doc, "chain spec")
    _require_keys(doc, _CHAIN_REQUIRED, set(), "chain spec")
    return NonfreeSpec(
        r=_int(doc["r"], "r"),
        q=_ints(doc["q"], "q"),
        d=_int_rows(doc["d"], "d"),
        j_trunc=_int(doc["J"], "J"),
    )


# --- certificates -------------------------------------------------------------


def certificate_to_doc(obj) -> dict:
    if isinstance(obj, Transversal):
        return {
            "type": "transversal",
            "assignment": {str(i): atom_to_jsonable(a) for i, a in sorted(obj.assignment.items())},
        }
    if isinstance(obj, HallCertificate):
        return {"type": "hall-certificate", "violator": sorted(obj.violator)}
    if isinstance(obj, ReshufflingOrder):
        return {"type": "reshuffling-order", **obj.to_jsonable()}
    if isinstance(obj, ReshufflingObstruction):
        return {"type": "reshuffling-obstruction", **obj.to_jsonable()}
    raise TypeError(f"no JSON form for {type(obj).__name__}")


def hall_certificate_from_doc(doc: Mapping) -> HallCertificate:
    return HallCertificate(frozenset(int(i) for i in doc["violator"]))


def transversal_from_doc(doc: Mapping) -> Transversal:
    return Transversal({int(i): atom_from_jsonable(a) for i, a in doc["assignment"].items()})


# --- ladder instances ---------------------------------------------------------

_INSTANCE_REQUIRED = {"schema", "subcase", "r", "levels"}
_INSTANCE_OPTIONAL = {"p", "i_max"}
_LEVEL_REQUIRED = {"ladder", "colors", "g"}
_LEVEL_OPTIONAL = {"primes", "mu"}


def instance_from_doc(doc: Mapping) -> LadderInstance:
    _check_schema(doc, "ladder instance")
    _require_keys(doc, _INSTANCE_REQUIRED, _INSTANCE_OPTIONAL, "ladder instance")
    levels = []
    for alpha_key, lv in sorted(_object(doc["levels"], "levels").items(), key=lambda kv: int(kv[0])):
        _require_keys(_object(lv, "levels", alpha_key), _LEVEL_REQUIRED, _LEVEL_OPTIONAL, f"level {alpha_key}")
        levels.append(
            LadderLevel(
                alpha=int(alpha_key),
                ladder=_ints(lv["ladder"], "levels", alpha_key, "ladder"),
                colors=_ints(lv["colors"], "levels", alpha_key, "colors"),
                g_labels=tuple(_strs(lv["g"], "levels", alpha_key, "g")),
                mu=_int_rows(lv.get("mu", []), "levels", alpha_key, "mu"),
                primes=_ints(lv["primes"], "levels", alpha_key, "primes") if "primes" in lv else None,
            )
        )
    return LadderInstance(
        subcase=_str(doc["subcase"], "subcase"),
        r=_int(doc["r"], "r"),
        levels=tuple(levels),
        p=_int(doc["p"], "p") if "p" in doc else None,
        i_max=_int(doc["i_max"], "i_max") if "i_max" in doc else None,
    )


def instance_to_doc(inst: LadderInstance) -> dict:
    doc: dict[str, Any] = {
        "schema": SCHEMA,
        "subcase": inst.subcase,
        "r": inst.r,
        "levels": {},
    }
    if inst.p is not None:
        doc["p"] = inst.p
    if inst.i_max is not None:
        doc["i_max"] = inst.i_max
    for lv in inst.levels:
        entry: dict[str, Any] = {
            "ladder": list(lv.ladder),
            "colors": list(lv.colors),
            "g": list(lv.g_labels),
        }
        if lv.mu:
            entry["mu"] = [list(row) for row in lv.mu]
        if lv.primes is not None:
            entry["primes"] = list(lv.primes)
        doc["levels"][str(lv.alpha)] = entry
    return doc


# --- residue tables and simulation reports ------------------------------------


def _intervals_to_doc(segments) -> list[list[str]]:
    return [[str(lo), str(hi)] for lo, hi in segments]


@_unlimited_digits()
def table_to_doc(tab) -> dict:
    if isinstance(tab, PrimeTable):
        doc = {
            "kind": "prime",
            "p": str(tab.p),
            "r": tab.r,
            "mu": list(tab.mu),
            "magnitude_bound": tab.t_bound,
            "modulus": str(tab.p),
            "shift": [str(s) for s in tab.shift],
            "zero_class": _intervals_to_doc(tab.zero_class.segments),
            "one_class": _intervals_to_doc(tab.one_class.segments),
            "default": 0,
        }
        if tab.p <= 4096:
            doc["values"] = {str(x): tab.value(x) for x in range(tab.p)}
        return doc
    if isinstance(tab, PowerTable):
        doc = {
            "kind": "power",
            "p": str(tab.p),
            "r": tab.r,
            "block": tab.i,
            "exponents": [tab.t_prev, tab.t_cur],
            "mu": [list(row) for row in tab.mu],
            "modulus": str(tab.modulus),
            "shift": [str(s) for s in tab.shift],
            "digits": [list(d) for d in tab.digits],
            "zero_class": _intervals_to_doc(tab.zero_class.segments),
            "one_class": _intervals_to_doc(tab.one_class.segments),
            "default": 0,
        }
        if tab.modulus <= 4096:
            doc["values"] = {str(x): tab.value(x) for x in range(tab.modulus)}
        return doc
    raise TypeError(f"no JSON form for {type(tab).__name__}")


@_unlimited_digits()
def simulation_to_doc(report: SimulationReport) -> dict:
    return {
        "subcase": report.subcase,
        "ok": report.ok,
        "checks": dict(report.checks),
        "levels": [
            {
                "alpha": lv.alpha,
                "n0": lv.n0,
                "delta_y0": lv.delta_y0,
                "delta_z": list(lv.delta_z),
                "matches_from_n0": lv.matches_from_n0,
                "queries": list(lv.queries),
            }
            for lv in report.levels
        ],
        "splitting": {g: v for g, v in sorted(report.chain.splitting.items())},
        "generators": list(report.chain.generators),
        "relations": [list(row) for row in report.chain.relations.entries],
        "shift_coefficients": list(report.chain.shift_coefficients),
        "table_keys": [list(map(str, key)) for key in report.table_keys],
    }


def basis_to_doc(cand: BasisCandidate) -> dict:
    return {
        "z_part": [[node_key(z), j] for z, j in cand.z_part],
        "atom_part": [atom_to_jsonable(a) for a in cand.atom_part],
    }


# --- rendering ----------------------------------------------------------------

_SCALARS = frozenset({str, int, bool, float, type(None)})


@cache
def _layout(level: int) -> tuple[Callable[[Any], str], str, str, str]:
    """(encode, first, sep, last) for a container nested `level` deep.

    `encode` writes compact JSON whose items are separated by `sep`, a line
    break and `level + 1` indents, so a flat container comes out as
    `json.dumps(indent=2)` writes it, short of `first` after its opening and
    `last` before its closing bracket.
    """
    first = "\n" + "  " * (level + 1)
    sep, last = "," + first, "\n" + "  " * level
    public = JSONEncoder(sort_keys=True, separators=(sep, ": "))
    if c_make_encoder is None:  # no _json accelerator: the same text, from a new encoder per call
        return public.encode, first, sep, last
    c_encode = c_make_encoder(None, public.default, encode_basestring_ascii, None, ": ", sep, True, False, True)
    return (lambda o: "".join(c_encode(o, 0))), first, sep, last


def _key(k, level: int) -> str:
    """A dict key that is not a string, as `json` writes it: an int, float, bool or null as its quoted text."""
    if k is None or isinstance(k, (int, float)):
        return '"' + _layout(level)[0](k) + '"'
    raise TypeError(f"keys must be str, int, float, bool or None, not {k.__class__.__name__}")


def _render(o, level: int, out: list[str]) -> None:
    """Append the `json.dumps(o, sort_keys=True, indent=2)` text of `o`, nested `level` deep."""
    encode, first, sep, last = _layout(level)
    if isinstance(o, dict):
        values, close = o.values(), "}"
    elif isinstance(o, (list, tuple)):
        values, close = o, "]"
    else:  # a scalar, or a value the encoder refuses with json's own TypeError
        out.append(encode(o))
        return
    if _SCALARS.issuperset(map(type, values)):
        text = encode(o)
        out += (text[0], first, text[1:-1], last, close) if o else (text,)
        return
    if close == "]":
        out.append("[")
        for v in o:
            out.append(first)
            _render(v, level + 1, out)
            first = sep
    else:
        out.append("{")
        for k, v in sorted(o.items()):
            out += (first, encode_basestring_ascii(k) if isinstance(k, str) else _key(k, level), ": ")
            _render(v, level + 1, out)
            first = sep
    out += (last, close)


@_unlimited_digits()
def dump(doc: Mapping) -> str:
    """Canonical byte-stable rendering, with ints of any length.

    The text is `json.dumps(doc, sort_keys=True, indent=2) + "\n"`, byte
    for byte, written as the module docstring describes.
    """
    out: list[str] = []
    _render(doc, 0, out)
    out.append("\n")
    return "".join(out)
