"""JSON documents for skeletons, families, witness systems, instances, and certificates.

One schema version string covers every document; unknown fields are
rejected so a certificate can never silently carry unchecked data.  Atoms
map to JSON as int | str | list (lists become tuples on load); node keys
are dot-joined digit strings with the empty string for the root.  Residue
tables serialize residues and moduli as decimal strings since the moduli
outgrow native word sizes.

`dump` writes a document on one line as compact canonical JSON (sorted
keys, no whitespace) in one call to the standard library's encoder.  A
relation matrix goes in as its `Presentation` and comes out as its dense
rows, cut from one row of zeros with the nonzeros spliced in.
Every int-to-decimal conversion here lifts Python's 4,300-digit limit
(`digit_limit(0)`), so integers of any length are written.
"""

from __future__ import annotations

import decimal
import sys
import threading
from contextlib import contextmanager
from itertools import chain
from json.encoder import JSONEncoder
from typing import Any, Mapping

from .abelian import NonfreeSpec, Presentation
from .core import (
    MAX_ATOM_DEPTH,
    Atom,
    BasedFamily,
    Node,
    SystemSkeleton,
    atom_depth,
    atom_ranks,
    atom_text,
    atom_to_jsonable,
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
def digit_limit(limit: int):
    """Convert ints of up to `limit` digits (0: any length) to and from decimal text while the block runs.

    Python (3.10.7 on) refuses to write or read an int of more than 4,300
    digits as decimal text, a guard for parsing untrusted input; results
    such as the products of `build-group --m-max` or the shifts of
    `unif-table` outgrow it, and so may an input.  The limit is set for the
    block only and put back afterwards; it is interpreter-wide, so
    concurrent blocks take turns.
    """
    with _DIGITS_LOCK:
        old = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
        if old is not None:
            sys.set_int_max_str_digits(limit)
        try:
            yield
        finally:
            if old is not None:
                sys.set_int_max_str_digits(old)


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


_INTS = frozenset({int})
_STRS = frozenset({str})
_LISTS = frozenset({list})
_DICTS = frozenset({dict})
_PLAIN_ATOMS = frozenset({int, str})


def _exact_types(types: frozenset, values) -> bool:
    """Whether every value's exact type is in `types`: one C-level pass over a whole column.

    Exact types, not isinstance: a bool is an int subclass and is malformed
    wherever an integer or an atom is expected.
    """
    return types.issuperset(map(type, values))


def _lists_of(types: frozenset, values) -> bool:
    """Whether every value is a list of items whose exact types are in `types`."""
    return _exact_types(_LISTS, values) and _exact_types(types, chain.from_iterable(values))


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


def ints(v, field: str, *keys) -> tuple[int, ...]:
    if isinstance(v, list) and _exact_types(_INTS, v):
        return tuple(v)
    raise _malformed("a list of integers", v, field, keys)


def int_rows(v, field: str, *keys) -> tuple[tuple[int, ...], ...]:
    if isinstance(v, list):
        return tuple(ints(row, field, *keys) for row in v)
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
    if isinstance(v, list) and _exact_types(_STRS, v):
        return v
    raise _malformed("a list of strings", v, field, keys)


def atom_from_jsonable(v) -> Atom:
    """The atom of a JSON value; InputError if it is none or nests lists past MAX_ATOM_DEPTH."""
    if atom_depth((v,)) > MAX_ATOM_DEPTH:
        raise InputError(f"atom nests lists more than {MAX_ATOM_DEPTH} deep")
    return _atom(v)


def _atom(v) -> Atom:
    if isinstance(v, list):
        return tuple(map(_atom, v))
    if isinstance(v, (int, str)) and not isinstance(v, bool):
        return v
    raise InputError(f"not an atom: {v!r}")


def _atoms(v, field: str, *keys):
    """The atoms of a B list or phi slice; a list of plain ints and strings is taken as is."""
    v = _list(v, field, *keys)
    return v if _exact_types(_PLAIN_ATOMS, v) else map(atom_from_jsonable, v)


class _NodeKeys(dict):
    """Node-key string -> node, each distinct string parsed once per document."""

    def __missing__(self, key: str) -> Node:
        node = self[key] = parse_node_key(key)
        return node


# --- skeleton / family / witness system --------------------------------------

_SYSTEM_REQUIRED = {"schema", "nodes", "level", "E", "B"}
_SYSTEM_OPTIONAL = {"largeness", "phi", "truncation", "r", "q", "d", "J", "strong"}


def system_to_doc(x: SystemSkeleton | BasedFamily | WhiteheadSystem) -> dict:
    """The document of a skeleton, a family with its skeleton, or a witness system with its family."""
    ws = x if isinstance(x, WhiteheadSystem) else None
    fam = ws.family if ws is not None else x if isinstance(x, BasedFamily) else None
    sys_ = fam.system if fam is not None else x
    nodes = sys_.sorted_nodes()
    keys = {n: node_key(n) for n in nodes}
    carriers = [sys_.B.get(n, frozenset()) for n in nodes]
    slices = {}
    if fam is not None:
        slices = {keys[z]: {str(k): fam.phi.get((z, k), ()) for k in range(1, len(z) + 1)} for z in fam.finals}
    # rank and JSON form once per distinct atom, not once per occurrence
    carrier_atoms = set().union(*carriers)
    rank = atom_ranks(carrier_atoms)
    as_json = {
        a: atom_to_jsonable(a)
        for a in carrier_atoms.union(*(vals for per_level in slices.values() for vals in per_level.values()))
    }
    # siblings often share a carrier: sort and write each distinct one once,
    # and give every node its own copy of the list
    written: dict[frozenset, list] = {}
    for carrier in carriers:
        if carrier not in written:
            written[carrier] = [as_json[a] for a in sorted(carrier, key=rank.__getitem__)]
    doc: dict[str, Any] = {
        "schema": SCHEMA,
        "nodes": list(keys.values()),
        "level": {k: sys_.level[n] for n, k in keys.items()},
        "E": {k: sorted(sys_.E[n]) for n, k in keys.items() if n in sys_.E},
        "B": {k: written[carrier].copy() for k, carrier in zip(keys.values(), carriers)},
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
        doc["q"] = {keys[z]: list(ws.q[z]) for z in ws.finals()}
        doc["d"] = {keys[z]: [list(row) for row in ws.d[z]] for z in ws.finals()}
        doc["J"] = ws.j_trunc
        if ws.strong_order is not None:
            doc["strong"] = ws.strong_order.to_jsonable()
    return doc


def system_from_doc(doc: Mapping) -> SystemSkeleton:
    return _system(doc)[0]


def _system(doc: Mapping) -> tuple[SystemSkeleton, _NodeKeys]:
    """The skeleton, and the node keys parsed on the way for the rest of the document.

    Each column (the `level` values, the `E` lists, the `B` lists) has its
    types checked in one pass.  A column that fails the check (it holds a
    nested atom or a malformed value) goes value by value through the
    per-value parsers, which report the first malformed value in document
    order; a column that passes can fail only on a node key, and its keys
    are parsed in the same order.
    """
    _check_schema(doc, "system document")
    _require_keys(doc, _SYSTEM_REQUIRED, _SYSTEM_OPTIONAL, "system document")
    keys = _strs(doc["nodes"], "nodes")
    node = _NodeKeys(zip(keys, map(parse_node_key, keys)))
    nodes = frozenset(node.values())  # before the other columns add their keys
    largeness = doc.get("largeness", "nonempty")
    if type(largeness) is not str:
        raise _malformed("a string", largeness, "largeness", ())
    level = _object(doc["level"], "level")
    if _exact_types(_INTS, level.values()):
        level = dict(zip(map(node.__getitem__, level), level.values()))
    else:
        level = {node[k]: _int(v, "level", k) for k, v in level.items()}
    E = _object(doc["E"], "E")
    if _lists_of(_INTS, E.values()):
        E = dict(zip(map(node.__getitem__, E), map(frozenset, E.values())))
    else:
        E = {node[k]: frozenset(ints(v, "E", k)) for k, v in E.items()}
    B = _object(doc["B"], "B")
    if _lists_of(_PLAIN_ATOMS, B.values()):
        B = dict(zip(map(node.__getitem__, B), map(frozenset, B.values())))
    else:
        B = {node[k]: frozenset(_atoms(v, "B", k)) for k, v in B.items()}
    sys_ = SystemSkeleton(nodes=nodes, level=level, E=E, B=B, largeness=largeness)
    return sys_, node


def family_from_doc(doc: Mapping) -> BasedFamily:
    return _family(doc)[0]


class _LevelKeys(dict):
    """Phi level-key string -> int, each distinct string converted once per document."""

    def __missing__(self, key: str) -> int:
        k = self[key] = int(key)
        return k


def _family(doc: Mapping) -> tuple[BasedFamily, _NodeKeys]:
    """The family, its slices checked as one column as in `_system`."""
    sys_, node = _system(doc)
    if "phi" not in doc or "truncation" not in doc:
        raise InputError("document carries no family (phi and truncation required)")
    slices = _object(doc["phi"], "phi")
    per_final = slices.values()
    phi = {}
    level_of = _LevelKeys()
    if _exact_types(_DICTS, per_final) and _lists_of(_PLAIN_ATOMS, [*chain.from_iterable(map(dict.values, per_final))]):
        for z, per_level in zip(map(node.__getitem__, slices), per_final):
            for k, vals in per_level.items():
                phi[(z, level_of[k])] = tuple(vals)
    else:
        for zk, per_level in slices.items():
            z = node[zk]
            for k, vals in _object(per_level, "phi", zk).items():
                phi[(z, level_of[k])] = tuple(_atoms(vals, "phi", zk, k))
    fam = BasedFamily(
        system=sys_,
        phi=phi,
        truncation=_int(doc["truncation"], "truncation"),
    )
    return fam, node


def whitehead_from_doc(doc: Mapping) -> WhiteheadSystem:
    """The witness system, its `q` and `d` columns checked as in `_system`."""
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
    q = _object(doc["q"], "q")
    if _lists_of(_INTS, q.values()):
        q = dict(zip(map(node.__getitem__, q), map(tuple, q.values())))
    else:
        q = {node[k]: ints(v, "q", k) for k, v in q.items()}
    d = _object(doc["d"], "d")
    if _exact_types(_LISTS, d.values()) and _lists_of(_INTS, [*chain.from_iterable(d.values())]):
        d = dict(zip(map(node.__getitem__, d), (tuple(map(tuple, rows)) for rows in d.values())))
    else:
        d = {node[k]: int_rows(v, "d", k) for k, v in d.items()}
    for z in fam.finals:
        if z not in q or z not in d:
            raise InputError(f"q and d need an entry for every final; final {node_key(z)!r} has none")
    return WhiteheadSystem(
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
    return {parse_node_key(k): list(ints(v, "c", k)) for k, v in _object(doc["c"], "c").items()}


def witness_to_doc(w: Witness) -> dict:
    return {
        "f": {atom_text(a): v for a, v in w.f.items()},
        "a": {f"{node_key(z)}:{j}": v for (z, j), v in w.a.items()},
    }


# --- presentations and chain specs -------------------------------------------


def presentation_to_doc(p: Presentation) -> dict:
    return {"gens": list(p.generators), "rels": p}


_CHAIN_REQUIRED = {"schema", "r", "q", "d", "J"}


def chain_spec_from_doc(doc: Mapping) -> NonfreeSpec:
    _check_schema(doc, "chain spec")
    _require_keys(doc, _CHAIN_REQUIRED, set(), "chain spec")
    return NonfreeSpec(
        r=_int(doc["r"], "r"),
        q=ints(doc["q"], "q"),
        d=int_rows(doc["d"], "d"),
        j_trunc=_int(doc["J"], "J"),
    )


# --- certificates -------------------------------------------------------------


def certificate_to_doc(obj) -> dict:
    if isinstance(obj, Transversal):
        return {
            "type": "transversal",
            "assignment": {str(i): atom_to_jsonable(a) for i, a in obj.assignment.items()},
        }
    if isinstance(obj, HallCertificate):
        return {"type": "hall-certificate", "violator": sorted(obj.violator)}
    if isinstance(obj, ReshufflingOrder):
        return {"type": "reshuffling-order", **obj.to_jsonable()}
    if isinstance(obj, ReshufflingObstruction):
        return {"type": "reshuffling-obstruction", **obj.to_jsonable()}
    raise TypeError(f"no JSON form for {type(obj).__name__}")


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
                ladder=ints(lv["ladder"], "levels", alpha_key, "ladder"),
                colors=ints(lv["colors"], "levels", alpha_key, "colors"),
                g_labels=tuple(_strs(lv["g"], "levels", alpha_key, "g")),
                mu=int_rows(lv.get("mu", []), "levels", alpha_key, "mu"),
                primes=ints(lv["primes"], "levels", alpha_key, "primes") if "primes" in lv else None,
            )
        )
    return LadderInstance(
        subcase=_str(doc["subcase"], "subcase"),
        r=_int(doc["r"], "r"),
        levels=tuple(levels),
        p=_int(doc["p"], "p") if "p" in doc else None,
        i_max=_int(doc["i_max"], "i_max") if "i_max" in doc else None,
    )


# --- residue tables and simulation reports ------------------------------------


# above this many bits `_decimal_text` beats `str` (CPython 3.11 on x86-64:
# both take about 2.5 ms at 40,000 bits; at 1,855,468 bits str takes 5.8 s
# and `_decimal_text` 0.2 s)
_DECIMAL_BITS = 40_000


def _decimal_text(n: int) -> str:
    """`str(n)`, in time below quadratic in the digits for large `n`.

    CPython before 3.12 writes an int in decimal in time quadratic in its
    length, and the shifts and interval ends of a power table have millions
    of bits.  Above `_DECIMAL_BITS` bits, `n` is split at half its bit length,
    both halves are converted the same way, and they are joined as
    hi * 2^half + lo in exact `decimal` arithmetic, whose multiplication is
    subquadratic: the method of CPython 3.12's
    `_pylong.int_to_decimal_string`.  Each power of two is computed once per
    call.  Below the switch this is `str(n)`, under the caller's int-to-str
    digit limit.
    """
    if n.bit_length() <= _DECIMAL_BITS:
        return str(n)
    D = decimal.Decimal
    powers: dict[int, decimal.Decimal] = {}

    def two_to(w: int) -> decimal.Decimal:
        p = powers.get(w)
        if p is None:
            if w <= 128:
                p = D(2) ** w
            elif w - 1 in powers:
                p = powers[w - 1] * 2
            else:  # the smaller half first, so that an odd w finds w - 1 above
                p = two_to(w >> 1) * two_to(w - (w >> 1))
            powers[w] = p
        return p

    def convert(m: int, bits: int) -> decimal.Decimal:
        if bits <= 128:
            return D(m)
        half = bits >> 1
        hi = m >> half
        return convert(m - (hi << half), half) + convert(hi, bits - half) * two_to(half)

    with decimal.localcontext() as ctx:
        # every step is exact: unbounded precision and exponent, and an inexact step raises
        ctx.prec, ctx.Emax, ctx.Emin = decimal.MAX_PREC, decimal.MAX_EMAX, decimal.MIN_EMIN
        ctx.traps[decimal.Inexact] = True
        text = str(convert(abs(n), n.bit_length()))
    return "-" + text if n < 0 else text


def _class_to_doc(cls) -> list[list[str]]:
    """A class as integer segments [lo, hi], lo its balanced residue in (-n/2, n/2], sorted.

    The segments that hold 0 and n - 1 are one segment that wraps round, so
    they are written as one.  Its residues, and those of every other
    segment, are the same as the class's.
    """
    n, segments = cls.modulus, list(cls.segments)
    if len(segments) > 1 and segments[0][0] == 0 and segments[-1][1] == n - 1:
        first = segments.pop(0)
        segments[-1] = (segments[-1][0], first[1] + n)
    balanced = sorted((lo - n, hi - n) if lo > n // 2 else (lo, hi) for lo, hi in segments)
    return [[_decimal_text(lo), _decimal_text(hi)] for lo, hi in balanced]


@digit_limit(0)
def table_to_doc(tab) -> dict:
    if isinstance(tab, PrimeTable):
        doc = {"kind": "prime", "mu": list(tab.mu), "magnitude_bound": tab.t_bound}
    elif isinstance(tab, PowerTable):
        doc = {
            "kind": "power",
            "block": tab.i,
            "exponents": [tab.t_prev, tab.t_cur],
            "mu": [list(row) for row in tab.mu],
        }
    else:
        raise TypeError(f"no JSON form for {type(tab).__name__}")
    return doc | {
        "p": _decimal_text(tab.p),
        "r": tab.r,
        "shift": [_decimal_text(s) for s in tab.shift],
        "zero_class": _class_to_doc(tab.zero_class),
        "one_class": _class_to_doc(tab.one_class),
        "default": 0,
    }


@digit_limit(0)
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
        "splitting": dict(report.splitting),
        "generators": list(report.chain.generators),
        "relations": report.chain,
        "shift_coefficients": list(report.shift_coefficients),
        "table_keys": [list(map(str, key)) for key in report.table_keys],
    }


def basis_to_doc(cand: BasisCandidate) -> dict:
    return {
        "z_part": [[node_key(z), j] for z, j in cand.z_part],
        "atom_part": [atom_to_jsonable(a) for a in cand.atom_part],
    }


# --- rendering ----------------------------------------------------------------

# with no C accelerator (`json.encoder.c_make_encoder` None) it writes the same text in Python
_ENCODE = JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def _dense_text(p: Presentation) -> str:
    """The text of `p`'s relations as dense rows, with Python work per nonzero, not per cell."""
    zeros = "0," * len(p.generators)  # cell c is zeros[2c], the comma after it zeros[2c + 1]
    columns = [sorted(row) for row in p.relations]
    entries = [row[c] for row, cols in zip(p.relations, columns) for c in cols]
    texts = iter(_ENCODE(entries)[1:-1].split(","))  # an encoded int holds no comma
    out = ["["]
    for cols in columns:
        out.append("[")
        at = 0
        for c in cols:
            out += (zeros[at : 2 * c], next(texts))
            at = 2 * c + 1
        out += (zeros[at:-1], "],")
    out[-1] = "]]" if columns else "[]"
    return "".join(out)


def _holds_rows(o: dict) -> bool:
    """Whether a `Presentation` is a value of `o`, or of a dict among its values, at any depth."""
    return any(type(v) is Presentation or isinstance(v, dict) and _holds_rows(v) for v in o.values())


def _write(o, out: list[str]) -> None:
    if type(o) is Presentation:
        out.append(_dense_text(o))
    elif isinstance(o, dict) and _holds_rows(o):  # key by key; a key that is no string as json writes it
        for i, (k, v) in enumerate(sorted(o.items())):
            out += ("," if i else "{", _ENCODE(k) if isinstance(k, str) else _ENCODE({k: 0})[1:-3], ":")
            _write(v, out)
        out.append("}")
    else:  # one encoder call; a matrix in a list is json's own TypeError
        out.append(_ENCODE(o))


@digit_limit(0)
def dump(doc: Mapping) -> str:
    """`json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\\n"`, with each matrix as its dense rows.

    A matrix (a `Presentation`) goes at the top level or as a dict value at
    any depth, never in a list.  A failure is `json`'s own `TypeError`.
    """
    out: list[str] = []
    _write(doc, out)
    out.append("\n")
    return "".join(out)
