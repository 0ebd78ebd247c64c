"""JSON documents for skeletons, families, witness systems, instances, and certificates.

One schema version string covers every document; unknown fields are
rejected so a certificate can never silently carry unchecked data.  Atoms
map to JSON as int | str | list (lists become tuples on load); node keys
are dot-joined digit strings with the empty string for the root.  Residue
tables serialize residues and moduli as decimal strings since the moduli
outgrow native word sizes.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Any, Mapping

from .abelian import InfeasibilityCertificate, IntMatrix, NonfreeSpec, Presentation
from .core import (
    Atom,
    BasedFamily,
    Node,
    SystemSkeleton,
    node_key,
    parse_node_key,
    sorted_atoms,
)
from .freeness import HallCertificate, ReshufflingOrder, Transversal
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


# --- skeleton / family / witness system --------------------------------------

_SYSTEM_REQUIRED = {"schema", "nodes", "level", "E", "B"}
_SYSTEM_OPTIONAL = {"largeness", "phi", "truncation", "r", "q", "d", "J", "strong"}


def system_to_doc(
    sys_: SystemSkeleton,
    fam: BasedFamily | None = None,
    ws: WhiteheadSystem | None = None,
) -> dict:
    doc: dict[str, Any] = {
        "schema": SCHEMA,
        "nodes": [node_key(n) for n in sys_.sorted_nodes()],
        "level": {node_key(n): sys_.level[n] for n in sys_.sorted_nodes()},
        "E": {node_key(n): sorted(sys_.E[n]) for n in sys_.sorted_nodes() if n in sys_.E},
        "B": {
            node_key(n): [atom_to_jsonable(a) for a in sorted_atoms(sys_.B.get(n, frozenset()))]
            for n in sys_.sorted_nodes()
        },
        "largeness": sys_.largeness,
    }
    if fam is not None:
        phi: dict[str, dict[str, list]] = {}
        for z in fam.finals:
            per_level = {}
            for k in range(1, len(z) + 1):
                per_level[str(k)] = [atom_to_jsonable(a) for a in fam.phi.get((z, k), ())]
            phi[node_key(z)] = per_level
        doc["phi"] = phi
        doc["truncation"] = fam.truncation
    if ws is not None:
        doc["r"] = ws.r
        doc["q"] = {node_key(z): list(ws.q[z]) for z in ws.finals()}
        doc["d"] = {node_key(z): [list(row) for row in ws.d[z]] for z in ws.finals()}
        doc["J"] = ws.j_trunc
        if ws.strong_order is not None:
            doc["strong"] = ws.strong_order.to_jsonable()
    return doc


def system_from_doc(doc: Mapping) -> SystemSkeleton:
    _check_schema(doc, "system document")
    _require_keys(doc, _SYSTEM_REQUIRED, _SYSTEM_OPTIONAL, "system document")
    nodes = frozenset(parse_node_key(k) for k in _strs(doc["nodes"], "nodes"))
    largeness = doc.get("largeness", "nonempty")
    if type(largeness) is not str:
        raise _malformed("a string", largeness, "largeness", ())
    return SystemSkeleton(
        nodes=nodes,
        level={parse_node_key(k): _int(v, "level", k) for k, v in _object(doc["level"], "level").items()},
        E={parse_node_key(k): frozenset(_ints(v, "E", k)) for k, v in _object(doc["E"], "E").items()},
        B={
            parse_node_key(k): frozenset(atom_from_jsonable(a) for a in _list(v, "B", k))
            for k, v in _object(doc["B"], "B").items()
        },
        largeness=largeness,
    )


def family_from_doc(doc: Mapping) -> BasedFamily:
    sys_ = system_from_doc(doc)
    if "phi" not in doc or "truncation" not in doc:
        raise InputError("document carries no family (phi and truncation required)")
    phi = {}
    for zk, per_level in _object(doc["phi"], "phi").items():
        z = parse_node_key(zk)
        for k, vals in _object(per_level, "phi", zk).items():
            phi[(z, int(k))] = tuple(atom_from_jsonable(a) for a in _list(vals, "phi", zk, k))
    return BasedFamily(
        system=sys_,
        finals=tuple(sys_.finals()),
        phi=phi,
        truncation=_int(doc["truncation"], "truncation"),
    )


def whitehead_from_doc(doc: Mapping) -> WhiteheadSystem:
    fam = family_from_doc(doc)
    for key in ("r", "q", "d", "J"):
        if key not in doc:
            raise InputError(f"witness system document needs field {key!r}")
    strong = None
    if "strong" in doc:
        s = _object(doc["strong"], "strong")
        _require_keys(s, {"order", "alpha", "theta_fresh"}, set(), "strong order")
        strong = ReshufflingOrder(
            order=tuple(parse_node_key(k) for k in _strs(s["order"], "strong", "order")),
            alpha=_int(s["alpha"], "strong", "alpha"),
            theta_fresh=_int(s["theta_fresh"], "strong", "theta_fresh"),
        )
    q = {parse_node_key(k): _ints(v, "q", k) for k, v in _object(doc["q"], "q").items()}
    d = {parse_node_key(k): _int_rows(v, "d", k) for k, v in _object(doc["d"], "d").items()}
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
    if isinstance(obj, InfeasibilityCertificate):
        return {"type": "infeasibility", "y": [str(Fraction(v)) for v in obj.y]}
    if isinstance(obj, ReshufflingOrder):
        return {"type": "reshuffling-order", **obj.to_jsonable()}
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
    for alpha_key, lv in sorted(doc["levels"].items(), key=lambda kv: int(kv[0])):
        _require_keys(lv, _LEVEL_REQUIRED, _LEVEL_OPTIONAL, f"level {alpha_key}")
        levels.append(
            LadderLevel(
                alpha=int(alpha_key),
                ladder=_ints(lv["ladder"], "levels", alpha_key, "ladder"),
                colors=_ints(lv["colors"], "levels", alpha_key, "colors"),
                g_labels=tuple(str(x) for x in lv["g"]),
                mu=_int_rows(lv.get("mu", []), "levels", alpha_key, "mu"),
                primes=_ints(lv["primes"], "levels", alpha_key, "primes") if "primes" in lv else None,
            )
        )
    return LadderInstance(
        subcase=str(doc["subcase"]),
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


def dump(doc: Mapping) -> str:
    """Canonical byte-stable rendering."""
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"
