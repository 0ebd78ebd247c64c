"""Round-trip stability of documents and atoms, and the fast paths against their references."""

import json
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import reference
from helpers import random_whitehead_system

from lamsys import jsonio
from lamsys.core import make_family, make_skeleton, transform_disjoint, transform_tree, validate_family
from lamsys.jsonio import InputError, atom_from_jsonable, atom_to_jsonable
from lamsys.uniformization import LadderInstance, LadderLevel

GOLDEN_INPUTS = Path(__file__).resolve().parent / "golden" / "inputs"


def test_atom_roundtrip():
    atoms = [
        "plain",
        7,
        ("x", (0,)),
        (("a", "b"), ("a",)),
        ("nested", ("deep", (1, 2), "mix"), 3),
    ]
    for a in atoms:
        encoded = json.loads(json.dumps(atom_to_jsonable(a)))
        assert atom_from_jsonable(encoded) == a


def test_atom_rejects_bool_and_float():
    with pytest.raises(InputError):
        atom_to_jsonable(True)
    with pytest.raises(InputError):
        atom_from_jsonable(1.5)


def test_system_family_ws_roundtrip():
    rng = random.Random(21)
    ws = random_whitehead_system(rng, n=2, r=1, truncation=3)
    doc = json.loads(json.dumps(jsonio.system_to_doc(ws.system, ws.family, ws)))
    back = jsonio.whitehead_from_doc(doc)
    assert back.system.nodes == ws.system.nodes
    assert back.system.level == dict(ws.system.level)
    assert back.system.B == dict(ws.system.B)
    assert back.family.phi == dict(ws.family.phi)
    assert back.q == dict(ws.q)
    assert back.d == dict(ws.d)
    assert back.j_trunc == ws.j_trunc


def test_strong_order_roundtrip():
    from dataclasses import replace

    from lamsys.freeness import find_reshuffling

    rng = random.Random(23)
    ws = random_whitehead_system(rng, n=1, r=0, truncation=3)
    res = find_reshuffling(ws.family, alpha=-1, theta_fresh=1)
    assert res.status == "found"
    strong = replace(ws, strong_order=res.order)
    doc = json.loads(json.dumps(jsonio.system_to_doc(strong.system, strong.family, strong)))
    back = jsonio.whitehead_from_doc(doc)
    assert back.strong_order == res.order


def test_transformed_atoms_roundtrip():
    rng = random.Random(22)
    ws = random_whitehead_system(rng, n=2, r=0, truncation=3)
    for transform in (transform_disjoint, transform_tree):
        res = transform(ws.system, ws.family)
        doc = json.loads(json.dumps(jsonio.system_to_doc(res.system, res.family)))
        back = jsonio.family_from_doc(doc)
        assert back.phi == dict(res.family.phi)
        assert validate_family(back) == []


def test_instance_roundtrip():
    inst = LadderInstance(
        subcase="ii",
        r=1,
        p=2,
        i_max=1,
        levels=(
            LadderLevel(
                alpha=12,
                ladder=(4,),
                colors=(1,),
                g_labels=tuple(f"g{n}" for n in range(7)),
                mu=(tuple(1 for _ in range(7)),),
            ),
        ),
    )
    doc = json.loads(json.dumps(jsonio.instance_to_doc(inst)))
    assert jsonio.instance_from_doc(doc) == inst


def test_instance_strict_fields():
    doc = {
        "schema": "lamsys/1",
        "subcase": "i",
        "r": 0,
        "levels": {"5": {"ladder": [1], "colors": [0], "g": ["x"], "primes": [11], "oops": 1}},
    }
    with pytest.raises(InputError):
        jsonio.instance_from_doc(doc)


def test_dump_writes_ints_past_the_str_digit_limit():
    # 10^4999 + 7 has 5,000 digits, above Python's default limit of 4,300
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    assert jsonio.dump({"n": 10 ** 4999 + 7}) == '{\n  "n": 1' + "0" * 4998 + '7\n}\n'
    assert getattr(sys, "get_int_max_str_digits", lambda: 0)() == limit
    with pytest.raises(TypeError):
        jsonio.dump({"n": object()})
    assert getattr(sys, "get_int_max_str_digits", lambda: 0)() == limit


# --- dump against json.dumps --------------------------------------------------

_UNENCODABLE = st.sampled_from([{1, 2}, Fraction(1, 3), b"bytes", object()])
_SCALARS = st.one_of(
    st.text(),  # escaped, non-ASCII and astral characters included
    st.sampled_from(["", "\u0001", "tab\t", 'a"b', "back\\slash", "\u00e9", "\u2603", "\U0001d538"]),
    st.integers(),
    st.integers(10 ** 4300, 10 ** 4310),  # past the 4,300-digit limit of int-to-str
    st.integers(-(10 ** 4310), -(10 ** 4300)),
    st.booleans(),
    st.none(),
    st.floats(),  # nan and the infinities included
    st.sampled_from([-0.0, 1e300, float("nan"), float("inf"), float("-inf")]),
)
_KEYS = st.one_of(st.text(), st.integers(), st.floats(), st.booleans(), st.none())


def _containers(children):
    return st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=4), children, max_size=5),
        st.dictionaries(st.integers(-9, 9), children, max_size=4),
        st.dictionaries(st.floats(), children, max_size=3),
        st.dictionaries(_KEYS, children, max_size=3),  # mixed key types cannot be sorted
    )


_DOCS = st.recursive(
    st.one_of(_SCALARS, _SCALARS, _SCALARS, _UNENCODABLE),
    _containers,
    max_leaves=25,
)


def _outcome(render, doc):
    try:
        return render(doc)
    except Exception as exc:  # both renderers must fail the same way
        return type(exc)


def _json_dumps(doc):
    with jsonio._unlimited_digits():
        return json.dumps(doc, sort_keys=True, indent=2) + "\n"


@settings(max_examples=400, deadline=None)
@given(_DOCS)
def test_dump_matches_json_dumps(doc):
    assert _outcome(jsonio.dump, doc) == _outcome(_json_dumps, doc)


def test_dump_without_the_c_encoder(monkeypatch):
    doc = {
        "flat": [1, "\u00e9", None, 2.5, True],
        "mixed": [[], {}, [3, [4]], {"b": 1, "a": [2]}, "x"],
        "keys": {1: [1], 2: {"n": 10 ** 4400}},
        "empty": {},
    }
    monkeypatch.setattr(jsonio, "c_make_encoder", None)
    jsonio._layout.cache_clear()
    try:
        assert jsonio.dump(doc) == _json_dumps(doc)
        with pytest.raises(TypeError):
            jsonio.dump({"a": [Fraction(1, 2)]})
    finally:
        jsonio._layout.cache_clear()


# --- system_to_doc against the per-occurrence reference ------------------------


_GOLDEN_SYSTEMS = [
    pytest.param(doc, id=path.stem)
    for path in sorted(GOLDEN_INPUTS.glob("*.json"))
    if "nodes" in (doc := json.loads(path.read_text()))
]


@pytest.mark.parametrize("doc", _GOLDEN_SYSTEMS)
def test_system_to_doc_matches_reference_on_golden_inputs(doc):
    if "r" in doc:
        ws = jsonio.whitehead_from_doc(doc)
        args = [(ws.system, ws.family, ws), (ws.system, ws.family), (ws.system,)]
    elif "phi" in doc:
        fam = jsonio.family_from_doc(doc)
        args = [(fam.system, fam), (fam.system,)]
    else:
        args = [(jsonio.system_from_doc(doc),)]
    if len(args[0]) > 1:
        for transform in (transform_disjoint, transform_tree):
            res = transform(args[0][0], args[0][1])
            args.append((res.system, res.family))
    for a in args:
        assert jsonio.system_to_doc(*a) == reference.system_to_doc(*a)


_ATOMS = st.recursive(
    st.integers(-3, 40) | st.text(max_size=3),
    lambda c: st.tuples(c) | st.tuples(c, c) | st.tuples(c, c, c),
    max_leaves=4,
)


@st.composite
def _mixed_families(draw):
    """A height-1 or height-2 skeleton and family over int, str and tuple atoms."""
    pool = draw(st.lists(_ATOMS, min_size=1, max_size=10, unique=True))
    firsts = draw(st.lists(st.integers(0, 5), min_size=1, max_size=4, unique=True))
    if draw(st.booleans()):
        finals = [(i,) for i in firsts]
    else:
        finals = [(i, j) for i in firsts for j in draw(st.lists(st.integers(0, 3), min_size=1, max_size=2, unique=True))]
    nodes = {z[:k] for z in finals for k in range(len(z) + 1)}
    height = len(finals[0])
    sys_ = make_skeleton(
        nodes=nodes,
        level={n: height - len(n) for n in nodes},
        e_map={n: [m[-1] for m in nodes if m[:-1] == n and m] for n in nodes if len(n) < height},
        b_map={n: draw(st.lists(st.sampled_from(pool), max_size=6)) if n else [] for n in nodes},
    )
    phi = {(z, k): draw(st.lists(st.sampled_from(pool), max_size=4)) for z in finals for k in range(1, len(z) + 1)}
    return sys_, make_family(sys_, phi, truncation=4)


@settings(max_examples=150, deadline=None)
@given(_mixed_families())
def test_system_to_doc_matches_reference_on_mixed_atoms(sys_fam):
    sys_, fam = sys_fam
    doc = jsonio.system_to_doc(sys_, fam)
    assert doc == reference.system_to_doc(sys_, fam)
    assert jsonio.system_to_doc(sys_) == reference.system_to_doc(sys_)
    back = jsonio.family_from_doc(json.loads(jsonio.dump(doc)))
    assert back.system.B == dict(sys_.B)
    assert back.phi == dict(fam.phi)
