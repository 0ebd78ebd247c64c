"""Round-trip stability of documents and atoms."""

import json
import random
import sys

import pytest

from helpers import random_whitehead_system

from lamsys import jsonio
from lamsys.core import transform_disjoint, transform_tree, validate_family
from lamsys.jsonio import InputError, atom_from_jsonable, atom_to_jsonable
from lamsys.uniformization import LadderInstance, LadderLevel


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
