"""Round-trip stability of documents and atoms, and the fast paths against their references."""

import json
import random
import sys
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

import reference
from helpers import instance_to_doc, random_whitehead_system

from lamsys import jsonio
from lamsys.core import (
    MAX_ATOM_DEPTH,
    atom_sort_key,
    atom_to_jsonable,
    make_family,
    make_skeleton,
    transform_disjoint,
    transform_tree,
    validate_family,
)
from lamsys.jsonio import InputError, atom_from_jsonable
from lamsys.uniformization import LadderInstance, LadderLevel
from lamsys.whitehead import atom_name

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
    with pytest.raises(TypeError):
        atom_to_jsonable(True)
    with pytest.raises(InputError):
        atom_from_jsonable(1.5)


def test_system_family_ws_roundtrip():
    rng = random.Random(21)
    ws = random_whitehead_system(rng, n=2, r=1, truncation=3)
    doc = json.loads(json.dumps(jsonio.system_to_doc(ws)))
    back = jsonio.whitehead_from_doc(doc)
    assert back.family.system.nodes == ws.family.system.nodes
    assert back.family.system.level == dict(ws.family.system.level)
    assert back.family.system.B == dict(ws.family.system.B)
    assert back.family.phi == dict(ws.family.phi)
    assert back.q == dict(ws.q)
    assert back.d == dict(ws.d)
    assert back.j_trunc == ws.j_trunc


def test_strong_order_roundtrip():
    from lamsys.freeness import find_reshuffling
    from lamsys.record import replace

    rng = random.Random(23)
    ws = random_whitehead_system(rng, n=1, r=0, truncation=3)
    res = find_reshuffling(ws.family, alpha=-1, theta_fresh=1)
    assert res.status == "found"
    strong = replace(ws, strong_order=res.order)
    doc = json.loads(json.dumps(jsonio.system_to_doc(strong)))
    back = jsonio.whitehead_from_doc(doc)
    assert back.strong_order == res.order


def test_transformed_atoms_roundtrip():
    rng = random.Random(22)
    ws = random_whitehead_system(rng, n=2, r=0, truncation=3)
    for transform in (transform_disjoint, transform_tree):
        res = transform(ws.family)
        doc = json.loads(json.dumps(jsonio.system_to_doc(res.family)))
        back = jsonio.family_from_doc(doc)
        assert back.phi == dict(res.family.phi)
        assert validate_family(back) == []


def test_every_atom_walk_takes_an_atom_at_the_depth_bound():
    deep = "x"
    for _ in range(MAX_ATOM_DEPTH):
        deep = [deep]
    atom = atom_from_jsonable(deep)
    assert atom_to_jsonable(atom) == deep
    assert atom_sort_key(atom) > atom_sort_key(("x",))
    assert atom_name(atom) == "a:" + json.dumps(deep, separators=(",", ":"))
    assert jsonio.dump({"atom": deep}) == json.dumps({"atom": deep}, sort_keys=True, indent=2) + "\n"
    with pytest.raises(InputError, match=f"more than {MAX_ATOM_DEPTH} deep"):
        atom_from_jsonable([deep])
    # the check counts lists level by level, so an atom far past any recursion limit is rejected too
    for _ in range(100_000):
        deep = [deep]
    with pytest.raises(InputError, match=f"more than {MAX_ATOM_DEPTH} deep"):
        atom_from_jsonable(deep)


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
    doc = json.loads(json.dumps(instance_to_doc(inst)))
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



def test_decimal_text_matches_str():
    switch = jsonio._DECIMAL_BITS
    rng = random.Random(41)
    values = [0, 1, -1, 7, -(2 ** 64), 10 ** 4299, 10 ** 4300, 10 ** 4999 + 7, -(10 ** 5000 - 1)]
    for bits in (switch - 1, switch, switch + 1, 2 * switch + 3, 300_000):
        n = rng.getrandbits(bits) | 1 << (bits - 1)  # exactly `bits` bits
        values += [n, -n, 1 << (bits - 1), (1 << bits) - 1]
    with jsonio._unlimited_digits():
        for n in values:
            assert jsonio._decimal_text(n) == str(n), n.bit_length()


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


@settings(max_examples=800, deadline=None)
@given(_DOCS, st.sampled_from([jsonio._COLUMN_MIN, 1]))
def test_dump_matches_json_dumps(doc, column_min):
    # at a cutoff of 1 every container that holds containers is rendered a column at a time
    with mock.patch.object(jsonio, "_COLUMN_MIN", column_min):
        assert _outcome(jsonio.dump, doc) == _outcome(_json_dumps, doc)


# --- dump on long columns -----------------------------------------------------

# strings that hold the brackets and separators the column path splits at, and format marks
_AWKWARD = st.sampled_from(
    ["]", "}", ",", '"', "\\", "%", "%s", "%%", "\n", "],\n  [", "},\n  {", "\u00e9", "\U0001d538", ""]
)
_LEAVES = st.one_of(
    _AWKWARD,
    st.text(max_size=5),
    st.integers(),
    st.integers(10 ** 4300, 10 ** 4310),
    st.booleans(),
    st.none(),
    st.floats(),
)
# atoms as documents carry them: plain, ragged lists, and pairs holding an empty list like ["a0", []]
_ATOMS_AS_JSON = st.one_of(
    _LEAVES, st.lists(_LEAVES, max_size=3), st.tuples(_AWKWARD | st.integers(), st.just([])).map(list)
)
_NON_STR_KEYS = st.one_of(st.integers(-9, 9), st.floats(), st.booleans(), st.none())


class _Int(int):
    pass


class _Str(str):
    pass


def _long(values):
    """Columns of 40 to 300 values, each a pick from a pool of up to 8 drawn from `values`."""
    return st.lists(values, min_size=1, max_size=8).flatmap(
        lambda pool: st.lists(st.sampled_from(pool), min_size=40, max_size=300)
    )


_RECORDS = st.lists(_AWKWARD | st.text(max_size=4), min_size=1, max_size=4, unique=True).flatmap(
    lambda keys: _long(st.fixed_dictionaries({k: _ATOMS_AS_JSON | st.lists(_ATOMS_AS_JSON, max_size=3) for k in keys}))
)


@st.composite
def _near_records(draw):
    """Records that share their keys, but for a few that gain or lose one."""
    column = [dict(r) for r in draw(_RECORDS)]
    for i in draw(st.lists(st.integers(0, len(column) - 1), min_size=1, max_size=3)):
        if len(column[i]) > 1 and draw(st.booleans()):
            del column[i][next(iter(column[i]))]
        else:
            column[i][draw(_AWKWARD | st.text(max_size=4))] = draw(_LEAVES)
    return column


_LONG_COLUMNS = st.one_of(
    _long(_LEAVES),
    _long(st.lists(_ATOMS_AS_JSON, max_size=4)),
    _long(st.lists(st.lists(_LEAVES, max_size=3), max_size=3).map(tuple)),
    # long flat lists, with an empty one at either end
    _long(st.lists(st.integers(-9, 99) | _AWKWARD, min_size=200, max_size=300)).map(lambda c: [[], *c, []]),
    _RECORDS,
    _near_records(),
    _long(st.dictionaries(_AWKWARD | st.text(max_size=3), st.lists(_ATOMS_AS_JSON, max_size=3), max_size=4)),
    _long(st.dictionaries(_NON_STR_KEYS, _LEAVES | st.lists(_LEAVES, max_size=2), max_size=3)),
    _long(st.one_of(_LEAVES, _ATOMS_AS_JSON, _RECORDS.map(lambda c: c[0]), st.sampled_from([_Int(7), _Str("s]")]))),
)
# a long column as a list, as the values of a dict with string keys, and as the values of one with int keys
_LONG_DOCS = st.one_of(
    _LONG_COLUMNS.map(lambda c: {"column": c}),
    _LONG_COLUMNS.map(lambda c: {f"k{i}%s]": v for i, v in enumerate(c)}),
    _LONG_COLUMNS.map(lambda c: {"map": dict(enumerate(c))}),
)


@st.composite
def _poisoned(draw):
    """A long column with, in its second half, a value the encoder refuses or a dict whose keys cannot be sorted."""
    column = list(draw(_LONG_COLUMNS))
    i = draw(st.integers(len(column) // 2, len(column) - 1))
    poison = draw(_UNENCODABLE | st.just({1: "a", "b": 2}))
    v = column[i]
    column[i] = {**v, "~": poison} if isinstance(v, dict) else [*v, poison] if isinstance(v, list) else poison
    return {"column": column}


_LONG_SETTINGS = settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large]
)


@_LONG_SETTINGS
@given(_LONG_DOCS)
def test_dump_matches_json_dumps_on_long_columns(doc):
    assert _outcome(jsonio.dump, doc) == _outcome(_json_dumps, doc)


@_LONG_SETTINGS
@given(_poisoned())
def test_dump_fails_as_json_dumps_does_deep_in_a_long_column(doc):
    assert _outcome(jsonio.dump, doc) is _outcome(_json_dumps, doc) is TypeError


def test_dump_without_the_c_encoder(monkeypatch):
    atoms = [["a%d" % i, []] if i % 3 else ["x]", "%s", i] for i in range(40)]
    doc = {
        "flat": [1, "\u00e9", None, 2.5, True],
        "mixed": [[], {}, [3, [4]], {"b": 1, "a": [2]}, "x"],
        "keys": {1: [1], 2: {"n": 10 ** 4400}},
        "empty": {},
        "records": [{"atom": a, "levels": [i, i + 1], "n": 10 ** 4400 + i} for i, a in enumerate(atoms)],
        "map": {f"{i}%": [a, "}"] for i, a in enumerate(atoms)},
        "rows": [[i, "]"] * 150 for i in range(jsonio._COLUMN_MIN)] + [[]],
    }
    assert len(doc["records"]) >= jsonio._COLUMN_MIN
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
        sys_ = ws.family.system
        args = [(sys_, ws.family, ws), (sys_, ws.family), (sys_,)]
    elif "phi" in doc:
        fam = jsonio.family_from_doc(doc)
        args = [(fam.system, fam), (fam.system,)]
    else:
        args = [(jsonio.system_from_doc(doc),)]
    if len(args[0]) > 1:
        for transform in (transform_disjoint, transform_tree):
            res = transform(args[0][1])
            args.append((res.family.system, res.family))
    for a in args:  # the reference takes every part, system_to_doc the richest
        assert jsonio.system_to_doc(a[-1]) == reference.system_to_doc(*a)


def test_system_to_doc_gives_every_node_its_own_b_list():
    # the large family's finals share their carriers mid by mid, and each
    # distinct carrier is written once
    fam = jsonio.family_from_doc(json.loads((GOLDEN_INPUTS / "large-family.json").read_text()))
    for x in (fam, transform_disjoint(fam).family, transform_tree(fam).family):
        lists = list(jsonio.system_to_doc(x)["B"].values())
        assert len(set(x.system.B.values())) < len(lists)
        assert len({id(b) for b in lists}) == len(lists)


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
    doc = jsonio.system_to_doc(fam)
    assert doc == reference.system_to_doc(sys_, fam)
    assert jsonio.system_to_doc(sys_) == reference.system_to_doc(sys_)
    back = jsonio.family_from_doc(json.loads(jsonio.dump(doc)))
    assert back.system.B == dict(sys_.B)
    assert back.phi == dict(fam.phi)


_NOT_INTS = st.sampled_from([True, 1.5, None, {}, "2", [1]])
_NOT_LISTS = st.sampled_from([True, 3, 1.5, None, {}, "x"])
_NESTED_OR_NOT_ATOMS = st.sampled_from([[1, "a"], [[2]], [], [True], True, False, 1.5, None, {}, {"a": 1}])
_BAD_KEYS = st.sampled_from(["x", "0.y", "1..2", "-", " 1", "01"])
# the map swaps reach -> (what a value becomes, what a list value takes in)
_DAMAGE = {
    "level": (_NOT_INTS, None),
    "E": (_NOT_LISTS, _NOT_INTS),
    "B": (_NOT_LISTS, _NESTED_OR_NOT_ATOMS),
    "phi": (_NOT_LISTS, None),
    "slices": (_NOT_LISTS, _NESTED_OR_NOT_ATOMS),
}


@st.composite
def _damaged_family_docs(draw):
    """A family document with up to three values, list items or keys swapped for nested or malformed ones."""
    _, fam = draw(_mixed_families())
    doc = json.loads(jsonio.dump(jsonio.system_to_doc(fam)))
    for _ in range(draw(st.integers(0, 3))):
        target = draw(st.sampled_from(list(_DAMAGE)))
        values = doc[target] if target != "slices" else draw(st.sampled_from(list(doc["phi"].values())))
        if not isinstance(values, dict) or not values:
            continue  # an earlier swap replaced this final's slices
        key = draw(st.sampled_from(list(values)))
        malformed, items = _DAMAGE[target]
        how = draw(st.sampled_from(["value", "item", "key"]))
        if how == "key":  # anywhere in the map, so that it may come before another bad key or value
            entries = list(values.items())
            entries.insert(draw(st.integers(0, len(entries))), (draw(_BAD_KEYS), values[key]))
            values.clear()
            values.update(entries)
        elif how == "item" and items is not None and isinstance(values[key], list):
            values[key].insert(draw(st.integers(0, len(values[key]))), draw(items))
        else:
            values[key] = draw(malformed)
    return doc


def _parsed(parse, doc):
    try:
        fam = parse(doc)
    except ValueError as exc:  # InputError, or int() on a malformed key
        return type(exc), str(exc)
    s = fam.system
    return s.nodes, dict(s.level), dict(s.E), dict(s.B), s.largeness, fam.finals, dict(fam.phi), fam.truncation


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_damaged_family_docs())
@example(  # a malformed final's key before a malformed level key: the final's is reported
    {
        "schema": "lamsys/1", "nodes": ["", "0"], "level": {"": 1, "0": 0}, "E": {"": [0]}, "B": {"": [], "0": []},
        "phi": {"0.y": {"1": []}, "0": {"z": []}}, "truncation": 1,
    }
)
def test_column_parse_matches_the_per_value_parse(doc):
    # the first error in document order is still the one reported
    assert _parsed(jsonio.family_from_doc, doc) == _parsed(reference.family_from_doc, doc)
