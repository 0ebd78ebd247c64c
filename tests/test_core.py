"""Skeleton validation, ordering, and transforms."""

import functools
import itertools
import json

import pytest
from hypothesis import Phase, example, find, given, settings, strategies as st

import reference
from reference import lex_compare
from lamsys.core import (
    ROOT,
    atom_ranks,
    atom_sort_key,
    atom_text,
    atom_to_jsonable,
    check_structure,
    make_family,
    make_skeleton,
    node_key,
    parse_node_key,
    transform_disjoint,
    transform_tree,
    validate_family,
    validate_system,
)


def minimal_system():
    return make_skeleton(
        nodes=[(), (0,)],
        level={(): 2, (0,): 0},
        e_map={(): [0]},
        b_map={(): [], (0,): ["a", "b"]},
    )


def height2_system():
    # two branches at the root, two finals under the first
    nodes = [(), (0,), (1,), (0, 0), (0, 1), (1, 0)]
    return make_skeleton(
        nodes=nodes,
        level={(): 3, (0,): 1, (1,): 1, (0, 0): 0, (0, 1): 0, (1, 0): 0},
        e_map={(): [0, 1], (0,): [0, 1], (1,): [0]},
        b_map={
            (): [],
            (0,): ["u"],
            (1,): ["u", "v"],
            (0, 0): ["x"],
            (0, 1): ["x", "y"],
            (1, 0): ["w"],
        },
    )


def height2_family():
    sys_ = height2_system()
    phi = {
        ((0, 0), 1): ["u"],
        ((0, 0), 2): ["x"],
        ((0, 1), 1): ["u"],
        ((0, 1), 2): ["y"],
        ((1, 0), 1): ["v"],
        ((1, 0), 2): ["w"],
    }
    return sys_, make_family(sys_, phi, truncation=1)


def test_node_keys_roundtrip():
    for node in [(), (0,), (3, 1, 12)]:
        assert parse_node_key(node_key(node)) == node


def test_validate_minimal_passes():
    assert validate_system(minimal_system()) == []


def test_validate_degenerate_single_node():
    sys_ = make_skeleton(nodes=[()], level={(): 1}, e_map={}, b_map={(): []})
    clauses = {v.clause for v in validate_system(sys_)}
    assert "no-final-node" in clauses
    assert "final-iff-level-zero" in clauses


def test_validate_level_must_decrease():
    sys_ = make_skeleton(
        nodes=[(), (0,)],
        level={(): 2, (0,): 2},
        e_map={(): [0]},
        b_map={(): [], (0,): []},
    )
    report = validate_system(sys_)
    assert any(v.clause == "level-decrease" and "strictly decrease" in v.detail for v in report)


def test_validate_chain_monotonicity():
    sys_ = make_skeleton(
        nodes=[(), (0,), (1,)],
        level={(): 2, (0,): 0, (1,): 0},
        e_map={(): [0, 1]},
        b_map={(): [], (0,): ["a", "b"], (1,): ["b"]},
    )
    report = validate_system(sys_)
    assert any(v.clause == "B-chain" for v in report)


def test_validate_largeness_predicate():
    sys_ = make_skeleton(
        nodes=[(), (0,)],
        level={(): 4, (0,): 0},
        e_map={(): [0]},
        b_map={(): [], (0,): []},
        largeness="half",
    )
    report = validate_system(sys_)
    assert any(v.clause == "largeness" for v in report)


def test_derived_slices_disjoint_from_low_carriers_after_transform():
    # the derived system above a node eta keeps the slices past level len(eta);
    # after the transform each slice misses every carrier on the path to eta
    _, fam = height2_family()
    res = transform_disjoint(fam)
    for z in res.family.finals:
        for k in range(1, len(z) + 1):
            for m in range(k):
                assert res.family.slice_atoms(z, k).isdisjoint(res.family.system.B.get(z[:m], frozenset()))


def test_lex_compare_examples():
    assert lex_compare((1,), (1, 0)) == -1
    assert lex_compare((1, 5), (2,)) == -1
    assert lex_compare((2,), (2,)) == 0
    assert lex_compare((2, 1), (2, 0)) == 1


def test_lex_total_order_bruteforce():
    nodes = [(), (0,), (1,), (0, 0), (0, 2), (1, 1), (2,)]
    by_key = sorted(nodes)
    for a, b in itertools.combinations(nodes, 2):
        assert lex_compare(a, b) == -lex_compare(b, a)
        assert (by_key.index(a) < by_key.index(b)) == (lex_compare(a, b) == -1)
    for a, b, c in itertools.permutations(nodes, 3):
        if lex_compare(a, b) == -1 and lex_compare(b, c) == -1:
            assert lex_compare(a, c) == -1


@st.composite
def _node_lists(draw):
    """Int tuples that share prefixes, with negative coordinates and repeats."""
    nodes = draw(st.lists(st.lists(st.integers(-3, 3), max_size=4).map(tuple), max_size=12))
    extended = draw(st.lists(st.sampled_from(nodes), max_size=6)) if nodes else []
    return nodes + [n[: len(n) // 2] for n in extended] + [n + (draw(st.integers(-3, 3)),) for n in extended]


@settings(max_examples=300, deadline=None)
@given(_node_lists())
def test_tuple_order_is_lex_compare(nodes):
    assert sorted(nodes) == sorted(nodes, key=functools.cmp_to_key(lex_compare))


def test_structure_disjoint_carriers_pass():
    sys_ = make_skeleton(
        nodes=[(), (0,), (1,)],
        level={(): 2, (0,): 0, (1,): 0},
        e_map={(): [0, 1]},
        b_map={(): [], (0,): ["a"], (1,): ["a", "b"]},
    )
    fam = make_family(sys_, {((0,), 1): ["a"], ((1,), 1): ["b"]}, truncation=1)
    report = check_structure(fam)
    assert not report.sibling_overlap and not report.slice_alignment


def test_structure_cross_level_sharing_fails():
    sys_, fam = height2_family()
    # u appears at level 1 of (0,0) and as a level 2 value of a doctored final
    phi = dict(fam.phi)
    phi[((1, 0), 2)] = ("u",)
    sys2 = make_skeleton(
        nodes=sys_.nodes,
        level=sys_.level,
        e_map=sys_.E,
        b_map={**{k: set(v) for k, v in sys_.B.items()}, (1, 0): {"w", "u"}},
    )
    bad = make_family(sys2, phi, truncation=1)
    report = check_structure(bad)
    assert any(w["levels"] != (1, 1) or w["levels"][0] != w["levels"][1] for w in report.slice_alignment)
    assert report.slice_alignment


def test_structure_enumeration_tree_violation():
    sys_ = make_skeleton(
        nodes=[(), (0,), (1,)],
        level={(): 2, (0,): 0, (1,): 0},
        e_map={(): [0, 1]},
        b_map={(): [], (0,): ["a", "b"], (1,): ["a", "b"]},
    )
    fam = make_family(
        sys_, {((0,), 1): ["a", "b"], ((1,), 1): ["b"]}, truncation=2
    )
    report = check_structure(fam)
    # b follows a in the first enumeration but appears alone in the second slice
    assert any(w["position"] == 1 for w in report.enumeration_tree)


def test_transform_disjoint_fixes_shared_atom():
    _, fam = height2_family()
    before = check_structure(fam)
    assert before.sibling_overlap or before.slice_alignment
    res = transform_disjoint(fam)
    assert validate_system(res.family.system) == []
    assert validate_family(res.family) == []
    after = check_structure(res.family)
    assert not after.sibling_overlap
    # per-final level ranges are now pairwise disjoint
    for z in res.family.finals:
        for k1 in range(1, len(z) + 1):
            for k2 in range(k1 + 1, len(z) + 1):
                assert res.family.slice_atoms(z, k1).isdisjoint(res.family.slice_atoms(z, k2))
    # witness values transfer back
    for (z, k), vals in res.family.phi.items():
        for new, old in zip(vals, fam.phi[(z, k)]):
            assert res.old_of_new[new] == old


def test_transform_disjoint_idempotent_up_to_relabeling():
    _, fam = height2_family()
    once = transform_disjoint(fam)
    twice = transform_disjoint(once.family)
    for (z, k), vals in twice.family.phi.items():
        # stripping the second tag recovers the first transform exactly
        assert tuple(twice.old_of_new[v] for v in vals) == once.family.phi[(z, k)]


def test_transform_tree_gives_enumeration_property():
    _, fam = height2_family()
    res = transform_tree(fam)
    assert validate_system(res.family.system) == []
    assert validate_family(res.family) == []
    report = check_structure(res.family)
    assert not report.enumeration_tree
    for (z, k), vals in res.family.phi.items():
        for new, old in zip(vals, fam.phi[(z, k)]):
            assert res.old_of_new[new] == old


def test_transform_tree_property_random():
    import random

    from helpers import random_whitehead_system

    rng = random.Random(77)
    for _ in range(15):
        ws = random_whitehead_system(
            rng,
            n=rng.choice((1, 2)),
            r=0,
            truncation=rng.randint(2, 4),
            cross_level_atoms=rng.random() < 0.5,
        )
        res = transform_tree(ws.family)
        assert validate_system(res.family.system) == []
        assert check_structure(res.family).enumeration_tree == ()


def test_transform_tree_on_longer_slices():
    sys_ = make_skeleton(
        nodes=[(), (0,), (1,)],
        level={(): 2, (0,): 0, (1,): 0},
        e_map={(): [0, 1]},
        b_map={(): [], (0,): ["a", "b", "c"], (1,): ["a", "b", "c"]},
    )
    fam = make_family(
        sys_, {((0,), 1): ["a", "b"], ((1,), 1): ["b", "a"]}, truncation=2
    )
    res = transform_tree(fam)
    assert check_structure(res.family).enumeration_tree == ()
    assert res.family.phi[((0,), 1)] == (("a",), ("a", "b"))


ATOMS = ("a", "b", "c", "d", 0, 1, ("t", 0))


@st.composite
def structured_families(draw):
    """Random skeleton of height up to 3 with random carriers and slices.

    Slices may repeat a value, and phi may carry keys outside its domain:
    level 0, a level past the final's length, or a non-final node.
    """
    nodes = {ROOT}
    frontier = [ROOT]
    while frontier:
        node = frontier.pop()
        if len(node) == 3 or (node != ROOT and draw(st.booleans())):
            continue
        for i in draw(st.sets(st.integers(0, 3), min_size=1, max_size=3)):
            nodes.add(node + (i,))
            frontier.append(node + (i,))
    atoms = st.sampled_from(ATOMS)
    b_map = {n: draw(st.sets(atoms, max_size=4)) for n in nodes}
    sys_ = make_skeleton(nodes=nodes, level={n: 0 for n in nodes}, e_map={}, b_map=b_map)
    finals = sys_.finals()
    phi = {(z, k): draw(st.lists(atoms, max_size=4)) for z in finals for k in range(1, len(z) + 1)}
    inner = sorted(nodes - set(finals))
    strays = [(z, 0) for z in finals] + [(z, len(z) + 1) for z in finals] + [(n, 1) for n in inner]
    for key in draw(st.lists(st.sampled_from(strays), max_size=3)):
        phi[key] = draw(st.lists(atoms, max_size=4))
    return sys_, make_family(sys_, phi, truncation=0)


@settings(max_examples=300, deadline=None)
@given(structured_families())
def test_structure_agrees_with_quadratic_reference(case):
    sys_, fam = case
    report = check_structure(fam)
    got = (report.sibling_overlap, report.slice_alignment, report.enumeration_tree)
    assert got == reference.check_structure(sys_, fam)


@settings(max_examples=150, deadline=None)
@given(structured_families())
def test_tree_carriers_agree_with_quadratic_reference(case):
    sys_, fam = case
    assert transform_tree(fam).family.system.B == reference.tree_carriers(sys_, fam)


def test_structure_strategy_reaches_every_witness_kind():
    # find raises NoSuchExample when no drawn case has all three kinds
    quick = settings(database=None, phases=[Phase.generate])
    find(structured_families(), lambda case: all(reference.check_structure(*case)), settings=quick)


# every code point, lone surrogates included, and ints of many machine words
_PLAIN_ATOMS = st.integers() | st.integers(-(2**200), 2**200) | st.text(st.characters(blacklist_categories=()))
_NESTED_ATOMS = st.recursive(_PLAIN_ATOMS, lambda c: st.lists(c, max_size=3).map(tuple), max_leaves=8)


@settings(max_examples=300, deadline=None)
@given(_NESTED_ATOMS)
@example('q"uote\\back\x00\x1f\x7f\ud800\udfff\u00e9\U0001f600')
@example(-(2**64) - 1)
@example((("x", (0,)), (-3, "\ud83d")))
def test_atom_text_is_the_compact_json_dumps_text(a):
    assert atom_text(a) == json.dumps(atom_to_jsonable(a), sort_keys=True, separators=(",", ":"))


# tuples over a small pool of components, so that many tuples share components and prefixes, nested up to 4 deep
_SHARED_PARTS = st.sampled_from([0, 1, -1, 2**70, "", "a", "b", "ab"])
_DEEP_ATOMS = st.recursive(_SHARED_PARTS, lambda c: st.lists(c, max_size=3).map(tuple), max_leaves=12)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.integers() | st.text(max_size=3), max_size=12)
    | st.lists(_NESTED_ATOMS, max_size=6)
    | st.sets(_DEEP_ATOMS, max_size=25).map(list)
)
@example([(), ((),), (0,), (0, 0), ((0,),), ("a",), (("a", 0), 1), (("a",), 1), (("a", 0),)])
def test_atom_ranks_agree_with_the_key_sort(atoms):
    assert atom_ranks(atoms) == {a: i for i, a in enumerate(sorted(atoms, key=atom_sort_key))}


@settings(max_examples=100, deadline=None)
@given(st.sets(_DEEP_ATOMS, max_size=10), st.sampled_from([True, False, 1.0]), st.integers(1, 3))
def test_atom_ranks_reject_a_non_atom_inside_a_tuple(atoms, bad, depth):
    # the bool or float sits beside the int it equals, which a set of parts would merge it into
    wrapped, plain = bad, int(bad)
    for _ in range(depth):
        wrapped, plain = (wrapped, "x"), (plain, "x")
    with pytest.raises(TypeError):
        atom_ranks([*atoms, plain, wrapped])
    with pytest.raises(TypeError):
        atom_ranks([wrapped, *atoms, plain])


def test_atom_ranks_reject_a_bool_among_plain_atoms():
    with pytest.raises(TypeError, match="bool"):
        atom_ranks([1, "a", True])
