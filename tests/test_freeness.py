"""Transversal search against exhaustive oracles; reshuffling against permutation brute force and the quadratic reference."""

import itertools
import random

import pytest
from hypothesis import example, given, settings, strategies as st

import reference
from lamsys.core import make_family, make_skeleton, node_key
from lamsys.freeness import (
    HallCertificate,
    ReshufflingObstruction,
    ReshufflingOrder,
    Transversal,
    _max_matching,
    find_reshuffling,
    find_transversal,
    k_free_check,
)


def has_sdr(family) -> bool:
    """Exhaustive system-of-distinct-representatives search."""
    sets = [frozenset(s) for s in family]

    def rec(i, used):
        if i == len(sets):
            return True
        return any(rec(i + 1, used | {a}) for a in sets[i] if a not in used)

    return rec(0, frozenset())


def test_twins_certificate():
    cert = find_transversal([{"a"}, {"a"}])
    assert isinstance(cert, HallCertificate)
    assert cert.violator == frozenset({0, 1})


@pytest.mark.parametrize("n", [1_500, 10_000])
def test_long_augmenting_paths(n):
    # {0} takes atom 0 last, so its augmenting path runs through all n sets
    family = [{i, i + 1} for i in range(n)] + [{0}]
    t = find_transversal(family)
    assert isinstance(t, Transversal)
    assert t.verify([frozenset(s) for s in family])


def test_simple_transversal():
    t = find_transversal([{"a", "b"}, {"b", "c"}])
    assert isinstance(t, Transversal)
    assert t.verify([frozenset({"a", "b"}), frozenset({"b", "c"})])


def test_empty_set_certificate():
    cert = find_transversal([set(), {"a"}])
    assert isinstance(cert, HallCertificate)
    assert cert.violator == frozenset({0})


families = st.lists(
    st.sets(st.sampled_from("abcdefgh"), max_size=4), min_size=1, max_size=6
)


@settings(max_examples=300, deadline=None)
@given(families)
def test_matching_agrees_with_exhaustive_oracle(fam):
    sets = [frozenset(s) for s in fam]
    res = find_transversal(sets)
    if isinstance(res, Transversal):
        assert has_sdr(sets)
        assert res.verify(sets)
    else:
        assert not has_sdr(sets)
        assert res.verify(sets)


_MIXED_ATOMS = st.sampled_from([0, 1, 2, 3, "a", "b", "c", (0,), ("a", 1), ((1, "b"),)])


@st.composite
def _shared_first_families(draw):
    """Sets of int, str and tuple atoms, some of which share the lowest-ranked atom -1."""
    sets = draw(st.lists(st.frozensets(_MIXED_ATOMS, max_size=4), min_size=1, max_size=10))
    # -1 sorts before every other atom, so each set that takes it starts
    # with an atom that an earlier set may hold, and the search must run
    takes = draw(st.lists(st.booleans(), min_size=len(sets), max_size=len(sets)))
    return [s | {-1} if t else s for s, t in zip(sets, takes)]


@settings(max_examples=300, deadline=None)
@given(_shared_first_families())
@example([frozenset({-1, 1}), frozenset({-1, 2}), frozenset({-1})])
@example([frozenset({-1}), frozenset({-1}), frozenset(), frozenset({"a", (0,)})])
def test_matching_agrees_with_a_search_from_every_set(sets):
    got = _max_matching(sets)
    want = reference.max_matching(sets)
    assert [list(d.items()) for d in got] == [list(d.items()) for d in want]


def test_k_free_examples():
    fam = [{"a"}, {"a"}, {"b", "c"}]
    assert k_free_check(fam, 2) == "pass"
    cert = k_free_check(fam, 3)
    assert isinstance(cert, HallCertificate)
    assert cert.violator == frozenset({0, 1})
    assert k_free_check([{"a"}, {"b"}, {"c"}], 4) == "pass"


@settings(max_examples=150, deadline=None)
@given(families, st.integers(0, 7))
def test_k_free_agrees_with_subset_enumeration(fam, k):
    sets = [frozenset(s) for s in fam]
    k = min(k, len(sets) + 1)
    expected_pass = all(
        has_sdr([sets[i] for i in subset])
        for size in range(k)
        for subset in itertools.combinations(range(len(sets)), size)
    )
    res = k_free_check(sets, k)
    if expected_pass:
        assert res == "pass"
    else:
        assert isinstance(res, HallCertificate)
        assert len(res.violator) < k
        assert res.verify(sets)


@settings(max_examples=300, deadline=None)
@given(families, st.integers(0, 7))
@example([{"a"}, {"a", "b"}, {"b"}, {"b"}], 4)
def test_hall_violators_are_inclusion_minimal(fam, k):
    # dropping any one set of a returned violator leaves sets that have a transversal
    sets = [frozenset(s) for s in fam]
    for res in (find_transversal(sets), k_free_check(sets, min(k, len(sets) + 1))):
        if isinstance(res, HallCertificate):
            assert all(has_sdr([sets[j] for j in res.violator - {i}]) for i in res.violator)


@settings(max_examples=150, deadline=None)
@given(families)
def test_k_free_monotone(fam):
    sets = [frozenset(s) for s in fam]
    passes = [k_free_check(sets, k) == "pass" for k in range(len(sets) + 2)]
    for smaller, larger in zip(passes, passes[1:]):
        assert smaller or not larger


def flat_family(sets_by_first):
    """Height-1 system with one final per entry; key = first coordinate."""
    finals = [(i,) for i in sorted(sets_by_first)]
    atoms = sorted({a for s in sets_by_first.values() for a in s})
    nodes = [()] + finals
    sys_ = make_skeleton(
        nodes=nodes,
        level={(): 1, **{f: 0 for f in finals}},
        e_map={(): [f[0] for f in finals]},
        b_map={(): [], **{f: atoms for f in finals}},
    )
    trunc = max(len(s) for s in sets_by_first.values())
    phi = {}
    for f in finals:
        vals = sorted(sets_by_first[f[0]])
        # pad to a fixed truncation with private filler atoms? no: keep exact sets,
        # so use per-final truncation by repeating nothing and trimming below
        phi[(f, 1)] = vals
    fam = make_family(sys_, phi, truncation=trunc)
    return sys_, fam


def test_reshuffle_single_final():
    sets = {0: ["a", "b"]}
    _, fam = flat_family(sets)
    res = find_reshuffling(fam, alpha=5, theta_fresh=2)
    assert res.status == "found"
    assert res.order.order == ((0,),)


def test_reshuffle_alpha_split_forces_order():
    sets = {0: ["a"], 3: ["b"]}
    _, fam = flat_family(sets)
    res = find_reshuffling(fam, alpha=1, theta_fresh=1)
    assert res.status == "found"
    assert res.order.order == ((0,), (3,))
    assert res.order.verify(fam)


def test_reshuffle_unique_order_found():
    # pairwise-overlapping; enumeration of all 24 orders leaves exactly one
    sets = {
        0: ["t1", "t5"],
        1: ["t1", "t3", "t4", "t6", "t8"],
        2: ["t1", "t2", "t4", "t5", "t8"],
        3: ["t0", "t3", "t5", "t9"],
    }
    assert all(
        set(sets[i]) & set(sets[j]) for i in range(4) for j in range(i + 1, 4)
    )
    _, fam = flat_family(sets)
    valid = []
    fams = {(i,): frozenset(v) for i, v in sets.items()}
    for perm in itertools.permutations(sorted(fams)):
        seen = set()
        ok = True
        for z in perm:
            if len(fams[z] - seen) < 2:
                ok = False
                break
            seen |= fams[z]
        if ok:
            valid.append(perm)
    assert len(valid) == 1 and valid[0] == ((0,), (2,), (1,), (3,))
    res = find_reshuffling(fam, alpha=-1, theta_fresh=2)
    assert res.status == "found"
    assert res.order.order == valid[0]


def test_reshuffle_none_after_exhaustive_search():
    sets = {0: ["a"], 1: ["a"]}
    _, fam = flat_family(sets)
    res = find_reshuffling(fam, alpha=-1, theta_fresh=1)
    assert res.status == "none"
    assert res.obstruction == ReshufflingObstruction(((0,), (1,)), -1, 1)
    assert res.nodes_visited == 0


def test_reshuffle_obstruction_keeps_the_stuck_finals():
    # (2,) holds b alone and is peeled; (0,) and (1,) share their one atom
    _, fam = flat_family({0: ["a"], 1: ["a"], 2: ["b"]})
    res = find_reshuffling(fam, alpha=-1, theta_fresh=1)
    assert (res.status, res.order, res.nodes_visited) == ("none", None, 1)
    assert res.obstruction.remaining == ((0,), (1,))


def test_mutated_obstructions_are_rejected():
    _, fam = flat_family({0: ["a"], 1: ["a"], 2: ["b"]})
    index = fam.finals
    good = ReshufflingObstruction(((0,), (1,)), -1, 1)
    assert good.verify(fam, index)
    mutations = {
        # (0,) then holds a alone
        "final removed": (ReshufflingObstruction(((0,),), -1, 1), index),
        # (2,) holds b alone and is in the pool
        "final with a private atom added": (ReshufflingObstruction(((0,), (1,), (2,)), -1, 1), index),
        "final outside the searched ones": (good, index[1:]),
        "final repeated": (ReshufflingObstruction(((0,), (0,), (1,)), -1, 1), index),
        "no final": (ReshufflingObstruction((), -1, 1), index),
    }
    for name, (obstruction, searched) in mutations.items():
        assert not obstruction.verify(fam, searched), name
        assert not reference.verify_obstruction(obstruction, fam, searched), name
    # at alpha 0 the pool is (1,) and (2,), which share a; (0,) holds b alone
    _, fam = flat_family({0: ["a", "b"], 1: ["a"], 2: ["a"]})
    res = find_reshuffling(fam, alpha=0, theta_fresh=1)
    assert res.obstruction == ReshufflingObstruction(((0,), (1,), (2,)), 0, 1)
    wrong_alpha = ReshufflingObstruction(res.obstruction.remaining, 2, 1)
    assert not wrong_alpha.verify(fam, fam.finals)
    assert not reference.verify_obstruction(wrong_alpha, fam, fam.finals)


def test_reshuffle_large_instance_greedy():
    rng = random.Random(3)
    sets = {i: [f"s{i}a{j}" for j in range(3)] + [f"shared{rng.randint(0, 4)}"] for i in range(14)}
    _, fam = flat_family(sets)
    res = find_reshuffling(fam, alpha=6, theta_fresh=2)
    assert res.status == "found"
    assert res.order.verify(fam)


def test_reshuffle_agrees_with_permutation_enumeration():
    rng = random.Random(5)
    atoms = [f"t{i}" for i in range(6)]
    for trial in range(40):
        sets = {
            i: rng.sample(atoms, rng.randint(1, 3)) for i in range(rng.randint(1, 5))
        }
        alpha = rng.randint(-1, 4)
        theta = rng.randint(1, 2)
        _, fam = flat_family(sets)
        fams = {(i,): frozenset(v) for i, v in sets.items()}

        def order_ok(perm):
            seen = set()
            for z in perm:
                if len(fams[z] - seen) < theta:
                    return False
                seen |= fams[z]
            for i, tau in enumerate(perm):
                for z in perm[i + 1:]:
                    if z[0] <= alpha < tau[0]:
                        return False
            return True

        any_valid = any(order_ok(p) for p in itertools.permutations(sorted(fams)))
        res = find_reshuffling(fam, alpha=alpha, theta_fresh=theta)
        assert (res.status == "found") == any_valid
        if res.order:
            assert order_ok(res.order.order)


def random_reshuffling_case(rng):
    """A family of 11-60 finals of height 1 or 2, an alpha and a theta_fresh.

    About half the families give every final theta_fresh or more private
    atoms, so an order exists; the others draw from one pool, from tight
    (mostly no order) to roomy.  Alpha lies below every final, splits them,
    or lies above them all.
    """
    n = rng.randint(11, 60)
    if rng.random() < 0.5:
        finals = [(i,) for i in sorted(rng.sample(range(3 * n), n))]
    else:
        finals, first = [], 0
        while len(finals) < n:
            finals += [(first, j) for j in sorted(rng.sample(range(6), rng.randint(1, 4)))]
            first += rng.randint(1, 3)
        finals = finals[:n]
    nodes = {z[:m] for z in finals for m in range(len(z) + 1)}
    sys_ = make_skeleton(nodes=nodes, level={z: 0 for z in nodes}, e_map={}, b_map={})
    theta = rng.randint(1, 3)
    pool = list(range(rng.randint(n // 2, 3 * n)))
    private = rng.random() < 0.5
    short = rng.random() < 0.1  # some finals may hold fewer than theta atoms
    phi = {}
    for z in finals:
        for k in range(1, len(z)):
            phi[(z, k)] = rng.sample(pool, rng.randint(0, 3))
        own = rng.randint(theta - short, theta + 2)
        if private:
            phi[(z, len(z))] = rng.sample(pool, rng.randint(0, 3)) + [f"p{node_key(z)}/{t}" for t in range(own)]
        else:
            phi[(z, len(z))] = rng.sample(pool, own)
    firsts = sorted({z[0] for z in finals})
    alpha = rng.choice((firsts[0] - 1 - rng.randint(0, 2), rng.choice(firsts[:-1]), firsts[-1]))
    return make_family(sys_, phi, truncation=0), alpha, theta


def test_reshuffling_agrees_with_quadratic_reference():
    rng = random.Random("reshuffle-differential")
    outcomes = {"found": 0, "none": 0}
    for _ in range(1_000):
        fam, alpha, theta = random_reshuffling_case(rng)
        got = find_reshuffling(fam, alpha=alpha, theta_fresh=theta)
        if got.status == "found":
            assert reference.verify_order(got.order, fam)
            assert got.nodes_visited == len(fam.finals)
        else:
            assert reference.verify_obstruction(got.obstruction, fam, fam.finals)
            assert got.nodes_visited == len(fam.finals) - len(got.obstruction.remaining)
        outcomes[got.status] += 1
    assert outcomes == {"found": 503, "none": 497}


def small_family(sets_by_final):
    """Height-2 family: final (i, j) holds its atoms at level 2."""
    finals = sorted(sets_by_final)
    nodes = {z[:m] for z in finals for m in range(3)}
    sys_ = make_skeleton(nodes=nodes, level={z: 0 for z in nodes}, e_map={}, b_map={})
    phi = {(z, 1): [] for z in finals}
    phi.update({(z, 2): sorted(atoms) for z, atoms in sets_by_final.items()})
    return make_family(sys_, phi, truncation=0)


def valid_by_brute_force(sets, alphas, thetas):
    """The (alpha, theta) pairs for which some permutation of the finals is a reshuffling order."""
    valid = set()
    for perm in itertools.permutations(sets):
        seen, least = frozenset(), thetas[-1]
        for z in perm:
            least = min(least, len(sets[z] - seen))
            seen |= sets[z]
        firsts = [z[0] for z in perm]
        for alpha in alphas:
            # the finals at or below alpha come first
            low = [f <= alpha for f in firsts]
            if low == sorted(low, reverse=True):
                valid.update((alpha, theta) for theta in thetas if theta <= least)
    return valid


small_families = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 2)),
    st.frozensets(st.sampled_from("abcdef"), max_size=3),
    min_size=1,
    max_size=7,
)


@settings(max_examples=150, deadline=None)
@given(small_families)
def test_reshuffling_agrees_with_permutation_brute_force(sets):
    fam = small_family(sets)
    alphas = range(-1, max(z[0] for z in sets) + 1)
    thetas = (0, 1, 2, 3)
    valid = valid_by_brute_force(sets, alphas, thetas)
    for alpha in alphas:
        for theta in thetas:
            got = find_reshuffling(fam, alpha=alpha, theta_fresh=theta)
            assert (got.status == "found") == ((alpha, theta) in valid)
            if got.order is not None:
                assert reference.verify_order(got.order, fam)
                continue
            obstruction = got.obstruction
            assert reference.verify_obstruction(obstruction, fam, fam.finals)
            # a mutated obstruction passes exactly when the quadratic check passes it
            remaining = obstruction.remaining
            mutated = [
                ReshufflingObstruction(r, alpha, theta)
                for r in itertools.combinations(remaining, len(remaining) - 1)
            ]
            mutated += [
                ReshufflingObstruction(remaining + (z,), alpha, theta)
                for z in fam.finals
                if z not in remaining
            ]
            mutated += [ReshufflingObstruction(remaining, a, theta) for a in alphas if a != alpha]
            for m in mutated:
                assert m.verify(fam, fam.finals) == reference.verify_obstruction(m, fam, fam.finals)


def test_order_check_agrees_with_quadratic_reference():
    rng = random.Random("reshuffle-verify")
    verdicts = {True: 0, False: 0}
    for _ in range(300):
        fam, alpha, theta = random_reshuffling_case(rng)
        finals = list(fam.finals)
        for _ in range(4):
            rng.shuffle(finals)
            # theta 0 isolates the cutoff test; the rest also test freshness
            for t in (0, theta):
                order = ReshufflingOrder(tuple(finals), alpha, t)
                verdict = order.verify(fam)
                assert verdict == reference.verify_order(order, fam)
                verdicts[verdict] += 1
        # a low final moved right behind the first high one
        low = sorted(z for z in finals if z[0] <= alpha)
        high = sorted(z for z in finals if z[0] > alpha)
        if low and high:
            swapped = ReshufflingOrder(tuple(low[:-1] + high[:1] + low[-1:] + high[1:]), alpha, 0)
            assert not swapped.verify(fam) and not reference.verify_order(swapped, fam)
    assert min(verdicts.values()) >= 200, verdicts
