"""Witness groups, the witness equation solver, and quotient bases."""

import itertools
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from helpers import (
    from_rows,
    is_free,
    random_coloring,
    random_whitehead_system,
    relation_matrix,
    transformed_system,
    transport_witness,
)

from lamsys.abelian import InfeasibilityCertificate, NonfreeSpec, is_prime, solve_z
from lamsys.core import make_family, make_skeleton, transform_disjoint, transform_tree
from lamsys.freeness import ReshufflingOrder, find_reshuffling
from lamsys.record import replace
from lamsys.whitehead import (
    BasisCandidate,
    MissingValueError,
    Witness,
    WhiteheadSystem,
    atom_name,
    build_witness_group,
    enumerate_basis,
    generator_names,
    quotient_presentation,
    solve_witness,
    validate_whitehead,
    verify_basis,
    verify_witness,
    z_name,
)


def single_final_system(trunc=3, r=0, q_val=2):
    finals = [(0,)]
    sys_ = make_skeleton(
        nodes=[(), (0,)],
        level={(): 1, (0,): 0},
        e_map={(): [0]},
        b_map={(): [], (0,): [f"x{m}" for m in range(trunc)]},
    )
    fam = make_family(sys_, {((0,), 1): [f"x{m}" for m in range(trunc)]}, truncation=trunc)
    return WhiteheadSystem(
        family=fam,
        r=r,
        q={(0,): tuple(q_val for _ in range(trunc))},
        d={(0,): tuple(tuple(1 for _ in range(r)) for _ in range(trunc))},
        j_trunc=trunc + r + 2,
    )


def test_validate_whitehead_passes():
    ws = single_final_system()
    assert validate_whitehead(ws) == []


def test_build_group_transcribes_relations():
    ws = single_final_system(trunc=2)
    pres = build_witness_group(ws)
    # generators: atoms x0, x1 then z:0:0..z:0:3
    assert pres.generators[:2] == (atom_name("x0"), atom_name("x1"))
    idx = {g: i for i, g in enumerate(pres.generators)}
    row0 = pres.relations[0]
    assert row0 == {idx[z_name((0,), 1)]: 2, idx[z_name((0,), 0)]: -1, idx[atom_name("x0")]: -1}


def test_build_group_no_finals_is_trivial():
    sys_ = make_skeleton(
        nodes=[(), (0,)],
        level={(): 1, (0,): 0},
        e_map={(): [0]},
        b_map={(): [], (0,): ["b0"]},
    )
    fam = make_family(sys_, {((0,), 1): []}, truncation=0)
    ws = WhiteheadSystem(fam, r=0, q={(0,): ()}, d={(0,): ()}, j_trunc=2)
    pres = build_witness_group(ws)
    assert pres.relations == ()
    assert is_free(pres)


def test_truncated_group_always_free():
    rng = random.Random(2)
    for _ in range(15):
        ws = random_whitehead_system(
            rng,
            n=rng.choice((1, 2)),
            r=rng.randint(0, 1),
            truncation=rng.randint(2, 4),
            cross_level_atoms=rng.random() < 0.5,
        )
        assert validate_whitehead(ws) == []
        assert is_free(build_witness_group(ws))


def test_verify_witness_zero_case():
    ws = single_final_system(trunc=2)
    c = {(0,): [0, 0]}
    w = Witness(
        f={a: 0 for a in ws.family.union_s()},
        a={((0,), j): 0 for j in range(ws.j_trunc)},
    )
    ok, where = verify_witness(ws, c, w)
    assert ok and where is None


def test_verify_witness_detects_flip():
    ws = single_final_system(trunc=2)
    c = {(0,): [0, 0]}
    f = {a: 0 for a in ws.family.union_s()}
    f["x1"] = 1
    w = Witness(f=f, a={((0,), j): 0 for j in range(ws.j_trunc)})
    ok, where = verify_witness(ws, c, w)
    assert not ok and where == ((0,), 1)


def test_verify_witness_checks_the_chain_row():
    # r = 1 and head coefficients d[m][0] = 0, 0, 3: row m reads a[m+2],
    # a[m+1] and, through d, the head value a[0]
    ws = replace(single_final_system(trunc=3, r=1), d={(0,): ((0,), (0,), (3,))})
    c = {(0,): [5, -2, 7]}
    good = Witness(f={f"x{m}": -c[(0,)][m] for m in range(3)}, a={((0,), j): 0 for j in range(ws.j_trunc)})
    assert verify_witness(ws, c, good) == (True, None)
    # a[3] first appears as q[1] * a[3] in row 1
    bad_a = Witness(f=good.f, a={**good.a, ((0,), 3): 1})
    assert verify_witness(ws, c, bad_a) == (False, ((0,), 1))
    # the head value a[0] enters only row 2, where d is nonzero
    bad_head = Witness(f=good.f, a={**good.a, ((0,), 0): 1})
    assert verify_witness(ws, c, bad_head) == (False, ((0,), 2))


def test_validate_whitehead_tests_each_modulus_once(monkeypatch):
    from lamsys import abelian

    calls = []

    def counting(n):
        calls.append(n)
        return is_prime(n)

    monkeypatch.setattr(abelian, "is_prime", counting)
    ws = random_whitehead_system(random.Random(5), n=2, truncation=4)
    assert validate_whitehead(ws) == []
    moduli = [q for z in ws.finals() for q in ws.q[z][: ws.m_range]]
    assert len(moduli) > len(set(moduli))
    assert sorted(calls) == sorted(set(moduli))
    # a repeated composite is tested once and reported at every index
    calls.clear()
    ws = replace(single_final_system(trunc=3), q={(0,): (4, 4, 3)})
    assert [(v.clause, v.detail) for v in validate_whitehead(ws)] == [
        ("q-prime", "q[0] = 4 is not prime"),
        ("q-prime", "q[1] = 4 is not prime"),
    ]
    assert calls == [4, 3]
    # NonfreeSpec tests each distinct modulus once as well
    calls.clear()
    NonfreeSpec(r=1, q=(3, 2, 3, 5, 2, 3), d=((1,),) * 6, j_trunc=8)
    assert calls == [3, 2, 5]
    calls.clear()
    with pytest.raises(ValueError, match=r"^q\[1\] = 9 is not prime$"):
        NonfreeSpec(r=0, q=(3, 9, 9, 3), d=((),) * 4, j_trunc=5)
    assert calls == [3, 9]


_CHAIN_CLAUSES = ("j-trunc", "qd-range", "q-prime", "d-width")


@settings(max_examples=150, deadline=None)
@example(1, 4, [2, 3], [[1], [0]])  # no fault
@example(1, 5, [2, 3, 5], [[1], [0]])  # d too short
@example(0, 4, [4, 4, 3], [[], [1], []])  # a repeated composite, then a wide row
@given(
    st.integers(0, 2),
    st.integers(0, 7),
    st.lists(st.sampled_from([2, 3, 5, 7, 0, 1, 4, 9, -3]), max_size=6),
    st.lists(st.lists(st.integers(-2, 2), max_size=3), max_size=6),
)
def test_chain_spec_and_witness_system_report_the_same_first_fault(r, j, q, d):
    """NonfreeSpec raises exactly the detail that a one-final witness system on its chain data reports first.

    The witness system's truncation is the spec's relation count, so that
    its m_range is the same count of rows.
    """
    q, d = tuple(q), tuple(map(tuple, d))
    ws = replace(single_final_system(trunc=max(j - r - 1, 0)), r=r, q={(0,): q}, d={(0,): d}, j_trunc=j)
    violations = validate_whitehead(ws)
    assert [v for v in violations if v.clause not in _CHAIN_CLAUSES] == []
    faults = [v.detail for v in violations]
    try:
        NonfreeSpec(r=r, q=q, d=d, j_trunc=j)
    except ValueError as exc:
        assert faults[:1] == [str(exc)]
    else:
        assert faults == []


def test_verify_witness_missing_value():
    ws = single_final_system(trunc=2)
    w = Witness(f={}, a={((0,), j): 0 for j in range(ws.j_trunc)})
    with pytest.raises(MissingValueError):
        verify_witness(ws, {(0,): [0, 0]}, w)


def test_solve_fresh_atoms_decoupled():
    ws = single_final_system(trunc=3)
    c = {(0,): [5, -2, 7]}
    w = solve_witness(ws, c)
    assert isinstance(w, Witness)
    # the stated explicit witness also works: a = 0, f(x_m) = -c(m)
    explicit = Witness(
        f={f"x{m}": -c[(0,)][m] for m in range(3)},
        a={((0,), j): 0 for j in range(ws.j_trunc)},
    )
    ok, _ = verify_witness(ws, c, explicit)
    assert ok


def test_solver_roundtrip_random():
    rng = random.Random(9)
    for _ in range(20):
        ws = random_whitehead_system(
            rng,
            n=rng.choice((1, 2)),
            r=rng.randint(0, 1),
            truncation=3,
            cross_level_atoms=rng.random() < 0.5,
        )
        c = random_coloring(rng, ws)
        w = solve_witness(ws, c)
        assert isinstance(w, Witness)
        assert verify_witness(ws, c, w)[0]


@settings(max_examples=40, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from((1, 2)),
    st.integers(0, 2),
    st.integers(1, 4),
    st.booleans(),
    st.data(),
)
def test_every_coloring_has_a_witness(seed, n, r, truncation, cross, data):
    ws = random_whitehead_system(random.Random(seed), n=n, r=r, truncation=truncation, cross_level_atoms=cross)
    c = {
        z: data.draw(st.lists(st.integers(-10**6, 10**6), min_size=ws.m_range, max_size=ws.m_range))
        for z in ws.finals()
    }
    # why: row (z, m) has -1 on a(z, m+r) and q on a(z, m+r+1), so the
    # columns a(z, r..r+m_range-1) hold an upper bidiagonal block with -1 on
    # its diagonal; the block is unimodular and W x = c always solves
    pres = build_witness_group(ws)
    col = {g: i for i, g in enumerate(pres.generators)}
    for i, (z, m) in enumerate((z, m) for z in ws.finals() for m in range(ws.m_range)):
        for z2 in ws.finals():
            for m2 in range(ws.m_range):
                entry = pres.relations[i].get(col[z_name(z2, m2 + r)], 0)
                assert entry == (-1 if (z2, m2) == (z, m) else 0) or (z2 == z and m2 == m + 1)
    w = solve_witness(ws, c)
    assert isinstance(w, Witness)
    assert verify_witness(ws, c, w)[0]


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from((1, 2)), st.integers(0, 3), st.integers(0, 4), st.booleans())
def test_back_substituted_witness(seed, n, r, truncation, cross):
    rng = random.Random(seed)
    ws = random_whitehead_system(rng, n=n, r=r, truncation=truncation, cross_level_atoms=cross)
    ws = replace(ws, j_trunc=ws.j_trunc + rng.randint(0, 2))  # tops above the relation rows
    c = random_coloring(rng, ws, bound=10**6)
    w = solve_witness(ws, c)
    assert verify_witness(ws, c, w) == (True, None)
    assert set(w.f) == ws.family.union_s() and not any(w.f.values())
    for z in ws.finals():
        assert not any(w.a[(z, j)] for j in range(ws.j_trunc) if not ws.r <= j < ws.r + ws.m_range)
        # the top row fixes the highest unknown, each row below the next one down
        for m in range(ws.m_range):
            assert w.a[(z, m + ws.r)] == ws.q[z][m] * w.a[(z, m + ws.r + 1)] - c[z][m]


def test_infeasible_two_equation_instance():
    # two coupled chains sharing all their atom unknowns with identical
    # multipliers but right-hand sides differing by one; forcing the two
    # z-patterns to coincide leaves nothing to absorb the difference
    a = from_rows(
        [
            # unknowns: f(x), a1, a2
            [-1, 2, -1],
            [-1, 2, -1],
        ]
    )
    res = solve_z(a, [0, 1])
    assert isinstance(res, InfeasibilityCertificate)
    assert res.verify(a, [0, 1])
    # brute-force confirmation on a small box
    box = range(-6, 7)
    assert not any(
        -f + 2 * a1 - a2 == 0 and -f + 2 * a1 - a2 == 1
        for f in box
        for a1 in box
        for a2 in box
    )


def test_witness_feasibility_agrees_with_box_oracle():
    # tiny instance: brute force over all (f, a) with entries in [-5, 5]
    ws = single_final_system(trunc=1, r=0, q_val=3)
    ws = WhiteheadSystem(ws.family, ws.r, ws.q, ws.d, j_trunc=2)
    assert ws.m_range == 1
    rng = random.Random(31)
    for _ in range(20):
        f0 = rng.randint(-2, 2)
        a0 = rng.randint(-2, 2)
        a1 = rng.randint(-2, 2)
        c_val = 3 * a1 - a0 - f0
        c = {(0,): [c_val]}
        box = range(-5, 6)
        oracle = any(
            3 * b1 - b0 - g0 == c_val for g0 in box for b0 in box for b1 in box
        )
        assert oracle  # planted, so the box always contains a witness
        w = solve_witness(ws, c)
        assert isinstance(w, Witness)
        ok, _ = verify_witness(ws, c, w)
        assert ok


def test_feasibility_invariant_under_transforms():
    rng = random.Random(4)
    for _ in range(10):
        ws = random_whitehead_system(rng, n=2, r=0, truncation=3, cross_level_atoms=True)
        c = random_coloring(rng, ws)
        w = solve_witness(ws, c)
        assert isinstance(w, Witness)
        for transform in (transform_disjoint, transform_tree):
            res = transform(ws.family)
            ws2 = transformed_system(ws, res)
            assert validate_whitehead(ws2) == []
            moved = transport_witness(res, ws2, w)
            ok, _ = verify_witness(ws2, c, moved)
            assert ok
            direct = solve_witness(ws2, c)
            assert isinstance(direct, Witness)


def _columns_follow_the_names(ws, finals):
    """generator_names' column map agrees with the columns that its generator names take."""
    names, columns = generator_names(ws, finals)
    index = {g: i for i, g in enumerate(names)}
    atoms = set().union(*(ws.family.s(z) for z in finals))
    assert len(columns) == len(atoms) + len(finals)
    for a in atoms:
        assert columns[("a", a)] == index[atom_name(a)]
    for z in finals:
        assert [columns[z] + j for j in range(ws.j_trunc)] == [index[z_name(z, j)] for j in range(ws.j_trunc)]


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from((1, 2)),
    st.integers(0, 2),
    st.integers(1, 4),
    st.booleans(),
    st.sampled_from((None, transform_disjoint, transform_tree)),
)
def test_generator_columns_are_the_columns_of_the_names(seed, n, r, truncation, cross, transform):
    ws = random_whitehead_system(random.Random(seed), n=n, r=r, truncation=truncation, cross_level_atoms=cross)
    if transform is not None:
        ws = transformed_system(ws, transform(ws.family))
    _columns_follow_the_names(ws, ws.finals())
    _columns_follow_the_names(ws, ws.finals()[1::2])


def test_generator_columns_keep_a_tuple_atom_apart_from_an_equal_final():
    # the tree transform turns the atoms 0, 1 into (0,) and (0, 1), and (0,) is also the final
    sys_ = make_skeleton(nodes=[(), (0,)], level={(): 1, (0,): 0}, e_map={(): [0]}, b_map={(): [], (0,): [0, 1]})
    fam = transform_tree(make_family(sys_, {((0,), 1): [0, 1]}, truncation=2)).family
    ws = WhiteheadSystem(family=fam, r=0, q={(0,): (2, 2)}, d={(0,): ((), ())}, j_trunc=3)
    assert (0,) in fam.s((0,)) and ws.finals() == ((0,),)
    _columns_follow_the_names(ws, ws.finals())
    # columns: a:[0], a:[0,1], z:0:0, z:0:1, z:0:2; row m = 0 is 2 z1 - z0 - (0,)
    assert build_witness_group(ws).relations[0] == {0: -1, 2: -1, 3: 2}


def test_quotient_presentation_kills_low_stage():
    rng = random.Random(6)
    ws = random_whitehead_system(rng, n=1, r=0, truncation=2, width=2)
    alpha = ws.finals()[0][0]
    beta = ws.finals()[-1][0] + 1
    pres, _ = quotient_presentation(ws, alpha, beta)
    killed = z_name(ws.finals()[0], 0)
    idx = {g: i for i, g in enumerate(pres.generators)}
    assert {idx[killed]: 1} in pres.relations


def test_basis_single_final_fresh():
    ws = single_final_system(trunc=3, r=1)
    order = ReshufflingOrder(order=((0,),), alpha=-1, theta_fresh=1)
    cand = enumerate_basis(ws, order, alpha=-1, beta=1)
    # every z index survives; level-1 values have no earlier fresh level
    assert set(cand.z_part) == {((0,), j) for j in range(ws.j_trunc)}
    assert cand.atom_part == ()
    report = verify_basis(ws, cand, alpha=-1, beta=1)
    assert report.ok, report


def test_basis_empty_quotient():
    ws = single_final_system(trunc=2)
    order = ReshufflingOrder(order=(), alpha=-1, theta_fresh=1)
    cand = enumerate_basis(ws, order, alpha=-1, beta=0)
    assert cand.size == 0
    report = verify_basis(ws, cand, alpha=-1, beta=0)
    assert report.ok


def test_basis_order_must_cover_window():
    ws = single_final_system(trunc=2)
    order = ReshufflingOrder(order=(), alpha=-1, theta_fresh=1)
    with pytest.raises(ValueError, match="order must cover exactly the finals"):
        enumerate_basis(ws, order, alpha=-1, beta=1)


def shared_two_final_system():
    # two finals sharing one level-1 value; the shared value drops out of the
    # second final's basis contribution and is recovered through a relation
    sys_ = make_skeleton(
        nodes=[(), (0,), (1,)],
        level={(): 1, (0,): 0, (1,): 0},
        e_map={(): [0, 1]},
        b_map={(): [], (0,): ["a", "b", "c"], (1,): ["a", "b", "c"]},
    )
    fam = make_family(
        sys_, {((0,), 1): ["a", "b"], ((1,), 1): ["b", "c"]}, truncation=2
    )
    return WhiteheadSystem(
        family=fam,
        r=0,
        q={(0,): (2, 3), (1,): (5, 7)},
        d={(0,): ((), ()), (1,): ((), ())},
        j_trunc=4,
    )


def test_basis_two_final_overlap():
    ws = shared_two_final_system()
    res = find_reshuffling(ws.family, alpha=-1, theta_fresh=1)
    assert res.status == "found"
    cand = enumerate_basis(ws, res.order, alpha=-1, beta=2)
    report = verify_basis(ws, cand, alpha=-1, beta=2)
    assert report.ok, report
    # the dropped generator is an explicit combination of relations and basis
    pres, _ = quotient_presentation(ws, -1, 2)
    idx = {g: i for i, g in enumerate(pres.generators)}
    dropped = [
        g
        for g in pres.generators
        if g not in {z_name(z, j) for z, j in cand.z_part}
        and g not in {atom_name(a) for a in cand.atom_part}
    ]
    assert dropped
    basis_rows = []
    for z, j in cand.z_part:
        row = [0] * len(pres.generators)
        row[idx[z_name(z, j)]] = 1
        basis_rows.append(row)
    for a in cand.atom_part:
        row = [0] * len(pres.generators)
        row[idx[atom_name(a)]] = 1
        basis_rows.append(row)
    stacked = from_rows(list(relation_matrix(pres).entries) + basis_rows)
    for g in dropped:
        target = [0] * len(pres.generators)
        target[idx[g]] = 1
        coeffs = solve_z(stacked.transpose(), target)
        assert not isinstance(coeffs, InfeasibilityCertificate)


def test_basis_random_instances_verify():
    rng = random.Random(13)
    done = 0
    for _ in range(30):
        ws = random_whitehead_system(
            rng,
            n=rng.choice((1, 2)),
            r=rng.randint(0, 1),
            truncation=3,
            cross_level_atoms=False,
        )
        beta = max(z[0] for z in ws.finals()) + 1
        alpha = rng.choice([-1, min(z[0] for z in ws.finals())])
        window = [z for z in ws.finals() if z[0] < beta]
        res = find_reshuffling(
            ws.family, finals=window, alpha=alpha, theta_fresh=1
        )
        if res.status != "found":
            continue
        cand = enumerate_basis(ws, res.order, alpha=alpha, beta=beta)
        report = verify_basis(ws, cand, alpha=alpha, beta=beta)
        assert report.ok, (report, ws.finals())
        done += 1
    assert done >= 15


def test_basis_truncation_beyond_relations():
    # truncation 3 but only one relation row: the unbound slice values must
    # all survive into the basis for generation to hold
    ws = single_final_system(trunc=3)
    ws = WhiteheadSystem(ws.family, ws.r, ws.q, ws.d, j_trunc=2)
    assert ws.m_range == 1
    order = ReshufflingOrder(order=((0,),), alpha=-1, theta_fresh=1)
    cand = enumerate_basis(ws, order, alpha=-1, beta=1)
    assert set(cand.atom_part) == {"x1", "x2"}
    report = verify_basis(ws, cand, alpha=-1, beta=1)
    assert report.ok, report


def test_verify_basis_rejects_padding():
    ws = single_final_system(trunc=2)
    order = ReshufflingOrder(order=((0,),), alpha=-1, theta_fresh=1)
    cand = enumerate_basis(ws, order, alpha=-1, beta=1)
    padded = BasisCandidate(cand.z_part, cand.atom_part + ("x0",))
    report = verify_basis(ws, padded, alpha=-1, beta=1)
    assert not report.ok


def test_verify_basis_reports_stray_generator():
    ws = single_final_system(trunc=2)
    order = ReshufflingOrder(order=((0,),), alpha=-1, theta_fresh=1)
    cand = enumerate_basis(ws, order, alpha=-1, beta=1)
    # z indices past either end of a final's run, a final outside the window, and an unknown atom
    outside = (((0,), -1), ((0,), ws.j_trunc), ((9,), 0))
    stray = BasisCandidate(cand.z_part + outside, cand.atom_part + ("not-a-generator",))
    report = verify_basis(ws, stray, alpha=-1, beta=1)
    assert not report.ok
    assert report.failing_generators == (*(z_name(z, j) for z, j in outside), atom_name("not-a-generator"))


def _candidates(ws, alpha, beta):
    """The reshuffled candidate of the window, when an order exists, each of its one-short
    versions, and the empty candidate."""
    out = [BasisCandidate((), ())]
    in_i = [z for z in ws.finals() if z[0] < beta]
    res = find_reshuffling(ws.family, finals=in_i, alpha=alpha, theta_fresh=1)
    if res.status == "found":
        cand = enumerate_basis(ws, res.order, alpha=alpha, beta=beta)
        out.append(cand)
        out += [BasisCandidate(cand.z_part[:i] + cand.z_part[i + 1:], cand.atom_part) for i in range(len(cand.z_part))]
        out += [BasisCandidate(cand.z_part, cand.atom_part[:i] + cand.atom_part[i + 1:]) for i in range(len(cand.atom_part))]
    return out


def test_basis_generation_by_peeling_agrees_with_hermite_form():
    from reference import basis_generation

    rng = random.Random(1302)
    counts = [0, 0]
    for _ in range(20):
        ws = random_whitehead_system(
            rng, n=rng.choice((1, 2)), r=rng.randint(0, 1), truncation=3, cross_level_atoms=rng.random() < 0.5
        )
        firsts = sorted({z[0] for z in ws.finals()})
        for beta in [f + 1 for f in firsts]:
            for alpha in [-1] + [f for f in firsts if f < beta]:
                pres, _ = quotient_presentation(ws, alpha, beta)
                for cand in _candidates(ws, alpha, beta):
                    names = [z_name(z, j) for z, j in cand.z_part] + [atom_name(a) for a in cand.atom_part]
                    report = verify_basis(ws, cand, alpha, beta)
                    assert (report.generated, report.failing_generators) == basis_generation(pres, names)
                    counts[report.generated] += 1
    # generating and non-generating candidates both occur
    assert min(counts) > 50
