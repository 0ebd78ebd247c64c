"""Residue tables against brute-force enumeration; chain simulation end to end."""

import itertools
import math
import random
import warnings
from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st

import reference
from helpers import interval_size, relation_matrix, residues, sparse
from lamsys import jsonio, uniformization
from lamsys.uniformization import (
    IntervalSet,
    LadderInstance,
    LadderLevel,
    max_magnitude_bound,
    power_table,
    prime_table,
    simulate,
    threshold_exponents,
    validate_instance,
)
from lamsys.record import replace
from reference import shift_disjoint


# --- interval sets -----------------------------------------------------------


def test_interval_set_wraps_and_merges():
    s = IntervalSet.from_raw([(-1, 1), (5, 6)], 11)
    assert s.segments == ((0, 1), (5, 6), (10, 10))
    assert s.contains(10) and s.contains(0) and not s.contains(2)
    assert interval_size(s) == 5


def test_interval_least_uncovered_multiple():
    s = IntervalSet.from_raw([(0, 3), (8, 9)], 12)
    assert s.least_uncovered_multiple(1) == 4
    assert s.least_uncovered_multiple(4) == 4
    assert s.least_uncovered_multiple(6) == 6
    full = IntervalSet.from_raw([(0, 11)], 12)
    assert full.least_uncovered_multiple(1) is None


def _separated(base, t, coeffs, modulus, stride):
    """(b, Y - Y) from the separation step, b None where Y - Y holds every multiple of stride."""
    searched = []
    search = IntervalSet.least_uncovered_multiple

    def spy(self, step):
        searched.append(self)
        return search(self, step)

    with mock.patch.object(IntervalSet, "least_uncovered_multiple", spy):
        try:
            _, b, _ = uniformization._separation(base, t, coeffs, modulus, stride, "test")
        except ValueError:
            b = None
    (diffs,) = searched
    return b, diffs


def _random_sum(rng, modulus):
    """A random (base, t, coeffs) and the residues of base + sum_k coeffs[k] * [-t, t], listed point by point."""
    lo = rng.randint(-modulus, modulus)
    base = (lo, lo + rng.randint(0, 4))
    t = rng.randint(0, 2)
    coeffs = [rng.randint(-modulus, modulus) for _ in range(rng.randint(0, 2))]
    y = {
        (x + sum(c * m for c, m in zip(coeffs, ms))) % modulus
        for x in range(base[0], base[1] + 1)
        for ms in itertools.product(range(-t, t + 1), repeat=len(coeffs))
    }
    return base, t, coeffs, y


def test_interval_difference_matches_bruteforce():
    # the Y - Y that the separation step builds as an interval sum, against
    # every difference of two points of Y
    rng = random.Random(12)
    for _ in range(50):
        n = rng.randint(5, 40)
        base, t, coeffs, y = _random_sum(rng, n)
        _, diffs = _separated(base, t, coeffs, n, 1)
        assert set(residues(diffs)) == {(x - v) % n for x in y for v in y}, (base, t, coeffs, n)


def test_interval_shift_matches_set_reference():
    # the shift the table builders use against the set-based search
    rng = random.Random(21)
    for _ in range(300):
        p, k_max = rng.choice(((2, 6), (3, 4), (5, 3), (7, 3)))
        modulus = p ** rng.randint(1, k_max)
        base, t, coeffs, y = _random_sum(rng, modulus)
        for stride in (1, p):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                try:
                    expected = shift_disjoint(y, range(0, modulus, stride), modulus)
                except ValueError:
                    expected = None
            got, _ = _separated(base, t, coeffs, modulus, stride)
            assert got == expected, (base, t, coeffs, modulus, stride)


# --- shift choice ------------------------------------------------------------


def test_shift_disjoint_singleton():
    assert shift_disjoint({0}, range(5), 5) == 1


def test_shift_disjoint_pair_mod_7():
    # differences of {0,1} are {6,0,1}
    assert shift_disjoint({0, 1}, range(7), 7) == 2


def test_shift_disjoint_random_mod_101():
    rng = random.Random(3)
    for _ in range(40):
        size = rng.randint(1, 9)  # 9^2 < 101
        y = set(rng.sample(range(101), size))
        b = shift_disjoint(y, range(101), 101)
        assert y.isdisjoint({(b + v) % 101 for v in y})


def test_shift_disjoint_warning_and_error():
    with pytest.warns(UserWarning):
        b = shift_disjoint({0, 1}, range(4), 4)
        assert b == 2
    with pytest.raises(ValueError, match="no valid shift exists"):
        shift_disjoint({0, 1, 2}, range(4), 4)


# --- prime tables ------------------------------------------------------------


def test_prime_table_11():
    tab = prime_table(11)
    assert tab.t_bound == 1
    assert tab.shift == (0, 3)
    assert set(residues(tab.zero_class)) == {10, 0, 1}
    assert set(residues(tab.one_class)) == {2, 3, 4}
    for m in (-1, 0, 1):
        assert tab.value(m % 11) == 0
        assert tab.value((m + 3) % 11) == 1


def test_prime_table_tiny():
    assert prime_table(2).shift == (0, 1)
    assert prime_table(5).shift == (0, 1)
    assert prime_table(5).t_bound == 0


def test_prime_table_exhaustive_small_primes():
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
        tab = prime_table(p)
        for m in range(-20, 21):
            if (2 * abs(m) + 1) ** 2 < p:
                assert tab.value((m + tab.shift[0]) % p) == 0
                assert tab.value((m + tab.shift[1]) % p) == 1


def test_magnitude_bounds():
    assert max_magnitude_bound(101, 0) == 4   # 9^2 < 101 but 11^2 >= 101
    assert max_magnitude_bound(101, 1) == 1   # 3^4 < 101 but 5^4 >= 101


def test_magnitude_bound_agrees_with_the_counting_loop():
    for r in range(4):
        for p in range(2, 5000):
            assert max_magnitude_bound(p, r) == reference.max_magnitude_bound(p, r)
    # past the loop's reach: t is largest with (2t+1)^k < p, at and beside exact powers too
    for r in range(4):
        k = 2 * r + 2
        for p in (2 ** 61 - 1, 2 ** 127 - 1, 10 ** 40, 3 ** (5 * k), 3 ** (5 * k) + 1, 7 ** (9 * k) - 1):
            t = max_magnitude_bound(p, r)
            assert (2 * t + 1) ** k < p <= (2 * t + 3) ** k


PRIMES_20K = tuple(p for p in range(2, 20_000) if all(p % d for d in range(2, math.isqrt(p) + 1)))
PRIME_CASES = st.sampled_from(PRIMES_20K).flatmap(lambda p: st.tuples(st.just(p), st.lists(st.integers(-p, p), max_size=3)))


@settings(max_examples=300, deadline=None)
@given(PRIME_CASES)
def test_prime_table_agrees_with_the_coefficient_enumeration(case):
    p, mu = case
    assert prime_table(p, mu).zero_class == reference.prime_zero_class(p, mu)


@st.composite
def power_cases(draw):
    """(p, i, thresholds, mu) for a power table with at most 5,000 coefficient vectors."""
    p, r, i = draw(st.sampled_from((2, 3, 5))), draw(st.integers(0, 2)), draw(st.integers(1, 2))
    thresholds = threshold_exponents(p, r, i)
    assume((2 * p ** thresholds[i - 1] + 1) ** r <= 5000)
    mu = draw(st.lists(st.lists(st.integers(-5, 5), min_size=thresholds[i], max_size=thresholds[i]), min_size=r, max_size=r))
    return p, i, thresholds, mu


@settings(max_examples=100, deadline=None)
@given(power_cases())
def test_power_table_agrees_with_the_coefficient_enumeration(case):
    assert power_table(*case).zero_class == reference.power_zero_class(*case)


def _built_with_its_difference_set(build, *args):
    """A table built afresh, with the Y - Y in which its separation step searched for the shift."""
    searched = []
    search = IntervalSet.least_uncovered_multiple

    def spy(self, stride):
        searched.append(self)
        return search(self, stride)

    with (
        mock.patch.object(IntervalSet, "least_uncovered_multiple", spy),
        mock.patch.dict(uniformization._prime_cache, clear=True),
        mock.patch.dict(uniformization._power_cache, clear=True),
    ):
        tab = build(*args)
    (diffs,) = searched
    return tab, diffs


# the set search lists every candidate shift, so the power tables stop at 2^20 of them: block 2 comes at p = 2, r = 0
SMALL_POWER_CASES = power_cases().filter(lambda case: case[0] ** (case[2][case[1]] - case[2][case[1] - 1]) <= 2 ** 20)


@settings(max_examples=300, deadline=None)
@given(st.one_of(PRIME_CASES.map(lambda case: (prime_table, case)), SMALL_POWER_CASES.map(lambda case: (power_table, case))))
def test_separation_matches_the_pairwise_difference_set_and_the_set_search(built):
    # Y - Y is built as an interval sum; here it is every difference of two
    # points of Y, and the shift is the set search's least one outside it
    build, case = built
    tab, diffs = _built_with_its_difference_set(build, *case)
    y = set(residues(tab.zero_class))
    n = tab.zero_class.modulus
    stride = 1 if build is prime_table else case[0] ** case[2][case[1] - 1]
    assert set(residues(diffs)) == {(x - v) % n for x in y for v in y}
    assert tab.shift[1] == shift_disjoint(y, range(0, n, stride), n)


@settings(max_examples=200, deadline=None)
@given(st.one_of(PRIME_CASES.map(lambda case: (prime_table, case)), power_cases().map(lambda case: (power_table, case))))
def test_written_classes_read_back_as_the_table_classes(built):
    # the writer balances each segment's ends and joins the wrap-round pair;
    # the residues it writes are the class's
    build, case = built
    tab = build(*case)
    doc = jsonio.table_to_doc(tab)
    n = tab.zero_class.modulus
    for name in ("zero_class", "one_class"):
        ends = [(int(lo), int(hi)) for lo, hi in doc[name]]
        assert all(-n < 2 * lo <= n for lo, _ in ends)
        # sorted, and no two segments touch round the circle, so none could be joined
        assert all(hi + 1 < next_lo for (_, hi), (next_lo, _) in zip(ends, ends[1:]))
        assert len(ends) < 2 or ends[-1][1] + 1 < ends[0][0] + n
        assert IntervalSet.from_raw(ends, n) == getattr(tab, name)


def test_prime_table_general_r_exhaustive():
    mu = (1,)
    tab = prime_table(101, mu)
    t = tab.t_bound
    assert t == 1
    for m0 in range(-t, t + 1):
        for m1 in range(-t, t + 1):
            base = m0 + mu[0] * m1
            assert tab.value((base + tab.shift[0]) % 101) == 0
            assert tab.value((base + tab.shift[1]) % 101) == 1


# --- threshold exponents -----------------------------------------------------


def test_threshold_exponents_base2():
    assert threshold_exponents(2, 0, 2) == (0, 4, 23)


def test_threshold_exponents_base3_strictness():
    # 9 < 9 is false, so the first step must reach exponent 3
    assert threshold_exponents(3, 0, 1) == (0, 3)


def test_threshold_exponents_general_r():
    ts = threshold_exponents(2, 1, 2)
    assert ts[1] == 7  # least d with 81 < 2^d
    prev = ts[1]
    lhs = (2 * 2 ** prev + 1) ** 4 * 2 ** (2 * prev)
    assert 2 ** (ts[2] - prev) > lhs >= 2 ** (ts[2] - prev - 1)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
def test_threshold_exponents_agree_with_the_step_loop(p):
    # from r = 2 on, t_5 runs past 20,000 and the reference's loop, quadratic
    # in d, past seconds
    for r in range(4):
        i_max = 5 if r <= 1 else 4
        assert threshold_exponents(p, r, i_max) == reference.threshold_exponents(p, r, i_max)
    assert threshold_exponents(p, 5000, 1) == reference.threshold_exponents(p, 5000, 1)


# --- power tables ------------------------------------------------------------


def test_power_table_base2_block1():
    ts = threshold_exponents(2, 0, 2)
    tab = power_table(2, 1, ts)
    assert tab.shift == (0, 3)  # base-2 digits 1, 1, 0, 0 from the lowest
    assert set(residues(tab.zero_class)) == {15, 0, 1}
    assert tab.value(0) == 0


def test_power_table_exhaustive_base2_and_3():
    for p in (2, 3):
        ts = threshold_exponents(p, 0, 2)
        for i in (1, 2):
            tab = power_table(p, i, ts)
            t_prev, t_cur = ts[i - 1], ts[i]
            mod = p ** t_cur
            shift1 = tab.shift[1]
            # the shift's base-p digits lie in [t_{i-1}, t_i)
            assert shift1 % p ** t_prev == 0 and shift1 < mod
            # full enumeration of admissible arguments via the digit part
            for m0 in range(-(p ** t_prev), p ** t_prev + 1):
                for digit_val in range(p ** t_prev):
                    base = (m0 + digit_val) % mod
                    assert tab.value(base) == 0
                    assert tab.value((base + shift1) % mod) == 1


def test_power_table_interval_derivation_matches_tuples():
    # at tiny scale the interval-built class equals the raw tuple enumeration
    p, r = 2, 1
    ts = threshold_exponents(p, r, 1)
    mu = ((1, 0, 1, 1, 0, 1, 0),)
    tab = power_table(p, 1, ts, mu)
    mod = p ** ts[1]
    coeff = sum(p ** j * mu[0][j] for j in range(ts[1]))
    expected = set()
    for m0 in (-1, 0, 1):
        for m1 in (-1, 0, 1):
            expected.add((m0 + coeff * m1) % mod)
    assert set(residues(tab.zero_class)) == expected


def test_power_table_general_r_congruence():
    p, r = 3, 1
    ts = threshold_exponents(p, r, 2)
    mu = (tuple((-1) ** j for j in range(ts[2])),)
    for i in (1, 2):
        tab = power_table(p, i, ts, mu)
        t_prev = ts[i - 1]
        mod = p ** ts[i]
        coeff = sum(p ** j * mu[0][j] for j in range(ts[i]))
        big_p = p ** t_prev
        rng = random.Random(i)
        for _ in range(300):
            m0 = rng.randint(-big_p, big_p)
            m1 = rng.randint(-big_p, big_p)
            digit_val = rng.randint(0, big_p - 1)
            base = (m0 + coeff * m1 + digit_val) % mod
            assert tab.value((base + tab.shift[0]) % mod) == 0
            assert tab.value((base + tab.shift[1]) % mod) == 1


def test_power_table_key_dependence_on_mu_cut():
    p, r = 2, 1
    ts = threshold_exponents(p, r, 1)
    mu_a = ((1, 2, 3, 4, 5, 6, 7, 99, -5),)
    mu_b = ((1, 2, 3, 4, 5, 6, 7, 0, 0),)   # agrees below t_1 = 7
    ta = power_table(p, 1, ts, mu_a)
    tb = power_table(p, 1, ts, mu_b)
    assert ta == tb
    assert ta.key == tb.key


# --- simulation --------------------------------------------------------------


def spec_case_i_instance():
    return LadderInstance(
        subcase="i",
        r=0,
        levels=(
            LadderLevel(
                alpha=40,
                ladder=(3, 8, 15, 21, 30, 38),
                colors=(1, 0, 1, 1, 0, 1),
                g_labels=tuple(f"a{n}" for n in range(6)),
                primes=(11, 13, 17, 19, 23, 29),
            ),
        ),
    )


def test_simulate_case_i_spec_example():
    report = simulate(spec_case_i_instance())
    assert report.ok, report.checks
    lv = report.levels[0]
    assert lv.n0 == 0
    assert all(q["match"] for q in lv.queries)
    # independent recomputation of the recovered bits from the splitting
    c_map = report.splitting
    idx = {g: i for i, g in enumerate(report.chain.generators)}
    primes = (11, 13, 17, 19, 23, 29)
    colors = (1, 0, 1, 1, 0, 1)
    for n, p in enumerate(primes):
        tab = prime_table(p)
        d_g = -c_map[f"g:a{n}"]
        assert tab.value(d_g % p) == colors[n]
        # the residue identity behind the bit
        d_y0 = -c_map["y:40:0"]
        assert (d_g - d_y0 - tab.shift[colors[n]]) % p == 0


def shared_label_instance():
    """Two levels that share the g label a0; its row in level 50, less its pivot row in level 40, is the core."""
    return LadderInstance(
        subcase="i",
        r=0,
        levels=(
            LadderLevel(alpha=40, ladder=(3, 8), colors=(1, 0), g_labels=("a0", "a1"), primes=(31, 37)),
            LadderLevel(alpha=50, ladder=(4, 9), colors=(1, 1), g_labels=("a0", "b1"), primes=(31, 41)),
        ),
    )


def test_simulate_reports_a_splitting_off_the_solution(monkeypatch, tmp_path, capsys):
    import json

    from lamsys import uniformization
    from lamsys.cli import dispatch
    from helpers import instance_to_doc

    inst = shared_label_instance()
    assert simulate(inst).checks == {"projection_splitting_identity": True}
    reduce = uniformization.reduce_mod_lattice

    def off_kernel(v, h):
        # add e_0, the y_0 column of level 40, which the core row has as +1
        c = reduce(v, h)
        return (c[0] + 1,) + c[1:]

    monkeypatch.setattr(uniformization, "reduce_mod_lattice", off_kernel)
    report = simulate(inst)
    assert report.chain.generators[0] == "y:40:0"
    assert report.checks == {"projection_splitting_identity": False}
    assert not report.ok
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(instance_to_doc(inst)))
    assert dispatch(["unif-sim", "--instance", str(path)]) == 1
    out = json.loads(capsys.readouterr().out)
    assert out["report"]["checks"] == {"projection_splitting_identity": False}


def test_simulate_reports_a_lifted_splitting_off_the_solution(monkeypatch, tmp_path, capsys):
    import json

    from lamsys import uniformization
    from lamsys.cli import dispatch
    from helpers import instance_to_doc

    inst = spec_case_i_instance()
    assert simulate(inst).checks == {"projection_splitting_identity": True}
    substitute = uniformization._substitute
    lifted = []

    def off_by_one(x, rows, decided, rhs):
        # an independent ladder substitutes only to lift each label from its
        # pivot row; move the first label's coordinate off its row
        substitute(x, rows, decided, rhs)
        x[decided[0]] += 1
        lifted.append(decided)

    monkeypatch.setattr(uniformization, "_substitute", off_by_one)
    report = simulate(inst)
    [decided] = lifted
    assert all(report.chain.generators[t].startswith("g:") for t in decided)
    assert report.checks == {"projection_splitting_identity": False}
    assert not report.ok
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(instance_to_doc(inst)))
    assert dispatch(["unif-sim", "--instance", str(path)]) == 1
    out = json.loads(capsys.readouterr().out)
    assert out["report"]["checks"] == {"projection_splitting_identity": False}


def test_simulate_case_i_zero_colors():
    inst = LadderInstance(
        subcase="i",
        r=0,
        levels=(
            LadderLevel(
                alpha=9,
                ladder=(1, 3, 5),
                colors=(0, 0, 0),
                g_labels=("b0", "b1", "b2"),
                primes=(11, 13, 17),
            ),
        ),
    )
    report = simulate(inst)
    assert report.ok
    lv = report.levels[0]
    assert lv.n0 == 0 and lv.delta_y0 == 0
    assert all(q["H"] == 0 for q in lv.queries)
    assert all(v == 0 for v in report.splitting.values())


def test_simulate_case_i_general_r():
    inst = LadderInstance(
        subcase="i",
        r=1,
        levels=(
            LadderLevel(
                alpha=30,
                ladder=(2, 9, 14, 22),
                colors=(1, 1, 0, 1),
                g_labels=("c0", "c1", "c2", "c3"),
                primes=(101, 103, 107, 109),
                mu=((1, -1, 2, 0),),
            ),
        ),
    )
    report = simulate(inst)
    assert report.checks == {"projection_splitting_identity": True}
    assert report.ok
    assert report.levels[0].matches_from_n0


def test_simulate_case_i_shared_atoms_two_levels():
    inst = LadderInstance(
        subcase="i",
        r=0,
        levels=(
            LadderLevel(
                alpha=20,
                ladder=(1, 5, 9),
                colors=(1, 0, 1),
                g_labels=("s0", "s1", "s2"),
                primes=(31, 37, 41),
            ),
            LadderLevel(
                alpha=25,
                ladder=(2, 6, 11),
                colors=(0, 1, 1),
                g_labels=("s0", "t1", "t2"),  # shares s0 with the other level
                primes=(31, 43, 47),          # same prime at the shared slot
            ),
        ),
    )
    report = simulate(inst)
    assert report.ok
    # H is a function of w: the shared (prime, base element) pair recovers
    # the same bit in both levels, so the colors were chosen consistently
    assert report.levels[0].queries[0]["H"] == report.levels[1].queries[0]["H"]


def test_simulate_case_ii_base2():
    ts = threshold_exponents(2, 0, 2)
    n_rel = ts[-1]
    inst = LadderInstance(
        subcase="ii",
        r=0,
        p=2,
        i_max=2,
        levels=(
            LadderLevel(
                alpha=50,
                ladder=(10, 20),
                colors=(1, 0),
                g_labels=tuple(f"d{n}" for n in range(n_rel)),
            ),
        ),
    )
    report = simulate(inst)
    assert report.ok, report.checks
    lv = report.levels[0]
    assert lv.n0 == 0
    assert [q["c"] for q in lv.queries] == [1, 0]
    assert all(q["match"] for q in lv.queries)
    # independent residue recomputation for block 1 (modulus 16)
    c_map = report.splitting
    tab1 = power_table(2, 1, ts)
    arg = sum(2 ** n * (-c_map[f"g:d{n}"]) for n in range(ts[1]))
    assert tab1.value(arg % 16) == 1


def test_simulate_case_ii_general_r_base2():
    ts = threshold_exponents(2, 1, 1)
    n_rel = ts[-1]
    mu = (tuple(1 if n % 2 == 0 else -1 for n in range(n_rel)),)
    inst = LadderInstance(
        subcase="ii",
        r=1,
        p=2,
        i_max=1,
        levels=(
            LadderLevel(
                alpha=60,
                ladder=(30,),
                colors=(1,),
                g_labels=tuple(f"e{n}" for n in range(n_rel)),
                mu=mu,
            ),
        ),
    )
    report = simulate(inst)
    assert report.ok
    assert report.levels[0].matches_from_n0


def test_validate_instance_rejects_bad_ladders():
    inst = LadderInstance(
        subcase="i",
        r=0,
        levels=(
            LadderLevel(
                alpha=5,
                ladder=(3, 3),
                colors=(0, 1),
                g_labels=("x", "y"),
                primes=(11, 11),
            ),
        ),
    )
    problems = validate_instance(inst)
    assert any("strictly increasing" in p for p in problems)
    assert any("pairwise distinct" in p for p in problems)
    with pytest.raises(ValueError):
        simulate(inst)


# --- label elimination against the whole-W path -----------------------------

LADDER_PRIMES = (11, 13, 17, 19, 23, 29, 31, 37)
LABEL_POOL = ("a", "b", "c", "d", "e", "f")


def _draw_ladder(draw_int, draw_sample, subcase, r, n_levels):
    """A ladder instance whose g labels come from a small pool, so levels mix singleton and shared labels.

    draw_int(lo, hi) and draw_sample(seq, k) supply the choices, from
    random.Random or from hypothesis alike.
    """
    levels = []
    if subcase == "ii":
        i_max = draw_int(1, 2) if r == 0 else 1
        n_rel = threshold_exponents(2, r, i_max)[-1]
    for li in range(n_levels):
        alpha = 10 * (li + 1)
        if subcase == "i":
            primes = tuple(draw_sample(LADDER_PRIMES, draw_int(1, 3)))
            m = len(primes)
        else:
            primes, m = None, i_max
        n_labels = m if subcase == "i" else n_rel
        labels = tuple(LABEL_POOL[draw_int(0, len(LABEL_POOL) - 1)] + str(draw_int(0, 1)) for _ in range(n_labels))
        levels.append(
            LadderLevel(
                alpha=alpha,
                ladder=tuple(range(1, m + 1)),
                colors=tuple(draw_int(0, 1) for _ in range(m)),
                g_labels=labels,
                mu=tuple(tuple(draw_int(-3, 3) for _ in range(n_labels)) for _ in range(r)),
                primes=primes,
            )
        )
    if subcase == "i":
        return LadderInstance(subcase="i", r=r, levels=tuple(levels))
    return LadderInstance(subcase="ii", r=r, p=2, i_max=i_max, levels=tuple(levels))


def _splitting_agrees(inst):
    from reference import whole_splitting

    report = simulate(inst)
    chain = report.chain
    expected = whole_splitting(relation_matrix(chain), report.shift_coefficients)
    assert tuple(report.splitting[g] for g in chain.generators) == expected
    assert report.checks == {"projection_splitting_identity": True}


def test_peeled_splitting_agrees_with_whole_solve_seeded():
    rng = random.Random(1301)
    for subcase in ("i", "ii"):
        for r in (0, 1):
            for _ in range(12):
                inst = _draw_ladder(rng.randint, rng.sample, subcase, r, rng.randint(1, 3))
                _splitting_agrees(inst)


@settings(max_examples=60, deadline=None)
@given(st.data(), st.sampled_from(("i", "ii")), st.integers(0, 1), st.integers(1, 3))
def test_peeled_splitting_agrees_with_whole_solve(data, subcase, r, n_levels):
    def draw_int(lo, hi):
        return data.draw(st.integers(lo, hi))

    def draw_sample(seq, k):
        return data.draw(st.permutations(seq))[:k]

    _splitting_agrees(_draw_ladder(draw_int, draw_sample, subcase, r, n_levels))


@st.composite
def ladders(draw):
    """A valid ladder of 1 to 3 levels at r = 0..2, on independent, shared or mixed labels.

    Subcase i levels hold 1 to 3 rungs each, so their lengths differ; in
    subcase ii every level holds t_{i_max} labels.  Shared labels are s0,
    s1, ..., so levels of unequal length share a prefix of them.
    """
    subcase = draw(st.sampled_from(("i", "ii")))
    inst = _draw_ladder(
        lambda lo, hi: draw(st.integers(lo, hi)),
        lambda seq, k: draw(st.permutations(seq))[:k],
        subcase,
        draw(st.integers(0, 2)),
        draw(st.integers(1, 3)),
    )
    labels = draw(st.sampled_from(("independent", "shared", "mixed")))
    if labels == "mixed":  # _draw_ladder's small label pool
        return inst
    name = "{alpha}:{n}" if labels == "independent" else "s{n}"
    levels = [
        replace(lv, g_labels=tuple(name.format(alpha=lv.alpha, n=n) for n in range(len(lv.g_labels))))
        for lv in inst.levels
    ]
    return replace(inst, levels=tuple(levels))


@settings(max_examples=150, deadline=None)
@given(ladders())
def test_ladder_rows_agree_with_the_name_keyed_assembly(inst):
    """The column layout by arithmetic gives the rows that looking each generator up by name gave."""
    from lamsys import uniformization

    levels = sorted(inst.levels, key=lambda lv: lv.alpha)
    thresholds = uniformization._reachable_thresholds(inst) if inst.subcase == "ii" else ()
    names, rows, shifts, decided, labels, row_tables, y0s = uniformization._ladder_rows(inst, levels, thresholds)
    assert (names, rows, shifts, decided, labels, [tab.key for tab in row_tables]) == reference.ladder_rows(inst)
    assert y0s == [names.index(f"y:{lv.alpha}:0") for lv in levels]


@settings(max_examples=150, deadline=None)
@given(ladders())
def test_every_valid_ladder_passes_its_queries(inst):
    """No valid instance fails a query from n0 on (the argument is in `simulate`'s docstring)."""
    assert validate_instance(inst) == []
    report = simulate(inst)
    assert report.ok, [lv.queries for lv in report.levels if not lv.matches_from_n0]


def _shared_ladder(rng, subcase, r, n_levels, m=None):
    """Every level on the same g labels, so each label's column has one +1 per level."""
    if subcase == "ii":
        i_max = rng.randint(1, 2) if r == 0 else 1
        n_rel = threshold_exponents(2, r, i_max)[-1]
        m = i_max
    levels = []
    for li in range(n_levels):
        n_labels = m if subcase == "i" else n_rel
        levels.append(
            LadderLevel(
                alpha=10 * (li + 1),
                ladder=tuple(range(1, m + 1)),
                colors=tuple(rng.randint(0, 1) for _ in range(m)),
                g_labels=tuple(f"s{n}" for n in range(n_labels)),
                mu=tuple(tuple(rng.randint(-3, 3) for _ in range(n_labels)) for _ in range(r)),
                primes=tuple(rng.sample(LADDER_PRIMES, m)) if subcase == "i" else None,
            )
        )
    if subcase == "i":
        return LadderInstance(subcase="i", r=r, levels=tuple(levels))
    return LadderInstance(subcase="ii", r=r, p=2, i_max=i_max, levels=tuple(levels))


def _repeat_and_skip(inst):
    """A three-level shared ladder relabelled: level 1 repeats its first label, and w ends levels 1 and 3 only."""
    first, second, third = inst.levels
    return replace(
        inst,
        levels=(
            replace(first, g_labels=first.g_labels[:1] + first.g_labels[:-2] + ("w",)),
            second,
            replace(third, g_labels=third.g_labels[:-1] + ("w",)),
        ),
    )


SHARED_SHAPES = ((2, 4), (2, 5), (3, 3), (4, 4), (4, 6))


def test_shared_ladder_splitting_agrees_with_whole_solve():
    rng = random.Random(1401)
    for r in (0, 1):
        for n_levels, m in SHARED_SHAPES:
            for _ in range(2):
                _splitting_agrees(_shared_ladder(rng, "i", r, n_levels, m))
        for n_levels in (2, 3):
            _splitting_agrees(_shared_ladder(rng, "ii", r, n_levels))
    for subcase in ("i", "ii"):
        for r in (0, 1):
            _splitting_agrees(_repeat_and_skip(_shared_ladder(rng, subcase, r, 3, 4)))
    # z9 is shared and sorts last, so level 10 holds its pivot row; then b1 is shared and sorts first
    first = LadderLevel(alpha=10, ladder=(1, 2), colors=(1, 0), g_labels=("b1", "z9"), primes=(11, 13), mu=((1, -2),))
    for labels in (("c1", "z9"), ("b1", "zz")):
        second = LadderLevel(alpha=20, ladder=(1, 2), colors=(0, 1), g_labels=labels, primes=(17, 19), mu=((3, 0),))
        _splitting_agrees(LadderInstance(subcase="i", r=1, levels=(first, second)))


def _recording(monkeypatch):
    """Record the (rows, decided, shifts, particular) of every `_canonical_solution` call."""
    from lamsys import uniformization

    solve = uniformization._canonical_solution
    calls = []

    def recording(rows, decided, shifts, particular):
        calls.append((rows, decided, shifts, particular))
        return solve(rows, decided, shifts, particular)

    monkeypatch.setattr(uniformization, "_canonical_solution", recording)
    return calls


def _shared_rows(chain):
    """Rows of W whose label column holds a +1 on some other row too."""
    w = chain.relations
    shared = {t for t, g in enumerate(chain.generators) if g.startswith("g:") and sum(1 for row in w if t in row) > 1}
    return sum(1 for row in w if not shared.isdisjoint(row))


@pytest.mark.parametrize("r", (0, 1))
def test_shared_ladder_core_drops_a_level_and_every_zero_column(monkeypatch, r):
    calls = _recording(monkeypatch)
    rng = random.Random(f"core/{r}")
    for n_levels, m in SHARED_SHAPES:
        calls.clear()
        assert simulate(_shared_ladder(rng, "i", r, n_levels, m)).ok
        [(rows, _, _, particular)] = calls
        assert len(rows) == (n_levels - 1) * m
        assert {t for row in rows for t in row} == set(range(len(particular)))
    # on mixed labels every row but each label's first reaches the solve in
    # subcase i, and in subcase ii every row whose label another row shares
    for subcase in ("i", "ii"):
        for _ in range(20):
            calls.clear()
            report = simulate(_draw_ladder(rng.randint, rng.sample, subcase, r, rng.randint(1, 3)))
            assert report.ok
            chain = report.chain
            n_core = len(chain.relations) - sum(g.startswith("g:") for g in chain.generators)
            assert len(calls) == (n_core > 0)
            for rows, _, _, particular in calls:
                assert len(rows) == (n_core if subcase == "i" else _shared_rows(chain))
                assert {t for row in rows for t in row} == set(range(len(particular)))


def _traced_solves(monkeypatch):
    """Record each `_canonical_solution` call: its arguments, its kernel lifts and the rows it reduces against.

    A kernel lift is (x before, rows, decided columns, x after) of a
    `_substitute` call made inside the solve, x as a list; the reduction
    rows are the echelon basis that `reduce_mod_lattice` receives from it.
    """
    from lamsys import uniformization

    solve, substitute, reduce = uniformization._canonical_solution, uniformization._substitute, uniformization.reduce_mod_lattice
    calls, active = [], []

    def solving(*args):
        calls.append({"args": args, "lifts": [], "basis": None})
        active.append(True)
        try:
            return solve(*args)
        finally:
            active.pop()

    def lifting(x, rows, decided, rhs):
        before = list(x) if active else None
        substitute(x, rows, decided, rhs)
        if active:
            calls[-1]["lifts"].append((before, list(rows), list(decided), list(x)))

    def reducing(v, h):
        if active:
            calls[-1]["basis"] = [dict(row) for row in h]
        return reduce(v, h)

    monkeypatch.setattr(uniformization, "_canonical_solution", solving)
    monkeypatch.setattr(uniformization, "_substitute", lifting)
    monkeypatch.setattr(uniformization, "reduce_mod_lattice", reducing)
    return calls


def _lifted_kernel(call):
    """The lifted kernel rows of a traced solve as a dense matrix, one row per lift."""
    from lamsys.abelian import IntMatrix

    return IntMatrix(tuple(tuple(after) for _, _, _, after in call["lifts"]))


def _is_echelon(rows, decided):
    """Each decided column is held by its own row alone and is that row's last column."""
    return all(sum(t in row for row in rows) == 1 and t == max(row) for row, t in zip(rows, decided))


def _kernel_agrees(monkeypatch, inst):
    """The core's kernel lattice and balanced solution equal those of `solve_z` and `kernel_basis`."""
    from reference import core_splitting

    from lamsys.abelian import IntMatrix, dense, hnf

    calls = _traced_solves(monkeypatch)
    report = simulate(inst)
    monkeypatch.undo()
    assert report.ok
    [call] = calls
    rows, decided, shifts, particular = call["args"]
    a = IntMatrix(tuple(tuple(row.get(t, 0) for t in range(len(particular))) for row in rows))
    kh, expected = core_splitting(a, shifts)
    assert hnf(dense(call["basis"], len(particular)))[0] == kh
    assert uniformization._canonical_solution(rows, decided, shifts, particular) == expected


def _diagonal_ii():
    """The golden case unif-sim-ii-diagonal: a diagonal decided block whose y_n come before the y_{n+1} their rows read."""
    levels = ((10, ("a0", "a1", "d1", "c0"), 1), (20, ("d0", "f1", "c1", "a1"), 0))
    return LadderInstance(
        subcase="ii",
        r=0,
        p=2,
        i_max=1,
        levels=tuple(LadderLevel(alpha=a, ladder=(1,), colors=(c,), g_labels=g, mu=()) for a, g, c in levels),
    )


def _seeded_cores():
    """The ladders whose cores `test_core_kernel_agrees_with_the_generic_solve` checks, then `_diagonal_ii`."""
    rng = random.Random(1601)
    for r in (0, 1):
        for n_levels, m in SHARED_SHAPES:
            yield _shared_ladder(rng, "i", r, n_levels, m)
        for n_levels in (2, 3):
            yield _shared_ladder(rng, "ii", r, n_levels)
        for subcase in ("i", "ii"):
            yield _repeat_and_skip(_shared_ladder(rng, subcase, r, 3, 4))
            drawn = 0
            while drawn < 6:
                inst = _draw_ladder(rng.randint, rng.sample, subcase, r, 3)
                labels = [g for lv in inst.levels for g in lv.g_labels]
                if len(set(labels)) < len(labels):
                    yield inst
                    drawn += 1
    yield _diagonal_ii()


def test_lattice_basis_and_kernel_form_agree_with_the_dense_reference(monkeypatch):
    """`_lattice_basis` and `hnf` on ladder cores give the dense oracles' basis and H, U and U^-1."""
    from lamsys.abelian import hnf

    bases = []
    lattice_basis = uniformization._lattice_basis
    calls = _traced_solves(monkeypatch)
    monkeypatch.setattr(uniformization, "_lattice_basis", lambda *args: bases.append(args) or lattice_basis(*args))
    rng = random.Random(3201)
    for r in (0, 1):
        for n_levels, m in SHARED_SHAPES:
            assert simulate(_shared_ladder(rng, "i", r, n_levels, m)).ok
        for subcase in ("i", "ii"):
            for _ in range(10):
                assert simulate(_draw_ladder(rng.randint, rng.sample, subcase, r, 3)).ok
    monkeypatch.undo()
    assert len(bases) == len(calls) > len(SHARED_SHAPES)
    for forms, size in bases:
        basis = lattice_basis(forms, size)
        assert all(all(b.values()) for b in basis)
        assert [[b.get(i, 0) for i in range(size)] for b in basis] == reference.lattice_basis(forms, size)
    for call in calls:
        a = _lifted_kernel(call)
        assert hnf(a, inverse=True) == reference.dense_hnf(a, inverse=True)


def test_core_kernel_agrees_with_the_generic_solve(monkeypatch):
    for inst in _seeded_cores():
        _kernel_agrees(monkeypatch, inst)


def test_echelon_cores_reduce_against_their_local_lift_as_against_hnf(monkeypatch):
    """On each seeded core the local lift equals a full `_substitute` pass, and the reduction equals `hnf`'s.

    A core whose decided columns are each their row's alone and last is
    lifted on the rows that meet each basis vector, and the lifted rows,
    an echelon basis of the kernel with the pivots of its Hermite form,
    reduce the particular solution and random vectors as the Hermite form
    of `hnf` and of the dense oracle do; every other core is lifted on all
    its rows and reduced against `hnf`'s rows.
    """
    from lamsys.abelian import dense, hnf, reduce_mod_lattice

    substitute = uniformization._substitute
    calls = _traced_solves(monkeypatch)
    for inst in _seeded_cores():
        assert simulate(inst).ok
    monkeypatch.undo()
    echelon = [_is_echelon(*call["args"][:2]) for call in calls]
    assert echelon[-1] is False  # the diagonal subcase-ii core
    assert 0 < sum(echelon) < len(calls)
    for call, local in zip(calls, echelon):
        rows, decided, _, particular = call["args"]
        for before, lifted_rows, _, after in call["lifts"]:
            full = list(before)
            substitute(full, rows, decided, [0] * len(rows))
            assert after == full
            if local:
                assert lifted_rows == [row for row in rows if any(before[t] for t in row)]
        a = _lifted_kernel(call)
        h, dense_h = hnf(a)[0], reference.dense_hnf(a)[0]
        assert h == dense_h
        basis = dense(call["basis"], len(particular))
        assert basis == (a if local else h)
        assert hnf(basis)[0] == h
        # the same pivot, column and entry, on each row: the Hermite form differs only above the pivots
        pivots = lambda rows: [(min(row), row[min(row)]) for row in rows if row]
        assert pivots(call["basis"]) == pivots(sparse(h.entries))
        rng = random.Random(len(particular))
        for v in [particular] + [[rng.randint(-50, 50) for _ in particular] for _ in range(3)]:
            expected = reduce_mod_lattice(v, sparse(h.entries))
            assert reduce_mod_lattice(v, call["basis"]) == expected == reduce_mod_lattice(v, sparse(dense_h.entries))


def test_subcase_i_shared_ladders_reach_no_hnf_and_build_no_matrix(monkeypatch):
    from lamsys import abelian

    def unreachable(*args, **kwargs):
        raise AssertionError("a subcase-i ladder core reached a dense matrix")

    calls = _recording(monkeypatch)
    for owner in (abelian, uniformization):
        monkeypatch.setattr(owner, "hnf", unreachable)
    monkeypatch.setattr(abelian, "IntMatrix", unreachable)
    rng = random.Random("no-hnf")
    for r in (0, 1, 2):
        for n_levels, m in SHARED_SHAPES:
            assert simulate(_shared_ladder(rng, "i", r, n_levels, m)).ok
        assert simulate(_repeat_and_skip(_shared_ladder(rng, "i", r, 3, 4))).ok
        for _ in range(10):
            assert simulate(_draw_ladder(rng.randint, rng.sample, "i", r, 3)).ok
    assert len(calls) > 3 * len(SHARED_SHAPES)
    assert all(_is_echelon(rows, decided) for rows, decided, _, _ in calls)


def test_kernel_lift_rows_grow_linearly_with_the_ladder(monkeypatch):
    """The rows the kernel lift hands `_substitute` at most 2.2x from shared 32 x 8 to 64 x 8, r = 0.

    Lifting every basis vector over every core row grew 3.6x; an exact
    count, so no timing noise enters.
    """
    counts = []
    for n_levels in (32, 64):
        calls = _traced_solves(monkeypatch)
        assert simulate(_shared_ladder(random.Random(f"scale/{n_levels}x8"), "i", 0, n_levels, 8)).ok
        monkeypatch.undo()
        [call] = calls
        counts.append(sum(len(rows) for _, rows, _, _ in call["lifts"]))
    assert counts[1] <= 2.2 * counts[0]


@pytest.mark.parametrize("subcase", ("i", "ii"))
@pytest.mark.parametrize("r", (0, 1))
def test_particular_solution_satisfies_every_row_of_w(subcase, r):
    """`_particular` solves all of W c = -s; the solve checks it on the core rows only."""
    from lamsys import uniformization

    shared = _shared_ladder(random.Random(f"particular/{subcase}/{r}"), subcase, r, 3, 4)
    independent = replace(
        shared,
        levels=tuple(replace(lv, g_labels=tuple(f"{lv.alpha}{g}" for g in lv.g_labels)) for lv in shared.levels),
    )
    for inst in (independent, shared, _repeat_and_skip(shared)):
        report = simulate(inst)
        chain = report.chain
        names = chain.generators
        rows = list(chain.relations)
        # the y column each row decides: p_n on y_{n+1} in subcase i, -1 on y_n in subcase ii
        decided = [next(t for t, v in row.items() if names[t].startswith("y:") and (v == -1) == (subcase == "ii")) for row in rows]
        levels = sorted(inst.levels, key=lambda lv: lv.alpha)
        y0s = [names.index(f"y:{lv.alpha}:0") for lv in levels]
        c = uniformization._particular(inst, levels, y0s, len(names), rows, decided, report.shift_coefficients)
        assert [sum(v * c[t] for t, v in row.items()) for row in rows] == [-s for s in report.shift_coefficients]
        assert all(c[t] == 0 for t, g in enumerate(names) if not g.startswith("y:"))


def test_shared_32x8_ladder_splits():
    assert simulate(_shared_ladder(random.Random("scale/32x8"), "i", 0, 32, 8)).ok


def _independent_ii():
    ts = threshold_exponents(2, 1, 1)
    return LadderInstance(
        subcase="ii",
        r=1,
        p=2,
        i_max=1,
        levels=tuple(
            LadderLevel(
                alpha=alpha,
                ladder=(5,),
                colors=(alpha % 3 % 2,),
                g_labels=tuple(f"l{alpha}g{n}" for n in range(ts[-1])),
                mu=(tuple((n * alpha) % 5 - 2 for n in range(ts[-1])),),
            )
            for alpha in (30, 60)
        ),
    )


def test_independent_ladders_run_no_solver(monkeypatch):
    from lamsys import uniformization

    def unreachable(*args, **kwargs):
        raise AssertionError("an independent ladder reached the solver")

    for name in ("_canonical_solution", "hnf", "reduce_mod_lattice"):
        monkeypatch.setattr(uniformization, name, unreachable)
    for inst in (spec_case_i_instance(), _independent_ii()):
        report = simulate(inst)
        assert report.ok
        c = report.splitting
        # c(g_n) = -s_n, and 0 on every y and z column
        g_rows = [g for lv in sorted(inst.levels, key=lambda l: l.alpha) for g in lv.g_labels]
        assert [c[f"g:{g}"] for g in g_rows] == [-s for s in report.shift_coefficients]
        assert all(v == 0 for g, v in c.items() if not g.startswith("g:"))

