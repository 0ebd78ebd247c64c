"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Every tolerance is exact.  Runtime targets are printed alongside the
measured time; the assertions cover exactness.
"""

import itertools
import random
import time

from helpers import (
    from_rows,
    is_free,
    mat_vec,
    random_coloring,
    random_whitehead_system,
    residues,
    transformed_system,
    transport_witness,
)

from lamsys.abelian import (
    InfeasibilityCertificate,
    NonfreeSpec,
    build_chain_group,
    divisibility_evidence,
    is_prime,
    snf,
    solve_z,
)
from lamsys.core import transform_disjoint, transform_tree
from lamsys.freeness import HallCertificate, Transversal, find_reshuffling, find_transversal
from lamsys.uniformization import (
    LadderInstance,
    LadderLevel,
    power_table,
    prime_table,
    simulate,
    threshold_exponents,
)
from lamsys.whitehead import (
    Witness,
    enumerate_basis,
    solve_witness,
    verify_basis,
    verify_witness,
)


def _report(name: str, ok: bool, started: float, target: str) -> None:
    elapsed = time.perf_counter() - started
    line = f"{'PASS' if ok else 'FAIL'} {name}: {elapsed:.2f}s (target {target}, exact)"
    print(line)
    assert ok, line


def test_criterion_1_prime_table_exhaustive():
    started = time.perf_counter()
    ok = True
    for p in range(2, 201):
        if not is_prime(p):
            continue
        tab = prime_table(p)
        m = 0
        while (2 * m + 1) ** 2 < p:
            for mm in (m, -m):
                if tab.value((mm + tab.shift[0]) % p) != 0:
                    ok = False
                if tab.value((mm + tab.shift[1]) % p) != 1:
                    ok = False
            m += 1
    _report("criterion 1 (prime tables, p <= 200, exhaustive)", ok, started, "< 1 s")


def _admissible_base_set(p, i, thresholds, mu_rows):
    """Independent enumeration of every admissible argument base value.

    The free digit part sum_{j<t_prev} p^j a_j covers all of [0, P), so adding
    m_0 in [-P, P] yields the contiguous range [-P, 2P-1] around each center;
    contiguity is itself brute-force checked at small scale in the criterion.
    """
    t_prev, t_cur = thresholds[i - 1], thresholds[i]
    n = p ** t_cur
    big_p = p ** t_prev
    coeffs = [sum(p ** j * row[j] for j in range(t_cur)) for row in mu_rows]
    out = set()
    for vec in itertools.product(range(-big_p, big_p + 1), repeat=len(mu_rows)):
        center = sum(c * m for c, m in zip(coeffs, vec))
        out.update(x % n for x in range(center - big_p, center + 2 * big_p))
    return out


def test_criterion_2_power_tables_exhaustive():
    started = time.perf_counter()
    ok = True
    # contiguity of the m_0 + digit part, brute force at the smallest scale
    p, i = 2, 2
    ts = threshold_exponents(p, 0, 2)
    big_p = p ** ts[1]
    direct = {
        (m0 + sum(p ** j * a[j] for j in range(ts[1]))) % p ** ts[2]
        for m0 in range(-big_p, big_p + 1)
        for a in itertools.product(range(p), repeat=ts[1])
    }
    via_range = {x % p ** ts[2] for x in range(-big_p, 2 * big_p)}
    ok &= direct == via_range

    mu_panel_r1 = [
        lambda n: 0,
        lambda n: 1,
        lambda n: 1 if n % 2 == 0 else -1,
        lambda n: (2, -1, 0)[n % 3],
    ]
    for p in (2, 3):
        for r in (0, 1):
            ts = threshold_exponents(p, r, 2)
            mus = [()] if r == 0 else [
                (tuple(f(n) for n in range(ts[2])),) for f in mu_panel_r1
            ]
            for mu in mus:
                for i in (1, 2):
                    tab = power_table(p, i, ts, mu)
                    n = p ** ts[i]
                    expected = _admissible_base_set(p, i, ts, mu)
                    got = set(residues(tab.zero_class))
                    ok &= expected == got
                    shift1 = tab.shift[1]
                    ok &= shift1 == sum(
                        p ** (ts[i - 1] + k) * d for k, d in enumerate(tab.digits[1])
                    )
                    one = set(residues(tab.one_class))
                    ok &= one == {(x + shift1) % n for x in expected}
                    ok &= not (got & one)
                    # spot congruence checks on random admissible tuples
                    rng = random.Random((p, r, i, mu).__hash__())
                    big_p = p ** ts[i - 1]
                    coeffs = [sum(p ** j * row[j] for j in range(ts[i])) for row in mu]
                    for _ in range(2000):
                        m0 = rng.randint(-big_p, big_p)
                        ms = [rng.randint(-big_p, big_p) for _ in range(r)]
                        digit_val = rng.randint(0, big_p - 1)
                        base = m0 + sum(c * m for c, m in zip(coeffs, ms)) + digit_val
                        ok &= tab.value(base % n) == 0
                        ok &= tab.value((base + shift1) % n) == 1
    _report(
        "criterion 2 (power tables, p in {2,3}, blocks 1-2, r in {0,1})",
        ok,
        started,
        "< 30 s",
    )


def test_criterion_3_threshold_spot_values():
    started = time.perf_counter()
    got = threshold_exponents(2, 0, 2)
    # independent inequality evaluation
    expected = [0]
    for _ in range(2):
        prev = expected[-1]
        lhs = (2 * 2 ** prev + 1) ** 2 * 4 ** prev
        d = 1
        while 2 ** d <= lhs:
            d += 1
        expected.append(prev + d)
    ok = got == (0, 4, 23) and list(got) == expected
    _report("criterion 3 (threshold exponents (0, 4, 23) at base 2)", ok, started, "< 1 s")


PRIMES_31_PLUS = [p for p in range(31, 400) if is_prime(p)]
PRIMES_1K = [p for p in range(1000, 1400) if is_prime(p)]


def _random_case_i(rng: random.Random, tag: int) -> LadderInstance:
    r = rng.choice((0, 0, 1))
    levels = []
    n_levels = rng.randint(1, 3)
    base = 20
    for li in range(n_levels):
        m = rng.randint(3, 8)
        pool = PRIMES_1K if r == 1 else PRIMES_31_PLUS
        primes = tuple(rng.sample(pool, m))
        alpha = base + li * 50
        ladder = []
        cur = 0
        for _ in range(m):
            cur += rng.randint(1, (alpha - cur) // (m + 1) + 1)
            ladder.append(min(cur, alpha - 1))
        ladder = tuple(sorted(set(ladder)))
        while len(ladder) < m:
            ladder = ladder + (ladder[-1] + 1,)
        ladder = tuple(sorted(ladder))[:m]
        if ladder[-1] >= alpha:
            alpha = ladder[-1] + 1
        levels.append(
            LadderLevel(
                alpha=alpha,
                ladder=ladder,
                colors=tuple(rng.randint(0, 1) for _ in range(m)),
                g_labels=tuple(f"i{tag}l{li}g{n}" for n in range(m)),
                mu=tuple(tuple(rng.randint(-3, 3) for _ in range(m)) for _ in range(r)),
                primes=primes,
            )
        )
    return LadderInstance(subcase="i", r=r, levels=tuple(levels))


def _random_case_ii(rng: random.Random, tag: int) -> LadderInstance:
    r, i_max = rng.choice(((0, 2), (0, 2), (0, 2), (1, 1)))
    ts = threshold_exponents(2, r, i_max)
    n_rel = ts[-1]
    levels = []
    for li in range(rng.randint(1, 2)):
        alpha = 100 + li * 100
        ladder = tuple(sorted(rng.sample(range(1, alpha), i_max)))
        levels.append(
            LadderLevel(
                alpha=alpha,
                ladder=ladder,
                colors=tuple(rng.randint(0, 1) for _ in range(i_max)),
                g_labels=tuple(f"ii{tag}l{li}g{n}" for n in range(n_rel)),
                mu=tuple(tuple(rng.randint(-2, 2) for _ in range(n_rel)) for _ in range(r)),
            )
        )
    return LadderInstance(subcase="ii", r=r, p=2, i_max=i_max, levels=tuple(levels))


def test_criterion_4_end_to_end_uniformization():
    started = time.perf_counter()
    rng = random.Random(2024)
    ok = True
    queried = 0
    for tag in range(50):
        report = simulate(_random_case_i(rng, tag))
        ok &= all(report.checks.values())
        for lv in report.levels:
            ok &= lv.n0 == 0
            ok &= all(q["match"] for q in lv.queries if q["n"] >= lv.n0)
            queried += sum(1 for q in lv.queries if q["n"] >= lv.n0)
    for tag in range(10):
        report = simulate(_random_case_ii(rng, tag))
        ok &= all(report.checks.values())
        for lv in report.levels:
            ok &= lv.n0 == 0
            ok &= all(q["match"] for q in lv.queries if q["n"] >= lv.n0)
            queried += sum(1 for q in lv.queries if q["n"] >= lv.n0)
    ok &= queried > 250
    _report(
        "criterion 4 (end-to-end uniformization, 50 + 10 instances, zero mismatches)",
        ok,
        started,
        "< 60 s",
    )


def test_criterion_5_normal_forms_and_solver():
    started = time.perf_counter()
    rng = random.Random(77)
    ok = True
    for _ in range(500):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 6)
        a = from_rows(
            [[rng.randint(-20, 20) for _ in range(cols)] for _ in range(rows)]
        )
        ok &= snf(a).verify(a)
    box = 5
    for trial in range(100):
        rows = rng.randint(1, 4)
        a = from_rows(
            [[rng.randint(-6, 6) for _ in range(3)] for _ in range(rows)]
        )
        if trial % 2 == 0:
            x = [rng.randint(-box, box) for _ in range(3)]
            b = list(mat_vec(a, x))
        else:
            b = [rng.randint(-9, 9) for _ in range(rows)]
        oracle_found = any(
            mat_vec(a, v) == tuple(b)
            for v in itertools.product(range(-box, box + 1), repeat=3)
        )
        res = solve_z(a, b)
        if isinstance(res, InfeasibilityCertificate):
            ok &= res.verify(a, b)
            ok &= not oracle_found
        else:
            ok &= mat_vec(a, res) == tuple(b)
            if oracle_found:
                ok &= True  # feasibility agrees
            # solver may legitimately find solutions outside the oracle box;
            # planted trials above pin the other direction
        if trial % 2 == 0:
            ok &= not isinstance(res, InfeasibilityCertificate)
    _report(
        "criterion 5 (500 Smith decompositions + solver vs box oracle)",
        ok,
        started,
        "< 30 s",
    )


def _has_sdr(sets):
    def rec(i, used):
        if i == len(sets):
            return True
        return any(rec(i + 1, used | {a}) for a in sets[i] if a not in used)

    return rec(0, frozenset())


def test_criterion_6_transversal_oracle_equivalence():
    started = time.perf_counter()
    rng = random.Random(99)
    atoms = list("abcdefgh")
    ok = True
    for _ in range(1000):
        sets = [
            frozenset(rng.sample(atoms, rng.randint(0, 4)))
            for _ in range(rng.randint(1, 6))
        ]
        res = find_transversal(sets)
        oracle = _has_sdr(sets)
        if isinstance(res, Transversal):
            ok &= oracle and res.verify(sets)
        else:
            ok &= (not oracle) and res.verify(sets)
    _report(
        "criterion 6 (1000 matchings vs exhaustive oracle)", ok, started, "< 10 s"
    )


def test_criterion_7_witness_roundtrip_and_transforms():
    started = time.perf_counter()
    rng = random.Random(123)
    ok = True
    for _ in range(100):
        ws = random_whitehead_system(
            rng,
            n=rng.choice((1, 2)),
            r=rng.randint(0, 1),
            truncation=rng.randint(2, 4),
            cross_level_atoms=rng.random() < 0.4,
        )
        c = random_coloring(rng, ws)
        w = solve_witness(ws, c)
        ok &= isinstance(w, Witness)
        passed, _ = verify_witness(ws, c, w)
        ok &= passed
        for transform in (transform_disjoint, transform_tree):
            res = transform(ws.family)
            ws2 = transformed_system(ws, res)
            moved = transport_witness(res, ws2, w)
            passed, _ = verify_witness(ws2, c, moved)
            ok &= passed
            ok &= isinstance(solve_witness(ws2, c), Witness)
    _report(
        "criterion 7 (100 witness round-trips, transform stability)",
        ok,
        started,
        "< 30 s",
    )


def test_criterion_8_basis_verification():
    started = time.perf_counter()
    rng = random.Random(321)
    ok = True
    done = 0
    while done < 20:
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
        res = find_reshuffling(ws.family, finals=window, alpha=alpha, theta_fresh=1)
        if res.status != "found":
            continue
        cand = enumerate_basis(ws, res.order, alpha, beta)
        report = verify_basis(ws, cand, alpha, beta)
        ok &= report.ok
        done += 1
    _report(
        "criterion 8 (20 reshuffled basis enumerations verify)", ok, started, "< 30 s"
    )


def test_criterion_9_chain_truncations():
    started = time.perf_counter()
    rng = random.Random(555)
    primes = (2, 3, 5, 7, 11, 13)
    ok = True
    for _ in range(20):
        r = rng.randint(0, 2)
        j = 10
        count = j - r - 1
        spec = NonfreeSpec(
            r=r,
            q=tuple(rng.choice(primes) for _ in range(count)),
            d=tuple(
                tuple(rng.randint(-4, 4) for _ in range(r)) for _ in range(count)
            ),
            j_trunc=j,
        )
        pres = build_chain_group(spec)
        ok &= is_free(pres)
        products = [s.product for s in divisibility_evidence(spec, 5)]
        expected = []
        acc = 1
        for m in range(6):
            acc *= spec.q[m]
            expected.append(acc)
        ok &= products == expected
    _report(
        "criterion 9 (20 chain truncations free + divisibility to depth 5)",
        ok,
        started,
        "< 10 s",
    )
