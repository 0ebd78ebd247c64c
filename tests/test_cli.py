"""CLI dispatch: exit codes, byte stability, certificate round-trips."""

import argparse
import contextlib
import gc
import io
import json
import math
import os
import random
import resource
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from lamsys import cli, jsonio
from lamsys.cli import dispatch
from lamsys.core import MAX_ATOM_DEPTH, make_family, make_skeleton, node_key
from lamsys.freeness import Transversal
from lamsys.jsonio import dump, system_to_doc
from lamsys.whitehead import SHAPE_CLAUSES, WhiteheadSystem, shape_violation, validate_whitehead


def run(capsys, argv):
    code = dispatch(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def minimal_doc():
    sys_ = make_skeleton(
        nodes=[(), (0,)],
        level={(): 2, (0,): 0},
        e_map={(): [0]},
        b_map={(): [], (0,): ["a", "b"]},
    )
    return system_to_doc(sys_)


def family_doc(sets_by_first):
    finals = [(i,) for i in sorted(sets_by_first)]
    atoms = sorted({a for s in sets_by_first.values() for a in s})
    sys_ = make_skeleton(
        nodes=[()] + finals,
        level={(): 1, **{f: 0 for f in finals}},
        e_map={(): [f[0] for f in finals]},
        b_map={(): [], **{f: atoms for f in finals}},
    )
    trunc = max(len(s) for s in sets_by_first.values())
    phi = {(f, 1): sorted(sets_by_first[f[0]]) for f in finals}
    fam = make_family(sys_, phi, truncation=trunc)
    return system_to_doc(fam)


def witness_doc(trunc=2):
    sys_ = make_skeleton(
        nodes=[(), (0,)],
        level={(): 1, (0,): 0},
        e_map={(): [0]},
        b_map={(): [], (0,): [f"x{m}" for m in range(trunc)]},
    )
    fam = make_family(sys_, {((0,), 1): [f"x{m}" for m in range(trunc)]}, truncation=trunc)
    ws = WhiteheadSystem(
        family=fam,
        r=0,
        q={(0,): tuple(2 for _ in range(trunc))},
        d={(0,): tuple(() for _ in range(trunc))},
        j_trunc=trunc + 2,
    )
    return system_to_doc(ws)


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_validate_pass_and_manifest(tmp_path, capsys):
    path = write(tmp_path, "sys.json", minimal_doc())
    code, out, err = run(capsys, ["validate", path])
    assert code == 0
    doc = json.loads(out)
    assert doc["violations"] == []
    assert doc["manifest"]["subcommand"] == "validate"
    assert doc["manifest"]["schema"] == "lamsys/1"
    assert doc["manifest"]["seed"] is None


_SUBPARSERS = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)).choices


@pytest.mark.parametrize("name", sorted(_SUBPARSERS))
def test_every_option_reaches_the_manifest(name):
    options = [a for a in _SUBPARSERS[name]._actions if a.dest != "help"]
    argv = [name]
    for a in options:
        if a.required or not a.option_strings:
            argv += [*a.option_strings[:1], a.choices[0] if a.choices else "1"]
    manifest = cli._manifest(cli.build_parser().parse_args(argv))
    assert manifest["subcommand"] == name
    assert manifest["inputs"].keys().isdisjoint(manifest["params"])
    assert manifest["inputs"].keys() | manifest["params"].keys() == {a.dest for a in options}


def test_validate_reports_violations(tmp_path, capsys):
    bad = minimal_doc()
    bad["level"][""] = 0
    path = write(tmp_path, "bad.json", bad)
    code, out, _ = run(capsys, ["validate", path])
    assert code == 1
    assert json.loads(out)["violations"]


def test_unknown_field_rejected(tmp_path, capsys):
    doc = minimal_doc()
    doc["extra"] = 1
    path = write(tmp_path, "x.json", doc)
    code, out, err = run(capsys, ["validate", path])
    assert code == 2
    assert out == ""
    assert "unknown fields" in err


def test_wrong_schema_rejected(tmp_path, capsys):
    doc = minimal_doc()
    doc["schema"] = "other/9"
    path = write(tmp_path, "x.json", doc)
    code, _, err = run(capsys, ["validate", path])
    assert code == 2 and "schema" in err


def test_unknown_flag_exits_2(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        dispatch(["validate", "nope.json", "--bogus"])
    assert exc.value.code == 2


def test_check_free_twins_certificate(tmp_path, capsys):
    path = write(tmp_path, "fam.json", family_doc({0: ["a"], 1: ["a"]}))
    code, out, _ = run(capsys, ["check-free", path])
    assert code == 1
    doc = json.loads(out)
    assert doc["certificate"] == {"type": "hall-certificate", "violator": [0, 1]}


def test_check_free_transversal_roundtrip(tmp_path, capsys):
    sets = {0: ["a", "b"], 1: ["b", "c"]}
    path = write(tmp_path, "fam.json", family_doc(sets))
    code, out, _ = run(capsys, ["check-free", path])
    assert code == 0
    doc = json.loads(out)
    t = Transversal({int(i): a for i, a in doc["certificate"]["assignment"].items()})
    assert t.verify([frozenset(sets[0]), frozenset(sets[1])])


def test_check_free_k_flag(tmp_path, capsys):
    path = write(tmp_path, "fam.json", family_doc({0: ["a"], 1: ["a"], 2: ["b", "c"]}))
    code, out, _ = run(capsys, ["check-free", path, "--k", "2"])
    assert code == 0 and json.loads(out)["result"] == "pass"
    code, out, _ = run(capsys, ["check-free", path, "--k", "3"])
    assert code == 1
    assert json.loads(out)["certificate"]["violator"] == [0, 1]


def test_reshuffle_cli(tmp_path, capsys):
    path = write(tmp_path, "fam.json", family_doc({0: ["a", "b"], 3: ["c", "d"]}))
    code, out, _ = run(capsys, ["reshuffle", path, "--alpha", "1", "--fresh", "2"])
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "found"
    assert doc["certificate"]["order"] == ["0", "3"]


def test_reshuffle_cli_prints_the_obstruction(tmp_path, capsys):
    path = write(tmp_path, "fam.json", family_doc({0: ["a"], 1: ["a"], 2: ["b"]}))
    code, out, _ = run(capsys, ["reshuffle", path])
    assert code == 1
    doc = json.loads(out)
    assert (doc["status"], doc["nodes_visited"]) == ("none", 1)
    assert doc["certificate"] == {
        "type": "reshuffling-obstruction",
        "remaining": ["0", "1"],
        "alpha": -1,
        "theta_fresh": 1,
    }


def test_reshuffle_has_no_budget_flag(tmp_path, capsys):
    path = write(tmp_path, "fam.json", family_doc({0: ["a"]}))
    with pytest.raises(SystemExit) as exc:
        dispatch(["reshuffle", path, "--budget", "10"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --budget 10" in capsys.readouterr().err


def test_parser_is_built_once(tmp_path, capsys):
    from lamsys.cli import build_parser

    path = write(tmp_path, "fam.json", family_doc({0: ["a"]}))
    first = run(capsys, ["reshuffle", path])
    assert build_parser() is build_parser()
    assert run(capsys, ["reshuffle", path]) == first


def test_build_group_cli(tmp_path, capsys):
    spec = {"schema": "lamsys/1", "r": 0, "q": [2, 2, 2, 2], "d": [[], [], [], []], "J": 5}
    path = write(tmp_path, "spec.json", spec)
    code, out, _ = run(capsys, ["build-group", "--spec", path, "--m-max", "3"])
    assert code == 0
    doc = json.loads(out)
    assert doc["free"] is True and doc["rank"] == 1
    assert list(doc["divisibility"]) == ["steps"]
    assert doc["divisibility"]["steps"][-1]["product"] == 16


def test_build_group_cli_writes_products_past_the_str_digit_limit(tmp_path, capsys):
    # the product of seven copies of the prime 2^2203 - 1 has 4,643 digits
    spec = {"schema": "lamsys/1", "r": 0, "q": [2 ** 2203 - 1] * 8, "d": [[]] * 8, "J": 9}
    path = write(tmp_path, "spec.json", spec)
    code, out, err = run(capsys, ["build-group", "--spec", path, "--m-max", "6"])
    assert (code, err) == (0, "")
    # parse_int keeps each number as its digits, so reading back needs no limit either
    steps = json.loads(out, parse_int=str)["divisibility"]["steps"]
    assert len(steps[-1]["product"]) == 4643


@pytest.mark.parametrize(
    "q0",
    [318665857834031151167461, 3317044064679887385961981],
    ids=["psi-12", "psi-13"],
)
def test_build_group_cli_rejects_strong_pseudoprimes(tmp_path, capsys, q0):
    # the least strong pseudoprimes to all prime bases up to 37 and up to 41
    spec = {"schema": "lamsys/1", "r": 0, "q": [q0], "d": [[]], "J": 2}
    path = write(tmp_path, "spec.json", spec)
    code, out, err = run(capsys, ["build-group", "--spec", path])
    assert (code, out) == (2, "")
    assert err == f"error: q[0] = {q0} is not prime\n"


def test_unif_table_writes_shifts_past_the_str_digit_limit(capsys):
    from lamsys.uniformization import power_table, threshold_exponents

    # block 7 at p = 2 has the shift 3 * 2^14843, a 4,469-digit number
    code, out, err = run(capsys, ["unif-table", "--p", "2", "--i", "7"])
    assert (code, err) == (0, "")
    shift = json.loads(out)["table"]["shift"][1]
    assert len(shift) == 4469
    tab = power_table(2, 7, threshold_exponents(2, 0, 7), [])
    with jsonio.digit_limit(0):
        assert int(shift) == tab.shift[1] == 3 * 2 ** 14843


def test_build_g_and_solve_witness(tmp_path, capsys):
    path = write(tmp_path, "ws.json", witness_doc())
    code, out, _ = run(capsys, ["build-G", "--system", path])
    assert code == 0
    doc = json.loads(out)
    assert doc["free"] is True
    assert len(doc["presentation"]["rels"]) == 2
    c_path = write(tmp_path, "c.json", {"schema": "lamsys/1", "c": {"0": [3, -1]}})
    code, out, _ = run(capsys, ["solve-witness", "--system", path, "--c", c_path])
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "witness"
    assert set(doc["witness"]["a"]) == {f"0:{j}" for j in range(4)}


def test_basis_cli(tmp_path, capsys):
    path = write(tmp_path, "ws.json", witness_doc())
    code, out, _ = run(capsys, ["basis", "--system", path, "--alpha", "-1", "--beta", "1"])
    assert code == 0
    doc = json.loads(out)
    assert doc["verification"]["ok"] is True
    assert doc["verification"]["candidate_size"] == doc["verification"]["free_rank"]


def test_basis_cli_uses_attached_order(tmp_path, capsys):
    doc = witness_doc()
    doc["strong"] = {"order": ["0"], "alpha": -1, "theta_fresh": 1}
    path = write(tmp_path, "ws.json", doc)
    code, out, _ = run(capsys, ["basis", "--system", path, "--alpha", "-1", "--beta", "1"])
    assert code == 0
    result = json.loads(out)
    assert result["order"]["order"] == ["0"]
    assert result["verification"]["ok"] is True


def test_unif_table_spec_example(tmp_path, capsys):
    code, out, _ = run(capsys, ["unif-table", "--p", "11", "--r", "0"])
    assert code == 0
    doc = json.loads(out)
    assert doc["table"]["shift"] == ["0", "3"]
    # Y = [-1, 1] wraps round mod 11, and is written as one segment
    assert doc["table"]["zero_class"] == [["-1", "1"]]
    assert doc["table"]["one_class"] == [["2", "4"]]


def test_unif_table_power(tmp_path, capsys):
    code, out, _ = run(capsys, ["unif-table", "--p", "2", "--r", "0", "--i", "1"])
    assert code == 0
    doc = json.loads(out)
    assert doc["thresholds"] == [0, 4]
    # the shift 3 = 0b11 is all the class-1 digits held, and the modulus is
    # 2^4 from the exponents, so neither digits nor modulus is written
    assert doc["table"]["shift"] == ["0", "3"]
    assert doc["table"]["exponents"] == [0, 4]
    assert doc["table"]["zero_class"] == [["-1", "1"]]
    assert not {"digits", "modulus", "values"} & doc["table"].keys()


def test_unif_sim_cli(tmp_path, capsys):
    inst = {
        "schema": "lamsys/1",
        "subcase": "i",
        "r": 0,
        "levels": {
            "40": {
                "ladder": [3, 8, 15, 21, 30, 38],
                "colors": [1, 0, 1, 1, 0, 1],
                "g": [f"a{n}" for n in range(6)],
                "primes": [11, 13, 17, 19, 23, 29],
            }
        },
    }
    path = write(tmp_path, "inst.json", inst)
    code, out, _ = run(capsys, ["unif-sim", "--instance", path])
    assert code == 0
    doc = json.loads(out)
    level = doc["report"]["levels"][0]
    assert level["n0"] == 0
    assert all(q["match"] for q in level["queries"])
    assert doc["report"]["checks"] == {"projection_splitting_identity": True}


def run_cli_process(argv, preexec_fn=None):
    """The CLI in its own process, so that a hang fails the test after 20 s; `preexec_fn` runs in the child first."""
    src = Path(__file__).resolve().parent.parent / "src"
    return subprocess.run(
        [sys.executable, "-m", "lamsys.cli", *argv],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True,
        text=True,
        timeout=20,
        preexec_fn=preexec_fn,
    )


def test_a_prime_table_mod_a_large_prime_is_built_at_once(tmp_path):
    # t_p was once counted up one at a time, in time growing as sqrt(p) at r = 0
    prime = 2 ** 127 - 1
    proc = run_cli_process(["unif-table", "--p", str(prime)])
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["table"]["magnitude_bound"] == (math.isqrt(prime - 1) - 1) // 2
    inst = json.loads((Path(__file__).resolve().parent / "golden" / "inputs" / "ladder-shared.json").read_text())
    inst["levels"]["100"]["primes"][0] = prime
    proc = run_cli_process(["unif-sim", "--instance", write(tmp_path, "inst.json", inst)])
    assert proc.returncode == 0, proc.stderr


def test_a_prime_table_with_mu_mod_a_large_prime_sums_intervals():
    # Y was once built from all 2t + 1 = 3,611,622,601 coefficient vectors
    prime = 2 ** 127 - 1
    proc = run_cli_process(["unif-table", "--p", str(prime), "--r", "1", "--mu", "[1]"])
    assert proc.returncode == 0, proc.stderr
    table = json.loads(proc.stdout)["table"]
    t = table["magnitude_bound"]
    assert t == 1_805_811_300
    # mu = 1 makes Y the one interval [-2t, 2t], so the shift is 4t + 1
    assert table["one_class"] == [[str(2 * t + 1), str(6 * t + 1)]]


def test_a_prime_table_with_a_wide_mu_separates_in_bounded_memory():
    # Y - Y was once listed pair by pair of Y's 3,161 segments, ten million
    # intervals, which took 2.6 GB and so met MemoryError under a 1 GiB limit
    def limit_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    argv = ["unif-table", "--p", "100000000000031", "--r", "1", "--mu", "[10000]"]
    proc = run_cli_process(argv, preexec_fn=limit_address_space)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["table"]["shift"] == ["0", "3161"]


def test_a_power_table_deep_in_its_blocks_is_built_and_written_in_bounded_memory():
    # block 10 at p = 2 is mod 2^9277343; the table once kept the shift's
    # 7,421,875 digits twice over and wrote its modulus and a wrap-round
    # segment with two ends near it, 10.6 MB of JSON, which met MemoryError
    # under a 160 MiB limit
    def limit_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (96 << 20, 96 << 20))

    proc = run_cli_process(["unif-table", "--p", "2", "--r", "0", "--i", "10"], preexec_fn=limit_address_space)
    assert proc.returncode == 0, proc.stderr
    assert len(proc.stdout) < 3_000_000
    doc = json.loads(proc.stdout, parse_int=str)
    assert doc["thresholds"][-2:] == ["1855468", "9277343"]
    assert len(doc["table"]["zero_class"]) == 1


@pytest.mark.parametrize(
    "levels,code",
    [
        pytest.param({"40": {"ladder": [3], "colors": [1], "g": ["a0"]}}, 2, id="one-label"),
        pytest.param({}, 0, id="no-level"),
    ],
)
def test_unif_sim_answers_before_an_unreachable_threshold(tmp_path, levels, code):
    # t_8 at p = 2 is out of reach (t_7 = 74218, and t_i grows about fivefold
    # a step), so the run must decide without it: one label is short of t_1
    # already, and no level reads the thresholds at all
    inst = {"schema": "lamsys/1", "subcase": "ii", "r": 0, "p": 2, "i_max": 8, "levels": levels}
    proc = run_cli_process(["unif-sim", "--instance", write(tmp_path, "inst.json", inst)])
    assert proc.returncode == code, proc.stderr
    if code == 2:
        assert proc.stdout == ""
        assert proc.stderr.count("\n") == 1 and "needs at least 4 base elements, got 1" in proc.stderr
    else:
        assert json.loads(proc.stdout)["report"]["levels"] == []


def test_unif_sim_counts_mu_rows_before_any_threshold(tmp_path):
    # t_1 grows with r, so it must not be computed for an r of 40,000 that
    # the document backs with no mu row
    level = {"ladder": [3], "colors": [1], "g": ["a0"]}
    inst = {"schema": "lamsys/1", "subcase": "ii", "r": 40000, "p": 2, "i_max": 1, "levels": {"40": level}}
    proc = run_cli_process(["unif-sim", "--instance", write(tmp_path, "inst.json", inst)])
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr == "error: invalid instance: level 40: need 40000 mu rows, got 0\n"


def test_unif_table_reaches_t_8():
    # t_8 = 371093 at p = 2; the table is about 0.11 MB of JSON
    proc = run_cli_process(["unif-table", "--p", "2", "--r", "0", "--i", "8"])
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["thresholds"][-1] == 371093


def test_unif_table_takes_more_mu_entries_than_the_recursion_limit():
    # the table enumerates r-tuples; r comes from the user, so no recursion may follow it
    proc = run_cli_process(["unif-table", "--p", "5", "--r", "2000", "--mu", json.dumps([0] * 2000)])
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["table"]["r"] == 2000


def test_unif_sim_certificate_reverifies_from_json(tmp_path, capsys):
    inst = {
        "schema": "lamsys/1",
        "subcase": "i",
        "r": 0,
        "levels": {
            "40": {
                "ladder": [3, 8, 15],
                "colors": [1, 0, 1],
                "g": ["a0", "a1", "a2"],
                "primes": [31, 37, 41],
            }
        },
    }
    path = write(tmp_path, "inst.json", inst)
    code, out, _ = run(capsys, ["unif-sim", "--instance", path])
    assert code == 0
    doc = json.loads(out)["report"]
    gens = doc["generators"]
    c_vec = [doc["splitting"][g] for g in gens]
    # the splitting equations hold exactly: W c = -shifts
    for row, shift in zip(doc["relations"], doc["shift_coefficients"]):
        assert sum(a * b for a, b in zip(row, c_vec)) == -shift
    # recovered bits recompute from the emitted tables
    from lamsys.uniformization import prime_table

    idx = {g: i for i, g in enumerate(gens)}
    for q in doc["levels"][0]["queries"]:
        w = q["w"]
        delta_g = -c_vec[idx["g:" + w["g"]]]
        assert prime_table(w["p"], tuple(w["mu"])).value(delta_g % w["p"]) == q["H"]


def test_transform_cli_roundtrip(tmp_path, capsys):
    path = write(tmp_path, "fam.json", family_doc({0: ["a", "b"], 1: ["a", "c"]}))
    code, out, _ = run(capsys, ["transform", path, "--kind", "disjoint"])
    assert code == 0
    doc = json.loads(out)
    inner = doc["document"]
    fam = jsonio.family_from_doc(inner)
    assert fam.truncation == 2
    # renaming maps every transformed value back to its source
    renaming = {json.dumps(new): old for new, old in doc["renaming"]}
    for per_level in inner["phi"].values():
        for vals in per_level.values():
            for v in vals:
                assert json.dumps(v) in renaming


def unleveled_family_doc():
    doc = family_doc({0: ["a", "b"], 1: ["a", "c"]})
    del doc["level"]["1"]
    return doc


@pytest.mark.parametrize("kind", ["disjoint", "tree"])
def test_transform_without_a_level_exits_2(tmp_path, capsys, kind):
    path = write(tmp_path, "fam.json", unleveled_family_doc())
    code, out, err = run(capsys, ["transform", path, "--kind", kind])
    assert (code, out) == (2, "")
    assert err == "error: level-missing at node '1': no level assigned\n"


def test_validate_reports_the_missing_level(tmp_path, capsys):
    path = write(tmp_path, "fam.json", unleveled_family_doc())
    code, out, _ = run(capsys, ["validate", path])
    assert code == 1
    assert json.loads(out)["violations"] == [{"clause": "level-missing", "detail": "no level assigned", "node": "1"}]


def deep_family_doc(depth):
    """A two-final family whose atom a sits `depth` lists deep, in its carrier and in a slice."""
    doc = family_doc({0: ["a", "b"], 1: ["b", "c"]})
    deep = "a"
    for _ in range(depth):
        deep = [deep]
    doc["B"] = {k: [deep if v == "a" else v for v in atoms] for k, atoms in doc["B"].items()}
    doc["phi"]["0"]["1"] = [deep, "b"]
    return doc


_FAMILY_COMMANDS = [["check-free"], ["validate"], ["reshuffle"], ["transform", "--kind", "disjoint"], ["transform", "--kind", "tree"]]


# transform takes one level less than the bound: see the test after this one
@pytest.mark.parametrize(
    "argv, depth, expected",
    [
        pytest.param(argv, depth, expected, id=f"{depth}-{expected}-argv{i}")
        for depth, expected in [(MAX_ATOM_DEPTH, 0), (MAX_ATOM_DEPTH + 1, 2), (500, 2)]
        for i, argv in enumerate(_FAMILY_COMMANDS)
        if not (argv[0] == "transform" and depth == MAX_ATOM_DEPTH)
    ],
)
def test_atom_depth_bound_in_every_family_command(tmp_path, capsys, argv, depth, expected):
    code, out, err = run(capsys, [*argv, write(tmp_path, "fam.json", deep_family_doc(depth))])
    assert code == expected, err
    if expected == 2:
        assert out == "" and err == f"error: atom nests lists more than {MAX_ATOM_DEPTH} deep\n"
    else:
        assert err == ""


@pytest.mark.parametrize("kind", ["disjoint", "tree"])
def test_transform_output_stays_within_the_atom_depth_bound(tmp_path, capsys, kind):
    # transform writes every atom one list deeper, so its output must parse again
    path = write(tmp_path, "fam.json", deep_family_doc(MAX_ATOM_DEPTH - 1))
    code, out, err = run(capsys, ["transform", path, "--kind", kind])
    assert (code, err) == (0, "")
    written = write(tmp_path, "out.json", json.loads(out)["document"])
    assert run(capsys, ["check-free", written])[0] == 0
    path = write(tmp_path, "fam.json", deep_family_doc(MAX_ATOM_DEPTH))
    code, out, err = run(capsys, ["transform", path, "--kind", kind])
    assert (code, out) == (2, "")
    assert err == f"error: atom nests lists {MAX_ATOM_DEPTH} deep, so transform would write it past the bound\n"


def test_byte_stability(tmp_path, capsys):
    path = write(tmp_path, "fam.json", family_doc({0: ["a", "b"], 1: ["b", "c"]}))
    outs = []
    for _ in range(2):
        code, out, _ = run(capsys, ["check-free", path])
        outs.append(out)
    assert outs[0] == outs[1]


def test_solve_witness_coloring_shape_checked(tmp_path, capsys):
    path = write(tmp_path, "ws.json", witness_doc())
    c_path = write(tmp_path, "c.json", {"schema": "lamsys/1", "c": {"0": [3]}})
    code, _, err = run(capsys, ["solve-witness", "--system", path, "--c", c_path])
    assert code == 2
    assert "coloring" in err


def test_solve_witness_without_relation_rows(tmp_path, capsys):
    # truncation 0 leaves no witness equation: every value is zero
    path = write(tmp_path, "ws.json", witness_doc(trunc=0))
    code, out, _ = run(capsys, ["validate", path])
    assert code == 0
    c_path = write(tmp_path, "c.json", {"schema": "lamsys/1", "c": {"0": []}})
    code, out, _ = run(capsys, ["solve-witness", "--system", path, "--c", c_path])
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "witness"
    assert doc["witness"]["a"] == {"0:0": 0, "0:1": 0}


def test_solve_witness_rejects_short_j(tmp_path, capsys):
    doc = witness_doc(trunc=2)
    doc["J"] = 1
    path = write(tmp_path, "ws.json", doc)
    code, out, _ = run(capsys, ["validate", path])
    assert code == 1
    assert [v["clause"] for v in json.loads(out)["violations"]] == ["j-trunc"]
    c_path = write(tmp_path, "c.json", {"schema": "lamsys/1", "c": {"0": []}})
    code, out, err = run(capsys, ["solve-witness", "--system", path, "--c", c_path])
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and "j_trunc" in err


def test_solve_witness_and_basis_skip_the_non_shape_checks(tmp_path, capsys):
    # a composite modulus, a slice value outside its carrier and a slice for a
    # node that is no final leave every relation row indexable: validate
    # lists them, and the witness commands run on
    doc = witness_doc(trunc=2)
    doc["q"]["0"] = [4, 2]
    doc["phi"]["0"]["1"] = ["x0", "y"]
    doc["phi"][""] = {"1": ["x1"]}
    path = write(tmp_path, "ws.json", doc)
    code, out, _ = run(capsys, ["validate", path])
    assert code == 1
    assert [(v["clause"], v["node"]) for v in json.loads(out)["violations"]] == [
        ("phi-based-on", "0"),
        ("phi-domain", ""),
        ("q-prime", "0"),
    ]
    c_path = write(tmp_path, "c.json", {"schema": "lamsys/1", "c": {"0": [3, -1]}})
    code, out, err = run(capsys, ["solve-witness", "--system", path, "--c", c_path])
    assert (code, err) == (0, "")
    assert json.loads(out)["status"] == "witness"
    code, out, err = run(capsys, ["basis", "--system", path, "--alpha", "-1", "--beta", "1"])
    assert (code, err) == (0, "")
    assert json.loads(out)["verification"]["ok"] is True


def _witness_edits(rng: random.Random, doc: dict, count: int) -> None:
    """Apply `count` random edits to a witness document: shape faults (slice,
    modulus and row counts, row widths, truncation, J, r) and faults of other
    clauses (a composite modulus, a value outside its carrier, a slice of a node
    that is no final)."""
    finals = sorted(doc["q"])
    for _ in range(count):
        z = rng.choice(finals)
        edit = rng.randrange(11)
        if edit == 0:
            doc["truncation"] = rng.randint(-1, 6)
        elif edit == 1:
            doc["J"] = rng.randint(0, 9)
        elif edit == 2:
            doc["r"] = rng.randint(0, 3)
        elif edit == 3 and doc["phi"][z]:
            del doc["phi"][z][rng.choice(sorted(doc["phi"][z]))]
        elif edit == 4 and doc["phi"][z]:
            vals = doc["phi"][z][rng.choice(sorted(doc["phi"][z]))]
            n = rng.randint(0, 6)
            vals[n:] = []
            vals += [f"w{i}" for i in range(len(vals), n)]
        elif edit == 5:
            n = rng.randint(0, 6)
            doc["q"][z] = (doc["q"][z] + [2] * n)[:n]
        elif edit == 6:
            n = rng.randint(0, 6)
            doc["d"][z] = (doc["d"][z] + [[0] * doc["r"]] * n)[:n]
        elif edit == 7 and doc["d"][z]:
            doc["d"][z][rng.randrange(len(doc["d"][z]))] = [1] * rng.randint(0, 3)
        elif edit == 8 and doc["q"][z]:
            doc["q"][z][rng.randrange(len(doc["q"][z]))] = rng.choice([1, 4, 9, 0, -3])
        elif edit == 9 and doc["phi"][z]:
            vals = doc["phi"][z][rng.choice(sorted(doc["phi"][z]))]
            if vals:
                vals[rng.randrange(len(vals))] = "stray"
        elif edit == 10:
            inner = rng.choice([n for n in doc["nodes"] if n not in doc["q"]])
            doc["phi"][inner] = {"1": ["stray"]}


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32), st.integers(1, 2), st.integers(0, 2), st.integers(1, 4), st.integers(1, 4))
def test_witness_commands_refuse_exactly_the_first_shape_violation(seed, n, r, truncation, count):
    # solve-witness and basis run only the shape rules; what they refuse, and
    # the text, must be what the first SHAPE_CLAUSES violation of the full
    # validate_whitehead gives, and with none they must not refuse the input
    from helpers import random_whitehead_system, run_dispatch

    rng = random.Random(seed)
    doc = system_to_doc(random_whitehead_system(rng, n=n, r=r, truncation=truncation, width=rng.randint(1, 3)))
    _witness_edits(rng, doc, count)
    ws = jsonio.whitehead_from_doc(doc)
    first = next((v for v in validate_whitehead(ws) if v.clause in SHAPE_CLAUSES), None)
    expected = ""
    if first is not None:
        where = "" if first.node is None else f" at final {node_key(first.node)!r}"
        expected = f"error: {first.clause}{where}: {first.detail}\n"
    coloring = {node_key(z): [1] * max(ws.m_range, 0) for z in ws.finals()}
    beta = 1 + max(z[0] for z in ws.finals())
    with tempfile.TemporaryDirectory() as tmp:
        path = write(Path(tmp), "ws.json", doc)
        c_path = write(Path(tmp), "c.json", {"schema": "lamsys/1", "c": coloring})
        for argv, passing in (
            (["solve-witness", "--system", path, "--c", c_path], (0,)),
            (["basis", "--system", path, "--alpha", "-1", "--beta", str(beta)], (0, 1)),
        ):
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code, out = run_dispatch(argv)
            if first is not None:
                assert (code, out, err.getvalue()) == (2, "", expected), argv
            else:
                assert code in passing and err.getvalue() == "", (argv, err.getvalue())


def _reshuffle_and_full_window_basis(path: str, ws: WhiteheadSystem, alpha: int, fresh: int) -> tuple[dict, dict]:
    """The outputs of `reshuffle` and of `basis` on a window that holds every final, with one alpha and fresh."""
    from helpers import run_dispatch

    beta = 1 + max(z[0] for z in ws.finals())
    flags = ["--alpha", str(alpha), "--fresh", str(fresh)]
    r_code, r_out = run_dispatch(["reshuffle", path, *flags])
    b_code, b_out = run_dispatch(["basis", "--system", path, "--beta", str(beta), *flags])
    assert r_code in (0, 1) and b_code in (0, 1)
    return json.loads(r_out) | {"exit": r_code}, json.loads(b_out) | {"exit": b_code}


def _assert_basis_obstructed_as_reshuffle(reshuffle: dict, basis: dict) -> None:
    obstructed = basis["exit"] == 1 and basis.get("certificate", {}).get("type") == "reshuffling-obstruction"
    assert obstructed == (reshuffle["exit"] == 1)
    if obstructed:
        assert basis["certificate"]["remaining"] == reshuffle["certificate"]["remaining"]
        assert (basis["status"], basis["certificate"]) == (reshuffle["status"], reshuffle["certificate"])
    else:
        assert basis["order"] == reshuffle["certificate"]


def _golden_witness_systems() -> dict:
    """The golden witness systems that carry no strong order and that basis reads, by input path."""
    out = {}
    for path in sorted((Path(__file__).resolve().parent / "golden" / "inputs").glob("*.json")):
        doc = json.loads(path.read_text())
        if {"phi", "r"} <= doc.keys() and "strong" not in doc:
            ws = jsonio.whitehead_from_doc(doc)
            if shape_violation(ws) is None:
                out[str(path)] = ws
    return out


_GOLDEN_WITNESS = _golden_witness_systems()


@pytest.mark.parametrize("path", sorted(_GOLDEN_WITNESS), ids=lambda path: Path(path).name)
def test_full_window_basis_is_obstructed_exactly_when_reshuffle_is_on_golden_inputs(path):
    ws = _GOLDEN_WITNESS[path]
    for alpha in sorted({-1, *(z[0] for z in ws.finals())}):
        for fresh in (1, 2, 3):
            _assert_basis_obstructed_as_reshuffle(*_reshuffle_and_full_window_basis(path, ws, alpha, fresh))


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 2**32), st.integers(1, 2), st.integers(1, 4), st.integers(1, 4),
    st.booleans(), st.integers(0, 2), st.integers(-1, 6), st.integers(1, 3),
)
def test_full_window_basis_is_obstructed_exactly_when_reshuffle_is(
    seed, n, truncation, width, cross, slack, alpha, fresh
):
    from helpers import random_whitehead_system

    ws = random_whitehead_system(
        random.Random(seed), n=n, r=1, truncation=truncation, width=width, cross_level_atoms=cross, pool_slack=slack
    )
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stderr(io.StringIO()) as err:
        path = write(Path(tmp), "ws.json", system_to_doc(ws))
        _assert_basis_obstructed_as_reshuffle(*_reshuffle_and_full_window_basis(path, ws, alpha, fresh))
    assert err.getvalue() == ""


_GOLDEN_INPUTS = Path(__file__).resolve().parent / "golden" / "inputs"


@pytest.mark.parametrize("kind", ("tree", "disjoint"))
def test_a_transform_keeps_a_free_golden_family_free(tmp_path, kind):
    # both kinds only split atoms, and a transversal's distinct atoms map to
    # distinct new atoms, so a family `check-free` certifies stays free; the
    # converse fails: `tree` can make a non-free family free
    from helpers import run_dispatch

    free = []
    with contextlib.redirect_stderr(io.StringIO()):
        for path in sorted(_GOLDEN_INPUTS.glob("*.json")):
            if run_dispatch(["check-free", str(path)])[0] != 0:
                continue
            free.append(path.name)
            code, out = run_dispatch(["transform", str(path), "--kind", kind])
            assert code == 0, path.name
            moved = write(tmp_path, path.name, json.loads(out)["document"])
            assert run_dispatch(["check-free", moved])[0] == 0, path.name
    assert {"free-family.json", "large-family.json", "ws-h2.json"} <= set(free)


_MALFORMED_WITNESS_INPUTS = [
    # (system fields to replace, coloring values)
    pytest.param({"q": {}}, [3, 1], id="q-empty"),
    pytest.param({"d": {}}, [3, 1], id="d-empty"),
    pytest.param({"q": {"0": [2, True]}}, [3, 1], id="q-bool"),
    pytest.param({"q": {"0": ["2", 2]}}, [3, 1], id="q-string"),
    pytest.param({"q": [[2, 2]]}, [3, 1], id="q-not-object"),
    pytest.param({"q": {"0": [2]}}, [3, 1], id="q-short"),
    pytest.param({"r": 1, "J": 5}, [3, 1], id="d-narrow"),
    pytest.param({"phi": {"0": [["x0", "x1"]]}}, [3, 1], id="phi-final-list"),
    pytest.param({"nodes": 3}, [3, 1], id="nodes-int"),
    pytest.param({"strong": 5}, [3, 1], id="strong-int"),
    pytest.param({"strong": {"order": "0", "alpha": -1, "theta_fresh": 1}}, [3, 1], id="strong-order-string"),
    pytest.param({}, [3, None], id="color-null"),
    pytest.param({}, [True, 1], id="color-bool"),
]


@pytest.mark.parametrize("changes,colors", _MALFORMED_WITNESS_INPUTS)
def test_malformed_witness_inputs_exit_2(tmp_path, capsys, changes, colors):
    from helpers import run_dispatch

    path = write(tmp_path, "ws.json", {**witness_doc(), **changes})
    c_path = write(tmp_path, "c.json", {"schema": "lamsys/1", "c": {"0": colors}})
    argvs = [["solve-witness", "--system", path, "--c", c_path]]
    if changes:  # basis reads no coloring
        argvs.append(["basis", "--system", path, "--alpha", "-1", "--beta", "1"])
    for argv in argvs:
        code, out = run_dispatch(argv)
        err = capsys.readouterr().err
        assert (code, out) == (2, "")
        assert "Traceback" not in err and err.count("\n") == 1 and err.startswith("error: ")


_MALFORMED_FAMILY_INPUTS = [
    # (top-level fields to replace, phi fields to replace)
    pytest.param({"nodes": 3}, {}, id="nodes-int"),
    pytest.param({"nodes": "0"}, {}, id="nodes-string"),
    pytest.param({"nodes": ["", 0]}, {}, id="node-int"),
    pytest.param({"B": [["a"]]}, {}, id="B-not-object"),
    pytest.param({"B": {"": [], "0": 7, "1": ["b", "c"]}}, {}, id="B-value-int"),
    pytest.param({"B": {"": [], "0": "ab", "1": ["b", "c"]}}, {}, id="B-value-string"),
    pytest.param({"B": {"": [], "0": ["a", True, "b", "c"], "1": ["a", "b", "c"]}}, {}, id="B-value-bool"),
    pytest.param({"phi": [["a", "b"]]}, {}, id="phi-not-object"),
    pytest.param({}, {"0": [["a", "b"]]}, id="phi-final-list"),
    pytest.param({}, {"0": {"1": 5}}, id="phi-slice-int"),
    pytest.param({}, {"0": {"1": {"a": 1}}}, id="phi-slice-object"),
    pytest.param({}, {"0": {"1": ["a", True]}}, id="phi-slice-bool"),
    pytest.param({"largeness": ["half"]}, {}, id="largeness-list"),
]


@pytest.mark.parametrize("changes,phi_changes", _MALFORMED_FAMILY_INPUTS)
def test_malformed_family_inputs_exit_2(tmp_path, capsys, changes, phi_changes):
    from helpers import run_dispatch

    doc = family_doc({0: ["a", "b"], 1: ["b", "c"]})
    doc.update(changes)
    if phi_changes:
        doc["phi"] = {**doc["phi"], **phi_changes}
    path = write(tmp_path, "fam.json", doc)
    for argv in (["validate", path, "--structure"], ["check-free", path], ["reshuffle", path], ["transform", path, "--kind", "tree"]):
        code, out = run_dispatch(argv)
        err = capsys.readouterr().err
        assert (code, out) == (2, "")
        assert "Traceback" not in err and err.count("\n") == 1 and err.startswith("error: ")


_MALFORMED_LADDER_INPUTS = [
    # (top-level fields to replace, fields of level "40" to replace, start of the message)
    pytest.param({"levels": [{"ladder": [3], "colors": [1], "g": ["a0"], "primes": [11]}]}, None, "levels:", id="levels-list"),
    pytest.param({"levels": {"40": 3}}, None, "levels '40':", id="level-int"),
    pytest.param({"levels": {"40": ["ladder", "colors", "g"]}}, None, "levels '40':", id="level-list"),
    pytest.param({}, {"g": [0, 1, 2]}, "levels '40' 'g':", id="g-ints"),
    pytest.param({}, {"g": "abc"}, "levels '40' 'g':", id="g-string"),
    pytest.param({"subcase": 1}, {}, "subcase:", id="subcase-int"),
    pytest.param({"subcase": ["i"]}, {}, "subcase:", id="subcase-list"),
]


@pytest.mark.parametrize("changes,level_changes,message", _MALFORMED_LADDER_INPUTS)
def test_malformed_ladder_inputs_exit_2(tmp_path, capsys, changes, level_changes, message):
    from helpers import run_dispatch

    level = {"ladder": [3, 8, 15], "colors": [1, 0, 1], "g": ["a0", "a1", "a2"], "primes": [31, 37, 41]}
    inst = {"schema": "lamsys/1", "subcase": "i", "r": 0, "levels": {"40": {**level, **(level_changes or {})}}}
    inst.update(changes)
    code, out = run_dispatch(["unif-sim", "--instance", write(tmp_path, "inst.json", inst)])
    err = capsys.readouterr().err
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and err.startswith(f"error: {message} expected ")


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(["--r", "1", "--mu", "[1.7]"], id="float"),
        pytest.param(["--r", "1", "--mu", "[true]"], id="bool"),
        pytest.param(["--r", "1", "--mu", '["1"]'], id="string"),
        pytest.param(["--r", "1", "--mu", '{"0": 1}'], id="object"),
        pytest.param(["--r", "1", "--i", "1", "--mu", "[3]"], id="power-row-int"),
        pytest.param(["--r", "1", "--i", "1", "--mu", "[[1.0, 0, 0, 0, 0]]"], id="power-row-float"),
    ],
)
def test_unif_table_mu_takes_only_integers(capsys, argv):
    from helpers import run_dispatch

    code, out = run_dispatch(["unif-table", "--p", "11"] + argv)
    err = capsys.readouterr().err
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and err.startswith("error: --mu: expected a list of integers, got ")



def test_python_m_lamsys_runs_the_cli():
    argv = ["unif-table", "--p", "11", "--r", "0"]
    proc = subprocess.run(
        [sys.executable, "-m", "lamsys", *argv],
        env=dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src")),
        capture_output=True,
        text=True,
        timeout=60,
    )
    from helpers import run_dispatch

    assert (proc.returncode, proc.stdout) == run_dispatch(argv)


def test_infeasible_solves_exit_3(tmp_path, capsys, monkeypatch):
    # W c = -s and the witness equations always solve, so an answer that says otherwise is at fault
    from lamsys import uniformization, whitehead

    # a lattice basis that skips every index-p step does not lift into the kernel
    def identity(forms, size):
        return [{k: 1} for k in range(size)]

    monkeypatch.setattr(uniformization, "_lattice_basis", identity)
    # the levels share the label a0, so its rows stay in the core that reaches the lattice solve
    inst = {
        "schema": "lamsys/1",
        "subcase": "i",
        "r": 0,
        "levels": {
            "40": {"ladder": [3, 8], "colors": [1, 0], "g": ["a0", "a1"], "primes": [31, 37]},
            "50": {"ladder": [4, 9], "colors": [1, 1], "g": ["a0", "b1"], "primes": [31, 41]},
        },
    }
    path = write(tmp_path, "inst.json", inst)
    code, out, err = run(capsys, ["unif-sim", "--instance", path])
    assert (code, out) == (3, "")
    assert err == "internal error: lifted lattice basis row 0 is not in the kernel of the ladder core\n"
    monkeypatch.setattr(whitehead, "verify_witness", lambda ws, c, w: (False, ((0,), 1)))
    path = write(tmp_path, "ws.json", witness_doc())
    c_path = write(tmp_path, "c.json", {"schema": "lamsys/1", "c": {"0": [3, -1]}})
    code, out, err = run(capsys, ["solve-witness", "--system", path, "--c", c_path])
    assert (code, out) == (3, "")
    assert err == "internal error: back-substituted witness fails the witness equation at ((0,), 1)\n"


def test_certificate_error_exits_3(tmp_path, capsys, monkeypatch):
    from lamsys import abelian, freeness

    # row 0 is 2 z_1 - z_0 - x_0 on the columns x_0, x_1, z_0, ..., so its pivot 2 on z_1 is no unit
    monkeypatch.setattr(abelian, "_unit_pivots", lambda rows, width: [(0, 3)])
    path = write(tmp_path, "ws.json", witness_doc())
    code, out, err = run(capsys, ["build-G", "--system", path])
    assert (code, out) == (3, "")
    assert err == "internal error: pivot (0, 3) is not a unit on a row and a column left\n"
    monkeypatch.setattr(freeness.Transversal, "verify", lambda self, sets: False)
    path = write(tmp_path, "fam.json", family_doc({0: ["a", "b"], 1: ["b", "c"]}))
    code, out, err = run(capsys, ["check-free", path])
    assert (code, out) == (3, "")
    assert err == "internal error: transversal fails its own check\n"


# `basis` with `invariant_factors` giving the factor 2, which no quotient presentation has
_NONUNIT_BASIS = (
    "import sys\n"
    "from lamsys import cli, whitehead\n"
    "whitehead.invariant_factors = lambda p: (1, 2)\n"
    "sys.exit(cli.dispatch(sys.argv[1:]))\n"
)


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimized"])
def test_basis_with_a_nonunit_factor_exits_3(tmp_path, flags):
    # the check is an `if`, not an `assert`, so it holds under python -O too
    path = write(tmp_path, "ws.json", witness_doc())
    proc = subprocess.run(
        [sys.executable, *flags, "-c", _NONUNIT_BASIS, "basis", "--system", path, "--alpha", "-1", "--beta", "1"],
        env=dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src")),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert (proc.returncode, proc.stdout) == (3, "")
    assert proc.stderr == "internal error: quotient presentation has invariant factor 2, not 1\n"


def test_a_payload_json_refuses_exits_3_with_nothing_on_stdout(tmp_path, capsys, monkeypatch):
    # the document is rendered before a byte is written, inside the handler that reports internal errors
    monkeypatch.setattr(cli, "cmd_validate", lambda args: ({"violations": {"a set"}}, 0))
    cli.build_parser.cache_clear()  # the parser binds each command when it is built
    try:
        code, out, err = run(capsys, ["validate", write(tmp_path, "sys.json", minimal_doc())])
    finally:
        cli.build_parser.cache_clear()
    assert (code, out) == (3, "")
    assert err == "internal error: TypeError: Object of type set is not JSON serializable\n"


def test_other_exceptions_exit_3_without_traceback(tmp_path, capsys, monkeypatch):
    from lamsys import cli

    def lost(*args):
        raise KeyError("z:0:7")

    monkeypatch.setattr(cli, "solve_witness", lost)
    path = write(tmp_path, "ws.json", witness_doc())
    c_path = write(tmp_path, "c.json", {"schema": "lamsys/1", "c": {"0": [3, -1]}})
    code, out, err = run(capsys, ["solve-witness", "--system", path, "--c", c_path])
    assert (code, out) == (3, "")
    assert err == "internal error: KeyError: 'z:0:7'\n"


@pytest.mark.parametrize("column", [-1, 1000])
def test_a_relation_row_outside_the_generators_exits_3_before_output(column, capsys, monkeypatch):
    # the report's Presentation checks its rows where it is built, inside the command
    from lamsys import cli
    from lamsys.record import replace
    from lamsys.uniformization import simulate

    def corrupted(inst):
        report = simulate(inst)
        rows = report.chain.relations
        chain = replace(report.chain, relations=(*rows[:-1], {**rows[-1], column: 7}))
        return replace(report, chain=chain)

    monkeypatch.setattr(cli, "simulate", corrupted)
    monkeypatch.chdir(Path(__file__).resolve().parent / "golden")
    code, out, err = run(capsys, ["unif-sim", "--instance", "inputs/ladder-independent.json"])
    assert (code, out) == (3, "")
    assert err.startswith("internal error: DimensionError: relation row ") and err.count("\n") == 1
    assert f"stores column {column}, outside the " in err


def test_shape_faults_exit_3_not_2(tmp_path, capsys, monkeypatch):
    # the CLI builds every matrix and name list itself, so a shape fault is the program's, not the input's
    from lamsys import cli
    from lamsys.abelian import Presentation

    builders = {
        "relation row 1 stores column 2, outside the 2 generators": lambda spec: Presentation(
            ("x", "y"), ({0: 1}, {0: 1, 2: 2})
        ),
        "relation row 0 stores a zero at column 1": lambda spec: Presentation(("x", "y"), ({0: 1, 1: 0},)),
        "duplicate generator names": lambda spec: Presentation(("x", "x"), ({0: 1},)),
    }
    spec = {"schema": "lamsys/1", "r": 0, "q": [2, 2, 2, 2], "d": [[], [], [], []], "J": 5}
    path = write(tmp_path, "spec.json", spec)
    for message, builder in builders.items():
        monkeypatch.setattr(cli, "build_chain_group", builder)
        code, out, err = run(capsys, ["build-group", "--spec", path])
        assert (code, out) == (3, "")
        assert err == f"internal error: DimensionError: {message}\n"


# every subcommand input that names a file, with FILE in place of that file
_FILE_INPUTS = [
    pytest.param(["validate", "FILE"], id="validate"),
    pytest.param(["check-free", "FILE"], id="check-free"),
    pytest.param(["reshuffle", "FILE"], id="reshuffle"),
    pytest.param(["transform", "FILE", "--kind", "tree"], id="transform"),
    pytest.param(["build-group", "--spec", "FILE"], id="build-group"),
    pytest.param(["build-G", "--system", "FILE"], id="build-G"),
    pytest.param(["solve-witness", "--system", "FILE", "--c", "C"], id="solve-witness-system"),
    pytest.param(["solve-witness", "--system", "WS", "--c", "FILE"], id="solve-witness-c"),
    pytest.param(["basis", "--system", "FILE", "--alpha", "-1", "--beta", "1"], id="basis"),
    pytest.param(["unif-sim", "--instance", "FILE"], id="unif-sim"),
]


@pytest.mark.parametrize("argv", _FILE_INPUTS)
@pytest.mark.parametrize("doc", [5, None, True, "x", [1]], ids=["int", "null", "bool", "string", "list"])
def test_non_object_documents_exit_2(tmp_path, capsys, argv, doc):
    from helpers import run_dispatch

    paths = {
        "FILE": write(tmp_path, "doc.json", doc),
        "WS": write(tmp_path, "ws.json", witness_doc()),
        "C": write(tmp_path, "c.json", {"schema": "lamsys/1", "c": {"0": [3, -1]}}),
    }
    code, out = run_dispatch([paths.get(a, a) for a in argv])
    err = capsys.readouterr().err
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and err.startswith("error: ") and "expected a JSON object" in err


@pytest.mark.parametrize("argv", _FILE_INPUTS)
def test_deeply_nested_json_exits_2(tmp_path, capsys, argv):
    # json.load recurses once per array, and RecursionError is no ValueError
    from helpers import run_dispatch

    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    paths = {
        "FILE": str(deep),
        "WS": write(tmp_path, "ws.json", witness_doc()),
        "C": write(tmp_path, "c.json", {"schema": "lamsys/1", "c": {"0": [3, -1]}}),
    }
    code, out = run_dispatch([paths.get(a, a) for a in argv])
    err = capsys.readouterr().err
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and err.startswith(f"error: {deep}: JSON nested too deeply")


def test_a_directory_as_input_file_exits_2(tmp_path, capsys):
    from helpers import run_dispatch

    code, out = run_dispatch(["check-free", str(tmp_path)])
    err = capsys.readouterr().err
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and err.startswith(f"error: {tmp_path}: cannot read")


def test_deeply_nested_mu_exits_2(capsys):
    # --mu is parsed by the reader of input files, with its RecursionError handler
    from helpers import run_dispatch

    code, out = run_dispatch(["unif-table", "--p", "7", "--r", "1", "--mu", "[" * 20_000])
    err = capsys.readouterr().err
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and err.startswith("error: --mu: JSON nested too deeply")


def test_mu_past_the_str_digit_limit_is_read(capsys):
    # a 5,001-digit --mu once met Python's 4,300-digit limit on int parsing and exited 2 with its message
    from helpers import run_dispatch

    mu = 10 ** 5000
    code, out = run_dispatch(["unif-table", "--p", "7", "--r", "1", "--mu", f"[{'1' + '0' * 5000}]"])
    assert (code, capsys.readouterr().err) == (0, "")
    with jsonio.digit_limit(0):
        assert json.loads(out)["table"]["mu"] == [mu]


def test_a_malformed_value_past_the_str_digit_limit_is_described_by_its_digits(tmp_path, capsys):
    # the message once formatted the value itself, and Python's int-to-str limit replaced it with its own
    wide = "1" + "0" * 5000
    code, out, err = run(capsys, ["unif-table", "--p", "7", "--r", "1", "--mu", f"[[{wide}], [-{wide}, 5]]"])
    assert (code, out) == (2, "")
    assert err == "error: --mu: expected a list of integers, got [[<5,001 digits>], [-<5,001 digits>, 5]]\n"
    path = tmp_path / "schema.json"
    path.write_text(f'{{"schema": {wide}}}')
    assert run(capsys, ["validate", str(path)]) == (2, "", "error: system document: schema must be 'lamsys/1', got <5,001 digits>\n")


def test_a_file_that_is_not_utf8_exits_2_naming_it(tmp_path, capsys):
    path = tmp_path / "bom.json"
    path.write_bytes(b"\xff\xfe{")
    code, out, err = run(capsys, ["validate", str(path)])
    assert (code, out) == (2, "")
    reason = "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"
    assert err == f"error: {path}: not UTF-8 text ({reason})\n"


def test_an_input_integer_past_the_digit_bound_exits_2_at_once(tmp_path, capsys):
    # reading a decimal int is quadratic in its digits, so the reader refuses one past its bound before reading it
    from helpers import run_dispatch
    from lamsys.cli import MAX_INPUT_DIGITS

    path = tmp_path / "c.json"
    path.write_text('{"schema": "lamsys/1", "c": {"0": [1' + "0" * MAX_INPUT_DIGITS + "]}}")
    start = time.perf_counter()
    code, out = run_dispatch(["solve-witness", "--system", write(tmp_path, "ws.json", witness_doc()), "--c", str(path)])
    assert time.perf_counter() - start < 1
    err = capsys.readouterr().err
    assert (code, out) == (2, "")
    assert err == f"error: {path}: an integer of more than {MAX_INPUT_DIGITS:,} digits, the bound of this reader\n"


def test_a_residue_table_past_the_piece_bound_exits_2_in_bounded_memory():
    # Y at p = 2^127 - 1 and mu = 10^11 is 2t + 1 = 3,611,622,601 segments, and
    # building them once ran out of memory (exit 3, MemoryError, under 512 MiB)
    from lamsys.uniformization import MAX_PIECES

    def limit_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))

    argv = ["unif-table", "--p", str(2 ** 127 - 1), "--r", "1", "--mu", "[100000000000]"]
    proc = run_cli_process(argv, preexec_fn=limit_address_space)
    assert (proc.returncode, proc.stdout) == (2, ""), proc.stderr
    assert proc.stderr == f"error: the residue table needs 3,611,622,601 interval pieces, over the bound of {MAX_PIECES:,}\n"


def _ways_to_end(tmp_path, monkeypatch):
    """(argv, exit code or SystemExit) for each way dispatch can end."""
    from lamsys import cli

    def lost(*args):
        raise KeyError("z:0:7")

    monkeypatch.setattr(cli, "solve_witness", lost)
    bad = minimal_doc()
    bad["level"][""] = 0
    wrong_schema = {**minimal_doc(), "schema": "other/9"}
    ws = write(tmp_path, "ws.json", witness_doc())
    c = write(tmp_path, "c.json", {"schema": "lamsys/1", "c": {"0": [3, -1]}})
    return [
        (["validate", write(tmp_path, "ok.json", minimal_doc())], 0),
        (["validate", write(tmp_path, "bad.json", bad)], 1),
        (["validate", write(tmp_path, "schema.json", wrong_schema)], 2),
        (["solve-witness", "--system", ws, "--c", c], 3),
        (["validate", "nope.json", "--bogus"], SystemExit),
    ]


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
def test_dispatch_leaves_the_collector_as_it_found_it(tmp_path, capsys, monkeypatch, enabled):
    from helpers import collector
    from lamsys import cli

    during = []
    run = cli._dispatch

    def spy(argv):
        during.append(gc.isenabled())
        return run(argv)

    monkeypatch.setattr(cli, "_dispatch", spy)
    for argv, expected in _ways_to_end(tmp_path, monkeypatch):
        with collector(enabled):
            if expected is SystemExit:
                with pytest.raises(SystemExit):
                    dispatch(argv)
            else:
                assert dispatch(argv) == expected
            assert gc.isenabled() is enabled, argv
    assert during == [False] * 5
    capsys.readouterr()


def test_overlapping_pauses_restore_the_collector_once():
    # two threads' operations that overlap: the first to end must not
    # re-enable the collector under the second, nor the second disable it for good
    from helpers import collector
    from lamsys.cli import _collector_paused

    with collector(True):
        first, second = _collector_paused(), _collector_paused()
        first.__enter__()
        second.__enter__()
        first.__exit__(None, None, None)
        assert not gc.isenabled()
        second.__exit__(None, None, None)
        assert gc.isenabled()


def test_concurrent_pauses_keep_the_collector_off_inside_each():
    from helpers import collector
    from lamsys.cli import _collector_paused

    enabled_inside = []
    start = threading.Barrier(8)

    def work():
        start.wait(timeout=60)
        for _ in range(2000):
            with _collector_paused():
                time.sleep(0)  # lets another thread in, to end its block under this one
                if gc.isenabled():
                    enabled_inside.append(True)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with collector(True):
            threads = [threading.Thread(target=work) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
            assert gc.isenabled()
    finally:
        sys.setswitchinterval(interval)
    assert enabled_inside == []
