"""Command-line entry point: every operation behind stable JSON on stdout.

Exit codes: 0 success or pass, 1 checked failure carrying a certificate,
2 malformed input or usage (a ValueError), 3 internal error: a computed
result failed its own exact re-verification (CertificateError), or any
other exception, reported as one `internal error: <type>: <message>` line
without a traceback.  Diagnostics go to stderr
only; stdout carries a single JSON document embedding the manifest that
produced it.  Identical inputs produce identical bytes.

`dispatch` runs each operation with CPython's cyclic garbage collector
paused (`_collector_paused`).  An operation makes no reference cycles, so
reference counting frees all it allocates, and the collector's passes over
the many small objects of a large document would find nothing.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
import threading
from contextlib import contextmanager
from functools import cache
from itertools import chain

from . import jsonio
from .abelian import (
    CertificateError,
    build_chain_group,
    divisibility_evidence,
    invariant_factors,
)
from .core import (
    MAX_ATOM_DEPTH,
    atom_depth,
    atom_ranks,
    atom_to_jsonable,
    check_structure,
    node_key,
    transform_disjoint,
    transform_tree,
    validate_family,
    validate_system,
)
from .freeness import (
    HallCertificate,
    ReshufflingOrder,
    find_reshuffling,
    find_transversal,
    k_free_check,
)
from .jsonio import InputError, SCHEMA, dump, int_rows, ints
from .uniformization import (
    power_table,
    prime_table,
    simulate,
    threshold_exponents,
)
from .whitehead import (
    build_witness_group,
    enumerate_basis,
    shape_violation,
    solve_witness,
    validate_whitehead,
    variant_filter,
    verify_basis,
)

MAX_INPUT_DIGITS = 100_000  # reading an int is quadratic in its digits before CPython 3.12: 0.1 s at the bound


def _load(source: str, text: str | None = None):
    """The JSON value of the file at path `source`, or of `text` given as option `source`.

    Unreadable files, text that is not JSON or nests past json's recursion
    limit, and integers of more than MAX_INPUT_DIGITS digits are InputError.
    """
    try:
        if text is None:
            with open(source) as fh:
                text = fh.read()
    except OSError as exc:
        raise InputError(f"{source}: cannot read ({exc.strerror or exc})")
    try:
        try:
            return json.loads(text)
        except ValueError as exc:  # an integer past Python's limit: read again, up to the bound
            if isinstance(exc, json.JSONDecodeError):
                raise
            with jsonio.digit_limit(MAX_INPUT_DIGITS):
                return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"{source}: not valid JSON ({exc})")
    except RecursionError as exc:
        raise InputError(f"{source}: JSON nested too deeply ({exc})")
    except ValueError:  # the digit limit
        raise InputError(f"{source}: an integer of more than {MAX_INPUT_DIGITS:,} digits, the bound of this reader")


# the options that name input files; every other parsed option is a parameter
_INPUTS = frozenset({"file", "spec", "system", "c", "instance"})


def _manifest(args: argparse.Namespace) -> dict:
    """What produced an output: the subcommand, its input paths and every other option it was given."""
    inputs, params = {}, {}
    for key, value in vars(args).items():
        if key not in ("subcommand", "func"):
            (inputs if key in _INPUTS else params)[key] = value
    return {
        "schema": SCHEMA,
        "subcommand": args.subcommand,
        "inputs": inputs,
        "params": params,
        "seed": None,
    }


def cmd_validate(args) -> tuple[dict, int]:
    doc = _load(args.file)
    # parse once, as the richest kind the keys name; every parser reads the
    # skeleton first, so a skeleton error is still the one reported first
    fam = None
    keys = doc if isinstance(doc, dict) else {}  # system_from_doc rejects a non-object
    if "r" in keys:
        ws = jsonio.whitehead_from_doc(doc)
        sys_, fam = ws.family.system, ws.family
        violations = validate_whitehead(ws)
    elif "phi" in keys:
        fam = jsonio.family_from_doc(doc)
        sys_ = fam.system
        violations = validate_system(sys_) + validate_family(fam)
    else:
        sys_ = jsonio.system_from_doc(doc)
        violations = validate_system(sys_)
    payload: dict = {"violations": [v.to_jsonable() for v in violations], "largeness": sys_.largeness}
    if args.structure and fam is not None:
        rep = check_structure(fam)
        payload["structure"] = {
            "ok": rep.ok,
            "sibling_overlap": list(rep.sibling_overlap),
            "slice_alignment": list(rep.slice_alignment),
            "enumeration_tree": list(rep.enumeration_tree),
            "declared_only": list(rep.declared_only),
        }
    return payload, 0 if not violations else 1


def cmd_check_free(args) -> tuple[dict, int]:
    fam = jsonio.family_from_doc(_load(args.file))
    finals = list(fam.finals)
    sets = [fam.s(z) for z in finals]
    payload: dict = {
        "finals": [node_key(z) for z in finals],
        "remark": "finite-scale result; says nothing about non-freeness of families attached to infinite systems",
    }
    if args.k is not None:
        res = k_free_check(sets, args.k)
        if res == "pass":
            payload["result"] = "pass"
            payload["k"] = args.k
            return payload, 0
        payload["result"] = "fail"
        payload["k"] = args.k
        payload["certificate"] = jsonio.certificate_to_doc(res)
        return payload, 1
    res = find_transversal(sets)
    payload["certificate"] = jsonio.certificate_to_doc(res)
    return payload, 0 if not isinstance(res, HallCertificate) else 1


def cmd_reshuffle(args) -> tuple[dict, int]:
    fam = jsonio.family_from_doc(_load(args.file))
    res = find_reshuffling(fam, alpha=args.alpha, theta_fresh=args.fresh)
    payload = {"status": res.status, "nodes_visited": res.nodes_visited, "theta_fresh": args.fresh}
    if res.order is not None:
        payload["certificate"] = jsonio.certificate_to_doc(res.order)
        return payload, 0
    payload["certificate"] = jsonio.certificate_to_doc(res.obstruction)
    return payload, 1


def _presentation_payload(pres) -> dict:
    factors = invariant_factors(pres)
    return {
        "presentation": jsonio.presentation_to_doc(pres),
        "invariant_factors": list(factors),
        "free": all(d == 1 for d in factors),
        # one factor per independent relation
        "rank": len(pres.generators) - len(factors),
    }


def cmd_build_group(args) -> tuple[dict, int]:
    spec = jsonio.chain_spec_from_doc(_load(args.spec))
    payload = _presentation_payload(build_chain_group(spec))
    if args.m_max is not None:
        payload["divisibility"] = {
            "steps": [
                {
                    "m": s.m,
                    "product": s.product,
                    "witness_index": s.witness_index,
                    "relation_coefficients": list(s.combination),
                    "head_coefficients": list(s.head_coefficients),
                }
                for s in divisibility_evidence(spec, args.m_max)
            ],
        }
    return payload, 0


def cmd_build_g(args) -> tuple[dict, int]:
    ws = jsonio.whitehead_from_doc(_load(args.system))
    if args.variant:
        allowed = frozenset(int(x) for x in args.variant.split(","))
        ws = variant_filter(ws, allowed)
    violations = validate_whitehead(ws)
    if violations:
        return {"violations": [v.to_jsonable() for v in violations]}, 1
    return _presentation_payload(build_witness_group(ws)), 0


def _indexable_system(path: str):
    """The witness system at path; InputError if a relation row would index past its data.

    Only the shape rules run (`shape_violation`); `validate` reports the rest.
    """
    ws = jsonio.whitehead_from_doc(_load(path))
    v = shape_violation(ws)
    if v is not None:
        where = "" if v.node is None else f" at final {node_key(v.node)!r}"
        raise InputError(f"{v.clause}{where}: {v.detail}")
    return ws


def cmd_solve_witness(args) -> tuple[dict, int]:
    ws = _indexable_system(args.system)
    c = jsonio.coloring_from_doc(_load(args.c))
    for z in ws.finals():
        if z not in c or len(c[z]) < ws.m_range:
            raise InputError(f"coloring must supply {ws.m_range} values for final {node_key(z)!r}")
    return {"status": "witness", "witness": jsonio.witness_to_doc(solve_witness(ws, c))}, 0


def cmd_basis(args) -> tuple[dict, int]:
    ws = _indexable_system(args.system)
    window = [z for z in ws.finals() if z[0] < args.beta]
    attached = ws.strong_order
    if (
        attached is not None
        and attached.alpha == args.alpha
        and set(attached.order) == set(window)
    ):
        order = attached
    elif window:
        res = find_reshuffling(ws.family, finals=window, alpha=args.alpha, theta_fresh=args.fresh)
        if res.order is None:
            return {
                "status": res.status,
                "detail": "no reshuffling order exists for the window",
                "certificate": jsonio.certificate_to_doc(res.obstruction),
            }, 1
        order = res.order
    else:
        order = ReshufflingOrder((), args.alpha, args.fresh)
    cand = enumerate_basis(ws, order, args.alpha, args.beta)
    report = verify_basis(ws, cand, args.alpha, args.beta)
    payload = {
        "order": jsonio.certificate_to_doc(order),
        "basis": jsonio.basis_to_doc(cand),
        "verification": {
            "ok": report.ok,
            "generated": report.generated,
            "count_matches": report.count_matches,
            "free_rank": report.free_rank,
            "candidate_size": report.candidate_size,
            "failing_generators": list(report.failing_generators),
        },
    }
    return payload, 0 if report.ok else 1


def cmd_unif_table(args) -> tuple[dict, int]:
    mu = _load("--mu", args.mu) if args.mu else []
    if args.i is None:
        flat = ints(mu, "--mu")
        if len(flat) != args.r:
            raise InputError(f"subcase needs {args.r} mu entries, got {len(flat)}")
        tab = prime_table(args.p, flat)
        return {"table": jsonio.table_to_doc(tab)}, 0
    rows = int_rows(mu, "--mu")
    if len(rows) != args.r:
        raise InputError(f"need {args.r} mu rows, got {len(rows)}")
    thresholds = threshold_exponents(args.p, args.r, args.i)
    tab = power_table(args.p, args.i, thresholds, rows)
    return {
        "thresholds": list(thresholds),
        "table": jsonio.table_to_doc(tab),
    }, 0


def cmd_unif_sim(args) -> tuple[dict, int]:
    inst = jsonio.instance_from_doc(_load(args.instance))
    report = simulate(inst)
    return {"report": jsonio.simulation_to_doc(report)}, 0 if report.ok else 1


def cmd_transform(args) -> tuple[dict, int]:
    fam = jsonio.family_from_doc(_load(args.file))
    # the output lists every node's level; `validate` reports a missing one as a violation
    unleveled = sorted(fam.system.nodes.difference(fam.system.level))
    if unleveled:
        raise InputError(f"level-missing at node {node_key(unleveled[0])!r}: no level assigned")
    # both kinds wrap every atom in one more list, and the output must parse again
    if atom_depth(chain(*fam.system.B.values(), *fam.phi.values())) >= MAX_ATOM_DEPTH:
        raise InputError(f"atom nests lists {MAX_ATOM_DEPTH} deep, so transform would write it past the bound")
    transform = transform_disjoint if args.kind == "disjoint" else transform_tree
    res = transform(fam)
    renaming = [[atom_to_jsonable(new), atom_to_jsonable(res.old_of_new[new])] for new in atom_ranks(res.old_of_new)]
    return {
        "document": jsonio.system_to_doc(res.family),
        "renaming": renaming,
    }, 0


@cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and reused: building it costs far more than a parse."""
    parser = argparse.ArgumentParser(
        prog="lamsys",
        description="finite-scale systems, freeness certificates, witness equations, uniformization tables",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("validate", help="check skeleton/family/system invariants")
    p.add_argument("file")
    p.add_argument("--structure", action="store_true", help="also run the structure checks")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("check-free", help="transversal or Hall certificate for the family")
    p.add_argument("file")
    p.add_argument("--k", type=int, default=None, help="check subfamilies of size below k")
    p.set_defaults(func=cmd_check_free)

    p = sub.add_parser("reshuffle", help="search for a reshuffling order")
    p.add_argument("file")
    p.add_argument("--alpha", type=int, default=-1)
    p.add_argument("--fresh", type=int, default=1)
    p.set_defaults(func=cmd_reshuffle)

    p = sub.add_parser("build-group", help="chain-group presentation and diagnostics")
    p.add_argument("--spec", required=True)
    p.add_argument("--m-max", type=int, default=None, help="divisibility evidence depth")
    p.set_defaults(func=cmd_build_group)

    p = sub.add_parser("build-G", help="witness-group presentation")
    p.add_argument("--system", required=True)
    p.add_argument("--variant", default=None, help="keep only finals whose first index is listed")
    p.set_defaults(func=cmd_build_g)

    p = sub.add_parser("solve-witness", help="solve the witness equations for a coloring")
    p.add_argument("--system", required=True)
    p.add_argument("--c", required=True)
    p.set_defaults(func=cmd_solve_witness)

    p = sub.add_parser("basis", help="enumerate and verify a segment-quotient basis")
    p.add_argument("--system", required=True)
    p.add_argument("--alpha", type=int, required=True)
    p.add_argument("--beta", type=int, required=True)
    p.add_argument("--fresh", type=int, default=1)
    p.set_defaults(func=cmd_basis)

    p = sub.add_parser("unif-table", help="residue separation table")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--r", type=int, default=0)
    p.add_argument("--i", type=int, default=None, help="power block index (omit for the prime table)")
    p.add_argument("--mu", default=None, help="JSON mu data")
    p.set_defaults(func=cmd_unif_table)

    p = sub.add_parser("unif-sim", help="run the chain simulation on an instance")
    p.add_argument("--instance", required=True)
    p.set_defaults(func=cmd_unif_sim)

    p = sub.add_parser("transform", help="apply a normalizing transform to a family document")
    p.add_argument("file")
    p.add_argument("--kind", choices=("disjoint", "tree"), required=True)
    p.set_defaults(func=cmd_transform)

    return parser


_GC_LOCK = threading.Lock()
_gc_pauses = 0  # operations running under _collector_paused, in all threads
_gc_was_enabled = False  # the collector's state when the first of them began


@contextmanager
def _collector_paused():
    """Run the block with the cyclic garbage collector disabled, then restore it.

    The collector's switch is process-wide, so overlapping blocks (threads,
    or a nested dispatch) share one pause: the first to enter records
    whether it was enabled and the last to leave puts that state back.  A
    caller that disabled the collector itself finds it still disabled.
    """
    global _gc_pauses, _gc_was_enabled
    with _GC_LOCK:
        if not _gc_pauses:
            _gc_was_enabled = gc.isenabled()
            gc.disable()
        _gc_pauses += 1
    try:
        yield
    finally:
        with _GC_LOCK:
            _gc_pauses -= 1
            if not _gc_pauses and _gc_was_enabled:
                gc.enable()


def dispatch(argv) -> int:
    with _collector_paused():
        return _dispatch(argv)


def _dispatch(argv) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        try:
            payload, code = args.func(args)
        except ValueError as exc:  # InputError is a ValueError
            print(f"error: {exc}", file=sys.stderr)
            return 2
        # rendered before a byte is written, so a render fault leaves stdout empty
        text = dump({"manifest": _manifest(args), **payload})
    except CertificateError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # a fault of the program, not of the input
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    sys.stdout.write(text)
    return code


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
