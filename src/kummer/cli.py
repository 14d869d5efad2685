"""Command line: decide, split, and certify from JSON documents.

Exit codes: 0 success with a positive decision, 1 a negative decision
with a concrete witness in the output, 2 malformed or invalid input.
All output is a single JSON document on stdout with sorted keys, so a
repeated run is byte-identical; timing appears only under --timing.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path
from typing import Optional

from . import jsonio
from .errors import InputError, KummerError, NotExactError

# Each handler imports the layers it runs, so a verb loads only those. The
# parser needs the demo names before any handler runs; the tests check that
# this tuple is sorted(demos.DEMOS).
_DEMO_NAMES = ("chris", "counterexample", "direct-limit", "dual-lemma", "main-lemma")

__all__ = ["main"]


def _read_document(args) -> object:
    if args.input == "-":
        text = sys.stdin.read()
    else:
        path = Path(args.input)
        if not path.exists():
            raise InputError(f"input file not found: {args.input}")
        text = path.read_text()
    return jsonio.loads_checked(text)


def _maybe_witness(payload: dict, witness) -> dict:
    if witness is not None:
        payload["witness"] = jsonio.encode_element(witness)
    return payload


def _cmd_snf(args) -> tuple[dict, int]:
    from .matrices import smith_normal_form

    mat = jsonio.decode_matrix(_read_document(args), "$")
    dec = smith_normal_form(mat)
    return {
        "diagonal": [jsonio.encode_int(d) for d in dec.diagonal],
        "s": jsonio.encode_matrix(dec.S),
        "u": jsonio.encode_matrix(dec.U),
        "v": jsonio.encode_matrix(dec.V),
        "u_inv": jsonio.encode_matrix(dec.U_inv),
        "v_inv": jsonio.encode_matrix(dec.V_inv),
    }, 0


def _cmd_group(args) -> tuple[dict, int]:
    grp = jsonio.decode_group(_read_document(args), "$")
    return {
        "invariant_factors": [jsonio.encode_int(d)
                              for d in grp.invariant_factors],
        "free_rank": grp.free_rank,
        "order": jsonio.encode_int(grp.order),
        "exponent": jsonio.encode_int(grp.exponent),
    }, 0


def _cmd_seq(args) -> tuple[dict, int]:
    """seq-check and seq-split: exactness, then one run of the lift loop,
    which gives a section or the witness of the first cyclic generator of
    C with no same-order lift. The loop splits exactly the pure sequences,
    so seq-check's "pure" is its verdict, as ``is_pure`` reads it.
    """
    from .errors import PurityError
    from .sequences import check_exact, section_from_purity

    check = args.command == "seq-check"
    f, g = jsonio.decode_seq(_read_document(args), "$")
    payload = {"exact": True, "split": False}
    if check:
        payload["pure"] = False
    try:
        seq = check_exact(f, g)
    except NotExactError as exc:
        payload.update(exact=False, condition=exc.condition)
        return _maybe_witness(payload, exc.witness), 1
    try:
        section = section_from_purity(seq)
    except PurityError as exc:
        return _maybe_witness(payload, exc.element), 1
    if check:
        payload["pure"] = True
    payload.update(split=True, section=jsonio.encode_section(section))
    return payload, 0


def _cmd_tower_validate(args) -> tuple[dict, int]:
    from .towers import validate_tower

    tower = jsonio.decode_tower(_read_document(args))
    report = validate_tower(tower)
    payload = {
        "valid": report.valid,
        "levels": report.levels,
        "violations": [
            _maybe_witness({"level": v.level, "check": v.check,
                            "message": v.message}, v.witness)
            for v in report.violations
        ],
    }
    return payload, 0 if report.valid else 1


def _cmd_tower_split(args) -> tuple[dict, int]:
    from .towers import dual_tower_split, tower_split

    tower = jsonio.decode_tower(_read_document(args))
    section = tower_split(tower) if tower.upward else dual_tower_split(tower)
    return {"split": True, "level": tower.n,
            "section": jsonio.encode_section(section)}, 0


def _cmd_tower_generate(args) -> tuple[dict, int]:
    from .towers import sigma_kummer_tower

    if args.sigma is not None:
        doc = jsonio.loads_checked(args.sigma)
    else:
        doc = _read_document(args)
    model = jsonio.decode_sigma(doc)
    levels = jsonio.decode_count(args.n, "--n", 1)
    return jsonio.encode_tower(sigma_kummer_tower(model, levels)), 0


def _cmd_counterexample(args) -> tuple[dict, int]:
    from .demos import demo_counterexample

    p = jsonio.decode_prime(args.p if args.p is not None else 2, "--p")
    depth = jsonio.decode_count(args.depth, "--depth", 1, jsonio.MAX_DEPTH)
    ok, payload = demo_counterexample(p, depth)
    return payload, 0 if ok else 1


def _cmd_limit_split(args) -> tuple[dict, int]:
    from .colimits import (
        CaseTwoEvidence,
        counterexample_tower,
        direct_limit_split,
        divisible_tower,
        stabilizing_tower,
    )

    families = {
        "stabilizing": stabilizing_tower,
        "divisible": lambda p, n0: divisible_tower(p),
        "counterexample": lambda p, n0: counterexample_tower(p),
    }
    doc = jsonio._require_dict(_read_document(args), "$", ())
    family = jsonio.decode_choice(doc.get("family"), "$.family",
                                  tuple(sorted(families)))
    p = jsonio.decode_prime(doc.get("p", 2), "$.p")
    case = jsonio.decode_int(doc.get("case", 2), "$.case")
    level = jsonio.decode_count(doc.get("level", 2), "$.level", 1, jsonio.MAX_LEVEL)
    n0 = jsonio.decode_count(doc.get("n0", 2), "$.n0", 1)
    tower = families[family](p, n0)
    if case == 2:
        evidence = CaseTwoEvidence(level=level)
    elif case == 1:
        from .fixtures import divisible_case_one_evidence, doomed_divisible_evidence

        precision, path = ((args.precision, "--precision") if args.precision is not None
                           else (doc.get("precision"), "$.precision"))
        precision = (jsonio.decode_count(precision, path, 1)
                     if precision is not None else None)
        if family == "divisible":
            evidence = divisible_case_one_evidence(tower, level, precision)
        elif family == "counterexample":
            evidence = doomed_divisible_evidence(tower, level)
        else:
            raise InputError(
                f"$.case: no case-1 decomposition is known for the "
                f"{family} family")
    else:
        raise InputError("$.case: expected 1 or 2")
    result = direct_limit_split(tower, evidence)
    return {
        "family": family,
        "case": result.case,
        "level": result.level,
        "section": jsonio.encode_section(result.section),
        "notes": list(result.notes),
    }, 0


def _cmd_dual(args) -> tuple[dict, int]:
    from .sequences import check_exact, dualize_sequence, pontryagin_dual

    doc = jsonio._require_dict(_read_document(args), "$", ())
    kind = jsonio.decode_choice(doc.get("kind"), "$.kind",
                                ("group", "hom", "seq", "tower"))
    if kind == "group":
        grp = jsonio.decode_group(doc.get("value"), "$.value")
        return {"kind": "group",
                "value": jsonio.encode_group(pontryagin_dual(grp))}, 0
    if kind == "hom":
        hom = jsonio.decode_hom(doc.get("value"), "$.value")
        return {"kind": "hom",
                "value": jsonio.encode_hom(pontryagin_dual(hom))}, 0
    if kind == "seq":
        f, g = jsonio.decode_seq(doc.get("value"), "$.value")
        seq = check_exact(f, g)
        return {"kind": "seq",
                "value": jsonio.encode_seq(dualize_sequence(seq))}, 0
    from .towers import dual_tower

    tower = jsonio.decode_tower(doc.get("value"), "$.value")
    return {"kind": "tower",
            "value": jsonio.encode_tower(dual_tower(tower))}, 0


def _cmd_gmod_cohomology(args) -> tuple[dict, int]:
    from .cohomology import tate_cohomology

    module = jsonio.decode_gmodule(_read_document(args))
    tate = tate_cohomology(module)
    minus = [jsonio.encode_int(d)
             for d in tate.minus_one.group.invariant_factors]
    zero = [jsonio.encode_int(d) for d in tate.zero.group.invariant_factors]
    return {
        "minus_one": minus,
        "zero": zero,
        "one": minus,
        "two": zero,
        "trivial": tate.trivial,
    }, 0


def _cmd_gmod_split(args) -> tuple[dict, int]:
    from .cohomology import equivariant_section_exists
    from .sequences import section_exists

    seq = jsonio.decode_gmodule_seq(_read_document(args))
    section = equivariant_section_exists(seq)
    plain = section_exists(seq.sequence)
    payload = {"equivariant": section is not None,
               "plain": plain is not None}
    if section is not None:
        payload["section"] = jsonio.encode_matrix(section.hom.matrix)
    return payload, 0 if section is not None else 1


def _cmd_demo(args) -> tuple[dict, int]:
    from .demos import DEMOS

    if args.name == "counterexample":
        return _cmd_counterexample(args)
    kwargs = {}
    if args.name in ("main-lemma", "dual-lemma") and args.seed is not None:
        kwargs["seed"] = args.seed
    if args.name in ("direct-limit", "chris") and args.p is not None:
        kwargs["p"] = jsonio.decode_prime(
            args.p, "--p", jsonio.MAX_CHRIS_P if args.name == "chris" else None)
    ok, report = DEMOS[args.name](**kwargs)
    return report, 0 if ok else 1


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--input", default="-",
                        help="path to a JSON document, or - for stdin")
    common.add_argument("--pretty", action="store_true",
                        help="indent the output document")
    common.add_argument("--timing", action="store_true",
                        help="include wall-clock seconds in the output")

    parser = argparse.ArgumentParser(
        prog="kummer",
        description="decide exactness, purity and splitting of sequences "
                    "of finitely generated abelian groups")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("snf", parents=[common]).set_defaults(handler=_cmd_snf)
    sub.add_parser("group", parents=[common]).set_defaults(handler=_cmd_group)
    for verb in ("seq-check", "seq-split"):
        sub.add_parser(verb, parents=[common]).set_defaults(handler=_cmd_seq)
    sub.add_parser("tower-validate", parents=[common]
                   ).set_defaults(handler=_cmd_tower_validate)
    sub.add_parser("tower-split", parents=[common]
                   ).set_defaults(handler=_cmd_tower_split)

    gen = sub.add_parser("tower-generate", parents=[common])
    gen.add_argument("--sigma", default=None,
                     help="inline sigma model JSON {p, r, M}")
    gen.add_argument("--n", type=int, default=2,
                     help="number of tower levels (default 2)")
    gen.set_defaults(handler=_cmd_tower_generate)

    depth = argparse.ArgumentParser(add_help=False)
    depth.add_argument("--depth", type=int, default=4,
                       help="probe depth for limit certificates")

    ce = sub.add_parser("counterexample", parents=[common, depth])
    ce.add_argument("--p", type=int, default=None)
    ce.set_defaults(handler=_cmd_counterexample)

    limit = sub.add_parser("limit-split", parents=[common])
    limit.add_argument("--precision", type=int, default=None,
                       help="p-power precision for case-1 evidence")
    limit.set_defaults(handler=_cmd_limit_split)
    sub.add_parser("dual", parents=[common]).set_defaults(handler=_cmd_dual)
    sub.add_parser("gmod-cohomology", parents=[common]
                   ).set_defaults(handler=_cmd_gmod_cohomology)
    sub.add_parser("gmod-split", parents=[common]
                   ).set_defaults(handler=_cmd_gmod_split)

    demo = sub.add_parser("demo", parents=[common, depth])
    demo.add_argument("name", choices=_DEMO_NAMES)
    demo.add_argument("--p", type=int, default=None)
    demo.add_argument("--seed", type=int, default=None,
                      help="seed for randomized demos")
    demo.set_defaults(handler=_cmd_demo)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    started = time.perf_counter()
    try:
        payload, code = args.handler(args)
    except KummerError as exc:
        error = {"kind": type(exc).__name__, "message": str(exc)}
        check = getattr(exc, "check", None)
        if check is not None:
            error["check"] = check
        component = getattr(exc, "component", None)
        if component is not None:
            error["component"] = component
        payload, code = {"error": error}, 2
    doc = jsonio.document(payload)
    if args.timing:
        doc["timing"] = {"seconds": round(time.perf_counter() - started, 6)}
    print(jsonio.dumps(doc, args.pretty))
    return code


if __name__ == "__main__":
    sys.exit(main())
