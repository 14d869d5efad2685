"""Canned end-to-end runs behind the `demo` command-line verb.

Each demo returns (ok, report) where the report is a JSON-ready dict.
Reports are deterministic for a fixed seed; no clocks, no environment.
Each demo imports the layers it runs, so a demo loads only those.
"""

from __future__ import annotations

import dataclasses
import random

from .errors import EvidenceError

__all__ = [
    "demo_main_lemma",
    "demo_counterexample",
    "demo_dual_lemma",
    "demo_direct_limit",
    "demo_chris",
    "DEMOS",
]


def demo_main_lemma(seed: int = 0) -> tuple[bool, dict]:
    """Eight random sigma towers plus three handcrafted ones: validate,
    split, verify."""
    from .fixtures import random_sigma_model, split_tower
    from .towers import sigma_kummer_tower, tower_split, validate_tower

    rng = random.Random(seed)
    towers = []
    for _ in range(8):
        p = rng.choice([2, 3, 5])
        model = random_sigma_model(rng, p, 3)
        n = rng.randint(1, 3)
        tower = sigma_kummer_tower(model, n)
        towers.append((tower, {"kind": "sigma", "p": p, "r": model.r, "levels": n,
                               "top_c": [str(d) for d in tower.top.C.invariant_factors]}))
    towers += [(split_tower(p, 3, a_mode),
                {"kind": "handcrafted", "p": p, "a_mode": a_mode, "levels": 3})
               for p, a_mode in ((2, "growing"), (3, "constant"), (2, "capped"))]
    rows = [{**row, "valid": validate_tower(tower).valid,
             "split": (tower.top.g @ tower_split(tower).s).is_identity()}
            for tower, row in towers]
    ok = all(row["valid"] and row["split"] for row in rows)
    return ok, {"towers": rows, "all_split": ok}


def demo_counterexample(p: int = 2, depth: int = 4) -> tuple[bool, dict]:
    """Certify that the classical family has no limit section."""
    from .colimits import counterexample_tower, limit_no_section_certificate

    cert = limit_no_section_certificate(counterexample_tower(p), depth)
    return cert.valid, {**dataclasses.asdict(cert), "valid": cert.valid}


def demo_dual_lemma(seed: int = 0) -> tuple[bool, dict]:
    """Dualize six random towers downward, split, and pull the section back."""
    from .fixtures import random_sigma_model
    from .sequences import double_dual_inverse, double_dual_iso, pontryagin_dual
    from .towers import dual_tower, dual_tower_split, sigma_kummer_tower

    rng = random.Random(seed)
    rows = []
    ok = True
    for _ in range(6):
        p = rng.choice([2, 3, 5])
        model = random_sigma_model(rng, p, 2)
        n = rng.randint(1, 3)
        tower = sigma_kummer_tower(model, n)
        co = dual_tower(tower)
        section = dual_tower_split(co)
        orig = tower.top
        back = ((double_dual_inverse(orig.A) @ pontryagin_dual(section.s))
                @ double_dual_iso(orig.B))
        retracts = (back @ orig.f).is_identity()
        preserved = all(
            dualized.invariant_factors == original.invariant_factors
            for dualized, original in
            ((co.top.A, orig.C), (co.top.B, orig.B), (co.top.C, orig.A)))
        ok = ok and retracts and preserved
        rows.append({"p": p, "r": model.r, "levels": n,
                     "retraction_verified": retracts,
                     "invariants_preserved": preserved})
    return ok, {"towers": rows, "all_verified": ok}


def demo_direct_limit(p: int = 2) -> tuple[bool, dict]:
    """The two splitting hypotheses in action, and the family they miss.

    Each result carries a ``Section``, which checks g∘s = id when it is
    built, so both cases split once ``direct_limit_split`` returns.
    """
    from . import jsonio
    from .colimits import (
        CaseTwoEvidence,
        counterexample_tower,
        direct_limit_split,
        divisible_tower,
        stabilizing_tower,
    )
    from .fixtures import (
        divisible_case_one_evidence,
        doomed_bounded_evidence,
        doomed_divisible_evidence,
    )

    stab = stabilizing_tower(p, 2)
    result2 = direct_limit_split(stab, CaseTwoEvidence(level=2))

    div = divisible_tower(p)
    result1 = direct_limit_split(div, divisible_case_one_evidence(div, 3))

    ce = counterexample_tower(p)
    rejections = {}
    try:
        direct_limit_split(ce, CaseTwoEvidence(level=3))
        rejections["case_two"] = None
    except EvidenceError as exc:
        rejections["case_two"] = exc.check
    for name, builder in (("case_one_divisible", doomed_divisible_evidence),
                          ("case_one_bounded", doomed_bounded_evidence)):
        try:
            direct_limit_split(ce, builder(ce, 3))
            rejections[name] = None
        except EvidenceError as exc:
            rejections[name] = exc.check
    rejected = all(check is not None for check in rejections.values())

    return rejected, {
        "p": p,
        "case_two": {"family": "stabilizing", "level": result2.level,
                     "split": True,
                     "section": jsonio.encode_matrix(result2.section.s.matrix)},
        "case_one": {"family": "divisible", "level": result1.level,
                     "split": True,
                     "verified_on": int(result1.section.seq.C.order),
                     "notes": list(result1.notes)},
        "counterexample_rejections": rejections,
    }


def demo_chris(p: int = 3) -> tuple[bool, dict]:
    """The mod-p cohomology obstruction computation for one prime."""
    from .cohomology import chris_verify

    report = chris_verify(p)
    return report.valid, {
        "p": report.p,
        "p_odd": report.p_odd,
        "h1_invariants": [str(d) for d in report.h1_invariants],
        "h2_invariants": [str(d) for d in report.h2_invariants],
        "h1_mod_p_invariants": [str(d) for d in report.h1_mod_p_invariants],
        "les_exact": report.les_exact,
        "equivariant_section_found": report.equivariant_section_found,
        "plain_section_found": report.plain_section_found,
        "inference": list(report.inference),
        "valid": report.valid,
    }


DEMOS = {
    "main-lemma": demo_main_lemma,
    "counterexample": demo_counterexample,
    "dual-lemma": demo_dual_lemma,
    "direct-limit": demo_direct_limit,
    "chris": demo_chris,
}
