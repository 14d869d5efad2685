"""Acceptance gate: twelve independently runnable criteria.

Each test prints one [PASS] line on success; `pytest -v` therefore shows
one pass/fail line per criterion. Random data is seeded so reruns see the
same instances. Every criterion has to finish well under a minute.
"""

import json
import random
import subprocess
import sys
import time

from kummer.colimits import (
    CaseTwoEvidence,
    ColimitElement,
    colimit_height,
    counterexample_tower,
    direct_limit_split,
    divisible_tower,
    limit_purity_witness,
    section_compatibility_solvable,
    stabilizing_tower,
)
from kummer.cohomology import (
    chris_verify,
    equivariant_section_exists,
    regular_extension_fixture,
    tate_cohomology,
    tate_model,
)
from kummer.errors import EvidenceError, PurityError
from kummer.groups import FgAbGroup
from kummer.matrices import IntMatrix, smith_normal_form
from kummer.sequences import (
    check_exact,
    double_dual_inverse,
    double_dual_iso,
    is_pure,
    pontryagin_dual,
    pure_witness,
    rank_m,
    section_exists,
    split_sequence,
)
from kummer.towers import (
    SigmaModel,
    crt_split,
    dual_tower,
    dual_tower_split,
    sigma_kummer_tower,
    tower_split,
    validate_tower,
)

from kummer.colimits import _probe_height
from kummer.fixtures import (
    divisible_case_one_evidence,
    doomed_bounded_evidence,
    doomed_divisible_evidence,
    random_sigma_model,
    split_tower,
)
from builders import order_six_glued, random_subgroup_sequence
from oracles import (
    brute_same_order_lift,
    congruence_section,
    elements,
    minors_gcd_diagonal,
    verify_section_on_all,
)

import pytest


def _passed(n: int, detail: str) -> None:
    print(f"[PASS] criterion {n:02d}: {detail}")


def test_criterion_01_snf_matches_minors_gcd_oracle():
    rng = random.Random(101)
    for i in range(500):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        mat = IntMatrix(rows, cols, tuple(
            rng.randint(-10, 10) for _ in range(rows * cols)))
        dec = smith_normal_form(mat)
        assert list(dec.diagonal) == minors_gcd_diagonal(mat), (i, mat)
    _passed(1, "500 random matrices, SNF diagonal == gcd of k-minors")


def test_criterion_02_pure_iff_split_on_300_random_sequences():
    rng = random.Random(202)
    verified = 0
    for i in range(300):
        seq = random_subgroup_sequence(rng, 256)
        cert = is_pure(seq)
        section = section_exists(seq)
        assert (section is None) == (congruence_section(seq) is None), (i, seq)
        assert bool(cert) == (section is not None), (i, seq)
        if section is not None and seq.C.order <= 64:
            assert verify_section_on_all(seq, section), (i, seq)
            verified += 1
    assert verified > 0
    _passed(2, f"300 sequences, pure == split == congruence oracle everywhere; "
               f"{verified} sections enumerated on C")


def test_criterion_03_elementwise_purity_matches_subgroup_criterion():
    rng = random.Random(303)
    checked = 0
    discrepancies = 0
    for _ in range(60):
        seq = random_subgroup_sequence(rng, 64)
        subgroup_pure = bool(is_pure(seq))
        elementwise = all(brute_same_order_lift(seq, c)
                          for c in elements(seq.C))
        if subgroup_pure != elementwise:
            discrepancies += 1
        for c in elements(seq.C):
            brute = brute_same_order_lift(seq, c)
            try:
                b = pure_witness(seq, c)
                witnessed = True
                assert seq.g(b) == c
                assert b.order() == c.order()
            except PurityError:
                witnessed = False
            if witnessed != brute:
                discrepancies += 1
            checked += 1
    assert discrepancies == 0
    _passed(3, f"{checked} elements over 60 sequences, zero discrepancies")


def test_criterion_04_all_valid_towers_split():
    rng = random.Random(404)
    generated = []
    for p in (2, 3, 5):
        for _ in range(34):
            model = random_sigma_model(rng, p, 3)
            generated.append(sigma_kummer_tower(model, rng.randint(1, 4)))
    handcrafted = []
    for p in (2, 3, 5):
        for mode in ("growing", "constant", "capped"):
            for c_rank in (1, 2):
                handcrafted.append(split_tower(p, 2 if p == 5 else 3,
                                               a_mode=mode, c_rank=c_rank))
    handcrafted.append(split_tower(2, 4, a_mode="growing", c_rank=1))
    handcrafted.append(split_tower(2, 4, a_mode="capped", c_rank=1))
    assert len(generated) >= 100 and len(handcrafted) == 20
    for i, t in enumerate(generated + handcrafted):
        report = validate_tower(t)
        assert report, (i, report.violations)
        s = tower_split(t)
        assert (t.top.g @ s.s).is_identity(), i
        if t.top.C.order <= 2048:
            assert verify_section_on_all(t.top, s), i
    _passed(4, f"{len(generated)} generated and {len(handcrafted)} "
               "handcrafted towers, all valid and split with verified "
               "sections")


def test_criterion_05_sigma_degenerate_cases():
    for p in (2, 3):
        ident = sigma_kummer_tower(SigmaModel(p, 2, IntMatrix.identity(2)), 4)
        for seq in ident.seqs:
            assert seq.A.is_trivial
    unit = SigmaModel(3, 2, IntMatrix.from_rows([[2, 1], [1, 1]]))
    assert unit.corank == 0
    assert all(v == 0 for v in unit.valuations)
    t = sigma_kummer_tower(unit, 4)
    for seq in t.seqs:
        assert seq.C.is_trivial
    _passed(5, "identity sigma kills the A column (k <= 4); "
               "unit-determinant difference kills the C column")


def test_criterion_06_counterexample_family_behaviour():
    for p in (2, 3):
        t = counterexample_tower(p)
        for k in range(1, 6):
            lo, hi = t.sequence(k), t.sequence(k + 1)
            lm = t.step(k)
            assert (hi.g @ lm.beta).same_map(lm.gamma @ lo.g), (p, k)
            assert (hi.f @ lm.alpha).same_map(lm.beta @ lo.f), (p, k)
        for n in range(1, 7):
            s = section_exists(t.sequence(n))
            assert s is not None, (p, n)
            assert not section_compatibility_solvable(t, n), (p, n)
        for n in range(1, 7):
            grp = t.sequence(n).B
            if grp.order > 1024:
                break
            depth = max(1, 6 - n)
            for x in elements(grp):
                e = ColimitElement(t, n, "B", x)
                closed = colimit_height(e, depth)
                probe = _probe_height(e, depth)
                assert closed.exact and not probe.exact
                if closed.saturated:
                    assert probe.saturated, (p, n, x)
                else:
                    assert probe.height == closed.height, (p, n, x)
        c4 = t.sequence(4).C
        for x in elements(c4):
            c = ColimitElement(t, 4, "C", x).canonical()
            assert c.value.order() <= p ** 4
            b = limit_purity_witness(t, c)
            assert b.value.order() == c.value.order(), (p, x)
            pushed = b.push(4)
            assert t.sequence(4).g(pushed.value) == x, (p, x)
    _passed(6, "p in {2,3}: squares exact, level sections exist, "
               "compatibility unsolvable to level 6, heights match "
               "exhaustive search, purity witnesses to order p^4")


def test_criterion_07_direct_limit_splitting():
    stab = stabilizing_tower(2)
    res2 = direct_limit_split(stab, CaseTwoEvidence(level=2))
    assert res2.case == 2
    assert verify_section_on_all(stab.sequence(res2.level), res2.section)

    div = divisible_tower(2)
    ev = divisible_case_one_evidence(div, 3)
    res1 = direct_limit_split(div, ev)
    assert res1.case == 1
    seq = div.sequence(res1.level)
    assert verify_section_on_all(seq, res1.section)

    ce = counterexample_tower(2)
    with pytest.raises(EvidenceError) as err:
        direct_limit_split(ce, CaseTwoEvidence(level=4))
    assert err.value.check == "stabilization"
    with pytest.raises(EvidenceError) as err:
        direct_limit_split(ce, doomed_divisible_evidence(ce, 3))
    assert err.value.check == "V4"
    with pytest.raises(EvidenceError) as err:
        direct_limit_split(ce, doomed_bounded_evidence(ce, 3))
    assert err.value.check == "V3"
    _passed(7, "case 2 splits at the stable level, case 1 splits the "
               "divisible fixture, the counterexample fails both "
               "hypothesis checks")


def test_criterion_08_dualized_towers_split_and_retract():
    rng = random.Random(808)
    count = 0
    while count < 50:
        p = rng.choice([2, 3, 5])
        model = random_sigma_model(rng, p, 2)
        t = sigma_kummer_tower(model, rng.randint(1, 3))
        if not validate_tower(t):
            continue
        co = dual_tower(t)
        s = dual_tower_split(co)
        assert (co.top.g @ s.s).is_identity()
        orig = t.seqs[-1]
        back = (double_dual_inverse(orig.A)
                @ pontryagin_dual(s.s)) @ double_dual_iso(orig.B)
        assert (back @ orig.f).is_identity(), count
        for pair in ((co.top.A, orig.C), (co.top.B, orig.B),
                     (co.top.C, orig.A)):
            assert pair[0].invariant_factors == pair[1].invariant_factors
        count += 1
    _passed(8, "50 dualized towers split; dual sections retract the "
               "original injections; invariant factors preserved")


def test_criterion_09_crt_assembly_order_six():
    fix = order_six_glued()
    section = crt_split(fix.m, fix.towers, fix.glue)
    seq = fix.glue.seq
    assert seq.C.order == 6
    for c in elements(seq.C):
        assert seq.g(section(c)) == c
    _passed(9, "m = 6 glued sequence split, verified on all "
               f"{int(seq.C.order)} elements of C")


def test_criterion_10_mod_p_obstruction_reproduction():
    for p in (3, 5, 7):
        start = time.monotonic()
        report = chris_verify(p)
        elapsed = time.monotonic() - start
        assert report.valid, p
        assert report.h1_mod_p_invariants == (p, p)
        tate = tate_cohomology(tate_model(p))
        assert not tate.minus_one.group.is_trivial
        fixture = regular_extension_fixture(p)
        assert equivariant_section_exists(fixture) is None
        assert section_exists(fixture.sequence) is not None
        assert elapsed < 5.0, (p, elapsed)
    _passed(10, "p in {3,5,7}: H1 of the mod-p reduction is (p, p), "
                "degree -1 group nonzero, plain-but-not-equivariant "
                "splitting, under 5 s per prime")


def test_criterion_11_rank_additivity_and_composite_witness():
    rng = random.Random(1111)
    for i in range(200):
        p = rng.choice([2, 3, 5])
        t = rng.randint(1, 3)
        m = p ** t
        orders = [rng.choice([2, 3, 4, 5, 8, 9, 25, 27])
                  for _ in range(rng.randint(1, 3))]
        a = FgAbGroup.of_orders(*orders[:rng.randint(1, len(orders))])
        c = FgAbGroup.of_orders(*[rng.choice([2, 3, 4, 8, 9, 27])
                                  for _ in range(rng.randint(1, 2))])
        seq = split_sequence(a, c)
        assert rank_m(seq.B, m) == rank_m(a, m) + rank_m(c, m), (i, m)
    for _ in range(40):
        a = FgAbGroup.of_orders(rng.choice([2, 4, 6]))
        c = FgAbGroup.of_orders(rng.choice([3, 6, 9]))
        seq = split_sequence(a, c)
        assert rank_m(seq.B, 6) >= rank_m(a, 6) + rank_m(c, 6)
    b = FgAbGroup.of_orders(2, 3)
    assert rank_m(b, 6) == 1
    assert rank_m(FgAbGroup.cyclic(2), 6) + rank_m(FgAbGroup.cyclic(3), 6) == 0
    _passed(11, "200 split sequences additive for m = p^t; composite "
                "m = 6 only >=, witness rk_6(Z/2 + Z/3) = 1 > 0")


def _run_cli(argv, stdin=""):
    return subprocess.run([sys.executable, "-m", "kummer", *argv],
                          input=stdin, capture_output=True, text=True,
                          timeout=120)


def test_criterion_12_cli_determinism_and_exit_codes():
    for name in ("main-lemma", "counterexample", "dual-lemma",
                 "direct-limit", "chris"):
        first = _run_cli(["demo", name])
        second = _run_cli(["demo", name])
        assert first.returncode == 0, (name, first.stdout[-400:])
        assert first.stdout == second.stdout, name

    ok = _run_cli(["group"], json.dumps(
        {"schema": 1, "generators": 1, "relations":
         {"rows": 1, "cols": 1, "data": ["4"]}}))
    assert ok.returncode == 0

    z2 = {"generators": 1, "relations":
          {"rows": 1, "cols": 1, "data": ["2"]}}
    z4 = {"generators": 1, "relations":
          {"rows": 1, "cols": 1, "data": ["4"]}}
    impure = _run_cli(["seq-check"], json.dumps({
        "schema": 1,
        "f": {"source": z2, "target": z4,
              "matrix": {"rows": 1, "cols": 1, "data": ["2"]}},
        "g": {"source": z4, "target": z2,
              "matrix": {"rows": 1, "cols": 1, "data": ["1"]}}}))
    assert impure.returncode == 1

    broken = _run_cli(["group"], "{not json")
    assert broken.returncode == 2
    assert json.loads(broken.stdout)["error"]["kind"] == "InputError"
    _passed(12, "five demos byte-identical across runs; exit codes 0, 1, "
                "2 each exercised")
